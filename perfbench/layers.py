"""Outside-in tracing: timing shims around centralq's public callables.

Inside a `tracing(tracer)` block the callables listed in `_TARGETS` are
replaced, on their modules and classes, by shims that record one span per
call (name, start, end, parent span, outcome) and hand back the original
result.  The program's source is untouched.  Spans stay in memory; the
worker writes them out when the iteration ends and `layer_metrics` turns
them into per-layer totals, counts and self times.

Private helpers (coset data, transport, label propagation) have no span of
their own: their time is the self time of `engine.process_class`.  Spans
inside fork-pool workers are not seen, so traced iterations use jobs=1.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            **self.info,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, note):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            span.info = note(out)
        return out


def _note_aut(aut) -> dict:
    return {
        "members": len(aut),
        "tables_bytes": int(aut.tables.nbytes),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _targets():
    from centralq import _engine, action, counting, endo

    ctx = _engine.EngineContext
    return [
        # (owner, attribute, span name, note on the result)
        (endo, "aut_group", "endo.aut_group", _note_aut),
        (counting, "aut_group", "endo.aut_group", _note_aut),
        (counting, "enumerate_group", "counting.enumerate_group", None),
        (counting, "combine_coprime", "counting.combine_coprime", None),
        (counting, "cyclic_prime_power_report", "counting.cyclic_prime_power_report", None),
        (counting.ReportCache, "get", "counting.cache_get", lambda r: {"hit": r is not None}),
        (counting.ReportCache, "put", "counting.cache_put", None),
        (_engine, "process_class", "engine.process_class", lambda r: {"cq": r.cq}),
        (ctx, "conj_perm", "engine.conj_perm", None),
        (ctx, "centralizer_mask", "engine.centralizer_mask", None),
        (ctx, "find_generators", "engine.find_generators", None),
        (ctx, "closure_mask", "engine.closure_mask", None),
        (ctx, "conjugacy_class_labels", "engine.conjugacy_class_labels", None),
        (ctx, "agens", "engine.agens", None),
        (action, "conjugacy_class_reps", "action.conjugacy_class_reps", None),
    ]


def _shim(tracer: Tracer, name: str, fn, note):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)

    return shim


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the shims for the length of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, note in _targets():
            orig = vars(owner)[attr]
            if isinstance(orig, property):
                new = property(_shim(tracer, name, orig.fget, note))
            else:
                new = _shim(tracer, name, orig, note)
            saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Totals, counts and self times per layer, keyed by per-layer metric name.

    Times are seconds of wall time inside the span (children included)
    unless the name says self; a self time is the span's duration minus
    the time covered by its child spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(s.duration for _, s in named(name))

    def count(name):
        return len(named(name))

    def self_time(name):
        return sum(s.duration - child_time[i] for i, s in named(name))

    auts = [s.info for _, s in named("endo.aut_group") if s.info]
    classes = [s for _, s in named("engine.process_class")]
    gets = [s for _, s in named("counting.cache_get")]
    hits = sum(1 for s in gets if s.info.get("hit"))

    # generator searches: closure calls made directly by a search span,
    # per search that made any (cached `agens` reads make none)
    searches = {
        i for i, s in enumerate(spans)
        if s.name in ("engine.find_generators", "engine.agens")
    }
    closure_parents = [s.parent for _, s in named("engine.closure_mask") if s.parent in searches]
    n_searches = len(set(closure_parents))

    return {
        "endo.aut_group_s": total("endo.aut_group"),
        "endo.aut_group_calls": count("endo.aut_group"),
        "endo.members": sum(a["members"] for a in auts),
        "endo.tables_mb": max((a["tables_bytes"] for a in auts), default=0) / 1e6,
        "endo.rss_after_mb": max((a["maxrss_kb"] for a in auts), default=0) * 1024 / 1e6,
        "action.conjugacy_class_reps_s": total("action.conjugacy_class_reps"),
        "engine.conj_labels_s": self_time("engine.conjugacy_class_labels"),
        "engine.agens_s": total("engine.agens"),
        "engine.closure_mask_s": total("engine.closure_mask"),
        "engine.closure_mask_calls": count("engine.closure_mask"),
        "engine.closure_per_search": len(closure_parents) / n_searches if n_searches else 0.0,
        "engine.conj_perm_s": total("engine.conj_perm"),
        "engine.conj_perm_calls": count("engine.conj_perm"),
        "engine.centralizer_mask_s": total("engine.centralizer_mask"),
        "engine.find_generators_s": total("engine.find_generators"),
        "engine.process_class_s": total("engine.process_class"),
        "engine.process_class_self_s": self_time("engine.process_class"),
        "engine.classes": len(classes),
        "engine.orbits_found": sum(s.info.get("cq", 0) for s in classes),
        "engine.class_max_s": max((s.duration for s in classes), default=0.0),
        "counting.enumerate_group_s": total("counting.enumerate_group"),
        "counting.enumerate_group_calls": count("counting.enumerate_group"),
        "counting.budget_refusals": sum(
            1 for _, s in named("counting.enumerate_group") if s.error == "ResourceLimitError"
        ),
        "counting.cache_gets": len(gets),
        "counting.cache_hits": hits,
        "counting.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "counting.cache_puts": count("counting.cache_put"),
        "counting.cache_put_s": total("counting.cache_put"),
        "counting.formula_components": count("counting.cyclic_prime_power_report"),
        "counting.combine_coprime_s": total("counting.combine_coprime"),
    }
