"""One benchmark iteration, run by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace SPANS.jsonl]
    python3 perfbench/worker.py --setup-only

The worker imports centralq from the checkout's `src/`, loads the bundled
reference table and prints `READY` (run.py times set-up up to that line).
It then runs the workload body once, compares every computed cell with
the reference table, and prints one JSON line with the timings and the
cell accounting.  With --trace the body runs under the timing shims of
layers.py, the spans are written to the given file and the JSON line also
carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

HEAVY_ROWS = ("C4xC4xC4", "C4xC4xC2xC2")
SWEEP_BUDGET = 50_000
AUT_CLASSES_GROUP = "C5xC5xC5"


def _import_centralq():
    sys.path.insert(0, str(SRC))
    try:
        import centralq
    except ImportError as exc:
        sys.exit(f"cannot import centralq from {SRC}: {exc}")
    if not Path(centralq.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"centralq was imported from {centralq.__file__}, not from {SRC}")
    return centralq


# ---------------------------------------------------------------------------
# workload bodies: each returns {descriptor: cells or exception}, where cells
# maps a fixture field to its computed value (None = refused over the budget)


def heavy_rows(fixture, seed, jobs):
    from centralq import abelian, counting

    out = {}
    for desc in HEAVY_ROWS:
        try:
            out[desc] = counting.enumerate_group(abelian.parse_group(desc), jobs=jobs).to_dict()
        except Exception as exc:
            out[desc] = exc
    return out


def table_sweep(fixture, seed, jobs):
    from centralq import abelian, counting

    rows = sorted(fixture)
    random.Random(seed).shuffle(rows)
    WORK.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        cache = counting.ReportCache(cache_dir)
        out = {}
        for desc in rows:
            try:
                rep = counting.group_report(
                    abelian.parse_group(desc), budget=SWEEP_BUDGET, jobs=jobs, cache=cache
                )
                out[desc] = rep.to_dict()
            except Exception as exc:
                out[desc] = exc
        return out
    finally:
        shutil.rmtree(cache_dir)


def aut_classes(fixture, seed, jobs):
    from centralq import abelian, action, endo

    try:
        aut = endo.aut_group(abelian.parse_group(AUT_CLASSES_GROUP))
        classes = action.conjugacy_class_reps(aut)
        cells = {"aut_order": len(aut), "conj_classes": len(classes)}
    except Exception as exc:
        cells = exc
    return {AUT_CLASSES_GROUP: cells}


# name -> (body, jobs when untraced, cells refused over the budget at seed)
WORKLOADS = {
    "heavy_rows": (heavy_rows, 2, 0),
    "table_sweep": (table_sweep, 1, 24),
    "aut_classes": (aut_classes, 1, 0),
}


def check_cells(computed: dict, fixture: dict, expected_refused: int) -> dict:
    """Compare every known fixture cell of every computed row; never skip one."""
    checked = mismatched = raised = refused = 0
    problems = []
    for desc, cells in computed.items():
        known = fixture[desc].known_cells
        if isinstance(cells, Exception):
            checked += len(known)
            raised += len(known)
            problems.append(f"{desc}: raised {type(cells).__name__}: {cells}")
            continue
        for field, want in known.items():
            got = cells.get(field, "missing")
            if got is None:
                refused += 1
                continue
            checked += 1
            if got != want:
                mismatched += 1
                problems.append(f"{desc} {field}: computed {got}, table says {want}")
    unexpected = abs(refused - expected_refused)
    if unexpected:
        problems.append(f"{refused} cells refused over the budget, expected {expected_refused}")
    failed = mismatched + raised + unexpected
    return {
        "cells_checked": checked,
        "cells_refused": refused,
        "cells_mismatched": mismatched,
        "cells_raised": raised,
        "cells_failed": failed,
        "problems": problems[:20],
    }


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb * 1024 / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    centralq = _import_centralq()
    from centralq import cli

    t = time.perf_counter()
    group_rows, _ = cli.load_fixture()
    load_fixture_s = time.perf_counter() - t
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --setup-only")

    import numpy as np

    from layers import Tracer, layer_metrics, tracing

    fixture = {r.descriptor: r for r in group_rows}
    body, jobs, expected_refused = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    # the fork pool never gets more workers than cores; spans need one process
    jobs = 1 if tracer else min(jobs, len(os.sched_getaffinity(0)))

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with tracing(tracer) if tracer else nullcontext():
        computed = body(fixture, args.seed, jobs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "traced": bool(tracer),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "load_fixture_s": load_fixture_s,
        "centralq": centralq.__version__,
        "numpy": np.__version__,
        **check_cells(computed, fixture, expected_refused),
    }
    if tracer:
        result["layers"] = {
            "cli.load_fixture_s": load_fixture_s,
            "trace.wall_s": wall_s,
            **layer_metrics(tracer.spans),
        }
        with open(args.trace, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
