"""Counting central and medial quasigroups over finite abelian groups.

The isomorphism classes of operations x*y = phi(x) + psi(y) + c with
phi, psi automorphisms of one carrier group are the orbits, for every
conjugacy representative phi of Aut(G), of its centralizer on the pairs
(psi, coset of Im(1 - phi - psi)).  cq counts all classes, mq the classes
with commuting phi, psi.  enumerate_group counts them by Cauchy-Frobenius,
averaging fixed points over orbits of commuting pairs of automorphisms,
so no pair is listed; classify_representatives lists one triple
(phi, psi, c) per class from the pair spaces themselves.

Order-level queries factor each group into its prime components, use the
closed formula for cyclic components, run the algorithm on the rest and
multiply the reports back together (the counts are multiplicative over
coprime direct factors).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from . import _engine
from .abelian import AbelianGroup, abelian_groups_of_order, direct_product, parse_group
from .endo import (
    DEFAULT_AUT_BUDGET,
    ResourceLimitError,
    aut_group,
    aut_group_order,
)

SCHEMA_VERSION = 1

_REPORT_FIELDS = (
    "aut_order",
    "conj_classes",
    "pair_orbits",
    "cq",
    "commuting_pair_orbits",
    "mq",
)


@dataclass(frozen=True)
class GroupReport:
    """One carrier group's counts; None marks values refused under the budget."""

    descriptor: str
    aut_order: int | None
    conj_classes: int | None
    pair_orbits: int | None
    cq: int | None
    commuting_pair_orbits: int | None
    mq: int | None
    note: str = ""

    def __post_init__(self):
        if self.complete:
            ok = (
                self.cq >= self.pair_orbits >= self.commuting_pair_orbits
                and self.mq >= self.commuting_pair_orbits
                and self.cq >= self.mq
                and self.aut_order >= self.conj_classes
            )
            if not ok:
                raise AssertionError(f"inconsistent report: {self}")

    @property
    def complete(self) -> bool:
        return all(getattr(self, f) is not None for f in _REPORT_FIELDS)

    def to_dict(self) -> dict:
        d = {"descriptor": self.descriptor}
        d.update({f: getattr(self, f) for f in _REPORT_FIELDS})
        if self.note:
            d["note"] = self.note
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GroupReport":
        return cls(
            descriptor=d["descriptor"],
            note=d.get("note", ""),
            **{f: d.get(f) for f in _REPORT_FIELDS},
        )


@dataclass
class OrderReport:
    """Totals for one order; None totals mean some group was unavailable."""

    n: int
    cq: int | None
    mq: int | None
    per_group: list[GroupReport]

    def to_dict(self) -> dict:
        return {
            "order": self.n,
            "cq": self.cq,
            "mq": self.mq,
            "groups": [g.to_dict() for g in self.per_group],
        }


# ---------------------------------------------------------------------------
# closed formula for cyclic groups of prime power order


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")


def cq_cyclic_prime_power(p: int, k: int) -> int:
    """Number of quasigroup classes over the cyclic group of order p**k.

    Every such quasigroup is medial (the automorphism group is
    commutative), so this value is both the central and the medial count.
    """
    _check_prime(p)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    return p ** (2 * k) + p ** (2 * k - 2) - p ** (k - 1) - sum(
        p**i for i in range(k - 1, 2 * k)
    )


def cyclic_prime_power_report(p: int, k: int) -> GroupReport:
    """Full report for a cyclic prime power group, no enumeration needed.

    The automorphism group is commutative, so conjugation is trivial:
    every member is its own class and every pair its own orbit.
    """
    g = AbelianGroup([(p, k)])
    units = aut_group_order(g)
    count = cq_cyclic_prime_power(p, k)
    return GroupReport(
        descriptor=g.descriptor,
        aut_order=units,
        conj_classes=units,
        pair_orbits=units * units,
        cq=count,
        commuting_pair_orbits=units * units,
        mq=count,
    )


# ---------------------------------------------------------------------------
# direct enumeration and coprime combination


def enumerate_group(
    group: AbelianGroup,
    *,
    budget: int | None = DEFAULT_AUT_BUDGET,
    jobs: int = 1,
) -> GroupReport:
    """Run the full algorithm on one group (no dispatch, no cache).

    Raises ResourceLimitError when Aut(G) would exceed the budget.
    """
    aut = aut_group(group, budget=budget)
    counts = _engine.enumerate_counts(group, aut, jobs=jobs)
    return GroupReport(
        descriptor=group.descriptor,
        aut_order=len(aut),
        conj_classes=counts.conj_classes,
        pair_orbits=counts.pair_orbits,
        cq=counts.cq,
        commuting_pair_orbits=counts.commuting_pair_orbits,
        mq=counts.mq,
    )


def combine_coprime(r1: GroupReport, r2: GroupReport) -> GroupReport:
    """Report for a direct product of groups of coprime order.

    All six fields multiply: automorphisms, conjugacy classes, orbits and
    isomorphism classes all decompose as direct products across coprime
    components.
    """
    g1 = parse_group(r1.descriptor)
    g2 = parse_group(r2.descriptor)
    if gcd(g1.order, g2.order) != 1:
        raise ValueError(
            f"orders {g1.order} and {g2.order} are not coprime; "
            "the product rule does not apply"
        )

    def mul(a, b):
        return None if a is None or b is None else a * b

    note = "; ".join(x for x in (r1.note, r2.note) if x)
    return GroupReport(
        descriptor=direct_product(g1, g2).descriptor,
        note=note,
        **{f: mul(getattr(r1, f), getattr(r2, f)) for f in _REPORT_FIELDS},
    )


# ---------------------------------------------------------------------------
# cache


def default_cache_dir() -> Path:
    env = os.environ.get("CENTRALQ_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "centralq"


class ReportCache:
    """One JSON file per group descriptor; only complete reports are kept.

    Entries record the engine version that computed them, and an entry
    from any other version reads as a miss.
    """

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, descriptor: str) -> Path:
        return self.directory / f"{descriptor}.json"

    def get(self, descriptor: str) -> GroupReport | None:
        path = self._path(descriptor)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("engine") != _engine.ENGINE_VERSION:
            return None
        report = GroupReport.from_dict(payload)
        return report if report.complete else None

    def put(self, report: GroupReport) -> None:
        if not report.complete:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_VERSION,
            "engine": _engine.ENGINE_VERSION,
            **report.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, self._path(report.descriptor))
        except BaseException:
            os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# dispatch: formula, coprime factorization, direct run


def group_report(
    group: AbelianGroup,
    *,
    budget: int | None = DEFAULT_AUT_BUDGET,
    jobs: int = 1,
    cache: ReportCache | None = None,
) -> GroupReport:
    """Report for one group, splitting into prime components first.

    Cyclic prime power components use the closed formula; other components
    run the algorithm (consulting the cache when given).  A component over
    the budget yields an incomplete report instead of raising.
    """
    spans = group.prime_spans
    if not spans:
        return GroupReport("C1", 1, 1, 1, 1, 1, 1)

    parts = []
    for p, i0, i1 in spans:
        comp = AbelianGroup(group.factors[i0:i1])
        if i1 - i0 == 1:
            parts.append(cyclic_prime_power_report(p, group.factors[i0][1]))
            continue
        cached = cache.get(comp.descriptor) if cache else None
        if cached is not None:
            parts.append(cached)
            continue
        try:
            rep = enumerate_group(comp, budget=budget, jobs=jobs)
        except ResourceLimitError as exc:
            rep = GroupReport(
                descriptor=comp.descriptor,
                aut_order=exc.estimated,
                conj_classes=None,
                pair_orbits=None,
                cq=None,
                commuting_pair_orbits=None,
                mq=None,
                note=str(exc),
            )
        else:
            if cache:
                cache.put(rep)
        parts.append(rep)

    out = parts[0]
    for nxt in parts[1:]:
        out = combine_coprime(out, nxt)
    return out


def cq_mq_of_order(
    n: int,
    *,
    budget: int | None = DEFAULT_AUT_BUDGET,
    jobs: int = 1,
    cache: ReportCache | None = None,
) -> OrderReport:
    """Totals over all abelian groups of order n, one report per group.

    Groups whose automorphism group is over the budget stay in the list
    with unavailable fields, and make the totals unavailable too.
    """
    groups = abelian_groups_of_order(n)
    reports = [group_report(g, budget=budget, jobs=jobs, cache=cache) for g in groups]
    cq = mq = 0
    for r in reports:
        if r.cq is None or r.mq is None:
            cq = mq = None
            break
        cq += r.cq
        mq += r.mq
    return OrderReport(n=n, cq=cq, mq=mq, per_group=reports)


# ---------------------------------------------------------------------------
# explicit classification


def classify_representatives(
    group: AbelianGroup,
    *,
    budget: int | None = DEFAULT_AUT_BUDGET,
    jobs: int = 1,
):
    """One affine triple per isomorphism class over the given group.

    Returns a list of AffineTriple in a deterministic order; each triple
    knows whether it is medial (commuting automorphism pair).
    """
    from .quasigroup import AffineTriple

    aut = aut_group(group, budget=budget)
    counts = _engine.enumerate_counts(group, aut, jobs=jobs, collect=True)
    triples = []
    for res in counts.class_results:
        phi = aut.member(res.rep)
        for m, r, _medial in res.triples:
            triples.append(AffineTriple(group, phi, aut.member(m), group.element_at(r)))
    if len(triples) != counts.cq:
        raise AssertionError("classification does not match the counted classes")
    return triples
