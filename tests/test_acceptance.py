"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines as they happen.  The heaviest table row (the
elementary abelian group of order 32, |Aut| ~ 10^7) is split out behind
the `stretch` marker together with everything derived from it; run
`pytest -m stretch` to include it (about 40 s on two cores).
"""

import random
import time
from contextlib import contextmanager
from math import gcd

import pytest

from centralq.abelian import abelian_groups_of_order, parse_group
from centralq.cli import main as cli_main
from centralq.counting import (
    ReportCache,
    classify_representatives,
    combine_coprime,
    cq_cyclic_prime_power,
    cq_mq_of_order,
    enumerate_group,
    group_report,
)
from centralq.endo import aut_group, aut_group_order
from centralq.quasigroup import (
    brute_force_isomorphic,
    build_quasigroup,
    is_isomorphic_affine,
    is_latin,
    is_medial,
)

from reference_engine import pair_orbit_count_bruteforce

_REPORT_CELLS = (
    "aut_order",
    "conj_classes",
    "pair_orbits",
    "cq",
    "commuting_pair_orbits",
    "mq",
)

# refuses nothing needed below order 127 except the |Aut| ~ 10^7 cases
_MODEST_BUDGET = 1_000_000


@contextmanager
def criterion(num, text):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {text} ({time.time() - start:.1f}s)")


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory):
    return ReportCache(tmp_path_factory.mktemp("report-cache"))


def _check_row(report, row):
    for cell in _REPORT_CELLS:
        want = getattr(row, cell)
        if want is not None:
            assert getattr(report, cell) == want, (row.descriptor, cell)


def test_criterion_1_table_replication_to_order_32(fixture_groups, fixture_orders, session_cache):
    with criterion(1, "table replication for orders <= 32 (heaviest row separate)"):
        start = time.time()
        totals = {}
        for row in fixture_groups.values():
            if row.order > 32 or row.descriptor == "C2xC2xC2xC2xC2":
                continue
            rep = group_report(parse_group(row.descriptor), cache=session_cache)
            _check_row(rep, row)
            totals.setdefault(row.order, [0, 0])
            totals[row.order][0] += rep.cq
            totals[row.order][1] += rep.mq
        for n, (cq, mq) in totals.items():
            if n == 32:
                continue  # needs the heaviest row, covered by the stretch test
            orow = fixture_orders[n]
            assert (cq, mq) == (orow.cq, orow.mq), n
        elapsed = time.time() - start
        assert elapsed < 300, f"order <= 32 replication took {elapsed:.0f}s"


@pytest.mark.stretch
def test_criterion_1_stretch_heaviest_row(fixture_groups, fixture_orders, session_cache):
    with criterion("1s", "heaviest order-32 row via the verify command, two workers"):
        start = time.time()
        code = cli_main(
            ["verify", "--max", "32", "--jobs", "2",
             "--cache-dir", str(session_cache.directory)]
        )
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 1800, f"verify --max 32 took {elapsed:.0f}s with two workers"


def _composite_numbers():
    for n in range(33, 128):
        facs = {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}
        if len(facs) > 1:
            yield n


def test_criterion_2_composite_range(fixture_groups, fixture_orders, session_cache):
    with criterion(2, "composite orders 33..127 derived from prime power parts"):
        for n in _composite_numbers():
            report = cq_mq_of_order(n, budget=_MODEST_BUDGET, cache=session_cache)
            needs_heavy = False
            for rep in report.per_group:
                row = fixture_groups[rep.descriptor]
                if rep.complete:
                    _check_row(rep, row)
                else:
                    # the only underivable composite rows are the ones built
                    # on the order-32 elementary abelian group
                    assert "C2xC2xC2xC2xC2" in rep.descriptor
                    needs_heavy = True
            orow = fixture_orders[n]
            if needs_heavy:
                assert report.cq is None and report.mq is None
            else:
                assert (report.cq, report.mq) == (orow.cq, orow.mq), n

        # prime power orders in the range are not derivable by products;
        # their unknown totals must stay unknown, never guessed
        for n in (64, 81, 125):
            report = cq_mq_of_order(n, budget=_MODEST_BUDGET, cache=session_cache)
            assert report.cq is None and report.mq is None
            for rep in report.per_group:
                row = fixture_groups[rep.descriptor]
                if rep.complete:
                    _check_row(rep, row)
                else:
                    assert "budget" in rep.note
        # known cells of the remaining prime power orders, where affordable
        for row in fixture_groups.values():
            if 33 <= row.order <= 127 and row.aut_order <= 16000:
                g = parse_group(row.descriptor)
                if len(g.prime_spans) == 1:
                    _check_row(group_report(g, cache=session_cache), row)


@pytest.mark.stretch
def test_criterion_2_stretch_rows(fixture_groups, fixture_orders, session_cache):
    with criterion("2s", "order 96 rows built on the heaviest order-32 group"):
        heavy = group_report(parse_group("C2^5"), cache=session_cache, jobs=2)
        _check_row(heavy, fixture_groups["C2xC2xC2xC2xC2"])
        report = cq_mq_of_order(96, cache=session_cache)
        for rep in report.per_group:
            _check_row(rep, fixture_groups[rep.descriptor])
        orow = fixture_orders[96]
        assert (report.cq, report.mq) == (orow.cq, orow.mq)
        o32 = fixture_orders[32]
        r32 = cq_mq_of_order(32, cache=session_cache)
        assert (r32.cq, r32.mq) == (o32.cq, o32.mq)


def test_criterion_3_closed_formula_cross_check():
    with criterion(3, "closed formula equals the algorithm for prime powers <= 128"):
        start = time.time()
        prime_powers = []
        for p in range(2, 128):
            if any(p % d == 0 for d in range(2, p)):
                continue
            q = p
            k = 1
            while q <= 128:
                prime_powers.append((p, k, q))
                q *= p
                k += 1
        assert len(prime_powers) == 44
        for p, k, q in prime_powers:
            formula = cq_cyclic_prime_power(p, k)
            direct = enumerate_group(parse_group(f"C{q}"))
            assert formula == direct.cq == direct.mq, (p, k)
            if k == 1:
                assert formula == p * p - p - 1
            if p == 2:
                assert formula == 2 ** (2 * k - 2)
        elapsed = time.time() - start
        assert elapsed < 60, f"formula cross-check took {elapsed:.0f}s"


def test_criterion_4_classification_soundness_oracle():
    with criterion(4, "classified triples are sound and complete for |G| <= 6"):
        start = time.time()
        for n in range(1, 7):
            for g in abelian_groups_of_order(n):
                reps = classify_representatives(g)
                tables = [build_quasigroup(t) for t in reps]
                for i in range(len(tables)):
                    for j in range(i + 1, len(tables)):
                        assert not brute_force_isomorphic(tables[i], tables[j]), (
                            g.descriptor, i, j,
                        )
                A = aut_group(g)
                for i in range(len(A)):
                    for j in range(len(A)):
                        for c in g.elements():
                            from centralq.quasigroup import AffineTriple

                            t = AffineTriple(g, A.member(i), A.member(j), c)
                            matches = [
                                r for r in reps if is_isomorphic_affine(t, r, A)
                            ]
                            assert len(matches) == 1, (g.descriptor, i, j, c)
        elapsed = time.time() - start
        assert elapsed < 120, f"classification oracle took {elapsed:.0f}s"


def test_criterion_5_laws_of_representative_tables():
    with criterion(5, "representative tables Latin; medial law tracks commuting maps"):
        for n in range(1, 10):
            for g in abelian_groups_of_order(n):
                for t in classify_representatives(g):
                    table = build_quasigroup(t)
                    assert is_latin(table), g.descriptor
                    assert is_medial(table) == t.medial, g.descriptor


def test_criterion_6_multiplicativity():
    with criterion(6, "products of coprime groups multiply in all six fields"):
        rng = random.Random(20260810)
        candidates = []
        for a in range(2, 21):
            for b in range(2, 41):
                if a * b <= 40 and gcd(a, b) == 1:
                    for ga in abelian_groups_of_order(a):
                        for gb in abelian_groups_of_order(b):
                            candidates.append((ga, gb))
        picks = rng.sample(candidates, 20)
        for ga, gb in picks:
            product = parse_group(f"{ga.descriptor}x{gb.descriptor}")
            direct = enumerate_group(product)
            combined = combine_coprime(enumerate_group(ga), enumerate_group(gb))
            for cell in _REPORT_CELLS:
                assert getattr(direct, cell) == getattr(combined, cell), (
                    ga.descriptor, gb.descriptor, cell,
                )


def test_criterion_7_pair_orbit_equivalence():
    with criterion(7, "nested pair orbits equal direct pair-space orbits, |Aut| <= 48"):
        checked = 0
        for n in range(1, 128):
            for g in abelian_groups_of_order(n):
                if aut_group_order(g) > 48:
                    continue
                A = aut_group(g)
                nested = enumerate_group(g).pair_orbits
                direct = pair_orbit_count_bruteforce(A)
                assert nested == direct, g.descriptor
                checked += 1
        assert checked > 40
