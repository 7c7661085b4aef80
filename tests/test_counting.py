import json

import pytest

from centralq.abelian import cyclic_group, parse_group, trivial_group
from centralq.counting import (
    GroupReport,
    ReportCache,
    classify_representatives,
    combine_coprime,
    cq_cyclic_prime_power,
    cq_mq_of_order,
    cyclic_prime_power_report,
    default_cache_dir,
    enumerate_group,
    group_report,
)
from centralq.endo import ResourceLimitError

from reference_engine import reference_counts, reference_mq_restricted


def _cells(r: GroupReport):
    return (
        r.aut_order,
        r.conj_classes,
        r.pair_orbits,
        r.cq,
        r.commuting_pair_orbits,
        r.mq,
    )


def test_enumerate_group_examples():
    assert _cells(enumerate_group(cyclic_group(3))) == (2, 2, 4, 5, 4, 5)
    assert _cells(enumerate_group(parse_group("C2xC2"))) == (6, 3, 11, 15, 8, 9)
    assert _cells(enumerate_group(trivial_group())) == (1, 1, 1, 1, 1, 1)
    assert _cells(enumerate_group(parse_group("C3xC3"))) == (48, 8, 136, 183, 56, 68)


@pytest.mark.parametrize(
    "desc",
    ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C8", "C4xC2", "C2xC2xC2",
     "C9", "C3xC3", "C12", "C2xC2xC3", "C16", "C4xC4", "C8xC2", "C4xC2xC2"],
)
def test_enumerate_group_matches_reference_table(desc, fixture_groups):
    row = fixture_groups[parse_group(desc).descriptor]
    r = enumerate_group(parse_group(desc))
    assert _cells(r) == (
        row.aut_order,
        row.conj_classes,
        row.pair_orbits,
        row.cq,
        row.commuting_pair_orbits,
        row.mq,
    )


def _all_groups_through_order_15():
    from centralq.abelian import abelian_groups_of_order

    out = []
    for n in range(1, 16):
        out.extend(g.descriptor for g in abelian_groups_of_order(n))
    return out


@pytest.mark.parametrize("desc", _all_groups_through_order_15())
def test_enumerate_group_matches_plain_loop(desc):
    g = parse_group(desc)
    x, o, oc, cq, mq = reference_counts(g)
    r = enumerate_group(g)
    assert (r.conj_classes, r.pair_orbits, r.commuting_pair_orbits, r.cq, r.mq) == (
        x,
        o,
        oc,
        cq,
        mq,
    )


@pytest.mark.parametrize("desc", ["C4", "C2xC2", "C8", "C4xC2", "C9", "C4xC4"])
def test_both_medial_routes_agree(desc):
    g = parse_group(desc)
    assert reference_mq_restricted(g) == enumerate_group(g).mq


def test_report_bounds_hold():
    for desc in ["C2xC2", "C2xC2xC2", "C4xC4", "C3xC3"]:
        r = enumerate_group(parse_group(desc))
        assert r.cq >= r.pair_orbits >= r.commuting_pair_orbits
        assert r.mq >= r.commuting_pair_orbits
        assert r.cq >= r.mq


def test_enumerate_group_budget_refusal():
    with pytest.raises(ResourceLimitError):
        enumerate_group(parse_group("C2^6"))
    with pytest.raises(ResourceLimitError):
        enumerate_group(parse_group("C3xC3"), budget=10)


def test_enumerate_group_parallel_matches_serial():
    g = parse_group("C3xC3")
    assert _cells(enumerate_group(g, jobs=2)) == _cells(enumerate_group(g))


def test_cq_cyclic_prime_power_examples():
    assert cq_cyclic_prime_power(3, 1) == 5
    assert cq_cyclic_prime_power(2, 3) == 16
    assert cq_cyclic_prime_power(5, 2) == 490
    assert cq_cyclic_prime_power(3, 3) == 441
    with pytest.raises(ValueError):
        cq_cyclic_prime_power(6, 1)
    with pytest.raises(ValueError):
        cq_cyclic_prime_power(3, 0)


def test_prime_law():
    primes = [p for p in range(2, 128) if all(p % d for d in range(2, p))]
    for p in primes:
        assert cq_cyclic_prime_power(p, 1) == p * p - p - 1


def test_power_of_two_law():
    for k in range(1, 8):
        assert cq_cyclic_prime_power(2, k) == 4 ** (k - 1)


def test_cyclic_report_matches_reference_table(fixture_groups):
    for desc in ["C2", "C3", "C8", "C25", "C27", "C32", "C121", "C125"]:
        g = parse_group(desc)
        (p, k), = g.factors
        row = fixture_groups[desc]
        r = cyclic_prime_power_report(p, k)
        assert _cells(r) == (
            row.aut_order,
            row.conj_classes,
            row.pair_orbits,
            row.cq,
            row.commuting_pair_orbits,
            row.mq,
        )


def test_combine_coprime_examples():
    c4 = enumerate_group(cyclic_group(4))
    c3 = enumerate_group(cyclic_group(3))
    both = combine_coprime(c4, c3)
    assert both.descriptor == "C4xC3"
    assert both.cq == 20 and both.mq == 20

    v = enumerate_group(parse_group("C2xC2"))
    prod = combine_coprime(v, c3)
    assert prod.cq == 75 and prod.mq == 45

    one = enumerate_group(trivial_group())
    assert combine_coprime(c4, one) == c4

    with pytest.raises(ValueError, match="coprime"):
        combine_coprime(c4, enumerate_group(cyclic_group(2)))


def test_combine_coprime_propagates_unknowns():
    c3 = enumerate_group(cyclic_group(3))
    unknown = GroupReport("C2xC2", 6, None, None, None, None, None, note="over budget")
    out = combine_coprime(unknown, c3)
    assert out.aut_order == 12 and out.cq is None and "over budget" in out.note


def test_cq_mq_of_order_examples():
    r = cq_mq_of_order(8)
    assert (r.cq, r.mq) == (385, 73)
    assert len(r.per_group) == 3
    assert cq_mq_of_order(1).cq == 1
    r12 = cq_mq_of_order(12)
    assert (r12.cq, r12.mq) == (95, 65)
    assert {g.descriptor for g in r12.per_group} == {"C4xC3", "C2xC2xC3"}


def test_cq_mq_of_order_budget_markers():
    r = cq_mq_of_order(64, budget=500)
    assert r.cq is None and r.mq is None
    incomplete = [g for g in r.per_group if not g.complete]
    assert incomplete
    for g in incomplete:
        assert g.aut_order is not None  # the estimate is still reported
        assert "budget" in g.note
    complete = [g for g in r.per_group if g.complete]
    assert complete  # the small groups of order 64 still get exact values


def test_group_report_dispatch_matches_direct():
    for desc in ["C12", "C2xC2xC3", "C8xC3", "C4xC2xC5"]:
        g = parse_group(desc)
        assert _cells(group_report(g)) == _cells(enumerate_group(g))


def test_group_report_uses_cache(tmp_path):
    cache = ReportCache(tmp_path)
    g = parse_group("C3xC3")
    first = group_report(g, cache=cache)
    assert (tmp_path / "C3xC3.json").exists()
    # a poisoned cache entry is trusted, proving the second call reads it
    payload = json.loads((tmp_path / "C3xC3.json").read_text())
    payload["cq"] = 9999
    (tmp_path / "C3xC3.json").write_text(json.dumps(payload))
    second = group_report(g, cache=cache)
    assert second.cq == 9999 and first.cq == 183


def test_default_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("CENTRALQ_CACHE_DIR", str(tmp_path / "own"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "own"
    monkeypatch.setenv("CENTRALQ_CACHE_DIR", "")  # empty counts as unset
    assert default_cache_dir() == tmp_path / "xdg" / "centralq"
    monkeypatch.delenv("CENTRALQ_CACHE_DIR")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert default_cache_dir() == tmp_path / "home" / ".cache" / "centralq"
    assert ReportCache().directory == tmp_path / "home" / ".cache" / "centralq"


def test_cache_round_trip(tmp_path):
    cache = ReportCache(tmp_path)
    rep = enumerate_group(parse_group("C2xC2"))
    cache.put(rep)
    assert cache.get("C2xC2") == rep
    assert cache.get("C4") is None
    # incomplete reports are never stored
    cache.put(GroupReport("C4", 2, None, None, None, None, None))
    assert cache.get("C4") is None
    # corrupt files are ignored
    (tmp_path / "C8.json").write_text("{nope")
    assert cache.get("C8") is None


def test_cache_ignores_other_engine_versions(tmp_path, monkeypatch):
    from centralq import _engine

    cache = ReportCache(tmp_path)
    rep = enumerate_group(parse_group("C2xC2"))
    cache.put(rep)
    payload = json.loads((tmp_path / "C2xC2.json").read_text())
    assert payload["engine"] == _engine.ENGINE_VERSION
    assert cache.get("C2xC2") == rep
    # an entry written by an older engine is a miss
    monkeypatch.setattr(_engine, "ENGINE_VERSION", _engine.ENGINE_VERSION + 1)
    assert cache.get("C2xC2") is None
    # so is one that names no engine version at all
    del payload["engine"]
    (tmp_path / "C2xC2.json").write_text(json.dumps(payload))
    assert cache.get("C2xC2") is None


@pytest.mark.parametrize(
    "poison",
    [
        lambda payload: [1, 2],  # not an object
        lambda payload: {**payload, "cq": "15"},  # a count that is not an integer
        lambda payload: {**payload, "mq": payload["cq"] + 1},  # mq > cq: inconsistent
        # another group's report
        lambda payload: {**payload, **enumerate_group(parse_group("C3xC3")).to_dict()},
        lambda payload: {**payload, "note": 5},  # combine_coprime joins notes as strings
    ],
    ids=["not-an-object", "string-count", "inconsistent", "other-group", "non-string-note"],
)
def test_malformed_cache_entries_are_recomputed(tmp_path, poison):
    cache = ReportCache(tmp_path)
    g = parse_group("C2xC2")
    want = group_report(g, cache=cache)
    path = tmp_path / "C2xC2.json"
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(poison(payload)))
    assert cache.get("C2xC2") is None
    assert group_report(g, cache=cache) == want
    # the entry was overwritten with the recomputed report
    assert json.loads(path.read_text()) == payload
    assert cache.get("C2xC2") == want and cache.hits == 1


def test_classify_representatives_trivial_group():
    triples = classify_representatives(trivial_group())
    assert len(triples) == 1
    t = triples[0]
    assert t.c == () and t.medial


def test_classify_representatives_c3():
    triples = classify_representatives(cyclic_group(3))
    seen = {(t.phi.blocks[0][0][0], t.psi.blocks[0][0][0], t.c[0]) for t in triples}
    assert seen == {(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1)}
    assert all(t.medial for t in triples)


def test_classify_representatives_klein_group():
    triples = classify_representatives(parse_group("C2xC2"))
    assert len(triples) == 15
    assert sum(t.medial for t in triples) == 9


@pytest.mark.parametrize("desc", ["C4", "C5", "C6", "C4xC2"])
def test_classification_counts_match(desc):
    g = parse_group(desc)
    triples = classify_representatives(g)
    r = enumerate_group(g)
    assert len(triples) == r.cq
    assert sum(t.medial for t in triples) == r.mq
