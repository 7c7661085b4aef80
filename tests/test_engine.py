"""The engine's subgroups, cosets, orbit labels and class counts against oracles."""

import dataclasses
import hashlib
import logging
import random

import numpy as np
import pytest

from centralq import _engine
from centralq._engine import (
    EngineContext,
    SubgroupRegistry,
    _coset_data,
    _orbit_min_labels,
    count_class,
    enumerate_counts,
    process_class,
)
from centralq.abelian import parse_group
from centralq.action import centralizer_indices, conjugacy_class_reps
from centralq.counting import classify_representatives
from centralq.endo import aut_group, aut_group_order, one_minus, scalar_endo

from reference_engine import fixed_pairs, orbit_reps_conjugation


def _cases(desc):
    """Context, a few class representatives and the members to check."""
    A = aut_group(parse_group(desc))
    ctx = EngineContext(A.group, A)
    rng = random.Random(desc)
    reps = conjugacy_class_reps(A).representatives
    fs = [reps[0]] + rng.sample(reps[1:], min(2, len(reps) - 1))
    if len(A) <= 200:
        return ctx, fs, list(range(len(A)))
    return ctx, fs, rng.sample(range(len(A)), 150)


def _coset_ordinals(group, elems):
    """Element -> ordinal of its coset, cosets ordered by smallest element."""
    add = group.add_table
    canon = [min(int(add[x, u]) for u in elems) for x in range(group.order)]
    reps = sorted(set(canon))
    return [reps.index(c) for c in canon]


@pytest.mark.parametrize("desc", ["C2^3", "C3xC3", "C4xC2", "C4xC2xC3", "C4xC4xC2"])
def test_member_subgroups_match_image_sets(desc):
    ctx, fs, ms = _cases(desc)
    g, A, reg = ctx.group, ctx.aut, ctx.subgroups
    for f in fs:
        sids = _coset_data(ctx, f)
        phi = A.member(f)
        for m in ms:
            image = one_minus(phi, A.member(m)).image()
            sid = sids[m]
            elems = np.flatnonzero(reg.masks[sid]).tolist()
            assert elems == sorted(image.indices)
            ordinals = _coset_ordinals(g, elems)
            assert reg.cidx[sid].tolist() == ordinals
            count = reg.counts[sid]
            assert count == g.order // len(elems)
            assert reg.reps[sid, :count].tolist() == [ordinals.index(k) for k in range(count)]


@pytest.mark.parametrize("desc", ["C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_filled_joins_are_generated_subgroups(desc):
    ctx, fs, _ = _cases(desc)
    for f in fs:
        _coset_data(ctx, f)
    g, reg = ctx.group, ctx.subgroups
    join = reg.join_table
    filled = np.argwhere(join >= 0)
    assert len(filled) > len(reg)
    for s, x in filled:
        gens = [g.element_at(int(e)) for e in np.flatnonzero(reg.masks[s])]
        want = g.subgroup_generated(gens + [g.element_at(int(x))])
        assert np.flatnonzero(reg.masks[join[s, x]]).tolist() == sorted(want.indices)


@pytest.mark.parametrize("desc", ["C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_registry_maps_masks_to_ids(desc):
    ctx, fs, _ = _cases(desc)
    for f in fs:
        _coset_data(ctx, f)
    g, reg = ctx.group, ctx.subgroups
    assert len(reg) > 1
    assert reg.ids_of(reg.masks).tolist() == list(range(len(reg)))
    # not subgroups: no identity, and two generators without their sum
    no_zero = np.ones((1, g.order), dtype=bool)
    no_zero[0, 0] = False
    unclosed = np.zeros((1, g.order), dtype=bool)
    unclosed[0, [0, g._strides[0], g._strides[1]]] = True
    assert reg.ids_of(np.concatenate([no_zero, unclosed])).tolist() == [-1, -1]


def _central_case():
    """C3xC3 with f = -1: its family holds the trivial subgroup (m = 1 - f = 2)."""
    g = parse_group("C3xC3")
    A = aut_group(g)
    return EngineContext(g, A), A.index_of(scalar_endo(g, 2))


def test_transport_rejects_an_image_outside_the_family(monkeypatch):
    ctx, f = _central_case()
    assert 0 in _coset_data(ctx, f)
    # swapping elements 0 and 1 sends the trivial subgroup to {1}
    swap = np.arange(ctx.group.order)
    swap[[0, 1]] = [1, 0]
    monkeypatch.setattr(EngineContext, "inverse_table", lambda self, h: swap)
    with pytest.raises(RuntimeError, match="escaped the family"):
        process_class(ctx, f)


def test_transport_must_follow_the_member_permutation(monkeypatch):
    ctx, f = _central_case()
    same = np.arange(ctx.group.order)
    monkeypatch.setattr(EngineContext, "inverse_table", lambda self, h: same)
    with pytest.raises(RuntimeError, match="moved an image subgroup inconsistently"):
        process_class(ctx, f)


def test_centralizer_generators_must_centralize(monkeypatch):
    g = parse_group("C3xC3")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    reps = conjugacy_class_reps(A).representatives
    f = next(r for r in reps if not ctx.centralizer_mask(r).all())
    outsider = int(np.flatnonzero(~ctx.centralizer_mask(f))[0])
    monkeypatch.setattr(EngineContext, "find_generators", lambda self, *args: [outsider])
    with pytest.raises(AssertionError, match="does not centralize the representative"):
        process_class(ctx, f)


def test_count_class_generators_must_centralize(monkeypatch):
    g = parse_group("C3xC3")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    reps = conjugacy_class_reps(A).representatives
    h = next(r for r in reps if not ctx.centralizer_mask(r).all())
    outsider = int(np.flatnonzero(~ctx.centralizer_mask(h))[0])
    monkeypatch.setattr(EngineContext, "find_generators", lambda self, *args: [outsider])
    with pytest.raises(AssertionError, match="does not centralize the representative"):
        count_class(ctx, h)


@pytest.mark.parametrize("desc", ["C2xC2", "C3xC3", "C4xC2", "C2^3"])
def test_fixed_points_match_brute_force(desc):
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    terms = 0
    for h in conjugacy_class_reps(A).representatives:
        res = count_class(ctx, h)
        for f, fixed, medial in zip(res.reps, res.fixed, res.medial_fixed):
            assert (fixed, medial) == fixed_pairs(A, f, h), (h, f)
            terms += 1
    assert terms == enumerate_counts(g, A).commuting_pair_orbits


def _fields(counts):
    fields = ("conj_classes", "pair_orbits", "commuting_pair_orbits", "cq", "mq")
    return tuple(getattr(counts, f) for f in fields)


def test_count_route_matches_pair_space_route(fixture_groups):
    checked = 0
    for desc in fixture_groups:
        g = parse_group(desc)
        if len(g.prime_spans) != 1 or aut_group_order(g) > 25_000:
            continue
        A = aut_group(g)
        pair_space = enumerate_counts(g, A, collect=True)
        assert _fields(enumerate_counts(g, A)) == _fields(pair_space), desc
        checked += 1
    assert checked == 70


def test_counting_never_runs_the_pair_space_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("process_class called while counting")

    g = parse_group("C4xC2xC2")
    monkeypatch.setattr(_engine, "process_class", refuse)
    assert _fields(enumerate_counts(g, aut_group(g))) == (13, 564, 146, 820, 150)


def _noncentral_rep(desc):
    """A representative whose centralizer is proper, not abelian and not of order n."""
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    for h in conjugacy_class_reps(A).representatives:
        res = count_class(ctx, h)
        c = res.centralizer_order
        if c not in (len(A), g.order) and len(res.reps) < c:
            return ctx, h
    raise AssertionError(f"no such representative in {desc}")


def test_class_sizes_must_add_up(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")

    def shifted(gens, count):
        # no point is its own label, so no class has a representative
        return np.roll(np.arange(count), 1)

    monkeypatch.setattr(_engine, "_orbit_min_labels", shifted)
    with pytest.raises(AssertionError, match="class sizes of the centralizer"):
        count_class(ctx, h)


def test_scanned_centralizer_must_match_the_class_size(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")
    size = len(ctx.centralizer_members(h))
    real = _engine._orbit_min_labels

    def singletons(gens, count):
        # every member of C(h) its own class: a consistent labelling, wrong sizes
        return np.arange(count) if count == size else real(gens, count)

    monkeypatch.setattr(_engine, "_orbit_min_labels", singletons)
    with pytest.raises(AssertionError, match="scanned centralizer disagrees"):
        count_class(ctx, h)


def test_fixed_point_numerators_must_divide_by_n(monkeypatch):
    g = parse_group("C3xC3")
    # one coset too many for every subgroup, |ker(h - 1)| among them
    extra = property(lambda self: self._counts[: len(self)] + 1)
    monkeypatch.setattr(SubgroupRegistry, "counts", extra)
    with pytest.raises(AssertionError, match="not divisible by n"):
        enumerate_counts(g, aut_group(g))


def test_group_totals_must_divide_by_the_group_order(monkeypatch):
    real = _engine.count_class
    g = parse_group("C3xC3")
    A = aut_group(g)

    def one_more(ctx, h):
        res = real(ctx, h)
        if h != A.identity_index:
            return res
        # the identity pair's term has |C(f) ∩ C(h)| = |Aut|: one more in the numerator
        return dataclasses.replace(res, fixed=[res.fixed[0] + 1] + res.fixed[1:])

    monkeypatch.setattr(_engine, "count_class", one_more)
    with pytest.raises(AssertionError, match=r"whole counts over \|Aut\|"):
        enumerate_counts(g, A)


def _triples(desc):
    g = parse_group(desc)
    A = aut_group(g)
    return [
        (A.index_of(t.phi), A.index_of(t.psi), g.index_of(t.c), t.medial)
        for t in classify_representatives(g)
    ]


def test_classification_is_unchanged():
    assert _triples("C2xC2") == [
        (0, 0, 0, True), (0, 1, 0, True), (0, 3, 0, True), (1, 0, 0, True),
        (1, 1, 0, True), (1, 2, 0, False), (1, 2, 1, False), (1, 3, 0, False),
        (1, 3, 1, False), (3, 0, 0, True), (3, 1, 0, False), (3, 1, 1, False),
        (3, 3, 0, True), (3, 4, 0, True), (3, 4, 1, True),
    ]
    digest = hashlib.md5(repr(_triples("C3xC3")).encode()).hexdigest()
    assert digest == "bf27bd27e63eb0ab76b5bde056e1be8d"


def test_burnside_identity_is_checked(monkeypatch):
    real = _engine.count_class

    def off_by_one(ctx, h):
        res = real(ctx, h)
        return dataclasses.replace(res, centralizer_order=res.centralizer_order + 1)

    g = parse_group("C2xC2")
    counts = enumerate_counts(g, aut_group(g))
    assert counts.pair_orbits == sum(r.centralizer_order for r in counts.class_results)
    monkeypatch.setattr(_engine, "count_class", off_by_one)
    with pytest.raises(AssertionError, match="centralizer orders"):
        enumerate_counts(g, aut_group(g))


def test_progress_is_logged_per_class_in_the_pool(caplog):
    g = parse_group("C3xC3")
    caplog.set_level(logging.DEBUG, logger=_engine.__name__)
    k = enumerate_counts(g, aut_group(g), jobs=2).conj_classes
    done = [r.args[1:3] for r in caplog.records if " done (cq so far " in r.msg]
    assert k > 1
    assert done == [(i, k) for i in range(1, k + 1)]


@pytest.mark.parametrize("desc", ["C2^3", "C3xC3", "C4xC4", "C4xC2xC2", "C4xC2xC3"])
def test_per_class_pair_orbits_match_the_oracle(desc):
    g = parse_group(desc)
    A = aut_group(g)
    for res in enumerate_counts(g, A, collect=True).class_results:
        cent = centralizer_indices(A, res.rep)
        part = orbit_reps_conjugation(A, cent, range(len(A)))
        assert res.pair_orbits == len(part)
        commuting = set(cent.tolist())
        assert res.commuting_pair_orbits == sum(r in commuting for r in part.representatives)


def test_orbit_labels_follow_inverses(monkeypatch):
    # one cycle numbered in increasing order along its permutation: pulling
    # labels along the permutation alone moves label 0 one point per round
    count = 100_000
    cycle = np.roll(np.arange(count), -1)
    rounds = 0
    real = np.array_equal

    def counting(a, b):
        nonlocal rounds
        rounds += 1
        if rounds > 64:
            raise AssertionError("label propagation took more than 64 rounds")
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", counting)
    labels = _orbit_min_labels([cycle], count)
    assert not labels.any()
    assert rounds <= 64
