"""The engine's subgroup registry and coset data against brute-force oracles."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from centralq import _engine
from centralq._engine import EngineContext, _coset_data, enumerate_counts
from centralq.abelian import parse_group
from centralq.action import conjugacy_class_reps
from centralq.counting import classify_representatives
from centralq.endo import aut_group, one_minus


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
        sgid, family, cidx, counts, reps = _coset_data(ctx, f)
        phi = A.member(f)
        for m in ms:
            image = one_minus(phi, A.member(m)).image()
            sid = family[sgid[m]]
            elems = np.flatnonzero(reg.masks[sid]).tolist()
            assert elems == sorted(image.indices)
            ordinals = _coset_ordinals(g, elems)
            assert reg.cidx[sid].tolist() == ordinals
            assert cidx[sgid[m]].tolist() == ordinals
            assert counts[sgid[m]] == g.order // len(elems)
            assert reps[sgid[m]].tolist() == [ordinals.index(k) for k in range(counts[sgid[m]])]


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


def _triples(desc):
    g = parse_group(desc)
    A = aut_group(g)
    return [
        (A.index_of(t.phi), A.index_of(t.psi), g.index_of(t.c), t.medial)
        for t in classify_representatives(g)
    ]


def test_classification_is_unchanged():
    assert _triples("C2xC2") == [
        (0, 0, 0, True), (0, 1, 0, False), (0, 1, 1, False), (0, 2, 0, True),
        (0, 3, 0, False), (0, 3, 1, False), (1, 0, 0, False), (1, 0, 1, False),
        (1, 1, 0, True), (1, 2, 0, True), (1, 5, 0, True), (1, 5, 1, True),
        (2, 0, 0, True), (2, 1, 0, True), (2, 2, 0, True),
    ]
    digest = hashlib.md5(repr(_triples("C3xC3")).encode()).hexdigest()
    assert digest == "82f069edd59a4fe5d6abb1dce7bc6ec6"


def test_burnside_identity_is_checked(monkeypatch):
    real = _engine.process_class

    def off_by_one(ctx, f, collect=False):
        res = real(ctx, f, collect)
        return dataclasses.replace(res, centralizer_order=res.centralizer_order + 1)

    g = parse_group("C2xC2")
    counts = enumerate_counts(g, aut_group(g))
    assert counts.pair_orbits == sum(r.centralizer_order for r in counts.class_results)
    monkeypatch.setattr(_engine, "process_class", off_by_one)
    with pytest.raises(AssertionError, match="centralizer orders"):
        enumerate_counts(g, aut_group(g))
