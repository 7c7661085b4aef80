import random

import numpy as np
import pytest

from centralq._engine import EngineContext
from centralq.abelian import cyclic_group, parse_group
from centralq.action import (
    centralizer,
    centralizer_indices,
    conjugacy_class_reps,
    direct_pair_orbit_count,
)
from centralq.endo import aut_group, identity, scalar_endo

from reference_engine import (
    compose_indices,
    orbit_reps_conjugation,
    orbit_reps_on_cosets,
    pair_orbit_count_bruteforce,
)


@pytest.mark.parametrize(
    "desc,classes", [("C2xC2", 3), ("C8", 4), ("C2xC2xC2", 6), ("C16", 8), ("C3xC3", 8)]
)
def test_conjugacy_class_counts(desc, classes):
    A = aut_group(parse_group(desc))
    part = conjugacy_class_reps(A)
    assert len(part.representatives) == classes
    assert sum(part.orbit_sizes.values()) == len(A)
    # representatives are the minimal member of their class
    for rep in part.representatives:
        assert part.orbit_of[rep] == rep
    for point in range(len(A)):
        assert part.orbit_of[point] in part.representatives


def test_class_sizes_divide_group_order():
    A = aut_group(parse_group("C2xC2xC2"))
    part = conjugacy_class_reps(A)
    for size in part.orbit_sizes.values():
        assert len(A) % size == 0


def test_centralizer_of_identity_is_whole_group():
    A = aut_group(parse_group("C2xC2"))
    cent = centralizer(A, identity(A.group))
    assert len(cent) == len(A)


def test_centralizer_in_abelian_group():
    A = aut_group(cyclic_group(8))
    for i in range(len(A)):
        assert len(centralizer(A, i)) == len(A)


def test_centralizer_of_order_three_element():
    # Aut(C2xC2) has six members; its order-3 members have centralizers of
    # size 3 (brute-force check over all six members)
    A = aut_group(parse_group("C2xC2"))
    order3 = []
    for i in range(len(A)):
        sq = compose_indices(A, i, i)
        if i != A.identity_index and compose_indices(A, sq, i) == A.identity_index:
            order3.append(i)
    assert len(order3) == 2
    for i in order3:
        members = centralizer(A, i)
        brute = [
            j
            for j in range(len(A))
            if compose_indices(A, i, j) == compose_indices(A, j, i)
        ]
        assert len(members) == 3
        assert sorted(A.index_of(m) for m in members) == brute


def test_centralizer_requires_membership():
    A = aut_group(parse_group("C2xC2"))
    with pytest.raises(KeyError):
        centralizer(A, scalar_endo(cyclic_group(3), 2))


def test_orbit_reps_trivial_actor():
    A = aut_group(parse_group("C2xC2"))
    part = orbit_reps_conjugation(A, [A.identity_index], range(len(A)))
    assert part.representatives == list(range(len(A)))
    assert all(size == 1 for size in part.orbit_sizes.values())


def test_orbit_reps_whole_group_match_classes():
    A = aut_group(parse_group("C2xC2"))
    part = orbit_reps_conjugation(A, range(len(A)), range(len(A)))
    classes = conjugacy_class_reps(A)
    assert part.representatives == classes.representatives
    assert len(part.representatives) == 3


@pytest.mark.parametrize("desc", ["C2^3", "C3xC3", "C4xC4", "C4xC2xC3", "C8xC2"])
def test_class_reps_match_the_object_level_oracle(desc):
    A = aut_group(parse_group(desc))
    part = orbit_reps_conjugation(A, range(len(A)), range(len(A)))
    classes = conjugacy_class_reps(A)
    assert classes.representatives == part.representatives
    assert classes.orbit_sizes == part.orbit_sizes


def test_pair_orbit_sum_for_klein_group():
    # sum over conjugacy representatives f of the orbits of the
    # centralizer of f acting on the whole group: 11 pair orbits
    A = aut_group(parse_group("C2xC2"))
    classes = conjugacy_class_reps(A)
    total = 0
    for f in classes.representatives:
        cent = [int(i) for i in centralizer_indices(A, f)]
        total += len(orbit_reps_conjugation(A, cent, range(len(A))).representatives)
    assert total == 11


def test_orbit_reps_detects_unclosed_point_set():
    A = aut_group(parse_group("C2xC2"))
    # a singleton from a class of size two is not closed under conjugation
    classes = conjugacy_class_reps(A)
    big_class = [p for p in range(len(A)) if classes.orbit_of[p] != p]
    with pytest.raises(ValueError, match="not closed"):
        orbit_reps_conjugation(A, range(len(A)), [big_class[0]])


def test_orbit_sizes_divide_acting_group():
    A = aut_group(parse_group("C3xC3"))
    classes = conjugacy_class_reps(A)
    for f in classes.representatives:
        cent = [int(i) for i in centralizer_indices(A, f)]
        part = orbit_reps_conjugation(A, cent, range(len(A)))
        for size in part.orbit_sizes.values():
            assert len(cent) % size == 0


def test_orbit_reps_large_actor_uses_generator_reduction():
    # 20160 members forces the greedy generating-set route; the class
    # count of the conjugation action is known
    A = aut_group(parse_group("C2^4"))
    part = orbit_reps_conjugation(A, range(len(A)), range(len(A)))
    assert len(part.representatives) == 14
    assert sum(part.orbit_sizes.values()) == len(A)


def test_orbit_reps_on_cosets_whole_subgroup():
    g = cyclic_group(3)
    u = g.subgroup(g.elements())
    part = orbit_reps_on_cosets([identity(g)], g, u)
    assert part.representatives == [0]


def test_orbit_reps_on_cosets_worked_example():
    # over C3 with both maps doubling, the image subgroup is trivial and the
    # two-element automorphism group folds {1,2} together: two orbits
    g = cyclic_group(3)
    u = g.subgroup([(0,)])
    aut = [identity(g), scalar_endo(g, 2)]
    part = orbit_reps_on_cosets(aut, g, u)
    assert part.representatives == [0, 1]
    assert part.orbit_sizes == {0: 1, 1: 2}


def test_orbit_reps_on_cosets_identity_actor():
    g = parse_group("C2xC2")
    u = g.subgroup([g.zero()])
    part = orbit_reps_on_cosets([identity(g)], g, u)
    assert len(part.representatives) == g.order


def test_orbit_reps_on_cosets_rejects_unpreserved_subgroup():
    g = parse_group("C4xC2")
    u = g.subgroup([(0, 0), (0, 1)])
    swapish = None
    A = aut_group(g)
    for i in range(len(A)):
        m = A.member(i)
        if m.apply((0, 1)) not in u.elements:
            swapish = m
            break
    assert swapish is not None
    with pytest.raises(ValueError, match="preserve"):
        orbit_reps_on_cosets([swapish], g, u)


@pytest.mark.parametrize("desc", ["C2xC2", "C8", "C4xC2", "C3xC3"])
def test_direct_pair_orbit_count_vs_bruteforce(desc):
    A = aut_group(parse_group(desc))
    assert direct_pair_orbit_count(A) == pair_orbit_count_bruteforce(A)


def test_direct_pair_orbit_count_cap():
    A = aut_group(parse_group("C2^4"))
    with pytest.raises(ValueError, match="cap"):
        direct_pair_orbit_count(A, cap=1000)


def _power_inverse(f):
    """f^-1 as f^(k-1), found by object-level composition alone."""
    one = identity(f.group)
    power = f
    while f.compose(power) != one:
        power = f.compose(power)
    return power


def _members_for(desc):
    A = aut_group(parse_group(desc))
    if len(A) <= 200:
        return A, list(range(len(A))), list(range(len(A)))
    rng = random.Random(desc)
    return A, rng.sample(range(len(A)), 12), rng.sample(range(len(A)), 300)


@pytest.mark.parametrize("desc", ["C4xC2", "C3xC3", "C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_conj_perm_matches_object_conjugation(desc):
    A, hs, ms = _members_for(desc)
    ctx = EngineContext(A.group, A)
    members = [A.member(m) for m in ms]
    for h in hs:
        perm = ctx.conj_perm(h)
        hf = A.member(h)
        hinv = _power_inverse(hf)
        for m, mf in zip(ms, members):
            assert perm[m] == A.index_of(hf.compose(mf).compose(hinv))


@pytest.mark.parametrize("desc", ["C4xC2", "C3xC3", "C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_centralizer_mask_matches_object_commutation(desc):
    A, fs, ms = _members_for(desc)
    ctx = EngineContext(A.group, A)
    members = [A.member(m) for m in ms]
    for f in fs:
        mask = ctx.centralizer_mask(f)
        ff = A.member(f)
        for m, mf in zip(ms, members):
            assert mask[m] == (ff.compose(mf) == mf.compose(ff))


@pytest.mark.parametrize("desc", ["C3xC3", "C4xC2xC3", "C4xC4xC2"])
def test_closure_mask_of_one_member_is_its_cyclic_subgroup(desc):
    A = aut_group(parse_group(desc))
    ctx = EngineContext(A.group, A)
    for h in random.Random(desc).sample(range(len(A)), 8):
        f = A.member(h)
        powers = {A.index_of(f)}
        power = f
        while True:
            power = f.compose(power)
            if A.index_of(power) in powers:
                break
            powers.add(A.index_of(power))
        mask, size = ctx.closure_mask([h])
        assert size == len(powers)
        assert set(np.flatnonzero(mask).tolist()) == powers
    assert ctx.closure_mask(ctx.agens)[1] == len(A)
