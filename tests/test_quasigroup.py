import itertools
import random

import numpy as np
import pytest

from centralq.abelian import cyclic_group, parse_group
from centralq.counting import classify_representatives
from centralq.endo import aut_group, identity, one_minus, scalar_endo
from centralq.quasigroup import (
    AffineTriple,
    CayleyTable,
    brute_force_isomorphic,
    build_quasigroup,
    is_isomorphic_affine,
    is_latin,
    is_medial,
)

from reference_engine import inverse_index


def addition_table(g):
    n = g.order
    elems = g.elements()
    return CayleyTable(
        [[g.index_of(g.add(a, b)) for b in elems] for a in elems]
    )


def test_build_addition_table():
    c3 = cyclic_group(3)
    t = build_quasigroup(AffineTriple(c3, identity(c3), identity(c3), (0,)))
    assert t == addition_table(c3)


def test_build_x_plus_2y():
    # direct evaluation of x + 2y mod 3, all nine entries
    c3 = cyclic_group(3)
    t = build_quasigroup(AffineTriple(c3, identity(c3), scalar_endo(c3, 2), (0,)))
    want = [[(x + 2 * y) % 3 for y in range(3)] for x in range(3)]
    assert t.table.tolist() == want


def test_build_with_constant():
    c2 = cyclic_group(2)
    t = build_quasigroup(AffineTriple(c2, identity(c2), identity(c2), (1,)))
    assert t.table.tolist() == [[1, 0], [0, 1]]


def test_affine_triple_requires_automorphisms():
    c4 = cyclic_group(4)
    with pytest.raises(ValueError, match="automorphism"):
        AffineTriple(c4, scalar_endo(c4, 2), identity(c4), (0,))
    with pytest.raises(ValueError, match="carrier"):
        AffineTriple(c4, identity(cyclic_group(3)), identity(c4), (0,))


def test_is_latin():
    assert is_latin(addition_table(parse_group("C2xC3")))
    assert not is_latin(CayleyTable([[0, 0], [1, 1]]))
    assert not is_latin(CayleyTable([[0, 1], [0, 1]]))


def test_is_medial_examples():
    assert is_medial(addition_table(parse_group("C4xC2")))
    c3 = cyclic_group(3)
    t = build_quasigroup(AffineTriple(c3, identity(c3), scalar_endo(c3, 2), (0,)))
    assert is_medial(t)


def test_non_medial_table_detected():
    # any non-commuting automorphism pair on the Klein group works
    g = parse_group("C2xC2")
    A = aut_group(g)
    found = None
    for i, j in itertools.product(range(len(A)), repeat=2):
        f, h = A.member(i), A.member(j)
        if f.compose(h) != h.compose(f):
            found = (f, h)
            break
    t = build_quasigroup(AffineTriple(g, found[0], found[1], (0, 0)))
    assert is_latin(t)
    assert not is_medial(t)


@pytest.mark.parametrize("desc", ["C4", "C2xC2", "C6", "C8", "C9"])
def test_mediality_iff_commuting(desc):
    g = parse_group(desc)
    for t in classify_representatives(g):
        assert is_medial(build_quasigroup(t)) == t.medial


def test_tables_are_latin():
    for desc in ["C4", "C2xC2", "C6"]:
        g = parse_group(desc)
        for t in classify_representatives(g):
            assert is_latin(build_quasigroup(t))


def test_is_isomorphic_affine_reflexive():
    g = parse_group("C2xC2")
    t = AffineTriple(g, identity(g), identity(g), (1, 0))
    assert is_isomorphic_affine(t, t)


def test_constant_absorbed_over_c3():
    # with both maps identity, 1 - phi - psi is onto, so any constants agree
    c3 = cyclic_group(3)
    t0 = AffineTriple(c3, identity(c3), identity(c3), (0,))
    t1 = AffineTriple(c3, identity(c3), identity(c3), (1,))
    assert is_isomorphic_affine(t0, t1)
    assert brute_force_isomorphic(build_quasigroup(t0), build_quasigroup(t1))


def test_swapped_maps_not_isomorphic_over_c3():
    c3 = cyclic_group(3)
    t12 = AffineTriple(c3, identity(c3), scalar_endo(c3, 2), (0,))
    t21 = AffineTriple(c3, scalar_endo(c3, 2), identity(c3), (0,))
    assert not is_isomorphic_affine(t12, t21)
    assert not brute_force_isomorphic(build_quasigroup(t12), build_quasigroup(t21))


def test_is_isomorphic_affine_rejects_mixed_carriers():
    c3, c4 = cyclic_group(3), cyclic_group(4)
    with pytest.raises(ValueError, match="carrier"):
        is_isomorphic_affine(
            AffineTriple(c3, identity(c3), identity(c3), (0,)),
            AffineTriple(c4, identity(c4), identity(c4), (0,)),
        )


def test_is_isomorphic_affine_rejects_aut_of_another_carrier():
    # 7x + y + 4 and 3x + y + 5 over C8 are not isomorphic; Aut(C2^3) permutes
    # the same 8 element indices and would wrongly report that they are
    c8 = cyclic_group(8)
    t1 = AffineTriple(c8, scalar_endo(c8, 7), identity(c8), (4,))
    t2 = AffineTriple(c8, scalar_endo(c8, 3), identity(c8), (5,))
    assert not is_isomorphic_affine(t1, t2, aut_group(c8))
    assert not brute_force_isomorphic(build_quasigroup(t1), build_quasigroup(t2))
    with pytest.raises(ValueError, match="another carrier"):
        is_isomorphic_affine(t1, t2, aut_group(parse_group("C2^3")))


@pytest.mark.parametrize("desc", ["C4xC2", "C3xC3", "C2^3", "C9xC3"])
def test_decider_on_conjugated_translated_representatives(desc):
    # gamma carries (phi, psi, c) to (gamma phi gamma^-1, gamma psi gamma^-1,
    # gamma(c)), and c moves freely within its coset of U = Im(1 - phi - psi)
    # representatives with the same maps are told apart by their constants alone
    g = parse_group(desc)
    A = aut_group(g)
    reps = classify_representatives(g)
    by_maps = {}
    for i, t in enumerate(reps):
        by_maps.setdefault((t.phi, t.psi), []).append(i)
    rng = random.Random(desc)
    for _ in range(12):
        i, j = rng.sample(range(len(reps)), 2)
        t = reps[i]
        k = rng.randrange(len(A))
        gamma, gamma_inv = A.member(k), A.member(inverse_index(A, k))
        phi, psi = (gamma.compose(f).compose(gamma_inv) for f in (t.phi, t.psi))
        u = rng.choice(sorted(one_minus(phi, psi).image().elements))
        moved = AffineTriple(g, phi, psi, g.add(gamma.apply(t.c), u))
        assert is_isomorphic_affine(t, moved, A)
        assert is_isomorphic_affine(moved, t, A)
        siblings = [s for s in by_maps[t.phi, t.psi] if s != i]
        for other in [j] + siblings[:1]:
            assert not is_isomorphic_affine(reps[other], moved, A)
            assert not is_isomorphic_affine(reps[i], reps[other], A)


def test_brute_force_identical_and_relabeled():
    t = addition_table(parse_group("C2xC3"))
    assert brute_force_isomorphic(t, t)
    perm = [3, 0, 4, 1, 5, 2]
    n = t.n
    relabeled = np.empty_like(t.table)
    for i in range(n):
        for j in range(n):
            relabeled[perm[i]][perm[j]] = perm[t.table[i][j]]
    assert brute_force_isomorphic(t, CayleyTable(relabeled))


def test_brute_force_errors():
    small = addition_table(cyclic_group(2))
    big = addition_table(cyclic_group(3))
    with pytest.raises(ValueError, match="different orders"):
        brute_force_isomorphic(small, big)
    nine = addition_table(cyclic_group(9))
    with pytest.raises(ValueError, match="cap"):
        brute_force_isomorphic(nine, nine)
    assert brute_force_isomorphic(nine, nine, cap=9)


def test_oracle_agreement_small_groups():
    # the structural decider and the table search agree pairwise
    for desc in ["C4", "C5", "C2xC2"]:
        g = parse_group(desc)
        reps = classify_representatives(g)
        tables = [build_quasigroup(t) for t in reps]
        A = aut_group(g)
        for i in range(len(reps)):
            for j in range(i, len(reps)):
                structural = is_isomorphic_affine(reps[i], reps[j], A)
                assert structural == brute_force_isomorphic(tables[i], tables[j])
                assert structural == (i == j)


def test_order_eight_classes_pairwise_distinct():
    # order 8 is the largest the bijection search handles by default;
    # full pairwise sweep for the two smaller groups, a seeded sample of
    # pairs for the 341 classes of the elementary abelian one
    import random

    for desc in ["C8", "C4xC2"]:
        tables = [build_quasigroup(t) for t in classify_representatives(parse_group(desc))]
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                assert not brute_force_isomorphic(tables[i], tables[j]), (desc, i, j)

    tables = [build_quasigroup(t) for t in classify_representatives(parse_group("C2^3"))]
    rng = random.Random(5)
    for _ in range(400):
        i, j = rng.sample(range(len(tables)), 2)
        assert not brute_force_isomorphic(tables[i], tables[j]), (i, j)


def test_text_format_round_trip():
    t = addition_table(parse_group("C2xC2"))
    text = t.to_text()
    assert text.splitlines()[0] == "4"
    assert CayleyTable.from_text(text) == t
    with pytest.raises(ValueError):
        CayleyTable.from_text("3\n0 1 2\n")


def test_cayley_table_validation():
    with pytest.raises(ValueError):
        CayleyTable([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        CayleyTable([[0, 1, 2], [1, 2, 0]])
