import itertools

import pytest

from centralq.abelian import (
    Subgroup,
    abelian_groups_of_order,
    cyclic_group,
    direct_product,
    make_group,
    parse_group,
    trivial_group,
)


def test_make_group_examples():
    assert make_group([]).order == 1
    assert make_group([(2, 1), (2, 1)]).descriptor == "C2xC2"
    assert make_group([(2, 1), (2, 1)]).order == 4
    g = make_group([(3, 1), (2, 2)])
    assert g.factors == ((2, 2), (3, 1))
    assert g.order == 12


def test_make_group_rejects_non_prime():
    with pytest.raises(ValueError, match="6 is not prime"):
        make_group([(6, 1)])
    with pytest.raises(ValueError, match="exponent"):
        make_group([(3, 0)])


def test_canonical_factor_order():
    g = make_group([(3, 1), (2, 1), (2, 3), (3, 2), (2, 2)])
    assert g.factors == ((2, 3), (2, 2), (2, 1), (3, 2), (3, 1))
    assert g.descriptor == "C8xC4xC2xC9xC3"


def test_add_neg_zero_examples():
    c4 = cyclic_group(4)
    assert c4.add((3,), (2,)) == (1,)
    assert c4.neg((3,)) == (1,)
    v = make_group([(2, 1), (2, 1)])
    assert v.add((1, 0), (1, 1)) == (0, 1)
    c1 = trivial_group()
    assert c1.add((), ()) == ()
    assert cyclic_group(3).neg((0,)) == (0,)
    c6 = parse_group("C2xC3")
    assert c6.neg((1, 2)) == (1, 1)


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        cyclic_group(4).add((1, 0), (1,))
    with pytest.raises(ValueError):
        cyclic_group(4).neg((1, 0))


def test_elements_order_and_indexing():
    v = make_group([(2, 1), (2, 1)])
    assert v.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert trivial_group().elements() == [()]
    assert cyclic_group(3).elements() == [(0,), (1,), (2,)]
    g = parse_group("C4xC3")
    for i, e in enumerate(g.elements()):
        assert g.index_of(e) == i
        assert g.element_at(i) == e
    with pytest.raises(IndexError):
        g.element_at(g.order)


@pytest.mark.parametrize(
    "n,count", [(1, 1), (4, 2), (8, 3), (12, 2), (16, 5), (36, 4), (72, 6)]
)
def test_groups_of_order_counts(n, count):
    groups = abelian_groups_of_order(n)
    assert len(groups) == count
    assert len({g.descriptor for g in groups}) == count
    assert all(g.order == n for g in groups)


def test_groups_of_order_matches_reference_table(fixture_groups):
    per_order = {}
    for row in fixture_groups.values():
        per_order[row.order] = per_order.get(row.order, 0) + 1
    for n, want in per_order.items():
        assert len(abelian_groups_of_order(n)) == want, n


def test_groups_of_order_rejects_zero():
    with pytest.raises(ValueError):
        abelian_groups_of_order(0)


@pytest.mark.parametrize("desc", ["C1", "C4", "C2xC2", "C9", "C4xC3", "C8xC2"])
def test_group_axioms_exhaustive(desc):
    g = parse_group(desc)
    elems = g.elements()
    zero = g.zero()
    for a in elems:
        assert g.add(a, zero) == a
        assert g.add(a, g.neg(a)) == zero
        for b in elems:
            assert g.add(a, b) == g.add(b, a)
    for a, b, c in itertools.product(elems[:6], elems[:6], elems[:6]):
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_cosets_trivial_cases():
    g = parse_group("C2xC2")
    whole = g.subgroup(g.elements())
    reps, class_of = g.cosets(whole)
    assert reps == [g.zero()]
    assert set(class_of.values()) == {g.zero()}

    point = g.subgroup([g.zero()])
    reps, class_of = g.cosets(point)
    assert reps == g.elements()


def test_cosets_c4_mod_two_element_subgroup():
    # enumerate both cosets directly: {0,2} and {1,3}
    c4 = cyclic_group(4)
    u = c4.subgroup([(0,), (2,)])
    reps, class_of = c4.cosets(u)
    assert reps == [(0,), (1,)]
    assert class_of[(2,)] == (0,)
    assert class_of[(3,)] == (1,)


def test_coset_sizes_partition_group():
    g = parse_group("C4xC2")
    u = g.subgroup([(0, 0), (2, 0)])
    reps, class_of = g.cosets(u)
    assert len(reps) == g.order // len(u)
    sizes = {}
    for e, r in class_of.items():
        sizes[r] = sizes.get(r, 0) + 1
    assert sum(sizes.values()) == g.order
    assert set(sizes.values()) == {len(u)}


def test_subgroup_validation():
    c4 = cyclic_group(4)
    with pytest.raises(ValueError, match="zero"):
        Subgroup(c4, [(1,), (3,)])
    with pytest.raises(ValueError, match="closed"):
        Subgroup(c4, [(0,), (1,)])
    with pytest.raises(ValueError):
        c4.cosets(cyclic_group(8).subgroup([(0,), (4,)]))


def test_subgroup_generated():
    g = parse_group("C4xC2")
    u = g.subgroup_generated([(2, 0)])
    assert sorted(u.elements) == [(0, 0), (2, 0)]
    assert len(g.subgroup_generated([(1, 0)])) == 4
    assert len(g.subgroup_generated([])) == 1


def test_unreduced_coordinates_name_their_reduced_element():
    g = parse_group("C4xC2")
    assert g.index_of((1, 3)) == g.index_of((1, 1)) == 3
    assert g.index_of((-1, 2)) == g.index_of((3, 0))
    assert g.subgroup_generated([(1, 3)]) == g.subgroup_generated([(1, 1)])
    assert (5, 1) in g.subgroup_generated([(1, 1)])
    assert (1, 0) not in g.subgroup_generated([(1, 1)])


def test_parse_group():
    assert parse_group("c4 X c2").descriptor == "C4xC2"
    assert parse_group("C2^5").descriptor == "C2xC2xC2xC2xC2"
    assert parse_group("C12").descriptor == "C4xC3"
    assert parse_group("C1").order == 1
    with pytest.raises(ValueError):
        parse_group("D4")
    with pytest.raises(ValueError):
        parse_group("")


@pytest.mark.parametrize("desc", ["C0", "C0xC2", "C6^0xC3", "C1^0"])
def test_parse_group_refuses_order_zero_and_power_zero(desc):
    # a factor of order 0 or a zeroth power is no group; neither is dropped
    with pytest.raises(ValueError, match="must be at least 1"):
        parse_group(desc)


def test_direct_product():
    g = direct_product(cyclic_group(4), cyclic_group(3))
    assert g.descriptor == "C4xC3"
    assert direct_product(g, trivial_group()) == g


def test_equality_and_hash():
    assert parse_group("C12") == parse_group("C4xC3")
    assert hash(parse_group("C12")) == hash(parse_group("C4xC3"))
    assert parse_group("C12") != parse_group("C2xC2xC3")
