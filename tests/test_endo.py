import hashlib
import itertools
import random

import numpy as np
import pytest

import centralq.endo as endo_mod
from centralq.abelian import cyclic_group, make_group, parse_group, trivial_group
from centralq.endo import (
    Endomorphism,
    ResourceLimitError,
    aut_group,
    aut_group_order,
    endo_from_gen_images,
    identity,
    one_minus,
    scalar_endo,
)

from reference_engine import compose_indices, inverse_index


def all_endomorphisms(group):
    """Every legal block matrix family of a (small) group."""
    spans = group.prime_spans
    per_prime_choices = []
    for p, i0, i1 in spans:
        exps = [e for _, e in group.factors[i0:i1]]
        k = len(exps)
        entry_choices = []
        for i in range(k):
            for j in range(k):
                step = p ** max(0, exps[i] - exps[j])
                entry_choices.append(range(0, p ** exps[i], step))
        mats = []
        for combo in itertools.product(*entry_choices):
            mats.append([list(combo[i * k : (i + 1) * k]) for i in range(k)])
        per_prime_choices.append(mats)
    return [
        Endomorphism(group, list(blocks))
        for blocks in itertools.product(*per_prime_choices)
    ]


def test_apply_examples():
    c3 = cyclic_group(3)
    assert identity(c3).apply((2,)) == (2,)
    assert scalar_endo(c3, 2).apply((1,)) == (2,)
    g = parse_group("C4xC2")
    f = Endomorphism(g, [[[1, 0], [1, 1]]])
    assert f.apply((1, 0)) == (1, 1)
    assert f.apply((0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        f.apply((1,))


def test_block_divisibility_constraint():
    g = parse_group("C4xC2")
    # an order-2 generator cannot map onto an order-4 element
    with pytest.raises(ValueError, match="divisible"):
        Endomorphism(g, [[[1, 1], [0, 1]]])
    # the other direction is unconstrained
    Endomorphism(g, [[[1, 0], [1, 1]]])


def test_compose_examples():
    c5 = cyclic_group(5)
    assert scalar_endo(c5, 2).compose(scalar_endo(c5, 3)) == identity(c5)
    c4 = cyclic_group(4)
    assert scalar_endo(c4, 3).compose(scalar_endo(c4, 3)) == identity(c4)
    g = parse_group("C2xC3")
    f = scalar_endo(g, 5)
    assert f.compose(identity(g)) == f
    with pytest.raises(ValueError):
        f.compose(identity(c4))


def test_compose_matches_pointwise():
    g = parse_group("C4xC2")
    fs = all_endomorphisms(g)
    rng = random.Random(7)
    for _ in range(40):
        f, h = rng.choice(fs), rng.choice(fs)
        fh = f.compose(h)
        for x in g.elements():
            assert fh.apply(x) == f.apply(h.apply(x))


def test_one_minus_examples():
    c3 = cyclic_group(3)
    assert one_minus(identity(c3), identity(c3)) == scalar_endo(c3, 2)
    assert one_minus(scalar_endo(c3, 2), scalar_endo(c3, 2)) == scalar_endo(c3, 0)
    c4 = cyclic_group(4)
    assert one_minus(identity(c4), scalar_endo(c4, 3)) == scalar_endo(c4, 1)
    g = parse_group("C4xC2")
    f, h = scalar_endo(g, 3), scalar_endo(g, 2)
    om = one_minus(f, h)
    for x in g.elements():
        assert om.apply(x) == g.sub(g.sub(x, f.apply(x)), h.apply(x))


def test_image_examples():
    c3 = cyclic_group(3)
    assert sorted(scalar_endo(c3, 0).image().elements) == [(0,)]
    c4 = cyclic_group(4)
    assert sorted(scalar_endo(c4, 2).image().elements) == [(0,), (2,)]
    assert len(identity(parse_group("C4xC2")).image()) == 8


def test_is_automorphism_examples():
    assert identity(cyclic_group(7)).is_automorphism()
    assert not scalar_endo(cyclic_group(4), 2).is_automorphism()
    assert scalar_endo(cyclic_group(5), 2).is_automorphism()


@pytest.mark.parametrize("desc", ["C4", "C2xC2", "C6", "C4xC2", "C8", "C3xC3"])
def test_automorphism_criterion_matches_permutation_check(desc):
    g = parse_group(desc)
    for f in all_endomorphisms(g):
        table_is_perm = len(set(int(v) for v in f.table)) == g.order
        assert f.is_automorphism() == table_is_perm


@pytest.mark.parametrize("desc", ["C2xC2", "C4xC2", "C9", "C2xC9"])
def test_homomorphism_property_exhaustive(desc):
    g = parse_group(desc)
    for f in all_endomorphisms(g):
        for a in g.elements():
            for b in g.elements():
                assert f.apply(g.add(a, b)) == g.add(f.apply(a), f.apply(b))


def test_aut_order_matches_reference_table(fixture_groups):
    for row in fixture_groups.values():
        assert aut_group_order(parse_group(row.descriptor)) == row.aut_order, row


@pytest.mark.parametrize(
    "desc,order",
    [("C2xC2", 6), ("C2xC2xC2", 168), ("C9xC3", 108), ("C4xC3", 4), ("C2xC2xC2xC2", 20160)],
)
def test_aut_group_size(desc, order):
    assert len(aut_group(parse_group(desc))) == order


def test_aut_group_members_closed_small():
    A = aut_group(parse_group("C2xC2"))
    seen = {A.member(i) for i in range(len(A))}
    assert len(seen) == 6
    for f in seen:
        for g in seen:
            assert f.compose(g) in seen
            assert f.compose(g) in A


def test_aut_group_closure_sampled_large():
    A = aut_group(parse_group("C2^4"))
    rng = random.Random(11)
    for _ in range(200):
        i, j = rng.randrange(len(A)), rng.randrange(len(A))
        assert 0 <= compose_indices(A, i, j) < len(A)


def test_member_index_round_trip():
    A = aut_group(parse_group("C4xC2"))
    assert len(A) == 8
    for i in range(len(A)):
        m = A.member(i)
        assert m.is_automorphism()
        assert A.index_of(m) == i
    assert A.member(A.identity_index) == identity(A.group)
    with pytest.raises(KeyError):
        A.index_of(scalar_endo(A.group, 2))  # not bijective
    with pytest.raises(KeyError):
        A.index_of(identity(cyclic_group(3)))


def test_inverse_index():
    A = aut_group(parse_group("C3xC3"))
    for i in range(0, len(A), 7):
        j = inverse_index(A, i)
        assert compose_indices(A, i, j) == A.identity_index


@pytest.mark.parametrize(
    "desc", ["C2", "C2xC3", "C4xC2", "C2xC2xC2", "C9xC3", "C5xC5", "C4xC2xC3"]
)
def test_members_are_exactly_the_invertible_matrices(desc):
    # an object-level route to Aut(G) that shares nothing with the closure
    g = parse_group(desc)
    A = aut_group(g)
    invertible = {f for f in all_endomorphisms(g) if f.is_automorphism()}
    assert invertible == {A.member(i) for i in range(len(A))}
    assert len(invertible) == len(A) == aut_group_order(g)


@pytest.mark.parametrize("error,match", [(-1, "overshot"), (1, "incomplete")])
def test_closure_checks_the_predicted_order(monkeypatch, error, match):
    real = endo_mod.aut_group_order
    monkeypatch.setattr(endo_mod, "aut_group_order", lambda g: real(g) + error)
    with pytest.raises(AssertionError, match=match):
        aut_group(parse_group("C4xC2xC3"))


def test_coprime_direct_product_law():
    pairs = [("C4", "C3"), ("C2xC2", "C3"), ("C8", "C5"), ("C9", "C2xC2")]
    for d1, d2 in pairs:
        g1, g2 = parse_group(d1), parse_group(d2)
        combined = make_group(g1.factors + g2.factors)
        assert aut_group_order(combined) == aut_group_order(g1) * aut_group_order(g2)
    assert aut_group_order(parse_group("C4xC3")) == 4


def test_budget_refusal_names_estimate():
    with pytest.raises(ResourceLimitError) as info:
        aut_group(parse_group("C2^6"))
    assert info.value.estimated == 20158709760
    assert "20158709760" in str(info.value)
    with pytest.raises(ResourceLimitError):
        aut_group(parse_group("C3^4"))
    # C_3^4 fits a raised budget check but not the default one
    assert aut_group_order(parse_group("C3^4")) == 24261120


def test_budget_none_disables_check():
    assert len(aut_group(parse_group("C3xC3"), budget=None)) == 48
    with pytest.raises(ResourceLimitError):
        aut_group(parse_group("C3xC3"), budget=10)


def test_endo_from_gen_images_rejects_cross_prime():
    g = parse_group("C2xC3")
    with pytest.raises(ValueError, match="across prime"):
        endo_from_gen_images(g, [(0, 1), (0, 1)])
    f = endo_from_gen_images(g, [(1, 0), (0, 2)])
    assert f.apply((1, 1)) == (1, 2)


def test_trivial_group_aut():
    A = aut_group(trivial_group())
    assert len(A) == 1
    assert A.member(0).is_automorphism()


def test_members_sequence_view():
    A = aut_group(parse_group("C5"))
    assert len(A.members) == 4
    assert A.members[0] == A.member(0)
    assert [m for m in A.members[1:3]] == [A.member(1), A.member(2)]


def test_index_dtype_holds_large_groups():
    # element indices above 65535 need 32 bits; this builds no Aut
    g = cyclic_group(2**17)
    assert identity(g).table[-1] == 2**17 - 1
    assert scalar_endo(g, 3).table[1] == 3


def test_debug_serialization_blocks():
    g = parse_group("C4xC3")
    f = scalar_endo(g, 5)
    assert f.block_lists() == [[[1]], [[2]]]


def _tables_md5(A):
    return hashlib.md5(np.ascontiguousarray(A.tables).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "desc,ident,first_gens",
    [
        ("C2^4", 0, [1, 2, 3, 4, 5, 6]),
        ("C4xC4xC4", 0, [1, 2, 3, 4, 5, 6]),
        ("C4xC4xC2xC2", 0, [1, 2, 3, 4, 5, 6]),
        ("C4xC2xC3", 0, [1, 2, 3, 4]),
    ],
)
def test_member_order_is_pinned(desc, ident, first_gens):
    # class representatives and the seeded generator searches depend on it
    A = aut_group(parse_group(desc))
    assert A.identity_index == ident
    gens = sorted(A.index_of(f) for f in endo_mod._generators(A.group))
    assert gens[: len(first_gens)] == first_gens


@pytest.mark.parametrize(
    "desc,digest",
    [
        ("C3^3", "cdb2ae603d2027fa614be5bb7a7edaad"),  # equal exponents
        ("C4xC4xC2xC2", "559fa23a015f5a7cb10141e7c74c0358"),  # mixed exponents
        ("C4xC2xC3", "40523158b1d6cb06644538eeaa159693"),  # two primes
    ],
)
def test_member_tables_are_pinned(desc, digest):
    assert _tables_md5(aut_group(parse_group(desc))) == digest


@pytest.mark.parametrize("desc", ["C4xC2xC3", "C9xC3", "C2^3", "C4xC4xC2xC2"])
def test_keys_follow_generator_image_order(desc):
    A = aut_group(parse_group(desc))
    keys = A.keys
    assert keys.min() >= 0 and keys.max() < len(A.index)
    # generator 0 least significant, element-index order within a generator
    assert np.array_equal(np.argsort(keys), np.lexsort(A.images.T))
    assert np.array_equal(A.index[keys], np.arange(len(A)))
    assert np.count_nonzero(A.index >= 0) == len(A)


def test_index_space_is_the_candidate_count():
    # C4xC2: entries 4, 2, 2, 2 legal values; C3: 3
    assert len(aut_group(parse_group("C4xC2xC3")).index) == 32 * 3
    assert len(aut_group(parse_group("C2^3")).index) == 2**9


def test_lookup_rejects_singular_endomorphism():
    g = parse_group("C2^3")
    A = aut_group(g)
    singular = Endomorphism(g, [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]])  # det 0 mod 2
    assert not singular.is_automorphism()
    with pytest.raises(KeyError):
        A.lookup_tables(singular.table[None, :])
    with pytest.raises(KeyError):
        A.index_of(singular)
    # one foreign row spoils the whole batch
    batch = np.stack([A.tables[3], singular.table, A.tables[5]])
    with pytest.raises(KeyError):
        A.lookup_tables(batch)
    assert A.lookup_tables(batch[[0, 2]]).tolist() == [3, 5]


@pytest.mark.parametrize(
    "desc,gen,image",
    [
        ("C4xC2", 1, (1, 0)),  # an order-2 generator sent to an order-4 element
        ("C9xC3", 1, (1, 0)),  # an order-3 generator sent to an order-9 element
        ("C2xC3", 0, (1, 1)),  # a 2-part generator sent into the 3-part
    ],
)
def test_lookup_rejects_illegal_generator_image(desc, gen, image):
    g = parse_group(desc)
    A = aut_group(g)
    row = np.array(identity(g).table)
    row[g._strides[gen]] = g.index_of(image)
    with pytest.raises(KeyError):
        A.lookup_tables(row[None, :])
    with pytest.raises(KeyError):
        A.index_of_table(row)
