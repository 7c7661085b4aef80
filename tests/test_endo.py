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
    # is_automorphism checks that the table is a permutation; the criterion
    # is that the generator images, the blocks' columns, span the group
    g = parse_group(desc)
    for f in all_endomorphisms(g):
        images = []
        for (p, i0, i1), block in zip(g.prime_spans, f.block_lists()):
            for j in range(i1 - i0):
                x = [0] * g.rank
                x[i0:i1] = [row[j] for row in block]
                images.append(tuple(x))
        onto = len(g.subgroup_generated(images)) == g.order
        assert f.is_automorphism() == onto


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


@pytest.mark.parametrize(
    "desc,count", [("C4xC2", 32), ("C2xC3", 6), ("C9xC3", 243), ("C4xC2xC3", 96)]
)
def test_image_legality_matches_the_block_rule(desc, count):
    # _image_codes alone decides which generator images are legal;
    # all_endomorphisms encodes the blocks' per-entry divisibility apart from it
    g = parse_group(desc)
    accepted = []
    for images in itertools.product(g.elements(), repeat=g.rank):
        try:
            accepted.append(endo_from_gen_images(g, images))
        except ValueError:
            pass
    assert len(accepted) == count
    assert set(accepted) == set(all_endomorphisms(g))
    assert all(Endomorphism(g, f.blocks) == f for f in accepted)


def test_image_codes_are_cached_and_read_only():
    g = parse_group("C4xC2xC3")
    codes, space = endo_mod._image_codes(g)
    assert endo_mod._image_codes(parse_group("C4xC2xC3"))[0] is codes
    assert not codes.flags.writeable and space == 32 * 3


def test_legality_past_an_int64_key_space():
    # C2^8 has 2^64 legal matrices: no Aut(G) is built, but maps still are
    g = parse_group("C2^8")
    assert scalar_endo(g, 3) == identity(g)
    assert identity(g).blocks == (tuple(tuple(int(i == j) for j in range(8)) for i in range(8)),)
    with pytest.raises(ValueError, match="across prime"):
        endo_from_gen_images(parse_group("C2^8xC3"), [(0,) * 8 + (1,)] * 9)


@pytest.mark.parametrize("desc", ["C4xC2xC3", "C3^3"])
def test_members_are_copies_of_their_image_rows(desc):
    A = aut_group(parse_group(desc))
    for i in range(len(A)):
        f = A.member(i)
        assert A.index_of(f) == i
        assert f.images == tuple(A.images[i])


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
        ("C2^4", 0, [1, 4]),
        ("C4xC4xC4", 0, [1, 3, 358]),
        ("C4xC4xC2xC2", 0, [1, 6, 515]),
        ("C4xC2xC3", 0, [1, 3, 6]),
    ],
)
def test_member_order_is_pinned(desc, ident, first_gens):
    # class representatives and the seeded generator searches depend on it
    A = aut_group(parse_group(desc))
    assert A.identity_index == ident
    assert sorted(A.gens)[: len(first_gens)] == first_gens


@pytest.mark.parametrize(
    "desc,digest",
    [
        ("C3^3", "2ee7059c275c460f2dc9a6e3228b6927"),  # equal exponents
        ("C4xC4xC2xC2", "c19f745b9e07437440aa169983244081"),  # mixed exponents
        ("C4xC2xC3", "a342b414aec37ac659b86cdc9490a95c"),  # two primes
    ],
)
def test_member_tables_are_pinned(desc, digest):
    assert _tables_md5(aut_group(parse_group(desc))) == digest


@pytest.mark.parametrize("desc", ["C4xC2xC3", "C9xC3", "C2^3", "C4xC4xC2xC2"])
def test_keys_follow_generator_image_order(desc):
    A = aut_group(parse_group(desc))
    keys = endo_mod._keys_of_images(A._codes, A.images)
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
        A.lookup_images(singular.table[None, A.gen_pos])
    with pytest.raises(KeyError):
        A.index_of(singular)
    # one foreign row spoils the whole batch
    batch = np.stack([A.tables[3], singular.table, A.tables[5]])
    with pytest.raises(KeyError):
        A.lookup_images(batch[:, A.gen_pos])
    assert A.lookup_images(batch[[0, 2]][:, A.gen_pos]).tolist() == [3, 5]


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
        A.lookup_images(row[None, A.gen_pos])
    with pytest.raises(KeyError):
        A.index_of_table(row)


def test_images_are_column_major():
    # every pass over the images reads one generator's column; with
    # row-major images, centralizer_mask over C4xC4xC2xC2's 100 classes took
    # 0.97 s instead of 0.40 s, as np.all(axis=1) reduced a length-k inner axis
    assert aut_group(parse_group("C4xC4xC2xC2")).images.flags.f_contiguous


def test_tables_are_element_major():
    # a scan over all members (centralizer_mask) reads one contiguous row
    # per element, and a member list's values are one row gather
    by_element = aut_group(parse_group("C4xC4xC2xC2")).tables.T
    assert by_element.flags.c_contiguous and not by_element.flags.writeable


def test_tables_are_built_on_first_read():
    A = aut_group(parse_group("C3^3"))
    assert "tables" not in vars(A)
    sample = range(0, len(A), 97)
    rows = [A.member_table(i) for i in sample]
    tables = A.tables
    assert tables is A.tables and not tables.flags.writeable
    assert all(np.array_equal(r, tables[i]) for r, i in zip(rows, sample))


@pytest.mark.parametrize("desc", ["C8xC4xC2", "C4xC2xC3", "C9xC3", "C2", "C1"])
def test_members_and_evaluation_match_the_tables(desc, monkeypatch):
    g = parse_group(desc)
    A = aut_group(g)
    monkeypatch.setattr(endo_mod, "_TABLE_ENTRIES", 7 * g.order)  # 7-row chunks, the last short
    points = np.arange(g.order)
    values = A.evaluate(points, 0, len(A))  # (points, members), from the images
    for i in range(len(A)):
        assert np.array_equal(A.member(i).table, A.tables[i])
    assert np.array_equal(values, A.tables.T)
    assert np.array_equal(A.evaluate(points[-2:], 1, len(A)), A.tables[1:, -2:].T)


def test_duplicate_members_are_refused():
    A = aut_group(parse_group("C2xC2"))
    images = A.images.copy(order="F")
    images[1] = images[0]
    index = np.full(len(A.index), -1, dtype=np.int32)
    index[endo_mod._keys_of_images(A._codes, images)] = np.arange(len(images), dtype=np.int32)
    with pytest.raises(AssertionError, match="duplicate members"):
        endo_mod.AutGroup(A.group, images, index, A.gens)


@pytest.mark.parametrize("desc", ["C3^3", "C4xC4xC2xC2"])
def test_build_makes_no_key_pass_over_all_members(desc, monkeypatch):
    # the closure numbers the members in the index as it grows them, so no
    # later pass rebuilds it from every member's key
    rows = []
    keys_of_images = endo_mod._keys_of_images

    def spy(codes, images):
        rows.append(len(images))
        return keys_of_images(codes, images)

    monkeypatch.setattr(endo_mod, "_keys_of_images", spy)
    A = aut_group(parse_group(desc))
    assert rows and max(rows) < len(A)


@pytest.mark.parametrize("desc", ["C2^3", "C4xC2", "C4xC2xC3"])
def test_random_automorphisms_cover_the_group(desc):
    # every draw is a member, and the draws reach every member
    g = parse_group(desc)
    A = aut_group(g)
    codes, space = endo_mod._image_codes(g)
    legal = [np.flatnonzero(c < space) for c in codes]
    rng = random.Random(f"draws:{desc}")
    draws = (endo_mod._random_automorphism(g, rng, legal) for _ in range(20 * len(A)))
    hits = {A.index_of_table(t) for t in draws}
    assert hits == set(range(len(A)))
