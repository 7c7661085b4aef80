"""Endomorphisms and automorphism groups of finite abelian groups.

An endomorphism is stored as its generator images, the element index of
each canonical generator's image, and is evaluated through its cached
action table; one integer matrix per prime component is only its input
and output form.  The full automorphism group is held the same way, as
an array of generator images with one row of rank element indices per
automorphism, which keeps group-sized orbit computations cheap: a
member's value at any element is a sum of scalar multiples of its
images.  The action tables, the value of every
automorphism at every element, are evaluated from the images only when
per-class work first reads them, and are stored element-major like the
images: one contiguous row of member values per element.

Aut(G) is built one way for every group: a closure over generator
images from a few seeded random members, each a uniformly random
automorphism drawn as a legal tuple of generator images (the same legal
images that number the members below) whose matrix is a bijection.  Each
round's new members are ordered by key, and the closure must reach
exactly the order given by the |Aut| formula, which proves that the
drawn members generate Aut(G); AutGroup keeps them as its generating set.

An automorphism is determined by the images of the rank canonical
generators, and generator i can only map into a known finite set of
elements.  Numbering each generator's legal images and reading the rank
numbers as digits of one mixed-radix number gives every member a dense
key below the number of legal matrices.  The closure that numbers the
members writes one int32 array from key to member index (-1 for
non-members), which AutGroup keeps, so a member is found from its rank
generator images by a single gather: no sorting, no searching and no
full n-column table comparison.  The index has one entry per legal
matrix, at most 12 per member for the groups of order up to 256 within the
default budget: 2^25 entries (134 MB) for C2^5, against 320 MB of tables.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cache, cached_property
from math import prod

import numpy as np

from .abelian import AbelianGroup, GroupElement, Subgroup

DEFAULT_AUT_BUDGET = 20_000_000


class ResourceLimitError(RuntimeError):
    """Raised when a requested automorphism group exceeds the size budget."""

    def __init__(self, group: AbelianGroup, estimated: int, budget: int):
        self.group = group
        self.estimated = estimated
        self.budget = budget
        super().__init__(
            f"automorphism group of {group.descriptor} has {estimated} elements, "
            f"over the budget of {budget}"
        )


class Endomorphism:
    """A homomorphism of a group into itself, held as its generator images.

    `images[j]` is the element index of the image of canonical generator
    j: the same row an `AutGroup` member has.  Every construction checks
    the images against the one legality rule, `_image_codes`, and the map
    is evaluated through its action table (`_table_of_images`, cached):
    `apply`, `image` and `is_automorphism` read it, and `compose` and
    `one_minus` compute only the derived map's generator images.

    Block matrices are input and output only.  Entry m[i][j] of the block
    for prime p is the coefficient of generator i in the image of generator
    j, reduced modulo the order p^{e_i} of the target factor; the
    constructor takes them, and `blocks` (cached) and `block_lists()` give
    them back.
    """

    __slots__ = ("group", "images", "_table", "_blocks")

    def __init__(self, group: AbelianGroup, blocks):
        spans = group.prime_spans
        if len(blocks) != len(spans):
            raise ValueError(f"expected {len(spans)} prime blocks, got {len(blocks)}")
        images = [0] * group.rank
        for (p, i0, i1), mat in zip(spans, blocks):
            k = i1 - i0
            if len(mat) != k or any(len(row) != k for row in mat):
                raise ValueError(f"block for prime {p} must be {k}x{k}")
            for j in range(k):  # column j: the image of generator i0 + j
                x = [0] * group.rank
                x[i0:i1] = [int(row[j]) for row in mat]
                images[i0 + j] = group.index_of(x)
        self._set(group, images)

    def _set(self, group: AbelianGroup, images) -> None:
        """Hold these generator images (element indices), refusing an illegal one."""
        images = tuple(int(v) for v in images)
        if len(images) != group.rank:
            raise ValueError(f"expected {group.rank} generator images")
        codes, space = _image_codes(group)
        for j, v in enumerate(images):
            if codes[j, v] >= space:
                raise ValueError(
                    f"generator {j} cannot map to {group.element_at(v)!r}: coordinate i of "
                    f"its image must be divisible by p^max(0, e_i - e_{j}), and 0 across "
                    f"prime components"
                )
        self.group, self.images, self._table, self._blocks = group, images, None, None

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.group == other.group
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.group, self.images))

    def __repr__(self):
        return f"Endomorphism({self.group.descriptor}, {self.block_lists()!r})"

    @property
    def blocks(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """One matrix per prime, read off the images on first use."""
        if self._blocks is None:
            cols = self.group.coords_array[list(self.images)].tolist()  # cols[j]: image of j
            self._blocks = tuple(
                tuple(tuple(cols[j][i] for j in range(i0, i1)) for i in range(i0, i1))
                for _, i0, i1 in self.group.prime_spans
            )
        return self._blocks

    def block_lists(self) -> list[list[list[int]]]:
        """Blocks as nested lists (the JSON debug form)."""
        return [[list(row) for row in b] for b in self.blocks]

    def apply(self, x: GroupElement) -> GroupElement:
        g = self.group
        return g.element_at(int(self.table[g.index_of(x)]))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: apply(compose(f, g), x) == f(g(x))."""
        if self.group != other.group:
            raise ValueError("endomorphisms live on different groups")
        return _of_images(self.group, self.table[list(other.images)])

    def __mul__(self, other):
        return self.compose(other)

    @property
    def table(self) -> np.ndarray:
        """Action on element indices: table[i] = index_of(f(element_at(i)))."""
        if self._table is None:
            self._table = _table_of_images(self.group, list(self.images))
            self._table.setflags(write=False)
        return self._table

    def image(self) -> Subgroup:
        g = self.group
        return Subgroup(g, [g.element_at(int(i)) for i in np.unique(self.table)], _checked=True)

    def is_automorphism(self) -> bool:
        """Whether the action table is a bijection."""
        return len(np.unique(self.table)) == self.group.order


def _of_images(group: AbelianGroup, images) -> Endomorphism:
    """The endomorphism with these generator images (element indices)."""
    f = Endomorphism.__new__(Endomorphism)
    f._set(group, images)
    return f


def identity(group: AbelianGroup) -> Endomorphism:
    return scalar_endo(group, 1)


def scalar_endo(group: AbelianGroup, c: int) -> Endomorphism:
    """Multiplication by the integer c."""
    return _of_images(group, [c % m * s for m, s in zip(group.moduli, group._strides)])


def one_minus(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """The endomorphism x -> x - f(x) - g(x), read at the canonical generators."""
    if f.group != g.group:
        raise ValueError("endomorphisms live on different groups")
    gp = f.group
    sub = gp.sub_table
    return _of_images(gp, sub[sub[list(gp._strides), list(f.images)], list(g.images)])


def endo_from_gen_images(group: AbelianGroup, images: Sequence[GroupElement]) -> Endomorphism:
    """Build an endomorphism from the images of the canonical generators."""
    return _of_images(group, [group.index_of(x) for x in images])


# ---------------------------------------------------------------------------
# order of the automorphism group (exact, per prime component)


def _aut_order_prime(p: int, exps_desc: Sequence[int]) -> int:
    e = sorted(exps_desc)
    n = len(e)
    dk = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    ck = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
    out = 1
    for k in range(n):
        out *= p ** dk[k] - p**k
    for j in range(n):
        out *= p ** (e[j] * (n - dk[j]))
    for i in range(n):
        out *= p ** ((e[i] - 1) * (n - ck[i] + 1))
    return out


def aut_group_order(group: AbelianGroup) -> int:
    """Exact |Aut(G)|, multiplicative over the prime components."""
    out = 1
    for p, i0, i1 in group.prime_spans:
        out *= _aut_order_prime(p, [e for _, e in group.factors[i0:i1]])
    return out


# ---------------------------------------------------------------------------
# automorphism group construction


@cache
def _image_codes(group: AbelianGroup) -> tuple[np.ndarray, int]:
    """Per-generator digit tables for the dense member key, and the key space.

    This is the one rule for legal generator images: generator i can only
    map to elements whose coordinate j is a multiple of p^max(0, e_j - e_i)
    modulo p^e_j (and 0 across primes), so its image is one of
    prod_j p^min(e_i, e_j) legal values.  codes[i, v] is generator i's share
    of the key when its image has element index v.  Generator 0 is least
    significant and, within a generator, the last coordinate is, so keys
    order members like their generator images do in element-index order.
    An illegal image gets the code `space`, which pushes any key containing
    it out of range.  Cached per group and read-only.
    """
    k = group.rank
    fs = group.factors
    space = prod(p ** min(ei, ej) for p, ei in fs for q, ej in fs if q == p)
    # past int64 (C2^8 and up, far over any Aut budget) the codes only decide legality
    coords = group.coords_array.astype(np.int64 if space < 2**63 else object)
    codes = np.zeros((k, group.order), dtype=coords.dtype)
    legal = np.ones((k, group.order), dtype=bool)
    weight = 1
    for i, (p, ei) in enumerate(group.factors):
        for j in range(k - 1, -1, -1):
            q, ej = group.factors[j]
            c = coords[:, j]
            if q != p:
                legal[i] &= c == 0
                continue
            step = p ** max(0, ej - ei)
            legal[i] &= c % step == 0
            codes[i] += c // step * weight
            weight *= p ** min(ei, ej)
    codes[~legal] = weight
    codes.setflags(write=False)
    return codes, weight


def _keys_of_images(codes: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Dense keys of (rows, rank) generator images; keys >= space are illegal."""
    keys = np.zeros(len(images), dtype=np.int64)
    for i in range(len(codes)):
        keys += codes[i].take(images[:, i])
    return keys


# entries of one chunk of the table build: its intp block indices then stay
# in cache (Aut(C5^3)'s tables: 0.71 s at 2^19 entries, 1.5 s at 2^15)
_TABLE_ENTRIES = 1 << 19


# consecutive draws inside the closure before it gives up: a uniform draw
# lies in a proper subgroup with probability at most 1/2, so a closure short
# of |Aut| is given up on wrongly with probability at most 2^-64
_MAX_DRAWS = 64


def _table_of_images(gp: AbelianGroup, images) -> np.ndarray:
    """Table of the endomorphism with these legal generator images (element indices).

    The one kernel for a single map's table (`Endomorphism.table`,
    `AutGroup.member_table`, the random draws): x's value is the sum of x_j
    times image j, one coordinate product over all primes at once, since
    legal images are zero across primes.
    """
    coords = gp.coords_array
    return gp.pack_coords(coords @ coords[images]).astype(gp.index_dtype)


def _random_automorphism(
    gp: AbelianGroup, rng: random.Random, legal: list[np.ndarray]
) -> np.ndarray:
    """Table of a uniformly random automorphism.

    legal[i] holds generator i's legal images; one is drawn for each
    generator until the matrix they give is a bijection.
    """
    while True:
        t = _table_of_images(gp, [int(v[rng.randrange(len(v))]) for v in legal])
        if np.bincount(t, minlength=gp.order).all():
            return t


def _images_by_closure(gp: AbelianGroup, expected: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Grow the group's generator images by closure over a few seeded random members.

    Each generator is a uniformly random automorphism
    (`_random_automorphism`) drawn from an RNG seeded by the group's
    descriptor.  Legal matrices are one to one with the dense keys (see
    `_image_codes`), so the draw is uniform on Aut(G) and takes space /
    |Aut| tries on average: at most 12 (see AutGroup).  A draw becomes a
    generator only if it lies outside the closure so far; after _MAX_DRAWS
    draws in a row inside it, a closure short of |Aut| is reported
    incomplete.  A new generator is applied after every member so far, and
    rounds then go on over the fresh members with every generator, until
    the closure is closed again.  The closure is complete when it reaches
    |Aut|, so the generators need only a handful of key passes per member.

    A member is its rank generator images, and generator g applied after
    member m has images g[m's images].  Their keys are read through the key
    codes composed with g, so g's images are gathered only for the
    products not seen before.  `index` (key to member, -1 for none) is the
    one membership record, and each round numbers its new members in key
    order: a member's index does not depend on which generator reached it
    first, and the identity is member 0.  Images are column-major: every
    pass over them (keys, evaluation, centralizer tests) reads one column.
    Returns the images, the index and the generators' member indices.
    """
    codes, space = _image_codes(gp)
    gen_pos = np.asarray(gp._strides)
    images = np.empty((expected, gp.rank), dtype=gp.index_dtype, order="F")
    images[0] = gen_pos
    index = np.full(space, -1, dtype=np.int32)
    index[_keys_of_images(codes, images[:1])] = 0  # the identity
    rng = random.Random(f"aut-generators:{gp.descriptor}")
    legal = [np.flatnonzero(c < space) for c in codes]

    def key_of(t: np.ndarray) -> int:
        return int(_keys_of_images(codes, t[None, gen_pos])[0])

    gens: list[np.ndarray] = []
    hi = 1
    while hi < expected:
        draws = (_random_automorphism(gp, rng, legal) for _ in range(_MAX_DRAWS))
        g = next((t for t in draws if index[key_of(t)] < 0), None)
        if g is None:
            raise AssertionError(
                f"generating set incomplete for {gp.descriptor}: "
                f"closure size {hi} != |Aut| = {expected}"
            )
        gens.append(g)
        lo, acting = 0, [g]
        while lo < hi:
            frontier = images[lo:hi]
            round_images, round_keys = [], []
            for t in acting:
                keys = _keys_of_images(codes[:, t], frontier)
                fresh = np.flatnonzero(index.take(keys) < 0)
                keys = keys[fresh]
                index[keys] = hi  # taken, so the next generator skips it
                round_images.append(t[frontier[fresh]])
                round_keys.append(keys)
            keys = np.concatenate(round_keys)
            end = hi + len(keys)
            if end > expected:
                raise AssertionError("closure overshot the predicted group order")
            order = np.argsort(keys)
            images[hi:end] = np.concatenate(round_images, axis=0)[order]
            index[keys[order]] = np.arange(hi, end, dtype=np.int32)
            lo, hi, acting = hi, end, gens
    return images, index, index[[key_of(t) for t in gens]].tolist() or [0]


class AutGroup:
    """The full automorphism group of a finite abelian group.

    A member is fixed by the images of the canonical generators: `images`
    holds them as a column-major (members, rank) array, and member objects
    are materialized lazily; indices are the primary handle elsewhere.
    Each row maps to a dense mixed-radix key (see `_image_codes`), and
    `index` maps every key to its member index, or -1 for a
    legal-looking image tuple that is no automorphism.  The key space is
    the number of legal matrices.  For every group of order up to 256
    whose |Aut| is within the default budget it is at most 12 times |Aut|,
    so the int32 index stays below 48 bytes per member: 2^25 entries
    (134 MB) for C2^5, 5^9 (8 MB) for C5^3.

    A member's value at any element is evaluated from its images
    (`member_table`, `evaluate`).  The (members, n) action tables, row m
    the permutation of element indices induced by member m, are built only
    when `tables` is first read, from the images too, and stored
    element-major (`tables.T` is C-contiguous).  Aut-wide work
    (conjugation, class labels) never reads them; per-class work does.

    `index` and `gens`, the member indices of the generating set, come
    from the closure that grew the images (`_images_by_closure`), which
    reached |Aut|: the gens generate the whole group.
    """

    def __init__(self, group: AbelianGroup, images: np.ndarray, index: np.ndarray, gens: list):
        self.group = group
        self.images = images
        self.images.setflags(write=False)
        self.gen_pos = np.asarray(group._strides, dtype=np.int64)
        self._codes = _image_codes(group)[0]
        if np.count_nonzero(index >= 0) != len(images):  # a repeated key leaves fewer entries
            raise AssertionError("duplicate members in automorphism group")
        self.index, self.gens = index, gens
        self.index.setflags(write=False)
        self.identity_index = self._index_of_images(self.gen_pos)

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        return f"<AutGroup of {self.group.descriptor}, order {len(self)}>"

    @cached_property
    def tables(self) -> np.ndarray:
        """(members, n) action tables, evaluated from the images on first read.

        The array is element-major: `tables.T` is the C-contiguous (n,
        members) array, row y holding m(y) for every member m, like the
        column-major images.  A scan over all members (a centralizer test)
        then reads one contiguous row per element, and a member list's
        values are the row gather `tables.T[:, members]`; a single member's
        row `tables[m]` is strided.

        The last coordinate has stride 1, so once the coordinates after j
        are done the values at the first `done` elements (e_j's stride) are
        known, and the value at c e_j + r (r < done) is m(c e_j) + m(r): one
        add-table gather per entry over a block of `done` elements, for a
        chunk of members at a time, written in place.
        """
        g = self.group
        n = g.order
        add = g.add_table.ravel()
        by_element = np.empty((n, len(self)), dtype=g.index_dtype)
        rows = max(1, min(len(self), _TABLE_ENTRIES // n))
        for lo in range(0, len(self), rows):
            images = self.images[lo : lo + rows]
            t = by_element[:, lo : lo + len(images)]
            t[0] = 0
            done = 1
            for j in range(g.rank - 1, -1, -1):
                for c in range(1, g.moduli[j]):
                    head = np.multiply(t[(c - 1) * done], n, dtype=np.intp)
                    head += images[:, j]  # index of m((c-1) e_j) + m(e_j)
                    idx = np.multiply(add.take(head), n, dtype=np.intp) + t[:done]
                    add.take(idx, out=t[c * done : (c + 1) * done], mode="clip")
                done *= g.moduli[j]
        by_element.setflags(write=False)
        return by_element.T

    @cached_property
    def _arithmetic(self):
        """The sum of two element-index arrays, and the table mul[c, x] = c x (c below the largest modulus)."""
        g = self.group
        mods = max(g.moduli, default=1)
        mul = np.stack([g.pack_coords(c * g.coords_array) for c in range(mods)]).astype(g.index_dtype)
        add = g.add_table.ravel()

        def plus(a, b):
            idx = np.multiply(a, g.order, dtype=np.intp)
            idx += b
            return add.take(idx)

        return plus, mul

    def member_table(self, i: int) -> np.ndarray:
        """Action table of member i, evaluated from its images."""
        return _table_of_images(self.group, self.images[int(i)])

    def evaluate(self, ys, lo: int, hi: int) -> np.ndarray:
        """(len(ys), hi - lo) array of m(y) for each element y and member m in [lo, hi).

        m(y) is the sum over y's non-zero coordinates c_j of c_j m(e_j):
        one gather from the scalar-multiple table per coordinate above 1,
        and one sum per further coordinate.
        """
        g = self.group
        plus, mul = self._arithmetic
        cols = self.images[lo:hi]
        out = np.zeros((len(ys), len(cols)), dtype=g.index_dtype)
        for r, y in enumerate(ys):
            acc = None
            for j, c in enumerate(g.coords_array[int(y)]):
                if c:
                    term = cols[:, j] if c == 1 else mul[c].take(cols[:, j])
                    acc = term if acc is None else plus(acc, term)
            if acc is not None:
                out[r] = acc
        return out

    def lookup_images(self, images: np.ndarray) -> np.ndarray:
        """Member indices of (rows, rank) generator images; raises if any row is foreign."""
        keys = _keys_of_images(self._codes, images)
        if len(keys) and int(keys.max()) >= len(self.index):
            raise KeyError("some rows are not members of this automorphism group")
        out = self.index.take(keys)
        if len(out) and int(out.min()) < 0:
            raise KeyError("some rows are not members of this automorphism group")
        return out.astype(np.int64)

    def _index_of_images(self, images) -> int:
        try:
            return int(self.lookup_images(np.array([images], dtype=np.int64))[0])
        except KeyError:
            raise KeyError("not a member of this automorphism group") from None

    def index_of_table(self, table: np.ndarray) -> int:
        return self._index_of_images(table[self.gen_pos])

    def index_of(self, f: Endomorphism) -> int:
        if f.group != self.group:
            raise KeyError("endomorphism of a different group")
        return self._index_of_images(f.images)

    def __contains__(self, f):
        try:
            self.index_of(f)
            return True
        except KeyError:
            return False

    def member(self, i: int) -> Endomorphism:
        """Member i as an Endomorphism: a copy of its row of generator images."""
        return _of_images(self.group, self.images[int(i)])

    @cached_property
    def members(self) -> "_MemberSeq":
        return _MemberSeq(self)


class _MemberSeq(Sequence):
    def __init__(self, aut: AutGroup):
        self._aut = aut

    def __len__(self):
        return len(self._aut)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._aut.member(j) for j in range(*i.indices(len(self)))]
        return self._aut.member(i)


def aut_group(group: AbelianGroup, budget: int | None = DEFAULT_AUT_BUDGET) -> AutGroup:
    """Construct Aut(G) completely, refusing when it would exceed the budget.

    The members are grown and numbered by a closure over a few seeded,
    uniformly random automorphisms (see `_images_by_closure`).  The closure
    must reach exactly the order given by the formula, so the drawn members
    generate Aut(G): the group keeps them as its generating set
    (`AutGroup.gens`, the engine's `agens`).
    """
    expected = aut_group_order(group)
    if budget is not None and expected > budget:
        raise ResourceLimitError(group, expected, budget)
    return AutGroup(group, *_images_by_closure(group, expected))
