"""Endomorphisms and automorphism groups of finite abelian groups.

An endomorphism is stored as one integer matrix per prime component
(column j describes the image of the j-th generator of that component;
maps between components of different primes are always zero).  The full
automorphism group is materialized as an array of action tables, one row
per automorphism, which keeps group-sized orbit computations cheap.

Aut(G) is built one way for every group: a breadth-first closure from
the elementary matrices (unit scalings and minimal transvections) of each
prime component, embedded with identity blocks on the other primes.  Each
round's new members are ordered by key, and the closure must reach
exactly the order given by the |Aut| formula.

An automorphism is determined by the images of the rank canonical
generators, and generator i can only map into a known finite set of
elements.  Numbering each generator's legal images and reading the rank
numbers as digits of one mixed-radix number gives every member a dense
key below the number of legal matrices.  AutGroup keeps one int32
array from key to member index (-1 for non-members), so a member is found
from its rank generator images by a single gather: no sorting, no
searching and no full n-column table comparison.  The index has one
entry per legal matrix, at most 12 per member for the groups of
order up to 256 within the default budget: 2^25 entries (134 MB) for
C2^5, against 320 MB of tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

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
    """A homomorphism of a group into itself, as one matrix per prime.

    Entry m[i][j] of the block for prime p is the coefficient of generator
    i in the image of generator j, reduced modulo the order p^{e_i} of the
    target factor; validity requires p^{max(0, e_i - e_j)} to divide
    m[i][j] so that generator images have legal orders.
    """

    __slots__ = ("group", "blocks", "_table", "_hash")

    def __init__(self, group: AbelianGroup, blocks):
        self.group = group
        spans = group.prime_spans
        if len(blocks) != len(spans):
            raise ValueError(f"expected {len(spans)} prime blocks, got {len(blocks)}")
        norm = []
        for (p, i0, i1), mat in zip(spans, blocks):
            k = i1 - i0
            exps = [e for _, e in group.factors[i0:i1]]
            if len(mat) != k or any(len(row) != k for row in mat):
                raise ValueError(f"block for prime {p} must be {k}x{k}")
            rows = []
            for i in range(k):
                row = []
                for j in range(k):
                    v = int(mat[i][j]) % p ** exps[i]
                    need = p ** max(0, exps[i] - exps[j])
                    if v % need:
                        raise ValueError(
                            f"entry [{i}][{j}]={v} for prime {p} must be divisible "
                            f"by {need} to give generator images of legal order"
                        )
                    row.append(v)
                rows.append(tuple(row))
            norm.append(tuple(rows))
        self.blocks = tuple(norm)
        self._table = None
        self._hash = hash((group, self.blocks))

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.group == other.group
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Endomorphism({self.group.descriptor}, {self.block_lists()!r})"

    def block_lists(self) -> list[list[list[int]]]:
        """Blocks as nested lists (the JSON debug form)."""
        return [[list(row) for row in b] for b in self.blocks]

    def apply(self, x: GroupElement) -> GroupElement:
        g = self.group
        g._check(x)
        out = [0] * len(g.factors)
        for (p, i0, i1), mat in zip(g.prime_spans, self.blocks):
            for i in range(i1 - i0):
                s = sum(mat[i][j] * x[i0 + j] for j in range(i1 - i0))
                out[i0 + i] = s % g.moduli[i0 + i]
        return tuple(out)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: apply(compose(f, g), x) == f(g(x))."""
        if self.group != other.group:
            raise ValueError("endomorphisms live on different groups")
        g = self.group
        blocks = []
        for (p, i0, i1), a, b in zip(g.prime_spans, self.blocks, other.blocks):
            k = i1 - i0
            mods = g.moduli[i0:i1]
            blocks.append(
                [
                    [sum(a[i][l] * b[l][j] for l in range(k)) % mods[i] for j in range(k)]
                    for i in range(k)
                ]
            )
        return Endomorphism(g, blocks)

    def __mul__(self, other):
        return self.compose(other)

    @property
    def table(self) -> np.ndarray:
        """Action on element indices: table[i] = index_of(f(element_at(i)))."""
        if self._table is None:
            g = self.group
            coords = g.coords_array
            out = np.zeros_like(coords)
            for (p, i0, i1), mat in zip(g.prime_spans, self.blocks):
                m = np.asarray(mat, dtype=np.int64)
                out[:, i0:i1] = coords[:, i0:i1] @ m.T
            self._table = g.pack_coords(out).astype(g.index_dtype)
            self._table.setflags(write=False)
        return self._table

    def image(self) -> Subgroup:
        g = self.group
        gens = []
        for j in range(len(g.factors)):
            unit = tuple(1 if i == j else 0 for i in range(len(g.factors)))
            gens.append(self.apply(unit))
        return g.subgroup_generated(gens)

    def is_automorphism(self) -> bool:
        return len(self.image()) == self.group.order


def identity(group: AbelianGroup) -> Endomorphism:
    blocks = []
    for p, i0, i1 in group.prime_spans:
        k = i1 - i0
        blocks.append([[1 if i == j else 0 for j in range(k)] for i in range(k)])
    return Endomorphism(group, blocks)


def scalar_endo(group: AbelianGroup, c: int) -> Endomorphism:
    """Multiplication by the integer c."""
    blocks = []
    for p, i0, i1 in group.prime_spans:
        k = i1 - i0
        blocks.append([[c if i == j else 0 for j in range(k)] for i in range(k)])
    return Endomorphism(group, blocks)


def one_minus(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """The endomorphism x -> x - f(x) - g(x), computed blockwise."""
    if f.group != g.group:
        raise ValueError("endomorphisms live on different groups")
    grp = f.group
    blocks = []
    for (p, i0, i1), a, b in zip(grp.prime_spans, f.blocks, g.blocks):
        k = i1 - i0
        blocks.append(
            [
                [(1 if i == j else 0) - a[i][j] - b[i][j] for j in range(k)]
                for i in range(k)
            ]
        )
    return Endomorphism(grp, blocks)


def endo_from_gen_images(group: AbelianGroup, images: Sequence[GroupElement]) -> Endomorphism:
    """Build an endomorphism from the images of the canonical generators."""
    k = len(group.factors)
    if len(images) != k:
        raise ValueError(f"expected {k} generator images")
    blocks = []
    for p, i0, i1 in group.prime_spans:
        mat = []
        for i in range(i0, i1):
            row = []
            for j in range(i0, i1):
                row.append(images[j][i])
            mat.append(row)
        blocks.append(mat)
        # a p-component generator must map into the p-component
        for j in range(i0, i1):
            for i in range(k):
                if not i0 <= i < i1 and images[j][i]:
                    raise ValueError(
                        f"generator {j} maps across prime components (image {images[j]!r})"
                    )
    return Endomorphism(group, blocks)


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
# generating sets per prime component


def _primitive_root(p: int, e: int) -> int:
    m = p**e
    phi = m // p * (p - 1)
    factors = set()
    x = phi
    d = 2
    while d * d <= x:
        if x % d == 0:
            factors.add(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        factors.add(x)
    for g in range(2, m):
        if g % p == 0:
            continue
        if all(pow(g, phi // q, m) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root mod {m}")


def _unit_generators(p: int, e: int) -> list[int]:
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [3]
        return [2**e - 1, 5]
    return [_primitive_root(p, e)]


def _elementary_matrices(p: int, exps: Sequence[int]) -> list[list[list[int]]]:
    """Unit scalings and minimal transvections; together they generate."""
    k = len(exps)
    mats = []

    def eye():
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    for i in range(k):
        for u in _unit_generators(p, exps[i]):
            m = eye()
            m[i][i] = u
            mats.append(m)
    for i in range(k):
        for j in range(k):
            if i != j:
                m = eye()
                m[i][j] = p ** max(0, exps[i] - exps[j])
                mats.append(m)
    return mats


# ---------------------------------------------------------------------------
# automorphism group construction


def _image_codes(group: AbelianGroup) -> tuple[np.ndarray, int]:
    """Per-generator digit tables for the dense member key, and the key space.

    Generator i can only map to elements whose coordinate j is a multiple of
    p^max(0, e_j - e_i) modulo p^e_j (and 0 across primes), so its image is
    one of prod_j p^min(e_i, e_j) legal values.  codes[i, v] is generator
    i's share of the key when its image has element index v.  Generator 0 is
    least significant and, within a generator, the last coordinate is, so
    keys order members like their generator images do in element-index
    order.  An illegal image gets the code `space`, which pushes any key
    containing it out of range.
    """
    k = group.rank
    coords = group.coords_array
    codes = np.zeros((k, group.order), dtype=np.int64)
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
    return codes, weight


def _keys_of_images(codes: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Dense keys of (rows, rank) generator images; keys >= space are illegal."""
    keys = np.zeros(len(images), dtype=np.int64)
    for i in range(len(codes)):
        keys += codes[i][images[:, i]]
    return keys


def _generators(group: AbelianGroup) -> list[Endomorphism]:
    """Elementary matrices of each prime component, identity on the others."""
    eye = identity(group).blocks
    gens = []
    for c, (p, i0, i1) in enumerate(group.prime_spans):
        for m in _elementary_matrices(p, [e for _, e in group.factors[i0:i1]]):
            gens.append(Endomorphism(group, eye[:c] + (m,) + eye[c + 1 :]))
    return gens


def _tables_by_closure(gp: AbelianGroup, gen_tables: list[np.ndarray], expected: int) -> np.ndarray:
    """Grow the group from generator tables by breadth-first closure.

    Each round's new members are ordered by key, so a member's index does
    not depend on which generator reached it first.
    """
    gen_pos = np.asarray(gp._strides, dtype=np.int64)
    codes, space = _image_codes(gp)
    tables = np.empty((expected, gp.order), dtype=gp.index_dtype)
    tables[0] = identity(gp).table
    seen = np.zeros(space, dtype=bool)
    seen[_keys_of_images(codes, tables[:1, gen_pos])] = True
    lo, hi = 0, 1
    # with no generators (Aut(C2), the trivial group) the identity is all
    while lo < hi and gen_tables:
        frontier = tables[lo:hi]
        frontier_images = frontier[:, gen_pos]
        # one generator at a time keeps the transient arrays bounded; the
        # full rows are gathered only for the members not seen before
        round_rows, round_keys = [], []
        for g in gen_tables:
            keys = _keys_of_images(codes, g[frontier_images])
            fresh = ~seen[keys]
            keys = keys[fresh]
            seen[keys] = True
            round_rows.append(g[frontier[fresh]])
            round_keys.append(keys)
        keys = np.concatenate(round_keys)
        if hi + len(keys) > expected:
            raise AssertionError("closure overshot the predicted group order")
        order = np.argsort(keys)
        tables[hi : hi + len(keys)] = np.concatenate(round_rows, axis=0)[order]
        lo, hi = hi, hi + len(keys)
    if hi != expected:
        raise AssertionError(
            f"generating set incomplete for {gp.descriptor}: "
            f"closure size {hi} != |Aut| = {expected}"
        )
    return tables


class AutGroup:
    """The full automorphism group of a finite abelian group.

    Members are stored as an array of action tables (row m is the
    permutation of element indices induced by member m).  Member objects
    are materialized lazily; indices are the primary handle elsewhere.

    A member is fixed by the images of the canonical generators, so it is
    looked up by them alone: `images` holds the (members, rank) generator
    columns of the tables, each row maps to a dense mixed-radix key (see
    `_image_codes`), and `index` maps every key to its member index, or -1
    for a legal-looking image tuple that is no automorphism.  The key space
    is the number of legal matrices.  For every group of order up to
    256 whose |Aut| is within the default budget it is at most 12 times
    |Aut|, so the int32 index stays below 48 bytes per member: 2^25 entries
    (134 MB) for C2^5, 5^9 (8 MB) for C5^3.
    """

    def __init__(self, group: AbelianGroup, tables: np.ndarray):
        self.group = group
        self.tables = tables
        self.tables.setflags(write=False)
        self.gen_pos = np.asarray(group._strides, dtype=np.int64)
        self.images = tables[:, self.gen_pos]
        self.images.setflags(write=False)
        self._codes, space = _image_codes(group)
        keys = self.keys
        self.index = np.full(space, -1, dtype=np.int32)
        self.index[keys] = np.arange(len(tables), dtype=np.int32)
        if not np.array_equal(self.index[keys], np.arange(len(tables))):
            raise AssertionError("duplicate members in automorphism group")
        self.index.setflags(write=False)
        self.identity_index = self.index_of_table(identity(group).table)

    def __len__(self):
        return len(self.tables)

    def __repr__(self):
        return f"<AutGroup of {self.group.descriptor}, order {len(self)}>"

    @property
    def keys(self) -> np.ndarray:
        """Dense key of every member, in member order."""
        return _keys_of_images(self._codes, self.images)

    def lookup_images(self, images: np.ndarray) -> np.ndarray:
        """Member indices of (rows, rank) generator images; raises if any row is foreign."""
        keys = _keys_of_images(self._codes, images)
        if len(keys) and int(keys.max()) >= len(self.index):
            raise KeyError("some rows are not members of this automorphism group")
        out = self.index[keys]
        if len(out) and int(out.min()) < 0:
            raise KeyError("some rows are not members of this automorphism group")
        return out.astype(np.int64)

    def lookup_tables(self, tables: np.ndarray) -> np.ndarray:
        """Indices of many members at once; raises if any row is foreign."""
        return self.lookup_images(tables[:, self.gen_pos])

    def index_of_table(self, table: np.ndarray) -> int:
        try:
            return int(self.lookup_images(table[None, self.gen_pos])[0])
        except KeyError:
            raise KeyError("not a member of this automorphism group") from None

    def index_of(self, f: Endomorphism) -> int:
        if f.group != self.group:
            raise KeyError("endomorphism of a different group")
        return self.index_of_table(f.table)

    def __contains__(self, f):
        try:
            self.index_of(f)
            return True
        except KeyError:
            return False

    def member(self, i: int) -> Endomorphism:
        g = self.group
        row = self.tables[int(i)]
        images = [g.element_at(int(row[s])) for s in g._strides] if g.factors else []
        return endo_from_gen_images(g, images)

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

    The members are grown by breadth-first closure from the elementary
    matrices of every prime component (identity on the other primes).
    The closure must reach exactly the order given by the formula.  The
    group keeps no generating set of its own; the engine searches for a
    small one (`EngineContext.agens`).
    """
    expected = aut_group_order(group)
    if budget is not None and expected > budget:
        raise ResourceLimitError(group, expected, budget)
    tables = _tables_by_closure(group, [f.table for f in _generators(group)], expected)
    return AutGroup(group, tables)
