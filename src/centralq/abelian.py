"""Finite abelian groups in primary decomposition form.

A group is a product of cyclic factors of prime power order, kept in a
canonical order so that the factor list doubles as an isomorphism
invariant.  Elements are tuples of residues, one per factor, and every
element also has a compact integer index (mixed radix, last coordinate
fastest) that the rest of the package uses for set membership and
array-based bulk work.

>>> G = make_group([(3, 1), (2, 2)])
>>> G.descriptor
'C4xC3'
>>> G.add((3, 1), (2, 2))
(1, 0)
>>> [g.descriptor for g in abelian_groups_of_order(4)]
['C4', 'C2xC2']
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import prod

import numpy as np

GroupElement = tuple  # tuple of ints, one residue per factor

_FACTOR_RE = re.compile(r"C(\d+)(?:\^(\d+))?$", re.IGNORECASE)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class AbelianGroup:
    """A finite abelian group as a canonical list of prime power cyclic factors.

    Factors are sorted ascending by prime and descending by exponent within
    each prime, so equal factor tuples mean isomorphic groups.  The trivial
    group is the empty factor list.
    """

    def __init__(self, factors):
        factors = [(int(p), int(e)) for p, e in factors]
        for p, e in factors:
            if not _is_prime(p):
                raise ValueError(f"factor C{p}^{e}: {p} is not prime")
            if e < 1:
                raise ValueError(f"factor C{p}^{e}: exponent must be >= 1")
        factors.sort(key=lambda pe: (pe[0], -pe[1]))
        self.factors = tuple(factors)
        self.moduli = tuple(p**e for p, e in self.factors)
        self.order = prod(self.moduli)
        # mixed-radix strides: last coordinate fastest
        strides = []
        s = 1
        for m in reversed(self.moduli):
            strides.append(s)
            s *= m
        self._strides = tuple(reversed(strides))

    def __repr__(self):
        return f"AbelianGroup({self.descriptor!r})"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    @property
    def descriptor(self) -> str:
        """Canonical text form, e.g. 'C4xC2xC3'; trivial group is 'C1'."""
        if not self.factors:
            return "C1"
        return "x".join(f"C{m}" for m in self.moduli)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def prime_spans(self) -> tuple[tuple[int, int, int], ...]:
        """(prime, first factor index, past-the-end index) per prime."""
        spans = []
        i = 0
        while i < len(self.factors):
            p = self.factors[i][0]
            j = i
            while j < len(self.factors) and self.factors[j][0] == p:
                j += 1
            spans.append((p, i, j))
            i = j
        return tuple(spans)

    # -- element arithmetic ------------------------------------------------

    def zero(self) -> GroupElement:
        return (0,) * len(self.factors)

    def _check(self, a) -> None:
        if len(a) != len(self.moduli):
            raise ValueError(
                f"element {a!r} has {len(a)} coordinates, group has {len(self.moduli)}"
            )

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))

    def reduce(self, a) -> GroupElement:
        self._check(a)
        return tuple(x % m for x, m in zip(a, self.moduli))

    # -- indexing ----------------------------------------------------------

    def elements(self):
        """All elements in index order (mixed radix, last coordinate fastest)."""
        return list(itertools.product(*[range(m) for m in self.moduli]))

    def index_of(self, a: GroupElement) -> int:
        self._check(a)
        return sum(x % m * s for x, m, s in zip(a, self.moduli, self._strides))

    def element_at(self, i: int) -> GroupElement:
        if not 0 <= i < self.order:
            raise IndexError(i)
        coords = []
        for m in reversed(self.moduli):
            coords.append(i % m)
            i //= m
        return tuple(reversed(coords))

    # -- bulk tables (shared by the orbit engine) --------------------------

    @property
    def index_dtype(self):
        if self.order <= 256:
            return np.uint8
        return np.uint16 if self.order <= 65536 else np.uint32

    @cached_property
    def coords_array(self) -> np.ndarray:
        """(order, rank) array: row i is element_at(i)."""
        n, k = self.order, len(self.moduli)
        out = np.zeros((n, k), dtype=np.int64)
        idx = np.arange(n)
        for j in range(k - 1, -1, -1):
            out[:, j] = idx % self.moduli[j]
            idx //= self.moduli[j]
        return out

    def pack_coords(self, coords: np.ndarray) -> np.ndarray:
        """Inverse of coords_array: (..., rank) coordinates -> element indices."""
        strides = np.asarray(self._strides, dtype=np.int64)
        if not len(self.factors):
            return np.zeros(coords.shape[:-1], dtype=np.int64)
        return (coords % np.asarray(self.moduli)) @ strides

    @cached_property
    def add_table(self) -> np.ndarray:
        c = self.coords_array
        s = self.pack_coords(c[:, None, :] + c[None, :, :])
        return s.astype(self.index_dtype)

    @cached_property
    def neg_table(self) -> np.ndarray:
        return self.pack_coords(-self.coords_array).astype(self.index_dtype)

    @cached_property
    def sub_table(self) -> np.ndarray:
        return self.add_table[:, self.neg_table]

    # -- subgroups and cosets ----------------------------------------------

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def subgroup_generated(self, gens) -> "Subgroup":
        idx = {0}
        add = self.add_table
        frontier = [0]
        gen_idx = [self.index_of(g) for g in gens]
        while frontier:
            nxt = []
            for i in frontier:
                for g in gen_idx:
                    j = int(add[i, g])
                    if j not in idx:
                        idx.add(j)
                        nxt.append(j)
            frontier = nxt
        return Subgroup(self, [self.element_at(i) for i in idx], _checked=True)

    def cosets(self, U: "Subgroup"):
        """Decompose the group modulo a subgroup.

        Returns (representatives, class_of): one representative per coset,
        each the index-minimal element of its coset, and a total map from
        every element to the representative of its coset.
        """
        if U.group != self:
            raise ValueError("subgroup belongs to a different group")
        add = self.add_table
        uidx = sorted(U.indices)
        canon = [-1] * self.order
        reps = []
        for i in range(self.order):
            if canon[i] < 0:
                reps.append(i)
                for u in uidx:
                    canon[int(add[i, u])] = i
        representatives = [self.element_at(i) for i in reps]
        class_of = {
            self.element_at(i): self.element_at(canon[i]) for i in range(self.order)
        }
        return representatives, class_of


class Subgroup:
    """A subgroup given by its element set; closure is checked on construction."""

    def __init__(self, group: AbelianGroup, elements, _checked=False):
        self.group = group
        elems = frozenset(group.reduce(e) for e in elements)
        self.elements = elems
        self.indices = frozenset(group.index_of(e) for e in elems)
        if not _checked:
            self._validate()

    def _validate(self):
        g = self.group
        if g.zero() not in self.elements:
            raise ValueError("subgroup must contain zero")
        for a in self.elements:
            if g.neg(a) not in self.elements:
                raise ValueError(f"subgroup not closed under negation at {a!r}")
            for b in self.elements:
                if g.add(a, b) not in self.elements:
                    raise ValueError(f"subgroup not closed under addition at {a!r}+{b!r}")
        if g.order % len(self.elements):
            raise ValueError("subgroup size does not divide group order")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return self.group.reduce(a) in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group, self.elements))

    def __repr__(self):
        return f"<Subgroup of {self.group.descriptor}, size {len(self)}>"


def make_group(factors) -> AbelianGroup:
    """Build a group from (prime, exponent) pairs; order does not matter."""
    return AbelianGroup(factors)


def trivial_group() -> AbelianGroup:
    return AbelianGroup([])


def cyclic_group(n: int) -> AbelianGroup:
    """The cyclic group of order n, in primary decomposition."""
    if n < 1:
        raise ValueError("order must be positive")
    return AbelianGroup(_factorize(n))


def parse_group(descriptor: str) -> AbelianGroup:
    """Parse 'C4xC2xC3' (case-insensitive, optional 'C2^3' powers) into a group.

    Cyclic factors of non-prime-power order split into their primary parts,
    so 'C12' and 'C4xC3' give the same group.

    >>> parse_group('c2^2 x C3').descriptor
    'C2xC2xC3'
    """
    text = descriptor.replace(" ", "").replace("\t", "").lower()
    if not text:
        raise ValueError("empty group descriptor")
    factors = []
    for part in text.split("x"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse factor {part!r} in {descriptor!r}")
        q = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) else 1
        if q == 0 or mult == 0:
            raise ValueError(
                f"factor {part!r} in {descriptor!r}: order and power must be at least 1"
            )
        if q == 1:
            continue
        factors.extend(_factorize(q) * mult)
    return AbelianGroup(factors)


def direct_product(g: AbelianGroup, h: AbelianGroup) -> AbelianGroup:
    return AbelianGroup(g.factors + h.factors)


def _partitions(k: int):
    """Partitions of k as descending tuples, in reverse-lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups_of_order(n: int) -> list[AbelianGroup]:
    """All abelian groups of order n up to isomorphism, one per class.

    One group per choice of a partition of the multiplicity of each prime
    in n; deterministic order (partitions taken largest-part-first).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [trivial_group()]
    per_prime = []
    for p, k in _factorize(n):
        per_prime.append([(p, part) for part in _partitions(k)])
    groups = []
    for combo in itertools.product(*per_prime):
        factors = []
        for p, part in combo:
            factors.extend((p, e) for e in part)
        groups.append(AbelianGroup(factors))
    return groups
