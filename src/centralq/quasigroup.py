"""Cayley tables of affine quasigroups, their laws, and isomorphism tests.

Tables index elements by the carrier group's element order, so rebuilding
a table from the same triple is reproducible bit for bit.  Two
isomorphism deciders are provided: the structural one that scans the
automorphism group (conjugate pairs plus a translated constant), and a
plain bijection search over the tables that serves as an independent
check at small orders.
"""

from __future__ import annotations

import numpy as np

from .abelian import AbelianGroup, GroupElement
from .endo import AutGroup, Endomorphism, aut_group, one_minus

BRUTE_FORCE_CAP = 8


class CayleyTable:
    """An n x n operation table over element indices 0..n-1."""

    def __init__(self, table):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("table must be square")
        if arr.size and (arr.min() < 0 or arr.max() >= arr.shape[0]):
            raise ValueError("entries must be element indices in [0, n)")
        self.n = arr.shape[0]
        self.table = arr
        self.table.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, CayleyTable) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        return f"CayleyTable({self.table.tolist()!r})"

    def to_text(self) -> str:
        """First line n, then n whitespace-separated rows."""
        lines = [str(self.n)]
        lines += [" ".join(str(int(v)) for v in row) for row in self.table]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CayleyTable":
        items = text.split()
        if not items:
            raise ValueError("empty table text")
        n = int(items[0])
        vals = [int(v) for v in items[1:]]
        if len(vals) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(vals)}")
        return cls(np.asarray(vals).reshape(n, n))


class AffineTriple:
    """A quasigroup presentation x*y = phi(x) + psi(y) + c over a group."""

    def __init__(self, group: AbelianGroup, phi: Endomorphism, psi: Endomorphism,
                 c: GroupElement):
        if phi.group != group or psi.group != group:
            raise ValueError("maps must live on the carrier group")
        if not (phi.is_automorphism() and psi.is_automorphism()):
            raise ValueError("both maps must be automorphisms")
        self.group = group
        self.phi = phi
        self.psi = psi
        self.c = group.reduce(c)

    @property
    def medial(self) -> bool:
        phi, psi = self.phi.table, self.psi.table
        return np.array_equal(phi[psi], psi[phi])

    def __eq__(self, other):
        return (
            isinstance(other, AffineTriple)
            and self.group == other.group
            and self.phi == other.phi
            and self.psi == other.psi
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.group, self.phi, self.psi, self.c))

    def __repr__(self):
        return (
            f"AffineTriple({self.group.descriptor}, phi={self.phi.block_lists()}, "
            f"psi={self.psi.block_lists()}, c={self.c})"
        )


def build_quasigroup(t: AffineTriple) -> CayleyTable:
    g = t.group
    add = np.asarray(g.add_table, dtype=np.int64)
    ci = g.index_of(t.c)
    rows = add[t.phi.table.astype(np.int64)]  # rows[x, e] = phi(x) + e
    cols = add[t.psi.table.astype(np.int64), ci]  # psi(y) + c
    return CayleyTable(rows[:, cols])


def is_latin(t: CayleyTable) -> bool:
    full = np.arange(t.n)
    return all(np.array_equal(np.sort(row), full) for row in t.table) and all(
        np.array_equal(np.sort(col), full) for col in t.table.T
    )


def is_medial(t: CayleyTable) -> bool:
    """Check (x*y)*(u*v) == (x*u)*(y*v) over all quadruples."""
    m = t.table
    for x in range(t.n):
        lhs = m[m[x][:, None, None], m[None, :, :]]  # (y,u,v): (x*y)*(u*v)
        rhs = m[m[x][None, :, None], m[:, None, :]]  # (y,u,v): (x*u)*(y*v)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _left_translation_signature(t: CayleyTable) -> list[tuple]:
    """Multiset invariant per element: cycle type of its left translation."""
    sigs = []
    for row in t.table:
        seen = np.zeros(t.n, dtype=bool)
        lens = []
        for start in range(t.n):
            if not seen[start]:
                cur, size = start, 0
                while not seen[cur]:
                    seen[cur] = True
                    cur = int(row[cur])
                    size += 1
                lens.append(size)
        sigs.append(tuple(sorted(lens)))
    return sigs


def brute_force_isomorphic(a: CayleyTable, b: CayleyTable, cap: int = BRUTE_FORCE_CAP) -> bool:
    """Search for a bijection s with s(a[i][j]) == b[s(i)][s(j)].

    Candidate images are pruned by the left-translation cycle structure
    before the backtracking descends; practical up to order `cap`.
    """
    if a.n != b.n:
        raise ValueError("tables have different orders")
    n = a.n
    if n > cap:
        raise ValueError(f"order {n} above the brute force cap {cap}")
    if not (is_latin(a) and is_latin(b)):
        raise ValueError("isomorphism search expects quasigroup tables")
    sig_a = _left_translation_signature(a)
    sig_b = _left_translation_signature(b)
    if sorted(sig_a) != sorted(sig_b):
        return False
    ta = [[int(v) for v in row] for row in a.table]
    tb = [[int(v) for v in row] for row in b.table]
    image = [-1] * n
    used = [False] * n

    def prune_ok(i):
        # constraints among already assigned elements; products not yet
        # assigned only need their forced target to still be available
        for j in range(i + 1):
            for x, y in ((i, j), (j, i)):
                p = ta[x][y]
                w = tb[image[x]][image[y]]
                if image[p] >= 0:
                    if image[p] != w:
                        return False
                elif used[w] or sig_a[p] != sig_b[w]:
                    return False
        return True

    def search(i):
        if i == n:
            return all(
                image[ta[x][y]] == tb[image[x]][image[y]]
                for x in range(n)
                for y in range(n)
            )
        for target in range(n):
            if used[target] or sig_a[i] != sig_b[target]:
                continue
            image[i] = target
            used[target] = True
            if prune_ok(i) and search(i + 1):
                return True
            image[i] = -1
            used[target] = False
        return False

    return search(0)


def is_isomorphic_affine(t1: AffineTriple, t2: AffineTriple,
                         aut: AutGroup | None = None) -> bool:
    """Decide isomorphism of two affine presentations over one carrier.

    True iff some automorphism gamma conjugates both maps of t1 onto t2's
    and carries c1 + U1 onto c2 + U2, U being the image of 1 - phi - psi.
    Every member is tested at once, one element x at a time over rows of
    Aut's element-major tables, so every temporary is |Aut| long: gamma
    conjugates f1 onto f2 iff gamma(f1(x)) == f2(gamma(x)) for every x, so
    no inverse is built.  Such a gamma maps U1 onto U2, so the coset test
    is c2 - gamma(c1) in U2.
    """
    if t1.group != t2.group:
        raise ValueError("triples live over different carrier groups")
    g = t1.group
    if aut is None:
        aut = aut_group(g)
    elif aut.group != g:
        raise ValueError("aut is the automorphism group of another carrier")
    by_element = aut.tables.T  # row x holds gamma(x) for every member gamma
    maps = [(t1.phi.table, t2.phi.table), (t1.psi.table, t2.psi.table)]
    in_u2 = np.zeros(g.order, dtype=bool)
    in_u2[one_minus(t2.phi, t2.psi).table] = True
    c2_minus = g.sub_table[g.index_of(t2.c)]  # c2 - y for every element y
    ok = in_u2[c2_minus[by_element[g.index_of(t1.c)]]]
    for x in range(g.order):
        for f1, f2 in maps:
            ok &= by_element[f1[x]] == f2.take(by_element[x])
    return bool(ok.any())
