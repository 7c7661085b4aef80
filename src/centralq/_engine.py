"""Array-based orbit machinery behind the per-group enumeration.

Everything here works on integer indices: group elements are element
indices, automorphisms are member indices into an AutGroup's image array,
and orbit partitions are computed over permutation arrays.  Aut(G)'s
conjugacy classes, few and large, are swept breadth-first one class at a
time along the forward conjugation permutations (_sweep_labels); the
actions with many small orbits (a centralizer's classes, orbits on G, the
pair space) use min-label propagation with pointer jumping
(_orbit_min_labels).  Both stay fast for member counts in the millions.

The central count is the number of orbits of C(f) on the pairs
(member psi, coset of Im(1 - f - psi)), summed over the conjugacy
representatives f; restricting psi to C(f) gives the medial count.
count_class gets these by Cauchy-Frobenius without building the pairs:
the orbit counts are averages of fixed-point counts, and regrouped over
orbits of commuting pairs (h, f) every term is one pass over G (central)
plus one subgroup join chain per member of C(f) ∩ C(h) (medial), kept as
exact numerators over |Aut|.  When f is alone in its class of C(h),
C(f) ∩ C(h) = C(h) and the medial term is the central one, with no
joins.  For a central h, C(f) ∩ C(h) = C(f): enumerate_counts fills
those terms from f's own classes once every class has run.  A
representative z in the centre of C(h) whose Aut-wide class has h's size
has C(z) = C(h), and count_class returns its terms with h's: as
enumerate_counts never has two classes of one Aut-wide size in flight,
each distinct centralizer is computed once, at any job count.  A proper
C(h) is worked in its own sorted member list: its generators are found
by a local search (right multiplication by a candidate is a permutation
of local positions, and the subgroup generated so far grows by doubling
along the new one and a breadth-first sweep of all of them), its classes
by conjugation restricted to those positions, and C(f) ∩ C(h) for a run
of terms f by one array pass over the cosets of C(h)'s centre Z.  Z lies
in every C(f) ∩ C(h), which is therefore a union of cosets of Z, so the
commuting test (_commuting) that scans Aut(G) for C(f) runs on one
member per coset (_centre_cosets).  Member indices become local
positions through one N-entry map per context, read back against the
list.  Aut(G) itself needs no search: agens is the generating set its
closure grew from (AutGroup.gens).  conj_perm is the same conjugation
over all of Aut(G)'s members, whose values it evaluates from the
generator images: the Aut-wide stages (conjugation, class labels) never
build the N x n action tables, which the per-class routes read and
enumerate_counts builds once, before a pool forks.  The tables are
element-major, so a centralizer scan reads one contiguous row of all
members' values per element, and a member list's values (its "cols", row
x holding m(x) for every member m) are one row gather.

process_class builds the pair space of one representative and labels its
orbits; it serves the explicit classification, which needs one point per
orbit, and is the second route the tests compare the counts with.  Both
per-class routes get C(f) from one helper (_centralizer: the scanned
member list, its cols and its generators), and both results give cq and
mq as numerators over |Aut|.

The image of x - f(x) - m(x) is a homomorphic image, so it is spanned by
the values on the rank canonical generators, read from the members'
generator columns.  A per-group SubgroupRegistry is the only place
subgroups are identified: it closes the group's subgroup lattice once,
when an enumeration starts, numbering every subgroup with its cosets and
a complete join table join[s, x] = id of S + <x>, so that a join is one
gather; the Aut-wide stages never build it.  A subgroup is named only by
a span: every image subgroup is a span of rank values
from the trivial subgroup (or from Im(h - 1) in count_class), and so is
its image h(S) under a member h, which process_class checks against the
member permutation.  The class loop reads cosets by registry id, and no
step builds a member x element array.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import random
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abelian import AbelianGroup
from .endo import AutGroup

log = logging.getLogger(__name__)

# bumped whenever a change could alter computed counts; cached reports
# written by another engine version are ignored
ENGINE_VERSION = 4

_CHUNK_ROWS = 1 << 19
# most psi rows in one run of medial terms: the registry gathers copy their
# index arrays to intp, so joining every term of a large C(h) at once costs
# memory; a single larger term is a run of its own
_MEDIAL_ROWS = 1 << 16
_MAX_GENERATOR_TRIES = 64
# members per pass of _member_products: its int64 keys then stay in cache
# (three conjugations on Aut(C2^5): 2.4-2.6 s at 2^16 rows, 2.8-2.9 s at 2^19)
_PRODUCT_ROWS = 1 << 16
# first window of _sweep_labels' scan for the next unlabelled point
_LABEL_WINDOW = 1 << 8


def _take2(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[rows, cols] for a C-contiguous 2-D table, as one flat take.

    rows and cols broadcast against each other as in fancy indexing.  On
    10^4 to 10^6 uint8 or int32 index pairs the take is 1.7-2.8x faster
    than table[rows, cols] (Xeon, numpy 2.4), and about even on 100.
    """
    return table.ravel().take(np.multiply(rows, table.shape[1], dtype=np.intp) + cols)


def _inverse_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def _positions(
    members: np.ndarray, pos_map: np.ndarray, glob: np.ndarray, what: str
) -> np.ndarray:
    """Positions in members of the member indices glob, read from a position_map.

    Stale map entries are caught by reading the members back: a member
    index outside the list raises.
    """
    pos = pos_map.take(glob)
    if (members.take(pos, mode="clip") != glob).any():
        raise AssertionError(f"{what}; inputs inconsistent")
    return pos


def _orbit_min_labels(gens: list[np.ndarray], count: int) -> np.ndarray:
    """Label every point with the minimal point of its orbit.

    gens are permutations of range(count) generating the action.  Each
    round pulls labels along every generator and its inverse, then jumps
    pointers twice.  Pulling along the generators alone reaches the same
    labels, but only one step per round against their direction: on a
    single cycle numbered in increasing order along its generator that is
    one round per point (200 000 rounds for 200 000 points, against 10
    with the inverses), so the inverses stay.  Its callers are actions
    with many small orbits: a centralizer's classes (_local_class_labels),
    the cosets of its centre (_centre_cosets), C(h)'s orbits on G
    (count_class) and the pair space (process_class).
    Aut(G)'s classes are swept instead (conjugacy_class_labels).
    """
    dtype = np.int32 if count <= np.iinfo(np.int32).max else np.int64
    labels = np.arange(count, dtype=dtype)
    if not gens or count == 0:
        return labels
    perms = [q for p in gens for q in (p, _inverse_perm(p))]
    while True:
        prev = labels.copy()
        for p in perms:
            np.minimum(labels, labels[p], out=labels)
        labels = labels[labels]
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def _sweep(perms: list[np.ndarray], frontier, marks: np.ndarray, value) -> None:
    """Set marks to value at every point reachable from frontier along perms.

    A breadth-first sweep along the permutations only, not their inverses:
    an inverse is a power, so the forward closure is the whole orbit.  The
    frontier's points must already hold value.  Each level takes every
    permutation in turn and marks its new points before the next one
    runs, so a frontier never repeats a point and needs no dedup.
    take/compress/put: a frontier is often a few points, where they cost
    about two thirds of the indexing calls.
    """
    while len(frontier):
        new = []
        for p in perms:
            idx = p.take(frontier)
            idx = idx.compress(marks.take(idx) != value)
            marks.put(idx, value)
            new.append(idx)
        frontier = np.concatenate(new)


def _sweep_labels(perms: list[np.ndarray], count: int) -> np.ndarray:
    """_orbit_min_labels' labels by one breadth-first sweep per orbit.

    Each sweep starts from the smallest point not yet labelled and marks
    its orbit with it (_sweep), so orbits are labelled in increasing order
    of their smallest point.  The next start is found by scanning forward
    from the last in doubling windows: O(count) in all, plus a short
    window per orbit.  A sweep pays one level per breadth-first step, so
    this suits few large orbits (Aut(G)'s classes), not many small ones.
    perms must not be empty.
    """
    dtype = np.int32 if count <= np.iinfo(np.int32).max else np.int64
    labels = np.full(count, -1, dtype=dtype)
    r = 0
    while r < count:
        labels[r] = r
        _sweep(perms, [r], labels, r)
        window = _LABEL_WINDOW
        while r < count:
            free = np.flatnonzero(labels[r : r + window] < 0)
            if len(free):
                r += int(free[0])
                break
            r += window
            window *= 2
    return labels


def _roots(labels: np.ndarray) -> np.ndarray:
    """The points that are their own label: one per orbit, ascending."""
    return np.flatnonzero(labels == np.arange(len(labels), dtype=labels.dtype))


def _commuting(ft: np.ndarray, gp: np.ndarray, img: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(terms, members) mask of f m == m f, compared on the canonical generators.

    ft holds the terms' tables (row i: f_i(y) for every y) and cols the
    members' values (row y: m(y) for every member m).  img is cols[gp],
    passed apart so that the scan reads it from the generator images and
    the medial pass holds it as intp (a take casts narrower indices on
    every call).  Per generator g, f(m(g)) and m(f(g)) are one gather each.
    """
    out = np.ones((len(ft), cols.shape[1]), dtype=bool)
    for i, x in enumerate(gp.tolist()):
        out &= ft.take(img[i], axis=1) == cols[ft[:, x]]
    return out


def _member_products(
    ctx: EngineContext, cols: np.ndarray | None, g: int, conjugate=False
) -> np.ndarray:
    """Member indices of m g, or of g m g^-1 if conjugate, for every m of a member list.

    cols is the list's values, row x holding m(x) for every member m (a row
    gather of the element-major tables), or None for the whole group,
    whose values are evaluated from the generator images instead, so the
    N x n tables are never read.  A C(h) list keeps its cols: evaluating
    those from the images too cost the fixture sweep about 11 % of its
    wall time.  Each product is looked up by its generator images.
    """
    # m g's images are m's values at g's images; only a conjugation needs g's table
    gtab = ctx.aut.member_table(g) if conjugate else None
    right = _inverse_perm(gtab)[ctx.gen_pos] if conjugate else ctx.images[g]
    out = np.empty(ctx.N if cols is None else cols.shape[1], dtype=np.int64)
    for lo in range(0, len(out), _PRODUCT_ROWS):
        hi = min(lo + _PRODUCT_ROWS, len(out))
        img = ctx.aut.evaluate(right, lo, hi) if cols is None else cols[right, lo:hi]
        out[lo:hi] = ctx.aut.lookup_images((gtab[img] if conjugate else img).T)
    return out


class SubgroupRegistry:
    """Every subgroup of a group, numbered: the one owner of subgroup identity.

    The constructor closes the subgroup lattice.  Starting from the trivial
    subgroup, each level joins every subgroup that the level before it
    found with one element per coset (S + <x> depends only on x + S), by
    doubling over all of the level's rows at once; a packed element mask
    keeps a subgroup from being numbered twice.  A level that finds no new
    subgroup ends the build, and every subgroup has been found by then: it
    is a span of its own elements.  Subgroup ids are dense; id 0 is the
    trivial subgroup, and the rest of the engine names a subgroup by its id
    alone.  Per subgroup the registry stores a `cidx` row mapping every
    element to the ordinal of its coset (cosets ordered by their smallest
    element, so the subgroup itself is coset 0: its elements are where
    `cidx == 0`), the coset count, and the ascending coset representatives,
    padded to n.  `join_table[s, x]` is the id of S + <x>.  Subgroups are
    named only by spans (`join`, `span`).
    """

    def __init__(self, group: AbelianGroup):
        n, add = group.order, np.asarray(group.add_table)
        # contiguous, so that _take2's ravel is a view: sub_table is a column gather
        self.sub = np.ascontiguousarray(group.sub_table)
        ids: dict[bytes, int] = {}
        cidx: list[np.ndarray] = []
        reps: list[np.ndarray] = []
        joins: list[np.ndarray] = []  # per subgroup: the id of S + <x> per coset x + S

        def number(mask: np.ndarray) -> int:
            key = np.packbits(mask).tobytes()
            if key not in ids:
                ids[key] = len(cidx)
                canon = add[:, np.flatnonzero(mask)].min(axis=1)  # smallest element of each coset
                reps.append(np.flatnonzero(canon == np.arange(n)))
                ordinal = np.empty(n, dtype=np.int64)
                ordinal[reps[-1]] = np.arange(len(reps[-1]))
                cidx.append(ordinal[canon])
            return ids[key]

        level = [number(np.arange(n) == 0)]
        while level:
            found = len(cidx)
            rows = [len(reps[s]) for s in level]
            masks = np.repeat(np.stack([cidx[s] == 0 for s in level]), rows, axis=0)
            # S + <x> by doubling: after k rounds a row holds S + {0..2^k - 1}x,
            # and once adding y = 2^k x changes nothing the row is a subgroup
            y = np.concatenate([reps[s] for s in level])
            while True:
                grown = masks | _take2(masks, np.arange(len(y))[:, None], self.sub[:, y].T)
                if np.array_equal(grown, masks):
                    break
                masks = grown
                y = add[y, y]
            joins += np.split(np.array([number(m) for m in masks]), np.cumsum(rows)[:-1])
            level = range(found, len(cidx))

        self.cidx = np.stack(cidx)
        self.counts = np.array([len(r) for r in reps], dtype=np.int64)
        self.reps = np.zeros((len(reps), n), dtype=group.index_dtype)
        for row, r in zip(self.reps, reps):
            row[: len(r)] = r
        starts = np.cumsum(self.counts) - self.counts
        self.join_table = np.concatenate(joins).astype(np.int32)[starts[:, None] + self.cidx]

    def __len__(self):
        return len(self.counts)

    def join(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ids of S + <x> for parallel arrays of subgroup ids and elements."""
        return _take2(self.join_table, s, x)

    def span(self, s: np.ndarray, xs) -> np.ndarray:
        """Ids of S + <x, x', ...>: each element array of xs joined into s in turn."""
        for x in xs:
            s = self.join(s, x)
        return s


class EngineContext:
    """Shared state for one group's enumeration.

    The subgroup lattice and Aut(G)'s class labels are built on first read
    and never change after; only the position map is rewritten, per list.
    """

    def __init__(self, group: AbelianGroup, aut: AutGroup):
        self.group = group
        self.aut = aut
        self.N = len(aut)
        self.images = aut.images
        self.gen_pos = aut.gen_pos
        self.seed_base = f"enumeration:{group.descriptor}"

    # -- member-space primitives -------------------------------------------

    def conj_perm(self, h: int) -> np.ndarray:
        """Member permutation m -> h m h^-1, found from generator images alone."""
        return _member_products(self, None, h, conjugate=True)

    def closure_mask(self, gens: list[int]) -> tuple[np.ndarray, int]:
        """Members generated by gens, as a mask over member indices (the tests' reference)."""
        tab, images = self.aut.tables, self.images
        mask = np.zeros(self.N, dtype=bool)
        ident = self.aut.identity_index
        mask[ident] = True
        frontier = np.asarray([ident], dtype=np.int64)
        size = 1
        gen_tabs = [tab[g] for g in gens]
        while len(frontier):
            rows = images[frontier]
            new = []
            # distinct frontier members give distinct products per generator,
            # and marking them before the next generator keeps rounds disjoint
            for gt in gen_tabs:
                idx = self.aut.lookup_images(gt[rows])
                idx = idx[~mask[idx]]
                mask[idx] = True
                size += len(idx)
                new.append(idx)
            frontier = np.concatenate(new) if new else np.empty(0, np.int64)
        return mask, size

    def find_generators(
        self, members: np.ndarray, cols: np.ndarray, seed: str, positions=slice(None)
    ) -> tuple[list[int], list[np.ndarray]]:
        """Generators of a subgroup of a proper subgroup's member list, and their permutations.

        members is the sorted member-index list, cols their values (row x
        holds m(x) for every member m) and positions, ascending, the
        subgroup's positions in it (default: all).  Random members outside
        the subgroup S generated so far are added until S is all of it;
        each addition at least doubles S, so 64 tries cover any group.
        Right multiplication by a drawn g is computed once, as a permutation
        q of members' positions (m -> m g, read through position_map and
        checked), and returned with g.  S grows to S<g> by doubling
        (S <- S ∪ S q, q <- q q), then by a breadth-first sweep of all the
        permutations.  Aut(G) itself is never searched: its generators are agens.
        """
        pos_map = self.position_map(members)
        rng = random.Random(f"{self.seed_base}:{seed}")
        gens: list[int] = []
        perms: list[np.ndarray] = []
        pool = members[positions]
        inside = members == self.aut.identity_index
        while not inside[positions].all():
            if len(gens) == _MAX_GENERATOR_TRIES:
                raise AssertionError(f"could not generate subgroup of size {len(pool)}")
            outside = pool[~inside[positions]]
            gens.append(int(outside[rng.randrange(len(outside))]))
            pos = _member_products(self, cols, gens[-1])
            pos = _positions(members, pos_map, pos, "closure left the subgroup")
            perms.append(pos.astype(np.int32, copy=False))
            # S<g> = S {1, g, ..., g^(2^k - 1)} once S g^(2^k) adds nothing
            q = perms[-1]
            while True:
                idx = q.compress(inside)
                idx = idx.compress(~inside.take(idx))
                if not len(idx):
                    break
                inside.put(idx, True)
                q = q.take(q)
            _sweep(perms, np.flatnonzero(inside), inside, True)
        return gens or [self.aut.identity_index], perms

    @property
    def agens(self) -> list[int]:
        """A small generating set for the whole automorphism group.

        The members Aut(G)'s closure grew from (AutGroup.gens): the closure
        reached |Aut|, so they generate it, and no search is made.
        """
        return self.aut.gens

    def position_map(self, members: np.ndarray) -> np.ndarray:
        """N-entry int32 map from member index to position in a member list.

        One array per context, written at members on every call: entries
        outside members are stale, so each read is checked (_positions).
        """
        self._position_map[members] = np.arange(len(members), dtype=np.int32)
        return self._position_map

    @cached_property
    def _position_map(self) -> np.ndarray:
        return np.empty(self.N, dtype=np.int32)

    def centralizer_mask(self, f: int) -> np.ndarray:
        """Members m with f m == m f, by _commuting over every member.

        The members go _CHUNK_ROWS at a time: their generator images and a
        column block of the element-major tables.T, both with contiguous rows.
        """
        by_element, ft, gp = self.aut.tables.T, self.aut.member_table(f)[None], self.gen_pos
        out = np.empty(self.N, dtype=bool)
        for lo in range(0, self.N, _CHUNK_ROWS):
            block = slice(lo, lo + _CHUNK_ROWS)
            out[block] = _commuting(ft, gp, self.images[block].T, by_element[:, block])
        return out

    def centralizer_members(self, f: int) -> np.ndarray:
        """Sorted member indices of C(f), scanned on every call."""
        return np.flatnonzero(self.centralizer_mask(f)).astype(np.int32)

    def conjugacy_class_labels(self) -> np.ndarray:
        """Label every member with the smallest member of its conjugacy class.

        The classes are the orbits of conjugation by agens, labelled by
        one breadth-first sweep each (_sweep_labels), which gives the
        labels of _orbit_min_labels: the permutations' inverses are never
        built, and no round re-reads all N members until the labels settle.
        """
        return _sweep_labels([self.conj_perm(g) for g in self.agens], self.N)

    @cached_property
    def class_labels(self) -> np.ndarray:
        """Conjugacy class labels of Aut(G), computed once."""
        return self.conjugacy_class_labels()

    @cached_property
    def class_sizes(self) -> dict[int, int]:
        """Aut-wide class size per conjugacy representative, representatives ascending."""
        reps = _roots(self.class_labels)
        return dict(zip(reps.tolist(), np.bincount(self.class_labels)[reps].tolist()))

    @cached_property
    def subgroups(self) -> SubgroupRegistry:
        """The group's subgroup lattice, built once; the Aut-wide stages never read it."""
        return SubgroupRegistry(self.group)


# ---------------------------------------------------------------------------
# per-representative processing


@dataclass
class ClassResult:
    rep: int
    centralizer_order: int
    pair_orbits: int
    commuting_pair_orbits: int
    cq: int
    mq: int
    # classification data: member index, coset rep element, medial flag
    triples: list[tuple[int, int, bool]]

    def numerators(self, order: int) -> tuple[int, int]:
        """cq and mq as numerators over order, as ClassTerms gives them."""
        return self.cq * order, self.mq * order


def _spanning_values(ctx: EngineContext, f: int, ms) -> np.ndarray:
    """(rows, rank) values g - f(g) - m(g) on the canonical generators g, per member m of ms.

    x - f(x) - m(x) is a homomorphism, so these rank values span its image.
    """
    reg = ctx.subgroups
    d1 = _take2(reg.sub, ctx.gen_pos, ctx.images[f])  # g - f(g) per canonical generator g
    return _take2(reg.sub, d1, ctx.images[ms])


def _images_minus_one(ctx: EngineContext, zs) -> np.ndarray:
    """Registry ids of T = Im(z - 1) for each z in zs, spanned by the (z - 1)g."""
    reg = ctx.subgroups
    return reg.span(np.zeros(len(zs), dtype=np.int32), _take2(reg.sub, ctx.images[zs], ctx.gen_pos).T)


def _coset_data(ctx: EngineContext, f: int) -> np.ndarray:
    """Registry id of the image subgroup of x - f(x) - m(x), for every member m.

    Every member's image is the registry's span of its spanning values
    from the trivial subgroup: rank gathers over the members and no
    member x element array.  The cosets of each subgroup are read from
    the registry by id.
    """
    t = _spanning_values(ctx, f, slice(None))  # (N, rank)
    return ctx.subgroups.span(np.zeros(ctx.N, dtype=np.int32), t.T)


def _centralizer(ctx: EngineContext, f: int) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """C(f) for a per-class route: members, their values and generators.

    members is C(f)'s sorted member list and cols their values, row x
    holding m(x) for every member m: the row gather tables.T[:, members] of
    the element-major tables.  A class of size 1 says C(f) is all of Aut:
    no scan is made, the generators are agens, and cols is None, the values
    being evaluated from the generator images (see _member_products).
    """
    if ctx.class_sizes[f] == 1:
        return np.arange(ctx.N, dtype=np.int32), None, ctx.agens
    members = ctx.centralizer_members(f)
    if ctx.N % len(members):
        raise AssertionError("centralizer size does not divide the group order")
    cols = ctx.aut.tables.T[:, members]
    return members, cols, ctx.find_generators(members, cols, f"class {f}")[0]


def process_class(ctx: EngineContext, f: int) -> ClassResult:
    """All counts contributed by one conjugacy representative f, from its pair space.

    Also one (member, coset representative, medial) triple per orbit: the
    explicit classification, and the second route the tests compare
    count_class with.
    """
    N = ctx.N
    reg = ctx.subgroups
    members, _, cgens = _centralizer(ctx, f)

    mperms = [ctx.conj_perm(h) for h in cgens]
    # every generator must fix f's conjugacy behaviour: h f h^-1 == f
    for p in mperms:
        if p[f] != f:
            raise AssertionError("generator does not centralize the representative")

    # pair space: (member m, coset of Im(x - f(x) - m(x))), numbered member
    # by member as base[m] + j
    s = _coset_data(ctx, f)
    cnt_m = reg.counts[s]
    base = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(cnt_m, out=base[1:])
    total = int(base[N])
    pt_dtype = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    m_of_point = np.repeat(np.arange(N, dtype=pt_dtype), cnt_m)
    j_of_point = np.arange(total, dtype=np.int64) - base[m_of_point]
    r_of_point = _take2(reg.reps, s[m_of_point], j_of_point)
    del j_of_point
    # h(S) for each image subgroup S: the span of h's values at the spanning
    # values of one member that carries S.  A member h m h^-1 has image h(S),
    # so s[mp] must read the same id; an h(S) that no member carries fails too.
    family, carriers, of_member = np.unique(s, return_index=True, return_inverse=True)
    spanning = _spanning_values(ctx, f, carriers)

    pperms = []
    for h, mp in zip(cgens, mperms):
        htab = ctx.aut.tables[h]
        moved = reg.span(np.zeros(len(family), dtype=np.int32), htab[spanning].T)
        s2 = s[mp]
        if not np.array_equal(s2, moved[of_member]):
            raise RuntimeError(
                "internal invariant violated: conjugation moved an image subgroup "
                "inconsistently with the member permutation"
            )
        m2 = mp[m_of_point]
        r2 = htab[r_of_point]
        j2 = _take2(reg.cidx, s2[m_of_point], r2)
        pperms.append((base[m2] + j2).astype(pt_dtype))
        del m2, r2, j2
    del mperms

    labels = _orbit_min_labels(pperms, total)
    del pperms
    root_idx = _roots(labels)
    cq = len(root_idx)
    root_members = m_of_point[root_idx].astype(np.int64)
    medial_mask = np.isin(root_members, members)
    mq = int(np.count_nonzero(medial_mask))
    # a pair orbit covers the C(f)-orbit of its members, every member has a
    # coset, and points grow with m, so each orbit's root lies over the
    # smallest member of that C(f)-orbit: the distinct root members are
    # exactly the C(f)-orbits of members (membership in C(f) is C(f)-invariant)
    orbit_members = np.unique(root_members)
    pair_orbits = len(orbit_members)
    commuting_pair_orbits = int(np.count_nonzero(np.isin(orbit_members, members)))

    triples = [
        (int(m), int(r), bool(md))
        for m, r, md in zip(root_members, r_of_point[root_idx], medial_mask)
    ]
    return ClassResult(
        rep=f,
        centralizer_order=len(members),
        pair_orbits=pair_orbits,
        commuting_pair_orbits=commuting_pair_orbits,
        cq=cq,
        mq=mq,
        triples=triples,
    )


@dataclass
class ClassTerms:
    """The Cauchy-Frobenius terms of one conjugacy representative h.

    Term i stands for the Aut-orbit of commuting pairs (h, reps[i]), where
    reps runs over the conjugacy class representatives f of C(h), and
    class_sizes[i] is the size of f's class in C(h).  fixed[i] counts the
    pairs (psi, coset of Im(1 - f - psi)) that h fixes, and medial_fixed[i]
    those with psi in C(f).  For a central h, medial_fixed[i] of a class of
    size above 1 is a count only once enumerate_counts has filled it.
    """

    rep: int
    centralizer_order: int
    reps: list[int]
    class_sizes: list[int]
    fixed: list[int]
    medial_fixed: list[int]

    @property
    def pair_orbits(self) -> int:
        return sum(self.class_sizes)

    @property
    def commuting_pair_orbits(self) -> int:
        return len(self.reps)

    def numerators(self, order: int) -> tuple[int, int]:
        """Sums of fixed and medial_fixed over |C(f) ∩ C(h)|, as numerators over order."""
        # |C(f) ∩ C(h)| = |C(h)| / class size and |C(h)| divides order = |Aut|,
        # so each share order / |C(f) ∩ C(h)| is (order / |C(h)|) * class size
        scale = order // self.centralizer_order
        return (
            scale * sum(x * k for x, k in zip(self.fixed, self.class_sizes)),
            scale * sum(x * k for x, k in zip(self.medial_fixed, self.class_sizes)),
        )


def _local_class_labels(
    ctx: EngineContext, h: int, members: np.ndarray, cols_c: np.ndarray, cgens: list[int]
) -> np.ndarray:
    """Conjugacy class labels of C(h), over positions in its member list.

    members is C(h) as sorted member indices and cols_c their values (row
    x holds m(x) for every member m); conjugation by each generator,
    g m g^-1, is found from generator images as in conj_perm, over these
    members only, as a permutation of local positions read through
    position_map.  A conjugate outside members raises.
    """
    pos_map = ctx.position_map(members)
    h_pos = int(np.searchsorted(members, h))
    perms = []
    for g in cgens:
        glob = _member_products(ctx, cols_c, g, conjugate=True)
        # every generator must fix h's position: g h g^-1 == h, and then
        # conjugation by g maps C(h) onto itself
        if glob[h_pos] != h:
            raise AssertionError("generator does not centralize the representative")
        pos = _positions(members, pos_map, glob, "conjugation left the centralizer")
        perms.append(pos.astype(np.intp))  # the labels gather through them every round
    return _orbit_min_labels(perms, len(members))


def _term_chunks(rows: np.ndarray, width: int):
    """Runs [a, b) of consecutive terms with at most _MEDIAL_ROWS rows in all
    and at most _CHUNK_ROWS // width terms, width being the cosets of C(h)'s
    centre that a run's commuting test reads; a larger term is a run of its own."""
    ends = np.cumsum(rows)
    a = 0
    while a < len(rows):
        base = int(ends[a - 1]) if a else 0
        b = int(np.searchsorted(ends, base + _MEDIAL_ROWS, side="right"))
        b = max(a + 1, min(b, a + _CHUNK_ROWS // width))
        yield a, b
        a = b


def _centre_cosets(
    ctx: EngineContext, h: int, members: np.ndarray, cols_c: np.ndarray, zpos: np.ndarray
) -> np.ndarray:
    """C(h)'s positions by coset of its centre Z: one row per coset, its smallest position first.

    members is a proper C(h) as sorted member indices, cols_c their values
    and zpos the positions of Z, C(h)'s singleton classes.  The local search
    for Z's generators gives right multiplication by each as a permutation
    of C(h)'s positions (m -> m z): the cosets mZ are their orbits.
    """
    perms = ctx.find_generators(members, cols_c, f"centre {h}", zpos)[1]
    # intp: the labels gather through them every round
    labels = _orbit_min_labels([p.astype(np.intp) for p in perms], len(members))
    cosets = len(_roots(labels))
    if cosets * len(zpos) != len(members):
        raise AssertionError("cosets of the centre do not tile the centralizer")
    return np.argsort(labels, kind="stable").astype(np.int32).reshape(cosets, len(zpos))


def _medial_fixed(
    ctx: EngineContext,
    ts: np.ndarray,
    fs: np.ndarray,
    ftabs: np.ndarray,
    d: np.ndarray,
    sizes: np.ndarray,
    cols_c: np.ndarray,
    blocks: np.ndarray,
) -> np.ndarray:
    """Sum of [G : S + T] over psi in C(f) ∩ C(h), S = Im(1 - f - psi), per T and term f.

    h is not central.  fs are the terms' representatives, with count_class's
    rows for them: ftabs their tables and d the values g - f(g) on the
    canonical generators.  sizes are their class sizes in C(h) and ts the
    registry ids of T = Im(z - 1), one per class z that shares C(h): the
    rows (len(ts), len(fs)) of the result.  cols_c holds C(h)'s values and
    blocks its positions by coset of its centre Z (_centre_cosets).  f lies
    in C(h), so Z lies in C(f) ∩ C(h), a union of cosets of Z: one
    _commuting call tests a run of terms against the cosets' first members,
    and every member of a surviving coset is a psi.  Each run's join rows
    (g - f(g) - psi(g), one row per pair (f, psi), at most |C(h)| for a lone
    term) are spanned from each T in turn, and the coset counts are summed
    per term.
    """
    reg, gp = ctx.subgroups, ctx.gen_pos
    c_size = cols_c.shape[1]
    img = cols_c[gp]  # (rank, |C(h)|): psi(g)
    root_cols = cols_c[:, blocks[:, 0]]
    root_img = root_cols[gp].astype(np.intp)  # a take casts narrower indices on every call
    out = np.zeros((len(ts), len(fs)), dtype=np.int64)
    for a, b in _term_chunks(c_size // sizes, len(blocks)):
        commuting = _commuting(ftabs[a:b], gp, root_img, root_cols)
        found = np.count_nonzero(commuting, axis=1) * blocks.shape[1]
        # |C(f) ∩ C(h)| scanned must match |C(h)| / |class of f|
        if (found * sizes[a:b] != c_size).any():
            raise AssertionError("the scanned centralizer disagrees with the class size")
        psi = img[:, blocks[np.nonzero(commuting)[1]].ravel()]
        dt = np.repeat(d[a:b], found, axis=0)
        joined = [_take2(reg.sub, dt[:, i], psi[i]) for i in range(len(gp))]
        starts = np.concatenate([[0], np.cumsum(found[:-1])])
        for row, t in zip(out, ts.tolist()):
            s = reg.span(np.full(psi.shape[1], t, dtype=np.int32), joined)
            row[a:b] = np.add.reduceat(reg.counts[s], starts, dtype=np.int64)
    return out


def count_class(ctx: EngineContext, h: int) -> list[ClassTerms]:
    """The cq and mq terms of h and of every conjugacy representative that shares C(h).

    Burnside's lemma counts the orbits of C(f) on the pairs
    (psi, coset of S = Im(1 - f - psi)) as fixed points averaged over
    C(f); regrouped over orbits of commuting pairs (h, f), h runs over the
    conjugacy representatives and f over the class representatives of
    C(h).  An h-fixed coset of S is one with (h - 1)c in S, so with
    T = Im(h - 1) each psi in C(h) contributes [G : S + T] fixed points.
    Counting the pairs (c, x) with (h - 1)c = (1 - f)x - psi(x) instead
    gives, with O_x the C(h)-orbit of x in G,

        Fix_f(h) = |ker(h - 1)| / n * sum_x |C(h)| / |O_x| * |((1 - f)x + T) ∩ O_x|,

    one gather over G per f from a (coset of T) x (orbit) count table.
    The medial term sums [G : S + T] over psi in C(f) ∩ C(h) through the
    registry's join table, seeded at T (_medial_fixed).  A term whose class
    in C(h) has size 1 has C(f) ∩ C(h) = C(h), so its medial term is its
    fixed term; that f commutes with C(h)'s generators is checked.  These
    terms make up the centre Z of C(h), and the other terms of a proper
    C(h) are tested for commuting once per coset of Z (_centre_cosets); for
    a central h they hold the fixed terms until enumerate_counts fills them.
    No pair space is built, and only C(h) is scanned: a proper C(h) is
    handled in its own member list, and generator searches, class labels,
    centre cosets and the commuting test never touch the rest of Aut(G).

    A representative z in Z whose Aut-wide class has h's size has
    C(z) = C(h): C(h) lies in C(z), and orbit-stabilizer gives both the
    same order.  Everything but T depends on C(h) alone, so the terms of
    every such z come out of this call too: h's first, then the others
    ascending.  Each is what count_class(ctx, z)[0] returns, as the
    labels' roots are their classes' smallest positions.
    """
    n = ctx.group.order
    reg = ctx.subgroups
    tab, gp = ctx.aut.tables, ctx.gen_pos
    members, cols_c, cgens = _centralizer(ctx, h)
    c_size = len(members)
    aut_sizes = ctx.class_sizes
    if c_size * aut_sizes[h] != ctx.N:
        raise AssertionError("the centralizer's order times its class size is not |Aut|")
    if cols_c is None:  # central h: C(h) is Aut, with Aut's classes
        labels = ctx.class_labels
    else:
        labels = _local_class_labels(ctx, h, members, cols_c, cgens)
    roots = _roots(labels)
    sizes = np.bincount(labels, minlength=c_size)[roots]
    if int(sizes.sum()) != c_size:
        raise AssertionError("class sizes of the centralizer do not add up to its order")
    fs = members[roots]
    ftabs = tab[fs]
    gtabs = tab[cgens]
    # f alone in its class of C(h): its medial term is its fixed term, once
    # f is checked to commute with C(h)'s generators
    single = sizes == 1
    if not _commuting(ftabs[single], gp, gtabs[:, gp].T, gtabs.T).all():
        raise AssertionError("the scanned centralizer disagrees with the class size")
    # the representatives that share C(h): in its centre, with h's class size
    zs = [h] + [z for z in fs[single].tolist() if z != h and aut_sizes.get(z) == aut_sizes[h]]

    ts = _images_minus_one(ctx, zs)
    _, orbit, orbit_size = np.unique(
        _orbit_min_labels(list(gtabs), n), return_inverse=True, return_counts=True
    )
    weight = c_size // orbit_size[orbit]  # |C(h)| / |O_x|
    moved = _take2(reg.sub, np.arange(n), ftabs)  # (1 - f)x per term and x
    fix = np.empty((len(zs), len(fs)), dtype=np.int64)
    for row, t in zip(fix, ts.tolist()):
        kernel = int(reg.counts[t])  # |ker(z - 1)| = [G : T]
        coset = reg.cidx[t]
        table = np.zeros((kernel, len(orbit_size)), dtype=np.int64)
        np.add.at(table, (coset, orbit), 1)
        row[:] = kernel * (_take2(table, coset[moved], orbit) * weight).sum(axis=1)
    if (fix % n).any():
        raise AssertionError("a fixed-point numerator is not divisible by n")
    fix //= n

    medial_fixed = fix.copy()
    rest = ~single
    if cols_c is not None and rest.any():
        blocks = _centre_cosets(ctx, h, members, cols_c, roots[single])
        medial_fixed[:, rest] = _medial_fixed(
            ctx, ts, fs[rest], ftabs[rest], moved[:, gp][rest], sizes[rest], cols_c, blocks
        )
    return [
        ClassTerms(
            rep=z,
            centralizer_order=c_size,
            reps=fs.tolist(),
            class_sizes=sizes.tolist(),
            fixed=fx.tolist(),
            medial_fixed=md.tolist(),
        )
        for z, fx, md in zip(zs, fix, medial_fixed)
    ]


# ---------------------------------------------------------------------------
# group-level driver, optionally parallel over conjugacy representatives

# the enumeration in progress; forked pool workers inherit it
_WORKER_CTX: EngineContext | None = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_class(collect: bool, f: int) -> list[ClassResult] | list[ClassTerms]:
    """f's result, and with count_class its siblings': in a pool worker or the parent."""
    return [process_class(_WORKER_CTX, f)] if collect else count_class(_WORKER_CTX, f)


def _run_here(fn, *args) -> Future:
    """fn(*args), run in this process, as a finished Future: a pool's submit."""
    out = Future()
    out.set_result(fn(*args))
    return out


@dataclass
class GroupCounts:
    conj_classes: int
    pair_orbits: int
    commuting_pair_orbits: int
    cq: int
    mq: int
    # ClassTerms per representative, or ClassResult with collect=True
    class_results: list[ClassTerms] | list[ClassResult]


def _fill_central_terms(ctx: EngineContext, results: list[ClassTerms]) -> None:
    """Fill each central h's medial terms from every class f's own terms.

    For central h, C(f) ∩ C(h) = C(f), whose g fix T = Im(h - 1) and send
    Im(1 - f - psi) to Im(1 - f - g psi g^-1): the term (h, f) sums
    |class of psi'| * [G : Im(1 - f - psi') + T] over f's reps psi', all
    rows (h, f, psi') in one registry span.  A singleton f gets its fixed term.
    """
    reg = ctx.subgroups
    central = [r for r in results if r.centralizer_order == ctx.N]
    zs = np.asarray([r.rep for r in central])
    fs = np.repeat([r.rep for r in results], [len(r.reps) for r in results])
    vals = _spanning_values(ctx, fs, np.concatenate([r.reps for r in results])).T
    s = reg.span(np.repeat(_images_minus_one(ctx, zs), len(fs)), np.tile(vals, len(zs)))
    weighted = reg.counts[s].reshape(len(zs), -1) * np.concatenate([r.class_sizes for r in results])
    starts = np.cumsum([0] + [len(r.reps) for r in results[:-1]])
    terms = dict(zip([r.rep for r in results], np.add.reduceat(weighted, starts, axis=1).T))
    for i, res in enumerate(central):
        res.medial_fixed = [int(terms[f][i]) for f in res.reps]
        if any(m != x for m, x, k in zip(res.medial_fixed, res.fixed, res.class_sizes) if k == 1):
            raise AssertionError("a central medial term disagrees with its fixed term")


def enumerate_counts(
    group: AbelianGroup,
    aut: AutGroup,
    jobs: int = 1,
    collect: bool = False,
) -> GroupCounts:
    """All six counts of one group, summed over its conjugacy representatives.

    Each representative runs count_class, which also returns the terms of
    every representative that shares its centralizer.  The parent schedules
    the classes: it submits one not yet done whenever a worker or a queue
    slot is free, and never has two of one Aut-wide class size in flight,
    so no result holds a class that is running or queued.  With jobs=1 a
    submitted class runs here and now.  The parent still checks that two
    results for one class agree.  With collect=True each
    representative runs the pair-space route, process_class, which also
    returns one triple per isomorphism class.  Either result gives cq and
    mq as numerators over |Aut|, and the sums must divide by it.
    """
    ctx = EngineContext(group, aut)
    # the per-class routes read the subgroup lattice and the action tables:
    # built here, before a pool forks, the workers share the parent's one
    # copy.  The lattice goes first: built after the labels or the tables,
    # its temporaries raised the peak RSS of the benchmark's rows
    subgroups = len(ctx.subgroups)
    class_reps = list(ctx.class_sizes)
    tables_mb = aut.tables.nbytes / 1e6
    # a fork pool starts all its workers at once: at most one per class and CPU
    workers = max(1, min(jobs, len(class_reps), _usable_cpus())) if hasattr(os, "fork") else 1
    log.info(
        "%s: |Aut|=%d, %d conjugacy classes, %d subgroups, %.0f MB of tables, %d worker%s",
        group.descriptor,
        ctx.N,
        len(class_reps),
        subgroups,
        tables_mb,
        workers,
        "" if workers == 1 else "s",
    )

    global _WORKER_CTX
    _WORKER_CTX = ctx
    # count_class returns only classes of h's Aut-wide size, and process_class
    # only f: with one class per key in flight, no result is running or queued
    key = (lambda f: f) if collect else ctx.class_sizes.get
    done: dict[int, ClassResult | ClassTerms] = {}
    centralizers = 0  # results received, one per centralizer computed
    cq_num = 0
    try:
        mp = multiprocessing.get_context("fork") if workers > 1 else None
        pool = ProcessPoolExecutor(workers, mp) if mp else None
        with pool or contextlib.nullcontext():
            submit = pool.submit if pool else _run_here
            pending, flight = class_reps, {}  # flight: each class running or queued, by future
            while pending or flight:
                for f in pending:
                    # workers + 1 queued, as the pool's own call queue, so none waits
                    if len(flight) <= 2 * workers and key(f) not in map(key, flight.values()):
                        flight[submit(_run_class, collect, f)] = f
                finished, _ = wait(flight, return_when=FIRST_COMPLETED)
                for fut in finished:
                    del flight[fut]
                    centralizers += 1
                    for res in fut.result():
                        if res.rep in done:
                            if res != done[res.rep]:
                                raise AssertionError("two results for one class disagree")
                            continue
                        done[res.rep] = res
                        cq_num += res.numerators(ctx.N)[0]
                        log.debug(
                            "%s: class %d/%d done (cq so far %d)",
                            group.descriptor,
                            len(done),
                            len(class_reps),
                            cq_num // ctx.N,
                        )
                pending = [f for f in pending if f not in done and f not in flight.values()]
    finally:
        _WORKER_CTX = None
    results = [done[f] for f in class_reps]
    log.info("%s: %d classes from %d centralizers", group.descriptor, len(results), centralizers)

    pair_orbits = sum(r.pair_orbits for r in results)
    # Burnside: Aut(G) acting on pairs by simultaneous conjugation has
    # sum over classes of |C(f)| orbits
    if pair_orbits != sum(r.centralizer_order for r in results):
        raise AssertionError("pair orbits disagree with the sum of centralizer orders")
    if not collect:
        _fill_central_terms(ctx, results)
    mq_num = sum(r.numerators(ctx.N)[1] for r in results)
    if cq_num % ctx.N or mq_num % ctx.N:
        raise AssertionError("the class terms do not add up to whole counts over |Aut|")
    return GroupCounts(
        conj_classes=len(class_reps),
        pair_orbits=pair_orbits,
        commuting_pair_orbits=sum(r.commuting_pair_orbits for r in results),
        cq=cq_num // ctx.N,
        mq=mq_num // ctx.N,
        class_results=results,
    )
