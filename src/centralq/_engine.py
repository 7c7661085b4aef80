"""Array-based orbit machinery behind the per-group enumeration.

Everything here works on integer indices: group elements are element
indices, automorphisms are member indices into an AutGroup's table array,
and orbit partitions are computed by min-label propagation over
permutation arrays (with pointer jumping), which stays fast for member
counts in the millions.

For one conjugacy representative f the enumeration counts orbits of the
centralizer C of f acting on the set of pairs (member m, coset of the
image of x - f(x) - m(x)); summed over representatives this yields the
central count, and restricting to members commuting with f yields the
medial count.

The image of x - f(x) - m(x) is a homomorphic image, so it is spanned by
the values on the rank canonical generators, read from the members'
generator columns.  A per-group SubgroupRegistry, built with the
context, is the only place subgroups are identified: it numbers the
subgroups met so far, keeps each one's cosets (found once per subgroup),
and fills a join table join[s, x] = id of S + <x> on demand.  Every
member's image subgroup is then rank gathers away from the trivial
subgroup, the class loop reads cosets by registry id, and no step
builds a member x element array.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .abelian import AbelianGroup
from .endo import AutGroup

log = logging.getLogger(__name__)

# bumped whenever a change could alter computed counts; cached reports
# written by another engine version are ignored
ENGINE_VERSION = 3

_CHUNK_ROWS = 1 << 19
_MAX_GENERATOR_TRIES = 64


def _inverse_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def _orbit_min_labels(gens: list[np.ndarray], count: int) -> np.ndarray:
    """Label every point with the minimal point of its orbit.

    gens are permutations of range(count) generating the action.  Each
    round pulls labels along every generator and its inverse, then jumps
    pointers twice.  Pulling along the generators alone reaches the same
    labels, but only one step per round against their direction: on a
    single cycle numbered in increasing order along its generator that is
    one round per point (200 000 rounds for 200 000 points, against 10
    with the inverses), so the inverses stay.
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


class SubgroupRegistry:
    """The one owner of subgroup identity: the subgroups of a group met so far.

    Subgroup ids are dense and stable; id 0 is the trivial subgroup, and
    the rest of the engine names a subgroup by its id alone.  Per subgroup
    the registry stores a `cidx` row mapping every element to the ordinal
    of its coset (cosets ordered by their smallest element, so the
    subgroup itself is coset 0 and its members are `cidx == 0`), the coset
    count, and the ascending coset representatives, padded to n.
    `join[s, x]` is the id of S + <x>, or -1 until filled.  `ids_of` maps
    element masks back to ids; its packed mask bytes are the registry's
    private key.
    """

    def __init__(self, group: AbelianGroup):
        self.n = group.order
        self.add = np.asarray(group.add_table)
        self.sub = np.asarray(group.sub_table)
        self._ids: dict[bytes, int] = {}
        self._cidx = np.zeros((0, self.n), dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._reps = np.zeros((0, self.n), dtype=group.index_dtype)
        self._join = np.zeros((0, self.n), dtype=np.int32)
        trivial = np.arange(self.n) == 0
        self._register(trivial, self._keys(trivial[None])[0])

    def __len__(self):
        return len(self._ids)

    @property
    def cidx(self) -> np.ndarray:
        return self._cidx[: len(self)]

    @property
    def counts(self) -> np.ndarray:
        return self._counts[: len(self)]

    @property
    def reps(self) -> np.ndarray:
        return self._reps[: len(self)]

    @property
    def masks(self) -> np.ndarray:
        return self.cidx == 0

    @property
    def join_table(self) -> np.ndarray:
        return self._join[: len(self)]

    @staticmethod
    def _keys(masks: np.ndarray) -> list[bytes]:
        return [k.tobytes() for k in np.packbits(masks, axis=1)]

    def ids_of(self, masks: np.ndarray) -> np.ndarray:
        """Ids of the subgroups with these (rows, n) element masks; -1 where unknown."""
        return np.asarray([self._ids.get(k, -1) for k in self._keys(masks)], dtype=np.int64)

    def _register(self, mask: np.ndarray, key: bytes) -> int:
        sid = self._ids.get(key)
        if sid is not None:
            return sid
        sid = len(self)
        if sid == len(self._cidx):
            extra = max(16, sid)
            self._cidx = np.pad(self._cidx, ((0, extra), (0, 0)))
            self._counts = np.pad(self._counts, (0, extra))
            self._reps = np.pad(self._reps, ((0, extra), (0, 0)))
            self._join = np.pad(self._join, ((0, extra), (0, 0)), constant_values=-1)
        elems = np.flatnonzero(mask)
        canon = self.add[:, elems].min(axis=1)  # smallest element of each coset
        reps = np.flatnonzero(canon == np.arange(self.n))
        ordinal = np.empty(self.n, dtype=np.int64)
        ordinal[reps] = np.arange(len(reps))
        self._cidx[sid] = ordinal[canon]
        self._counts[sid] = len(reps)
        self._reps[sid, : len(reps)] = reps
        self._join[sid, elems] = sid
        self._ids[key] = sid
        return sid

    def join(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ids of S + <x> for parallel arrays of subgroup ids and elements."""
        out = self._join[s, x]
        missing = out < 0
        if missing.any():
            pairs = np.unique(s[missing].astype(np.int64) * self.n + x[missing])
            self._fill(pairs // self.n, pairs % self.n)
            out = self._join[s, x]
        return out

    def _fill(self, sids: np.ndarray, xs: np.ndarray) -> None:
        # S + <x> by doubling: after k rounds a row holds S + {0..2^k - 1}x,
        # and once adding y = 2^k x changes nothing the row is a subgroup
        masks = self._cidx[sids] == 0
        y = xs
        while True:
            grown = masks | np.take_along_axis(masks, self.sub[:, y].T, axis=1)
            if np.array_equal(grown, masks):
                break
            masks = grown
            y = self.add[y, y]
        ids = [self._register(m, k) for m, k in zip(masks, self._keys(masks))]
        self._join[sids, xs] = ids


class EngineContext:
    """Shared state for one group's enumeration; only the subgroup registry grows."""

    def __init__(self, group: AbelianGroup, aut: AutGroup):
        self.group = group
        self.aut = aut
        self.N = len(aut)
        self.tables = aut.tables
        self.images = aut.images
        self.gen_pos = aut.gen_pos
        self.seed_base = f"enumeration:{group.descriptor}"
        self.subgroups = SubgroupRegistry(group)
        self._agens: list[int] | None = None

    # -- member-space primitives -------------------------------------------

    def inverse_table(self, h: int) -> np.ndarray:
        return _inverse_perm(self.tables[h])

    def conj_perm(self, h: int) -> np.ndarray:
        """Member permutation m -> h m h^-1, found from generator images alone."""
        tab = self.tables
        htab = tab[h]
        cols = _inverse_perm(htab)[self.gen_pos]
        out = np.empty(self.N, dtype=np.int64)
        for lo in range(0, self.N, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, self.N)
            out[lo:hi] = self.aut.lookup_images(htab[tab[lo:hi, cols]])
        return out

    def closure_mask(self, gens: list[int]) -> tuple[np.ndarray, int]:
        """Members generated by gens, as a boolean mask over member indices."""
        tab, images = self.tables, self.images
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

    def find_generators(self, pool: np.ndarray, expected: int, seed: str) -> list[int]:
        """A small generating set for a subgroup given by its member list.

        pool is the sorted member-index list; random members outside the
        current closure are added until it has the expected size.  Each
        addition at least doubles the closure, so 64 tries cover any group.
        """
        if expected == 1:
            return [self.aut.identity_index]
        rng = random.Random(f"{self.seed_base}:{seed}")
        gens: list[int] = []
        mask = np.zeros(self.N, dtype=bool)
        mask[self.aut.identity_index] = True
        for _ in range(_MAX_GENERATOR_TRIES):
            outside = pool[~mask[pool]]
            if not len(outside):
                break
            gens.append(int(outside[rng.randrange(len(outside))]))
            mask, size = self.closure_mask(gens)
            if size == expected:
                return gens
            if size > expected:
                raise AssertionError("closure left the subgroup; inputs inconsistent")
        raise AssertionError(f"could not generate subgroup of size {expected}")

    @property
    def agens(self) -> list[int]:
        """A reduced generating set for the whole automorphism group."""
        if self._agens is None:
            self._agens = self.find_generators(np.arange(self.N), self.N, "whole-group")
        return self._agens

    def centralizer_mask(self, f: int) -> np.ndarray:
        """Members m with f m == m f, compared on the generator images."""
        tab, images = self.tables, self.images
        ftab = tab[f]
        cols = ftab[self.gen_pos]
        out = np.empty(self.N, dtype=bool)
        for lo in range(0, self.N, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, self.N)
            out[lo:hi] = np.all(ftab[images[lo:hi]] == tab[lo:hi, cols], axis=1)
        return out

    def conjugacy_class_labels(self) -> np.ndarray:
        return _orbit_min_labels([self.conj_perm(g) for g in self.agens], self.N)


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
    # optional classification data: member index, coset rep element, medial flag
    triples: list[tuple[int, int, bool]] = field(default_factory=list)


def _coset_data(ctx: EngineContext, f: int) -> np.ndarray:
    """Registry id of the image subgroup of x - f(x) - m(x), for every member m.

    The map is a homomorphism, so its image is spanned by its values on
    the rank canonical generators, t[m] = (g - f(g) - m(g) for each g).
    Every member's image is built one generator at a time through the
    registry's join table, s <- join[s, t[:, i]], starting from the
    trivial subgroup: rank gathers over the members and no member x
    element array.  The cosets of each subgroup are read from the
    registry by id.
    """
    reg = ctx.subgroups
    gp = ctx.gen_pos
    d1 = reg.sub[gp, ctx.tables[f][gp]]  # g - f(g) per canonical generator g
    t = reg.sub[d1, ctx.images]  # (N, rank): g - f(g) - m(g)
    s = np.zeros(ctx.N, dtype=np.int32)
    for i in range(t.shape[1]):
        s = reg.join(s, t[:, i])
    return s


def _transport_table(ctx: EngineContext, family: np.ndarray, h: int) -> np.ndarray:
    """Registry id -> id of its image under member h, over the class's family.

    family is the sorted registry ids of the class's image subgroups; other
    ids map to -1.
    """
    reg = ctx.subgroups
    # x lies in h(S) exactly when h^-1(x) lies in S, i.e. in coset 0
    images = reg.ids_of(reg.cidx[family][:, ctx.inverse_table(h)] == 0)
    if not np.isin(images, family).all():
        raise RuntimeError(
            "internal invariant violated: image subgroup escaped the family "
            "(the induced coset action would be ill-defined)"
        )
    out = np.full(len(reg), -1, dtype=np.int32)
    out[family] = images
    return out


def process_class(ctx: EngineContext, f: int, collect: bool = False) -> ClassResult:
    """All counts contributed by one conjugacy representative f."""
    N = ctx.N
    reg = ctx.subgroups
    commuting = ctx.centralizer_mask(f)
    c_size = int(np.count_nonzero(commuting))
    if N % c_size:
        raise AssertionError("centralizer size does not divide the group order")
    if c_size == N:
        cgens = ctx.agens
    else:
        cgens = ctx.find_generators(np.flatnonzero(commuting), c_size, f"class {f}")

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
    r_of_point = reg.reps[s[m_of_point], j_of_point]
    del j_of_point
    present = np.zeros(len(reg), dtype=bool)
    present[s] = True
    family = np.flatnonzero(present)

    pperms = []
    for h, mp in zip(cgens, mperms):
        htab = ctx.tables[h]
        transport = _transport_table(ctx, family, h)
        s2 = s[mp]
        if not np.array_equal(s2, transport[s]):
            raise RuntimeError(
                "internal invariant violated: conjugation moved an image subgroup "
                "inconsistently with the member permutation"
            )
        m2 = mp[m_of_point]
        r2 = htab[r_of_point]
        j2 = reg.cidx[s2[m_of_point], r2]
        pperms.append((base[m2] + j2).astype(pt_dtype))
        del m2, r2, j2
    del mperms

    labels = _orbit_min_labels(pperms, total)
    del pperms
    root_idx = np.flatnonzero(labels == np.arange(total, dtype=labels.dtype))
    cq = len(root_idx)
    root_members = m_of_point[root_idx].astype(np.int64)
    medial_mask = commuting[root_members]
    mq = int(np.count_nonzero(medial_mask))
    # a pair orbit covers the C(f)-orbit of its members, every member has a
    # coset, and points grow with m, so each orbit's root lies over the
    # smallest member of that C(f)-orbit: the distinct root members are
    # exactly the C(f)-orbits of members (commuting is C(f)-invariant)
    orbit_members = np.unique(root_members)
    pair_orbits = len(orbit_members)
    commuting_pair_orbits = int(np.count_nonzero(commuting[orbit_members]))

    triples = []
    if collect:
        root_elems = r_of_point[root_idx]
        triples = [
            (int(m), int(r), bool(md))
            for m, r, md in zip(root_members, root_elems, medial_mask)
        ]
    return ClassResult(
        rep=f,
        centralizer_order=c_size,
        pair_orbits=pair_orbits,
        commuting_pair_orbits=commuting_pair_orbits,
        cq=cq,
        mq=mq,
        triples=triples,
    )


# ---------------------------------------------------------------------------
# group-level driver, optionally parallel over conjugacy representatives

# the enumeration in progress; forked pool workers inherit it
_WORKER_CTX: EngineContext | None = None
_WORKER_COLLECT = False


def _run_class(f: int) -> ClassResult:
    return process_class(_WORKER_CTX, f, _WORKER_COLLECT)


@dataclass
class GroupCounts:
    conj_classes: int
    pair_orbits: int
    commuting_pair_orbits: int
    cq: int
    mq: int
    class_reps: list[int]
    class_results: list[ClassResult]


def enumerate_counts(
    group: AbelianGroup,
    aut: AutGroup,
    jobs: int = 1,
    collect: bool = False,
) -> GroupCounts:
    ctx = EngineContext(group, aut)
    class_labels = ctx.conjugacy_class_labels()
    reps = np.flatnonzero(class_labels == np.arange(ctx.N, dtype=class_labels.dtype))
    class_reps = [int(r) for r in reps]
    del class_labels
    log.info("%s: |Aut|=%d, %d conjugacy classes", group.descriptor, ctx.N, len(class_reps))

    global _WORKER_CTX, _WORKER_COLLECT
    _WORKER_CTX = ctx
    _WORKER_COLLECT = collect
    results: list[ClassResult] = []
    try:
        with contextlib.ExitStack() as stack:
            mapped = map(_run_class, class_reps)
            if jobs > 1 and len(class_reps) > 1 and hasattr(os, "fork"):
                mp = multiprocessing.get_context("fork")
                ex = stack.enter_context(ProcessPoolExecutor(max_workers=jobs, mp_context=mp))
                mapped = ex.map(_run_class, class_reps, chunksize=1)
            for res in mapped:
                results.append(res)
                log.debug(
                    "%s: class %d/%d done (cq so far %d)",
                    group.descriptor,
                    len(results),
                    len(class_reps),
                    sum(r.cq for r in results),
                )
    finally:
        _WORKER_CTX = None
        _WORKER_COLLECT = False

    pair_orbits = sum(r.pair_orbits for r in results)
    # Burnside: Aut(G) acting on pairs by simultaneous conjugation has
    # sum over classes of |C(f)| orbits
    if pair_orbits != sum(r.centralizer_order for r in results):
        raise AssertionError("pair orbits disagree with the sum of centralizer orders")
    return GroupCounts(
        conj_classes=len(class_reps),
        pair_orbits=pair_orbits,
        commuting_pair_orbits=sum(r.commuting_pair_orbits for r in results),
        cq=sum(r.cq for r in results),
        mq=sum(r.mq for r in results),
        class_reps=class_reps,
        class_results=results,
    )
