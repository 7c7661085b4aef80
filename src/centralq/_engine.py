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
"""

from __future__ import annotations

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

_CHUNK_ROWS = 1 << 19
_MAX_GENERATOR_TRIES = 64


def _inverse_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def _orbit_min_labels(perms: list[np.ndarray], count: int) -> np.ndarray:
    """Label every point with the minimal point of its orbit.

    perms are permutations of range(count) whose group generates the
    action; convergence is guaranteed because orbits are strongly
    connected under a permutation group.
    """
    dtype = np.int32 if count <= np.iinfo(np.int32).max else np.int64
    labels = np.arange(count, dtype=dtype)
    if not perms or count == 0:
        return labels
    while True:
        prev = labels.copy()
        for p in perms:
            np.minimum(labels, labels[p], out=labels)
        labels = labels[labels]
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def _unique_masks(masks: np.ndarray):
    """np.unique with inverse for (N,) or (N, words) mask arrays."""
    if masks.ndim == 1:
        uniq, inverse = np.unique(masks, return_inverse=True)
        return uniq, inverse.reshape(-1)
    view = np.ascontiguousarray(masks).view(
        np.dtype((np.void, masks.dtype.itemsize * masks.shape[1]))
    ).reshape(-1)
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return masks[first], inverse.reshape(-1)


def _mask_bits(mask_row, n: int) -> np.ndarray:
    if np.ndim(mask_row) == 0:
        words = [int(mask_row)]
    else:
        words = [int(w) for w in mask_row]
    out = []
    for w, word in enumerate(words):
        base = 64 * w
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
    return np.asarray(sorted(out), dtype=np.int64)


class EngineContext:
    """Shared immutable state for one group's enumeration."""

    def __init__(self, group: AbelianGroup, aut: AutGroup):
        self.group = group
        self.aut = aut
        self.n = group.order
        self.N = len(aut)
        self.tables = aut.tables
        self.images = aut.images
        self.gen_pos = aut.gen_pos
        self.add = np.asarray(group.add_table)
        self.sub = np.asarray(group.sub_table)
        self.seed_base = f"enumeration:{group.descriptor}"
        self._agens: list[int] | None = None

    # -- member-space primitives -------------------------------------------

    def inverse_table(self, h: int) -> np.ndarray:
        return _inverse_perm(self.tables[h])

    def conj_perm(self, h: int) -> np.ndarray:
        """Member permutation m -> h m h^-1, found from generator images alone."""
        tab = self.tables
        htab = tab[h]
        cols = self.inverse_table(h)[self.gen_pos]
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

    def find_generators(self, pool: np.ndarray | None, expected: int, seed: str) -> list[int]:
        """A small generating set for a subgroup given by its member list.

        pool is the sorted member-index list (None means the whole group);
        random elements are added until the closure has the expected size.
        """
        if expected == 1:
            return [self.aut.identity_index]
        if pool is None or expected == self.N:
            return list(self.agens)
        rng = random.Random(f"{self.seed_base}:{seed}")
        gens: list[int] = []
        mask = np.zeros(self.N, dtype=bool)
        mask[self.aut.identity_index] = True
        size = 1
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
            rng = random.Random(f"{self.seed_base}:whole-group")
            gens: list[int] = []
            size = 1
            mask = np.zeros(self.N, dtype=bool)
            mask[self.aut.identity_index] = True
            # seed with random members, fall back to the construction set
            for _ in range(_MAX_GENERATOR_TRIES):
                if size == self.N:
                    break
                candidates = np.flatnonzero(~mask)
                gens.append(int(candidates[rng.randrange(len(candidates))]))
                mask, size = self.closure_mask(gens)
            if size != self.N:
                gens = list(self.aut.gens)
            self._agens = gens
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
        perms = []
        for g in self.agens:
            p = self.conj_perm(g)
            perms.append(p)
            perms.append(_inverse_perm(p))
        return _orbit_min_labels(perms, self.N)


# ---------------------------------------------------------------------------
# per-representative processing


@dataclass
class ClassResult:
    rep: int
    pair_orbits: int
    commuting_pair_orbits: int
    cq: int
    mq: int
    # optional classification data: member index, coset rep element, medial flag
    triples: list[tuple[int, int, bool]] = field(default_factory=list)


def _coset_data(ctx: EngineContext, f: int):
    """Image subgroups of x - f(x) - m(x) for every member m, with cosets."""
    n, N, tab = ctx.n, ctx.N, ctx.tables
    ftab = tab[f]
    idx = np.arange(n)
    d1 = ctx.sub[idx, ftab]  # x - f(x)
    st = ctx.sub[d1]  # st[x, e] = (x - f(x)) - e
    cols = idx[None, :]
    words = (n + 63) // 64
    masks = np.empty((N, words) if words > 1 else N, dtype=np.uint64)
    one = np.uint64(1)
    for lo in range(0, N, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, N)
        t = st[cols, tab[lo:hi]].astype(np.int64)
        if words > 1:
            for w in range(words):
                in_word = (t >> 6) == w
                part = np.where(in_word, one << (t & 63).astype(np.uint64), np.uint64(0))
                masks[lo:hi, w] = np.bitwise_or.reduce(part, axis=1)
        else:
            masks[lo:hi] = np.bitwise_or.reduce(one << t.astype(np.uint64), axis=1)
    uniq, sgid = _unique_masks(masks)
    del masks

    n_sg = len(uniq)
    elems = []
    canon = np.empty((n_sg, n), dtype=np.int64)
    cidx = np.empty((n_sg, n), dtype=np.int64)
    counts = np.empty(n_sg, dtype=np.int64)
    reps = []
    add = ctx.add
    for s in range(n_sg):
        u = _mask_bits(uniq[s], n)
        elems.append(u)
        c = np.full(n, -1, dtype=np.int64)
        rlist = []
        for x in range(n):
            if c[x] < 0:
                rlist.append(x)
                c[add[x, u]] = x
        canon[s] = c
        rarr = np.asarray(rlist, dtype=np.int64)
        reps.append(rarr)
        counts[s] = len(rarr)
        ordinal = np.full(n, -1, dtype=np.int64)
        ordinal[rarr] = np.arange(len(rarr))
        cidx[s] = ordinal[c]

    mask_lookup = {}
    for s in range(n_sg):
        key = tuple(int(w) for w in np.atleast_1d(uniq[s]))
        mask_lookup[key] = s
    return sgid.astype(np.int32), elems, canon, cidx, counts, reps, mask_lookup, words


def _transport_table(ctx, elems, mask_lookup, words, htab):
    """Subgroup id -> subgroup id of its image under the automorphism h."""
    n_sg = len(elems)
    out = np.empty(n_sg, dtype=np.int32)
    for s in range(n_sg):
        img = htab[elems[s]]
        acc = [0] * words
        for e in img:
            acc[int(e) >> 6] |= 1 << (int(e) & 63)
        key = tuple(acc)
        if key not in mask_lookup:
            raise RuntimeError(
                "internal invariant violated: image subgroup escaped the family "
                "(the induced coset action would be ill-defined)"
            )
        out[s] = mask_lookup[key]
    return out


def process_class(ctx: EngineContext, f: int, collect: bool = False) -> ClassResult:
    """All counts contributed by one conjugacy representative f."""
    N = ctx.N
    commuting = ctx.centralizer_mask(f)
    c_size = int(np.count_nonzero(commuting))
    if N % c_size:
        raise AssertionError("centralizer size does not divide the group order")
    pool = np.flatnonzero(commuting)
    cgens = ctx.find_generators(pool if c_size != N else None, c_size, f"class {f}")

    # member-space orbits of the centralizer acting by conjugation
    mperms = [ctx.conj_perm(h) for h in cgens]
    # every generator must fix f's conjugacy behaviour: h f h^-1 == f
    for p in mperms:
        if p[f] != f:
            raise AssertionError("generator does not centralize the representative")
    all_mperms = []
    for p in mperms:
        all_mperms.append(p)
        all_mperms.append(_inverse_perm(p))
    ylabels = _orbit_min_labels(all_mperms, N)
    yroots = ylabels == np.arange(N, dtype=ylabels.dtype)
    pair_orbits = int(np.count_nonzero(yroots))
    commuting_pair_orbits = int(np.count_nonzero(yroots & commuting))

    # pair space: (member m, coset of Im(x - f(x) - m(x)))
    sgid, elems, canon, cidx, counts, reps, mask_lookup, words = _coset_data(ctx, f)
    cnt_m = counts[sgid]
    base = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(cnt_m, out=base[1:])
    total = int(base[N])
    pt_dtype = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    m_of_point = np.repeat(np.arange(N, dtype=pt_dtype), cnt_m)
    j_of_point = np.arange(total, dtype=np.int64) - base[m_of_point]
    reps_off = np.zeros(len(reps) + 1, dtype=np.int64)
    np.cumsum(counts, out=reps_off[1:])
    reps_flat = np.concatenate(reps) if reps else np.empty(0, np.int64)
    r_of_point = reps_flat[reps_off[sgid[m_of_point]] + j_of_point].astype(
        ctx.group.index_dtype
    )
    del j_of_point

    pperms = []
    for h, mp in zip(cgens, mperms):
        htab = ctx.tables[h]
        transport = _transport_table(ctx, elems, mask_lookup, words, htab)
        sg2 = sgid[mp]
        if not np.array_equal(sg2, transport[sgid]):
            raise RuntimeError(
                "internal invariant violated: conjugation moved an image subgroup "
                "inconsistently with the member permutation"
            )
        m2 = mp[m_of_point]
        r2 = htab[r_of_point]
        j2 = cidx[sg2[m_of_point], r2]
        p = (base[m2] + j2).astype(pt_dtype)
        pperms.append(p)
        pperms.append(_inverse_perm(p))
        del m2, r2, j2, p
    del mperms, all_mperms

    labels = _orbit_min_labels(pperms, total)
    del pperms
    root_idx = np.flatnonzero(labels == np.arange(total, dtype=labels.dtype))
    cq = len(root_idx)
    root_members = m_of_point[root_idx].astype(np.int64)
    medial_mask = commuting[root_members]
    mq = int(np.count_nonzero(medial_mask))

    triples = []
    if collect:
        root_elems = r_of_point[root_idx]
        triples = [
            (int(m), int(r), bool(md))
            for m, r, md in zip(root_members, root_elems, medial_mask)
        ]
    return ClassResult(
        rep=f,
        pair_orbits=pair_orbits,
        commuting_pair_orbits=commuting_pair_orbits,
        cq=cq,
        mq=mq,
        triples=triples,
    )


# ---------------------------------------------------------------------------
# group-level driver, optionally parallel over conjugacy representatives

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

    results: list[ClassResult] = []
    if jobs > 1 and len(class_reps) > 1 and hasattr(os, "fork"):
        global _WORKER_CTX, _WORKER_COLLECT
        _WORKER_CTX = ctx
        _WORKER_COLLECT = collect
        try:
            mp = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=mp) as ex:
                results = list(ex.map(_run_class, class_reps, chunksize=1))
        finally:
            _WORKER_CTX = None
            _WORKER_COLLECT = False
    else:
        for i, f in enumerate(class_reps):
            results.append(process_class(ctx, f, collect))
            log.debug(
                "%s: class %d/%d done (cq so far %d)",
                group.descriptor,
                i + 1,
                len(class_reps),
                sum(r.cq for r in results),
            )

    return GroupCounts(
        conj_classes=len(class_reps),
        pair_orbits=sum(r.pair_orbits for r in results),
        commuting_pair_orbits=sum(r.commuting_pair_orbits for r in results),
        cq=sum(r.cq for r in results),
        mq=sum(r.mq for r in results),
        class_reps=class_reps,
        class_results=results,
    )
