"""A deliberately plain re-implementation of the counting loop.

Follows the nested orbit-representative construction step by step with
object-level operations, so it is slow but easy to audit; the array
engine must agree with it wherever both run.  Both medial routes are
provided: filtering the commuting representatives out of the full pair
loop, and re-running the inner loop over the centralizer only.

The orbit routines below work on member indices and Endomorphism
objects with plain breadth-first sweeps.  Large acting groups are first
reduced to a small generating set, small ones are applied with full
sweeps.
"""

import random

import numpy as np

from centralq._engine import EngineContext, _inverse_perm
from centralq.abelian import AbelianGroup, Subgroup
from centralq.action import (
    OrbitPartition,
    _as_index,
    centralizer_indices,
    conjugacy_class_reps,
)
from centralq.endo import AutGroup, Endomorphism, aut_group, one_minus

_FULL_SWEEP_LIMIT = 1024


def compose_indices(A: AutGroup, i: int, j: int) -> int:
    """Index of member i after member j."""
    return int(A.lookup_images(A.tables[i][A.images[j]][None, :])[0])


def inverse_index(A: AutGroup, i: int) -> int:
    return A.index_of_table(_inverse_perm(A.tables[i]))


def closure_generators(ctx: EngineContext, pool: np.ndarray, expected: int, seed: str) -> list[int]:
    """The engine's seeded generator search, by breadth-first closure over all of Aut.

    Draws from the same seeded stream as EngineContext.find_generators,
    from the members of the sorted pool outside the closure so far, and
    re-closes from the identity over an |Aut|-long mask after each draw.
    """
    if expected == 1:
        return [ctx.aut.identity_index]
    rng = random.Random(f"{ctx.seed_base}:{seed}")
    gens: list[int] = []
    mask = np.zeros(ctx.N, dtype=bool)
    mask[ctx.aut.identity_index] = True
    for _ in range(64):
        outside = pool[~mask[pool]]
        if not len(outside):
            break
        gens.append(int(outside[rng.randrange(len(outside))]))
        mask, size = ctx.closure_mask(gens)
        if size == expected:
            return gens
        if size > expected:
            raise AssertionError("closure left the subgroup; inputs inconsistent")
    raise AssertionError(f"could not generate subgroup of size {expected}")


def _closure_indices(A: AutGroup, gens: list[int]) -> set[int]:
    seen = {A.identity_index}
    frontier = [A.identity_index]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose_indices(A, g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _greedy_generators(A: AutGroup, members: list[int]) -> list[int]:
    """Generators for a subgroup given as an element list, added greedily."""
    gens: list[int] = []
    closure = {A.identity_index}
    for h in members:
        if h not in closure:
            gens.append(h)
            closure = _closure_indices(A, gens)
    if len(closure) != len(members):
        raise ValueError("member list is not closed under composition")
    return gens


def orbit_reps_conjugation(A: AutGroup, H, S) -> OrbitPartition:
    """Orbits of S under s -> h s h^-1 for h in the subgroup H.

    H and S are given as members (or member indices) of the ambient group
    A; points of the partition are ambient indices.  Leaving S during an
    orbit closure means S was not closed under the action and is an error.
    """
    h_idx = [_as_index(A, h) for h in H]
    s_idx = sorted({_as_index(A, s) for s in S})
    s_set = set(s_idx)

    tab = A.tables

    def conj_all(s: int, hs: list[int], hinvs: list[np.ndarray]) -> list[int]:
        row = tab[s]
        return [
            int(A.index_of_table(tab[h][row[hinv]]))
            for h, hinv in zip(hs, hinvs)
        ]

    if len(h_idx) > _FULL_SWEEP_LIMIT:
        gens = _greedy_generators(A, h_idx)
    else:
        gens = h_idx
    ginvs = [_inverse_perm(tab[g].astype(np.int64)) for g in gens]

    orbit_of: dict[int, int] = {}
    representatives: list[int] = []
    orbit_sizes: dict[int, int] = {}
    for s in s_idx:
        if s in orbit_of:
            continue
        representatives.append(s)
        frontier = [s]
        orbit_of[s] = s
        size = 1
        while frontier:
            nxt = []
            for x in frontier:
                for y in conj_all(x, gens, ginvs):
                    if y not in orbit_of:
                        if y not in s_set:
                            raise ValueError(
                                "S is not closed under conjugation by H "
                                f"(member {y} escaped)"
                            )
                        orbit_of[y] = s
                        size += 1
                        nxt.append(y)
            frontier = nxt
        orbit_sizes[s] = size
    return OrbitPartition(representatives, orbit_of, orbit_sizes)


def orbit_reps_on_cosets(H, group: AbelianGroup, U: Subgroup) -> OrbitPartition:
    """Orbits of the induced action of H on the cosets of U.

    H is a list of automorphisms of the group, each of which must map U
    into U (that makes the action on cosets well defined); points are the
    index-minimal coset representatives.
    """
    if U.group != group:
        raise ValueError("subgroup belongs to a different group")
    n = group.order
    u_idx = np.asarray(sorted(U.indices), dtype=np.int64)
    add = np.asarray(group.add_table, dtype=np.int64)

    canon = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if canon[x] < 0:
            reps.append(x)
            canon[add[x, u_idx]] = x

    h_list = list(H)
    for h in h_list:
        if not isinstance(h, Endomorphism) or h.group != group:
            raise ValueError("H must consist of automorphisms of the group")
        htab = h.table.astype(np.int64)
        if not set(int(v) for v in htab[u_idx]) <= U.indices:
            raise ValueError("an acting automorphism does not preserve the subgroup")
        if not np.array_equal(canon[htab], canon[htab[canon]]):
            raise RuntimeError(
                "internal invariant violated: coset action is not well defined"
            )

    if len(h_list) > _FULL_SWEEP_LIMIT:
        acting = _reduce_endo_generators(h_list)
    else:
        acting = h_list
    act_tabs = [h.table.astype(np.int64) for h in acting]

    orbit_of: dict[int, int] = {}
    representatives: list[int] = []
    orbit_sizes: dict[int, int] = {}
    for r in reps:
        if r in orbit_of:
            continue
        representatives.append(r)
        orbit_of[r] = r
        frontier = [r]
        size = 1
        while frontier:
            nxt = []
            for x in frontier:
                for tabh in act_tabs:
                    y = int(canon[tabh[x]])
                    if y not in orbit_of:
                        orbit_of[y] = r
                        size += 1
                        nxt.append(y)
            frontier = nxt
        orbit_sizes[r] = size
    return OrbitPartition(representatives, orbit_of, orbit_sizes)


def _reduce_endo_generators(h_list: list[Endomorphism]) -> list[Endomorphism]:
    gens: list[Endomorphism] = []
    closure = None
    for h in h_list:
        if closure is None or h not in closure:
            gens.append(h)
            closure = set(gens)
            frontier = list(gens)
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = g.compose(x)
                        if y not in closure:
                            closure.add(y)
                            nxt.append(y)
                frontier = nxt
    return gens


def reference_counts(group, budget=None):
    """(conj_classes, pair_orbits, commuting_pair_orbits, cq, mq) by the plain route."""
    A = aut_group(group, budget=budget)
    classes = conjugacy_class_reps(A)
    pair_orbits = commuting_pair_orbits = cq = mq = 0
    for f_idx in classes.representatives:
        f = A.member(f_idx)
        c_indices = [int(i) for i in centralizer_indices(A, f_idx)]
        c_members = [A.member(i) for i in c_indices]
        pairs = orbit_reps_conjugation(A, c_indices, range(len(A)))
        pair_orbits += len(pairs.representatives)
        for y_idx in pairs.representatives:
            y = A.member(y_idx)
            commutes = f.compose(y) == y.compose(f)
            stab = [h for h in c_members if h.compose(y) == y.compose(h)]
            image = one_minus(f, y).image()
            cosets = orbit_reps_on_cosets(stab, group, image)
            cq += len(cosets.representatives)
            if commutes:
                commuting_pair_orbits += 1
                mq += len(cosets.representatives)
    return (len(classes.representatives), pair_orbits, commuting_pair_orbits, cq, mq)


def reference_mq_restricted(group, budget=None):
    """mq via representatives of the centralizer acting on itself only."""
    A = aut_group(group, budget=budget)
    classes = conjugacy_class_reps(A)
    mq = 0
    for f_idx in classes.representatives:
        f = A.member(f_idx)
        c_indices = [int(i) for i in centralizer_indices(A, f_idx)]
        c_members = [A.member(i) for i in c_indices]
        pairs = orbit_reps_conjugation(A, c_indices, c_indices)
        for y_idx in pairs.representatives:
            y = A.member(y_idx)
            stab = [h for h in c_members if h.compose(y) == y.compose(h)]
            image = one_minus(f, y).image()
            cosets = orbit_reps_on_cosets(stab, group, image)
            mq += len(cosets.representatives)
    return mq


def medial_fixed_full(ctx: EngineContext, h: int, fs: list[int]) -> list[int]:
    """Sum of [G : Im(1 - f - psi) + Im(h - 1)] over psi in C(f) ∩ C(h), per f of fs.

    count_class's medial terms of the commuting pairs (h, f) without its
    shortcuts: every member psi of C(h) is tested for f psi == psi f on the
    canonical generators, and each survivor's image is spanned from
    T = Im(h - 1) by its own chain of registry joins (one row per psi).
    """
    reg, gp = ctx.subgroups, ctx.aut.gen_pos
    members = ctx.centralizer_members(h)
    cols, imgs = ctx.aut.tables[members], ctx.aut.images[members]  # per psi: psi(x), psi(g)
    t = reg.span(np.zeros(1, dtype=np.int32), reg.sub[ctx.aut.images[h], gp][:, None])
    out = []
    for f in fs:
        ftab = ctx.aut.tables[f]
        psi = imgs[(ftab[imgs] == cols[:, ftab[gp]]).all(axis=1)]
        values = reg.sub[reg.sub[gp, ftab[gp]], psi]  # g - f(g) - psi(g)
        s = reg.span(np.full(len(psi), t[0], dtype=np.int32), values.T)
        out.append(int(reg.counts[s].sum()))
    return out


def pair_orbit_count_bruteforce(A):
    """Orbit count of simultaneous conjugation on A x A by plain sweeps."""
    size = len(A)
    conj = []
    for h in range(size):
        hinv = inverse_index(A, h)
        conj.append([compose_indices(A, compose_indices(A, h, m), hinv) for m in range(size)])
    seen = [[False] * size for _ in range(size)]
    orbits = 0
    for a in range(size):
        for b in range(size):
            if seen[a][b]:
                continue
            orbits += 1
            stack = [(a, b)]
            seen[a][b] = True
            while stack:
                x, y = stack.pop()
                for perm in conj:
                    nx, ny = perm[x], perm[y]
                    if not seen[nx][ny]:
                        seen[nx][ny] = True
                        stack.append((nx, ny))
    return orbits


def fixed_pairs(A: AutGroup, f_idx: int, h_idx: int) -> tuple[int, int]:
    """Points (psi, coset of Im(1 - f - psi)) fixed by h, counted one by one.

    h must commute with f.  h fixes the point when it commutes with psi and
    maps the coset to itself.  Returns the count over all psi and the count
    over psi in C(f) (the medial points).
    """
    group = A.group
    f, h = A.member(f_idx), A.member(h_idx)
    fixed = medial = 0
    for psi in A.members:
        if h.compose(psi) != psi.compose(h):
            continue
        image = one_minus(f, psi).image()
        reps, _ = group.cosets(image)
        count = sum(group.sub(h.apply(c), c) in image for c in reps)
        fixed += count
        if f.compose(psi) == psi.compose(f):
            medial += count
    return fixed, medial
