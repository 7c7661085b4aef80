"""Conjugacy classes, centralizers and pair orbits on member indices.

Points are identified by their index in the ambient member list; the
chosen representative of an orbit is always its minimal point.  All
routines run on the array engine; the object-level orbit routines that
check it live with the plain reference engine in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._engine import EngineContext, _orbit_min_labels, _roots
from .endo import AutGroup, Endomorphism


@dataclass
class OrbitPartition:
    """An action's orbits: minimal-point representatives plus the quotient map."""

    representatives: list[int]
    orbit_of: Mapping[int, int] | np.ndarray
    orbit_sizes: dict[int, int]

    def __len__(self):
        return len(self.representatives)


def _as_index(A: AutGroup, f) -> int:
    if isinstance(f, (int, np.integer)):
        i = int(f)
        if not 0 <= i < len(A):
            raise KeyError(f"member index {i} out of range")
        return i
    return A.index_of(f)


def conjugacy_class_reps(A: AutGroup) -> OrbitPartition:
    """Partition of A into conjugacy classes (points are member indices)."""
    ctx = EngineContext(A.group, A)
    return OrbitPartition(list(ctx.class_sizes), ctx.class_labels, ctx.class_sizes)


def centralizer(A: AutGroup, f) -> list[Endomorphism]:
    """All members commuting with f; f must belong to A."""
    return [A.member(int(i)) for i in centralizer_indices(A, f)]


def centralizer_indices(A: AutGroup, f) -> np.ndarray:
    """Sorted member indices of C(f), as the per-class routes read them."""
    return EngineContext(A.group, A).centralizer_members(_as_index(A, f))


def direct_pair_orbit_count(A: AutGroup, cap: int = 4096) -> int:
    """Orbit count of simultaneous conjugation on A x A, computed directly.

    Materializes the full pair space, so only sensible for small groups;
    the per-representative route must agree with this number.
    """
    size = len(A)
    if size > cap:
        raise ValueError(f"group of order {size} is over the pair-space cap {cap}")
    ctx = EngineContext(A.group, A)
    perms = []
    for g in ctx.agens:
        p = ctx.conj_perm(g)
        perms.append((p[:, None] * size + p[None, :]).reshape(-1))
    labels = _orbit_min_labels(perms, size * size)
    return len(_roots(labels))
