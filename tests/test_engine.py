"""The engine's subgroups, cosets, orbit labels and class counts against oracles."""

import dataclasses
import hashlib
import logging
import os
import random
import time

import numpy as np
import pytest

from centralq import _engine
from centralq._engine import (
    EngineContext,
    SubgroupRegistry,
    _coset_data,
    _inverse_perm,
    _orbit_min_labels,
    _sweep_labels,
    count_class,
    enumerate_counts,
    process_class,
)
from centralq.abelian import parse_group
from centralq.action import centralizer_indices, conjugacy_class_reps
from centralq.counting import classify_representatives
from centralq.endo import aut_group, aut_group_order, one_minus, scalar_endo

from reference_engine import (
    closure_generators,
    fixed_pairs,
    medial_fixed_full,
    orbit_reps_conjugation,
)


def _cases(desc):
    """Context, a few class representatives and the members to check."""
    A = aut_group(parse_group(desc))
    ctx = EngineContext(A.group, A)
    rng = random.Random(desc)
    reps = conjugacy_class_reps(A).representatives
    fs = [reps[0]] + rng.sample(reps[1:], min(2, len(reps) - 1))
    if len(A) <= 200:
        return ctx, fs, list(range(len(A)))
    return ctx, fs, rng.sample(range(len(A)), 150)


def _coset_ordinals(group, elems):
    """Element -> ordinal of its coset, cosets ordered by smallest element."""
    add = group.add_table
    canon = [min(int(add[x, u]) for u in elems) for x in range(group.order)]
    reps = sorted(set(canon))
    return [reps.index(c) for c in canon]


@pytest.mark.parametrize("desc", ["C2^3", "C3xC3", "C4xC2", "C4xC2xC3", "C4xC4xC2"])
def test_member_subgroups_match_image_sets(desc):
    ctx, fs, ms = _cases(desc)
    g, A, reg = ctx.group, ctx.aut, ctx.subgroups
    for f in fs:
        sids = _coset_data(ctx, f)
        phi = A.member(f)
        for m in ms:
            image = one_minus(phi, A.member(m)).image()
            sid = sids[m]
            elems = np.flatnonzero(reg.masks[sid]).tolist()
            assert elems == sorted(image.indices)
            ordinals = _coset_ordinals(g, elems)
            assert reg.cidx[sid].tolist() == ordinals
            count = reg.counts[sid]
            assert count == g.order // len(elems)
            assert reg.reps[sid, :count].tolist() == [ordinals.index(k) for k in range(count)]


@pytest.mark.parametrize("desc", ["C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_filled_joins_are_generated_subgroups(desc):
    ctx, fs, _ = _cases(desc)
    for f in fs:
        _coset_data(ctx, f)
    g, reg = ctx.group, ctx.subgroups
    join = reg.join_table
    filled = np.argwhere(join >= 0)
    assert len(filled) > len(reg)
    for s, x in filled:
        gens = [g.element_at(int(e)) for e in np.flatnonzero(reg.masks[s])]
        want = g.subgroup_generated(gens + [g.element_at(int(x))])
        assert np.flatnonzero(reg.masks[join[s, x]]).tolist() == sorted(want.indices)


@pytest.mark.parametrize("desc", ["C2^3", "C4xC2xC3", "C4xC4xC2"])
def test_registry_registers_each_subgroup_once(desc):
    ctx, fs, _ = _cases(desc)
    for f in fs:
        _coset_data(ctx, f)
    reg = ctx.subgroups
    assert len(reg) > 1
    assert len(np.unique(reg.cidx, axis=0)) == len(reg)


def _central_case():
    """C3xC3 with f = -1: its family holds the trivial subgroup (m = 1 - f = 2)."""
    g = parse_group("C3xC3")
    A = aut_group(g)
    return EngineContext(g, A), A.index_of(scalar_endo(g, 2))


def _act_by(monkeypatch, ctx, f, table):
    """Make every member act on G by table where process_class reads the action.

    C(f) is pinned to its scan with the real tables: scanned with the
    faulty ones it would shrink to {1}, and there would be nothing to check.
    """
    members = ctx.centralizer_members(f)
    monkeypatch.setattr(ctx, "centralizer_members", lambda g: members if g == f else None)
    fake = np.broadcast_to(table.astype(ctx.group.index_dtype), (ctx.N, ctx.group.order))
    monkeypatch.setitem(vars(ctx.aut), "tables", fake)


def test_transport_rejects_an_image_outside_the_family(monkeypatch):
    # with f = 1 every member's image is Im(-m) = G, so the family is {G}
    g = parse_group("C2xC2")
    A = aut_group(g)
    ctx, f = EngineContext(g, A), A.identity_index
    family = _coset_data(ctx, f)
    assert (ctx.subgroups.counts[family] == 1).all()
    # swapping elements 0 and 1 sends G's spanning values to a proper
    # subgroup, which no member carries
    swap = np.arange(g.order)
    swap[[0, 1]] = [1, 0]
    _act_by(monkeypatch, ctx, f, swap)
    with pytest.raises(RuntimeError, match="moved an image subgroup inconsistently"):
        process_class(ctx, f)


def test_transport_must_follow_the_member_permutation(monkeypatch):
    ctx, f = _central_case()
    _act_by(monkeypatch, ctx, f, np.arange(ctx.group.order))
    with pytest.raises(RuntimeError, match="moved an image subgroup inconsistently"):
        process_class(ctx, f)


@pytest.mark.parametrize("route", [process_class, count_class])
def test_centralizer_size_must_divide_the_group_order(monkeypatch, route):
    ctx, f = _central_case()
    real = EngineContext.centralizer_members
    # f = -1 is central: 47 of Aut's 48 members
    monkeypatch.setattr(EngineContext, "centralizer_members", lambda self, f: real(self, f)[1:])
    with pytest.raises(AssertionError, match="centralizer size does not divide"):
        route(ctx, f)


def test_centralizer_generators_must_centralize(monkeypatch):
    g = parse_group("C3xC3")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    reps = conjugacy_class_reps(A).representatives
    f = next(r for r in reps if not ctx.centralizer_mask(r).all())
    outsider = int(np.flatnonzero(~ctx.centralizer_mask(f))[0])
    monkeypatch.setattr(EngineContext, "find_generators", lambda self, *args: ([outsider], []))
    with pytest.raises(AssertionError, match="does not centralize the representative"):
        process_class(ctx, f)


@pytest.mark.parametrize(
    "desc, proper", [("C11xC11", 110), ("C8xC4xC2", 100), ("C3^3", 22), ("C2^4", 13)]
)
def test_local_generator_search_matches_the_closure_search(desc, proper):
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    checked = 0
    for h in conjugacy_class_reps(A).representatives:
        members = ctx.centralizer_members(h)
        if len(members) == len(A):
            continue
        cols = np.ascontiguousarray(A.tables[members].T)
        gens, _ = ctx.find_generators(members, cols, f"class {h}")
        assert gens == closure_generators(ctx, members, len(members), f"class {h}"), h
        assert ctx.closure_mask(gens)[1] == len(members)
        checked += 1
    assert checked == proper


@pytest.mark.parametrize("desc", ["C2^4", "C3^3", "C4xC2xC3", "C8xC4xC2", "C11xC11", "C2"])
def test_agens_generate_the_whole_group(desc):
    # the generators Aut's closure grew from, with no search of their own
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    assert ctx.agens == A.gens
    assert ctx.closure_mask(ctx.agens)[1] == len(A)


def test_counting_never_runs_the_reference_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closure_mask called while counting")

    g = parse_group("C4xC2xC2")
    monkeypatch.setattr(EngineContext, "closure_mask", refuse)
    A = aut_group(g)
    assert _fields(enumerate_counts(g, A)) == (13, 564, 146, 820, 150)
    assert _fields(enumerate_counts(g, A, collect=True)) == (13, 564, 146, 820, 150)


def test_generator_search_refuses_an_unclosed_pool():
    g = parse_group("C3xC3")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    # the identity and one member of order 3, without its square
    x = next(m for m in range(len(A)) if ctx.closure_mask([m])[1] == 3)
    pool = np.asarray(sorted([A.identity_index, x]))
    with pytest.raises(AssertionError, match="closure left the subgroup"):
        ctx.find_generators(pool, np.ascontiguousarray(A.tables[pool].T), "unclosed")


def test_count_class_generators_must_centralize(monkeypatch):
    g = parse_group("C3xC3")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    reps = conjugacy_class_reps(A).representatives
    h = next(r for r in reps if not ctx.centralizer_mask(r).all())
    outsider = int(np.flatnonzero(~ctx.centralizer_mask(h))[0])
    monkeypatch.setattr(EngineContext, "find_generators", lambda self, *args: ([outsider], []))
    with pytest.raises(AssertionError, match="does not centralize the representative"):
        count_class(ctx, h)


@pytest.mark.parametrize("desc", ["C2xC2", "C3xC3", "C4xC2", "C2^3"])
def test_fixed_points_match_brute_force(desc):
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    counts = enumerate_counts(g, A)
    terms = 0
    # a central h's medial terms are read once enumerate_counts has filled them
    for res in counts.class_results:
        for f, fixed, medial in zip(res.reps, res.fixed, res.medial_fixed):
            assert (fixed, medial) == fixed_pairs(A, f, res.rep), (res.rep, f)
            terms += 1
    assert terms == counts.commuting_pair_orbits


def _fields(counts):
    fields = ("conj_classes", "pair_orbits", "commuting_pair_orbits", "cq", "mq")
    return tuple(getattr(counts, f) for f in fields)


def test_count_route_matches_pair_space_route(fixture_groups):
    checked = 0
    for desc in fixture_groups:
        g = parse_group(desc)
        if len(g.prime_spans) != 1 or aut_group_order(g) > 25_000:
            continue
        A = aut_group(g)
        pair_space = enumerate_counts(g, A, collect=True)
        assert _fields(enumerate_counts(g, A)) == _fields(pair_space), desc
        checked += 1
    assert checked == 70


def test_counting_never_runs_the_pair_space_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("process_class called while counting")

    g = parse_group("C4xC2xC2")
    monkeypatch.setattr(_engine, "process_class", refuse)
    assert _fields(enumerate_counts(g, aut_group(g))) == (13, 564, 146, 820, 150)


def _noncentral_rep(desc):
    """A representative whose centralizer is proper, not abelian and not of order n."""
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    for h in conjugacy_class_reps(A).representatives:
        res = count_class(ctx, h)
        c = res.centralizer_order
        if c not in (len(A), g.order) and len(res.reps) < c:
            return ctx, h
    raise AssertionError(f"no such representative in {desc}")


def test_class_sizes_must_add_up(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")

    def shifted(ctx, h, members, *args):
        # no point is its own label, so no class has a representative
        return np.roll(np.arange(len(members)), 1)

    monkeypatch.setattr(_engine, "_local_class_labels", shifted)
    with pytest.raises(AssertionError, match="class sizes of the centralizer"):
        count_class(ctx, h)


def test_scanned_centralizer_must_match_the_class_size(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")

    def singletons(ctx, h, members, *args):
        # every member of C(h) its own class: a consistent labelling, wrong sizes
        return np.arange(len(members))

    monkeypatch.setattr(_engine, "_local_class_labels", singletons)
    with pytest.raises(AssertionError, match="scanned centralizer disagrees"):
        count_class(ctx, h)


def test_scanned_centralizer_must_match_a_merged_class(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")
    real = _engine._local_class_labels

    def merged(*args):
        # two classes of sizes above 1 under the smaller label: the sizes
        # still add up, and the merged term goes through the scan
        labels = real(*args)
        roots, sizes = np.unique(labels, return_counts=True)
        a, b = roots[sizes > 1][:2]
        return np.where(labels == b, a, labels)

    monkeypatch.setattr(_engine, "_local_class_labels", merged)
    with pytest.raises(AssertionError, match="scanned centralizer disagrees"):
        count_class(ctx, h)


@pytest.mark.parametrize(
    "desc, proper", [("C2^3", 5), ("C2^4", 13), ("C3^3", 22), ("C4xC2xC2", 11), ("C4xC4xC2xC2", 98)]
)
def test_medial_terms_match_the_full_centralizer_sum(desc, proper):
    g = parse_group(desc)
    A = aut_group(g)
    ctx = EngineContext(g, A)
    checked = 0
    # a central h's terms are read once enumerate_counts has filled them
    for res in enumerate_counts(g, A).class_results:
        assert res.medial_fixed == medial_fixed_full(ctx, res.rep, res.reps), res.rep
        checked += res.centralizer_order < len(A)
    assert checked == proper


def test_centre_cosets_must_tile_the_centralizer(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")
    real = EngineContext.find_generators

    def identity_only(self, members, cols, seed, positions=None):
        # the centre's generators: only the identity, so every coset is one member
        if seed.startswith("centre"):
            return [self.aut.identity_index], []
        return real(self, members, cols, seed, positions)

    monkeypatch.setattr(EngineContext, "find_generators", identity_only)
    with pytest.raises(AssertionError, match="cosets of the centre do not tile"):
        count_class(ctx, h)


def test_medial_commuting_test_runs_once_per_centre_coset(monkeypatch):
    g = parse_group("C4xC2xC2")
    A = aut_group(g)
    ctx = EngineContext(g, A)
    widths = []
    real = _engine._commuting

    def spy(ft, gp, img, cols):
        widths.append(cols.shape[1])
        return real(ft, gp, img, cols)

    monkeypatch.setattr(_engine, "_commuting", spy)
    checked = 0
    for h in conjugacy_class_reps(A).representatives:
        c_size = len(ctx.centralizer_members(h))
        widths.clear()
        res = count_class(ctx, h)
        centre = res.class_sizes.count(1)
        if c_size == len(A) or centre == len(res.reps):
            continue
        # the first call scans C(h), the second checks the singleton terms
        # against C(h)'s generators
        assert widths[2:] and set(widths[2:]) == {c_size // centre}, h
        checked += 1
    assert checked > 0


def test_local_class_labels_refuse_a_conjugate_outside_the_centralizer(monkeypatch):
    ctx, h = _noncentral_rep("C2^4")
    members, cols, cgens = _engine._centralizer(ctx, h)
    h_pos = int(np.searchsorted(members, h))
    # a non-member below the last member: a sorted search would place it silently
    outsider = int(np.setdiff1d(np.arange(members[-1]), members)[0])
    real = _engine._member_products

    def one_outsider(*args, **kwargs):
        out = real(*args, **kwargs)
        out[(h_pos + 1) % len(out)] = outsider  # not at h's position
        return out

    monkeypatch.setattr(_engine, "_member_products", one_outsider)
    with pytest.raises(AssertionError, match="conjugation left the centralizer"):
        _engine._local_class_labels(ctx, h, members, cols, cgens)


@pytest.mark.parametrize("desc", ["C4xC4xC2", "C11xC11", "C8xC2xC2xC2"])
@pytest.mark.parametrize(
    "limit, value",
    [
        ("_MEDIAL_ROWS", 1),  # every medial run one term
        ("_CHUNK_ROWS", 1000),  # one term per run, and the centralizer scans in blocks
    ],
)
def test_medial_chunks_change_nothing(desc, limit, value, monkeypatch):
    g = parse_group(desc)
    A = aut_group(g)
    reps = conjugacy_class_reps(A).representatives
    default = [count_class(EngineContext(g, A), h) for h in reps]
    monkeypatch.setattr(_engine, limit, value)
    ctx = EngineContext(g, A)
    assert [count_class(ctx, h) for h in reps] == default


def test_fixed_point_numerators_must_divide_by_n(monkeypatch):
    g = parse_group("C3xC3")
    # one coset too many for every subgroup, |ker(h - 1)| among them
    extra = property(lambda self: self._counts[: len(self)] + 1)
    monkeypatch.setattr(SubgroupRegistry, "counts", extra)
    with pytest.raises(AssertionError, match="not divisible by n"):
        enumerate_counts(g, aut_group(g))


def test_group_totals_must_divide_by_the_group_order(monkeypatch):
    real = _engine.count_class
    g = parse_group("C3xC3")
    A = aut_group(g)

    perturbed = []

    def one_more(ctx, h):
        res = real(ctx, h)
        if perturbed or res.centralizer_order == len(A):
            return res
        perturbed.append(h)
        # a proper class's singleton term: one more fixed point adds
        # |Aut| / |C(h)| to the numerator, which is not a multiple of |Aut|
        i = res.class_sizes.index(1)
        fixed = res.fixed[:i] + [res.fixed[i] + 1] + res.fixed[i + 1 :]
        return dataclasses.replace(res, fixed=fixed)

    monkeypatch.setattr(_engine, "count_class", one_more)
    with pytest.raises(AssertionError, match=r"whole counts over \|Aut\|"):
        enumerate_counts(g, A)
    assert perturbed


def test_central_medial_terms_must_match_their_fixed_terms(monkeypatch):
    real = _engine.count_class
    g = parse_group("C3xC3")
    A = aut_group(g)

    def one_more(ctx, h):
        res = real(ctx, h)
        if h != A.identity_index:
            return res
        # f alone in its class of a central h: the term filled from C(f)'s
        # classes must come back to the fixed term
        i = res.class_sizes.index(1)
        fixed = res.fixed[:i] + [res.fixed[i] + 1] + res.fixed[i + 1 :]
        return dataclasses.replace(res, fixed=fixed)

    monkeypatch.setattr(_engine, "count_class", one_more)
    with pytest.raises(AssertionError, match="a central medial term disagrees with its fixed term"):
        enumerate_counts(g, A)


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_centralizer_is_scanned_once_per_enumeration(monkeypatch, tmp_path, jobs):
    g = parse_group("C3xC3")
    A = aut_group(g)
    scans = tmp_path / "scans"
    real = EngineContext.centralizer_mask

    def spy(self, f):
        # appended to a file, which the forked pool workers write to as well
        with open(scans, "a") as out:
            out.write(f"{os.getpid()} {f}\n")
        time.sleep(0.02)  # holds the scanning worker, so that both draw classes
        return real(self, f)

    monkeypatch.setattr(_engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(EngineContext, "centralizer_mask", spy)
    counts = enumerate_counts(g, A, jobs=jobs)
    rows = [line.split() for line in scans.read_text().splitlines()]
    assert sorted(int(f) for _, f in rows) == sorted(r.rep for r in counts.class_results)
    pids = {int(pid) for pid, _ in rows}
    assert len(pids) == jobs
    assert (os.getpid() in pids) == (jobs == 1)


def _triples(desc, jobs=1):
    g = parse_group(desc)
    A = aut_group(g)
    return [
        (A.index_of(t.phi), A.index_of(t.psi), g.index_of(t.c), t.medial)
        for t in classify_representatives(g, jobs=jobs)
    ]


def test_classification_is_unchanged():
    assert _triples("C2xC2") == [
        (0, 0, 0, True), (0, 1, 0, True), (0, 3, 0, True), (1, 0, 0, True),
        (1, 1, 0, True), (1, 2, 0, True), (1, 2, 1, True), (1, 3, 0, False),
        (1, 3, 1, False), (3, 0, 0, True), (3, 1, 0, False), (3, 1, 1, False),
        (3, 3, 0, True), (3, 4, 0, False), (3, 4, 1, False),
    ]
    digest = hashlib.md5(repr(_triples("C3xC3")).encode()).hexdigest()
    assert digest == "95236a84fc82367b2508f56fe7f34300"


def test_classification_through_the_pool_is_unchanged(monkeypatch):
    monkeypatch.setattr(_engine, "_usable_cpus", lambda: 2)
    digest = hashlib.md5(repr(_triples("C3xC3", jobs=2)).encode()).hexdigest()
    assert digest == "95236a84fc82367b2508f56fe7f34300"


def test_classification_is_checked_against_the_count_route(monkeypatch):
    real = _engine.process_class
    dropped = []

    def one_less(ctx, f):
        res = real(ctx, f)
        if dropped or len(res.triples) < 2:
            return res
        dropped.append(f)
        # consistent with itself: one triple and one class fewer
        return dataclasses.replace(res, triples=res.triples[1:], cq=res.cq - 1)

    monkeypatch.setattr(_engine, "process_class", one_less)
    with pytest.raises(AssertionError, match="classification does not match"):
        classify_representatives(parse_group("C3xC3"))
    assert dropped


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [
        (100_000, 2, 2),  # capped by the cores
        (100_000, 64, 8),  # capped by the 8 classes
        (3, 64, 3),
        # 64 cores, but the affinity mask allows one: no pool
        pytest.param(8, (64, 1), None, id="8-64-affinity1-None"),
        (2, None, None),  # no affinity mask, unknown core count: one process, no pool
        (1, 64, None),
    ],
)
def test_pool_size_is_capped(monkeypatch, jobs, cores, workers):
    # cores is the core count, or (core count, CPUs in the affinity mask)
    count, affinity = cores if isinstance(cores, tuple) else (cores, cores)
    g = parse_group("C3xC3")
    A = aut_group(g)
    serial = _fields(enumerate_counts(g, A))
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_engine, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_engine.os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(_engine.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(_engine.os, "sched_getaffinity", lambda pid: set(range(affinity)))
    assert _fields(enumerate_counts(g, A, jobs=jobs)) == serial
    assert _RecordingPool.sizes == ([] if workers is None else [workers])


def test_burnside_identity_is_checked(monkeypatch):
    real = _engine.count_class

    def off_by_one(ctx, h):
        res = real(ctx, h)
        return dataclasses.replace(res, centralizer_order=res.centralizer_order + 1)

    g = parse_group("C2xC2")
    counts = enumerate_counts(g, aut_group(g))
    assert counts.pair_orbits == sum(r.centralizer_order for r in counts.class_results)
    monkeypatch.setattr(_engine, "count_class", off_by_one)
    with pytest.raises(AssertionError, match="centralizer orders"):
        enumerate_counts(g, aut_group(g))


def test_progress_is_logged_per_class_in_the_pool(caplog):
    g = parse_group("C3xC3")
    caplog.set_level(logging.DEBUG, logger=_engine.__name__)
    k = enumerate_counts(g, aut_group(g), jobs=2).conj_classes
    done = [r.args[1:3] for r in caplog.records if " done (cq so far " in r.msg]
    assert k > 1
    assert done == [(i, k) for i in range(1, k + 1)]


def test_aut_wide_stages_never_build_the_tables(monkeypatch):
    from centralq import endo

    def refuse(aut):
        raise AssertionError("the action tables were built")

    A = aut_group(parse_group("C3^3"))
    monkeypatch.setattr(endo.AutGroup, "tables", property(refuse))
    reps = conjugacy_class_reps(A).representatives
    ctx = EngineContext(A.group, A)
    assert len(ctx.agens) > 0
    assert sorted(ctx.conj_perm(reps[-1]).tolist()) == list(range(len(A)))
    inverse = _inverse_perm(A.member_table(reps[-1]))
    assert A.member(reps[-1]).table.tolist() == inverse.argsort().tolist()
    assert "tables" not in vars(A)


def test_enumerate_counts_builds_the_tables_before_forking(monkeypatch):
    g = parse_group("C3xC3")
    A = aut_group(g)
    built_at_fork = []

    class Pool(_engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built_at_fork.append("tables" in vars(A))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(_engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_engine, "ProcessPoolExecutor", Pool)
    enumerate_counts(g, A, jobs=2)
    # the workers inherit the parent's one copy instead of each building its own
    assert built_at_fork == [True]
    assert "tables" in vars(A)


@pytest.mark.parametrize("desc", ["C2^3", "C3xC3", "C4xC4", "C4xC2xC2", "C4xC2xC3"])
def test_per_class_pair_orbits_match_the_oracle(desc):
    g = parse_group(desc)
    A = aut_group(g)
    for res in enumerate_counts(g, A, collect=True).class_results:
        cent = centralizer_indices(A, res.rep)
        part = orbit_reps_conjugation(A, cent, range(len(A)))
        assert res.pair_orbits == len(part)
        commuting = set(cent.tolist())
        assert res.commuting_pair_orbits == sum(r in commuting for r in part.representatives)


def test_orbit_labels_follow_inverses(monkeypatch):
    # one cycle numbered in increasing order along its permutation: pulling
    # labels along the permutation alone moves label 0 one point per round
    count = 100_000
    cycle = np.roll(np.arange(count), -1)
    rounds = 0
    real = np.array_equal

    def counting(a, b):
        nonlocal rounds
        rounds += 1
        if rounds > 64:
            raise AssertionError("label propagation took more than 64 rounds")
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", counting)
    labels = _orbit_min_labels([cycle], count)
    assert not labels.any()
    assert rounds <= 64


@pytest.mark.parametrize("desc", ["C2^4", "C3^3", "C4xC4xC2", "C8xC4xC2", "C11xC11", "C16"])
def test_class_sweep_matches_min_label_propagation(desc):
    # C16's Aut is abelian: every class is a singleton
    A = aut_group(parse_group(desc))
    ctx = EngineContext(A.group, A)
    labels = ctx.conjugacy_class_labels()
    expected = _orbit_min_labels([ctx.conj_perm(g) for g in ctx.agens], ctx.N)
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)
    if desc == "C16":
        assert np.array_equal(labels, np.arange(ctx.N))


def _block_perms(count, blocks, k, seed):
    # k random permutations, each mapping every block onto itself; the
    # blocks are random point sets, so orbits interleave in the numbering
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    cuts = np.sort(rng.choice(np.arange(1, count), blocks - 1, replace=False))
    perms = [np.empty(count, dtype=np.int64) for _ in range(k)]
    for block in np.split(order, cuts):
        for p in perms:
            p[block] = rng.permutation(block)
    return perms


@pytest.mark.parametrize(
    "perms",
    [
        [np.arange(500)],
        [np.roll(np.arange(2000), -1)],
        [np.roll(np.arange(2000), 1), np.arange(2000)],
        _block_perms(3000, 40, 2, 0),
        _block_perms(3000, 400, 3, 1),
        _block_perms(5000, 7, 1, 2),
    ],
    ids=["fixed", "cycle", "cycle-backward", "blocks-40", "blocks-400", "blocks-one-perm"],
)
def test_sweep_labels_match_min_label_propagation(perms):
    count = len(perms[0])
    assert np.array_equal(_sweep_labels(perms, count), _orbit_min_labels(perms, count))


def test_class_labels_never_invert_a_member_permutation(monkeypatch):
    A = aut_group(parse_group("C3^3"))
    ctx = EngineContext(A.group, A)
    assert ctx.N != A.group.order  # an n-long group-table inverse is allowed
    real = _engine._inverse_perm

    def refuse(p):
        if len(p) == ctx.N:
            raise AssertionError("an N-long permutation was inverted")
        return real(p)

    monkeypatch.setattr(_engine, "_inverse_perm", refuse)
    labels = ctx.conjugacy_class_labels()
    assert len(_engine._roots(labels)) == 24
