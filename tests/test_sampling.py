import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from oracles import mahalanobis_direct
from factorial_rerand import engine, sampling
from factorial_rerand.assignment import Allocation, expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile, fit_covariance
from factorial_rerand.criteria import (
    AcceptanceRule,
    Tier,
    accept,
    implied_acceptance_probability,
    resolve_thresholds,
)
from factorial_rerand.design import DesignSpec, Order, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import SingularCovariance


def test_batch_rng_streams_are_keyed_not_sequential():
    a = sampling.batch_rng(42, sampling.PURPOSE_RERANDOMIZE, 0).random(4)
    b = sampling.batch_rng(42, sampling.PURPOSE_RERANDOMIZE, 0).random(4)
    c = sampling.batch_rng(42, sampling.PURPOSE_RERANDOMIZE, 1).random(4)
    d = sampling.batch_rng(42, sampling.PURPOSE_REFERENCE, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_ordered_parallel_map_preserves_order():
    def slow_square(i):
        time.sleep(0.002 * ((7 - i) % 3))
        return i * i

    for workers in (1, 4):
        out = list(sampling.ordered_parallel_map(slow_square, range(12), workers))
        assert out == [i * i for i in range(12)]


def test_ordered_parallel_map_supports_early_break_on_infinite_input():
    def counter():
        i = 0
        while True:
            yield i
            i += 1

    seen = []
    for value in sampling.ordered_parallel_map(lambda i: i, counter(), workers=3):
        seen.append(value)
        if value >= 5:
            break
    assert seen == [0, 1, 2, 3, 4, 5]


def test_ordered_parallel_map_propagates_exceptions():
    def boom(i):
        if i == 3:
            raise RuntimeError("planted")
        return i

    with pytest.raises(RuntimeError, match="planted"):
        list(sampling.ordered_parallel_map(boom, range(6), workers=2))


def test_ordered_parallel_map_refuses_workers_above_the_limit(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    threads = threading.active_count()
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ValueError, match=f"at most {sampling.MAX_WORKERS}"):
        list(sampling.ordered_parallel_map(lambda i: i, range(3), 10**6))
    assert threading.active_count() == threads
    monkeypatch.undo()
    out = sampling.ordered_parallel_map(lambda i: i * i, range(3), sampling.MAX_WORKERS)
    assert list(out) == [0, 1, 4]


@pytest.fixture
def kernel_setup():
    rng = np.random.default_rng(31)
    spec = DesignSpec(k=2, r=4)
    mm = expand_model_matrix(build_design_matrix(spec))
    x = CovariateMatrix(rng.normal(size=(16, 3)), names=("u", "v", "w"))
    cm = fit_covariance(x)
    rule = AcceptanceRule(tiers=(Tier("t", ("A", "B", "AB"), joint_prob=0.3),), p=3)
    thresholds = resolve_thresholds(rule)
    kernel = sampling.BalanceKernel(x, spec, mm, cm, thresholds)
    return spec, mm, x, kernel, rule, thresholds


def test_kernel_draw_rows_are_balanced(kernel_setup):
    spec, _, _, kernel, _, _ = kernel_setup
    keys = kernel.draw(np.random.default_rng(0), 50)
    assert keys.shape == (50, 16) and keys.dtype.kind == "u" and keys.dtype.itemsize == 4
    combos = kernel.allocations(keys)
    assert combos.shape == (50, 16)
    for row in combos:
        assert np.bincount(row, minlength=5)[1:].tolist() == [4, 4, 4, 4]


def test_kernel_matches_reference_path(kernel_setup):
    spec, mm, x, kernel, rule, thresholds = kernel_setup
    keys = kernel.draw(np.random.default_rng(1), 32)
    combos = kernel.allocations(keys)
    effects = ("A", "B", "AB")
    m_block = kernel.all_distances(combos, effects)
    survivors = kernel.surviving(keys)
    assert np.array_equal(survivors, kernel.passing(combos))
    for i in range(32):
        alloc = Allocation(spec=spec, combo_of_unit=combos[i])
        w = expand_assignment(alloc, mm)
        profile = balance_profile(x, w, effects)
        for j, eff in enumerate(effects):
            d_kernel = kernel.mean_diffs(combos[i : i + 1], eff)[0]
            assert np.allclose(d_kernel, profile.d(eff), atol=1e-12)
            assert m_block[i, j] == pytest.approx(profile.m(eff), rel=1e-12)
        assert (i in survivors) == accept(profile, rule)


# Column scales of the paper's school-district battery: counts near 1e3 sit
# next to proportions near 1e-2.
SCALES = st.sampled_from([1e3, 1.0, 1e-2])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    r=st.integers(2, 5),
    p=st.integers(1, 4),
    scales=st.lists(SCALES, min_size=4, max_size=4),
    joint=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_scoring_route_gives_one_distance(k, r, p, scales, joint, seed):
    spec = DesignSpec(k=k, r=r)
    assume(spec.n >= p + 2)
    rng = np.random.default_rng(seed)
    # A random affine image of normal covariates, then mixed column scales.
    a = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
    loc = rng.uniform(-5.0, 5.0, size=p)
    entries = (rng.normal(size=(spec.n, p)) @ a + loc) * np.array(scales[:p])
    x = CovariateMatrix(entries, names=tuple(f"x{j}" for j in range(p)))
    try:
        cm = fit_covariance(x)
    except SingularCovariance:  # condition number above CONDITION_LIMIT
        reject()
    mm = expand_model_matrix(build_design_matrix(spec))
    effects = mm.effect_labels
    rule = AcceptanceRule(tiers=(Tier("all", effects, joint_prob=joint),), p=p)
    kernel = sampling.BalanceKernel(x, spec, mm, cm, resolve_thresholds(rule))

    limit = 24
    combos = kernel.allocations(
        kernel.draw(sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0), limit)
    )
    block = kernel.all_distances(combos, effects)
    accepted = []
    for i in range(limit):
        w = expand_assignment(Allocation(spec=spec, combo_of_unit=combos[i]), mm)
        profile = balance_profile(x, w, effects, cm=cm)
        for j, eff in enumerate(effects):
            m = profile.m(eff)
            routes = (
                block[i, j],
                kernel.distances(kernel.mean_diffs(combos[i : i + 1], eff))[0],
            )
            for route in routes:
                assert route == pytest.approx(m, rel=1e-12)
            direct = mahalanobis_direct(profile.d(eff), cm.matrix, spec.n)
            assert m == pytest.approx(direct, rel=1e-9)
        if accept(profile, rule):
            accepted.append(i)
    rng = sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0)
    positions, _ = kernel.screen(rng, limit, limit, lambda rows: rows)
    assert positions.tolist() == accepted


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 4),
    r=st.integers(1, 5),
    p=st.integers(1, 3),
    order=st.sampled_from(list(Order)),
    reversed_names=st.booleans(),
    kind=st.sampled_from(["all", "interactions", "skip_a_factor", "tier_per_effect"]),
    skip=st.integers(0, 3),
    joints=st.lists(st.floats(0.05, 0.95), min_size=15, max_size=15),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_by_factor_screen_matches_the_screen_of_finished_allocations(
    k, r, p, order, reversed_names, kind, skip, joints, seed
):
    names = tuple("ZYXW"[:k]) if reversed_names else None
    spec = DesignSpec(k=k, r=r, order=order, factor_names=names)
    assume(spec.n >= p + 2)
    mm = expand_model_matrix(build_design_matrix(spec))
    labels = mm.effect_labels
    if kind == "interactions":
        labels = tuple(lab for lab in labels if mm.interaction_order(lab) > 1)
    elif kind == "skip_a_factor":
        labels = tuple(lab for lab in labels if skip % k not in mm.factor_sets[mm.column_index(lab)])
    assume(labels)
    if kind == "tier_per_effect":
        tiers = tuple(Tier(lab, (lab,), joint_prob=j) for lab, j in zip(labels, joints))
    else:
        tiers = (Tier("all", labels, joint_prob=joints[0]),)
    x = CovariateMatrix(np.random.default_rng(seed).normal(size=(spec.n, p)),
                        names=tuple(f"x{j}" for j in range(p)))
    try:
        cm = fit_covariance(x)
    except SingularCovariance:
        reject()
    kernel = sampling.BalanceKernel(x, spec, mm, cm, resolve_thresholds(AcceptanceRule(tiers, p=p)))

    keys = kernel.draw(sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0), 96)
    combos = kernel.allocations(keys)
    for row in combos:
        assert np.all(np.bincount(row, minlength=spec.n_combinations + 1)[1:] == r)
    # Splitting only as far as each stage needs scores every effect on its
    # final signs, in the blocks a screen of the finished rows uses.
    alive = kernel.surviving(keys)
    assert np.array_equal(alive, kernel.passing(combos))
    rng = sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0)
    positions, rows = kernel.screen(rng, 96, 96, lambda rows: rows)
    assert np.array_equal(positions, alive)
    assert np.array_equal(rows, combos[alive])


def test_kernel_screen_order_most_selective_first(kernel_setup):
    spec, mm, x, _, _, _ = kernel_setup
    # The loose tier comes first in the rule; the tight tier still screens first.
    rule = AcceptanceRule(
        tiers=(Tier("loose", ("A",), joint_prob=0.9), Tier("tight", ("B", "AB"), joint_prob=0.1)),
        p=3,
    )
    thresholds = resolve_thresholds(rule)
    assert thresholds["B"] == thresholds["AB"] < thresholds["A"]
    kernel = sampling.BalanceKernel(x, spec, mm, fit_covariance(x), thresholds)
    assert kernel.screen_order == ["B", "AB", "A"]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    r=st.integers(2, 6),
    joint=st.floats(0.05, 0.9),
    prob=st.floats(0.001, 1.0),
    limit=st.integers(1, 400),
    need=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_matches_whole_batch_draw(k, r, joint, prob, limit, need, seed):
    spec = DesignSpec(k=k, r=r)
    mm = expand_model_matrix(build_design_matrix(spec))
    x = CovariateMatrix(np.random.default_rng(seed).normal(size=(spec.n, 2)), names=("u", "v"))
    rule = AcceptanceRule(tiers=(Tier("all", mm.effect_labels, joint_prob=joint),), p=2)
    kernel = sampling.BalanceKernel(x, spec, mm, fit_covariance(x), resolve_thresholds(rule))
    # The chunk sizing reads the kernel's acceptance probability; any value
    # must give the same survivors.
    kernel.prob = prob

    whole = kernel.draw(sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0), limit).copy()
    alive = kernel.surviving(whole)
    rng = sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0)
    positions, rows = kernel.screen(rng, limit, need, lambda rows: rows)
    # A prefix of the whole batch's survivors, stopping only once enough passed.
    assert positions.size >= min(need, alive.size)
    assert np.array_equal(positions, alive[: positions.size])
    assert np.array_equal(rows, kernel.allocations(whole)[positions])


def test_kernel_prob_is_the_rules_implied_acceptance_probability(kernel_setup):
    spec, mm, x, kernel, rule, _ = kernel_setup
    assert kernel.prob == implied_acceptance_probability(rule)
    assert sampling.BalanceKernel(x, spec, mm, kernel.cm, thresholds={}).prob == 1.0


def test_pure_stream_draws_the_first_rows_of_each_batch(kernel_setup, monkeypatch):
    # A pure draw is a screen with no thresholds: every row survives.
    spec, mm, x, kernel, _, _ = kernel_setup
    pure = sampling.BalanceKernel(x, spec, mm, kernel.cm, thresholds={})
    monkeypatch.setattr(sampling, "STUDY_BATCH", 32)
    got, scanned = sampling.collect(
        pure, lambda rows: rows, 7, sampling.PURPOSE_CALIBRATE, 75, 75, 2
    )
    whole = [
        kernel.draw(sampling.batch_rng(7, sampling.PURPOSE_CALIBRATE, b), 32).copy()
        for b in range(3)
    ]
    assert np.array_equal(got, kernel.allocations(np.concatenate(whole))[:75])
    assert scanned == 75


def test_no_draw_exceeds_max_chunk(kernel_setup, monkeypatch):
    spec, mm, x, kernel, _, _ = kernel_setup
    cap = sampling.MAX_CHUNK
    limit = 3 * cap + 37
    whole = kernel.draw(sampling.batch_rng(5, sampling.PURPOSE_REFERENCE, 0), limit).copy()
    alive = kernel.surviving(whole)
    batch, n = 2 * cap + 10, 3 * cap
    pure = kernel.allocations(np.concatenate([
        kernel.draw(sampling.batch_rng(9, sampling.PURPOSE_CALIBRATE, b), batch).copy()
        for b in range(2)
    ])[:n])
    sizes = []
    draw = sampling.BalanceKernel.draw

    def recording_draw(self, rng, size):
        sizes.append(size)
        return draw(self, rng, size)

    monkeypatch.setattr(sampling.BalanceKernel, "draw", recording_draw)
    scored = []

    def score(rows):
        scored.append(rows.shape[0])
        return rows

    rng = sampling.batch_rng(5, sampling.PURPOSE_REFERENCE, 0)
    positions, rows = kernel.screen(rng, limit, limit, score)
    assert sizes == [cap, cap, cap, 37]
    assert np.array_equal(positions, alive)
    assert np.array_equal(rows, kernel.allocations(whole[alive]))
    # Survivors are scored once they fill a chunk, and at the end.
    assert sum(scored) == alive.size and all(s >= cap for s in scored[:-1])

    no_screen = sampling.BalanceKernel(x, spec, mm, kernel.cm, thresholds={})
    monkeypatch.setattr(sampling, "STUDY_BATCH", batch)
    for workers in (1, 2):
        sizes.clear()
        scored.clear()
        got, _ = sampling.collect(no_screen, score, 9, sampling.PURPOSE_CALIBRATE, n, n, workers)
        # One score per chunk: batch 0 is 1034 rows, batch 1 the 502 left.
        # Two threads may score the two batches in either order.
        assert sorted(scored) == sorted([cap, cap, 10, cap - 10])
        if workers == 1:
            assert scored == [cap, cap, 10, cap - 10]
        assert sorted(sizes) == [10, cap - 10, cap, cap]
        assert np.array_equal(got, pure)


def _paper_covariates():
    return CovariateMatrix(
        np.random.default_rng(43).normal(size=(1376, 9)), names=tuple(f"x{j}" for j in range(9))
    )


@pytest.fixture(scope="module")
def paper_kernel():
    spec = DesignSpec(k=5, r=43)
    mm = expand_model_matrix(build_design_matrix(spec))
    x = _paper_covariates()
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", ("A", "B", "C", "D", "E"), joint_prob=0.01),
            Tier("two_way", ("AB", "AC", "AD", "AE", "BC", "BD", "BE", "CD", "CE", "DE"),
                 joint_prob=0.1),
        ),
        p=9,
    )
    return sampling.BalanceKernel(x, spec, mm, fit_covariance(x), resolve_thresholds(rule))


def test_paper_scale_screen_matches_the_screen_of_finished_allocations(paper_kernel):
    # The hypothesis screen test stops at K <= 4, r <= 5; this is the paper's
    # design and rule, whose first stage is scored from its median mask.
    spec, mm = DesignSpec(k=5, r=43), paper_kernel.mm
    x = _paper_covariates()
    mains = ("A", "B", "C", "D", "E")
    for seed in range(100):
        keys = paper_kernel.draw(sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, 0), 64)
        combos = paper_kernel.allocations(keys)
        alive = paper_kernel.surviving(keys)
        assert np.array_equal(alive, paper_kernel.passing(combos)), seed
        block = paper_kernel.all_distances(combos, mains)
        for i in {0, *alive.tolist()}:
            w = expand_assignment(Allocation(spec=spec, combo_of_unit=combos[i]), mm)
            profile = balance_profile(x, w, mains, cm=paper_kernel.cm)
            for j, eff in enumerate(mains):
                assert block[i, j] == pytest.approx(profile.m(eff), rel=1e-12), (seed, i, eff)


FAULT_GUARD = """
import resource
import numpy as np
from factorial_rerand import engine, simlab
from factorial_rerand.balance import CovariateMatrix
from factorial_rerand.criteria import AcceptanceRule, Tier
from factorial_rerand.design import DesignSpec

small = DesignSpec(k=2, r=8)
x = CovariateMatrix(np.random.default_rng(1).normal(size=(small.n, 2)), names=("u", "v"))
rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.5),), p=2)
obs = engine.rerandomize(x, small, rule, seed=0).allocation
engine.randomization_test(x.entries.sum(axis=1), obs, x, rule, ("A",), n_draws=100, seed=0,
                          workers=2)
model = simlab.OutcomeModel(effects={"A": 1.0}, beta=np.ones(2), target_r2=0.5)
simlab.variance_study(small, x, rule, model, n_reps=100, seed=0)

spec = DesignSpec(k=5, r=43)
x = CovariateMatrix(np.random.default_rng(2).normal(size=(spec.n, 9)),
                    names=tuple(f"x{j}" for j in range(9)))
rule = AcceptanceRule(
    tiers=(Tier("mains", ("A", "B", "C", "D", "E"), joint_prob=0.01),
           Tier("two_way", ("AB", "AC", "AD", "AE", "BC", "BD", "BE", "CD", "CE", "DE"),
                joint_prob=0.1)),
    p=9,
)
engine.rerandomize(x, spec, rule, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
# Kept, as a loop that collects its results keeps them: where they sit in
# the heap decides what a freed block leaves at its top for glibc to trim.
results = [engine.rerandomize(x, spec, rule, seed=seed) for seed in range(1, 31)]
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(results))
"""


def test_paper_scale_calls_fault_in_no_fresh_blocks():
    # A chunk that allocates a block of glibc's mmap threshold (128 KB) or
    # more gets it mapped fresh, or carved from a heap top that glibc trims
    # again once enough is freed there, and faults its pages in anew: a
    # 64-row paper-scale draw alone is 352 KB, about 88 pages, and an intp
    # index over its rows twice that.  A fresh interpreter, so the count does
    # not depend on the heap history of the tests run before this one.
    pytest.importorskip("resource")  # the child process counts its faults with it
    paths = [str(Path(sampling.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", FAULT_GUARD], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    # Measured on Linux (glibc, numpy 2.4): 12 to 22, moving with the heap
    # layout the interpreter starts with; about 300 with a fresh median index
    # per split, and about 480 with a fresh draw per chunk as well.
    assert float(out.stdout) <= 50


def test_long_rows_draw_fewer_rows_per_chunk(paper_kernel, monkeypatch):
    # 1376 keys a row: a chunk holds at most CHUNK_KEYS keys.
    most = sampling.CHUNK_KEYS // paper_kernel.n
    assert sampling.MIN_CHUNK < most < sampling.MAX_CHUNK
    sizes = []
    draw = sampling.BalanceKernel.draw

    def recording_draw(self, rng, size):
        sizes.append(size)
        return draw(self, rng, size)

    monkeypatch.setattr(sampling.BalanceKernel, "draw", recording_draw)
    paper_kernel.screen(np.random.default_rng(3), 3 * most + 5, 10, lambda rows: rows)
    assert sizes == [most, most, most, 5]


def test_mean_diffs_gathers_into_the_threads_sign_buffer(paper_kernel):
    combos = paper_kernel.allocations(
        paper_kernel.draw(np.random.default_rng(0), sampling.MAX_CHUNK)
    )
    block = combos.shape[0] * combos.shape[1] * np.dtype(np.float64).itemsize
    paper_kernel.mean_diffs(combos, "A", paper_kernel.white)  # sizes the buffer
    tracemalloc.start()
    try:
        paper_kernel.mean_diffs(combos, "B", paper_kernel.white)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block / 8


def test_threads_scoring_one_kernel_get_the_serial_results(paper_kernel):
    # More threads than cores, on blocks of different sizes, so a sign
    # buffer or key buffer shared between threads would be overwritten
    # mid-score and regrown.
    blocks = [paper_kernel.draw(np.random.default_rng(s), rows).copy()
              for s, rows in enumerate((8, 64, 64, 200))]
    combos = [paper_kernel.allocations(b) for b in blocks]
    serial = [
        ([paper_kernel.mean_diffs(c, lab) for lab in ("A", "AB")], paper_kernel.surviving(b))
        for b, c in zip(blocks, combos)
    ]
    # A result is the caller's own: a later gather leaves it unchanged.
    first = paper_kernel.mean_diffs(combos[0], "A")
    kept = first.copy()
    paper_kernel.mean_diffs(combos[1], "A")
    assert np.array_equal(first, kept)

    def score(i):
        diffs = [paper_kernel.mean_diffs(combos[i], lab) for lab in ("A", "AB")]
        alive = paper_kernel.surviving(blocks[i])
        return (all(np.array_equal(d, s) for d, s in zip(diffs, serial[i][0]))
                and np.array_equal(alive, serial[i][1]))

    assert _mismatches_in_threads(score, range(len(blocks)), 20) == []


def test_threads_sharing_a_prepared_kernel_get_the_serial_results():
    # Two threads rerandomize the same inputs with different seeds, over the
    # one kernel the engine prepared for them, each call several batches long.
    spec = DesignSpec(k=3, r=8)
    x = CovariateMatrix(np.random.default_rng(17).normal(size=(spec.n, 3)), names=("a", "b", "c"))
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B", "C"), joint_prob=0.005),), p=3)
    seeds = (34, 36)
    serial = {s: engine.rerandomize(x, spec, rule, seed=s) for s in seeds}
    assert min(r.draws_attempted for r in serial.values()) > 2 * sampling.ENGINE_BATCH
    kernel = engine._prepare(x, spec, rule)

    def run(seed):
        result = engine.rerandomize(x, spec, rule, seed=seed)
        return (np.array_equal(result.allocation.combo_of_unit,
                               serial[seed].allocation.combo_of_unit)
                and result.draws_attempted == serial[seed].draws_attempted
                and result.profile.distances == serial[seed].profile.distances)

    assert _mismatches_in_threads(run, seeds, 10) == []
    assert engine._prepare(x, spec, rule) is kernel


def _mismatches_in_threads(check, cases, rounds):
    """Run ``check(case)`` ``rounds`` times in one thread per case, switching
    threads as often as the interpreter allows; the cases whose check failed."""
    mismatches = []

    def work(case):
        for _ in range(rounds):
            if not check(case):
                mismatches.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(case,)) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return mismatches


def test_closing_the_map_after_one_result_starts_at_most_workers_more_items():
    for workers in (2, 4):
        started = []

        def slow(i):
            started.append(i)
            time.sleep(0.02)
            return i

        threads = threading.active_count()
        results = sampling.ordered_parallel_map(slow, itertools.count(), workers)
        assert next(results) == 0
        results.close()
        assert len(started) - 1 <= workers
        assert threading.active_count() == threads


def _reference_scan(kernel, seed, n, workers):
    """A paper-scale reference scan: each draw's effect estimates on fixed outcomes."""
    y = np.random.default_rng(5).normal(size=kernel.n)
    lookups = [kernel.sign_lookup(lab) for lab in ("A", "B", "AB")]

    def statistics(rows):
        return np.column_stack([np.einsum("bn,n->b", s[rows], y) for s in lookups])

    return sampling.collect(kernel, statistics, seed, sampling.PURPOSE_REFERENCE, n,
                            50 * sampling.STUDY_BATCH, workers)


def test_collect_stops_drawing_once_the_call_has_its_draws(paper_kernel, monkeypatch):
    # Twenty draws at joint acceptance 0.001 span three 4096-row batches.
    # The results are the same for any ``workers``; a serial call draws no
    # batch past the completing one; with a pool, at most one chunk per
    # worker is drawn once the call has its draws, and no thread is left.
    most = sampling.CHUNK_KEYS // paper_kernel.n
    drawn = []
    draw = sampling.BalanceKernel.draw

    def counting_draw(self, rng, size):
        drawn.append(size)
        return draw(self, rng, size)

    at_close = []
    parallel_map = sampling.ordered_parallel_map

    def marking_map(fn, items, workers):
        # Not ``yield from``: closing that would close the pool's generator,
        # and wait for its batches, before this ``finally`` counts the rows.
        results = parallel_map(fn, items, workers)
        try:
            for result in results:
                yield result
        finally:
            at_close.append(sum(drawn))
            results.close()

    monkeypatch.setattr(sampling.BalanceKernel, "draw", counting_draw)
    monkeypatch.setattr(sampling, "ordered_parallel_map", marking_map)
    threads = threading.active_count()
    serial, scanned = _reference_scan(paper_kernel, 8, 20, 1)
    assert scanned > 2 * sampling.STUDY_BATCH
    assert sum(drawn) == -(-scanned // sampling.STUDY_BATCH) * sampling.STUDY_BATCH
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4):
            drawn.clear()
            at_close.clear()
            table, scanned_w = _reference_scan(paper_kernel, 8, 20, workers)
            assert np.array_equal(table, serial) and scanned_w == scanned
            assert sum(drawn) - at_close[0] <= workers * most
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


def test_a_chunk_without_survivors_is_not_finished(paper_kernel, monkeypatch):
    finished = []
    finish = sampling.BalanceKernel._finish

    def recording_finish(self, keys):
        finished.append(keys.shape[0])
        return finish(self, keys)

    monkeypatch.setattr(sampling.BalanceKernel, "_finish", recording_finish)
    positions, rows = paper_kernel.screen(
        np.random.default_rng(2), 4 * sampling.MIN_CHUNK, 1, lambda rows: rows
    )
    assert positions.size == 0 and rows.shape == (0, paper_kernel.n)
    assert 0 not in finished
