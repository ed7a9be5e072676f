"""Tests of the benchmark itself: span arithmetic, tracing, failure counting, contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import isolated
import layers
import workloads
from tracing import Tracer, self_times, union_length

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_on_hand_built_span_tree():
    # root 0..10 with children a 1..4 and b 3..6 (overlapping, as two pool
    # threads would be) and c 9..12 (clipped to the root); a has child d 2..3.
    spans = [
        (1, None, "engine.root", 0.0, 10.0, ()),
        (2, 1, "sampling.a", 1.0, 4.0, ()),
        (3, 1, "sampling.b", 3.0, 6.0, ()),
        (4, 1, "sampling.c", 9.0, 12.0, ()),
        (5, 2, "balance.d", 2.0, 3.0, ()),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0}
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == 3.0


def test_tracing_leaves_digests_unchanged(tmp_path):
    plain = workloads.InferenceDesk(seed=3)
    traced = workloads.InferenceDesk(seed=3)
    # Two workers send the scans through the thread pool, so spans are
    # recorded from several threads at once.
    plain.workers = traced.workers = 2
    tracer = Tracer()
    m_plain = harness.measure(plain, 0.0, tmp_path)
    m_traced = harness.measure(traced, 0.0, tmp_path, tracer)
    assert m_plain.digest == m_traced.digest
    assert not m_plain.problems and not m_traced.problems
    assert harness.replay_digest(traced) == m_traced.digest

    names = {s[2] for s in tracer.spans}
    for name in ("engine.rerandomize", "engine.randomization_test", "engine.scan",
                 "sampling.draw", "sampling.surviving", "sampling.map.wait",
                 "balance.fit_covariance", "criteria.resolve_thresholds",
                 "design.expand_model_matrix", "assignment.expand_assignment",
                 "fileio.read_covariates"):
        assert name in names
    metrics = layers.per_layer(tracer, m_traced.loop_t0, m_traced.loop_t1, m_traced.results,
                               m_traced.scanned, harness.SETUP_REPEATS)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["sampling.draw.candidates"] == metrics["engine.candidates_drawn"] > 0
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    # The wrappers are gone once the run ends.
    from factorial_rerand import engine, sampling

    assert not hasattr(engine.rerandomize, "__wrapped__")
    assert not hasattr(sampling.BalanceKernel.draw, "__wrapped__")


def test_max_draws_exceeded_counts_as_failed_operation(tmp_path):
    workload = workloads.AllocatePaper(seed=0, max_draws=1)
    m = harness.measure(workload, 0.0, tmp_path)
    assert m.attempted == workload.min_calls
    assert m.failed == m.attempted
    assert m.results == 0
    assert m.end_to_end()["results_per_s"] == 0.0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    per_layer = {**layers.PER_LAYER, **isolated.METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces", "work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "allocate-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
