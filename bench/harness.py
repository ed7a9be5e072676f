"""Measurement loop: timed set-up, a warm-up, the closed loop, then output checks.

End-to-end figures come from a run with tracing off.  A traced run goes
through the same loop with the layer wrappers installed; afterwards it
replays the first ``min_calls`` calls untraced, so the run itself shows
that tracing left the outputs bit for bit the same.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import workloads
from tracing import Tracer, install

SETUP_REPEATS = 7

# name -> (unit, better); the benchmark's end-to-end metrics.
END_TO_END = {
    "results_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Measurement:
    setup_s: list[float]
    latencies_s: list[float]
    results: int
    scanned: int
    wall_s: float
    loop_t0: float
    loop_t1: float
    outputs: list[Any]
    failed_calls: int
    problems: list[tuple[int, str]] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        """Failed operations: calls that raised plus outputs that failed a check."""
        return self.failed_calls + len({i for i, _ in self.problems})

    def end_to_end(self) -> dict[str, float]:
        lat_ms = np.asarray(self.latencies_s) * 1000.0
        p50, p90 = np.percentile(lat_ms, [50, 90])
        return {
            "results_per_s": self.results / self.wall_s,
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def warm_up() -> None:
    """Touch every code path the workloads use once, on a tiny design."""
    from factorial_rerand import engine, simlab
    from factorial_rerand.criteria import AcceptanceRule, Tier

    x = workloads.normal_covariates(0, workloads.SMALL_SPEC.n, 2)
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.5),), p=2)
    obs = engine.rerandomize(x, workloads.SMALL_SPEC, rule, seed=0)
    y = x.entries.sum(axis=1)
    engine.randomization_test(y, obs.allocation, x, rule, ("A",), n_draws=100, seed=0, workers=2)
    model = simlab.OutcomeModel(effects={"A": 1.0}, beta=np.ones(2), target_r2=0.5)
    simlab.variance_study(workloads.SMALL_SPEC, x, rule, model, n_reps=100, seed=0)


def measure(workload: workloads.Workload, seconds: float, workdir_parent: Path,
            tracer: Tracer | None = None) -> Measurement:
    """Set up, run the closed loop for ``seconds`` (and at least ``min_calls``), check."""
    workload.prepare()
    warm_up()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=workdir_parent))
    try:
        if tracer is not None:
            install(tracer)
        try:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup(workdir)
                setup_s.append(time.perf_counter() - t0)
            m = _loop(workload, seconds, setup_s)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, out in enumerate(m.outputs):
        if out is not None:
            m.problems.extend((i, problem) for problem in workload.check(out))
    m.digest = workloads.digest_outputs(workload, m.outputs[: workload.min_calls])
    return m


def _loop(workload: workloads.Workload, seconds: float, setup_s: list[float]) -> Measurement:
    latencies: list[float] = []
    outputs: list[Any] = []
    results = scanned = failed = 0
    loop_t0 = time.perf_counter()
    deadline = loop_t0 + seconds
    i = 0
    while i < workload.min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            raw = workload.call(i)
        except workloads.OPERATION_ERRORS:
            latencies.append(time.perf_counter() - t0)
            outputs.append(None)
            failed += 1
        else:
            latencies.append(time.perf_counter() - t0)
            out = workload.keep(raw)
            outputs.append(out)
            results += workload.results(out)
            scanned += workload.scanned(out)
        i += 1
    loop_t1 = time.perf_counter()
    return Measurement(
        setup_s=setup_s,
        latencies_s=latencies,
        results=results,
        scanned=scanned,
        wall_s=loop_t1 - loop_t0,
        loop_t0=loop_t0,
        loop_t1=loop_t1,
        outputs=outputs,
        failed_calls=failed,
    )


def replay_digest(workload: workloads.Workload) -> str:
    """Digest of the first ``min_calls`` calls, run again without tracing."""
    outputs = []
    for i in range(workload.min_calls):
        try:
            outputs.append(workload.keep(workload.call(i)))
        except workloads.OPERATION_ERRORS:
            outputs.append(None)
    return workloads.digest_outputs(workload, outputs)
