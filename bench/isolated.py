"""Hot-path layers timed on their own, outside any workload.

``draw``, ``mean_diffs`` (one effect), ``distances`` and ``surviving`` run
at paper scale (n=1376) on 64- and 4096-row batches and at desk scale (n=64)
on 4096-row batches.  ``ordered_parallel_map`` runs against a plain serial
loop over the same batches, and both must give the same survivors.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from factorial_rerand import sampling
from factorial_rerand.balance import fit_covariance
from factorial_rerand.criteria import AcceptanceRule, Tier, resolve_thresholds
from factorial_rerand.design import build_design_matrix, expand_model_matrix

import workloads

CONFIGS = ("n1376_b64", "n1376_b4096", "n64_b4096")
KERNELS = ("draw", "mean_diffs", "distances", "surviving")
MAP_BATCHES = 8
MAP_ROWS = 1024
MAP_WORKERS = 2

METRICS: dict[str, str] = {
    **{f"isolated.{k}.{c}.ns_per_row": "ns" for k in KERNELS for c in CONFIGS},
    "isolated.map.serial_s": "s",
    "isolated.map.parallel_s": "s",
    "isolated.map.speedup": "ratio",
}


def _kernel(spec, x, rule) -> sampling.BalanceKernel:
    mm = expand_model_matrix(build_design_matrix(spec))
    return sampling.BalanceKernel(x, spec, mm, fit_covariance(x), resolve_thresholds(rule))


def _time_per_call(fn: Callable[[], object], min_calls: int = 3, min_s: float = 0.1) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(seed: int) -> tuple[dict[str, float], list[str]]:
    """Per-row times for each kernel and configuration, and the map comparison."""
    paper = _kernel(workloads.PAPER_SPEC, workloads.paper_covariates(seed), workloads.paper_rule())
    desk_rule = AcceptanceRule(tiers=(Tier("all", workloads.DESK_EFFECTS, joint_prob=0.1),), p=3)
    desk = _kernel(workloads.DESK_SPEC,
                   workloads.normal_covariates(seed, workloads.DESK_SPEC.n, 3), desk_rule)
    out: dict[str, float] = {}
    for config, kernel, rows in (("n1376_b64", paper, 64), ("n1376_b4096", paper, 4096),
                                 ("n64_b4096", desk, 4096)):
        rng = np.random.default_rng([seed, 3])
        combos = kernel.draw(rng, rows)
        diffs = kernel.mean_diffs(combos, "A")
        steps = {
            "draw": lambda: kernel.draw(rng, rows),
            "mean_diffs": lambda: kernel.mean_diffs(combos, "A"),
            "distances": lambda: kernel.distances(diffs),
            "surviving": lambda: kernel.surviving(combos),
        }
        for name, fn in steps.items():
            out[f"isolated.{name}.{config}.ns_per_row"] = _time_per_call(fn) / rows * 1e9

    def scan(b: int) -> np.ndarray:
        rng = sampling.batch_rng(seed, sampling.PURPOSE_REFERENCE, b)
        return paper.surviving(paper.draw(rng, MAP_ROWS))

    t0 = time.perf_counter()
    serial = [scan(b) for b in range(MAP_BATCHES)]
    out["isolated.map.serial_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = list(sampling.ordered_parallel_map(scan, range(MAP_BATCHES), MAP_WORKERS))
    out["isolated.map.parallel_s"] = time.perf_counter() - t0
    out["isolated.map.speedup"] = out["isolated.map.serial_s"] / out["isolated.map.parallel_s"]
    problems = []
    if len(parallel) != len(serial) or not all(
        np.array_equal(a, b) for a, b in zip(serial, parallel)
    ):
        problems.append("ordered_parallel_map gave other survivors than the serial loop")
    return out, problems
