"""Benchmark of the factorial_rerand rerandomizer.

Run from the root of a checkout:

    python3 bench/run.py --workload allocate-paper --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it wraps every layer, reports the per-layer metrics, replays
the first calls untraced to show the outputs are unchanged, runs the
isolated layer timings and writes the spans to ``bench/traces/``.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "factorial_rerand"
WORKLOAD_NAMES = ("allocate-paper", "reference-paper", "study-desk", "inference-desk")
# One BLAS thread per worker keeps workers x BLAS threads <= nproc for every
# workload.  Measured on a 2-core Xeon: a 100-draw paper-scale test at
# workers=2 took 9.2 s with two BLAS threads and 5.7 s with one.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def machine_record() -> dict[str, object]:
    """nproc, CPU model, cache sizes, interpreter and library versions, BLAS."""
    import numpy
    import scipy

    record: dict[str, object] = {"nproc": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        record["cpu"] = platform.processor() or "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            record[f"L{level}"] = size
    record["python"] = platform.python_version()
    record["numpy"] = numpy.__version__
    record["scipy"] = scipy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    record["blas_threads"] = {var: os.environ.get(var) for var in BLAS_ENV}
    return record


def write_trace(tracer, workload: str, seed: int) -> Path:
    out_dir = BENCH_DIR / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json.gz"
    payload = {"workload": workload, "seed": seed,
               "fields": ["id", "parent", "name", "t0", "t1", "work"],
               "spans": tracer.spans,
               "maps": tracer.maps}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import factorial_rerand

    if Path(factorial_rerand.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported factorial_rerand from {factorial_rerand.__file__}", file=sys.stderr)
        return 2

    import harness
    import isolated
    import layers
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workers = min(workload.workers, os.cpu_count() or 1)
    workload.workers = workers
    tracer = Tracer() if args.trace else None
    m = harness.measure(workload, args.seconds, BENCH_DIR, tracer)

    lines = [f"machine {json.dumps(machine_record())}",
             f"workload {workload.name} seed {args.seed} workers {workers} "
             f"calls {m.attempted} results {m.results} loop_s {m.wall_s:.3f}",
             f"digest first {workload.min_calls} calls {m.digest}",
             f"error_rate {m.failed / m.attempted:.6g} ({m.failed} of {m.attempted})"]
    problems = [f"call {i}: {p}" for i, p in m.problems]
    if args.trace:
        replayed = harness.replay_digest(workload)
        lines.append(f"digest untraced replay {replayed}")
        if replayed != m.digest:
            problems.append("tracing changed the outputs: digests differ")
        metrics = layers.per_layer(tracer, m.loop_t0, m.loop_t1, m.results, m.scanned,
                                   harness.SETUP_REPEATS)
        iso, iso_problems = isolated.run(args.seed)
        metrics.update(iso)
        problems.extend(iso_problems)
        lines.append(f"trace {write_trace(tracer, workload.name, args.seed).relative_to(ROOT)} "
                     f"spans {len(tracer.spans)}")
        units = {**layers.PER_LAYER, **isolated.METRICS}
    else:
        metrics = m.end_to_end()
        units = {name: unit for name, (unit, _better) in harness.END_TO_END.items()}
    for line in lines:
        print(line)
    for problem in problems:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
