"""Per-layer metrics of a traced run, computed from its spans.

Each metric names the end-to-end metric it should move (see NOTES.md).  Only
spans that start inside the measured loop count, except the ``fileio`` ones,
which come from set-up.  Flops and bytes are computed from array shapes, not
measured.  A layer or effect a workload does not reach reads 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

from factorial_rerand.criteria import chi2_cdf

from tracing import (
    FILEIO_FUNCTIONS,
    LAYERS,
    MAP_WAIT,
    SURVIVING,
    Tracer,
    layer_of,
    self_times,
    union_length,
)
from workloads import SCREENED_EFFECTS

# name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "sampling.draw.self_s": "s",
    "sampling.draw.candidates": "count",
    "sampling.draw.us_per_candidate": "us",
    "sampling.batch_rng.calls": "count",
    "sampling.batch_rng.self_s": "s",
    "sampling.mean_diffs.rows": "count",
    "sampling.mean_diffs.self_s": "s",
    "sampling.mean_diffs.ns_per_row": "ns",
    "sampling.mean_diffs.flops_computed": "flop",
    "sampling.mean_diffs.bytes_computed": "B",
    "sampling.distances.rows": "count",
    "sampling.distances.self_s": "s",
    "sampling.distances.ns_per_row": "ns",
    "sampling.surviving.candidates_in": "count",
    "sampling.surviving.survivors": "count",
    "sampling.surviving.self_s": "s",
    "sampling.surviving.effects_per_candidate": "count",
    **{f"sampling.surviving.pass_rate.{e}": "frac" for e in SCREENED_EFFECTS},
    **{f"sampling.surviving.pass_rate_chi2.{e}": "frac" for e in SCREENED_EFFECTS},
    "sampling.estimates.rows": "count",
    "sampling.estimates.self_s": "s",
    "simlab.per_survivor_s": "s",
    "sampling.map.items": "count",
    "sampling.map.busy_s": "s",
    "sampling.map.wait_s": "s",
    "sampling.map.parallel_efficiency": "frac",
    "engine.prepare_s": "s",
    "engine.post_accept_s": "s",
    "engine.candidates_scanned": "count",
    "engine.candidates_drawn": "count",
    "engine.useful_frac": "frac",
    "engine.candidates_per_result": "count",
    **{f"fileio.{fn}.{kind}": unit for fn in FILEIO_FUNCTIONS
       for kind, unit in (("s", "s"), ("bytes", "B"))},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}

ENGINE_CALLS = ("engine.rerandomize", "engine.randomization_test")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds, timed on a no-op through the same wrapper."""
    tracer = Tracer()
    noop = tracer.wrap("calibrate.noop", lambda: None, lambda result: (1,))
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    traced = time.perf_counter() - t0
    plain = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    return max(traced - (time.perf_counter() - t0), 0.0) / calls


def per_layer(tracer: Tracer, loop_t0: float, loop_t1: float, results: int, scanned: int,
              setup_repeats: int) -> dict[str, float]:
    spans = [s for s in tracer.spans if loop_t0 <= s[3] <= loop_t1]
    setup_spans = [s for s in tracer.spans if s[4] <= loop_t0 and s[2].startswith("fileio.")]
    own = self_times(spans)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s[3])

    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[2]
        self_s[name] += own[s[0]]
        layer_self[layer_of(name)] += own[s[0]]
        calls[name] += 1
        if s[5]:
            work[name] += s[5][0]

    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    draws = work["sampling.draw"]
    m["sampling.draw.self_s"] = self_s["sampling.draw"]
    m["sampling.draw.candidates"] = draws
    m["sampling.draw.us_per_candidate"] = _ratio(self_s["sampling.draw"], draws) * 1e6
    m["sampling.batch_rng.calls"] = calls["sampling.batch_rng"]
    m["sampling.batch_rng.self_s"] = self_s["sampling.batch_rng"]

    flops = nbytes = 0.0
    reached: dict[str, float] = defaultdict(float)
    passed: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[2] == "sampling.mean_diffs" and s[5]:
            rows, units, p, _label = s[5]
            flops += 2.0 * rows * units * p
            # int32 combination read, float64 sign gather written then read by
            # the matmul, covariates read, (rows, p) result written.
            nbytes += rows * units * (4 + 8 + 8) + units * p * 8 + rows * p * 8
        elif s[2] == SURVIVING and s[5]:
            stages = [c for c in children.get(s[0], ()) if c[2] == "sampling.mean_diffs" and c[5]]
            for k, stage in enumerate(stages):
                label = stage[5][3]
                reached[label] += stage[5][0]
                passed[label] += stages[k + 1][5][0] if k + 1 < len(stages) else s[5][1]
    rows = work["sampling.mean_diffs"]
    m["sampling.mean_diffs.rows"] = rows
    m["sampling.mean_diffs.self_s"] = self_s["sampling.mean_diffs"]
    m["sampling.mean_diffs.ns_per_row"] = _ratio(self_s["sampling.mean_diffs"], rows) * 1e9
    m["sampling.mean_diffs.flops_computed"] = flops
    m["sampling.mean_diffs.bytes_computed"] = nbytes
    rows = work["sampling.distances"]
    m["sampling.distances.rows"] = rows
    m["sampling.distances.self_s"] = self_s["sampling.distances"]
    m["sampling.distances.ns_per_row"] = _ratio(self_s["sampling.distances"], rows) * 1e9

    candidates_in = sum(s[5][0] for s in spans if s[2] == SURVIVING and s[5])
    m["sampling.surviving.candidates_in"] = candidates_in
    m["sampling.surviving.survivors"] = sum(s[5][1] for s in spans if s[2] == SURVIVING and s[5])
    m["sampling.surviving.self_s"] = self_s[SURVIVING]
    m["sampling.surviving.effects_per_candidate"] = _ratio(sum(reached.values()), candidates_in)
    for effect in SCREENED_EFFECTS:
        m[f"sampling.surviving.pass_rate.{effect}"] = _ratio(passed[effect], reached[effect])
        if effect in tracer.thresholds:
            m[f"sampling.surviving.pass_rate_chi2.{effect}"] = chi2_cdf(
                tracer.p, tracer.thresholds[effect])

    m["sampling.estimates.rows"] = work["sampling.estimates"]
    m["sampling.estimates.self_s"] = self_s["sampling.estimates"]
    # Statistics a study computes on the rows a screened batch kept.
    stats_s = survivors = 0.0
    for s in spans:
        if s[2] != "simlab.scan":
            continue
        kids = children.get(s[0], ())
        screens = [c for c in kids if c[2] == SURVIVING and c[5]]
        if not screens:
            continue
        survivors += sum(c[5][1] for c in screens)
        stats_s += sum(c[4] - c[3] for c in kids
                       if c[2] in ("sampling.mean_diffs", "sampling.estimates"))
    m["simlab.per_survivor_s"] = _ratio(stats_s, survivors)

    items = [s for s in spans if s[2].endswith(".scan")]
    busy = sum(s[4] - s[3] for s in items)
    capacity = sum((t1 - t0) * w for t0, t1, w in tracer.maps if loop_t0 <= t0 <= loop_t1)
    m["sampling.map.items"] = len(items)
    m["sampling.map.busy_s"] = busy
    m["sampling.map.wait_s"] = self_s[MAP_WAIT]
    m["sampling.map.parallel_efficiency"] = _ratio(busy, capacity)

    prepare = post = 0.0
    for s in spans:
        if s[2] not in ENGINE_CALLS:
            continue
        waits = [c for c in children.get(s[0], ()) if c[2] == MAP_WAIT]
        if not waits:
            continue
        prepare += waits[0][3] - s[3]
        if s[2] == "engine.rerandomize":
            post += s[4] - waits[-1][4]
    m["engine.prepare_s"] = prepare
    m["engine.post_accept_s"] = post
    m["engine.candidates_scanned"] = scanned
    m["engine.candidates_drawn"] = draws
    m["engine.useful_frac"] = _ratio(scanned, draws)
    m["engine.candidates_per_result"] = _ratio(draws, results)

    for s in setup_spans:
        fn = s[2].split(".", 1)[1]
        m[f"fileio.{fn}.s"] += (s[4] - s[3]) / setup_repeats
        if s[5]:
            m[f"fileio.{fn}.bytes"] += s[5][0]
    for fn in FILEIO_FUNCTIONS:
        m[f"fileio.{fn}.bytes"] = round(m[f"fileio.{fn}.bytes"] / setup_repeats)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    # File I/O happens in set-up, outside the loop; its functions have no
    # traced children, so their durations are their self times.
    m["fileio.self_s"] = sum(s[4] - s[3] for s in setup_spans) / setup_repeats

    roots = [(s[3], min(s[4], loop_t1)) for s in spans if s[1] is None]
    wall = loop_t1 - loop_t0
    m["trace.coverage"] = _ratio(union_length(roots), wall)
    m["trace.overhead_frac"] = _ratio(span_cost() * len(spans), wall)
    return m
