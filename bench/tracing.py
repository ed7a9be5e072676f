"""Span recorder for the traced benchmark run, wrapped around the package's layers.

The package is not instrumented itself.  Instead ``install`` replaces the
public entry points of each layer with timing wrappers, at the module where
the caller looks the name up: ``engine`` and ``simlab`` import
``fit_covariance``, ``balance_profile``, ``accept`` and others by name, so
those names are wrapped inside ``engine`` and ``simlab``, not in the module
that defines them.  ``uninstall`` puts every original back.

A span is ``(id, parent, name, t0, t1, work)``; ``name`` starts with the
layer (``sampling.draw`` belongs to ``sampling``) and ``work`` holds the
counts recorded at that boundary (rows, bytes).  Spans stay in memory until
the run ends.  The recorder is thread-safe: every thread keeps its own stack
of open spans, and the pool threads of ``ordered_parallel_map`` parent their
spans to the span that started the map.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# Layers in the order the report lists them.
LAYERS = ("engine", "simlab", "sampling", "balance", "criteria", "design", "assignment", "fileio")

# Names each calling module looks up at run time, with the layer that defines them.
_IMPORTED_NAMES = {
    "engine": {
        "fit_covariance": "balance",
        "balance_profile": "balance",
        "accept": "criteria",
        "resolve_thresholds": "criteria",
        "implied_acceptance_probability": "criteria",
        "build_design_matrix": "design",
        "expand_model_matrix": "design",
        "expand_assignment": "assignment",
    },
    "simlab": {
        "fit_covariance": "balance",
        "resolve_thresholds": "criteria",
        "implied_acceptance_probability": "criteria",
        "variance_factor": "criteria",
        "build_design_matrix": "design",
        "expand_model_matrix": "design",
    },
    "sampling": {
        "combination_multiset": "assignment",
        "chi2_cdf": "criteria",
    },
}

FILEIO_FUNCTIONS = (
    "write_covariates",
    "read_covariates",
    "write_thresholds",
    "read_thresholds",
    "write_allocation",
    "read_allocation",
    "write_outcomes",
    "read_outcomes",
)

MAP_WAIT = "sampling.map.wait"
SURVIVING = "sampling.surviving"


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # Map lifetimes (t0, t1, workers): they overlap the caller's own work
        # between results, so they are kept out of the span tree.
        self.maps: list[tuple[float, float, int]] = []
        self.thresholds: dict[str, float] = {}
        self.p = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             work: Callable[..., tuple] | None = None, parent: int | None = None) -> Any:
        """Run ``fn`` inside a span; ``work(result, *args, **kwargs)`` gives its counts."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, name))
        result = None
        done = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            counts: tuple = ()
            if done and work is not None:
                try:
                    counts = work(result, *args, **kwargs)
                except (TypeError, AttributeError, IndexError):
                    # A later package version changed the call's signature:
                    # keep the span, drop its counts.
                    counts = ()
            with self._lock:
                self.spans.append((sid, parent, name, t0, t1, counts))

    def note_rule(self, thresholds: dict[str, float], p: int) -> None:
        """Keep the screen's thresholds, for the chi-squared pass-rate predictions."""
        with self._lock:
            if not self.p:
                self.thresholds.update(thresholds)
                self.p = int(p)

    def wrap(self, name: str, fn: Callable, work: Callable[..., tuple] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, work)

        return traced

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr``; names a later version of the package dropped are skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def traced_map(self, original: Callable) -> Callable:
        """Wrap ``ordered_parallel_map``: one span per item and per wait for a result."""
        tracer = self

        @functools.wraps(original)
        def traced(fn: Callable, items: Iterable, workers: int):
            owner = tracer.current()
            owner_id = owner[0] if owner else None
            item_name = (owner[1].split(".")[0] if owner else "sampling") + ".scan"

            def item(arg: Any) -> Any:
                # Inline (one worker) the item nests in the consumer's wait
                # span; on a pool thread it belongs to the map's caller.
                inline = tracer.current()
                parent = inline[0] if inline else owner_id
                return tracer.call(item_name, fn, (arg,), {}, parent=parent)

            inner = original(item, items, workers)
            t_first = time.perf_counter()
            try:
                while True:
                    try:
                        result = tracer.call(MAP_WAIT, next, (inner,), {})
                    except StopIteration:
                        return
                    yield result
            finally:
                inner.close()
                with tracer._lock:
                    tracer.maps.append((t_first, time.perf_counter(), int(workers)))

        return traced


def _rows(result: Any, *args: Any, **kwargs: Any) -> tuple:
    return (int(args[1].shape[0]),)


def _draw_work(result: Any, kernel: Any, rng: Any, size: int) -> tuple:
    return (int(size),)


def _mean_diffs_work(result: Any, kernel: Any, combos: Any, label: str,
                     centered: Any = None) -> tuple:
    x = kernel.centered if centered is None else centered
    return (int(combos.shape[0]), int(combos.shape[1]), int(x.shape[1]), label)


def _surviving_work(tracer: Tracer) -> Callable[..., tuple]:
    def work(result: Any, kernel: Any, combos: Any) -> tuple:
        tracer.note_rule(kernel.thresholds, kernel.cm.p)
        return (int(combos.shape[0]), int(result.shape[0]))

    return work


def _file_bytes(result: Any, path: Any, *args: Any, **kwargs: Any) -> tuple:
    try:
        return (os.path.getsize(path),)
    except OSError:
        return (0,)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; ``tracer.uninstall()`` undoes it."""
    from factorial_rerand import engine, fileio, sampling, simlab

    kernel = sampling.BalanceKernel
    method_work = {
        "draw": _draw_work,
        "mean_diffs": _mean_diffs_work,
        "distances": lambda result, k, diffs: (int(diffs.shape[0]),),
        "surviving": _surviving_work(tracer),
        "estimates": _rows,
    }
    for method, work in method_work.items():
        tracer.patch(kernel, method,
                     lambda fn, m=method, w=work: tracer.wrap(f"sampling.{m}", fn, w))
    tracer.patch(kernel, "__init__", lambda fn: tracer.wrap("sampling.kernel_init", fn))
    tracer.patch(sampling, "batch_rng", lambda fn: tracer.wrap("sampling.batch_rng", fn))
    tracer.patch(sampling, "ordered_parallel_map", tracer.traced_map)

    for fn_name in ("rerandomize", "randomization_test", "estimate_effects"):
        tracer.patch(engine, fn_name, lambda fn, n=fn_name: tracer.wrap(f"engine.{n}", fn))
    for fn_name in ("variance_study", "generate_potential_outcomes", "unit_level_r2"):
        tracer.patch(simlab, fn_name, lambda fn, n=fn_name: tracer.wrap(f"simlab.{n}", fn))
    modules = {"engine": engine, "simlab": simlab, "sampling": sampling}
    for caller, names in _IMPORTED_NAMES.items():
        for fn_name, layer in names.items():
            tracer.patch(modules[caller], fn_name,
                         lambda fn, n=f"{layer}.{fn_name}": tracer.wrap(n, fn))
    for fn_name in FILEIO_FUNCTIONS:
        tracer.patch(fileio, fn_name,
                     lambda fn, n=fn_name: tracer.wrap(f"fileio.{n}", fn, _file_bytes))


# ---------------------------------------------------------------------------
# Analysis of a finished trace


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _work in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[int, float] = {}
    for sid, _parent, _name, t0, t1, _work in spans:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - union_length(clipped)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
