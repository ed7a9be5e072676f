"""Internal machinery: batched candidate drawing and acceptance filtering.

Candidate allocations are organized into fixed-size batches.  Batch b is
always drawn from the generator seeded by (master seed, purpose, b), so the
global candidate sequence is a pure function of the master seed: workers
change scheduling, never results.  Acceptance scans the sequence in global
index order, which reproduces the single-threaded rejection sampler exactly.

A batch need not be drawn whole.  ``rng.permuted`` consumes the generator one
row at a time, so drawing a batch's rows in chunks from its own generator
gives exactly the rows of one whole-batch draw.  The streams below draw only
as many rows as the demand calls for: chunking changes how many candidates
are drawn, never which candidates exist or which one wins.

Every accepted draw is collected through one sampler (``collect``), and
``BalanceKernel.screen`` is the only judge of acceptance: nothing scores a
survivor again to decide whether it counts.  ``rerandomize`` is ``collect``
of one draw in ``ENGINE_BATCH``-row batches; tables use ``STUDY_BATCH``-row
batches.  Pure randomization is the rejection sampler with a rule that
accepts every draw: a kernel with no thresholds screens nothing, so every
row it draws survives, and a pure draw comes in the same chunks as any other
screen.  That kernel is prepared like any other, by ``engine._prepare(x,
spec)`` with no rule, and cached for the covariates and design.

Every draw is at most ``MAX_CHUNK`` rows.  The cap is one constant,
independent of ``workers``, of the demand and of the design size, so the
blocks each statistic is computed over stay the same for any ``workers``.
It exists for the cache: a 4096-row block of 1376 units is 45 MB, as is each
sign gather over it, while 512-row blocks stay near L2 and keep the peak
memory of a thread pool low.  A cap of a fixed byte size instead
(``512 * 1376 // n`` rows) was slower on small designs, whose rows are
short: it drew 11008-row blocks of 64 units, which again fall out of cache.

Each thread scores into one sign buffer that the kernel keeps for it, grown
to the largest block the thread has scored.  A fresh (rows, n) float64 block
per screen stage (700 KB for 64 rows of 1376 units) is handed back to the
system once freed (glibc trims it), and the next batch faults the same pages
in again: on Linux a paper-scale ``rerandomize`` call took about 5,900 minor
page faults, and about 450 with the kept buffer.  The buffer holds the signs
of one gather only; no value depends on it.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .assignment import combination_multiset
from .balance import CovarianceModel, CovariateMatrix, mean_diff_block, squared_distance
from .criteria import acceptance_probability, chi2_cdf
from .design import DesignSpec, ModelMatrix
from .errors import DimensionMismatch, MaxDrawsExceeded

# Work unit of the rerandomization loop.  Small enough that the overshoot
# past an accepted draw stays negligible.
ENGINE_BATCH = 64
# Monte Carlo studies push much larger batches through the same kernel.
STUDY_BATCH = 4096
# Smallest chunk a screen draws: below this, per-call overhead of the score
# outweighs the rows saved.
MIN_CHUNK = 64
# Largest chunk any draw makes (see the module docstring).
MAX_CHUNK = 512
# Chunks aim this far above the rows the implied acceptance rate predicts,
# so that a batch rarely needs a second chunk.
CHUNK_HEADROOM = 1.25

# Most worker threads a sampling stream may run.  Each keeps one batch in
# flight, so this bounds both the threads started and the batches in memory.
MAX_WORKERS = 64

# Stream purposes keep independent uses of one master seed apart.
PURPOSE_RERANDOMIZE = 0
PURPOSE_REFERENCE = 1
PURPOSE_STUDY_PURE = 2
PURPOSE_STUDY_ACCEPTED = 3
PURPOSE_CALIBRATE = 4
PURPOSE_OUTCOMES = 5

T = TypeVar("T")
R = TypeVar("R")


def batch_rng(seed: int, purpose: int, batch: int) -> np.random.Generator:
    """Generator for one batch, derived statelessly from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, batch)))


def ordered_parallel_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int
) -> Iterator[R]:
    """Map with up to ``workers`` tasks in flight, yielding results in order.

    Results come back in input order no matter how threads are scheduled, so
    reductions over the stream are deterministic.  The input iterable may be
    infinite; the consumer breaks out when done.  Every sampling stream runs
    through here, so this is where ``workers`` is checked, before any thread
    starts.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    if workers == 1:
        for item in items:
            yield fn(item)
        return
    it = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window: deque = deque()
        for item in itertools.islice(it, workers):
            window.append(pool.submit(fn, item))
        while window:
            fut = window.popleft()
            try:
                nxt = next(it)
            except StopIteration:
                pass
            else:
                window.append(pool.submit(fn, nxt))
            yield fut.result()


def collect(
    kernel: BalanceKernel,
    score: Callable[[np.ndarray], np.ndarray],
    seed: int,
    purpose: int,
    n: int,
    max_draws: int,
    workers: int,
    batch: int | None = None,
) -> tuple[np.ndarray, int]:
    """``score`` of the first ``n`` accepted draws of one keyed stream, and the candidates scanned.

    Batch ``b`` holds ``batch`` rows (``STUDY_BATCH`` by default) drawn from
    ``batch_rng(seed, purpose, b)``, cut to the ``max_draws`` budget.
    ``kernel.screen`` alone decides which rows are accepted, and
    ``score(rows)`` gives one table row per survivor, in global index order.
    A pure draw passes a kernel with no thresholds and ``max_draws = n``;
    ``rerandomize`` is one accepted draw in ``ENGINE_BATCH``-row batches.
    The candidates scanned run up to and including the last accepted one.
    Raises MaxDrawsExceeded when the budget runs out first.

    Each batch's screen stops at the whole demand ``n``, which bounds what
    any batch must supply.  The demand still open when a batch starts would
    be tighter, but it depends on how many batches ran ahead in parallel; a
    fixed bound keeps the rows each batch draws, and so the blocks its
    statistics are computed on, the same for any ``workers`` (a BLAS result
    can round differently with the block's row count).
    """
    if batch is None:
        batch = STUDY_BATCH

    def run(b: int) -> tuple[np.ndarray, np.ndarray]:
        positions, scores = kernel.screen(
            batch_rng(seed, purpose, b), min(batch, max_draws - b * batch), n, score
        )
        return b * batch + positions, scores

    # Filled in place: a list of parts and its concatenation would hold the
    # table twice, and fault its pages in again on every call.
    table = None
    collected = scanned = 0
    for indices, scores in ordered_parallel_map(run, range(-(-max_draws // batch)), workers):
        indices = indices[: n - collected]
        if indices.size == 0:
            continue
        if table is None:
            table = np.empty((n,) + scores.shape[1:], dtype=scores.dtype)
        table[collected : collected + indices.size] = scores[: indices.size]
        collected += indices.size
        scanned = int(indices[-1]) + 1
        if collected == n:
            return table, scanned
    raise MaxDrawsExceeded(
        f"collected {collected} of {n} accepted draws within {max_draws} candidates"
    )


class BalanceKernel:
    """Precomputed state for scoring candidate allocations fast.

    Built from covariates ``x`` and the covariance model ``cm`` fitted on
    them.  Holds the centered covariates, the same covariates whitened once
    (``white``), and per-effect sign lookups indexed by the 1-based
    combination index (entry 0 is padding, so gathers need no shifted copy of
    the indices).  Mean differences are shift-invariant (signed columns sum to
    zero), so centering is exact, not an approximation.  Over ``white`` they
    come out whitened, so the screen runs no linear solve.

    Thread-safe: the covariates, lookups and thresholds are read-only, and
    the only scratch is one sign buffer per thread (a ``threading.local``),
    which a gather overwrites and no result refers to.  So one kernel may
    serve many calls and threads.  ``engine._prepare`` builds every kernel
    the package uses and keeps one per covariates object, design and rule;
    pure draws and calibration use the one with no rule, whose thresholds
    are empty.  A kernel holds no reference to the covariates object it was
    built from.  ``draw``, ``mean_diffs`` and the screens return fresh
    arrays, valid across later calls on any thread.
    """

    def __init__(
        self,
        x: CovariateMatrix,
        spec: DesignSpec,
        mm: ModelMatrix,
        cm: CovarianceModel,
        thresholds: dict[str, float],
    ):
        if spec.n != x.n:
            raise DimensionMismatch(f"covariates have {x.n} rows for a design of {spec.n} units")
        self.mm = mm
        self.cm = cm
        self.n = spec.n
        self.base = combination_multiset(spec)
        # The means ``cm`` was fitted with: the same bits as ``x.centered()``,
        # without computing them again.
        self.centered = x.entries - cm.means
        self.white = cm.whiten(self.centered)
        for arr in (self.centered, self.white):
            arr.setflags(write=False)
        self._signs: dict[str, np.ndarray] = {}
        self._scratch = threading.local()
        self.thresholds = MappingProxyType(dict(thresholds))
        # Screen the most selective effect first: survivors shrink fastest.
        self.screen_order = sorted(
            self.thresholds, key=lambda lab: chi2_cdf(cm.p, self.thresholds[lab])
        )
        # Implied acceptance probability: it sizes the screen's chunks.
        self.prob = acceptance_probability(self.thresholds, cm.p)

    def sign_lookup(self, label: str) -> np.ndarray:
        """Signed value of one effect column per combination index (float64).

        Entry j holds combination j; entry 0 is a zero pad.
        """
        col = self._signs.get(label)
        if col is None:
            col = np.concatenate(([0.0], self.mm.column(label).astype(np.float64)))
            col.setflags(write=False)
            self._signs[label] = col
        return col

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Fisher-Yates shuffle the combination multiset, one row per candidate."""
        tiled = np.repeat(self.base[None, :], size, axis=0)
        rng.permuted(tiled, axis=1, out=tiled)
        return tiled

    def mean_diffs(
        self, combos: np.ndarray, label: str, centered: np.ndarray | None = None
    ) -> np.ndarray:
        """(batch, p) mean-difference vectors for one effect, over ``centered`` columns.

        The signs are gathered into this thread's sign buffer, grown to the
        largest block the thread has scored.  ``mode="clip"`` lets ``take``
        write straight into it (the default mode buffers ``out``); it changes
        no value, since every combination index lies in 1..2^K of a lookup
        with 2^K + 1 entries.
        """
        cols = self.centered if centered is None else centered
        rows = combos.shape[0]
        buf = getattr(self._scratch, "signs", None)
        if buf is None or buf.shape[0] < rows:
            buf = self._scratch.signs = np.empty((rows, self.n))
        signs = buf[:rows]
        self.sign_lookup(label).take(combos, out=signs, mode="clip")
        return mean_diff_block(signs, cols)

    def distances(self, diffs: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distances for a (batch, p) block of covariate-unit differences."""
        return squared_distance(self.cm.whiten(diffs), self.n)

    def surviving(self, combos: np.ndarray) -> np.ndarray:
        """Indices (ascending) of candidates passing every monitored threshold."""
        alive = np.arange(combos.shape[0])
        for label in self.screen_order:
            if alive.size == 0:
                break
            dz = self.mean_diffs(combos, label, self.white)
            keep = squared_distance(dz, self.n) <= self.thresholds[label]
            alive, combos = alive[keep], combos[keep]
        return alive

    def screen(
        self,
        rng: np.random.Generator,
        limit: int,
        need: int,
        score: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions (ascending) and scores of survivors among a batch's first ``limit`` rows.

        Rows come from ``rng`` in chunks sized to the survivors still missing
        at the implied acceptance probability ``self.prob``, never more than
        ``MAX_CHUNK``, and drawing stops once ``need`` have passed.  The
        survivors are a prefix of those of the whole ``limit``-row batch.

        ``score(rows)`` runs on the survivors gathered since its last call,
        once they reach ``MAX_CHUNK`` rows and once more at the end, and the
        scores come back concatenated in row order.  So a screen with no
        thresholds scores each chunk on its own, and a selective one scores
        its survivors in few calls, in blocks that depend only on the batch.
        """
        positions, rows, scores = [], [], []
        drawn = found = 0

        def flush() -> None:
            # A lone block, such as a chunk that survived whole, is scored
            # without a copy.
            scores.append(score(rows[0] if len(rows) == 1 else np.concatenate(rows)))
            rows.clear()

        while drawn < limit and found < need:
            size = min(limit - drawn, MAX_CHUNK)
            want = (need - found) * CHUNK_HEADROOM / self.prob if self.prob > 0 else math.inf
            if want < size:
                size = min(size, max(MIN_CHUNK, math.ceil(want)))
            combos = self.draw(rng, size)
            alive = self.surviving(combos)
            positions.append(drawn + alive)
            rows.append(combos if alive.size == size else combos[alive])
            # Free this chunk before drawing the next one, which then reuses
            # its memory: with the kept sign buffer, a third block per thread
            # would otherwise stay resident.
            del combos
            drawn += size
            found += alive.size
            if sum(map(len, rows)) >= MAX_CHUNK:
                flush()
        if rows:
            flush()
        return np.concatenate(positions), np.concatenate(scores)

    def all_distances(self, combos: np.ndarray, labels: Iterable[str]) -> np.ndarray:
        """(batch, n_effects) distance matrix with no early exit (for calibration)."""
        return np.column_stack(
            [squared_distance(self.mean_diffs(combos, lab, self.white), self.n) for lab in labels]
        )
