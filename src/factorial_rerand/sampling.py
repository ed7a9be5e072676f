"""Internal machinery: batched candidate drawing and acceptance filtering.

Candidate allocations are organized into fixed-size batches.  Batch b is
always drawn from the generator seeded by (master seed, purpose, b), so the
global candidate sequence is a pure function of the master seed: workers
change scheduling, never results.  Acceptance scans the sequence in global
index order, which reproduces the single-threaded rejection sampler exactly.

A candidate is one row of n iid uniform 32-bit keys, one key per unit
(``BalanceKernel.draw``).  Its allocation splits the units factor by factor:
the first split puts the half of the units with the larger keys on the high
level of the first factor, and split l halves every cell left by split l-1
at the median key of that cell.  So the units whose keys rank c*r to
(c+1)*r - 1 share cell c, and the allocation is a function of the key ranks
alone.  It is uniform over the balanced allocations: for distinct keys the
ranks are a uniform permutation, and each nested split is a uniform half
split of its cell.  The counts agree, since n!/(r!)^(2^K) is the product of
C(size, size/2) over every split of every cell.

Keys can tie.  A tie inside a cell changes nothing, but a tie at a cell
edge (equal keys at sorted positions c*r - 1 and c*r) leaves a split
undefined, and breaking it by unit index would bias the split.  Such a row
has no allocation.  Whether a row ties at an edge depends only on its sorted
keys, not on which unit holds which key, so the rows without such a tie
still give uniform allocations.  A screen rejects a tied row like any other
failing candidate; a pure draw replaces it with the next row of its
generator, so a pure draw of n rows scans n candidates.  A row ties at an
edge with probability about (2^K - 1) n / 2^33: 5 in a million at the
paper's scale (K=5, n=1376).

The screen splits a row only as far as its effects need
(``BalanceKernel.surviving``).  Factors are split in the order their
effects first appear in ``screen_order``, and each effect is screened as
soon as its factors are split, on each unit's representative combination:
its split factors at their levels, the others low.  That gives the effect
its final signs, so every distance has the bits it has on the finished
allocation.  A row that fails the first main effect costs one split instead
of a whole allocation.  Every cell's median is read off one sort of the
row's keys: a partition per cell and split cost as much at the paper's
scale, and more on small designs.
Survivors are finished into combination rows: when every factor was split,
their representatives are those rows, otherwise ``allocations`` finishes
them, and it finishes a pure draw's rows, with one sort and one scatter.

A batch need not be drawn whole.  Each row takes n/2 raw 64-bit outputs of
its batch's generator, in row order, so drawing a batch's rows in chunks
gives exactly the rows of one whole-batch draw.  The streams below draw only
as many rows as the demand calls for: chunking changes how many candidates
are drawn, never which candidates exist or which one wins.

Every accepted draw is collected through one sampler (``collect``), and
``BalanceKernel.screen`` is the only judge of acceptance: nothing scores a
survivor again to decide whether it counts.  ``rerandomize`` is ``collect``
of one draw in ``ENGINE_BATCH``-row batches; tables use ``STUDY_BATCH``-row
batches.  Pure randomization is the rejection sampler with a rule that
accepts every draw: a kernel with no thresholds screens nothing, and a pure
draw comes in the same chunks as any other screen.  That kernel is prepared
like any other, by ``engine._prepare(x, spec)`` with no rule, and cached for
the covariates and design.

Every draw is at most ``MAX_CHUNK`` rows, and at most ``CHUNK_KEYS`` keys
unless that would be under ``MIN_CHUNK`` rows.  The cap depends only on the
design size, never on ``workers`` or the demand, so the blocks each
statistic is computed over stay the same for any ``workers``.  It exists
for the cache and the memory of a thread pool: a 4096-row block of 1376
units is 45 MB as combination indices, as is each sign gather over it.  At
that size a 512-row chunk held 2.8 MB of keys and 5.6 MB of signs per
thread, and a two-worker paper-scale randomization test peaked at about
75 MB; 190-row chunks (``CHUNK_KEYS`` keys) peaked at about 60 MB and ran
no slower.  Small designs keep 512-row chunks: a cap of a fixed byte size
alone drew 11008-row blocks of 64 units, which fall out of cache, and
shorter chunks of short rows pay more per-call overhead.

Each thread scores into one sign buffer, and sorts keys into one key
buffer, that the kernel keeps for it, grown to the largest chunk the thread
has used.  A fresh (rows, n) block per chunk or screen stage is handed back
to the system once freed (glibc trims it), and the next chunk faults the
same pages in again: on Linux a paper-scale ``rerandomize`` call took about
5,900 minor page faults with a fresh sign block per stage and about 450 with
the kept one, and a 64-row paper-scale chunk about 330 faults with fresh
sorted keys and 6 with the kept buffer.  The buffers hold one step's values
only; no result refers to them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .balance import CovarianceModel, CovariateMatrix, mean_diff_block, squared_distance
from .criteria import acceptance_probability, chi2_cdf
from .design import DesignSpec, ModelMatrix
from .errors import DimensionMismatch, MaxDrawsExceeded

# Names the candidate stream: which allocation a seed, a purpose and a
# candidate index give.  Every output records it, and it changes whenever
# that mapping does.
SAMPLER = "key-splits-1"

# Work unit of the rerandomization loop.  Small enough that the overshoot
# past an accepted draw stays negligible.
ENGINE_BATCH = 64
# Monte Carlo studies push much larger batches through the same kernel.
STUDY_BATCH = 4096
# Smallest chunk a screen draws: below this, per-call overhead of the score
# outweighs the rows saved.
MIN_CHUNK = 64
# Largest chunk any draw makes, in rows and, for long rows, in keys (see
# the module docstring).
MAX_CHUNK = 512
CHUNK_KEYS = 2**18
# Chunks aim this far above the rows the implied acceptance rate predicts,
# so that a batch rarely needs a second chunk.
CHUNK_HEADROOM = 1.25

# Most worker threads a sampling stream may run.  Each keeps one batch in
# flight, so this bounds both the threads started and the batches in memory.
MAX_WORKERS = 64

# Where the low 32-bit word of a 64-bit integer sits in memory.
_LOW_WORD = 0 if sys.byteorder == "little" else 1

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


def random_keys(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """(rows, n) iid uniform 32-bit keys: n/2 raw 64-bit outputs of ``rng`` per row.

    The words are read little-endian, so the keys are the same on any host.
    """
    raw = rng.bit_generator.random_raw(rows * n // 2)
    return raw.astype("<u8", copy=False).view("<u4").reshape(rows, n)


def ordered_parallel_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int
) -> Iterator[R]:
    """Map with up to ``workers`` tasks in flight, yielding results in order.

    Results come back in input order no matter how threads are scheduled, so
    reductions over the stream are deterministic.  The input iterable may be
    infinite; the consumer breaks out when done.  Closing the generator
    cancels the tasks still queued and waits for the running ones, so no
    thread outlives it.  Every sampling stream runs through here, so this is
    where ``workers`` is checked, before any thread starts.
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
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        window = deque(pool.submit(fn, item) for item in itertools.islice(it, workers))
        while window:
            fut = window.popleft()
            try:
                nxt = next(it)
            except StopIteration:
                pass
            else:
                window.append(pool.submit(fn, nxt))
            yield fut.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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

    Each batch sizes its chunks from the whole demand ``n``, never from how
    far other batches got, so the rows each chunk draws, and the blocks the
    screen scores, are the same for any ``workers`` (a BLAS product can
    round differently with its block's row count).  Once the call has its
    ``n`` draws, queued batches are cancelled and running ones end at their
    next chunk.
    """
    if batch is None:
        batch = STUDY_BATCH
    collected = 0

    def done() -> bool:
        return collected == n

    def run(b: int) -> tuple[np.ndarray, np.ndarray]:
        positions, scores = kernel.screen(
            batch_rng(seed, purpose, b), min(batch, max_draws - b * batch), n, score, done
        )
        return b * batch + positions, scores

    # Filled in place: a list of parts and its concatenation would hold the
    # table twice, and fault its pages in again on every call.
    table = None
    scanned = 0
    # Closed on the way out, so no batch runs on after the call returns.
    with contextlib.closing(
        ordered_parallel_map(run, range(-(-max_draws // batch)), workers)
    ) as results:
        for indices, scores in results:
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
    """Precomputed state for drawing candidate allocations and scoring them fast.

    Built from covariates ``x`` and the covariance model ``cm`` fitted on
    them.  Holds the centered covariates, the same covariates whitened once
    (``white``), and per-effect sign lookups indexed by the 1-based
    combination index (entry 0 is padding, so gathers need no shifted copy of
    the indices).  Mean differences are shift-invariant (signed columns sum to
    zero), so centering is exact, not an approximation.  Over ``white`` they
    come out whitened, so the screen runs no linear solve.

    It also holds the split plan: the order in which a row of keys is split
    factor by factor, the splits each screen stage needs, and the
    combination each cell of units ends in (see the module docstring).

    Thread-safe: the covariates, lookups, plan and thresholds are read-only,
    and the only scratch is per thread (a ``threading.local``): the sign and
    key buffers, which a step overwrites and no result refers to, and the
    allocations ``surviving`` hands to ``screen``.  So one kernel may serve
    many calls and threads.  ``engine._prepare`` builds
    every kernel the package uses and keeps one per covariates object,
    design and rule; pure draws and calibration use the one with no rule,
    whose thresholds are empty.  A kernel holds no reference to the
    covariates object it was built from.  ``draw``, ``allocations``,
    ``mean_diffs`` and the screens return fresh arrays, valid across later
    calls on any thread.
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

        # Split the factors in the order their effects first appear in the
        # screen, then the factors no monitored effect holds.
        factors = {lab: mm.factor_sets[mm.column_index(lab)] for lab in self.screen_order}
        order: list[int] = []
        for lab in self.screen_order:
            order += [f for f in factors[lab] if f not in order]
        order += [f for f in range(mm.k) if f not in order]
        # Each stage screens one effect after the splits it needs.
        self._stages = tuple(
            (lab, 1 + max(order.index(f) for f in factors[lab])) for lab in self.screen_order
        )
        # Cell c after all K splits holds the units whose keys rank c*r to
        # (c+1)*r - 1; the bits of c, first split most significant, are its
        # factor levels in split order (1 = high).
        high = np.column_stack([mm.entries[:, mm.factor_sets.index((f,))] > 0 for f in order])
        cell_of_combo = high.astype(np.intp) @ (1 << np.arange(mm.k - 1, -1, -1))
        combo_of_cell = np.empty(mm.n_combinations, dtype=np.intp)
        combo_of_cell[cell_of_combo] = np.arange(1, mm.n_combinations + 1)
        # The combination of the unit whose key ranks j-th.
        self._ranked = np.repeat(combo_of_cell, spec.r)
        # After l splits, the representative of cell c is the combination with
        # c's levels on the split factors and every other factor low.  An
        # effect whose factors are all split has its final sign there.  The
        # smallest integer type holding them keeps the split passes short.
        rep_type = np.min_scalar_type(mm.n_combinations)
        self._reps = [
            combo_of_cell[:: 1 << (mm.k - level)].astype(rep_type) for level in range(mm.k + 1)
        ]
        # What split ``level`` adds to the representative of a unit on its high side.
        self._steps = [
            rep_type.type(self._reps[level + 1][1] - self._reps[level + 1][0])
            for level in range(mm.k)
        ]

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
        """``size`` rows of n iid uniform 32-bit keys (``random_keys``), one row per candidate."""
        return random_keys(rng, size, self.n)

    def allocations(self, keys: np.ndarray) -> np.ndarray:
        """(rows, n) combination indices of the allocations rows of keys split to.

        The unit whose key ranks j-th lands in cell j // r.  A row that ties
        at a cell edge has no allocation: its row here breaks the tie by
        unit index, and ``surviving`` rejects such a row, a pure draw
        replaces it.
        """
        return self._finish(keys)[0]

    def _finish(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``allocations(keys)`` and the mask of the rows that tie at a cell edge.

        Each key is sorted with its unit's place in the block in the low 32
        bits of one 64-bit word, so one sort of each row gives its sorted keys
        and the unit at each rank, and one scatter puts every unit's
        combination in place.
        """
        combos = np.empty(keys.shape, dtype=np.intp)
        packed = np.left_shift(keys, np.uint64(32), dtype=np.uint64)
        packed |= np.arange(keys.size, dtype=np.uint64).reshape(keys.shape)
        packed.sort(axis=1)
        words = packed.view(np.uint32)
        np.put(combos, words[:, _LOW_WORD::2], self._ranked)
        return combos, self._edge_ties(words[:, 1 - _LOW_WORD :: 2])

    def _edge_ties(self, ranked: np.ndarray) -> np.ndarray:
        """Mask of the rows of sorted keys with equal keys on the two sides of a cell edge."""
        r = self.n // self.mm.n_combinations
        cells = ranked.reshape(ranked.shape[0], self.mm.n_combinations, r)
        return (cells[:, :-1, -1] == cells[:, 1:, 0]).any(axis=1)

    def _pure_allocations(self, rng: np.random.Generator, keys: np.ndarray) -> np.ndarray:
        """``allocations(keys)``, each row that ties at a cell edge replaced by the next row of ``rng``.

        The rows kept are the first ``len(keys)`` rows of ``rng``'s sequence
        without such a tie, in order, so a batch finished in chunks gives the
        rows of one whole batch.
        """
        combos, tied = self._finish(keys)
        while tied.any():
            more, more_tied = self._finish(self.draw(rng, int(tied.sum())))
            combos = np.concatenate((combos[~tied], more))
            tied = np.concatenate((np.zeros(combos.shape[0] - more.shape[0], bool), more_tied))
        return combos

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

    def _passes(self, combos: np.ndarray, label: str) -> np.ndarray:
        """Mask of the combination rows whose distance for ``label`` is within its threshold."""
        dz = self.mean_diffs(combos, label, self.white)
        return squared_distance(dz, self.n) <= self.thresholds[label]

    def passing(self, combos: np.ndarray) -> np.ndarray:
        """Indices (ascending) of combination rows passing every monitored threshold.

        It has two roles: ``randomization_test`` vets the observed allocation
        with it, and it is the reference that ``surviving``'s key-split screen
        must match bit for bit on the finished allocations of the same keys.
        """
        alive = np.arange(combos.shape[0])
        for label in self.screen_order:
            if alive.size == 0:
                break
            keep = self._passes(combos, label)
            alive, combos = alive[keep], combos[keep]
        return alive

    def surviving(self, keys: np.ndarray) -> np.ndarray:
        """Indices (ascending) of rows of keys whose allocations pass every threshold.

        Each row's keys are sorted once, and each stage makes the splits its
        effect needs, then scores the effect on each unit's representative
        combination.  Those carry the effect's final signs, so the distances
        are the bits ``passing`` computes on ``allocations(keys)``, in the
        same blocks, and a row that fails is split no further.  A row that
        ties at a cell edge is rejected.

        Once every factor is split, the representatives of the rows returned
        are their allocations.  They stay in the thread's scratch, with the
        array returned, for ``screen``, which would otherwise sort those rows
        again: on a small design many candidates survive, and the second sort
        cost about a tenth of the inference-desk benchmark's throughput.
        """
        alive = np.arange(keys.shape[0])
        buf = getattr(self._scratch, "keys", None)
        if buf is None or buf.shape[0] < keys.shape[0]:
            buf = self._scratch.keys = np.empty(keys.shape, dtype=keys.dtype)
        ranked = buf[: keys.shape[0]]
        np.copyto(ranked, keys)
        ranked.sort(axis=1)
        rep = np.full(keys.shape, self._reps[0][0])
        # The rows of ``keys`` and ``ranked`` that ``rep`` holds: those two
        # are cut down only when another split needs them.
        rows = alive
        splits = 0
        for label, need in self._stages:
            if splits < need and rows.size < keys.shape[0]:
                keys, ranked, rows = keys[rows], ranked[rows], np.arange(rows.size)
            while splits < need:
                self._split(keys, ranked, rep, splits)
                splits += 1
            keep = self._passes(rep, label)
            if not keep.all():
                alive, rows, rep = alive[keep], rows[keep], rep[keep]
                if alive.size == 0:
                    return alive
        untied = ~self._edge_ties(ranked[rows])
        alive = alive[untied]
        if splits == self.mm.k:
            self._scratch.finished = (alive, rep[untied].astype(np.intp))
        return alive

    def _split(self, keys: np.ndarray, ranked: np.ndarray, rep: np.ndarray, level: int) -> None:
        """Make split ``level``: move each unit above its cell's median to the high side.

        ``ranked`` holds each row's keys sorted, so cell c of the split spans
        ranks c*m to (c+1)*m - 1, with m = n / 2^level, and its median is the
        key ranked c*m + m/2 - 1.  Each unit's representative moves in place.
        """
        rows, n = keys.shape
        cell = n >> level
        medians = ranked[:, cell // 2 - 1 :: cell]
        if level == 1:
            # A unit of the low cell is at most the high cell's median, and
            # one of the high cell is above the low cell's: comparing every
            # key with both medians costs less than looking each unit's up.
            high = np.greater(keys, medians[:, :1]).view(np.uint8)
            high += np.greater(keys, medians[:, 1:])
            high -= rep != self._reps[1][0]
            rep += high * self._steps[level]
            return
        if level:
            # Each unit's median, looked up by its representative.
            width = self._reps[-1].size + 1
            table = np.empty((rows, width), dtype=keys.dtype)
            table[:, self._reps[level]] = medians
            medians = table.ravel().take(rep + np.arange(0, rows * width, width)[:, None])
        rep += np.greater(keys, medians) * self._steps[level]

    def screen(
        self,
        rng: np.random.Generator,
        limit: int,
        need: int,
        score: Callable[[np.ndarray], np.ndarray],
        done: Callable[[], bool] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions (ascending) and scores of survivors among a batch's first ``limit`` rows.

        Rows come from ``rng`` in chunks sized to the survivors still missing
        at the implied acceptance probability ``self.prob``, never more than
        the chunk cap (``MAX_CHUNK`` rows, fewer for long rows), and drawing
        stops once ``need`` have passed, or before any chunk once ``done()``
        is true.  The survivors are a prefix of those of the whole
        ``limit``-row batch.

        ``score(rows)`` runs on the survivors gathered since its last call,
        once they fill a chunk and once more at the end, and the
        scores come back concatenated in row order.  So a screen with no
        thresholds scores each chunk on its own, and a selective one scores
        its survivors in few calls, in blocks that depend only on the batch.
        A screen with no survivors scores one empty block.
        """
        positions, rows, scores = [np.empty(0, dtype=np.intp)], [], []
        drawn = found = 0
        most = min(MAX_CHUNK, max(MIN_CHUNK, CHUNK_KEYS // self.n))

        def flush() -> None:
            # A lone block, such as a chunk that survived whole, is scored
            # without a copy.
            scores.append(score(rows[0] if len(rows) == 1 else np.concatenate(rows)))
            rows.clear()

        while drawn < limit and found < need:
            if done is not None and done():
                break
            size = min(limit - drawn, most)
            want = (need - found) * CHUNK_HEADROOM / self.prob if self.prob > 0 else math.inf
            if want < size:
                size = min(size, max(MIN_CHUNK, math.ceil(want)))
            keys = self.draw(rng, size)
            if self._stages:
                alive = self.surviving(keys)
                # Rows ``surviving`` finished for this very result, if any.
                finished = self._scratch.__dict__.pop("finished", None)
                if alive.size:
                    if finished is None or finished[0] is not alive:
                        finished = (alive, self.allocations(keys[alive]))
                    rows.append(finished[1])
            else:
                # With no thresholds every candidate passes: a tied row is
                # replaced, not rejected, so a pure draw scans what it asks for.
                alive = np.arange(size)
                rows.append(self._pure_allocations(rng, keys))
            positions.append(drawn + alive)
            # Free this chunk before drawing the next one, which then reuses
            # its memory: with the kept buffers, another block per thread
            # would otherwise stay resident.
            del keys
            drawn += size
            found += alive.size
            if sum(map(len, rows)) >= most:
                flush()
        if not rows and not scores:
            # No survivor: one empty block gives the scores their shape.
            rows.append(np.empty((0, self.n), dtype=np.intp))
        if rows:
            flush()
        return np.concatenate(positions), np.concatenate(scores)

    def all_distances(self, combos: np.ndarray, labels: Iterable[str]) -> np.ndarray:
        """(batch, n_effects) distance matrix with no early exit (for calibration)."""
        return np.column_stack(
            [squared_distance(self.mean_diffs(combos, lab, self.white), self.n) for lab in labels]
        )
