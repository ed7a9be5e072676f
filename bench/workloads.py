"""The benchmark's four workloads: inputs from a seed, the call, output checks, digests.

Each workload is a closed loop with one caller.  ``setup`` builds every input
from the seed (generation, file round trips through ``fileio``, threshold
resolution); ``call(i)`` makes the i-th request through the package's public
functions; ``keep`` reduces its output to what the checks and the digest
need, so a long run does not hold every assignment matrix in memory.
Call i always uses the same per-call seed, so the first ``min_calls``
outputs of two runs with the same seed are comparable by digest.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from factorial_rerand import engine, fileio, simlab
from factorial_rerand.assignment import Allocation, expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile
from factorial_rerand.criteria import AcceptanceRule, Tier, accept, resolve_thresholds
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import MaxDrawsExceeded

# Paper scale: K=5, r=43 (1376 units), nine covariates, five mains at joint
# 0.01 and ten two-way effects at joint 0.1, so joint acceptance is 0.001.
PAPER_SPEC = DesignSpec(k=5, r=43)
PAPER_MAINS = ("A", "B", "C", "D", "E")
PAPER_TWOWAYS = tuple(a + b for a, b in itertools.combinations("ABCDE", 2))
# Desk scale: K=3, r=8 (64 units), three covariates, all seven effects at joint 0.1.
DESK_SPEC = DesignSpec(k=3, r=8)
DESK_EFFECTS = ("A", "B", "C", "AB", "AC", "BC", "ABC")
# Small inference design: K=2, r=8 (32 units), two covariates, mains at joint 0.25.
SMALL_SPEC = DesignSpec(k=2, r=8)

# Every effect any workload screens, for the per-effect pass-rate metrics.
SCREENED_EFFECTS = PAPER_MAINS + PAPER_TWOWAYS + ("ABC",)

# Which failures count as a failed operation rather than a crashed run.
OPERATION_ERRORS = (MaxDrawsExceeded,)


def paper_rule() -> AcceptanceRule:
    return AcceptanceRule(
        tiers=(
            Tier("mains", PAPER_MAINS, joint_prob=0.01),
            Tier("two_way", PAPER_TWOWAYS, joint_prob=0.1),
        ),
        p=9,
    )


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def paper_covariates(seed: int) -> CovariateMatrix:
    return simlab.synthetic_nyde(_rng(seed, 1)).subset(simlab.NYDE_MONITORED)


def normal_covariates(seed: int, n: int, p: int) -> CovariateMatrix:
    names = tuple(f"x{j + 1}" for j in range(p))
    return CovariateMatrix(_rng(seed, 1).normal(size=(n, p)), names=names)


class SetupError(RuntimeError):
    """A file round trip did not give back what was written."""


def round_trip_covariates(x: CovariateMatrix, workdir: Path) -> CovariateMatrix:
    path = workdir / "covariates.csv"
    fileio.write_covariates(path, x)
    back = fileio.read_covariates(path)
    if back.names != x.names or not np.array_equal(back.entries, x.entries):
        raise SetupError("covariates changed in a write/read round trip")
    return back


def round_trip_thresholds(rule: AcceptanceRule, workdir: Path) -> None:
    path = workdir / "thresholds.json"
    thresholds = resolve_thresholds(rule)
    fileio.write_thresholds(path, thresholds, rule.p)
    back, p = fileio.read_thresholds(path)
    if back != thresholds or p != rule.p:
        raise SetupError("thresholds changed in a write/read round trip")


def round_trip_allocation(alloc: Allocation, workdir: Path) -> Allocation:
    path = workdir / "allocation.csv"
    fileio.write_allocation(path, alloc)
    back = fileio.read_allocation(path, alloc.spec)
    if not np.array_equal(back.combo_of_unit, alloc.combo_of_unit):
        raise SetupError("allocation changed in a write/read round trip")
    return back


def round_trip_outcomes(y: np.ndarray, workdir: Path) -> np.ndarray:
    path = workdir / "outcomes.csv"
    fileio.write_outcomes(path, y)
    back = fileio.read_outcomes(path, n=y.shape[0])
    if not np.array_equal(back, y):
        raise SetupError("outcomes changed in a write/read round trip")
    return back


# ---------------------------------------------------------------------------
# Compact outputs, their checks and their digests


@dataclass(frozen=True)
class AllocationOut:
    combos: np.ndarray
    draws_attempted: int
    distances: dict[str, float]


@dataclass(frozen=True)
class InferenceOut:
    p_values: dict[str, float]
    observed: dict[str, float]
    n_reference: int
    draws_scanned: int


@dataclass(frozen=True)
class StudyOut:
    n_reps: int
    draws_scanned: int
    acceptance_rate: float
    d_var_accepted: np.ndarray
    d_pct_reduction: np.ndarray
    theta_var_accepted: np.ndarray
    theta_ratio: np.ndarray


def keep_allocation(result: engine.RerandomizationResult) -> AllocationOut:
    return AllocationOut(
        combos=np.array(result.allocation.combo_of_unit),
        draws_attempted=int(result.draws_attempted),
        distances=dict(result.profile.distances),
    )


def keep_inference(result: engine.RandomizationTestResult) -> InferenceOut:
    return InferenceOut(
        p_values=dict(result.p_values),
        observed=dict(result.observed),
        n_reference=int(result.n_reference),
        draws_scanned=int(result.draws_scanned),
    )


def check_allocation(
    out: AllocationOut, spec: DesignSpec, x: CovariateMatrix, rule: AcceptanceRule, mm: Any
) -> list[str]:
    """Balance, then an independent re-score with ``balance_profile`` and ``accept``."""
    counts = np.bincount(out.combos, minlength=spec.n_combinations + 1)[1:]
    if out.combos.shape != (spec.n,) or not np.all(counts == spec.r):
        return ["allocation does not give every combination exactly r units"]
    problems = []
    if out.draws_attempted < 1:
        problems.append(f"draws_attempted is {out.draws_attempted}")
    w = expand_assignment(Allocation(spec=spec, combo_of_unit=out.combos), mm)
    profile = balance_profile(x, w, rule.monitored_effects)
    if not accept(profile, rule):
        problems.append("re-scored allocation fails the acceptance rule")
    for effect, m in out.distances.items():
        if not math.isclose(m, profile.m(effect), rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"distance for {effect} is {m}, re-scored {profile.m(effect)}")
    return problems


def check_inference(
    out: InferenceOut, n_draws: int, y: np.ndarray, alloc: Allocation, mm: Any, effects: tuple[str, ...]
) -> list[str]:
    """p-values on the add-one grid in [1/(n+1), 1]; observed estimates re-derived."""
    problems = []
    if out.n_reference != n_draws:
        problems.append(f"n_reference {out.n_reference}, requested {n_draws}")
    if out.draws_scanned < n_draws:
        problems.append(f"{out.draws_scanned} candidates scanned for {n_draws} draws")
    grid = n_draws + 1
    for effect in effects:
        p = out.p_values.get(effect)
        if p is None or not 1.0 / grid <= p <= 1.0 or abs(p * grid - round(p * grid)) > 1e-9:
            problems.append(f"p-value for {effect} is {p}")
    expected = engine.estimate_effects(y, expand_assignment(alloc, mm), effects).estimates
    if out.observed != expected:
        problems.append("observed estimates differ from estimate_effects")
    return problems


def digest_allocation(h: Any, out: AllocationOut) -> None:
    h.update(out.combos.astype("<i4").tobytes())
    h.update(out.draws_attempted.to_bytes(8, "little"))


def digest_inference(h: Any, out: InferenceOut) -> None:
    for effect in sorted(out.p_values):
        h.update(f"{effect}:{out.p_values[effect]!r}:{out.observed[effect]!r};".encode())
    h.update(f"{out.n_reference}:{out.draws_scanned}".encode())


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Base class: per-call seeds, and the hooks the harness calls."""

    name = ""
    workers = 1
    min_calls = 1

    def __init__(self, seed: int, max_draws: int | None = None):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.max_draws = max_draws

    def call_seed(self, i: int, purpose: int = 0) -> int:
        return (self.seed * 4 + purpose) * 1_000_000 + i

    def _budget(self) -> dict[str, int]:
        return {} if self.max_draws is None else {"max_draws": self.max_draws}

    def prepare(self) -> None:
        """Untimed work before setup: inputs that need the sampler itself."""

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def call(self, i: int) -> Any:
        raise NotImplementedError

    def keep(self, result: Any) -> Any:
        raise NotImplementedError

    def results(self, out: Any) -> int:
        return 1

    def scanned(self, out: Any) -> int:
        raise NotImplementedError

    def check(self, out: Any) -> list[str]:
        raise NotImplementedError

    def digest(self, h: Any, out: Any) -> None:
        raise NotImplementedError


class AllocatePaper(Workload):
    name = "allocate-paper"
    min_calls = 16

    def setup(self, workdir: Path) -> None:
        self.x = round_trip_covariates(paper_covariates(self.seed), workdir)
        self.rule = paper_rule()
        round_trip_thresholds(self.rule, workdir)
        self.mm = expand_model_matrix(build_design_matrix(PAPER_SPEC))

    def call(self, i: int) -> Any:
        return engine.rerandomize(self.x, PAPER_SPEC, self.rule, seed=self.call_seed(i),
                                  workers=self.workers, **self._budget())

    def keep(self, result: Any) -> AllocationOut:
        return keep_allocation(result)

    def scanned(self, out: AllocationOut) -> int:
        return out.draws_attempted

    def check(self, out: AllocationOut) -> list[str]:
        return check_allocation(out, PAPER_SPEC, self.x, self.rule, self.mm)

    def digest(self, h: Any, out: AllocationOut) -> None:
        digest_allocation(h, out)


class ReferencePaper(Workload):
    name = "reference-paper"
    workers = 2
    n_draws = 100

    def prepare(self) -> None:
        x = paper_covariates(self.seed)
        self._observed = engine.rerandomize(x, PAPER_SPEC, paper_rule(),
                                            seed=self.call_seed(0, purpose=1)).allocation

    def setup(self, workdir: Path) -> None:
        self.x = round_trip_covariates(paper_covariates(self.seed), workdir)
        self.rule = paper_rule()
        round_trip_thresholds(self.rule, workdir)
        self.mm = expand_model_matrix(build_design_matrix(PAPER_SPEC))
        self.alloc = round_trip_allocation(self._observed, workdir)
        scale = self.x.entries.std(axis=0)
        model = simlab.OutcomeModel(effects={"A": 0.2, "AB": 0.1}, beta=1.0 / scale,
                                    target_r2=0.5)
        po = simlab.generate_potential_outcomes(model, self.x, self.mm, _rng(self.seed, 2))
        self.y = round_trip_outcomes(po.observe(self.alloc), workdir)
        self.effects = self.rule.monitored_effects

    def call(self, i: int) -> Any:
        return engine.randomization_test(
            self.y, self.alloc, self.x, self.rule, self.effects, n_draws=self.n_draws,
            seed=self.call_seed(i), workers=self.workers, **self._budget())

    def keep(self, result: Any) -> InferenceOut:
        return keep_inference(result)

    def results(self, out: InferenceOut) -> int:
        return out.n_reference

    def scanned(self, out: InferenceOut) -> int:
        return out.draws_scanned

    def check(self, out: InferenceOut) -> list[str]:
        return check_inference(out, self.n_draws, self.y, self.alloc, self.mm, self.effects)

    def digest(self, h: Any, out: InferenceOut) -> None:
        digest_inference(h, out)


class StudyDesk(Workload):
    name = "study-desk"
    min_calls = 4
    n_reps = 5000

    def setup(self, workdir: Path) -> None:
        self.x = round_trip_covariates(normal_covariates(self.seed, DESK_SPEC.n, 3), workdir)
        self.rule = AcceptanceRule(tiers=(Tier("all", DESK_EFFECTS, joint_prob=0.1),), p=3)
        round_trip_thresholds(self.rule, workdir)
        self.model = simlab.OutcomeModel(effects={"A": 2.0, "AB": 1.0}, beta=np.ones(3),
                                         target_r2=0.6)

    def call(self, i: int) -> Any:
        return simlab.variance_study(DESK_SPEC, self.x, self.rule, self.model,
                                     n_reps=self.n_reps, seed=self.call_seed(i),
                                     workers=self.workers, **self._budget())

    def keep(self, report: Any) -> StudyOut:
        return StudyOut(
            n_reps=int(report.n_reps),
            draws_scanned=int(report.draws_scanned),
            acceptance_rate=float(report.acceptance_rate),
            d_var_accepted=np.array(report.d_var_accepted),
            d_pct_reduction=np.array(report.d_pct_reduction),
            theta_var_accepted=np.array(report.theta_var_accepted),
            theta_ratio=np.array(report.theta_ratio),
        )

    def results(self, out: StudyOut) -> int:
        return out.n_reps

    def scanned(self, out: StudyOut) -> int:
        # The pure-randomization half uses every draw it makes.
        return out.draws_scanned + out.n_reps

    def check(self, out: StudyOut) -> list[str]:
        problems = []
        n_eff, n_cov = len(DESK_EFFECTS), self.x.p
        if out.n_reps != self.n_reps:
            problems.append(f"study has {out.n_reps} reps, requested {self.n_reps}")
        if not 0.0 < out.acceptance_rate <= 1.0 or out.draws_scanned < out.n_reps:
            problems.append(f"acceptance rate {out.acceptance_rate} over {out.draws_scanned}")
        if out.d_var_accepted.shape != (n_eff, n_cov) or out.theta_ratio.shape != (n_eff,):
            problems.append("study tables have the wrong shape")
        elif not (np.all(np.isfinite(out.d_var_accepted)) and np.all(np.isfinite(out.theta_ratio))):
            problems.append("study tables hold non-finite values")
        # Every effect is monitored, with a predicted 40.8 percent cut; at
        # 5000 reps the estimate's standard error is about 3 points.
        elif not np.all(out.d_pct_reduction > 0.0):
            problems.append("acceptance did not reduce every mean-difference variance")
        return problems

    def digest(self, h: Any, out: StudyOut) -> None:
        h.update(f"{out.n_reps}:{out.draws_scanned};".encode())
        for arr in (out.d_var_accepted, out.theta_var_accepted):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class InferenceDesk(Workload):
    name = "inference-desk"
    min_calls = 64
    n_draws = 399
    effects = ("A", "B", "AB")

    def setup(self, workdir: Path) -> None:
        self.x = round_trip_covariates(normal_covariates(self.seed, SMALL_SPEC.n, 2), workdir)
        self.rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)
        round_trip_thresholds(self.rule, workdir)
        self.mm = expand_model_matrix(build_design_matrix(SMALL_SPEC))
        y = self.x.entries @ np.ones(2) + _rng(self.seed, 2).normal(size=SMALL_SPEC.n)
        self.y = round_trip_outcomes(y, workdir)

    def call(self, i: int) -> Any:
        obs = engine.rerandomize(self.x, SMALL_SPEC, self.rule, seed=self.call_seed(i),
                                 workers=self.workers, **self._budget())
        test = engine.randomization_test(
            self.y, obs.allocation, self.x, self.rule, self.effects, n_draws=self.n_draws,
            seed=self.call_seed(i, purpose=1), workers=self.workers, **self._budget())
        return obs, test

    def keep(self, result: Any) -> tuple[AllocationOut, InferenceOut]:
        obs, test = result
        return keep_allocation(obs), keep_inference(test)

    def scanned(self, out: tuple[AllocationOut, InferenceOut]) -> int:
        return out[0].draws_attempted + out[1].draws_scanned

    def check(self, out: tuple[AllocationOut, InferenceOut]) -> list[str]:
        alloc_out, test_out = out
        problems = check_allocation(alloc_out, SMALL_SPEC, self.x, self.rule, self.mm)
        if problems:
            return problems
        alloc = Allocation(spec=SMALL_SPEC, combo_of_unit=alloc_out.combos)
        return check_inference(test_out, self.n_draws, self.y, alloc, self.mm, self.effects)

    def digest(self, h: Any, out: tuple[AllocationOut, InferenceOut]) -> None:
        digest_allocation(h, out[0])
        digest_inference(h, out[1])


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AllocatePaper, ReferencePaper, StudyDesk, InferenceDesk)
}


def digest_outputs(workload: Workload, outputs: list[Any]) -> str:
    """sha256 over the outputs in call order; a failed call hashes as a marker."""
    h = hashlib.sha256(workload.name.encode())
    for out in outputs:
        if out is None:
            h.update(b"failed;")
        else:
            workload.digest(h, out)
    return h.hexdigest()
