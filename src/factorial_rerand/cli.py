"""Command-line front end.

Every data-bearing command reads a JSON run configuration describing the
design, the covariate file, and the acceptance rule, so a study is fully
reproducible from one file plus a seed.  Flags override the config where
that is useful (seed, draw budget, workers, output locations).

Exit codes: 2 usage, 3 unreadable or invalid input files, invalid config or
flag values and output paths that cannot be written, 4 dimension mismatches,
5 singular covariance, 6 draw budget exhausted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import os
import secrets
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import click

from . import __version__, engine, fileio, sampling, simlab
from .assignment import expand_assignment
from .balance import CovariateMatrix, balance_profile
from .criteria import AcceptanceRule, ThresholdMode, Tier
from .design import DesignSpec, Order, build_design_matrix, expand_model_matrix
from .errors import (
    DimensionMismatch,
    MaxDrawsExceeded,
    ParseError,
    SingularCovariance,
)

# Every value the command line handles comes from outside the program, so a
# ValueError raised deeper down is bad input too; reads raise ParseError, so an
# OSError is an output path that cannot be written.  Subclasses come first.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (ParseError, 3),
    (DimensionMismatch, 4),
    (SingularCovariance, 5),
    (MaxDrawsExceeded, 6),
    (ValueError, 3),
    (OSError, 3),
)

_WORKERS_HELP = f"Worker threads for candidate scanning (1 to {sampling.MAX_WORKERS})."


def _with_exit_codes(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        except tuple(cls for cls, _ in _EXIT_CODES) as exc:
            code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(code) from exc

    return wrapper


@click.group()
@click.version_option(__version__, prog_name="rerand")
@click.option("-v", "--verbose", is_flag=True, help="Log progress details.")
def main(verbose: bool) -> None:
    """Rerandomization for balanced two-level factorial designs."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Run configuration

_TOP_KEYS = {
    "design", "covariates", "rule", "seed", "max_draws", "workers", "output_dir",
    "simulation", "calibration", "test",
}


def _object(value: Any, allowed: set[str], where: str, required: bool = False) -> Any:
    """``value`` as a JSON object with only ``allowed`` keys (null ones dropped), or None."""
    if value is None and not required:
        return None
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    return {k: v for k, v in value.items() if v is not None}


def _count(section: Mapping[str, Any], key: str, where: str, default: Any, minimum: int = 1) -> Any:
    """An integer field at or above ``minimum``; bools, floats and strings are refused."""
    value = section.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ParseError(f"{where}: {key} must be an integer >= {minimum}, got {value!r}")
    return value


def _strings(section: Mapping[str, Any], key: str, where: str, default: Any = None) -> Any:
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where}: {key} must be a list of strings, got {value!r}")
    return tuple(value)


def _path(value: Any, base: Path, where: str) -> Path:
    if not isinstance(value, str):
        raise ParseError(f"{where} must be a path string, got {value!r}")
    p = Path(value)
    return p if p.is_absolute() else base / p


@contextlib.contextmanager
def _building(where: str) -> Iterator[None]:
    """Report a bad value met while building package objects as a ParseError."""
    try:
        yield
    except (ParseError, DimensionMismatch):
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _rule(section: Mapping[str, Any], base: Path, p: int, where: str) -> AcceptanceRule:
    with _building(where):
        mode = ThresholdMode(section.get("mode", "chi2"))
        if "thresholds_path" in section:
            if "tiers" in section:
                raise ValueError("give either tiers or thresholds_path, not both")
            file = _path(section["thresholds_path"], base, f"{where}: thresholds_path")
            thresholds, p_file = fileio.read_thresholds(file)
            if p_file != p:
                raise ValueError(f"thresholds were calibrated for {p_file} covariates, have {p}")
            return AcceptanceRule.from_thresholds(thresholds, p=p, mode=mode)
        entries = section.get("tiers", [])
        if not isinstance(entries, list):
            raise ParseError(f"{where}: tiers must be a list of objects, got {entries!r}")
        tiers = []
        for i, entry in enumerate(entries):
            tier_where = f"{where} tier {i}"
            entry = _object(entry, {"name", "effects", "a", "joint_prob"}, tier_where, True)
            effects = _strings(entry, "effects", tier_where, ())
            tiers.append(Tier(**{"name": f"tier{i + 1}", **entry, "effects": effects}))
        return AcceptanceRule(tiers=tuple(tiers), p=p, mode=mode)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A run configuration, read and checked once, with flag overrides applied.

    Relative paths resolve against the config file's directory, and a key set
    to null counts as absent.  Value rules stay with the objects built here
    and the functions that use them.
    """

    path: str
    spec: DesignSpec
    x: CovariateMatrix
    rule: AcceptanceRule | None
    seed: int
    seed_generated: bool
    max_draws: int | None  # None: each call's own default budget
    workers: int
    output_dir: Path
    test: dict[str, Any]  # n_draws, effects
    simulation: dict[str, Any] | None  # study, n_reps, model, effects, report_x
    calibration: dict[str, Any] | None  # effects, q, n_draws

    @classmethod
    def load(
        cls,
        path: str,
        *,
        seed: int | None = None,
        workers: int | None = None,
        max_draws: int | None = None,
        output_dir: str | None = None,
        with_rule: bool = True,
    ) -> RunConfig:
        """Read ``path``; flags replace their config values and pass the same checks.

        ``with_rule=False`` skips the rule section, which may name the
        thresholds file that calibration is about to write.
        """
        cfg = _object(fileio.read_json(path), _TOP_KEYS, path)
        base = Path(path).resolve().parent
        flags = {"seed": seed, "workers": workers, "max_draws": max_draws}
        top = {**cfg, **{k: v for k, v in flags.items() if v is not None}}
        seed_value = _count(top, "seed", path, None, minimum=0)

        where = f"{path}: design"
        design = _object(cfg.get("design"), {"k", "r", "order", "factor_names"}, where, True)
        names = _strings(design, "factor_names", where)
        with _building(where):
            spec = DesignSpec(**{**design, "factor_names": names})

        where = f"{path}: covariates"
        section = _object(cfg.get("covariates"), {"path", "columns"}, where, True)
        full = fileio.read_covariates(_path(section.get("path"), base, f"{where}: path"))
        columns = _strings(section, "columns", where)
        with _building(where):
            x = full if columns is None else full.subset(columns)

        rule = None
        if with_rule:
            where = f"{path}: rule"
            section = _object(cfg.get("rule"), {"mode", "tiers", "thresholds_path"}, where, True)
            rule = _rule(section, base, x.p, where)

        where = f"{path}: test"
        test = _object(cfg.get("test"), {"n_draws", "effects"}, where) or {}
        test = {
            "n_draws": _count(test, "n_draws", where, 1000),
            "effects": _strings(test, "effects", where, ()),
        }

        where = f"{path}: simulation"
        keys = {"study", "n_reps", "model", "effects", "report_covariates"}
        sim = _object(cfg.get("simulation"), keys, where)
        if sim is not None:
            if sim.get("study", "variance") not in ("variance", "independence"):
                raise ParseError(f"{where}: study must be 'variance' or 'independence'")
            keys = {"effects", "beta", "grand_mean", "sigma", "target_r2"}
            model = _object(sim.get("model"), keys, f"{where}: model")
            names = _strings(sim, "report_covariates", where)
            with _building(where):
                sim = {
                    "study": sim.get("study", "variance"),
                    "n_reps": _count(sim, "n_reps", where, 1000),
                    "model": None if model is None else simlab.OutcomeModel(**model),
                    "effects": _strings(sim, "effects", where),
                    "report_x": None if names is None else full.subset(names),
                }

        where = f"{path}: calibration"
        cal = _object(cfg.get("calibration"), {"effects", "q", "n_draws"}, where)
        if cal is not None:
            if "q" not in cal:
                raise ParseError(f"{where}: missing 'q'")
            with _building(where):
                q = cal["q"]
                # Only a value float() refuses stops here; the targets are
                # kept as given, so calibration sees and refuses a bool.
                for value in q.values() if isinstance(q, dict) else (q,):
                    float(value)
                cal = {
                    "effects": _strings(cal, "effects", where, ()),
                    "q": q,
                    "n_draws": _count(cal, "n_draws", where, 10_000),
                }

        out = _path(cfg.get("output_dir", "."), base, f"{path}: output_dir")
        return cls(
            path=path,
            spec=spec,
            x=x,
            rule=rule,
            seed=secrets.randbits(63) if seed_value is None else seed_value,
            seed_generated=seed_value is None,
            max_draws=_count(top, "max_draws", path, None),
            workers=_count(top, "workers", path, 1),
            output_dir=out if output_dir is None else Path(output_dir),
            test=test,
            simulation=sim,
            calibration=cal,
        )

    def section(self, name: str) -> dict[str, Any]:
        """The checked ``simulation`` or ``calibration`` section, which must be present."""
        value = getattr(self, name)
        if value is None:
            raise ParseError(f"{self.path}: missing required section {name!r}")
        return value

    def echo_generated_seed(self) -> None:
        if self.seed_generated:
            click.echo(f"seed: {self.seed} (generated)")


def _budget(run: RunConfig) -> dict[str, int]:
    """``max_draws`` as a keyword argument when the config or a flag sets it.

    Unset, each call keeps its own default budget.
    """
    return {} if run.max_draws is None else {"max_draws": run.max_draws}


def _output_dir(path: Path) -> Path:
    """Create ``path`` and check that it can be written, before any drawing.

    A path that cannot be written then exits 3 at once, not after a scan that
    may take minutes.
    """
    path.mkdir(parents=True, exist_ok=True)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(f"cannot write to {path}")
    return path


def _effect_list(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise ParseError("effect list is empty")
    return labels


def _echo_table(rows: list[Sequence[Any]], header: Sequence[str]) -> None:
    table = [list(map(str, header))] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for i, row in enumerate(table):
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            click.echo("  ".join("-" * w for w in widths))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# Commands


@main.command()
@click.option("--k", "k", type=int, required=True, help="Number of factors.")
@click.option("--r", "r", type=int, default=1, show_default=True, help="Units per combination.")
@click.option(
    "--order",
    type=click.Choice([o.value for o in Order]),
    default=Order.LEXICOGRAPHIC.value,
    show_default=True,
)
@click.option("--factors", help="Comma-separated factor names.")
@click.option("--expanded", is_flag=True, help="Include interaction and mean columns.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write CSV here instead of stdout.")
@_with_exit_codes
def design(k: int, r: int, order: str, factors: str | None, expanded: bool, output: str | None) -> None:
    """Print the design matrix for a 2^K factorial."""
    spec = DesignSpec(k=k, r=r, order=Order(order), factor_names=_effect_list(factors))
    dm = build_design_matrix(spec)
    if expanded:
        mm = expand_model_matrix(dm)
        header = ["combination", *mm.labels]
        body = mm.entries
    else:
        header = ["combination", *spec.factor_names]
        body = dm.entries
    lines = [",".join(header)]
    for j in range(dm.n_combinations):
        lines.append(",".join([str(j + 1), *(str(int(v)) for v in body[j])]))
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--seed", type=int, help="Override the config seed.")
@click.option("--max-draws", type=int, help="Override the draw budget.")
@click.option("--workers", type=int, help=_WORKERS_HELP)
@click.option("-o", "--output-dir", type=click.Path(file_okay=False), help="Override the output directory.")
@_with_exit_codes
def allocate(
    config_path: str,
    seed: int | None,
    max_draws: int | None,
    workers: int | None,
    output_dir: str | None,
) -> None:
    """Draw an accepted allocation and write it with its audit trail."""
    run = RunConfig.load(
        config_path, seed=seed, workers=workers, max_draws=max_draws, output_dir=output_dir
    )
    out = _output_dir(run.output_dir)
    result = engine.rerandomize(
        run.x, run.spec, run.rule, run.seed, workers=run.workers, **_budget(run)
    )

    fileio.write_allocation(out / "allocation.csv", result.allocation)
    fileio.write_json(out / "manifest.json", result.manifest(version=__version__))
    fileio.write_balance_report(out / "balance.csv", result.profile)

    click.echo(f"seed: {run.seed}" + (" (generated)" if run.seed_generated else ""))
    click.echo(
        f"accepted after {result.draws_attempted} draws "
        f"(implied acceptance probability {result.acceptance_probability:.3g})"
    )
    rows = [
        (eff, result.profile.m(eff), result.thresholds[eff])
        for eff in run.rule.monitored_effects
    ]
    _echo_table(rows, header=("effect", "distance", "threshold"))
    click.echo(f"wrote {out / 'allocation.csv'}, {out / 'manifest.json'}, {out / 'balance.csv'}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--allocation", "allocation_path", required=True, type=click.Path(exists=False))
@click.option("--effects", help="Comma-separated effects to profile (default: monitored).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the report CSV here.")
@_with_exit_codes
def diagnose(
    config_path: str, allocation_path: str, effects: str | None, output: str | None
) -> None:
    """Profile covariate balance for an existing allocation."""
    run = RunConfig.load(config_path)
    alloc = fileio.read_allocation(allocation_path, run.spec)
    kernel = engine._prepare(run.x, run.spec, run.rule)
    w = expand_assignment(alloc, kernel.mm)
    monitored = run.rule.monitored_effects
    labels = tuple(dict.fromkeys(_effect_list(effects) or monitored))
    # One profile covers the requested effects and the rule's.
    profile = balance_profile(run.x, w, labels + monitored, cm=kernel.cm)
    # One comparison judges each effect and the rule.
    passes = {eff: profile.m(eff) <= a for eff, a in kernel.thresholds.items()}
    rows = []
    for eff in labels:
        a = kernel.thresholds.get(eff)
        verdict = "" if a is None else ("PASS" if passes[eff] else "FAIL")
        rows.append((eff, profile.m(eff), "" if a is None else a, verdict))
    _echo_table(rows, header=("effect", "distance", "threshold", "status"))
    click.echo(f"acceptance rule: {'PASS' if all(passes.values()) else 'FAIL'}")
    if output:
        fileio.write_balance_report(output, dataclasses.replace(profile, effects=labels))
        click.echo(f"wrote {output}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--allocation", "allocation_path", required=True, type=click.Path(exists=False))
@click.option("--outcomes", "outcomes_path", required=True, type=click.Path(exists=False))
@click.option("--effects", help="Comma-separated effects to test (default: monitored).")
@click.option("--draws", type=int, help="Reference draws (default 1000, or config test.n_draws).")
@click.option("--seed", type=int, help="Override the config seed.")
@click.option("--workers", type=int, help=_WORKERS_HELP)
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write results JSON here.")
@_with_exit_codes
def test(
    config_path: str,
    allocation_path: str,
    outcomes_path: str,
    effects: str | None,
    draws: int | None,
    seed: int | None,
    workers: int | None,
    output: str | None,
) -> None:
    """Randomization test over the accepted-allocation reference set."""
    run = RunConfig.load(config_path, seed=seed, workers=workers)
    alloc = fileio.read_allocation(allocation_path, run.spec)
    y = fileio.read_outcomes(outcomes_path, n=run.spec.n)
    labels = _effect_list(effects) or run.test["effects"] or run.rule.monitored_effects
    result = engine.randomization_test(
        y, alloc, run.x, run.rule, labels,
        n_draws=run.test["n_draws"] if draws is None else draws,
        seed=run.seed, workers=run.workers, **_budget(run),
    )
    run.echo_generated_seed()
    rows = [(eff, result.observed[eff], result.p_values[eff]) for eff in result.effects]
    _echo_table(rows, header=("effect", "estimate", "p_value"))
    click.echo(f"reference draws: {result.n_reference} (scanned {result.draws_scanned})")
    if output:
        fileio.write_json(output, result.to_dict())
        click.echo(f"wrote {output}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--reps", type=int, help="Override simulation.n_reps.")
@click.option("--seed", type=int, help="Override the config seed.")
@click.option("--workers", type=int, help=_WORKERS_HELP)
@click.option("-o", "--output-dir", type=click.Path(file_okay=False), help="Override the output directory.")
@_with_exit_codes
def simulate(
    config_path: str,
    reps: int | None,
    seed: int | None,
    workers: int | None,
    output_dir: str | None,
) -> None:
    """Monte Carlo study of the acceptance rule's effect on balance and estimates."""
    run = RunConfig.load(config_path, seed=seed, workers=workers, output_dir=output_dir)
    sim = run.section("simulation")
    n_reps = sim["n_reps"] if reps is None else reps
    out = _output_dir(run.output_dir / "study")
    run.echo_generated_seed()

    if sim["study"] == "independence":
        report = simlab.independence_study(
            run.spec, run.x, run.rule, n_reps, run.seed, workers=run.workers
        )
        click.echo(
            f"joint acceptance {report.joint_rate:.4f} "
            f"(rule implies {report.rule_implied_joint:.4f}, "
            f"marginal product {report.empirical_product:.4f})"
        )
        click.echo(f"largest indicator correlation: {report.max_indicator_corr:.4f}")
    else:
        report = simlab.variance_study(
            run.spec, run.x, run.rule, sim["model"], n_reps, run.seed,
            effects=sim["effects"], report_x=sim["report_x"], workers=run.workers,
            max_draws=run.max_draws,
        )
        click.echo(
            f"acceptance rate {report.acceptance_rate:.4f} over {report.draws_scanned} draws"
        )
        rows = [
            (o, red, report.d_pct_reduction.shape[1])
            for o, red in report.mean_reduction_by_order().items()
        ]
        _echo_table(rows, header=("interaction_order", "mean_pct_reduction", "covariates"))
        if report.r2_realized is not None:
            click.echo(f"unit-level R^2: {report.r2_realized:.4f}")
    written = fileio.write_study_report(out, report)
    click.echo("wrote " + ", ".join(str(p) for p in written))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--draws", type=int, help="Override calibration.n_draws.")
@click.option("--seed", type=int, help="Override the config seed.")
@click.option("--workers", type=int, help=_WORKERS_HELP)
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write thresholds JSON here.")
@_with_exit_codes
def calibrate(
    config_path: str,
    draws: int | None,
    seed: int | None,
    workers: int | None,
    output: str | None,
) -> None:
    """Estimate per-effect thresholds as empirical distance quantiles."""
    run = RunConfig.load(config_path, seed=seed, workers=workers, with_rule=False)
    cal = run.section("calibration")
    target = Path(output) if output else run.output_dir / "thresholds.json"
    _output_dir(target.parent)
    thresholds = simlab.calibrate_empirical_thresholds(
        run.spec, run.x, cal["effects"], cal["q"],
        cal["n_draws"] if draws is None else draws, run.seed, workers=run.workers,
    )
    run.echo_generated_seed()
    _echo_table(sorted(thresholds.items()), header=("effect", "threshold"))
    fileio.write_thresholds(target, thresholds, p=run.x.p)
    click.echo(f"wrote {target}")


if __name__ == "__main__":
    main()
