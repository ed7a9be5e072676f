import copy
import json
import math
import os
import threading

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorial_rerand import engine, fileio, sampling, simlab
from factorial_rerand.assignment import Allocation, expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile
from factorial_rerand.cli import main
from factorial_rerand.criteria import AcceptanceRule, Tier, accept
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix

CONFIG = {
    "design": {"k": 2, "r": 8},
    "covariates": {"path": "cov.csv"},
    "rule": {
        "mode": "chi2",
        "tiers": [{"name": "mains", "effects": ["A", "B"], "joint_prob": 0.25}],
    },
    "seed": 424242,
    "output_dir": "out",
    "test": {"n_draws": 150},
    "simulation": {
        "study": "variance",
        "n_reps": 400,
        "model": {"effects": {"A": 1.5}, "beta": [1.0, 1.0], "target_r2": 0.5},
    },
    "calibration": {"effects": ["A", "B"], "q": 0.5, "n_draws": 2000},
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(42)
    x = CovariateMatrix(rng.normal(size=(32, 2)), names=("x1", "x2"))
    fileio.write_covariates(tmp_path / "cov.csv", x)
    cfg = copy.deepcopy(CONFIG)
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    return tmp_path, cfg


def _write_cfg(tmp_path, cfg):
    (tmp_path / "run.json").write_text(json.dumps(cfg))


def test_design_command_prints_expanded_matrix(runner):
    result = runner.invoke(main, ["design", "--k", "2", "--expanded"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "combination,mean,A,B,AB",
        "1,1,-1,-1,1",
        "2,1,-1,1,-1",
        "3,1,1,-1,-1",
        "4,1,1,1,1",
    ]


def test_design_command_yates_and_names(runner):
    result = runner.invoke(
        main, ["design", "--k", "2", "--order", "yates", "--factors", "dose,timing"]
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "combination,dose,timing"
    assert lines[1] == "1,-1,-1"
    assert lines[2] == "2,1,-1"


def test_allocate_writes_outputs_and_is_reproducible(runner, workdir):
    tmp_path, _ = workdir
    args = ["allocate", "--config", str(tmp_path / "run.json")]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    assert "seed: 424242" in first.output
    out = tmp_path / "out"
    alloc_bytes = (out / "allocation.csv").read_bytes()
    manifest = fileio.read_json(out / "manifest.json")
    assert manifest["seed"] == 424242
    assert manifest["draws_attempted"] >= 1
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert (out / "allocation.csv").read_bytes() == alloc_bytes
    override = runner.invoke(main, args + ["--seed", "7"])
    assert override.exit_code == 0
    assert (out / "allocation.csv").read_bytes() != alloc_bytes


def test_allocate_generates_seed_when_absent(runner, workdir):
    tmp_path, cfg = workdir
    del cfg["seed"]
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 0, result.output
    assert "(generated)" in result.output


def test_diagnose_reports_pass(runner, workdir):
    tmp_path, _ = workdir
    runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    result = runner.invoke(
        main,
        [
            "diagnose",
            "--config", str(tmp_path / "run.json"),
            "--allocation", str(tmp_path / "out" / "allocation.csv"),
            "-o", str(tmp_path / "report.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "acceptance rule: PASS" in result.output
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "effect,covariate,statistic,value"

    # Units sorted by x1 take the combinations in order, so effect A splits
    # the low half of x1 from the high half: the worst balance there is.
    x = fileio.read_covariates(tmp_path / "cov.csv")
    spec = DesignSpec(k=2, r=8)
    combos = np.empty(spec.n, dtype=np.int64)
    combos[np.argsort(x.entries[:, 0])] = np.repeat(np.arange(1, 5), spec.r)
    fileio.write_allocation(tmp_path / "bad.csv", Allocation(spec=spec, combo_of_unit=combos))
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)
    mm = expand_model_matrix(build_design_matrix(spec))
    for name, verdict in (("out/allocation.csv", "PASS"), ("bad.csv", "FAIL")):
        path = tmp_path / name
        result = runner.invoke(
            main, ["diagnose", "--config", str(tmp_path / "run.json"), "--allocation", str(path)]
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        profile = balance_profile(x, expand_assignment(fileio.read_allocation(path), mm), ("A", "B"))
        assert lines[-1] == f"acceptance rule: {verdict}"
        assert lines[-1] == f"acceptance rule: {'PASS' if accept(profile, rule) else 'FAIL'}"
    assert lines[2].split()[0] == "A" and lines[2].split()[-1] == "FAIL"


def test_test_command_runs_and_writes_json(runner, workdir):
    tmp_path, _ = workdir
    runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    alloc = fileio.read_allocation(tmp_path / "out" / "allocation.csv")
    x = fileio.read_covariates(tmp_path / "cov.csv")
    rng = np.random.default_rng(9)
    y = x.entries @ np.ones(2) + rng.normal(size=32)
    fileio.write_outcomes(tmp_path / "y.csv", y)
    result = runner.invoke(
        main,
        [
            "test",
            "--config", str(tmp_path / "run.json"),
            "--allocation", str(tmp_path / "out" / "allocation.csv"),
            "--outcomes", str(tmp_path / "y.csv"),
            "-o", str(tmp_path / "test.json"),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = fileio.read_json(tmp_path / "test.json")
    assert payload["n_reference"] == 150
    assert set(payload["p_values"]) == {"A", "B"}
    assert all(0.0 < v <= 1.0 for v in payload["p_values"].values())


def test_every_output_names_the_sampler(runner, workdir):
    # The candidate stream a seed maps to is recorded beside the seed in the
    # manifest, the study report and the test JSON.
    tmp_path, cfg = workdir
    config = str(tmp_path / "run.json")
    assert runner.invoke(main, ["allocate", "--config", config]).exit_code == 0
    fileio.write_outcomes(tmp_path / "y.csv", np.random.default_rng(9).normal(size=32))
    tested = runner.invoke(main, [
        "test", "--config", config, "--allocation", str(tmp_path / "out" / "allocation.csv"),
        "--outcomes", str(tmp_path / "y.csv"), "-o", str(tmp_path / "test.json"),
    ])
    assert tested.exit_code == 0, tested.output
    cfg["simulation"]["n_reps"] = 50
    _write_cfg(tmp_path, cfg)
    assert runner.invoke(main, ["simulate", "--config", config]).exit_code == 0
    for path in (tmp_path / "out" / "manifest.json", tmp_path / "test.json",
                 tmp_path / "out" / "study" / "study.json"):
        assert fileio.read_json(path)["sampler"] == sampling.SAMPLER, path


def test_simulate_variance_study(runner, workdir):
    tmp_path, _ = workdir
    result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 0, result.output
    study = fileio.read_json(tmp_path / "out" / "study" / "study.json")
    assert study["n_reps"] == 400
    assert (tmp_path / "out" / "study" / "reduction.csv").exists()
    assert (tmp_path / "out" / "study" / "estimators.csv").exists()


def test_simulate_independence_study(runner, workdir):
    tmp_path, cfg = workdir
    cfg["simulation"] = {"study": "independence", "n_reps": 2000}
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 0, result.output
    assert "joint acceptance" in result.output


def test_calibrate_then_allocate_with_empirical_rule(runner, workdir):
    tmp_path, cfg = workdir
    result = runner.invoke(main, ["calibrate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 0, result.output
    thresholds, p = fileio.read_thresholds(tmp_path / "out" / "thresholds.json")
    assert p == 2 and set(thresholds) == {"A", "B"}
    cfg["rule"] = {"mode": "empirical", "thresholds_path": "out/thresholds.json"}
    _write_cfg(tmp_path, cfg)
    rerun = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert rerun.exit_code == 0, rerun.output
    manifest = fileio.read_json(tmp_path / "out" / "manifest.json")
    assert manifest["rule"]["mode"] == "empirical"


def test_exit_code_usage(runner):
    result = runner.invoke(main, ["allocate"])
    assert result.exit_code == 2


def test_exit_code_parse_error(runner, workdir):
    tmp_path, cfg = workdir
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 3
    cfg["extra"] = True
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 3
    assert "unknown keys" in result.output


def test_exit_code_dimension_mismatch(runner, workdir):
    tmp_path, cfg = workdir
    cfg["design"]["r"] = 4  # 16 units, covariate file has 32 rows
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 4
    result = runner.invoke(main, ["calibrate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 4


def test_exit_code_singular_covariance(runner, workdir):
    tmp_path, cfg = workdir
    x = CovariateMatrix(
        np.column_stack([np.arange(32.0), np.full(32, 2.0)]), names=("x1", "flat")
    )
    fileio.write_covariates(tmp_path / "cov.csv", x)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 5
    assert "flat" in result.output


def test_exit_code_max_draws(runner, workdir):
    tmp_path, cfg = workdir
    cfg["rule"]["tiers"][0]["joint_prob"] = 1e-9
    cfg["max_draws"] = 40
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    assert result.exit_code == 6


@pytest.fixture
def allocated(runner, workdir):
    """A workdir with an accepted allocation and outcomes, ready for every command."""
    tmp_path, cfg = workdir
    assert runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")]).exit_code == 0
    y = np.random.default_rng(9).normal(size=32)
    fileio.write_outcomes(tmp_path / "y.csv", y)
    # A thresholds file whose A threshold is a JSON true, for MALFORMED.
    (tmp_path / "bool_thresholds.json").write_text('{"p": 2, "thresholds": {"A": true}}')
    return tmp_path, cfg


def test_config_max_draws_bounds_every_screened_command(runner, allocated):
    # 150 reference draws and 400 accepted study draws each need more than
    # 40 candidates, whatever the rule.
    tmp_path, cfg = allocated
    cfg["max_draws"] = 40
    _write_cfg(tmp_path, cfg)
    for command in ("test", "simulate"):
        result = runner.invoke(main, _command_args(command, tmp_path))
        _assert_clean_exit(result, {6})


def _command_args(command, tmp_path):
    args = [command, "--config", str(tmp_path / "run.json")]
    if command in ("diagnose", "test"):
        args += ["--allocation", str(tmp_path / "out" / "allocation.csv")]
    if command == "test":
        args += ["--outcomes", str(tmp_path / "y.csv")]
    return args


DROP = object()


def _mutate(cfg, path, value):
    """Set the node at ``path`` to ``value``, or delete it for DROP."""
    *parents, last = path
    for key in parents:
        cfg = cfg[key]
    if value is DROP:
        del cfg[last]
    else:
        cfg[last] = copy.deepcopy(value)


def _assert_clean_exit(result, codes):
    assert result.exit_code in codes, result.output
    # A SystemExit carries the code; anything else escaped as a traceback.
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code:
        assert "error: " in result.output


# (command, config path to replace, new value, extra flags): each must exit 3.
MALFORMED = [
    ("allocate", ("rule", "mode"), "bogus", []),
    ("test", ("rule", "mode"), "bogus", []),
    ("allocate", ("workers",), "two", []),
    ("allocate", ("workers",), 0, []),
    ("allocate", ("workers",), 2.5, []),
    ("allocate", None, None, ["--workers", "0"]),
    ("allocate", ("seed",), "abc", []),
    ("allocate", ("seed",), -1, []),
    ("allocate", ("seed",), True, []),
    ("allocate", None, None, ["--seed", "-1"]),
    ("allocate", ("max_draws",), "lots", []),
    ("allocate", ("rule", "tiers"), {"a": 1}, []),
    ("allocate", ("rule", "tiers", 0, "effects"), ["A", "Z"], []),
    ("test", ("test", "n_draws"), 50, []),
    ("test", None, None, ["--effects", "Z"]),
    ("diagnose", None, None, ["--effects", "Z"]),
    ("simulate", ("simulation", "n_reps"), 1, []),
    ("simulate", ("simulation", "effects"), ["Q"], []),
    ("test", None, None, ["--effects", "mean"]),
    ("allocate", ("rule", "tiers", 0, "effects"), ["A", "mean"], []),
    ("calibrate", ("calibration", "effects"), ["mean"], []),
    ("simulate", ("simulation", "effects"), ["A", "mean"], []),
    # float(True) is 1: a JSON true is neither a threshold nor a quantile.
    ("allocate", ("rule", "tiers", 0), {"name": "mains", "effects": ["A", "B"], "a": True}, []),
    ("calibrate", ("calibration", "q"), True, []),
    ("calibrate", ("calibration", "q"), {"A": 0.5, "B": True}, []),
    ("simulate", ("simulation", "model"),
     {"effects": {"A": 1.5}, "beta": [1.0, 1.0], "sigma": True}, []),
    ("simulate", ("simulation", "model", "target_r2"), True, []),
    ("simulate", ("simulation", "model", "effects"), {"A": True}, []),
    ("simulate", ("simulation", "model", "beta"), [True, 1.0], []),
    ("simulate", ("simulation", "model", "grand_mean"), True, []),
    ("allocate", ("rule",), {"mode": "empirical", "thresholds_path": "bool_thresholds.json"}, []),
    # NaN, Infinity and -Infinity are tokens Python's json reads, not JSON numbers.
    ("allocate", ("rule", "tiers", 0), {"name": "mains", "effects": ["A", "B"], "a": math.inf}, []),
    ("simulate", ("simulation", "model"),
     {"effects": {"A": 1.5}, "beta": [1.0, 1.0], "sigma": math.inf}, []),
    ("simulate", ("simulation", "model"),
     {"effects": {"A": 1.5}, "beta": [1.0, 1.0], "sigma": math.nan}, []),
    ("simulate", ("simulation", "model", "effects"), {"A": math.inf}, []),
    ("simulate", ("simulation", "model", "grand_mean"), math.nan, []),
    ("simulate", ("simulation", "model", "grand_mean"), -math.inf, []),
]


@pytest.mark.parametrize("command, path, value, flags", MALFORMED)
def test_malformed_input_exits_3_without_traceback(runner, allocated, command, path, value, flags):
    tmp_path, cfg = allocated
    if path is not None:
        _mutate(cfg, path, value)
        _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, _command_args(command, tmp_path) + flags)
    _assert_clean_exit(result, {3})


@pytest.mark.parametrize("column, value", [(1, "99999999999"), (2, str(10**30))])
def test_allocation_values_beyond_machine_integers_exit_3(runner, allocated, column, value):
    tmp_path, _ = allocated
    path = tmp_path / "out" / "allocation.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[column] = value
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    for command in ("diagnose", "test"):
        _assert_clean_exit(runner.invoke(main, _command_args(command, tmp_path)), {3})


def _forbid_drawing(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("drawing started before the output path was checked")

    for module, name in (
        (engine, "rerandomize"),
        (simlab, "variance_study"),
        (simlab, "independence_study"),
        (simlab, "calibrate_empirical_thresholds"),
    ):
        monkeypatch.setattr(module, name, never)


# cov.csv is an existing file, so neither it nor a path inside it can be written.
@pytest.mark.parametrize(
    "command, output_dir, output",
    [
        ("allocate", "cov.csv", None),
        ("calibrate", "cov.csv", None),
        ("simulate", "cov.csv", None),
        ("calibrate", "out", "cov.csv/t.json"),
    ],
)
def test_unwritable_output_path_exits_3(runner, workdir, monkeypatch, command, output_dir, output):
    tmp_path, cfg = workdir
    cfg["output_dir"] = output_dir
    _write_cfg(tmp_path, cfg)
    _forbid_drawing(monkeypatch)
    flags = [] if output is None else ["-o", str(tmp_path / output)]
    result = runner.invoke(main, _command_args(command, tmp_path) + flags)
    _assert_clean_exit(result, {3})
    assert result.output.count("error: ") == 1


@pytest.mark.parametrize("command", ["allocate", "simulate", "calibrate"])
def test_output_directory_without_write_access_exits_3(runner, workdir, monkeypatch, command):
    # Permission bits do not stop a superuser, so access to every directory is denied here.
    tmp_path, _ = workdir
    _forbid_drawing(monkeypatch)
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode, **kw: access(path, mode, **kw) and not os.path.isdir(path)
    )
    result = runner.invoke(main, _command_args(command, tmp_path))
    _assert_clean_exit(result, {3})
    assert "cannot write to" in result.output


def test_workers_above_the_limit_exit_3_before_any_thread_starts(runner, workdir, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    tmp_path, _ = workdir
    threads = threading.active_count()
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
    result = runner.invoke(main, _command_args("allocate", tmp_path) + ["--workers", str(10**6)])
    _assert_clean_exit(result, {3})
    assert f"at most {sampling.MAX_WORKERS}" in result.output
    assert threading.active_count() == threads


def test_design_too_large_to_expand_exits_3(runner, workdir):
    tmp_path, cfg = workdir
    # K=13 passes DesignSpec (K <= 20) but not the dense 4^K model matrix.
    x = CovariateMatrix(np.random.default_rng(3).normal(size=(8192, 2)), names=("x1", "x2"))
    fileio.write_covariates(tmp_path / "cov.csv", x)
    cfg["design"] = {"k": 13, "r": 1}
    _write_cfg(tmp_path, cfg)
    result = runner.invoke(main, ["allocate", "--config", str(tmp_path / "run.json")])
    _assert_clean_exit(result, {3})
    assert "exceeds the cap" in result.output
    assert runner.invoke(main, ["design", "--k", "15"]).exit_code == 0


def _node_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, prefix + (key,))


MUTATION = st.tuples(
    st.sampled_from(sorted(_node_paths(CONFIG), key=repr)),
    st.sampled_from([DROP, None, True, -1, 0, 2.5, math.nan, math.inf, "x", [], {}]),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=2))
def test_mutated_config_exits_with_a_documented_code(runner, allocated, mutations):
    tmp_path, _ = allocated
    cfg = copy.deepcopy(CONFIG)
    for path, value in mutations:
        try:
            _mutate(cfg, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    _write_cfg(tmp_path, cfg)
    for command in ("allocate", "test", "simulate"):
        result = runner.invoke(main, _command_args(command, tmp_path))
        _assert_clean_exit(result, {0, 2, 3, 4, 5, 6})
        if result.exit_code == 0:
            # Every JSON file the commands wrote is strict JSON.
            for path in tmp_path.rglob("*.json"):
                if path.name != "run.json":
                    json.loads(path.read_text(), parse_constant=_refuse_constant)


def _refuse_constant(token):
    raise AssertionError(f"{token} is not JSON")
