import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qdiscrim
from qdiscrim.cli import ConfigError, ExperimentConfig, load_config, main
from qdiscrim import cli
from qdiscrim.errors import ConvergenceFailure

SCHEMA = json.loads(
    (Path(qdiscrim.__file__).parent / "schemas" / "report.schema.json").read_text()
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(tmp_path, capsys, experiment, config, extra=()):
    path = write_config(tmp_path, config)
    code = main([experiment, "--config", path, *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- config


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"experiment": "pair", "bogus_knob": 1})
    with pytest.raises(ConfigError, match="bogus_knob"):
        load_config(path, overrides={})
    # grid and curve rows run in one plain loop; there is no worker count
    path = write_config(tmp_path, {"experiment": "grid", "master_seed": 1, "workers": 4})
    with pytest.raises(ConfigError, match=r"unknown config keys \['workers'\]"):
        load_config(path, overrides={})
    # the MLE has one likelihood model, so there is no key to name it
    path = write_config(
        tmp_path, {"experiment": "tomo", "master_seed": 1, "mle": {"likelihood_model": "poisson"}}
    )
    with pytest.raises(ConfigError, match=r"unknown config keys \['mle\.likelihood_model'\]"):
        load_config(path, overrides={})
    assert main(["tomo", "--config", path]) == 2
    # the certified solver has no likelihood-change tolerance and no dilution
    for key, value in (("ll_tolerance", 1e-10), ("dilution", 0.5)):
        path = write_config(
            tmp_path, {"experiment": "tomo", "master_seed": 1, "mle": {key: value}}
        )
        with pytest.raises(ConfigError, match=f"mle.{key}"):
            load_config(path, overrides={})
        assert main(["tomo", "--config", path]) == 2


def test_load_config_requires_experiment(tmp_path):
    path = write_config(tmp_path, {"noise_v": 0.9})
    with pytest.raises(ConfigError, match="experiment"):
        load_config(path, overrides={})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"), overrides={})


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path), overrides={})
    # bytes that are not UTF-8 are no JSON text either
    path.write_bytes(b'{"master_seed": "\xff"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path), overrides={})


def test_sampling_experiments_require_master_seed(tmp_path):
    for experiment in ("pair", "grid", "curve", "tomo"):
        path = write_config(tmp_path, {"experiment": experiment})
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(path, overrides={})
    # the optimiser draws no samples, so no seed is needed
    path = write_config(tmp_path, {"experiment": "optimize"})
    assert load_config(path, overrides={}).master_seed is None


@pytest.mark.parametrize(
    "bad",
    [
        {"experiment": "pair", "master_seed": 1, "grid_step_deg": 17.0},
        {"experiment": "pair", "master_seed": 1, "theta0_deg": 91.0},
        {"experiment": "pair", "master_seed": 1, "eta_deg": 50.0},
        {"experiment": "pair", "master_seed": 1, "noise_v": 1.5},
        {"experiment": "pair", "master_seed": 1, "n_events": 0},
        {"experiment": "pair", "master_seed": 1, "format": "xml"},
        {"experiment": "pair", "master_seed": 1, "theta0_deg": "30"},
        {"experiment": "pair", "master_seed": 1, "state": "ghz"},
        {"experiment": "pair", "master_seed": -3},
        {"experiment": "pair", "master_seed": 1, "eta_min_deg": 30.0, "eta_max_deg": 10.0},
        {"experiment": "warp"},
        # more values of the wrong JSON type
        {"experiment": "pair", "master_seed": 1, "n_events": True},
        {"experiment": "pair", "master_seed": True},
        {"experiment": "pair", "master_seed": 1, "noise_v": False},
        {"experiment": "pair", "master_seed": 1, "n_events": 1000.5},
        {"experiment": "pair", "master_seed": 1, "eta_deg": [10.0]},
        {"experiment": "pair", "master_seed": 1, "state": 3},
        {"experiment": "tomo", "master_seed": 1, "mle": [200]},
        {"experiment": "tomo", "master_seed": 1, "mle": {"max_iterations": "200"}},
        {"experiment": "tomo", "master_seed": 1, "mle": {"max_iterations": True}},
        {"experiment": "tomo", "master_seed": 1, "mle": {"max_iterations": 10.0}},
        # the optimiser has no CLI setting: its old block is an unknown key
        {"experiment": "pair", "master_seed": 1, "optimizer": {"refine_starts": 8}},
        # json.dumps writes these as NaN and Infinity, which are no JSON numbers
        {"experiment": "curve", "master_seed": 1, "eta_step_deg": float("nan")},
        {"experiment": "curve", "master_seed": 1, "eta_step_deg": float("inf")},
    ],
)
def test_validate_rejects_out_of_range_values(tmp_path, bad):
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError):
        load_config(path, overrides={})


def test_load_config_accepts_integers_for_numbers(tmp_path):
    path = write_config(
        tmp_path, {"experiment": "pair", "master_seed": 1, "theta0_deg": 30, "eta_deg": None}
    )
    assert load_config(path, overrides={}).theta0_deg == 30


def test_readme_cli_example_loads(tmp_path):
    # The JSON example under "## CLI" in README.md must stay a valid config.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    data = json.loads(example)
    echo = load_config(write_config(tmp_path, data), overrides={"experiment": "pair"}).to_json()
    assert {key: echo[key] for key in data} == data


def test_config_echo_omits_output_path():
    cfg = ExperimentConfig(experiment="optimize", output_path="somewhere.json")
    echo = cfg.to_json()
    assert "output_path" not in echo
    assert echo["experiment"] == "optimize"
    assert "optimizer" not in echo
    assert echo["mle"] == {"max_iterations": 200, "gap_tolerance": 1e-2}


# ---------------------------------------------------------------- exit codes


def test_exit_code_0_and_schema_for_every_experiment(tmp_path, capsys):
    configs = {
        "pair": {"master_seed": 11, "n_events": 2000},
        "grid": {
            "master_seed": 5,
            "n_events": 500,
            "grid_step_deg": 45.0,
        },
        "curve": {
            "master_seed": 8,
            "n_events": 500,
            "eta_step_deg": 15.0,
        },
        "tomo": {"master_seed": 4, "n_per_setting": 500, "state": "bell", "noise_v": 0.95},
        "optimize": {},
    }
    validator = jsonschema.Draft202012Validator(SCHEMA)
    for experiment, config in configs.items():
        code, out, err = run_cli(tmp_path, capsys, experiment, config)
        assert code == 0, err
        report = json.loads(out)
        validator.validate(report)
        assert report["tool"] == "discrim"
        assert report["version"] == qdiscrim.__version__
        assert report["config"]["experiment"] == experiment


def test_exit_code_2_unknown_key(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "pair", {"master_seed": 1, "nope": 2})
    assert code == 2
    assert "config error" in err


def test_exit_code_2_missing_seed(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "pair", {})
    assert code == 2
    assert "master_seed" in err


def test_exit_code_2_wrong_value_type(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "pair", {"theta0_deg": "30", "master_seed": 7})
    assert code == 2
    assert "config error" in err
    assert "theta0_deg" in err


@pytest.mark.parametrize(
    "experiment, key", [("pair", "n_events"), ("tomo", "n_per_setting")]
)
def test_exit_code_2_count_beyond_the_samplers(tmp_path, capsys, experiment, key):
    config = {"master_seed": 7, key: 10**20}
    code, _, err = run_cli(tmp_path, capsys, experiment, config)
    assert code == 2
    assert "config error" in err
    assert key in err


@pytest.mark.parametrize(
    "experiment, config",
    [("curve", {"eta_step_deg": 1e-300}), ("grid", {"grid_step_deg": 1e-9}),
     ("curve", {"eta_max_deg": 10.0, "eta_step_deg": 0.001}), ("grid", {"grid_step_deg": 0.9})],
    ids=["curve-4.5e301", "grid-8.1e21", "curve-10001", "grid-10201"],
)
def test_exit_code_2_too_many_rows(tmp_path, capsys, monkeypatch, experiment, config):
    # The row count is checked in decimal before any row list is built, so
    # no runner is ever reached.
    def unreachable(cfg):
        raise AssertionError("a runner was reached")

    monkeypatch.setitem(cli._RUNNERS, experiment, unreachable)
    code, out, err = run_cli(tmp_path, capsys, experiment, {"master_seed": 1, **config})
    assert code == 2 and out == ""
    assert f"more than {cli.MAX_ROWS} rows" in err


def test_row_cap_admits_ten_thousand_rows(tmp_path):
    for experiment, config in (("curve", {"eta_max_deg": 9.999, "eta_step_deg": 0.001}),
                               ("grid", {"grid_step_deg": 1.0})):
        path = write_config(tmp_path, {"experiment": experiment, "master_seed": 1, **config})
        load_config(path, overrides={})
    assert len(cli._decimal_range(0.0, 9.999, 0.001)) == cli.MAX_ROWS


def test_exit_code_2_missing_file(tmp_path, capsys):
    code = main(["pair", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
def test_exit_code_2_non_finite_number(tmp_path, capsys, number):
    # Python's json module reads NaN and Infinity, and 1e400 overflows to inf;
    # none is a JSON number a config can hold.
    path = tmp_path / "config.json"
    path.write_text(f'{{"master_seed": 1, "eta_step_deg": {number}}}')
    assert main(["curve", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_help_names_every_experiment():
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "qdiscrim.cli", "--help"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    for experiment in cli.EXPERIMENTS:
        assert experiment in done.stdout


@pytest.mark.parametrize(
    "argv", [[], ["warp", "--config", "CONFIG"], ["pair"]], ids=["empty", "unknown", "no-config"]
)
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    path = write_config(tmp_path, {"master_seed": 1})
    with pytest.raises(SystemExit) as exc:
        main([path if arg == "CONFIG" else arg for arg in argv])
    assert exc.value.code == 2
    assert "usage: discrim" in capsys.readouterr().err


def test_exit_code_3_numerical_failure(tmp_path, capsys, monkeypatch):
    def explode(cfg):
        raise ConvergenceFailure("deliberate test failure")

    monkeypatch.setitem(cli._RUNNERS, "optimize", explode)
    code, _, err = run_cli(tmp_path, capsys, "optimize", {})
    assert code == 3
    assert "numerical failure" in err


def test_program_errors_are_not_reported_as_config_errors(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("deliberate program bug")

    monkeypatch.setitem(cli._RUNNERS, "optimize", broken)
    with pytest.raises(ValueError, match="deliberate program bug"):
        run_cli(tmp_path, capsys, "optimize", {})


def test_tomo_warns_on_stderr_when_the_mle_stops_short(tmp_path, capsys):
    config = {"master_seed": 4, "n_per_setting": 500, "state": "bell", "noise_v": 0.95}
    code, out, err = run_cli(tmp_path, capsys, "tomo", config)
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["tomo"]["converged"] is True
    capped = dict(config, mle={"max_iterations": 1})
    code, out, err = run_cli(tmp_path, capsys, "tomo", capped)
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("discrim: warning: MLE stopped")
    tomo = json.loads(out)["results"]["tomo"]
    assert tomo["converged"] is False and tomo["iterations"] == 1
    assert tomo["gap"] > 1e-2
    # stdout holds the report alone, byte for byte
    cfg = load_config(write_config(tmp_path, dict(capped, experiment="tomo")), overrides={})
    assert out == cli.report_to_json(cli.build_report(cfg))


def test_tomo_at_a_tight_gap_tolerance_exits_0(tmp_path, capsys):
    # Before the barrier weight followed the gap, this record ended in a
    # singular Newton system and a LinAlgError traceback.
    out_path = tmp_path / "report.json"
    config = {"master_seed": 51, "n_per_setting": 10000, "mle": {"gap_tolerance": 1e-9}}
    code, _, err = run_cli(tmp_path, capsys, "tomo", config, extra=("--out", str(out_path)))
    assert code == 0 and err == ""
    tomo = json.loads(out_path.read_text())["results"]["tomo"]
    assert tomo["converged"] is True and tomo["gap"] <= 1e-9


@pytest.mark.parametrize("n_per_setting", [2**62, 10**18])
def test_tomo_of_a_noiseless_bell_target_at_huge_counts_exits_0(tmp_path, capsys, n_per_setting):
    config = {"master_seed": 7, "state": "bell", "n_per_setting": n_per_setting}
    code, out, err = run_cli(tmp_path, capsys, "tomo", config)
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["tomo"]["converged"] is True


def test_tomo_at_the_largest_counts_is_converged_within_rounding(tmp_path, capsys):
    # The MLE stalls at a gap of 0.021, above the 0.01 tolerance but far below
    # N eps (about 9e3 for these 4e19 counts), where the gap is rounding: the
    # report says converged and stderr stays empty.
    config = {"master_seed": 7, "state": "phi0", "theta0_deg": 30.0, "n_per_setting": 2**62}
    code, out, err = run_cli(tmp_path, capsys, "tomo", config)
    assert code == 0 and err == ""
    tomo = json.loads(out)["results"]["tomo"]
    assert tomo["converged"] is True
    assert 0.01 < tomo["gap"] <= sum(tomo["record"]["counts"]) * np.finfo(float).eps
    assert tomo["fidelity_vs_ideal"] > 1.0 - 1e-10


# ---------------------------------------------------------------- overrides


def test_seed_flag_overrides_config(tmp_path, capsys):
    config = {"master_seed": 11, "n_events": 1000}
    code, out, _ = run_cli(tmp_path, capsys, "pair", config, extra=("--seed", "19"))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["master_seed"] == 19
    derived = np.random.SeedSequence([19, 0]).generate_state(2).tolist()
    assert report["results"]["pair"]["seeds"] == {"state0": derived[0], "state1": derived[1]}
    assert cli._row_seeds(19, 0) != cli._row_seeds(11, 0)


def test_row_seeds_are_distinct_across_masters_and_rows():
    # no two rows of any two masters may share a sampling stream
    seeds = [s for m in range(21) for row in range(49) for s in cli._row_seeds(m, row)]
    assert len(set(seeds)) == len(seeds) == 21 * 49 * 2
    assert all(type(s) is int for s in seeds)


def test_seed_flag_satisfies_seed_requirement(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path,
        capsys,
        "tomo",
        {"n_per_setting": 300},
        extra=("--seed", "6"),
    )
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 6


def test_format_flag_overrides_config(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, "optimize", {}, extra=("--format", "csv")
    )
    assert code == 0
    assert out.startswith("# tool=discrim version=")


def test_out_flag_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        tmp_path, capsys, "optimize", {}, extra=("--out", str(target))
    )
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


@pytest.mark.parametrize("where", ["existing directory", "under a regular file"])
def test_exit_code_2_unwritable_out(tmp_path, capsys, where):
    # A directory cannot be opened for writing, and a file cannot hold one.
    (tmp_path / "plain.txt").write_text("")
    target = tmp_path if where == "existing directory" else tmp_path / "plain.txt" / "r.json"
    code, out, err = run_cli(tmp_path, capsys, "optimize", {}, extra=("--out", str(target)))
    assert code == 2
    assert out == ""
    assert err.startswith(f"discrim: cannot write report to {target}: ")
    assert "Traceback" not in err


def test_config_annotations_are_resolved_once(tmp_path, monkeypatch):
    calls = []
    resolve = cli.typing.get_type_hints
    monkeypatch.setattr(cli.typing, "get_type_hints", lambda c: calls.append(c) or resolve(c))
    cli._hints.cache_clear()
    path = write_config(tmp_path, {"experiment": "tomo", "master_seed": 1, "mle": {}})
    for _ in range(3):
        load_config(path, overrides={})
    assert sorted(c.__name__ for c in calls) == ["ExperimentConfig", "MLEConfig"]


def test_output_dir_env_var_applies_to_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCRIM_OUTPUT_DIR", str(tmp_path / "outputs"))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        tmp_path, capsys, "optimize", {}, extra=("--out", "run.json")
    )
    assert code == 0
    assert (tmp_path / "outputs" / "run.json").is_file()


def test_output_dir_env_var_ignored_for_absolute_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCRIM_OUTPUT_DIR", str(tmp_path / "outputs"))
    target = tmp_path / "explicit.json"
    code, _, _ = run_cli(
        tmp_path, capsys, "optimize", {}, extra=("--out", str(target))
    )
    assert code == 0
    assert target.is_file()
    assert not (tmp_path / "outputs").exists()


# ---------------------------------------------------------------- reproducibility


@pytest.mark.parametrize(
    "experiment, config",
    [
        ("pair", {"master_seed": 3, "n_events": 300, "noise_v": 0.9}),
        ("grid", {"master_seed": 5, "n_events": 300, "grid_step_deg": 45.0, "format": "csv"}),
        ("curve", {"master_seed": 8, "n_events": 300, "eta_step_deg": 15.0}),
        ("tomo", {"master_seed": 4, "n_per_setting": 300, "mle": {"gap_tolerance": 0.05}}),
        ("optimize", {"eta_deg": 20.0}),
    ],
)
def test_config_echo_reruns_to_the_same_report(tmp_path, capsys, experiment, config):
    # The echo is a complete config: fed back in, it reproduces the report.
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([experiment, "--config", write_config(tmp_path, config), "--out", str(first)]) == 0
    report = first.read_text()
    if config.get("format") == "csv":
        echo = json.loads(report.splitlines()[1].removeprefix("# config="))
    else:
        echo = json.loads(report)["config"]
    path = write_config(tmp_path, echo, name="echo.json")
    assert main([experiment, "--config", path, "--out", str(second)]) == 0
    capsys.readouterr()
    assert second.read_bytes() == first.read_bytes()


def test_rerun_is_byte_identical(tmp_path, capsys):
    config = {"master_seed": 31, "n_events": 1500}
    path = write_config(tmp_path, config)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["pair", "--config", path, "--out", str(a)]) == 0
    assert main(["pair", "--config", path, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- csv output


def test_csv_layout_for_grid(tmp_path, capsys):
    config = {
        "master_seed": 2,
        "n_events": 400,
        "grid_step_deg": 45.0,
        "format": "csv",
    }
    code, out, _ = run_cli(tmp_path, capsys, "grid", config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool=discrim version=")
    assert lines[1].startswith("# config=")
    json.loads(lines[1].removeprefix("# config="))
    header = lines[2].split(",")
    assert header[:3] == ["row_index", "theta0_deg", "theta1_deg"]
    assert header[3:] == sorted(header[3:])
    assert "estimate.p_avg" in header
    assert len(lines) == 3 + 9  # 3 x 3 angle grid


def test_csv_floats_round_trip_to_json_values(tmp_path, capsys):
    config = {"master_seed": 13, "n_events": 800}
    _, json_out, _ = run_cli(tmp_path, capsys, "pair", config)
    _, csv_out, _ = run_cli(tmp_path, capsys, "pair", config, extra=("--format", "csv"))
    row = json.loads(json_out)["results"]["pair"]
    lines = csv_out.splitlines()
    header = lines[2].split(",")
    cells = dict(zip(header, lines[3].split(",")))
    assert float(cells["ff_exact"]) == row["ff_exact"]
    assert float(cells["helstrom"]) == row["helstrom"]
    assert int(cells["counts0.TaTb"]) == row["counts0"]["TaTb"]


def test_curve_rows_cover_eta_grid(tmp_path, capsys):
    config = {
        "master_seed": 8,
        "n_events": 500,
        "eta_step_deg": 15.0,
    }
    code, out, _ = run_cli(tmp_path, capsys, "curve", config)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["eta_deg"] for r in rows] == [0.0, 15.0, 30.0, 45.0]
    for r in rows:
        assert r["helstrom_ideal"] >= r["no_ff_ideal"] - 1e-9
        assert 0.0 <= r["estimate"]["p_avg"] <= 1.0
    # the grid is min + i * step with an integer count, added in decimal so
    # that interior points do not drift, and it never passes max
    for lo, hi, expected in ((0.1, 0.3, [0.1, 0.2, 0.3]),
                             (0.0, 0.5, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])):
        fine = {**config, "eta_min_deg": lo, "eta_max_deg": hi, "eta_step_deg": 0.1}
        code, out, _ = run_cli(tmp_path, capsys, "curve", fine)
        assert code == 0
        assert [r["eta_deg"] for r in json.loads(out)["results"]["rows"]] == expected


def test_grid_points_are_exact_decimals(monkeypatch):
    # The angle pairs only: no state, optimiser or sampling runs for the 10201 rows.
    monkeypatch.setattr(
        cli, "_grid_rows",
        lambda angles, cfg: [{"theta0_deg": a, "theta1_deg": b} for a, b in angles],
    )
    cfg = ExperimentConfig(experiment="grid", grid_step_deg=0.9, master_seed=1)
    rows = cli.run_grid(cfg)["rows"]
    values = [r["theta1_deg"] for r in rows[:101]]
    assert len(rows) == 101 * 101
    assert [r["theta0_deg"] for r in rows[::101]] == values
    assert values[13] == 11.7 and values[26] == 23.4
    assert values == [float(f"{0.9 * i:.1f}") for i in range(101)]


# ---------------------------------------------------------------- stacked rows


def test_stacked_rows_match_the_per_protocol_scores(tmp_path, capsys):
    from qdiscrim import (canonical_protocol, ff_success_probability, helstrom_bound,
                          hermitian_eig, phi0, phi1, psi_pair, walgate_decompose, werner_noise)

    config = {"master_seed": 5, "n_events": 1000, "noise_v": 0.93, "grid_step_deg": 30.0}
    code, out, _ = run_cli(tmp_path, capsys, "grid", config)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    code, out, _ = run_cli(tmp_path, capsys, "pair", config)
    assert code == 0
    rows.append(json.loads(out)["results"]["pair"])
    deltas = []
    for row in rows:
        t0, t1 = row["theta0_deg"], row["theta1_deg"]
        protocol = walgate_decompose(phi0(t0), phi1(t1))
        noisy = werner_noise(phi0(t0), 0.93), werner_noise(phi1(t1), 0.93)
        assert row["ff_exact"] == ff_success_probability(protocol, *noisy)
        assert row["helstrom"] == helstrom_bound(*noisy)
        deltas.append(0.5 * noisy[0].mat - 0.5 * noisy[1].mat)
    code, out, _ = run_cli(tmp_path, capsys, "curve", config)
    assert code == 0
    for row in json.loads(out)["results"]["rows"]:
        ideal = [state.density() for state in psi_pair(row["eta_deg"])]
        noisy = [werner_noise(state, 0.93) for state in psi_pair(row["eta_deg"])]
        assert row["ff_ideal"] == ff_success_probability(canonical_protocol(), *ideal)
        assert row["ff_noisy"] == ff_success_probability(canonical_protocol(), *noisy)
        assert row["helstrom_ideal"] == helstrom_bound(*ideal)
        assert row["helstrom_noisy"] == helstrom_bound(*noisy)
        deltas += [0.5 * ideal[0].mat - 0.5 * ideal[1].mat, 0.5 * noisy[0].mat - 0.5 * noisy[1].mat]
    # The rows' bounds come from one eigensolver call on their stacked
    # operators, which gives each operator its decomposition alone.
    stacked = hermitian_eig(np.array(deltas))
    for delta, values, vectors in zip(deltas, stacked.eigenvalues, stacked.eigenvectors):
        alone = hermitian_eig(delta)
        assert np.array_equal(values, alone.eigenvalues)
        assert np.array_equal(vectors, alone.eigenvectors)


def test_grid_and_curve_rows_build_and_check_their_objects_as_stacks(
    tmp_path, capsys, monkeypatch
):
    # No row runs the PureState2Q, DensityMatrix2Q or FeedForwardProtocol
    # constructor's check, and the eigensolver calls of a command do not grow
    # with its rows.
    from collections import Counter

    from qdiscrim import DensityMatrix2Q, FeedForwardProtocol, PureState2Q

    calls = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(PureState2Q, "__post_init__", "state")
    count(DensityMatrix2Q, "__post_init__", "density")
    count(FeedForwardProtocol, "__post_init__", "protocol")
    count(np.linalg, "eigh", "eig")
    count(np.linalg, "eigvalsh", "eig")
    seen = {}
    for experiment, config, rows in (
        ("grid", {"master_seed": 7}, 49),
        ("grid", {"master_seed": 7, "grid_step_deg": 45.0}, 9),
        ("curve", {"master_seed": 7}, 10),
        ("curve", {"master_seed": 7, "eta_step_deg": 15.0}, 4),
    ):
        calls.clear()
        code, out, _ = run_cli(tmp_path, capsys, experiment, config)
        assert code == 0 and len(json.loads(out)["results"]["rows"]) == rows
        seen[experiment, rows] = dict(calls)
    # curve builds its one fixed protocol with the constructor.
    assert seen["grid", 49] == seen["grid", 9] == {"eig": 2}
    assert seen["curve", 10] == seen["curve", 4] == {"eig": 2, "protocol": 1}


def test_pair_is_row_0_of_a_grid(tmp_path, capsys):
    # Row 0 of every grid is theta = (0, 0), and both reports draw it with
    # row 0's seeds.
    config = {"master_seed": 21, "n_events": 5000, "noise_v": 0.95, "grid_step_deg": 45.0,
              "theta0_deg": 0.0, "theta1_deg": 0.0}
    code, out, _ = run_cli(tmp_path, capsys, "pair", config)
    assert code == 0
    pair = json.loads(out)["results"]["pair"]
    code, out, _ = run_cli(tmp_path, capsys, "grid", config)
    assert code == 0
    assert pair == json.loads(out)["results"]["rows"][0]


def test_grid_curve_and_pair_build_no_povm_and_sample_no_single_state(
    tmp_path, capsys, monkeypatch
):
    # Their rows read the protocols' product kets and draw from those
    # probabilities; the POVM path stays for the library, unused here.
    from qdiscrim import discrimination, measurement

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-row POVM or sampling call")

    for module, name in ((measurement, "protocol_to_povm"), (measurement, "sample_coincidences"),
                         (discrimination, "walgate_decompose")):
        for owner in (module, qdiscrim, cli):
            monkeypatch.setattr(owner, name, forbidden, raising=False)
    config = {"master_seed": 9, "n_events": 1000, "noise_v": 0.95, "grid_step_deg": 45.0}
    for experiment in ("grid", "curve", "pair"):
        code, out, err = run_cli(tmp_path, capsys, experiment, config)
        assert code == 0 and err == ""
        assert jsonschema.validate(json.loads(out), SCHEMA) is None


# ---------------------------------------------------------------- dependencies


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path, capsys):
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import qdiscrim.cli as c; assert c._parser.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

    cli._parser.cache_clear()
    config = {"master_seed": 3, "n_events": 1000}
    for experiment in ("pair", "optimize", "pair"):
        assert run_cli(tmp_path, capsys, experiment, config)[0] == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # Parse errors still exit 2 with argparse's message.
    with pytest.raises(SystemExit) as exc:
        main(["nonsense", "--config", write_config(tmp_path, config)])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_importing_the_package_does_not_import_scipy():
    # Nor csv: the CLI's CSV report is a string join.
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import qdiscrim, qdiscrim.cli, sys; assert not {'scipy', 'csv'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_export_list_is_sorted_unique_and_resolves():
    names = qdiscrim.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    for name in names:
        assert hasattr(qdiscrim, name), name
    for deleted in ("apply_local", "NotUnitaryError", "optimize_pairs", "walgate_pairs",
                    "coincidence_probabilities"):
        assert deleted not in names and not hasattr(qdiscrim, deleted)
