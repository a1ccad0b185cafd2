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

# Small grids keep the optimiser cheap; CLI correctness does not depend on
# how finely the measurement search samples the Bloch sphere.
LIGHT_OPT = {
    "polar_points": 6,
    "azimuth_points": 4,
    "refine_starts": 2,
    "max_refine_iterations": 120,
}

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
    with pytest.raises(ConfigError, match="likelihood_model"):
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
        {"experiment": "pair", "master_seed": 1, "optimizer": [24]},
        {"experiment": "pair", "master_seed": 1, "optimizer": {"polar_points": "24"}},
        {"experiment": "pair", "master_seed": 1, "optimizer": {"refine_starts": True}},
        {"experiment": "tomo", "master_seed": 1, "mle": {"max_iterations": 10.0}},
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


def test_config_echo_omits_output_path():
    cfg = ExperimentConfig(experiment="optimize", output_path="somewhere.json")
    echo = cfg.to_json()
    assert "output_path" not in echo
    assert echo["experiment"] == "optimize"
    assert echo["optimizer"]["polar_points"] == 24
    assert echo["mle"] == {"max_iterations": 5000, "ll_tolerance": 1e-10, "dilution": 0.5}


# ---------------------------------------------------------------- exit codes


def test_exit_code_0_and_schema_for_every_experiment(tmp_path, capsys):
    configs = {
        "pair": {"master_seed": 11, "n_events": 2000, "optimizer": LIGHT_OPT},
        "grid": {
            "master_seed": 5,
            "n_events": 500,
            "grid_step_deg": 45.0,
            "optimizer": LIGHT_OPT,
        },
        "curve": {
            "master_seed": 8,
            "n_events": 500,
            "eta_step_deg": 15.0,
            "optimizer": LIGHT_OPT,
        },
        "tomo": {"master_seed": 4, "n_per_setting": 500, "state": "bell", "noise_v": 0.95},
        "optimize": {"optimizer": LIGHT_OPT},
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


def test_exit_code_2_missing_file(tmp_path, capsys):
    code = main(["pair", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_3_numerical_failure(tmp_path, capsys, monkeypatch):
    def explode(cfg):
        raise ConvergenceFailure("deliberate test failure")

    monkeypatch.setitem(cli._RUNNERS, "optimize", explode)
    code, _, err = run_cli(tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT})
    assert code == 3
    assert "numerical failure" in err


def test_program_errors_are_not_reported_as_config_errors(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("deliberate program bug")

    monkeypatch.setitem(cli._RUNNERS, "optimize", broken)
    with pytest.raises(ValueError, match="deliberate program bug"):
        run_cli(tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT})


# ---------------------------------------------------------------- overrides


def test_seed_flag_overrides_config(tmp_path, capsys):
    config = {"master_seed": 11, "n_events": 1000, "optimizer": LIGHT_OPT}
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
        tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT}, extra=("--format", "csv")
    )
    assert code == 0
    assert out.startswith("# tool=discrim version=")


def test_out_flag_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT}, extra=("--out", str(target))
    )
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


def test_output_dir_env_var_applies_to_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCRIM_OUTPUT_DIR", str(tmp_path / "outputs"))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT}, extra=("--out", "run.json")
    )
    assert code == 0
    assert (tmp_path / "outputs" / "run.json").is_file()


def test_output_dir_env_var_ignored_for_absolute_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCRIM_OUTPUT_DIR", str(tmp_path / "outputs"))
    target = tmp_path / "explicit.json"
    code, _, _ = run_cli(
        tmp_path, capsys, "optimize", {"optimizer": LIGHT_OPT}, extra=("--out", str(target))
    )
    assert code == 0
    assert target.is_file()
    assert not (tmp_path / "outputs").exists()


# ---------------------------------------------------------------- reproducibility


def test_rerun_is_byte_identical(tmp_path, capsys):
    config = {"master_seed": 31, "n_events": 1500, "optimizer": LIGHT_OPT}
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
        "optimizer": LIGHT_OPT,
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
    config = {"master_seed": 13, "n_events": 800, "optimizer": LIGHT_OPT}
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
        "optimizer": LIGHT_OPT,
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
    monkeypatch.setattr(
        cli, "_pair_row", lambda t0, t1, cfg, row: {"theta0_deg": t0, "theta1_deg": t1}
    )
    cfg = ExperimentConfig(experiment="grid", grid_step_deg=0.9, master_seed=1)
    rows = cli.run_grid(cfg)["rows"]
    values = [r["theta1_deg"] for r in rows[:101]]
    assert len(rows) == 101 * 101
    assert values[13] == 11.7 and values[26] == 23.4
    assert values == [float(f"{0.9 * i:.1f}") for i in range(101)]


# ---------------------------------------------------------------- dependencies


def test_importing_the_package_does_not_import_scipy():
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import qdiscrim, qdiscrim.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
