import csv
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from coolsched import cli, mdp, qfr, regimes
from coolsched.config import ConfigError, RunConfig

import pipeline_helpers as ph


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run in a temp project; yields (root, out_dir, config)."""
    root = str(tmp_path_factory.mktemp("proj"))
    config = ph.make_project(root)
    out = os.path.join(root, "out")
    for command in ("fit-qfr", "estimate-chain", "plan", "simulate",
                    "compare", "export-plot-data"):
        assert cli.main([command, "--config", config]) == 0
    return root, out, config


def test_fit_qfr_outputs(pipeline):
    _, out, _ = pipeline
    model = qfr.load_model(os.path.join(out, "regime_model.json"))
    assert model.m == 2
    assert len(model.boundary_fits) == 1
    assert os.path.exists(os.path.join(out, "qfr_surfaces.csv"))


def test_fit_qfr_regime_count_follows_config(tmp_path):
    config = ph.make_project(str(tmp_path), qfr={"regimes": 4,
                                                 "daily_harmonics": 2,
                                                 "seasonal_harmonics": 0})
    assert cli.main(["fit-qfr", "--config", config]) == 0
    model = qfr.load_model(str(tmp_path / "out" / "regime_model.json"))
    assert len(model.boundary_fits) == 3
    assert len(model.representative_fits) == 4


def test_estimate_chain_outputs(pipeline):
    _, out, _ = pipeline
    chain = regimes.load_model(os.path.join(out, "transition_model.json"))
    # grouping "single": one bucket per hour of day
    assert len(chain.matrices) == 24
    for mat in chain.matrices.values():
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9


def test_estimate_chain_alpha_zero_on_sparse_data(tmp_path, capsys):
    config = ph.make_project(
        str(tmp_path),
        chain={"alpha": 0.0, "grouping": "single"},
        windows={"train": [["2023-06-01T00:00:00Z", "2023-06-03T23:00:00Z"]],
                 "simulate": [ph.SIM_WINDOW]},
    )
    assert cli.main(["fit-qfr", "--config", config]) == 0
    code = cli.main(["estimate-chain", "--config", config])
    assert code == 2
    assert "alpha > 0" in capsys.readouterr().err


def test_plan_objective_matches_lp(pipeline):
    root, out, config = pipeline
    policy = mdp.load_policy(os.path.join(out, "policy.json"))
    assert policy.n == 24
    cfg = RunConfig.from_file(config)
    model = qfr.load_model(os.path.join(out, "regime_model.json"))
    chain = regimes.load_model(os.path.join(out, "transition_model.json"))
    problem = cli._assemble_problem(cfg, model, chain)
    lp = mdp.solve_occupancy(mdp.build_lp(problem))
    assert policy.objective == pytest.approx(lp.objective, rel=1e-6)


def _plan_stdout(pipeline, tmp_path, capsys):
    _, out, config = pipeline
    capsys.readouterr()
    assert cli.main(["plan", "--config", config, "--out", str(tmp_path),
                     "--regime-model", os.path.join(out, "regime_model.json"),
                     "--transition-model",
                     os.path.join(out, "transition_model.json")]) == 0
    return capsys.readouterr().out.splitlines()


def test_plan_prints_solver_line(pipeline, tmp_path, monkeypatch, capsys):
    # value iteration settles on the fixture; with a budget of one period
    # the plan falls back to the LP and prints the same objective
    rvi_lines = _plan_stdout(pipeline, tmp_path / "rvi", capsys)
    assert re.fullmatch(r"solver: rvi periods=\d+ span=\S+ residuals=\S+/\S+",
                        rvi_lines[-2])
    monkeypatch.setattr(mdp, "PERIOD_BUDGET", 1)
    lp_lines = _plan_stdout(pipeline, tmp_path / "lp", capsys)
    assert re.fullmatch(r"solver: lp \(rvi span \S+ after 1 periods\)",
                        lp_lines[-2])
    assert lp_lines[-1] == rvi_lines[-1]
    assert lp_lines[-1].startswith("objective: ")


def test_plan_rejects_inverted_band(tmp_path, capsys):
    config = ph.make_project(str(tmp_path),
                             cost={"t_min_c": 30.0, "t_max_c": 27.0})
    code = cli.main(["plan", "--config", config])
    assert code == 2
    assert "t_min" in capsys.readouterr().err


def test_plan_rejects_regime_count_mismatch(pipeline, tmp_path, capsys):
    root, out, _ = pipeline
    config2 = ph.write_config(root, ph.base_config(
        root, qfr={"regimes": 4, "daily_harmonics": 2, "seasonal_harmonics": 0}),
        name="config_m4.yaml")
    code = cli.main(["plan", "--config", config2, "--out", out])
    assert code == 2
    assert "regimes" in capsys.readouterr().err


@pytest.mark.parametrize("override, stale, current", [
    ({"mdp": {"theta_step_c": 0.5}}, "theta_step=1.0", "theta_step=0.5"),
    ({"qfr": {"regimes": 3}}, "2 regimes", "expects 3"),
])
def test_simulate_rejects_stale_inputs(pipeline, tmp_path, capsys, override,
                                       stale, current):
    # the policy and regime model were planned under the fixture's config
    root, out, _ = pipeline
    config = ph.write_config(str(tmp_path), ph.base_config(root, **override))
    code = cli.main(["simulate", "--config", config, "--out", str(tmp_path),
                     "--policy", os.path.join(out, "policy.json"),
                     "--regime-model", os.path.join(out, "regime_model.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert stale in err and current in err
    assert not os.path.exists(tmp_path / "reports.json")


def test_simulate_outputs(pipeline):
    _, out, _ = pipeline
    with open(os.path.join(out, "reports.json"), encoding="utf-8") as fh:
        reports = json.load(fh)
    assert {r["controller"] for r in reports} == {"greedy", "fixed-rule", "qfr-mdp"}
    for name in ("greedy", "fixed-rule", "qfr-mdp"):
        path = os.path.join(out, f"trajectory_{name}_2024-07-15.csv")
        assert os.path.exists(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 96  # four days


def test_compare_outputs(pipeline):
    _, out, _ = pipeline
    with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["baseline"] == "greedy"
    by_name = {r["controller"]: r for r in doc["rows"]}
    assert by_name["greedy"]["improvement_vs_baseline"] == 0.0
    assert os.path.exists(os.path.join(out, "comparison.csv"))


def test_export_plot_data_outputs(pipeline):
    _, out, _ = pipeline
    for name in ("fig1_quantile_surfaces.csv", "fig2_policy_day.csv",
                 "fig3_day_traces.csv", "fig4_cost_comparison.csv"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "fig2_policy_day.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    policy = mdp.load_policy(os.path.join(out, "policy.json"))
    assert len(rows) == 24 * policy.space.n_theta * policy.space.m
    assert list(rows[0]) == ["hour_of_day", "theta", "regime", "action"]
    # the planning day starts at the policy's first slot
    for row in rows:
        i = mdp.quantize(float(row["theta"]), policy.space)
        assert int(row["action"]) == policy.actions[
            int(row["hour_of_day"]), i, int(row["regime"]) - 1]
    with open(os.path.join(out, "fig3_day_traces.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 24  # three controllers, one day


def test_export_plot_data_needs_no_price_archive(pipeline, tmp_path):
    # fig1 takes its hours from the first training window, not the archive
    root, out, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    os.remove(tmp_path / "price.csv")
    os.remove(tmp_path / "out" / "fig1_quantile_surfaces.csv")
    config = str(tmp_path / "config.yaml")
    assert cli.main(["export-plot-data", "--config", config]) == 0
    fig1 = (tmp_path / "out" / "fig1_quantile_surfaces.csv").read_bytes()
    assert fig1 == (tmp_path / "out" / "qfr_surfaces.csv").read_bytes()
    with open(os.path.join(out, "fig1_quantile_surfaces.csv"), "rb") as fh:
        assert fig1 == fh.read()


def test_export_plot_data_requires_simulation(tmp_path, capsys):
    config = ph.make_project(str(tmp_path))
    assert cli.main(["fit-qfr", "--config", config]) == 0
    code = cli.main(["export-plot-data", "--config", config])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_missing_price_file_fails_cleanly(tmp_path, capsys):
    config = ph.write_config(str(tmp_path), ph.base_config(str(tmp_path)))
    code = cli.main(["fit-qfr", "--config", config])
    assert code == 2
    assert "price_csv" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    doc = ph.base_config(str(tmp_path))
    doc["mdp"]["typo_key"] = 1
    config = ph.write_config(str(tmp_path), doc)
    code = cli.main(["fit-qfr", "--config", config])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err
    # a key the configuration no longer has fails the same way
    doc = ph.base_config(str(tmp_path), simulation={"argmax_policy": True})
    config = ph.write_config(str(tmp_path), doc)
    assert cli.main(["simulate", "--config", config]) == 2
    assert "argmax_policy" in capsys.readouterr().err


def test_env_override_changes_regimes(tmp_path, monkeypatch):
    monkeypatch.setenv("COOLSCHED_QFR__REGIMES", "3")
    config = ph.make_project(str(tmp_path))
    assert cli.main(["fit-qfr", "--config", config]) == 0
    model = qfr.load_model(str(tmp_path / "out" / "regime_model.json"))
    assert model.m == 3


def test_seed_flag_overrides_config(tmp_path):
    config = ph.make_project(str(tmp_path))
    cfg = RunConfig.from_file(config)
    assert cfg.seed == 3


def test_config_defaults_and_validation(tmp_path):
    config = ph.make_project(str(tmp_path))
    cfg = RunConfig.from_file(config)
    assert cfg.chiller.a_max == 4
    assert cfg.space.m == 2
    assert cfg.band_margin == pytest.approx(0.5)  # half of theta_step 1.0
    assert cfg.planning_cost.t_max == pytest.approx(26.5)
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "nope.yaml"))


def test_import_leaves_scipy_unloaded():
    # only fitting and planning use scipy, and they import it when they run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, coolsched.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "False"
