import contextlib
import csv
import dataclasses
import datetime
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import coolsched
from coolsched import artifacts, cli, ingest, mdp, qfr, regimes, sim
from coolsched import config as config_module
from coolsched.config import ConfigError, RunConfig
from coolsched.controllers import FixedRuleController
from coolsched.mdp import CostSpec
from coolsched.qfr import FourierDesign
from coolsched.thermal import ChillerSpec, FacilitySpec, HeatLoadSpec

import pipeline_helpers as ph


# the type of each model file, by its name in the out dir
MODEL_TYPES = {"regime_model.json": qfr.RegimeModel,
               "transition_model.json": regimes.TransitionModel,
               "policy.json": mdp.Policy}


def _read_model(path):
    return artifacts.read_model(path, MODEL_TYPES[os.path.basename(path)])


@pytest.fixture(scope="module")
def pipeline_stages(tmp_path_factory):
    """Full pipeline run in a temp project; yields (root, out_dir, config,
    stages), where stages holds each command's name, exit code and stdout,
    and the names of the files it added to the out dir."""
    root = str(tmp_path_factory.mktemp("proj"))
    config = ph.make_project(root)
    out = os.path.join(root, "out")
    stages = []
    for command in ("fit-qfr", "estimate-chain", "plan", "simulate",
                    "compare", "export-plot-data"):
        before = set(os.listdir(out)) if os.path.isdir(out) else set()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main([command, "--config", config])
        assert rc == 0
        stages.append({"stage": command, "rc": rc,
                       "stdout": stdout.getvalue(),
                       "added": sorted(set(os.listdir(out)) - before)})
    return root, out, config, stages


@pytest.fixture(scope="module")
def pipeline(pipeline_stages):
    """(root, out_dir, config) of the full pipeline run."""
    return pipeline_stages[:3]


def test_pipeline_writes_expected_files(pipeline):
    # every write replaces its target through a temp file; none is left over
    _, out, _ = pipeline
    trajectories = [f"trajectory_{name}_2024-07-15.csv"
                    for name in ("fixed-rule", "greedy", "qfr-mdp")]
    assert sorted(os.listdir(out)) == sorted([
        "regime_model.json", "transition_model.json",
        "policy.json", *trajectories, "reports.json", "comparison.csv",
        "comparison.json", "fig1_quantile_surfaces.csv", "fig2_policy_day.csv",
        "fig3_day_traces.csv", "fig4_cost_comparison.csv",
        "price_series.bin", "temperature_series.bin"])


def test_each_stage_writes_only_its_own_files(pipeline_stages):
    # every file has one writer, and each input file the one cli.WRITTEN_BY
    # names
    _, _, _, stages = pipeline_stages
    trajectories = [f"trajectory_{name}_2024-07-15.csv"
                    for name in ("fixed-rule", "greedy", "qfr-mdp")]
    assert {stage["stage"]: stage["added"] for stage in stages} == {
        "fit-qfr": ["price_series.bin", "regime_model.json"],
        "estimate-chain": ["transition_model.json"],
        "plan": ["policy.json", "temperature_series.bin"],
        "simulate": ["reports.json", *trajectories],
        "compare": ["comparison.csv", "comparison.json"],
        "export-plot-data": ["fig1_quantile_surfaces.csv",
                             "fig2_policy_day.csv", "fig3_day_traces.csv",
                             "fig4_cost_comparison.csv"]}
    writer = {name: stage["stage"] for stage in stages
              for name in stage["added"]}
    assert {name: writer[name] for name in cli.WRITTEN_BY} == cli.WRITTEN_BY


def test_stages_parse_each_archive_once(pipeline, tmp_path, capsys):
    # fit-qfr parses the price archive and plan the temperature archive;
    # the other loads read the out dir's cache
    root, out, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("out"))
    config = str(tmp_path / "config.yaml")
    inputs = {}
    for command in ("fit-qfr", "estimate-chain", "plan", "simulate"):
        capsys.readouterr()
        assert cli.main([command, "--config", config]) == 0
        inputs[command] = [line for line in capsys.readouterr().out.splitlines()
                           if line.startswith("input ")]
    price_csv = tmp_path / "price.csv"
    temperature_csv = tmp_path / "temperature.csv"
    price = ingest.load_series(price_csv, ingest.SeriesKind.PRICE)
    temperature = ingest.load_series(temperature_csv,
                                     ingest.SeriesKind.TEMPERATURE)

    def line(series, path, how):
        return (f"input {series.kind.value} {path}: {len(series)} h, "
                f"sha256 {series.sha256[:12]}, {how}")

    assert inputs == {
        "fit-qfr": [line(price, price_csv, "parsed")],
        "estimate-chain": [line(price, price_csv, "reused")],
        "plan": [line(temperature, temperature_csv, "parsed")],
        "simulate": [line(price, price_csv, "reused"),
                     line(temperature, temperature_csv, "reused")]}
    expected = ph.read_tree_bytes(out)
    for name, data in ph.read_tree_bytes(tmp_path / "out").items():
        assert data == expected[name], name


def test_workload_archive_is_cached(pipeline, tmp_path, capsys):
    # plan parses the workload archive once; simulate reuses it for every
    # window
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    ingest.write_series(
        ingest.synth_workload(3, 31 * 24, 50_000, 0.4,
                              start="2024-07-01T00:00:00Z"),
        tmp_path / "workload.csv")
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), paths={"workload_csv": "workload.csv"},
        windows={"simulate": [ph.SIM_WINDOW, ["2024-07-19T00:00:00Z",
                                               "2024-07-19T23:00:00Z"]]}))
    inputs = {}
    for command in ("plan", "simulate"):
        capsys.readouterr()
        assert cli.main([command, "--config", config]) == 0
        inputs[command] = [line.split()[1] + " " + line.rsplit(" ", 1)[1]
                           for line in capsys.readouterr().out.splitlines()
                           if line.startswith("input ")]
    assert inputs == {
        "plan": ["temperature reused", "workload parsed"],
        "simulate": ["price reused", "temperature reused", "workload reused"]}
    assert (tmp_path / "out" / "workload_series.bin").exists()


def test_edited_archive_is_parsed_again(pipeline, tmp_path, capsys):
    # the out dir caches the price archive as fit-qfr read it; estimate-chain
    # sees the edit through the digest and names the conflicting lines
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    price_csv = tmp_path / "price.csv"
    lines = price_csv.read_text().splitlines()
    stamp, value = lines[1].split(",")
    price_csv.write_text("\n".join(lines + [f"{stamp},{float(value) + 1}"]) + "\n")
    capsys.readouterr()
    code = cli.main(["estimate-chain", "--config", str(tmp_path / "config.yaml")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {price_csv}: lines 2 and {len(lines) + 1}: conflicting values "
        f"{float(value)!r} and {float(value) + 1!r} for {stamp}\n")


@pytest.mark.parametrize("command, option, artifact", [
    ("estimate-chain", "--regime-model", "policy.json"),
    ("plan", "--regime-model", "transition_model.json"),
    ("plan", "--transition-model", "policy.json"),
    ("simulate", "--policy", "regime_model.json"),
    ("compare", "--reports", "policy.json"),
    ("estimate-chain", "--regime-model", "truncated"),
])
def test_wrong_input_file_is_named(pipeline, tmp_path, capsys, command, option,
                                   artifact):
    _, out, config = pipeline
    run = tmp_path / "out"
    shutil.copytree(out, run)
    if artifact == "truncated":
        path = tmp_path / "regime_model.json"
        text = (run / "regime_model.json").read_text()
        path.write_text(text[:len(text) // 2])
    else:
        path = run / artifact
    capsys.readouterr()
    code = cli.main([command, "--config", config, "--out", str(run),
                     option, str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_fit_qfr_outputs(pipeline):
    _, out, config = pipeline
    model = _read_model(os.path.join(out, "regime_model.json"))
    assert model.m == 2
    cfg = RunConfig.from_file(config)
    assert model.coefficients.shape == (3, cfg.design.n_features)
    # fig1 renders the model's surfaces at each hour of the training window
    with open(os.path.join(out, "fig1_quantile_surfaces.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(ingest.window_hours(cfg.train_windows[0]))


def test_surfaces_match_row_writer(pipeline):
    # the per-row writer of the quantile surfaces, from before they were
    # written as columns, renders fig1 from the regime model
    _, out, config = pipeline
    cfg = RunConfig.from_file(config)
    model = _read_model(os.path.join(out, "regime_model.json"))
    hours = ingest.window_hours(cfg.train_windows[0])
    bounds, reps = model.surfaces_at(hours)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["timestamp", "hour_of_day", "boundary_1",
                     "representative_1", "representative_2"])
    for i, h in enumerate(hours):
        writer.writerow([ingest.format_timestamp(h), int(h % 24)]
                        + [repr(float(v)) for v in bounds[i]]
                        + [repr(float(v)) for v in reps[i]])
    assert ph.read_tree_bytes(out)["fig1_quantile_surfaces.csv"] == \
        expected.getvalue().encode()


def test_tables_match_row_writer(pipeline):
    # the per-row writers compare, fig2 and fig3 used before they wrote
    # columns
    _, out, _ = pipeline
    written = ph.read_tree_bytes(out)

    def rows_csv(header, rows):
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        return expected.getvalue().encode()

    fields = ["controller", "window", "total_energy_cost",
              "improvement_vs_baseline", "total_violation_degree_hours"]
    with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    assert written["comparison.csv"] == rows_csv(
        fields, ([row[k] for k in fields] for row in table["rows"]))

    policy = mdp.load_policy(os.path.join(out, "policy.json"))
    assert written["fig2_policy_day.csv"] == rows_csv(
        ["hour_of_day", "theta", "regime", "action"],
        ([hod, repr(float(theta)), p + 1, int(policy.actions[hod, i, p])]
         for hod in range(24)
         for i, theta in enumerate(policy.space.theta_grid)
         for p in range(policy.space.m)))

    day = ingest.parse_timestamp(f"{ph.PLANNING_DAY}T00:00:00Z")
    traces = []
    for name in ("fixed-rule", "greedy", "qfr-mdp"):
        with open(os.path.join(out, f"trajectory_{name}_2024-07-15.csv"),
                  newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if day <= ingest.parse_timestamp(row["timestamp"]) < day + 24:
                    traces.append([name] + [row[k] for k in (
                        "timestamp", "theta", "action", "price")])
    assert written["fig3_day_traces.csv"] == rows_csv(
        ["controller", "timestamp", "theta", "action", "price"], traces)


def test_fit_qfr_regime_count_follows_config(tmp_path):
    config = ph.make_project(str(tmp_path), qfr={"regimes": 4,
                                                 "daily_harmonics": 2,
                                                 "seasonal_harmonics": 0})
    assert cli.main(["fit-qfr", "--config", config]) == 0
    model = _read_model(str(tmp_path / "out" / "regime_model.json"))
    assert model.m == 4 and model.coefficients.shape == (7, 5)
    bounds, reps = model.surfaces_at(np.arange(24))
    assert bounds.shape == (24, 3) and reps.shape == (24, 4)


def test_estimate_chain_outputs(pipeline):
    _, out, _ = pipeline
    chain = _read_model(os.path.join(out, "transition_model.json"))
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
    model = _read_model(os.path.join(out, "regime_model.json"))
    chain = _read_model(os.path.join(out, "transition_model.json"))
    problem = cli._assemble_problem(cfg, out, model, chain)
    lp = mdp.solve_occupancy(mdp.build_lp(problem))
    assert policy.objective == pytest.approx(lp.objective, rel=1e-6)


def test_planner_and_rollout_share_the_plant(pipeline, tmp_path):
    # a window-length plan steps the same plant as the sim.Window that
    # simulate builds from the first window's aligned traces, and a day
    # plan the rows of its planning day (2024-07-16, hours 24-47). The
    # synthetic load has noise, so a load drawn per stage would differ
    root, out, _ = pipeline
    model = _read_model(os.path.join(out, "regime_model.json"))
    chain = _read_model(os.path.join(out, "transition_model.json"))
    for cycle, rows in (("window", slice(0, 96)), ("day", slice(24, 48))):
        config = ph.write_config(root, ph.base_config(
            root, mdp={"planning_cycle": cycle},
            heat_load={"synth_noise": 0.05}), name=f"config_{cycle}.yaml")
        cfg = RunConfig.from_file(config)
        plant = cli._assemble_problem(cfg, str(tmp_path), model, chain).plant
        price, temperature = (
            ingest.load_series(cfg.require_path(f"{kind.value}_csv"), kind)
            for kind in (ingest.SeriesKind.PRICE,
                         ingest.SeriesKind.TEMPERATURE))
        dataset = ingest.align(price, temperature,
                               cli._load_workload(cfg, str(tmp_path)),
                               cfg.simulate_windows[0])
        simulated = sim.Window.of(dataset, cli._plant(
            cfg, dataset.temperature, dataset.workload))
        assert plant.equilibria.shape == (rows.stop - rows.start,
                                          cfg.chiller.a_max + 1)
        assert plant.equilibria.tolist() == simulated.equilibria[rows]
        assert plant.kwh.tobytes() == simulated.kwh[rows].tobytes()
        assert plant.decay == simulated.decay


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
    visits = re.fullmatch(r"occupancy visits (\d+) of (\d+) table states",
                          rvi_lines[-3])
    table = mdp.load_policy(tmp_path / "rvi" / "policy.json").actions
    assert visits and 0 < int(visits[1]) < int(visits[2]) == table.size
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


def _trajectory_rows(out, name):
    path = os.path.join(out, f"trajectory_{name}_2024-07-15.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("j", [-2, -1, 1, 2])
def test_pipeline_is_exactly_price_scale_equivariant(pipeline, tmp_path, j):
    # quantile regression is scale equivariant, and every cost the planner
    # and the rollout add up is linear in the prices and the two lambda
    # penalties, so scaling those by c = 2**j scales each fitted curve and
    # cost by exactly c and moves no argmin. The fixture's lowest price is
    # 6.02, so every scaled price stays above 1, clear of classify's
    # TIE_TOL * max(1, |b|) floor
    root, out, _ = pipeline
    c = 2.0 ** j
    price = ingest.load_series(os.path.join(root, "price.csv"),
                               ingest.SeriesKind.PRICE)
    assert price.values.min() * c > 1
    ingest.write_series(ingest.TimeSeries(price.hours, price.values * c,
                                          price.kind),
                        str(tmp_path / "price.csv"))
    shutil.copy(os.path.join(root, "temperature.csv"), tmp_path)
    cost = CostSpec()
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), cost={"lambda_under_per_degc": cost.lambda_under * c,
                             "lambda_over_per_degc": cost.lambda_over * c}))
    for command in ("fit-qfr", "estimate-chain", "plan", "simulate"):
        assert cli.main([command, "--config", config]) == 0
    scaled = str(tmp_path / "out")

    def both(name):
        return (_read_model(os.path.join(out, name)),
                _read_model(os.path.join(scaled, name)))

    model, model_c = both("regime_model.json")
    assert np.array_equal(model_c.coefficients, c * model.coefficients)
    chain, chain_c = both("transition_model.json")
    assert list(chain_c.matrices) == list(chain.matrices)
    for key, matrix in chain.matrices.items():
        assert np.array_equal(chain_c.matrices[key], matrix)
    policy, policy_c = both("policy.json")
    assert np.array_equal(policy_c.actions, policy.actions)
    assert policy_c.objective == c * policy.objective
    for name in ("greedy", "fixed-rule", "qfr-mdp"):
        rows = _trajectory_rows(out, name)
        rows_c = _trajectory_rows(scaled, name)
        assert len(rows_c) == len(rows) == 96
        for row, row_c in zip(rows, rows_c):
            for column in ("price", "energy_cost"):
                assert float(row_c[column]) == c * float(row[column])
            for column in ("timestamp", "action", "regime", "theta"):
                assert row_c[column] == row[column]


def test_simulate_states_each_window_once(pipeline, tmp_path, monkeypatch):
    # three controllers on two windows: each window's regime labels, step
    # table and timestamp text are built once, whatever the controller count
    root, out, _ = pipeline
    days = ("2024-07-15", "2024-07-19")
    config = ph.write_config(root, ph.base_config(root, windows={
        "simulate": [ph.SIM_WINDOW,
                     ["2024-07-19T00:00:00Z", "2024-07-19T23:00:00Z"]]}),
        name="config_two_windows.yaml")
    calls = Counter()
    for module, name in ((sim, "classify_series"), (cli, "step_table"),
                         (sim, "format_timestamps")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path),
                     "--policy", os.path.join(out, "policy.json"),
                     "--regime-model",
                     os.path.join(out, "regime_model.json")]) == 0
    assert calls == {"classify_series": 2, "step_table": 2,
                     "format_timestamps": 2}
    reports = artifacts.read_json(tmp_path / "reports.json")
    assert [r["window"][:10] for r in reports] == [days[0]] * 3 + [days[1]] * 3
    for name in ("fixed-rule", "greedy", "qfr-mdp"):
        # the first window's trajectory is the fixture's, byte for byte
        first = f"trajectory_{name}_{days[0]}.csv"
        with open(os.path.join(out, first), "rb") as fh:
            assert (tmp_path / first).read_bytes() == fh.read()
        assert (tmp_path / f"trajectory_{name}_{days[1]}.csv").exists()


def test_simulate_windows_slice_one_synthetic_load(pipeline, tmp_path,
                                                   monkeypatch):
    # the synthetic load is one series over the simulate windows, so its
    # noise does not restart at each window's first hour
    root, out, _ = pipeline
    config = ph.write_config(root, ph.base_config(
        root, controllers=["greedy"], heat_load={"synth_noise": 0.05},
        windows={"simulate": [ph.SIM_WINDOW, ["2024-07-19T00:00:00Z",
                                              "2024-07-19T23:00:00Z"]]}),
        name="config_noisy_windows.yaml")
    loads = []

    def recorded(facility, chiller, heat, temperature, workload,
                 _original=cli.step_table):
        loads.append(workload)
        return _original(facility, chiller, heat, temperature, workload)

    monkeypatch.setattr(cli, "step_table", recorded)
    assert cli.main(["simulate", "--config", config, "--out",
                     str(tmp_path)]) == 0
    assert [len(load) for load in loads] == [96, 24]
    assert not np.array_equal(loads[0][:24], loads[1])
    series = ingest.synth_workload(
        3, 120, 50_000, 0.4, start="2024-07-15T00:00:00Z", noise=0.05)
    assert np.concatenate(loads).tobytes() == series.values.tobytes()


def test_simulate_rejects_windows_of_one_start_day(pipeline, tmp_path, capsys):
    # both windows would write trajectory_greedy_2024-07-15.csv
    root, _, _ = pipeline
    windows = [["2024-07-15T00:00:00Z", "2024-07-15T23:00:00Z"],
               ["2024-07-15T12:00:00Z", "2024-07-16T11:00:00Z"]]
    config = ph.write_config(root, ph.base_config(
        root, controllers=["greedy"], windows={"simulate": windows}),
        name="config_one_start_day.yaml")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(f"{start}..{end}" in err for start, end in windows)
    assert not out.exists()


def _plan(config, out, tmp_path):
    """Exit code of `plan` on the fixture's models, writing to tmp_path."""
    return cli.main(["plan", "--config", config, "--out", str(tmp_path),
                     "--regime-model", os.path.join(out, "regime_model.json"),
                     "--transition-model",
                     os.path.join(out, "transition_model.json")])


def test_planning_day_defaults_to_july_15(pipeline, tmp_path):
    # without mdp.planning_day, a day plan covers July 15 of the first
    # simulate window
    root, out, _ = pipeline
    config = ph.write_config(root, ph.base_config(
        root, mdp={"planning_day": None}), name="config_no_day.yaml")
    assert RunConfig.from_file(config).raw["mdp"]["planning_day"] is None
    assert _plan(config, out, tmp_path) == 0
    policy = mdp.load_policy(tmp_path / "policy.json")
    july_15 = ingest.parse_timestamp("2024-07-15T00:00:00Z")
    assert policy.start == july_15 and policy.n == 24


def test_planning_day_outside_first_window_fails(pipeline, tmp_path, capsys):
    root, out, _ = pipeline
    config = ph.write_config(root, ph.base_config(
        root, mdp={"planning_day": None},
        windows={"simulate": [["2024-07-16T00:00:00Z",
                               "2024-07-18T23:00:00Z"]]}),
        name="config_no_july_15.yaml")
    capsys.readouterr()
    assert _plan(config, out, tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: derived planning day July 15 is outside the first simulate "
        "window; set mdp.planning_day explicitly\n")
    assert not (tmp_path / "policy.json").exists()


@pytest.mark.parametrize("kind, windows, named", [
    ("train", [ph.TRAIN_WINDOW, ["2023-06-28T23:00:00Z",
                                 "2023-06-30T23:00:00Z"]],
     "windows.train 2023-06-01T00:00:00Z..2023-06-28T23:00:00Z and "
     "2023-06-28T23:00:00Z..2023-06-30T23:00:00Z overlap"),
    ("train", [["2023-06-28T23:00:00Z", "2023-06-01T00:00:00Z"]],
     "windows.train 2023-06-28T23:00:00Z..2023-06-01T00:00:00Z ends before "
     "it starts"),
    ("simulate", [ph.SIM_WINDOW + ["2024-07-19T23:00:00Z"]],
     "windows.simulate entry ['2024-07-15T00:00:00Z', "
     "'2024-07-18T23:00:00Z', '2024-07-19T23:00:00Z'] is not [start, end]"),
    ("train", "unquoted", "windows.train entry [datetime.datetime(2023, 6, 1"),
    ("train", [["2023-06-01T00:00:00Z", "2023-06-31T00:00:00Z"]],
     "windows.train 2023-06-01T00:00:00Z..2023-06-31T00:00:00Z: bad "
     "timestamp '2023-06-31T00:00:00Z'"),
    ("simulate", [ph.SIM_WINDOW, ["2024-07-15T12:00:00Z",
                                  "2024-07-16T11:00:00Z"]],
     "windows.simulate 2024-07-15T00:00:00Z..2024-07-18T23:00:00Z and "
     "2024-07-15T12:00:00Z..2024-07-16T11:00:00Z both start on 2024-07-15"),
    ("simulate", [ph.SIM_WINDOW, ["2024-07-19T00:00:00Z",
                                  "2024-07-20T05:00:00Z"]],
     "windows.simulate 2024-07-19T00:00:00Z..2024-07-20T05:00:00Z is 30 h "
     "long, not a whole number of days"),
], ids=["overlap", "end-before-start", "three-stamps", "unquoted-stamp",
        "bad-stamp", "same-start-day", "partial-day"])
def test_bad_windows_fail_at_load(tmp_path, capsys, kind, windows, named):
    # every stage resolves the windows when it loads the config, so even
    # fit-qfr, which reads no simulate window, refuses a bad one
    doc = ph.base_config(str(tmp_path))
    if windows != "unquoted":
        doc["windows"][kind] = windows
    config = ph.write_config(str(tmp_path), doc)
    if windows == "unquoted":  # YAML reads an unquoted stamp as a datetime
        text = Path(config).read_text(encoding="utf-8")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text.replace("'2023-06-01T00:00:00Z'",
                                  "2023-06-01T00:00:00Z"))
    for command in cli.COMMANDS:
        assert cli.main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()


def test_bad_planning_day_fails_at_load(tmp_path, capsys):
    # an explicit planning day is parsed with the windows, so every stage
    # names it, even those that plan nothing
    config = ph.make_project(str(tmp_path), mdp={"planning_day": "2024-13-01"})
    for command in cli.COMMANDS:
        assert cli.main([command, "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: mdp.planning_day '2024-13-01' is not a YYYY-MM-DD date\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, named", [
    ({"fixed_rule": {"peak_start": 20, "peak_end": 19}},
     "error: fixed_rule: need 0 <= peak_start < peak_end <= 24, got 20 and 19\n"),
    ({"heat_load": {"synth_noise": 0.0, "synth_amplitude": 2.0}},
     "error: heat_load.synth_amplitude must be in [0, 1], got 2.0\n"),
    ({"heat_load": {"synth_base_cores": -5}},
     "error: heat_load.synth_base_cores must be >= 0, got -5\n"),
    ({"heat_load": {"synth_noise": -0.5}},
     "error: heat_load.synth_noise must be >= 0, got -0.5\n"),
    ({"qfr": {"regimes": 1}}, "error: qfr.regimes must be in 2..16, got 1\n"),
    ({"qfr": {"regimes": 17}},
     "error: qfr.regimes must be in 2..16, got 17\n"),
    ({"qfr": {"regimes": 0}}, "error: qfr.regimes must be in 2..16, got 0\n"),
    ({"mdp": {"theta_step_c": 0}},
     "error: mdp: need theta_min < theta_max and theta_step > 0\n"),
    ({"mdp": {"theta_min_c": 33.0}},
     "error: mdp: need theta_min < theta_max and theta_step > 0\n"),
    ({"seed": -1}, "error: seed must be >= 0, got -1\n"),
    ({"chain": {"alpha": -0.5}},
     "error: chain: alpha must be >= 0, got -0.5\n"),
    ({"chain": {"grouping": "weekly"}},
     "error: chain: grouping must be one of ('month', 'season', 'single', "
     "'pooled'), got 'weekly'\n"),
    ({"controllers": 5}, "error: controllers must be a list of names, got 5\n"),
    ({"controllers": "greedy"},
     "error: controllers must be a list of names, got 'greedy'\n"),
    ({"controllers": ["greedy", "greedy", "qfr-mdp"]},
     "error: controllers lists 'greedy' more than once\n"),
    ({"paths": {"price_csv": 5}},
     "error: paths.price_csv must be a path or null, got 5\n"),
], ids=["fixed-rule-hours", "synth-amplitude", "synth-cores", "synth-noise",
        "one-regime", "seventeen-regimes", "zero-regimes", "theta-step",
        "theta-order", "seed", "chain-alpha",
        "chain-grouping", "controllers-number", "controllers-name",
        "controllers-repeated", "path-number"])
def test_bad_config_values_fail_at_load(tmp_path, capsys, overrides, named):
    # checked when the config loads, so every stage names the key before it
    # makes its out dir, even the stages that never read it
    config = ph.make_project(str(tmp_path), **overrides)
    for command in cli.COMMANDS:
        assert cli.main([command, "--config", config]) == 2
        assert capsys.readouterr().err == named
        assert not (tmp_path / "out").exists()


def test_null_out_dir_needs_out_option(tmp_path, capsys):
    config = ph.make_project(str(tmp_path), paths={"out_dir": None})
    assert cli.main(["fit-qfr", "--config", config]) == 2
    assert capsys.readouterr().err == (
        "error: paths.out_dir is required for this command\n")
    out = tmp_path / "elsewhere"
    assert cli.main(["fit-qfr", "--config", config, "--out", str(out)]) == 0
    assert (out / "regime_model.json").exists()


def test_negative_seed_flag_fails_at_load(tmp_path, capsys):
    # --seed takes only what the config's seed takes, checked before any
    # stage makes its out dir
    config = ph.make_project(str(tmp_path))
    for command in cli.COMMANDS:
        assert cli.main([command, "--config", config, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()


def test_config_defaults_are_the_types_defaults(tmp_path):
    # a config that sets no key of SPEC_FIELDS builds each type as the
    # type's own defaults do
    config = tmp_path / "config.yaml"
    config.write_text("")
    cfg = RunConfig.from_file(str(config))
    assert cfg.facility == FacilitySpec()
    assert cfg.chiller == ChillerSpec()
    assert cfg.heat == HeatLoadSpec()
    assert cfg.cost == CostSpec()
    assert cfg.design == FourierDesign()
    hours = ("peak_start", "peak_end", "precool_start", "precool_end")
    default = FixedRuleController(cfg.cost)
    assert ([getattr(cfg.fixed_rule, name) for name in hours]
            == [getattr(default, name) for name in hours])
    for section, (cls, keys) in config_module.SPEC_FIELDS.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(keys.values()) <= names, section
        assert set(keys) <= set(config_module.DEFAULTS[section]), section


def test_config_stamps_go_through_parse_timestamp(tmp_path, monkeypatch):
    # every window end and the planning day, canonical or lenient, go
    # through parse_timestamp, which also words every error
    lenient = "2023-6-1T0:00:00Z"
    second = ["2024-07-19T00:00:00Z", "2024-07-19T23:00:00Z"]
    config = ph.make_project(str(tmp_path), windows={
        "train": [[lenient, ph.TRAIN_WINDOW[1]]],
        "simulate": [ph.SIM_WINDOW, second]})
    parsed = []

    def parse_timestamp(text):
        parsed.append(text)
        return ingest.parse_timestamp(text)

    monkeypatch.setattr(config_module, "parse_timestamp", parse_timestamp)
    cfg = RunConfig.from_file(config)
    assert parsed == [lenient, ph.TRAIN_WINDOW[1], *ph.SIM_WINDOW, *second,
                      f"{ph.PLANNING_DAY}T00:00:00Z"]
    hours = [tuple(map(ingest.parse_timestamp, window))
             for window in (ph.TRAIN_WINDOW, ph.SIM_WINDOW, second)]
    assert cfg.train_windows == hours[:1]
    assert cfg.simulate_windows == hours[1:]
    assert cfg.planning_day == ingest.parse_timestamp(
        f"{ph.PLANNING_DAY}T00:00:00Z")
    for windows, day, named in (
            ([ph.SIM_WINDOW, ["2024-07-19T00:30:00Z", second[1]]],
             ph.PLANNING_DAY,
             "windows.simulate 2024-07-19T00:30:00Z..2024-07-19T23:00:00Z: "
             "timestamp '2024-07-19T00:30:00Z' is not on the hour"),
            ([ph.SIM_WINDOW], "2024-02-30",
             "mdp.planning_day '2024-02-30' is not a YYYY-MM-DD date")):
        doc = ph.base_config(str(tmp_path), mdp={"planning_day": day})
        doc["windows"]["simulate"] = windows
        with pytest.raises(ConfigError) as raised:
            RunConfig.from_file(ph.write_config(str(tmp_path), doc))
        assert str(raised.value) == named


def test_unquoted_bad_date_is_named(tmp_path, capsys):
    # YAML reads an unquoted 2024-13-01 as a date and fails inside its
    # loader, so the error names the file
    config = ph.make_project(str(tmp_path), mdp={"planning_day": "2024-07-15"})
    text = Path(config).read_text(encoding="utf-8")
    assert "planning_day: '2024-07-15'" in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("'2024-07-15'", "2024-13-01"))
    assert cli.main(["fit-qfr", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {bad} holds an unquoted date that is not a "
        "date (month must be in 1..12); quote dates\n")
    assert not (tmp_path / "out").exists()


def test_stages_need_their_windows(tmp_path, capsys):
    # a config without windows loads; a stage that needs them names them
    # before it makes the out dir or parses an archive into it
    config = ph.make_project(str(tmp_path),
                             windows={"train": [], "simulate": []})
    for command, kind in (("fit-qfr", "train"), ("estimate-chain", "train"),
                          ("simulate", "simulate")):
        assert cli.main([command, "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: config defines no windows.{kind}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, named", [
    ("facility: {c_equipment_j_per_degc: 3.0e9}",
     "config.facility.c_equipment_j_per_degc: expected a number, got '3.0e9'"),
    ("mdp: {theta_step_c: half}",
     "config.mdp.theta_step_c: expected a number, got 'half'"),
    ("chain: {alpha: x}", "config.chain.alpha: expected a number"),
    ("qfr: {regimes: true}", "config.qfr.regimes: expected a number"),
    ("qfr: 3", "config.qfr: expected a section"),
    ("qfr: {regimes: three}",
     "config.qfr.regimes: expected a number, got 'three'"),
    ("qfr: {typo: 3}", "config.qfr: unknown key 'typo'"),
    ("qfr: {daily_harmonics: 2.5}",
     "config.qfr.daily_harmonics: expected an integer, got 2.5"),
    ("qfr: {regimes: 3.0}",
     "config.qfr.regimes: expected an integer, got 3.0"),
    ("chillers: {count: 4.5}",
     "config.chillers.count: expected an integer, got 4.5"),
    ("heat_load: {synth_base_cores: 5.0e+4}",
     "config.heat_load.synth_base_cores: expected an integer, got 50000.0"),
    ("fixed_rule: {precool_end: 4.0}",
     "config.fixed_rule.precool_end: expected an integer, got 4.0"),
    ("seed: 1.5", "config.seed: expected an integer, got 1.5"),
    ("qfr: {seasonal_harmonics: 2.0}",
     "config.qfr.seasonal_harmonics: expected an integer, got 2.0"),
], ids=["string-float", "word-float", "word-alpha", "bool-int", "section",
        "word-int", "unknown-key", "float-harmonics", "float-regimes",
        "float-count", "float-cores", "float-hour", "float-seed",
        "float-seasonal"])
def test_config_values_are_checked_at_load(tmp_path, capsys, text, named):
    # the file merges over the defaults: a section takes only a section, a
    # number's key only a number, and an integer's only an integer
    # PyYAML reads 3.0e9 as a string: a YAML 1.1 float needs a signed exponent
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), **yaml.safe_load(text)))
    assert cli.main(["fit-qfr", "--config", config]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")


def test_overlong_archive_field_is_named(tmp_path, capsys):
    # a value longer than csv.field_size_limit() fails the parse, which
    # names the file and line
    config = ph.make_project(str(tmp_path))
    price_csv = tmp_path / "price.csv"
    lines = price_csv.read_text().splitlines()
    stamp = lines[5].split(",")[0]
    lines[5] = f"{stamp},{'1' * 200_000}"
    price_csv.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit-qfr", "--config", config]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {price_csv}: line 6: field larger than field limit")


def test_bench_checks_pass_on_the_fixture(pipeline_stages, monkeypatch):
    # the benchmark rejects a run whose outputs its checks fail, and imports
    # names from coolsched to check them
    _, out, _, stages = pipeline_stages
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(repo, "bench"))
    import checks
    failures, facts = checks.check_outputs(out, {"stages": stages})
    assert failures == {}
    assert facts["decisions"] == {"fixed-rule": 96, "greedy": 96,
                                  "qfr-mdp": 96}
    assert "planned_cost_usd_per_h" in facts


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
    # fig1 takes its hours from the first training window and its values
    # from the regime model, not from the archive
    root, out, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    os.remove(tmp_path / "price.csv")
    os.remove(tmp_path / "out" / "fig1_quantile_surfaces.csv")
    os.remove(tmp_path / "out" / "price_series.bin")
    config = str(tmp_path / "config.yaml")
    assert cli.main(["export-plot-data", "--config", config]) == 0
    fig1 = (tmp_path / "out" / "fig1_quantile_surfaces.csv").read_bytes()
    with open(os.path.join(out, "fig1_quantile_surfaces.csv"), "rb") as fh:
        assert fig1 == fh.read()
    fig4 = (tmp_path / "out" / "fig4_cost_comparison.csv").read_bytes()
    assert fig4 == (tmp_path / "out" / "comparison.csv").read_bytes()


def test_fig1_spans_one_period_of_the_surfaces(pipeline, tmp_path):
    # design_matrix reads hours modulo both periods, so past lcm(24, 8760)
    # hours every row of a longer first training window would repeat one
    root, out, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    window = ["2023-06-01T00:00:00Z", "2024-07-10T23:00:00Z"]
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), windows={"train": [window],
                                "simulate": [ph.SIM_WINDOW]}))
    first, last = RunConfig.from_file(config).train_windows[0]
    assert last - first + 1 > 8760
    model = _read_model(os.path.join(out, "regime_model.json"))
    hours = np.arange(first, first + 8760)
    assert all(np.array_equal(a, b) for a, b in zip(
        model.surfaces_at(hours), model.surfaces_at(hours + 8760)))
    assert cli.main(["export-plot-data", "--config", config]) == 0
    with open(tmp_path / "out" / "fig1_quantile_surfaces.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 8760
    assert [rows[0][0], rows[-1][0]] == ingest.format_timestamps(
        [first, first + 8759])


def test_export_plot_data_day_needs_no_planning_day(pipeline, tmp_path,
                                                    capsys):
    # a window plan whose first simulate window holds no July 15 has no
    # planning day; --day names the exported day, and fig2 takes that
    # day's cycle slots, as fig3 takes its rows
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("out"))
    window = ["2024-07-16T00:00:00Z", "2024-07-19T23:00:00Z"]
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), mdp={"planning_day": None, "planning_cycle": "window"},
        windows={"train": [ph.TRAIN_WINDOW], "simulate": [window]}))
    for command in ("fit-qfr", "estimate-chain", "plan", "simulate",
                    "compare"):
        assert cli.main([command, "--config", config]) == 0
    capsys.readouterr()
    assert cli.main(["export-plot-data", "--config", config]) == 2
    assert "derived planning day July 15" in capsys.readouterr().err
    assert cli.main(["export-plot-data", "--config", config,
                     "--day", "2024-07-17"]) == 0
    policy = mdp.load_policy(tmp_path / "out" / "policy.json")
    # the window's second day plans otherwise than its first
    assert policy.n == 96
    assert not np.array_equal(policy.actions[24:48], policy.actions[:24])
    with open(tmp_path / "out" / "fig2_policy_day.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24 * policy.space.n_theta * policy.space.m
    for row in rows:
        i = mdp.quantize(float(row["theta"]), policy.space)
        assert int(row["action"]) == policy.actions[
            24 + int(row["hour_of_day"]), i, int(row["regime"]) - 1]


def test_export_plot_data_checks_the_day(pipeline, tmp_path, capsys):
    # fig3 reads the day's rows at their offset in the first simulate
    # window; every refusal comes before any figure is written
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    config = str(tmp_path / "config.yaml")
    figures = [tmp_path / "out" / name for name in (
        "fig1_quantile_surfaces.csv", "fig2_policy_day.csv",
        "fig3_day_traces.csv", "fig4_cost_comparison.csv")]
    for figure in figures:
        figure.unlink()
    for day, named in (
            ("2024-07-14", "not inside the first simulate window"),
            ("2024-07-19", "not inside the first simulate window"),
            ("2023-07-01", "not inside the first simulate window"),
            ("2024-13-01", "error: --day '2024-13-01' is not a YYYY-MM-DD date\n")):
        assert cli.main(["export-plot-data", "--config", config,
                         "--day", day]) == 2
        assert named in capsys.readouterr().err
    assert not any(figure.exists() for figure in figures)
    # a trajectory one row short no longer has the day at that offset
    path = tmp_path / "out" / "trajectory_greedy_2024-07-15.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + lines[2:]))
    assert cli.main(["export-plot-data", "--config", config]) == 2
    assert "re-run simulate" in capsys.readouterr().err
    assert not any(figure.exists() for figure in figures)


@pytest.mark.parametrize("cut, error", [
    # the file's lines 26..49 hold the exported day
    (lambda lines: lines[:35],                   # ten whole rows of the day
     "{path} ends inside day 2024-07-16"),
    (lambda lines: lines[:35] + [lines[35][:25]],  # and part of the eleventh
     "{path} ends inside day 2024-07-16"),
    (lambda lines: lines[:48] + [lines[48][:-1]],  # the last row's "\n" lost
     "{path} ends inside day 2024-07-16"),
    (lambda lines: [lines[0].replace(b",price,", b",tariff,")] + lines[1:49],
     "{path} does not have the trajectory columns " + ",".join(
         sim.Trajectory.COLUMNS)),
    (lambda lines: lines[:30] + [b",".join(lines[30].split(b",")[:2]) + b"\n"]
     + lines[31:49],
     "{path}: line 31: expected 10 fields, got 2"),
], ids=["rows", "mid-row", "last-newline", "header", "short-row"])
def test_export_plot_data_refuses_a_cut_trajectory(pipeline, tmp_path, capsys,
                                                   cut, error):
    # a trajectory that ends inside the exported day, or whose header or a
    # row of that day is not what simulate writes, names its file instead
    # of writing a fig3 from it
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    config = str(tmp_path / "config.yaml")
    fig3 = tmp_path / "out" / "fig3_day_traces.csv"
    fig3.unlink()
    path = tmp_path / "out" / "trajectory_greedy_2024-07-15.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[25].startswith(b"2024-07-16T00:00:00Z,")  # the planning day
    path.write_bytes(b"".join(cut(lines)))
    assert cli.main(["export-plot-data", "--config", config]) == 2
    assert capsys.readouterr().err == (
        f"error: {error.format(path=path)}; re-run simulate\n")
    assert not fig3.exists()


def test_export_plot_data_refuses_a_day_past_the_window(pipeline, tmp_path,
                                                         capsys):
    # a window of two days from 05:00 holds 2024-07-17 only until 04:00: the
    # export refuses the day instead of writing five rows per controller
    root, _, _ = pipeline
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    window = ["2024-07-15T05:00:00Z", "2024-07-17T04:00:00Z"]
    config = ph.write_config(str(tmp_path), ph.base_config(
        str(tmp_path), windows={"train": [ph.TRAIN_WINDOW],
                                "simulate": [window]}))
    assert cli.main(["simulate", "--config", config]) == 0
    capsys.readouterr()
    assert cli.main(["export-plot-data", "--config", config,
                     "--day", "2024-07-17"]) == 2
    err = capsys.readouterr().err
    assert "day 2024-07-17 not inside the first simulate window " \
           "2024-07-15T05:00:00Z..2024-07-17T04:00:00Z" in err
    # the day before lies wholly inside the window
    assert cli.main(["export-plot-data", "--config", config,
                     "--day", "2024-07-16"]) == 0
    with open(tmp_path / "out" / "fig3_day_traces.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 24
    assert {row["timestamp"] for row in rows} == set(
        ingest.format_timestamps(
            ingest.parse_timestamp("2024-07-16T00:00:00Z") + np.arange(24)))


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
    # keys the configuration no longer has fail the same way; the whole
    # simulation section is gone, so the error names the section
    for section, key, named in (("simulation", "argmax_policy", "simulation"),
                                ("simulation", "initial_theta_c", "simulation"),
                                ("mdp", "band_margin_c", "band_margin_c")):
        doc = ph.base_config(str(tmp_path), **{section: {key: 0.25}})
        config = ph.write_config(str(tmp_path), doc)
        assert cli.main(["simulate", "--config", config]) == 2
        assert f"unknown key '{named}'" in capsys.readouterr().err


def test_bench_trace_sites_exist(monkeypatch):
    # bench/layertrace.py rebinds each SITES name for a traced benchmark run,
    # which is the only run that would notice a renamed or removed one
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(repo, "bench"))
    import layertrace
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layertrace.SITES
               if attr not in owner.__dict__]
    assert layertrace.SITES and not missing


def test_bench_only_imports_are_trace_sites(monkeypatch):
    # a module keeps an unused import (# noqa: F401) only so that
    # bench/layertrace.py can rebind it there; one whose site is gone fails
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(repo, "bench"))
    import layertrace
    sites = {(owner.__name__, attr) for owner, attr, *_ in layertrace.SITES}
    package = os.path.dirname(coolsched.__file__)
    kept = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            for line in fh:
                if "# noqa: F401" in line:
                    imported = re.fullmatch(
                        r"from \.\w+ import (\w+)  # noqa: F401\n", line)
                    assert imported, line
                    kept.add((f"coolsched.{name[:-3]}", imported[1]))
    assert kept and kept <= sites


def test_package_exports_resolve():
    missing = [name for name in coolsched.__all__
               if not hasattr(coolsched, name)]
    assert coolsched.__all__ and not missing


def test_environment_leaves_config_alone(tmp_path, monkeypatch):
    # a run's settings are the file plus --seed and --out: a variable named
    # like a config key changes nothing
    monkeypatch.setenv("COOLSCHED_QFR__REGIMES", "3")
    config = ph.make_project(str(tmp_path))
    assert cli.main(["fit-qfr", "--config", config]) == 0
    model = _read_model(str(tmp_path / "out" / "regime_model.json"))
    assert model.m == 2


def test_seed_flag_overrides_config(tmp_path):
    # the seed drives the synthetic heat load's noise, so give it some
    config = ph.make_project(str(tmp_path), heat_load={"synth_noise": 0.05},
                             controllers=["greedy"])
    assert RunConfig.from_file(config).seed == 3

    def greedy_trajectory(run, *seed):
        out = tmp_path / run
        assert cli.main(["simulate", "--config", config, "--out", str(out),
                         *seed]) == 0
        return (out / "trajectory_greedy_2024-07-15.csv").read_bytes()

    from_config = greedy_trajectory("config")
    seeded = greedy_trajectory("seed9", "--seed", "9")
    assert seeded != from_config
    assert greedy_trajectory("seed9-again", "--seed", "9") == seeded


def test_config_defaults_and_validation(tmp_path):
    config = ph.make_project(str(tmp_path))
    cfg = RunConfig.from_file(config)
    assert cfg.chiller.a_max == 4
    assert cfg.space.m == 2
    # the band inset by half of theta_step 1.0
    assert cfg.planning_cost.t_max == pytest.approx(26.5)
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "nope.yaml"))
    # a key's default decides what it takes: a float's key takes an integer
    # or a float
    for area in (3000, 3000.5):
        doc = ph.base_config(str(tmp_path), facility={"floor_area_m2": area})
        cfg = RunConfig.from_file(ph.write_config(str(tmp_path), doc, "area.yaml"))
        assert cfg.facility.floor_area == area


def test_malformed_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("qfr: {regimes: [2\n")
    assert cli.main(["fit-qfr", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config file {config} is not valid YAML")


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_config_loads_alike_with_either_yaml_loader(tmp_path, monkeypatch):
    # an exponent float, an unquoted date and a quoted text that looks like
    # YAML
    config = Path(ph.make_project(
        str(tmp_path), qfr={"regimes": 3}, chain={"grouping": "season"},
        mdp={"planning_day": datetime.date(2024, 7, 16)},
        paths={"out_dir": "out: [2"}))
    text = config.read_text(encoding="utf-8")
    assert "alpha: 0.5" in text and "planning_day: 2024-07-16" in text
    config.write_text(text.replace("alpha: 0.5", "alpha: 2.5e-1"))
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("qfr: {regimes: [2\n")
    loaded = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_LOADER", loader)
        loaded.append(RunConfig.from_file(str(config)).raw)
        with pytest.raises(ConfigError, match="is not valid YAML"):
            RunConfig.from_file(str(malformed))
    assert loaded[0] == loaded[1]
    raw = loaded[0]
    assert raw["qfr"]["regimes"] == 3
    assert raw["chain"] == {"alpha": 0.25, "grouping": "season"}
    assert raw["mdp"]["planning_day"] == datetime.date(2024, 7, 16)
    assert raw["paths"]["out_dir"] == "out: [2"


def test_import_leaves_scipy_unloaded(pipeline, tmp_path):
    # only a quantile level that falls back to the dual simplex and the LP
    # fallback of planning use scipy, and only an archive load hashes; each
    # imports its module when it runs
    root, out, config = pipeline
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, coolsched.cli; "
            "print('scipy' in sys.modules, 'hashlib' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "False False"

    def stage(*argv):
        code = ("import sys; from coolsched import cli; "
                "code = cli.main(sys.argv[1:]); "
                "print(code, 'scipy' in sys.modules)")
        result = subprocess.run(
            [sys.executable, "-c", code, *argv, "--config", config,
             "--out", str(tmp_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
            check=True)
        return result.stdout.splitlines()

    # every level of the fixture's fit keeps its interior-point vertex
    lines = stage("fit-qfr")
    assert lines[-3:] == [
        "near-curve: 3/3 levels certified on 160 of 672 rows, "
        "0 more on all rows",
        "solver: interior-point=3", "0 False"]
    assert (tmp_path / "regime_model.json").read_bytes() == \
        ph.read_tree_bytes(out)["regime_model.json"]
    # value iteration settles on the fixture, so plan needs no scipy
    lines = stage("plan",
                  "--transition-model", os.path.join(out, "transition_model.json"))
    assert lines[-1] == "0 False"
    assert (tmp_path / "policy.json").read_bytes() == \
        ph.read_tree_bytes(out)["policy.json"]


def test_stages_never_load_strptime(pipeline, tmp_path):
    # every stamp the six stages read is canonical, so each goes through the
    # regex or the bulk decoder and a fresh interpreter never imports
    # _strptime; the outputs are the fixture's
    root, out, config = pipeline
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; from coolsched import cli; "
            "codes = [cli.main([c, *sys.argv[1:]]) for c in cli.COMMANDS]; "
            "print(codes, '_strptime' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code, "--config", config, "--out", str(tmp_path)],
        cwd=root, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"
    assert ph.read_tree_bytes(tmp_path) == ph.read_tree_bytes(out)


def test_import_loads_numpy_with_one_blas_thread():
    # coolsched loads numpy with OPENBLAS_NUM_THREADS=1 unless the
    # environment sets a BLAS thread count or numpy is already loaded, and
    # leaves the environment as it found it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    tasks = "/proc/self/task"

    def run(imports, **extra):
        code = (f"import os; {imports}; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                f"len(os.listdir({tasks!r})) if os.path.isdir({tasks!r}) else 0)")
        result = subprocess.run([sys.executable, "-c", code],
                                env={**env, **extra}, capture_output=True,
                                text=True, timeout=60, check=True)
        name, threads = result.stdout.split()
        return name, int(threads)

    name, threads = run("import coolsched")
    assert name == "None"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if sys.platform.startswith("linux") and "openblas" in blas.lower():
        assert threads == 1
    # a user's setting, or a numpy loaded first, starts the threads that
    # numpy alone would start
    for user in ({"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}):
        assert run("import coolsched", **user) == run("import numpy", **user)
    assert run("import numpy, coolsched") == run("import numpy")


@pytest.mark.parametrize("name, section, key", [
    ("regime_model.json", (), "design"),
    ("transition_model.json", (), "matrices"),
    ("policy.json", ("space",), "theta_step"),
    ("policy.json", (), "start"),
], ids=["regime_model.json-design", "transition_model.json-matrices",
        "policy.json-theta_step", "policy.json-start"])
def test_missing_key_is_named(pipeline, tmp_path, name, section, key):
    _, out, _ = pipeline
    doc = json.loads(ph.read_tree_bytes(out)[name])
    held = doc
    for part in section:
        held = held[part]
    del held[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    what = " ".join([doc["kind"], *section])
    with pytest.raises(artifacts.ArtifactError,
                       match=re.escape(f"{path} holds a {what} without the "
                                       f"key {key!r}")):
        _read_model(path)


def _pop_column(doc):
    for row in doc["coefficients"]:
        row.pop()


@pytest.mark.parametrize("name, edit, message", [
    ("transition_model.json",
     lambda doc: doc["matrices"]["00"].append([0.5, 0.5]),
     "holds a malformed transition-model: bucket 00: matrix shape (3, 2) "
     "!= (2, 2)"),
    ("regime_model.json", _pop_column,
     "holds a malformed regime-model: expected (3, 5) coefficients, got (3, 4)"),
    ("regime_model.json", lambda doc: doc["coefficients"].pop(),
     "holds a malformed regime-model: expected (3, 5) coefficients, got (2, 5)"),
], ids=["bucket-size", "coefficient-count", "level-count"])
def test_malformed_numbers_are_named(pipeline, tmp_path, name, edit, message):
    _, out, _ = pipeline
    doc = json.loads(ph.read_tree_bytes(out)[name])
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    with pytest.raises(artifacts.ArtifactError,
                       match=re.escape(f"{path} {message}")):
        _read_model(path)


def test_regime_model_round_trip_keeps_bytes(pipeline, tmp_path):
    _, out, _ = pipeline
    written = ph.read_tree_bytes(out)["regime_model.json"]
    assert sorted(json.loads(written)) == ["coefficients", "design", "kind", "m"]
    artifacts.write_model(tmp_path / "regime_model.json",
                          _read_model(os.path.join(out, "regime_model.json")))
    assert (tmp_path / "regime_model.json").read_bytes() == written


def test_older_regime_model_layout_names_the_missing_key(pipeline, tmp_path, capsys):
    # a regime model in the layout with split level and coefficient lists:
    # the stage that reads it names the file and the key it lacks
    _, out, config = pipeline
    doc = json.loads(ph.read_tree_bytes(out)["regime_model.json"])
    coefficients = doc.pop("coefficients")
    doc.update(boundary_levels=[0.5], boundary_coefficients=coefficients[1::2],
               representative_levels=[0.25, 0.75],
               representative_coefficients=coefficients[0::2])
    path = tmp_path / "regime_model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["estimate-chain", "--config", config, "--out",
                     str(tmp_path), "--regime-model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} holds a regime-model without the key 'coefficients'\n")


def _set(*keys_and_value):
    *keys, key, value = keys_and_value

    def edit(doc):
        for name in keys:
            doc = doc[name]
        doc[key] = value
    return edit


@pytest.mark.parametrize("command, name, edit", [
    ("estimate-chain", "regime_model.json", _set("m", "4")),
    ("estimate-chain", "regime_model.json", _set("m", 2.0)),
    # a key of the layout with split level lists is refused as unknown
    ("estimate-chain", "regime_model.json", _set("boundary_levels", None)),
    ("estimate-chain", "regime_model.json", _set("coefficients", None)),
    ("estimate-chain", "regime_model.json",
     _set("design", "daily_harmonics", "3")),
    ("export-plot-data", "regime_model.json",
     _set("design", "period_seasonal", 8760.0)),
    ("plan", "transition_model.json", _set("m", "4")),
    ("plan", "transition_model.json", _set("matrices", [])),
    ("plan", "transition_model.json", _set("alpha", None)),
    ("plan", "transition_model.json", _set("alpha", True)),
    ("plan", "transition_model.json",
     _set("matrices", "00", [[True, False], [False, True]])),
    ("plan", "transition_model.json",
     _set("matrices", "00", [["0.5", "0.5"], ["0.5", "0.5"]])),
    ("plan", "transition_model.json",
     _set("matrices", "00", [[None, None], [0.5, 0.5]])),
    ("plan", "transition_model.json",
     _set("matrices", "00", [[float("nan"), 1.0], [0.5, 0.5]])),
    ("plan", "transition_model.json",
     _set("matrices", "99-bogus", [[0.5, 0.5], [0.5, 0.5]])),
    ("simulate", "policy.json", _set("space", "m", "4")),
    ("simulate", "policy.json", _set("space", "theta_step", None)),
    ("simulate", "policy.json", _set("space", "a_max", 4.0)),
    ("simulate", "policy.json", _set("objective", "x")),
    ("simulate", "policy.json", _set("start", None)),
    ("simulate", "policy.json", _set("start", "0")),
    ("simulate", "policy.json", _set("start", 0.5)),
    ("simulate", "policy.json", _set("start", True)),
    # the cycle length of the layout with an hours list
    ("simulate", "policy.json", _set("n", 23)),
    ("compare", "reports.json", _set(0, "total_energy_cost", "12.5")),
    ("compare", "reports.json", _set(0, "total_energy_cost", None)),
    ("compare", "reports.json", _set(0, "controller", ["greedy"])),
], ids=["regime-m", "regime-m-float", "regime-levels", "regime-coefficients",
        "regime-design", "period-float",
        "chain-m", "chain-buckets", "chain-alpha", "chain-bool-alpha",
        "chain-bool-matrix", "chain-text-matrix", "chain-null-matrix",
        "chain-nan-matrix", "chain-foreign-bucket",
        "policy-m", "policy-theta-step", "policy-float-a-max",
        "policy-text-objective", "policy-null-start", "policy-text-start",
        "policy-float-start", "policy-bool-start", "policy-n",
        "reports-text-cost", "reports-null-cost", "reports-list-controller"])
def test_wrong_field_type_is_named(pipeline, tmp_path, capsys, command, name,
                                   edit):
    # a field of the wrong JSON type fails the stage that reads it with an
    # error that names the file, not a traceback
    _, out, config = pipeline
    run = tmp_path / "out"
    shutil.copytree(out, run)
    doc = json.loads((run / name).read_text())
    edit(doc)
    (run / name).write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([command, "--config", config, "--out", str(run)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name} holds ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option", [
    ("fit-qfr", "--config"),
    ("simulate", "--policy"),
    ("estimate-chain", "--regime-model"),
    ("fit-qfr", "paths.price_csv"),
])
def test_directory_input_is_named(pipeline, tmp_path, capsys, command, option):
    # an input path that names a directory fails its stage with an error
    # that names it, not a traceback
    root, out, config = pipeline
    folder = tmp_path / "folder"
    folder.mkdir()
    run = tmp_path / "out"
    shutil.copytree(out, run)
    argv = [command, "--config", config, "--out", str(run)]
    if option == "--config":
        argv[2] = str(folder)
    elif option == "paths.price_csv":
        argv[2] = ph.write_config(root, ph.base_config(
            root, paths={"price_csv": str(folder)}), name="config_dir.yaml")
    else:
        argv += [option, str(folder)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err
    assert "Traceback" not in err


def test_bad_design_is_named(pipeline, tmp_path):
    _, out, _ = pipeline
    doc = json.loads(ph.read_tree_bytes(out)["regime_model.json"])
    del doc["design"]["period_daily"]
    path = tmp_path / "regime_model.json"
    path.write_text(json.dumps(doc))
    # the design's fields all have defaults, but a section holds every field
    with pytest.raises(artifacts.ArtifactError,
                       match=re.escape(f"{path} holds a regime-model design "
                                       "without the key 'period_daily'")):
        _read_model(path)


def test_regime_model_without_design_exits_2(pipeline, tmp_path, capsys):
    _, out, config = pipeline
    doc = json.loads(ph.read_tree_bytes(out)["regime_model.json"])
    del doc["design"]
    path = tmp_path / "regime_model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["estimate-chain", "--config", config, "--out",
                     str(tmp_path), "--regime-model", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path} holds a regime-model without the key 'design'\n")
