"""Command-line pipeline: ingest, fit, estimate, plan, simulate, report.

Commands, in the order they run: fit-qfr, estimate-chain, plan, simulate,
compare, export-plot-data. Each reads what the earlier ones wrote to the out
dir: the regime model, transition model and policy through
artifacts.read_model, which write_model wrote. export-plot-data renders fig1
from the regime model and fig2 and fig3 from the policy and trajectories,
and copies comparison.csv to fig4. All take --config (YAML, see config.py),
plus --seed and --out overrides. Every command is deterministic given
identical config and seed. Every CSV a command writes is a table of text
columns that artifacts.write_csv joins.

The windows and the planning day come resolved to hours from RunConfig.
Every stage slices its hours from whole series: the price, temperature and
workload archives, parsed once per out dir and cached there
(`ingest.load_series`, which each load reports as `input <kind> <path>:
<n> h, sha256 <first 12 hex digits>, parsed|reused`), or, without a
workload archive, one synthetic load over the simulate windows and an
explicit planning day. So the planner and the rollout see one load per
hour. simulate states each simulate window once (sim.Window) and rolls
every controller out on it, writing `trajectory_<controller>_<first
day>.csv`.
"""

import argparse
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, replace
from functools import cache
from itertools import islice

import numpy as np

from . import controllers as ctl
from . import artifacts, ingest, mdp, qfr, regimes, sim
from .config import RunConfig
from .thermal import step_table

REGIME_MODEL_FILE = "regime_model.json"
TRANSITION_MODEL_FILE = "transition_model.json"
POLICY_FILE = "policy.json"
REPORTS_FILE = "reports.json"
COMPARISON_FILE = "comparison.csv"
# the stage that writes each input file into the out dir
WRITTEN_BY = {REGIME_MODEL_FILE: "fit-qfr",
              TRANSITION_MODEL_FILE: "estimate-chain", POLICY_FILE: "plan",
              REPORTS_FILE: "simulate", COMPARISON_FILE: "compare"}


class PipelineError(RuntimeError):
    """A command's inputs are missing or inconsistent."""


def _out_dir(cfg: RunConfig, args) -> str:
    out = args.out or cfg.require_path("out_dir")
    os.makedirs(out, exist_ok=True)
    return out


def _load_input(cfg: RunConfig, out, kind) -> ingest.TimeSeries:
    """The archive `paths.<kind>_csv`, parsed or reused from the out dir."""
    path = cfg.require_path(f"{kind.value}_csv")
    series = ingest.load_series(path, kind, out)
    print(f"input {kind.value} {path}: {len(series)} h, sha256 "
          f"{series.sha256[:12]}, {'reused' if series.reused else 'parsed'}")
    return series


def _load_workload(cfg: RunConfig, out) -> ingest.TimeSeries:
    """The workload archive, or one synthetic series over the simulate
    windows and an explicit mdp.planning_day; stages slice either alike."""
    if cfg.path("workload_csv") is not None:
        return _load_input(cfg, out, ingest.SeriesKind.WORKLOAD)
    spans = list(cfg.simulate_windows)
    if cfg.raw["mdp"]["planning_day"] is not None:
        spans.append((cfg.planning_day, cfg.planning_day + 23))
    first = min(start for start, _ in spans)
    last = max(end for _, end in spans)
    h = cfg.raw["heat_load"]
    return ingest.synth_workload(cfg.seed, last - first + 1,
                                 h["synth_base_cores"], h["synth_amplitude"],
                                 start=first, noise=h["synth_noise"])


def _train_samples(windows, price: ingest.TimeSeries):
    hours, values = [], []
    for window in windows:
        part = ingest.slice_series(price, window)
        hours.append(part.hours)
        values.append(part.values)
    return np.concatenate(hours), np.concatenate(values)


def _check_regime_count(cfg: RunConfig, regime_model) -> None:
    if regime_model.m != cfg.space.m:
        raise PipelineError(
            f"regime model has {regime_model.m} regimes but config expects "
            f"{cfg.space.m}; refit or change qfr.regimes")


def _assemble_problem(cfg: RunConfig, out, regime_model, transition_model):
    """Planning problem over the configured cycle (one day or a window),
    with the archives cached in the out dir `out`. Its plant is the
    thermal.step_table that sim.Window.of builds the same way from a window.
    """
    _check_regime_count(cfg, regime_model)
    if transition_model.m != regime_model.m:
        raise PipelineError("transition model and regime model disagree on M")

    if cfg.raw["mdp"]["planning_cycle"] == "day":
        window = (cfg.planning_day, cfg.planning_day + 23)
    else:
        window = cfg.require_windows("simulate")[0]
    temp = ingest.slice_series(
        _load_input(cfg, out, ingest.SeriesKind.TEMPERATURE), window)
    work = ingest.slice_series(_load_workload(cfg, out), window)
    hours = temp.hours
    plant = step_table(cfg.facility, cfg.chiller, cfg.heat, temp.values,
                       work.values)
    prices = qfr.price_table(regime_model, hours)
    trans = regimes.matrices_at(transition_model, hours)
    return mdp.MdpProblem(space=cfg.space, cost=cfg.planning_cost, plant=plant,
                          prices=prices, trans=trans, start=window[0])


def _build_controllers(cfg: RunConfig, out, args):
    built = {}
    for name in cfg.raw["controllers"]:
        if name == "greedy":
            built[name] = ctl.GreedyController(cfg.cost)
        elif name == "fixed-rule":
            built[name] = cfg.fixed_rule
        elif name == "qfr-mdp":
            policy = mdp.load_policy(_input_path(out, POLICY_FILE, args.policy))
            if policy.space != cfg.space:
                raise PipelineError(
                    f"policy was planned on {policy.space} but the config "
                    f"gives {cfg.space}; re-run plan")
            built[name] = ctl.QfrMdpController(policy=policy)
    return built


def _input_path(out, name, override=None):
    """`override` if given, else the out dir's `name`; either must exist."""
    path = override or os.path.join(out, name)
    if not os.path.exists(path):
        raise PipelineError(f"required input {path} not found; {name} is "
                            f"written by `coolsched {WRITTEN_BY[name]}`")
    return path


def _load_regime_model(out, override=None) -> qfr.RegimeModel:
    return artifacts.read_model(_input_path(out, REGIME_MODEL_FILE, override),
                                qfr.RegimeModel)


def cmd_fit_qfr(cfg: RunConfig, args) -> int:
    windows = cfg.require_windows("train")
    out = _out_dir(cfg, args)
    price = _load_input(cfg, out, ingest.SeriesKind.PRICE)
    hours, values = _train_samples(windows, price)
    model, fits = qfr.fit_regimes(hours, values, cfg.space.m, cfg.design)
    artifacts.write_model(os.path.join(out, REGIME_MODEL_FILE), model)
    print(f"fitted {model.m}-regime model on {len(values)} prices: "
          f"{model.m - 1} boundary fits, {model.m} representative fits")
    band = qfr.band_rows(len(values), cfg.design.n_features)
    first = sum(fit.rows == band for fit in fits)
    after = sum(fit.rows not in (None, band) for fit in fits)
    print(f"near-curve: {first}/{len(fits)} levels certified on {band} of "
          f"{len(values)} rows, {after} more on all rows")
    solvers = Counter(fit.solver for fit in fits)
    print("solver: " + " ".join(f"{name}={solvers[name]}"
                                for name in sorted(solvers)))
    return 0


def cmd_estimate_chain(cfg: RunConfig, args) -> int:
    windows = cfg.require_windows("train")
    out = _out_dir(cfg, args)
    model = _load_regime_model(out, args.regime_model)
    price = _load_input(cfg, out, ingest.SeriesKind.PRICE)
    hours, values = _train_samples(windows, price)
    labels = qfr.classify_series(model, hours, values)
    chain = regimes.estimate(np.column_stack((hours, labels)), m=model.m,
                             alpha=cfg.raw["chain"]["alpha"],
                             grouping=cfg.raw["chain"]["grouping"])
    artifacts.write_model(os.path.join(out, TRANSITION_MODEL_FILE), chain)
    print(f"estimated {len(chain.matrices)} transition matrices "
          f"(grouping={chain.grouping}, alpha={chain.alpha})")
    return 0


def cmd_plan(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    model = _load_regime_model(out, args.regime_model)
    path = _input_path(out, TRANSITION_MODEL_FILE, args.transition_model)
    chain = artifacts.read_model(path, regimes.TransitionModel)
    problem = _assemble_problem(cfg, out, model, chain)
    occupancy = mdp.solve(problem)
    residuals = mdp.check_occupancy(problem, occupancy)
    policy = mdp.extract_policy(problem, occupancy)
    mdp.save_policy(policy, os.path.join(out, POLICY_FILE))
    print(f"planned cycle n={problem.n} states={problem.space.n_theta}x"
          f"{problem.space.m} actions={problem.space.n_actions}")
    visited = int(np.count_nonzero(occupancy.x.sum(axis=3) > 1e-12))
    print(f"occupancy visits {visited} of {policy.actions.size} table states")
    if occupancy.solver == "rvi":
        print(f"solver: rvi periods={occupancy.periods} "
              f"span={occupancy.span:.3e} residuals="
              f"{residuals['normalization']:.3e}/{residuals['flow']:.3e}")
    else:
        print(f"solver: lp (rvi span {occupancy.span:.3e} after "
              f"{occupancy.periods} periods)")
    print(f"objective: {occupancy.objective:.6f} $/step")
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    if not cfg.raw["controllers"]:
        raise PipelineError("config selects no controllers")
    windows = cfg.require_windows("simulate")
    out = _out_dir(cfg, args)

    # one regime model drives the qfr-mdp lookups and labels every trajectory
    model = None
    if ("qfr-mdp" in cfg.raw["controllers"] or args.regime_model
            or os.path.exists(os.path.join(out, REGIME_MODEL_FILE))):
        model = _load_regime_model(out, args.regime_model)
        _check_regime_count(cfg, model)
    built = _build_controllers(cfg, out, args)
    specs = sim.SimSpecs(facility=cfg.facility, chiller=cfg.chiller,
                         heat=cfg.heat, cost=cfg.cost,
                         regime_model=model, space=cfg.space)

    price = _load_input(cfg, out, ingest.SeriesKind.PRICE)
    temperature = _load_input(cfg, out, ingest.SeriesKind.TEMPERATURE)
    workload = _load_workload(cfg, out)
    reports = []
    for span in windows:
        window = sim.Window.of(
            ingest.align(price, temperature, workload, span), specs)
        day = ingest.format_timestamp(window.hours[0])[:10]
        for name, controller in sorted(built.items()):
            trajectory = sim.rollout(controller, window, specs)
            trajectory.to_csv(os.path.join(out, f"trajectory_{name}_{day}.csv"))
            report = sim.summarize(trajectory)
            reports.append(report)
            print(f"{report.window} {name}: ${report.total_energy_cost:,.2f} "
                  f"({report.total_violation_degree_hours:.3f} degree-hours "
                  f"outside band)")
    # a bare list, without a kind tag: bench/checks.py reads it as one
    artifacts.write_json(os.path.join(out, REPORTS_FILE),
                         [asdict(r) for r in reports])
    return 0


def _load_reports(path):
    docs = artifacts.read_json(path)
    with artifacts.loading(path, "cost report list"):
        if not isinstance(docs, list):
            raise artifacts.ArtifactError("no list of cost reports")
        return [artifacts.build(sim.CostReport, doc) for doc in docs]


def cmd_compare(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    reports = _load_reports(_input_path(out, REPORTS_FILE, args.reports))
    table = sim.compare(reports, args.baseline)
    table.to_csv(os.path.join(out, COMPARISON_FILE))
    artifacts.write_json(os.path.join(out, "comparison.json"), asdict(table))
    for row in table.rows:
        print(f"{row['window']} {row['controller']}: "
              f"${row['total_energy_cost']:,.2f} "
              f"({row['improvement_vs_baseline']:+.2%} vs {args.baseline})")
    return 0


def cmd_export_plot_data(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    policy = mdp.load_policy(_input_path(out, POLICY_FILE, args.policy))
    model = _load_regime_model(out)
    comparison = _input_path(out, COMPARISON_FILE)
    train_hours = ingest.window_hours(cfg.require_windows("train")[0])

    # each controller's trace of the day, read and checked before any write
    first, last = cfg.require_windows("simulate")[0]
    if args.day is None:
        day_h0 = cfg.planning_day
        day = ingest.format_timestamp(day_h0)[:10]
    else:
        day = args.day
        try:
            day_h0 = ingest.parse_timestamp(f"{day}T00:00:00Z")
        except ingest.IngestError:
            raise PipelineError(f"--day {day!r} is not a YYYY-MM-DD "
                                "date") from None
    offset = day_h0 - first
    if not first <= day_h0 <= last - 23:
        raise PipelineError(
            f"day {day} not inside the first simulate window "
            + "..".join(ingest.format_timestamps([first, last]))
            + ": all 24 of its hours must be")
    window_day = ingest.format_timestamp(first)[:10]
    columns = [sim.Trajectory.COLUMNS.index(key)
               for key in ("timestamp", "theta", "action", "price")]
    rows_out = []
    for name in sorted(cfg.raw["controllers"]):
        path = os.path.join(out, f"trajectory_{name}_{window_day}.csv")
        if not os.path.exists(path):
            raise PipelineError(f"missing {path}; run simulate first")
        # write_csv quotes no field, so a row splits on its commas
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(fh, "").rstrip("\r\n").split(",")
            lines = list(islice(fh, offset, offset + 24))
        rows = [line.rstrip("\r\n").split(",") for line in lines]
        if header != list(sim.Trajectory.COLUMNS):
            raise PipelineError(f"{path} does not have the trajectory "
                                f"columns {','.join(sim.Trajectory.COLUMNS)}; "
                                "re-run simulate")
        if not rows or rows[0][0] != ingest.format_timestamp(day_h0):
            raise PipelineError(f"{path} does not start day {day} at hour "
                                f"{offset} of its window; re-run simulate")
        # every row write_csv writes ends with a newline: a file cut inside
        # the day has fewer rows, or a last row without one
        if len(lines) < 24 or not lines[-1].endswith("\n"):
            raise PipelineError(f"{path} ends inside day {day}; re-run "
                                "simulate")
        for lineno, row in enumerate(rows, start=offset + 2):
            if len(row) != len(header):
                raise PipelineError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(row)}; re-run simulate")
        rows_out += [(name, *(row[k] for k in columns)) for row in rows]

    # rearranged quantile surfaces over the first training window, up to
    # one period of the design, after which every row repeats an earlier one
    hours = train_hours[:math.lcm(model.design.period_daily,
                                  model.design.period_seasonal)]
    bounds, reps = model.surfaces_at(hours)
    artifacts.write_csv(
        os.path.join(out, "fig1_quantile_surfaces.csv"),
        ["timestamp", "hour_of_day"]
        + [f"boundary_{j}" for j in range(1, model.m)]
        + [f"representative_{p}" for p in range(1, model.m + 1)],
        [ingest.format_timestamps(hours), list(map(str, (hours % 24).tolist()))]
        + [ingest.format_floats(column)
           for column in np.hstack([bounds, reps]).T])
    # planned actions for the exported day: hour x theta x regime
    slots = [ctl.policy_slot(policy, day_h0 + hod) for hod in range(24)]
    thetas = ingest.format_floats(policy.space.theta_grid)
    m = policy.space.m
    artifacts.write_csv(
        os.path.join(out, "fig2_policy_day.csv"),
        ["hour_of_day", "theta", "regime", "action"],
        [[str(hod) for hod in range(24) for _ in range(len(thetas) * m)],
         [theta for theta in thetas for _ in range(m)] * 24,
         [str(p) for p in range(1, m + 1)] * (24 * len(thetas)),
         list(map(str, policy.actions[slots].ravel().tolist()))])
    artifacts.write_csv(os.path.join(out, "fig3_day_traces.csv"),
                        ["controller", "timestamp", "theta", "action", "price"],
                        list(zip(*rows_out)))
    artifacts.copy(comparison, os.path.join(out, "fig4_cost_comparison.csv"))
    print("wrote fig1_quantile_surfaces.csv, fig2_policy_day.csv, "
          "fig3_day_traces.csv, fig4_cost_comparison.csv")
    return 0


COMMANDS = {
    "fit-qfr": cmd_fit_qfr,
    "estimate-chain": cmd_estimate_chain,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "export-plot-data": cmd_export_plot_data,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coolsched",
        description="Electricity price-aware data center cooling scheduler")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if name in ("estimate-chain", "plan", "simulate"):
            p.add_argument("--regime-model", default=None)
        if name == "plan":
            p.add_argument("--transition-model", default=None)
        if name == "simulate":
            p.add_argument("--policy", default=None)
        if name == "compare":
            p.add_argument("--reports", default=None)
            p.add_argument("--baseline", default="greedy")
        if name == "export-plot-data":
            p.add_argument("--policy", default=None)
            p.add_argument("--day", default=None,
                           help="YYYY-MM-DD day for the trace export")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            # a new RunConfig checks --seed as it checks the file's seed
            cfg = replace(cfg, raw={**cfg.raw, "seed": args.seed})
        return COMMANDS[args.command](cfg, args)
    # ConfigError, IngestError, FitError, EstimationError and ArtifactError
    # are ValueErrors; an OSError, such as an input path that is a
    # directory, names its path
    except (ValueError, OSError, PipelineError, regimes.BucketError,
            mdp.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
