"""Output checks and artifact counters for one pipeline output directory.

Each check names the stage whose operation it fails. Checks read only the
documented outputs (reports, trajectories, comparison, figure CSVs and the
plan's stdout), so a change to an artifact's internal format does not fail
them.
"""

import csv
import fnmatch
import hashlib
import json
import math
import os

from coolsched.ingest import parse_timestamp

REL_TOL = 1e-9

# output file patterns and the stage that writes them; outputs matching none
# are hashed but not required to repeat
OWNERS = [
    ("regime_model.json", "fit-qfr"),
    ("qfr_surfaces.csv", "fit-qfr"),
    ("transition_model.json", "estimate-chain"),
    ("policy.json", "plan"),
    ("trajectory_*.csv", "simulate"),
    ("reports.json", "simulate"),
    ("comparison.*", "compare"),
    ("fig*.csv", "export-plot-data"),
]


def owner(name):
    for pattern, stage in OWNERS:
        if fnmatch.fnmatch(name, pattern):
            return stage
    return None


def digest_tree(out):
    """{file name: (sha256 hex, bytes)} of every file in an output directory."""
    found = {}
    for name in sorted(os.listdir(out)):
        h = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        found[name] = (h.hexdigest(), os.path.getsize(os.path.join(out, name)))
    return found


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def planned_objective(stdout):
    """The `objective: X $/step` line of `plan`, as a float ($/h)."""
    for line in stdout.splitlines():
        if line.startswith("objective:"):
            return float(line.split()[1])
    raise ValueError("plan printed no objective line")


def _read_trajectory(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows]
            for key in ("theta", "energy_kwh", "energy_cost",
                        "violation_under", "violation_over")}, rows


def check_outputs(out, rep):
    """Check one repetition's outputs.

    Returns (failures, facts): failures maps a stage to its failure messages;
    facts holds the quality metrics and counters the outputs give.
    """
    failures = {}

    def fail(stage, message):
        failures.setdefault(stage, []).append(message)

    for step in rep["stages"]:
        if step["rc"] != 0:
            fail(step["stage"], f"exit code {step['rc']}")
    facts = {}
    plan_stdout = next(s["stdout"] for s in rep["stages"] if s["stage"] == "plan")
    try:
        facts["planned_cost_usd_per_h"] = planned_objective(plan_stdout)
    except ValueError as exc:
        fail("plan", str(exc))

    try:
        with open(os.path.join(out, "reports.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("simulate", f"reports.json unreadable: {exc}")
        return failures, facts

    decisions, in_band, hours = {}, 0, 0
    for report in reports:
        start, end = report["window"].split("/")
        n_hours = parse_timestamp(end) - parse_timestamp(start) + 1
        path = os.path.join(
            out, f"trajectory_{report['controller']}_{start[:10]}.csv")
        try:
            cols, rows = _read_trajectory(path)
        except (OSError, KeyError, ValueError) as exc:
            fail("simulate", f"{os.path.basename(path)} unreadable: {exc}")
            continue
        name = report["controller"]
        decisions[name] = decisions.get(name, 0) + len(rows)
        if len(rows) != n_hours:
            fail("simulate", f"{os.path.basename(path)}: {len(rows)} rows for "
                             f"a {n_hours}-hour window")
        sums = {
            "total_energy_kwh": math.fsum(cols["energy_kwh"]),
            "total_energy_cost": math.fsum(cols["energy_cost"]),
            "total_violation_degree_hours": math.fsum(cols["violation_under"])
            + math.fsum(cols["violation_over"]),
        }
        for key, value in sums.items():
            if not _close(report[key], value):
                fail("simulate", f"{report['window']} {name}: {key} "
                                 f"{report[key]!r} != column sum {value!r}")
        if name == "qfr-mdp":
            hours += len(rows)
            in_band += sum(1 for u, o in zip(cols["violation_under"],
                                             cols["violation_over"])
                           if u == 0.0 and o == 0.0)

    cost = {}
    for report in reports:
        cost.setdefault(report["controller"], 0.0)
        cost[report["controller"]] += report["total_energy_cost"]
    if "greedy" in cost and "qfr-mdp" in cost and cost["greedy"] > 0:
        facts["qfr_mdp_saving_pct"] = (
            100.0 * (cost["greedy"] - cost["qfr-mdp"]) / cost["greedy"])
        facts["qfr_mdp_violation_degh"] = sum(
            r["total_violation_degree_hours"] for r in reports
            if r["controller"] == "qfr-mdp")
    if hours:
        facts["qfr_mdp_in_band_pct"] = 100.0 * in_band / hours
    facts["decisions"] = decisions

    _check_comparison(out, reports, fail)
    _check_figures(out, reports, fail)
    return failures, facts


def _check_comparison(out, reports, fail):
    try:
        with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("compare", f"comparison.json unreadable: {exc}")
        return
    base = {r["window"]: r["total_energy_cost"] for r in reports
            if r["controller"] == table["baseline"]}
    if len(table["rows"]) != len(reports):
        fail("compare", f"{len(table['rows'])} comparison rows for "
                        f"{len(reports)} reports")
    for row, report in zip(table["rows"], reports):
        b = base.get(report["window"], 0.0)
        expected = 0.0 if b == 0 else (b - report["total_energy_cost"]) / b
        if (row["controller"], row["window"]) != (report["controller"],
                                                   report["window"]) \
                or not _close(row["improvement_vs_baseline"], expected):
            fail("compare", f"{report['window']} {report['controller']}: "
                            f"improvement {row['improvement_vs_baseline']!r} "
                            f"!= {expected!r} from reports.json")


def _check_figures(out, reports, fail):
    for name in ("fig1_quantile_surfaces.csv", "fig2_policy_day.csv",
                 "fig3_day_traces.csv", "fig4_cost_comparison.csv"):
        if not os.path.isfile(os.path.join(out, name)):
            fail("export-plot-data", f"{name} missing")
            return
    with open(os.path.join(out, "fig3_day_traces.csv"), encoding="utf-8") as fh:
        traces = sum(1 for _ in fh) - 1
    controllers = {r["controller"] for r in reports}
    if traces != 24 * len(controllers):
        fail("export-plot-data", f"fig3 has {traces} trace rows, expected "
                                 f"{24 * len(controllers)}")
    with open(os.path.join(out, "fig4_cost_comparison.csv"), "rb") as fh:
        fig4 = fh.read()
    try:
        with open(os.path.join(out, "comparison.csv"), "rb") as fh:
            if fh.read() != fig4:
                fail("export-plot-data", "fig4 differs from comparison.csv")
    except OSError:
        pass  # already failed under compare


def check_repeat(first, other):
    """Stages whose known outputs differ in bytes between two repetitions."""
    failures = {}
    for name in sorted(set(first) | set(other)):
        stage = owner(name)
        if stage and first.get(name, (None,))[0] != other.get(name, (None,))[0]:
            failures.setdefault(stage, []).append(f"{name} bytes differ")
    return failures
