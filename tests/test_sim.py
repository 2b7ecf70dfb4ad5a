import csv

import numpy as np
import pytest

from coolsched.controllers import FixedRuleController, GreedyController
from coolsched.ingest import AlignedDataset, parse_timestamp
from coolsched.mdp import CostSpec
from coolsched.sim import (CostReport, SimSpecs, Trajectory, compare, rollout,
                           summarize)
from coolsched.thermal import (ChillerSpec, FacilitySpec, HeatLoadSpec,
                               capacitance, step_temperature)

from conftest import COST, summer_dataset


class ConstantController:
    def __init__(self, a, name="constant"):
        self.a = a
        self.name = name

    def action(self, hour_index, theta, price, t_out, q):
        return self.a


def flat_dataset(n=48, price=40.0, t_out=25.0, cores=0):
    hours = np.arange(parse_timestamp("2024-07-01T00:00:00Z"),
                      parse_timestamp("2024-07-01T00:00:00Z") + n)
    return AlignedDataset(hours=hours, price=np.full(n, price),
                          temperature=np.full(n, t_out),
                          workload=np.full(n, float(cores)))


def test_rollout_equilibrium_stays_constant(sim_specs):
    # no heat, no cooling, start at outdoor temperature: nothing moves
    specs = SimSpecs(facility=sim_specs.facility, chiller=sim_specs.chiller,
                     heat=HeatLoadSpec(q_base=0.0, phi=0.0), cost=COST)
    ds = flat_dataset(t_out=25.0)
    traj = rollout(ConstantController(0), ds, specs, initial_theta=25.0)
    assert np.allclose(traj.theta, 25.0, atol=1e-12)
    assert np.all(traj.action == 0)


def test_rollout_theta_follows_thermal_equation(sim_specs):
    ds = summer_dataset(seed=3, days=4)
    greedy = GreedyController(sim_specs.chiller, sim_specs.cost,
                              sim_specs.gamma_env, sim_specs.c_heat)
    traj = rollout(greedy, ds, sim_specs, initial_theta=23.0)
    theta = 23.0
    for t in range(len(traj)):
        assert traj.theta[t] == theta  # recorded state is exact
        q = sim_specs.heat.q_base + sim_specs.heat.phi * ds.workload[t]
        theta = step_temperature(theta, float(ds.temperature[t]), q,
                                 int(traj.action[t]), sim_specs.chiller.eta,
                                 sim_specs.gamma_env, sim_specs.c_heat, 3600.0)


def test_rollout_deterministic(sim_specs):
    ds = summer_dataset(seed=4, days=3)
    greedy = GreedyController(sim_specs.chiller, sim_specs.cost,
                              sim_specs.gamma_env, sim_specs.c_heat)
    t1 = rollout(greedy, ds, sim_specs, initial_theta=22.5)
    t2 = rollout(greedy, ds, sim_specs, initial_theta=22.5)
    for field in ("theta", "action", "energy_kwh", "energy_cost"):
        assert np.array_equal(getattr(t1, field), getattr(t2, field))


def test_rollout_accounting_identity(sim_specs):
    ds = summer_dataset(seed=5, days=10)
    greedy = GreedyController(sim_specs.chiller, sim_specs.cost,
                              sim_specs.gamma_env, sim_specs.c_heat)
    traj = rollout(greedy, ds, sim_specs)
    report = summarize(traj)
    direct = float(np.sum(traj.energy_kwh * traj.price / 1000.0))
    assert report.total_energy_cost == pytest.approx(direct, rel=1e-9)


def test_greedy_holds_temperature_under_cap(sim_specs):
    ds = summer_dataset(seed=6, days=14)
    greedy = GreedyController(sim_specs.chiller, sim_specs.cost,
                              sim_specs.gamma_env, sim_specs.c_heat)
    traj = rollout(greedy, ds, sim_specs, initial_theta=22.5)
    assert np.max(traj.theta) <= sim_specs.cost.t_max + 1e-9
    assert np.sum(traj.violation_over) == 0.0


def test_fixed_rule_peak_abstinence(sim_specs):
    ds = summer_dataset(seed=7, days=14)
    fixed = FixedRuleController(sim_specs.chiller, sim_specs.cost,
                                sim_specs.gamma_env, sim_specs.c_heat)
    traj = rollout(fixed, ds, sim_specs, initial_theta=22.5)
    hod = traj.hours % 24
    assert np.all(traj.action[(hod >= 16) & (hod < 19)] == 0)


def hand_trajectory():
    return Trajectory(
        controller="hand",
        hours=np.array([0, 1, 2]),
        theta=np.array([24.0, 25.0, 23.0]),
        theta_index=np.array([18, 20, 16]),
        regime=np.array([1, 2, 1]),
        price=np.array([50.0, 100.0, 20.0]),
        action=np.array([1, 2, 0]),
        energy_kwh=np.array([300.0, 650.0, 0.0]),
        energy_cost=np.array([15.0, 65.0, 0.0]),
        violation_under=np.array([0.0, 0.0, 0.5]),
        violation_over=np.array([0.0, 0.25, 0.0]),
    )


def test_summarize_hand_built_rows():
    report = summarize(hand_trajectory())
    assert report.total_energy_kwh == pytest.approx(950.0)
    assert report.total_energy_cost == pytest.approx(80.0)
    assert report.total_violation_degree_hours == pytest.approx(0.75)
    assert report.theta_max == 25.0 and report.theta_min == 23.0


def test_summarize_zero_actions_zero_cost(sim_specs):
    ds = flat_dataset()
    traj = rollout(ConstantController(0), ds, sim_specs)
    report = summarize(traj)
    assert report.total_energy_kwh == 0.0
    assert report.total_energy_cost == 0.0


def test_summarize_invariant_to_row_order():
    traj = hand_trajectory()
    perm = np.array([2, 0, 1])
    shuffled = Trajectory(
        controller=traj.controller,
        hours=traj.hours[perm], theta=traj.theta[perm],
        theta_index=traj.theta_index[perm], regime=traj.regime[perm],
        price=traj.price[perm], action=traj.action[perm],
        energy_kwh=traj.energy_kwh[perm], energy_cost=traj.energy_cost[perm],
        violation_under=traj.violation_under[perm],
        violation_over=traj.violation_over[perm],
    )
    a, b = summarize(traj), summarize(shuffled)
    assert a.total_energy_kwh == b.total_energy_kwh
    assert a.total_energy_cost == b.total_energy_cost
    assert a.total_violation_degree_hours == b.total_violation_degree_hours


def test_summarize_rejects_empty():
    empty = Trajectory("x", *[np.array([])] * 10)
    with pytest.raises(ValueError):
        summarize(empty)


def _report(name, window, cost):
    return CostReport(controller=name, window=window, total_energy_kwh=0.0,
                      total_energy_cost=cost, total_violation_degree_hours=0.0,
                      theta_max=27.0, theta_min=20.0)


def test_compare_baseline_to_itself():
    table = compare([_report("greedy", "w1", 100.0)], "greedy")
    assert table.rows[0]["improvement_vs_baseline"] == 0.0


def test_compare_arithmetic():
    table = compare([_report("greedy", "w1", 100.0), _report("mdp", "w1", 80.0)],
                    "greedy")
    by_name = {r["controller"]: r for r in table.rows}
    assert by_name["mdp"]["improvement_vs_baseline"] == pytest.approx(0.20)


def test_compare_requires_baseline():
    with pytest.raises(ValueError, match="baseline"):
        compare([_report("mdp", "w1", 80.0)], "greedy")


def test_compare_emits_row_per_window():
    reports = []
    for i in range(14):
        reports.append(_report("greedy", f"w{i}", 100.0 + i))
        reports.append(_report("mdp", f"w{i}", 90.0))
    table = compare(reports, "greedy")
    mdp_rows = [r for r in table.rows if r["controller"] == "mdp"]
    assert len(mdp_rows) == 14


def test_trajectory_csv_round_trip(tmp_path, sim_specs):
    ds = summer_dataset(seed=8, days=2)
    greedy = GreedyController(sim_specs.chiller, sim_specs.cost,
                              sim_specs.gamma_env, sim_specs.c_heat)
    traj = rollout(greedy, ds, sim_specs)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj)
    got_theta = np.array([float(r["theta"]) for r in rows])
    got_cost = np.array([float(r["energy_cost"]) for r in rows])
    assert np.array_equal(got_theta, traj.theta)      # repr round-trips
    assert np.array_equal(got_cost, traj.energy_cost)


def test_simspecs_derived_quantities():
    facility = FacilitySpec(slab_thickness=0.4, c_equipment=3.0e9)
    specs = SimSpecs(facility=facility, chiller=ChillerSpec(),
                     heat=HeatLoadSpec(), cost=CostSpec())
    assert specs.c_heat == pytest.approx(capacitance(facility))
    assert specs.gamma_env == facility.gamma_env
