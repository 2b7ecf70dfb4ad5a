import csv
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coolsched.controllers import (FixedRuleController, GreedyController,
                                   QfrMdpController, policy_slot)
from coolsched.ingest import AlignedDataset, format_timestamp, parse_timestamp
from coolsched.mdp import Policy, StateSpace, quantize
from coolsched.qfr import (TIE_TOL, FourierDesign, RegimeModel, classify,
                           classify_series)
from coolsched.sim import (CostReport, SimSpecs, Trajectory, Window, compare,
                           rollout, summarize)
from coolsched.thermal import (ChillerSpec, HeatLoadSpec, capacitance,
                               heat_load, step_temperature)

from conftest import COST, FACILITY, summer_dataset
from references import cooling_energy, fixed_rule_action, greedy_action


class ConstantController:
    def __init__(self, a, name="constant"):
        self.a = a
        self.name = name

    def start(self, window):
        pass

    def action(self, t, theta):
        return self.a


# Reference rollout: the per-hour loop the table-driven rollout replaced. Each
# hour it classifies, quantizes, finds the policy slot, steps the scalar
# thermal model and prices the action; the rollout must match it bit for bit.
# It states no Window: its record holds every column itself.

def _reference_action(controller, specs, hour, theta, price, t_out, q):
    """The controller's decision through the scalar rules, one hour at a
    time, on the plant of `specs`."""
    if isinstance(controller, GreedyController):
        return greedy_action(theta, t_out, q, specs.chiller, controller.cost,
                             specs.facility.gamma_env,
                             capacitance(specs.facility))
    if isinstance(controller, FixedRuleController):
        return fixed_rule_action(
            hour % 24, theta, t_out, q, specs.chiller, controller.cost,
            specs.facility.gamma_env, capacitance(specs.facility),
            peak=(controller.peak_start, controller.peak_end),
            precool=(controller.precool_start, controller.precool_end))
    policy = controller.policy
    slot = policy_slot(policy, hour)
    i = quantize(theta, policy.space)
    regime = classify(specs.regime_model, hour, price)
    return int(policy.actions[slot, i, regime - 1])


def _rollout_reference(controller, dataset, specs, initial_theta):
    n = dataset.n
    regimes = np.zeros(n, dtype=np.int64)
    theta = np.empty(n)
    theta_index = np.empty(n, dtype=np.int64)
    action = np.empty(n, dtype=np.int64)
    energy = np.empty(n)
    viol_under = np.empty(n)
    viol_over = np.empty(n)
    current = float(initial_theta)
    for t in range(n):
        hour, price = int(dataset.hours[t]), float(dataset.price[t])
        t_out = float(dataset.temperature[t])
        q = heat_load(specs.heat, dataset.workload[t])
        a = _reference_action(controller, specs, hour, current, price, t_out,
                              q)
        if specs.regime_model is not None:
            regimes[t] = classify(specs.regime_model, hour, price)
        theta[t] = current
        theta_index[t] = quantize(current, specs.space)
        action[t] = a
        energy[t] = cooling_energy(specs.chiller, a, t_out)
        current = step_temperature(current, t_out, q, a, specs.chiller.eta,
                                   specs.facility.gamma_env,
                                   capacitance(specs.facility))
        viol_under[t] = max(0.0, specs.cost.t_min - current)
        viol_over[t] = max(0.0, current - specs.cost.t_max)
    return SimpleNamespace(
        controller=controller.name, hours=dataset.hours.copy(), theta=theta,
        theta_index=theta_index, regime=regimes, price=dataset.price.copy(),
        action=action, energy_kwh=energy,
        energy_cost=energy * dataset.price / 1000.0,
        violation_under=viol_under, violation_over=viol_over)


def _to_csv_reference(traj, path):
    """Trajectory.to_csv one row at a time, as it was first written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(Trajectory.COLUMNS)
        for i in range(len(traj.hours)):
            writer.writerow([
                format_timestamp(traj.hours[i]),
                repr(float(traj.theta[i])), int(traj.theta_index[i]),
                int(traj.regime[i]), repr(float(traj.price[i])),
                int(traj.action[i]), repr(float(traj.energy_kwh[i])),
                repr(float(traj.energy_cost[i])),
                repr(float(traj.violation_under[i])),
                repr(float(traj.violation_over[i]))])


TRAJECTORY_ARRAYS = ("hours", "theta", "theta_index", "regime", "price",
                     "action", "energy_kwh", "energy_cost", "violation_under",
                     "violation_over")


def _assert_same_bits(got, want):
    assert got.controller == want.controller
    for field in TRAJECTORY_ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def _regime_model(boundaries):
    """Curves with one shared daily harmonic, offset by their intercepts: a
    boundary per entry of `boundaries`, a representative inside each band."""
    design = FourierDesign(daily_harmonics=1, seasonal_harmonics=0)
    edges = [float(b) for b in boundaries]
    mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    reps = [edges[0] - 10.0] + mids + [edges[-1] + 10.0]

    # intercepts in level order: r1, b1, r2, ..., b_{M-1}, rM
    intercepts = [reps[0]]
    for edge, rep in zip(edges, reps[1:]):
        intercepts += [edge, rep]
    return RegimeModel(m=len(edges) + 1, design=design,
                       coefficients=np.array([[c, 3.0, -2.0] for c in intercepts]))


finite = dict(allow_nan=False, allow_infinity=False)
JULY_2024 = parse_timestamp("2024-07-01T00:00:00Z")


@st.composite
def rollout_cases(draw):
    """A short window, a grid, a regime model, a policy, a start theta and
    a facility."""
    days = draw(st.integers(1, 2))
    n = 24 * days
    start = JULY_2024 + draw(st.integers(-24 * 400, 24 * 400))
    hours = np.arange(start, start + n, dtype=np.int64)
    price = draw(arrays(float, n, elements=st.floats(-20.0, 300.0, **finite)))
    t_out = draw(arrays(float, n, elements=st.floats(5.0, 42.0, **finite)))
    work = draw(arrays(float, n, elements=st.integers(0, 200_000)))
    dataset = AlignedDataset(hours=hours, price=price, temperature=t_out,
                             workload=work)
    m = draw(st.integers(2, 4))
    edges = sorted(draw(st.lists(st.floats(20.0, 150.0, **finite),
                                 min_size=m - 1, max_size=m - 1)))
    model = _regime_model(edges)
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    space = StateSpace(theta_min=15.0, theta_max=32.0, theta_step=step, m=m,
                       a_max=4)
    slots = draw(st.sampled_from([24, 48]))
    actions = draw(arrays(np.int64, (slots, space.n_theta, m),
                          elements=st.integers(0, 4)))
    cycle_start = draw(st.just(0) | st.just(start - draw(st.integers(0, 100))))
    policy = Policy(actions=actions, space=space, start=cycle_start)
    theta0 = draw(st.floats(12.0, 35.0, **finite))
    facility = replace(FACILITY,
                       gamma_env=draw(st.floats(2e3, 5e4, **finite)),
                       c_equipment=draw(st.floats(0.0, 1e10, **finite)))
    return dataset, model, policy, theta0, facility


def _controllers(specs, policy):
    return [GreedyController(specs.cost), FixedRuleController(specs.cost),
            QfrMdpController(policy=policy)]


def _flat_case(price=40.0, theta0=24.0, t_out=28.0, cores=50_000.0,
               start=JULY_2024):
    """One day of flat traces; the regime boundary is flat at 50."""
    hours = np.arange(start, start + 24, dtype=np.int64)
    dataset = AlignedDataset(hours=hours, price=np.full(24, price),
                             temperature=np.full(24, t_out),
                             workload=np.full(24, cores))
    design = FourierDesign(daily_harmonics=0, seasonal_harmonics=0)
    model = RegimeModel(m=2, design=design,
                        coefficients=np.array([[25.0], [50.0], [75.0]]))
    space = StateSpace(theta_min=15.0, theta_max=32.0, theta_step=0.5, m=2,
                       a_max=4)
    actions = np.zeros((24, space.n_theta, 2), dtype=np.int64)
    actions[:, :, 0] = np.arange(space.n_theta)[None, :] % 5   # regime 1
    actions[:, :, 1] = 4 - actions[:, :, 0]                    # regime 2
    return (dataset, model,
            Policy(actions=actions, space=space, start=0), theta0,
            FACILITY)


@settings(max_examples=40, deadline=None)
@given(rollout_cases())
# theta exactly on a half-step of the 0.5 degC grid: quantize rounds it up
@example(_flat_case(theta0=22.25))
# a price within TIE_TOL of the boundary at 50 belongs to the lower band
@example(_flat_case(price=50.0 + 0.5 * TIE_TOL * 50.0))
# 25,000 cores make one chiller's equilibrium t_out exactly, so a room
# starting there steps onto t_max (greedy) or, at 02:00, onto t_min
# (pre-cooling) exactly
@example(_flat_case(theta0=27.0, t_out=27.0, cores=25_000.0))
@example(_flat_case(theta0=18.0, t_out=18.0, cores=25_000.0,
                    start=JULY_2024 + 2))
def test_rollout_matches_reference(tmp_path_factory, case):
    dataset, model, policy, theta0, facility = case
    specs = SimSpecs(facility=facility, chiller=ChillerSpec(),
                     heat=HeatLoadSpec(), cost=COST, regime_model=model,
                     space=policy.space)
    labels = classify_series(model, dataset.hours, dataset.price)
    for t in range(dataset.n):
        assert classify(model, int(dataset.hours[t]),
                        float(dataset.price[t])) == labels[t]
    tmp = tmp_path_factory.mktemp("traj")
    window = Window.of(dataset, specs)   # one window for all three rollouts
    for controller in _controllers(specs, policy):
        got = rollout(controller, window, specs, initial_theta=theta0)
        assert got.window is window
        want = _rollout_reference(controller, dataset, specs, theta0)
        _assert_same_bits(got, want)
        got.to_csv(tmp / "got.csv")
        _to_csv_reference(want, tmp / "want.csv")
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_reference_examples_hit_their_edge_cases():
    dataset, model, policy, *_ = _flat_case(price=50.0 + 0.5 * TIE_TOL * 50.0)
    assert classify(model, int(dataset.hours[0]), float(dataset.price[0])) == 1
    assert float(dataset.price[0]) > 50.0
    assert policy.space.theta_grid[quantize(22.25, policy.space)] == 22.5
    chiller, c_heat = ChillerSpec(), capacitance(FACILITY)
    q = heat_load(HeatLoadSpec(), 25_000.0)
    for band_edge in (COST.t_max, COST.t_min):
        assert step_temperature(band_edge, band_edge, q, 1, chiller.eta,
                                FACILITY.gamma_env, c_heat) == band_edge


def test_rollout_rejects_action_outside_range(sim_specs):
    window = Window.of(flat_dataset(), sim_specs)
    for bad in (-1, sim_specs.chiller.a_max + 1):
        with pytest.raises(ValueError, match=r"0\.\.4"):
            rollout(ConstantController(bad), window, sim_specs)


def test_rollout_rejects_negative_cores(sim_specs):
    ds = flat_dataset(cores=100)
    ds.workload[30] = -1.0
    with pytest.raises(ValueError, match="cores"):
        Window.of(ds, sim_specs)


def flat_dataset(n=48, price=40.0, t_out=25.0, cores=0):
    hours = np.arange(parse_timestamp("2024-07-01T00:00:00Z"),
                      parse_timestamp("2024-07-01T00:00:00Z") + n)
    return AlignedDataset(hours=hours, price=np.full(n, price),
                          temperature=np.full(n, t_out),
                          workload=np.full(n, float(cores)))


def test_rollout_equilibrium_stays_constant(sim_specs):
    # no heat, no cooling, start at outdoor temperature: nothing moves
    specs = SimSpecs(facility=sim_specs.facility, chiller=sim_specs.chiller,
                     heat=HeatLoadSpec(q_base=0.0, phi=0.0), cost=COST,
                     space=sim_specs.space)
    ds = flat_dataset(t_out=25.0)
    traj = rollout(ConstantController(0), Window.of(ds, specs), specs,
                   initial_theta=25.0)
    assert np.allclose(traj.theta, 25.0, atol=1e-12)
    assert np.all(traj.action == 0)


def test_rollout_theta_follows_thermal_equation(sim_specs):
    ds = summer_dataset(seed=3, days=4)
    greedy = GreedyController(sim_specs.cost)
    traj = rollout(greedy, Window.of(ds, sim_specs), sim_specs,
                   initial_theta=23.0)
    theta = 23.0
    for t in range(len(traj)):
        assert traj.theta[t] == theta  # recorded state is exact
        q = sim_specs.heat.q_base + sim_specs.heat.phi * ds.workload[t]
        theta = step_temperature(theta, float(ds.temperature[t]), q,
                                 int(traj.action[t]), sim_specs.chiller.eta,
                                 sim_specs.facility.gamma_env,
                                 capacitance(sim_specs.facility))


def test_rollout_deterministic(sim_specs):
    ds = summer_dataset(seed=4, days=3)
    greedy = GreedyController(sim_specs.cost)
    t1, t2 = (rollout(greedy, Window.of(ds, sim_specs), sim_specs,
                      initial_theta=22.5) for _ in range(2))
    for field in ("theta", "action", "energy_kwh", "energy_cost"):
        assert np.array_equal(getattr(t1, field), getattr(t2, field))


def test_rollout_accounting_identity(sim_specs):
    ds = summer_dataset(seed=5, days=10)
    greedy = GreedyController(sim_specs.cost)
    traj = rollout(greedy, Window.of(ds, sim_specs), sim_specs)
    report = summarize(traj)
    direct = float(np.sum(traj.energy_kwh * traj.price / 1000.0))
    assert report.total_energy_cost == pytest.approx(direct, rel=1e-9)


def test_greedy_holds_temperature_under_cap(sim_specs):
    ds = summer_dataset(seed=6, days=14)
    greedy = GreedyController(sim_specs.cost)
    traj = rollout(greedy, Window.of(ds, sim_specs), sim_specs,
                   initial_theta=22.5)
    assert np.max(traj.theta) <= sim_specs.cost.t_max + 1e-9
    assert np.sum(traj.violation_over) == 0.0


def test_fixed_rule_peak_abstinence(sim_specs):
    ds = summer_dataset(seed=7, days=14)
    fixed = FixedRuleController(sim_specs.cost)
    traj = rollout(fixed, Window.of(ds, sim_specs), sim_specs,
                   initial_theta=22.5)
    hod = traj.hours % 24
    assert np.all(traj.action[(hod >= 16) & (hod < 19)] == 0)


def _hand_window(hours, price, regime):
    """A window of given columns and an empty plant."""
    return Window(hours=hours, price=price, regime=regime, equilibria=[],
                  decay=0.0, kwh=np.empty((len(hours), 0)))


def hand_trajectory():
    return Trajectory(
        controller="hand",
        window=_hand_window(hours=np.array([0, 1, 2]),
                            price=np.array([50.0, 100.0, 20.0]),
                            regime=np.array([1, 2, 1])),
        theta=np.array([24.0, 25.0, 23.0]),
        theta_index=np.array([18, 20, 16]),
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
    traj = rollout(ConstantController(0), Window.of(ds, sim_specs), sim_specs)
    report = summarize(traj)
    assert report.total_energy_kwh == 0.0
    assert report.total_energy_cost == 0.0


def test_summarize_invariant_to_row_order():
    traj = hand_trajectory()
    perm = np.array([2, 0, 1])
    shuffled = Trajectory(
        controller=traj.controller,
        window=_hand_window(hours=traj.hours[perm], price=traj.price[perm],
                            regime=traj.regime[perm]),
        theta=traj.theta[perm], theta_index=traj.theta_index[perm],
        action=traj.action[perm],
        energy_kwh=traj.energy_kwh[perm], energy_cost=traj.energy_cost[perm],
        violation_under=traj.violation_under[perm],
        violation_over=traj.violation_over[perm],
    )
    a, b = summarize(traj), summarize(shuffled)
    assert a.total_energy_kwh == b.total_energy_kwh
    assert a.total_energy_cost == b.total_energy_cost
    assert a.total_violation_degree_hours == b.total_violation_degree_hours


def test_summarize_rejects_empty():
    empty = Trajectory("x", _hand_window(*[np.array([])] * 3),
                       *[np.array([])] * 7)
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
    greedy = GreedyController(sim_specs.cost)
    traj = rollout(greedy, Window.of(ds, sim_specs), sim_specs)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj)
    got_theta = np.array([float(r["theta"]) for r in rows])
    got_cost = np.array([float(r["energy_cost"]) for r in rows])
    assert np.array_equal(got_theta, traj.theta)      # repr round-trips
    assert np.array_equal(got_cost, traj.energy_cost)
