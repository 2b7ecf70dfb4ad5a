import dataclasses
import hashlib
import itertools
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coolsched import mdp
from coolsched.mdp import (PERIOD_BUDGET, CostSpec, LpDescription, MdpProblem,
                           Policy, SolverError, StateSpace, build_lp,
                           check_occupancy, extract_policy, load_policy,
                           quantize, save_policy, solve, solve_occupancy)
from coolsched.thermal import ChillerSpec, step_table, step_temperature

from conftest import W_PER_CORE, unit_room
from references import cooling_energy

GRID = StateSpace(theta_min=15, theta_max=30, theta_step=0.5, m=1, a_max=4)


class Plant(NamedTuple):
    """A test plant as loose scalars: the scalar reference's inputs."""

    chiller: ChillerSpec
    t_out: np.ndarray    # (n,) outdoor degC
    q: np.ndarray        # (n,) heat load W
    gamma_env: float
    c_heat: float

    def table(self):
        """Its thermal.step_table, on exactly these scalars."""
        return step_table(unit_room(self.gamma_env, self.c_heat), self.chiller,
                          W_PER_CORE, self.t_out, self.q)


def immediate_cost(problem: MdpProblem, plant: Plant, t: int, theta: float,
                   p: int, a: int) -> float:
    """Cost of taking action a in state (theta, regime p) at time t: the
    scalar definition of MdpProblem.costs."""
    energy = cooling_energy(plant.chiller, a, plant.t_out[t])
    succ = step_temperature(theta, plant.t_out[t], plant.q[t], a,
                            plant.chiller.eta, plant.gamma_env, plant.c_heat)
    penalty = (problem.cost.lambda_over * max(0.0, succ - problem.cost.t_max)
               + problem.cost.lambda_under * max(0.0, problem.cost.t_min - succ))
    return energy * problem.prices[t, p - 1] / 1000.0 + penalty


def plan(problem: MdpProblem) -> tuple:
    """Solve and extract, as `coolsched plan` does: (occupancy, policy)."""
    occ = solve(problem)
    return occ, extract_policy(problem, occ)


def make_case(n=4, space=None, cost=None, chiller=None, t_out=25.0,
              q=1.5e6, prices=None, trans=None, gamma_env=1e4,
              c_heat=5.5e9, hours=None):
    """(problem, plant): a cycle of n hours and the loose plant it plans on."""
    space = space or StateSpace(15, 30, 1.0, m=2, a_max=4)
    cost = cost or CostSpec(t_min=18, t_max=27, lambda_under=1000, lambda_over=1000)
    chiller = chiller or ChillerSpec()
    t_out = np.full(n, t_out) if np.ndim(t_out) == 0 else np.asarray(t_out)
    q = np.full(n, q) if np.ndim(q) == 0 else np.asarray(q)
    if prices is None:
        prices = np.tile(np.linspace(30, 120, space.m), (n, 1))
    if trans is None:
        trans = np.tile(np.full((space.m, space.m), 1.0 / space.m), (n, 1, 1))
    plant = Plant(chiller, t_out, q, gamma_env, c_heat)
    return MdpProblem(space=space, cost=cost, plant=plant.table(),
                      prices=prices, trans=trans, hours=hours), plant


def make_problem(**kwargs):
    return make_case(**kwargs)[0]


def test_quantize_on_grid_points():
    for i, level in enumerate(GRID.theta_grid):
        assert quantize(float(level), GRID) == i


def test_quantize_nearest_level():
    idx = quantize(22.26, GRID)
    assert GRID.theta_grid[idx] == pytest.approx(22.5)


def test_quantize_tie_rounds_up():
    idx = quantize(22.25, GRID)
    assert GRID.theta_grid[idx] == pytest.approx(22.5)


def test_quantize_clamps():
    assert quantize(GRID.theta_max + 5, GRID) == GRID.n_theta - 1
    assert quantize(GRID.theta_min - 5, GRID) == 0


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(20, 20, 0.5, m=2, a_max=4)
    with pytest.raises(ValueError):
        StateSpace(15, 30, -1, m=2, a_max=4)


def test_problem_requires_band_inside_grid():
    with pytest.raises(ValueError, match="grid"):
        make_problem(space=StateSpace(18, 27, 0.5, m=2, a_max=4))


def test_problem_rejects_plant_of_other_a_max():
    # a plan over 5 actions for 2 chillers, or over 3 actions for 4
    with pytest.raises(ValueError, match="a_max"):
        make_problem(space=StateSpace(15, 30, 1.0, m=2, a_max=4),
                     chiller=ChillerSpec(a_max=2))
    with pytest.raises(ValueError, match="a_max"):
        make_problem(space=StateSpace(15, 30, 1.0, m=2, a_max=2),
                     chiller=ChillerSpec(a_max=4))


def test_immediate_cost_idle_within_band_is_free():
    # fixed point at 24 degC: no energy, no violation
    prob, plant = make_case(t_out=24.0, q=0.0)
    assert immediate_cost(prob, plant, 0, 24.0, 1, 0) == 0.0


def test_immediate_cost_energy_term():
    # 2 chillers at COP 4 for 1 h is 625 kWh; at 40 $/MWh that is $25
    prices = np.tile(np.array([[40.0, 40.0]]), (4, 1))
    prob, plant = make_case(t_out=25.0, q=2.5e6, prices=prices)
    # theta_eq(a=2) = 25 + (2.5e6 - 2.5e6)/1e4 = 25: successor stays in band
    assert immediate_cost(prob, plant, 0, 24.0, 1, 2) == pytest.approx(
        25.0, rel=1e-9)


def test_immediate_cost_violation_term():
    cost = CostSpec(t_min=18, t_max=27, lambda_under=100, lambda_over=100)
    # fixed point exactly at t_max + 2
    prob, plant = make_case(cost=cost, t_out=25.0, q=4e4)
    assert immediate_cost(prob, plant, 0, 29.0, 1, 0) == pytest.approx(
        200.0, rel=1e-9)


def test_build_lp_shapes():
    # N=2, two theta levels, M=1, two actions: 8 vars, 2 + 4 constraints
    space = StateSpace(theta_min=15, theta_max=30, theta_step=15, m=1, a_max=1)
    prob = make_problem(n=2, space=space, chiller=ChillerSpec(a_max=1),
                        prices=np.zeros((2, 1)), trans=np.ones((2, 1, 1)))
    lp = build_lp(prob)
    assert lp.n_variables == 2 * 2 * 1 * 2 == 8
    assert lp.n_constraints == 2 + 4
    assert lp.dims == (2, 2, 1, 2)


def test_zero_costs_solve_to_zero_objective():
    cost = CostSpec(t_min=18, t_max=27, lambda_under=0, lambda_over=0)
    prob = make_problem(n=3, cost=cost, prices=np.zeros((3, 2)))
    occ = solve_occupancy(build_lp(prob))
    assert abs(occ.objective) <= 1e-9
    check_occupancy(prob, occ)


def _absorbing_problem(price=0.0, lam=1000.0):
    """Fast dynamics pin every state onto the 28 degC level within one step."""
    space = StateSpace(15, 30, 0.5, m=1, a_max=1)
    cost = CostSpec(t_min=18, t_max=27, lambda_under=lam, lambda_over=lam)
    chiller = ChillerSpec(a_max=1, eta=1e-6)
    return make_problem(n=2, space=space, cost=cost, chiller=chiller,
                        t_out=25.0, q=3e4,
                        prices=np.full((2, 1), price),
                        trans=np.ones((2, 1, 1)),
                        gamma_env=1e4, c_heat=3.6e6)


def test_absorbing_state_objective_is_forced_cost():
    # every state drains to 28 degC, one degree over t_max: cost 1000/step
    prob = _absorbing_problem()
    occ = solve_occupancy(build_lp(prob))
    assert occ.objective == pytest.approx(1000.0, rel=1e-6)
    check_occupancy(prob, occ)
    idx28 = quantize(28.0, prob.space)
    for t in range(prob.n):
        assert occ.x[t, idx28].sum() == pytest.approx(1.0, abs=1e-8)


# "dp" in the test names below is the dynamic-programming planner, relative
# value iteration on the period map.
def _rvi_and_lp(prob, monkeypatch):
    """Plan by value iteration and, with no period budget, by the LP; assert
    equal gains and the same action table in every state."""
    rvi = solve(prob)
    with monkeypatch.context() as patch:
        patch.setattr(mdp, "PERIOD_BUDGET", 0)
        lp = solve(prob)
    assert (rvi.solver, lp.solver) == ("rvi", "lp")
    assert rvi.objective == pytest.approx(lp.objective, rel=1e-6)
    assert rvi.actions.shape == (prob.n, prob.space.n_theta, prob.space.m)
    assert np.array_equal(rvi.actions, lp.actions)
    return rvi, lp


def test_lp_matches_dp_on_absorbing_instance(monkeypatch):
    _rvi_and_lp(_absorbing_problem(), monkeypatch)


def _teleport_problem():
    """Four levels, four actions; action a parks the room at 30 - 5a degC."""
    space = StateSpace(15, 30, 5.0, m=1, a_max=3)
    cost = CostSpec(t_min=18, t_max=27, lambda_under=30, lambda_over=30)
    chiller = ChillerSpec(a_max=3, eta=5e4, cop_lo=4.0, cop_hi=2.0)
    return make_problem(n=1, space=space, cost=cost, chiller=chiller,
                        t_out=20.0, q=1e5,
                        prices=np.full((1, 1), 60.0),
                        trans=np.ones((1, 1, 1)),
                        gamma_env=1e4, c_heat=3.6e6)


def _enumerate_policies_min_mean_cost(prob):
    """Brute-force oracle: try every stationary deterministic policy, follow
    its deterministic orbit to a cycle, return the cheapest mean cycle cost."""
    space = prob.space
    succ = prob.successors[0]        # (L, A)
    costs = prob.costs[0, :, 0, :]   # (L, A)
    best = np.inf
    n_levels, n_actions = succ.shape
    for actions in itertools.product(range(n_actions), repeat=n_levels):
        for start in range(n_levels):
            seen = {}
            state, step_costs = start, []
            while state not in seen:
                seen[state] = len(step_costs)
                step_costs.append(costs[state, actions[state]])
                state = succ[state, actions[state]]
            cycle = step_costs[seen[state]:]
            best = min(best, float(np.mean(cycle)))
    return best


def test_lp_and_dp_match_policy_enumeration(monkeypatch):
    prob = _teleport_problem()
    brute = _enumerate_policies_min_mean_cost(prob)
    rvi, lp = _rvi_and_lp(prob, monkeypatch)
    assert lp.objective == pytest.approx(brute, rel=1e-6)
    check_occupancy(prob, lp)
    check_occupancy(prob, rvi)


def test_occupancy_concentrates_on_cheap_cycle():
    prob = _teleport_problem()
    occ = solve_occupancy(build_lp(prob))
    # the cheap cycle is parking at 25xdegC with a=1 (idling violates, deeper
    # cooling costs more energy)
    idx25 = quantize(25.0, prob.space)
    assert occ.x[0, idx25, 0, 1] == pytest.approx(1.0, abs=1e-7)


def _day_problem(n, space, seed):
    """A day-shaped cycle of n hours: cosine outdoor air, sine heat load,
    four regimes over a time-of-use base price, a random regime chain."""
    rng = np.random.default_rng(seed)
    cost = CostSpec(t_min=20, t_max=27, lambda_under=1000, lambda_over=1000)
    hod = np.arange(n) % 24
    t_out = 26 + 5 * np.cos(2 * np.pi * (hod - 15) / 24)
    q = 1.5e6 + 2e5 * np.sin(2 * np.pi * hod / 24)
    base = np.where(hod < 6, 25, np.where(hod < 16, 45,
                    np.where(hod < 19, 120, 50))).astype(float)
    prices = base[:, None] * np.array([0.5, 0.9, 1.3, 2.5])[None, :]
    trans = rng.dirichlet(np.ones(4) * 3, size=(n, 4))
    plant = Plant(ChillerSpec(), t_out, q, gamma_env=1e4, c_heat=5.5e9)
    return MdpProblem(space=space, cost=cost, plant=plant.table(),
                      prices=prices, trans=trans)


def _desk_problem():
    return _day_problem(24, StateSpace(18, 30, 1.0, m=4, a_max=4), seed=42)


def _paper_sized_problem():
    """The benchmark's planner size: L=35, M=4, A=5 over a 48-hour cycle."""
    return _day_problem(48, StateSpace(15, 32, 0.5, m=4, a_max=4), seed=7)


@pytest.fixture(scope="module")
def desk_instance():
    prob = _desk_problem()
    occ, policy = plan(prob)
    return prob, occ, policy


def test_desk_instance_occupancy_valid(desk_instance):
    prob, occ, _ = desk_instance
    residuals = check_occupancy(prob, occ, tol=1e-6)
    assert residuals["normalization"] <= 1e-6
    assert residuals["flow"] <= 1e-6


def test_desk_instance_lp_matches_dp(desk_instance, monkeypatch):
    prob, occ, policy = desk_instance
    rvi, _ = _rvi_and_lp(prob, monkeypatch)
    assert occ.solver == "rvi"
    assert policy.objective == rvi.objective


def test_desk_instance_lp_and_dp_policies_agree(desk_instance, monkeypatch):
    # the LP's duals give value iteration's table in every state, visited by
    # either occupancy or not
    prob, occ, policy = desk_instance
    monkeypatch.setattr(mdp, "PERIOD_BUDGET", 0)
    lp = solve(prob)
    lp_policy = extract_policy(prob, lp)
    rvi_mass, lp_mass = occ.x.sum(axis=3), lp.x.sum(axis=3)
    neither = (rvi_mass <= 1e-12) & (lp_mass <= 1e-12)
    assert lp.solver == "lp" and neither.any()
    assert np.array_equal(policy.actions, lp_policy.actions)


# Action tables of two planned instances, as the sha256 of their int64 bytes,
# with their objectives. A change to how the planner does its arithmetic must
# leave every table byte alone; the objective may move in its last digits.
PLANNED = [
    (_desk_problem,
     "b3ee9e68038c3e7998b16bfe56bd1334045c6a626a76669f00d44ae70d851640",
     9.193717291136926),
    (_paper_sized_problem,
     "e7fd949ca900afc611691cb68bbc339aa760fc770a84938ea56d1cdb52a783c2",
     10.42588226080662),
]


@pytest.mark.parametrize("build, sha256, objective", PLANNED,
                         ids=["desk", "paper-sized"])
def test_planned_tables_are_pinned(build, sha256, objective):
    occ, policy = plan(build())
    assert occ.solver == "rvi"
    table = policy.actions.astype(np.int64).tobytes()
    assert hashlib.sha256(table).hexdigest() == sha256
    assert policy.objective == pytest.approx(objective, rel=1e-12)


def _moved_mass(occ, t):
    """occ with half the mass of slot t's heaviest state moved one bin over,
    each slot's total unchanged: (broken occupancy, mass moved)."""
    x = occ.x.copy()
    i, p, a = np.unravel_index(np.argmax(x[t]), x[t].shape)
    half = x[t, i, p, a] / 2
    x[t, i, p, a] -= half
    x[t, i - 1 if i else i + 1, p, a] += half
    return dataclasses.replace(occ, x=x), half


@pytest.mark.parametrize("slot", [0, 11, 23])
def test_check_occupancy_catches_moved_mass(desk_instance, slot):
    # slot 0 is fed by the wrap row n-1 -> 0, and slot 23 = n-1 feeds it
    prob, occ, _ = desk_instance
    broken, moved = _moved_mass(occ, slot)
    residuals = check_occupancy(prob, broken, tol=np.inf)
    assert residuals["normalization"] <= 1e-12
    assert residuals["flow"] >= moved * (1 - 1e-9)
    with pytest.raises(SolverError, match=f"flow {residuals['flow']:.3e}"):
        check_occupancy(prob, broken)


def test_check_occupancy_catches_moved_mass_on_the_wrap_row():
    # a one-hour cycle has only the wrap row; every state parks at 25 degC
    prob = _teleport_problem()
    broken, moved = _moved_mass(solve_occupancy(build_lp(prob)), 0)
    assert moved == pytest.approx(0.5)
    with pytest.raises(SolverError, match=r"flow 5\.000e-01"):
        check_occupancy(prob, broken)


def test_check_occupancy_catches_a_scaled_slot(desk_instance):
    prob, occ, _ = desk_instance
    x = occ.x.copy()
    x[5] *= 1.01
    with pytest.raises(SolverError, match=r"normalization 1\.000e-02"):
        check_occupancy(prob, dataclasses.replace(occ, x=x))


def test_extract_policy_deterministic_concentration():
    prob = _teleport_problem()
    occ, policy = plan(prob)
    idx25 = quantize(25.0, prob.space)
    assert policy.actions[0, idx25, 0] == 1


def test_policy_serialization_round_trip(desk_instance, tmp_path):
    _, _, policy = desk_instance
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    assert json.loads(path.read_text())["actions"][0][0] == \
        policy.actions[0, 0].tolist()
    back = load_policy(path)
    assert back.space == policy.space
    assert np.array_equal(back.actions, policy.actions)
    assert back.objective == pytest.approx(policy.objective)


def test_policy_rejects_probability_format(desk_instance, tmp_path):
    _, _, policy = desk_instance
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    doc = json.loads(path.read_text())
    actions = np.asarray(doc.pop("actions"))
    doc["probabilities"] = np.eye(policy.space.n_actions)[actions].tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="re-run `coolsched plan`"):
        load_policy(path)


def test_lp_description_exposes_objective_scaling():
    prob = make_problem(n=4)
    lp = build_lp(prob)
    dense = prob.costs.ravel() / prob.n
    assert isinstance(lp, LpDescription)
    assert np.allclose(lp.c, dense)


def test_policy_validates_action_table():
    space = StateSpace(15, 30, 5.0, m=1, a_max=1)
    Policy(actions=np.ones((2, 4, 1), dtype=np.int64), space=space)
    for bad, match in ((np.full((2, 4, 1), 2), "0..1"),
                       (np.full((2, 4, 1), -1), "0..1"),
                       (np.zeros((2, 4, 2), dtype=np.int64), "shape"),
                       (np.zeros((2, 4, 1, 2), dtype=np.int64), "shape"),
                       (np.full((2, 4, 1), 0.5), "integers")):
        with pytest.raises(ValueError, match=match):
            Policy(actions=bad, space=space)


# Property tests: vectorised kernels against their scalar definitions.

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw):
    """Small cycles over the config's physical ranges, with their plants."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    a_max = draw(st.integers(1, 4))
    step = draw(st.sampled_from([0.5, 1.0, 2.5]))
    space = StateSpace(10.0, 35.0, step, m=m, a_max=a_max)
    t_out = draw(arrays(float, n, elements=st.floats(0.0, 45.0, **finite)))
    q = draw(arrays(float, n, elements=st.floats(0.0, 5e6, **finite)))
    prices = draw(arrays(float, (n, m), elements=st.floats(-50.0, 500.0, **finite)))
    chiller = ChillerSpec(a_max=a_max, eta=draw(st.floats(1e5, 2e6)))
    return make_case(n=n, space=space, chiller=chiller, t_out=t_out, q=q,
                     prices=prices, gamma_env=draw(st.floats(5e3, 1e5)),
                     c_heat=draw(st.floats(1e7, 1e10)))


def problems():
    return cases().map(lambda case: case[0])


@settings(max_examples=60, deadline=None)
@given(cases())
def test_successor_temperatures_match_scalar_step(case):
    # both take thermal.decay_factor, so the kernel is the scalar step exactly
    prob, plant = case
    succ = prob.temperatures
    for t, i, a in np.ndindex(succ.shape):
        expected = step_temperature(prob.space.theta_grid[i], plant.t_out[t],
                                    plant.q[t], a, plant.chiller.eta,
                                    plant.gamma_env, plant.c_heat)
        assert succ[t, i, a] == expected


@settings(max_examples=60, deadline=None)
@given(cases())
def test_cost_tensor_matches_immediate_cost(case):
    prob, plant = case
    costs = prob.costs
    grid = prob.space.theta_grid
    for t, i, p, a in np.ndindex(costs.shape):
        expected = immediate_cost(prob, plant, t, grid[i], p + 1, a)
        assert costs[t, i, p, a] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _multichain_problem():
    """Found by hypothesis: 10 degC is absorbing with gain 8238 and the rest
    of the grid reaches gain 7750, so the period map is multichain."""
    return make_problem(n=1, space=StateSpace(10.0, 35.0, 0.5, m=1, a_max=1),
                        chiller=ChillerSpec(a_max=1, eta=1e5),
                        t_out=np.zeros(1), q=np.zeros(1), prices=np.zeros((1, 1)),
                        gamma_env=5000.0, c_heat=746963855.0)


@settings(max_examples=60, deadline=None)
@given(problems())
@example(_multichain_problem())
def test_plan_matches_lp(prob):
    occ, policy = plan(prob)
    lp = solve_occupancy(build_lp(prob))
    assert occ.objective == pytest.approx(lp.objective, rel=1e-6, abs=1e-9)
    assert policy.objective == occ.objective
    check_occupancy(prob, occ)


def _greedy_q(prob, values):
    """Q[t, i, p, a] of the backward sweep from slot 0's values, written out
    from the cost and successor definitions."""
    costs, succ = prob.costs, prob.successors
    q = np.empty(costs.shape)
    v_next = values
    for t in range(prob.n - 1, -1, -1):
        for i, p, a in np.ndindex(costs.shape[1:]):
            q[t, i, p, a] = costs[t, i, p, a] + sum(
                prob.trans[t, p, p_to] * v_next[succ[t, i, a], p_to]
                for p_to in range(prob.space.m))
        v_next = q[t].min(axis=2)
    return q


@settings(max_examples=60, deadline=None)
@given(problems())
@example(_multichain_problem())
def test_planned_action_attains_min_q(prob):
    # in every state, visited or not, on either solver path
    occ, policy = plan(prob)
    q = _greedy_q(prob, occ.values)
    chosen = np.take_along_axis(q, policy.actions[..., None], axis=3)[..., 0]
    best = q.min(axis=3)
    assert np.all(chosen - best <= 1e-9 * np.maximum(1.0, np.abs(best)))


def test_multichain_instance_takes_lp_path():
    prob = _multichain_problem()
    occ, policy = plan(prob)
    assert occ.solver == "lp"
    assert occ.periods == PERIOD_BUDGET
    assert occ.span > 1.0
    assert occ.objective == pytest.approx(7750.0, rel=1e-6)
    # a complete integer table: Policy rejects any other
    assert policy.actions.shape == (1, prob.space.n_theta, 1)


def test_lp_fallback_failure_names_both_attempts(monkeypatch):
    def failing_lp(lp):
        raise SolverError("occupancy LP failed: status=4")
    monkeypatch.setattr(mdp, "solve_occupancy", failing_lp)
    with pytest.raises(SolverError,
                       match=rf"value iteration span .* after {PERIOD_BUDGET} "
                             r"periods, then occupancy LP failed"):
        solve(_multichain_problem())


# The planner's two successor operators against reference forms: the backup
# as a gather of successor rows then a regime contraction, the forward step as
# one np.add.at per action, the period map as a product of dense per-slot
# kernels.

def _gather_backup(costs, succ_idx, trans, v_next, t):
    """Q[i, p, a] at slot t from the gathered successor values."""
    gathered = v_next[succ_idx[t]]                      # (L, A, M)
    return costs[t] + np.einsum("pq,iaq->ipa", trans[t], gathered)


def _scatter_inflow(mass_t, succ_t, trans_t):
    """(L, M) inflow of slot t+1: the mass leaving (i, p, a) lands at theta
    index succ_t[i, a], spread over p' by the regime chain."""
    L, m, A = mass_t.shape
    inflow = np.zeros((L, m))
    mass = np.einsum("ipa,pq->ipaq", mass_t, trans_t)  # (L, m, A, m)
    for a in range(A):
        np.add.at(inflow, succ_t[:, a], mass[:, :, a, :].sum(axis=1))
    return inflow


def _kernel_period_map(succ_idx, trans, actions):
    """(k, k) period map of the table, k = L*M, from dense per-slot kernels:
    slot t's has trans[t, p, p'] at row (i, p), column (successor, p')."""
    n, L, m = actions.shape
    k = L * m
    rows = np.repeat(np.arange(k), m)
    cols = (np.take_along_axis(succ_idx, actions, axis=2)[..., None] * m
            + np.arange(m)).reshape(n, -1)
    period_t = np.eye(k)                                # transposed period map
    for t in range(n):
        kernel = np.zeros((k, k))
        kernel[rows, cols[t]] = np.tile(trans[t], (L, 1)).ravel()
        period_t = kernel.T @ period_t
    return period_t.T


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(problems(), seeds)
def test_backup_matches_gather_reference(prob, seed):
    rng = np.random.default_rng(seed)
    costs, succ = prob.costs, prob.successors
    v_next = (rng.normal(size=(prob.space.n_theta, prob.space.m))
              * 10.0 ** rng.uniform(-3, 6))
    for t in range(prob.n):
        assert np.array_equal(
            mdp.bellman_backup(costs, succ, prob.trans, v_next, t),
            _gather_backup(costs, succ, prob.trans, v_next, t))


@settings(max_examples=60, deadline=None)
@given(problems(), seeds)
def test_propagate_matches_scatter_reference(prob, seed):
    rng = np.random.default_rng(seed)
    succ = prob.successors
    bins = prob.bins
    shape = (prob.space.n_theta, prob.space.m, prob.space.n_actions)
    for t in range(prob.n):
        mass = rng.random(shape) * (rng.random(shape) < 0.5)
        assert np.array_equal(mdp.propagate(mass, bins[t], prob.trans[t]),
                              _scatter_inflow(mass, succ[t], prob.trans[t]))


def _slot_residuals(prob, x):
    """check_occupancy's residuals from one per-slot propagate call each."""
    bins = prob.bins
    flow = max(float(np.abs(x[(t + 1) % prob.n].sum(axis=2) - mdp.propagate(
        x[t], bins[t], prob.trans[t])).max()) for t in range(prob.n))
    return {"normalization": float(np.max(np.abs(x.sum(axis=(1, 2, 3)) - 1.0))),
            "flow": flow}


@settings(max_examples=60, deadline=None)
@given(problems(), seeds)
def test_cycle_check_matches_slot_by_slot(prob, seed):
    # the whole-cycle forward step gives each slot's law, and so the
    # residuals, bit for bit
    rng = np.random.default_rng(seed)
    occ = solve(prob)
    broken, _ = _moved_mass(occ, int(rng.integers(prob.n)))
    shape = occ.x.shape
    noise = dataclasses.replace(
        occ, x=rng.random(shape) * (rng.random(shape) < 0.5))
    for case in (occ, broken, noise):
        assert (check_occupancy(prob, case, tol=np.inf)
                == _slot_residuals(prob, case.x))
        cycle = mdp.propagate(case.x, prob.bins, prob.trans)
        for t in range(prob.n):
            assert np.array_equal(cycle[t], mdp.propagate(
                case.x[t], prob.bins[t], prob.trans[t]))


@settings(max_examples=60, deadline=None)
@given(problems(), seeds)
def test_period_map_matches_kernel_product(prob, seed):
    rng = np.random.default_rng(seed)
    succ = prob.successors
    actions = rng.integers(0, prob.space.n_actions,
                           size=(prob.n, prob.space.n_theta, prob.space.m))
    period = mdp._period_map(succ, prob.trans, actions)
    reference = _kernel_period_map(succ, prob.trans, actions)
    assert np.max(np.abs(period - reference)) <= 1e-12
    assert np.max(np.abs(period.sum(axis=1) - 1.0)) <= 1e-12
