import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coolsched import mdp
from coolsched.mdp import (PERIOD_BUDGET, CostSpec, LpDescription, MdpProblem,
                           OccupancyMeasure, Policy, SolverError, StateSpace,
                           build_lp, check_occupancy, cost_tensor,
                           extract_policy, load_policy, policy_from_dict,
                           policy_to_dict, quantize, save_policy, solve,
                           solve_occupancy, successor_indices,
                           successor_temperatures)
from coolsched.thermal import ChillerSpec, cooling_energy, step_temperature

GRID = StateSpace(theta_min=15, theta_max=30, theta_step=0.5, m=1, a_max=4)


def immediate_cost(problem: MdpProblem, t: int, theta: float, p: int, a: int) -> float:
    """Cost of taking action a in state (theta, regime p) at time t: the
    scalar definition of cost_tensor."""
    energy = cooling_energy(problem.chiller, a, problem.t_out[t], problem.dt)
    succ = step_temperature(theta, problem.t_out[t], problem.q[t], a,
                            problem.chiller.eta, problem.gamma_env,
                            problem.c_heat, problem.dt)
    penalty = (problem.cost.lambda_over * max(0.0, succ - problem.cost.t_max)
               + problem.cost.lambda_under * max(0.0, problem.cost.t_min - succ))
    return energy * problem.prices[t, p - 1] / 1000.0 + penalty


def plan(problem: MdpProblem) -> tuple:
    """Solve and extract, as `coolsched plan` does: (occupancy, policy)."""
    occ = solve(problem)
    return occ, extract_policy(problem, occ)


def make_problem(n=4, space=None, cost=None, chiller=None, t_out=25.0,
                 q=1.5e6, prices=None, trans=None, gamma_env=1e4,
                 c_heat=5.5e9, hours=None):
    space = space or StateSpace(15, 30, 1.0, m=2, a_max=4)
    cost = cost or CostSpec(t_min=18, t_max=27, lambda_under=1000, lambda_over=1000)
    chiller = chiller or ChillerSpec()
    t_out = np.full(n, t_out) if np.ndim(t_out) == 0 else np.asarray(t_out)
    q = np.full(n, q) if np.ndim(q) == 0 else np.asarray(q)
    if prices is None:
        prices = np.tile(np.linspace(30, 120, space.m), (n, 1))
    if trans is None:
        trans = np.tile(np.full((space.m, space.m), 1.0 / space.m), (n, 1, 1))
    return MdpProblem(space=space, cost=cost, chiller=chiller, t_out=t_out,
                      q=q, prices=prices, trans=trans, gamma_env=gamma_env,
                      c_heat=c_heat, hours=hours)


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


def test_immediate_cost_idle_within_band_is_free():
    # fixed point at 24 degC: no energy, no violation
    prob = make_problem(t_out=25.0, q=-1e4)
    assert immediate_cost(prob, 0, 24.0, 1, 0) == 0.0


def test_immediate_cost_energy_term():
    # 2 chillers at COP 4 for 1 h is 625 kWh; at 40 $/MWh that is $25
    prices = np.tile(np.array([[40.0, 40.0]]), (4, 1))
    prob = make_problem(t_out=25.0, q=2.5e6, prices=prices)
    # theta_eq(a=2) = 25 + (2.5e6 - 2.5e6)/1e4 = 25: successor stays in band
    assert immediate_cost(prob, 0, 24.0, 1, 2) == pytest.approx(25.0, rel=1e-9)


def test_immediate_cost_violation_term():
    cost = CostSpec(t_min=18, t_max=27, lambda_under=100, lambda_over=100)
    # fixed point exactly at t_max + 2
    prob = make_problem(cost=cost, t_out=25.0, q=4e4)
    assert immediate_cost(prob, 0, 29.0, 1, 0) == pytest.approx(200.0, rel=1e-9)


def test_build_lp_shapes():
    # N=2, two theta levels, M=1, two actions: 8 vars, 2 + 4 constraints
    space = StateSpace(theta_min=15, theta_max=30, theta_step=15, m=1, a_max=1)
    prob = make_problem(n=2, space=space,
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
def _rvi_and_lp(prob):
    """Plan by value iteration and by the LP; assert equal gains and equal
    actions on every state both occupancies visit with more than 1e-9."""
    rvi = solve(prob)
    lp = solve_occupancy(build_lp(prob))
    assert rvi.solver == "rvi"
    assert rvi.objective == pytest.approx(lp.objective, rel=1e-6)
    both = (rvi.x.sum(axis=3) > 1e-9) & (lp.x.sum(axis=3) > 1e-9)
    assert both.any()
    assert np.array_equal(extract_policy(prob, rvi).actions[both],
                          extract_policy(prob, lp).actions[both])
    return rvi, lp


def test_lp_matches_dp_on_absorbing_instance():
    _rvi_and_lp(_absorbing_problem())


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
    succ = successor_indices(prob)[0]     # (L, A)
    costs = cost_tensor(prob)[0, :, 0, :]  # (L, A)
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


def test_lp_and_dp_match_policy_enumeration():
    prob = _teleport_problem()
    brute = _enumerate_policies_min_mean_cost(prob)
    rvi, lp = _rvi_and_lp(prob)
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


@pytest.fixture(scope="module")
def desk_instance():
    rng = np.random.default_rng(42)
    n = 24
    space = StateSpace(theta_min=18, theta_max=30, theta_step=1.0, m=4, a_max=4)
    cost = CostSpec(t_min=20, t_max=27, lambda_under=1000, lambda_over=1000)
    hod = np.arange(n)
    t_out = 26 + 5 * np.cos(2 * np.pi * (hod - 15) / 24)
    q = 1.5e6 + 2e5 * np.sin(2 * np.pi * hod / 24)
    base = np.where(hod < 6, 25, np.where(hod < 16, 45,
                    np.where(hod < 19, 120, 50))).astype(float)
    prices = base[:, None] * np.array([0.5, 0.9, 1.3, 2.5])[None, :]
    trans = rng.dirichlet(np.ones(4) * 3, size=(n, 4))
    prob = MdpProblem(space=space, cost=cost, chiller=ChillerSpec(),
                      t_out=t_out, q=q, prices=prices, trans=trans,
                      gamma_env=1e4, c_heat=5.5e9)
    occ, policy = plan(prob)
    return prob, occ, policy


def test_desk_instance_occupancy_valid(desk_instance):
    prob, occ, _ = desk_instance
    residuals = check_occupancy(prob, occ, tol=1e-6)
    assert residuals["normalization"] <= 1e-6
    assert residuals["flow"] <= 1e-6


def test_desk_instance_lp_matches_dp(desk_instance):
    prob, occ, policy = desk_instance
    rvi, _ = _rvi_and_lp(prob)
    assert occ.solver == "rvi"
    assert policy.objective == rvi.objective


def test_desk_instance_lp_and_dp_policies_agree(desk_instance):
    # the LP's policy takes value iteration's greedy action on every state
    # both visit, and the fallback rule on every state neither visits
    prob, occ, policy = desk_instance
    lp = solve_occupancy(build_lp(prob))
    lp_policy = extract_policy(prob, lp)
    rvi_mass, lp_mass = occ.x.sum(axis=3), lp.x.sum(axis=3)
    both = (rvi_mass > 1e-9) & (lp_mass > 1e-9)
    neither = (rvi_mass <= 1e-12) & (lp_mass <= 1e-12)
    assert both.any() and neither.any()
    assert np.array_equal(policy.actions[both], lp_policy.actions[both])
    assert np.array_equal(policy.actions[neither], lp_policy.actions[neither])


def test_extract_policy_deterministic_concentration():
    prob = _teleport_problem()
    occ, policy = plan(prob)
    idx25 = quantize(25.0, prob.space)
    assert policy.actions[0, idx25, 0] == 1


def test_extract_policy_uniform_split():
    # occupancy split evenly over two actions: the tie goes to the smaller one
    prob = _teleport_problem()
    x = np.zeros((1, prob.space.n_theta, 1, prob.space.n_actions))
    x[0, 2, 0, 1] = 0.5
    x[0, 2, 0, 2] = 0.5
    policy = extract_policy(prob, OccupancyMeasure(x=x, objective=0.0))
    assert policy.actions[0, 2, 0] == 1


def test_extract_policy_fallback_on_unvisited():
    # zero occupancy everywhere: fallback must still give one action per state
    prob = make_problem(n=2)
    x = np.zeros((2, prob.space.n_theta, prob.space.m, prob.space.n_actions))
    x[:, 5, 0, 0] = 1.0  # only one visited state
    policy = extract_policy(prob, OccupancyMeasure(x=x, objective=0.0))
    assert policy.actions.shape == (2, prob.space.n_theta, prob.space.m)
    # fallback mirrors the greedy rule: quantized successor at or below t_max
    succ = successor_indices(prob)
    grid = prob.space.theta_grid
    chosen = policy.actions
    for t in (0, 1):
        for i in range(prob.space.n_theta):
            for p in range(prob.space.m):
                if (t, i, p) == (0, 5, 0) or (t, i, p) == (1, 5, 0):
                    continue
                a = chosen[t, i, p]
                if grid[succ[t, i, a]] > prob.cost.t_max + 1e-9:
                    assert a == prob.space.a_max


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


def test_policy_rejects_probability_format(desk_instance):
    _, _, policy = desk_instance
    doc = policy_to_dict(policy)
    actions = np.asarray(doc.pop("actions"))
    doc["probabilities"] = np.eye(policy.space.n_actions)[actions].tolist()
    with pytest.raises(ValueError, match="re-run `coolsched plan`"):
        policy_from_dict(doc)


def test_lp_description_exposes_objective_scaling():
    prob = make_problem(n=4)
    lp = build_lp(prob)
    dense = cost_tensor(prob).ravel() / prob.n
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
def problems(draw):
    """Small cycles over the config's physical ranges."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    a_max = draw(st.integers(1, 4))
    step = draw(st.sampled_from([0.5, 1.0, 2.5]))
    space = StateSpace(10.0, 35.0, step, m=m, a_max=a_max)
    t_out = draw(arrays(float, n, elements=st.floats(0.0, 45.0, **finite)))
    q = draw(arrays(float, n, elements=st.floats(0.0, 5e6, **finite)))
    prices = draw(arrays(float, (n, m), elements=st.floats(-50.0, 500.0, **finite)))
    chiller = ChillerSpec(a_max=a_max, eta=draw(st.floats(1e5, 2e6)))
    return make_problem(n=n, space=space, chiller=chiller, t_out=t_out, q=q,
                        prices=prices, gamma_env=draw(st.floats(5e3, 1e5)),
                        c_heat=draw(st.floats(1e7, 1e10)))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_successor_temperatures_match_scalar_step(prob):
    # both take thermal.decay_factor, so the kernel is the scalar step exactly
    succ = successor_temperatures(prob)
    for t, i, a in np.ndindex(succ.shape):
        expected = step_temperature(prob.space.theta_grid[i], prob.t_out[t],
                                    prob.q[t], a, prob.chiller.eta,
                                    prob.gamma_env, prob.c_heat, prob.dt)
        assert succ[t, i, a] == expected


@settings(max_examples=60, deadline=None)
@given(problems())
def test_cost_tensor_matches_immediate_cost(prob):
    costs = cost_tensor(prob)
    grid = prob.space.theta_grid
    for t, i, p, a in np.ndindex(costs.shape):
        expected = immediate_cost(prob, t, grid[i], p + 1, a)
        assert costs[t, i, p, a] == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extract_policy_picks_max_occupancy(data):
    prob = make_problem(n=2)
    shape = (2, prob.space.n_theta, prob.space.m, prob.space.n_actions)
    x = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    policy = extract_policy(prob, OccupancyMeasure(x=x, objective=0.0))
    chosen = np.take_along_axis(x, policy.actions[..., None], axis=3)[..., 0]
    visited = x.sum(axis=3) > 0
    assert np.array_equal(chosen[visited], x.max(axis=3)[visited])


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


def test_multichain_instance_takes_lp_path():
    occ = solve(_multichain_problem())
    assert occ.solver == "lp"
    assert occ.periods == PERIOD_BUDGET
    assert occ.span > 1.0
    assert occ.objective == pytest.approx(7750.0, rel=1e-6)


def test_lp_fallback_failure_names_both_attempts(monkeypatch):
    def failing_lp(lp):
        raise SolverError("occupancy LP failed: status=4")
    monkeypatch.setattr(mdp, "solve_occupancy", failing_lp)
    with pytest.raises(SolverError,
                       match=rf"value iteration span .* after {PERIOD_BUDGET} "
                             r"periods, then occupancy LP failed"):
        solve(_multichain_problem())
