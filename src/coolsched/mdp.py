"""Cyclic MDP over (temperature, price regime) states and its average-cost planner.

The cycle has n hourly slots and wraps from t = n-1 back to t = 0. The
temperature component of the transition kernel is deterministic (grid-quantized
thermal step) and the regime component is the estimated Markov chain, so the
time component of the augmented chain is deterministic and cyclic.

The planner runs relative value iteration on the period map, the n-step chain
from slot 0 back to slot 0 (Puterman 1994, Markov Decision Processes, sections
8.5 and 9.5): one backward sweep of Bellman backups over t = n-1..0 per
period. It returns the occupancy measure of the greedy policy: the stationary
law of the policy's period map, carried through the n slots. When the span
of the period map's value change does not settle within PERIOD_BUDGET
periods (a multichain or periodic period map), the planner solves the
occupancy linear program instead: variables x[t, s, a] with per-time
normalization and cyclic flow-balance rows. The LP is also the reference the
tests compare the planner against.

Without side constraints an optimal occupancy comes from a deterministic
policy, so a planned policy is one chiller count per (cycle slot, theta bin,
regime).
"""

import json
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that use it, so that the stages
# which neither fit nor plan (simulate, compare, export) never load it.
from .thermal import (ChillerSpec, cooling_energy_table, decay_factor,
                      equilibrium_temperatures)

DT_SECONDS = 3600.0
RVI_TOL = 1e-9
# Periods of relative value iteration before the planner falls back to the
# LP. Planning instances settle in a few periods and short random cycles in
# at most about a hundred; a multichain or periodic period map never settles,
# so the budget bounds the sweeps spent before the LP takes over.
PERIOD_BUDGET = 200


class SolverError(RuntimeError):
    """The occupancy LP failed (after value iteration, if it ran first)."""


@dataclass(frozen=True)
class StateSpace:
    """Uniform temperature grid crossed with M regimes and A_max+1 actions."""

    theta_min: float
    theta_max: float
    theta_step: float
    m: int
    a_max: int

    def __post_init__(self):
        if self.theta_step <= 0 or self.theta_max <= self.theta_min:
            raise ValueError("need theta_min < theta_max and theta_step > 0")
        if self.m < 1 or self.a_max < 1:
            raise ValueError("need m >= 1 and a_max >= 1")

    @property
    def theta_grid(self) -> np.ndarray:
        n_levels = int(round((self.theta_max - self.theta_min) / self.theta_step)) + 1
        return self.theta_min + self.theta_step * np.arange(n_levels)

    @property
    def n_theta(self) -> int:
        return len(self.theta_grid)

    @property
    def n_actions(self) -> int:
        return self.a_max + 1


def quantize(theta, space: StateSpace):
    """Nearest grid index; ties round up; values outside the grid clamp."""
    idx = np.floor((np.asarray(theta, dtype=float) - space.theta_min)
                   / space.theta_step + 0.5)
    idx = np.clip(idx, 0, space.n_theta - 1)
    return int(idx) if np.ndim(theta) == 0 else idx.astype(np.int64)


@dataclass(frozen=True)
class CostSpec:
    """Safety band and per-degree violation penalties."""

    t_min: float = 18.0
    t_max: float = 27.0
    lambda_under: float = 1000.0
    lambda_over: float = 1000.0

    def __post_init__(self):
        if self.t_min >= self.t_max:
            raise ValueError("need t_min < t_max")
        if self.lambda_under < 0 or self.lambda_over < 0:
            raise ValueError("penalties must be >= 0")


@dataclass
class MdpProblem:
    """One planning cycle: exogenous data plus thermal and cost parameters.

    All per-time arrays have length n (the cycle length); time wraps from
    t = n-1 back to t = 0.
    """

    space: StateSpace
    cost: CostSpec
    chiller: ChillerSpec
    t_out: np.ndarray    # (n,) outdoor degC
    q: np.ndarray        # (n,) heat load W
    prices: np.ndarray   # (n, M) representative $/MWh per regime
    trans: np.ndarray    # (n, M, M) row-stochastic regime transitions
    gamma_env: float
    c_heat: float
    dt: float = DT_SECONDS
    hours: np.ndarray = None  # optional absolute hour indices, length n

    def __post_init__(self):
        self.t_out = np.asarray(self.t_out, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        n, m = len(self.t_out), self.space.m
        if self.q.shape != (n,) or self.prices.shape != (n, m) \
                or self.trans.shape != (n, m, m):
            raise ValueError("exogenous cycles have inconsistent dimensions")
        if np.any(np.abs(self.trans.sum(axis=2) - 1.0) > 1e-9) or np.any(self.trans < 0):
            raise ValueError("transition matrices must be row-stochastic")
        grid = self.space.theta_grid
        if not (grid[0] < self.cost.t_min and self.cost.t_max < grid[-1]):
            raise ValueError("theta grid must contain [t_min, t_max] strictly inside")
        if self.gamma_env <= 0 or self.c_heat <= 0 or self.dt <= 0:
            raise ValueError("gamma_env, c_heat, dt must be > 0")
        if self.hours is not None:
            self.hours = np.asarray(self.hours, dtype=np.int64)
            if self.hours.shape != (n,):
                raise ValueError("hours must have length n")

    @property
    def n(self) -> int:
        return len(self.t_out)


def successor_temperatures(problem: MdpProblem) -> np.ndarray:
    """Continuous next temperatures, shape (n, n_theta, n_actions)."""
    grid = problem.space.theta_grid
    theta_eq = equilibrium_temperatures(problem.t_out, problem.q,
                                        problem.chiller.eta,
                                        problem.space.a_max,
                                        problem.gamma_env)  # (n, A)
    decay = decay_factor(problem.gamma_env, problem.c_heat, problem.dt)
    return (theta_eq[:, None, :]
            + (grid[None, :, None] - theta_eq[:, None, :]) * decay)


def successor_indices(problem: MdpProblem) -> np.ndarray:
    """Quantized successor grid indices, shape (n, n_theta, n_actions)."""
    return quantize(successor_temperatures(problem), problem.space)


def cost_tensor(problem: MdpProblem) -> np.ndarray:
    """Immediate costs c[t, theta_idx, p, a] of the planning cycle.

    Energy is priced at the regime's representative $/MWh; temperature
    violations are charged on the continuous successor, before quantization.
    """
    energy = cooling_energy_table(problem.chiller, problem.t_out,
                                  problem.space.a_max, problem.dt)  # (n, A)
    succ = successor_temperatures(problem)                       # (n, L, A)
    over = np.maximum(0.0, succ - problem.cost.t_max)
    under = np.maximum(0.0, problem.cost.t_min - succ)
    penalty = problem.cost.lambda_over * over + problem.cost.lambda_under * under
    energy_cost = energy[:, None, :] * problem.prices[:, :, None] / 1000.0  # (n, M, A)
    return energy_cost[:, None, :, :] + penalty[:, :, None, :]


@dataclass
class LpDescription:
    """Sparse equality-form LP over flattened occupancy variables."""

    c: np.ndarray
    a_eq: object  # scipy.sparse.csr_matrix
    b_eq: np.ndarray
    dims: tuple  # (n, n_theta, m, n_actions)

    @property
    def n_variables(self) -> int:
        return len(self.c)

    @property
    def n_constraints(self) -> int:
        return self.a_eq.shape[0]


def build_lp(problem: MdpProblem) -> LpDescription:
    """Assemble the occupancy-measure LP for the cyclic planning problem.

    Variables x[t, i, p, a] >= 0; objective (1/n) * sum(c * x); one
    normalization row per t and one flow-balance row per (t, state), with
    the final time step feeding back into the first.
    """
    import scipy.sparse as sp

    n = problem.n
    L, m, A = problem.space.n_theta, problem.space.m, problem.space.n_actions
    nvar = n * L * m * A
    costs = cost_tensor(problem)
    succ_idx = successor_indices(problem)

    flat = np.arange(nvar, dtype=np.int64)
    a_idx = flat % A
    rest = flat // A
    p_idx = rest % m
    rest = rest // m
    i_idx = rest % L
    t_idx = rest // L

    norm_rows = t_idx
    inflow_rows = n + (t_idx * L + i_idx) * m + p_idx
    t_next = (t_idx + 1) % n
    j_next = succ_idx[t_idx, i_idx, a_idx]

    rows = [norm_rows, inflow_rows]
    cols = [flat, flat]
    vals = [np.ones(nvar), np.ones(nvar)]
    for p_to in range(m):
        rows.append(n + (t_next * L + j_next) * m + p_to)
        cols.append(flat)
        vals.append(-problem.trans[t_idx, p_idx, p_to])

    a_eq = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows).astype(np.int64), np.concatenate(cols))),
        shape=(n + n * L * m, nvar),
    ).tocsr()
    a_eq.sum_duplicates()
    b_eq = np.zeros(n + n * L * m)
    b_eq[:n] = 1.0
    return LpDescription(c=costs.ravel() / n, a_eq=a_eq, b_eq=b_eq,
                         dims=(n, L, m, A))


@dataclass
class OccupancyMeasure:
    """Solved occupancy x[t, theta_idx, p, a] and its objective ($/step).

    `solver` names the method that produced it ("rvi" or "lp"); `periods`
    and `span` describe the value iteration run before it, if any.
    """

    x: np.ndarray
    objective: float
    solver: str = "lp"
    periods: int = 0
    span: float = None


def solve_occupancy(lp: LpDescription) -> OccupancyMeasure:
    """Solve the occupancy LP with HiGHS at 1e-9 feasibility tolerances."""
    from scipy.optimize import linprog

    res = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    if not res.success:
        raise SolverError(
            f"occupancy LP failed: status={res.status} message={res.message!r} "
            f"iterations={getattr(res, 'nit', 'n/a')}"
        )
    x = np.maximum(res.x, 0.0).reshape(lp.dims)
    return OccupancyMeasure(x=x, objective=float(res.fun))


def check_occupancy(problem: MdpProblem, occ: OccupancyMeasure,
                    tol: float = 1e-6) -> dict:
    """Max normalization and cyclic flow-balance residuals; raises above tol."""
    x = occ.x
    n, L, m, A = x.shape
    norm_err = float(np.max(np.abs(x.sum(axis=(1, 2, 3)) - 1.0)))

    succ_idx = successor_indices(problem)
    flow_err = 0.0
    for t in range(n):
        t1 = (t + 1) % n
        inflow = np.zeros((L, m))
        # mass leaving (i, p, a) lands at theta index succ_idx[t, i, a],
        # spread over p' by the regime chain
        mass = np.einsum("ipa,pq->ipaq", x[t], problem.trans[t])  # (L, m, A, m)
        for a in range(A):
            np.add.at(inflow, succ_idx[t, :, a], mass[:, :, a, :].sum(axis=1))
        resid = np.abs(x[t1].sum(axis=2) - inflow)
        flow_err = max(flow_err, float(resid.max()))
    if norm_err > tol or flow_err > tol:
        raise SolverError(
            f"occupancy violates constraints: normalization {norm_err:.3e}, "
            f"flow {flow_err:.3e} (tolerance {tol:.1e})"
        )
    return {"normalization": norm_err, "flow": flow_err}


def bellman_backup(costs, succ_idx, trans, v_next, t) -> np.ndarray:
    """Q[i, p, a] at slot t: cost plus the expected value v_next of the successor.

    costs is cost_tensor's (n, L, M, A), succ_idx successor_indices' (n, L, A),
    trans the (n, M, M) regime chain and v_next the (L, M) values of slot t+1.
    """
    gathered = v_next[succ_idx[t]]                      # (L, A, M)
    return costs[t] + np.einsum("pq,iaq->ipa", trans[t], gathered)


def _period_rvi(costs, succ_idx, trans):
    """Relative value iteration on the period map.

    Each period sweeps t = n-1..0 from the relative values h of slot 0 and
    stops once the span of v_0 - h is at most RVI_TOL * max(1, |gain|), where
    gain is the per-step midpoint of v_0 - h. Returns (values, periods, span):
    values[t] holds slot t's values of the last sweep and values[n] is the h
    it started from; values is None if the budget ran out first.
    """
    n = len(trans)
    h = np.zeros(costs.shape[1:3])
    for period in range(1, PERIOD_BUDGET + 1):
        values = [h]
        for t in range(n - 1, -1, -1):
            values.append(
                bellman_backup(costs, succ_idx, trans, values[-1], t).min(axis=2))
        values.reverse()
        delta = values[0] - h
        span = float(delta.max() - delta.min())
        gain = float(delta.max() + delta.min()) / (2 * n)
        if span <= RVI_TOL * max(1.0, abs(gain)):
            return values, period, span
        h = values[0] - values[0].flat[0]
    return None, PERIOD_BUDGET, span


def _policy_occupancy(succ_idx, trans, actions) -> np.ndarray:
    """Occupancy x[t, i, p, a] of the action table actions[t, i, p].

    Slot 0 carries the stationary law of the policy's period map, found by
    one dense least-squares solve over the L*M states; each later slot
    carries the law propagated from the one before.
    """
    import scipy.sparse as sp

    n, L, m = actions.shape
    k = L * m
    kernels = []                                        # (k, k) per slot
    for t in range(n):
        nxt = np.take_along_axis(succ_idx[t], actions[t], axis=1)  # (L, M)
        kernels.append(sp.csr_matrix(
            (np.tile(trans[t], (L, 1)).ravel(),
             (np.repeat(np.arange(k), m),
              (nxt.reshape(-1, 1) * m + np.arange(m)).ravel())),
            shape=(k, k)))
    period_t = np.eye(k)                                # transposed period map
    for kernel in kernels:
        period_t = kernel.T @ period_t
    lhs = np.vstack([period_t - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    law = np.maximum(np.linalg.lstsq(lhs, rhs, rcond=None)[0], 0.0)
    law /= law.sum()
    x = np.zeros(actions.shape + (succ_idx.shape[2],))
    for t, kernel in enumerate(kernels):
        np.put_along_axis(x[t], actions[t][..., None],
                          law.reshape(L, m)[..., None], axis=2)
        law = kernel.T @ law
    return x


def solve(problem: MdpProblem) -> OccupancyMeasure:
    """Optimal occupancy of the cycle: value iteration, else the LP.

    Relative value iteration on the period map gives a greedy action table,
    whose occupancy is returned with objective sum(c * x) / n. If the span
    has not settled within PERIOD_BUDGET periods, the occupancy LP is solved
    instead; a SolverError from it names both attempts.
    """
    costs = cost_tensor(problem)
    succ_idx = successor_indices(problem)
    values, periods, span = _period_rvi(costs, succ_idx, problem.trans)
    if values is None:
        try:
            occ = solve_occupancy(build_lp(problem))
        except SolverError as exc:
            raise SolverError(f"value iteration span {span:.3e} after {periods} "
                              f"periods, then {exc}") from None
        occ.periods, occ.span = periods, span
        return occ
    actions = np.stack([
        bellman_backup(costs, succ_idx, problem.trans, values[t + 1], t).argmin(axis=2)
        for t in range(problem.n)])
    x = _policy_occupancy(succ_idx, problem.trans, actions)
    return OccupancyMeasure(x=x, objective=float((costs * x).sum() / problem.n),
                            solver="rvi", periods=periods, span=span)


def _fallback_actions(problem: MdpProblem) -> np.ndarray:
    """Smallest action whose quantized successor stays at or below t_max."""
    grid = problem.space.theta_grid
    succ_vals = grid[successor_indices(problem)]       # (n, L, A)
    safe = succ_vals <= problem.cost.t_max + 1e-9
    first_safe = np.argmax(safe, axis=2)               # 0 if none safe
    any_safe = safe.any(axis=2)
    return np.where(any_safe, first_safe, problem.space.a_max)


@dataclass
class Policy:
    """Chiller count actions[t, theta_idx, regime - 1] of a planning cycle."""

    actions: np.ndarray  # (n, n_theta, m) ints in 0..a_max
    space: StateSpace
    hours: np.ndarray = None   # absolute hour indices of the cycle, optional
    objective: float = None

    def __post_init__(self):
        self.actions = np.asarray(self.actions)
        if not np.issubdtype(self.actions.dtype, np.integer):
            raise ValueError(f"actions must be integers, got {self.actions.dtype}")
        shape = (self.space.n_theta, self.space.m)
        if self.actions.ndim != 3 or self.actions.shape[1:] != shape:
            raise ValueError(f"actions must have shape (n, {shape[0]}, {shape[1]}), "
                             f"got {self.actions.shape}")
        if np.any(self.actions < 0) or np.any(self.actions > self.space.a_max):
            raise ValueError(f"actions must be in 0..{self.space.a_max}")

    @property
    def n(self) -> int:
        return self.actions.shape[0]


def extract_policy(problem: MdpProblem, occ: OccupancyMeasure) -> Policy:
    """The action carrying the most occupancy in each visited state.

    States the occupancy never visits get a fallback: the smallest action
    keeping the quantized successor at or below t_max.
    """
    visited = occ.x.sum(axis=3) > 1e-12
    fallback = _fallback_actions(problem)              # (n, L)
    actions = np.where(visited, occ.x.argmax(axis=3), fallback[:, :, None])
    return Policy(actions=actions, space=problem.space,
                  hours=problem.hours, objective=occ.objective)


def policy_to_dict(policy: Policy) -> dict:
    return {
        "kind": "policy",
        "n": policy.n,
        "theta_min": policy.space.theta_min,
        "theta_max": policy.space.theta_max,
        "theta_step": policy.space.theta_step,
        "m": policy.space.m,
        "a_max": policy.space.a_max,
        "hours": None if policy.hours is None else [int(h) for h in policy.hours],
        "objective": policy.objective,
        "actions": policy.actions.tolist(),
    }


def policy_from_dict(doc: dict) -> Policy:
    if "actions" not in doc:
        raise ValueError("policy file holds no action table (it predates the "
                         "deterministic policy format); re-run `coolsched plan`")
    space = StateSpace(theta_min=doc["theta_min"], theta_max=doc["theta_max"],
                       theta_step=doc["theta_step"], m=doc["m"],
                       a_max=doc["a_max"])
    hours = None if doc.get("hours") is None else np.asarray(doc["hours"], dtype=np.int64)
    return Policy(actions=np.asarray(doc["actions"]),
                  space=space, hours=hours, objective=doc.get("objective"))


def save_policy(policy: Policy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(policy_to_dict(policy), fh, sort_keys=True)
        fh.write("\n")


def load_policy(path) -> Policy:
    with open(path, encoding="utf-8") as fh:
        return policy_from_dict(json.load(fh))
