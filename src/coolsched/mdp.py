"""Cyclic MDP over (temperature, price regime) states and its average-cost planner.

The cycle has n hourly slots and wraps from t = n-1 back to t = 0. An
MdpProblem holds the plant as the thermal.step_table of its n hours, as a
rollout does. The temperature component of the transition kernel is
deterministic (grid-quantized thermal step) and the regime component is the
estimated Markov chain, so the time component of the augmented chain is
deterministic and cyclic.

Successor bins are read through two operators. Backward, `bellman_backup`
gathers at each successor bin the regime-chain expectation (`expected_values`)
of slot t+1's values; forward, `propagate` scatters slot t's (L, M, A) mass
into slot t+1's (L, M) law through a flat scatter index. The cycle's tables
are cached properties of its MdpProblem: the continuous successor
`temperatures`, their grid bins `successors`, the immediate `costs` and the
scatter index `bins`, each built once per cycle on first use, and the
planner and `check_occupancy` read them from there; `check_occupancy`
carries the whole cycle forward in one `propagate` step. The planner runs
relative value iteration on the period map, the n-step chain from slot 0
back to slot 0 (Puterman 1994, Markov Decision Processes, sections 8.5 and
9.5): one backward sweep of Bellman backups over t = n-1..0 per period. The planned
policy is the argmin table of the last sweep, one chiller count per (cycle
slot, theta bin, regime) in every state, visited or not, with its occupancy
measure: the stationary law of the period map, which the backward operator
builds under the table, carried through the n slots by `propagate`. When
the span of the period map's value change does not settle within
PERIOD_BUDGET periods (a multichain or periodic period map), the planner
solves the occupancy linear program instead: variables x[t, s, a] with
per-time normalization and cyclic flow-balance rows. Its table is one
backward sweep from n times the duals of slot 0's flow-balance rows, which
are relative values of slot 0 (Puterman 1994, section 8.8). The LP is also
the reference the tests compare the planner against.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scipy is imported inside the LP functions that use it, so that a plan whose
# value iteration settles, and every stage but fit-qfr, never load it.
from . import artifacts
from .thermal import StepTable

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
    """One planning cycle: the plant's step table, regime prices and chain.

    All per-time arrays have n rows (the cycle length); time wraps from
    t = n-1 back to t = 0. The cycle's tables, its successor temperatures
    and their bins, costs and scatter index, are computed on first use and
    kept, so a problem is not changed once planned.
    """

    space: StateSpace
    cost: CostSpec
    plant: StepTable     # (n, a_max + 1) equilibria and kWh, one decay
    prices: np.ndarray   # (n, M) representative $/MWh per regime
    trans: np.ndarray    # (n, M, M) row-stochastic regime transitions
    hours: np.ndarray = None  # optional absolute hour indices, length n

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        n, m = self.n, self.space.m
        if self.plant.equilibria.shape != (n, self.space.n_actions):
            raise ValueError("plant and state space disagree on a_max")
        if self.prices.shape != (n, m) or self.trans.shape != (n, m, m):
            raise ValueError("exogenous cycles have inconsistent dimensions")
        if np.any(np.abs(self.trans.sum(axis=2) - 1.0) > 1e-9) or np.any(self.trans < 0):
            raise ValueError("transition matrices must be row-stochastic")
        grid = self.space.theta_grid
        if not (grid[0] < self.cost.t_min and self.cost.t_max < grid[-1]):
            raise ValueError("theta grid must contain [t_min, t_max] strictly inside")
        if self.hours is not None:
            self.hours = np.asarray(self.hours, dtype=np.int64)
            if self.hours.shape != (n,):
                raise ValueError("hours must have length n")

    @property
    def n(self) -> int:
        return len(self.plant.equilibria)

    @cached_property
    def temperatures(self) -> np.ndarray:
        """Continuous next temperatures of the cycle, (n, n_theta, n_actions)."""
        theta_eq = self.plant.equilibria                       # (n, A)
        return (theta_eq[:, None, :]
                + (self.space.theta_grid[None, :, None] - theta_eq[:, None, :])
                * self.plant.decay)

    @cached_property
    def successors(self) -> np.ndarray:
        """Quantized successor grid indices, (n, n_theta, n_actions)."""
        return quantize(self.temperatures, self.space)

    @cached_property
    def costs(self) -> np.ndarray:
        """Immediate costs c[t, theta_idx, p, a] of the cycle, (n, n_theta, M,
        n_actions). Energy is priced at the regime's representative $/MWh;
        temperature violations are charged on the continuous successor,
        before quantization."""
        succ = self.temperatures                               # (n, L, A)
        over = np.maximum(0.0, succ - self.cost.t_max)
        under = np.maximum(0.0, self.cost.t_min - succ)
        penalty = self.cost.lambda_over * over + self.cost.lambda_under * under
        energy_cost = (self.plant.kwh[:, None, :] * self.prices[:, :, None]
                       / 1000.0)                               # (n, M, A)
        return energy_cost[:, None, :, :] + penalty[:, :, None, :]

    @cached_property
    def bins(self) -> np.ndarray:
        """Scatter index of `propagate`, (n, n_actions * n_theta * M): entry
        (t, a, i, q) is bin successors[t, i, a] * M + q of slot t+1's
        flattened (L, M) law, action-major, the order in which a per-action
        np.add.at sums each bin."""
        m = self.space.m
        bins = self.successors.transpose(0, 2, 1)[..., None] * m + np.arange(m)
        return bins.reshape(self.n, -1)


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
    costs, succ_idx = problem.costs, problem.successors

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

    `actions` is the argmin table of one sweep from slot 0's relative
    `values`, set by `solve`; `solver` ("rvi" or "lp"), `periods` and `span`
    name the method and the value iteration run before it, if any.
    """

    x: np.ndarray
    objective: float
    values: np.ndarray
    actions: np.ndarray = None
    solver: str = "lp"
    periods: int = 0
    span: float = None


def solve_occupancy(lp: LpDescription) -> OccupancyMeasure:
    """Solve the occupancy LP with HiGHS at 1e-9 feasibility tolerances; its
    values are n times the duals of slot 0's flow-balance rows."""
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
    n, L, m, _ = lp.dims
    x = np.maximum(res.x, 0.0).reshape(lp.dims)
    values = n * res.eqlin.marginals[n:n + L * m].reshape(L, m)
    return OccupancyMeasure(x=x, objective=float(res.fun), values=values)


def check_occupancy(problem: MdpProblem, occ: OccupancyMeasure,
                    tol: float = 1e-6) -> dict:
    """Max normalization and cyclic flow-balance residuals; raises above tol.

    The flow residual compares each slot's law with the law `propagate`
    carries into it from the slot before, the wrap row n-1 -> 0 included.
    All n slots go forward in one `propagate` step over the whole cycle,
    through the problem's scatter bins, built once per cycle; each slot's
    law is bit for bit the per-slot step's.
    """
    x = occ.x
    norm_err = float(np.max(np.abs(x.sum(axis=(1, 2, 3)) - 1.0)))
    inflow = propagate(x, problem.bins, problem.trans)       # slots 1..n-1, 0
    flow_err = float(np.abs(np.roll(x.sum(axis=3), -1, axis=0) - inflow).max())
    if norm_err > tol or flow_err > tol:
        raise SolverError(
            f"occupancy violates constraints: normalization {norm_err:.3e}, "
            f"flow {flow_err:.3e} (tolerance {tol:.1e})"
        )
    return {"normalization": norm_err, "flow": flow_err}


def expected_values(trans_t, v_next) -> np.ndarray:
    """E[j, p, ...] = sum_q trans_t[p, q] v_next[j, q, ...]: the expected value
    of landing in bin j from regime p."""
    return np.einsum("pq,jq...->jp...", trans_t, v_next)


def bellman_backup(costs, succ_idx, trans, v_next, t) -> np.ndarray:
    """Q[i, p, a] at slot t: cost plus the expected value v_next of the successor.

    costs is MdpProblem.costs (n, L, M, A), succ_idx MdpProblem.successors
    (n, L, A), trans the (n, M, M) regime chain and v_next the (L, M) values
    of slot t+1.
    """
    gathered = expected_values(trans[t], v_next)[succ_idx[t]]    # (L, A, M)
    return costs[t] + gathered.transpose(0, 2, 1)


def propagate(mass, bins, trans) -> np.ndarray:
    """(L, M) law of slot t+1 from the (L, M, A) mass of slot t: the mass at
    (i, p, a) lands in bin succ_idx[t, i, a], spread over regimes by
    trans[t][p]; bins is slot t's row of MdpProblem.bins.

    With a leading slot axis, mass (n, L, M, A), bins (n, A * L * M) and
    trans (n, M, M) give every slot's next law, (n, L, M), from one product
    and one bincount; each slot's law is bit for bit the per-slot call's.
    """
    *slots, L, m, _ = mass.shape
    # action-major, the order in which a per-action np.add.at sums each bin
    spread = np.einsum("...ipa,...pq->...aiq", mass, trans)      # (..., A, L, M)
    if slots:
        bins = bins + L * m * np.arange(slots[0])[:, None]
    return np.bincount(bins.ravel(), weights=spread.ravel(),
                       minlength=mass[..., 0].size).reshape(mass.shape[:-1])


def _sweep(costs, succ_idx, trans, v):
    """One backward sweep of Bellman backups over t = n-1..0 from slot 0's
    values v: (slot 0's new values, argmin action table (n, L, M))."""
    actions = np.empty(costs.shape[:3], dtype=np.int64)
    for t in range(len(trans) - 1, -1, -1):
        q = bellman_backup(costs, succ_idx, trans, v, t)
        actions[t] = q.argmin(axis=2)
        v = q.min(axis=2)
    return v, actions


def _period_rvi(costs, succ_idx, trans):
    """Relative value iteration on the period map.

    Each period sweeps t = n-1..0 from the relative values h of slot 0 and
    stops once the span of v_0 - h is at most RVI_TOL * max(1, |gain|), where
    gain is the per-step midpoint of v_0 - h. Returns (h, actions, periods,
    span): the h and argmin table of the last sweep, or None for both if the
    budget ran out first.
    """
    n = len(trans)
    h = np.zeros(costs.shape[1:3])
    span = np.inf
    for period in range(1, PERIOD_BUDGET + 1):
        v0, actions = _sweep(costs, succ_idx, trans, h)
        delta = v0 - h
        span = float(delta.max() - delta.min())
        gain = float(delta.max() + delta.min()) / (2 * n)
        if span <= RVI_TOL * max(1.0, abs(gain)):
            return h, actions, period, span
        h = v0 - v0.flat[0]
    return None, None, PERIOD_BUDGET, span


def _period_map(succ_idx, trans, actions) -> np.ndarray:
    """Period map (k, k), k = L*M, of the table: the backward operator on np.eye(k)."""
    n, L, m = actions.shape
    landing = np.take_along_axis(succ_idx, actions, axis=2)     # (n, L, M)
    period = np.eye(L * m).reshape(L, m, L * m)
    for t in range(n - 1, -1, -1):
        period = expected_values(trans[t], period)[landing[t], np.arange(m)]
    return period.reshape(L * m, L * m)


def _policy_occupancy(succ_idx, bins, trans, actions) -> np.ndarray:
    """Occupancy x[t, i, p, a] of the action table actions[t, i, p]: slot 0
    carries the stationary law of the period map, found by one dense
    least-squares solve, and `propagate` carries it through the later slots
    on the cycle's scatter bins."""
    k = actions.shape[1] * actions.shape[2]
    lhs = np.vstack([_period_map(succ_idx, trans, actions).T - np.eye(k), np.ones(k)])
    law = np.maximum(np.linalg.lstsq(lhs, np.r_[np.zeros(k), 1.0], rcond=None)[0], 0.0)
    law = (law / law.sum()).reshape(actions.shape[1:])
    x = np.zeros(actions.shape + (succ_idx.shape[2],))
    states = np.indices(actions.shape[1:])                       # (2, L, M)
    for t in range(len(actions)):
        x[t][states[0], states[1], actions[t]] = law
        law = propagate(x[t], bins[t], trans[t])
    return x


def solve(problem: MdpProblem) -> OccupancyMeasure:
    """Optimal occupancy of the cycle and its greedy action table.

    Relative value iteration on the period map gives the argmin table of
    its last sweep, whose occupancy is returned with objective
    sum(c * x) / n. If the span has not settled within PERIOD_BUDGET
    periods, the occupancy LP is solved instead and the table is one sweep
    from its slot-0 values; a SolverError from it names both attempts.
    """
    costs, succ_idx = problem.costs, problem.successors
    h, actions, periods, span = _period_rvi(costs, succ_idx, problem.trans)
    if actions is None:
        try:
            occ = solve_occupancy(build_lp(problem))
        except SolverError as exc:
            raise SolverError(f"value iteration span {span:.3e} after {periods} "
                              f"periods, then {exc}") from None
        occ.actions = _sweep(costs, succ_idx, problem.trans, occ.values)[1]
        occ.periods, occ.span = periods, span
        return occ
    x = _policy_occupancy(succ_idx, problem.bins, problem.trans, actions)
    return OccupancyMeasure(x=x, objective=float((costs * x).sum() / problem.n),
                            values=h, actions=actions, solver="rvi",
                            periods=periods, span=span)


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
    """The Policy of `solve`'s action table, on the problem's cycle hours."""
    return Policy(actions=occ.actions, space=problem.space,
                  hours=problem.hours, objective=occ.objective)


def save_policy(policy: Policy, path) -> None:
    artifacts.write_json(path, {
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
    }, indent=None)


def load_policy(path) -> Policy:
    doc = artifacts.read_json(path, "policy", keys=(
        "theta_min", "theta_max", "theta_step", "m", "a_max"))
    if "actions" not in doc:
        raise artifacts.ArtifactError(
            f"{path} holds no action table (it predates the deterministic "
            "policy format); re-run `coolsched plan`")
    with artifacts.loading(path, "policy"):
        space = StateSpace(theta_min=doc["theta_min"], theta_max=doc["theta_max"],
                           theta_step=doc["theta_step"], m=doc["m"],
                           a_max=doc["a_max"])
        hours = None if doc.get("hours") is None else np.asarray(doc["hours"], dtype=np.int64)
        return Policy(actions=np.asarray(doc["actions"]),
                      space=space, hours=hours, objective=doc.get("objective"))
