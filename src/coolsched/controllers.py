"""Runtime action rules: planned QFR-MDP lookup and heuristic baselines.

A rollout calls start(window) once per simulated window, with the window's
hours, realized prices and step table (sim.Window): the equilibrium
temperature of every (hour, chiller count) and the one-step decay factor,
which sim.Window.of builds once per window. Then it calls
action(t, theta) for each hour t of the window, which returns a chiller
count for indoor temperature theta. start tables everything that does not
depend on theta, so action is a bin lookup and a table read (qfr-mdp) or a
search over one row of the step table (greedy, fixed-rule). All controllers
are deterministic, so a rollout replays bit-for-bit from its inputs.

The scalar rules greedy_action, night_precool_action and fixed_rule_action
define what the controllers compute; the tests hold the two to each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mdp import CostSpec, Policy
from .qfr import RegimeModel, classify
from .thermal import ChillerSpec, step_temperature
# Not called here: action finds the theta bin itself. The name stays because
# bench/layertrace.py counts grid lookups as controllers.quantize.
from .mdp import quantize  # noqa: F401


def greedy_action(theta, t_out, q, chiller: ChillerSpec, cost: CostSpec,
                  gamma_env, c_heat) -> int:
    """Smallest chiller count keeping the next temperature at or below t_max.

    Saturates at a_max when even full cooling overshoots.
    """
    for a in range(chiller.a_max + 1):
        succ = step_temperature(theta, t_out, q, a, chiller.eta,
                                gamma_env, c_heat)
        if succ <= cost.t_max:
            return a
    return chiller.a_max


def night_precool_action(theta, t_out, q, chiller: ChillerSpec, cost: CostSpec,
                         gamma_env, c_heat) -> int:
    """Largest chiller count whose successor does not undershoot t_min."""
    for a in range(chiller.a_max, -1, -1):
        succ = step_temperature(theta, t_out, q, a, chiller.eta,
                                gamma_env, c_heat)
        if succ >= cost.t_min:
            return a
    return 0


def fixed_rule_action(hour_of_day, theta, t_out, q, chiller: ChillerSpec,
                      cost: CostSpec, gamma_env, c_heat,
                      peak=(16, 19), precool=(2, 4)) -> int:
    """Scheduled rule: idle in the peak window, pre-cool at night, else greedy."""
    if peak[0] <= hour_of_day < peak[1]:
        return 0
    if precool[0] <= hour_of_day < precool[1]:
        return night_precool_action(theta, t_out, q, chiller, cost,
                                    gamma_env, c_heat)
    return greedy_action(theta, t_out, q, chiller, cost, gamma_env, c_heat)


def policy_slot(policy: Policy, hours):
    """Cycle slot(s) of absolute hour(s): hours since the cycle's first, mod n."""
    first = 0 if policy.hours is None else int(policy.hours[0])
    return (hours - first) % policy.n


def _first_at_most(row, theta, decay, t_max) -> int:
    """greedy_action on one equilibrium row."""
    for a, eq in enumerate(row):
        if eq + (theta - eq) * decay <= t_max:
            return a
    return len(row) - 1


def _last_at_least(row, theta, decay, t_min) -> int:
    """night_precool_action on one equilibrium row."""
    for a in range(len(row) - 1, -1, -1):
        eq = row[a]
        if eq + (theta - eq) * decay >= t_min:
            return a
    return 0


@dataclass
class GreedyController:
    cost: CostSpec
    name: str = "greedy"

    def start(self, window) -> None:
        self._rows, self._decay = window.equilibria, window.decay

    def action(self, t, theta) -> int:
        return _first_at_most(self._rows[t], theta, self._decay,
                              self.cost.t_max)


_IDLE, _PRECOOL, _GREEDY = 0, 1, 2


@dataclass
class FixedRuleController:
    """Peak-hour abstinence plus scheduled night pre-cooling; price-blind."""

    cost: CostSpec
    peak_start: int = 16
    peak_end: int = 19
    precool_start: int = 2
    precool_end: int = 4
    name: str = "fixed-rule"

    def __post_init__(self):
        if not (0 <= self.peak_start < self.peak_end <= 24):
            raise ValueError("need 0 <= peak_start < peak_end <= 24")
        if not (0 <= self.precool_start < self.precool_end <= 24):
            raise ValueError("need 0 <= precool_start < precool_end <= 24")

    def start(self, window) -> None:
        hod = np.asarray(window.hours) % 24
        peak = (self.peak_start <= hod) & (hod < self.peak_end)
        precool = (self.precool_start <= hod) & (hod < self.precool_end)
        self._mode = np.where(peak, _IDLE,
                              np.where(precool, _PRECOOL, _GREEDY)).tolist()
        self._rows, self._decay = window.equilibria, window.decay

    def action(self, t, theta) -> int:
        mode = self._mode[t]
        if mode == _IDLE:
            return 0
        if mode == _PRECOOL:
            return _last_at_least(self._rows[t], theta, self._decay,
                                  self.cost.t_min)
        return _first_at_most(self._rows[t], theta, self._decay,
                              self.cost.t_max)


@dataclass
class QfrMdpController:
    """Planned policy lookup keyed by (cycle slot, theta bin, price regime)."""

    policy: Policy
    regime_model: RegimeModel
    name: str = "qfr-mdp"

    def start(self, window) -> None:
        hours = np.asarray(window.hours)
        slots = policy_slot(self.policy, hours).tolist()
        regimes = classify(self.regime_model, hours, window.price).tolist()
        # by_slot[s][p - 1] is the action of each theta bin in slot s, regime p
        by_slot = self.policy.actions.transpose(0, 2, 1).tolist()
        self._rows = [by_slot[s][p - 1] for s, p in zip(slots, regimes)]
        space = self.policy.space
        self._grid = (space.theta_min, space.theta_step, space.n_theta - 1)

    def action(self, t, theta) -> int:
        low, step, top = self._grid
        i = math.floor((theta - low) / step + 0.5)   # quantize's rule
        return self._rows[t][min(max(i, 0), top)]
