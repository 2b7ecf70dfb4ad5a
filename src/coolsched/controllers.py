"""Runtime action rules: planned QFR-MDP lookup and heuristic baselines.

A rollout calls start(window) once per simulated window, with the window's
hours, realized prices, regime labels and step table (sim.Window): the
equilibrium temperature of every (hour, chiller count) and the one-step
decay factor. sim.Window.of labels the prices and builds the table once per
window, so qfr-mdp reads the window's labels and classifies nothing. Then
the rollout calls action(t, theta) for each hour t of the window, which
returns a chiller count for indoor temperature theta. start tables
everything that does not depend on theta, so action is a bin lookup and a
table read (qfr-mdp) or a search over one row of the step table (greedy,
fixed-rule). All controllers are deterministic, so a rollout replays
bit-for-bit from its inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mdp import CostSpec, Policy
# Not called here: action finds the theta bin and steps through the window's
# equilibrium rows, and start reads its regime labels. The names stay because
# bench/layertrace.py counts grid lookups, classifications and thermal steps
# through them.
from .mdp import quantize  # noqa: F401
from .qfr import classify  # noqa: F401
from .thermal import step_temperature  # noqa: F401


def policy_slot(policy: Policy, hours):
    """Cycle slot(s) of absolute hour(s): hours since the cycle's first, mod n."""
    first = 0 if policy.hours is None else int(policy.hours[0])
    return (hours - first) % policy.n


def _first_at_most(row, theta, decay, t_max) -> int:
    """Smallest chiller count whose step from theta on this hour's
    equilibrium row ends at or below t_max, or the largest when none does."""
    for a, eq in enumerate(row):
        if eq + (theta - eq) * decay <= t_max:
            return a
    return len(row) - 1


def _last_at_least(row, theta, decay, t_min) -> int:
    """Largest chiller count whose step from theta on this hour's
    equilibrium row ends at or above t_min, or 0 when none does."""
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
    name: str = "qfr-mdp"

    def start(self, window) -> None:
        if not np.all(window.regime):
            raise ValueError("qfr-mdp needs a window labelled by a regime "
                             "model; this one has regime 0")
        slots = policy_slot(self.policy, np.asarray(window.hours)).tolist()
        regimes = window.regime.tolist()
        # by_slot[s][p - 1] is the action of each theta bin in slot s, regime p
        by_slot = self.policy.actions.transpose(0, 2, 1).tolist()
        self._rows = [by_slot[s][p - 1] for s, p in zip(slots, regimes)]
        space = self.policy.space
        self._grid = (space.theta_min, space.theta_step, space.n_theta - 1)

    def action(self, t, theta) -> int:
        low, step, top = self._grid
        i = math.floor((theta - low) / step + 0.5)   # quantize's rule
        return self._rows[t][min(max(i, 0), top)]
