"""Runtime action rules: planned QFR-MDP lookup and heuristic baselines.

Every controller exposes action(hour_index, theta, price, t_out, q)
returning a chiller count. All controllers are deterministic, so a rollout
replays bit-for-bit from its inputs.
"""

from dataclasses import dataclass

from .mdp import CostSpec, Policy, quantize
from .qfr import RegimeModel, classify
from .thermal import ChillerSpec, step_temperature


def greedy_action(theta, t_out, q, chiller: ChillerSpec, cost: CostSpec,
                  gamma_env, c_heat, dt=3600.0) -> int:
    """Smallest chiller count keeping the next temperature at or below t_max.

    Saturates at a_max when even full cooling overshoots.
    """
    for a in range(chiller.a_max + 1):
        succ = step_temperature(theta, t_out, q, a, chiller.eta,
                                gamma_env, c_heat, dt)
        if succ <= cost.t_max:
            return a
    return chiller.a_max


def night_precool_action(theta, t_out, q, chiller: ChillerSpec, cost: CostSpec,
                         gamma_env, c_heat, dt=3600.0) -> int:
    """Largest chiller count whose successor does not undershoot t_min."""
    for a in range(chiller.a_max, -1, -1):
        succ = step_temperature(theta, t_out, q, a, chiller.eta,
                                gamma_env, c_heat, dt)
        if succ >= cost.t_min:
            return a
    return 0


def fixed_rule_action(hour_of_day, theta, t_out, q, chiller: ChillerSpec,
                      cost: CostSpec, gamma_env, c_heat, dt=3600.0,
                      peak=(16, 19), precool=(2, 4)) -> int:
    """Scheduled rule: idle in the peak window, pre-cool at night, else greedy."""
    if peak[0] <= hour_of_day < peak[1]:
        return 0
    if precool[0] <= hour_of_day < precool[1]:
        return night_precool_action(theta, t_out, q, chiller, cost,
                                    gamma_env, c_heat, dt)
    return greedy_action(theta, t_out, q, chiller, cost, gamma_env, c_heat, dt)


def policy_slot(policy: Policy, hour_index: int) -> int:
    if policy.hours is not None:
        return int((hour_index - int(policy.hours[0])) % policy.n)
    return int(hour_index % policy.n)


@dataclass
class GreedyController:
    chiller: ChillerSpec
    cost: CostSpec
    gamma_env: float
    c_heat: float
    dt: float = 3600.0
    name: str = "greedy"

    def action(self, hour_index, theta, price, t_out, q) -> int:
        return greedy_action(theta, t_out, q, self.chiller, self.cost,
                             self.gamma_env, self.c_heat, self.dt)


@dataclass
class FixedRuleController:
    """Peak-hour abstinence plus scheduled night pre-cooling; price-blind."""

    chiller: ChillerSpec
    cost: CostSpec
    gamma_env: float
    c_heat: float
    dt: float = 3600.0
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

    def action(self, hour_index, theta, price, t_out, q) -> int:
        return fixed_rule_action(hour_index % 24, theta, t_out, q,
                                 self.chiller, self.cost, self.gamma_env,
                                 self.c_heat, self.dt,
                                 peak=(self.peak_start, self.peak_end),
                                 precool=(self.precool_start, self.precool_end))


@dataclass
class QfrMdpController:
    """Planned policy lookup keyed by (cycle slot, theta bin, price regime)."""

    policy: Policy
    regime_model: RegimeModel
    name: str = "qfr-mdp"

    def action(self, hour_index, theta, price, t_out, q) -> int:
        slot = policy_slot(self.policy, hour_index)
        i = quantize(theta, self.policy.space)
        regime = classify(self.regime_model, hour_index, price)
        return int(self.policy.actions[slot, i, regime - 1])
