"""Scalar references for the pipeline's kernels.

The pipeline runs table forms only: the controllers search one row of
thermal.step_table, and the table prices each hour through cop_table. These
one-value rules define what those kernels compute, and the tests hold the
two to each other.
"""

from coolsched.mdp import CostSpec
from coolsched.thermal import STEP_SECONDS, ChillerSpec, step_temperature


def cop(spec: ChillerSpec, t_out: float) -> float:
    """Coefficient of performance at outdoor temperature t_out, clamped linear."""
    if t_out <= spec.cop_lo_temp:
        return spec.cop_lo
    if t_out >= spec.cop_hi_temp:
        return spec.cop_hi
    slope = (spec.cop_lo - spec.cop_hi) / (spec.cop_hi_temp - spec.cop_lo_temp)
    return spec.cop_lo - slope * (t_out - spec.cop_lo_temp)


def cooling_energy(spec: ChillerSpec, a: int, t_out: float) -> float:
    """Electrical energy in kWh to run `a` chillers for one step at t_out."""
    if not 0 <= a <= spec.a_max:
        raise ValueError(f"a must be in 0..{spec.a_max}")
    return (spec.eta * a / cop(spec, t_out)) * STEP_SECONDS / 3.6e6


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
