"""Facility thermal model: capacitance, heat load, chiller COP, temperature step.

All functions are pure; temperatures in degC, heat in W, energy in kWh. The
pipeline decides once per hour, so every step lasts STEP_SECONDS. The step
relaxes the room toward an equilibrium by one decay factor. The planner and
the rollout read the plant from one `step_table`; the scalar step_temperature
and cooling_energy share its formulas and `decay_factor`, so both give the
same bits.
"""

from dataclasses import dataclass
import math

import numpy as np

STEP_SECONDS = 3600.0   # one decision per hour of the price and weather traces


@dataclass(frozen=True)
class FacilitySpec:
    """Geometry and material properties of the data center shell."""

    floor_area: float = 3000.0        # m^2
    ceiling_height: float = 4.0       # m
    slab_thickness: float = 0.2       # m
    rho_air: float = 1.204            # kg/m^3 at 20 degC
    cp_air: float = 1005.0            # J/(kg*degC)
    rho_concrete: float = 2300.0      # kg/m^3
    cp_concrete: float = 880.0        # J/(kg*degC)
    c_equipment: float = 4.0e7        # J/degC, IT equipment + infrastructure
    gamma_env: float = 10000.0        # W/degC, envelope exchange coefficient

    def __post_init__(self):
        for name in ("floor_area", "ceiling_height", "rho_air", "cp_air",
                     "rho_concrete", "cp_concrete", "gamma_env"):
            if getattr(self, name) <= 0:
                raise ValueError(f"FacilitySpec.{name} must be > 0")
        if self.slab_thickness < 0 or self.c_equipment < 0:
            raise ValueError("slab_thickness and c_equipment must be >= 0")


@dataclass(frozen=True)
class ChillerSpec:
    """Chiller plant: identical units, each removing `eta` W of heat when on.

    Electrical draw per unit is eta / COP(t_out); COP interpolates linearly
    between (cop_lo_temp, cop_lo) and (cop_hi_temp, cop_hi), clamped outside.
    """

    a_max: int = 4
    eta: float = 1.25e6               # W heat removal per active chiller
    cop_lo_temp: float = 15.0
    cop_hi_temp: float = 40.0
    cop_lo: float = 5.0
    cop_hi: float = 2.5

    def __post_init__(self):
        if self.a_max < 1:
            raise ValueError("a_max must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if not (self.cop_lo > self.cop_hi > 0):
            raise ValueError("need cop_lo > cop_hi > 0")
        if self.cop_lo_temp >= self.cop_hi_temp:
            raise ValueError("need cop_lo_temp < cop_hi_temp")


@dataclass(frozen=True)
class HeatLoadSpec:
    """IT heat load: constant base plus per-core contribution."""

    q_base: float = 1.0e6             # W
    phi: float = 10.0                 # W per active core

    def __post_init__(self):
        if self.q_base < 0 or self.phi < 0:
            raise ValueError("q_base and phi must be >= 0")


def capacitance(spec: FacilitySpec) -> float:
    """Total effective thermal capacitance in J/degC (air + slab + equipment)."""
    c_air = spec.rho_air * spec.cp_air * spec.floor_area * spec.ceiling_height
    c_slab = (spec.floor_area * spec.slab_thickness
              * spec.rho_concrete * spec.cp_concrete)
    return c_air + c_slab + spec.c_equipment


def heat_load(spec: HeatLoadSpec, cores):
    """Total IT heat load in W for the given active core count(s)."""
    if np.any(np.asarray(cores) < 0):
        raise ValueError("cores must be >= 0")
    return spec.q_base + spec.phi * cores


def cop(spec: ChillerSpec, t_out: float) -> float:
    """Coefficient of performance at outdoor temperature t_out, clamped linear."""
    if t_out <= spec.cop_lo_temp:
        return spec.cop_lo
    if t_out >= spec.cop_hi_temp:
        return spec.cop_hi
    slope = (spec.cop_lo - spec.cop_hi) / (spec.cop_hi_temp - spec.cop_lo_temp)
    return spec.cop_lo - slope * (t_out - spec.cop_lo_temp)


def cop_table(spec: ChillerSpec, t_out) -> np.ndarray:
    """`cop` of each outdoor temperature in t_out, bit for bit."""
    t_out = np.asarray(t_out, dtype=float)
    slope = (spec.cop_lo - spec.cop_hi) / (spec.cop_hi_temp - spec.cop_lo_temp)
    return np.where(t_out <= spec.cop_lo_temp, spec.cop_lo,
                    np.where(t_out >= spec.cop_hi_temp, spec.cop_hi,
                             spec.cop_lo - slope * (t_out - spec.cop_lo_temp)))


def decay_factor(gamma_env: float, c_heat: float) -> float:
    """Share exp(-gamma_env*STEP_SECONDS/c_heat) of the gap to equilibrium
    left after one step."""
    if gamma_env <= 0 or c_heat <= 0:
        raise ValueError("gamma_env and c_heat must be > 0")
    return math.exp(-gamma_env * STEP_SECONDS / c_heat)


def step_temperature(theta: float, t_out: float, q: float, a: int,
                     eta: float, gamma_env: float, c_heat: float) -> float:
    """One exponential relaxation step of the indoor temperature.

    The room relaxes toward the equilibrium t_out + (q - eta*a)/gamma_env
    with rate gamma_env/c_heat; output is continuous (no grid rounding).
    """
    decay = decay_factor(gamma_env, c_heat)
    theta_eq = t_out + (q - eta * a) / gamma_env
    return theta_eq + (theta - theta_eq) * decay


def cooling_energy(spec: ChillerSpec, a: int, t_out: float) -> float:
    """Electrical energy in kWh to run `a` chillers for one step at t_out."""
    if not 0 <= a <= spec.a_max:
        raise ValueError(f"a must be in 0..{spec.a_max}")
    return (spec.eta * a / cop(spec, t_out)) * STEP_SECONDS / 3.6e6


@dataclass(frozen=True)
class StepTable:
    """Hour t and chiller count a of the plant: eq = equilibria[t, a] gives
    step_temperature as eq + (theta - eq) * decay, and kwh[t, a] is
    cooling_energy, bit for bit."""

    equilibria: np.ndarray   # (n, a_max + 1) degC the room relaxes toward
    decay: float             # decay_factor of the facility
    kwh: np.ndarray          # (n, a_max + 1) chiller energy of the hour


def step_table(facility: FacilitySpec, chiller: ChillerSpec,
               heat: HeatLoadSpec, t_out, cores) -> StepTable:
    """The step table of hourly outdoor temperatures and core counts; raises
    ValueError unless both are 1-D of one length, and on negative cores."""
    t_out, cores = np.asarray(t_out, dtype=float), np.asarray(cores)
    if t_out.ndim != 1 or cores.shape != t_out.shape:
        raise ValueError("t_out and cores must be 1-D arrays of one length")
    q = heat_load(heat, cores)
    actions = np.arange(chiller.a_max + 1)
    equilibria = (t_out[:, None]
                  + (q[:, None] - chiller.eta * actions[None, :])
                  / facility.gamma_env)
    kwh = ((chiller.eta * actions[None, :] / cop_table(chiller, t_out)[:, None])
           * STEP_SECONDS / 3.6e6)
    return StepTable(equilibria=equilibria,
                     decay=decay_factor(facility.gamma_env,
                                        capacitance(facility)),
                     kwh=kwh)
