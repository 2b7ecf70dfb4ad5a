"""Electricity price-aware cooling schedules and cost estimates for data centers."""

__version__ = "0.1.0"

from .ingest import AlignedDataset, SeriesKind, TimeSeries, align, load_series
from .mdp import (CostSpec, MdpProblem, OccupancyMeasure, Policy, StateSpace,
                  build_lp, extract_policy, solve_occupancy)
from .qfr import FourierDesign, RegimeModel, classify, fit_quantile, fit_regimes
from .regimes import TransitionModel, estimate, matrix_at
from .sim import CostReport, SimSpecs, Trajectory, compare, rollout, summarize
from .thermal import (ChillerSpec, FacilitySpec, HeatLoadSpec, StepTable,
                      capacitance, cooling_energy, cop, heat_load,
                      step_table, step_temperature)

__all__ = [
    "AlignedDataset", "ChillerSpec", "CostReport", "CostSpec", "FacilitySpec",
    "FourierDesign", "HeatLoadSpec", "MdpProblem", "OccupancyMeasure",
    "Policy", "RegimeModel", "SeriesKind", "SimSpecs", "StateSpace",
    "StepTable", "TimeSeries", "Trajectory", "TransitionModel", "align",
    "build_lp", "capacitance", "classify", "compare", "cooling_energy", "cop",
    "estimate", "extract_policy", "fit_quantile", "fit_regimes",
    "heat_load", "load_series", "matrix_at", "rollout", "solve_occupancy",
    "step_table", "step_temperature", "summarize",
]
