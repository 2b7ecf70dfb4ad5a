"""Electricity price-aware cooling schedules and cost estimates for data centers."""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os
import sys as _sys

# OpenBLAS starts its thread pool when numpy loads it, and waking those
# threads after an idle spell costs a fresh process about a second in its
# first small products (the quantile fit's, the planner's lstsq), where
# threads never pay. So numpy, when coolsched is the first to load it,
# loads with one BLAS thread, unless the environment already sets a BLAS
# thread count; the variable is removed again, so child processes inherit
# nothing.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and _os.environ.keys().isdisjoint(_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        _importlib.import_module("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
