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

# the pipeline's stage calls, as cli.py makes them, and its spec and model types
from .ingest import AlignedDataset, SeriesKind, TimeSeries, align, load_series
from .mdp import (CostSpec, MdpProblem, OccupancyMeasure, Policy, StateSpace,
                  extract_policy, solve)
from .qfr import FourierDesign, RegimeModel, classify, fit_regimes
from .regimes import TransitionModel, estimate
from .sim import CostReport, Trajectory, compare, rollout, summarize
from .thermal import (ChillerSpec, FacilitySpec, HeatLoadSpec, StepTable,
                      step_table)

__all__ = [
    "AlignedDataset", "ChillerSpec", "CostReport", "CostSpec", "FacilitySpec",
    "FourierDesign", "HeatLoadSpec", "MdpProblem", "OccupancyMeasure",
    "Policy", "RegimeModel", "SeriesKind", "StateSpace", "StepTable",
    "TimeSeries", "Trajectory", "TransitionModel", "align", "classify",
    "compare", "estimate", "extract_policy", "fit_regimes", "load_series",
    "rollout", "solve", "step_table", "summarize",
]
