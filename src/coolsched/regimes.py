"""Regime-transition estimation: bucketed MLE with Laplace smoothing.

One absolute hour per regime observation. Transitions between consecutive
hours are pooled into buckets keyed by (hour of day, calendar group), which
keeps the chain time-inhomogeneous while giving each matrix enough samples.
Gaps in the observation sequence (e.g. the winters between summer windows)
contribute no transitions.
"""

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import artifacts

GROUPINGS = ("month", "season", "single", "pooled")

_SEASONS = {12: "djf", 1: "djf", 2: "djf",
            3: "mam", 4: "mam", 5: "mam",
            6: "jja", 7: "jja", 8: "jja",
            9: "son", 10: "son", 11: "son"}


class EstimationError(ValueError):
    """Transition counts cannot produce a valid stochastic matrix."""


class BucketError(LookupError):
    """No matrix was estimated for the requested hour's bucket."""


def _month_of_hour(hour: int) -> int:
    return datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc).month


def hour_bucket(hour: int, grouping: str) -> str:
    """Bucket key of the transition leaving `hour`."""
    if grouping == "pooled":
        return "all"
    hod = int(hour) % 24
    if grouping == "single":
        return f"{hod:02d}"
    month = _month_of_hour(hour)
    if grouping == "month":
        return f"{hod:02d}-m{month:02d}"
    if grouping == "season":
        return f"{hod:02d}-{_SEASONS[month]}"
    raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")


@dataclass
class TransitionModel:
    """Row-stochastic M x M matrices, one per covered bucket."""

    m: int
    alpha: float
    grouping: str
    matrices: dict  # bucket key -> (M, M) ndarray

    def __post_init__(self):
        if self.grouping not in GROUPINGS:
            raise ValueError(f"grouping must be one of {GROUPINGS}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for key, mat in self.matrices.items():
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (self.m, self.m):
                raise ValueError(f"bucket {key}: matrix shape {mat.shape} != ({self.m}, {self.m})")
            if np.any(mat < 0) or np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError(f"bucket {key}: matrix is not row-stochastic")
            self.matrices[key] = mat


def estimate(classified, m: int, alpha: float,
             grouping: str = "month") -> TransitionModel:
    """MLE of bucketed transition matrices from (hour, regime) observations.

    Entry (p, p') of a bucket's matrix is
    (count(p -> p') + alpha) / (sum_q count(p -> q) + M * alpha);
    alpha = 0 gives the unsmoothed maximum-likelihood estimate and requires
    every regime row of every covered bucket to be observed at least once.
    """
    if m < 1:
        raise EstimationError("m must be >= 1")
    if alpha < 0:
        raise EstimationError("alpha must be >= 0")
    pairs = [(int(h), int(p)) for h, p in classified]
    if len(pairs) < 2:
        raise EstimationError("need at least two classified observations")
    for i in range(1, len(pairs)):
        if pairs[i][0] <= pairs[i - 1][0]:
            raise EstimationError("hour indices must be strictly increasing")
    counts = {}
    n_transitions = 0
    for (h0, p0), (h1, p1) in zip(pairs, pairs[1:]):
        if h1 - h0 != 1:
            continue  # gap between segments: no transition observed
        if not (1 <= p0 <= m and 1 <= p1 <= m):
            raise EstimationError(f"regime out of range 1..{m} at hour {h0}")
        key = hour_bucket(h0, grouping)
        if key not in counts:
            counts[key] = np.zeros((m, m))
        counts[key][p0 - 1, p1 - 1] += 1
        n_transitions += 1
    if n_transitions == 0:
        raise EstimationError("no consecutive-hour transitions in the data")

    matrices = {}
    for key in sorted(counts):
        c = counts[key]
        row_totals = c.sum(axis=1)
        if alpha == 0 and np.any(row_totals == 0):
            missing = [p + 1 for p in np.flatnonzero(row_totals == 0)]
            raise EstimationError(
                f"bucket {key}: regimes {missing} have no outgoing transitions; "
                "use alpha > 0 to smooth unobserved rows"
            )
        mat = (c + alpha) / (row_totals + m * alpha)[:, None]
        assert np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-9)
        matrices[key] = mat
    return TransitionModel(m=m, alpha=alpha, grouping=grouping, matrices=matrices)


def matrix_at(model: TransitionModel, hour_index: int) -> np.ndarray:
    """Row-stochastic matrix governing the transition out of `hour_index`."""
    key = hour_bucket(hour_index, model.grouping)
    try:
        return model.matrices[key]
    except KeyError:
        raise BucketError(
            f"no transition matrix for bucket {key} "
            f"(hour {hour_index}, grouping {model.grouping})"
        ) from None


def save_model(model: TransitionModel, path) -> None:
    artifacts.write_json(path, {
        "kind": "transition-model",
        "m": model.m,
        "alpha": model.alpha,
        "grouping": model.grouping,
        "buckets": {key: mat.flatten().tolist()
                    for key, mat in model.matrices.items()},
    })


def load_model(path) -> TransitionModel:
    doc = artifacts.read_json(path, "transition-model",
                              keys=("m", "alpha", "grouping", "buckets"))
    m = doc["m"]
    matrices = {key: np.asarray(flat, dtype=float).reshape(m, m)
                for key, flat in doc["buckets"].items()}
    return TransitionModel(m=m, alpha=doc["alpha"], grouping=doc["grouping"],
                           matrices=matrices)
