"""Regime-transition estimation: bucketed MLE with Laplace smoothing.

One absolute hour per regime observation. Transitions between consecutive
hours are pooled into buckets keyed by (hour of day, calendar group), which
keeps the chain time-inhomogeneous while giving each matrix enough samples.
Gaps in the observation sequence (e.g. the winters between summer windows)
contribute no transitions.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

GROUPINGS = ("month", "season", "single", "pooled")

# season of calendar month k (1..12) is _SEASONS[k % 12 // 3]
_SEASONS = ("djf", "mam", "jja", "son")


class EstimationError(ValueError):
    """Transition counts cannot produce a valid stochastic matrix."""


class BucketError(LookupError):
    """No matrix was estimated for the requested hour's bucket."""


_HODS = [f"{d:02d}" for d in range(24)]

# bucket keys of each grouping, in the order of _bucket_codes
_BUCKET_KEYS = {
    "pooled": ("all",),
    "single": tuple(_HODS),
    "month": tuple(f"{h}-m{k:02d}" for h in _HODS for k in range(1, 13)),
    "season": tuple(f"{h}-{name}" for h in _HODS for name in _SEASONS),
}


def _bucket_codes(hours, grouping: str) -> np.ndarray:
    """Index into _BUCKET_KEYS[grouping] of the bucket of each hour."""
    if grouping not in _BUCKET_KEYS:
        raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")
    hours = np.asarray(hours, dtype=np.int64)
    if grouping == "pooled":
        return np.zeros_like(hours)
    hod = hours % 24
    if grouping == "single":
        return hod
    month = (hours.astype("datetime64[h]").astype("datetime64[M]")
             .astype(np.int64) % 12)  # 0 for January
    if grouping == "month":
        return hod * 12 + month
    return hod * 4 + (month + 1) % 12 // 3


def hour_bucket(hour: int, grouping: str) -> str:
    """Bucket key of the transition leaving `hour`."""
    code = int(_bucket_codes(hour, grouping))
    return _BUCKET_KEYS[grouping][code]


@dataclass
class TransitionModel:
    """Row-stochastic M x M matrices, one per covered bucket."""

    KIND: ClassVar[str] = "transition-model"  # the files' tag
    m: int
    alpha: float
    grouping: str
    matrices: dict  # bucket key -> (M, M) ndarray

    def __post_init__(self):
        if self.grouping not in GROUPINGS:
            raise ValueError(f"grouping must be one of {GROUPINGS}, "
                             f"got {self.grouping!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        known = set(_BUCKET_KEYS[self.grouping])
        foreign = [key for key in self.matrices if key not in known]
        if foreign:
            raise ValueError(f"bucket {foreign[0]}: not a {self.grouping} "
                             "bucket")
        keys = list(self.matrices)
        mats = [np.asarray(self.matrices[key]) for key in keys]
        for key, mat in zip(keys, mats):
            if mat.dtype.kind not in "iuf":
                raise ValueError(f"bucket {key}: matrix entries must be numbers")
        mats = [np.asarray(mat, dtype=float) for mat in mats]
        # the first bucket that fails either check, in key order, is named
        shaped = next((k for k, mat in enumerate(mats)
                       if mat.shape != (self.m, self.m)), len(mats))
        if shaped:
            stack = np.stack(mats[:shaped])
            # a NaN entry compares False, so it is refused
            bad = ~(np.all(stack >= 0, axis=(1, 2))
                    & np.all(np.abs(stack.sum(axis=2) - 1.0) <= 1e-9, axis=1))
            if bad.any():
                raise ValueError(f"bucket {keys[bad.argmax()]}: matrix is not "
                                 "row-stochastic")
        if shaped < len(mats):
            raise ValueError(f"bucket {keys[shaped]}: matrix shape "
                             f"{mats[shaped].shape} != ({self.m}, {self.m})")
        self.matrices.update(zip(keys, mats))


def estimate(observations, m: int, alpha: float,
             grouping: str = "month") -> TransitionModel:
    """MLE of bucketed transition matrices from (hour, regime) observations,
    an (n, 2) integer array of one row per observation.

    Entry (p, p') of a bucket's matrix is
    (count(p -> p') + alpha) / (sum_q count(p -> q) + M * alpha);
    alpha = 0 gives the unsmoothed maximum-likelihood estimate and requires
    every regime row of every covered bucket to be observed at least once.
    """
    if m < 1:
        raise EstimationError("m must be >= 1")
    if alpha < 0:
        raise EstimationError("alpha must be >= 0")
    observations = np.asarray(observations, dtype=np.int64)
    if observations.size and observations.shape[1:] != (2,):
        raise EstimationError("observations must be (hour, regime) rows, got "
                              f"shape {observations.shape}")
    hours, labels = observations.reshape(-1, 2).T
    if len(labels) < 2:
        raise EstimationError("need at least two classified observations")
    step = np.diff(hours)
    if np.any(step <= 0):
        raise EstimationError("hour indices must be strictly increasing")
    start = np.flatnonzero(step == 1)  # a gap observes no transition
    if start.size == 0:
        raise EstimationError("no consecutive-hour transitions in the data")
    p0, p1 = labels[start] - 1, labels[start + 1] - 1
    out_of_range = (p0 < 0) | (p0 >= m) | (p1 < 0) | (p1 >= m)
    if out_of_range.any():
        raise EstimationError(f"regime out of range 1..{m} at hour "
                              f"{hours[start[out_of_range.argmax()]]}")
    codes, keys = _bucket_codes(hours[start], grouping), _BUCKET_KEYS[grouping]
    counts = np.bincount((codes * m + p0) * m + p1,
                         minlength=len(keys) * m * m).reshape(-1, m, m)
    covered = {keys[b]: counts[b]
               for b in np.flatnonzero(counts.any(axis=(1, 2)))}

    matrices = {}
    for key in sorted(covered):
        c = covered[key].astype(float)
        row_totals = c.sum(axis=1)
        if alpha == 0 and np.any(row_totals == 0):
            missing = [p + 1 for p in np.flatnonzero(row_totals == 0)]
            raise EstimationError(
                f"bucket {key}: regimes {missing} have no outgoing transitions; "
                "use alpha > 0 to smooth unobserved rows"
            )
        matrices[key] = (c + alpha) / (row_totals + m * alpha)[:, None]
    return TransitionModel(m=m, alpha=alpha, grouping=grouping, matrices=matrices)


def _uncovered(model: TransitionModel, key: str, hour_index: int) -> BucketError:
    return BucketError(f"no transition matrix for bucket {key} "
                       f"(hour {hour_index}, grouping {model.grouping})")


def matrix_at(model: TransitionModel, hour_index: int) -> np.ndarray:
    """Row-stochastic matrix governing the transition out of `hour_index`."""
    key = hour_bucket(hour_index, model.grouping)
    try:
        return model.matrices[key]
    except KeyError:
        raise _uncovered(model, key, hour_index) from None


def matrices_at(model: TransitionModel, hours) -> np.ndarray:
    """`matrix_at` of each hour, stacked to (len(hours), M, M), from one
    bucket lookup; the first hour whose bucket has no matrix raises."""
    hours = np.asarray(hours, dtype=np.int64)
    keys = _BUCKET_KEYS[model.grouping]
    codes = _bucket_codes(hours, model.grouping)
    used, inverse = np.unique(codes, return_inverse=True)
    missing = [code for code in used.tolist() if keys[code] not in model.matrices]
    if missing:
        first = int(np.flatnonzero(np.isin(codes, missing))[0])
        raise _uncovered(model, keys[codes[first]], int(hours[first]))
    return np.stack([model.matrices[keys[code]] for code in used.tolist()])[inverse]
