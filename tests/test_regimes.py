import json

import numpy as np
import pytest

from coolsched.ingest import parse_timestamp
from coolsched.regimes import (BucketError, EstimationError, TransitionModel,
                               estimate, hour_bucket, matrix_at,
                               model_from_dict, model_to_dict)

KNOWN_4 = np.array([
    [0.70, 0.10, 0.10, 0.10],
    [0.20, 0.50, 0.20, 0.10],
    [0.10, 0.20, 0.50, 0.20],
    [0.05, 0.15, 0.30, 0.50],
])


def pooled_model(matrix, m=None):
    matrix = np.asarray(matrix, dtype=float)
    return TransitionModel(m=m or matrix.shape[0], alpha=0.0,
                           grouping="pooled", matrices={"all": matrix})


def sample_path(model: TransitionModel, start_regime: int, start_hour: int,
                n_hours: int, seed: int) -> np.ndarray:
    """Sample a regime path of length n_hours, deterministic in the seed."""
    if not 1 <= start_regime <= model.m:
        raise ValueError(f"start_regime must be in 1..{model.m}")
    rng = np.random.default_rng(seed)
    path = np.empty(n_hours, dtype=np.int64)
    path[0] = start_regime
    cumulative = {key: np.cumsum(mat, axis=1) for key, mat in model.matrices.items()}
    for i in range(1, n_hours):
        hour = start_hour + i - 1
        key = hour_bucket(hour, model.grouping)
        if key not in cumulative:
            raise BucketError(f"no transition matrix for bucket {key} (hour {hour})")
        row = cumulative[key][path[i - 1] - 1]
        path[i] = int(np.searchsorted(row, rng.random(), side="right")) + 1
    return path


def stationary_by_power_iteration(matrix, iters=10_000):
    """Left eigenvector oracle: iterate v <- v P from uniform."""
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(iters):
        nxt = v @ matrix
        if np.max(np.abs(nxt - v)) < 1e-14:
            return nxt
        v = nxt
    return v


def test_alternating_sequence_mle():
    hours = np.arange(100)
    regimes = 1 + hours % 2
    model = estimate(zip(hours, regimes), m=2, alpha=0.0, grouping="pooled")
    mat = model.matrices["all"]
    assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def test_smoothing_formula_single_regime():
    n_obs = 50
    pairs = [(h, 1) for h in range(n_obs)]
    model = estimate(pairs, m=4, alpha=1.0, grouping="pooled")
    mat = model.matrices["all"]
    n = n_obs - 1  # transitions
    assert mat[0, 0] == pytest.approx((n + 1) / (n + 4))
    assert np.allclose(mat[0, 1:], 1 / (n + 4))
    for row in mat[1:]:
        assert np.allclose(row, 0.25)  # unobserved rows smooth to uniform


def test_zero_count_row_requires_alpha():
    pairs = [(h, 1) for h in range(50)]
    with pytest.raises(EstimationError, match="alpha > 0"):
        estimate(pairs, m=4, alpha=0.0, grouping="pooled")


def test_estimate_rejects_unsorted_hours():
    with pytest.raises(EstimationError, match="increasing"):
        estimate([(0, 1), (0, 1), (1, 2)], m=2, alpha=0.5, grouping="pooled")


def test_estimate_rejects_out_of_range_regime():
    with pytest.raises(EstimationError, match="out of range"):
        estimate([(0, 1), (1, 5)], m=2, alpha=0.5, grouping="pooled")


def test_gap_breaks_transition_counting():
    # two segments; the 1 -> 2 jump across the gap must not be counted
    pairs = [(0, 1), (1, 1), (10, 2), (11, 2)]
    model = estimate(pairs, m=2, alpha=1.0, grouping="pooled")
    mat = model.matrices["all"]
    # counts: one 1->1 and one 2->2; no cross transitions
    assert mat[0, 0] == pytest.approx(2 / 3)
    assert mat[1, 1] == pytest.approx(2 / 3)


def test_rows_stochastic_within_tolerance():
    rng = np.random.default_rng(0)
    hours = np.arange(5000)
    regimes = rng.integers(1, 5, 5000)
    model = estimate(zip(hours, regimes), m=4, alpha=0.5, grouping="single")
    for mat in model.matrices.values():
        assert np.all(mat >= 0)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9


def test_estimate_recovers_known_chain():
    truth = pooled_model(KNOWN_4)
    path = sample_path(truth, start_regime=1, start_hour=0,
                       n_hours=100_001, seed=42)
    fitted = estimate(zip(np.arange(100_001), path), m=4, alpha=0.0,
                      grouping="pooled")
    err = np.max(np.abs(fitted.matrices["all"] - KNOWN_4))
    assert err <= 0.02


def test_estimator_consistency_improves_with_samples():
    truth = pooled_model(KNOWN_4)
    path = sample_path(truth, start_regime=1, start_hour=0,
                       n_hours=100_001, seed=7)
    errors = []
    for n in (1000, 10_000, 100_000):
        fitted = estimate(zip(np.arange(n + 1), path[:n + 1]), m=4, alpha=0.0,
                          grouping="pooled")
        errors.append(np.max(np.abs(fitted.matrices["all"] - KNOWN_4)))
    assert errors[0] >= errors[1] >= errors[2]


def test_alpha_limit_is_uniform():
    rng = np.random.default_rng(1)
    hours = np.arange(2000)
    regimes = rng.integers(1, 5, 2000)
    model = estimate(zip(hours, regimes), m=4, alpha=1e12, grouping="pooled")
    assert np.allclose(model.matrices["all"], 0.25, atol=1e-6)


def test_bucket_keys():
    h_june = parse_timestamp("2024-06-15T07:00:00Z")
    assert hour_bucket(h_june, "month") == "07-m06"
    assert hour_bucket(h_june, "season") == "07-jja"
    assert hour_bucket(h_june, "single") == "07"
    assert hour_bucket(h_june, "pooled") == "all"
    with pytest.raises(ValueError):
        hour_bucket(h_june, "weekly")


def test_matrix_at_same_bucket_24h_apart():
    rng = np.random.default_rng(3)
    start = parse_timestamp("2024-06-01T00:00:00Z")
    hours = np.arange(start, start + 24 * 20)
    regimes = rng.integers(1, 3, len(hours))
    model = estimate(zip(hours, regimes), m=2, alpha=0.5, grouping="month")
    a = matrix_at(model, parse_timestamp("2024-06-05T13:00:00Z"))
    b = matrix_at(model, parse_timestamp("2024-06-06T13:00:00Z"))
    assert np.array_equal(a, b)


def test_matrix_at_month_boundary_uses_own_group():
    rng = np.random.default_rng(4)
    start = parse_timestamp("2024-06-01T00:00:00Z")
    hours = np.arange(start, start + 24 * 61)  # June + July
    regimes = rng.integers(1, 3, len(hours))
    model = estimate(zip(hours, regimes), m=2, alpha=0.5, grouping="month")
    boundary_hour = parse_timestamp("2024-06-30T23:00:00Z")
    june = model.matrices["23-m06"]
    july = model.matrices["23-m07"]
    assert np.array_equal(matrix_at(model, boundary_hour), june)
    assert not np.array_equal(june, july)


def test_matrix_at_uncovered_bucket():
    model = pooled_model(KNOWN_4)
    single = TransitionModel(m=4, alpha=0.0, grouping="single",
                             matrices={"00": KNOWN_4})
    assert np.array_equal(matrix_at(model, 123), KNOWN_4)
    with pytest.raises(BucketError):
        matrix_at(single, 13)


def test_sample_path_identity_is_constant():
    model = pooled_model(np.eye(3))
    path = sample_path(model, start_regime=2, start_hour=0, n_hours=500, seed=1)
    assert np.all(path == 2)


def test_sample_path_deterministic_in_seed():
    model = pooled_model(KNOWN_4)
    a = sample_path(model, 1, 0, 5000, seed=5)
    b = sample_path(model, 1, 0, 5000, seed=5)
    c = sample_path(model, 1, 0, 5000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_path_matches_stationary_distribution():
    model = pooled_model(KNOWN_4)
    path = sample_path(model, 1, 0, 100_000, seed=9)
    empirical = np.bincount(path - 1, minlength=4) / len(path)
    target = stationary_by_power_iteration(KNOWN_4)
    assert np.max(np.abs(empirical - target)) <= 0.02


def test_sample_path_validates_start():
    with pytest.raises(ValueError):
        sample_path(pooled_model(KNOWN_4), 0, 0, 10, seed=0)


def test_serialization_round_trip():
    rng = np.random.default_rng(8)
    start = parse_timestamp("2024-06-01T00:00:00Z")
    hours = np.arange(start, start + 24 * 30)
    model = estimate(zip(hours, rng.integers(1, 4, len(hours))), m=3,
                     alpha=0.5, grouping="season")
    doc = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(doc)
    assert back.m == model.m and back.grouping == model.grouping
    assert set(back.matrices) == set(model.matrices)
    for key in model.matrices:
        assert np.array_equal(back.matrices[key], model.matrices[key])


def test_transition_model_validates_matrices():
    bad = np.array([[0.5, 0.4], [0.2, 0.8]])  # first row sums to 0.9
    with pytest.raises(ValueError, match="stochastic"):
        TransitionModel(m=2, alpha=0.0, grouping="pooled", matrices={"all": bad})
