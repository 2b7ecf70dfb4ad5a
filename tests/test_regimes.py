from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coolsched import artifacts
from coolsched.ingest import parse_timestamp
from coolsched.regimes import (GROUPINGS, BucketError, EstimationError,
                               TransitionModel, estimate, hour_bucket,
                               matrices_at, matrix_at)

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


def _hour_bucket_reference(hour, grouping):
    """regimes.hour_bucket through datetime, as it was first written."""
    if grouping == "pooled":
        return "all"
    hod = int(hour) % 24
    if grouping == "single":
        return f"{hod:02d}"
    month = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc).month
    if grouping == "month":
        return f"{hod:02d}-m{month:02d}"
    return f"{hod:02d}-{('djf', 'mam', 'jja', 'son')[month % 12 // 3]}"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**5, 10**6), st.sampled_from(GROUPINGS))
@example(parse_timestamp("2024-03-01T00:00:00Z"), "season")
@example(parse_timestamp("2023-12-31T23:00:00Z"), "month")
@example(-1, "month")
def test_hour_bucket_matches_reference(hour, grouping):
    assert hour_bucket(hour, grouping) == _hour_bucket_reference(hour, grouping)
    assert hour_bucket(np.int64(hour), grouping) == \
        _hour_bucket_reference(hour, grouping)


def _estimate_reference(classified, m, alpha, grouping):
    """regimes.estimate one transition at a time, as it was first written."""
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
        key = _hour_bucket_reference(h0, grouping)
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
        matrices[key] = (c + alpha) / (row_totals + m * alpha)[:, None]
    return TransitionModel(m=m, alpha=alpha, grouping=grouping, matrices=matrices)


def _outcome(fit, hours, labels, m, alpha, grouping):
    """The EstimationError text, or the bucket keys in order and each
    matrix's bytes."""
    try:
        model = fit(np.column_stack((hours, labels)), m, alpha, grouping)
    except EstimationError as exc:
        return str(exc)
    return [(key, mat.tobytes()) for key, mat in model.matrices.items()]


@st.composite
def chain_samples(draw):
    """Segments of hours with gaps (some across months), labels in 1..m,
    and now and then an unsorted hour or a label out of range."""
    m = draw(st.integers(1, 4))
    # steps of 1 are transitions; longer ones are gaps
    steps = draw(st.lists(st.sampled_from((1,) * 8 + (2, 25, 24 * 31)),
                          max_size=300))
    labels = draw(st.lists(st.integers(1, m), min_size=len(steps) + 1,
                           max_size=len(steps) + 1))
    if steps and draw(st.integers(0, 9)) == 0:
        steps[draw(st.integers(0, len(steps) - 1))] = draw(st.integers(-2, 0))
    if draw(st.integers(0, 9)) == 0:
        labels[draw(st.integers(0, len(steps)))] = draw(
            st.sampled_from([-1, 0, m + 1]))
    start = draw(st.integers(-10**5, 10**6))   # 1958 to 2084
    hours = start + np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    alpha = draw(st.sampled_from([0.0, 0, 0.5, 1.0]) | st.floats(0, 10))
    return hours, np.array(labels), m, alpha, draw(st.sampled_from(GROUPINGS))


@settings(max_examples=300, deadline=None)
@given(chain_samples())
@example((np.arange(4), np.array([1, 1, 2, 2]), 2, 0.0, "pooled"))
@example((np.array([0, 1, 1]), np.array([1, 1, 2]), 2, 0.5, "month"))
@example((np.array([5, 6, 7, 9]), np.array([1, 2, 3, 1]), 2, 0.5, "season"))
def test_estimate_matches_reference(sample):
    hours, labels, m, alpha, grouping = sample
    assert _outcome(estimate, hours, labels, m, alpha, grouping) == \
        _outcome(_estimate_reference, hours.tolist(), labels.tolist(), m,
                 alpha, grouping)


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
    model = estimate(np.column_stack((hours, regimes)), m=2, alpha=0.0,
                     grouping="pooled")
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


@pytest.mark.parametrize("shape", [(6,), (3, 3), (3, 1), (2, 3, 2), ()],
                         ids=["flat", "three-columns", "one-column",
                              "three-d", "scalar"])
def test_estimate_rejects_observations_that_are_not_pairs(shape):
    observations = np.ones(shape, dtype=np.int64)
    with pytest.raises(EstimationError, match="rows"):
        estimate(observations, m=2, alpha=0.5, grouping="pooled")


@pytest.mark.parametrize("observations", [[], np.empty((0, 2))],
                         ids=["empty-list", "empty-array"])
def test_estimate_needs_two_observations(observations):
    with pytest.raises(EstimationError, match="at least two"):
        estimate(observations, m=2, alpha=0.5, grouping="pooled")


def test_estimate_reads_a_list_of_rows_as_the_array():
    # bench/layertrace.py hands a traced run's observations over as a list
    # of the array's rows
    rng = np.random.default_rng(5)
    observations = np.column_stack((np.arange(300), rng.integers(1, 4, 300)))
    expected = estimate(observations, 3, 0.5, "single").matrices
    for rows in (list(observations), observations.tolist()):
        got = estimate(rows, 3, 0.5, "single").matrices
        assert list(got) == list(expected)
        assert all(np.array_equal(got[key], expected[key]) for key in got)


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
    model = estimate(np.column_stack((hours, regimes)), m=4, alpha=0.5,
                     grouping="single")
    for mat in model.matrices.values():
        assert np.all(mat >= 0)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9


def test_estimate_recovers_known_chain():
    truth = pooled_model(KNOWN_4)
    path = sample_path(truth, start_regime=1, start_hour=0,
                       n_hours=100_001, seed=42)
    fitted = estimate(np.column_stack((np.arange(100_001), path)), m=4,
                      alpha=0.0, grouping="pooled")
    err = np.max(np.abs(fitted.matrices["all"] - KNOWN_4))
    assert err <= 0.02


def test_estimator_consistency_improves_with_samples():
    truth = pooled_model(KNOWN_4)
    path = sample_path(truth, start_regime=1, start_hour=0,
                       n_hours=100_001, seed=7)
    errors = []
    for n in (1000, 10_000, 100_000):
        fitted = estimate(np.column_stack((np.arange(n + 1), path[:n + 1])),
                          m=4, alpha=0.0, grouping="pooled")
        errors.append(np.max(np.abs(fitted.matrices["all"] - KNOWN_4)))
    assert errors[0] >= errors[1] >= errors[2]


def test_alpha_limit_is_uniform():
    rng = np.random.default_rng(1)
    hours = np.arange(2000)
    regimes = rng.integers(1, 5, 2000)
    model = estimate(np.column_stack((hours, regimes)), m=4, alpha=1e12,
                     grouping="pooled")
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
    model = estimate(np.column_stack((hours, regimes)), m=2, alpha=0.5,
                     grouping="month")
    a = matrix_at(model, parse_timestamp("2024-06-05T13:00:00Z"))
    b = matrix_at(model, parse_timestamp("2024-06-06T13:00:00Z"))
    assert np.array_equal(a, b)


def test_matrix_at_month_boundary_uses_own_group():
    rng = np.random.default_rng(4)
    start = parse_timestamp("2024-06-01T00:00:00Z")
    hours = np.arange(start, start + 24 * 61)  # June + July
    regimes = rng.integers(1, 3, len(hours))
    model = estimate(np.column_stack((hours, regimes)), m=2, alpha=0.5,
                     grouping="month")
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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GROUPINGS), st.integers(-10**5, 10**6),
       st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_matrices_at_matches_matrix_at(grouping, start, n, seed):
    # a chain estimated on a random subset of hours leaves some buckets
    # uncovered; the stacked lookup raises the first hour's error
    rng = np.random.default_rng(seed)
    hours = start + np.union1d([0, 1], np.flatnonzero(
        rng.random(2000) < rng.random()))
    labels = rng.integers(1, 4, len(hours))
    model = estimate(np.column_stack((hours, labels)), m=3, alpha=0.5,
                     grouping=grouping)
    cycle = start + rng.integers(0, 2000) + np.arange(n)
    try:
        expected = np.stack([matrix_at(model, int(h)) for h in cycle])
    except BucketError as exc:
        with pytest.raises(BucketError) as raised:
            matrices_at(model, cycle)
        assert str(raised.value) == str(exc)
    else:
        assert np.array_equal(matrices_at(model, cycle), expected)


def test_matrices_at_names_the_first_uncovered_hour():
    single = TransitionModel(m=4, alpha=0.0, grouping="single",
                             matrices={"00": KNOWN_4, "02": KNOWN_4})
    assert np.array_equal(matrices_at(single, [24, 0, 2]),
                          np.stack([KNOWN_4] * 3))
    with pytest.raises(BucketError, match=r"^no transition matrix for bucket 03 "
                       r"\(hour 27, grouping single\)$"):
        matrices_at(single, [24, 27, 26, 1])


def _first_bad_bucket(matrices, m):
    """The ValueError text of a per-matrix check in key order."""
    for key, mat in matrices.items():
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (m, m):
            return f"bucket {key}: matrix shape {mat.shape} != ({m}, {m})"
        if np.any(mat < 0) or np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-9):
            return f"bucket {key}: matrix is not row-stochastic"
    return None


_FAULTS = {
    "good": lambda mat: mat,
    "negative": lambda mat: mat - np.eye(len(mat)) * 2,
    "row-sum": lambda mat: mat * (1 + 1e-8),
    "shape": lambda mat: mat[:, :-1],
    "flat": lambda mat: mat.ravel(),
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=8),
       st.integers(0, 2**32 - 1))
def test_stacked_check_names_the_first_bad_bucket(faults, seed):
    rng = np.random.default_rng(seed)
    matrices = {f"{k:02d}": _FAULTS[fault](rng.dirichlet(np.ones(3), size=3))
                for k, fault in enumerate(faults)}
    expected = _first_bad_bucket(matrices, 3)
    if expected is None:
        model = TransitionModel(m=3, alpha=0.5, grouping="single",
                                matrices=dict(matrices))
        assert list(model.matrices) == list(matrices)
        for key, mat in matrices.items():
            assert np.array_equal(model.matrices[key], mat)
    else:
        with pytest.raises(ValueError) as raised:
            TransitionModel(m=3, alpha=0.5, grouping="single",
                            matrices=dict(matrices))
        assert str(raised.value) == expected


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


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    start = parse_timestamp("2024-06-01T00:00:00Z")
    hours = np.arange(start, start + 24 * 30)
    labels = rng.integers(1, 4, len(hours))
    model = estimate(np.column_stack((hours, labels)), m=3, alpha=0.5,
                     grouping="season")
    artifacts.write_model(tmp_path / "transition_model.json", model)
    back = artifacts.read_model(tmp_path / "transition_model.json",
                                TransitionModel)
    assert back.m == model.m and back.grouping == model.grouping
    assert set(back.matrices) == set(model.matrices)
    for key in model.matrices:
        assert np.array_equal(back.matrices[key], model.matrices[key])


def test_transition_model_validates_matrices():
    bad = np.array([[0.5, 0.4], [0.2, 0.8]])  # first row sums to 0.9
    with pytest.raises(ValueError, match="stochastic"):
        TransitionModel(m=2, alpha=0.0, grouping="pooled", matrices={"all": bad})


@pytest.mark.parametrize("grouping, key", [
    ("single", "99-bogus"), ("single", "07-m06"), ("month", "07"),
    ("season", "07-m06"), ("pooled", "00"), ("month", "24-m01")])
def test_transition_model_refuses_foreign_buckets(grouping, key):
    # a bucket its grouping lacks would be loaded and never looked up
    matrices = {hour_bucket(0, grouping): np.eye(2), key: np.eye(2)}
    with pytest.raises(ValueError, match=f"^bucket {key}: not a {grouping} "
                       "bucket$"):
        TransitionModel(m=2, alpha=0.5, grouping=grouping, matrices=matrices)
