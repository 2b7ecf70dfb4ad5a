import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coolsched.qfr import (FitError, FourierDesign, RegimeModel, QuantileFit,
                           classify, classify_series, design_matrix,
                           fit_quantile, fit_regimes, model_from_dict,
                           model_to_dict, pinball_loss, price_table)

DAILY = FourierDesign(daily_harmonics=2, seasonal_harmonics=0)


def primal_fit(hours, prices, tau, design):
    """Reference quantile fit: the residual-split primal LP.

    With beta = b+ - b- and residual y - X beta = u - v (u, v >= 0),
    minimize (tau * sum u + (1 - tau) * sum v) / n subject to
    X(b+ - b-) + u - v = y. Returns the fit and whether its optimum is
    certified unique: when k observations with linearly independent rows
    carry dual values strictly inside (0, 1), complementary slackness makes
    every optimal fit pass through them, which fixes the coefficients.
    """
    y = np.asarray(prices, dtype=float)
    X = design_matrix(hours, design)
    n, k = X.shape
    identity = sp.identity(n, format="csc")
    a_eq = sp.hstack([sp.csc_matrix(X), identity, -identity], format="csc")
    c = np.concatenate([np.zeros(k), np.full(n, tau / n),
                        np.full(n, (1.0 - tau) / n)])
    bounds = [(None, None)] * k + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.success, res.message
    d = n * res.eqlin.marginals + (1.0 - tau)  # dual values in [0, 1]
    interior = (d > 1e-9) & (d < 1 - 1e-9)
    unique = np.linalg.matrix_rank(X[interior]) == k
    return QuantileFit(tau, res.x[:k]), unique


def _one_boundary(fit, design):
    # Two bands split by `fit` alone: representatives equal to the boundary
    # leave it in place through the rearrangement.
    return RegimeModel(2, [fit], [fit, fit], design)


@st.composite
def quantile_problems(draw):
    design = FourierDesign(daily_harmonics=draw(st.integers(0, 3)),
                           seasonal_harmonics=draw(st.integers(0, 2)),
                           period_daily=draw(st.integers(2, 48)),
                           period_seasonal=draw(st.integers(49, 8760)))
    n = draw(st.integers(10 * design.n_features, 400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hours = np.sort(gen.integers(0, 20_000, n))
    phase = 2 * np.pi * (hours % design.period_daily) / design.period_daily
    kind = draw(st.sampled_from(["normal", "cauchy", "repeated", "spikes"]))
    if kind == "normal":
        noise = gen.standard_normal(n)
    elif kind == "cauchy":
        noise = gen.standard_cauchy(n)
    elif kind == "repeated":
        noise = gen.integers(0, draw(st.integers(2, 6)), n).astype(float)
    else:
        noise = np.where(gen.random(n) < 0.1, gen.pareto(1.5, n) * 50, 0.0)
    prices = 40 + draw(st.floats(0, 30)) * np.sin(phase) + 10 * noise
    tau = draw(st.floats(0.02, 0.98))
    return hours, prices, tau, design


@settings(max_examples=40, deadline=None)
@given(quantile_problems())
def test_dual_fit_matches_primal_reference(problem):
    hours, prices, tau, design = problem
    dual = fit_quantile(hours, prices, tau, design)
    primal, unique = primal_fit(hours, prices, tau, design)
    X = design_matrix(hours, design)
    dual_loss = pinball_loss(prices, X @ dual.coefficients, tau)
    primal_loss = pinball_loss(prices, X @ primal.coefficients, tau)
    assert dual_loss == pytest.approx(primal_loss, rel=1e-9, abs=1e-12)
    if unique:
        # With several optimal fits (say an intercept-only median with tau * n
        # whole) each may split the tied prices differently; no label is right.
        assert np.array_equal(
            classify_series(_one_boundary(dual, design), hours, prices),
            classify_series(_one_boundary(primal, design), hours, prices))


@pytest.fixture(scope="module")
def uniform_model():
    """4-regime model fitted on i.i.d. uniform(0, 100) prices."""
    rng = np.random.default_rng(11)
    hours = np.arange(20_000)
    prices = rng.uniform(0, 100, 20_000)
    return fit_regimes(hours, prices, 4, DAILY), hours, prices


@pytest.fixture(scope="module")
def sinusoid_fit():
    """Median fit on a noisy 24 h sinusoid (symmetric noise)."""
    rng = np.random.default_rng(12)
    hours = np.arange(4000)
    y = 100 + 50 * np.sin(2 * np.pi * (hours % 24) / 24) + rng.laplace(0, 5, 4000)
    design = FourierDesign(daily_harmonics=1, seasonal_harmonics=0)
    return fit_quantile(hours, y, 0.5, design), hours, y, design


def test_design_length():
    d = FourierDesign(daily_harmonics=3, seasonal_harmonics=2)
    assert d.n_features == 1 + 2 * 3 + 2 * 2
    assert design_matrix([100], d).shape == (1, 11)


def test_design_phase_zero():
    d = FourierDesign(daily_harmonics=2, seasonal_harmonics=1)
    row = design_matrix([0], d)[0]
    assert row[0] == 1.0
    assert np.allclose(row[1::2], 0.0)  # sines
    assert np.allclose(row[2::2], 1.0)  # cosines


def test_design_quarter_period():
    d = FourierDesign(daily_harmonics=1, seasonal_harmonics=0)
    row = design_matrix([6], d)[0]
    assert row[0] == 1.0
    assert row[1] == pytest.approx(1.0, abs=1e-12)  # sin(pi/2)
    assert row[2] == pytest.approx(0.0, abs=1e-12)  # cos(pi/2)


def test_design_exactly_periodic():
    d = FourierDesign(daily_harmonics=3, seasonal_harmonics=2)
    hours = np.array([0, 1, 12345])
    assert np.array_equal(design_matrix(hours, d), design_matrix(hours + 17520, d))
    assert np.array_equal(design_matrix(hours, d), design_matrix(hours + 8760, d))


def test_fit_constant_data():
    hours = np.arange(200)
    fit = fit_quantile(hours, np.full(200, 50.0), 0.3, DAILY)
    assert fit.coefficients[0] == 50.0
    assert np.all(fit.coefficients[1:] == 0.0)
    assert fit.evaluate(77, DAILY) == pytest.approx(50.0)


def test_fit_requires_enough_data():
    with pytest.raises(FitError, match="observations"):
        fit_quantile(np.arange(10), np.ones(10), 0.5, DAILY)


def test_fit_rejects_bad_tau():
    with pytest.raises(FitError):
        fit_quantile(np.arange(100), np.ones(100), 0.0, DAILY)
    with pytest.raises(FitError):
        fit_quantile(np.arange(100), np.ones(100), 1.2, DAILY)


def test_fit_recovers_noiseless_sinusoid():
    hours = np.arange(480)
    y = 100 + 50 * np.sin(2 * np.pi * (hours % 24) / 24)
    design = FourierDesign(daily_harmonics=1, seasonal_harmonics=0)
    fit = fit_quantile(hours, y, 0.5, design)
    assert fit.coefficients[0] == pytest.approx(100.0, abs=1.0)
    amplitude = np.hypot(fit.coefficients[1], fit.coefficients[2])
    assert amplitude == pytest.approx(50.0, abs=1.0)


def test_fit_uniform_lower_quartile():
    rng = np.random.default_rng(4)
    hours = np.arange(10_000)
    fit = fit_quantile(hours, rng.uniform(0, 100, 10_000), 0.25, DAILY)
    curve = fit.evaluate(np.arange(48), DAILY)
    assert np.all(curve >= 20.0) and np.all(curve <= 30.0)


def test_fit_beats_constant_quantile(sinusoid_fit):
    fit, hours, y, design = sinusoid_fit
    fitted = pinball_loss(y, fit.evaluate(hours, design), 0.5)
    constant = pinball_loss(y, np.quantile(y, 0.5), 0.5)
    assert fitted <= constant + 1e-9


def test_fit_is_local_minimum(sinusoid_fit):
    # convex problem: +-1% coefficient nudges cannot improve the loss
    fit, hours, y, design = sinusoid_fit
    X = design_matrix(hours, design)
    base = pinball_loss(y, X @ fit.coefficients, 0.5)
    for j in range(len(fit.coefficients)):
        for factor in (0.99, 1.01):
            coef = fit.coefficients.copy()
            coef[j] = coef[j] * factor if coef[j] != 0 else 0.01
            assert pinball_loss(y, X @ coef, 0.5) >= base - 1e-6


def test_fit_regimes_levels(uniform_model):
    model, _, _ = uniform_model
    assert [f.tau for f in model.boundary_fits] == [0.25, 0.5, 0.75]
    assert [f.tau for f in model.representative_fits] == [0.125, 0.375, 0.625, 0.875]


def test_fit_regimes_eight_has_seven_boundaries():
    rng = np.random.default_rng(5)
    hours = np.arange(4000)
    model = fit_regimes(hours, rng.uniform(0, 100, 4000), 8, DAILY)
    assert len(model.boundary_fits) == 7
    assert len(model.representative_fits) == 8


def test_fit_regimes_rejects_bad_m():
    with pytest.raises(FitError):
        fit_regimes(np.arange(100), np.ones(100), 1, DAILY)
    with pytest.raises(FitError):
        fit_regimes(np.arange(100), np.ones(100), 17, DAILY)


def test_fit_regimes_constant_data():
    hours = np.arange(300)
    model = fit_regimes(hours, np.full(300, 50.0), 2, DAILY)
    assert price_table(model, [10])[0] == pytest.approx([50.0, 50.0])


def test_classify_extremes(uniform_model):
    model, _, _ = uniform_model
    for hour in (0, 13, 999):
        assert classify(model, hour, -1e9) == 1
        assert classify(model, hour, 1e9) == 4


def test_classify_boundary_tie_goes_low(uniform_model):
    model, _, _ = uniform_model
    for hour in (3, 17, 101):
        bounds, _ = model.surfaces_at(hour)
        for j, b in enumerate(bounds, start=1):
            assert classify(model, hour, float(b)) == j
            few_ulps_above = b
            for _ in range(4):
                few_ulps_above = np.nextafter(few_ulps_above, np.inf)
            assert classify(model, hour, float(few_ulps_above)) == j
            assert classify(model, hour, float(b * (1 + 1e-6))) == j + 1


def test_interpolated_training_prices_go_low(uniform_model):
    model, hours, prices = uniform_model
    bounds, _ = model.surfaces_at(hours)
    near = np.abs(prices[:, None] - bounds) <= 1e-12 * np.abs(bounds)
    rows, cols = np.nonzero(near)
    # each boundary fit passes through at least one observation per feature
    assert len(rows) >= len(model.boundary_fits) * DAILY.n_features
    assert np.array_equal(classify_series(model, hours[rows], prices[rows]),
                          cols + 1)
    for i, j in zip(rows, cols):
        assert classify(model, int(hours[i]), float(prices[i])) == j + 1


def test_classify_rejects_non_finite(uniform_model):
    model, _, _ = uniform_model
    with pytest.raises(ValueError):
        classify(model, 0, float("nan"))


def test_classify_series_matches_scalar(uniform_model):
    model, hours, prices = uniform_model
    sample = slice(0, 200)
    vec = classify_series(model, hours[sample], prices[sample])
    scalars = [classify(model, int(h), float(p))
               for h, p in zip(hours[sample], prices[sample])]
    assert np.array_equal(vec, scalars)


def test_representative_prices_near_mid_quantiles(uniform_model):
    model, _, _ = uniform_model
    expected = [12.5, 37.5, 62.5, 87.5]
    for row in price_table(model, np.arange(0, 72, 5)):
        assert row == pytest.approx(expected, abs=3.0)


def test_representatives_monotone(uniform_model):
    model, _, _ = uniform_model
    reps = price_table(model, np.arange(96))
    assert np.all(np.diff(reps, axis=1) >= 0)


def test_classify_representative_round_trip(uniform_model):
    model, _, _ = uniform_model
    hours = np.arange(0, 96, 3)
    for hour, reps in zip(hours, price_table(model, hours)):
        for p in range(1, 5):
            assert classify(model, int(hour), float(reps[p - 1])) == p


def test_boundaries_monotone_after_rearrangement(uniform_model):
    model, _, _ = uniform_model
    bounds, _ = model.surfaces_at(np.arange(200))
    assert np.all(np.diff(bounds, axis=1) >= 0)


def test_coverage_on_held_out(uniform_model):
    model, hours, _ = uniform_model
    held_out = np.random.default_rng(99).uniform(0, 100, len(hours))
    bounds, _ = model.surfaces_at(hours)
    for j, tau in enumerate((0.25, 0.5, 0.75)):
        frac = float(np.mean(held_out < bounds[:, j]))
        assert abs(frac - tau) <= 0.04


def test_model_serialization_round_trip(uniform_model):
    model, hours, prices = uniform_model
    doc = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(doc)
    assert back.m == model.m
    assert back.design == model.design
    for a, b in zip(model.boundary_fits, back.boundary_fits):
        assert a.tau == b.tau and np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(classify_series(back, hours[:300], prices[:300]),
                          classify_series(model, hours[:300], prices[:300]))


def test_regime_model_validates_counts():
    fit = QuantileFit(0.5, np.zeros(5))
    with pytest.raises(ValueError):
        RegimeModel(3, [fit], [fit, fit, fit], DAILY)
