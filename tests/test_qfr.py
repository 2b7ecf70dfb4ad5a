import hashlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coolsched import artifacts, qfr
from coolsched.ingest import parse_timestamp, synth_prices
from coolsched.qfr import (FitError, FourierDesign, RegimeModel, classify,
                           classify_series, design_matrix, fit_quantile,
                           fit_regimes, levels, pinball_loss, price_table)

DAILY = FourierDesign(daily_harmonics=2, seasonal_harmonics=0)


def primal_fit(hours, prices, tau, design):
    """Reference quantile fit: the residual-split primal LP.

    With beta = b+ - b- and residual y - X beta = u - v (u, v >= 0),
    minimize tau * sum u + (1 - tau) * sum v subject to X(b+ - b-) + u - v
    = y. That is n times the mean pinball loss, so HiGHS's absolute
    tolerances, here at their 1e-10 floor, act on reduced costs of order
    one rather than 1/n. As in the fit, the prices go in as z = (y - c) / h,
    centred and scaled up to a half-range of at least one, so that a tiny
    spread does not fall under those tolerances; the intercept column maps
    the fit back as beta = h beta_z + c e_0. Returns the coefficients and
    whether their optimum is certified unique: when k observations with linearly
    independent rows carry dual values strictly inside (0, 1),
    complementary slackness makes every optimal fit pass through them,
    which fixes the coefficients.
    """
    y = np.asarray(prices, dtype=float)
    c, h = 0.5 * (y.min() + y.max()), min(0.5 * np.ptp(y), 1.0)
    h = h if h > 0 else 1.0
    X = design_matrix(hours, design)
    n, k = X.shape
    identity = sp.identity(n, format="csc")
    a_eq = sp.hstack([sp.csc_matrix(X), identity, -identity], format="csc")
    cost = np.concatenate([np.zeros(k), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * k + [(0, None)] * (2 * n)
    res = linprog(cost, A_eq=a_eq, b_eq=(y - c) / h, bounds=bounds,
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    d = res.eqlin.marginals + (1.0 - tau)  # dual values in [0, 1]
    interior = (d > 1e-9) & (d < 1 - 1e-9)
    unique = np.linalg.matrix_rank(X[interior]) == k
    beta = h * res.x[:k]
    beta[0] += c
    return beta, unique


def _one_boundary(coefficients, design):
    # Two bands split by one curve: representatives equal to the boundary
    # leave it in place through the rearrangement.
    return RegimeModel(2, design, np.array([coefficients] * 3))


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


def _near_tied_clusters(prices):
    """Intercept-only 0.75 quantile of ten prices in two clusters, at 40
    and 50, each about 2e-7 wide: the vertex has a price within TIE_TOL on
    its curve, so the fit goes to HiGHS, whose default 1e-7 tolerances
    read the cluster's prices as tied."""
    return (np.arange(0, 10_000, 1_000), np.array(prices), 0.75,
            FourierDesign(daily_harmonics=0, seasonal_harmonics=0))


@settings(max_examples=40, deadline=None)
@given(quantile_problems())
# the optimum is tied with the 7th price; HiGHS's vertex lost to the constant
@example(_near_tied_clusters(
    [49.99999992993054, 50.000000113374774, 50.00000007006946,
     39.999999886625226, 50.00000007006946, 40.000000113374774, 50.0,
     40.00000007006946, 39.999999886625226, 50.000000113374774]))
# HiGHS's vertex was one price off the unique optimum
@example(_near_tied_clusters(
    [39.99999994827703, 50.00000005172297, 49.99999994827703,
     40.00000009320158, 39.99999990679842, 49.99999988377954,
     40.00000009320158, 49.99999990679842, 40.00000005172297,
     39.99999988377954]))
def test_dual_fit_matches_primal_reference(problem):
    hours, prices, tau, design = problem
    dual = fit_quantile(hours, prices, tau, design)
    primal, unique = primal_fit(hours, prices, tau, design)
    X = design_matrix(hours, design)
    dual_loss = pinball_loss(prices, X @ dual.coefficients, tau)
    primal_loss = pinball_loss(prices, X @ primal, tau)
    assert dual_loss == pytest.approx(primal_loss, rel=1e-9, abs=1e-12)
    if unique:
        # With several optimal fits (say an intercept-only median with tau * n
        # whole) each may split the tied prices differently; no label is right.
        assert np.array_equal(
            classify_series(_one_boundary(dual.coefficients, design), hours, prices),
            classify_series(_one_boundary(primal, design), hours, prices))


def test_one_week_fits_reach_the_optimum():
    # over one week the yearly harmonics are near-collinear with the
    # intercept (condition number 1.8e7). Both the fit and HiGHS alone
    # reach each level's optimum: on X itself HiGHS finds none at its
    # tolerance floor, and within its default tolerances one that can lose
    # several percent of pinball loss
    design = FourierDesign()
    for seed in range(20):
        series = synth_prices(seed, 168)
        hours, prices = series.hours, series.values
        X = design_matrix(hours, design)
        model, _ = fit_regimes(hours, prices, 4, design)
        for tau, fitted in zip(levels(4), model.coefficients):
            primal, _ = primal_fit(hours, prices, tau, design)
            best = pinball_loss(prices, X @ primal, tau)
            for coef in (fitted, qfr._dual_simplex(X, prices, tau)):
                assert pinball_loss(prices, X @ coef, tau) == \
                    pytest.approx(best, rel=1e-9)


def _labels(coefficients, design, hours, prices):
    return classify_series(_one_boundary(coefficients, design), hours, prices)


def _two_summers():
    """Two summers 8760 h apart, so every design row appears twice; the
    second summer's prices differ from the first's by about 1e-6."""
    gen = np.random.default_rng(6)
    first = np.arange(4000, 4100)
    base = (40 + 20 * np.sin(2 * np.pi * (first % 24) / 24)
            + 10 * gen.standard_normal(100))
    prices = np.concatenate([base, base + 1e-6 * gen.standard_normal(100)])
    return (np.concatenate([first, first + 8760]), prices, 0.3,
            FourierDesign(daily_harmonics=2, seasonal_harmonics=1))


def _short_daily_period():
    """period_daily=2 zeroes the daily sine column: a rank-deficient design."""
    gen = np.random.default_rng(7)
    return (np.arange(60), 40 + 10 * gen.standard_normal(60), 0.4,
            FourierDesign(daily_harmonics=1, seasonal_harmonics=0,
                          period_daily=2))


def _whole_median():
    """Intercept-only median of 100 prices: tau * n is whole, so the basic
    dual value is 0 or 1 and the optimum is not unique."""
    gen = np.random.default_rng(8)
    return (np.arange(100), 40 + 10 * gen.standard_normal(100), 0.5,
            FourierDesign(daily_harmonics=0, seasonal_harmonics=0))


def _tied_median():
    """Intercept-only median of 11 prices, two of them equal to it: the
    vertex through one has the other on its curve."""
    return (np.arange(11), np.array([1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10.0]), 0.5,
            FourierDesign(daily_harmonics=0, seasonal_harmonics=0))


def _spiky_prices():
    """1,000 hours of the synthetic spot prices, at the paper's design."""
    series = synth_prices(9, 1000)
    return series.hours, series.values, 0.5, FourierDesign()


def _paper_summers():
    """Two summers of the synthetic spot prices 8760 h apart, at the
    paper's design (k = 11): every design row appears twice, as in the
    benchmark's three training summers."""
    start = parse_timestamp("2022-01-01T00:00:00Z")
    series = synth_prices(16, 2 * 8760, start=start)
    first = parse_timestamp("2022-06-01T00:00:00Z") - start
    keep = np.r_[first:first + 2208, first + 8760:first + 8760 + 2208]
    return series.hours[keep], series.values[keep], 0.5, FourierDesign()


@settings(max_examples=40, deadline=None)
@given(quantile_problems(), st.sampled_from([0, 2, 3, 4]))
@example(_two_summers(), 0)
@example(_short_daily_period(), 0)
@example(_whole_median(), 0)
@example(_tied_median(), 0)
@example(_spiky_prices(), 4)
@example(_paper_summers(), 4)
def test_interior_point_matches_dual_simplex(problem, m):
    """Each level against HiGHS on the same bounded dual: m = 0 fits the
    drawn tau alone, m >= 2 the 2m - 1 levels of fit_regimes."""
    hours, prices, tau, design = problem
    if m:
        model, fits = fit_regimes(hours, prices, m, design)
        curves = zip(levels(m), model.coefficients, [fit.solver for fit in fits])
    else:
        fit = fit_quantile(hours, prices, tau, design)
        curves = [(tau, fit.coefficients, fit.solver)]
    X = design_matrix(hours, design)
    for tau, coef, solver in curves:
        if solver == "constant":
            continue
        reference = qfr._dual_simplex(X, prices, tau)
        if solver == "dual-simplex":
            assert np.array_equal(coef, reference)
            continue
        # HiGHS's absolute tolerances can stop it short of the optimum (by
        # 1.3e-10 relative on _two_summers), never past it
        loss = pinball_loss(prices, X @ coef, tau)
        reference_loss = pinball_loss(prices, X @ reference, tau)
        assert loss <= reference_loss + 1e-12 * max(1.0, reference_loss)
        if loss == pytest.approx(reference_loss, rel=1e-12, abs=1e-12):
            # both optimal, and the vertex kept is certified the unique optimum
            assert np.array_equal(_labels(coef, design, hours, prices),
                                  _labels(reference, design, hours, prices))


# sha256 of write_model's file for the M = 4 fit on _paper_summers
PAPER_SUMMERS_MODEL_SHA256 = (
    "71252e3d82864bf3fbc209af7fb703b82bb9c977536d4e2eef93f07f6a1a798e")


def test_paper_summers_model_bytes(tmp_path):
    # every level is a certified vertex, rebuilt exactly from its sorted
    # basis, so faster iterates leave the file's bytes alone; the digest
    # holds for an IEEE double LAPACK solve of the same basis
    hours, prices, _, design = _paper_summers()
    model, fits = fit_regimes(hours, prices, 4, design)
    assert [fit.solver for fit in fits] == ["interior-point"] * 7
    artifacts.write_model(tmp_path / "regime_model.json", model)
    digest = hashlib.sha256((tmp_path / "regime_model.json").read_bytes())
    assert digest.hexdigest() == PAPER_SUMMERS_MODEL_SHA256


@pytest.mark.parametrize("shape", [(900, 11), (7, 354, 11), (50, 3)])
def test_triangle_table_matches_the_gather(shape):
    # the same products in the same layout, so that q @ tri keeps its bits
    X = np.random.default_rng(3).standard_normal(shape)
    upper = np.triu_indices(shape[-1])
    gather = X[..., upper[0]] * X[..., upper[1]]
    tri = qfr._triangles(X)
    assert tri.tobytes(order="A") == gather.tobytes(order="A")
    assert tri.strides == gather.strides
    q = np.random.default_rng(4).random((3, shape[-2]))
    assert (q @ tri).tobytes() == (q @ gather).tobytes()


def test_basis_pick_skips_repeated_rows():
    # hours 8760 apart share a design row; k = 5 needs the sixth hour
    X = design_matrix([5, 5 + 8760, 9, 13, 2, 40], FourierDesign(1, 1))
    assert qfr._basis_rows(X, range(6)).tolist() == [0, 2, 3, 4, 5]
    assert qfr._basis_rows(X[:5], range(5)) is None


def _basis_rows_loop(X, order):
    """`qfr._basis_rows` as the Gram-Schmidt loop alone, its reference."""
    k = X.shape[1]
    basis, picked = np.empty((k, k)), []
    for i in order:
        row, span = X[i], basis[:len(picked)]
        v = row - span.T @ (span @ row)
        v -= span.T @ (span @ v)
        norm = np.linalg.norm(v)
        if norm > qfr._RANK_TOL * np.linalg.norm(row):
            basis[len(picked)] = v / norm
            picked.append(i)
            if len(picked) == k:
                return np.array(picked)
    return None


@st.composite
def basis_candidates(draw):
    """A design over drawn hours, some 8760 apart (one design row), plus
    rows that combine two others, and an order of all its rows that may
    put a repeated or combined row among the first k."""
    design = FourierDesign(draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    k = design.n_features
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hours = gen.integers(-20_000, 20_000, draw(st.integers(1, 4 * k)))
    repeats = hours[gen.integers(0, len(hours), draw(st.integers(0, k)))]
    X = design_matrix(np.concatenate([hours, repeats + 8760]), design)
    pairs = gen.integers(0, len(X), (draw(st.integers(0, k)), 2))
    weights = gen.uniform(-2.0, 2.0, (len(pairs), 2))
    X = np.concatenate([X, np.einsum("pj,pjk->pk", weights, X[pairs])])
    order = gen.permutation(len(X))
    dependent = np.arange(len(hours), len(X))
    if len(dependent) and draw(st.booleans()):
        # a repeated or combined row at a drawn place among the first k
        at = draw(st.integers(0, min(k, len(order)) - 1))
        row = np.flatnonzero(order == gen.choice(dependent))[0]
        order[[at, row]] = order[[row, at]]
    return X, order


@settings(max_examples=300, deadline=None)
@given(basis_candidates())
def test_one_qr_basis_matches_the_loop(candidates):
    X, order = candidates
    picked = qfr._basis_rows(X, order)
    reference = _basis_rows_loop(X, order)
    if reference is None:
        assert picked is None
    else:
        assert picked.tolist() == reference.tolist()
        # `_vertex` sorts the pick in place, which must leave `order` alone
        assert not np.shares_memory(picked, order)


def _all_rows_problem(X, prices, taus):
    """The stacked all-rows problem of `_fit_levels` on X's orthonormal
    basis U, and its start; a solution's curve is U @ coef."""
    U, W = qfr._orthonormal(X)
    start = qfr._smoothed(X, prices, taus, qfr._STOP_ROWS * X.shape[1],
                          W @ (U.T @ prices)) @ (X.T @ U)
    return U, (*qfr._near_curve(U, prices, start, len(prices)), taus, start)


def test_two_summers_need_the_rank_aware_pick(monkeypatch):
    # stopped at a gap of 1e-10, the iterate's k rows of smallest |residual|
    # repeat a design row, yet the fit keeps the interior-point vertex that
    # it reaches at the fit's own gap
    hours, prices, tau, design = _two_summers()
    X = design_matrix(hours, design)
    vertex = fit_quantile(hours, prices, tau, design)
    monkeypatch.setattr(qfr, "_GAP_TOL", 1e-10)
    U, problem = _all_rows_problem(X, prices, [tau])
    curve = U @ qfr._frisch_newton(*problem)[0]
    nearest = np.argsort(np.abs(prices - curve))[:design.n_features]
    assert np.linalg.matrix_rank(X[nearest]) < design.n_features
    fit = fit_quantile(hours, prices, tau, design)
    assert fit.solver == vertex.solver == "interior-point"
    assert fit.coefficients.tobytes() == vertex.coefficients.tobytes()


@pytest.mark.parametrize("problem", [_short_daily_period(), _whole_median(),
                                     _tied_median()])
def test_degenerate_fits_fall_back(problem):
    hours, prices, tau, design = problem
    assert fit_quantile(hours, prices, tau, design).solver == "dual-simplex"


def test_rank_deficient_design_skips_the_interior_point(monkeypatch):
    monkeypatch.setattr(qfr, "_frisch_newton", None)
    hours, prices, tau, design = _short_daily_period()
    assert fit_quantile(hours, prices, tau, design).solver == "dual-simplex"


def test_levels_converge_at_different_iterations(monkeypatch):
    hours, prices, _, design = _spiky_prices()
    X = design_matrix(hours, design)
    taus = levels(4)
    _, problem = _all_rows_problem(X, prices, taus)
    settled = []
    for cap in range(1, qfr._MAX_ITER + 1):
        monkeypatch.setattr(qfr, "_MAX_ITER", cap)
        settled.append(np.isfinite(qfr._frisch_newton(*problem)[:, 0]).sum())
        if settled[-1] == len(taus):
            break
    assert settled[-1] == len(taus)
    assert any(0 < count < len(taus) for count in settled)
    monkeypatch.undo()
    # the batch takes each level to the vertex it reaches alone
    model, fits = fit_regimes(hours, prices, 4, design)
    for tau, coef, fit in zip(levels(4), model.coefficients, fits):
        assert fit.solver == "interior-point"
        alone = fit_quantile(hours, prices, tau, design)
        assert np.array_equal(alone.coefficients, coef)


@st.composite
def synth_series(draw, fewest=16):
    """Synthetic spot prices, `fewest` to 240 rows per feature (by default
    on either side of the near-curve band's 32), raw or rounded to whole or
    tenth units, so that some prices tie."""
    design = draw(st.sampled_from([FourierDesign(), FourierDesign(2, 0)]))
    k = design.n_features
    series = synth_prices(draw(st.integers(0, 2**32 - 1)),
                          draw(st.integers(fewest * k, 240 * k)))
    decimals = draw(st.sampled_from([None, 1, 0]))
    prices = series.values if decimals is None else np.round(series.values, decimals)
    return series.hours, prices, design


def _all_rows(monkeypatch):
    # a band of all rows: every level takes the all-rows solve at once
    monkeypatch.setattr(qfr, "_BAND_ROWS", np.inf)


def _same_fits(near, every):
    assert [fit.solver for fit in near] == [fit.solver for fit in every]
    for a, b in zip(near, every):
        assert a.coefficients.tobytes() == b.coefficients.tobytes()


def _whole_unit_prices():
    """synth_prices(7, 1800) rounded to whole units, at the paper's design:
    an all-rows batch of its seven levels from a least-squares start stops
    tau = 0.25 short of the vertex that the near-curve band certifies."""
    series = synth_prices(7, 1800)
    return series.hours, np.round(series.values), FourierDesign()


@settings(max_examples=60, deadline=None)
@given(synth_series())
@example(_whole_unit_prices())
def test_near_curve_fit_matches_all_rows_fit(series):
    hours, prices, design = series
    taus = levels(4)
    near = qfr._fit_levels(hours, prices, taus, design)
    with pytest.MonkeyPatch.context() as patch:
        _all_rows(patch)
        _same_fits(near, qfr._fit_levels(hours, prices, taus, design))


def _heavy_tailed(seed, n, design):
    """A daily sinusoid with N(0, 1) noise plus Pareto(1.5) x 50 spikes on
    10% of the hours."""
    gen = np.random.default_rng(seed)
    hours = np.arange(n)
    prices = 40 + 10 * np.sin(2 * np.pi * hours / 24) + gen.standard_normal(n)
    spikes = gen.random(n) < 0.1
    prices[spikes] += 50 * gen.pareto(1.5, spikes.sum())
    return hours, prices, design


@st.composite
def heavy_tailed_series(draw):
    design = draw(st.sampled_from([FourierDesign(), FourierDesign(1, 1)]))
    n = draw(st.integers(16 * design.n_features, 4000))
    return _heavy_tailed(draw(st.integers(0, 2**32 - 1)), n, design)


def _fits_from_moved_start(series):
    """`_fit_levels` on the series from its own start, and from that start
    scaled by 1 + 1e-6."""
    hours, prices, design = series
    taus = levels(4)
    fits = qfr._fit_levels(hours, prices, taus, design)
    smoothed = qfr._smoothed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qfr, "_smoothed",
                      lambda *args: smoothed(*args) * (1.0 + 1e-6))
        return fits, qfr._fit_levels(hours, prices, taus, design)


@settings(max_examples=40, deadline=None)
@given(st.one_of(synth_series(), heavy_tailed_series()))
def test_certified_fit_does_not_depend_on_its_start(series):
    # a certified level is the vertex rebuilt from its sorted basis, so a
    # moved start leaves its bits alone
    for a, b in zip(*_fits_from_moved_start(series)):
        if a.solver == b.solver == "interior-point":
            assert a.coefficients.tobytes() == b.coefficients.tobytes()


def _one_summer():
    """One summer of the synthetic spot prices at the paper's design
    (k = 11): the 2,208 rows of a window-plan training set."""
    start = parse_timestamp("2022-01-01T00:00:00Z")
    series = synth_prices(17, 8760, start=start)
    first = parse_timestamp("2022-06-01T00:00:00Z") - start
    keep = slice(first, first + 2208)
    return series.hours[keep], series.values[keep], FourierDesign()


@pytest.mark.parametrize("series", [_one_summer(),
                                    _heavy_tailed(1, 3000, FourierDesign())],
                         ids=["one-summer", "heavy-tailed"])
def test_moved_start_certifies_the_same_levels(series):
    # the heavy-tailed series leaves tau = 0.875 to HiGHS from either start
    fits, moved = _fits_from_moved_start(series)
    assert [fit.rows for fit in fits] == [fit.rows for fit in moved]
    assert "interior-point" in [fit.solver for fit in fits]
    _same_fits(fits, moved)


def test_one_summer_certifies_on_the_first_band():
    # the band holds 32 rows per feature, 352 at k = 11, or all rows of a
    # smaller fit, and synth_series draws on both sides of it
    hours, prices, design = _one_summer()
    k = design.n_features
    edge = qfr._BAND_ROWS * k
    assert edge == 352 and qfr.band_rows(edge - 1, k) == edge - 1
    assert qfr.band_rows(edge, k) == qfr.band_rows(len(hours), k) == 352
    assert 16 * k < edge < len(hours) < 240 * k
    taus = levels(4)
    near = qfr._fit_levels(hours, prices, taus, design)
    assert [(fit.solver, fit.rows) for fit in near] == [("interior-point", 352)] * 7
    with pytest.MonkeyPatch.context() as patch:
        _all_rows(patch)
        every = qfr._fit_levels(hours, prices, taus, design)
    assert [fit.rows for fit in every] == [2208] * 7
    _same_fits(near, every)


def _smoothed_reference(X, y, taus, stop, fit, step_length):
    """The smoothing with a fresh array for every (T, n) operation, the
    reference for `qfr._smoothed` from the least-squares fit `fit`; each
    step length comes from `step_length(a, b, skew)`."""
    taus = np.asarray(taus, dtype=float)
    r = y - X @ fit
    beta = np.repeat(fit[None, :], len(taus), axis=0)
    beta[:, 0] += np.quantile(r, taus)
    r = y - beta @ X.T
    gamma = np.quantile(np.abs(r), qfr._SMOOTH_START, axis=1)
    with np.errstate(over="ignore"):
        for _ in range(qfr._SMOOTH_STEPS):
            zone = np.abs(r) < gamma[:, None]
            live = np.flatnonzero((zone.sum(axis=1) > stop) & (gamma > 0))
            if not len(live):
                break
            a = r[live] / gamma[live, None]
            skew = taus[live, None] - 0.5
            grad = (0.5 * np.clip(a, -1.0, 1.0) + skew) @ X
            hess = np.stack([xz.T @ xz for xz in (X[z] for z in zone[live])])
            try:
                delta = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            delta *= 2.0 * gamma[live, None]
            u = delta @ X.T
            alpha = step_length(a, u / gamma[live, None], skew)[:, None]
            beta[live] += alpha * delta
            r[live] -= alpha * u
            gamma[live] *= 0.5
    return beta


def _step_length_reference(a, b, skew):
    """`qfr._step_length` with a fresh array for every operation."""
    ends = np.minimum(a, a - b), np.maximum(a, a - b)
    below, above = ends[1] <= -1.0, ends[0] >= 1.0
    fixed = np.vecdot(0.5 * (below.astype(float) - above) - skew, b)
    level, row = np.nonzero(~(below | above))
    count = np.bincount(level, minlength=len(a))
    place = np.arange(len(level)) - (np.cumsum(count) - count)[level]
    pa, pb = np.zeros((2, len(a), max(count.max(initial=0), 1)))
    pa[level, place], pb[level, place] = a[level, row], b[level, row]

    def rising(t):
        return fixed - 0.5 * np.vecdot(np.clip(pa - t[:, None] * pb, -1.0, 1.0),
                                       pb) > 0

    short = np.ones(len(a))
    long = short.copy()
    up = rising(short)
    for _ in range(qfr._HALVINGS):
        if not up.any():
            break
        long = np.where(up, short, long)
        short = np.where(up, 0.5 * short, short)
        up = rising(short)
    stuck, halved = up, (short < long) & ~up
    if halved.any():
        for _ in range(qfr._BISECT):
            mid = 0.5 * (short + long)
            up = rising(mid)
            long = np.where(halved & up, mid, long)
            short = np.where(halved & ~up, mid, short)
    return np.where(stuck, 0.0, short)


# from 80 rows per feature, 30% of them, the smoothing's first zone, is
# more than its stop of 8 per feature, so every draw takes steps
@settings(max_examples=40, deadline=None)
@given(synth_series(fewest=80))
def test_buffered_smoothing_matches_reference(series):
    # in-place ufuncs keep each operation's rounding, so the smoothing in
    # its work block gives the reference's bits, and so does every step
    # length it takes on the reference's steps
    hours, prices, design = series
    X = design_matrix(hours, design)
    taus = np.array(levels(4))
    stop = qfr._STOP_ROWS * design.n_features
    steps = []

    def both(a, b, skew):
        block = np.empty((3, len(taus), len(prices)))[:, :len(a)]
        flags = np.empty((2, len(taus), len(prices)), dtype=bool)[:, :len(a)]
        buffered = qfr._step_length(a, b, skew, block, flags)
        reference = _step_length_reference(a, b, skew)
        steps.append(buffered.tobytes() == reference.tobytes())
        return reference

    U, W = qfr._orthonormal(X)
    fit = W @ (U.T @ prices)
    reference = _smoothed_reference(X, prices, taus, stop, fit, both)
    buffered = qfr._smoothed(X, prices, taus, stop, fit)
    assert steps and all(steps)
    assert buffered.tobytes() == reference.tobytes()


def _cauchy_daily(n, seed):
    """A daily sinusoid with Cauchy noise, at a k = 5 design."""
    gen = np.random.default_rng(seed)
    hours = np.arange(n)
    prices = (40 + 10 * np.sin(2 * np.pi * (hours % 24) / 24)
              + 5 * gen.standard_cauchy(n))
    return hours, prices, FourierDesign(1, 1)


def test_dual_simplex_solves_wide_cauchy_prices():
    # prices reaching 3.3e6 leave HiGHS no optimum at its tolerance floor,
    # on X or on its orthonormal basis; the solve at its default
    # tolerances meets each certified vertex's loss
    hours, prices, design = _cauchy_daily(2189, 959077)
    assert np.ptp(prices) > 3e6
    X = design_matrix(hours, design)
    taus = levels(4)
    for fit in qfr._fit_levels(hours, prices, taus, design):
        assert fit.solver == "interior-point"
        beta = qfr._dual_simplex(X, prices, fit.tau)
        assert pinball_loss(prices, X @ beta, fit.tau) == pytest.approx(
            pinball_loss(prices, X @ fit.coefficients, fit.tau), rel=1e-12)


def _synth_paper_design(seed, n):
    series = synth_prices(seed, n)
    return series.hours, series.values, FourierDesign()


@pytest.mark.parametrize("problem, first_band", [
    (_cauchy_daily(2189, 959077), qfr._BAND_ROWS),
    (_synth_paper_design(21, 4000), 2),
], ids=["cauchy", "narrow-band"])
def test_near_curve_band_widens(monkeypatch, problem, first_band):
    # a level whose vertex the band misses certifies on all rows, with the
    # bits of the all-rows solve: the Cauchy series needs that at the fit's
    # own band, the synthetic prices with a band of 2k rows
    hours, prices, design = problem
    taus = levels(4)
    monkeypatch.setattr(qfr, "_BAND_ROWS", first_band)
    band = qfr.band_rows(len(hours), design.n_features)
    near = qfr._fit_levels(hours, prices, taus, design)
    assert band < len(hours)
    missed = [fit for fit in near if fit.rows != band]
    assert missed and all(fit.rows == len(hours) for fit in missed)
    assert all(fit.solver == "interior-point" for fit in near)
    _all_rows(monkeypatch)
    _same_fits(near, qfr._fit_levels(hours, prices, taus, design))


def test_all_rows_pass_shares_one_design(monkeypatch):
    # every level's all-rows problem is the whole LP in row order, so the
    # pass holds one design, not a copy per level, whatever the band did
    hours, prices, design = _cauchy_daily(2189, 959077)
    n, k = len(hours), design.n_features
    shapes = []

    def spy(X, y, taus, beta):
        shapes.append((X.shape, y.shape))
        return solve(X, y, taus, beta)

    solve = qfr._frisch_newton
    monkeypatch.setattr(qfr, "_frisch_newton", spy)
    near = qfr._fit_levels(hours, prices, levels(4), design)
    missed = sum(fit.rows == n for fit in near)
    band = qfr.band_rows(n, k)
    assert shapes == [((7, band + 2, k), (7, band + 2)),
                      ((1, n + 2, k), (missed, n + 2))]
    shapes.clear()
    _all_rows(monkeypatch)
    _same_fits(near, qfr._fit_levels(hours, prices, levels(4), design))
    assert shapes == [((1, n + 2, k), (7, n + 2))]


def test_near_curve_fits_noiseless_sinusoid():
    # every residual of the shifted least-squares start is 0 or round-off,
    # so the smoothing width starts at or near 0; no warning may result
    hours = np.arange(4000)
    y = 100 + 50 * np.sin(2 * np.pi * (hours % 24) / 24)
    design = FourierDesign(daily_harmonics=1, seasonal_harmonics=0)
    assert qfr.band_rows(len(hours), design.n_features) < len(hours)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_quantile(hours, y, 0.5, design)
    assert fit.coefficients[0] == pytest.approx(100.0, abs=1e-6)
    assert np.hypot(*fit.coefficients[1:]) == pytest.approx(50.0, abs=1e-6)


def test_near_curve_smoothing_width_zero():
    # 70% of the prices are 0 and the intercept-only median is 0 exactly,
    # so the smoothing width starts at 0
    hours = np.arange(1000)
    prices = np.where(hours % 10 < 7, 0.0, 1.0)
    design = FourierDesign(daily_harmonics=0, seasonal_harmonics=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [fit_quantile(hours, prices, tau, design) for tau in (0.5, 0.8)]
    assert [fit.coefficients.tolist() for fit in fits] == [[0.0], [1.0]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=60).map(np.array),
       st.data())
def test_nearest_is_a_stable_argsort_prefix(values, data):
    # small integers, so that ties fall at the partition's edge
    off = values / 4.0
    count = data.draw(st.integers(1, len(off)))
    order = qfr._nearest(off, count)
    assert len(order) >= count
    assert order.tolist() == np.argsort(off, kind="stable")[:len(order)].tolist()
    assert np.all(off[order] <= np.sort(off)[count - 1])
    assert np.all(off[np.setdiff1d(np.arange(len(off)), order)]
                  > np.sort(off)[count - 1])


@pytest.fixture(scope="module")
def uniform_model():
    """4-regime model fitted on i.i.d. uniform(0, 100) prices, with the
    prices and the per-level fits."""
    rng = np.random.default_rng(11)
    hours = np.arange(20_000)
    prices = rng.uniform(0, 100, 20_000)
    model, fits = fit_regimes(hours, prices, 4, DAILY)
    return model, hours, prices, fits


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


def _design_per_row(hours, design):
    """`design_matrix` evaluating every harmonic on every row, its reference."""
    hours = np.atleast_1d(np.asarray(hours, dtype=np.int64))
    cols = [np.ones(len(hours))]
    for period, harmonics in ((design.period_daily, design.daily_harmonics),
                              (design.period_seasonal, design.seasonal_harmonics)):
        phase = (hours % period) / period
        for k in range(1, harmonics + 1):
            cols.append(np.sin(2 * np.pi * k * phase))
            cols.append(np.cos(2 * np.pi * k * phase))
    return np.column_stack(cols)


@pytest.mark.parametrize("design", [FourierDesign(), FourierDesign(0, 2),
                                    FourierDesign(3, 0), FourierDesign(0, 0)],
                         ids=["3+2", "0+2", "3+0", "0+0"])
@pytest.mark.parametrize("rows", [23, 24, 25, 8759, 8760, 8761])
def test_tabulated_design_has_the_per_row_bits(design, rows):
    # around each period the table takes over from the per-row form;
    # unsorted and repeated hours, from before 1970 (negative) onward
    gen = np.random.default_rng(rows)
    hours = gen.integers(-500_000, 500_000, rows)
    hours[rows // 2:] = hours[:rows - rows // 2]
    gen.shuffle(hours)
    X = design_matrix(hours, design)
    assert X.flags.c_contiguous
    assert X.tobytes() == _design_per_row(hours, design).tobytes()


@pytest.mark.parametrize("field", ["daily_harmonics", "seasonal_harmonics",
                                   "period_daily", "period_seasonal"])
@pytest.mark.parametrize("value", [24.5, 2.0, True, np.int64(3)])
def test_design_refuses_counts_that_are_not_ints(field, value):
    with pytest.raises(ValueError, match="integers"):
        FourierDesign(**{field: value})


def test_fit_constant_data():
    hours = np.arange(200)
    fit = fit_quantile(hours, np.full(200, 50.0), 0.3, DAILY)
    assert fit.coefficients[0] == 50.0
    assert np.all(fit.coefficients[1:] == 0.0)
    assert design_matrix(77, DAILY) @ fit.coefficients == pytest.approx([50.0])


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
    curve = design_matrix(np.arange(48), DAILY) @ fit.coefficients
    assert np.all(curve >= 20.0) and np.all(curve <= 30.0)


def test_fit_beats_constant_quantile(sinusoid_fit):
    fit, hours, y, design = sinusoid_fit
    fitted = pinball_loss(y, design_matrix(hours, design) @ fit.coefficients, 0.5)
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


def test_uniform_model_needs_no_fallback(uniform_model):
    *_, fits = uniform_model
    assert {fit.solver for fit in fits} == {"interior-point"}


def test_fit_regimes_levels(uniform_model):
    model, *_, fits = uniform_model
    assert levels(4) == [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    assert [fit.tau for fit in fits] == levels(4)
    assert model.coefficients.tobytes() == np.array(
        [fit.coefficients for fit in fits]).tobytes()
    for m in (2, 3, 4, 8):
        # the boundaries j/M and representatives (p - 1/2)/M, float for float
        assert levels(m)[1::2] == [j / m for j in range(1, m)]
        assert levels(m)[0::2] == [(p - 0.5) / m for p in range(1, m + 1)]


def test_fit_regimes_eight_has_seven_boundaries():
    rng = np.random.default_rng(5)
    hours = np.arange(4000)
    model, _ = fit_regimes(hours, rng.uniform(0, 100, 4000), 8, DAILY)
    assert model.coefficients.shape == (15, DAILY.n_features)
    bounds, reps = model.surfaces_at(np.arange(24))
    assert bounds.shape == (24, 7) and reps.shape == (24, 8)


def test_fit_regimes_rejects_bad_m():
    with pytest.raises(FitError):
        fit_regimes(np.arange(100), np.ones(100), 1, DAILY)
    with pytest.raises(FitError):
        fit_regimes(np.arange(100), np.ones(100), 17, DAILY)


def test_fit_regimes_constant_data():
    hours = np.arange(300)
    model, _ = fit_regimes(hours, np.full(300, 50.0), 2, DAILY)
    assert price_table(model, [10])[0] == pytest.approx([50.0, 50.0])


def test_classify_extremes(uniform_model):
    model, *_ = uniform_model
    for hour in (0, 13, 999):
        assert classify(model, hour, -1e9) == 1
        assert classify(model, hour, 1e9) == 4


def test_classify_boundary_tie_goes_low(uniform_model):
    model, *_ = uniform_model
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
    model, hours, prices, _ = uniform_model
    bounds, _ = model.surfaces_at(hours)
    near = np.abs(prices[:, None] - bounds) <= 1e-12 * np.abs(bounds)
    rows, cols = np.nonzero(near)
    # each boundary fit passes through at least one observation per feature
    assert len(rows) >= (model.m - 1) * DAILY.n_features
    assert np.array_equal(classify_series(model, hours[rows], prices[rows]),
                          cols + 1)
    for i, j in zip(rows, cols):
        assert classify(model, int(hours[i]), float(prices[i])) == j + 1


def test_classify_rejects_non_finite(uniform_model):
    model, *_ = uniform_model
    with pytest.raises(ValueError):
        classify(model, 0, float("nan"))


def test_classify_series_matches_scalar(uniform_model):
    model, hours, prices, _ = uniform_model
    sample = slice(0, 200)
    vec = classify_series(model, hours[sample], prices[sample])
    assert vec.dtype == np.int64
    scalars = [classify(model, int(h), float(p))
               for h, p in zip(hours[sample], prices[sample])]
    assert np.array_equal(vec, scalars)


def test_representative_prices_near_mid_quantiles(uniform_model):
    model, *_ = uniform_model
    expected = [12.5, 37.5, 62.5, 87.5]
    for row in price_table(model, np.arange(0, 72, 5)):
        assert row == pytest.approx(expected, abs=3.0)


def test_representatives_monotone(uniform_model):
    model, *_ = uniform_model
    reps = price_table(model, np.arange(96))
    assert np.all(np.diff(reps, axis=1) >= 0)


def test_classify_representative_round_trip(uniform_model):
    model, *_ = uniform_model
    hours = np.arange(0, 96, 3)
    for hour, reps in zip(hours, price_table(model, hours)):
        for p in range(1, 5):
            assert classify(model, int(hour), float(reps[p - 1])) == p


def test_boundaries_monotone_after_rearrangement(uniform_model):
    model, *_ = uniform_model
    bounds, _ = model.surfaces_at(np.arange(200))
    assert np.all(np.diff(bounds, axis=1) >= 0)


def test_coverage_on_held_out(uniform_model):
    model, hours, *_ = uniform_model
    held_out = np.random.default_rng(99).uniform(0, 100, len(hours))
    bounds, _ = model.surfaces_at(hours)
    for j, tau in enumerate((0.25, 0.5, 0.75)):
        frac = float(np.mean(held_out < bounds[:, j]))
        assert abs(frac - tau) <= 0.04


def test_model_serialization_round_trip(uniform_model, tmp_path):
    model, hours, prices, _ = uniform_model
    artifacts.write_model(tmp_path / "regime_model.json", model)
    back = artifacts.read_model(tmp_path / "regime_model.json", RegimeModel)
    assert back.m == model.m
    assert back.design == model.design
    assert back.coefficients.tobytes() == model.coefficients.tobytes()
    assert np.array_equal(classify_series(back, hours[:300], prices[:300]),
                          classify_series(model, hours[:300], prices[:300]))


def test_regime_model_validates_counts():
    RegimeModel(3, DAILY, np.zeros((5, 5)))
    for shape in ((4, 5), (6, 5), (5, 4), (25,)):
        with pytest.raises(ValueError):
            RegimeModel(3, DAILY, np.zeros(shape))
    with pytest.raises(TypeError):
        RegimeModel(3.0, DAILY, np.zeros((5, 5)))
