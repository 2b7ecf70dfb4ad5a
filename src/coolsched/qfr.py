"""Quantile regression on Fourier time features and price-regime bands.

Prices are fit at several quantile levels with sinusoidal regressors at the
daily and yearly periods, each as one bounded dual LP. The fitted curves
split the price axis into M bands per hour; a realized price's band is its
regime, and a price within TIE_TOL (relative) of a boundary is on it. Band
boundaries sit at levels j/M and each band carries a representative curve
at its mid level.
"""

import json
from dataclasses import dataclass, field

import numpy as np

# Relative distance within which a price counts as on a band boundary.
TIE_TOL = 1e-9


class FitError(ValueError):
    """Quantile fit cannot be performed on the given data."""


@dataclass(frozen=True)
class FourierDesign:
    """Feature layout: intercept + sin/cos pairs at two integer-hour periods."""

    daily_harmonics: int = 3
    seasonal_harmonics: int = 2
    period_daily: int = 24
    period_seasonal: int = 8760

    def __post_init__(self):
        if self.daily_harmonics < 0 or self.seasonal_harmonics < 0:
            raise ValueError("harmonic counts must be >= 0")
        if self.period_daily <= 0 or self.period_seasonal <= 0:
            raise ValueError("periods must be positive")

    @property
    def n_features(self) -> int:
        return 1 + 2 * self.daily_harmonics + 2 * self.seasonal_harmonics


def design_matrix(hours, design: FourierDesign) -> np.ndarray:
    """Feature rows for integer hour indices; exactly periodic via modulus."""
    hours = np.atleast_1d(np.asarray(hours, dtype=np.int64))
    cols = [np.ones(len(hours))]
    for period, harmonics in ((design.period_daily, design.daily_harmonics),
                              (design.period_seasonal, design.seasonal_harmonics)):
        phase = (hours % period) / period
        for k in range(1, harmonics + 1):
            cols.append(np.sin(2 * np.pi * k * phase))
            cols.append(np.cos(2 * np.pi * k * phase))
    return np.column_stack(cols)


def pinball_loss(y, y_hat, tau: float) -> float:
    """Mean quantile loss rho_tau(y - y_hat)."""
    u = np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)
    return float(np.mean(u * (tau - (u < 0))))


@dataclass(frozen=True)
class QuantileFit:
    tau: float
    coefficients: np.ndarray

    def evaluate(self, hours, design: FourierDesign):
        values = design_matrix(hours, design) @ self.coefficients
        return values if np.ndim(hours) else float(values[0])


def _quantile_fitter(hours, prices, design: FourierDesign):
    """Check the data once; return tau -> QuantileFit on one design matrix."""
    # imported here so that the stages that only classify do not load scipy
    from scipy.optimize import linprog

    hours = np.asarray(hours, dtype=np.int64)
    y = np.asarray(prices, dtype=float)
    if hours.shape != y.shape or hours.ndim != 1:
        raise FitError("hours and prices must be 1-d and equal length")
    n, k = len(y), design.n_features
    if n < 10 * k:
        raise FitError(f"need at least {10 * k} observations for {k} features, got {n}")
    if not np.all(np.isfinite(y)):
        raise FitError("prices contain non-finite values")
    X = design_matrix(hours, design)
    x_sum = X.sum(axis=0)

    def fit(tau: float) -> QuantileFit:
        if np.ptp(y) == 0.0:
            # Degenerate data: intercept-only fit, zero Fourier coefficients.
            coef = np.zeros(k)
            coef[0] = y[0]
            return QuantileFit(tau, coef)
        # d = 1 - tau is feasible and 0 <= d <= 1 bounds the objective, so
        # the dual always has an optimum; presolve only slows this dense LP.
        res = linprog(-y, A_eq=X.T, b_eq=(1.0 - tau) * x_sum, bounds=(0, 1),
                      method="highs-ds", options={"presolve": False})
        if not res.success:
            raise FitError(f"quantile LP failed: {res.message}")
        coef = -res.eqlin.marginals
        fitted_loss = pinball_loss(y, X @ coef, tau)
        const_loss = pinball_loss(y, np.quantile(y, tau), tau)
        if fitted_loss > const_loss + 1e-9 * max(1.0, abs(const_loss)):
            raise FitError("quantile LP returned a fit worse than the constant quantile")
        return QuantileFit(tau, coef)

    return fit


def fit_quantile(hours, prices, tau: float, design: FourierDesign) -> QuantileFit:
    """Minimize mean pinball loss over Fourier coefficients.

    Solved as the dual of the residual-split LP (Koenker & d'Orey 1987):
    maximize y'd subject to X'd = (1 - tau) X'1 and 0 <= d <= 1. The
    coefficients are the multipliers of its k equality rows, and the fitted
    curve passes through k observations up to round-off (see `classify`).
    """
    if not 0 < tau < 1:
        raise FitError(f"tau must be in (0, 1), got {tau}")
    return _quantile_fitter(hours, prices, design)(tau)


@dataclass
class RegimeModel:
    """M price bands per hour: M-1 boundary fits plus M representative fits.

    Independently fitted quantile curves can cross; `surfaces_at` applies a
    per-hour monotone rearrangement (joint sort of all curves in level order)
    so boundaries are non-decreasing and each representative lies inside its
    band, which makes classify(representative) round-trip.
    """

    m: int
    boundary_fits: list
    representative_fits: list
    design: FourierDesign
    _stacked: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.boundary_fits) != self.m - 1:
            raise ValueError(f"expected {self.m - 1} boundary fits")
        if len(self.representative_fits) != self.m:
            raise ValueError(f"expected {self.m} representative fits")

    def _coef_stack(self) -> np.ndarray:
        # Rows in quantile-level order: r1, b1, r2, b2, ..., b_{M-1}, rM.
        if self._stacked is None:
            rows = []
            for p in range(self.m):
                rows.append(self.representative_fits[p].coefficients)
                if p < self.m - 1:
                    rows.append(self.boundary_fits[p].coefficients)
            self._stacked = np.vstack(rows)
        return self._stacked

    def surfaces_at(self, hours):
        """Rearranged (boundaries, representatives) at the given hour(s).

        boundaries has shape (..., M-1) and representatives (..., M); both are
        non-decreasing along the last axis and interleave.
        """
        raw = design_matrix(hours, self.design) @ self._coef_stack().T
        ordered = np.sort(raw, axis=-1)
        if np.ndim(hours) == 0:
            ordered = ordered[0]
        representatives = ordered[..., 0::2]
        boundaries = ordered[..., 1::2]
        return boundaries, representatives


def boundary_levels(m: int):
    return [j / m for j in range(1, m)]


def representative_levels(m: int):
    return [(p - 0.5) / m for p in range(1, m + 1)]


def fit_regimes(hours, prices, m: int, design: FourierDesign) -> RegimeModel:
    """Fit the M-regime model: boundaries at j/M, representatives at (p-.5)/M."""
    if not 2 <= m <= 16:
        raise FitError(f"regime count must be in 2..16, got {m}")
    fit = _quantile_fitter(hours, prices, design)
    return RegimeModel(m, [fit(tau) for tau in boundary_levels(m)],
                       [fit(tau) for tau in representative_levels(m)], design)


def classify(model: RegimeModel, hour_index, price) -> int:
    """Regime of a realized price: smallest p with price <= boundary_p, else M.

    A price on a boundary goes to the lower band. "On" means within
    TIE_TOL * max(1, |b|) of the boundary b: a boundary fit interpolates
    some training prices, and round-off in the LP and in the curve
    evaluation would otherwise decide their band.
    """
    price = np.asarray(price, dtype=float)
    if not np.all(np.isfinite(price)):
        raise ValueError("price must be finite")
    bounds, _ = model.surfaces_at(hour_index)
    ceiling = bounds + TIE_TOL * np.maximum(1.0, np.abs(bounds))
    regime = np.sum(price[..., None] > ceiling, axis=-1) + 1
    return int(regime) if price.ndim == 0 and np.ndim(hour_index) == 0 else regime


def classify_series(model: RegimeModel, hours, prices) -> np.ndarray:
    """Vectorized classify over parallel hour and price arrays."""
    return classify(model, hours, prices).astype(np.int64)


def price_table(model: RegimeModel, hours) -> np.ndarray:
    """Representative prices for every regime at each hour, shape (n, M)."""
    _, reps = model.surfaces_at(np.asarray(hours, dtype=np.int64))
    return reps


def model_to_dict(model: RegimeModel) -> dict:
    return {
        "kind": "regime-model",
        "m": model.m,
        "design": {
            "daily_harmonics": model.design.daily_harmonics,
            "seasonal_harmonics": model.design.seasonal_harmonics,
            "period_daily": model.design.period_daily,
            "period_seasonal": model.design.period_seasonal,
        },
        "boundary_levels": [fit.tau for fit in model.boundary_fits],
        "boundary_coefficients": [fit.coefficients.tolist()
                                  for fit in model.boundary_fits],
        "representative_levels": [fit.tau for fit in model.representative_fits],
        "representative_coefficients": [fit.coefficients.tolist()
                                        for fit in model.representative_fits],
    }


def model_from_dict(doc: dict) -> RegimeModel:
    design = FourierDesign(**doc["design"])
    boundaries = [QuantileFit(tau, np.asarray(coef, dtype=float))
                  for tau, coef in zip(doc["boundary_levels"],
                                       doc["boundary_coefficients"])]
    representatives = [QuantileFit(tau, np.asarray(coef, dtype=float))
                       for tau, coef in zip(doc["representative_levels"],
                                            doc["representative_coefficients"])]
    return RegimeModel(doc["m"], boundaries, representatives, design)


def save_model(model: RegimeModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RegimeModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
