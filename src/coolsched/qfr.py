"""Quantile regression on Fourier time features and price-regime bands.

Prices are fit at several quantile levels with sinusoidal regressors at the
daily and yearly periods. The fitted curves split the price axis into M
bands per hour; a realized price's band is its regime. Band boundaries sit
at levels j/M and each band carries a representative curve at its mid level.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


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


def fit_quantile(hours, prices, tau: float, design: FourierDesign) -> QuantileFit:
    """Minimize mean pinball loss over Fourier coefficients.

    Solved as the standard residual-split linear program: with beta = b+ - b-
    and residual y - X beta = u - v (u, v >= 0), minimize
    (tau * sum u + (1 - tau) * sum v) / n subject to X(b+ - b-) + u - v = y.
    """
    if not 0 < tau < 1:
        raise FitError(f"tau must be in (0, 1), got {tau}")
    hours = np.asarray(hours, dtype=np.int64)
    y = np.asarray(prices, dtype=float)
    if hours.shape != y.shape or hours.ndim != 1:
        raise FitError("hours and prices must be 1-d and equal length")
    n, k = len(y), design.n_features
    if n < 10 * k:
        raise FitError(f"need at least {10 * k} observations for {k} features, got {n}")
    if not np.all(np.isfinite(y)):
        raise FitError("prices contain non-finite values")

    if np.ptp(y) == 0.0:
        # Degenerate data: intercept-only fit, zero Fourier coefficients.
        coef = np.zeros(k)
        coef[0] = y[0]
        return QuantileFit(tau, coef)

    X = design_matrix(hours, design)
    identity = sp.identity(n, format="csc")
    A_eq = sp.hstack([sp.csc_matrix(X), identity, -identity], format="csc")
    c = np.concatenate([np.zeros(k),
                        np.full(n, tau / n),
                        np.full(n, (1.0 - tau) / n)])
    bounds = [(None, None)] * k + [(0, None)] * (2 * n)
    # interior point is much faster here; dual simplex is the fallback
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs-ipm")
    if not res.success:
        res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise FitError(f"quantile LP failed: {res.message}")
    coef = res.x[:k]

    fit = QuantileFit(tau, coef)
    fitted_loss = pinball_loss(y, X @ coef, tau)
    const_loss = pinball_loss(y, np.quantile(y, tau), tau)
    if fitted_loss > const_loss + 1e-9 * max(1.0, abs(const_loss)):
        raise FitError("quantile LP returned a fit worse than the constant quantile")
    return fit


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
    boundaries = [fit_quantile(hours, prices, tau, design)
                  for tau in boundary_levels(m)]
    representatives = [fit_quantile(hours, prices, tau, design)
                       for tau in representative_levels(m)]
    return RegimeModel(m, boundaries, representatives, design)


def classify(model: RegimeModel, hour_index, price) -> int:
    """Regime of a realized price: smallest p with price <= boundary_p, else M.

    A price exactly on a boundary goes to the lower band.
    """
    if not np.all(np.isfinite(np.asarray(price, dtype=float))):
        raise ValueError("price must be finite")
    bounds, _ = model.surfaces_at(hour_index)
    regime = np.sum(np.asarray(price)[..., None] > bounds, axis=-1) + 1
    return int(regime) if np.ndim(price) == 0 and np.ndim(hour_index) == 0 else regime


def classify_series(model: RegimeModel, hours, prices) -> np.ndarray:
    """Vectorized classify over parallel hour and price arrays."""
    bounds, _ = model.surfaces_at(hours)
    return (np.sum(np.asarray(prices, dtype=float)[:, None] > bounds, axis=1) + 1
            ).astype(np.int64)


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
