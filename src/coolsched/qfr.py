"""Quantile regression on Fourier time features and price-regime bands.

Prices are fit at several quantile levels with sinusoidal regressors at the
daily and yearly periods. Each level is the bounded dual LP of the pinball
loss. One Frisch-Newton interior point iterates all levels together, in
work arrays allocated once per fit, with the normal matrices formed from a
table of the design rows' upper triangles. Each level's exact vertex is
then read off the observations nearest its curve and kept when a
certificate shows it is the unique optimum. That vertex is rebuilt from its
sorted basis alone, so the iterates' rounding never reaches an output bit
unless it changes the basis. A level without that certificate is solved by
HiGHS's dual simplex (see `fit_quantile`). The fitted curves split the
price axis into M bands per hour; a realized price's band is its regime,
and a price within TIE_TOL (relative) of a boundary is on it. Band
boundaries sit at levels j/M and each band carries a representative curve
at its mid level.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import artifacts

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
    # how the fit was solved: "interior-point", "dual-simplex" or
    # "constant"; None for a fit read from a file
    solver: str = None

    def evaluate(self, hours, design: FourierDesign):
        values = design_matrix(hours, design) @ self.coefficients
        return values if np.ndim(hours) else float(values[0])


# Frisch-Newton interior point (Portnoy & Koenker 1997): the share of the
# way to the nearest bound (d, 1 - d, z, w >= 0) that a step may go, the
# duality gap relative to 1 + |y'd| at which a level stops, and the
# iteration cap.
_STEP = 0.99995
_GAP_TOL = 1e-10
_MAX_ITER = 50
# A row whose part outside the span of the rows already in the basis is
# below this share of its norm depends on them (a repeated design row).
_RANK_TOL = 1e-9
# A basic dual value within this of 0 or 1 may sit on the bound but for the
# round-off of its solve, whose sums over n rows, amplified by the basis's
# condition number, reach about 6e-9 at paper scale (n = 6624); on the
# bound, the vertex need not be the only optimum.
_CERT_TOL = 1e-7


def _step(shrink):
    """Per level, the step a <= 1 that goes _STEP of the way to the first
    bound that v + a dv reaches, from shrink, the largest -dv / v."""
    return _STEP / np.maximum(shrink, _STEP)


def _frisch_newton(X, y, taus):
    """Interior-point solution of the bounded dual for each level.

    Mehrotra predictor-corrector on max y'd s.t. X'd = (1 - tau) X'1,
    0 <= d <= 1, with s = 1 - d and dual slacks z, w >= 0 on
    y - X beta = w - z (Koenker 2005, chapter 6), all levels as one
    (T, n) iterate. The start is feasible and Newton steps keep it so.
    Returns the (T, k) coefficients, with NaN rows for the levels whose
    gap stays open within _MAX_ITER iterations or whose normal equations
    turn singular.

    Each iteration forms every level's X' diag(q) X from one product with
    a table of the rows' upper triangles of x_i x_i' (n by k(k+1)/2), and
    writes the iterate and its work arrays in place, in (T, n) buffers
    allocated once whose first rows hold the levels still live. The
    order of these sums sets the iterates' last bits, but no output bit:
    only the vertex that `_vertex` rebuilds from its sorted basis leaves
    the fit, so the output holds while each level certifies the same
    basis.
    """
    n, k = X.shape
    taus = np.asarray(taus, dtype=float)
    coef = np.full((len(taus), k), np.nan)
    xt = np.ascontiguousarray(X.T)
    # row i holds the upper triangle of x_i x_i', so that q @ tri holds
    # X' diag(q) X for every level in one matrix product; `mirror` picks
    # the full k x k matrices out of it
    upper = np.triu_indices(k)
    tri = X[:, upper[0]] * X[:, upper[1]]
    mirror = np.empty((k, k), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(len(upper[0]))
    # d = 1 - tau, and beta the least-squares fit with its residual split
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    r += 1e-3 * (r == 0)  # a zero residual would start both z and w at 0
    live = np.arange(len(taus))
    beta = np.repeat(beta[None, :], len(taus), axis=0)
    # the iterate (d, s, z, w), then scratch
    work = np.empty((14, len(taus), n))
    work[0] = (1.0 - taus)[:, None]
    work[1] = 1.0 - work[0]
    work[3] = np.maximum(r, 0.0)
    work[2] = work[3] - r
    gap = np.vecdot(work[2], work[0]) + np.vecdot(work[3], work[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            (d, s, z, w, r, inv_d, inv_s, zd, ws, q, dd, dz, dw,
             tmp) = work[:, :len(live)]
            np.reciprocal(d, out=inv_d)
            np.reciprocal(s, out=inv_s)
            np.multiply(z, inv_d, out=zd)
            np.multiply(w, inv_s, out=ws)
            np.reciprocal(np.add(zd, ws, out=q), out=q)
            normal = np.take(q @ tri, mirror, axis=1)
            np.subtract(w, z, out=r)

            def newton(rhs):
                # dbeta from (X'QX) dbeta = X'Q rhs, then dd = q (rhs - X dbeta)
                xq = np.multiply(q, rhs, out=tmp) @ X
                db = np.linalg.solve(normal, xq[:, :, None])[:, :, 0]
                np.subtract(rhs, np.matmul(db, xt, out=dd), out=dd)
                np.multiply(dd, q, out=dd)
                return db

            def primal_step():
                lo = np.fmin.reduce(np.multiply(dd, inv_d, out=tmp), axis=1)
                hi = np.fmax.reduce(np.multiply(dd, inv_s, out=tmp), axis=1)
                return _step(np.maximum(-lo, hi))

            def dual_step():
                # fmin skips the 0/0 of a slack that starts at zero and
                # stays there
                lo = np.fmin.reduce(np.divide(dz, z, out=tmp), axis=1)
                lo = np.minimum(lo, np.fmin.reduce(np.divide(dw, w, out=tmp), axis=1))
                return _step(-lo)

            try:
                # predictor: the affine-scaling direction
                newton(r)
                np.negative(np.add(z, np.multiply(zd, dd, out=dz), out=dz), out=dz)
                np.subtract(np.multiply(ws, dd, out=dw), w, out=dw)
                fp, fd = primal_step(), dual_step()
                # corrector, centred at Mehrotra's mu from the gap g that
                # the predictor's steps would leave, (z + fd dz)'(d + fp dd)
                # + (w + fd dw)'(s - fp dd) expanded in the steps
                g = (gap - fp * np.vecdot(r, dd)
                     + fd * (np.vecdot(d, dz) + np.vecdot(s, dw))
                     + fp * fd * np.vecdot(dd, np.subtract(dz, dw, out=tmp)))
                mu = (gap * (g / gap) ** 3 / (2 * n))[:, None]
                ddz, dsw = np.multiply(dd, dz, out=dz), np.multiply(dd, dw, out=dw)
                r += np.multiply(np.subtract(inv_d, inv_s, out=tmp), mu, out=tmp)
                r -= ddz
                r -= dsw
                db = newton(r)
            except np.linalg.LinAlgError:
                break
            fp = primal_step()[:, None]
            # dz = mu / d - z - zd dd - ddz and dw = mu / s - w + ws dd + dsw
            dz += np.multiply(zd, dd, out=zd)
            dz += z
            np.subtract(np.multiply(inv_d, mu, out=inv_d), dz, out=dz)
            dw += np.multiply(ws, dd, out=ws)
            dw -= w
            dw += np.multiply(inv_s, mu, out=inv_s)
            fd = dual_step()[:, None]
            np.multiply(dd, fp, out=dd)
            d += dd
            s -= dd
            z += np.multiply(dz, fd, out=dz)
            w += np.multiply(dw, fd, out=dw)
            beta += fd * db

            # the duality gap z'd + w's of a feasible iterate, summed without
            # the cancellation of b'beta + 1'w - y'd; it is the next mu
            gap = np.vecdot(z, d) + np.vecdot(w, s)
            done = gap <= _GAP_TOL * (1.0 + np.abs(d @ y))
            coef[live[done]] = beta[done]
            keep = ~done & np.isfinite(gap)
            if not keep.any():
                break
            if not keep.all():
                # move the iterates of the levels that go on to the front
                work[:4, :keep.sum()] = work[:4, :len(live)][:, keep]
                live, gap, beta = live[keep], gap[keep], beta[keep]
    return coef


def _basis_rows(X, order):
    """The first k rows in `order` that are linearly independent, or None."""
    k = X.shape[1]
    basis, picked = np.empty((k, k)), []
    for i in order:
        # Gram-Schmidt against the rows picked so far, done twice so that
        # a dependent row leaves only round-off
        row, span = X[i], basis[:len(picked)]
        v = row - span.T @ (span @ row)
        v -= span.T @ (span @ v)
        norm = np.linalg.norm(v)
        if norm > _RANK_TOL * np.linalg.norm(row):
            basis[len(picked)] = v / norm
            picked.append(i)
            if len(picked) == k:
                return np.array(picked)
    return None


def _vertex(X, y, b, beta):
    """The optimal vertex next to an interior solution, if certified.

    `b` is (1 - tau) X'1 and `beta` the interior-point coefficients. The
    basis is the k independent rows of smallest |residual|, and the
    vertex the curve through their prices. It is accepted when no other
    price lies on it and the dual values it implies are inside (0, 1) by
    more than _CERT_TOL: with d = 1 above the curve and 0 below it, the
    basic d solve X_h' d_h = (1 - tau) X'1 - X_N' d_N. That is the
    optimality condition, and strictness makes this vertex the only
    optimum. Returns None otherwise.
    """
    basis = _basis_rows(X, np.argsort(np.abs(y - X @ beta), kind="stable"))
    if basis is None:
        return None
    basis.sort()  # the vertex's bits then depend on the basis, not its pick order
    try:
        vertex = np.linalg.solve(X[basis], y[basis])
        fitted = X @ vertex
        off = np.abs(y - fitted)
        off[basis] = np.inf
        if np.any(off <= TIE_TOL * np.maximum(1.0, np.abs(fitted))):
            return None
        above = y > fitted
        above[basis] = False
        d_h = np.linalg.solve(X[basis].T, b - X[above].sum(axis=0))
    except np.linalg.LinAlgError:
        return None
    return vertex if np.all((d_h > _CERT_TOL) & (d_h < 1.0 - _CERT_TOL)) else None


def _dual_simplex(X, y, tau):
    """The bounded dual solved by HiGHS; its equality marginals are -beta.

    HiGHS's tolerances are absolute: its 1e-7 dual feasibility tolerance
    is negligible in price units, but prices that all lie within about
    that of each other would read as ties, and any vertex would pass as
    optimal. So the prices go in as z = (y - c) / h, centred, and scaled
    up to a half-range of at least one. Since X's first column is all
    ones, 1'd = (1 - tau) n is fixed, the optimal d is the same for z as
    for y, and beta = h beta_z + c e_0.
    """
    # imported here so that a fit whose vertices are all certified, and the
    # stages that only classify, do not load scipy
    from scipy.optimize import linprog

    lo, hi = y.min(), y.max()  # lo < hi: constant prices never reach the LP
    c, h = 0.5 * (lo + hi), min(0.5 * (hi - lo), 1.0)
    # d = 1 - tau is feasible and 0 <= d <= 1 bounds the objective, so
    # the dual always has an optimum; presolve only slows this dense LP.
    res = linprog(-(y - c) / h, A_eq=X.T, b_eq=(1.0 - tau) * X.sum(axis=0),
                  bounds=(0, 1), method="highs-ds", options={"presolve": False})
    if not res.success:
        raise FitError(f"quantile LP failed: {res.message}")
    beta = -h * res.eqlin.marginals
    beta[0] += c
    return beta


def _fit_levels(hours, prices, taus, design: FourierDesign) -> list:
    """One QuantileFit per level in `taus`, all on one design matrix."""
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
        return [QuantileFit(tau, coef, "constant") for tau in taus]
    X = design_matrix(hours, design)
    x_sum = X.sum(axis=0)
    if np.linalg.matrix_rank(X) == k:
        interior = _frisch_newton(X, y, taus)
    else:
        interior = np.full((len(taus), k), np.nan)
    fits = []
    # the constant quantiles, which every fit must beat
    constants = np.quantile(y, taus)
    for tau, beta, constant in zip(taus, interior, constants):
        coef = None
        if np.all(np.isfinite(beta)):
            coef = _vertex(X, y, (1.0 - tau) * x_sum, beta)
        solver = "interior-point"
        if coef is None:
            coef, solver = _dual_simplex(X, y, tau), "dual-simplex"
        fitted_loss = pinball_loss(y, X @ coef, tau)
        const_loss = pinball_loss(y, constant, tau)
        if fitted_loss > const_loss + 1e-9 * max(1.0, abs(const_loss)):
            raise FitError("quantile LP returned a fit worse than the constant quantile")
        fits.append(QuantileFit(tau, coef, solver))
    return fits


def fit_quantile(hours, prices, tau: float, design: FourierDesign) -> QuantileFit:
    """Minimize mean pinball loss over Fourier coefficients.

    Solves the dual of the residual-split LP (Koenker & d'Orey 1987):
    maximize y'd subject to X'd = (1 - tau) X'1 and 0 <= d <= 1, whose
    optimum has the coefficients as the multipliers of its k equality rows.
    A Frisch-Newton interior point (Portnoy & Koenker 1997) brings the
    iterate close to the optimum. The k linearly independent observations
    of smallest |residual| then give the exact vertex, the curve through
    their prices. Certificate: with d = 1 above that curve and 0 below it,
    the equality rows fix the k remaining d; when all lie inside (0, 1),
    clear of round-off, the vertex is the unique optimum and is kept. A
    level with a rank-deficient design, another price on the curve (a
    tie), a failed certificate or a gap still open at the iteration cap is
    solved by HiGHS's dual simplex instead. Either way the fitted curve
    passes through k observations up to round-off (see `classify`).
    """
    if not 0 < tau < 1:
        raise FitError(f"tau must be in (0, 1), got {tau}")
    return _fit_levels(hours, prices, [tau], design)[0]


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
    fits = _fit_levels(hours, prices,
                       boundary_levels(m) + representative_levels(m), design)
    return RegimeModel(m, fits[:m - 1], fits[m - 1:], design)


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


def save_model(model: RegimeModel, path) -> None:
    artifacts.write_json(path, {
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
    })


def load_model(path) -> RegimeModel:
    doc = artifacts.read_json(path, "regime-model", keys=(
        "m", "design", "boundary_levels", "boundary_coefficients",
        "representative_levels", "representative_coefficients"))
    # every field has a default, so a missing one would go unnoticed
    names = sorted(f.name for f in fields(FourierDesign))
    if not isinstance(doc["design"], dict) or sorted(doc["design"]) != names:
        raise artifacts.ArtifactError(
            f"{path} holds a design without exactly the keys {names}")
    design = FourierDesign(**doc["design"])
    boundaries = [QuantileFit(tau, np.asarray(coef, dtype=float))
                  for tau, coef in zip(doc["boundary_levels"],
                                       doc["boundary_coefficients"])]
    representatives = [QuantileFit(tau, np.asarray(coef, dtype=float))
                       for tau, coef in zip(doc["representative_levels"],
                                            doc["representative_coefficients"])]
    return RegimeModel(doc["m"], boundaries, representatives, design)
