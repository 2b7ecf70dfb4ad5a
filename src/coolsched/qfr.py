"""Quantile regression on Fourier time features and price-regime bands.

Prices are fit at several quantile levels with sinusoidal regressors at the
daily and yearly periods. Each level is the bounded dual LP of the pinball
loss, which a Frisch-Newton interior point solves in two tiers (see
`_fit_levels`): from 160 observations per feature on, first on the 32 per
feature nearest a smoothed-loss curve, then on all of them, where a level
that the batch leaves uncertified is solved again alone; HiGHS's dual
simplex solves what is left. A level's exact vertex is rebuilt from its
sorted basis and kept when a certificate, checked against every
observation, shows it is the unique optimum, so neither the iterates'
rounding nor the rows a solve used reach an output bit unless they change
the basis. The fitted curves split the price axis into M bands per hour; a
realized price's band is its regime, and a price within TIE_TOL (relative)
of a boundary is on it. Band boundaries sit at levels j/M and each band
carries a representative curve at its mid level.
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
    # rows of the interior-point solve whose vertex was certified: a
    # near-curve band, or all of them; None for the other solvers
    rows: int = None

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
# Near-curve solve, per feature: the fewest rows at which it runs, the
# band's rows, and the most rows left in a level's quadratic zone when its
# smoothing stops. At 11 features the near-curve fit (smoothing, 352-row
# band, all-row certificate) is as fast as the all-rows one at about 1,800
# rows and faster above.
_NEAR_MIN_ROWS = 160
_BAND_ROWS = 32
_STOP_ROWS = 8
# Smoothing: the start width as a quantile of |residual|, the step cap,
# and the halvings and bisections that find a step's length.
_SMOOTH_START = 0.3
_SMOOTH_STEPS = 16
_HALVINGS = 30
_BISECT = 4


def _step(shrink):
    """Per level, the step a <= 1 that goes _STEP of the way to the first
    bound that v + a dv reaches, from shrink, the largest -dv / v."""
    return _STEP / np.maximum(shrink, _STEP)


def _per_level(a, m):
    """a[t] @ m for a design m shared by all levels, a[t] @ m[t] for one
    (levels, rows, cols) stack of them."""
    return a @ m if m.ndim == 2 else np.matmul(a[:, None, :], m)[:, 0]


def _triangles(X):
    """The upper triangles of the rows' outer products x_i x_i', in the
    order of np.triu_indices: row i of the (..., n, k(k+1)/2) table holds
    x_i[a] x_i[b] for a <= b. It is written one row of the triangle at a
    time, with no full-size temporary, and each column is contiguous, as
    in the gather X[..., a] * X[..., b] that it replaces: BLAS sums a
    product with the table in an order that depends on that layout."""
    k = X.shape[-1]
    tri = np.moveaxis(np.empty((k * (k + 1) // 2,) + X.shape[:-1]), 0, -1)
    col = 0
    for a in range(k):
        np.multiply(X[..., a, None], X[..., a:], out=tri[..., col:col + k - a])
        col += k - a
    return tri


def _frisch_newton(X, y, taus, beta=None):
    """Interior-point solution of the bounded dual for each level.

    Mehrotra predictor-corrector on max y'd s.t. X'd = (1 - tau) X'1,
    0 <= d <= 1, with s = 1 - d and dual slacks z, w >= 0 on
    y - X beta = w - z (Koenker 2005, chapter 6), all levels as one
    (T, n) iterate. X (n, k) and y (n,) are either shared by every level
    or stacked per level as (T, n, k) and (T, n): the near-curve problems
    of `_near_curve`, whose last two rows are its globs. A glob's price is
    far beyond every fitted value, so its terms are left out of the gap's
    scale 1 + |y'd|; they would loosen the stop by about G / |y'd|, and
    the iterate would then end too far from the vertex to name its basis.
    The start is d = 1 - tau with the residual of `beta` (T, k), by
    default the least-squares fit, split into z and w: feasible for every
    design, since a glob row sums the rows it stands for, and Newton steps
    keep it so. Returns the (T, k) coefficients, with NaN rows for the
    levels whose gap stays open within _MAX_ITER iterations or whose
    normal equations turn singular (a singular one stops the whole batch).

    Each iteration forms every level's X' diag(q) X from one product with
    a table of the rows' upper triangles of x_i x_i' (n by k(k+1)/2), and
    writes the iterate and its work arrays in place, in (T, n) buffers
    allocated once whose first rows hold the levels still live. The
    order of these sums sets the iterates' last bits, but no output bit:
    only the vertex that `_vertex` rebuilds from its sorted basis leaves
    the fit, so the output holds while each level certifies the same
    basis.
    """
    n, k = X.shape[-2:]
    taus = np.asarray(taus, dtype=float)
    coef = np.full((len(taus), k), np.nan)
    xt = np.ascontiguousarray(np.swapaxes(X, -1, -2))
    # q @ tri holds X' diag(q) X for every level in one matrix product;
    # `mirror` picks the full k x k matrices out of it
    tri = _triangles(X)
    upper = np.triu_indices(k)
    mirror = np.empty((k, k), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(len(upper[0]))
    # d = 1 - tau, and beta's residual split
    if beta is None:
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        r = y - X @ beta
        beta = np.repeat(beta[None, :], len(taus), axis=0)
    else:
        beta = np.array(beta, dtype=float)
        r = y - _per_level(beta, xt)
    r += 1e-3 * (r == 0)  # a zero residual would start both z and w at 0
    live = np.arange(len(taus))
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
            normal = np.take(_per_level(q, tri), mirror, axis=1)
            np.subtract(w, z, out=r)

            def newton(rhs):
                # dbeta from (X'QX) dbeta = X'Q rhs, then dd = q (rhs - X dbeta)
                xq = _per_level(np.multiply(q, rhs, out=tmp), X)
                db = np.linalg.solve(normal, xq[:, :, None])[:, :, 0]
                if xt.ndim == 2:
                    np.matmul(db, xt, out=dd)
                else:
                    np.matmul(db[:, None, :], xt, out=dd[:, None, :])
                np.subtract(rhs, dd, out=dd)
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
            done = gap <= _GAP_TOL * (1.0 + np.abs(
                d @ y if y.ndim == 1 else np.vecdot(d[:, :-2], y[:, :-2])))
            coef[live[done]] = beta[done]
            keep = ~done & np.isfinite(gap)
            if not keep.any():
                break
            if not keep.all():
                # move the iterates of the levels that go on to the front
                work[:4, :keep.sum()] = work[:4, :len(live)][:, keep]
                live, gap, beta = live[keep], gap[keep], beta[keep]
                if X.ndim == 3:
                    X, xt, tri, y = X[keep], xt[keep], tri[keep], y[keep]
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


def _nearest(off, count):
    """The rows whose `off` is at most the count-th smallest, in the order
    of a stable argsort: that sort's exact prefix, ties at its edge included."""
    edge = np.partition(off, count - 1)[count - 1]
    rows = np.flatnonzero(off <= edge)
    return rows[np.argsort(off[rows], kind="stable")]


def _vertex(X, y, b, beta):
    """The optimal vertex next to an interior solution, if certified.

    `b` is (1 - tau) X'1 and `beta` the interior-point coefficients. The
    basis is the k independent rows of smallest |residual|, and the
    vertex the curve through their prices. It is accepted when no other
    price lies on it and the dual values it implies are inside (0, 1) by
    more than _CERT_TOL: with d = 1 above the curve and 0 below it, the
    basic d solve X_h' d_h = (1 - tau) X'1 - X_N' d_N. That is the
    optimality condition, and strictness makes this vertex the only
    optimum. Returns None otherwise. The rows are scanned in the order of
    a stable argsort of |residual|, of which `_nearest` gives the first
    4k or more; the full sort is made only when those hold no basis.
    """
    off = np.abs(y - X @ beta)
    basis = _basis_rows(X, _nearest(off, 4 * X.shape[1]))
    if basis is None:
        basis = _basis_rows(X, np.argsort(off, kind="stable"))
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


def _smoothed(X, y, taus, stop):
    """Coefficients near each level's optimum, from Newton steps on the
    check loss smoothed to a quadratic on residuals |r| < g: there the
    derivative is r / (2 g) + tau - 1/2 (a finite smoothing in the manner
    of Chen 2007, "A finite smoothing algorithm for quantile regression").

    The start is the least-squares fit shifted by each level's quantile of
    its residuals, and g starts at the 0.3-quantile of |residual|. Each
    step solves the smoothed Newton system, whose Hessian sums
    x_i x_i' / (2 g) over the rows in the zone only, takes a step length
    that lowers the smoothed loss (`_step_length`), and halves g. A level
    stops once at most `stop` rows lie in its zone, or when g is 0 (data
    that a curve fits exactly).

    The steps' (T, n) arrays are written in place into two blocks, seven
    float and three bool arrays allocated once per call, whose first rows
    hold the levels still stepping. Each operation is the one its
    out-of-place form would make, on operands of the same layout, so the
    buffers move no bit.
    """
    taus = np.asarray(taus, dtype=float)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    beta = np.repeat(beta[None, :], len(taus), axis=0)
    beta[:, 0] += np.quantile(r, taus)
    # residuals, the step's operands a and b, its change to the residuals,
    # and three for `_step_length`
    work = np.empty((7, len(taus), len(y)))
    r, a, b, u = work[:4]
    np.subtract(y, np.matmul(beta, X.T, out=r), out=r)
    gamma = np.quantile(np.abs(r, out=a), _SMOOTH_START, axis=1,
                        overwrite_input=True)
    # each level's zone, and two for `_step_length`
    flags = np.empty((3,) + r.shape, dtype=bool)
    zone = flags[0]
    live = np.arange(len(taus))
    # r / g can overflow to inf for a tiny g, which the clip takes to the
    # end of the derivative it belongs to
    with np.errstate(over="ignore"):
        for _ in range(_SMOOTH_STEPS):
            front = slice(len(live))
            np.less(np.abs(r[front], out=a[front]), gamma[:, None],
                    out=zone[front])
            keep = (zone[front].sum(axis=1) > stop) & (gamma > 0)
            if not keep.any():
                break
            if not keep.all():
                # a level never steps again, so the rest move to the front
                for row, level in enumerate(np.flatnonzero(keep)):
                    r[row], zone[row] = r[level], zone[level]
                live, gamma = live[keep], gamma[keep]
                front = slice(len(live))
            a_l = np.divide(r[front], gamma[:, None], out=a[front])
            skew = taus[live, None] - 0.5
            slope = np.clip(a_l, -1.0, 1.0, out=b[front])
            slope *= 0.5
            slope += skew
            grad = slope @ X
            hess = np.stack([X[z].T @ X[z] for z in zone[front]])
            try:
                delta = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            delta *= 2.0 * gamma[:, None]
            u_l = np.matmul(delta, X.T, out=u[front])
            b_l = np.divide(u_l, gamma[:, None], out=b[front])
            alpha = _step_length(a_l, b_l, skew, work[4:, front],
                                 flags[1:, front])[:, None]
            beta[live] += alpha * delta
            r[front] -= np.multiply(alpha, u_l, out=u_l)
            gamma *= 0.5
    return beta


def _step_length(a, b, skew, work, flags):
    """Per level, a step t in [0, 1] along -b that lowers the smoothed loss.

    `a` holds the residuals and `b` the step's change to them, in units of
    the zone's half-width, and the loss's derivative along the step is
    -sum (clip(a - t b, -1, 1) / 2 + skew) b. The step is 1 where that is
    still <= 0; elsewhere it halves until it is, then bisects the bracket
    of the root, and it is 0 if _HALVINGS halvings never get there. A row
    whose path from a to a - b stays on one side of the zone adds a
    constant; the others are packed, per level, into a zero-padded block.
    `work` holds three float and `flags` two bool arrays of a's shape,
    written in place.
    """
    lo, hi, span = work
    np.subtract(a, b, out=lo)
    np.maximum(a, lo, out=hi)
    np.minimum(a, lo, out=lo)
    below = np.less_equal(hi, -1.0, out=flags[0])
    above = np.greater_equal(lo, 1.0, out=flags[1])
    # the derivative's part from the rows that stay below or above
    np.copyto(lo, below)
    lo -= above
    lo *= 0.5
    lo -= skew
    fixed = np.vecdot(lo, b)
    moving = np.logical_not(np.logical_or(below, above, out=below), out=below)
    count = moving.sum(axis=1)
    width = max(count.max(initial=0), 1)
    pa, pb, span = lo[:, :width], hi[:, :width], span[:, :width]
    for level, (rows, used) in enumerate(zip(moving, count)):
        np.compress(rows, a[level], out=pa[level, :used])
        np.compress(rows, b[level], out=pb[level, :used])
        pa[level, used:] = pb[level, used:] = 0.0

    def rising(t):
        np.multiply(t[:, None], pb, out=span)
        np.subtract(pa, span, out=span)
        np.clip(span, -1.0, 1.0, out=span)
        return fixed - 0.5 * np.vecdot(span, pb) > 0

    short = np.ones(len(a))
    long = short.copy()
    up = rising(short)
    for _ in range(_HALVINGS):
        if not up.any():
            break
        long = np.where(up, short, long)
        short = np.where(up, 0.5 * short, short)
        up = rising(short)
    # a level still rising after every halving takes no step; the others
    # that halved bracket the root in [short, long)
    stuck, halved = up, (short < long) & ~up
    if halved.any():
        for _ in range(_BISECT):
            mid = 0.5 * (short + long)
            up = rising(mid)
            long = np.where(halved & up, mid, long)
            short = np.where(halved & ~up, mid, short)
    return np.where(stuck, 0.0, short)


def _near_curve(X, y, beta, rows):
    """Each level's `rows` observations nearest its curve beta, stacked as
    (T, rows + 2, k) and (T, rows + 2), plus two glob rows: the sum of the
    design rows above the band at price G and of those below at -G, with
    G = 10 (sum |y| + 1) far beyond any fitted sum. A glob keeps its side
    at the optimum, so the reduced LP has every other row's dual value
    fixed: 1 above the curve, 0 below."""
    T, k = beta.shape
    r, off, side = np.empty((3, T, len(y)))
    np.subtract(y, np.matmul(beta, X.T, out=r), out=r)
    np.abs(r, out=off)
    band = np.empty((T, rows), dtype=np.intp)
    for level, level_off in enumerate(off):
        band[level] = np.sort(np.argpartition(level_off, rows - 1)[:rows])
    np.sign(r, out=side)
    np.put_along_axis(side, band, 0.0, axis=1)
    Xs = np.empty((T, rows + 2, k))
    Xs[:, :rows] = X[band]
    Xs[:, rows] = np.greater(side, 0.0, out=off) @ X
    Xs[:, rows + 1] = np.less(side, 0.0, out=off) @ X
    glob = 10.0 * (np.abs(y).sum() + 1.0)
    ys = np.empty((T, rows + 2))
    ys[:, :rows] = y[band]
    ys[:, rows] = glob
    ys[:, rows + 1] = -glob
    return Xs, ys


def band_rows(n: int, k: int) -> int:
    """Rows of the near-curve band of an n-row, k-feature fit, 32k, or n
    when n is below 160k rows and the near-curve solve does not pay: at the
    paper's k = 11, a band of 352 rows from 1,760 rows on, so that a
    one-summer training set (2,208 rows) takes the band."""
    if n < _NEAR_MIN_ROWS * k:
        return n
    return _BAND_ROWS * k


def _fit_levels(hours, prices, taus, design: FourierDesign) -> list:
    """One QuantileFit per level in `taus`, each minimizing the mean
    pinball loss over Fourier coefficients, all on one design matrix.

    Each level solves the dual of the residual-split LP (Koenker & d'Orey
    1987): maximize y'd subject to X'd = (1 - tau) X'1 and 0 <= d <= 1,
    whose optimum has the coefficients as the multipliers of its k equality
    rows. A Frisch-Newton interior point (Portnoy & Koenker 1997) brings
    the iterate close to the optimum. The k linearly independent
    observations of smallest |residual| then give the exact vertex, the
    curve through their prices. Certificate: with d = 1 above that curve
    and 0 below it, the equality rows fix the k remaining d; when all lie
    inside (0, 1), clear of round-off, the vertex is the unique optimum and
    is kept.

    Two tiers. From 160 observations per feature on (`band_rows`; 1,760 at
    k = 11, so a one-summer training set of 2,208 hours), the interior
    point first runs on a reduced LP: the 32k observations nearest a curve
    from Newton steps on a smoothed loss (`_smoothed`), with every other
    d fixed at 1 or 0 by two glob rows (`_near_curve`). The certificate
    still reads all n observations, so a vertex it accepts is the unique
    optimum of the whole LP, rebuilt bit for bit from the same sorted basis
    as the all-rows solve would give. The levels it refuses, and every
    level of a smaller fit, are solved together on all rows. A batch's
    products round unlike one level's, and on tied prices that can stop a
    level where its nearest rows name no certified vertex, so a level the
    batch leaves uncertified is solved again alone. A level with a
    rank-deficient design, a tie on its curve, no certificate on all rows
    or a gap still open at the iteration cap goes to HiGHS's dual simplex.
    Either way the curve passes through k observations up to round-off
    (see `classify`).
    """
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
    taus = np.asarray(taus, dtype=float)
    vertices, rows = [None] * len(taus), [None] * len(taus)

    def certify(levels, interior, used):
        """Keep each level's certified vertex; returns the levels without one."""
        for level, coef in zip(levels, interior):
            if np.all(np.isfinite(coef)):
                vertices[level] = _vertex(X, y, (1.0 - taus[level]) * x_sum, coef)
            if vertices[level] is not None:
                rows[level] = used
        return [level for level in levels if vertices[level] is None]

    pending = list(range(len(taus))) if np.linalg.matrix_rank(X) == k else []
    band = band_rows(n, k)
    if band < n and pending:
        beta = _smoothed(X, y, taus, _STOP_ROWS * k)
        pending = certify(pending, _frisch_newton(*_near_curve(X, y, beta, band),
                                                  taus, beta), band)
    if pending:
        batch = pending
        pending = certify(batch, _frisch_newton(X, y, taus[batch]), n)
        if len(batch) > 1:
            for level in pending:
                certify([level], _frisch_newton(X, y, taus[[level]]), n)
    fits = []
    # the constant quantiles, which every fit must beat
    constants = np.quantile(y, taus)
    for tau, coef, used, constant in zip(taus, vertices, rows, constants):
        solver = "interior-point"
        if coef is None:
            coef, solver = _dual_simplex(X, y, tau), "dual-simplex"
        fitted_loss = pinball_loss(y, X @ coef, tau)
        const_loss = pinball_loss(y, constant, tau)
        if fitted_loss > const_loss + 1e-9 * max(1.0, abs(const_loss)):
            raise FitError("quantile LP returned a fit worse than the constant quantile")
        fits.append(QuantileFit(float(tau), coef, solver, used))
    return fits


def fit_quantile(hours, prices, tau: float, design: FourierDesign) -> QuantileFit:
    """The fit of one quantile level tau in (0, 1) (see `_fit_levels`)."""
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

    An int for one hour and price, and an int64 array for parallel arrays
    of them. A price on a boundary goes to the lower band. "On" means within
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


# the pipeline's name for classify over parallel hour and price arrays,
# whose labels come back as one int64 array
classify_series = classify


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

    def level_fits(kind):
        levels, coefs = doc[f"{kind}_levels"], doc[f"{kind}_coefficients"]
        if len(coefs) != len(levels):
            raise artifacts.ArtifactError(
                f"{path} holds {len(coefs)} {kind}_coefficients lists for "
                f"{len(levels)} {kind}_levels")
        fits = []
        for tau, coef in zip(levels, coefs):
            coef = np.asarray(coef, dtype=float)
            if coef.shape != (design.n_features,):
                raise artifacts.ArtifactError(
                    f"{path} holds a {kind}_coefficients list of {coef.size} "
                    f"numbers, expected {design.n_features}")
            fits.append(QuantileFit(tau, coef))
        return fits

    return RegimeModel(doc["m"], level_fits("boundary"),
                       level_fits("representative"), design)
