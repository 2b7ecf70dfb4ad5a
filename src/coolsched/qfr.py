"""Quantile regression on Fourier time features and price-regime bands.

Prices are fit at several quantile levels with sinusoidal regressors at the
daily and yearly periods. Each level is the bounded dual LP of the pinball
loss, which one Frisch-Newton interior point solves in up to two passes
(see `_fit_levels`): on the 32 observations per feature nearest a
smoothed-loss curve, then on all of them for the levels the first pass
leaves uncertified; HiGHS's dual simplex solves what is left. A level's
exact vertex is rebuilt from its sorted basis and kept when a certificate,
checked against every observation, shows it is the unique optimum, so
neither the iterates' rounding nor the rows a solve used reach an output
bit unless they change the basis. An M-regime model holds the curves at
levels i/2M, i < 2M, in one matrix: at even i the boundaries j/M of M price
bands per hour, at odd i each band's representative. A realized price's
band is its regime, and a price within TIE_TOL (relative) of a boundary is
on it.
"""

from dataclasses import dataclass, fields

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
    # how the fit was solved: "interior-point", "dual-simplex" or "constant"
    solver: str
    # rows of the interior-point solve whose vertex was certified: a
    # near-curve band, or all of them; None for the other solvers
    rows: int = None


# Frisch-Newton interior point (Portnoy & Koenker 1997): the share of the
# way to the nearest bound (d, 1 - d, z, w >= 0) that a step may go, the
# duality gap relative to 1 + |y'd| at which a level stops, and the
# iteration cap. At 1e-10 an all-rows solve could stop too far from a
# vertex with a basic d within 5e-5 of a bound to name its basis.
_STEP = 0.99995
_GAP_TOL = 1e-11
_MAX_ITER = 50
# A row whose part outside the span of the rows already in the basis is
# below this share of its norm depends on them (a repeated design row).
_RANK_TOL = 1e-9
# A basic dual value within this of 0 or 1 may sit on the bound but for the
# round-off of its solve, whose sums over n rows, amplified by the basis's
# condition number, reach about 6e-9 at paper scale (n = 6624); on the
# bound, the vertex need not be the only optimum.
_CERT_TOL = 1e-7
# Near-curve solve, per feature: the band's rows, and the most rows left
# in a level's quadratic zone when its smoothing stops.
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


def _frisch_newton(X, y, taus, beta):
    """Interior-point solution of the bounded dual for each level.

    Mehrotra predictor-corrector on max y'd s.t. X'd = (1 - tau) X'1,
    0 <= d <= 1, with s = 1 - d and dual slacks z, w >= 0 on
    y - X beta = w - z (Koenker 2005, chapter 6), all levels as one
    (T, n) iterate. X (T, n, k) and y (T, n) are the levels' problems as
    `_near_curve` stacks them, whose last two rows are its globs; when the
    band holds every row, X is one (1, n, k) design that every level
    shares, with zero globs. A glob's price is far beyond
    every fitted value, so its terms are left out of the gap's scale
    1 + |y'd|; they would loosen the stop by about G / |y'd|, and the
    iterate would then end too far from the vertex to name its basis. The
    start is d = 1 - tau with the residual of the caller's `beta` (T, k)
    split into z and w: feasible for every design, since a glob row sums
    the rows it stands for, and Newton steps keep it so. Returns the
    (T, k) coefficients, with NaN rows for the levels whose gap stays open
    within _MAX_ITER iterations or whose normal equations turn singular (a
    singular one stops the whole batch).

    Each iteration forms every level's X' diag(q) X from one product with
    a table of the rows' upper triangles of x_i x_i' (n by k(k+1)/2), and
    writes the iterate and its work arrays in place, in (T, n) buffers
    allocated once whose first rows hold the levels still live. The
    order of these sums sets the iterates' last bits, but no output bit:
    only the vertex that `_vertex` rebuilds from its sorted basis leaves
    the fit, so the output holds while each level certifies the same
    basis.
    """
    n, k = X.shape[1:]
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
    beta = np.array(beta, dtype=float)
    r = y - np.matmul(beta[:, None, :], xt)[:, 0]
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
            normal = np.take(np.matmul(q[:, None, :], tri)[:, 0], mirror, axis=1)
            np.subtract(w, z, out=r)

            def newton(rhs):
                # dbeta from (X'QX) dbeta = X'Q rhs, then dd = q (rhs - X dbeta)
                xq = np.matmul(np.multiply(q, rhs, out=tmp)[:, None, :], X)[:, 0]
                db = np.linalg.solve(normal, xq[:, :, None])[:, :, 0]
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
                np.vecdot(d[:, :-2], y[:, :-2])))
            coef[live[done]] = beta[done]
            keep = ~done & np.isfinite(gap)
            if not keep.any():
                break
            if not keep.all():
                # move the iterates of the levels that go on to the front
                work[:4, :keep.sum()] = work[:4, :len(live)][:, keep]
                live, gap, beta, y = live[keep], gap[keep], beta[keep], y[keep]
                if len(X) > 1:
                    X, xt, tri = X[keep], xt[keep], tri[keep]
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


def _vertex(X, y, b, curve):
    """The optimal vertex next to an interior solution, if certified.

    `b` is (1 - tau) X'1 and `curve` the interior point's fitted values. The
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
    off = np.abs(y - curve)
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


def _orthonormal(X):
    """U, an orthonormal basis of X's columns (as np.linalg.matrix_rank
    counts them), and W with X W = U, from the SVD X = U S V'."""
    u, sv, vt = np.linalg.svd(X, full_matrices=False)
    rank = np.sum(sv > sv[0] * max(X.shape) * np.finfo(float).eps)
    return u[:, :rank], vt[:rank].T / sv[:rank]


def _dual_simplex(X, y, tau):
    """The bounded dual solved by HiGHS; its equality marginals give beta.

    HiGHS's tolerances are absolute, and at their 1e-7 default two prices
    within about that of each other read as tied, so any vertex between
    them passes as optimal: on two clusters of prices each 2e-7 wide, the
    vertex HiGHS stops at can lose to the constant quantile. So both
    feasibility tolerances are first at their 1e-10 floor, and the prices
    go in as z = (y - c) / h, centred, and scaled up to a half-range of at
    least one, so that a tiny spread does not fall under them either. Since
    X's first column is all ones, 1'd = (1 - tau) n is fixed, the optimal d
    is the same for z as for y, and beta = h beta_z + c e_0.

    At the floor HiGHS may find no optimum. A near-collinear design (the
    yearly harmonics over one week) then goes in as U'd = (1 - tau) U'1 on
    its orthonormal basis U, the same LP; on X at the default tolerances
    its optimum can be several percent off. Prices ranging over 1e6 find
    none on U either, and go in on X at the default tolerances.
    """
    # imported here so that a fit whose vertices are all certified, and the
    # stages that only classify, do not load scipy
    from scipy.optimize import linprog

    lo, hi = y.min(), y.max()  # lo < hi: constant prices never reach the LP
    c, h = 0.5 * (lo + hi), min(0.5 * (hi - lo), 1.0)
    # (equality rows, the map from their multipliers to beta, tolerance)
    solves = ((X, None, 1e-10), (*_orthonormal(X), 1e-10), (X, None, 1e-7))
    # d = 1 - tau is feasible and 0 <= d <= 1 bounds the objective, so
    # the dual always has an optimum; presolve only slows this dense LP.
    for rows, to_beta, tol in solves:
        res = linprog(-(y - c) / h, A_eq=rows.T, b_eq=(1.0 - tau) * rows.sum(axis=0),
                      bounds=(0, 1), method="highs-ds",
                      options={"presolve": False, "dual_feasibility_tolerance": tol,
                               "primal_feasibility_tolerance": tol})
        if res.success:
            break
    else:
        raise FitError(f"quantile LP failed: {res.message}")
    beta = -h * res.eqlin.marginals
    beta = beta if to_beta is None else to_beta @ beta
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
    fixed: 1 above the curve, 0 below. A band of every row is every
    level's whole LP in row order, with zero globs, so its design is one
    (1, rows + 2, k) copy that the levels share."""
    T, k = beta.shape
    glob = 10.0 * (np.abs(y).sum() + 1.0)
    ys = np.empty((T, rows + 2))
    ys[:, rows:] = glob, -glob
    if rows == len(y):
        ys[:, :rows] = y
        return np.concatenate([X, np.zeros((2, k))])[None], ys
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
    ys[:, :rows] = y[band]
    return Xs, ys


def band_rows(n: int, k: int) -> int:
    """Rows of the near-curve band of an n-row, k-feature fit: 32k, at most n."""
    return min(_BAND_ROWS * k, n)


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

    The interior point runs on a reduced LP (`_near_curve`): each level's
    rows nearest a curve from Newton steps on a smoothed loss
    (`_smoothed`), with every other d fixed at 1 or 0 by two glob rows.
    First the band holds 32k rows (`band_rows`), then, for the levels it
    leaves uncertified, all n, where the globs are empty; a fit of at most
    32k rows takes the second pass only. Both run on the design's
    orthonormal basis (`_orthonormal`): over a short span the yearly
    harmonics are near-collinear with the intercept, and on X the iterate
    can then miss the vertex. The certificate reads all n observations
    either way, so a vertex it accepts is the unique optimum of the whole
    LP, rebuilt bit for bit from the same sorted basis whichever pass found
    it. A level with a rank-deficient design, a tie on its curve, no
    certificate on all rows or a gap still open at the iteration cap goes
    to HiGHS's dual simplex. Either way the curve passes through k
    observations up to round-off (see `classify`).
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
    U, _ = _orthonormal(X)
    pending = list(range(len(taus))) if U.shape[1] == k else []
    # the interior point's coefficients are on U: beta_u = U'X beta
    beta = _smoothed(X, y, taus, _STOP_ROWS * k) @ (X.T @ U) if pending else None
    for used in sorted({band_rows(n, k), n}):
        if not pending:
            break
        interior = _frisch_newton(*_near_curve(U, y, beta[pending], used),
                                  taus[pending], beta[pending])
        for level, coef in zip(pending, interior):
            if np.all(np.isfinite(coef)):
                vertices[level] = _vertex(X, y, (1.0 - taus[level]) * x_sum, U @ coef)
            if vertices[level] is not None:
                rows[level] = used
        pending = [level for level in pending if vertices[level] is None]
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


def levels(m: int) -> list:
    """The 2M - 1 levels i/2M of an M-regime model: band boundaries j/M at
    even i, each band's representative at its mid level at odd i."""
    return [i / (2 * m) for i in range(1, 2 * m)]


@dataclass
class RegimeModel:
    """M price bands per hour: row i of the (2M - 1, k) `coefficients` is
    the quantile curve at levels(m)[i], so the even rows are the M
    representatives and the odd rows the M - 1 boundaries.

    Independently fitted quantile curves can cross; `surfaces_at` sorts all
    curves per hour (a monotone rearrangement), so boundaries are
    non-decreasing and each representative lies inside its band, which
    makes classify(representative) round-trip.
    """

    m: int
    design: FourierDesign
    coefficients: np.ndarray

    def __post_init__(self):
        # a row per level i/2M, 0 < i < 2M; range refuses a non-integer m
        shape = (len(range(1, 2 * self.m)), self.design.n_features)
        if np.shape(self.coefficients) != shape:
            raise ValueError(f"expected {shape} coefficients, got {np.shape(self.coefficients)}")

    def surfaces_at(self, hours):
        """Rearranged (boundaries, representatives) at the given hour(s).

        boundaries has shape (..., M-1) and representatives (..., M); both are
        non-decreasing along the last axis and interleave.
        """
        raw = design_matrix(hours, self.design) @ self.coefficients.T
        ordered = np.sort(raw, axis=-1)
        if np.ndim(hours) == 0:
            ordered = ordered[0]
        representatives = ordered[..., 0::2]
        boundaries = ordered[..., 1::2]
        return boundaries, representatives


def fit_regimes(hours, prices, m: int, design: FourierDesign):
    """The M-regime model fitted at `levels(m)`, and its QuantileFits in
    level order."""
    if not 2 <= m <= 16:
        raise FitError(f"regime count must be in 2..16, got {m}")
    fits = _fit_levels(hours, prices, levels(m), design)
    return RegimeModel(m, design, np.array([fit.coefficients for fit in fits])), fits


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
    taus = levels(model.m)
    artifacts.write_json(path, {
        "kind": "regime-model",
        "m": model.m,
        "design": {
            "daily_harmonics": model.design.daily_harmonics,
            "seasonal_harmonics": model.design.seasonal_harmonics,
            "period_daily": model.design.period_daily,
            "period_seasonal": model.design.period_seasonal,
        },
        "boundary_levels": taus[1::2],
        "boundary_coefficients": model.coefficients[1::2].tolist(),
        "representative_levels": taus[0::2],
        "representative_coefficients": model.coefficients[0::2].tolist(),
    })


def load_model(path) -> RegimeModel:
    doc = artifacts.read_json(path, "regime-model", keys=(
        "m", "design", "boundary_levels", "boundary_coefficients",
        "representative_levels", "representative_coefficients"))
    with artifacts.loading(path, "regime-model"):
        # every field has a default, so a missing one would go unnoticed
        names = sorted(f.name for f in fields(FourierDesign))
        if not isinstance(doc["design"], dict) or sorted(doc["design"]) != names:
            raise artifacts.ArtifactError(
                f"{path} holds a design without exactly the keys {names}")
        design = FourierDesign(**doc["design"])
        # sized by the file's lists, not by m, which RegimeModel then checks
        taus, k = levels(len(doc["representative_levels"])), design.n_features
        coefficients = np.empty((len(taus), k))
        for kind, first in (("boundary", 1), ("representative", 0)):
            held, coefs = doc[f"{kind}_levels"], doc[f"{kind}_coefficients"]
            if held != taus[first::2]:
                raise artifacts.ArtifactError(
                    f"{path} holds {kind}_levels {held}, expected {taus[first::2]}")
            if len(coefs) != len(held):
                raise artifacts.ArtifactError(
                    f"{path} holds {len(coefs)} {kind}_coefficients lists for "
                    f"{len(held)} {kind}_levels")
            sizes = [np.size(coef) for coef in coefs if np.shape(coef) != (k,)]
            if sizes:
                raise artifacts.ArtifactError(f"{path} holds a {kind}_coefficients "
                                              f"list of {sizes[0]} numbers, expected {k}")
            coefficients[first::2] = coefs
        return RegimeModel(doc["m"], design, coefficients)
