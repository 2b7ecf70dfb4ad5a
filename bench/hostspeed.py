"""Host-speed reference: fixed work timed next to the measured work.

On a shared host, other tenants slow every instruction of this one. The
slowdown has a fast part, which flips within a second and averages out
over a stage of several seconds, and a slow part, which drifts by up to
1.6x over tens of seconds to minutes. Identical work then takes different
wall times in different runs, and more repetitions within a run do not
help when the whole run falls in a slow stretch. The benchmark therefore
times probe() before and after each timed step, in the same process, and
rescales the step's wall time to the speed at which probe() takes
REFERENCE_S:

    normalized = wall * REFERENCE_S / mean(probe before, probe after)

probe() runs the kinds of code the pipeline spends its time in: a
pure-Python loop, and a small quantile-regression LP solved by HiGHS'
interior-point method (as qfr.fit_quantile does) and by its dual simplex.
On a 2-vCPU Xeon guest these slowed together (log timings correlated
0.77-0.87 over a minute). One probe lasts about 0.1 s, long enough to
average some of the fast part of the slowdown. It runs in the timed
process, between stages: work on the other vCPU would slow the timed
process itself. It uses only numpy and scipy, never coolsched, so a change
to the program moves the normalized time exactly as it moves the wall
time. Wall times and probe durations are kept in the run record.
"""

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

REFERENCE_S = 0.1     # probe duration at the reference host speed
LOOP_ITERATIONS = 500_000
LP_OBS = 500
LP_FEATURES = 8


def _quantile_lp():
    """A fixed 0.7-quantile regression as an equality-form LP."""
    rng = np.random.default_rng(20250803)
    x = rng.normal(size=(LP_OBS, LP_FEATURES))
    y = x @ rng.normal(size=LP_FEATURES) + rng.standard_t(3, size=LP_OBS)
    tau = 0.7
    c = np.concatenate([np.zeros(LP_FEATURES), tau * np.ones(LP_OBS),
                        (1 - tau) * np.ones(LP_OBS)])
    eye = sparse.identity(LP_OBS, format="csr")
    a_eq = sparse.hstack([sparse.csr_matrix(x), eye, -eye], format="csr")
    bounds = [(None, None)] * LP_FEATURES + [(0, None)] * (2 * LP_OBS)
    return c, a_eq, y, bounds


_LP = _quantile_lp()


def _python_loop(iterations):
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def probe():
    """Wall seconds of the fixed reference work."""
    c, a_eq, b_eq, bounds = _LP
    start = time.perf_counter()
    _python_loop(LOOP_ITERATIONS)
    linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs-ipm")
    linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs-ds")
    return time.perf_counter() - start


def factor(before, after):
    """Multiplier from wall seconds to the reference host speed."""
    return REFERENCE_S / ((before + after) / 2)
