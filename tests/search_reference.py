"""The search kernel in its first, row-major form: one start per row, the
pulse pairs built with complex arithmetic, every product with the identity
carried out, and no start ever dropped from the batch. A palindrome's
coordinates are expanded to its pulses and its Jacobian folded back one
mirrored pair at a time.

Its sums are written out in the order in which numpy's ``einsum`` and
``matmul`` add them on float64: four terms as (0 + 2) + (1 + 3), and the
terms over pulses one after another. ``hologate.synthesis`` must reproduce
this kernel bit for bit on every start up to the first hit; the tests compare
the two on random batches.
"""

import math

import numpy as np

from hologate.su2 import pair_mul, pair_of
from hologate.synthesis import _MAX_ITERATIONS, TOLERANCE


def fold(x):
    r = np.mod(x, math.pi)
    flip = r > math.pi / 2
    return np.where(flip, math.pi - r, r), np.where(flip, -1.0, 1.0)


def sum4(p):
    """Sum over the last axis, of length 4."""
    return (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])


def real(a, b):
    return np.stack((a, b), axis=-1).view(float)


def jacobian(x):
    """q for each row of x (starts, N), shape (starts, 4), and dq/dx, shape (starts, N, 4)."""
    beta, dbeta = fold(x)
    s, c = np.sin(beta), np.cos(beta)
    sp, cp = np.sin(math.pi * s), np.cos(math.pi * s)
    ga, gb = -cp - 1j * s * sp, 1j * c * sp
    da = dbeta * (math.pi * c * sp - 1j * c * (sp + math.pi * s * cp))
    db = dbeta * 1j * (math.pi * c * c * cp - s * sp)
    pa, pb = np.ones((len(x), x.shape[1] + 1), complex), np.zeros((len(x), x.shape[1] + 1), complex)
    sa, sb = np.ones_like(ga), np.zeros_like(gb)
    for k in range(x.shape[1]):
        pa[:, k + 1], pb[:, k + 1] = pair_mul(ga[:, k], gb[:, k], pa[:, k], pb[:, k])
    for k in range(x.shape[1] - 1, 0, -1):
        sa[:, k - 1], sb[:, k - 1] = pair_mul(sa[:, k], sb[:, k], ga[:, k], gb[:, k])
    dq = pair_mul(sa, sb, *pair_mul(da, db, pa[:, :-1], pb[:, :-1]))
    return real(pa[:, -1], pb[:, -1]), real(*dq)


def expand(y, n):
    """The n pulse coordinates of each row of y (starts, m): y itself if
    m = n, else the palindrome y || reverse(y[:, :n - m])."""
    m = y.shape[1]
    return y if m == n else np.concatenate((y, y[:, : n - m][:, ::-1]), axis=1)


def fold_back(jac, m):
    """dq/dy (starts, m, 4) from dq/dx (starts, n, 4) of the expanded pulses:
    coordinate k < n - m drives pulses k and n-1-k; the others one pulse each."""
    n = jac.shape[1]
    out = jac[:, :m].copy()
    for k in range(n - m):
        out[:, k] = jac[:, k] + jac[:, n - 1 - k]
    return out


def residual(x, target_pair, n):
    """r, dr/dx and |r|^2 / 2 for n-pulse sequences with the coordinates x
    (starts, n) or the palindromic (starts, ceil(n/2)); ``target_pair`` has
    shape (4,)."""
    q, jac = jacobian(expand(x, n))
    jac = fold_back(jac, x.shape[1])
    sign = np.where(sum4(q * target_pair) >= 0.0, 1.0, -1.0)
    r = q - sign[:, None] * target_pair
    return r, jac, 0.5 * sum4(r * r)


def normal(jac):
    """J J^T per start, shape (starts, 4, 4), summed over the pulses in order."""
    total = np.zeros((len(jac), 4, 4))
    for k in range(jac.shape[1]):
        total = total + jac[:, k, :, None] * jac[:, k, None, :]
    return total


def descend(x, target_pair, n):
    """Levenberg-Marquardt on every row of x (starts, coordinates) in lockstep,
    for sequences of n pulses (see ``residual``), with the stop rule of
    ``synthesis._descend``. Returns the coordinates, each start's infidelity,
    and the lowest hit before each iteration (None if no start was within
    TOLERANCE), one entry per iteration run."""
    x = x.copy()
    r, jac, infidelity = residual(x, target_pair, n)
    damping = np.full(len(x), 1e-2)
    lowest_hits = []
    for iterations in range(_MAX_ITERATIONS + 1):
        hits = np.flatnonzero(infidelity <= TOLERANCE)
        if iterations == _MAX_ITERATIONS or (hits.size and infidelity[hits[0]] <= TOLERANCE**2):
            break
        lowest_hits.append(int(hits[0]) if hits.size else None)
        system = normal(jac) + damping[:, None, None] * np.eye(4)
        y = np.linalg.solve(system, r[..., None])[..., 0]
        trial_x = x - sum4(jac * y[:, None, :])
        trial_r, trial_jac, trial_infidelity = residual(trial_x, target_pair, n)
        better = trial_infidelity < infidelity
        x[better], r[better], jac[better] = trial_x[better], trial_r[better], trial_jac[better]
        infidelity[better] = trial_infidelity[better]
        damping = np.where(better, np.maximum(damping / 3, 1e-12), damping * 4)
    return x, infidelity, lowest_hits


def target_pair(m):
    """The target's unit pair as a 4-vector, shape (4,)."""
    return real(*pair_of(m))
