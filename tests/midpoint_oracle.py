"""Closed form of the midpoint integrator's ordered product, for tests.

Every step factor is a rotated copy of the unrotated one:
F_k = R(t_k) G R(t_k)^dagger, with R(t) = exp(-i w t sz / 2),
G = exp(-i H(0) dt) and t_k = t0 + (k + 1/2) dt. So the product
F_{n-1} ... F_0 telescopes to

    R(t0 + dt/2) R(n dt) (R(dt)^dagger G)^n R(t0 + dt/2)^dagger,

and the n-th power of an SU(2) element cos(theta) - i sin(theta) u.sigma is
cos(n theta) - i sin(n theta) u.sigma, with theta = atan2(|v|, w). acos(w)
would lose ~1e-5 here, because theta is ~1e-6 at 10^6 steps.

The oracle rests on the same rotating-frame symmetry as ``exact_propagator``,
so it is not independent of the physics: it checks the tree product and the
prefix scan to rounding, not the integrator's truncation error. G is built
from the same cos/sin of the half step angle as the integrator's factors,
because a rounding difference there would repeat coherently in every factor.
"""

import math

import numpy as np


def _frame(w, t):
    """R(t) = exp(-i w t sz / 2) for an array of times: shape t.shape + (2, 2)."""
    t = np.asarray(t, dtype=float)
    r = np.zeros(t.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = np.exp(-0.5j * w * t)
    r[..., 1, 1] = np.exp(0.5j * w * t)
    return r


def midpoint_product(p, n, dt, t0=0.0):
    """F_{n-1} @ ... @ F_0 of the midpoint factors of drive ``p`` at step
    ``dt`` from ``t0``, in closed form. ``n`` is an int or an array of ints
    (>= 0; no factors give the identity); the result has shape n.shape + (2, 2)."""
    n = np.asarray(n)
    field = math.hypot(p.omega_rabi, p.detuning)
    half = -0.5 * field * dt
    ca, sa = math.cos(half), math.sin(half)
    nx, nz = (p.omega_rabi / field, p.detuning / field) if field > 0.0 else (0.0, 0.0)
    # G = w - i v.sigma with w = ca and v = -sa (nx, 0, nz); R(dt)^dagger is
    # c + i s sz = c - i (0, 0, -s).sigma; the product of (w1, v1)(w2, v2) is
    # (w1 w2 - v1.v2, w1 v2 + w2 v1 + v1 x v2).
    c, s = math.cos(0.5 * p.omega_drive * dt), math.sin(0.5 * p.omega_drive * dt)
    gw, gx, gz = ca, -sa * nx, -sa * nz
    w = c * gw + s * gz
    x = c * gx
    y = -s * gx
    z = c * gz - s * gw
    vnorm = math.sqrt(x * x + y * y + z * z)
    theta = math.atan2(vnorm, w)
    ux, uy, uz = (x / vnorm, y / vnorm, z / vnorm) if vnorm > 0.0 else (0.0, 0.0, 0.0)
    cn, sn = np.cos(n * theta), np.sin(n * theta)
    power = np.empty(n.shape + (2, 2), dtype=complex)
    power[..., 0, 0] = cn - 1j * sn * uz
    power[..., 0, 1] = sn * (-1j * ux - uy)
    power[..., 1, 0] = sn * (-1j * ux + uy)
    power[..., 1, 1] = cn + 1j * sn * uz
    start = t0 + 0.5 * dt
    return _frame(p.omega_drive, start + n * dt) @ power @ _frame(p.omega_drive, -start)
