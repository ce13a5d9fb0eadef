"""The midpoint product in one shot, for tests.

Every step factor takes its drive phase from its own sin and cos, and one
pair tree reduces all of them at once. This is the product that
``evolution.propagate`` streams block by block with a factored drive phase:
the two associate the factors in the same order, so they must agree to
rounding, and the tree level with at most ``max_blocks`` pairs is the
streamed scan level.
"""

import math

import numpy as np

from hologate.su2 import pair_mul, pair_unit


def step_factors(p, t0, duration, steps):
    """Midpoint factors over ``steps`` steps of ``duration / steps`` from the
    start times ``t0`` (a scalar, or shape (S, 1) for S rows), as pairs (a, b)
    with b = sa (sin(phase) + i cos(phase)); without a field every factor is
    exactly the identity, as in ``evolution._step_factors``."""
    field = math.hypot(p.omega_rabi, p.detuning)
    scale = field or 1.0
    dt = duration / steps
    half = -0.5 * field * dt
    ca, sa = math.cos(half), math.sin(half)
    phase = p.omega_drive * (t0 + (np.arange(steps) + 0.5) * dt)
    transverse = sa * p.omega_rabi / scale
    a = np.full(phase.shape, complex(ca, sa * p.detuning / scale))
    b = np.empty(phase.shape, dtype=complex)
    b.real = transverse * np.sin(phase)
    b.imag = transverse * np.cos(phase)
    return a, b


def tree_product(a, b, max_blocks=None):
    """Pair product along the last axis by one renormalized pairwise tree, as
    pairs of shape a.shape[:-1]. With ``max_blocks``, also returns the first
    level with at most that many pairs, as (size, a_k, b_k)."""
    size, level = 1, None
    while True:
        if level is None and max_blocks is not None and a.shape[-1] <= max_blocks:
            level = (size, a, b)
        if a.shape[-1] == 1:
            break
        n = a.shape[-1] // 2
        pa, pb = pair_mul(a[..., 1 : 2 * n : 2], b[..., 1 : 2 * n : 2], a[..., 0 : 2 * n : 2], b[..., 0 : 2 * n : 2])
        if a.shape[-1] % 2:
            pa = np.concatenate([pa, a[..., -1:]], axis=-1)
            pb = np.concatenate([pb, b[..., -1:]], axis=-1)
        a, b = pair_unit(pa, pb)
        size *= 2
    pair = (a[..., 0], b[..., 0])
    return pair if max_blocks is None else (pair, level)
