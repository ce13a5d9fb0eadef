"""Brute-force time-ordered propagation of the driven qubit, plus numerical
verification of everything the closed forms claim: total-phase values, the
geometric/dynamical split, transitionless evolution, the spectral form of the
propagator, and the invariant equation itself.

The integrator is a midpoint piecewise exponential (commutator-free
second-order Magnus). Every step factor is an exact SU(2) element, stored as
an ``su2`` pair (a, b) and multiplied by ``pair_mul`` in a tree whose root is
divided by its norm sqrt(|a|^2 + |b|^2). The rounding of 10^6 nearly equal
factors adds up coherently, so without that division the norm would drift by
~1e-10; a norm only scales the SU(2) element, so dividing it out once at the
root leaves the product unitary to rounding no matter how many steps are
taken. Only the final pair becomes a 2x2 matrix.

The product is streamed. The steps fall into consecutive blocks of 2^k
steps, with the smallest k that leaves at most ``_SCAN_BLOCKS`` blocks. The
factors of a group of about ``_GROUP_STEPS`` steps are built as rows of whole
blocks and each row is reduced by the tree along its last axis, so only one
cache-sized group is ever held: a ``verify`` peaks at ~2.4 MB (tracemalloc)
at 10^6 and at 10^7 steps alike. Inside a row the drive phase factors
exactly into a row and a column exponential, so a factor costs one complex
multiply instead of a sin and a cos. The block pairs are the level that one
tree over all the steps would pass through, each the divided root of its
row's tree, and the same tree finishes the product over them and divides
its own root.

The block pairs also yield the propagated states along the way: a prefix
scan over them gives the numerical propagator at every block boundary.
``full_report`` takes the
Aharonov-Anandan dynamical phase -int <psi|H|psi> dt along those states,
which checks the holonomy claim on the brute-force evolution itself. The
closed-form phase integrands are constant in t in the gauge of
``eigensystem``, so the phase quadrature evaluates them at a few fixed nodes
rather than on the propagation grid.

``exact_propagator`` gives the same evolution in closed form through the
frame co-rotating with the drive; the integrator stays as the independent
brute-force check of it.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .drive import DriveParams, eigensystem, hamiltonian, invariant
from .su2 import max_abs, pair_matrix, pair_mul, pair_unit

#: Steps per period giving ~1e-8 propagator error over the model's range.
DEFAULT_STEPS = 10_000

#: Unitarity defect beyond which a report aborts instead of returning.
UNITARITY_ABORT = 1e-8

#: Largest number of blocks in the tree level that the prefix scan walks:
#: the states come out on a grid of at most this many intervals (977 blocks
#: of 1024 steps at 10^6 steps), at a cost independent of the step count.
_SCAN_BLOCKS = 1024

#: Steps whose factors are built and reduced at once: 2^15 pairs (1 MiB of
#: ``b`` plus the tree's temporaries) stay in a 4 MiB L2 cache. 2^14 to 2^16
#: measured the same at 10^6 steps, 2^17 slower, and one group of all the
#: steps slower still.
_GROUP_STEPS = 2**15

#: Nodes at which ``_phase_quadrature`` evaluates the phase integrands.
_QUADRATURE_NODES = 17

_I2 = np.eye(2, dtype=complex)

#: While ``full_report`` runs ``propagate``, a list that receives the block
#: pairs of ``_scan_level`` for the prefix scan. ``propagate`` stays the one
#: entry point of the product, so that a substituted or wrapped ``propagate``
#: is what ``full_report`` checks.
_level_sink: ContextVar[list | None] = ContextVar("_level_sink", default=None)


class ConsistencyError(RuntimeError):
    """Numerical propagation violated an internal sanity bound."""


@dataclass(frozen=True)
class EvolutionReport:
    """One-period propagation with its full phase bookkeeping.

    ``gamma_geometric`` and ``gamma_dynamical`` come from the closed-form
    integrands on the invariant eigenvectors, which are constant in t, so they
    do not depend on ``steps``; ``max_integrand`` is the largest
    |<phi|H|phi>| at the quadrature nodes. ``alpha_numeric`` is their sum per
    branch, exactly. ``gamma_dynamical_trajectory`` is -int <psi|H|psi> dt
    along the propagated states psi(t) = U_num(t) phi(0) of each branch (the
    Aharonov-Anandan dynamical phase), and ``max_integrand_trajectory`` the
    largest |<psi|H|psi>| on their time grid; both read the integrator's
    O(dt^2) error on a holonomic drive.
    ``aa_eigenphases`` are the eigenphases of the numerical propagator in
    [0, 2 pi), branch-matched by eigenvector overlap.
    """

    propagator: np.ndarray
    alpha_numeric: tuple[float, float]
    gamma_geometric: tuple[float, float]
    gamma_dynamical: tuple[float, float]
    max_integrand: float
    transitionless_defect: float
    aa_eigenphases: tuple[float, float]
    steps: int
    spectral: np.ndarray
    gamma_dynamical_trajectory: tuple[float, float]
    max_integrand_trajectory: float


def _step_factors(
    p: DriveParams, t_rows: np.ndarray, dt: float, steps: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact SU(2) factors exp(-i H(t_mid) dt) for rows of ``steps`` uniform
    midpoint steps, row i starting at ``t_rows[i]``, as Cayley-Klein pairs of
    shape (rows, steps): factor (i, m) is [[a, b], [-conj(b), conj(a)]] at
    t_mid = t_rows[i] + (m + 1/2) dt.

    Returns None when H vanishes identically (zero Rabi and detuning).
    The field magnitude |(Omega cos, Omega sin, Delta)| is time independent,
    so the per-step rotation angle is one scalar and ``a`` is the same for
    every step (a read-only broadcast). Only ``b`` follows the rotating
    transverse field, and its drive phase factors exactly:
    b = i (sa Omega / field) exp(-i w t_rows[i]) exp(-i w (m + 1/2) dt), one
    small ``exp`` per row and per column and one multiply per factor.
    """
    field = math.hypot(p.omega_rabi, p.detuning)
    if field == 0.0:
        return None
    half = -0.5 * field * dt
    ca, sa = math.cos(half), math.sin(half)
    rows = (1j * sa * p.omega_rabi / field) * np.exp(-1j * p.omega_drive * t_rows)
    columns = np.exp(-1j * p.omega_drive * ((np.arange(steps) + 0.5) * dt))
    b = rows[:, None] * columns
    return np.broadcast_to(complex(ca, sa * p.detuning / field), b.shape), b


def _pair_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product pairs[-1] @ ... @ pairs[0] of the Cayley-Klein pairs (a, b)
    along the last axis by pairwise tree reduction, as pairs of shape
    ``a.shape[:-1]``.

    A later factor multiplies an earlier one by ``pair_mul``; an odd element
    is carried to the next level unchanged. Any pair is its norm times an
    SU(2) element, so rounding can only move the norm away from 1 or perturb
    the rotation. The rounding of 10^6 nearly equal factors is coherent, not a
    random walk: the norm drifts by ~1e-10 at 10^6 steps, while the rotation
    stays within the ~2e-12 midpoint error of the exact propagator. The norm
    of a product is the product of the norms, and rounding is relative to
    magnitude, so norms of 1 +- N eps inside the tree cannot move the
    rotation: the root alone is divided by sqrt(|a|^2 + |b|^2).
    """
    while a.shape[-1] > 1:
        n_pairs = a.shape[-1] // 2
        pa, pb = pair_mul(
            a[..., 1 : 2 * n_pairs : 2],
            b[..., 1 : 2 * n_pairs : 2],
            a[..., 0 : 2 * n_pairs : 2],
            b[..., 0 : 2 * n_pairs : 2],
        )
        if a.shape[-1] % 2:
            pa = np.concatenate([pa, a[..., -1:]], axis=-1)
            pb = np.concatenate([pb, b[..., -1:]], axis=-1)
        a, b = pa, pb
    return pair_unit(a[..., 0], b[..., 0])


def _ordered_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_pair_product`` of the pairs (a, b) as a ``a.shape[:-1] + (2, 2)``
    matrix."""
    return pair_matrix(*_pair_product(a, b))


def _row_products(p: DriveParams, dt: float, row_sets) -> tuple[np.ndarray, np.ndarray] | None:
    """Pair product of every row of ``_step_factors`` over the row sets
    (t_rows, steps), concatenated in order, or None when H vanishes.

    A set is built and reduced ``_GROUP_STEPS // steps`` rows at a time (at
    least one), so only one cache-sized group of factors is ever held.
    """
    a, b = [], []
    for t_rows, steps in row_sets:
        per_group = max(1, _GROUP_STEPS // steps)
        for first in range(0, len(t_rows), per_group):
            factors = _step_factors(p, t_rows[first : first + per_group], dt, steps)
            if factors is None:
                return None
            pa, pb = _pair_product(*factors)
            a.append(pa)
            b.append(pb)
    return np.concatenate(a), np.concatenate(b)


def _scan_level(p: DriveParams, duration: float, steps: int):
    """(size, a, b): the products over consecutive blocks of size = 2^k steps
    from t = 0, the smallest k with at most ``_SCAN_BLOCKS`` blocks; only the
    last block can be shorter. None when H vanishes.

    The full blocks are the rows of one set of ``_row_products`` and a short
    last block is one more row, so the block pairs are the tree level that
    one tree over all the steps would pass through, up to their norms: each
    is divided by its norm as the root of its row's tree.
    """
    size = 1
    while -(-steps // size) > _SCAN_BLOCKS:
        size *= 2
    dt = duration / steps
    full, rest = divmod(steps, size)
    row_sets = [(np.arange(full) * (size * dt), size)]
    if rest:
        row_sets.append((np.array([full * size * dt]), rest))
    pairs = _row_products(p, dt, row_sets)
    return None if pairs is None else (size, *pairs)


def _prefix_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products of a 1-D array of pairs: element j of the
    result is pair j @ ... @ pair 0.

    Hillis-Steele scan: the pass with shift s multiplies every element from
    index s on by the element s places before it, which then covers 2s pairs,
    so log2(n) passes cover all. Every pass is divided by its norms, while
    the tree divides only its root (see ``_pair_product``): in
    ``full_report`` the scan walks at most ``_SCAN_BLOCKS`` pairs (~0.5 ms
    for the whole scan at 10^6 steps), so the divisions cost little there.
    """
    shift = 1
    while shift < a.shape[0]:
        pa, pb = pair_unit(*pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift]))
        a = np.concatenate([a[:shift], pa])
        b = np.concatenate([b[:shift], pb])
        shift *= 2
    return a, b


def propagate(p: DriveParams, duration: float, steps: int) -> np.ndarray:
    """Time-ordered propagator over [0, duration] with uniform midpoint
    exponential steps; global error O(dt^2), exactly unitary per factor.

    The steps are reduced block by block (``_scan_level``), streamed a group
    of blocks at a time, and the same tree finishes the product over the
    block pairs.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    if duration == 0.0:
        return _I2.copy()
    level = _scan_level(p, duration, steps)
    if level is None:
        return _I2.copy()
    sink = _level_sink.get()
    if sink is not None:
        sink.append(level)
    return _ordered_product(level[1], level[2])


def propagate_samples(
    p: DriveParams, duration: float, samples: int, steps_per_segment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator snapshots U(t_i) on t_i = i * duration / (samples - 1).

    Returns (times, stack of 2x2 propagators); each segment between snapshots
    is integrated with ``steps_per_segment`` midpoint steps. The segments are
    the rows of ``_row_products``, streamed a group at a time, and the
    snapshots are the prefix products of the segment propagators.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if steps_per_segment < 1:
        raise ValueError(f"steps_per_segment must be >= 1, got {steps_per_segment}")
    if not math.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    times = np.linspace(0.0, duration, samples)
    us = np.empty((samples, 2, 2), dtype=complex)
    us[0] = _I2
    dt = duration / (samples - 1) / steps_per_segment
    segments = _row_products(p, dt, [(times[:-1], steps_per_segment)])
    if segments is None:
        us[1:] = _I2
        return times, us
    us[1:] = pair_matrix(*_prefix_products(*segments))
    return times, us


def exact_propagator(p: DriveParams, t) -> np.ndarray:
    """Closed-form propagator U(t) = exp(-i w t sz/2) exp(-i H_rot t) of the
    circular drive, with the static rotating-frame Hamiltonian
    H_rot = ((Delta - w) sz + Omega sx) / 2.

    ``t`` is a scalar or an array of times; the result has shape
    ``t.shape + (2, 2)``. This is the Lewis-Riesenfeld solution written out
    in the frame co-rotating with the drive, exact up to rounding for any
    drive, holonomic or not. Raises ValueError if any time is NaN or infinite.
    """
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"t must be finite, got {t[~finite][0]}")
    w = p.omega_drive
    dz = p.detuning - w
    lam = math.hypot(p.omega_rabi, dz)
    # lam = 0 leaves only the frame rotation: sin(lam t / 2) = 0 kills the
    # axis terms, so any finite axis components will do there.
    nx, nz = (p.omega_rabi / lam, dz / lam) if lam > 0.0 else (0.0, 0.0)
    c = np.cos(0.5 * lam * t)
    s = np.sin(0.5 * lam * t)
    frame = np.exp(-0.5j * w * t)
    u = np.empty(t.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = frame * (c - 1j * s * nz)
    u[..., 0, 1] = frame * (-1j * s * nx)
    u[..., 1, 0] = frame.conj() * (-1j * s * nx)
    u[..., 1, 1] = frame.conj() * (c + 1j * s * nz)
    return u


def _energy(p: DriveParams, ts: np.ndarray, psi0, psi1) -> np.ndarray:
    """<psi|H(t)|psi> at the times ``ts`` for the states (psi0, psi1):
    h00 (|psi0|^2 - |psi1|^2) + 2 Re(conj(psi0) h01 psi1), with h00 = Delta/2
    and h01 = (Omega/2) exp(-i w t) the entries of H(t)."""
    h01 = 0.5 * p.omega_rabi * np.exp(-1j * p.omega_drive * ts)
    weights = np.abs(psi0) ** 2 - np.abs(psi1) ** 2
    return 0.5 * p.detuning * weights + 2.0 * (psi0.conj() * h01 * psi1).real


def _node_integrands(p: DriveParams, ts: np.ndarray):
    """Per branch (+ then -), the geometric and dynamical integrands at the
    nodes ``ts``, from the entries of H(t) and of the eigenvector.

    With the eigenvector (v0, s) = (exp(-i w t) cos(theta), sin(theta)), the
    geometric integrand i<phi|dphi/dt> is w |v0|^2 (only the exp(-i w t)
    factor moves) and the dynamical one is ``_energy`` of (v0, s).
    """
    es = eigensystem(p, 0.0)
    phase = np.exp(-1j * p.omega_drive * ts)
    for c, s in ((es.cos_theta_plus, es.sin_theta_plus), (es.cos_theta_minus, es.sin_theta_minus)):
        v0 = phase * c
        yield p.omega_drive * np.abs(v0) ** 2, _energy(p, ts, v0, s)


def _phase_quadrature(p: DriveParams):
    """Per-branch (gamma_geometric, gamma_dynamical, max |integrand|) over one
    period.

    In the gauge of ``eigensystem`` both integrands are independent of t
    (|v0|^2 = cos^2 theta and Re(conj(v0) h01) = cos theta Omega / 2), so each
    gamma is T times the mean over ``_QUADRATURE_NODES`` nodes spanning
    [0, T], and the maximum is taken over the same nodes.
    """
    period = p.period
    ts = np.linspace(0.0, period, _QUADRATURE_NODES)
    gammas = []
    max_integrand = 0.0
    for geo, dyn in _node_integrands(p, ts):
        gammas.append((period * float(np.mean(geo)), -period * float(np.mean(dyn))))
        max_integrand = max(max_integrand, float(np.max(np.abs(dyn))))
    (gg_p, gd_p), (gg_m, gd_m) = gammas
    return (gg_p, gg_m), (gd_p, gd_m), max_integrand


def _trajectory_phases(
    p: DriveParams, steps: int, level, phis: tuple[np.ndarray, np.ndarray]
) -> tuple[tuple[float, float], float]:
    """Per branch, -int <psi|H|psi> dt along psi(t) = U_num(t) phi(0) for the
    initial states ``phis`` (+, -), and the largest |<psi|H|psi>| over both.

    ``level`` is the tree level (size, a, b) of ``_ordered_product``; its
    prefix products are U_num at the block boundaries t_j = min(j size, steps)
    dt, and the integral is the trapezoid over those times.
    """
    size, a, b = level
    a, b = _prefix_products(a, b)
    a = np.concatenate([[1.0 + 0.0j], a])
    b = np.concatenate([[0.0j], b])
    ts = p.period * np.minimum(np.arange(a.shape[0]) * size, steps) / steps
    gammas = []
    max_integrand = 0.0
    for phi0, phi1 in phis:
        energy = _energy(p, ts, a * phi0 + b * phi1, a.conj() * phi1 - b.conj() * phi0)
        gammas.append(-0.5 * float(np.sum(np.diff(ts) * (energy[1:] + energy[:-1]))))
        max_integrand = max(max_integrand, float(np.max(np.abs(energy))))
    return (gammas[0], gammas[1]), max_integrand


def _spectral_form(p: DriveParams, alpha: tuple[float, float]) -> np.ndarray:
    """sum_k exp(i alpha_k) |phi_k(T)><phi_k(0)| over the (+, -) branches."""
    es0 = eigensystem(p, 0.0)
    es_t = eigensystem(p, p.period)
    return np.exp(1j * alpha[0]) * np.outer(es_t.eigvec_plus, es0.eigvec_plus.conj()) + np.exp(
        1j * alpha[1]
    ) * np.outer(es_t.eigvec_minus, es0.eigvec_minus.conj())


def aa_eigenphases(u: np.ndarray, p: DriveParams) -> tuple[float, float]:
    """Eigenphases of a one-period propagator in [0, 2 pi), matched to the
    (+, -) invariant branches by eigenvector overlap at t = 0."""
    es = eigensystem(p, 0.0)
    vals, vecs = np.linalg.eig(np.asarray(u, dtype=complex))
    overlap0 = abs(np.vdot(vecs[:, 0], es.eigvec_plus))
    overlap1 = abs(np.vdot(vecs[:, 1], es.eigvec_plus))
    plus, minus = (vals[0], vals[1]) if overlap0 >= overlap1 else (vals[1], vals[0])
    two_pi = 2.0 * math.pi
    return (
        float(np.angle(plus)) % two_pi,
        float(np.angle(minus)) % two_pi,
    )


def full_report(p: DriveParams, steps: int = DEFAULT_STEPS) -> EvolutionReport:
    """Propagate over one period and verify the phase structure numerically.

    Raises ConsistencyError if the propagator's unitarity defect exceeds
    the abort bound (it cannot, short of a bug: every factor is exact).
    """
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    period = p.period
    levels = []
    token = _level_sink.set(levels)
    try:
        u = propagate(p, period, steps)
    finally:
        _level_sink.reset(token)
    defect = max_abs(u.conj().T @ u - _I2)
    if defect > UNITARITY_ABORT:
        raise ConsistencyError(f"propagator unitarity defect {defect:.3e} > {UNITARITY_ABORT:.0e}")
    es0 = eigensystem(p, 0.0)
    # No level when H vanishes identically: the states then stay put.
    level = levels[0] if levels else (steps, np.ones(1, dtype=complex), np.zeros(1, dtype=complex))
    gamma_traj, max_integrand_traj = _trajectory_phases(
        p, steps, level, (es0.eigvec_plus, es0.eigvec_minus)
    )

    gamma_g, gamma_d, max_integrand = _phase_quadrature(p)
    alpha = (gamma_g[0] + gamma_d[0], gamma_g[1] + gamma_d[1])

    es_t = eigensystem(p, period)
    survival = min(
        abs(np.vdot(es_t.eigvec_plus, u @ es0.eigvec_plus)),
        abs(np.vdot(es_t.eigvec_minus, u @ es0.eigvec_minus)),
    )
    return EvolutionReport(
        propagator=u,
        alpha_numeric=alpha,
        gamma_geometric=gamma_g,
        gamma_dynamical=gamma_d,
        max_integrand=max_integrand,
        transitionless_defect=1.0 - survival,
        aa_eigenphases=aa_eigenphases(u, p),
        steps=steps,
        spectral=_spectral_form(p, alpha),
        gamma_dynamical_trajectory=gamma_traj,
        max_integrand_trajectory=max_integrand_traj,
    )


def spectral_propagator(p: DriveParams) -> np.ndarray:
    """One-period propagator assembled from the invariant eigensystem:
    sum_k exp(i alpha_k) |phi_k(T)><phi_k(0)| with quadrature alpha_k (the
    phase integrands are constant in t, so the quadrature needs no time grid).
    """
    gamma_g, gamma_d, _ = _phase_quadrature(p)
    return _spectral_form(p, (gamma_g[0] + gamma_d[0], gamma_g[1] + gamma_d[1]))


def invariant_residual(p: DriveParams, t: float, h: float) -> float:
    """Max-norm defect of the invariant equation dI/dt = -i [H, I], with the
    time derivative taken by central difference at step h (O(h^2))."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    deriv = (invariant(p, t + h) - invariant(p, t - h)) / (2.0 * h)
    ham = hamiltonian(p, t)
    inv = invariant(p, t)
    return max_abs(deriv + 1j * (ham @ inv - inv @ ham))
