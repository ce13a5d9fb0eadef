"""Brute-force time-ordered propagation of the driven qubit, plus numerical
verification of everything the closed forms claim: total-phase values, the
geometric/dynamical split, transitionless evolution, the spectral form of the
propagator, and the invariant equation itself.

The integrator is a midpoint piecewise exponential (commutator-free
second-order Magnus). Every step factor is an exact SU(2) element, stored as
its Cayley-Klein pair (a, b) of [[a, b], [-conj(b), conj(a)]], and the
factors are multiplied as pairs in a tree whose every level is renormalized
to |a|^2 + |b|^2 = 1. The rounding of 10^6 nearly equal factors adds up
coherently, so without the renormalization the norm would drift by ~1e-10;
with it the product stays unitary to rounding no matter how many steps are
taken. Only the final pair becomes a 2x2 matrix.
``exact_propagator`` gives the same evolution in closed form through the
frame co-rotating with the drive; the integrator stays as the independent
brute-force check of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import DriveParams, eigensystem, hamiltonian, invariant
from .su2 import max_abs

#: Steps per period giving ~1e-8 propagator error over the model's range.
DEFAULT_STEPS = 10_000

#: Unitarity defect beyond which a report aborts instead of returning.
UNITARITY_ABORT = 1e-8

_I2 = np.eye(2, dtype=complex)


class ConsistencyError(RuntimeError):
    """Numerical propagation violated an internal sanity bound."""


@dataclass(frozen=True)
class EvolutionReport:
    """One-period propagation with its full phase bookkeeping.

    ``alpha_numeric`` is the quadrature total phase per branch and equals
    ``gamma_geometric + gamma_dynamical`` exactly (same grid, same rule).
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


def _step_factors(
    p: DriveParams, t0: float, duration: float, steps: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact SU(2) factors exp(-i H(t_mid) dt) for uniform midpoint steps, as
    Cayley-Klein pairs: factor k is [[a[k], b[k]], [-conj(b[k]), conj(a[k])]].

    Returns None when H vanishes identically (zero Rabi and detuning).
    The field magnitude |(Omega cos, Omega sin, Delta)| is time independent,
    so the per-step rotation angle is one scalar and ``a`` is the same for
    every step; only ``b`` follows the rotating transverse field.
    """
    field = math.hypot(p.omega_rabi, p.detuning)
    if field == 0.0:
        return None
    dt = duration / steps
    half = -0.5 * field * dt
    ca, sa = math.cos(half), math.sin(half)
    phase = p.omega_drive * (t0 + (np.arange(steps) + 0.5) * dt)
    transverse = sa * p.omega_rabi / field
    a = np.full(steps, complex(ca, sa * p.detuning / field))
    b = np.empty(steps, dtype=complex)  # sa (ny + i nx)
    b.real = transverse * np.sin(phase)
    b.imag = transverse * np.cos(phase)
    return a, b


def _ordered_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product factors[-1] @ ... @ factors[0] of the Cayley-Klein pairs
    (a, b) by pairwise tree reduction, returned as a 2x2 matrix.

    A later factor (a1, b1) times an earlier (a2, b2) is the pair
    (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)); an odd element is carried to
    the next level unchanged. Any pair is its norm times an SU(2) element, so
    rounding can only move the norm away from 1 or perturb the rotation.
    Every level is divided by sqrt(|a|^2 + |b|^2) because the rounding of 10^6
    nearly equal factors is coherent, not a random walk: without this the
    norm drifts by ~1e-10 at 10^6 steps, while the rotation stays within the
    ~2e-12 midpoint error of the exact propagator.
    """
    while a.shape[0] > 1:
        n_pairs = a.shape[0] // 2
        a1, b1 = a[1 : 2 * n_pairs : 2], b[1 : 2 * n_pairs : 2]
        a2, b2 = a[0 : 2 * n_pairs : 2], b[0 : 2 * n_pairs : 2]
        pa = a1 * a2 - b1 * b2.conj()
        pb = a1 * b2 + b1 * a2.conj()
        if a.shape[0] % 2:
            pa = np.concatenate([pa, a[-1:]])
            pb = np.concatenate([pb, b[-1:]])
        norm = np.sqrt(pa.real**2 + pa.imag**2 + pb.real**2 + pb.imag**2)
        a, b = pa / norm, pb / norm
    a0, b0 = a[0], b[0]
    return np.array([[a0, b0], [-b0.conjugate(), a0.conjugate()]], dtype=complex)


def propagate(p: DriveParams, duration: float, steps: int) -> np.ndarray:
    """Time-ordered propagator over [0, duration] with uniform midpoint
    exponential steps; global error O(dt^2), exactly unitary per factor."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if duration == 0.0:
        return _I2.copy()
    factors = _step_factors(p, 0.0, duration, steps)
    if factors is None:
        return _I2.copy()
    return _ordered_product(*factors)


def propagate_samples(
    p: DriveParams, duration: float, samples: int, steps_per_segment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator snapshots U(t_i) on t_i = i * duration / (samples - 1).

    Returns (times, stack of 2x2 propagators); each segment between snapshots
    is integrated with ``steps_per_segment`` midpoint steps.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if steps_per_segment < 1:
        raise ValueError(f"steps_per_segment must be >= 1, got {steps_per_segment}")
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    times = np.linspace(0.0, duration, samples)
    us = np.empty((samples, 2, 2), dtype=complex)
    us[0] = _I2
    u = _I2
    seg = duration / (samples - 1)
    for i in range(samples - 1):
        factors = _step_factors(p, times[i], seg, steps_per_segment)
        if factors is not None:
            u = _ordered_product(*factors) @ u
        us[i + 1] = u
    return times, us


def exact_propagator(p: DriveParams, t) -> np.ndarray:
    """Closed-form propagator U(t) = exp(-i w t sz/2) exp(-i H_rot t) of the
    circular drive, with the static rotating-frame Hamiltonian
    H_rot = ((Delta - w) sz + Omega sx) / 2.

    ``t`` is a scalar or an array of times; the result has shape
    ``t.shape + (2, 2)``. This is the Lewis-Riesenfeld solution written out
    in the frame co-rotating with the drive, exact up to rounding for any
    drive, holonomic or not.
    """
    t = np.asarray(t, dtype=float)
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


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


def _node_integrands(p: DriveParams, ts: np.ndarray):
    """Per branch (+ then -), the geometric and dynamical integrands at the
    nodes ``ts``, from the entries of H(t) and of the eigenvector.

    With h00 = Delta/2, h01 = (Omega/2) exp(-i w t) and the eigenvector
    (v0, s) = (exp(-i w t) cos(theta), sin(theta)), the geometric integrand
    i<phi|dphi/dt> is w |v0|^2 (only the exp(-i w t) factor moves) and the
    dynamical one is <phi|H|phi> = h00 (|v0|^2 - s^2) + 2 s Re(conj(v0) h01).
    """
    es = eigensystem(p, 0.0)
    phase = np.exp(-1j * p.omega_drive * ts)
    h00 = 0.5 * p.detuning
    h01 = 0.5 * p.omega_rabi * phase
    for c, s in ((es.cos_theta_plus, es.sin_theta_plus), (es.cos_theta_minus, es.sin_theta_minus)):
        v0 = phase * c
        weight = np.abs(v0) ** 2
        re_v0_h01 = v0.real * h01.real + v0.imag * h01.imag  # Re(conj(v0) h01)
        yield p.omega_drive * weight, h00 * (weight - s * s) + 2.0 * s * re_v0_h01


def _phase_quadrature(p: DriveParams, steps: int):
    """Per-branch (gamma_geometric, gamma_dynamical, max |integrand|) over one
    period, by composite trapezoid on the propagation grid."""
    period = p.period
    ts = np.linspace(0.0, period, steps + 1)
    dt = period / steps
    gammas = []
    max_integrand = 0.0
    for geo, dyn in _node_integrands(p, ts):
        gammas.append((_trapezoid(geo, dt), -_trapezoid(dyn, dt)))
        max_integrand = max(max_integrand, float(np.max(np.abs(dyn))))
    (gg_p, gd_p), (gg_m, gd_m) = gammas
    return (gg_p, gg_m), (gd_p, gd_m), max_integrand


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
    u = propagate(p, period, steps)
    defect = max_abs(u.conj().T @ u - _I2)
    if defect > UNITARITY_ABORT:
        raise ConsistencyError(f"propagator unitarity defect {defect:.3e} > {UNITARITY_ABORT:.0e}")

    gamma_g, gamma_d, max_integrand = _phase_quadrature(p, steps)
    alpha = (gamma_g[0] + gamma_d[0], gamma_g[1] + gamma_d[1])

    es0 = eigensystem(p, 0.0)
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
    )


def spectral_propagator(p: DriveParams, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """One-period propagator assembled from the invariant eigensystem:
    sum_k exp(i alpha_k) |phi_k(T)><phi_k(0)| with quadrature alpha_k."""
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    gamma_g, gamma_d, _ = _phase_quadrature(p, steps)
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
