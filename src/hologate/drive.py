"""Circularly driven qubit with an exactly known dynamical invariant.

The drive

    H(t) = (Omega cos(w t) sx + Omega sin(w t) sy + Delta sz) / 2

rotates at a fixed rate w about z. The Hermitian operator

    I(t) = Omega cos(w t) sx + Omega sin(w t) sy + (Delta - w) sz

satisfies i dI/dt = [H, I], so its eigenvectors evolve transitionlessly under
the Schroedinger equation and carry closed-form total phases
alpha_pm(t) = (w -+ lam) t / 2, with lam = sqrt(Omega^2 + (Delta - w)^2).

A one-period gate (T = 2 pi / w) is holonomic, i.e. both branches accumulate
zero dynamical phase, exactly when

    Omega^2 + Delta (Delta - w) = 0.

Parameterizing solutions by beta in [0, pi/2] via Delta = w cos^2(beta) and
Omega = w cos(beta) sin(beta) gives the closed-form gate

    U(beta) = -exp(i pi sin(beta) [-cos(beta) sx + sin(beta) sz]),

the elementary building block composed by :mod:`hologate.synthesis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .su2 import su2_exp

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class DriveParams:
    """Physical drive triple (Rabi amplitude, detuning, drive frequency).

    All three are angular frequencies in rad/time; only the ratios to
    ``omega_drive`` matter physically.

    ``offset`` is the rotating-frame detuning Delta - w that every closed form
    reads. It is ``detuning - omega_drive`` unless :func:`params_from_beta`
    stores the exact -w sin^2(beta): near beta = 0, Delta = w cos^2(beta)
    holds only ~eps w of the difference, and the stored triple would miss the
    holonomy condition by more than rounding. It takes no part in ``==``.
    """

    omega_rabi: float
    detuning: float
    omega_drive: float = 1.0
    offset: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = {name: getattr(self, name) for name in ("omega_rabi", "detuning", "omega_drive")}
        for name, value in fields.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # Products of two entries of H(t) and I(t) (entries up to ~2 |field|)
        # must stay finite, or the verification arithmetic overflows.
        if not math.isfinite(4.0 * sum(v * v for v in fields.values())):
            name = max(fields, key=lambda n: abs(fields[n]))
            raise ValueError(
                f"{name} is too large: 4 (omega_rabi^2 + detuning^2 + omega_drive^2) "
                f"overflows, got {fields[name]}"
            )
        if not self.omega_drive > 0:
            raise ValueError(f"omega_drive must be > 0, got {self.omega_drive}")
        if self.omega_rabi < 0:
            raise ValueError(f"omega_rabi must be >= 0, got {self.omega_rabi}")
        object.__setattr__(self, "offset", self.detuning - self.omega_drive)

    @property
    def period(self) -> float:
        """Drive period T = 2 pi / omega_drive."""
        return 2.0 * math.pi / self.omega_drive


@dataclass(frozen=True)
class HolonomicGate:
    """A single holonomic gate, parameterized by beta in [0, pi/2]."""

    beta: float
    omega_drive: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= _HALF_PI:
            raise ValueError(f"beta must lie in [0, pi/2], got {self.beta}")
        if not self.omega_drive > 0:
            raise ValueError(f"omega_drive must be > 0, got {self.omega_drive}")


@dataclass(frozen=True)
class InvariantEigensystem:
    """Eigenvalues +-lam of the invariant and its eigenvectors at one time.

    The eigenvectors are stored in the fixed gauge
    (exp(-i w t) cos(theta), sin(theta)) with sin(theta) >= 0; the angles are
    kept as (cos, sin) pairs so no inverse-trig branch choice is ever made.
    At Omega = 0 with Delta < w the -lam eigenvector is (-1, 0): sin(theta) = 0
    leaves the sign of cos(theta) to the gauge, and no phase or verdict reads it.
    """

    lam: float
    cos_theta_plus: float
    sin_theta_plus: float
    cos_theta_minus: float
    sin_theta_minus: float
    eigvec_plus: np.ndarray
    eigvec_minus: np.ndarray


def hamiltonian(p: DriveParams, t: float) -> np.ndarray:
    """Drive Hamiltonian at time t; Hermitian and traceless."""
    off = 0.5 * p.omega_rabi * np.exp(-1j * p.omega_drive * t)
    return np.array(
        [[0.5 * p.detuning, off], [off.conjugate(), -0.5 * p.detuning]],
        dtype=complex,
    )


def invariant(p: DriveParams, t: float) -> np.ndarray:
    """Dynamical invariant of the drive at time t; Hermitian and traceless."""
    off = p.omega_rabi * np.exp(-1j * p.omega_drive * t)
    dz = p.offset
    return np.array([[dz, off], [off.conjugate(), -dz]], dtype=complex)


def _theta_pairs(p: DriveParams) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """(lam, (cos, sin) for the +lam branch, (cos, sin) for the -lam branch).

    The angles are time independent. Every drive takes the one quotient
    t = Omega / (lam + |Delta - w|), the tangent of half the polar angle
    between the invariant's axis and the nearer pole. Its denominator is a sum
    of nonnegative terms no smaller than its numerator, so t lies in [0, 1]:
    it neither cancels nor overflows, and t = Omega / Omega = 1 exactly when
    Delta = w, down to subnormal Omega. At lam = 0 every basis is an
    eigenbasis, and t = 1 picks the limit along the holonomic family.
    """
    dz = p.offset
    om = p.omega_rabi
    lam = math.hypot(om, dz)
    t = om / (lam + abs(dz)) if lam else 1.0
    n = math.hypot(1.0, t)
    if dz >= 0:
        return lam, (1.0 / n, t / n), (-t / n, 1.0 / n)
    return lam, (t / n, 1.0 / n), (-1.0 / n, t / n)


def eigensystem(p: DriveParams, t: float) -> InvariantEigensystem:
    """Spectral data of the invariant at time t.

    Eigenvalues are +-lam with lam = sqrt(Omega^2 + (Delta - w)^2); the
    eigenvectors rotate only through the exp(-i w t) phase on the upper
    component.
    """
    lam, (cp, sp), (cm, sm) = _theta_pairs(p)
    phase = np.exp(-1j * p.omega_drive * t)
    return InvariantEigensystem(
        lam=lam,
        cos_theta_plus=cp,
        sin_theta_plus=sp,
        cos_theta_minus=cm,
        sin_theta_minus=sm,
        eigvec_plus=np.array([phase * cp, sp], dtype=complex),
        eigvec_minus=np.array([phase * cm, sm], dtype=complex),
    )


def lr_phase(p: DriveParams, t: float) -> tuple[float, float]:
    """Closed-form Lewis-Riesenfeld phases (alpha_plus, alpha_minus) at time t,
    alpha_pm = (w -+ lam) t / 2, in the gauge of :func:`eigensystem`."""
    lam = math.hypot(p.omega_rabi, p.offset)
    return (
        0.5 * (p.omega_drive - lam) * t,
        0.5 * (p.omega_drive + lam) * t,
    )


def holonomy_residual(p: DriveParams) -> float:
    """Omega^2 + Delta (Delta - w); zero iff the one-period gate is holonomic."""
    return p.omega_rabi**2 + p.detuning * p.offset


def params_from_beta(g: HolonomicGate) -> DriveParams:
    """Drive parameters realizing the holonomic gate at angle beta:
    Delta = w cos^2(beta), Omega = w cos(beta) sin(beta) (nonnegative root),
    with the offset Delta - w stored as -w sin^2(beta), exact to rounding."""
    c = math.cos(g.beta)
    s = math.sin(g.beta)
    w = g.omega_drive
    p = DriveParams(omega_rabi=w * c * s, detuning=w * c * c, omega_drive=w)
    object.__setattr__(p, "offset", -w * s * s)
    return p


def analytic_gate(g: HolonomicGate) -> np.ndarray:
    """Closed-form one-period holonomic gate
    -exp(i pi sin(beta) [-cos(beta) sx + sin(beta) sz]); unitary, det = 1."""
    s = math.sin(g.beta)
    c = math.cos(g.beta)
    return -su2_exp(math.pi * s, (-c, 0.0, s))


def dynamical_integrand(p: DriveParams, t: float, branch: str) -> float:
    """Energy expectation <phi_branch(t)| H(t) |phi_branch(t)> (branch "+"
    or "-"). Vanishes identically for every t exactly on the holonomic
    family."""
    es = eigensystem(p, t)
    if branch == "+":
        v = es.eigvec_plus
    elif branch == "-":
        v = es.eigvec_minus
    else:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    return float(np.real(v.conj() @ hamiltonian(p, t) @ v))
