"""2x2 complex matrix toolbox: Pauli algebra, SU(2) exponentials, trace-overlap
fidelity, pure-state Bloch vectors, and the one gate product that the integrator
and the search share: SU(2) elements [[a, b], [-conj(b), conj(a)]] as pairs (a, b).

Everything here is exact small-matrix arithmetic in double precision; there is
deliberately no general-n machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Entrywise tolerance below which a matrix counts as unitary.
UNITARY_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class FidelityReport:
    """Trace overlap tr(u† v)/2 of two 2x2 unitaries, reported three ways.

    ``magnitude`` is invariant under a global phase of either argument;
    ``phase_sensitive`` is its real part and keeps the phase information;
    ``relative_phase`` is the argument of the complex trace.
    """

    magnitude: float
    phase_sensitive: float
    relative_phase: float


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix along ``axis`` ("x", "y" or "z")."""
    try:
        return _SIGMA[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def su2_exp(angle: float, axis) -> np.ndarray:
    """Evaluate exp(i * angle * n.sigma) = cos(angle) I + i sin(angle) n.sigma.

    ``axis`` is normalized internally; a zero-norm axis is rejected. The
    result is unitary with det = 1 for any real angle.
    """
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a real 3-vector")
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValueError("axis must have nonzero norm")
    n = n / norm
    n_dot_sigma = n[0] * _SIGMA["x"] + n[1] * _SIGMA["y"] + n[2] * _SIGMA["z"]
    return np.cos(angle) * _I2 + 1j * np.sin(angle) * n_dot_sigma


def fidelity(u: np.ndarray, v: np.ndarray) -> FidelityReport:
    """Gate fidelity of ``u`` against the ideal ``v``, normalized so that
    identical gates score 1 (the one-qubit trace normalization is 2)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    tr = complex(np.trace(u.conj().T @ v)) / 2.0
    return FidelityReport(
        magnitude=abs(tr),
        phase_sensitive=tr.real,
        relative_phase=float(np.angle(tr)),
    )


def bloch_vectors(states) -> np.ndarray:
    """Bloch vectors (<sx>, <sy>, <sz>) of a stack of normalized pure states:
    shape (..., 2) in, (..., 3) out."""
    s = np.asarray(states, dtype=complex)
    if s.ndim < 1 or s.shape[-1] != 2:
        raise ValueError("states must be complex 2-vectors along the last axis")
    up, down = s[..., 0], s[..., 1]
    # an overflowing entry makes the norm inf, which fails the bound
    with np.errstate(over="ignore"):
        p_up, p_down = np.abs(up) ** 2, np.abs(down) ** 2
    norm_error = np.abs(np.sqrt(p_up + p_down) - 1.0)
    if not np.all(norm_error <= 1e-10):
        raise ValueError(f"state must be normalized, |norm - 1| = {np.max(norm_error):.3e}")
    cross = up.conj() * down
    # + 0.0 turns the negative zeros of exact states into 0, so none prints -0
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, p_up - p_down], axis=-1) + 0.0


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Check u† u = I entrywise within ``tol``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    # an overflowing entry makes the defect inf or NaN, which fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        defect = u.conj().T @ u - _I2
    return float(np.max(np.abs(defect))) <= tol


def max_abs(m) -> float:
    """Entrywise max-modulus norm, the norm used by all agreement checks."""
    return float(np.max(np.abs(np.asarray(m))))


def pair_mul(a1, b1, a2, b2, out=(None, None)):
    """Cayley-Klein pair of [[a1, b1], ...] @ [[a2, b2], ...], elementwise.
    With ``out``, the pair is written into those two arrays, which must not
    overlap the operands.

    The products with a conjugate go through ``np.multiply``: with the ``*``
    operator, numpy computes operands of 256 KiB and more into the temporary
    conjugate, as conj(...) * b1, and where complex multiply uses FMA that
    order rounds otherwise, so a long call would not round as short ones."""
    return (
        np.subtract(a1 * a2, np.multiply(b1, b2.conj()), out=out[0]),
        np.add(a1 * b2, np.multiply(b1, a2.conj()), out=out[1]),
    )


def pair_unit(a, b):
    """The pairs divided by their norm sqrt(|a|^2 + |b|^2)."""
    norm = np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
    return a / norm, b / norm


def pair_matrix(a, b) -> np.ndarray:
    """The matrices [[a, b], [-conj(b), conj(a)]], shape ``a.shape + (2, 2)``."""
    u = np.empty(np.shape(a) + (2, 2), dtype=complex)
    u[..., 0, 0] = a
    u[..., 0, 1] = b
    u[..., 1, 0] = -b.conjugate()
    u[..., 1, 1] = a.conjugate()
    return u


def pair_of(m):
    """Unit pair of m / sqrt(det m), the SU(2) part of a 2x2 unitary m (or of a
    stack of them) up to the sign that the square root leaves open."""
    m = np.asarray(m, dtype=complex)
    m = m / np.sqrt(np.linalg.det(m))[..., None, None]
    return pair_unit(m[..., 0, 0] + m[..., 1, 1].conj(), m[..., 0, 1] - m[..., 1, 0].conj())
