"""2x2 complex matrix toolbox: Pauli algebra, SU(2) exponentials, trace-overlap
fidelity, and pure-state Bloch vectors.

Everything here is exact small-matrix arithmetic in double precision; there is
deliberately no general-n machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Entrywise tolerance below which a matrix counts as unitary.
UNITARY_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class BlochPoint(NamedTuple):
    """Pauli expectation values (x, y, z) of a pure state; unit norm."""

    x: float
    y: float
    z: float


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
    norm_error = np.abs(np.linalg.norm(s, axis=-1) - 1.0)
    if not np.all(norm_error <= 1e-10):
        raise ValueError(f"state must be normalized, |norm - 1| = {np.max(norm_error):.3e}")
    cross = up.conj() * down
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(up) ** 2 - np.abs(down) ** 2], axis=-1
    )


def bloch_of(state) -> BlochPoint:
    """Bloch vector (<sx>, <sy>, <sz>) of one normalized pure state."""
    s = np.asarray(state, dtype=complex).reshape(-1)
    if s.shape != (2,):
        raise ValueError("state must be a complex 2-vector")
    return BlochPoint(*bloch_vectors(s).tolist())


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Check u† u = I entrywise within ``tol``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return float(np.max(np.abs(u.conj().T @ u - _I2))) <= tol


def max_abs(m) -> float:
    """Entrywise max-modulus norm, the norm used by all agreement checks."""
    return float(np.max(np.abs(np.asarray(m))))
