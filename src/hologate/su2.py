"""2x2 complex matrix toolbox: trace-overlap fidelity, unitarity, and the one
gate product that the integrator and the search share: SU(2) elements
[[a, b], [-conj(b), conj(a)]] as pairs (a, b), with their matrices and the
Bloch vectors of their columns.

Everything here is exact small-matrix arithmetic in double precision; there is
deliberately no general-n machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Entrywise tolerance below which a matrix counts as unitary.
UNITARY_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)


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


def is_unitary(u: np.ndarray) -> bool:
    """Check u† u = I entrywise within ``UNITARY_TOL``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    # an overflowing entry makes the defect inf or NaN, which fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        defect = u.conj().T @ u - _I2
    return float(np.max(np.abs(defect))) <= UNITARY_TOL


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


def pair_bloch(a, b) -> np.ndarray:
    """Bloch vectors of both columns of ``pair_matrix(a, b)``, (a, -conj(b))
    and (b, conj(a)): shape ``a.shape + (2, 3)``, column k at [..., k, :],
    bit for bit the test oracle ``bloch_vectors`` (``tests/oracles.py``) of
    the columns, (2 conj(up) down, |up|^2 - |down|^2). The pairs are not checked
    for norm: an off-norm pair maps off the unit sphere, by
    x^2 + y^2 + z^2 = (|a|^2 + |b|^2)^2, for the caller to measure. The
    columns share |a|^2 and |b|^2, and their Bloch vectors mirror each other:
    z_1 = -z_0 exactly, and x_1 = -x_0 bit for bit, as the real part of a
    complex product changes sign exactly with a factor's and rounds alike
    with its factors swapped. The imaginary part need not (numpy's FMA loops
    fuse one of its products), so y_1 is its own."""
    p_a, p_b = np.abs(a) ** 2, np.abs(b) ** 2
    conj_a, conj_b = a.conj(), b.conj()
    # np.multiply keeps the oracle's left operand, conj(up), at every size
    cross = np.stack((np.multiply(conj_a, -conj_b), np.multiply(conj_b, conj_a)), axis=-1)
    z = np.stack((p_a - p_b, p_b - p_a), axis=-1)
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, z], axis=-1) + 0.0


def pair_of(m):
    """Unit pair of m / sqrt(det m), the SU(2) part of a 2x2 unitary m (or of a
    stack of them) up to the sign that the square root leaves open."""
    m = np.asarray(m, dtype=complex)
    m = m / np.sqrt(np.linalg.det(m))[..., None, None]
    return pair_unit(m[..., 0, 0] + m[..., 1, 1].conj(), m[..., 0, 1] - m[..., 1, 0].conj())
