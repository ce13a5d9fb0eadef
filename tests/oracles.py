"""Reference forms that the tests compare the package against.

Nothing in ``src/`` calls these; each is written the textbook way, from the
Pauli matrices or the eigenvectors, so that it shares no arithmetic with the
closed forms and pair formulas it checks:

- ``su2_exp`` and ``pauli``: exp(i angle n.sigma) as a 2x2 matrix, the form
  ``drive.analytic_gate`` writes as a Cayley-Klein pair;
- ``bloch_vectors``: the Bloch map of one state at a time, the reference of
  ``su2.pair_bloch``'s bit test;
- ``dynamical_integrand``: <phi(t)| H(t) |phi(t)> from the eigensystem;
- ``noncommutativity_witness``: the commutator of two gates of the family.
"""

import numpy as np

from hologate.drive import HolonomicGate, analytic_gate, eigensystem, hamiltonian
from hologate.su2 import max_abs

_I2 = np.eye(2, dtype=complex)
_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def dynamical_integrand(p, t: float, branch: str) -> float:
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


def noncommutativity_witness(b1: float, b2: float) -> float:
    """Max-norm of the commutator of two holonomic gates; positive for generic
    pairs, which is what makes the family universal under composition."""
    u1 = analytic_gate(HolonomicGate(b1))
    u2 = analytic_gate(HolonomicGate(b2))
    return max_abs(u1 @ u2 - u2 @ u1)
