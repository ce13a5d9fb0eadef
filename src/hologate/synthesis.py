"""Compose the one-parameter holonomic gate family into arbitrary one-qubit
unitaries, and search for pulse sequences that hit a target gate.

The search tracks the composed product as its Cayley-Klein pair (a, b), read
as a real 4-vector, and drives the residual (a, b) - s (a_t, b_t) to zero with
Levenberg-Marquardt steps, every random start advancing in lockstep in one
numpy batch with the starts on the last axis. Once a start is within
TOLERANCE, the starts drawn after it leave the batch: only the first hit in
draw order decides the result, and a start's infidelity never rises, so the
rest of the batch runs as if they were still there. The Jacobian is exact:
the product rule over prefix and suffix products of the pulse pairs
(``su2.pair_mul``), i.e. the GRAPE gradient (Khaneja et al., J. Magn. Reson.
172, 296 (2005)). Coordinates are unconstrained and folded into [0, pi/2] by
reflection at the bounds.

Every gate U(beta) is a complex symmetric matrix, so a palindrome
(beta_1 .. beta_2 beta_1) composes to a symmetric gate. A symmetric target is
therefore searched first over palindromes, whose ceil(N/2) coordinates y
expand to the pulses y || reverse(y[:N - ceil(N/2)]) (symmetric composite
pulses: Levitt, Prog. NMR Spectrosc. 18, 61 (1986)); the first half of the
starts are palindromic, and the rest run the general search if none hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .drive import HolonomicGate, analytic_gate
from .su2 import UNITARY_TOL, FidelityReport, fidelity, is_unitary, max_abs, pair_mul, pair_of

_HALF_PI = math.pi / 2
_I2 = np.eye(2, dtype=complex)

#: Infidelity 1 - |tr(U^dag T)| / 2 at which the search counts as converged.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class PulseSequence:
    """Ordered holonomic pulses; the first entry acts first. May be empty."""

    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        for b in self.betas:
            if not 0.0 <= b <= _HALF_PI:
                raise ValueError(f"every beta must lie in [0, pi/2], got {b}")

    def __len__(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class TargetGate:
    """A named target unitary (2x2, validated)."""

    matrix: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("target matrix must be 2x2")
        if not np.all(np.isfinite(m)):
            raise ValueError("target matrix entries must be finite")
        if not is_unitary(m):
            raise ValueError(f"target matrix must be unitary within {UNITARY_TOL:g}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SynthesisResult:
    sequence: PulseSequence
    fidelity: FidelityReport
    evaluations: int
    restarts_used: int
    converged: bool
    #: "palindromic" or "general": the coordinates of the start that gave the result.
    coordinates: str


class CatalogEntry(NamedTuple):
    target: TargetGate
    sequence: PulseSequence
    claimed_fidelity: float


def compose(seq: PulseSequence) -> np.ndarray:
    """Ordered product of the holonomic gates in ``seq`` (first beta applied
    first, so it is the rightmost matrix factor)."""
    u = _I2.copy()
    for b in seq.betas:
        u = analytic_gate(HolonomicGate(b)) @ u
    return u


def standard_target(name: str) -> TargetGate:
    """Named one-qubit targets with their conventional global phases, chosen
    so every matrix has det = 1 (reachable exactly by holonomic products)."""
    key = name.strip().lower().replace("/", "")
    if key == "not":
        return TargetGate(np.array([[0, 1j], [1j, 0]]), name="NOT")
    if key == "hadamard":
        return TargetGate(np.array([[1j, 1j], [1j, -1j]]) / math.sqrt(2), name="Hadamard")
    if key == "phase":
        return TargetGate(
            np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)]), name="Phase"
        )
    if key in ("t", "pi8"):
        return TargetGate(
            np.diag([np.exp(-1j * math.pi / 8), np.exp(1j * math.pi / 8)]), name="T"
        )
    raise ValueError(f"unknown target name {name!r} (use NOT, Hadamard, Phase or T)")


def catalog() -> list[CatalogEntry]:
    """The four published pulse sequences with their claimed fidelities."""
    return [
        CatalogEntry(
            standard_target("NOT"),
            PulseSequence((0.423, 0.680, 0.236, 0.222)),
            0.99999999990,
        ),
        CatalogEntry(
            standard_target("Hadamard"),
            PulseSequence((0.331, 0.783, 0.300, 0.926, 0.174, 0.851, 0.347)),
            0.99999999791,
        ),
        CatalogEntry(
            standard_target("Phase"),
            PulseSequence((0.827, 0.102, 0.287, 0.777)),
            0.99999999993,
        ),
        CatalogEntry(
            standard_target("T"),
            PulseSequence((0.788, 0.514, 0.788)),
            0.99999999996,
        ),
    ]


def noncommutativity_witness(b1: float, b2: float) -> float:
    """Max-norm of the commutator of two holonomic gates; positive for generic
    pairs, which is what makes the family universal under composition."""
    u1 = analytic_gate(HolonomicGate(b1))
    u2 = analytic_gate(HolonomicGate(b2))
    return max_abs(u1 @ u2 - u2 @ u1)


# --- pair search -----------------------------------------------------------
# Every array of the search keeps its starts on the last axis: coordinates
# (N, starts), pairs (..., starts), and a pair read as the real 4-vector
# (Re a, Im a, Re b, Im b) on the axis before the starts.

#: Starts advanced in one lockstep batch; bounds memory for large restart counts.
_CHUNK = 128
#: Levenberg-Marquardt iterations per batch.
_MAX_ITERATIONS = 60
#: Largest |Re b| of a target's unit pair that counts as symmetric (b = -conj(b)).
_SYMMETRIC_RE_B = 8 * np.finfo(float).eps


def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect unconstrained coordinates into [0, pi/2]; also d(beta)/dx = +-1."""
    r = np.mod(x, math.pi)
    flip = r > _HALF_PI
    return np.where(flip, math.pi - r, r), np.where(flip, -1.0, 1.0)


def _real(pair: np.ndarray) -> np.ndarray:
    """The pairs (pair[0], pair[1]), shape (2, ..., starts), as real 4-vectors
    (Re a, Im a, Re b, Im b) on a new axis before the starts."""
    *rest, starts = pair.shape[1:]
    out = np.empty((*rest, 2, 2, starts))
    # out[..., j, part, s] is part (Re, Im) of pair[j, ..., s]
    k = len(rest)
    np.copyto(out.transpose(k, *range(k), k + 2, k + 1), pair.view(float).reshape(*pair.shape, 2))
    return out.reshape(*rest, 4, starts)


def _dot4(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over the 4-vector axis of u * v, added as numpy's einsum and matmul
    add four terms: (0 + 2) + (1 + 3)."""
    p = u * v
    return (p[..., 0, :] + p[..., 2, :]) + (p[..., 1, :] + p[..., 3, :])


def _target_pair(m: np.ndarray) -> np.ndarray:
    """Unit pair of m / sqrt(det m) as a (4, 1) column; the residual absorbs its sign."""
    return _real(np.array(pair_of(m))[:, None])


def _jacobian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The composed pair q of each column of ``x`` (N, starts), shape (4, starts),
    and dq/dx_k = (g_{N-1} .. g_{k+1}) dg_k/dx_k (g_{k-1} .. g_0), shape (N, 4, starts)."""
    beta, dbeta = _fold(x)
    s, c = np.sin(beta), np.cos(beta)
    pi_s, pi_c = math.pi * s, math.pi * c
    sp, cp = np.sin(pi_s), np.cos(pi_s)
    s_sp = s * sp
    # the pulse g = (-cos(pi s) - i s sin(pi s), i c sin(pi s)) and dg/dx,
    # written part by part (the real parts of gb and db are 0)
    g = np.zeros((4,) + x.shape, complex)
    ga, gb, da, db = g
    np.negative(cp, out=ga.real)
    np.negative(s_sp, out=ga.imag)
    np.multiply(c, sp, out=gb.imag)
    np.multiply(pi_c * sp, dbeta, out=da.real)
    np.multiply(c * (sp + pi_s * cp), -dbeta, out=da.imag)
    np.multiply(pi_c * c * cp - s_sp, dbeta, out=db.imag)
    # prefix[:, k] = g_{k-1} .. g_0 and suffix[:, k] = g_{N-1} .. g_{k+1}
    n = len(x)
    prefix = np.empty((2, n + 1) + x.shape[1:], complex)
    suffix = np.empty((2,) + x.shape, complex)
    (pa, pb), (sa, sb) = prefix, suffix
    # a product with the identity is a copy
    pa[0], pb[0], sa[-1], sb[-1] = 1.0, 0.0, 1.0, 0.0
    pa[1], pb[1] = ga[0], gb[0]
    if n > 1:
        sa[-2], sb[-2] = ga[-1], gb[-1]
    for k in range(1, n):
        pair_mul(ga[k], gb[k], pa[k], pb[k], out=(pa[k + 1], pb[k + 1]))
    for k in range(n - 2, 0, -1):
        pair_mul(sa[k], sb[k], ga[k], gb[k], out=(sa[k - 1], sb[k - 1]))
    # g is spent: its rows take dg_k (g_{k-1} .. g_0), then dg's rows take dq
    pair_mul(da, db, pa[:-1], pb[:-1], out=(ga, gb))
    pair_mul(sa, sb, ga, gb, out=(da, db))
    return _real(prefix[:, -1]), _real(g[2:])


def _expand(x: np.ndarray, n: int) -> np.ndarray:
    """The n pulse coordinates of ``x``: x itself if it has n rows, else the
    palindrome x || reverse(x[:n - len(x)]) of its ceil(n/2) rows."""
    return x if len(x) == n else np.concatenate((x, x[: n - len(x)][::-1]))


def _residual(
    x: np.ndarray, target_pair: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r = q - s q_target with s = sign(q . q_target) per start, the Jacobian
    dr/dx, and |r|^2 / 2, which is the infidelity 1 - |tr(U^dag T)| / 2 exactly.
    ``x`` holds n pulse coordinates, or the ceil(n/2) of a palindrome."""
    m = len(x)
    q, jac = _jacobian(_expand(x, n))
    if m < n:
        # pulse n-1-k repeats coordinate k, so dq/dy_k is the sum of both
        # columns; an odd middle pulse (k = m - 1 = n - m) is its own mirror
        jac[: n - m] += jac[::-1][: n - m]
        jac = jac[:m]
    r = q - np.where(_dot4(q, target_pair) >= 0.0, 1.0, -1.0) * target_pair
    return r, jac, 0.5 * _dot4(r, r)


def _descend(x: np.ndarray, target_pair: np.ndarray, n: int):
    """Levenberg-Marquardt on every column of ``x`` (coordinates, starts) in
    lockstep, for sequences of n pulses (see ``_residual``).
    Once start h is within TOLERANCE, the starts after h are dropped: its
    infidelity never rises, and only the lowest hit decides the result. Stops
    once that hit is within TOLERANCE**2 (one or two steps later, by quadratic
    convergence), or after _MAX_ITERATIONS. Returns the coordinates and the
    infidelity of the starts kept, and the trial points evaluated."""
    r, jac, infidelity = _residual(x, target_pair, n)
    damping = np.full(infidelity.shape, 1e-2)
    evaluations = 0
    for iterations in range(_MAX_ITERATIONS + 1):
        hits = np.flatnonzero(infidelity <= TOLERANCE)
        if iterations == _MAX_ITERATIONS or (hits.size and infidelity[hits[0]] <= TOLERANCE**2):
            break
        if hits.size and hits[0] + 1 < len(infidelity):
            keep = slice(hits[0] + 1)
            x, r, jac = x[:, keep], r[:, keep], jac[..., keep]
            infidelity, damping = infidelity[keep], damping[keep]
        # minimum-norm damped Gauss-Newton step -J^T (J J^T + damping I)^-1 r
        # J J^T per start, (4, 4, starts), C-contiguous: einsum sums the
        # terms over the pulses in order, and its loops are compiled for
        # numpy's baseline only, so they round alike at every dispatch level
        # (optimize=True could hand the sum to BLAS, which orders it otherwise)
        normal = np.einsum("kis,kjs->ijs", jac, jac)
        normal.reshape(16, -1)[::5] += damping  # the diagonal
        step = np.linalg.solve(normal.transpose(2, 0, 1), r.T[..., None])[..., 0].T
        trial_x = x - _dot4(jac, step)
        trial_r, trial_jac, trial_infidelity = _residual(trial_x, target_pair, n)
        evaluations += len(infidelity)
        better = trial_infidelity < infidelity
        # accept in place: each start keeps its state or takes the trial's
        np.copyto(x, trial_x, where=better)
        np.copyto(r, trial_r, where=better)
        np.copyto(jac, trial_jac, where=better)
        np.copyto(infidelity, trial_infidelity, where=better)
        # J J^T has rank <= 3 (dq is tangent to the unit sphere at q), so the
        # floor keeps the 4x4 system invertible
        damping = np.where(better, np.maximum(damping / 3, 1e-12), damping * 4)
    return x, infidelity, evaluations


def _finish(target, x, n, evaluations, restarts_used) -> SynthesisResult:
    """Expand and fold the winning coordinates, then score them on the 2x2 product."""
    seq = PulseSequence(tuple(_fold(_expand(x, n))[0]))
    report = fidelity(compose(seq), target.matrix)
    # products of exact unitaries can overshoot 1 by rounding; clamp the report
    report = FidelityReport(
        magnitude=min(report.magnitude, 1.0),
        phase_sensitive=min(max(report.phase_sensitive, -1.0), 1.0),
        relative_phase=report.relative_phase,
    )
    converged = (1.0 - report.magnitude) <= TOLERANCE
    coordinates = "palindromic" if len(x) < n else "general"
    return SynthesisResult(seq, report, evaluations, restarts_used, converged, coordinates)


def synthesize(
    target: TargetGate,
    length: int,
    restarts: int = 100,
    rng_seed: int = 0,
) -> SynthesisResult:
    """Search for a pulse sequence of the given length maximizing fidelity to
    ``target`` from ``restarts`` random starts. Deterministic for a fixed
    seed; the search stops at the first start (in draw order) that reaches
    TOLERANCE. For a symmetric target of length > 1 the first ceil(restarts/2)
    starts are palindromes, and the rest are general sequences."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not restarts >= 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    target_pair = _target_pair(target.matrix)
    symmetric = length > 1 and abs(target_pair[2, 0]) <= _SYMMETRIC_RE_B
    # (coordinates per start, starts) of each phase, in draw order
    phases = [(length, restarts)]
    if symmetric:
        half = (restarts + 1) // 2
        phases = [((length + 1) // 2, half), (length, restarts - half)]
    rng = np.random.default_rng(rng_seed)
    best_infidelity, best_x = math.inf, None
    evaluations, drawn = 0, 0
    for width, count in phases:
        for first in range(0, count, _CHUNK):
            # one start per row of the draw, so that a seed keeps its starts
            starts = rng.uniform(0.0, _HALF_PI, (min(_CHUNK, count - first), width))
            x, infidelity, batch_evaluations = _descend(starts.T.copy(), target_pair, length)
            evaluations += batch_evaluations
            hits = np.flatnonzero(infidelity <= TOLERANCE)
            k = hits[0] if hits.size else int(np.argmin(infidelity))
            if infidelity[k] < best_infidelity:
                best_infidelity, best_x = infidelity[k], x[:, k]
            if hits.size:
                restarts_used = drawn + first + int(k) + 1
                return _finish(target, best_x, length, evaluations, restarts_used)
        drawn += count
    return _finish(target, best_x, length, evaluations, restarts)


def refine(target: TargetGate, betas) -> SynthesisResult:
    """Local search seeded at an existing sequence (no random restarts)."""
    x0 = np.asarray([float(b) for b in betas])
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("betas must be a nonempty 1-d sequence")
    x, _, evaluations = _descend(x0[:, None], _target_pair(target.matrix), x0.size)
    return _finish(target, x[:, 0], x0.size, evaluations, 0)
