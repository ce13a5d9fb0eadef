"""Compose the one-parameter holonomic gate family into arbitrary one-qubit
unitaries, and search for pulse sequences that hit a target gate.

The search tracks the composed product as a real unit quaternion (w, v) with
U = w I + i v.sigma and drives the residual q(beta) - s q_target to zero with
Levenberg-Marquardt steps, every random start advancing in lockstep in one
numpy batch. The Jacobian is exact: the product rule over prefix and suffix
products of the pulse quaternions, i.e. the GRAPE gradient (Khaneja et al.,
J. Magn. Reson. 172, 296 (2005)). Coordinates are unconstrained and folded
into [0, pi/2] by reflection at the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .drive import HolonomicGate, analytic_gate
from .su2 import FidelityReport, fidelity, max_abs

_HALF_PI = math.pi / 2
_I2 = np.eye(2, dtype=complex)

#: Optimizer solutions within this distance of a bound snap to the exact bound
#: when that does not worsen the objective. The window is wide because the
#: objective can be quartically flat at the bounds (e.g. identity-like pulses).
_BOUND_SNAP = 1e-3


@dataclass(frozen=True)
class PulseSequence:
    """Ordered holonomic pulses; the first entry acts first. May be empty."""

    betas: tuple[float, ...]
    omega_drive: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        for b in self.betas:
            if not 0.0 <= b <= _HALF_PI:
                raise ValueError(f"every beta must lie in [0, pi/2], got {b}")
        if not self.omega_drive > 0:
            raise ValueError(f"omega_drive must be > 0, got {self.omega_drive}")

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
        if max_abs(m.conj().T @ m - _I2) > 1e-12:
            raise ValueError("target matrix must be unitary within 1e-12")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start least-squares search."""

    restarts: int = 100
    tolerance: float = 1e-9  # infidelity at which the search counts as converged

    def __post_init__(self):
        if not self.restarts >= 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class SynthesisResult:
    sequence: PulseSequence
    fidelity: FidelityReport
    evaluations: int
    restarts_used: int
    converged: bool


class CatalogEntry(NamedTuple):
    target: TargetGate
    sequence: PulseSequence
    claimed_fidelity: float


def compose(seq: PulseSequence) -> np.ndarray:
    """Ordered product of the holonomic gates in ``seq`` (first beta applied
    first, so it is the rightmost matrix factor)."""
    u = _I2.copy()
    for b in seq.betas:
        u = analytic_gate(HolonomicGate(b, seq.omega_drive)) @ u
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


# --- quaternion search -----------------------------------------------------
# U = w I + i (x sx + y sy + z sz) is the unit quaternion (w, x, y, z), kept on
# an array's last axis with one start per row.

#: Starts advanced in one lockstep batch; bounds memory for large restart counts.
_CHUNK = 128
#: Levenberg-Marquardt iterations per batch.
_MAX_ITERATIONS = 60


def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect unconstrained coordinates into [0, pi/2]; also d(beta)/dx = +-1."""
    r = np.mod(x, math.pi)
    flip = r > _HALF_PI
    return np.where(flip, math.pi - r, r), np.where(flip, -1.0, 1.0)


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion of A @ B (A applied after B), broadcast over leading axes."""
    w, x, y, z = np.moveaxis(a, -1, 0)
    left = np.stack((w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w), axis=-1)
    return np.einsum("...ij,...j->...i", left.reshape(left.shape[:-1] + (4, 4)), b)


def _target_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion of m / sqrt(det m); the residual absorbs its sign."""
    a, b, c, d = (m / np.sqrt(np.linalg.det(m))).ravel()
    q = np.array([(a + d).real, (b + c).imag, (b - c).real, (a - d).imag])
    return q / np.linalg.norm(q)


def _jacobian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The composed quaternion q for each row of ``x`` (starts, N), and
    dq/dx_k = (g_{N-1} .. g_{k+1}) dg_k/dx_k (g_{k-1} .. g_0), shape (starts, N, 4)."""
    beta, dbeta = _fold(x)
    s, c = np.sin(beta), np.cos(beta)
    sp, cp = np.sin(math.pi * s), np.cos(math.pi * s)
    zero = np.zeros_like(beta)
    g = np.stack((-cp, c * sp, zero, -s * sp), axis=-1)
    dg = np.stack(
        (math.pi * c * sp, math.pi * c * c * cp - s * sp, zero, -c * (sp + math.pi * s * cp)),
        axis=-1,
    )
    prefix = np.zeros((len(x), x.shape[1] + 1, 4))
    suffix = np.zeros_like(g)
    prefix[:, 0, 0] = suffix[:, -1, 0] = 1.0
    for k in range(x.shape[1]):
        prefix[:, k + 1] = _quat_mul(g[:, k], prefix[:, k])
    for k in range(x.shape[1] - 1, 0, -1):
        suffix[:, k - 1] = _quat_mul(suffix[:, k], g[:, k])
    return prefix[:, -1], _quat_mul(suffix, _quat_mul(dg * dbeta[..., None], prefix[:, :-1]))


def _residual(x: np.ndarray, target_quat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = q - s q_target with s = sign(q . q_target) per start, so |r|^2 / 2 is
    the infidelity 1 - |tr(U^dag T)| / 2 exactly; and the Jacobian dr/dx."""
    q, jac = _jacobian(x)
    sign = np.where(q @ target_quat >= 0.0, 1.0, -1.0)
    return q - sign[:, None] * target_quat, jac


def _infidelity(x: np.ndarray, target_quat: np.ndarray) -> np.ndarray:
    r = _residual(x, target_quat)[0]
    return 0.5 * np.einsum("si,si->s", r, r)


def _descend(x: np.ndarray, target_quat: np.ndarray, tolerance: float):
    """Levenberg-Marquardt on every row of ``x`` (starts, N) in lockstep. Stops
    once the first start within ``tolerance`` is within tolerance**2 (one or
    two steps later, by quadratic convergence), or after _MAX_ITERATIONS.
    Returns the coordinates, each start's infidelity and the iteration count."""
    infidelity = _infidelity(x, target_quat)
    damping = np.full(len(x), 1e-2)
    for iterations in range(_MAX_ITERATIONS + 1):
        hits = np.flatnonzero(infidelity <= tolerance)
        if iterations == _MAX_ITERATIONS or (hits.size and infidelity[hits[0]] <= tolerance**2):
            break
        r, jac = _residual(x, target_quat)
        # minimum-norm damped Gauss-Newton step -J^T (J J^T + damping I)^-1 r
        normal = np.einsum("sni,snj->sij", jac, jac) + damping[:, None, None] * np.eye(4)
        trial_x = x - np.einsum("sni,si->sn", jac, np.linalg.solve(normal, r[..., None])[..., 0])
        trial = _infidelity(trial_x, target_quat)
        better = trial < infidelity
        x[better], infidelity[better] = trial_x[better], trial[better]
        # J J^T has rank <= 3 (dq is tangent to the unit sphere at q), so the
        # floor keeps the 4x4 system invertible
        damping = np.where(better, np.maximum(damping / 3, 1e-12), damping * 4)
    return x, infidelity, iterations


def _snap_to_bounds(betas: np.ndarray, target_quat: np.ndarray) -> np.ndarray:
    """Snap near-boundary solutions to the exact bound when not worse.

    A pulse at exactly pi/2 (identity) then flips to 0 (minus identity) when
    that is not worse either; the two differ only by a global sign of the
    product, so under the magnitude objective the lower angle is the convention.
    """

    def objective(b: np.ndarray) -> float:
        return _infidelity(b[None], target_quat)[0]

    snapped = np.where(betas < _BOUND_SNAP, 0.0, betas)
    snapped = np.where(snapped > _HALF_PI - _BOUND_SNAP, _HALF_PI, snapped)
    if not np.array_equal(snapped, betas) and objective(snapped) <= objective(betas):
        betas = snapped
    for i in range(betas.size):
        if betas[i] == _HALF_PI:
            flipped = betas.copy()
            flipped[i] = 0.0
            if objective(flipped) <= objective(betas):
                betas = flipped
    return betas


def _finish(target, x, target_quat, cfg, evaluations, restarts_used) -> SynthesisResult:
    """Fold and snap the winning coordinates, then score them on the 2x2 product."""
    seq = PulseSequence(tuple(_snap_to_bounds(_fold(x)[0], target_quat)))
    report = fidelity(compose(seq), target.matrix)
    # products of exact unitaries can overshoot 1 by rounding; clamp the report
    report = FidelityReport(
        magnitude=min(report.magnitude, 1.0),
        phase_sensitive=min(max(report.phase_sensitive, -1.0), 1.0),
        relative_phase=report.relative_phase,
    )
    converged = (1.0 - report.magnitude) <= cfg.tolerance
    return SynthesisResult(seq, report, evaluations, restarts_used, converged)


def synthesize(
    target: TargetGate,
    length: int,
    config: OptimizerConfig | None = None,
    rng_seed: int = 0,
) -> SynthesisResult:
    """Search for a pulse sequence of the given length maximizing fidelity to
    ``target``. Deterministic for a fixed seed and config; the search stops at
    the first start (in draw order) that reaches the configured tolerance."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    cfg = config or OptimizerConfig()
    target_quat = _target_quat(target.matrix)
    rng = np.random.default_rng(rng_seed)
    best_infidelity, best_x = math.inf, None
    evaluations, restarts_used = 0, cfg.restarts
    for first in range(0, cfg.restarts, _CHUNK):
        starts = rng.uniform(0.0, _HALF_PI, (min(_CHUNK, cfg.restarts - first), length))
        x, infidelity, iterations = _descend(starts, target_quat, cfg.tolerance)
        evaluations += iterations * len(x)
        hits = np.flatnonzero(infidelity <= cfg.tolerance)
        k = hits[0] if hits.size else int(np.argmin(infidelity))
        if infidelity[k] < best_infidelity:
            best_infidelity, best_x = infidelity[k], x[k]
        if hits.size:
            restarts_used = first + int(k) + 1
            break
    return _finish(target, best_x, target_quat, cfg, evaluations, restarts_used)


def refine(target: TargetGate, betas, config: OptimizerConfig | None = None) -> SynthesisResult:
    """Local search seeded at an existing sequence (no random restarts)."""
    cfg = config or OptimizerConfig()
    x0 = np.asarray([float(b) for b in betas])
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("betas must be a nonempty 1-d sequence")
    target_quat = _target_quat(target.matrix)
    x, _, iterations = _descend(x0[None], target_quat, cfg.tolerance)
    return _finish(target, x[0], target_quat, cfg, iterations, 0)


def synthesize_shortest(
    target: TargetGate,
    max_length: int,
    config: OptimizerConfig | None = None,
    rng_seed: int = 0,
) -> SynthesisResult:
    """Try lengths 1..max_length and return the shortest converged result, or
    the best non-converged one if none converges."""
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    cfg = config or OptimizerConfig()
    best: SynthesisResult | None = None
    for length in range(1, max_length + 1):
        result = synthesize(target, length, cfg, rng_seed)
        if result.converged:
            return result
        if best is None or result.fidelity.magnitude > best.fidelity.magnitude:
            best = result
    return best
