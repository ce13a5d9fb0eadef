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
blocks and each row is reduced by the tree along its last axis, every level
written into one workspace allocated once per row set, so only one
cache-sized group is ever held: a ``verify`` peaks at ~1.4 MB (tracemalloc)
at 10^6 and 10^7 steps alike. Every tree is planned before it runs, as the
list of calls that write its levels; a group's tree is planned once per row
count, on views of the workspace, and run for every group of that count.
Inside a row the drive phase factors exactly into a row and a column
exponential, so a factor costs one complex multiply instead of a sin and a
cos; ``a`` is the same for every factor, so the first level takes it as one
complex number. When the rows span several groups, each group stops at
``_TOP_PAIRS`` pairs per row and the narrow top levels run once over the
stopped rows of ``_FINISH_STEPS`` steps at a time. The block
pairs are the level that one tree over all the steps would pass through,
each the divided root of its row's tree, and the same tree finishes the
product over them and divides its own root.

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
from itertools import accumulate

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

#: Steps whose factors are built and reduced at once. The workspace of a
#: 2^15-step group (512 KiB of ``b``, which then takes the even tree levels,
#: 512 KiB for the odd levels, and up to 256 KiB of stopped rows) stays in L2,
#: and it is allocated once per call, so its page faults do not grow with the
#: step count. At 10^6 steps 2^14 and 2^16 measured 11.5 and 13.4 ms against
#: 10.6 ms (in process, medians of 27), and 2^13 and 2^17 slower still; at
#: 10^7 steps groups of one 2^14-step row took 137 ms against 104 ms for the
#: two rows of 2^15 steps (medians of 9).
_GROUP_STEPS = 2**15

#: Pairs per row at or below which a group's tree stops when its set spans
#: several groups; the rest of the tree then runs once over the stopped rows
#: of many groups (``_FINISH_STEPS``), one call per level instead of one per
#: group. A stop at 8 pairs held half as many stopped rows, but its extra
#: level in every group made ``propagate`` ~1% slower at 10^5 steps.
_TOP_PAIRS = 16

#: Steps whose stopped rows are finished together, in whole groups, so that
#: the stopped rows held at once take 2^24 / steps entries for rows of
#: ``steps`` pairs: 256 KiB at 10^6 steps (512 of the 976 rows) instead of
#: 500 KB, and 16 KiB at 10^7, beside the 256 KiB column exponential of the
#: 2^14-step rows. The two together take at most 17,408 entries (272 KiB)
#: for rows of 1,024 to 16,384 steps, so the peak does not grow from 10^6 to
#: 10^7 steps. A finishing pass costs ~45 us, under 1% of the time to reduce
#: 2^19 steps.
_FINISH_STEPS = 2**19

#: Entries of numpy's ufunc buffer while ``_row_products`` builds a set's
#: factors by the broadcast rows[:, None] columns. numpy runs a broadcast whose
#: rows are shorter than this buffer through two such buffers, allocated on
#: every call: 32 KiB here instead of 256 KiB at its default of 8,192 entries,
#: and none for the rows of >= 1,024 steps of the 10^6- and 10^7-step products.
_BUILD_BUFFER = 1024

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
    [0, 2 pi), branch-matched by eigenvector overlap. ``spectral`` is the
    propagator sum_k exp(i alpha_k) |phi_k(T)><phi_k(0)| built from the
    invariant eigensystem and ``alpha_numeric``, so it does not depend on
    ``steps`` either.
    """

    propagator: np.ndarray
    alpha_numeric: tuple[float, float]
    gamma_geometric: tuple[float, float]
    gamma_dynamical: tuple[float, float]
    max_integrand: float
    transitionless_defect: float
    aa_eigenphases: tuple[float, float]
    spectral: np.ndarray
    gamma_dynamical_trajectory: tuple[float, float]
    max_integrand_trajectory: float


def _step_factors(
    p: DriveParams, t_rows: np.ndarray, dt: float, steps: int
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Exact SU(2) factors exp(-i H(t_mid) dt) for rows of ``steps`` uniform
    midpoint steps, row i starting at ``t_rows[i]``, as (a, rows, columns):
    factor (i, m) is the Cayley-Klein pair (a, rows[i] columns[m]), that is
    [[a, b], [-conj(b), conj(a)]] with b = rows[i] columns[m], at
    t_mid = t_rows[i] + (m + 1/2) dt.

    The field magnitude |(Omega cos, Omega sin, Delta)| is time independent,
    so the per-step rotation angle is one scalar and ``a`` is one complex
    number for every step. Only ``b`` follows the rotating transverse field,
    and its drive phase factors exactly:
    b = i (sa Omega / field) exp(-i w t_rows[i]) exp(-i w (m + 1/2) dt), one
    small ``exp`` per row and per column and one multiply per factor. A
    vanished field, or dt = 0, turns no angle: sa = sin(-0.0) = -0.0, so the
    divisor 1 in place of a zero field leaves every factor exactly (1, +-0),
    the identity, and the product runs as for any other drive.
    """
    field = math.hypot(p.omega_rabi, p.detuning)
    scale = field or 1.0
    half = -0.5 * field * dt
    ca, sa = math.cos(half), math.sin(half)
    rows = (1j * sa * p.omega_rabi / scale) * np.exp(-1j * p.omega_drive * t_rows)
    columns = np.exp(-1j * p.omega_drive * (np.arange(0.5, steps) * dt))
    return complex(ca, sa * p.detuning / scale), rows, columns


def _level_sizes(rows: int, width: int, scalar_a: bool) -> tuple[int, int]:
    """Entries that a tree over ``rows`` rows of ``width`` pairs needs in
    each of the two level buffers of ``_tree_levels``: the first level is the
    widest written into the first buffer, with its temporary behind it unless
    ``a`` is one complex number, and the second level and its temporary the
    widest written into the second."""
    first = width - width // 2
    second = first - first // 2
    return rows * (2 * first + (0 if scalar_a else width // 2)), rows * (2 * second + first // 2)


def _pair_level(a, b: np.ndarray, out: np.ndarray | None, calls: list):
    """Append to ``calls`` the calls that write one level of the pair tree
    along the last axis, and return the level (a, b) they write: pair j of
    the level is pair 2j + 1 times pair 2j by the formula of ``pair_mul``,
    and an odd last pair is carried unchanged into the last slot. The calls
    are (function, operands) for ``_run``: ``_array_level`` or
    ``_scalar_level``, then ``_carry`` for an odd width. Nothing is computed
    until they run; the operands are views, so the calls write the level
    again whenever new pairs stand in the same places.

    The level is written contiguously into the 1-D buffer ``out``, its a
    before its b and its temporary right behind them; ``out`` may not overlap
    the pairs read. Without a buffer the level and its temporary are new
    arrays, which costs less than making views for the few pairs of a final
    tree.

    ``a`` is an array shaped like ``b``, or one complex number shared by
    every pair, as on the first level over ``_step_factors``' rows: then
    a a - b1 conj(b0) and a b0 + b1 conj(a) take 6 array passes instead of 8
    and no temporary.
    """
    lead, width = b.shape[:-1], b.shape[-1]
    n = width // 2
    shape, t_shape = (2,) + lead + (width - n,), lead + (n,)
    if out is None:
        level = np.empty(shape, dtype=complex)
    else:
        level = out[: math.prod(shape)].reshape(shape)
    la, lb = level[0], level[1]
    pa, pb = (la[..., :n], lb[..., :n]) if width % 2 else (la, lb)
    b1, b0 = b[..., 1::2], b[..., : 2 * n : 2]
    if isinstance(a, np.ndarray):
        if out is None:
            t = np.empty(t_shape, dtype=complex)
        else:
            t = out[level.size : level.size + math.prod(t_shape)].reshape(t_shape)
        calls.append((_array_level, (a[..., 1::2], b1, a[..., : 2 * n : 2], b0, pa, pb, t)))
        carry = a[..., -1]
    else:
        # a a by numpy's loop, which may fuse multiply and add, so that it
        # rounds as the array product does; Python's complex multiply does not
        calls.append((_scalar_level, (a, a.conjugate(), np.multiply(np.asarray(a), a), b1, b0, pa, pb)))
        carry = a
    if width % 2:
        calls.append((_carry, (la, lb, n, carry, b[..., -1])))
    return la, lb


def _array_level(
    a1, b1, a0, b0, pa, pb, t, conj=np.conjugate, mul=np.multiply, sub=np.subtract, add=np.add
) -> None:
    """(pa, pb) = (a1, b1) times (a0, b0) by the formula of ``pair_mul``, in
    8 array passes through the temporary ``t``. The ufuncs are bound as
    defaults, since on the narrow levels of a tree looking them up on ``np``
    costs about as much as planning a row count once saves."""
    conj(b0, pa)
    mul(b1, pa, t)
    mul(a1, a0, pb)
    sub(pb, t, pa)
    conj(a0, t)
    mul(b1, t, pb)
    mul(a1, b0, t)
    add(pb, t, pb)


def _scalar_level(
    a, a_conj, aa, b1, b0, pa, pb, conj=np.conjugate, mul=np.multiply, sub=np.subtract, add=np.add
) -> None:
    """(pa, pb) = (a, b1) times (a, b0) by the formula of ``pair_mul``, for
    one ``a`` with its conjugate and a a, in 6 array passes: pb is finished
    before pa, so pa holds pb's second term."""
    mul(a, b0, pb)
    mul(b1, a_conj, pa)
    add(pb, pa, pb)
    conj(b0, pa)
    mul(b1, pa, pa)
    sub(aa, pa, pa)


def _carry(la, lb, n, a, b) -> None:
    """Carry an odd last pair (a, b) into the last slot n of the level (la, lb)."""
    la[..., n] = a
    lb[..., n] = b


def _tree_levels(a, b: np.ndarray, stop: int, first=None, second=None):
    """Plan the reduction of the pairs (a, b) along the last axis by
    ``_pair_level`` until at most ``stop`` pairs per row remain, the odd
    levels written into the 1-D buffer ``first`` and the even ones into
    ``second`` (see ``_level_sizes``), or into new arrays without buffers.
    Returns (plan, level): the calls of every level in order, for ``_run``,
    and the views of the last level, which is (a, b) with an empty plan when
    ``stop`` is already met. ``second`` may hold the pairs (a, b) themselves,
    since the first level has read them before the second is written."""
    plan, out, spare = [], first, second
    while b.shape[-1] > stop:
        a, b = _pair_level(a, b, out, plan)
        out, spare = spare, out
    return plan, (a, b)


def _run(plan) -> None:
    """Make the calls of a plan, in order."""
    for function, operands in plan:
        function(*operands)


def _pair_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product pairs[-1] @ ... @ pairs[0] of the Cayley-Klein pairs (a, b)
    along the last axis by pairwise tree reduction, as pairs of shape
    ``a.shape[:-1]``.

    A later factor multiplies an earlier one by ``pair_mul``'s formula; an
    odd element is carried to the next level unchanged. Any pair is its norm
    times an SU(2) element, so rounding can only move the norm away from 1 or
    perturb the rotation. The rounding of 10^6 nearly equal factors is
    coherent, not a random walk: the norm drifts by ~1e-10 at 10^6 steps,
    while the rotation stays within the ~2e-12 midpoint error of the exact
    propagator. The norm of a product is the product of the norms, and
    rounding is relative to magnitude, so norms of 1 +- N eps inside the tree
    cannot move the rotation: the root alone is divided by
    sqrt(|a|^2 + |b|^2).
    """
    plan, (a, b) = _tree_levels(a, b, 1)
    _run(plan)
    return pair_unit(a[..., 0], b[..., 0])


def _top_width(steps: int) -> int:
    """Pairs per row left when a group's tree over rows of ``steps`` pairs
    stops at ``_TOP_PAIRS`` or fewer."""
    while steps > _TOP_PAIRS:
        steps -= steps // 2
    return steps


def _finished_rows(steps: int, per_group: int) -> int:
    """Rows of ``steps`` pairs whose stopped rows are finished together: the
    whole groups of ``per_group`` rows in ``_FINISH_STEPS`` steps, at least
    one."""
    return per_group * max(1, _FINISH_STEPS // (per_group * steps))


def _joined(parts) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D pairs (a, b) of ``parts`` joined in order."""
    if len(parts) == 1:  # nothing to join
        return parts[0]
    a_parts, b_parts = zip(*parts)
    return np.concatenate(a_parts), np.concatenate(b_parts)


def _row_products(
    p: DriveParams, dt: float, t_rows: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair product of every row of ``_step_factors`` with ``steps`` steps
    from the times ``t_rows``; rows of identity factors (no field, or
    dt = 0) give the exact identity pair (1, 0).

    The rows are built and reduced ``_GROUP_STEPS // steps`` at a time (at
    least one), so only one cache-sized group of factors is ever held. A
    group's factors are built by one broadcast, under numpy's ufunc buffer
    of ``_BUILD_BUFFER`` entries; the caller's size is restored after it.
    The first level takes ``a`` as one complex number. Rows of one group are
    reduced to their roots at once. Otherwise every group stops at
    ``_TOP_PAIRS`` pairs per row or fewer, and the rest of the tree runs
    once over the stopped rows of ``_finished_rows`` rows at a time, in the
    same association order. The groups have at most two row counts, the
    full one and the last group's: the tree of each count is planned once,
    on views of one workspace, and run for every group of that count.
    """
    a, rows, columns = _step_factors(p, t_rows, dt, steps)
    n_rows, per_group = len(t_rows), max(1, _GROUP_STEPS // steps)
    if steps == 1:
        # one exact factor per row: no tree runs, so there is no norm to divide
        return np.full(n_rows, a), rows * columns[0]
    several = n_rows > per_group
    stop = _TOP_PAIRS if several else 1
    held = _finished_rows(steps, per_group) if several else n_rows
    # The workspace: the first level buffer of _tree_levels, a group's b,
    # which is its second level buffer, and the stopped rows.
    group, top_rows, width = min(n_rows, per_group), min(n_rows, held), _top_width(steps)
    first_size, second_size = _level_sizes(group, steps, scalar_a=True)
    need = [first_size, max(group * steps, second_size), 0]
    if several:
        need = [*map(max, need, _level_sizes(top_rows, width, scalar_a=False)), 2 * top_rows * width]
    # One block rather than three: glibc serves the first from mmap and then
    # raises its mmap and trim thresholds to the block's size, so later calls
    # find it in the heap instead of faulting it in again. It comes after the
    # factors, so that the temporaries of their column exponential do not
    # stack on it.
    work = np.empty(sum(need), dtype=complex)
    first, b_work, top_work = (work[end - n : end] for n, end in zip(need, accumulate(need)))
    roots, plans = [], {}
    buffer = np.setbufsize(_BUILD_BUFFER)
    try:
        for chunk in range(0, n_rows, held):
            chunk_rows = min(held, n_rows - chunk)
            if several:
                top = top_work[: 2 * chunk_rows * width].reshape(2, chunk_rows, width)
            for start in range(chunk, chunk + chunk_rows, per_group):
                count = min(per_group, n_rows - start)
                if count not in plans:
                    b = b_work[: count * steps].reshape(count, steps)
                    plans[count] = b, *_tree_levels(a, b, stop, first, b_work)
                b, plan, (la, lb) = plans[count]
                # the row factor first: the other order rounds differently
                np.multiply(rows[start : start + count, None], columns, b)
                _run(plan)
                if several:
                    top[0, start - chunk : start - chunk + count] = la
                    top[1, start - chunk : start - chunk + count] = lb
            if chunk + held >= n_rows:
                # The column exponential goes before the last pass over the
                # stopped rows, so that the pass does not stack on it.
                del columns
            if several:  # every group stopped at _TOP_PAIRS: finish the chunk's rows at once
                plan, (la, lb) = _tree_levels(top[0], top[1], 1, first, b_work)
                _run(plan)
            roots.append(pair_unit(la[..., 0], lb[..., 0]))
    finally:
        np.setbufsize(buffer)
    return _joined(roots)


def _scan_level(p: DriveParams, duration: float, steps: int):
    """(size, a, b): the products over consecutive blocks of size = 2^k steps
    from t = 0, the smallest k with at most ``_SCAN_BLOCKS`` blocks; only the
    last block can be shorter.

    The full blocks are the rows of one call of ``_row_products`` and a short
    last block the one row of another, so the block pairs are the tree level
    that one tree over all the steps would pass through, up to their norms:
    each is divided by its norm as the root of its row's tree, except a
    block of one step, which is one exact factor. Without a field, or over
    a zero duration, every block pair is exactly (1, 0).
    """
    size = 1
    while -(-steps // size) > _SCAN_BLOCKS:
        size *= 2
    dt = duration / steps
    full, rest = divmod(steps, size)
    blocks = []
    if full:  # none only when a block holds more than all the steps
        blocks.append(_row_products(p, dt, np.arange(full) * (size * dt), size))
    if rest:
        blocks.append(_row_products(p, dt, np.array([full * size * dt]), rest))
    return size, *_joined(blocks)


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
    block pairs. A zero duration and a drive without a field take the same
    path: every factor is then the identity, so the product is exactly I.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    level = _scan_level(p, duration, steps)
    sink = _level_sink.get()
    if sink is not None:
        sink.append(level)
    return pair_matrix(*_pair_product(level[1], level[2]))


def exact_propagator(p: DriveParams, t) -> np.ndarray:
    """Closed-form propagator U(t) = exp(-i w t sz/2) exp(-i H_rot t) of the
    circular drive, with the static rotating-frame Hamiltonian
    H_rot = ((Delta - w) sz + Omega sx) / 2.

    ``t`` is a scalar or an array of times; the result has shape
    ``t.shape + (2, 2)``. This is the Lewis-Riesenfeld solution written out
    in the frame co-rotating with the drive, exact up to rounding for any
    drive, holonomic or not. Raises ValueError if any time is NaN or infinite.
    """
    return _closed_forms([p], t)[0]


def _closed_forms(drives, t) -> np.ndarray:
    """The closed form of ``exact_propagator`` for each drive in ``drives``
    at the same times ``t``: shape ``(len(drives),) + t.shape + (2, 2)``,
    row k that of ``drives[k]``.

    lam, nx and nz are computed per drive with ``math.hypot`` and float
    division, then broadcast over the times. Every operation after that is
    elementwise with a fixed operand order, so a row has the same bits
    whatever other drives and times share the call.
    """
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"t must be finite, got {t[~finite][0]}")
    columns = []
    for p in drives:
        dz = p.offset
        lam = math.hypot(p.omega_rabi, dz)
        # lam = 0 leaves only the frame rotation: sin(lam t / 2) = 0 kills the
        # axis terms, so any finite axis components will do there.
        nx, nz = (p.omega_rabi / lam, dz / lam) if lam > 0.0 else (0.0, 0.0)
        columns.append((p.omega_drive, lam, nx, nz))
    # one column per drive, with an axis of length 1 for each axis of t
    w, lam, nx, nz = np.array(columns).T.reshape((4, len(columns)) + (1,) * t.ndim)
    c = np.cos(0.5 * lam * t)
    s = np.sin(0.5 * lam * t)
    frame = np.exp(-0.5j * w * t)
    # np.multiply keeps frame the left operand at every size: on a temporary
    # of over 256 KiB, numpy runs ``*`` in place with the operands swapped, and
    # the fused imaginary part of the complex product is not commutative
    return pair_matrix(np.multiply(frame, c - 1j * s * nz), np.multiply(frame, -1j * s * nx))


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

    ``level`` is the tree level (size, a, b) of ``_scan_level``; its
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
    gamma_traj, max_integrand_traj = _trajectory_phases(
        p, steps, levels[0], (es0.eigvec_plus, es0.eigvec_minus)
    )

    gamma_g, gamma_d, max_integrand = _phase_quadrature(p)
    alpha = (gamma_g[0] + gamma_d[0], gamma_g[1] + gamma_d[1])

    es_t = eigensystem(p, period)
    survival = min(
        abs(np.vdot(es_t.eigvec_plus, u @ es0.eigvec_plus)),
        abs(np.vdot(es_t.eigvec_minus, u @ es0.eigvec_minus)),
    )
    spectral = np.exp(1j * alpha[0]) * np.outer(es_t.eigvec_plus, es0.eigvec_plus.conj())
    spectral += np.exp(1j * alpha[1]) * np.outer(es_t.eigvec_minus, es0.eigvec_minus.conj())
    return EvolutionReport(
        propagator=u,
        alpha_numeric=alpha,
        gamma_geometric=gamma_g,
        gamma_dynamical=gamma_d,
        max_integrand=max_integrand,
        transitionless_defect=1.0 - survival,
        aa_eigenphases=aa_eigenphases(u, p),
        spectral=spectral,
        gamma_dynamical_trajectory=gamma_traj,
        max_integrand_trajectory=max_integrand_traj,
    )


def invariant_residual(p: DriveParams, t: float, h: float) -> float:
    """Max-norm defect of the invariant equation dI/dt = -i [H, I], with the
    time derivative taken by central difference at step h (O(h^2)). Raises
    ValueError if ``t`` is not finite or ``h`` is not finite and positive."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    deriv = (invariant(p, t + h) - invariant(p, t - h)) / (2.0 * h)
    ham = hamiltonian(p, t)
    inv = invariant(p, t)
    return max_abs(deriv + 1j * (ham @ inv - inv @ ham))
