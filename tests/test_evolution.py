import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hologate.evolution as evolution
from hologate import (
    ConsistencyError,
    DriveParams,
    HolonomicGate,
    analytic_gate,
    eigensystem,
    exact_propagator,
    full_report,
    hamiltonian,
    invariant_residual,
    lr_phase,
    max_abs,
    params_from_beta,
    propagate,
)
from hologate.cli import INVARIANT_ROUNDING_COEFF, invariant_rounding, main, verify_checks
from hologate.su2 import pair_matrix

from conftest import any_drive, random_drive, rounding_bound
from midpoint_oracle import midpoint_product
from one_shot_product import step_factors, tree_product
from oracles import dynamical_integrand

I2 = np.eye(2, dtype=complex)

#: Drives over the range the model is exercised in, holonomic or not.
drives = st.builds(
    DriveParams,
    omega_rabi=st.floats(0.0, 2.0),
    detuning=st.floats(-1.0, 2.0),
    omega_drive=st.floats(0.5, 2.0),
)


def circular_distance(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


# --- propagate -----------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 16, 1025, 3001, 100_000])
@pytest.mark.parametrize(
    "p, duration",
    [(DriveParams(1.0, 0.3, 1.0), 0.0), (DriveParams(0.0, 0.0, 1.3), 2 * math.pi / 1.3)],
    ids=["zero_duration", "no_field"],
)
def test_propagate_zero_duration_is_identity(p, duration, steps):
    # no rotation takes the general product: every factor, block pair and
    # the product itself come out exactly the identity
    assert max_abs(propagate(p, duration, steps) - I2) == 0.0
    _, a, b = evolution._scan_level(p, duration, steps)
    assert np.all(a == 1.0) and np.all(b == 0.0)


def test_propagate_constant_hamiltonian_single_step_exact():
    # Omega = 0 freezes H, so one midpoint step is the exact exp(-i pi sz)
    u = propagate(DriveParams(0.0, 1.0, 1.0), 2 * math.pi, 1)
    assert max_abs(u + I2) < 1e-12


def test_propagate_matches_analytic_gate_and_converges():
    g = HolonomicGate(0.3)
    p = params_from_beta(g)
    target = analytic_gate(g)
    err1 = max_abs(propagate(p, 2 * math.pi, 10_000) - target)
    err2 = max_abs(propagate(p, 2 * math.pi, 20_000) - target)
    assert err1 < 1e-7
    assert 2.5 < err1 / err2 < 6.0  # second-order midpoint rule


def test_propagate_rejects_bad_arguments():
    p = DriveParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        propagate(p, 1.0, 0)
    with pytest.raises(ValueError):
        propagate(p, -1.0, 10)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
def test_propagators_reject_a_non_finite_duration(duration):
    # nan passed a plain duration < 0 test and came back as an all-NaN matrix,
    # inf as a math domain error, each after a numpy RuntimeWarning, which the
    # test configuration turns into an error
    p = DriveParams(1.0, 0.0, 1.0)
    message = f"duration must be finite and >= 0, got {duration}"
    with pytest.raises(ValueError, match=re.escape(message)):
        propagate(p, duration, 10)


def test_propagate_second_order_convergence_generic():
    rng = np.random.default_rng(3)
    p = random_drive(rng)
    ref = propagate(p, p.period, 2 ** 16)
    errors = [max_abs(propagate(p, p.period, n) - ref) for n in (256, 512, 1024)]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


def test_propagate_unitarity_accumulates_only_rounding():
    rng = np.random.default_rng(4)
    for steps in (100, 10_000):
        p = random_drive(rng)
        u = propagate(p, p.period, steps)
        assert max_abs(u.conj().T @ u - I2) <= 1e-12 * steps


def test_propagate_unitarity_does_not_grow_with_steps():
    # measured <= 4.45e-16 on 200 random drives at 1e2 and 1e4 steps and on 5 at
    # 1e6; the 2x2 product without renormalization reached 1.5e-10 at 1e6
    rng = np.random.default_rng(5)
    for steps in (100, 10_000, 1_000_000):
        p = random_drive(rng)
        u = propagate(p, p.period, steps)
        assert max_abs(u.conj().T @ u - I2) <= 1e-15


@pytest.mark.parametrize("beta", [0.35, 0.74, 1.01])
def test_full_report_at_a_million_steps_is_unitary_and_near_exact(beta):
    # the three beta failed verify's 1e-10 unitarity check with the plain
    # product (defect up to 1.5e-10, 5.9e-11 from exact at beta 0.74); with
    # the renormalized pair product they read <= 4.4e-16 and <= 1.6e-12, the
    # midpoint truncation error
    p = params_from_beta(HolonomicGate(beta))
    u = full_report(p, 1_000_000).propagator
    assert max_abs(u.conj().T @ u - I2) <= 1e-15
    assert max_abs(u - exact_propagator(p, p.period)) <= 5e-12


@given(length=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(length=3, seed=0)  # odd: the carried factor must be kept, and last
def test_pair_product_matches_sequential_matrix_product(length, seed):
    # measured over 100,000 random stacks of length 1-64: agreement <= 2.6e-15,
    # |det - 1| <= 8.9e-16, unitarity defect <= 6.7e-16
    q = np.random.default_rng(seed).normal(size=(length, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b = q[:, 0] + 1j * q[:, 3], q[:, 2] + 1j * q[:, 1]
    reference = I2
    for ak, bk in zip(a, b):
        reference = np.array([[ak, bk], [-bk.conjugate(), ak.conjugate()]]) @ reference
    u = pair_matrix(*evolution._pair_product(a, b))
    assert max_abs(u - reference) <= 1e-13
    assert abs(np.linalg.det(u) - 1.0) <= 2e-15
    assert max_abs(u.conj().T @ u - I2) <= 1e-15


def unit_pairs(rng, shape):
    """Random SU(2) pairs (a, b) of the given shape."""
    q = rng.normal(size=(4,) + shape)
    q /= np.linalg.norm(q, axis=0)
    return q[0] + 1j * q[3], q[2] + 1j * q[1]


@given(
    rows=st.integers(1, 4),
    width=st.integers(1, 300),
    scalar_a=st.booleans(),
    stop=st.sampled_from([1, evolution._TOP_PAIRS]),
    groups=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, width=257, scalar_a=True, stop=1, groups=2, seed=0)  # odd on every level: 257, 129, ..., 3
@example(rows=3, width=257, scalar_a=False, stop=1, groups=2, seed=0)
@example(rows=2, width=33, scalar_a=False, stop=evolution._TOP_PAIRS, groups=3, seed=0)  # 33, 17, then 9
@example(rows=2, width=16, scalar_a=True, stop=evolution._TOP_PAIRS, groups=2, seed=0)  # the stop already met
def test_buffered_tree_levels_equal_fresh_ones_bit_for_bit(rows, width, scalar_a, stop, groups, seed):
    # _row_products plans the tree of a row count once in two level
    # buffers, the second of which holds the group's b, with each level's
    # temporary behind the level, and runs the plan for every group of that
    # count. Each group here brings new pairs into the planned inputs, and the
    # reference reduces copies of them in a tree planned anew, into fresh
    # NaN-filled buffers, as _pair_product plans its final tree; so a level
    # or temporary written over an input or over a level still being read
    # cannot pass. The buffers are NaN again before every group, so neither
    # can a slot left unwritten, nor a planned call that holds a value of an
    # earlier group.
    rng = np.random.default_rng(seed)
    sizes = evolution._level_sizes(rows, width, scalar_a)
    first = np.empty(sizes[0], dtype=complex)
    second = np.empty(max(sizes[1], rows * width), dtype=complex)
    if scalar_a:  # one a for every pair, as on the rows of _step_factors
        a = complex(unit_pairs(rng, ())[0])
        b = second[: rows * width].reshape(rows, width)  # the group's b, as in _row_products
    else:
        a, b = np.empty((rows, width), dtype=complex), np.empty((rows, width), dtype=complex)
    plan = None
    for _ in range(groups):
        first.fill(np.nan)
        second.fill(np.nan)
        new_a, new_b = unit_pairs(rng, (rows, width))
        if scalar_a:
            new_b *= math.sqrt(1.0 - abs(a) ** 2) / np.abs(new_b)
        else:
            a[...] = new_a
        b[...] = new_b
        fresh = [np.full(size, np.nan, dtype=complex) for size in sizes]
        want_plan, (want_a, want_b) = evolution._tree_levels(
            a if scalar_a else new_a.copy(), new_b.copy(), stop, *fresh
        )
        evolution._run(want_plan)
        if plan is None:  # planned once, before the first group's pairs are reduced
            plan, (got_a, got_b) = evolution._tree_levels(a, b, stop, first, second)
            assert got_b.shape == (rows, evolution._top_width(width) if stop > 1 else 1)
        evolution._run(plan)
        assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)


@pytest.mark.parametrize(
    "shape, bound",
    [((32, 1024), 1e4), ((2, 16384), 1e4), ((625, 16), 4e4), ((256, 128), 4e4)],
    ids=["1e6", "1e7", "1e4", "1e5"],
)
def test_group_build_of_long_rows_allocates_no_ufunc_buffers(shape, bound):
    # numpy runs a broadcast whose rows are shorter than its ufunc buffer
    # through two such buffers, allocated on every call (263 KB at its
    # default of 8,192 entries); under _BUILD_BUFFER, as _row_products builds,
    # the rows of >= 1,024 steps of the 10^6- and 10^7-step products need
    # none, and the short rows of 10^4 and 10^5 steps 2 x 1,024 x 16 B
    rng = np.random.default_rng(0)
    count, steps = shape
    rows = 0.3 * np.exp(1j * rng.uniform(-math.pi, math.pi, count))
    columns = np.exp(1j * rng.uniform(-math.pi, math.pi, steps))
    b = np.empty(shape, dtype=complex)
    buffer = np.setbufsize(evolution._BUILD_BUFFER)
    tracemalloc.start()
    try:
        np.multiply(rows[:, None], columns, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(buffer)
    assert peak <= bound


# --- closed-form midpoint product -----------------------------------------------------
# midpoint_oracle telescopes the ordered product of the step factors, so it
# checks the tree and the prefix scan to rounding, not the truncation error.
# Every comparison of two roundings of one product is bounded by
# conftest.rounding_bound, which grows with the angle the field turns through;
# tests/rounding_sweep.py fits and checks it. The drive corner
# DriveParams(2, 2, 0.5) over a full period turns the most, 35.5 rad.

#: The drive that turns the most over a period in the drive box.
CORNER = DriveParams(2.0, 2.0, 0.5)


def segment_snapshots(p, duration, samples, per_segment):
    """The propagator at t_i = i duration / (samples - 1), i = 1 .. samples - 1,
    as pairs: the segments between the times are the rows of one call of
    ``_row_products`` with ``per_segment`` steps each, and the snapshots their
    prefix products."""
    times = np.linspace(0.0, duration, samples)
    dt = duration / (samples - 1) / per_segment
    return evolution._prefix_products(*evolution._row_products(p, dt, times[:-1], per_segment))


@given(p=drives, steps=st.integers(1, 3000), frac=st.floats(0.01, 1.0))
@example(p=DriveParams(1.0, 1.0, 1.0), steps=1, frac=1.0)  # non-holonomic, one factor
@example(p=DriveParams(1.0, 1.0, 1.0), steps=999, frac=1.0)  # odd at several levels
@example(p=CORNER, steps=496, frac=1.0)  # 9.40e-15, 42 eps: the worst step count 1-3000
def test_propagate_matches_closed_form_midpoint_product(p, steps, frac):
    duration = frac * p.period
    u = propagate(p, duration, steps)
    assert max_abs(u - midpoint_product(p, steps, duration / steps)) <= rounding_bound(p, duration)


@pytest.mark.parametrize(
    "p, steps",
    [
        pytest.param(params_from_beta(HolonomicGate(0.68)), 1_000_000, id="beta0.68"),
        pytest.param(DriveParams(1.0, 1.0, 1.0), 1_000_000, id="1,1,1"),
        pytest.param(params_from_beta(HolonomicGate(0.68)), 10_000_000, id="beta0.68-1e7"),
        pytest.param(DriveParams(1.0, 1.0, 1.0), 10_000_000, id="1,1,1-1e7"),
    ],
)
def test_propagate_matches_closed_form_at_a_million_steps(p, steps):
    # 10^7 is the verify --steps cap: rows of 2^14 steps, the longest that a
    # tree reduces before dividing its root. Measured <= 9e-16 from the oracle
    # and unitarity defect <= 4.5e-16 at both counts; without the root
    # division the norm alone drifts by ~1e-10 at 10^6 steps
    u = propagate(p, p.period, steps)
    assert max_abs(u - midpoint_product(p, steps, p.period / steps)) <= rounding_bound(p, p.period)
    assert max_abs(u.conj().T @ u - I2) <= 1e-15


@given(p=drives, steps=st.integers(1, 3000), max_blocks=st.integers(1, 64))
@example(p=DriveParams(1.0, 1.0, 1.0), steps=3001, max_blocks=1024)  # last block 1 step
def test_prefix_scan_matches_closed_form_at_every_block_boundary(p, steps, max_blocks):
    with mock.patch.object(evolution, "_SCAN_BLOCKS", max_blocks):
        size, a, b = evolution._scan_level(p, p.period, steps)
    # the first level with at most max_blocks pairs, blocks of size steps from 0
    assert a.shape[0] == -(-steps // size) <= max_blocks
    assert size == 1 or -(-steps // (size // 2)) > max_blocks
    ends = np.minimum(size * np.arange(1, a.shape[0] + 1), steps)
    expected = midpoint_product(p, ends, p.period / steps)
    u = pair_matrix(*evolution._prefix_products(a, b))
    assert max_abs(u - expected) <= rounding_bound(p, p.period)


def test_prefix_scan_of_raw_step_factors_stays_unit_and_exact():
    # 10^5 unrenormalized factors whose norms are off by the same rounding:
    # every pass must divide the norm out, as the tree does
    p = params_from_beta(HolonomicGate(0.423))
    steps = 100_000
    a, rows, columns = evolution._step_factors(p, np.zeros(1), p.period / steps, steps)
    a, b = np.full(steps, a), rows[0] * columns
    pa, pb = evolution._prefix_products(a, b)
    assert np.max(np.abs(pa.real**2 + pa.imag**2 + pb.real**2 + pb.imag**2 - 1.0)) <= 2e-15
    expected = midpoint_product(p, np.arange(1, steps + 1), p.period / steps)
    assert max_abs(pair_matrix(pa, pb) - expected) <= rounding_bound(p, p.period)


@pytest.mark.parametrize(
    "p", [params_from_beta(HolonomicGate(0.6)), DriveParams(1.0, 1.0, 1.0)], ids=["beta0.6", "1,1,1"]
)
def test_propagate_samples_matches_closed_form_midpoint_product(p):
    # snapshot i is the product of the first i segments of 333 steps each;
    # measured <= 8.5e-16
    samples, per_segment = 11, 333
    us = pair_matrix(*segment_snapshots(p, p.period, samples, per_segment))
    dt = p.period / (samples - 1) / per_segment
    expected = midpoint_product(p, per_segment * np.arange(1, samples), dt)
    assert max_abs(us - expected) <= rounding_bound(p, p.period)


# --- streamed against one-shot product ------------------------------------------------
# propagate builds and reduces the step factors a group of blocks at a time,
# with the drive phase factored into a row and a column exponential;
# one_shot_product builds every factor from its own sin and cos and reduces
# them in one tree. The association order is the same, so only the rounding
# of the factors differs. Neither rounding is the better one: against factors
# from long-double sin/cos both products read ~1e-15 at the corner of the
# drive range (Omega = Delta = 2, w = 0.5: the longest rotation per period).

#: Holonomic drives and arbitrary ones.
any_drives = drives | st.floats(0.02, 1.55).map(lambda beta: params_from_beta(HolonomicGate(beta)))


@given(p=any_drives, steps=st.integers(1, 3000), frac=st.floats(0.01, 1.0))
@example(p=DriveParams(1.0, 1.0, 1.0), steps=evolution._GROUP_STEPS + 1, frac=1.0)  # 1 full group, 1-step last block
@example(p=params_from_beta(HolonomicGate(0.423)), steps=100_007, frac=1.0)  # 4 groups, short last block
@example(p=DriveParams(1.0, 1.0, 1.0), steps=999_999, frac=1.0)  # 31 groups, short last block
@example(p=CORNER, steps=1236, frac=1.0)  # 4.72e-15, 21 eps: the worst step count 1-3000
@example(p=CORNER, steps=2159, frac=1.0)  # 4.33e-15
@example(p=DriveParams(0.0, 0.0, 1.0), steps=3001, frac=1.0)  # no field: every factor the identity
def test_streamed_propagate_and_scan_level_match_the_one_shot_product(p, steps, frac):
    duration = frac * p.period
    bound = rounding_bound(p, duration)
    factors = step_factors(p, 0.0, duration, steps)
    (a, b), (size, la, lb) = tree_product(*factors, max_blocks=evolution._SCAN_BLOCKS)
    assert max_abs(propagate(p, duration, steps) - pair_matrix(a, b)) <= bound
    got_size, got_a, got_b = evolution._scan_level(p, duration, steps)
    assert got_size == size and got_a.shape == la.shape
    assert max(max_abs(got_a - la), max_abs(got_b - lb)) <= bound


@given(
    p=any_drives,
    samples=st.integers(2, 40),
    per_segment=st.integers(1, 500),
    frac=st.floats(0.01, 1.0),
)
@example(p=DriveParams(1.0, 1.0, 1.0), samples=3, per_segment=evolution._GROUP_STEPS + 1, frac=1.0)  # a group per segment
@example(p=params_from_beta(HolonomicGate(0.6)), samples=200, per_segment=333, frac=1.0)  # 3 groups of segments
@example(p=DriveParams(0.0, 2.0, 0.5), samples=37, per_segment=488, frac=1.0)  # 7.74e-15, 35 eps
def test_streamed_propagate_samples_match_the_one_shot_product(p, samples, per_segment, frac):
    duration = frac * p.period
    us = pair_matrix(*segment_snapshots(p, duration, samples, per_segment))
    t0 = np.linspace(0.0, duration, samples)[:-1, None]
    a, b = tree_product(*step_factors(p, t0, duration / (samples - 1), per_segment))
    expected = pair_matrix(*evolution._prefix_products(a, b))
    assert max_abs(us - expected) <= rounding_bound(p, duration)


#: (max_blocks, steps) with blocks of at most 64 steps.
short_blocks = st.integers(1, 64).flatmap(
    lambda blocks: st.tuples(st.just(blocks), st.integers(1, min(3000, 64 * blocks)))
)


#: The drive of the grouping examples.
UNIT = DriveParams(1.0, 1.0, 1.0)

#: Steps of the finishing passes of the default product: one pass per set here.
ONE_PASS = evolution._FINISH_STEPS


@given(
    p=any_drives,
    blocks_steps=short_blocks,
    group_steps=st.integers(1, 256),
    finish_steps=st.integers(1, 2**12) | st.just(ONE_PASS),
)
@example(p=UNIT, blocks_steps=(64, 3000), group_steps=1, finish_steps=ONE_PASS)  # 46 groups of one row
@example(p=UNIT, blocks_steps=(64, 3000), group_steps=256, finish_steps=ONE_PASS)  # groups of 4 rows, the last of 2
@example(p=UNIT, blocks_steps=(64, 3000), group_steps=256, finish_steps=512)  # passes of 8 rows, the last of 6
@example(p=UNIT, blocks_steps=(64, 3000), group_steps=1, finish_steps=1)  # a pass per group
@example(p=UNIT, blocks_steps=(64, 2065), group_steps=100, finish_steps=ONE_PASS)  # 33 blocks, 17-step last block
@example(p=UNIT, blocks_steps=(64, 40), group_steps=2, finish_steps=ONE_PASS)  # rows of one step
@example(p=UNIT, blocks_steps=(64, 700), group_steps=16, finish_steps=ONE_PASS)  # groups stopped before a level
@example(p=UNIT, blocks_steps=(1, 63), group_steps=7, finish_steps=ONE_PASS)  # no full block
@example(p=UNIT, blocks_steps=(64, 129), group_steps=16, finish_steps=ONE_PASS)  # 32 blocks of 4 steps, 1-step last block
@example(p=CORNER, blocks_steps=(64, 129), group_steps=16, finish_steps=ONE_PASS)
@example(p=CORNER, blocks_steps=(64, 1236), group_steps=256, finish_steps=ONE_PASS)  # 4.72e-15 from the one-shot product
@example(p=DriveParams(0.0, 0.0, 1.0), blocks_steps=(64, 3000), group_steps=256, finish_steps=512)  # no field
def test_streamed_product_matches_the_one_shot_product_for_any_grouping(p, blocks_steps, group_steps, finish_steps):
    # Groups of 1-256 steps reach every path of the streamed product at a few
    # thousand steps: many groups and a short last one, rows stopped at 16
    # pairs and finished together, in one pass or in passes of whole groups
    # over 1-4,096 steps, odd widths on every level (33 and 17 are 2^k + 1),
    # rows of one step, a short last block of one step, and no full block
    # when one block holds all the steps. With the default blocks (at most 4
    # steps here) the product and its level meet the one-shot bound of the
    # test above. Longer blocks take the rows through the stopped groups and
    # the finishing passes, but there the one-shot tree, which divides every
    # level, parts from the streamed one by more than that bound (4.8e-15 at
    # 64-step blocks on the corner drive, as with the product that allocated
    # every group's levels), so one group per row set is the reference: the
    # grouping must not move the product (measured bit-identical over 3,000
    # random draws).
    max_blocks, steps = blocks_steps
    bound = rounding_bound(p, p.period)
    (a, b), (size, la, lb) = tree_product(
        *step_factors(p, 0.0, p.period, steps), max_blocks=evolution._SCAN_BLOCKS
    )
    with mock.patch.object(evolution, "_SCAN_BLOCKS", max_blocks):
        want_level = evolution._scan_level(p, p.period, steps)
        want_u = propagate(p, p.period, steps)
    with mock.patch.multiple(evolution, _GROUP_STEPS=group_steps, _FINISH_STEPS=finish_steps):
        got_size, got_a, got_b = evolution._scan_level(p, p.period, steps)
        assert max_abs(propagate(p, p.period, steps) - pair_matrix(a, b)) <= bound
        assert got_size == size and got_a.shape == la.shape
        assert max(max_abs(got_a - la), max_abs(got_b - lb)) <= bound
        with mock.patch.object(evolution, "_SCAN_BLOCKS", max_blocks):
            got_size, got_a, got_b = evolution._scan_level(p, p.period, steps)
            got_u = propagate(p, p.period, steps)
    assert got_size == want_level[0] and got_a.shape == want_level[1].shape
    assert max(max_abs(got_a - want_level[1]), max_abs(got_b - want_level[2])) <= 1e-15
    assert max_abs(got_u - want_u) <= 1e-15


def test_propagate_never_holds_every_step_factor():
    # the one-shot product peaks at 76 MB at 10^6 steps (~76 B per step); the
    # streamed one holds one workspace of 2^15 steps, so its peak does not grow
    # with the step count: measured 1.402 MB at 10^6 and 1.378 MB at 10^7
    # steps, where the rows are 16x longer and their column exponential
    # (256 KiB) is offset by holding 16x fewer stopped rows at once. The bound
    # is the 10^6 peak plus 4%; a build of 32 rows of 1,024 steps that keeps
    # numpy's 263 KB of iterator buffers, all 976 stopped rows held for one
    # finishing pass, or a separate temporary exceed it. At 10^4 steps the
    # one group of 625 rows of 16 steps measured 375,384 B under the build
    # buffer, and 600,116 B with numpy's default one
    p = params_from_beta(HolonomicGate(0.423))
    peaks = []
    for steps in (10**4, 10**6, 10**7):
        tracemalloc.start()
        try:
            propagate(p, p.period, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4.5e5
    assert peaks[1] <= 1.46e6
    assert peaks[2] <= peaks[1] + 1e5


@pytest.mark.parametrize("size", [None, 4096], ids=["default", "set"])
def test_propagate_leaves_the_ufunc_buffer_size_as_it_found_it(size):
    # the factors are built under _BUILD_BUFFER, which must not leak out,
    # whatever size the caller had set
    p = params_from_beta(HolonomicGate(0.423))
    buffer = np.getbufsize() if size is None else np.setbufsize(size)
    try:
        want = np.getbufsize()
        for steps in (10**4, 10**6):
            propagate(p, p.period, steps)
            assert np.getbufsize() == want
    finally:
        np.setbufsize(buffer)


# --- exact propagator ----------------------------------------------------------------
# Bounds are set from measured maxima with a stated margin; eps = 2.2e-16.


def lr_spectral_form(p, t):
    """sum_pm exp(i alpha_pm(t)) |phi_pm(t)><phi_pm(0)| from the closed-form
    Lewis-Riesenfeld phases and invariant eigenvectors."""
    alpha = lr_phase(p, t)
    es0, es_t = eigensystem(p, 0.0), eigensystem(p, t)
    return np.exp(1j * alpha[0]) * np.outer(
        es_t.eigvec_plus, es0.eigvec_plus.conj()
    ) + np.exp(1j * alpha[1]) * np.outer(es_t.eigvec_minus, es0.eigvec_minus.conj())


def test_exact_propagator_matches_analytic_gate():
    # measured max 6.0e-16 over the 201 betas; bound ~3x that
    worst = max(
        max_abs(exact_propagator(params_from_beta(HolonomicGate(b)), 2 * math.pi)
                - analytic_gate(HolonomicGate(b)))
        for b in np.linspace(0.0, math.pi / 2, 201)
    )
    assert worst <= 2e-15


def test_exact_propagator_matches_lewis_riesenfeld_form_generic():
    # measured max 1.6e-15 at T and 1.4e-15 at random t on these 30 drives;
    # bound ~3x that
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_drive(rng)
        t = float(rng.uniform(0.0, 3.0 * p.period))
        for time in (p.period, t):
            assert max_abs(exact_propagator(p, time) - lr_spectral_form(p, time)) <= 5e-15


def test_exact_propagator_matches_lewis_riesenfeld_form_non_holonomic():
    # Omega = Delta = w carries a dynamical phase of -pi on the plus branch;
    # measured max 3.4e-16 over the grid (2.2e-16 at T)
    p = DriveParams(1.0, 1.0, 1.0)
    for t in np.linspace(0.0, 10.0, 41):
        assert max_abs(exact_propagator(p, t) - lr_spectral_form(p, t)) <= 1e-15


def test_exact_propagator_without_rabi_drive_is_free_precession():
    # Omega = 0 leaves H = Delta sz / 2; Delta = w is the lam = 0 case
    for detuning in (-0.7, 0.0, 1.0, 2.5):
        p = DriveParams(0.0, detuning, 1.0)
        for t in (0.3, 2 * math.pi, 17.0):
            expected = np.diag([np.exp(-0.5j * detuning * t), np.exp(0.5j * detuning * t)])
            assert max_abs(exact_propagator(p, t) - expected) <= 1e-15


def test_exact_propagator_shapes():
    p = DriveParams(1.0, 0.3, 1.0)
    assert exact_propagator(p, 0.5).shape == (2, 2)
    assert exact_propagator(p, np.linspace(0.0, 1.0, 7)).shape == (7, 2, 2)
    times = np.arange(6.0).reshape(2, 3)
    us = exact_propagator(p, times)
    assert us.shape == (2, 3, 2, 2)
    assert max_abs(us[1, 2] - exact_propagator(p, 5.0)) <= 1e-15


@pytest.mark.parametrize(
    "t, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (np.array([0.0, 1.0, math.nan]), "nan")],
    ids=["nan", "inf", "-inf", "array_with_nan"],
)
def test_exact_propagator_rejects_a_non_finite_time(t, shown):
    # nan came back as an all-NaN matrix, inf after numpy's RuntimeWarning
    # from cos, which the test configuration turns into an error
    p = DriveParams(1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"t must be finite, got {shown}")):
        exact_propagator(p, t)


def test_midpoint_propagation_converges_to_exact_at_second_order():
    # measured 1.85e-6, 1.85e-8, 1.86e-10 at 1k, 10k, 100k steps
    p = params_from_beta(HolonomicGate(0.423))
    exact = exact_propagator(p, p.period)
    errors = [max_abs(propagate(p, p.period, n) - exact) for n in (1_000, 10_000, 100_000)]
    assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.02)
    assert errors[1] / errors[2] == pytest.approx(100.0, rel=0.02)
    assert errors[2] <= 2e-10


@pytest.mark.parametrize(
    "p", [params_from_beta(HolonomicGate(0.6)), DriveParams(1.0, 1.0, 1.0)], ids=["beta0.6", "1,1,1"]
)
def test_propagate_samples_agrees_with_exact_on_its_grid(p):
    # propagate over [0, t_i] with `steps` steps per tenth of the period, at
    # the 10 nonzero t_i; measured 1.99e-8 (beta 0.6) and 5.17e-8 (1,1,1) at
    # 1000 steps per tenth, 4x that at 500: second order on every grid point
    times = np.linspace(0.0, p.period, 11)[1:]
    errors = []
    for steps in (500, 1000):
        us = np.array([propagate(p, t, i * steps) for i, t in enumerate(times, 1)])
        errors.append(max_abs(us - exact_propagator(p, times)))
    assert errors[1] <= 1e-7
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)


@given(
    omega_rabi=st.floats(0.0, 10.0),
    detuning=st.floats(-10.0, 10.0),
    omega_drive=st.floats(0.01, 10.0),
    t=st.floats(-100.0, 100.0),
)
@example(omega_rabi=0.0, detuning=1.0, omega_drive=1.0, t=2 * math.pi)  # lam = 0
def test_exact_propagator_is_su2_and_starts_at_identity(omega_rabi, detuning, omega_drive, t):
    # measured over 20,000 random draws: unitarity defect <= 6.7e-16 and
    # |det - 1| <= 7.8e-16; bound ~3x that
    p = DriveParams(omega_rabi, detuning, omega_drive)
    assert np.array_equal(exact_propagator(p, 0.0), I2)
    u = exact_propagator(p, t)
    assert max_abs(u.conj().T @ u - I2) <= 2e-15
    assert abs(np.linalg.det(u) - 1.0) <= 2e-15


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, so that -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def closed_form_reference(p: DriveParams, t) -> np.ndarray:
    """One drive's closed form written out on its own: lam from
    ``math.hypot``, nx and nz by float division, and every product in the
    library's operand order, on array operands as for many drives. These are
    the bits that the trajectory CSV prints."""
    t = np.asarray(t, dtype=float)[None]
    lam = math.hypot(p.omega_rabi, p.offset)
    nx, nz = (p.omega_rabi / lam, p.offset / lam) if lam > 0.0 else (0.0, 0.0)
    c, s = np.cos(0.5 * lam * t), np.sin(0.5 * lam * t)
    frame = np.exp(-0.5j * p.omega_drive * t)
    return pair_matrix(np.multiply(frame, c - 1j * s * nz), np.multiply(frame, -1j * s * nx))[0]


#: lam = 0: no Rabi field and the detuning on resonance, at any drive frequency.
lam_zero_drives = st.floats(1e-300, 1e150).map(lambda w: DriveParams(0.0, w, w))
times = st.floats(-100.0, 100.0) | hnp.arrays(
    float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), elements=st.floats(-100.0, 100.0)
)


@given(drives=st.lists(any_drive() | lam_zero_drives, min_size=1, max_size=5), t=times)
# math.hypot and np.hypot round this lam differently
@example(drives=[DriveParams(0.4896632363749396, -0.3140467952181687, 1.0)], t=1.0)
@example(drives=[params_from_beta(HolonomicGate(b)) for b in (0.0, 0.3, math.pi / 2)], t=np.ones(9))
def test_closed_form_rows_equal_each_drive_s_exact_propagator_bit_for_bit(drives, t):
    rows = pair_matrix(*evolution._closed_pairs(drives, t))
    assert rows.shape == (len(drives),) + np.shape(t) + (2, 2)
    for p, row in zip(drives, rows):
        assert same_bits(row, exact_propagator(p, t))
        assert same_bits(row, closed_form_reference(p, t))


def test_closed_form_bits_do_not_depend_on_how_many_times_are_asked_for():
    # numpy may run ``x * y`` on a temporary y of over 256 KiB (16,384 complex
    # numbers) in place as y * x, and the fused imaginary part of the complex
    # product is not commutative bit for bit; so 20,000 times and the same
    # times 100 at a time must give the same bits, alone and beside other drives
    gates = [params_from_beta(HolonomicGate(b)) for b in (0.3, 0.9, 1.4)]
    t = np.linspace(0.0, 2 * math.pi, 20_000)
    for p in gates:
        whole = exact_propagator(p, t)
        assert same_bits(whole, np.concatenate([exact_propagator(p, part) for part in np.split(t, 200)]))
    assert same_bits(pair_matrix(*evolution._closed_pairs(gates, t))[0], exact_propagator(gates[0], t))


# --- full_report -----------------------------------------------------------------


def test_full_report_holonomic_quarter():
    rep = full_report(params_from_beta(HolonomicGate(math.pi / 4)), 10_000)
    assert abs(rep.gamma_dynamical[0]) < 1e-8
    assert abs(rep.gamma_dynamical[1]) < 1e-8
    assert rep.alpha_numeric[0] == pytest.approx(math.pi * (1 - math.sqrt(2) / 2), abs=1e-6)
    assert rep.alpha_numeric[1] == pytest.approx(math.pi * (1 + math.sqrt(2) / 2), abs=1e-6)


def test_full_report_non_holonomic_dynamical_phase():
    # at Omega = Delta = w the plus integrand is exactly w/2, so gamma_d = -pi
    rep = full_report(DriveParams(1.0, 1.0, 1.0), 10_000)
    assert abs(rep.gamma_dynamical[0]) > 0.1
    assert rep.gamma_dynamical[0] == pytest.approx(-math.pi, rel=1e-10)


def test_full_report_transitionless():
    rep = full_report(params_from_beta(HolonomicGate(0.5)), 10_000)
    assert rep.transitionless_defect <= 1e-7


def test_full_report_phase_split_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rep = full_report(random_drive(rng), 2048)
        for k in (0, 1):
            assert rep.alpha_numeric[k] == rep.gamma_geometric[k] + rep.gamma_dynamical[k]


def test_full_report_alpha_matches_closed_form_generic():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = random_drive(rng)
        rep = full_report(p, 4096)
        expected = lr_phase(p, p.period)
        assert rep.alpha_numeric[0] == pytest.approx(expected[0], abs=1e-9)
        assert rep.alpha_numeric[1] == pytest.approx(expected[1], abs=1e-9)


def test_full_report_aa_correspondence():
    for beta in (0.2, 0.5, 1.0, 1.4):
        rep = full_report(params_from_beta(HolonomicGate(beta)), 10_000)
        expected = sorted(a % (2 * math.pi) for a in rep.alpha_numeric)
        observed = sorted(rep.aa_eigenphases)
        paired = max(
            circular_distance(x, y) for x, y in zip(observed, expected)
        )
        swapped = max(
            circular_distance(x, y) for x, y in zip(observed, expected[::-1])
        )
        assert min(paired, swapped) < 1e-6


def test_full_report_gauge_pinned_geometric_phase():
    # with the fixed eigenvector gauge the geometric phase is pi (1 -+ sin b)
    for beta in (0.3, 0.9):
        rep = full_report(params_from_beta(HolonomicGate(beta)), 10_000)
        assert rep.gamma_geometric[0] == pytest.approx(math.pi * (1 - math.sin(beta)), abs=1e-9)
        assert rep.gamma_geometric[1] == pytest.approx(math.pi * (1 + math.sin(beta)), abs=1e-9)


def test_full_report_dynamical_phase_vanishes_across_holonomy_sweep():
    w = 1.0
    for detuning in np.linspace(0.0, w, 21):
        p = DriveParams(math.sqrt(detuning * (w - detuning)), float(detuning), w)
        rep = full_report(p, 10_000)
        assert max(abs(g) for g in rep.gamma_dynamical) <= 1e-8


def test_full_report_degenerate_beta_zero():
    rep = full_report(params_from_beta(HolonomicGate(0.0)), 2048)
    assert max(abs(g) for g in rep.gamma_dynamical) <= 1e-12
    assert rep.alpha_numeric[0] == pytest.approx(math.pi, abs=1e-9)
    assert rep.alpha_numeric[1] == pytest.approx(math.pi, abs=1e-9)
    assert max_abs(rep.propagator + I2) < 1e-10


def test_full_report_rejects_too_few_steps():
    with pytest.raises(ValueError):
        full_report(DriveParams(1.0, 0.0, 1.0), 15)


def test_full_report_aborts_on_nonunitary_propagator(monkeypatch):
    monkeypatch.setattr(evolution, "propagate", lambda p, d, n: 1.5 * I2)
    with pytest.raises(ConsistencyError):
        full_report(DriveParams(1.0, 0.0, 1.0), 64)


def test_phase_quadrature_does_not_depend_on_steps():
    rng = np.random.default_rng(9)
    for p in (params_from_beta(HolonomicGate(0.423)), DriveParams(1.0, 1.0, 1.0), random_drive(rng)):
        coarse, fine = full_report(p, 16), full_report(p, 4096)
        assert coarse.gamma_geometric == fine.gamma_geometric
        assert coarse.gamma_dynamical == fine.gamma_dynamical
        assert coarse.max_integrand == fine.max_integrand
        assert np.array_equal(coarse.spectral, fine.spectral)


@given(
    p=st.builds(
        DriveParams,
        omega_rabi=st.floats(0.0, 10.0),
        detuning=st.floats(-10.0, 10.0),
        omega_drive=st.floats(0.01, 10.0),
    )
)
def test_alpha_numeric_matches_closed_form_to_rounding(p):
    # measured <= 2.9e-15 (1 + |alpha|) over 20,000 random drives of this range
    rep = full_report(p, 16)
    for got, want in zip(rep.alpha_numeric, lr_phase(p, p.period)):
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


def test_trajectory_dynamical_phase_is_within_its_bound_across_the_family():
    # max |gamma_traj| (steps / T)^2 measured 0.0589 (beta 0.68) at every step
    # count from 16 to 10^6: the integrator's O(dt^2) error
    for steps in (16, 1_000, 10_000):
        for beta in np.linspace(0.02, 1.55, 52):
            values, checks = verify_checks(params_from_beta(HolonomicGate(float(beta))), steps)
            gamma, bound = checks["trajectory_dynamical_phase"]
            assert gamma <= bound and values["max_integrand_trajectory"] <= bound


def test_trajectory_dynamical_phase_of_a_non_holonomic_drive():
    # Omega = Delta = w: the closed-form dynamical phases are -pi and +pi;
    # measured 1.0e-7 away at 10^4 steps
    p = DriveParams(1.0, 1.0, 1.0)
    rep = full_report(p, 10_000)
    for traj, closed in zip(rep.gamma_dynamical_trajectory, rep.gamma_dynamical):
        assert abs(closed) == pytest.approx(math.pi, abs=1e-12)
        assert traj == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize(
    "p, steps",
    [(params_from_beta(HolonomicGate(0.423)), 3001), (DriveParams(0.7, -0.4, 1.3), 64)],
    ids=["beta0.423-3001", "generic-64"],
)
def test_trajectory_phases_match_the_matrix_expectation_on_the_block_grid(p, steps):
    # <psi|H(t)|psi> from drive.hamiltonian on psi = U phi(0), U from the
    # closed-form midpoint product at every block boundary (3001 steps: 751
    # blocks of 4, the last of 1), then the trapezoid over those times
    rep = full_report(p, steps)
    dt = p.period / steps
    size = 1
    while -(-steps // size) > evolution._SCAN_BLOCKS:
        size *= 2
    ends = np.minimum(size * np.arange(-(-steps // size) + 1), steps)
    us = midpoint_product(p, ends, dt)
    es = eigensystem(p, 0.0)
    worst = 0.0
    for phi, traj in zip((es.eigvec_plus, es.eigvec_minus), rep.gamma_dynamical_trajectory):
        energy = []
        for n, u in zip(ends, us):
            psi = u @ phi
            energy.append(np.vdot(psi, hamiltonian(p, n * dt) @ psi).real)
        energy = np.array(energy)
        worst = max(worst, float(np.max(np.abs(energy))))
        assert traj == pytest.approx(-np.trapezoid(energy, ends * dt), abs=1e-13)
    assert rep.max_integrand_trajectory == pytest.approx(worst, abs=1e-14)


def test_trajectory_phases_without_a_field_are_zero():
    # Omega = Delta = 0: H vanishes, the states never move
    rep = full_report(DriveParams(0.0, 0.0, 1.0), 64)
    assert rep.gamma_dynamical_trajectory == (0.0, 0.0)
    assert rep.max_integrand_trajectory == 0.0


def test_verify_runs_the_phase_quadrature_once(monkeypatch, capsys):
    calls = []
    quadrature = evolution._phase_quadrature

    def counted(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(evolution, "_phase_quadrature", counted)
    assert main(["verify", "--beta", "0.423", "--steps", "64", "--machine"]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 1


# --- phase quadrature ---------------------------------------------------------------


@given(
    omega_rabi=st.floats(0.0, 2.0),
    detuning=st.floats(-1.0, 2.0),
    omega_drive=st.floats(0.5, 2.0),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@example(omega_rabi=1.0, detuning=1.0, omega_drive=1.0, fracs=[0.0, 0.3, 1.0])  # non-holonomic
@example(omega_rabi=0.0, detuning=1.0, omega_drive=1.0, fracs=[0.5])  # lam = 0
def test_node_integrands_match_expectations_from_the_matrices(
    omega_rabi, detuning, omega_drive, fracs
):
    # <phi|H(t)|phi> from drive.hamiltonian and eigensystem, and the geometric
    # integrand i<phi|dphi/dt> = w |<0|phi>|^2 of that eigenvector. Measured
    # over 100,000 nodes of 20,000 random drives: 6.7e-16 (dyn) and 8.9e-16
    # (geo); bound ~2x that.
    p = DriveParams(omega_rabi, detuning, omega_drive)
    ts = p.period * np.array(fracs)
    for (geo, dyn), branch in zip(evolution._node_integrands(p, ts), "+-"):
        for t, g, d in zip(ts, geo, dyn):
            es = eigensystem(p, t)
            vec = es.eigvec_plus if branch == "+" else es.eigvec_minus
            assert abs(d - dynamical_integrand(p, t, branch)) <= 2e-15
            assert abs(g - p.omega_drive * abs(vec[0]) ** 2) <= 2e-15


# --- spectral propagator -----------------------------------------------------------
# EvolutionReport.spectral does not depend on the step count
# (test_phase_quadrature_does_not_depend_on_steps), so 16 steps serve where
# the propagator is not compared.


def test_spectral_propagator_detuned_rabi_free():
    # constant H = sz / 2 over one period gives exactly exp(-i pi sz) = -I
    u = full_report(DriveParams(0.0, 1.0, 1.0), 16).spectral
    assert max_abs(u + I2) < 1e-10


def test_spectral_propagator_matches_analytic_gate():
    g = HolonomicGate(0.3)
    u = full_report(params_from_beta(g), 16).spectral
    assert max_abs(u - analytic_gate(g)) < 1e-6


def test_spectral_propagator_matches_direct_propagation():
    rep = full_report(params_from_beta(HolonomicGate(0.423)), 10_000)
    assert max_abs(rep.spectral - rep.propagator) < 1e-6


def test_spectral_propagator_generic_drive():
    rng = np.random.default_rng(7)
    for _ in range(3):
        rep = full_report(random_drive(rng), 8192)
        assert max_abs(rep.spectral - rep.propagator) < 1e-6


# --- invariant residual -------------------------------------------------------------


def test_invariant_residual_small_for_random_drives():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = random_drive(rng)
        t = float(rng.uniform(0, 10))
        assert invariant_residual(p, t) <= 1e-8


@given(p=any_drive(), frac=st.floats(0.0, 1.0))
# a subnormal field scaled by a large detuning, and the underflow corner where
# every product of two fields is below the smallest subnormal
@example(p=DriveParams(1e-316, 1e4), frac=0.3)
@example(p=DriveParams(1.220567575434965e-308, 3.2994460598941814e-06, 1.2639476737728071e-06), frac=0.6629033373682551)
def test_invariant_residual_is_within_its_rounding_model(p, frac):
    bound = INVARIANT_ROUNDING_COEFF * invariant_rounding(p)
    assert invariant_residual(p, frac * p.period) <= bound


def test_invariant_residual_vanishes_without_rabi_drive():
    # H and I are both static and diagonal, so each side is identically zero
    assert invariant_residual(DriveParams(0.0, 2.0, 1.0), 1.3) == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_invariant_residual_rejects_non_finite_arguments(t):
    # a non-finite t returned NaN silently or warned from exp
    with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
        invariant_residual(DriveParams(1.0, 0.0, 1.0), t)
