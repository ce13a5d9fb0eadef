import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hologate import (
    PulseSequence,
    bloch_vectors,
    compose,
    fidelity,
    is_unitary,
    max_abs,
    pauli,
    su2_exp,
)
from hologate.evolution import _closed_pairs
from hologate.su2 import pair_bloch, pair_matrix, pair_mul, pair_of
from hologate.synthesis import _fold, _jacobian

from conftest import any_drive, random_unitary

I2 = np.eye(2, dtype=complex)

angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
components = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize(
    "axis,expected",
    [
        ("x", np.array([[0, 1], [1, 0]])),
        ("y", np.array([[0, -1j], [1j, 0]])),
        ("z", np.array([[1, 0], [0, -1]])),
    ],
)
def test_pauli_matrices(axis, expected):
    p = pauli(axis)
    assert np.array_equal(p, expected)
    assert np.trace(p) == 0
    assert np.array_equal(p, p.conj().T)
    assert np.allclose(p @ p, I2)


def test_pauli_rejects_bad_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_su2_exp_zero_angle_is_identity():
    assert max_abs(su2_exp(0.0, (0.3, -0.2, 0.9)) - I2) == 0.0


def test_su2_exp_half_turn_about_z():
    assert max_abs(su2_exp(np.pi, (0, 0, 1)) + I2) < 1e-15


def test_su2_exp_quarter_turn_about_x():
    assert max_abs(su2_exp(np.pi / 2, (1, 0, 0)) - 1j * pauli("x")) < 1e-15


def test_su2_exp_rejects_zero_axis():
    with pytest.raises(ValueError):
        su2_exp(1.0, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("axis", [(0.0, 1.0), (1.0, 0.0, 0.0, 0.0), [[0.0, 0.0, 1.0]]], ids=["2", "4", "1x3"])
def test_su2_exp_rejects_an_axis_that_is_not_a_3_vector(axis):
    with pytest.raises(ValueError, match="axis must be a real 3-vector"):
        su2_exp(1.0, axis)


@pytest.mark.parametrize("u", [np.eye(3), np.eye(1), np.eye(2)[None], np.ones(2)], ids=["3x3", "1x1", "1x2x2", "2"])
def test_is_unitary_is_false_for_a_matrix_that_is_not_2x2(u):
    assert is_unitary(u) is False


@given(angle=angles, nx=components, ny=components, nz=components)
def test_su2_exp_inverse_and_spectrum(angle, nx, ny, nz):
    axis = np.array([nx, ny, nz])
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    u = su2_exp(angle, axis)
    assert max_abs(u @ su2_exp(-angle, axis) - I2) < 1e-12
    # eigenvalues exp(+-i angle), checked through trace and determinant
    assert abs(np.trace(u) - 2 * np.cos(angle)) < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    assert is_unitary(u)


def test_fidelity_of_gate_with_itself():
    rng = np.random.default_rng(5)
    u = random_unitary(rng)
    rep = fidelity(u, u)
    assert rep.magnitude == pytest.approx(1.0, abs=1e-12)
    assert rep.phase_sensitive == pytest.approx(1.0, abs=1e-12)
    assert rep.relative_phase == pytest.approx(0.0, abs=1e-12)


def test_fidelity_identity_vs_pauli_x_vanishes():
    rep = fidelity(I2, pauli("x"))
    assert rep.magnitude == 0.0
    assert rep.phase_sensitive == 0.0


def test_fidelity_of_published_not_sequence():
    # the published 3-decimal pulse values reproduce the claimed fidelity up
    # to their own rounding, which moves the infidelity to the 1e-6 scale
    from hologate import HolonomicGate, analytic_gate, standard_target

    u = I2
    for beta in (0.423, 0.680, 0.236, 0.222):
        u = analytic_gate(HolonomicGate(beta)) @ u
    rep = fidelity(u, standard_target("NOT").matrix)
    assert rep.magnitude == pytest.approx(0.99999999990, abs=1e-5)
    assert rep.magnitude >= 1.0 - 1e-5


@given(phase=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2**31))
def test_fidelity_magnitude_ignores_global_phase(phase, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng), random_unitary(rng)
    base = fidelity(u, v)
    shifted = fidelity(np.exp(1j * phase) * u, v)
    assert abs(shifted.magnitude - base.magnitude) < 1e-12
    assert base.magnitude >= abs(base.phase_sensitive)
    assert base.magnitude <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "state,expected",
    [
        ((1, 0), (0, 0, 1)),
        ((0, 1), (0, 0, -1)),
        ((1 / np.sqrt(2), 1 / np.sqrt(2)), (1, 0, 0)),
    ],
)
def test_bloch_of_named_states(state, expected):
    point = bloch_vectors(np.array(state, dtype=complex))
    assert np.allclose(point, expected, atol=1e-15)


def test_bloch_of_rejects_unnormalized():
    with pytest.raises(ValueError):
        bloch_vectors(np.array([1.0, 1.0]))


def test_bloch_vectors_agrees_with_bloch_of_and_pauli_expectations():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    points = bloch_vectors(states)
    assert points.shape == (4, 3, 3)
    # a stack maps state by state, as one state at a time does
    assert np.array_equal(points, [[bloch_vectors(s) for s in row] for row in states])
    expectations = [
        np.einsum("...i,ij,...j->...", states.conj(), pauli(axis), states).real
        for axis in "xyz"
    ]
    assert max_abs(points - np.stack(expectations, axis=-1)) < 1e-15


def test_bloch_vectors_rejects_unnormalized_batch():
    states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-4]], dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        bloch_vectors(states)
    with pytest.raises(ValueError):
        bloch_vectors(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "state", [[np.nan, 0.0], [np.inf, 0.0], [1e200, 0.0]], ids=["nan", "inf", "overflow"]
)
def test_bloch_vectors_rejects_a_non_finite_or_overflowing_state(state):
    # |up|^2 of 1e200 overflows to inf; it fails the normalization check with
    # the other non-finite norms instead of warning first
    with pytest.raises(ValueError, match="normalized"):
        bloch_vectors(np.array([[1.0, 0.0], state], dtype=complex))


@given(seed=st.integers(0, 2**31))
def test_bloch_stays_on_sphere_under_unitaries(seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = state / np.linalg.norm(state)
    x, y, z = bloch_vectors(random_unitary(rng) @ state)
    assert abs(x**2 + y**2 + z**2 - 1.0) < 1e-10


# --- Cayley-Klein pairs ----------------------------------------------------------


def random_pairs(rng: np.random.Generator, n: int):
    """n unit pairs (a, b), uniform on the 3-sphere."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]


def distance_up_to_sign(p, q) -> float:
    """Max-norm distance between the pairs p and q or -q, whichever is nearer."""
    p, q = np.stack(p, axis=-1), np.stack(q, axis=-1)
    return min(max_abs(p - q), max_abs(p + q))


@given(seed=st.integers(0, 2**31), n=st.integers(1, 64))
def test_pair_mul_is_the_matrix_product(seed, n):
    # measured <= 2.5e-16 over 200,000 random unit pairs
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = random_pairs(rng, n), random_pairs(rng, n)
    product = pair_matrix(*pair_mul(a1, b1, a2, b2))
    assert max_abs(product - pair_matrix(a1, b1) @ pair_matrix(a2, b2)) <= 1e-15
    # written into given arrays, the pair is the same to the bit
    out = np.empty(n, complex), np.empty(n, complex)
    written = pair_mul(a1, b1, a2, b2, out=out)
    assert written[0] is out[0] and written[1] is out[1]
    assert np.array_equal(pair_matrix(*out), product)


def test_pair_mul_rounds_a_long_call_as_short_ones():
    # with the * operator, numpy computes b1 * b2.conj() in the temporary
    # conjugate, operands swapped, from 16,384 pairs (256 KiB) on: where
    # complex multiply uses FMA, 3,874 of these 20,000 a and 3,712 b entries
    # then differed from those of the short calls
    rng = np.random.default_rng(7)
    (a1, b1), (a2, b2) = random_pairs(rng, 20_000), random_pairs(rng, 20_000)
    long = np.stack(pair_mul(a1, b1, a2, b2))
    short = np.concatenate(
        [
            np.stack(pair_mul(a1[k : k + 100], b1[k : k + 100], a2[k : k + 100], b2[k : k + 100]))
            for k in range(0, 20_000, 100)
        ],
        axis=1,
    )
    assert np.array_equal(long.view(np.uint64), short.view(np.uint64))


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@given(p=any_drive(), n=st.integers(1, 64), end=st.floats(0.0, 100.0))
@settings(max_examples=40)
def test_pair_bloch_is_bloch_vectors_of_the_columns_bit_for_bit(p, n, end):
    # the closed-form pairs of a drive from the whole valid domain, in a short
    # call and in one of 20,000 pairs: from 16,384 pairs (256 KiB) on, numpy
    # may run ``*`` on a temporary in place with the operands swapped
    long = _closed_pairs([p], np.linspace(0.0, end, 20_000))
    for a, b in (_closed_pairs([p], np.linspace(0.0, end, n)), long):
        points = pair_bloch(a, b)
        columns = np.swapaxes(pair_matrix(a, b), -1, -2)
        assert np.array_equal(bits(points), bits(bloch_vectors(columns)))
        # the shortcut of the trajectory writer: |x_1| and |z_1| are |x_0| and |z_0|
        magnitudes = bits(np.abs(points))
        assert np.array_equal(magnitudes[..., 1, 0], magnitudes[..., 0, 0])
        assert np.array_equal(magnitudes[..., 1, 2], magnitudes[..., 0, 2])
    # a long call rounds as short ones
    assert np.array_equal(bits(pair_bloch(*long)[:, :100]), bits(pair_bloch(*(x[:, :100] for x in long))))


@given(seed=st.integers(0, 2**31), n=st.integers(1, 64))
def test_pair_of_inverts_pair_matrix_up_to_sign(seed, n):
    # measured <= 4.5e-16 over 200,000 random unit pairs
    a, b = random_pairs(np.random.default_rng(seed), n)
    for k in range(n):
        assert distance_up_to_sign(pair_of(pair_matrix(a[k], b[k])), (a[k], b[k])) <= 1e-15


@given(seed=st.integers(0, 2**31))
def test_pair_of_a_u2_matrix_is_its_su2_part(seed):
    # det m != 1: the pair is that of m / sqrt(det m); measured <= 7.2e-16
    m = random_unitary(np.random.default_rng(seed))
    assume(abs(np.linalg.det(m) - 1.0) > 1e-6)
    su2 = m / np.sqrt(np.linalg.det(m))
    assert max_abs(pair_matrix(*pair_of(m)) - su2) <= 2e-15


@given(seed=st.integers(0, 2**31), n=st.integers(1, 8))
def test_search_pair_is_the_composed_gate(seed, n):
    # the search's pair product against the independent 2x2 product, with
    # coordinates beyond both bounds; measured <= 7.1e-16 over 40,000
    # sequences of 1-8 pulses, where the 1e-12 infidelity check allows ~1e-6
    x = np.random.default_rng(seed).uniform(-0.1, np.pi / 2 + 0.1, (n, 1))
    q = _jacobian(x)[0][:, 0]
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    reference = pair_of(compose(PulseSequence(tuple(_fold(x)[0][:, 0]))))
    assert distance_up_to_sign((a, b), reference) <= 2e-15
