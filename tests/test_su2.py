import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hologate import bloch_of, bloch_vectors, fidelity, is_unitary, max_abs, pauli, su2_exp

from conftest import random_unitary

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
    point = bloch_of(np.array(state, dtype=complex))
    assert np.allclose(point, expected, atol=1e-15)


def test_bloch_of_rejects_unnormalized():
    with pytest.raises(ValueError):
        bloch_of(np.array([1.0, 1.0]))


def test_bloch_vectors_agrees_with_bloch_of_and_pauli_expectations():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    points = bloch_vectors(states)
    assert points.shape == (4, 3, 3)
    assert np.array_equal(points, [[bloch_of(s) for s in row] for row in states])
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


@given(seed=st.integers(0, 2**31))
def test_bloch_stays_on_sphere_under_unitaries(seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = state / np.linalg.norm(state)
    point = bloch_of(random_unitary(rng) @ state)
    assert abs(point.x**2 + point.y**2 + point.z**2 - 1.0) < 1e-10
