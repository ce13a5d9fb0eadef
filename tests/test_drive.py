import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hologate import (
    DriveParams,
    HolonomicGate,
    analytic_gate,
    eigensystem,
    exact_propagator,
    hamiltonian,
    holonomy_residual,
    invariant,
    lr_phase,
    max_abs,
    params_from_beta,
    propagate,
)
from hologate.drive import gate_pair

from conftest import EPS, any_drive, random_drive
from oracles import dynamical_integrand, pauli, su2_exp

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
SUBNORMAL = float(np.finfo(float).smallest_subnormal)


# --- parameter types ---------------------------------------------------------


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(omega_rabi=1.0, detuning=0.0, omega_drive=0.0)
    with pytest.raises(ValueError):
        DriveParams(omega_rabi=-0.1, detuning=0.0, omega_drive=1.0)
    assert DriveParams(1.0, 0.5, 2.0).period == pytest.approx(math.pi)


@pytest.mark.parametrize("field", ["omega_rabi", "detuning", "omega_drive"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_drive_params_rejects_non_finite_fields(field, value):
    kwargs = {"omega_rabi": 1.0, "detuning": 0.5, "omega_drive": 1.0}
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DriveParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"omega_rabi": 1e300, "detuning": 1.0}, "omega_rabi"),
        ({"omega_rabi": 1.0, "detuning": -1e200}, "detuning"),
        ({"omega_rabi": 1.0, "detuning": 1.0, "omega_drive": 1e160}, "omega_drive"),
        ({"omega_rabi": 1e154, "detuning": 1e153}, "omega_rabi"),  # only the sum overflows
    ],
)
def test_drive_params_rejects_overflowing_magnitudes(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} is too large"):
        DriveParams(**kwargs)
    # the largest accepted scale stays usable
    DriveParams(6e153, 1.0, 1.0)


@pytest.mark.parametrize("beta", [-0.1, 2.0, math.pi])
def test_holonomic_gate_rejects_out_of_range_beta(beta):
    with pytest.raises(ValueError):
        HolonomicGate(beta)


@pytest.mark.parametrize("omega_drive", [0.0, -1.0, math.nan])
def test_holonomic_gate_rejects_a_non_positive_drive_frequency(omega_drive):
    with pytest.raises(ValueError, match="omega_drive must be > 0"):
        HolonomicGate(0.3, omega_drive)


# --- hamiltonian and invariant ------------------------------------------------


def test_hamiltonian_detuning_only():
    p = DriveParams(0.0, 1.0, 1.0)
    assert max_abs(hamiltonian(p, 0.0) - 0.5 * SZ) == 0.0


def test_hamiltonian_rabi_only_at_t0():
    p = DriveParams(1.0, 0.0, 1.0)
    assert max_abs(hamiltonian(p, 0.0) - 0.5 * SX) == 0.0


def test_hamiltonian_quarter_period():
    p = DriveParams(1.0, 1.0, 1.0)
    assert max_abs(hamiltonian(p, math.pi / 2) - 0.5 * (SY + SZ)) < 1e-15


def test_invariant_zero_frame_shift():
    p = DriveParams(1.0, 1.0, 1.0)
    assert max_abs(invariant(p, 0.0) - SX) == 0.0


def test_invariant_rabi_free():
    p = DriveParams(0.0, 2.0, 1.0)
    for t in (0.0, 0.4, 5.0):
        assert max_abs(invariant(p, t) - SZ) == 0.0


def test_invariant_at_zero_detuning():
    p = DriveParams(1.0, 0.0, 1.0)
    assert max_abs(invariant(p, 0.0) - (SX - SZ)) == 0.0


def test_hamiltonian_and_invariant_hermitian_traceless():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_drive(rng)
        t = float(rng.uniform(0, 10))
        for m in (hamiltonian(p, t), invariant(p, t)):
            assert max_abs(m - m.conj().T) < 1e-15
            assert abs(np.trace(m)) < 1e-15


# --- eigensystem ---------------------------------------------------------------


def test_eigensystem_symmetric_point():
    # Delta = w makes xi_+ = 1, so the plus eigenvector is (1, 1)/sqrt(2)
    p = DriveParams(1.0, 1.0, 1.0)
    es = eigensystem(p, 0.0)
    assert es.lam == pytest.approx(1.0, abs=1e-15)
    assert max_abs(es.eigvec_plus - np.array([1, 1]) / np.sqrt(2)) < 1e-15
    assert max_abs(invariant(p, 0.0) @ es.eigvec_plus - es.lam * es.eigvec_plus) < 1e-12
    # theta_+ = pi/4 and theta_- = 3 pi/4: at t = 0 the entries are (cos, sin)
    r = math.sqrt(0.5)
    assert es.eigvec_plus.tolist() == pytest.approx([r, r], abs=1e-15)
    assert es.eigvec_minus.tolist() == pytest.approx([-r, r], abs=1e-15)


def test_eigensystem_rabi_free_is_axis_basis():
    p = DriveParams(0.0, 2.0, 1.0)
    es = eigensystem(p, 0.0)
    assert es.lam == pytest.approx(1.0)
    assert max_abs(es.eigvec_plus - np.array([1.0, 0.0])) == 0.0
    assert max_abs(es.eigvec_minus - np.array([0.0, 1.0])) == 0.0
    # below resonance the axis flips; cos(theta_-) = -1 is the gauge's sign
    below = eigensystem(DriveParams(0.0, 0.3, 1.0), 0.0)
    assert below.lam == pytest.approx(0.7)
    assert max_abs(below.eigvec_plus - np.array([0.0, 1.0])) == 0.0
    assert max_abs(below.eigvec_minus - np.array([-1.0, 0.0])) == 0.0
    # away from t = 0 the upper component carries the gauge phase
    es_t = eigensystem(p, 0.7)
    assert max_abs(es_t.eigvec_plus - np.array([np.exp(-0.7j), 0.0])) < 1e-15


def test_eigensystem_eigenvalue_magnitude():
    es = eigensystem(DriveParams(3.0, 0.0, 5.0), 1.3)
    assert es.lam == pytest.approx(math.sqrt(34.0), rel=1e-15)


def test_eigensystem_satisfies_eigen_equation():
    rng = np.random.default_rng(1)
    drives = [random_drive(rng) for _ in range(30)]
    drives += [DriveParams(0.0, 2.0, 1.0), DriveParams(0.0, 0.3, 1.0), DriveParams(0.0, 1.0, 1.0)]
    # Omega down to 1e-9 on either side of resonance, and the holonomic
    # family near beta = pi/2: there (Delta - w) +- lam cancels, and only the
    # cancellation-free quotient of each branch keeps the residual at rounding
    for _ in range(200):
        w = float(rng.uniform(0.5, 2.0))
        side = float(rng.choice((-1.0, 1.0)))
        omega_rabi = float(10 ** rng.uniform(-9.0, math.log10(2.0)))
        drives.append(DriveParams(omega_rabi, w + side * float(rng.uniform(0.0, 2.0)), w))
    drives += [params_from_beta(HolonomicGate(math.pi / 2 - d)) for d in (1e-4, 1e-6, 1e-8)]
    for p in drives:
        t = float(rng.uniform(0, 10))
        es = eigensystem(p, t)
        inv = invariant(p, t)
        # the worst of 20,000 such drives reads 1.8 eps lam
        bound = 8 * EPS * es.lam
        assert max_abs(inv @ es.eigvec_plus - es.lam * es.eigvec_plus) <= bound
        assert max_abs(inv @ es.eigvec_minus + es.lam * es.eigvec_minus) <= bound
        assert abs(np.vdot(es.eigvec_plus, es.eigvec_minus)) < 1e-12
        assert abs(np.linalg.norm(es.eigvec_plus) - 1.0) < 1e-12
        assert abs(np.linalg.norm(es.eigvec_minus) - 1.0) < 1e-12
        # the gauge: sin(theta) >= 0 is the real lower entry
        for v in (es.eigvec_plus, es.eigvec_minus):
            assert v[1].imag == 0.0 and v[1].real >= 0.0


@given(p=any_drive(), t=st.floats(0.0, 10.0))
@example(p=DriveParams(1.17e-182, -3.55e145, 1.08e-203), t=0.0)  # (Delta - w - lam) / Omega overflows
@example(p=DriveParams(1e-13, 0.5, 1.0), t=0.0)  # the Omega -> 0 limit is off by ~Omega / lam
@example(p=DriveParams(5e-324, 1.0, 1.0), t=0.0)  # lam subnormal: t = Omega / Omega = 1
def test_eigensystem_is_an_orthonormal_eigenbasis_over_the_whole_domain(p, t):
    es = eigensystem(p, t)
    inv = invariant(p, t)
    assert np.all(np.isfinite(es.eigvec_plus)) and np.all(np.isfinite(es.eigvec_minus))
    for v in (es.eigvec_plus, es.eigvec_minus):  # the gauge: sin(theta) >= 0
        assert v[1].imag == 0.0 and v[1].real >= 0.0
    assert abs(np.linalg.norm(es.eigvec_plus) - 1.0) <= 4 * EPS
    assert abs(np.linalg.norm(es.eigvec_minus) - 1.0) <= 4 * EPS
    assert abs(np.vdot(es.eigvec_plus, es.eigvec_minus)) <= 4 * EPS
    # the worst of 40,000 draws exceeds 8 eps lam by one subnormal, where
    # lam itself is subnormal and the products round on the subnormal grid
    bound = 8 * EPS * es.lam + 4 * SUBNORMAL
    assert max_abs(inv @ es.eigvec_plus - es.lam * es.eigvec_plus) <= bound
    assert max_abs(inv @ es.eigvec_minus + es.lam * es.eigvec_minus) <= bound


def test_eigensystem_periodicity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_drive(rng)
        t = float(rng.uniform(0, 5))
        a, b = eigensystem(p, t), eigensystem(p, t + p.period)
        assert max_abs(a.eigvec_plus - b.eigvec_plus) < 1e-12
        assert max_abs(a.eigvec_minus - b.eigvec_minus) < 1e-12
        assert max_abs(hamiltonian(p, t) - hamiltonian(p, t + p.period)) < 1e-12
        assert max_abs(invariant(p, t) - invariant(p, t + p.period)) < 1e-12


# --- phases --------------------------------------------------------------------


def test_lr_phase_vanishes_at_t0():
    assert lr_phase(DriveParams(1.3, 0.4, 1.1), 0.0) == (0.0, 0.0)


def test_lr_phase_resonant_corner():
    # Omega = Delta = 0 gives lam = w, so the plus phase cancels exactly
    p = DriveParams(0.0, 0.0, 1.0)
    a_plus, a_minus = lr_phase(p, 2 * math.pi)
    assert a_plus == pytest.approx(0.0, abs=1e-15)
    assert a_minus == pytest.approx(2 * math.pi, rel=1e-15)


def test_lr_phase_holonomic_beta_pi_over_6():
    p = params_from_beta(HolonomicGate(math.pi / 6))
    # brute-force lam from the drive triple itself
    lam = math.hypot(p.omega_rabi, p.detuning - p.omega_drive)
    assert lam == pytest.approx(math.sin(math.pi / 6), rel=1e-15)
    a_plus, a_minus = lr_phase(p, 2 * math.pi)
    assert a_plus == pytest.approx(math.pi / 2, rel=1e-12)
    assert a_minus == pytest.approx(3 * math.pi / 2, rel=1e-12)


# --- holonomy constraint ---------------------------------------------------------


@pytest.mark.parametrize(
    "params,expected",
    [
        (DriveParams(0.0, 1.0, 1.0), 0.0),
        (DriveParams(0.5, 0.5, 1.0), 0.0),
        (DriveParams(1.0, 1.0, 1.0), 1.0),
    ],
)
def test_holonomy_residual_values(params, expected):
    assert holonomy_residual(params) == pytest.approx(expected, abs=1e-15)


def test_params_from_beta_endpoints():
    p0 = params_from_beta(HolonomicGate(0.0))
    assert (p0.omega_rabi, p0.detuning) == (0.0, 1.0)
    p1 = params_from_beta(HolonomicGate(math.pi / 2))
    assert abs(p1.omega_rabi) < 1e-15 and abs(p1.detuning) < 1e-15


def test_params_from_beta_quarter():
    p = params_from_beta(HolonomicGate(math.pi / 4))
    assert p.omega_rabi == pytest.approx(0.5, rel=1e-15)
    assert p.detuning == pytest.approx(0.5, rel=1e-15)
    assert abs(holonomy_residual(p)) <= 1e-12


def test_params_from_beta_residual_and_lambda_across_range():
    for beta in np.linspace(0.0, math.pi / 2, 100):
        for w in (1.0, 2.5):
            p = params_from_beta(HolonomicGate(float(beta), w))
            assert abs(holonomy_residual(p)) <= 1e-12 * w**2
            lam = math.hypot(p.omega_rabi, p.detuning - w)
            assert abs(lam - w * math.sin(beta)) <= 1e-12


def test_params_from_beta_is_holonomic_to_rounding():
    # Omega^2 + Delta (Delta - w) cancels two terms of size Omega^2; with the
    # offset stored as -w sin^2(beta) the residual measured <= 0.90 of this
    # bound (at beta = 1e-6, Delta - w read from Delta left -8.9e-17)
    small = np.logspace(-14, -3, 45)
    for beta in (*np.linspace(0.0, math.pi / 2, 801), *small, *(math.pi / 2 - small)):
        p = params_from_beta(HolonomicGate(float(beta)))
        scale = p.omega_rabi**2 + abs(p.detuning * p.offset)
        assert abs(holonomy_residual(p)) <= 2.0 * EPS * scale


def test_offset_is_the_rotating_frame_detuning_and_takes_no_part_in_equality():
    assert DriveParams(0.3, 0.7, 2.0).offset == 0.7 - 2.0
    p = params_from_beta(HolonomicGate(1e-6))
    assert p.offset == -(math.sin(1e-6) ** 2)
    # Delta - w reads -1.000089e-12 here, yet the two triples are one drive
    same = DriveParams(p.omega_rabi, p.detuning, 1.0)
    assert same.offset != p.offset
    assert same == p and hash(same) == hash(p) and repr(same) == repr(p)


def test_closed_forms_read_the_stored_offset_not_detuning_minus_drive():
    # Store an offset apart from Delta - w, as params_from_beta does: every
    # closed form in the rotating frame must then follow the stored offset,
    # as if the detuning were w + offset. At small beta the two readings
    # part by ~eps only, which no verdict sees.
    p = DriveParams(0.7, -0.3, 1.3)
    object.__setattr__(p, "offset", 0.25)
    same = DriveParams(0.7, 1.3 + 0.25, 1.3)
    assert abs(same.offset - 0.25) <= 1e-15 and abs(p.offset - (p.detuning - p.omega_drive)) > 1.0
    times = np.linspace(-2.0, 7.0, 11)
    for t in times:
        assert max_abs(invariant(p, t) - invariant(same, t)) <= 1e-15
        assert max(abs(x - y) for x, y in zip(lr_phase(p, t), lr_phase(same, t))) <= 1e-15
    assert max_abs(exact_propagator(p, times) - exact_propagator(same, times)) <= 1e-15


def test_holonomic_family_is_never_adiabatic():
    # strictly interior beta keeps Omega^2 = Delta (w - Delta) > 0
    for beta in np.linspace(0.01, math.pi / 2 - 0.01, 50):
        p = params_from_beta(HolonomicGate(float(beta)))
        assert p.omega_rabi**2 > 0.0
        assert p.omega_rabi**2 == pytest.approx(
            p.detuning * (p.omega_drive - p.detuning), abs=1e-15
        )


# --- analytic gate ---------------------------------------------------------------


def test_analytic_gate_endpoints():
    assert max_abs(analytic_gate(HolonomicGate(0.0)) + np.eye(2)) == 0.0
    assert max_abs(analytic_gate(HolonomicGate(math.pi / 2)) - np.eye(2)) < 1e-15


def test_analytic_gate_quarter_closed_form():
    angle = math.pi / math.sqrt(2)
    expected = -(
        math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * (-SX + SZ) / math.sqrt(2)
    )
    assert max_abs(analytic_gate(HolonomicGate(math.pi / 4)) - expected) < 1e-15


def test_analytic_gate_matches_propagation():
    g = HolonomicGate(math.pi / 4)
    u = propagate(params_from_beta(g), 2 * math.pi, 10_000)
    assert max_abs(u - analytic_gate(g)) < 1e-7


def test_analytic_gate_spectral_reconstruction():
    # sum of exp(i alpha_pm(T)) projectors onto the t = 0 eigenvectors
    for beta in np.linspace(0.0, math.pi / 2, 25):
        g = HolonomicGate(float(beta))
        p = params_from_beta(g)
        es = eigensystem(p, 0.0)
        a_plus, a_minus = lr_phase(p, p.period)
        rebuilt = np.exp(1j * a_plus) * np.outer(es.eigvec_plus, es.eigvec_plus.conj())
        rebuilt += np.exp(1j * a_minus) * np.outer(es.eigvec_minus, es.eigvec_minus.conj())
        assert max_abs(analytic_gate(g) - rebuilt) < 1e-10


def test_analytic_gate_eigenphases():
    for beta in np.linspace(0.0, math.pi / 2, 25):
        vals = np.linalg.eigvals(analytic_gate(HolonomicGate(float(beta))))
        expected = np.exp(1j * np.pi * (1.0 - np.sin(beta))), np.exp(
            1j * np.pi * (1.0 + np.sin(beta))
        )
        pairings = (
            max(abs(vals[0] - expected[0]), abs(vals[1] - expected[1])),
            max(abs(vals[0] - expected[1]), abs(vals[1] - expected[0])),
        )
        assert min(pairings) < 1e-10


@given(st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=40))
@example([0.0])
@example([math.pi / 2])
@example([0.0, math.pi / 2] * 9)
def test_gate_pair_of_an_array_is_gate_pair_of_each_beta_bit_for_bit(betas):
    # the search evaluates U(beta) on arrays and analytic_gate on one beta:
    # both must be the one closed form, to the bit and the sign of zero
    together = gate_pair(np.array(betas))
    one_by_one = np.stack([gate_pair(b) for b in betas], axis=-1)
    assert together.shape == one_by_one.shape == (4, len(betas))
    assert together.tobytes() == one_by_one.tobytes()


def test_analytic_gate_is_the_pauli_exponential_to_2_eps():
    # the textbook form normalizes the axis (-cos beta, 0, sin beta), whose
    # computed norm is not 1 for some beta, so the two forms differ in bits:
    # at 464 of these 2,001 beta, by at most 0.5 eps
    worst = 0.0
    for beta in np.linspace(0.0, math.pi / 2, 2001):
        s, c = math.sin(beta), math.cos(beta)
        reference = -su2_exp(math.pi * s, (-c, 0.0, s))
        worst = max(worst, max_abs(analytic_gate(HolonomicGate(float(beta))) - reference))
    assert worst <= 2 * EPS


# --- dynamical integrand ----------------------------------------------------------


def test_dynamical_integrand_vanishes_on_holonomic_family():
    p = params_from_beta(HolonomicGate(math.pi / 4))
    for t in np.linspace(0.0, 2 * math.pi, 50):
        assert abs(dynamical_integrand(p, float(t), "+")) <= 1e-12
        assert abs(dynamical_integrand(p, float(t), "-")) <= 1e-12


def test_dynamical_integrand_rabi_free_plus_branch():
    # plus eigenvector is |0>, so the expectation is Delta / 2
    assert dynamical_integrand(DriveParams(0.0, 2.0, 1.0), 0.3, "+") == pytest.approx(1.0)


def test_dynamical_integrand_first_published_not_pulse():
    p = params_from_beta(HolonomicGate(0.423))
    for t in np.linspace(0.0, 2 * math.pi, 100):
        for branch in "+-":
            assert abs(dynamical_integrand(p, float(t), branch)) <= 1e-12


def test_dynamical_integrand_rejects_bad_branch():
    with pytest.raises(ValueError):
        dynamical_integrand(DriveParams(1.0, 0.0, 1.0), 0.0, "plus")
