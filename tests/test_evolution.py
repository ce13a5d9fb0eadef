import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hologate.evolution as evolution
from hologate import (
    ConsistencyError,
    DriveParams,
    HolonomicGate,
    analytic_gate,
    eigensystem,
    exact_propagator,
    full_report,
    invariant_residual,
    lr_phase,
    max_abs,
    params_from_beta,
    propagate,
    propagate_samples,
    spectral_propagator,
)

from conftest import random_drive

I2 = np.eye(2, dtype=complex)


def circular_distance(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


# --- propagate -----------------------------------------------------------------


def test_propagate_zero_duration_is_identity():
    assert max_abs(propagate(DriveParams(1.0, 0.3, 1.0), 0.0, 50) - I2) == 0.0


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


def test_propagate_samples_endpoint_and_grid():
    p = params_from_beta(HolonomicGate(0.6))
    times, us = propagate_samples(p, p.period, 11, 100)
    assert times[0] == 0.0 and times[-1] == pytest.approx(p.period)
    assert max_abs(us[0] - I2) == 0.0
    assert max_abs(us[-1] - propagate(p, p.period, 1000)) < 1e-10
    with pytest.raises(ValueError):
        propagate_samples(p, p.period, 1, 100)


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
    # measured 2.0e-8 (beta 0.6) and 5.2e-8 (1,1,1) at 1000 steps per segment,
    # 4x that at 500: second order on every grid point
    errors = []
    for steps in (500, 1000):
        times, us = propagate_samples(p, p.period, 11, steps)
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


# --- spectral propagator -----------------------------------------------------------


def test_spectral_propagator_detuned_rabi_free():
    # constant H = sz / 2 over one period gives exactly exp(-i pi sz) = -I
    u = spectral_propagator(DriveParams(0.0, 1.0, 1.0), 4096)
    assert max_abs(u + I2) < 1e-10


def test_spectral_propagator_matches_analytic_gate():
    g = HolonomicGate(0.3)
    u = spectral_propagator(params_from_beta(g), 10_000)
    assert max_abs(u - analytic_gate(g)) < 1e-6


def test_spectral_propagator_matches_direct_propagation():
    p = params_from_beta(HolonomicGate(0.423))
    assert max_abs(spectral_propagator(p, 10_000) - propagate(p, p.period, 10_000)) < 1e-6


def test_spectral_propagator_generic_drive():
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = random_drive(rng)
        assert max_abs(spectral_propagator(p, 8192) - propagate(p, p.period, 8192)) < 1e-6


# --- invariant residual -------------------------------------------------------------


def test_invariant_residual_small_for_random_drives():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = random_drive(rng)
        t = float(rng.uniform(0, 10))
        assert invariant_residual(p, t, 1e-5) <= 1e-8


def test_invariant_residual_second_order_in_h():
    p = DriveParams(1.0, 0.0, 2.0)
    ratio = invariant_residual(p, 0.7, 1e-4) / invariant_residual(p, 0.7, 5e-5)
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_invariant_residual_vanishes_without_rabi_drive():
    # H and I are both static and diagonal, so each side is identically zero
    assert invariant_residual(DriveParams(0.0, 2.0, 1.0), 1.3, 1e-5) <= 1e-12


def test_invariant_residual_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        invariant_residual(DriveParams(1.0, 0.0, 1.0), 0.0, 0.0)
