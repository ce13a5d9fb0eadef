import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import (
    HolonomicGate,
    OptimizerConfig,
    PulseSequence,
    TargetGate,
    analytic_gate,
    catalog,
    compose,
    fidelity,
    max_abs,
    noncommutativity_witness,
    refine,
    standard_target,
    synthesize,
    synthesize_shortest,
)
from hologate.synthesis import _fold, _infidelity, _jacobian, _target_pair

from conftest import random_unitary

I2 = np.eye(2, dtype=complex)

beta_lists = st.lists(st.floats(0.0, math.pi / 2), min_size=0, max_size=10)
# search coordinates inside [0, pi/2] and just outside it (folded back by
# reflection), kept 1e-3 from the fold points where d(beta)/dx changes sign
search_coords = st.lists(
    st.one_of(
        st.floats(1e-3, math.pi / 2 - 1e-3),
        st.floats(-0.1, -1e-3),
        st.floats(math.pi / 2 + 1e-3, math.pi / 2 + 0.1),
    ),
    min_size=1,
    max_size=8,
)


# --- types ---------------------------------------------------------------------


def test_pulse_sequence_validation():
    assert len(PulseSequence(())) == 0
    with pytest.raises(ValueError):
        PulseSequence((0.1, 1.8))


def test_target_gate_validation():
    with pytest.raises(ValueError):
        TargetGate(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        TargetGate(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_target_gate_rejects_non_finite_entries(bad):
    # NaN slips past a "defect > 1e-12" unitarity test, since NaN > x is False
    with pytest.raises(ValueError, match="finite"):
        TargetGate(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_standard_targets():
    assert max_abs(standard_target("NOT").matrix - np.array([[0, 1j], [1j, 0]])) == 0.0
    had = standard_target("Hadamard").matrix
    assert max_abs(had - 1j * np.array([[1, 1], [1, -1]]) / math.sqrt(2)) < 1e-15
    assert standard_target("pi8").name == "T"
    for name in ("NOT", "Hadamard", "Phase", "T"):
        m = standard_target(name).matrix
        assert abs(np.linalg.det(m) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        standard_target("CNOT")


# --- compose --------------------------------------------------------------------


def test_compose_empty_is_identity():
    assert max_abs(compose(PulseSequence(())) - I2) == 0.0


def test_compose_single_zero_pulse():
    assert max_abs(compose(PulseSequence((0.0,))) + I2) == 0.0


def test_compose_published_not_sequence():
    seq = PulseSequence((0.423, 0.680, 0.236, 0.222))
    rep = fidelity(compose(seq), standard_target("NOT").matrix)
    assert rep.magnitude == pytest.approx(0.99999999990, abs=1e-5)


def test_compose_ordering_is_first_pulse_rightmost():
    seq = PulseSequence((0.3, 1.1))
    expected = analytic_gate(HolonomicGate(1.1)) @ analytic_gate(HolonomicGate(0.3))
    assert max_abs(compose(seq) - expected) == 0.0


@given(betas=beta_lists, split=st.integers(0, 10))
@settings(max_examples=50)
def test_compose_split_consistency(betas, split):
    split = min(split, len(betas))
    whole = compose(PulseSequence(tuple(betas)))
    first = compose(PulseSequence(tuple(betas[:split])))
    second = compose(PulseSequence(tuple(betas[split:])))
    assert max_abs(whole - second @ first) < 1e-12


def test_compose_stays_in_su2():
    rng = np.random.default_rng(11)
    for _ in range(20):
        seq = PulseSequence(tuple(rng.uniform(0, math.pi / 2, 16)))
        u = compose(seq)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-11
        assert max_abs(u.conj().T @ u - I2) <= 1e-11


# --- catalog ---------------------------------------------------------------------


def test_catalog_rows_are_the_published_ones():
    rows = catalog()
    expected = {
        "NOT": ((0.423, 0.680, 0.236, 0.222), 0.99999999990),
        "Hadamard": ((0.331, 0.783, 0.300, 0.926, 0.174, 0.851, 0.347), 0.99999999791),
        "Phase": ((0.827, 0.102, 0.287, 0.777), 0.99999999993),
        "T": ((0.788, 0.514, 0.788), 0.99999999996),
    }
    assert [row.target.name for row in rows] == list(expected)
    for row in rows:
        betas, claimed = expected[row.target.name]
        assert row.sequence.betas == betas
        assert row.claimed_fidelity == claimed


def test_catalog_reproduction_and_refinement():
    for row in catalog():
        rep = fidelity(compose(row.sequence), row.target.matrix)
        assert rep.magnitude >= 1.0 - 1e-5
        refined = refine(row.target, row.sequence.betas)
        assert refined.fidelity.magnitude >= row.claimed_fidelity - 1e-10


# --- synthesize -------------------------------------------------------------------


def test_synthesize_recovers_member_of_family():
    target = TargetGate(analytic_gate(HolonomicGate(0.3)))
    result = synthesize(target, 1, rng_seed=0)
    assert result.converged
    assert 1.0 - result.fidelity.magnitude <= 1e-12
    assert result.sequence.betas[0] == pytest.approx(0.3, abs=1e-6)
    assert result.evaluations >= len(result.sequence)


def test_synthesize_minus_identity_snaps_to_zero():
    result = synthesize(TargetGate(-I2), 1, rng_seed=0)
    assert result.sequence.betas == (0.0,)
    assert result.fidelity.magnitude == 1.0


def test_synthesize_not_gate_needs_more_than_one_pulse():
    # brute-force scan: a single family member never reaches the NOT gate
    target = standard_target("NOT")
    grid = np.linspace(0.0, math.pi / 2, 2001)
    best = max(
        fidelity(analytic_gate(HolonomicGate(float(b))), target.matrix).magnitude for b in grid
    )
    assert best < 1.0 - 1e-3
    result = synthesize(target, 1, OptimizerConfig(restarts=20), rng_seed=0)
    assert not result.converged
    assert result.fidelity.magnitude < 1.0 - 1e-3
    assert result.fidelity.magnitude >= best - 1e-9  # at least as good as the scan


def test_synthesize_not_gate_at_length_four():
    result = synthesize(standard_target("NOT"), 4, OptimizerConfig(restarts=200), rng_seed=1)
    assert result.converged
    assert 1.0 - result.fidelity.magnitude <= 1e-9
    assert result.restarts_used <= 200


def test_synthesize_hadamard_seven_pulses_does_the_pinned_work():
    # the work of this search is a contract: a change that moves a start's
    # path at rounding level shows up here before it shows up in the benchmark
    result = synthesize(standard_target("Hadamard"), 7, rng_seed=0)
    assert result.converged
    assert result.restarts_used == 82
    assert result.evaluations == 600


def test_synthesize_is_deterministic():
    cfg = OptimizerConfig(restarts=30)
    a = synthesize(standard_target("Phase"), 4, cfg, rng_seed=42)
    b = synthesize(standard_target("Phase"), 4, cfg, rng_seed=42)
    assert a.sequence.betas == b.sequence.betas
    assert a.evaluations == b.evaluations
    assert a.restarts_used == b.restarts_used
    assert a.fidelity == b.fidelity


def test_synthesize_rejects_bad_length():
    with pytest.raises(ValueError):
        synthesize(standard_target("NOT"), 0)


def test_synthesize_shortest_finds_three_pulse_t_gate():
    cfg = OptimizerConfig(restarts=10)
    result = synthesize_shortest(standard_target("T"), 3, cfg, rng_seed=3)
    assert result.converged
    assert len(result.sequence) == 3


def test_optimizer_config_validation():
    for bad in ({"restarts": 0}, {"restarts": -3}):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(**bad)
    for tolerance in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            OptimizerConfig(tolerance=tolerance)


# --- search internals ----------------------------------------------------------------


@given(coords=search_coords)
@settings(max_examples=50)
def test_jacobian_matches_central_differences(coords):
    x = np.array([coords])
    _, jac = _jacobian(x)
    h = 1e-6
    for k in range(x.shape[1]):
        step = np.zeros_like(x)
        step[0, k] = h
        numeric = (_jacobian(x + step)[0] - _jacobian(x - step)[0]) / (2 * h)
        assert max_abs(jac[0, k] - numeric[0]) <= 1e-7


@given(coords=search_coords, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_residual_infidelity_matches_trace_fidelity_and_is_never_negative(coords, seed):
    # a U(2) target with det != 1 exercises the sqrt(det) normalization
    target = TargetGate(random_unitary(np.random.default_rng(seed)))
    x = np.array([coords])
    seq = PulseSequence(tuple(_fold(x)[0][0]))
    infidelity = _infidelity(x, _target_pair(target.matrix))[0]
    assert infidelity >= 0.0
    expected = 1.0 - fidelity(compose(seq), target.matrix).magnitude
    assert infidelity == pytest.approx(expected, abs=1e-12)
    # refining onto an exactly reachable target: rounding may push the
    # fidelity past 1, yet the returned infidelity never drops below 0
    result = refine(TargetGate(compose(seq)), coords)
    assert result.converged
    assert 1.0 - result.fidelity.magnitude >= 0.0


# --- noncommutativity ---------------------------------------------------------------


def test_witness_vanishes_for_equal_angles():
    assert noncommutativity_witness(0.3, 0.3) == 0.0


def test_witness_vanishes_for_central_element():
    # beta = 0 gives -I, which commutes with everything
    assert noncommutativity_witness(0.0, 1.2) == 0.0


def test_witness_generic_pair_is_large():
    value = noncommutativity_witness(math.pi / 6, math.pi / 3)
    assert value > 0.1
    # closed form: the commutator of w1 + i v1.s and w2 + i v2.s is
    # -2i (v1 x v2).s, and with both axes in the xz plane its max-norm is
    # 2 sin(pi sin b1) sin(pi sin b2) |sin(b2 - b1)|
    s1, s2 = math.sin(math.pi / 6), math.sin(math.pi / 3)
    expected = (
        2.0
        * math.sin(math.pi * s1)
        * math.sin(math.pi * s2)
        * abs(math.sin(math.pi / 3 - math.pi / 6))
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_witness_validates_range():
    with pytest.raises(ValueError):
        noncommutativity_witness(-0.1, 0.3)
