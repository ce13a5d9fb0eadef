import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hologate import (
    HolonomicGate,
    PulseSequence,
    TargetGate,
    analytic_gate,
    catalog,
    compose,
    fidelity,
    max_abs,
    params_from_beta,
    refine,
    standard_target,
    synthesize,
)
from hologate.drive import gate_pair
from hologate.synthesis import TOLERANCE, _descend, _fold, _jacobian, _residual, _target_pair

import search_reference
from conftest import random_unitary, rounding_bound
from dual_jacobian import DUAL_JACOBIAN_K, jacobian_gap
from oracles import noncommutativity_witness

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


@pytest.mark.parametrize("sign", [1, -1], ids=["identity", "minus_identity"])
def test_synthesize_plus_or_minus_identity_converges_at_length_one(sign):
    # U(0) = -I, which is I up to a global sign; the search reports the point
    # it folded into [0, pi/2], a rounding away from 0
    result = synthesize(TargetGate(sign * I2), 1, rng_seed=0)
    assert result.converged
    assert abs(result.sequence.betas[0]) <= 1e-9
    assert result.fidelity.magnitude >= 1.0 - 1e-15


def test_synthesize_not_gate_needs_more_than_one_pulse():
    # brute-force scan: a single family member never reaches the NOT gate
    target = standard_target("NOT")
    grid = np.linspace(0.0, math.pi / 2, 2001)
    best = max(
        fidelity(analytic_gate(HolonomicGate(float(b))), target.matrix).magnitude for b in grid
    )
    assert best < 1.0 - 1e-3
    result = synthesize(target, 1, 20, rng_seed=0)
    assert not result.converged
    assert result.fidelity.magnitude < 1.0 - 1e-3
    assert result.fidelity.magnitude >= best - 1e-9  # at least as good as the scan


def test_synthesize_not_gate_at_length_four():
    result = synthesize(standard_target("NOT"), 4, 200, rng_seed=1)
    assert result.converged
    assert 1.0 - result.fidelity.magnitude <= TOLERANCE
    assert result.restarts_used <= 200


#: (restarts_used, evaluations) of `synth --target NAME --length N --seed S`
#: at the default 100 restarts: the argv of the benchmark's `search` workload.
#: Every search converges on a palindrome, within the first 50 starts.
#: `evaluations` counts the trial points evaluated, which stops growing for
#: the starts after the first hit.
SEARCH_POOL_WORK = {
    ("NOT", 4): [(3, 187), (3, 138), (5, 166), (6, 137), (6, 195), (9, 168), (6, 170), (3, 182)],
    ("Phase", 4): [(6, 162), (5, 171), (1, 152), (4, 130), (1, 175), (2, 164), (42, 292), (10, 134)],
    ("T", 3): [(1, 125), (9, 109), (1, 153), (1, 116), (3, 129), (2, 104), (1, 102), (2, 156)],
    ("Hadamard", 7): [(38, 277)],
}

#: The targets of MULTI_BATCH_WORK: the standard ones by name, and an
#: asymmetric random unitary, which only the general search takes.
MULTI_BATCH_TARGETS = {
    "Hadamard": standard_target("Hadamard").matrix,
    "random_unitary(6)": random_unitary(np.random.default_rng(6)),
}

#: (restarts_used, converged, evaluations, coordinates) of searches that draw
#: more than one batch of starts, keyed by (target, length, restarts, seed).
#: Hadamard/6 never hits, so each phase draws 128 + 22 starts, drops none and
#: evaluates 150 starts x 60 iterations. The asymmetric target hits past the
#: first 128 starts of its one general phase.
MULTI_BATCH_WORK = {
    ("Hadamard", 6, 300, 0): (300, False, 18000, "general"),
    ("random_unitary(6)", 6, 300, 14): (166, True, 8330, "general"),
    ("random_unitary(6)", 6, 300, 32): (222, True, 8414, "general"),
}


def test_synthesize_does_the_pinned_work_on_the_search_pool():
    # the work of this search is a contract: a change that moves a start's
    # path at rounding level shows up here before it shows up in the benchmark
    work = {
        (name, length): [
            synthesize(standard_target(name), length, rng_seed=seed)
            for seed in range(len(expected))
        ]
        for (name, length), expected in SEARCH_POOL_WORK.items()
    }
    assert all(r.converged for results in work.values() for r in results)
    assert {
        key: [(r.restarts_used, r.evaluations) for r in results] for key, results in work.items()
    } == SEARCH_POOL_WORK


def test_synthesize_does_the_pinned_work_across_batches():
    work = {}
    for name, length, restarts, seed in MULTI_BATCH_WORK:
        target = TargetGate(MULTI_BATCH_TARGETS[name])
        r = synthesize(target, length, restarts, rng_seed=seed)
        work[name, length, restarts, seed] = (
            r.restarts_used, r.converged, r.evaluations, r.coordinates
        )
    assert work == MULTI_BATCH_WORK


def test_synthesize_is_deterministic():
    a = synthesize(standard_target("Phase"), 4, 30, rng_seed=42)
    b = synthesize(standard_target("Phase"), 4, 30, rng_seed=42)
    assert a.sequence.betas == b.sequence.betas
    assert a.evaluations == b.evaluations
    assert a.restarts_used == b.restarts_used
    assert a.fidelity == b.fidelity


def test_synthesize_rejects_bad_length():
    with pytest.raises(ValueError):
        synthesize(standard_target("NOT"), 0)


@pytest.mark.parametrize("restarts", [0, -3])
def test_synthesize_rejects_non_positive_restarts(restarts):
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
        synthesize(standard_target("NOT"), 2, restarts)


@pytest.mark.parametrize("betas", [(), []])
def test_refine_rejects_no_betas(betas):
    with pytest.raises(ValueError, match="betas must be a nonempty 1-d sequence"):
        refine(standard_target("NOT"), betas)


# --- search internals ----------------------------------------------------------------


def test_jacobian_pulse_pairs_are_gate_pair_of_the_folded_beta_bit_for_bit():
    # one pulse per call, so the composed pair q is the pulse pair itself;
    # the coordinates cross the fold at 0, pi/2 and pi
    rng = np.random.default_rng(5)
    x = np.concatenate(([[0.0, math.pi / 2, math.pi, -math.pi / 2]], rng.uniform(-4.0, 6.0, (1, 60))), axis=1)
    x = x.reshape(4, 16)
    want = gate_pair(_fold(x)[0])
    for k in range(len(x)):
        q, _ = _jacobian(x[k : k + 1])
        a, b = want[:2, k]
        assert np.stack((a.real, a.imag, b.real, b.imag)).tobytes() == q.tobytes()


@given(coords=search_coords)
@settings(max_examples=50)
def test_jacobian_matches_central_differences(coords):
    x = np.array([coords]).T
    _, jac = _jacobian(x)
    h = 1e-6
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k, 0] = h
        numeric = (_jacobian(x + step)[0] - _jacobian(x - step)[0]) / (2 * h)
        assert max_abs(jac[k, :, 0] - numeric[:, 0]) <= 1e-7


@given(coords=st.lists(st.floats(-4.0, 6.0), min_size=1, max_size=8))
# the fold points 0, pi/2 (kept, not reflected), pi and -pi/2, a reflected
# point next to pi/2, and a catalog angle where no term of dg vanishes
@example(coords=[0.0, math.pi / 2, math.pi, -math.pi / 2, math.nextafter(math.pi / 2, 4.0), 0.423])
@settings(max_examples=200)
def test_jacobian_matches_the_dual_number_product_to_rounding(coords):
    # dual_jacobian shares no code with _jacobian; the central differences
    # above agree to 1e-7 only, which a dg term off by 1e-9 passes
    assert jacobian_gap(coords) <= DUAL_JACOBIAN_K


@given(coords=search_coords, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_residual_infidelity_matches_trace_fidelity_and_is_never_negative(coords, seed):
    # a U(2) target with det != 1 exercises the sqrt(det) normalization
    target = TargetGate(random_unitary(np.random.default_rng(seed)))
    x = np.array([coords]).T
    seq = PulseSequence(tuple(_fold(x)[0][:, 0]))
    infidelity = _residual(x, _target_pair(target.matrix), len(x))[2][0]
    assert infidelity >= 0.0
    expected = 1.0 - fidelity(compose(seq), target.matrix).magnitude
    assert infidelity == pytest.approx(expected, abs=1e-12)
    # refining onto an exactly reachable target: rounding may push the
    # fidelity past 1, yet the returned infidelity never drops below 0
    result = refine(TargetGate(compose(seq)), coords)
    assert result.converged
    assert 1.0 - result.fidelity.magnitude >= 0.0


@given(
    length=st.integers(1, 8),
    batch=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["NOT", "Hadamard", "Phase", "T"]),
    palindromic=st.booleans(),
)
# start 3 hits first, then start 1, then start 0, so the batch narrows twice
@example(length=4, batch=4, seed=12, name="NOT", palindromic=False)
# palindromes with an odd middle pulse and without one, both with hits
@example(length=7, batch=40, seed=0, name="Hadamard", palindromic=True)
@example(length=4, batch=20, seed=0, name="NOT", palindromic=True)
@settings(max_examples=40)
def test_descend_matches_the_row_major_reference_up_to_the_first_hit(
    length, batch, seed, name, palindromic
):
    matrix = standard_target(name).matrix
    width = (length + 1) // 2 if palindromic else length
    starts = np.random.default_rng(seed).uniform(0.0, math.pi / 2, (batch, width))
    want_x, want_infidelity, lowest_hits = search_reference.descend(
        starts, search_reference.target_pair(matrix), length
    )
    x, infidelity, evaluations = _descend(starts.T.copy(), _target_pair(matrix), length)
    # each iteration advances the starts up to the lowest hit seen so far
    kept, evaluated = batch, 0
    for h in lowest_hits:
        kept = kept if h is None else min(kept, h + 1)
        evaluated += kept
    assert evaluations == evaluated
    assert x.shape == (width, kept)
    assert np.array_equal(x, want_x[:kept].T)
    assert np.array_equal(infidelity, want_infidelity[:kept])


@given(half=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=6), odd=st.booleans())
@settings(max_examples=50)
def test_palindromes_compose_to_symmetric_gates(half, odd):
    # every U(beta) is complex symmetric, so (g_1 .. g_m .. g_1)^T is itself;
    # the 2x2 products round by at most one gate's bound per pulse
    betas = half + half[-2::-1] if odd else half + half[::-1]
    u = compose(PulseSequence(tuple(betas)))
    bound = sum(
        rounding_bound(p, p.period) for p in (params_from_beta(HolonomicGate(b)) for b in betas)
    )
    assert max_abs(u - u.T) <= bound


@given(
    case=st.sampled_from([("NOT", 4), ("NOT", 5), ("Phase", 4), ("T", 3), ("T", 4), ("Hadamard", 7)]),
    seed=st.integers(0, 31),
)
@settings(max_examples=20)
def test_a_palindromic_result_recomposes_within_tolerance(case, seed):
    name, length = case
    target = standard_target(name)
    result = synthesize(target, length, rng_seed=seed)
    assert result.converged and result.coordinates == "palindromic"
    betas = result.sequence.betas
    assert betas == betas[::-1]
    assert 1.0 - fidelity(compose(result.sequence), target.matrix).magnitude <= TOLERANCE


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
