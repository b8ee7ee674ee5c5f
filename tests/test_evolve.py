from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lfyukawa.diagnostics import leakage
from lfyukawa.evolve import (
    _compile_plan,
    exact_evolve,
    exp_pauli,
    make_plan,
    plan_cost,
    sample_counts,
    trotter_evolve,
)
from lfyukawa.fock import FockState, ModeConfig, QubitLayout, enumerate_sector
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import (
    PauliString,
    PauliSum,
    _letters_to_masks,
    canonicalize,
    subspace_matrix,
    to_matrix,
)

from oracles import FockOracle, rabi_transition


@pytest.fixture(scope="module")
def two_level():
    """The mode-2 fermion system: layout, H, initial state, sector basis."""
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=4.0)
    h = build_h(config, params, layout)
    state0 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    psi0 = layout.basis_vector(state0)
    states = enumerate_sector(config, 2, 1)
    indices = [layout.encode(s) for s in states]
    return config, layout, h, state0, psi0, states, indices


# -- exp_pauli ---------------------------------------------------------------------


def test_exp_pauli_zero_angle_is_identity():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    out = exp_pauli(PauliString(1.0, "XYZI"), 0.0, psi)
    assert np.allclose(out, psi)


def test_exp_pauli_diagonal_phase():
    psi = np.array([1.0, 0.0], dtype=complex)
    out = exp_pauli(PauliString(1.0, "Z"), np.pi / 2, psi)
    assert out[0] == pytest.approx(np.exp(-1j * np.pi / 2))
    assert abs(out[0]) == pytest.approx(1.0)


def test_exp_pauli_matches_dense_expm():
    rng = np.random.default_rng(2)
    for _ in range(6):
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(6))
        coeff = float(rng.standard_normal())
        theta = float(rng.standard_normal())
        term = PauliString(coeff, letters)
        psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi /= np.linalg.norm(psi)
        got = exp_pauli(term, theta, psi)
        want = expm(-1j * theta * to_matrix(canonicalize([term]))) @ psi
        assert np.allclose(got, want, atol=1e-10)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def test_exp_pauli_rejects_complex_coefficient():
    with pytest.raises(ValueError):
        exp_pauli(PauliString(1j, "X"), 0.3, np.array([1.0, 0.0], dtype=complex))


# -- exact evolution ----------------------------------------------------------------


def _on_register(amp, indices, psi0):
    """Scatter exact_evolve's sector amplitudes into a register statevector."""
    psi = np.zeros_like(psi0)
    psi[indices] = amp
    return psi


def test_exact_evolve_time_zero(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    out = exact_evolve(h, psi0[indices], 0.0, sector=(2, 1), layout=layout)
    assert out.shape == (len(indices),)
    assert np.allclose(out, psi0[indices], atol=1e-12)


@lru_cache(maxsize=None)
def _small_sectors(n_modes: int) -> tuple[tuple[int, int], ...]:
    """The non-empty charge sectors of at most 40 states at n_modes modes, 3 modals."""
    config = ModeConfig.uniform(n_modes, 3)
    return tuple(
        (K, Q)
        for K in range(config.max_k + 1)
        for Q in range(-n_modes, n_modes + 1)
        if 1 <= len(enumerate_sector(config, K, Q)) <= 40
    )


@lru_cache(maxsize=None)
def _fock_oracle(n_modes: int) -> FockOracle:
    return FockOracle(ModeConfig.uniform(n_modes, 3), 6.7, 1.0, 2048)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_modes=st.sampled_from([2, 3]),
    coupling=st.floats(0.0, 15.0),
    times=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
)
def test_exact_evolve_matches_oracle_expm(data, n_modes, coupling, times):
    config = ModeConfig.uniform(n_modes, 3)
    layout = QubitLayout(config)
    sector = data.draw(st.sampled_from(_small_sectors(n_modes)), label="sector")
    states = enumerate_sector(config, *sector)
    start = data.draw(st.integers(0, len(states) - 1), label="start")
    h = build_h(config, ModelParams(coupling=coupling), layout)
    got = exact_evolve(h, np.eye(len(states))[start], np.array(times), sector, layout)
    assert got.shape == (len(times), len(states))
    mat = _fock_oracle(n_modes).matrix(states, coupling, False)
    for t, amp in zip(times, got):
        want = expm(-1j * t * mat)[:, start]
        assert np.max(np.abs(amp - want)) < 1e-9


def test_exact_evolve_rejects_sector_leaving_hamiltonian(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    flip = PauliSum.from_label("X" + "I" * (layout.total_qubits - 1), 0.3)
    with pytest.raises(ValueError, match="leaves the subspace"):
        exact_evolve(h + flip, psi0[indices], 0.1, sector=(2, 1), layout=layout)


def test_exact_evolve_matches_closed_form_rabi(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    block = subspace_matrix(h, indices)
    v = block[0, 1].real
    delta = (block[1, 1] - block[0, 0]).real
    times = np.linspace(0.0, 1.0, 101)
    evolved = exact_evolve(h, psi0[indices], times, sector=(2, 1), layout=layout)
    got = np.abs(evolved[:, 1]) ** 2
    want = rabi_transition(v, delta, times)
    assert np.max(np.abs(got - want)) < 1e-8


def test_exact_evolve_conserves_charges(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    out = _on_register(exact_evolve(h, psi0[indices], 0.31, (2, 1), layout), indices, psi0)
    leak_k, leak_q = leakage(out, 2, 1, layout)
    assert leak_k < 1e-10 and leak_q < 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_exact_evolve_rejects_wrong_shape(two_level):
    # psi0 lives on the sector basis: a register vector or a wrong-length one is refused
    _, layout, h, _, psi0, _, indices = two_level
    for bad in (psi0, psi0[indices][:1], psi0[indices][None, :]):
        with pytest.raises(ValueError, match="shape"):
            exact_evolve(h, bad, 0.1, sector=(2, 1), layout=layout)


# -- Trotter plans ------------------------------------------------------------------


def test_plan_counts_and_palindrome(two_level):
    _, _, h, _, _, _, _ = two_level
    n_terms = sum(1 for t in h.terms if set(t.letters) != {"I"})
    plan1 = make_plan(h, 0.2, 10, order=1)
    assert len(plan1.rotations) == n_terms
    plan2 = make_plan(h, 0.2, 10, order=2)
    assert len(plan2.rotations) == 2 * n_terms - 1
    # palindrome: same rotation sequence read both ways
    seq = [(x, z, round(a, 15)) for x, z, a in plan2.rotations]
    assert seq == seq[::-1]
    with pytest.raises(ValueError):
        make_plan(h, 0.2, 0)


def test_plan_angles_scale_with_coefficients(two_level):
    _, _, h, _, _, _, _ = two_level
    plan = make_plan(h, 0.2, 10, order=1)
    coeffs = {_letters_to_masks(t.letters): t.coeff.real for t in h.terms}
    for x, z, angle in plan.rotations:
        assert angle == pytest.approx(coeffs[x, z] * 0.02)


def test_trotter_exact_for_commuting_terms(two_level):
    config, layout, _, _, psi0, _, indices = two_level
    free = build_h(config, ModelParams(coupling=0.0), layout)
    plan = make_plan(free, 0.7, 3, order=1)
    got = trotter_evolve(plan, psi0)
    want = _on_register(exact_evolve(free, psi0[indices], 0.7, (2, 1), layout), indices, psi0)
    assert np.max(np.abs(np.abs(got) ** 2 - np.abs(want) ** 2)) < 1e-12


def test_blocked_equals_sequential(two_level):
    _, _, h, _, psi0, _, _ = two_level
    for order in (1, 2):
        plan = make_plan(h, 0.2, 4, order=order)
        a = trotter_evolve(plan, psi0, method="sequential")
        b = trotter_evolve(plan, psi0, method="blocked")
        assert np.max(np.abs(a - b)) < 1e-12


def _random_real_sum(draw, n: int, max_flips: int, min_zs: int, max_zs: int) -> PauliSum:
    """A real-coefficient (Hermitian) sum: up to max_flips flip patterns (the diagonal one
    among them), each with min_zs to max_zs z masks."""
    masks = st.integers(0, (1 << n) - 1)
    flips = st.lists(st.just(0) | masks, min_size=1, max_size=max_flips, unique=True)
    zs = st.lists(masks, min_size=min(min_zs, 1 << n), max_size=max_zs, unique=True)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = {}
    for x in draw(flips, label="flips"):
        for z in draw(zs, label="zs"):
            terms[x, z] = complex(draw(coeffs, label="coeff"))
    return PauliSum(n, terms)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 11),
    shape=st.sampled_from([(3, 12, 24), (8, 1, 4)]),
    n_steps=st.integers(1, 3),
    order=st.sampled_from([1, 2]),
    t=st.floats(0.01, 1.0),
)
def test_blocked_equals_sequential_on_random_sums(data, n, shape, n_steps, order, t):
    # few flip patterns with many z masks leave more than _SIG_MASK_CAP parity masks
    # outside a block's support, so the per-rotation "rots" fallback runs as well
    h = _random_real_sum(data.draw, n, *shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="psi seed"))
    psi0 = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi0 /= np.linalg.norm(psi0)
    plan = make_plan(h, t, n_steps, order=order)
    a = trotter_evolve(plan, psi0, method="sequential")
    b = trotter_evolve(plan, psi0, method="blocked")
    assert np.max(np.abs(a - b)) < 1e-12


def test_blocked_compiles_both_segment_kinds():
    # flips on qubits 0-4, eight z masks with distinct parities on qubits 5-8: a "rots"
    # segment; flips on qubits 4-8 overflow the 8-qubit block and start a dense "blk" one
    n = 9
    terms = {(0b111110000, 0b100000000 | k): 0.1 * k for k in range(1, 9)}
    terms[0b000011111, 0b100000000] = 0.7
    terms[0, 0b000000011] = 0.3
    h = PauliSum(n, {k: complex(c) for k, c in terms.items()})
    for order in (1, 2):
        plan = make_plan(h, 0.4, 2, order=order)
        kinds = [segment[0] for segment in _compile_plan(plan)]
        assert {"blk", "rots"} <= set(kinds)
        psi0 = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
        a = trotter_evolve(plan, psi0, method="sequential")
        b = trotter_evolve(plan, psi0, method="blocked")
        assert np.max(np.abs(a - b)) < 1e-12


def test_blocked_handles_a_string_wider_than_a_block():
    # a string flipping more than _BLOCK_QUBIT_CAP = 8 qubits forms a segment of its own
    n = 9
    h = PauliSum(n, {((1 << n) - 1, 0b1): 0.3 + 0j, (0b11, 0): 0.2 + 0j, (0, 0b101): 0.1 + 0j})
    psi0 = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    for order in (1, 2):
        plan = make_plan(h, 0.5, 2, order=order)
        a = trotter_evolve(plan, psi0, method="sequential")
        b = trotter_evolve(plan, psi0, method="blocked")
        assert np.max(np.abs(a - b)) < 1e-12


def test_trotter_transition_converges_to_exact(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    target = indices[1]
    exact = exact_evolve(h, psi0[indices], 0.2, sector=(2, 1), layout=layout)
    p_exact = abs(exact[1]) ** 2
    deviations = []
    for n_steps in (2, 10, 50):
        psi = trotter_evolve(make_plan(h, 0.2, n_steps), psi0)
        deviations.append(abs(abs(psi[target]) ** 2 - p_exact))
    assert deviations[2] < deviations[1] < deviations[0]
    assert deviations[2] < 2e-3


def test_order2_beats_order1(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    exact = _on_register(exact_evolve(h, psi0[indices], 0.2, (2, 1), layout), indices, psi0)
    errs = {}
    for order in (1, 2):
        psi = trotter_evolve(make_plan(h, 0.2, 10, order=order), psi0)
        errs[order] = np.linalg.norm(np.abs(psi) ** 2 - np.abs(exact) ** 2)
    assert errs[2] <= errs[1]


def test_observer_sees_every_step(two_level):
    _, _, h, _, psi0, _, _ = two_level
    plan = make_plan(h, 0.1, 5)
    seen = []
    trotter_evolve(plan, psi0, observer=lambda step, psi: seen.append(step))
    assert seen == [1, 2, 3, 4, 5]


def test_plan_hash_is_stable(two_level):
    _, _, h, _, _, _, _ = two_level
    a = make_plan(h, 0.2, 10)
    b = make_plan(h, 0.2, 10)
    assert a.rotations == b.rotations
    c = make_plan(h, 0.2, 9)
    assert c.rotations != a.rotations


# -- sampling -----------------------------------------------------------------------


def test_sample_counts_basis_state():
    psi = np.zeros(8, dtype=complex)
    psi[5] = 1.0
    counts = sample_counts(psi, 100, seed=0)
    assert counts == {"101": 100}


def test_sample_counts_reproducible_and_binomial():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    a = sample_counts(psi, 8192, seed=42)
    b = sample_counts(psi, 8192, seed=42)
    assert a == b
    assert sum(a.values()) == 8192
    sigma = np.sqrt(8192 * 0.25)
    assert abs(a["00"] - 4096) < 5 * sigma
    assert set(a) == {"00", "11"}


def test_sample_counts_requires_shots():
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0 + 0j]), 0, seed=1)


def test_sample_counts_on_indices_needs_a_wide_enough_register():
    amp = np.array([0.6, 0.8])
    with pytest.raises(ValueError):
        sample_counts(amp, 10, seed=1, indices=[5, 9])
    with pytest.raises(ValueError):
        sample_counts(amp, 10, seed=1, indices=[5, 9], n_qubits=3)
    counts = sample_counts(amp, 10, seed=1, indices=[5, 9], n_qubits=5)
    assert set(counts) <= {"00101", "01001"} and sum(counts.values()) == 10


# -- cost accounting ----------------------------------------------------------------


def test_plan_cost_empty_and_single_qubit():
    h = canonicalize([PauliString(0.5, "II")])  # identity only: no rotations
    plan = make_plan(h, 0.1, 3)
    cost = plan_cost(plan)
    assert cost.rotations_total == 0 and cost.two_qubit_weight == 0
    h1 = canonicalize([PauliString(0.5, "XI"), PauliString(0.25, "IZ")])
    cost1 = plan_cost(make_plan(h1, 0.1, 3))
    assert cost1.rotations_total == 6 and cost1.two_qubit_weight == 0


def test_plan_cost_order_ratio(two_level):
    _, _, h, _, _, _, _ = two_level
    c1 = plan_cost(make_plan(h, 0.2, 10, order=1))
    c2 = plan_cost(make_plan(h, 0.2, 10, order=2))
    ratio = c2.rotations_total / c1.rotations_total
    assert 1.8 <= ratio <= 2.0
