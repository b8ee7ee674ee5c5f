import json
import math
from dataclasses import replace
from functools import lru_cache, reduce
from itertools import groupby
from operator import or_, xor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lfyukawa import evolve, scenarios
from lfyukawa.diagnostics import leakage
from lfyukawa.evolve import (
    _compile_block,
    _compile_plan,
    _parity_checks,
    _reachable,
    _syndromes,
    exact_evolve,
    make_plan,
    plan_cost,
    sample_counts,
    trotter_evolve,
)
from lfyukawa.fock import FockState, ModeConfig, QubitLayout, enumerate_sector, sector_indices
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import (
    PauliString,
    PauliSum,
    _letters_to_masks,
    canonicalize,
    subspace_matrix,
)

from oracles import (
    FockOracle,
    charge_reference,
    compose_reference,
    rabi_transition,
    term_phase,
    trotter_reference,
)


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
    indices = sector_indices(config, 2, 1)
    return config, layout, h, state0, psi0, states, indices


# -- exact evolution ----------------------------------------------------------------


def _on_register(amp, indices, psi0):
    """Scatter exact_evolve's sector amplitudes into a register statevector."""
    psi = np.zeros_like(psi0)
    psi[indices] = amp
    return psi


def test_exact_evolve_time_zero(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    out = exact_evolve(h, psi0[indices], 0.0, indices)
    assert out.shape == (len(indices),)
    assert np.allclose(out, psi0[indices], atol=1e-12)
    # an empty sector has a (0, 0) matrix and evolves to no amplitudes
    none = np.zeros(0, np.int64)
    empty = exact_evolve(PauliSum.from_label("ZI"), np.zeros(0), np.array([0.0, 0.1]), none)
    assert empty.shape == (2, 0)


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
    indices = sector_indices(config, *sector)
    got = exact_evolve(h, np.eye(len(states))[start], np.array(times), indices)
    assert got.shape == (len(times), len(states))
    mat = _fock_oracle(n_modes).matrix(states, coupling, False)
    for t, amp in zip(times, got):
        want = expm(-1j * t * mat)[:, start]
        assert np.max(np.abs(amp - want)) < 1e-9


def test_exact_evolve_rejects_non_hermitian_sector_matrix(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    # i times the X string that swaps the two sector states stays in the sector but is
    # anti-Hermitian there, so the Hermiticity check fires
    swap = PauliSum(layout.total_qubits, {(int(indices[0] ^ indices[1]), 0): 0.3j})
    assert np.array_equal(subspace_matrix(swap, indices), [[0, 0.3j], [0.3j, 0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        exact_evolve(h + swap, psi0[indices], 0.1, indices)


def test_exact_evolve_matches_closed_form_rabi(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    block = subspace_matrix(h, indices)
    v = block[0, 1].real
    delta = (block[1, 1] - block[0, 0]).real
    times = np.linspace(0.0, 1.0, 101)
    evolved = exact_evolve(h, psi0[indices], times, indices)
    got = np.abs(evolved[:, 1]) ** 2
    want = rabi_transition(v, delta, times)
    assert np.max(np.abs(got - want)) < 1e-8


def test_exact_evolve_conserves_charges(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    out = _on_register(exact_evolve(h, psi0[indices], 0.31, indices), indices, psi0)
    leak_k, leak_q = leakage(out, np.arange(out.size), 2, 1, layout)
    assert leak_k < 1e-10 and leak_q < 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_exact_evolve_rejects_wrong_shape(two_level):
    # psi0 lives on the sector basis: a register vector or a wrong-length one is refused
    _, layout, h, _, psi0, _, indices = two_level
    for bad in (psi0, psi0[indices][:1], psi0[indices][None, :]):
        with pytest.raises(ValueError, match="shape"):
            exact_evolve(h, bad, 0.1, indices)


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
    want = _on_register(exact_evolve(free, psi0[indices], 0.7, indices), indices, psi0)
    assert np.max(np.abs(np.abs(got) ** 2 - np.abs(want) ** 2)) < 1e-12


_PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def test_trotter_reference_matches_expm_product():
    # the reference against a product of dense exponentials, qubit 0 the leftmost kron
    # factor; real sums with Y letters, identity strings included for the step phase
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for order in (1, 2):
            for n_steps in (1, 2, 3):
                words = {"I" * n} | {"".join(rng.choice(list("IXYZ"), n)) for _ in range(3 * n)}
                assert any("Y" in w for w in words)
                h = canonicalize([PauliString(float(rng.normal()), w) for w in words])
                plan = make_plan(h, 0.7, n_steps, order=order)
                step = plan.step_phase * np.eye(1 << n)
                for x, z, angle in plan.rotations:
                    letters = "".join(
                        "IXZY"[(x >> (n - 1 - q) & 1) + 2 * (z >> (n - 1 - q) & 1)]
                        for q in range(n)
                    )
                    p = reduce(np.kron, [_PAULI_MATRICES[c] for c in letters])
                    step = expm(-1j * angle * p) @ step
                psi0 = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
                psi0 /= np.linalg.norm(psi0)
                want = np.linalg.matrix_power(step, n_steps) @ psi0
                assert np.max(np.abs(trotter_reference(plan, psi0) - want)) < 1e-12


def test_blocked_equals_sequential(two_level):
    _, _, h, _, psi0, _, _ = two_level
    for order in (1, 2):
        plan = make_plan(h, 0.2, 4, order=order)
        a = trotter_reference(plan, psi0)
        b = trotter_evolve(plan, psi0)
        assert np.max(np.abs(a - b)) < 1e-12


def test_blocked_keeps_the_exact_zeros_and_the_shot_draws(two_level):
    # Generator.multinomial draws one binomial per basis index in order and skips an
    # index of probability exactly 0 without consuming random numbers, so a seeded
    # histogram depends on which amplitudes are exactly zero, not only on their
    # values.  A coset block mixes only indices that differ by a XOR of its flips, so
    # an index off the coset psi0 ^ span(all flips) stays a sum of exact zeros, as in
    # the rotation-by-rotation product; round-off on the nonzero amplitudes would
    # have to cross a binomial threshold to move a draw.
    _, layout, h, _, psi0, _, _ = two_level
    everywhere = np.arange(psi0.size)
    for order in (1, 2):
        plan = make_plan(h, 0.2, 10, order=order)
        a = trotter_reference(plan, psi0)
        b = trotter_evolve(plan, psi0)
        assert np.array_equal(a == 0, b == 0)
        assert np.count_nonzero(a) == 1024 and a.size == 4096
        for seed in range(20):
            assert sample_counts(a, 8192, seed, everywhere, layout.total_qubits) == (
                sample_counts(b, 8192, seed, everywhere, layout.total_qubits)
            )


def _random_real_sum(
    draw, n: int, max_flips: int, min_zs: int, max_zs: int, n_base: int = 0
) -> PauliSum:
    """A real-coefficient (Hermitian) sum: up to max_flips flip patterns (the diagonal one
    among them), each with min_zs to max_zs z masks.  With n_base > 0 each flip pattern is
    the XOR of one to three of n_base drawn base masks, so they span at most n_base
    dimensions."""
    masks = flip_masks = st.integers(0, (1 << n) - 1)
    if n_base:
        base = draw(st.lists(masks, min_size=n_base, max_size=n_base), label="base")
        picks = st.lists(st.sampled_from(base), min_size=1, max_size=3)
        flip_masks = picks.map(lambda chosen: reduce(xor, chosen, 0))
    flips = st.lists(st.just(0) | flip_masks, min_size=1, max_size=max_flips, unique=True)
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
    shape=st.sampled_from([(3, 12, 24), (8, 1, 4), (8, 1, 2, 3)]),
    n_steps=st.integers(1, 3),
    order=st.sampled_from([1, 2]),
    t=st.floats(0.01, 1.0),
)
def test_blocked_equals_sequential_on_random_sums(data, n, shape, n_steps, order, t):
    # few flip patterns with many z masks leave more than _SIG_MASK_CAP parity masks
    # outside a block's support, so runs split into the blocks of their halves as well;
    # flips spanning at most 3 dimensions make blocks of several cosets (d < f)
    h = _random_real_sum(data.draw, n, *shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="psi seed"))
    psi0 = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi0 /= np.linalg.norm(psi0)
    plan = make_plan(h, t, n_steps, order=order)
    a = trotter_reference(plan, psi0)
    b = trotter_evolve(plan, psi0)
    assert np.max(np.abs(a - b)) < 1e-12


def _draw_at_a_tie(psi, tol: float = 1e-9) -> bool:
    """Whether a multinomial draw of |psi|^2 sits on numpy's binomial switch.

    Generator.multinomial draws category j as a binomial of probability
    p_j / (p_j + p_(j+1) + ...) and takes the complementary draw once that passes 1/2,
    so two products one ulp apart on either side of 1/2 swap their counts.
    """
    p = np.abs(psi) ** 2
    tail = np.cumsum(p[::-1])[::-1]
    return bool(np.any(np.abs(p[p > 0] / tail[p > 0] - 0.5) < tol))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(6, 11),
    n_base=st.integers(2, 4),
    shape=st.sampled_from([(3, 12, 24), (8, 1, 4)]),
    n_steps=st.integers(1, 3),
    order=st.sampled_from([1, 2]),
    t=st.floats(0.01, 1.0),
)
def test_blocked_visits_only_the_reachable_cosets(data, n, n_base, shape, n_steps, order, t):
    # flips from 2-4 base masks span at most 4 of n >= 6 dimensions, so there are at
    # least 4 syndromes, and a psi0 on 1-3 basis states occupies at most 3 of them: the
    # blocks skip the columns of the others, which must stay the reference's exact zeros.
    h = _random_real_sum(data.draw, n, *shape, n_base=n_base)
    starts = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3, unique=True)
    on = data.draw(starts, label="starts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="psi seed"))
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[on] = rng.standard_normal(len(on)) + 1j * rng.standard_normal(len(on))
    psi0 /= np.linalg.norm(psi0)
    plan = make_plan(h, t, n_steps, order=order)
    a = trotter_reference(plan, psi0)
    b = trotter_evolve(plan, psi0)
    assert np.max(np.abs(a - b)) < 1e-12
    syndrome = _syndromes(np.arange(1 << n), plan._checks)
    skipped = ~np.isin(syndrome, syndrome[on])
    assert skipped.any() and not a[skipped].any() and not b[skipped].any()
    # A visited column can cancel to zero, e.g. one flip with four equal coefficients
    # whose parity signs sum to zero on the start; then either product may keep a
    # round-off residue where the other gives exactly 0 (seen up to 1.6e-17 both ways
    # round, against about 200 rotations * 2^-53 = 2e-14 at most).  Above that the
    # exact zeros agree, and with the residues cleared both products must draw the same
    # shots, unless a draw sits on numpy's binomial switch at 1/2 (n=6, flips 2 and 3
    # of coefficient 1 from |0>, t=0.2109375: 201 and 170 shots swap).
    residue = (np.abs(a) < 1e-14) & (np.abs(b) < 1e-14)
    assert np.array_equal(a[~residue] == 0, b[~residue] == 0)
    a, b = np.where(residue, 0, a), np.where(residue, 0, b)
    if not _draw_at_a_tie(a):
        everywhere = np.arange(1 << n)
        for seed in range(3):
            assert sample_counts(a, 4096, seed, everywhere, n) == (
                sample_counts(b, 4096, seed, everywhere, n)
            )


def _gf2_rank(masks) -> int:
    basis: list[int] = []  # distinct leading bits, kept in decreasing order
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return len(basis)


def test_parity_checks_are_independent_and_annihilate_the_flips():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for n_flips in range(2 * n + 1):
            flips = [int(v) for v in rng.integers(0, 1 << n, n_flips)]
            if n_flips > 2:  # a dependent flip
                flips.append(flips[0] ^ flips[1])
            checks = _parity_checks(flips, n)
            assert all((h & x).bit_count() % 2 == 0 for h in checks for x in flips)
            assert len(checks) == n - _gf2_rank(flips)
            assert _gf2_rank(checks) == len(checks)


@pytest.fixture(scope="module")
def coupling_sweep_runs():
    """(plan, psi0, psi) of each start of the benchmark's coupling-sweep run at lambda 5."""
    runs = []

    def evolve(plan, psi0, observer=None):
        runs.append((plan, psi0, trotter_evolve(plan, psi0, observer)))
        return runs[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "trotter_evolve", evolve)
        doc = {"scenario": "coupling-sweep", "lambdas": [5.0], "seed": 11}
        scenarios.run_scenario(scenarios.parse_config(json.dumps(doc)), write_files=False)
    return runs


def test_coupling_sweep_starts_fill_their_own_cosets(coupling_sweep_runs):
    # the benchmark's plan (coupling-sweep at lambda 5): its flips span 14 of 16
    # dimensions, so each start's coset holds a quarter of the register, all of which
    # the ten steps reach and none of which they leave
    runs = coupling_sweep_runs
    plan = runs[0][0]
    assert len(runs) == 4 and all(p is plan for p, _, _ in runs)
    assert plan.n_qubits == 16 and plan.n_steps == 10 and len(plan._checks) == 2
    for _, psi0, psi in runs:
        on = np.flatnonzero(psi)
        [start] = _syndromes(np.flatnonzero(psi0), plan._checks)
        assert on.size == 16384
        assert np.all(_syndromes(on, plan._checks) == start)


def _evolve_with_caps(plan, psi0, sig_cap: int, byte_cap: int):
    """trotter_evolve(plan, psi0) with the block caps patched, and per composed block
    its (rotations, masks of Z letters outside its flips, stack bytes)."""
    compose, blocks = evolve._compose, []

    def spy(rots, local, signs):
        u = compose(rots, local, signs)
        blocks.append((len(rots), signs.shape[1] - 1, u.nbytes))
        return u

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_SIG_MASK_CAP", sig_cap)
        mp.setattr(evolve, "_UNITARY_BYTES_CAP", byte_cap)
        mp.setattr(evolve, "_compose", spy)
        psi = trotter_evolve(plan, psi0)
    return psi, blocks


def _assert_blocks_within_caps(plan, blocks, sig_cap: int, byte_cap: int):
    # every flip rotation is composed in exactly one block, and a block of two or more
    # rotations keeps both caps; a lone rotation has at most one outside mask
    assert {s[0] for s in plan._compiled} <= {"diag", "blk"}
    assert len(blocks) == sum(s[0] == "blk" for s in plan._compiled)
    assert sum(r for r, _, _ in blocks) == sum(1 for x, _, _ in plan.rotations if x)
    for rotations, masks, nbytes in blocks:
        assert masks <= (sig_cap if rotations > 1 else 1)
        assert nbytes <= byte_cap or rotations == 1


def test_blocked_splits_a_run_past_the_caps():
    # flips on qubits 0-4 with eight z masks of distinct parities on qubits 5-8: more than
    # _SIG_MASK_CAP = 6 outside masks, so the run compiles as the blocks of its halves;
    # flips on qubits 4-8 overflow the 8-qubit block and start a block of their own
    n = 9
    terms = {(0b111110000, 0b100000000 | k): 0.1 * k for k in range(1, 9)}
    terms[0b000011111, 0b100000000] = 0.7
    terms[0, 0b000000011] = 0.3
    h = PauliSum(n, {k: complex(c) for k, c in terms.items()})
    psi0 = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    caps = evolve._SIG_MASK_CAP, evolve._UNITARY_BYTES_CAP
    for order in (1, 2):
        plan = make_plan(h, 0.4, 2, order=order)
        b, blocks = _evolve_with_caps(plan, psi0, *caps)
        _assert_blocks_within_caps(plan, blocks, *caps)
        # the eight-mask run (twice at order 2) splits in two, the lone string is one block
        assert len(blocks) == {1: 3, 2: 5}[order]
        a = trotter_reference(plan, psi0)
        assert np.max(np.abs(a - b)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 9),
    shape=st.sampled_from([(3, 12, 24), (8, 1, 4)]),
    n_steps=st.integers(1, 2),
    order=st.sampled_from([1, 2]),
    t=st.floats(0.01, 1.0),
    sig_cap=st.integers(1, 3),
    byte_cap=st.sampled_from([1 << 10, 1 << 14]),
)
def test_blocked_split_to_small_caps_equals_sequential(
    data, n, shape, n_steps, order, t, sig_cap, byte_cap
):
    # caps of one to three outside masks and 1-16 KB split runs down to lone rotations,
    # some of whose stacks pass the byte cap; the split product is still the ordered
    # rotation product, with the reference's exact zeros off the start's cosets
    h = _random_real_sum(data.draw, n, *shape)
    starts = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3, unique=True)
    on = data.draw(starts, label="starts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="psi seed"))
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[on] = rng.standard_normal(len(on)) + 1j * rng.standard_normal(len(on))
    psi0 /= np.linalg.norm(psi0)
    plan = make_plan(h, t, n_steps, order=order)
    b, blocks = _evolve_with_caps(plan, psi0, sig_cap, byte_cap)
    _assert_blocks_within_caps(plan, blocks, sig_cap, byte_cap)
    a = trotter_reference(plan, psi0)
    assert np.max(np.abs(a - b)) < 1e-12
    syndrome = _syndromes(np.arange(1 << n), plan._checks)
    skipped = ~np.isin(syndrome, syndrome[on])
    assert not a[skipped].any() and not b[skipped].any()
    # as in test_blocked_visits_only_the_reachable_cosets, a visited column that cancels
    # may keep a round-off residue in either product; above that the exact zeros agree
    residue = (np.abs(a) < 1e-14) & (np.abs(b) < 1e-14)
    assert np.array_equal(a[~residue] == 0, b[~residue] == 0)


def test_blocked_stacks_one_unitary_per_coset():
    # flips 0b110 and 0b011 on qubits 1-3 span {0, 110, 011, 101}: two cosets of four
    # patterns, one (2, 4, 4) stack for each parity of the Z letter on qubit 0
    n = 4
    terms = {(0b0110, 0b0000): 0.3, (0b0110, 0b1010): -0.4, (0b0011, 0b0001): 0.5}
    terms[0, 0b0101] = 0.2
    h = PauliSum(n, {k: complex(c) for k, c in terms.items()})
    psi0 = np.exp(1j * np.arange(1 << n)) / (1 << n) ** 0.5
    for order in (1, 2):
        plan = make_plan(h, 0.6, 3, order=order)
        [(_, sup_off, _, _, slices)] = [s for s in _compile_plan(plan) if s[0] == "blk"]
        assert sup_off.shape == (2, 4)
        assert [u.shape for _, u in slices] == [(2, 4, 4)] * 2
        a = trotter_reference(plan, psi0)
        b = trotter_evolve(plan, psi0)
        assert np.max(np.abs(a - b)) < 1e-12


def _assert_pieces_tile_the_blocks(plan):
    # all syndromes' pieces of a block cover each of its (coset, column) pairs, hence
    # each register index, exactly once, with one unitary per coset row; one syndrome's
    # pieces cover exactly the indices of that syndrome
    n_syn = 1 << len(plan._checks)
    syndrome = _syndromes(np.arange(1 << plan.n_qubits), plan._checks)
    blocks = [s for s in plan._compiled if s[0] == "blk"]
    assert blocks
    for block in blocks:
        for wanted in [set(range(n_syn))] + [{s} for s in range(n_syn)]:
            pieces = _reachable(block, wanted)[1]
            assert all(u.shape[0] == sup.shape[0] for sup, _, u in pieces)
            covered = np.concatenate([(sup + rest).ravel() for sup, rest, _ in pieces])
            want = np.flatnonzero(np.isin(syndrome, list(wanted)))
            assert np.array_equal(np.sort(covered), want)


def test_reachable_pieces_tile_the_coupling_sweep_blocks(coupling_sweep_runs):
    _assert_pieces_tile_the_blocks(coupling_sweep_runs[0][0])


def test_reachable_pieces_tile_random_blocks():
    # flips from two or three base masks on the last four qubits: blocks of several
    # cosets, and signature slices of several syndromes' column ranges each
    rng = np.random.default_rng(11)
    for n in (5, 6, 7, 8, 9):
        base = [int(v) for v in rng.integers(1, 16, rng.integers(2, 4))]
        terms = {(0, int(z)): 0.3 for z in rng.integers(0, 1 << n, 2)}
        for x in {base[0], base[1], base[0] ^ base[-1]}:
            for z in rng.integers(0, 1 << n, 2):
                terms[x, int(z)] = float(rng.normal())
        h = PauliSum(n, {k: complex(c) for k, c in terms.items()})
        for order in (1, 2):
            _assert_pieces_tile_the_blocks(make_plan(h, 0.3, 1, order=order))


def test_blocked_handles_a_string_wider_than_a_block():
    # a string flipping more than _BLOCK_QUBIT_CAP = 8 qubits forms a segment of its own
    n = 9
    h = PauliSum(n, {((1 << n) - 1, 0b1): 0.3 + 0j, (0b11, 0): 0.2 + 0j, (0, 0b101): 0.1 + 0j})
    psi0 = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    for order in (1, 2):
        plan = make_plan(h, 0.5, 2, order=order)
        a = trotter_reference(plan, psi0)
        b = trotter_evolve(plan, psi0)
        assert np.max(np.abs(a - b)) < 1e-12


def _assert_compiled_like_the_dense_update(compile_segments):
    """The segments compile_segments() returns equal those composed by compose_reference:
    same layout, and every stored stack the same bits, signed zeros too."""
    got = compile_segments()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_compose", compose_reference)
        want = compile_segments()
    assert [s[0] for s in got] == [s[0] for s in want]
    for a, b in zip(got, want):
        if a[0] == "blk":
            (_, sup_a, rest_a, groups_a, slices_a), (_, sup_b, rest_b, groups_b, slices_b) = a, b
            assert np.array_equal(sup_a, sup_b) and np.array_equal(rest_a, rest_b)
            assert groups_a == groups_b and [r for r, _ in slices_a] == [r for r, _ in slices_b]
            for (_, u_a), (_, u_b) in zip(slices_a, slices_b):
                assert np.array_equal(u_a.view(np.uint64), u_b.view(np.uint64))


def _coupling_sweep_plan(coupling: float, order: int):
    cfg = scenarios.parse_config(json.dumps({"scenario": "coupling-sweep"}))
    [(_, config)] = cfg.registers()
    params = replace(cfg.params, coupling=coupling)
    h = build_h(config, params, QubitLayout(config), cfg.parts, cfg.cross_species_string)
    return make_plan(h, cfg.t_max, cfg.n_steps, order)


@pytest.mark.parametrize("coupling, order", [(1.0, 1), (1.0, 2), (5.0, 1), (5.0, 2)])
def test_coupling_sweep_blocks_compose_like_the_dense_update(coupling, order):
    plan = _coupling_sweep_plan(coupling, order)
    _assert_compiled_like_the_dense_update(lambda: _compile_plan(plan))


def _term_phase_product(run, n: int) -> np.ndarray:
    """The phase vector of a run of diagonal rotations, each looked up per index."""
    idx = np.arange(1 << n)
    want = np.ones(1 << n, dtype=complex)
    for _, z, angle in run:
        want *= math.cos(angle) - 1j * math.sin(angle) * term_phase(idx, 0, z)
    return want


def test_diagonal_factor_is_the_product_of_term_phases():
    # each diagonal rotation takes one of two values by the parity of the index under z;
    # looked up per index they must multiply to the bits of the per-index phase product.
    # At order 2 the step opens and closes with a diagonal run, the closing one in
    # descending z, so its phase vector spans the widest z from the first rotation on.
    for order in (1, 2):
        plan = _coupling_sweep_plan(5.0, order)
        runs = [list(g) for diag, g in groupby(plan.rotations, key=lambda r: r[0] == 0) if diag]
        diags = [s[1] for s in _compile_plan(plan) if s[0] == "diag"]
        assert len(diags) == len(runs) == order
        if order == 2:
            assert [z for _, z, _ in runs[1]] == sorted((z for _, z, _ in runs[1]), reverse=True)
        for run, diag in zip(runs, diags):
            want = _term_phase_product(run, plan.n_qubits)
            assert np.array_equal(diag.view(np.uint64), want.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    terms=st.lists(st.tuples(st.integers(1, (1 << 10) - 1), st.floats(-4.0, 4.0)),
                   min_size=1, max_size=8),
    arrange=st.sampled_from(["as drawn", "ascending", "descending"]),
)
def test_diagonal_runs_in_any_order_are_the_product_of_term_phases(n, terms, arrange):
    # the phase vector grows with the widest z seen so far: a run in descending z spans
    # its widest z from the start, one in ascending z widens at every new top bit
    run = [(0, z & ((1 << n) - 1) or 1, angle) for z, angle in terms]
    if arrange != "as drawn":
        run.sort(key=lambda r: r[1], reverse=arrange == "descending")
    kind, factor = evolve._compile_diag(run, n)
    want = _term_phase_product(run, n)
    assert kind == "diag" and np.array_equal(factor.view(np.uint64), want.view(np.uint64))


@st.composite
def _flip_runs(draw):
    """(n, run): a run of flip rotations on n <= 10 qubits whose flips span d <= 6 of them.

    It flips each of d independent base masks on f <= 8 qubits (base mask i alone holds
    pivot qubit i) and XORs of them, in any order, so new span directions arrive at any
    point of the run; the Z letters off the flipped qubits are none (w_pos = -1) or one
    of two masks, so up to 4 signatures; Z letters on the flipped qubits make odd-Y
    strings (eta = +-i); angles past pi/2 give cos < 0.
    """
    n = draw(st.integers(1, 10), label="n")
    d = draw(st.integers(1, min(n, 6)), label="d")
    f = draw(st.integers(d, min(n, 8)), label="f")
    qubits = draw(st.permutations(range(n)), label="qubits")[:f]
    free = sum(1 << q for q in qubits[d:])
    base = [1 << q | draw(st.integers(0, free), label="base") & free for q in qubits[:d]]
    union = reduce(or_, base)
    masks = st.integers(0, (1 << n) - 1).map(lambda m: m & ~union)
    outside = draw(st.lists(masks, min_size=2, max_size=2), label="outside")
    combos = st.lists(st.sampled_from(base), min_size=1, max_size=3).map(lambda p: reduce(xor, p))
    more = draw(st.lists(combos.filter(bool), max_size=16), label="more")
    angles = st.floats(-4.0, 4.0) | st.sampled_from([0.0, math.pi / 2, -math.pi, math.pi])
    run = []
    for x in draw(st.permutations(base + more), label="order"):
        z_in = draw(st.integers(0, union), label="z") & union
        z_out = draw(st.sampled_from([0, *outside]), label="z out")
        run.append((x, z_in | z_out, draw(angles, label="angle")))
    return n, run


# _compose holds a block on the span its flips have reached and widens it at each new
# span direction, and to the whole span at the first cosine <= 0
@settings(max_examples=60, deadline=None)
@given(block=_flip_runs())
# a cosine <= 0 at the first, a middle and the last rotation.  The first two come before
# the last span direction, which arrives at angle 0, so the entries the dense update
# turns into -0 stay zeros to the end; the last rotation brings the last direction
@example(block=(3, [(0b001, 0b100, 2.0), (0b001, 0b010, 0.4), (0b010, 0b100, 0.0)]))
@example(block=(4, [(0b0001, 0, 0.3), (0b0001, 0b0010, 2.5), (0b0011, 0b1000, 0.0),
                    (0b0001, 0, -0.4), (0b0100, 0b1000, -0.0)]))
@example(block=(4, [(0b0001, 0b1000, 0.3), (0b0010, 0, 0.5), (0b0011, 0b0100, 1.1),
                    (0b0100, 0b0001, -math.pi)]))
# the basis flips all before any XOR of them, and interleaved with XORs of them
@example(block=(5, [(0b00001, 0b10000, 0.3), (0b00010, 0, 0.5), (0b00100, 0b00001, -0.7),
                    (0b00011, 0, 0.2), (0b00110, 0b01000, 1.1), (0b00111, 0b10010, 0.9)]))
@example(block=(5, [(0b00001, 0b10000, 0.3), (0b00010, 0, 0.5), (0b00011, 0b01001, -0.7),
                    (0b00100, 0b00001, 0.2), (0b00101, 0b01000, 1.1), (0b00110, 0, 0.9),
                    (0b01000, 0b10000, 0.4), (0b01011, 0b00100, -1.3)]))
def test_random_blocks_compose_like_the_dense_update(block):
    n, run = block
    checks = _parity_checks({x for x, _, _ in run}, n)
    _assert_compiled_like_the_dense_update(lambda: _compile_block(run, n, checks))


def test_trotter_transition_converges_to_exact(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    target = indices[1]
    exact = exact_evolve(h, psi0[indices], 0.2, indices)
    p_exact = abs(exact[1]) ** 2
    deviations = []
    for n_steps in (2, 10, 50):
        psi = trotter_evolve(make_plan(h, 0.2, n_steps), psi0)
        deviations.append(abs(abs(psi[target]) ** 2 - p_exact))
    assert deviations[2] < deviations[1] < deviations[0]
    assert deviations[2] < 2e-3


def test_order2_beats_order1(two_level):
    _, layout, h, _, psi0, _, indices = two_level
    # In this two-state sector only the diagonal part D and one flip group V act, and the
    # order-2 step e^{-iD/2} e^{-iV} e^{-iD/2} is the order-1 step conjugated by the diagonal
    # half step: from a basis state the probabilities agree exactly between the orders,
    # so only the amplitudes (their phases) can show order 2's gain.
    exact = _on_register(exact_evolve(h, psi0[indices], 0.2, indices), indices, psi0)
    amp_errs, prob_errs = {}, {}
    for order in (1, 2):
        psi = trotter_evolve(make_plan(h, 0.2, 10, order=order), psi0)
        amp_errs[order] = np.linalg.norm(psi - exact)
        prob_errs[order] = np.linalg.norm(np.abs(psi) ** 2 - np.abs(exact) ** 2)
    assert amp_errs[2] <= amp_errs[1]
    assert abs(prob_errs[2] - prob_errs[1]) < 1e-12


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
    counts = sample_counts(psi, 100, 0, np.arange(8), 3)
    assert counts == {"101": 100}


def test_sample_counts_reproducible_and_binomial():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    a = sample_counts(psi, 8192, 42, np.arange(4), 2)
    b = sample_counts(psi, 8192, 42, np.arange(4), 2)
    assert a == b
    assert sum(a.values()) == 8192
    sigma = np.sqrt(8192 * 0.25)
    assert abs(a["00"] - 4096) < 5 * sigma
    assert set(a) == {"00", "11"}


def test_sample_counts_requires_shots():
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0 + 0j]), 0, 1, np.arange(1), 0)


def test_sample_counts_on_indices_needs_a_wide_enough_register():
    amp = np.array([0.6, 0.8])
    with pytest.raises(ValueError):
        sample_counts(amp, 10, seed=1, indices=[5, 9], n_qubits=0)
    with pytest.raises(ValueError):
        sample_counts(amp, 10, seed=1, indices=[5, 9], n_qubits=3)
    counts = sample_counts(amp, 10, seed=1, indices=[5, 9], n_qubits=5)
    assert set(counts) <= {"00101", "01001"} and sum(counts.values()) == 10
    for negative in ([-3, -1], [-9, 2]):  # formatted, they would read '-11', '-01' and '-1001'
        with pytest.raises(ValueError, match="negative"):
            sample_counts(amp, 10, seed=1, indices=negative, n_qubits=3)


def test_sample_counts_on_indices_needs_one_increasing_index_per_amplitude():
    # unsorted indices would reorder the multinomial's categories and change its draws
    amp = np.array([0.6, 0.0, 0.8])
    for bad in ([3, 5, 9, 12], [3, 5], [9, 3, 5], [3, 3, 5]):
        with pytest.raises(ValueError, match="increasing"):
            sample_counts(amp, 10, seed=1, indices=bad, n_qubits=4)
    counts = sample_counts(amp, 10, seed=1, indices=[3, 5, 9], n_qubits=4)
    assert set(counts) <= {"0011", "1001"} and sum(counts.values()) == 10


@lru_cache(maxsize=None)
def _reference_charges(config: ModeConfig):
    return charge_reference(QubitLayout(config))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    nf=st.integers(1, 3),
    na=st.integers(1, 3),
    modals=st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3),
)
def test_readout_on_nonzero_entries_equals_the_register_readout(data, nf, na, modals):
    # Runs read leakage and shots on (psi[nz], nz), the nonzero entries of a register
    # vector and their indices.  Amplitudes spread over 17 decades, as off-sector
    # round-off does, and the leakage must match the register's to 1e-12 relative, the
    # draws bit for bit: a zero category draws nothing, and only a draw at a tie can
    # see the normaliser summed in another grouping.
    config = ModeConfig(nf, na, len(modals), tuple(modals))
    layout = QubitLayout(config)
    n = layout.total_qubits
    k_ref, q_ref = _reference_charges(config)
    states = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True)
    on = data.draw(states, label="on")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="psi seed"))
    psi = np.zeros(1 << n, dtype=complex)
    scale = 10.0 ** -rng.integers(0, 18, len(on))
    psi[on] = scale * (rng.standard_normal(len(on)) + 1j * rng.standard_normal(len(on)))
    psi /= np.linalg.norm(psi)
    K0, Q0 = int(k_ref[on[0]]), int(q_ref[on[0]])
    probs = np.abs(psi) ** 2
    want = (probs[k_ref != K0].sum(), probs[q_ref != Q0].sum())
    nz = np.flatnonzero(psi)
    assert leakage(psi[nz], nz, K0, Q0, layout) == pytest.approx(want, rel=1e-12, abs=0)
    if not _draw_at_a_tie(psi):
        everywhere = np.arange(psi.size)
        for seed in range(3):
            assert sample_counts(psi[nz], 4096, seed, nz, n) == (
                sample_counts(psi, 4096, seed, everywhere, n)
            )


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
