import numpy as np
import pytest

from lfyukawa.diagnostics import (
    EvolutionRecord,
    leakage,
    records_to_csv,
    survival,
    transition_prob,
)
from lfyukawa.evolve import exact_evolve
from lfyukawa.fock import FockState, ModeConfig, QubitLayout, enumerate_sector, sector_indices
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import PauliString, canonicalize

from oracles import build_charge_reference, expectation


@pytest.fixture(scope="module")
def system():
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    h = build_h(config, ModelParams(coupling=4.0), layout)
    state0 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    return config, layout, h, state0


def _exact_on_register(h, psi0, t, layout):
    """exact_evolve in the (K=2, Q=1) sector, scattered into a register statevector."""
    psi = np.zeros_like(psi0)
    indices = sector_indices(layout.config, 2, 1)
    psi[indices] = exact_evolve(h, psi0[indices], t, indices)
    return psi


def test_transition_prob_takes_positions(system):
    _, layout, _, state0 = system
    psi0 = layout.basis_vector(state0)
    index = layout.encode(state0)
    for targets in ([index], np.array([index]), np.array([index], dtype=np.int32)):
        assert transition_prob(psi0, targets) == pytest.approx(1.0)
    assert transition_prob(psi0, np.array([index + 1])) == 0.0


def test_survival_at_time_zero(system):
    _, layout, _, state0 = system
    psi0 = layout.basis_vector(state0)
    assert survival(psi0, psi0) == pytest.approx(1.0)


def test_survival_plus_transitions_exhaust_probability(system):
    config, layout, h, state0 = system
    psi0 = layout.basis_vector(state0)
    psi = _exact_on_register(h, psi0, 0.13, layout)
    everything = range(1 << layout.total_qubits)
    assert transition_prob(psi, everything) == pytest.approx(1.0)
    others = [i for i in everything if i != layout.encode(state0)]
    assert survival(psi, psi0) + transition_prob(psi, others) == pytest.approx(1.0)


def test_two_level_transition_is_complement_of_survival(system):
    config, layout, h, state0 = system
    psi0 = layout.basis_vector(state0)
    psi = _exact_on_register(h, psi0, 0.095, layout)
    partner = [layout.encode(s) for s in enumerate_sector(config, 2, 1) if s != state0]
    assert transition_prob(psi, partner) == pytest.approx(
        1.0 - survival(psi, psi0), abs=1e-10
    )


def test_leakage_zero_under_exact_evolution(system):
    _, layout, h, state0 = system
    psi0 = layout.basis_vector(state0)
    psi = _exact_on_register(h, psi0, 0.4, layout)
    leak_k, leak_q = leakage(psi, np.arange(psi.size), 2, 1, layout)
    assert leak_k < 1e-10 and leak_q < 1e-10


def test_leakage_counts_double_violations_in_both(system):
    _, layout, _, _ = system
    # fermion mode 1: K=1, Q=1 -- violates both relative to (K=2, Q=0)
    psi = layout.basis_vector(FockState((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    leak_k, leak_q = leakage(psi, np.arange(psi.size), 2, 0, layout)
    assert leak_k == pytest.approx(1.0) and leak_q == pytest.approx(1.0)


def test_expectation_charges_and_energy(system):
    config, layout, h, state0 = system
    psi0 = layout.basis_vector(state0)
    k_op = build_charge_reference("K", config, layout)
    q_op = build_charge_reference("Q", config, layout)
    assert expectation(k_op, psi0) == pytest.approx(2.0)
    trio = layout.basis_vector(FockState((0, 1, 0), (0, 1, 0), (0, 0, 0)))
    assert expectation(q_op, trio) == pytest.approx(0.0)
    e0 = expectation(h, psi0)
    psi = _exact_on_register(h, psi0, 0.2, layout)
    assert expectation(h, psi) == pytest.approx(e0, abs=1e-8)


def test_expectation_rejects_non_hermitian(system):
    _, layout, _, state0 = system
    psi0 = layout.basis_vector(state0)
    bad = canonicalize([PauliString(1j, "I" * layout.total_qubits)])
    with pytest.raises(ValueError):
        expectation(bad, psi0)


def test_records_to_csv_layout():
    records = [
        EvolutionRecord(0.1, 0.9, 0.1, 0.0, 0.0, metadata={"lambda": 2.0, "extra": 1.5}),
        EvolutionRecord(0.2, 0.8, 0.2, 1e-12, 0.0, metadata={"lambda": 2.0, "extra": 2.5}),
    ]
    text = records_to_csv(records, ("lambda",), ("extra",))
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,time,survival,transition,leak_K,leak_Q,extra"
    assert lines[1].startswith("2,0.1,0.9,0.1,0,0,1.5")
    assert len(lines) == 3
