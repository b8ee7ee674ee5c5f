"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  Criteria that sweep parameters build their Hamiltonians from
coupling-resolved components so the whole suite stays within its time budget.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from lfyukawa.diagnostics import leakage, survival
from lfyukawa.evolve import (
    exact_evolve,
    make_plan,
    plan_cost,
    sample_counts,
    trotter_evolve,
)
from lfyukawa.fock import (
    FockState,
    ModeConfig,
    QubitLayout,
    enumerate_sector,
    k_of,
    q_of,
    sector_indices,
)
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import (
    boson_ladder,
    product,
    proj0,
    proj1,
    sigma_minus,
    sigma_plus,
    subspace_matrix,
)
from lfyukawa.scenarios import parse_config, run_scenario

from oracles import (
    FockOracle,
    build_charge_reference,
    commutator_reference,
    rabi_transition,
    to_matrix,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {label}  ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {number:2d}] PASS  {label}  ({time.time() - start:.1f}s)")


def _exact_on_register(h, psi0, t, sector, layout):
    """exact_evolve from psi0's sector amplitudes, scattered into a register statevector."""
    indices = sector_indices(layout.config, *sector)
    psi = np.zeros_like(psi0)
    psi[indices] = exact_evolve(h, psi0[indices], t, indices)
    return psi


# -- 1: bosonic mapping exactness ---------------------------------------------------


def test_c01_boson_mapping_m7_expansion():
    with criterion(1, "m=7 creation operator equals the 7-word expansion"):
        start = time.time()
        layout = QubitLayout(ModeConfig(1, 1, 1, (7,)))
        n = layout.total_qubits

        def word(coeff, *factors):
            out = None
            for offset, factor in enumerate(factors):
                op = factor(n, 2 + offset)
                out = op if out is None else product(out, op)
            return coeff * out

        expected = (
            word(math.sqrt(1.0), proj0, proj0, sigma_minus)
            + word(math.sqrt(2.0), proj0, sigma_minus, sigma_plus)
            + word(math.sqrt(3.0), proj0, proj1, sigma_minus)
            + word(math.sqrt(4.0), sigma_minus, sigma_plus, sigma_plus)
            + word(math.sqrt(5.0), proj1, proj0, sigma_minus)
            + word(math.sqrt(6.0), proj1, sigma_minus, sigma_plus)
            + word(math.sqrt(7.0), proj1, proj1, sigma_minus)
        )
        built = boson_ladder(1, True, layout)
        assert built.equals(expected, 1e-12)
        assert time.time() - start < 1.0


# -- 2: ladder-oracle equivalence ---------------------------------------------------


def test_c02_ladder_oracle_all_modal_caps():
    with criterion(2, "a, a_dagger match the defining ladder action for m in {1,3,7,15}"):
        for modals in (1, 3, 7, 15):
            layout = QubitLayout(ModeConfig(1, 1, 1, (modals,)))
            ad = boson_ladder(1, True, layout)
            a = boson_ladder(1, False, layout)
            dim = modals + 1
            ref = np.zeros((dim, dim), dtype=complex)
            for level in range(modals):
                ref[level + 1, level] = math.sqrt(level + 1)
            got_ad = to_matrix(ad)[:dim, :dim]
            got_a = to_matrix(a)[:dim, :dim]
            assert np.max(np.abs(got_ad - ref)) < 1e-10
            assert np.max(np.abs(got_a - ref.conj().T)) < 1e-10
            comm = to_matrix(commutator_reference(a, ad))[:dim, :dim]
            want = np.eye(dim)
            want[modals, modals] = -modals
            assert np.max(np.abs(comm - want)) < 1e-10


# -- 3: dual Hamiltonian construction -----------------------------------------------


def _pauli_components(config, layout):
    """Sector-ready Pauli sums at unit couplings: mass, inertia, vertex, quartic."""
    base = ModelParams(coupling=1.0, inertia_cutoff=2048)
    g1 = base.g
    hm_off = build_h(config, ModelParams(coupling=0.0), layout, parts=("HM",))
    hm_on = build_h(
        config, ModelParams(coupling=1.0, include_inertias=True), layout, parts=("HM",)
    )
    inertia = (hm_on - hm_off) * (1.0 / g1**2)
    vertex = build_h(config, base, layout, parts=("HV",)) * (1.0 / (g1 * base.fermion_mass))
    quartic = build_h(config, base, layout, parts=("HS", "HF")) * (1.0 / g1**2)
    return hm_off, inertia, vertex, quartic


def test_c03_dual_construction_every_small_sector():
    with criterion(3, "Pauli-string H equals the direct Fock-matrix H on every sector"):
        start = time.time()
        couplings = (0.0, 1.0, 4.0)
        for n_modes in (2, 3, 4):
            config = ModeConfig.uniform(n_modes, 3)
            layout = QubitLayout(config)
            hm, hin, hv, hq = _pauli_components(config, layout)
            oracle = FockOracle(config, 6.7, 1.0, 2048)
            checked = 0
            for K in range(config.max_k + 1):
                for Q in range(-n_modes, n_modes + 1):
                    states = enumerate_sector(config, K, Q)
                    if not states or len(states) > 200:
                        continue
                    indices = [layout.encode(s) for s in states]
                    p_mass = subspace_matrix(hm, indices)
                    p_inertia = subspace_matrix(hin, indices)
                    p_vertex = subspace_matrix(hv, indices)
                    p_quartic = subspace_matrix(hq, indices)
                    o_mass, o_inertia, o_vertex, o_quartic = oracle.components(states)
                    for lam in couplings:
                        g = lam / math.sqrt(4.0 * math.pi)
                        got = p_mass + g * 6.7 * p_vertex + g**2 * p_quartic
                        want = o_mass + g * 6.7 * o_vertex + g**2 * o_quartic
                        assert np.max(np.abs(got - want)) < 1e-9
                        got_i = got + g**2 * p_inertia
                        want_i = want + g**2 * o_inertia
                        assert np.max(np.abs(got_i - want_i)) < 1e-9
                    checked += len(states)
            assert checked > 0
        assert time.time() - start < 60.0


# -- 4: conservation ------------------------------------------------------------------


def test_c04_charge_conservation_algebraic_and_dynamic():
    with criterion(4, "[H,K] = [H,Q] = 0 and exact evolution never leaks"):
        for n_modes in (2, 3):
            config = ModeConfig.uniform(n_modes, 3)
            layout = QubitLayout(config)
            h = build_h(config, ModelParams(coupling=4.0), layout)
            k_op = build_charge_reference("K", config, layout)
            q_op = build_charge_reference("Q", config, layout)
            assert len(commutator_reference(h, k_op).prune(1e-10)) == 0
            assert len(commutator_reference(h, q_op).prune(1e-10)) == 0
        config = ModeConfig.uniform(3, 3)
        layout = QubitLayout(config)
        h = build_h(config, ModelParams(coupling=4.0), layout)
        for state0 in (
            FockState((0, 1, 0), (0, 0, 0), (0, 0, 0)),
            FockState((1, 0, 0), (1, 0, 0), (0, 1, 0)),
        ):
            psi0 = layout.basis_vector(state0)
            k0, q0 = k_of(state0), q_of(state0)
            psi = _exact_on_register(h, psi0, 0.2, (k0, q0), layout)
            leak_k, leak_q = leakage(psi, np.arange(psi.size), k0, q0, layout)
            assert leak_k < 1e-10 and leak_q < 1e-10


# -- 5: exact two-level dynamics vs the published curve -------------------------------


@pytest.fixture(scope="module")
def fig2_system():
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    h = build_h(config, ModelParams(coupling=4.0), layout)
    state0 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    psi0 = layout.basis_vector(state0)
    indices = sector_indices(config, 2, 1)
    times = np.round(np.arange(0.0, 1.0 + 0.005, 0.01), 12)
    evolved = exact_evolve(h, psi0[indices], times, indices)
    return layout, h, indices, times, evolved


def test_c05_dynamics_confined_to_two_states(fig2_system):
    with criterion(5, "exact dynamics confined to the 2-state sector"):
        layout, _, indices, _, evolved = fig2_system
        inside = np.abs(evolved[:, 0]) ** 2 + np.abs(evolved[:, 1]) ** 2
        assert np.max(np.abs(inside - 1.0)) < 1e-10


def test_c05_matches_closed_form_rabi(fig2_system):
    with criterion(5, "exact curve matches the closed-form two-level formula to 1e-8"):
        _, h, indices, times, evolved = fig2_system
        block = subspace_matrix(h, indices)
        v = block[0, 1].real
        delta = (block[1, 1] - block[0, 0]).real
        got = np.abs(evolved[:, 1]) ** 2
        assert np.max(np.abs(got - rabi_transition(v, delta, times))) < 1e-8


def test_c05_published_peak_value_and_time(fig2_system):
    with criterion(5, "peak transition 0.25 +/- 0.05 at t = 0.2 +/- 0.03"):
        _, _, indices, times, evolved = fig2_system
        trans = np.abs(evolved[:, 1]) ** 2
        peak = int(np.argmax(trans))
        assert trans[peak] == pytest.approx(0.25, abs=0.05)
        assert times[peak] == pytest.approx(0.2, abs=0.03)


# -- 6: Trotter accuracy at t = 0.2 ----------------------------------------------------


@pytest.fixture(scope="module")
def trotter_sweep(fig2_system):
    layout, h, indices, _, _ = fig2_system
    psi0 = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi0[indices[0]] = 1.0
    exact = exact_evolve(h, psi0[indices], 0.2, indices)
    p_exact = abs(exact[1]) ** 2
    results = {}
    for n_steps in range(1, 11):
        psi = trotter_evolve(make_plan(h, 0.2, n_steps), psi0)
        in_sector = abs(psi[indices[0]]) ** 2 + abs(psi[indices[1]]) ** 2
        results[n_steps] = (abs(psi[indices[1]]) ** 2, in_sector)
    return p_exact, results


def test_c06_sector_occupancy_at_seven_steps(trotter_sweep):
    with criterion(6, "n_T >= 7 keeps >= 0.999 probability on the two allowed states"):
        _, results = trotter_sweep
        for n_steps in range(7, 11):
            assert results[n_steps][1] >= 0.999


def test_c06_deviation_monotone(trotter_sweep):
    with criterion(6, "deviation from exact non-increasing over n_T = 5..10"):
        p_exact, results = trotter_sweep
        devs = [abs(results[n][0] - p_exact) for n in range(5, 11)]
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-6


def test_c06_ten_steps_within_five_percent(trotter_sweep):
    with criterion(6, "n_T = 10 transition within 5% relative of exact"):
        p_exact, results = trotter_sweep
        rel = abs(results[10][0] - p_exact) / p_exact
        assert rel <= 0.05


# -- 7: coupling sweep properties ------------------------------------------------------


@pytest.fixture(scope="module")
def coupling_sweep_states():
    config = ModeConfig.uniform(4, 3)
    layout = QubitLayout(config)
    zeros = (0, 0, 0, 0)
    boson2 = FockState(zeros, zeros, (0, 1, 0, 0))
    f2 = FockState((0, 1, 0, 0), zeros, zeros)
    fbar2 = FockState(zeros, (0, 1, 0, 0), zeros)
    out = {}
    for lam in (1.0, 2.0, 3.0, 4.0, 5.0):
        h = build_h(config, ModelParams(coupling=lam), layout)
        plan = make_plan(h, 0.2, 10, order=1)
        per_state = {}
        for name, state in (("phi2", boson2), ("f2", f2), ("fbar2", fbar2)):
            psi0 = layout.basis_vector(state)
            psi = trotter_evolve(plan, psi0)
            exact = _exact_on_register(h, psi0, 0.2, (k_of(state), q_of(state)), layout)
            per_state[name] = (
                survival(psi, psi0),
                survival(exact, psi0),
                psi,
                layout.encode(state),
            )
        out[lam] = per_state
    return layout, out


@pytest.mark.slow
def test_c07_angel_state_survives(coupling_sweep_states):
    with criterion(7, "single mode-2 boson survives with probability 1 for all couplings"):
        _, sweep = coupling_sweep_states
        for lam, per_state in sweep.items():
            assert per_state["phi2"][0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.slow
def test_c07_fermion_antifermion_symmetry(coupling_sweep_states):
    with criterion(7, "fermion and antifermion survival curves coincide"):
        layout, sweep = coupling_sweep_states
        for lam, per_state in sweep.items():
            assert abs(per_state["f2"][1] - per_state["fbar2"][1]) < 1e-6  # exact
            assert abs(per_state["f2"][0] - per_state["fbar2"][0]) < 1e-6  # trotterized
            # sampled at 8192 shots: agreement within 2 sigma binomial noise
            shots = 8192
            samples = {}
            for i, name in enumerate(("f2", "fbar2")):
                _, _, psi, index = per_state[name]
                counts = sample_counts(
                    psi, shots, 9000 + int(lam) * 10 + i, np.arange(psi.size), layout.total_qubits
                )
                bits = format(index, f"0{layout.total_qubits}b")
                samples[name] = counts.get(bits, 0) / shots
            p = per_state["f2"][0]
            sigma = math.sqrt(2.0 * p * (1.0 - p) / shots)
            assert abs(samples["f2"] - samples["fbar2"]) <= 2.0 * sigma + 1e-12


@pytest.mark.slow
def test_c07_survival_decreases_from_weak_to_moderate_coupling(coupling_sweep_states):
    with criterion(7, "survival(lambda=1) > survival(lambda=3) for the mode-2 fermion"):
        _, sweep = coupling_sweep_states
        assert sweep[1.0]["f2"][0] > sweep[3.0]["f2"][0]


# -- 8: two-proton collision qualitative shape -----------------------------------------


@pytest.fixture(scope="module")
def pp_records():
    start = time.time()
    cfg = parse_config(json.dumps({"scenario": "pp-collision"}))
    records, _, _, _ = run_scenario(cfg, write_files=False)
    return records, time.time() - start


@pytest.mark.slow
def test_c08_pp_rise_leak_growth_and_runtime(pp_records):
    with criterion(8, "pion-pair probability rises from zero; leakage grows; < 30 min"):
        records, elapsed = pp_records
        trans = np.array([r.transition for r in records])
        assert trans[0] < 0.01  # rises from zero
        assert np.max(trans) > 0.1  # a real signal develops
        at = lambda t: records[int(round(t / 0.005)) - 1]
        assert at(0.4).leak_k > at(0.1).leak_k
        assert at(0.4).leak_q > at(0.1).leak_q
        assert elapsed < 1800.0


@pytest.mark.slow
def test_c08_pp_peak_inside_published_window(pp_records):
    with criterion(8, "pion-pair probability attains its maximum in t = [0.05, 0.2]"):
        records, _ = pp_records
        times = np.array([r.time for r in records])
        trans = np.array([r.transition for r in records])
        peak_time = times[int(np.argmax(trans))]
        assert 0.05 <= peak_time <= 0.2


@pytest.mark.slow
def test_c08_pp_reproduces_golden_first_steps(pp_records):
    with criterion(8, "first 20 steps reproduce the committed pp-collision run to 1e-10"):
        records, _ = pp_records
        golden = Path(__file__).resolve().parent / "golden" / "demo-pp-collision" / "pp-collision.csv"
        with open(golden, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for rec, row in zip(records, rows):
            assert rec.time == pytest.approx(float(row["time"]), abs=1e-12)
            assert abs(rec.survival - float(row["survival"])) <= 1e-10
            assert abs(rec.transition - float(row["transition"])) <= 1e-10


# -- 9: minimal two-mode run -----------------------------------------------------------


def test_c09_hardware_minimal_numbers():
    with criterion(9, "single-step transition 0.28 +/- 0.03 at lambda=1, 0.60 +/- 0.05 at 4"):
        start = time.time()
        config = ModeConfig.uniform(2, 1)
        layout = QubitLayout(config)
        state0 = FockState((0, 1), (0, 0), (0, 0))
        psi0 = layout.basis_vector(state0)
        target = layout.parse_bits("10 00 10")
        expectations = {1.0: (0.28, 0.03), 4.0: (0.60, 0.05)}
        for lam, (center, tol) in expectations.items():
            h = build_h(config, ModelParams(coupling=lam), layout, parts=("HM", "HV"))
            psi = trotter_evolve(make_plan(h, 0.2, 1, order=1), psi0)
            p = abs(psi[target]) ** 2
            assert p == pytest.approx(center, abs=tol)
            counts = sample_counts(
                psi, 8192, 31 + int(lam), np.arange(psi.size), layout.total_qubits
            )
            sampled = counts.get(format(target, f"0{layout.total_qubits}b"), 0) / 8192
            sigma = math.sqrt(p * (1.0 - p) / 8192)
            assert abs(sampled - p) <= tol + 3.0 * sigma
        assert time.time() - start < 1.0


# -- 10: order-2 vs order-1 cost --------------------------------------------------------


def test_c10_order2_cost_ratio():
    with criterion(10, "order-2 per-step rotation count is 1.8-2.0x order 1"):
        config = ModeConfig.uniform(3, 3)
        layout = QubitLayout(config)
        h = build_h(config, ModelParams(coupling=4.0), layout)
        c1 = plan_cost(make_plan(h, 0.2, 10, order=1))
        c2 = plan_cost(make_plan(h, 0.2, 10, order=2))
        ratio = c2.rotations_total / c1.rotations_total
        assert 1.8 <= ratio <= 2.0


# -- 11: determinism --------------------------------------------------------------------


def test_c11_identical_config_reproduces_bytes(tmp_path):
    with criterion(11, "identical config and seed reproduce the CSV byte-for-byte"):
        doc = {
            "scenario": "hardware-minimal",
            "seed": 4242,
            "output_dir": str(tmp_path / "run1"),
        }
        run_scenario(parse_config(json.dumps(doc)))
        doc["output_dir"] = str(tmp_path / "run2")
        run_scenario(parse_config(json.dumps(doc)))
        a = (tmp_path / "run1" / "hardware-minimal.csv").read_bytes()
        b = (tmp_path / "run2" / "hardware-minimal.csv").read_bytes()
        assert a == b
        doc2 = {
            "scenario": "rabi",
            "evolution": {"mode": "exact", "t_max": 0.3, "dt": 0.05},
            "seed": 4242,
            "output_dir": str(tmp_path / "run3"),
        }
        run_scenario(parse_config(json.dumps(doc2)))
        doc2["output_dir"] = str(tmp_path / "run4")
        run_scenario(parse_config(json.dumps(doc2)))
        assert (tmp_path / "run3" / "rabi.csv").read_bytes() == (
            tmp_path / "run4" / "rabi.csv"
        ).read_bytes()
