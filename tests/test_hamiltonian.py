import hashlib
import itertools
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lfyukawa.fock import FockState, ModeConfig, QubitLayout, enumerate_sector
from lfyukawa.hamiltonian import (
    PARTS,
    ModelParams,
    _coefficient_scale,
    _part_slices,
    bracket,
    build_h,
    build_part,
    self_inertia,
)
from lfyukawa.pauli import adjoint, dumps, loads, subspace_matrix

from oracles import (
    FockOracle,
    bracket_exact,
    build_charge_reference,
    build_h_reference,
    build_part_reference,
    commutator_reference,
    flip_group_tuples,
    flip_groups_reference,
    inertia_exact,
    store_of,
    to_matrix,
)


def test_bracket_reference_values():
    assert bracket(2, -2) == pytest.approx(0.5)
    assert bracket(0, 5) == 0.0
    assert bracket(5, 0) == 0.0
    assert bracket(3, -2) == 0.0
    assert bracket(-2, 2) == pytest.approx(-0.5)


def test_bracket_matches_exact_fractions():
    for n in range(-6, 7):
        for m in range(-6, 7):
            assert bracket(n, m) == pytest.approx(float(bracket_exact(n, m)), abs=0.0)


def test_inertia_reference_values():
    assert self_inertia("gamma", 1, 2) == pytest.approx(2.0 / 3.0)
    assert self_inertia("beta", 1, 1) == 0.0


@pytest.mark.parametrize("kind", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inertias_match_exact_summation(kind, n):
    exact = inertia_exact(kind, n, 2048)
    got = self_inertia(kind, n, 2048)
    assert math.isfinite(got)
    assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_inertia_hand_value_small_cutoff():
    # alpha_1 at cutoff 2: (0 - 1/2) + (1/(1-2) - 1/3) = -11/6
    assert self_inertia("alpha", 1, 2) == pytest.approx(-11.0 / 6.0)
    assert float(inertia_exact("alpha", 1, 2)) == pytest.approx(-11.0 / 6.0)


@pytest.fixture(scope="module")
def setup_n3():
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=4.0)
    return config, layout, params


def test_hm_single_fermion_diagonal(setup_n3):
    config, layout, params = setup_n3
    hm = build_part("HM", config, params, layout)
    state = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
    index = layout.encode(state)
    mat = subspace_matrix(hm, [index])
    assert mat[0, 0].real == pytest.approx(6.7**2 / 2.0)
    assert mat[0, 0].real == pytest.approx(22.445)


def test_hs_hf_vanish_at_zero_coupling(setup_n3):
    config, layout, _ = setup_n3
    free = ModelParams(coupling=0.0)
    assert len(build_part("HS", config, free, layout)) == 0
    assert len(build_part("HF", config, free, layout)) == 0
    assert len(build_part("HV", config, free, layout)) == 0


def test_free_theory_is_diagonal_with_mass_over_n(setup_n3):
    config, layout, _ = setup_n3
    free = ModelParams(coupling=0.0)
    h = build_h(config, free, layout)
    for state in enumerate_sector(config, 3, 1):
        index = layout.encode(state)
        want = sum(o * 6.7**2 / n for n, o in enumerate(state.fermions, 1))
        want += sum(o * 6.7**2 / n for n, o in enumerate(state.antifermions, 1))
        want += sum(o * 1.0 / n for n, o in enumerate(state.bosons, 1))
        got = subspace_matrix(h, [index])[0, 0].real
        assert got == pytest.approx(want, rel=1e-12)


def test_h_is_hermitian(setup_n3):
    config, layout, params = setup_n3
    h = build_h(config, params, layout)
    assert adjoint(h).equals(h, 1e-10)
    mat = to_matrix(h)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


def test_charges_are_diagonal_and_match_occupancies(setup_n3):
    config, layout, _ = setup_n3
    from lfyukawa.fock import charges

    k_op = build_charge_reference("K", config, layout)
    q_op = build_charge_reference("Q", config, layout)
    for op in (k_op, q_op):
        for term in op.terms:
            assert set(term.letters) <= {"I", "Z"}
    k_arr, q_arr = charges(layout, np.arange(1 << layout.total_qubits))
    assert np.allclose(np.diag(to_matrix(k_op)).real, k_arr, atol=1e-10)
    assert np.allclose(np.diag(to_matrix(q_op)).real, q_arr, atol=1e-10)


@pytest.mark.parametrize("n_modes", [2, 3])
def test_h_commutes_with_charges(n_modes):
    config = ModeConfig.uniform(n_modes, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=4.0, include_inertias=True, inertia_cutoff=64)
    h = build_h(config, params, layout)
    k_op = build_charge_reference("K", config, layout)
    q_op = build_charge_reference("Q", config, layout)
    assert len(commutator_reference(h, k_op).prune(1e-10)) == 0
    assert len(commutator_reference(h, q_op).prune(1e-10)) == 0


def test_h_block_structure_across_sectors(setup_n3):
    config, layout, params = setup_n3
    from lfyukawa.fock import charges

    h = build_h(config, params, layout)
    mat = to_matrix(h)
    k_arr, q_arr = charges(layout, np.arange(1 << layout.total_qubits))
    label = k_arr * 100 + q_arr  # distinct (K, Q) pairs
    different = label[:, None] != label[None, :]
    assert np.max(np.abs(mat[different])) < 1e-10


def test_canonical_hv_has_fewer_terms_than_raw_expansion(setup_n3):
    config, layout, params = setup_n3
    from lfyukawa.pauli import PauliString, canonicalize

    hv = build_part("HV", config, params, layout)
    # re-expand every canonical term into single-letter products to get a raw count
    raw = []
    for term in hv.terms:
        raw.append(PauliString(0.5 * term.coeff, term.letters))
        raw.append(PauliString(0.5 * term.coeff, term.letters))
    merged = canonicalize(raw)
    assert len(merged) == len(hv)
    assert len(raw) > len(merged)


def test_fermion_antifermion_relabelling_symmetry():
    # swapping the two fermionic species maps H onto itself when inertias are off;
    # the relabelling unitary carries (-1)**(n_f * n_a) from reordering creations
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=3.0)
    h = build_h(config, params, layout)
    mat = to_matrix(h)
    n = layout.total_qubits
    perm = np.zeros(1 << n, dtype=np.int64)
    sign = np.zeros(1 << n, dtype=np.float64)
    for index in range(1 << n):
        state = layout.decode(index)
        swapped = FockState(state.antifermions, state.fermions, state.bosons)
        perm[index] = layout.encode(swapped)
        sign[index] = -1.0 if (sum(state.fermions) * sum(state.antifermions)) % 2 else 1.0
    swapped_mat = sign[:, None] * sign[None, :] * mat[np.ix_(perm, perm)]
    assert np.max(np.abs(mat - swapped_mat)) < 1e-9


def test_dual_construction_on_two_level_sector():
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=4.0)
    states = enumerate_sector(config, 2, 1)
    indices = [layout.encode(s) for s in states]
    h = build_h(config, params, layout)
    got = subspace_matrix(h, indices)
    oracle = FockOracle(config, 6.7, 1.0, 2048)
    want = oracle.matrix(states, 4.0, include_inertias=False)
    assert np.max(np.abs(got - want)) < 1e-9
    # the known vertex matrix element: g * m_F * (1/k + 1/m) for the 2 -> 1+1 step
    g = 4.0 / math.sqrt(4.0 * math.pi)
    assert got[0, 1].real == pytest.approx(g * 6.7 * 1.5, rel=1e-12)


def test_jw_convention_equivalence_on_matrix_elements():
    # global vs per-species strings: same |elements| and same sector spectra
    config = ModeConfig.uniform(2, 3)
    layout = QubitLayout(config)
    params = ModelParams(coupling=3.0)
    h_global = build_h(config, params, layout, cross_species_string=True)
    h_indep = build_h(config, params, layout, cross_species_string=False)
    m_global = to_matrix(h_global)
    m_indep = to_matrix(h_indep)
    assert np.max(np.abs(np.abs(m_global) - np.abs(m_indep))) < 1e-9
    for K in range(0, 5):
        for Q in (-1, 0, 1):
            states = enumerate_sector(config, K, Q)
            if not states:
                continue
            idx = [layout.encode(s) for s in states]
            wg = np.linalg.eigvalsh(m_global[np.ix_(idx, idx)])
            wi = np.linalg.eigvalsh(m_indep[np.ix_(idx, idx)])
            assert np.allclose(wg, wi, atol=1e-8)


def test_params_validation():
    config = ModeConfig.uniform(3, 3)
    with pytest.raises(ValueError):
        ModelParams(fermion_mass=-1.0).validate(config)
    with pytest.raises(ValueError):
        ModelParams(inertia_cutoff=2).validate(config)
    assert ModelParams(coupling=13.315).g == pytest.approx(13.315 / math.sqrt(4 * math.pi))


@pytest.mark.parametrize(
    "config",
    [ModeConfig.uniform(3, 3), ModeConfig(3, 2, 4, (3, 1, 7, 3)), ModeConfig(2, 4, 3, (1, 3, 1))],
    ids=["3", "3-2-4", "2-4-3"],
)
def test_coefficient_bound_covers_jobs_weights_and_terms(config):
    """validate refuses parameters whose coefficient bound overflows, so the bound must hold."""
    modals = max(config.boson_modals)
    for params in (ModelParams(coupling=13.315, include_inertias=True),
                   ModelParams(coupling=-3.0, fermion_mass=1.0, include_inertias=True, inertia_cutoff=9)):
        g, mf, mb = abs(params.g), params.fermion_mass, params.boson_mass
        factor = max(mb * mb, mf * mf, g * g, g * mf)
        inertia = 2 * (1 + math.log(params.inertia_cutoff))
        scale = _coefficient_scale(config, params)
        jobs = [job for part in PARTS for slice_ in _part_slices(part, config, params) for job in slice_]
        assert len(jobs) <= scale / (2 * inertia * modals**3)
        assert max(abs(w) for *_, w in jobs) <= 2 * inertia * factor
        h = build_h(config, params, QubitLayout(config))
        assert np.max(np.abs(h.coeffs)) <= scale * factor
    # g^2 is finite, but the bound on the terms is not
    with pytest.raises(ValueError, match="^coupling: the bound on the Hamiltonian's coefficients"):
        ModelParams(coupling=4.7e154).validate(config)
    ModelParams(coupling=1e100).validate(config)


def test_every_model_field_moves_the_hamiltonian():
    """A document key that leaves the operator unchanged would be a knob that does nothing."""
    config = ModeConfig.uniform(2, 1)
    layout = QubitLayout(config)
    for f in fields(ModelParams):
        base = ModelParams(include_inertias=f.name == "inertia_cutoff")
        value = getattr(base, f.name)
        moved = replace(base, **{f.name: not value if type(value) is bool else type(value)(value / 2)})
        assert dumps(build_h(config, moved, layout)) != dumps(build_h(config, base, layout)), f.name


@pytest.mark.parametrize(
    "run", ["demo-coupling-sweep/coupling-sweep", "demo-pp-collision/pp-collision"]
)
def test_hamiltonians_reproduce_golden_hashes(run):
    """The dumps of every golden run's Hamiltonian hash to the bits its manifest records.

    Each dump also survives a loads round trip, and the flip groups equal the
    per-term reference bit for bit.
    """
    golden = Path(__file__).resolve().parent / "golden"
    manifest = json.loads((golden / f"{run}.manifest.json").read_text())
    cfg = manifest["config"]
    config = ModeConfig(**{f.name: cfg[f.name] for f in fields(ModeConfig)})
    params = ModelParams(**{f.name: cfg[f.name] for f in fields(ModelParams)})
    layout = QubitLayout(config)
    hashes = []
    for lam in cfg.get("lambdas", [cfg["coupling"]]):
        at_lam = replace(params, coupling=lam)
        h = build_h(config, at_lam, layout, tuple(cfg["parts"]), cfg["cross_species_string"])
        text = dumps(h)
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
        assert dumps(loads(text)) == text
        groups, ref = flip_group_tuples(h), flip_groups_reference(h)
        assert [(x, zs) for x, zs, _ in groups] == [(x, zs) for x, zs, _ in ref]
        assert [c.tobytes() for _, _, c in groups] == [c.tobytes() for _, _, c in ref]
    assert hashes == manifest["hamiltonian_hashes"]


def _same_assembly(got, want):
    assert dumps(got) == dumps(want)
    assert list(store_of(got)) == list(store_of(want))
    assert np.array(list(store_of(got).values()), complex).tobytes() == (
        np.array(list(store_of(want).values()), complex).tobytes()
    )


@pytest.mark.parametrize(
    "config",
    [pytest.param(ModeConfig.uniform(n, 3), id=str(n)) for n in (3, 4, 5, 6)]
    + [  # species ranges that differ, where a wrong adjoint or derived-index bound shows
        pytest.param(c, id=f"{c.n_fermion_modes}-{c.n_antifermion_modes}-{c.n_boson_modes}")
        for c in (
            ModeConfig(3, 2, 4, (3, 1, 7, 3)),
            ModeConfig(2, 4, 3, (1, 3, 1)),
            ModeConfig(5, 1, 2, (3, 3)),
        )
    ],
)
def test_assembly_equals_the_term_by_term_reference(config):
    """Every part and the sum equal the dict-loop assembly bit for bit."""
    layout = QubitLayout(config)
    for coupling, cross, inertias in itertools.product((1.0, 13.315), (True, False), (False, True)):
        params = ModelParams(coupling=coupling, include_inertias=inertias)
        for part in PARTS:
            want = build_part_reference(part, config, params, layout, cross)
            _same_assembly(build_part(part, config, params, layout, cross), want)
        want = build_h_reference(config, params, layout, cross_species_string=cross)
        _same_assembly(build_h(config, params, layout, cross_species_string=cross), want)
