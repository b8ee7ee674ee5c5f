import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfyukawa.fock import FockState, ModeConfig, QubitLayout
from lfyukawa.pauli import (
    PauliString,
    PauliSum,
    adjoint,
    boson_ladder,
    canonicalize,
    dumps,
    fermion_ladder,
    loads,
    product,
    products,
    proj0,
    proj1,
    sigma_minus,
    sigma_plus,
    subspace_matrix,
    sum_of_products,
)

from lfyukawa import pauli
from lfyukawa.pauli import COMPARE_TOL, DEFAULT_TOL

from oracles import (
    accumulate_reference,
    add_reference,
    adjoint_reference,
    apply,
    boson_ladder_reference,
    canonicalize_reference,
    coefficient_reference,
    commutator_reference,
    dumps_reference,
    equals_reference,
    flip_group_tuples,
    flip_groups_reference,
    masks_to_letters,
    product_reference,
    prune_reference,
    scale_reference,
    store_of,
    terms_reference,
    to_matrix,
)

_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(letters: str, coeff=1.0) -> np.ndarray:
    out = np.array([[coeff]], dtype=complex)
    for ch in letters:
        out = np.kron(out, _MATS[ch])
    return out


def dense_sum(op: PauliSum) -> np.ndarray:
    total = np.zeros((1 << op.n_qubits, 1 << op.n_qubits), dtype=complex)
    for term in op.terms:
        total += dense(term.letters, term.coeff)
    return total


def random_sum(rng, n_qubits, n_terms) -> PauliSum:
    terms = []
    for _ in range(n_terms):
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(PauliString(coeff, letters))
    return canonicalize(terms)


# -- canonicalization -------------------------------------------------------------


def test_canonicalize_merges_like_terms():
    out = canonicalize([PauliString(1.0, "XZ"), PauliString(2.0, "XZ")])
    assert len(out) == 1 and out.terms[0].coeff == 3.0


def test_canonicalize_cancels_to_empty():
    out = canonicalize([PauliString(1.0, "XY"), PauliString(-1.0, "XY")])
    assert len(out) == 0


def test_canonicalize_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        canonicalize([PauliString(1.0, "XZ"), PauliString(1.0, "X")])


def test_canonicalize_idempotent_and_sorted():
    rng = np.random.default_rng(7)
    op = random_sum(rng, 4, 30)
    again = canonicalize(op.terms)
    assert op.equals(again, 0.0)
    letters = [t.letters for t in op.terms]
    assert letters == sorted(letters)


# -- products and commutators ------------------------------------------------------


def test_single_qubit_products_match_pauli_algebra():
    x = PauliSum.from_label("X")
    y = PauliSum.from_label("Y")
    xy = product(x, y)
    assert xy.coefficient("Z") == pytest.approx(1j)
    z = PauliSum.from_label("Z")
    assert commutator_reference(z, z).equals(PauliSum.zero(1))
    assert commutator_reference(x, y).coefficient("Z") == pytest.approx(2j)


def test_string_squares_to_identity():
    for letters in ("XYZI", "YYXZ"):
        op = PauliSum.from_label(letters)
        assert product(op, op).equals(PauliSum.identity(4))


def test_two_qubit_products_exhaustive_dense_oracle():
    pairs = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    for a_label, b_label in itertools.product(pairs, repeat=2):
        got = dense_sum(product(PauliSum.from_label(a_label), PauliSum.from_label(b_label)))
        want = dense(a_label) @ dense(b_label)
        assert np.allclose(got, want, atol=1e-12)


def test_product_matches_dense_on_random_sums():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_sum(rng, 3, 8)
        b = random_sum(rng, 3, 8)
        assert np.allclose(dense_sum(product(a, b)), dense_sum(a) @ dense_sum(b), atol=1e-10)


def test_product_associative_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = (random_sum(rng, 3, 5) for _ in range(3))
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        assert left.equals(right, 1e-10)


def test_product_rejects_size_mismatch():
    with pytest.raises(ValueError):
        product(PauliSum.from_label("X"), PauliSum.from_label("XX"))


def test_adjoint_conjugates_and_involutes():
    op = canonicalize([PauliString(1j, "X"), PauliString(2.0 - 1j, "Z")])
    dag = adjoint(op)
    assert dag.coefficient("X") == pytest.approx(-1j)
    assert adjoint(dag).equals(op)


# -- statevector action and matrices ----------------------------------------------


def test_apply_identity_and_diagonal():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    assert np.allclose(apply(PauliSum.identity(3), psi), psi)
    z0 = PauliSum.from_label("ZII")
    want = psi.copy()
    want[4:] *= -1
    assert np.allclose(apply(z0, psi), want)


def test_apply_matches_dense_on_random_8_qubit_sums():
    rng = np.random.default_rng(13)
    op = random_sum(rng, 8, 40)
    psi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    psi /= np.linalg.norm(psi)
    assert np.allclose(apply(op, psi), dense_sum(op) @ psi, atol=1e-10)


def test_to_matrix_reference_values():
    assert np.allclose(to_matrix(PauliSum.from_label("Z")), np.diag([1.0, -1.0]))
    rng = np.random.default_rng(17)
    a = random_sum(rng, 3, 6)
    b = random_sum(rng, 3, 6)
    assert np.allclose(to_matrix(product(a, b)), to_matrix(a) @ to_matrix(b), atol=1e-10)
    assert np.allclose(to_matrix(a), dense_sum(a), atol=1e-12)


def test_to_matrix_cap():
    with pytest.raises(ValueError):
        to_matrix(PauliSum.identity(15))


def test_subspace_matrix_detects_leakage():
    op = PauliSum.from_label("XI")
    with pytest.raises(ValueError):
        subspace_matrix(op, [0, 1])  # X on qubit 0 maps span{00,01} outside itself


@pytest.mark.parametrize("slice_entries", [1, 1 << 16])
def test_subspace_matrix_checks_groups_that_map_nothing_into_the_span(monkeypatch, slice_entries):
    monkeypatch.setattr(pauli, "_SLICE_ENTRIES", slice_entries)
    # on span{00, 01}, IX and ZZ stay inside; the XI/XZ group maps both states out and
    # is the only group that leaks: 1e-3 + 1e-3 on 00, 1e-3 - 1e-3 on 01
    inner = canonicalize([PauliString(1.0, "IX"), PauliString(0.5, "ZZ")])
    leak = canonicalize([PauliString(1e-3, "XI"), PauliString(1e-3, "XZ")])
    with pytest.raises(ValueError, match=r"matrix element 2\.000e-03"):
        subspace_matrix(inner + leak, [0, 1])
    assert np.array_equal(subspace_matrix(inner + leak, [0, 1], tol=1e-2), subspace_matrix(inner, [0, 1]))
    # X + iY on qubit 0 is 2|0><1|: its two terms cancel on the whole span
    quiet = canonicalize([PauliString(1.0, "XI"), PauliString(1j, "YI")])
    assert np.array_equal(subspace_matrix(inner + quiet, [0, 1], tol=0.0), subspace_matrix(inner, [0, 1]))


def test_leak_and_hermiticity_checks_rise_to_the_round_off_floor():
    # XI + XZ maps |00> out of span{00} with the sum of its two coefficients: at 1e8 a
    # residue of one ulp (1.5e-8) passes the 1e-9 tolerance but is within 64 eps of the
    # group's 1-norm 2e8; the same group when it really leaves the span still raises
    def leak(a, b):
        return canonicalize([PauliString(a, "XI"), PauliString(b, "XZ"), PauliString(1.0, "ZI")])

    residue = leak(1e8 + np.spacing(1e8), -1e8)
    assert np.array_equal(subspace_matrix(residue, [0]), [[1.0]])
    for a, b in ((1e8, 1e8), (1e8, -1e8 + 1e-4)):  # leaks 2e8 and 1e-4, past 2.8e-6
        with pytest.raises(ValueError, match="operator leaves the subspace"):
            subspace_matrix(leak(a, b), [0])
    # an imaginary part passes within 64 ulps of the largest coefficient part
    assert canonicalize([PauliString(1e8 + 1e-9j, "XX")]).is_hermitian()
    assert not canonicalize([PauliString(1e8 + 1e-5j, "XX")]).is_hermitian()
    assert not canonicalize([PauliString(1.0 + 1e-9j, "XX")]).is_hermitian()


def test_subspace_matrix_slices_change_nothing(monkeypatch):
    layout = QubitLayout(ModeConfig.uniform(3, 3))
    op = boson_ladder(2, True, layout) + fermion_ladder("fermion", 1, False, layout) * 1e-6
    op = op + product(op, adjoint(op))
    indices = [0, 1, 5, 17, 40, 64, 301, 1024, 2049]
    whole = subspace_matrix(op, indices, tol=np.inf)
    with pytest.raises(ValueError) as err:
        subspace_matrix(op, indices)
    for slice_entries in (5, 20, 36, 60):  # runs of 1, 2, 4 and 6 terms, lookups of as many groups
        monkeypatch.setattr(pauli, "_SLICE_ENTRIES", slice_entries)
        assert np.array_equal(subspace_matrix(op, indices, tol=np.inf), whole)
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            subspace_matrix(op, indices)


# -- properties on random sums ------------------------------------------------------

# Gaussian-integer coefficients keep every product and matrix element exact.
_coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


def _sums(n_qubits: int, count: int):
    term = st.tuples(_coeffs, st.text("IXYZ", min_size=n_qubits, max_size=n_qubits))
    one = st.lists(term, min_size=1, max_size=6).map(
        lambda terms: canonicalize([PauliString(c, s) for c, s in terms])
    )
    return st.tuples(*[one] * count)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _sums(n, 2)))
def test_product_and_adjoint_algebra_on_random_sums(pair):
    a, b = pair
    ab = product(a, b)
    assert np.allclose(to_matrix(ab), to_matrix(a) @ to_matrix(b), atol=1e-12)
    assert adjoint(ab).equals(product(adjoint(b), adjoint(a)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            _sums(n, 1),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n, unique=True),
        )
    ),
    st.sampled_from([0.5, 1.5, 3.0]),
    st.integers(1, 4),
)
def test_subspace_matrix_matches_apply_columns(case, tol, per_slice):
    (op,), indices = case
    columns = np.stack([apply(op, np.eye(1 << op.n_qubits)[i]) for i in indices], axis=1)
    outside = np.delete(columns, indices, axis=0)
    worst = np.max(np.abs(outside), initial=0.0)
    with mock.patch.object(pauli, "_SLICE_ENTRIES", per_slice * len(indices)):
        assert np.allclose(subspace_matrix(op, indices, tol=np.inf), columns[indices], atol=1e-12)
        if worst > tol:
            with pytest.raises(ValueError):
                subspace_matrix(op, indices, tol=tol)
        else:
            assert np.allclose(subspace_matrix(op, indices, tol=tol), columns[indices], atol=1e-12)


# -- Jordan-Wigner ladders ----------------------------------------------------------


@pytest.fixture
def layout():
    return QubitLayout(ModeConfig.uniform(3, 3))


def anticommutator(a, b):
    return product(a, b) + product(b, a)


def test_fermion_car_within_species(layout):
    for n in (1, 2, 3):
        b_n = fermion_ladder("fermion", n, False, layout)
        for k in (1, 2, 3):
            bd_k = fermion_ladder("fermion", k, True, layout)
            acom = anticommutator(b_n, bd_k)
            if n == k:
                assert acom.equals(PauliSum.identity(layout.total_qubits), 1e-10)
            else:
                assert len(acom.prune(1e-10)) == 0
        b_k = fermion_ladder("fermion", k, False, layout)
        assert len(anticommutator(b_n, b_k).prune(1e-10)) == 0


def test_fermion_car_across_species_with_global_string(layout):
    b1 = fermion_ladder("fermion", 1, False, layout)
    dd2 = fermion_ladder("antifermion", 2, True, layout)
    assert len(anticommutator(b1, dd2).prune(1e-10)) == 0


def test_independent_strings_commute_across_species(layout):
    b1 = fermion_ladder("fermion", 1, False, layout, cross_species_string=False)
    dd2 = fermion_ladder("antifermion", 2, True, layout, cross_species_string=False)
    assert len(commutator_reference(b1, dd2).prune(1e-10)) == 0


def test_bosons_commute_with_fermions(layout):
    a1 = boson_ladder(1, False, layout)
    bd2 = fermion_ladder("fermion", 2, True, layout)
    assert len(commutator_reference(a1, bd2).prune(1e-10)) == 0
    with pytest.raises(ValueError):  # a boson mode has no Jordan-Wigner ladder
        fermion_ladder("boson", 1, True, layout)


def test_ladder_builders_pin_their_letters_and_coefficient_bits(layout):
    # a zero real part is +0.0, as the letter route through canonicalize gives it;
    # dumps prints the sign, so -0.0 would change Hamiltonian hashes
    assert dumps(sigma_plus(2, 0)) == "0.5 0.0 XI\n0.0 0.5 YI"
    assert dumps(sigma_minus(2, 1)) == "0.5 0.0 IX\n0.0 -0.5 IY"
    assert dumps(proj0(2, 1)) == "0.5 0.0 II\n0.5 0.0 IZ"
    assert dumps(proj1(2, 0)) == "0.5 0.0 II\n-0.5 0.0 ZI"
    assert dumps(fermion_ladder("antifermion", 2, True, layout)) == (
        "0.5 0.0 ZZZZXIIIIIII\n0.0 -0.5 ZZZZYIIIIIII"
    )
    assert dumps(fermion_ladder("antifermion", 2, False, layout, False)) == (
        "0.5 0.0 IIIZXIIIIIII\n0.0 0.5 IIIZYIIIIIII"
    )


def test_creation_from_vacuum_has_unit_positive_amplitude(layout):
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[0] = 1.0
    out = apply(fermion_ladder("fermion", 2, True, layout), psi)
    target = layout.encode(FockState((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    assert out[target] == pytest.approx(1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)


# -- bosonic binary mapping ----------------------------------------------------------


def test_boson_ladder_m7_matches_published_expansion():
    layout = QubitLayout(ModeConfig(1, 1, 1, (7,)))
    n = layout.total_qubits
    q0 = 2  # first qubit of the boson block
    word = lambda *fs: _sigma_word(n, q0, fs)
    expected = (
        1.0 * word(proj0, proj0, sigma_minus)
        + np.sqrt(2.0) * word(proj0, sigma_minus, sigma_plus)
        + np.sqrt(3.0) * word(proj0, proj1, sigma_minus)
        + np.sqrt(4.0) * word(sigma_minus, sigma_plus, sigma_plus)
        + np.sqrt(5.0) * word(proj1, proj0, sigma_minus)
        + np.sqrt(6.0) * word(proj1, sigma_minus, sigma_plus)
        + np.sqrt(7.0) * word(proj1, proj1, sigma_minus)
    )
    built = boson_ladder(1, True, layout)
    assert built.equals(expected, 1e-12)


def _sigma_word(n, q0, factors):
    out = PauliSum.identity(n)
    for offset, factor in enumerate(factors):
        out = product(out, factor(n, q0 + offset))
    return out


def test_boson_ladder_m1_is_sigma_minus():
    layout = QubitLayout(ModeConfig.uniform(1, 1))
    built = boson_ladder(1, True, layout)
    assert built.equals(sigma_minus(3, 2), 1e-12)


@pytest.mark.parametrize("modals", [1, 3, 7, 15])
def test_boson_ladder_matches_defining_action(modals):
    layout = QubitLayout(ModeConfig(1, 1, 1, (modals,)))
    ad = boson_ladder(1, True, layout)
    dim = modals + 1
    sub = to_matrix(ad)[:dim, :dim]  # fermionic qubits in |00> occupy the top-left block
    ref = np.zeros((dim, dim), dtype=complex)
    for level in range(modals):
        ref[level + 1, level] = np.sqrt(level + 1)
    assert np.max(np.abs(sub - ref)) < 1e-10


@pytest.mark.parametrize("modals", [1, 3, 7])
def test_truncated_boson_commutator(modals):
    layout = QubitLayout(ModeConfig(1, 1, 1, (modals,)))
    ad = boson_ladder(1, True, layout)
    a = boson_ladder(1, False, layout)
    assert a.equals(adjoint(ad), 1e-12)
    dim = modals + 1
    comm = to_matrix(commutator_reference(a, ad))[:dim, :dim]
    ref = np.eye(dim)
    ref[modals, modals] = -modals
    assert np.max(np.abs(comm - ref)) < 1e-10
    number = to_matrix(product(ad, a))[:dim, :dim]
    assert np.allclose(number, np.diag(np.arange(dim, dtype=float)), atol=1e-10)


def test_boson_creation_annihilates_full_mode():
    modals = 7
    layout = QubitLayout(ModeConfig(1, 1, 1, (modals,)))
    ad = boson_ladder(1, True, layout)
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[modals] = 1.0  # |m> with fermionic qubits empty
    assert np.allclose(apply(ad, psi), 0.0, atol=1e-12)


# -- text dump -----------------------------------------------------------------------


def test_dump_roundtrip():
    rng = np.random.default_rng(23)
    op = random_sum(rng, 4, 12)
    assert loads(dumps(op)).equals(op, 1e-15)
    line = dumps(canonicalize([PauliString(0.5, "IZXY")])).strip()
    assert line == "0.5 0.0 IZXY"


def test_zero_qubit_and_empty_dumps():
    assert dumps(PauliSum.identity(0)) == "1.0 0.0 "
    assert PauliSum.identity(0).terms == (PauliString(1.0, ""),)
    assert dumps(PauliSum.zero(3)) == ""


# Few distinct parts, signed zeros among them, as in built Hamiltonians.
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-13]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _stores(draw):
    """A sum straight from a random store: masks up to bit 62, parts kept as drawn."""
    n = draw(st.integers(1, 63))
    mask = st.integers(0, (1 << n) - 1)
    entries = draw(st.lists(st.tuples(mask, mask, _parts, _parts), max_size=30))
    return PauliSum(n, {(x, z): complex(re, im) for x, z, re, im in entries})


def _bits(coeffs) -> bytes:
    return np.array(coeffs, dtype=complex).tobytes()


@settings(max_examples=200, deadline=None)
@given(_stores())
def test_table_views_equal_the_per_term_reference(op):
    want = terms_reference(op)
    assert [t.letters for t in op.terms] == [letters for letters, _ in want]
    assert _bits([t.coeff for t in op.terms]) == _bits([c for _, c in want])
    assert dumps(op) == dumps_reference(op)
    groups, ref = flip_group_tuples(op), flip_groups_reference(op)
    assert [(x, zs) for x, zs, _ in groups] == [(x, zs) for x, zs, _ in ref]
    assert [c.tobytes() for _, _, c in groups] == [c.tobytes() for _, _, c in ref]
    # an imaginary part passes at tol or within 64 ulps of the largest part
    largest = max((max(abs(c.real), abs(c.imag)) for _, c in want), default=0.0)
    floor = 64 * np.finfo(float).eps * largest
    for tol in (0.0, 0.5):
        assert op.is_hermitian(tol) == all(abs(c.imag) <= max(tol, floor) for _, c in want)


# Real and complex factors: signed zeros, factors at and below the drop tolerance, any finite float.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_factors = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.5, DEFAULT_TOL, 1e-13]),
    st.sampled_from([1j, complex(-0.0, 1.0), complex(0.5, -0.0), complex(DEFAULT_TOL, -1e-13)]),
    _finite,
    st.builds(complex, _finite, _finite),
)


@settings(max_examples=200, deadline=None)
@given(_stores(), _factors)
def test_store_operations_equal_the_dict_reference_bit_for_bit(op, w):
    """Scaling, adjoints, drops, comparisons, lookups and canonical merges on the arrays."""
    _same_store(w * op, scale_reference(op, w))
    _same_store(op * w, scale_reference(op, w))
    _same_store(-op, scale_reference(op, -1.0))
    _same_store(adjoint(op), adjoint_reference(op))
    for tol in (0.0, 1e-13, DEFAULT_TOL, 0.5):
        _same_store(op.prune(tol), prune_reference(op, tol))
    store = store_of(op)
    assert len(op) == len(store)
    for x, z in list(store)[:3] + [(0, 0), (1, 0)]:
        letters = masks_to_letters(x, z, op.n_qubits)
        assert _bits([op.coefficient(letters)]) == _bits([coefficient_reference(op, letters)])
    others = [op, w * op, op.prune(), PauliSum.zero(op.n_qubits), PauliSum.zero(op.n_qubits + 1)]
    if store:
        key = next(iter(store))
        near = PauliSum(op.n_qubits, {**store, key: store[key] + 1e-13})
        assert op.equals(near, 0.0) == (store_of(near)[key] == store[key])
        others.append(near)
    for other in others:
        for tol in (0.0, 1e-13, DEFAULT_TOL, COMPARE_TOL):
            assert op.equals(other, tol) == equals_reference(op, other, tol)
            assert other.equals(op, tol) == equals_reference(other, op, tol)
    terms = list(op.terms) + list(adjoint(op).terms)
    for tol in (0.0, DEFAULT_TOL) if terms else ():
        _same_store(canonicalize(terms, tol), canonicalize_reference(terms, tol))


# -- products and sums against the term-by-term reference ---------------------------

# Parts that cancel, repeat or sit at the drop tolerance, and floats whose products stay finite.
_product_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, DEFAULT_TOL, 1e-13]),
    st.floats(-1e100, 1e100),
)


@st.composite
def _operand_pairs(draw):
    """Two sums on 1-63 qubits; narrow masks make strings meet and cancel.

    Some pairs act on disjoint qubits (the first on the low bits, the second
    on the rest), as the Hamiltonian's fermion and boson operands do.
    """
    n = draw(st.integers(1, 63))
    full = (1 << n) - 1
    mask = st.one_of(st.integers(0, 3), st.integers(0, full)).map(lambda m: m & full)
    low = (1 << draw(st.integers(0, n))) - 1 if draw(st.booleans()) else full

    def one(keep):
        entries = draw(st.lists(st.tuples(mask, mask, _product_parts, _product_parts), max_size=12))
        return PauliSum(n, {(x & keep, z & keep): complex(re, im) for x, z, re, im in entries})

    return one(low), one(full if low == full else full & ~low)


def _same_store(got: PauliSum, want: PauliSum):
    assert got.n_qubits == want.n_qubits
    assert list(store_of(got)) == list(store_of(want))
    assert _bits(list(store_of(got).values())) == _bits(list(store_of(want).values()))


@settings(max_examples=300, deadline=None)
@given(_operand_pairs())
def test_product_and_sum_equal_the_dict_reference_bit_for_bit(pair):
    a, b = pair
    _same_store(product(a, b), product_reference(a, b))
    _same_store(product(b, a), product_reference(b, a))
    _same_store(product(a, a), product_reference(a, a))
    _same_store(a + b, add_reference(a, b))
    _same_store(b + a, add_reference(b, a))


@settings(max_examples=200, deadline=None)
@given(_operand_pairs(), st.lists(_product_parts, min_size=3, max_size=3))
def test_batched_products_equal_the_dict_reference_bit_for_bit(pair, weights):
    """Jobs batched together keep their own keys, order and sums."""
    a, b = pair
    lefts, rights = [a, b, a], [b, a, a]
    for got, left, right in zip(products(lefts, rights), lefts, rights):
        _same_store(got, product_reference(left, right))
    acc: dict = {}
    for left, right, w in zip(lefts, rights, weights):
        accumulate_reference(acc, product_reference(left, right), w)
    want = PauliSum(a.n_qubits, acc).prune()
    got = sum_of_products(a.n_qubits, [([a], [b], weights[:1]), (lefts[1:], rights[1:], weights[1:])])
    _same_store(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 3)), max_size=40))
def test_packed_and_lexsort_grouping_agree(entries):
    """Bit 62 set on every x keeps each key apart from the others but takes the lexsort path."""
    x, z, job = (np.array([entry[i] for entry in entries], np.int64) for i in range(3))
    job = np.sort(job)
    for jobs in (None, job):
        narrow = pauli._first_ids(x, z, jobs)
        wide = pauli._first_ids(x | (1 << 62), z, jobs)
        assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))


@pytest.mark.parametrize("modals", [1, 3, 7, 15])
def test_boson_ladder_equals_the_term_by_term_reference(modals):
    layout = QubitLayout(ModeConfig(2, 1, 2, (3, modals)))
    for dagger in (True, False):
        _same_store(boson_ladder(2, dagger, layout), boson_ladder_reference(2, dagger, layout))
