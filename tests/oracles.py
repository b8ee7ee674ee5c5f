"""Independent reference constructions for the test suite.

The Hamiltonian oracle works directly on occupancy tuples: ladder operators
are applied combinatorially with explicit Jordan-Wigner signs and momentum
brackets are evaluated as exact fractions over the full index ranges.  No
Pauli-string machinery is used anywhere, so agreement with the package's
operator assembly checks both constructions at once.

The Trotter reference steps a plan rotation by rotation over the whole
register, applying each string letter by letter on the register reshaped to
one axis per qubit.  It shares no code with the package's compiled evaluator
(its phase vectors and coset blocks), so agreement checks that evaluator's
reassociation of the ordered rotation product.  The block reference
``compose_reference`` is the compiler's per-rotation dense update as first
written, one allocating pass per product and a gathered row copy; the
compiler's in-place passes on a flipped view must equal it bit for bit.  The
phase reference ``term_phase`` looks a string's phase up per register index,
the product the compiler's diagonal phase vectors must equal bit for bit.

The register references ``apply``, ``to_matrix`` and ``expectation`` read each
term of a Pauli sum through its public letters and build the string's action
as a Kronecker product of one factor per letter, so they share no phase code
with the package either; the package itself only acts on a register in its
Trotter evaluator.

The charge reference decodes every register index into its occupancies and
counts K and Q on them, with none of the package's bit-plane arithmetic.

The Pauli-sum view references walk the sum's terms as a ``{(x, z): coefficient}``
dict (``store_of``) in Python: they spell the letters one qubit at a time, sort
them as Python strings and group the terms by flip mask in a dict, where the
package reads its term arrays with array operations.  The store references
scale, conjugate, prune, compare and look up coefficients one dict entry at a
time; the package's array operations must equal them bit for bit.

The assembly references form products, sums, boson ladders, Hamiltonian parts
and charges one string pair and one term at a time into dicts, the loops whose
arithmetic the package's batched array passes reproduce bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from lfyukawa.fock import FockState, ModeConfig, k_of, q_of
from lfyukawa.hamiltonian import bracket, self_inertia
from lfyukawa.pauli import (
    COMPARE_TOL,
    DEFAULT_TOL,
    I_POWERS,
    PauliSum,
    adjoint,
    boson_occupancy_raisers,
    fermion_ladder,
    proj0,
    proj1,
    sigma_minus,
    sigma_plus,
)


def bracket_exact(n: int, m: int) -> Fraction:
    if n == 0 or m == 0:
        return Fraction(0)
    return Fraction(1, n) if m == -n else Fraction(0)


def inertia_exact(kind: str, n: int, cutoff: int) -> Fraction:
    total = Fraction(0)
    for m in range(1, cutoff + 1):
        if kind == "alpha":
            total += bracket_exact(n - m, m - n) - bracket_exact(n + m, -m - n)
        elif kind == "beta":
            total += Fraction(n, m) * bracket_exact(n - m, m - n)
        elif kind == "gamma":
            total += Fraction(n, m) * bracket_exact(n + m, -m - n)
        else:
            raise ValueError(kind)
    return total


def apply_monomial(state: FockState, ops, modals: tuple[int, ...]):
    """Apply a product of ladder operators (leftmost written first) to a state.

    ``ops`` entries are ``(species, mode, dagger)`` with species 'f', 'a' or
    'c' (the boson entry already carries the 1/sqrt(mode) of c_n).  Returns
    (amplitude, FockState) or None when the action annihilates the state.
    Fermionic signs count occupied modes preceding the target in register
    order, with antifermion strings extending over all fermion modes.
    """
    f = list(state.fermions)
    a = list(state.antifermions)
    b = list(state.bosons)
    amp = 1.0
    for species, mode, dagger in reversed(ops):
        i = mode - 1
        if species == "f":
            sign = -1.0 if sum(f[:i]) % 2 else 1.0
            if dagger:
                if f[i]:
                    return None
                f[i] = 1
            else:
                if not f[i]:
                    return None
                f[i] = 0
            amp *= sign
        elif species == "a":
            sign = -1.0 if (sum(f) + sum(a[:i])) % 2 else 1.0
            if dagger:
                if a[i]:
                    return None
                a[i] = 1
            else:
                if not a[i]:
                    return None
                a[i] = 0
            amp *= sign
        elif species == "c":
            if dagger:
                if b[i] >= modals[i]:
                    return None
                amp *= math.sqrt(b[i] + 1) / math.sqrt(mode)
                b[i] += 1
            else:
                if b[i] == 0:
                    return None
                amp *= math.sqrt(b[i]) / math.sqrt(mode)
                b[i] -= 1
        else:
            raise ValueError(species)
    return amp, FockState(tuple(f), tuple(a), tuple(b))


def _monomials(config: ModeConfig):
    """All interaction monomials with their exact weights and coupling power.

    Yields (power, weight, ops) where power 1 tags the vertex part (overall
    g*m_F) and power 2 tags the quartic parts (overall g**2); index sums run
    over the full mode ranges with the brackets deciding what survives.
    """
    nf, na, nb = config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes
    # vertex: fermion and antifermion scattering with boson emission/absorption
    for species, n_modes in (("f", nf), ("a", na)):
        for k in range(1, n_modes + 1):
            for l in range(1, nb + 1):
                for m in range(1, n_modes + 1):
                    w = bracket_exact(k + l, -m) + bracket_exact(k, l - m)
                    if w:
                        yield 1, w, ((species, k, True), (species, m, False), ("c", l, True))
                        yield 1, w, ((species, m, True), (species, k, False), ("c", l, False))
    # vertex: pair production/annihilation (carries the overall minus sign)
    for k in range(1, nf + 1):
        for l in range(1, nb + 1):
            for m in range(1, na + 1):
                w = bracket_exact(k - l, m) + bracket_exact(k, -l + m)
                if w:
                    yield 1, -w, (("f", k, False), ("a", m, False), ("c", l, True))
                    yield 1, -w, (("a", m, True), ("f", k, True), ("c", l, False))
    # seagull: scattering off a boson, and pair <-> two bosons
    for species, n_modes in (("f", nf), ("a", na)):
        for k in range(1, n_modes + 1):
            for l in range(1, nb + 1):
                for m in range(1, n_modes + 1):
                    for n in range(1, nb + 1):
                        w = bracket_exact(k - n, l - m) + bracket_exact(k + l, -m - n)
                        if w:
                            yield 2, w, (
                                (species, k, True),
                                (species, m, False),
                                ("c", l, True),
                                ("c", n, False),
                            )
    for k in range(1, na + 1):
        for l in range(1, nb + 1):
            for m in range(1, nf + 1):
                for n in range(1, nb + 1):
                    w = bracket_exact(l - k, n - m)
                    if w:
                        yield 2, w, (
                            ("a", k, False),
                            ("f", m, False),
                            ("c", l, True),
                            ("c", n, True),
                        )
                        yield 2, w, (
                            ("f", m, True),
                            ("a", k, True),
                            ("c", n, False),
                            ("c", l, False),
                        )
    # fork: boson pair emission/absorption and boson <-> pair + boson
    for species, n_modes in (("f", nf), ("a", na)):
        for k in range(1, n_modes + 1):
            for l in range(1, nb + 1):
                for m in range(1, n_modes + 1):
                    for n in range(1, nb + 1):
                        w = bracket_exact(k + l, n - m)
                        if w:
                            yield 2, w, (
                                (species, k, True),
                                (species, m, False),
                                ("c", l, True),
                                ("c", n, True),
                            )
                            yield 2, w, (
                                (species, m, True),
                                (species, k, False),
                                ("c", n, False),
                                ("c", l, False),
                            )
    for k in range(1, nf + 1):
        for l in range(1, nb + 1):
            for m in range(1, na + 1):
                for n in range(1, nb + 1):
                    w = bracket_exact(k - n, m + l) + bracket_exact(k + l, m - n)
                    if w:
                        yield 2, w, (
                            ("f", k, True),
                            ("a", m, True),
                            ("c", l, True),
                            ("c", n, False),
                        )
                        yield 2, w, (
                            ("a", m, False),
                            ("f", k, False),
                            ("c", n, True),
                            ("c", l, False),
                        )


class FockOracle:
    """Coupling-resolved dense Hamiltonian blocks built without Pauli strings."""

    def __init__(self, config: ModeConfig, fermion_mass: float, boson_mass: float,
                 inertia_cutoff: int):
        self.config = config
        self.mf = fermion_mass
        self.mb = boson_mass
        self.cutoff = inertia_cutoff
        self.monomials = list(_monomials(config))
        n_max = max(config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes)
        self._inertia = {
            (kind, n): float(inertia_exact(kind, n, inertia_cutoff))
            for kind in ("alpha", "beta", "gamma")
            for n in range(1, n_max + 1)
        }

    def components(self, states: list[FockState]):
        """(mass diag, inertia diag, vertex block, quartic block) at unit couplings.

        The full sector block is mass + g^2*inertia + g*m_F*vertex + g^2*quartic.
        """
        dim = len(states)
        pos = {s: i for i, s in enumerate(states)}
        mass = np.zeros((dim, dim), dtype=complex)
        inertia = np.zeros((dim, dim), dtype=complex)
        vertex = np.zeros((dim, dim), dtype=complex)
        quartic = np.zeros((dim, dim), dtype=complex)
        for i, s in enumerate(states):
            for n, occ in enumerate(s.bosons, start=1):
                mass[i, i] += occ * self.mb**2 / n
                inertia[i, i] += occ * self._inertia["alpha", n] / n
            for n, occ in enumerate(s.fermions, start=1):
                mass[i, i] += occ * self.mf**2 / n
                inertia[i, i] += occ * self._inertia["beta", n] / n
            for n, occ in enumerate(s.antifermions, start=1):
                mass[i, i] += occ * self.mf**2 / n
                inertia[i, i] += occ * self._inertia["gamma", n] / n
            for power, w, ops in self.monomials:
                hit = apply_monomial(s, ops, self.config.boson_modals)
                if hit is None:
                    continue
                amp, out = hit
                j = pos.get(out)
                if j is None:
                    # momentum-conserving monomials stay inside a (K, Q) sector
                    raise AssertionError("monomial left the sector")
                target = vertex if power == 1 else quartic
                target[j, i] += float(w) * amp
        return mass, inertia, vertex, quartic

    def matrix(self, states, coupling: float, include_inertias: bool) -> np.ndarray:
        g = coupling / math.sqrt(4.0 * math.pi)
        mass, inertia, vertex, quartic = self.components(states)
        out = mass + g * self.mf * vertex + g**2 * quartic
        if include_inertias:
            out = out + g**2 * inertia
        return out


def _apply_string(psi: np.ndarray, x: int, z: int) -> np.ndarray:
    """The unit Pauli string (x, z) applied to a register tensor of shape (2,)*n.

    Qubit q is axis q and bit n-1-q of the masks: X and Z bits both set make Y.
    Each letter maps output bit j to input bit j ^ flip with the factor
    X: 1, Z: (-1)**j, Y: -i * (-1)**j, the entries of its 2x2 matrix.
    """
    n = psi.ndim
    letters = [((x >> (n - 1 - q)) & 1, (z >> (n - 1 - q)) & 1) for q in range(n)]
    factor = np.ones(())
    for q, (flip, sign) in enumerate(letters):
        if sign:
            entries = np.array([-1j, 1j] if flip else [1.0, -1.0])
            factor = factor * entries.reshape((2,) + (1,) * (n - 1 - q))
    return np.flip(psi, axis=tuple(q for q, (flip, _) in enumerate(letters) if flip)) * factor


def trotter_reference(plan, psi0: np.ndarray) -> np.ndarray:
    """The plan's ordered product, one rotation exp(-i*angle*P) at a time, for every step.

    Each step applies ``plan.rotations`` in order as cos(angle) - i*sin(angle)*P on
    the full register, then multiplies by ``plan.step_phase``.
    """
    n = plan.n_qubits
    psi = np.asarray(psi0, dtype=complex).reshape((2,) * n)
    for _ in range(plan.n_steps):
        for x, z, angle in plan.rotations:
            psi = math.cos(angle) * psi - (1j * math.sin(angle)) * _apply_string(psi, x, z)
        psi = psi * plan.step_phase
    return psi.reshape(-1)


def compose_reference(rots, local: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """A block's (S, C, D, D) stack by the dense per-rotation update, the reference for
    ``evolve._compose`` (same arguments), which must match it bit for bit.

    Per rotation (k, zl, eta, angle, w_pos) and signature s, at -angle where
    ``signs[s, w_pos]`` is set: u <- c*u - (i*sin)*(phase*u)[t ^ k] on the rows t of
    each coset c, with phase[c, t] = eta * (-1)**parity(local[c, t] & zl).  Each product
    is formed and rounded as written, with a gathered copy of the rows.
    """
    n_cos, dim = local.shape
    u = np.tile(np.eye(dim, dtype=complex), (len(signs), n_cos, 1, 1))
    tidx = np.arange(dim)
    for k, zl, eta, angle, w_pos in rots:
        trig = np.array([(math.cos(a), math.sin(a)) for a in (angle, -angle)])
        c, sn = trig[signs[:, w_pos]].T[:, :, None, None, None]
        phase = eta * (1.0 - 2.0 * (np.bitwise_count(local & zl) & 1).astype(np.int8))
        pu = (phase[:, :, None] * u)[:, :, tidx ^ k]
        u = c * u - 1j * sn * pu
    return u


def term_phase(idx: np.ndarray, x: int, z: int) -> np.ndarray:
    """Per-source-index phase of a unit string: i**nY * (-1)**popcount(i & z)."""
    eta = I_POWERS[(x & z).bit_count() & 3]
    if z == 0:
        return np.full(idx.shape, eta)
    par = (np.bitwise_count(idx & z) & 1).astype(np.int8)
    return eta * (1.0 - 2.0 * par)


MATRIX_QUBIT_CAP = 14

# out[j] = factor * in[j ^ flip] per letter, indexed by the output bit j
_LETTER_ACTION = {"I": (0, (1, 1)), "X": (1, (1, 1)), "Y": (1, (-1j, 1j)), "Z": (0, (1, -1))}


def _string_action(letters: str) -> tuple[int, np.ndarray]:
    """(flip mask, per-output-index factor) of a unit string, qubit 0 the leftmost letter."""
    flip = 0
    factor = np.ones(1, dtype=complex)
    for ch in letters:
        bit, entries = _LETTER_ACTION[ch]
        flip = flip << 1 | bit
        factor = np.kron(factor, np.array(entries, dtype=complex))
    return flip, factor


def apply(op, psi: np.ndarray) -> np.ndarray:
    """Linear action of a Pauli sum on a statevector, one term at a time."""
    dim = 1 << op.n_qubits
    if psi.shape != (dim,):
        raise ValueError(f"statevector length {psi.shape} does not match {op.n_qubits} qubits")
    idx = np.arange(dim)
    out = np.zeros(dim, dtype=complex)
    for term in op.terms:
        flip, factor = _string_action(term.letters)
        out += (term.coeff * factor) * psi[idx ^ flip]
    return out


def to_matrix(op) -> np.ndarray:
    """Dense matrix of a Pauli sum on at most MATRIX_QUBIT_CAP qubits."""
    n = op.n_qubits
    if n > MATRIX_QUBIT_CAP:
        raise ValueError(f"to_matrix supports at most {MATRIX_QUBIT_CAP} qubits, got {n}")
    idx = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in op.terms:
        flip, factor = _string_action(term.letters)
        mat[idx, idx ^ flip] += term.coeff * factor
    return mat


def expectation(op, psi: np.ndarray) -> float:
    """<psi|op|psi> for a Hermitian operator; the residual imaginary part is checked."""
    value = complex(np.vdot(psi, apply(op, psi)))
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-9 * scale:
        raise ValueError(f"operator is not Hermitian on this state (Im = {value.imag:.3e})")
    return value.real


def masks_to_letters(x: int, z: int, n: int) -> str:
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        xb, zb = bool(x & bit), bool(z & bit)
        out.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
    return "".join(out)


def letters_to_masks(letters: str) -> tuple[int, int]:
    x = z = 0
    for ch in letters:
        x = x << 1 | (ch in "XY")
        z = z << 1 | (ch in "YZ")
    return x, z


def store_of(op) -> dict[tuple[int, int], complex]:
    """The sum's terms as a ``{(x, z): coefficient}`` dict, in array order."""
    return dict(zip(zip(op.x.tolist(), op.z.tolist()), op.coeffs.tolist()))


def terms_reference(op) -> list[tuple[str, complex]]:
    """``(letters, coefficient)`` of every term, in canonical (letter) order."""
    items = [(masks_to_letters(x, z, op.n_qubits), c) for (x, z), c in store_of(op).items()]
    items.sort(key=lambda t: t[0])
    return items


def dumps_reference(op) -> str:
    return "\n".join(f"{c.real!r} {c.imag!r} {letters}" for letters, c in terms_reference(op))


_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def flip_groups_reference(op) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """``(x, z masks, coefficients)`` per flip mask, in the order the terms first meet each mask."""
    acc: dict[int, tuple[list[int], list[complex]]] = {}
    for (x, z), c in store_of(op).items():
        zs, cs = acc.setdefault(x, ([], []))
        zs.append(z)
        cs.append(c)
    return [(x, tuple(zs), np.array(cs, dtype=complex)) for x, (zs, cs) in acc.items()]


def flip_group_tuples(op) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """The package's flip groups in the reference's form, one tuple per group."""
    flips, starts, zs, coeffs = op.flip_groups
    bounds = starts.tolist()
    return [
        (x, tuple(zs[lo:hi].tolist()), coeffs[lo:hi])
        for x, lo, hi in zip(flips.tolist(), bounds, bounds[1:])
    ]


# -- per-entry store operations ------------------------------------------------------
#
# The dict loops the package's array operations on a sum reproduce bit for bit.


def _modulus(c: complex) -> float:
    """abs(c), or inf where CPython raises OverflowError for a modulus beyond the float range."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def prune_reference(op, tol: float = DEFAULT_TOL):
    return PauliSum(op.n_qubits, {k: c for k, c in store_of(op).items() if _modulus(c) > tol})


def scale_reference(op, w: complex):
    """w * op: every coefficient times ``complex(w)``, then the drop at DEFAULT_TOL."""
    w = complex(w)
    return prune_reference(PauliSum(op.n_qubits, {k: c * w for k, c in store_of(op).items()}))


def adjoint_reference(op):
    return PauliSum(op.n_qubits, {k: c.conjugate() for k, c in store_of(op).items()})


def equals_reference(a, b, tol: float = COMPARE_TOL) -> bool:
    if a.n_qubits != b.n_qubits:
        return False
    sa, sb = store_of(a), store_of(b)
    return all(_modulus(sa.get(k, 0.0) - sb.get(k, 0.0)) <= tol for k in sa.keys() | sb.keys())


def coefficient_reference(op, letters: str) -> complex:
    return store_of(op).get(letters_to_masks(letters), 0.0 + 0.0j)


def canonicalize_reference(terms, tol: float = DEFAULT_TOL):
    """Like strings summed in order of first occurrence from ``complex(0.0, 0.0)``, then dropped."""
    acc: dict[tuple[int, int], complex] = {}
    for t in terms:
        k = letters_to_masks(t.letters)
        acc[k] = acc.get(k, complex(0.0, 0.0)) + complex(t.coeff)
    return PauliSum(terms[0].n_qubits, {k: c for k, c in acc.items() if _modulus(c) > tol})


def charge_reference(layout) -> tuple[np.ndarray, np.ndarray]:
    """K and Q of every register index, from its decoded occupancies."""
    states = [layout.decode(i) for i in range(1 << layout.total_qubits)]
    return np.array([k_of(s) for s in states]), np.array([q_of(s) for s in states])


def rabi_transition(v: float, delta: float, times: np.ndarray) -> np.ndarray:
    """Closed-form two-level transition probability for H = [[0, v], [v, delta]]."""
    omega = math.hypot(v, delta / 2.0)
    if omega == 0.0:
        return np.zeros_like(times)
    return (v**2 / omega**2) * np.sin(omega * times) ** 2


# -- term-by-term assembly ---------------------------------------------------------
#
# The package forms products and Hamiltonian parts in batched array passes; these
# references are the dict loops those passes reproduce bit for bit: every string
# pair, every scaled term and every added term goes into a dict one at a time.
# They take the package's single-qubit and fermion ladder builders and momentum
# brackets as given.


def product_reference(a, b):
    """The distributed product of two sums, one string pair at a time into a dict."""
    out: dict[tuple[int, int], complex] = {}
    bt = [(x2, z2, (x2 & z2).bit_count(), c2) for (x2, z2), c2 in store_of(b).items()]
    for (x1, z1), c1 in store_of(a).items():
        y1 = (x1 & z1).bit_count()
        for x2, z2, y2, c2 in bt:
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            k = (y1 + y2 - (x3 & z3).bit_count()) & 3
            c = c1 * c2 * _I_POWERS[k]
            if (z1 & x2).bit_count() & 1:
                c = -c
            key = (x3, z3)
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return PauliSum(a.n_qubits, out).prune()


def accumulate_reference(acc: dict, op, scale: float):
    """Add scale * op into acc term by term.

    The scale enters as ``complex(scale, 0.0)``: the product CPython up to 3.13
    forms for ``c * scale``, and the one the package fixes on every interpreter.
    """
    w = complex(scale, 0.0)
    for key, c in store_of(op).items():
        val = acc.get(key)
        acc[key] = c * w if val is None else val + c * w


def add_reference(a, b):
    """a + b: a copy of a's store, then each term of b added with ``get(key, 0j) + c``.

    The start ``complex(0.0, 0.0)`` is explicit, so a new key's -0.0 parts turn
    into +0.0 as CPython up to 3.13 adds ``0.0 + c``.
    """
    out = store_of(a)
    for key, c in store_of(b).items():
        out[key] = out.get(key, complex(0.0, 0.0)) + c
    return PauliSum(a.n_qubits, out).prune()


def commutator_reference(a, b):
    """ab - ba, both products one string pair at a time."""
    return add_reference(product_reference(a, b), scale_reference(product_reference(b, a), -1.0))


_FACTORS = {"I+": proj0, "I-": proj1, "s+": sigma_plus, "s-": sigma_minus}


def boson_ladder_reference(mode: int, dagger: bool, layout):
    """The binary-encoded boson ladder: each word's factors multiplied in, words added up."""
    n = layout.total_qubits
    start, _ = layout.block("boson", mode)
    total = PauliSum.zero(n)
    for coeff, factors in boson_occupancy_raisers(layout.config.boson_modals[mode - 1]):
        term = PauliSum.identity(n, coeff)
        for offset, factor in enumerate(factors):
            term = product_reference(term, _FACTORS[factor](n, start + offset))
        total = add_reference(total, term)
    return total if dagger else adjoint(total)


class _LaddersReference:
    """Ladder operators and their bilinear products, each formed once, by the dict product."""

    def __init__(self, layout, cross_species_string: bool):
        self.layout = layout
        self.cross = cross_species_string
        self._ops: dict[tuple, PauliSum] = {}

    def f(self, species: str, mode: int, dagger: bool):
        key = (species, mode, dagger)
        if key not in self._ops:
            self._ops[key] = fermion_ladder(species, mode, dagger, self.layout, self.cross)
        return self._ops[key]

    def c(self, mode: int, dagger: bool):
        """c_n = a_n / sqrt(n)."""
        key = ("c", mode, dagger)
        if key not in self._ops:
            ladder = boson_ladder_reference(mode, dagger, self.layout)
            self._ops[key] = ladder * (1.0 / math.sqrt(mode))
        return self._ops[key]

    def f_bilinear(self, species: str, k_dag: int, m_ann: int):
        key = ("fb", species, k_dag, m_ann)
        if key not in self._ops:
            self._ops[key] = product_reference(
                self.f(species, k_dag, True), self.f(species, m_ann, False)
            )
        return self._ops[key]

    def c_bilinear(self, l_dag: int, n_ann: int):
        key = ("cb", l_dag, n_ann)
        if key not in self._ops:
            self._ops[key] = product_reference(self.c(l_dag, True), self.c(n_ann, False))
        return self._ops[key]

    def c_pair(self, l: int, n: int, dagger: bool):
        key = ("cp", l, n, dagger)
        if key not in self._ops:
            self._ops[key] = product_reference(self.c(l, dagger), self.c(n, dagger))
        return self._ops[key]


def build_part_reference(
    part: str,
    config,
    params,
    layout,
    cross_species_string: bool = True,
):
    """One Hamiltonian part, every product and every scaled term added one at a time."""
    params.validate(config)
    nf, na, nb = config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes
    g = params.g
    mf, mb = params.fermion_mass, params.boson_mass
    lam_cut = params.inertia_cutoff
    lad = _LaddersReference(layout, cross_species_string)
    acc: dict = {}

    if part == "HM":
        for n in range(1, nb + 1):
            coeff = mb**2
            if params.include_inertias:
                coeff += g**2 * self_inertia("alpha", n, lam_cut)
            number = product_reference(
                boson_ladder_reference(n, True, layout), boson_ladder_reference(n, False, layout)
            )
            accumulate_reference(acc, number, coeff / n)
        for n in range(1, nf + 1):
            coeff = mf**2
            if params.include_inertias:
                coeff += g**2 * self_inertia("beta", n, lam_cut)
            accumulate_reference(acc, lad.f_bilinear("fermion", n, n), coeff / n)
        for n in range(1, na + 1):
            coeff = mf**2
            if params.include_inertias:
                coeff += g**2 * self_inertia("gamma", n, lam_cut)
            accumulate_reference(acc, lad.f_bilinear("antifermion", n, n), coeff / n)

    elif part == "HV":
        # b_k^dag b_m c_l^dag + h.c. with m = k + l, and the d twin
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                for l in range(1, nb + 1):
                    m = k + l
                    if m > n_modes:
                        continue
                    w = g * mf * (bracket(k + l, -m) + bracket(k, l - m))
                    if w == 0.0:
                        continue
                    accumulate_reference(
                        acc, product_reference(lad.f_bilinear(species, k, m), lad.c(l, True)), w
                    )
                    accumulate_reference(
                        acc, product_reference(lad.f_bilinear(species, m, k), lad.c(l, False)), w
                    )
        # pair production/annihilation: -(b_k d_m c_l^dag + d_m^dag b_k^dag c_l)
        for k in range(1, nf + 1):
            for m in range(1, na + 1):
                l = k + m
                if l > nb:
                    continue
                w = g * mf * (bracket(k - l, m) + bracket(k, m - l))
                if w == 0.0:
                    continue
                pair = product_reference(lad.f("fermion", k, False), lad.f("antifermion", m, False))
                accumulate_reference(acc, product_reference(pair, lad.c(l, True)), -w)
                pair_dag = product_reference(
                    lad.f("antifermion", m, True), lad.f("fermion", k, True)
                )
                accumulate_reference(acc, product_reference(pair_dag, lad.c(l, False)), -w)

    elif part == "HS":
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                for m in range(1, n_modes + 1):
                    for l in range(1, nb + 1):
                        n = k + l - m
                        if not 1 <= n <= nb:
                            continue
                        w = g**2 * (bracket(k - n, l - m) + bracket(k + l, -m - n))
                        if w == 0.0:
                            continue
                        term = product_reference(
                            lad.f_bilinear(species, k, m), lad.c_bilinear(l, n)
                        )
                        accumulate_reference(acc, term, w)
        # d_k b_m c_l^dag c_n^dag + h.c.: pair annihilation into two bosons
        for k in range(1, na + 1):
            for m in range(1, nf + 1):
                for l in range(1, nb + 1):
                    n = k + m - l
                    if not 1 <= n <= nb:
                        continue
                    w = g**2 * bracket(l - k, n - m)
                    if w == 0.0:
                        continue
                    pair = product_reference(
                        lad.f("antifermion", k, False), lad.f("fermion", m, False)
                    )
                    accumulate_reference(acc, product_reference(pair, lad.c_pair(l, n, True)), w)
                    pair_dag = product_reference(
                        lad.f("fermion", m, True), lad.f("antifermion", k, True)
                    )
                    accumulate_reference(
                        acc, product_reference(pair_dag, lad.c_pair(n, l, False)), w
                    )

    elif part == "HF":
        # b_k^dag b_m c_l^dag c_n^dag + h.c. with m = k + l + n, and the d twin
        for species, n_modes in (("fermion", nf), ("antifermion", na)):
            for k in range(1, n_modes + 1):
                for l in range(1, nb + 1):
                    for n in range(1, nb + 1):
                        m = k + l + n
                        if m > n_modes:
                            continue
                        w = g**2 * bracket(k + l, n - m)
                        if w == 0.0:
                            continue
                        accumulate_reference(
                            acc,
                            product_reference(
                                lad.f_bilinear(species, k, m), lad.c_pair(l, n, True)
                            ),
                            w,
                        )
                        accumulate_reference(
                            acc,
                            product_reference(
                                lad.f_bilinear(species, m, k), lad.c_pair(n, l, False)
                            ),
                            w,
                        )
        # boson splitting into a pair plus a boson: b_k^dag d_m^dag c_l^dag c_n + h.c.
        for k in range(1, nf + 1):
            for m in range(1, na + 1):
                for l in range(1, nb + 1):
                    n = k + l + m
                    if n > nb:
                        continue
                    w = g**2 * (bracket(k - n, m + l) + bracket(k + l, m - n))
                    if w == 0.0:
                        continue
                    pair_dag = product_reference(
                        lad.f("fermion", k, True), lad.f("antifermion", m, True)
                    )
                    accumulate_reference(
                        acc, product_reference(pair_dag, lad.c_bilinear(l, n)), w
                    )
                    pair = product_reference(
                        lad.f("antifermion", m, False), lad.f("fermion", k, False)
                    )
                    c_nl = product_reference(lad.c(n, True), lad.c(l, False))
                    accumulate_reference(acc, product_reference(pair, c_nl), w)

    return PauliSum(layout.total_qubits, acc).prune()


def build_h_reference(
    config,
    params,
    layout,
    parts: tuple[str, ...] = ("HM", "HV", "HS", "HF"),
    cross_species_string: bool = True,
):
    """Canonical sum of the requested Hamiltonian parts (all four by default)."""
    total = PauliSum.zero(layout.total_qubits)
    for part in parts:
        total = add_reference(
            total, build_part_reference(part, config, params, layout, cross_species_string)
        )
    return total


def build_charge_reference(which: str, config, layout):
    """Diagonal charge operator: harmonic resolution K or baryon number Q."""
    acc: dict = {}
    lad = _LaddersReference(layout, True)
    if which == "K":
        for n in range(1, config.n_boson_modes + 1):
            number = product_reference(
                boson_ladder_reference(n, True, layout), boson_ladder_reference(n, False, layout)
            )
            accumulate_reference(acc, number, float(n))
        for n in range(1, config.n_fermion_modes + 1):
            accumulate_reference(acc, lad.f_bilinear("fermion", n, n), float(n))
        for n in range(1, config.n_antifermion_modes + 1):
            accumulate_reference(acc, lad.f_bilinear("antifermion", n, n), float(n))
    elif which == "Q":
        for n in range(1, config.n_fermion_modes + 1):
            accumulate_reference(acc, lad.f_bilinear("fermion", n, n), 1.0)
        for n in range(1, config.n_antifermion_modes + 1):
            accumulate_reference(acc, lad.f_bilinear("antifermion", n, n), -1.0)
    else:
        raise ValueError(f"unknown charge {which!r}")
    return PauliSum(layout.total_qubits, acc).prune()
