"""Independent reference constructions for the test suite.

The Hamiltonian oracle works directly on occupancy tuples: ladder operators
are applied combinatorially with explicit Jordan-Wigner signs and momentum
brackets are evaluated as exact fractions over the full index ranges.  No
Pauli-string machinery is used anywhere, so agreement with the package's
operator assembly checks both constructions at once.

The Trotter reference steps a plan rotation by rotation over the whole
register, applying each string letter by letter on the register reshaped to
one axis per qubit.  It shares no code with the package's compiled evaluator
(its phase vectors, coset blocks or rotation fallback), so agreement checks
that evaluator's reassociation of the ordered rotation product.

The register references ``apply``, ``to_matrix`` and ``expectation`` read each
term of a Pauli sum through its public letters and build the string's action
as a Kronecker product of one factor per letter, so they share no phase code
with the package either; the package itself only acts on a register in its
Trotter evaluator.

The charge reference decodes every register index into its occupancies and
counts K and Q on them, with none of the package's bit-plane arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from lfyukawa.fock import FockState, ModeConfig, k_of, q_of


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
