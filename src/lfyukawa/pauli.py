"""Pauli-string algebra and the ladder-operator mappings onto the register.

Strings are stored internally as ``(x, z)`` bit-mask pairs (qubit ``q`` maps to
bit ``n-1-q`` so masks align with basis-index bits): ``I=(0,0)``, ``X=(1,0)``,
``Y=(1,1)``, ``Z=(0,1)``.  Products, adjoints and statevector action then
reduce to XOR, popcount and sign bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import QubitLayout

__all__ = [
    "DEFAULT_TOL",
    "COMPARE_TOL",
    "MATRIX_QUBIT_CAP",
    "PauliString",
    "PauliSum",
    "canonicalize",
    "product",
    "commutator",
    "adjoint",
    "apply",
    "to_matrix",
    "subspace_matrix",
    "fermion_ladder",
    "boson_ladder",
    "sigma_plus",
    "sigma_minus",
    "proj0",
    "proj1",
    "dumps",
    "loads",
]

DEFAULT_TOL = 1e-12  # coefficients at or below this are dropped
COMPARE_TOL = 1e-10  # coefficient agreement in equality and Hermiticity checks
MATRIX_QUBIT_CAP = 14

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k


def _letters_to_masks(letters: str) -> tuple[int, int]:
    x = z = 0
    for ch in letters:
        x <<= 1
        z <<= 1
        if ch == "X":
            x |= 1
        elif ch == "Y":
            x |= 1
            z |= 1
        elif ch == "Z":
            z |= 1
        elif ch != "I":
            raise ValueError(f"invalid Pauli letter {ch!r}")
    return x, z


def _masks_to_letters(x: int, z: int, n: int) -> str:
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        xb, zb = bool(x & bit), bool(z & bit)
        out.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
    return "".join(out)


@dataclass(frozen=True)
class PauliString:
    """One term: complex coefficient and a letter per qubit."""

    coeff: complex
    letters: str

    @property
    def n_qubits(self) -> int:
        return len(self.letters)


class PauliSum:
    """Canonical sum of Pauli strings on a fixed register.

    Canonical form: like strings merged, coefficients below the drop tolerance
    removed, iteration in lexicographic letter order (I < X < Y < Z).
    """

    __slots__ = ("n_qubits", "_terms", "_sorted", "_groups")

    def __init__(self, n_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n_qubits = int(n_qubits)
        self._terms: dict[tuple[int, int], complex] = terms if terms is not None else {}
        self._sorted: tuple[PauliString, ...] | None = None
        self._groups: tuple[tuple[int, tuple[int, ...], np.ndarray], ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): complex(coeff)})

    @classmethod
    def from_label(cls, letters: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(len(letters), {_letters_to_masks(letters): complex(coeff)})

    # -- canonical views ------------------------------------------------------

    @property
    def terms(self) -> tuple[PauliString, ...]:
        if self._sorted is None:
            items = [
                (_masks_to_letters(x, z, self.n_qubits), c) for (x, z), c in self._terms.items()
            ]
            items.sort(key=lambda t: t[0])
            self._sorted = tuple(PauliString(c, s) for s, c in items)
        return self._sorted

    @property
    def flip_groups(self) -> tuple[tuple[int, tuple[int, ...], np.ndarray], ...]:
        """The terms grouped by flip mask: one ``(x, z masks, coefficients)`` per group.

        Each coefficient carries its string's i**nY phase, so a group maps basis
        index i to i ^ x with amplitude sum_j coeffs[j] * (-1)**popcount(i & z_j).
        """
        if self._groups is None:
            acc: dict[int, tuple[list[int], list[complex]]] = {}
            for (x, z), c in self._terms.items():
                zs, cs = acc.setdefault(x, ([], []))
                zs.append(z)
                cs.append(c * _PHASES[(x & z).bit_count() & 3])
            self._groups = tuple(
                (x, tuple(zs), np.array(cs, dtype=complex)) for x, (zs, cs) in acc.items()
            )
        return self._groups

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self.terms)

    def coefficient(self, letters: str) -> complex:
        return self._terms.get(_letters_to_masks(letters), 0.0 + 0.0j)

    def prune(self, tol: float = DEFAULT_TOL) -> "PauliSum":
        return PauliSum(self.n_qubits, {k: c for k, c in self._terms.items() if abs(c) > tol})

    def equals(self, other: "PauliSum", tol: float = COMPARE_TOL) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol for k in keys)

    def is_hermitian(self, tol: float = COMPARE_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    # -- arithmetic -----------------------------------------------------------

    def _check_size(self, other: "PauliSum"):
        if self.n_qubits != other.n_qubits:
            raise ValueError(f"register size mismatch: {self.n_qubits} vs {other.n_qubits}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_size(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0.0) + c
        return PauliSum(self.n_qubits, out).prune()

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return product(self, scalar)
        return PauliSum(self.n_qubits, {k: c * scalar for k, c in self._terms.items()}).prune()

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        return product(self, other)

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum(zero, n={self.n_qubits})"
        head = ", ".join(f"{t.coeff:.6g}*{t.letters}" for t in self.terms[:3])
        more = "" if len(self) <= 3 else f", ... {len(self)} terms"
        return f"PauliSum({head}{more})"


def canonicalize(terms: Iterable[PauliString], tol: float = DEFAULT_TOL) -> PauliSum:
    """Merge like strings, drop coefficients at or below tol, fix the order."""
    terms = list(terms)
    if not terms:
        raise ValueError("cannot infer register size from an empty term list")
    n = terms[0].n_qubits
    acc: dict[tuple[int, int], complex] = {}
    for t in terms:
        if t.n_qubits != n:
            raise ValueError("mixed register sizes in term list")
        k = _letters_to_masks(t.letters)
        acc[k] = acc.get(k, 0.0) + complex(t.coeff)
    return PauliSum(n, {k: c for k, c in acc.items() if abs(c) > tol})


def product(a: PauliSum, b: PauliSum) -> PauliSum:
    """Distributed operator product with single-qubit Pauli phase rules."""
    a._check_size(b)
    out: dict[tuple[int, int], complex] = {}
    bt = [(x2, z2, (x2 & z2).bit_count(), c2) for (x2, z2), c2 in b._terms.items()]
    for (x1, z1), c1 in a._terms.items():
        y1 = (x1 & z1).bit_count()
        for x2, z2, y2, c2 in bt:
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            k = (y1 + y2 - (x3 & z3).bit_count()) & 3
            c = c1 * c2 * _PHASES[k]
            if (z1 & x2).bit_count() & 1:
                c = -c
            key = (x3, z3)
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return PauliSum(a.n_qubits, out).prune()


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    return product(a, b) - product(b, a)


def adjoint(a: PauliSum) -> PauliSum:
    """Hermitian conjugate: Pauli letters are self-adjoint, so conjugate coefficients."""
    return PauliSum(a.n_qubits, {k: c.conjugate() for k, c in a._terms.items()})


# -- statevector action --------------------------------------------------------


@lru_cache(maxsize=8)
def _index_array(n_qubits: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    idx.setflags(write=False)
    return idx


def _term_phase(idx: np.ndarray, x: int, z: int) -> np.ndarray:
    """Per-source-index phase of a unit string: i**nY * (-1)**popcount(i & z)."""
    eta = _PHASES[(x & z).bit_count() & 3]
    if z == 0:
        return np.full(idx.shape, eta)
    par = (np.bitwise_count(idx & z) & 1).astype(np.int8)
    return eta * (1.0 - 2.0 * par)


def apply(op: PauliSum, psi: np.ndarray) -> np.ndarray:
    """Linear action of the sum on a statevector, without materializing matrices."""
    n = op.n_qubits
    dim = 1 << n
    if psi.shape != (dim,):
        raise ValueError(f"statevector length {psi.shape} does not match {n} qubits")
    idx = _index_array(n)
    out = np.zeros(dim, dtype=complex)
    for (x, z), c in op._terms.items():
        g = (c * _term_phase(idx, x, z)) * psi
        out += g[idx ^ x] if x else g
    return out


def to_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix of the sum; capped register size, intended for oracles."""
    n = op.n_qubits
    if n > MATRIX_QUBIT_CAP:
        raise ValueError(f"to_matrix supports at most {MATRIX_QUBIT_CAP} qubits, got {n}")
    dim = 1 << n
    idx = _index_array(n)
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in op._terms.items():
        mat[idx ^ x, idx] += c * _term_phase(idx, x, z)
    return mat


def subspace_matrix(op: PauliSum, indices: Iterable[int], tol: float = 1e-9) -> np.ndarray:
    """Matrix of the sum restricted to the span of the given basis indices.

    Each flip group fills its elements in one step.  The call raises if an
    out-of-span element (it belongs to one group) exceeds tol, which validates
    the sector restriction of a conserving Hamiltonian; ``tol=np.inf`` returns
    the restricted entries of an operator that leaves the span.
    """
    arr = np.fromiter(indices, dtype=np.int64)
    dim = arr.size
    order = np.argsort(arr, kind="stable")
    sorted_arr = arr[order]
    cols = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    for x, zs, coeffs in op.flip_groups:
        par = np.bitwise_count(arr[:, None] & np.array(zs, dtype=np.int64)) & 1
        vals = (1.0 - 2.0 * par) @ coeffs
        targets = arr ^ x
        pos = np.minimum(np.searchsorted(sorted_arr, targets), dim - 1)
        hit = sorted_arr[pos] == targets
        mat[order[pos[hit]], cols[hit]] = vals[hit]
        if not hit.all():
            worst = max(worst, float(np.abs(vals[~hit]).max()))
    if worst > tol:
        raise ValueError(f"operator leaves the subspace (matrix element {worst:.3e})")
    return mat


# -- single-qubit building blocks (Pauli-matrix combinations) -------------------


def _half_pair(n_qubits: int, qubit: int, flip: bool, sign: float, string: int = 0) -> PauliSum:
    """(X + sign*iY)/2 at the qubit if flip, else (I + sign*Z)/2, times the Z mask string."""
    bit = 1 << (n_qubits - 1 - qubit)
    x = bit if flip else 0
    second = complex(0.0, 0.5 * sign) if flip else complex(0.5 * sign, 0.0)
    return PauliSum(n_qubits, {(x, string): complex(0.5, 0.0), (x, string | bit): second})


def sigma_plus(n_qubits: int, qubit: int) -> PauliSum:
    """(X + iY)/2 = |0><1| at the qubit."""
    return _half_pair(n_qubits, qubit, True, 1.0)


def sigma_minus(n_qubits: int, qubit: int) -> PauliSum:
    """(X - iY)/2 = |1><0| at the qubit."""
    return _half_pair(n_qubits, qubit, True, -1.0)


def proj0(n_qubits: int, qubit: int) -> PauliSum:
    """(I + Z)/2 = |0><0| at the qubit."""
    return _half_pair(n_qubits, qubit, False, 1.0)


def proj1(n_qubits: int, qubit: int) -> PauliSum:
    """(I - Z)/2 = |1><1| at the qubit."""
    return _half_pair(n_qubits, qubit, False, -1.0)


# -- species ladder operators ---------------------------------------------------


def fermion_ladder(
    species: str,
    mode: int,
    dagger: bool,
    layout: QubitLayout,
    cross_species_string: bool = True,
) -> PauliSum:
    """Jordan-Wigner ladder operator for a fermion or antifermion mode.

    Creation is a Z string over every fermionic qubit preceding the target in
    register order times sigma_minus (occupied = |1>).  With
    ``cross_species_string`` the string of an antifermion operator also spans
    all fermion qubits, making the two species mutually anticommute; without
    it each species carries an independent string and they commute.
    """
    n = layout.total_qubits
    if species == "fermion":
        q = layout.fermion_qubit(mode)
        string_start = 0
    elif species == "antifermion":
        q = layout.antifermion_qubit(mode)
        string_start = 0 if cross_species_string else layout.config.n_fermion_modes
    else:
        raise ValueError(f"unknown species {species!r}")
    # qubits string_start .. q-1 are bits n-1-string_start down to n-q
    string = (1 << (n - string_start)) - (1 << (n - q))
    return _half_pair(n, q, True, -1.0 if dagger else 1.0, string)


def boson_occupancy_raisers(modals: int) -> list[tuple[float, tuple[str, ...]]]:
    """The creation operator of one bosonic mode as sigma/projector words.

    Each entry is ``(sqrt(j), factors)`` with one factor per block qubit, drawn
    from ``{"I+", "I-", "s+", "s-"}``; the words follow the binary-increment
    pattern on the big-endian occupancy register, e.g. for 7 modals the seven
    words run from sqrt(1) I+ I+ s- up to sqrt(7) I- I- s-.
    """
    if modals < 1 or (modals & (modals + 1)) != 0:
        raise ValueError(f"modal cap {modals} is not of the form 2**t - 1")
    t = (modals + 1).bit_length() - 1
    n = t - 1
    words = []
    for p in range(n + 1):
        q = n - p
        for j in range(1 << q, modals + 1, 1 << (q + 1)):
            prefix_bits = j >> (q + 1)  # top p binary digits of j
            factors = ["I-" if (prefix_bits >> (p - 1 - i)) & 1 else "I+" for i in range(p)]
            factors.append("s-")
            factors.extend(["s+"] * q)
            words.append((math.sqrt(j), tuple(factors)))
    return words


_FACTOR_BUILDERS = {"I+": proj0, "I-": proj1, "s+": sigma_plus, "s-": sigma_minus}


def boson_ladder(mode: int, dagger: bool, layout: QubitLayout) -> PauliSum:
    """Ladder operator of a bosonic mode from its binary occupancy encoding.

    Built as the sum of sigma/projector words from
    :func:`boson_occupancy_raisers` expanded into Pauli strings on the mode's
    qubit block; annihilation is the adjoint and the truncation gives
    a_dagger |m> = 0 at the modal cap.
    """
    n = layout.total_qubits
    start, width = layout.boson_block(mode)
    modals = layout.config.boson_modals[mode - 1]
    total = PauliSum.zero(n)
    for coeff, factors in boson_occupancy_raisers(modals):
        term = PauliSum.identity(n, coeff)
        for offset, factor in enumerate(factors):
            term = product(term, _FACTOR_BUILDERS[factor](n, start + offset))
        total = total + term
    return total if dagger else adjoint(total)


# -- text dump format -----------------------------------------------------------


def dumps(op: PauliSum) -> str:
    """One term per line: ``<re> <im> <letters>`` in canonical order."""
    return "\n".join(f"{t.coeff.real!r} {t.coeff.imag!r} {t.letters}" for t in op.terms)


def loads(text: str) -> PauliSum:
    terms = []
    for line in text.strip().splitlines():
        re_s, im_s, letters = line.split()
        terms.append(PauliString(complex(float(re_s), float(im_s)), letters))
    return canonicalize(terms)
