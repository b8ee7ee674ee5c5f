"""Pauli-string algebra and the ladder-operator mappings onto the register.

A string is an ``(x, z)`` bit-mask pair (qubit ``q`` maps to bit ``n-1-q`` so
masks align with basis-index bits): ``I=(0,0)``, ``X=(1,0)``, ``Y=(1,1)``,
``Z=(0,1)``.  A sum is a table of its strings, int64 mask arrays beside its
complex coefficients, so products, sums, scaling, adjoints and sector
matrices are array passes of XOR, popcount and sign bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .fock import QubitLayout

__all__ = [
    "DEFAULT_TOL",
    "COMPARE_TOL",
    "I_POWERS",
    "PauliString",
    "PauliSum",
    "canonicalize",
    "product",
    "products",
    "sum_of_products",
    "adjoint",
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
# round-off floor of the absolute leak and Hermiticity checks, relative to the magnitude
# of what they sum: their tolerances rise to it when coefficients grow large
_ROUNDOFF = 64 * np.finfo(float).eps

I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k, the phase of a string with k Y letters
_PHASE_ARRAY = np.array(I_POWERS)
_LETTER_BYTES = np.frombuffer(b"IXZY", dtype=np.uint8)  # indexed by x bit | z bit << 1


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


@dataclass(frozen=True)
class PauliString:
    """One term: complex coefficient and a letter per qubit."""

    coeff: complex
    letters: str

    @property
    def n_qubits(self) -> int:
        return len(self.letters)


class PauliSum:
    """Canonical sum of Pauli strings on a fixed register, held as its term table.

    ``x`` and ``z`` are the int64 flip and phase masks of the strings (so at
    most 63 qubits, like every register) and ``coeffs`` their complex
    coefficients, one entry per distinct string.  Canonical form: like strings
    merged, coefficients below the drop tolerance removed, iteration in
    lexicographic letter order (I < X < Y < Z), a view of the arrays.  A
    ``{(x, z): coefficient}`` dict is accepted as input and converted to
    arrays once, at construction.
    """

    def __init__(self, n_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        terms = terms or {}
        count = len(terms)
        masks = np.fromiter(itertools.chain.from_iterable(terms), np.int64, 2 * count)
        self.n_qubits = int(n_qubits)
        self.x, self.z = masks[0::2], masks[1::2]
        self.coeffs = np.fromiter(terms.values(), complex, count)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, n_qubits: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """The sum of distinct terms given as arrays."""
        out = cls.__new__(cls)
        out.n_qubits, out.x, out.z, out.coeffs = n_qubits, x, z, coeffs
        return out

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

    @cached_property
    def letters(self) -> np.ndarray:
        """Each string's letters as ``S{n}`` bytes, one lookup per qubit on its (x, z) bits.

        The bytes sort I < X < Y < Z, the canonical order.  A 0-qubit string is
        one zero byte, which reads as ``b""``.
        """
        n = self.n_qubits
        codes = np.zeros((self.x.size, max(n, 1)), dtype=np.uint8)
        for q in range(n):
            shift = n - 1 - q
            codes[:, q] = _LETTER_BYTES[((self.x >> shift) & 1) | (((self.z >> shift) & 1) << 1)]
        return codes.view(f"S{max(n, 1)}").ravel()

    @cached_property
    def order(self) -> np.ndarray:
        """Positions of the terms in canonical order."""
        return np.argsort(self.letters)

    @property
    def terms(self) -> tuple[PauliString, ...]:
        coeffs = self.coeffs.tolist()
        letters = self.letters[self.order].astype(str).tolist()
        return tuple(PauliString(coeffs[i], s) for i, s in zip(self.order.tolist(), letters))

    @cached_property
    def flip_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The terms sorted by flip mask: ``(flips, starts, z, coeffs)``.

        Group g holds the terms ``starts[g]:starts[g + 1]`` of the sorted ``z``
        and ``coeffs``, all with flip mask ``flips[g]``; the last entry of
        ``starts`` is the term count.  A group maps basis index i to i ^ x with
        amplitude sum_j i**nY_j * coeffs[j] * (-1)**popcount(i & z_j).  Groups
        come in the order of their flip masks' first terms, and terms keep
        their order within a group.
        """
        _, first, inverse = np.unique(self.x, return_index=True, return_inverse=True)
        home = first[inverse]  # a group is named by the position of its first term
        order = np.argsort(home, kind="stable")
        starts = np.append(np.flatnonzero(np.diff(home[order], prepend=-1)), order.size)
        return self.x[order[starts[:-1]]], starts, self.z[order], self.coeffs[order]

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        return iter(self.terms)

    def coefficient(self, letters: str) -> complex:
        x, z = _letters_to_masks(letters)
        at = np.flatnonzero((self.x == x) & (self.z == z))
        return complex(self.coeffs[at[0]]) if at.size else 0.0 + 0.0j

    def prune(self, tol: float = DEFAULT_TOL) -> "PauliSum":
        keep = np.hypot(self.coeffs.real, self.coeffs.imag) > tol
        return PauliSum._of(self.n_qubits, self.x[keep], self.z[keep], self.coeffs[keep])

    def equals(self, other: "PauliSum", tol: float = COMPARE_TOL) -> bool:
        """Each string's coefficients differ by at most tol in modulus, a missing one counting 0."""
        if self.n_qubits != other.n_qubits:
            return False
        x, z = np.concatenate([self.x, other.x]), np.concatenate([self.z, other.z])
        ids, first = _first_ids(x, z)
        diff = np.zeros(first.size, complex)
        diff[ids[: len(self)]] = self.coeffs
        diff[ids[len(self) :]] -= other.coeffs  # each sum's strings are distinct
        return bool(np.all(np.hypot(diff.real, diff.imag) <= tol))

    def is_hermitian(self, tol: float = COMPARE_TOL) -> bool:
        """Every coefficient's imaginary part is at most tol, or at most the round-off
        floor _ROUNDOFF times the largest real or imaginary part where that is larger
        (within sqrt(2) of the largest modulus, which could overflow)."""
        re, im = np.abs(self.coeffs.real), np.abs(self.coeffs.imag)
        floor = _ROUNDOFF * float(max(re.max(initial=0.0), im.max(initial=0.0)))
        return bool(np.all(im <= max(tol, floor)))

    # -- arithmetic -----------------------------------------------------------

    def _check_size(self, other: "PauliSum"):
        if self.n_qubits != other.n_qubits:
            raise ValueError(f"register size mismatch: {self.n_qubits} vs {other.n_qubits}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_size(other)
        return _plus(self, other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return product(self, scalar)
        w = complex(scalar)  # so a real factor w acts as complex(w, 0.0) on every interpreter
        re, im = _complex_product(self.coeffs.real, self.coeffs.imag, w.real, w.imag)
        return _joined(self.n_qubits, self.x, self.z, re, im).prune()

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        return product(self, other)

    def __repr__(self) -> str:
        if not len(self):
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
        acc[k] = acc.get(k, complex(0.0, 0.0)) + complex(t.coeff)
    return PauliSum(n, acc).prune(tol)


# -- products as array passes ----------------------------------------------------
#
# The kernel reproduces the dict loop ``out[k] = c if new else out[k] + c`` over the
# string pairs bit for bit, with the complex arithmetic of CPython up to 3.13 fixed
# in float64 ufuncs so that the output does not depend on the interpreter: the full
# complex product, also for a real factor w taken as ``complex(w, 0.0)`` (one
# rounding per operation, so no fused multiply-add); sums per key that start from
# the first value and add the later ones in occurrence order (``np.add.at`` on
# -0.0, the additive identity that keeps a first -0.0), keys in first-occurrence
# order; a key new to a sum starts from ``complex(0.0, 0.0) + c``; and the prune
# ``abs(c) > tol`` as ``np.hypot``, which is CPython's ``abs(complex)``.


def _complex_product(ar, ai, br, bi):
    """CPython's ``(ar + ai*j) * (br + bi*j)``, one float64 operation at a time."""
    return ar * br - ai * bi, ar * bi + ai * br


def _first_ids(x: np.ndarray, z: np.ndarray, job: np.ndarray | None = None):
    """Ids of the distinct (job, x, z) keys, numbered in order of first occurrence.

    ``job``, if given, must not decrease along the entries.  Returns each
    entry's id and, in id order, each key's first position.  One sort
    groups the keys with their positions in order: a quicksort of
    (x, z, position) packed into one int64 when twice the mask width plus
    the position bits fit 63 bits, else a stable ``np.lexsort`` on (x, z),
    which takes any int64 masks and is several times slower.
    """
    m = x.size
    if m == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    new = np.empty(m, bool)
    new[0] = True
    b = (m - 1).bit_length()
    width = int((x | z).max()).bit_length()
    if 2 * width + b <= 63:  # pack (x, z, position) into one int64 and sort that
        packed = np.sort((((x << width) | z) << b) | np.arange(m))
        pos = packed & ((1 << b) - 1)
        packed >>= b
        np.not_equal(packed[1:], packed[:-1], out=new[1:])
    else:
        pos = np.lexsort((z, x))
        xs, zs = x[pos], z[pos]
        np.not_equal(xs[1:], xs[:-1], out=new[1:])
        new[1:] |= zs[1:] != zs[:-1]
    if job is not None:  # positions rise within a key, so a job change starts a group
        job = job[pos]
        new[1:] |= job[1:] != job[:-1]
    starts = np.flatnonzero(new)
    first = pos[starts]
    by_first = np.argsort(first)
    rank = np.empty(starts.size, np.int64)
    rank[by_first] = np.arange(starts.size)
    sizes = np.empty(starts.size, np.int64)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1] = m - starts[-1]
    ids = np.empty(m, np.int64)
    ids[pos] = np.repeat(rank, sizes)
    return ids, first[by_first]


def _sums(x: np.ndarray, z: np.ndarray, re: np.ndarray, im: np.ndarray, job=None):
    """Per-key sums as a dict forms them: ``(first position of each key, re, im)``.

    Keys come in first-occurrence order; each sum starts from its first value
    and adds the later ones in order.
    """
    ids, first = _first_ids(x, z, job)
    out = np.full((2, first.size), -0.0)
    np.add.at(out[0], ids, re)
    np.add.at(out[1], ids, im)
    return first, out[0], out[1]


def _kept(first: np.ndarray, re: np.ndarray, im: np.ndarray):
    """The keys whose sums pass the prune ``abs(c) > DEFAULT_TOL``."""
    keep = np.hypot(re, im) > DEFAULT_TOL
    return first[keep], re[keep], im[keep]


def _job_products(lefts: list[PauliSum], rights: list[PauliSum]):
    """The products lefts[j] . rights[j], term by term as the dict loop forms them.

    Pairs run over the left terms, then the right terms, in array order; each
    product keeps the keys above ``DEFAULT_TOL``.  Returns ``(job, x, z, re,
    im)``: the kept terms, job by job, each product's in first-occurrence order.
    """
    na = np.array([t.x.size for t in lefts], np.int64)
    nb = np.array([t.x.size for t in rights], np.int64)
    counts = na * nb
    job = np.repeat(np.arange(counts.size), counts)
    local = np.arange(job.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = nb[job]
    ia = np.repeat(np.cumsum(na) - na, counts) + local // width
    ib = np.repeat(np.cumsum(nb) - nb, counts) + local % width
    del local, width
    ax, az, ac = (np.concatenate(arrays) for arrays in zip(*((t.x, t.z, t.coeffs) for t in lefts)))
    bx, bz, bc = (np.concatenate(arrays) for arrays in zip(*((t.x, t.z, t.coeffs) for t in rights)))
    x1, z1, x2, z2 = ax[ia], az[ia], bx[ib], bz[ib]
    x3, z3 = x1 ^ x2, z1 ^ z2
    # i**k with k = nY(1) + nY(2) - nY(3) (mod 4); uint8 wraps mod 256, a multiple of 4
    k = np.bitwise_count(ax & az)[ia] + np.bitwise_count(bx & bz)[ib] - np.bitwise_count(x3 & z3)
    k &= 3
    flip = (np.bitwise_count(z1 & x2) & 1).astype(bool)
    del x1, z1, x2, z2
    re, im = _complex_product(ac.real[ia], ac.imag[ia], bc.real[ib], bc.imag[ib])
    re, im = _complex_product(re, im, _PHASE_ARRAY.real[k], _PHASE_ARRAY.imag[k])
    np.negative(re, out=re, where=flip)
    np.negative(im, out=im, where=flip)
    first, re, im = _kept(*_sums(x3, z3, re, im, job))
    return job[first], x3[first], z3[first], re, im


def _plus(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a + b`` as the dict loop ``out[k] = out.get(k, 0j) + c`` over a copy of a, pruned.

    a's keys keep their places and b's new keys follow; a new key's value is
    ``complex(0.0, 0.0) + c``, which turns a -0.0 part into +0.0.
    """
    x, z = np.concatenate([a.x, b.x]), np.concatenate([a.z, b.z])
    coeffs = np.concatenate([a.coeffs, b.coeffs])
    first, re, im = _sums(x, z, coeffs.real, coeffs.imag)
    # a's keys are distinct and come first, so the keys new to a are those past len(a)
    re[a.x.size :] += 0.0
    im[a.x.size :] += 0.0
    first, re, im = _kept(first, re, im)
    return _joined(a.n_qubits, x[first], z[first], re, im)


def _joined(n_qubits: int, x: np.ndarray, z: np.ndarray, re: np.ndarray, im: np.ndarray):
    coeffs = np.empty(re.size, complex)
    coeffs.real = re  # not re + 1j*im, which turns an imaginary -0.0 into +0.0
    coeffs.imag = im
    return PauliSum._of(n_qubits, x, z, coeffs)


def sum_of_products(n_qubits: int, slices) -> PauliSum:
    """Sum_j w_j * (A_j . B_j) over the jobs of every slice, pruned.

    ``slices`` yields ``(lefts, rights, weights)``: the sums A_j and B_j and
    the float w_j of each job.  Equals, bit for bit, adding each product's
    terms times ``complex(w_j, 0.0)`` into one dict job by job.  A slice's
    string pairs live only while it is formed; its scaled terms are kept in
    order and summed per key once all slices are in.
    """
    chunks = []
    for lefts, rights, weights in slices:
        for op in itertools.chain(lefts, rights):
            if op.n_qubits != n_qubits:
                raise ValueError(f"register size mismatch: {op.n_qubits} vs {n_qubits}")
        job, x, z, re, im = _job_products(lefts, rights)
        w = np.array(weights, float)[job]
        chunks.append((x, z, *_complex_product(re, im, w, 0.0)))
    if not chunks:
        return PauliSum.zero(n_qubits)
    x, z, re, im = (np.concatenate(c) for c in zip(*chunks))
    del chunks
    first, re, im = _kept(*_sums(x, z, re, im))
    return _joined(n_qubits, x[first], z[first], re, im)


def products(lefts: list[PauliSum], rights: list[PauliSum]) -> list[PauliSum]:
    """The products lefts[j] . rights[j], formed in one batch."""
    for a, b in zip(lefts, rights, strict=True):
        a._check_size(b)
    job, x, z, re, im = _job_products(lefts, rights)
    bounds = np.searchsorted(job, np.arange(len(lefts) + 1)).tolist()
    return [
        _joined(a.n_qubits, x[i:j], z[i:j], re[i:j], im[i:j])
        for a, i, j in zip(lefts, bounds, bounds[1:])
    ]


def product(a: PauliSum, b: PauliSum) -> PauliSum:
    """Distributed operator product with single-qubit Pauli phase rules."""
    return products([a], [b])[0]


def adjoint(a: PauliSum) -> PauliSum:
    """Hermitian conjugate: Pauli letters are self-adjoint, so conjugate coefficients."""
    return PauliSum._of(a.n_qubits, a.x, a.z, a.coeffs.conj())


# -- sector matrices -----------------------------------------------------------


_SLICE_ENTRIES = 1 << 16  # (groups or terms) x columns per vectorised pass: 1 MB of complex values


def subspace_matrix(op: PauliSum, indices: Iterable[int], tol: float = 1e-9) -> np.ndarray:
    """Matrix of the sum restricted to the span of the given basis indices.

    Every value of a flip group on a spanned index, in the span or out of it, is one
    ``reduceat`` sum over the group's terms in table order, whatever the slicing.  An
    out-of-span value above tol raises, unless it is within the round-off floor
    _ROUNDOFF times the 1-norm of its group's coefficients; ``tol=np.inf`` returns the
    restricted entries.
    """
    arr = np.fromiter(indices, dtype=np.int64)
    dim = arr.size
    order = np.argsort(arr, kind="stable")
    sorted_arr = arr[order]
    flips, starts, zs, coeffs = op.flip_groups
    # c * i**nY: numpy's complex product is CPython's formula, and with factors
    # 0 and +-1 every part is exact, so zeros keep the signs CPython gives them
    coeffs = coeffs * _PHASE_ARRAY[np.bitwise_count(np.repeat(flips, np.diff(starts)) & zs) & 3]
    # per group, the largest leak it may show: tol, or round-off of its 1-norm if larger
    floors = np.maximum(tol, _ROUNDOFF * np.add.reduceat(np.abs(coeffs), starts[:-1]))
    signs = np.stack((coeffs, -coeffs), axis=1).ravel()  # term j at 2j, negated at 2j + 1
    per_slice = max(1, _SLICE_ENTRIES // max(dim, 1))
    mat = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    bounds = starts.tolist()
    for first in range(0, flips.size, per_slice):  # look up where per_slice groups map the span
        targets = flips[first : first + per_slice, None] ^ arr
        pos = np.minimum(np.searchsorted(sorted_arr, targets), dim - 1)
        hit = sorted_arr[pos] == targets
        vals = np.empty(hit.shape, complex)  # (groups, columns)
        hi, stop = first, first + len(targets)
        while hi < stop:  # runs of whole groups of about per_slice terms; a larger group alone
            lo, hi = hi, max(hi + 1, bisect_right(bounds, bounds[hi] + per_slice, hi, stop + 1) - 1)
            odd = np.bitwise_count(arr[:, None] & zs[bounds[lo] : bounds[hi]]) & 1  # (columns, terms)
            signed = signs.take(odd + np.arange(2 * bounds[lo], 2 * bounds[hi], 2))
            vals[lo - first : hi - first] = np.add.reduceat(signed, starts[lo:hi] - bounds[lo], 1).T
        # an element (row, column) belongs to the one group with flip arr[row] ^ arr[column]
        mat[order[pos[hit]], np.nonzero(hit)[1]] = vals[hit]
        leaks = np.where(hit, 0.0, np.abs(vals))
        worst = max(worst, float(leaks[leaks > floors[first:stop, None]].max(initial=0.0)))
    if worst > 0.0:
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

    The mode's qubit is its one-qubit block, ``layout.block(species, mode)``.
    Creation is a Z string over every fermionic qubit preceding the target in
    register order times sigma_minus (occupied = |1>).  With
    ``cross_species_string`` the string of an antifermion operator also spans
    all fermion qubits, making the two species mutually anticommute; without
    it the string starts at the species' mode 1, so each species carries an
    independent string and they commute.
    """
    if species not in ("fermion", "antifermion"):
        raise ValueError(f"unknown species {species!r}")
    n = layout.total_qubits
    q, _ = layout.block(species, mode)
    string_start = 0 if cross_species_string else layout.block(species, 1)[0]
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
    start, _ = layout.block("boson", mode)
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
    """One term per line: ``<re> <im> <letters>`` in canonical order.

    Coefficient values repeat heavily, so each distinct float64 bit pattern is
    ``repr``-ed once.
    """
    order = op.order
    parts = np.concatenate([op.coeffs.real[order], op.coeffs.imag[order]])
    patterns, which = np.unique(parts.view(np.uint64), return_inverse=True)
    text = [repr(v) for v in patterns.view(np.float64).tolist()]
    letters = op.letters[order].astype(str).tolist()
    re, im = which[: order.size].tolist(), which[order.size :].tolist()
    return "\n".join([f"{text[a]} {text[b]} {s}" for a, b, s in zip(re, im, letters)])


def loads(text: str) -> PauliSum:
    terms = []
    for line in text.strip().splitlines():
        re_s, im_s, letters = line.split()
        terms.append(PauliString(complex(float(re_s), float(im_s)), letters))
    return canonicalize(terms)
