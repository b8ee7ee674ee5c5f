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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .fock import QubitLayout, _qubit_weights

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
    "basis_indices",
    "subspace_matrix",
    "check_charges",
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
CHARGE_TOL = 1e-9  # largest charge-moving element check_charges lets pass
# round-off floor of the absolute charge and Hermiticity checks, relative to the magnitude
# of what they sum: their tolerances rise to it when coefficients grow large
_ROUNDOFF = 64 * np.finfo(float).eps

I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k, the phase of a string with k Y letters
_PHASE_ARRAY = np.array(I_POWERS)
_LETTER_BYTES = np.frombuffer(b"IXZY", dtype=np.uint8)  # indexed by x bit | z bit << 1


# (shift, mask) steps that move bit b of a 32-bit value to bit 2b
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
           (2, 0x3333333333333333), (1, 0x5555555555555555))


def _spread(v: np.ndarray) -> np.ndarray:
    """Bit b of each uint64 below 2**32 moved to bit 2b, zeros between."""
    for shift, mask in _SPREAD:
        v = (v | v << shift) & mask
    return v


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
        """Positions of the terms in canonical order, the sorted order of ``letters``.

        Each qubit's letter is coded in 2 bits as ``2z + (x ^ z)``, which runs I < X < Y
        < Z, first qubit highest, 32 qubits to a uint64 word; one ``np.lexsort`` sorts
        the words, the first word the primary key.
        """
        x, z = self.x.astype(np.uint64), self.z.astype(np.uint64)
        words = []
        for low in range(self.n_qubits - 32, -32, -32):  # qubits 32w .. 32w + 31, padded right
            chunk = lambda m: (m >> low if low >= 0 else m << -low) & 0xFFFFFFFF
            words.append(_spread(chunk(z)) << 1 | _spread(chunk(x ^ z)))
        return np.lexsort(words[::-1]) if words else np.arange(x.size)

    @cached_property
    def support(self) -> int:
        """Mask of the qubits that some string acts on."""
        return int(np.bitwise_or.reduce(self.x | self.z))

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
        keep = _modulus(self.coeffs.real, self.coeffs.imag) > tol
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
        return bool(np.all(_modulus(diff.real, diff.imag) <= tol))

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
# ``abs(c) > tol`` as ``np.hypot``, which is CPython's ``abs(complex)``.  Parts past the
# float range turn into inf and nan without a warning, as CPython's complex arithmetic does.


def _complex_product(ar, ai, br, bi):
    """CPython's ``(ar + ai*j) * (br + bi*j)``, one float64 operation at a time."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ar * br - ai * bi, ar * bi + ai * br


def _modulus(re, im):
    """CPython's ``abs(re + im*j)``; inf where CPython raises OverflowError."""
    with np.errstate(over="ignore"):
        return np.hypot(re, im)


def _key_runs(x: np.ndarray, z: np.ndarray):
    """The positions that sort the (x, z) keys, equal keys in position order, and a
    mask of the sorted positions where a key's run starts.

    One sort: a quicksort of (x, z, position) packed into one int64 when twice
    the mask width plus the position bits fit 63 bits, else a stable
    ``np.lexsort`` on (x, z), which takes any int64 masks and is several times
    slower.
    """
    m = x.size
    new = np.empty(m, bool)
    if m == 0:
        return np.zeros(0, np.int64), new
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
    return pos, new


def _first_ids(x: np.ndarray, z: np.ndarray, job: np.ndarray | None = None):
    """Ids of the distinct (job, x, z) keys, numbered in order of first occurrence.

    ``job``, if given, must not decrease along the entries.  Returns each
    entry's id and, in id order, each key's first position.  One
    ``_key_runs`` sort groups the keys with their positions in order.
    """
    m = x.size
    if m == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    pos, new = _key_runs(x, z)
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
    keep = _modulus(re, im) > DEFAULT_TOL
    return first[keep], re[keep], im[keep]


def _job_products(lefts: list[PauliSum], rights: list[PauliSum]):
    """The products lefts[j] . rights[j], term by term as the dict loop forms them.

    Pairs run over the left terms, then the right terms, in array order; each
    product keeps the keys above ``DEFAULT_TOL``.  Returns ``(job, x, z, re,
    im)``: the kept terms, job by job, each product's in first-occurrence order.
    """
    if not lefts:
        none = np.zeros(0, np.int64)
        return none, none, none, np.zeros(0), np.zeros(0)
    na = np.array([t.x.size for t in lefts], np.int64)
    nb = np.array([t.x.size for t in rights], np.int64)
    counts = na * nb
    job = np.repeat(np.arange(counts.size), counts)
    rows = np.repeat(nb, na)  # one row per left term, as long as its job's right operand
    ia = np.repeat(np.arange(rows.size), rows)
    shift = np.cumsum(rows) - rows - np.repeat(np.cumsum(nb) - nb, na)  # row start - right offset
    ib = np.arange(job.size) - np.repeat(shift, rows)
    ax, az, ac = (np.concatenate(arrays) for arrays in zip(*((t.x, t.z, t.coeffs) for t in lefts)))
    bx, bz, bc = (np.concatenate(arrays) for arrays in zip(*((t.x, t.z, t.coeffs) for t in rights)))
    x1, z1, x2, z2 = ax[ia], az[ia], bx[ib], bz[ib]
    x3, z3 = x1 ^ x2, z1 ^ z2
    re, im = _complex_product(ac.real[ia], ac.imag[ia], bc.real[ib], bc.imag[ib])
    # a job on disjoint qubits forms each key once, with phase i**0 (still multiplied: a
    # zero part can change sign) and no sign flip
    support = lambda ops: np.array([t.support for t in ops], np.int64)
    repeated = np.repeat((support(lefts) & support(rights)) != 0, counts)
    at = np.flatnonzero(repeated)
    if not at.size:
        re, im = _complex_product(re, im, 1.0, 0.0)
        first, re, im = _kept(np.arange(job.size), re, im)
        return job[first], x3[first], z3[first], re, im
    # i**k with k = nY(1) + nY(2) - nY(3) (mod 4); uint8 wraps mod 256, a multiple of 4
    k = np.bitwise_count(ax & az)[ia] + np.bitwise_count(bx & bz)[ib] - np.bitwise_count(x3 & z3)
    k &= 3
    flip = (np.bitwise_count(z1 & x2) & 1).astype(bool)
    del x1, z1, x2, z2
    re, im = _complex_product(re, im, _PHASE_ARRAY.real[k], _PHASE_ARRAY.imag[k])
    np.negative(re, out=re, where=flip)
    np.negative(im, out=im, where=flip)
    # each key of an overlapping job keeps its first entry, which takes the key's sum
    sub, sum_re, sum_im = _sums(x3[at], z3[at], re[at], im[at], job[at])
    re[at[sub]], im[at[sub]] = sum_re, sum_im
    repeated[at[sub]] = False
    keys = np.flatnonzero(~repeated)
    first, re, im = _kept(keys, re[keys], im[keys])
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


# -- sector matrices and charge conservation ---------------------------------------


_BLOCK_PAIRS = 1 << 16  # index pairs looked up per pass of subspace_matrix


def basis_indices(indices, n_qubits: int) -> np.ndarray:
    """The basis indices as an array, checked strictly increasing, non-negative and
    within an ``n_qubits`` register (ValueError otherwise)."""
    arr = np.asarray(indices)
    if arr.ndim != 1 or np.any(np.diff(arr) <= 0):
        raise ValueError("basis indices must be strictly increasing")
    if arr.min(initial=0) < 0:
        raise ValueError(f"basis index {int(arr.min())} is negative")
    if int(arr.max(initial=0)).bit_length() > n_qubits:
        raise ValueError(f"basis index {int(arr.max())} does not fit in {n_qubits} qubits")
    return arr


def subspace_matrix(op: PauliSum, indices: Iterable[int]) -> np.ndarray:
    """Matrix of the sum restricted to the span of strictly increasing basis indices.

    Element (r, c) belongs to the one flip group ``indices[r] ^ indices[c]``, and is 0
    without that group: one ``reduceat`` sum of the group's terms on ``indices[c]``, in
    table order.  Only pairs inside the span are evaluated, so elements that leave it
    are neither formed nor checked: ``check_charges`` bounds those of a Hamiltonian once.
    """
    arr = basis_indices(np.fromiter(indices, dtype=np.int64), op.n_qubits)
    dim = arr.size
    mat = np.zeros((dim, dim), dtype=complex)
    if not len(op):
        return mat
    flips, starts, zs, coeffs = op.flip_groups
    # c * i**nY: numpy's complex product is CPython's formula, and with factors
    # 0 and +-1 every part is exact, so zeros keep the signs CPython gives them
    coeffs = coeffs * _PHASE_ARRAY[np.bitwise_count(np.repeat(flips, np.diff(starts)) & zs) & 3]
    signs = np.stack((coeffs, -coeffs), axis=1).ravel()  # term j at 2j, negated at 2j + 1
    by_flip = np.argsort(flips)
    sorted_flips = flips[by_flip]
    rows = max(1, _BLOCK_PAIRS // max(dim, 1))
    for top in range(0, dim, rows):
        targets = arr[top : top + rows, None] ^ arr  # the flip of each (row, column) pair
        pos = np.minimum(np.searchsorted(sorted_flips, targets), flips.size - 1)
        r, c = np.nonzero(sorted_flips[pos] == targets)
        group = by_flip[pos[r, c]]
        sizes = starts[group + 1] - starts[group]
        firsts = np.cumsum(sizes) - sizes  # where each element's run of terms starts
        terms = np.arange(sizes.sum()) + np.repeat(starts[group] - firsts, sizes)
        odd = np.bitwise_count(np.repeat(arr[c], sizes) & zs[terms]) & 1
        mat[top + r, c] = np.add.reduceat(signs.take(2 * terms + odd), firsts)
    return mat


def _charge_norms(op: PauliSum, layout: QubitLayout) -> tuple[np.ndarray, np.ndarray]:
    """Per flip group of op, the 1-norms of its part of [op, K] and [op, Q], and their floors.

    Both arrays have shape (2, groups), K first, groups in ``flip_groups`` order.  A charge
    C sums w_q n_q with n_q = (I - Z_q)/2, and [P, n_q] = -P Z_q for a string P that flips
    q (0 otherwise), with X Z = -iY and Y Z = iX.  So [op, C] has one entry +-i c w_q (+ for
    an X on q, - for a Y) on the string (x, z ^ q) per term and flipped qubit q, and one
    ``_key_runs`` sort sums the entries per string for both charges.  The floor is the
    larger of CHARGE_TOL and _ROUNDOFF times the group's sum of |c w_q|: its 1-norm times
    its flipped qubits' |w|.
    """
    flips, starts, zs, coeffs = op.flip_groups
    weights = np.array(_qubit_weights(layout), dtype=float)[::-1].T  # (charge, bit)
    group = np.repeat(np.arange(flips.size), np.diff(starts))  # of each term
    # one entry per term and flipped bit: peel each term's lowest flipped bit in turn
    term, rest = np.arange(zs.size), flips[group]
    terms, lows = [term[:0]], [rest[:0]]
    while rest.size:
        keep = rest != 0
        term, rest = term[keep], rest[keep]
        terms.append(term)
        lows.append(rest & -rest)
        rest = rest ^ lows[-1]
    term, low = np.concatenate(terms), np.concatenate(lows)
    pos, new = _key_runs(group[term], zs[term] ^ low)  # the entries string by string
    term, low = term[pos], low[pos]
    runs = np.flatnonzero(new)
    key_group = group[term[runs]]
    sign = np.where(zs[term] & low, -1.0, 1.0)  # an entry is i c w_q times this
    bits = np.bitwise_count(low - 1)
    re = coeffs.real[term] * sign
    im = coeffs.imag[term] * sign if coeffs.imag.any() else None  # a Hamiltonian's are all 0
    norms = np.empty((2, flips.size))
    for charge, w in enumerate(weights):
        sums = np.abs(np.add.reduceat(re * w[bits], runs))
        if im is not None:
            sums = _modulus(sums, np.add.reduceat(im * w[bits], runs))
        norms[charge] = np.bincount(key_group, sums, flips.size)
    one_norms = np.add.reduceat(np.abs(coeffs), starts[:-1]) if zs.size else np.zeros(0)
    flipped = np.abs(weights) @ ((flips[None, :] >> np.arange(layout.total_qubits)[:, None]) & 1)
    return norms, np.maximum(CHARGE_TOL, _ROUNDOFF * one_norms * flipped)


def check_charges(op: PauliSum, layout: QubitLayout) -> None:
    """Refuse a sum that moves the harmonic resolution K or the baryon number Q.

    For C = K or Q, <i^x|op|i> (C(i) - C(i^x)) = <i^x|[op, C]|i>, and the integer charges
    differ by at least 1 where they differ.  So the 1-norm of flip group x of [op, C]
    bounds every C-moving element of op, in every sector.  ValueError if one is above its
    floor (``_charge_norms``).
    """
    norms, floors = _charge_norms(op, layout)
    ratios = norms / floors
    if ratios.size and ratios.max() > 1.0:
        charge, group = np.unravel_index(np.argmax(ratios), ratios.shape)
        raise ValueError(
            f"operator moves charge {'KQ'[charge]}: flip group {int(op.flip_groups[0][group]):#x} has "
            f"charge-moving elements up to {norms[charge, group]:.3e}, {ratios[charge, group]:.3g} "
            f"times its tolerance {floors[charge, group]:.3e}"
        )


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
    words = boson_occupancy_raisers(modals)
    terms = [PauliSum.identity(n, coeff) for coeff, _ in words]
    for offset in range(len(words[0][1])):  # every word has one factor per block qubit
        factors = [_FACTOR_BUILDERS[word[offset]](n, start + offset) for _, word in words]
        terms = products(terms, factors)
    total = PauliSum.zero(n)
    for term in terms:
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
    letters = op.letters[order].tolist()  # bytes, decoded line by line: faster than astype(str)
    re, im = which[: order.size].tolist(), which[order.size :].tolist()
    return "\n".join([f"{text[a]} {text[b]} {s.decode()}" for a, b, s in zip(re, im, letters)])


def loads(text: str) -> PauliSum:
    terms = []
    for line in text.strip().splitlines():
        re_s, im_s, letters = line.split()
        terms.append(PauliString(complex(float(re_s), float(im_s)), letters))
    return canonicalize(terms)
