"""Time evolution: exact sector eigendecomposition and Trotterized rotations.

The Trotter step is an ordered product of single-string rotations
``exp(-i * angle * P)``.  The plan fixes a deterministic term order (diagonal
strings first, then flip-pattern-grouped strings) and ``trotter_evolve`` steps
one compiled form of it: consecutive rotations flipping the same few qubits are
composed into small unitaries on them, split into halves wherever one unitary
would need too many sign variants or bytes.  Such a unitary only couples bit
patterns that differ by a XOR of its flip masks, so it is stored as one block
per coset of their GF(2) span, and composed only on the part of that span its
rotations have reached so far; a run of diagonal rotations is likewise fused on
the low bits its Z masks have reached, then tiled to the register.  No rotation
leaves a coset ``psi0 ^ S`` of the span S of all the plan's flips, told apart by
the parity checks of S, so the blocks only touch the columns on the cosets the
start's nonzero amplitudes occupy; the rest of the register stays exactly zero.
This keeps 20-qubit runs tractable without changing the operator product; the
rotation-by-rotation reference it is tested against lives with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from operator import or_

import numpy as np

from .fock import enumerate_sector  # noqa: F401  bench/spans.py wraps the name here
from .pauli import COMPARE_TOL, I_POWERS, PauliSum, basis_indices, subspace_matrix

__all__ = [
    "SECTOR_DIM_CAP",
    "NORM_TOL",
    "TrotterPlan",
    "PlanCost",
    "exact_evolve",
    "make_plan",
    "trotter_evolve",
    "sample_counts",
    "plan_cost",
]

SECTOR_DIM_CAP = 4096
NORM_TOL = 1e-9  # largest norm drift a Trotter evolution may show


# -- exact evolution -------------------------------------------------------------


def exact_evolve(
    h: PauliSum,
    psi0: np.ndarray,
    t: float | np.ndarray,
    indices: np.ndarray,
) -> np.ndarray:
    """e^{-iHt} psi0 by dense eigendecomposition on the basis of sorted encoded indices.

    ``indices`` is a charge sector, ``fock.sector_indices(config, K, Q)``; ``psi0``
    and the result hold amplitudes on it: ``psi0`` has shape (dim,), the result
    (dim,) for a scalar t, (n_times, dim) otherwise.  h must conserve the sector's
    charges, as ``build_h`` checks: only the matrix elements inside the sector are
    read, and the ones leaving it are not looked at.  ValueError if that matrix is
    not Hermitian.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if len(indices) > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {len(indices)} exceeds cap {SECTOR_DIM_CAP}")
    if np.shape(psi0) != (len(indices),):
        raise ValueError(f"psi0 has shape {np.shape(psi0)}, not ({len(indices)},) of the sector")
    mat = subspace_matrix(h, indices)
    herm_defect = np.max(np.abs(mat - mat.conj().T))
    if herm_defect > 1e-9 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    modes = v.conj().T @ psi0
    out = (np.exp(-1j * np.outer(times, w)) * modes) @ v.T
    return out[0] if np.ndim(t) == 0 else out


# -- Trotter plans ---------------------------------------------------------------


def _flip_positions(x: int, n: int) -> tuple[int, ...]:
    return tuple(q for q in range(n) if x & (1 << (n - 1 - q)))


@dataclass
class TrotterPlan:
    """Ordered rotation realization of one evolution.

    ``rotations`` is the literal per-step sequence of unit-string rotations
    ``(x, z, angle)`` (already the half-angle palindrome for order 2); the
    angle of a Hamiltonian term with coefficient c is c*t/n_steps at order 1.
    Identity strings are applied as the exact per-step phase, not as rotations.
    """

    n_qubits: int
    order: int
    n_steps: int
    rotations: tuple[tuple[int, int, float], ...]
    step_phase: complex

    @cached_property
    def _checks(self) -> tuple[int, ...]:
        return _parity_checks({x for x, _, _ in self.rotations}, self.n_qubits)

    @cached_property
    def _compiled(self) -> list:
        return _compile_plan(self)


def make_plan(h: PauliSum, t: float, n_steps: int, order: int = 1) -> TrotterPlan:
    """Suzuki-Trotter plan for e^{-iHt} with the given step count and order."""
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    if not h.is_hermitian(COMPARE_TOL):
        raise ValueError("Hamiltonian must be Hermitian (real canonical coefficients)")
    n = h.n_qubits
    dt = t / n_steps
    identity_coeff = 0.0
    base = []
    # diagonal group first, then by flip positions; within a group by the Z letters
    # outside the flips, then the Y letters among them: the letter strings' lexicographic order
    flips, starts, zs, coeffs = h.flip_groups
    flips, starts, zs, coeffs = flips.tolist(), starts.tolist(), zs.tolist(), coeffs.real.tolist()
    for g in sorted(range(len(flips)), key=lambda g: (flips[g] != 0, _flip_positions(flips[g], n))):
        x, group = flips[g], slice(starts[g], starts[g + 1])
        for z, c in sorted(zip(zs[group], coeffs[group]), key=lambda e: (e[0] & ~x, e[0] & x)):
            if x == 0 and z == 0:
                identity_coeff = c
            else:
                base.append((x, z, c * dt))
    if order == 1:
        step = tuple(base)
    else:
        halves = [(x, z, a / 2.0) for x, z, a in base[:-1]]
        step = tuple(halves + [base[-1]] + halves[::-1]) if base else ()
    return TrotterPlan(
        n_qubits=n,
        order=order,
        n_steps=n_steps,
        rotations=step,
        step_phase=complex(np.exp(-1j * identity_coeff * dt)),
    )


# -- compiled evaluation ----------------------------------------------------------

_BLOCK_QUBIT_CAP = 8
_SIG_MASK_CAP = 6
_UNITARY_BYTES_CAP = 16 << 20  # per block: S signatures x C cosets x D*D entries x 16 bytes
_TABLE_ROTATIONS = 256  # rotations per batch of _compose's tables, C*D <= 256 phases each


def _parity_checks(flips, n: int) -> tuple[int, ...]:
    """Masks h with parity(h & x) = 0 for every flip x: n - rank independent ones.

    The flips are reduced to a GF(2) basis in reduced echelon form, each row keyed by
    its highest bit; every other bit j gives the check of j and the pivots of the rows
    holding j.
    """
    rows: dict[int, int] = {}
    for x in flips:
        for p, r in rows.items():
            if x >> p & 1:
                x ^= r
        if x:
            p = x.bit_length() - 1
            rows = {q: r ^ x if r >> p & 1 else r for q, r in rows.items()} | {p: x}
    return tuple(
        (1 << j) | sum(1 << p for p, r in rows.items() if r >> j & 1)
        for j in range(n)
        if j not in rows
    )


def _syndromes(indices: np.ndarray, checks) -> np.ndarray:
    """Per basis index, bit k the parity of its bits under the mask checks[k]."""
    out = np.zeros(np.shape(indices), dtype=np.int64)
    for k, h in enumerate(checks):
        out |= (np.bitwise_count(indices & h) & 1).astype(np.int64) << k
    return out


def _compile_plan(plan: TrotterPlan) -> list:
    """Group the step's rotation sequence into exactly evaluable segments.

    Consecutive diagonal rotations fuse into one elementwise phase factor.
    Consecutive flip rotations whose flipped-qubit union stays small compose
    into unitaries on those qubits, one block per coset of the span of their
    flip masks; Z letters outside the union only contribute a parity sign per
    non-support pattern and are handled by parity-conditioned variants of the
    unitary.  A run needing too many variants or bytes compiles as the blocks of
    its halves.  Segment evaluation is plain reassociation of the ordered rotation
    product, so the result equals the rotation-by-rotation reference up to float
    round-off, and amplitudes that no XOR of flips reaches stay exactly zero in both.
    """
    n = plan.n_qubits
    rotations = plan.rotations
    checks = plan._checks
    segments: list = []
    i = 0
    while i < len(rotations):
        x0 = rotations[i][0]
        if x0 == 0:
            j = i
            while j < len(rotations) and rotations[j][0] == 0:
                j += 1
            segments.append(_compile_diag(rotations[i:j], n))
            i = j
            continue
        union = x0
        j = i + 1  # a string flipping more than _BLOCK_QUBIT_CAP qubits forms a block alone
        while j < len(rotations):
            x = rotations[j][0]
            if x == 0 or (union | x).bit_count() > _BLOCK_QUBIT_CAP:
                break
            union |= x
            j += 1
        segments.extend(_compile_block(rotations[i:j], n, checks))
        i = j
    return segments


_PARITY_PHASE = I_POWERS[0] * (1.0 - 2.0 * np.arange(2, dtype=np.int8))


def _compile_diag(run: list, n: int):
    """One phase vector for a run of diagonal rotations, each factor c - i*s*(+-1) by
    the parity of the index under z.  A factor only reads the bits of z, so the vector
    is held on the low b bits, b the widest z so far, tiled up as b grows and to the
    whole register at the end: every index gets the products of the full-length form."""
    factor = np.ones(1, dtype=complex)
    idx = np.zeros(1, dtype=np.int64)
    for _, z, angle in run:
        if z >= factor.size:
            factor = np.tile(factor, (1 << z.bit_length()) // factor.size)
            idx = np.arange(factor.size, dtype=np.int64)
        # the rotation takes one of two values, by the parity of the index under z
        c, s = math.cos(angle), math.sin(angle)
        factor *= (c - 1j * s * _PARITY_PHASE)[np.bitwise_count(idx & z) & 1]
    return ("diag", np.tile(factor, (1 << n) // factor.size))


def _spread_offsets(positions: list[int], n: int) -> np.ndarray:
    """Global index offsets of all bit patterns over the given qubit positions."""
    count = len(positions)
    patt = np.arange(1 << count, dtype=np.int64)
    off = np.zeros(1 << count, dtype=np.int64)
    for i, q in enumerate(positions):
        off |= ((patt >> (count - 1 - i)) & 1) << (n - 1 - q)
    return off


def _compile_block(run: list, n: int, checks) -> list:
    """The coset blocks of a run of flip rotations, on the union of their flips.

    A run whose stacks would pass _SIG_MASK_CAP masks of Z letters outside that union
    or _UNITARY_BYTES_CAP bytes compiles as the blocks of its two halves, each on its
    own union, recursively.  A lone rotation always compiles: it has at most one
    outside mask, so S <= 2 signatures, and its f flipped qubits span one dimension,
    a stack of S * 2^(f+1) entries with f + S - 1 <= n, at most twice the register.
    Only a string flipping 19 or more qubits passes the byte cap alone.
    """
    union = reduce(or_, (x for x, _, _ in run))
    support = _flip_positions(union, n)
    f = len(support)
    out_masks: dict[int, int] = {}  # Z letters outside the support -> their signature bit
    outside = [z & ~union for _, z, _ in run]
    w_pos = [out_masks.setdefault(z_out, len(out_masks)) if z_out else -1 for z_out in outside]
    if len(out_masks) > _SIG_MASK_CAP:
        return _compile_halves(run, n, checks)
    # each flip and Z mask localized: bit n-1-q of the register is bit f-1-i, q = support[i]
    xz = np.array([(x, z) for x, z, _ in run], dtype=np.int64)
    bits = xz[:, :, None] >> np.array([n - 1 - q for q in support]) & 1
    flips, zls = (bits << np.arange(f - 1, -1, -1)).sum(axis=2).T.tolist()
    # the localized flips span d dimensions over GF(2): the block's unitary only couples
    # patterns in one coset of that span, so it is C = 2^(f-d) blocks of D = 2^d
    coord = {0: 0}  # span element -> its coordinate t over the basis found so far
    for xl in flips:
        if xl not in coord:
            coord |= {v ^ xl: t | len(coord) for v, t in coord.items()}
    span = np.array(sorted(coord, key=coord.get), dtype=np.int64)
    patt = np.arange(1 << f, dtype=np.int64)
    # np.unique without an index output checks np.ma.is_masked, which imports numpy.ma
    # (10-20 ms) on first use; the index-returning forms give the same sorted values
    reps = np.unique(np.min(patt[:, None] ^ span, axis=1), return_inverse=True)[0]
    local = reps[:, None] ^ span  # (C, D): coset c, span coordinate t
    rest = [q for q in range(n) if q not in support]
    sup_off = _spread_offsets(list(support), n)[local]
    rest_off = _spread_offsets(rest, n)
    # signature of each non-support pattern: one parity bit per distinct z_out mask
    sig = _syndromes(rest_off, list(out_masks))
    # the plan's syndrome of an index is that of its support part, the same for a whole
    # coset, XOR that of its rest part: sorted by both, the columns of one syndrome in a
    # group of cosets and a signature slice form a pair of contiguous ranges
    rest_syn = _syndromes(rest_off, checks)
    order = np.lexsort((rest_syn, sig))
    rest_off, sig, rest_syn = rest_off[order], sig[order], rest_syn[order]
    coset_syn = _syndromes(sup_off[:, 0], checks)
    by_coset = np.argsort(coset_syn, kind="stable")
    sup_off = sup_off[by_coset]
    syns, starts = np.unique(coset_syn[by_coset], return_index=True)
    groups = list(zip(starts.tolist(), starts[1:].tolist() + [len(reps)], syns.tolist()))
    present = np.unique(sig, return_inverse=True)[0]
    bounds = np.searchsorted(sig, present, side="left").tolist() + [sig.size]
    n_cos, dim = local.shape
    if len(present) * n_cos * dim * dim * 16 > _UNITARY_BYTES_CAP and len(run) > 1:
        return _compile_halves(run, n, checks)
    # one (C, D, D) stack per signature, composed rotation by rotation so that each stored
    # entry rounds like the dense update's; signature bit w_pos set runs a rotation at
    # -angle, and column -1 (w_pos = -1, no outside Z letters) is all zeros
    signs = (present[:, None] >> np.arange(len(out_masks) + 1)) & 1
    rots = [
        (coord[xl], zl, I_POWERS[(x & z).bit_count() & 3], angle, w)
        for xl, zl, (x, z, angle), w in zip(flips, zls, run, w_pos)
    ]
    u = _compose(rots, local, signs)[:, by_coset]
    # per signature slice, its stack and the (rest syndrome, first, end) of each column range
    slices = []
    for lo, hi, u_sig in zip(bounds, bounds[1:], u):
        rest_syns, firsts = np.unique(rest_syn[lo:hi], return_index=True)
        firsts = (firsts + lo).tolist()
        slices.append((tuple(zip(rest_syns.tolist(), firsts, firsts[1:] + [hi])), u_sig))
    return [("blk", sup_off, rest_off, groups, slices)]


def _compile_halves(run: list, n: int, checks) -> list:
    half = len(run) // 2
    return _compile_block(run[:half], n, checks) + _compile_block(run[half:], n, checks)


def _compose(rots: list, local: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The (S, C, D, D) stack of a block's ordered rotations, one (C, D, D) per signature.

    ``rots`` holds (k, zl, eta, angle, w_pos) per rotation: k the span coordinate of its
    localized flip, zl its localized Z letters, eta its Y phase; it runs at -angle where
    ``signs[s, w_pos]`` is set.  ``local[c, t]`` is the pattern of coset c at coordinate t.
    Each rotation is the dense update u <- c*u - (i*sin)*(phase*u)[t ^ k] on the rows t,
    every product formed and rounded as written, so each entry has the bits of the
    allocating form kept as the tests' ``compose_reference``.

    The span coordinates number the basis flips in the order they first appear, so while
    the flips seen so far span m dimensions every k is below 2^m and u only couples rows
    and columns that agree above bit m: it is held as w[s, c, a, j] = u[j >> m << m | a, j]
    and widened (each sub-block on the diagonal of the new bits) when a k reaches 2^m.
    The entries left out are exact +0, as the dense update keeps them while c > 0; from
    a rotation with a cosine <= 0 on, where c*(+0) - (+0) gives -0, w spans all d bits.
    XOR by k flips bits of a: with the rows split into m axes of size 2, the rows a ^ k
    are a view of w flipped on the axes of k's bits, and the update runs in four in-place
    passes over it.
    """
    n_cos, dim = local.shape
    d = dim.bit_length() - 1
    ks, zls, etas, angles, w_pos = (list(v) for v in zip(*rots))
    # per rotation and signature the (cos, sin) of +-angle
    trig = [[(math.cos(a), math.sin(a)), (math.cos(-a), math.sin(-a))] for a in angles]
    cs = np.array(trig)[np.arange(len(rots))[:, None], signs[:, w_pos].T]  # (R, S, 2)
    c, i_sn = (v[:, :, None, None, None] for v in (cs[..., 0].astype(complex), 1j * cs[..., 1]))
    # the span width each rotation runs on: that of the flips so far, all d from the
    # first cosine <= 0 on
    c_pos = (cs[..., 0] > 0).all(axis=1).tolist()
    widths = np.maximum.accumulate([k.bit_length() if p else d for k, p in zip(ks, c_pos)])
    w = np.ones((len(signs), n_cos, 1, dim), dtype=complex)  # m = 0: the diagonal
    m = start = 0
    for m_next, same in groupby(widths.tolist()):
        end = start + len(list(same))
        w, m = _widen(w, m, m_next), m_next
        buf = np.empty_like(w)
        split = w.shape[:2] + (2,) * m + (dim >> m, 1 << m)  # bit m-1-i of a on axis 2+i
        w_bits, buf_bits = w.reshape(split), buf.reshape(split)
        flipped: dict[int, np.ndarray] = {}
        local_m = local.reshape(n_cos, dim >> m, 1 << m).transpose(0, 2, 1)  # (C, a, j >> m)
        for lo in range(start, end, _TABLE_ROTATIONS):
            hi = min(lo + _TABLE_ROTATIONS, end)
            # per rotation and coset the phase of the rows t ^ k: row 0 is the coset of
            # pattern 0, so local[0, k] is the span element of coordinate k
            at_k = local_m ^ local[0, ks[lo:hi]][:, None, None, None]
            par = np.bitwise_count(at_k & np.array(zls[lo:hi])[:, None, None, None]) & 1
            phase = np.array(etas[lo:hi])[:, None, None, None] * (1.0 - 2.0 * par.astype(np.int8))
            phase = phase.reshape(phase.shape[:2] + split[2:-1] + (1,))
            for r, k in enumerate(ks[lo:hi], lo):
                if k not in flipped:
                    flipped[k] = np.flip(w_bits, axis=tuple(1 + m - b for b in range(m) if k >> b & 1))
                np.multiply(phase[r - lo], flipped[k], out=buf_bits)
                np.multiply(i_sn[r], buf, out=buf)
                np.multiply(c[r], w, out=w)
                np.subtract(w, buf, out=w)
        start = end
    return _widen(w, m, d).reshape(len(signs), n_cos, dim, dim)


def _widen(w: np.ndarray, m: int, m_new: int) -> np.ndarray:
    """A stack held on span width m (``_compose``'s w) held on width m_new >= m: row
    a' = b' << m | a of column j = (j >> m_new, b, j_low) is row a of j where b' = b, else +0."""
    if m_new == m:
        return w
    n_sig, n_cos, rows, dim = w.shape
    grow = 1 << (m_new - m)
    out = np.zeros((n_sig, n_cos, grow, rows, dim >> m_new, grow, rows), dtype=complex)
    src = w.reshape(n_sig, n_cos, rows, dim >> m_new, grow, rows)
    for b in range(grow):
        out[:, :, b, :, :, b] = src[:, :, :, :, b]
    return out.reshape(n_sig, n_cos, grow * rows, dim)


def _reachable(segment, wanted: set[int]):
    """A segment cut to the columns whose syndrome is in ``wanted``: blocks become the
    list of their (coset rows, column offsets, unitaries) pieces, the rest stays whole."""
    if segment[0] != "blk":
        return segment
    _, sup_off, rest_off, groups, slices = segment
    return ("blk", [
        (sup_off[c0:c1, :, None], rest_off[r0:r1], u[c0:c1])
        for c0, c1, coset_syn in groups
        for ranges, u in slices
        for rest_syn, r0, r1 in ranges
        if coset_syn ^ rest_syn in wanted
    ])


def _apply_segment(segment, psi: np.ndarray) -> np.ndarray:
    kind = segment[0]
    if kind == "diag":
        psi *= segment[1]
        return psi
    for sup_off, rest_off, u in segment[1]:
        idx = sup_off + rest_off
        psi[idx] = u @ psi[idx]
    return psi


def trotter_evolve(plan: TrotterPlan, psi0: np.ndarray, observer=None) -> np.ndarray:
    """Apply the plan's compiled segments for all steps; norm is preserved.

    ``observer(step, psi)`` is called after each full step with the live
    statevector (read-only).  The plan compiles once, on first use: runs of
    diagonal rotations become phase vectors, runs of flip rotations small
    unitaries stored one block per coset of the span of their flips (a run too
    large for one block as the blocks of its halves).  No rotation changes an
    index's syndrome under the plan's parity checks, so the blocks visit only
    the columns whose syndrome is that of a nonzero amplitude of psi0; every
    other amplitude is and stays exactly zero.  The product equals the ordered rotation product up
    to round-off, and the skipped amplitudes are exact zeros in both.
    """
    if psi0.shape != (1 << plan.n_qubits,):
        raise ValueError("statevector length does not match the plan's register")
    psi = psi0.astype(complex, copy=True)
    syndromes = _syndromes(np.flatnonzero(psi), plan._checks)
    wanted = set(np.unique(syndromes, return_inverse=True)[0].tolist())
    segments = [_reachable(segment, wanted) for segment in plan._compiled]
    for step in range(plan.n_steps):
        for segment in segments:
            _apply_segment(segment, psi)
        psi *= plan.step_phase
        if observer is not None:
            observer(step + 1, psi)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise RuntimeError(f"norm drifted to {norm!r} during Trotter evolution")
    return psi


def sample_counts(amp, shots: int, seed: int, indices, n_qubits: int) -> dict[str, int]:
    """Multinomial readout histogram over basis bitstrings, reproducible per seed.

    amp holds the amplitudes on the strictly increasing basis ``indices`` of an
    ``n_qubits`` register (ValueError if an index is negative, wider, out of order or not one per
    amplitude).  numpy's multinomial draws one binomial per category in order and draws
    nothing for a zero-probability category, so a register vector read on its nonzero
    entries and their indices gives the draws of the whole register.  Unsorted indices
    would reorder the categories and so the draws.  The draws are discontinuous at ties:
    category j is a binomial of p_j / (p_j + p_(j+1) + ...), drawn as its complement once
    that passes 1/2, so two tied probabilities computed one ulp apart can swap counts.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    indices = basis_indices(indices, n_qubits)
    if indices.shape != np.shape(amp):
        raise ValueError("indices must be strictly increasing, one per amplitude")
    probs = np.abs(amp) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hits = np.nonzero(counts)[0]
    return {format(int(i), f"0{n_qubits}b"): int(c) for i, c in zip(indices[hits], counts[hits])}


@dataclass(frozen=True)
class PlanCost:
    rotations_total: int
    two_qubit_weight: int


def plan_cost(plan: TrotterPlan) -> PlanCost:
    """Abstract cost: total rotation count and an entangling-weight proxy."""
    per_step = len(plan.rotations)
    weight = sum((x | z).bit_count() - 1 for x, z, _ in plan.rotations)
    return PlanCost(
        rotations_total=per_step * plan.n_steps,
        two_qubit_weight=weight * plan.n_steps,
    )
