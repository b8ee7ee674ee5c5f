"""Time evolution: exact sector eigendecomposition and Trotterized rotations.

The Trotter step is an ordered product of single-string rotations
``exp(-i * angle * P)``.  The plan fixes a deterministic term order (diagonal
strings first, then flip-pattern-grouped strings) and the evaluator composes
consecutive rotations acting on the same few qubits into small dense unitaries,
which keeps 20-qubit runs tractable without changing the operator product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import QubitLayout, enumerate_sector
from .pauli import (
    COMPARE_TOL,
    PauliString,
    PauliSum,
    _PHASES,
    _index_array,
    _letters_to_masks,
    _term_phase,
    subspace_matrix,
)

__all__ = [
    "SECTOR_DIM_CAP",
    "NORM_TOL",
    "TrotterPlan",
    "PlanCost",
    "exp_pauli",
    "exact_evolve",
    "make_plan",
    "trotter_evolve",
    "sample_counts",
    "plan_cost",
]

SECTOR_DIM_CAP = 4096
NORM_TOL = 1e-9  # largest norm drift a Trotter evolution may show


def _rotate(psi: np.ndarray, x: int, z: int, theta: float) -> np.ndarray:
    """In-place exp(-i*theta*P) on the statevector for the unit string (x, z)."""
    n = int(psi.size).bit_length() - 1
    idx = _index_array(n)
    c, s = math.cos(theta), math.sin(theta)
    phase = _term_phase(idx, x, z)
    if x == 0:
        psi *= c - 1j * s * phase
    else:
        g = phase * psi
        psi *= c
        psi -= (1j * s) * g[idx ^ x]
    return psi


def exp_pauli(term: PauliString, theta: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i * theta * term) applied to psi; the real coefficient scales the angle."""
    if abs(term.coeff.imag) > 1e-12:
        raise ValueError("Pauli rotation requires a Hermitian term (real coefficient)")
    if psi.shape != (1 << term.n_qubits,):
        raise ValueError("statevector length does not match the term's register")
    x, z = _letters_to_masks(term.letters)
    return _rotate(psi.astype(complex, copy=True), x, z, theta * term.coeff.real)


# -- exact evolution -------------------------------------------------------------


def exact_evolve(
    h: PauliSum,
    psi0: np.ndarray,
    t: float | np.ndarray,
    sector: tuple[int, int],
    layout: QubitLayout,
) -> np.ndarray:
    """e^{-iHt} psi0 by dense eigendecomposition inside the charge sector (K, Q).

    ``psi0`` and the result hold amplitudes on the basis
    ``enumerate_sector(layout.config, K, Q)``, in that (encoded-index) order:
    ``psi0`` has shape (dim,), the result (dim,) for a scalar t, (n_times, dim) otherwise.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    states = enumerate_sector(layout.config, *sector)
    if len(states) > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {len(states)} exceeds cap {SECTOR_DIM_CAP}")
    if np.shape(psi0) != (len(states),):
        raise ValueError(f"psi0 has shape {np.shape(psi0)}, not ({len(states)},) of the sector")
    indices = np.array([layout.encode(s) for s in states], dtype=np.int64)
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
    groups = sorted(h.flip_groups, key=lambda g: (g[0] != 0, _flip_positions(g[0], n)))
    for x, zs, coeffs in groups:
        for z, c in sorted(zip(zs, coeffs), key=lambda e: (e[0] & ~x, e[0] & x)):
            c = float((c * _PHASES[-(x & z).bit_count() & 3]).real)  # unfold i**nY
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
_UNITARY_BYTES_CAP = 16 << 20


def _compile_plan(plan: TrotterPlan) -> list:
    """Group the step's rotation sequence into exactly evaluable segments.

    Consecutive diagonal rotations fuse into one elementwise phase factor.
    Consecutive flip rotations whose flipped-qubit union stays small compose
    into dense unitaries on those qubits; Z letters outside the union only
    contribute a parity sign per non-support pattern and are handled by
    parity-conditioned variants of the unitary.  Segment evaluation is plain
    reassociation of the ordered rotation product, so the result equals the
    rotation-by-rotation reference up to float round-off.
    """
    n = plan.n_qubits
    rotations = plan.rotations
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
        segments.append(_compile_block(rotations[i:j], n, union))
        i = j
    return segments


def _compile_diag(run: list, n: int):
    idx = _index_array(n)
    factor = np.ones(1 << n, dtype=complex)
    for _, z, angle in run:
        c, s = math.cos(angle), math.sin(angle)
        factor *= c - 1j * s * _term_phase(idx, 0, z)
    return ("diag", factor)


def _spread_offsets(positions: list[int], n: int) -> np.ndarray:
    """Global index offsets of all bit patterns over the given qubit positions."""
    count = len(positions)
    patt = np.arange(1 << count, dtype=np.int64)
    off = np.zeros(1 << count, dtype=np.int64)
    for i, q in enumerate(positions):
        off |= ((patt >> (count - 1 - i)) & 1) << (n - 1 - q)
    return off


def _compile_block(run: list, n: int, union: int):
    support = _flip_positions(union, n)
    f = len(support)

    def localize(mask: int) -> int:
        loc = 0
        for i, q in enumerate(support):
            if mask & (1 << (n - 1 - q)):
                loc |= 1 << (f - 1 - i)
        return loc

    support_mask = 0
    for q in support:
        support_mask |= 1 << (n - 1 - q)
    out_masks: list[int] = []
    compiled_rots = []
    for x, z, angle in run:
        z_out = z & ~support_mask
        if z_out:
            if z_out not in out_masks:
                out_masks.append(z_out)
            w_pos = out_masks.index(z_out)
        else:
            w_pos = -1
        eta = _PHASES[(x & z).bit_count() & 3]
        compiled_rots.append((localize(x), localize(z & support_mask), eta, angle, w_pos))
    if len(out_masks) > _SIG_MASK_CAP:
        return ("rots", run)
    rest = [q for q in range(n) if q not in support]
    sup_off = _spread_offsets(list(support), n)
    rest_off = _spread_offsets(rest, n)
    # signature of each non-support pattern: one parity bit per distinct z_out mask
    sig = np.zeros(rest_off.shape, dtype=np.int64)
    for bitpos, w in enumerate(out_masks):
        sig |= ((np.bitwise_count(rest_off & w) & 1).astype(np.int64)) << bitpos
    order = np.argsort(sig, kind="stable")
    rest_off = rest_off[order]
    sig = sig[order]
    present = np.unique(sig)
    bounds = np.searchsorted(sig, present, side="left").tolist() + [sig.size]
    dim = 1 << f
    if len(present) * dim * dim * 16 > _UNITARY_BYTES_CAP:
        return ("rots", run)
    lidx = np.arange(dim, dtype=np.int64)
    slices = []
    for which, s in enumerate(present.tolist()):
        u = np.eye(dim, dtype=complex)
        for xl, zl, eta, angle, w_pos in compiled_rots:
            theta = -angle if w_pos >= 0 and (s >> w_pos) & 1 else angle
            c, sn = math.cos(theta), math.sin(theta)
            phase = eta * (1.0 - 2.0 * (np.bitwise_count(lidx & zl) & 1).astype(np.int8))
            pu = (phase[:, None] * u)[lidx ^ xl]
            u = c * u - 1j * sn * pu
        slices.append((bounds[which], bounds[which + 1], u))
    return ("blk", sup_off, rest_off.astype(np.int64), slices)


def _apply_segment(segment, psi: np.ndarray, n: int) -> np.ndarray:
    kind = segment[0]
    if kind == "diag":
        psi *= segment[1]
        return psi
    if kind == "rots":
        for x, z, angle in segment[1]:
            _rotate(psi, x, z, angle)
        return psi
    _, sup_off, rest_off, slices = segment
    idx = sup_off[:, None] + rest_off[None, :]
    mat = psi[idx]
    for lo, hi, u in slices:
        mat[:, lo:hi] = u @ mat[:, lo:hi]
    psi[idx] = mat
    return psi


def trotter_evolve(
    plan: TrotterPlan,
    psi0: np.ndarray,
    observer=None,
    method: str = "auto",
) -> np.ndarray:
    """Apply the plan's rotations for all steps; norm is preserved.

    ``observer(step, psi)`` is called after each full step with the live
    statevector (read-only).  ``method="sequential"`` evaluates rotation by
    rotation and is the reference path; ``"blocked"`` composes same-flip-pattern
    runs into small dense unitaries (identical product, large registers);
    ``"auto"`` picks by register size.
    """
    if psi0.shape != (1 << plan.n_qubits,):
        raise ValueError("statevector length does not match the plan's register")
    if method == "auto":
        method = "blocked" if plan.n_qubits >= 14 else "sequential"
    psi = psi0.astype(complex, copy=True)
    if method == "sequential":
        for step in range(plan.n_steps):
            for x, z, angle in plan.rotations:
                _rotate(psi, x, z, angle)
            psi *= plan.step_phase
            if observer is not None:
                observer(step + 1, psi)
    elif method == "blocked":
        for step in range(plan.n_steps):
            for segment in plan._compiled:
                _apply_segment(segment, psi, plan.n_qubits)
            psi *= plan.step_phase
            if observer is not None:
                observer(step + 1, psi)
    else:
        raise ValueError(f"unknown method {method!r}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise RuntimeError(f"norm drifted to {norm!r} during Trotter evolution")
    return psi


def sample_counts(psi, shots: int, seed: int, indices=None, n_qubits: int = 0) -> dict[str, int]:
    """Multinomial readout histogram over basis bitstrings, reproducible per seed.

    psi is a register statevector, or with ``indices`` the amplitudes on those increasing
    basis indices of an ``n_qubits`` register (ValueError if an index is wider), where
    zero probabilities would draw nothing.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = int(psi.size).bit_length() - 1 if indices is None else n_qubits
    if indices is not None:
        indices = np.asarray(indices)
        if int(indices.max(initial=0)).bit_length() > n:
            raise ValueError(f"basis index {int(indices.max())} does not fit in {n} qubits")
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hits = np.nonzero(counts)[0]
    labels = hits if indices is None else indices[hits]
    return {format(int(i), f"0{n}b"): int(c) for i, c in zip(labels, counts[hits])}


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
