"""Truncated Fock space of the light-front Yukawa model and its qubit encoding.

A basis state lists the occupancies of fermion, antifermion and boson momentum
modes (mode ``n`` carries light-front momentum ``n`` in box units).  The qubit
register holds, left to right, one qubit block per mode: one qubit per fermion
mode, one per antifermion mode, then ``t = log2(m+1)`` qubits per boson mode
storing the occupancy in big-endian binary, so occupancy 1 with a 3-qubit block
reads ``001``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "ModeConfig",
    "FockState",
    "QubitLayout",
    "k_of",
    "q_of",
    "sector_indices",
    "sector_dim",
    "enumerate_sector",
    "charges",
]


@dataclass(frozen=True)
class ModeConfig:
    """Mode and modal cutoffs for each particle species.

    Fermion and antifermion modes hold at most one quantum.  Boson mode ``i``
    holds up to ``boson_modals[i-1]`` quanta; the cap must equal ``2**t - 1``
    so the occupancy fills ``t`` qubits exactly and every bit pattern decodes
    to a valid state.
    """

    n_fermion_modes: int
    n_antifermion_modes: int
    n_boson_modes: int
    boson_modals: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "boson_modals", tuple(int(m) for m in self.boson_modals))
        if min(self.n_fermion_modes, self.n_antifermion_modes, self.n_boson_modes) < 1:
            raise ValueError("every species needs at least one mode")
        if len(self.boson_modals) != self.n_boson_modes:
            raise ValueError(
                f"boson_modals has {len(self.boson_modals)} entries, expected {self.n_boson_modes}"
            )
        for i, m in enumerate(self.boson_modals, start=1):
            if m < 1 or (m & (m + 1)) != 0:  # m = 2**t - 1
                raise ValueError(f"boson mode {i}: modal cap {m} is not of the form 2**t - 1")

    @classmethod
    def uniform(cls, n_modes: int, modals: int = 3) -> "ModeConfig":
        """Equal number of modes for all species, same modal cap per boson mode."""
        return cls(n_modes, n_modes, n_modes, (modals,) * n_modes)

    @property
    def max_k(self) -> int:
        """Largest harmonic resolution any representable state can carry: every qubit set."""
        return sum(k for k, _ in _qubit_weights(QubitLayout(self)))


@dataclass(frozen=True)
class FockState:
    """Occupancies per mode, mode 1 first; fermionic entries are 0/1."""

    fermions: tuple[int, ...]
    antifermions: tuple[int, ...]
    bosons: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fermions", tuple(int(b) for b in self.fermions))
        object.__setattr__(self, "antifermions", tuple(int(b) for b in self.antifermions))
        object.__setattr__(self, "bosons", tuple(int(p) for p in self.bosons))
        if any(b not in (0, 1) for b in self.fermions + self.antifermions):
            raise ValueError("fermionic occupancies must be 0 or 1")
        if any(p < 0 for p in self.bosons):
            raise ValueError("boson occupancies must be non-negative")

    @classmethod
    def vacuum(cls, config: ModeConfig) -> "FockState":
        return cls(
            (0,) * config.n_fermion_modes,
            (0,) * config.n_antifermion_modes,
            (0,) * config.n_boson_modes,
        )


def k_of(state: FockState) -> int:
    """Harmonic resolution K = sum of mode number times occupancy, all species."""
    k = 0
    for occ in (state.fermions, state.antifermions, state.bosons):
        k += sum(n * o for n, o in enumerate(occ, start=1))
    return k


def q_of(state: FockState) -> int:
    """Baryon number Q = fermion count minus antifermion count."""
    return sum(state.fermions) - sum(state.antifermions)


# The species in register order, each with the Q that one of its quanta carries.
_Q_SIGN = {"fermion": 1, "antifermion": -1, "boson": 0}


class QubitLayout:
    """Fixed register map: each species' modes as (first qubit, width) blocks.

    ``blocks[species]`` holds the blocks of modes 1, 2, ... for fermions, antifermions
    and bosons, in that register order.  A fermion or antifermion mode is a one-qubit
    block; a boson block holds its mode's occupancy in big-endian binary.  So species
    differ only in block width and in the Q sign of a quantum (+1, -1 or 0).
    """

    def __init__(self, config: ModeConfig):
        self.config = config
        widths = (
            (1,) * config.n_fermion_modes,
            (1,) * config.n_antifermion_modes,
            tuple((m + 1).bit_length() - 1 for m in config.boson_modals),
        )
        self.blocks, pos = {}, 0
        for species, ws in zip(_Q_SIGN, widths):
            self.blocks[species] = tuple(zip(accumulate(ws, initial=pos), ws))
            pos += sum(ws)
        self.total_qubits = pos

    def block(self, species: str, mode: int) -> tuple[int, int]:
        """(first qubit, width) of the species' mode, mode 1 first."""
        if species not in self.blocks:
            raise ValueError(f"unknown species {species!r}")
        if not 1 <= mode <= len(self.blocks[species]):
            raise ValueError(f"{species} mode {mode} out of range")
        return self.blocks[species][mode - 1]

    # -- encoding ----------------------------------------------------------

    def encode(self, state: FockState) -> int:
        occupancies = (state.fermions, state.antifermions, state.bosons)
        if list(map(len, occupancies)) != list(map(len, self.blocks.values())):
            raise ValueError("state does not match the layout's mode counts")
        index = 0
        for (species, blocks), occs in zip(self.blocks.items(), occupancies):
            for mode, ((start, width), occ) in enumerate(zip(blocks, occs), start=1):
                if occ >> width:
                    raise ValueError(f"{species} mode {mode} occupancy {occ} exceeds "
                                     f"modal cap {(1 << width) - 1}")
                index |= occ << (self.total_qubits - start - width)
        return index

    def decode(self, index: int) -> FockState:
        n = self.total_qubits
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} outside the {n}-qubit register")
        return FockState(*(
            tuple((index >> (n - start - width)) & ((1 << width) - 1) for start, width in blocks)
            for blocks in self.blocks.values()
        ))

    # -- text rendering ----------------------------------------------------

    def format_bits(self, index: int) -> str:
        """Register bitstring with species groups separated by spaces.

        Matches the rendering used throughout the CLI, e.g. ``010 000 00 00 00``
        for a fermion in mode 2 at three modes per species and 3 modals.
        """
        bits = format(index, f"0{self.total_qubits}b")
        groups = []
        for species, blocks in self.blocks.items():
            cut = [bits[start : start + width] for start, width in blocks]
            groups += ["".join(cut)] if _Q_SIGN[species] else cut  # one group per fermionic species
        return " ".join(groups)

    def parse_bits(self, text: str) -> int:
        bits = text.replace(" ", "")
        if len(bits) != self.total_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"bitstring {text!r} does not fit a {self.total_qubits}-qubit register")
        return int(bits, 2)

    def basis_vector(self, state: FockState | int) -> np.ndarray:
        """Statevector with unit amplitude on the given basis state."""
        index = state if isinstance(state, int) else self.encode(state)
        psi = np.zeros(1 << self.total_qubits, dtype=complex)
        psi[index] = 1.0
        return psi


def _qubit_weights(layout: QubitLayout) -> list[tuple[int, int]]:
    """(K, Q) weight of each qubit, in register order; a state's charges sum its set qubits'.

    Qubit j of mode m's w-qubit block weighs (m * 2**(w-1-j), the species' Q sign), so a
    fermion qubit of mode m weighs (m, 1) and an antifermion qubit (m, -1).
    """
    weights = []
    for species, blocks in layout.blocks.items():
        for mode, (_, width) in enumerate(blocks, start=1):
            weights += [(mode << (width - 1 - j), _Q_SIGN[species]) for j in range(width)]
    return weights


def _table_shape(config: ModeConfig, K: int, Q: int) -> tuple[int, int, int] | None:
    """Shape of sector (K, Q)'s completion table; None for a sector outside the register."""
    if K < 0:
        raise ValueError("K must be non-negative")
    nf, na = config.n_fermion_modes, config.n_antifermion_modes
    if K > config.max_k or not -na <= Q <= nf:
        return None
    return QubitLayout(config).total_qubits + 1, K + 1, nf + na + 1


def _completions(config: ModeConfig, K: int, Q: int):
    """Qubit weights and counts[i, k, na + q], the fillings of qubits i.. with K-sum k, charge q.

    None for a sector outside the register.
    """
    shape = _table_shape(config, K, Q)
    if shape is None:
        return None
    weights = _qubit_weights(QubitLayout(config))
    if len(weights) > 63:  # up to 63 qubits, every index and count fits int64
        raise ValueError(f"a {len(weights)}-qubit register has indices beyond int64")
    counts = np.zeros(shape, dtype=np.int64)
    counts[-1, 0, config.n_antifermion_modes] = 1
    for i, (wk, wq) in reversed(list(enumerate(weights))):
        counts[i] = counts[i + 1]
        if wk <= K:  # a set qubit adds (wk, wq) to the fillings of the qubits after it
            lo, hi = max(wq, 0), shape[2] + min(wq, 0)
            counts[i, wk:, lo:hi] += counts[i + 1, : K + 1 - wk, lo - wq : hi - wq]
    return weights, counts


def sector_indices(config: ModeConfig, K: int, Q: int) -> np.ndarray:
    """Encoded indices of all states with k_of = K and q_of = Q, as a sorted int64 array.

    Walks the qubits from the first, the index's top bit, setting each to 0 and then 1
    and keeping a prefix only if some filling of the later qubits completes it to (K, Q).
    So the indices come out sorted and the walk holds at most twice the sector.
    """
    table = _completions(config, K, Q)
    if table is None:
        return np.zeros(0, dtype=np.int64)
    weights, counts = table
    prefixes = np.array([[0, K, config.n_antifermion_modes + Q]])  # index, K and na + Q left
    for i, (wk, wq) in enumerate(weights, start=1):
        zero = prefixes * [2, 1, 1]
        prefixes = np.stack([zero, zero + [1, -wk, -wq]], axis=1).reshape(-1, 3)  # bit 0 first
        _, k, q = prefixes.T
        keep = (k >= 0) & (q >= 0) & (q < counts.shape[2])
        keep[keep] = counts[i, k[keep], q[keep]] > 0
        prefixes = prefixes[keep]
    return prefixes[:, 0].copy()


def sector_dim(config: ModeConfig, K: int, Q: int) -> int:
    """len(sector_indices(config, K, Q)), read from the completion table without a state."""
    table = _completions(config, K, Q)
    return 0 if table is None else int(table[1][0, K, config.n_antifermion_modes + Q])


def enumerate_sector(config: ModeConfig, K: int, Q: int) -> list[FockState]:
    """The states of sector_indices(config, K, Q), decoded in the same order."""
    return list(map(QubitLayout(config).decode, sector_indices(config, K, Q).tolist()))


def charges(layout: QubitLayout, indices) -> tuple[np.ndarray, np.ndarray]:
    """K and Q of each basis index, as int64 arrays of the indices' shape.

    Both sum the qubit weights of the set bits, so K is one masked popcount per
    bit-plane of the K weights, and Q counts the fermion bits minus the antifermion bits.
    """
    k_weights, q_weights = zip(*_qubit_weights(layout))
    mask = lambda qubits: sum(1 << (layout.total_qubits - 1 - i) for i in qubits)
    idx = np.asarray(indices, dtype=np.int64)
    popcount = lambda m: np.bitwise_count(idx & m).astype(np.int64)
    k = sum(
        popcount(mask(i for i, w in enumerate(k_weights) if w >> b & 1)) << b
        for b in range(max(k_weights).bit_length())
    )
    charged = lambda sign: popcount(mask(i for i, w in enumerate(q_weights) if w == sign))
    return k, charged(1) - charged(-1)
