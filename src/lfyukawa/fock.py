"""Truncated Fock space of the light-front Yukawa model and its qubit encoding.

A basis state lists the occupancies of fermion, antifermion and boson momentum
modes (mode ``n`` carries light-front momentum ``n`` in box units).  The qubit
register holds, left to right, one qubit per fermion mode, one per antifermion
mode, then a block of ``t = log2(m+1)`` qubits per boson mode storing the
occupancy in big-endian binary, so occupancy 1 with a 3-qubit block reads
``001``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeConfig",
    "FockState",
    "QubitLayout",
    "k_of",
    "q_of",
    "sector_indices",
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
        """Largest harmonic resolution any representable state can carry."""
        triangle = lambda n: n * (n + 1) // 2
        boson = sum(n * m for n, m in enumerate(self.boson_modals, start=1))
        return triangle(self.n_fermion_modes) + triangle(self.n_antifermion_modes) + boson


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


class QubitLayout:
    """Fixed register map: fermion modes | antifermion modes | boson blocks."""

    def __init__(self, config: ModeConfig):
        self.config = config
        self.boson_widths = tuple((m + 1).bit_length() - 1 for m in config.boson_modals)
        starts = []
        pos = config.n_fermion_modes + config.n_antifermion_modes
        for w in self.boson_widths:
            starts.append(pos)
            pos += w
        self.boson_starts = tuple(starts)
        self.total_qubits = pos

    def fermion_qubit(self, mode: int) -> int:
        if not 1 <= mode <= self.config.n_fermion_modes:
            raise ValueError(f"fermion mode {mode} out of range")
        return mode - 1

    def antifermion_qubit(self, mode: int) -> int:
        if not 1 <= mode <= self.config.n_antifermion_modes:
            raise ValueError(f"antifermion mode {mode} out of range")
        return self.config.n_fermion_modes + mode - 1

    def boson_block(self, mode: int) -> tuple[int, int]:
        """(first qubit, width) of the mode's occupancy block."""
        if not 1 <= mode <= self.config.n_boson_modes:
            raise ValueError(f"boson mode {mode} out of range")
        return self.boson_starts[mode - 1], self.boson_widths[mode - 1]

    # -- encoding ----------------------------------------------------------

    def _bit(self, qubit: int) -> int:
        return 1 << (self.total_qubits - 1 - qubit)

    def encode(self, state: FockState) -> int:
        cfg = self.config
        if (
            len(state.fermions) != cfg.n_fermion_modes
            or len(state.antifermions) != cfg.n_antifermion_modes
            or len(state.bosons) != cfg.n_boson_modes
        ):
            raise ValueError("state does not match the layout's mode counts")
        index = 0
        for mode, occ in enumerate(state.fermions, start=1):
            if occ:
                index |= self._bit(self.fermion_qubit(mode))
        for mode, occ in enumerate(state.antifermions, start=1):
            if occ:
                index |= self._bit(self.antifermion_qubit(mode))
        for mode, occ in enumerate(state.bosons, start=1):
            start, width = self.boson_block(mode)
            if occ > cfg.boson_modals[mode - 1]:
                raise ValueError(
                    f"boson mode {mode} occupancy {occ} exceeds modal cap "
                    f"{cfg.boson_modals[mode - 1]}"
                )
            index |= occ << (self.total_qubits - start - width)
        return index

    def decode(self, index: int) -> FockState:
        if not 0 <= index < (1 << self.total_qubits):
            raise ValueError(f"index {index} outside the {self.total_qubits}-qubit register")
        cfg = self.config
        fermions = tuple(
            (index >> (self.total_qubits - 1 - self.fermion_qubit(n))) & 1
            for n in range(1, cfg.n_fermion_modes + 1)
        )
        antifermions = tuple(
            (index >> (self.total_qubits - 1 - self.antifermion_qubit(n))) & 1
            for n in range(1, cfg.n_antifermion_modes + 1)
        )
        bosons = []
        for n in range(1, cfg.n_boson_modes + 1):
            start, width = self.boson_block(n)
            bosons.append((index >> (self.total_qubits - start - width)) & ((1 << width) - 1))
        return FockState(fermions, antifermions, tuple(bosons))

    # -- text rendering ----------------------------------------------------

    def format_bits(self, index: int) -> str:
        """Register bitstring with species groups separated by spaces.

        Matches the rendering used throughout the CLI, e.g. ``010 000 00 00 00``
        for a fermion in mode 2 at three modes per species and 3 modals.
        """
        bits = format(index, f"0{self.total_qubits}b")
        cfg = self.config
        groups = [bits[: cfg.n_fermion_modes]]
        pos = cfg.n_fermion_modes
        groups.append(bits[pos : pos + cfg.n_antifermion_modes])
        pos += cfg.n_antifermion_modes
        for w in self.boson_widths:
            groups.append(bits[pos : pos + w])
            pos += w
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


def _fills(caps: tuple[int, ...], widths: tuple[int, ...], k_budget: int):
    """(bits, K, quanta) of each occupancy with K-sum at most k_budget, in increasing bits.

    Mode n holds up to caps[n-1] quanta in a big-endian block of widths[n-1] bits, mode 1 first.
    """
    out = [(0, 0, 0)]
    for mode, (cap, width) in enumerate(zip(caps, widths), start=1):
        out = [
            ((bits << width) | p, k + p * mode, n + p)
            for bits, k, n in out
            for p in range(min(cap, (k_budget - k) // mode) + 1)
        ]
    return out


def sector_indices(config: ModeConfig, K: int, Q: int) -> np.ndarray:
    """Encoded indices of all states with k_of = K and q_of = Q, as a sorted int64 array.

    Built from per-species occupancies under a K budget (no full-space scan).
    Fermion bits lead the index, then antifermion bits, then boson blocks, so
    the nested build comes out sorted.
    """
    if K < 0:
        raise ValueError("K must be non-negative")
    nf, na = config.n_fermion_modes, config.n_antifermion_modes
    widths = QubitLayout(config).boson_widths
    heads = [
        (((f << na) | a) << sum(widths), K - fk - ak)
        for f, fk, fn in _fills((1,) * nf, (1,) * nf, K)
        for a, ak, an in _fills((1,) * na, (1,) * na, K - fk)
        if fn - an == Q
    ]
    bosons: dict[int, list[int]] = {}
    for b, bk, _ in _fills(config.boson_modals, widths, max((r for _, r in heads), default=-1)):
        bosons.setdefault(bk, []).append(b)
    return np.array([h | b for h, rest in heads for b in bosons.get(rest, ())], dtype=np.int64)


def enumerate_sector(config: ModeConfig, K: int, Q: int) -> list[FockState]:
    """The states of sector_indices(config, K, Q), decoded in the same order."""
    return list(map(QubitLayout(config).decode, sector_indices(config, K, Q).tolist()))


def charges(layout: QubitLayout, indices) -> tuple[np.ndarray, np.ndarray]:
    """K and Q of each basis index, as int64 arrays of the indices' shape.

    Both are linear in the register bits: a fermion or antifermion qubit of mode m weighs
    m in K, and qubit j of mode m's w-qubit boson block weighs m * 2**(w-1-j).  So K is
    one masked popcount per bit-plane of those weights, and Q counts the fermion bits
    minus the antifermion bits.
    """
    nf, na = layout.config.n_fermion_modes, layout.config.n_antifermion_modes
    weights = [*range(1, nf + 1), *range(1, na + 1)]  # K weight of each qubit, in order
    for mode, width in enumerate(layout.boson_widths, start=1):
        weights += [mode << (width - 1 - j) for j in range(width)]
    mask = lambda qubits: sum(layout._bit(q) for q in qubits)
    idx = np.asarray(indices, dtype=np.int64)
    popcount = lambda m: np.bitwise_count(idx & m).astype(np.int64)
    k = sum(
        popcount(mask(q for q, w in enumerate(weights) if w >> b & 1)) << b
        for b in range(max(weights).bit_length())
    )
    q = popcount(mask(range(nf))) - popcount(mask(range(nf, nf + na)))
    return k, q
