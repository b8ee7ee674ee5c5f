"""Observables over evolved states: survival, transitions, charge leakage.

Leakage reports the probability mass on basis states whose K (resp. Q)
differs from the initial sector; a state violating both charges counts in
both numbers, mirroring how the two error curves are plotted separately.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .fock import FockState, QubitLayout, charge_tables

__all__ = [
    "EvolutionRecord",
    "survival",
    "transition_prob",
    "leakage",
    "records_to_csv",
]


def survival(psi_t: np.ndarray, psi0: np.ndarray) -> float:
    """|<psi0|psi_t>|^2."""
    if psi_t.shape != psi0.shape:
        raise ValueError("statevector size mismatch")
    return float(abs(np.vdot(psi0, psi_t)) ** 2)


def transition_prob(
    psi_t: np.ndarray, targets: Iterable[FockState | int], layout: QubitLayout
) -> float:
    """Total probability on the target basis states, given as FockStates or indices."""
    total = 0.0
    for target in targets:
        index = layout.encode(target) if isinstance(target, FockState) else target
        total += float(abs(psi_t[index]) ** 2)
    return total


def leakage(psi_t: np.ndarray, K0: int, Q0: int, layout: QubitLayout) -> tuple[float, float]:
    """(probability off the K=K0 shell, probability off the Q=Q0 shell)."""
    k_arr, q_arr = charge_tables(layout)
    probs = np.abs(psi_t) ** 2
    leak_k = float(probs[k_arr != K0].sum())
    leak_q = float(probs[q_arr != Q0].sum())
    return leak_k, leak_q


@dataclass
class EvolutionRecord:
    """One observed time point of one evolution."""

    time: float
    survival: float
    transition: float
    leak_k: float
    leak_q: float
    probabilities: dict[str, float] | None = None
    metadata: dict = field(default_factory=dict)


CSV_COLUMNS = ("time", "survival", "transition", "leak_K", "leak_Q")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def records_to_csv(
    records: Iterable[EvolutionRecord],
    sweep_columns: tuple[str, ...] = (),
    extra_columns: tuple[str, ...] = (),
) -> str:
    """Plot-ready CSV text; sweep keys and extra columns come from record metadata."""
    out = io.StringIO()
    out.write(",".join(sweep_columns + CSV_COLUMNS + extra_columns) + "\n")
    for rec in records:
        row = [_fmt(rec.metadata[k]) for k in sweep_columns]
        row += [
            _fmt(rec.time),
            _fmt(rec.survival),
            _fmt(rec.transition),
            _fmt(rec.leak_k),
            _fmt(rec.leak_q),
        ]
        row += [_fmt(rec.metadata[k]) for k in extra_columns]
        out.write(",".join(row) + "\n")
    return out.getvalue()
