"""The benchmark's workloads: configuration and correctness gate.

Each workload is one ``lfyukawa run`` configuration that loads a different
layer of lfyukawa most heavily (see README.md for the reasons and the
layer-to-metric map).  ``config`` builds the JSON configuration document
from the seed; ``check`` is the correctness gate the harness applies to the
files the run wrote, outside the timed region.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Sampled survival reproduces the committed coupling-sweep CSV at this seed.
REFERENCE_SEED = 11

# One of the five couplings of the committed sweep: one Hamiltonian and one
# plan, reused by four initial states, so one execution is short enough for
# several to fit in a run.  Sampling seeds are derived per (seed, lambda,
# state), so the rows equal those of the full sweep.
SWEEP_LAMBDAS = (5.0,)
SWEEP_SHOTS = 8192

# pp-exact: the collision run exactly in its 42-state sector.
EXACT_T_MAX = 0.4
EXACT_DT = 0.005
EXACT_SECTOR = (9, 2)
EXACT_DIM = 42

PROBABILITY_TOL = 1e-10  # survival and transition against the committed CSV
LEAK_TOL = 1e-10  # absolute, on leak_K and leak_Q
ORACLE_TOL = 1e-9  # exact survival against the Fock oracle's sector matrix
SAMPLED_SIGMAS = 5.0  # sampled survival at another seed than REFERENCE_SEED


class GateError(Exception):
    """A workload's outputs disagree with the independent reference."""


@dataclass(frozen=True)
class Workload:
    config: Callable[[int, str], dict]
    check: Callable[[str, int], None]
    # Leading executions that are gated but not timed.  pp-exact's first
    # 1.4 GB of page faults after a pause cost up to three times the system
    # time of later ones, while the host hands the memory back to the guest.
    warmups: int = 0


# -- configurations ------------------------------------------------------------


def _sweep_config(seed: int, out_dir: str) -> dict:
    return {
        "scenario": "coupling-sweep",
        "lambdas": list(SWEEP_LAMBDAS),
        "shots": SWEEP_SHOTS,
        "seed": seed,
        "output_dir": out_dir,
    }


def _exact_config(seed: int, out_dir: str) -> dict:
    return {
        "scenario": "rabi",
        "n_modes": 5,
        "coupling": 13.315,
        "initial_state": "f4f5",
        "evolution": {"mode": "exact", "t_max": EXACT_T_MAX, "dt": EXACT_DT},
        "output_dir": out_dir,
    }


# -- references and gates (harness process) ------------------------------------


def _oracle_imports():
    """The Fock-space oracle lives with the tests; lfyukawa with the sources."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oracles
    from lfyukawa import fock

    return oracles, fock


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def load_reference(name: str) -> tuple[list[str], list[dict]]:
    """Header and rows of a committed golden CSV kept in reference/."""
    return read_csv(REFERENCE_DIR / name)


def compare_rows(got, ref, keys: tuple[str, ...]) -> None:
    """Survival and transition to PROBABILITY_TOL, leaks absolutely to LEAK_TOL."""
    got_header, got_rows = got
    ref_header, ref_rows = ref
    if got_header != ref_header:
        raise GateError(f"CSV columns {got_header} differ from the reference {ref_header}")
    if len(got_rows) != len(ref_rows):
        raise GateError(f"{len(got_rows)} rows, reference has {len(ref_rows)}")
    for row, want in zip(got_rows, ref_rows):
        where = ", ".join(f"{k}={row[k]}" for k in keys)
        for k in keys:
            if row[k] != want[k]:
                raise GateError(f"row {where}: expected {k}={want[k]}")
        for col in ("survival", "transition"):
            diff = abs(float(row[col]) - float(want[col]))
            if not diff <= PROBABILITY_TOL:
                raise GateError(f"row {where}: {col} off the reference by {diff:.3e}")
        _check_leaks(row, where)


def _check_leaks(row: dict, where: str) -> None:
    for col in ("leak_K", "leak_Q"):
        if not abs(float(row[col])) <= LEAK_TOL:
            raise GateError(f"row {where}: {col} = {row[col]} exceeds {LEAK_TOL:g}")


def _check_sweep(out_dir: str, seed: int) -> None:
    header, rows = load_reference("coupling-sweep.csv")
    rows = [r for r in rows if float(r["lambda"]) in SWEEP_LAMBDAS]
    got = read_csv(os.path.join(out_dir, "coupling-sweep.csv"))
    compare_rows(got, (header, rows), ("lambda", "state", "time"))
    for row, want in zip(got[1], rows):
        where = f"lambda={row['lambda']}, state={row['state']}"
        sampled = float(row["survival_sampled"])
        if seed == REFERENCE_SEED:
            if sampled != float(want["survival_sampled"]):
                raise GateError(f"row {where}: survival_sampled differs from the reference")
            continue
        p = float(want["survival"])
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / SWEEP_SHOTS)
        if not abs(sampled - p) <= SAMPLED_SIGMAS * sigma:
            raise GateError(f"row {where}: survival_sampled {sampled} is beyond 5 sigma of {p}")


@functools.lru_cache(maxsize=1)
def exact_survival_reference(times: tuple[float, ...]):
    """|<f4f5| expm(-iHt) |f4f5>|^2 from the oracle's sector matrix."""
    import numpy as np
    from scipy.linalg import expm

    oracles, fock = _oracle_imports()
    config = fock.ModeConfig.uniform(5, 3)
    states = fock.enumerate_sector(config, *EXACT_SECTOR)
    if len(states) != EXACT_DIM:
        raise GateError(f"sector {EXACT_SECTOR} has {len(states)} states, expected {EXACT_DIM}")
    start = fock.FockState((0, 0, 0, 1, 1), (0,) * 5, (0,) * 5)
    i0 = states.index(start)
    mat = oracles.FockOracle(config, 6.7, 1.0, 2048).matrix(states, 13.315, False)
    return np.array([abs(expm(-1j * mat * t)[i0, i0]) ** 2 for t in times])


def _check_exact(out_dir: str, seed: int) -> None:
    _, rows = read_csv(os.path.join(out_dir, "rabi.csv"))
    n_times = int(round(EXACT_T_MAX / EXACT_DT)) + 1
    if len(rows) != n_times:
        raise GateError(f"{len(rows)} rows, expected {n_times}")
    times = [float(r["time"]) for r in rows]
    for i, t in enumerate(times):
        if abs(t - i * EXACT_DT) > 1e-12:
            raise GateError(f"row {i}: time {t} is off the dt = {EXACT_DT} grid")
    want = exact_survival_reference(tuple(times))
    for row, p in zip(rows, want):
        where = f"time={row['time']}"
        for col, value in (("survival", p), ("transition", 1.0 - p)):
            diff = abs(float(row[col]) - value)
            if not diff <= ORACLE_TOL:
                raise GateError(f"row {where}: {col} off the oracle by {diff:.3e}")
        _check_leaks(row, where)


WORKLOADS: dict[str, Workload] = {
    "coupling-sweep": Workload(_sweep_config, _check_sweep),
    "pp-exact": Workload(_exact_config, _check_exact, warmups=1),
}
