"""Experiment presets, the configuration document parser and the grid runner.

Each preset reproduces one of the reference experiments: the exact two-level
oscillation, the Trotter-step study, the coupling sweep over four initial
states, the mode-cutoff study, the two-proton collision and the minimal
two-mode run.  A configuration document is JSON; any field given overrides the
preset default and the fully resolved configuration is echoed in the run
manifest so every run can be reproduced without the preset table.  The key table
``_KEYS`` is the one place where a document key is defined, with its default and
its check (and a sweep axis's CSV column): parsing, the unknown-key check, the
manifest echo and the sweep columns all read it.

Every preset runs on the same grid of mode cutoff x coupling x Trotter step
count x initial state; a preset only fixes which axes it sweeps and a few
output details (extra columns, transition targets, probability maps).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .diagnostics import EvolutionRecord, leakage, records_to_csv, survival, transition_prob
from .evolve import NORM_TOL, SECTOR_DIM_CAP, exact_evolve, make_plan, sample_counts, trotter_evolve
from .fock import (
    FockState,
    ModeConfig,
    QubitLayout,
    _table_shape,
    k_of,
    q_of,
    sector_dim,
    sector_indices,
)
from .fock import enumerate_sector  # noqa: F401  bench/spans.py wraps the name here
from .hamiltonian import PARTS, ModelParams, build_h
from .pauli import COMPARE_TOL, DEFAULT_TOL, dumps

__all__ = [
    "ConfigError",
    "SchemaError",
    "PhysicsError",
    "ScenarioConfig",
    "PRESETS",
    "parse_config",
    "run_scenario",
]


class ConfigError(ValueError):
    """Invalid configuration document."""


class SchemaError(ConfigError):
    """Malformed document: wrong type, unknown field, inconsistent grid."""


class PhysicsError(ConfigError):
    """Well-formed document describing unphysical parameters."""


# A preset sets configuration keys and a few fields that are not keys: CSV columns after
# the standard ones, the probability that ``shots`` estimates (default survival), the
# particle counts of the transition targets (see _Start) and whether each record's full
# probability map is written.
PRESETS: dict[str, dict] = {
    "rabi": {
        "description": "exact two-level oscillation of a mode-2 fermion (3 modes, lambda=4)",
        "n_modes": 3,
        "coupling": 4.0,
        "initial_state": "f2",
        "evolution": {"mode": "exact", "t_max": 1.0, "dt": 0.01},
    },
    "trotter-study": {
        "description": "first-order Trotter vs exact for 1..10 steps (3 modes, lambda=4)",
        "n_modes": 3,
        "coupling": 4.0,
        "initial_state": "f2",
        "evolution": {"mode": "trotter", "t_max": 1.0, "dt": 0.05, "order": 1},
        "trotter_steps": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "extra_columns": ("transition_exact",),
    },
    "coupling-sweep": {
        "description": "survival of four initial states vs coupling at t=0.2, 10 steps",
        "n_modes": 4,
        "lambdas": [1.0, 2.0, 3.0, 4.0, 5.0],
        "initial_states": ["phi2", "f2", "fbar2", "f2-fbar2-phi2"],
        "evolution": {"mode": "trotter", "t_max": 0.2, "n_steps": 10, "order": 1},
        "shots": 8192,
    },
    "nmax-study": {
        "description": "same four initial states while the mode cutoff grows",
        "n_values": [4, 5, 6],
        "lambdas": [1.0, 4.0],
        "initial_states": ["phi2", "f2", "fbar2", "f2-fbar2-phi2"],
        "evolution": {"mode": "trotter", "t_max": 0.2, "n_steps": 10, "order": 1},
    },
    "pp-collision": {
        "description": "two protons in modes 4+5 producing pion pairs (5 modes, lambda=13.315)",
        "n_modes": 5,
        "coupling": 13.315,
        "initial_state": "f4f5",
        "evolution": {"mode": "trotter", "t_max": 0.4, "dt": 0.005, "order": 1},
        "target_content": (2, 0, 2),
    },
    "hardware-minimal": {
        "description": "two modes, one modal, H_M+H_V only, a single Trotter step",
        "n_modes": 2,
        "modals": 1,
        "parts": ["HM", "HV"],
        "lambdas": [1.0, 4.0],
        "initial_state": "f2",
        "evolution": {"mode": "trotter", "t_max": 0.2, "n_steps": 1, "order": 1},
        "shots": 8192,
        "extra_columns": ("transition_exact",),
        "sampled": "transition",
        "probabilities": True,
    },
}

_TOLERANCES = {"coeff_drop": DEFAULT_TOL, "canonical_compare": COMPARE_TOL, "norm": NORM_TOL}

# Upper bound on any mode count, so that no document allocates per-mode
# tables it could never simulate.
MAX_MODES = 64

# Widest register: basis indices and Pauli masks are int64.
MAX_QUBITS = 63

# Peak bytes per register amplitude of a Trotter run: an upper bound on the
# 96 bytes (peak RSS 1541 MiB) measured for one step at 24 qubits (n_modes 6).
# One blocked step of the 20-qubit pp-collision plan peaks at 54.6 bytes per
# amplitude of numpy memory (tracemalloc, past the caller's psi0): 16 the
# statevector, 35.8 the compiled plan (16 its phase vector, 19.8 the coset
# unitaries and their offsets) and 2.8 the step's int64 index, gather and
# product, each over one piece of the start's reachable cosets rather than the
# whole register.  Compiling peaks at 43.1: the phase vector is built on the
# bits its Z masks reach and tiled, with no 2^n index table.
_TROTTER_BYTES_PER_AMP = 7 * 16

# Peak bytes a run holds per output record (its metadata and CSV row), per
# entry of a record's probability map (with the probabilities JSON) and per
# amplitude of exact_evolve's (n_times, dim) output, rounded up from
# tracemalloc peaks of run_scenario writing its files: 446-623 B per record
# (rabi, nmax-study and pp-collision, exact), 1358-1521 B per map entry
# (hardware-minimal at 6-12 qubits) and 33.5-42.1 B per amplitude inside
# exact_evolve (sector dimensions 2-42, 10^4-10^5 times).
_BYTES_PER_RECORD = 1 << 10
_BYTES_PER_MAP_ENTRY = 2 << 10
_BYTES_PER_EXACT_AMP = 48

# Bytes per Pauli string of a boson ladder: its term-table row of int64 x and z masks and
# a complex128 coefficient, so a lower bound on building it.  A t-qubit block's ladder
# holds t * 2**t strings (2, 8, 24, 64, 160, 384, 896, 2048 counted for t = 1..8).
_BYTES_PER_LADDER_STRING = 32

@dataclass
class ScenarioConfig:
    """Fully resolved run description (all defaults applied)."""

    scenario: str
    mode_config: ModeConfig
    params: ModelParams
    parts: tuple[str, ...]
    initial_state: str
    mode: str
    t_max: float
    dt: float | None
    n_steps: int | None
    order: int
    shots: int
    seed: int
    output_dir: str
    lambdas: tuple[float, ...] | None
    trotter_steps: tuple[int, ...] | None
    n_values: tuple[int, ...] | None
    initial_states: tuple[str, ...] | None
    cross_species_string: bool

    def echo(self) -> dict:
        """Each key of _KEYS that the run holds a value for, boson_modals, g and the tolerances.

        An n_values run sets its species counts per register, so it leaves them out.
        """
        values = {**asdict(self), **asdict(self.mode_config), **asdict(self.params),
                  "g": self.params.g, "tolerances": dict(_TOLERANCES)}
        values["evolution"] = {key: values[key] for key in _EVOLUTION}
        if self.n_values is not None:
            for key in _SPECIES_COUNTS:
                del values[key]
        return {key: list(values[key]) if isinstance(values[key], tuple) else values[key]
                for key in (*_KEYS, "boson_modals", "g", "tolerances") if values.get(key) is not None}

    def registers(self) -> list[tuple[int | None, ModeConfig]]:
        """The mode-cutoff axis: (n_max, mode config) per register, n_max None if not swept."""
        if self.n_values is None:
            return [(None, self.mode_config)]
        modals = self.mode_config.boson_modals[0]
        return [(n, ModeConfig.uniform(n, modals)) for n in self.n_values]


def _require(cond: bool, path: str, message: str, error=SchemaError):
    if not cond:
        raise error(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, path: str, *_, positive: bool = False) -> float:
    """A finite JSON number as a float."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(is_number, path, "must be a number")
    _require(abs(value) <= sys.float_info.max, path, "must be a finite number")
    value = float(value)
    _require(value > 0 or not positive, path, "must be a positive number")
    return value


def _check(test, message: str):
    """Validator returning its value unchanged, or raising SchemaError at the value's path."""

    def check(value, path: str, *_):
        _require(test(value), path, message)
        return value

    return check


_boolean = _check(lambda v: isinstance(v, bool), "must be a boolean")
_string = _check(lambda v: isinstance(v, str), "must be a string")
_integer = _check(_is_int, "must be an integer")
_shots = _check(  # the most that one rng.multinomial draw takes
    lambda v: _is_int(v) and 0 <= v < 2**63, "must be an integer from 0 to 2**63 - 1"
)
_count = _check(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_modes = _check(
    lambda v: _is_int(v) and 1 <= v <= MAX_MODES, f"must be an integer from 1 to {MAX_MODES}"
)
_positive = partial(_number, positive=True)


def _axis(check):
    """A sweep axis: a non-empty list of entries that pass check, as a tuple."""

    def axis(value, path: str, *_):
        _require(isinstance(value, list) and value, path, "must be a non-empty list")
        return tuple(check(entry, f"{path}[{i}]") for i, entry in enumerate(value))

    return axis


def _scenario(value, path: str, *_) -> str:
    _require(isinstance(value, str), path, "a scenario name is required")
    _require(value in PRESETS, path, f"unknown scenario {value!r}, see list-scenarios")
    return value


def _modals(value, path: str, *_) -> int:
    """A modal cap 2**t - 1 whose t-qubit boson block fits a register, and its ladder memory."""
    modals = _count(value, path)
    _require(not modals & (modals + 1), path, f"cap {modals} is not of the form 2**t - 1",
             PhysicsError)
    width = modals.bit_length()
    _require(width <= MAX_QUBITS, path,
             f"a {width}-qubit boson block exceeds the {MAX_QUBITS}-qubit limit", PhysicsError)
    _require_memory(width * _BYTES_PER_LADDER_STRING << width, path,
                    f"the ladder of a {width}-qubit boson block needs")
    return modals


def _parts(value, path: str, *_) -> tuple[str, ...]:
    distinct = isinstance(value, list) and all(p in PARTS for p in value) and len(set(value)) == len(value)
    _require(distinct, path, f"must be a list of distinct Hamiltonian parts out of {', '.join(PARTS)}")
    return tuple(value)


def _evolution(value: dict, path: str, *_) -> dict:
    """The evolution keys, with dt and n_steps resolved."""
    evo = _read(_EVOLUTION, value, path + ".")
    mode, t_max, dt, n_steps = evo["mode"], evo["t_max"], evo["dt"], evo["n_steps"]
    if dt is None and n_steps is None:
        _require(mode == "exact", path, "trotter evolution needs dt or n_steps")
        dt = 0.02  # reference resolution
    if dt is not None and n_steps is not None:
        product = dt * _number(n_steps, path + ".n_steps")
        _require(
            abs(product - t_max) <= 1e-9,
            path,
            f"dt*n_steps = {product!r} inconsistent with t_max = {t_max!r}",
        )
    if dt is not None:  # every run observes t_max itself
        ratio = t_max / dt
        _require(
            math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9,
            path,
            "t_max must be a positive multiple of dt",
        )
        # _observation_times rounds the times i * dt, i = 0..n, to 12 decimals.  Rounding is
        # monotone and the times grow by dt, so they stay distinct iff the last one rounds to at
        # least n units of 1e-12.
        n = round(ratio)
        last = n * dt * 1e12
        _require(math.isfinite(last) and round(last) >= n, path,
                 f"the {n + 1} observation times 0, dt, ..., t_max, rounded to 12 decimals, "
                 "would repeat a time or overflow")
        if mode == "trotter" and n_steps is None:
            n_steps = n
    return {**evo, "dt": dt, "n_steps": n_steps}


def _trotter_steps(value, path: str, values: dict) -> tuple[int, ...]:
    steps = _axis(_count)(value, path)
    _require(values["evolution"]["mode"] == "trotter", path, "needs trotter evolution")
    return steps


# A document key: its default, a value or a function of the values read before it (None makes
# the key optional: null reads as absent), its check(value, path, values read before), which
# returns the configuration value or raises a ConfigError, and a sweep axis's CSV column.
_Key = namedtuple("_Key", "default check column", defaults=[None])
_KINDS = {float: _number, int: _integer, bool: _boolean}  # a ModelParams key's, by its default

# The keys of the evolution object, then every document key, each in the order parse_config
# reads them, so that a document with several faults reports the first in this order.
_EVOLUTION = {
    "mode": _Key("exact", _check(lambda v: v in ("exact", "trotter"), "must be 'exact' or 'trotter'")),
    "t_max": _Key(0.2, _positive),
    "order": _Key(1, _check(lambda v: _is_int(v) and v in (1, 2), "must be 1 or 2")),
    "dt": _Key(None, _positive),
    "n_steps": _Key(None, _count),
}
_KEYS = {
    "scenario": _Key(None, _scenario),
    "description": _Key(None, lambda value, *_: value),  # free text that nothing reads
    "n_modes": _Key(3, _modes),
    "n_fermion_modes": _Key(lambda values: values["n_modes"], _modes),
    "n_antifermion_modes": _Key(lambda values: values["n_modes"], _modes),
    "n_boson_modes": _Key(lambda values: values["n_modes"], _modes),
    "modals": _Key(3, _modals),
    **{f.name: _Key(f.default, _KINDS[type(f.default)]) for f in fields(ModelParams)},
    "evolution": _Key({}, _evolution),
    "trotter_steps": _Key(None, _trotter_steps, "n_trotter"),
    "parts": _Key(list(PARTS), _parts),
    "initial_state": _Key("f2", _string),
    "shots": _Key(0, _shots),
    "seed": _Key(1234, _integer),
    "output_dir": _Key(lambda values: os.path.join("runs", values["scenario"]), _string),
    "lambdas": _Key(None, _axis(_number), "lambda"),
    "n_values": _Key(None, _axis(_modes), "n_max"),
    "initial_states": _Key(None, _axis(_string), "state"),
    "cross_species_string": _Key(True, _boolean),
}
_KNOWN_KEYS = set(_KEYS)
_SPECIES_COUNTS = ("n_fermion_modes", "n_antifermion_modes", "n_boson_modes")
_EVOLUTION_KEYS = set(_EVOLUTION)


def _read(table: dict, doc: dict, prefix: str = "") -> dict:
    """Each key of the table, in its order: the document's value or the default, checked."""
    values = {}
    for key, (default, check, _) in table.items():
        value = doc.get(key, default(values) if callable(default) else default)
        values[key] = None if value is None and default is None else check(value, prefix + key, values)
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Validate a JSON configuration document and apply preset defaults."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise SchemaError(f"document is not valid JSON: {err}") from None
    _require(isinstance(doc, dict), "$", "top level must be a JSON object")
    scenario = _scenario(doc.get("scenario"), "scenario")
    merged = {key: value for key, value in PRESETS[scenario].items() if key in _KNOWN_KEYS}
    for key, value in doc.items():
        _require(key in _KNOWN_KEYS, key, "unknown field")
        if key == "evolution":
            _require(isinstance(value, dict), key, "must be an object")
            for ek in value:
                _require(ek in _EVOLUTION_KEYS, f"{key}.{ek}", "unknown field")
            value = {**merged.get(key, {}), **value}
        merged[key] = value
    v = _read(_KEYS, merged)
    if v["n_values"] is not None:  # n_values sets every register's mode counts
        for key in ("n_modes", *_SPECIES_COUNTS):
            _require(key not in doc, key, "cannot be given beside n_values, which sets the mode counts")
    nb = v["n_boson_modes"]
    cfg = ScenarioConfig(
        mode_config=ModeConfig(v["n_fermion_modes"], v["n_antifermion_modes"], nb, (v["modals"],) * nb),
        params=ModelParams(**{f.name: v[f.name] for f in fields(ModelParams)}),
        **v["evolution"],
        **{f.name: v[f.name] for f in fields(ScenarioConfig) if f.name in v},
    )
    # fail early, before anything is allocated, on registers too wide or too large to evolve,
    # on exactly evolved sectors above the cap and on parameters or initial states that some
    # register of the run cannot hold
    register_key = "n_modes" if cfg.n_values is None else "n_values"
    state_key = "initial_state" if cfg.initial_states is None else "initial_states"
    exactly = cfg.mode == "exact" or "transition_exact" in PRESETS[scenario].get("extra_columns", ())
    dims = []  # sector dimension per register and start, 0 where not evolved exactly
    for _, config in cfg.registers():
        qubits = QubitLayout(config).total_qubits
        _require(qubits <= MAX_QUBITS, register_key,
                 f"a {qubits}-qubit register exceeds the {MAX_QUBITS}-qubit limit", PhysicsError)
        if cfg.mode == "trotter":
            _require_memory(_TROTTER_BYTES_PER_AMP << qubits, register_key,
                            f"Trotter evolution of {qubits} qubits needs")
        try:
            cfg.params.validate(config)
        except ValueError as err:
            raise PhysicsError(str(err)) from None
        for label in cfg.initial_states or (cfg.initial_state,):
            state = _resolve_state(label, config)
            K, Q = k_of(state), q_of(state)
            _require_count_table(config, K, Q, state_key)  # _Start lists every start's sector
            dim = sector_dim(config, K, Q) if exactly else 0
            message = f"sector dimension {dim} of {label!r} exceeds cap {SECTOR_DIM_CAP}"
            _require(dim <= SECTOR_DIM_CAP, state_key, message, PhysicsError)
            dims.append(dim)
    for i, lam in enumerate(cfg.lambdas or ()):  # params passed above: only the coupling can fail
        for _, config in cfg.registers():
            try:
                replace(cfg.params, coupling=lam).validate(config)
            except ValueError as err:
                raise PhysicsError(f"lambdas[{i}]{str(err).removeprefix('coupling')}") from None
    # the records and exact_evolve's arrays grow with the time grid, which
    # _observation_times allocates in full
    n_times = 1 if cfg.dt is None else round(cfg.t_max / cfg.dt) + (cfg.mode == "exact")
    cells = n_times * len(cfg.lambdas or (0,)) * len(cfg.trotter_steps or (0,))
    records = cells * len(dims)
    need = records * _BYTES_PER_RECORD + n_times * max(dims) * _BYTES_PER_EXACT_AMP
    if PRESETS[scenario].get("probabilities"):
        need += cells * sum(dims) * _BYTES_PER_MAP_ENTRY
    _require_memory(need, "evolution",
                    f"{n_times} observation times make {records} records needing")
    return cfg


def _require_count_table(config: ModeConfig, K: int, Q: int, path: str) -> None:
    """PhysicsError at path if the int64 table that counts and lists sector (K, Q) exceeds memory."""
    shape = _table_shape(config, K, Q)
    need = 8 * math.prod(shape) if shape else 0
    _require_memory(need, path, f"sector K={K} Q={Q} needs a count table of")


def _require_memory(need: int, path: str, what: str) -> None:
    """PhysicsError at path if ``what`` about ``need`` bytes exceeds the physical memory."""
    memory = _physical_memory()
    if memory and need > memory:
        raise PhysicsError(f"{path}: {what} about {need / 1e9:.3g} GB, more than "
                           f"the {memory / 1e9:.3g} GB of physical memory")


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


# Named initial states: the occupied (fermion, antifermion, boson) modes, one quantum each.
_NAMED_STATES = {
    "f2": ((2,), (), ()),
    "fbar2": ((), (2,), ()),
    "phi2": ((), (), (2,)),
    "f4f5": ((4, 5), (), ()),
    "f2-fbar2-phi2": ((2,), (2,), (2,)),
}


def _resolve_state(label: str, config: ModeConfig) -> FockState:
    """Named initial states, or an explicit grouped bitstring."""
    if set(label) <= {"0", "1", " "}:
        layout = QubitLayout(config)
        try:
            return layout.decode(layout.parse_bits(label))
        except ValueError as err:
            raise SchemaError(f"initial_state: {err}") from None
    if label not in _NAMED_STATES:
        raise SchemaError(f"initial_state: unknown state label {label!r}")
    sizes = (config.n_fermion_modes, config.n_antifermion_modes, config.n_boson_modes)
    occupied = _NAMED_STATES[label]
    for modes, n in zip(occupied, sizes):
        if modes and max(modes) > n:
            raise SchemaError(f"initial_state: {label} needs mode {max(modes)}, outside the cutoff")
    return FockState(*(
        tuple(int(m in modes) for m in range(1, n + 1)) for modes, n in zip(occupied, sizes)
    ))


# -- the grid runner ---------------------------------------------------------------


class _Start:
    """One initial state: its sorted sector indices, its unit vector on them, target positions."""

    def __init__(self, label: str, config: ModeConfig, layout: QubitLayout, content=None):
        self.label = label
        state = _resolve_state(label, config)
        self.K, self.Q = k_of(state), q_of(state)
        self.index = layout.encode(state)
        self.indices = sector_indices(config, self.K, self.Q)
        self.amp0 = (self.indices == self.index).astype(complex)
        if content is None:
            self.targets = np.flatnonzero(self.indices != self.index)
        else:  # the states with these (fermion, antifermion, boson) particle counts
            sector = map(layout.decode, self.indices.tolist())
            particles = [(sum(s.fermions), sum(s.antifermions), sum(s.bosons)) for s in sector]
            self.targets = np.flatnonzero([n == tuple(content) for n in particles])


def _probability_map(amp, basis, layout, floor: float = 1e-12) -> dict[str, float]:
    """Probabilities by bitstring of the amplitudes amp on the basis indices."""
    probs = np.abs(amp) ** 2
    hits = np.nonzero(probs > floor)[0]
    return {layout.format_bits(int(basis[k])): float(probs[k]) for k in hits}


def _observation_times(cfg: ScenarioConfig) -> np.ndarray:
    """Exact runs observe 0, dt, ..., t_max and Trotter runs dt, ..., t_max; without dt, t_max."""
    if cfg.dt is None:
        return np.array([cfg.t_max])
    grid = np.round(np.arange(0.0, cfg.t_max + cfg.dt / 2, cfg.dt), 12)
    return grid if cfg.mode == "exact" else grid[1:]


def _sampled_fraction(amp, basis, hits, layout, shots: int, *seed_key) -> float:
    """Fraction of the shots that read out one of the basis indices in hits."""
    text = json.dumps(list(seed_key), sort_keys=True)
    seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
    width = layout.total_qubits
    counts = sample_counts(amp, shots, seed, basis, width)
    return sum(counts.get(format(int(i), f"0{width}b"), 0) for i in hits) / shots


def _evolve(cfg: ScenarioConfig, h, starts, layout, times, n_t, emit) -> None:
    """Evolve every start under h; ``emit(k, j, amp, readout, meta)`` sees start k at times[j].

    amp is on the start's sector basis.  readout, the amplitudes and sorted basis indices
    that leakage and shots read, is (amp, sector indices) in exact runs, which diagonalize
    each sector once for all times, and the register's nonzero entries with their indices
    in Trotter runs.  Trotter runs share one plan of n_t steps over t_max between the
    starts and observe its last len(times) steps; with ``trotter_steps`` each time gets
    its own plan of n_t steps, observed at its end.
    """
    if cfg.mode == "exact":
        for k, s in enumerate(starts):
            for j, amp in enumerate(exact_evolve(h, s.amp0, times, s.indices)):
                emit(k, j, amp, (amp, s.indices), {})
        return
    # built before the plans: allocated after plan compilation they add a vector to peak RSS
    psi0s = [layout.basis_vector(s.index) for s in starts]
    if cfg.trotter_steps is None:
        plans = [(make_plan(h, cfg.t_max, n_t, cfg.order), range(len(times)))]
    else:
        plans = ((make_plan(h, float(t), n_t, cfg.order), [j]) for j, t in enumerate(times))
    for plan, observed in plans:
        first = plan.n_steps - len(observed)
        meta = {"plan_order": plan.order, "plan_steps": plan.n_steps}
        for k, s in enumerate(starts):

            def observer(step, psi, k=k, s=s):
                if step > first:
                    nz = np.flatnonzero(psi != 0)
                    emit(k, observed[step - first - 1], psi[s.indices], (psi[nz], nz), dict(meta))

            trotter_evolve(plan, psi0s[k], observer=observer)


def _run_grid(cfg: ScenarioConfig):
    """Records over n_max x lambda x n_trotter x state, in that order with time last."""
    preset = PRESETS[cfg.scenario]
    grid = ("n_values", "lambdas", "trotter_steps", "initial_states")  # nesting order
    axes = [key for key in grid if getattr(cfg, key) is not None]
    sweep_cols = tuple(_KEYS[key].column for key in axes)
    sampled = f"{preset.get('sampled', 'survival')}_sampled" if cfg.shots else None
    extra_cols = tuple(preset.get("extra_columns", ())) + ((sampled,) if sampled else ())
    with_exact = "transition_exact" in extra_cols
    times = _observation_times(cfg)
    registers = cfg.registers()
    records, hams = [], []

    for n_max, config in registers:
        layout = QubitLayout(config)
        starts = [
            _Start(label, config, layout, preset.get("target_content"))
            for label in cfg.initial_states or (cfg.initial_state,)
        ]
        for lam in cfg.lambdas or (cfg.params.coupling,):
            params = replace(cfg.params, coupling=lam)
            h = build_h(config, params, layout, cfg.parts, cfg.cross_species_string)
            hams.append(h)
            exact = None  # exact transition per (start, time) next to a Trotter run
            if with_exact and cfg.mode == "trotter":
                exact = [
                    [transition_prob(amp, s.targets)
                     for amp in exact_evolve(h, s.amp0, times, s.indices)]
                    for s in starts
                ]
            for n_t in cfg.trotter_steps or (cfg.n_steps,):
                rows = [[] for _ in starts]

                def emit(k, j, amp, readout, meta):
                    start = starts[k]
                    cell = dict(zip(grid, (n_max, lam, n_t, start.label)))
                    key = [cell[axis] for axis in axes]
                    meta.update(zip(sweep_cols, key))
                    rec = EvolutionRecord(
                        float(times[j]), survival(amp, start.amp0),
                        transition_prob(amp, start.targets),
                        *leakage(*readout, start.K, start.Q, layout), metadata=meta,
                    )
                    if with_exact:
                        meta["transition_exact"] = rec.transition if exact is None else exact[k][j]
                    if sampled:
                        if len(times) > 1:
                            key.append(float(times[j]))
                        hits = [start.index]
                        if sampled == "transition_sampled":
                            hits = start.indices[start.targets]
                        meta[sampled] = _sampled_fraction(
                            *readout, hits, layout, cfg.shots, cfg.seed, cfg.scenario, *key
                        )
                    if preset.get("probabilities"):
                        rec.probabilities = _probability_map(amp, start.indices, layout)
                    rows[k].append(rec)

                _evolve(cfg, h, starts, layout, times, n_t, emit)
                for part in rows:
                    records.extend(part)

    extras = {}
    if len(registers) == 1 and len(starts) == 1:
        extras = {"sector_dim": len(starts[0].indices), "n_targets": len(starts[0].targets)}
    return records, sweep_cols, extra_cols, hams, extras


def run_scenario(cfg: ScenarioConfig, write_files: bool = True):
    """Execute a scenario; returns its records and writes CSV plus a manifest."""
    _scenario(cfg.scenario, "scenario")
    records, sweep_cols, extra_cols, hams, extras = _run_grid(cfg)
    csv_text = records_to_csv(records, sweep_cols, extra_cols)
    qubits = [QubitLayout(config).total_qubits for _, config in cfg.registers()]
    manifest = {
        "package_version": __version__,
        "config": cfg.echo(),
        "qubits": qubits if cfg.n_values is not None else qubits[0],
        "hamiltonian_term_counts": [len(h) for h in hams],
        "hamiltonian_hashes": [hashlib.sha256(dumps(h).encode()).hexdigest() for h in hams],
        "records": len(records),
        "csv_columns": csv_text.partition("\n")[0].split(","),
        **extras,
    }
    files = {}
    if write_files:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        outputs = {"csv": csv_text, "manifest": manifest_text}
        detailed = [
            {"time": r.time, **r.metadata, "probabilities": r.probabilities}
            for r in records
            if r.probabilities is not None
        ]
        if detailed:
            outputs["probabilities"] = json.dumps(detailed, indent=2, sort_keys=True) + "\n"
        os.makedirs(cfg.output_dir, exist_ok=True)
        for kind, text in outputs.items():
            suffix = ".csv" if kind == "csv" else f".{kind}.json"
            files[kind] = os.path.join(cfg.output_dir, cfg.scenario + suffix)
            with open(files[kind], "w") as fh:
                fh.write(text)
    return records, csv_text, manifest, files
