"""Experiment presets, the configuration document parser and the grid runner.

Each preset reproduces one of the reference experiments: the exact two-level
oscillation, the Trotter-step study, the coupling sweep over four initial
states, the mode-cutoff study, the two-proton collision and the minimal
two-mode run.  A configuration document is JSON; any field given overrides the
preset default and the fully resolved configuration is echoed in the run
manifest so every run can be reproduced without the preset table.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .diagnostics import EvolutionRecord, leakage, records_to_csv, survival, transition_prob
from .evolve import NORM_TOL, SECTOR_DIM_CAP, exact_evolve, make_plan, sample_counts, trotter_evolve
from .fock import FockState, ModeConfig, QubitLayout, k_of, q_of, sector_indices
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


# Preset fields that are not configuration keys: CSV columns after the standard
# ones, the probability that ``shots`` estimates (default survival), the
# particle counts of the transition targets (see _Start) and whether each
# record's full probability map is written.
_PRESET_ONLY = {"description", "extra_columns", "sampled", "target_content", "probabilities"}

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
# One blocked step of the 20-qubit pp-collision plan peaks at 60.4 bytes per
# amplitude of numpy memory (tracemalloc): 16 the statevector, 41.7 the
# compiled plan (phase vector, index table, coset unitaries) and 2.7 the step's
# int64 index, gather and product, each over one piece of the start's
# reachable cosets rather than the whole register.
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

# Sweep axes in column order: (configuration key, CSV column).
_AXES = (
    ("n_values", "n_max"),
    ("lambdas", "lambda"),
    ("trotter_steps", "n_trotter"),
    ("initial_states", "state"),
)


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
    lambdas: tuple[float, ...] | None = None
    trotter_steps: tuple[int, ...] | None = None
    n_values: tuple[int, ...] | None = None
    initial_states: tuple[str, ...] | None = None
    cross_species_string: bool = True

    def echo(self) -> dict:
        out = {
            "scenario": self.scenario,
            **asdict(self.mode_config),
            "boson_modals": list(self.mode_config.boson_modals),
            **asdict(self.params),
            "g": self.params.g,
            "parts": list(self.parts),
            "initial_state": self.initial_state,
            "evolution": {
                "mode": self.mode,
                "t_max": self.t_max,
                "dt": self.dt,
                "n_steps": self.n_steps,
                "order": self.order,
            },
            "shots": self.shots,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "cross_species_string": self.cross_species_string,
            "tolerances": dict(_TOLERANCES),
        }
        for key, _ in _AXES:
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value)
        return out

    def registers(self) -> list[tuple[int | None, ModeConfig]]:
        """The mode-cutoff axis: (n_max, mode config) per register, n_max None if not swept."""
        if self.n_values is None:
            return [(None, self.mode_config)]
        modals = self.mode_config.boson_modals[0]
        return [(n, ModeConfig.uniform(n, modals)) for n in self.n_values]


_KNOWN_KEYS = {
    "scenario",
    "description",
    "n_modes",
    "n_fermion_modes",
    "n_antifermion_modes",
    "n_boson_modes",
    "modals",
    "fermion_mass",
    "boson_mass",
    "coupling",
    "inertia_cutoff",
    "box_length",
    "include_inertias",
    "parts",
    "initial_state",
    "evolution",
    "shots",
    "seed",
    "output_dir",
    "lambdas",
    "trotter_steps",
    "n_values",
    "initial_states",
    "cross_species_string",
}
_EVOLUTION_KEYS = {"mode", "t_max", "dt", "n_steps", "order"}


def _require(cond: bool, path: str, message: str, error=SchemaError):
    if not cond:
        raise error(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check(test, message: str):
    """Validator returning its value unchanged, or raising SchemaError at the value's path."""

    def check(value, path: str):
        _require(test(value), path, message)
        return value

    return check


_boolean = _check(lambda v: isinstance(v, bool), "must be a boolean")
_string = _check(lambda v: isinstance(v, str), "must be a string")
_integer = _check(_is_int, "must be an integer")
_natural = _check(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_count = _check(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_modes = _check(
    lambda v: _is_int(v) and 1 <= v <= MAX_MODES, f"must be an integer from 1 to {MAX_MODES}"
)
_parts = _check(
    lambda v: isinstance(v, list) and all(p in PARTS for p in v),
    f"must be a list of Hamiltonian parts out of {', '.join(PARTS)}",
)


def _number(value, path: str, positive: bool = False) -> float:
    """A finite JSON number as a float."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(is_number, path, "must be a number")
    _require(abs(value) <= sys.float_info.max, path, "must be a finite number")
    value = float(value)
    _require(value > 0 or not positive, path, "must be a positive number")
    return value


def _axis(merged: dict, key: str, check) -> tuple | None:
    value = merged.get(key)
    if value is None:
        return None
    _require(isinstance(value, list) and value, key, "must be a non-empty list")
    return tuple(check(entry, f"{key}[{i}]") for i, entry in enumerate(value))


def parse_config(text: str) -> ScenarioConfig:
    """Validate a JSON configuration document and apply preset defaults."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise SchemaError(f"document is not valid JSON: {err}") from None
    _require(isinstance(doc, dict), "$", "top level must be a JSON object")
    scenario = doc.get("scenario")
    _require(isinstance(scenario, str), "scenario", "a scenario name is required")
    if scenario not in PRESETS:
        raise SchemaError(f"scenario: unknown scenario {scenario!r}, see list-scenarios")
    merged: dict = {k: v for k, v in PRESETS[scenario].items() if k not in _PRESET_ONLY}
    for key, value in doc.items():
        if key == "evolution":
            evo = dict(merged.get("evolution", {}))
            _require(isinstance(value, dict), "evolution", "must be an object")
            for ek, ev in value.items():
                _require(ek in _EVOLUTION_KEYS, f"evolution.{ek}", "unknown field")
                evo[ek] = ev
            merged["evolution"] = evo
        else:
            _require(key in _KNOWN_KEYS, key, "unknown field")
            merged[key] = value

    def field(key, default, check):
        return check(merged.get(key, default), key)

    n_modes = merged.get("n_modes", 3)
    nf, na, nb = (
        field(key, n_modes, _modes)
        for key in ("n_fermion_modes", "n_antifermion_modes", "n_boson_modes")
    )
    modals = field("modals", 3, _count)
    if modals & (modals + 1):
        raise PhysicsError(f"modals: cap {modals} is not of the form 2**t - 1")
    mode_config = ModeConfig(nf, na, nb, (modals,) * nb)
    params = ModelParams(
        fermion_mass=field("fermion_mass", 6.7, _number),
        boson_mass=field("boson_mass", 1.0, _number),
        coupling=field("coupling", 1.0, _number),
        inertia_cutoff=field("inertia_cutoff", 2048, _integer),
        box_length=field("box_length", 2.0 * math.pi, _number),
        include_inertias=field("include_inertias", False, _boolean),
    )

    evo = merged.get("evolution", {})
    mode = evo.get("mode", "exact")
    _require(mode in ("exact", "trotter"), "evolution.mode", "must be 'exact' or 'trotter'")
    t_max = _number(evo.get("t_max", 0.2), "evolution.t_max", positive=True)
    order = evo.get("order", 1)
    _require(_is_int(order) and order in (1, 2), "evolution.order", "must be 1 or 2")
    dt = evo.get("dt")
    dt = None if dt is None else _number(dt, "evolution.dt", positive=True)
    n_steps = evo.get("n_steps")
    n_steps = None if n_steps is None else _count(n_steps, "evolution.n_steps")
    if dt is None and n_steps is None:
        _require(mode == "exact", "evolution", "trotter evolution needs dt or n_steps")
        dt = 0.02  # reference resolution
    if dt is not None and n_steps is not None:
        product = dt * _number(n_steps, "evolution.n_steps")
        _require(
            abs(product - t_max) <= 1e-9,
            "evolution",
            f"dt*n_steps = {product!r} inconsistent with t_max = {t_max!r}",
        )
    if dt is not None:  # every run observes t_max itself
        ratio = t_max / dt
        _require(
            math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9,
            "evolution",
            "t_max must be a positive multiple of dt",
        )
        if mode == "trotter" and n_steps is None:
            n_steps = int(round(ratio))
    trotter_steps = _axis(merged, "trotter_steps", _count)
    _require(trotter_steps is None or mode == "trotter", "trotter_steps", "needs trotter evolution")

    cfg = ScenarioConfig(
        scenario=scenario,
        mode_config=mode_config,
        params=params,
        parts=tuple(field("parts", list(PARTS), _parts)),
        initial_state=field("initial_state", "f2", _string),
        mode=mode,
        t_max=t_max,
        dt=dt,
        n_steps=n_steps,
        order=order,
        shots=field("shots", 0, _natural),
        seed=field("seed", 1234, _integer),
        output_dir=field("output_dir", os.path.join("runs", scenario), _string),
        lambdas=_axis(merged, "lambdas", _number),
        trotter_steps=trotter_steps,
        n_values=_axis(merged, "n_values", _modes),
        initial_states=_axis(merged, "initial_states", _string),
        cross_species_string=field("cross_species_string", True, _boolean),
    )
    # fail early, before anything is allocated, on registers too wide or too large to evolve,
    # on exactly evolved sectors above the cap and on parameters or initial states that some
    # register of the run cannot hold
    register_key = "n_modes" if cfg.n_values is None else "n_values"
    state_key = "initial_state" if cfg.initial_states is None else "initial_states"
    exactly = mode == "exact" or "transition_exact" in PRESETS[scenario].get("extra_columns", ())
    memory = _physical_memory()
    dims = []  # sector dimension per register and start, 0 where not evolved exactly
    for _, config in cfg.registers():
        qubits = QubitLayout(config).total_qubits
        _require(qubits <= MAX_QUBITS, register_key,
                 f"a {qubits}-qubit register exceeds the {MAX_QUBITS}-qubit limit", PhysicsError)
        need = _TROTTER_BYTES_PER_AMP << qubits
        _require(mode == "exact" or not memory or need <= memory, register_key,
                 f"Trotter evolution of {qubits} qubits needs about {need / 1e9:.3g} GB, more "
                 f"than the {memory / 1e9:.3g} GB of physical memory", PhysicsError)
        try:
            params.validate(config)
        except ValueError as err:
            raise PhysicsError(str(err)) from None
        for label in cfg.initial_states or (cfg.initial_state,):
            state = _resolve_state(label, config)
            dim = len(sector_indices(config, k_of(state), q_of(state))) if exactly else 0
            message = f"sector dimension {dim} of {label!r} exceeds cap {SECTOR_DIM_CAP}"
            _require(dim <= SECTOR_DIM_CAP, state_key, message, PhysicsError)
            dims.append(dim)
    # the records and exact_evolve's arrays grow with the time grid, which
    # _observation_times allocates in full
    n_times = 1 if dt is None else round(t_max / dt) + (mode == "exact")
    cells = n_times * len(cfg.lambdas or (0,)) * len(trotter_steps or (0,))
    records = cells * len(dims)
    need = records * _BYTES_PER_RECORD + n_times * max(dims) * _BYTES_PER_EXACT_AMP
    if PRESETS[scenario].get("probabilities"):
        need += cells * sum(dims) * _BYTES_PER_MAP_ENTRY
    _require(not memory or need <= memory, "evolution",
             f"{n_times} observation times make {records} records needing about "
             f"{need / 1e9:.3g} GB, more than the {memory / 1e9:.3g} GB of physical memory",
             PhysicsError)
    return cfg


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
                    nz = np.flatnonzero(psi)
                    emit(k, observed[step - first - 1], psi[s.indices], (psi[nz], nz), dict(meta))

            trotter_evolve(plan, psi0s[k], observer=observer)


def _run_grid(cfg: ScenarioConfig):
    """Records over n_max x lambda x n_trotter x state, in that order with time last."""
    preset = PRESETS[cfg.scenario]
    sweep_cols = tuple(col for key, col in _AXES if getattr(cfg, key) is not None)
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
                    cell = {"n_max": n_max, "lambda": lam, "n_trotter": n_t, "state": start.label}
                    key = [cell[c] for c in sweep_cols]
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
    if cfg.scenario not in PRESETS:
        raise SchemaError(f"scenario: unknown scenario {cfg.scenario!r}")
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
