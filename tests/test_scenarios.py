import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfyukawa import evolve, scenarios
from lfyukawa.cli import main
from lfyukawa.evolve import NORM_TOL, exact_evolve, sample_counts
from lfyukawa.fock import ModeConfig, QubitLayout
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import COMPARE_TOL, DEFAULT_TOL
from lfyukawa.scenarios import (
    _EVOLUTION_KEYS,
    _KNOWN_KEYS,
    PRESETS,
    _probability_map,
    _sampled_fraction,
    _Start,
    ConfigError,
    PhysicsError,
    ScenarioConfig,
    SchemaError,
    parse_config,
    run_scenario,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_minimal_document_gets_full_defaults():
    cfg = parse_config('{"scenario": "rabi"}')
    assert cfg.mode_config.n_fermion_modes == 3
    assert cfg.mode_config.boson_modals == (3, 3, 3)
    assert cfg.params.coupling == 4.0
    assert cfg.params.fermion_mass == 6.7
    assert cfg.params.boson_mass == 1.0
    assert cfg.params.inertia_cutoff == 2048
    assert cfg.params.box_length == pytest.approx(2 * math.pi)
    assert cfg.params.include_inertias is False
    assert cfg.mode == "exact"
    echo = cfg.echo()
    assert echo["tolerances"]["coeff_drop"] == 1e-12
    # the echo reads the constants the code applies, with unchanged values
    tolerances = {"coeff_drop": DEFAULT_TOL, "canonical_compare": COMPARE_TOL, "norm": NORM_TOL}
    assert echo["tolerances"] == tolerances
    assert tolerances == {"coeff_drop": 1e-12, "canonical_compare": 1e-10, "norm": 1e-9}


def test_overrides_apply():
    cfg = parse_config('{"scenario": "pp-collision", "coupling": 13.315}')
    assert cfg.params.coupling == 13.315
    assert cfg.dt == 0.005 and cfg.n_steps == 80
    assert cfg.initial_state == "f4f5"


def test_schema_errors_carry_field_paths():
    with pytest.raises(SchemaError, match="no-such-knob"):
        parse_config('{"scenario": "rabi", "no-such-knob": 1}')
    with pytest.raises(SchemaError, match="evolution.order"):
        parse_config('{"scenario": "rabi", "evolution": {"order": 3}}')
    with pytest.raises(SchemaError, match="scenario"):
        parse_config('{"scenario": "frobnicate"}')
    with pytest.raises(SchemaError):
        parse_config("not json at all")
    malformed = [
        ('{"scenario": "rabi", "initial_state": 7}', "initial_state"),
        ('{"scenario": "coupling-sweep", "initial_states": 5}', "initial_states"),
        ('{"scenario": "coupling-sweep", "initial_states": [5]}', "initial_states"),
        ('{"scenario": "rabi", "parts": 5}', "parts"),
        ('{"scenario": "nmax-study", "n_values": [0]}', "n_values"),
        ('{"scenario": "trotter-study", "trotter_steps": [0]}', "trotter_steps"),
        ('{"scenario": "rabi", "trotter_steps": [2, 3]}', "trotter_steps"),
        ('{"scenario": "rabi", "evolution": {"t_max": 1.0, "dt": 0.3}}', "evolution"),
    ]
    for text, path in malformed:
        with pytest.raises(SchemaError, match=path):
            parse_config(text)


def test_physics_errors_are_distinct():
    with pytest.raises(PhysicsError, match="masses"):
        parse_config('{"scenario": "rabi", "fermion_mass": -1}')
    with pytest.raises(PhysicsError, match="inertia_cutoff"):
        parse_config('{"scenario": "rabi", "inertia_cutoff": 2}')
    with pytest.raises(PhysicsError, match="modals"):
        parse_config('{"scenario": "rabi", "modals": 2}')
    with pytest.raises(PhysicsError, match="box_length"):
        parse_config('{"scenario": "rabi", "box_length": -1.0}')


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["exact", "trotter", "f2", "f4f5", "phi2", "HM", "010 000 00 00 00"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    keys = st.sampled_from(sorted(_KNOWN_KEYS - {"scenario", "evolution"}))
    doc = draw(st.dictionaries(keys, _json_values, max_size=5))
    if draw(st.booleans()):
        evolution = st.dictionaries(st.sampled_from(sorted(_EVOLUTION_KEYS)), _json_values, max_size=5)
        doc["evolution"] = draw(evolution | _json_values)
    doc["scenario"] = draw(st.sampled_from(sorted(PRESETS)) | _json_values)
    return doc


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_parse_config_raises_only_config_errors(doc):
    # a malformed document must exit 2 (ConfigError), never 1 (any other exception)
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


def test_grid_consistency_enforced():
    with pytest.raises(SchemaError, match="evolution"):
        parse_config(
            '{"scenario": "pp-collision", "evolution": {"t_max": 0.4, "dt": 0.005, "n_steps": 10}}'
        )


def test_initial_state_validation():
    with pytest.raises(SchemaError, match="initial_state"):
        parse_config('{"scenario": "rabi", "initial_state": "010 000"}')
    cfg = parse_config('{"scenario": "rabi", "initial_state": "010 000 00 00 00"}')
    assert cfg.initial_state == "010 000 00 00 00"


def _quick_rabi(tmp_path, extra=None):
    doc = {
        "scenario": "rabi",
        "evolution": {"mode": "exact", "t_max": 0.3, "dt": 0.05},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(extra or {})
    return parse_config(json.dumps(doc))


def test_rabi_scenario_produces_oscillation(tmp_path):
    cfg = _quick_rabi(tmp_path, {"evolution": {"mode": "exact", "t_max": 1.0, "dt": 0.01}})
    records, csv_text, manifest, files = run_scenario(cfg)
    assert len(records) == 101
    peaks = max(r.transition for r in records)
    assert peaks > 0.4  # strong oscillation at lambda = 4
    assert all(abs(r.survival + r.transition - 1.0) < 1e-9 for r in records)
    assert manifest["qubits"] == 12
    assert files and csv_text.startswith("time,survival,")


def test_manifest_echoes_everything(tmp_path):
    cfg = _quick_rabi(tmp_path)
    _, _, manifest, files = run_scenario(cfg)
    echo = manifest["config"]
    assert echo["coupling"] == 4.0
    assert echo["evolution"]["dt"] == 0.05
    assert echo["g"] == pytest.approx(4.0 / math.sqrt(4 * math.pi))
    assert manifest["hamiltonian_hashes"]
    with open(files["manifest"]) as fh:
        assert json.load(fh) == manifest


def test_rerun_byte_reproducible(tmp_path):
    doc = {
        "scenario": "hardware-minimal",
        "output_dir": str(tmp_path / "a"),
        "seed": 77,
    }
    _, csv_a, _, files_a = run_scenario(parse_config(json.dumps(doc)))
    doc["output_dir"] = str(tmp_path / "b")
    _, csv_b, _, files_b = run_scenario(parse_config(json.dumps(doc)))
    assert csv_a == csv_b
    with open(files_a["csv"], "rb") as fa, open(files_b["csv"], "rb") as fb:
        assert fa.read() == fb.read()


def test_hardware_minimal_emits_exact_alongside(tmp_path):
    doc = {"scenario": "hardware-minimal", "output_dir": str(tmp_path / "hw")}
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    header = csv_text.splitlines()[0]
    assert header == "lambda,time,survival,transition,leak_K,leak_Q,transition_exact,transition_sampled"
    by_lambda = {r.metadata["lambda"]: r for r in records}
    assert set(by_lambda) == {1.0, 4.0}
    # single-step Trotter values sit near sin^2(V t); exact values are far smaller
    assert by_lambda[1.0].transition == pytest.approx(0.288, abs=0.02)
    assert by_lambda[4.0].transition == pytest.approx(0.588, abs=0.02)
    for rec in records:
        assert rec.metadata["transition_exact"] < rec.transition


def test_coupling_sweep_small(tmp_path):
    doc = {
        "scenario": "coupling-sweep",
        "lambdas": [1.0],
        "initial_states": ["phi2", "f2"],
        "shots": 256,
        "output_dir": str(tmp_path / "cs"),
    }
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert len(records) == 2
    angel = next(r for r in records if r.metadata["state"] == "phi2")
    assert angel.survival == pytest.approx(1.0, abs=1e-9)
    assert "survival_sampled" in csv_text.splitlines()[0]


def test_trotter_study_small(tmp_path):
    doc = {
        "scenario": "trotter-study",
        "trotter_steps": [2, 3],
        "evolution": {"mode": "trotter", "t_max": 0.1, "dt": 0.05, "order": 1},
        "output_dir": str(tmp_path / "ts"),
    }
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert len(records) == 4  # two step counts x two grid times
    header = csv_text.splitlines()[0]
    assert header.startswith("n_trotter,time,")
    assert header.endswith("transition_exact")
    keys = [(r.metadata["n_trotter"], r.time) for r in records]
    assert keys == sorted(keys)


def test_nmax_study_small(tmp_path):
    doc = {
        "scenario": "nmax-study",
        "n_values": [2, 3],
        "lambdas": [1.0],
        "initial_states": ["f2"],
        "output_dir": str(tmp_path / "nm"),
    }
    records, csv_text, manifest, _ = run_scenario(parse_config(json.dumps(doc)))
    assert len(records) == 2
    assert csv_text.splitlines()[0].startswith("n_max,lambda,state,")
    assert manifest["qubits"] == [8, 12]  # one width per register, in n_values order
    # the two-level sector is saturated already at two modes: same survival
    assert records[0].survival == pytest.approx(records[1].survival, abs=5e-3)


def test_pp_collision_runner_path(tmp_path):
    # tiny register stand-in: the preset machinery with an empty target set
    doc = {
        "scenario": "pp-collision",
        "n_modes": 3,
        "coupling": 4.0,
        "initial_state": "f2",
        "evolution": {"mode": "trotter", "t_max": 0.01, "dt": 0.005, "order": 1},
        "output_dir": str(tmp_path / "pp"),
    }
    records, _, manifest, _ = run_scenario(parse_config(json.dumps(doc)))
    assert len(records) == 2
    assert manifest["n_targets"] == 0
    assert all(r.transition == 0.0 for r in records)


def test_cli_list_and_sector(tmp_path, capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "rabi" in out and "pp-collision" in out
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"scenario": "rabi"}')
    assert main(["sector", str(cfg_path), "--K", "2", "--Q", "1"]) == 0
    out = capsys.readouterr().out
    assert "010 000 00 00 00" in out and "100 000 01 00 00" in out


def test_cli_sector_negative_k_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"scenario": "rabi"}')
    with pytest.raises(SystemExit) as exc:
        main(["sector", str(cfg_path), "--K", "-1", "--Q", "0"])
    assert exc.value.code == 2
    assert "--K" in capsys.readouterr().err


def test_cli_single_register_commands_refuse_n_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"scenario": "nmax-study", "n_values": [2, 3]}')
    sector = ["sector", str(cfg_path), "--K", "2", "--Q", "1"]
    for argv in (sector, ["dump-hamiltonian", str(cfg_path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error: n_values" in captured.err
    cfg_path.write_text('{"scenario": "nmax-study", "n_values": null, "n_modes": 2}')
    assert main(sector) == 0
    assert "sector K=2 Q=1: 2 states" in capsys.readouterr().out


def test_cli_dump_hamiltonian(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "hardware-minimal"}))
    assert main(["dump-hamiltonian", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# {")
    header = json.loads(out[0][2:])
    assert header["parts"] == ["HM", "HV"]
    assert len(out) - 1 == header["terms"]
    letters = [line.split()[2] for line in out[1:]]
    assert letters == sorted(letters)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "rabi",
                "evolution": {"mode": "exact", "t_max": 0.1, "dt": 0.05},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "rabi.csv").exists()
    assert (tmp_path / "out" / "rabi.manifest.json").exists()
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "rabi", "fermion_mass": -2}')
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_coupling_sweep_reproduces_golden_rows(tmp_path):
    golden = (GOLDEN / "demo-coupling-sweep" / "coupling-sweep.csv").read_text().splitlines()
    # lambda 5 is the coupling the benchmark's coupling-sweep workload gates
    want = [golden[0]] + [row for row in golden[1:] if row.startswith(("1,", "5,"))]
    assert len(want) == 9
    doc = {
        "scenario": "coupling-sweep",
        "lambdas": [1.0, 5.0],
        "seed": 11,
        "output_dir": str(tmp_path / "cs"),
    }
    _, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines() == want


def test_integer_and_float_lambdas_write_identical_csv(tmp_path):
    # the sampling seed reads the validated (float) coupling, not the literal
    texts = []
    for lambdas in ([1, 4], [1.0, 4.0]):
        doc = {"scenario": "hardware-minimal", "lambdas": lambdas, "seed": 11,
               "output_dir": str(tmp_path / str(len(texts)))}
        cfg = parse_config(json.dumps(doc))
        assert [type(v) for v in cfg.echo()["lambdas"]] == [float, float]
        texts.append(run_scenario(cfg)[1])
    assert texts[0] == texts[1]


def test_grid_keys_are_never_ignored(tmp_path):
    # every sweep key either adds its column or is rejected, whatever the preset
    doc = {
        "scenario": "rabi",
        "lambdas": [1.0, 2.0],
        "evolution": {"mode": "exact", "t_max": 0.1, "dt": 0.05},
        "output_dir": str(tmp_path / "rabi"),
    }
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines()[0].startswith("lambda,time,")
    assert [(r.metadata["lambda"], r.time) for r in records] == [
        (lam, t) for lam in (1.0, 2.0) for t in (0.0, 0.05, 0.1)
    ]
    assert records[1].survival != records[4].survival

    doc = {
        "scenario": "pp-collision",
        "n_modes": 3,
        "initial_states": ["f2", "fbar2"],
        "evolution": {"mode": "trotter", "t_max": 0.01, "dt": 0.005, "order": 1},
        "output_dir": str(tmp_path / "pp"),
    }
    records, csv_text, manifest, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines()[0].startswith("state,time,")
    assert [(r.metadata["state"], r.time) for r in records] == [
        ("f2", 0.005), ("f2", 0.01), ("fbar2", 0.005), ("fbar2", 0.01)
    ]
    assert "n_targets" not in manifest  # two sectors: no single sector to describe

    with pytest.raises(SchemaError, match="trotter_steps"):
        parse_config('{"scenario": "trotter-study", "evolution": {"mode": "exact"}}')

    doc = {
        "scenario": "nmax-study",
        "n_values": [2],
        "lambdas": [1.0],
        "initial_states": ["f2"],
        "shots": 64,
        "output_dir": str(tmp_path / "nm"),
    }
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines()[0].endswith(",survival_sampled")
    assert 0.0 <= records[0].metadata["survival_sampled"] <= 1.0


def test_trotter_steps_sweep_over_states(tmp_path):
    doc = {
        "scenario": "trotter-study",
        "trotter_steps": [1, 2],
        "initial_states": ["f2", "fbar2"],
        "evolution": {"mode": "trotter", "t_max": 0.1, "dt": 0.05, "order": 1},
        "output_dir": str(tmp_path / "ts"),
    }
    records, csv_text, _, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines()[0].startswith("n_trotter,state,time,")
    keys = [(r.metadata["n_trotter"], r.metadata["state"], r.time) for r in records]
    assert keys == [(n, s, t) for n in (1, 2) for s in ("f2", "fbar2") for t in (0.05, 0.1)]
    by_key = {k: r for k, r in zip(keys, records)}
    for n in (1, 2):  # b <-> d symmetry: the two states evolve alike
        for t in (0.05, 0.1):
            assert by_key[(n, "f2", t)].survival == pytest.approx(
                by_key[(n, "fbar2", t)].survival, abs=1e-12
            )


def _refuse(*args, **kwargs):
    raise AssertionError("reached code that allocates a register-sized array")


def _run_cli(tmp_path, doc) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return main(["run", str(path)])


def test_register_guards_exit_2_before_allocation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(QubitLayout, "basis_vector", _refuse)
    refused = [
        ({"scenario": "rabi", "n_modes": 16}, "n_modes: a 64-qubit register"),
        (
            {"scenario": "rabi", "n_modes": 10, "evolution": {"mode": "trotter", "dt": 0.1}},
            "n_modes: Trotter evolution of 40 qubits",
        ),
        ({"scenario": "nmax-study", "n_values": [4, 10]}, "n_values: Trotter evolution of 40"),
    ]
    for doc, message in refused:
        assert _run_cli(tmp_path, doc) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    # the same 40-qubit register evolves exactly in its sector
    assert parse_config('{"scenario": "rabi", "n_modes": 10}').mode == "exact"


def test_time_grid_guard_exits_2_before_allocation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: 8 << 30)
    monkeypatch.setattr(scenarios, "_observation_times", _refuse)
    monkeypatch.setattr(scenarios, "exact_evolve", _refuse)
    refused = [
        (
            {"scenario": "rabi", "evolution": {"mode": "exact", "t_max": 1e6, "dt": 1e-6}},
            "evolution: 1000000000001 observation times make 1000000000001 records",
        ),
        (
            {"scenario": "rabi", "evolution": {"mode": "trotter", "t_max": 1000.0, "dt": 1e-6}},
            "evolution: 1000000000 observation times make 1000000000 records",
        ),
    ]
    for doc, message in refused:
        assert _run_cli(tmp_path, doc) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    # every preset and the benchmark's two configurations fit
    for name in PRESETS:
        parse_config(json.dumps({"scenario": name}))
    parse_config('{"scenario": "coupling-sweep", "lambdas": [5.0], "shots": 8192}')
    parse_config(
        '{"scenario": "rabi", "n_modes": 5, "coupling": 13.315, "initial_state": "f4f5",'
        ' "evolution": {"mode": "exact", "t_max": 0.4, "dt": 0.005}}'
    )


def test_sector_cap_exits_2_before_build_h(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "build_h", _refuse)
    doc = {"scenario": "rabi", "n_modes": 6, "initial_state": "000001 000001 00 00 00 00 00 10"}
    assert _run_cli(tmp_path, doc) == 2  # K = 24, Q = 0: 9,994 states
    assert "initial_state: sector dimension 9994" in capsys.readouterr().err
    # Trotter-only runs enumerate no sector while parsing
    monkeypatch.setattr(scenarios, "sector_indices", _refuse)
    parse_config('{"scenario": "coupling-sweep"}')


def test_exact_runs_build_no_register_vector(tmp_path, monkeypatch):
    monkeypatch.setattr(QubitLayout, "basis_vector", _refuse)
    # leakage reads the sector amplitudes on the start's sector indices, never a register
    real_leakage, read = scenarios.leakage, []

    def leakage(amp, indices, *args):
        assert np.shape(amp) == np.shape(indices)
        read.append(len(indices))
        return real_leakage(amp, indices, *args)

    monkeypatch.setattr(scenarios, "leakage", leakage)
    docs = [
        {"scenario": "rabi", "shots": 512, "evolution": {"t_max": 0.1, "dt": 0.05}},
        {
            "scenario": "hardware-minimal",
            "evolution": {"mode": "exact", "t_max": 0.2, "dt": 0.05, "n_steps": 4},
        },
        {  # 32 qubits: one register vector would take 64 GiB
            "scenario": "rabi",
            "n_modes": 8,
            "coupling": 13.315,
            "initial_state": "f4f5",
            "evolution": {"mode": "exact", "t_max": 0.01, "dt": 0.005},
        },
    ]
    results = []
    for k, doc in enumerate(docs):
        doc["output_dir"] = str(tmp_path / str(k))
        results.append(run_scenario(parse_config(json.dumps(doc))))
        records, _, manifest, _ = results[-1]
        assert read == [manifest["sector_dim"]] * len(records)
        read.clear()
    assert "survival_sampled" in results[0][1].splitlines()[0]
    assert "probabilities" in results[1][3]
    records, _, manifest, _ = results[2]
    assert manifest["qubits"] == 32 and manifest["sector_dim"] == 50
    assert all(r.leak_k == r.leak_q == 0.0 for r in records)


def test_small_trotter_runs_step_the_compiled_plan(monkeypatch):
    # the 12-qubit physical H compiles to phase vectors and coset blocks only, so a run
    # that reached the rotation-by-rotation path would call _rotate
    monkeypatch.setattr(evolve, "_rotate", _refuse)
    doc = {"scenario": "trotter-study", "trotter_steps": [1, 2], "evolution": {"t_max": 0.1}}
    records, _, manifest, _ = run_scenario(parse_config(json.dumps(doc)), write_files=False)
    assert manifest["qubits"] == 12 and len(records) == 4


def test_sector_readout_equals_register_readout():
    # numpy's multinomial draws nothing for a zero-probability category, so sampling the
    # sector amplitudes gives the counts of the register vector that is zero off the sector
    config = ModeConfig.uniform(3, 3)
    layout = QubitLayout(config)
    h = build_h(config, ModelParams(coupling=4.0), layout)
    for label in ("f2", "f2-fbar2-phi2"):
        start = _Start(label, config, layout)
        for amp in exact_evolve(h, start.amp0, np.array([0.05, 0.2, 0.37, 0.9]), start.indices):
            psi = np.zeros(1 << layout.total_qubits, dtype=complex)
            psi[start.indices] = amp
            probs = np.abs(psi) ** 2
            want = {layout.format_bits(i): float(probs[i]) for i in np.flatnonzero(probs > 1e-12)}
            assert _probability_map(amp, start.indices, layout) == want
            everywhere = np.arange(psi.size)
            for seed in range(20):
                want = sample_counts(psi, 1000, seed, everywhere, layout.total_qubits)
                assert sample_counts(amp, 1000, seed, start.indices, layout.total_qubits) == want
                for hits in ([start.index], start.indices[start.targets]):
                    assert _sampled_fraction(amp, start.indices, hits, layout, 1000, seed) == (
                        _sampled_fraction(psi, everywhere, hits, layout, 1000, seed)
                    )


def test_benchmark_tracer_installs_and_restores_every_name():
    # the traced benchmark run wraps lfyukawa functions at their module attributes; a
    # name it wraps that the package drops must fail here, not in the traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("test")
    tracer.install()
    patches = list(tracer._patches)
    assert patches and all(getattr(owner, attr) is not fn for owner, attr, fn in patches)
    tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patches)
