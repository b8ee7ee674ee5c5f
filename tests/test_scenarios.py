import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfyukawa import cli, evolve, fock, hamiltonian, scenarios
from lfyukawa.cli import main
from lfyukawa.evolve import NORM_TOL, exact_evolve, sample_counts
from lfyukawa.fock import ModeConfig, QubitLayout
from lfyukawa.hamiltonian import ModelParams, build_h
from lfyukawa.pauli import COMPARE_TOL, DEFAULT_TOL, PauliSum, subspace_matrix
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
    with pytest.raises(SchemaError, match="^box_length: unknown field"):  # the box length is 2*pi
        parse_config('{"scenario": "rabi", "box_length": 1.0}')
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
        ('{"scenario": "rabi", "parts": ["HM", "HM"]}', "parts"),  # would build 2 * H_M
        ('{"scenario": "nmax-study", "n_values": [0]}', "n_values"),
        ('{"scenario": "trotter-study", "trotter_steps": [0]}', "trotter_steps"),
        ('{"scenario": "rabi", "trotter_steps": [2, 3]}', "trotter_steps"),
        ('{"scenario": "rabi", "evolution": {"t_max": 1.0, "dt": 0.3}}', "evolution"),
        ('{"scenario": "hardware-minimal", "shots": 100000000000000000000000}', "shots"),
        ('{"scenario": "rabi", "n_modes": "zz"}', "n_modes"),
        ('{"scenario": "rabi", "n_modes": "zz", "n_fermion_modes": 3, "n_antifermion_modes": 3,'
         ' "n_boson_modes": 3}', "n_modes"),
    ]
    for text, path in malformed:
        with pytest.raises(SchemaError, match=f"^{path}"):
            parse_config(text)
    most = parse_config('{"scenario": "hardware-minimal", "shots": 9223372036854775807}')
    assert most.shots == 2**63 - 1


def test_physics_errors_are_distinct(tmp_path, capsys, monkeypatch):
    with pytest.raises(PhysicsError, match="masses"):
        parse_config('{"scenario": "rabi", "fermion_mass": -1}')
    with pytest.raises(PhysicsError, match="inertia_cutoff"):
        parse_config('{"scenario": "rabi", "inertia_cutoff": 2}')
    with pytest.raises(PhysicsError, match="modals"):
        parse_config('{"scenario": "rabi", "modals": 2}')
    # a weight factor m_B^2, m_F^2, g^2 or g*m_F that overflows, at the key that sets it
    for key in ("coupling", "fermion_mass", "boson_mass"):
        with pytest.raises(PhysicsError, match=f"^{key}: a weight factor"):
            parse_config(json.dumps({"scenario": "rabi", key: 1e200}))
    with pytest.raises(PhysicsError, match=r"^lambdas\[1\]: a weight factor"):
        parse_config('{"scenario": "coupling-sweep", "lambdas": [1.0, 1e200]}')
    monkeypatch.setattr(scenarios, "build_h", _refuse)
    assert _run_cli(tmp_path, {"scenario": "coupling-sweep", "lambdas": [1.0, 1e200]}) == 2
    assert "config error: lambdas[1]: a weight factor" in capsys.readouterr().err


def test_coefficient_overflow_exits_2_at_parse(tmp_path, capsys, monkeypatch):
    # g^2 ~ 1.76e308 is finite, but the bound on the assembled coefficients is not: the run
    # used to warn twice and write rows of nan
    doc = {"scenario": "rabi", "coupling": 4.7e154, "evolution": {"t_max": 0.02, "dt": 0.01},
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "dump-hamiltonian"):
        done = _python("-m", "lfyukawa", command, str(path))
        assert done.returncode == 2 and done.stdout == ""
        assert "config error: coupling: the bound on the Hamiltonian's coefficients" in done.stderr
        assert "RuntimeWarning" not in done.stderr
    monkeypatch.setattr(scenarios, "build_h", _refuse)
    assert _run_cli(tmp_path, {"scenario": "coupling-sweep", "lambdas": [1.0, 4.7e154]}) == 2
    assert "config error: lambdas[1]: the bound on" in capsys.readouterr().err
    # a large coupling whose bound is finite still parses, and builds finite coefficients
    monkeypatch.setattr(scenarios, "build_h", build_h)
    path.write_text(json.dumps({"scenario": "rabi", "coupling": 1e100}))
    assert main(["dump-hamiltonian", str(path)]) == 0
    coefficients = [float(line.split()[0]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert coefficients and all(math.isfinite(c) for c in coefficients)


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


@pytest.mark.parametrize(
    "doc",
    [{"scenario": name} for name in sorted(PRESETS)]
    + [
        {"scenario": "rabi", "n_fermion_modes": 2, "n_antifermion_modes": 4, "n_boson_modes": 3,
         "modals": 7},
        {"scenario": "coupling-sweep", "initial_states": ["f2", "phi2"], "cross_species_string": False,
         "seed": 7},
        {"scenario": "pp-collision", "evolution": {"order": 2}, "include_inertias": True,
         "inertia_cutoff": 100},
    ],
    ids=[*sorted(PRESETS), "species-modals", "states-string-seed", "order-inertias"],
)
def test_echo_reparses_to_the_same_configuration(doc):
    # the manifest echo reproduces the run: it is a document once g and the tolerances are
    # dropped and the modals per boson mode are given as modals
    cfg = parse_config(json.dumps(doc))
    echo = cfg.echo()
    del echo["g"], echo["tolerances"]
    echo["modals"] = echo.pop("boson_modals")[0]
    assert parse_config(json.dumps(echo)) == cfg


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
    # n_values set the species counts, so the echo leaves out those of the default register
    assert not {"n_fermion_modes", "n_antifermion_modes", "n_boson_modes"} & set(manifest["config"])
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


def test_cli_sector_counts_before_listing(tmp_path, capsys, monkeypatch):
    # like run, sector refuses a sector above the cap before it enumerates one state
    monkeypatch.setattr(cli, "sector_indices", _refuse)
    cfg_path = tmp_path / "cfg.json"
    for n_modes, K, Q, dim in ((6, 24, 0, 9994), (15, 60, 1, 120352915)):
        cfg_path.write_text(json.dumps({"scenario": "rabi", "n_modes": n_modes}))
        assert main(["sector", str(cfg_path), "--K", str(K), "--Q", str(Q)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dim} states exceed cap {evolve.SECTOR_DIM_CAP}" in captured.err


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package first on the path."""
    src = str(Path(scenarios.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_python_m_lfyukawa_runs_the_cli():
    done = _python("-m", "lfyukawa", "list-scenarios")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[0] == "coupling-sweep"
    assert set(PRESETS) <= set(done.stdout.split())


def test_trotter_run_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs 10-20 ms to import; a bare np.unique pulls it in through np.ma.is_masked."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scenario": "hardware-minimal", "output_dir": str(tmp_path / "out")}))
    code = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from lfyukawa.cli import main\n"
        "assert main(['run', sys.argv[1]]) == 0\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    done = _python("-c", code, str(config))
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()[-2:]
    assert after == "False" or before == "True"


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
    # n_values sets the mode counts of every register, so a document may not give them beside it
    for doc, key in (({"scenario": "rabi", "n_values": [2, 3], "n_fermion_modes": 1}, "n_fermion_modes"),
                     ({"scenario": "nmax-study", "n_modes": 5}, "n_modes")):
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert f"config error: {key}: cannot be given beside n_values" in capsys.readouterr().err

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
    _, csv_text, manifest, _ = run_scenario(parse_config(json.dumps(doc)))
    assert csv_text.splitlines() == want
    # the echo and the lambda = 1 and 5 Hamiltonians of the committed run
    golden = json.loads((GOLDEN / "demo-coupling-sweep" / "coupling-sweep.manifest.json").read_text())
    for echo in (golden["config"], manifest["config"]):
        del echo["lambdas"], echo["output_dir"]
    assert manifest["config"] == golden["config"]
    hashes = golden["hamiltonian_hashes"]
    assert manifest["hamiltonian_hashes"] == [hashes[0], hashes[4]]


def test_exact_run_bytes_match_their_pins(tmp_path):
    # no golden covers an exact run, so the benchmark's pp-exact document and its 42-state
    # sector matrix are pinned by hash (eigh's rounding is that of numpy 2.4 with OpenBLAS)
    doc = {"scenario": "rabi", "n_modes": 5, "coupling": 13.315, "initial_state": "f4f5",
           "evolution": {"mode": "exact", "t_max": 0.4, "dt": 0.005}, "output_dir": str(tmp_path)}
    _, _, _, files = run_scenario(parse_config(json.dumps(doc)))
    csv_hash = hashlib.sha256(Path(files["csv"]).read_bytes()).hexdigest()
    assert csv_hash == "1ce9430ee0b3e664bc7576fe3b51b155f7aceff2613bf497d4679dd4344035bd"
    config = ModeConfig.uniform(5, 3)
    h = build_h(config, ModelParams(coupling=13.315), QubitLayout(config))
    mat = subspace_matrix(h, fock.sector_indices(config, 9, 2))
    assert hashlib.sha256(mat.tobytes()).hexdigest() == (
        "713717aa21b0f0ace14ff932b98e042fec75adb3ad462df3d77faf1d7348fd94"
    )


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


_TWO_STEPS = {"t_max": 0.02, "dt": 0.01}


@pytest.mark.parametrize("doc", [
    # self-inertias summed in closed form: no loop up to the cutoff
    {"scenario": "rabi", "include_inertias": True, "inertia_cutoff": 1_000_000_000},
    # round-off of coefficients near g^2 passes the leak and Hermiticity checks
    {"scenario": "rabi", "coupling": 1e5, "evolution": {"mode": "exact", **_TWO_STEPS}},
    {"scenario": "rabi", "coupling": 1e8, "evolution": {"mode": "exact", **_TWO_STEPS}},
    {"scenario": "rabi", "coupling": 1e4, "evolution": {"mode": "trotter", **_TWO_STEPS}},
], ids=["inertia-cutoff-1e9", "exact-coupling-1e5", "exact-coupling-1e8", "trotter-coupling-1e4"])
def test_large_cutoffs_and_couplings_run(tmp_path, doc):
    assert _run_cli(tmp_path, {**doc, "output_dir": str(tmp_path / "out")}) == 0


def test_build_h_and_cli_refuse_a_sector_leaving_part(tmp_path, capsys, monkeypatch):
    # 1e-6 X on fermion mode 1's qubit moves K and Q by 1: 1e3 times the 1e-9 tolerance
    build_part = hamiltonian._build_part

    def leaky(part, config, params, lad):
        op = build_part(part, config, params, lad)
        if part != "HV":
            return op
        n = lad.layout.total_qubits
        qubit, _ = lad.layout.block("fermion", 1)
        return op + PauliSum.from_label("I" * qubit + "X" + "I" * (n - 1 - qubit), 1e-6)

    monkeypatch.setattr(hamiltonian, "_build_part", leaky)
    config = ModeConfig.uniform(2, 3)
    with pytest.raises(ValueError, match=r"moves charge K: .* up to 1\.000e-06, 1e\+03 times its tolerance 1\.000e-09"):
        build_h(config, ModelParams(), QubitLayout(config))
    build_h(config, ModelParams(), QubitLayout(config), parts=("HM", "HS"))
    for mode in ("exact", "trotter"):
        doc = {"scenario": "rabi", "evolution": {"mode": mode, **_TWO_STEPS}, "output_dir": str(tmp_path / mode)}
        assert _run_cli(tmp_path, doc) == 1
        assert "error: operator moves charge K" in capsys.readouterr().err
        assert not (tmp_path / mode).exists()


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
        # rounded to 12 decimals, the times would all read 0, or read inf
        (
            {"scenario": "rabi", "evolution": {"t_max": 5e-13, "dt": 1e-13}},
            "evolution: the 6 observation times 0, dt, ..., t_max, rounded to 12 decimals,",
        ),
        (
            {"scenario": "rabi", "evolution": {"t_max": 1e300, "dt": 1e299}},
            "evolution: the 11 observation times 0, dt, ..., t_max, rounded to 12 decimals,",
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
    # parsing counts sectors and enumerates none, in exact and Trotter runs alike
    monkeypatch.setattr(scenarios, "build_h", _refuse)
    monkeypatch.setattr(scenarios, "sector_indices", _refuse)
    doc = {"scenario": "rabi", "n_modes": 6, "initial_state": "000001 000001 00 00 00 00 00 10"}
    assert _run_cli(tmp_path, doc) == 2  # K = 24, Q = 0: 9,994 states
    assert "initial_state: sector dimension 9994" in capsys.readouterr().err
    wide = " ".join(["0" * 14 + "1", "0" * 15] + ["00"] * 14 + ["11"])  # 60 qubits, (K, Q) = (60, 1)
    assert _run_cli(tmp_path, {"scenario": "rabi", "n_modes": 15, "initial_state": wide}) == 2
    assert "initial_state: sector dimension 120352915" in capsys.readouterr().err
    parse_config('{"scenario": "coupling-sweep"}')


def test_boson_ladder_and_count_table_guards_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "_physical_memory", lambda: 8 << 30)
    for name in ("sector_dim", "sector_indices", "build_h"):
        monkeypatch.setattr(scenarios, name, _refuse)
    # a 61-qubit boson block whose ladder holds 61 * 2**61 strings
    doc = {"scenario": "rabi", "n_modes": 1, "modals": 2**61 - 1, "initial_state": "1 0 " + "0" * 61}
    assert _run_cli(tmp_path, doc) == 2
    assert "config error: modals: the ladder of a 61-qubit boson block" in capsys.readouterr().err
    # a block wider than any register is refused before its ladder is estimated
    assert _run_cli(tmp_path, {"scenario": "rabi", "modals": 2**1100 - 1}) == 2
    message = "modals: a 1100-qubit boson block exceeds the 63-qubit limit"
    assert f"config error: {message}" in capsys.readouterr().err
    # two 23-qubit blocks: the ladders fit, the count table of a start at the top K does not
    wide = {"scenario": "rabi", "n_modes": 2, "modals": 2**23 - 1}
    top = dict(wide, initial_state="00 00 " + "1" * 23 + " " + "1" * 23)  # K = 25165821
    assert _run_cli(tmp_path, top) == 2
    message = "sector K=25165821 Q=0 needs a count table of about 51.3 GB"
    assert f"config error: initial_state: {message}" in capsys.readouterr().err
    # sector parses the register, whose start f2 is counted, then refuses --K before counting it
    monkeypatch.setattr(scenarios, "sector_dim", fock.sector_dim)
    monkeypatch.setattr(cli, "sector_dim", _refuse)
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps(wide))
    assert main(["sector", str(cfg_path), "--K", "25165821", "--Q", "0"]) == 2
    assert f"config error: --K: {message}" in capsys.readouterr().err


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


def test_wide_boson_trotter_plan_splits_into_blocks(monkeypatch):
    # rabi at modals 7 (15 qubits) at order 2: some of its flip runs carry more than
    # _SIG_MASK_CAP outside Z masks and compile as the blocks of their halves, so the
    # plan is phase vectors and coset blocks only
    doc = {"scenario": "rabi", "modals": 7,
           "evolution": {"mode": "trotter", "order": 2, "t_max": 0.2, "dt": 0.02}}
    cfg = parse_config(json.dumps(doc))
    config = cfg.mode_config
    h = build_h(config, cfg.params, QubitLayout(config), cfg.parts, cfg.cross_species_string)
    plan = evolve.make_plan(h, cfg.t_max, cfg.n_steps, cfg.order)
    split, split_runs = evolve._compile_halves, []

    def compile_halves(run, *args):
        split_runs.append(run)
        return split(run, *args)

    monkeypatch.setattr(evolve, "_compile_halves", compile_halves)
    segments = evolve._compile_plan(plan)
    assert plan.n_qubits == 15 and split_runs
    assert {s[0] for s in segments} == {"diag", "blk"}


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
