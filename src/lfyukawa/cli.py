"""Command-line experiment runner.

Subcommands: ``run`` executes a scenario from a JSON configuration document,
``dump-hamiltonian`` prints the assembled operator in the text dump format,
``sector`` lists the basis states of one charge sector and ``list-scenarios``
shows the available presets.  Exit codes: 0 success, 2 configuration error,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .fock import QubitLayout, enumerate_sector
from .hamiltonian import build_h
from .pauli import dumps
from .scenarios import PRESETS, ConfigError, parse_config, run_scenario

__all__ = ["main"]


def _load_config(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    records, _, _, files = run_scenario(cfg)
    print(f"{cfg.scenario}: {len(records)} records")
    for kind, path in files.items():
        print(f"  {kind}: {path}")
    return 0


def _cmd_dump(args) -> int:
    cfg = _load_config(args.config)
    layout = QubitLayout(cfg.mode_config)
    h = build_h(cfg.mode_config, cfg.params, layout, cfg.parts, cfg.cross_species_string)
    header = {
        **asdict(cfg.params),
        "g": cfg.params.g,
        "parts": list(cfg.parts),
        "qubits": layout.total_qubits,
        "terms": len(h),
    }
    print("# " + json.dumps(header, sort_keys=True))
    text = dumps(h)
    if text:
        print(text)
    return 0


def _cmd_sector(args) -> int:
    cfg = _load_config(args.config)
    layout = QubitLayout(cfg.mode_config)
    states = enumerate_sector(cfg.mode_config, args.K, args.Q)
    print(f"sector K={args.K} Q={args.Q}: {len(states)} states")
    for state in states:
        print(f"  {layout.format_bits(layout.encode(state))}")
    return 0


def _cmd_list(_args) -> int:
    for name in sorted(PRESETS):
        print(f"{name:18s} {PRESETS[name]['description']}")
    return 0


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfyukawa",
        description="Light-front Yukawa model simulator on a qubit register.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a JSON config")
    p_run.add_argument("config", help="path to the JSON configuration document")
    p_run.set_defaults(func=_cmd_run)

    p_dump = sub.add_parser("dump-hamiltonian", help="print the assembled Pauli sum")
    p_dump.add_argument("config", help="path to the JSON configuration document")
    p_dump.set_defaults(func=_cmd_dump)

    p_sector = sub.add_parser("sector", help="list the basis states of a charge sector")
    p_sector.add_argument("config", help="path to the JSON configuration document")
    p_sector.add_argument("--K", type=_non_negative, required=True, help="harmonic resolution")
    p_sector.add_argument("--Q", type=int, required=True, help="baryon number")
    p_sector.set_defaults(func=_cmd_sector)

    p_list = sub.add_parser("list-scenarios", help="show the available presets")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failures are distinct from config errors
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
