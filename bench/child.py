"""One execution of one workload in a fresh process.

Started by run.py, never imported.  It measures

- set-up: from the spawn time stamp the harness passes in (the monotonic
  clock is shared by all processes of the machine) until lfyukawa is imported
  and the configuration document is parsed and validated;
- the run: from there until the workload's outputs are written;
- peak resident memory of this process.

and writes them, with the spans of a traced run, to the result file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def run_cli(config_path: str) -> None:
    """The timed body: what ``lfyukawa run <config>`` does after start-up."""
    from lfyukawa import cli

    code = cli.main(["run", config_path])
    if code != 0:
        raise RuntimeError(f"lfyukawa run exited with code {code}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from lfyukawa.scenarios import parse_config

    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    t_setup = time.monotonic()
    result = {"setup_s": t_setup - args.spawned_at}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import ROOT_SPAN, Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
            with tracer.span(ROOT_SPAN):
                run_cli(args.config)
            tracer.uninstall()
        else:
            run_cli(args.config)
        result["run_s"] = time.monotonic() - t_setup
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            result["trace"] = tracer.report(cfg.mode_config)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
