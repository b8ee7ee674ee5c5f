"""lfyukawa benchmark harness.

    python3 bench/run.py --workload pp-exact --seed 11 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) for about ``--seconds``
seconds, each execution in a fresh child process started strictly after the
previous one ended, and gates every execution on an independent correctness
check run here, outside its timed region.  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json, times scaled to the reference
speed of calibration.py's kernel, with ``--trace 1`` the per-layer
metrics from traced executions alternating with untraced ones.  The last line
of standard output is one JSON object; the lines before it repeat the
numbers for people.  Exit codes: 0 all executions passed, 1 some failed, 2 the
program could not be set up at all (no result printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# Probes before every execution: pairs of a calibration run (calibration.py)
# and a set-up-only execution, at least one pair and together about a fifth
# of the previous execution's time, so that their samples spread over the
# whole run like the run_s samples do.
PROBE_PAIRS = 1
PROBE_SHARE = 0.2
HARD_LIMIT_S = 170.0  # no execution is started or left running past this
BLAS_THREADS = "1"  # one BLAS thread: a co-tenant on a small shared machine moves the numbers less
BLAS_ENV = {name: BLAS_THREADS for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def high_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Harness:
    def __init__(self, workload: str, seed: int, work: Path, started: float):
        self.name = workload
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = started
        self.count = 0

    def time_left(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))

    def calibrate(self) -> float:
        """The calibration kernel's time in a fresh process; raises RuntimeError if it fails."""
        timeout = self.time_left()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "calibration.py")],
                cwd=self.work, env=dict(os.environ, **BLAS_ENV), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"calibration killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise RuntimeError(f"calibration: exit code {proc.returncode}\n{proc.stderr.strip()}")
        return float(proc.stdout)

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One child execution; returns its result or raises RuntimeError."""
        self.count += 1
        run_id = f"{self.name}-seed{self.seed}-{self.count:03d}"
        here = self.work / f"{self.count:03d}"
        here.mkdir()
        config = here / "config.json"
        # Relative to the child's working directory, so the manifest (and
        # scenarios.output_bytes) does not depend on where the checkout lives.
        config.write_text(json.dumps(self.workload.config(self.seed, "out")))
        result_path = here / "result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env.update(BLAS_ENV, TMPDIR=str(here))
        timeout = self.time_left()
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--config", str(config), "--result", str(result_path),
            "--spawned-at", repr(spawned_at), "--run-id", run_id,
        ]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        try:
            proc = subprocess.run(cmd, cwd=here, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{run_id}: killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise RuntimeError(f"{run_id}: exit code {proc.returncode}\n{tail}")
        result = json.loads(result_path.read_text())
        result["run_id"] = run_id
        result["out_dir"] = str(here / "out")
        return result

    def execute(self, trace: bool) -> tuple[dict | None, str | None]:
        """Spawn and gate one execution: (result or None, failure or None)."""
        try:
            result = self.spawn(trace=trace)
        except (RuntimeError, OSError, ValueError) as err:
            return None, str(err)
        try:
            self.workload.check(result["out_dir"], self.seed)
        except (workloads.GateError, OSError, ValueError, KeyError) as err:
            return result, f"{result['run_id']}: correctness gate: {err}"
        finally:
            shutil.rmtree(result["out_dir"], ignore_errors=True)
        return result, None


def run(args, spec: dict) -> int:
    if not (ROOT / "src" / "lfyukawa" / "__init__.py").is_file():
        print(f"lfyukawa sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        harness = Harness(args.workload, args.seed, work, started)
        warmups = harness.workload.warmups
        setups, calibrations = [], []
        kinds = (False, True) if args.trace else (False,)
        # (timed, traced, result, failure); warm-up executions are gated, not timed.
        executions: list[tuple[bool, bool, dict | None, str | None]] = []
        longest = last = 0.0
        while True:
            t = time.monotonic()
            try:
                for pair in itertools.count():
                    if pair >= PROBE_PAIRS and time.monotonic() - t >= PROBE_SHARE * last:
                        break
                    calibrations.append(harness.calibrate())
                    setups.append(harness.spawn(setup_only=True)["setup_s"])
            except (RuntimeError, OSError, ValueError) as err:
                print(f"set-up failed: {err}", file=sys.stderr)
                return 2
            timed = len(executions) >= warmups
            traced = timed and kinds[(len(executions) - warmups) % len(kinds)]
            t_execution = time.monotonic()
            result, failure = harness.execute(traced)
            last = time.monotonic() - t_execution
            longest = max(longest, time.monotonic() - t)
            executions.append((timed, traced, result, failure))
            if failure:
                print(failure, file=sys.stderr)
            elapsed = time.monotonic() - started
            if elapsed + longest > HARD_LIMIT_S:
                break
            if len(executions) >= warmups + len(kinds) and elapsed + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(executions)
    failed = sum(1 for *_, failure in executions if failure)
    # Only executions that passed their gate are measured: time to a correct solution.
    plain = [r for timed, traced, r, failure in executions if timed and not failure and not traced]
    traced_runs = [r for timed, traced, r, failure in executions if timed and not failure and traced]
    if not plain or (args.trace and not traced_runs):
        print("no execution passed its correctness gate", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    setups += [r["setup_s"] for r in plain]
    run_s = [r["run_s"] for r in plain]
    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} executions, {failed} failed")

    # Times are reported at the reference speed of the calibration kernel.
    speed = calibration.REFERENCE_S / statistics.median(calibrations)
    print(f"calibration: median {statistics.median(calibrations):.6g} s (n={len(calibrations)}), "
          f"times at reference speed = wall times x {speed:.6g}")

    if not args.trace:
        samples = {  # values, scale
            "setup_s": (setups, speed),
            "run_s": (run_s, speed),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in plain], 1.0),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            values, scale = samples[m["name"]]
            values = [v * scale for v in values]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
            high = high_percentile(values)
            tail = f", p{high[0]:.0f} {high[1]:.6g}" if high else ", no percentile with ten samples beyond it"
            wall = f", wall median {statistics.median(values) / scale:.6g}" if scale != 1.0 else ""
            print(f"  {m['name']:<12} median {statistics.median(values):.6g} {m['unit']} (n={len(values)}{tail}{wall})")
        print(f"  {'fail_ratio':<12} {failed / attempted:.6g} ({failed}/{attempted})")
    else:
        per_run = [spans.layer_metrics(r["trace"]) for r in traced_runs]
        overhead = statistics.median(r["run_s"] for r in traced_runs) - statistics.median(run_s)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(p[m["name"]] for p in per_run)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<32} {value:.6g} {m['unit']}")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "machine": info,
            "executions": [{"run": r["run_id"], "run_s": r["run_s"], **r["trace"]} for r in traced_runs],
        }))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    # On SIGTERM, unwind like on an exception: subprocess.run kills and reaps
    # the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
