"""Self-tests of the benchmark harness; about 15 s.

    python3 bench/selftest.py

1. A traced pp-exact execution yields a span tree that nests, and the self
   times of its spans add up to the root span's duration.
2. The CSV gate passes each committed golden CSV against itself and fails it
   once one reference value is perturbed by 1e-8.
3. A harness run of pp-exact whose oracle reference is perturbed by 1e-8
   counts the execution as failed and exits non-zero.

Exits 0 when all three hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import spans
import workloads


def check_span_tree() -> None:
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    try:
        result = run.Harness("pp-exact", workloads.REFERENCE_SEED, work, time.monotonic()).spawn(trace=True)
    finally:
        shutil.rmtree(work)
    tree = result["trace"]["spans"]
    roots = [s for s in tree if s["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == spans.ROOT_SPAN, roots
    assert len({s["run"] for s in tree}) == 1
    by_id = {s["id"]: s for s in tree}
    children: dict[int, list[dict]] = {}
    for s in tree:
        assert s["start"] <= s["end"], s
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (parent, s)
            children.setdefault(s["parent"], []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s["start"])
        for a, b in zip(siblings, siblings[1:]):
            assert a["end"] <= b["start"], (a, b)
    own = spans.self_times(tree)
    assert min(own.values()) >= -1e-9, min(own.values())
    root_s = roots[0]["end"] - roots[0]["start"]
    assert abs(sum(own.values()) - root_s) <= 1e-9 * max(1.0, root_s), (sum(own.values()), root_s)
    print(f"span tree: {len(tree)} spans nest, self times sum to the root's {root_s:.3f} s")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"]}
    computed = set(spans.layer_metrics(result["trace"])) | {"trace.overhead_s"}
    assert named == computed, named ^ computed


def check_csv_gates() -> None:
    name, keys = "coupling-sweep.csv", ("lambda", "state", "time")
    header, rows = workloads.load_reference(name)
    workloads.compare_rows((header, rows), (header, rows), keys)
    perturbed = [dict(r) for r in rows]
    perturbed[-1]["survival"] = repr(float(perturbed[-1]["survival"]) + 1e-8)
    try:
        workloads.compare_rows((header, rows), (header, perturbed), keys)
    except workloads.GateError as err:
        print(f"CSV gate on {name}: perturbed reference rejected ({err})")
    else:
        raise AssertionError(f"a 1e-8 perturbation of {name} passed the gate")


def check_failed_run_exits_nonzero() -> None:
    exact = workloads.exact_survival_reference
    workloads.exact_survival_reference = lambda times: exact(times) + 1e-8
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "pp-exact", "--seconds", "1"])
    finally:
        workloads.exact_survival_reference = exact
    report = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0, code
    assert report["failed"] >= 1 and not report["correct"], report
    print(f"perturbed oracle: exit code {code}, {report['failed']}/{report['attempted']} executions failed")


def main() -> int:
    check_span_tree()
    check_csv_gates()
    check_failed_run_exits_nonzero()
    print("harness self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
