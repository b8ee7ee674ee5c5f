"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps each public lfyukawa function at the module attribute its
caller looks it up through (``lfyukawa.scenarios.build_h``,
``lfyukawa.evolve.subspace_matrix``, ...), so no file under ``src/`` is
edited.  Every call becomes one span: name, start, end, parent span and run
id.  Spans and the counts recorded at the same boundaries stay in memory and
are handed to the harness when the workload ends.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so self times of all
spans add up to the root span's duration.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from contextlib import contextmanager

ROOT_SPAN = "workload"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.facts: dict[str, list] = {}
        self.trotter_calls: list[dict] = []
        self.evolve_starts: list[tuple[int, int]] = []  # (psi0 basis index, state length)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def note(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``hook(arguments)`` runs before the call, outside the span, may edit
        the bound arguments and may return ``after(span, result)``.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            after = hook(bound.arguments) if hook is not None else None
            with self.span(name) as rec:
                result = fn(*bound.args, **bound.kwargs)
            if after is not None:
                after(rec, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- hooks at the layer boundaries -----------------------------------------

    def _count(self, key: str, measure):
        def hook(arguments):
            return lambda rec, result: self.note(key, measure(arguments, result))

        return hook

    def _trotter(self, arguments):
        plan, inner = arguments["plan"], arguments.get("observer")
        ticks: list[float] = []

        def observer(step, psi):
            ticks.append(time.perf_counter())
            if inner is not None:
                inner(step, psi)

        arguments["observer"] = observer
        call = {"plan": plan, "ticks": ticks}
        self.trotter_calls.append(call)
        self._note_start(arguments["psi0"])
        return lambda rec, result: call.update(span=rec["id"])

    def _exact(self, arguments):
        self._note_start(arguments["psi0"])
        return lambda rec, result: self.note("evolve.exact_evolve.out_bytes", int(result.nbytes))

    def _note_start(self, psi0) -> None:
        import numpy as np

        self.evolve_starts.append((int(np.argmax(np.abs(psi0))), int(psi0.size)))

    def install(self) -> None:
        from lfyukawa import cli, evolve, scenarios

        count = self._count
        self.wrap(
            cli, "run_scenario", "scenarios.run_scenario",
            count("scenarios.output_bytes", lambda a, r: sum(os.path.getsize(p) for p in r[3].values())),
        )
        self.wrap(scenarios, "build_h", "hamiltonian.build_h", count("hamiltonian.terms", lambda a, r: len(r)))
        self.wrap(scenarios, "make_plan", "evolve.make_plan")
        self.wrap(scenarios, "trotter_evolve", "evolve.trotter_evolve", self._trotter)
        self.wrap(scenarios, "exact_evolve", "evolve.exact_evolve", self._exact)
        self.wrap(scenarios, "sample_counts", "evolve.sample_counts")
        for owner in (scenarios, evolve):
            self.wrap(owner, "enumerate_sector", "fock.enumerate_sector", count("fock.sector_dim", lambda a, r: len(r)))
        self.wrap(
            evolve, "subspace_matrix", "pauli.subspace_matrix",
            count("pauli.subspace_matrix.elements", lambda a, r: int(r.size)),
        )
        self.wrap(scenarios, "dumps", "pauli.dumps")
        for attr in ("survival", "transition_prob", "leakage"):
            self.wrap(scenarios, attr, f"diagnostics.{attr}")
        self.wrap(
            scenarios, "records_to_csv", "diagnostics.records_to_csv",
            count("diagnostics.records", lambda a, r: len(a["records"])),
        )

    def report(self, mode_config) -> dict:
        """JSON-ready spans and counts; call after uninstall, outside the timed region."""
        from lfyukawa.evolve import plan_cost
        from lfyukawa.fock import QubitLayout, enumerate_sector, k_of, q_of

        layout = QubitLayout(mode_config)
        plan_ids: dict[int, int] = {}
        trotter = []
        for call in self.trotter_calls:
            plan = call["plan"]
            trotter.append({
                "plan": plan_ids.setdefault(id(plan), len(plan_ids)),
                "span": call["span"],
                "steps": plan.n_steps,
                "rotations": plan_cost(plan).rotations_total,
                "ticks": call["ticks"],
            })
        dims = []
        for index, length in self.evolve_starts:
            state = layout.decode(index)
            dims.append([len(enumerate_sector(mode_config, k_of(state), q_of(state))), length])
        return {"spans": self.spans, "facts": self.facts, "trotter": trotter, "evolve_dims": dims}


# -- per-layer metrics (harness process) -------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution.

    Times are self times summed over calls unless named otherwise; a layer
    the workload does not reach reports 0.
    """
    spans, facts, trotter = report["spans"], report["facts"], report["trotter"]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    root = next(s for s in spans if s["parent"] is None)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def self_s(prefix):
        return sum(own[s["id"]] for s in spans if s["name"].startswith(prefix))

    def total(key):
        return sum(facts.get(key, []))

    def duration(span_id):
        return by_id[span_id]["end"] - by_id[span_id]["start"]

    seen_plans: set[int] = set()
    first_calls, reuse_calls = [], []
    for call in trotter:
        (reuse_calls if call["plan"] in seen_plans else first_calls).append(duration(call["span"]))
        seen_plans.add(call["plan"])
    gaps = [b - a for call in trotter for a, b in zip(call["ticks"], call["ticks"][1:])]
    steps = sum(call["steps"] for call in trotter)
    rotations = sum(call["rotations"] for call in trotter)
    useful = sum(d for d, _ in report["evolve_dims"])
    evolved = sum(n for _, n in report["evolve_dims"])
    diag_starts = [s["start"] for s in spans if s["name"].startswith("diagnostics.")]

    return {
        "evolve.trotter_evolve.calls": calls("evolve.trotter_evolve"),
        "evolve.trotter_evolve.self_s": self_s("evolve.trotter_evolve"),
        "evolve.steps": steps,
        "evolve.step_s": _median(gaps),
        "evolve.rotations_per_step": rotations / steps if steps else 0,
        "evolve.useful_amp_ratio": useful / evolved if evolved else 0.0,
        "evolve.make_plan.calls": calls("evolve.make_plan"),
        "evolve.make_plan.self_s": self_s("evolve.make_plan"),
        "evolve.first_call_s": _median(first_calls),
        "evolve.reuse_call_s": _median(reuse_calls),
        "evolve.exact_evolve.calls": calls("evolve.exact_evolve"),
        "evolve.exact_evolve.self_s": self_s("evolve.exact_evolve"),
        "evolve.exact_evolve.out_mb": total("evolve.exact_evolve.out_bytes") / 1e6,
        "evolve.sample_counts.calls": calls("evolve.sample_counts"),
        "evolve.sample_counts.self_s": self_s("evolve.sample_counts"),
        "pauli.subspace_matrix.calls": calls("pauli.subspace_matrix"),
        "pauli.subspace_matrix.self_s": self_s("pauli.subspace_matrix"),
        "pauli.subspace_matrix.elements": total("pauli.subspace_matrix.elements"),
        "pauli.dumps.self_s": self_s("pauli.dumps"),
        "hamiltonian.build_h.calls": calls("hamiltonian.build_h"),
        "hamiltonian.build_h.self_s": self_s("hamiltonian.build_h"),
        "hamiltonian.terms": total("hamiltonian.terms"),
        "fock.enumerate_sector.calls": calls("fock.enumerate_sector"),
        "fock.enumerate_sector.self_s": self_s("fock.enumerate_sector"),
        "fock.sector_dim": total("fock.sector_dim"),
        "diagnostics.self_s": self_s("diagnostics."),
        "diagnostics.leakage.self_s": self_s("diagnostics.leakage"),
        "diagnostics.records": total("diagnostics.records"),
        "scenarios.run_scenario.self_s": self_s("scenarios.run_scenario"),
        "scenarios.output_bytes": total("scenarios.output_bytes"),
        "trace.first_record_s": min(diag_starts) - root["start"] if diag_starts else 0.0,
    }
