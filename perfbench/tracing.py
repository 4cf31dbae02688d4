"""Span recording for the benchmark's traced runs.

Spans are recorded from the benchmark's side only. For the length of one op,
each public function of a wearsched module is replaced, at the name its caller
looks it up under (``wearsched.cli.build_mdp``, ``wearsched.solvers.q_backup``,
...), by a wrapper that records name, start, end, parent span and op id, plus
a few counts read from the call's arguments and result. The package itself is
not edited, and untraced ops run the original functions.

Spans stay in memory; ``write_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


def _file_bytes(args, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _kernel_bytes(args, mdp) -> dict:
    arrays = (getattr(mdp, f.name) for f in dataclasses.fields(mdp))
    return {"bytes": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))}


def _solve_counts(args, res) -> dict:
    return {
        "iterations": res.iterations,
        "skipped": res.skipped_q_evals or 0,
        "states": args[0].n_states,
    }


def _violations(args, report) -> dict:
    return {"violations": report.count()}


def _epochs(args, stats) -> dict:
    return {"epochs": stats.epochs}


# (module, attribute the caller looks up, span name, counts taken from the call)
TARGETS = [
    ("wearsched.cli", "build_mdp", "mdp.build_mdp", _kernel_bytes),
    ("wearsched.cli", "stability_report", "linear_model.stability_report", None),
    ("wearsched.cli", "rvi_solve", "solvers.rvi_solve", _solve_counts),
    ("wearsched.cli", "structured_policy_iteration", "solvers.structured_policy_iteration", _solve_counts),
    ("wearsched.cli", "threshold_heuristic", "solvers.threshold_heuristic", _solve_counts),
    ("wearsched.cli", "q_backup", "solvers.q_backup", None),
    ("wearsched.solvers", "q_backup", "solvers.q_backup", None),
    ("wearsched.solvers", "policy_evaluate", "solvers.policy_evaluate", None),
    ("wearsched.cli", "simulate", "sim.simulate", _epochs),
    ("wearsched.cli", "check_value_monotone", "structure.check_value_monotone", _violations),
    ("wearsched.cli", "check_policy_monotone", "structure.check_policy_monotone", _violations),
    ("wearsched.cli", "check_submodular", "structure.check_submodular", _violations),
    ("wearsched.cli", "threshold_frontier", "structure.threshold_frontier", None),
    ("wearsched.cli", "read_policy_csv", "artifacts.read_policy_csv", _file_bytes),
    ("wearsched.cli", "read_value_csv", "artifacts.read_value_csv", _file_bytes),
    ("wearsched.cli", "read_q_csv", "artifacts.read_q_csv", _file_bytes),
    ("wearsched.cli", "write_policy_csv", "artifacts.write_policy_csv", _file_bytes),
    ("wearsched.cli", "write_value_csv", "artifacts.write_value_csv", _file_bytes),
    ("wearsched.cli", "write_q_csv", "artifacts.write_q_csv", _file_bytes),
    # JSON summaries carry timings, so their size varies by a few bytes; the
    # byte count covers the CSV grids only and repeats exactly.
    ("wearsched.cli", "write_json", "artifacts.write_json", None),
]


class Tracer:
    """Collects spans for the ops run inside ``recording``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = Span(sid, name, start, end, parent, self._op, {})
                self.spans.append(span)
            if counts:
                span.attrs = counts(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, op: int):
        """Install the wrappers for one op and remove them afterwards."""
        originals = []
        try:
            for module, attr, name, counts in TARGETS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, counts))
            self._op = op
            yield
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)
            self._op = -1

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def _check_nesting(spans: list[Span], by_id: dict[int, Span], child_time: dict[int, float]) -> None:
    """Children lie inside their parent and cover at most its duration, so a
    parent's self time plus its children's time is its wall time."""
    for s in spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end:
            raise RuntimeError(f"span {s.name} lies outside its parent {p.name}")
    for sid, covered in child_time.items():
        if covered > by_id[sid].dur * (1 + 1e-9) + 1e-9:
            raise RuntimeError(f"children of span {by_id[sid].name} overlap")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans; a layer the op does not
    reach reads 0."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.dur
    _check_nesting(spans, by_id, child_time)

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def dur(prefix):
        return sum(s.dur for s in named(prefix))

    def self_time(prefix):
        return sum(s.dur - child_time[s.id] for s in named(prefix))

    def attr(prefix, key):
        return sum(s.attrs.get(key, 0) for s in named(prefix))

    spi = named("solvers.structured_policy_iteration")
    spi_candidates = sum(3 * s.attrs.get("states", 0) * s.attrs.get("iterations", 0) for s in spi)
    sim_s = dur("sim.simulate")
    kernels = [s.attrs.get("bytes", 0) for s in named("mdp.build_mdp")]
    return {
        "cli.self_s": sum(s.dur - child_time[s.id] for s in spans if s.parent is None),
        "cli.solve_s": dur("cli.solve"),
        "cli.verify_s": dur("cli.verify"),
        "cli.simulate_s": dur("cli.simulate"),
        "cli.sweep_s": dur("cli.sweep"),
        "mdp.build_mdp_s": dur("mdp.build_mdp"),
        "mdp.kernel_bytes": max(kernels, default=0),
        "solvers.rvi_s": dur("solvers.rvi_solve"),
        "solvers.rvi_iterations": attr("solvers.rvi_solve", "iterations"),
        "solvers.rvi_self_s": self_time("solvers.rvi_solve"),
        "solvers.q_backup_calls": len(named("solvers.q_backup")),
        "solvers.q_backup_s": dur("solvers.q_backup"),
        "solvers.spi_s": dur("solvers.structured_policy_iteration"),
        "solvers.pi_sweeps": attr("solvers.structured_policy_iteration", "iterations"),
        "solvers.policy_evaluate_calls": len(named("solvers.policy_evaluate")),
        "solvers.policy_evaluate_s": dur("solvers.policy_evaluate"),
        "solvers.spi_improve_s": self_time("solvers.structured_policy_iteration"),
        "solvers.skipped_q_evals": attr("solvers.structured_policy_iteration", "skipped"),
        "solvers.pruned_fraction": (
            attr("solvers.structured_policy_iteration", "skipped") / spi_candidates
            if spi_candidates
            else 0.0
        ),
        "solvers.threshold_heuristic_s": dur("solvers.threshold_heuristic"),
        "solvers.threshold_evaluations": sum(
            1
            for s in named("solvers.policy_evaluate")
            if s.parent is not None and by_id[s.parent].name == "solvers.threshold_heuristic"
        ),
        "solvers.threshold_self_s": self_time("solvers.threshold_heuristic"),
        "structure.checks_s": dur("structure."),
        "structure.violations": attr("structure.", "violations"),
        "sim.simulate_s": sim_s,
        "sim.epochs_per_s": attr("sim.simulate", "epochs") / sim_s if sim_s else 0.0,
        "artifacts.write_s": dur("artifacts.write_"),
        "artifacts.bytes_written": attr("artifacts.write_", "bytes"),
        "artifacts.read_s": dur("artifacts.read_"),
        "artifacts.bytes_read": attr("artifacts.read_", "bytes"),
    }
