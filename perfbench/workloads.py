"""The benchmark's workloads, the CLI calls one op of each makes, and the
correctness gate every op passes.

Every op runs through ``wearsched.cli.main(argv)`` in the benchmark's own
process, with stdout captured and parsed. The gate compares what an op
produced with the reference answers in ``references.json``:

- exit code 0 and stdout that parses as JSON;
- lambda* within ``LAMBDA_RTOL`` relative of the reference;
- the SHA-256 of every ``policy.csv`` equal to the reference;
- ``verify`` verdicts and violation counts equal to the reference, known
  violations included;
- every simulated per-epoch cost within ``SIM_SE_LIMIT`` batch-means
  standard errors of the reference lambda*.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import wearsched.cli as cli

CONFIG = "configs/benchmark-marginal.yaml"  # beta=1.0: lambda* has converged in the grid
LAMBDA_RTOL = 1e-8
SIM_SE_LIMIT = 5.0
SWEEP_BETAS = "0.9,0.95,1.0,1.05"
POINT_KEY = "1"  # the sweep point the traced in-process solve repeats (beta=1.0)
SIM_REPLICATIONS = 2
FULL_SIM_EPOCHS = 2_000_000
# The smallest grid with headroom for the config's wear (tau_d=6) and
# renewal downtime (delta_r=15): at least 7 channel ages and 16 information ages.
TINY_GRID = 16
TINY_SIM_EPOCHS = 20_000
PREP_TIMEOUT_S = 150


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve", "validate" or "sweep"
    method: str  # solver.method of every solve the workload makes
    grid: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rvi-marginal-160", "solve", "rvi", 160),
        Workload("spi-marginal-320", "solve", "spi", 320),
        Workload("validate-marginal-320", "validate", "spi", 320),
        Workload("sweep-threshold-80", "sweep", "threshold-heuristic", 80),
    )
}


@dataclasses.dataclass
class OpResult:
    stage: str  # "prep", "op" or "point"
    wall_s: float  # time inside the CLI calls only
    observed: dict
    problems: list[str]
    extra: dict = dataclasses.field(default_factory=dict)
    metrics: dict | None = None  # per-layer metrics, for a traced op


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def compare(observed, ref, path: str = "") -> list[str]:
    """Differences between observed values and the reference: lambdas within
    ``LAMBDA_RTOL`` relative, everything else exactly."""
    if isinstance(ref, dict):
        if not isinstance(observed, dict) or observed.keys() != ref.keys():
            got = sorted(observed) if isinstance(observed, dict) else observed
            return [f"{path or 'output'}: got {got!r}, reference has {sorted(ref)!r}"]
        return [p for k in ref for p in compare(observed[k], ref[k], f"{path}.{k}".lstrip("."))]
    if path.endswith("lambda") and isinstance(ref, float) and isinstance(observed, float):
        ok = abs(observed - ref) <= LAMBDA_RTOL * abs(ref)
    else:
        ok = observed == ref
    return [] if ok else [f"{path}: got {observed!r}, reference {ref!r}"]


def check(stage: str, observed: dict, ref: dict) -> list[str]:
    """Gate one op's observed values against a workload's reference."""
    if stage == "prep":
        return compare(observed, ref["prep"])
    if stage == "point":
        return compare(observed, ref["op"][POINT_KEY], f"point {POINT_KEY}")
    sims = observed.get("simulate")
    problems = compare({k: v for k, v in observed.items() if k != "simulate"}, ref["op"])
    if sims is not None:
        lam = ref["prep"]["lambda"]
        if len(sims) != SIM_REPLICATIONS:
            problems.append(f"simulate: {len(sims)} replications, expected {SIM_REPLICATIONS}")
        for r in sims:
            gap = abs(r["per_epoch_avg_cost"] - lam)
            if not gap <= SIM_SE_LIMIT * r["std_error"]:
                problems.append(
                    f"simulate stream {r['stream']}: per-epoch cost {r['per_epoch_avg_cost']!r} is "
                    f"{gap / r['std_error']:.2f} standard errors from lambda* {lam!r}"
                )
    return problems


def corruptions(ref):
    """Yield (path, copy of ``ref`` with that one leaf changed) for every leaf."""
    if isinstance(ref, dict):
        for k, v in ref.items():
            for path, bad in corruptions(v):
                out = dict(ref)
                out[k] = bad
                yield f"{k}.{path}".rstrip("."), out
    elif isinstance(ref, list):
        for i, v in enumerate(ref):
            for path, bad in corruptions(v):
                out = list(ref)
                out[i] = bad
                yield f"{i}.{path}".rstrip("."), out
    elif isinstance(ref, bool):
        yield "", not ref
    elif isinstance(ref, int):
        yield "", ref + 1
    elif isinstance(ref, float):
        yield "", ref * (1 + 1e-6)
    elif isinstance(ref, str):
        yield "", ref[::-1] if ref != ref[::-1] else ref + "x"
    else:
        yield "", "corrupted"


class Runner:
    """Runs the ops of one workload at one grid scale, writing under ``out``."""

    def __init__(self, root: Path, out: Path, workload: Workload, *, tiny: bool, seed: int,
                 ref: dict | None):
        self.workload = workload
        self.ref = ref
        self.config = str(root / CONFIG)
        grid = TINY_GRID if tiny else workload.grid
        self.overrides = [
            f"truncation.tau_max={grid}",
            f"truncation.delta_max={grid}",
            f"solver.method={workload.method}",
        ]
        self.sim_epochs = TINY_SIM_EPOCHS if tiny else FULL_SIM_EPOCHS
        self.jobs = min(2, os.cpu_count() or 1)
        self.sim_seeds = random.Random(seed)
        self.prep_dir = out / "prep"
        self.op_dir = out / "op"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))

    def _args(self, command: str, out: Path, *extra: str) -> list[str]:
        sets = [a for o in self.overrides for a in ("--set", o)]
        return [command, "--config", self.config, "--out", str(out), *extra, *sets]

    def _call(self, argv: list[str], tracer) -> tuple[float, dict | None, list[str]]:
        main = cli.main if tracer is None else tracer.wrap(cli.main, f"cli.{argv[0]}")
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except Exception as exc:  # an unclassified error escaping the CLI fails the op
            return time.perf_counter() - start, None, [f"{argv[0]} raised {exc!r}"]
        wall = time.perf_counter() - start
        try:
            payload = json.loads(buf.getvalue())
        except ValueError:
            return wall, None, [f"{argv[0]}: stdout is not JSON"]
        if code != 0:
            return wall, None, [f"{argv[0]}: exit code {code}: {payload}"]
        return wall, payload, []

    def _finish(self, stage: str, wall: float, observed: dict, problems: list[str],
                extra: dict | None = None) -> OpResult:
        if not problems and self.ref is not None:
            problems = check(stage, observed, self.ref)
        return OpResult(stage, wall, observed, problems, extra or {})

    def prepare(self) -> list[OpResult]:
        """The untimed solve whose artifacts the validate ops read, or nothing
        for the other workloads. It runs in its own interpreter so that its
        memory does not count in the peak RSS of the process that runs the ops."""
        if self.workload.kind != "validate":
            return []
        out = _fresh(self.prep_dir)
        argv = [sys.executable, "-m", "wearsched", *self._args("solve", out, "--emit-q")]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                              timeout=PREP_TIMEOUT_S)
        wall = time.perf_counter() - start
        observed, problems = {}, []
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            problems = [f"prep solve: stdout is not JSON: {proc.stderr[-500:]}"]
        else:
            if proc.returncode != 0:
                problems = [f"prep solve: exit code {proc.returncode}: {payload}"]
            else:
                observed = {"lambda": payload["result"]["lambda"], "policy_sha256": _sha256(out / "policy.csv")}
        return [self._finish("prep", wall, observed, problems)]

    def op(self, tracer=None) -> OpResult:
        return {"solve": self._solve_op, "validate": self._validate_op, "sweep": self._sweep_op}[
            self.workload.kind
        ](tracer)

    def _solve_op(self, tracer, stage: str = "op") -> OpResult:
        out = _fresh(self.op_dir)
        wall, payload, problems = self._call(self._args("solve", out, "--emit-q"), tracer)
        observed = {}
        if payload is not None:
            observed = {"lambda": payload["result"]["lambda"], "policy_sha256": _sha256(out / "policy.csv")}
            if stage == "point":
                observed = {"ok": True, **observed}
        return self._finish(stage, wall, observed, problems)

    def point(self, tracer) -> OpResult:
        """The sweep's beta=1.0 point solved in this process, so that tracing
        sees inside the solver; the sweep itself solves in worker processes."""
        return self._solve_op(tracer, stage="point")

    def _validate_op(self, tracer) -> OpResult:
        prep, out = self.prep_dir, _fresh(self.op_dir)
        artifacts = ("--policy", str(prep / "policy.csv"), "--value", str(prep / "value.csv"),
                     "--q", str(prep / "q.csv"))
        wall_v, verify, problems = self._call(self._args("verify", out / "verify", *artifacts), tracer)
        sim_args = (
            "--policy", str(prep / "policy.csv"),
            "--set", f"simulate.replications={SIM_REPLICATIONS}",
            "--set", f"simulate.epochs={self.sim_epochs}",
            "--set", f"simulate.seed={self.sim_seeds.randrange(2**32)}",
        )
        wall_s, sim, sim_problems = self._call(self._args("simulate", out / "simulate", *sim_args), tracer)
        problems += sim_problems
        observed = {}
        if verify is not None and sim is not None:
            observed = {
                "verify": {
                    "checks": [[c["kind"], c["passed"], c["violation_count"]] for c in verify["checks"]],
                    "all_passed": verify["all_passed"],
                    "full_grid_violation_counts": verify["full_grid_violation_counts"],
                },
                "simulate": [
                    {k: r[k] for k in ("stream", "epochs", "per_epoch_avg_cost", "std_error")}
                    for r in sim["replications"]
                ],
            }
        return self._finish("op", wall_v + wall_s, observed, problems)

    def _sweep_op(self, tracer) -> OpResult:
        out = _fresh(self.op_dir)
        argv = self._args("sweep", out, "--axis", "beta", "--values", SWEEP_BETAS, "--jobs", str(self.jobs))
        wall, payload, problems = self._call(argv, tracer)
        observed, extra = {}, {}
        if payload is not None:
            observed = {
                key: {
                    "ok": p["ok"],
                    "lambda": p.get("lambda"),
                    "policy_sha256": _sha256(out / p["directory"] / "policy.csv"),
                }
                for key, p in payload["points"].items()
            }
            # Points solve in worker processes, out of the tracer's sight;
            # their stage times come from each point's summary.json.
            extra = {
                "jobs": self.jobs,
                "point_timings": [
                    json.loads((out / p["directory"] / "summary.json").read_text())["timings_s"]
                    for p in payload["points"].values()
                    if p["ok"]
                ],
                "bytes_written": sum(f.stat().st_size for f in out.rglob("*.csv")),
            }
        return self._finish("op", wall, observed, problems, extra)


def gate_catches_corruption(results: list[OpResult], ref: dict) -> list[str]:
    """Leaves of ``ref`` whose corruption no op's gate notices."""
    missed = []
    for path, bad in corruptions(ref):
        if not any(check(r.stage, r.observed, bad) for r in results):
            missed.append(path)
    return missed
