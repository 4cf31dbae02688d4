"""wearsched benchmark: end-to-end wall time of the CLI on four workloads,
and per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record

Run it from the root of a source tree; the package is imported from ``src/``.
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json and
``--trace 1`` its ``per_layer`` metrics. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the environment, every op and every metric with its
unit. Every op passes the correctness gate of ``workloads.py``; the exit code
is 1 when any op fails it. ``--self-check`` runs every workload once on a
16x16 grid, traced and untraced, and checks that the gate notices each
corrupted reference value. ``--record`` rewrites ``references.json`` from the
current program's answers.

Ops run one after another in this process, a closed loop with one caller,
until ``--seconds`` have passed. Native thread pools are pinned to one thread
and no workload runs more than ``nproc`` processes at a time.
"""

import os

# Before numpy loads, here and in every process this one starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
SETUP_SAMPLES = 5

# A fresh interpreter paying what every CLI call pays before it works:
# importing the CLI and loading the configuration.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import wearsched.cli
t1 = time.perf_counter()
from wearsched.config import load_config
load_config(sys.argv[1], overrides=sys.argv[2:])
print(json.dumps({"import_s": t1 - t0}))
"""

# Sweep per-layer metrics that need tracing inside the solver, taken from
# the in-process beta=1.0 point: they are per point, not per sweep.
POINT_METRICS = (
    "mdp.kernel_bytes",
    "solvers.q_backup_calls",
    "solvers.q_backup_s",
    "solvers.policy_evaluate_calls",
    "solvers.policy_evaluate_s",
    "solvers.threshold_evaluations",
    "solvers.threshold_self_s",
)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(runner) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI and loading
    the config, and median import time inside it. One unrecorded run first
    fills the bytecode cache, which users do not pay on every call."""
    walls, imports = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, runner.config, *runner.overrides],
            env=runner.env, capture_output=True, text=True, timeout=60, check=True,
        )
        wall = time.perf_counter() - start
        if i:
            walls.append(wall)
            imports.append(json.loads(proc.stdout)["import_s"])
    return statistics.median(walls), statistics.median(imports)


def sweep_layers(op, point: dict) -> dict:
    """Per-layer numbers of a traced sweep op: stage times summed over the
    points' summary.json files, counts from the in-process point."""
    t = op.extra.get("point_timings", [])  # empty when the sweep failed
    return {
        **op.metrics,
        "mdp.build_mdp_s": sum(p["build"] for p in t),
        "solvers.threshold_heuristic_s": sum(p["solve"] for p in t),
        "artifacts.write_s": op.metrics["artifacts.write_s"] + sum(p["write"] for p in t),
        "artifacts.bytes_written": op.extra.get("bytes_written", 0),
        "cli.sweep_parallel_efficiency": sum(p["total"] for p in t) / (op.extra.get("jobs", 1) * op.wall_s),
        **{k: point[k] for k in POINT_METRICS},
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list, dict]:
    from tracing import Tracer, layer_metrics
    from workloads import Runner

    refs = json.loads(REFERENCES.read_text())["full"][workload.name]
    out = OUT / workload.name
    runner = Runner(ROOT, out, workload, tiny=False, seed=seed, ref=refs)
    setup_s, import_s = measure_setup(runner)
    results = runner.prepare()

    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    # Traced runs alternate untraced and traced ops, so that the difference
    # of their medians is the tracing overhead.
    while not (time.perf_counter() - start >= seconds and plain and (traced or not trace)):
        if trace and len(plain) > len(traced):
            op_id = len(results)
            with tracer.recording(op_id):
                r = runner.op(tracer)
            r.metrics = layer_metrics(tracer.op_spans(op_id))
            traced.append(r)
        else:
            r = runner.op()
            plain.append(r)
        results.append(r)

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "op_s": statistics.median(r.wall_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, results, {}

    if workload.kind == "sweep":
        op_id = len(results)
        with tracer.recording(op_id):
            p = runner.point(tracer)
        p.metrics = point = layer_metrics(tracer.op_spans(op_id))
        results.append(p)
        per_op = [sweep_layers(r, point) for r in traced]
    else:
        per_op = [r.metrics for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["cli.sweep_parallel_efficiency"] = metrics.get("cli.sweep_parallel_efficiency", 0.0)
    metrics["cli.import_s"] = import_s
    metrics["cli.trace_overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    )
    spans = out / f"spans-seed{seed}.jsonl"
    tracer.write_spans(spans)
    return metrics, results, {"spans": str(spans.relative_to(ROOT))}


def report(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    env = environment(seed)
    print("env " + json.dumps(env), flush=True)
    metrics, results, files = run(WORKLOADS[name], seed, seconds, trace)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")

    for i, r in enumerate(results):
        line = f"op {i} {r.stage} wall {r.wall_s:.4f} s {'FAILED' if r.problems else 'ok'}"
        if r.metrics is not None:
            root = sum(r.metrics[f"cli.{c}_s"] for c in ("solve", "verify", "simulate", "sweep"))
            line += (f", traced: wrapped calls {root - r.metrics['cli.self_s']:.4f} s"
                     f" + cli self {r.metrics['cli.self_s']:.4f} s")
        print(line)
        for p in r.problems:
            print(f"  gate: {p}")
    failed = sum(bool(r.problems) for r in results)
    print(f"error_rate {failed / len(results):.4g} ({failed} failed of {len(results)} attempted)")
    for k, u in units.items():
        print(f"{k} {metrics[k]:.6g} {u}")

    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace), "env": env, **files,
        "ops": [{"stage": r.stage, "wall_s": r.wall_s, "problems": r.problems} for r in results],
        "result": result,
    }
    (OUT / name / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def self_check() -> int:
    """Every workload once on the tiny grid, untraced and traced, against the
    tiny references; then every reference value corrupted in turn."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Runner, corruptions, gate_catches_corruption

    refs = json.loads(REFERENCES.read_text())["tiny"]
    bad = 0
    for wl in WORKLOADS.values():
        start = time.perf_counter()
        runner = Runner(ROOT, OUT / "self-check" / wl.name, wl, tiny=True, seed=0, ref=refs[wl.name])
        results = runner.prepare()
        results.append(runner.op())
        tracer = Tracer()
        with tracer.recording(0):
            results.append(runner.op(tracer))
        layer_metrics(tracer.op_spans(0))
        if wl.kind == "sweep":
            with tracer.recording(1):
                results.append(runner.point(tracer))
            layer_metrics(tracer.op_spans(1))
        problems = [p for r in results for p in r.problems]
        missed = gate_catches_corruption(results, refs[wl.name])
        # One op end to end against a corrupted reference counts as failed.
        runner.ref = next(r for path, r in corruptions(refs[wl.name]) if path.startswith("op."))
        if not runner.op().problems:
            missed.append("op run against a corrupted reference")
        ok = not problems and not missed
        bad += not ok
        print(f"{wl.name}: {len(results)} ops {'ok' if not problems else 'FAILED'}, "
              f"corruptions missed {missed}, {time.perf_counter() - start:.2f} s")
        for p in problems:
            print(f"  gate: {p}")
    print("self-check " + ("passed" if not bad else "FAILED"))
    return 0 if not bad else 1


def record() -> int:
    """Write references.json from one op of every workload at both scales."""
    from workloads import WORKLOADS, Runner

    refs: dict = {}
    for scale in ("tiny", "full"):
        refs[scale] = {}
        for wl in WORKLOADS.values():
            runner = Runner(ROOT, OUT / "record" / wl.name, wl, tiny=scale == "tiny", seed=0, ref=None)
            results = runner.prepare()
            results.append(runner.op())
            problems = [p for r in results for p in r.problems]
            if problems:
                print(f"{scale} {wl.name}: {problems}")
                return 1
            ref = {"prep": results[0].observed} if wl.kind == "validate" else {}
            ref["op"] = {k: v for k, v in results[-1].observed.items() if k != "simulate"}
            refs[scale][wl.name] = ref
            print(f"{scale} {wl.name}: recorded", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "wearsched" / "cli.py").is_file():
        print(f"no wearsched source tree under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_check:
        return self_check()
    if args.record:
        return record()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
