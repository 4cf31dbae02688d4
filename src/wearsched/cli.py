"""Batch command-line front end: solve, verify, simulate and sweep pipelines
driven by YAML experiment configurations.

Exit codes: 0 success, 2 configuration error, 3 missing artifact, 4 artifact
parse error, 5 solver/runtime failure. Failures emit a machine-readable
error JSON object on stdout.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    read_policy_csv,
    read_q_csv,
    read_value_csv,
    write_json,
    write_policy_csv,
    write_q_csv,
    write_value_csv,
)
from .config import ExperimentConfig, load_config, validate_config_dict
from .errors import (
    ArtifactParseError,
    ConfigError,
    ConvergenceError,
    EvaluationError,
    MissingArtifactError,
    NumericalOverflowError,
    WearschedError,
)
from .linear_model import stability_report
from .mdp import MdpSpec, build_mdp
from .sim import simulate
from .solvers import (
    Policy,
    SolveResult,
    load_evaluator,
    q_backup,
    rvi_solve,
    structured_policy_iteration,
    threshold_heuristic,
)
from .structure import (
    check_policy_monotone,
    check_submodular,
    check_value_monotone,
    full_region,
    interior_region,
    threshold_frontier,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_ARTIFACT_PARSE = 4
EXIT_SOLVER = 5

SWEEP_AXES = ("beta", "alpha", "tau_d", "delta_r")


def _tool_info() -> dict:
    return {"name": "wearsched", "version": __version__}


def _build(cfg: ExperimentConfig) -> MdpSpec:
    return build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation())


def _solve(cfg: ExperimentConfig, mdp: MdpSpec) -> SolveResult:
    opts = cfg.solver.options()
    if cfg.solver.method == "rvi":
        return rvi_solve(mdp, opts)
    if cfg.solver.method == "spi":
        return structured_policy_iteration(mdp, opts)
    return threshold_heuristic(mdp, opts, tau_renew=cfg.solver.tau_renew)


def _stability_dict(cfg: ExperimentConfig) -> dict:
    rep = stability_report(cfg.build_system(), cfg.build_channel())
    if rep.stable_region_all:
        bound = "all"
    elif rep.stable_tau_bound is None:
        bound = "none"
    else:
        bound = rep.stable_tau_bound
    return {
        "rho": rep.rho,
        "stable_without_renewal": rep.stable_without_renewal,
        "stabilizable_with_renewal": rep.stabilizable_with_renewal,
        "stable_tau_bound": bound,
    }


def _result_dict(res: SolveResult) -> dict:
    return {
        "lambda": res.gain,
        "iterations": res.iterations,
        "residual": res.residual,
        "lambda_bounds": list(res.lambda_bounds),
        "skipped_q_evals": res.skipped_q_evals,
        "continuation": None if res.continuation is None else [list(c) for c in res.continuation],
    }


def _report_dict(report, max_listed: int = 50) -> dict:
    return {
        "kind": report.kind,
        "passed": report.passed,
        "violation_count": report.count(),
        "checked_region": list(report.checked_region),
        "violations": [
            {"tau": v.tau, "delta": v.delta, "axis": v.axis, "magnitude": v.magnitude}
            for v in report.head(max_listed)
        ],
    }


def _check_grid(name: str, shape: tuple, configured: tuple) -> None:
    if shape != configured:
        raise ArtifactParseError(f"{name} grid {shape} does not match configured grid {configured}")


def _frontier_dict(policy: Policy) -> dict:
    fr = threshold_frontier(policy)
    return {"transmit": list(fr.transmit), "renew": list(fr.renew)}


def run_solve(cfg: ExperimentConfig, out_dir: Path, emit_q: bool) -> dict:
    """Solve per the configured method and write policy/value grids plus a
    JSON summary. Returns the summary payload."""
    t_start = time.perf_counter()
    mdp = _build(cfg)
    t_build = time.perf_counter()
    res = _solve(cfg, mdp)
    t_solve = time.perf_counter()

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {"summary_json": "summary.json"}
    if "csv" in cfg.output.formats:
        write_policy_csv(out_dir / "policy.csv", res.policy)
        write_value_csv(out_dir / "value.csv", res.v)
        artifacts["policy_csv"] = "policy.csv"
        artifacts["value_csv"] = "value.csv"
        if emit_q:
            write_q_csv(out_dir / "q.csv", res.q)
            artifacts["q_csv"] = "q.csv"
    t_write = time.perf_counter()

    summary = {
        "tool": _tool_info(),
        "command": "solve",
        "config": cfg.echo(),
        "result": _result_dict(res),
        "stability": _stability_dict(cfg),
        "frontier": _frontier_dict(res.policy),
        "timings_s": {
            "build": t_build - t_start,
            "solve": t_solve - t_build,
            "write": t_write - t_solve,
            "total": t_write - t_start,
        },
        "artifacts": artifacts,
    }
    write_json(out_dir / "summary.json", summary)
    return summary


# Every structural check verify runs, in report order, as kind -> call on
# (policy, v, q, region). The check functions are looked up when called, so a
# wrapper installed on this module's names sees every call.
VERIFY_CHECKS = {
    "value-monotone": lambda policy, v, q, region: check_value_monotone(v, region),
    "policy-monotone-aoi": lambda policy, v, q, region: check_policy_monotone(policy, "aoi", region),
    "policy-monotone-aoc": lambda policy, v, q, region: check_policy_monotone(policy, "aoc", region),
    "submodular-aoc": lambda policy, v, q, region: check_submodular(q, "aoc", region),
    "submodular-aoi": lambda policy, v, q, region: check_submodular(q, "aoi", region),
}


def run_verify(
    cfg: ExperimentConfig,
    out_dir: Path,
    policy_path: str | None = None,
    value_path: str | None = None,
    q_path: str | None = None,
) -> dict:
    """Run the structural checks on a solved or loaded instance.

    With artifact paths the policy/value grids are loaded from CSV (Q-factors
    are recomputed from the value grid when no Q artifact is given);
    otherwise the instance is solved first.
    """
    t_start = time.perf_counter()
    mdp = _build(cfg)
    if policy_path or value_path or q_path:
        if not (policy_path and value_path):
            raise MissingArtifactError("verification from artifacts needs both --policy and --value")
        policy = read_policy_csv(policy_path)
        v = read_value_csv(value_path)
        _check_grid("policy", policy.shape, mdp.shape)
        _check_grid("value", v.shape, mdp.shape)
        q = read_q_csv(q_path) if q_path else q_backup(mdp, v)
        _check_grid("Q", q.shape, mdp.shape + (3,))
        lam = None
    else:
        res = _solve(cfg, mdp)
        policy, v, q, lam = res.policy, res.v, res.q, res.gain

    interior = interior_region(mdp.trunc, mdp.channel)
    full = full_region(mdp.trunc)
    checks = [check(policy, v, q, interior) for check in VERIFY_CHECKS.values()]
    # Boundary-inclusive counts are informational only; clamping distorts the
    # dynamics there.
    boundary_info = {kind: check(policy, v, q, full).count() for kind, check in VERIFY_CHECKS.items()}

    report = {
        "tool": _tool_info(),
        "command": "verify",
        "config": cfg.echo(),
        "lambda": lam,
        "checks": [_report_dict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
        "full_grid_violation_counts": boundary_info,
        "frontier": _frontier_dict(policy),
        "timings_s": {"total": time.perf_counter() - t_start},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "verify.json", report)
    return report


def run_simulate(cfg: ExperimentConfig, out_dir: Path, policy_path: str | None = None) -> dict:
    """Simulate the configured number of epochs/replications under either the
    solved optimal policy or a policy loaded from CSV."""
    t_start = time.perf_counter()
    mdp = _build(cfg)
    lam = None
    if policy_path:
        policy = read_policy_csv(policy_path)
        _check_grid("policy", policy.shape, mdp.shape)
        source = str(policy_path)
    else:
        res = _solve(cfg, mdp)
        policy, lam = res.policy, res.gain
        source = "optimal"

    sim_cfg = cfg.simulate
    reps = []
    for r in range(sim_cfg.replications):
        try:
            stats = simulate(mdp, policy, epochs=sim_cfg.epochs, seed=sim_cfg.seed, stream=r)
        except OverflowError as exc:  # math.fsum of the run's costs
            raise NumericalOverflowError(f"simulated cost total overflows float64: {exc}") from exc
        reps.append(
            {
                "stream": r,
                "epochs": stats.epochs,
                "per_epoch_avg_cost": stats.per_epoch_avg_cost,
                "per_slot_avg_cost": stats.per_slot_avg_cost,
                "std_error": stats.std_error,
                "action_counts": stats.action_counts.tolist(),
                "boundary_hit_fraction": stats.boundary_hit_fraction,
            }
        )
    per_epoch = np.array([r["per_epoch_avg_cost"] for r in reps])
    pooled = {
        "mean_per_epoch_avg_cost": float(per_epoch.mean()),
        "pooled_std_error": float(
            np.sqrt(sum(r["std_error"] ** 2 for r in reps)) / len(reps)
        ),
    }

    payload = {
        "tool": _tool_info(),
        "command": "simulate",
        "config": cfg.echo(),
        "policy_source": source,
        "lambda": lam,
        "replications": reps,
        "pooled": pooled,
        "timings_s": {"total": time.perf_counter() - t_start},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "simulate.json", payload)
    return payload


def _sweep_point(raw_config: dict, axis: str, value, out_dir: str, emit_q: bool) -> dict:
    """Solve one sweep point, isolated so it can run in a worker process.
    Returns ``{"ok": True, "summary": ...}``, or on any failure
    ``{"ok": False, "error": ...}``, so one point cannot stop the sweep."""
    try:
        data = json.loads(json.dumps(raw_config))
        if axis == "beta":
            if "beta" not in data.get("system", {}):
                raise ConfigError(
                    field="system.beta",
                    message="sweeping beta requires the parametric system family",
                )
            data["system"]["beta"] = value
        else:
            data["channel"][axis] = value
        return {"ok": True, "summary": run_solve(validate_config_dict(data), Path(out_dir), emit_q)}
    except Exception as exc:  # noqa: BLE001 - recorded as this point's error
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(
    cfg: ExperimentConfig,
    out_dir: Path,
    axis: str,
    values: list,
    jobs: int = 1,
    emit_q: bool = False,
) -> tuple[dict, int]:
    """Solve once per sweep value; failures are recorded and do not stop the
    sweep. Values must be finite, integral on the ``tau_d`` and ``delta_r``
    axes, and distinct in their labels, or nothing is solved. With ``jobs``
    > 1 the points run in a pool of ``min(jobs, len(values))`` worker
    processes; either way the results are collected in ``values`` order.
    Returns the combined summary and the exit code."""
    if axis not in SWEEP_AXES:
        raise ConfigError(field="sweep.axis", message=f"axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError(field="sweep.values", message="no sweep values given")
    if axis in ("tau_d", "delta_r"):
        fractional = [f"{x:g}" for x in values if not float(x).is_integer()]
        if fractional:
            raise ConfigError(
                field="sweep.values", message=f"{axis} takes integer values; got {', '.join(fractional)}"
            )
        values = [int(x) for x in values]
    non_finite = [f"{v:g}" for v in values if not math.isfinite(v)]
    if non_finite:
        raise ConfigError(
            field="sweep.values", message=f"sweep values must be finite; got {', '.join(non_finite)}"
        )
    if jobs < 1:
        raise ConfigError(field="sweep.jobs", message=f"jobs must be at least 1, got {jobs}")
    # Each point's directory, summary key and frontier rows carry its label.
    labels = [f"{v:g}" for v in values]
    repeated = sorted({x for x in labels if labels.count(x) > 1})
    if repeated:
        raise ConfigError(
            field="sweep.values",
            message=f"sweep values must have distinct labels; repeated: {', '.join(repeated)}",
        )
    label = dict(zip(values, labels))
    out_dir.mkdir(parents=True, exist_ok=True)
    point_dirs = {v: out_dir / f"{axis}={label[v]}" for v in values}

    workers = min(jobs, len(values))
    args = (repeat(cfg.echo()), repeat(axis), values, [str(point_dirs[v]) for v in values], repeat(emit_q))
    if workers > 1:
        if cfg.solver.method == "threshold-heuristic":
            # Loaded once here, the heuristic's sparse factorization reaches
            # every forked worker; no other method factorizes.
            load_evaluator()
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_point, *args))
    else:
        outcomes = list(map(_sweep_point, *args))
    points = dict(zip(values, outcomes))

    # Combined frontier table across sweep values.
    lines = ["axis,value,delta,transmit_threshold,renew_threshold"]
    for v in values:
        p = points[v]
        if not p["ok"]:
            continue
        fr = p["summary"]["frontier"]
        for dj, (tx, rn) in enumerate(zip(fr["transmit"], fr["renew"]), start=1):
            lines.append(
                f"{axis},{label[v]},{dj},{'' if tx is None else tx},{'' if rn is None else rn}"
            )
    (out_dir / "frontiers.csv").write_text("\n".join(lines) + "\n")

    combined = {
        "tool": _tool_info(),
        "command": "sweep",
        "axis": axis,
        "values": list(values),
        "base_config": cfg.echo(),
        "points": {
            label[v]: (
                {
                    "ok": p["ok"],
                    "directory": str(point_dirs[v].name),
                    **(
                        {"lambda": p["summary"]["result"]["lambda"]}
                        if p["ok"]
                        else {"error": p["error"]}
                    ),
                }
            )
            for v, p in points.items()
        },
        "artifacts": {"frontiers_csv": "frontiers.csv", "summary_json": "sweep_summary.json"},
    }
    write_json(out_dir / "sweep_summary.json", combined)
    code = EXIT_OK if all(p["ok"] for p in points.values()) else EXIT_SOLVER
    return combined, code


def _error_payload(code: int, kind: str, exc: Exception) -> dict:
    payload = {"error": {"code": code, "kind": kind, "message": str(exc)}}
    if isinstance(exc, ConfigError):
        payload["error"]["field"] = exc.field
    return payload


def _classify(exc: Exception) -> tuple[int, str]:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG, "config"
    if isinstance(exc, MissingArtifactError):
        return EXIT_MISSING_ARTIFACT, "missing-artifact"
    if isinstance(exc, ArtifactParseError):
        return EXIT_ARTIFACT_PARSE, "artifact-parse"
    if isinstance(exc, (ConvergenceError, EvaluationError, NumericalOverflowError)):
        return EXIT_SOLVER, "solver"
    if isinstance(exc, (WearschedError, concurrent.futures.BrokenExecutor)):
        return EXIT_SOLVER, "runtime"
    raise exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearsched",
        description="Solve, verify and simulate transmission/renewal scheduling instances.",
    )
    parser.add_argument("--version", action="version", version=f"wearsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment configuration file (YAML)")
        p.add_argument("--out", default=None, help="output directory (default: config/env)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="K=V",
            help="override a config key, e.g. --set channel.alpha=0.05 (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="solve and export policy/value grids")
    common(p_solve)
    p_solve.add_argument("--emit-q", action="store_true", help="also export the Q-factor grid")

    p_verify = sub.add_parser("verify", help="run structural checks on a solved instance")
    common(p_verify)
    p_verify.add_argument("--policy", default=None, help="policy CSV to verify (else solve)")
    p_verify.add_argument("--value", default=None, help="value CSV to verify (else solve)")
    p_verify.add_argument("--q", default=None, help="Q-factor CSV (else recomputed from value)")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo simulate a policy")
    common(p_sim)
    p_sim.add_argument("--policy", default=None, help="policy CSV (default: solve for optimal)")

    p_sweep = sub.add_parser("sweep", help="solve across a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent sweep points")
    p_sweep.add_argument("--emit-q", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args.overrides)
        out_dir = cfg.output.resolve_directory(args.out)
        if args.command == "solve":
            payload = run_solve(cfg, out_dir, args.emit_q)
            code = EXIT_OK
        elif args.command == "verify":
            payload = run_verify(cfg, out_dir, args.policy, args.value, args.q)
            code = EXIT_OK
        elif args.command == "simulate":
            payload = run_simulate(cfg, out_dir, args.policy)
            code = EXIT_OK
        else:
            try:
                values = [float(x) for x in args.values.split(",") if x.strip()]
            except ValueError as exc:
                raise ConfigError(field="sweep.values", message=str(exc)) from exc
            payload, code = run_sweep(cfg, out_dir, args.axis, values, args.jobs, args.emit_q)
    except Exception as exc:  # noqa: BLE001 - classified and reported below
        code, kind = _classify(exc)
        print(json.dumps(_error_payload(code, kind, exc)))
        return code
    print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
