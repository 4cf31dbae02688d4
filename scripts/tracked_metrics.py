"""Tracked metrics of the tree, printed as one JSON object on stdout.

Tracked, never gated: a change that adds code, a config key, a public name,
a flag or a grid-sized model array, or that moves a time or a peak, shows
here. Every command runs on configs/benchmark-marginal.yaml. The keys name
CI's grids, 80, 160 and 320 squared, which ``collect`` takes as arguments.

- ``src_lines``, ``module_lines``: lines of src/wearsched and of each module.
- ``config_keys``: leaf config keys validate_config_dict accepts, counted
  from the echo of tests/data/every-optional-key.yaml (every optional key).
- ``public_names``: names in wearsched.__all__.
- ``cli_options``: optional arguments per subcommand, ``--help`` excluded.
- ``mdp_bytes_320``: bytes of MdpSpec's array fields at 320x320.
- ``rvi_160``: RVI's iterations, lambda* bracket width, ``timings_s.solve``
  and ``timings_s.write`` at 160x160.
- ``simulate_80``: peak RSS of ``simulate --policy`` at 10^7 epochs on the
  80x80 RVI policy, with its ``timings_s.simulate`` and epochs per second.
- ``spi_160``, ``spi_320``: peak RSS, ``timings_s.solve`` and sweeps per
  level ``[tau_max, delta_max, sweeps]`` of SPI solves at 160x160 and, with
  ``--emit-q`` as the benchmark's spi-marginal-320 runs it, 320x320; there
  also ``timings_s.write`` and whether the solve loaded scipy.
- ``simulate_320``: peak RSS and ``timings_s.simulate`` of ``simulate
  --policy`` with 2 replications of 2*10^6 epochs on that 320x320 policy.
- ``heuristic_80``: the threshold heuristic's ``timings_s.solve`` at 80x80,
  the median of 3 in-process ``threshold_heuristic`` solves there, and the
  wall time of the benchmark's sweep (``sweep --axis beta --values
  0.9,0.95,1.0,1.05 --jobs 2``, heuristic, 80x80).
- ``policy_evaluate_ms``: the median of 5 in-process ``policy_evaluate``
  calls after 1 warm-up at 320x320, for transmit-everywhere (renews
  nowhere), ``threshold_actions(320, 319, [10] * 320)`` (renewal-closed),
  that table with its last channel age transmitting (renews, but not along
  the whole last channel age) and SPI's final policy.
- ``import_cli``: the median ``import wearsched.cli`` time over 5 fresh
  interpreters, and whether any of them loaded scipy.
- ``tier1`` (with ``--junit``): the tier-1 wall time pytest recorded and
  the ten slowest tier-1 tests, read from its JUnit XML report.

A peak is read through RUSAGE_CHILDREN by a small process whose only child
is the measured command. The in-process medians get a fresh interpreter.

Usage: PYTHONPATH=src python scripts/tracked_metrics.py [--junit tier1.xml]
"""

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import wearsched
from wearsched import Policy, build_mdp, policy_evaluate, structured_policy_iteration, threshold_heuristic
from wearsched.config import load_config
from wearsched.solvers import threshold_actions

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "benchmark-marginal.yaml"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# The JSON file each command writes to its --out directory.
ARTIFACTS = {"solve": "summary.json", "simulate": "simulate.json", "sweep": "sweep_summary.json"}
SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
# Runs the command in its arguments and prints that child's peak RSS in KiB.
PEAK_PROBE = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, capture_output=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)
# Runs the CLI with the arguments after the first, then writes to the first
# whether the process loaded scipy.
SCIPY_PROBE = (
    "import json, sys; import wearsched.cli; code = wearsched.cli.main(sys.argv[2:]); "
    f"open(sys.argv[1], 'w').write(json.dumps({SCIPY_LOADED})); sys.exit(code)"
)
IMPORT_PROBE = (
    "import json, sys, time; t0 = time.perf_counter(); import wearsched.cli; "
    f"print(json.dumps([time.perf_counter() - t0, {SCIPY_LOADED}]))"
)
# Prints ``in_process_medians`` of the grids in its arguments.
MEDIANS_PROBE = (
    "import json, sys, tracked_metrics as m; print(json.dumps(m.in_process_medians(*map(int, sys.argv[1:]))))"
)


def python(*argv, env=ENV):
    """Runs a fresh interpreter with ``argv``; returns its stdout read as JSON."""
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_cli(out: Path, grid: int, command: str, *args, peak=False, scipy=False) -> dict:
    """Runs ``wearsched command`` on benchmark-marginal at grid x grid with
    ``--out out`` in a fresh interpreter. Returns the JSON file it writes,
    with its wall time and, when asked, its peak RSS in MiB and whether it
    loaded scipy."""
    cmd = ["-c", SCIPY_PROBE, str(out / "scipy.json")] if scipy else ["-m", "wearsched"]
    if peak:
        cmd = ["-c", PEAK_PROBE, sys.executable, *cmd]
    start = time.perf_counter()
    stdout = python(*cmd, command, "--config", str(CONFIG), "--out", str(out), *args,
                    "--set", f"truncation.tau_max={grid}", "--set", f"truncation.delta_max={grid}")
    run = dict(read_json(out / ARTIFACTS[command]), wall_s=time.perf_counter() - start)
    if peak:
        run["peak_mib"] = stdout / 1024
    if scipy:
        run["scipy_loaded"] = read_json(out / "scipy.json")
    return run


def read_json(path: Path):
    return json.loads(path.read_text())


def marginal_mdp(grid):
    cfg = load_config(CONFIG, overrides=[f"truncation.tau_max={grid}", f"truncation.delta_max={grid}"])
    return build_mdp(cfg.system, cfg.channel, cfg.truncation)


def median_s(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def in_process_medians(small: int, large: int) -> dict:
    """The ``policy_evaluate_ms`` medians at ``large`` and the heuristic's
    median solve time at ``small``, both measured in this process."""
    mdp = marginal_mdp(large)

    def evaluate_ms(actions):
        policy = Policy(actions=actions)
        policy_evaluate(mdp, policy)
        return 1e3 * median_s(lambda: policy_evaluate(mdp, policy), 5)

    open_row = threshold_actions(large, large - 2, [10] * large)
    open_row[-1] = 1
    mdp_small = marginal_mdp(small)
    return {
        "never_renews": evaluate_ms(np.ones(mdp.shape, dtype=np.int8)),
        "renewal_closed": evaluate_ms(threshold_actions(large, large - 1, [10] * large)),
        "open_last_row": evaluate_ms(open_row),
        "spi_final": evaluate_ms(structured_policy_iteration(mdp).policy.actions),
        "heuristic_s": median_s(lambda: threshold_heuristic(mdp_small), 3),
    }


def tree_counts(large: int) -> dict:
    """The counts that are facts of the tree, computed in this process."""
    from wearsched.cli import _parser  # here, so the medians' interpreter does not load the CLI

    def leaves(d):
        return sum(map(leaves, d.values())) if isinstance(d, dict) else 1

    src = ROOT / "src" / "wearsched"
    module_lines = {str(p.relative_to(src)): p.read_bytes().count(b"\n") for p in sorted(src.rglob("*.py"))}
    [sub] = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    mdp = marginal_mdp(large)
    arrays = [getattr(mdp, f.name) for f in dataclasses.fields(mdp)]
    return {
        "src_lines": sum(module_lines.values()),
        "module_lines": module_lines,
        "config_keys": leaves(load_config(ROOT / "tests" / "data" / "every-optional-key.yaml").echo),
        "public_names": len(wearsched.__all__),
        "cli_options": {name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                                  for a in p._actions) for name, p in sub.choices.items()},
        "mdp_bytes_320": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)),
    }


def collect(junit=None, grids=(80, 160, 320), epochs=10**7) -> dict:
    """Every tracked metric, on grids ``small, medium, large`` (CI's 80, 160
    and 320), with ``epochs`` simulated epochs at the small grid and 2
    replications of a fifth of them at the large one."""
    small, medium, large = grids
    metrics = tree_counts(large)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rvi = run_cli(out / "rvi", medium, "solve")
        lo, hi = rvi["result"]["lambda_bounds"]
        metrics["rvi_160"] = {"iterations": rvi["result"]["iterations"], "bracket_width": hi - lo,
                              "solve_s": rvi["timings_s"]["solve"], "write_s": rvi["timings_s"]["write"]}
        run_cli(out / "sim", small, "solve")
        sim = run_cli(out / "sim", small, "simulate", "--policy", str(out / "sim" / "policy.csv"),
                      "--set", f"simulate.epochs={epochs}", "--set", "simulate.replications=1", peak=True)
        metrics["simulate_80"] = {"peak_mib": sim["peak_mib"], "simulate_s": sim["timings_s"]["simulate"],
                                  "epochs": epochs, "epochs_per_s": epochs / sim["timings_s"]["simulate"]}
        for key, grid, emit_q in (("spi_160", medium, ()), ("spi_320", large, ("--emit-q",))):
            spi = run_cli(out / key, grid, "solve", "--set", "solver.method=spi", *emit_q,
                          peak=True, scipy=bool(emit_q))
            metrics[key] = {"peak_mib": spi["peak_mib"], "solve_s": spi["timings_s"]["solve"],
                            "sweeps": spi["result"]["continuation"]}
            if emit_q:
                metrics[key].update(scipy_loaded=spi["scipy_loaded"], write_s=spi["timings_s"]["write"])
        sim = run_cli(out / "spi_320", large, "simulate", "--policy", str(out / "spi_320" / "policy.csv"),
                      "--set", f"simulate.epochs={epochs // 5}", "--set", "simulate.replications=2", peak=True)
        metrics["simulate_320"] = {"peak_mib": sim["peak_mib"], "simulate_s": sim["timings_s"]["simulate"],
                                   "epochs": 2 * (epochs // 5)}
        heuristic = run_cli(out / "heuristic", small, "solve", "--set", "solver.method=threshold-heuristic")
        sweep = run_cli(out / "sweep", small, "sweep", "--axis", "beta", "--values", "0.9,0.95,1.0,1.05",
                        "--jobs", "2", "--set", "solver.method=threshold-heuristic")
    scripts = os.pathsep.join((ENV["PYTHONPATH"], str(ROOT / "scripts")))
    medians = python("-c", MEDIANS_PROBE, str(small), str(large), env=dict(ENV, PYTHONPATH=scripts))
    metrics["heuristic_80"] = {"solve_s": heuristic["timings_s"]["solve"], "median_s": medians.pop("heuristic_s"),
                               "sweep_wall_s": sweep["wall_s"]}
    metrics["policy_evaluate_ms"] = medians
    imports = [python("-c", IMPORT_PROBE) for _ in range(5)]
    metrics["import_cli"] = {"median_s": statistics.median(t for t, _ in imports),
                             "scipy_loaded": any(s for _, s in imports)}
    if junit is not None:
        root = ET.parse(junit).getroot()
        suite = root if root.tag == "testsuite" else root.find("testsuite")
        slowest = sorted(root.iter("testcase"), key=lambda case: float(case.get("time", 0)), reverse=True)[:10]
        metrics["tier1"] = {"wall_s": float(suite.get("time")), "slowest_s": {
            f"{case.get('classname')}::{case.get('name')}": float(case.get("time", 0)) for case in slowest}}
    return metrics


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--junit", type=Path, help="tier-1 JUnit XML report to read")
    print(json.dumps(collect(parser.parse_args().junit), indent=2))
