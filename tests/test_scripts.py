"""Smoke tests of the driver scripts in ``scripts/``: each runs to exit 0 in
a fresh interpreter and writes the files it documents. The tracked-metrics
script is loaded and its collecting function called at small grids."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import wearsched

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_policy_maps(tmp_path):
    proc = run_script("run_policy_maps.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    labels = ("0.9", "1", "1.1")
    for label in labels:
        for name in ("policy.csv", "value.csv", "summary.json"):
            assert (tmp_path / f"beta={label}" / name).is_file()
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert sorted(summary["points"]) == sorted(labels)
    assert all(p["ok"] for p in summary["points"].values())
    assert (tmp_path / "frontiers.csv").read_text().startswith("axis,value,delta,")


def test_monotonicity_study(tmp_path):
    proc = run_script("run_monotonicity_study.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("slow-decay-short-renewal", "slow-decay-long-renewal", "heavy-wear"):
        report = json.loads((tmp_path / name / "verify.json").read_text())
        assert report["command"] == "verify"
        assert f"{name}: aoi-violations=" in proc.stderr


def test_baseline_comparison(tmp_path):
    epochs = 100_000
    proc = run_script("run_baseline_comparison.py", "--out", tmp_path, "--epochs", epochs)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "baselines.json").read_text())
    assert report["epochs"] == epochs
    assert sorted(report["policies"]) == ["boundary-renewal", "optimal", "transmit-always"]
    for row in report["policies"].values():
        assert sum(row["action_counts"]) == epochs


# The shape of ``collect``'s JSON: every row of the tracked metrics, each
# value's type, and the figures a row carries next to its own.
TRACKED_SHAPE = {
    "src_lines": int,
    "module_lines": dict,
    "config_keys": int,
    "public_names": int,
    "cli_options": dict,
    "mdp_bytes_320": int,
    "rvi_160": {"iterations": int, "bracket_width": float, "solve_s": float, "write_s": float},
    "simulate_80": {"peak_mib": float, "simulate_s": float, "epochs": int, "epochs_per_s": float},
    "spi_160": {"peak_mib": float, "solve_s": float, "sweeps": list},
    "spi_320": {"peak_mib": float, "solve_s": float, "sweeps": list, "scipy_loaded": bool, "write_s": float},
    "simulate_320": {"peak_mib": float, "simulate_s": float, "epochs": int},
    "heuristic_80": {"solve_s": float, "median_s": float, "sweep_wall_s": float},
    "policy_evaluate_ms": dict.fromkeys(("never_renews", "renewal_closed", "open_last_row", "spi_final"), float),
    "import_cli": {"median_s": float, "scipy_loaded": bool},
    "tier1": {"wall_s": float, "slowest_s": dict},
}


def assert_shape(value, shape, path="metrics"):
    if isinstance(shape, dict):
        assert type(value) is dict and value.keys() == shape.keys(), path
        for key, sub in shape.items():
            assert_shape(value[key], sub, f"{path}.{key}")
    else:
        assert type(value) is shape, (path, value)


def test_tracked_metrics(tmp_path):
    spec = importlib.util.spec_from_file_location("tracked_metrics", ROOT / "scripts" / "tracked_metrics.py")
    tracked = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracked)
    cases = "".join(f'<testcase classname="t" name="case{i}" time="{i}.5"/>' for i in range(12))
    junit = tmp_path / "tier1.xml"
    junit.write_text(f'<testsuites><testsuite name="pytest" time="42.25">{cases}</testsuite></testsuites>')

    metrics = tracked.collect(junit, grids=(16, 24, 32), epochs=20_000)

    assert_shape(metrics, TRACKED_SHAPE)
    src = ROOT / "src" / "wearsched"
    lines = {str(p.relative_to(src)): p.read_text().count("\n") for p in src.rglob("*.py")}
    assert metrics["module_lines"] == lines
    assert metrics["src_lines"] == sum(lines.values())
    assert metrics["public_names"] == len(wearsched.__all__)

    def leaves(d):
        return sum(map(leaves, d.values())) if isinstance(d, dict) else 1

    assert metrics["config_keys"] == leaves(yaml.safe_load((ROOT / "tests/data/every-optional-key.yaml").read_text()))
    assert set(metrics["cli_options"]) == {"solve", "verify", "simulate", "sweep"}
    assert metrics["spi_320"]["scipy_loaded"] is False
    assert metrics["import_cli"]["scipy_loaded"] is False
    assert metrics["spi_320"]["sweeps"][-1][:2] == [32, 32]
    assert (metrics["simulate_80"]["epochs"], metrics["simulate_320"]["epochs"]) == (20_000, 8_000)
    assert metrics["tier1"]["wall_s"] == 42.25
    assert list(metrics["tier1"]["slowest_s"]) == [f"t::case{i}" for i in range(11, 1, -1)]
