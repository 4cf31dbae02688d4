"""Smoke tests of the driver scripts in ``scripts/``: each runs to exit 0 in
a fresh interpreter and writes the files it documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
