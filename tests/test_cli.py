import json
from pathlib import Path

import pytest
import yaml

from wearsched.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CONFIG = """
system:
  beta: 0.9
channel:
  theta_max: 0.99
  theta_min: 0.0
  alpha: 0.1
  tau_d: 6
  delta_r: 15
truncation:
  tau_max: 30
  delta_max: 30
solver:
  tol: 1.0e-10
simulate:
  epochs: 20000
  seed: 7
  replications: 2
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(CONFIG)
    return p


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_writes_artifacts(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out", out, "--emit-q")
        assert code == 0
        for name in ("policy.csv", "value.csv", "q.csv", "summary.json"):
            assert (out / name).exists()
        assert payload["result"]["lambda"] > 0
        assert payload["stability"]["stable_without_renewal"] is True
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == payload["config"]

    def test_rerun_is_byte_identical(self, cfg_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "solve", "--config", cfg_path, "--out", a)[0] == 0
        assert run_cli(capsys, "solve", "--config", cfg_path, "--out", b)[0] == 0
        assert (a / "policy.csv").read_bytes() == (b / "policy.csv").read_bytes()
        assert (a / "value.csv").read_bytes() == (b / "value.csv").read_bytes()

    def test_spi_method(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "solve", "--config", cfg_path, "--out", tmp_path / "spi",
            "--set", "solver.method=spi",
        )
        assert code == 0
        assert payload["result"]["skipped_q_evals"] > 0

    def test_malformed_config_exit_2(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "solve", "--config", cfg_path, "--out", tmp_path / "x",
            "--set", "channel.theta_min=2.0",
        )
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert "theta_min" in payload["error"]["field"]


class TestVerify:
    def test_solves_then_checks(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(capsys, "verify", "--config", cfg_path, "--out", tmp_path / "v")
        assert code == 0
        kinds = {c["kind"]: c for c in payload["checks"]}
        assert kinds["value-monotone"]["passed"]
        assert kinds["policy-monotone-aoi"]["passed"]
        assert kinds["policy-monotone-aoc"]["passed"]
        assert kinds["submodular-aoi"]["passed"]
        assert (tmp_path / "v" / "verify.json").exists()

    def test_from_artifacts(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, "solve", "--config", cfg_path, "--out", out, "--emit-q")
        code, payload = run_cli(
            capsys, "verify", "--config", cfg_path, "--out", out,
            "--policy", out / "policy.csv", "--value", out / "value.csv", "--q", out / "q.csv",
        )
        assert code == 0
        assert payload["lambda"] is None  # loaded, not solved

    def test_missing_artifact_exit_3(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "verify", "--config", cfg_path, "--out", tmp_path / "v",
            "--policy", tmp_path / "nope.csv", "--value", tmp_path / "nope2.csv",
        )
        assert code == 3
        assert payload["error"]["kind"] == "missing-artifact"

    def test_out_of_range_action_exit_4(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, "solve", "--config", cfg_path, "--out", out)
        lines = (out / "policy.csv").read_text().splitlines()
        lines[1] = "1,1,300"
        (out / "bad.csv").write_text("\n".join(lines) + "\n")
        code, payload = run_cli(
            capsys, "verify", "--config", cfg_path, "--out", out,
            "--policy", out / "bad.csv", "--value", out / "value.csv",
        )
        assert code == 4
        assert payload["error"]["kind"] == "artifact-parse"

    def test_shipped_slow_decay_config_flags_aoi_only(self, tmp_path, capsys):
        # The slow-decay short-renewal setup is the canonical case where the
        # policy renews at low information age but transmits at high one.
        code, payload = run_cli(
            capsys, "verify",
            "--config", CONFIG_DIR / "slow-decay-short-renewal.yaml",
            "--out", tmp_path / "v",
        )
        assert code == 0
        kinds = {c["kind"]: c for c in payload["checks"]}
        assert not kinds["policy-monotone-aoi"]["passed"]
        assert kinds["policy-monotone-aoi"]["violation_count"] >= 1
        assert kinds["policy-monotone-aoc"]["passed"]
        assert kinds["value-monotone"]["passed"]

    def test_shipped_heavy_wear_config_passes_both_axes(self, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "verify",
            "--config", CONFIG_DIR / "heavy-wear.yaml",
            "--out", tmp_path / "v",
        )
        assert code == 0
        kinds = {c["kind"]: c for c in payload["checks"]}
        assert kinds["policy-monotone-aoi"]["passed"]
        assert kinds["policy-monotone-aoc"]["passed"]


class TestSimulate:
    def test_optimal_policy_matches_gain(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(capsys, "simulate", "--config", cfg_path, "--out", tmp_path / "s")
        assert code == 0
        lam = payload["lambda"]
        pooled = payload["pooled"]
        assert abs(pooled["mean_per_epoch_avg_cost"] - lam) <= 4 * pooled["pooled_std_error"]
        assert len(payload["replications"]) == 2
        assert payload["replications"][0]["stream"] == 0

    def test_corrupt_policy_exit_4(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, "solve", "--config", cfg_path, "--out", out)
        lines = (out / "policy.csv").read_text().splitlines()
        (out / "bad.csv").write_text("\n".join(lines[:-1]) + "\n")  # drop last state
        code, payload = run_cli(
            capsys, "simulate", "--config", cfg_path, "--out", out, "--policy", out / "bad.csv"
        )
        assert code == 4
        assert payload["error"]["kind"] == "artifact-parse"


class TestSweep:
    def test_single_value_matches_solve(self, cfg_path, tmp_path, capsys):
        solo = tmp_path / "solo"
        run_cli(capsys, "solve", "--config", cfg_path, "--out", solo)
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", "0.9",
        )
        assert code == 0
        point = tmp_path / "sw" / "beta=0.9"
        assert (point / "policy.csv").read_bytes() == (solo / "policy.csv").read_bytes()
        assert payload["points"]["0.9"]["ok"]

    def test_multi_value_frontier_table(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "alpha", "--values", "0.05,0.1",
        )
        assert code == 0
        table = (tmp_path / "sw" / "frontiers.csv").read_text().splitlines()
        assert table[0] == "axis,value,delta,transmit_threshold,renew_threshold"
        assert len(table) == 1 + 2 * 30
        assert (tmp_path / "sw" / "sweep_summary.json").exists()

    def test_decay_rate_sweep_flips_monotonicity_verdict(self, tmp_path, capsys):
        # Sweeping the decay rate over the marginal benchmark produces one
        # instance whose policy is monotone in the information age and one
        # whose policy is not; the verdicts come from verifying the sweep's
        # own artifacts.
        sweep_out = tmp_path / "sw"
        code, _ = run_cli(
            capsys, "sweep", "--config", CONFIG_DIR / "benchmark-marginal.yaml",
            "--out", sweep_out, "--axis", "alpha", "--values", "0.05,0.1",
        )
        assert code == 0
        verdicts = {}
        for value in ("0.05", "0.1"):
            point = sweep_out / f"alpha={value}"
            code, payload = run_cli(
                capsys, "verify",
                "--config", CONFIG_DIR / "benchmark-marginal.yaml",
                "--set", f"channel.alpha={value}",
                "--out", tmp_path / f"v{value}",
                "--policy", point / "policy.csv", "--value", point / "value.csv",
            )
            assert code == 0
            kinds = {c["kind"]: c for c in payload["checks"]}
            verdicts[value] = kinds["policy-monotone-aoi"]["passed"]
        assert verdicts == {"0.05": False, "0.1": True}

    def test_beta_sweep_requires_parametric_family(self, tmp_path, capsys):
        text = CONFIG.replace(
            "system:\n  beta: 0.9",
            "system:\n  a: [[0.5]]\n  c: [[1.0]]\n  q: [[1.0]]\n  r: [[1.0]]",
        )
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        code, payload = run_cli(
            capsys, "sweep", "--config", p, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", "0.9,1.0",
        )
        assert code == 5  # per-point failures recorded, sweep completes
        assert not payload["points"]["0.9"]["ok"]

    def test_parallel_jobs(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "swj",
            "--axis", "beta", "--values", "0.9,1.0", "--jobs", "2",
        )
        assert code == 0
        assert all(p["ok"] for p in payload["points"].values())


    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("values", ["0.9,0.9", "0.9,0.9000001,0.9"])
    def test_colliding_labels_rejected_before_solving(self, cfg_path, tmp_path, capsys, values, jobs):
        # 0.9000001 formats as "0.9" under the six significant digits of the
        # point labels, so it would share beta=0.9/ and its summary key.
        out = tmp_path / "sw"
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", out,
            "--axis", "beta", "--values", values, "--jobs", jobs,
        )
        assert code == 2
        assert payload["error"]["field"] == "sweep.values"
        assert "0.9" in payload["error"]["message"]
        assert not out.exists()

    def test_near_values_with_distinct_labels_kept(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", "0.9,0.900001",
        )
        assert code == 0
        assert sorted(payload["points"]) == ["0.9", "0.900001"]
        assert payload["points"]["0.900001"]["directory"] == "beta=0.900001"


def test_config_echo_reruns_bit_identically(cfg_path, tmp_path, capsys):
    out1 = tmp_path / "first"
    _, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out", out1)
    echo_path = tmp_path / "echo.yaml"
    echo_path.write_text(yaml.safe_dump(payload["config"]))
    out2 = tmp_path / "second"
    code, _ = run_cli(capsys, "solve", "--config", echo_path, "--out", out2)
    assert code == 0
    assert (out1 / "policy.csv").read_bytes() == (out2 / "policy.csv").read_bytes()
    assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
