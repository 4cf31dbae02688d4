import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import ECHO_CONFIGS
from wearsched import ConfigError, Policy, build_mdp, check_submodular, interior_region, q_backup
from wearsched.artifacts import read_value_csv, write_policy_csv, write_q_csv
from wearsched.cli import _report_dict, main, run_sweep
from wearsched.config import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

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


class InProcessPool:
    """Stand-in for the sweep's process pool that runs the points in this
    process and starts no worker: a real pool forks all its workers at the
    first submit."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_output_directory_defaults_to_out(self, cfg_path, tmp_path, capsys, monkeypatch):
        # --out alone sets the directory; the environment does not.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WEARSCHED_OUT", str(tmp_path / "env"))
        code, _ = run_cli(capsys, "solve", "--config", cfg_path)
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert not (tmp_path / "env").exists()

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
        result = payload["result"]
        assert result["skipped_q_evals"] > 0
        # Below 160x160 SPI solves the configured grid alone.
        assert result["continuation"] == [[30, 30, result["iterations"]]]

    @pytest.mark.parametrize("method", ["rvi", "threshold-heuristic"])
    def test_continuation_is_null_without_spi(self, cfg_path, tmp_path, capsys, method):
        code, payload = run_cli(
            capsys, "solve", "--config", cfg_path, "--out", tmp_path / "x",
            "--set", f"solver.method={method}",
        )
        assert code == 0
        assert payload["result"]["continuation"] is None

    @pytest.mark.parametrize("method", ["rvi", "spi"])
    def test_tau_renew_outside_the_heuristic_exit_2(self, cfg_path, tmp_path, capsys, method):
        # No method takes a fixed renewal threshold (test_config covers the
        # heuristic too).
        out = tmp_path / "x"
        code, payload = run_cli(
            capsys, "solve", "--config", cfg_path, "--out", out,
            "--set", f"solver.method={method}", "--set", "solver.tau_renew=5",
        )
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert payload["error"]["field"] == "solver.tau_renew"
        assert "unknown key" in payload["error"]["message"]
        assert not out.exists()

    def test_malformed_config_exit_2(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "solve", "--config", cfg_path, "--out", tmp_path / "x",
            "--set", "channel.theta_min=2.0",
        )
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert "theta_min" in payload["error"]["field"]

    @pytest.mark.parametrize(
        "override",
        [
            "simulate.epochs=.inf",
            "truncation.tau_max=.inf",
            "simulate.seed=.nan",
        ],
    )
    def test_non_finite_number_exit_2(self, cfg_path, tmp_path, capsys, override):
        out = tmp_path / "x"
        code, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out", out, "--set", override)
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert payload["error"]["field"] == override.split("=")[0]
        assert not out.exists()


    @pytest.mark.parametrize(
        "override, field",
        [("truncation.tau_max=5", "truncation.tau_max"), ("truncation.delta_max=15", "truncation.delta_max")],
    )
    def test_grid_without_headroom_exit_2(self, tmp_path, capsys, override, field):
        # benchmark-marginal's wear step (tau_d = 6) and renewal downtime
        # (delta_r = 15) need 7 channel and 16 information ages.
        out = tmp_path / "x"
        code, payload = run_cli(
            capsys, "solve", "--config", CONFIG_DIR / "benchmark-marginal.yaml", "--out", out, "--set", override
        )
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert payload["error"]["field"] == field
        assert "headroom" in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        ["solver.ref_state=[1, 1]", "output.formats=[csv]", "output.directory=x", "solver.tol=1e-9", "solver.max_iter=10"],
    )
    def test_removed_keys_exit_2(self, cfg_path, tmp_path, capsys, override):
        # Relative values are anchored at (1, 1), the CSVs always written,
        # RVI stops at SolveOptions' defaults, and --out alone sets the
        # output directory, so the output section is gone.
        key = override.split("=")[0]
        field, message = ("output", "unknown section") if key.startswith("output.") else (key, "unknown key")
        code, payload = run_cli(capsys, "solve", "--config", cfg_path, "--out", tmp_path / "x", "--set", override)
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert payload["error"]["field"] == field
        assert payload["error"]["message"].endswith(message)


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

    def test_q_artifact_alone_exit_3(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "v"
        code, payload = run_cli(
            capsys, "verify", "--config", cfg_path, "--out", out, "--q", tmp_path / "nope.csv",
        )
        assert code == 3
        assert payload["error"]["kind"] == "missing-artifact"
        assert not (out / "verify.json").exists()

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


@pytest.mark.parametrize("method", ["rvi", "spi", "threshold-heuristic"])
@pytest.mark.parametrize("name", ["benchmark-marginal", "heavy-wear"])
def test_q_factors_are_derived_from_the_values(name, method, tmp_path, capsys):
    # At 16x16, the smallest grid with headroom for both configs' renewal
    # downtime of 15: solve --emit-q writes the backup of the values it
    # writes, and verify without --q checks the Q-factors it would read.
    config = CONFIG_DIR / f"{name}.yaml"
    overrides = [f"solver.method={method}", "truncation.tau_max=16", "truncation.delta_max=16"]
    common = ["--config", config, *(a for o in overrides for a in ("--set", o))]
    run = tmp_path / "run"
    code, _ = run_cli(capsys, "solve", *common, "--out", run, "--emit-q")
    assert code == 0
    cfg = load_config(config, overrides)
    mdp = build_mdp(cfg.system, cfg.channel, cfg.truncation)
    write_q_csv(tmp_path / "q.csv", q_backup(mdp, read_value_csv(run / "value.csv")))
    assert (run / "q.csv").read_bytes() == (tmp_path / "q.csv").read_bytes()
    reports = []
    for extra in ([], ["--q", run / "q.csv"]):
        out = tmp_path / f"verify{len(extra)}"
        code, _ = run_cli(
            capsys, "verify", *common, "--out", out,
            "--policy", run / "policy.csv", "--value", run / "value.csv", *extra,
        )
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        del report["timings_s"]
        reports.append(report)
    assert reports[0] == reports[1]


class TestSimulate:
    def test_optimal_policy_matches_gain(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(capsys, "simulate", "--config", cfg_path, "--out", tmp_path / "s")
        assert code == 0
        lam = payload["lambda"]
        pooled = payload["pooled"]
        assert abs(pooled["mean_per_epoch_avg_cost"] - lam) <= 4 * pooled["pooled_std_error"]
        assert len(payload["replications"]) == 2
        assert payload["replications"][0]["stream"] == 0

    def test_timings_per_stage(self, cfg_path, tmp_path, capsys):
        # The policy's stage is named for how it was obtained; the stages
        # add up to the total.
        run_cli(capsys, "solve", "--config", cfg_path, "--out", tmp_path / "run")
        for extra, stage in [([], "solve"), (["--policy", tmp_path / "run" / "policy.csv"], "read")]:
            code, payload = run_cli(capsys, "simulate", "--config", cfg_path, "--out", tmp_path / stage, *extra)
            assert code == 0
            timings = json.loads((tmp_path / stage / "simulate.json").read_text())["timings_s"]
            assert list(timings) == ["build", stage, "simulate", "write", "total"]
            assert timings == payload["timings_s"]
            assert all(t >= 0.0 for t in timings.values())
            assert sum(timings.values()) - timings["total"] == pytest.approx(timings["total"], abs=1e-9)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cost_total_exit_5(self, tmp_path, capsys):
        # Idling at beta = 3 drives the per-epoch cost towards the float
        # range, so the exactly-rounded cost total overflows inside fsum.
        # That total alone decides exit 5: the batch means that overflow
        # first raise no numpy warning.
        policy = tmp_path / "policy.csv"
        write_policy_csv(policy, Policy(actions=np.zeros((8, 322), dtype=np.int8)))
        code, payload = run_cli(
            capsys, "simulate", "--config", CONFIG_DIR / "benchmark-stable.yaml",
            "--out", tmp_path / "s", "--policy", policy,
            "--set", "system.beta=3", "--set", "truncation.tau_max=8", "--set", "truncation.delta_max=322",
            "--set", "channel.tau_d=2", "--set", "channel.delta_r=2", "--set", "simulate.epochs=1000",
        )
        assert code == 5
        assert payload["error"]["code"] == 5
        assert payload["error"]["kind"] == "solver"
        assert not (tmp_path / "s" / "simulate.json").exists()


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

    def test_point_without_headroom_is_its_config_error(self, cfg_path, tmp_path, capsys):
        # tau_max = 30 leaves room for a wear step of 6 but not of 40: that
        # point records its configuration error, and the other is solved.
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "tau_d", "--values", "40,6",
        )
        assert code == 5
        assert payload["points"]["6"]["ok"]
        failed = payload["points"]["40"]
        assert not failed["ok"]
        assert failed["error"].startswith("ConfigError: truncation.tau_max: ")
        assert "headroom" in failed["error"]
        assert (tmp_path / "sw" / "tau_d=6" / "policy.csv").exists()

    def test_parallel_jobs(self, cfg_path, tmp_path, capsys):
        # beta=0.9 finishes first, yet the points are listed in --values order.
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "swj",
            "--axis", "beta", "--values", "1.0,0.9", "--jobs", "2",
        )
        assert code == 0
        assert all(p["ok"] for p in payload["points"].values())
        summary = json.loads((tmp_path / "swj" / "sweep_summary.json").read_text())
        assert list(payload["points"]) == list(summary["points"]) == ["1", "0.9"]

    def test_pooled_policy_evaluation_matches_serial(self, cfg_path, tmp_path, capsys):
        # The threshold heuristic evaluates policies, so each forked worker
        # runs policy_evaluate with the modules the parent loaded.
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = out = tmp_path / f"jobs{jobs}"
            code, _ = run_cli(
                capsys, "sweep", "--config", cfg_path, "--out", out,
                "--set", "solver.method=threshold-heuristic",
                "--set", "truncation.tau_max=20", "--set", "truncation.delta_max=20",
                "--axis", "beta", "--values", "1.0,0.9", "--jobs", jobs,
            )
            assert code == 0
        for name in ("sweep_summary.json", "beta=1/policy.csv", "beta=0.9/policy.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_solving(self, cfg_path, tmp_path, capsys, jobs):
        out = tmp_path / "sw"
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", out,
            "--axis", "beta", "--values", "0.9", "--jobs", jobs,
        )
        assert code == 2
        assert payload["error"]["field"] == "sweep.jobs"
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs,values,pools", [("500", "0.9,1.0", [2]), ("2", "0.9", []), ("1", "0.9,1.0", [])]
    )
    def test_pool_sized_by_point_count(self, cfg_path, tmp_path, capsys, monkeypatch, jobs, values, pools):
        sizes = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            lambda max_workers: sizes.append(max_workers) or InProcessPool(),
        )
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", values, "--jobs", jobs,
        )
        assert code == 0
        assert sizes == pools
        assert list(payload["points"]) == [f"{float(v):g}" for v in values.split(",")]

    def test_broken_pool_is_a_runtime_error(self, cfg_path, tmp_path, capsys, monkeypatch):
        class BrokenPool(InProcessPool):
            def map(self, fn, *iterables):
                raise BrokenProcessPool("a worker process died")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: BrokenPool())
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", "0.9,1.0", "--jobs", "2",
        )
        assert code == 5
        assert payload["error"]["kind"] == "runtime"


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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("axis,values", [("tau_d", "5,6.7"), ("delta_r", "15.5")])
    def test_fractional_age_values_rejected_before_solving(
        self, cfg_path, tmp_path, capsys, axis, values, jobs
    ):
        # Wear and renewal downtime are whole numbers of slots; truncating
        # 6.7 would silently solve tau_d=6.
        out = tmp_path / "sw"
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", out,
            "--axis", axis, "--values", values, "--jobs", jobs,
        )
        assert code == 2
        assert payload["error"]["field"] == "sweep.values"
        assert values.split(",")[-1] in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis,values",
        [("beta", "nan,0.9"), ("alpha", "0.1,inf"), ("beta", "0.9,-inf"), ("tau_d", "6,inf"), ("delta_r", "nan")],
    )
    def test_non_finite_values_rejected_before_solving(self, cfg_path, tmp_path, capsys, axis, values):
        # A NaN point would also print as a bare NaN token, which is not JSON.
        # The integer axes check finiteness before integrality.
        out = tmp_path / "sw"
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", out, "--axis", axis, "--values", values,
        )
        assert code == 2
        assert payload["error"]["field"] == "sweep.values"
        assert payload["error"]["message"].startswith("sweep.values: sweep values must be finite; got ")
        assert not out.exists()

    def test_integral_age_values_keep_integer_labels(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "tau_d", "--values", "5,6.0",
        )
        assert code == 0
        assert payload["values"] == [5, 6]
        assert sorted(payload["points"]) == ["5", "6"]

    def test_library_sweep_rejects_fractional_age_values(self, cfg_path, tmp_path):
        # The same rule as the command line, before anything is solved.
        out = tmp_path / "sw"
        with pytest.raises(ConfigError) as exc_info:
            run_sweep(load_config(cfg_path), out, "tau_d", [6.7])
        assert exc_info.value.field == "sweep.values"
        assert exc_info.value.reason == "tau_d takes integer values; got 6.7"
        assert not out.exists()

    def test_near_values_with_distinct_labels_kept(self, cfg_path, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "sweep", "--config", cfg_path, "--out", tmp_path / "sw",
            "--axis", "beta", "--values", "0.9,0.900001",
        )
        assert code == 0
        assert sorted(payload["points"]) == ["0.9", "0.900001"]
        assert payload["points"]["0.900001"]["directory"] == "beta=0.900001"


def test_report_lists_only_the_shown_violations(case_stable):
    mdp = case_stable.mdp
    report = check_submodular(q_backup(mdp, case_stable.rvi.v), "aoc", interior_region(mdp.trunc, mdp.channel))
    listed = _report_dict(report)["violations"]
    assert "violations" not in report.__dict__  # the full list was never built
    assert report.count() > 50
    assert listed == [v._asdict() for v in report.violations[:50]]


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


@pytest.mark.parametrize("config", ECHO_CONFIGS, ids=lambda p: p.stem)
def test_config_echo_reruns_bit_identically_on_every_config(config, tmp_path, capsys):
    out1 = tmp_path / "first"
    code, payload = run_cli(capsys, "solve", "--config", config, "--out", out1)
    assert code == 0
    echo_path = tmp_path / "echo.yaml"
    echo_path.write_text(yaml.safe_dump(payload["config"]))
    out2 = tmp_path / "second"
    code, again = run_cli(capsys, "solve", "--config", echo_path, "--out", out2)
    assert code == 0
    assert again["config"] == payload["config"]
    assert again["result"] == payload["result"]
    for name in ("policy.csv", "value.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# Runs CLI commands in a fresh interpreter and prints, as one JSON list, the
# scipy modules loaded after importing the CLI and after each command.
COLD_START = """
import contextlib, io, json, sys
import wearsched.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _src_env() -> dict:
    """This environment with the source tree first on PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def scipy_after(*commands) -> list[list[str]]:
    """Scipy modules loaded in a new process after ``import wearsched.cli``
    and after each of ``commands``; this process may already hold scipy."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps([[str(a) for a in c] for c in commands])],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    def test_commands_without_policy_evaluation_load_no_scipy(self, cfg_path, tmp_path):
        run = tmp_path / "run"
        common = ["--config", cfg_path, "--set", "simulate.replications=1"]
        loaded = scipy_after(
            ["solve", *common, "--out", run, "--emit-q"],
            ["verify", *common, "--out", tmp_path / "verify", "--policy", run / "policy.csv",
             "--value", run / "value.csv", "--q", run / "q.csv"],
            ["simulate", *common, "--out", tmp_path / "sim", "--policy", run / "policy.csv"],
        )
        assert loaded == [[], [], [], []]

    def test_policy_evaluation_loads_scipy(self, cfg_path, tmp_path):
        # The guards here can fail: the heuristic's full search evaluates the
        # table that never renews by sparse factorization.
        before, after = scipy_after(
            ["solve", "--config", cfg_path, "--out", tmp_path / "heuristic",
             "--set", "solver.method=threshold-heuristic"]
        )
        assert before == []
        assert "scipy.sparse.linalg" in after

    def test_spi_loads_no_scipy(self, cfg_path, tmp_path):
        # SPI starts from idling everywhere, a policy that renews nowhere; and
        # only a heuristic sweep loads the factorization before its workers fork.
        spi = ["--config", cfg_path, "--set", "solver.method=spi"]
        loaded = scipy_after(
            ["solve", *spi, "--out", tmp_path / "spi"],
            ["sweep", *spi, "--out", tmp_path / "sweep", "--axis", "beta", "--values", "0.8,0.9", "--jobs", "2"],
        )
        assert loaded == [[], [], []]

    def test_renewal_closed_heuristic_loads_no_scipy(self):
        # Below tau_max every renewal threshold's tables renew at the last
        # channel age, so none needs the sparse LU; only the table that
        # never renews does.
        code = (
            "import json, sys\n"
            "from wearsched import build_mdp\n"
            "from wearsched.config import load_config\n"
            "from wearsched.solvers import _threshold_candidates\n"
            "cfg = load_config(sys.argv[1])\n"
            "mdp = build_mdp(cfg.system, cfg.channel, cfg.truncation)\n"
            "_threshold_candidates(mdp, list(range(mdp.shape[0])))\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(CONFIG_DIR / "benchmark-marginal.yaml")],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
