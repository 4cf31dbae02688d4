import numpy as np
import pytest
import yaml

from helpers import ECHO_CONFIGS
from wearsched import ChannelModel, ConfigError, SystemModel, Truncation
from wearsched.config import SimulateConfig, load_config, validate_config_dict

BASE = """
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
"""


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.method == "rvi"
    assert cfg.simulate.epochs == 100_000


def test_benchmark_family_matrices(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    model = cfg.system
    np.testing.assert_array_equal(model.A, [[0.9, 0.5], [0.0, 0.8]])
    np.testing.assert_array_equal(model.C, [[1.0, 1.0]])
    np.testing.assert_array_equal(model.Q, np.eye(2))
    ch = cfg.channel
    assert ch.tau_d == 6 and ch.delta_r == 15


def test_explicit_matrices(tmp_path):
    text = """
system:
  a: [[0.5, 0.1], [0.0, 0.4]]
  c: [[1.0, 0.0], [0.0, 1.0]]
  q: [[1.0, 0.0], [0.0, 1.0]]
  r: [[1.0, 0.0], [0.0, 1.0]]
channel: {theta_max: 0.9, theta_min: 0.1, alpha: 0.2, tau_d: 3, delta_r: 4}
truncation: {tau_max: 10, delta_max: 10}
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.system.A[0, 1] == 0.1


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, BASE + "\nbogus: {}\n"))
    assert exc_info.value.field == "bogus"


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, BASE.replace("alpha: 0.1", "alpha: 0.1\n  fade: 2")))
    assert exc_info.value.field == "channel.fade"


def test_missing_section_rejected(tmp_path):
    text = BASE.replace("truncation:\n  tau_max: 30\n  delta_max: 30\n", "")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, text))
    assert exc_info.value.field == "truncation"


def test_theta_order_names_field(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, BASE), overrides=["channel.theta_min=0.999"])
    assert exc_info.value.field == "channel.theta_min"


def test_overrides(tmp_path):
    cfg = load_config(
        write(tmp_path, BASE),
        overrides=["channel.alpha=0.05", "system.beta=1.1"],
    )
    assert cfg.channel.alpha == 0.05
    assert cfg.echo["system"]["beta"] == 1.1
    assert cfg.system.A[0, 0] == 1.1


def test_bad_override_shape(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE), overrides=["no-equals-sign"])


@pytest.mark.parametrize(
    "override, field, need",
    [
        ("truncation.tau_max=6", "truncation.tau_max", 7),  # tau_d = 6
        ("truncation.delta_max=15", "truncation.delta_max", 16),  # delta_r = 15
        ("channel.tau_d=30", "truncation.tau_max", 31),
        ("channel.delta_r=30", "truncation.delta_max", 31),
    ],
)
def test_grid_without_headroom_names_its_bound(tmp_path, override, field, need):
    with pytest.raises(ConfigError, match="headroom") as exc_info:
        load_config(write(tmp_path, BASE), overrides=[override])
    assert exc_info.value.field == field
    assert f"need >= {need}" in str(exc_info.value)


def test_grid_with_exact_headroom_is_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE), overrides=["truncation.tau_max=7", "truncation.delta_max=16"])
    assert cfg.truncation.n_states == 7 * 16


@pytest.mark.parametrize("method", ["rvi", "spi", "threshold-heuristic"])
def test_tau_renew_is_an_unknown_key(tmp_path, method):
    # The threshold heuristic always searches every renewal threshold.
    with pytest.raises(ConfigError, match="unknown key") as exc_info:
        load_config(
            write(tmp_path, BASE), overrides=[f"solver.method={method}", "solver.tau_renew=5"]
        )
    assert exc_info.value.field == "solver.tau_renew"


def test_solver_method_validated(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, BASE), overrides=["solver.method=newton"])
    assert exc_info.value.field == "solver.method"


def test_config_echo_revalidates(tmp_path):
    cfg = load_config(write(tmp_path, BASE), overrides=["channel.alpha=5e-2"])
    again = validate_config_dict(cfg.echo)
    assert again.echo == cfg.echo


@pytest.mark.parametrize("config", ECHO_CONFIGS, ids=lambda p: p.stem)
def test_config_echo_revalidates_on_every_config(config):
    cfg = load_config(config)
    again = validate_config_dict(yaml.safe_load(yaml.safe_dump(cfg.echo)))
    assert again.echo == cfg.echo


def test_every_optional_key_is_echoed_as_written():
    config = ECHO_CONFIGS[-1]
    assert load_config(config).echo == yaml.safe_load(config.read_text())


def test_load_config_returns_the_built_models(tmp_path):
    cfg = load_config(write(tmp_path, BASE), overrides=["simulate.seed=3"])
    assert type(cfg.system) is SystemModel
    np.testing.assert_array_equal(cfg.system.R, [[1.0]])
    assert cfg.channel == ChannelModel(theta_max=0.99, theta_min=0.0, alpha=0.1, tau_d=6, delta_r=15)
    assert cfg.truncation == Truncation(30, 30)
    assert cfg.simulate == SimulateConfig(seed=3)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.yaml")


@pytest.mark.parametrize("entry", [".nan", ".inf"])
def test_model_error_names_field_once(tmp_path, entry):
    text = f"""
system:
  a: [[{entry}, 0.5], [0.0, 0.8]]
  c: [[1.0, 1.0]]
  q: [[1.0, 0.0], [0.0, 1.0]]
  r: [[1.0]]
channel: {{theta_max: 0.9, theta_min: 0.1, alpha: 0.2, tau_d: 3, delta_r: 4}}
truncation: {{tau_max: 10, delta_max: 10}}
"""
    with pytest.raises(ConfigError) as exc_info:
        load_config(write(tmp_path, text))
    assert exc_info.value.field == "system"
    assert str(exc_info.value).startswith("system: ")
    assert not exc_info.value.reason.startswith("system:")
