"""Experiment configuration: type checks on loaded values and the layering
of mode defaults, file values and explicit values."""

import pytest

from netdecide.config import ConfigError, ExperimentConfig


@pytest.mark.parametrize("values", [
    {"n_agents": "80"},
    {"max_iters": 10.5, "t_hold": 5},
    {"n_trials": True},
    {"radius": "0.2"},
    {"early_stop": 1},
    {"model_range": [-1.0]},
    {"reassign_at": [2.5]},
    {"mode": ["decide"]},
])
def test_from_dict_rejects_values_of_the_wrong_type(values):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(values)


def test_from_dict_accepts_json_numbers():
    config = ExperimentConfig.from_dict(
        {"n_agents": 40, "radius": 1, "model_range": [-2, 2],
         "reassign_at": [10, 20], "target_agent": None})
    assert config.model_range == (-2, 2)
    assert config.reassign_at == (10, 20)


@pytest.mark.parametrize("mode", sorted(ExperimentConfig.MODE_DEFAULTS))
def test_config_survives_json_round_trip(mode):
    config = ExperimentConfig.for_mode(mode, reassign_at=(3, 9))
    assert ExperimentConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("mode", sorted(ExperimentConfig.MODE_DEFAULTS))
def test_partial_dict_layers_on_its_mode_defaults(mode):
    values = {"n_agents": 30, "max_iters": 60, "reassign_at": [7]}
    assert (ExperimentConfig.from_dict({"mode": mode, **values})
            == ExperimentConfig.for_mode(mode, **values))


def test_explicit_values_beat_file_values():
    config = ExperimentConfig.from_json('{"mode": "follow", "n_agents": 30}',
                                        mode="mobile", n_agents=12)
    assert config == ExperimentConfig.for_mode("mobile", n_agents=12)


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="colour"):
        ExperimentConfig.from_dict({"colour": "red"})
    with pytest.raises(ConfigError, match="colour"):
        ExperimentConfig.for_mode("decide", colour="red")


@pytest.mark.parametrize("goal_gain", [0.0, -0.5])
def test_mobile_rejects_a_goal_gain_that_is_not_positive(goal_gain):
    # the motion law divides by max(|blend|, goal_gain), so a gain of 0
    # turns the positions of an agent at its target NaN
    with pytest.raises(ConfigError, match="goal_gain"):
        ExperimentConfig.for_mode("mobile", goal_gain=goal_gain, n_agents=12,
                                  max_iters=40, t_hold=10, n_trials=1)


def test_negative_seed_is_rejected():
    # numpy's SeedSequence takes no negative entropy
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.for_mode("decide", seed=-1)
