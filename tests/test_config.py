"""Config loading: file < environment < flag precedence, the strict schema,
and the rejections made at load time, before any stage runs."""
import os
import re
from dataclasses import fields

import pytest

from scopal.cli import main
from scopal.config import SCHEMA, ConfigError, ExperimentConfig, load_config
from scopal.games import GAME_NAMES
from scopal.policy import new_policy


@pytest.fixture
def config_file(tmp_path):
    def write(text):
        path = tmp_path / "experiment.ini"
        path.write_text(text)
        return str(path)
    return write


def test_file_then_environment_then_flag(config_file):
    path = config_file("[run]\nseed = 1\ngames = nim\n[interact]\nepisodes = 7\n")
    assert load_config(path, env={}).seed == 1
    config = load_config(path, env={"SCOPAL_RUN_SEED": "2"})
    assert (config.seed, config.episodes, config.games) == (2, 7, ("nim",))
    assert load_config(path, env={"SCOPAL_RUN_SEED": "2"}, seed=3).seed == 3
    # an unset flag (None) leaves the lower layers alone
    assert load_config(path, env={"SCOPAL_RUN_SEED": "2"}, seed=None).seed == 2


def test_unknown_section_and_key_are_errors(config_file):
    with pytest.raises(ConfigError, match=r"unknown config section \[nope\]"):
        load_config(config_file("[nope]\nx = 1\n"), env={})
    with pytest.raises(ConfigError, match=r"unknown key 'epsiodes' in section \[interact\]"):
        load_config(config_file("[interact]\nepsiodes = 3\n"), env={})
    # the ply cap is each game's max_moves, not a setting
    with pytest.raises(ConfigError, match=r"unknown key 'move_bound' in section \[interact\]"):
        load_config(config_file("[interact]\nmove_bound = 50\n"), env={})


def test_unparsable_values_are_errors(config_file):
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        load_config(config_file("[run]\nseed = one\n"), env={})
    with pytest.raises(ConfigError,
                       match=r"\[train\] balance_games: expected a boolean, got 'maybe'"):
        load_config(config_file("[train]\nbalance_games = maybe\n"), env={})
    with pytest.raises(ConfigError, match="SCOPAL_TRAIN_BALANCE_GAMES"):
        load_config(None, env={"SCOPAL_TRAIN_BALANCE_GAMES": "maybe"})


# every setting: (section, key, field), a value that is not its default, and that value parsed
SETTINGS = [
    ("run", "games", "games", "nim,tictactoe", ("nim", "tictactoe")),
    ("run", "seed", "seed", "5", 5),
    ("run", "jobs", "jobs", "3", 3),
    ("run", "out", "out", "elsewhere", "elsewhere"),
    ("interact", "agent", "agent", "random", "random"),
    ("interact", "opponent", "opponent", "mcts:5", "mcts:5"),
    ("interact", "episodes", "episodes", "7", 7),
    ("interact", "temperature", "interact_temperature", "0.5", 0.5),
    ("rewards", "estimator", "estimator", "beta", "beta"),
    ("rewards", "tie_weight", "tie_weight", "0.5", 0.5),
    ("rewards", "gamma", "gamma", "0.9", 0.9),
    ("rewards", "alpha0", "alpha0", "2", 2.0),
    ("rewards", "beta0", "beta0", "3", 3.0),
    ("rewards", "delta", "delta", "0.25", 0.25),
    ("rewards", "min_count", "min_count", "2", 2),
    ("rewards", "actors", "actors", "all", "all"),
    ("train", "mode", "mode", "bc_only", "bc_only"),
    ("train", "learning_rate", "learning_rate", "0.05", 0.05),
    ("train", "batch_size", "batch_size", "4", 4),
    ("train", "grad_accum", "grad_accum", "2", 2),
    ("train", "epochs", "epochs", "3", 3),
    ("train", "beta", "beta", "0.3", 0.3),
    ("train", "beta2", "beta2", "0.1", 0.1),
    ("train", "balance_games", "balance_games", "yes", True),
    ("eval", "opponents", "eval_opponents", "random,mcts:5", ("random", "mcts:5")),
    ("eval", "episodes", "eval_episodes", "4", 4),
    ("eval", "temperature", "eval_temperature", "0.3", 0.3),
]


def test_jobs_zero_counts_the_cores_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert ExperimentConfig(jobs=0).effective_jobs() == 1
    assert ExperimentConfig(jobs=3).effective_jobs() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
    assert ExperimentConfig(jobs=0).effective_jobs() == 64


def test_the_schema_names_every_field_once():
    derived = [(section, key, attr) for section, keys in SCHEMA.items()
               for key, (attr, _) in keys.items()]
    assert derived == [row[:3] for row in SETTINGS]
    assert sorted(attr for _, _, attr in derived) == sorted(
        f.name for f in fields(ExperimentConfig))
    # the run id hashes every field name and default
    assert ExperimentConfig().run_id() == "34798113f862-s0"


@pytest.mark.parametrize("section, key, attr, text, value", SETTINGS)
def test_every_setting_is_read_from_file_and_environment(config_file, section, key, attr,
                                                         text, value):
    assert getattr(ExperimentConfig(), attr) != value
    path = config_file(f"[{section}]\n{key} = {text}\n")
    assert getattr(load_config(path, env={}), attr) == value
    variable = f"SCOPAL_{section.upper()}_{key.upper()}"
    assert getattr(load_config(None, env={variable: text}), attr) == value


def test_agent_specs_that_parse_are_accepted(tmp_path):
    checkpoint = tmp_path / "ckpt.json"
    new_policy(GAME_NAMES).save(checkpoint)
    config = load_config(None, env={
        "SCOPAL_INTERACT_OPPONENT": f"policy:{checkpoint}",
        "SCOPAL_EVAL_OPPONENTS": f"random,mcts:1,policy:{checkpoint}"})
    assert config.eval_opponents == ("random", "mcts:1", f"policy:{checkpoint}")


# a rejected value for each setting with a rule, and for the list and agent checks
BAD_SETTINGS = [
    ("SCOPAL_EVAL_EPISODES", "1", "eval.episodes must be >= 2"),
    ("SCOPAL_EVAL_OPPONENTS", "random,mcts:x", "eval.opponents: unknown agent spec 'mcts:x'"),
    ("SCOPAL_EVAL_OPPONENTS", "mcts:0", "eval.opponents: unknown agent spec 'mcts:0'"),
    ("SCOPAL_EVAL_OPPONENTS", "randm", "eval.opponents: unknown agent spec 'randm'"),
    ("SCOPAL_EVAL_OPPONENTS", "self", "eval.opponents: 'self' is the policy under training"),
    ("SCOPAL_EVAL_OPPONENTS", ",", "eval.opponents must name at least one opponent"),
    ("SCOPAL_EVAL_OPPONENTS", "policy:missing.json",
     "eval.opponents: unknown agent spec 'policy:missing.json'"),
    ("SCOPAL_INTERACT_AGENT", "mcts:-5", "interact.agent: unknown agent spec 'mcts:-5'"),
    ("SCOPAL_INTERACT_OPPONENT", "policy:", "interact.opponent: unknown agent spec 'policy:'"),
    ("SCOPAL_INTERACT_OPPONENT", "policy:missing.json",
     "interact.opponent: unknown agent spec 'policy:missing.json'"),
    ("SCOPAL_REWARDS_DELTA", "nan", "rewards.delta must be finite"),
    ("SCOPAL_REWARDS_DELTA", "-inf", "rewards.delta must be finite"),
    ("SCOPAL_TRAIN_LEARNING_RATE", "0", "train.learning_rate must be positive"),
    ("SCOPAL_TRAIN_LEARNING_RATE", "nan", "train.learning_rate must be finite"),
    ("SCOPAL_TRAIN_BETA", "0", "train.beta must be positive"),
    ("SCOPAL_TRAIN_BETA2", "-0.1", "train.beta2 must be >= 0"),
    ("SCOPAL_RUN_JOBS", "-3", "run.jobs must be >= 0"),
    ("SCOPAL_RUN_GAMES", ",", "run.games must name at least one game"),
    ("SCOPAL_RUN_GAMES", "nim,nim", "run.games: 'nim' is listed more than once"),
    ("SCOPAL_EVAL_OPPONENTS", "random,mcts:5,random",
     "eval.opponents: 'random' is listed more than once"),
    ("SCOPAL_EVAL_OPPONENTS", "mcts:5,mcts:05", "eval.opponents: unknown agent spec 'mcts:05'"),
    ("SCOPAL_EVAL_TEMPERATURE", "nan", "eval.temperature must be finite"),
    ("SCOPAL_REWARDS_TIE_WEIGHT", "nan", "rewards.tie_weight must be finite"),
    ("SCOPAL_REWARDS_TIE_WEIGHT", "5.0", re.escape("rewards.tie_weight must lie in [0, 1]")),
    ("SCOPAL_REWARDS_TIE_WEIGHT", "-0.5", re.escape("rewards.tie_weight must lie in [0, 1]")),
    ("SCOPAL_REWARDS_MIN_COUNT", "-3", "rewards.min_count must be >= 1"),
    ("SCOPAL_REWARDS_MIN_COUNT", "0", "rewards.min_count must be >= 1"),
    ("SCOPAL_TRAIN_BETA", "inf", "train.beta must be finite"),
    ("SCOPAL_INTERACT_EPISODES", "0", "interact.episodes must be >= 1, got 0"),
    ("SCOPAL_INTERACT_TEMPERATURE", "0", "interact.temperature must be positive, got 0.0"),
    ("SCOPAL_EVAL_TEMPERATURE", "-1", "eval.temperature must be positive, got -1.0"),
    ("SCOPAL_REWARDS_GAMMA", "1", re.escape("rewards.gamma must lie in (0, 1), got 1.0")),
    ("SCOPAL_REWARDS_ALPHA0", "0", "rewards.alpha0 must be positive, got 0.0"),
    ("SCOPAL_REWARDS_BETA0", "-1", "rewards.beta0 must be positive, got -1.0"),
    ("SCOPAL_REWARDS_ESTIMATOR", "mean",
     "rewards.estimator must be one of win_rate, discounted, beta, got 'mean'"),
    ("SCOPAL_REWARDS_ACTORS", "both", "rewards.actors must be one of learner, all, got 'both'"),
    ("SCOPAL_TRAIN_MODE", "kto", "train.mode must be one of two_stage, .*, got 'kto'"),
    ("SCOPAL_TRAIN_BATCH_SIZE", "0", "train.batch_size must be >= 1, got 0"),
    ("SCOPAL_TRAIN_GRAD_ACCUM", "0", "train.grad_accum must be >= 1, got 0"),
    ("SCOPAL_TRAIN_EPOCHS", "0", "train.epochs must be >= 1, got 0"),
    ("SCOPAL_EVAL_OPPONENTS", "random,,mcts:5", "eval.opponents: entry 2 is empty"),
    ("SCOPAL_RUN_GAMES", "nim,,tictactoe", "run.games: entry 2 is empty"),
    ("SCOPAL_RUN_GAMES", "nim,chess",
     re.escape("run.games: unknown game 'chess'; supported: ['breakthrough', ")),
]


def test_every_rule_has_a_rejected_value():
    variables = {variable for variable, _, _ in BAD_SETTINGS}
    for f in fields(ExperimentConfig):
        if f.metadata["rule"]:
            key = f.metadata["key"] or f.name
            assert f"SCOPAL_{f.metadata['section']}_{key}".upper() in variables, f.name


@pytest.mark.parametrize("variable, value, message", BAD_SETTINGS)
def test_bad_settings_are_rejected_when_they_load(tmp_path, monkeypatch, capsys,
                                                  variable, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(None, env={variable: value})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(variable, value)
    out = tmp_path / "runs"
    assert main(["--out", str(out), "pipeline"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and re.search(message, err)
    section, key = variable.removeprefix("SCOPAL_").lower().split("_", 1)
    assert f"{section}.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("env", [{}, {"SCOPAL_REWARDS_ACTORS": "all",
                                      "SCOPAL_TRAIN_MODE": "spag"}],
                         ids=["actors-learner", "mode-spag"])
def test_a_config_whose_learner_never_plays_is_rejected_when_it_loads(tmp_path, monkeypatch,
                                                                      capsys, env):
    env = {"SCOPAL_RUN_GAMES": "nim", "SCOPAL_INTERACT_AGENT": "random",
           "SCOPAL_INTERACT_OPPONENT": "mcts:5", **env}
    message = "interact.agent = 'random' and interact.opponent = 'mcts:5': "
    with pytest.raises(ConfigError, match=message):
        load_config(None, env=env)
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "runs"
    assert main(["--out", str(out), "interact"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # with every seat's steps labelled, Stage II learns from any pair of agents
    env["SCOPAL_REWARDS_ACTORS"], env["SCOPAL_TRAIN_MODE"] = "all", "two_stage"
    assert load_config(None, env=env).agent == "random"


@pytest.mark.parametrize("variable, setting", [("SCOPAL_INTERACT_AGENT", "interact.agent"),
                                               ("SCOPAL_INTERACT_OPPONENT", "interact.opponent"),
                                               ("SCOPAL_EVAL_OPPONENTS", "eval.opponents")])
def test_a_checkpoint_without_a_run_game_is_rejected_when_it_loads(tmp_path, monkeypatch, capsys,
                                                                   variable, setting):
    checkpoint = tmp_path / "nim.json"
    new_policy(["nim"]).save(checkpoint)
    env = {"SCOPAL_RUN_GAMES": "nim,tictactoe", variable: f"policy:{checkpoint}"}
    message = f"{setting}: {checkpoint} has no parameters for game 'tictactoe'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(None, env=env)
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "runs"
    assert main(["--out", str(out), "interact"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_balancing_games_under_spag_is_rejected_when_it_loads(tmp_path, monkeypatch, capsys):
    """spag trains on every step of the store, not on a labelled set, so it has
    nothing to balance; the setting would only change the run id."""
    env = {"SCOPAL_RUN_GAMES": "nim", "SCOPAL_TRAIN_MODE": "spag",
           "SCOPAL_TRAIN_BALANCE_GAMES": "true"}
    message = "train.balance_games = true and train.mode = spag: "
    with pytest.raises(ConfigError, match=message):
        load_config(None, env=env)
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "runs"
    assert main(["--out", str(out), "pipeline"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    env["SCOPAL_TRAIN_MODE"] = "two_stage"
    assert load_config(None, env=env).balance_games
