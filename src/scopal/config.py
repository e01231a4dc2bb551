"""Experiment configuration: sectioned key-value files with a strict schema.

Files are INI-style; unknown sections or keys are errors (fail fast against
typos). Environment variables ``SCOPAL_<SECTION>_<KEY>`` override file
values, and CLI flags override both. Defaults follow the evaluated setup:
1000 interaction / 100 evaluation episodes, temperatures 0.7 / 0.2,
threshold 0.5, discount 0.8, 5 epochs, batch size 2, gradient accumulation
8, UCT c=2 with 1 rollout.

Runs are content-addressed: the run id is a hash of every result-affecting
setting plus the seed, so reruns land in the same directory and different
configs can never collide.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Mapping

from .agents import is_learner_spec, parse_spec
from .games import GAME_NAMES, get_game
from .refine import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# section -> key -> (attribute, parser)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "games": ("games", _parse_list),
        "seed": ("seed", int),
        "jobs": ("jobs", int),
        "out": ("out", str),
    },
    "interact": {
        "agent": ("agent", str),
        "opponent": ("opponent", str),
        "episodes": ("episodes", int),
        "temperature": ("interact_temperature", float),
        "move_bound": ("move_bound", int),
    },
    "rewards": {
        "estimator": ("estimator", str),
        "tie_weight": ("tie_weight", float),
        "gamma": ("gamma", float),
        "alpha0": ("alpha0", float),
        "beta0": ("beta0", float),
        "delta": ("delta", float),
        "min_count": ("min_count", int),
        "actors": ("actors", str),
    },
    "train": {
        "mode": ("mode", str),
        "learning_rate": ("learning_rate", float),
        "batch_size": ("batch_size", int),
        "grad_accum": ("grad_accum", int),
        "epochs": ("epochs", int),
        "beta": ("beta", float),
        "beta2": ("beta2", float),
        "balance_games": ("balance_games", _parse_bool),
    },
    "eval": {
        "opponents": ("eval_opponents", _parse_list),
        "episodes": ("eval_episodes", int),
        "temperature": ("eval_temperature", float),
    },
}

# settings that do not affect results are excluded from the run identity
_UNHASHED = {"seed", "jobs", "out"}


@dataclass
class ExperimentConfig:
    games: tuple[str, ...] = GAME_NAMES
    seed: int = 0
    jobs: int = 0  # 0 = available parallelism
    out: str = "runs"
    agent: str = "policy"
    opponent: str = "self"
    episodes: int = 1000
    interact_temperature: float = 0.7
    move_bound: int = 200
    estimator: str = "win_rate"
    tie_weight: float = 0.0
    gamma: float = 0.8
    alpha0: float = 1.0
    beta0: float = 1.0
    delta: float = 0.5
    min_count: int = 1
    actors: str = "learner"
    mode: str = "two_stage"
    learning_rate: float = 1e-2
    batch_size: int = 2
    grad_accum: int = 8
    epochs: int = 5
    beta: float = 0.1
    beta2: float = 0.2
    balance_games: bool = False
    eval_opponents: tuple[str, ...] = ("random", "mcts:100", "mcts:500", "mcts:1000")
    eval_episodes: int = 100
    eval_temperature: float = 0.2

    def validate(self) -> None:
        for name in self.games:
            get_game(name)  # raises UnknownGameError
        if self.jobs < 0:
            raise ConfigError("run.jobs must be >= 0 (0 = all cores)")
        if self.episodes < 1:
            raise ConfigError("interact.episodes must be >= 1")
        if self.interact_temperature <= 0 or self.eval_temperature <= 0:
            raise ConfigError("temperatures must be positive")
        if self.estimator not in ("win_rate", "discounted", "beta"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if not 0 < self.gamma < 1:
            raise ConfigError("rewards.gamma must lie in (0, 1)")
        if self.alpha0 <= 0 or self.beta0 <= 0:
            raise ConfigError("rewards.alpha0 and beta0 must be positive")
        if not math.isfinite(self.delta):
            raise ConfigError("rewards.delta must be finite")
        if self.actors not in ("learner", "all"):
            raise ConfigError("rewards.actors must be 'learner' or 'all'")
        if self.mode not in ("two_stage", "direct_kto", "joint", "bc_only", "bc_dpo", "spag"):
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.batch_size < 1 or self.grad_accum < 1 or self.epochs < 1:
            raise ConfigError("train.batch_size/grad_accum/epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("train.learning_rate must be positive")
        if not self.beta > 0:
            raise ConfigError("train.beta must be positive")
        if not self.beta2 >= 0:
            raise ConfigError("train.beta2 must be >= 0")
        if self.move_bound < 1:
            raise ConfigError("interact.move_bound must be >= 1")
        if self.eval_episodes < 2:
            raise ConfigError("eval.episodes must be >= 2: matches alternate seats in pairs")
        if not self.eval_opponents:
            raise ConfigError("eval.opponents must name at least one opponent")
        for setting, spec in [("interact.agent", self.agent),
                              ("interact.opponent", self.opponent),
                              *(("eval.opponents", s) for s in self.eval_opponents)]:
            try:
                parse_spec(spec)
            except ValueError as err:
                raise ConfigError(f"{setting}: {err}") from err
            if setting == "eval.opponents" and is_learner_spec(spec):
                raise ConfigError(f"eval.opponents: {spec!r} is the policy under training")

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                           grad_accum=self.grad_accum, epochs=self.epochs, beta=self.beta,
                           beta2=self.beta2, seed=seed, mode=self.mode)

    def estimator_kwargs(self) -> dict:
        return {"method": self.estimator, "tie_weight": self.tie_weight,
                "gamma": self.gamma, "alpha0": self.alpha0, "beta0": self.beta0}

    def resolved(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def config_hash(self) -> str:
        payload = {k: v for k, v in self.resolved().items() if k not in _UNHASHED}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:12]

    def run_id(self) -> str:
        return f"{self.config_hash()}-s{self.seed}"

    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


def load_config(path: str | None = None, env: Mapping[str, str] | None = None,
                **overrides) -> ExperimentConfig:
    """Resolve file -> environment -> explicit overrides, then validate."""
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                attr, parse = SCHEMA[section][key]
                try:
                    values[attr] = parse(raw)
                except ConfigError:
                    raise
                except ValueError as err:
                    raise ConfigError(f"[{section}] {key}: {err}") from err
    env = os.environ if env is None else env
    for section, keys in SCHEMA.items():
        for key, (attr, parse) in keys.items():
            var = f"SCOPAL_{section.upper()}_{key.upper()}"
            if var in env:
                try:
                    values[attr] = parse(env[var])
                except ValueError as err:
                    raise ConfigError(f"{var}: {err}") from err
    for attr, value in overrides.items():
        if value is not None:
            values[attr] = value
    config = ExperimentConfig(**values)
    try:
        config.validate()
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(str(err)) from err
    return config
