"""Experiment configuration: sectioned key-value files with a strict schema.

Each setting is declared once, as an ``ExperimentConfig`` field whose
metadata names its INI section (and its key, where that differs from the
field name); ``SCHEMA`` is derived from those fields, with each value's
parser picked from the type of the field's default.

Files are INI-style; unknown sections or keys are errors (fail fast against
typos). Environment variables ``SCOPAL_<SECTION>_<KEY>`` override file
values, and CLI flags override both. Defaults follow the evaluated setup:
1000 interaction / 100 evaluation episodes, temperatures 0.7 / 0.2,
threshold 0.5, discount 0.8, 5 epochs, batch size 2, gradient accumulation
8.

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
from dataclasses import dataclass, field, fields
from typing import Mapping

from .agents import is_learner_spec, parse_spec
from .games import GAME_NAMES, get_game
from .refine import MODES
from .rewards import ACTORS, ESTIMATORS


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


# the parser of a setting, by the type of its default; bool before int,
# since a bool is an int
_PARSERS = ((bool, _parse_bool), (int, int), (float, float), (str, str), (tuple, _parse_list))


def _setting(section: str, default, key: str | None = None):
    """A field read from ``[section] key`` (the field name, unless `key` is given)."""
    return field(default=default, metadata={"section": section, "key": key})


# settings that do not affect results are excluded from the run identity
_UNHASHED = {"seed", "jobs", "out"}


@dataclass
class ExperimentConfig:
    games: tuple[str, ...] = _setting("run", GAME_NAMES)
    seed: int = _setting("run", 0)
    jobs: int = _setting("run", 0)  # 0 = available parallelism
    out: str = _setting("run", "runs")
    agent: str = _setting("interact", "policy")
    opponent: str = _setting("interact", "self")
    episodes: int = _setting("interact", 1000)
    interact_temperature: float = _setting("interact", 0.7, key="temperature")
    move_bound: int = _setting("interact", 200)
    estimator: str = _setting("rewards", "win_rate")
    tie_weight: float = _setting("rewards", 0.0)
    gamma: float = _setting("rewards", 0.8)
    alpha0: float = _setting("rewards", 1.0)
    beta0: float = _setting("rewards", 1.0)
    delta: float = _setting("rewards", 0.5)
    min_count: int = _setting("rewards", 1)
    actors: str = _setting("rewards", "learner")
    mode: str = _setting("train", "two_stage")
    learning_rate: float = _setting("train", 1e-2)
    batch_size: int = _setting("train", 2)
    grad_accum: int = _setting("train", 8)
    epochs: int = _setting("train", 5)
    beta: float = _setting("train", 0.1)
    beta2: float = _setting("train", 0.2)
    balance_games: bool = _setting("train", False)
    eval_opponents: tuple[str, ...] = _setting(
        "eval", ("random", "mcts:100", "mcts:500", "mcts:1000"), key="opponents")
    eval_episodes: int = _setting("eval", 100, key="episodes")
    eval_temperature: float = _setting("eval", 0.2, key="temperature")

    def validate(self) -> None:
        for name in self.games:
            get_game(name)  # raises UnknownGameError
        if self.jobs < 0:
            raise ConfigError("run.jobs must be >= 0 (0 = all cores)")
        if self.episodes < 1:
            raise ConfigError("interact.episodes must be >= 1")
        if self.interact_temperature <= 0 or self.eval_temperature <= 0:
            raise ConfigError("temperatures must be positive")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if not 0 < self.gamma < 1:
            raise ConfigError("rewards.gamma must lie in (0, 1)")
        if self.alpha0 <= 0 or self.beta0 <= 0:
            raise ConfigError("rewards.alpha0 and beta0 must be positive")
        if self.actors not in ACTORS:
            raise ConfigError("rewards.actors must be 'learner' or 'all'")
        if self.mode not in MODES:
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
        for setting, noun, names in (("run.games", "game", self.games),
                                     ("eval.opponents", "opponent", self.eval_opponents)):
            if not names:
                raise ConfigError(f"{setting} must name at least one {noun}")
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ConfigError(f"{setting}: {repeated[0]!r} is listed more than once")
        for setting, spec in [("interact.agent", self.agent),
                              ("interact.opponent", self.opponent),
                              *(("eval.opponents", s) for s in self.eval_opponents)]:
            try:
                parse_spec(spec)
            except ValueError as err:
                raise ConfigError(f"{setting}: {err}") from err
            if setting == "eval.opponents" and is_learner_spec(spec):
                raise ConfigError(f"eval.opponents: {spec!r} is the policy under training")
        for section, keys in SCHEMA.items():
            for key, (attr, parse) in keys.items():
                if parse is float and not math.isfinite(getattr(self, attr)):
                    raise ConfigError(f"{section}.{key} must be finite")

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


def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """section -> key -> (attribute, parser), in field order."""
    schema: dict[str, dict[str, tuple[str, object]]] = {}
    for f in fields(ExperimentConfig):
        parse = next(parse for kind, parse in _PARSERS if isinstance(f.default, kind))
        schema.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = (f.name, parse)
    return schema


SCHEMA = _schema()


def _parse(where: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


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
                values[attr] = _parse(f"[{section}] {key}", parse, raw)
    env = os.environ if env is None else env
    for section, keys in SCHEMA.items():
        for key, (attr, parse) in keys.items():
            var = f"SCOPAL_{section.upper()}_{key.upper()}"
            if var in env:
                values[attr] = _parse(var, parse, env[var])
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
