"""Experiment configuration: sectioned key-value files with a strict schema.

Each setting is declared once, as an ``ExperimentConfig`` field whose
metadata names its INI section, its key where that differs from the field
name, and its rule: a test plus the words for what the value must be.
``SCHEMA`` is derived from those fields, with each value's parser picked
from the type of the field's default. ``validate`` checks that each float is
finite and then each rule; ``check_list`` refuses an empty list and an empty
or repeated entry in ``run.games``, ``eval.opponents`` and ``--agents``.

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
from .games import GAME_NAMES, UnknownGameError, get_game
from .policy import Policy
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


def parse_list(text: str) -> tuple[str, ...]:
    """The comma-separated entries of `text`, empty ones kept; () if every entry is empty."""
    entries = tuple(part.strip() for part in text.split(","))
    return entries if any(entries) else ()


# the parser of a setting, by the type of its default; bool before int,
# since a bool is an int
_PARSERS = ((bool, _parse_bool), (int, int), (float, float), (str, str), (tuple, parse_list))


def _at_least(low: int, note: str = ""):
    return (lambda value: value >= low), f"be >= {low}{note}"


def _one_of(names: tuple[str, ...]):
    return (lambda value: value in names), f"be one of {', '.join(names)}"


_POSITIVE = (lambda value: value > 0), "be positive"


def _setting(section: str, default, rule=None, key: str | None = None):
    """A field read from ``[section] key`` (the field name, unless `key` is given);
    `rule` is (test, words): the value must pass the test, and the words say how."""
    return field(default=default, metadata={"section": section, "key": key, "rule": rule})


def check_list(setting: str, noun: str, entries: tuple[str, ...], check_entry) -> None:
    """Refuse an empty list, an empty or repeated entry, or an entry `check_entry` refuses."""
    if not entries:
        raise ConfigError(f"{setting} must name at least one {noun}")
    for i, entry in enumerate(entries):
        if not entry:
            raise ConfigError(f"{setting}: entry {i + 1} is empty")
        if entry in entries[:i]:
            raise ConfigError(f"{setting}: {entry!r} is listed more than once")
        _check(setting, check_entry, entry)


def _check(setting: str, check, *args) -> None:
    """`check(*args)`, its refusal a ConfigError that names `setting`."""
    try:
        check(*args)
    except (OSError, UnknownGameError, ValueError) as err:
        raise ConfigError(f"{setting}: {err}") from err


def check_agent(spec: str, games, opponent: bool = False) -> None:
    """Refuse a spec that does not parse, a checkpoint that lacks one of `games`, and,
    as an `opponent`, the policy under training."""
    kind, argument = parse_spec(spec)
    if opponent and is_learner_spec(spec):
        raise ValueError(f"{spec!r} is the policy under training")
    if kind == "checkpoint":
        blocks = Policy.load(argument).blocks
        if missing := [name for name in games if name not in blocks]:
            raise ValueError(f"{argument} has no parameters for game {missing[0]!r}")


# settings that do not affect results are excluded from the run identity
_UNHASHED = {"seed", "jobs", "out"}


@dataclass
class ExperimentConfig:
    games: tuple[str, ...] = _setting("run", GAME_NAMES)
    seed: int = _setting("run", 0)
    jobs: int = _setting("run", 0, _at_least(0, " (0 = every core this process may run on)"))
    out: str = _setting("run", "runs")
    agent: str = _setting("interact", "policy")
    opponent: str = _setting("interact", "self")
    episodes: int = _setting("interact", 1000, _at_least(1))
    interact_temperature: float = _setting("interact", 0.7, _POSITIVE, key="temperature")
    estimator: str = _setting("rewards", "win_rate", _one_of(ESTIMATORS))
    tie_weight: float = _setting("rewards", 0.0, (lambda value: 0 <= value <= 1, "lie in [0, 1]"))
    gamma: float = _setting("rewards", 0.8, (lambda value: 0 < value < 1, "lie in (0, 1)"))
    alpha0: float = _setting("rewards", 1.0, _POSITIVE)
    beta0: float = _setting("rewards", 1.0, _POSITIVE)
    delta: float = _setting("rewards", 0.5)
    min_count: int = _setting("rewards", 1, _at_least(1))
    actors: str = _setting("rewards", "learner", _one_of(ACTORS))
    mode: str = _setting("train", "two_stage", _one_of(MODES))
    learning_rate: float = _setting("train", 1e-2, _POSITIVE)
    batch_size: int = _setting("train", 2, _at_least(1))
    grad_accum: int = _setting("train", 8, _at_least(1))
    epochs: int = _setting("train", 5, _at_least(1))
    beta: float = _setting("train", 0.1, _POSITIVE)
    beta2: float = _setting("train", 0.2, _at_least(0))
    balance_games: bool = _setting("train", False)
    eval_opponents: tuple[str, ...] = _setting(
        "eval", ("random", "mcts:100", "mcts:500", "mcts:1000"), key="opponents")
    # matches alternate seats in pairs
    eval_episodes: int = _setting("eval", 100, _at_least(2), key="episodes")
    eval_temperature: float = _setting("eval", 0.2, _POSITIVE, key="temperature")

    def validate(self) -> None:
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            setting = f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{setting} must be finite, got {value!r}")
            if rule and not rule[0](value):
                raise ConfigError(f"{setting} must {rule[1]}, got {value!r}")
        check_list("run.games", "game", self.games, get_game)
        _check("interact.agent", check_agent, self.agent, self.games)
        _check("interact.opponent", check_agent, self.opponent, self.games)
        check_list("eval.opponents", "opponent", self.eval_opponents,
                   lambda spec: check_agent(spec, self.games, opponent=True))
        if (self.actors == "learner" or self.mode == "spag") and not (
                is_learner_spec(self.agent) or is_learner_spec(self.opponent)):
            why = "rewards.actors = learner" if self.actors == "learner" else "train.mode = spag"
            raise ConfigError(f"interact.agent = {self.agent!r} and interact.opponent = "
                              f"{self.opponent!r}: {why} needs one of them to be policy or self")

    def resolved(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(self).items()}

    def config_hash(self) -> str:
        payload = {k: v for k, v in self.resolved().items() if k not in _UNHASHED}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:12]

    def run_id(self) -> str:
        return f"{self.config_hash()}-s{self.seed}"

    def effective_jobs(self) -> int:
        """`jobs`, or with 0 the number of cores this process may run on."""
        if self.jobs > 0:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


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
        if not parser.read(path):
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
    config.validate()
    return config
