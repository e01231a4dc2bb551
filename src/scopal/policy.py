"""Compact linear-softmax policy over per-game feature blocks.

Logits are ``theta_game . phi(observation, action)``; the action
distribution at temperature tau is softmax(logits / tau) over the legal
actions in canonical order. Parameters start at zero (uniform policy).

Checkpoints are JSON with one block per game; Python float repr round-trips
exactly, so save -> load -> distribution is bit-identical.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .features import encode, feature_dim
from .games import Game, UnknownGameError, get_game

CHECKPOINT_FORMAT = "scopal-policy-v1"


@dataclass
class Policy:
    blocks: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = 0

    def block(self, game: Game) -> np.ndarray:
        try:
            return self.blocks[game.name]
        except KeyError:
            raise ValueError(f"the policy has no parameters for game {game.name!r}") from None

    def clone(self) -> "Policy":
        return Policy({k: v.copy() for k, v in self.blocks.items()}, self.version)

    # -- distribution ---------------------------------------------------

    def logits(self, game: Game, state) -> tuple[tuple, np.ndarray, np.ndarray]:
        """(legal actions, logit vector, feature matrix) in canonical order."""
        ((acts, feats),) = encode(game, (state,))
        return acts, feats @ self.block(game), feats

    def action_distributions(self, game: Game, states, temperature: float) -> list[tuple]:
        """(legal actions, probabilities) of each non-terminal state, from one `encode` call."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        block = self.block(game)
        out = []
        for acts, feats in encode(game, states):
            if not acts:
                raise ValueError("action_distributions: state is terminal")
            out.append((acts, _softmax((feats @ block) / temperature)))
        return out

    def log_prob_and_grad(self, game: Game, state, action,
                          temperature: float = 1.0) -> tuple[float, np.ndarray]:
        """log pi(action|state; tau) and its gradient w.r.t. the game block."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        acts, z, feats = self.logits(game, state)
        idx = action_index(game, acts, action)
        logp = log_softmax(z / temperature)
        return float(logp[idx]), log_prob_grad(feats, logp, idx) / temperature

    def log_prob(self, game: Game, state, action, temperature: float = 1.0) -> float:
        acts, z, _ = self.logits(game, state)
        return float(log_softmax(z / temperature)[action_index(game, acts, action)])

    def sample_action(self, game: Game, state, temperature: float, rng: random.Random):
        """The one-state case of `sample_actions`."""
        return self.sample_actions(game, (state,), temperature, (rng,))[0]

    def sample_actions(self, game: Game, states, temperature: float, rngs) -> list:
        """One action per (state, rng) pair: the first whose cumulative probability
        exceeds one ``rng.random()``, so each pick is that state's pick alone."""
        picks = []
        for (acts, probs), rng in zip(self.action_distributions(game, states, temperature), rngs):
            r = rng.random()
            acc = 0.0
            for a, p in zip(acts, probs):
                acc += p
                if r < acc:
                    break
            picks.append(a)  # the last action if rounding leaves r above the total
        return picks

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        data = {
            "format": CHECKPOINT_FORMAT,
            "version": self.version,
            "blocks": {name: list(map(float, vec)) for name, vec in sorted(self.blocks.items())},
        }
        with atomic_open(path) as fh:
            fh.write(json.dumps(data, sort_keys=True, indent=0) + "\n")

    @classmethod
    def load(cls, path) -> "Policy":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not a JSON checkpoint: {err}") from None
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {path}")
        version, blocks = data.get("version"), data.get("blocks")
        if type(version) is not int:
            raise ValueError(f"{path}: the checkpoint has no integer version")
        if not isinstance(blocks, dict) or not all(
                isinstance(vec, list) and all(type(x) in (int, float) for x in vec)
                for vec in blocks.values()):
            raise ValueError(f"{path}: blocks must map each game to a list of numbers")
        try:
            blocks = {name: np.array(vec, dtype=float) for name, vec in blocks.items()}
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{path}: a block holds a value that is not finite") from None
        for name, vec in blocks.items():
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}: the {name!r} block holds a value that is not finite")
            try:
                width = feature_dim(get_game(name))
            except UnknownGameError:
                raise ValueError(f"{path}: block for unknown game {name!r}") from None
            if vec.shape != (width,):
                raise ValueError(f"{path}: the {name!r} block has width {vec.size}, not {width}")
        return cls(blocks, version)


def new_policy(game_names) -> Policy:
    """A zero (uniform) policy with one block per named game."""
    return Policy({name: np.zeros(feature_dim(get_game(name))) for name in game_names})


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def log_prob_grad(feats: np.ndarray, logp: np.ndarray, idx: int) -> np.ndarray:
    """Gradient of ``logp[idx]`` w.r.t. the block, for logits ``feats @ theta``."""
    return feats[idx] - np.exp(logp) @ feats


def action_index(game: Game, acts: tuple, action) -> int:
    try:
        return acts.index(action)
    except ValueError:
        raise ValueError(f"{game.name}: action {action!r} is illegal here") from None
