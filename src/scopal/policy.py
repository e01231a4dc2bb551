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
from .features import feature_dim, feature_matrix
from .games import Game, get_game

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
        acts = game.legal_actions(state)
        feats = feature_matrix(game, state, acts)
        return acts, feats @ self.block(game), feats

    def action_distribution(self, game: Game, state, temperature: float) -> tuple[tuple, np.ndarray]:
        """Probabilities over legal actions; requires a non-terminal state."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        acts, z, _ = self.logits(game, state)
        if not acts:
            raise ValueError("action_distribution: state is terminal")
        return acts, _softmax(z / temperature)

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
        acts, probs = self.action_distribution(game, state, temperature)
        r = rng.random()
        acc = 0.0
        for a, p in zip(acts, probs):
            acc += p
            if r < acc:
                return a
        return acts[-1]

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
        data = json.loads(Path(path).read_text())
        if data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {path}")
        blocks = {name: np.array(vec, dtype=float) for name, vec in data["blocks"].items()}
        return cls(blocks, data["version"])


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
