"""Agents playable in episodes, built from opponent spec strings.

Spec strings: ``random``, ``mcts:<max_simulations>``, ``policy`` (the
in-memory policy being trained), ``self`` (alias used for the opponent
seat in self-play; same policy object), ``policy:<checkpoint-path>``.
"""
from __future__ import annotations

import random
from pathlib import Path

from .games import Game
from .mcts import MctsConfig, mcts_act
from .policy import Policy

LEARNER_SPECS = ("policy", "self")


class Agent:
    label: str = "agent"

    def act(self, game: Game, state, rng: random.Random):
        raise NotImplementedError

    def act_many(self, game: Game, states, rngs) -> list:
        """One action per (state, rng) pair, each as `act` picks it: by default, one `act` each."""
        return [self.act(game, state, rng) for state, rng in zip(states, rngs)]

    def group(self):
        """Agents of one group share each `act_many` call; by default each is alone."""
        return id(self)


class RandomAgent(Agent):
    def __init__(self, label: str = "random"):
        self.label = label

    def act(self, game, state, rng):
        acts = game.legal_actions(state)
        return acts[rng.randrange(len(acts))]


class MctsAgent(Agent):
    def __init__(self, max_simulations: int):
        self.max_simulations = max_simulations
        self.label = f"mcts:{max_simulations}"

    def act(self, game, state, rng):
        return mcts_act(game, state, MctsConfig(self.max_simulations, rng.randrange(2 ** 63)))


class PolicyAgent(Agent):
    def __init__(self, policy: Policy, temperature: float, label: str = "policy"):
        self.policy = policy
        self.temperature = temperature
        self.label = label

    def act(self, game, state, rng):
        return self.policy.sample_action(game, state, self.temperature, rng)

    def act_many(self, game, states, rngs):
        return self.policy.sample_actions(game, states, self.temperature, rngs)

    def group(self):
        return id(self.policy), self.temperature  # in self-play, both seats


def parse_spec(spec: str) -> tuple[str, int | str | None]:
    """(kind, argument) of an agent spec string: the one spec grammar.

    ``random``, ``policy`` and ``self`` take no argument; ``mcts:<n>`` gives
    ("mcts", n) for n >= 1 written without leading zeros, so each budget has
    one spelling; ``policy:<path>`` gives ("checkpoint", path) if
    that file exists. Anything else raises ValueError.
    """
    kind, _, argument = spec.partition(":")
    if spec in ("random", "policy", "self"):
        return spec, None
    if kind == "mcts" and argument.isascii() and argument.isdigit() and argument[0] != "0":
        return kind, int(argument)
    if kind == "policy" and Path(argument).is_file():
        return "checkpoint", argument
    raise ValueError(f"unknown agent spec {spec!r}: expected random, mcts:<n >= 1>, "
                     f"policy, self or policy:<existing checkpoint file>")


def make_agent(spec: str, policy: Policy | None = None,
               temperature: float = 0.7) -> Agent:
    """Build an agent from its spec string; policy agents need `policy`."""
    kind, argument = parse_spec(spec)
    if kind == "random":
        return RandomAgent()
    if kind == "mcts":
        return MctsAgent(argument)
    if kind == "checkpoint":
        return PolicyAgent(Policy.load(argument), temperature, label=spec)
    if policy is None:
        raise ValueError(f"agent spec {spec!r} needs an in-memory policy")
    return PolicyAgent(policy, temperature, label=spec)


def is_learner_spec(spec: str) -> bool:
    """True for seats controlled by the in-memory policy under training.

    Frozen checkpoints (``policy:<path>``) are opponents, not learners.
    """
    return spec in LEARNER_SPECS
