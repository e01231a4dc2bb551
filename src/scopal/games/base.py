"""Uniform turn-based game abstraction shared by all six games.

States are immutable values: ``apply`` returns a new state and never touches
its input, so states can be shared freely across episode workers.

Outcomes become numbers through two tables only: ``SCORE`` (win 1, tie 0.5,
loss 0) for UCT backups, and ``RETURN`` (win 1, tie 0, loss -1) for Stage II
discounted returns, SPAG step rewards and minimax values.
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Hashable, Mapping, Optional, Sequence


class Player(Enum):
    P1 = "P1"
    P2 = "P2"

    @property
    def other(self) -> "Player":
        return Player.P2 if self is Player.P1 else Player.P1


class Outcome(Enum):
    WIN = "Win"
    LOSE = "Lose"
    TIE = "Tie"


SCORE = {Outcome.WIN: 1.0, Outcome.TIE: 0.5, Outcome.LOSE: 0.0}
RETURN = {Outcome.WIN: 1.0, Outcome.TIE: 0.0, Outcome.LOSE: -1.0}

OutcomeMap = Mapping[Player, Outcome]


def win_for(player: Player) -> dict[Player, Outcome]:
    return {player: Outcome.WIN, player.other: Outcome.LOSE}


def tie_outcome() -> dict[Player, Outcome]:
    return {Player.P1: Outcome.TIE, Player.P2: Outcome.TIE}


class IllegalActionError(ValueError):
    """Raised when apply() receives an action that breaks a game rule."""


class UnknownGameError(KeyError):
    """Raised for game identifiers outside the supported set."""


class Game(ABC):
    """Rules interface. Subclasses define immutable state/action types.

    Every state exposes ``to_move`` (a Player) and ``move_count`` (int).
    ``legal_actions`` returns actions in a documented canonical order so that
    seeded sampling is reproducible.
    """

    name: str
    state_type: type  # the frozen dataclass of the game's states
    max_moves: int
    perfect_information: bool = True

    @abstractmethod
    def initial_state(self, chance_seed: int) -> Any:
        ...

    @abstractmethod
    def legal_actions(self, state: Any) -> tuple:
        ...

    @abstractmethod
    def apply(self, state: Any, action: Any) -> Any:
        ...

    @abstractmethod
    def outcome(self, state: Any) -> Optional[dict[Player, Outcome]]:
        ...

    @abstractmethod
    def observation(self, state: Any, viewer: Player) -> Hashable:
        """Viewer-relative observation; never exposes hidden information."""

    @abstractmethod
    def observation_key(self, state: Any, viewer: Player) -> str:
        """Deterministic text encoding of observation(). Must not contain '|'."""

    @abstractmethod
    def action_text(self, action: Any) -> str:
        ...

    @abstractmethod
    def parse_action(self, text: str) -> Any:
        ...

    # -- defaults ------------------------------------------------------

    def encode_state(self, state: Any) -> dict:
        """The state's fields, `to_move` by name; json writes the tuples as lists."""
        return dict(vars(state), to_move=state.to_move.name)

    def decode_state(self, data: Mapping) -> Any:
        """Rebuild a `state_type` from encode_state's fields, lists as tuples."""
        fields = {name: _tuples(value) for name, value in data.items()}
        return self.state_type(**dict(fields, to_move=Player[data["to_move"]]))

    def relative_action(self, state: Any, action: Any) -> Any:
        """Action re-expressed in the mover's observation coordinates.

        Identity unless the game's observation is mirrored per seat
        (Breakthrough flips the board for P2).
        """
        return action

    def canonical_state_key(self, state: Any) -> str:
        return f"{self.name}|{self.observation_key(state, state.to_move)}"

    def canonical_key(self, state: Any, action: Any) -> str:
        """Counting identity for one (state, action) pair.

        Built from the mover's observation, so states differing only in the
        opponent's hidden card/die share keys, and mirrored seats aggregate.
        """
        action_text = self.action_text(self.relative_action(state, action))
        return f"{self.canonical_state_key(state)}|{action_text}"

    def determinize(self, state: Any, viewer: Player, rng: random.Random) -> Any:
        """Resample hidden information consistently with viewer's observation.

        Identity for perfect-information games.
        """
        return state

    def random_playout(self, state: Any, rng: random.Random) -> dict[Player, Outcome]:
        """Play uniformly random legal moves to termination.

        Each ply draws ``rng.randrange(len(legal_actions(s)))`` once and plays
        that action in canonical order. Subclasses override this with faster
        loops that make exactly the same ``rng`` draws, so an override ends in
        the same outcome, and leaves ``rng`` in the same state, as this loop.
        """
        s = state
        out = self.outcome(s)
        while out is None:
            acts = self.legal_actions(s)
            s = self.apply(s, acts[rng.randrange(len(acts))])
            out = self.outcome(s)
        return out


def _tuples(value: Any) -> Any:
    """`value` with every list in it, at any depth, made a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def split_key(key: str) -> tuple[str, str]:
    """Split a canonical (state, action) key into (state key, action part)."""
    state_key, _, action_part = key.rpartition("|")
    return state_key, action_part
