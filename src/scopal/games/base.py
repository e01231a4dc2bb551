"""Uniform turn-based game abstraction shared by all six games.

States are immutable values: ``apply`` returns a new state and never touches
its input, so states can be shared freely across episode workers. A state has
no text: what is written down is the actions that reach it, each in the game's
notation, and ``parse_action`` reads only the text ``action_text`` writes.

Outcomes become numbers through two tables only: ``SCORE`` (win 1, tie 0.5,
loss 0) for UCT backups, and ``RETURN`` (win 1, tie 0, loss -1) for Stage II
discounted returns, SPAG step rewards and minimax values. An outcome map is one
of three shared read-only maps (``win_for`` each seat, ``tie_outcome``); a
caller that keeps one to change it copies it first.
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Hashable, Mapping, Optional


class Player(Enum):
    P1 = "P1"
    P2 = "P2"
    __hash__ = object.__hash__  # members are singletons; cheaper than Enum's name hash

    @property
    def other(self) -> "Player":
        return Player.P2 if self is Player.P1 else Player.P1


class Outcome(Enum):
    WIN = "Win"
    LOSE = "Lose"
    TIE = "Tie"
    __hash__ = object.__hash__


SCORE = {Outcome.WIN: 1.0, Outcome.TIE: 0.5, Outcome.LOSE: 0.0}
RETURN = {Outcome.WIN: 1.0, Outcome.TIE: 0.0, Outcome.LOSE: -1.0}

OutcomeMap = Mapping[Player, Outcome]


_WINS = {p: MappingProxyType({p: Outcome.WIN, p.other: Outcome.LOSE}) for p in Player}
_TIE = MappingProxyType({Player.P1: Outcome.TIE, Player.P2: Outcome.TIE})


def win_for(player: Player) -> OutcomeMap:
    return _WINS[player]


def tie_outcome() -> OutcomeMap:
    return _TIE


class IllegalActionError(ValueError):
    """Raised when apply() receives an action that breaks a game rule."""


class UnknownGameError(KeyError):
    """Raised for game identifiers outside the supported set."""

    __str__ = Exception.__str__  # the message, without the quotes a KeyError adds


class Game(ABC):
    """Rules interface. Subclasses define immutable state/action types.

    Every state exposes ``to_move`` (a Player); the rest is its position. No
    game outlasts ``max_moves`` plies, which only the episode loop counts.
    ``legal_actions`` returns actions in a documented canonical order so that
    seeded sampling is reproducible.
    """

    name: str
    max_moves: int
    actions: tuple  # every action of the game, whatever the state
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
    def outcome(self, state: Any) -> Optional[OutcomeMap]:
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

    # -- defaults ------------------------------------------------------

    @cached_property
    def _action_of_text(self) -> dict[str, Any]:
        return {self.action_text(action): action for action in self.actions}

    def parse_action(self, text: str) -> Any:
        """The action whose `action_text` is exactly `text`; an action has one text."""
        try:
            return self._action_of_text[text]
        except KeyError:
            raise ValueError(f"{self.name}: no action has the text {text!r}") from None

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

    def random_playout(self, state: Any, rng: random.Random) -> OutcomeMap:
        """Play uniformly random legal moves to termination.

        Each ply draws ``rng.randrange(len(legal_actions(s)))`` once and plays
        that action in canonical order. Subclasses override this with faster
        loops that draw each index through ``draw_below(rng.getrandbits, n)``,
        so an override ends in the same outcome, and leaves ``rng`` in the
        same state, as this loop.
        """
        s = state
        out = self.outcome(s)
        while out is None:
            acts = self.legal_actions(s)
            s = self.apply(s, acts[rng.randrange(len(acts))])
            out = self.outcome(s)
        return out


def draw_below(getrandbits: Callable[[int], int], n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, given ``rng.getrandbits``.

    CPython's ``Random.randrange(n)`` draws ``getrandbits(n.bit_length())``
    until the value is below n; this makes the same calls, so it returns the
    same value and leaves the rng in the same state, in one Python frame
    instead of three.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def split_key(key: str) -> tuple[str, str]:
    """Split a canonical (state, action) key into (state key, action part)."""
    state_key, _, action_part = key.rpartition("|")
    return state_key, action_part
