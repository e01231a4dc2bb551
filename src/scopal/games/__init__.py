"""Game registry: the six benchmark games plus Breakthrough board variants."""
from __future__ import annotations

from .base import (
    Game,
    IllegalActionError,
    Outcome,
    OutcomeMap,
    Player,
    RETURN,
    SCORE,
    UnknownGameError,
    split_key,
    tie_outcome,
    win_for,
)
from .breakthrough import Breakthrough
from .connect_four import ConnectFour
from .kuhn_poker import KuhnPoker
from .liars_dice import LiarsDice
from .nim import Nim
from .tictactoe import TicTacToe

_FACTORIES = {
    "tictactoe": TicTacToe,
    "connect4": ConnectFour,
    "breakthrough": Breakthrough,  # evaluated 3x8 configuration
    "breakthrough_6x6": lambda: Breakthrough(6, 6, "breakthrough_6x6"),
    "breakthrough_7x7": lambda: Breakthrough(7, 7, "breakthrough_7x7"),
    "breakthrough_8x8": lambda: Breakthrough(8, 8, "breakthrough_8x8"),
    "kuhn_poker": KuhnPoker,
    "liars_dice": LiarsDice,
    "nim": Nim,
}

GAME_NAMES = ("tictactoe", "connect4", "breakthrough", "kuhn_poker", "liars_dice", "nim")

_CACHE: dict[str, Game] = {}


def get_game(name: str) -> Game:
    if name not in _FACTORIES:
        raise UnknownGameError(f"unknown game {name!r}; supported: {sorted(_FACTORIES)}")
    if name not in _CACHE:
        _CACHE[name] = _FACTORIES[name]()
    return _CACHE[name]


__all__ = [
    "Game", "Player", "Outcome", "OutcomeMap", "IllegalActionError", "UnknownGameError",
    "SCORE", "RETURN", "tie_outcome", "win_for", "split_key",
    "get_game", "GAME_NAMES",
]
