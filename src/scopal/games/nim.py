"""Misere Nim with piles (1, 3, 5, 7): whoever takes the last match loses.

Moves are written ``<pile:x, take:y>`` with 1-based pile numbers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, draw_below, win_for

INITIAL_PILES = (1, 3, 5, 7)


@dataclass(frozen=True)
class NimState:
    piles: tuple[int, ...]
    to_move: Player


class Nim(Game):
    name = "nim"
    max_moves = sum(INITIAL_PILES)
    actions = tuple((p, t) for p, n in enumerate(INITIAL_PILES) for t in range(1, n + 1))

    def initial_state(self, chance_seed: int) -> NimState:
        return NimState(INITIAL_PILES, Player.P1)

    def legal_actions(self, state: NimState) -> tuple[tuple[int, int], ...]:
        # canonical order: pile ascending, then take ascending
        return tuple((p, t) for p, n in enumerate(state.piles) for t in range(1, n + 1))

    def apply(self, state: NimState, action: tuple[int, int]) -> NimState:
        pile, take = action
        if not 0 <= pile < len(state.piles):
            raise IllegalActionError(f"nim: pile {pile + 1} does not exist")
        if take < 1:
            raise IllegalActionError("nim: must take at least one match")
        if take > state.piles[pile]:
            raise IllegalActionError(
                f"nim: pile {pile + 1} holds only {state.piles[pile]} match(es)")
        piles = list(state.piles)
        piles[pile] -= take
        return NimState(tuple(piles), state.to_move.other)

    def outcome(self, state: NimState) -> Optional[OutcomeMap]:
        if any(state.piles):
            return None
        # misere rule: the previous mover took the final match and loses
        return win_for(state.to_move)

    def observation(self, state: NimState, viewer: Player):
        return (viewer.value, viewer is state.to_move, state.piles)

    def observation_key(self, state: NimState, viewer: Player) -> str:
        return ",".join(str(n) for n in state.piles)

    def action_text(self, action: tuple[int, int]) -> str:
        return f"<pile:{action[0] + 1}, take:{action[1]}>"

    def random_playout(self, state: NimState, rng: random.Random) -> OutcomeMap:
        # the k-th legal action takes k' + 1 from pile p, where k' is k less the
        # matches in the piles before p; there is one action per match left
        piles = list(state.piles)
        left = sum(piles)
        flip = False  # whether the player to move is now the other one
        getrandbits = rng.getrandbits
        while left:
            k = draw_below(getrandbits, left)
            p = 0
            while k >= piles[p]:
                k -= piles[p]
                p += 1
            piles[p] -= k + 1
            left -= k + 1
            flip = not flip
        # misere: whoever is to move when no match is left wins
        return win_for(state.to_move.other if flip else state.to_move)
