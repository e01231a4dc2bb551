"""Two-player Liar's Dice with one six-sided die each.

The first move must be a bid ``<q dices, f value>``; later moves either
raise (higher quantity, or equal quantity and higher face) or challenge
with ``<Liar>``. A challenge reveals both dice: if at least q dice show
face f (the bid was accurate or an underbid) the challenger loses,
otherwise the bidder loses.

Each player sees only their own die; the canonical key excludes the
opponent's roll.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, win_for

FACES = 6
TOTAL_DICE = 2
# bids in canonical ascending order: (quantity, face)
ALL_BIDS = tuple((q, f) for q in range(1, TOTAL_DICE + 1) for f in range(1, FACES + 1))
CHALLENGE = ("challenge",)


@dataclass(frozen=True)
class LdState:
    dice: tuple[int, int]  # (P1 die, P2 die), faces 1..6
    bids: tuple[tuple[int, int], ...]
    challenged: bool
    to_move: Player


class LiarsDice(Game):
    name = "liars_dice"
    max_moves = len(ALL_BIDS) + 1
    actions = ALL_BIDS + (CHALLENGE,)
    perfect_information = False

    def initial_state(self, chance_seed: int) -> LdState:
        rng = random.Random(chance_seed)
        return LdState((rng.randint(1, FACES), rng.randint(1, FACES)), (), False, Player.P1)

    def legal_actions(self, state: LdState):
        # canonical order: raises ascending by (quantity, face), challenge last
        if state.challenged:
            return ()
        if not state.bids:
            return ALL_BIDS
        last = state.bids[-1]
        return tuple(b for b in ALL_BIDS if b > last) + (CHALLENGE,)

    def apply(self, state: LdState, action) -> LdState:
        if state.challenged:
            raise IllegalActionError("liars_dice: the challenge already ended the game")
        if action == CHALLENGE:
            if not state.bids:
                raise IllegalActionError("liars_dice: cannot challenge before any bid")
            return LdState(state.dice, state.bids, True, state.to_move.other)
        if action not in ALL_BIDS:
            raise IllegalActionError(f"liars_dice: {action!r} is not a valid bid")
        if state.bids and action <= state.bids[-1]:
            raise IllegalActionError(
                f"liars_dice: bid {self.action_text(action)} does not raise "
                f"{self.action_text(state.bids[-1])}")
        return LdState(state.dice, state.bids + (action,), False, state.to_move.other)

    def outcome(self, state: LdState) -> Optional[OutcomeMap]:
        if not state.challenged:
            return None
        quantity, face = state.bids[-1]
        count = sum(1 for d in state.dice if d == face)
        # challenger moved last, so at a terminal state to_move is the bidder
        bidder, challenger = state.to_move, state.to_move.other
        return win_for(bidder if count >= quantity else challenger)

    def observation(self, state: LdState, viewer: Player):
        own = state.dice[0] if viewer is Player.P1 else state.dice[1]
        return (viewer.value, viewer is state.to_move, (own, state.bids, state.challenged))

    def observation_key(self, state: LdState, viewer: Player) -> str:
        own, bids, challenged = self.observation(state, viewer)[2]
        hist = ",".join(f"{q}x{f}" for q, f in bids) + ("!" if challenged else "")
        return f"die:{own};bids:{hist}"

    def action_text(self, action) -> str:
        if action == CHALLENGE:
            return "<Liar>"
        return f"<{action[0]} dices, {action[1]} value>"

    def determinize(self, state: LdState, viewer: Player, rng: random.Random) -> LdState:
        opp = rng.randint(1, FACES)
        if viewer is Player.P1:
            dice = (state.dice[0], opp)
        else:
            dice = (opp, state.dice[1])
        return LdState(dice, state.bids, state.challenged, state.to_move)
