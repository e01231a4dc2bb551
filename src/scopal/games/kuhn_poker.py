"""Kuhn poker: three cards (J < Q < K), one betting round.

Betting tree: P1 passes or bets. After pass-pass the higher card wins the
1-chip pot; a bet must be called (showdown for 2 chips) or folded (bettor
wins). Actions are written ``<Bet>`` and ``<Pass>``.

Each player sees only their own card; the canonical key therefore excludes
the opponent's card.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, win_for

CARDS = "JQK"
# histories after which the game is over
_TERMINAL = {("P", "P"), ("P", "B", "P"), ("P", "B", "B"), ("B", "P"), ("B", "B")}
_FOLDS = {("P", "B", "P"): Player.P2, ("B", "P"): Player.P1}


@dataclass(frozen=True)
class KuhnState:
    cards: tuple[int, int]  # (P1 card, P2 card), 0=J 1=Q 2=K
    history: tuple[str, ...]
    to_move: Player


class KuhnPoker(Game):
    name = "kuhn_poker"
    max_moves = 3
    actions = ("B", "P")
    perfect_information = False

    def initial_state(self, chance_seed: int) -> KuhnState:
        deal = random.Random(chance_seed).sample(range(3), 2)
        return KuhnState((deal[0], deal[1]), (), Player.P1)

    def legal_actions(self, state: KuhnState) -> tuple[str, ...]:
        # canonical order: Bet before Pass
        if state.history in _TERMINAL:
            return ()
        return ("B", "P")

    def apply(self, state: KuhnState, action: str) -> KuhnState:
        if state.history in _TERMINAL:
            raise IllegalActionError("kuhn_poker: betting already resolved")
        if action not in ("B", "P"):
            raise IllegalActionError(f"kuhn_poker: unknown action {action!r}, expected Bet or Pass")
        return KuhnState(state.cards, state.history + (action,), state.to_move.other)

    def outcome(self, state: KuhnState) -> Optional[OutcomeMap]:
        if state.history not in _TERMINAL:
            return None
        fold_winner = _FOLDS.get(state.history)
        if fold_winner is not None:
            return win_for(fold_winner)
        # showdown: K > Q > J, cards are always distinct
        return win_for(Player.P1 if state.cards[0] > state.cards[1] else Player.P2)

    def observation(self, state: KuhnState, viewer: Player):
        own = state.cards[0] if viewer is Player.P1 else state.cards[1]
        return (viewer.value, viewer is state.to_move, (own, state.history))

    def observation_key(self, state: KuhnState, viewer: Player) -> str:
        own, hist = self.observation(state, viewer)[2]
        return f"card:{CARDS[own]};hist:{''.join(hist)}"

    def action_text(self, action: str) -> str:
        return "<Bet>" if action == "B" else "<Pass>"

    def determinize(self, state: KuhnState, viewer: Player, rng: random.Random) -> KuhnState:
        own = state.cards[0] if viewer is Player.P1 else state.cards[1]
        opp = rng.choice([c for c in range(3) if c != own])
        cards = (own, opp) if viewer is Player.P1 else (opp, own)
        return KuhnState(cards, state.history, state.to_move)
