"""Tic-Tac-Toe on a 3x3 grid. Moves are written C<col>R<row>, 1-based."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, draw_below, tie_outcome, win_for

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)

_MARK = {Player.P1: 1, Player.P2: 2}


@dataclass(frozen=True)
class TttState:
    cells: tuple[int, ...]  # 9 cells, row-major, 0 empty / 1 P1 / 2 P2
    to_move: Player


class TicTacToe(Game):
    name = "tictactoe"
    max_moves = 9
    actions = tuple(range(9))

    def initial_state(self, chance_seed: int) -> TttState:
        return TttState((0,) * 9, Player.P1)

    def legal_actions(self, state: TttState) -> tuple[int, ...]:
        # canonical order: cell index ascending (C1R1, C2R1, C3R1, C1R2, ...)
        if self.outcome(state) is not None:
            return ()
        return tuple(i for i in range(9) if state.cells[i] == 0)

    def apply(self, state: TttState, action: int) -> TttState:
        if not isinstance(action, int) or not 0 <= action < 9:
            raise IllegalActionError(f"tictactoe: cell {action!r} is not on the 3x3 grid")
        if state.cells[action] != 0:
            raise IllegalActionError(f"tictactoe: cell {self.action_text(action)} is already marked")
        cells = list(state.cells)
        cells[action] = _MARK[state.to_move]
        return TttState(tuple(cells), state.to_move.other)

    def outcome(self, state: TttState) -> Optional[OutcomeMap]:
        cells = state.cells
        for a, b, c in LINES:
            v = cells[a]
            if v != 0 and v == cells[b] == cells[c]:
                return win_for(Player.P1 if v == 1 else Player.P2)
        if 0 not in cells:
            return tie_outcome()
        return None

    def observation(self, state: TttState, viewer: Player):
        mine = _MARK[viewer]
        rel = tuple(0 if v == 0 else (1 if v == mine else 2) for v in state.cells)
        return (viewer.value, viewer is state.to_move, rel)

    def observation_key(self, state: TttState, viewer: Player) -> str:
        return "".join(".mo"[v] for v in self.observation(state, viewer)[2])

    def action_text(self, action: int) -> str:
        return f"C{action % 3 + 1}R{action // 3 + 1}"

    def random_playout(self, state: TttState, rng: random.Random) -> OutcomeMap:
        out = self.outcome(state)
        if out is not None:
            return out
        cells = list(state.cells)
        empty = [i for i in range(9) if cells[i] == 0]
        mark = _MARK[state.to_move]
        getrandbits = rng.getrandbits
        while empty:
            i = empty.pop(draw_below(getrandbits, len(empty)))
            cells[i] = mark
            for a, b, c in LINES:
                if cells[a] == cells[b] == cells[c] == mark:
                    return win_for(Player.P1 if mark == 1 else Player.P2)
            mark = 3 - mark
        return tie_outcome()
