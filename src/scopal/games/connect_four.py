"""Connect Four on the standard 7x6 grid, bitboard-backed.

Bit layout: bit ``col*7 + row`` with row 0 at the bottom; the 7th bit of
each column is an unused sentinel that keeps shift-based win checks from
wrapping across columns.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, draw_below, tie_outcome, win_for

COLS = 7
ROWS = 6
_FULL_COL = (1 << ROWS) - 1
_BOARD = sum(_FULL_COL << (c * 7) for c in range(COLS))  # every square, no sentinel bit
_CELL_TEXT = str.maketrans("012", ".mo")  # empty, mine, theirs


def _has_win(bb: int) -> bool:
    for d in (1, 7, 6, 8):  # vertical, horizontal, diag up-left, diag up-right
        m = bb & (bb >> d)
        if m & (m >> (2 * d)):
            return True
    return False


@dataclass(frozen=True)
class C4State:
    p1: int  # bitboard of P1 discs
    p2: int
    to_move: Player


class ConnectFour(Game):
    name = "connect4"
    max_moves = COLS * ROWS
    actions = tuple(range(COLS))

    def initial_state(self, chance_seed: int) -> C4State:
        return C4State(0, 0, Player.P1)

    def _height(self, state: C4State, col: int) -> int:
        return (((state.p1 | state.p2) >> (col * 7)) & _FULL_COL).bit_count()

    def legal_actions(self, state: C4State) -> tuple[int, ...]:
        # canonical order: column index ascending
        if self.outcome(state) is not None:
            return ()
        both = state.p1 | state.p2
        return tuple(c for c in range(COLS) if not (both >> (c * 7 + ROWS - 1)) & 1)

    def apply(self, state: C4State, action: int) -> C4State:
        if not isinstance(action, int) or not 0 <= action < COLS:
            raise IllegalActionError(f"connect4: column {action!r} is not on the board")
        h = self._height(state, action)
        if h >= ROWS:
            raise IllegalActionError(f"connect4: column C{action + 1} is full")
        bit = 1 << (action * 7 + h)
        if state.to_move is Player.P1:
            return C4State(state.p1 | bit, state.p2, Player.P2)
        return C4State(state.p1, state.p2 | bit, Player.P1)

    def outcome(self, state: C4State) -> Optional[OutcomeMap]:
        if _has_win(state.p1):
            return win_for(Player.P1)
        if _has_win(state.p2):
            return win_for(Player.P2)
        if state.p1 | state.p2 == _BOARD:
            return tie_outcome()
        return None

    def observation(self, state: C4State, viewer: Player):
        mine, theirs = (state.p1, state.p2) if viewer is Player.P1 else (state.p2, state.p1)
        return (viewer.value, viewer is state.to_move, (mine, theirs))

    def observation_key(self, state: C4State, viewer: Player) -> str:
        mine, theirs = self.observation(state, viewer)[2]
        # bit k of the 49-bit boards is decimal digit k: 1 if mine, 2 if theirs
        text = f"{int(f'{mine:049b}') + 2 * int(f'{theirs:049b}'):049}".translate(_CELL_TEXT)
        # bit col*7 + row is character 48 - bit: the rows top down, each left to right
        return "".join([text[48 - r::-7] for r in range(ROWS - 1, -1, -1)])

    def action_text(self, action: int) -> str:
        return f"C{action + 1}"

    def random_playout(self, state: C4State, rng: random.Random) -> OutcomeMap:
        bbs = [state.p1, state.p2]
        if _has_win(bbs[0]):
            return win_for(Player.P1)
        if _has_win(bbs[1]):
            return win_for(Player.P2)
        both = state.p1 | state.p2
        heights = [((both >> (c * 7)) & _FULL_COL).bit_count() for c in range(COLS)]
        legal = [c for c in range(COLS) if heights[c] < ROWS]
        tm = 0 if state.to_move is Player.P1 else 1
        getrandbits = rng.getrandbits
        while legal:
            c = legal[draw_below(getrandbits, len(legal))]
            bbs[tm] |= 1 << (c * 7 + heights[c])
            heights[c] += 1
            if heights[c] == ROWS:
                legal.remove(c)
            if _has_win(bbs[tm]):
                return win_for(Player.P1 if tm == 0 else Player.P2)
            tm ^= 1
        return tie_outcome()
