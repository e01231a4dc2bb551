"""Breakthrough on a narrow board (default 3 columns x 8 rows).

Columns are lettered from 'a', rows numbered from 1 (P1's home row).
P1 advances toward higher rows, P2 toward row 1. Pieces move one square
straight or diagonally forward; straight moves need an empty target,
diagonal moves may capture. First player to reach the opposite home row
(or to capture every enemy piece) wins; there are no ties.

The observation is mirrored for P2 (rows flipped, ownership swapped), so
both seats see themselves advancing toward higher rows.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, Outcome, Player, IllegalActionError, win_for

_OWN = {Player.P1: 1, Player.P2: 2}


@dataclass(frozen=True)
class BtState:
    board: tuple[int, ...]  # row*cols + col; 0 empty / 1 P1 / 2 P2
    to_move: Player
    move_count: int


class Breakthrough(Game):
    state_type = BtState
    perfect_information = True

    def __init__(self, cols: int = 3, rows: int = 8, name: str = "breakthrough"):
        if rows < 4 or cols < 2:
            raise ValueError("breakthrough board must be at least 2x4")
        if rows > 9:
            raise ValueError("move notation supports single-digit rows only")
        self.cols = cols
        self.rows = rows
        self.name = name
        # every move advances one piece one row; termination is forced
        self.max_moves = 2 * cols * (2 * rows - 3)

    def initial_state(self, chance_seed: int) -> BtState:
        board = [0] * (self.cols * self.rows)
        for c in range(self.cols):
            board[c] = board[self.cols + c] = 1
            board[(self.rows - 1) * self.cols + c] = 2
            board[(self.rows - 2) * self.cols + c] = 2
        return BtState(tuple(board), Player.P1, 0)

    def _moves_from(self, board, idx: int, own: int) -> list[tuple[int, int]]:
        cols = self.cols
        r, c = divmod(idx, cols)
        nr = r + 1 if own == 1 else r - 1
        if not 0 <= nr < self.rows:
            return []
        out = []
        for nc in (c - 1, c, c + 1):  # canonical: target column ascending
            if not 0 <= nc < cols:
                continue
            target = board[nr * cols + nc]
            if nc == c:
                if target == 0:
                    out.append((idx, nr * cols + nc))
            elif target != own:
                out.append((idx, nr * cols + nc))
        return out

    def legal_actions(self, state: BtState) -> tuple[tuple[int, int], ...]:
        # canonical order: (from row, from col, to col) ascending
        if self.outcome(state) is not None:
            return ()
        own = _OWN[state.to_move]
        acts: list[tuple[int, int]] = []
        for idx, v in enumerate(state.board):
            if v == own:
                acts.extend(self._moves_from(state.board, idx, own))
        return tuple(acts)

    def apply(self, state: BtState, action: tuple[int, int]) -> BtState:
        frm, to = action
        own = _OWN[state.to_move]
        n = self.cols * self.rows
        if not (0 <= frm < n and 0 <= to < n):
            raise IllegalActionError(f"{self.name}: square out of range in {action!r}")
        if state.board[frm] != own:
            raise IllegalActionError(
                f"{self.name}: {self._square(frm)} does not hold a {state.to_move.value} piece")
        fr, fc = divmod(frm, self.cols)
        tr, tc = divmod(to, self.cols)
        if tr - fr != (1 if own == 1 else -1) or abs(tc - fc) > 1:
            raise IllegalActionError(f"{self.name}: pieces move one square forward, "
                                     f"got {self.action_text(action)}")
        target = state.board[to]
        if tc == fc and target != 0:
            raise IllegalActionError(f"{self.name}: straight move onto an occupied square")
        if target == own:
            raise IllegalActionError(f"{self.name}: cannot capture own piece")
        board = list(state.board)
        board[frm] = 0
        board[to] = own
        return BtState(tuple(board), state.to_move.other, state.move_count + 1)

    def outcome(self, state: BtState) -> Optional[dict[Player, Outcome]]:
        return self._board_outcome(state.board)

    def _board_outcome(self, board) -> Optional[dict[Player, Outcome]]:
        """The outcome rule on a bare board, shared by `outcome` and `random_playout`."""
        cols = self.cols
        if 1 in board[(self.rows - 1) * cols:]:
            return win_for(Player.P1)
        if 2 in board[:cols]:
            return win_for(Player.P2)
        if 1 not in board:
            return win_for(Player.P2)
        if 2 not in board:
            return win_for(Player.P1)
        return None

    def _rel_board(self, state: BtState, viewer: Player) -> tuple[int, ...]:
        if viewer is Player.P1:
            return state.board
        cols = self.cols
        flipped = []
        for r in range(self.rows - 1, -1, -1):
            row = state.board[r * cols:(r + 1) * cols]
            flipped.extend(3 - v if v else 0 for v in row)
        return tuple(flipped)

    def observation(self, state: BtState, viewer: Player):
        return (viewer.value, viewer is state.to_move, self._rel_board(state, viewer))

    def observation_key(self, state: BtState, viewer: Player) -> str:
        return "".join(".mo"[v] for v in self._rel_board(state, viewer))

    def _flip(self, idx: int) -> int:
        r, c = divmod(idx, self.cols)
        return (self.rows - 1 - r) * self.cols + c

    def _square(self, idx: int) -> str:
        r, c = divmod(idx, self.cols)
        return f"{chr(ord('a') + c)}{r + 1}"

    def action_text(self, action: tuple[int, int]) -> str:
        return self._square(action[0]) + self._square(action[1])

    def relative_action(self, state: BtState, action: tuple[int, int]) -> tuple[int, int]:
        if state.to_move is Player.P1:
            return action
        return (self._flip(action[0]), self._flip(action[1]))

    def parse_action(self, text: str) -> tuple[int, int]:
        half = len(text) // 2
        frm, to = text[:half], text[half:]
        return (
            (int(frm[1:]) - 1) * self.cols + (ord(frm[0]) - ord("a")),
            (int(to[1:]) - 1) * self.cols + (ord(to[0]) - ord("a")),
        )

    def random_playout(self, state: BtState, rng: random.Random) -> dict[Player, Outcome]:
        out = self.outcome(state)
        board = list(state.board)
        own = _OWN[state.to_move]
        while out is None:
            acts = []
            for idx, v in enumerate(board):
                if v == own:
                    acts.extend(self._moves_from(board, idx, own))
            frm, to = acts[rng.randrange(len(acts))]
            board[frm] = 0
            board[to] = own
            own = 3 - own
            out = self._board_outcome(board)
        return out
