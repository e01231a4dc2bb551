"""Breakthrough on a narrow board (default 3 columns x 8 rows).

Columns are lettered from 'a', rows numbered from 1 (P1's home row).
P1 advances toward higher rows, P2 toward row 1. Pieces move one square
straight or diagonally forward; straight moves need an empty target,
diagonal moves may capture. First player to reach the opposite home row
(or to capture every enemy piece) wins; there are no ties.

The observation is mirrored for P2 (rows flipped, ownership swapped), so
both seats see themselves advancing toward higher rows.

The rules run on two bitboards built from the board tuple: bit ``row*cols + col``
of a seat's bitboard is set when that seat holds the square. A piece on bit ``i``
moves to ``i + cols - 1``, ``i + cols`` or ``i + cols + 1`` for P1 (left
diagonal, straight, right diagonal: a shift up by ``cols``, give or take one)
and to ``i - cols - 1``, ``i - cols`` or ``i - cols + 1`` for P2 (a shift down).
A diagonal's "from" mask drops the edge column its shift would wrap across.
UCT rollouts draw an index k and reach the k-th legal move by walking the
from-squares upward without building a move list.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import Game, Outcome, Player, IllegalActionError, draw_below, win_for

_OWN = {Player.P1: 1, Player.P2: 2}
_SEATS = (Player.P1, Player.P2)
_DIGITS = (bytes.maketrans(b"\0\1\2", b"010"), bytes.maketrans(b"\0\1\2", b"001"))


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
        self.cols, self.rows, self.name = cols, rows, name
        # every move advances one piece one row; termination is forced
        self.max_moves = 2 * cols * (2 * rows - 3)
        n = cols * rows
        self._full = (1 << n) - 1
        first_col = sum(1 << (r * cols) for r in range(rows))
        self._not_first_col = self._full ^ first_col
        self._not_last_col = self._full ^ (first_col << (cols - 1))
        self._goal = (self._full ^ ((1 << (n - cols)) - 1), (1 << cols) - 1)  # per seat
        self._steps = ((cols - 1, cols, cols + 1), (-cols - 1, -cols, -cols + 1))

    def initial_state(self, chance_seed: int) -> BtState:
        home = 2 * self.cols
        board = (1,) * home + (0,) * (self.cols * self.rows - 2 * home) + (2,) * home
        return BtState(board, Player.P1, 0)

    def _position(self, state: BtState) -> tuple[Optional[Player], int, int, int]:
        """(winner or None, mover's bits, opponent's bits, mover's seat index)."""
        digits = bytes(state.board)[::-1]
        p1, p2 = int(digits.translate(_DIGITS[0]), 2), int(digits.translate(_DIGITS[1]), 2)
        winner = (Player.P1 if p1 & self._goal[0] else
                  Player.P2 if p2 & self._goal[1] or not p1 else
                  None if p2 else Player.P1)
        return (winner, p1, p2, 0) if state.to_move is Player.P1 else (winner, p2, p1, 1)

    def _from_masks(self, mine: int, theirs: int, seat: int) -> tuple[int, int, int]:
        """The mover's squares with a left-diagonal, a straight and a right-diagonal move."""
        c = self.cols
        empty = self._full ^ (mine | theirs)
        open_ = self._full ^ mine  # a diagonal may land on an empty or an enemy square
        if seat == 0:
            return (mine & self._not_first_col & (open_ >> (c - 1)), mine & (empty >> c),
                    mine & self._not_last_col & (open_ >> (c + 1)))
        return (mine & self._not_first_col & (open_ << (c + 1)), mine & (empty << c),
                mine & self._not_last_col & (open_ << (c - 1)))

    def legal_actions(self, state: BtState) -> tuple[tuple[int, int], ...]:
        # canonical order: (from row, from col, to col) ascending
        winner, mine, theirs, seat = self._position(state)
        if winner is not None:
            return ()
        masks = self._from_masks(mine, theirs, seat)
        acts = []
        pending = masks[0] | masks[1] | masks[2]
        while pending:
            low = pending & -pending
            frm = low.bit_length() - 1
            for mask, step in zip(masks, self._steps[seat]):
                if mask & low:
                    acts.append((frm, frm + step))
            pending ^= low
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
        (fr, fc), (tr, tc) = divmod(frm, self.cols), divmod(to, self.cols)
        if tr - fr != (1 if own == 1 else -1) or abs(tc - fc) > 1:
            raise IllegalActionError(f"{self.name}: pieces move one square forward, "
                                     f"got {self.action_text(action)}")
        target = state.board[to]
        if tc == fc and target != 0:
            raise IllegalActionError(f"{self.name}: straight move onto an occupied square")
        if target == own:
            raise IllegalActionError(f"{self.name}: cannot capture own piece")
        board = list(state.board)
        board[frm], board[to] = 0, own
        return BtState(tuple(board), state.to_move.other, state.move_count + 1)

    def outcome(self, state: BtState) -> Optional[dict[Player, Outcome]]:
        winner = self._position(state)[0]
        return None if winner is None else win_for(winner)

    def _rel_board(self, state: BtState, viewer: Player) -> tuple[int, ...]:
        if viewer is Player.P1:
            return state.board
        cols = self.cols
        return tuple(3 - v if v else 0 for r in range(self.rows - 1, -1, -1)
                     for v in state.board[r * cols:(r + 1) * cols])

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
        return action if state.to_move is Player.P1 else tuple(map(self._flip, action))

    def parse_action(self, text: str) -> tuple[int, int]:
        half = len(text) // 2
        return tuple((int(sq[1:]) - 1) * self.cols + ord(sq[0]) - ord("a")
                     for sq in (text[:half], text[half:]))

    def random_playout(self, state: BtState, rng: random.Random) -> dict[Player, Outcome]:
        winner, mine, theirs, seat = self._position(state)
        if winner is not None:
            return win_for(winner)
        getrandbits, goal, steps = rng.getrandbits, self._goal, self._steps
        while True:
            left, straight, right = self._from_masks(mine, theirs, seat)
            k = draw_below(getrandbits, left.bit_count() + straight.bit_count() + right.bit_count())
            # walk the canonical order to the k-th move: from-squares upward,
            # each square's moves in step order
            pending = left | straight | right
            while True:
                low = pending & -pending
                if left & low:
                    if not k:
                        step = steps[seat][0]
                        break
                    k -= 1
                if straight & low:
                    if not k:
                        step = steps[seat][1]
                        break
                    k -= 1
                if right & low:
                    if not k:
                        step = steps[seat][2]
                        break
                    k -= 1
                pending ^= low
            frm = low.bit_length() - 1
            to = frm + step
            mine, theirs = mine ^ (1 << frm | 1 << to), theirs & ~(1 << to)
            if mine & goal[seat] or not theirs:  # only the mover can have won
                return win_for(_SEATS[seat])
            mine, theirs, seat = theirs, mine, seat ^ 1
