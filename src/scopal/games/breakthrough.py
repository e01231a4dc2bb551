"""Breakthrough on a narrow board (default 3 columns x 8 rows).

Columns are lettered from 'a', rows numbered from 1 (P1's home row).
P1 advances toward higher rows, P2 toward row 1. Pieces move one square
straight or diagonally forward; straight moves need an empty target,
diagonal moves may capture. First player to reach the opposite home row
(or to capture every enemy piece) wins; there are no ties.

The observation is mirrored for P2 (rows flipped, ownership swapped), so
both seats see themselves advancing toward higher rows.

A state is its board read as octal digits, one int: square ``i = row*cols +
col`` is digit i, 0 empty, 1 P1, 2 P2, so P1's pieces are bits ``3i`` and P2's
bits ``3i + 1``. The rules, equality and hashing read that int, and ``digits``
writes it as text, square 0 first, for the observation and the features. A
piece on square i moves one row forward to column ``col - 1``, ``col`` or
``col + 1`` (move j = 0 left, 1 straight, 2 right). The mover's moves form one
mask, with bit ``3i + j`` set when the piece on square i has move j. So the
canonical order (from-square ascending, then left, straight, right) is the
mask's bit order, and a UCT rollout reaches the k-th legal move by clearing the
mask's k lowest bits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .base import Game, OutcomeMap, Player, IllegalActionError, draw_below, win_for

_SEATS = (Player.P1, Player.P2)
# per viewer, a digit row's squares as the viewer's values: P2 swaps the owners
_VALUES = {Player.P1: bytes.maketrans(b"012", b"\0\1\2"),
           Player.P2: bytes.maketrans(b"012", b"\0\2\1")}
_KEY = bytes.maketrans(b"\0\1\2", b".mo")


@dataclass(frozen=True, slots=True)
class BtState:
    bits: int  # octal digit i is square i = row*cols + col: 0 empty / 1 P1 / 2 P2
    to_move: Player


class Breakthrough(Game):
    perfect_information = True

    def __init__(self, cols: int = 3, rows: int = 8, name: str = "breakthrough"):
        if rows < 4 or cols < 2:
            raise ValueError("breakthrough board must be at least 2x4")
        if rows > 9:
            raise ValueError("move notation supports single-digit rows only")
        self.cols, self.rows, self.name = cols, rows, name
        # every move advances one piece one row; termination is forced
        self.max_moves = 2 * cols * (2 * rows - 3)
        self._n = n = cols * rows
        self._full = full = sum(1 << 3 * i for i in range(n))
        first_col = sum(1 << 3 * r * cols for r in range(rows))
        self._not_first_col = full ^ first_col
        self._not_last_col = full ^ (first_col << 3 * (cols - 1))
        self._goal = (full ^ ((1 << 3 * (n - cols)) - 1), (1 << 3 * cols) - 1)  # per seat
        # per seat (P1 a row up, P2 down), move bit 3i + j -> its action, or None off the board
        self._moves = tuple([(i, i + d * cols + j - 1) if 0 <= i // cols + d < rows
                             and 0 <= i % cols + j - 1 < cols else None
                             for i in range(n) for j in range(3)] for d in (1, -1))
        self.actions = tuple(filter(None, self._moves[0] + self._moves[1]))
        # the bits a move flips in the mover's bitboard; only the to bit can be the other's
        self._flips = tuple([move and 1 << 3 * move[0] | 1 << 3 * move[1] for move in moves]
                            for moves in self._moves)
        # each move on an empty board -> whether it is straight
        self._reach = tuple({move: abs(move[1] - move[0]) == cols for move in filter(None, moves)}
                            for moves in self._moves)
        self._views = {Player.P1: tuple, Player.P2: itemgetter(*map(self._flip, range(n)))}
        self._start = self.bits("1" * 2 * cols + "0" * (n - 4 * cols) + "2" * 2 * cols)

    def initial_state(self, chance_seed: int) -> BtState:
        return BtState(self._start, Player.P1)

    def digits(self, state: BtState) -> str:
        """The board as one digit per square, square 0 first."""
        return format(state.bits, f"0{self._n}o")[::-1]

    def bits(self, digits: str) -> int:
        """The ``BtState.bits`` of the board that `digits` writes."""
        return int(digits[::-1], 8)

    def _position(self, state: BtState) -> tuple[Optional[Player], int, int, int]:
        """(winner or None, mover's bits, opponent's bits, mover's seat index)."""
        p1, p2 = state.bits & self._full, state.bits >> 1 & self._full
        winner = (Player.P1 if p1 & self._goal[0] else
                  Player.P2 if p2 & self._goal[1] or not p1 else
                  None if p2 else Player.P1)
        return (winner, p1, p2, 0) if state.to_move is Player.P1 else (winner, p2, p1, 1)

    def _move_mask(self, mine: int, theirs: int, seat: int) -> int:
        """The mover's moves: bit 3i + j for move j of the piece on square i."""
        c = 3 * self.cols
        empty = self._full ^ (mine | theirs)
        open_ = self._full ^ mine  # a diagonal may land on an empty or an enemy square
        if seat == 0:
            return (mine & self._not_first_col & (open_ >> (c - 3)) | (mine & (empty >> c)) << 1
                    | (mine & self._not_last_col & (open_ >> (c + 3))) << 2)
        return (mine & self._not_first_col & (open_ << (c + 3)) | (mine & (empty << c)) << 1
                | (mine & self._not_last_col & (open_ << (c - 3))) << 2)

    def legal_actions(self, state: BtState) -> tuple[tuple[int, int], ...]:
        winner, mine, theirs, seat = self._position(state)
        if winner is not None:
            return ()
        mask, moves, acts = self._move_mask(mine, theirs, seat), self._moves[seat], []
        while mask:
            low = mask & -mask
            acts.append(moves[low.bit_length() - 1])
            mask ^= low
        return tuple(acts)

    def apply(self, state: BtState, action: tuple[int, int]) -> BtState:
        frm, to = action
        p1_moves = state.to_move is Player.P1
        own = 1 if p1_moves else 2
        if not (0 <= frm < self._n and 0 <= to < self._n):
            raise IllegalActionError(f"{self.name}: square out of range in {action!r}")
        if state.bits >> 3 * frm & 7 != own:
            raise IllegalActionError(
                f"{self.name}: {self._square(frm)} does not hold a {state.to_move.value} piece")
        straight = self._reach[own - 1].get((frm, to))
        if straight is None:
            raise IllegalActionError(f"{self.name}: pieces move one square forward, "
                                     f"got {self.action_text(action)}")
        target = state.bits >> 3 * to & 7
        if straight and target != 0:
            raise IllegalActionError(f"{self.name}: straight move onto an occupied square")
        if target == own:
            raise IllegalActionError(f"{self.name}: cannot capture own piece")
        bits = state.bits ^ own << 3 * frm ^ (own ^ target) << 3 * to  # the two squares' digits
        return BtState(bits, Player.P2 if p1_moves else Player.P1)

    def outcome(self, state: BtState) -> Optional[OutcomeMap]:
        winner = self._position(state)[0]
        return None if winner is None else win_for(winner)

    def observation(self, state: BtState, viewer: Player):
        digits = self.digits(state).encode().translate(_VALUES[viewer])
        return (viewer.value, viewer is state.to_move, self._views[viewer](digits))

    def observation_key(self, state: BtState, viewer: Player) -> str:
        return bytes(self.observation(state, viewer)[2]).translate(_KEY).decode()

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

    def random_playout(self, state: BtState, rng: random.Random) -> OutcomeMap:
        winner, mine, theirs, seat = self._position(state)
        if winner is not None:
            return win_for(winner)
        getrandbits, goal, flips, full = rng.getrandbits, self._goal, self._flips, self._full
        first, last, c = self._not_first_col, self._not_last_col, 3 * self.cols
        while True:
            # _move_mask, inlined: a call per ply would cost a tenth of the rollout
            empty, open_ = full ^ (mine | theirs), full ^ mine
            if seat:
                mask = (mine & first & (open_ << (c + 3)) | (mine & (empty << c)) << 1
                        | (mine & last & (open_ << (c - 3))) << 2)
            else:
                mask = (mine & first & (open_ >> (c - 3)) | (mine & (empty >> c)) << 1
                        | (mine & last & (open_ >> (c + 3))) << 2)
            k = draw_below(getrandbits, mask.bit_count())
            while k:  # the k-th move is the k-th lowest bit
                mask &= mask - 1
                k -= 1
            flip = flips[seat][(mask & -mask).bit_length() - 1]
            mine, theirs = mine ^ flip, theirs & ~flip
            if mine & goal[seat] or not theirs:  # only the mover can have won
                return win_for(_SEATS[seat])
            mine, theirs, seat = theirs, mine, seat ^ 1
