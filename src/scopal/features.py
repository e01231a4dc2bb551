"""Per-game feature encoders mapping (observation, action) to fixed vectors.

Board games use indicator planes of the position *after* the candidate move
from the mover's perspective, plus a few line/threat counts; Nim adds
nim-sum indicators of the resulting piles; the two hidden-information games
are small enough for exact one-hot tabular features.

Every encoder is batched: ``_ENCODERS`` gives each game class one encoder
``(game, states, acts_list)`` that stacks the rows of many states in one
matrix, paying its fixed NumPy cost once per call, not once per state.
``encode`` pairs each state with its legal actions, in canonical order, and
their rows; ``features`` is the one-action case. A game's feature width is
written nowhere: it is the width of its initial state's matrix.

Feature vectors depend only on the mover's observation and the action, never
on hidden opponent information.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .games import Breakthrough, ConnectFour, Game, KuhnPoker, LiarsDice, Nim, Player, TicTacToe
from .games.connect_four import COLS as C4_COLS, ROWS as C4_ROWS
from .games.liars_dice import ALL_BIDS, CHALLENGE, FACES
from .games.tictactoe import LINES

_KUHN_HIST = {(): 0, ("P",): 1, ("B",): 2, ("P", "B"): 3}
# (9, 8) incidence of the board cells in the eight lines
_TTT_LINES = np.array([[cell in line for line in LINES] for cell in range(9)], dtype=np.intp)


def _c4_windows() -> np.ndarray:
    """(42, 69) incidence of board cells (row-major, as in the planes) in the 4-windows."""
    windows = []
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        for r in range(C4_ROWS - 3 * dr):
            for c in range(max(0, -3 * dc), C4_COLS - max(0, 3 * dc)):
                window = np.zeros(C4_ROWS * C4_COLS)
                window[[(r + i * dr) * C4_COLS + c + i * dc for i in range(4)]] = 1.0
                windows.append(window)
    return np.array(windows).T


_C4_WINDOWS = _c4_windows()
# bit of cell r * COLS + c in the column-major bitboard
_C4_CELL_BITS = np.array([c * 7 + r for r in range(C4_ROWS) for c in range(C4_COLS)],
                         dtype=np.uint64)


def encode(game: Game, states) -> list[tuple[tuple, np.ndarray]]:
    """(legal actions, their (len(acts), d) feature matrix) of each state, all
    encoded in one encoder call; row i is ``features(game, state, acts[i])``."""
    acts_list = [game.legal_actions(state) for state in states]
    stacked = _ENCODERS[type(game)](game, states, acts_list)
    ends = itertools.accumulate(map(len, acts_list))
    return [(acts, stacked[end - len(acts):end]) for acts, end in zip(acts_list, ends)]


@functools.cache
def feature_dim(game: Game) -> int:
    """Width of `game`'s feature vectors: that of its initial state's matrix."""
    return encode(game, (game.initial_state(0),))[0][1].shape[1]


def features(game: Game, state, action) -> np.ndarray:
    return _ENCODERS[type(game)](game, (state,), ((action,),))[0]


def _ttt(game, states, acts_list) -> np.ndarray:
    boards = np.array([game.observation(s, s.to_move)[2] for s in states], dtype=np.intp)
    owner, cells = _stack(states, acts_list)
    after = boards[owner]
    after[np.arange(len(cells)), cells] = 1  # the candidate move, mover-relative
    mine, theirs = after == 1, after == 2
    m, o = mine @ _TTT_LINES, theirs @ _TTT_LINES
    x = np.zeros((len(cells), 22))
    x[:, :18] = np.hstack([mine, theirs])
    x[:, 18] = (m == 3).sum(axis=1)                # wins
    x[:, 19] = ((m == 2) & (o == 0)).sum(axis=1)   # twos
    x[:, 20] = ((o == 2) & (m == 0)).sum(axis=1)   # threats
    x[:, 21] = 1.0
    return x


def _stack(states, acts_list) -> tuple[np.ndarray, np.ndarray]:
    """(the index of each row's state, all the actions in one array)."""
    owner = np.repeat(np.arange(len(states)), [len(acts) for acts in acts_list])
    return owner, np.array(list(itertools.chain.from_iterable(acts_list)), dtype=np.intp)


def _c4(game, states, acts_list) -> np.ndarray:
    boards = np.array([game.observation(s, s.to_move)[2] for s in states], dtype=np.uint64)
    cells = ((boards[:, :, None] >> _C4_CELL_BITS) & np.uint64(1)).astype(float)
    mine, theirs = cells[:, 0], cells[:, 1]
    heights = (mine + theirs).reshape(-1, C4_ROWS, C4_COLS).sum(axis=1).astype(np.intp)
    owner, cols = _stack(states, acts_list)
    n = len(cols)
    after = mine[owner]  # my discs after each candidate drop
    after[np.arange(n), heights[owner, cols] * C4_COLS + cols] = 1.0
    m = after @ _C4_WINDOWS  # exact: every count is at most 4
    o = (theirs @ _C4_WINDOWS)[owner]
    # per row, bin v counts the windows holding v of mine and none of theirs,
    # bin 5 + v those holding v of theirs and none of mine
    bins = np.concatenate([np.where(o == 0, m, 0), np.where(m == 0, o, 0) + 5], axis=1)
    bins = bins.astype(np.intp) + 10 * np.arange(n)[:, None]
    counts = np.bincount(bins.ravel(), minlength=10 * n).reshape(n, 10)
    x = np.zeros((n, 90))
    x[:, :42] = after
    x[:, 42:84] = theirs[owner]
    x[:, 84:87] = counts[:, [4, 3, 2]]  # win4, m3, m2
    x[:, 87:89] = counts[:, [8, 7]]     # o3, o2
    x[:, 89] = 1.0
    return x


def _breakthrough(game: Breakthrough, states, acts_list) -> np.ndarray:
    cols, rows = game.cols, game.rows
    n = cols * rows
    # the boards' digits, 0 empty, 1 P1, 2 P2; P2 sees the board mirrored
    # (rows flipped, owners swapped), so its moves are mirrored too
    digits = np.frombuffer("".join(map(game.digits, states)).encode(), np.uint8) - ord("0")
    boards = digits.reshape(len(states), n)
    flip = np.arange(n).reshape(rows, cols)[::-1].ravel()
    p2 = np.array([s.to_move is Player.P2 for s in states], dtype=bool)
    boards[p2] = (3 - boards[p2][:, flip]) % 3
    owner, moves = _stack(states, acts_list)
    moves = moves.reshape(-1, 2)
    moves = np.where(p2[owner, None], flip[moves], moves)
    k = len(moves)
    at = np.arange(k)
    mine = (boards == 1)[owner]
    mine[at, moves[:, 0]] = False
    mine[at, moves[:, 1]] = True
    theirs = (boards == 2)[owner]
    theirs[at, moves[:, 1]] = False
    row = np.arange(n) // cols
    my_best = (mine * row).max(axis=1, initial=0)
    their_best = (theirs * (rows - 1 - row)).max(axis=1, initial=0)
    total = 2 * cols
    x = np.zeros((k, 2 * n + 7))
    x[:, :n] = mine
    x[:, n:2 * n] = theirs
    x[:, 2 * n] = mine.sum(axis=1) / total
    x[:, 2 * n + 1] = theirs.sum(axis=1) / total
    x[:, 2 * n + 2] = my_best / (rows - 1)
    x[:, 2 * n + 3] = their_best / (rows - 1)
    x[:, 2 * n + 4] = my_best == rows - 1                    # this move wins
    x[:, 2 * n + 5] = theirs[:, cols:2 * cols].any(axis=1)   # enemy one step from goal
    x[:, 2 * n + 6] = 1.0
    return x


def _nim(game, states, acts_list) -> np.ndarray:
    piles = np.array([game.observation(s, s.to_move)[2] for s in states], dtype=np.intp)
    owner, moves = _stack(states, acts_list)
    moves = moves.reshape(-1, 2)
    at = np.arange(len(moves))
    after = piles[owner]
    after[at, moves[:, 0]] -= moves[:, 1]
    x = np.zeros((len(moves), 24))
    x[at[:, None], after + (0, 2, 6, 12)] = 1.0  # pile capacities 1, 3, 5, 7
    nimsum = np.bitwise_xor.reduce(after, axis=1)
    all_small = (after <= 1).all(axis=1)
    x[:, 20] = ~all_small & (nimsum == 0)
    x[:, 21] = all_small & ((after == 1).sum(axis=1) % 2 == 1)
    x[:, 22] = all_small
    x[:, 23] = 1.0
    return x


def _one_hot(width: int, index, game, states, acts_list) -> np.ndarray:
    """Tabular rows: each is one-hot at ``index(game, state, action)``."""
    hot = np.array([index(game, state, action) for state, acts in zip(states, acts_list)
                    for action in acts], dtype=np.intp)
    x = np.zeros((len(hot), width))
    x[np.arange(len(hot)), hot] = 1.0
    return x


def _kuhn(game, state, action) -> int:
    own, hist = game.observation(state, state.to_move)[2]
    return (own * 4 + _KUHN_HIST[hist]) * 2 + (0 if action == "B" else 1)


def _liars_dice(game, state, action) -> int:
    own, bids, _ = game.observation(state, state.to_move)[2]
    last = 0 if not bids else 1 + ALL_BIDS.index(bids[-1])
    act = 12 if action == CHALLENGE else ALL_BIDS.index(action)
    return ((own - 1) * 13 + last) * 13 + act


_ENCODERS = {
    TicTacToe: _ttt,
    ConnectFour: _c4,
    Breakthrough: _breakthrough,
    Nim: _nim,
    KuhnPoker: functools.partial(_one_hot, 24, _kuhn),
    LiarsDice: functools.partial(_one_hot, FACES * 13 * 13, _liars_dice),
}
