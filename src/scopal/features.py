"""Per-game feature encoders mapping (observation, action) to fixed vectors.

Board games use indicator planes of the position *after* the candidate move
from the mover's perspective, plus a few line/threat counts; Nim adds
nim-sum indicators of the resulting piles; the two hidden-information games
are small enough for exact one-hot tabular features.

Feature vectors depend only on the mover's observation and the action, never
on hidden opponent information.
"""
from __future__ import annotations

import numpy as np

from .games import Game
from .games.breakthrough import Breakthrough
from .games.connect_four import COLS as C4_COLS, ROWS as C4_ROWS
from .games.liars_dice import ALL_BIDS, CHALLENGE, FACES
from .games.tictactoe import LINES

_KUHN_HIST = {(): 0, ("P",): 1, ("B",): 2, ("P", "B"): 3}


def _c4_windows() -> np.ndarray:
    """(42, 69) incidence of board cells (row-major, as in the planes) in the 4-windows."""
    wins = []
    for r in range(C4_ROWS):
        for c in range(C4_COLS - 3):
            wins.append([(r, c + i) for i in range(4)])
    for c in range(C4_COLS):
        for r in range(C4_ROWS - 3):
            wins.append([(r + i, c) for i in range(4)])
    for c in range(C4_COLS - 3):
        for r in range(C4_ROWS - 3):
            wins.append([(r + i, c + i) for i in range(4)])
    for c in range(3, C4_COLS):
        for r in range(C4_ROWS - 3):
            wins.append([(r + i, c - i) for i in range(4)])
    incidence = np.zeros((C4_ROWS * C4_COLS, len(wins)), dtype=np.int64)
    for w, cells in enumerate(wins):
        for r, c in cells:
            incidence[r * C4_COLS + c, w] = 1
    return incidence


_C4_WINDOWS = _c4_windows()
# bit of cell r * COLS + c in the column-major bitboard
_C4_CELL_BITS = np.array([c * 7 + r for r in range(C4_ROWS) for c in range(C4_COLS)],
                         dtype=np.uint64)


def feature_dim(game: Game) -> int:
    name = game.name
    if name == "tictactoe":
        return 22
    if name == "connect4":
        return 90
    if isinstance(game, Breakthrough):
        return 2 * game.cols * game.rows + 7
    if name == "nim":
        return 24
    if name == "kuhn_poker":
        return 24
    if name == "liars_dice":
        return FACES * 13 * 13
    raise KeyError(f"no feature encoder for game {name!r}")


def feature_matrix(game: Game, state, acts) -> np.ndarray:
    """(len(acts), d) matrix whose row i is ``features(game, state, acts[i])``.

    Connect Four and Breakthrough encode every action at once; the other
    games stack their per-action rows.
    """
    if not acts:
        return np.zeros((0, feature_dim(game)))
    if game.name == "connect4":
        return _c4(game, state, acts)
    if isinstance(game, Breakthrough):
        return _breakthrough(game, state, acts)
    return np.array([features(game, state, a) for a in acts])


def features(game: Game, state, action) -> np.ndarray:
    name = game.name
    if name == "tictactoe":
        return _ttt(game, state, action)
    if name == "connect4" or isinstance(game, Breakthrough):
        return feature_matrix(game, state, (action,))[0]
    if name == "nim":
        return _nim(game, state, action)
    if name == "kuhn_poker":
        return _kuhn(game, state, action)
    if name == "liars_dice":
        return _liars_dice(game, state, action)
    raise KeyError(f"no feature encoder for game {name!r}")


def _ttt(game, state, action) -> np.ndarray:
    rel = list(game.observation(state, state.to_move)[2])
    rel[action] = 1  # the candidate move, mover-relative
    x = np.zeros(22)
    for i, v in enumerate(rel):
        if v == 1:
            x[i] = 1.0
        elif v == 2:
            x[9 + i] = 1.0
    wins = twos = threats = 0
    for a, b, c in LINES:
        m = (rel[a] == 1) + (rel[b] == 1) + (rel[c] == 1)
        o = (rel[a] == 2) + (rel[b] == 2) + (rel[c] == 2)
        if m == 3:
            wins += 1
        elif m == 2 and o == 0:
            twos += 1
        elif o == 2 and m == 0:
            threats += 1
    x[18] = float(wins)
    x[19] = float(twos)
    x[20] = float(threats)
    x[21] = 1.0
    return x


def _c4(game, state, acts) -> np.ndarray:
    mine, theirs = game.observation(state, state.to_move)[2]
    mine_cells = ((np.uint64(mine) >> _C4_CELL_BITS) & np.uint64(1)).astype(np.int64)
    theirs_cells = ((np.uint64(theirs) >> _C4_CELL_BITS) & np.uint64(1)).astype(np.int64)
    heights = (mine_cells + theirs_cells).reshape(C4_ROWS, C4_COLS).sum(axis=0)
    cols = np.array(acts)
    n = len(cols)
    after = np.tile(mine_cells, (n, 1))  # my discs after each candidate drop
    after[np.arange(n), heights[cols] * C4_COLS + cols] = 1
    m = after @ _C4_WINDOWS
    o = theirs_cells @ _C4_WINDOWS
    mine_free = np.where(o == 0, m, 0)  # my count in windows the opponent does not touch
    theirs_free = np.where(m == 0, o, 0)
    x = np.zeros((n, 90))
    x[:, :42] = after
    x[:, 42:84] = theirs_cells
    x[:, 84:87] = (mine_free[:, :, None] == [4, 3, 2]).sum(axis=1)  # win4, m3, m2
    x[:, 87:89] = (theirs_free[:, :, None] == [3, 2]).sum(axis=1)   # o3, o2
    x[:, 89] = 1.0
    return x


def _breakthrough(game: Breakthrough, state, acts) -> np.ndarray:
    cols, rows = game.cols, game.rows
    n = cols * rows
    moves = np.array([game.relative_action(state, a) for a in acts])
    k = len(moves)
    boards = np.tile(game.observation(state, state.to_move)[2], (k, 1))
    boards[np.arange(k), moves[:, 0]] = 0
    boards[np.arange(k), moves[:, 1]] = 1
    mine = boards == 1
    theirs = boards == 2
    row = np.arange(n) // cols
    my_best = (mine * row).max(axis=1)
    their_best = (theirs * (rows - 1 - row)).max(axis=1)
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


def _nim(game, state, action) -> np.ndarray:
    piles = list(game.observation(state, state.to_move)[2])
    pile, take = action
    piles[pile] -= take
    x = np.zeros(24)
    offset = 0
    for i, count in enumerate(piles):
        x[offset + count] = 1.0
        offset += 2 + 2 * i  # pile capacities 1, 3, 5, 7
    nimsum = 0
    for count in piles:
        nimsum ^= count
    all_small = all(count <= 1 for count in piles)
    ones = sum(1 for count in piles if count == 1)
    x[20] = 1.0 if (not all_small and nimsum == 0) else 0.0
    x[21] = 1.0 if (all_small and ones % 2 == 1) else 0.0
    x[22] = 1.0 if all_small else 0.0
    x[23] = 1.0
    return x


def _kuhn(game, state, action) -> np.ndarray:
    own, hist = game.observation(state, state.to_move)[2]
    x = np.zeros(24)
    idx = (own * 4 + _KUHN_HIST[hist]) * 2 + (0 if action == "B" else 1)
    x[idx] = 1.0
    return x


def _liars_dice(game, state, action) -> np.ndarray:
    own, bids, _ = game.observation(state, state.to_move)[2]
    last = 0 if not bids else 1 + ALL_BIDS.index(bids[-1])
    act = 12 if action == CHALLENGE else ALL_BIDS.index(action)
    x = np.zeros(FACES * 13 * 13)
    x[((own - 1) * 13 + last) * 13 + act] = 1.0
    return x
