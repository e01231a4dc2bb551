"""Exhaustive minimax for the exactly solvable games (Tic-Tac-Toe, Nim).

Values are outcome ``RETURN``s, in {-1, 0, +1} from the mover's perspective,
memoized on the mover-relative state key (sound: the games are symmetric
under seat relabeling). Per-move regret is the minimax value loss of the
chosen move, scaled from the value gap [0, 2] down to [0, 1].
"""
from __future__ import annotations

from .games import RETURN, Game, get_game

SOLVABLE = ("tictactoe", "nim")


class MinimaxSolver:
    def __init__(self, game: Game):
        if game.name not in SOLVABLE:
            raise ValueError(f"{game.name!r} is not supported by the exhaustive solver")
        self.game = game
        self._memo: dict[str, float] = {}

    def value(self, state) -> float:
        """Game value for the player to move under optimal play by both."""
        outcome = self.game.outcome(state)
        if outcome is not None:
            return RETURN[outcome[state.to_move]]
        key = self.game.canonical_state_key(state)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        best = -1.0
        for action in self.game.legal_actions(state):
            q = -self.value(self.game.apply(state, action))
            if q > best:
                best = q
                if best == 1:
                    break
        self._memo[key] = best
        return best

    def action_value(self, state, action) -> float:
        return -self.value(self.game.apply(state, action))

    def best_action(self, state):
        """Optimal move, ties broken toward the lowest canonical order."""
        best_action = None
        best = -2
        for action in self.game.legal_actions(state):
            q = self.action_value(state, action)
            if q > best:
                best, best_action = q, action
        return best_action

    def regret(self, state, action) -> float:
        """(V*(s) - Q*(s, action)) / 2, in [0, 1]; 0 for optimal moves."""
        return (self.value(state) - self.action_value(state, action)) / 2.0


_SOLVERS: dict[str, MinimaxSolver] = {}


def get_solver(game_name: str) -> MinimaxSolver:
    if game_name not in _SOLVERS:
        _SOLVERS[game_name] = MinimaxSolver(get_game(game_name))
    return _SOLVERS[game_name]


class OptimalAgent:
    """Plays the solver's best move; used by the exact-solver sanity checks."""

    def __init__(self, game_name: str):
        self.solver = get_solver(game_name)
        self.label = f"optimal:{game_name}"

    def act(self, game, state, rng):
        return self.solver.best_action(state)
