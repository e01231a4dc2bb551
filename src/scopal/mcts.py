"""UCT Monte Carlo tree search with a tunable simulation budget.

One search = ``max_simulations`` iterations of select / expand / one random
rollout / backpropagate, with UCT exploration constant c = 2. Node
statistics are credited to the player who chooses the node (the mover at its
parent), so UCT selection maximizes each mover's own win estimate; the root
is credited to the searching player.

Hidden-information games are handled by determinizing once per simulation:
the opponent's private card/die is resampled consistently with the searching
player's observation at the root. Public legal-action sets in these games do
not depend on the hidden sample, so one tree serves all determinizations.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .games import SCORE, Game

EXPLORATION_C = 2.0


@dataclass
class MctsConfig:
    max_simulations: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_simulations < 1:
            raise ValueError("max_simulations must be >= 1")


class SearchNode:
    __slots__ = ("wins", "visits", "children", "actions", "next_untried")

    def __init__(self):
        self.wins = 0.0
        self.visits = 0
        self.children: dict = {}
        self.actions = None  # legal actions, filled on first arrival
        self.next_untried = 0


def uct_score(node: SearchNode, parent_visits: int, c: float) -> float:
    """w/n + c*sqrt(ln N / n); callers treat unvisited nodes as +inf."""
    return node.wins / node.visits + c * math.sqrt(math.log(parent_visits) / node.visits)


def mcts_act(game: Game, state, config: MctsConfig):
    """Pick the most-visited root action after the configured simulations.

    Deterministic for a fixed (state, config) including the seed; visit ties
    break toward the lowest canonical action order.
    """
    rng = random.Random(config.rng_seed)
    root_player = state.to_move
    root = SearchNode()
    root.actions = game.legal_actions(state)
    if not root.actions:
        raise ValueError("mcts_act: state is terminal")

    for _ in range(config.max_simulations):
        s = game.determinize(state, root_player, rng)
        node = root
        path = [(root, root_player)]
        while True:
            if node.actions is None:
                node.actions = game.legal_actions(s)
            if not node.actions:
                # a state is terminal iff it has no legal action
                outcomes = game.outcome(s)
                break
            mover = s.to_move
            if node.next_untried < len(node.actions):
                # expand the first untried action in canonical order
                action = node.actions[node.next_untried]
                node.next_untried += 1
                child = SearchNode()
                node.children[action] = child
                s = game.apply(s, action)
                path.append((child, mover))
                outcomes = game.random_playout(s, rng)
                break
            # select: all children visited at least once
            best_action = None
            best_score = -math.inf
            parent_visits = node.visits
            for action in node.actions:
                child = node.children[action]
                score = uct_score(child, parent_visits, EXPLORATION_C)
                if score > best_score:
                    best_score = score
                    best_action = action
            s = game.apply(s, best_action)
            node = node.children[best_action]
            path.append((node, mover))
        for nd, player in path:
            nd.visits += 1
            nd.wins += SCORE[outcomes[player]]

    best_action = None
    best_visits = -1
    for action in root.actions:
        child = root.children.get(action)
        if child is not None and child.visits > best_visits:
            best_visits = child.visits
            best_action = action
    return best_action
