"""UCT Monte Carlo tree search with a tunable simulation budget.

One search = ``max_simulations`` iterations of select / expand / one random
rollout / backpropagate, with UCT exploration constant c = 2. Node
statistics are credited to the player who chooses the node (the mover at its
parent), so UCT selection maximizes each mover's own win estimate; the root
is credited to the searching player. A node selects only once every child is
expanded, and children are expanded in canonical order, so ``select_child``
walks them in canonical order: it takes ln N of the node's visits once and
keeps the first child with the highest UCT score.

Hidden-information games are handled by determinizing once per simulation:
the opponent's private card/die is resampled consistently with the searching
player's observation at the root. Public legal-action sets in these games do
not depend on the hidden sample, so one tree serves all determinizations.
In perfect-information games each node keeps its state, so selection applies no
moves, and a terminal node keeps its outcome, so the game is asked for it once.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .games import SCORE, Game, Player

EXPLORATION_C = 2.0


@dataclass
class MctsConfig:
    max_simulations: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_simulations < 1:
            raise ValueError("max_simulations must be >= 1")


class SearchNode:
    __slots__ = ("wins", "visits", "children", "actions", "next_untried", "state", "action",
                 "player", "outcome")

    def __init__(self):
        self.wins = 0.0
        self.visits = 0
        self.children: dict = {}  # action -> child, in canonical order
        self.actions = None  # legal actions, filled on first arrival
        self.next_untried = 0
        self.state = None  # the state after the node's action, set on expansion
        self.action = None  # the action that leads to the node
        self.player = None  # the player credited with the node's wins
        self.outcome = None  # a perfect-information terminal node's outcome


def uct_score(node: SearchNode, log_parent_visits: float, c: float) -> float:
    """w/n + c*sqrt(ln N / n), given ln N: the reference for `select_child`.

    Only visited nodes are scored: expansion reaches every unvisited child first.
    """
    return node.wins / node.visits + c * math.sqrt(log_parent_visits / node.visits)


def select_child(node: SearchNode, log_visits: float) -> SearchNode:
    """The first child, in canonical order, with the highest `uct_score` at
    c = EXPLORATION_C; the formula is inlined, one call per tree level."""
    best, best_score, c, sqrt = None, -math.inf, EXPLORATION_C, math.sqrt
    for child in node.children.values():
        visits = child.visits
        score = child.wins / visits + c * sqrt(log_visits / visits)
        if score > best_score:
            best, best_score = child, score
    return best


def mcts_act(game: Game, state, config: MctsConfig):
    """Pick the most-visited root action after the configured simulations.

    Deterministic for a fixed (state, config) including the seed; visit ties
    break toward the lowest canonical action order.
    """
    rng = random.Random(config.rng_seed)
    perfect = game.perfect_information
    root_player = state.to_move
    root = SearchNode()
    root.player = root_player
    root.actions = game.legal_actions(state)
    if not root.actions:
        raise ValueError("mcts_act: state is terminal")

    log, p1, p2 = math.log, Player.P1, Player.P2
    for _ in range(config.max_simulations):
        s = state if perfect else game.determinize(state, root_player, rng)
        node = root
        path = [root]
        while True:
            actions = node.actions
            if actions is None:
                actions = node.actions = game.legal_actions(s)
            if node.next_untried < len(actions):
                # expand the first untried action in canonical order
                child = SearchNode()
                child.action = action = actions[node.next_untried]
                child.player = s.to_move
                node.next_untried += 1
                node.children[action] = child
                s = child.state = game.apply(s, action)
                path.append(child)
                outcomes = game.random_playout(s, rng)
                break
            if not actions:
                # a state is terminal iff it has no legal action; a determinized
                # terminal's outcome may depend on the hidden sample
                outcomes = node.outcome
                if outcomes is None or not perfect:
                    outcomes = node.outcome = game.outcome(s)
                break
            node = select_child(node, log(node.visits))
            s = node.state if perfect else game.apply(s, node.action)
            path.append(node)
        p1_score, p2_score = SCORE[outcomes[p1]], SCORE[outcomes[p2]]
        for nd in path:
            nd.visits += 1
            nd.wins += p1_score if nd.player is p1 else p2_score

    children = root.children  # the expanded root actions, in canonical order
    return max(children, key=lambda action: children[action].visits)
