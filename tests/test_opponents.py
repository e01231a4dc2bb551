"""UCT scoring, search behavior, and the seeded random opponent."""
import math
import random
import sys

import pytest

from scopal.agents import RandomAgent
from scopal.games import Player, get_game
from scopal.games.breakthrough import BtState
from scopal.games.connect_four import C4State
from scopal.games.kuhn_poker import KuhnState
from scopal.games.liars_dice import LdState
from scopal.games.nim import NimState
from scopal.games.tictactoe import TttState
from scopal.mcts import EXPLORATION_C, MctsConfig, SearchNode, mcts_act, select_child, uct_score
from scopal.solvers import get_solver


def make_node(wins, visits):
    node = SearchNode()
    node.wins = wins
    node.visits = visits
    return node


def test_uct_score_formula():
    got = uct_score(make_node(3, 4), log_parent_visits=math.log(16), c=2.0)
    expected = 0.75 + 2.0 * math.sqrt(math.log(16) / 4)
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(2.4152, abs=5e-4)


def test_uct_score_zero_exploration():
    assert uct_score(make_node(0, 1), log_parent_visits=math.log(1), c=0.0) == 0.0


def test_uct_prefers_less_visited_sibling_at_equal_mean():
    a = uct_score(make_node(2, 4), log_parent_visits=math.log(20), c=2.0)
    b = uct_score(make_node(4, 8), log_parent_visits=math.log(20), c=2.0)
    assert a > b


def test_select_child_is_the_first_child_with_the_highest_uct_score():
    rng = random.Random(11)
    ties = 0
    for _ in range(500):
        node = SearchNode()
        for action in range(rng.randrange(1, 9)):
            visits = rng.choice((1, 2, 4, 7))
            node.children[action] = make_node(visits * rng.choice((0.0, 0.5, 1.0)), visits)
        node.visits = sum(child.visits for child in node.children.values()) + 1
        log_visits = math.log(node.visits)
        children = list(node.children.values())
        scores = [uct_score(child, log_visits, EXPLORATION_C) for child in children]
        assert select_child(node, log_visits) is children[scores.index(max(scores))]
        ties += scores.count(max(scores)) > 1
    assert ties > 50


def _state_after(game, moves):
    s = game.initial_state(0)
    for a in moves:
        s = game.apply(s, a)
    return s


def test_mcts_takes_the_winning_move():
    game = get_game("tictactoe")
    s = _state_after(game, (3, 0, 4, 1))  # P1 holds C1R2+C2R2, cell 5 wins
    act = mcts_act(game, s, MctsConfig(max_simulations=1000, rng_seed=0))
    assert act == 5


def test_mcts_blocks_the_unique_non_losing_move():
    game = get_game("tictactoe")
    s = _state_after(game, (3, 0, 7, 1))  # P2 threatens C1R1-C2R1-C3R1
    solver = get_solver("tictactoe")
    non_losing = [a for a in game.legal_actions(s) if solver.action_value(s, a) > -1]
    assert non_losing == [2]  # minimax oracle: blocking is forced
    for seed in range(3):
        act = mcts_act(game, s, MctsConfig(max_simulations=1000, rng_seed=seed))
        assert act == 2


def test_mcts_two_ply_endgame_matches_minimax():
    game = get_game("tictactoe")
    # X: 0,4  O: 1,3 -> X to move; winning line through 8 exists
    s = _state_after(game, (0, 1, 4, 3))
    solver = get_solver("tictactoe")
    best_value = max(solver.action_value(s, a) for a in game.legal_actions(s))
    act = mcts_act(game, s, MctsConfig(max_simulations=2000, rng_seed=1))
    assert solver.action_value(s, act) == best_value == 1


def test_mcts_single_action_returned_regardless_of_budget():
    game = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    assert mcts_act(game, s, MctsConfig(max_simulations=1, rng_seed=0)) == (0, 1)
    assert mcts_act(game, s, MctsConfig(max_simulations=200, rng_seed=9)) == (0, 1)


def test_mcts_deterministic_given_seed():
    game = get_game("connect4")
    s = game.initial_state(0)
    cfg = MctsConfig(max_simulations=300, rng_seed=123)
    assert mcts_act(game, s, cfg) == mcts_act(game, s, cfg)


def test_mcts_rejects_terminal_state():
    game = get_game("tictactoe")
    s = _state_after(game, (0, 3, 1, 4, 2))
    with pytest.raises(ValueError):
        mcts_act(game, s, MctsConfig(max_simulations=10, rng_seed=0))


@pytest.mark.parametrize("name", ["tictactoe", "connect4", "nim", "kuhn_poker"])
def test_mcts_asks_for_the_outcome_only_of_states_without_a_legal_action(monkeypatch, name):
    """Terminality is read from the node's cached legal actions; rollouts aside,
    the search asks for an outcome only to score a terminal state."""
    game = get_game(name)
    outcome = type(game).outcome
    asked = []

    def recording(self, state):
        if sys._getframe(1).f_code is mcts_act.__code__:
            asked.append(state)
        return outcome(self, state)

    monkeypatch.setattr(type(game), "outcome", recording)
    rng = random.Random(5)
    for depth in range(0, 40, 4):
        s = game.initial_state(rng.randrange(100))
        for _ in range(depth):
            after = game.apply(s, rng.choice(game.legal_actions(s)))
            if not game.legal_actions(after):
                break
            s = after
        mcts_act(game, s, MctsConfig(max_simulations=200, rng_seed=rng.randrange(100)))
    assert asked
    assert all(game.legal_actions(state) == () for state in asked)


def test_root_statistics_are_credited_to_the_root_player():
    # every simulation passes through exactly one root child, so the root's
    # accumulated wins equal the sum over children (all from the root
    # player's perspective) and its visits equal the simulation budget
    from scopal.mcts import SearchNode as _  # noqa: F401

    game = get_game("tictactoe")
    s = _state_after(game, (4, 0))
    config = MctsConfig(max_simulations=500, rng_seed=7)

    import scopal.mcts as mcts_mod

    captured = {}
    original = mcts_mod.SearchNode

    class Spy(original):
        def __init__(self):
            super().__init__()
            if "root" not in captured:
                captured["root"] = self

    mcts_mod.SearchNode = Spy
    try:
        mcts_act(game, s, config)
    finally:
        mcts_mod.SearchNode = original
    root = captured["root"]
    assert root.visits == config.max_simulations
    child_wins = sum(c.wins for c in root.children.values())
    child_visits = sum(c.visits for c in root.children.values())
    assert child_visits == root.visits
    assert root.wins == pytest.approx(child_wins, abs=1e-9)
    assert 0.0 <= root.wins <= root.visits


def test_mcts_hidden_information_games_run():
    for name in ("kuhn_poker", "liars_dice"):
        game = get_game(name)
        s = game.initial_state(4)
        act = mcts_act(game, s, MctsConfig(max_simulations=200, rng_seed=2))
        assert act in game.legal_actions(s)


def test_random_act_single_action():
    game = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    assert RandomAgent().act(game, s, random.Random(5)) == (0, 1)


def test_random_act_uniform_over_cells():
    game = get_game("tictactoe")
    s = game.initial_state(0)
    counts = {}
    for seed in range(9000):
        a = RandomAgent().act(game, s, random.Random(seed))
        counts[a] = counts.get(a, 0) + 1
    # chi-square-style bound: each cell expected 1000, allow +-100
    assert set(counts) == set(range(9))
    for cell, n in counts.items():
        assert 900 <= n <= 1100, (cell, n)


def test_random_act_deterministic():
    game = get_game("connect4")
    s = game.initial_state(0)
    agent = RandomAgent()
    assert agent.act(game, s, random.Random(77)) == agent.act(game, s, random.Random(77))


# One mid-game state per game, built from its fields, with the action and
# root-child (visits, wins) in canonical order that mcts_act gave for it at
# 400 simulations and rng_seed 29. Any change to the search's draws or scores
# shows up here.
GOLDEN_SEARCHES = {
    "tictactoe": (
        TttState((0, 0, 0, 1, 0, 0, 0, 1, 2), Player.P2),
        2, [(56, 24.0), (55, 23.0), (101, 60.0), (72, 36.0), (63, 29.0), (53, 21.5)]),
    "connect4": (
        C4State(17592464965632, 13194680598528, Player.P1),
        2, [(39, 16.0), (67, 41.0), (115, 87.0), (47, 23.0), (54, 29.0), (32, 11.0),
            (46, 22.0)]),
    "breakthrough": (
        BtState(get_game("breakthrough").bits("111101000000001022202220"), Player.P1),
        (1, 4), [(50, 28.0), (75, 52.0), (42, 21.0), (48, 26.0), (43, 22.0), (50, 28.0),
                 (45, 23.0), (47, 25.0)]),
    "kuhn_poker": (
        KuhnState((2, 1), ("P",), Player.P2),
        "B", [(268, 161.0), (132, 62.0)]),
    "liars_dice": (
        LdState((5, 3), ((2, 2),), False, Player.P2),
        ("challenge",), [(33, 14.0), (26, 8.0), (21, 4.0), (15, 0.0), (305, 305.0)]),
    "nim": (
        NimState((1, 3, 5, 1), Player.P2),
        (2, 3), [(48, 26.0), (31, 11.0), (37, 16.0), (35, 15.0), (41, 20.0), (47, 25.0),
                 (55, 32.0), (35, 15.0), (29, 10.0), (42, 21.0)]),
    "breakthrough_6x6": (
        BtState(get_game("breakthrough_6x6").bits("111111001110112000000120202222222220"),
                Player.P1),
        (21, 28), [(22, 13.0), (20, 11.0), (20, 11.0), (13, 3.0), (14, 4.0), (17, 7.0),
                   (18, 8.0), (13, 3.0), (18, 8.0), (25, 16.0), (21, 12.0), (17, 7.0),
                   (17, 7.0), (19, 10.0), (19, 9.0), (20, 11.0), (24, 15.0), (13, 3.0),
                   (17, 7.0), (26, 18.0), (27, 19.0)]),
}


@pytest.mark.parametrize("name", GOLDEN_SEARCHES)
def test_search_is_pinned_to_its_recorded_statistics(monkeypatch, name):
    """A speed-up of the search or of a rollout must keep every draw and score."""
    import scopal.mcts as mcts_mod

    state, action, child_stats = GOLDEN_SEARCHES[name]
    game = get_game(name)
    nodes = []

    class Recording(mcts_mod.SearchNode):
        def __init__(self):
            super().__init__()
            nodes.append(self)

    monkeypatch.setattr(mcts_mod, "SearchNode", Recording)
    assert mcts_act(game, state, MctsConfig(max_simulations=400, rng_seed=29)) == action
    root = nodes[0]
    assert [(root.children[a].visits, root.children[a].wins)
            for a in game.legal_actions(state)] == child_stats
