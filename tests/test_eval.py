"""Win-rate metric, matches, tournaments, head-to-head, regret, and the
exact solvers."""
import random
from dataclasses import asdict

import pytest

from scopal.agents import MctsAgent, PolicyAgent, RandomAgent, make_agent
from scopal.csvfile import write_csv
from scopal.evaluation import (TOURNAMENT_COLUMNS, MatchReport, RegretReport, head_to_head,
                               interaction_win_rate, play_match, regret, regret_reports,
                               tournament, win_rate)
from scopal.games import Game, Outcome, Player, get_game
from scopal.interaction import collect_trajectories, play_episodes, replay, stable_hash
from scopal.policy import new_policy
from scopal.rewards import replay_plies
from scopal.solvers import MinimaxSolver, OptimalAgent, get_solver


def test_win_rate_formula():
    assert win_rate(3, 1, 0) == pytest.approx(0.75)
    assert win_rate(0, 0, 10) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        win_rate(0, 0, 0)


def test_match_totals_and_complement():
    a = RandomAgent("A")
    b = RandomAgent("B")
    r1 = play_match("tictactoe", a, b, 60, 5)
    assert r1.n_win + r1.n_lose + r1.n_tie == 60
    r2 = play_match("tictactoe", b, a, 60, 5)  # same seeds, seats mirrored
    assert r1.win_rate + r2.win_rate == pytest.approx(1.0)
    assert (r1.n_win, r1.n_lose) == (r2.n_lose, r2.n_win)
    # with paired seeds two identical agents split every seat pair evenly,
    # so the case above cannot show that swapping replays the same games;
    # a random agent against a search agent, with a chance deal, can
    rand, mcts = RandomAgent(), MctsAgent(20)
    r1 = play_match("kuhn_poker", rand, mcts, 20, 5)
    r2 = play_match("kuhn_poker", mcts, rand, 20, 5)
    assert (r1.n_win, r1.n_lose, r1.n_tie) == (r2.n_lose, r2.n_win, r2.n_tie)


def test_match_requires_two_episodes():
    with pytest.raises(ValueError):
        play_match("nim", RandomAgent(), RandomAgent(), 1, 0)


def test_tournament_report_grid(tmp_path):
    pol = new_policy(["tictactoe", "nim"])
    agent = PolicyAgent(pol, 0.2)
    reports = tournament(agent, ["random", "mcts:5"], ["tictactoe", "nim"], 10, 3)
    assert len(reports) == 4
    assert {(r.game, r.agent2) for r in reports} == {
        ("tictactoe", "random"), ("tictactoe", "mcts:5"),
        ("nim", "random"), ("nim", "mcts:5")}
    for r in reports:
        assert r.n_win + r.n_lose + r.n_tie == 10
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, TOURNAMENT_COLUMNS, map(asdict, reports))
    reports2 = tournament(agent, ["random", "mcts:5"], ["tictactoe", "nim"], 10, 3)
    write_csv(p2, TOURNAMENT_COLUMNS, map(asdict, reports2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("episodes", [3, 4, 27])
def test_split_evaluation_equals_whole_matches(episodes, jobs):
    # tournaments, head-to-head and regret cut each match into episode
    # ranges, some shorter and some longer than a seat pair, and run them
    # over `jobs` workers; the reports must equal matches played whole, in
    # one `play_episodes` call each and counted and scored here
    def whole(game, agent1, agent2, seed):
        return play_episodes(game, agent1, agent2, range(episodes), seed, paired=True)

    def counts(trajs):
        outcomes = [t.outcome[Player.P1 if t.episode % 2 == 0 else Player.P2] for t in trajs]
        return [outcomes.count(o) for o in (Outcome.WIN, Outcome.LOSE, Outcome.TIE)]

    games, opponents = ["tictactoe", "nim"], ["random", "mcts:5"]
    agent = PolicyAgent(new_policy(games), 0.2)
    reports = tournament(agent, opponents, games, episodes, 3, jobs=jobs)
    expected = []
    for g in games:
        for spec in opponents:
            seed = stable_hash(3, "tournament", g, spec)
            n = counts(whole(g, agent, make_agent(spec, temperature=0.2), seed))
            expected.append(MatchReport(g, "policy", spec, *n, win_rate(*n), episodes, seed))
    assert reports == expected
    agents = [("policy", agent), ("random", RandomAgent()), ("mcts:5", MctsAgent(5))]
    matrix = head_to_head(agents, games, episodes, 4, jobs=jobs)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        rates = [win_rate(*counts(whole(g, agents[i][1], agents[j][1],
                                        stable_hash(4, "h2h", g, agents[i][0], agents[j][0]))))
                 for g in games]
        assert matrix[i][j] == sum(rates) / len(rates)
    reports = regret_reports(agent, games, episodes, 5, opponent_spec="mcts:5", jobs=jobs)
    for report, g in zip(reports, games):
        solver = get_solver(g)
        regrets = [solver.regret(state, action)
                   for t in whole(g, agent, MctsAgent(5), stable_hash(5, "regret", g))
                   for state, action in replay(t)
                   if state.to_move is (Player.P1 if t.episode % 2 == 0 else Player.P2)]
        assert report == RegretReport(g, "policy", sum(regrets) / len(regrets), len(regrets),
                                      episodes)
        assert report.moves > 0


def test_playing_makes_no_canonical_key(monkeypatch):
    """Keys belong to Stage II: interaction, matches and regret only play."""
    calls = []
    key = Game.canonical_key

    def counted(game, state, action):
        calls.append(game.name)
        return key(game, state, action)

    monkeypatch.setattr(Game, "canonical_key", counted)
    games = ["tictactoe", "kuhn_poker", "nim"]
    policy = new_policy(games)
    collect_trajectories(games, "policy", "mcts:5", 4, 1, policy=policy)
    agent = PolicyAgent(policy, 0.7)
    tournament(agent, ["random", "mcts:5"], games, 4, 2)
    regret_reports(agent, ["tictactoe", "nim"], 4, 3, opponent_spec="mcts:5")
    assert calls == []
    # the patch does count: Stage II's replay makes one key per ply
    (traj,) = collect_trajectories(["nim"], "random", "random", 1, 1)
    replay_plies(traj)
    assert calls == ["nim"] * len(traj.steps) and calls


def test_head_to_head_matrix_properties():
    agents = [("r1", RandomAgent("r1")), ("r2", RandomAgent("r2")),
              ("m", MctsAgent(20))]
    matrix = head_to_head(agents, ["tictactoe"], 20, 9)
    n = len(agents)
    for i in range(n):
        assert matrix[i][i] == 0.5
        for j in range(n):
            assert matrix[i][j] + matrix[j][i] == pytest.approx(1.0)
    # the search agent beats both random agents
    assert matrix[2][0] > 0.5 and matrix[2][1] > 0.5


def test_self_match_with_mirrored_seeds_is_balanced():
    pol = new_policy(["tictactoe"])
    a = PolicyAgent(pol, 0.2, label="a")
    b = PolicyAgent(pol, 0.2, label="b")
    report = play_match("tictactoe", a, b, 400, 17)
    # one policy in both seats of a pair with shared seeds plays the same
    # game twice, once from each side: a win and a loss each, or two ties
    assert report.n_win == report.n_lose
    assert report.win_rate == 0.5


def test_interaction_win_rate_counts_the_policy_seat():
    trajs = collect_trajectories(["nim"], "policy", "random", 30, 4,
                                 policy=new_policy(["nim"]))
    rate = interaction_win_rate(trajs)
    outcomes = [t.outcome[Player.P1 if t.agents[Player.P1] == "policy" else Player.P2]
                for t in trajs]
    expected = win_rate(outcomes.count(Outcome.WIN), outcomes.count(Outcome.LOSE),
                        outcomes.count(Outcome.TIE))
    assert rate == expected
    assert 0.0 < rate < 1.0


def test_interaction_win_rate_of_self_play_counts_both_seats():
    trajs = collect_trajectories(["tictactoe"], "policy", "self", 40, 7,
                                 policy=new_policy(["tictactoe"]))
    first_mover = [t.outcome[Player.P1] for t in trajs]
    # the store is not balanced between the seats ...
    assert first_mover.count(Outcome.WIN) != first_mover.count(Outcome.LOSE)
    # ... yet the learner holds both, so it wins exactly the games it loses
    assert interaction_win_rate(trajs) == 0.5


# -- solvers -------------------------------------------------------------------


def test_a_checkpoint_without_the_match_game_is_refused(tmp_path):
    checkpoint = tmp_path / "nim.json"
    new_policy(["nim"]).save(checkpoint)
    opponent = make_agent(f"policy:{checkpoint}")
    with pytest.raises(ValueError, match="'tictactoe'"):
        play_match("tictactoe", RandomAgent(), opponent, 2, 0)
    assert set(opponent.policy.blocks) == {"nim"}


def test_solver_values_for_known_positions():
    ttt = get_solver("tictactoe")
    game = get_game("tictactoe")
    assert ttt.value(game.initial_state(0)) == 0  # draw under optimal play
    nim = get_solver("nim")
    assert nim.value(get_game("nim").initial_state(0)) == -1  # misere loss


def test_solver_rejects_unsupported_games():
    with pytest.raises(ValueError):
        MinimaxSolver(get_game("connect4"))


def test_optimal_vs_optimal_tictactoe_always_ties():
    game = get_game("tictactoe")
    agent = OptimalAgent("tictactoe")
    report = play_match("tictactoe", agent, OptimalAgent("tictactoe"), 20, 1)
    assert report.n_tie == 20


def test_optimal_vs_optimal_nim_second_player_always_wins():
    report = play_match("nim", OptimalAgent("nim"), OptimalAgent("nim"), 20, 2)
    # seats alternate: the first player always loses, so each optimal agent
    # wins exactly the episodes where it sat second
    assert report.n_win == 10 and report.n_lose == 10 and report.n_tie == 0
    game = get_game("nim")
    solver = get_solver("nim")
    s = game.initial_state(0)
    agent = OptimalAgent("nim")
    while game.outcome(s) is None:
        s = game.apply(s, agent.act(game, s, None))
    assert game.outcome(s)[Player.P1] is Outcome.LOSE


def test_regret_zero_for_optimal_agent():
    for name in ("tictactoe", "nim"):
        report = regret(OptimalAgent(name), name, 6, 3, opponent_spec="mcts:50")
        assert report.mean_regret == 0.0
        assert report.moves > 0


def test_regret_positive_for_uniform_random_play():
    report = regret(RandomAgent(), "tictactoe", 40, 7, opponent_spec="random")
    assert report.mean_regret > 0.05


def test_regret_scaled_to_unit_interval():
    solver = get_solver("tictactoe")
    game = get_game("tictactoe")
    s = game.initial_state(0)
    for a in game.legal_actions(s):
        assert 0.0 <= solver.regret(s, a) <= 1.0
    # a known blunder: empty-board regrets are all 0 (every opening draws),
    # but handing over a fork is a full point
    s2 = s
    for mv in (0, 4, 8):  # X corner, O center, X opposite corner
        s2 = s2 if game.outcome(s2) else s2
        s2 = game.apply(s2, mv)
    # O to move; edge replies lose (-1) while solver value is 0 at best
    values = {a: solver.action_value(s2, a) for a in game.legal_actions(s2)}
    assert max(values.values()) == 0
    worst = min(values.values())
    assert worst == -1


def test_regret_unsupported_game_rejected():
    with pytest.raises(Exception):
        regret(RandomAgent(), "connect4", 2, 0)
