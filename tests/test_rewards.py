"""Counting, the three reward estimators, and threshold labeling."""
import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopal.games import Outcome, Player, get_game
from scopal.interaction import Trajectory, collect_trajectories, replay, write_trajectories
from scopal.policy import new_policy
from scopal.rewards import (DESIRABLE, UNDESIRABLE, LabeledStep, Ply, StepStats,
                            accumulate_stats, collect_representatives,
                            estimate_rewards, label_counts, label_steps,
                            labeled_line, read_labeled, replay_plies,
                            write_labeled)


def traj(game, plies, outcome_p1, episode=0):
    """A replayed trajectory, as Stage II reads it: the trajectory and its plies."""
    outcome = {Player.P1: outcome_p1,
               Player.P2: {Outcome.WIN: Outcome.LOSE, Outcome.LOSE: Outcome.WIN,
                           Outcome.TIE: Outcome.TIE}[outcome_p1]}
    return (Trajectory(game, episode, ["x"] * len(plies), outcome,
                       {Player.P1: "policy", Player.P2: "self"}, 0, 0), plies)


def step(key, actor):
    """A ply of `key` whose state has `actor` to move."""
    return Ply("g", key, SimpleNamespace(to_move=actor), "x", 0, 0)


def accumulate(replayed, gamma=0.8):
    """`accumulate_stats` over each (trajectory, plies) pair, into one table."""
    stats = {}
    for t, plies in replayed:
        accumulate_stats(stats, t, plies, gamma)
    return stats


def test_winner_steps_counted_as_wins():
    t = traj("g", [step("k1", Player.P1), step("k2", Player.P2),
                   step("k3", Player.P1), step("k4", Player.P2),
                   step("k5", Player.P1)], Outcome.WIN)
    stats = accumulate([t])
    for key in ("k1", "k3", "k5"):
        assert stats[key].n_win == 1 and stats[key].n_all == 1
    for key in ("k2", "k4"):
        assert stats[key].n_lose == 1 and stats[key].n_all == 1


def test_same_key_in_win_and_loss():
    t1 = traj("g", [step("k", Player.P1)], Outcome.WIN, episode=0)
    t2 = traj("g", [step("k", Player.P1)], Outcome.LOSE, episode=1)
    stats = accumulate([t1, t2])
    assert stats["k"].n_all == 2 and stats["k"].n_win == 1


def test_brute_force_recount_matches_on_real_store():
    policy = new_policy(["tictactoe"])
    trajs = collect_trajectories(["tictactoe"], "policy", "self", 100, 13, policy=policy)
    stats = accumulate((t, replay_plies(t)) for t in trajs)
    # independent oracle: flat scan of the replayed states with plain tallies
    game = get_game("tictactoe")
    tally = {}
    for t in trajs:
        for state, action in replay(t):
            key = game.canonical_key(state, action)
            w, tie, lose = tally.get(key, (0, 0, 0))
            o = t.outcome[state.to_move]
            tally[key] = (w + (o is Outcome.WIN), tie + (o is Outcome.TIE),
                          lose + (o is Outcome.LOSE))
    assert set(tally) == set(stats)
    for key, (w, tie, lose) in tally.items():
        st_ = stats[key]
        assert (st_.n_win, st_.n_tie, st_.n_lose, st_.n_all) == (w, tie, lose, w + tie + lose)


def test_win_rate_estimator_formula():
    stats = {"k": StepStats(4, 3, 0, 1)}
    assert estimate_rewards(stats, method="win_rate")["k"] == pytest.approx(0.75)


def test_win_rate_tie_weight():
    stats = {"k": StepStats(4, 1, 2, 1)}
    assert estimate_rewards(stats, method="win_rate")["k"] == pytest.approx(0.25)
    half = estimate_rewards(stats, method="win_rate", tie_weight=0.5)["k"]
    assert half == pytest.approx((1 + 0.5 * 2) / 4)


def test_discounted_estimator_formula():
    t = traj("g", [step("k", Player.P1), step("o1", Player.P2),
                   step("o2", Player.P1)], Outcome.WIN)
    rewards = estimate_rewards(accumulate([t]), method="discounted")
    assert rewards["k"] == pytest.approx(0.8 ** 2)  # T=3, t=1, win
    assert rewards["o2"] == pytest.approx(1.0)      # final move of the winner


def test_discounted_estimate_of_a_multi_step_store():
    # gamma = 0.5 over games of T = 4, 2 and 3 moves; "a", "b" and "y" occur
    # twice, under different outcomes and distances to the end
    win = traj("g", [step("a", Player.P1), step("x", Player.P2),
                     step("y", Player.P1), step("b", Player.P2)], Outcome.WIN)
    tie = traj("g", [step("a", Player.P1), step("z", Player.P2)], Outcome.TIE, 1)
    loss = traj("g", [step("w", Player.P1), step("b", Player.P2),
                      step("y", Player.P1)], Outcome.LOSE, 2)
    stats = accumulate([win, tie, loss], 0.5)
    rewards = estimate_rewards(stats, method="discounted")
    assert rewards["a"] == pytest.approx((0.125 + 0.0) / 2)   # 0.5^3 * (+1), tie
    assert rewards["b"] == pytest.approx((-1.0 + 0.5) / 2)    # last move lost; 0.5^1 * (+1)
    assert rewards["y"] == pytest.approx((0.5 - 1.0) / 2)     # 0.5^1 * (+1); last move lost
    assert rewards["x"] == pytest.approx(-0.25)               # 0.5^2 * (-1)
    assert rewards["z"] == 0.0 and rewards["w"] == pytest.approx(-0.25)
    assert stats["b"].discounted == pytest.approx(-0.5) and stats["b"].n_all == 2


def test_beta_estimator_formula():
    stats = {"k": StepStats(1, 1, 0, 0)}
    assert estimate_rewards(stats, method="beta")["k"] == pytest.approx(2 / 3)


def test_estimator_parameter_validation():
    with pytest.raises(ValueError):
        estimate_rewards({"k": StepStats(1, 1, 0, 0)}, method="beta", alpha0=0)
    with pytest.raises(ValueError):
        accumulate_stats({}, *traj("g", [step("k", Player.P1)], Outcome.WIN), 1.0)
    with pytest.raises(ValueError):
        estimate_rewards({"k": StepStats(0, 0, 0, 0)}, method="win_rate")
    with pytest.raises(ValueError):
        estimate_rewards({}, method="magic")


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.sampled_from([Outcome.WIN, Outcome.LOSE, Outcome.TIE])),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_estimator_ranges_and_permutation_invariance(records):
    trajs = [traj("g", [step(k, Player.P1)], o, episode=i)
             for i, (k, o) in enumerate(records)]
    shuffled = list(trajs)
    random.Random(4).shuffle(shuffled)
    for method, lo, hi in (("win_rate", 0.0, 1.0), ("beta", 0.0, 1.0),
                           ("discounted", -1.0, 1.0)):
        fwd = estimate_rewards(accumulate(trajs), method=method)
        rev = estimate_rewards(accumulate(shuffled), method=method)
        assert fwd == rev
        for v in fwd.values():
            assert lo <= v <= hi
        if method == "beta":
            assert all(0.0 < v < 1.0 for v in fwd.values())


def labeled(key, reward, label=DESIRABLE):
    return LabeledStep("g", key, None, None, reward, label, 0, 0)


def rep_map(keys):
    return {k: Ply("g", k, None, None, 0, 0) for k in keys}


def test_labeling_thresholds():
    rewards = {"hi": 0.75, "lo": 0.2, "edge": 0.5}
    steps = label_steps(rewards, 0.5, rep_map(rewards))
    by_key = {s.key: s.label for s in steps}
    assert by_key == {"hi": DESIRABLE, "lo": UNDESIRABLE, "edge": UNDESIRABLE}


def test_label_counts_and_ordering():
    rewards = {"b": 0.9, "a": 0.1, "c": 0.6}
    steps = label_steps(rewards, 0.5, rep_map(rewards))
    assert [s.key for s in steps] == ["a", "b", "c"]
    assert label_counts(steps) == (2, 1)


def test_always_winning_action_separates_at_any_threshold():
    trajs = [traj("g", [step("good", Player.P1)], Outcome.WIN, i) for i in range(5)]
    trajs += [traj("g", [step("bad", Player.P1)], Outcome.LOSE, 5 + i) for i in range(5)]
    rewards = estimate_rewards(accumulate(trajs), method="win_rate")
    assert rewards == {"good": 1.0, "bad": 0.0}
    for delta in (0.1, 0.5, 0.9):
        labels = {s.key: s.label for s in label_steps(rewards, delta, rep_map(rewards))}
        assert labels == {"good": DESIRABLE, "bad": UNDESIRABLE}


def test_min_count_filter():
    rewards = {"rare": 1.0, "common": 1.0}
    stats = {"rare": StepStats(1, 1, 0, 0), "common": StepStats(5, 5, 0, 0)}
    steps = label_steps(rewards, 0.5, rep_map(rewards), min_count=2, stats=stats)
    assert [s.key for s in steps] == ["common"]


def test_representatives_respect_learner_filter():
    policy = new_policy(["tictactoe"])
    trajs = collect_trajectories(["tictactoe"], "policy", "mcts:5", 6, 21, policy=policy)
    learner, both = {}, {}
    for t in trajs:
        plies = replay_plies(t)
        collect_representatives(learner, t, plies, actors="learner")
        collect_representatives(both, t, plies, actors="all")
    assert set(learner) < set(both)
    # learner keys are exactly the keys of plies played by the policy seat
    game = get_game("tictactoe")
    expected = set()
    for t in trajs:
        policy_seat = Player.P1 if t.agents[Player.P1] == "policy" else Player.P2
        expected |= {game.canonical_key(state, action) for state, action in replay(t)
                     if state.to_move is policy_seat}
    assert set(learner) == expected


def labelled_store(tmp_path):
    """A store of two random Nim episodes, and every step labelled from it."""
    trajs = collect_trajectories(["nim"], "random", "random", 2, 0)
    store = tmp_path / "store.traj.jsonl"
    write_trajectories(store, trajs)
    stats, reps = {}, {}
    for t in trajs:
        plies = replay_plies(t)
        accumulate_stats(stats, t, plies, 0.8)
        collect_representatives(reps, t, plies, actors="all")
    return store, label_steps(estimate_rewards(stats), 0.5, reps)


def test_labelled_steps_point_at_the_plies_the_store_recorded(tmp_path):
    store, dataset = labelled_store(tmp_path)
    path = tmp_path / "labeled.jsonl"
    write_labeled(path, map(labeled_line, dataset))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [sorted(r) for r in records] == [["episode", "game", "key", "label", "ply",
                                             "reward"]] * len(dataset)
    nim = get_game("nim")
    assert read_labeled(path, store) == dataset
    for step in dataset:
        assert nim.canonical_key(step.state, step.action) == step.key
    assert {step.episode for step in dataset} == {0, 1}


def test_an_interrupted_labeled_write_leaves_the_previous_file(tmp_path):
    store, dataset = labelled_store(tmp_path)
    path = tmp_path / "labeled.jsonl"
    write_labeled(path, map(labeled_line, dataset))

    def interrupted():
        yield labeled_line(dataset[1])
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_labeled(path, interrupted())
    assert read_labeled(path, store) == dataset
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labeled.jsonl", store.name]


def test_a_corrupt_labeled_record_is_reported_with_its_path_and_line(tmp_path):
    store, dataset = labelled_store(tmp_path)
    path = tmp_path / "labeled.jsonl"
    write_labeled(path, map(labeled_line, dataset[:1]))
    good = path.read_text()
    path.write_text(good + good[:len(good) // 2] + "\n")  # a truncated second line
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: corrupt labeled record")):
        read_labeled(path, store)
    path.write_text(good + good.replace('"ply"', '"plies"'))  # a missing field
    message = re.escape(f"{path}:2: corrupt labeled record: 'ply'")
    with pytest.raises(ValueError, match=message):
        read_labeled(path, store)
    record = json.loads(good)
    plies = len(json.loads(store.read_text().splitlines()[record["episode"]])["steps"])
    for field, value, problem in (
            ("episode", 2, f"{store} has no nim episode 2"),
            ("ply", plies, f"nim episode {record['episode']} in {store} has no ply {plies}"),
            ("ply", -1, f"nim episode {record['episode']} in {store} has no ply -1"),
            ("key", "nim|1,3,5,7|<pile:1, take:1>", f"in {store} is {record['key']!r}, "
                                                     "not 'nim|1,3,5,7|<pile:1, take:1>'"),
            ("game", "kuhn_poker", f"no kuhn_poker block follows in {store}")):
        path.write_text(good + json.dumps({**record, field: value}) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: corrupt labeled record: ")
                           + ".*" + re.escape(problem)):
            read_labeled(path, store)
