"""Episode running, seat alternation, the JSONL store, and determinism."""
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import scopal
from scopal import interaction
from scopal.agents import RandomAgent, make_agent
from scopal.games import GAME_NAMES, Outcome, Player, get_game, tie_outcome, win_for
from scopal.interaction import (Trajectory, collect_trajectories, episode_seeds, fan_out,
                                learner_seats, play_episodes, play_lockstep, read_game_blocks,
                                read_trajectories, record_trajectory, replay, run_episode,
                                stable_hash, trajectory_record, write_trajectories)
from scopal.policy import new_policy
from scopal.rewards import replay_plies


def test_stable_hash_is_stable_and_spread():
    assert stable_hash(1, "tictactoe", 0) == stable_hash(1, "tictactoe", 0)
    values = {stable_hash(0, "g", i) for i in range(100)}
    assert len(values) == 100


def test_policy_vs_random_nim_episode_is_deterministic_and_bounded():
    game = get_game("nim")
    policy = new_policy(["nim"])
    a1 = make_agent("policy", policy, 0.7)
    a2 = make_agent("random")
    t1 = run_episode(game, a1, a2, chance_seed=4, sampling_seed=9)
    t2 = run_episode(game, a1, a2, chance_seed=4, sampling_seed=9)
    assert trajectory_record(t1) == trajectory_record(t2)
    assert len(t1.steps) <= 16
    assert t1.agents[Player.P1] == "policy"


def test_replay_reproduces_recorded_outcome():
    policy = new_policy(["tictactoe", "kuhn_poker", "liars_dice"])
    trajs = collect_trajectories(["tictactoe", "kuhn_poker", "liars_dice"],
                                 "policy", "self", 30, 5, policy=policy)
    for traj in trajs:
        steps = list(replay(traj))  # raises on any mismatch
        assert len(steps) == len(traj.steps)


@pytest.mark.parametrize("steps, outcome, problem", [
    # P1 takes the top row at ply 4, and a sixth ply follows the won game
    ("C1R1,C1R2,C2R1,C2R2,C3R1,C3R3", win_for(Player.P1),
     "tictactoe episode 3, ply 5: the game has already ended"),
    ("C1R1,C1R2", tie_outcome(), "tictactoe episode 3 stops before the game ends"),
    ("C1R1 ,C1R2", tie_outcome(),
     "tictactoe episode 3, ply 0: tictactoe: no action has the text 'C1R1 '"),
], ids=["played-after-the-end", "stopped-before-the-end", "unwritten-action-text"])
def test_replay_refuses_a_trajectory_that_no_episode_plays(steps, outcome, problem):
    traj = Trajectory("tictactoe", 3, steps.split(","), dict(outcome),
                      {Player.P1: "policy", Player.P2: "self"}, 0, 0)
    with pytest.raises(ValueError, match=re.escape(problem)):
        list(replay(traj))


def test_step_indices_strictly_increase_and_keys_match_states():
    policy = new_policy(["tictactoe"])
    trajs = collect_trajectories(["tictactoe"], "policy", "self", 10, 2, policy=policy)
    game = get_game("tictactoe")
    for traj in trajs:
        plies = replay_plies(traj)
        assert len(plies) == len(traj.steps)
        for (state, action), ply in zip(replay(traj), plies):
            assert game.canonical_key(state, action) == ply.key
            assert (state, action) == (ply.state, ply.action)
        # the plies are in play order: in tic-tac-toe the movers alternate from P1
        assert [ply.state.to_move for ply in plies] == [
            Player.P1 if i % 2 == 0 else Player.P2 for i in range(len(plies))]


def test_two_episodes_alternate_first_player():
    policy = new_policy(["tictactoe"])
    trajs = collect_trajectories(["tictactoe"], "policy", "mcts:5", 2, 0, policy=policy)
    assert [t.agents[Player.P1] for t in trajs] == ["policy", "mcts:5"]


def test_paired_episodes_share_seeds_per_seat_pair():
    a, b = RandomAgent("a"), RandomAgent("b")
    paired = play_episodes("kuhn_poker", a, b, range(6), 3, paired=True)
    assert [t.agents[Player.P1] for t in paired] == ["a", "b"] * 3
    seeds = [(t.chance_seed, t.sampling_seed) for t in paired]
    assert seeds[0::2] == seeds[1::2]
    assert len(set(seeds)) == 3
    unpaired = play_episodes("kuhn_poker", a, b, range(6), 3, paired=False)
    assert [t.agents[Player.P1] for t in unpaired] == ["a", "b"] * 3
    assert len({t.chance_seed for t in unpaired}) == 6
    assert len({t.sampling_seed for t in unpaired}) == 6


def test_learner_seats_follow_the_agent_pair():
    def seats(p1, p2):
        agents = {Player.P1: p1, Player.P2: p2}
        return learner_seats(Trajectory("nim", 0, [], tie_outcome(), agents, 0, 0))

    both = {Player.P1, Player.P2}
    assert seats("policy", "self") == both
    assert seats("self", "policy") == both
    assert seats("policy", "mcts:5") == {Player.P1}
    assert seats("mcts:5", "policy") == {Player.P2}
    # a frozen checkpoint is an opponent, not a learner
    assert seats("policy:ckpt.json", "policy") == {Player.P2}
    assert seats("policy", "policy:ckpt.json") == {Player.P1}


def test_the_store_records_both_seat_labels(tmp_path):
    policy = new_policy(["tictactoe"])
    path = tmp_path / "run.traj.jsonl"
    write_trajectories(path, collect_trajectories(["tictactoe"], "policy", "mcts:5", 4, 3,
                                                  policy=policy))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["agents"] for r in records] == [{"P1": "policy", "P2": "mcts:5"},
                                              {"P1": "mcts:5", "P2": "policy"}] * 2
    assert all("first_player_agent" not in r for r in records)
    loaded = read_trajectories(path)
    assert [learner_seats(t) for t in loaded] == [{Player.P1}, {Player.P2}] * 2
    write_trajectories(path, collect_trajectories(["tictactoe"], "policy", "self", 2, 3,
                                                  policy=policy))
    assert [learner_seats(t) for t in read_trajectories(path)] == [{Player.P1, Player.P2}] * 2


@pytest.mark.parametrize("field", ["first_player_agent", "agents"])
def test_a_store_without_seat_labels_is_refused(tmp_path, field):
    """A record of the older format, with only the first player's label, and a
    record whose seat labels are not a map are both corrupt."""
    trajs = collect_trajectories(["nim"], "random", "random", 1, 5)
    record = trajectory_record(trajs[0])
    record[field] = record.pop("agents")[Player.P1.value]
    path = tmp_path / "old.traj.jsonl"
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    with pytest.raises(ValueError, match="corrupt trajectory record"):
        read_trajectories(path)


def test_seat_balance_over_many_episodes():
    policy = new_policy(["nim"])
    n = 31
    trajs = collect_trajectories(["nim"], "policy", "random", n, 1, policy=policy)
    firsts = sum(1 for t in trajs if t.agents[Player.P1] == "policy")
    assert abs(firsts - n / 2) <= 1


def test_equal_master_seed_gives_byte_identical_stores(tmp_path):
    policy = new_policy(["tictactoe", "nim"])
    p1, p2 = tmp_path / "a.traj.jsonl", tmp_path / "b.traj.jsonl"
    for path in (p1, p2):
        trajs = collect_trajectories(["tictactoe", "nim"], "policy", "self", 25, 77,
                                     policy=policy)
        write_trajectories(path, trajs)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_workers_match_serial_store(tmp_path, jobs):
    policy = new_policy(["tictactoe"])
    serial = collect_trajectories(["tictactoe"], "policy", "random", 24, 3,
                                  policy=policy, jobs=1)
    parallel = collect_trajectories(["tictactoe"], "policy", "random", 24, 3,
                                    policy=policy, jobs=jobs)
    assert [trajectory_record(t) for t in serial] == [trajectory_record(t) for t in parallel]


def test_one_worker_or_one_task_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(interaction, "ProcessPoolExecutor", no_pool)
    assert fan_out(pow, [(2, 3), (3, 2)], jobs=1) == [8, 9]
    assert fan_out(pow, [(2, 5)], jobs=8) == [32]
    assert fan_out(pow, [], jobs=8) == []
    trajs = collect_trajectories(["nim"], "random", "random", 6, 1, jobs=1)
    assert [t.episode for t in trajs] == list(range(6))


def test_the_pool_starts_no_more_workers_than_tasks(monkeypatch):
    started = []

    class InlinePool:
        """Records its worker count and runs each task at once, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(interaction, "ProcessPoolExecutor", InlinePool)
    assert fan_out(pow, [(2, k) for k in range(3)], jobs=64) == [1, 2, 4]
    assert fan_out(pow, [(2, k) for k in range(5)], jobs=2) == [1, 2, 4, 8, 16]
    assert started == [3, 2]


def test_the_largest_tasks_start_first_and_results_keep_task_order(monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            submitted.append(future.result())
            return future

    monkeypatch.setattr(interaction, "ProcessPoolExecutor", InlinePool)
    assert fan_out(pow, [(2, k) for k in range(4)], jobs=2, sizes=[5, 9, 1, 7]) == [1, 2, 4, 8]
    assert submitted == [2, 8, 1, 4]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="needs fork")
def test_forked_workers_run_tasks_that_do_not_pickle():
    """Forked workers find the tasks in the memory they share with the parent, so
    only a task's index crosses the pipe; the results still pickle."""
    unpicklable = (lambda: None,)
    assert fan_out(len, [(unpicklable,), ((1, 2),), ("abc",)], jobs=2) == [1, 2, 3]


def test_each_game_block_reads_alone_as_in_the_whole_store(tmp_path):
    trajs = collect_trajectories(["nim", "kuhn_poker", "tictactoe"], "random", "random", 3, 4)
    path = tmp_path / "run.traj.jsonl"
    write_trajectories(path, trajs)
    blocks = interaction.game_blocks(path)
    assert [lines for lines, _ in blocks] == [range(1, 4), range(4, 7), range(7, 10)]
    whole = [[trajectory_record(t) for t in block] for block in read_game_blocks(path)]
    for (lines, plies), block in zip(blocks, whole):
        (alone,) = read_game_blocks(path, lines)
        assert [trajectory_record(t) for t in alone] == block
        assert plies == sum(len(record["steps"]) for record in block)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_the_process_that_forks_workers_runs_one_thread():
    # a fork copies only the forking thread, so a second thread (OpenBLAS's
    # pool) could leave a worker on a lock that no one will release
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(scopal.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = ("import scopal.cli\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('Threads:')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "1"


def test_store_roundtrip(tmp_path):
    policy = new_policy(["kuhn_poker"])
    trajs = collect_trajectories(["kuhn_poker"], "policy", "self", 12, 8, policy=policy)
    path = tmp_path / "run.traj.jsonl"
    write_trajectories(path, trajs)
    loaded = read_trajectories(path)
    assert [trajectory_record(t) for t in loaded] == [trajectory_record(t) for t in trajs]
    # outcome fields present and per-player
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec["outcome"]) == {"P1", "P2"}
    # a step is its action's text, and nothing Stage II derives from the replay
    game = get_game("kuhn_poker")
    assert rec["steps"] == [game.action_text(action) for _, action in replay(trajs[0])]


@pytest.mark.parametrize("read", [read_trajectories, lambda path: list(read_game_blocks(path))],
                         ids=["read_trajectories", "read_game_blocks"])
def test_a_store_whose_steps_are_objects_is_refused(tmp_path, read):
    """A store of the older format, whose steps also held each ply's key, actor and
    move index, is a corrupt record, reported with its path and line."""
    trajs = collect_trajectories(["nim"], "random", "random", 2, 5)
    game = get_game("nim")
    good, old = (trajectory_record(t) for t in trajs)
    old["steps"] = [{"key": game.canonical_key(state, action), "actor": state.to_move.value,
                     "action": text, "move_index": i}
                    for i, ((state, action), text) in enumerate(zip(replay(trajs[1]),
                                                                     old["steps"]))]
    path = tmp_path / "old.traj.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in (good, old)))
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: corrupt trajectory record")):
        read(path)


def test_an_interrupted_store_write_leaves_the_previous_store(tmp_path):
    trajs = collect_trajectories(["nim"], "random", "random", 2, 5)
    path = tmp_path / "run.traj.jsonl"
    write_trajectories(path, trajs)
    before = path.read_bytes()

    def interrupted():
        yield trajs[1]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_trajectories(path, interrupted())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.traj.jsonl"]


def test_corrupt_store_record_raises(tmp_path):
    path = tmp_path / "bad.traj.jsonl"
    path.write_text('{"game": "tictactoe", "episode": 0}\n')
    with pytest.raises(ValueError, match="corrupt"):
        read_trajectories(path)


def test_self_play_uses_one_policy_object_for_both_seats():
    policy = new_policy(["tictactoe"])
    a1 = make_agent("policy", policy, 0.7)
    a2 = make_agent("self", policy, 0.7)
    assert a1.policy is a2.policy is policy


def test_move_bound_yields_tie(monkeypatch):
    # force an artificial bound to verify the safety-net outcome
    game = get_game("breakthrough")
    policy = new_policy(["breakthrough"])
    a = make_agent("policy", policy, 0.7)
    monkeypatch.setattr(game, "max_moves", 4)
    traj = run_episode(game, a, a, chance_seed=0, sampling_seed=0)
    assert len(traj.steps) == 4
    assert all(o.value == "Tie" for o in traj.outcome.values())


def test_each_trajectory_owns_its_outcome_dict():
    """Games return shared read-only outcome maps; a trajectory keeps a dict of its own."""
    game = get_game("tictactoe")
    agent = RandomAgent()
    played = play_lockstep(game, [(i, agent, agent, i, i) for i in range(6)])
    recorded = [record_trajectory(trajectory_record(t)) for t in played]
    shared = [win_for(Player.P1), win_for(Player.P2), tie_outcome()]
    outcomes = [t.outcome for t in played + recorded]
    assert len({id(outcome) for outcome in outcomes + shared}) == len(outcomes) + 3
    for outcome in outcomes:
        assert type(outcome) is dict
        outcome[Player.P1] = Outcome.TIE  # a caller may change its own copy
    assert win_for(Player.P1)[Player.P1] is Outcome.WIN
    assert set(tie_outcome().values()) == {Outcome.TIE}


def test_episode_count_validation():
    with pytest.raises(ValueError):
        collect_trajectories(["nim"], "random", "random", 0, 1)


LOCKSTEP_PAIRS = [("policy", "self"), ("policy", "mcts:3"), ("random", "policy")]


@pytest.mark.parametrize("pair", LOCKSTEP_PAIRS, ids="-".join)
@pytest.mark.parametrize("name", GAME_NAMES + ("breakthrough_6x6",))
def test_lockstep_episodes_equal_one_episode_at_a_time(monkeypatch, name, pair):
    """`play_episodes` over a range plays each episode as `run_episode` does alone,
    unbounded and under a `max_moves` that cuts the longest episodes."""
    game = get_game(name)
    rng = random.Random(4)
    policy = new_policy([name])
    policy.blocks[name] = np.array([rng.gauss(0, 0.5) for _ in policy.blocks[name]])
    agent1, agent2 = (make_agent(spec, policy, 0.7) for spec in pair)
    episodes = range(3, 11)

    def alone():
        out = []
        for i in episodes:
            first, second = (agent1, agent2) if i % 2 == 0 else (agent2, agent1)
            chance_seed, sampling_seed = episode_seeds(7, name, i)
            out.append(trajectory_record(run_episode(
                game, first, second, episode=i, chance_seed=chance_seed,
                sampling_seed=sampling_seed)))
        return out

    def lockstep():
        return [trajectory_record(t)
                for t in play_episodes(name, agent1, agent2, episodes, 7, paired=False)]

    unbounded = alone()
    lengths = [len(record["steps"]) for record in unbounded]
    assert min(lengths) < max(lengths)  # the episodes end at different plies
    assert lockstep() == unbounded
    monkeypatch.setattr(game, "max_moves", max(lengths) - 1)
    assert lockstep() == alone()
