"""The command-line stages end to end on a tiny Nim config."""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scopal

from scopal import cli, evaluation, interaction, refine, rewards
from scopal.cli import main
from scopal.config import load_config
from scopal.games import get_game
from scopal.interaction import read_trajectories, write_trajectories
from scopal.policy import Policy, new_policy
from scopal.rewards import labeled_line, write_labeled

CONFIG = """\
[run]
games = nim
jobs = 1

[interact]
episodes = 2

[train]
epochs = 1

[eval]
opponents = random
episodes = 2
"""

HEADERS = {
    "tournament.csv": "game,agent1,agent2,n_win,n_lose,n_tie,win_rate,episodes,seed",
    "metrics.csv": "stage,epoch,loss,n_D,n_U,lambda_D,lambda_U,z0",
    "regret.csv": "game,agent,mean_regret,moves,episodes",
    "head2head.csv": "row_agent,col_agent,win_rate",
    "iterate.csv": "round,opponent,interaction_win_rate,eval_win_rate,version",
    "sweep.csv": ("opponent,interaction_win_rate,n_desirable,n_undesirable,"
                  "desirable_fraction,trained_win_rate"),
}


@pytest.fixture
def run(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(CONFIG)
    out = tmp_path / "runs"

    def run(*command):
        return main(["--config", str(config), "--out", str(out), *command])

    run.out = out
    run.config = config
    return run


def test_every_stage_writes_its_csv(run):
    for command in (["pipeline"], ["regret"], ["head2head", "--agents", "base,random"],
                    ["iterate", "--rounds", "2"], ["sweep"]):
        assert run(*command) == 0, command
    (run_dir,) = run.out.iterdir()
    for name, header in HEADERS.items():
        assert (run_dir / name).read_text().splitlines()[0] == header, name
    assert len((run_dir / "head2head.csv").read_text().splitlines()) == 1 + 4
    assert len((run_dir / "iterate.csv").read_text().splitlines()) == 1 + 2


def test_jobs_never_changes_an_artifact(tmp_path):
    # eval.episodes = 3: every match and regret set ends in an unpaired episode
    config = tmp_path / "small.ini"
    config.write_text(CONFIG.replace("games = nim", "games = nim, tictactoe")
                      .replace("opponents = random\nepisodes = 2",
                               "opponents = random,mcts:5\nepisodes = 3"))
    run_dirs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        for command in (["pipeline"], ["regret"], ["head2head", "--agents", "base,random,mcts:5"],
                        ["sweep"], ["iterate", "--rounds", "2"]):
            assert main(["--config", str(config), "--out", str(out), "--jobs", jobs,
                         *command]) == 0, command
        (run_dir,) = out.iterdir()
        run_dirs.append(run_dir)
    artifacts = sorted(p.name for p in run_dirs[0].iterdir() if p.name != "manifest.json")
    assert {"tournament.csv", "regret.csv", "head2head.csv", "sweep.csv"} <= set(artifacts)
    assert sorted(p.name for p in run_dirs[1].iterdir() if p.name != "manifest.json") == artifacts
    for name in artifacts:
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name
    header, *rows = (run_dirs[0] / "tournament.csv").read_text().splitlines()
    column = header.split(",").index("episodes")
    assert [row.split(",")[column] for row in rows] == ["3"] * 4


@pytest.mark.parametrize("command, artifact", [("evaluate", "tournament.csv"),
                                               ("regret", "regret.csv")])
def test_a_stage_without_a_checkpoint_fails_and_says_so(run, capsys, command, artifact):
    assert run(command) == 1
    (run_dir,) = run.out.iterdir()
    assert f"no checkpoint.json in {run_dir}: run train first" in capsys.readouterr().err
    assert not (run_dir / artifact).exists()


def test_iterate_csv_does_not_depend_on_the_output_directory(run, tmp_path):
    assert run("iterate", "--rounds", "2") == 0
    other = tmp_path / "elsewhere"
    assert main(["--config", str(run.config), "--out", str(other),
                 "iterate", "--rounds", "2"]) == 0
    (run_dir,) = run.out.iterdir()
    (other_dir,) = other.iterdir()
    text = (run_dir / "iterate.csv").read_text()
    assert text == (other_dir / "iterate.csv").read_text()
    assert text.splitlines()[2].split(",")[1] == "policy:checkpoint_round1.json"


@pytest.mark.parametrize("command", ["sweep", "iterate"])
def test_spag_mode_is_rejected_before_any_work(run, monkeypatch, command):
    monkeypatch.setenv("SCOPAL_TRAIN_MODE", "spag")
    assert run(command) == 2
    assert not run.out.exists()


def test_regret_without_a_solvable_game_is_rejected_before_any_work(run, capsys):
    run.config.write_text(CONFIG.replace("games = nim", "games = kuhn_poker"))
    assert run("regret") == 2
    assert "regret needs at least one of" in capsys.readouterr().err
    assert not run.out.exists()


@pytest.mark.parametrize("setting", [("max_moves", 3), ("SCOPAL_REWARDS_ACTORS", "all")])
def test_sweep_plays_and_labels_as_the_pipeline_does(run, monkeypatch, setting):
    assert run("sweep") == 0
    (default_dir,) = run.out.iterdir()
    default = (default_dir / "sweep.csv").read_text()
    shutil.rmtree(default_dir)
    if setting[0] == "max_moves":  # the ply cap is the game's own, not a config setting
        monkeypatch.setattr(get_game("nim"), *setting)
    else:
        monkeypatch.setenv(*setting)
    assert run("sweep") == 0
    (other_dir,) = run.out.iterdir()
    assert (other_dir / "sweep.csv").read_text() != default


def test_joint_mode_with_an_empty_labeled_set_trains_nothing(run, monkeypatch):
    monkeypatch.setenv("SCOPAL_TRAIN_MODE", "joint")
    assert run("interact") == 0
    (run_dir,) = run.out.iterdir()
    (run_dir / "labeled.jsonl").write_text("")  # estimate refuses to write one
    assert run("train") == 0
    assert (run_dir / "labeled.jsonl").read_text() == ""
    assert (run_dir / "metrics.csv").read_text().splitlines() == [HEADERS["metrics.csv"]]


def test_a_stage_ii_that_labels_nothing_for_a_game_is_refused(run, monkeypatch, capsys):
    monkeypatch.setenv("SCOPAL_INTERACT_EPISODES", "4")
    monkeypatch.setenv("SCOPAL_REWARDS_MIN_COUNT", "1000")
    assert run("pipeline") == 1
    (run_dir,) = run.out.iterdir()
    assert ("Stage II labels no step of nim (rewards.min_count = 1000, "
            "rewards.actors = learner)") in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == [f"{run_dir.name}.traj.jsonl"]
    assert run("sweep") == 1
    assert "Stage II labels no step of nim" in capsys.readouterr().err


# the two Breakthroughs' keys sort in the opposite order to their names ('_' < '|')
STREAMED_GAMES = ("breakthrough", "breakthrough_6x6", "kuhn_poker", "liars_dice", "nim")


def test_estimate_labels_one_game_at_a_time_as_the_whole_store_would(run, monkeypatch,
                                                                       tmp_path):
    monkeypatch.setenv("SCOPAL_RUN_GAMES", ",".join(STREAMED_GAMES))
    assert run("interact") == 0
    games_per_call = []
    label = cli._label

    def counted(config, trajs):
        games_per_call.append({t.game for t in trajs})
        return label(config, trajs)

    monkeypatch.setattr(cli, "_label", counted)
    assert run("estimate") == 0
    assert games_per_call == [{game} for game in STREAMED_GAMES]
    (run_dir,) = run.out.iterdir()
    config = load_config(str(run.config), out=str(run.out))
    whole = tmp_path / "whole.jsonl"
    write_labeled(whole, map(labeled_line,
                             label(config, read_trajectories(cli._store_path(config, run_dir)))))
    assert (run_dir / "labeled.jsonl").read_bytes() == whole.read_bytes()


def test_estimate_replays_each_trajectory_once(run, monkeypatch):
    """Stage II's counts and representatives both read one replay of each trajectory."""
    monkeypatch.setenv("SCOPAL_RUN_GAMES", "kuhn_poker,nim,tictactoe")
    monkeypatch.setenv("SCOPAL_INTERACT_EPISODES", "6")
    assert run("interact") == 0
    replayed = []
    original = interaction.replay

    def counted(traj):
        replayed.append((traj.game, traj.episode))
        return original(traj)

    for module in (interaction, rewards, refine, evaluation):
        if getattr(module, "replay", None) is original:
            monkeypatch.setattr(module, "replay", counted)
    assert run("estimate") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    assert replayed == [(t.game, t.episode) for t in read_trajectories(store)]
    assert len(replayed) == 18


def test_estimate_refuses_a_store_whose_games_are_not_in_blocks(run, monkeypatch, capsys):
    monkeypatch.setenv("SCOPAL_RUN_GAMES", "kuhn_poker,nim")
    assert run("interact") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    trajs = read_trajectories(store)
    assert [t.game for t in trajs] == ["kuhn_poker"] * 2 + ["nim"] * 2
    write_trajectories(store, trajs[1:] + trajs[:1])
    assert run("estimate") == 1
    assert (f"{store}: kuhn_poker reappears after another game's trajectories"
            in capsys.readouterr().err)
    assert sorted(p.name for p in run_dir.iterdir()) == [store.name, "manifest.json"]


def test_train_refuses_a_labelled_ply_that_is_not_in_the_store(run, capsys):
    assert run("interact") == 0 and run("estimate") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    labeled = run_dir / "labeled.jsonl"
    lines = labeled.read_text().splitlines()
    record = {**json.loads(lines[1]), "ply": 99}
    labeled.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    assert run("train") == 1
    assert (f"{labeled}:2: corrupt labeled record: nim episode {record['episode']} in {store} "
            f"has no ply 99") in capsys.readouterr().err
    assert not (run_dir / "checkpoint.json").exists()


def test_train_refuses_the_store_of_another_config(run, monkeypatch, tmp_path, capsys):
    assert run("interact") == 0 and run("estimate") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    monkeypatch.setenv("SCOPAL_INTERACT_OPPONENT", "random")
    assert main(["--config", str(run.config), "--out", str(tmp_path / "other"), "interact"]) == 0
    monkeypatch.delenv("SCOPAL_INTERACT_OPPONENT")
    (other,) = (tmp_path / "other").glob("*/*.traj.jsonl")
    assert other.name != store.name
    shutil.copyfile(other, store)
    assert run("train") == 1
    assert re.search(rf"{re.escape(str(run_dir / 'labeled.jsonl'))}:\d+: corrupt labeled record: "
                     rf"nim episode \d+, ply \d+ in {re.escape(str(store))} is '[^']+', not 'nim\|",
                     capsys.readouterr().err)
    assert not (run_dir / "checkpoint.json").exists()


def test_spag_pipeline_trains_on_the_store(run, monkeypatch):
    monkeypatch.setenv("SCOPAL_TRAIN_MODE", "spag")
    monkeypatch.setenv("SCOPAL_INTERACT_OPPONENT", "mcts:5")
    assert run("pipeline") == 0
    (run_dir,) = run.out.iterdir()
    header, *rows = (run_dir / "metrics.csv").read_text().splitlines()
    assert rows and all(row.startswith("spag,") for row in rows)
    assert Policy.load(run_dir / "checkpoint.json").version == 1


@pytest.mark.parametrize("command", [["iterate", "--rounds", "0"],
                                     ["head2head", "--agents", "base,mcts:0"],
                                     ["head2head", "--agents", "base,,random"],
                                     ["head2head", "--agents", "base,policy"],
                                     ["head2head", "--agents", "base,base"],
                                     ["head2head", "--agents", "mcts:3,mcts:03"]],
                         ids=["rounds-0", "mcts-0", "empty-entry", "policy", "repeated",
                              "mcts-leading-zero"])
def test_bad_flags_exit_2_before_any_run_directory(run, capsys, command):
    if command[0] == "iterate":  # argparse refuses the value
        with pytest.raises(SystemExit) as exit_info:
            run(*command)
        assert exit_info.value.code == 2
    else:  # --agents is checked once the config has loaded
        assert run(*command) == 2
        assert "config error: --agents: " in capsys.readouterr().err
    assert not run.out.exists()


def test_head2head_refuses_a_checkpoint_without_a_run_game(run, monkeypatch, tmp_path, capsys):
    checkpoint = tmp_path / "nim.json"
    new_policy(["nim"]).save(checkpoint)
    monkeypatch.setenv("SCOPAL_RUN_GAMES", "tictactoe")
    assert run("head2head", "--agents", f"random,policy:{checkpoint}") == 2
    err = capsys.readouterr().err
    assert f"--agents: {checkpoint} has no parameters for game 'tictactoe'" in err
    assert not run.out.exists()


def test_head2head_refuses_a_malformed_checkpoint(run, tmp_path, capsys):
    checkpoint = tmp_path / "x.json"
    checkpoint.write_text('{"format": "scopal-policy-v1"}')
    assert run("head2head", "--agents", f"random,policy:{checkpoint}") == 2
    assert f"--agents: {checkpoint}: the checkpoint has no integer version" in (
        capsys.readouterr().err)
    assert not run.out.exists()


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """Players and outcomes hash by identity and strings by a per-process seed,
    so no artifact may follow the iteration order of a set or a dict keyed by them."""
    config = tmp_path / "hashed.ini"
    config.write_text(CONFIG.replace("games = nim", "games = nim, breakthrough_6x6")
                      .replace("episodes = 2\n\n[train]",
                               "episodes = 4\nopponent = mcts:5\n\n[train]")
                      .replace("opponents = random", "opponents = random,mcts:5"))
    run_dirs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            [str(Path(scopal.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for command in ("pipeline", "regret"):
            subprocess.run([sys.executable, "-m", "scopal.cli", "--config", str(config),
                            "--out", str(out), command], env=env, check=True,
                           capture_output=True)
        (run_dir,) = out.iterdir()
        run_dirs.append(run_dir)
    artifacts = sorted(p.name for p in run_dirs[0].iterdir() if p.name != "manifest.json")
    assert {"labeled.jsonl", "checkpoint.json", "metrics.csv", "tournament.csv",
            "regret.csv"} <= set(artifacts)
    assert any(name.endswith(".traj.jsonl") for name in artifacts)
    for name in artifacts:
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name


# three games, so that Stage II has three blocks and Stage III three tasks
THREE_GAMES = (CONFIG.replace("games = nim", "games = nim, tictactoe, kuhn_poker")
               .replace("episodes = 2\n\n[train]", "episodes = 6\n\n[train]"))


@pytest.mark.parametrize("batch_size, mode", [
    pytest.param(1, "two_stage", id="1"), pytest.param(2, "two_stage", id="2"),
    pytest.param(3, "two_stage", id="3-two_stage"), pytest.param(3, "joint", id="3-joint")])
def test_each_game_trains_in_a_task_of_its_own_at_every_batch_size(tmp_path, monkeypatch,
                                                                     batch_size, mode):
    """Stage III hands `fan_out` one task per game, sized by the game's labelled
    steps, and the worker count changes no artifact of training. A batch of three
    may pair two KTO steps, so batch size 3 also runs in joint mode."""
    monkeypatch.setenv("SCOPAL_TRAIN_BATCH_SIZE", str(batch_size))
    monkeypatch.setenv("SCOPAL_TRAIN_MODE", mode)
    config = tmp_path / "three.ini"
    config.write_text(THREE_GAMES)
    tasks = []
    fan_out = refine.fan_out

    def counted(fn, task_list, jobs, sizes=None):
        tasks.append(([game for game, _ in task_list], jobs, sizes))
        return fan_out(fn, task_list, jobs, sizes)

    monkeypatch.setattr(refine, "fan_out", counted)
    run_dirs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        for command in ("interact", "estimate", "train"):
            assert main(["--config", str(config), "--out", str(out), "--jobs", jobs,
                         command]) == 0, command
        (run_dir,) = out.iterdir()
        run_dirs.append(run_dir)
    labelled = [json.loads(line)["game"] for line in
                (run_dirs[0] / "labeled.jsonl").read_text().splitlines()]
    games = list(dict.fromkeys(labelled))
    assert len(games) == 3
    sizes = [labelled.count(game) for game in games]
    assert tasks == [(games, 1, sizes), (games, 2, sizes)]
    for name in ("checkpoint.json", "metrics.csv", "labeled.jsonl"):
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name


def test_estimate_hands_each_game_to_a_task_of_its_own(run, monkeypatch):
    """Stage II reads the store once and hands `fan_out` one task per game, holding
    the game's trajectories and sized by their plies, at every worker count."""
    run.config.write_text(THREE_GAMES)
    assert run("interact") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    trajs = read_trajectories(store)
    games = list(dict.fromkeys(t.game for t in trajs))
    blocks = [[(t.game, t.episode) for t in trajs if t.game == game] for game in games]
    plies = [sum(len(t.steps) for t in trajs if t.game == game) for game in games]
    tasks, labelled = [], []
    fan_out = cli.fan_out

    def counted(fn, task_list, jobs, sizes=None):
        tasks.append(([[(t.game, t.episode) for t in block] for block, in task_list], jobs,
                      sizes))
        return fan_out(fn, task_list, jobs, sizes)

    monkeypatch.setattr(cli, "fan_out", counted)
    for jobs in ("1", "2"):
        assert main(["--config", str(run.config), "--out", str(run.out), "--jobs", jobs,
                     "estimate"]) == 0
        labelled.append((run_dir / "labeled.jsonl").read_bytes())
    assert len(games) == 3
    assert tasks == [(blocks, 1, plies), (blocks, 2, plies)]
    assert labelled[0] == labelled[1]


def test_a_corrupt_store_line_is_named_when_estimate_reads_it(run, capsys):
    run.config.write_text(THREE_GAMES)
    assert run("interact") == 0
    (run_dir,) = run.out.iterdir()
    (store,) = run_dir.glob("*.traj.jsonl")
    lines = store.read_text().splitlines()
    record = json.loads(lines[7])
    del record["seeds"]
    store.write_text("\n".join([*lines[:7], json.dumps(record), *lines[8:]]) + "\n")
    assert main(["--config", str(run.config), "--out", str(run.out), "--jobs", "2",
                 "estimate"]) == 1
    assert f"error: {store}:8: corrupt trajectory record: 'seeds'" in capsys.readouterr().err
    store.write_text("\n".join([*lines[:7], lines[7][:20], *lines[8:]]) + "\n")
    assert main(["--config", str(run.config), "--out", str(run.out), "--jobs", "2",
                 "estimate"]) == 1
    assert f"error: {store}:8: corrupt trajectory record: " in capsys.readouterr().err
    assert not (run_dir / "labeled.jsonl").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_loss_that_is_not_finite_in_a_worker_still_stops_training(run, monkeypatch, capsys):
    run.config.write_text(THREE_GAMES)
    monkeypatch.setenv("SCOPAL_TRAIN_LEARNING_RATE", "1e308")
    assert run("interact") == 0 and run("estimate") == 0
    assert main(["--config", str(run.config), "--out", str(run.out), "--jobs", "2",
                 "train"]) == 1
    assert "error: training diverged during bc: loss is not finite" in capsys.readouterr().err
    (run_dir,) = run.out.iterdir()
    assert not (run_dir / "checkpoint.json").exists()
