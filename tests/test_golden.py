"""Golden artifact digests: every artifact of a fixed set of small runs, pinned
across commits.

Each training mode runs ``pipeline`` then ``regret`` on one small config over
all six games (Breakthrough on its 6x6 board); spag plays against ``mcts:5``,
the others self-play. Two more two_stage runs pin Stage II's other settings:
``discounted_all`` (the discounted estimator over every seat, against
``mcts:5``) and ``beta_balanced`` (the Beta estimator, with each game's steps
balanced before training). Two one-game runs, ``tictactoe_two_stage`` and
``nim_spag`` (against ``mcts:5``), pin a game trained alone, which is how Stage
III trains each game of every run, on the game's own batches. A two-game config
runs ``sweep``, ``iterate --rounds 2`` and ``head2head`` in one run directory.
Each artifact is named by the run and its file name (the store as ``store``,
since its file name holds the run id) and pinned by the first 16 hex digits of
its sha256. The manifest is hashed without its ``out`` path, which names the
test's temporary directory. Every run is made at ``--jobs 1`` and again at
``--jobs 2`` against the same digests, so the worker pools of interaction,
Stage II, Stage III (one task per game), evaluation and regret change no
artifact; the manifest, which records the worker count, is hashed as if that
were 1.

A change that alters an artifact on purpose edits the affected digests in the
same commit and names each one, and why, in CHANGES.md. To regenerate the
table, run ``PYTHONPATH=src python tests/test_golden.py`` and paste its output
over ``DIGESTS``. Checkpoints hold floats from NumPy products; the digests
were taken with NumPy 2.4.6 on x86-64 Linux, so a mismatch elsewhere is a
finding to report, never a reason to drop an artifact from the table.
"""
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from scopal.cli import main
from scopal.refine import MODES

PIPELINE = """\
[run]
games = {games}
jobs = 1

[interact]
opponent = {opponent}
episodes = 8

[rewards]
min_count = 1{rewards}

[train]
mode = {mode}
epochs = 2{train}

[eval]
opponents = random,mcts:5
episodes = 2
"""

STUDY = """\
[run]
games = nim,kuhn_poker
jobs = 1

[interact]
episodes = 8

[train]
epochs = 2

[eval]
opponents = random,mcts:5
episodes = 2
"""


ALL_GAMES = "tictactoe,connect4,breakthrough_6x6,kuhn_poker,liars_dice,nim"


def pipeline(mode: str, opponent: str = "self", rewards: str = "", train: str = "",
             games: str = ALL_GAMES) -> tuple:
    """A `PIPELINE` run; `rewards` and `train` are extra lines of those sections."""
    return (PIPELINE.format(games=games, mode=mode, opponent=opponent, rewards=rewards,
                            train=train),
            (["pipeline"], ["regret"]))


RUNS = {mode: pipeline(mode, "mcts:5" if mode == "spag" else "self") for mode in MODES}
RUNS["discounted_all"] = pipeline("two_stage", "mcts:5",
                                  rewards="\nestimator = discounted\nactors = all")
RUNS["beta_balanced"] = pipeline("two_stage", rewards="\nestimator = beta",
                                 train="\nbalance_games = true")
RUNS["tictactoe_two_stage"] = pipeline("two_stage", games="tictactoe")
RUNS["nim_spag"] = pipeline("spag", "mcts:5", games="nim")
RUNS["study"] = (STUDY, (["sweep"], ["iterate", "--rounds", "2"],
                         ["head2head", "--agents", "base,random,mcts:5"]))

DIGESTS = {
    "two_stage/checkpoint.json": "1327d05e7b3d5ce5",
    "two_stage/labeled.jsonl": "a20e9c77ad2a371f",
    "two_stage/manifest.json": "eb9a0874fe6355dd",
    "two_stage/metrics.csv": "e484bc8912139356",
    "two_stage/regret.csv": "980f3190e0e4223d",
    "two_stage/store": "a9341304b077204c",
    "two_stage/tournament.csv": "fec9e8e3cfad8339",
    "direct_kto/checkpoint.json": "c30bfcc7c02d798b",
    "direct_kto/labeled.jsonl": "a20e9c77ad2a371f",
    "direct_kto/manifest.json": "1a6acaebe3efe35e",
    "direct_kto/metrics.csv": "1e22a9ef84cdc1ed",
    "direct_kto/regret.csv": "980f3190e0e4223d",
    "direct_kto/store": "a9341304b077204c",
    "direct_kto/tournament.csv": "453c12acd7d8cc18",
    "joint/checkpoint.json": "7a328b605f9c7b65",
    "joint/labeled.jsonl": "a20e9c77ad2a371f",
    "joint/manifest.json": "945ec664d43d1d02",
    "joint/metrics.csv": "84e83db729ad11d0",
    "joint/regret.csv": "980f3190e0e4223d",
    "joint/store": "a9341304b077204c",
    "joint/tournament.csv": "fec9e8e3cfad8339",
    "bc_only/checkpoint.json": "765ebcc72e7cef12",
    "bc_only/labeled.jsonl": "a20e9c77ad2a371f",
    "bc_only/manifest.json": "07cf94ca5f965651",
    "bc_only/metrics.csv": "8ea3e8d67a611a86",
    "bc_only/regret.csv": "980f3190e0e4223d",
    "bc_only/store": "a9341304b077204c",
    "bc_only/tournament.csv": "fec9e8e3cfad8339",
    "bc_dpo/checkpoint.json": "74065523ddf6819e",
    "bc_dpo/labeled.jsonl": "a20e9c77ad2a371f",
    "bc_dpo/manifest.json": "c50eb02980854f98",
    "bc_dpo/metrics.csv": "4addf41b3efad68b",
    "bc_dpo/regret.csv": "980f3190e0e4223d",
    "bc_dpo/store": "a9341304b077204c",
    "bc_dpo/tournament.csv": "fec9e8e3cfad8339",
    "spag/checkpoint.json": "d8b16a894d674d3b",
    "spag/labeled.jsonl": "bef0246f95300192",
    "spag/manifest.json": "f333ca5170146489",
    "spag/metrics.csv": "fa9482cb7c27081a",
    "spag/regret.csv": "ba0ab41b770da8b6",
    "spag/store": "1bfc29631b0280ed",
    "spag/tournament.csv": "fec9e8e3cfad8339",
    "discounted_all/checkpoint.json": "a625249468b91c7c",
    "discounted_all/labeled.jsonl": "1fb6fd144accedcb",
    "discounted_all/manifest.json": "bf844a54d9d05e09",
    "discounted_all/metrics.csv": "07e41ba4346de80e",
    "discounted_all/regret.csv": "285727489484dffe",
    "discounted_all/store": "1bfc29631b0280ed",
    "discounted_all/tournament.csv": "fec9e8e3cfad8339",
    "beta_balanced/checkpoint.json": "8850e5b60ec11cef",
    "beta_balanced/labeled.jsonl": "7f2b9ba65bf8cd94",
    "beta_balanced/manifest.json": "c323cc44e9dc08ae",
    "beta_balanced/metrics.csv": "7ed8731ce24632b8",
    "beta_balanced/regret.csv": "285727489484dffe",
    "beta_balanced/store": "a9341304b077204c",
    "beta_balanced/tournament.csv": "fec9e8e3cfad8339",
    "tictactoe_two_stage/checkpoint.json": "cfbe010fe81b0740",
    "tictactoe_two_stage/labeled.jsonl": "2ecee244eb3955a7",
    "tictactoe_two_stage/manifest.json": "7a877671730aa5d6",
    "tictactoe_two_stage/metrics.csv": "6079288fc7b52429",
    "tictactoe_two_stage/regret.csv": "da752407f5d276b9",
    "tictactoe_two_stage/store": "5d299c8d8b8f804a",
    "tictactoe_two_stage/tournament.csv": "ac62a13d9ee87432",
    "nim_spag/checkpoint.json": "62f4673ced752716",
    "nim_spag/labeled.jsonl": "78de90ba7d513dea",
    "nim_spag/manifest.json": "84ab1be10748ebff",
    "nim_spag/metrics.csv": "0a6d0e81b4db5f8b",
    "nim_spag/regret.csv": "1587c82197ae8ce0",
    "nim_spag/store": "f16ddcbe2b81a850",
    "nim_spag/tournament.csv": "f5097509f71fbeeb",
    "study/checkpoint_round1.json": "31b8b2a8d2ee86ad",
    "study/checkpoint_round2.json": "1ab9b717561a927b",
    "study/head2head.csv": "1f964f9fdb7e0d3a",
    "study/iterate.csv": "2a51e538e147dc08",
    "study/manifest.json": "ddbb2ea3d41f77df",
    "study/sweep.csv": "fda35e865574c096",
}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["config"]["out"]
        manifest["config"]["jobs"] = 1
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run_digests(name: str, root: Path, jobs: int = 1) -> dict[str, str]:
    """Run `name`'s commands under `root` with `jobs` workers; its artifacts' digests,
    keyed run/file."""
    text, commands = RUNS[name]
    config, out = root / "config.ini", root / "runs"
    root.mkdir(exist_ok=True)
    config.write_text(text)
    for command in commands:
        assert main(["--config", str(config), "--out", str(out), "--jobs", str(jobs),
                     *command]) == 0, command
    (run_dir,) = out.iterdir()
    return {f"{name}/{'store' if path.name.endswith('.traj.jsonl') else path.name}": digest(path)
            for path in run_dir.iterdir()}


@pytest.mark.parametrize("name", RUNS)
def test_every_artifact_matches_its_golden_digest(name, tmp_path):
    expected = {key: value for key, value in DIGESTS.items() if key.startswith(f"{name}/")}
    for jobs in (1, 2):
        assert run_digests(name, tmp_path / f"jobs{jobs}", jobs) == expected, f"jobs {jobs}"


if __name__ == "__main__":
    table = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as root, redirect_stdout(io.StringIO()):
            table.update(run_digests(name, Path(root)))
    print("DIGESTS = {")
    for key, value in sorted(table.items(), 
                             key=lambda item: (list(RUNS).index(item[0].split("/")[0]), item[0])):
        print(f'    "{key}": "{value}",')
    print("}")
