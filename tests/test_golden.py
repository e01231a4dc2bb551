"""Golden artifact digests: every artifact of a fixed set of small runs, pinned
across commits.

Each training mode runs ``pipeline`` then ``regret`` on one small config over
all six games (Breakthrough on its 6x6 board); spag plays against ``mcts:5``,
the others self-play. Two more two_stage runs pin Stage II's other settings:
``discounted_all`` (the discounted estimator over every seat, against
``mcts:5``) and ``beta_balanced`` (the Beta estimator, with each game's steps
balanced before training). A two-game config runs ``sweep``, ``iterate --rounds 2``
and ``head2head`` in one run directory. Each artifact is named by the run and
its file name (the store as ``store``, since its file name holds the run id)
and pinned by the first 16 hex digits of its sha256. The manifest is hashed
without its ``out`` path, which names the test's temporary directory.

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
games = tictactoe,connect4,breakthrough_6x6,kuhn_poker,liars_dice,nim
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


def pipeline(mode: str, opponent: str = "self", rewards: str = "", train: str = "") -> tuple:
    """A `PIPELINE` run; `rewards` and `train` are extra lines of those sections."""
    return (PIPELINE.format(mode=mode, opponent=opponent, rewards=rewards, train=train),
            (["pipeline"], ["regret"]))


RUNS = {mode: pipeline(mode, "mcts:5" if mode == "spag" else "self") for mode in MODES}
RUNS["discounted_all"] = pipeline("two_stage", "mcts:5",
                                  rewards="\nestimator = discounted\nactors = all")
RUNS["beta_balanced"] = pipeline("two_stage", rewards="\nestimator = beta",
                                 train="\nbalance_games = true")
RUNS["study"] = (STUDY, (["sweep"], ["iterate", "--rounds", "2"],
                         ["head2head", "--agents", "base,random,mcts:5"]))

DIGESTS = {
    "two_stage/checkpoint.json": "4c8d65b83261777f",
    "two_stage/labeled.jsonl": "a20e9c77ad2a371f",
    "two_stage/manifest.json": "eb9a0874fe6355dd",
    "two_stage/metrics.csv": "c320b3917ada6a1b",
    "two_stage/regret.csv": "980f3190e0e4223d",
    "two_stage/store": "a9341304b077204c",
    "two_stage/tournament.csv": "fec9e8e3cfad8339",
    "direct_kto/checkpoint.json": "c539c058a41e0f6a",
    "direct_kto/labeled.jsonl": "a20e9c77ad2a371f",
    "direct_kto/manifest.json": "1a6acaebe3efe35e",
    "direct_kto/metrics.csv": "cfb743af71fa9120",
    "direct_kto/regret.csv": "980f3190e0e4223d",
    "direct_kto/store": "a9341304b077204c",
    "direct_kto/tournament.csv": "453c12acd7d8cc18",
    "joint/checkpoint.json": "483461d7bec0cbcf",
    "joint/labeled.jsonl": "a20e9c77ad2a371f",
    "joint/manifest.json": "945ec664d43d1d02",
    "joint/metrics.csv": "e6fa5798352ecee0",
    "joint/regret.csv": "980f3190e0e4223d",
    "joint/store": "a9341304b077204c",
    "joint/tournament.csv": "266c3aaec1855106",
    "bc_only/checkpoint.json": "c565e12b7977a610",
    "bc_only/labeled.jsonl": "a20e9c77ad2a371f",
    "bc_only/manifest.json": "07cf94ca5f965651",
    "bc_only/metrics.csv": "48cafd1058558f5d",
    "bc_only/regret.csv": "980f3190e0e4223d",
    "bc_only/store": "a9341304b077204c",
    "bc_only/tournament.csv": "fec9e8e3cfad8339",
    "bc_dpo/checkpoint.json": "874cddfca6b0e2f6",
    "bc_dpo/labeled.jsonl": "a20e9c77ad2a371f",
    "bc_dpo/manifest.json": "c50eb02980854f98",
    "bc_dpo/metrics.csv": "ca4ba5a01836df5f",
    "bc_dpo/regret.csv": "980f3190e0e4223d",
    "bc_dpo/store": "a9341304b077204c",
    "bc_dpo/tournament.csv": "fec9e8e3cfad8339",
    "spag/checkpoint.json": "ae1d1cdf8785aa34",
    "spag/labeled.jsonl": "bef0246f95300192",
    "spag/manifest.json": "f333ca5170146489",
    "spag/metrics.csv": "5f125d17a599b067",
    "spag/regret.csv": "ba0ab41b770da8b6",
    "spag/store": "1bfc29631b0280ed",
    "spag/tournament.csv": "453c12acd7d8cc18",
    "discounted_all/checkpoint.json": "7906c68deb070d99",
    "discounted_all/labeled.jsonl": "1fb6fd144accedcb",
    "discounted_all/manifest.json": "bf844a54d9d05e09",
    "discounted_all/metrics.csv": "7c8eeb52647239b1",
    "discounted_all/regret.csv": "285727489484dffe",
    "discounted_all/store": "1bfc29631b0280ed",
    "discounted_all/tournament.csv": "fec9e8e3cfad8339",
    "beta_balanced/checkpoint.json": "9d016048c273c25f",
    "beta_balanced/labeled.jsonl": "7f2b9ba65bf8cd94",
    "beta_balanced/manifest.json": "c323cc44e9dc08ae",
    "beta_balanced/metrics.csv": "82efbc4b29ac74ed",
    "beta_balanced/regret.csv": "285727489484dffe",
    "beta_balanced/store": "a9341304b077204c",
    "beta_balanced/tournament.csv": "fec9e8e3cfad8339",
    "study/checkpoint_round1.json": "9639a77ed69062dc",
    "study/checkpoint_round2.json": "6a3f0d4220ce02c3",
    "study/head2head.csv": "1f964f9fdb7e0d3a",
    "study/iterate.csv": "2a51e538e147dc08",
    "study/manifest.json": "ddbb2ea3d41f77df",
    "study/sweep.csv": "f9ae52570c9b1936",
}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["config"]["out"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run_digests(name: str, root: Path) -> dict[str, str]:
    """Run `name`'s commands under `root`; its artifacts' digests, keyed run/file."""
    text, commands = RUNS[name]
    config, out = root / "config.ini", root / "runs"
    config.write_text(text)
    for command in commands:
        assert main(["--config", str(config), "--out", str(out), *command]) == 0, command
    (run_dir,) = out.iterdir()
    return {f"{name}/{'store' if path.name.endswith('.traj.jsonl') else path.name}": digest(path)
            for path in run_dir.iterdir()}


@pytest.mark.parametrize("name", RUNS)
def test_every_artifact_matches_its_golden_digest(name, tmp_path):
    expected = {key: value for key, value in DIGESTS.items() if key.startswith(f"{name}/")}
    assert run_digests(name, tmp_path) == expected


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
