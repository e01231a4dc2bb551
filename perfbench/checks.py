"""Correctness checks run after each CLI stage of a benchmark repetition.

Each check reads the stage's artifacts from the run directory and returns
``(problems, figures)``: a list of what is wrong (empty when the stage is
correct) and the figures the benchmark reports from those artifacts.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from scopal.cli import _store_path as store_path
from scopal.config import ExperimentConfig
from scopal.features import feature_dim
from scopal.games import get_game
from scopal.interaction import read_trajectories, replay
from scopal.policy import Policy
from scopal.rewards import DESIRABLE, UNDESIRABLE
from scopal.solvers import SOLVABLE

# the evaluate stage prints its average win rate with four decimals
PRINTED_DIGITS = 1e-4


def check_interact(config: ExperimentConfig, run_dir: Path, printed: str):
    path = store_path(config, run_dir)
    problems = []
    trajectories = read_trajectories(path)
    expected = len(config.games) * config.episodes
    if len(trajectories) != expected:
        problems.append(f"store has {len(trajectories)} trajectories, expected {expected}")
    for traj in trajectories:
        try:
            for _ in replay(traj):
                pass
        except ValueError as err:
            problems.append(f"{traj.game} episode {traj.episode} does not replay: {err}")
    return problems, {"store_bytes": path.stat().st_size}


def check_estimate(config: ExperimentConfig, run_dir: Path, printed: str):
    problems = []
    n_d = n_u = 0
    with open(run_dir / "labeled.jsonl") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for rec in records:
        if rec["label"] == DESIRABLE:
            n_d += 1
        elif rec["label"] == UNDESIRABLE:
            n_u += 1
        if (rec["reward"] > config.delta) != (rec["label"] == DESIRABLE):
            problems.append(f"{rec['key']}: label {rec['label']} contradicts reward "
                            f"{rec['reward']} at threshold {config.delta}")
    if n_d + n_u != len(records):
        problems.append(f"n_D + n_U = {n_d + n_u} but {len(records)} steps are labelled")
    if not records:
        problems.append("labelled set is empty")
    return problems, {"n_D": n_d, "n_U": n_u}


def check_train(config: ExperimentConfig, run_dir: Path, printed: str):
    problems = []
    policy = Policy.load(run_dir / "checkpoint.json")
    for name in config.games:
        block = policy.blocks.get(name)
        if block is None:
            problems.append(f"checkpoint has no block for {name}")
        elif block.shape != (feature_dim(get_game(name)),):
            problems.append(f"{name} block has shape {block.shape}")
        elif not all(math.isfinite(x) for x in block):
            problems.append(f"{name} block is not finite")
    return problems, {}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_evaluate(config: ExperimentConfig, run_dir: Path, printed: str):
    problems = []
    rows = _rows(run_dir / "tournament.csv")
    expected = len(config.games) * len(config.eval_opponents)
    if len(rows) != expected:
        problems.append(f"tournament.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        total = int(row["n_win"]) + int(row["n_lose"]) + int(row["n_tie"])
        if total != int(row["episodes"]):
            problems.append(f"{row['game']} vs {row['agent2']}: {total} outcomes "
                            f"for {row['episodes']} episodes")
        if not 0.0 <= float(row["win_rate"]) <= 1.0:
            problems.append(f"{row['game']} vs {row['agent2']}: win rate {row['win_rate']}")
    rates = [float(row["win_rate"]) for row in rows]
    average = sum(rates) / len(rates) if rates else 0.0
    prefix = "average win rate: "
    shown = [line[len(prefix):] for line in printed.splitlines() if line.startswith(prefix)]
    if not shown or not abs(float(shown[0]) - average) <= PRINTED_DIGITS:
        problems.append(f"printed {shown} does not match the tournament average {average}")
    return problems, {"eval_win_rate": average}


def check_regret(config: ExperimentConfig, run_dir: Path, printed: str):
    problems = []
    rows = _rows(run_dir / "regret.csv")
    expected = [g for g in config.games if g in SOLVABLE]
    if [row["game"] for row in rows] != expected:
        problems.append(f"regret.csv covers {[row['game'] for row in rows]}, expected {expected}")
    values = [float(row["mean_regret"]) for row in rows]
    for row, value in zip(rows, values):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{row['game']}: regret {value} outside [0, 1]")
    mean = sum(values) / len(values) if values else 0.0
    return problems, {"regret_mean": mean}


CHECKS = {
    "interact": check_interact,
    "estimate": check_estimate,
    "train": check_train,
    "evaluate": check_evaluate,
    "regret": check_regret,
}

# the artifact each stage writes; repetitions of one seed must agree on its hash
ARTIFACTS = {
    "interact": store_path,
    "estimate": lambda config, run_dir: run_dir / "labeled.jsonl",
    "train": lambda config, run_dir: run_dir / "checkpoint.json",
    "evaluate": lambda config, run_dir: run_dir / "tournament.csv",
    "regret": lambda config, run_dir: run_dir / "regret.csv",
}
