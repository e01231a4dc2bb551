"""Command-line entry point orchestrating the pipeline.

Subcommands: interact, estimate, train, evaluate, sweep, head2head, iterate,
regret, pipeline. All artifacts land under ``<out>/<run-id>/`` where the run
id is the config hash plus seed; a manifest records the resolved config.
Exit codes: 0 success, 1 runtime failure, 2 invalid config or usage.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .agents import PolicyAgent, make_agent
from .config import ConfigError, ExperimentConfig, load_config
from .csvfile import write_csv
from .evaluation import (HEAD2HEAD_COLUMNS, ITERATE_COLUMNS, REGRET_COLUMNS, SWEEP_COLUMNS,
                         TOURNAMENT_COLUMNS, average_win_rate, head_to_head, iterate,
                         opponent_sweep, regret, tournament)
from .interaction import collect_trajectories, read_trajectories, write_trajectories
from .policy import Policy, new_policy
from .refine import (METRIC_COLUMNS, balance_by_game, build_advantage_steps, train_spag,
                     train_two_stage)
from .rewards import (accumulate_stats, collect_representatives, estimate_rewards,
                      label_steps, read_labeled, write_labeled)
from .solvers import SOLVABLE

LADDER = ("random", "self", "mcts:5", "mcts:10", "mcts:100", "mcts:200",
          "mcts:500", "mcts:1000")


def _run_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out) / config.run_id()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _store_path(config: ExperimentConfig, run_dir: Path) -> Path:
    return run_dir / f"{config.run_id()}.traj.jsonl"


def _write_manifest(config: ExperimentConfig, run_dir: Path) -> None:
    artifacts = sorted(p.name for p in run_dir.iterdir()
                       if p.is_file() and p.name != "manifest.json")
    manifest = {
        "run_id": config.run_id(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "config": config.resolved(),
        "artifacts": artifacts,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_policy(config: ExperimentConfig, run_dir: Path) -> Policy:
    checkpoint = run_dir / "checkpoint.json"
    if checkpoint.exists():
        return Policy.load(checkpoint)
    return new_policy(config.games)


def cmd_interact(config: ExperimentConfig, run_dir: Path) -> None:
    policy = new_policy(config.games)
    trajs = collect_trajectories(config.games, config.agent, config.opponent,
                                 config.episodes, config.seed, policy=policy,
                                 temperature=config.interact_temperature,
                                 jobs=config.effective_jobs(),
                                 move_bound=config.move_bound)
    write_trajectories(_store_path(config, run_dir), trajs)


def cmd_estimate(config: ExperimentConfig, run_dir: Path) -> None:
    trajs = read_trajectories(_store_path(config, run_dir))
    stats = accumulate_stats(trajs)
    rewards = estimate_rewards(trajs, stats=stats if config.estimator != "discounted" else None,
                               **config.estimator_kwargs())
    reps = collect_representatives(trajs, (config.agent, config.opponent),
                                   actors=config.actors)
    dataset = label_steps(rewards, config.delta, reps,
                          min_count=config.min_count, stats=stats)
    write_labeled(run_dir / "labeled.jsonl", dataset)


def cmd_train(config: ExperimentConfig, run_dir: Path) -> None:
    policy = new_policy(config.games)
    if config.mode == "spag":
        trajs = read_trajectories(_store_path(config, run_dir))
        steps = build_advantage_steps(trajs, (config.agent, config.opponent),
                                      gamma=config.gamma)
        metrics: list[dict] = []
        trained = policy.clone()
        train_spag(trained, steps, config.train_config(), metrics)
    else:
        dataset = read_labeled(run_dir / "labeled.jsonl")
        if config.balance_games:
            dataset = balance_by_game(dataset, config.seed)
        trained, metrics = train_two_stage(policy, dataset, config.train_config())
    trained.save(run_dir / "checkpoint.json")
    write_csv(run_dir / "metrics.csv", METRIC_COLUMNS, metrics)


def cmd_evaluate(config: ExperimentConfig, run_dir: Path) -> None:
    policy = _load_policy(config, run_dir)
    agent = PolicyAgent(policy, config.eval_temperature)
    reports = tournament(agent, config.eval_opponents, config.games,
                         config.eval_episodes, config.seed,
                         eval_temperature=config.eval_temperature)
    write_csv(run_dir / "tournament.csv", TOURNAMENT_COLUMNS, map(asdict, reports))
    print(f"average win rate: {average_win_rate(reports):.4f}")


def cmd_sweep(config: ExperimentConfig, run_dir: Path) -> None:
    policy = new_policy(config.games)
    rows = opponent_sweep(policy, LADDER, config.games, config.episodes,
                          config.eval_opponents, config.eval_episodes,
                          config.train_config(), config.seed,
                          interact_temperature=config.interact_temperature,
                          eval_temperature=config.eval_temperature,
                          delta=config.delta, jobs=config.effective_jobs())
    write_csv(run_dir / "sweep.csv", SWEEP_COLUMNS, rows)


def cmd_head2head(config: ExperimentConfig, run_dir: Path, agent_specs: list[str]) -> None:
    agents = []
    for spec in agent_specs:
        if spec == "base":
            agents.append(("base", PolicyAgent(new_policy(config.games),
                                               config.eval_temperature, label="base")))
        else:
            agents.append((spec, make_agent(spec, temperature=config.eval_temperature)))
    matrix = head_to_head(agents, config.games, config.eval_episodes, config.seed)
    rows = [{"row_agent": row_label, "col_agent": col_label, "win_rate": matrix[i][j]}
            for i, (row_label, _) in enumerate(agents)
            for j, (col_label, _) in enumerate(agents)]
    write_csv(run_dir / "head2head.csv", HEAD2HEAD_COLUMNS, rows)


def cmd_iterate(config: ExperimentConfig, run_dir: Path, rounds: int) -> None:
    policy = new_policy(config.games)
    _, reports = iterate(policy, rounds, config.games, config.episodes,
                         config.train_config(), config.seed, run_dir,
                         eval_opponents=config.eval_opponents,
                         eval_episodes=config.eval_episodes,
                         interact_temperature=config.interact_temperature,
                         eval_temperature=config.eval_temperature,
                         delta=config.delta, jobs=config.effective_jobs())
    write_csv(run_dir / "iterate.csv", ITERATE_COLUMNS, reports)


def cmd_regret(config: ExperimentConfig, run_dir: Path) -> None:
    games = [g for g in config.games if g in SOLVABLE]
    if not games:
        raise ConfigError(f"regret needs at least one of {SOLVABLE} in run.games")
    policy = _load_policy(config, run_dir)
    agent = PolicyAgent(policy, config.eval_temperature)
    reports = [regret(agent, g, config.eval_episodes, config.seed) for g in games]
    write_csv(run_dir / "regret.csv", REGRET_COLUMNS, map(asdict, reports))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scopal",
        description="self-play interaction, step-reward estimation, two-stage "
                    "policy refinement, and evaluation on small adversarial games")
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--jobs", type=int, help="episode worker count (default: all cores)")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("interact", "estimate", "train", "evaluate", "sweep", "regret", "pipeline"):
        sub.add_parser(name)
    h2h = sub.add_parser("head2head")
    h2h.add_argument("--agents", default="base,random",
                     help="comma list of: base, random, mcts:<n>, policy:<checkpoint>")
    it = sub.add_parser("iterate")
    it.add_argument("--rounds", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, jobs=args.jobs, out=args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    run_dir = _run_dir(config)
    try:
        if args.command in ("sweep", "iterate") and config.mode == "spag":
            raise ConfigError(f"train.mode = spag runs only in train and pipeline, "
                              f"not in {args.command}")
        if args.command == "interact":
            cmd_interact(config, run_dir)
        elif args.command == "estimate":
            cmd_estimate(config, run_dir)
        elif args.command == "train":
            cmd_train(config, run_dir)
        elif args.command == "evaluate":
            cmd_evaluate(config, run_dir)
        elif args.command == "pipeline":
            cmd_interact(config, run_dir)
            cmd_estimate(config, run_dir)
            cmd_train(config, run_dir)
            cmd_evaluate(config, run_dir)
        elif args.command == "sweep":
            cmd_sweep(config, run_dir)
        elif args.command == "head2head":
            cmd_head2head(config, run_dir, [s.strip() for s in args.agents.split(",")])
        elif args.command == "iterate":
            cmd_iterate(config, run_dir, args.rounds)
        elif args.command == "regret":
            cmd_regret(config, run_dir)
        else:  # pragma: no cover - argparse enforces choices
            return 2
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_manifest(config, run_dir)
    print(f"run directory: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
