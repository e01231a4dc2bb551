"""Command-line entry point orchestrating the pipeline.

Subcommands: interact, estimate, train, evaluate, sweep, head2head, iterate,
regret, pipeline. All artifacts land under ``<out>/<run-id>/`` where the run
id is the config hash plus seed; a manifest records the resolved config.
Exit codes: 0 success, 1 runtime failure, 2 invalid config or usage. Once the
config loads, ``config.check_list`` refuses an empty or repeated ``--agents`` entry.

Stage II runs only through ``_label`` and Stage III only through
``refine.train_two_stage``, so the opponent study (``sweep`` and
``iterate``) labels and trains exactly as ``estimate``/``train``/``pipeline``
do, under every setting.

``--jobs`` (``run.jobs``; 0 = every core this process may run on) is the size
of the worker pool of interaction, Stage II, Stage III, evaluation and
regret. Stage II labels each game's block of the store in a task of its own;
Stage III trains each game in a task of its own at ``train.batch_size <= 2``
and in one task otherwise. No artifact depends on it.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from itertools import chain
from pathlib import Path

from .agents import PolicyAgent, make_agent
from .atomic import atomic_open
from .config import (ConfigError, ExperimentConfig, check_agent, check_list, load_config,
                     parse_list)
from .csvfile import write_csv
from .evaluation import (HEAD2HEAD_COLUMNS, REGRET_COLUMNS, TOURNAMENT_COLUMNS, MatchReport,
                         average_win_rate, head_to_head, interaction_win_rate,
                         regret_reports, tournament)
from .interaction import (Trajectory, collect_trajectories, fan_out, game_blocks,
                          read_game_blocks, read_trajectories, stable_hash, write_trajectories)
from .policy import Policy, new_policy
from .refine import METRIC_COLUMNS, train_two_stage
from .rewards import (LabeledStep, accumulate_stats, collect_representatives,
                      estimate_rewards, label_counts, label_steps, labeled_line,
                      read_labeled, replay_plies, write_labeled)
from .solvers import SOLVABLE

LADDER = ("random", "self", "mcts:5", "mcts:10", "mcts:100", "mcts:200",
          "mcts:500", "mcts:1000")
SWEEP_COLUMNS = ("opponent", "interaction_win_rate", "n_desirable", "n_undesirable",
                 "desirable_fraction", "trained_win_rate")
ITERATE_COLUMNS = ("round", "opponent", "interaction_win_rate", "eval_win_rate", "version")


def _run_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out) / config.run_id()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _store_path(config: ExperimentConfig, run_dir: Path) -> Path:
    return run_dir / f"{config.run_id()}.traj.jsonl"


def _write_manifest(config: ExperimentConfig, run_dir: Path) -> None:
    artifacts = sorted(p.name for p in run_dir.iterdir()
                       if p.is_file() and p.name != "manifest.json")
    manifest = {"run_id": config.run_id(), "config_hash": config.config_hash(),
                "seed": config.seed, "config": config.resolved(), "artifacts": artifacts}
    with atomic_open(run_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_policy(run_dir: Path) -> Policy:
    checkpoint = run_dir / "checkpoint.json"
    if not checkpoint.exists():
        raise FileNotFoundError(f"no checkpoint.json in {run_dir}: run train first")
    return Policy.load(checkpoint)


def _interact(config: ExperimentConfig, policy: Policy,
              agent_pair: tuple[str, str]) -> list[Trajectory]:
    """Stage I: `agent_pair` plays `config.episodes` episodes of every game."""
    return collect_trajectories(config.games, *agent_pair, config.episodes, config.seed,
                                policy=policy, temperature=config.interact_temperature,
                                jobs=config.effective_jobs())


def _label(config: ExperimentConfig, trajs: list[Trajectory]) -> list[LabeledStep]:
    """Stage II: replay each of `trajs` once, estimate each step's reward, label it."""
    stats, reps = {}, {}
    for traj, plies in zip(trajs, map(replay_plies, trajs)):
        accumulate_stats(stats, traj, plies, config.gamma)
        collect_representatives(reps, traj, plies, actors=config.actors)
    rewards = estimate_rewards(stats, method=config.estimator, tie_weight=config.tie_weight,
                               alpha0=config.alpha0, beta0=config.beta0)
    dataset = label_steps(rewards, config.delta, reps, min_count=config.min_count, stats=stats)
    if unlabelled := {t.game for t in trajs} - {step.game for step in dataset}:
        raise ValueError(f"Stage II labels no step of {min(unlabelled)} (rewards.min_count = "
                         f"{config.min_count}, rewards.actors = {config.actors})")
    return dataset


def _tournament(config: ExperimentConfig, policy: Policy, label: str) -> list[MatchReport]:
    """The match reports of `policy`, named `label`, against every `eval.opponents` entry."""
    agent = PolicyAgent(policy, config.eval_temperature, label=label)
    return tournament(agent, config.eval_opponents, config.games, config.eval_episodes,
                      config.seed, eval_temperature=config.eval_temperature,
                      jobs=config.effective_jobs())


def _play_label_train(config: ExperimentConfig, policy: Policy, opponent: str,
                      label: str) -> tuple[Policy, list[LabeledStep], float, float]:
    """One `sweep` rung or `iterate` round, seeded by `config.seed`: `policy` plays
    `opponent`, is trained on the labeled steps, then plays the tournament.

    Returns (trained policy, labeled set, interaction win rate, tournament win rate).
    """
    trajs = _interact(config, policy, ("policy", opponent))
    dataset = _label(config, trajs)
    trained, _ = train_two_stage(policy, dataset, config)
    reports = _tournament(config, trained, label)
    return trained, dataset, interaction_win_rate(trajs), average_win_rate(reports)


def cmd_interact(config: ExperimentConfig, run_dir: Path) -> None:
    trajs = _interact(config, new_policy(config.games), (config.agent, config.opponent))
    write_trajectories(_store_path(config, run_dir), trajs)


def _label_lines(config: ExperimentConfig, store: Path, lines: range | None) -> list[str]:
    """The labelled steps' lines of each game block of `store` on `lines` (all if None),
    in order."""
    return [labeled_line(step) for trajs in read_game_blocks(store, lines)
            for step in _label(config, trajs)]


def cmd_estimate(config: ExperimentConfig, run_dir: Path) -> None:
    """Stage II. With one worker, one pass labels the store a block at a time; with
    more, one pass finds each game's block and each is a `fan_out` task, largest first."""
    store, jobs = _store_path(config, run_dir), config.effective_jobs()
    blocks = [(None, 0)] if jobs == 1 else game_blocks(store)
    parts = fan_out(partial(_label_lines, config, store), [(lines,) for lines, _ in blocks],
                    jobs, sizes=[plies for _, plies in blocks])
    write_labeled(run_dir / "labeled.jsonl", chain.from_iterable(parts))


def cmd_train(config: ExperimentConfig, run_dir: Path) -> None:
    store = _store_path(config, run_dir)
    if config.mode == "spag":
        data = read_trajectories(store)
    else:
        data = read_labeled(run_dir / "labeled.jsonl", store)
    trained, metrics = train_two_stage(new_policy(config.games), data, config)
    trained.save(run_dir / "checkpoint.json")
    write_csv(run_dir / "metrics.csv", METRIC_COLUMNS, metrics)


def cmd_evaluate(config: ExperimentConfig, run_dir: Path) -> None:
    reports = _tournament(config, _load_policy(run_dir), "policy")
    write_csv(run_dir / "tournament.csv", TOURNAMENT_COLUMNS, map(asdict, reports))
    print(f"average win rate: {average_win_rate(reports):.4f}")


def cmd_sweep(config: ExperimentConfig, run_dir: Path) -> None:
    """Train the base policy once per `LADDER` rung, on its games against that rung."""
    base = new_policy(config.games)
    rows = []
    for rung in LADDER:
        _, dataset, interact_wr, trained_wr = _play_label_train(
            replace(config, seed=stable_hash(config.seed, "sweep", rung)), base, rung,
            label=f"trained-vs-{rung}")
        n_d, n_u = label_counts(dataset)
        rows.append(dict(zip(SWEEP_COLUMNS, (rung, interact_wr, n_d, n_u,
                                             n_d / max(1, n_d + n_u), trained_wr))))
    write_csv(run_dir / "sweep.csv", SWEEP_COLUMNS, rows)


def cmd_head2head(config: ExperimentConfig, run_dir: Path, agent_specs: tuple[str, ...]) -> None:
    agents = [(spec, PolicyAgent(new_policy(config.games), config.eval_temperature, label=spec)
               if spec == "base" else make_agent(spec, temperature=config.eval_temperature))
              for spec in agent_specs]
    matrix = head_to_head(agents, config.games, config.eval_episodes, config.seed,
                          jobs=config.effective_jobs())
    rows = [{"row_agent": row_label, "col_agent": col_label, "win_rate": matrix[i][j]}
            for i, (row_label, _) in enumerate(agents)
            for j, (col_label, _) in enumerate(agents)]
    write_csv(run_dir / "head2head.csv", HEAD2HEAD_COLUMNS, rows)


def cmd_iterate(config: ExperimentConfig, run_dir: Path, rounds: int) -> None:
    """Round 1 is self-play; round k >= 2 plays the current policy against
    checkpoint k - 1. Later rounds may decline; that is reported, not asserted.
    """
    current = new_policy(config.games)
    rows = []
    opponent = label = "self"
    for round_no in range(1, rounds + 1):
        current, _, interact_wr, eval_wr = _play_label_train(
            replace(config, seed=stable_hash(config.seed, "iterate", round_no)), current,
            opponent, label=f"iter{round_no}")
        name = f"checkpoint_round{round_no}.json"
        current.save(run_dir / name)
        rows.append(dict(zip(ITERATE_COLUMNS, (round_no, label, interact_wr, eval_wr,
                                               current.version))))
        # the row names the checkpoint relative to the run directory, so the
        # CSV does not depend on --out
        opponent, label = f"policy:{run_dir / name}", f"policy:{name}"
    write_csv(run_dir / "iterate.csv", ITERATE_COLUMNS, rows)


def cmd_regret(config: ExperimentConfig, run_dir: Path) -> None:
    agent = PolicyAgent(_load_policy(run_dir), config.eval_temperature)
    reports = regret_reports(agent, [g for g in config.games if g in SOLVABLE],
                             config.eval_episodes, config.seed, jobs=config.effective_jobs())
    write_csv(run_dir / "regret.csv", REGRET_COLUMNS, map(asdict, reports))


# the subcommands that take no flag of their own, and the stages each runs
COMMANDS = {"interact": (cmd_interact,), "estimate": (cmd_estimate,), "train": (cmd_train,),
            "evaluate": (cmd_evaluate,), "sweep": (cmd_sweep,), "regret": (cmd_regret,),
            "pipeline": (cmd_interact, cmd_estimate, cmd_train, cmd_evaluate)}


def _rounds(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scopal",
        description="self-play interaction, step-reward estimation, two-stage "
                    "policy refinement, and evaluation on small adversarial games")
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--jobs", type=int,
                        help="worker processes for interaction, Stage II (one task per "
                             "game), Stage III (one task per game at train.batch_size <= 2), "
                             "evaluation and regret (default: every core this process may "
                             "run on); never changes an artifact")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    h2h = sub.add_parser("head2head")
    h2h.add_argument("--agents", type=parse_list, default="base,random",
                     help="comma list of: base, random, mcts:<n>, policy:<checkpoint>")
    it = sub.add_parser("iterate")
    it.add_argument("--rounds", type=_rounds, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, jobs=args.jobs, out=args.out)
        if args.command in ("sweep", "iterate") and config.mode == "spag":
            raise ConfigError(f"train.mode = spag runs only in train and pipeline, "
                              f"not in {args.command}")
        if args.command == "regret" and not any(g in SOLVABLE for g in config.games):
            raise ConfigError(f"regret needs at least one of {SOLVABLE} in run.games")
        if args.command == "head2head":  # `base`, the untrained policy, is taken as it is
            check_list("--agents", "agent", args.agents,
                       lambda spec: spec == "base" or check_agent(spec, config.games, opponent=True))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    run_dir = _run_dir(config)
    try:
        if args.command == "head2head":
            cmd_head2head(config, run_dir, args.agents)
        elif args.command == "iterate":
            cmd_iterate(config, run_dir, args.rounds)
        else:
            for command in COMMANDS[args.command]:
                command(config, run_dir)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_manifest(config, run_dir)
    print(f"run directory: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
