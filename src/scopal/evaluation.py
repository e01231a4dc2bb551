"""Win-rate metric, tournaments, head-to-head matrices, opponent sweep,
iterated training, and exact-solver regret.

Every report is reproducible byte-for-byte from (config, master seed).
Matches and regret play through ``interaction.play_episodes``, the one seat
and seed rule, with paired seeds: episodes 2k and 2k + 1 play the same deal
and the same per-seat sampling streams with the agents in opposite seats, so
swapping the two agents replays the same games and gives exactly
complementary counts. Interaction plays unpaired: paired seeds would make
self-play record every game twice and halve the data.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from .agents import Agent, PolicyAgent, make_agent
from .games import Outcome, Player
from .interaction import (DEFAULT_MOVE_BOUND, agent1_seat, collect_trajectories,
                          learner_seats, play_episodes, replay, stable_hash)
from .policy import Policy
from .refine import TrainConfig, train_two_stage
from .rewards import (collect_representatives, estimate_rewards, label_counts,
                      label_steps)
from .solvers import get_solver

HEAD2HEAD_COLUMNS = ("row_agent", "col_agent", "win_rate")
SWEEP_COLUMNS = ("opponent", "interaction_win_rate", "n_desirable", "n_undesirable",
                 "desirable_fraction", "trained_win_rate")
ITERATE_COLUMNS = ("round", "opponent", "interaction_win_rate", "eval_win_rate", "version")


def win_rate(n_win: int, n_lose: int, n_tie: int) -> float:
    """(N_win + 0.5 N_tie) / (N_win + N_lose + N_tie)."""
    total = n_win + n_lose + n_tie
    if total < 1:
        raise ValueError("win_rate: no outcomes counted")
    return (n_win + 0.5 * n_tie) / total


@dataclass
class MatchReport:
    game: str
    agent1: str
    agent2: str
    n_win: int  # from agent1's perspective
    n_lose: int
    n_tie: int
    win_rate: float
    episodes: int
    seed: int


@dataclass
class RegretReport:
    game: str
    agent: str
    mean_regret: float
    moves: int
    episodes: int


TOURNAMENT_COLUMNS = tuple(f.name for f in fields(MatchReport))
REGRET_COLUMNS = tuple(f.name for f in fields(RegretReport))


def _count_outcomes(outcomes: Iterable[Outcome]) -> tuple[int, int, int]:
    """(n_win, n_lose, n_tie) of one side's outcomes."""
    counts = {Outcome.WIN: 0, Outcome.LOSE: 0, Outcome.TIE: 0}
    for outcome in outcomes:
        counts[outcome] += 1
    return counts[Outcome.WIN], counts[Outcome.LOSE], counts[Outcome.TIE]


def play_match(game_name: str, agent1: Agent, agent2: Agent, episodes: int,
               master_seed: int, *, move_bound: int = DEFAULT_MOVE_BOUND) -> MatchReport:
    """Seat-paired match; outcome counts from agent1's perspective.

    Episodes 2k and 2k + 1 share their chance and sampling seeds, and agent1
    sits first in 2k and second in 2k + 1. So when `episodes` is even,
    swapping agent1 and agent2 plays exactly the same games and gives
    exactly complementary counts. With an odd count the last episode is
    unpaired and agent1 plays it first.
    """
    if episodes < 2:
        raise ValueError("matches need at least 2 episodes for seat alternation")
    trajs = play_episodes(game_name, agent1, agent2, range(episodes), master_seed,
                          paired=True, move_bound=move_bound)
    n_win, n_lose, n_tie = _count_outcomes(t.outcome[agent1_seat(t.episode)] for t in trajs)
    return MatchReport(game_name, agent1.label, agent2.label, n_win, n_lose, n_tie,
                       win_rate(n_win, n_lose, n_tie), episodes, master_seed)


def tournament(agent: Agent, opponent_specs: Sequence[str], games: Sequence[str],
               episodes: int, master_seed: int, *,
               eval_temperature: float = 0.2) -> list[MatchReport]:
    """One report per (game, opponent); policy-file opponents use eval temperature."""
    reports = []
    for game_name in games:
        for spec in opponent_specs:
            opponent = make_agent(spec, temperature=eval_temperature)
            seed = stable_hash(master_seed, "tournament", game_name, spec)
            reports.append(play_match(game_name, agent, opponent, episodes, seed))
    return reports


def average_win_rate(reports: Iterable[MatchReport]) -> float:
    reports = list(reports)
    return sum(r.win_rate for r in reports) / len(reports)


def head_to_head(agents: Sequence[tuple[str, Agent]], games: Sequence[str],
                 episodes: int, master_seed: int) -> list[list[float]]:
    """Pairwise average win-rate matrix; diagonal fixed at 0.5 by convention.

    M[i][j] + M[j][i] = 1 exactly: each unordered pair plays one match set.
    """
    n = len(agents)
    matrix = [[0.5] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rates = []
            for game_name in games:
                seed = stable_hash(master_seed, "h2h", game_name, agents[i][0], agents[j][0])
                report = play_match(game_name, agents[i][1], agents[j][1], episodes, seed)
                rates.append(report.win_rate)
            avg = sum(rates) / len(rates)
            matrix[i][j] = avg
            matrix[j][i] = 1.0 - avg
    return matrix


def interaction_stats(trajectories, agent_pair: tuple[str, str], *,
                      estimator_kwargs: dict | None = None,
                      delta: float = 0.5, actors: str = "learner"):
    """Labeled dataset + the learner's interaction win rate over a store.

    The win rate counts each trajectory at its first learner seat (P1 when
    both seats are learners, as in self-play).
    """
    n_win, n_lose, n_tie = _count_outcomes(
        t.outcome[Player.P1 if Player.P1 in learner_seats(t, agent_pair) else Player.P2]
        for t in trajectories)
    kwargs = dict(estimator_kwargs or {})
    rewards = estimate_rewards(trajectories, **kwargs)
    reps = collect_representatives(trajectories, agent_pair, actors=actors)
    dataset = label_steps(rewards, delta, reps)
    return dataset, win_rate(n_win, n_lose, n_tie)


def opponent_sweep(base_policy: Policy, ladder: Sequence[str], games: Sequence[str],
                   interact_episodes: int, eval_opponents: Sequence[str],
                   eval_episodes: int, train_config: TrainConfig, master_seed: int, *,
                   interact_temperature: float = 0.7, eval_temperature: float = 0.2,
                   delta: float = 0.5, jobs: int = 1) -> list[dict]:
    """Interact/train/evaluate once per ladder rung; one summary row each."""
    if not ladder:
        raise ValueError("opponent_sweep: empty ladder")
    rows = []
    for rung in ladder:
        seed = stable_hash(master_seed, "sweep", rung)
        trajs = collect_trajectories(games, "policy", rung, interact_episodes, seed,
                                     policy=base_policy, temperature=interact_temperature,
                                     jobs=jobs)
        dataset, interact_wr = interaction_stats(trajs, ("policy", rung), delta=delta)
        n_d, n_u = label_counts(dataset)
        trained, _ = train_two_stage(base_policy, dataset,
                                     replace(train_config, seed=seed))
        agent = PolicyAgent(trained, eval_temperature, label=f"trained-vs-{rung}")
        reports = tournament(agent, eval_opponents, games, eval_episodes, seed,
                             eval_temperature=eval_temperature)
        rows.append({
            "opponent": rung,
            "interaction_win_rate": interact_wr,
            "n_desirable": n_d,
            "n_undesirable": n_u,
            "desirable_fraction": n_d / max(1, n_d + n_u),
            "trained_win_rate": average_win_rate(reports),
        })
    return rows


def iterate(policy: Policy, rounds: int, games: Sequence[str], episodes: int,
            train_config: TrainConfig, master_seed: int, out_dir, *,
            eval_opponents: Sequence[str] = ("random", "mcts:1000"),
            eval_episodes: int = 100, interact_temperature: float = 0.7,
            eval_temperature: float = 0.2, delta: float = 0.5,
            jobs: int = 1) -> tuple[list[Path], list[dict]]:
    """Round 1 is self-play; round k >= 2 plays current vs previous checkpoint.

    Returns checkpoint paths (version strictly increasing) and per-round
    evaluation rows. Later rounds may decline; that is reported, not asserted.
    """
    if rounds < 1:
        raise ValueError("iterate: rounds must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    current = policy
    checkpoints: list[Path] = []
    reports: list[dict] = []
    prev_path: Path | None = None
    for round_no in range(1, rounds + 1):
        opponent = "self" if prev_path is None else f"policy:{prev_path}"
        seed = stable_hash(master_seed, "iterate", round_no)
        trajs = collect_trajectories(games, "policy", opponent, episodes, seed,
                                     policy=current, temperature=interact_temperature,
                                     jobs=jobs)
        dataset, interact_wr = interaction_stats(trajs, ("policy", opponent), delta=delta)
        current, _ = train_two_stage(current, dataset, replace(train_config, seed=seed))
        path = out_dir / f"checkpoint_round{round_no}.json"
        current.save(path)
        checkpoints.append(path)
        agent = PolicyAgent(current, eval_temperature, label=f"iter{round_no}")
        evals = tournament(agent, eval_opponents, games, eval_episodes, seed,
                           eval_temperature=eval_temperature)
        reports.append({"round": round_no, "opponent": opponent,
                        "interaction_win_rate": interact_wr,
                        "eval_win_rate": average_win_rate(evals),
                        "version": current.version})
        prev_path = path
    return checkpoints, reports


def regret(agent: Agent, game_name: str, episodes: int, master_seed: int, *,
           opponent_spec: str = "mcts:1000") -> RegretReport:
    """Mean exact-minimax value loss per agent move vs the ladder opponent.

    Plays a seat-paired match and scores the agent's moves by replaying
    each trajectory against the solver.
    """
    solver = get_solver(game_name)
    opponent = make_agent(opponent_spec)
    seed = stable_hash(master_seed, "regret", game_name)
    total = 0.0
    moves = 0
    for traj in play_episodes(game_name, agent, opponent, range(episodes), seed, paired=True):
        seat = agent1_seat(traj.episode)
        for state, action, actor in replay(traj):
            if actor is seat:
                total += solver.regret(state, action)
                moves += 1
    return RegretReport(game_name, agent.label, total / max(1, moves), moves, episodes)
