"""Win-rate metric, matches, tournaments, head-to-head matrices, the
learner's interaction win rate, and exact-solver regret.

This module plays and scores games only: it neither labels steps nor
trains. The ``sweep`` and ``iterate`` commands, which do all three, live
in ``cli``.

Every report is reproducible byte-for-byte from (config, master seed).
Matches and regret play through ``interaction.play_episodes``, the one seat
and seed rule, with paired seeds: episodes 2k and 2k + 1 play the same deal
and the same per-seat sampling streams with the agents in opposite seats, so
swapping the two agents replays the same games and gives exactly
complementary counts. Interaction plays unpaired: paired seeds would make
self-play record every game twice and halve the data.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .agents import Agent, make_agent
from .games import Outcome
from .interaction import (DEFAULT_MOVE_BOUND, agent1_seat, learner_seats, play_episodes,
                          replay, stable_hash)
from .solvers import get_solver

HEAD2HEAD_COLUMNS = ("row_agent", "col_agent", "win_rate")


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


def interaction_win_rate(trajectories, agent_pair: tuple[str, str]) -> float:
    """The learner's win rate over a store of `agent_pair` games.

    Each trajectory counts once at every seat the learner held, so a
    self-play store reads exactly 0.5.
    """
    return win_rate(*_count_outcomes(t.outcome[seat] for t in trajectories
                                     for seat in learner_seats(t, agent_pair)))


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
