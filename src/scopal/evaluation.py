"""Win-rate metric, matches, tournaments, head-to-head matrices, the
learner's interaction win rate, and exact-solver regret.

This module plays and scores games only: it neither labels steps nor
trains. The ``sweep`` and ``iterate`` commands, which do all three, live
in ``cli``.

Every report is reproducible byte-for-byte from (config, master seed).
Matches and regret play through ``interaction.play_sets``, the one episode
scheduler, and so through ``play_episodes``, the one seat and seed rule,
with paired seeds: episodes 2k and 2k + 1 play the same deal and the same
per-seat sampling streams with the agents in opposite seats, so swapping the
two agents replays the same games and gives exactly complementary counts.
Interaction plays unpaired: paired seeds would make self-play record every
game twice and halve the data. The parent process counts each match's
outcomes and scores each regret move from the trajectories it gets back.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .agents import Agent, make_agent
from .games import Outcome
from .interaction import agent1_seat, learner_seats, play_sets, replay, stable_hash
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
               master_seed: int) -> MatchReport:
    """Seat-paired match; outcome counts from agent1's perspective.

    Episodes 2k and 2k + 1 share their chance and sampling seeds, and agent1
    sits first in 2k and second in 2k + 1. So when `episodes` is even,
    swapping agent1 and agent2 plays exactly the same games and gives
    exactly complementary counts. With an odd count the last episode is
    unpaired and agent1 plays it first. `episodes` must be at least 2.
    """
    return _play_matches([(game_name, agent1, agent2, master_seed)], episodes, 1)[0]


def _play_matches(matches: Sequence[tuple[str, Agent, Agent, int]], episodes: int,
                  jobs: int) -> list[MatchReport]:
    """One `play_match` report per (game, agent1, agent2, seed) match of `episodes`
    episodes, all played by one ``play_sets`` call and counted here."""
    if episodes < 2:
        raise ValueError("matches need at least 2 episodes for seat alternation")
    reports = []
    for (game_name, agent1, agent2, seed), trajs in zip(
            matches, play_sets(matches, episodes, jobs, paired=True)):
        counts = _count_outcomes(t.outcome[agent1_seat(t.episode)] for t in trajs)
        reports.append(MatchReport(game_name, agent1.label, agent2.label, *counts,
                                   win_rate(*counts), episodes, seed))
    return reports


def tournament(agent: Agent, opponent_specs: Sequence[str], games: Sequence[str],
               episodes: int, master_seed: int, *, eval_temperature: float = 0.2,
               jobs: int = 1) -> list[MatchReport]:
    """One report per (game, opponent); policy-file opponents use eval temperature."""
    return _play_matches([(game_name, agent, make_agent(spec, temperature=eval_temperature),
                          stable_hash(master_seed, "tournament", game_name, spec))
                         for game_name in games for spec in opponent_specs], episodes, jobs)


def average_win_rate(reports: Iterable[MatchReport]) -> float:
    reports = list(reports)
    return sum(r.win_rate for r in reports) / len(reports)


def head_to_head(agents: Sequence[tuple[str, Agent]], games: Sequence[str],
                 episodes: int, master_seed: int, *, jobs: int = 1) -> list[list[float]]:
    """Pairwise average win-rate matrix; diagonal fixed at 0.5 by convention.

    M[i][j] + M[j][i] = 1 exactly: each unordered pair plays one match set.
    """
    n = len(agents)
    matchups = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reports = _play_matches([(game_name, agents[i][1], agents[j][1],
                             stable_hash(master_seed, "h2h", game_name, agents[i][0],
                                         agents[j][0]))
                            for i, j in matchups for game_name in games], episodes, jobs)
    matrix = [[0.5] * n for _ in range(n)]
    for k, (i, j) in enumerate(matchups):
        rates = [r.win_rate for r in reports[k * len(games):(k + 1) * len(games)]]
        avg = sum(rates) / len(rates)
        matrix[i][j] = avg
        matrix[j][i] = 1.0 - avg
    return matrix


def interaction_win_rate(trajectories) -> float:
    """The learner's win rate over a store, at the seats ``learner_seats`` reads.

    Each trajectory counts once at every seat the learner held, so a
    self-play store reads exactly 0.5.
    """
    return win_rate(*_count_outcomes(t.outcome[seat] for t in trajectories
                                     for seat in learner_seats(t)))


def regret(agent: Agent, game_name: str, episodes: int, master_seed: int, *,
           opponent_spec: str = "mcts:1000") -> RegretReport:
    """The one-game case of `regret_reports`."""
    return regret_reports(agent, [game_name], episodes, master_seed,
                          opponent_spec=opponent_spec)[0]


def regret_reports(agent: Agent, games: Sequence[str], episodes: int, master_seed: int, *,
                   opponent_spec: str = "mcts:1000", jobs: int = 1) -> list[RegretReport]:
    """Mean exact-minimax value loss per agent move vs the ladder opponent, per game.

    Plays one seat-paired match per game through ``play_sets``, then scores
    the agent's moves here, by replaying each trajectory against the game's
    solver in episode order.
    """
    solvers = [get_solver(game_name) for game_name in games]
    opponent = make_agent(opponent_spec)
    matches = [(game_name, agent, opponent, stable_hash(master_seed, "regret", game_name))
               for game_name in games]
    reports = []
    for game_name, solver, trajs in zip(games, solvers, play_sets(
            matches, episodes, jobs, paired=True)):
        regrets = [solver.regret(state, action) for traj in trajs
                   for state, action in replay(traj) if state.to_move is agent1_seat(traj.episode)]
        reports.append(RegretReport(game_name, agent.label,
                                    sum(regrets) / max(1, len(regrets)), len(regrets), episodes))
    return reports
