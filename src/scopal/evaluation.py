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

Tournaments, head-to-head matrices and regret split every match into its
seat pairs and run them through ``interaction.fan_out`` over ``jobs``
workers. A seat pair's games depend on its index alone, and the parent
merges the per-pair reports in episode order, so ``jobs`` never changes a
report.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Iterable, Sequence

from .agents import Agent, make_agent
from .games import Outcome
from .interaction import (DEFAULT_MOVE_BOUND, agent1_seat, fan_out, learner_seats,
                          play_episodes, replay, stable_hash)
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
    regrets: tuple[float, ...] = field(default=(), repr=False)  # per agent move, in order


TOURNAMENT_COLUMNS = tuple(f.name for f in fields(MatchReport))
REGRET_COLUMNS = ("game", "agent", "mean_regret", "moves", "episodes")


def _count_outcomes(outcomes: Iterable[Outcome]) -> tuple[int, int, int]:
    """(n_win, n_lose, n_tie) of one side's outcomes."""
    counts = {Outcome.WIN: 0, Outcome.LOSE: 0, Outcome.TIE: 0}
    for outcome in outcomes:
        counts[outcome] += 1
    return counts[Outcome.WIN], counts[Outcome.LOSE], counts[Outcome.TIE]


def _seat_pairs(episodes: int) -> list[range]:
    """Episodes 0..episodes-1 as seat-pair ranges (2k, 2k + 1); an odd last one is alone."""
    return [range(start, min(start + 2, episodes)) for start in range(0, episodes, 2)]


def play_match(game_name: str, agent1: Agent, agent2: Agent, episodes: int | range,
               master_seed: int, *, move_bound: int = DEFAULT_MOVE_BOUND) -> MatchReport:
    """Seat-paired match; outcome counts from agent1's perspective.

    Episodes 2k and 2k + 1 share their chance and sampling seeds, and agent1
    sits first in 2k and second in 2k + 1. So when `episodes` is even,
    swapping agent1 and agent2 plays exactly the same games and gives
    exactly complementary counts. With an odd count the last episode is
    unpaired and agent1 plays it first. `episodes` is a count (at least 2),
    or a range of episode indices: one part of a longer match.
    """
    if isinstance(episodes, int):
        if episodes < 2:
            raise ValueError("matches need at least 2 episodes for seat alternation")
        episodes = range(episodes)
    trajs = play_episodes(game_name, agent1, agent2, episodes, master_seed,
                          paired=True, move_bound=move_bound)
    n_win, n_lose, n_tie = _count_outcomes(t.outcome[agent1_seat(t.episode)] for t in trajs)
    return MatchReport(game_name, agent1.label, agent2.label, n_win, n_lose, n_tie,
                       win_rate(n_win, n_lose, n_tie), len(episodes), master_seed)


def _play_matches(matches: Sequence[tuple[str, Agent, Agent, int]], episodes: int,
                 jobs: int) -> list[MatchReport]:
    """One report per (game, agent1, agent2, seed) match of `episodes` episodes.

    Each seat pair of each match is one ``fan_out`` task; a match's report
    merges its pairs' counts.
    """
    if episodes < 2:
        raise ValueError("matches need at least 2 episodes for seat alternation")
    pairs = _seat_pairs(episodes)
    parts = fan_out(play_match, [(game_name, agent1, agent2, pair, seed)
                                 for game_name, agent1, agent2, seed in matches
                                 for pair in pairs], jobs)
    reports = []
    for match in _groups(parts, len(pairs)):
        counts = [sum(r.n_win for r in match), sum(r.n_lose for r in match),
                  sum(r.n_tie for r in match)]
        first = match[0]
        reports.append(MatchReport(first.game, first.agent1, first.agent2, *counts,
                                   win_rate(*counts), episodes, first.seed))
    return reports


def _groups(items: list, size: int) -> list[list]:
    """`items` cut into consecutive runs of `size`: the parts of one match or regret set."""
    return [items[start:start + size] for start in range(0, len(items), size)]


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
    for (i, j), matchup_reports in zip(matchups, _groups(reports, len(games))):
        rates = [r.win_rate for r in matchup_reports]
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


def regret(agent: Agent, game_name: str, episodes: int | range, master_seed: int, *,
           opponent_spec: str = "mcts:1000") -> RegretReport:
    """Mean exact-minimax value loss per agent move vs the ladder opponent.

    Plays a seat-paired match and scores the agent's moves by replaying
    each trajectory against the solver. `episodes` is a count, or a range
    of episode indices: one part of a longer regret set.
    """
    solver = get_solver(game_name)
    opponent = make_agent(opponent_spec)
    seed = stable_hash(master_seed, "regret", game_name)
    if isinstance(episodes, int):
        episodes = range(episodes)
    regrets = []
    for traj in play_episodes(game_name, agent, opponent, episodes, seed, paired=True):
        seat = agent1_seat(traj.episode)
        regrets.extend(solver.regret(state, action)
                       for state, action, actor in replay(traj) if actor is seat)
    return _regret_report(game_name, agent.label, regrets, len(episodes))


def _regret_report(game_name: str, label: str, regrets: Sequence[float],
                   episodes: int) -> RegretReport:
    return RegretReport(game_name, label, sum(regrets) / max(1, len(regrets)), len(regrets),
                        episodes, tuple(regrets))


def regret_reports(agent: Agent, games: Sequence[str], episodes: int, master_seed: int, *,
                   opponent_spec: str = "mcts:1000", jobs: int = 1) -> list[RegretReport]:
    """One `regret` report per game; each seat pair is one ``fan_out`` task.

    Workers score their own pairs, each with its own solver memo; a game's
    report sums its pairs' per-move regrets in episode order.
    """
    pairs = _seat_pairs(episodes)
    parts = fan_out(partial(regret, opponent_spec=opponent_spec),
                    [(agent, game_name, pair, master_seed) for game_name in games
                     for pair in pairs], jobs)
    return [_regret_report(game_name, agent.label,
                           [r for part in game_parts for r in part.regrets], episodes)
            for game_name, game_parts in zip(games, _groups(parts, len(pairs)))]
