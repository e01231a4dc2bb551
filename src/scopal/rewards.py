"""Stage II: step-wise reward estimation over the trajectory store.

``accumulate_stats`` is the one pass over the store's steps: it counts each
canonical (state, action) key's occurrences under its actor's outcome and
sums their discounted returns. The three estimators are formulas over that
one count table: the empirical win rate ``n_win / n_all`` (ties creditable
via ``tie_weight``), the mean discounted return, or the Beta-posterior mean.
Keys with reward above the threshold are labeled Desirable, the rest
Undesirable. Which seats count as the learner's comes from the seat labels
the store records, so Stage II needs the store and the config alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .atomic import atomic_open
from .games import RETURN, Outcome, get_game
from .interaction import Trajectory, learner_seats, replay

DESIRABLE = "Desirable"
UNDESIRABLE = "Undesirable"
ESTIMATORS = ("win_rate", "discounted", "beta")
ACTORS = ("learner", "all")


@dataclass
class StepStats:
    n_all: int = 0
    n_win: int = 0
    n_tie: int = 0
    n_lose: int = 0
    discounted: float = 0.0  # sum over occurrences of gamma^(T-t) * R_T

    def add(self, outcome: Outcome, discount: float) -> None:
        self.n_all += 1
        if outcome is Outcome.WIN:
            self.n_win += 1
        elif outcome is Outcome.TIE:
            self.n_tie += 1
        else:
            self.n_lose += 1
        self.discounted += discount * RETURN[outcome]


def accumulate_stats(trajectories: Iterable[Trajectory], gamma: float) -> dict[str, StepStats]:
    """Count each step's key under its actor's terminal outcome R_T in {+1 win,
    -1 loss, 0 tie}, and sum gamma^(T-t) * R_T, with t the 1-based global move
    index and T the episode length."""
    if not 0 < gamma < 1:
        raise ValueError("accumulate_stats needs 0 < gamma < 1")
    stats: dict[str, StepStats] = {}
    empty = True
    for traj in trajectories:
        empty = False
        horizon = len(traj.steps)
        for step in traj.steps:
            entry = stats.get(step.key)
            if entry is None:
                entry = stats[step.key] = StepStats()
            entry.add(traj.outcome[step.actor], gamma ** (horizon - step.move_index - 1))
    if empty:
        raise ValueError("accumulate_stats: empty trajectory set")
    return stats


def estimate_rewards(stats: Mapping[str, StepStats], *, method: str = "win_rate",
                     tie_weight: float = 0.0, alpha0: float = 1.0,
                     beta0: float = 1.0) -> dict[str, float]:
    """Per-key reward estimates, each a formula over the key's counts.

    win_rate: (n_win + tie_weight * n_tie) / n_all.
    discounted: the mean of gamma^(T-t) * R_T over the key's occurrences.
    beta: posterior mean (alpha0 + wins) / (alpha0 + beta0 + wins + losses).
    """
    formulas = {
        "win_rate": lambda st: (st.n_win + tie_weight * st.n_tie) / st.n_all,
        "discounted": lambda st: st.discounted / st.n_all,
        "beta": lambda st: (alpha0 + st.n_win) / (alpha0 + beta0 + st.n_win + st.n_lose),
    }
    if method not in formulas:
        raise ValueError(f"unknown reward estimation method {method!r}")
    if method == "beta" and (alpha0 <= 0 or beta0 <= 0):
        raise ValueError("beta estimator needs alpha0, beta0 > 0")
    empty = [key for key, st in stats.items() if st.n_all == 0]
    if empty:
        raise ValueError(f"key {empty[0]!r} has no occurrences")
    return {key: formulas[method](st) for key, st in stats.items()}


@dataclass(frozen=True)
class LabeledStep:
    game: str
    key: str
    state: object  # representative state whose mover observation underlies key
    action: object
    reward: float
    label: str


@dataclass
class Representative:
    game: str
    state: object
    action: object


def collect_representatives(trajectories: Iterable[Trajectory], *,
                            actors: str = "learner") -> dict[str, Representative]:
    """First learner-seat (or any-seat) occurrence of each key, via replay.

    ``actors='learner'`` keeps keys played by the seats ``learner_seats``
    reads from each trajectory; ``'all'`` keeps every seat, which is what
    strong-player imitation needs.
    """
    if actors not in ACTORS:
        raise ValueError("actors must be 'learner' or 'all'")
    reps: dict[str, Representative] = {}
    for traj in trajectories:
        seats = learner_seats(traj)
        for (state, action, actor), step in zip(replay(traj), traj.steps):
            if actors == "learner" and actor not in seats:
                continue
            if step.key not in reps:
                reps[step.key] = Representative(traj.game, state, action)
    return reps


def label_steps(rewards: Mapping[str, float], delta: float,
                representatives: Mapping[str, Representative], *,
                min_count: int = 1,
                stats: Mapping[str, StepStats] | None = None) -> list[LabeledStep]:
    """Label each represented key: Desirable iff reward > delta (strict).

    Returns steps sorted by (game, key). ``min_count`` drops low-support
    keys when stats are supplied (default keeps everything).
    """
    out = []
    for key in sorted(representatives):
        if key not in rewards:
            continue
        if stats is not None and stats[key].n_all < min_count:
            continue
        rep = representatives[key]
        reward = rewards[key]
        label = DESIRABLE if reward > delta else UNDESIRABLE
        out.append(LabeledStep(rep.game, key, rep.state, rep.action, reward, label))
    out.sort(key=lambda s: (s.game, s.key))
    return out


def label_counts(dataset: Iterable[LabeledStep]) -> tuple[int, int]:
    n_d = n_u = 0
    for step in dataset:
        if step.label == DESIRABLE:
            n_d += 1
        else:
            n_u += 1
    return n_d, n_u


# -- labeled dataset io ----------------------------------------------------


def write_labeled(path, dataset: Iterable[LabeledStep]) -> None:
    with atomic_open(path) as fh:
        for step in dataset:
            game = get_game(step.game)
            rec = {"game": step.game, "key": step.key,
                   "state": game.encode_state(step.state),
                   "action": game.action_text(step.action),
                   "reward": step.reward, "label": step.label}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_labeled(path) -> list[LabeledStep]:
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                game = get_game(rec["game"])
                out.append(LabeledStep(rec["game"], rec["key"],
                                       game.decode_state(rec["state"]),
                                       game.parse_action(rec["action"]),
                                       rec["reward"], rec["label"]))
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{path}:{line_no}: corrupt labeled record: {err}") from err
    return out
