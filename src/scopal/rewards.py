"""Stage II: step-wise reward estimation over the trajectory store.

Every step of every trajectory is counted under its actor's outcome: the
reward of a canonical (state, action) key is the empirical win rate
``n_win / n_all`` (ties creditable via ``tie_weight``), or the discounted /
Beta-posterior variants. Keys with reward above the threshold are labeled
Desirable, the rest Undesirable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .atomic import atomic_open
from .games import Outcome, get_game
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

    def add(self, outcome: Outcome) -> None:
        self.n_all += 1
        if outcome is Outcome.WIN:
            self.n_win += 1
        elif outcome is Outcome.TIE:
            self.n_tie += 1
        else:
            self.n_lose += 1


def accumulate_stats(trajectories: Iterable[Trajectory]) -> dict[str, StepStats]:
    """Count each step's key under its actor's terminal outcome."""
    stats: dict[str, StepStats] = {}
    empty = True
    for traj in trajectories:
        empty = False
        for step in traj.steps:
            entry = stats.get(step.key)
            if entry is None:
                entry = stats[step.key] = StepStats()
            entry.add(traj.outcome[step.actor])
    if empty:
        raise ValueError("accumulate_stats: empty trajectory set")
    return stats


def estimate_rewards(trajectories: Iterable[Trajectory] | None = None, *,
                     stats: Mapping[str, StepStats] | None = None,
                     method: str = "win_rate", tie_weight: float = 0.0,
                     gamma: float = 0.8, alpha0: float = 1.0,
                     beta0: float = 1.0) -> dict[str, float]:
    """Per-key reward estimates.

    win_rate: (n_win + tie_weight * n_tie) / n_all over the key's occurrences.
    discounted: mean over occurrences of gamma^(T-t) * R_T with R_T in
        {+1 win, -1 loss, 0 tie}, t the 1-based global move index, T the
        episode length.
    beta: posterior mean (alpha0 + wins) / (alpha0 + beta0 + wins + losses).
    """
    if method not in ESTIMATORS:
        raise ValueError(f"unknown reward estimation method {method!r}")
    if method == "discounted":
        if trajectories is None:
            raise ValueError("discounted estimator needs trajectories")
        if not 0 < gamma < 1:
            raise ValueError("discounted estimator needs 0 < gamma < 1")
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for traj in trajectories:
            horizon = len(traj.steps)
            for step in traj.steps:
                o = traj.outcome[step.actor]
                final = 1.0 if o is Outcome.WIN else (-1.0 if o is Outcome.LOSE else 0.0)
                t = step.move_index + 1
                total[step.key] = total.get(step.key, 0.0) + gamma ** (horizon - t) * final
                count[step.key] = count.get(step.key, 0) + 1
        return {k: total[k] / count[k] for k in total}
    if stats is None:
        if trajectories is None:
            raise ValueError(f"{method} estimator needs stats or trajectories")
        stats = accumulate_stats(trajectories)
    rewards = {}
    for key, st in stats.items():
        if st.n_all == 0:
            raise ValueError(f"key {key!r} has no occurrences")
        if method == "win_rate":
            rewards[key] = (st.n_win + tie_weight * st.n_tie) / st.n_all
        else:
            if alpha0 <= 0 or beta0 <= 0:
                raise ValueError("beta estimator needs alpha0, beta0 > 0")
            rewards[key] = (alpha0 + st.n_win) / (alpha0 + beta0 + st.n_win + st.n_lose)
    return rewards


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


def collect_representatives(trajectories: Iterable[Trajectory],
                            agent_pair: tuple[str, str], *,
                            actors: str = "learner") -> dict[str, Representative]:
    """First learner-seat (or any-seat) occurrence of each key, via replay.

    ``actors='learner'`` keeps keys played by the seats ``learner_seats``
    gives for the run's (agent1, agent2) spec pair ``agent_pair``; ``'all'``
    keeps every seat, which is what strong-player imitation needs.
    """
    if actors not in ACTORS:
        raise ValueError("actors must be 'learner' or 'all'")
    reps: dict[str, Representative] = {}
    for traj in trajectories:
        seats = learner_seats(traj, agent_pair)
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
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            game = get_game(rec["game"])
            out.append(LabeledStep(rec["game"], rec["key"],
                                   game.decode_state(rec["state"]),
                                   game.parse_action(rec["action"]),
                                   rec["reward"], rec["label"]))
    return out
