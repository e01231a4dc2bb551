"""Stage II: step-wise reward estimation over the trajectory store.

The store records only each ply's action, so Stage II makes the canonical
(state, action) keys: ``replay_plies`` replays a trajectory once into its
(state, action) plies and their keys, and both ``accumulate_stats`` (each
key's count under its mover's outcome, ``state.to_move``, and their
discounted returns) and ``collect_representatives`` read one trajectory's
plies. The three estimators are formulas over that one count table: the
empirical win rate ``n_win / n_all`` (ties creditable via ``tie_weight``), the
mean discounted return, or the Beta-posterior mean. Keys with reward above
the threshold are labeled Desirable, the rest Undesirable. Which seats count
as the learner's comes from the seat labels the store records, so Stage II
needs the store and the config alone. Keys begin with the game's name, so
``estimate`` reads the store once and labels each game in a task of its own,
which gets the game's trajectories in memory.
``labeled.jsonl`` holds one JSON object per step, sorted by (game, key): game, key,
reward, label, and where the store recorded the step, its trajectory's episode and
its 0-based ply in that trajectory's steps. ``read_labeled`` replays that ply of
the store for the step's state and action, and checks it against the key.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .atomic import read_records, record_line, write_lines
from .games import RETURN, Outcome, Player, get_game
from .interaction import Trajectory, learner_seats, read_game_blocks, replay

DESIRABLE = "Desirable"
UNDESIRABLE = "Undesirable"
ESTIMATORS = ("win_rate", "discounted", "beta")
ACTORS = ("learner", "all")


class Ply(NamedTuple):
    """One replayed ply, its canonical (state, action) key, and where the store has it."""
    game: str
    key: str
    state: object  # its mover is ``state.to_move``
    action: object
    episode: int
    ply: int  # the index of the action in the trajectory's steps


def replay_plies(traj: Trajectory) -> list[Ply]:
    """`traj`'s plies, in order, from one replay of its actions."""
    game = get_game(traj.game)
    return [Ply(traj.game, game.canonical_key(state, action), state, action, traj.episode, ply)
            for ply, (state, action) in enumerate(replay(traj))]


@dataclass
class StepStats:
    n_all: int = 0
    n_win: int = 0
    n_tie: int = 0
    n_lose: int = 0
    discounted: float = 0.0  # sum over occurrences of gamma^(T-t) * R_T

    def add(self, outcome: Outcome, discount: float) -> None:
        self.n_all += 1
        self.n_win += outcome is Outcome.WIN
        self.n_tie += outcome is Outcome.TIE
        self.n_lose += outcome is Outcome.LOSE
        self.discounted += discount * RETURN[outcome]


def accumulate_stats(stats: dict[str, StepStats], traj: Trajectory, plies: Sequence[Ply],
                     gamma: float) -> dict[str, StepStats]:
    """Count, into `stats`, each of `traj`'s `plies` under its mover's terminal
    outcome R_T in {+1 win, -1 loss, 0 tie}, and sum gamma^(T-t) * R_T, with t
    the 1-based ply number and T the episode length."""
    if not 0 < gamma < 1:
        raise ValueError("accumulate_stats needs 0 < gamma < 1")
    horizon = len(plies)
    for t, ply in enumerate(plies, 1):
        entry = stats.get(ply.key)
        if entry is None:
            entry = stats[ply.key] = StepStats()
        entry.add(traj.outcome[ply.state.to_move], gamma ** (horizon - t))
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
    episode: int  # the representative's trajectory and ply in the store
    ply: int


def collect_representatives(reps: dict[str, Ply], traj: Trajectory, plies: Iterable[Ply], *,
                            actors: str = "learner") -> dict[str, Ply]:
    """Keep, in `reps`, the first learner-seat (or any-seat) ply of each key.

    ``actors='learner'`` keeps keys played by the seats ``learner_seats``
    reads from `traj`; ``'all'`` keeps every seat, which is what
    strong-player imitation needs.
    """
    if actors not in ACTORS:
        raise ValueError("actors must be 'learner' or 'all'")
    seats = learner_seats(traj) if actors == "learner" else frozenset(Player)
    for ply in plies:
        if ply.state.to_move in seats:
            reps.setdefault(ply.key, ply)
    return reps


def label_steps(rewards: Mapping[str, float], delta: float,
                representatives: Mapping[str, Ply], *,
                min_count: int = 1,
                stats: Mapping[str, StepStats] | None = None) -> list[LabeledStep]:
    """Label each represented key: Desirable iff reward > delta (strict).

    Returns steps sorted by (game, key). ``min_count`` drops low-support
    keys when stats are supplied (default keeps everything).
    """
    out = []
    for key, rep in representatives.items():
        if key in rewards and (stats is None or stats[key].n_all >= min_count):
            reward = rewards[key]
            out.append(LabeledStep(rep.game, key, rep.state, rep.action, reward,
                                   DESIRABLE if reward > delta else UNDESIRABLE,
                                   rep.episode, rep.ply))
    return sorted(out, key=lambda s: (s.game, s.key))


def label_counts(dataset: Iterable[LabeledStep]) -> tuple[int, int]:
    labels = [step.label for step in dataset]
    n_d = labels.count(DESIRABLE)
    return n_d, len(labels) - n_d


# -- labeled dataset io ----------------------------------------------------


def labeled_line(step: LabeledStep) -> str:
    """A step's line of ``labeled.jsonl``."""
    return record_line({"game": step.game, "episode": step.episode, "ply": step.ply,
                        "key": step.key, "reward": step.reward, "label": step.label})


def write_labeled(path, lines: Iterable[str]) -> None:
    """Write the labelled set, one `labeled_line` per step, in order."""
    write_lines(path, lines)


def read_labeled(path, store) -> list[LabeledStep]:
    """The labelled set at `path`, each step's state and action replayed from its
    ply in the store at `store`, which is read one game block at a time.

    A record whose episode or ply is not in the store, or whose ply replays to
    another key, is refused with the path and line of the record.
    """
    blocks, game, plies = read_game_blocks(store), None, {}

    def labeled_step(data: dict) -> LabeledStep:
        nonlocal game, plies
        while data["game"] != game:  # the records and the store's blocks are in game order
            if (trajs := next(blocks, None)) is None:
                raise ValueError(f"no {data['game']} block follows in {store}")
            game, plies = trajs[0].game, {t.episode: list(replay(t)) for t in trajs}
        episode, ply, key = data["episode"], data["ply"], data["key"]
        if episode not in plies:
            raise ValueError(f"{store} has no {game} episode {episode!r}")
        if not 0 <= ply < len(plies[episode]):
            raise ValueError(f"{game} episode {episode} in {store} has no ply {ply!r}")
        state, action = plies[episode][ply]
        if (found := get_game(game).canonical_key(state, action)) != key:
            raise ValueError(f"{game} episode {episode}, ply {ply} in {store} is {found!r}, "
                             f"not {key!r}")
        return LabeledStep(game, key, state, action, data["reward"], data["label"], episode, ply)

    return list(read_records(path, labeled_step, "labeled"))
