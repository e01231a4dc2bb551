"""Stage I: run episodes between two agents, alternate seats, record trajectories.

``play_lockstep`` is the one episode loop and the one ply counter: each ply
asks each agent once for the moves of all the live episodes where it is to
move, and an episode's step count caps it at the game's ``max_moves`` (a tie
no game reaches). ``run_episode`` is its one-episode case. ``play_episodes``
is the one seat and seed rule: agent1 sits first on even episodes, and
episode i draws its chance and sampling seeds from ``stable_hash(master_seed,
game, i, ...)``, or from the seat-pair index ``i // 2`` when paired. Self-play
interaction plays unpaired episodes; matches and regret play paired ones (see
``evaluation``). ``learner_seats`` is the one rule for which seats the policy
under training held: it reads the seat labels the store records.

``play_sets`` is the one episode scheduler: interaction, matches and regret
all hand it their (game, agent1, agent2, master seed) sets, and it cuts each
set's episodes into ranges and runs them through ``fan_out``, the one worker
pool, over ``jobs`` processes. Stage II and Stage III hand ``fan_out`` one
task per game, which gets its game's data in memory. Every episode's seeds
depend on its index alone and results come back in task order, so ``jobs``
never changes an artifact: a store is reproducible byte-for-byte from
(config, master seed), sorted by (game, episode index).

The trajectory store is JSON lines named ``<run-id>.traj.jsonl``, one
trajectory per line, and it records only what was played: game, episode,
steps (each ply's action in the canonical textual notation, in order), each
seat's outcome, each seat's agent label (``"agents": {"P1": ..., "P2": ...}``)
and the chance and sampling seeds. ``replay`` re-simulates them into (state,
action) plies, each state holding its mover, and refuses a trajectory that does
not end where and as it was recorded. Stage II, Stage III and SPAG read the store
and the config alone and derive the rest there; Stage III replays each labelled
step from the episode and ply that its record names.
Each game's trajectories are one block of the store, which ``read_game_blocks``
reads lazily, one block at a time.
"""
from __future__ import annotations

import hashlib
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .agents import Agent, is_learner_spec, make_agent
from .atomic import read_records, write_records
from .games import Game, IllegalActionError, Outcome, Player, get_game, tie_outcome
from .policy import Policy


def stable_hash(*parts) -> int:
    """Deterministic 63-bit hash of the stringified parts (not Python hash)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Trajectory:
    game: str
    episode: int
    steps: list[str]  # each ply's action, in the canonical textual notation
    outcome: dict[Player, Outcome]
    agents: dict[Player, str]  # each seat's agent label
    chance_seed: int
    sampling_seed: int


def run_episode(game: Game, agent_p1: Agent, agent_p2: Agent, *, episode: int = 0,
                chance_seed: int = 0, sampling_seed: int = 0) -> Trajectory:
    """Play one episode to termination (or ``game.max_moves`` plies -> tie): the
    one-episode case of `play_lockstep`."""
    return play_lockstep(game, [(episode, agent_p1, agent_p2, chance_seed, sampling_seed)])[0]


def play_lockstep(game: Game, seatings: Sequence[tuple[int, Agent, Agent, int, int]]
                  ) -> list[Trajectory]:
    """Play each seating (episode, P1 agent, P2 agent, chance seed, sampling seed)
    to its end, or to ``game.max_moves`` plies, in lockstep: each ply makes one
    ``act_many`` call per agent group (``Agent.group``). Each episode keeps its
    own per-seat rngs, steps and terminal check, so it plays as it would alone."""
    agents = [{Player.P1: p1, Player.P2: p2} for _, p1, p2, _, _ in seatings]
    rngs = [{p: random.Random(stable_hash(seed, p.value)) for p in Player} for *_, seed in seatings]
    states = [game.initial_state(chance_seed) for _, _, _, chance_seed, _ in seatings]
    steps: list[list[str]] = [[] for _ in seatings]
    outcomes = [game.outcome(state) for state in states]
    live = range(len(seatings))
    while live := [i for i in live if outcomes[i] is None and len(steps[i]) < game.max_moves]:
        groups: dict = {}
        for i in live:
            agent = agents[i][states[i].to_move]
            groups.setdefault(agent.group(), (agent, []))[1].append(i)
        for agent, members in groups.values():
            actions = agent.act_many(game, [states[i] for i in members],
                                     [rngs[i][states[i].to_move] for i in members])
            for i, action in zip(members, actions):
                try:
                    states[i] = game.apply(states[i], action)
                except IllegalActionError as err:
                    raise IllegalActionError(f"agent {agents[i][states[i].to_move].label!r} "
                                             f"returned an illegal action: {err}") from err
                steps[i].append(game.action_text(action))
                outcomes[i] = game.outcome(states[i])
    return [Trajectory(game.name, episode, steps[i], dict(outcomes[i] or tie_outcome()),
                       {p: agents[i][p].label for p in Player}, chance_seed, sampling_seed)
            for i, (episode, _, _, chance_seed, sampling_seed) in enumerate(seatings)]


def episode_seeds(master_seed: int, game_name: str, episode: int) -> tuple[int, int]:
    """(chance seed, sampling seed) of one episode, or of one seat pair in a match."""
    return (stable_hash(master_seed, game_name, episode, "chance"),
            stable_hash(master_seed, game_name, episode, "sample"))


def play_episodes(game_name: str, agent1: Agent, agent2: Agent, episodes: Iterable[int],
                  master_seed: int, *, paired: bool) -> list[Trajectory]:
    """Play the given episode indices with seats alternating; agent1 is first on even ones.

    Unpaired, episode i draws its seeds from i. Paired, it draws them from
    the seat pair i // 2, so episodes 2k and 2k + 1 replay one deal and the
    same per-seat sampling streams with the agents in opposite seats.
    """
    seatings = []
    for i in episodes:
        first, second = (agent1, agent2) if agent1_seat(i) is Player.P1 else (agent2, agent1)
        seatings.append((i, first, second,
                         *episode_seeds(master_seed, game_name, i // 2 if paired else i)))
    return play_lockstep(get_game(game_name), seatings)


def agent1_seat(episode: int) -> Player:
    """Seat of `play_episodes`' agent1: first on even episodes, second on odd ones."""
    return Player.P1 if episode % 2 == 0 else Player.P2


def learner_seats(traj: Trajectory) -> frozenset[Player]:
    """Seats held by the policy under training, by the recorded seat labels."""
    return frozenset(seat for seat, label in traj.agents.items() if is_learner_spec(label))


_INHERITED: tuple = ()  # (fn, tasks) of the running `fan_out`, for forked workers


def _run_inherited(index: int):
    fn, tasks = _INHERITED
    return fn(*tasks[index])


def fan_out(fn: Callable, tasks: Sequence[tuple], jobs: int,
            sizes: Sequence[float] | None = None) -> list:
    """``fn(*task)`` for every task, in task order, over ``min(jobs, len(tasks))`` workers.

    Interaction, evaluation and regret hand it their episode ranges. Stage II and
    Stage III hand it one task per game, and each task gets its game's data in
    memory: trajectories or labelled steps (see ``cli.cmd_estimate`` and
    ``refine.train_two_stage``). With one worker it runs the tasks in this
    process, in order, and starts no pool. Otherwise, with `sizes` (one per
    task), the largest tasks start first; the results still come back in task
    order, and they must pickle. Workers start by the platform's default
    method: fork on Linux, a few milliseconds, and the forked workers find `fn`
    and the tasks in the memory they share with this process, so only a task's
    index is sent; with spawn, which would re-import numpy and scopal in every
    worker of every pool, `fn` and every task must pickle.
    """
    global _INHERITED
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    order = range(len(tasks)) if sizes is None else sorted(
        range(len(tasks)), key=lambda i: sizes[i], reverse=True)
    inherited = multiprocessing.get_context().get_start_method() == "fork"  # the pool's too
    _INHERITED = (fn, tasks)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if inherited:
                futures = {i: pool.submit(_run_inherited, i) for i in order}
            else:
                futures = {i: pool.submit(fn, *tasks[i]) for i in order}
            return [futures[i].result() for i in range(len(tasks))]
    finally:
        _INHERITED = ()


def play_sets(sets: Sequence[tuple[str, Agent, Agent, int]], episodes: int, jobs: int, *,
              paired: bool) -> list[list[Trajectory]]:
    """Episodes 0..episodes-1 of each (game, agent1, agent2, master seed) set, by
    `play_episodes`; one list per set, in episode order.

    Each set's episodes are cut into ranges of ``max(2, episodes // (4 jobs))``,
    and each range is one ``fan_out`` task: about four tasks per worker, and
    ranges long enough for `play_lockstep` to batch the agents' moves.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    size = max(2, episodes // (4 * max(1, jobs)))
    ranges = [range(start, min(start + size, episodes)) for start in range(0, episodes, size)]
    parts = fan_out(partial(play_episodes, paired=paired),
                    [(name, agent1, agent2, part, seed)
                     for name, agent1, agent2, seed in sets for part in ranges], jobs)
    return [[t for part in parts[start:start + len(ranges)] for t in part]
            for start in range(0, len(parts), len(ranges))]


def collect_trajectories(games: Iterable[str], agent1_spec: str, agent2_spec: str,
                         episodes: int, master_seed: int, *, policy: Policy | None = None,
                         temperature: float = 0.7, jobs: int = 1) -> list[Trajectory]:
    """Run `episodes` per game with seats alternating every episode.

    Episode i seats agent1 first when i is even, so each agent is first
    player exactly episodes/2 times (up to rounding). Results are sorted by
    (game, episode) and independent of `jobs`.
    """
    agent1 = make_agent(agent1_spec, policy, temperature)
    agent2 = make_agent(agent2_spec, policy, temperature)
    per_game = play_sets([(name, agent1, agent2, master_seed) for name in games], episodes,
                         jobs, paired=False)
    return sorted((t for trajs in per_game for t in trajs), key=lambda t: (t.game, t.episode))


# -- store io ------------------------------------------------------------


def trajectory_record(traj: Trajectory) -> dict:
    return {
        "game": traj.game,
        "episode": traj.episode,
        "steps": traj.steps,
        "outcome": {p.value: traj.outcome[p].value for p in Player},
        "agents": {p.value: traj.agents[p] for p in Player},
        "seeds": {"chance": traj.chance_seed, "sampling": traj.sampling_seed},
    }


def record_trajectory(data: dict) -> Trajectory:
    steps = data["steps"]
    if not isinstance(steps, list) or not all(isinstance(step, str) for step in steps):
        raise ValueError("steps must be a list of action texts")
    outcome = {Player(p): Outcome(v) for p, v in data["outcome"].items()}
    agents = {p: data["agents"][p.value] for p in Player}
    return Trajectory(data["game"], data["episode"], steps, outcome, agents,
                      data["seeds"]["chance"], data["seeds"]["sampling"])


def write_trajectories(path, trajectories: Iterable[Trajectory]) -> None:
    write_records(path, map(trajectory_record, trajectories))


def read_trajectories(path) -> list[Trajectory]:
    return list(read_records(path, record_trajectory, "trajectory"))


def read_game_blocks(path) -> Iterator[list[Trajectory]]:
    """The store's trajectories, read lazily, one game's block at a time; a game whose
    trajectories reappear after another game's block is refused."""
    seen = set()
    for game, block in groupby(read_records(path, record_trajectory, "trajectory"),
                               key=attrgetter("game")):
        if game in seen:
            raise ValueError(f"{path}: {game} reappears after another game's trajectories")
        seen.add(game)
        yield list(block)


def replay(traj: Trajectory):
    """Yield (state, action) per ply by re-simulating from the seeds.

    Raises unless each recorded action is legal, none follows the end of the
    game, and the last one ends it, or reaches ``max_moves`` plies, with the
    recorded outcome.
    """
    game = get_game(traj.game)
    state = game.initial_state(traj.chance_seed)
    outcome = game.outcome(state)
    for ply, text in enumerate(traj.steps):
        try:
            if outcome is not None or ply == game.max_moves:
                raise ValueError("the game has already ended")
            action = game.parse_action(text)
            after = game.apply(state, action)
        except ValueError as err:
            raise ValueError(f"{traj.game} episode {traj.episode}, ply {ply}: {err}") from err
        yield state, action
        state, outcome = after, game.outcome(after)
    if outcome is None and len(traj.steps) < game.max_moves:
        raise ValueError(f"{traj.game} episode {traj.episode} stops before the game ends")
    if dict(outcome or tie_outcome()) != dict(traj.outcome):
        raise ValueError(f"replay mismatch: outcome of {traj.game} episode {traj.episode}")
