"""Stage III: strategy refinement.

Objectives over the labeled step dataset:

* behavioral cloning: mean negative log-likelihood of desirable steps;
* KTO: per-step desirability loss ``lambda_y - v`` with
  ``v = lambda_D * sigmoid(beta * (r - z0))`` for desirable steps and
  ``lambda_U * sigmoid(beta * (z0 - r))`` for undesirable ones, where
  ``r = log pi/pi_ref`` and ``z0`` is the batch-mean log ratio under a
  one-position cyclic mismatch of actions against states (detached from
  the gradient and clamped at >= 0);
* DPO: ``-log sigmoid(beta * (r(a+) - r(a-)))`` over desirable/undesirable
  pairs sharing a state key;
* the discounted self-play baseline: importance-weighted step advantages
  minus a KL penalty toward the data-generating snapshot.

``train_two_stage`` is the one Stage III entry. ``MODES`` maps each training
mode to its objectives, run in order on a copy of the policy: two_stage runs
bc then kto, bc_dpo runs bc then dpo, and direct_kto (kto), joint (KTO plus
BC, summed), bc_only (bc) and spag run one each. Each objective is declared
once, by ``train_<objective>(policy, data, config, lambdas)``: the items it
takes from one game's data, its batch loss, its gradient accumulation, and the
(n_D, n_U, lambda_D, lambda_U) its metrics rows report.

Each game owns its parameter block and trains in a ``fan_out`` task of its
own, which gets the game's data in memory and a policy of that block alone.
Every objective trains through one loop, ``_descend``. It freezes the reference
as the objective starts, so KTO after BC measures ratios against the post-BC
snapshot. Each epoch shuffles the game's items with the seed
``stable_hash(seed, objective, epoch)``, cuts them into batches of
``batch_size`` and takes plain gradient steps. A game's block does not depend
on the other games of the run, with one exception: KTO's weights are
dataset-wide. They come from the whole labelled set and satisfy ``lambda_D n_D
= lambda_U n_U`` with the larger weight at 1.0.

A batch holds one game's steps, so each loss returns the gradient of that
game's block. ``_rows`` checks it as it encodes the batch, or ``_descend``'s
chunk of about ``_CHUNK`` items, in one ``features.encode`` call. Features do
not depend on the parameters, and ``feats @ block`` and the log-softmax stay
per state, so the chunk size changes no bit of the result.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice, product
from operator import iadd
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .games import RETURN, Game, Outcome, Player, get_game, split_key
from .features import encode
from .interaction import Trajectory, fan_out, learner_seats, replay, stable_hash
from .policy import Policy, action_index, log_prob_grad, log_softmax
from .rewards import DESIRABLE, LabeledStep, label_counts

if TYPE_CHECKING:  # config imports MODES from here
    from .config import ExperimentConfig

_CHUNK = 128  # items (steps or DPO pairs) whose feature matrices _descend builds at once
METRIC_COLUMNS = ("stage", "epoch", "loss", "n_D", "n_U", "lambda_D", "lambda_U", "z0")
MODES = {"two_stage": ("bc", "kto"), "direct_kto": ("kto",), "joint": ("joint",),
         "bc_only": ("bc",), "bc_dpo": ("bc", "dpo"), "spag": ("spag",)}


@dataclass
class LossReport:
    """A batch's loss, the gradient of its one game's block, and KTO's z0 (or None)."""
    loss: float
    gradient: np.ndarray
    z0: float | None = None


def balance_lambdas(n_d: int, n_u: int) -> tuple[float, float]:
    """Weights with lambda_D*n_D == lambda_U*n_U and the larger one at 1.0."""
    if n_d == 0 or n_u == 0:
        return 1.0, 1.0
    if n_d <= n_u:
        return 1.0, n_d / n_u
    return n_u / n_d, 1.0


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _rows(items: Sequence) -> tuple[Game, dict[int, tuple[tuple, np.ndarray]]]:
    """The game of `items` and ``id(state)`` -> (legal actions, feature matrix) for each
    step (DPO pairs flattened), in one `encode` call; where a batch is checked to hold
    one game's steps, with a ValueError naming the games if it mixes them."""
    names, states = set(), {}
    for item in items:
        for step in item if isinstance(item, tuple) else (item,):
            names.add(step.game)
            states[id(step.state)] = step.state
    if len(names) > 1:
        raise ValueError(f"a batch holds one game's steps, not steps of {sorted(names)}")
    game = get_game(*names)
    return game, dict(zip(states, encode(game, list(states.values()))))


def bc_loss(policy: Policy, batch: Sequence[LabeledStep], rows: tuple | None = None) -> LossReport:
    """Mean negative log-likelihood of the batch actions at temperature 1."""
    if not batch:
        raise ValueError("bc_loss: empty batch")
    game, rows = _rows(batch) if rows is None else rows
    visits = [_visit(policy, None, game, rows, step) for step in batch]
    total = 0.0
    inv = 1.0 / len(batch)
    for visit in visits:
        total -= float(visit.logp[visit.index])
    return LossReport(total * inv, _gradient((v, -inv) for v in visits))


class _Visit(NamedTuple):
    """One step's legal actions and feature matrix, the index of its action, and
    the log-probabilities of every action under the policy and the reference."""
    acts: tuple
    feats: np.ndarray
    index: int
    logp: np.ndarray
    ref_logp: np.ndarray | None  # None when scored without a reference

    def log_ratio(self, i: int) -> float:
        return self.logp[i] - self.ref_logp[i]


def _visit(policy: Policy, reference: Policy | None, game: Game, rows: dict, step) -> _Visit:
    """The policy's and, if given, the reference's log-probs of the step's state, from `rows`."""
    acts, feats = rows[id(step.state)]
    return _Visit(acts, feats, action_index(game, acts, step.action),
                  log_softmax(feats @ policy.block(game)),
                  None if reference is None else log_softmax(feats @ reference.block(game)))


def _gradient(terms: Iterable[tuple[_Visit, float]]) -> np.ndarray:
    """The sum, in order, of scale * the gradient of log pi(action) over (visit, scale):
    a gradient with respect to the block of the batch's one game."""
    return reduce(iadd, (scale * log_prob_grad(visit.feats, visit.logp, visit.index)
                         for visit, scale in terms))


def kto_mismatch_z0(batch: Sequence[LabeledStep], visits: Sequence[_Visit]) -> float:
    """Batch z0 estimate: mean log ratio over cyclically mismatched pairs.

    `visits[i]` is the visit of `batch[i]`, and the batch holds one game's steps
    (``_rows`` checks it). Sorting by key makes the estimate invariant to input
    permutation. A neighbour with the step's own key (the step itself in a one-step
    batch, or a copy) is no mismatch, and mismatched actions that are illegal in the
    paired state (possible here, unlike with free-text outputs) are skipped.
    """
    order = sorted(range(len(batch)), key=lambda i: batch[i].key)
    ratios = []
    for pos, i in enumerate(order):
        step, other, visit = batch[i], batch[order[pos - 1]], visits[i]
        if other.key == step.key or other.action not in visit.acts:
            continue
        ratios.append(visit.log_ratio(visit.acts.index(other.action)))
    if not ratios:
        return 0.0
    return max(0.0, sum(ratios) / len(ratios))


def kto_loss(policy: Policy, reference: Policy, batch: Sequence[LabeledStep], *,
             beta: float, lambda_d: float = 1.0, lambda_u: float = 1.0,
             z0_override: float | None = None, rows: tuple | None = None) -> LossReport:
    """Mean of lambda_y - v(x, y) over the batch, with analytic gradient.

    ``z0_override`` freezes the baseline (used by finite-difference checks;
    z0 is detached from the gradient either way).
    """
    if not batch:
        raise ValueError("kto_loss: empty batch")
    if beta <= 0:
        raise ValueError("kto_loss: beta must be positive")
    game, rows = _rows(batch) if rows is None else rows
    visits = [_visit(policy, reference, game, rows, s) for s in batch]
    z0 = kto_mismatch_z0(batch, visits) if z0_override is None else z0_override
    total = 0.0
    terms = []
    inv = 1.0 / len(batch)
    for step, visit in zip(batch, visits):
        if not math.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"reference assigns zero probability to {step.key!r}")
        # v = lambda * sigmoid(sign * beta * (r - z0)); negating the difference is exact
        sign, lam = (1.0, lambda_d) if step.label == DESIRABLE else (-1.0, lambda_u)
        s = _sigmoid(sign * beta * (visit.log_ratio(visit.index) - z0))
        total += lam * (1.0 - s)
        terms.append((visit, -sign * inv * lam * beta * s * (1.0 - s)))
    return LossReport(total * inv, _gradient(terms), z0)


def build_dpo_pairs(dataset: Sequence[LabeledStep],
                    cap: int = 4) -> list[tuple[LabeledStep, LabeledStep]]:
    """Cross desirable x undesirable steps sharing a state key, capped per state."""
    by_state: dict[str, tuple[list[LabeledStep], list[LabeledStep]]] = {}
    for step in dataset:
        state_key, _ = split_key(step.key)
        pos, neg = by_state.setdefault(state_key, ([], []))
        (pos if step.label == DESIRABLE else neg).append(step)
    pairs = []
    for state_key in sorted(by_state):
        pos, neg = by_state[state_key]
        pos.sort(key=lambda s: (-s.reward, s.key))
        neg.sort(key=lambda s: (s.reward, s.key))
        pairs.extend(islice(product(pos, neg), cap))
    return pairs


def dpo_loss(policy: Policy, reference: Policy,
             pairs: Sequence[tuple[LabeledStep, LabeledStep]], beta: float,
             rows: tuple | None = None) -> LossReport:
    """Mean -log sigmoid(beta * (log-ratio(a+) - log-ratio(a-)))."""
    if not pairs:
        raise ValueError("dpo_loss: no constructible pairs")
    game, rows = _rows(pairs) if rows is None else rows
    total = 0.0
    terms = []
    inv = 1.0 / len(pairs)
    for pos, neg in pairs:
        v_pos = _visit(policy, reference, game, rows, pos)
        v_neg = _visit(policy, reference, game, rows, neg)
        h = v_pos.log_ratio(v_pos.index) - v_neg.log_ratio(v_neg.index)
        total += -_log_sigmoid(beta * h)
        scale = -inv * beta * _sigmoid(-beta * h)
        terms += (v_pos, scale), (v_neg, -scale)
    return LossReport(total * inv, _gradient(terms))


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def joint_loss(policy: Policy, reference: Policy, batch: Sequence[LabeledStep], *,
               rows: tuple | None = None, **kto) -> LossReport:
    """`kto_loss` (given the keywords `kto`) plus `bc_loss` on the batch's desirable
    steps; z0 is KTO's."""
    report = kto_loss(policy, reference, batch, rows=rows, **kto)
    desirable = [s for s in batch if s.label == DESIRABLE]
    if not desirable:
        return report
    bc = bc_loss(policy, desirable, rows)
    return LossReport(report.loss + bc.loss, report.gradient + bc.gradient, report.z0)


# -- discounted self-play baseline ----------------------------------------


def spag_assign_rewards(actors: Sequence[Player], outcome: Mapping[Player, Outcome],
                        gamma: float = 0.8) -> list[float]:
    """Signed discounted reward per ply of an episode, given each ply's actor.

    For an actor with T own plies, their t-th ply (1-based) carries
    ``(1-gamma) * gamma^(T-t) / (1 - gamma^(T+1))``, positive for the
    winner, negated for the loser, zero on ties.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    totals = {p: actors.count(p) for p in Player}
    index = {p: 0 for p in Player}
    rewards = []
    for actor in actors:
        index[actor] += 1
        t, horizon = index[actor], totals[actor]
        magnitude = (1 - gamma) * gamma ** (horizon - t) / (1 - gamma ** (horizon + 1))
        rewards.append(RETURN[outcome[actor]] * magnitude)
    return rewards


@dataclass(frozen=True)
class AdvantageStep:
    game: str
    state: object  # its mover, ``state.to_move``, is the seat whose term it is
    action: object
    advantage: float


def build_advantage_steps(trajectories: Iterable[Trajectory],
                          gamma: float = 0.8) -> list[AdvantageStep]:
    """Per-occurrence rewarded steps for the discounted baseline.

    Only learner seats contribute: the importance ratio is meaningful only
    for actions the behavior snapshot actually generated (both seats under
    self-play).
    """
    out = []
    for traj in trajectories:
        seats = learner_seats(traj)
        plies = list(replay(traj))
        rewards = spag_assign_rewards([state.to_move for state, _ in plies], traj.outcome, gamma)
        for (state, action), adv in zip(plies, rewards):
            if state.to_move in seats:
                out.append(AdvantageStep(traj.game, state, action, adv))
    return out


def spag_loss(policy: Policy, reference: Policy, steps: Sequence[AdvantageStep],
              beta2: float, rows: tuple | None = None) -> LossReport:
    """Negated seat-averaged mean of ratio*advantage - beta2*KL(pi||pi_ref)."""
    if not steps:
        raise ValueError("spag_loss: no steps")
    game, rows = _rows(steps) if rows is None else rows
    seats: dict[Player, list[tuple[float, np.ndarray]]] = {Player.P1: [], Player.P2: []}
    for step in steps:
        visit = _visit(policy, reference, game, rows, step)
        if not np.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"behavior policy assigns zero probability in {game.name}")
        probs = np.exp(visit.logp)
        log_ratios = visit.logp - visit.ref_logp
        ratio = math.exp(log_ratios[visit.index])
        kl = float(probs @ log_ratios)
        centered = visit.feats - probs @ visit.feats
        grad = (ratio * step.advantage * centered[visit.index]
                - beta2 * (probs * log_ratios) @ centered)
        seats[step.state.to_move].append((ratio * step.advantage - beta2 * kl, grad))
    played = [seat for seat in seats.values() if seat]
    weight = 1.0 / len(played)
    loss = 0.0
    for seat in played:
        loss -= weight * sum(term for term, _ in seat) / len(seat)
    # each seat's gradients summed in step order and scaled by -weight / n; then P1's plus P2's
    sums = (-weight / len(seat) * reduce(iadd, (grad for _, grad in seat)) for seat in played)
    return LossReport(loss, reduce(iadd, sums))


# -- dataset balancing ------------------------------------------------------


def _resample(items: list[LabeledStep], target: int, rng: random.Random) -> list[LabeledStep]:
    """Keep all originals when upsampling; seeded sample when downsampling."""
    if target == len(items):
        return list(items)
    if target < len(items):
        return [items[i] for i in sorted(rng.sample(range(len(items)), target))]
    extra = [items[rng.randrange(len(items))] for _ in range(target - len(items))]
    return list(items) + extra


def balance_by_game(dataset: Sequence[LabeledStep], seed: int = 0) -> list[LabeledStep]:
    """Equalize per-game counts to total/|games| (+-1), total preserved."""
    if not dataset:
        return []
    by_game: dict[str, list[LabeledStep]] = {}
    for step in dataset:
        by_game.setdefault(step.game, []).append(step)
    names = sorted(by_game)
    total = len(dataset)
    base, remainder = divmod(total, len(names))
    out: list[LabeledStep] = []
    for i, name in enumerate(names):
        target = base + (1 if i < remainder else 0)
        items = sorted(by_game[name], key=lambda s: s.key)
        rng = random.Random(stable_hash(seed, "balance", name))
        out.extend(_resample(items, target, rng))
    out.sort(key=lambda s: (s.game, s.key))
    return out


# -- training loops ---------------------------------------------------------


def _descend(policy: Policy, objective: str, items: Sequence, loss: Callable[..., LossReport],
             config: ExperimentConfig, counts: tuple[int, int, float, float],
             accum: int = 1) -> tuple[tuple, list[list[tuple[float, float | None]]]] | None:
    """The one Stage III loop: plain gradient descent on `policy`, which holds the block
    of the game of `items` alone, each batch scored by ``loss(reference, batch,
    rows=...)``; None if there are no items.

    Each epoch shuffles the items with the seed ``stable_hash(config.seed, objective,
    epoch)`` and cuts them into batches of ``config.batch_size``. A gradient step
    averages the `accum` batches of one group; a trailing partial group is scaled up
    to a full one. Returns `counts` and, per epoch, each batch's (loss, z0).
    """
    if not items:
        return None
    reference = policy.clone()
    (block,) = policy.blocks.values()
    size = config.batch_size
    chunk = max(1, _CHUNK // size) * size
    epochs = []
    for epoch in range(config.epochs):
        order = list(items)
        random.Random(stable_hash(config.seed, objective, epoch)).shuffle(order)
        reports: list[tuple[float, float | None]] = []
        group: list[np.ndarray] = []
        for start in range(0, len(order), size):
            if start % chunk == 0:
                rows = _rows(order[start:start + chunk])
            report = loss(reference, order[start:start + size], rows=rows)
            if not math.isfinite(report.loss):
                raise RuntimeError(f"training diverged during {objective}: loss is not finite")
            group.append(1.0 / accum * report.gradient)
            reports.append((report.loss, report.z0))
            if len(group) == accum:
                block -= config.learning_rate * reduce(iadd, group)
                group = []
        if group:
            block -= config.learning_rate * (reduce(iadd, group) * (accum / len(group)))
        epochs.append(reports)
    return counts, epochs


def train_bc(policy: Policy, data: Sequence[LabeledStep], config: ExperimentConfig,
             lambdas: tuple[float, float] | None) -> tuple | None:
    """BC on the desirable steps."""
    steps = [s for s in data if s.label == DESIRABLE]
    return _descend(policy, "bc", steps, lambda _, batch, rows: bc_loss(policy, batch, rows),
                    config, (len(steps), 0, 1.0, 0.0))


def train_kto(policy: Policy, data: Sequence[LabeledStep], config: ExperimentConfig,
              lambdas: tuple[float, float]) -> tuple | None:
    """KTO on every step, weighted by the dataset-wide `lambdas`, with gradients
    accumulated over ``config.grad_accum`` batches."""
    return _descend(policy, "kto", data, partial(kto_loss, policy, beta=config.beta,
                                                 lambda_d=lambdas[0], lambda_u=lambdas[1]),
                    config, (*label_counts(data), *lambdas), accum=config.grad_accum)


def train_joint(policy: Policy, data: Sequence[LabeledStep], config: ExperimentConfig,
                lambdas: tuple[float, float]) -> tuple | None:
    """`joint_loss` on every step, weighted by the dataset-wide `lambdas`."""
    return _descend(policy, "joint", data, partial(joint_loss, policy, beta=config.beta,
                                                   lambda_d=lambdas[0], lambda_u=lambdas[1]),
                    config, (*label_counts(data), *lambdas))


def train_dpo(policy: Policy, data: Sequence[LabeledStep], config: ExperimentConfig,
              lambdas: tuple[float, float] | None) -> tuple | None:
    """DPO on the pairs `build_dpo_pairs` makes of the steps."""
    pairs = build_dpo_pairs(data)
    return _descend(policy, "dpo", pairs, partial(dpo_loss, policy, beta=config.beta), config,
                    (len(pairs), len(pairs), 1.0, 1.0))


def train_spag(policy: Policy, data: Sequence[Trajectory], config: ExperimentConfig,
               lambdas: tuple[float, float] | None) -> tuple | None:
    """The discounted baseline on the learner-seat advantage steps of the trajectories."""
    steps = build_advantage_steps(data, gamma=config.gamma)
    return _descend(policy, "spag", steps, partial(spag_loss, policy, beta2=config.beta2),
                    config, (len(steps), 0, 1.0, 0.0))


def _train_game(config: ExperimentConfig, policy: Policy, lambdas: tuple[float, float] | None,
                game: str, data: Sequence) -> tuple[np.ndarray, list]:
    """One Stage III task: `policy`'s block of `game` after each objective of the mode
    trains it in turn on `data`, the game's data, in a policy of that block alone; and
    what each objective's trainer returned."""
    own = Policy({game: policy.blocks[game]})
    # looked up per call, so a wrapped module attribute is the one that runs
    return own.blocks[game], [globals()[f"train_{objective}"](own, data, config, lambdas)
                              for objective in MODES[config.mode]]


def train_two_stage(policy: Policy, data: Sequence,
                    config: ExperimentConfig) -> tuple[Policy, list[dict]]:
    """Stage III: (a copy of `policy` trained by the objectives of `MODES[config.mode]`
    in order, its metrics rows); `data` is the labeled set, or the trajectories
    when the mode is spag.

    A game's data moves only its own block, so each game is one ``fan_out`` task,
    largest first, which gets the game's data in memory. KTO's weights come from
    the whole labelled set. An objective's metrics row for an epoch holds the mean
    loss and z0 over every game's batches, in the order the data lists the games,
    and the sums of the games' n_D and n_U.
    """
    if config.mode not in MODES:
        raise ValueError(f"unknown training mode {config.mode!r}")
    if config.balance_games:  # the config refuses it in spag mode
        data = balance_by_game(data, config.seed)
    lambdas = None if config.mode == "spag" else balance_lambdas(*label_counts(data))
    by_game: dict[str, list] = {}
    for item in data:
        by_game.setdefault(item.game, []).append(item)
    trained = policy.clone()
    results = fan_out(partial(_train_game, config, trained, lambdas),
                      list(by_game.items()), config.effective_jobs(),
                      sizes=[len(items) for items in by_game.values()])
    metrics = []
    for i, objective in enumerate(MODES[config.mode]):
        games = [reports[i] for _, reports in results if reports[i] is not None]
        if not games:
            continue
        trained.version += 1
        n_d, n_u = (sum(counts[k] for counts, _ in games) for k in (0, 1))
        lambda_d, lambda_u = games[0][0][2:]  # every game's trainer reports the same weights
        for epoch in range(config.epochs):
            batches = [batch for _, epochs in games for batch in epochs[epoch]]
            losses = [float(loss) for loss, _ in batches]
            z0s = [z0 for _, z0 in batches]
            z0 = "" if None in z0s else sum(map(float, z0s)) / len(z0s)
            metrics.append(dict(zip(METRIC_COLUMNS, (objective, epoch, sum(losses) / len(losses),
                                                     n_d, n_u, lambda_d, lambda_u, z0))))
    for game, (block, _) in zip(by_game, results):
        trained.blocks[game] = block
    return trained, metrics
