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
BC, summed), bc_only (bc) and spag run one each. Each objective freezes its
own reference from the policy as it starts, so KTO after BC measures ratios
against the post-BC snapshot. Every objective trains through one loop,
``_descend``: plain gradient descent along the objective's plan of seeded
shuffles and batches, accumulating gradients over ``grad_accum`` batches in
the KTO stage. KTO weights satisfy ``lambda_D n_D = lambda_U n_U`` with the
larger weight at 1.0.

Each game owns its parameter block, so at ``batch_size <= 2`` with more than
one worker every game trains in a ``fan_out`` task of its own, along the one
plan; each loss takes the whole batch's size (or seat counts) and reports its
value in parts, which ``train_two_stage`` sums over the tasks.

Features do not depend on the parameters, so ``_descend`` encodes whole
batches about ``_CHUNK`` items at a time, one ``features.encode`` call per
game. ``feats @ block`` and the log-softmax stay per state, so the chunk size
changes no bit of the result.
"""
from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .games import RETURN, Outcome, Player, get_game, split_key
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
    """A batch's loss as its parts (each already scaled by its share of the whole
    batch; None where the batch holds no term of it), the gradient and KTO's z0."""
    parts: tuple[float | None, ...]
    gradient: dict[str, np.ndarray]
    z0: float | None = None

    @property
    def loss(self) -> float:
        return _total(self.parts)


def _total(parts: Iterable[float | None]) -> float:
    total = 0.0
    for part in parts:
        if part is not None:
            total += part
    return total


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


def _accumulate(grads: dict[str, np.ndarray], name: str, vec: np.ndarray, scale: float) -> None:
    if name in grads:
        grads[name] += scale * vec
    else:
        grads[name] = scale * vec


def _rows(items: Sequence) -> dict[int, tuple[tuple, np.ndarray]]:
    """``id(state)`` -> (legal actions, feature matrix) for every step in `items`
    (DPO pairs flattened), with one `encode` call per game."""
    by_game: dict[str, dict[int, object]] = {}
    for item in items:
        for step in item if isinstance(item, tuple) else (item,):
            by_game.setdefault(step.game, {})[id(step.state)] = step.state
    rows = {}
    for name, states in by_game.items():
        rows.update(zip(states, encode(get_game(name), list(states.values()))))
    return rows


def bc_loss(policy: Policy, batch: Sequence[LabeledStep], rows: dict | None = None,
            size: int | None = None) -> LossReport:
    """Mean negative log-likelihood of the batch actions at temperature 1.

    `size` is the whole batch's size when `batch` is its part from some games.
    """
    if not batch:
        raise ValueError("bc_loss: empty batch")
    rows = _rows(batch) if rows is None else rows
    visits = [_visit(policy, None, rows, step) for step in batch]
    total = 0.0
    inv = 1.0 / (len(batch) if size is None else size)
    for visit in visits:
        total -= float(visit.logp[visit.index])
    return LossReport((total * inv,),
                      _gradient((s.game, v, -inv) for s, v in zip(batch, visits)))


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


def _visit(policy: Policy, reference: Policy | None, rows: dict, step) -> _Visit:
    """The policy's and, if given, the reference's log-probs of the step's state, from `rows`."""
    game = get_game(step.game)
    acts, feats = rows[id(step.state)]
    return _Visit(acts, feats, action_index(game, acts, step.action),
                  log_softmax(feats @ policy.block(game)),
                  None if reference is None else log_softmax(feats @ reference.block(game)))


def _gradient(terms: Iterable[tuple[str, _Visit, float]]) -> dict[str, np.ndarray]:
    """The sum, per game, of scale * the gradient of log pi(action) over (game, visit, scale)."""
    grads: dict[str, np.ndarray] = {}
    for name, visit, scale in terms:
        _accumulate(grads, name, log_prob_grad(visit.feats, visit.logp, visit.index), scale)
    return grads


def kto_mismatch_z0(batch: Sequence[LabeledStep], visits: Sequence[_Visit]) -> float:
    """Batch z0 estimate: mean log ratio over cyclically mismatched pairs.

    `visits[i]` is the visit of `batch[i]`. The batch is sorted internally, so
    the estimate is invariant to input permutation. Mismatched actions that are
    illegal in the paired state (possible here, unlike with free-text outputs)
    are skipped.
    """
    order = sorted(range(len(batch)), key=lambda i: (batch[i].game, batch[i].key))
    ratios = []
    for pos, i in enumerate(order):
        step, other, visit = batch[i], batch[order[pos - 1]], visits[i]
        if other.game != step.game or other.action not in visit.acts:
            continue
        ratios.append(visit.log_ratio(visit.acts.index(other.action)))
    if not ratios:
        return 0.0
    return max(0.0, sum(ratios) / len(ratios))


def kto_loss(policy: Policy, reference: Policy, batch: Sequence[LabeledStep], *,
             beta: float, lambda_d: float = 1.0, lambda_u: float = 1.0,
             z0_override: float | None = None, rows: dict | None = None,
             size: int | None = None) -> LossReport:
    """Mean of lambda_y - v(x, y) over the batch, with analytic gradient.

    ``z0_override`` freezes the baseline (used by finite-difference checks;
    z0 is detached from the gradient either way). `size` is the whole batch's
    size when `batch` is its part from some games; such a part's z0 is 0, since
    ``train_two_stage`` splits only batches that pair no two steps of one game.
    """
    if not batch:
        raise ValueError("kto_loss: empty batch")
    if beta <= 0:
        raise ValueError("kto_loss: beta must be positive")
    rows = _rows(batch) if rows is None else rows
    visits = [_visit(policy, reference, rows, s) for s in batch]
    if z0_override is not None:
        z0 = z0_override
    elif size in (None, len(batch)):
        z0 = kto_mismatch_z0(batch, visits)
    else:
        z0 = 0.0
    total = 0.0
    terms = []
    inv = 1.0 / (len(batch) if size is None else size)
    for step, visit in zip(batch, visits):
        if not math.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"reference assigns zero probability to {step.key!r}")
        # v = lambda * sigmoid(sign * beta * (r - z0)); negating the difference is exact
        sign, lam = (1.0, lambda_d) if step.label == DESIRABLE else (-1.0, lambda_u)
        s = _sigmoid(sign * beta * (visit.log_ratio(visit.index) - z0))
        total += lam * (1.0 - s)
        terms.append((step.game, visit, -sign * inv * lam * beta * s * (1.0 - s)))
    return LossReport((total * inv,), _gradient(terms), z0)


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
             rows: dict | None = None, size: int | None = None) -> LossReport:
    """Mean -log sigmoid(beta * (log-ratio(a+) - log-ratio(a-))); `size` is the whole
    batch's size when `pairs` is its part from some games."""
    if not pairs:
        raise ValueError("dpo_loss: no constructible pairs")
    rows = _rows(pairs) if rows is None else rows
    total = 0.0
    terms = []
    inv = 1.0 / (len(pairs) if size is None else size)
    for pos, neg in pairs:
        v_pos = _visit(policy, reference, rows, pos)
        v_neg = _visit(policy, reference, rows, neg)
        h = v_pos.log_ratio(v_pos.index) - v_neg.log_ratio(v_neg.index)
        total += -_log_sigmoid(beta * h)
        scale = -inv * beta * _sigmoid(-beta * h)
        terms += (pos.game, v_pos, scale), (neg.game, v_neg, -scale)
    return LossReport((total * inv,), _gradient(terms))


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


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
              beta2: float, rows: dict | None = None,
              seats: Mapping[Player, int] | None = None) -> LossReport:
    """Negated seat-averaged mean of ratio*advantage - beta2*KL(pi||pi_ref), one part
    per seat; `seats` holds each seat's step count in the whole batch when `steps`
    is its part from some games."""
    if not steps:
        raise ValueError("spag_loss: no steps")
    rows = _rows(steps) if rows is None else rows
    seat_terms: dict[Player, list[float]] = {Player.P1: [], Player.P2: []}
    seat_grads: dict[Player, dict[str, np.ndarray]] = {Player.P1: {}, Player.P2: {}}
    for step in steps:
        visit = _visit(policy, reference, rows, step)
        if not np.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"behavior policy assigns zero probability in {step.game}")
        probs = np.exp(visit.logp)
        log_ratios = visit.logp - visit.ref_logp
        ratio = math.exp(log_ratios[visit.index])
        kl = float(probs @ log_ratios)
        seat = step.state.to_move
        seat_terms[seat].append(ratio * step.advantage - beta2 * kl)
        centered = visit.feats - probs @ visit.feats
        grad = (ratio * step.advantage * centered[visit.index]
                - beta2 * (probs * log_ratios) @ centered)
        _accumulate(seat_grads[seat], step.game, grad, 1.0)
    counts = {p: len(seat_terms[p]) for p in Player} if seats is None else seats
    weight = 1.0 / sum(1 for p in Player if counts.get(p))
    parts: list[float | None] = []
    grads: dict[str, np.ndarray] = {}
    for p in Player:
        if not seat_terms[p]:
            parts.append(None)
            continue
        n = counts[p]
        parts.append(-(weight * sum(seat_terms[p]) / n))
        for name, vec in seat_grads[p].items():
            _accumulate(grads, name, vec, -weight / n)
    return LossReport(tuple(parts), grads)


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


class _Plan(NamedTuple):
    """One objective over the whole dataset: its stage name, its items, its metrics
    `counts` = (n_D, n_U, lambda_D, lambda_U), each epoch's seeded shuffle of the
    items' indices, which `config.batch_size` cuts into batches, and when games
    train apart, each epoch's numbers of the batches that hold each game's items."""
    stage: str
    items: Sequence
    counts: tuple[int, int, float, float]
    orders: list[array]
    batches_of: list[dict[str, np.ndarray]] | None


def _game(item) -> str:
    return (item[0] if isinstance(item, tuple) else item).game


def _tag(item):
    """What a loss reads of a batch item that another task holds: a labelled step's
    label, an advantage step's seat, nothing of a DPO pair (only that it is there)."""
    if isinstance(item, AdvantageStep):
        return item.state.to_move
    return None if isinstance(item, tuple) else item.label


def _plan(objective: str, data: Sequence, config: ExperimentConfig,
          apart: bool) -> _Plan | None:
    """`objective`'s plan over `data`, or None if it has nothing to train on: the
    desirable steps for bc, the DPO pairs for dpo, and `data` itself otherwise;
    `apart` when each game trains in a task of its own."""
    if objective == "dpo":
        items = build_dpo_pairs(data)
        counts = (len(items), len(items), 1.0, 1.0)
    elif objective in ("kto", "joint"):
        items = data
        n_d, n_u = label_counts(items)
        counts = (n_d, n_u, *balance_lambdas(n_d, n_u))
    else:  # bc on the desirable steps, spag on every advantage step
        items = [s for s in data if s.label == DESIRABLE] if objective == "bc" else data
        counts = (len(items), 0, 1.0, 0.0)
    if not items:
        return None
    orders = []
    for epoch in range(config.epochs):
        order = array("q", range(len(items)))
        random.Random(stable_hash(config.seed, objective, epoch)).shuffle(order)
        orders.append(order)
    if not apart:
        return _Plan(objective, items, counts, orders, None)
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(_game(item), len(index)) for item in items])
    size = config.batch_size
    batches_of = []
    for order in orders:  # each place's game, batch by batch; -1 past the last item
        game_at = np.full(-(-len(items) // size) * size, -1)
        game_at[:len(items)] = codes[np.frombuffer(order, dtype=np.int64)]
        batches_of.append({game: np.flatnonzero((game_at.reshape(-1, size) == code).any(1))
                           for game, code in index.items()})
    return _Plan(objective, items, counts, orders, batches_of)


def _apply_gradient(policy: Policy, grads: Mapping[str, np.ndarray], lr: float) -> None:
    for name, vec in grads.items():
        block = policy.block(get_game(name))
        block -= lr * vec


def _descend(policy: Policy, plan: _Plan, game: str | None,
             loss: Callable[[list, dict, tuple], LossReport], config: ExperimentConfig,
             accum: int = 1) -> list[list[tuple]]:
    """The one Stage III loop: plain gradient descent along `plan`, on the items of
    `game` (None: of every game).

    Each batch's `loss` sees the batch's items of `game`, their feature rows and
    the tags of its other items. A gradient step averages the `accum` batches of
    one group; a trailing partial group is scaled up to a full one. Returns, per
    epoch, one row for each batch that holds an item of `game`: its number, z0
    and loss parts, NaN for a z0 or a part the batch has not.
    """
    items, size = plan.items, config.batch_size
    per_chunk = max(1, _CHUNK // size)
    epochs = []
    for epoch, order in enumerate(plan.orders):
        batches = -(-len(order) // size)
        numbers = (range(batches) if game is None
                   else plan.batches_of[epoch].get(game, np.empty(0, int)).tolist())
        reports, grads, group, chunk = [], {}, 0, None
        for number in numbers:
            if number // per_chunk != chunk:
                chunk = number // per_chunk
                rows = _rows([items[i] for i in order[chunk * per_chunk * size:
                                                      (chunk + 1) * per_chunk * size]
                              if game is None or _game(items[i]) == game])
            if number // accum != group:  # the group before is whole
                _apply_gradient(policy, grads, config.learning_rate)
                grads, group = {}, number // accum
            batch = [items[i] for i in order[number * size:(number + 1) * size]]
            own = batch if game is None else [x for x in batch if _game(x) == game]
            others = tuple(_tag(x) for x in batch if _game(x) != game) if own is not batch else ()
            report = loss(own, rows, others)
            if not math.isfinite(report.loss):
                raise RuntimeError(f"training diverged during {plan.stage}: loss is not finite")
            for name, vec in report.gradient.items():
                _accumulate(grads, name, vec, 1.0 / accum)
            reports.append((number, report.z0, *report.parts))
        pending = min(accum, batches - group * accum)
        if pending < accum:
            grads = {k: v * (accum / pending) for k, v in grads.items()}
        _apply_gradient(policy, grads, config.learning_rate)
        epochs.append(np.array(reports, dtype=float) if reports else np.empty((0, 0)))
    return epochs


def train_bc(policy: Policy, plan: _Plan, config: ExperimentConfig,
             game: str | None) -> list:
    def loss(batch, rows, others):
        return bc_loss(policy, batch, rows, size=len(batch) + len(others))

    return _descend(policy, plan, game, loss, config)


def train_kto(policy: Policy, plan: _Plan, config: ExperimentConfig,
              game: str | None) -> list:
    reference = policy.clone()
    _, _, lambda_d, lambda_u = plan.counts

    def loss(batch, rows, others):
        return kto_loss(policy, reference, batch, beta=config.beta, lambda_d=lambda_d,
                        lambda_u=lambda_u, rows=rows, size=len(batch) + len(others))

    return _descend(policy, plan, game, loss, config, accum=config.grad_accum)


def train_dpo(policy: Policy, plan: _Plan, config: ExperimentConfig,
              game: str | None) -> list:
    reference = policy.clone()

    def loss(batch, rows, others):
        return dpo_loss(policy, reference, batch, config.beta, rows, size=len(batch) + len(others))

    return _descend(policy, plan, game, loss, config)


def train_spag(policy: Policy, plan: _Plan, config: ExperimentConfig,
               game: str | None) -> list:
    reference = policy.clone()

    def loss(batch, rows, others):
        seats = Counter(others)
        seats.update(step.state.to_move for step in batch)
        return spag_loss(policy, reference, batch, config.beta2, rows, seats=seats)

    return _descend(policy, plan, game, loss, config)


def train_joint(policy: Policy, plan: _Plan, config: ExperimentConfig,
                game: str | None) -> list:
    reference = policy.clone()
    _, _, lambda_d, lambda_u = plan.counts

    def loss(batch, rows, others):
        """KTO plus BC on the batch's desirable steps, as two parts; z0 is KTO's."""
        report = kto_loss(policy, reference, batch, beta=config.beta, lambda_d=lambda_d,
                          lambda_u=lambda_u, rows=rows, size=len(batch) + len(others))
        desirable = [s for s in batch if s.label == DESIRABLE]
        if not desirable:
            return LossReport((*report.parts, None), report.gradient, report.z0)
        bc = bc_loss(policy, desirable, rows, size=len(desirable) + others.count(DESIRABLE))
        for name, vec in bc.gradient.items():
            _accumulate(report.gradient, name, vec, 1.0)
        return LossReport(report.parts + bc.parts, report.gradient, z0=report.z0)

    return _descend(policy, plan, game, loss, config)


def _train_game(config: ExperimentConfig, policy: Policy, game: str | None,
                plans: Sequence[_Plan | None]) -> tuple[dict[str, np.ndarray], list]:
    """One Stage III task: `policy`'s blocks after each plan in turn trains the block
    of `game` (None: of every game), and each plan's batch reports."""
    # looked up per call, so a wrapped module attribute is the one that runs
    trainers = {"bc": train_bc, "kto": train_kto, "dpo": train_dpo, "joint": train_joint,
                "spag": train_spag}
    reports = [None if plan is None else trainers[plan.stage](policy, plan, config, game)
               for plan in plans]
    return {name: block for name, block in policy.blocks.items()
            if game in (None, name)}, reports


def _metric_rows(plan: _Plan, task_reports: Sequence[list], size: int) -> list[dict]:
    """One metrics row per epoch of `plan`, cut in batches of `size`: the mean over the
    batches of the loss, each part summed over the tasks that hold some of the batch
    (as ``LossReport.loss`` sums the parts), and the mean z0."""
    rows = []
    for epoch in range(len(plan.orders)):
        reports = [task[epoch] for task in task_reports if len(task[epoch])]
        held = np.full((-(-len(plan.items) // size), reports[0].shape[1]), np.nan)
        for report in reports:
            numbers, new = report[:, 0].astype(int), report[:, 2:]
            old = held[numbers, 2:]  # a batch split between two tasks has parts from both
            held[numbers, 1] = report[:, 1]
            held[numbers, 2:] = np.where(np.isnan(old), new,
                                         np.where(np.isnan(new), old, old + new))
        losses = np.zeros(len(held))
        for part in held[:, 2:].T:
            losses += np.where(np.isnan(part), 0.0, part)
        z0s = held[:, 1]
        z0 = "" if np.isnan(z0s).any() else sum(z0s.tolist()) / len(z0s)
        rows.append(dict(zip(METRIC_COLUMNS, (plan.stage, epoch,
                                              sum(losses.tolist()) / len(losses),
                                              *plan.counts, z0))))
    return rows


def train_two_stage(policy: Policy, data: Sequence,
                    config: ExperimentConfig) -> tuple[Policy, list[dict]]:
    """Stage III: (a copy of `policy` trained by the objectives of `MODES[config.mode]`
    in order, its metrics rows); `data` is the labeled set, or the trajectories
    when the mode is spag.

    Each objective's shuffles, and so its batches and gradient steps, are drawn
    here once from all its items (`_plan`). A game's items move only its own
    block, so with more than one worker and ``batch_size <= 2`` each game is one
    ``fan_out`` task, largest first, which walks those batches and trains on its
    own items alone. A batch that mixes games then holds one step of each: it
    pairs no two KTO steps (z0 = 0), its scale is 1 or 1/2 and a sum of two parts
    does not depend on their order, so the checkpoint and the metrics rows,
    summed here from the tasks' loss parts, are bit-identical to one task that
    holds every game, which runs otherwise.
    """
    if config.mode not in MODES:
        raise ValueError(f"unknown training mode {config.mode!r}")
    if config.mode == "spag":
        data = build_advantage_steps(data, gamma=config.gamma)
    elif config.balance_games:
        data = balance_by_game(data, config.seed)
    jobs = config.effective_jobs()
    games = Counter(step.game for step in data)
    apart = config.batch_size <= 2 and jobs > 1 and len(games) > 1
    plans = [_plan(objective, data, config, apart) for objective in MODES[config.mode]]
    trained = policy.clone()
    tasks = [(trained, game, plans) for game in games] if apart else [(trained, None, plans)]
    results = fan_out(partial(_train_game, config), tasks, jobs,
                      sizes=list(games.values()) if apart else None)
    metrics = []
    for i, plan in enumerate(plans):
        if plan is not None:
            trained.version += 1
            metrics += _metric_rows(plan, [reports[i] for _, reports in results],
                                    config.batch_size)
    for blocks, _ in results:
        trained.blocks.update(blocks)
    return trained, metrics
