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
``_descend``: plain gradient descent with the configured epoch/batch
structure, accumulating gradients over ``grad_accum`` batches in the KTO
stage. KTO weights satisfy ``lambda_D n_D = lambda_U n_U`` with the larger
weight at 1.0.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .games import RETURN, Player, get_game, split_key
from .interaction import Trajectory, learner_seats, replay, stable_hash
from .policy import Policy, action_index, log_prob_grad, log_softmax
from .rewards import DESIRABLE, LabeledStep, label_counts

if TYPE_CHECKING:  # config imports MODES from here
    from .config import ExperimentConfig

METRIC_COLUMNS = ("stage", "epoch", "loss", "n_D", "n_U", "lambda_D", "lambda_U", "z0")
MODES = {"two_stage": ("bc", "kto"), "direct_kto": ("kto",), "joint": ("joint",),
         "bc_only": ("bc",), "bc_dpo": ("bc", "dpo"), "spag": ("spag",)}


@dataclass
class LossReport:
    loss: float
    gradient: dict[str, np.ndarray]
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


def _accumulate(grads: dict[str, np.ndarray], name: str, vec: np.ndarray, scale: float) -> None:
    if name in grads:
        grads[name] += scale * vec
    else:
        grads[name] = scale * vec


def bc_loss(policy: Policy, batch: Sequence[LabeledStep]) -> LossReport:
    """Mean negative log-likelihood of the batch actions at temperature 1."""
    if not batch:
        raise ValueError("bc_loss: empty batch")
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    inv = 1.0 / len(batch)
    for step in batch:
        game = get_game(step.game)
        logp, grad = policy.log_prob_and_grad(game, step.state, step.action)
        total -= logp
        _accumulate(grads, step.game, grad, -inv)
    return LossReport(total * inv, grads)


class _Visit(NamedTuple):
    """One step's legal actions and feature matrix, the index of its action, and
    the log-probabilities of every action under the policy and the reference."""
    acts: tuple
    feats: np.ndarray
    index: int
    logp: np.ndarray
    ref_logp: np.ndarray

    def log_ratio(self, i: int) -> float:
        return self.logp[i] - self.ref_logp[i]

    def grad(self) -> np.ndarray:
        return log_prob_grad(self.feats, self.logp, self.index)


def _visit(policy: Policy, reference: Policy, game_name: str, state, action) -> _Visit:
    """Build the state's feature matrix once; both policies' log-probs come from it."""
    game = get_game(game_name)
    acts, z, feats = policy.logits(game, state)
    return _Visit(acts, feats, action_index(game, acts, action), log_softmax(z),
                  log_softmax(feats @ reference.block(game)))


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
             z0_override: float | None = None) -> LossReport:
    """Mean of lambda_y - v(x, y) over the batch, with analytic gradient.

    ``z0_override`` freezes the baseline (used by finite-difference checks;
    z0 is detached from the gradient either way).
    """
    if not batch:
        raise ValueError("kto_loss: empty batch")
    if beta <= 0:
        raise ValueError("kto_loss: beta must be positive")
    visits = [_visit(policy, reference, s.game, s.state, s.action) for s in batch]
    z0 = kto_mismatch_z0(batch, visits) if z0_override is None else z0_override
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    inv = 1.0 / len(batch)
    for step, visit in zip(batch, visits):
        if not math.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"reference assigns zero probability to {step.key!r}")
        r = visit.log_ratio(visit.index)
        if step.label == DESIRABLE:
            s = _sigmoid(beta * (r - z0))
            total += lambda_d * (1.0 - s)
            _accumulate(grads, step.game, visit.grad(), -inv * lambda_d * beta * s * (1.0 - s))
        else:
            s = _sigmoid(beta * (z0 - r))
            total += lambda_u * (1.0 - s)
            _accumulate(grads, step.game, visit.grad(), inv * lambda_u * beta * s * (1.0 - s))
    return LossReport(total * inv, grads, z0)


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
             pairs: Sequence[tuple[LabeledStep, LabeledStep]], beta: float) -> LossReport:
    """Mean -log sigmoid(beta * (log-ratio(a+) - log-ratio(a-)))."""
    if not pairs:
        raise ValueError("dpo_loss: no constructible pairs")
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    inv = 1.0 / len(pairs)
    for pos, neg in pairs:
        v_pos = _visit(policy, reference, pos.game, pos.state, pos.action)
        v_neg = _visit(policy, reference, neg.game, neg.state, neg.action)
        h = v_pos.log_ratio(v_pos.index) - v_neg.log_ratio(v_neg.index)
        total += -_log_sigmoid(beta * h)
        scale = -inv * beta * _sigmoid(-beta * h)
        _accumulate(grads, pos.game, v_pos.grad(), scale)
        _accumulate(grads, neg.game, v_neg.grad(), -scale)
    return LossReport(total * inv, grads)


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


# -- discounted self-play baseline ----------------------------------------


def spag_assign_rewards(traj: Trajectory, gamma: float = 0.8) -> list[float]:
    """Signed discounted reward per recorded step.

    For an actor with T own steps, their t-th step (1-based) carries
    ``(1-gamma) * gamma^(T-t) / (1 - gamma^(T+1))``, positive for the
    winner, negated for the loser, zero on ties.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    totals = {p: sum(1 for s in traj.steps if s.actor is p) for p in Player}
    index = {p: 0 for p in Player}
    rewards = []
    for step in traj.steps:
        index[step.actor] += 1
        t, horizon = index[step.actor], totals[step.actor]
        magnitude = (1 - gamma) * gamma ** (horizon - t) / (1 - gamma ** (horizon + 1))
        rewards.append(RETURN[traj.outcome[step.actor]] * magnitude)
    return rewards


@dataclass(frozen=True)
class AdvantageStep:
    game: str
    state: object
    action: object
    actor: Player
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
        rewards = spag_assign_rewards(traj, gamma)
        for (state, action, actor), adv in zip(replay(traj), rewards):
            if actor in seats:
                out.append(AdvantageStep(traj.game, state, action, actor, adv))
    return out


def spag_loss(policy: Policy, reference: Policy, steps: Sequence[AdvantageStep],
              beta2: float) -> LossReport:
    """Negated seat-averaged mean of ratio*advantage - beta2*KL(pi||pi_ref)."""
    if not steps:
        raise ValueError("spag_loss: no steps")
    seat_terms: dict[Player, list[float]] = {Player.P1: [], Player.P2: []}
    seat_grads: dict[Player, dict[str, np.ndarray]] = {Player.P1: {}, Player.P2: {}}
    for step in steps:
        visit = _visit(policy, reference, step.game, step.state, step.action)
        if not np.isfinite(visit.ref_logp[visit.index]):
            raise ValueError(f"behavior policy assigns zero probability in {step.game}")
        probs = np.exp(visit.logp)
        log_ratios = visit.logp - visit.ref_logp
        ratio = math.exp(log_ratios[visit.index])
        kl = float(probs @ log_ratios)
        seat_terms[step.actor].append(ratio * step.advantage - beta2 * kl)
        centered = visit.feats - probs @ visit.feats
        grad = (ratio * step.advantage * centered[visit.index]
                - beta2 * (probs * log_ratios) @ centered)
        _accumulate(seat_grads[step.actor], step.game, grad, 1.0)
    seats = [p for p in Player if seat_terms[p]]
    weight = 1.0 / len(seats)
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for p in seats:
        n = len(seat_terms[p])
        loss -= weight * sum(seat_terms[p]) / n
        for name, vec in seat_grads[p].items():
            _accumulate(grads, name, vec, -weight / n)
    return LossReport(loss, grads)


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


def _apply_gradient(policy: Policy, grads: Mapping[str, np.ndarray], lr: float) -> None:
    for name, vec in grads.items():
        block = policy.block(get_game(name))
        block -= lr * vec


def _descend(policy: Policy, items: Sequence, loss: Callable[[list], LossReport],
             config: ExperimentConfig, metrics: list[dict], stage: str,
             counts: tuple[int, int, float, float], accum: int = 1) -> None:
    """The one Stage III loop: `config.epochs` seeded shuffles of `items` in batches.

    A gradient step averages `accum` batches; a trailing partial group is
    scaled up to a full one. Each epoch appends a metrics row: mean loss,
    `counts` = (n_D, n_U, lambda_D, lambda_U), mean z0 (empty if the loss has none).
    """
    if not items:
        return
    for epoch in range(config.epochs):
        order = list(items)
        random.Random(stable_hash(config.seed, stage, epoch)).shuffle(order)
        losses, z0s = [], []
        grads: dict[str, np.ndarray] = {}
        pending = 0
        for start in range(0, len(order), config.batch_size):
            report = loss(order[start:start + config.batch_size])
            if not math.isfinite(report.loss):
                raise RuntimeError(f"training diverged during {stage}: loss is not finite")
            for name, vec in report.gradient.items():
                _accumulate(grads, name, vec, 1.0 / accum)
            pending += 1
            if pending == accum:
                _apply_gradient(policy, grads, config.learning_rate)
                grads, pending = {}, 0
            losses.append(report.loss)
            z0s.append(report.z0)
        if pending:
            _apply_gradient(policy, {k: v * (accum / pending) for k, v in grads.items()},
                            config.learning_rate)
        z0 = "" if None in z0s else sum(z0s) / len(z0s)
        metrics.append(dict(zip(METRIC_COLUMNS,
                                (stage, epoch, sum(losses) / len(losses), *counts, z0))))
    policy.version += 1


def train_bc(policy: Policy, steps: Sequence[LabeledStep], config: ExperimentConfig,
             metrics: list[dict]) -> None:
    desirable = [s for s in steps if s.label == DESIRABLE]
    _descend(policy, desirable, lambda batch: bc_loss(policy, batch), config, metrics,
             "bc", (len(desirable), 0, 1.0, 0.0))


def _kto_weights(dataset: Sequence[LabeledStep]) -> tuple[int, int, float, float]:
    """(n_D, n_U, lambda_D, lambda_U) of a labeled set, with balanced weights."""
    n_d, n_u = label_counts(dataset)
    return (n_d, n_u, *balance_lambdas(n_d, n_u))


def train_kto(policy: Policy, dataset: Sequence[LabeledStep], config: ExperimentConfig,
              metrics: list[dict]) -> None:
    reference = policy.clone()
    counts = _kto_weights(dataset)
    _descend(policy, dataset, lambda batch: kto_loss(
        policy, reference, batch, beta=config.beta, lambda_d=counts[2], lambda_u=counts[3]),
        config, metrics, "kto", counts, accum=config.grad_accum)


def train_dpo(policy: Policy, dataset: Sequence[LabeledStep], config: ExperimentConfig,
              metrics: list[dict]) -> None:
    reference = policy.clone()
    pairs = build_dpo_pairs(dataset)
    _descend(policy, pairs, lambda batch: dpo_loss(policy, reference, batch, config.beta),
             config, metrics, "dpo", (len(pairs), len(pairs), 1.0, 1.0))


def train_spag(policy: Policy, steps: Sequence[AdvantageStep], config: ExperimentConfig,
               metrics: list[dict]) -> None:
    reference = policy.clone()
    _descend(policy, steps, lambda batch: spag_loss(policy, reference, batch, config.beta2),
             config, metrics, "spag", (len(steps), 0, 1.0, 0.0))


def train_joint(policy: Policy, dataset: Sequence[LabeledStep], config: ExperimentConfig,
                metrics: list[dict]) -> None:
    reference = policy.clone()
    counts = _kto_weights(dataset)

    def loss(batch):
        """KTO plus BC on the batch's desirable steps; z0 is KTO's."""
        report = kto_loss(policy, reference, batch, beta=config.beta,
                          lambda_d=counts[2], lambda_u=counts[3])
        desirable = [s for s in batch if s.label == DESIRABLE]
        if not desirable:
            return report
        bc = bc_loss(policy, desirable)
        for name, vec in bc.gradient.items():
            _accumulate(report.gradient, name, vec, 1.0)
        return LossReport(report.loss + bc.loss, report.gradient, z0=report.z0)

    _descend(policy, dataset, loss, config, metrics, "joint", counts)


def train_two_stage(policy: Policy, data: Sequence,
                    config: ExperimentConfig) -> tuple[Policy, list[dict]]:
    """Stage III: (a copy of `policy` trained by the objectives of `MODES[config.mode]`
    in order, its metrics rows); `data` is the labeled set, or the trajectories
    when the mode is spag."""
    if config.mode not in MODES:
        raise ValueError(f"unknown training mode {config.mode!r}")
    # looked up per call, so a wrapped module attribute is the one that runs
    trainers = {"bc": train_bc, "kto": train_kto, "dpo": train_dpo, "joint": train_joint,
                "spag": train_spag}
    if config.mode == "spag":
        data = build_advantage_steps(data, gamma=config.gamma)
    elif config.balance_games:
        data = balance_by_game(data, config.seed)
    trained, metrics = policy.clone(), []
    for objective in MODES[config.mode]:
        trainers[objective](trained, data, config, metrics)
    return trained, metrics
