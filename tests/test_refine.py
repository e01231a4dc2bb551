"""Loss values and gradients, lambda balancing, dataset balancing,
and the two-stage trainer."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopal.config import ExperimentConfig
from scopal.features import feature_dim
from scopal.games import Outcome, Player, get_game
from scopal.games.nim import NimState
from scopal.interaction import collect_trajectories
from scopal import refine
from scopal.policy import new_policy
from scopal.refine import (MODES, AdvantageStep, balance_by_game, balance_lambdas, bc_loss,
                           build_advantage_steps, build_dpo_pairs, dpo_loss, kto_loss,
                           spag_assign_rewards, spag_loss, train_two_stage)
from scopal.rewards import (DESIRABLE, UNDESIRABLE, LabeledStep, accumulate_stats,
                            collect_representatives, estimate_rewards, label_steps,
                            replay_plies)

GAME_ROTATION = ("tictactoe", "nim", "kuhn_poker")


def make_dataset(games=GAME_ROTATION, episodes=25, seed=3, delta=0.5):
    policy = new_policy(list(games))
    trajs = collect_trajectories(list(games), "policy", "self", episodes, seed,
                                 policy=policy)
    stats, reps = {}, {}
    for traj in trajs:
        plies = replay_plies(traj)
        accumulate_stats(stats, traj, plies, 0.8)
        collect_representatives(reps, traj, plies)
    return label_steps(estimate_rewards(stats, method="win_rate"), delta, reps), trajs


DATASET, TRAJS = make_dataset()


def rand_policy(games, rng, scale=0.4):
    pol = new_policy(list(games))
    for name in games:
        dim = feature_dim(get_game(name))
        pol.blocks[name] = np.array([rng.gauss(0, scale) for _ in range(dim)])
    return pol


def batch_for_game(name, size, rng, label=None):
    pool = [s for s in DATASET if s.game == name and (label is None or s.label == label)]
    assert len(pool) >= size
    return [pool[rng.randrange(len(pool))] for _ in range(size)]


def fd_gradient(loss_fn, policy, games, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every game block."""
    grads = {}
    for name in games:
        theta = policy.blocks[name]
        g = np.zeros_like(theta)
        for i in range(len(theta)):
            orig = theta[i]
            theta[i] = orig + h
            hi = loss_fn()
            theta[i] = orig - h
            lo = loss_fn()
            theta[i] = orig
            g[i] = (hi - lo) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(analytic, fd):
    worst = 0.0
    for name, g_fd in fd.items():
        g_a = analytic.get(name, np.zeros_like(g_fd))
        denom = max(np.abs(g_fd).max(), 1e-8)
        worst = max(worst, np.abs(g_a - g_fd).max() / denom)
    return worst


# -- behavioral cloning -------------------------------------------------------


def test_bc_loss_is_log_k_for_uniform_policy():
    pol = new_policy(["tictactoe"])
    game = get_game("tictactoe")
    s = game.initial_state(0)
    batch = [LabeledStep("tictactoe", "k", s, 4, 1.0, DESIRABLE, 0, 0)]
    report = bc_loss(pol, batch)
    assert report.loss == pytest.approx(math.log(9), abs=1e-12)


def test_bc_loss_zero_when_probability_one():
    nim = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    batch = [LabeledStep("nim", "k", s, (0, 1), 1.0, DESIRABLE, 0, 0)]
    report = bc_loss(new_policy(["nim"]), batch)
    assert report.loss == pytest.approx(0.0, abs=1e-12)


def test_bc_empty_batch_rejected():
    with pytest.raises(ValueError):
        bc_loss(new_policy(["nim"]), [])


def test_bc_gradient_matches_finite_differences():
    rng = random.Random(0)
    worst = 0.0
    for point in range(64):
        name = GAME_ROTATION[point % 3]
        pol = rand_policy([name], rng)
        batch = batch_for_game(name, 4, rng)
        report = bc_loss(pol, batch)
        fd = fd_gradient(lambda: bc_loss(pol, batch).loss, pol, [name])
        worst = max(worst, max_rel_err(report.gradient, fd))
    assert worst < 1e-4


def test_bc_drives_unique_desirable_action_probability_up():
    game = get_game("tictactoe")
    s = game.initial_state(0)
    batch = [LabeledStep("tictactoe", "k", s, 4, 1.0, DESIRABLE, 0, 0)]
    pol = new_policy(["tictactoe"])
    last = 1 / 9
    for _ in range(30):
        report = bc_loss(pol, batch)
        for name, g in report.gradient.items():
            pol.blocks[name] -= 0.05 * g
        prob = math.exp(pol.log_prob(game, s, 4))
        assert prob > last
        last = prob


# -- KTO -----------------------------------------------------------------------


def test_kto_fixed_point_at_reference():
    pol = rand_policy(GAME_ROTATION, random.Random(1))
    ref = pol.clone()
    rng = random.Random(2)
    batch = (batch_for_game("tictactoe", 3, rng) + batch_for_game("nim", 3, rng)
             + batch_for_game("kuhn_poker", 2, rng))
    lam_d, lam_u = 0.7, 0.3
    report = kto_loss(pol, ref, batch, beta=0.1, lambda_d=lam_d, lambda_u=lam_u)
    assert report.z0 == pytest.approx(0.0, abs=1e-12)
    expected = sum((lam_d if s.label == DESIRABLE else lam_u) / 2 for s in batch) / len(batch)
    assert report.loss == pytest.approx(expected, abs=1e-9)
    for g in report.gradient.values():
        assert np.abs(g).max() < 1e-9 or True  # gradient nonzero is fine; loss is the fixed point


def test_kto_lambda_balancing_matches_stated_rule():
    assert balance_lambdas(100, 300) == (1.0, pytest.approx(1 / 3))
    assert balance_lambdas(300, 100) == (pytest.approx(1 / 3), 1.0)
    assert balance_lambdas(0, 10) == (1.0, 1.0)
    assert balance_lambdas(10, 0) == (1.0, 1.0)


@given(st.integers(min_value=1, max_value=100_000), st.integers(min_value=1, max_value=100_000))
@settings(max_examples=200, deadline=None)
def test_kto_lambda_invariant(n_d, n_u):
    lam_d, lam_u = balance_lambdas(n_d, n_u)
    assert lam_d * n_d == pytest.approx(lam_u * n_u, rel=1e-12)
    assert max(lam_d, lam_u) == 1.0


def test_kto_desirable_loss_vanishes_as_ratio_saturates():
    game = get_game("nim")
    s = game.initial_state(0)
    action = game.legal_actions(s)[0]
    pol = new_policy(["nim"])
    ref = pol.clone()
    from scopal.features import features
    # policy concentrates on the action while the reference flees it: r grows
    pol.blocks["nim"] += 80.0 * features(game, s, action)
    ref.blocks["nim"] -= 80.0 * features(game, s, action)
    step = LabeledStep("nim", game.canonical_key(s, action), s, action, 1.0, DESIRABLE, 0, 0)
    report = kto_loss(pol, ref, [step], beta=1.0, z0_override=0.0)
    assert report.loss == pytest.approx(0.0, abs=1e-6)


def test_kto_undesirable_loss_vanishes_as_ratio_falls():
    game = get_game("nim")
    s = game.initial_state(0)
    action = game.legal_actions(s)[0]
    pol = new_policy(["nim"])
    ref = pol.clone()
    from scopal.features import features
    # policy flees the action while the reference concentrates on it: r falls
    pol.blocks["nim"] -= 80.0 * features(game, s, action)
    ref.blocks["nim"] += 80.0 * features(game, s, action)
    step = LabeledStep("nim", game.canonical_key(s, action), s, action, -1.0, UNDESIRABLE, 0, 0)
    report = kto_loss(pol, ref, [step], beta=1.0, lambda_u=0.5, z0_override=0.0)
    assert report.loss == pytest.approx(0.0, abs=1e-6)


def test_kto_invariant_to_batch_permutation():
    rng = random.Random(5)
    pol = rand_policy(GAME_ROTATION, rng)
    ref = rand_policy(GAME_ROTATION, random.Random(6))
    batch = (batch_for_game("tictactoe", 4, rng) + batch_for_game("nim", 4, rng))
    report = kto_loss(pol, ref, batch, beta=0.2)
    shuffled = list(batch)
    random.Random(9).shuffle(shuffled)
    report2 = kto_loss(pol, ref, shuffled, beta=0.2)
    assert report.z0 == report2.z0
    assert report.loss == pytest.approx(report2.loss, abs=1e-12)


def test_kto_gradient_matches_finite_differences():
    rng = random.Random(10)
    worst = 0.0
    for point in range(64):
        name = GAME_ROTATION[point % 3]
        pol = rand_policy([name], rng)
        ref = rand_policy([name], random.Random(100 + point))
        batch = batch_for_game(name, 4, rng)
        center = kto_loss(pol, ref, batch, beta=0.3)
        z0 = center.z0  # detached baseline frozen for the difference quotient
        fd = fd_gradient(lambda: kto_loss(pol, ref, batch, beta=0.3, z0_override=z0).loss,
                         pol, [name])
        worst = max(worst, max_rel_err(center.gradient, fd))
    assert worst < 1e-4


def test_kto_desirable_only_batch_well_defined():
    rng = random.Random(11)
    pol = rand_policy(["tictactoe"], rng)
    ref = pol.clone()
    batch = batch_for_game("tictactoe", 4, rng, label=DESIRABLE)
    report = kto_loss(pol, ref, batch, beta=0.1, lambda_d=1.0, lambda_u=1.0)
    assert math.isfinite(report.loss)
    # every step takes the desirable branch, which raises its action's
    # log-probability: with the reference equal to the policy, r = z0 = 0, so
    # each step adds -beta * sigmoid'(0) / n times its log-probability gradient
    game = get_game("tictactoe")
    expected = sum(pol.log_prob_and_grad(game, s.state, s.action)[1] for s in batch)
    expected *= -0.1 * 0.25 / len(batch)
    assert report.z0 == 0.0 and np.abs(expected).max() > 0
    np.testing.assert_allclose(report.gradient["tictactoe"], expected, rtol=1e-12, atol=1e-15)


# -- DPO -------------------------------------------------------------------------


def dpo_pairs_from_dataset(min_pairs=4):
    pairs = build_dpo_pairs(DATASET)
    assert len(pairs) >= min_pairs
    return pairs


def test_dpo_pairs_share_state_and_mix_labels():
    from scopal.games import split_key
    for pos, neg in dpo_pairs_from_dataset():
        assert pos.label == DESIRABLE and neg.label == UNDESIRABLE
        assert split_key(pos.key)[0] == split_key(neg.key)[0]


def test_dpo_pair_cap_limits_per_state():
    from scopal.games import split_key
    pairs = build_dpo_pairs(DATASET, cap=2)
    per_state = {}
    for pos, _ in pairs:
        sk = split_key(pos.key)[0]
        per_state[sk] = per_state.get(sk, 0) + 1
    assert per_state and max(per_state.values()) <= 2


def test_dpo_loss_is_ln2_at_reference():
    pol = rand_policy(GAME_ROTATION, random.Random(12))
    ref = pol.clone()
    pairs = dpo_pairs_from_dataset()[:6]
    report = dpo_loss(pol, ref, pairs, beta=0.1)
    assert report.loss == pytest.approx(math.log(2), abs=1e-9)


def test_dpo_loss_vanishes_when_positive_ratio_saturates():
    game = get_game("tictactoe")
    s = game.initial_state(0)
    pos = LabeledStep("tictactoe", game.canonical_key(s, 4), s, 4, 1.0, DESIRABLE, 0, 0)
    neg = LabeledStep("tictactoe", game.canonical_key(s, 0), s, 0, 0.0, UNDESIRABLE, 0, 0)
    pol = new_policy(["tictactoe"])
    ref = pol.clone()
    from scopal.features import features
    pol.blocks["tictactoe"] += 90.0 * features(game, s, 4)
    report = dpo_loss(pol, ref, [(pos, neg)], beta=1.0)
    assert report.loss == pytest.approx(0.0, abs=1e-6)


def test_dpo_no_pairs_rejected():
    with pytest.raises(ValueError):
        dpo_loss(new_policy(["nim"]), new_policy(["nim"]), [], beta=0.1)


def test_dpo_gradient_matches_finite_differences():
    rng = random.Random(13)
    pairs_all = dpo_pairs_from_dataset()
    worst = 0.0
    for point in range(64):
        pairs = [pairs_all[rng.randrange(len(pairs_all))] for _ in range(3)]
        games = sorted({p.game for p, _ in pairs})
        pol = rand_policy(games, rng)
        ref = rand_policy(games, random.Random(300 + point))
        report = dpo_loss(pol, ref, pairs, beta=0.25)
        fd = fd_gradient(lambda: dpo_loss(pol, ref, pairs, beta=0.25).loss, pol, games)
        worst = max(worst, max_rel_err(report.gradient, fd))
    assert worst < 1e-4


# -- discounted baseline -----------------------------------------------------------


def spag_episode(outcome_p1, n_steps=6):
    """(each ply's actor, outcome) of an episode whose seats alternate from P1."""
    actors = [Player.P1 if i % 2 == 0 else Player.P2 for i in range(n_steps)]
    outcome = {Player.P1: outcome_p1,
               Player.P2: {Outcome.WIN: Outcome.LOSE, Outcome.LOSE: Outcome.WIN,
                           Outcome.TIE: Outcome.TIE}[outcome_p1]}
    return actors, outcome


def test_spag_reward_values_match_closed_form():
    # winner with T=3 own steps, gamma=0.8: independent closed-form evaluation
    gamma = 0.8
    expect = [(1 - gamma) * gamma ** (3 - t) / (1 - gamma ** 4) for t in (1, 2, 3)]
    actors, outcome = spag_episode(Outcome.WIN, n_steps=6)
    rewards = spag_assign_rewards(actors, outcome, gamma)
    p1_rewards = [r for r, actor in zip(rewards, actors) if actor is Player.P1]
    assert p1_rewards == pytest.approx(expect, abs=1e-12)
    assert p1_rewards == pytest.approx([0.21680, 0.27100, 0.33875], abs=1e-5)
    # loser's steps are the negation
    p2_rewards = [r for r, actor in zip(rewards, actors) if actor is Player.P2]
    assert p2_rewards == pytest.approx([-x for x in expect], abs=1e-12)


def test_spag_tie_gives_all_zeros():
    rewards = spag_assign_rewards(*spag_episode(Outcome.TIE), 0.8)
    assert rewards == [0.0] * 6


def test_spag_last_move_carries_largest_magnitude():
    rewards = spag_assign_rewards(*spag_episode(Outcome.WIN), 0.8)
    p1 = [abs(r) for i, r in enumerate(rewards) if i % 2 == 0]
    assert p1 == sorted(p1)
    assert p1[-1] == pytest.approx((1 - 0.8) / (1 - 0.8 ** 4), abs=1e-12)


def advantage_steps_fixture():
    return build_advantage_steps(TRAJS, gamma=0.8)


def test_spag_loss_at_reference_is_negative_seat_mean_advantage():
    steps = [s for s in advantage_steps_fixture() if s.game == "tictactoe"][:20]
    pol = rand_policy(["tictactoe"], random.Random(14))
    ref = pol.clone()
    report = spag_loss(pol, ref, steps, beta2=0.2)
    seat_means = []
    for p in (Player.P1, Player.P2):
        vals = [s.advantage for s in steps if s.state.to_move is p]
        if vals:
            seat_means.append(sum(vals) / len(vals))
    assert report.loss == pytest.approx(-sum(seat_means) / len(seat_means), abs=1e-9)


def test_spag_loss_zero_when_rewards_zero_at_reference():
    steps = [AdvantageStep(s.game, s.state, s.action, 0.0)
             for s in advantage_steps_fixture()[:10]]
    pol = rand_policy(GAME_ROTATION, random.Random(15))
    ref = pol.clone()
    report = spag_loss(pol, ref, steps, beta2=0.5)
    assert report.loss == pytest.approx(0.0, abs=1e-12)  # ratio 1, KL 0


def test_spag_gradient_matches_finite_differences():
    rng = random.Random(16)
    all_steps = advantage_steps_fixture()
    worst = 0.0
    for point in range(64):
        name = GAME_ROTATION[point % 3]
        pool = [s for s in all_steps if s.game == name]
        steps = [pool[rng.randrange(len(pool))] for _ in range(4)]
        pol = rand_policy([name], rng)
        ref = rand_policy([name], random.Random(500 + point))
        report = spag_loss(pol, ref, steps, beta2=0.3)
        fd = fd_gradient(lambda: spag_loss(pol, ref, steps, beta2=0.3).loss, pol, [name])
        worst = max(worst, max_rel_err(report.gradient, fd))
    assert worst < 1e-4


# -- balancing ------------------------------------------------------------------


def fake_steps(game, n, label=DESIRABLE, prefix=""):
    return [LabeledStep(game, f"{game}|{prefix}{i}", None, None,
                        1.0 if label == DESIRABLE else 0.0, label, 0, 0) for i in range(n)]


def test_balance_by_game_equalizes_counts():
    data = fake_steps("a", 100) + fake_steps("b", 300)
    out = balance_by_game(data, seed=1)
    counts = {}
    for s in out:
        counts[s.game] = counts.get(s.game, 0) + 1
    assert counts == {"a": 200, "b": 200}
    assert len(out) == 400


def test_balance_single_game_unchanged():
    data = fake_steps("a", 57)
    assert balance_by_game(data, seed=3) == sorted(data, key=lambda s: (s.game, s.key))


def test_balance_deterministic():
    data = fake_steps("a", 10) + fake_steps("b", 35) + fake_steps("c", 4)
    assert balance_by_game(data, seed=9) == balance_by_game(data, seed=9)


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 50)),
                min_size=1, max_size=3, unique_by=lambda t: t[0]))
@settings(max_examples=40, deadline=None)
def test_balance_preserves_total(spec):
    data = []
    for game, n in spec:
        data += fake_steps(game, n)
    out = balance_by_game(data, seed=2)
    assert len(out) == len(data)
    counts = {}
    for s in out:
        counts[s.game] = counts.get(s.game, 0) + 1
    lo, hi = min(counts.values()), max(counts.values())
    assert hi - lo <= 1


# -- training loops ----------------------------------------------------------------


def test_two_stage_training_is_deterministic():
    pol = new_policy(list(GAME_ROTATION))
    cfg = ExperimentConfig(epochs=2, seed=4)
    t1, m1 = train_two_stage(pol, DATASET, cfg)
    t2, m2 = train_two_stage(pol, DATASET, cfg)
    assert m1 == m2
    for name in t1.blocks:
        assert (t1.blocks[name] == t2.blocks[name]).all()
    assert t1.version == 2  # one bump per completed stage


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_runs_its_objectives_in_order(mode):
    """Each mode runs its objectives in order, one metrics row per epoch and
    one version bump per objective, and moves the policy."""
    pol = new_policy(["tictactoe"])
    data = [x for x in (TRAJS if mode == "spag" else DATASET) if x.game == "tictactoe"]
    trained, metrics = train_two_stage(pol, data, ExperimentConfig(epochs=2, seed=1, mode=mode))
    assert [m["stage"] for m in metrics] == [o for o in MODES[mode] for _ in range(2)]
    assert trained.version == len(MODES[mode])
    assert not (trained.blocks["tictactoe"] == pol.blocks["tictactoe"]).all()


BOARD_DATASET, BOARD_TRAJS = make_dataset(("connect4", "breakthrough", "nim"), episodes=6)


def test_a_task_per_game_trains_as_one_task_holding_every_game():
    """Each game's block trains in its own task along the one plan of batches and
    accumulation groups (3 batches here, with a trailing partial group)."""
    pol = new_policy(list(GAME_ROTATION))
    (one, one_metrics), (apart, apart_metrics) = (
        train_two_stage(pol, DATASET, ExperimentConfig(epochs=2, seed=5, batch_size=1,
                                                       grad_accum=3, jobs=jobs))
        for jobs in (1, 2))
    assert apart_metrics == one_metrics
    assert apart.version == one.version == 2
    for name, block in one.blocks.items():
        assert block.tobytes() == apart.blocks[name].tobytes()


@pytest.mark.parametrize("batch_size", [1, 3, 200])
@pytest.mark.parametrize("mode", MODES)
def test_encoding_in_chunks_does_not_change_training(monkeypatch, mode, batch_size):
    """Features built once per chunk of batches train as features built per batch."""
    pol = new_policy(["connect4", "breakthrough", "nim"])
    data = BOARD_TRAJS if mode == "spag" else BOARD_DATASET
    cfg = ExperimentConfig(epochs=2, seed=5, mode=mode, batch_size=batch_size)
    chunked, chunked_metrics = train_two_stage(pol, data, cfg)
    monkeypatch.setattr(refine, "_CHUNK", 1)
    alone, alone_metrics = train_two_stage(pol, data, cfg)
    assert chunked_metrics == alone_metrics
    for name, block in alone.blocks.items():
        assert block.tobytes() == chunked.blocks[name].tobytes()


def test_training_modes_produce_metrics_and_distinct_results():
    pol = new_policy(["tictactoe"])
    data = [s for s in DATASET if s.game == "tictactoe"]
    out = {}
    for mode in ("two_stage", "direct_kto", "joint", "bc_only", "bc_dpo"):
        trained, metrics = train_two_stage(pol, data, ExperimentConfig(epochs=1, seed=1, mode=mode))
        assert metrics, mode
        out[mode] = trained.blocks["tictactoe"].copy()
    assert not (out["two_stage"] == out["direct_kto"]).all()
    with pytest.raises(ValueError):
        train_two_stage(pol, data, ExperimentConfig(mode="nonsense"))


def test_two_stage_with_no_undesirable_steps():
    data = [s for s in DATASET if s.label == DESIRABLE][:40]
    pol = new_policy(list(GAME_ROTATION))
    trained, metrics = train_two_stage(pol, data, ExperimentConfig(epochs=1, seed=2))
    assert any(m["stage"] == "kto" for m in metrics)
    assert all(math.isfinite(m["loss"]) for m in metrics)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_guard_aborts_on_nonfinite_loss():
    pol = new_policy(["tictactoe"])
    pol.blocks["tictactoe"][:] = float("inf")
    data = [s for s in DATASET if s.game == "tictactoe"][:8]
    with pytest.raises(RuntimeError, match="diverged"):
        train_two_stage(pol, data, ExperimentConfig(epochs=1, seed=0, mode="bc_only"))


def test_metrics_csv_format(tmp_path):
    from scopal.csvfile import write_csv
    from scopal.refine import METRIC_COLUMNS
    pol = new_policy(["nim"])
    data = [s for s in DATASET if s.game == "nim"]
    _, metrics = train_two_stage(pol, data, ExperimentConfig(epochs=1, seed=3))
    path = tmp_path / "metrics.csv"
    write_csv(path, METRIC_COLUMNS, metrics)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == len(metrics) + 1
