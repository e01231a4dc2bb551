"""Feature encoders: the matrix encoder agrees with the per-action one, both
reproduce checksums recorded from the per-action loop encoders, and each
Stage III loss builds one feature matrix per step."""
import hashlib
import random

import numpy as np
import pytest

from scopal import features as features_module
from scopal import games as games_module
from scopal import policy as policy_module
from scopal import refine
from scopal.features import feature_dim, feature_matrix, features
from scopal.games import GAME_NAMES, get_game
from scopal.interaction import collect_trajectories
from scopal.policy import new_policy
from scopal.refine import build_advantage_steps, build_dpo_pairs, dpo_loss, kto_loss, spag_loss
from scopal.rewards import (accumulate_stats, collect_representatives, estimate_rewards,
                            label_steps)

# breakthrough_6x6 is the board of the spag_vs_uct benchmark workload
NAMES = GAME_NAMES + ("breakthrough_6x6",)

# First 16 hex digits of the sha256 of the little-endian float64 bytes of
# every (n_legal x d) matrix along `playout_states(name)`, recorded by
# stacking the rows of the per-action Python-loop encoders that preceded the
# vectorized Connect Four and Breakthrough encoders.
GOLDEN = {
    "tictactoe": "ffb317567485dbfc",
    "connect4": "02ed86fdd4622433",
    "breakthrough": "b59c487e61805c99",
    "kuhn_poker": "cd7448a689517d21",
    "liars_dice": "9b199c373064b09b",
    "nim": "f78461aca1499e34",
    "breakthrough_6x6": "91b82ae416c44bf0",
}


def playout_states(name, seed=0, playouts=10):
    """(game, state, legal actions) at every non-terminal state of seeded random playouts."""
    game = get_game(name)
    rng = random.Random(seed)
    for _ in range(playouts):
        state = game.initial_state(rng.randrange(10**6))
        acts = game.legal_actions(state)
        while acts:
            yield game, state, acts
            state = game.apply(state, acts[rng.randrange(len(acts))])
            acts = game.legal_actions(state)


@pytest.mark.parametrize("name", NAMES)
def test_matrix_rows_are_the_per_action_features(name):
    for game, state, acts in playout_states(name):
        matrix = feature_matrix(game, state, acts)
        assert matrix.shape == (len(acts), feature_dim(game))
        for row, action in zip(matrix, acts):
            assert np.array_equal(row, features(game, state, action))


@pytest.mark.parametrize("name", NAMES)
def test_matrices_match_the_recorded_checksums(name):
    digest = hashlib.sha256()
    for game, state, acts in playout_states(name):
        digest.update(feature_matrix(game, state, acts).astype("<f8").tobytes())
    assert digest.hexdigest()[:16] == GOLDEN[name]


# Feature width of every registered game. Checkpoints store one block of this
# width per game, so a changed width breaks every saved policy.
WIDTHS = {
    "tictactoe": 22,
    "connect4": 90,
    "nim": 24,
    "kuhn_poker": 24,
    "liars_dice": 1014,
    **{name: 2 * cols * rows + 7 for name, cols, rows in (
        ("breakthrough", 3, 8), ("breakthrough_6x6", 6, 6),
        ("breakthrough_7x7", 7, 7), ("breakthrough_8x8", 8, 8))},
}


@pytest.mark.parametrize("name", sorted(games_module._FACTORIES))
def test_each_game_has_its_recorded_feature_width(name):
    game = get_game(name)
    assert feature_dim(game) == WIDTHS[name]
    state = game.initial_state(0)
    assert feature_matrix(game, state, game.legal_actions(state)).shape[1] == WIDTHS[name]
    assert new_policy([name]).block(game).shape == (WIDTHS[name],)


# -- one matrix per step visit --------------------------------------------------

BOARDS = ["connect4", "breakthrough"]


@pytest.fixture(scope="module")
def board_steps():
    """(labeled steps, advantage steps) from self-play on the vectorized boards."""
    trajs = collect_trajectories(BOARDS, "policy", "self", 8, 5, policy=new_policy(BOARDS))
    labeled = label_steps(estimate_rewards(accumulate_stats(trajs, 0.8), method="win_rate"),
                          0.5, collect_representatives(trajs))
    return labeled, build_advantage_steps(trajs)


@pytest.fixture
def matrix_calls(monkeypatch):
    """Names of the games whose feature matrices are built while the test runs."""
    calls = []

    def counting(game, state, acts):
        calls.append(game.name)
        return feature_matrix(game, state, acts)

    for module in (features_module, policy_module, refine):
        if hasattr(module, "feature_matrix"):
            monkeypatch.setattr(module, "feature_matrix", counting)
    return calls


@pytest.mark.parametrize("loss", ["kto", "dpo", "spag"])
def test_each_loss_builds_one_matrix_per_step(board_steps, matrix_calls, loss):
    labeled, advantage = board_steps
    policy = new_policy(BOARDS)
    reference = policy.clone()
    if loss == "kto":
        batch = labeled[::len(labeled) // 8][:8]
        kto_loss(policy, reference, batch, beta=0.1)
        steps = len(batch)
    elif loss == "dpo":
        all_pairs = build_dpo_pairs(labeled)
        pairs = [p for p in all_pairs if p[0].game == "connect4"][:2]
        pairs += [p for p in all_pairs if p[0].game == "breakthrough"][:2]
        assert len(pairs) == 4
        dpo_loss(policy, reference, pairs, beta=0.1)
        steps = 2 * len(pairs)
    else:
        batch = advantage[::len(advantage) // 8][:8]
        spag_loss(policy, reference, batch, beta2=0.2)
        steps = len(batch)
    assert set(matrix_calls) == set(BOARDS)
    assert len(matrix_calls) <= steps
