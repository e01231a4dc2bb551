"""Feature encoders: `encode` pairs each state with its legal actions and rows
that agree with the per-action encoder, both reproduce checksums recorded from
the per-action loop encoders, many states encode as each state alone, and each
Stage III loss encodes its one-game batch in one call."""
import hashlib
import random

import numpy as np
import pytest

from scopal import games as games_module
from scopal import policy as policy_module
from scopal import refine
from scopal.features import encode, feature_dim, features
from scopal.games import GAME_NAMES, Player, get_game
from scopal.interaction import collect_trajectories
from scopal.policy import new_policy
from scopal.refine import (bc_loss, build_advantage_steps, build_dpo_pairs, dpo_loss, kto_loss,
                           spag_loss)
from scopal.rewards import (accumulate_stats, collect_representatives, estimate_rewards,
                            label_steps, replay_plies)

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
        ((legal, matrix),) = encode(game, (state,))
        assert legal == acts and matrix.shape == (len(acts), feature_dim(game))
        for row, action in zip(matrix, acts):
            assert np.array_equal(row, features(game, state, action))


@pytest.mark.parametrize("name", NAMES)
def test_matrices_match_the_recorded_checksums(name):
    digest = hashlib.sha256()
    for game, state, acts in playout_states(name):
        ((legal, matrix),) = encode(game, (state,))
        assert legal == acts
        digest.update(matrix.astype("<f8").tobytes())
    assert digest.hexdigest()[:16] == GOLDEN[name]


def terminal_state(game, seed=0):
    rng = random.Random(seed)
    state = game.initial_state(rng.randrange(10**6))
    while acts := game.legal_actions(state):
        state = game.apply(state, acts[rng.randrange(len(acts))])
    return state


@pytest.mark.parametrize("name", sorted(games_module._FACTORIES))
def test_many_states_encode_as_each_state_alone(name):
    """One call over both seats' states, with a terminal state in the middle."""
    game = get_game(name)
    states = [state for _, state, _ in playout_states(name, playouts=2)]
    states.insert(len(states) // 2, terminal_state(game))
    assert {state.to_move for state in states} == set(Player)
    encoded = encode(game, states)
    assert len(encoded) == len(states)
    for state, (acts, matrix) in zip(states, encoded):
        assert acts == game.legal_actions(state)
        assert matrix.shape == (len(acts), feature_dim(game))
        ((alone_acts, alone),) = encode(game, (state,))
        assert acts == alone_acts and matrix.tobytes() == alone.tobytes()


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
    assert encode(game, (state,))[0][1].shape[1] == WIDTHS[name]
    assert new_policy([name]).block(game).shape == (WIDTHS[name],)


# -- one matrix per step visit --------------------------------------------------

BOARDS = ["connect4", "breakthrough"]


@pytest.fixture(scope="module")
def board_steps():
    """(labeled steps, advantage steps) from self-play on the vectorized boards."""
    trajs = collect_trajectories(BOARDS, "policy", "self", 8, 5, policy=new_policy(BOARDS))
    stats, reps = {}, {}
    for traj in trajs:
        plies = replay_plies(traj)
        accumulate_stats(stats, traj, plies, 0.8)
        collect_representatives(reps, traj, plies)
    labeled = label_steps(estimate_rewards(stats, method="win_rate"), 0.5, reps)
    return labeled, build_advantage_steps(trajs)


@pytest.fixture
def matrix_calls(monkeypatch):
    """(game name, number of states) of each `encode` call while the test runs."""
    calls = []

    def counting(game, states):
        calls.append((game.name, len(states)))
        return encode(game, states)

    # Policy and refine, its callers, reach it by the names they import
    for module in (policy_module, refine):
        monkeypatch.setattr(module, "encode", counting)
    return calls


@pytest.mark.parametrize("loss", ["bc", "kto", "dpo", "spag"])
def test_each_loss_builds_one_matrix_per_step(board_steps, matrix_calls, loss):
    """A loss call encodes its one-game batch in one call, at most one state per step."""
    labeled, advantage = board_steps
    policy = new_policy(BOARDS)
    reference = policy.clone()
    for name in BOARDS:
        matrix_calls.clear()
        if loss == "bc":
            batch = [s for s in labeled if s.game == name][:8]
            bc_loss(policy, batch)
        elif loss == "kto":
            batch = [s for s in labeled if s.game == name][::5][:8]
            kto_loss(policy, reference, batch, beta=0.1)
        elif loss == "dpo":
            batch = [p for p in build_dpo_pairs(labeled) if p[0].game == name][:4]
            assert len(batch) == 4
            dpo_loss(policy, reference, batch, beta=0.1)
        else:
            batch = [s for s in advantage if s.game == name][::5][:8]
            spag_loss(policy, reference, batch, beta2=0.2)
        steps = len(batch) * (2 if loss == "dpo" else 1)
        assert len(matrix_calls) == 1 and matrix_calls[0][0] == name
        assert 0 < matrix_calls[0][1] <= steps
