"""Distribution semantics, gradients vs finite differences, sampling,
and checkpoint round-trips."""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopal.features import feature_dim
from scopal.games import Player, get_game
from scopal.games.nim import NimState
from scopal.policy import Policy, new_policy

GAMES = ("tictactoe", "connect4", "breakthrough", "nim", "kuhn_poker", "liars_dice")


def random_nonterminal(game, rng):
    while True:
        s = game.initial_state(rng.randrange(10_000))
        depth = rng.randrange(game.max_moves)
        for _ in range(depth):
            acts = game.legal_actions(s)
            if not acts:
                break
            s = game.apply(s, acts[rng.randrange(len(acts))])
        if game.legal_actions(s):
            return s


def distribution(policy, game, state, temperature):
    """(legal actions, probabilities) of one state."""
    return policy.action_distributions(game, (state,), temperature)[0]


def randomized_policy(game_names, rng, scale=0.5):
    pol = new_policy(game_names)
    for name in game_names:
        dim = feature_dim(get_game(name))
        pol.blocks[name] = np.array([rng.gauss(0, scale) for _ in range(dim)])
    return pol


def fd_log_prob(policy, game, state, action, h=1e-5):
    """Central-difference gradient of log pi(action|state) in the game block."""
    theta = policy.blocks[game.name]
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        orig = theta[i]
        theta[i] = orig + h
        hi = policy.log_prob(game, state, action)
        theta[i] = orig - h
        lo = policy.log_prob(game, state, action)
        theta[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    return grad


def test_zero_parameters_give_uniform_distribution():
    for name in GAMES:
        game = get_game(name)
        pol = new_policy([name])
        s = game.initial_state(3)
        acts, probs = distribution(pol, game, s, 0.7)
        assert probs == pytest.approx([1 / len(acts)] * len(acts), abs=1e-12)


def test_probabilities_sum_to_one_and_are_positive():
    rng = random.Random(0)
    for name in GAMES:
        game = get_game(name)
        pol = randomized_policy([name], rng)
        for _ in range(20):
            s = random_nonterminal(game, rng)
            _, probs = distribution(pol, game, s, 0.7)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (probs > 0).all()


def test_low_temperature_concentrates_on_argmax():
    game = get_game("tictactoe")
    rng = random.Random(1)
    pol = randomized_policy(["tictactoe"], rng)
    s = game.initial_state(0)
    acts, hot = distribution(pol, game, s, 1.0)
    _, cold = distribution(pol, game, s, 1e-3)
    assert np.argmax(hot) == np.argmax(cold)
    assert cold.max() > 0.999


def test_temperature_never_changes_the_argmax():
    rng = random.Random(2)
    game = get_game("connect4")
    pol = randomized_policy(["connect4"], rng)
    s = random_nonterminal(game, rng)
    argmaxes = set()
    for tau in (0.05, 0.2, 0.7, 1.0, 5.0):
        _, probs = distribution(pol, game, s, tau)
        argmaxes.add(int(np.argmax(probs)))
    assert len(argmaxes) == 1


def test_logit_shift_invariance_via_bias_feature():
    # board games carry a constant bias feature: shifting its weight shifts
    # every legal action's logit equally and must not move the distribution
    rng = random.Random(3)
    for name in ("tictactoe", "connect4", "breakthrough", "nim"):
        game = get_game(name)
        pol = randomized_policy([name], rng)
        s = random_nonterminal(game, rng)
        _, before = distribution(pol, game, s, 0.7)
        shifted = pol.clone()
        shifted.blocks[name][-1] += 3.25
        _, after = distribution(shifted, game, s, 0.7)
        assert before == pytest.approx(after, abs=1e-9)


def test_non_positive_temperature_rejected():
    game = get_game("tictactoe")
    pol = new_policy(["tictactoe"])
    with pytest.raises(ValueError):
        distribution(pol, game, game.initial_state(0), 0.0)
    with pytest.raises(ValueError):
        pol.sample_action(game, game.initial_state(0), -0.1, random.Random(0))


def test_uniform_log_prob_is_log_one_over_k():
    game = get_game("tictactoe")
    pol = new_policy(["tictactoe"])
    s = game.initial_state(0)
    logp, _ = pol.log_prob_and_grad(game, s, 4)
    assert logp == pytest.approx(math.log(1 / 9), abs=1e-12)


def test_log_prob_rejects_illegal_action():
    game = get_game("tictactoe")
    pol = new_policy(["tictactoe"])
    s = game.apply(game.initial_state(0), 4)
    with pytest.raises(ValueError, match="illegal"):
        pol.log_prob_and_grad(game, s, 4)


def test_gradient_matches_finite_differences_at_64_points():
    rng = random.Random(42)
    worst = 0.0
    for point in range(64):
        name = ("tictactoe", "nim", "kuhn_poker")[point % 3]
        game = get_game(name)
        pol = randomized_policy([name], rng)
        s = random_nonterminal(game, rng)
        acts = game.legal_actions(s)
        a = acts[rng.randrange(len(acts))]
        _, grad = pol.log_prob_and_grad(game, s, a)
        fd = fd_log_prob(pol, game, s, a)
        denom = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, np.abs(grad - fd).max() / denom)
    assert worst < 1e-4


def test_score_function_identity():
    # sum_a pi(a|s) grad log pi(a|s) == 0
    rng = random.Random(7)
    for name in GAMES:
        game = get_game(name)
        pol = randomized_policy([name], rng)
        s = random_nonterminal(game, rng)
        acts, probs = distribution(pol, game, s, 1.0)
        total = np.zeros(feature_dim(game))
        for a, p in zip(acts, probs):
            _, g = pol.log_prob_and_grad(game, s, a)
            total += p * g
        assert np.abs(total).max() < 1e-8


def test_sample_single_legal_action():
    game = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    pol = new_policy(["nim"])
    assert pol.sample_action(game, s, 0.7, random.Random(0)) == (0, 1)


def test_sampling_near_uniform_for_zero_parameters():
    game = get_game("tictactoe")
    pol = new_policy(["tictactoe"])
    s = game.initial_state(0)
    counts = [0] * 9
    for seed in range(9000):
        counts[pol.sample_action(game, s, 0.7, random.Random(seed))] += 1
    for n in counts:
        assert 900 <= n <= 1100


def test_sampling_deterministic_given_seed():
    game = get_game("connect4")
    rng_state = random.Random(5)
    pol = randomized_policy(["connect4"], rng_state)
    s = game.initial_state(0)
    a1 = pol.sample_action(game, s, 0.7, random.Random(99))
    a2 = pol.sample_action(game, s, 0.7, random.Random(99))
    assert a1 == a2


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    rng = random.Random(12)
    pol = randomized_policy(list(GAMES), rng)
    pol.version = 3
    path = tmp_path / "policy.json"
    pol.save(path)
    loaded = Policy.load(path)
    assert loaded.version == 3
    for name in GAMES:
        game = get_game(name)
        s = random_nonterminal(game, rng)
        _, p1 = distribution(pol, game, s, 0.2)
        _, p2 = distribution(loaded, game, s, 0.2)
        assert (p1 == p2).all()  # bit-identical, not approximately equal
    # a second save produces identical bytes
    path2 = tmp_path / "policy2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_a_checkpoint_block_of_the_wrong_width_is_refused(tmp_path):
    path = tmp_path / "policy.json"
    Policy({"nim": np.zeros(10)}).save(path)
    with pytest.raises(ValueError) as err:
        Policy.load(path)
    message = str(err.value)
    assert str(path) in message and "'nim'" in message
    assert f"width 10, not {feature_dim(get_game('nim'))}" in message


def test_a_checkpoint_block_for_an_unknown_game_is_refused(tmp_path):
    path = tmp_path / "policy.json"
    Policy({"chess": np.zeros(10)}).save(path)
    with pytest.raises(ValueError) as err:
        Policy.load(path)
    assert str(path) in str(err.value) and "'chess'" in str(err.value)


def _checkpoint(**fields) -> str:
    """Checkpoint text with the right format tag; NaN and Infinity dump as JSON extensions."""
    return json.dumps({"format": "scopal-policy-v1", **fields})


NIM_ZEROS = [0.0] * feature_dim(get_game("nim"))


@pytest.mark.parametrize("text, message", [
    (_checkpoint(), "no integer version"),
    (_checkpoint(version=0), "blocks must map"),
    (_checkpoint(blocks={"nim": NIM_ZEROS}), "no integer version"),
    (_checkpoint(version="0", blocks={"nim": NIM_ZEROS}), "no integer version"),
    (_checkpoint(version=0, blocks=[0.0]), "blocks must map"),
    (_checkpoint(version=0, blocks={"nim": "0"}), "blocks must map"),
    (_checkpoint(version=0, blocks={"nim": ["0"] * len(NIM_ZEROS)}), "blocks must map"),
    (_checkpoint(version=0, blocks={"nim": [[0.0]] * len(NIM_ZEROS)}), "blocks must map"),
    (_checkpoint(version=0, blocks={"nim": [math.nan] + NIM_ZEROS[1:]}), "not finite"),
    (_checkpoint(version=0, blocks={"nim": NIM_ZEROS[1:] + [-math.inf]}), "not finite"),
    (_checkpoint(version=0, blocks={"nim": [10 ** 400] + NIM_ZEROS[1:]}), "not finite"),
    ('["scopal-policy-v1"]', "unsupported checkpoint format"),
    (_checkpoint(version=0)[:-1] + ', "blocks": {', "not a JSON checkpoint"),
], ids=["bare", "no-blocks", "no-version", "string-version", "blocks-list", "block-string",
        "string-entries", "nested-entries", "nan", "infinity", "huge-int", "not-an-object", "not-json"])
def test_a_malformed_checkpoint_is_refused_naming_the_file(tmp_path, text, message):
    path = tmp_path / "policy.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        Policy.load(path)
    assert str(path) in str(err.value) and message in str(err.value)


@given(st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_distribution_valid_at_any_temperature(tau):
    game = get_game("kuhn_poker")
    pol = randomized_policy(["kuhn_poker"], random.Random(8))
    s = game.initial_state(1)
    _, probs = distribution(pol, game, s, tau)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs > 0).all()


@pytest.mark.parametrize("name", GAMES)
def test_sample_actions_picks_and_draws_as_sample_action(name):
    """Over states of both seats and many plies, each pick and each rng's state
    after it equal those of `sample_action` on that state alone."""
    game = get_game(name)
    pol = randomized_policy([name], random.Random(3))
    rng = random.Random(11)
    states = [random_nonterminal(game, rng) for _ in range(12)]
    batch_rngs = [random.Random(seed) for seed in range(len(states))]
    alone_rngs = [random.Random(seed) for seed in range(len(states))]
    picks = pol.sample_actions(game, states, 0.7, batch_rngs)
    assert picks == [pol.sample_action(game, s, 0.7, r) for s, r in zip(states, alone_rngs)]
    assert [r.getstate() for r in batch_rngs] == [r.getstate() for r in alone_rngs]


def test_sample_actions_refuses_a_terminal_state_or_a_temperature_at_most_0():
    game = get_game("tictactoe")
    pol = new_policy(["tictactoe"])
    s = game.initial_state(0)
    for action in (0, 3, 1, 4, 2):
        s = game.apply(s, action)
    states = [game.initial_state(0), s]
    with pytest.raises(ValueError, match="terminal"):
        pol.sample_actions(game, states, 0.7, [random.Random(0), random.Random(1)])
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature must be positive"):
            pol.sample_actions(game, states[:1], tau, [random.Random(0)])
