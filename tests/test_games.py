"""Rules-level tests for the six games: construction, legality, outcomes,
canonical keys, and the exhaustive-search oracles."""
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopal.games import (GAME_NAMES, Game, IllegalActionError, Outcome, Player,
                          UnknownGameError, get_game, split_key, tie_outcome, win_for)
from scopal.games.base import draw_below
from scopal.games.breakthrough import BtState
from scopal.games.connect_four import C4State
from scopal.games.kuhn_poker import KuhnState
from scopal.games.liars_dice import LdState
from scopal.games.nim import NimState
from scopal.games.tictactoe import TttState

ALL_GAMES = [get_game(n) for n in GAME_NAMES]


def random_state(game, rng, max_depth=None):
    """A state reached by a uniformly random prefix of a random playout."""
    s = game.initial_state(rng.randrange(10_000))
    depth = rng.randrange(max_depth if max_depth is not None else game.max_moves)
    for _ in range(depth):
        acts = game.legal_actions(s)
        if not acts:
            break
        s = game.apply(s, acts[rng.randrange(len(acts))])
    return s


# -- new_game ---------------------------------------------------------------


def test_tictactoe_initial_state():
    g = get_game("tictactoe")
    s = g.initial_state(123)
    assert s.cells == (0,) * 9
    assert s.to_move is Player.P1


def test_nim_initial_piles():
    s = get_game("nim").initial_state(99)
    assert s.piles == (1, 3, 5, 7)
    assert s.to_move is Player.P1


def test_kuhn_deal_is_two_distinct_cards():
    g = get_game("kuhn_poker")
    for seed in range(50):
        s = g.initial_state(seed)
        assert len(set(s.cards)) == 2
        assert all(c in (0, 1, 2) for c in s.cards)
    # deal fully determined by the seed
    assert g.initial_state(7).cards == g.initial_state(7).cards


def test_unknown_game_identifier():
    with pytest.raises(UnknownGameError):
        get_game("chess")


# -- legal_actions ----------------------------------------------------------


def test_ttt_empty_board_has_nine_actions():
    g = get_game("tictactoe")
    assert len(g.legal_actions(g.initial_state(0))) == 9


def test_nim_single_match_single_action():
    g = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    assert g.legal_actions(s) == ((0, 1),)


def test_connect4_full_column_excluded():
    g = get_game("connect4")
    s = g.initial_state(0)
    for _ in range(3):  # six discs into column index 2
        s = g.apply(s, 2)
        s = g.apply(s, 2)
    acts = g.legal_actions(s)
    assert len(acts) == 6 and 2 not in acts


# -- apply ------------------------------------------------------------------


def test_ttt_apply_marks_cell_and_flips_mover():
    g = get_game("tictactoe")
    s = g.initial_state(0)
    nxt = g.apply(s, g.parse_action("C1R2"))
    assert nxt.cells[3] == 1
    assert nxt.to_move is Player.P2
    assert s.cells == (0,) * 9  # value semantics: input unchanged


def test_nim_take_whole_pile():
    g = get_game("nim")
    nxt = g.apply(g.initial_state(0), (3, 7))
    assert nxt.piles == (1, 3, 5, 0)


def test_kuhn_pass_pass_is_showdown():
    g = get_game("kuhn_poker")
    s = g.apply(g.apply(g.initial_state(3), "P"), "P")
    assert g.legal_actions(s) == ()
    out = g.outcome(s)
    winner = Player.P1 if s.cards[0] > s.cards[1] else Player.P2
    assert out[winner] is Outcome.WIN


def test_illegal_actions_raise_with_rule_diagnostics():
    ttt = get_game("tictactoe")
    occupied = ttt.apply(ttt.initial_state(0), 4)
    with pytest.raises(IllegalActionError, match="already marked"):
        ttt.apply(occupied, 4)
    nim = get_game("nim")
    with pytest.raises(IllegalActionError, match="match"):
        nim.apply(nim.initial_state(0), (0, 5))
    ld = get_game("liars_dice")
    with pytest.raises(IllegalActionError, match="challenge before any bid"):
        ld.apply(ld.initial_state(0), ("challenge",))
    bid = ld.apply(ld.initial_state(0), (2, 5))
    with pytest.raises(IllegalActionError, match="raise"):
        ld.apply(bid, (1, 3))


# -- terminal_outcome --------------------------------------------------------


def test_ttt_row_of_three_wins():
    g = get_game("tictactoe")
    s = g.initial_state(0)
    for a in (0, 3, 1, 4, 2):  # P1 takes the top row
        s = g.apply(s, a)
    out = g.outcome(s)
    assert out[Player.P1] is Outcome.WIN and out[Player.P2] is Outcome.LOSE


def test_nim_taking_last_match_loses():
    g = get_game("nim")
    s = NimState((1, 0, 0, 0), Player.P1)
    final = g.apply(s, (0, 1))
    out = g.outcome(final)
    assert out[Player.P1] is Outcome.LOSE and out[Player.P2] is Outcome.WIN


def test_ttt_full_board_no_line_is_tie():
    g = get_game("tictactoe")
    s = g.initial_state(0)
    for a in (0, 1, 2, 4, 3, 5, 7, 6, 8):
        s = g.apply(s, a)
    out = g.outcome(s)
    assert out[Player.P1] is Outcome.TIE and out[Player.P2] is Outcome.TIE


def test_connect4_full_board_no_line_is_tie():
    g = get_game("connect4")
    # 42 discs, top row first, x for P1: no four in a row for either seat
    rows = ("ooxxoox", "oxxoxoo", "ooxoxox", "xxoxxxo", "oxxxoxo", "oooxxox")
    p1, p2 = (sum(1 << (c * 7 + 5 - r) for r, row in enumerate(rows)
                  for c, mark in enumerate(row) if mark == disc) for disc in "xo")
    s = C4State(p1, p2, Player.P1)
    assert g.legal_actions(s) == ()
    out = g.outcome(s)
    assert out[Player.P1] is Outcome.TIE and out[Player.P2] is Outcome.TIE


def test_liars_dice_exact_bid_defeats_challenger():
    g = get_game("liars_dice")
    s = LdState((5, 5), (), False, Player.P1)
    s = g.apply(s, (2, 5))  # exactly two fives on the table
    s = g.apply(s, ("challenge",))
    out = g.outcome(s)
    assert out[Player.P1] is Outcome.WIN  # bidder wins on an exact bid
    # overbid loses
    s2 = LdState((5, 3), (), False, Player.P1)
    s2 = g.apply(s2, (2, 5))
    s2 = g.apply(s2, ("challenge",))
    assert g.outcome(s2)[Player.P1] is Outcome.LOSE


BREAKTHROUGHS = ["breakthrough", "breakthrough_6x6", "breakthrough_7x7", "breakthrough_8x8"]


def _reference_breakthrough_moves(game, state):
    """Breakthrough's legal moves by a plain scan of every cell, in canonical order."""
    board, cols, rows = game.observation(state, Player.P1)[2], game.cols, game.rows
    if (1 in board[(rows - 1) * cols:] or 2 in board[:cols]
            or 1 not in board or 2 not in board):
        return ()
    own = 1 if state.to_move is Player.P1 else 2
    moves = []
    for idx, v in enumerate(board):
        r, c = divmod(idx, cols)
        nr = r + 1 if own == 1 else r - 1
        if v != own or not 0 <= nr < rows:
            continue
        for nc in (c - 1, c, c + 1):
            if 0 <= nc < cols:
                target = board[nr * cols + nc]
                if (target == 0) if nc == c else (target != own):
                    moves.append((idx, nr * cols + nc))
    return tuple(moves)


def _random_breakthrough_states(game, rng, count):
    """Played states, then boards with random pieces on every square, some terminal."""
    states = [random_state(game, rng) for _ in range(count)]
    for _ in range(count):
        board = [rng.choice((0, 0, 1, 2)) for _ in range(game.cols * game.rows)]
        to_move = rng.choice((Player.P1, Player.P2))
        states.append(BtState(game.bits("".join(map(str, board))), to_move))
    return states


@pytest.mark.parametrize("name", BREAKTHROUGHS)
def test_breakthrough_legal_actions_match_a_per_cell_scan(name):
    game = get_game(name)
    rng = random.Random(31)
    terminal = edge_captures = 0
    for s in _random_breakthrough_states(game, rng, 300):
        expected = _reference_breakthrough_moves(game, s)
        assert game.legal_actions(s) == expected
        terminal += game.outcome(s) is not None
        board = game.observation(s, Player.P1)[2]
        edge_captures += sum(frm % game.cols in (0, game.cols - 1) and board[to] != 0
                             for frm, to in expected)
    assert terminal > 0 and edge_captures > 0


@pytest.mark.parametrize("name", BREAKTHROUGHS)
def test_breakthrough_apply_accepts_exactly_the_legal_actions(name):
    game = get_game(name)
    rng = random.Random(37)
    n = game.cols * game.rows
    checked = 0
    for s in _random_breakthrough_states(game, rng, 10):
        if game.outcome(s) is not None:
            continue
        checked += 1
        legal = set(game.legal_actions(s))
        for action in ((frm, to) for frm in range(n) for to in range(n)):
            if action in legal:
                game.apply(s, action)
            else:
                with pytest.raises(IllegalActionError):
                    game.apply(s, action)
    assert checked > 0


@pytest.mark.parametrize("action, message", [
    ((0, 24), "out of range"),
    ((21, 18), "a8 does not hold a P1 piece"),
    ((3, 9), "one square forward"),
    ((0, 3), "straight move onto an occupied square"),
    ((0, 4), "cannot capture own piece"),
])
def test_breakthrough_apply_names_the_broken_rule(action, message):
    game = get_game("breakthrough")
    with pytest.raises(IllegalActionError, match=message):
        game.apply(game.initial_state(0), action)


def test_breakthrough_reaching_home_row_wins():
    g = get_game("breakthrough")
    board = [0] * 24
    board[6 * 3 + 1] = 1   # P1 pawn on b7
    board[3 * 3 + 0] = 2   # far-away P2 pawn
    s = BtState(g.bits("".join(map(str, board))), Player.P1)
    final = g.apply(s, g.parse_action("b7b8"))
    assert g.outcome(final)[Player.P1] is Outcome.WIN


@pytest.mark.parametrize("name", BREAKTHROUGHS[:2])
def test_breakthrough_state_round_trips_through_its_text(name):
    """A state reached by `apply` and the same state built from its board's digits
    are equal in every respect."""
    game = get_game(name)
    rng = random.Random(43)
    for _ in range(200):
        s = random_state(game, rng)
        decoded = BtState(game.bits(game.digits(s)), s.to_move)
        assert decoded == s and hash(decoded) == hash(s) and repr(decoded) == repr(s)
        board = game.observation(s, Player.P1)[2]
        assert game.digits(s) == "".join(map(str, board))
        assert game.legal_actions(decoded) == game.legal_actions(s)
        assert game.outcome(decoded) == game.outcome(s)
        if game.outcome(s) is None:
            seed = rng.randrange(1000)
            ours, theirs = random.Random(seed), random.Random(seed)
            assert game.random_playout(decoded, ours) == game.random_playout(s, theirs)
            assert ours.getstate() == theirs.getstate()
        assert pickle.loads(pickle.dumps(s)) == s


def test_outcome_maps_are_shared_and_read_only():
    assert win_for(Player.P1) is win_for(Player.P1)
    assert tie_outcome() is tie_outcome()
    assert dict(win_for(Player.P2)) == {Player.P2: Outcome.WIN, Player.P1: Outcome.LOSE}
    for outcome in (win_for(Player.P1), win_for(Player.P2), tie_outcome()):
        with pytest.raises(TypeError):
            outcome[Player.P1] = Outcome.TIE
    assert win_for(Player.P1)[Player.P1] is Outcome.WIN


# -- canonical keys -----------------------------------------------------------


def test_keys_deterministic_and_distinct():
    rng = random.Random(5)
    for game in ALL_GAMES:
        for _ in range(30):
            s = random_state(game, rng)
            acts = game.legal_actions(s)
            if not acts:
                continue
            keys = [game.canonical_key(s, a) for a in acts]
            assert keys == [game.canonical_key(s, a) for a in acts]
            assert len(set(keys)) == len(keys)
            assert all(k.startswith(game.name + "|") for k in keys)
            state_keys = {split_key(k)[0] for k in keys}
            assert state_keys == {game.canonical_state_key(s)}


def _reference_connect4_key(state, viewer):
    """Connect Four's observation key by a plain scan of the 42 cells: rows top
    down, each left to right, "m" the viewer's disc, "o" the other's, "." empty."""
    mine, theirs = (state.p1, state.p2) if viewer is Player.P1 else (state.p2, state.p1)
    cells = []
    for r in range(5, -1, -1):
        for c in range(7):
            bit = 1 << (c * 7 + r)
            cells.append("m" if mine & bit else ("o" if theirs & bit else "."))
    return "".join(cells)


def test_connect4_key_matches_a_per_cell_scan():
    """Along random playouts, to their ends (full boards included), from both seats."""
    game = get_game("connect4")
    rng = random.Random(9)
    full = 0
    for _ in range(200):
        state = game.initial_state(0)
        while True:
            for viewer in Player:
                assert game.observation_key(state, viewer) == _reference_connect4_key(state, viewer)
            if not (acts := game.legal_actions(state)):
                break
            state = game.apply(state, rng.choice(acts))
        full += "." not in game.observation_key(state, Player.P1)
    assert full > 0


def test_kuhn_key_ignores_hidden_opponent_card():
    g = get_game("kuhn_poker")
    a = KuhnState((2, 0), (), Player.P1)
    b = KuhnState((2, 1), (), Player.P1)
    assert g.canonical_key(a, "B") == g.canonical_key(b, "B")


def test_liars_dice_key_ignores_hidden_opponent_die():
    g = get_game("liars_dice")
    a = LdState((4, 1), ((1, 2),), False, Player.P2)
    b = LdState((6, 1), ((1, 2),), False, Player.P2)
    assert g.canonical_key(a, (2, 2)) == g.canonical_key(b, (2, 2))


def test_mirrored_seats_share_keys():
    g = get_game("tictactoe")
    # P1 played center | P2 played center: same mover-relative situation
    s1 = TttState((0, 0, 0, 0, 2, 0, 0, 0, 0), Player.P1)
    s2 = TttState((0, 0, 0, 0, 1, 0, 0, 0, 0), Player.P2)
    assert g.canonical_key(s1, 0) == g.canonical_key(s2, 0)


def test_breakthrough_relative_keys_mirror_rows():
    g = get_game("breakthrough")
    s = g.initial_state(0)
    # explicit mirror of the initial position: rows flipped, ownership swapped
    board, flipped = g.observation(s, Player.P1)[2], []
    for r in range(7, -1, -1):
        flipped.extend(3 - v if v else 0 for v in board[r * 3:(r + 1) * 3])
    mirror = BtState(g.bits("".join(map(str, flipped))), Player.P2)
    opening = g.canonical_key(s, g.parse_action("a2a3"))
    mirrored = g.canonical_key(mirror, g.parse_action("a7a6"))
    assert opening == mirrored  # mirrored seats aggregate under one key


def test_perfect_info_observation_determines_state():
    # the mover's observation fixes the whole state: the board or piles and the mover
    rng = random.Random(11)
    for game in ALL_GAMES:
        if not game.perfect_information:
            continue
        seen = {}
        for _ in range(200):
            s = random_state(game, rng)
            obs = game.observation(s, s.to_move)
            assert seen.setdefault(obs, s) == s


# -- notation round-trips ------------------------------------------------------


def test_action_notation_round_trips():
    rng = random.Random(9)
    for game in ALL_GAMES:
        for _ in range(50):
            s = random_state(game, rng)
            for a in game.legal_actions(s):
                text = game.action_text(a)
                assert game.parse_action(text) == a


def test_notation_examples_match_documented_format():
    assert get_game("tictactoe").action_text(3) == "C1R2"
    assert get_game("nim").action_text((3, 7)) == "<pile:4, take:7>"
    assert get_game("kuhn_poker").action_text("B") == "<Bet>"
    assert get_game("liars_dice").action_text((2, 5)) == "<2 dices, 5 value>"
    assert get_game("connect4").action_text(0) == "C1"
    assert get_game("breakthrough").action_text((3, 7)) == "a2b3"


# one text per game that `action_text` writes for no action
@pytest.mark.parametrize("name, text", [
    ("tictactoe", "C1R1 "),
    ("connect4", "X1"),
    ("connect4", "C01"),
    ("breakthrough", "z1a2"),  # once read as (25, 3), which is written b9a2
    ("kuhn_poker", "<Bett>"),
    ("kuhn_poker", ""),
    ("liars_dice", "<1 dice, 3 value>"),
    ("nim", "pile:1, take:1"),
])
def test_action_text_that_no_action_has_is_refused(name, text):
    with pytest.raises(ValueError, match=re.escape(f"{name}: no action has the text {text!r}")):
        get_game(name).parse_action(text)


# -- playout invariants --------------------------------------------------------


@pytest.mark.parametrize("name", GAME_NAMES)
def test_random_playout_fuzz(name):
    """apply(legal action) never raises and games end within the move bound."""
    game = get_game(name)
    rng = random.Random(17)
    playouts = 100_000
    for ep in range(playouts):
        s = game.initial_state(ep)
        moves = 0
        acts = game.legal_actions(s)
        while acts:
            s = game.apply(s, acts[rng.randrange(len(acts))])
            moves += 1
            acts = game.legal_actions(s)
        assert game.outcome(s) is not None
        assert moves <= game.max_moves


@pytest.mark.parametrize("name", GAME_NAMES)
def test_terminal_iff_no_legal_actions(name):
    game = get_game(name)
    rng = random.Random(3)
    for _ in range(300):
        s = random_state(game, rng)
        assert (game.outcome(s) is not None) == (len(game.legal_actions(s)) == 0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_draw_below_draws_as_randrange_does(seed):
    """The specialized playouts rely on this: the same value and the same rng
    state afterwards as ``Random.randrange(n)``, for every n tried."""
    ours, reference = random.Random(seed), random.Random(seed)
    for n in range(1, 301):
        for _ in range(3):
            assert draw_below(ours.getrandbits, n) == reference.randrange(n)
            assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("name", [*GAME_NAMES, *BREAKTHROUGHS[1:]])
def test_specialized_playout_agrees_with_generic_contract(name):
    """Each fast playout draws the same moves as the generic loop, so it ends
    in the same outcome under the same seed and leaves the rng in the same state."""
    game = get_game(name)
    rng = random.Random(13)
    for _ in range(300):
        s = random_state(game, rng)
        if game.outcome(s) is not None:
            continue
        seed = rng.randrange(1000)
        fast, generic = random.Random(seed), random.Random(seed)
        out = game.random_playout(s, fast)
        assert set(out) == {Player.P1, Player.P2}
        vals = {out[Player.P1], out[Player.P2]}
        assert vals in ({Outcome.WIN, Outcome.LOSE}, {Outcome.TIE})
        assert out == Game.random_playout(game, s, generic)
        assert fast.getstate() == generic.getstate()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_chance_seed_fully_determines_deals(seed):
    for name in ("kuhn_poker", "liars_dice"):
        g = get_game(name)
        assert g.initial_state(seed) == g.initial_state(seed)


# -- exhaustive-search oracles ----------------------------------------------


def _negamax_oracle(game, state, memo):
    """Independent plain negamax on absolute states (no key merging)."""
    out = game.outcome(state)
    if out is not None:
        v = out[state.to_move]
        return 1 if v is Outcome.WIN else (-1 if v is Outcome.LOSE else 0)
    if state in memo:
        return memo[state]
    best = max(-_negamax_oracle(game, game.apply(state, a), memo)
               for a in game.legal_actions(state))
    memo[state] = best
    return best


def test_tictactoe_is_a_draw_under_optimal_play():
    g = get_game("tictactoe")
    assert _negamax_oracle(g, g.initial_state(0), {}) == 0


def test_misere_nim_1357_first_player_loses():
    g = get_game("nim")
    assert _negamax_oracle(g, g.initial_state(0), {}) == -1
