from fractions import Fraction as F

import pytest

from contestq import (
    GameValidationError,
    PreconditionError,
    build,
    classify,
    is_three_discrete_concave_invariant,
    is_three_discrete_concave_specific,
    random_game,
    verify_certificate,
)
from contestq.payments import PaymentKind

from conftest import payout_sum_bound_holds


def test_counterexample1_numbers():
    game = build("ce1").game
    assert game.skills == (F(1, 3), F(1, 3))
    assert game.efforts == (F(1), F(2), F(3))
    # winner-take-all with even tie split
    assert game.payment.invariant_table[(2, (1, 1, 0))] == 1
    assert game.payment.invariant_table[(1, (2, 0, 0))] == F(1, 2)
    assert game.payment.invariant_table[(1, (1, 0, 1))] == 0
    assert payout_sum_bound_holds(game)


def test_counterexample2_numbers():
    assert build("ce2", k=2).game.skills == (F(3, 19), F(3, 31))
    assert build("ce2", k=3).game.skills == (F(4, 41), F(4, 57))
    assert build("ce2", k=2).game.Q == 3
    with pytest.raises(PreconditionError):
        build("ce2", k=1)


def test_matching_pennies_numbers():
    game = build("matching_pennies").game
    pt = game.payment.profile_table
    assert pt[(1, (1, 1))] == pt[(1, (2, 2))] == 1000
    assert pt[(1, (1, 2))] == pt[(1, (2, 1))] == 10
    assert pt[(2, (1, 2))] == pt[(2, (2, 1))] == 1000
    assert pt[(2, (1, 1))] == pt[(2, (2, 2))] == 10


@pytest.mark.parametrize("iid,kwargs", [
    ("ce1", {}),
    ("ce2", {"k": 2}),
    ("ce2", {"k": 4}),
    ("matching_pennies", {}),
    ("fip_voluntary", {"n": 3, "Q": 3}),
    ("fip_voluntary", {"n": 4, "Q": 2}),
    ("fip_mandatory", {"n": 3, "Q": 3}),
    ("natasa", {"n": 2, "Q": 3}),
])
def test_catalog_self_validates(iid, kwargs):
    report = verify_certificate(build(iid, **kwargs))
    assert report.passed, [c for c in report.claims if not c.passed]


def test_natasa_rejects_efforts_outside_the_normalization():
    with pytest.raises(PreconditionError):
        build("natasa", n=2, efforts=(F(1, 100), F(2, 100)))
    # f2 = 1 - 1/n exactly is inside it, and the certificate holds
    at_edge = build("natasa", n=2, efforts=(F(1, 4), F(1, 2)))
    assert verify_certificate(at_edge).passed


def test_natasa_rejects_voluntary_participation():
    """The family is defined under mandatory participation: f_1 = 0 is refused."""
    with pytest.raises(GameValidationError):
        build("natasa", efforts=(0, 1, 2))


def test_unknown_instance():
    with pytest.raises(PreconditionError):
        build("nope")


def test_random_game_is_deterministic():
    a = random_game(1, 3, 2, "oblivious-invariant")
    b = random_game(1, 3, 2, "oblivious-invariant")
    assert a == b
    c = random_game(2, 3, 2, "oblivious-invariant")
    assert a != c


@pytest.mark.parametrize("seed", range(5))
def test_concave_specific_draws_pass_their_checker(seed):
    game = random_game(seed, 4, 2, "concave-specific")
    assert game.payment.kind is PaymentKind.PLAYER_SPECIFIC_TABLE
    assert is_three_discrete_concave_specific(game)


@pytest.mark.parametrize("seed", range(5))
def test_concave_invariant_draws_pass_their_checker(seed):
    game = random_game(seed, 3, 3, "concave-invariant")
    assert is_three_discrete_concave_invariant(game)


def test_oblivious_invariant_draws_respect_normalization():
    for seed in range(5):
        game = random_game(seed, 3, 2, "oblivious-invariant")
        assert payout_sum_bound_holds(game)
        verdict = classify(game)
        assert verdict.oblivious and verdict.player_invariant


def test_proportional_family_classifies_as_player_invariant():
    game = random_game(0, 3, 3, "proportional")
    assert game.payment.kind is PaymentKind.PROPORTIONAL
    assert classify(game).player_invariant


def test_unknown_family():
    with pytest.raises(PreconditionError):
        random_game(0, 3, 2, "weird")
