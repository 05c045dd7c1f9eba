from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contestq import (
    ContestGame,
    CostFunction,
    GameValidationError,
    Participation,
    build,
    compositions,
    improvement_steps,
    is_pne,
    load_game,
    load_of,
    oblivious_table,
    player_invariant_table,
    player_specific_table,
    proportional,
    save_game,
    utility,
)
from contestq.game import CostMonotonicityWarning, _cost_rows

from conftest import make_game


def test_load_of_is_one_function():
    import contestq.game
    import contestq.payments

    assert contestq.game.load_of is contestq.payments.load_of is load_of


def test_load_of_counts():
    assert load_of((1, 2), 3) == (1, 1, 0)
    assert load_of((2, 2, 2), 2) == (0, 3)
    assert load_of((1, 1, 2, 3), 3) == (2, 1, 1)


@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, 5).flatmap(
        lambda Q: st.tuples(st.just(Q), st.lists(
            st.integers(1, Q), min_size=n, max_size=n))))))
def test_load_of_sums_to_n(data):
    n, (Q, profile) = data
    loads = load_of(tuple(profile), Q)
    assert sum(loads) == n
    assert all(m >= 0 for m in loads)


def test_utility_counterexample1_values():
    game = build("ce1").game
    assert utility(game, (1, 1), 2) == F(1, 2) - F(1, 3) == F(1, 6)
    assert utility(game, (1, 2), 2) == 1 - F(2, 3) == F(1, 3)


def test_utility_matching_pennies_value():
    game = build("matching_pennies").game
    assert utility(game, (1, 1), 1) == 1000 - 1 == 999


def test_utility_is_deterministic():
    game = build("ce2", k=3).game
    for profile in [(1, 1), (3, 4), (2, 2)]:
        values = {utility(game, profile, i) for _ in range(3) for i in (1, 2)}
        assert values == {utility(game, profile, 1), utility(game, profile, 2)}


def test_is_pne_counterexample1_witness_is_best_response():
    game = build("ce1").game
    verdict = is_pne(game, (1, 2))
    assert not verdict
    assert verdict.witness.player == 1
    assert verdict.witness.quality == 3
    assert verdict.witness.gain == F(1, 3)


def test_is_pne_proportional_mandatory_2x2(prop_2x2):
    # brute check of all four profiles confirms (1,1) is the unique PNE
    statuses = {p: bool(is_pne(prop_2x2, p))
                for p in [(1, 1), (1, 2), (2, 1), (2, 2)]}
    assert statuses == {(1, 1): True, (1, 2): False,
                        (2, 1): False, (2, 2): False}


def test_is_pne_zero_payments_all_low_is_pne():
    table = {(i, q, loads): F(0)
             for i in (1, 2) for q in (1, 2)
             for loads in [(2, 0), (1, 1), (0, 2)]}
    game = make_game(2, 2, (1, 1), (1, 2),
                     player_specific_table(loads_table=table))
    assert is_pne(game, (1, 1))
    assert not is_pne(game, (2, 2))


def test_is_pne_false_iff_improvement_step_exists():
    game = build("ce2", k=2).game
    from itertools import product
    for profile in product(range(1, 4), repeat=2):
        steps = improvement_steps(game, profile)
        assert bool(is_pne(game, profile)) == (not steps)


def test_profile_validation():
    game = build("ce1").game
    with pytest.raises(GameValidationError):
        utility(game, (1, 1, 1), 1)
    with pytest.raises(GameValidationError):
        is_pne(game, (0, 1))


def test_game_invariants_rejected():
    with pytest.raises(GameValidationError):
        make_game(1, 2, (1,), (1, 2), proportional())
    with pytest.raises(GameValidationError):
        make_game(2, 2, (1, 1), (2, 1), proportional())  # not increasing
    with pytest.raises(GameValidationError):
        make_game(2, 2, (0, 1), (1, 2), proportional())  # zero skill
    with pytest.raises(GameValidationError):
        # voluntary flag but positive lowest effort
        ContestGame(n=2, Q=2, skills=(F(1), F(1)), efforts=(F(1), F(2)),
                    participation=Participation.VOLUNTARY,
                    cost=CostFunction("product"), payment=proportional())


def test_cost_table_monotonicity_warns_not_rejects():
    table = ((F(3), F(1)), (F(0), F(2)))  # first row decreasing
    with pytest.warns(CostMonotonicityWarning):
        game = make_game(2, 2, (1, 1), (1, 2), proportional(),
                         cost=CostFunction("table", table))
    assert game.cost_of(1, 1) == 3


@pytest.mark.parametrize("voluntary", [True, False])
@pytest.mark.parametrize("kind", ["product", "table"])
@pytest.mark.parametrize("seed", range(4))
def test_cost_rows_are_cost_of_as_integer_pairs(kind, voluntary, seed):
    import random

    rng = random.Random(seed)
    n, Q = 2 + seed % 3, 2 + seed % 2
    efforts = [F(0) if voluntary else F(rng.randint(1, 5), rng.randint(1, 4))]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(rng.randint(1, 5), rng.randint(1, 4)))
    skills = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)]
    rows = tuple(tuple(sorted([F(0)] * voluntary + [F(rng.randint(0, 9), rng.randint(1, 6))
                                                    for _ in range(Q - voluntary)]))
                 for _ in range(n))
    cost = CostFunction("table", rows) if kind == "table" else None
    game = make_game(n, Q, skills, efforts, proportional(), cost=cost)
    pairs = _cost_rows(game)
    assert [len(row) for row in pairs] == [Q] * n
    for i in game.players():
        for q in game.qualities():
            num, den = pairs[i - 1][q - 1]
            expected = (rows[i - 1][q - 1] if kind == "table"
                        else skills[i - 1] * efforts[q - 1])
            assert den > 0
            assert F(num, den) == game.cost_of(i, q) == expected


def test_voluntary_cost_table_must_be_zero_at_quality_one():
    table = ((F(1), F(2)), (F(0), F(2)))
    with pytest.raises(GameValidationError):
        make_game(2, 2, (1, 1), (0, 2), proportional(),
                  cost=CostFunction("table", table))


def numeric_slots(value):
    """Every numeric field of an n = Q = 2 game, each holding `value` in one
    slot and legal values elsewhere: name -> a builder of that game."""
    def game(**changes):
        fields = dict(n=2, Q=2, skills=(F(1), F(1)), efforts=(F(1), F(2)),
                      participation=Participation.MANDATORY,
                      cost=CostFunction("product"), payment=proportional())
        return ContestGame(**{**fields, **changes})

    def with_last(table):
        table[list(table)[-1]] = value
        return table

    ones = ((F(1), F(1)), (F(1), F(1)))
    loads = list(compositions(2, 2))
    return {
        "skills": lambda: game(skills=(F(1), value)),
        "efforts": lambda: game(efforts=(F(1), value)),
        "cost table": lambda: game(cost=CostFunction("table", ((F(1), F(2)), (F(1), value)))),
        "matrix": lambda: game(payment=oblivious_table(matrix=((F(1), F(1)), (F(1), value)))),
        "matrices": lambda: game(payment=oblivious_table(
            matrices=(ones, ((F(1), F(1)), (F(1), value))))),
        "invariant table": lambda: game(payment=player_invariant_table(with_last(
            {(q, v): F(1) for v in loads for q in (1, 2) if v[q - 1]}))),
        "profile table": lambda: game(payment=player_specific_table(profile_table=with_last(
            {(i, p): F(1) for i in (1, 2) for p in product((1, 2), repeat=2)}))),
        "loads table": lambda: game(payment=player_specific_table(loads_table=with_last(
            {(i, q, v): F(1) for i in (1, 2) for v in loads for q in (1, 2) if v[q - 1]}))),
    }


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "3/2"])
@pytest.mark.parametrize("field", list(numeric_slots(0)))
def test_games_hold_only_ints_and_fractions(field, bad, tmp_path):
    """Floats and bools are rejected in every numeric field: neither is
    exact, and a game file written from one could not be read back.  Ints
    and Fractions are accepted, and their games round-trip through a file."""
    with pytest.raises(GameValidationError, match="must be ints or Fractions"):
        numeric_slots(bad)[field]()
    for good in (3, F(3, 2)):
        game = numeric_slots(good)[field]()
        save_game(game, tmp_path / "game.json")
        assert load_game(tmp_path / "game.json") == game
