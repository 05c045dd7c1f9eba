from fractions import Fraction as F
from itertools import product

import pytest

from contestq import (
    PreconditionError,
    StabilityKernel,
    brute_force_pne,
    build,
    build_potential_cache,
    equal_sharing,
    is_pne,
    oblivious_table,
    potential,
    potential_ascent,
    random_game,
    utility,
)

from conftest import make_game


def deviations(game, profile):
    for i in game.players():
        for q in game.qualities():
            if q != profile[i - 1]:
                yield i, profile[: i - 1] + (q,) + profile[i:]


def test_potential_values_es_2x2(es_2x2):
    # gamma_1 = (0, 1/3, 1/2), gamma_2 = (0, 2/3, 1), costs are f_q
    cache = build_potential_cache(es_2x2)
    values = {p: potential(es_2x2, p, cache)
              for p in [(1, 1), (1, 2), (2, 1), (2, 2)]}
    assert values == {(1, 1): F(-3, 2), (1, 2): F(-2),
                      (2, 1): F(-2), (2, 2): F(-3)}


def test_potential_difference_equals_utility_difference(es_2x2):
    cache = build_potential_cache(es_2x2)
    for profile in product((1, 2), repeat=2):
        for i, moved in deviations(es_2x2, profile):
            dphi = potential(es_2x2, moved, cache) - potential(es_2x2, profile, cache)
            du = utility(es_2x2, moved, i) - utility(es_2x2, profile, i)
            assert dphi == du


def test_zero_payment_potential_is_minus_total_cost():
    zeros = tuple((F(0),) * 3 for _ in range(2))
    game = make_game(3, 2, (1, 2, 3), (1, 2), oblivious_table(matrix=zeros))
    assert potential(game, (2, 2, 2)) == -(1 + 2 + 3) * 2


def test_potential_requires_invariant_and_oblivious():
    from contestq import proportional

    with pytest.raises(PreconditionError):
        potential(build("matching_pennies").game, (1, 1))
    with pytest.raises(PreconditionError):
        # proportional with Q = 3 is genuinely not oblivious
        potential(make_game(2, 3, (1, 1), (1, 2, 3), proportional()), (1, 1))


def test_ascent_reaches_pne_es_3x2():
    game = make_game(3, 2, (1, 1, 1), (1, 2), equal_sharing())
    pnes = set(brute_force_pne(game, find_all=True).all)
    assert pnes  # sanity: potential games have equilibria
    for start in product((1, 2), repeat=3):
        end = potential_ascent(game, start)
        assert end in pnes


def test_ascent_needs_only_the_classifier_on_specific_tables():
    # a loads-keyed player-specific table that is extensionally oblivious
    # and player-invariant: the classifier certifies an exact potential,
    # and the ascent walks it without evaluating the potential itself
    from contestq import classify, compositions, player_specific_table

    pay = {(1, 1): F(1, 2), (1, 2): F(1, 8), (2, 1): F(1, 4), (2, 2): F(1, 16)}
    table = {(i, q, v): pay[(q, v[q - 1])] for i in (1, 2) for q in (1, 2)
             for v in compositions(2, 2) if v[q - 1] > 0}
    game = make_game(2, 2, (1, 1), (1, 2), player_specific_table(loads_table=table))
    assert classify(game) == (True, True)
    pnes = set(brute_force_pne(game, find_all=True).all)
    for start in product((1, 2), repeat=2):
        assert potential_ascent(game, start) in pnes


def test_potential_on_a_certified_loads_keyed_specific_table():
    from contestq import classify

    game = random_game(8, 2, 2, "concave-specific")
    assert game.payment.loads_table is not None
    assert classify(game) == (True, True)
    cache = build_potential_cache(game)
    for profile in product(game.qualities(), repeat=game.n):
        phi = potential(game, profile, cache)
        for i, moved in deviations(game, profile):
            assert potential(game, moved, cache) - phi == \
                utility(game, moved, i) - utility(game, profile, i)


def test_potential_rejects_profile_keyed_tables_ascent_walks_them():
    from contestq import classify, player_specific_table

    # one payment per (own quality, load on it), keyed by full profile
    pay = {(1, 1): F(1, 2), (1, 2): F(1, 8), (2, 1): F(1, 4), (2, 2): F(1, 16)}
    table = {(i, p): pay[(p[i - 1], p.count(p[i - 1]))]
             for i in (1, 2) for p in product((1, 2), repeat=2)}
    game = make_game(2, 2, (1, 1), (1, 2), player_specific_table(profile_table=table))
    assert classify(game) == (True, True)
    with pytest.raises(PreconditionError,
                       match=r"player_specific payments are not a function of \(quality, loads\)"):
        build_potential_cache(game)
    pnes = set(brute_force_pne(game, find_all=True).all)
    for start in product((1, 2), repeat=2):
        assert potential_ascent(game, start) in pnes


def test_exact_potential_needs_one_payment_for_players_alone_at_a_quality():
    # shared payments when two players meet, a payment of their own when
    # alone: oblivious, but not player-invariant, and it is matching pennies
    from contestq import CostFunction, classify, compositions, player_specific_table

    alone = {1: F(0), 2: F(2)}
    table = {(i, q, v): F(1) if v[q - 1] == 2 else alone[i]
             for i in (1, 2) for q in (1, 2) for v in compositions(2, 2) if v[q - 1] > 0}
    zero_cost = CostFunction("table", ((F(0), F(0)), (F(0), F(0))))
    game = make_game(2, 2, (1, 1), (0, 1), player_specific_table(loads_table=table),
                     cost=zero_cost)
    assert classify(game) == (True, False)
    assert brute_force_pne(game, find_all=True).all == ()
    for call in (lambda: potential_ascent(game, (1, 1)),
                 lambda: build_potential_cache(game)):
        with pytest.raises(PreconditionError, match="not player-invariant"):
            call()


def test_ascent_fixed_point(es_2x2):
    assert potential_ascent(es_2x2, (1, 1)) == (1, 1)


def test_ascent_ktop(ktop1_2x3):
    end = potential_ascent(ktop1_2x3, (1, 1))
    assert is_pne(ktop1_2x3, end)
    assert end in set(brute_force_pne(ktop1_2x3, find_all=True).all)


@pytest.mark.parametrize("seed", range(12))
def test_exactness_on_random_oblivious_invariant_games(seed):
    game = random_game(seed, 2 + seed % 3, 2 + seed % 2, "oblivious-invariant")
    cache = build_potential_cache(game)
    for profile in product(game.qualities(), repeat=game.n):
        phi = potential(game, profile, cache)
        for i, moved in deviations(game, profile):
            assert potential(game, moved, cache) - phi == \
                utility(game, moved, i) - utility(game, profile, i)


@pytest.mark.parametrize("seed", range(8))
def test_global_maximizer_is_pne(seed):
    game = random_game(seed, 2 + seed % 3, 2 + seed % 2, "oblivious-invariant")
    cache = build_potential_cache(game)
    profiles = list(product(game.qualities(), repeat=game.n))
    top = max(profiles, key=lambda p: potential(game, p, cache))
    best = potential(game, top, cache)
    for p in profiles:
        if potential(game, p, cache) == best:
            assert is_pne(game, p)


def test_ascent_step_count_bounded_by_profile_count():
    game = make_game(3, 3, (1, 1, 1), (1, 2, 3), equal_sharing())
    cache = build_potential_cache(game)
    for start in product((1, 2, 3), repeat=3):
        seen = [start]
        profile = start
        while True:
            step = next(StabilityKernel(game).improvements(profile), None)
            if step is None:
                break
            profile = step.apply(profile)
            seen.append(profile)
            assert len(seen) <= 27 + 1
        assert len(set(seen)) == len(seen)  # strictly increasing potential


def test_proportional_two_qualities_is_a_potential_game():
    # with two qualities the load on the own quality determines the
    # whole load vector, so proportional allocation becomes extensionally
    # oblivious and the classifier-gated potential applies
    from contestq import classify, proportional

    game = make_game(3, 2, (1, 1, 1), (1, 2), proportional())
    assert classify(game) == (True, True)
    cache = build_potential_cache(game)
    for profile in product((1, 2), repeat=3):
        phi = potential(game, profile, cache)
        for i, moved in deviations(game, profile):
            assert potential(game, moved, cache) - phi == \
                utility(game, moved, i) - utility(game, profile, i)
    end = potential_ascent(game, (2, 2, 2))
    assert is_pne(game, end)


def _exact_potential_games(seed):
    """One seeded game of each class `require_exact_potential` admits."""
    import random

    from contestq import classify, compositions, ktop, player_invariant_table

    rng = random.Random(seed)
    n, Q = 2 + seed % 2, 2 + (seed // 2) % 2
    skills = [F(rng.randint(1, 8), 8) for _ in range(n)]
    efforts = [F(0) if seed % 3 else F(rng.randint(1, 3), 2)]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(rng.randint(1, 4), rng.choice((1, 2))))
    by_load = [[F(rng.randint(0, 12), 12 * m) for m in range(1, n + 1)] for _ in range(Q)]
    table = {(q, v): by_load[q - 1][v[q - 1] - 1]
             for v in compositions(n, Q) for q in range(1, Q + 1) if v[q - 1] > 0}
    games = {
        "equal-sharing": make_game(n, Q, skills, efforts, equal_sharing()),
        "ktop": make_game(n, Q, skills, efforts, ktop(rng.randint(1, Q))),
        "shared-matrix": random_game(seed, n, Q, "oblivious-invariant"),
        "invariant-table": make_game(n, Q, skills, efforts, player_invariant_table(table)),
    }
    assert classify(games["invariant-table"]) == (True, True)
    return games


def _first_improving_walk(game, start):
    """First-improving walk read off `utility` alone: lowest player, then
    lowest target quality."""
    profile = start
    while True:
        moves = [moved for i, moved in deviations(game, profile)
                 if utility(game, moved, i) > utility(game, profile, i)]
        if not moves:
            return profile
        profile = moves[0]


@pytest.mark.parametrize("seed", range(6))
def test_ascent_is_the_first_improving_path(seed):
    from contestq import run_improvement_path

    for name, game in _exact_potential_games(seed).items():
        for start in product(game.qualities(), repeat=game.n):
            end = potential_ascent(game, start)
            assert end == run_improvement_path(game, start).profile, (name, start)
            assert end == _first_improving_walk(game, start), (name, start)


def test_ascent_that_does_not_converge_raises(monkeypatch):
    from importlib import import_module

    # waive the class test: ce1's first-improving walk cycles, which no
    # exact potential allows (`contestq.potential` is also a function)
    module = import_module("contestq.potential")
    monkeypatch.setattr(module, "require_exact_potential", lambda game: None)
    with pytest.raises(AssertionError, match="potential not exact"):
        potential_ascent(build("ce1").game, (1, 2))
