from fractions import Fraction as F

import pytest

from contestq import (
    ContestGame,
    CostFunction,
    Participation,
    equal_sharing,
    ktop,
    proportional,
)


def make_game(n, Q, skills, efforts, payment, cost=None):
    voluntary = efforts[0] == 0
    return ContestGame(
        n=n, Q=Q,
        skills=tuple(F(s) for s in skills),
        efforts=tuple(F(f) for f in efforts),
        participation=(Participation.VOLUNTARY if voluntary
                       else Participation.MANDATORY),
        cost=cost or CostFunction("product"),
        payment=payment,
    )


@pytest.fixture
def prop_2x2():
    """Proportional, mandatory, anonymous, n=2, f=(1,2)."""
    return make_game(2, 2, (1, 1), (1, 2), proportional())


@pytest.fixture
def es_2x2():
    """Equal sharing per quality, mandatory, anonymous, n=2, f=(1,2)."""
    return make_game(2, 2, (1, 1), (1, 2), equal_sharing())


@pytest.fixture
def ktop1_2x3():
    """K-Top with K=1, mandatory, anonymous, n=2, f=(1,2,3)."""
    return make_game(2, 3, (1, 1), (1, 2, 3), ktop(1))


def alone_at_a_quality_game():
    """Loads-keyed matching pennies: one shared payment when the two
    players meet, a payment of their own when alone.  Oblivious, not
    player-invariant, and without a pure Nash equilibrium."""
    from contestq import compositions, player_specific_table

    alone = {1: F(0), 2: F(2)}
    table = {(i, q, v): F(1) if v[q - 1] == 2 else alone[i]
             for i in (1, 2) for q in (1, 2) for v in compositions(2, 2) if v[q - 1] > 0}
    zero_cost = CostFunction("table", ((F(0), F(0)), (F(0), F(0))))
    return make_game(2, 2, (1, 1), (0, 1), player_specific_table(loads_table=table),
                     cost=zero_cost)
