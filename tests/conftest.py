import random
from fractions import Fraction as F
from itertools import product
from math import comb
from pathlib import Path

import pytest

from contestq import (
    ContestGame,
    CostFunction,
    Deviation,
    Participation,
    SolveOutcome,
    StabilityKernel,
    compositions,
    contiguous_assignment,
    equal_sharing,
    ktop,
    load_of,
    player_invariant_table,
    player_specific_table,
    proportional,
    skill_order,
    utility,
)
from contestq.payments import payer

FIXTURES = Path(__file__).parent / "fixtures"


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
    alone = {1: F(0), 2: F(2)}
    table = {(i, q, v): F(1) if v[q - 1] == 2 else alone[i]
             for i in (1, 2) for q in (1, 2) for v in compositions(2, 2) if v[q - 1] > 0}
    zero_cost = CostFunction("table", ((F(0), F(0)), (F(0), F(0))))
    return make_game(2, 2, (1, 1), (0, 1), player_specific_table(loads_table=table),
                     cost=zero_cost)


# --- definition-level oracles ------------------------------------------------

def reference_improvements(game, profile):
    """Every strictly improving switch, straight from `utility`."""
    moves = []
    for i in game.players():
        here = utility(game, profile, i)
        for q in game.qualities():
            if q != profile[i - 1]:
                moved = profile[: i - 1] + (q,) + profile[i:]
                gain = utility(game, moved, i) - here
                if gain > 0:
                    moves.append(Deviation(i, q, gain))
    return moves


def reference_equilibria(game):
    """Every pure Nash equilibrium, in lexicographic order, by scanning all
    Q^n profiles for an improving switch."""
    return [p for p in product(game.qualities(), repeat=game.n)
            if not reference_improvements(game, p)]


def inversions(game, profile):
    """Inverted pairs of skill-order ranks: earlier rank at a higher quality."""
    order = skill_order(game)
    return [(a + 1, b + 1) for a in range(game.n) for b in range(a + 1, game.n)
            if profile[order[a] - 1] > profile[order[b] - 1]]


def swap_inversions(game, profile):
    """Swap the first pair `inversions` returns until there is none.

    Each swap removes at least one inversion, so at most n(n-1)/2 rounds
    run, and the load vector never changes.
    """
    order = skill_order(game)
    profile = list(profile)
    for _ in range(game.n * game.n):
        pairs = inversions(game, profile)
        if not pairs:
            return tuple(profile)
        i, k = (order[rank - 1] - 1 for rank in pairs[0])
        profile[i], profile[k] = profile[k], profile[i]
    raise AssertionError("inversion swaps did not terminate within n^2 rounds")


def normalization_constant_bruteforce(game, family):
    """`normalization_constant` by enumerating all load vectors: the
    inverse of the largest payout sum, where equal sharing pays every
    occupied quality and K-Top only the top K."""
    unpaid = game.Q - game.payment.K if family == "ktop" else 0
    return 1 / max(sum((game.efforts[q] for q in range(unpaid, game.Q) if loads[q]), F(0))
                   for loads in compositions(game.n, game.Q))


def payout_sum_bound_holds(game):
    """The normalization condition, profile by profile: payouts sum to <= 1."""
    pay = payer(game)
    by_profile = game.payment.profile_table is not None
    for profile in product(game.qualities(), repeat=game.n):
        key = profile if by_profile else load_of(profile, game.Q)
        if sum(F(*pay(i, q, key)) for i, q in enumerate(profile, 1)) > 1:
            return False
    return True


def contiguous_candidate_count(n, Q):
    """How many contiguous candidates there are: one per load vector."""
    return comb(n + Q - 1, Q - 1)


def reference_scan(game):
    """The contiguous scan as first written: `StabilityKernel.stable` of each
    `contiguous_assignment` in colex load order, stopping at the first hit."""
    kernel = StabilityKernel(game)
    assignments = (contiguous_assignment(game, loads)
                   for loads in compositions(game.n, game.Q))
    hit = next((a for a in assignments if kernel.stable(a.profile)), None)
    return SolveOutcome(hit, contiguous_candidate_count(game.n, game.Q))


def beyond_cap_table_games(n=13, Q=3):
    """Two oblivious table games with Q^n above the profile cap: a
    player-invariant table, and a player-specific loads table that adds
    i/100 to player i's payment, so it is not player-invariant."""
    shared = {(q, v): F(q, Q * v[q - 1]) for v in compositions(n, Q)
              for q in range(1, Q + 1) if v[q - 1]}
    own = {(i, q, v): pay + F(i, 100) for (q, v), pay in shared.items()
           for i in range(1, n + 1)}
    efforts = tuple(range(1, Q + 1))
    return {"invariant": make_game(n, Q, (1,) * n, efforts, player_invariant_table(shared)),
            "specific": make_game(n, Q, (1,) * n, efforts,
                                  player_specific_table(loads_table=own))}


def random_invariant_table_game(seed):
    """A small random player-invariant table game; about 95% of draws are
    not three-discrete-concave.

    Drawn from `random.Random(seed)` in this order: (n, Q) from five
    shapes; f_1 = 0 or 1/2, then Q - 1 steps of 1/2 to 2; skills in
    1/8 to 1; and each payment (q, L) with L_q >= 1 in 0 to 3 by
    quarters, load vectors colex with the qualities inner.
    """
    r = random.Random(seed)
    n, Q = r.choice([(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    efforts = [F(0) if r.random() < .5 else F(1, 2)]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(r.randint(1, 4), 2))
    skills = [F(r.randint(1, 8), 8) for _ in range(n)]
    table = {(q, loads): F(r.randint(0, 12), 4) for loads in compositions(n, Q)
             for q in range(1, Q + 1) if loads[q - 1]}
    return make_game(n, Q, skills, efforts, player_invariant_table(table))
