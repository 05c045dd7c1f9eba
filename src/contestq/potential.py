"""Exact potential for player-invariant oblivious payments, and ascent.

When payments are player-invariant and oblivious, the payment for
choosing quality q is a function pay(q, m) of the load m alone.  The
per-quality prefix sums

    gamma_q(m) = pay(q, 1) + pay(q, 2) + ... + pay(q, m),  gamma_q(0) = 0

make

    potential(profile) = sum_q gamma_q(load_q) - sum_k cost_k

an exact potential: for every unilateral deviation its difference
equals the deviating player's utility difference.  Local maxima are
therefore pure Nash equilibria and greedy ascent terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .dynamics import PathStatus, run_improvement_path
from .errors import PreconditionError
from .game import ContestGame, Profile, load_of, validate_profile
from .payments import classify, payer

ZERO = Fraction(0)


def require_exact_potential(game: ContestGame) -> None:
    """Check that the game's payment is player-invariant and oblivious.

    `classify` decides both, reading no payment for the kinds declared
    so (equal sharing, K-Top, a shared oblivious matrix); its two
    classes together give one payment per (own quality, load on it) for
    every player.  Games outside this class may have no pure Nash
    equilibrium at all, so no exact potential can exist for them in
    general.
    """
    verdict = classify(game)
    problems = []
    if not verdict.player_invariant:
        problems.append("not player-invariant")
    if not verdict.oblivious:
        problems.append("not oblivious")
    if problems:
        raise PreconditionError(
            "exact potential requires a player-invariant and oblivious payment; "
            "this game's payment is " + " and ".join(problems)
        )


def build_potential_cache(game: ContestGame) -> tuple[tuple[Fraction, ...], ...]:
    """Per-quality prefix sums gamma_q(m), m = 0..n, of player 1's payments.

    One load vector per (quality, load) is read.  Needs payments keyed by
    load vector: profile-keyed tables raise.
    """
    require_exact_potential(game)
    if game.payment.profile_table is not None:
        raise PreconditionError(
            f"{game.payment.kind.value} payments are not a function of (quality, loads)")
    pay = payer(game)
    n, Q = game.n, game.Q
    gamma: list[tuple[Fraction, ...]] = []
    for q in range(1, Q + 1):
        other = 1 if q != 1 else 2
        row = [ZERO]
        for m in range(1, n + 1):
            loads = [0] * Q
            loads[q - 1] = m
            loads[other - 1] = n - m
            row.append(row[-1] + Fraction(*pay(1, q, tuple(loads))))
        gamma.append(tuple(row))
    return tuple(gamma)


def potential(game: ContestGame, profile: Profile,
              cache: Optional[tuple[tuple[Fraction, ...], ...]] = None) -> Fraction:
    """The exact potential of a profile; `cache` is `build_potential_cache(game)`."""
    if cache is None:
        cache = build_potential_cache(game)
    validate_profile(game, profile)
    loads = load_of(profile, game.Q)
    total = sum((row[m] for row, m in zip(cache, loads)), ZERO)
    for k in game.players():
        total -= game.cost_of(k, profile[k - 1])
    return total


def potential_ascent(game: ContestGame, start: Profile) -> Profile:
    """The end of the first-improving improvement path from `start`.

    Each step strictly increases the exact potential, so the walk
    converges to a pure Nash equilibrium; anything else means the
    potential is not exact and raises `AssertionError`.
    """
    require_exact_potential(game)
    walk = run_improvement_path(game, start)
    if walk.status is not PathStatus.CONVERGED:
        raise AssertionError(f"ascent ended in a {walk.status.value}; potential not exact?")
    assert walk.profile is not None
    return walk.profile
