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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .game import ContestGame, Profile, StabilityKernel, load_of, validate_profile
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


@dataclass(frozen=True)
class PotentialCache:
    """Per-quality prefix-sum tables gamma_q(m), m = 0..n."""

    gamma: tuple[tuple[Fraction, ...], ...]

    def quality_term(self, quality: int, load: int) -> Fraction:
        return self.gamma[quality - 1][load]


def build_potential_cache(game: ContestGame) -> PotentialCache:
    """Prefix sums of player 1's payments, one load vector per (quality, load).

    Needs payments keyed by load vector: profile-keyed tables raise.
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
    return PotentialCache(gamma=tuple(gamma))


def potential(game: ContestGame, profile: Profile,
              cache: Optional[PotentialCache] = None) -> Fraction:
    """The exact potential of a profile."""
    if cache is None:
        cache = build_potential_cache(game)
    validate_profile(game, profile)
    loads = load_of(profile, game.Q)
    total = ZERO
    for q in game.qualities():
        total += cache.quality_term(q, loads[q - 1])
    for k in game.players():
        total -= game.cost_of(k, profile[k - 1])
    return total


def potential_ascent(game: ContestGame, start: Profile) -> Profile:
    """Follow first-improving deviations until no player can gain.

    Deviations are scanned players-in-index-order, target qualities
    ascending; each step strictly increases the potential, so the walk
    stops within the number of profiles.  The fixed point is a pure
    Nash equilibrium by construction.
    """
    require_exact_potential(game)
    validate_profile(game, start)
    kernel = StabilityKernel(game)
    profile = tuple(start)
    for _ in range(game.Q**game.n + 1):
        step = next(kernel.improvements(profile), None)
        if step is None:
            return profile
        profile = step.apply(profile)
    raise AssertionError("ascent exceeded the profile count; potential not exact?")
