"""Core domain types: games, cost functions, profiles, loads, utilities.

A contest game has ``n >= 2`` players with positive skills, ``Q >= 2``
quality levels with strictly increasing efforts, a participation mode
(voluntary iff the lowest effort is zero), a cost function ``cost(s_i,
f_q)`` and a payment function.  A player's utility is her payment minus
her cost, both exact rationals.

Players and qualities are 1-indexed in every public interface.  A
profile ("quality vector") is a tuple of n qualities; a load vector is a
tuple of Q per-quality occupancy counts summing to n.  All types are
immutable after construction and every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

from .errors import GameValidationError
from .payments import (
    PaymentFunction,
    _exact,
    _payment_key,
    evaluate_payment,
    load_of,
    payer,
    validate_profile,
)

Profile = tuple[int, ...]
Loads = tuple[int, ...]

class Participation(Enum):
    VOLUNTARY = "voluntary"
    MANDATORY = "mandatory"


class CostMonotonicityWarning(UserWarning):
    """A cost table is not non-decreasing along some player's row."""


@dataclass(frozen=True)
class CostFunction:
    """Skill-effort cost: either the product ``s_i * f_q`` or an explicit table.

    A table is an n-by-Q matrix of non-negative rationals, row i giving
    player i's cost at each quality.  Non-monotone rows are legal (some
    counterexample games need exact value patterns) but are reported
    with a warning at validation time.
    """

    kind: str  # "product" | "table"
    table: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("product", "table"):
            raise GameValidationError(f"unknown cost kind {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise GameValidationError("table cost requires values")
            for row in self.table:
                for entry in row:
                    if _exact(entry, "cost table entries") < 0:
                        raise GameValidationError("cost table entries must be >= 0")
        elif self.table is not None:
            raise GameValidationError("product cost takes no table")


@dataclass(frozen=True)
class ContestGame:
    """An immutable contest-game instance.

    Invariants enforced at construction: ``n >= 2``, ``Q >= 2``, skills
    positive, efforts strictly increasing, participation consistent with
    the lowest effort (voluntary iff ``f_1 = 0``), cost table shaped
    n-by-Q with a zero quality-1 column under voluntary participation.
    """

    n: int
    Q: int
    skills: tuple[Fraction, ...]
    efforts: tuple[Fraction, ...]
    participation: Participation
    cost: CostFunction
    payment: PaymentFunction

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GameValidationError("need n >= 2 players")
        if self.Q < 2:
            raise GameValidationError("need Q >= 2 qualities")
        if len(self.skills) != self.n:
            raise GameValidationError("skills must have one entry per player")
        if len(self.efforts) != self.Q:
            raise GameValidationError("efforts must have one entry per quality")
        if any(_exact(s, "skills") <= 0 for s in self.skills):
            raise GameValidationError("skills must be positive")
        if any(_exact(f, "efforts") < 0 for f in self.efforts):
            raise GameValidationError("efforts must be non-negative")
        for lo, hi in zip(self.efforts, self.efforts[1:]):
            if lo >= hi:
                raise GameValidationError("efforts must be strictly increasing")
        voluntary = self.efforts[0] == 0
        if voluntary != (self.participation is Participation.VOLUNTARY):
            raise GameValidationError(
                "participation mode must match the lowest effort: "
                "voluntary iff f_1 = 0, mandatory iff f_1 > 0"
            )
        if self.cost.kind == "table":
            assert self.cost.table is not None
            if len(self.cost.table) != self.n or any(
                len(row) != self.Q for row in self.cost.table
            ):
                raise GameValidationError("cost table must be n x Q")
            if voluntary and any(row[0] != 0 for row in self.cost.table):
                raise GameValidationError(
                    "voluntary participation requires zero cost at quality 1"
                )
            for i, row in enumerate(self.cost.table, start=1):
                if any(lo > hi for lo, hi in zip(row, row[1:])):
                    warnings.warn(
                        f"cost table row for player {i} is not non-decreasing",
                        CostMonotonicityWarning,
                        stacklevel=2,
                    )
        self.payment.validate_shape(self.n, self.Q)

    @property
    def anonymous(self) -> bool:
        """All players share one skill (conventionally normalized to 1)."""
        return len(set(self.skills)) == 1

    def cost_of(self, player: int, quality: int) -> Fraction:
        """Cost of `player` (1-indexed) writing a review of `quality`."""
        if self.cost.table is not None:
            return self.cost.table[player - 1][quality - 1]
        return self.skills[player - 1] * self.efforts[quality - 1]

    def qualities(self) -> range:
        return range(1, self.Q + 1)

    def players(self) -> range:
        return range(1, self.n + 1)


def _product_game(n: int, Q: int, skills: tuple[Fraction, ...],
                  efforts: tuple[Fraction, ...], payment: PaymentFunction) -> ContestGame:
    """A game with product costs, voluntary exactly when f_1 = 0.

    The slice leaves an empty `efforts` to `ContestGame`'s own Q check.
    """
    voluntary = efforts[:1] == (0,)
    return ContestGame(
        n=n, Q=Q, skills=skills, efforts=efforts,
        participation=Participation.VOLUNTARY if voluntary else Participation.MANDATORY,
        cost=CostFunction("product"), payment=payment,
    )


def utility(game: ContestGame, profile: Profile, player: int) -> Fraction:
    """Quasi-linear utility: payment minus skill-effort cost, exact."""
    pay = evaluate_payment(game, profile, player)  # checks profile and player
    return pay - game.cost_of(player, profile[player - 1])


def utilities(game: ContestGame, profile: Profile) -> list[Fraction]:
    """Every player's `utility` under `profile`, from one payer, in player order."""
    validate_profile(game, profile)
    key = _payment_key(game, profile)
    pay = payer(game)
    return [Fraction(*pay(i, q, key)) - game.cost_of(i, q) for i, q in enumerate(profile, 1)]


class Deviation(NamedTuple):
    """A strictly improving unilateral move: who, where to, and by how much."""

    player: int
    quality: int
    gain: Fraction

    def apply(self, profile: Profile) -> Profile:
        """The profile after the move."""
        return profile[: self.player - 1] + (self.quality,) + profile[self.player:]


@dataclass(frozen=True)
class PneResult:
    holds: bool
    witness: Optional[Deviation] = None

    def __bool__(self) -> bool:
        return self.holds


def is_pne(game: ContestGame, profile: Profile) -> PneResult:
    """Decide whether no player can strictly gain by a unilateral switch.

    On failure the witness is the best-response deviation: the maximum
    utility gain over all (player, quality) pairs, ties broken towards
    the lower player index, then the lower quality.
    """
    validate_profile(game, profile)
    best = max(StabilityKernel(game).improvements(profile),
               key=attrgetter("gain"), default=None)
    return PneResult(best is None, best)


def _shift(loads: Loads, down: int, up: int) -> Loads:
    """The load vector after one player moves from quality `down` to `up`."""
    moved = list(loads)
    moved[down - 1] -= 1
    moved[up - 1] += 1
    return tuple(moved)


def _cost_rows(game: ContestGame) -> list[list[tuple[int, int]]]:
    """Every `cost_of` of `game` at once, as (numerator, denominator > 0)
    pairs not always in lowest terms: row i - 1 holds player i's."""
    if game.cost.table is not None:
        return [[c.as_integer_ratio() for c in row] for row in game.cost.table]
    efforts = [f.as_integer_ratio() for f in game.efforts]
    return [[(sn * fn, sd * fd) for fn, fd in efforts]
            for sn, sd in (s.as_integer_ratio() for s in game.skills)]


class StabilityKernel:
    """The deviation kernel: every unilateral-switch scan of one game.

    Whether player i gains by leaving quality a compares the player's
    deviation row, u_i(b) for b = 1..Q with the others held where they
    are: at the load vector less e_a, or under profile-keyed tables at
    the profile with slot i set to 0.  The one memo holds rows, keyed by
    (that rest, i), so every payment is read at most once per (player,
    quality, key).  The memo lives in the instance, so build one kernel
    per game for a scan, a walk or a graph.

    Payments and costs arrive as integer pairs, utilities are kept as
    unreduced integer pairs (numerator, positive denominator), and u_b >
    u_a is decided exactly by cross-multiplying.  Only the payer's set-up
    and `improvements` build a `Fraction`; `gains` and `stable` build none.
    """

    def __init__(self, game: ContestGame) -> None:
        self._qualities = game.qualities()
        self._costs = _cost_rows(game)
        # The one branch on the key form: how a profile becomes the payer's key,
        # and how player i at quality b adds `step` to slot `at` of the rest.
        if game.payment.profile_table is not None:
            self._key = tuple
            self._moves = [[(i, b) for b in self._qualities] for i in range(game.n)]
        else:
            self._key = lambda profile: load_of(profile, game.Q)
            self._moves = [[(b - 1, 1) for b in self._qualities]] * game.n
        self._payment = payer(game)
        self._rows: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def stable(self, profile: Profile) -> bool:
        """True iff `profile` is a pure Nash equilibrium."""
        key = self._key(profile)
        return all(self.stays(i, a, key) for i, a in enumerate(profile, 1))

    def improvements(self, profile: Profile) -> Iterator[Deviation]:
        """Every strictly improving unilateral move out of `profile`.

        Players in index order, then target qualities ascending.
        """
        profile = tuple(profile)
        key = self._key(profile)
        for i, a in enumerate(profile, 1):
            for b, num, den in self.gains(i, a, key):
                yield Deviation(i, b, Fraction(num, den))

    def gains(self, i: int, a: int, key: tuple[int, ...]) -> list[tuple[int, int, int]]:
        """(b, num, den), b != a ascending, where player i strictly gains num/den.

        The pair is unreduced.  `key` is the load vector, or the profile
        under profile-keyed tables; player i holds quality a in it.
        """
        row = self._row(i, a, key)
        hn, hd = row[a - 1]
        out = []
        for b, (bn, bd) in enumerate(row, 1):
            if bn * hd > hn * bd:
                out.append((b, bn * hd - hn * bd, bd * hd))
        return out

    def stays(self, i: int, a: int, key: tuple[int, ...]) -> bool:
        """No switch of player i from quality a strictly gains at `key`."""
        row = self._row(i, a, key)
        hn, hd = row[a - 1]
        for bn, bd in row:
            if bn * hd > hn * bd:
                return False
        return True

    def _row(self, i: int, a: int, key: tuple[int, ...]) -> list[tuple[int, int]]:
        """Player i's deviation row at `key`: u_i(b) for b = 1..Q, each an
        unreduced (numerator, denominator > 0) pair."""
        moves = self._moves[i - 1]
        rest = list(key)
        at, step = moves[a - 1]
        rest[at] -= step
        memo_key = (*rest, i)
        row = self._rows.get(memo_key)
        if row is None:
            row = []
            for b, (at, step), (cn, cd) in zip(self._qualities, moves, self._costs[i - 1]):
                rest[at] += step
                pn, pd = self._payment(i, b, tuple(rest))
                rest[at] -= step
                row.append((pn * cd - cn * pd, pd * cd))
            self._rows[memo_key] = row
        return row
