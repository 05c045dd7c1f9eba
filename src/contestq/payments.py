"""Payment families and their exact evaluation.

Six kinds are supported: the three closed-form player-invariant
families (proportional allocation, equal sharing per quality, K-Top)
and three table-backed kinds (oblivious per-load tables, player-
invariant tables keyed by own quality and load vector, player-specific
tables keyed either by full profile or by own quality and load vector).
`payer(game)` is the one lookup that turns any of them into a payment.

Closed-form normalization constants for equal sharing and K-Top are the
inverse of the largest achievable per-profile payout sum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Optional

from .errors import GameValidationError, PreconditionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .game import ContestGame

Loads = tuple[int, ...]
Profile = tuple[int, ...]
Key = tuple[int, ...]  # a load vector, or a profile under profile-keyed tables
Ratio = tuple[int, int]  # a payment as (numerator, denominator > 0) in lowest terms

ZERO = Fraction(0)
ONE = Fraction(1)


class PaymentKind(Enum):
    PROPORTIONAL = "proportional"
    EQUAL_SHARING = "equal_sharing"
    KTOP = "ktop"
    OBLIVIOUS_TABLE = "oblivious"
    PLAYER_INVARIANT_TABLE = "player_invariant"
    PLAYER_SPECIFIC_TABLE = "player_specific"


Matrix = tuple[tuple[Fraction, ...], ...]  # Q rows (quality) x n cols (load)

# the fields besides `kind` that each kind carries: exactly one of these sets
_KIND_FIELDS = {
    PaymentKind.PROPORTIONAL: (frozenset(),),
    PaymentKind.EQUAL_SHARING: (frozenset(),),
    PaymentKind.KTOP: (frozenset({"K"}),),
    PaymentKind.OBLIVIOUS_TABLE: (frozenset({"matrix"}), frozenset({"matrices"})),
    PaymentKind.PLAYER_INVARIANT_TABLE: (frozenset({"invariant_table"}),),
    PaymentKind.PLAYER_SPECIFIC_TABLE: (frozenset({"profile_table"}),
                                        frozenset({"loads_table"})),
}


@dataclass(frozen=True)
class PaymentFunction:
    """Tagged payment family plus whatever tables its kind requires.

    Oblivious tables map (own quality, load on it) to a payment; a
    shared matrix is player-invariant, per-player matrices are not.
    Player-invariant tables map (own quality, full load vector).
    Player-specific tables map either (player, full profile) or
    (player, own quality, load vector); the player-specific concavity
    checker and contiguous solver take the load-vector form and
    per-player matrices.  A kind carries exactly the fields
    `_KIND_FIELDS` lists for it, which `validate_shape` enforces.
    """

    kind: PaymentKind
    K: Optional[int] = None
    matrix: Optional[Matrix] = None
    matrices: Optional[tuple[Matrix, ...]] = None
    invariant_table: Optional[Mapping[tuple[int, Loads], Fraction]] = None
    profile_table: Optional[Mapping[tuple[int, Profile], Fraction]] = None
    loads_table: Optional[Mapping[tuple[int, int, Loads], Fraction]] = None

    def validate_shape(self, n: int, Q: int) -> None:
        """Reject a field the kind does not carry, and keys or entries outside the game."""
        present = frozenset(f.name for f in fields(self)
                            if f.name != "kind" and getattr(self, f.name) is not None)
        if present not in _KIND_FIELDS[self.kind]:
            allowed = " or ".join(", ".join(sorted(names)) or "nothing"
                                  for names in _KIND_FIELDS[self.kind])
            raise GameValidationError(
                f"{self.kind.value} payments take {allowed}; got "
                f"{', '.join(sorted(present)) or 'nothing'}")
        if self.K is not None and not 1 <= self.K <= Q:
            raise GameValidationError("K-Top requires K in 1..Q")
        if self.matrices is not None and len(self.matrices) != n:
            raise GameValidationError("need one oblivious matrix per player")
        mats = self.matrices if self.matrix is None else (self.matrix,)
        for mat in mats or ():
            if len(mat) != Q or any(len(row) != n for row in mat):
                raise GameValidationError("oblivious matrices must be Q x n")
            if any(entry < 0 for row in mat for entry in row):
                raise GameValidationError("oblivious payments must be >= 0")
        for (q, loads), pay in (self.invariant_table or {}).items():
            if (not 1 <= q <= Q or len(loads) != Q or min(loads) < 0
                    or sum(loads) != n):
                raise GameValidationError(f"bad invariant-table key {(q, loads)}")
            if loads[q - 1] < 1:
                raise GameValidationError(
                    f"invariant-table key {(q, loads)}: quality unoccupied"
                )
            if pay < 0:
                raise GameValidationError("invariant payments must be >= 0")
        for (i, prof) in self.profile_table or ():
            if (not 1 <= i <= n or len(prof) != n
                    or any(not 1 <= q <= Q for q in prof)):
                raise GameValidationError(f"bad profile-table key {(i, prof)}")
        held = 0  # loads-table keys at an occupied quality
        for (i, q, loads) in self.loads_table or ():
            if (not 1 <= i <= n or not 1 <= q <= Q or len(loads) != Q
                    or min(loads) < 0 or sum(loads) != n):
                raise GameValidationError(f"bad loads-table key {(i, q, loads)}")
            held += loads[q - 1] >= 1
        # keys are distinct and in range, so a table is complete exactly when it
        # holds as many keys as the game has entries; a loads-table key at an
        # unoccupied quality is legal but names no entry
        occupied = Q * comb(n + Q - 2, Q - 1)  # the (q, L) with L_q >= 1
        if self.invariant_table is not None:
            held, need = len(self.invariant_table), occupied
        elif self.profile_table is not None:
            held, need = len(self.profile_table), n * Q**n
        elif self.loads_table is not None:
            need = n * occupied
        else:
            return
        if held != need:
            raise GameValidationError(
                f"{self.kind.value} table is incomplete: it has {held} of the "
                f"{need} entries a {n}-player, {Q}-quality game needs")

    @property
    def declared_player_invariant(self) -> bool:
        """Every kind but the player-specific tables and per-player matrices."""
        return self.kind is not PaymentKind.PLAYER_SPECIFIC_TABLE and self.matrices is None

    @property
    def declared_oblivious(self) -> bool:
        return self.kind in (PaymentKind.EQUAL_SHARING, PaymentKind.KTOP,
                             PaymentKind.OBLIVIOUS_TABLE)


def proportional() -> PaymentFunction:
    return PaymentFunction(kind=PaymentKind.PROPORTIONAL)


def equal_sharing() -> PaymentFunction:
    return PaymentFunction(kind=PaymentKind.EQUAL_SHARING)


def ktop(K: int) -> PaymentFunction:
    return PaymentFunction(kind=PaymentKind.KTOP, K=K)


def oblivious_table(matrix: Optional[Matrix] = None,
                    matrices: Optional[tuple[Matrix, ...]] = None) -> PaymentFunction:
    return PaymentFunction(kind=PaymentKind.OBLIVIOUS_TABLE,
                           matrix=matrix, matrices=matrices)


def player_invariant_table(table: Mapping[tuple[int, Loads], Fraction]) -> PaymentFunction:
    return PaymentFunction(kind=PaymentKind.PLAYER_INVARIANT_TABLE,
                           invariant_table=dict(table))


def player_specific_table(
    profile_table: Optional[Mapping[tuple[int, Profile], Fraction]] = None,
    loads_table: Optional[Mapping[tuple[int, int, Loads], Fraction]] = None,
) -> PaymentFunction:
    return PaymentFunction(
        kind=PaymentKind.PLAYER_SPECIFIC_TABLE,
        profile_table=dict(profile_table) if profile_table is not None else None,
        loads_table=dict(loads_table) if loads_table is not None else None,
    )


def load_of(profile: Profile, Q: int) -> Loads:
    """Per-quality occupancy counts of a profile; sums to len(profile)."""
    loads = [0] * Q
    for q in profile:
        loads[q - 1] += 1
    return tuple(loads)


def normalization_constant(game: "ContestGame") -> Fraction:
    """Exact inverse of the maximum payout sum of an equal-sharing or K-Top game.

    For any profile the payout sum is the total effort of the occupied
    paid qualities (the top K, where equal sharing has K = Q), so the
    maximum is the sum of the min(n, K) largest paid efforts.
    """
    kind = game.payment.kind
    if kind not in (PaymentKind.EQUAL_SHARING, PaymentKind.KTOP):
        raise PreconditionError(f"no normalization constant for {kind.value} payments")
    K = game.payment.K or game.Q
    return ONE / sum(game.efforts[game.Q - K:][-game.n:], ZERO)


def compositions(n: int, Q: int) -> Iterator[Loads]:
    """All load vectors (compositions of n into Q parts), colexicographic.

    An odometer, so any Q works without recursion: the successor of L
    moves one unit from its first nonzero entry L_j to L_{j+1} and the
    rest of L_j to L_1.  The last vector puts all n on quality Q.
    """
    loads = [n] + [0] * (Q - 1)
    while True:
        yield tuple(loads)
        if loads[-1] == n:
            return
        j = 0
        while not loads[j]:
            j += 1
        rest = loads[j] - 1
        loads[j] = 0
        loads[j + 1] += 1
        loads[0] = rest


def payer(game: "ContestGame") -> Callable[[Optional[int], int, Key], Ratio]:
    """The payment lookup of `game`: pay(player, quality, key).

    `key` is the load vector, or the full profile under profile-keyed
    tables, and `quality` is the player's own quality in it.  Player-
    invariant kinds ignore `player`, which may then be None.  This is the
    one place that turns a payment kind into a payment; the equal-sharing
    and K-Top normalization constants are resolved once, here.  Tables
    are complete (`PaymentFunction.validate_shape`), so every key inside
    the game is a plain lookup; the payer trusts its keys.  A payment is
    its `Fraction.as_integer_ratio()` pair: lowest terms, positive
    denominator, so equal payments have equal pairs.
    """
    pf = game.payment
    kind = pf.kind
    efforts = game.efforts
    if kind is PaymentKind.PROPORTIONAL:
        # f_q / sum(L_a f_a) is unchanged when every effort is scaled to an integer
        scale = lcm(*[f.denominator for f in efforts])
        weights = tuple(f.numerator * (scale // f.denominator) for f in efforts)

        def pay(player: Optional[int], quality: int, loads: Key) -> Ratio:
            total = sum(map(mul, loads, weights))
            if total == 0:
                return (0, 1)  # voluntary, everyone at quality 1: defined as 0
            weight = weights[quality - 1]
            g = gcd(weight, total)
            return (weight // g, total // g)
    elif kind in (PaymentKind.EQUAL_SHARING, PaymentKind.KTOP):
        c = normalization_constant(game)
        unpaid = game.Q - (pf.K or game.Q)  # K-Top pays the top K only
        shares = tuple((0, 1) if q <= unpaid else (c * f).as_integer_ratio()
                       for q, f in enumerate(efforts, 1))  # c * f_q in lowest terms

        def pay(player: Optional[int], quality: int, loads: Key) -> Ratio:
            num, den = shares[quality - 1]
            load = loads[quality - 1]
            g = gcd(num, load)  # num is coprime to den, so this reduces num / (den * load)
            return (num // g, den * (load // g))
    elif kind is PaymentKind.OBLIVIOUS_TABLE:
        # a shared matrix is player-invariant, so `player` may be None: read it as 1
        mats = pf.matrices or (pf.matrix,) * game.n

        def pay(player: Optional[int], quality: int, loads: Key) -> Ratio:
            mat = mats[(player or 1) - 1]
            return mat[quality - 1][loads[quality - 1] - 1].as_integer_ratio()
    elif kind is PaymentKind.PLAYER_INVARIANT_TABLE:
        inv = pf.invariant_table
        assert inv is not None

        def pay(player: Optional[int], quality: int, loads: Key) -> Ratio:
            return inv[(quality, tuple(loads))].as_integer_ratio()
    elif pf.profile_table is not None:
        by_profile = pf.profile_table

        def pay(player: Optional[int], quality: int, profile: Key) -> Ratio:
            return by_profile[(player, tuple(profile))].as_integer_ratio()
    else:
        by_loads = pf.loads_table
        assert by_loads is not None

        def pay(player: Optional[int], quality: int, loads: Key) -> Ratio:
            return by_loads[(player, quality, tuple(loads))].as_integer_ratio()
    return pay


def validate_profile(game: "ContestGame", profile: Profile) -> None:
    if len(profile) != game.n:
        entries = "1 entry" if len(profile) == 1 else f"{len(profile)} entries"
        raise GameValidationError(f"profile has {entries}; the game has {game.n} players")
    for q in profile:
        if not isinstance(q, int) or not 1 <= q <= game.Q:
            raise GameValidationError(f"quality {q!r} outside 1..{game.Q}")


def _payment_key(game: "ContestGame", profile: Profile) -> Key:
    """The payer's key for `profile`: itself under a profile-keyed table, else its loads."""
    return profile if game.payment.profile_table is not None else load_of(profile, game.Q)


def evaluate_payment(game: "ContestGame", profile: Profile, player: int) -> Fraction:
    """Payment awarded to `player` (1-indexed) under `profile`."""
    validate_profile(game, profile)
    if not isinstance(player, int) or not 1 <= player <= game.n:
        raise GameValidationError(f"player {player!r} outside 1..{game.n}")
    return Fraction(*payer(game)(player, profile[player - 1], _payment_key(game, profile)))


def payment_on_loads(game: "ContestGame", quality: int, loads: Loads) -> Fraction:
    """Player-invariant payment for choosing `quality` under `loads`.

    Defined where the payment is `declared_player_invariant`, and only
    where `quality` is occupied.
    """
    _require_invariant(game, "payment_on_loads")
    _check_key(game, quality, loads)
    return Fraction(*payer(game)(None, quality, loads))


def specific_payment_on_loads(game: "ContestGame", player: int, quality: int,
                              loads: Loads) -> Fraction:
    """Player-specific payment in the (own quality, load vector) key form."""
    _require_loads_keyed(game, "specific_payment_on_loads")
    if not isinstance(player, int) or not 1 <= player <= game.n:
        raise GameValidationError(f"player {player!r} outside 1..{game.n}")
    _check_key(game, quality, loads)
    return Fraction(*payer(game)(player, quality, loads))


def _require_invariant(game: "ContestGame", caller: str) -> None:
    """The one test of the player-invariant declared forms, for every caller."""
    if not game.payment.declared_player_invariant:
        raise PreconditionError(f"{caller} needs a player-invariant payment")


def _require_loads_keyed(game: "ContestGame", caller: str) -> None:
    """The one test of the player-specific (player, own quality, load vector) form.

    It holds for player-specific loads tables and per-player oblivious
    matrices: every payment neither profile-keyed nor declared
    player-invariant.
    """
    pf = game.payment
    if pf.profile_table is not None or pf.declared_player_invariant:
        raise PreconditionError(
            f"{caller} needs payments keyed by (player, own quality, load vector)")


def _check_key(game: "ContestGame", quality: int, loads: Loads) -> None:
    """Reject a quality outside 1..Q, a load vector of the wrong length,
    with a negative entry or not summing to n, and an unoccupied quality.

    Only the public wrappers check; the payer itself trusts its keys.
    """
    if not isinstance(quality, int) or not 1 <= quality <= game.Q:
        raise GameValidationError(f"quality {quality!r} outside 1..{game.Q}")
    if len(loads) != game.Q:
        raise GameValidationError("load vector must have one entry per quality")
    if min(loads) < 0 or sum(loads) != game.n:
        raise GameValidationError("loads must be non-negative and sum to n")
    if loads[quality - 1] < 1:
        raise PreconditionError(f"quality {quality} is unoccupied at loads {loads}")


class Classification(NamedTuple):
    oblivious: bool
    player_invariant: bool


def classify(game: "ContestGame") -> Classification:
    """Decide the paper's two payment classes from the keys the payer reads.

    Oblivious: each player's payment is a function of their own quality
    q and its load L_q, so the payments at each key (i, q, L_q) agree.
    Player-invariant: one function of (own quality, load vector) pays
    every player, so the payments at each key (q, L) agree.  Together
    they give one payment per (q, L_q), whoever holds q: for load
    vectors L, L' with L_q = L'_q >= 1, any player i can hold q at
    either, so pay(q, L) = pay_i(q, L_q) = pay(q, L').

    Every key (i, q, L) with L_q >= 1 is some profile's (put i at q and
    spread the rest of L over the others), so the walk reads the payer
    at those keys only, with player None if the payment is declared
    player-invariant, or at a profile-keyed table's own entries.  Kinds
    declared oblivious read nothing: per-player matrices are invariant
    exactly when equal, as every entry is read for every player.  The
    walk stops once every class still open has failed, so it needs no
    cap: a table is read at most once per key, and proportional
    allocation reads O(n) keys (2n at Q = 2, at most 2(n + 3) above).
    """
    pf = game.payment
    if pf.declared_oblivious:
        mats = pf.matrices or ()
        return Classification(True, all(mat == mats[0] for mat in mats))
    declared = pf.declared_player_invariant
    if pf.profile_table is not None:
        keys = ((i, prof[i - 1], prof, load_of(prof, game.Q)) for i, prof in pf.profile_table)
    else:
        players = (None,) if declared else game.players()
        keys = ((i, q, loads, loads) for loads in compositions(game.n, game.Q)
                for q in game.qualities() if loads[q - 1] for i in players)
    oblivious = invariant = True
    own: dict[tuple[Optional[int], int, int], Ratio] = {}
    shared: dict[tuple[int, Loads], Ratio] = {}
    pay = payer(game)
    for i, q, key, loads in keys:
        value = pay(i, q, key)
        if oblivious and own.setdefault((i, q, loads[q - 1]), value) != value:
            oblivious = False
        if not declared and invariant and shared.setdefault((q, loads), value) != value:
            invariant = False
        if not oblivious and (declared or not invariant):
            break
    return Classification(oblivious=oblivious, player_invariant=invariant)
