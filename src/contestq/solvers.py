"""Equilibrium computation: brute force, concavity checks, contiguous search.

Brute force searches all Q^n profiles, one load vector at a time
except under profile-keyed tables.  For payments that satisfy
the three-discrete-concavity inequalities, an equilibrium can be sought
among contiguous assignments only: sort players by non-increasing
skill, hand the first block to quality 1, the next to quality 2, and so
on.  There are exactly C(n+Q-1, Q-1) contiguous load vectors, turning
the search polynomial for constant Q.

The concavity checkers quantify the exchange inequality over every load
vector and every triple of pairwise-distinct qualities, plus a swap
inequality for every quality pair (the form the inversion-swap argument
uses when the deviation target is the partner's quality; at Q = 2 it is
the only non-vacuous instance).  Perturbations that would drive a load
negative are skipped.  Under product costs concavity guarantees a
contiguous equilibrium, which makes the contiguous enumeration
complete.  A stable contiguous profile is an equilibrium whatever the
payment, so the contiguous solvers run a checker only to prove a miss,
and only under product costs.  The solvers'
agreement with brute force on checker-certified instances is the
module's master property.  The scans stay exact without `Fraction`
sums: each payment is read once, into a row of integers over that row's
own common denominator, and the inequalities compare integers.  The
payment form a checker or solver accepts is tested in `payments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, compress, product
from math import comb, lcm
from typing import Mapping, Optional, Sequence

from .errors import CapExceededError, ContigufyError, GameValidationError, PreconditionError
from .game import (
    ContestGame,
    Loads,
    Participation,
    Profile,
    StabilityKernel,
    _product_game,
    _shift,
    is_pne,
    load_of,
)
from .payments import (
    PaymentKind,
    _require_invariant,
    _require_loads_keyed,
    compositions,
    payer,
    player_specific_table,
)


@dataclass(frozen=True)
class BruteForceResult:
    found: Optional[Profile]
    all: Optional[tuple[Profile, ...]]
    scanned: int


DEFAULT_PROFILE_CAP = 10**6  # most profiles `brute_force_pne` enumerates


def brute_force_pne(game: ContestGame, find_all: bool = False,
                    cap: int = DEFAULT_PROFILE_CAP) -> BruteForceResult:
    """Search all Q^n profiles for pure Nash equilibria.

    Returns the first equilibrium in lexicographic profile order, and
    with `find_all` the complete equilibrium set.  Except under
    profile-keyed tables, the profiles are searched one load vector L at
    a time, by `_stable_profiles`: at most n*Q*C(n+Q-1, Q-1) `stays`
    tests, plus the branches they leave.  Load vectors come in ascending
    order of their smallest profile 1^{L_1} 2^{L_2} ..., and the first-hit
    search stops at the first whose smallest profile is not below the
    least first equilibrium of those visited.  Profile-keyed tables cost
    one `stable` test per profile: n*Q^n utility comparisons.
    """
    if cap < 0:
        raise PreconditionError(f"cap must be >= 0, got {cap}")
    count = game.Q**game.n
    if count > cap:
        raise CapExceededError(f"{count} profiles exceed the cap {cap}")
    kernel = StabilityKernel(game)
    qualities = game.qualities()
    by_loads = ((smallest, tuple(map(smallest.count, qualities)))
                for smallest in combinations_with_replacement(qualities, game.n))
    if game.payment.profile_table is not None:
        hits = (p for p in product(qualities, repeat=game.n) if kernel.stable(p))
        if not find_all:
            return BruteForceResult(next(hits, None), None, count)
        every = tuple(hits)
    elif find_all:
        every = tuple(sorted(chain.from_iterable(
            _stable_profiles(kernel, loads) for _, loads in by_loads)))
    else:
        best = (game.Q + 1,) * game.n  # above every profile
        for smallest, loads in by_loads:
            if smallest >= best:
                break
            best = min([best, *_stable_profiles(kernel, loads, first=True)])
        return BruteForceResult(best if best[0] <= game.Q else None, None, count)
    return BruteForceResult(every[0] if every else None, every, count)


def _stable_profiles(kernel: StabilityKernel, loads: Loads, first: bool = False) -> list[Profile]:
    """The equilibria with load vector `loads` in lexicographic order, or the first.

    Players are placed in index order, each trying the qualities with
    room left in ascending order, and a branch is cut where the player
    would leave the quality it tries, so each (player, quality) is
    decided at most once.  `choice` is the stack of the search: player
    i's entry is the quality it holds, or 0 before its first try.
    """
    n = sum(loads)
    Q = len(loads)
    room = list(loads)
    choice = [0] * n
    verdicts: list[Optional[bool]] = [None] * (n * Q)  # slot Q*(i-1) + a-1
    found: list[Profile] = []
    i = 1  # the player to move on to its next quality
    while i:
        tried = choice[i - 1]
        if tried:
            room[tried - 1] += 1
        slot = Q * (i - 1) - 1
        for a in range(tried + 1, Q + 1):
            if room[a - 1]:
                ok = verdicts[slot + a]
                if ok is None:
                    ok = verdicts[slot + a] = kernel.stays(i, a, loads)
                if ok:
                    break
        else:  # no quality left for player i: back to player i - 1
            choice[i - 1] = 0
            i -= 1
            continue
        room[a - 1] -= 1
        choice[i - 1] = a
        if i < n:
            i += 1
        else:
            found.append(tuple(choice))
            if first:
                break
    return found


# ---------------------------------------------------------------------------
# Three-discrete-concavity


@dataclass(frozen=True)
class ConcavityViolation:
    player: Optional[int]  # None for player-invariant payments
    loads: Loads
    q_i: int
    q_k: int
    q: int


@dataclass(frozen=True)
class ConcavityReport:
    holds: bool
    violation: Optional[ConcavityViolation] = None

    def __bool__(self) -> bool:
        return self.holds


def _concavity_scan(game: ContestGame,
                    players: Sequence[Optional[int]]) -> ConcavityReport:
    """Shared quantification for both concavity definitions.

    Payments are read through `payer`; `players` is [None] in the
    player-invariant case.  Load vectors are taken in colex order, then
    players, then (q_i, q_k, q) as the inequalities are listed in the
    module docstring, and the first violated inequality is reported.
    The swap inequality is symmetric in q_i and q_k, so it is tested once,
    at q_i < q_k, which comes first in that order.

    The neighbourhood of (L, i) reads, for every occupied a, the row
    pay(i, b, L - e_a + e_b) over all b (b = a is L itself).  That row
    depends on D = L - e_a alone, and each payment lies in exactly one
    row, D = L' - e_b.  Rows are kept in a dict keyed by D and read when
    first needed, through `payer`, for every player at once: each row
    holds integers over one lcm of its own, shared by all players, so
    each payment is read once.  An inequality between two rows compares
    integers cross-multiplied by the two rows' lcms, with no `Fraction`
    built.  A load vector with one occupied quality has no inequality and
    reads nothing, and an early violation reads only its own rows.  Every
    key read is in the game, and tables are complete, so every read finds
    a payment.
    """
    Q = game.Q
    pay = payer(game)
    qualities = range(1, Q + 1)
    rows: dict[Loads, tuple[int, list[int]]] = {}  # D -> (d, [d * pay(i, b, D + e_b)] over i, b)
    for loads in compositions(game.n, Q):
        occupied = tuple(compress(qualities, loads))
        if len(occupied) < 2:
            continue
        grid = []  # grid[r] is the row of a = occupied[r]
        for a in occupied:
            row = loads[:a - 1] + (loads[a - 1] - 1,) + loads[a:]  # L - e_a
            if row not in rows:
                keys = [(b, _shift(loads, a, b)) for b in qualities]  # (b, D + e_b)
                ratios = [pay(i, b, key) for i in players for b, key in keys]
                d = lcm(*[den for _, den in ratios])
                rows[row] = (d, [num * (d // den) for num, den in ratios])
            grid.append(rows[row])
        for t, i in enumerate(players):
            at = Q * t - 1  # a row's slot at + b holds player i's payment at quality b
            for (d_i, row_i), q_i in zip(grid, occupied):
                base = row_i[at + q_i]
                for (d_k, row_k), q_k in zip(grid, occupied):
                    if q_k == q_i:
                        continue
                    # swap inequality: deviations into the partner's quality
                    if q_k > q_i and ((row_i[at + q_k] - base) * d_k
                                      > (row_k[at + q_k] - row_k[at + q_i]) * d_i):
                        return ConcavityReport(False, ConcavityViolation(
                            i, loads, q_i, q_k, q_k))
                    for q in qualities:
                        if q != q_i and q != q_k and (
                                row_k[at + q] * d_i > (2 * base - row_i[at + q]) * d_k):
                            return ConcavityReport(False, ConcavityViolation(
                                i, loads, q_i, q_k, q))
    return ConcavityReport(True)


def is_three_discrete_concave_specific(game: ContestGame) -> ConcavityReport:
    """Concavity check for player-specific payments on load vectors."""
    _require_loads_keyed(game, "the player-specific checker")
    return _concavity_scan(game, list(game.players()))


def is_three_discrete_concave_invariant(game: ContestGame) -> ConcavityReport:
    """Concavity check for player-invariant payments."""
    _require_invariant(game, "the player-invariant checker")
    return _concavity_scan(game, [None])


def concavity_report(game: ContestGame) -> ConcavityReport:
    """The player-invariant checker where the payment is declared so, else the specific one."""
    if game.payment.declared_player_invariant:
        return is_three_discrete_concave_invariant(game)
    return is_three_discrete_concave_specific(game)


# ---------------------------------------------------------------------------
# Contiguity


def skill_order(game: ContestGame) -> tuple[int, ...]:
    """Players sorted by non-increasing skill, ties by index: the (-s_i, i) order.

    Each skill p/q becomes the integer floor(p * 2^k / q), with 2^k at
    least the square of every denominator.  Two distinct skills differ by
    at least 1/(q q') > 2^-k, so their keys differ in the same direction,
    and equal skills share a key: the keys order the players exactly,
    with no `Fraction` compared and no lcm of the denominators.  A
    `reverse=True` sort is stable, so ties keep index order.
    """
    ratios = [s.as_integer_ratio() for s in game.skills]
    shift = 2 * max([q for _, q in ratios]).bit_length()
    keys = [(p << shift) // q for p, q in ratios]
    return tuple(sorted(game.players(), key=lambda i: keys[i - 1], reverse=True))


@dataclass(frozen=True)
class ContiguousAssignment:
    """A load vector plus the block assignment it induces.

    Players are taken in non-increasing skill order and handed out
    left-to-right: the first loads[0] of them choose quality 1, the
    next loads[1] choose quality 2, and so on.  `profile` is indexed by
    the original player numbering.
    """

    loads: Loads
    profile: Profile


def contiguous_assignment(game: ContestGame, loads: Loads) -> ContiguousAssignment:
    return _contiguous(game, skill_order(game), loads)


def _contiguous(game: ContestGame, order: tuple[int, ...],
                loads: Loads) -> ContiguousAssignment:
    """`contiguous_assignment` with the skill order already computed."""
    choice = [0] * game.n
    pos = 0
    for q in game.qualities():
        for _ in range(loads[q - 1]):
            choice[order[pos] - 1] = q
            pos += 1
    return ContiguousAssignment(loads=tuple(loads), profile=tuple(choice))


def contigufy(game: ContestGame, pne: Profile) -> Profile:
    """The contiguous profile with the equilibrium's load vector.

    Swapping inverted pairs (an earlier skill rank at a higher quality)
    keeps the loads and ends exactly at this block assignment, an
    equilibrium too under concave payments and product costs.  It is
    re-verified, and a failure raises instead of returning silently.
    """
    verdict = is_pne(game, pne)
    if not verdict:
        raise PreconditionError(f"contigufy needs an equilibrium; got {verdict.witness}")
    result = contiguous_assignment(game, load_of(pne, game.Q)).profile
    if not is_pne(game, result):
        raise ContigufyError(f"the contiguous profile {result} is not an equilibrium")
    return result


# ---------------------------------------------------------------------------
# Contiguous-enumeration solvers


@dataclass(frozen=True)
class SolveOutcome:
    assignment: Optional[ContiguousAssignment]
    candidates: int


def solve_contiguous_specific(game: ContestGame) -> SolveOutcome:
    """Search contiguous load vectors under player-specific payments.

    Every candidate is vetted by the full no-switch condition: no
    player gains by any switch (`StabilityKernel.stays` for each player,
    block by block, in `_scan_candidates`), and a hit is re-checked by
    `is_pne`.  The first satisfying candidate in
    colexicographic order wins, whatever the payment.  The payment form
    is checked first; only a miss goes to `_prove_miss`, which must prove
    the answer "none" or raise `PreconditionError`.  A hit walks the
    candidates lazily, but a miss costs the full enumeration before the
    proof runs, even where the proof would fail at once.
    """
    _require_loads_keyed(game, "the player-specific solver")
    return _prove_miss(game, _scan_candidates(game))


def solve_contiguous_invariant(game: ContestGame) -> SolveOutcome:
    """Search contiguous load vectors under player-invariant payments.

    Candidates, the payment form and a miss are handled as in
    `solve_contiguous_specific`.
    """
    _require_invariant(game, "the player-invariant solver")
    return _prove_miss(game, _scan_candidates(game))


def _scan_candidates(game: ContestGame) -> SolveOutcome:
    """The first contiguous profile, in colex load order, that is stable.

    Load vectors are generated one at a time and the scan stops at the
    first hit.  A candidate is tested block by block, straight from the
    skill order and its load vector: the players of quality q's block
    each get `StabilityKernel.stays` at q, the block's two end players
    first (the ones next to another block), then its interior, and the
    first player who would switch rejects the candidate.  Only the hit's
    profile is built, and it is re-checked by `is_pne` on a fresh kernel,
    so the answer does not rest on the scan's memo.  The outcome reports
    the full enumeration size C(n+Q-1, Q-1).
    """
    kernel = StabilityKernel(game)
    order = skill_order(game)
    count = comb(game.n + game.Q - 1, game.Q - 1)
    for loads in compositions(game.n, game.Q):
        if _blocks_stay(kernel, order, loads):
            break
    else:
        return SolveOutcome(None, count)
    assignment = _contiguous(game, order, loads)
    verdict = is_pne(game, assignment.profile)
    if not verdict:
        raise ContigufyError(
            f"candidate {assignment.loads} passed the kernel check but "
            f"fails the profile check: {verdict.witness}"
        )
    return SolveOutcome(assignment, count)


def _blocks_stay(kernel: StabilityKernel, order: tuple[int, ...], loads: Loads) -> bool:
    """No player of the contiguous profile of `loads` gains by a switch."""
    end = 0
    for q, load in enumerate(loads, 1):
        if load:
            block = order[end:end + load]
            end += load
            # the block's two ends first: its last player, then on from its first
            if not all(kernel.stays(i, q, loads) for i in (block[-1], *block[:-1])):
                return False
    return True


def _product_costs(game: ContestGame) -> bool:
    """Every cost is s_i*f_q: the product form, or a table holding it."""
    table = game.cost.table
    return table is None or all(row == tuple(skill * f for f in game.efforts)
                                for skill, row in zip(game.skills, table))


def _prove_miss(game: ContestGame, outcome: SolveOutcome) -> SolveOutcome:
    """Return a hit untouched, and a miss only where it proves "none": the
    existence theorem needs costs s_i*f_q and three-discrete-concavity."""
    if outcome.assignment is not None:
        return outcome
    if not _product_costs(game):
        raise PreconditionError(
            "costs are not of product form s_i*f_q, so a contiguous miss proves nothing")
    report = concavity_report(game)
    if not report:
        raise PreconditionError(f"payments are not three-discrete-concave: {report.violation}")
    return outcome


# ---------------------------------------------------------------------------
# Constant-time solver for lower-bounded skills


def solve_all_at_lowest(game: ContestGame) -> Optional[Profile]:
    """All-players-at-quality-1, valid when skills dominate f2/(f2-f1).

    Requires proportional allocation, mandatory participation, and
    product costs.  Returns (1, ..., 1) when both

    * min skill >= f2 / (f2 - f1), and
    * f2 >= 1 - 1/n (the effort normalization),

    and None otherwise, where the guarantee is silent.  Proportional
    payments do not change when every effort is scaled but costs do, so
    the skill bound alone is not enough.  Together the two conditions
    give, for a switch to any quality q >= 2, s*(f_q - f1) >= f2 >=
    1 - 1/n > f_q/((n-1)*f1 + f_q) - 1/n: the gain is never positive.
    """
    if game.payment.kind is not PaymentKind.PROPORTIONAL:
        raise PreconditionError("requires proportional allocation")
    if game.participation is not Participation.MANDATORY:
        raise PreconditionError("requires mandatory participation")
    if not _product_costs(game):
        raise PreconditionError("requires product skill-effort costs")
    f1, f2 = game.efforts[0], game.efforts[1]
    if min(game.skills) < f2 / (f2 - f1) or f2 < 1 - Fraction(1, game.n):
        return None
    profile = (1,) * game.n
    verdict = is_pne(game, profile)
    if not verdict:  # pragma: no cover - contradicts the docstring's proof
        raise AssertionError(f"both conditions held but deviation exists: {verdict.witness}")
    return profile


# ---------------------------------------------------------------------------
# Normal-form reduction


def reduce_from_normal_form(
    payoffs: Sequence[Mapping[Profile, Fraction]],
    skills: Optional[Sequence[Fraction]] = None,
    efforts: Optional[Sequence[Fraction]] = None,
) -> ContestGame:
    """Embed a finite normal-form game as a contest game.

    Strategy s of player i becomes quality s; the player-specific
    payment at a profile is the normal-form payoff plus the player's
    cost there, so utilities coincide with the payoffs and the two
    games have identical equilibrium sets.
    """
    n = len(payoffs)
    if n < 2:
        raise PreconditionError("need at least two players")
    for i, table in enumerate(payoffs, 1):
        if not table:
            raise PreconditionError(f"payoff table for player {i} is empty")
    some_profile = next(iter(payoffs[0]))
    m = max(max(p) for table in payoffs for p in table)
    if m < 2:
        raise PreconditionError("need at least two strategies")
    if len(some_profile) != n:
        raise PreconditionError("payoff keys must be full profiles")
    skills_t = tuple(skills) if skills is not None else (Fraction(1),) * n
    efforts_t = tuple(efforts) if efforts is not None else tuple(
        Fraction(s) for s in range(1, m + 1))
    if len(skills_t) != n:
        raise GameValidationError("skills must have one entry per player")
    if len(efforts_t) != m:
        raise GameValidationError("efforts must have one entry per quality")
    table: dict[tuple[int, Profile], Fraction] = {}
    for profile in product(range(1, m + 1), repeat=n):
        for i in range(1, n + 1):
            payoff = payoffs[i - 1].get(profile)
            if payoff is None:
                raise PreconditionError(
                    f"payoff table for player {i} misses profile {profile}")
            cost_here = skills_t[i - 1] * efforts_t[profile[i - 1] - 1]
            table[(i, profile)] = payoff + cost_here
    return _product_game(n, m, skills_t, efforts_t,
                         player_specific_table(profile_table=table))
