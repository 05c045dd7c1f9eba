"""Built-in instances with self-checking certificates, plus random games.

The catalog carries the hand-constructed games that witness the
library's headline facts: two-player games with no pure equilibrium
(a winner-take-all tie game, a proportional-allocation game with
carefully skewed skills, and a Matching-Pennies-style player-specific
game), the proportional-allocation families whose improvement dynamics
always converge, and the lower-bounded-skill family where everyone
playing quality 1 is an equilibrium.  Each instance knows how to verify
its own certificate at desk scale.

Random generators are fully seeded; concave draws are certified by the
concavity checkers before being returned.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import (
    PathStatus,
    analyze_graph,
    check_no_switch_lemma,
    improvement_steps,
    run_improvement_path,
)
from .errors import GameValidationError, PreconditionError
from .game import ContestGame, Profile, _product_game, is_pne
from .payments import (
    PaymentFunction,
    compositions,
    oblivious_table,
    player_invariant_table,
    player_specific_table,
    proportional,
)
from .solvers import (
    brute_force_pne,
    concavity_report,
    solve_all_at_lowest,
)

F = Fraction
INSTANCE_IDS = ("ce1", "ce2", "matching_pennies", "fip_voluntary",
                "fip_mandatory", "natasa")


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CertificateReport:
    instance: str
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


@dataclass(frozen=True)
class NamedInstance:
    id: str
    params: dict
    game: ContestGame


def _winner_take_all_payment(n: int, Q: int) -> PaymentFunction:
    """Payment 1 to the strictly highest quality, split evenly on ties."""
    table: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for loads in compositions(n, Q):
        top = max(q for q in range(1, Q + 1) if loads[q - 1] > 0)
        for q in range(1, Q + 1):
            if loads[q - 1] > 0:
                table[(q, loads)] = F(1, loads[top - 1]) if q == top else F(0)
    return player_invariant_table(table)


def build(instance_id: str, *, k: int = 2, n: int = 3, Q: int = 3,
          efforts: Optional[tuple[Fraction, ...]] = None) -> NamedInstance:
    """Construct a catalog instance by id.

    `natasa` gives every player the skill bound f2 / (f2 - f1).
    """
    if instance_id == "ce1":
        game = _product_game(2, 3, (F(1, 3), F(1, 3)), (F(1), F(2), F(3)),
                             _winner_take_all_payment(2, 3))
        return NamedInstance("ce1", {}, game)
    if instance_id == "ce2":
        if k < 2:
            raise PreconditionError("counterexample 2 needs k >= 2")
        s1 = 1 / (F(4 * k - 2) + F(1, k + 1))
        s2 = 1 / (F(4 * k + 2) + F(1, k + 1))
        game = _product_game(2, k + 1, (s1, s2), tuple(F(q) for q in range(1, k + 2)),
                             proportional())
        return NamedInstance("ce2", {"k": k}, game)
    if instance_id == "matching_pennies":
        big, small = F(1000), F(10)
        table: dict[tuple[int, Profile], Fraction] = {}
        for prof in ((1, 1), (1, 2), (2, 1), (2, 2)):
            diagonal = prof[0] == prof[1]
            table[(1, prof)] = big if diagonal else small
            table[(2, prof)] = small if diagonal else big
        game = _product_game(2, 2, (F(1), F(1)), (F(1), F(2)),
                             player_specific_table(profile_table=table))
        return NamedInstance("matching_pennies", {}, game)
    if instance_id == "fip_voluntary":
        game = _product_game(n, Q, (F(1),) * n, tuple(F(q - 1) for q in range(1, Q + 1)),
                             proportional())
        return NamedInstance("fip_voluntary", {"n": n, "Q": Q}, game)
    if instance_id == "fip_mandatory":
        game = _product_game(n, Q, (F(1),) * n, tuple(F(q) for q in range(1, Q + 1)),
                             proportional())
        return NamedInstance("fip_mandatory", {"n": n, "Q": Q}, game)
    if instance_id == "natasa":
        efforts_t = efforts if efforts is not None else tuple(
            F(q) for q in range(1, Q + 1))
        if n < 2 or len(efforts_t) < 2:  # before 1/n and f2 are read
            raise GameValidationError("natasa needs n >= 2 players and Q >= 2 qualities")
        if efforts_t[1] < 1 - F(1, n):
            raise PreconditionError(
                f"natasa needs the effort normalization f2 >= 1 - 1/n = "
                f"{1 - F(1, n)}; got f2 = {efforts_t[1]}")
        if efforts_t[0] == 0:
            raise GameValidationError("natasa needs mandatory participation, f_1 > 0")
        bound = efforts_t[1] / (efforts_t[1] - efforts_t[0])
        game = _product_game(n, len(efforts_t), (bound,) * n, efforts_t, proportional())
        return NamedInstance("natasa", {"n": n, "Q": len(efforts_t)}, game)
    raise PreconditionError(f"unknown instance {instance_id!r}; "
                            f"known: {', '.join(INSTANCE_IDS)}")


def _cycle_edges_present(game: ContestGame, cycle: list[Profile]) -> tuple[bool, str]:
    for a, b in zip(cycle, cycle[1:]):
        if b not in [step.apply(a) for step in improvement_steps(game, a)]:
            return False, f"missing improvement edge {a} -> {b}"
    return True, ""


def verify_certificate(instance: NamedInstance) -> CertificateReport:
    """Re-derive the instance's certified properties from scratch."""
    game = instance.game
    claims: list[ClaimResult] = []

    def claim(name: str, ok: bool, detail: str = "") -> None:
        claims.append(ClaimResult(name, ok, detail))

    if instance.id == "ce1":
        res = brute_force_pne(game, find_all=True)
        claim("no PNE among 9 profiles", res.all == () and res.scanned == 9,
              f"found {res.all}")
        cycle = [(1, 2), (3, 2), (3, 1), (2, 1), (2, 3), (1, 3), (1, 2)]
        ok, why = _cycle_edges_present(game, cycle)
        claim("best-response 6-cycle present", ok, why)
        walk = run_improvement_path(game, (1, 2), policy="best-response")
        claim("best-response walk cycles with period 6",
              walk.status is PathStatus.CYCLE and len(walk.cycle or ()) == 6,
              f"status {walk.status}")
    elif instance.id == "ce2":
        k = instance.params["k"]
        res = brute_force_pne(game, find_all=True)
        claim(f"no PNE among {(k + 1) ** 2} profiles",
              res.all == () and res.scanned == (k + 1) ** 2, f"found {res.all}")
        cycle = [(k, k + 1), (k - 1, k + 1), (k - 1, k), (k, k), (k, k + 1)]
        ok, why = _cycle_edges_present(game, cycle)
        claim("4-cycle present", ok, why)
    elif instance.id == "matching_pennies":
        res = brute_force_pne(game, find_all=True)
        claim("no PNE among 4 profiles", res.all == () and res.scanned == 4,
              f"found {res.all}")
        for start in ((1, 1), (1, 2), (2, 1), (2, 2)):
            walk = run_improvement_path(game, start, policy="best-response")
            ok = (walk.status is PathStatus.CYCLE and len(walk.cycle or ()) == 4
                  and set(walk.cycle or ()) == {(1, 1), (1, 2), (2, 1), (2, 2)})
            claim(f"best-response from {start} cycles with period 4", ok,
                  f"status {walk.status}, cycle {walk.cycle}")
    elif instance.id in ("fip_voluntary", "fip_mandatory"):
        n, Q = game.n, game.Q
        analysis = analyze_graph(game, mode="anonymous")
        claim("improvement graph acyclic", analysis.acyclic,
              f"witness {analysis.cycle_witness}")
        all_low = (n,) + (0,) * (Q - 1)
        nearly = (n - 1, 1) + (0,) * (Q - 2)
        expected = sorted([all_low, nearly]) if instance.id == "fip_voluntary" \
            else [all_low]
        claim(f"sinks are exactly {expected}", analysis.sinks == expected,
              f"got {analysis.sinks}")
        report = check_no_switch_lemma(game)
        claim("improvements only lower the deviator's quality", report.holds,
              f"{len(report.violations)} upward edges")
        if instance.id == "fip_voluntary":
            claim("boundary state (n-1, 1) has no step between qualities 1 and 2",
                  report.boundary_state_clean is True)
    elif instance.id == "natasa":
        f1, f2 = game.efforts[0], game.efforts[1]
        bound = f2 / (f2 - f1)
        claim("skill bound holds", min(game.skills) >= bound)
        profile = solve_all_at_lowest(game)
        claim("all-at-quality-1 is an equilibrium",
              profile == (1,) * game.n and bool(is_pne(game, profile)))
        if game.Q**game.n <= 10**4:
            res = brute_force_pne(game, find_all=True)
            claim("brute force confirms it", profile in (res.all or ()))
    else:  # pragma: no cover
        raise PreconditionError(f"no certificate for {instance.id!r}")
    return CertificateReport(instance.id, tuple(claims))


# ---------------------------------------------------------------------------
# Random games

FAMILIES = ("oblivious-invariant", "concave-specific", "concave-invariant",
            "proportional")


def random_game(seed: int, n: int, Q: int, family: str) -> ContestGame:
    """A reproducible random game of the given family.

    Concave draws are certified by the matching three-discrete-concavity
    checker and redrawn on failure; oblivious tables are scaled so every
    profile's payout sum is at most 1.
    """
    rng = _random.Random((seed, n, Q, family).__repr__())
    if family == "oblivious-invariant":
        return _random_oblivious_invariant(rng, n, Q)
    if family == "concave-specific":
        return _random_concave(rng, n, Q, specific=True)
    if family == "concave-invariant":
        return _random_concave(rng, n, Q, specific=False)
    if family == "proportional":
        return _random_proportional(rng, n, Q)
    raise PreconditionError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


def _random_efforts(rng: _random.Random, Q: int, voluntary: bool) -> tuple[Fraction, ...]:
    steps = [F(rng.randint(1, 4), rng.choice((1, 2))) for _ in range(Q)]
    start = F(0) if voluntary else steps[0]
    efforts = [start]
    for step in steps[1:]:
        efforts.append(efforts[-1] + step)
    return tuple(efforts)


def _random_skills(rng: _random.Random, n: int, scale: Fraction) -> tuple[Fraction, ...]:
    return tuple(scale * F(rng.randint(1, 8), 8) for _ in range(n))


def _random_oblivious_invariant(rng: _random.Random, n: int, Q: int) -> ContestGame:
    efforts = _random_efforts(rng, Q, rng.random() < 0.5)
    # per-(quality, load) payments, then scale so payout sums stay <= 1
    matrix = [[F(rng.randint(0, 12), 12) for _ in range(n)] for _ in range(Q)]
    peak = max(
        (sum((F(m) * matrix[q][m - 1] for q, m in enumerate(loads) if m > 0),
             F(0)) for loads in compositions(n, Q)),
        default=F(0),
    )
    if peak > 1:
        matrix = [[entry / peak for entry in row] for row in matrix]
    skills = _random_skills(rng, n, F(1, n * max(1, int(efforts[-1]))))
    return _product_game(n, Q, skills, efforts,
                         oblivious_table(matrix=tuple(tuple(row) for row in matrix)))


def _random_concave(rng: _random.Random, n: int, Q: int,
                    specific: bool) -> ContestGame:
    for _ in range(64):
        efforts = _random_efforts(rng, Q, rng.random() < 0.4)
        skills = _random_skills(rng, n, F(1, n * max(1, int(efforts[-1]))))
        denom = 4 * n
        game = _product_game(n, Q, skills, efforts,
                             _affine_payment(rng, n, Q, denom, specific))
        if concavity_report(game):
            return game
    raise PreconditionError(
        f"no certified concave draw for n={n}, Q={Q} within 64 attempts"
    )


def _affine_payment(rng: _random.Random, n: int, Q: int, denom: int,
                    specific: bool) -> PaymentFunction:
    """Payments affine (non-increasing) in the own-quality load.

    For three or more qualities the exchange inequalities pin the
    quality-dependent part to a constant, so those draws degenerate to
    flat payments; with two qualities genuine slopes survive
    certification.  Player-specific draws add a per-player offset to a
    shared part: offsets cancel in every payment difference, which is
    what keeps inversion swaps equilibrium-preserving.
    """
    def draw_shared() -> tuple[list[Fraction], list[Fraction]]:
        if Q == 2:
            slopes = [F(rng.randint(0, 2), denom * n) for _ in range(Q)]
            bases = [F(rng.randint(0, denom), denom * n) + slope * n
                     for slope in slopes]
        else:
            level = F(rng.randint(0, denom), denom * n)
            slopes = [F(0)] * Q
            bases = [level] * Q
        return bases, slopes

    bases, slopes = draw_shared()
    if specific:
        offsets = [F(rng.randint(0, denom), denom * n) for _ in range(n)]
        table: dict[tuple[int, int, tuple[int, ...]], Fraction] = {}
        for i in range(1, n + 1):
            for loads in compositions(n, Q):
                for q in range(1, Q + 1):
                    table[(i, q, loads)] = (offsets[i - 1] + bases[q - 1]
                                            - slopes[q - 1] * loads[q - 1])
        return player_specific_table(loads_table=table)
    inv: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for loads in compositions(n, Q):
        for q in range(1, Q + 1):
            if loads[q - 1] > 0:
                inv[(q, loads)] = bases[q - 1] - slopes[q - 1] * loads[q - 1]
    return player_invariant_table(inv)


def _random_proportional(rng: _random.Random, n: int, Q: int) -> ContestGame:
    efforts = _random_efforts(rng, Q, rng.random() < 0.5)
    skills = _random_skills(rng, n, F(1, max(1, int(efforts[-1]))))
    return _product_game(n, Q, skills, efforts, proportional())
