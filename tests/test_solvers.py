import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contestq import (
    CapExceededError,
    ContigufyError,
    CostFunction,
    ConcavityReport,
    Deviation,
    GameValidationError,
    PaymentKind,
    Policy,
    PneResult,
    PreconditionError,
    SolveOutcome,
    StabilityKernel,
    analyze_graph,
    brute_force_pne,
    build,
    build_improvement_graph,
    check_no_switch_lemma,
    contigufy,
    contiguous_assignment,
    equal_sharing,
    evaluate_payment,
    improvement_steps,
    is_pne,
    is_three_discrete_concave_invariant,
    is_three_discrete_concave_specific,
    ktop,
    load_game,
    load_of,
    oblivious_table,
    player_invariant_table,
    player_specific_table,
    proportional,
    random_game,
    reduce_from_normal_form,
    run_improvement_path,
    skill_order,
    solve_all_at_lowest,
    solve_contiguous_invariant,
    solve_contiguous_specific,
    to_dot,
    utility,
)
import contestq.game as game_module
import contestq.payments as payments_module
import contestq.solvers as solvers_module
from contestq.dynamics import _pick_move, anonymous_mode_applicable
from contestq.instances import FAMILIES
from contestq.solvers import ConcavityViolation, concavity_report
from contestq.payments import compositions, payer

from conftest import (
    FIXTURES,
    alone_at_a_quality_game,
    contiguous_candidate_count,
    inversions,
    make_game,
    random_invariant_table_game,
    reference_equilibria,
    reference_improvements,
    reference_scan,
    swap_inversions,
)


# --- brute force -----------------------------------------------------------

def test_brute_force_counterexample1_finds_nothing():
    res = brute_force_pne(build("ce1").game, find_all=True)
    assert res.all == () and res.scanned == 9


def test_brute_force_unique_pne(prop_2x2):
    res = brute_force_pne(prop_2x2, find_all=True)
    assert res.all == ((1, 1),)


def test_brute_force_matching_pennies():
    res = brute_force_pne(build("matching_pennies").game, find_all=True)
    assert res.all == () and res.scanned == 4


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_pne(build("ce1").game, cap=8)


def test_brute_force_rejects_a_negative_cap():
    game = build("ce1").game
    with pytest.raises(PreconditionError, match="cap must be >= 0, got -1"):
        brute_force_pne(game, cap=-1)
    with pytest.raises(CapExceededError, match="9 profiles exceed the cap 0"):
        brute_force_pne(game, cap=0)


# --- the deviation kernel against a scan written from the definition -------

def _small(rng, denom=4):
    # coarse values make ties, so strict comparisons matter
    return F(rng.randint(0, 3), denom)


KERNEL_SHAPES = ((2, 2), (3, 2), (5, 2), (2, 3), (4, 3), (5, 3), (2, 4), (3, 4))


def kernel_games(seed):
    """One game of every payment kind, drawn from `seed`, n <= 5, Q <= 4."""
    rng = random.Random(seed)
    n, Q = KERNEL_SHAPES[seed % len(KERNEL_SHAPES)]
    voluntary = seed % 2 == 0
    efforts = [F(0) if voluntary else F(rng.randint(1, 2), 2)]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(rng.randint(1, 3), 2))
    skills = [F(rng.randint(1, 8), 8) for _ in range(n)]
    loads = list(compositions(n, Q))
    profiles = list(product(range(1, Q + 1), repeat=n))
    cost_rows = tuple(
        tuple(F(0) if voluntary and q == 0 else _small(rng) + q for q in range(Q))
        for _ in range(n))
    games = [random_game(seed, n, Q, family)
             for family in ("oblivious-invariant", "concave-specific",
                            "concave-invariant", "proportional")]
    games += [
        make_game(n, Q, skills, efforts, equal_sharing()),
        make_game(n, Q, skills, efforts, ktop(rng.randint(1, Q))),
        make_game(n, Q, skills, efforts, oblivious_table(matrices=tuple(
            tuple(tuple(_small(rng, n) for _ in range(n)) for _ in range(Q))
            for _ in range(n)))),
        make_game(n, Q, skills, efforts, player_invariant_table(
            {(q, v): _small(rng) for v in loads for q in range(1, Q + 1)
             if v[q - 1] > 0}), cost=CostFunction("table", cost_rows)),
        make_game(n, Q, skills, efforts, player_specific_table(loads_table={
            (i, q, v): _small(rng) for i in range(1, n + 1) for v in loads
            for q in range(1, Q + 1)})),
        make_game(n, Q, skills, efforts, player_specific_table(profile_table={
            (i, p): _small(rng) for i in range(1, n + 1) for p in profiles})),
        reduce_from_normal_form([{p: F(rng.randint(-2, 2)) for p in profiles}
                                 for _ in range(n)]),
    ]
    return games


@pytest.mark.parametrize("seed", range(2 * len(KERNEL_SHAPES)))
def test_kernel_matches_per_profile_is_pne_scan(seed):
    games = kernel_games(seed)
    if seed == 0:
        games += [build("ce1").game, build("ce2", k=3).game,
                  build("matching_pennies").game]
    for game in games:
        truth = reference_equilibria(game)
        first = truth[0] if truth else None
        every = brute_force_pne(game, find_all=True)
        assert (every.found, every.all, every.scanned) == \
            (first, tuple(truth), game.Q**game.n)
        hit = brute_force_pne(game)
        assert (hit.found, hit.all, hit.scanned) == (first, None, game.Q**game.n)


@pytest.mark.parametrize("seed", range(2 * len(KERNEL_SHAPES)))
def test_every_scan_matches_the_reference_deviations(seed):
    games = kernel_games(seed)
    if seed == 0:
        games += [build("ce1").game, build("ce2", k=3).game,
                  build("matching_pennies").game,
                  build("fip_voluntary", n=3, Q=3).game,
                  build("fip_mandatory", n=3, Q=3).game]
    for game in games:
        kernel = StabilityKernel(game)
        rng = random.Random(seed)
        for profile in product(game.qualities(), repeat=game.n):
            moves = reference_improvements(game, profile)
            verdict = is_pne(game, profile)
            best = max(moves, key=lambda m: m.gain, default=None)  # first maximum
            assert (verdict.holds, verdict.witness) == (not moves, best)
            assert improvement_steps(game, profile) == moves
            first = moves[0] if moves else None
            reply = first and max((m for m in moves if m.player == first.player),
                                  key=lambda m: m.gain)
            assert _pick_move(kernel, profile, Policy.FIRST_IMPROVING, rng) == first
            assert _pick_move(kernel, profile, Policy.BEST_RESPONSE, rng) == reply


# --- the integer kernel: exact, strict and one payment read per key --------

COPRIME_SCALES = (F(7, 11), F(13, 3), F(5, 17), F(19, 2))


def scaled_games(seed):
    """`kernel_games(seed)` with efforts and skills scaled by coprime factors,
    plus closed-form games with equal skills, which anonymous mode takes."""
    s = COPRIME_SCALES[seed % len(COPRIME_SCALES)]
    t = COPRIME_SCALES[(seed + 1) % len(COPRIME_SCALES)]
    games = [replace(g, efforts=tuple(f * s for f in g.efforts),
                     skills=tuple(k * t for k in g.skills))
             for g in kernel_games(seed)]
    n, Q = KERNEL_SHAPES[seed % len(KERNEL_SHAPES)]
    efforts = [F(0)] if seed % 2 == 0 else []
    for step in COPRIME_EFFORTS:
        efforts.append((efforts[-1] if efforts else 0) + step * s)
    for payment in (proportional(), equal_sharing(), ktop(1 + seed % Q)):
        games.append(make_game(n, Q, [t] * n, efforts[:Q], payment))
    return games


# u(1, (2, 0)) = 1/2 - 0 and u(2, (1, 1)) = 3/4 - 1/4 are kept as (1, 2) and
# (8, 16); u(1, (1, 1)) = 1/6 - 0 and u(2, (0, 2)) = 5/12 - 1/4 as (1, 6) and
# (8, 48).  Every switch ties, so every profile is an equilibrium.
TIE_PAY = {(1, (2, 0)): F(1, 2), (2, (1, 1)): F(3, 4),
           (1, (1, 1)): F(1, 6), (2, (0, 2)): F(5, 12)}


def tie_games():
    """n = Q = 2 games in every key form where each switch is an exact tie
    between utilities whose unreduced integer pairs differ in denominator."""
    profiles = list(product((1, 2), repeat=2))
    payments = (
        player_invariant_table(TIE_PAY),
        oblivious_table(matrix=((F(1, 6), F(1, 2)), (F(3, 4), F(5, 12)))),
        player_specific_table(loads_table={
            (i, q, v): pay for i in (1, 2) for (q, v), pay in TIE_PAY.items()}),
        player_specific_table(profile_table={
            (i, p): TIE_PAY[(p[i - 1], load_of(p, 2))] for i in (1, 2) for p in profiles}),
    )
    cost = CostFunction("table", ((F(0), F(1, 4)), (F(0), F(1, 4))))
    return [make_game(2, 2, (1, 1), (1, 2), pay, cost=cost) for pay in payments]


def reference_anonymous_moves(game, loads):
    """The anonymous moves out of `loads`, from `utility` on one profile with
    those loads: for each occupied a, the moves of the first player at a."""
    profile = tuple(q for q, m in enumerate(loads, 1) for _ in range(m))
    moves = reference_improvements(game, profile)
    return [(load_of(m.apply(profile), game.Q), None, a, m.quality, m.gain)
            for a in game.qualities() if loads[a - 1]
            for m in moves if m.player == profile.index(a) + 1]


def exact_moves(graph):
    """`graph.moves` with each gain read as `Fraction(num, den)`."""
    return {u: [(*m[:4], F(*m[4:])) for m in out] for u, out in graph.moves.items()}


def test_tie_games_are_all_ties():
    for game in tie_games():
        assert reference_equilibria(game) == list(product((1, 2), repeat=2))


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_integer_kernel_is_exact_and_strict(seed):
    games = scaled_games(seed) + (tie_games() if seed == 0 else [])
    for game in games:
        moves = {p: reference_improvements(game, p)
                 for p in product(game.qualities(), repeat=game.n)}
        for p, ref in moves.items():
            best = max(ref, key=lambda m: m.gain, default=None)
            verdict = is_pne(game, p)
            assert (verdict.holds, verdict.witness) == (not ref, best)
            assert improvement_steps(game, p) == ref
        graph = build_improvement_graph(game, mode="profile")
        assert graph.nodes == list(moves)
        assert exact_moves(graph) == {
            p: [(m.apply(p), m.player, p[m.player - 1], m.quality, m.gain)
                for m in ref] for p, ref in moves.items()}
        sinks = [p for p, ref in moves.items() if not ref]
        analysis = analyze_graph(game, mode="profile")
        assert analysis.sinks == sinks
        assert analysis.edge_count == sum(map(len, moves.values()))
        assert brute_force_pne(game, find_all=True).all == tuple(sinks)
        if anonymous_mode_applicable(game):
            graph = build_improvement_graph(game, mode="anonymous")
            assert exact_moves(graph) == {v: reference_anonymous_moves(game, v)
                                          for v in compositions(game.n, game.Q)}
            analysis = analyze_graph(game, mode="anonymous")
            assert analysis.sinks == sorted(v for v, out in graph.moves.items() if not out)
            assert analysis.edge_count == sum(map(len, graph.moves.values()))


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_kernel_verdicts_do_not_depend_on_the_memo_order(seed):
    """`stays` and `gains` share one memo: whichever fills it first, and on
    one kernel asked everything, `stays` is an empty `gains`, and the gains
    are the reference deviations."""
    games = kernel_games(seed) + scaled_games(seed) + tie_games()
    for game in games:
        profiles = list(product(game.qualities(), repeat=game.n))
        keys = {p: payments_module._payment_key(game, p) for p in profiles}
        asks = [(i, a, keys[p]) for p in profiles for i, a in enumerate(p, 1)]
        stays_first, gains_first, warm = (StabilityKernel(game) for _ in range(3))
        stays = [stays_first.stays(*ask) for ask in asks]
        gains = [gains_first.gains(*ask) for ask in asks]
        assert stays == [gains_first.stays(*ask) for ask in asks] == \
            [not gain for gain in gains]
        assert gains == [stays_first.gains(*ask) for ask in asks]
        for ask, stay, gain in zip(asks, stays, gains):
            assert (warm.stays(*ask), warm.gains(*ask), warm.stays(*ask)) == \
                (stay, gain, stay)
        for p in profiles:
            ref = reference_improvements(game, p)
            assert [Deviation(i, b, F(num, den)) for i, a in enumerate(p, 1)
                    for b, num, den in warm.gains(i, a, keys[p])] == ref


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_brute_force_reads_each_payment_once(seed, monkeypatch):
    """Every payment kind is read at most once per (player, quality, key),
    however many profiles need it."""
    reads = Counter()
    real_payer = game_module.payer

    def counting_payer(game):
        pay = real_payer(game)

        def read(player, quality, key):
            reads[(player, quality, key)] += 1
            return pay(player, quality, key)
        return read

    monkeypatch.setattr(game_module, "payer", counting_payer)
    games = kernel_games(seed) + (tie_games() if seed == 0 else [])
    for game in games:
        reads.clear()
        brute_force_pne(game, find_all=True)
        assert reads and max(reads.values()) == 1


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_brute_force_decides_each_stay_once_and_never_counts_loads(seed, monkeypatch):
    """Brute force walks load vectors, not profiles: under every loads-keyed
    payment it asks `stays` at most once per (player, quality, load vector),
    only at an occupied quality, and never counts a profile's loads."""
    n, Q = KERNEL_SHAPES[seed]
    games = [random_game(seed, n, Q, family) for family in FAMILIES]
    games += scaled_games(seed) + (tie_games() if seed == 0 else [])
    asked = Counter()
    real_stays = StabilityKernel.stays

    def counting_stays(kernel, i, a, key):
        asked[(i, a, key)] += 1
        return real_stays(kernel, i, a, key)

    def no_load_of(profile, Q):
        raise AssertionError(f"load_of{profile} called")

    for game in games:
        if game.payment.profile_table is not None:
            continue
        truth = reference_equilibria(game)
        for find_all in (False, True):
            asked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(StabilityKernel, "stays", counting_stays)
                for module in (game_module, solvers_module, payments_module):
                    patch.setattr(module, "load_of", no_load_of)
                res = brute_force_pne(game, find_all=find_all)
            assert res.found == (truth[0] if truth else None)
            assert res.all == (tuple(truth) if find_all else None)
            assert asked and max(asked.values()) == 1, game.payment.kind
            assert all(key[a - 1] >= 1 for _, a, key in asked)


@pytest.mark.parametrize("seed, n, Q, before", [(0, 4, 3, True), (37, 3, 2, False)])
def test_first_hit_is_the_least_equilibrium_over_the_load_vectors_visited(seed, n, Q, before):
    """Load vectors are visited in the order of their smallest profiles, so
    the first equilibrium found need not be the lexicographically first.
    In the first game a load vector visited before the answer's holds a
    larger equilibrium; in the second, one visited after the answer's, but
    below it, holds only larger ones."""
    game = random_game(seed, n, Q, "proportional")
    truth = reference_equilibria(game)
    first = truth[0]
    least = {}  # load vector -> its least equilibrium
    for profile in truth:
        least.setdefault(load_of(profile, Q), profile)
    visited = [p for p in least.values() if p != first and tuple(sorted(p)) < first]
    assert any((tuple(sorted(p)) < tuple(sorted(first))) == before for p in visited)
    assert brute_force_pne(game).found == brute_force_pne(game, find_all=True).all[0] == first


def fractions_built(monkeypatch, action):
    """(how many `Fraction` objects `action()` builds, its result)."""
    built = 0
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real_new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", staticmethod(counting_new))
        result = action()
    return built, result


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_stable_builds_no_fraction_once_the_kernel_is_built(seed, monkeypatch):
    for game in scaled_games(seed) + (tie_games() if seed == 0 else []):
        kernel = StabilityKernel(game)
        profiles = list(product(game.qualities(), repeat=game.n))
        built, verdicts = fractions_built(
            monkeypatch, lambda: [kernel.stable(p) for p in profiles])
        assert built == 0, game.payment.kind
        assert verdicts == [not reference_improvements(game, p) for p in profiles]


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_graph_readers_build_no_fraction_past_the_payer(seed, monkeypatch):
    """A kernel's set-up builds only the payer's (the normalization
    constants).  Past it, analysing and rendering a graph and the
    no-switch check build no `Fraction`."""
    for game in scaled_games(seed) + (tie_games() if seed == 0 else []):
        setup, _ = fractions_built(monkeypatch, lambda: payer(game))
        kernel, _ = fractions_built(monkeypatch, lambda: StabilityKernel(game))
        assert kernel == setup, game.payment.kind
        built, analysis = fractions_built(monkeypatch, lambda: analyze_graph(game))
        assert built == setup, (game.payment.kind, analysis.mode)
        built, _ = fractions_built(monkeypatch, lambda: to_dot(build_improvement_graph(game)))
        assert built == setup, (game.payment.kind, analysis.mode)
        graph = build_improvement_graph(game)
        assert analysis.edge_count == sum(map(len, graph.moves.values()))
        if game.payment.kind is PaymentKind.PROPORTIONAL:
            built, _ = fractions_built(monkeypatch, lambda: check_no_switch_lemma(game))
            assert built == setup, analysis.mode


# --- concavity checkers ----------------------------------------------------

def constant_specific_game(n=3, Q=2, values=(F(1, 8), F(1, 9), F(1, 12))):
    table = {(i, q, loads): values[i - 1]
             for i in range(1, n + 1) for q in range(1, Q + 1)
             for loads in compositions(n, Q)}
    return make_game(n, Q, (3, 2, 1)[:n], tuple(range(1, Q + 1)),
                     player_specific_table(loads_table=table))


def test_constant_specific_payments_are_concave():
    assert is_three_discrete_concave_specific(constant_specific_game())


def test_affine_own_load_specific_holds_on_two_qualities():
    # shared slope -1/16 in the own-quality load, player offsets on top;
    # at Q = 2 only the swap inequality binds and it reduces to
    # -(m_1 + m_2) <= 0, so the checker must accept
    slope = F(1, 16)
    table = {}
    for i in (1, 2, 3):
        for q in (1, 2):
            for loads in compositions(3, 2):
                table[(i, q, loads)] = F(i, 4) + F(1, 2) - slope * loads[q - 1]
    game = make_game(3, 2, (3, 2, 1), (1, 2),
                     player_specific_table(loads_table=table))
    assert is_three_discrete_concave_specific(game)


def test_matching_pennies_on_loads_is_not_concave():
    # regression: the Matching-Pennies payments recast on load vectors
    big, small = F(1000), F(10)
    table = {}
    for i in (1, 2):
        for q in (1, 2):
            for loads in compositions(2, 2):
                together = loads[q - 1] == 2
                if i == 1:
                    table[(i, q, loads)] = big if together else small
                else:
                    table[(i, q, loads)] = small if together else big
    game = make_game(2, 2, (1, 1), (1, 2),
                     player_specific_table(loads_table=table))
    report = is_three_discrete_concave_specific(game)
    assert not report.holds
    assert report.violation.player in (1, 2)


def test_constant_invariant_payments_are_concave():
    table = {(q, loads): F(1, 5) for q in (1, 2)
             for loads in compositions(3, 2) if loads[q - 1] > 0}
    game = make_game(3, 2, (1, 1, 1), (1, 2), player_invariant_table(table))
    assert is_three_discrete_concave_invariant(game)


def test_equal_sharing_concavity_verdict_q2():
    # regression: equal sharing per quality passes at two qualities
    game = make_game(3, 2, (1, 1, 1), (1, 2), equal_sharing())
    assert is_three_discrete_concave_invariant(game).holds


def test_proportional_concavity_verdict_2x2():
    # regression: proportional allocation passes at n = Q = 2
    game = make_game(2, 2, (1, 1), (1, 2), proportional())
    assert is_three_discrete_concave_invariant(game).holds


def test_specific_checker_requires_loads_form():
    with pytest.raises(PreconditionError):
        is_three_discrete_concave_specific(build("matching_pennies").game)


def reference_concavity(game):
    """The first violated inequality, from the definition in `Fraction`s.

    A payment at (player, quality, L) is read from a profile with loads L
    that puts the player at that quality; the inequalities are walked in
    the checkers' order (L colex, player, q_i, q_k, then the swap form
    before the exchange form over q).
    """
    n, Q = game.n, game.Q
    specific = not game.payment.declared_player_invariant

    def pay(player, quality, loads):
        rest = [q for q in game.qualities()
                for _ in range(loads[q - 1] - (q == quality))]
        profile = tuple(rest[:player - 1] + [quality] + rest[player - 1:])
        return evaluate_payment(game, profile, player)

    def shift(loads, down, up):
        return tuple(m - (q == down) + (q == up) for q, m in enumerate(loads, 1))

    for loads in compositions(n, Q):
        occupied = [q for q in game.qualities() if loads[q - 1] > 0]
        for i in (game.players() if specific else [None]):
            who = i or 1
            for q_i in occupied:
                for q_k in occupied:
                    if q_k == q_i:
                        continue
                    swapped = pay(who, q_k, shift(loads, q_i, q_k)) \
                        + pay(who, q_i, shift(loads, q_k, q_i))
                    if swapped > pay(who, q_i, loads) + pay(who, q_k, loads):
                        return ConcavityReport(False, ConcavityViolation(
                            i, loads, q_i, q_k, q_k))
                    for q in game.qualities():
                        if q in (q_i, q_k):
                            continue
                        moved = pay(who, q, shift(loads, q_k, q)) \
                            + pay(who, q, shift(loads, q_i, q))
                        if moved > 2 * pay(who, q_i, loads):
                            return ConcavityReport(False, ConcavityViolation(
                                i, loads, q_i, q_k, q))
    return ConcavityReport(True)


COPRIME_EFFORTS = (F(1, 3), F(2, 7), F(5, 11), F(13, 17))  # increments


def coprime_closed_form_games(n, Q):
    """Closed-form payments whose efforts have pairwise coprime denominators."""
    skills = [F(1, 2 + j % 3) for j in range(n)]
    games = []
    for voluntary in (False, True):
        efforts = [F(0)] if voluntary else []
        for step in COPRIME_EFFORTS:
            efforts.append((efforts[-1] if efforts else 0) + step)
        efforts = efforts[:Q]
        for payment in (proportional(), equal_sharing(),
                        *(ktop(K) for K in range(1, Q + 1))):
            games.append(make_game(n, Q, skills, efforts, payment))
    return games


# colex ranks of the perturbed load vectors, from early to late in the
# gate's one pass; a table with fewer load vectors skips the ranks past its last
PERTURBED_RANKS = (3, 4, 6, 7, 14, 15, 30)


def perturbed_tables(seed):
    """(rank, game): certified concave tables with one payment at the load
    vector of colex rank `rank` lowered.  The payment is a base of the
    inequalities at that load vector alone and sits on the greater side
    everywhere else, so the table either still holds or first fails there."""
    n, Q = KERNEL_SHAPES[seed % len(KERNEL_SHAPES)]
    games = []
    for q_count in sorted({Q, 3}):
        vectors = list(compositions(n + 2, q_count))
        for family in ("concave-specific", "concave-invariant"):
            game = random_game(seed, n + 2, q_count, family)
            for rank in (r for r in PERTURBED_RANKS if r < len(vectors)):
                loads = vectors[rank]
                q = max(q for q in game.qualities() if loads[q - 1])
                if family == "concave-specific":
                    table = dict(game.payment.loads_table)
                    table[(1 + rank % game.n, q, loads)] -= 1
                    payment = player_specific_table(loads_table=table)
                else:
                    payment = player_invariant_table(
                        {**game.payment.invariant_table, (q, loads): F(0)})
                games.append((rank, replace(game, payment=payment)))
    return games


def checked_games(seed):
    n, Q = KERNEL_SHAPES[seed % len(KERNEL_SHAPES)]
    games = kernel_games(seed)
    games += [random_game(seed, n + 1, q, family) for q in (2, 3, 4)
              for family in ("concave-specific", "concave-invariant")]
    games += [game for _, game in perturbed_tables(seed)]
    return games + coprime_closed_form_games(n + 1, Q)


def test_perturbed_tables_first_fail_at_every_perturbed_rank():
    failed_at = {PaymentKind.PLAYER_SPECIFIC_TABLE: set(),
                 PaymentKind.PLAYER_INVARIANT_TABLE: set()}
    for seed in range(2 * len(KERNEL_SHAPES)):
        for rank, game in perturbed_tables(seed):
            report = concavity_report(game)
            if not report:
                assert report.violation.loads == list(compositions(game.n, game.Q))[rank]
                failed_at[game.payment.kind].add(rank)
    assert all(ranks == set(PERTURBED_RANKS) for ranks in failed_at.values())


@pytest.mark.parametrize("seed", range(2 * len(KERNEL_SHAPES)))
def test_concavity_gate_matches_the_definition(seed):
    verdicts = set()
    for game in checked_games(seed):
        pf = game.payment
        checkable = pf.profile_table is None  # one definition or the other takes the rest
        if not checkable:
            with pytest.raises(PreconditionError):
                concavity_report(game)
            continue
        report = concavity_report(game)
        assert report == reference_concavity(game)
        verdicts.add(report.holds)
    assert verdicts == {False, True}


def counting_gate_payer(monkeypatch):
    """Patch the gate's `payer` to count reads per (player, quality, key)."""
    reads = Counter()
    real_payer = solvers_module.payer

    def counting_payer(game):
        pay = real_payer(game)

        def read(player, quality, key):
            reads[(player, quality, key)] += 1
            return pay(player, quality, key)
        return read

    monkeypatch.setattr(solvers_module, "payer", counting_payer)
    return reads


@pytest.mark.parametrize("n,Q", [(2, 2), (9, 2), (3, 3), (6, 3), (4, 4), (5, 4)])
def test_concavity_gate_reads_each_payment_once(n, Q, monkeypatch):
    """A full scan of a certified table reads every payment exactly once."""
    games = [random_game(n * Q, n, Q, family)
             for family in ("concave-specific", "concave-invariant")]
    reads = counting_gate_payer(monkeypatch)
    for game in games:
        reads.clear()
        assert concavity_report(game)
        players = game.players() if game.payment.loads_table is not None else [None]
        assert set(reads) == {(i, q, loads) for i in players for q in game.qualities()
                              for loads in compositions(n, Q) if loads[q - 1]}
        assert max(reads.values()) == 1


@pytest.mark.parametrize("n", [30, 60])
def test_concavity_gate_stops_reading_at_an_early_violation(n, monkeypatch):
    """Proportional payments at Q = 4 fail at colex rank 1, the first load
    vector with two occupied qualities, so the scan reads only its two
    rows of Q payments, within 2 * Q^2."""
    Q = 4
    game = random_game(n, n, Q, "proportional")
    reads = counting_gate_payer(monkeypatch)
    report = concavity_report(game)
    assert report.violation.loads == (n - 1, 1, 0, 0)
    assert 0 < sum(reads.values()) <= 2 * Q * Q


@pytest.mark.parametrize("seed", range(len(KERNEL_SHAPES)))
def test_concavity_gate_builds_no_fraction_past_the_payer(seed, monkeypatch):
    for game in checked_games(seed):
        try:
            concavity_report(game)
        except PreconditionError:
            continue
        setup, _ = fractions_built(monkeypatch, lambda: payer(game))
        built, _ = fractions_built(monkeypatch, lambda: concavity_report(game))
        assert built == setup, game.payment.kind


def counting_scans(monkeypatch):
    """Patch `_concavity_scan` to record the game of every call."""
    scans = []
    real_scan = solvers_module._concavity_scan
    monkeypatch.setattr(solvers_module, "_concavity_scan",
                        lambda game, players: scans.append(game) or real_scan(game, players))
    return scans


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("Q", [2, 3, 4])
def test_closed_forms_are_concave_exactly_at_two_qualities(n, Q, monkeypatch):
    """The scan is the oracle: every kind and K, voluntary and mandatory.

    At Q = 2 the closed forms hold by theorem, as only the swap inequality
    applies.  Under equal sharing and K-Top it reads c*f_k/(L_k+1) +
    c*f_i/(L_i+1) <= c*f_i/L_i + c*f_k/L_k; under proportional allocation,
    with T = sum(L_a f_a) and d = f_k - f_i, it reduces to
    d^2 (f_i + f_k - T) <= 0, and T >= f_i + f_k as both qualities are
    occupied (where T = d the zero total pays 0, which only helps).
    """
    rng = random.Random(10 * n + Q)
    games = []
    for voluntary in (False, True):
        efforts = [F(0) if voluntary else F(rng.randint(1, 4), rng.randint(1, 3))]
        for _ in range(Q - 1):
            efforts.append(efforts[-1] + F(rng.randint(1, 4), rng.randint(1, 3)))
        skills = [F(rng.randint(1, 8), 8) for _ in range(n)]
        games += [make_game(n, Q, skills, efforts, payment)
                  for payment in (proportional(), equal_sharing(),
                                  *(ktop(K) for K in range(1, Q + 1)))]
    oracle = [solvers_module._concavity_scan(game, [None]) for game in games]
    assert [report.holds for report in oracle] == [Q == 2] * len(games)
    scans = counting_scans(monkeypatch)
    assert [concavity_report(game) for game in games] == oracle
    assert len(scans) == len(games)


def test_closed_forms_at_two_qualities_are_concave_at_scale(monkeypatch):
    n = 2000
    games = [make_game(n, 2, (1,) * n, efforts, payment)
             for efforts in ((1, 2), (0, F(3, 7)))
             for payment in (proportional(), equal_sharing(), ktop(1), ktop(2))]
    scans = counting_scans(monkeypatch)
    assert all(concavity_report(game) for game in games)
    assert scans == games


# --- contigufication --------------------------------------------------------

def test_contigufy_identity_on_contiguous_pne():
    game = constant_specific_game()
    pne = brute_force_pne(game).found
    assert contigufy(game, pne) == pne


def test_contigufy_single_swap_for_anonymous_pair():
    # anonymous game whose split profiles (1,2) and (2,1) are both
    # equilibria; the inverted one must contigufy in a single swap
    table = {(1, (2, 0)): F(0), (1, (1, 1)): F(1, 4),
             (2, (1, 1)): F(1, 2), (2, (0, 2)): F(0)}
    game = make_game(2, 2, (1, 1), (1, F(3, 2)),
                     player_invariant_table(table))
    assert is_pne(game, (2, 1)) and is_pne(game, (1, 2))
    out = contigufy(game, (2, 1))
    assert out == (1, 2)
    assert is_pne(game, out)


def test_contigufy_requires_equilibrium():
    game = constant_specific_game()
    with pytest.raises(PreconditionError):
        contigufy(game, (2,) * game.n)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("family", ["concave-specific", "concave-invariant"])
def test_contigufy_random_concave_instances(seed, family):
    game = random_game(seed, 4, 2, family)
    for pne in brute_force_pne(game, find_all=True).all:
        out = contigufy(game, pne)
        assert inversions(game, out) == []
        assert load_of(out, game.Q) == load_of(pne, game.Q)
        assert is_pne(game, out)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,Q", [(3, 2), (4, 2), (4, 3), (5, 3), (3, 4)])
def test_contigufy_is_where_the_inversion_swaps_end(seed, family, n, Q):
    game = random_game(seed, n, Q, family)
    for pne in brute_force_pne(game, find_all=True).all:
        end = swap_inversions(game, pne)
        if is_pne(game, end):
            assert contigufy(game, pne) == end
        else:
            with pytest.raises(ContigufyError):
                contigufy(game, pne)


def test_contigufy_raises_where_the_block_profile_is_no_equilibrium():
    """Non-concave payments: the equilibrium (1,1,2,2) has no contiguous twin."""
    game = load_game(FIXTURES / "nonconcave_contiguous_miss.json")
    assert swap_inversions(game, (1, 1, 2, 2)) == contiguous_assignment(game, (2, 2, 0)).profile
    with pytest.raises(ContigufyError, match="is not an equilibrium"):
        contigufy(game, (1, 1, 2, 2))


# --- contiguous solvers -----------------------------------------------------

def test_candidate_count_4x3():
    game = random_game(0, 4, 3, "concave-specific")
    out = solve_contiguous_specific(game)
    assert out.candidates == 15 == contiguous_candidate_count(4, 3)


def test_candidate_count_5x2():
    game = random_game(0, 5, 2, "concave-invariant")
    out = solve_contiguous_invariant(game)
    assert out.candidates == 6 == contiguous_candidate_count(5, 2)


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("n,Q", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_oracle_equivalence_specific(seed, n, Q):
    game = random_game(seed, n, Q, "concave-specific")
    out = solve_contiguous_specific(game)  # checker runs inside
    brute = brute_force_pne(game)
    assert (out.assignment is None) == (brute.found is None)
    if out.assignment is not None:
        assert is_pne(game, out.assignment.profile)


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("n,Q", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_oracle_equivalence_invariant(seed, n, Q):
    game = random_game(seed, n, Q, "concave-invariant")
    out = solve_contiguous_invariant(game)
    brute = brute_force_pne(game)
    assert (out.assignment is None) == (brute.found is None)
    if out.assignment is not None:
        assert is_pne(game, out.assignment.profile)


def _with_table_cost(seed, n, Q):
    """A certified concave-invariant game re-costed by a non-decreasing table.

    Every third seed writes s*f as a table; the others draw rows that
    are not of that form.
    """
    base = random_game(seed, n, Q, "concave-invariant")
    rng = random.Random(seed)
    rows = []
    for skill in base.skills:
        if seed % 3 == 0:
            rows.append(tuple(skill * f for f in base.efforts))
            continue
        row = [F(0) if base.efforts[0] == 0 else F(rng.randint(0, 4), 4 * n)]
        for _ in range(Q - 1):
            row.append(row[-1] + F(rng.randint(0, 4), 4 * n))
        rows.append(tuple(row))
    return replace(base, cost=CostFunction("table", tuple(rows)))


def test_invariant_solver_on_table_costs():
    # the first load vector in colex order whose contiguous profile is an
    # equilibrium; without one, "none" only under s*f costs, else a raise
    outcomes = set()
    for seed in range(40):
        n, Q = [(3, 2), (4, 2), (4, 3), (5, 3)][seed % 4]
        game = _with_table_cost(seed, n, Q)
        expected = first_contiguous_pne(game)
        if expected is None and seed % 3:
            with pytest.raises(PreconditionError, match="not of product form"):
                solve_contiguous_invariant(game)
            assert brute_force_pne(game).found is not None
        else:
            out = solve_contiguous_invariant(game)
            assert (out.assignment.loads if out.assignment else None) == expected
        outcomes.add((expected is None, seed % 3 == 0))
    assert (False, False) in outcomes and (True, False) in outcomes


def test_the_table_cost_fixture_is_a_miss_with_an_equilibrium():
    game = load_game(FIXTURES / "tablecost_contiguous_miss.json")
    assert game == _with_table_cost(25, 4, 2)
    assert concavity_report(game) and not solvers_module._product_costs(game)
    assert solvers_module._scan_candidates(game) == SolveOutcome(None, 5)
    assert brute_force_pne(game).found == (1, 2, 2, 2)


def pennies_on_loads_game():
    """Matching-Pennies payments on load vectors under product costs."""
    big, small = F(1000), F(10)
    table = {}
    for i in (1, 2):
        for q in (1, 2):
            for loads in compositions(2, 2):
                together = loads[q - 1] == 2
                pay = (big if together else small) if i == 1 else \
                    (small if together else big)
                table[(i, q, loads)] = pay
    return make_game(2, 2, (1, 1), (1, 2), player_specific_table(loads_table=table))


def test_solver_none_agrees_with_brute_force_on_cyclic_game():
    # no equilibrium at all, so both the contiguous scan and brute force
    # must come up empty
    game = pennies_on_loads_game()
    assert brute_force_pne(game).found is None
    assert solvers_module._scan_candidates(game) == SolveOutcome(None, 3)
    with pytest.raises(PreconditionError, match="not three-discrete-concave"):
        solve_contiguous_specific(game)


def test_solve_invariant_es_agrees_with_brute_force():
    game = make_game(3, 2, (1, 1, 1), (1, 2), equal_sharing())
    out = solve_contiguous_invariant(game)
    assert out.assignment is not None
    assert load_of(out.assignment.profile, 2) in \
        {load_of(p, 2) for p in brute_force_pne(game, find_all=True).all}


def test_solve_invariant_proportional_mandatory_all_at_one():
    game = make_game(3, 2, (1, 1, 1), (1, 2), proportional())
    out = solve_contiguous_invariant(game)
    assert out.assignment.profile == (1, 1, 1)
    assert brute_force_pne(game).found == (1, 1, 1)


def test_solver_precondition_errors():
    with pytest.raises(PreconditionError):
        solve_contiguous_specific(build("matching_pennies").game)
    with pytest.raises(PreconditionError):
        solve_contiguous_invariant(build("matching_pennies").game)


def test_skill_order_stable_on_ties():
    game = make_game(3, 2, (1, 2, 1), (1, 2), proportional())
    assert skill_order(game) == (2, 1, 3)


# skills that tie (1/3 also as 2/6, which `Fraction` normalizes), that differ by
# less than 2^-64 near 1, 1/3 and 7/5, or that are drawn at random
NEAR_SKILLS = st.builds(
    lambda base, num, den: base + F(num, den),
    st.sampled_from([F(1), F(1, 3), F(2, 6), F(7, 5)]),
    st.integers(-3, 3), st.sampled_from([2**64, 2**64 + 1, 3 * 2**70, 10**30]))
SKILLS = st.lists(st.one_of(
    st.sampled_from([F(1), F(1, 3), F(2, 6), F(2), F(3, 2)]),
    NEAR_SKILLS,
    st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**12),
), min_size=2, max_size=12)


@given(SKILLS)
@example([F(1), 1 + F(1, 2**70), 1 - F(1, 2**70), 1 + F(1, 2**70), F(2, 6), F(1, 3)])
def test_skill_order_is_the_exact_skill_then_index_order(skills):
    game = make_game(len(skills), 2, skills, (1, 2), proportional())
    assert skill_order(game) == tuple(
        sorted(game.players(), key=lambda i: (-game.skills[i - 1], i)))


def scan_games():
    """Both concave families at n = 4 to 40 and Q = 2 to 4, `tie_games`,
    `scaled_games` and both miss fixtures."""
    games = [random_game(seed, n, Q, family) for family in SOLVER_OF for seed in range(3)
             for n, Q in ((4, 2), (12, 2), (40, 2), (5, 3), (8, 3), (4, 4), (7, 4))]
    games += tie_games()
    games += [game for seed in range(len(KERNEL_SHAPES)) for game in scaled_games(seed)]
    games += [load_game(FIXTURES / name) for name in
              ("nonconcave_contiguous_miss.json", "tablecost_contiguous_miss.json")]
    return games


def test_the_block_scan_finds_what_the_profile_scan_finds():
    """The scan tests players block by block on the kernel; the reference
    tests each candidate's whole profile with `stable`.  Profile-keyed
    tables have no contiguous solver."""
    outcomes = Counter()
    for game in scan_games():
        if game.payment.profile_table is not None:
            with pytest.raises(PreconditionError):
                solve_contiguous_specific(game)
            continue
        out = solvers_module._scan_candidates(game)
        assert out == reference_scan(game), game
        outcomes[out.assignment is None] += 1
    assert outcomes[True] >= 2 and outcomes[False] >= 100


def test_a_hit_is_re_checked_once_on_a_kernel_of_its_own(monkeypatch):
    game = random_game(1, 8, 3, "concave-specific")
    built, stayed, improved, checks = [], set(), set(), []
    real_init, real_stays = StabilityKernel.__init__, StabilityKernel.stays
    real_improvements, real_is_pne = StabilityKernel.improvements, solvers_module.is_pne

    def init(self, game):
        built.append(self)
        real_init(self, game)

    def stays(self, *args):
        stayed.add(id(self))
        return real_stays(self, *args)

    def improvements(self, profile):
        improved.add(id(self))
        return real_improvements(self, profile)

    def is_pne(game, profile):
        checks.append(profile)
        return real_is_pne(game, profile)

    monkeypatch.setattr(StabilityKernel, "__init__", init)
    monkeypatch.setattr(StabilityKernel, "stays", stays)
    monkeypatch.setattr(StabilityKernel, "improvements", improvements)
    monkeypatch.setattr(solvers_module, "is_pne", is_pne)
    out = solve_contiguous_specific(game)
    assert checks == [out.assignment.profile]
    scan, check = built
    assert stayed == {id(scan)} and improved == {id(check)}


def test_candidate_scan_sorts_players_once(monkeypatch):
    import contestq.solvers as solvers

    game = random_game(4, 6, 2, "concave-invariant")
    before = solve_contiguous_invariant(game)
    assert before.candidates == 7
    calls = []
    monkeypatch.setattr(solvers, "skill_order",
                        lambda g: calls.append(g) or skill_order(g))
    assert solve_contiguous_invariant(game) == before
    assert len(calls) == 1
    assert before.assignment == contiguous_assignment(game, before.assignment.loads)


# --- the contiguous solvers prove concavity only for a miss ----------------

SOLVER_OF = {"concave-specific": solve_contiguous_specific,
             "concave-invariant": solve_contiguous_invariant}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,Q", [(4, 2), (6, 2), (5, 3), (4, 4)])
def test_a_hit_on_a_concave_game_runs_no_concavity_scan(seed, n, Q, monkeypatch):
    games = [(family, random_game(seed, n, Q, family)) for family in SOLVER_OF]
    scans = counting_scans(monkeypatch)
    for family, game in games:
        out = SOLVER_OF[family](game)
        assert out.assignment is not None
        assert out == solvers_module._scan_candidates(game)
    assert scans == []


def test_a_miss_runs_exactly_one_concavity_scan(monkeypatch):
    concave = _with_table_cost(25, 4, 2)  # concave payments, costs not s*f: no hit
    cyclic = alone_at_a_quality_game()  # zero table costs, no equilibrium
    pennies = pennies_on_loads_game()  # product costs, not concave, no equilibrium
    table = load_game(FIXTURES / "nonconcave_contiguous_miss.json")
    scans = counting_scans(monkeypatch)
    with pytest.raises(PreconditionError, match="not of product form"):
        solve_contiguous_invariant(concave)
    with pytest.raises(PreconditionError, match="not of product form"):
        solve_contiguous_specific(cyclic)
    assert scans == []
    with pytest.raises(PreconditionError, match="not three-discrete-concave"):
        solve_contiguous_specific(pennies)
    with pytest.raises(PreconditionError, match=r"loads=\(3, 1, 0\)"):
        solve_contiguous_invariant(table)
    assert scans == [pennies, table]


def test_the_missed_table_fixture_has_a_non_contiguous_equilibrium():
    game = load_game(FIXTURES / "nonconcave_contiguous_miss.json")
    assert game == random_invariant_table_game(74)
    assert brute_force_pne(game).found == (1, 1, 2, 2)
    assert solvers_module._scan_candidates(game) == SolveOutcome(None, 15)


def first_contiguous_pne(game):
    """The first load vector in colex order whose contiguous profile is an
    equilibrium by brute force, or None."""
    pnes = set(brute_force_pne(game, find_all=True).all)
    return next((loads for loads in compositions(game.n, game.Q)
                 if contiguous_assignment(game, loads).profile in pnes), None)


def test_a_non_concave_table_returns_its_first_stable_contiguous_profile():
    game = random_invariant_table_game(0)
    assert (game.n, game.Q) == (3, 3) and not concavity_report(game)
    out = solve_contiguous_invariant(game)
    assert out.assignment.loads == first_contiguous_pne(game) == (3, 0, 0)
    assert is_pne(game, out.assignment.profile)


# the draws of `random_invariant_table_game` below 1000 with no stable contiguous profile
NO_CONTIGUOUS_PNE_SEEDS = (44, 74, 103, 333, 797, 987)


@pytest.mark.parametrize("block", range(10))
def test_random_tables_return_the_first_stable_contiguous_profile_or_raise(block):
    """A hit is returned whatever the payment; a miss raises unless concave,
    and a concave table with product costs always has a hit."""
    seeds = range(100 * block, 100 * block + 100)
    raised = []
    for seed in seeds:
        game = random_invariant_table_game(seed)
        first = first_contiguous_pne(game)
        if first is not None:
            assert solve_contiguous_invariant(game).assignment.loads == first
        else:
            assert not concavity_report(game)
            with pytest.raises(PreconditionError):
                solve_contiguous_invariant(game)
            raised.append(seed)
    assert raised == [seed for seed in NO_CONTIGUOUS_PNE_SEEDS if seed in seeds]


@pytest.mark.parametrize("Q", [3, 4])
def test_a_hit_on_a_large_closed_form_reads_only_its_candidate(Q, monkeypatch):
    """Proportional payments at Q >= 3 are not concave, yet all-at-quality-1
    is stable: the scan stops there without listing the other load vectors."""
    game = build("fip_mandatory", n=1000, Q=Q).game
    drawn = []
    real_compositions = solvers_module.compositions

    def counting_compositions(n, Q):
        for loads in real_compositions(n, Q):
            drawn.append(loads)
            assert len(drawn) <= 10, "the scan read ahead of its hit"
            yield loads

    monkeypatch.setattr(solvers_module, "compositions", counting_compositions)
    scans = counting_scans(monkeypatch)
    out = solve_contiguous_invariant(game)
    assert out.assignment.loads == (1000,) + (0,) * (Q - 1)
    assert out.candidates == contiguous_candidate_count(1000, Q)
    assert drawn == [out.assignment.loads] and scans == []


def test_a_hit_the_profile_check_rejects_raises(monkeypatch):
    game = random_game(0, 4, 3, "concave-specific")
    monkeypatch.setattr(solvers_module, "is_pne",
                        lambda game, profile: PneResult(False, Deviation(1, 2, F(1))))
    with pytest.raises(ContigufyError, match="fails the profile check"):
        solve_contiguous_specific(game)


# --- constant-time solver ---------------------------------------------------

def test_all_at_lowest_with_bound_satisfied():
    game = make_game(2, 3, (2, 2), (1, 2, 3), proportional())
    profile = solve_all_at_lowest(game)
    assert profile == (1, 1)
    assert profile in brute_force_pne(game, find_all=True).all


def test_all_at_lowest_fails_for_anonymous_players():
    game = make_game(2, 3, (1, 1), (1, 2, 3), proportional())
    assert solve_all_at_lowest(game) is None  # bound f2/(f2-f1) = 2 > 1


def test_all_at_lowest_fails_for_counterexample2_skills():
    game = build("ce2", k=2).game
    assert game.skills == (F(3, 19), F(3, 31))
    assert solve_all_at_lowest(game) is None


def test_all_at_lowest_declines_scaled_efforts():
    # skills meet f2/(f2-f1) = 2, yet player 1 gains 11/75 at quality 2
    game = make_game(2, 2, (2, 2), (F(1, 100), F(2, 100)), proportional())
    assert not is_pne(game, (1, 1))
    assert solve_all_at_lowest(game) is None


def test_all_at_lowest_at_the_edge_of_both_conditions():
    # n = 2: f2 = 1/2 = 1 - 1/n and every skill equals f2/(f2-f1) = 2
    game = make_game(2, 3, (2, 2), (F(1, 4), F(1, 2), F(3, 4)), proportional())
    assert solve_all_at_lowest(game) == (1, 1)
    assert brute_force_pne(game, find_all=True).all[0] == (1, 1)


@pytest.mark.parametrize("seed", range(40))
def test_all_at_lowest_over_scaled_efforts(seed):
    rng = random.Random(seed)
    n, Q = rng.randint(2, 4), rng.randint(2, 3)
    scale = rng.choice((F(1, 1000), F(1, 100), F(1, 10), F(1, 2), F(1)))
    efforts = [F(rng.randint(1, 4), rng.choice((1, 2, 3)))]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(rng.randint(1, 4), rng.choice((1, 2, 3))))
    efforts = [scale * f for f in efforts]
    bound = efforts[1] / (efforts[1] - efforts[0])
    skills = [bound + F(rng.randint(0, 4), 4) for _ in range(n)]
    game = make_game(n, Q, skills, efforts, proportional())
    profile = solve_all_at_lowest(game)
    if efforts[1] >= 1 - F(1, n):
        assert profile == (1,) * n
        assert profile in brute_force_pne(game, find_all=True).all
    else:
        assert profile is None


def test_all_at_lowest_preconditions():
    with pytest.raises(PreconditionError):
        solve_all_at_lowest(make_game(2, 2, (2, 2), (1, 2), equal_sharing()))
    with pytest.raises(PreconditionError):
        solve_all_at_lowest(make_game(2, 2, (2, 2), (0, 2), proportional()))
    skill_times_effort = CostFunction("table", ((F(2), F(4), F(6)),) * 2)
    game = make_game(2, 3, (2, 2), (1, 2, 3), proportional(), cost=skill_times_effort)
    assert solve_all_at_lowest(game) == (1, 1)
    with pytest.raises(PreconditionError, match="product skill-effort costs"):
        solve_all_at_lowest(replace(game, cost=CostFunction("table", ((F(2), F(4), F(5)),) * 2)))


# --- normal-form reduction --------------------------------------------------

def nf_pnes(payoffs, n, m):
    out = []
    for prof in product(range(1, m + 1), repeat=n):
        if all(payoffs[i][prof[:i] + (s,) + prof[i + 1:]] <= payoffs[i][prof]
               for i in range(n) for s in range(1, m + 1) if s != prof[i]):
            out.append(prof)
    return out


def test_reduction_matching_pennies_has_no_pne():
    payoffs = [
        {(1, 1): F(1), (1, 2): F(-1), (2, 1): F(-1), (2, 2): F(1)},
        {(1, 1): F(-1), (1, 2): F(1), (2, 1): F(1), (2, 2): F(-1)},
    ]
    game = reduce_from_normal_form(payoffs)
    assert brute_force_pne(game, find_all=True).all == ()


def test_reduction_coordination_game_keeps_pne_set():
    payoffs = [
        {(1, 1): F(2), (1, 2): F(0), (2, 1): F(0), (2, 2): F(1)},
        {(1, 1): F(2), (1, 2): F(0), (2, 1): F(0), (2, 2): F(1)},
    ]
    game = reduce_from_normal_form(payoffs)
    assert set(brute_force_pne(game, find_all=True).all) == {(1, 1), (2, 2)}


def test_reduction_constant_payoffs_make_every_profile_pne():
    payoffs = [{p: F(5) for p in product((1, 2), repeat=2)} for _ in range(2)]
    game = reduce_from_normal_form(payoffs)
    assert len(brute_force_pne(game, find_all=True).all) == 4


@pytest.mark.parametrize("payoffs", [[{}, {}], [{(1, 1): F(1)}, {}]])
def test_reduction_rejects_an_empty_payoff_table(payoffs):
    with pytest.raises(PreconditionError, match="is empty"):
        reduce_from_normal_form(payoffs)


def test_reduction_rejects_too_few_skills():
    payoffs = [{p: F(1) for p in product((1, 2, 3), repeat=2)} for _ in range(2)]
    with pytest.raises(GameValidationError, match="skills"):
        reduce_from_normal_form(payoffs, skills=(F(1),))


def test_reduction_rejects_too_few_efforts():
    payoffs = [{p: F(1) for p in product((1, 2, 3), repeat=2)} for _ in range(2)]
    with pytest.raises(GameValidationError, match="efforts"):
        reduce_from_normal_form(payoffs, efforts=(F(1),))


def test_reduction_utility_identity_exhaustive():
    import random
    rng = random.Random(5)
    payoffs = [
        {p: F(rng.randint(-9, 9), rng.choice((1, 2)))
         for p in product((1, 2, 3), repeat=2)}
        for _ in range(2)
    ]
    game = reduce_from_normal_form(payoffs)
    for prof in product((1, 2, 3), repeat=2):
        for i in (1, 2):
            assert utility(game, prof, i) == payoffs[i - 1][prof]
    assert set(brute_force_pne(game, find_all=True).all) == set(nf_pnes(payoffs, 2, 3))
