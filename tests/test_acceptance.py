"""Acceptance suite: one test per headline criterion, exact arithmetic.

Run with  pytest tests/test_acceptance.py -s  to see one PASS line per
criterion with its wall time.  Every expected value is exact; there are
no numeric tolerances anywhere, only wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from contestq import (
    ContestGame,
    CostFunction,
    Participation,
    PathStatus,
    analyze_graph,
    brute_force_pne,
    build,
    build_improvement_graph,
    build_potential_cache,
    check_no_switch_lemma,
    contigufy,
    is_pne,
    load_of,
    potential,
    proportional,
    random_game,
    reduce_from_normal_form,
    run_improvement_path,
    solve_all_at_lowest,
    solve_contiguous_invariant,
    solve_contiguous_specific,
    utility,
)

from conftest import contiguous_candidate_count, inversions

SOLVERS = {"concave-specific": solve_contiguous_specific,
           "concave-invariant": solve_contiguous_invariant}
POOL_SHAPES = [(n, Q) for n in range(2, 7) for Q in (2, 3)]
POOL_SEEDS = range(25)  # 25 seeds x 10 shapes x 2 families = 500 instances


def report(criterion, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS {criterion}{suffix} ({elapsed:.2f}s)")
    return elapsed


@pytest.fixture(scope="module")
def concave_pool():
    pool = []
    for family in SOLVERS:
        for seed in POOL_SEEDS:
            for n, Q in POOL_SHAPES:
                pool.append((family, seed, n, Q,
                             random_game(seed, n, Q, family)))
    return pool


def test_criterion_1_counterexample_1():
    started = time.perf_counter()
    game = build("ce1").game
    res = brute_force_pne(game, find_all=True)
    assert res.scanned == 9 and res.all == ()
    cycle = [(1, 2), (3, 2), (3, 1), (2, 1), (2, 3), (1, 3), (1, 2)]
    graph = build_improvement_graph(game, mode="profile")
    for a, b in zip(cycle, cycle[1:]):
        assert b in [m[0] for m in graph.moves[a]], (a, b)
    elapsed = report("criterion 1: counterexample 1 (no PNE, exact 6-cycle)",
                     started)
    assert elapsed < 1.0


def test_criterion_2_counterexample_2():
    for k in (2, 3, 4, 5):
        started = time.perf_counter()
        game = build("ce2", k=k).game
        res = brute_force_pne(game, find_all=True)
        assert res.scanned == (k + 1) ** 2 and res.all == ()
        cycle = [(k, k + 1), (k - 1, k + 1), (k - 1, k), (k, k), (k, k + 1)]
        graph = build_improvement_graph(game, mode="profile")
        for a, b in zip(cycle, cycle[1:]):
            assert b in [m[0] for m in graph.moves[a]], (k, a, b)
        elapsed = report(f"criterion 2: counterexample 2, k={k} "
                         f"(no PNE, 4-cycle)", started)
        assert elapsed < 1.0


def test_criterion_3_matching_pennies():
    started = time.perf_counter()
    game = build("matching_pennies").game
    res = brute_force_pne(game, find_all=True)
    assert res.scanned == 4 and res.all == ()
    for start in itertools.product((1, 2), repeat=2):
        walk = run_improvement_path(game, start, policy="best-response")
        assert walk.status is PathStatus.CYCLE
        assert len(walk.cycle) == 4
    elapsed = report("criterion 3: player-specific game (no PNE, "
                     "period-4 best-response cycle)", started)
    assert elapsed < 1.0


def test_criterion_4_potential_exactness():
    started = time.perf_counter()
    shapes = [(n, Q) for n in (2, 3, 4) for Q in (2, 3)]
    checks = 0
    for index in range(200):
        n, Q = shapes[index % len(shapes)]
        game = random_game(index, n, Q, "oblivious-invariant")
        cache = build_potential_cache(game)
        for profile in itertools.product(range(1, Q + 1), repeat=n):
            phi = potential(game, profile, cache)
            for i in range(1, n + 1):
                here = utility(game, profile, i)
                for q in range(1, Q + 1):
                    if q == profile[i - 1]:
                        continue
                    moved = profile[: i - 1] + (q,) + profile[i:]
                    assert potential(game, moved, cache) - phi == \
                        utility(game, moved, i) - here
                    checks += 1
    elapsed = report("criterion 4: exact potential over 200 random games",
                     started, f"{checks} deviations, zero violations")
    assert elapsed < 30.0


def test_criterion_5_fip_sinks():
    started = time.perf_counter()
    for n in range(2, 7):
        for Q in range(2, 5):
            vol = build("fip_voluntary", n=n, Q=Q).game
            analysis = analyze_graph(vol, mode="anonymous")
            assert analysis.acyclic
            assert analysis.sinks == sorted([
                (n,) + (0,) * (Q - 1), (n - 1, 1) + (0,) * (Q - 2)])
            man = build("fip_mandatory", n=n, Q=Q).game
            analysis = analyze_graph(man, mode="anonymous")
            assert analysis.acyclic
            assert analysis.sinks == [(n,) + (0,) * (Q - 1)]
    elapsed = report("criterion 5: FIP grid n=2..6, Q=2..4 "
                     "(acyclic, exact sink sets)", started)
    assert elapsed < 10.0


def test_criterion_6_no_switch_lemma():
    started = time.perf_counter()
    for n in range(2, 7):
        for Q in range(2, 5):
            game = build("fip_voluntary", n=n, Q=Q).game
            rep = check_no_switch_lemma(game)
            assert rep.holds and rep.violations == []
            assert rep.boundary_state_clean is True
    report("criterion 6: no upward improvement, boundary state quiet",
           started)


def test_criterion_7_oracle_equivalence(concave_pool):
    started = time.perf_counter()
    assert len(concave_pool) >= 500
    with_pne = 0
    for family, seed, n, Q, game in concave_pool:
        outcome = SOLVERS[family](game)
        brute = brute_force_pne(game)
        assert (outcome.assignment is None) == (brute.found is None), \
            (family, seed, n, Q)
        if outcome.assignment is not None:
            with_pne += 1
            assert is_pne(game, outcome.assignment.profile)
    elapsed = report("criterion 7: contiguous solvers == brute force on "
                     f"{len(concave_pool)} certified instances", started,
                     f"{with_pne} with equilibria")
    assert elapsed < 120.0


def test_criterion_8_enumeration_count(concave_pool):
    started = time.perf_counter()
    seen_shapes = set()
    for family, seed, n, Q, game in concave_pool[:40]:
        outcome = SOLVERS[family](game)
        assert outcome.candidates == contiguous_candidate_count(n, Q)
        seen_shapes.add((n, Q))
    game = random_game(0, 4, 3, "concave-specific")
    assert solve_contiguous_specific(game).candidates == 15
    report("criterion 8: candidate counts equal C(n+Q-1, Q-1)", started,
           f"{sorted(seen_shapes)} and (4,3)->15")


def test_criterion_9_contigufication(concave_pool):
    started = time.perf_counter()
    total = 0
    for family, seed, n, Q, game in concave_pool:
        for pne in brute_force_pne(game, find_all=True).all:
            out = contigufy(game, pne)
            assert inversions(game, out) == []
            assert load_of(out, Q) == load_of(pne, Q)
            assert is_pne(game, out)
            total += 1
    elapsed = report("criterion 9: contigufication preserves loads and "
                     "equilibrium", started, f"{total} equilibria")
    assert elapsed < 120.0


def test_criterion_10_lower_bounded_skills():
    started = time.perf_counter()
    done = 0
    seed = 0
    while done < 50:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(2, 5)
        Q = rng.randint(2, 4)
        efforts = []
        value = F(rng.randint(1, 3), rng.choice((1, 2)))
        for _ in range(Q):
            efforts.append(value)
            value = value + F(rng.randint(1, 3), rng.choice((1, 2)))
        efforts = tuple(efforts)
        bound = efforts[1] / (efforts[1] - efforts[0])
        skills = tuple(bound + F(rng.randint(0, 8), 4) for _ in range(n))
        game = ContestGame(n=n, Q=Q, skills=skills, efforts=efforts,
                           participation=Participation.MANDATORY,
                           cost=CostFunction("product"),
                           payment=proportional())
        profile = solve_all_at_lowest(game)
        assert profile == (1,) * n
        assert is_pne(game, profile)
        if Q**n <= 10**4:
            assert profile in brute_force_pne(game, find_all=True).all
        done += 1
    report("criterion 10: all-at-quality-1 solver on 50 lower-bounded "
           "instances", started)


def test_criterion_11_reduction_fidelity():
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.choice((2, 3))
        m = rng.choice((2, 3))
        payoffs = [
            {p: F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
             for p in itertools.product(range(1, m + 1), repeat=n)}
            for _ in range(n)
        ]
        game = reduce_from_normal_form(payoffs)
        source = set()
        for prof in itertools.product(range(1, m + 1), repeat=n):
            if all(payoffs[i][prof[:i] + (s,) + prof[i + 1:]] <= payoffs[i][prof]
                   for i in range(n)
                   for s in range(1, m + 1) if s != prof[i]):
                source.add(prof)
        reduced = set(brute_force_pne(game, find_all=True).all)
        assert source == reduced, seed
    report("criterion 11: reduced games keep identical PNE sets "
           "(100 seeded games)", started)
