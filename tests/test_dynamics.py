from fractions import Fraction as F
from itertools import product

import pytest

from contestq import (
    CapExceededError,
    PathResult,
    PathStatus,
    PaymentKind,
    PreconditionError,
    analyze_graph,
    analyze_improvement_graph,
    brute_force_pne,
    build,
    build_improvement_graph,
    build_potential_cache,
    check_no_switch_lemma,
    improvement_steps,
    load_of,
    potential,
    proportional,
    random_game,
    run_improvement_path,
    to_dot,
)

from contestq.dynamics import GraphAnalysis, anonymous_mode_applicable
from contestq.instances import FAMILIES

from conftest import make_game


def test_improvement_steps_counterexample1():
    game = build("ce1").game
    steps = improvement_steps(game, (1, 1))
    assert (2, 2, F(1, 6)) in steps  # utilities 1/6 at q1 vs 1/3 at q2


def test_improvement_steps_empty_at_pne(prop_2x2):
    assert improvement_steps(prop_2x2, (1, 1)) == []


def test_improvement_steps_counterexample2_upward():
    game = build("ce2", k=2).game
    steps = improvement_steps(game, (2, 2))
    assert any(s.player == 2 and s.quality == 3 for s in steps)


def test_best_response_cycle_counterexample1():
    game = build("ce1").game
    walk = run_improvement_path(game, (1, 2), policy="best-response")
    assert walk.status is PathStatus.CYCLE
    assert walk.cycle == [(1, 2), (3, 2), (3, 1), (2, 1), (2, 3), (1, 3)]


def test_best_response_cycle_matching_pennies():
    game = build("matching_pennies").game
    walk = run_improvement_path(game, (1, 2), policy="best-response")
    assert walk.status is PathStatus.CYCLE
    assert len(walk.cycle) == 4
    assert set(walk.cycle) == {(1, 1), (1, 2), (2, 1), (2, 2)}


@pytest.mark.parametrize("policy", ["first", "best", "random"])
def test_fip_converges_under_every_policy(policy):
    game = build("fip_voluntary", n=3, Q=3).game
    pnes = set(brute_force_pne(game, find_all=True).all)
    for start in product((1, 2, 3), repeat=3):
        walk = run_improvement_path(game, start, policy=policy, seed=7)
        assert walk.status is PathStatus.CONVERGED
        assert walk.profile in pnes


def test_random_policy_is_reproducible():
    game = build("ce1").game
    a = run_improvement_path(game, (1, 1), policy="random", seed=123)
    b = run_improvement_path(game, (1, 1), policy="random", seed=123)
    assert (a.status, a.cycle, a.profile, a.steps) == \
        (b.status, b.cycle, b.profile, b.steps)


def test_truncation():
    game = build("ce1").game
    walk = run_improvement_path(game, (1, 1), policy="first", max_steps=1)
    assert walk.status is PathStatus.TRUNCATED


@pytest.mark.parametrize("policy", ["first", "best", "random"])
def test_a_walk_converging_on_its_last_allowed_step_converges(policy):
    game = random_game(5, 4, 3, "proportional")
    free = run_improvement_path(game, (3, 3, 3, 3), policy=policy, seed=7)
    assert free.status is PathStatus.CONVERGED and free.steps >= 4
    bound = run_improvement_path(game, (3, 3, 3, 3), policy=policy, seed=7,
                                 max_steps=free.steps)
    assert bound == free
    short = run_improvement_path(game, (3, 3, 3, 3), policy=policy, seed=7,
                                 max_steps=free.steps - 1)
    assert short == PathResult(PathStatus.TRUNCATED, steps=free.steps - 1)
    still = run_improvement_path(game, free.profile, policy=policy, max_steps=0)
    assert still == PathResult(PathStatus.CONVERGED, profile=free.profile, steps=0)


def test_a_cycle_closed_on_the_last_allowed_step_is_a_cycle():
    game = build("ce1").game
    free = run_improvement_path(game, (1, 2), policy="best-response")
    assert free.status is PathStatus.CYCLE
    assert run_improvement_path(game, (1, 2), policy="best-response",
                                max_steps=free.steps) == free


def test_negative_max_steps_is_a_precondition_error():
    game = build("ce1").game
    with pytest.raises(PreconditionError, match="max_steps"):
        run_improvement_path(game, (1, 1), max_steps=-1)


def test_analyze_graph_fip_voluntary_sinks():
    game = build("fip_voluntary", n=3, Q=3).game
    analysis = analyze_graph(game, mode="anonymous")
    assert analysis.acyclic
    assert analysis.sinks == [(2, 1, 0), (3, 0, 0)]


def test_analyze_graph_fip_mandatory_unique_sink():
    game = build("fip_mandatory", n=3, Q=3).game
    analysis = analyze_graph(game, mode="anonymous")
    assert analysis.acyclic
    assert analysis.sinks == [(3, 0, 0)]


def test_analyze_graph_counterexample2_cycle_witness():
    game = build("ce2", k=2).game
    analysis = analyze_graph(game, mode="profile")
    assert not analysis.acyclic
    witness = analysis.cycle_witness
    assert witness[0] == witness[-1]
    graph = build_improvement_graph(game, mode="profile")
    for a, b in zip(witness, witness[1:]):
        assert b in [m[0] for m in graph.moves[a]]


def test_graph_cap():
    game = build("fip_voluntary", n=4, Q=3).game
    with pytest.raises(CapExceededError):
        build_improvement_graph(game, mode="profile", max_nodes=10)


@pytest.mark.parametrize("mode", ["auto", "profile", "anonymous"])
def test_graph_rejects_a_negative_cap(mode):
    game = build("fip_voluntary", n=2, Q=3).game
    with pytest.raises(PreconditionError, match="max_nodes must be >= 0, got -1"):
        build_improvement_graph(game, mode=mode, max_nodes=-1)
    what = "profile graph has 9" if mode == "profile" else "load graph has 6"
    with pytest.raises(CapExceededError, match=f"{what} nodes, above the cap 0"):
        build_improvement_graph(game, mode=mode, max_nodes=0)


def test_anonymous_mode_needs_interchangeable_players():
    game = build("ce2", k=2).game  # distinct skills
    with pytest.raises(PreconditionError):
        build_improvement_graph(game, mode="anonymous")


def test_no_switch_lemma_voluntary_and_mandatory():
    for iid in ("fip_voluntary", "fip_mandatory"):
        report = check_no_switch_lemma(build(iid, n=3, Q=3).game)
        assert report.holds
        assert report.violations == []
    report = check_no_switch_lemma(build("fip_voluntary", n=3, Q=3).game)
    assert report.boundary_state_clean is True


def test_no_switch_lemma_violated_by_counterexample2():
    game = build("ce2", k=2).game
    report = check_no_switch_lemma(game)
    graph = build_improvement_graph(game)
    assert not report.holds
    assert report.violations
    assert all(m[3] > m[2] and m in graph.moves[u] for u, m in report.violations)


def test_no_switch_requires_proportional(es_2x2):
    with pytest.raises(PreconditionError):
        check_no_switch_lemma(es_2x2)


def test_potential_game_graph_acyclic_and_potential_increases(es_2x2):
    analysis = analyze_graph(es_2x2, mode="profile")
    assert analysis.acyclic
    cache = build_potential_cache(es_2x2)
    graph = build_improvement_graph(es_2x2, mode="profile")
    for node in graph.nodes:
        for target, *_ in graph.moves[node]:
            assert potential(es_2x2, target, cache) > potential(es_2x2, node, cache)


def test_sinks_equal_brute_force_pne_set():
    game = build("fip_voluntary", n=3, Q=2).game
    analysis = analyze_graph(game, mode="profile")
    assert set(analysis.sinks) == set(brute_force_pne(game, find_all=True).all)


@pytest.mark.parametrize("n,Q", [(2, 2), (3, 2), (3, 3), (4, 3)])
@pytest.mark.parametrize("iid", ["fip_voluntary", "fip_mandatory"])
def test_quotient_consistency(n, Q, iid):
    game = build(iid, n=n, Q=Q).game
    full = analyze_graph(game, mode="profile")
    anon = analyze_graph(game, mode="anonymous")
    assert full.acyclic == anon.acyclic
    assert sorted({load_of(s, Q) for s in full.sinks}) == anon.sinks


DOT_PROFILE_2X2 = """\
digraph improvement {
  "1,1" [shape=doublecircle];
  "1,2" [shape=circle];
  "2,1" [shape=circle];
  "2,2" [shape=circle];
  "1,2" -> "1,1" [label="2->1"];
  "2,1" -> "1,1" [label="2->1"];
  "2,2" -> "1,2" [label="2->1"];
  "2,2" -> "2,1" [label="2->1"];
}
"""

DOT_ANONYMOUS_3X3 = """\
digraph improvement {
  "L:3,0,0" [shape=doublecircle];
  "L:2,1,0" [shape=doublecircle];
  "L:1,2,0" [shape=circle];
  "L:0,3,0" [shape=circle];
  "L:2,0,1" [shape=circle];
  "L:1,1,1" [shape=circle];
  "L:0,2,1" [shape=circle];
  "L:1,0,2" [shape=circle];
  "L:0,1,2" [shape=circle];
  "L:0,0,3" [shape=circle];
  "L:1,2,0" -> "L:2,1,0" [label="2->1"];
  "L:0,3,0" -> "L:1,2,0" [label="2->1"];
  "L:2,0,1" -> "L:3,0,0" [label="3->1"];
  "L:2,0,1" -> "L:2,1,0" [label="3->2"];
  "L:1,1,1" -> "L:2,0,1" [label="2->1"];
  "L:1,1,1" -> "L:2,1,0" [label="3->1"];
  "L:1,1,1" -> "L:1,2,0" [label="3->2"];
  "L:0,2,1" -> "L:1,1,1" [label="2->1"];
  "L:0,2,1" -> "L:1,2,0" [label="3->1"];
  "L:0,2,1" -> "L:0,3,0" [label="3->2"];
  "L:1,0,2" -> "L:2,0,1" [label="3->1"];
  "L:1,0,2" -> "L:1,1,1" [label="3->2"];
  "L:0,1,2" -> "L:1,0,2" [label="2->1"];
  "L:0,1,2" -> "L:1,1,1" [label="3->1"];
  "L:0,1,2" -> "L:0,2,1" [label="3->2"];
  "L:0,0,3" -> "L:1,0,2" [label="3->1"];
  "L:0,0,3" -> "L:0,1,2" [label="3->2"];
}
"""


@pytest.mark.parametrize("iid,kwargs,mode,golden", [
    ("fip_mandatory", {"n": 2, "Q": 2}, "profile", DOT_PROFILE_2X2),
    ("fip_voluntary", {"n": 3, "Q": 3}, "anonymous", DOT_ANONYMOUS_3X3),
])
def test_dot_export_golden(iid, kwargs, mode, golden):
    graph = build_improvement_graph(build(iid, **kwargs).game, mode=mode)
    assert to_dot(graph) == golden


def test_dot_export_marks_sinks():
    game = make_game(2, 2, (1, 1), (1, 2), proportional())
    graph = build_improvement_graph(game, mode="anonymous")
    dot = to_dot(graph)
    assert dot.startswith("digraph improvement {")
    assert '"L:2,0" [shape=doublecircle];' in dot
    assert '"L:0,2" [shape=circle];' in dot
    assert "->" in dot


def test_voluntary_sub_unit_effort_boundary():
    # With f_2 < 1 the all-at-lowest state stops being a sink: opting
    # back in pays 1 - f_2 > 0, an upward improvement.  The graph stays
    # acyclic but the sink set moves; the no-switch checker must report
    # the upward edge rather than assume it away.
    game = make_game(2, 2, (1, 1), (0, F(1, 2)), proportional())
    analysis = analyze_graph(game, mode="anonymous")
    assert analysis.acyclic
    assert analysis.sinks == [(0, 2), (1, 1)]
    report = check_no_switch_lemma(game)
    assert not report.holds
    assert [(u, m[2], m[3]) for u, m in report.violations] == [((2, 0), 1, 2)]


# --- the moves readers against a reference -------------------------------

AGREEMENT_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (5, 2))


def agreement_games(name):
    """Seeded `random_game`s of family `name` at shapes under the node cap,
    or the catalog game `name` at several sizes."""
    if name in FAMILIES:
        return [random_game(seed, n, Q, name)
                for seed in range(3) for n, Q in AGREEMENT_SHAPES]
    if name == "ce2":
        return [build(name, k=k).game for k in (2, 3, 4)]
    if name.startswith("fip_"):
        return [build(name, n=n, Q=Q).game for n, Q in ((2, 2), (3, 3), (4, 3), (3, 4))]
    return [build(name).game]


def analysis_from_moves(graph):
    """`analyze_improvement_graph` recomputed from `graph.moves` alone, the
    witness from a recursive DFS over the move targets: roots in node order,
    moves in list order, the cycle closed by the first move back to the path."""
    done, path = set(), []

    def visit(u):
        path.append(u)
        for target, *_ in graph.moves[u]:
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done:
                cycle = visit(target)
                if cycle:
                    return cycle
        done.add(path.pop())
        return None

    witness = next((c for c in (visit(u) for u in graph.nodes if u not in done) if c), None)
    return GraphAnalysis(
        mode=graph.mode, acyclic=witness is None,
        sinks=sorted(u for u in graph.nodes if not graph.moves[u]),
        cycle_witness=witness, node_count=len(graph.nodes),
        edge_count=sum(map(len, graph.moves.values())))


@pytest.mark.parametrize("name", FAMILIES + ("ce1", "ce2", "matching_pennies",
                                             "fip_voluntary", "fip_mandatory"))
def test_moves_readers_agree_with_a_recursive_reference(name):
    for game in agreement_games(name):
        modes = ["profile"] + (["anonymous"] if anonymous_mode_applicable(game) else [])
        for mode in modes:
            graph = build_improvement_graph(game, mode=mode)
            assert analyze_improvement_graph(graph) == analysis_from_moves(graph), mode
            assert list(graph.moves) == graph.nodes, mode
        if game.payment.kind is PaymentKind.PROPORTIONAL:
            graph = build_improvement_graph(game)
            upward = [(u, m) for u in graph.nodes for m in graph.moves[u] if m[3] > m[2]]
            assert check_no_switch_lemma(game).violations == upward
