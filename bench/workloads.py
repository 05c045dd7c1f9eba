"""The benchmark's workloads: seeded corpora, operations and their checks.

A workload is a `setup(seed, workdir)` that builds its corpus (the work
a user also does: generating, certifying and writing games) and an
`ops(corpus, workdir, seed)` that lists the operations one pass times.  Each
operation calls the public API of `contestq` through a module attribute
looked up at call time, so the tracer's wrappers are seen, and carries
a check that decides its output with the exact oracle.  The check runs
on an op's first result; every later result must equal that verified
one, so the oracle runs once per distinct input and never inside a
timed call.

The op list of every workload has a fixed length whatever the seed, so
the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

import contestq as cq
import contestq.cli as cli

import oracle


class CheckError(AssertionError):
    """An operation's output disagrees with the oracle."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


class Op:
    """A timed call and the oracle check of its result.

    Every op is deterministic: the check decides the first result, and
    each later result must equal it.  `leaves` are files the call writes
    that no later op reads; the check removes them, untimed, so that every
    pass writes them anew.  (On ext4, truncating and rewriting an existing
    file flushes it to disk: 0.3 ms against 0.03 ms for a new 20 kB file on
    a shared 2-core Xeon VM, with a tail of several ms that follows the
    disk load of the host.)
    """

    def __init__(self, label: str, call: Callable[[], object],
                 check: Callable[[object], None], leaves=()):
        self.label, self.call, self.leaves = label, call, leaves
        self._check, self._verified = check, []

    def check(self, result):
        try:
            if self._verified:
                expect(result == self._verified[0],
                       f"{self.label}: result changed between passes")
                return
            self._check(result)
            self._verified.append(result)
        finally:
            for path in self.leaves:
                Path(path).unlink(missing_ok=True)


def _rng(seed, tag):
    return random.Random(f"{seed}/{tag}")


def _game(n, Q, skills, efforts, payment, cost=None):
    return cq.ContestGame(
        n=n, Q=Q, skills=tuple(skills), efforts=tuple(efforts),
        participation=(cq.Participation.VOLUNTARY if efforts[0] == 0
                       else cq.Participation.MANDATORY),
        cost=cost or cq.CostFunction("product"), payment=payment)


def _efforts(rng, Q, voluntary):
    efforts = [F(0) if voluntary else F(rng.randint(1, 3), 2)]
    for _ in range(Q - 1):
        efforts.append(efforts[-1] + F(rng.randint(1, 4), rng.choice((1, 2))))
    return efforts


def _skills(rng, n, efforts):
    scale = F(1, n * max(1, int(efforts[-1])))
    return [scale * F(rng.randint(1, 8), 8) for _ in range(n)]


def _draw(rng, n):
    return F(rng.randint(0, 12), 12 * n)


def random_brute_game(seed, kind, n, Q, k):
    """A seeded game of one payment kind, small enough for the Q^n scan.

    The seed draws the numbers; the slot index k fixes the structure
    (participation mode, K), so every seed scans games of the same make-up.
    """
    family = {"proportional": "proportional",
              "oblivious-shared": "oblivious-invariant",
              "invariant-concave": "concave-invariant",
              "specific-concave": "concave-specific"}.get(kind)
    if family is not None:
        return cq.random_game(seed * 100 + k, n, Q, family)
    rng = _rng(seed, (kind, n, Q, k))
    efforts = _efforts(rng, Q, voluntary=k % 2 == 0)
    skills = _skills(rng, n, efforts)
    loads = list(cq.compositions(n, Q))
    if kind == "equal_sharing":
        return _game(n, Q, skills, efforts, cq.equal_sharing())
    if kind == "ktop":
        return _game(n, Q, skills, efforts, cq.ktop(1 + k % (Q - 1)))
    if kind == "oblivious-per-player":
        mats = tuple(tuple(tuple(_draw(rng, n) for _ in range(n)) for _ in range(Q))
                     for _ in range(n))
        return _game(n, Q, skills, efforts, cq.oblivious_table(matrices=mats))
    if kind == "invariant-table-cost":
        table = {(q, v): _draw(rng, n) for v in loads
                 for q in range(1, Q + 1) if v[q - 1] > 0}
        curve = [_draw(rng, n) for _ in range(n)]
        rows = tuple(tuple(skills[i] * f + curve[i] * f * f for f in efforts)
                     for i in range(n))
        return _game(n, Q, skills, efforts, cq.player_invariant_table(table),
                     cost=cq.CostFunction("table", rows))
    if kind == "specific-loads":
        table = {(i, q, v): _draw(rng, n) for i in range(1, n + 1) for v in loads
                 for q in range(1, Q + 1)}
        return _game(n, Q, skills, efforts, cq.player_specific_table(loads_table=table))
    profiles = list(product(range(1, Q + 1), repeat=n))
    if kind == "specific-profile":
        table = {(i, p): _draw(rng, n) for i in range(1, n + 1) for p in profiles}
        return _game(n, Q, skills, efforts,
                     cq.player_specific_table(profile_table=table))
    if kind == "normal-form":
        payoffs = [{p: F(rng.randint(-6, 6), 6) for p in profiles} for _ in range(n)]
        return cq.reduce_from_normal_form(payoffs)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# brute-scan

# Two games per (kind, shape) slot.  The 243- and 256-profile shapes make
# the bulk around the median; the 729-profile scans make the tail.  The
# tail kinds have their first equilibrium at or near (1, ..., 1), so the
# tail is the full scans and does not move with the seed.
BRUTE_SHAPES = tuple(slot for slot in (
    ("proportional", 5, 3), ("equal_sharing", 5, 3), ("ktop", 5, 3),
    ("oblivious-shared", 5, 3), ("oblivious-per-player", 5, 3),
    ("invariant-table-cost", 5, 3), ("invariant-concave", 5, 3),
    ("specific-concave", 5, 3), ("specific-profile", 5, 3), ("normal-form", 5, 3),
    ("proportional", 4, 4), ("equal_sharing", 4, 4), ("oblivious-per-player", 4, 4),
    ("specific-loads", 4, 4), ("normal-form", 4, 4),
    ("oblivious-shared", 6, 3), ("invariant-concave", 6, 3), ("specific-concave", 6, 3),
) for _ in range(2))
# Player-invariant and oblivious: the exact potential guarantees a PNE.
POTENTIAL_KINDS = ("equal_sharing", "ktop", "oblivious-shared")


def setup_brute(seed, workdir):
    games = [(f"{kind}-{n}x{Q}#{k}", kind, random_brute_game(seed, kind, n, Q, k))
             for k, (kind, n, Q) in enumerate(BRUTE_SHAPES)]
    games += [("ce1", "none", cq.build("ce1").game),
              ("ce2-k2", "none", cq.build("ce2", k=2).game),
              ("ce2-k4", "none", cq.build("ce2", k=4).game),
              ("matching_pennies", "none", cq.build("matching_pennies").game)]
    return games


def _check_brute_facts(eq, kind, label):
    if kind == "none":
        expect(eq == [], f"{label}: the oracle finds a PNE {eq[:1]}")
    if kind in POTENTIAL_KINDS:
        expect(eq, f"{label}: potential game without a PNE")


def ops_brute(games, workdir, seed):
    ops = []
    for label, kind, game in games:
        truth = functools.cache(lambda game=game: oracle.ProfileScan(game).equilibria())

        def check_all(res, game=game, kind=kind, truth=truth, label=label):
            eq = truth()
            _check_brute_facts(eq, kind, label)
            expect(res.scanned == game.Q ** game.n, f"{label}: scanned {res.scanned}")
            expect(list(res.all) == eq, f"{label}: set {res.all} != oracle {eq}")
            expect(res.found == (eq[0] if eq else None), f"{label}: found {res.found}")

        def check_first(res, game=game, kind=kind, truth=truth, label=label):
            eq = truth()
            _check_brute_facts(eq, kind, label)
            expect(res.scanned == game.Q ** game.n, f"{label}: scanned {res.scanned}")
            expect(res.all is None, f"{label}: first-hit scan returned a set")
            expect(res.found == (eq[0] if eq else None),
                   f"{label}: first hit {res.found} != oracle {eq[:1]}")

        ops.append(Op(f"brute-all/{label}",
                      lambda game=game: cq.brute_force_pne(game, find_all=True),
                      check_all))
        ops.append(Op(f"brute-first/{label}",
                      lambda game=game: cq.brute_force_pne(game), check_first))
    return ops


# ---------------------------------------------------------------------------
# concave-solve

# (family, n, Q, games).  Q = 2 draws keep genuine slopes, so the
# candidate scan walks past the first candidate and its length moves with
# the seed.  Q >= 3 draws are flat, the first candidate wins and the
# concavity check is most of the work, whatever the seed.  Twelve cheaper
# ops, six of n = 8, Q = 3 that hold the median, and twelve dearer ops,
# of which four of n = 7, Q = 4 hold the p90: quantiles that fall inside
# a block of equal-cost ops do not move with the seed.
CONCAVE_SHAPES = tuple((family, n, Q) for family, n, Q, games in (
    ("concave-specific", 12, 2, 2), ("concave-specific", 16, 2, 2),
    ("concave-specific", 20, 2, 2), ("concave-specific", 24, 2, 2),
    ("concave-invariant", 40, 2, 2), ("concave-invariant", 16, 3, 2),
    ("concave-specific", 8, 3, 6),
    ("concave-invariant", 20, 3, 2), ("concave-specific", 10, 3, 2),
    ("concave-invariant", 10, 4, 2), ("concave-specific", 6, 4, 1),
    ("concave-specific", 7, 4, 4), ("concave-specific", 8, 4, 1),
) for _ in range(games))


def setup_concave(seed, workdir):
    return [(f"{family}-{n}x{Q}#{k}", family,
             cq.random_game(seed * 100 + k, n, Q, family))
            for k, (family, n, Q) in enumerate(CONCAVE_SHAPES)]


def ops_concave(games, workdir, seed):
    ops = []
    for label, family, game in games:
        solver = ("solve_contiguous_specific" if family == "concave-specific"
                  else "solve_contiguous_invariant")
        truth = functools.cache(lambda game=game: oracle.first_contiguous_pne(game))

        def check(res, game=game, truth=truth, label=label):
            expect(res.candidates == comb(game.n + game.Q - 1, game.Q - 1),
                   f"{label}: candidates {res.candidates}")
            expect(res.assignment is not None, f"{label}: no profile returned")
            profile, loads = res.assignment.profile, res.assignment.loads
            expect(oracle.loads_of(profile, game.Q) == loads,
                   f"{label}: profile {profile} does not have loads {loads}")
            expect(oracle.is_contiguous(game, profile),
                   f"{label}: {profile} is not contiguous in skill order")
            expect(oracle.is_pne(game, profile), f"{label}: {profile} is not a PNE")
            expect(loads == truth(),
                   f"{label}: hit {loads} but the first colex PNE is {truth()}")

        ops.append(Op(f"solve/{label}",
                      lambda game=game, solver=solver: getattr(cq, solver)(game),
                      check))
    return ops


# ---------------------------------------------------------------------------
# graph-dynamics

FIP_SHAPES = (("fip_voluntary", 12, 4), ("fip_voluntary", 16, 3),
              ("fip_mandatory", 12, 4), ("fip_mandatory", 16, 3))
# Path and ascent lengths move with the seed; these sixteen ops are the
# cheapest.  The sixteen 81-node profile graphs cost the same whatever the
# seed and hold the median; the six graph ops on n = 12, Q = 4 hold the p90.
PROFILE_GRAPH_SHAPES = ((4, 3),) * 16
PATH_SHAPES = ((8, 4), (10, 3))
ASCENT_SHAPES = ((10, 4), (12, 3))
POLICIES = ("first-improving", "best-response", "random")


def setup_graph(seed, workdir):
    return {
        "fip": [(f"{name}-{n}x{Q}", cq.build(name, n=n, Q=Q).game)
                for name, n, Q in FIP_SHAPES],
        "profile": [(f"proportional-{n}x{Q}#{k}",
                     cq.random_game(seed * 100 + k, n, Q, "proportional"))
                    for k, (n, Q) in enumerate(PROFILE_GRAPH_SHAPES)],
        "paths": [(f"proportional-{n}x{Q}#{k}",
                   cq.random_game(seed * 100 + 50 + k, n, Q, "proportional"))
                  for k, (n, Q) in enumerate(PATH_SHAPES)],
        "ascent": [(f"oblivious-{n}x{Q}#{k}",
                    cq.random_game(seed * 100 + 80 + k, n, Q, "oblivious-invariant"))
                   for k, (n, Q) in enumerate(ASCENT_SHAPES)],
    }


def _starts(seed, label, game, count=2):
    rng = _rng(seed, ("start", label))
    return [tuple(rng.randint(1, game.Q) for _ in range(game.n)) for _ in range(count)]


def _check_cycle(game, cycle, label):
    expect(len(cycle) >= 2, f"{label}: degenerate cycle {cycle}")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        expect(oracle.improves(game, a, b), f"{label}: cycle edge {a}->{b} does not improve")


def ops_graph(corpus, workdir, seed):
    ops = []
    for label, game in corpus["fip"]:
        voluntary = game.efforts[0] == 0
        moves = functools.cache(lambda game=game: oracle.anonymous_moves(game))

        def check_analysis(res, game=game, moves=moves, label=label, voluntary=voluntary):
            m = moves()
            expect(all(b < a for pairs in m.values() for a, b in pairs),
                   f"{label}: the oracle finds an upward improving move")
            expect(res.mode == "anonymous", f"{label}: mode {res.mode}")
            expect(res.node_count == comb(game.n + game.Q - 1, game.Q - 1),
                   f"{label}: {res.node_count} nodes")
            expect(res.edge_count == sum(len(p) for p in m.values()),
                   f"{label}: {res.edge_count} edges")
            expect(res.acyclic and res.cycle_witness is None, f"{label}: not acyclic")
            sinks = sorted(v for v, p in m.items() if not p)
            expect(res.sinks == sinks == oracle.fip_sinks(game.n, game.Q, voluntary),
                   f"{label}: sinks {res.sinks}, oracle {sinks}")

        def check_lemma(res, label=label, voluntary=voluntary):
            expect(res.holds and res.violations == [], f"{label}: upward edges")
            expect(res.boundary_state_clean is (True if voluntary else None),
                   f"{label}: boundary state {res.boundary_state_clean}")

        ops.append(Op(f"analyze-anonymous/{label}",
                      lambda game=game: cq.analyze_graph(game, mode="anonymous"),
                      check_analysis))
        ops.append(Op(f"no-switch/{label}",
                      lambda game=game: cq.check_no_switch_lemma(game), check_lemma))
        if game.Q == 4:
            ops.append(Op(f"analyze-auto/{label}", lambda game=game: cq.analyze_graph(game),
                          check_analysis))

    for label, game in corpus["profile"]:
        scan = functools.cache(lambda game=game: oracle.ProfileScan(game))

        def check_profile(res, game=game, scan=scan, label=label):
            s = scan()
            expect(res.node_count == game.Q ** game.n, f"{label}: {res.node_count} nodes")
            expect(res.edge_count == s.edge_count(), f"{label}: {res.edge_count} edges")
            expect(res.sinks == s.equilibria(), f"{label}: sinks {res.sinks}")
            expect(res.acyclic == s.acyclic(), f"{label}: acyclic {res.acyclic}")
            if not res.acyclic:
                w = res.cycle_witness
                expect(w[0] == w[-1], f"{label}: witness {w} is not closed")
                _check_cycle(game, w[:-1], label)

        ops.append(Op(f"analyze-profile/{label}",
                      lambda game=game: cq.analyze_graph(game, mode="profile"),
                      check_profile))

    for label, game in corpus["paths"]:
        for start in _starts(seed, label, game):
            for policy in POLICIES:
                def check_path(res, game=game, label=label):
                    if res.status is cq.PathStatus.CONVERGED:
                        expect(oracle.is_pne(game, res.profile),
                               f"{label}: converged to non-PNE {res.profile}")
                    else:
                        expect(res.status is cq.PathStatus.CYCLE,
                               f"{label}: status {res.status}")
                        _check_cycle(game, res.cycle, label)

                ops.append(Op(
                    f"path-{policy}/{label}@{start}",
                    lambda game=game, start=start, policy=policy:
                        cq.run_improvement_path(game, start, policy=policy, seed=seed),
                    check_path))

    for label, game in corpus["ascent"]:
        for start in _starts(seed, label, game):
            def check_ascent(res, game=game, label=label):
                expect(oracle.is_pne(game, res), f"{label}: ascent ended at non-PNE {res}")

            ops.append(Op(f"ascent/{label}@{start}",
                          lambda game=game, start=start: cq.potential_ascent(game, start),
                          check_ascent))
    return ops


# ---------------------------------------------------------------------------
# cli-corpus

@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str = field(compare=False)  # holds solve's elapsed time


def run_cli(argv, capture_to=None):
    """`contestq.cli.main` in-process, as a shell user would run it.

    With `capture_to`, stdout is also written to that file, as a shell
    redirect would.  An exception escaping `main` propagates: that is a
    broken exit contract and the op counts as failed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if capture_to is not None:
        Path(capture_to).write_text(out.getvalue(), encoding="utf-8")
    return CliResult(code, out.getvalue(), err.getvalue())


def _profile_text(profile):
    return ",".join(map(str, profile))


def _parse_profile(text):
    return tuple(int(x) for x in text.split(","))


CLI_SEEDED = (
    ("obl0", "oblivious-invariant", 3, 3), ("obl1", "oblivious-invariant", 4, 3),
    ("obl2", "oblivious-invariant", 3, 4),
    ("prop0", "proportional", 3, 3), ("prop1", "proportional", 4, 3),
    ("prop2", "proportional", 4, 3), ("prop3", "proportional", 4, 3),
    ("prop4", "proportional", 4, 3),
    ("cspec", "concave-specific", 4, 3), ("cinv", "concave-invariant", 6, 2),
)
INSTANCE_VERIFY = (("ce1",), ("ce2", "--k", "3"), ("matching_pennies",),
                   ("fip_voluntary", "--n", "5", "--Q", "3"),
                   ("fip_mandatory", "--n", "5", "--Q", "3"),
                   ("natasa", "--n", "3", "--Q", "3"))
INSTANCE_EMIT = ((("ce2", "--k", "4"), 2, 5),
                 (("fip_voluntary", "--n", "8", "--Q", "4"), 8, 4))


def _natasa_game(seed):
    """Proportional, mandatory, product costs, every skill above f2/(f2-f1)."""
    rng = _rng(seed, "natasa")
    efforts = [F(rng.randint(1, 3))]
    for _ in range(2):
        efforts.append(efforts[-1] + rng.randint(1, 3))
    bound = efforts[1] / (efforts[1] - efforts[0])
    skills = [bound + F(rng.randint(0, 4), 4) for _ in range(3)]
    return _game(3, 3, skills, efforts, cq.proportional())


def setup_cli(seed, workdir):
    """Generate and write the game files the CLI operations read."""
    games = {name: cq.random_game(seed * 100 + k, n, Q, family)
             for k, (name, family, n, Q) in enumerate(CLI_SEEDED)}
    games["natasa"] = _natasa_game(seed)
    games["fipv"] = cq.build("fip_voluntary", n=6, Q=3).game
    games["fipm"] = cq.build("fip_mandatory", n=5, Q=4).game
    # Fixed inputs for two known faults: the all-at-lowest skill bound on
    # scaled efforts, and a float skill in a game file.
    games["allone"] = _game(2, 2, [F(2), F(2)], [F(1, 100), F(2, 100)],
                            cq.proportional())
    paths = {}
    for name, game in games.items():
        paths[name] = str(workdir / f"{name}.json")
        cq.save_game(game, paths[name])
    float_game = cq.serialize_game(games["allone"])
    float_game["skills"][0] = 0.5
    paths["float"] = str(workdir / "float.json")
    Path(paths["float"]).write_text(json.dumps(float_game), encoding="utf-8")
    return games, paths


def ops_cli(corpus, workdir, seed):
    games, paths = corpus
    ops = []

    def add(label, argv, check, capture_to=None, leaves=()):
        ops.append(Op(label, lambda: run_cli(argv, capture_to), check, leaves))

    def expect_code(res, want, label):
        expect(res.code in want, f"{label}: exit {res.code} (want {want}); "
                                 f"stdout {res.out!r} stderr {res.err!r}")

    def check_pne_text(game, res, label, first=None):
        lines = res.out.splitlines()
        expect(lines[0].startswith("pure Nash equilibrium: "), f"{label}: {lines}")
        profile = _parse_profile(lines[0].split(": ")[1])
        expect(oracle.is_pne(game, profile), f"{label}: printed non-PNE {profile}")
        if first is not None:
            expect(profile == first, f"{label}: {profile} is not the first PNE {first}")
        utilities = [str(oracle.utility(game, profile, i)) for i in range(1, game.n + 1)]
        expect(lines[2] == "utilities: " + " ".join(utilities), f"{label}: {lines[2]}")

    scans = {name: functools.cache(lambda g=games[name]: oracle.ProfileScan(g))
             for name in ("obl0", "obl1", "obl2", "prop0", "prop1", "prop2", "prop3",
                          "prop4")}

    for name in ("obl0", "obl1", "obl2"):
        game, path = games[name], paths[name]
        scan = scans[name]
        solution = str(workdir / f"{name}.solution.json")

        def check_json(res, game=game, scan=scan, label=f"solve-json/{name}"):
            expect_code(res, {0}, label)
            payload = json.loads(res.out)
            expect(payload["status"] == "pne", f"{label}: {payload}")
            profile = tuple(payload["profile"])
            expect(profile == scan().equilibria()[0], f"{label}: {profile}")
            expect(payload["utilities"] == [str(u) for u in scan().util[profile]],
                   f"{label}: utilities {payload['utilities']}")

        add(f"solve-json/{name}", ["solve", "--game", path, "--method", "brute",
                                   "--format", "json"], check_json, capture_to=solution)

        def check_file_pne(res, label=f"verify-file-pne/{name}"):
            expect_code(res, {0}, label)
            expect(res.out.startswith("PNE: "), f"{label}: {res.out!r}")

        add(f"verify-file-pne/{name}",
            ["verify", "--game", path, "--profile-file", solution], check_file_pne,
            leaves=(solution,))

        non_pne = next(p for p in scan().profiles if scan().improving_moves(p))

        def check_non_pne(res, game=game, profile=non_pne, label=f"verify-non-pne/{name}"):
            expect_code(res, {1}, label)
            words = res.out.split()  # not a PNE: player i gains g by switching to quality q
            i, g, q = int(words[4]), F(words[6]), int(words[-1])
            expect(g > 0 and oracle.gain(game, profile, i, q) == g,
                   f"{label}: claimed deviation {res.out!r} is not real")

        add(f"verify-non-pne/{name}",
            ["verify", "--game", path, "--profile", _profile_text(non_pne)], check_non_pne)
        if name == "obl0":
            non_pne_file = workdir / "obl0.non_pne.json"
            non_pne_file.write_text(json.dumps({"profile": list(non_pne)}), encoding="utf-8")
            add("verify-file-non-pne/obl0",
                ["verify", "--game", path, "--profile-file", str(non_pne_file)],
                functools.partial(check_non_pne, label="verify-file-non-pne/obl0"))

        def check_potential(res, game=game, label=f"solve-potential/{name}"):
            expect_code(res, {0}, label)
            check_pne_text(game, res, label)

        add(f"solve-potential/{name}", ["solve", "--game", path, "--method", "potential"],
            check_potential)

    for name in ("prop0", "prop1"):
        game, path, scan = games[name], paths[name], scans[name]

        def check_brute(res, game=game, scan=scan, label=f"solve-brute/{name}"):
            eq = scan().equilibria()
            expect_code(res, {0} if eq else {1}, label)
            if eq:
                check_pne_text(game, res, label, first=eq[0])

        def check_brute_all(res, scan=scan, label=f"solve-brute-all/{name}"):
            eq = scan().equilibria()
            expect_code(res, {0} if eq else {1}, label)
            listed = [_parse_profile(line[5:]) for line in res.out.splitlines()
                      if line.startswith("pne: ")]
            expect(listed == eq, f"{label}: listed {listed}, oracle {eq}")

        add(f"solve-brute/{name}", ["solve", "--game", path, "--method", "brute"],
            check_brute)
        add(f"solve-brute-all/{name}",
            ["solve", "--game", path, "--method", "brute", "--all"], check_brute_all)
        profile = _starts(seed, name, game, count=1)[0]

        def check_verify(res, game=game, profile=profile, label=f"verify/{name}"):
            expect_code(res, {0} if oracle.is_pne(game, profile) else {1}, label)

        add(f"verify/{name}", ["verify", "--game", path, "--profile", _profile_text(profile)],
            check_verify)

    for name in ("cspec", "cinv"):
        game, path = games[name], paths[name]

        def check_contiguous(res, game=game, label=f"solve-contiguous/{name}"):
            expect_code(res, {0}, label)
            check_pne_text(game, res, label)
            profile = _parse_profile(res.out.splitlines()[0].split(": ")[1])
            expect(oracle.is_contiguous(game, profile), f"{label}: not contiguous")

        add(f"solve-contiguous/{name}", ["solve", "--game", path, "--method", "contiguous"],
            check_contiguous)

    for name in ("cspec", "cinv", "prop0"):
        game = games[name]
        violation = functools.cache(lambda game=game: oracle.concavity_violation(game))

        def check_concavity(res, violation=violation, label=f"concavity/{name}"):
            if violation() is None:
                expect_code(res, {0}, label)
                expect(res.out == "three-discrete-concave: yes\n", f"{label}: {res.out!r}")
            else:
                expect_code(res, {1}, label)
                expect(res.out.startswith("three-discrete-concave: no"), f"{label}: {res.out!r}")

        add(f"concavity/{name}", ["concavity", "--game", paths[name]], check_concavity)

    for name in ("obl0", "prop0", "cspec"):
        game = games[name]
        verdict = functools.cache(lambda game=game: oracle.classify(game))

        def check_classify(res, verdict=verdict, label=f"classify/{name}"):
            expect_code(res, {0}, label)
            oblivious, invariant = verdict()
            yes = {True: "yes", False: "no"}
            want = f"oblivious: {yes[oblivious]}\nplayer-invariant: {yes[invariant]}\n"
            expect(res.out == want, f"{label}: {res.out!r}, oracle {want!r}")

        add(f"classify/{name}", ["classify", "--game", paths[name]], check_classify)

    def check_all_at_one(game, label, codes):
        def check(res):
            expect_code(res, codes, label)
            if res.code == 0:
                check_pne_text(game, res, label)
            if res.code == 2:
                expect(res.err.startswith("error:"), f"{label}: stderr {res.err!r}")
        return check

    # Every skill clears the bound, so all at quality 1 is an equilibrium.
    add("solve-all-at-one/natasa",
        ["solve", "--game", paths["natasa"], "--method", "all-at-one"],
        check_all_at_one(games["natasa"], "solve-all-at-one/natasa", {0}))
    # Fails today: solve_all_at_lowest raises AssertionError on scaled efforts.
    add("solve-all-at-one/scaled-efforts",
        ["solve", "--game", paths["allone"], "--method", "all-at-one"],
        check_all_at_one(games["allone"], "solve-all-at-one/scaled-efforts", {0, 1, 2}))

    # The four 81-node profile graphs cost the same whatever the seed and
    # hold the p90.
    graphs = [("fipv", ["--anonymous"]), ("fipm", ["--anonymous"])]
    graphs += [(name, ["--mode", "profile"]) for name in ("prop1", "prop2", "prop3", "prop4")]
    for name, extra in graphs:
        game = games[name]
        dot = str(workdir / f"{name}.dot")
        anonymous = extra == ["--anonymous"]
        if anonymous:
            truth = functools.cache(lambda game=game: (
                lambda m: (sum(map(len, m.values())),
                           sorted(v for v, p in m.items() if not p),
                           all(b < a for p in m.values() for a, b in p)))(
                    oracle.anonymous_moves(game)))
        else:
            truth = functools.cache(lambda s=scans[name]: (
                s().edge_count(), s().equilibria(), s().acyclic()))

        def check_graph(res, game=game, truth=truth, dot=dot, anonymous=anonymous,
                        label=f"graph-dot/{name}"):
            edges, sinks, acyclic = truth()
            expect_code(res, {0} if acyclic else {1}, label)
            nodes = (comb(game.n + game.Q - 1, game.Q - 1) if anonymous
                     else game.Q ** game.n)
            lines = res.out.splitlines()
            mode = "anonymous" if anonymous else "profile"
            expect(lines[0] == f"mode: {mode}; nodes: {nodes}; edges: {edges}",
                   f"{label}: {lines[0]}")
            prefix = "L:" if anonymous else ""
            want = " ".join(prefix + _profile_text(s) for s in sinks)
            expect(lines[1] == f"sinks ({len(sinks)}): {want}", f"{label}: {lines[1]}")
            with open(dot, encoding="utf-8") as fh:
                dot_lines = fh.read().splitlines()
            expect(len(dot_lines) == nodes + edges + 2, f"{label}: dot has {len(dot_lines)} lines")

        add(f"graph-dot/{name}", ["graph", "--game", paths[name], *extra, "--dot", dot],
            check_graph, leaves=(dot,))

    for args in INSTANCE_VERIFY:
        def check_certificate(res, label=f"instance-verify/{args[0]}"):
            expect_code(res, {0}, label)
            lines = res.out.splitlines()
            expect(lines and all(line.startswith("PASS ") for line in lines),
                   f"{label}: {res.out!r}")

        add(f"instance-verify/{args[0]}", ["instance", *args, "--verify"], check_certificate)

    for args, n, Q in INSTANCE_EMIT:
        target = str(workdir / f"emit-{args[0]}.json")

        def check_emit(res, target=target, n=n, Q=Q, label=f"instance-emit/{args[0]}"):
            expect_code(res, {0}, label)
            expect(res.out == f"wrote {target}\n", f"{label}: {res.out!r}")
            with open(target, encoding="utf-8") as fh:
                emitted = json.load(fh)
            expect((emitted["n"], emitted["Q"]) == (n, Q), f"{label}: {emitted}")

        add(f"instance-emit/{args[0]}", ["instance", *args, "--emit", target], check_emit,
            leaves=(target,))

    def check_float(res, label="verify/float-skill"):
        expect_code(res, {2}, label)
        expect(res.err.startswith("error:"), f"{label}: stderr {res.err!r}")

    # Fails today: RationalParseError escapes main as a traceback.
    add("verify/float-skill", ["verify", "--game", paths["float"], "--profile", "1,1"],
        check_float)
    return ops


# name -> (setup(seed, workdir), ops(corpus, workdir, seed))
WORKLOADS = {
    "brute-scan": (setup_brute, ops_brute),
    "concave-solve": (setup_concave, ops_concave),
    "graph-dynamics": (setup_graph, ops_graph),
    "cli-corpus": (setup_cli, ops_cli),
}
