"""Command-line interface.

Commands: solve, verify, dynamics, graph, concavity, instance, classify.
Exit codes: 0 success / equilibrium found / property holds; 1 negative
result (no equilibrium, cycle found, concavity fails, truncated walk);
2 usage, precondition or I/O error.

Profiles on the command line are comma-separated 1-indexed qualities
("1,2,2"); load vectors carry an "L:" prefix ("L:2,1,0").  Each entry is
a run of ASCII digits: no sign, space, underscore or other digit.  Identical
inputs and seed give byte-identical stdout; timing goes to stderr.
The CONTESTQ_CAP environment variable overrides the default caps of
10^6 profiles for `solve --method brute` (as does --max-profiles) and
10^5 nodes for `graph` (as does --max-nodes); no other command reads it.
A cap must be an integer >= 0.

`main(argv)` may be called any number of times in one process: it
builds its argument parser once and reuses it (see `make_parser`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional, Sequence

from .dynamics import (
    DEFAULT_NODE_CAP,
    PathStatus,
    analyze_improvement_graph,
    build_improvement_graph,
    node_label,
    run_improvement_path,
    to_dot,
)
from .errors import ContestError
from .game import ContestGame, Profile, is_pne, load_of, utilities
from .gamefile import load_game, load_profile, save_game, serialize_game
from .instances import INSTANCE_IDS, build, verify_certificate
from .payments import classify
from .potential import potential_ascent
from .rationals import format_rational
from .solvers import (
    DEFAULT_PROFILE_CAP,
    brute_force_pne,
    concavity_report,
    contiguous_assignment,
    solve_all_at_lowest,
    solve_contiguous_invariant,
    solve_contiguous_specific,
)


def _cap(default: int, override: Optional[int], flag: str) -> int:
    """The flag's value, else CONTESTQ_CAP, else `default`; a negative cap is an error."""
    if override is not None:
        cap, source = override, flag
    else:
        env = os.environ.get("CONTESTQ_CAP")
        if not env:
            return default
        try:
            cap, source = int(env), "CONTESTQ_CAP"
        except ValueError:
            raise ContestError(f"CONTESTQ_CAP={env!r} is not an integer") from None
    if cap < 0:
        raise ContestError(f"{source} must be >= 0, got {cap}")
    return cap


def parse_profile(text: str) -> Profile:
    """Comma-separated runs of ASCII digits ("1,2,2"); `int` alone would
    also take signs, spaces, underscores and non-ASCII digits."""
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ContestError(f"bad profile {text!r}; expected e.g. 1,2,2")
    return tuple(map(int, parts))


def parse_state(game: ContestGame, text: str) -> Profile:
    """A profile ("1,2,2") or a load vector ("L:2,1,0").

    Load vectors are expanded to the contiguous profile they induce
    (players in non-increasing skill order fill qualities left to
    right).
    """
    if text.startswith("L:"):
        loads = parse_profile(text[2:])
        if len(loads) != game.Q or sum(loads) != game.n:
            raise ContestError(
                f"bad load vector {text!r}: need {game.Q} non-negative "
                f"entries summing to {game.n}"
            )
        return contiguous_assignment(game, loads).profile
    return parse_profile(text)


def _emit(game: ContestGame, found: Optional[Profile], fmt: str, method: str,
          candidates: int, message: str, every: Optional[Sequence[Profile]]) -> None:
    """Print `solve`'s result: the equilibrium `found`, or `message` if it is None.

    `every` lists every equilibrium under `--all`, and is None without it.
    """
    fields: dict = {"method": method, "candidates": candidates}
    if found is None:
        fields.update(status="none", message=message)
        lines = [message]
    else:
        loads = load_of(found, game.Q)
        values = list(map(format_rational, utilities(game, found)))
        fields.update(status="pne", profile=list(found), loads=list(loads), utilities=values)
        lines = [f"pure Nash equilibrium: {','.join(map(str, found))}",
                 f"loads: L:{','.join(map(str, loads))}",
                 f"utilities: {' '.join(values)}",
                 f"candidates checked: {candidates}"]
    if every is not None:
        fields["all"] = [list(p) for p in every]
        lines[:0] = [f"pne: {','.join(map(str, p))}" for p in every]
    print(json.dumps(fields, sort_keys=True) if fmt == "json" else "\n".join(lines))


def cmd_solve(args: argparse.Namespace) -> int:
    method = args.method
    if args.all and method != "brute":
        raise ContestError(f"--all needs --method brute, not {method}")
    game = load_game(args.game)
    started = time.perf_counter()
    every = None
    if method == "brute":
        cap = _cap(DEFAULT_PROFILE_CAP, args.max_profiles, "--max-profiles")
        result = brute_force_pne(game, find_all=args.all, cap=cap)
        found, candidates, every = result.found, result.scanned, result.all
    elif method == "contiguous":
        if game.payment.declared_player_invariant:
            outcome = solve_contiguous_invariant(game)
        else:
            outcome = solve_contiguous_specific(game)
        found = outcome.assignment.profile if outcome.assignment else None
        candidates = outcome.candidates
    elif method == "all-at-one":
        found = solve_all_at_lowest(game)
        candidates = 1
    elif method == "potential":
        found = potential_ascent(game, (1,) * game.n)
        candidates = 1
    else:  # pragma: no cover - argparse choices guard this
        raise ContestError(f"unknown method {method!r}")
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    message = (f"no pure Nash equilibrium ({candidates} profiles scanned)"
               if method == "brute" else
               f"no pure Nash equilibrium ({candidates} candidates checked)"
               if method == "contiguous" else
               "no pure Nash equilibrium under this method's guarantee")
    _emit(game, found, args.format, method, candidates, message, every)
    return 1 if found is None else 0


def cmd_verify(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    if args.profile_file is not None:
        profile = load_profile(args.profile_file)
    else:
        profile = parse_state(game, args.profile)
    verdict = is_pne(game, profile)
    if verdict:
        values = " ".join(map(format_rational, utilities(game, profile)))
        print(f"PNE: {','.join(map(str, profile))} (utilities {values})")
        return 0
    w = verdict.witness
    assert w is not None
    print(f"not a PNE: player {w.player} gains {format_rational(w.gain)} "
          f"by switching to quality {w.quality}")
    return 1


def cmd_dynamics(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    start = (1,) * game.n if args.start is None else parse_state(game, args.start)
    result = run_improvement_path(game, start, policy=args.policy,
                                  max_steps=args.max_steps, seed=args.seed)
    if result.status is PathStatus.CONVERGED:
        assert result.profile is not None
        print(f"converged in {result.steps} steps: "
              f"{','.join(map(str, result.profile))}")
        return 0
    if result.status is PathStatus.CYCLE:
        assert result.cycle is not None
        chain = " -> ".join(",".join(map(str, p)) for p in result.cycle)
        print(f"improvement cycle of period {len(result.cycle)}: {chain}")
        return 1
    print(f"truncated after {result.steps} steps")
    return 1


def cmd_graph(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    mode = "anonymous" if args.anonymous else args.mode or "auto"
    max_nodes = _cap(DEFAULT_NODE_CAP, args.max_nodes, "--max-nodes")
    graph = build_improvement_graph(game, mode=mode, max_nodes=max_nodes)
    analysis = analyze_improvement_graph(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    sinks = " ".join(node_label(analysis.mode, s) for s in analysis.sinks)
    print(f"mode: {analysis.mode}; nodes: {analysis.node_count}; "
          f"edges: {analysis.edge_count}")
    print(f"sinks ({len(analysis.sinks)}): {sinks}")
    if analysis.acyclic:
        print("acyclic: yes (finite improvement property holds)")
        return 0
    assert analysis.cycle_witness is not None
    chain = " -> ".join(node_label(analysis.mode, p) for p in analysis.cycle_witness)
    print(f"acyclic: no; witness cycle: {chain}")
    return 1


def cmd_concavity(args: argparse.Namespace) -> int:
    report = concavity_report(load_game(args.game))
    if report:
        print("three-discrete-concave: yes")
        return 0
    v = report.violation
    assert v is not None
    who = "" if v.player is None else f"player {v.player}, "
    print(f"three-discrete-concave: no ({who}loads L:"
          f"{','.join(map(str, v.loads))}, qualities "
          f"{v.q_i},{v.q_k},{v.q})")
    return 1


def cmd_instance(args: argparse.Namespace) -> int:
    inst = build(args.id, k=args.k, n=args.n, Q=args.Q)
    if args.emit:
        save_game(inst.game, args.emit)
        print(f"wrote {args.emit}")
    if args.verify:
        report = verify_certificate(inst)
        for c in report.claims:
            mark = "PASS" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail and not c.passed else ""
            print(f"{mark} {c.claim}{detail}")
        return 0 if report.passed else 1
    if not args.emit:
        print(json.dumps(serialize_game(inst.game), sort_keys=True, indent=2))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(load_game(args.game))
    print(f"oblivious: {'yes' if verdict.oblivious else 'no'}")
    print(f"player-invariant: {'yes' if verdict.player_invariant else 'no'}")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `contestq` argument parser, built once per process.

    Parsing keeps no state between calls, and usage errors and `--help`
    write to the `sys.stderr` and `sys.stdout` of the moment, so every
    `main` call shares this one parser.  It binds no handlers: `main`
    looks up `cmd_<command>` when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="contestq",
        description="Exact pure-Nash-equilibrium toolkit for review contests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide/compute a pure Nash equilibrium")
    solve.add_argument("--game", required=True)
    solve.add_argument("--method", required=True,
                       choices=("brute", "contiguous", "all-at-one", "potential"))
    solve.add_argument("--all", action="store_true",
                       help="list every equilibrium (--method brute only)")
    solve.add_argument("--format", default="text", choices=("text", "json"))
    solve.add_argument("--max-profiles", type=int, default=None,
                       help="cap on the profiles --method brute scans "
                            "(default: CONTESTQ_CAP or 10^6)")

    verify = sub.add_parser("verify", help="check whether a profile is a PNE")
    verify.add_argument("--game", required=True)
    given = verify.add_mutually_exclusive_group(required=True)
    given.add_argument("--profile", default=None,
                       help="comma-separated qualities (1,2,2) or loads (L:2,1,0)")
    given.add_argument("--profile-file", default=None,
                       help="JSON file with a 'profile' key (solve --format json output)")

    dynamics = sub.add_parser("dynamics", help="run an improvement path")
    dynamics.add_argument("--game", required=True)
    dynamics.add_argument("--start", default=None)
    dynamics.add_argument("--policy", default="first",
                          choices=("first", "first-improving", "best",
                                   "best-response", "random"))
    dynamics.add_argument("--seed", type=int, default=0)
    dynamics.add_argument("--max-steps", type=int, default=None)

    graph = sub.add_parser("graph", help="analyze the improvement graph")
    graph.add_argument("--game", required=True)
    mode = graph.add_mutually_exclusive_group()
    mode.add_argument("--mode", default=None, choices=("auto", "profile", "anonymous"),
                      help="default: auto")
    mode.add_argument("--anonymous", action="store_true",
                      help="force the load-vector quotient")
    graph.add_argument("--dot", default=None, help="write GraphViz output here")
    graph.add_argument("--max-nodes", type=int, default=None,
                       help="cap on the graph's nodes (default: CONTESTQ_CAP or 10^5)")

    concavity = sub.add_parser("concavity",
                               help="check three-discrete-concavity")
    concavity.add_argument("--game", required=True)

    instance = sub.add_parser("instance", help="emit or verify a catalog game")
    instance.add_argument("id", choices=INSTANCE_IDS)
    instance.add_argument("--k", type=int, default=2)
    instance.add_argument("--n", type=int, default=3)
    instance.add_argument("--Q", type=int, default=3)
    instance.add_argument("--emit", default=None)
    instance.add_argument("--verify", action="store_true")

    classify_p = sub.add_parser("classify",
                                help="decide obliviousness / player-invariance")
    classify_p.add_argument("--game", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ContestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
