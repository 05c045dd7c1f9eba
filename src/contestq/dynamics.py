"""Improvement steps, paths, and the quality improvement graph.

The improvement graph has an edge between two states exactly when one
player's quality differs and switching strictly raises her utility.
Two state spaces are supported: full profiles, and (for games with
equal skills, identical cost rows, and a player-invariant payment) the
quotient by player permutations, whose nodes are load vectors.  The
quotient shrinks the node count from Q^n to C(n+Q-1, Q-1), which is
what makes the proportional-allocation acyclicity checks feasible for
larger n.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import groupby, product
from math import comb
from operator import attrgetter
from typing import NamedTuple, Optional, Union

from .errors import CapExceededError, PreconditionError
from .game import (
    ContestGame,
    Deviation,
    Participation,
    Profile,
    StabilityKernel,
    _shift,
    validate_profile,
)
from .payments import PaymentKind, _payment_key, compositions

Loads = tuple[int, ...]
Node = tuple[int, ...]  # profile or load vector depending on mode

DEFAULT_NODE_CAP = 10**5


def improvement_steps(game: ContestGame, profile: Profile) -> list[Deviation]:
    """All strictly improving unilateral deviations, exact gains."""
    validate_profile(game, profile)
    return list(StabilityKernel(game).improvements(profile))


class Policy(Enum):
    FIRST_IMPROVING = "first-improving"
    BEST_RESPONSE = "best-response"
    RANDOM = "random"


_POLICY_ALIASES = {
    "first": Policy.FIRST_IMPROVING,
    "first-improving": Policy.FIRST_IMPROVING,
    "best": Policy.BEST_RESPONSE,
    "best-response": Policy.BEST_RESPONSE,
    "random": Policy.RANDOM,
}


def parse_policy(name: Union[str, Policy]) -> Policy:
    if isinstance(name, Policy):
        return name
    policy = _POLICY_ALIASES.get(name)
    if policy is None:
        raise PreconditionError(f"unknown policy {name!r}")
    return policy


class PathStatus(Enum):
    CONVERGED = "converged"
    CYCLE = "cycle"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class PathResult:
    status: PathStatus
    profile: Optional[Profile] = None      # converged: the equilibrium reached
    steps: int = 0
    cycle: Optional[list[Profile]] = None  # cycle: repeated state sequence


def run_improvement_path(game: ContestGame, start: Profile,
                         policy: Union[str, Policy] = Policy.FIRST_IMPROVING,
                         max_steps: Optional[int] = None,
                         seed: int = 0) -> PathResult:
    """Walk improvement steps from `start` under a deviation policy.

    first-improving: lowest player index, then lowest target quality.
    best-response: the lowest-index player with any improvement moves to
    her maximum-gain quality (ties to the lower quality).
    random: uniform over all improving (player, quality) pairs, seeded.

    Any revisited state closes an improvement cycle, so the walk always
    terminates without a step bound; `max_steps` only truncates earlier.
    A walk is truncated only when it has taken `max_steps` steps and a
    further move exists, so one that reaches an equilibrium on its last
    allowed step converges.
    """
    policy = parse_policy(policy)
    if max_steps is not None and max_steps < 0:
        raise PreconditionError(f"max_steps must be >= 0, got {max_steps}")
    validate_profile(game, start)
    rng = _random.Random(seed) if policy is Policy.RANDOM else None
    kernel = StabilityKernel(game)
    profile = tuple(start)
    seen: dict[Profile, int] = {profile: 0}
    path = [profile]
    steps = 0
    while True:
        move = _pick_move(kernel, profile, policy, rng)
        if move is None:
            return PathResult(PathStatus.CONVERGED, profile=profile, steps=steps)
        if max_steps is not None and steps >= max_steps:
            return PathResult(PathStatus.TRUNCATED, steps=steps)
        profile = move.apply(profile)
        steps += 1
        if profile in seen:
            return PathResult(PathStatus.CYCLE, steps=steps,
                              cycle=path[seen[profile]:])
        seen[profile] = len(path)
        path.append(profile)


def _pick_move(kernel: StabilityKernel, profile: Profile, policy: Policy,
               rng: Optional[_random.Random]) -> Optional[Deviation]:
    moves = kernel.improvements(profile)
    if policy is Policy.FIRST_IMPROVING:
        return next(moves, None)
    if policy is Policy.BEST_RESPONSE:
        for _, own in groupby(moves, key=attrgetter("player")):
            return max(own, key=attrgetter("gain"))
        return None
    options = list(moves)
    return options[rng.randrange(len(options))] if options else None


class Edge(NamedTuple):
    source: Node
    target: Node
    player: Optional[int]  # None in anonymous (load-vector) mode
    from_quality: int
    to_quality: int
    gain: Fraction


def _edge(source: Node, move: tuple) -> Edge:
    return Edge(source, *move[:4], Fraction(*move[4:]))


@dataclass
class ImprovementGraph:
    """`moves[u]`: u's improving moves in edge order, each a tuple (target,
    player, from_quality, to_quality, num, den) of gain num/den; `edges`
    builds their `Edge`s on first read."""

    mode: str  # "profile" | "anonymous"
    nodes: list[Node]
    moves: dict[Node, list[tuple]] = field(default_factory=dict)

    @cached_property
    def edges(self) -> dict[Node, list[Edge]]:
        return {u: [_edge(u, m) for m in out] for u, out in self.moves.items()}

    def sinks(self) -> list[Node]:
        return [u for u in self.nodes if not self.moves[u]]


def anonymous_mode_applicable(game: ContestGame) -> bool:
    """Load-vector quotienting is sound when players are interchangeable."""
    if not game.anonymous:
        return False
    if not game.payment.declared_player_invariant:
        return False
    if game.cost.kind == "table":
        assert game.cost.table is not None
        first = game.cost.table[0]
        return all(row == first for row in game.cost.table)
    return True


def build_improvement_graph(game: ContestGame, mode: str = "auto",
                            max_nodes: int = DEFAULT_NODE_CAP) -> ImprovementGraph:
    if mode == "auto":
        mode = "anonymous" if anonymous_mode_applicable(game) else "profile"
    if mode == "anonymous":
        if not anonymous_mode_applicable(game):
            raise PreconditionError(
                "anonymous mode needs equal skills, identical cost rows, "
                "and a player-invariant payment"
            )
        return _build_anonymous(game, max_nodes)
    if mode != "profile":
        raise PreconditionError(f"unknown graph mode {mode!r}")
    return _build_profile(game, max_nodes)


def _build_profile(game: ContestGame, max_nodes: int) -> ImprovementGraph:
    count = game.Q**game.n
    if count > max_nodes:
        raise CapExceededError(
            f"profile graph has {count} nodes, above the cap {max_nodes}"
        )
    nodes = [tuple(p) for p in product(game.qualities(), repeat=game.n)]
    graph = ImprovementGraph(mode="profile", nodes=nodes)
    kernel = StabilityKernel(game)
    for node in nodes:
        key = _payment_key(game, node)
        graph.moves[node] = [
            (node[:i - 1] + (b,) + node[i:], i, a, b, num, den)
            for i, a in enumerate(node, 1) for b, num, den in kernel.gains(i, a, key)]
    return graph


def _build_anonymous(game: ContestGame, max_nodes: int) -> ImprovementGraph:
    count = comb(game.n + game.Q - 1, game.Q - 1)
    if count > max_nodes:
        raise CapExceededError(
            f"load graph has {count} nodes, above the cap {max_nodes}"
        )
    nodes = list(compositions(game.n, game.Q))
    graph = ImprovementGraph(mode="anonymous", nodes=nodes)
    kernel = StabilityKernel(game)  # players are interchangeable: ask player 1
    for loads in nodes:
        graph.moves[loads] = [
            (_shift(loads, a, b), None, a, b, num, den)
            for a in game.qualities() if loads[a - 1]
            for b, num, den in kernel.gains(1, a, loads)]
    return graph


@dataclass(frozen=True)
class GraphAnalysis:
    mode: str
    acyclic: bool
    sinks: list[Node]
    cycle_witness: Optional[list[Node]]
    node_count: int
    edge_count: int


def analyze_graph(game: ContestGame, mode: str = "auto") -> GraphAnalysis:
    """Exact DAG test plus sink enumeration, within `DEFAULT_NODE_CAP` nodes.

    Sinks of the improvement graph are exactly the pure Nash equilibria
    (equilibrium loads in anonymous mode).  The cycle witness, if any,
    comes from the first back edge of a three-color depth-first search.
    """
    return analyze_improvement_graph(build_improvement_graph(game, mode))


def analyze_improvement_graph(graph: ImprovementGraph) -> GraphAnalysis:
    """`analyze_graph` on a graph already built."""
    witness = find_cycle(graph)
    return GraphAnalysis(
        mode=graph.mode,
        acyclic=witness is None,
        sinks=sorted(graph.sinks()),
        cycle_witness=witness,
        node_count=len(graph.nodes),
        edge_count=sum(map(len, graph.moves.values())),
    )


def find_cycle(graph: ImprovementGraph) -> Optional[list[Node]]:
    """First cycle found by iterative three-color DFS, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in graph.nodes}
    for root in graph.nodes:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Node, int]] = [(root, 0)]
        order = [root]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            outs = graph.moves[node]
            if idx < len(outs):
                stack[-1] = (node, idx + 1)
                nxt = outs[idx][0]
                if color[nxt] == GRAY:
                    at = order.index(nxt)
                    return order[at:] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    order.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                order.pop()
    return None


@dataclass(frozen=True)
class NoSwitchReport:
    holds: bool
    violations: list[Edge]
    boundary_state_clean: Optional[bool]  # voluntary only: (n-1, 1, 0, ...) has no 1<->2 step


def check_no_switch_lemma(game: ContestGame) -> NoSwitchReport:
    """Check that improvement steps only move the deviator strictly down.

    For proportional allocation this is the key structural fact behind
    acyclicity; the report also confirms that under voluntary
    participation the boundary state with n-1 players at quality 1 and
    one at quality 2 admits no improvement in either direction between
    those two qualities (anonymous graphs only).  It reads the graph
    `build_improvement_graph(game)` builds.
    """
    if game.payment.kind is not PaymentKind.PROPORTIONAL:
        raise PreconditionError("the no-switch check targets proportional allocation")
    graph = build_improvement_graph(game)
    violations = [_edge(u, m) for u in graph.nodes for m in graph.moves[u]
                  if m[3] > m[2]]
    boundary: Optional[bool] = None
    if game.participation is Participation.VOLUNTARY and graph.mode == "anonymous":
        state = (game.n - 1, 1) + (0,) * (game.Q - 2)
        moves = {(m[2], m[3]) for m in graph.moves[state]}
        boundary = (1, 2) not in moves and (2, 1) not in moves
    return NoSwitchReport(holds=not violations, violations=violations,
                          boundary_state_clean=boundary)


def node_label(graph_mode: str, node: Node) -> str:
    text = ",".join(str(x) for x in node)
    return f"L:{text}" if graph_mode == "anonymous" else text


def to_dot(graph: ImprovementGraph) -> str:
    """GraphViz rendering, sinks double-circled."""
    lines = ["digraph improvement {"]
    sinks = set(graph.sinks())
    label = {node: node_label(graph.mode, node) for node in graph.nodes}
    for node in graph.nodes:
        shape = "doublecircle" if node in sinks else "circle"
        lines.append(f'  "{label[node]}" [shape={shape}];')
    for node in graph.nodes:
        for target, _, a, b, _, _ in graph.moves[node]:
            lines.append(
                f'  "{label[node]}" -> "{label[target]}" [label="{a}->{b}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
