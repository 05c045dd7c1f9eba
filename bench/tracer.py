"""Per-layer tracing of `contestq` from outside the program.

`Tracer.install()` wraps every public function defined in the library's
modules and rebinds the name in every `contestq` module that holds it,
so calls between modules (``solvers`` calling ``game.is_pne``) and
within a module (``is_pne`` calling ``utility``) both pass through a
wrapper.  `remove()` puts every original back.  Generator functions are
left alone: their work runs in the consumer, not in the call.

Each call records one span (label, start, end, parent span) in flat
arrays kept in memory.  A label's self time is the summed duration of
its spans minus the time covered by their child spans.  A few results
are counted where they leave a layer (equilibria found, the winning
candidate's rank, path steps) to form the ratios of the per-layer
report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import oracle

MODULES = ("game", "payments", "potential", "dynamics", "solvers", "instances",
           "gamefile", "rationals", "cli")

# name -> unit, in the order the per-layer report prints them
LAYER_METRICS = {
    "game.is_pne.calls": "count",
    "game.is_pne.self_s": "s",
    "game.utility.calls": "count",
    "game.utility.self_s": "s",
    "ratio.utility_per_is_pne": "ratio",
    "payments.evaluate_payment.calls": "count",
    "payments.evaluate_payment.self_s": "s",
    "payments.normalization_constant.calls": "count",
    "payments.payment_on_loads.calls": "count",
    "payments.payment_on_loads.self_s": "s",
    "payments.specific_payment_on_loads.calls": "count",
    "payments.specific_payment_on_loads.self_s": "s",
    "payments.classify.self_s": "s",
    "solvers.brute_force_pne.self_s": "s",
    "ratio.equilibria_per_profile": "ratio",
    "solvers.concavity_check.self_s": "s",
    "solvers.solve_contiguous.self_s": "s",
    "solvers.contiguous_assignment.calls": "count",
    "ratio.candidates_to_hit": "ratio",
    "dynamics.build_improvement_graph.self_s": "s",
    "dynamics.find_cycle.self_s": "s",
    "dynamics.check_no_switch_lemma.self_s": "s",
    "ratio.graph_builds_per_op": "ratio",
    "dynamics.run_improvement_path.self_s": "s",
    "dynamics.improvement_steps.calls": "count",
    "dynamics.improvement_steps.self_s": "s",
    "ratio.steps_per_path": "ratio",
    "potential.build_potential_cache.self_s": "s",
    "potential.potential_ascent.self_s": "s",
    "instances.random_game.self_s": "s",
    "ratio.draws_per_concave_game": "ratio",
    "instances.verify_certificate.self_s": "s",
    "gamefile.load_game.self_s": "s",
    "gamefile.parse_game.self_s": "s",
    "gamefile.save_game.self_s": "s",
    "rationals.parse_rational.calls": "count",
    "rationals.parse_rational.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Labels summed into one per-layer name.
GROUPS = {
    "solvers.concavity_check": ("solvers.is_three_discrete_concave_specific",
                                "solvers.is_three_discrete_concave_invariant",
                                "solvers.concavity_report"),
    "solvers.solve_contiguous": ("solvers.solve_contiguous_specific",
                                 "solvers.solve_contiguous_invariant"),
}


def _count_equilibria(counts, args, kwargs, res):
    counts["equilibria"] += len(res.all) if res.all is not None else int(res.found is not None)


def _count_hit(counts, args, kwargs, res):
    if res.assignment is not None:
        counts["hits"] += 1
        counts["hit_ranks"] += oracle.colex_rank(res.assignment.loads) + 1


def _count_steps(counts, args, kwargs, res):
    counts["paths"] += 1
    counts["path_steps"] += res.steps


def _count_concave_draw(counts, args, kwargs, res):
    family = args[3] if len(args) > 3 else kwargs["family"]
    counts["concave_games"] += family.startswith("concave")


HOOKS = {
    "solvers.brute_force_pne": _count_equilibria,
    "solvers.solve_contiguous_specific": _count_hit,
    "solvers.solve_contiguous_invariant": _count_hit,
    "dynamics.run_improvement_path": _count_steps,
    "instances.random_game": _count_concave_draw,
}


def _public_functions():
    """(label, function) for every public function the library defines."""
    found = []
    for name in MODULES:
        module = sys.modules[f"contestq.{name}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)):
                found.append((f"{name}.{attr}", value))
    return found


class Tracer:
    """Spans of every traced call, kept in memory until `summary()`."""

    def __init__(self):
        self.labels = []
        self.start = array("d")
        self.end = array("d")
        self.label = array("H")
        self.parent = array("l")
        self.counts = Counter()
        self._stack = []
        self._rebound = []
        self._wrappers = {id(fn): (fn, self._wrap(label, fn))
                          for label, fn in _public_functions()}

    def _wrap(self, label, fn):
        lid = len(self.labels)
        self.labels.append(label)
        hook = HOOKS.get(label)
        start, end, labels, parents, stack = (self.start, self.end, self.label,
                                              self.parent, self._stack)
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(start)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Rebind every public library function to its traced wrapper."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for name, module in list(sys.modules.items()):
            if name != "contestq" and not name.startswith("contestq."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._rebound.append((module, attr, value))

    def remove(self):
        """Restore every name `install` rebound."""
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def summary(self):
        """Per label: calls, total and self seconds; and parent->child call counts."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        pairs = Counter()
        start, end, label, parent = self.start, self.end, self.label, self.parent
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
                pairs[(label[p], label[k])] += 1
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.labels}
        for k in range(n):
            entry = stats[self.labels[label[k]]]
            dur = end[k] - start[k]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[k]
        named_pairs = Counter({(self.labels[a], self.labels[b]): c
                               for (a, b), c in pairs.items()})
        return stats, named_pairs

    def layer_metrics(self, ops_traced, overhead_ratio):
        """The per-layer report: every name of LAYER_METRICS, 0 where unused."""
        stats, pairs = self.summary()
        for group, members in GROUPS.items():
            stats[group] = {key: sum(stats[m][key] for m in members)
                            for key in ("calls", "total_s", "self_s")}
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name in LAYER_METRICS:
            label, _, field = name.rpartition(".")
            if label in stats:
                values[name] = stats[label][field]
        values.update({
            "ratio.utility_per_is_pne": ratio(pairs[("game.is_pne", "game.utility")],
                                              stats["game.is_pne"]["calls"]),
            "ratio.equilibria_per_profile": ratio(
                c["equilibria"], pairs[("solvers.brute_force_pne", "game.is_pne")]),
            "ratio.candidates_to_hit": ratio(c["hit_ranks"], c["hits"]),
            "ratio.graph_builds_per_op": ratio(
                stats["dynamics.build_improvement_graph"]["calls"], ops_traced),
            "ratio.steps_per_path": ratio(c["path_steps"], c["paths"]),
            "ratio.draws_per_concave_game": ratio(
                pairs[("instances.random_game", "solvers.concavity_report")],
                c["concave_games"]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: values[name] for name in LAYER_METRICS}
