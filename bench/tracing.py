"""Spans around the package's public functions, recorded from outside it.

Each wrapper is installed where the caller looks the name up (a module
global of ``littlestone.cli``, a ``Solver`` method, ...), so the package
itself is not edited.  A span is ``[name, start, end, parent, op, info]``:
``parent`` indexes the enclosing span (-1 at top level), ``op`` is the index
of the benchmark op that caused it, and ``info`` holds a count taken at the
boundary (states added, weight entries, JSON length, rounds).  Spans stay in
memory for one pass; :func:`layer_metrics` turns them into per-layer numbers.

A span's name starts with its layer, one of the package modules: classes,
dimension, trees, learners, games, experts, cli.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from littlestone import cli, dimension, games, learners
from littlestone.classes import ExpertClass
from littlestone.dimension import Solver

LAYERS = ("classes", "dimension", "trees", "learners", "games", "experts", "cli")

# (owner, attribute, span name) for functions traced without a boundary count.
_PLAIN = [
    (cli, "load_class_file", "classes.load"),
    (cli, "expert_class", "classes.load"),
    (cli, "universal_class", "classes.load"),
    (learners, "restrict", "classes.restrict"),
    (games, "restrict", "classes.restrict"),
    (games, "min_mistakes", "classes.min_mistakes"),
    (cli, "capacity_D", "experts.call"),
    (cli, "d_star", "experts.call"),
    (cli, "harmonic_number", "experts.call"),
    (cli, "mstar2_closed_form", "experts.call"),
    (cli, "up_min_over_grid", "experts.call"),
    (cli, "vovk_up", "experts.call"),
    (cli, "depth", "trees.stats"),
    (cli, "expected_branch_length", "trees.stats"),
    (cli, "is_monotone", "trees.stats"),
    (cli, "min_branch_length", "trees.stats"),
    (cli, "sample_branch", "trees.sample"),
    (cli, "shatter_check", "trees.shatter"),
    (games, "shatter_check", "trees.shatter"),
    (cli, "tree_from_json", "trees.parse"),
    (cli, "make_learner", "learners.make"),
    (learners, "make_learner", "learners.make"),
    (cli, "main", "cli.main"),
]

_LEARNERS = (
    learners.SOALearner,
    learners.RandSOALearner,
    learners.BoundedRandSOALearner,
    learners.FollowTheLeader,
    learners.ConstantLearner,
    learners.AdaptiveAggregator,
)
_ADVERSARIES = (games.RandomBranchAdversary, games.ThresholdAdversary, games.ProperAdversary)
_QUERIES = ("littlestone", "randomized_littlestone", "bounded_littlestone",
            "bounded_randomized_littlestone")


def _states_before(args):
    return args[0].states_visited


def _query_info(args, result, before):
    kind = "count" if isinstance(args[1], ExpertClass) else "explicit"
    return (kind, args[0].states_visited - before)


def _extract_info(args, result, before):
    return (*_query_info(args, result, before), result[0])


class Tracer:
    """Records spans while installed; :meth:`remove` restores every name."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, pre=None, post=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                span[5] = post(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, pre=None, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, pre, post))

    def install(self) -> None:
        for owner, attr, name in _PLAIN:
            self._patch(owner, attr, name)
        for attr in _QUERIES:
            self._patch(Solver, attr, "dimension.query", _states_before, _query_info)
        self._patch(Solver, "horizon_for_slack", "dimension.horizon", _states_before, _query_info)
        self._patch(Solver, "extract_optimal_tree", "dimension.extract", _states_before,
                    _extract_info)
        for owner in (cli, dimension):
            self._patch(owner, "quasi_balance_weights", "trees.weights",
                        post=lambda args, result, _: len(result.weights))
        self._patch(cli, "tree_to_json", "trees.serialize",
                    post=lambda args, result, _: len(result))
        for owner in (cli, games):
            self._patch(owner, "play", "games.play",
                        post=lambda args, result, _: len(result.rounds))
        for cls in _LEARNERS:
            self._patch(cls, "predict", "learners.predict")
            self._patch(cls, "update", "learners.update")
        for cls in _ADVERSARIES:
            for attr in ("reset", "next_instance", "answer"):
                self._patch(cls, attr, "games.adversary")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


# (metric, unit, better); every value is per pass.
PER_LAYER = [
    ("dimension.calls", "count", "lower"),
    ("dimension.busy_s", "s", "lower"),
    ("dimension.count.busy_s", "s", "lower"),
    ("dimension.explicit.busy_s", "s", "lower"),
    ("dimension.states", "count", "lower"),
    ("dimension.states_per_s", "1/s", "higher"),
    ("dimension.memo_hit_ratio", "ratio", "higher"),
    ("dimension.horizon.busy_s", "s", "lower"),
    ("dimension.extract.self_s", "s", "lower"),
    ("trees.weights.busy_s", "s", "lower"),
    ("trees.weight_entries", "count", "lower"),
    ("trees.dag_nodes", "count", "lower"),
    ("trees.entries_per_node", "ratio", "lower"),
    ("trees.serialize.busy_s", "s", "lower"),
    ("trees.json_bytes", "bytes", "lower"),
    ("trees.parse.busy_s", "s", "lower"),
    ("trees.shatter.busy_s", "s", "lower"),
    ("trees.stats.busy_s", "s", "lower"),
    ("trees.sample.busy_s", "s", "lower"),
    ("classes.restrict.calls", "count", "lower"),
    ("classes.restrict.busy_s", "s", "lower"),
    ("classes.min_mistakes.busy_s", "s", "lower"),
    ("classes.load.busy_s", "s", "lower"),
    ("learners.predict.calls", "count", "lower"),
    ("learners.predict.self_s", "s", "lower"),
    ("learners.update.self_s", "s", "lower"),
    ("games.games", "count", "higher"),
    ("games.rounds", "count", "higher"),
    ("games.play.self_s", "s", "lower"),
    ("games.adversary.busy_s", "s", "lower"),
    ("experts.calls", "count", "lower"),
    ("experts.busy_s", "s", "lower"),
    ("cli.adversary_builds", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Counters that must repeat exactly from pass to pass and run to run.
COUNTERS = (
    "dimension.states",
    "trees.weight_entries",
    "trees.dag_nodes",
    "trees.json_bytes",
    "games.games",
    "games.rounds",
    "classes.restrict.calls",
    "cli.adversary_builds",
)


def _dag_nodes(tree) -> int:
    seen: set[int] = set()
    stack = [tree]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if not t.is_leaf:
            stack.append(t.zero)
            stack.append(t.one)
    return len(seen)


def layer_metrics(spans: list[list], play_ops: set[int]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (everything but the overhead).

    A ``busy_s`` sums the spans of a group that no span of the same group
    encloses; a ``self_s`` sums span durations minus their children's.
    ``play_ops`` are the op indices of CLI ``play`` calls, whose tree
    extractions count as adversary builds.
    """
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return duration(i) - covered[i]

    def outermost(i, prefix):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0].startswith(prefix):
                return False
            p = spans[p][3]
        return True

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(prefix):
        return [i for name, ids in by_name.items() if name.startswith(prefix) for i in ids]

    def busy(prefix):
        return sum(duration(i) for i in named(prefix) if outermost(i, prefix))

    def self_sum(prefix):
        return sum(self_time(i) for i in named(prefix))

    entry = [i for i in named("dimension.") if outermost(i, "dimension.")]
    states = sum(spans[i][5][1] for i in entry)
    dim_busy = sum(duration(i) for i in entry)
    extracts = named("dimension.extract")
    from_extract = [i for i in named("trees.weights")
                    if spans[i][3] >= 0 and spans[spans[i][3]][0] == "dimension.extract"]
    entries = sum(spans[i][5] for i in from_extract)
    nodes = sum(_dag_nodes(spans[i][5][2]) for i in extracts)
    games_ = named("games.play")
    out = {
        "dimension.calls": len(entry),
        "dimension.busy_s": dim_busy,
        "dimension.count.busy_s": sum(duration(i) for i in entry if spans[i][5][0] == "count"),
        "dimension.explicit.busy_s": sum(
            duration(i) for i in entry if spans[i][5][0] == "explicit"),
        "dimension.states": states,
        "dimension.states_per_s": states / dim_busy if dim_busy > 0 else 0.0,
        "dimension.memo_hit_ratio": (
            sum(1 for i in entry if spans[i][5][1] == 0) / len(entry) if entry else 0.0),
        "dimension.horizon.busy_s": busy("dimension.horizon"),
        "dimension.extract.self_s": sum(self_time(i) for i in extracts),
        "trees.weights.busy_s": busy("trees.weights"),
        "trees.weight_entries": entries,
        "trees.dag_nodes": nodes,
        "trees.entries_per_node": entries / nodes if nodes else 0.0,
        "trees.serialize.busy_s": busy("trees.serialize"),
        "trees.json_bytes": sum(spans[i][5] for i in named("trees.serialize")),
        "trees.parse.busy_s": busy("trees.parse"),
        "trees.shatter.busy_s": busy("trees.shatter"),
        "trees.stats.busy_s": busy("trees.stats"),
        "trees.sample.busy_s": busy("trees.sample"),
        "classes.restrict.calls": len(named("classes.restrict")),
        "classes.restrict.busy_s": busy("classes.restrict"),
        "classes.min_mistakes.busy_s": busy("classes.min_mistakes"),
        "classes.load.busy_s": busy("classes.load"),
        "learners.predict.calls": len(named("learners.predict")),
        "learners.predict.self_s": self_sum("learners.predict"),
        "learners.update.self_s": self_sum("learners.update"),
        "games.games": len(games_),
        "games.rounds": sum(spans[i][5] for i in games_),
        "games.play.self_s": self_sum("games.play"),
        "games.adversary.busy_s": busy("games.adversary"),
        "experts.calls": len(named("experts.")),
        "experts.busy_s": busy("experts."),
        "cli.adversary_builds": sum(1 for i in extracts if spans[i][4] in play_ops),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_sum(layer + ".")
    return out
