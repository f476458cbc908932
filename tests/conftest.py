"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the production engine's shortcuts
(behavior deduplication, canonical state compression, self-loop
resolution): they maximize directly over tree shapes rooted at raw domain
points, which is the defining supremum for bounded-depth dimensions.
"""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, partial
from itertools import compress, islice, product
from operator import add, sub

import pytest

from littlestone.classes import (
    Domain,
    Example,
    ExpertClass,
    Member,
    RealizabilityResult,
    WeightedClass,
    _check_advice,
    min_mistakes,
    restrict,
)
from littlestone.dimension import (
    _COUNT_SPACES,
    ComputeBudgetError,
    Solver,
    _empty,
    _empty_or_horizon,
    _rl_rule,
)
from littlestone.experts import ApproxValue, f_of
from littlestone.games import _run
from littlestone.learners import Learner
from littlestone.trees import (
    LEAF,
    MistakeTree,
    NotQuasiBalancedError,
    PathWeights,
    ShatterReport,
    WeightFunction,
    _children,
    _fold,
    _weight_node,
    branches,
    expected_branch_length,
    node,
)


# A class document per rejection in ``load_class``, with a pattern naming
# the field its message must point at.  ``h`` is a well-formed hypothesis.
_H = {"name": "h", "labels": [0, 1]}
MALFORMED_CLASS_DOCUMENTS = [
    pytest.param(["x", "y"], r"^top level: expected an object", id="top-level-array"),
    pytest.param({"hypotheses": [_H]}, r"^domain: missing", id="domain-missing"),
    pytest.param({"domain": ["x", "y"]}, r"^hypotheses: missing", id="hypotheses-missing"),
    pytest.param({"domain": "xy", "hypotheses": [_H]}, r"^domain: expected an array of strings",
                 id="domain-string"),
    pytest.param({"domain": ["x", 1], "hypotheses": [_H]}, r"^domain: expected an array of strings",
                 id="domain-int"),
    pytest.param({"domain": ["x", "x"], "hypotheses": [_H]}, r"^domain: .*repeated", id="domain-repeated"),
    pytest.param({"domain": ["x", "y"], "hypotheses": _H}, r"^hypotheses: expected an array",
                 id="hypotheses-object"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [_H, "g"]}, r"^hypotheses\[1\]: expected an object",
                 id="hypothesis-string"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [{"name": 3, "labels": [0, 1]}]},
                 r"^hypotheses\[0\]\.name: expected a string", id="name-int"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [{"name": "g"}]},
                 r"^hypotheses\[0\]\.labels: missing \(member 'g'\)", id="labels-missing"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [{"name": "g", "labels": [0, 2]}]},
                 r"^hypotheses\[0\]\.labels: expected an array of 0/1 \(member 'g'\)", id="labels-not-binary"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [{"name": "g", "labels": "01"}]},
                 r"^hypotheses\[0\]\.labels: expected an array of 0/1 \(member 'g'\)", id="labels-string"),
    pytest.param({"domain": ["x", "y"], "hypotheses": [_H, {"name": "h", "labels": [1, 1]}]},
                 r"^hypotheses\[1\]\.name: duplicate member name 'h'", id="name-duplicate"),
]


def oracle_bounded(w: WeightedClass, depth: int) -> tuple[Fraction, int]:
    """(max E_T, max m_T) over all trees of depth <= depth shattered by w.

    Direct recursion over root instance choices: a tree rooted at x is
    shattered iff both single-label restrictions are non-empty and shatter
    the subtrees.  Memoized on (member multiset, depth) only.
    """
    memo: dict = {}

    def rec(cls: WeightedClass, d: int) -> tuple[Fraction, int]:
        key = (cls.state_key(), d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best_e, best_m = Fraction(0), 0
        if d > 0:
            for x in cls.domain:
                w0 = restrict(cls, x, 0)
                w1 = restrict(cls, x, 1)
                if w0.is_empty or w1.is_empty:
                    continue
                e0, m0 = rec(w0, d - 1)
                e1, m1 = rec(w1, d - 1)
                best_e = max(best_e, 1 + (e0 + e1) / 2)
                best_m = max(best_m, 1 + min(m0, m1))
        memo[key] = (best_e, best_m)
        return memo[key]

    if w.is_empty:
        raise ValueError("oracle needs a non-empty class")
    return rec(w, depth)


def all_shattered_trees(w: WeightedClass, depth: int) -> list[MistakeTree]:
    """Literally materialize every shattered tree of depth <= depth.

    Exponential; only for validating the oracle itself at toy scale.
    """
    if w.is_empty:
        return []
    out = [LEAF]
    if depth > 0:
        for x in w.domain:
            w0 = restrict(w, x, 0)
            w1 = restrict(w, x, 1)
            if w0.is_empty or w1.is_empty:
                continue
            for t0 in all_shattered_trees(w0, depth - 1):
                for t1 in all_shattered_trees(w1, depth - 1):
                    out.append(node(x, t0, t1))
    return out


def reference_shatter(
    tree: MistakeTree, w: WeightedClass | ExpertClass
) -> tuple[bool, tuple[tuple[tuple[str, int], ...], ...]]:
    """(ok, failing branches) by matching every root path against the class.

    Exponential in the depth of a shared DAG; the production check works
    per (node, class state) pair instead.
    """
    failing = tuple(tuple(b) for b in branches(tree) if not min_mistakes(b, w).realizable)
    return not failing, failing


def reference_shatter_check(tree: MistakeTree, w: WeightedClass | ExpertClass) -> ShatterReport:
    """The (node, class state) pass on classes: one ``restrict`` and one new
    class per pair, keyed by ``state_key()`` (budgets for experts).  The
    production check steps packed version spaces by ``split`` instead."""
    for x in dict.fromkeys(t.instance for t, _ in reference_walk(tree)[0] if not t.is_leaf):
        restrict(w, x, 0)  # raises exactly where a branch through x would, on either kind

    def pair(t: MistakeTree, v: WeightedClass | ExpertClass) -> tuple:
        state = v.budgets if isinstance(v, ExpertClass) else v.state_key()
        return t, v, (id(t), state)

    ok: dict[tuple, bool] = {}
    children: dict[tuple, tuple[tuple, tuple]] = {}
    root = pair(tree, w)
    stack = [root]
    while stack:
        t, v, key = stack[-1]
        if key in ok:
            stack.pop()
        elif t.is_leaf or v.is_empty:
            ok[key] = t.is_leaf and not v.is_empty
            stack.pop()
        elif key in children:
            zero, one = children[key]
            ok[key] = ok[zero[2]] and ok[one[2]]
            stack.pop()
        else:
            zero = pair(t.zero, restrict(v, t.instance, 0))
            one = pair(t.one, restrict(v, t.instance, 1))
            children[key] = (zero, one)
            stack += (one, zero)

    failing: list[tuple[Example, ...]] = []
    walk: list[tuple[tuple, tuple[Example, ...]]] = [(root, ())]
    while walk:
        (t, v, key), prefix = walk.pop()
        if ok[key]:
            continue
        if key not in children:  # a leaf, or every branch below fails
            failing += (prefix + tuple(b) for b in branches(t))
            continue
        zero, one = children[key]
        walk += ((one, prefix + ((t.instance, 1),)), (zero, prefix + ((t.instance, 0),)))
    return ShatterReport(len(failing), lambda: tuple(failing))


def reference_worst_case_loss(
    learner: Learner,
    w: WeightedClass | ExpertClass,
    horizon: int,
    state_budget: int | None = 200_000,
) -> Fraction:
    """The minimax audit on classes: every domain point and label by
    ``restrict``, memoized on (learner key, ``state_key()``, rounds left).
    The production audit steps packed version spaces by ``split`` instead."""
    if isinstance(w, ExpertClass):
        w = w.explicit()
    if w.is_empty:
        raise ValueError("the empty class admits no realizable play")
    memo: dict = {}
    visited = 0

    def rec(ln: Learner, cls: WeightedClass, t: int):
        nonlocal visited
        if t == 0:
            return Fraction(0)
        ln_key = ln.state_key()
        key = None
        if ln_key is not None:
            key = (ln_key, cls.state_key(), t)
            hit = memo.get(key)
            if hit is not None:
                return hit
        visited += 1
        if state_budget is not None and visited > state_budget:
            raise ComputeBudgetError(f"worst-case audit exceeded {state_budget} states")
        best = Fraction(0)
        for x in cls.domain:
            p = None
            for y in (0, 1):
                nxt = restrict(cls, x, y)
                if nxt.is_empty:
                    continue
                if p is None:
                    p = ln.predict(x)
                child = ln.clone()
                child.update(x, y)
                v = abs(y - p) + (yield rec(child, nxt, t - 1))
                if v > best:
                    best = v
        if key is not None:
            memo[key] = best
        return best

    return _run(rec(learner.clone(), w, horizon))


def reference_min_mistakes(s, w: WeightedClass | ExpertClass) -> RealizabilityResult:
    """:func:`min_mistakes` member by member: each live member's label at
    each example read apart, the first member with the fewest disagreements
    named.  An expert class checks advice only against a live expert; an
    explicit class looks every instance up, members or none."""
    if isinstance(w, ExpertClass):
        members = [
            (f"e{i + 1}", lambda x, i=i: int(_check_advice(x, w.n)[i]), b)
            for i, b in enumerate(w.budgets)
            if b is not None
        ]
    else:
        for x, _ in s:
            w.domain.index(x)
        members = [(m.name, lambda x, m=m: m.labels[w.domain.index(x)], m.budget) for m in w.members]
    errors = [(sum(label(x) != y for x, y in s), name, budget) for name, label, budget in members]
    if not errors:
        return RealizabilityResult(None, False)
    fewest = min(errs for errs, _, _ in errors)
    first = next(name for errs, name, _ in errors if errs == fewest)
    return RealizabilityResult(fewest, any(errs <= budget for errs, _, budget in errors), first)


def trim_counts(counts: list[int]) -> tuple[int, ...]:
    """A per-level count list without its empty top levels, as a tuple."""
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def reference_count_splits(counts: tuple[int, ...]):
    """(s, child under 0, child under 1) for every non-constant split of a
    count tuple, one per label-swap pair, by per-level tuple arithmetic;
    ``s`` experts predict 1 and are charged under label 0.

    In product order the label swap of split j sits at index size - 1 - j,
    so the first half, past the all-zero self-loop, holds one of each pair.
    The production count space packs each tuple into one int instead.
    """
    size = 1
    for c in counts:
        size *= c + 1
    for ones in islice(product(*(range(c + 1) for c in counts)), 1, (size + 1) // 2):
        zeros = tuple(map(sub, counts, ones))
        child0 = list(map(add, zeros, ones[1:]))
        child0.append(zeros[-1])
        child1 = list(map(add, ones, zeros[1:]))
        child1.append(ones[-1])
        yield sum(ones), trim_counts(child0), trim_counts(child1)


def reference_u_expand(space, state: int):
    """(m, P, decremented state, splits) of a packed count state of the
    count space ``space``, as the generator DP expanded it; the all-zero
    split is always a self-loop, and ``s`` experts predict 1 and are charged
    under 0.

    Splits are ones vectors O in product order over the occupied levels,
    the lowest level slowest; the label swap of split j then sits at index
    size - 1 - j, so the first half, past the all-zero one, holds one of
    each pair.  With w the space's field width and D = O - (O >> w), the
    children of the counts C are C - D and (C >> w) + D.  The production
    count space sweeps the lattice a state reaches instead.
    """
    levels, width = space.levels(state), space.width
    low = state >> width
    # Per split in product order: s, and D built from each level's share.
    ss = [0]
    ds = [0]
    m = power = 0
    for level, c in compress(enumerate(levels), levels):
        m += c
        power += (level + 1) * c
        share = (1 << level * width) - (1 << (level - 1) * width) if level else 1
        counts = range(c + 1)
        ss = [s + o for s in ss for o in counts]
        ds = [d + o * share for d in ds for o in counts]
    half = (len(ss) + 1) // 2
    splits = [(s, state - d, low + d) for s, d in zip(islice(ss, 1, half), islice(ds, 1, half))]
    return m, power, low, splits


def reference_u_moves(space, state: int):
    """The self-loop, then the splits of :func:`reference_u_expand`, as
    (None, s, child under 0, child under 1)."""
    _, _, low, splits = reference_u_expand(space, state)
    yield None, 0, state, low
    for s, child0, child1 in splits:
        yield None, s, child0, child1


def reference_l_rule(expand, state):
    """L: 1 + min over the two children, maximized over every move, with no
    bound and no cutoff: the DP visits every state the root reaches."""
    _, _, dec, splits = expand(state)
    best = 0 if dec is None else 1 + (yield dec)
    for _, child0, child1 in splits:
        v = 1 + min((yield child0), (yield child1))
        if v > best:
            best = v
    return best


def reference_brl_rule(expand, key):
    """RL_T * 2^t of a (state, t) key: 2^(t-1) plus both children at t - 1.
    A self-loop needs no fixed point, since the horizon strictly decreases.
    The DP reaches (s, t) only along T - t moves from the root; the
    production level sweep writes every state within T - t rounds."""
    state, t = key
    _, _, dec, splits = expand(state)
    t -= 1
    half = 1 << t
    best = 0 if dec is None else half + (yield state, t) + (yield dec, t)
    for _, child0, child1 in splits:
        v = half + (yield child0, t) + (yield child1, t)
        if v > best:
            best = v
    return best


def reference_dp_tables(expand) -> dict:
    """One (memo, solve) table per value, each ``Solver._dp`` on a rule over
    ``expand``: :func:`reference_l_rule`, the package's RL rule and
    :func:`reference_brl_rule`, one state per visit."""
    tables = {}
    for value, rule, leaf in (
        ("l", reference_l_rule, _empty),
        ("rl", _rl_rule, _empty),
        ("brl", reference_brl_rule, _empty_or_horizon),
    ):
        tables[value] = ({}, partial(Solver._dp, body=partial(rule, expand), leaf=leaf))
    return tables


def reference_count_solver(state_budget: int | None = None) -> Solver:
    """A Solver whose L, RL and RL_T queries on count states run the
    generator DP: in each count space, :func:`reference_dp_tables` over
    :func:`reference_u_expand` of that space, into the same memos."""
    solver = Solver(state_budget)
    for space in _COUNT_SPACES:
        solver._tables[space] = reference_dp_tables(partial(reference_u_expand, space))
    return solver


def reference_frame_l(frame, state: int) -> dict[int, int]:
    """The L memo of the unpruned generator DP from ``state`` in ``frame``:
    :func:`reference_l_rule` at every state ``state`` reaches."""
    memo: dict[int, int] = {}
    body = partial(reference_l_rule, frame.expand)
    Solver()._dp(state, memo, body, _empty, charge=False)
    return memo


def reference_frame_brl(frame, state: int, horizon: int) -> tuple[int, dict]:
    """RL_T * 2^T of ``state`` in ``frame`` by the generator DP on
    :func:`reference_brl_rule`, and its memo of (state, t) keys."""
    memo: dict = {}
    body = partial(reference_brl_rule, frame.expand)
    return Solver()._dp((state, horizon), memo, body, _empty_or_horizon, charge=False), memo


def reference_count_law(w: ExpertClass, horizon: int) -> tuple[int, ...]:
    """The branch-length law on count states by recursion over
    :func:`reference_u_moves` and the generator DP's RL_T: each (state, t)
    takes the first move attaining its value, a leaf 2^t at length 0."""
    solver = reference_count_solver()
    root = solver.version_space(w)

    def value(state: int, t: int) -> int:
        return int(solver.bounded_randomized_littlestone(root._child(state, None), t) * 2**t)

    @cache
    def law(state: int, t: int) -> tuple[int, ...]:
        target = value(state, t)
        if target == 0:
            return (1 << t, *[0] * t)
        for _, _, child0, child1 in reference_u_moves(root.space, state):
            if (1 << t - 1) + value(child0, t - 1) + value(child1, t - 1) == target:
                return (0, *map(add, law(child0, t - 1), law(child1, t - 1)))
        raise AssertionError("no move attains the computed dimension")

    return law(root.state, horizon)


def reference_x_moves(frame, state: int):
    """(first witness, s, child under 0, child under 1) per behavior of a
    packed explicit state up to label swap, in witness order, deduplicated
    from the frame's root columns for this one state.  The production space
    reads the same list from the frame's move table, one entry per live mask.
    """
    live = state & frame.mask
    low = state >> frame.width
    diff = state ^ low
    seen: set[int] = set()
    for witness, column in frame.behaviors:
        ones = column & live
        if ones in seen:
            continue
        seen.update((ones, live ^ ones))
        charged = diff & (ones * frame.repeat)
        yield witness, ones.bit_count(), state ^ charged, low ^ charged


def reference_x_expand(frame, state: int):
    """(m, P, decremented state or None, non-constant splits), split off
    :func:`reference_x_moves` one behavior at a time."""
    m = (state & frame.mask).bit_count()
    dec = None
    splits = []
    for _, s, child0, child1 in reference_x_moves(frame, state):
        if 0 < s < m:
            splits.append((s, child0, child1))
        else:
            dec = child1 if s == 0 else child0
    return m, state.bit_count(), dec, splits


def reference_prediction(
    selection: str,
    solver,
    v: WeightedClass | ExpertClass,
    x: str,
    remaining: int | None = None,
) -> Fraction:
    """The version-space rules on the class itself: restrict it by both labels
    and compare the two dimensions, in Fraction arithmetic throughout.

    ``selection`` is soa, randsoa or bounded-randsoa (with ``remaining``
    rounds left).  The learners step packed states instead of classes.
    """
    v0, v1 = restrict(v, x, 0), restrict(v, x, 1)
    if selection == "soa":
        return Fraction(1) if solver.littlestone(v1) > solver.littlestone(v0) else Fraction(0)
    if selection == "randsoa":
        rl0, rl1 = solver.randomized_littlestone(v0), solver.randomized_littlestone(v1)
    else:
        rl0 = solver.bounded_randomized_littlestone(v0, remaining - 1)
        rl1 = solver.bounded_randomized_littlestone(v1, remaining - 1)
    if rl0 + 1 < rl1:
        return Fraction(1)
    if rl1 + 1 < rl0:
        return Fraction(0)
    return (1 + rl1 - rl0) / 2


class ReferenceAggregator:
    """The adaptive aggregator's rule over restrict-stepped RandSOA classes,
    converting every Fraction to float where it is used."""

    ETA_GRID = tuple(Fraction(1, 2**j) for j in range(1, 13))

    def __init__(self, base: WeightedClass | ExpertClass, solver):
        self.base = base
        self.solver = solver
        self.history: list[tuple[str, int, float]] = []
        self.ceiling = 1
        # k -> [version space or None once empty, regret, variance]
        self.pool: dict[int, list] = {}
        for k in range(self.ceiling + 1):
            self._spawn(k)

    def _spawn(self, k: int) -> None:
        if isinstance(self.base, ExpertClass):
            # Eliminated experts stay eliminated, as the explicit class drops them.
            v = ExpertClass(tuple(None if b is None else k for b in self.base.budgets))
        else:
            # Members sharing a label row would coincide at budget k; the first stays.
            rows = list(dict.fromkeys(m.labels for m in self.base.members))
            first = {m.labels: m.name for m in reversed(self.base.members)}
            v = WeightedClass(
                self.base.domain, tuple(Member(first[labels], labels, k) for labels in rows)
            )
        regret = variance = 0.0
        for x, y, agg_loss in self.history:
            if v.is_empty:
                break
            r = agg_loss - abs(float(reference_prediction("randsoa", self.solver, v, x)) - y)
            regret += r
            variance += r * r
            v = restrict(v, x, y)
        self.pool[k] = [None if v.is_empty else v, regret, variance]

    def _ensure_alive(self) -> None:
        while self.pool.get(self.ceiling, [None])[0] is None:
            for k in range(self.ceiling + 1, 2 * self.ceiling + 1):
                self._spawn(k)
            self.ceiling *= 2

    def predict(self, x: str) -> tuple[Fraction, dict[int, Fraction]]:
        self._ensure_alive()
        preds = {
            k: reference_prediction("randsoa", self.solver, v, x)
            for k, (v, _, _) in self.pool.items()
            if v is not None
        }
        exps = {
            (k, eta): float(eta) * self.pool[k][1] - float(eta) ** 2 * self.pool[k][2]
            for k in preds
            for eta in self.ETA_GRID
        }
        top = max(exps.values())
        num = den = 0.0
        for (k, eta), e in exps.items():
            w = float(Fraction(1, (k + 1) * (k + 2))) / len(self.ETA_GRID) * math.exp(e - top)
            num += w * float(preds[k])
            den += w
        return min(max(Fraction(num / den), Fraction(0)), Fraction(1)), preds

    def update(self, x: str, y: int) -> None:
        p, preds = self.predict(x)
        loss = abs(float(p) - y)
        for k, p_k in preds.items():
            r = loss - abs(float(p_k) - y)
            self.pool[k][1] += r
            self.pool[k][2] += r * r
        for entry in self.pool.values():
            if entry[0] is not None:
                entry[0] = restrict(entry[0], x, y)
                if entry[0].is_empty:
                    entry[0] = None
        self.history.append((x, y, loss))
        self._ensure_alive()


def reference_walk(root, children=_children, key=id) -> tuple[list[tuple[object, tuple]], list]:
    """Every distinct item (node, by default) once, without recursion: in
    left-first preorder, with the root path of that first visit as a link list
    ``(parent's link, bit)`` (no root path to the item comes earlier in
    preorder), and children first.  ``children`` gives an item's (zero, one)
    or () at a leaf; items with equal ``key`` are one item.  The package
    yields the preorder lazily and folds children first instead."""
    seen: set = set()
    preorder: list[tuple[object, tuple]] = []
    postorder: list = []
    stack: list[tuple[object, tuple, bool]] = [(root, (), False)]
    while stack:
        t, link, children_done = stack.pop()
        if children_done:
            postorder.append(t)
        elif key(t) not in seen:
            seen.add(key(t))
            preorder.append((t, link))
            stack.append((t, link, True))
            kids = children(t)
            if kids:
                stack += ((kids[1], (link, "1"), False), (kids[0], (link, "0"), False))
    return preorder, postorder


def reference_unlink(link: tuple) -> str:
    """The root path of a link list ``(parent's link, bit)``."""
    bits = []
    while link:
        link, bit = link
        bits.append(bit)
    return "".join(reversed(bits))


def _pair_children(pair):
    """The (node, weight node) pairs under a pair, as the tree writers walk them."""
    t, n = pair
    if t.is_leaf:
        return ()
    zn, on = (None, None) if n is None else n[1:3]
    return (t.zero, zn), (t.one, on)


def _pair_key(pair):
    return id(pair[0]), id(pair[1])


def reference_flat_json(tree: MistakeTree, weights: WeightFunction | None = None) -> str:
    """The flat tree file with its rows in the postorder of
    :func:`reference_walk` over (node, weight node) pairs; a missing weight
    raises ``KeyError`` naming the first such node in postorder by the
    first root path to it in preorder."""
    root = None if weights is None else weights.root
    index: dict[tuple[int, int], int] = {}  # leaves have no row and read as None
    rows = []
    for pair in reference_walk((tree, root), _pair_children, _pair_key)[1]:
        t, n = pair
        if t.is_leaf:
            continue
        zero, one = _pair_children(pair)
        row = [t.instance, index.get(_pair_key(zero)), index.get(_pair_key(one))]
        if weights is not None:
            if n is None or n[0] is None:
                links = reference_walk((tree, root), _pair_children, _pair_key)[0]
                raise KeyError(reference_unlink(next(link for p, link in links if _pair_key(p) == _pair_key(pair))))
            row.append(str(n[0]))
        index[_pair_key(pair)] = len(rows)
        rows.append(row)
    return json.dumps({"root": index.get(_pair_key((tree, root))), "nodes": rows})


def reference_tree_to_json(tree: MistakeTree, weights: WeightFunction | None = None) -> str:
    """The nested tree file as ``json.dumps`` of nested dicts, built by
    recursion over every root path and looking each weight up by its path
    after both children (so a missing one raises at the first in postorder)."""
    return json.dumps(_reference_node_to_dict(tree, "", weights))


def _reference_node_to_dict(t: MistakeTree, pos: str, weights: WeightFunction | None) -> dict:
    if t.is_leaf:
        return {"leaf": True}
    out = {
        "instance": t.instance,
        "zero": _reference_node_to_dict(t.zero, pos + "0", weights),
        "one": _reference_node_to_dict(t.one, pos + "1", weights),
    }
    if weights is not None:
        out["w0"] = str(weights.at(pos)[0])
    return out


def reference_nested_json(tree: MistakeTree, weights: WeightFunction | None = None) -> str:
    """The nested tree file in DAG time: each distinct (node, weight node)
    rendered once and its text dropped once its last distinct parent has
    read it; a missing weight raises ``KeyError`` at the first such node in
    postorder.  Byte-equal to :func:`reference_tree_to_json`; the package
    writes the flat form and still reads this one."""
    root = None if weights is None else weights.root

    def step(pair, zero: str, one: str) -> str:
        t, n = pair
        w0 = ""
        if weights is not None:
            if n is None or n[0] is None:  # name the node by its first root path
                links = reference_walk((tree, root), _pair_children, _pair_key)[0]
                raise KeyError(reference_unlink(next(link for p, link in links if _pair_key(p) == _pair_key(pair))))
            w0 = f', "w0": {json.dumps(str(n[0]))}'
        return f'{{"instance": {json.dumps(t.instance)}, "zero": {zero}, "one": {one}{w0}}}'

    return _fold((tree, root), '{"leaf": true}', step, _pair_children, _pair_key)


def reference_tree_from_json(text: str) -> tuple[MistakeTree, WeightFunction | None]:
    """Parse the nested format by recursion over every root path: equal
    subtrees are interned, weights stay keyed by path, and each node is
    checked before its 0-subtree, which is checked before its 1-subtree."""
    weights: dict[str, tuple[Fraction, Fraction]] = {}
    tree = _reference_node_from_dict(json.loads(text), "", weights, {})
    return tree, (WeightFunction(weights) if weights else None)


def _reference_node_from_dict(d, pos: str, weights: dict, interned: dict) -> MistakeTree:
    if not isinstance(d, dict):
        raise ValueError(f"tree node at {pos!r}: expected an object")
    if d.get("leaf"):
        return LEAF
    if "instance" not in d or "zero" not in d or "one" not in d:
        raise ValueError(f"tree node at {pos!r}: need instance/zero/one or leaf")
    instance = d["instance"]
    if not isinstance(instance, str):
        raise ValueError(f"tree node at {pos!r}: instance must be a string")
    if "w0" in d:
        try:
            w0 = Fraction(d["w0"])
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(f"tree node at {pos!r}: w0 is not a rational number") from None
        weights[pos] = (w0, 1 - w0)
    zero = _reference_node_from_dict(d["zero"], pos + "0", weights, interned)
    one = _reference_node_from_dict(d["one"], pos + "1", weights, interned)
    return interned.setdefault((instance, id(zero), id(one)), node(instance, zero, one))


def random_dag(
    rng: random.Random, size: int = 12, points: tuple[str, ...] = ("a", "b", "c")
) -> MistakeTree:
    """A tree built bottom up from ``size`` nodes, each over two earlier ones,
    so that subtrees are shared (and sometimes structurally equal)."""
    pool = [LEAF]
    for _ in range(size):
        pool.append(node(rng.choice(points), rng.choice(pool[-4:]), rng.choice(pool)))
    return pool[-1]


def reference_sample_branch(tree: MistakeTree, rng: random.Random) -> list:
    """The fair-coin walk that ``sample_branch`` pins: from the root, one
    ``rng.getrandbits(1)`` per level, 0 taking the ``zero`` edge."""
    out = []
    t = tree
    while not t.is_leaf:
        y = rng.getrandbits(1)
        out.append((t.instance, y))
        t = t.one if y else t.zero
    return out


def random_tree(
    rng: random.Random,
    max_depth: int = 6,
    leaf_prob: float = 0.35,
    points: tuple[str, ...] = ("a", "b", "c"),
) -> MistakeTree:
    if max_depth == 0 or rng.random() < leaf_prob:
        return LEAF
    return node(
        rng.choice(points),
        random_tree(rng, max_depth - 1, leaf_prob, points),
        random_tree(rng, max_depth - 1, leaf_prob, points),
    )


def monotonize(tree: MistakeTree) -> MistakeTree:
    """Repair a tree bottom-up into a monotone one by promoting any child
    whose expected branch length exceeds its parent's."""
    if tree.is_leaf:
        return tree
    zero = monotonize(tree.zero)
    one = monotonize(tree.one)
    e0 = expected_branch_length(zero)
    e1 = expected_branch_length(one)
    if abs(e0 - e1) > 2:
        return zero if e0 >= e1 else one
    return node(tree.instance, zero, one)


def random_shattered_tree(
    w: WeightedClass, rng: random.Random, max_depth: int, grow_prob: float = 0.8
) -> MistakeTree:
    """A random tree shattered by w, grown point by point."""
    if max_depth == 0 or rng.random() > grow_prob:
        return LEAF
    options = []
    for x in w.domain:
        w0 = restrict(w, x, 0)
        w1 = restrict(w, x, 1)
        if not w0.is_empty and not w1.is_empty:
            options.append((x, w0, w1))
    if not options:
        return LEAF
    x, w0, w1 = rng.choice(options)
    return node(
        x,
        random_shattered_tree(w0, rng, max_depth - 1, grow_prob),
        random_shattered_tree(w1, rng, max_depth - 1, grow_prob),
    )


def random_weighted_class(
    rng: random.Random,
    max_points: int = 3,
    max_members: int = 3,
    max_budget: int = 1,
) -> WeightedClass:
    npts = rng.randint(1, max_points)
    domain = Domain(tuple(f"p{i}" for i in range(npts)))
    members = []
    seen = set()
    for i in range(rng.randint(1, max_members)):
        labels = tuple(rng.randint(0, 1) for _ in range(npts))
        budget = rng.randint(0, max_budget)
        if (labels, budget) in seen:
            continue
        seen.add((labels, budget))
        members.append(Member(f"h{i}", labels, budget))
    return WeightedClass(domain, tuple(members))


@contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def reference_horizon_for_slack(solver, w, slack) -> int:
    """Smallest T with RL(W, T) >= RL(W) - slack: double T until the target
    is met, then bisect, one RL_T query per probe.  Valid because RL(W, T)
    is non-decreasing in T; the production search sweeps t upward instead."""
    slack = Fraction(slack)
    target = solver.randomized_littlestone(w) - slack
    if solver.bounded_randomized_littlestone(w, 0) >= target:
        return 0
    hi = 1
    while solver.bounded_randomized_littlestone(w, hi) < target:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if solver.bounded_randomized_littlestone(w, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# The E_T folds in Fraction arithmetic, node by node; the production folds
# carry (E * 2^h, h) integers instead.


def reference_expected_branch_length(tree: MistakeTree) -> Fraction:
    return _fold(tree, Fraction(0), lambda _, e0, e1: 1 + (e0 + e1) / 2)


def reference_is_monotone(tree: MistakeTree) -> bool:
    def step(_, a, b):  # (E, monotone) of a subtree from its children's
        (e0, ok0), (e1, ok1) = a, b
        return 1 + (e0 + e1) / 2, ok0 and ok1 and abs(e0 - e1) <= 2

    return _fold(tree, (Fraction(0), True), step)[1]


def reference_quasi_balance_weights(tree: MistakeTree) -> WeightFunction:
    """w0 = (2 + E_1 - E_0) / 4 per distinct node; raises
    :class:`NotQuasiBalancedError` at the first root path in preorder whose
    w0 leaves [0, 1]."""
    violations: set[int] = set()

    def step(t, a, b):
        (e0, n0), (e1, n1) = a, b
        w0 = (2 + e1 - e0) / 4
        if w0 < 0 or w0 > 1:
            violations.add(id(t))
        return 1 + (e0 + e1) / 2, _weight_node(w0, n0, n1)

    _, root = _fold(tree, (Fraction(0), None), step)
    if violations:
        raise NotQuasiBalancedError(reference_unlink(next(p for t, p in reference_walk(tree)[0] if id(t) in violations)))
    return WeightFunction(PathWeights(root))


def reference_branch_length_law(tree: MistakeTree) -> dict[int, Fraction]:
    """P(length = L) of the fair-coin walk from the root, per length L with
    positive mass, folded node by node in Fraction arithmetic."""

    def step(_, a, b):
        out: dict[int, Fraction] = {}
        for law in (a, b):
            for length, p in law.items():
                out[length + 1] = out.get(length + 1, 0) + p / 2
        return out

    return _fold(tree, {0: Fraction(1)}, step)


def reference_f_inverse(c: float) -> ApproxValue:
    """``f_inverse`` as a fixed 200 bisection steps, without the early exit
    once the bracket stops shrinking; it raises the same ArithmeticError."""
    lo, hi = 1e-17, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        if f_of(mid).value > c:
            lo = mid
        else:
            hi = mid
    p = (lo + hi) / 2
    residual = abs(f_of(p).value - c)
    if residual > 1e-10:
        raise ArithmeticError(
            f"f_inverse({c}) did not converge: bracket [{lo}, {hi}], residual {residual}"
        )
    return ApproxValue(p, "root-find", residual)
