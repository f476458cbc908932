"""Finite mistake trees and their branch statistics.

A mistake tree is a full rooted ordered binary tree whose internal nodes
carry instances; the left edge means label 0 and the right edge label 1, so
every root-to-leaf branch spells out an example sequence.  The central
quantities are the expected length ``E_T`` of a uniformly random branch and
the minimum branch length ``m_T``.

A tree is quasi-balanced when its edges admit weights in [0,1], summing to
one at every node, under which all branches weigh exactly ``E_T / 2``; this
happens precisely for monotone trees (no child subtree has larger expected
branch length than its parent), and the weight assignment is then unique.

Trees are DAGs: extraction and parsing a tree file both merge all
structurally identical subtrees.  The branch statistics are one
non-recursive fold over the distinct nodes, so each subtree's E_T is
computed once however many paths reach it, and the shatter check is one
pass over the distinct (node, class state) pairs.  Weights stay addressed
by root path and tree files still nest one level per tree level, so the
codec walks every root path, but it parses each distinct ``w0`` once and
renders each distinct weight pair once.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .classes import (
    Example,
    ExampleSequence,
    ExpertClass,
    WeightedClass,
    min_mistakes,
    restrict,
)

# The branch statistics and weights are iterative; what still recurses once
# per tree level is nested JSON through the ``json`` C codec, ``truncate``,
# ``tree_to_dict``/``tree_from_dict`` and the exact-loss walks in ``games``.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)


class NotQuasiBalancedError(ValueError):
    """The tree admits no equal-branch-weight assignment.

    ``position`` is the first node in preorder where the induced weight
    leaves [0,1].
    """

    def __init__(self, position: str):
        super().__init__(f"not quasi-balanced: weight leaves [0,1] at node {position!r}")
        self.position = position


@dataclass(frozen=True)
class MistakeTree:
    """Leaf (no fields set) or internal node with an instance and two subtrees."""

    instance: str | None = None
    zero: "MistakeTree | None" = None
    one: "MistakeTree | None" = None

    def __post_init__(self) -> None:
        parts = (self.instance, self.zero, self.one)
        if any(p is None for p in parts) and any(p is not None for p in parts):
            raise ValueError("internal nodes need an instance and both children")

    @property
    def is_leaf(self) -> bool:
        return self.instance is None


LEAF = MistakeTree()


def node(instance: str, zero: MistakeTree, one: MistakeTree) -> MistakeTree:
    return MistakeTree(instance=instance, zero=zero, one=one)


def complete_tree(depth: int, instance: str = "x") -> MistakeTree:
    """Complete tree of the given depth with every node labeled ``instance``."""
    t = LEAF
    for _ in range(depth):
        t = node(instance, t, t)
    return t


def _postorder(tree: MistakeTree) -> list[MistakeTree]:
    """Every distinct node (by identity) once, children first, without recursion."""
    seen: set[int] = set()
    order: list[MistakeTree] = []
    stack = [(tree, False)]
    while stack:
        t, children_done = stack.pop()
        if children_done:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            if not t.is_leaf:
                stack += ((t.one, False), (t.zero, False))
    return order


def _fold(tree: MistakeTree, leaf, step) -> dict:
    """Per distinct node, by ``id``: ``leaf``, or ``step(zero's value, one's value)``."""
    out: dict = {}
    for t in _postorder(tree):
        out[id(t)] = leaf if t.is_leaf else step(out[id(t.zero)], out[id(t.one)])
    return out


def _expected_lengths(tree: MistakeTree) -> dict[int, Fraction]:
    """E_T of every distinct subtree: E = 0 at a leaf, 1 + (E_0 + E_1) / 2 above."""
    return _fold(tree, Fraction(0), lambda e0, e1: 1 + (e0 + e1) / 2)


def expected_branch_length(tree: MistakeTree) -> Fraction:
    """E_T: expected length of a uniformly random root-to-leaf walk.

    Satisfies E_T = 1 + (E_{T0} + E_{T1}) / 2 at internal nodes and equals
    the explicit sum over branches of |b| * 2^-|b|.
    """
    return _expected_lengths(tree)[id(tree)]


def min_branch_length(tree: MistakeTree) -> int:
    """m_T: length of the shortest root-to-leaf branch."""
    return _fold(tree, 0, lambda a, b: 1 + min(a, b))[id(tree)]


def depth(tree: MistakeTree) -> int:
    return _fold(tree, 0, lambda a, b: 1 + max(a, b))[id(tree)]


def branches(tree: MistakeTree) -> Iterator[ExampleSequence]:
    """Yield every branch as its example sequence (left edges first)."""
    stack: list[tuple[MistakeTree, ExampleSequence]] = [(tree, [])]
    while stack:
        t, prefix = stack.pop()
        if t.is_leaf:
            yield prefix
        else:
            stack += ((t.one, prefix + [(t.instance, 1)]), (t.zero, prefix + [(t.instance, 0)]))


def is_monotone(tree: MistakeTree) -> bool:
    """True when no subtree's child has larger expected branch length.

    Equivalently |E_{T0} - E_{T1}| <= 2 at every internal node, and exactly
    the condition under which :func:`quasi_balance_weights` succeeds.
    """
    e = _expected_lengths(tree)
    return all(t.is_leaf or abs(e[id(t.zero)] - e[id(t.one)]) <= 2 for t in _postorder(tree))


@dataclass(frozen=True)
class WeightFunction:
    """Per-edge weights addressed by root-to-node label strings.

    ``weights[pos]`` holds (w0, w1) for the internal node reached from the
    root by following the bits of ``pos``; w0 + w1 = 1 always.
    """

    weights: Mapping[str, tuple[Fraction, Fraction]]

    def at(self, position: str) -> tuple[Fraction, Fraction]:
        return self.weights[position]

    def branch_weight(self, labels: Iterator[int] | list[int]) -> Fraction:
        total = Fraction(0)
        pos = ""
        for y in labels:
            w0, w1 = self.weights[pos]
            total += w0 if y == 0 else w1
            pos += str(y)
        return total


def tree_weight(tree: MistakeTree) -> Fraction:
    """The common branch weight E_T / 2 of a quasi-balanced tree."""
    return expected_branch_length(tree) / 2


def quasi_balance_weights(tree: MistakeTree) -> WeightFunction:
    """The unique equal-branch-weight assignment, if one exists.

    At a node with subtree weights lam0, lam1 the induced edge weights are
    (1 + lam1 - lam0) / 2 and its complement; the tree is quasi-balanced iff
    these stay within [0,1] everywhere, i.e. iff the tree is monotone.
    Raises :class:`NotQuasiBalancedError` at the first preorder violation.
    Each distinct node's pair is computed once and shared by every path
    that reaches it.
    """
    e = _expected_lengths(tree)
    pairs: dict[int, tuple[Fraction, Fraction]] = {}
    weights: dict[str, tuple[Fraction, Fraction]] = {}
    stack: list[tuple[MistakeTree, str]] = [(tree, "")]
    while stack:
        t, pos = stack.pop()
        if t.is_leaf:
            continue
        pair = pairs.get(id(t))
        if pair is None:
            w0 = (2 + e[id(t.one)] - e[id(t.zero)]) / 4  # (1 + lam1 - lam0) / 2
            if w0 < 0 or w0 > 1:
                raise NotQuasiBalancedError(pos)
            pair = pairs[id(t)] = (w0, 1 - w0)
        weights[pos] = pair
        stack += ((t.one, pos + "1"), (t.zero, pos + "0"))
    return WeightFunction(weights)


def truncate(tree: MistakeTree, max_depth: int) -> MistakeTree:
    """Replace every node at the given depth by a leaf."""
    cache: dict[tuple[int, int], MistakeTree] = {}

    def rec(t: MistakeTree, d: int) -> MistakeTree:
        if t.is_leaf:
            return t
        if d == 0:
            return LEAF
        key = (id(t), d)
        hit = cache.get(key)
        if hit is None:
            hit = node(t.instance, rec(t.zero, d - 1), rec(t.one, d - 1))
            cache[key] = hit
        return hit

    if max_depth < 0:
        raise ValueError("depth must be non-negative")
    return rec(tree, max_depth)


def sample_branch(tree: MistakeTree, seed: int) -> ExampleSequence:
    """Walk from the root taking a fair-coin edge at each node; deterministic per seed."""
    return sample_branch_rng(tree, random.Random(seed))


def sample_branch_rng(tree: MistakeTree, rng: random.Random) -> ExampleSequence:
    out: ExampleSequence = []
    t = tree
    while not t.is_leaf:
        y = rng.getrandbits(1)
        out.append((t.instance, y))
        t = t.one if y else t.zero
    return out


@dataclass(frozen=True)
class ShatterReport:
    ok: bool
    failing_branches: tuple[tuple[Example, ...], ...]

    def __bool__(self) -> bool:
        return self.ok


def _preorder(tree: MistakeTree) -> list[MistakeTree]:
    """Every distinct node (by identity) once, in left-first preorder."""
    seen: set[int] = set()
    order: list[MistakeTree] = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            order.append(t)
            if not t.is_leaf:
                stack += (t.one, t.zero)
    return order


def shatter_check(tree: MistakeTree, w: WeightedClass | ExpertClass) -> ShatterReport:
    """Whether every branch's example sequence is realizable by the class.

    A branch is realizable exactly when the class restricted along it is
    non-empty, so this is one pass over the distinct (node, class state)
    pairs the tree reaches, not over its root paths.  Failing branches are
    listed left first, read off the failing pairs only.  An instance outside
    the class's domain raises :class:`UnknownInstanceError` wherever it sits.
    """
    for x in dict.fromkeys(t.instance for t in _preorder(tree) if not t.is_leaf):
        min_mistakes([(x, 0)], w)  # raises exactly where a branch through x would

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
    return ShatterReport(ok=not failing, failing_branches=tuple(failing))


# ---------------------------------------------------------------------------
# Serialization: {"leaf":true} | {"instance":..., "zero":..., "one":...},
# with optional exact-rational weight annotations as "w0" strings.
# ---------------------------------------------------------------------------


def tree_to_dict(tree: MistakeTree, weights: WeightFunction | None = None) -> dict:
    return _node_to_dict(tree, "", weights, {})


# The two recursive helpers are module functions, not closures: a closure that
# calls itself is a reference cycle, which keeps a tree's weights and intern
# table alive until the next full garbage collection.
def _node_to_dict(
    t: MistakeTree, pos: str, weights: WeightFunction | None, rendered: dict[int, tuple]
) -> dict:
    if t.is_leaf:
        return {"leaf": True}
    out = {
        "instance": t.instance,
        "zero": _node_to_dict(t.zero, pos + "0", weights, rendered),
        "one": _node_to_dict(t.one, pos + "1", weights, rendered),
    }
    if weights is not None:
        # Paths through one node share its pair; holding the pair keeps its id unique.
        pair = weights.at(pos)
        hit = rendered.get(id(pair))
        if hit is None:
            hit = rendered[id(pair)] = (pair, str(pair[0]))
        out["w0"] = hit[1]
    return out


def tree_from_dict(doc: dict) -> tuple[MistakeTree, WeightFunction | None]:
    """Parse the nested format; structurally identical subtrees become one
    shared node, while weights stay per path (equal ``"w0"`` values share
    one pair object)."""
    weights: dict[str, tuple[Fraction, Fraction]] = {}
    tree = _node_from_dict(doc, "", weights, {}, {})
    return tree, (WeightFunction(weights) if weights else None)


def _node_from_dict(d: dict, pos: str, weights: dict, interned: dict, pairs: dict) -> MistakeTree:
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
        raw = d["w0"]
        try:
            weights[pos] = pairs[raw]
        except (KeyError, TypeError):  # not parsed yet, or unhashable
            try:
                w0 = Fraction(raw)
            except (TypeError, ValueError, ArithmeticError):
                raise ValueError(f"tree node at {pos!r}: w0 is not a rational number") from None
            weights[pos] = pairs[raw] = (w0, 1 - w0)
    zero = _node_from_dict(d["zero"], pos + "0", weights, interned, pairs)
    one = _node_from_dict(d["one"], pos + "1", weights, interned, pairs)
    key = (instance, id(zero), id(one))
    t = interned.get(key)
    if t is None:
        t = interned[key] = node(instance, zero, one)
    return t


def tree_to_json(tree: MistakeTree, weights: WeightFunction | None = None) -> str:
    return json.dumps(tree_to_dict(tree, weights))


def tree_from_json(text: str) -> tuple[MistakeTree, WeightFunction | None]:
    return tree_from_dict(json.loads(text))
