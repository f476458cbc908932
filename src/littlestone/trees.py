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

Trees are DAGs: extraction and parsing both merge structurally identical
subtrees, and nothing here walks every root path.  The four branch
statistics are one fold over the distinct nodes and the weights another,
and the shatter check is one pass over the distinct (node, version space)
pairs.  E_T is dyadic: a subtree of height h has E_T * 2^h an integer, so
E_T, monotonicity and the weights share one integer step on (E_T * 2^h, h),
and each node's ``w0`` is one ``Fraction`` built from it, read by root path
through a lazy view.  Tree files are flat: one row per distinct subtree, so
writing and reading cost the distinct nodes.  The reader still takes the nested files older versions wrote (one
JSON object per tree level, each repeated subtree written out again) through
``json.loads``, so they cost their full text.  Nothing here recurses, tree
equality, hashing and repr included, and importing this module changes no
interpreter setting.  Only the ``json`` C decoder recurses once per level of
a nested file, under the interpreter's own recursion limit.
"""

from __future__ import annotations

import json
import random
import reprlib
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .classes import (
    Example,
    ExampleSequence,
    ExpertClass,
    WeightedClass,
)


class NotQuasiBalancedError(ValueError):
    """The tree admits no equal-branch-weight assignment.

    ``position`` is the first root path in preorder at which the induced
    weight leaves [0,1].
    """

    def __init__(self, position: str):
        super().__init__(f"not quasi-balanced: weight leaves [0,1] at node {position!r}")
        self.position = position


# The most distinct nodes a MistakeTree repr lists.
_REPR_NODES = 8


@dataclass(frozen=True, eq=False, repr=False)
class MistakeTree:
    """Leaf (no fields set) or internal node with an instance and two subtrees.

    Equality and hashing are structural and run once per distinct node (pair),
    without recursion, so deep paths and shared DAGs compare in DAG time; the
    repr numbers the first few distinct nodes and stops."""

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

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self, other, lambda t: t.instance, _children)

    def __hash__(self) -> int:
        return _fold(self, hash(None), lambda t, a, b: hash((t.instance, a, b)))

    def __repr__(self) -> str:
        """``MistakeTree(#0=(instance, zero, one), ...)``: the distinct internal
        nodes in order of first reference from the root, at most
        ``_REPR_NODES`` of them and instances shortened, so the text stays
        short for any depth or number of root paths."""
        if self.is_leaf:
            return "MistakeTree(leaf)"
        numbers = {id(self): 0}
        order = [self]

        def name(t: MistakeTree) -> str:
            if t.is_leaf:
                return "leaf"
            if id(t) not in numbers:
                numbers[id(t)] = len(order)
                order.append(t)
            return f"#{numbers[id(t)]}"

        parts = []
        for i, t in enumerate(order):  # grows as new nodes are named
            if i == _REPR_NODES:
                parts.append("...")
                break
            parts.append(f"#{i}=({reprlib.repr(t.instance)}, {name(t.zero)}, {name(t.one)})")
        return f"MistakeTree({', '.join(parts)})"


LEAF = MistakeTree()


node = MistakeTree  # node(instance, zero, one)


def complete_tree(depth: int, instance: str = "x") -> MistakeTree:
    """Complete tree of the given depth with every node labeled ``instance``."""
    t = LEAF
    for _ in range(depth):
        t = node(instance, t, t)
    return t


def _children(t: MistakeTree) -> tuple:
    return () if t.is_leaf else (t.zero, t.one)


def _preorder(root, children=_children, key=id):
    """Each distinct item (node, by default) once, lazily and without
    recursion, in left-first preorder, with the bits of the root path of
    that first visit (no root path to the item comes earlier in preorder).
    The bits are one list the walk keeps changing: join it before the next
    item.  ``children`` gives an item's (zero, one) or () at a leaf; items
    with equal ``key`` are one item."""
    seen: set = set()
    bits: list[str] = []
    stack = [(root, 0, "")]  # (item, its parent's path length, its bit)
    while stack:
        t, length, bit = stack.pop()
        if key(t) in seen:
            continue
        seen.add(key(t))
        del bits[length:]
        bits += bit
        yield t, bits
        kids = children(t)
        if kids:
            stack += ((kids[1], len(bits), "1"), (kids[0], len(bits), "0"))


def _fold(root, leaf, step, children=_children, key=id):
    """The root's value of ``leaf`` at leaves and ``step(item, zero's, one's)``
    above, once per distinct item (items with equal ``key`` are one).  One
    explicit-stack pass lists the items children first, in left-first
    postorder, with the number of parents that read each; ``step`` runs in
    that order, and a value is dropped once its last parent has read it, so
    a deep path holds a few values, not one per level."""
    order = []  # (item, its key, zero's key, one's key), children first; None at a leaf
    readers: dict = {}
    expanded = set()
    stack = [(root, None)]
    while stack:
        t, done = stack.pop()
        if done is not None:
            order.append(done)
            continue
        k = key(t)
        if k in expanded:
            continue
        expanded.add(k)
        kids = children(t)
        if not kids:
            order.append((t, k, None, None))
            continue
        zero, one = kids
        z, o = key(zero), key(one)
        readers[z] = readers.get(z, 0) + 1
        readers[o] = readers.get(o, 0) + 1
        stack += ((t, (t, k, z, o)), (one, None), (zero, None))
    values: dict = {}
    for t, k, z, o in order:
        if z is None:
            values[k] = leaf
            continue
        values[k] = step(t, values[z], values[o])
        for c in (z, o):
            readers[c] -= 1
            if not readers[c]:
                del values[c]
    return values[k]  # the root's, last in the order


def _same(a, b, label, children) -> bool:
    """Whether two DAGs unfold to the same tree: equal ``label`` and as many
    ``children`` at every pair of nodes, each distinct pair compared once."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is not b and (id(a), id(b)) not in seen:
            seen.add((id(a), id(b)))
            ca, cb = children(a), children(b)
            if label(a) != label(b) or len(ca) != len(cb):
                return False
            stack += zip(ca, cb)
    return True


def _e_step(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], int, int]:
    """The E_T step on dyadic numerators.  From the children's (E * 2^h, h),
    h the subtree height, it gives the node's, then (E_1 - E_0) * 2^h and h
    for the children's common height h."""
    (e0, h0), (e1, h1) = a, b
    h = h0 if h0 > h1 else h1
    e0 <<= h - h0
    e1 <<= h - h1
    return ((2 << h) + e0 + e1, h + 1), e1 - e0, h  # E = 1 + (E_0 + E_1) / 2


_LEAF_E = (0, 0)


def _stats_step(_, a, b):
    """((E * 2^h, h), m_T, monotone) of a node from its children's."""
    e, diff, h = _e_step(a[0], b[0])
    return e, 1 + (a[1] if a[1] < b[1] else b[1]), a[2] and b[2] and abs(diff) <= 2 << h


def tree_statistics(tree: MistakeTree) -> tuple[Fraction, int, int, bool]:
    """(E_T, depth, m_T, monotone) of a tree, in one fold over its distinct
    nodes; the four functions below each read one of them.  The height h of
    the dyadic step is the depth."""
    (e, h), shortest, monotone = _fold(tree, (_LEAF_E, 0, True), _stats_step)
    return Fraction(e, 1 << h), h, shortest, monotone


def expected_branch_length(tree: MistakeTree) -> Fraction:
    """E_T: expected length of a uniformly random root-to-leaf walk.

    Satisfies E_T = 1 + (E_{T0} + E_{T1}) / 2 at internal nodes and equals
    the explicit sum over branches of |b| * 2^-|b|.
    """
    return tree_statistics(tree)[0]


def min_branch_length(tree: MistakeTree) -> int:
    """m_T: length of the shortest root-to-leaf branch."""
    return tree_statistics(tree)[2]


def depth(tree: MistakeTree) -> int:
    return tree_statistics(tree)[1]


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
    return tree_statistics(tree)[3]


# A weight node is ``(w0, zero's node, one's node, weighted paths from it)``;
# ``w0`` is None where a tree file gives none, and a node is None where no
# path below it is weighted.  Computed weights mirror the tree node for node.
_CHILD = {"0": 1, "1": 2}


def _weight_node(w0, zero: tuple | None, one: tuple | None) -> tuple | None:
    paths = (w0 is not None) + (zero[3] if zero else 0) + (one[3] if one else 0)
    return (w0, zero, one, paths) if paths else None


class PathWeights(Mapping):
    """Root path -> (w0, w1) over a DAG of weight nodes, never expanded: lookup
    walks from the root, iteration is preorder, views compare node by node.
    A pair is built at first lookup and shared by all paths to its ``w0``."""

    __slots__ = ("root", "_pairs")

    def __init__(self, root: tuple | None):
        self.root, self._pairs = root, {}

    def __getitem__(self, position: str) -> tuple[Fraction, Fraction]:
        n = self.root
        try:
            for c in position:
                n = n[_CHILD[c]]
            w0 = n[0]
        except (KeyError, TypeError):  # not a 0/1 string, or below every weight
            w0 = None
        if w0 is None:
            raise KeyError(position)
        return self._pairs.setdefault(id(w0), (w0, 1 - w0))

    def __iter__(self) -> Iterator[str]:
        stack = [(self.root, "")]
        while stack:
            n, pos = stack.pop()
            if n is not None:
                if n[0] is not None:
                    yield pos
                stack += ((n[2], pos + "1"), (n[1], pos + "0"))

    def __len__(self) -> int:
        return 0 if self.root is None else self.root[3]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathWeights):
            return Mapping.__eq__(self, other)
        return _same(self.root, other.root, lambda n: n and n[0], lambda n: n[1:3] if n else ())


@dataclass(frozen=True)
class WeightFunction:
    """Per-edge weights addressed by root-to-node label strings.

    ``weights[pos]`` holds (w0, w1) for the internal node reached from the
    root by following the bits of ``pos``; w0 + w1 = 1 always.  Computed and
    parsed weights are a :class:`PathWeights` view, and a plain mapping is
    accepted too; ``root`` is their weight-node DAG, for walks that step
    node to node.
    """

    weights: Mapping[str, tuple[Fraction, Fraction]]
    root: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if not isinstance(w, PathWeights):  # build the nodes bottom up, one per path prefix
            nodes: dict[str, tuple | None] = {}
            paths = [p for p in w if isinstance(p, str) and not p.strip("01")]
            for p in sorted({p[:i] for p in paths for i in range(len(p) + 1)}, key=len, reverse=True):
                nodes[p] = _weight_node(w[p][0] if p in w else None, nodes.get(p + "0"), nodes.get(p + "1"))
            w = PathWeights(nodes.get(""))
        object.__setattr__(self, "root", w.root)

    def at(self, position: str) -> tuple[Fraction, Fraction]:
        return self.weights[position]

    def branch_weight(self, labels: Iterator[int] | list[int]) -> Fraction:
        total, n, labels = Fraction(0), self.root, list(labels)
        for i, y in enumerate(labels):
            if n is None or n[0] is None:
                raise KeyError("".join(map(str, labels[:i])))
            total += n[0] if y == 0 else 1 - n[0]
            n = n[1] if y == 0 else n[2]
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
    Each distinct node's ``w0`` is computed once and read by every path
    that reaches the node.
    """
    violations: set[int] = set()

    def step(t, a, b):
        e, diff, h = _e_step(a[0], b[0])
        w0 = (2 << h) + diff  # (1 + lam1 - lam0) / 2 = (2 + E_1 - E_0) / 4, times 4 * 2^h
        if w0 < 0 or w0 > 4 << h:
            violations.add(id(t))
        return e, _weight_node(Fraction(w0, 4 << h), a[1], b[1])

    _, root = _fold(tree, (_LEAF_E, None), step)
    if violations:
        raise NotQuasiBalancedError(next("".join(bits) for t, bits in _preorder(tree) if id(t) in violations))
    return WeightFunction(PathWeights(root))


def truncate(tree: MistakeTree, max_depth: int) -> MistakeTree:
    """Replace every node at the given depth by a leaf."""
    if max_depth < 0:
        raise ValueError("depth must be non-negative")
    levels = [{id(tree): tree}]  # the distinct nodes at each depth, top down
    while len(levels) <= max_depth and levels[-1]:
        levels.append({id(c): c for t in levels[-1].values() if not t.is_leaf for c in (t.zero, t.one)})
    cut = {k: t if t.is_leaf else LEAF for k, t in levels.pop().items()}
    for level in reversed(levels):  # each level's cut subtrees from the level below
        cut = {k: t if t.is_leaf else node(t.instance, cut[id(t.zero)], cut[id(t.one)])
               for k, t in level.items()}
    return cut[id(tree)]


def sample_branch(tree: MistakeTree, seed_or_rng: int | random.Random) -> ExampleSequence:
    """Walk from the root taking a fair-coin edge at each node.

    ``seed_or_rng`` is an ``int`` seed, read through a fresh
    ``random.Random(seed)`` so the branch is deterministic per seed, or a
    ``random.Random`` that the walk consumes, one ``getrandbits(1)`` per
    level, so successive calls on one generator draw independent branches.
    """
    rng = random.Random(seed_or_rng) if isinstance(seed_or_rng, int) else seed_or_rng
    bit = rng.getrandbits
    out: ExampleSequence = []
    append = out.append
    t = tree
    while t.instance is not None:
        y = bit(1)
        append((t.instance, y))
        t = t.one if y else t.zero
    return out


@dataclass(frozen=True, eq=False)
class ShatterReport:
    """How many branches of a tree the class does not realize; ``ok`` when none.

    ``failing_branches`` lists them left first.  The list can be exponential
    in the size of a shared DAG where the count is not, so it is built by
    ``list_failing`` on first read.  Reports are equal when their counts
    and lists are.
    """

    failing_count: int
    list_failing: Callable[[], tuple[tuple[Example, ...], ...]] = field(repr=False)

    @property
    def ok(self) -> bool:
        return not self.failing_count

    @cached_property
    def failing_branches(self) -> tuple[tuple[Example, ...], ...]:
        return self.list_failing()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShatterReport):
            return NotImplemented
        return (self.failing_count, self.failing_branches) == (other.failing_count, other.failing_branches)

    def __bool__(self) -> bool:
        return self.ok


def shatter_check(tree: MistakeTree, w: WeightedClass | ExpertClass) -> ShatterReport:
    """Whether every branch's example sequence is realizable by the class.

    A branch is realizable exactly when the class restricted along it is
    non-empty, so this is one pass over the distinct (node, version space)
    pairs the tree reaches, not over its root paths, counting the failing
    branches below each pair; each node's version spaces come from one
    :meth:`VersionSpace.split`, and below an empty class the empty class
    stands, one pair per node.  The failing branches are listed only when
    read, off the failing pairs only.  An instance outside the class's
    domain raises :class:`UnknownInstanceError` wherever it sits.
    """
    from .dimension import Solver  # dimension imports this module

    space = Solver().version_space(w)
    for x in dict.fromkeys(t.instance for t, _ in _preorder(tree) if not t.is_leaf):
        space.split(x)  # raises exactly where a branch through x would, on either kind

    def pair(t: MistakeTree, v) -> tuple:
        return t, v, (id(t), v.key)

    failing: dict[tuple, int] = {}  # pair key -> failing branches below the pair
    children: dict[tuple, tuple[tuple, tuple]] = {}
    root = pair(tree, space)
    stack = [root]
    while stack:
        t, v, key = stack[-1]
        if key in failing:
            stack.pop()
        elif t.is_leaf:
            failing[key] = int(v.is_empty)
            stack.pop()
        elif key in children:
            zero, one = children[key]
            failing[key] = failing[zero[2]] + failing[one[2]]
            stack.pop()
        else:
            v0, v1 = (v, v) if v.is_empty else v.split(t.instance)
            zero, one = pair(t.zero, v0), pair(t.one, v1)
            children[key] = (zero, one)
            stack += (one, zero)

    def list_failing() -> tuple[tuple[Example, ...], ...]:
        out: list[tuple[Example, ...]] = []
        walk: list[tuple[tuple, tuple[Example, ...]]] = [(root, ())]
        while walk:
            (t, v, key), prefix = walk.pop()
            if not failing[key]:
                continue
            if t.is_leaf:
                out.append(prefix)
                continue
            zero, one = children[key]
            walk += ((one, prefix + ((t.instance, 1),)), (zero, prefix + ((t.instance, 0),)))
        return tuple(out)

    return ShatterReport(failing[root[2]], list_failing)


# ---------------------------------------------------------------------------
# Serialization.  The writer gives the flat DAG form
# {"root": i, "nodes": [[instance, zero, one] | [instance, zero, one, "w0"], ...]},
# one row per distinct subtree, children first: ``zero``/``one`` index
# earlier rows, null is a leaf, and "w0" is an exact rational string.  The
# reader also takes the nested form {"leaf": true} | {"instance": ...,
# "zero": ..., "one": ...[, "w0": ...]}.  Both forms go through one
# ``json.loads`` whose object hook decodes nested nodes as they close.
# ---------------------------------------------------------------------------


def tree_to_json(tree: MistakeTree, weights: WeightFunction | None = None) -> str:
    """The flat tree file: one row per distinct (node, weight node) pair in
    the children-first order of :func:`_fold`, so its size follows the DAG,
    not the root paths.  With ``weights`` every row carries its ``w0``, and
    a missing one raises ``KeyError`` naming the first such node in that
    order by its first root path."""
    root = None if weights is None else weights.root

    def children(pair):
        t, n = pair
        if t.is_leaf:
            return ()
        zn, on = (None, None) if n is None else n[1:3]
        return (t.zero, zn), (t.one, on)

    def key(pair):
        return id(pair[0]), id(pair[1])

    rows = []

    def row(pair, zero: int | None, one: int | None) -> int:
        """The pair's row over its children's row numbers (None at a leaf), and its number."""
        t, n = pair
        out = [t.instance, zero, one]
        if weights is not None:
            if n is None or n[0] is None:  # name the node by its first root path
                paths = _preorder((tree, root), children, key)
                raise KeyError(next("".join(bits) for p, bits in paths if key(p) == key(pair)))
            out.append(str(n[0]))
        rows.append(out)
        return len(rows) - 1

    top = _fold((tree, root), None, row, children, key)
    return json.dumps({"root": top, "nodes": rows})


class _Invalid:
    """Stands in for a malformed object of a tree file; ancestors add their bits.
    ``fields`` is the object itself where it has no node fields: at the top,
    that may be a flat document."""

    __slots__ = ("message", "bits", "nonempty", "fields")

    def __init__(self, message: str, nonempty: bool = True, fields: dict | tuple = ()):
        self.message, self.bits, self.nonempty, self.fields = message, [], nonempty, fields

    def under(self, bit: str) -> _Invalid:
        self.bits.append(bit)
        return self

    def __bool__(self) -> bool:  # the object's truth value, as a "leaf" field reads it
        return self.nonempty


_DECODED_LEAF = (LEAF, None)  # (node, weight node)


def _bad_row(i: int, message: str) -> ValueError:
    return ValueError(f"tree file row {i}: {message}")


def tree_from_json(text: str) -> tuple[MistakeTree, WeightFunction | None]:
    """Parse a tree file in either form, with one ``json.loads``, which
    reports parse errors.  A flat document is then one pass over its rows,
    each checked before it is built (its shape, a string instance, child
    indices of earlier rows, a rational ``w0`` string), so a ``ValueError``
    names the first bad row.  A nested document is decoded object by object
    as ``json`` closes them, one nested call per level under the
    interpreter's recursion limit.  In both forms equal subtrees become one
    node, and copies weighed differently keep their own weight nodes.  Each
    nested object checks its own fields before its children's verdicts, so a
    ``ValueError`` names the first malformed node in preorder."""
    decoded: dict[tuple, tuple] = {}  # (instance, raw w0, zero's, one's) -> (node, weight node)
    trees: dict[tuple, MistakeTree] = {}
    w0s: dict = {}  # raw "w0" value -> its Fraction, parsed once

    def rational(raw) -> bool:
        """Whether ``raw`` reads as a rational number, parsed into ``w0s``."""
        if raw.__class__ is not str or raw not in w0s:
            try:  # Fraction() rejects an unhashable value before it is stored
                w0s[raw] = Fraction(raw)
            except (TypeError, ValueError, ArithmeticError):
                return False
        return True

    def intern(instance: str, raw, zero: tuple, one: tuple) -> tuple:
        """The decoded (node, weight node) over two decoded children."""
        key = (instance, raw, id(zero), id(one))
        hit = decoded.get(key)
        if hit is None:
            (zt, zw), (ot, ow) = zero, one
            t = trees.setdefault((instance, id(zt), id(ot)), node(instance, zt, ot))
            hit = decoded[key] = (t, _weight_node(None if raw is None else w0s[raw], zw, ow))
        return hit

    def decode(d: dict):
        if d.get("leaf"):
            return _DECODED_LEAF
        try:
            instance, zero, one = d["instance"], d["zero"], d["one"]
        except KeyError:
            return _Invalid("need instance/zero/one or leaf", bool(d), d)
        if instance.__class__ is not str:
            return _Invalid("instance must be a string")
        raw = d.get("w0")
        if (raw is not None or "w0" in d) and not rational(raw):
            return _Invalid("w0 is not a rational number")
        if zero.__class__ is not tuple:  # decoded objects are tuples or _Invalid
            return (zero if zero.__class__ is _Invalid else _Invalid("expected an object")).under("0")
        if one.__class__ is not tuple:
            return (one if one.__class__ is _Invalid else _Invalid("expected an object")).under("1")
        return intern(instance, raw, zero, one)

    def flat(doc: dict) -> tuple:
        """The decoded root of a flat document, built row by row."""
        rows = doc["nodes"]
        if rows.__class__ is not list:
            raise ValueError('tree file: "nodes" must be an array')
        built: list[tuple] = []
        for i, row in enumerate(rows):
            if row.__class__ is not list or not 3 <= len(row) <= 4:
                raise _bad_row(i, "expected [instance, zero, one] or [instance, zero, one, w0]")
            instance, zero, one = row[:3]
            if instance.__class__ is not str:
                raise _bad_row(i, "instance must be a string")
            for name, c in (("zero", zero), ("one", one)):
                if c is not None and (c.__class__ is not int or not 0 <= c < i):  # bool is no int here
                    raise _bad_row(i, f"{name} must be null or the index of an earlier row")
            raw = row[3] if len(row) == 4 else None
            if len(row) == 4 and (raw.__class__ is not str or not rational(raw)):
                raise _bad_row(i, "w0 must be a rational number string")
            zero = _DECODED_LEAF if zero is None else built[zero]
            built.append(intern(instance, raw, zero, _DECODED_LEAF if one is None else built[one]))
        root = doc.get("root", -1)  # a missing root is out of range
        if root is not None and (root.__class__ is not int or not 0 <= root < len(built)):
            raise ValueError("tree file: root must be null or the index of a row")
        return _DECODED_LEAF if root is None else built[root]

    doc = json.loads(text, object_hook=decode)
    if doc.__class__ is _Invalid and not doc.bits and "nodes" in doc.fields:
        doc = flat(doc.fields)  # a top-level object with rows, not node fields
    if doc.__class__ is not tuple:
        bad = doc if doc.__class__ is _Invalid else _Invalid("expected an object")
        raise ValueError(f"tree node at {''.join(reversed(bad.bits))!r}: {bad.message}")
    tree, root = doc
    return tree, (None if root is None else WeightFunction(PathWeights(root)))
