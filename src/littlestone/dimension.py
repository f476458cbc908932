"""Exact Littlestone and randomized Littlestone dimensions: a lattice sweep on
count states, an explicit-stack DP on explicit classes, and one level sweep
for the bounded value in both.

The deterministic dimension of a weighted class obeys

    L(W) = max over effective adversary moves of 1 + min(L(W0), L(W1)),

and the randomized dimension obeys

    RL(W) = max over moves of (1 + RL(W0) + RL(W1)) / 2,

where W0, W1 charge the move's example to the class under labels 0 and 1,
and the empty class has dimension -1.  A move on which every member agrees
is a self-loop for the agreeing label; its resolved value is 1 + RL(W') for
the fully decremented class W' (resp. 1 + L(W')), which is the unique
solution of v = (1 + v + RL(W')) / 2.

Moves are enumerated as behaviors (distinct label columns), so only the
member matrix matters, never the raw domain size.  A move and its label
swap lead to the same two children, so only one of each pair is scored.
Universal expert classes additionally compress states to counts of
surviving experts per remaining budget, which keeps n experts tractable
without materializing a 2^n domain.  A count state is one int too: level
j's count in bits [32j, 32(j + 1)), the same field width in every Solver.
A split charging O (the ones vector, packed alike) of the counts C has
children C - O + (O >> 32) and O + ((C - O) >> 32), and the decremented
state is C >> 32.

Count states sweep their lattice.  Budgets sorted in descending order, a
count root reaches exactly the states whose i-th budget is at most the
root's for each i, a set known before any value is: its size is charged to
the state budget up front.  In ascending order children come before their
parents, and the states that differ only on level 0 form runs at
consecutive positions, so the children under a ones vector O sit at fixed
offsets in O's level-0 count from two positions per O above level 0, one
lookup each per run.  L and RL take one pass in that order, each state's
maximum one C-level ``max(map(add or min, ...))`` over its pairs of
children; RL runs at the root's scale 2^P and writes each state at its own.
RL_T runs the level sweep below on rows built from the same positions; a
bounded query at horizon T builds only the states whose sorted budgets each
lie within T of the root's.

L is pruned by Berlekamp's volume bound.  A depth-m tree shattered by a
class has 2^m branches, and a member of remaining budget j is consistent
with at most V(m, j) = sum over i <= j of C(m, i) of them, so
2^m <= S(m) = sum over i of above_i * C(m, i), where above_i counts the
members of remaining budget at least i.  As above_i does not grow with i,
S(m + 1) <= 2 * S(m), so the m the bound admits form a prefix and one test
at best + 1 tells whether L can still beat ``best``.  The explicit rule
stops its move scan once that test fails, and skips a move's second child
once the first cannot beat ``best``; so the L memo of a frame holds only
the states that search visited.  The count sweep writes L(p) = L(p - 1),
with no scan, when the state p - 1 one level-0 expert smaller (a sub-class,
so L(p) >= L(p - 1)) already reaches the bound; every lattice state is
still written.

Explicit states are packed into one int each, within a frame built once from
a root class's canonical members: one bit per member slot, one column mask
per domain point, and layer j of the int masking the members with remaining
budget at least j.  A child is then a few bitwise operations on its parent,
and a memo lookup hashes one int.  Which columns coincide, and so which
moves a state has, depends only on its live members, so each frame keeps a
move table keyed by the live mask ``state & mask``: the dedupe up to label
swap runs once per distinct live mask, not once per state and horizon.
Each frame keeps its own memos; a query uses the first frame with a slot
for each of its members, so every version space of a class shares the
class's memo, and opens a new frame otherwise.

Both state spaces, the one count space ``_COUNTS`` (a :class:`_Counts`)
and each :class:`_Frame`, offer one interface: ``rows`` (the level sweep's
input from a root), ``moves`` (a state's moves up to label swap, in the
order the tree walk tries them), ``power`` (a state's P), and ``split``,
``step`` and ``key`` of a :class:`VersionSpace` in the space.  A frame
adds ``expand`` and ``room`` for its L and RL DP.  A VersionSpace is a
class held as a state of its space, with the space's tables and a label
(the frame's domain, or the expert class itself); an example steps it by
the space's charge, with no explicit class built, and every query accepts
it in place of a class.  Only ``VersionSpace.__init__`` asks which space a
class lives in.  Tree extraction reads domain points off ``explicit()``,
which materializes an expert class and returns a weighted class itself.

Randomized values are dyadic, and the DP runs on their integer
numerators.  RL(W) * 2^P is an integer for P = sum over members of
(budget + 1); a move that charges s of the m members lowers P by exactly s,
so one step is 2^(P-1) + RL(W0)*2^(P-s) * 2^(s-1) + RL(W1)*2^(P-m+s) * 2^(m-s-1).
RL(W, T) * 2^T is an integer, so one bounded step is
2^(T-1) + RL(W0, T-1)*2^(T-1) + RL(W1, T-1)*2^(T-1).  The public methods
return the exact ``Fraction``; deterministic dimensions are ints.

On explicit frames one loop, :meth:`Solver._dp`, computes L and RL and
folds the optimal tree: each one-step rule is a generator that yields child
keys and is sent their values, and the loop keeps the memo on an explicit
stack, not recursion.  RL_T runs one level sweep in either space.  It
builds, once, the states by distance from the root (breadth first on a
frame, from the lattice on count states) and the index lists of each one's
pairs of children, then sweeps RL_t * 2^t upward, a level at a time, over
flat int lists, writing each level into the RL_T memo; each row is read
through two ``itemgetter``s (see :func:`_readers`).  A bounded query
expands only the states within T - 1 rounds and computes at level t only
those within T - t rounds, a prefix of the states by distance; so it writes
every such state, where a DP would write those it reaches in exactly T - t
moves.  The horizon search, which needs RL(W, t) for t = 1, 2, ... in turn,
expands every reachable state once and sweeps until its target is met.
Its target needs RL(W), which it reads off the same rows unless the RL
memo holds it: one pass in ascending P at the root's scale, the self-loop
scored apart, as the count sweep runs, writing every state into the RL
memo at its own scale, the entries the DP or the count sweep would write.

One walk over the RL_T memo, :meth:`Solver._walk`, reads the optimal tree
off it through the same loop: each (state, t) key takes the first move
attaining its value (in witness order on a frame, the self-loop first on
count states) and folds its two children's results with a given join,
which is also given the move's quasi-balance weight
w0 = (2^(t-1) + v1 - v0) / 2^t from the children's values v0, v1 at scale
2^(t-1).  Tree extraction joins interned nodes and builds one weight node
per new tree node, so it returns the weights that
:func:`~littlestone.trees.quasi_balance_weights` would fold from the tree.
The branch-length law joins the children's laws, integers at scale 2^t:
P(length = L) * 2^t per L, a leaf 2^t at length 0 and a node its children's
laws added one length up.  So on an explicit class the law is that of the
extracted tree.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, count, islice, repeat
from math import comb
from operator import add, itemgetter, mul, rshift

from .classes import ExpertClass, WeightedClass, restrict, with_budget
from .trees import LEAF, MistakeTree, PathWeights, WeightFunction, _weight_node, node

# Unused here: extraction builds its weights in the walk.  The benchmark
# tracer wraps this name, so it stays until its wrappers go (ROADMAP item 6).
from .trees import quasi_balance_weights

EMPTY = -1

# Bits per budget level of a packed count state, and the mask of level 0.
_W = 32
_LOW = (1 << _W) - 1


def _ranked(key):
    """((labels, occurrence), budget) per member of a canonical key; members
    with equal labels take occurrences 0, 1, ... from the highest budget down."""
    prev, occurrence = None, 0
    for labels, budget in reversed(key):
        occurrence = occurrence + 1 if labels == prev else 0
        prev = labels
        yield (labels, occurrence), budget


class _Frame:
    """Packed-integer encoding of explicit states over one root class's rows.

    Each ``(labels, occurrence)`` slot of the root's canonical members owns
    one of ``width`` bits, same-label members ranked by budget, descending.
    A state is the int sum over j of L_j << (j * width), where L_j masks the
    members whose remaining budget is at least j, so the empty class is 0,
    ``state & mask`` holds the live members and ``state.bit_count()`` is
    P = sum of (budget + 1).  Members with equal labels share every column,
    so a transition keeps each row's slots a prefix with descending budgets,
    and each canonical state has exactly one encoding.  Budgets grow the
    layer count on demand; an existing state's value is unaffected.

    ``table`` maps the live mask ``state & mask`` of each state expanded to
    its moves (see :meth:`fill`), so it holds at most one entry per state
    expanded: on u(8, 1), 255 entries of about 0.4 MiB beside the RL memo's
    6,560 states of about 0.6 MiB.  Its masks are copied into every layer
    up to ``repeat``, so charging a move is one ``&`` with the state's top
    layers (see :meth:`moves`).  A deeper class that grows ``repeat``
    empties the table, which then refills with masks covering the new layers.

    A frame is a state space (see :class:`_Counts` for the other one); the
    label of its version spaces is the root class's domain.
    """

    def __init__(self, key):
        self.slots = {slot: bit for bit, (slot, _) in enumerate(_ranked(key))}
        self.width = len(self.slots)
        self.mask = (1 << self.width) - 1
        # One mask per domain point; ``behaviors`` keeps the first witness of
        # each column up to label swap, which no state can tell apart.
        self.columns = [
            sum(labels[x] << bit for (labels, _), bit in self.slots.items())
            for x in range(len(key[0][0]) if key else 0)
        ]
        seen: set[int] = set()
        self.behaviors = []
        for witness, column in enumerate(self.columns):
            if column not in seen:
                seen.update((column, self.mask ^ column))
                self.behaviors.append((witness, column))
        # Copies a slot mask into every layer of the deepest budget encoded.
        self.repeat = 1
        # The move table: (moves, constant, splits) per live mask, by fill().
        self.table: dict[int, tuple[tuple, bool, tuple]] = {}

    def fill(self, live: int) -> tuple[tuple, bool, tuple]:
        """The move table entry of the live-member mask ``live``, computed
        once: its behaviors up to label swap as (first witness, s, spread)
        in witness order, ``spread`` the live members labeling the witness 1
        in every layer; whether some behavior is constant; and the other
        behaviors, the splits, as the same triples."""
        moves = []
        seen: set[int] = set()
        for witness, column in self.behaviors:
            ones = column & live
            if ones not in seen:
                seen.update((ones, live ^ ones))
                moves.append((witness, ones.bit_count(), ones * self.repeat))
        m = live.bit_count()
        splits = tuple(move for move in moves if 0 < move[1] < m)
        entry = self.table[live] = (tuple(moves), len(splits) < len(moves), splits)
        return entry

    def encode(self, key) -> int | None:
        """The packed state of a canonical key, or None if a member has no slot."""
        state = repeat = 0
        for slot, budget in _ranked(key):
            bit = self.slots.get(slot)
            if bit is None:
                return None
            layers = ((1 << (budget + 1) * self.width) - 1) // self.mask  # slot 0, layers 0..budget
            repeat = max(repeat, layers)
            state |= layers << bit
        if repeat > self.repeat:
            self.repeat = repeat
            self.table.clear()  # its masks miss the new layers
        return state

    def moves(self, state: int):
        """(first witness, s, child under 0, child under 1) per behavior up to
        label swap, in witness order; ``s`` members label it 1 and are charged
        under label 0.  Charging drops a member's top layer, so with
        ``low = state >> width`` the child under 0 takes ``low`` on the members
        labeling 1 and ``state`` elsewhere, and the child under 1 the reverse.
        A constant behavior thus gives the state itself and ``low``."""
        live = state & self.mask
        moves = (self.table.get(live) or self.fill(live))[0]
        low = state >> self.width
        diff = state ^ low
        for witness, s, spread in moves:
            charged = diff & spread
            yield witness, s, state ^ charged, low ^ charged

    def expand(self, state: int):
        """(m, P, decremented state if some behavior is constant else None,
        [(s, child under 0, child under 1)] per other behavior up to label swap),
        the behaviors as :meth:`moves` gives them."""
        live = state & self.mask
        _, constant, splits = self.table.get(live) or self.fill(live)
        low = state >> self.width
        diff = state ^ low
        splits = [(s, state ^ (charged := diff & spread), low ^ charged) for _, s, spread in splits]
        return live.bit_count(), state.bit_count(), low if constant else None, splits

    def room(self, state: int, m: int) -> bool:
        """Whether the volume bound admits L >= m at an explicit state.  A
        member of remaining budget at least m is consistent with every branch,
        so only a state whose layer m is empty needs above_i, the popcount of
        each layer i."""
        if state >> m * self.width:
            return True
        above = []
        while state:
            above.append((state & self.mask).bit_count())
            state >>= self.width
        return _volume(above, m) >= 1 << m

    def rows(self, root: int, charge=None, horizon: int | None = None):
        """The level sweep's input over the states ``root`` reaches, found
        breadth first: the states, index 0 the empty class and index 1
        ``root``; their distances, which do not fall from index 1 on; and per
        state from index 1 on within ``horizon - 1`` rounds (every one if None)
        the index lists (i0, i1) of its moves' children, a self-loop as the pair
        of the state and its decremented state.  The expansion stops at the
        first state past that, so the states are those within ``horizon``
        rounds.  Each expansion is charged to ``charge``, if given, with the
        rows held."""
        states = [0, root]
        dists = [0, 0]
        index = {0: 0, root: 1}
        rows: list[tuple[list[int], list[int]]] = []

        def indices(children, dist: int) -> list[int]:
            out = []
            for child in children:
                i = index.setdefault(child, len(states))
                if i == len(states):
                    states.append(child)
                    dists.append(dist)
                out.append(i)
            return out

        for j, state in enumerate(islice(states, 1, None), 1):  # grows as states are found
            dist = dists[j] + 1
            if horizon is not None and dist > horizon:
                break
            if charge is not None:
                charge(len(rows) + 1)
            _, _, dec, splits = self.expand(state)
            i0 = indices((child0 for _, child0, _ in splits), dist)
            i1 = indices((child1 for _, _, child1 in splits), dist)
            if dec is not None:  # the self-loop: the state itself, and decremented
                i0.append(j)
                i1 += indices((dec,), dist)
            rows.append((i0, i1))
        return states, dists, rows

    power = staticmethod(int.bit_count)  # P by one C call: the learners read it every round

    def key(self, v: "VersionSpace"):
        return self, v.state

    # In ``split`` and ``step``, ``charged`` masks the members labeling x
    # with 1 at each of their layers, those charged under label 0, so the
    # children are ``state ^ charged`` and ``low ^ charged`` as in
    # :meth:`moves`.  The empty class may sit in a frame opened without columns.

    def split(self, v: "VersionSpace", x: str) -> tuple["VersionSpace", "VersionSpace"]:
        i, state = v.label.index(x), v.state
        low = state >> self.width
        charged = (state ^ low) & self.columns[i] * self.repeat if state else 0
        return v._child(state ^ charged, v.label), v._child(low ^ charged, v.label)

    def step(self, v: "VersionSpace", x: str, y: int) -> "VersionSpace":
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        i, state = v.label.index(x), v.state
        low = state >> self.width
        charged = (state ^ low) & self.columns[i] * self.repeat if state else 0
        return v._child(low ^ charged if y else state ^ charged, v.label)


def _volume(above: list[int], m: int) -> int:
    """S(m) = sum over i of above[i] * C(m, i): how many branches of a
    depth-m tree the members can be consistent with, ``above[i]`` of them
    of remaining budget at least i.  A class with L >= m has 2^m <= S(m)."""
    return sum(map(mul, above, _binomials(m)))


@lru_cache(maxsize=64)
def _binomials(m: int) -> tuple[int, ...]:
    """C(m, i) for i = 0, ..., m: the room tests of a query ask for a few m,
    each many times over.  A bounded cache, as a row holds m + 1 ints."""
    return tuple(map(comb, repeat(m), range(m + 1)))


def _pack(counts) -> int:
    """The packed count state of per-level counts (index = remaining budget)."""
    state = 0
    for level, c in enumerate(counts):
        if c >> _W:
            raise ValueError(f"{c} experts on one budget level exceed the {_W}-bit count field")
        state |= c << level * _W
    return state


def _levels(state: int) -> memoryview:
    """The per-level counts of a packed count state, decoded by ``to_bytes``,
    never a shift loop."""
    data = state.to_bytes(-(-state.bit_length() // _W) * 4, sys.byteorder)
    levels = memoryview(data).cast("I")  # native 32-bit words
    return levels if sys.byteorder == "little" else levels[::-1]


def _u_above(state: int) -> list[int]:
    """above_i of a packed count state per level i: the experts of remaining
    budget at least i, a suffix sum of the level counts."""
    return list(accumulate(reversed(_levels(state))))[::-1]


def _share(level: int) -> int:
    """What one expert of a ones vector O on ``level`` adds to D = O - (O >> _W)."""
    return (1 << level * _W) - (1 << (level - 1) * _W) if level else 1


def _occupied(state: int) -> list[tuple[int, int]]:
    """(level, count) per occupied level of a packed count state, lowest
    first, found from the top bit down: no pass over the empty levels."""
    out = []
    while state:
        level = (state.bit_length() - 1) // _W
        out.append((level, state >> level * _W))
        state &= (1 << level * _W) - 1
    out.reverse()
    return out


def _product(occupied: list[tuple[int, int]], share=_share) -> list[int]:
    """The sum over levels j of o_j * share(j) for every vector o <= the
    ``occupied`` counts, in product order: the lowest level slowest, each
    o_j from 0 up."""
    out = [0]
    for level, c in occupied:
        step = share(level)
        out = list(chain.from_iterable(map(range, out, map(add, out, repeat((c + 1) * step)), repeat(step))))
    return out


def _lattice(root: int, horizon: int | None = None) -> tuple[list[int], list[int], list[int]]:
    """Every count state the count state ``root`` reaches, ascending, with
    its P and its distance: the fewest rounds from ``root`` to it.  With
    ``horizon``, only the states whose matched gap is at most ``horizon``.

    With budgets sorted in descending order, a root a reaches exactly the
    states b with b_i <= a_i for each i <= len(b): its tail-dominated
    lattice.  The distance is the largest a_i - b_i over those i, the
    matched gap, and a_i + 1 over the root's experts past len(b).  The empty
    class is first.  The gap never falls as a state takes more experts, and
    a child's gap is at most its parent's + 1, so the states within
    ``horizon - 1`` rounds keep their children, their runs' heads (level-0
    count 0) and the heads' children: all a level sweep to ``horizon`` reads.
    """
    levels = _levels(root)
    budgets = list(chain.from_iterable(map(repeat, reversed(range(len(levels))), reversed(levels))))
    budgets.append(-1)  # past the last expert: no unmatched one is left
    # Per state built so far: (state, the largest budget the next expert may
    # take, P, matched gap).
    frontier = [(0, budgets[0], 0, 0)]
    found = [(0, 0, budgets[0] + 1)]
    for a, unmatched in zip(budgets, islice(budgets, 1, None)):
        least = 0 if horizon is None else max(a - horizon, 0)  # a gap a - b past horizon is dropped
        frontier = [
            (state + (1 << _W * b), b, power + b + 1, max(gap, a - b))
            for state, top, power, gap in frontier
            for b in range(least, min(top, a) + 1)
        ]
        found += [(state, power, max(gap, unmatched + 1)) for state, _, power, gap in frontier]
    found.sort()
    return tuple(map(list, zip(*found)))


def _pairs(states: list[int], needed: Callable[[int, int], bool] | None = None):
    """(position p, level-0 count d0, n, P0, P1, position of the decremented
    state) per state of a lattice ``states``, in its ascending order; with
    ``needed``, a predicate on (p, d0) asked of each state in that order,
    only the states it holds for.

    A run is the states that differ on level 0 only: they sit at consecutive
    positions, level-0 count 0 first.  A ones vector O is its level-0 count
    o0 and the vector h above it.  In the run of the state ``high`` with
    level-0 count 0, the children under O are then at aa[h] + d0 - o0 and
    bb[h] + o0, where aa[h] and bb[h] are the positions of the children of
    ``high`` under h alone.
    So P0 lists aa[h] - o0 and P1 lists bb[h] + o0 in product order, o0
    slowest.  Its first n entries are the first half of the state's ones
    vectors, as :meth:`_Counts.moves` takes them: O = 0, whose children are the
    state itself and the decremented state, and one O of each label-swap
    pair.  The lists are shared along a run and grow with d0, so read them
    before the next state.  They grow, catching up along the run, only when
    a state is yielded, and a run's positions are looked up only once one of
    its states is: a state ``needed`` turns down costs one call.
    """
    where = dict(zip(states, range(len(states)))).__getitem__
    starts = [p for p, state in enumerate(states) if not state & _LOW]
    for b0, b1 in zip(starts, [*islice(starts, 1, None), len(states)]):
        aa = None
        for p in range(b0, b1):
            d0 = p - b0
            if needed is not None and not needed(p, d0):
                continue
            if aa is None:
                high = states[b0]
                low = high >> _W
                ds = _product(_occupied(high))
                aa = list(map(where, map(high.__sub__, ds)))
                bb = list(map(where, map(low.__add__, ds)))
                down = where(low)
                p0: list[int] = []
                p1: list[int] = []
                joined = 0  # o0 = 0, ..., joined - 1 are in the lists
            while joined <= d0 >> 1:  # the half needs o0 up to d0 // 2
                p0 += map((-joined).__add__, aa)
                p1 += map(joined.__add__, bb)
                joined += 1
            yield p, d0, ((d0 + 1) * len(aa) + 1) // 2, p0, p1, down


class _Counts:
    """The count space of expert classes: a state is the packed counts of
    surviving experts per remaining budget, the same in every Solver, and
    the label of its version spaces is their :class:`ExpertClass`."""

    def rows(self, root: int, charge=None, horizon: int | None = None):
        """The level sweep's input over the count states ``root`` reaches: the
        states by distance, the empty class first and the root second, up to
        ``horizon`` rounds if given; their distances; and per state within
        ``horizon - 1`` rounds (every one if None), in that order, the position
        lists (i0, i1) of its pairs of children from :func:`_pairs`, the
        self-loop's pair of the state and its decremented state among them.
        The rows are charged to ``charge``, if given, before they are built."""
        states, _, dists = _lattice(root, horizon)
        order = sorted(range(1, len(states)), key=dists.__getitem__)
        ranked = list(map(dists.__getitem__, order))
        if horizon is not None:
            order = order[: bisect_right(ranked, horizon)]
        rows: list = [None] * (len(order) if horizon is None else bisect_right(ranked, horizon - 1))
        if charge is not None:
            charge(len(rows))
        where = [0] * len(states)  # 0, the empty class's, past ``order``: never read
        for i, p in enumerate(order, 1):
            where[p] = i
        get = where.__getitem__
        for p, d0, n, p0, p1, _ in _pairs(states, lambda p, _: 0 < where[p] <= len(rows)):
            rows[where[p] - 1] = (list(map(get, map(d0.__add__, islice(p0, n)))), list(map(get, islice(p1, n))))
        return [0, *map(states.__getitem__, order)], [0, *islice(ranked, len(order))], rows

    def moves(self, state: int):
        """As :meth:`_Frame.moves` for a packed count state, witnesses None:
        the self-loop, then one split of each label-swap pair; ``s`` experts
        predict 1 and are charged under label 0.

        Splits are ones vectors O <= the counts C in product order
        (:func:`_product`); the label swap of split j sits at index size - 1 - j,
        so the first half, past the all-zero self-loop, holds one of each pair.
        With D = O - (O >> _W), the children are C - D and (C >> _W) + D.
        """
        low = state >> _W
        yield None, 0, state, low
        occupied = _occupied(state)
        ds = _product(occupied)
        ss = _product(occupied, lambda level: 1)
        for s, d in islice(zip(ss, ds), 1, (len(ds) + 1) // 2):
            yield None, s, state - d, low + d

    def power(self, state: int) -> int:
        return sum(map(mul, _levels(state), count(1)))

    def key(self, v: "VersionSpace"):
        return v.label

    def split(self, v: "VersionSpace", x: str) -> tuple["VersionSpace", "VersionSpace"]:
        return self.step(v, x, 0), self.step(v, x, 1)

    def step(self, v: "VersionSpace", x: str, y: int) -> "VersionSpace":
        experts = restrict(v.label, x, y)
        return v._child(_pack(experts.counts()), experts)


_COUNTS = _Counts()


def _readers(rows: list) -> None:
    """The rows of a space's ``rows`` as :func:`_rl_level` reads them, made
    in place: a row of one pair as its two positions, a longer one as two
    ``itemgetter``s, each gathering its pairs' values in one C call where
    ``map`` over an index list builds an iterator per row and level, and a
    row without moves as (None, None)."""
    for j, (i0, i1) in enumerate(rows):
        rows[j] = (i0[0], i1[0]) if len(i0) == 1 else (itemgetter(*i0), itemgetter(*i1)) if i0 else (None, None)


def _rl_level(rows, values: list[int], t: int) -> list[int]:
    """RL_t * 2^t of the empty class, then of each row's state, from
    ``values``, RL_(t-1) * 2^(t-1) by position; the rows as :func:`_readers`
    gives them, and a state without moves is 0."""
    half = 1 << (t - 1)
    return [-(1 << t)] + [
        half + values[a] + values[b] if a.__class__ is int else half + max(map(add, a(values), b(values))) if a else 0
        for a, b in rows
    ]


class VersionSpace:
    """A class as a state of a :class:`Solver`'s state space, stepped by examples.

    ``space`` is the class's :class:`_Frame` or the count space
    :data:`_COUNTS`, ``state`` the class's packed state in it, and ``label``
    what an example's instance is read against: the frame's domain (a column
    mask stands in for the point), or the expert class itself.  Steps,
    splits, keys and powers are the space's.  Values come from the tables
    the space was built over, so every step of a class reads the class's
    memo.  Immutable.
    """

    __slots__ = ("space", "tables", "state", "label")

    def __init__(self, solver: "Solver", w: WeightedClass | ExpertClass):
        if isinstance(w, ExpertClass):
            self.space, self.tables, self.state, self.label = _COUNTS, solver._counts, _pack(w.counts()), w
        else:
            self.space, self.tables, self.state = solver._frame(w.state_key())
            self.label = w.domain

    def _child(self, state: int, label) -> "VersionSpace":
        child = object.__new__(VersionSpace)
        child.space, child.tables, child.state, child.label = self.space, self.tables, state, label
        return child

    def split(self, x: str) -> tuple["VersionSpace", "VersionSpace"]:
        """The version spaces after (x, 0) and after (x, 1)."""
        return self.space.split(self, x)

    def step(self, x: str, y: int) -> "VersionSpace":
        """The version space after the example (x, y), as :func:`restrict`."""
        return self.space.step(self, x, y)

    @property
    def is_empty(self) -> bool:
        return not self.state

    @property
    def key(self):
        """Hashable, and equal only for equal version spaces of one Solver."""
        return self.space.key(self)

    @property
    def power(self) -> int:
        """P = sum over members of (budget + 1); RL * 2^P is an integer."""
        return self.space.power(self.state)

    def __deepcopy__(self, memo) -> "VersionSpace":
        # The tables belong to the Solver, which a copied learner shares.
        return self


def _l_rule(room, expand, state):
    """L: 1 + min over the two children, maximized over moves.  The scan
    stops once ``room(state, best + 1)``, the volume bound, rules out
    beating ``best``, and a move whose child under 0 is below ``best``
    cannot beat it, so its child under 1 is never visited."""
    _, _, dec, splits = expand(state)
    best = 0 if dec is None else 1 + (yield dec)
    tested = None  # the best whose room was last tested
    for _, child0, child1 in splits:
        if tested != best:
            if not room(state, best + 1):
                break
            tested = best
        zero = yield child0
        if zero >= best:
            one = yield child1
            if one >= best:
                best = 1 + min(zero, one)
    return best


def _rl_rule(expand, state):
    """RL * 2^P: the dyadic (1 + a + b) / 2, maximized over moves."""
    m, power, dec, splits = expand(state)
    best = 0 if dec is None else (1 << power) + ((yield dec) << m)
    half = 1 << (power - 1)
    for s, child0, child1 in splits:
        v = half + ((yield child0) << (s - 1)) + ((yield child1) << (m - s - 1))
        if v > best:
            best = v
    return best


def _empty(state) -> int | None:
    """Leaf of L and RL: the empty class."""
    return None if state else EMPTY


def _empty_or_horizon(key) -> int | None:
    """Leaves of RL_T * 2^t: the empty class, and the exhausted horizon."""
    state, t = key
    if not state:
        return -(1 << t)
    return 0 if t == 0 else None


class ComputeBudgetError(RuntimeError):
    """A configured cap on visited dynamic-programming states was exceeded."""


class Solver:
    """Shared-memo dimension computations over weighted and expert classes.

    One (memo, solve) table per value and state space: the count space,
    whose values sweep the lattice a count state reaches, and each
    :class:`_Frame` of packed explicit states, whose L and RL run the DP;
    RL_T runs the level sweep in both.  The
    RL memos hold RL * 2^P and the RL_T memos RL_T * 2^T as ints.  Every
    query takes a class or a :class:`VersionSpace` and reads its state's
    memo entry.  A class is encoded once per Solver: :meth:`version_space`
    keeps one version space per class object, and :meth:`budget_space` one
    per class object and budget.
    """

    def __init__(self, state_budget: int | None = None):
        self.state_budget = state_budget
        l, rl, brl = {}, {}, {}
        self._counts = {
            "l": (l, partial(Solver._sweep, memo=l, randomized=False)),
            "rl": (rl, partial(Solver._sweep, memo=rl, randomized=True)),
            "brl": (brl, partial(Solver._sweep_levels, memo=brl, build_rows=_COUNTS.rows)),
        }
        # Each frame with its tables; the tables' rules hold the frame, so
        # the frame must not hold them back, or a dropped Solver is a cycle.
        self._frames: list[tuple[_Frame, dict]] = []
        # (class, its version space) by (id of the class, budget or None); the
        # class is held so that its id is not reused while the entry lives.
        self._spaces: dict[tuple[int, int | None], tuple] = {}

    @property
    def states_visited(self) -> int:
        tables = [self._counts, *(tables for _, tables in self._frames)]
        return sum(len(memo) for table in tables for memo, _ in table.values())

    def _charge(self, pending: int = 0) -> None:
        """Raise once the memo entries plus ``pending`` held items pass the budget."""
        if self.state_budget is not None and self.states_visited + pending > self.state_budget:
            raise ComputeBudgetError(f"state budget of {self.state_budget} exceeded")

    def _frame(self, key) -> tuple[_Frame, dict, int]:
        """The first frame with a slot for every member of ``key``, opening
        one from ``key`` if none has; its tables; the packed state of ``key``."""
        for frame, tables in self._frames:
            state = frame.encode(key)
            if state is not None:
                return frame, tables, state
        frame = _Frame(key)
        l, rl, brl = {}, {}, {}
        tables = {
            "l": (l, partial(Solver._dp, memo=l, body=partial(_l_rule, frame.room, frame.expand), leaf=_empty)),
            "rl": (rl, partial(Solver._dp, memo=rl, body=partial(_rl_rule, frame.expand), leaf=_empty)),
            "brl": (brl, partial(Solver._sweep_levels, memo=brl, build_rows=frame.rows)),
        }
        self._frames.append((frame, tables))
        return frame, tables, frame.encode(key)

    def version_space(self, w: WeightedClass | ExpertClass | VersionSpace) -> VersionSpace:
        """``w`` as a state of this solver's state spaces; a VersionSpace as is.

        A Solver holds one version space per class object, built on the
        first call, so a game on a class it has seen encodes nothing."""
        return w if isinstance(w, VersionSpace) else self._space(w, None)

    def budget_space(self, w: WeightedClass | ExpertClass, k: int) -> VersionSpace:
        """The version space of ``with_budget(w, k)``, one per class object and k."""
        return self._space(w, k)

    def _space(self, w: WeightedClass | ExpertClass, k: int | None) -> VersionSpace:
        """The cached version space of ``w`` (of ``with_budget(w, k)`` unless
        ``k`` is None), built on a miss."""
        entry = self._spaces.get((id(w), k))
        if entry is None:
            entry = self._spaces[id(w), k] = (w, VersionSpace(self, w if k is None else with_budget(w, k)))
        return entry[1]

    def _dp(self, root, memo: dict, body, leaf, charge: bool = True):
        """The value of ``root``: its ``memo`` entry, else ``leaf(root)`` unless
        None, else what the generator ``body(root)`` returns once sent the value
        of each key it yields, charged (if ``charge``) and memoized."""
        # The key being expanded and its rule's send; the stack holds its ancestors'.
        parent = send = None
        stack = []
        key = root
        while True:
            value = memo.get(key)
            if value is None:
                value = leaf(key)
                if value is None:
                    if charge:
                        self._charge()
                    stack.append((parent, send))
                    parent, send = key, body(key).send
            while send is not None:
                try:
                    key = send(value)
                    break
                except StopIteration as done:
                    value = memo[parent] = done.value
                    parent, send = stack.pop()
            else:
                return value

    # -- the count engine ----------------------------------------------------

    def _charge_new(self, memo: dict, keys, held: int = 0) -> None:
        """Charge the ``keys`` not in ``memo`` yet and ``held`` items, before
        any key is computed."""
        if self.state_budget is not None:
            self._charge(held + sum(1 for key in keys if key not in memo))

    def _sweep(self, root: int, memo: dict, randomized: bool) -> int:
        """L, or RL * 2^P, of the count state ``root``, in one pass over the
        lattice it reaches in ascending order, so children come first.  Every
        state of the lattice is written into ``memo``, RL at its own 2^P."""
        if not root:
            return EMPTY
        states, powers, _ = _lattice(root)
        self._charge_new(memo, islice(states, 1, None))
        top = powers[-1]  # the root's P, the largest
        # RL * 2^top, an integer at every state.  A child's P is below its
        # parent's, so every child's value is even at this scale and the
        # halving in (1 + a + b) / 2 is exact.  Until a state is written its
        # position holds a value below any pair's sum (resp. minimum): its
        # pair O = 0, the self-loop scored apart, reads it and so never
        # attains the maximum.
        if randomized:
            full, half = 1 << top, 1 << top - 1
            values = [-(1 << 2 * top + 2)] * len(states)
            values[0] = -full
        else:
            values = [EMPTY - 1] * len(states)
            values[0] = EMPTY
        get = values.__getitem__
        pair = add if randomized else min
        # L: the run predecessor p - 1, one level-0 expert short, is a
        # sub-class, so L(p) >= L(p - 1).  Along a run only above_0 grows, by
        # d0, and C(m, 0) = 1, so S(m) at p is the run's S(m) plus d0: when it
        # leaves no room for L(p - 1) + 1, L(p) = L(p - 1) with no scan:
        # ``scan`` writes it, and _pairs skips the state, its lists not grown.
        tested = room = None  # (run start, m) of the run's S(m) in ``room``

        def scan(p: int, d0: int) -> bool:
            """Whether L(p) needs its scan; if the bound says not, L(p) = L(p - 1)."""
            nonlocal tested, room
            if not d0:
                return p > 0
            m = values[p - 1] + 1
            if tested != (p - d0, m):
                tested = (p - d0, m)
                room = _volume(_u_above(states[p - d0]), m)
            if room + d0 < 1 << m:
                values[p] = m - 1
                return False
            return True

        for p, d0, n, p0, p1, down in _pairs(states, None if randomized else scan):
            if not p:
                continue
            best = max(map(pair, map(get, map(d0.__add__, islice(p0, n))), map(get, islice(p1, n))))
            if randomized:
                loop, best = full + values[down], half + (best >> 1)
                values[p] = loop if loop > best else best
            else:
                values[p] = 1 + max(values[down], best)
        live = islice(values, 1, None)
        if randomized:
            live = map(rshift, live, map(top.__sub__, islice(powers, 1, None)))
        memo.update(zip(islice(states, 1, None), live))
        return values[-1]

    def _sweep_levels(self, key: tuple[int, int], memo: dict, build_rows) -> int:
        """RL_T * 2^T of a (state, T) key by the level sweep over
        ``build_rows(root, charge, T)``, a space's ``rows``: level t computes
        the states within T - t rounds of the root, a prefix of the states by
        distance, and writes them into ``memo``.  The rows are charged as
        they are built, then every key the sweep writes, before any is
        computed."""
        value = _empty_or_horizon(key)
        if value is not None:
            return value
        root, horizon = key
        states, dists, rows = build_rows(root, self._charge if self.state_budget is not None else None, horizon)
        keys = (
            (state, t)
            for state, dist in zip(islice(states, 1, None), islice(dists, 1, None))
            for t in range(1, horizon - dist + 1)
        )
        self._charge_new(memo, keys, held=len(rows))
        _readers(rows)
        values = [-1] + [0] * (len(states) - 1)
        for t in range(1, horizon + 1):
            values = _rl_level(islice(rows, bisect_right(dists, horizon - t, 1) - 1), values, t)
            memo.update(zip(zip(islice(states, 1, None), repeat(t)), islice(values, 1, None)))
        return values[1]

    # -- queries -------------------------------------------------------------

    def _value(self, table: tuple, key):
        """``key``'s entry in the memo of ``table``, else what its solve
        computes; a learner's queries mostly hit, so they skip the solve."""
        memo, solve = table
        value = memo.get(key)
        return solve(self, key) if value is None else value

    def littlestone(self, w: WeightedClass | ExpertClass | VersionSpace) -> int:
        """Optimal deterministic mistake bound; EMPTY (-1) for the empty class."""
        v = self.version_space(w)
        return self._value(v.tables["l"], v.state)

    def randomized_littlestone(self, w: WeightedClass | ExpertClass | VersionSpace) -> Fraction:
        """Optimal expected mistake bound; Fraction(-1) for the empty class."""
        v = self.version_space(w)
        return Fraction(self._value(v.tables["rl"], v.state), 1 << v.power)

    def bounded_littlestone(
        self, w: WeightedClass | ExpertClass | VersionSpace, horizon: int
    ) -> int:
        """min(horizon, L(W)): depth caps can only shorten balanced trees."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        return min(horizon, self.littlestone(w))

    def bounded_randomized_littlestone(
        self, w: WeightedClass | ExpertClass | VersionSpace, horizon: int
    ) -> Fraction:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        v = self.version_space(w)
        return Fraction(self._value(v.tables["brl"], (v.state, horizon)), 1 << horizon)

    def extract_optimal_tree(
        self, w: WeightedClass | ExpertClass, horizon: int
    ) -> tuple[MistakeTree, WeightFunction]:
        """An optimal depth-<=horizon adversary tree with its branch weights.

        The tree is shattered by the class, monotone, and satisfies
        E_T / 2 = RL(W, horizon) exactly; node labels are the first domain
        witness of the maximizing behavior (ties resolved in witness order).
        Structurally equal subtrees are one shared node.  The weights are
        the tree's quasi-balance weights, built in the same walk from the
        values it compares: one weight node per tree node, as
        :func:`~littlestone.trees.quasi_balance_weights` gives them.
        """
        w = w.explicit()  # tree nodes name domain points
        domain = w.domain.points
        interned: dict[tuple[str, int, int], tuple[MistakeTree, tuple]] = {}

        def join(witness: int, w0: tuple[int, int], zero: tuple, one: tuple) -> tuple:
            """The (tree node, weight node) pair, each built once per new key."""
            key = (domain[witness], id(zero[0]), id(one[0]))
            pair = interned.get(key)
            if pair is None:
                pair = interned[key] = (
                    node(domain[witness], zero[0], one[0]),
                    _weight_node(Fraction(*w0), zero[1], one[1]),
                )
            return pair

        tree, root = self._walk(w, horizon, lambda t: (LEAF, None), join)
        return tree, WeightFunction(PathWeights(root))

    def _extract_tree(self, w: WeightedClass | ExpertClass, horizon: int) -> MistakeTree:
        """The tree of :meth:`extract_optimal_tree`, its weights dropped."""
        return self.extract_optimal_tree(w, horizon)[0]

    def branch_length_law(
        self, w: WeightedClass | ExpertClass | VersionSpace, horizon: int
    ) -> tuple[int, ...]:
        """The exact law of the branch length of an optimal depth-<=horizon tree.

        Entry L of the result is P(length = L) * 2^horizon, an integer, for
        L = 0, ..., horizon; the entries sum to 2^horizon and their mean is
        E_T = 2 * RL(W, horizon).  The tree is the one :meth:`_walk` takes,
        so on an explicit class it is the tree :meth:`extract_optimal_tree`
        returns.  It is never built; only its law is folded, on count states
        or explicit frames.  A leaf at t is 2^t at length 0, and a node adds
        its children's laws, each at scale 2^(t - 1), one length up.
        """
        return self._walk(
            w, horizon, lambda t: (1 << t, *repeat(0, t)), lambda _, w0, zero, one: (0, *map(add, zero, one))
        )

    def _walk(self, w, horizon: int, leaf, join):
        """Fold an optimal depth-<=horizon tree of ``w`` without building it.

        Each (state, t) of value 0 is ``leaf(t)``.  Any other takes the first
        move attaining RL_T(state, t), in :meth:`_Frame.moves` witness order
        on a frame and the self-loop first on count states, and is
        ``join(witness, w0, zero, one)`` of its children's folds.  ``w0`` is
        the move's quasi-balance weight (1 + RL_(t-1)(W1) - RL_(t-1)(W0)) / 2
        as (numerator, denominator), the children's values being the ones
        the walk compared: (2^(t-1) + v1 - v0, 2^t) at their scale 2^(t-1).
        """
        v = self.version_space(w)
        if v.is_empty:
            raise ValueError("the empty class has no strategy tree")
        # Fill the RL_T memo through the public query, so that wrappers which
        # time or count the queries see this work too.  The sweep wrote at
        # each level t every state within horizon - t rounds, so every key
        # the walk reaches is a memo entry or a leaf.
        self.bounded_randomized_littlestone(v, horizon)
        memo, moves = v.tables["brl"][0], v.space.moves

        def value(key) -> int:
            hit = memo.get(key)
            return _empty_or_horizon(key) if hit is None else hit

        def body(key):
            state, t = key
            target = value(key)
            t -= 1
            half = 1 << t
            for witness, _, child0, child1 in moves(state):
                key0, key1 = (child0, t), (child1, t)
                v0, v1 = value(key0), value(key1)
                if half + v0 + v1 == target:
                    return join(witness, (half + v1 - v0, half << 1), (yield key0), (yield key1))
            raise AssertionError("no move attains the computed dimension")

        def fold_leaf(key):
            return leaf(key[1]) if value(key) == 0 else None

        # The RL_T run above paid for every state; the walk only reads them.
        return self._dp((v.state, horizon), {}, body, fold_leaf, charge=False)

    def horizon_for_slack(
        self, w: WeightedClass | ExpertClass | VersionSpace, slack: Fraction
    ) -> int:
        """Smallest horizon T with RL(W, T) >= RL(W) - slack.

        The level sweep of a bounded query without a horizon: every state
        reachable from W and, per state, the index lists of its pairs of
        children are built once (a self-loop as the pair of the state and its
        decremented state), by the same rows builder, and RL_t * 2^t of every
        state is computed for t = 1, 2, ... from level t - 1 over flat int
        lists.  The first t at which W's value reaches the target is
        returned, so no monotonicity in t is assumed.  Each level is written
        into the RL_T memo, where an extraction at T finds every value it
        reads.  RL(W), for the target, is the RL memo's entry if it has one;
        else :meth:`_rl_pass` reads it off the same rows and writes every
        state's RL into that memo.  The state budget is charged for the rows
        held, the RL entries written and each level as it is computed.
        """
        slack = Fraction(slack)
        if slack <= 0:
            raise ValueError("slack must be positive")
        v = self.version_space(w)
        if v.is_empty:  # RL(W, 0) = -1 = RL(W)
            return 0
        charge = self._charge if self.state_budget is not None else None
        rl_memo = v.tables["rl"][0]
        rl = rl_memo.get(v.state)
        rows = None
        if rl is None:
            states, _, rows = v.space.rows(v.state, charge)
            rl = self._rl_pass(v.space, states, rows, rl_memo)
        target = Fraction(rl, 1 << v.power) - slack
        if target <= 0:  # RL(W, 0) = 0 meets it
            return 0
        if rows is None:
            states, _, rows = v.space.rows(v.state, charge)
        _readers(rows)
        memo = v.tables["brl"][0]
        live = states[1:]
        num, den = target.numerator, target.denominator
        values = [-1] + [0] * len(rows)  # RL_0 * 2^0
        t = 0
        while values[1] * den < num << t:  # RL_t(W) < target
            if charge:
                charge(2 * len(rows))  # the rows held, and this level
            t += 1
            values = _rl_level(rows, values, t)
            memo.update(zip(zip(live, repeat(t)), islice(values, 1, None)))
        return t

    def _rl_pass(self, space, states: list[int], rows, memo: dict) -> int:
        """RL * 2^P of the root ``states[1]`` in one pass over its ``rows``
        (a space's ``rows`` without a horizon), as :meth:`_sweep` runs it on
        the lattice: states in ascending P, so a split's children come
        first, at the root's scale 2^top, the self-loop scored apart.  Every
        state is written into the RL ``memo`` at its own 2^P, the entries
        the DP or the sweep would write; they are charged, with the rows
        held, before any is computed."""
        self._charge_new(memo, islice(states, 1, None), held=len(rows))
        powers = list(map(space.power, states))
        top = powers[1]  # the root's P, the largest
        # As in _sweep: every child's value is even at this scale, and a
        # position not yet written holds a value below any pair's sum, so
        # the self-loop's pair, the state and its decremented state, never
        # attains the maximum.  It is last in a frame row, first in a count
        # row, and absent where no move is constant.
        full, half = 1 << top, 1 << top - 1
        values = [-(1 << 2 * top + 2)] * len(states)
        values[0] = -full
        get = values.__getitem__
        for j in sorted(range(1, len(states)), key=powers.__getitem__):
            i0, i1 = rows[j - 1]
            if not i0:  # no move
                values[j] = 0
                continue
            best = half + (max(map(add, map(get, i0), map(get, i1))) >> 1)
            if i0[0] == j:
                loop = full + values[i1[0]]
            elif i0[-1] == j:
                loop = full + values[i1[-1]]
            else:
                loop = best
            values[j] = loop if loop > best else best
        memo.update(
            zip(islice(states, 1, None), map(rshift, islice(values, 1, None), map(top.__sub__, islice(powers, 1, None))))
        )
        return values[1]


def result_document(value, states_visited: int) -> dict:
    """Serializable record of a dimension query: exact, decimal, and work."""
    return {
        "value": str(value),
        "decimal": float(value),
        "states_visited": states_visited,
    }
