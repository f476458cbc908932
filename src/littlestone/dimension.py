"""Exact Littlestone and randomized Littlestone dimensions: a lattice sweep on
count states, and an explicit-stack DP on explicit classes.

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
RL_T runs the level sweep below on rows built from the same positions.

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
A :class:`VersionSpace` is a class held as such a state (an expert class as
its budget vector): an example steps it by the same bitwise charge, with no
class built, and every query accepts it in place of a class.

Randomized values are dyadic, and the DP runs on their integer
numerators.  RL(W) * 2^P is an integer for P = sum over members of
(budget + 1); a move that charges s of the m members lowers P by exactly s,
so one step is 2^(P-1) + RL(W0)*2^(P-s) * 2^(s-1) + RL(W1)*2^(P-m+s) * 2^(m-s-1).
RL(W, T) * 2^T is an integer, so one bounded step is
2^(T-1) + RL(W0, T-1)*2^(T-1) + RL(W1, T-1)*2^(T-1).  The public methods
return the exact ``Fraction``; deterministic dimensions are ints.

On explicit frames one loop, :meth:`Solver._dp`, computes the value of
every query and the optimal tree: each one-step rule is a generator that
yields child keys and is sent their values, and the loop keeps the memo on
an explicit stack, not recursion.  The horizon search needs RL(W, t) for
t = 1, 2, ... in turn, so in either space it builds, once, the index lists
of each reachable state's pairs of children and sweeps RL_t * 2^t of all of
them upward, a level at a time, over flat int lists, writing each level
into the RL_T memo.  A bounded query on count states runs the same sweep,
computing at level t only the states within T - t rounds of the root.

One walk over the RL_T memo, :meth:`Solver._walk`, reads the optimal tree
off it through the same loop: each (state, t) key takes the first move
attaining its value (in witness order on a frame, the self-loop first on
count states) and folds its two children's results with a given join.
Tree extraction joins interned nodes; the branch-length law joins the
children's laws, integers at scale 2^t: P(length = L) * 2^t per L, a leaf
2^t at length 0 and a node its children's laws added one length up.  So
on an explicit class the law is that of the extracted tree.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import add, mul, rshift

from .classes import ExpertClass, WeightedClass, restrict
from .trees import LEAF, MistakeTree, WeightFunction, node, quasi_balance_weights

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
    layers (see :func:`_x_moves`).  A deeper class that grows ``repeat``
    empties the table, which then refills with masks covering the new layers.
    """

    def __init__(self, key):
        self.slots = {slot: bit for bit, (slot, _) in enumerate(_ranked(key))}
        self.width = len(self.slots)
        self.mask = (1 << self.width) - 1
        # One mask per domain point; ``moves`` keeps the first witness of
        # each column up to label swap, which no state can tell apart.
        self.columns = [
            sum(labels[x] << bit for (labels, _), bit in self.slots.items())
            for x in range(len(key[0][0]) if key else 0)
        ]
        seen: set[int] = set()
        self.moves = []
        for witness, column in enumerate(self.columns):
            if column not in seen:
                seen.update((column, self.mask ^ column))
                self.moves.append((witness, column))
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
        for witness, column in self.moves:
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


def _x_moves(frame: _Frame, state: int):
    """(first witness, s, child under 0, child under 1) per behavior up to
    label swap, in witness order; ``s`` members label it 1 and are charged
    under label 0.  Charging drops a member's top layer, so with
    ``low = state >> width`` the child under 0 takes ``low`` on the members
    labeling 1 and ``state`` elsewhere, and the child under 1 the reverse.
    A constant behavior thus gives the state itself and ``low``."""
    live = state & frame.mask
    moves = (frame.table.get(live) or frame.fill(live))[0]
    low = state >> frame.width
    diff = state ^ low
    for witness, s, spread in moves:
        charged = diff & spread
        yield witness, s, state ^ charged, low ^ charged


def _x_expand(frame: _Frame, state: int):
    """(m, P, decremented state if some behavior is constant else None,
    [(s, child under 0, child under 1)] per other behavior up to label swap),
    the behaviors as :func:`_x_moves` gives them."""
    live = state & frame.mask
    _, constant, splits = frame.table.get(live) or frame.fill(live)
    low = state >> frame.width
    diff = state ^ low
    return (
        live.bit_count(),
        state.bit_count(),
        low if constant else None,
        [(s, state ^ (charged := diff & spread), low ^ charged) for _, s, spread in splits],
    )


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


def _lattice(root: int) -> tuple[list[int], list[int], list[int]]:
    """Every count state the count state ``root`` reaches, ascending, with
    its P and its distance: the fewest rounds from ``root`` to it.

    With budgets sorted in descending order, a root a reaches exactly the
    states b with b_i <= a_i for each i <= len(b): its tail-dominated
    lattice.  The distance is the largest a_i - b_i over those i, and
    a_i + 1 over the root's experts past len(b).  The empty class is first.
    """
    levels = _levels(root)
    budgets = list(chain.from_iterable(map(repeat, reversed(range(len(levels))), reversed(levels))))
    budgets.append(-1)  # past the last expert: no unmatched one is left
    # Per state built so far: (state, the largest budget the next expert may
    # take, P, matched gap).
    frontier = [(0, budgets[0], 0, 0)]
    found = [(0, 0, budgets[0] + 1)]
    for a, unmatched in zip(budgets, islice(budgets, 1, None)):
        frontier = [
            (state + (1 << _W * b), b, power + b + 1, max(gap, a - b))
            for state, top, power, gap in frontier
            for b in range(min(top, a) + 1)
        ]
        found += [(state, power, max(gap, unmatched + 1)) for state, _, power, gap in frontier]
    found.sort()
    return tuple(map(list, zip(*found)))


def _pairs(states: list[int], needed: list[bool] | None = None):
    """(position p, level-0 count d0, n, P0, P1, position of the decremented
    state) per state of a lattice ``states``, in its ascending order; with
    ``needed``, a flag per position, only the runs up to their last needed
    state, and no run without one.

    A run is the states that differ on level 0 only: they sit at consecutive
    positions, level-0 count 0 first.  A ones vector O is its level-0 count
    o0 and the vector h above it.  In the run of the state ``high`` with
    level-0 count 0, the children under O are then at aa[h] + d0 - o0 and
    bb[h] + o0, where aa[h] and bb[h] are the positions of the children of
    ``high`` under h alone.
    So P0 lists aa[h] - o0 and P1 lists bb[h] + o0 in product order, o0
    slowest.  Its first n entries are the first half of the state's ones
    vectors, as :func:`_u_moves` takes them: O = 0, whose children are the
    state itself and the decremented state, and one O of each label-swap
    pair.  The lists are shared along a run and grow with d0, so read them
    before the next state.
    """
    where = dict(zip(states, range(len(states)))).__getitem__
    starts = [p for p, state in enumerate(states) if not state & _LOW]
    for b0, b1 in zip(starts, [*islice(starts, 1, None), len(states)]):
        if needed is not None:
            run = needed[b0:b1]
            if True not in run:
                continue
            b1 -= run[::-1].index(True)
        high = states[b0]
        low = high >> _W
        ds = _product(_occupied(high))
        aa = list(map(where, map(high.__sub__, ds)))
        bb = list(map(where, map(low.__add__, ds)))
        down = where(low)
        p0: list[int] = []
        p1: list[int] = []
        for d0 in range(b1 - b0):
            if not d0 & 1:  # o0 = d0 // 2 joins: the half needs no more
                p0 += map((-(d0 >> 1)).__add__, aa)
                p1 += map((d0 >> 1).__add__, bb)
            yield b0 + d0, d0, ((d0 + 1) * len(aa) + 1) // 2, p0, p1, down


def _lattice_rows(states: list[int], dists: list[int], horizon: int | None = None):
    """The level sweep's input over a lattice: its states by distance, the
    empty class first and the root second, and per state within
    ``horizon - 1`` rounds (every one if None), in that order, the position
    lists (i0, i1) of its pairs of children from :func:`_pairs`, the
    self-loop's pair of the state and its decremented state among them."""
    order = sorted(range(1, len(states)), key=dists.__getitem__)
    ranked = list(map(dists.__getitem__, order))
    if horizon is not None:
        order = order[: bisect_right(ranked, horizon)]
    rows: list = [None] * (len(order) if horizon is None else bisect_right(ranked, horizon - 1))
    where = [0] * len(states)  # 0, the empty class's, past ``order``: never read
    for i, p in enumerate(order, 1):
        where[p] = i
    get = where.__getitem__
    needed = None if horizon is None else [0 < i <= len(rows) for i in where]
    for p, d0, n, p0, p1, _ in _pairs(states, needed):
        if 0 < where[p] <= len(rows):
            rows[where[p] - 1] = (list(map(get, map(d0.__add__, islice(p0, n)))), list(map(get, islice(p1, n))))
    return [0, *map(states.__getitem__, order)], rows


def _count_rows(root: int, charge=None, lattice=None):
    """:func:`_lattice_rows` of every state ``root`` reaches, each held row
    charged to ``charge`` first if given; ``lattice`` is ``_lattice(root)``
    if already built."""
    states, _, dists = lattice or _lattice(root)
    if charge is not None:
        charge(len(states) - 1)
    return _lattice_rows(states, dists)


def _x_rows(frame: _Frame, root: int, charge=None):
    """The level sweep's input over the states ``root`` reaches in ``frame``:
    the states, index 0 the empty class and index 1 ``root``, and per state
    from index 1 on the index lists (i0, i1) of its moves' children, a
    self-loop as the pair of the state and its decremented state.  Each
    expansion is charged to ``charge``, if given, with the rows held."""
    states = [0, root]
    index = {0: 0, root: 1}
    rows: list[tuple[list[int], list[int]]] = []

    def indices(children) -> list[int]:
        out = []
        for child in children:
            i = index.setdefault(child, len(states))
            if i == len(states):
                states.append(child)
            out.append(i)
        return out

    for j, state in enumerate(islice(states, 1, None), 1):  # grows as states are found
        if charge is not None:
            charge(len(rows) + 1)
        _, _, dec, splits = _x_expand(frame, state)
        i0 = indices(child0 for _, child0, _ in splits)
        i1 = indices(child1 for _, _, child1 in splits)
        if dec is not None:  # the self-loop: the state itself, and decremented
            i0.append(j)
            i1 += indices((dec,))
        rows.append((i0, i1))
    return states, rows


def _rl_level(rows, values: list[int], t: int) -> list[int]:
    """RL_t * 2^t of the empty class, then of each row's state, from
    ``values``, RL_(t-1) * 2^(t-1) by position; a state without moves is 0."""
    get = values.__getitem__
    half = 1 << (t - 1)
    return [-(1 << t)] + [half + max(map(add, map(get, i0), map(get, i1))) if i0 else 0 for i0, i1 in rows]


class VersionSpace:
    """A class as a state of a :class:`Solver`'s state space, stepped by examples.

    An explicit class is its packed state in a frame: one example charges
    the members labeling against it as :func:`_x_moves` does, and a column
    mask stands in for the domain point.  An expert class is its budget
    vector, valued at its packed counts.  Values come from the tables the
    space was built over, so every step of a class reads the class's memo.
    Immutable.
    """

    __slots__ = ("tables", "state", "frame", "domain", "experts")

    def __init__(self, solver: "Solver", w: WeightedClass | ExpertClass):
        if isinstance(w, ExpertClass):
            self.tables, self.state, self.experts = solver._counts, _pack(w.counts()), w
            self.frame = self.domain = None
        else:
            self.frame, self.tables, self.state = solver._frame(w.state_key())
            self.domain, self.experts = w.domain, None

    def _child(self, state, experts: ExpertClass | None = None) -> "VersionSpace":
        child = object.__new__(VersionSpace)
        child.tables, child.state, child.frame = self.tables, state, self.frame
        child.domain, child.experts = self.domain, experts
        return child

    def _charge(self, x: str) -> tuple[int, int]:
        """(members charged under label 0 at each of their layers, the state
        one layer down); the children are ``state ^ charged`` and ``low ^ charged``."""
        frame, state = self.frame, self.state
        i = self.domain.index(x)
        low = state >> frame.width
        # The empty class may sit in a frame opened without columns.
        return (state ^ low) & frame.columns[i] * frame.repeat if state else 0, low

    def split(self, x: str) -> tuple["VersionSpace", "VersionSpace"]:
        """The version spaces after (x, 0) and after (x, 1)."""
        if self.frame is None:
            return self.step(x, 0), self.step(x, 1)
        charged, low = self._charge(x)
        return self._child(self.state ^ charged), self._child(low ^ charged)

    def step(self, x: str, y: int) -> "VersionSpace":
        """The version space after the example (x, y), as :func:`restrict`."""
        if self.frame is None:
            experts = restrict(self.experts, x, y)
            return self._child(_pack(experts.counts()), experts)
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        charged, low = self._charge(x)
        return self._child(low ^ charged if y else self.state ^ charged)

    @property
    def is_empty(self) -> bool:
        return not self.state

    @property
    def key(self):
        """Hashable, and equal only for equal version spaces of one Solver."""
        return self.experts if self.frame is None else (self.frame, self.state)

    @property
    def power(self) -> int:
        """P = sum over members of (budget + 1); RL * 2^P is an integer."""
        if self.frame is None:
            levels = _levels(self.state)
            return sum(map(mul, levels, range(1, len(levels) + 1)))
        return self.state.bit_count()

    def __deepcopy__(self, memo) -> "VersionSpace":
        # The tables belong to the Solver, which a copied learner shares.
        return self


def _u_moves(state: int):
    """As :func:`_x_moves` for a packed count state, witnesses None: the
    self-loop, then one split of each label-swap pair; ``s`` experts
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


def _space(v: VersionSpace) -> tuple:
    """The level sweep's rows and the moves of ``v``'s state space:
    :func:`_count_rows` and :func:`_u_moves` on count states,
    :func:`_x_rows` and :func:`_x_moves` on ``v``'s frame."""
    if v.frame is None:
        return _count_rows, _u_moves
    return partial(_x_rows, v.frame), partial(_x_moves, v.frame)


def _l_rule(expand, state):
    """L: 1 + min over the two children, maximized over moves."""
    _, _, dec, splits = expand(state)
    best = 0 if dec is None else 1 + (yield dec)
    for _, child0, child1 in splits:
        v = 1 + min((yield child0), (yield child1))
        if v > best:
            best = v
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


def _brl_rule(expand, key):
    """RL_T * 2^t of a (state, t) key: 2^(t-1) plus both children at t - 1.
    A self-loop needs no fixed point, since the horizon strictly decreases."""
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


def _empty(state) -> int | None:
    """Leaf of L and RL: the empty class."""
    return None if state else EMPTY


def _empty_or_horizon(key) -> int | None:
    """Leaves of RL_T * 2^t: the empty class, and the exhausted horizon."""
    state, t = key
    if not state:
        return -(1 << t)
    return 0 if t == 0 else None


def _tables(expand) -> dict:
    """One (memo, solve) table per value over one frame's states:
    ``solve(solver, key)`` runs :meth:`Solver._dp` on the value's rule."""
    tables = {}
    for value, rule, leaf in (
        ("l", _l_rule, _empty),
        ("rl", _rl_rule, _empty),
        ("brl", _brl_rule, _empty_or_horizon),
    ):
        memo: dict = {}
        tables[value] = (memo, partial(Solver._dp, memo=memo, body=partial(rule, expand), leaf=leaf))
    return tables


class ComputeBudgetError(RuntimeError):
    """A configured cap on visited dynamic-programming states was exceeded."""


class Solver:
    """Shared-memo dimension computations over weighted and expert classes.

    One (memo, solve) table per value and state space: the count space,
    whose values sweep the lattice a count state reaches, and each
    :class:`_Frame` of packed explicit states, whose values run the DP.  The
    RL memos hold RL * 2^P and the RL_T memos RL_T * 2^T as ints.  Every
    query takes a class or a :class:`VersionSpace` and reads its state's
    memo entry.
    """

    def __init__(self, state_budget: int | None = None):
        self.state_budget = state_budget
        l, rl, brl = {}, {}, {}
        self._counts = {
            "l": (l, partial(Solver._sweep, memo=l, randomized=False)),
            "rl": (rl, partial(Solver._sweep, memo=rl, randomized=True)),
            "brl": (brl, partial(Solver._sweep_levels, memo=brl)),
        }
        # Each frame with its tables; the tables' rules hold the frame, so
        # the frame must not hold them back, or a dropped Solver is a cycle.
        self._frames: list[tuple[_Frame, dict]] = []

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
        tables = _tables(partial(_x_expand, frame))
        self._frames.append((frame, tables))
        return frame, tables, frame.encode(key)

    def version_space(self, w: WeightedClass | ExpertClass | VersionSpace) -> VersionSpace:
        """``w`` as a state of this solver's state spaces; a VersionSpace as is."""
        return w if isinstance(w, VersionSpace) else VersionSpace(self, w)

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

    def _sweep(self, root: int, memo: dict, randomized: bool, lattice=None) -> int:
        """L, or RL * 2^P, of the count state ``root``, in one pass over the
        lattice it reaches in ascending order, so children come first.  Every
        state of the lattice is written into ``memo``, RL at its own 2^P.
        ``lattice`` is ``_lattice(root)`` if already built."""
        if not root:
            return EMPTY
        states, powers, _ = lattice or _lattice(root)
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
        for p, d0, n, p0, p1, down in _pairs(states):
            if p:
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

    def _sweep_levels(self, key: tuple[int, int], memo: dict) -> int:
        """RL_T * 2^T of a (count state, T) key by the level sweep: level t
        computes the states within T - t rounds of the root, the DP's keys
        exactly, and writes them into ``memo``."""
        value = _empty_or_horizon(key)
        if value is not None:
            return value
        root, horizon = key
        states, _, dists = _lattice(root)
        ranked = sorted(islice(dists, 1, None))
        # Per level t, the states within horizon - t rounds.
        sizes = [bisect_right(ranked, horizon - t) for t in range(horizon + 1)]
        keys = (
            (state, t)
            for state, dist in zip(islice(states, 1, None), islice(dists, 1, None))
            for t in range(1, horizon - dist + 1)
        )
        self._charge_new(memo, keys, held=sizes[1])  # and the rows
        live, rows = _lattice_rows(states, dists, horizon)
        values = [-1] + [0] * sizes[0]
        for t in range(1, horizon + 1):
            values = _rl_level(islice(rows, sizes[t]), values, t)
            memo.update(zip(zip(islice(live, 1, None), repeat(t)), islice(values, 1, None)))
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
        Structurally equal subtrees are one shared node.
        """
        tree = self._extract_tree(w, horizon)
        return tree, quasi_balance_weights(tree)

    def _extract_tree(self, w: WeightedClass | ExpertClass, horizon: int) -> MistakeTree:
        """The tree of :meth:`extract_optimal_tree`, without its weights."""
        if isinstance(w, ExpertClass):
            w = w.explicit()
        domain = w.domain.points
        interned: dict[tuple[str, int, int], MistakeTree] = {}

        def join(witness: int, zero: MistakeTree, one: MistakeTree) -> MistakeTree:
            tree = node(domain[witness], zero, one)
            return interned.setdefault((tree.instance, id(zero), id(one)), tree)

        return self._walk(w, horizon, lambda t: LEAF, join)

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
            w, horizon, lambda t: (1 << t, *repeat(0, t)), lambda _, zero, one: (0, *map(add, zero, one))
        )

    def _walk(self, w, horizon: int, leaf, join):
        """Fold an optimal depth-<=horizon tree of ``w`` without building it.

        Each (state, t) of value 0 is ``leaf(t)``.  Any other takes the first
        move attaining RL_T(state, t), in :func:`_x_moves` witness order on a
        frame and the self-loop first on count states, and is
        ``join(witness, zero, one)`` of its children's folds.
        """
        v = self.version_space(w)
        if v.is_empty:
            raise ValueError("the empty class has no strategy tree")
        # Fill the RL_T memo through the public query, so that wrappers which
        # time or count the queries see this work too.  Every key the walk
        # reaches, this run reached: its value is its memo entry or its leaf.
        self.bounded_randomized_littlestone(v, horizon)
        memo, moves = v.tables["brl"][0], _space(v)[1]

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
                if half + value(key0) + value(key1) == target:
                    return join(witness, (yield key0), (yield key1))
            raise AssertionError("no move attains the computed dimension")

        def fold_leaf(key):
            return leaf(key[1]) if value(key) == 0 else None

        # The RL_T run above paid for every state; the walk only reads them.
        return self._dp((v.state, horizon), {}, body, fold_leaf, charge=False)

    def horizon_for_slack(
        self, w: WeightedClass | ExpertClass | VersionSpace, slack: Fraction
    ) -> int:
        """Smallest horizon T with RL(W, T) >= RL(W) - slack.

        One upward sweep: the states reachable from W and, per state, the
        index lists of its pairs of children are built once (a self-loop as
        the pair of the state and its decremented state; from the lattice on
        count states, by expansion in a frame), and RL_t * 2^t of every state
        is computed for t = 1, 2, ... from level t - 1 over flat int lists.
        The first t at which W's value reaches the target is returned, so no
        monotonicity in t is assumed.  Each level is written into the RL_T
        memo, where an extraction at T finds every value it reads.  The state
        budget is charged for the rows held and each value stored.
        """
        slack = Fraction(slack)
        if slack <= 0:
            raise ValueError("slack must be positive")
        v = self.version_space(w)
        build_rows = _space(v)[0]
        rl, solve = v.tables["rl"]
        if v.frame is None and v.state and v.state not in rl:
            lattice = _lattice(v.state)  # one for the RL target's sweep and the rows
            solve(self, v.state, lattice=lattice)
            build_rows = partial(build_rows, lattice=lattice)
        target = self.randomized_littlestone(v) - slack
        if v.is_empty or target <= 0:  # RL(W, 0) is -1, resp. 0
            return 0
        charge = self._charge if self.state_budget is not None else None
        states, rows = build_rows(v.state, charge)
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


def result_document(value, states_visited: int) -> dict:
    """Serializable record of a dimension query: exact, decimal, and work."""
    return {
        "value": str(value),
        "decimal": float(value),
        "states_visited": states_visited,
    }
