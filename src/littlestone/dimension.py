"""Exact Littlestone and randomized Littlestone dimensions by an explicit-stack DP.

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

One loop, :meth:`Solver._dp`, computes the value of every query and the
optimal tree: each one-step rule is a generator that yields child keys and
is sent their values, and the loop keeps the memo on an explicit stack,
not recursion.  The horizon search is the one exception: it needs RL(W, t)
for t = 1, 2, ... in turn, so it expands the states reachable from W once
and sweeps RL_t * 2^t of all of them upward, a level at a time, over flat
int lists, writing each level into the RL_T memo that :meth:`Solver._dp`
reads.

The branch-length law of an optimal tree is folded through the same loop,
with no tree built.  Over the (state, t) keys the RL_T memo holds, each key
takes the first move attaining its value (the self-loop first, then the
splits in expansion order) and gets the law of its subtree as integers at
scale 2^t: P(length = L) * 2^t per L.  A leaf is 2^t at length 0, and a
node is its two children's laws added and shifted one length up, which is
again at scale 2^t because each child holds its law at scale 2^(t - 1).
Moves come from the same expansion the horizon search uses, so the walk
runs on count states and explicit frames alike.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import add, mul

from .classes import ExpertClass, WeightedClass, restrict
from .trees import LEAF, MistakeTree, WeightFunction, node, quasi_balance_weights

EMPTY = -1

# Bits per budget level of a packed count state.
_W = 32


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


def _u_expand(state: int):
    """As :func:`_x_expand` for a packed count state; the all-zero split is
    always a self-loop, and ``s`` experts predict 1 and are charged under 0.

    Splits are ones vectors O in product order over the occupied levels,
    the lowest level slowest; the label swap of split j then sits at index
    size - 1 - j, so the first half, past the all-zero one, holds one of
    each pair.  With D = O - (O >> _W), the children of the counts C are
    C - D and (C >> _W) + D.
    """
    levels = _levels(state)
    low = state >> _W
    # Per split in product order: s, and D built from each level's share.
    ss = [0]
    ds = [0]
    m = power = 0
    for level, c in compress(enumerate(levels), levels):
        m += c
        power += (level + 1) * c
        share = (1 << level * _W) - (1 << (level - 1) * _W) if level else 1
        counts = range(c + 1)
        ss = [s + o for s in ss for o in counts]
        ds = [d + o * share for d in ds for o in counts]
    half = (len(ss) + 1) // 2
    splits = [(s, state - d, low + d) for s, d in zip(islice(ss, 1, half), islice(ds, 1, half))]
    return m, power, low, splits


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


def _expand(v: VersionSpace):
    """The move expansion of ``v``'s state space: :func:`_u_expand` on count
    states, :func:`_x_expand` on ``v``'s frame."""
    return _u_expand if v.frame is None else partial(_x_expand, v.frame)


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


def _reached_value(values: dict, key) -> int:
    """RL_T * 2^t of a (state, t) key that an RL_T run reached: its entry in
    that run's memo ``values``, or else its leaf value."""
    hit = values.get(key)
    return _empty_or_horizon(key) if hit is None else hit


def _tables(expand) -> dict:
    """One (memo, rule, leaf) table per value over one state space."""
    return {
        value: ({}, partial(rule, expand), leaf)
        for value, rule, leaf in (
            ("l", _l_rule, _empty),
            ("rl", _rl_rule, _empty),
            ("brl", _brl_rule, _empty_or_horizon),
        )
    }


class ComputeBudgetError(RuntimeError):
    """A configured cap on visited dynamic-programming states was exceeded."""


class Solver:
    """Shared-memo dimension computations over weighted and expert classes.

    One (memo, rule, leaf) table per value and state space: the count space,
    and each :class:`_Frame` of packed explicit states.  The RL memos hold
    RL * 2^P and the RL_T memos RL_T * 2^T as ints.  Every query takes a
    class or a :class:`VersionSpace` and reads its state's memo entry.
    """

    def __init__(self, state_budget: int | None = None):
        self.state_budget = state_budget
        self._counts = _tables(_u_expand)
        # Each frame with its tables; the tables' rules hold the frame, so
        # the frame must not hold them back, or a dropped Solver is a cycle.
        self._frames: list[tuple[_Frame, dict]] = []

    @property
    def states_visited(self) -> int:
        tables = [self._counts, *(tables for _, tables in self._frames)]
        return sum(len(memo) for table in tables for memo, _, _ in table.values())

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

    # -- queries -------------------------------------------------------------

    def littlestone(self, w: WeightedClass | ExpertClass | VersionSpace) -> int:
        """Optimal deterministic mistake bound; EMPTY (-1) for the empty class."""
        v = self.version_space(w)
        return self._dp(v.state, *v.tables["l"])

    def randomized_littlestone(self, w: WeightedClass | ExpertClass | VersionSpace) -> Fraction:
        """Optimal expected mistake bound; Fraction(-1) for the empty class."""
        v = self.version_space(w)
        return Fraction(self._dp(v.state, *v.tables["rl"]), 1 << v.power)

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
        return Fraction(self._dp((v.state, horizon), *v.tables["brl"]), 1 << horizon)

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
        if w.is_empty:
            raise ValueError("cannot extract a strategy for the empty class")
        domain = w.domain.points
        v = self.version_space(w)
        frame = v.frame
        # Fill the RL_T memo through the public query, so that wrappers which
        # time or count the queries see this work too.
        self.bounded_randomized_littlestone(v, horizon)
        # Every key extraction reaches was reached by the RL_T run above.
        value = partial(_reached_value, v.tables["brl"][0])

        interned: dict[tuple[str, int, int], MistakeTree] = {}

        def body(key):
            state, t = key
            target = value(key)
            t -= 1
            half = 1 << t
            for witness, _, child0, child1 in _x_moves(frame, state):
                key0, key1 = (child0, t), (child1, t)
                if half + value(key0) + value(key1) == target:
                    zero, one = (yield key0), (yield key1)
                    tree = node(domain[witness], zero, one)
                    return interned.setdefault((tree.instance, id(zero), id(one)), tree)
            raise AssertionError("no behavior attains the computed dimension")

        def leaf(key) -> MistakeTree | None:
            return LEAF if value(key) == 0 else None

        # The RL_T run above paid for every state; extraction only reads them.
        return self._dp((v.state, horizon), {}, body, leaf, charge=False)

    def branch_length_law(
        self, w: WeightedClass | ExpertClass | VersionSpace, horizon: int
    ) -> tuple[int, ...]:
        """The exact law of the branch length of an optimal depth-<=horizon tree.

        Entry L of the result is P(length = L) * 2^horizon, an integer, for
        L = 0, ..., horizon; the entries sum to 2^horizon and their mean is
        E_T = 2 * RL(W, horizon).  The tree is the one whose node at each
        (state, t) takes the first move attaining RL_T(state, t): the
        self-loop first, then the splits in expansion order.  It is never
        built; only its law is folded, on count states or explicit frames.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        v = self.version_space(w)
        if v.is_empty:
            raise ValueError("the empty class has no strategy tree")
        expand = _expand(v)
        # As in _extract_tree: the RL_T run fills every value the walk reads.
        self.bounded_randomized_littlestone(v, horizon)
        value = partial(_reached_value, v.tables["brl"][0])

        def body(key):
            state, t = key
            target = value(key)
            _, _, dec, splits = expand(state)
            t -= 1
            half = 1 << t
            moves = splits if dec is None else chain(((0, state, dec),), splits)
            for _, child0, child1 in moves:
                key0, key1 = (child0, t), (child1, t)
                if half + value(key0) + value(key1) == target:
                    # Each child at scale 2^t, so their sum is at 2^(t + 1),
                    # one step longer.
                    return (0, *map(add, (yield key0), (yield key1)))
            raise AssertionError("no move attains the computed dimension")

        def leaf(key) -> tuple[int, ...] | None:
            t = key[1]
            return (1 << t, *repeat(0, t)) if value(key) == 0 else None

        # The RL_T run above paid for every state; the walk only reads them.
        return self._dp((v.state, horizon), {}, body, leaf, charge=False)

    def horizon_for_slack(
        self, w: WeightedClass | ExpertClass | VersionSpace, slack: Fraction
    ) -> int:
        """Smallest horizon T with RL(W, T) >= RL(W) - slack.

        One upward sweep: the states reachable from W are expanded once each
        into index lists of their children (a self-loop as the pair of the
        state and its decremented state), and RL_t * 2^t of every state is
        computed for t = 1, 2, ... from level t - 1 over flat int lists.  The
        first t at which W's value reaches the target is returned, so no
        monotonicity in t is assumed.  Each level is written into the RL_T
        memo, where an extraction at T finds every value it reads.  The state
        budget is charged for the expansions held and each value stored.
        """
        slack = Fraction(slack)
        if slack <= 0:
            raise ValueError("slack must be positive")
        v = self.version_space(w)
        target = self.randomized_littlestone(v) - slack
        if v.is_empty or target <= 0:  # RL(W, 0) is -1, resp. 0
            return 0
        expand = _expand(v)
        charge = self.state_budget is not None
        # Index 0 is the empty class and index 1 is W; ``rows`` holds, per
        # state from index 1 on, the index lists (i0, i1) of its moves' children.
        states = [0, v.state]
        index = {0: 0, v.state: 1}
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
            if charge:
                self._charge(len(rows) + 1)
            _, _, dec, splits = expand(state)
            i0 = indices(child0 for _, child0, _ in splits)
            i1 = indices(child1 for _, _, child1 in splits)
            if dec is not None:  # the self-loop: the state itself, and decremented
                i0.append(j)
                i1 += indices((dec,))
            rows.append((i0, i1))

        memo = v.tables["brl"][0]
        live = states[1:]
        num, den = target.numerator, target.denominator
        values = [-1] + [0] * len(rows)  # RL_0 * 2^0
        t = 0
        while values[1] * den < num << t:  # RL_t(W) < target
            if charge:
                self._charge(2 * len(rows))  # the expansions held, and this level
            get = values.__getitem__
            t += 1
            half = 1 << (t - 1)
            values = [-(1 << t)] + [
                half + max(map(add, map(get, i0), map(get, i1))) if i0 else 0
                for i0, i1 in rows
            ]
            memo.update(zip(zip(live, repeat(t)), islice(values, 1, None)))
        return t


def result_document(value, states_visited: int) -> dict:
    """Serializable record of a dimension query: exact, decimal, and work."""
    return {
        "value": str(value),
        "decimal": float(value),
        "states_visited": states_visited,
    }
