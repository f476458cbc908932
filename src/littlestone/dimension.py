"""Exact Littlestone and randomized Littlestone dimensions by memoized recursion.

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
without materializing a 2^n domain.

Randomized values are dyadic, and the recursion runs on their integer
numerators.  RL(W) * 2^P is an integer for P = sum over members of
(budget + 1); a move that charges s of the m members lowers P by exactly s,
so one step is 2^(P-1) + RL(W0)*2^(P-s) * 2^(s-1) + RL(W1)*2^(P-m+s) * 2^(m-s-1).
RL(W, T) * 2^T is an integer, so one bounded step is
2^(T-1) + RL(W0, T-1)*2^(T-1) + RL(W1, T-1)*2^(T-1).  The public methods
return the exact ``Fraction``; deterministic dimensions are ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from operator import add, getitem, sub

from .classes import ExpertClass, WeightedClass
from .trees import LEAF, MistakeTree, WeightFunction, node, quasi_balance_weights

EMPTY = -1

# Canonical explicit state: members as sorted ((labels...), budget) pairs.
# The labels tuples alone determine every behavior, so states are reusable
# across classes sharing a member matrix.
_XState = tuple[tuple[tuple[int, ...], int], ...]
_UState = tuple[int, ...]

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _x_power(state: _XState) -> int:
    return len(state) + sum(budget for _, budget in state)


def _x_fates(state: _XState) -> tuple[list, list]:
    """Per member, its fate under labels 0 and 1, indexed by its own label:
    itself when it agrees, else charged one unit (None once dropped)."""
    charged = [(labels, budget - 1) if budget else None for labels, budget in state]
    return list(zip(state, charged)), list(zip(charged, state))


def _x_apply(fates: list, pattern) -> _XState:
    # Members with equal labels share their fate, so the order stays sorted.
    return tuple(filter(None, map(getitem, fates, pattern)))


def _x_decrement(state: _XState) -> _XState:
    return tuple((labels, budget - 1) for labels, budget in state if budget)


def _x_expand(state: _XState):
    """(m, P, decremented state if some behavior is constant else None,
    [(s, child under 0, child under 1)] per other behavior up to label swap).

    ``s`` members label the behavior 1 and are charged under label 0.
    """
    m = len(state)
    zero, one = _x_fates(state)
    seen: set[bytes] = set()
    dec = None
    splits = []
    for col in map(bytes, zip(*(labels for labels, _ in state))):
        if col in seen:
            continue
        seen.add(col)
        seen.add(col.translate(_FLIP))
        s = sum(col)
        if s == 0 or s == m:
            dec = _x_decrement(state)
        else:
            splits.append((s, _x_apply(zero, col), _x_apply(one, col)))
    return m, _x_power(state), dec, splits


def _u_power(counts: _UState) -> int:
    return sum(level * c for level, c in enumerate(counts, 1))


def _trim(counts: list[int]) -> _UState:
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _u_splits(counts: _UState):
    """(s, child under 0, child under 1) for every non-constant split, one per
    label-swap pair; ``s`` experts predict 1 and are charged under label 0.

    In product order the label swap of split j sits at index size - 1 - j,
    so the first half, past the all-zero self-loop, holds one of each pair.
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
        yield sum(ones), _trim(child0), _trim(child1)


def _u_expand(counts: _UState):
    """As :func:`_x_expand`; the all-zero split is always a self-loop."""
    return sum(counts), _u_power(counts), _trim(list(counts[1:])), _u_splits(counts)


class ComputeBudgetError(RuntimeError):
    """A configured cap on visited dynamic-programming states was exceeded."""


class Solver:
    """Shared-memo dimension computations over weighted and expert classes.

    The ``_rl_*`` tables hold RL * 2^P and the ``_brl_*`` tables RL_T * 2^T
    as ints; the exact ``Fraction`` of each publicly queried key is cached
    separately and does not count as a visited state.
    """

    def __init__(self, state_budget: int | None = None):
        self.state_budget = state_budget
        self._l_x: dict[_XState, int] = {}
        self._rl_x: dict[_XState, int] = {}
        self._brl_x: dict[tuple[_XState, int], int] = {}
        self._l_u: dict[_UState, int] = {}
        self._rl_u: dict[_UState, int] = {}
        self._brl_u: dict[tuple[_UState, int], int] = {}
        # Count and explicit keys never collide: their entries are ints and
        # tuples respectively, and both empty keys () have value -1.
        self._rl_frac: dict = {}
        self._brl_frac: dict = {}

    @property
    def states_visited(self) -> int:
        return (
            len(self._l_x)
            + len(self._rl_x)
            + len(self._brl_x)
            + len(self._l_u)
            + len(self._rl_u)
            + len(self._brl_u)
        )

    def _charge(self) -> None:
        if self.state_budget is not None and self.states_visited > self.state_budget:
            raise ComputeBudgetError(
                f"state budget of {self.state_budget} exceeded"
            )

    # -- deterministic -----------------------------------------------------

    def littlestone(self, w: WeightedClass | ExpertClass) -> int:
        """Optimal deterministic mistake bound; EMPTY (-1) for the empty class."""
        if isinstance(w, ExpertClass):
            return self._l(w.counts(), self._l_u, _u_expand)
        return self._l(w.state_key(), self._l_x, _x_expand)

    def _l(self, state, memo: dict, expand) -> int:
        if not state:
            return EMPTY
        hit = memo.get(state)
        if hit is not None:
            return hit
        self._charge()
        _, _, dec, splits = expand(state)
        best = 0 if dec is None else 1 + self._l(dec, memo, expand)
        for _, child0, child1 in splits:
            v = 1 + min(self._l(child0, memo, expand), self._l(child1, memo, expand))
            if v > best:
                best = v
        memo[state] = best
        return best

    # -- randomized ----------------------------------------------------------

    def randomized_littlestone(self, w: WeightedClass | ExpertClass) -> Fraction:
        """Optimal expected mistake bound; Fraction(-1) for the empty class."""
        expert = isinstance(w, ExpertClass)
        key = w.counts() if expert else w.state_key()
        hit = self._rl_frac.get(key)
        if hit is None:
            if expert:
                scaled, power = self._rl(key, self._rl_u, _u_expand), _u_power(key)
            else:
                scaled, power = self._rl(key, self._rl_x, _x_expand), _x_power(key)
            hit = self._rl_frac[key] = Fraction(scaled, 1 << power)
        return hit

    def _rl(self, state, memo: dict, expand) -> int:
        """RL(state) * 2^P."""
        if not state:
            return EMPTY
        hit = memo.get(state)
        if hit is not None:
            return hit
        self._charge()
        m, power, dec, splits = expand(state)
        best = 0 if dec is None else (1 << power) + (self._rl(dec, memo, expand) << m)
        half = 1 << (power - 1)
        for s, child0, child1 in splits:
            v = (
                half
                + (self._rl(child0, memo, expand) << (s - 1))
                + (self._rl(child1, memo, expand) << (m - s - 1))
            )
            if v > best:
                best = v
        memo[state] = best
        return best

    # -- bounded horizon -----------------------------------------------------

    def bounded_littlestone(self, w: WeightedClass | ExpertClass, horizon: int) -> int:
        """min(horizon, L(W)): depth caps can only shorten balanced trees."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        dim = self.littlestone(w)
        if dim == EMPTY:
            return EMPTY
        return min(horizon, dim)

    def bounded_randomized_littlestone(
        self, w: WeightedClass | ExpertClass, horizon: int
    ) -> Fraction:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        expert = isinstance(w, ExpertClass)
        key = (w.counts() if expert else w.state_key(), horizon)
        hit = self._brl_frac.get(key)
        if hit is None:
            memo, expand = (self._brl_u, _u_expand) if expert else (self._brl_x, _x_expand)
            hit = self._brl_frac[key] = Fraction(self._brl(*key, memo, expand), 1 << horizon)
        return hit

    def _brl(self, state, t: int, memo: dict, expand) -> int:
        """RL(state, t) * 2^t."""
        if not state:
            return -(1 << t)
        if t == 0:
            return 0
        key = (state, t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        self._charge()
        half = 1 << (t - 1)
        _, _, dec, splits = expand(state)
        best = 0
        if dec is not None:
            # Self-loop along the agreeing label; no fixed point needed
            # since the horizon strictly decreases.
            best = half + self._brl(state, t - 1, memo, expand) + self._brl(
                dec, t - 1, memo, expand
            )
        for _, child0, child1 in splits:
            v = half + self._brl(child0, t - 1, memo, expand) + self._brl(
                child1, t - 1, memo, expand
            )
            if v > best:
                best = v
        memo[key] = best
        return best

    # -- strategy extraction ---------------------------------------------------

    def extract_optimal_tree(
        self, w: WeightedClass | ExpertClass, horizon: int
    ) -> tuple[MistakeTree, WeightFunction]:
        """An optimal depth-<=horizon adversary tree with its branch weights.

        The tree is shattered by the class, monotone, and satisfies
        E_T / 2 = RL(W, horizon) exactly; node labels are the first domain
        witness of the maximizing behavior (ties resolved in witness order).
        Identical subtrees are shared structurally.
        """
        if isinstance(w, ExpertClass):
            w = w.explicit()
        if w.is_empty:
            raise ValueError("cannot extract a strategy for the empty class")
        domain = w.domain.points
        cache: dict[tuple[_XState, int], MistakeTree] = {}

        def ordered_behaviors(state: _XState) -> list[tuple[tuple[int, ...], int]]:
            seen: dict[tuple[int, ...], int] = {}
            for p, col in enumerate(zip(*(labels for labels, _ in state))):
                seen.setdefault(col, p)
            return list(seen.items())

        def brl(state: _XState, t: int) -> int:
            return self._brl(state, t, self._brl_x, _x_expand)

        def build(state: _XState, t: int) -> MistakeTree:
            # Values are compared as integers at scale 2^t.
            value = brl(state, t)
            if value == 0:
                return LEAF
            key = (state, t)
            hit = cache.get(key)
            if hit is not None:
                return hit
            half = 1 << (t - 1)
            zero, one = _x_fates(state)
            for pattern, witness in ordered_behaviors(state):
                if len(set(pattern)) == 1:
                    b = pattern[0]
                    children = (
                        (state if b == 0 else _x_decrement(state)),
                        (_x_decrement(state) if b == 0 else state),
                    )
                else:
                    children = (_x_apply(zero, pattern), _x_apply(one, pattern))
                if half + brl(children[0], t - 1) + brl(children[1], t - 1) == value:
                    out = node(
                        domain[witness],
                        build(children[0], t - 1),
                        build(children[1], t - 1),
                    )
                    cache[key] = out
                    return out
            raise AssertionError("no behavior attains the computed dimension")

        tree = build(w.state_key(), horizon)
        return tree, quasi_balance_weights(tree)

    def horizon_for_slack(self, w: WeightedClass | ExpertClass, slack: Fraction) -> int:
        """Smallest horizon T with RL(W, T) >= RL(W) - slack.

        Doubles T until the target is met, then bisects; valid because the
        bounded dimension is non-decreasing in the horizon.
        """
        slack = Fraction(slack)
        if slack <= 0:
            raise ValueError("slack must be positive")
        target = self.randomized_littlestone(w) - slack
        if self.bounded_randomized_littlestone(w, 0) >= target:
            return 0
        hi = 1
        while self.bounded_randomized_littlestone(w, hi) < target:
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.bounded_randomized_littlestone(w, mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi


def result_document(value, states_visited: int) -> dict:
    """Serializable record of a dimension query: exact, decimal, and work."""
    return {
        "value": str(value),
        "decimal": float(value),
        "states_visited": states_visited,
    }


# The free functions below share one module-level Solver.  Its memo is never
# cleared, so it lives (and grows) as long as the process; use a Solver of
# your own to scope the memo to a computation.
_shared = Solver()


def littlestone(w: WeightedClass | ExpertClass) -> int:
    """L(W) from the process-wide shared memo."""
    return _shared.littlestone(w)


def randomized_littlestone(w: WeightedClass | ExpertClass) -> Fraction:
    """RL(W) from the process-wide shared memo."""
    return _shared.randomized_littlestone(w)


def bounded_littlestone(w: WeightedClass | ExpertClass, horizon: int) -> int:
    """L(W, horizon) from the process-wide shared memo."""
    return _shared.bounded_littlestone(w, horizon)


def bounded_randomized_littlestone(
    w: WeightedClass | ExpertClass, horizon: int
) -> Fraction:
    """RL(W, horizon) from the process-wide shared memo."""
    return _shared.bounded_randomized_littlestone(w, horizon)


def extract_optimal_tree(
    w: WeightedClass | ExpertClass, horizon: int
) -> tuple[MistakeTree, WeightFunction]:
    """Optimal adversary tree, valued through the process-wide shared memo."""
    return _shared.extract_optimal_tree(w, horizon)


def horizon_for_slack(w: WeightedClass | ExpertClass, slack) -> int:
    """Horizon search through the process-wide shared memo."""
    return _shared.horizon_for_slack(w, slack)
