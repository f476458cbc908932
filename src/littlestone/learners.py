"""Online learners: the optimal version-space family, follow-the-leader,
an adaptive aggregator, and the perceptron.

The version-space learners keep the subclass of hypotheses still compatible
with the observed examples (budgets included) and predict by comparing the
dimensions of the two candidate restrictions:

* the deterministic rule predicts the label whose restriction keeps the
  larger Littlestone dimension, so every mistake shrinks the dimension;
* the randomized rule predicts p = (1 + RL1 - RL0) / 2 when the two
  randomized dimensions are within 1 of each other, and saturates at 0 or 1
  otherwise, which equalizes the adversary's two options each round.

The version space is a :class:`~littlestone.dimension.VersionSpace`: a packed
state in the class's frame, or in the count space for an expert class.  A
round splits it into its two candidate children (a few bitwise operations on
a frame, one restriction of the budget vector on counts) and reads their
values from the solver's memo; no restricted explicit class is ever built.
The solver keeps one version space per class (and per class and budget for
the aggregator's sub-learners), so a learner on a class the solver has
seen starts from that shared, immutable root and encodes nothing.

Predictions are probabilities of answering 1, reported as exact rationals;
the per-round loss |y - p| is then the exact mistake probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable

from .classes import ExpertClass, WeightedClass, _check_advice
from .classes import restrict  # noqa: F401  # bench/tracing.py wraps learners.restrict
from .dimension import Solver, VersionSpace

if TYPE_CHECKING:
    import numpy as np


class EmptyVersionSpaceError(RuntimeError):
    """A prediction was requested after the version space emptied."""


class HorizonExhaustedError(RuntimeError):
    """A bounded-horizon learner was asked to predict past its horizon."""


class UnrealizableSequenceError(RuntimeError):
    """The observed sequence eliminated every candidate."""


class Learner:
    """Stateful predictor over rounds.  predict() is pure; update() mutates."""

    def predict(self, x: str) -> Fraction:
        raise NotImplementedError

    def update(self, x: str, y: int) -> None:
        raise NotImplementedError

    def clone(self) -> "Learner":
        raise NotImplementedError

    def state_key(self) -> Hashable | None:
        """Hashable key capturing all prediction-relevant state, or None."""
        return None


class ConstantLearner(Learner):
    """Baseline that always predicts the same probability."""

    def __init__(self, p):
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValueError("a prediction must lie in [0, 1]")
        self.p = p

    def predict(self, x: str) -> Fraction:
        return self.p

    def update(self, x: str, y: int) -> None:
        pass

    def clone(self) -> "ConstantLearner":
        return ConstantLearner(self.p)

    def state_key(self):
        return ("const", self.p)


def _balanced(rl0: Fraction, rl1: Fraction) -> Fraction:
    """The randomized rule: p = (1 + rl1 - rl0) / 2, saturated at 0 and 1.

    Worked on the numerators over the common denominator d, so that one
    Fraction is built instead of five.
    """
    d = math.lcm(rl0.denominator, rl1.denominator)
    a0 = rl0.numerator * (d // rl0.denominator)
    a1 = rl1.numerator * (d // rl1.denominator)
    if a0 + d < a1:
        return Fraction(1)
    if a1 + d < a0:
        return Fraction(0)
    return Fraction(d + a1 - a0, 2 * d)


class SOALearner(Learner):
    """Deterministic version-space learner; ties predict 0."""

    def __init__(
        self,
        version_space: WeightedClass | ExpertClass | VersionSpace,
        solver: Solver | None = None,
    ):
        self.solver = solver or Solver()
        self.version_space = self.solver.version_space(version_space)

    def predict(self, x: str) -> Fraction:
        if self.version_space.is_empty:
            raise EmptyVersionSpaceError("no hypothesis left to predict with")
        v0, v1 = self.version_space.split(x)
        d0 = self.solver.littlestone(v0)
        d1 = self.solver.littlestone(v1)
        return Fraction(1) if d1 > d0 else Fraction(0)

    def update(self, x: str, y: int) -> None:
        self.version_space = self.version_space.step(x, y)

    def clone(self) -> "SOALearner":
        return SOALearner(self.version_space, self.solver)

    def state_key(self):
        return ("soa", self.version_space.key)


class RandSOALearner(Learner):
    """Randomized version-space learner achieving the optimal expected loss."""

    def __init__(
        self,
        version_space: WeightedClass | ExpertClass | VersionSpace,
        solver: Solver | None = None,
    ):
        self.solver = solver or Solver()
        self.version_space = self.solver.version_space(version_space)

    def predict(self, x: str) -> Fraction:
        if self.version_space.is_empty:
            raise EmptyVersionSpaceError("no hypothesis left to predict with")
        v0, v1 = self.version_space.split(x)
        return _balanced(
            self.solver.randomized_littlestone(v0), self.solver.randomized_littlestone(v1)
        )

    def update(self, x: str, y: int) -> None:
        self.version_space = self.version_space.step(x, y)

    def clone(self) -> "RandSOALearner":
        return RandSOALearner(self.version_space, self.solver)

    def state_key(self):
        return ("randsoa", self.version_space.key)


class BoundedRandSOALearner(Learner):
    """Randomized version-space learner tuned to a known round budget."""

    def __init__(
        self,
        version_space: WeightedClass | ExpertClass | VersionSpace,
        horizon: int,
        solver: Solver | None = None,
    ):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.remaining = horizon
        self.solver = solver or Solver()
        self.version_space = self.solver.version_space(version_space)

    def predict(self, x: str) -> Fraction:
        if self.remaining < 1:
            raise HorizonExhaustedError("no rounds left")
        if self.version_space.is_empty:
            raise EmptyVersionSpaceError("no hypothesis left to predict with")
        t = self.remaining - 1
        v0, v1 = self.version_space.split(x)
        return _balanced(
            self.solver.bounded_randomized_littlestone(v0, t),
            self.solver.bounded_randomized_littlestone(v1, t),
        )

    def update(self, x: str, y: int) -> None:
        if self.remaining < 1:
            raise HorizonExhaustedError("no rounds left")
        self.version_space = self.version_space.step(x, y)
        self.remaining -= 1

    def clone(self) -> "BoundedRandSOALearner":
        return BoundedRandSOALearner(self.version_space, self.remaining, self.solver)

    def state_key(self):
        return ("brandsoa", self.version_space.key, self.remaining)


class FollowTheLeader(Learner):
    """Proper expert learner: a uniform mixture of the mistake-free experts.

    Instances are length-n advice strings.  The prediction equals the
    fraction of surviving experts advising 1, and an expert is dropped the
    first time its advice disagrees with the revealed label.
    """

    def __init__(self, n: int, survivors: frozenset[int] | None = None):
        if n < 1:
            raise ValueError("need at least one expert")
        self.n = n
        self.survivors = frozenset(range(n)) if survivors is None else survivors

    def predict(self, x: str) -> Fraction:
        if not self.survivors:
            raise UnrealizableSequenceError("every expert has erred")
        _check_advice(x, self.n)
        ones = sum(1 for i in self.survivors if x[i] == "1")
        return Fraction(ones, len(self.survivors))

    def update(self, x: str, y: int) -> None:
        _check_advice(x, self.n)
        self.survivors = frozenset(i for i in self.survivors if int(x[i]) == y)

    def expert_weights(self) -> list[Fraction]:
        """The committed mixture over experts (uniform on survivors)."""
        if not self.survivors:
            raise UnrealizableSequenceError("every expert has erred")
        w = Fraction(1, len(self.survivors))
        return [w if i in self.survivors else Fraction(0) for i in range(self.n)]

    def clone(self) -> "FollowTheLeader":
        return FollowTheLeader(self.n, self.survivors)

    def state_key(self):
        return ("ftl", self.survivors)


class AdaptiveAggregator(Learner):
    """Budget-adaptive learner: second-order weights over optimal sub-learners.

    Maintains one randomized version-space sub-learner per candidate mistake
    budget k, with prior pi_k = 1/((k+1)(k+2)), and predicts with an
    exponentially weighted mixture over (sub-learner, learning rate) pairs
    on a geometric rate grid; the weight of pair (k, eta) after some rounds
    is pi_k * exp(eta * R_k - eta^2 * V_k), where R_k is the aggregator's
    cumulative regret to sub-learner k and V_k the sum of squared per-round
    regrets.  The budget ceiling starts at 1 and doubles whenever the
    sequence defeats the largest tracked budget, with new sub-learners
    replayed over the stored history.
    """

    ETA_GRID = tuple(Fraction(1, 2**j) for j in range(1, 13))

    def __init__(self, base: WeightedClass | ExpertClass, solver: Solver | None = None):
        self.base = base
        self.solver = solver or Solver()
        self.history: list[tuple[str, int]] = []
        self.loss_history: list[float] = []
        self.ceiling = 1
        self._pool: dict[int, RandSOALearner | None] = {}
        self._regret: dict[int, float] = {}
        self._variance: dict[int, float] = {}
        for k in range(self.ceiling + 1):
            self._spawn(k)
        self._last: tuple[str, Fraction, dict[int, Fraction]] | None = None

    def _spawn(self, k: int) -> None:
        """Add the budget-k sub-learner, replaying it over the stored history
        so its regret statistics match what tracking it from round one would
        have produced."""
        learner = RandSOALearner(self.solver.budget_space(self.base, k), self.solver)
        regret = 0.0
        variance = 0.0
        alive = True
        for (x, y), agg_loss in zip(self.history, self.loss_history):
            if learner.version_space.is_empty:
                alive = False
                break
            r = agg_loss - abs(float(learner.predict(x)) - y)
            regret += r
            variance += r * r
            learner.update(x, y)
        if learner.version_space.is_empty:
            alive = False
        self._pool[k] = learner if alive else None
        self._regret[k] = regret
        self._variance[k] = variance

    @staticmethod
    def prior(k: int) -> Fraction:
        return Fraction(1, (k + 1) * (k + 2))

    def predict(self, x: str) -> Fraction:
        self._ensure_alive()
        preds: dict[int, Fraction] = {}
        for k, sub in self._pool.items():
            if sub is not None:
                preds[k] = sub.predict(x)
        exps = {
            k: [eta * self._regret[k] - eta**2 * self._variance[k] for eta in _ETAS]
            for k in preds
        }
        # Normalize by the largest exponent for stability; the common factor
        # cancels in the convex combination.
        top = max(map(max, exps.values()))
        num = 0.0
        den = 0.0
        for k, row in exps.items():
            # float(prior(k)) / len(ETA_GRID), and the same float of preds[k].
            scale = 1 / ((k + 1) * (k + 2)) / len(_ETAS)
            p_k = float(preds[k])
            for e in row:
                w = scale * math.exp(e - top)
                num += w * p_k
                den += w
        p = min(max(Fraction(num / den), Fraction(0)), Fraction(1))
        self._last = (x, p, preds)
        return p

    def update(self, x: str, y: int) -> None:
        if self._last is None or self._last[0] != x:
            self.predict(x)
        _, p, preds = self._last
        loss = abs(float(p) - y)
        for k, p_k in preds.items():
            r = loss - abs(float(p_k) - y)
            self._regret[k] += r
            self._variance[k] += r * r
        for k, sub in self._pool.items():
            if sub is None:
                continue
            sub.update(x, y)
            if sub.version_space.is_empty:
                self._pool[k] = None
        self.history.append((x, y))
        self.loss_history.append(loss)
        self._last = None
        self._ensure_alive()

    def _ensure_alive(self) -> None:
        while self._pool.get(self.ceiling) is None:
            if self.solver.budget_space(self.base, 0).is_empty:  # so is every budget's
                raise EmptyVersionSpaceError("no hypothesis left to predict with")
            new_ceiling = self.ceiling * 2
            for k in range(self.ceiling + 1, new_ceiling + 1):
                self._spawn(k)
            self.ceiling = new_ceiling

    def clone(self) -> "AdaptiveAggregator":
        """Copy the learner state; the copy shares this learner's Solver and
        its (immutable) base class, so the Solver's budget spaces serve both."""
        import copy

        return copy.deepcopy(self, {id(self.solver): self.solver, id(self.base): self.base})

    def state_key(self):
        return None


_ETAS = tuple(float(eta) for eta in AdaptiveAggregator.ETA_GRID)


@dataclass
class PerceptronInstance:
    """A labeled point stream with its planted margin and recomputed radius."""

    vectors: np.ndarray
    labels: np.ndarray
    margin_norm: float  # |w*| for a separator with margin 1 on all but k points
    radius: float = 0.0

    def __post_init__(self) -> None:
        # Only the perceptron needs numpy, so importing the package (every
        # CLI command, every game) does not load it.
        import numpy as np

        self.vectors = np.asarray(self.vectors, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.labels):
            raise ValueError("need one label per vector")
        if not set(np.unique(self.labels)) <= {-1, 1}:
            raise ValueError("labels must be +-1")
        if self.margin_norm <= 0:
            raise ValueError("margin norm must be positive")
        # The radius is never trusted from the caller.
        self.radius = float(np.linalg.norm(self.vectors, axis=1).max(initial=0.0))


@dataclass(frozen=True)
class PerceptronRun:
    mistakes: int
    weights: np.ndarray


def perceptron_run(data: PerceptronInstance) -> PerceptronRun:
    """Single pass of the mistake-driven perceptron from the zero vector."""
    import numpy as np

    w = np.zeros(data.vectors.shape[1] if data.vectors.size else 0)
    mistakes = 0
    for x, y in zip(data.vectors, data.labels):
        if np.sign(w @ x) != y:
            w = w + y * x
            mistakes += 1
    return PerceptronRun(mistakes, w)


def perceptron_bound(b: float, r: float, k: int) -> float:
    """Mistake bound B^2 R^2 + 2k (BR + 1) for k adversarially flipped labels."""
    if b <= 0 or r <= 0 or k < 0:
        raise ValueError("need B, R > 0 and k >= 0")
    return b * b * r * r + 2 * k * (b * r + 1)


def make_learner(
    selection: str,
    cls: WeightedClass | ExpertClass | None = None,
    solver: Solver | None = None,
    horizon: int | None = None,
    n_experts: int | None = None,
) -> Learner:
    """Build a learner from its command-line selection string."""
    if selection.startswith("constant:"):
        return ConstantLearner(Fraction(selection.split(":", 1)[1]))
    if selection == "ftl":
        if n_experts is None:
            raise ValueError("ftl needs the number of experts")
        return FollowTheLeader(n_experts)
    if cls is None:
        raise ValueError(f"learner {selection!r} needs a hypothesis class")
    if selection == "soa":
        return SOALearner(cls, solver)
    if selection == "randsoa":
        return RandSOALearner(cls, solver)
    if selection == "bounded-randsoa":
        if horizon is None:
            raise ValueError("bounded-randsoa needs a horizon")
        return BoundedRandSOALearner(cls, horizon, solver)
    if selection == "squint":
        return AdaptiveAggregator(cls, solver)
    raise ValueError(f"unknown learner {selection!r}")
