"""The online prediction game and the adversaries that make it tight.

Protocol per round: the adversary presents an instance, the learner commits
a prediction p in [0,1], the adversary reveals the label y, and the learner
suffers |y - p|.  Adversaries here walk mistake trees: flipping a fair coin
at every node forces expected loss E_T/2 on any learner, while thresholding
the learner's prediction against the quasi-balanced edge weights forces at
least E_T/2 deterministically.  The proper-game adversary implements the
harmonic-number lower bound against learners that commit a mixture of
experts before seeing their advice.

Every transcript records exact rational losses and a realizability
certificate against the adversary's declared class.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .classes import (
    ExampleSequence,
    ExpertClass,
    RealizabilityResult,
    WeightedClass,
    expert_class,
    min_mistakes,
)
from .classes import restrict  # noqa: F401  # bench/tracing.py wraps games.restrict
from .dimension import ComputeBudgetError, Solver, VersionSpace
from .learners import Learner
from .trees import MistakeTree, WeightFunction, shatter_check


class GameProtocolError(RuntimeError):
    """The learner emitted an invalid prediction; carries the round index."""

    def __init__(self, round_index: int, message: str):
        super().__init__(f"round {round_index}: {message}")
        self.round_index = round_index


class AdversaryPreconditionError(ValueError):
    """An adversary was built from inputs violating its guarantees."""


@dataclass(frozen=True)
class Round:
    instance: str
    p: Fraction
    y: int
    loss: Fraction


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[Round, ...]
    total: Fraction
    certificate: RealizabilityResult | None

    def sequence(self) -> ExampleSequence:
        return [(r.instance, r.y) for r in self.rounds]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "round": i + 1,
                    "instance": r.instance,
                    "p": str(r.p),
                    "y": r.y,
                    "loss": str(r.loss),
                }
            )
            for i, r in enumerate(self.rounds)
        ]
        summary: dict = {"total": str(self.total), "rounds": len(self.rounds)}
        if self.certificate is not None:
            summary["realizable"] = self.certificate.realizable
            summary["best_member"] = self.certificate.best_member
            summary["best_member_mistakes"] = self.certificate.mistakes
        lines.append(json.dumps({"summary": summary}))
        return "\n".join(lines)


class Adversary:
    """Instance source plus labeling rule; may declare the class it realizes."""

    declared_class: WeightedClass | ExpertClass | None = None
    requires_expert_weights = False

    def reset(self, rng: random.Random) -> None:
        pass

    def next_instance(self, learner: Learner) -> str | None:
        raise NotImplementedError

    def answer(self, p: Fraction) -> int:
        raise NotImplementedError


class RandomBranchAdversary(Adversary):
    """Walks a mistake tree, labeling each round with a fair coin flip.

    Against any learner the expected total loss is exactly E_T/2, since a
    uniform label costs 1/2 per round no matter the prediction.
    """

    def __init__(
        self,
        tree: MistakeTree,
        declared_class: WeightedClass | ExpertClass | None = None,
        check: bool = True,
    ):
        if declared_class is not None and check:
            report = shatter_check(tree, declared_class)
            if not report.ok:
                raise AdversaryPreconditionError(
                    f"tree is not shattered by the declared class; "
                    f"{len(report.failing_branches)} branch(es) fail"
                )
        self.tree = tree
        self.declared_class = declared_class
        self._node = tree
        self._rng = random.Random(0)

    def reset(self, rng: random.Random) -> None:
        self._node = self.tree
        self._rng = rng

    def next_instance(self, learner: Learner) -> str | None:
        if self._node.is_leaf:
            return None
        return self._node.instance

    def answer(self, p: Fraction) -> int:
        y = self._rng.getrandbits(1)
        self._node = self._node.one if y else self._node.zero
        return y


class ThresholdAdversary(Adversary):
    """Walks a weighted tree, answering against the learner's prediction.

    At a node with 0-edge weight w0: answers 0 when p >= w0, else 1.  The
    per-round loss is then at least the weight of the taken edge, so the
    total is at least the branch weight E_T/2 under quasi-balanced weights.
    """

    def __init__(
        self,
        tree: MistakeTree,
        weights: WeightFunction,
        declared_class: WeightedClass | ExpertClass | None = None,
        check: bool = True,
    ):
        if declared_class is not None and check:
            report = shatter_check(tree, declared_class)
            if not report.ok:
                raise AdversaryPreconditionError("tree is not shattered by the declared class")
        self.tree = tree
        self.weights = weights
        self.declared_class = declared_class
        self.reset(random.Random(0))

    def reset(self, rng: random.Random) -> None:
        # The walk steps through the tree and its weight nodes side by side.
        self._node = self.tree
        self._weight_node = self.weights.root
        self._labels: list[str] = []

    def next_instance(self, learner: Learner) -> str | None:
        if self._node.is_leaf:
            return None
        return self._node.instance

    def answer(self, p: Fraction) -> int:
        n = self._weight_node
        if n is None or n[0] is None:
            position = "".join(self._labels)
            raise AdversaryPreconditionError(f"weight function has no entry for node {position!r}")
        if p >= n[0]:
            self._node, self._weight_node, y = self._node.zero, n[1], 0
        else:
            self._node, self._weight_node, y = self._node.one, n[2], 1
        self._labels.append("01"[y])
        return y


def random_branch_adversary(
    tree: MistakeTree,
    declared_class: WeightedClass | ExpertClass | None = None,
    check: bool = True,
) -> RandomBranchAdversary:
    return RandomBranchAdversary(tree, declared_class, check)


def threshold_adversary(
    tree: MistakeTree,
    weights: WeightFunction,
    declared_class: WeightedClass | ExpertClass | None = None,
    check: bool = True,
) -> ThresholdAdversary:
    return ThresholdAdversary(tree, weights, declared_class, check)


def online_optimal_adversary(
    w: WeightedClass | ExpertClass,
    slack,
    solver: Solver | None = None,
    check: bool = False,
) -> ThresholdAdversary:
    """Threshold adversary on the optimal bounded tree for the class.

    Guarantees total loss >= RL(W) - slack against every learner: the tree
    is extracted at the smallest horizon whose bounded dimension is within
    slack of RL(W), and its quasi-balanced weights steer the walk.
    """
    solver = solver or Solver()
    slack = Fraction(slack)
    horizon = solver.horizon_for_slack(w, slack)
    tree, weights = solver.extract_optimal_tree(w, horizon)
    return ThresholdAdversary(tree, weights, declared_class=w, check=check)


class ProperAdversary(Adversary):
    """Forces total loss >= H_n - 1 on any learner committing expert mixtures.

    Each round the label is 0 while every previously-wrong expert and one
    currently-heaviest surviving expert advise 1; exactly one survivor is
    eliminated per round, and after n-1 rounds one spotless expert remains.
    """

    requires_expert_weights = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one expert")
        self.n = n
        self.declared_class = expert_class(n, 0)
        self._bad: set[int] = set()
        self._rounds = 0
        self._advice: str | None = None

    def reset(self, rng: random.Random) -> None:
        self._bad = set()
        self._rounds = 0
        self._advice = None

    def next_instance(self, learner: Learner) -> str | None:
        if self._rounds >= self.n - 1:
            return None
        weights = learner.expert_weights()
        if len(weights) != self.n:
            raise AdversaryPreconditionError(
                f"learner mixes {len(weights)} experts, game has {self.n}"
            )
        survivors = [i for i in range(self.n) if i not in self._bad]
        target = max(survivors, key=lambda i: (weights[i], -i))
        advice = [
            "1" if (i in self._bad or i == target) else "0" for i in range(self.n)
        ]
        self._advice = "".join(advice)
        return self._advice

    def answer(self, p: Fraction) -> int:
        self._bad.update(i for i, a in enumerate(self._advice) if a == "1")
        self._rounds += 1
        self._advice = None
        return 0


def proper_adversary(n: int) -> ProperAdversary:
    return ProperAdversary(n)


def play(
    learner: Learner,
    adversary: Adversary,
    max_rounds: int | None = None,
    seed: int = 0,
) -> Transcript:
    """Run the game to completion (or the round cap) and certify the result."""
    if adversary.requires_expert_weights and not hasattr(learner, "expert_weights"):
        raise AdversaryPreconditionError(
            "this adversary plays the proper game; the learner must expose "
            "expert_weights()"
        )
    rng = random.Random(seed)
    adversary.reset(rng)
    rounds: list[Round] = []
    total = Fraction(0)
    i = 0
    while max_rounds is None or i < max_rounds:
        x = adversary.next_instance(learner)
        if x is None:
            break
        i += 1
        p = learner.predict(x)
        if not isinstance(p, Fraction):
            p = Fraction(p)
        if p < 0 or p > 1:
            raise GameProtocolError(i, f"prediction {p} outside [0, 1]")
        y = adversary.answer(p)
        loss = abs(y - p)
        total += loss
        learner.update(x, y)
        rounds.append(Round(x, p, y, loss))
    certificate = None
    if adversary.declared_class is not None:
        certificate = min_mistakes([(r.instance, r.y) for r in rounds], adversary.declared_class)
    return Transcript(tuple(rounds), total, certificate)


def _run(call):
    """Run a recursive generator on an explicit stack: a ``yield`` of a child
    call suspends the caller until the child returns, then sends its value."""
    stack, value = [call], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


def exact_expected_loss(learner: Learner, tree: MistakeTree) -> Fraction:
    """Expected total loss against the fair-coin walk on the tree, exactly.

    Re-simulates the learner along every branch prefix; equals E_T/2 for
    every learner because each round's label is a fair coin.  Results are
    reused across structurally shared subtrees when the learner exposes a
    state key.  Any depth runs: the walk keeps its own stack.
    """
    cache: dict = {}

    def rec(t: MistakeTree, ln: Learner):
        if t.is_leaf:
            return Fraction(0)
        ln_key = ln.state_key()
        key = None if ln_key is None else (id(t), ln_key)
        hit = cache.get(key)
        if hit is not None:
            return hit
        p = ln.predict(t.instance)
        l0 = ln.clone()
        l0.update(t.instance, 0)
        l1 = ln.clone()
        l1.update(t.instance, 1)
        out = (p + (yield rec(t.zero, l0)) + (1 - p) + (yield rec(t.one, l1))) / 2
        if key is not None:
            cache[key] = out
        return out

    return _run(rec(tree, learner.clone()))


def worst_case_loss(
    learner: Learner,
    w: WeightedClass | ExpertClass,
    horizon: int,
    state_budget: int | None = 200_000,
) -> Fraction:
    """Exhaustive minimax audit: the exact worst realizable loss over all
    adversary play of at most ``horizon`` rounds.

    Enumerates every domain point (every advice string of an expert class)
    and every label keeping the version space non-empty, one
    :meth:`VersionSpace.split` per point.  States are memoized on (learner
    key, version space, rounds left) when the learner exposes a state key;
    the optional budget caps the number of explored game states.
    """
    if isinstance(w, ExpertClass):
        w = w.explicit()
    if w.is_empty:
        raise ValueError("the empty class admits no realizable play")
    memo: dict = {}
    visited = 0

    def rec(ln: Learner, v: VersionSpace, t: int):
        nonlocal visited
        if t == 0:
            return Fraction(0)
        ln_key = ln.state_key()
        key = None
        if ln_key is not None:
            key = (ln_key, v.key, t)
            hit = memo.get(key)
            if hit is not None:
                return hit
        visited += 1
        if state_budget is not None and visited > state_budget:
            raise ComputeBudgetError(f"worst-case audit exceeded {state_budget} states")
        best = Fraction(0)
        for x in w.domain:
            p = None
            for y, nxt in enumerate(v.split(x)):
                if nxt.is_empty:
                    continue
                if p is None:
                    p = ln.predict(x)
                child = ln.clone()
                child.update(x, y)
                loss = abs(y - p) + (yield rec(child, nxt, t - 1))
                if loss > best:
                    best = loss
        if key is not None:
            memo[key] = best
        return best

    return _run(rec(learner.clone(), Solver().version_space(w), horizon))
