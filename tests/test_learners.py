import hashlib
import math
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from conftest import ReferenceAggregator, random_weighted_class, reference_prediction
from hypothesis import given, settings
from hypothesis import strategies as st

from littlestone.classes import (
    Domain,
    ExpertClass,
    Member,
    UnknownInstanceError,
    WeightedClass,
    expert_class,
    restrict,
    universal_class,
)
from littlestone import dimension
from littlestone.dimension import Solver
from littlestone.games import (
    exact_expected_loss,
    play,
    random_branch_adversary,
    threshold_adversary,
)
from littlestone.learners import (
    AdaptiveAggregator,
    BoundedRandSOALearner,
    ConstantLearner,
    EmptyVersionSpaceError,
    FollowTheLeader,
    HorizonExhaustedError,
    PerceptronInstance,
    RandSOALearner,
    SOALearner,
    UnrealizableSequenceError,
    make_learner,
    perceptron_bound,
    perceptron_run,
)
from littlestone.trees import expected_branch_length

solver = Solver()


def single_hypothesis(budget):
    return WeightedClass(Domain(("x", "y")), (Member("h", (0, 1), budget),))


def realizable_walks(w, length):
    """Every example sequence of the given length realizable by w."""
    if length == 0:
        yield []
        return
    for x in w.domain:
        for y in (0, 1):
            r = restrict(w, x, y)
            if r.is_empty:
                continue
            for rest in realizable_walks(r, length - 1):
                yield [(x, y)] + rest


class TestSOA:
    def test_symmetric_tie_predicts_zero(self):
        learner = SOALearner(universal_class(2, 0), solver)
        assert learner.predict("01") == 0

    def test_single_hypothesis_follows_it(self):
        learner = SOALearner(single_hypothesis(3), solver)
        assert learner.predict("x") == 0
        assert learner.predict("y") == 1

    @pytest.mark.parametrize("w", [universal_class(2, 1), universal_class(3, 0)])
    def test_mistake_bound_on_all_realizable_sequences(self, w):
        bound = solver.littlestone(w)
        for seq in realizable_walks(w, bound + 2):
            learner = SOALearner(w, solver)
            mistakes = 0
            for x, y in seq:
                mistakes += int(learner.predict(x) != y)
                learner.update(x, y)
            assert mistakes <= bound

    def test_every_mistake_shrinks_dimension(self):
        w = universal_class(2, 1)
        rng = random.Random(5)
        for _ in range(30):
            learner = SOALearner(w, solver)
            cur = w
            for _ in range(8):
                if cur.is_empty:
                    break
                x = rng.choice(cur.domain.points)
                y = rng.randint(0, 1)
                if restrict(cur, x, y).is_empty:
                    continue
                before = solver.littlestone(cur)
                wrong = learner.predict(x) != y
                learner.update(x, y)
                cur = restrict(cur, x, y)
                if wrong:
                    assert solver.littlestone(cur) < before

    def test_empty_version_space(self):
        learner = SOALearner(WeightedClass(Domain(("x",)), ()), solver)
        with pytest.raises(EmptyVersionSpaceError):
            learner.predict("x")


class TestRandSOA:
    def test_balanced_restrictions_give_half(self):
        learner = RandSOALearner(universal_class(2, 0), solver)
        assert learner.predict("01") == F(1, 2)

    def test_saturates_at_one_when_agreeing_side_dominates(self):
        # Every member says 1 at p0 and budgets are exhausted: predicting 0
        # buys nothing, the 0-restriction is empty.
        w = WeightedClass(
            Domain(("p0", "p1")), (Member("a", (1, 0), 0), Member("b", (1, 1), 0))
        )
        assert RandSOALearner(w, solver).predict("p0") == 1

    def test_two_experts_budget_one_opening(self):
        learner = RandSOALearner(universal_class(2, 1), solver)
        assert learner.predict("01") == F(1, 2)
        assert solver.randomized_littlestone(
            restrict(universal_class(2, 1), "01", 0)
        ) == F(5, 4)

    def test_roundwise_optimality_certificate(self, rng):
        # The chosen p keeps the adversary's better option at or below the
        # current dimension, on every state reachable by random play.
        from conftest import random_weighted_class

        starts = [universal_class(2, k) for k in range(3)]
        starts += [random_weighted_class(rng, max_budget=2) for _ in range(25)]
        for start in starts:
            cur = start
            learner = RandSOALearner(cur, solver)
            for _ in range(6):
                if cur.is_empty:
                    break
                x = rng.choice(cur.domain.points)
                p = learner.predict(x)
                rl = solver.randomized_littlestone(cur)
                rl0 = solver.randomized_littlestone(restrict(cur, x, 0))
                rl1 = solver.randomized_littlestone(restrict(cur, x, 1))
                assert max(p + rl0, 1 - p + rl1) <= rl
                y = rng.randint(0, 1)
                if restrict(cur, x, y).is_empty:
                    y = 1 - y
                learner.update(x, y)
                cur = restrict(cur, x, y)

    @pytest.mark.parametrize("w", [universal_class(2, 1), universal_class(3, 0)])
    def test_cumulative_loss_at_most_dimension(self, w):
        rl = solver.randomized_littlestone(w)
        for seq in realizable_walks(w, 4):
            learner = RandSOALearner(w, solver)
            loss = F(0)
            for x, y in seq:
                loss += abs(y - learner.predict(x))
                learner.update(x, y)
            assert loss <= rl


class TestBoundedRandSOA:
    def test_one_round_left_with_both_sides_alive(self):
        learner = BoundedRandSOALearner(universal_class(2, 1), 1, solver)
        assert learner.predict("01") == F(1, 2)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_single_hypothesis_agreeing_point(self, t):
        learner = BoundedRandSOALearner(single_hypothesis(1), t, solver)
        assert learner.predict("x") == F(1, 2**t)

    def test_horizon_exhaustion(self):
        learner = BoundedRandSOALearner(universal_class(2, 0), 1, solver)
        learner.predict("01")
        learner.update("01", 0)
        with pytest.raises(HorizonExhaustedError):
            learner.predict("01")


class TestFollowTheLeader:
    def test_split_survivors(self):
        learner = FollowTheLeader(2)
        assert learner.predict("01") == F(1, 2)

    def test_update_eliminates_disagreers(self):
        learner = FollowTheLeader(3)
        learner.update("011", 1)
        assert learner.survivors == frozenset({1, 2})
        assert learner.expert_weights() == [F(0), F(1, 2), F(1, 2)]

    def test_loss_is_eliminated_fraction(self):
        rng = random.Random(3)
        n = 6
        for _ in range(200):
            learner = FollowTheLeader(n)
            hidden = rng.randrange(n)
            for _ in range(12):
                advice = [rng.randint(0, 1) for _ in range(n)]
                x = "".join(map(str, advice))
                y = advice[hidden]
                before = learner.survivors
                loss = abs(y - learner.predict(x))
                learner.update(x, y)
                assert loss == F(len(before) - len(learner.survivors), len(before))

    @pytest.mark.parametrize("x", ["a", "01", "0", "0a1", " 01", "012"])
    def test_rejects_an_instance_that_is_not_advice(self, x):
        # Advice for three experts is a length-3 bit string; the survivors stay.
        learner = FollowTheLeader(3)
        with pytest.raises(UnknownInstanceError, match="length-3 bit string"):
            learner.predict(x)
        with pytest.raises(UnknownInstanceError, match="length-3 bit string"):
            learner.update(x, 1)
        assert learner.survivors == frozenset(range(3))

    def test_all_eliminated(self):
        learner = FollowTheLeader(1)
        learner.update("0", 1)
        with pytest.raises(UnrealizableSequenceError):
            learner.predict("0")


class TestAdaptiveAggregator:
    def test_prior_telescopes(self):
        for cap in (0, 1, 2, 10):
            total = sum(AdaptiveAggregator.prior(k) for k in range(cap + 1))
            assert total == 1 - F(1, cap + 2)

    def test_prediction_is_convex_combination(self):
        agg = AdaptiveAggregator(expert_class(2, 0), solver)
        p = agg.predict("01")
        assert 0 <= p <= 1

    def test_clone_shares_solver_and_predicts_alike(self):
        own = Solver()
        agg = AdaptiveAggregator(expert_class(3, 1), own)
        for x, y in (("011", 0), ("110", 1), ("101", 1)):
            agg.predict(x)
            agg.update(x, y)
        twin = agg.clone()
        assert twin.solver is own
        assert all(
            sub.solver is own for sub in twin._pool.values() if sub is not None
        )
        assert twin.history == agg.history and twin.history is not agg.history
        for x in ("000", "011", "111"):
            assert twin.predict(x) == agg.predict(x)
        twin.update("000", 1)
        assert len(agg.history) == 3

    def test_pool_doubles_past_defeated_budgets(self):
        agg = AdaptiveAggregator(expert_class(2, 0), solver)
        # Two rounds of (x, y) with y opposite both experts defeat budgets 0
        # and 1, forcing the ceiling up.
        for _ in range(2):
            agg.predict("11")
            agg.update("11", 0)
        assert agg.ceiling >= 2
        assert agg._pool[agg.ceiling] is not None

    def test_tracks_best_budget_on_realizable_stream(self):
        # On an exactly realizable stream the aggregator stays within a
        # square-root-order excess of the budget-0 sub-learner; C = 0.2 is
        # the measured constant for this fixed stream (actual excess ratio
        # is under 0.05), frozen with headroom.
        rng = random.Random(1)
        agg = AdaptiveAggregator(expert_class(2, 0), solver)
        sub = RandSOALearner(expert_class(2, 0), solver)
        agg_loss = F(0)
        sub_loss = F(0)
        for _ in range(25):
            advice = f"{rng.randint(0, 1)}{rng.randint(0, 1)}"
            y = int(advice[0])  # expert 1 is always right
            agg_loss += abs(agg.predict(advice) - y)
            sub_loss += abs(sub.predict(advice) - y)
            agg.update(advice, y)
            sub.update(advice, y)
        rl = float(solver.randomized_littlestone(expert_class(2, 0)))
        budget_term = math.sqrt(2 * rl) + 1
        assert float(agg_loss) <= float(sub_loss) + 0.2 * budget_term


class TestPerceptron:
    @staticmethod
    def planted(rng, dim=4, count=80, flips=0, scale=3.0):
        w_star = rng.standard_normal(dim)
        w_star *= scale / np.linalg.norm(w_star)
        xs, ys = [], []
        while len(xs) < count:
            x = rng.standard_normal(dim)
            margin = w_star @ x
            if abs(margin) < 1:
                continue
            xs.append(x)
            ys.append(1 if margin > 0 else -1)
        ys = np.array(ys)
        flip_at = rng.choice(count, size=flips, replace=False)
        ys[flip_at] *= -1
        return PerceptronInstance(np.array(xs), ys, float(np.linalg.norm(w_star)))

    def test_separable_classical_bound(self):
        rng = np.random.default_rng(0)
        data = self.planted(rng, flips=0)
        run = perceptron_run(data)
        assert run.mistakes <= data.margin_norm**2 * data.radius**2

    def test_flipped_labels_bound(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            k = int(rng.integers(0, 4))
            data = self.planted(rng, flips=k)
            run = perceptron_run(data)
            assert run.mistakes <= perceptron_bound(data.margin_norm, data.radius, k)

    def test_empty_stream(self):
        data = PerceptronInstance(np.zeros((0, 3)), np.zeros(0), 1.0)
        assert perceptron_run(data).mistakes == 0

    def test_norm_growth_per_mistake(self):
        rng = np.random.default_rng(2)
        data = self.planted(rng, flips=2)
        w = np.zeros(4)
        for x, y in zip(data.vectors, data.labels):
            if np.sign(w @ x) != y:
                w2 = w + y * x
                assert np.dot(w2, w2) <= np.dot(w, w) + data.radius**2 + 1e-9
                w = w2

    def test_radius_recomputed(self):
        data = PerceptronInstance([[3.0, 4.0]], [1], 2.0)
        assert data.radius == 5.0

    @pytest.mark.parametrize(
        "b,r,k,expected", [(1, 1, 0, 1), (1, 1, 1, 5), (2, 3, 2, 64)]
    )
    def test_bound_formula(self, b, r, k, expected):
        assert perceptron_bound(b, r, k) == expected


class TestMakeLearner:
    def test_constant(self):
        learner = make_learner("constant:1/4")
        assert learner.predict("anything") == F(1, 4)

    def test_ftl_needs_expert_count(self):
        with pytest.raises(ValueError):
            make_learner("ftl")
        assert isinstance(make_learner("ftl", n_experts=3), FollowTheLeader)

    def test_class_learners(self):
        w = universal_class(2, 0)
        assert isinstance(make_learner("soa", w, solver), SOALearner)
        assert isinstance(make_learner("randsoa", w, solver), RandSOALearner)
        assert isinstance(
            make_learner("bounded-randsoa", w, solver, horizon=3), BoundedRandSOALearner
        )
        assert isinstance(make_learner("squint", w, solver), AdaptiveAggregator)

    def test_squint_on_a_label_row_shared_at_two_budgets(self):
        w = WeightedClass(Domain(("x",)), (Member("a", (0,), 0), Member("b", (0,), 1)))
        learner = make_learner("squint", w, Solver())
        assert learner.predict("x") == 0

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_learner("oracle", universal_class(2, 0), solver)


# -- version spaces on packed states -----------------------------------------------

VERSION_SPACE_LEARNERS = ("soa", "randsoa", "bounded-randsoa")


def random_expert_class(rng):
    budgets = [rng.choice([None, 0, 1, 2]) for _ in range(rng.randint(1, 4))]
    budgets[rng.randrange(len(budgets))] = rng.randint(0, 2)
    return ExpertClass(tuple(budgets))


def _points(w):
    if isinstance(w, ExpertClass):
        return ["".join(bits) for bits in product("01", repeat=w.n)]
    return list(w.domain.points)


def _error(call):
    try:
        call()
    except Exception as e:  # compared by type and message
        return type(e), str(e)
    return None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), experts=st.booleans())
def test_learners_match_the_restrict_reference(seed, experts):
    """Every prediction along random realizable walks equals the restrict-based
    reference Fraction for Fraction; equal learner keys mean equal reference
    classes; an unknown instance and the label 2 raise as restrict does."""
    rng = random.Random(seed)
    if experts:
        w = random_expert_class(rng)
    else:
        w = random_weighted_class(rng, max_points=4, max_members=4, max_budget=2)
    points = _points(w)
    length = 5
    own, ref_solver = Solver(), Solver()
    selections = [*VERSION_SPACE_LEARNERS, "squint"]

    def fresh(selection):
        return make_learner(selection, w, own, horizon=length)

    for selection in selections:
        for call, reference in (
            (lambda: fresh(selection).predict("nope"), lambda: restrict(w, "nope", 0)),
            (lambda: fresh(selection).update(points[0], 2), lambda: restrict(w, points[0], 2)),
            (lambda: fresh(selection).update("nope", 1), lambda: restrict(w, "nope", 1)),
        ):
            error = _error(reference)
            assert error is not None and _error(call) == error

    keys: dict = {}
    for _ in range(3):
        learners = {selection: fresh(selection) for selection in selections}
        aggregator = ReferenceAggregator(w, ref_solver) if "squint" in selections else None
        cur = w
        for step in range(length):
            x = rng.choice(points)
            y = rng.randint(0, 1)
            if restrict(cur, x, y).is_empty:
                y = 1 - y
            for selection, learner in learners.items():
                p = learner.predict(x)
                if selection == "squint":
                    expected = aggregator.predict(x)[0]
                else:
                    expected = reference_prediction(selection, ref_solver, cur, x, length - step)
                assert type(p) is F and p == expected, (selection, step)
                key = learner.state_key()
                if key is not None:
                    ref_key = cur if isinstance(cur, ExpertClass) else cur.state_key()
                    assert keys.setdefault(key, ref_key) == ref_key
                learner.update(x, y)
            if aggregator is not None:
                aggregator.update(x, y)
            cur = restrict(cur, x, y)


@lru_cache(maxsize=None)
def _pinned_setup(n, k):
    w = universal_class(n, k)
    s = Solver()
    horizon = s.horizon_for_slack(w, F(1, 16))
    tree, weights = s.extract_optimal_tree(w, horizon)
    adversaries = {
        "branch": random_branch_adversary(tree, w),
        "threshold": threshold_adversary(tree, weights, w),
    }
    return w, s, horizon, adversaries


# sha256[:16] of Transcript.to_jsonl() at seeds 3, 17 and 2024, computed with
# the restrict-stepped learners; a threshold game ignores its seed.
@pytest.mark.parametrize(
    "nk,adversary,selection,digests",
    [
        ((2, 2), "branch", "soa", ("6c7397fc08733649", "19454ffab9d3a933", "75d7ea722168a982")),
        ((2, 2), "branch", "randsoa", ("619b12637cb47314", "fe6809cc9175a96d", "0b3cb26161b25c65")),
        ((2, 2), "branch", "bounded-randsoa", ("8c606e21786171d4", "848b5f9ba4074291", "90a5898fe9100c1e")),
        ((2, 2), "branch", "squint", ("2ff4b64859503bfe", "45d999bc66f90a5b", "b9984669644ae7d3")),
        ((2, 2), "branch", "constant:1/2", ("a8f42b0be379ce37", "d076ce31bb46d9dd", "4af1cc4a2f7ed841")),
        ((2, 2), "threshold", "soa", ("0371ae56f2140e21",) * 3),
        ((2, 2), "threshold", "randsoa", ("e3dae3cbd2f83bc4",) * 3),
        ((2, 2), "threshold", "bounded-randsoa", ("207a1179b6bc151e",) * 3),
        ((2, 2), "threshold", "squint", ("b48b16b76055dd1c",) * 3),
        ((2, 2), "threshold", "constant:1/2", ("c3725357197088c9",) * 3),
        ((3, 1), "branch", "soa", ("3b78b46428e5082e", "de3b83a984091f50", "b7ae71a44967ca00")),
        ((3, 1), "branch", "randsoa", ("18329e9cf357b034", "a2dfefc87bbd4bfb", "b0557f1f6b5775d2")),
        ((3, 1), "branch", "bounded-randsoa", ("2ed7a0aa168d961a", "0647dd59a8d86570", "df516f9edf37097a")),
        ((3, 1), "branch", "squint", ("d611b371dc0f82b5", "7fe961c56aec10b1", "6c7435f376835b77")),
        ((3, 1), "branch", "constant:1/2", ("b8f47e35704a9f35", "a51ca53afede1ba4", "1d86909927ed6f3f")),
        ((3, 1), "threshold", "soa", ("745587a567874296",) * 3),
        ((3, 1), "threshold", "randsoa", ("83e5e2b89fc468f0",) * 3),
        ((3, 1), "threshold", "bounded-randsoa", ("d25b5690e9b03213",) * 3),
        ((3, 1), "threshold", "squint", ("e920183e80d002de",) * 3),
        ((3, 1), "threshold", "constant:1/2", ("a757f4b263c4c2b8",) * 3),
    ],
)
def test_transcripts_pinned(nk, adversary, selection, digests):
    w, s, horizon, adversaries = _pinned_setup(*nk)
    found = tuple(
        hashlib.sha256(
            play(make_learner(selection, w, s, horizon=horizon), adversaries[adversary], seed=seed)
            .to_jsonl()
            .encode()
        ).hexdigest()[:16]
        for seed in (3, 17, 2024)
    )
    assert found == digests


def test_games_read_the_class_memo(rng):
    """After L, RL and RL_T of a class, games by the version-space learners visit
    no new state, and the expected loss, memoized per learner state, is E_T/2."""
    for w in (universal_class(3, 2), random_weighted_class(rng, max_points=4, max_budget=2)):
        s = Solver()
        s.littlestone(w)
        s.randomized_littlestone(w)
        horizon = s.horizon_for_slack(w, F(1, 16))
        tree, weights = s.extract_optimal_tree(w, horizon)
        before = s.states_visited
        adversaries = [threshold_adversary(tree, weights, w), random_branch_adversary(tree, w)]
        for selection in VERSION_SPACE_LEARNERS:
            for adversary in adversaries:
                for seed in range(5):
                    play(make_learner(selection, w, s, horizon=horizon), adversary, seed=seed)
            learner = make_learner(selection, w, s, horizon=horizon)
            assert exact_expected_loss(learner, tree) == expected_branch_length(tree) / 2
        assert s.states_visited == before


def _tree_adversaries(w, s):
    """The branch and threshold adversaries of an optimal tree of ``w`` at
    slack 1/16, with that tree's horizon; an expert class is materialized."""
    explicit = w.explicit() if isinstance(w, ExpertClass) else w
    horizon = s.horizon_for_slack(explicit, F(1, 16))
    tree, weights = s.extract_optimal_tree(explicit, horizon)
    return horizon, {
        "branch": random_branch_adversary(tree, explicit),
        "threshold": threshold_adversary(tree, weights, explicit),
    }


class TestSharedVersionSpaces:
    """A Solver holds one version space per class object, and one budget-k
    version space per class object and k, so a game on a class it has seen
    builds none."""

    @pytest.mark.parametrize("w", [universal_class(2, 2), expert_class(3, 1)], ids=["u22", "e31"])
    def test_second_game_builds_no_version_space(self, w, monkeypatch):
        s = Solver()
        horizon, adversaries = _tree_adversaries(w, s)
        selections = [*VERSION_SPACE_LEARNERS, "squint"]

        def games():
            for selection in selections:
                for adversary in adversaries.values():
                    for seed in range(3):
                        learner = make_learner(selection, w, s, horizon=horizon)
                        twin = learner.clone()
                        play(learner, adversary, seed=seed)
                        play(twin, adversary, seed=seed)

        games()
        calls = []
        for owner, name in (
            (dimension._Frame, "encode"),
            (dimension.VersionSpace, "__init__"),
            (dimension.Solver, "_frame"),
            (WeightedClass, "state_key"),
            (dimension, "with_budget"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        before = s.states_visited
        games()
        assert calls == []
        assert s.states_visited == before

    @pytest.mark.parametrize("w", [universal_class(2, 3), expert_class(3, 1)], ids=["u23", "e31"])
    @pytest.mark.parametrize("adversary", ["branch", "threshold"])
    @pytest.mark.parametrize("selection", [*VERSION_SPACE_LEARNERS, "squint"])
    def test_warm_solver_plays_as_a_fresh_one(self, w, adversary, selection):
        warm = Solver()
        horizon, adversaries = _tree_adversaries(w, warm)
        for seed in range(4):  # the first game fills the warm Solver's spaces
            shared = play(make_learner(selection, w, warm, horizon=horizon), adversaries[adversary], seed=seed)
            fresh = play(make_learner(selection, w, Solver(), horizon=horizon), adversaries[adversary], seed=seed)
            assert shared.to_jsonl() == fresh.to_jsonl(), seed

    @pytest.mark.parametrize(
        "make", [lambda: universal_class(2, 2), lambda: expert_class(3, 1)], ids=["u22", "e31"]
    )
    def test_equal_classes_are_distinct_entries(self, make):
        s = Solver()
        first, second = make(), make()
        assert first == second and first is not second
        v = s.version_space(first)
        assert s.version_space(first) is v and s.version_space(v) is v
        value = s.randomized_littlestone(first)
        before = s.states_visited
        u = s.version_space(second)
        assert u is not v and u.key == v.key
        built = dimension.VersionSpace(s, second)
        assert (u.space, u.tables, u.state, u.label) == (built.space, built.tables, built.state, built.label)
        assert s.randomized_littlestone(second) == value
        budgeted = s.budget_space(first, 2)
        assert s.budget_space(first, 2) is budgeted
        assert s.budget_space(second, 2) is not budgeted
        assert s.budget_space(second, 2).key == budgeted.key
        assert s.states_visited == before

    def test_a_dropped_class_never_lends_its_entry(self, rng):
        # A class built right after another is dropped may take its address
        # (CPython reuses the freed block); each still gets its own space.
        s = Solver()
        for _ in range(40):
            parts = [random_weighted_class(rng, max_points=3, max_budget=2) for _ in range(2)]
            for w in parts:
                s.littlestone(w)
            w = None
            for part in parts:
                w = WeightedClass(part.domain, part.members)  # the block just freed, likely
                assert s.littlestone(w) == Solver().littlestone(w)
                assert s.randomized_littlestone(w) == Solver().randomized_littlestone(w)
                w = None
