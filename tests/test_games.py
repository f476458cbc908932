import inspect
import json
import random
from fractions import Fraction as F

import pytest
from conftest import (
    monotonize,
    random_shattered_tree,
    random_tree,
    random_weighted_class,
    recursion_limit,
    reference_worst_case_loss,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from littlestone.classes import (
    Domain,
    ExpertClass,
    Member,
    WeightedClass,
    expert_class,
    min_mistakes,
    universal_class,
)
from littlestone import games
from littlestone.dimension import ComputeBudgetError, Solver
from littlestone.games import (
    AdversaryPreconditionError,
    GameProtocolError,
    exact_expected_loss,
    online_optimal_adversary,
    play,
    proper_adversary,
    random_branch_adversary,
    threshold_adversary,
    worst_case_loss,
)
from littlestone.learners import (
    BoundedRandSOALearner,
    ConstantLearner,
    FollowTheLeader,
    Learner,
    RandSOALearner,
    make_learner,
)
from littlestone.trees import (
    LEAF,
    complete_tree,
    expected_branch_length,
    node,
    quasi_balance_weights,
    tree_weight,
)

solver = Solver()


def left_path_tree():
    return node("a", node("b", node("c", LEAF, LEAF), LEAF), LEAF)


def single_hypothesis(budget):
    return WeightedClass(Domain(("x", "y")), (Member("h", (0, 1), budget),))


class TestPlay:
    def test_randsoa_vs_threshold_two_experts(self):
        w = universal_class(2, 0)
        tree, weights = solver.extract_optimal_tree(w, 1)
        learner = RandSOALearner(w, solver)
        transcript = play(learner, threshold_adversary(tree, weights, w))
        assert transcript.total == F(1, 2)
        assert transcript.certificate.realizable

    def test_ftl_vs_proper(self):
        transcript = play(FollowTheLeader(3), proper_adversary(3))
        assert transcript.total == F(5, 6)

    def test_coin_flip_learner_expected_loss_is_half_depth(self):
        for d in (1, 2, 4):
            tree = complete_tree(d)
            assert exact_expected_loss(ConstantLearner(F(1, 2)), tree) == F(d, 2)

    def test_protocol_violation_reports_round(self):
        class Rogue(Learner):
            def predict(self, x):
                return F(3, 2)

            def update(self, x, y):
                pass

            def clone(self):
                return self

        with pytest.raises(GameProtocolError, match="round 1"):
            play(Rogue(), random_branch_adversary(complete_tree(2)))

    def test_max_rounds_caps_play(self):
        transcript = play(
            ConstantLearner(0), random_branch_adversary(complete_tree(5)), max_rounds=2
        )
        assert len(transcript.rounds) == 2

    def test_zero_max_rounds_plays_no_round(self):
        transcript = play(ConstantLearner(0), random_branch_adversary(complete_tree(5)), max_rounds=0)
        assert transcript.rounds == () and transcript.total == 0

    @pytest.mark.parametrize("max_rounds", [-1, 2.5, True, "2"])
    def test_max_rounds_must_be_none_or_a_non_negative_int(self, max_rounds):
        with pytest.raises(ValueError, match="^max_rounds must be a non-negative integer"):
            play(ConstantLearner(0), random_branch_adversary(complete_tree(5)), max_rounds=max_rounds)

    def test_transcript_jsonl(self):
        w = universal_class(2, 0)
        tree, weights = solver.extract_optimal_tree(w, 1)
        transcript = play(ConstantLearner(F(1, 3)), threshold_adversary(tree, weights, w))
        lines = transcript.to_jsonl().splitlines()
        first = json.loads(lines[0])
        assert first["round"] == 1 and first["p"] == "1/3"
        assert json.loads(lines[-1])["summary"]["realizable"] is True
        assert F(first["loss"]) == transcript.rounds[0].loss

    def test_a_float_prediction_is_recorded_as_its_exact_fraction(self):
        class Tenth(Learner):
            def predict(self, x):
                return 0.1

            def update(self, x, y):
                pass

            def clone(self):
                return self

        transcript = play(Tenth(), random_branch_adversary(complete_tree(3)), seed=1)
        assert F(0.1) != F(1, 10)
        assert all(type(r.p) is F and r.p == F(0.1) for r in transcript.rounds)
        assert transcript.total == sum(abs(r.y - F(0.1)) for r in transcript.rounds)


class TestAdversaryConstructors:
    CLASSES = (games.RandomBranchAdversary, games.ThresholdAdversary, games.ProperAdversary)

    def test_the_factory_names_are_the_classes(self):
        assert games.random_branch_adversary is games.RandomBranchAdversary
        assert games.threshold_adversary is games.ThresholdAdversary
        assert games.proper_adversary is games.ProperAdversary

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_each_class_defines_its_own_game_methods(self, cls):
        # bench/tracing.py wraps these from each class's own __dict__.
        assert {"reset", "next_instance", "answer"} <= cls.__dict__.keys()

    def test_online_optimal_adversary_has_no_check_option(self):
        assert list(inspect.signature(online_optimal_adversary).parameters) == ["w", "slack", "solver"]

    @pytest.mark.parametrize("n, message", [(0, "need at least one expert"),
                                            (2.0, "n must be an integer, got 2.0")])
    def test_proper_adversary_takes_expert_class_checks_of_n(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            proper_adversary(n)

    def test_a_new_proper_adversary_is_in_its_reset_state(self):
        played = proper_adversary(3)
        play(FollowTheLeader(3), played)
        played.reset(random.Random(5))
        assert vars(played) == vars(proper_adversary(3))


class TestRandomBranchAdversary:
    def test_leaf_tree_empty_transcript(self):
        transcript = play(ConstantLearner(0), random_branch_adversary(LEAF))
        assert transcript.rounds == ()
        assert transcript.total == 0

    def test_expected_loss_identity_over_learners(self, rng):
        # The fair-coin walk costs E_T/2 no matter who is predicting.
        learners = [
            lambda: ConstantLearner(0),
            lambda: ConstantLearner(F(7, 10)),
            lambda: FollowTheLeader(3),
            lambda: RandSOALearner(expert_class(3, 6), solver),
        ]
        w = expert_class(3, 0)
        for _ in range(8):
            tree = random_shattered_tree(w.explicit(), rng, max_depth=5)
            e = expected_branch_length(tree)
            for make in learners:
                assert exact_expected_loss(make(), tree) == e / 2

    def test_unshattered_tree_rejected(self):
        w = universal_class(2, 0)
        with pytest.raises(AdversaryPreconditionError):
            random_branch_adversary(complete_tree(2, "01"), declared_class=w)

    @pytest.mark.parametrize(
        "build",
        [
            lambda tree, w: random_branch_adversary(tree, declared_class=w, check=True),
            lambda tree, w: threshold_adversary(tree, quasi_balance_weights(tree), declared_class=w, check=True),
        ],
        ids=["branch", "threshold"],
    )
    def test_both_tree_adversaries_name_the_failing_branches(self, build):
        # Under u(2,0) the branches 01 and 10 of the depth-2 tree fail.
        tree = complete_tree(2, "01")
        with pytest.raises(
            AdversaryPreconditionError, match=r"^tree is not shattered by the declared class; 2 branch\(es\) fail$"
        ):
            build(tree, universal_class(2, 0))

    def test_prefix_cache_is_bit_identical(self):
        # Extracted trees share subtrees, so the walk's cache keyed by learner
        # state actually kicks in; the result must still be E_T/2 exactly.
        w = universal_class(2, 2)
        tree, _ = solver.extract_optimal_tree(w, 6)
        for learner in (RandSOALearner(w, solver), ConstantLearner(F(2, 7))):
            assert exact_expected_loss(learner, tree) == expected_branch_length(tree) / 2

    def test_empirical_mean_matches_dimension(self):
        # Expected loss on the extracted tree is exactly E_T/2, which the
        # 1/64 extraction slack keeps within 1/64 of the dimension 7/4; a
        # hundred thousand seeded walks land inside the remaining window.
        w = universal_class(2, 1)
        horizon = solver.horizon_for_slack(w, F(1, 64))
        tree, _ = solver.extract_optimal_tree(w, horizon)
        adversary = random_branch_adversary(tree, declared_class=w, check=False)
        total = 0.0
        trials = 100_000
        for seed in range(trials):
            learner = RandSOALearner(w, solver)
            total += float(play(learner, adversary, seed=seed).total)
        assert abs(total / trials - 1.75) < 0.02


class TestThresholdAdversary:
    def test_confident_learner_walks_left(self):
        tree = left_path_tree()
        weights = quasi_balance_weights(tree)
        transcript = play(ConstantLearner(1), threshold_adversary(tree, weights))
        assert [r.y for r in transcript.rounds] == [0, 0, 0]
        assert transcript.total >= F(7, 8)

    def test_stubborn_zero_learner_charged_full_weight(self):
        tree = left_path_tree()
        weights = quasi_balance_weights(tree)
        transcript = play(ConstantLearner(0), threshold_adversary(tree, weights))
        assert [r.y for r in transcript.rounds] == [1]
        assert transcript.total == 1 >= F(7, 8)

    def test_missing_weight_entry_reported(self):
        from littlestone.trees import WeightFunction

        tree = left_path_tree()
        partial = WeightFunction({"": (F(1, 8), F(7, 8))})
        adversary = threshold_adversary(tree, partial)
        with pytest.raises(AdversaryPreconditionError, match="no entry"):
            play(ConstantLearner(1), adversary)

    def test_guarantee_over_learners_on_monotone_trees(self, rng):
        for _ in range(10):
            tree = monotonize(random_tree(rng, max_depth=5))
            weights = quasi_balance_weights(tree)
            bound = tree_weight(tree)
            for learner in (
                ConstantLearner(0),
                ConstantLearner(1),
                ConstantLearner(F(2, 5)),
            ):
                total = play(learner.clone(), threshold_adversary(tree, weights)).total
                assert total >= bound


class TestOnlineOptimalAdversary:
    def test_u28_at_slack_1_64_in_dag_time(self):
        # Horizon 29: about 2^29 root paths over a few hundred distinct nodes,
        # so the weights and the walk must go node by node.
        w, slack = universal_class(2, 8), F(1, 64)
        adversary = online_optimal_adversary(w, slack, solver)
        bound = solver.bounded_randomized_littlestone(w, solver.horizon_for_slack(w, slack))
        for seed in range(3):
            assert play(RandSOALearner(w, solver), adversary, seed=seed).total >= bound

    def test_two_experts_depth_one(self):
        adversary = online_optimal_adversary(universal_class(2, 0), F(1, 4), solver)
        assert adversary.tree.zero.is_leaf and adversary.tree.one.is_leaf
        total = play(RandSOALearner(universal_class(2, 0), solver), adversary).total
        assert total == F(1, 2)

    def test_single_hypothesis_guarantee(self):
        w = single_hypothesis(1)
        adversary = online_optimal_adversary(w, F(1, 8), solver)
        total = play(ConstantLearner(F(1, 2)), adversary).total
        assert total >= F(7, 8)

    def test_guarantee_against_learner_menagerie(self):
        w = universal_class(2, 1)
        target = solver.randomized_littlestone(w) - F(1, 16)
        learners = [
            RandSOALearner(w, solver),
            ConstantLearner(0),
            ConstantLearner(F(1, 4)),
            ConstantLearner(F(1, 2)),
        ]
        for learner in learners:
            adversary = online_optimal_adversary(w, F(1, 16), solver)
            transcript = play(learner, adversary)
            assert transcript.total >= target
            assert transcript.certificate.realizable

    def test_follow_the_leader_dies_on_budgeted_stream(self):
        # The budget-1 adversary plays sequences no expert matches exactly,
        # so the leader-following learner runs out of mistake-free experts
        # mid-game and reports the sequence as unrealizable.
        from littlestone.learners import UnrealizableSequenceError

        w = universal_class(2, 1)
        adversary = online_optimal_adversary(w, F(1, 16), solver)
        with pytest.raises(UnrealizableSequenceError):
            play(FollowTheLeader(2), adversary)


class TestProperAdversary:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_ftl_suffers_harmonic(self, n):
        from littlestone.experts import harmonic_number

        transcript = play(FollowTheLeader(n), proper_adversary(n))
        assert transcript.total == harmonic_number(n) - 1
        assert transcript.certificate.realizable

    def test_improper_learner_rejected(self):
        with pytest.raises(AdversaryPreconditionError):
            play(ConstantLearner(0), proper_adversary(3))

    def test_any_proper_mixture_suffers_harmonic(self):
        from littlestone.experts import harmonic_number

        class RandomMixture(Learner):
            """Proper learner with an arbitrary mixture each round."""

            def __init__(self, n, seed):
                self.n = n
                self.rng = random.Random(seed)
                self._weights = None

            def expert_weights(self):
                raw = [F(self.rng.randint(0, 8)) for _ in range(self.n)]
                if sum(raw) == 0:
                    raw[0] = F(1)
                total = sum(raw)
                self._weights = [w / total for w in raw]
                return self._weights

            def predict(self, x):
                return sum(
                    w for w, a in zip(self._weights, x) if a == "1"
                )

            def update(self, x, y):
                pass

            def clone(self):
                return self

        for n in range(2, 7):
            for seed in range(20):
                total = play(RandomMixture(n, seed), proper_adversary(n)).total
                assert total >= harmonic_number(n) - 1


class TestWorstCaseLoss:
    def test_two_experts_one_round(self):
        w = universal_class(2, 0)
        learner = BoundedRandSOALearner(w, 1, solver)
        assert worst_case_loss(learner, w, 1) == F(1, 2)

    def test_matches_bounded_dimension(self):
        w = universal_class(2, 1)
        for t in range(1, 5):
            learner = BoundedRandSOALearner(w, t, solver)
            assert worst_case_loss(learner, w, t) == solver.bounded_randomized_littlestone(w, t)

    def test_coin_flipper_loses_half_per_round(self, rng):
        for _ in range(5):
            w = random_weighted_class(rng)
            for t in (1, 2, 3):
                assert worst_case_loss(ConstantLearner(F(1, 2)), w, t) == F(t, 2)

    def test_unbounded_learner_capped_by_dimension(self, rng):
        for _ in range(10):
            w = random_weighted_class(rng, max_budget=1)
            learner = RandSOALearner(w, solver)
            assert worst_case_loss(learner, w, 4) <= solver.randomized_littlestone(w)

    def test_budget_guard(self):
        w = universal_class(3, 1)
        learner = BoundedRandSOALearner(w, 6, solver)
        with pytest.raises(ComputeBudgetError):
            worst_case_loss(learner, w, 6, state_budget=3)

    @pytest.mark.parametrize("state_budget", [-1, 2.5, True, "2"])
    def test_state_budget_must_be_none_or_a_non_negative_int(self, state_budget):
        w = universal_class(2, 0)
        with pytest.raises(ValueError, match="^state_budget must be a non-negative integer"):
            worst_case_loss(ConstantLearner(F(1, 2)), w, 1, state_budget=state_budget)
        assert worst_case_loss(ConstantLearner(F(1, 2)), w, 1, state_budget=None) == F(1, 2)

    @given(st.integers(0, 2**32), st.booleans(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_restrict_audit(self, seed, experts, horizon):
        rng = random.Random(seed)
        if experts:
            n = rng.randint(1, 3)
            budgets = [rng.choice([None, 0, 1]) for _ in range(n)]
            budgets[rng.randrange(n)] = rng.choice([0, 1])
            w = ExpertClass(tuple(budgets))
        else:
            w = random_weighted_class(rng, max_points=3, max_members=3, max_budget=1)
        selections = ["soa", "randsoa", "bounded-randsoa", "constant:1/3", "squint"]
        if experts and not any(w.budgets):
            selections.append("ftl")  # proper and mistake-free only
        for selection in selections:
            learner = make_learner(selection, w, Solver(), horizon, n_experts=getattr(w, "n", None))
            expected = reference_worst_case_loss(learner, w, horizon)
            assert worst_case_loss(learner, w, horizon) == expected, selection


class TestDeepWalks:
    """Both exact-loss walks keep their own stack, so depth is not bounded by
    the recursion limit."""

    def test_expected_loss_on_a_5000_deep_path(self):
        t = LEAF
        for _ in range(5_000):
            t = node("x", t, LEAF)
        with recursion_limit(1_000):
            loss = exact_expected_loss(ConstantLearner(F(1, 2)), t)
        assert loss == expected_branch_length(t) / 2

    def test_worst_case_loss_at_horizon_3000(self):
        w = expert_class(1, 2).explicit()
        with recursion_limit(1_000):
            assert worst_case_loss(ConstantLearner(F(1, 2)), w, 3000) == 1500


class TestAdversarySoundness:
    def test_transcripts_certified_realizable(self, rng):
        w = universal_class(2, 1)
        horizon = 6
        tree, weights = solver.extract_optimal_tree(w, horizon)
        adversaries = [
            lambda: random_branch_adversary(tree, declared_class=w, check=False),
            lambda: threshold_adversary(tree, weights, declared_class=w, check=False),
        ]
        for make in adversaries:
            for seed in range(30):
                transcript = play(ConstantLearner(F(1, 3)), make(), seed=seed)
                cert = min_mistakes(transcript.sequence(), w)
                assert cert.realizable
