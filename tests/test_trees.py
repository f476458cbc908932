import gc
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from conftest import (
    monotonize,
    random_dag,
    random_tree,
    random_weighted_class,
    recursion_limit,
    reference_expected_branch_length,
    reference_flat_json,
    reference_is_monotone,
    reference_nested_json,
    reference_quasi_balance_weights,
    reference_sample_branch,
    reference_shatter,
    reference_shatter_check,
    reference_tree_from_json,
    reference_tree_to_json,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from littlestone.classes import (
    Domain,
    ExpertClass,
    Member,
    UnknownInstanceError,
    WeightedClass,
    universal_class,
)
from littlestone.dimension import Solver
from littlestone.trees import (
    LEAF,
    MistakeTree,
    NotQuasiBalancedError,
    PathWeights,
    WeightFunction,
    branches,
    complete_tree,
    depth,
    expected_branch_length,
    is_monotone,
    min_branch_length,
    node,
    quasi_balance_weights,
    sample_branch,
    shatter_check,
    tree_from_json,
    tree_statistics,
    tree_to_json,
    truncate,
)


def left_path_tree() -> MistakeTree:
    """Three internal nodes nested on the left, a leaf hanging at each level."""
    return node("a", node("b", node("c", LEAF, LEAF), LEAF), LEAF)


def lopsided_tree() -> MistakeTree:
    """Complete depth-4 on the left of the root, depth-1 on the right.

    Every proper subtree is complete, and E = 3.5 <= 2 * m = 4, yet the root
    violates monotonicity (the left child has E = 4 > 3.5).
    """
    return node("r", complete_tree(4), complete_tree(1))


class TestExpectedBranchLength:
    def test_left_path(self):
        assert expected_branch_length(left_path_tree()) == F(7, 4)

    def test_leaf(self):
        assert expected_branch_length(LEAF) == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_complete(self, d):
        assert expected_branch_length(complete_tree(d)) == d

    def test_recursion_identity(self, rng):
        for _ in range(60):
            t = random_tree(rng)
            if t.is_leaf:
                continue
            e = expected_branch_length
            assert e(t) == 1 + (e(t.zero) + e(t.one)) / 2

    def test_explicit_sum_identity(self, rng):
        for _ in range(60):
            t = random_tree(rng, max_depth=5)
            total = sum(F(len(b), 2 ** len(b)) for b in branches(t))
            assert expected_branch_length(t) == total


class TestMinBranchLength:
    def test_left_path(self):
        assert min_branch_length(left_path_tree()) == 1

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_complete(self, d):
        assert min_branch_length(complete_tree(d)) == d

    def test_one_leaf_child(self):
        assert min_branch_length(node("x", complete_tree(3), LEAF)) == 1


class TestMonotone:
    def test_left_path_is_monotone(self):
        assert is_monotone(left_path_tree())

    def test_lopsided_is_not(self):
        t = lopsided_tree()
        assert expected_branch_length(t) == F(7, 2)
        assert min_branch_length(t) == 2
        assert not is_monotone(t)

    def test_leaf(self):
        assert is_monotone(LEAF)


class TestQuasiBalanceWeights:
    def test_left_path_weights(self):
        w = quasi_balance_weights(left_path_tree())
        assert w.at("") == (F(1, 8), F(7, 8))
        assert w.at("0") == (F(1, 4), F(3, 4))
        assert w.at("00") == (F(1, 2), F(1, 2))

    def test_complete_tree_all_half(self):
        w = quasi_balance_weights(complete_tree(3))
        assert all(pair == (F(1, 2), F(1, 2)) for pair in w.weights.values())

    def test_lopsided_fails_at_root(self):
        with pytest.raises(NotQuasiBalancedError) as err:
            quasi_balance_weights(lopsided_tree())
        assert err.value.position == ""

    def test_every_branch_weighs_half_expected(self, rng):
        for _ in range(80):
            t = monotonize(random_tree(rng))
            w = quasi_balance_weights(t)
            lam = expected_branch_length(t) / 2
            for b in branches(t):
                assert w.branch_weight([y for _, y in b]) == lam

    def test_succeeds_iff_monotone(self, rng):
        succeeded = failed = 0
        for _ in range(200):
            t = random_tree(rng, max_depth=7, leaf_prob=0.3)
            mono = is_monotone(t)
            try:
                quasi_balance_weights(t)
                ok = True
                succeeded += 1
            except NotQuasiBalancedError:
                ok = False
                failed += 1
            assert ok == mono
        assert succeeded > 10 and failed > 10

    def test_expected_at_most_twice_min_when_balanced(self, rng):
        for _ in range(100):
            t = monotonize(random_tree(rng))
            assert expected_branch_length(t) <= 2 * min_branch_length(t)


@given(st.integers(0, 10**9), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_random_weight_functions_average_half_expected(seed, d):
    # Any weights summing to 1 per node give expected random-branch weight
    # E_T/2; quasi-balance is about making every branch hit that average.
    rng = random.Random(seed)
    t = random_tree(rng, max_depth=d)

    def expected_weight(tr):
        if tr.is_leaf:
            return F(0)
        w0 = F(rng.randint(0, 16), 16)
        return (w0 + expected_weight(tr.zero) + (1 - w0) + expected_weight(tr.one)) / 2

    assert expected_weight(t) == expected_branch_length(t) / 2


class TestTruncate:
    def test_complete_five_to_two(self):
        assert truncate(complete_tree(5), 2) == complete_tree(2)

    def test_to_zero_is_leaf(self, rng):
        assert truncate(random_tree(rng), 0) == LEAF

    def test_shallow_tree_unchanged(self):
        t = left_path_tree()
        assert truncate(t, 10) == t

    def test_depth_bound(self, rng):
        for _ in range(30):
            t = random_tree(rng, max_depth=7)
            assert depth(truncate(t, 3)) <= 3

    def test_shared_dags_match_a_per_path_cut(self, rng):
        def reference(t, d):
            if t.is_leaf or d == 0:
                return LEAF
            return node(t.instance, reference(t.zero, d - 1), reference(t.one, d - 1))

        for _ in range(100):
            t, d = random_dag(rng, size=10), rng.randint(0, 11)
            assert truncate(t, d) == reference(t, d)

    def test_path_deeper_than_the_recursion_limit(self):
        t = deep_left_path(5_000)
        with recursion_limit(1_000):
            cut, whole = truncate(t, 3_000), truncate(t, 10_000)
        assert depth(cut) == 3_000 and depth(whole) == 5_000
        assert expected_branch_length(cut) == expected_branch_length(deep_left_path(3_000))


class TestSampleBranch:
    def test_leaf_empty_any_seed(self):
        assert sample_branch(LEAF, 7) == []

    def test_deterministic_per_seed(self):
        t = complete_tree(4)
        assert sample_branch(t, 123) == sample_branch(t, 123)

    def test_uniform_over_branches(self):
        t = complete_tree(3)
        counts = {}
        n = 100_000
        for seed in range(n):
            key = tuple(y for _, y in sample_branch(t, seed))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 8
        for c in counts.values():
            assert abs(c / n - 0.125) < 0.01

    def test_mean_length_matches_expectation(self):
        t = left_path_tree()
        n = 100_000
        mean = sum(len(sample_branch(t, s)) for s in range(n)) / n
        assert abs(mean - 1.75) < 0.02

    def test_int_seed_walks_a_fresh_generator(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_dag(rng, size=rng.randrange(1, 30))
            for seed in range(200):
                assert sample_branch(t, seed) == reference_sample_branch(t, random.Random(seed))

    def test_generator_is_consumed_one_bit_per_level(self):
        rng = random.Random(6)
        for seed in range(200):
            t = random_dag(rng, size=rng.randrange(1, 30))
            shared, ref = random.Random(seed), random.Random(seed)
            first, second = sample_branch(t, shared), sample_branch(t, shared)
            assert first == reference_sample_branch(t, ref)
            assert second == reference_sample_branch(t, ref)
            assert shared.getstate() == ref.getstate()

    def test_pinned_branches(self):
        # An int seed's branch is part of every seeded replay: these must not move.
        t = complete_tree(6)
        bits = ["".join(str(y) for _, y in sample_branch(t, s)) for s in range(4)]
        assert bits == ["101100", "011110", "111100", "011001"]


class TestShatterCheck:
    @staticmethod
    def two_constants(budget=0):
        return WeightedClass(
            Domain(("x",)),
            (Member("zero", (0,), budget), Member("one", (1,), budget)),
        )

    def test_depth_one_on_distinguishing_point(self):
        assert shatter_check(complete_tree(1, "x"), self.two_constants()).ok

    def test_depth_two_fails(self):
        report = shatter_check(complete_tree(2, "x"), self.two_constants())
        assert not report.ok
        assert len(report.failing_branches) == 2  # the 01 and 10 branches

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_all_disagreement_tree_for_two_experts(self, k):
        w = universal_class(2, k)
        assert shatter_check(complete_tree(2 * k + 1, "01"), w).ok
        deeper = shatter_check(complete_tree(2 * k + 2, "01"), w)
        assert not deeper.ok


class TestSerialization:
    def test_round_trip_without_weights(self, rng):
        t = random_tree(rng)
        parsed, weights = tree_from_json(tree_to_json(t))
        assert parsed == t
        assert weights is None

    def test_round_trip_with_weights(self):
        t = left_path_tree()
        w = quasi_balance_weights(t)
        parsed, parsed_w = tree_from_json(tree_to_json(t, w))
        assert parsed == t
        assert parsed_w.at("") == (F(1, 8), F(7, 8))

    def test_leaf_form(self):
        assert tree_to_json(LEAF) == '{"root": null, "nodes": []}'
        assert reference_nested_json(LEAF) == '{"leaf": true}'
        for text in (tree_to_json(LEAF), '{"leaf": true}'):
            assert tree_from_json(text) == (LEAF, None)

    def test_invalid_node_rejected(self):
        with pytest.raises(ValueError):
            tree_from_json('{"instance": "x", "zero": {"leaf": true}}')


def test_internal_node_needs_both_children():
    with pytest.raises(ValueError):
        MistakeTree(instance="x", zero=LEAF, one=None)


def deep_left_path(d: int) -> MistakeTree:
    """``d`` internal nodes nested on the left, a leaf on the right of each."""
    t = LEAF
    for _ in range(d):
        t = node("x", t, LEAF)
    return t


def distinct_nodes(tree: MistakeTree) -> list[MistakeTree]:
    seen: dict[int, MistakeTree] = {}
    stack = [tree]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if not t.is_leaf:
                stack += [t.zero, t.one]
    return list(seen.values())


def subtree(tree: MistakeTree, pos: str) -> MistakeTree:
    for y in pos:
        tree = tree.one if y == "1" else tree.zero
    return tree


class TestDeepTrees:
    def test_statistics_of_a_25000_deep_left_path(self):
        d = 25_000
        t = deep_left_path(d)
        assert expected_branch_length(t) == 2 - F(1, 2 ** (d - 1))
        assert min_branch_length(t) == 1
        assert depth(t) == d
        assert is_monotone(t)

    def test_one_fold_statistics_of_a_25000_deep_left_path_in_linear_memory(self):
        # E_T * 2^h has h bits at height h, so a fold keeping every node's
        # value peaks at about 53 MiB here, and one dropping each value after
        # its parent at about 10 MiB; the weights test's 64 MiB would not
        # tell them apart.
        d = 25_000
        t = deep_left_path(d)
        tracemalloc.start()
        try:
            stats = tree_statistics(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats == (2 - F(1, 2 ** (d - 1)), d, 1, True)
        assert peak < 32 * 2**20

    def test_weights_of_a_path_deeper_than_the_recursion_limit(self):
        # The recursion limit is lowered below the depth: nothing recurses.
        d = 4_000
        t = deep_left_path(d)
        with recursion_limit(1_000):
            w = quasi_balance_weights(t)
        assert len(w.weights) == d
        assert w.at("") == (F(1, 2**d), 1 - F(1, 2**d))
        assert w.at("0" * (d - 1)) == (F(1, 2), F(1, 2))

    def test_weights_of_a_25000_deep_left_path_in_linear_memory(self):
        # One w0 per node; path keys would take d^2 / 2 characters (~850 MB).
        d = 25_000
        t = deep_left_path(d)
        tracemalloc.start()
        try:
            w = quasi_balance_weights(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w.weights) == d
        assert w.at("0" * (d - 1)) == (F(1, 2), F(1, 2))
        assert peak < 64 * 2**20

    def test_writing_a_weighted_2000_deep_path_in_linear_memory(self):
        # One row per node; text per subtree would hold about d^2 / 2
        # characters (~500 MiB).
        d = 2_000
        t = deep_left_path(d)
        w = quasi_balance_weights(t)
        tracemalloc.start()
        try:
            text = tree_to_json(t, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(row) for row in json.loads(text)["nodes"]] == [4] * d  # each with its w0
        assert tree_to_json(*tree_from_json(text)) == text
        assert peak < 16 * 2**20

    def test_equality_and_hash_of_paths_deeper_than_the_recursion_limit(self):
        d = 5_000
        changed = LEAF
        for i in range(d):  # differs from deep_left_path(d) at the deepest node only
            changed = node("y" if i == 0 else "x", changed, LEAF)
        a, b = deep_left_path(d), deep_left_path(d)
        with recursion_limit(1_000):
            assert a == b and hash(a) == hash(b)
            assert a != changed and a != deep_left_path(d - 1)


def reference_weights(tree: MistakeTree) -> dict[str, tuple[F, F]]:
    """Per root path, w0 = (1 + lam1 - lam0) / 2 from plain recursive E_T."""

    def e(t: MistakeTree) -> F:
        return F(0) if t.is_leaf else 1 + (e(t.zero) + e(t.one)) / 2

    out = {}
    stack = [(tree, "")]
    while stack:
        t, pos = stack.pop()
        if not t.is_leaf:
            w0 = (1 + e(t.one) / 2 - e(t.zero) / 2) / 2
            out[pos] = (w0, 1 - w0)
            stack += [(t.zero, pos + "0"), (t.one, pos + "1")]
    return out


class TestSharedDag:
    @pytest.fixture(scope="class")
    def extracted(self):
        return Solver().extract_optimal_tree(universal_class(2, 3), 12)

    def test_round_trip_parses_to_the_minimal_dag(self, extracted):
        t, w = extracted
        text = tree_to_json(t, w)
        parsed, parsed_w = tree_from_json(text)
        # Extraction and parsing both merge every set of equal subtrees.
        distinct_subtrees = set(distinct_nodes(t))
        assert len(distinct_nodes(t)) == len(distinct_subtrees) == 35
        assert len(distinct_nodes(parsed)) == len(distinct_subtrees)
        assert expected_branch_length(parsed) == expected_branch_length(t)
        assert tree_to_json(parsed, parsed_w) == text

    def test_dags_with_2_to_the_60_root_paths_compare_in_dag_time(self):
        def dag(bottom: str) -> MistakeTree:
            t = node(bottom, LEAF, LEAF)
            for _ in range(59):
                t = node("x", t, t)
            return t

        a, b = dag("x"), dag("x")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != dag("y")

    def test_copies_of_one_subtree_keep_their_own_weights(self):
        def inner(w0):
            return {"instance": "a", "zero": {"leaf": True}, "one": {"leaf": True}, "w0": w0}

        text = json.dumps({"instance": "r", "zero": inner("1/4"), "one": inner("3/4"), "w0": "1/2"})
        t, w = tree_from_json(text)
        assert t.zero is t.one
        assert w.at("0") == (F(1, 4), F(3, 4))
        assert w.at("1") == (F(3, 4), F(1, 4))
        assert reference_nested_json(t, w) == text
        flat = tree_to_json(t, w)
        assert json.loads(flat) == {"root": 2, "nodes": [
            ["a", None, None, "1/4"], ["a", None, None, "3/4"], ["r", 0, 1, "1/2"]]}
        assert outcome(tree_from_json, flat) == outcome(tree_from_json, text)

    def test_serialization_leaves_no_cyclic_garbage(self, extracted):
        # Garbage in a reference cycle waits for a full collection, so a big
        # tree's weights would outlive the call that read or wrote them.
        text = tree_to_json(*extracted)
        gc.collect()
        gc.disable()
        try:
            tree_to_json(*tree_from_json(text))
            Solver().extract_optimal_tree(universal_class(2, 2), 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weights_match_a_per_path_walk(self, extracted):
        t, _ = extracted
        w = quasi_balance_weights(t)
        assert w.weights == reference_weights(t)
        by_node: dict[int, list[str]] = {}
        for pos in w.weights:
            by_node.setdefault(id(subtree(t, pos)), []).append(pos)
        first, second = max(by_node.values(), key=len)[:2]
        assert w.at(first) is w.at(second)


class TestShatterPairs:
    """The (node, version space) pass against the per-branch reference and
    the restrict-stepped pass it replaced."""

    @staticmethod
    def check(tree: MistakeTree, w):
        report = shatter_check(tree, w)
        assert (report.ok, report.failing_branches) == reference_shatter(tree, w)
        assert report == reference_shatter_check(tree, w)
        return report

    def check_random(self, rng, w, points) -> set[bool]:
        # The shared copy reaches one subtree under two class states.
        t = random_tree(rng, max_depth=5, leaf_prob=0.3, points=points)
        return {self.check(t, w).ok, self.check(node(rng.choice(points), t, t), w).ok}

    def test_random_weighted_classes(self, rng):
        outcomes = set()
        for _ in range(400):
            w = random_weighted_class(rng, max_points=3, max_members=4, max_budget=2)
            outcomes |= self.check_random(rng, w, w.domain.points)
        assert outcomes == {True, False}

    def test_random_expert_classes(self, rng):
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            advice = tuple(format(v, f"0{n}b") for v in range(2**n))
            w = ExpertClass(tuple(rng.choice([None, 0, 1, 2]) for _ in range(n)))
            outcomes |= self.check_random(rng, w, advice)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_fails_at_the_last_level(self, k):
        assert not self.check(complete_tree(2 * k + 2, "01"), universal_class(2, k)).ok

    def test_every_branch_below_an_empty_class_fails(self):
        # x=0 then x=1 leaves no member, two levels above the leaves.
        w = TestShatterCheck.two_constants()
        assert len(self.check(complete_tree(4, "x"), w).failing_branches) == 14

    def test_extracted_dag_under_a_smaller_budget(self):
        t, _ = Solver().extract_optimal_tree(universal_class(2, 3), 12)
        assert self.check(t, universal_class(2, 3)).ok
        assert not self.check(t, universal_class(2, 2)).ok

    def test_exponentially_many_branches_in_dag_time(self):
        # 2^60 root paths over 61 distinct nodes.  A member with budget 60
        # realizes every branch; with budget 59 only the all-ones one fails.
        d = 60
        t = complete_tree(d, "x")
        one_point = Domain(("x",))
        assert shatter_check(t, WeightedClass(one_point, (Member("zero", (0,), d),))).ok
        report = shatter_check(t, WeightedClass(one_point, (Member("zero", (0,), d - 1),)))
        assert report.failing_branches == ((("x", 1),) * d,)

    @pytest.mark.parametrize(
        "w, known, unknown",
        [(TestShatterCheck.two_constants(), "x", "zz"), (ExpertClass((0, 0)), "01", "2")],
        ids=["weighted", "experts"],
    )
    def test_unknown_instance_below_an_empty_class_raises(self, w, known, unknown):
        # The class is empty at position "01"; the unknown instance sits there.
        t = node(known, node(known, LEAF, node(unknown, LEAF, LEAF)), LEAF)
        with pytest.raises(UnknownInstanceError):
            shatter_check(t, w)

    @pytest.mark.parametrize(
        "w", [WeightedClass(Domain(("x",)), ()), ExpertClass((None, None))], ids=["weighted", "experts"]
    )
    def test_both_empty_kinds_reject_an_unknown_instance(self, w):
        # Each instance is checked by a split of the root version space,
        # which reads it against the domain whether or not a member is left.
        with pytest.raises(UnknownInstanceError):
            shatter_check(node("bad", LEAF, LEAF), w)

    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_shared_dags_match_the_restrict_pass(self, seed, experts, unknown):
        # Failing branches come out in the same order; an instance outside
        # the domain raises from both.
        rng = random.Random(seed)
        if experts:
            n = rng.randint(1, 3)
            points = tuple(format(v, f"0{n}b") for v in range(2**n))
            w = ExpertClass(tuple(rng.choice([None, 0, 1, 2]) for _ in range(n)))
        else:
            w = random_weighted_class(rng, max_points=3, max_members=4, max_budget=2)
            points = w.domain.points
        t = random_dag(rng, size=rng.randint(0, 12), points=points + ("zz",) * unknown)
        try:
            expected = reference_shatter_check(t, w)
        except UnknownInstanceError:
            with pytest.raises(UnknownInstanceError):
                shatter_check(t, w)
        else:
            assert shatter_check(t, w) == expected


class TestParseOnce:
    @pytest.fixture(scope="class")
    def u25(self):
        solver = Solver()
        w = universal_class(2, 5)
        tree, weights = solver.extract_optimal_tree(w, solver.horizon_for_slack(w, F(1, 64)))
        return reference_nested_json(tree, weights), weights

    def test_weights_equal_the_written_ones(self, u25):
        text, weights = u25
        parsed, parsed_w = tree_from_json(text)
        assert len(parsed_w.weights) == 43_399
        assert parsed_w.weights == weights.weights
        assert shatter_check(parsed, universal_class(2, 5)).ok
        flat = tree_to_json(parsed, parsed_w)
        assert len(flat) < len(text) // 1000
        assert tree_from_json(flat) == (parsed, parsed_w)

    def test_equal_w0_strings_share_one_pair(self, u25):
        text, _ = u25
        _, parsed_w = tree_from_json(text)
        pairs_by_text: dict[str, set[int]] = {}
        stack = [(json.loads(text), "")]
        while stack:
            d, pos = stack.pop()
            if "w0" in d:
                pairs_by_text.setdefault(d["w0"], set()).add(id(parsed_w.at(pos)))
                stack += [(d["zero"], pos + "0"), (d["one"], pos + "1")]
        assert all(len(ids) == 1 for ids in pairs_by_text.values())
        assert len(pairs_by_text) < 100


def reference_violation(tree: MistakeTree) -> str | None:
    """The first root path in preorder whose induced w0 leaves [0, 1]."""

    def e(t: MistakeTree) -> F:
        return F(0) if t.is_leaf else 1 + (e(t.zero) + e(t.one)) / 2

    stack = [(tree, "")]
    while stack:
        t, pos = stack.pop()
        if not t.is_leaf:
            if not 0 <= (1 + e(t.one) / 2 - e(t.zero) / 2) / 2 <= 1:
                return pos
            stack += [(t.one, pos + "1"), (t.zero, pos + "0")]
    return None


def weights_or_violation(weigh, tree: MistakeTree):
    """The weights' (path, pair) items in preorder, or the violation's position."""
    try:
        weights = weigh(tree).weights
    except NotQuasiBalancedError as err:
        return err.position
    assert isinstance(weights, PathWeights)
    return list(weights.items())


class TestDyadicFolds:
    """E_T, monotonicity and the weights, computed on (E * 2^h, h) integers,
    equal the Fraction folds value for value, violation position included."""

    @staticmethod
    def assert_like_reference(tree: MistakeTree, items: bool = True) -> bool:
        e = expected_branch_length(tree)
        assert type(e) is F and e == reference_expected_branch_length(tree)
        monotone = is_monotone(tree)
        assert monotone is reference_is_monotone(tree)
        if items:
            assert weights_or_violation(quasi_balance_weights, tree) == weights_or_violation(
                reference_quasi_balance_weights, tree
            )
        else:  # too many root paths to list: compare node by node, or the position
            try:
                expected = reference_quasi_balance_weights(tree).weights
            except NotQuasiBalancedError as err:
                with pytest.raises(NotQuasiBalancedError) as got:
                    quasi_balance_weights(tree)
                assert got.value.position == err.position
            else:
                assert quasi_balance_weights(tree).weights == expected
        return monotone

    def test_random_trees_monotone_or_not(self, rng):
        seen = set()
        for i in range(150):
            t = random_tree(rng, max_depth=7, leaf_prob=0.3)
            seen.add(self.assert_like_reference(monotonize(t) if i % 3 == 0 else t))
        assert seen == {True, False}

    def test_shared_dags(self, rng):
        seen = set()
        for _ in range(150):
            seen.add(self.assert_like_reference(random_dag(rng, size=rng.randint(1, 14))))
        assert seen == {True, False}
        for depth in (1, 5, 60):
            t = complete_tree(4)
            for _ in range(depth):
                t = node("x", t, node("y", t, LEAF))
            self.assert_like_reference(t, items=depth < 20)

    def test_extracted_trees(self):
        for w, horizon in ((universal_class(2, 2), 12), (universal_class(3, 1), 8)):
            tree, weights = Solver().extract_optimal_tree(w, horizon)
            assert self.assert_like_reference(tree, items=False)
            assert weights.weights == reference_quasi_balance_weights(tree).weights

    @pytest.mark.parametrize("bottom", ["leaf", "violation"])
    def test_a_3000_deep_path(self, bottom):
        # A complete depth-4 subtree beside a leaf is not monotone, and its E_T
        # is 3; above it E_T stays 3 with E_0 - E_1 = 2, so only it violates.
        t = LEAF if bottom == "leaf" else node("r", complete_tree(4), LEAF)
        for _ in range(3000):
            t = node("x", t, complete_tree(1))
        with recursion_limit(1_000):
            assert self.assert_like_reference(t, items=False) is (bottom == "leaf")
            if bottom == "violation":
                with pytest.raises(NotQuasiBalancedError) as err:
                    quasi_balance_weights(t)
                assert err.value.position == "0" * 3000


class TestRepr:
    """The repr lists a few distinct nodes, so it is short for any tree."""

    def test_small_trees_list_every_node(self):
        assert repr(LEAF) == "MistakeTree(leaf)"
        t = node("a", LEAF, node("b", LEAF, LEAF))
        assert repr(t) == "MistakeTree(#0=('a', leaf, #1), #1=('b', leaf, leaf))"
        shared = node("c", t, t)
        assert repr(shared) == (
            "MistakeTree(#0=('c', #1, #1), #1=('a', leaf, #2), #2=('b', leaf, leaf))"
        )

    def test_a_5000_deep_path_under_the_default_limit(self):
        t = deep_left_path(5000)
        with recursion_limit(1_000):
            text = repr(t)
        assert text.startswith("MistakeTree(#0=('x', #1, leaf), #1=('x', #2, leaf), ")
        assert text.endswith(", ...)") and len(text) < 400

    def test_a_dag_with_2_to_the_60_paths(self):
        text = repr(complete_tree(60, instance="i" * 1000))
        assert text.startswith("MistakeTree(#0=('iii") and text.endswith(", #8, #8), ...)")
        assert text.count("#") == 3 * 8 and len(text) < 600


class TestViolationPosition:
    def test_random_trees_match_the_per_path_walk(self, rng):
        seen = set()
        for i in range(300):
            t = random_dag(rng, size=9) if i % 2 else random_tree(rng, max_depth=7, leaf_prob=0.3)
            expected = reference_violation(t)
            try:
                quasi_balance_weights(t)
                position = None
            except NotQuasiBalancedError as err:
                position = err.position
            assert position == expected
            seen.add(len(position) if position is not None else None)
        assert None in seen and len(seen) > 3

    def test_a_dag_with_2_to_the_60_paths(self):
        # The one violating node sits below 60 shared levels; its first root
        # path in preorder is all zeros.
        t = node("r", complete_tree(4), LEAF)
        for _ in range(60):
            t = node("x", t, t)
        with pytest.raises(NotQuasiBalancedError) as err:
            quasi_balance_weights(t)
        assert err.value.position == "0" * 60


def tree_positions(tree: MistakeTree) -> list[str]:
    """Every root path of a (small) tree, leaves included."""
    out, stack = [], [(tree, "")]
    while stack:
        t, pos = stack.pop()
        out.append(pos)
        if not t.is_leaf:
            stack += [(t.one, pos + "1"), (t.zero, pos + "0")]
    return out


def path_weights(tree: MistakeTree, rng: random.Random, per_node: bool) -> dict[str, tuple[F, F]]:
    """Random w0 per root path: one per distinct node, or one per path."""
    by_node: dict[int, F] = {}
    out, stack = {}, [(tree, "")]
    while stack:
        t, pos = stack.pop()
        if not t.is_leaf:
            w0 = by_node.setdefault(id(t), F(rng.randint(0, 8), 8)) if per_node else F(rng.randint(0, 8), 8)
            out[pos] = (w0, 1 - w0)
            stack += [(t.one, pos + "1"), (t.zero, pos + "0")]
    return out


def json_objects(doc) -> list[dict]:
    """Every JSON object of a decoded tree file, in preorder."""
    out, stack = [], [doc]
    while stack:
        d = stack.pop()
        if isinstance(d, dict):
            out.append(d)
            stack += [d.get("one"), d.get("zero")]
    return out


def outcome(parse, text: str):
    """(tree, weight per root path) of a parse, or its error's type and message."""
    try:
        tree, weights = parse(text)
    except ValueError as err:
        return type(err), str(err)
    at = {}
    for pos in tree_positions(tree):
        try:
            at[pos] = weights.at(pos) if weights is not None else None
        except KeyError:
            at[pos] = "missing"
    return tree, len(distinct_nodes(tree)), at


class TestCodecReference:
    """The per-node codec against the per-path recursive one it replaced:
    the reader on nested text, the nested writer byte for byte, and the flat
    writer through a round trip."""

    KINDS = ("node", "path", "partial", "absent")

    def document(self, rng, kind: str) -> tuple[MistakeTree, str]:
        t = random_dag(rng, size=rng.randint(0, 10))
        if kind == "absent":
            return t, reference_tree_to_json(t)
        text = reference_tree_to_json(t, WeightFunction(path_weights(t, rng, kind == "node")))
        if kind == "partial":
            doc = json.loads(text)
            for d in json_objects(doc):
                if "w0" in d and rng.random() < 0.4:
                    del d["w0"]
            text = json.dumps(doc)
        return t, text

    @pytest.mark.parametrize("kind", KINDS)
    def test_reader_matches(self, rng, kind):
        for _ in range(60):
            _, text = self.document(rng, kind)
            assert outcome(tree_from_json, text) == outcome(reference_tree_from_json, text)

    @pytest.mark.parametrize("kind", KINDS)
    def test_writer_is_byte_equal(self, rng, kind):
        for _ in range(60):
            t, text = self.document(rng, kind)
            parsed = tree_from_json(text)
            for args in (parsed, reference_tree_from_json(text)):
                try:
                    expected = reference_tree_to_json(*args)
                except KeyError as err:  # partial weights: the same missing position
                    for writer in (tree_to_json, reference_nested_json):
                        with pytest.raises(KeyError) as ours:
                            writer(*args)
                        assert ours.value.args == err.args
                    continue
                assert reference_nested_json(*args) == expected == text
                flat = tree_to_json(*args)
                assert outcome(tree_from_json, flat) == outcome(reference_tree_from_json, text)
                assert tree_to_json(*tree_from_json(flat)) == tree_to_json(*parsed)

    def test_writer_with_computed_weights(self, rng):
        for _ in range(60):
            t = monotonize(random_dag(rng, size=10))
            w = quasi_balance_weights(t)
            assert reference_nested_json(t, w) == reference_tree_to_json(t, w)
            parsed, parsed_w = tree_from_json(tree_to_json(t, w))
            assert parsed == t and parsed_w.weights == w.weights

    @staticmethod
    def mutate(d: dict, mutation: str, rng: random.Random) -> None:
        if mutation == "child-not-object":
            d[rng.choice(["zero", "one"])] = rng.choice([5, [], "x", None, [{"leaf": True}]])
        elif mutation == "missing-field":
            d.pop(rng.choice(["instance", "zero", "one"]), None)
        elif mutation == "instance-not-string":
            d["instance"] = rng.choice([5, ["x"], None, {"leaf": True}, {}])
        elif mutation == "w0-unhashable":
            d["w0"] = rng.choice([[1], {"a": 1}, {}])
        elif mutation == "w0-not-rational":
            d["w0"] = rng.choice(["abc", None, "1/0", float("nan"), "", True, 0.5])
        else:  # a leaf, or something read as one, carrying other keys
            junk = [{"leaf": True, "junk": [1]}, {"leaf": 1, "instance": 5}, {"leaf": {"x": 1}},
                    {"leaf": {}}, {"leaf": []}, {"leaf": False, "instance": "a"}, {}]
            d.clear()
            d.update(rng.choice(junk))

    @pytest.mark.parametrize("mutation", [
        "child-not-object", "missing-field", "instance-not-string", "w0-unhashable",
        "w0-not-rational", "leaf-with-junk", "root-not-object",
    ])
    def test_malformed_documents_fail_alike(self, rng, mutation):
        failures = 0
        for _ in range(80):
            _, text = self.document(rng, rng.choice(self.KINDS))
            doc = json.loads(text)
            if mutation == "root-not-object":
                doc = rng.choice([[doc], 5, "x", None, []])
            else:  # one or two objects, so that malformed siblings compete
                objects = json_objects(doc)
                for d in rng.sample(objects, min(len(objects), rng.randint(1, 2))):
                    self.mutate(d, mutation, rng)
            text = json.dumps(doc)
            expected = outcome(reference_tree_from_json, text)
            assert outcome(tree_from_json, text) == expected
            failures += expected[0] is ValueError
        assert failures > 0


# The (n, k, slack) cells whose trees the benchmark's strategy workload extracts.
STRATEGY_CELLS = [
    (2, 1, "1/16"), (2, 1, "1/64"), (2, 2, "1/16"), (2, 2, "1/64"), (2, 3, "1/16"),
    (2, 3, "1/64"), (2, 4, "1/16"), (2, 4, "1/64"), (2, 5, "1/64"), (3, 1, "1/16"),
    (3, 1, "1/64"), (3, 2, "1/16"), (3, 2, "1/64"), (3, 3, "1/16"), (3, 3, "1/64"),
    (4, 1, "1/16"), (4, 1, "1/64"),
]


@pytest.fixture(scope="module")
def strategy_files() -> dict[tuple, str]:
    """Each strategy cell's nested tree file, as the CLI wrote it before the
    flat form."""
    solver, out = Solver(), {}
    for n, k, slack in STRATEGY_CELLS:
        w = universal_class(n, k)
        tree, weights = solver.extract_optimal_tree(w, solver.horizon_for_slack(w, F(slack)))
        out[n, k, slack] = reference_nested_json(tree, weights) + "\n"
    return out


@st.composite
def shared_dags(draw) -> MistakeTree:
    """Built bottom up, each node over two earlier ones; "\u00e9" is written
    escaped."""
    pool = [LEAF]
    for _ in range(draw(st.integers(0, 11))):
        instance = draw(st.sampled_from(["a", "b", "c", "a b", "\u00e9"]))
        pool.append(node(instance, draw(st.sampled_from(pool[-4:])), draw(st.sampled_from(pool))))
    return pool[-1]


def weighed(tree: MistakeTree, kind: str, seed: int) -> WeightFunction | None:
    """No weights, one random ``w0`` per distinct node, or one per root path."""
    if kind == "absent":
        return None
    return WeightFunction(path_weights(tree, random.Random(seed), kind == "node"))


def reordered(d):
    """A decoded JSON value with every object's keys in reverse order."""
    return {k: reordered(v) for k, v in reversed(d.items())} if isinstance(d, dict) else d


_SMALL = node("x", node("y", LEAF, LEAF), node("y", LEAF, LEAF))
BASE = reference_nested_json(_SMALL, quasi_balance_weights(_SMALL))
HALVES = {"": (F(1, 2), F(1, 2)), "0": (F(1, 2), F(1, 2)), "1": (F(1, 2), F(1, 2))}


class TestScanner:
    """Nested files, in any layout, read through ``json.loads`` to the
    reference reader's tree and weights."""

    def test_strategy_trees_read_alike(self, strategy_files):
        for text in strategy_files.values():
            assert outcome(tree_from_json, text) == outcome(reference_tree_from_json, text)

    @given(shared_dags(), st.sampled_from(["absent", "node", "path"]), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_shared_dags_read_alike(self, tree, kind, seed):
        text = reference_nested_json(tree, weighed(tree, kind, seed))
        assert outcome(tree_from_json, text) == outcome(reference_tree_from_json, text)

    @pytest.mark.parametrize("text, expected", [
        (json.dumps(json.loads(BASE), indent=2), (_SMALL, HALVES)),
        (json.dumps(reordered(json.loads(BASE))), (_SMALL, HALVES)),
        (BASE.replace('"instance": "x"', '"instance": "\\u0078"'), (_SMALL, HALVES)),
        (BASE.replace('"instance": "x"', '"instance": "\u00e9"'),
         (node("\u00e9", _SMALL.zero, _SMALL.one), HALVES)),
        (" " + BASE, (_SMALL, HALVES)),
        (BASE + "\n x", "Extra data: line 2 column 2 (char 205)"),
        (BASE.replace('"instance": "x"', '"instance": "x", "instance": "z"'),
         (node("z", _SMALL.zero, _SMALL.one), HALVES)),
        (BASE.replace('"w0": "1/2"}', '"w0": "1/2", "w0": "1/3"}', 1),
         (_SMALL, {**HALVES, "0": (F(1, 3), F(2, 3))})),
        (BASE.replace('"w0": "1/2"}', '"w0": "abc"}', 1), "tree node at '0': w0 is not a rational number"),
        (BASE.replace('"w0": "1/2"}', '"w0": "1/0"}', 1), "tree node at '0': w0 is not a rational number"),
        ('{"leaf": 1}', (LEAF, None)),
    ], ids=["indented", "key-order", "escaped-instance", "non-ascii-instance",
            "leading-whitespace", "trailing-garbage", "duplicate-instance", "duplicate-w0",
            "w0-unparsable", "w0-zero-denominator", "leaf-one"])
    def test_other_layouts_read_by_json(self, text, expected):
        # ``expected`` is the error's message, or the tree and its weights; of
        # a key given twice in one object, the last one counts.
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                tree_from_json(text)
            assert str(err.value) == expected
            return
        tree, weights = tree_from_json(text)
        assert tree == expected[0]
        assert (None if weights is None else dict(weights.weights)) == expected[1]


def nested_of_flat(doc: dict):
    """The nested document a flat one stands for, each row expanded once per
    root path (so only for small trees)."""
    rows = doc["nodes"]

    def expand(i):
        if i is None:
            return {"leaf": True}
        row = rows[i]
        d = {"instance": row[0], "zero": expand(row[1]), "one": expand(row[2])}
        if len(row) == 4:
            d["w0"] = row[3]
        return d

    return expand(doc["root"])


class TestFlatFiles:
    """The flat form: one row per distinct subtree, read back to the tree and
    weights the nested form of the same file gives."""

    @given(shared_dags(), st.sampled_from(["absent", "node", "path", "partial"]), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_round_trips(self, tree, kind, seed):
        weights = weighed(tree, "node" if kind == "partial" else kind, seed)
        text = tree_to_json(tree, weights)
        assert text == json.dumps(json.loads(text))  # the json.dumps layout
        if kind == "partial":  # a file the writer never gives: some rows lack w0
            doc = json.loads(text)
            rng = random.Random(seed)
            for row in doc["nodes"]:
                if rng.random() < 0.4:
                    del row[3]
            text = json.dumps(doc)
        nested = json.dumps(nested_of_flat(json.loads(text)))
        assert outcome(tree_from_json, text) == outcome(reference_tree_from_json, nested)
        assert outcome(tree_from_json, text) == outcome(tree_from_json, nested)
        parsed, parsed_w = tree_from_json(text)
        assert parsed == tree
        if kind != "partial":  # a lone leaf's empty weights read back as none
            assert dict(parsed_w.weights if parsed_w else {}) == dict(weights.weights if weights else {})
            again = tree_to_json(parsed, parsed_w)
            assert tree_to_json(*tree_from_json(again)) == again

    @given(shared_dags(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_a_missing_weight_raises_where_the_nested_writer_does(self, tree, seed):
        if tree.is_leaf:
            return
        paths = path_weights(tree, random.Random(seed), True)
        rng = random.Random(seed)
        weights = WeightFunction({p: w for p, w in paths.items() if rng.random() < 0.7})
        try:
            reference_nested_json(tree, weights)
        except KeyError as err:
            with pytest.raises(KeyError) as ours:
                tree_to_json(tree, weights)
            assert ours.value.args == err.args
        else:
            assert tree_from_json(tree_to_json(tree, weights))[0] == tree

    def test_rows_follow_the_distinct_nodes(self, strategy_files):
        for (n, k, slack), nested in strategy_files.items():
            tree, weights = tree_from_json(nested)
            doc = json.loads(tree_to_json(tree, weights))
            assert len(doc["nodes"]) == len(distinct_nodes(tree)) - 1  # no leaf row
            assert doc["root"] == len(doc["nodes"]) - 1

    def test_other_layouts_read_alike(self):
        t = node("x", node("y", LEAF, LEAF), node("y", LEAF, LEAF))
        text = tree_to_json(t, quasi_balance_weights(t))
        doc = json.loads(text)
        for variant in (json.dumps(doc, indent=2), json.dumps(dict(reversed(doc.items()))),
                        " " + text + "\n", text.replace('"x"', '"\\u0078"')):
            assert outcome(tree_from_json, variant) == outcome(tree_from_json, text)

    ROW = ["x", None, None, "1/2"]

    @pytest.mark.parametrize("doc, message", [
        ({"root": 0, "nodes": [["x", None]]}, "row 0: expected [instance, zero, one]"),
        ({"root": 0, "nodes": [ROW + ["1/2"]]}, "row 0: expected [instance, zero, one]"),
        ({"root": 0, "nodes": [{"leaf": True}]}, "row 0: expected [instance, zero, one]"),
        ({"root": 1, "nodes": [ROW, [5, 0, 0]]}, "row 1: instance must be a string"),
        ({"root": 1, "nodes": [ROW, [None, 0, 0]]}, "row 1: instance must be a string"),
        ({"root": 1, "nodes": [ROW, ["y", "0", 0]]}, "row 1: zero must be null or the index of an earlier row"),
        ({"root": 1, "nodes": [ROW, ["y", 0, False]]}, "row 1: one must be null or the index of an earlier row"),
        ({"root": 1, "nodes": [ROW, ["y", 0, 0.0]]}, "row 1: one must be null or the index of an earlier row"),
        ({"root": 1, "nodes": [ROW, ["y", -1, 0]]}, "row 1: zero must be null or the index of an earlier row"),
        ({"root": 1, "nodes": [ROW, ["y", 0, 2], ROW]}, "row 1: one must be null or the index of an earlier row"),
        ({"root": 1, "nodes": [ROW, ["y", 1, 0]]}, "row 1: zero must be null or the index of an earlier row"),
        ({"root": 0, "nodes": [["x", None, None, 0.5]]}, "row 0: w0 must be a rational number string"),
        ({"root": 0, "nodes": [["x", None, None, None]]}, "row 0: w0 must be a rational number string"),
        ({"root": 0, "nodes": [["x", None, None, "abc"]]}, "row 0: w0 must be a rational number string"),
        ({"root": 0, "nodes": [["x", None, None, "1/0"]]}, "row 0: w0 must be a rational number string"),
        ({"root": 1, "nodes": [ROW]}, "root must be null or the index of a row"),
        ({"root": False, "nodes": [ROW]}, "root must be null or the index of a row"),
        ({"root": "0", "nodes": [ROW]}, "root must be null or the index of a row"),
        ({"nodes": [ROW]}, "root must be null or the index of a row"),
        ({"root": None, "nodes": {}}, '"nodes" must be an array'),
    ], ids=[
        "row-too-short", "row-too-long", "row-not-array", "instance-number", "instance-null",
        "child-string", "child-bool", "child-float", "child-negative", "child-forward",
        "child-cycle", "w0-number", "w0-null", "w0-unparsable", "w0-zero-denominator",
        "root-out-of-range", "root-bool", "root-string", "root-missing", "nodes-not-array",
    ])
    def test_malformed_rows_rejected(self, doc, message):
        with pytest.raises(ValueError) as err:
            tree_from_json(json.dumps(doc))
        assert str(err.value).startswith("tree file") and message in str(err.value)


def statistics_by_branches(tree: MistakeTree) -> tuple[F, int, int, bool]:
    """(E_T, depth, m_T, monotone) from the root paths that :func:`branches`
    lists: E of the subtree at each label prefix p sums, over the branches
    through p, (|b| - |p|) / 2^(|b| - |p|), and a leaf's is 0."""
    paths = [tuple(y for _, y in b) for b in branches(tree)]
    e: dict[tuple, F] = {}
    for b in paths:
        for i in range(len(b)):
            e[b[:i]] = e.get(b[:i], 0) + F(len(b) - i, 2 ** (len(b) - i))
    monotone = all(abs(e.get(p + (0,), 0) - e.get(p + (1,), 0)) <= 2 for p in e)
    lengths = list(map(len, paths))
    return e.get((), F(0)), max(lengths), min(lengths), monotone


class TestOneFold:
    @given(shared_dags())
    @settings(max_examples=300, deadline=None)
    def test_statistics_equal_the_branch_enumeration(self, tree):
        stats = tree_statistics(tree)
        assert stats == statistics_by_branches(tree)
        assert stats == (expected_branch_length(tree), depth(tree), min_branch_length(tree), is_monotone(tree))


def outcome_of(f, *args):
    """What ``f(*args)`` returns, or the type and arguments of its error."""
    try:
        return f(*args)
    except (KeyError, ValueError) as err:
        return type(err), err.args


class TestOneOrder:
    """The flat writer in ``_fold``'s children-first order and the root paths
    of the lazy preorder, against the link-list walk they replaced."""

    @given(
        shared_dags(),
        st.sampled_from(["absent", "node", "path", "partial"]),
        st.integers(0, 2**32),
        st.sets(st.sampled_from(["a", "b", "c", "a b", "é"])),
    )
    @settings(max_examples=300, deadline=None)
    def test_files_and_errors_equal_the_walk_references(self, tree, kind, seed, points):
        rng = random.Random(seed)
        if kind == "partial":
            paths = path_weights(tree, rng, True)
            weights = WeightFunction({p: w for p, w in paths.items() if rng.random() < 0.7})
        else:
            weights = weighed(tree, kind, seed)
        assert outcome_of(tree_to_json, tree, weights) == outcome_of(reference_flat_json, tree, weights)
        assert outcome_of(quasi_balance_weights, tree) == outcome_of(reference_quasi_balance_weights, tree)
        # The first instance in preorder outside the domain names the error.
        w = WeightedClass(Domain(tuple(sorted(points))), (Member("h", (0,) * len(points), 1),))
        assert outcome_of(shatter_check, tree, w) == outcome_of(reference_shatter_check, tree, w)

