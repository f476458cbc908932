import hashlib
import math
import random
from fractions import Fraction as F
from functools import partial

import pytest
from conftest import (
    all_shattered_trees,
    oracle_bounded,
    random_weighted_class,
    recursion_limit,
    reference_branch_length_law,
    reference_count_law,
    reference_count_solver,
    reference_count_splits,
    reference_frame_brl,
    reference_frame_l,
    reference_horizon_for_slack,
    reference_nested_json,
    reference_u_expand,
    reference_u_moves,
    reference_x_expand,
    reference_x_moves,
    trim_counts,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from littlestone.classes import (
    Domain,
    ExpertClass,
    Member,
    WeightedClass,
    expert_class,
    restrict,
    universal_class,
)
from littlestone import dimension
from littlestone.dimension import (
    EMPTY,
    ComputeBudgetError,
    Solver,
    _COUNTS,
    _Frame,
    _lattice,
    _levels,
    _pack,
    _u_above,
    _volume,
    _W,
)
from littlestone.experts import mstar2_closed_form
from littlestone.trees import (
    expected_branch_length,
    is_monotone,
    min_branch_length,
    node,
    quasi_balance_weights,
    shatter_check,
    tree_to_json,
    tree_weight,
)

solver = Solver()


def single_hypothesis(budget: int) -> WeightedClass:
    return WeightedClass(Domain(("x", "y")), (Member("h", (0, 1), budget),))


def singletons(n: int) -> WeightedClass:
    pts = tuple(f"p{i}" for i in range(n))
    members = tuple(
        Member(f"s{i}", tuple(int(i == j) for j in range(n)), 0) for i in range(n)
    )
    return WeightedClass(Domain(pts), members)


EMPTY_CLASS = WeightedClass(Domain(("x",)), ())
EMPTY_DOMAIN = WeightedClass(Domain(()), (Member("h", (), 2),))


class TestLittlestone:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_single_hypothesis_budget(self, k):
        assert solver.littlestone(single_hypothesis(k)) == k

    @pytest.mark.parametrize("n", range(1, 65))
    def test_experts_realizable_is_log(self, n):
        assert solver.littlestone(expert_class(n, 0)) == int(math.log2(n))

    @pytest.mark.parametrize("k", range(0, 9))
    def test_two_experts(self, k):
        assert solver.littlestone(universal_class(2, k)) == 2 * k + 1

    def test_empty_class(self):
        assert solver.littlestone(EMPTY_CLASS) == EMPTY

    def test_empty_domain(self):
        assert solver.littlestone(EMPTY_DOMAIN) == 0


class TestRandomizedLittlestone:
    @pytest.mark.parametrize("k", range(0, 21))
    def test_single_expert(self, k):
        assert solver.randomized_littlestone(expert_class(1, k)) == k

    @pytest.mark.parametrize("k", range(0, 9))
    def test_two_experts_closed_form(self, k):
        expected = k + F((2 * k + 1) * math.comb(2 * k, k), 2 * 4**k)
        assert solver.randomized_littlestone(universal_class(2, k)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_singletons(self, n):
        assert solver.randomized_littlestone(singletons(n)) == 1 - F(1, 2 ** (n - 1))

    def test_singletons_against_oracle(self):
        # The n=3 value is attained at depth 2 already; the depth-4 oracle
        # confirms no deeper shattered tree does better.
        for n in (2, 3):
            e, _ = oracle_bounded(singletons(n), 4)
            assert e / 2 == solver.randomized_littlestone(singletons(n))

    def test_empty_class(self):
        assert solver.randomized_littlestone(EMPTY_CLASS) == F(EMPTY)

    def test_empty_domain(self):
        assert solver.randomized_littlestone(EMPTY_DOMAIN) == 0


class TestBoundedDimensions:
    @pytest.mark.parametrize("t", range(0, 8))
    def test_single_hypothesis_geometric(self, t):
        w = single_hypothesis(1)
        assert solver.bounded_randomized_littlestone(w, t) == 1 - F(1, 2**t)

    def test_truncation_when_horizon_below_dimension(self):
        # RL(U_2, k=3) = 131/32 > 2, so four rounds are worth exactly 2.
        assert solver.bounded_randomized_littlestone(universal_class(2, 3), 4) == 2

    def test_horizon_zero(self, rng):
        for _ in range(10):
            w = random_weighted_class(rng)
            assert solver.bounded_randomized_littlestone(w, 0) == 0

    def test_bounded_deterministic_is_min(self):
        w = universal_class(2, 1)
        assert solver.bounded_littlestone(w, 2) == 2
        assert solver.bounded_littlestone(w, 9) == 3
        assert solver.bounded_littlestone(EMPTY_CLASS, 5) == EMPTY

    def test_monotone_convergence(self, rng):
        classes = [universal_class(2, 1), single_hypothesis(2)]
        for _ in range(5):
            classes.append(random_weighted_class(rng))
        for w in classes:
            rl = solver.randomized_littlestone(w)
            horizon = solver.horizon_for_slack(w, F(1, 1024))
            prev = F(-1)
            for t in range(horizon + 1):
                v = solver.bounded_randomized_littlestone(w, t)
                assert prev <= v <= min(F(t, 2), rl)
                prev = v
            assert solver.bounded_randomized_littlestone(w, horizon) >= rl - F(1, 1024)

    def test_half_horizon_regime(self, rng):
        # Whenever T <= RL(W), every round is worth exactly half a mistake.
        for _ in range(30):
            w = random_weighted_class(rng, max_budget=2)
            rl = solver.randomized_littlestone(w)
            for t in range(0, int(rl) + 1):
                assert solver.bounded_randomized_littlestone(w, t) == F(t, 2)


class TestOracleEquivalence:
    def test_bounded_dimensions_match_oracle_random(self, rng):
        for _ in range(40):
            w = random_weighted_class(rng, max_points=3, max_members=3, max_budget=1)
            e, m = oracle_bounded(w, 4)
            assert e / 2 == solver.bounded_randomized_littlestone(w, 4)
            assert m == solver.bounded_littlestone(w, 4)

    def test_oracle_against_literal_enumeration(self):
        # Sanity-check the oracle itself by materializing every shattered
        # tree on toy classes.
        toys = [
            WeightedClass(
                Domain(("p", "q")),
                (Member("a", (0, 1), 1), Member("b", (1, 1), 0)),
            ),
            singletons(2),
            single_hypothesis(1),
        ]
        for w in toys:
            trees = all_shattered_trees(w, 3)
            best_e = max(expected_branch_length(t) for t in trees)
            best_m = max(min_branch_length(t) for t in trees)
            e, m = oracle_bounded(w, 3)
            assert (best_e, best_m) == (e, m)

    def test_expert_compression_matches_explicit(self):
        grid = [(n, k) for n in range(1, 5) for k in range(3)]
        pairs = [(expert_class(n, k), universal_class(n, k)) for n, k in grid]
        pairs.append((expert_class(5, 1), universal_class(5, 1)))
        for budgets in ((0, 1, 2), (2, 0, 0, 1), (3, 1)):
            pairs.append((ExpertClass(budgets), ExpertClass(budgets).explicit()))
        for compressed, explicit in pairs:
            assert solver.littlestone(compressed) == solver.littlestone(explicit)
            assert solver.randomized_littlestone(
                compressed
            ) == solver.randomized_littlestone(explicit)
            for t in range(5):
                assert solver.bounded_randomized_littlestone(
                    compressed, t
                ) == solver.bounded_randomized_littlestone(explicit, t)

    def test_asymmetric_two_expert_budgets_closed_form(self):
        # Two experts with budgets (k, l): the randomized dimension has a
        # closed form in binomial tails and the deterministic one is k+l+1.
        def upper_tail(m, j):
            return sum(math.comb(m, i) for i in range(j, m + 1))

        for k in range(5):
            for l in range(5):
                w = ExpertClass((k, l))
                expected = F(
                    k * upper_tail(k + l + 1, l + 1)
                    + l * upper_tail(k + l + 1, k + 1)
                    + (k + l + 1) * math.comb(k + l, k),
                    2 ** (k + l + 1),
                )
                assert solver.randomized_littlestone(w) == expected
                assert solver.littlestone(w) == k + l + 1


class TestSandwichAndMonotonicity:
    def test_rand_vs_det_sandwich(self, rng):
        classes = [universal_class(2, k) for k in range(3)]
        classes += [random_weighted_class(rng, max_budget=2) for _ in range(40)]
        for w in classes:
            rl = solver.randomized_littlestone(w)
            l = solver.littlestone(w)
            assert rl <= l <= 2 * rl

    def test_restriction_monotonicity(self, rng):
        for _ in range(40):
            w = random_weighted_class(rng, max_budget=2)
            rl = solver.randomized_littlestone(w)
            l = solver.littlestone(w)
            for x in w.domain:
                for y in (0, 1):
                    r = restrict(w, x, y)
                    assert solver.randomized_littlestone(r) <= rl
                    assert solver.littlestone(r) <= l


class TestExtraction:
    def test_two_experts_depth_one(self):
        tree, weights = solver.extract_optimal_tree(universal_class(2, 0), 1)
        assert tree.instance == "01"
        assert tree.zero.is_leaf and tree.one.is_leaf
        assert weights.at("") == (F(1, 2), F(1, 2))
        assert tree_weight(tree) == F(1, 2)

    def test_single_hypothesis_budget_one_is_left_path(self):
        w = single_hypothesis(1)
        tree, _ = solver.extract_optimal_tree(w, 3)
        assert expected_branch_length(tree) == F(7, 4)
        t, d = tree, 0
        while not t.is_leaf:
            assert t.one.is_leaf  # the charged label hangs a leaf each level
            t, d = t.zero, d + 1
        assert d == 3

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_truncated_single_hypothesis_value(self, d):
        # Depth-d cut of the infinite single-hypothesis strategy.
        tree, _ = solver.extract_optimal_tree(single_hypothesis(1), d)
        assert expected_branch_length(tree) == 2 - F(2, 2**d)

    @pytest.mark.parametrize("w,horizon", [(universal_class(2, 2), 6), (universal_class(3, 1), 5)])
    def test_extraction_builds_each_distinct_node_once(self, w, horizon, monkeypatch):
        built = []

        def counted(instance, zero, one):
            built.append(instance)
            return node(instance, zero, one)

        monkeypatch.setattr(dimension, "node", counted)
        tree = Solver()._extract_tree(w, horizon)
        internal, stack = set(), [tree]
        while stack:
            t = stack.pop()
            if not t.is_leaf and id(t) not in internal:
                internal.add(id(t))
                stack += (t.zero, t.one)
        assert len(built) == len(internal)

    def test_two_expert_states_use_disagreement_points(self):
        w = universal_class(2, 1)
        tree, _ = solver.extract_optimal_tree(w, 4)

        def walk(t, cls):
            if t.is_leaf:
                return
            if len(cls.members) >= 2:
                assert t.instance in ("01", "10")
            walk(t.zero, restrict(cls, t.instance, 0))
            walk(t.one, restrict(cls, t.instance, 1))

        walk(tree, w)

    @pytest.mark.parametrize(
        "w,horizon",
        [
            (universal_class(2, 1), 4),
            (universal_class(2, 2), 6),
            (universal_class(3, 1), 3),
            (single_hypothesis(2), 5),
        ],
    )
    def test_extracted_trees_are_certified(self, w, horizon):
        tree, weights = solver.extract_optimal_tree(w, horizon)
        value = solver.bounded_randomized_littlestone(w, horizon)
        assert tree_weight(tree) == value
        assert is_monotone(tree)
        assert shatter_check(tree, w).ok
        recomputed = quasi_balance_weights(tree)
        assert recomputed.weights == weights.weights

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            solver.extract_optimal_tree(EMPTY_CLASS, 3)

    def test_u28_at_slack_1_64_weighs_every_path_in_dag_time(self):
        w = universal_class(2, 8)
        fresh = Solver()
        _, weights = fresh.extract_optimal_tree(w, fresh.horizon_for_slack(w, F(1, 64)))
        assert len(weights.weights) == 12_949_081

    @pytest.mark.parametrize(
        "n, k, horizon, digest",
        [
            (2, 1, 8, "f27f192c10ddb22a"),
            (2, 2, 12, "3ce66cf43f17e25b"),
            (2, 3, 14, "88b4247e60833556"),
            (2, 4, 18, "6783eaa0a0febb9e"),
            (2, 5, 22, "79f8d4416313029c"),
            (3, 1, 8, "ee56f4a096eea139"),
            (3, 2, 10, "31597a5bc79dbd26"),
            (3, 3, 12, "f5cbc735fcb5863b"),
            (4, 1, 8, "d99cf772c487b100"),
        ],
    )
    def test_extracted_bytes_pinned(self, n, k, horizon, digest):
        # The nested form, which the package wrote before the flat one.
        text = reference_nested_json(*Solver().extract_optimal_tree(universal_class(n, k), horizon))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "n, k, horizon, digest",
        [
            (2, 1, 8, "93e9aebe33fb06f0"),
            (2, 2, 12, "2780e4e22c63fff8"),
            (2, 3, 14, "ec8b74039f6c39f8"),
            (2, 4, 18, "51f202df665380a6"),
            (2, 5, 22, "431e9e0e0243a7bf"),
            (3, 1, 8, "7ab2e8ccbf5f8ce3"),
            (3, 2, 10, "4b2750d795690632"),
            (3, 3, 12, "036ee465ba141607"),
            (4, 1, 8, "40ad2b058aa647aa"),
        ],
    )
    def test_extracted_flat_bytes_pinned(self, n, k, horizon, digest):
        text = tree_to_json(*Solver().extract_optimal_tree(universal_class(n, k), horizon))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestHorizonForSlack:
    def test_two_experts_attained_at_depth_one(self):
        for slack in (F(1, 4), F(1, 100)):
            assert solver.horizon_for_slack(universal_class(2, 0), slack) == 1

    def test_single_hypothesis_budget_one(self):
        assert solver.horizon_for_slack(single_hypothesis(1), F(1, 8)) == 3

    def test_shape_bound(self):
        w = universal_class(2, 2)
        rl = float(solver.randomized_littlestone(w))
        t = solver.horizon_for_slack(w, F(1, 100))
        assert solver.bounded_randomized_littlestone(w, t) >= solver.randomized_littlestone(w) - F(1, 100)
        assert t <= 2 * rl + 10 * math.sqrt(rl) * math.log2(100 * rl)

    def test_returns_smallest(self, rng):
        for _ in range(10):
            w = random_weighted_class(rng, max_budget=1)
            t = solver.horizon_for_slack(w, F(1, 16))
            target = solver.randomized_littlestone(w) - F(1, 16)
            assert solver.bounded_randomized_littlestone(w, t) >= target
            if t > 0:
                assert solver.bounded_randomized_littlestone(w, t - 1) < target


class TestDeepInputs:
    """Horizons far past the recursion limit: the DP keeps its own stack."""

    def test_bounded_count_space(self):
        with recursion_limit(1_000):
            value = Solver().bounded_randomized_littlestone(expert_class(1, 2), 5000)
        assert 0 < value <= 2 == solver.randomized_littlestone(expert_class(1, 2))

    def test_bounded_explicit(self):
        w = expert_class(1, 2).explicit()
        with recursion_limit(1_000):
            value = Solver().bounded_randomized_littlestone(w, 5000)
        assert 0 < value <= 2 == solver.randomized_littlestone(w)

    def test_extraction_is_a_left_path(self):
        d = 3000
        with recursion_limit(1_000):
            tree, _ = Solver().extract_optimal_tree(single_hypothesis(1), d)
        assert expected_branch_length(tree) == 2 - F(2, 2**d)
        t, depth = tree, 0
        while not t.is_leaf:
            assert t.one.is_leaf
            t, depth = t.zero, depth + 1
        assert depth == d


def test_state_budget_enforced():
    tight = Solver(state_budget=2)
    with pytest.raises(ComputeBudgetError):
        tight.randomized_littlestone(universal_class(3, 2))


def test_states_visited_reported():
    s = Solver()
    s.randomized_littlestone(universal_class(2, 1))
    assert s.states_visited > 0


# -- dyadic integer engine ------------------------------------------------


def reference_rl(w: WeightedClass) -> F:
    """RL by plain Fraction recursion over raw domain points and restrict.

    A point on which every member agrees leaves the class unchanged under
    the agreeing label; that self-loop is worth 1 + RL of the other child.
    """
    memo: dict = {}

    def rec(cls: WeightedClass) -> F:
        if cls.is_empty:
            return F(-1)
        key = cls.state_key()
        if key not in memo:
            best = F(0)
            for x in cls.domain:
                w0, w1 = restrict(cls, x, 0), restrict(cls, x, 1)
                if w0.state_key() == key:
                    v = 1 + rec(w1)
                elif w1.state_key() == key:
                    v = 1 + rec(w0)
                else:
                    v = (1 + rec(w0) + rec(w1)) / 2
                best = max(best, v)
            memo[key] = best
        return memo[key]

    return rec(w)


@st.composite
def tricky_classes(draw) -> WeightedClass:
    """Small classes whose label matrix has constant columns, complementary
    columns and label rows shared by members with different budgets."""
    npts = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 1)] * npts)
    members = []
    for labels in draw(st.lists(row, min_size=1, max_size=3, unique=True)):
        budgets = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
        members += [(labels, b) for b in budgets]
    members = members[:4]
    cols = [tuple(labels[p] for labels, _ in members) for p in range(npts)]
    if draw(st.booleans()):
        cols.append(tuple(1 - b for b in cols[draw(st.integers(0, npts - 1))]))
    if draw(st.booleans()):
        cols.append((draw(st.integers(0, 1)),) * len(members))
    order = draw(st.permutations(range(len(cols))))
    cols = [cols[i] for i in order]
    domain = Domain(tuple(f"p{i}" for i in range(len(cols))))
    return WeightedClass(
        domain,
        tuple(
            Member(f"h{i}", tuple(col[i] for col in cols), b)
            for i, (_, b) in enumerate(members)
        ),
    )


class TestDyadicEngine:
    @settings(max_examples=60, deadline=None)
    @given(tricky_classes())
    def test_matches_oracle_bit_for_bit(self, w):
        s = Solver()
        rl = s.randomized_littlestone(w)
        assert rl == reference_rl(w)
        for t in range(5):
            e, _ = oracle_bounded(w, t)
            assert s.bounded_randomized_littlestone(w, t) == e / 2
        dim = s.littlestone(w)
        assert oracle_bounded(w, dim + 1)[1] == dim
        assert rl.denominator & (rl.denominator - 1) == 0

    @pytest.mark.parametrize(
        "query, expected",
        [
            (lambda s: s.randomized_littlestone(universal_class(3, 2)), 63),
            (lambda s: s.littlestone(universal_class(3, 2)), 44),
            (lambda s: s.randomized_littlestone(expert_class(8, 2)), 164),
            (lambda s: s.bounded_randomized_littlestone(expert_class(4, 3), 8), 332),
        ],
        ids=["rl-u32", "l-u32", "rl-e82", "brl8-e43"],
    )
    def test_states_visited_pinned(self, query, expected):
        s = Solver()
        query(s)
        assert s.states_visited == expected
        query(s)
        assert s.states_visited == expected

    @pytest.mark.parametrize(
        "query, passing, kept",
        [
            (lambda s: s.littlestone(universal_class(3, 2)), 40, 40),
            (lambda s: s.randomized_littlestone(expert_class(8, 2)), 164, 0),
            (lambda s: s.bounded_randomized_littlestone(expert_class(4, 3), 8), 332 + 69, 0),
            (lambda s: s.extract_optimal_tree(universal_class(2, 2), 6), 59 + 15, 0),
        ],
        ids=["l-u32", "rl-e82", "brl8-e43", "extract-u22"],
    )
    def test_budget_fires_at_pinned_points(self, query, passing, kept):
        # A frame's DP charges a state before it is expanded, so its smallest
        # passing budget sits below the final count, and a budget one short
        # stops after ``passing`` states.  A count query charges its lattice
        # up front (RL_T: each of its 332 keys and the 69 rows it holds), so
        # a budget one short stops before any state.  RL_T on a frame charges
        # its expansions as they are held (15 within 5 rounds of u(2,2)), then
        # its 59 keys up front, so it too stops before any state.  Extraction
        # adds no charge.
        query(Solver(state_budget=passing))
        tight = Solver(state_budget=passing - 1)
        with pytest.raises(ComputeBudgetError):
            query(tight)
        assert tight.states_visited == kept

    def test_public_values_are_fractions(self):
        s = Solver()
        for value in (
            s.randomized_littlestone(universal_class(2, 1)),
            s.randomized_littlestone(EMPTY_CLASS),
            s.bounded_randomized_littlestone(expert_class(3, 1), 3),
            s.bounded_randomized_littlestone(EMPTY_CLASS, 3),
        ):
            assert type(value) is F
        assert s.randomized_littlestone(EMPTY_CLASS) == -1
        assert s.bounded_randomized_littlestone(EMPTY_CLASS, 3) == -1


@st.composite
def small_expert_classes(draw) -> ExpertClass:
    """Up to four experts, some eliminated, with budgets up to 3."""
    budgets = draw(st.lists(st.none() | st.integers(0, 3), min_size=1, max_size=4))
    return ExpertClass(tuple(budgets))


SLACKS = (F(1, 2), F(1, 16), F(1, 1024))


def assert_sweep_matches_bisection(w) -> None:
    """At every slack of SLACKS, the sweep's horizon equals the doubling and
    bisection search's, and every RL_T memo entry the sweep wrote equals a
    fresh Solver's RL_T of that state."""
    for slack in SLACKS:
        s = Solver()
        horizon = s.horizon_for_slack(w, slack)
        assert horizon == reference_horizon_for_slack(Solver(), w, slack)
        v = s.version_space(w)
        memo = v.tables["brl"][0]
        assert (horizon > 0 and not v.is_empty) == ((v.state, horizon) in memo)
        fresh = Solver()
        space = fresh.version_space(w)
        for (state, t), value in memo.items():
            assert fresh.bounded_randomized_littlestone(space._child(state, None), t) == F(value, 2**t)


class TestHorizonSweep:
    @settings(max_examples=40, deadline=None)
    @given(tricky_classes())
    def test_explicit_classes_match_the_bisection(self, w):
        assert_sweep_matches_bisection(w)

    @settings(max_examples=40, deadline=None)
    @given(small_expert_classes())
    def test_expert_classes_match_the_bisection(self, w):
        assert_sweep_matches_bisection(w)

    @pytest.mark.parametrize(
        "w", [universal_class(2, 2), expert_class(3, 2), expert_class(4, 1)], ids=["u22", "e32", "e41"]
    )
    def test_memo_holds_each_state_at_each_level(self, w):
        s = Solver()
        s.randomized_littlestone(w)
        reachable = s.states_visited
        horizon = s.horizon_for_slack(w, F(1, 16))
        assert s.states_visited == reachable * (horizon + 1)
        # The extraction that follows reads memo entries only.
        if not isinstance(w, ExpertClass):
            s.extract_optimal_tree(w, horizon)
            assert s.states_visited == reachable * (horizon + 1)
        # One move table entry per live mask expanded, each for a visited state.
        assert sum(len(frame.table) for frame, _ in s._frames) <= s.states_visited

    @pytest.mark.parametrize(
        "w", [universal_class(2, 2), expert_class(3, 2), single_hypothesis(1)], ids=["u22", "e32", "h1"]
    )
    def test_budget_charges_expansions_and_levels(self, w):
        # The last level is charged with the expansions still held, on top of
        # the RL memo and the levels below: (horizon + 2) entries per state.
        s = Solver()
        s.randomized_littlestone(w)
        reachable = s.states_visited
        horizon = s.horizon_for_slack(w, F(1, 16))
        passing = reachable * (horizon + 2)
        assert Solver(state_budget=passing).horizon_for_slack(w, F(1, 16)) == horizon
        tight = Solver(state_budget=passing - 1)
        with pytest.raises(ComputeBudgetError):
            tight.horizon_for_slack(w, F(1, 16))
        # RL alone fits in a budget the sweep's expansions exceed.
        tight = Solver(state_budget=reachable)
        tight.randomized_littlestone(w)
        with pytest.raises(ComputeBudgetError):
            tight.horizon_for_slack(w, F(1, 16))


def _law_mean(law) -> F:
    return F(sum(length * c for length, c in enumerate(law)), 2 ** (len(law) - 1))


# Every expert cell with n <= 8 whose explicit extraction takes well under a
# second; e(6,2), e(7,2) and e(8,2) agree too, at 0.5-31 s of extraction each.
LAW_CELLS = [(n, k) for n, top in ((1, 5), (2, 5), (3, 5), (4, 3), (5, 2), (6, 1), (7, 1), (8, 1))
             for k in range(top + 1)]


@st.composite
def explicit_classes(draw) -> WeightedClass:
    """Classes of 2-6 points and 2-6 distinct members with budgets up to 3."""
    npts = draw(st.integers(2, 6))
    member = st.tuples(st.tuples(*[st.integers(0, 1)] * npts), st.integers(0, 3))
    rows = draw(st.lists(member, min_size=2, max_size=6, unique=True))
    return WeightedClass(
        Domain(tuple(f"p{i}" for i in range(npts))),
        tuple(Member(f"h{i}", labels, b) for i, (labels, b) in enumerate(rows)),
    )


def _law_fractions(law) -> dict[int, F]:
    return {length: F(c, 2 ** (len(law) - 1)) for length, c in enumerate(law) if c}


class TestBranchLengthLaw:
    @settings(max_examples=60, deadline=None)
    @given(tricky_classes() | small_expert_classes(), st.sampled_from(SLACKS))
    def test_sums_to_one_with_mean_e_t(self, w, slack):
        s = Solver()
        horizon = s.horizon_for_slack(w, slack)
        if s.version_space(w).is_empty:
            with pytest.raises(ValueError):
                s.branch_length_law(w, horizon)
            return
        law = s.branch_length_law(w, horizon)
        assert len(law) == horizon + 1 and sum(law) == 2**horizon and min(law) >= 0
        assert _law_mean(law) == 2 * s.bounded_randomized_littlestone(w, horizon)

    @pytest.mark.parametrize("n, k", LAW_CELLS, ids=[f"e{n},{k}" for n, k in LAW_CELLS])
    def test_equals_the_extracted_trees_law(self, n, k):
        w = expert_class(n, k)
        s = Solver()
        horizon = s.horizon_for_slack(w, F(1, 64))
        law = s.branch_length_law(w, horizon)  # on count states
        tree = s._extract_tree(w, horizon)  # over the explicit 2^n advice domain
        assert _law_fractions(law) == reference_branch_length_law(tree)

    @settings(max_examples=100, deadline=None)
    @given(explicit_classes() | tricky_classes(), st.integers(0, 8))
    def test_is_the_extracted_trees_law_on_explicit_classes(self, w, horizon):
        # One walk takes both, so on a frame they read the same tree.
        s = Solver()
        law = s.branch_length_law(w, horizon)
        assert _law_fractions(law) == reference_branch_length_law(s._extract_tree(w, horizon))

    def test_is_the_extracted_trees_law_at_u28(self):
        # Horizon 29: about 2^29 root paths over a few hundred distinct nodes.
        w, s = universal_class(2, 8), Solver()
        horizon = s.horizon_for_slack(w, F(1, 64))
        assert horizon == 29
        law = s.branch_length_law(w, horizon)
        assert _law_fractions(law) == reference_branch_length_law(s._extract_tree(w, horizon))

    @pytest.mark.parametrize("walk", ["branch_length_law", "_extract_tree"])
    @pytest.mark.parametrize(
        "w, horizon",
        [(EMPTY_CLASS, 2), (universal_class(2, 1), -1)],
        ids=["empty-class", "negative-horizon"],
    )
    def test_rejects(self, walk, w, horizon):
        with pytest.raises(ValueError):
            getattr(Solver(), walk)(w, horizon)

    @pytest.mark.parametrize(
        "w", [universal_class(2, 2), expert_class(3, 2), single_hypothesis(1)], ids=["u22", "e32", "h1"]
    )
    def test_reads_the_memo_only(self, w):
        # Under the budget the horizon search just fits, the walk adds no state.
        s = Solver()
        s.randomized_littlestone(w)
        reachable = s.states_visited
        horizon = s.horizon_for_slack(w, F(1, 16))
        tight = Solver(state_budget=reachable * (horizon + 2))
        assert tight.horizon_for_slack(w, F(1, 16)) == horizon
        visited = tight.states_visited
        assert tight.branch_length_law(w, horizon) == s.branch_length_law(w, horizon)
        assert tight.states_visited == visited

    def test_a_fresh_solver_fills_its_own_memo(self):
        w = expert_class(4, 2)
        s = Solver()
        law = Solver().branch_length_law(w, s.horizon_for_slack(w, F(1, 64)))
        assert law == s.branch_length_law(w, len(law) - 1)

    def test_small_cases(self):
        assert solver.branch_length_law(universal_class(2, 0), 0) == (1,)
        assert solver.branch_length_law(universal_class(2, 0), 3) == (0, 2**3, 0, 0)
        # One member, budget 1: the charged label ends each branch at once.
        assert solver.branch_length_law(single_hypothesis(1), 3) == (0, 4, 2, 2)
        with pytest.raises(ValueError):
            solver.branch_length_law(universal_class(2, 0), -1)


@st.composite
def repeated_row_classes(draw) -> WeightedClass:
    """Classes whose label rows are each shared by members at different budgets."""
    npts = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, 1)] * npts)
    rows = draw(st.lists(row, min_size=1, max_size=3, unique=True))
    members = []
    for labels in rows:
        for budget in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
            members.append(Member(f"h{len(members)}", labels, budget))
    return WeightedClass(Domain(tuple(f"p{i}" for i in range(npts))), tuple(members))


def _decremented(key):
    return tuple((labels, budget - 1) for labels, budget in key if budget)


@settings(max_examples=150, deadline=None)
@given(repeated_row_classes())
def test_packed_transitions_match_restrict(w):
    """Every packed child is the encoding of the restricted class in W's frame,
    for every state within two steps of W, and distinct states stay distinct."""
    frame = _Frame(w.state_key())

    def encode(v):
        state = frame.encode(v.state_key())
        assert state is not None
        return state

    encodings: dict = {}
    level = [w]
    for _ in range(3):
        nxt = []
        for v in level:
            if v.is_empty:
                assert encode(v) == 0
                continue
            state = encode(v)
            encodings[v.state_key()] = state
            assert frame.encode(_decremented(v.state_key())) == state >> frame.width
            pairs = set()
            for witness, s, child0, child1 in frame.moves(state):
                x = v.domain.points[witness]
                assert s == sum(m.labels[witness] for m in v.members)
                assert (child0, child1) == (encode(restrict(v, x, 0)), encode(restrict(v, x, 1)))
                pairs.add((child0, child1))
            for x in v.domain:
                v0, v1 = restrict(v, x, 0), restrict(v, x, 1)
                pair = (encode(v0), encode(v1))
                assert pair in pairs or pair[::-1] in pairs
                nxt += [v0, v1]
        level = nxt
    assert len(set(encodings.values())) == len(encodings)


@settings(max_examples=150, deadline=None)
@given(st.one_of(repeated_row_classes(), tricky_classes()))
def test_move_tables_match_the_per_state_reference(w):
    """For every state within three steps of W, ``_Frame.moves`` and ``_Frame.expand``
    read off the move table exactly what the per-state dedupe gives: the same
    moves, witnesses, orientation and order."""
    frame = _Frame(w.state_key())
    level = {frame.encode(w.state_key())}
    seen = set()
    for _ in range(4):  # W, then one level per step
        below = set()
        for state in level - seen:
            seen.add(state)
            if state:
                reference = list(reference_x_moves(frame, state))
                assert list(frame.moves(state)) == reference
                assert frame.expand(state) == reference_x_expand(frame, state)
                below.update(c for _, _, child0, child1 in reference for c in (child0, child1))
        level = below
    assert frame.table and len(frame.table) <= len(seen)


class TestPackedCounts:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_expansion_matches_the_tuple_reference(self, n, k):
        """Every state reachable from e(n, k) expands, decoded, to the tuple
        reference's m, P, decremented state and splits, in the same order."""
        seen = set()
        stack = [expert_class(n, k).counts()]
        while stack:
            counts = stack.pop()
            if not counts or counts in seen:
                continue
            seen.add(counts)
            dec = trim_counts(list(counts[1:]))
            splits = list(reference_count_splits(counts))
            m, power, packed_dec, packed_splits = reference_u_expand(_pack(counts))
            assert m == sum(counts)
            assert power == sum(level * c for level, c in enumerate(counts, 1))
            assert tuple(_levels(packed_dec)) == dec
            decoded = [(s, tuple(_levels(c0)), tuple(_levels(c1))) for s, c0, c1 in packed_splits]
            assert decoded == splits
            assert list(_COUNTS.moves(_pack(counts))) == list(reference_u_moves(_pack(counts)))
            stack.append(dec)
            for _, child0, child1 in splits:
                stack += [child0, child1]
        assert len(seen) > k

    def test_deep_budgets(self):
        s = Solver()
        assert s.randomized_littlestone(expert_class(1, 2000)) == 2000
        assert s.randomized_littlestone(expert_class(2, 200)) == mstar2_closed_form(200)

    def test_count_field_overflow_rejected(self):
        top = (1 << _W) - 1
        assert tuple(_levels(_pack((0, top, 1)))) == (0, top, 1)
        # A plain tuple: an expert class this large would materialize its budgets.
        for counts in ((1 << _W,), (3, 1 << _W), (1, 2, 1 << _W + 1)):
            with pytest.raises(ValueError, match="count field"):
                _pack(counts)


@st.composite
def count_roots(draw, experts=5, budget=3, examples=3) -> tuple[ExpertClass, list[tuple[str, int]]]:
    """An expert class of up to ``experts`` experts with budgets up to
    ``budget``, some eliminated, and up to ``examples`` examples that take it
    to a mid-game version space."""
    budgets = draw(st.lists(st.none() | st.integers(0, budget), min_size=1, max_size=experts))
    advice = st.text("01", min_size=len(budgets), max_size=len(budgets))
    return ExpertClass(tuple(budgets)), draw(st.lists(st.tuples(advice, st.integers(0, 1)), max_size=examples))


def _stepped(solver: Solver, w: WeightedClass | ExpertClass, examples):
    v = solver.version_space(w)
    for x, y in examples:
        v = v.step(x, y)
    return v


def _reachable(root: int) -> dict[int, int]:
    """Every count state ``root`` reaches, with its BFS depth, over the
    generator DP's children: the decremented state and both split children."""
    depth = {root: 0}
    level = [root]
    while level:
        below = []
        for state in level:
            _, _, dec, splits = reference_u_expand(state)
            for child in (dec, *(c for _, child0, child1 in splits for c in (child0, child1))):
                if child not in depth:
                    depth[child] = depth[state] + 1
                    below.append(child)
        level = below
    return depth


class TestCountLattice:
    """The count engine against the generator DP it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(count_roots())
    def test_values_and_memos_equal_the_generator_dp(self, root):
        w, examples = root
        s, ref = Solver(), reference_count_solver()
        v, r = _stepped(s, w, examples), _stepped(ref, w, examples)
        assert s.littlestone(v) == ref.littlestone(r)
        assert s.randomized_littlestone(v) == ref.randomized_littlestone(r)
        for t in (0, 1, 3, 6, 2):
            assert s.bounded_randomized_littlestone(v, t) == ref.bounded_randomized_littlestone(r, t)
        for value in ("l", "rl", "brl"):
            assert s._counts[value][0] == ref._counts[value][0]
        assert s.states_visited == ref.states_visited

    @settings(max_examples=80, deadline=None)
    @given(count_roots())
    def test_lattice_is_the_reachable_set_at_its_bfs_depths(self, root):
        w, examples = root
        state = _stepped(Solver(), w, examples).state
        states, powers, dists = _lattice(state)
        depth = _reachable(state)
        assert states == sorted(depth)
        assert dists == [depth[s] for s in states]
        assert powers == [sum(level * c for level, c in enumerate(_levels(s), 1)) for s in states]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.integers(0, 7))
    def test_branch_length_law_equals_the_generator_dp_walk(self, budgets, horizon):
        w = ExpertClass(tuple(budgets))
        assert Solver().branch_length_law(w, horizon) == reference_count_law(w, horizon)

    def test_horizon_sweep_matches_the_generator_dp(self):
        for w in (expert_class(5, 2), ExpertClass((0, 3, 1, 1)), expert_class(2, 6)):
            s, ref = Solver(), reference_count_solver()
            horizon = s.horizon_for_slack(w, F(1, 64))
            assert horizon == reference_horizon_for_slack(ref, w, F(1, 64))
            root = ref.version_space(w)
            for (state, t), value in s._counts["brl"][0].items():
                assert ref.bounded_randomized_littlestone(root._child(state, None), t) == F(value, 2**t)

    @pytest.mark.parametrize("horizon, read", [(1, 1), (2, 5), (3, 15), (8, 35)])
    def test_a_bounded_query_reads_only_the_runs_within_its_horizon(self, monkeypatch, horizon, read):
        # A run is the states that differ on level 0 only; rows are built
        # for the states within horizon - 1 rounds, one _product per run.
        # e(4,3) reaches 69 classes in 35 runs, each within 4 rounds.
        w = expert_class(4, 3)
        states, _, dists = _lattice(_pack(w.counts()))
        runs = {s >> _W for s, d in zip(states, dists) if s and d < horizon}
        ref = reference_count_solver()
        value = ref.bounded_randomized_littlestone(w, horizon)
        calls = []
        product = dimension._product
        monkeypatch.setattr(dimension, "_product", lambda *args: calls.append(args) or product(*args))
        s = Solver()
        assert s.bounded_randomized_littlestone(w, horizon) == value
        assert s._counts["brl"][0] == ref._counts["brl"][0]
        assert len(calls) == len(runs) == read

    def test_a_horizon_search_builds_one_lattice(self, monkeypatch):
        # The RL target's sweep and the rows read the same lattice.
        w = expert_class(3, 2)
        ref = reference_count_solver()
        horizon = reference_horizon_for_slack(ref, w, F(1, 64))
        calls = []
        lattice = dimension._lattice
        monkeypatch.setattr(
            dimension, "_lattice", lambda root, horizon=None: calls.append(root) or lattice(root, horizon)
        )
        s = Solver()
        assert s.horizon_for_slack(w, F(1, 64)) == horizon
        assert calls == [_pack(w.counts())]
        assert s._counts["rl"][0] == ref._counts["rl"][0]

    @pytest.mark.parametrize("n, k, rl", [(128, 1, F(85, 16)), (32, 2, F(733, 128))])
    def test_wide_cells_pinned(self, n, k, rl):
        assert Solver().randomized_littlestone(expert_class(n, k)) == rl

    @settings(max_examples=80, deadline=None)
    @given(small_expert_classes(), st.integers(1, 7))
    def test_a_bounded_query_sweeps_its_pruned_lattice_as_the_whole_one(self, w, horizon):
        # The pruned lattice drops only states past the horizon, so the rows,
        # and with them every value and memo entry, are the whole lattice's.
        root = _pack(w.counts())
        pruned, whole = {}, {}
        s = Solver()
        value = s._sweep_levels((root, horizon), pruned, _COUNTS.rows)
        assert s._sweep_levels((root, horizon), whole, partial(_COUNTS.rows, lattice=_lattice(root))) == value
        assert pruned == whole
        if root:
            assert _COUNTS.rows(root, None, horizon) == _COUNTS.rows(root, None, horizon, _lattice(root))
            assert set(_lattice(root, horizon)[0]) <= set(_lattice(root)[0])


def _frame_depths(frame: _Frame, root: int) -> dict[int, int]:
    """Every state ``root`` reaches in ``frame``, with its BFS depth, over
    :func:`reference_x_moves`."""
    depth = {root: 0}
    level = [root]
    while level:
        below = []
        for state in level:
            for _, _, child0, child1 in reference_x_moves(frame, state):
                for child in (child0, child1):
                    if child not in depth:
                        depth[child] = depth[state] + 1
                        below.append(child)
        level = below
    return depth


class TestLevelSweepOnFrames:
    """Bounded queries on explicit frames by the level sweep, against the
    generator DP it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(tricky_classes(), st.integers(0, 6))
    def test_values_and_memos_cover_the_generator_dp(self, w, horizon):
        s = Solver()
        value = s.bounded_randomized_littlestone(w, horizon)
        v = s.version_space(w)
        expected, dp = reference_frame_brl(v.space, v.state, horizon)
        assert value == F(expected, 2**horizon)
        memo = v.tables["brl"][0]
        assert all(memo[key] == entry for key, entry in dp.items())
        # The sweep writes every state within horizon - t rounds at level t,
        # where the DP writes those it reaches in exactly horizon - t moves.
        depth = _frame_depths(v.space, v.state)
        assert set(memo) == {
            (state, t) for state, d in depth.items() if state for t in range(1, horizon - d + 1)
        }

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("horizon", [1, 3, 6])
    def test_universal_classes_keep_the_generator_dp_keys(self, n, k, horizon):
        # Every state has a constant column, so its self-loop reaches each
        # state within T - t rounds in exactly T - t moves.
        s = Solver()
        v = s.version_space(universal_class(n, k))
        value = s.bounded_randomized_littlestone(v, horizon)
        expected, dp = reference_frame_brl(v.space, v.state, horizon)
        assert value == F(expected, 2**horizon)
        assert v.tables["brl"][0] == dp


def _layers(frame: _Frame, state: int) -> list[int]:
    """above_i of an explicit state: the popcount of each layer i."""
    layers = -(-state.bit_length() // frame.width)
    return [(state >> i * frame.width & frame.mask).bit_count() for i in range(layers)]


def _assert_within_reference(memo: dict, reference: dict) -> None:
    """Every entry of a pruned L memo is a state the reference reached,
    at the reference's value."""
    assert memo.keys() <= reference.keys()
    assert all(reference[state] == value for state, value in memo.items())


class TestVolumeBound:
    """L pruned by the volume bound against the unpruned generator DP."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(explicit_classes(), repeated_row_classes(), tricky_classes()),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=3),
    )
    def test_pruned_explicit_l_equals_the_reference_dp(self, w, examples):
        points = w.domain.points
        examples = [(points[i % len(points)], y) for i, y in examples]
        s = Solver()
        root = s.version_space(w)
        reference = reference_frame_l(root.space, root.state)
        for depth in range(len(examples) + 1):
            # A fresh Solver on the version space alone, then the class's.
            fresh = Solver()
            u = _stepped(fresh, w, examples[:depth])
            assert fresh.littlestone(u) == reference.get(u.state, EMPTY)
            _assert_within_reference(u.tables["l"][0], reference)
            v = _stepped(s, w, examples[:depth])
            assert v.state == u.state
            assert s.littlestone(v) == reference.get(v.state, EMPTY)
        _assert_within_reference(root.tables["l"][0], reference)

    @pytest.mark.parametrize(
        "w",
        [
            universal_class(3, 2),
            universal_class(8, 1),
            *(
                random_weighted_class(random.Random(seed), max_points=4, max_members=6, max_budget=3)
                for seed in range(4)
            ),
        ],
        ids=["u32", "u81", "rand0", "rand1", "rand2", "rand3"],
    )
    def test_the_room_test_admits_l_on_every_frame_state(self, w):
        frame = _Frame(w.state_key())
        reference = reference_frame_l(frame, frame.encode(w.state_key()))
        for state, l in reference.items():
            above = _layers(frame, state)
            assert frame.room(state, l)
            for m in range(l + 2):
                assert frame.room(state, m) == (_volume(above, m) >= 1 << m)
                # So the admitted m form a prefix, and one test at best + 1
                # tells whether L can beat best.
                assert _volume(above, m + 1) <= 2 * _volume(above, m)

    @pytest.mark.parametrize("n, k", [(8, 3), (16, 2), (4, 10)])
    def test_the_room_test_admits_l_on_every_lattice_state(self, n, k):
        w = expert_class(n, k)
        ref = reference_count_solver()
        ref.littlestone(w)
        reference = ref._counts["l"][0]
        assert len(reference) == len(_lattice(_pack(w.counts()))[0]) - 1
        for state, l in reference.items():
            above = _u_above(state)
            d0 = state & (1 << _W) - 1
            high = _u_above(state - d0)
            assert _volume(above, l) >= 1 << l
            for m in range(l + 2):
                # Along a run only above_0 moves: S(m) is the run's plus d0.
                assert _volume(above, m) == _volume(high, m) + d0
                assert _volume(above, m + 1) <= 2 * _volume(above, m)
        s = Solver()
        s.littlestone(w)
        assert s._counts["l"][0] == reference


class TestFrames:
    def test_version_spaces_reuse_the_class_memo(self, rng):
        classes = [universal_class(3, 2)] + [random_weighted_class(rng) for _ in range(3)]
        for w in classes:
            s = Solver()
            s.littlestone(w)
            s.randomized_littlestone(w)
            if w == classes[0]:
                assert s.states_visited == 63 + 44  # RL's every state, L's pruned search
            horizon = 4
            s.bounded_randomized_littlestone(w, horizon)
            ((_, tables),) = s._frames
            before = {value: len(tables[value][0]) for value in ("rl", "brl")}
            v = w
            for depth in range(horizon):
                x = rng.choice(v.domain.points)
                v = restrict(v, x, rng.randint(0, 1))
                fresh = Solver()
                assert s.littlestone(v) == fresh.littlestone(v)
                assert s.randomized_littlestone(v) == fresh.randomized_littlestone(v)
                assert s.bounded_randomized_littlestone(
                    v, horizon - depth - 1
                ) == fresh.bounded_randomized_littlestone(v, horizon - depth - 1)
            # The pruned L search may reach a version space's state only now;
            # RL and RL_T wrote every state, so they find each one.
            assert len(s._frames) == 1
            assert {value: len(tables[value][0]) for value in ("rl", "brl")} == before

    @pytest.mark.parametrize(
        "sub",
        [
            lambda w: WeightedClass(w.domain, w.members[:2]),  # fewer rows
            lambda w: WeightedClass(  # same rows, lower budgets
                w.domain, tuple(Member(m.name, m.labels, m.budget - 1) for m in w.members)
            ),
            lambda w: WeightedClass(w.domain, w.members[1:]),  # fewer members on a row
        ],
        ids=["rows", "budgets", "occurrences"],
    )
    def test_subclass_then_superclass(self, sub):
        pts = ("a", "b", "c")
        w = WeightedClass(
            Domain(pts),
            (
                Member("p", (0, 1, 1), 2),
                Member("q", (0, 1, 1), 1),
                Member("r", (1, 0, 1), 2),
                Member("s", (0, 0, 0), 1),
            ),
        )
        v = sub(w)

        def values(solver, cls):
            return (
                solver.littlestone(cls),
                solver.randomized_littlestone(cls),
                [solver.bounded_randomized_littlestone(cls, t) for t in range(6)],
            )

        s = Solver()
        first = values(s, v)
        assert values(s, w) == values(Solver(), w)
        assert first == values(Solver(), v) == values(s, v)

    def test_move_tables_follow_a_deeper_budget(self):
        """u(3, 3) has the rows of u(3, 1), so it is encoded in the frame
        u(3, 1) opened, and that frame's repeat grows after its move tables
        are filled; every value still equals a fresh Solver's."""
        shallow, deep = universal_class(3, 1), universal_class(3, 3)

        def values(solver, cls):
            return (
                solver.littlestone(cls),
                solver.randomized_littlestone(cls),
                [solver.bounded_randomized_littlestone(cls, t) for t in range(8)],
            )

        s = Solver()
        first = values(s, shallow)
        ((frame, _),) = s._frames
        repeat = frame.repeat
        assert frame.table
        # A class with a row the frame lacks is not encoded, and leaves the
        # frame's repeat and tables as they were.
        zero = Member("z", (0,) * len(deep.domain.points), 3)
        assert frame.encode(WeightedClass(deep.domain, (*deep.members, zero)).state_key()) is None
        assert frame.repeat == repeat and frame.table
        state = frame.encode(deep.state_key())
        # The masks filled at budget 1 cover two layers; budget 3 needs four.
        assert frame.repeat > repeat and not frame.table
        assert frame.expand(state) == reference_x_expand(frame, state)
        assert values(s, deep) == values(Solver(), deep)
        assert len(s._frames) == 1
        assert values(s, shallow) == first == values(Solver(), shallow)
        assert len(frame.table) <= s.states_visited

    def test_empty_class_and_empty_domain(self):
        for order in ((EMPTY_CLASS, EMPTY_DOMAIN), (EMPTY_DOMAIN, EMPTY_CLASS)):
            s = Solver()
            rl = s.randomized_littlestone(universal_class(2, 1))
            for w in order:
                expected = EMPTY if w is EMPTY_CLASS else 0
                assert s.littlestone(w) == expected
                assert s.randomized_littlestone(w) == expected
                assert s.bounded_randomized_littlestone(w, 3) == expected
            assert rl == s.randomized_littlestone(universal_class(2, 1)) == F(7, 4)
        s = Solver()
        assert s.littlestone(EMPTY_CLASS) == EMPTY
        assert s.littlestone(EMPTY_DOMAIN) == 0
        assert s.randomized_littlestone(universal_class(2, 1)) == F(7, 4)


class TestStateSpaces:
    """The count space and a frame behind one VersionSpace interface."""

    @settings(max_examples=120, deadline=None)
    @given(count_roots(experts=4, budget=2, examples=4))
    def test_count_and_frame_version_spaces_agree_at_every_step(self, game):
        w, examples = game
        s = Solver()

        def values(v) -> tuple:
            horizons = (s.bounded_randomized_littlestone(v, t) for t in range(4))
            return v.is_empty, v.power, s.littlestone(v), s.randomized_littlestone(v), *horizons

        counts, frame = s.version_space(w), s.version_space(w.explicit())
        assert counts.space is not frame.space
        for x, y in examples:
            assert values(counts) == values(frame)
            for v in (counts, frame):
                assert [child.key for child in v.split(x)] == [v.step(x, 0).key, v.step(x, 1).key]
            counts, frame = counts.step(x, y), frame.step(x, y)
            w = restrict(w, x, y)
            assert counts.key == w
        assert values(counts) == values(frame)
