import json

import pytest
from conftest import random_weighted_class
from hypothesis import given, settings
from hypothesis import strategies as st

from littlestone.classes import (
    ClassFileError,
    Domain,
    ExpertClass,
    Member,
    UnknownInstanceError,
    WeightedClass,
    expert_class,
    load_class,
    min_mistakes,
    restrict,
    universal_class,
    with_budget,
)
from littlestone.dimension import Solver


def make_class(points, members):
    return WeightedClass(
        Domain(tuple(points)),
        tuple(Member(n, tuple(l), b) for n, l, b in members),
    )


class TestLoadClass:
    def test_minimal_two_hypotheses(self):
        doc = {"domain": ["x"], "hypotheses": [{"name": "a", "labels": [0]}, {"name": "b", "labels": [1]}]}
        w = load_class(doc)
        assert len(w.members) == 2
        assert all(m.budget == 0 for m in w.members)

    def test_json_text_input(self):
        w = load_class('{"domain": ["p"], "hypotheses": [{"name": "h", "labels": [1], "budget": 2}]}')
        assert w.members[0].budget == 2

    def test_labels_length_mismatch_names_member(self):
        doc = {"domain": ["p0", "p1"], "hypotheses": [{"name": "bad", "labels": [0, 1, 0]}]}
        with pytest.raises(ClassFileError, match="bad"):
            load_class(doc)
        with pytest.raises(ClassFileError, match=r"hypotheses\[0\]\.labels"):
            load_class(doc)

    def test_duplicates_collapsed_with_count(self):
        doc = {
            "domain": ["p"],
            "hypotheses": [
                {"name": "a", "labels": [1], "budget": 1},
                {"name": "a2", "labels": [1], "budget": 1},
            ],
        }
        w = load_class(doc)
        assert len(w.members) == 1
        assert w.duplicates_collapsed == 1

    def test_same_labels_different_budget_both_kept(self):
        doc = {
            "domain": ["p"],
            "hypotheses": [
                {"name": "a", "labels": [1], "budget": 1},
                {"name": "b", "labels": [1], "budget": 2},
            ],
        }
        assert len(load_class(doc).members) == 2

    def test_negative_budget_rejected(self):
        doc = {"domain": ["p"], "hypotheses": [{"name": "h", "labels": [0], "budget": -1}]}
        with pytest.raises(ClassFileError, match="budget"):
            load_class(doc)

    def test_malformed_json(self):
        with pytest.raises(ClassFileError, match="JSON"):
            load_class("{nope")

    def test_missing_budget_defaults_to_zero(self):
        w = load_class({"domain": ["p"], "hypotheses": [{"name": "h", "labels": [0]}]})
        assert w.members[0].budget == 0


class TestRestrict:
    def test_disagreeing_member_charged(self):
        w = make_class(["x"], [("h", [0], 1)])
        r = restrict(w, "x", 1)
        assert [(m.name, m.budget) for m in r.members] == [("h", 0)]

    def test_budget_exhausted_member_dropped(self):
        w = make_class(["x"], [("h", [0], 0)])
        assert restrict(w, "x", 1).is_empty

    def test_consistent_example_is_free(self):
        w = make_class(["x"], [("h", [0], 0)])
        assert restrict(w, "x", 0) == w

    def test_unknown_instance(self):
        w = make_class(["x"], [("h", [0], 0)])
        with pytest.raises(UnknownInstanceError):
            restrict(w, "y", 0)

    def test_idempotent_on_consistent_points(self):
        w = make_class(["x", "y"], [("a", [0, 1], 0), ("b", [1, 1], 1)])
        once = restrict(w, "x", 1)
        # a is dropped, so every surviving member agrees with 1 at x
        assert all(m.labels[0] == 1 for m in once.members)
        assert restrict(once, "x", 1) == once

    def test_partition_of_members(self, rng):
        # Splitting by the two labels at any point reconstructs the class:
        # each member survives unchanged on its own side and decremented
        # (or dropped) on the other.
        for _ in range(50):
            w = random_weighted(rng)
            for x in w.domain:
                w0 = restrict(w, x, 0)
                w1 = restrict(w, x, 1)
                rebuilt = []
                for m in w.members:
                    i = w.domain.index(x)
                    same, other = (w0, w1) if m.labels[i] == 0 else (w1, w0)
                    assert any(o.name == m.name and o.budget == m.budget for o in same.members)
                    if m.budget > 0:
                        assert any(o.name == m.name and o.budget == m.budget - 1 for o in other.members)
                    else:
                        assert all(o.name != m.name for o in other.members)
                    rebuilt.append(m)
                assert len(rebuilt) == len(w.members)


def random_weighted(rng):
    return random_weighted_class(rng, max_points=4, max_members=4, max_budget=2)


class TestUniversalClass:
    def test_single_expert(self):
        w = universal_class(1, 3)
        assert len(w.members) == 1
        assert w.members[0].budget == 3
        assert w.domain.points == ("0", "1")

    def test_two_experts_projection_labels(self):
        w = universal_class(2, 0)
        assert w.domain.points == ("00", "01", "10", "11")
        assert w.members[0].labels == (0, 0, 1, 1)
        assert w.members[1].labels == (0, 1, 0, 1)

    def test_budgets_applied(self):
        w = universal_class(2, 1)
        assert [m.budget for m in w.members] == [1, 1]

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            universal_class(20, 0)

    def test_expert_class_counts_and_restrict(self):
        e = expert_class(3, 1)
        assert e.counts() == (0, 3)
        r = restrict(e, "011", 1)
        assert isinstance(r, ExpertClass)
        assert r.budgets == (0, 1, 1)
        r2 = restrict(r, "011", 0)  # charges the two agreeing-with-1 experts
        assert r2.budgets == (0, 0, 0)
        r3 = restrict(r2, "100", 1)
        assert r3.budgets == (0, None, None)
        assert r3.counts() == (1,)

    def test_explicit_matches_universal(self):
        assert expert_class(3, 2).explicit() == universal_class(3, 2)

    def test_a_weighted_class_is_its_own_explicit_form(self):
        # The same object, so a Solver's version space of the class is reused.
        w = universal_class(2, 1)
        assert w.explicit() is w
        solver = Solver()
        assert solver.version_space(w.explicit()) is solver.version_space(w)


class TestMinMistakes:
    def test_contradictory_pair_one_mistake(self):
        w = make_class(["x"], [("zero", [0], 1), ("one", [1], 1)])
        res = min_mistakes([("x", 0), ("x", 1)], w)
        assert res.mistakes == 1
        assert res.realizable

    def test_empty_sequence(self):
        w = make_class(["x"], [("h", [0], 0)])
        res = min_mistakes([], w)
        assert (res.mistakes, res.realizable) == (0, True)

    def test_budget_exceeded_unrealizable(self):
        w = make_class(["x"], [("h", [0], 2)])
        res = min_mistakes([("x", 1)] * 3, w)
        assert res.mistakes == 3
        assert not res.realizable

    def test_empty_class(self):
        w = WeightedClass(Domain(("x",)), ())
        res = min_mistakes([("x", 0)], w)
        assert res.mistakes is None and not res.realizable

    def test_expert_class_variant(self):
        res = min_mistakes([("01", 1), ("01", 1)], expert_class(2, 0))
        assert res.mistakes == 0
        assert res.best_member == "e2"

    @given(st.lists(st.tuples(st.sampled_from(["p0", "p1"]), st.integers(0, 1)), max_size=8))
    @settings(max_examples=60)
    def test_monotone_under_append(self, seq):
        w = make_class(["p0", "p1"], [("a", [0, 1], 1), ("b", [1, 1], 0)])
        counts = [min_mistakes(seq[:i], w).mistakes for i in range(len(seq) + 1)]
        assert counts == sorted(counts)


def test_domain_uniqueness_enforced():
    with pytest.raises(ValueError, match="unique"):
        Domain(("p", "p"))


def test_domain_lookup_table_is_invisible():
    d = Domain(("p", "q", "r"))
    assert d == Domain(("p", "q", "r")) and hash(d) == hash(Domain(("p", "q", "r")))
    assert repr(d) == "Domain(points=('p', 'q', 'r'))"
    assert [d.index(p) for p in ("r", "p")] == [2, 0]
    assert "q" in d and "s" not in d and ["q"] not in d
    for bad in ("s", ["q"]):
        with pytest.raises(UnknownInstanceError):
            d.index(bad)


def test_universal_round_trips_through_document():
    w = universal_class(2, 1)
    doc = {
        "domain": list(w.domain.points),
        "hypotheses": [
            {"name": m.name, "labels": list(m.labels), "budget": m.budget} for m in w.members
        ],
    }
    assert load_class(json.dumps(doc)) == w


def test_with_budget_keeps_the_first_member_per_label_row():
    w = make_class(["x", "y"], [("a", [0, 1], 0), ("b", [0, 1], 2), ("c", [1, 1], 1)])
    assert with_budget(w, 3) == make_class(["x", "y"], [("a", [0, 1], 3), ("c", [1, 1], 3)])
    # An eliminated expert stays eliminated, as explicit() has no member for it.
    assert with_budget(ExpertClass((0, None, 2)), 1) == ExpertClass((1, None, 1))


@st.composite
def expert_classes_with_examples(draw):
    """Up to six experts, some eliminated, budgets up to 2, and a few
    labeled advice strings over them."""
    budgets = draw(st.lists(st.none() | st.integers(0, 2), min_size=1, max_size=6))
    advice = st.text("01", min_size=len(budgets), max_size=len(budgets))
    examples = draw(st.lists(st.tuples(advice, st.integers(0, 1)), max_size=4))
    return ExpertClass(tuple(budgets)), examples


@settings(max_examples=80, deadline=None)
@given(expert_classes_with_examples(), st.integers(0, 2))
def test_expert_class_bodies_match_the_explicit_class(case, k):
    # restrict, with_budget and min_mistakes keep one body per class kind;
    # on an expert class each must agree with its materialized class.
    w, examples = case
    x = w.explicit()
    assert with_budget(w, k).explicit() == with_budget(x, k)
    assert min_mistakes(examples, w) == min_mistakes(examples, x)
    for advice, y in examples:
        assert restrict(w, advice, y).explicit() == restrict(x, advice, y)
        w, x = restrict(w, advice, y), restrict(x, advice, y)
