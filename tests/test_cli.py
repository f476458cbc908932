import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import recursion_limit, reference_nested_json

import littlestone.cli
from littlestone.cli import fmt, main
from littlestone.classes import Domain, Member, WeightedClass, universal_class
from littlestone.dimension import Solver
from littlestone.experts import capacity_D, harmonic_number
from littlestone.trees import (
    LEAF,
    expected_branch_length,
    node,
    tree_from_json,
    tree_to_json,
)


def write_class_file(tmp_path, w, name="class.json"):
    doc = {
        "domain": list(w.domain.points),
        "hypotheses": [
            {"name": m.name, "labels": list(m.labels), "budget": m.budget}
            for m in w.members
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def u2k2_file(tmp_path):
    return write_class_file(tmp_path, universal_class(2, 2))


class TestDim:
    def test_randomized(self, u2k2_file, capsys):
        assert main(["dim", u2k2_file, "--mode", "rand"]) == 0
        out = capsys.readouterr().out
        assert "47/16 (2.9375)" in out
        assert "states visited" in out

    def test_deterministic(self, u2k2_file, capsys):
        assert main(["dim", u2k2_file, "--mode", "det"]) == 0
        assert "L = 5" in capsys.readouterr().out

    def test_empty_class(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"domain": ["x"], "hypotheses": []}')
        assert main(["dim", str(path)]) == 0
        assert "EMPTY (-1)" in capsys.readouterr().out

    def test_bounded(self, tmp_path, capsys):
        path = write_class_file(tmp_path, universal_class(2, 3))
        assert main(["dim", path, "--horizon", "4"]) == 0
        assert "2 (2)" in capsys.readouterr().out

    def test_json_record(self, u2k2_file, capsys):
        assert main(["dim", u2k2_file, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == "47/16"
        assert record["decimal"] == 2.9375
        assert record["states_visited"] > 0

    def test_missing_file_is_precondition_error(self, capsys):
        assert main(["dim", "/nonexistent/f.json"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"domain": ["x"]}')
        assert main(["dim", str(path)]) == 2
        assert "hypotheses" in capsys.readouterr().err

    def test_budget_exhaustion_exit_code(self, tmp_path):
        path = write_class_file(tmp_path, universal_class(3, 2))
        assert main(["--budget-states", "2", "dim", path]) == 3


class TestExperts:
    def test_dim_closed_form(self, capsys):
        assert main(["experts", "--n", "2", "--k", "3", "--what", "dim"]) == 0
        assert "131/32 (4.09375)" in capsys.readouterr().out

    def test_single_expert(self, capsys):
        assert main(["experts", "--n", "1", "--k", "7", "--what", "dim"]) == 0
        assert capsys.readouterr().out.startswith("7 ")

    def test_capacity(self, capsys):
        assert main(["experts", "--n", "4", "--k", "0", "--what", "D"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_dstar_rejects_zero_mistakes(self, capsys):
        assert main(["experts", "--n", "4", "--k", "0", "--what", "dstar"]) == 2

    def test_up_with_beta(self, capsys):
        assert main(["experts", "--n", "2", "--k", "0", "--what", "up", "--beta", "1/2"]) == 0
        assert capsys.readouterr().out.startswith("2.40942")

    def test_bounded_dim(self, capsys):
        assert main(["experts", "--n", "2", "--k", "3", "--what", "dim", "--horizon", "4"]) == 0
        assert capsys.readouterr().out.startswith("2 ")

    def test_budget_is_charged_before_the_lattice_sweep(self, monkeypatch, capsys):
        # e(64, 2) reaches 47,904 count states, known before any is computed.
        def sweep(states):
            raise AssertionError("swept past the state budget")

        monkeypatch.setattr(littlestone.dimension, "_pairs", sweep)
        argv = ["--budget-states", "1000", "experts", "--what", "dim", "--n", "64", "--k", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: state budget of 1000 exceeded\n"


class TestTables:
    def test_proper(self, capsys):
        assert main(["tables", "--kind", "proper", "--max-n", "4"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["n", "exact", "decimal"]
        assert [r[1] for r in rows[1:]] == ["1/2", "5/6", "13/12"]

    def test_mstar2(self, capsys):
        assert main(["tables", "--kind", "mstar2", "--max-k", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[1] for r in rows[1:]] == ["1/2", "7/4", "47/16"]

    def test_dnk_capacity_column_agrees_with_direct(self, capsys):
        assert main(["tables", "--kind", "dnk", "--n-list", "2,4", "--max-k", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        header = rows[0]
        assert header == [
            "n", "k", "D", "L_k", "RL_k_num", "RL_k_den", "mstar2", "d_star", "up_min",
        ]
        for row in rows[1:]:
            n, k = int(row[0]), int(row[1])
            assert int(row[2]) == capacity_D(n, k)
        two = {int(r[1]): r for r in rows[1:] if r[0] == "2"}
        assert F(int(two[2][4]), int(two[2][5])) == F(47, 16)
        assert two[2][6] == "47/16"

    def test_out_file(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["--out", str(out), "tables", "--kind", "proper", "--max-n", "3"]) == 0
        assert "5/6" in out.read_text()

    @pytest.mark.parametrize("n_list", ["2,x", "0", "2,-1", "", "2,,3"])
    def test_bad_n_list_writes_nothing(self, tmp_path, capsys, n_list):
        assert main(["tables", "--kind", "dnk", "--n-list", n_list, "--max-k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --n-list")
        out = tmp_path / "t.csv"
        assert main(["--out", str(out), "tables", "--kind", "dnk", "--n-list", n_list]) == 2
        assert not out.exists()


class TestPlay:
    def test_randsoa_threshold(self, capsys):
        rc = main(
            ["play", "--n", "2", "--k", "0", "--learner", "randsoa",
             "--adversary", "threshold"]
        )
        assert rc == 0
        assert "total = 1/2 (0.5)" in capsys.readouterr().out

    def test_ftl_proper(self, capsys):
        rc = main(["play", "--n", "3", "--learner", "ftl", "--adversary", "proper"])
        assert rc == 0
        assert "5/6" in capsys.readouterr().out

    def test_branch_trials_mean(self, capsys):
        # slack 1/64 keeps the adversary tree within 1/64 of the dimension,
        # leaving room for sampling noise inside the 0.05 window
        rc = main(
            ["play", "--n", "2", "--k", "1", "--learner", "constant:1/2",
             "--adversary", "branch", "--trials", "10000", "--slack", "1/64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        mean_line = next(line for line in out.splitlines() if line.startswith("mean"))
        value = float(mean_line.split("(")[1].rstrip(")"))
        assert abs(value - 1.75) < 0.05

    def test_transcripts_written(self, tmp_path, capsys):
        out = tmp_path / "games.jsonl"
        rc = main(
            ["--out", str(out), "play", "--n", "2", "--k", "0", "--learner",
             "constant:0", "--adversary", "threshold"]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[0])["round"] == 1
        assert "summary" in json.loads(lines[-1])

    @pytest.mark.parametrize("learner", ["bounded-randsoa", "randsoa", "soa", "constant:1/2"])
    def test_horizon_zero_plays_no_rounds(self, tmp_path, capsys, learner):
        out = tmp_path / "games.jsonl"
        rc = main(["--out", str(out), "play", "--n", "2", "--k", "1", "--learner", learner,
                   "--adversary", "threshold", "--horizon", "0"])
        assert rc == 0
        assert "trial 0: total = 0 (0)" in capsys.readouterr().out
        (summary,) = out.read_text().splitlines()
        assert json.loads(summary)["summary"]["total"] == "0"

    def test_incompatible_selection(self, capsys):
        assert main(["play", "--n", "2", "--learner", "constant:0", "--adversary", "proper"]) == 2

    @staticmethod
    def trial_totals(capsys, adversary, seed, trials):
        argv = ["--seed", str(seed), "play", "--n", "2", "--k", "1", "--learner", "randsoa",
                "--adversary", adversary, "--trials", str(trials)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [line.split(" = ")[1] for line in out.splitlines() if line.startswith("trial ")]

    @pytest.mark.parametrize("adversary", ["branch", "threshold"])
    def test_trials_replay_single_runs(self, capsys, adversary):
        together = self.trial_totals(capsys, adversary, 7, 3)
        singles = [t for seed in (7, 8, 9) for t in self.trial_totals(capsys, adversary, seed, 1)]
        assert len(together) == 3 and together == singles

    def test_adversary_built_once(self, monkeypatch, capsys):
        calls = []
        extract = Solver.extract_optimal_tree

        def counting(self, *args, **kwargs):
            calls.append(args)
            return extract(self, *args, **kwargs)

        monkeypatch.setattr(Solver, "extract_optimal_tree", counting)
        rc = main(["play", "--n", "2", "--k", "1", "--learner", "randsoa",
                   "--adversary", "threshold", "--trials", "4"])
        assert rc == 0
        assert len(calls) == 1

    def test_branch_adversary_computes_no_weights(self, monkeypatch, capsys):
        import littlestone.cli
        import littlestone.dimension

        argv = ["play", "--n", "2", "--k", "2", "--learner", "randsoa",
                "--adversary", "branch", "--trials", "5", "--slack", "1/64"]
        assert main(argv) == 0
        before = capsys.readouterr().out

        def unused(tree):
            raise AssertionError("the branch adversary reads no weights")

        for module in (littlestone.cli, littlestone.dimension):
            monkeypatch.setattr(module, "quasi_balance_weights", unused)
        assert main(argv) == 0
        after = capsys.readouterr().out
        assert after == before
        assert [line for line in after.splitlines() if line.startswith("trial ")]


class TestPlayOnCounts:
    """``play --n`` plays the expert class on count states; only a tree
    adversary materializes the advice domain, once, before its search."""

    @staticmethod
    def outcome(tmp_path, capsys, argv) -> tuple:
        out = tmp_path / "games.jsonl"
        out.unlink(missing_ok=True)
        rc = main(["--out", str(out), *argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err, out.read_text() if out.exists() else None

    @pytest.mark.parametrize("learner", ["soa", "randsoa", "bounded-randsoa", "ftl", "squint", "constant:1/2"])
    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (2, 2), (3, 0)])
    def test_n_plays_as_the_universal_class_file(self, tmp_path, capsys, n, k, learner):
        path = write_class_file(tmp_path, universal_class(n, k))
        for adversary in ("branch", "threshold", "optimal", "proper"):
            for horizon in ([], ["--horizon", "3"]):
                game = ["--learner", learner, "--adversary", adversary, *horizon]
                on_counts = self.outcome(tmp_path, capsys, ["play", "--n", str(n), "--k", str(k), *game])
                on_file = self.outcome(tmp_path, capsys, ["play", "--class-file", path, "--n", str(n), *game])
                assert on_counts == on_file, (adversary, horizon)

    @pytest.mark.parametrize("n", [17, 64])
    def test_proper_games_past_the_enumeration_cap(self, capsys, n):
        assert main(["play", "--n", str(n), "--k", "0", "--learner", "ftl", "--adversary", "proper"]) == 0
        out = capsys.readouterr().out
        assert f"total = {fmt(harmonic_number(n) - 1)}" in out
        if n == 17:
            assert "total = 29889983/12252240 " in out

    @pytest.mark.parametrize("adversary", ["threshold", "branch", "optimal"])
    def test_tree_adversaries_stop_at_the_cap_before_any_search(self, monkeypatch, capsys, adversary):
        def search(*args):
            raise AssertionError("a horizon search ran past the enumeration cap")

        monkeypatch.setattr(Solver, "horizon_for_slack", search)
        argv = ["play", "--n", "20", "--k", "5", "--learner", "soa", "--adversary", adversary]
        assert main(argv) == 2
        assert "exceeds the 16-bit enumeration cap" in one_error_line(capsys)


class TestTree:
    def test_extract_then_analyze(self, tmp_path, u2k2_file, capsys):
        out = tmp_path / "tree.json"
        rc = main(["--out", str(out), "tree", "extract", u2k2_file, "--horizon", "4"])
        assert rc == 0
        rc = main(["tree", "analyze", str(out), "--class-file", u2k2_file])
        assert rc == 0
        report = capsys.readouterr().out
        assert "monotone           = True" in report
        assert "quasi-balanced     = True" in report
        assert "shattered by class = True" in report

    def test_extract_horizon_search_is_charged_to_the_state_budget(self, tmp_path, capsys):
        # RL of one member with budget 1 visits 2 states, within the budget;
        # the horizon search expands both and stores them per level, past it.
        w = WeightedClass(Domain(("x", "y")), (Member("h", (0, 1), 1),))
        path = write_class_file(tmp_path, w)
        assert main(["--budget-states", "10", "dim", path]) == 0
        capsys.readouterr()
        out = tmp_path / "tree.json"
        assert main(["--budget-states", "10", "--out", str(out), "tree", "extract", path]) == 3
        assert capsys.readouterr().err == "error: state budget of 10 exceeded\n"
        assert main(["--out", str(out), "tree", "extract", path]) == 0

    @pytest.mark.parametrize("slack", ["1/16", "1/64"])
    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1)])
    def test_extract_reports_the_expected_length_of_its_file(self, tmp_path, capsys, n, k, slack):
        # The E_T line is 2 RL_T from the memo; the file's E_T is folded.
        path = write_class_file(tmp_path, universal_class(n, k))
        out = tmp_path / "tree.json"
        assert main(["--out", str(out), "tree", "extract", path, "--slack", slack]) == 0
        e = expected_branch_length(tree_from_json(out.read_text())[0])
        err = capsys.readouterr().err
        assert err.startswith("# horizon ") and err.count("\n") == 1
        assert err.endswith(f", E_T = {fmt(e)}, branch weight = {fmt(e / 2)}\n")

    def test_extract_of_a_lone_leaf_reports_zero(self, tmp_path, capsys):
        path = write_class_file(tmp_path, WeightedClass(Domain(("x", "y")), (Member("h", (0, 1), 0),)))
        out = tmp_path / "tree.json"
        assert main(["--out", str(out), "tree", "extract", path, "--slack", "1/16"]) == 0
        assert tree_from_json(out.read_text()) == (LEAF, None)
        assert capsys.readouterr().err == "# horizon 0, E_T = 0 (0), branch weight = 0 (0)\n"

    def test_analyze_reports_violation(self, tmp_path, capsys):
        from littlestone.trees import LEAF, complete_tree, node, tree_to_json

        lopsided = node("r", complete_tree(4, "a"), LEAF)
        path = tmp_path / "lop.json"
        path.write_text(tree_to_json(lopsided))
        assert main(["tree", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "monotone           = False" in out
        assert "violation at node ''" in out

    def test_analyze_output_of_a_tree_violating_below_the_root(self, tmp_path, capsys):
        from littlestone.trees import complete_tree, node, tree_to_json

        lopsided = node("r", complete_tree(4, "a"), complete_tree(1, "c"))
        path = tmp_path / "t.json"
        path.write_text(tree_to_json(node("s", complete_tree(3, "b"), lopsided)))
        assert main(["tree", "analyze", str(path)]) == 0
        assert capsys.readouterr().out == (
            "depth              = 6\n"
            "expected length    = 17/4 (4.25)\n"
            "min branch length  = 3\n"
            "monotone           = False\n"
            "quasi-balanced     = False (violation at node '1')\n"
        )


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestFailuresExitTwo:
    def test_recursion_too_deep(self, tmp_path, capsys):
        # Nested tree files are still read with one call per level.
        d = 25_000
        path = tmp_path / "deep.json"
        opening, closing = '{"instance": "x", "zero": ', ', "one": {"leaf": true}}'
        path.write_text(opening * d + '{"leaf": true}' + closing * d)
        assert main(["tree", "analyze", str(path)]) == 2
        assert "too deep" in one_error_line(capsys)

    def test_nested_file_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # json.loads takes one nested call per level of a nested file; the
        # flat file of the same tree is read row by row.
        tree = LEAF
        for _ in range(2_000):
            tree = node("x", tree, LEAF)
        path = tmp_path / "deep.json"
        path.write_text(reference_nested_json(tree))
        with recursion_limit(1_000):
            assert main(["tree", "analyze", str(path)]) == 2
            assert "too deep" in one_error_line(capsys)
            assert tree_from_json(tree_to_json(tree)) == (tree, None)

    def test_value_too_long_to_print(self, capsys):
        # The DP finishes; the exact numerator has more digits than int -> str allows.
        argv = ["experts", "--n", "1", "--k", "2", "--what", "dim", "--horizon", "25000"]
        assert main(argv) == 2
        line = one_error_line(capsys)
        assert "digits" in line
        assert "set_int_max_str_digits" not in line

    @pytest.mark.parametrize("argv", [
        ["experts", "--n", "2", "--k", "1", "--what", "up", "--beta", "1/0"],
        ["experts", "--n", "2", "--k", "1", "--what", "up", "--beta", "1e400"],
        ["play", "--n", "2", "--k", "1", "--learner", "randsoa", "--adversary", "optimal",
         "--slack", "1/0"],
        ["tree", "extract", "{class_file}", "--slack", "1/0"],
        ["check", "concentration", "--slack", "1/0"],
        ["play", "--n", "2", "--k", "1", "--learner", "constant:1/0", "--adversary", "threshold"],
    ], ids=["beta-zero-denominator", "beta-past-float", "play-slack", "extract-slack",
            "concentration-slack", "constant-learner"])
    def test_arithmetic_error_in_a_flag(self, u2k2_file, capsys, argv):
        assert main([a.format(class_file=u2k2_file) for a in argv]) == 2
        assert "Error" in one_error_line(capsys)

    @pytest.mark.parametrize("argv, option, text", [
        (["experts", "--n", "2", "--k", "1", "--what", "up", "--beta", "1/0"], "--beta", "1/0"),
        (["experts", "--n", "2", "--k", "1", "--what", "up", "--beta", "1e400"], "--beta", "1e400"),
        (["experts", "--n", "2", "--k", "1", "--what", "up", "--beta", "x"], "--beta", "x"),
        (["check", "concentration", "--slack", "1/0"], "--slack", "1/0"),
        (["tree", "extract", "{class_file}", "--slack", "one"], "--slack", "one"),
        (["play", "--n", "2", "--k", "1", "--learner", "randsoa", "--adversary", "threshold",
          "--slack", "1/0"], "--slack", "1/0"),
        (["play", "--n", "2", "--k", "1", "--learner", "constant:1/0", "--adversary", "threshold"],
         "--learner constant:P", "1/0"),
    ], ids=["beta-zero-denominator", "beta-past-float", "beta-text", "concentration-slack",
            "extract-slack-text", "play-slack", "constant-learner"])
    def test_bad_rational_flag_is_named(self, u2k2_file, capsys, argv, option, text):
        assert main([a.format(class_file=u2k2_file) for a in argv]) == 2
        assert one_error_line(capsys).startswith(f"error: bad value {text!r} for {option}: ")

    @pytest.mark.parametrize("n", [1, 3])
    def test_ftl_on_instances_that_are_not_advice(self, tmp_path, capsys, n):
        # The class's points are "a" and "b", not length-n advice strings.
        path = tmp_path / "ab.json"
        path.write_text('{"domain": ["a", "b"], "hypotheses": '
                        '[{"name": "h", "labels": [0, 1], "budget": 0}, '
                        '{"name": "g", "labels": [1, 1], "budget": 0}]}')
        argv = ["play", "--class-file", str(path), "--n", str(n), "--learner", "ftl",
                "--adversary", "threshold"]
        assert main(argv) == 2
        assert f"length-{n} bit string" in one_error_line(capsys)

    def test_unknown_instance_is_printed_without_quotes(self, tmp_path, capsys):
        # UnknownInstanceError is a KeyError, whose str() would quote the message.
        path = tmp_path / "ab.json"
        path.write_text('{"domain": ["a", "b"], "hypotheses": '
                        '[{"name": "h", "labels": [0, 1], "budget": 0}, '
                        '{"name": "g", "labels": [1, 1], "budget": 0}]}')
        argv = ["play", "--class-file", str(path), "--n", "3", "--learner", "ftl",
                "--adversary", "threshold"]
        assert main(argv) == 2
        assert one_error_line(capsys) == "error: expected a length-3 bit string, got 'a'\n"

    @pytest.mark.parametrize("argv", [
        ["tree", "analyze", "{dir}"],
        ["dim", "{dir}"],
        ["--out", "{dir}", "tables", "--kind", "proper", "--max-n", "3"],
    ], ids=["tree-analyze", "dim", "tables-out"])
    def test_directory_given_as_a_file(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        assert "Is a directory" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "doc, position",
        [
            ([1], "''"),
            ({"instance": "x", "zero": 5, "one": {"leaf": True}}, "'0'"),
            ({"instance": ["x"], "zero": {"leaf": True}, "one": {"leaf": True}}, "''"),
            ({"instance": "x", "zero": {"leaf": True}, "one": {"leaf": True}, "w0": [1]}, "''"),
            (
                {
                    "instance": "x",
                    "zero": {"instance": "y", "zero": {"leaf": True}, "one": {"leaf": True},
                             "w0": "abc"},
                    "one": {"leaf": True},
                },
                "'0'",
            ),
        ],
        ids=[
            "root-not-object",
            "child-not-object",
            "instance-not-string",
            "w0-not-a-number",
            "w0-unparsable",
        ],
    )
    def test_malformed_tree_file(self, tmp_path, capsys, doc, position):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        assert main(["tree", "analyze", str(path)]) == 2
        assert f"at {position}" in one_error_line(capsys)

    @pytest.mark.parametrize("doc, where", [
        ({"root": 0, "nodes": [["x", 0, None, "1/2"]]}, "tree file row 0: zero"),
        ({"root": 1, "nodes": [["x", None, None, "1/2"]]}, "tree file: root"),
    ], ids=["child-not-earlier", "root-out-of-range"])
    def test_malformed_flat_tree_file(self, tmp_path, capsys, doc, where):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        assert main(["tree", "analyze", str(path)]) == 2
        assert where in one_error_line(capsys)


class TestCheck:
    def test_concentration_small(self, capsys):
        rc = main(
            ["check", "concentration", "--n", "2", "--k", "1", "--slack", "1/16",
             "--samples", "4000", "--eps", "0.2,0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_concentration_computes_no_weights(self, monkeypatch, capsys):
        import littlestone.dimension

        def unused(*args):
            raise AssertionError("the concentration check builds no tree and reads no weights")

        monkeypatch.setattr(littlestone.dimension, "quasi_balance_weights", unused)
        monkeypatch.setattr(Solver, "_extract_tree", unused)
        argv = ["check", "concentration", "--n", "2", "--k", "2", "--samples", "500"]
        assert main(argv) == 0

    def test_failed_bound_exits_1(self, monkeypatch, capsys):
        # All of the law's mass at length 0, so each lower tail is 1.
        monkeypatch.setattr(
            Solver, "branch_length_law", lambda self, w, horizon: (1 << horizon,) + (0,) * horizon
        )
        argv = ["check", "concentration", "--n", "2", "--k", "1"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_builds_no_generator(self, monkeypatch, capsys):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        argv = ["--seed", "9", "check", "concentration", "--n", "2", "--k", "1",
                "--samples", "300"]
        assert main(argv) == 0
        assert built == []

    def test_output_independent_of_seed(self, capsys):
        def run(seed):
            assert main(["--seed", str(seed), "check", "concentration", "--n", "2",
                         "--k", "2", "--samples", "400", "--eps", "0.05,0.1"]) == 0
            return capsys.readouterr().out

        assert run(3) == run(4)
        assert "exact law" in run(5)

    def test_tails_equal_law_sums(self, monkeypatch, capsys):
        # E_T = 6 puts (1 - eps) E_T and (1 + eps) E_T on the lengths 3 and 9 at
        # eps = 0.5 and on 0 and 12 at eps = 1; ties count in neither tail.
        horizon = 13
        rng = random.Random(1)
        law = [0] * (horizon + 1)
        for _ in range(1 << horizon):
            law[rng.choice([0, 1, 3, 3, 4, 5, 6, 7, 8, 9, 9, 10, 12, 13])] += 1
        monkeypatch.setattr(Solver, "horizon_for_slack", lambda self, w, slack: horizon)
        monkeypatch.setattr(Solver, "branch_length_law", lambda self, w, h: tuple(law))
        monkeypatch.setattr(Solver, "bounded_randomized_littlestone", lambda self, w, h: F(3))
        eps_list = ["0.5", "1", "0.25", "0.1", repr(1 / 3)]
        argv = ["check", "concentration", "--n", "2", "--k", "1", "--eps", ",".join(eps_list)]
        main(argv)
        out = capsys.readouterr().out
        assert out.startswith("tree horizon 13, E_T = 6.000000, exact law\n")
        printed = re.findall(r"P\[X<\(1-eps\)E\]=([0-9.]+).*P\[X>\(1\+eps\)E\]=([0-9.]+)", out)

        def tail(lengths) -> str:
            return f"{float(F(sum(law[v] for v in lengths), 1 << horizon)):.5f}"

        expected = [
            (tail(v for v in range(horizon + 1) if v < (1 - F(eps)) * 6),
             tail(v for v in range(horizon + 1) if v > (1 + F(eps)) * 6))
            for eps in eps_list
        ]
        assert printed == expected
        assert expected[0] == (tail(range(3)), tail(range(10, horizon + 1)))
        assert expected[1] == ("0.00000", tail([13]))

    def test_n_past_the_explicit_cap(self, capsys):
        # Nothing is extracted over the 2^n advice vectors, so n = 17 runs.
        assert main(["check", "concentration", "--n", "17", "--k", "0"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-3"), ("--eps", "-1"), ("--eps", "0"),
        ("--eps", "x"), ("--eps", "0.1,,0.2"), ("--eps", "nan"), ("--eps", "inf"),
        ("--n", "0"), ("--k", "-1"),
    ])
    def test_bad_input_exits_2_before_any_work(self, monkeypatch, capsys, flag, value):
        def unused(*args, **kwargs):
            raise AssertionError("validation comes before the horizon search")

        monkeypatch.setattr(littlestone.cli, "Solver", unused)
        assert main(["check", "concentration", flag, value]) == 2
        assert flag in one_error_line(capsys)
        assert capsys.readouterr().out == ""


class TestCountFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["play", "--n", "2", "--learner", "soa", "--adversary", "branch", "--trials", "0"],
         "--trials"),
        (["play", "--n", "2", "--learner", "soa", "--adversary", "branch", "--trials", "-2"],
         "--trials"),
        (["play", "--n", "2", "--learner", "soa", "--adversary", "branch",
          "--max-rounds", "-1"], "--max-rounds"),
        (["tables", "--kind", "mstar2", "--max-k", "-1"], "--max-k"),
        (["tables", "--kind", "proper", "--max-n", "-1"], "--max-n"),
        (["tables", "--kind", "proper", "--max-n", "2.5"], "--max-n"),
        (["--budget-states", "-1", "experts", "--n", "2"], "--budget-states"),
    ])
    def test_out_of_range_exits_2_at_parse_time(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: needs an integer >= " in captured.err

    def test_lowest_values_are_accepted(self, capsys):
        assert main(["tables", "--kind", "mstar2", "--max-k", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["k,exact,decimal", "0,1/2,0.5"]
        assert main(["play", "--n", "2", "--learner", "soa", "--adversary", "branch",
                     "--trials", "1", "--max-rounds", "0"]) == 0
        assert capsys.readouterr().out.startswith("trial 0: total = 0 (0)")


def test_exact_rendering_round_trips(capsys):
    main(["experts", "--n", "2", "--k", "4", "--what", "dim"])
    token = capsys.readouterr().out.split()[0]
    from littlestone.dimension import Solver
    from littlestone.classes import expert_class

    assert F(token) == Solver().randomized_littlestone(expert_class(2, 4))


class TestRepeatedCalls:
    """One parser serves every ``main`` call of a process; no call leaks into the next."""

    def test_json_flag_does_not_stick(self, u2k2_file, capsys):
        assert main(["dim", u2k2_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "47/16"
        assert main(["dim", u2k2_file]) == 0
        assert capsys.readouterr().out.startswith("RL = 47/16 (2.9375)")

    def test_seed_does_not_stick(self, tmp_path, capsys):
        def transcript(*argv):
            out = tmp_path / "games.jsonl"
            assert main(["--out", str(out), *argv, "play", "--n", "2", "--k", "2",
                         "--learner", "randsoa", "--adversary", "branch"]) == 0
            return out.read_text()

        seeded = transcript("--seed", "5")
        default = transcript()
        assert default == transcript("--seed", "0") != seeded

    def test_usage_error_exits_2_every_time(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["dim"])
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err

    def test_parser_built_once_and_commands_looked_up_per_call(
        self, u2k2_file, monkeypatch, capsys
    ):
        assert main(["dim", u2k2_file]) == 0

        def unused():
            raise AssertionError("the parser was rebuilt")

        calls = []
        monkeypatch.setattr(littlestone.cli, "build_parser", unused)
        monkeypatch.setattr(littlestone.cli, "cmd_dim", lambda args: calls.append(args) or 7)
        assert main(["dim", u2k2_file, "--mode", "det"]) == 7
        assert [(a.class_file, a.mode) for a in calls] == [(u2k2_file, "det")]


def test_importing_changes_no_interpreter_setting():
    code = ("import sys; before = sys.getrecursionlimit(); import littlestone, littlestone.cli; "
            "print(before, sys.getrecursionlimit())")
    src = str(Path(littlestone.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    before, after = out.stdout.split()
    assert before == after
