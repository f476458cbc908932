"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from littlestone.classes import ExpertClass  # noqa: E402
from littlestone.dimension import Solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(workload, tmp_path, trace=False, seed=7):
    return run.measure(workload, seed, 0.01, trace, workdir=tmp_path / "work",
                       spans_path=tmp_path / "spans.jsonl", size="tiny")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path, capsys):
    out = tiny(workload, tmp_path, trace)
    run.report(out)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert "failed_ratio = 0 ratio" in lines
    assert not (tmp_path / "work").exists()
    assert (tmp_path / "spans.jsonl").exists() == trace


def _precision(w) -> int:
    """P with RL(W) * 2^P an integer: the sum of (budget + 1) over members."""
    if isinstance(w, ExpertClass):
        return sum(b + 1 for b in w.budgets if b is not None)
    return sum(m.budget + 1 for m in w.members)


def test_a_value_off_by_one_dyadic_unit_fails_its_op(tmp_path, monkeypatch):
    exact = Solver.randomized_littlestone

    def off(self, w):
        return exact(self, w) + Fraction(1, 2 ** _precision(w))

    monkeypatch.setattr(Solver, "randomized_littlestone", off)
    out = tiny("solve", tmp_path)
    failed = {note.split(": ")[0] for note in out["notes"]}
    expected = {"E2,3:rand", "E3,2:rand", "U3,2:rand", "Rt0:rand", "tables:2,3:2"}
    assert failed == expected
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == len(expected) * len(out["summary"]["pass_walls_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_at_a_fixed_seed(workload, tmp_path):
    first = tiny(workload, tmp_path / "a", trace=True)
    second = tiny(workload, tmp_path / "b", trace=True)
    assert first["result"]["correct"], first["notes"]
    assert first["summary"]["counters"] == second["summary"]["counters"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
