"""The benchmark's three workloads: inputs made from a seed, the op list of
one pass, and the untimed checks of every op's output.

Class structures come from fixed catalogs, and the run seed only relabels
them (points renamed, and for the ``solve`` classes also permuted and
label-flipped; members shuffled and renamed), shuffles the op order and
draws game and sampling seeds.  Relabeling maps every dynamic-programming
state to an isomorphic one, so each seed does the same work and every exact
value in ``golden.json`` holds for every seed.  The ``strategy`` and
``play`` classes keep their point order, because tree extraction breaks ties
by point order and the tree's shape must not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from littlestone import cli, games, learners
from littlestone.classes import load_class, universal_class
from littlestone.dimension import Solver
from littlestone.experts import capacity_D, harmonic_number, mstar2_closed_form
from littlestone.trees import (
    expected_branch_length,
    quasi_balance_weights,
    tree_from_json,
    tree_to_json,
)

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))

# Structures of the random explicit classes; never derived from the run seed.
CATALOG_SEED = 230213849


@dataclass
class Op:
    """One timed unit: ``run()`` is called and timed, ``meta`` feeds the checks."""

    key: str
    kind: str
    run: Callable[[], Any]
    meta: dict = field(default_factory=dict)


@dataclass
class Plan:
    """A pass's op list and the check mapping failing op indices to reasons."""

    ops: list[Op]
    check: Callable[[list[Any]], dict[int, str]]


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    """One in-process CLI invocation with its output captured.

    ``cli.main`` is looked up at call time so that a traced pass sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


# -- inputs --------------------------------------------------------------------


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    """Distinct fixed-width random names, so JSON sizes do not vary by seed."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        name = f"{prefix}{rng.getrandbits(32):08x}"
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _class_doc(rows: list[tuple[tuple[int, ...], int]], rng: random.Random,
               permute: bool) -> dict:
    """A class document for ``rows`` of (labels, budget), relabeled by ``rng``."""
    npoints = len(rows[0][0])
    order = list(range(npoints))
    flips = [0] * npoints
    if permute:
        rng.shuffle(order)
        flips = [rng.getrandbits(1) for _ in order]
    members = [([labels[j] ^ f for j, f in zip(order, flips)], budget) for labels, budget in rows]
    rng.shuffle(members)
    return {
        "domain": _names(rng, npoints, "x"),
        "hypotheses": [
            {"name": name, "labels": labels, "budget": budget}
            for name, (labels, budget) in zip(_names(rng, len(members), "h"), members)
        ],
    }


def _universal_rows(n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    return [(m.labels, m.budget) for m in universal_class(n, k).members]


def _random_rows(spec: dict) -> list[list[tuple[tuple[int, ...], int]]]:
    rng = random.Random(CATALOG_SEED)
    catalog = []
    for _ in range(spec["count"]):
        m = rng.randint(*spec["members"])
        p = rng.randint(*spec["points"])
        seen: set = set()
        rows = []
        while len(rows) < m:
            row = (tuple(rng.getrandbits(1) for _ in range(p)), rng.randint(0, spec["max_budget"]))
            if row not in seen:
                seen.add(row)
                rows.append(row)
        catalog.append(rows)
    return catalog


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- solve -----------------------------------------------------------------------

# Class ids: "E{n},{k}" count-space expert_class, "U{n},{k}" explicit
# universal_class file, "R{i}" random explicit class file.
SOLVE = {
    "full": {
        "count": [(2, 3), (2, 6), (2, 9), (2, 12), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3),
                  (6, 3), (6, 4), (8, 2), (8, 3), (10, 2), (12, 1), (12, 2), (14, 2), (16, 1),
                  (20, 1)],
        "count_horizons": {(3, 2): (3, 6), (4, 3): (2, 4, 8), (6, 2): (4, 10), (8, 2): (8,),
                           (12, 1): (10,)},
        "universal": [(2, 3), (3, 2), (4, 2)],
        "universal_horizons": {(3, 2): (3, 6)},
        "random": {"count": 10, "members": (7, 9), "points": (9, 11), "max_budget": 2,
                   "horizons": (2, 4), "with_horizons": 4},
        "tables": [("2,3", 4), ("2,4", 3)],
    },
    "tiny": {
        "count": [(2, 3), (3, 2)],
        "count_horizons": {(3, 2): (3,)},
        "universal": [(3, 2)],
        "universal_horizons": {(3, 2): (3,)},
        "random": {"count": 1, "members": (4, 4), "points": (5, 5), "max_budget": 1,
                   "horizons": (2,), "with_horizons": 1},
        "tables": [("2,3", 2)],
    },
}

_DIM_LINE = re.compile(r"^(RL|L)(?:\(horizon \d+\))? = (\S+) ")


def _parse_expert_dim(res: CliResult) -> Fraction:
    return Fraction(res.out.split()[0])


def _parse_dim(res: CliResult) -> Fraction:
    m = _DIM_LINE.match(res.out)
    if m is None:
        raise ValueError(f"no dimension line in {res.out[:80]!r}")
    return Fraction(m.group(2))


def _parse_table(res: CliResult) -> list[list[str]]:
    """Exact columns of a dnk table: n, k, D, L_k, RL_k (as a fraction), mstar2."""
    rows = list(csv.DictReader(io.StringIO(res.out)))
    if not rows:
        raise ValueError("empty table")
    return [[r["n"], r["k"], r["D"], r["L_k"], str(Fraction(int(r["RL_k_num"]),
             int(r["RL_k_den"]))), r["mstar2"]] for r in rows]


def solve_plan(seed: int, workdir: Path, size: str = "full") -> Plan:
    spec = SOLVE[size]
    rng = random.Random(seed)
    ops: list[Op] = []

    def add(cls, mode, horizon, argv, parse, **meta):
        suffix = f"@{horizon}" if horizon is not None else ""
        ops.append(Op(f"{cls}:{mode}{suffix}", "cli", lambda: call_cli(argv),
                      dict(cls=cls, mode=mode, horizon=horizon, parse=parse, **meta)))

    for n, k in spec["count"]:
        for horizon in (None, *spec["count_horizons"].get((n, k), ())):
            argv = ["experts", "--what", "dim", "--n", str(n), "--k", str(k)]
            if horizon is not None:
                argv += ["--horizon", str(horizon)]
            add(f"E{n},{k}", "rand", horizon, argv, _parse_expert_dim, n=n, k=k)

    files = [(f"U{n},{k}", _universal_rows(n, k), spec["universal_horizons"].get((n, k), ()),
              {"n": n, "k": k}) for n, k in spec["universal"]]
    rand = spec["random"]
    for i, rows in enumerate(_random_rows(rand)):
        horizons = rand["horizons"] if i < rand["with_horizons"] else ()
        files.append((f"R{size[0]}{i}", rows, horizons, {}))
    for cls, rows, horizons, meta in files:
        path = _write(workdir / f"{cls.replace(',', '_')}.json", _class_doc(rows, rng, True))
        add(cls, "det", None, ["dim", path, "--mode", "det"], _parse_dim, **meta)
        for horizon in (None, *horizons):
            argv = ["dim", path, "--mode", "rand"]
            if horizon is not None:
                argv += ["--horizon", str(horizon)]
            add(cls, "rand", horizon, argv, _parse_dim, **meta)

    for n_list, max_k in spec["tables"]:
        argv = ["tables", "--kind", "dnk", "--n-list", n_list, "--max-k", str(max_k)]
        ops.append(Op(f"tables:{n_list}:{max_k}", "cli", lambda argv=argv: call_cli(argv),
                      dict(parse=_parse_table)))
    rng.shuffle(ops)
    return Plan(ops, lambda results: _check_solve(ops, results))


def _check_solve(ops: list[Op], results: list[Any]) -> dict[int, str]:
    bad: dict[int, str] = {}
    golden = GOLDEN["solve"]
    # (class id, mode, horizon) -> (value, op index); also filled from table rows.
    known: dict[tuple, tuple[Fraction, int]] = {}

    def register(key, value, i):
        if key in known and known[key][0] != value:
            why = f"{key} differs between ops: {known[key][0]} vs {value}"
            bad.setdefault(i, why)
            bad.setdefault(known[key][1], why)
        known.setdefault(key, (value, i))

    for i, (op, res) in enumerate(zip(ops, results)):
        if not isinstance(res, CliResult):
            continue
        if res.rc != 0:
            bad[i] = f"exit code {res.rc}: {res.err.strip()[:200]}"
            continue
        try:
            value = op.meta["parse"](res)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
            bad[i] = f"unparseable output: {e}"
            continue
        shown = [list(r) for r in value] if isinstance(value, list) else str(value)
        if golden.get(op.key) != shown:
            bad[i] = f"{op.key} = {shown}, golden {golden.get(op.key)}"
        if isinstance(value, list):
            for n, k, d, l_k, rl, _ in value:
                n, k, d, l_k = int(n), int(k), int(d), int(l_k)
                register((f"E{n},{k}", "det", None), Fraction(l_k), i)
                register((f"E{n},{k}", "rand", None), Fraction(rl), i)
                if d != capacity_D(n, k):
                    bad.setdefault(i, f"D({n},{k}) = {d}, expected {capacity_D(n, k)}")
                if not 2 * k + n.bit_length() - 1 <= l_k <= d:
                    bad.setdefault(i, f"L(expert({n},{k})) = {l_k} outside [2k+log n, D]")
        else:
            register((op.meta["cls"], op.meta["mode"], op.meta["horizon"]), value, i)

    # The count-space and explicit engines must agree on the same (n, k).
    for (cls, mode, horizon), (value, i) in list(known.items()):
        if cls.startswith("U"):
            register(("E" + cls[1:], mode, horizon), value, i)

    by_class: dict[str, dict] = {}
    for (cls, mode, horizon), (value, i) in known.items():
        by_class.setdefault(cls, {})[(mode, horizon)] = (value, i)
    for cls, vals in by_class.items():
        n, k = (int(v) for v in cls[1:].split(",")) if cls[0] in "EU" else (0, 0)
        rl = vals.get(("rand", None))
        det = vals.get(("det", None))
        if rl and n == 2 and rl[0] != mstar2_closed_form(k):
            bad.setdefault(rl[1], f"RL({cls}) = {rl[0]} != mstar2({k})")
        if rl and det and not rl[0] <= det[0] <= 2 * rl[0]:
            for _, i in (rl, det):
                bad.setdefault(i, f"{cls}: RL {rl[0]} <= L {det[0]} <= 2 RL fails")
        if det and n == 2 and det[0] != 2 * k + 1:
            bad.setdefault(det[1], f"L({cls}) = {det[0]} != 2k+1")
        previous = Fraction(0)
        for horizon in sorted(h for mode, h in vals if mode == "rand" and h is not None):
            value, i = vals[("rand", horizon)]
            cap = Fraction(horizon, 2) if rl is None else min(Fraction(horizon, 2), rl[0])
            if value < previous or value > cap:
                bad.setdefault(i, f"RL_{horizon}({cls}) = {value} not in [{previous}, {cap}]")
            previous = value
    return bad


# -- strategy ---------------------------------------------------------------------

STRATEGY = {
    "full": {
        "extract": [(2, 1, "1/16"), (2, 1, "1/64"), (2, 2, "1/16"), (2, 2, "1/64"),
                    (2, 3, "1/16"), (2, 3, "1/64"), (2, 4, "1/16"), (2, 4, "1/64"),
                    (2, 5, "1/64"), (3, 1, "1/16"), (3, 1, "1/64"), (3, 2, "1/16"),
                    (3, 2, "1/64"), (3, 3, "1/16"), (3, 3, "1/64"), (4, 1, "1/16"),
                    (4, 1, "1/64")],
        "concentration": [(2, "1/16", 4000), (2, "1/64", 4000), (3, "1/16", 4000),
                          (3, "1/64", 4000), (3, "1/32", 2000), (4, "1/16", 2000)],
        "play": [((2, 2), "randsoa", "threshold", 5), ((2, 3), "soa", "optimal", 3),
                 ((3, 2), "randsoa", "optimal", 3), ((2, 3), "constant:1/2", "threshold", 5),
                 ((3, 1), "squint", "threshold", 5), ((2, 1), "soa", "threshold", 8),
                 ((2, 3), "randsoa", "threshold", 5), ((3, 2), "soa", "threshold", 5),
                 ((2, 2), "squint", "optimal", 3), ((4, 1), "randsoa", "optimal", 5)],
    },
    "tiny": {
        "extract": [(2, 1, "1/16"), (3, 1, "1/16")],
        "concentration": [(1, "1/16", 200)],
        "play": [((2, 1), "randsoa", "threshold", 2)],
    },
}

_EXTRACT_NOTE = re.compile(r"# horizon (\d+), E_T = (\S+) .*branch weight = (\S+) ")
_TRIAL = re.compile(r"trial \d+: total = (\S+) .*realizable=(True|False)\]")


def strategy_plan(seed: int, workdir: Path, size: str = "full") -> Plan:
    spec = STRATEGY[size]
    rng = random.Random(seed)
    sizes = {(n, k) for n, k, _ in spec["extract"]} | {nk for nk, *_ in spec["play"]}
    files = {nk: _write(workdir / f"U{nk[0]}_{nk[1]}.json",
                        _class_doc(_universal_rows(*nk), rng, False)) for nk in sorted(sizes)}
    units: list[list[Op]] = []
    for n, k, slack in spec["extract"]:
        out = str(workdir / f"tree_{n}_{k}_{slack.replace('/', '_')}.json")
        meta = dict(cls=f"U{n},{k}", slack=slack, tree_file=out)
        extract = ["--out", out, "tree", "extract", files[(n, k)], "--slack", slack]
        analyze = ["tree", "analyze", out, "--class-file", files[(n, k)]]
        units.append([
            Op(f"extract:U{n},{k}@{slack}", "extract", lambda a=extract: call_cli(a), meta),
            Op(f"analyze:U{n},{k}@{slack}", "analyze", lambda a=analyze: call_cli(a), meta),
        ])
    for k, slack, samples in spec["concentration"]:
        argv = ["--seed", str(rng.randrange(2**31)), "check", "concentration", "--n", "2",
                "--k", str(k), "--slack", slack, "--samples", str(samples)]
        units.append([Op(f"concentration:E2,{k}@{slack}", "concentration",
                         lambda a=argv: call_cli(a))])
    for (n, k), learner, adversary, trials in spec["play"]:
        argv = ["--seed", str(rng.randrange(2**31)), "play", "--class-file", files[(n, k)],
                "--learner", learner, "--adversary", adversary, "--trials", str(trials)]
        meta = dict(cls=f"U{n},{k}", slack="1/16", learner=learner, trials=trials)
        units.append([Op(f"play:U{n},{k}:{learner}:{adversary}", "play",
                         lambda a=argv: call_cli(a), meta)])
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]
    verified: dict[str, str] = {}  # tree file -> digest whose round trip was checked
    return Plan(ops, lambda results: _check_strategy(ops, results, verified))


def _round_trip_error(text: str, branch_weight: Fraction) -> str | None:
    tree, weights = tree_from_json(text)
    if weights is None:
        return "tree file has no weights"
    if tree_to_json(tree, weights) != text.rstrip("\n"):
        return "JSON round trip does not reproduce the file"
    if weights.weights != quasi_balance_weights(tree).weights:
        return "stored weights are not the tree's quasi-balance weights"
    if expected_branch_length(tree) / 2 != branch_weight:
        return "E_T/2 of the stored tree differs from the reported branch weight"
    return None


def _check_strategy(ops: list[Op], results: list[Any], verified: dict[str, str]) -> dict[int, str]:
    bad: dict[int, str] = {}
    golden = GOLDEN["strategy"]
    for i, (op, res) in enumerate(zip(ops, results)):
        if not isinstance(res, CliResult):
            continue
        if res.rc != 0:
            bad[i] = f"exit code {res.rc}: {res.err.strip()[:200]}"
            continue
        if op.kind == "concentration":
            continue
        g = golden[op.meta["cls"]]
        at = g[op.meta["slack"]]
        half_e = Fraction(at["rl_t"])
        if op.kind == "extract":
            m = _EXTRACT_NOTE.search(res.err)
            if m is None:
                bad[i] = "no horizon/E_T note on stderr"
                continue
            horizon, branch_weight = int(m.group(1)), Fraction(m.group(3))
            if horizon != at["horizon"] or branch_weight != half_e:
                bad[i] = f"horizon {horizon}, E_T/2 {branch_weight}; golden {at}"
            elif Fraction(g["rl"]) - branch_weight > Fraction(op.meta["slack"]):
                bad[i] = "RL(W) - RL(W,T) exceeds the slack"
            else:
                data = Path(op.meta["tree_file"]).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if verified.get(op.meta["tree_file"]) != digest:
                    error = _round_trip_error(data.decode("utf-8"), branch_weight)
                    if error is not None:
                        bad[i] = error
                    else:
                        verified[op.meta["tree_file"]] = digest
        elif op.kind == "analyze":
            if "quasi-balanced     = True" not in res.out:
                bad[i] = "tree is not quasi-balanced"
            elif "shattered by class = True" not in res.out:
                bad[i] = "tree is not shattered by the class"
            elif f"expected length    = {2 * half_e} (" not in res.out:
                bad[i] = f"expected length is not {2 * half_e}"
        elif op.kind == "play":
            trials = _TRIAL.findall(res.out)
            if len(trials) != op.meta["trials"]:
                bad[i] = f"{len(trials)} trial lines, expected {op.meta['trials']}"
                continue
            refs = {"rl": g["rl"], "l": g["l"], "rl_t": at["rl_t"], "half_e": at["rl_t"]}
            for total, realizable in trials:
                reason = _game_error(op.meta["learner"], True, Fraction(total),
                                     realizable == "True", refs)
                if reason:
                    bad[i] = reason
                    break
    return bad


def _game_error(learner: str, threshold: bool, total: Fraction, realizable: bool,
                refs: dict) -> str | None:
    """Why a finished game breaks a guarantee of the paper, or None.

    ``refs`` holds the golden RL(W), L(W), RL(W,T) and E_T/2 of the game's
    class and tree.
    """
    if not realizable:
        return "transcript is not realizable by the declared class"
    if learner == "randsoa" and total > Fraction(refs["rl"]):
        return f"RandSOA paid {total} > RL(W) = {refs['rl']}"
    if learner == "bounded-randsoa" and total > Fraction(refs["rl_t"]):
        return f"bounded RandSOA paid {total} > RL(W,T) = {refs['rl_t']}"
    if learner == "soa" and total > refs["l"]:
        return f"SOA paid {total} > L(W) = {refs['l']}"
    if threshold and total < Fraction(refs["half_e"]):
        return f"threshold adversary forced only {total} < E_T/2 = {refs['half_e']}"
    return None


# -- play ------------------------------------------------------------------------

PLAY = {
    "full": {
        "classes": [(2, 1), (2, 2), (3, 1), (2, 3)],
        "learners": ["soa", "randsoa", "bounded-randsoa", "squint", "constant"],
        "games": 40,
        "proper": [3, 5, 8],
        "proper_games": 100,
    },
    "tiny": {
        "classes": [(2, 1)],
        "learners": ["soa", "randsoa", "bounded-randsoa", "squint", "constant"],
        "games": 1,
        "proper": [3],
        "proper_games": 1,
    },
}
PLAY_SLACK = Fraction(1, 16)


@dataclass
class _Config:
    """One class with its shared solver, adversaries and reference values."""

    key: str
    cls: Any
    solver: Solver
    horizon: int
    adversaries: dict
    golden_error: str | None


def _config(n: int, k: int, rng: random.Random) -> _Config:
    w = load_class(_class_doc(_universal_rows(n, k), rng, False))
    solver = Solver()
    horizon = solver.horizon_for_slack(w, PLAY_SLACK)
    tree, weights = solver.extract_optimal_tree(w, horizon)
    adversaries = {
        "branch": games.random_branch_adversary(tree, declared_class=w, check=False),
        "threshold": games.threshold_adversary(tree, weights, declared_class=w, check=False),
    }
    key = f"U{n},{k}"
    g = GOLDEN["play"][key]
    found = {
        "horizon": horizon,
        "rl": str(solver.randomized_littlestone(w)),
        "l": solver.littlestone(w),
        "rl_t": str(solver.bounded_randomized_littlestone(w, horizon)),
        "half_e": str(expected_branch_length(tree) / 2),
    }
    error = None if found == g else f"{key}: references {found} differ from golden {g}"
    return _Config(key, w, solver, horizon, adversaries, error)


def _game(config: _Config | None, selection: str, adversary, seed: int, n_experts=None):
    def run():
        learner = learners.make_learner(
            selection,
            config.cls if config else None,
            config.solver if config else None,
            horizon=config.horizon if config else None,
            n_experts=n_experts,
        )
        return games.play(learner, adversary, seed=seed)

    return run


def play_plan(seed: int, workdir: Path, size: str = "full") -> Plan:
    """Warm game loop; the first pass runs here, untimed, to fill the memos."""
    spec = PLAY[size]
    rng = random.Random(seed)
    ops: list[Op] = []
    for n, k in spec["classes"]:
        config = _config(n, k, rng)
        for adv_name, adversary in config.adversaries.items():
            for selection in spec["learners"]:
                if selection == "constant":
                    selection = f"constant:{Fraction(rng.randint(1, 9), 10)}"
                for _ in range(spec["games"]):
                    ops.append(Op(f"{config.key}:{selection}:{adv_name}", "game",
                                  _game(config, selection, adversary, rng.randrange(2**31)),
                                  dict(config=config, learner=selection,
                                       threshold=adv_name == "threshold")))
    for n in spec["proper"]:
        adversary = games.proper_adversary(n)
        for _ in range(spec["proper_games"]):
            ops.append(Op(f"proper{n}:ftl", "game",
                          _game(None, "ftl", adversary, rng.randrange(2**31), n_experts=n),
                          dict(n=n)))
    rng.shuffle(ops)
    for op in ops:
        try:
            op.run()
        except Exception:  # the timed passes report it as a failed op
            pass
    return Plan(ops, lambda results: _check_play(ops, results))


def _check_play(ops: list[Op], results: list[Any]) -> dict[int, str]:
    bad: dict[int, str] = {}
    for i, (op, t) in enumerate(zip(ops, results)):
        if not isinstance(t, games.Transcript):
            continue
        if t.certificate is None:
            bad[i] = "transcript has no realizability certificate"
        elif "n" in op.meta:
            if not t.certificate.realizable:
                bad[i] = "transcript is not realizable by the declared class"
            elif t.total != harmonic_number(op.meta["n"]) - 1:
                bad[i] = f"FTL paid {t.total} against proper, expected H_n - 1"
        else:
            config = op.meta["config"]
            reason = config.golden_error or _game_error(
                op.meta["learner"], op.meta["threshold"], t.total, t.certificate.realizable,
                GOLDEN["play"][config.key])
            if reason:
                bad[i] = reason
    return bad


WORKLOADS = {"solve": solve_plan, "strategy": strategy_plan, "play": play_plan}
