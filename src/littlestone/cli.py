"""Command-line surface: dimension queries, expert tables, tree tooling,
game playback, and the branch-length concentration check.

Every numeric result is printed as an exact rational alongside a decimal
rendering.  Exit codes: 0 success, 1 a checked bound failed (``check
concentration`` printed a ``FAIL`` line), 2 precondition, parse or file
failure, 3 compute-budget exhaustion.

``--out FILE`` takes a command's primary output, and ``--out -`` is stdout.
For ``play`` that is its JSONL transcripts, written after the games and
before the trial lines are printed (after them with ``--out -``); for every
other command it is what the command prints on stdout, written to the file
once the command exits 0 or 1.  So with ``--out FILE`` an exit of 2 or 3
leaves no file and prints nothing on stdout.
The commands share three paths: ``main`` handles ``--out``, ``_horizon``
resolves ``--horizon`` or else the ``--slack`` search, and ``_dimension``
answers ``dim`` and ``experts --what dim``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

from .classes import (
    ClassFileError,
    UnknownInstanceError,
    expert_class,
    load_class_file,
    universal_class,  # noqa: F401  # the benchmark tracer wraps cli.universal_class by name
)
from .dimension import EMPTY, ComputeBudgetError, Solver, result_document
from .experts import (
    capacity_D,
    d_star,
    harmonic_number,
    mstar2_closed_form,
    up_min_over_grid,
    vovk_up,
)
from .games import (
    AdversaryPreconditionError,
    GameProtocolError,
    play,
    proper_adversary,
    random_branch_adversary,
    threshold_adversary,
)
from .learners import (
    EmptyVersionSpaceError,
    HorizonExhaustedError,
    UnrealizableSequenceError,
    make_learner,
)
from .trees import (
    NotQuasiBalancedError,
    quasi_balance_weights,
    shatter_check,
    tree_from_json,
    tree_statistics,
    tree_to_json,
)

# Unused here: ``tree analyze`` reads these statistics off one fold, and the
# concentration tails are exact.  The benchmark tracer wraps them by name, so
# they stay until its wrappers go (ROADMAP item 6).
from .trees import depth, expected_branch_length, is_monotone, min_branch_length, sample_branch


def fmt(value) -> str:
    """Exact value plus decimal rendering, e.g. '47/16 (2.9375)'."""
    if value == EMPTY:
        return "EMPTY (-1)"
    return f"{value} ({float(value):.17g})"


def _rational(option: str, text: str, convert=Fraction):
    """``convert`` of the exact value of ``text``, the value given to
    ``option``; a ValueError naming both if either step fails."""
    try:
        return convert(Fraction(text))
    except (ValueError, ArithmeticError) as e:
        raise ValueError(f"bad value {text!r} for {option}: {type(e).__name__}: {e}") from None


def _dimension(solver: Solver, w, mode: str, horizon: int | None) -> Fraction:
    """L (``mode`` "det") or RL (``mode`` "rand") of ``w``, bounded by ``horizon`` where one is given."""
    if mode == "det":
        return solver.littlestone(w) if horizon is None else solver.bounded_littlestone(w, horizon)
    if horizon is None:
        return solver.randomized_littlestone(w)
    return solver.bounded_randomized_littlestone(w, horizon)


def _horizon(solver: Solver, w, horizon: int | None, slack: str) -> int:
    """``horizon`` where given, else the least horizon whose RL_T is within
    ``slack`` (the text of ``--slack``) of RL."""
    if horizon is not None:
        return horizon
    return solver.horizon_for_slack(w, _rational("--slack", slack))


def cmd_dim(args) -> int:
    w = load_class_file(args.class_file)
    solver = Solver(state_budget=args.budget_states)
    start = time.perf_counter()
    value = _dimension(solver, w, args.mode, args.horizon)
    elapsed = time.perf_counter() - start
    name = "L" if args.mode == "det" else "RL"
    if args.json:
        print(json.dumps(result_document(value, solver.states_visited)))
        return 0
    suffix = f"(horizon {args.horizon})" if args.horizon is not None else ""
    print(f"{name}{suffix} = {fmt(value)}")
    if w.duplicates_collapsed:
        print(f"note: collapsed {w.duplicates_collapsed} duplicate member(s) on load")
    print(f"states visited: {solver.states_visited}")
    print(f"wall time: {elapsed:.3f}s")
    return 0


def cmd_experts(args) -> int:
    if args.what == "dim":
        solver = Solver(state_budget=args.budget_states)
        print(fmt(_dimension(solver, expert_class(args.n, args.k), "rand", args.horizon)))
    elif args.what == "D":
        print(capacity_D(args.n, args.k))
    elif args.what == "dstar":
        v = d_star(args.n, args.k)
        print(f"{v.value:.12g} (residual {v.residual:.3g})")
    elif args.what == "up":
        beta = _rational("--beta", args.beta, float) if args.beta is not None else None
        if beta is None:
            print(f"{up_min_over_grid(args.n, args.k):.12g} (min over beta grid)")
        else:
            print(f"{vovk_up(args.n, args.k, beta).value:.12g}")
    return 0


def _n_list(text: str) -> list[int]:
    """The expert counts of ``--n-list``: comma-separated integers >= 1."""
    try:
        ns = [int(v) for v in text.split(",")]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1:
        raise ValueError(f"--n-list needs comma-separated integers >= 1, got {text!r}")
    return ns


def _eps_list(text: str) -> list[Fraction]:
    """The tolerances of ``--eps``: comma-separated numbers > 0, each read
    exactly, so (1 +- eps) E_T compares exactly with integer lengths."""
    parts = text.split(",")
    try:
        eps = [Fraction(v) for v in parts if math.isfinite(float(v))]
    except ValueError:
        eps = []
    if len(eps) != len(parts) or not all(e > 0 for e in eps):
        raise ValueError(f"--eps needs comma-separated finite numbers > 0, got {text!r}")
    return eps


def _count(minimum: int):
    """The argparse type of a count flag: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"needs an integer >= {minimum}, got {text!r}")
        return value

    return parse


def cmd_tables(args) -> int:
    writer = csv.writer(sys.stdout)
    if args.kind == "proper":
        writer.writerow(["n", "exact", "decimal"])
        for n in range(2, args.max_n + 1):
            v = harmonic_number(n) - 1
            writer.writerow([n, str(v), f"{float(v):.17g}"])
    elif args.kind == "mstar2":
        writer.writerow(["k", "exact", "decimal"])
        for k in range(args.max_k + 1):
            v = mstar2_closed_form(k)
            writer.writerow([k, str(v), f"{float(v):.17g}"])
    else:  # dnk
        ns = _n_list(args.n_list)  # before the header, so a bad list prints nothing
        solver = Solver(state_budget=args.budget_states)
        writer.writerow(
            ["n", "k", "D", "L_k", "RL_k_num", "RL_k_den", "mstar2", "d_star", "up_min",
             "RL_k_minus_D_half"]
        )
        for n in ns:
            for k in range(args.max_k + 1):
                cls = expert_class(n, k)
                rl = solver.randomized_littlestone(cls)
                d = capacity_D(n, k)
                row = [
                    n,
                    k,
                    d,
                    solver.littlestone(cls),
                    rl.numerator,
                    rl.denominator,
                    str(mstar2_closed_form(k)) if n == 2 else "",
                    f"{d_star(n, k).value:.12g}" if k >= 1 and n >= 2 else "",
                    f"{up_min_over_grid(n, k):.12g}",
                    str(rl - Fraction(d, 2)),
                ]
                writer.writerow(row)
    return 0


def _load_game_class(args):
    if args.class_file is not None:
        return load_class_file(args.class_file)
    if args.n is None:
        raise ClassFileError("need either a class file or --n/--k")
    return expert_class(args.n, args.k)  # learners run on counts


def cmd_play(args) -> int:
    if args.learner.startswith("constant:"):  # checked before any game is set up
        _rational("--learner constant:P", args.learner.split(":", 1)[1])
    w = _load_game_class(args)
    solver = Solver(state_budget=args.budget_states)
    given = args.horizon if args.adversary != "optimal" else None  # optimal: the slack's horizon
    tree_horizon = None
    if args.adversary == "proper":
        if args.n is None:
            raise AdversaryPreconditionError("the proper adversary needs --n")
        adversary = proper_adversary(args.n)
    else:
        # Tree nodes name domain points: an expert class is materialized
        # once, here, so past the 16-expert cap no search runs first.
        tree_class = w.explicit()
        tree_horizon = _horizon(solver, tree_class, given, args.slack)
        tree, weights = solver.extract_optimal_tree(tree_class, tree_horizon)
        if args.adversary == "branch":  # fair coins read no weights
            adversary = random_branch_adversary(tree, declared_class=tree_class, check=False)
        else:  # threshold, optimal
            adversary = threshold_adversary(tree, weights, declared_class=tree_class, check=False)
    # The learner's horizon: --horizon where the adversary honours it, else
    # --max-rounds, else the tree's.  play() resets the adversary each trial.
    horizon = given if given is not None else args.max_rounds if args.max_rounds is not None else tree_horizon
    totals, lines, transcripts = [], [], []
    for trial in range(args.trials):
        learner = make_learner(args.learner, w, solver, horizon=horizon, n_experts=args.n)
        transcript = play(learner, adversary, max_rounds=args.max_rounds, seed=args.seed + trial)
        totals.append(transcript.total)
        transcripts.append(transcript.to_jsonl())
        cert = transcript.certificate
        cert_str = ""
        if cert is not None:
            cert_str = (
                f"  [certificate: best={cert.best_member} mistakes={cert.mistakes} "
                f"realizable={cert.realizable}]"
            )
        lines.append(f"trial {trial}: total = {fmt(transcript.total)}{cert_str}")
    if len(totals) > 1:
        mean = sum(totals, Fraction(0)) / len(totals)
        lines += [f"mean  = {fmt(mean)}", f"min   = {fmt(min(totals))}", f"max   = {fmt(max(totals))}"]
    # The transcripts go out first, so a file that cannot be written leaves
    # stdout empty; with ``--out -`` they follow the summary.
    if args.out == "-":
        lines += transcripts
    elif args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            print("\n".join(transcripts), file=fh)
    print("\n".join(lines))
    return 0


def cmd_tree_extract(args) -> int:
    w = load_class_file(args.class_file)
    solver = Solver(state_budget=args.budget_states)
    horizon = _horizon(solver, w, args.horizon, args.slack)
    tree, weights = solver.extract_optimal_tree(w, horizon)
    print(tree_to_json(tree, weights))
    e = 2 * solver.bounded_randomized_littlestone(w, horizon)  # the tree's E_T; a memo read
    print(f"# horizon {horizon}, E_T = {fmt(e)}, branch weight = {fmt(e / 2)}", file=sys.stderr)
    return 0


def cmd_tree_analyze(args) -> int:
    with open(args.tree_file, "r", encoding="utf-8") as fh:
        tree, weights = tree_from_json(fh.read())
    e, height, shortest, monotone = tree_statistics(tree)
    print(f"depth              = {height}")
    print(f"expected length    = {fmt(e)}")
    print(f"min branch length  = {shortest}")
    print(f"monotone           = {monotone}")
    if monotone:  # quasi-balanced exactly when monotone
        print(f"quasi-balanced     = True (branch weight {fmt(e / 2)})")
    else:
        try:
            quasi_balance_weights(tree)
        except NotQuasiBalancedError as err:
            print(f"quasi-balanced     = False (violation at node {err.position!r})")
    if args.class_file:
        w = load_class_file(args.class_file)
        report = shatter_check(tree, w)
        print(f"shattered by class = {report.ok}")
        if not report.ok:
            print(f"  failing branches: {report.failing_count}")
    return 0


def cmd_check_concentration(args) -> int:
    # Validate before any work, so a bad value prints nothing on stdout.
    if args.samples < 1:  # ignored: the tails are exact; kept for old command lines
        raise ValueError(f"--samples needs an integer >= 1, got {args.samples}")
    if args.n < 1:
        raise ValueError(f"--n needs an integer >= 1, got {args.n}")
    if args.k < 0:
        raise ValueError(f"--k needs an integer >= 0, got {args.k}")
    eps_list = _eps_list(args.eps)
    solver = Solver(state_budget=args.budget_states)
    w = expert_class(args.n, args.k)
    horizon = _horizon(solver, w, None, args.slack)
    law = solver.branch_length_law(w, horizon)  # P(length = L) = law[L] / 2^horizon
    e_t = 2 * solver.bounded_randomized_littlestone(w, horizon)  # a memo read
    scale = 1 << horizon
    ok = True
    print(f"tree horizon {horizon}, E_T = {float(e_t):.6f}, exact law")
    for eps in eps_list:
        below, above = (1 - eps) * e_t, (1 + eps) * e_t
        lower = Fraction(sum(c for length, c in enumerate(law) if length < below), scale)
        upper = Fraction(sum(c for length, c in enumerate(law) if length > above), scale)
        bound_lower = math.exp(-eps * eps * e_t / 4)
        bound_upper = math.exp(-eps * eps * e_t / (4 * (1 + eps)))
        ok_lower = lower <= bound_lower
        ok_upper = upper <= bound_upper
        ok = ok and ok_lower and ok_upper
        print(
            f"eps={float(eps):g}: P[X<(1-eps)E]={float(lower):.5f} <= {bound_lower:.5f} : "
            f"{'PASS' if ok_lower else 'FAIL'};  "
            f"P[X>(1+eps)E]={float(upper):.5f} <= {bound_upper:.5f} : "
            f"{'PASS' if ok_upper else 'FAIL'}"
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littlestone",
        description="Exact optimal online prediction: dimensions, learners, adversaries.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed (default 0): play seeds trial i with seed + i",
    )
    parser.add_argument(
        "--budget-states",
        type=_count(0),
        default=None,
        help="cap on dynamic-programming states before aborting with exit code 3",
    )
    parser.add_argument("--out", default=None, help="write primary output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="Littlestone dimensions of a class file")
    p.add_argument("class_file")
    p.add_argument("--mode", choices=["det", "rand"], default="rand")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit the result as a JSON record")
    p.set_defaults(func="cmd_dim")

    p = sub.add_parser("experts", help="expert-advice quantities for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--what", choices=["dim", "D", "dstar", "up"], default="dim")
    p.add_argument("--beta", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func="cmd_experts")

    p = sub.add_parser("tables", help="emit CSV tables")
    p.add_argument("--kind", choices=["mstar2", "dnk", "proper"], required=True)
    p.add_argument("--max-k", type=_count(0), default=8)
    p.add_argument("--max-n", type=_count(0), default=10)
    p.add_argument("--n-list", default="2,4")
    p.set_defaults(func="cmd_tables")

    p = sub.add_parser("play", help="run learner-vs-adversary games")
    p.add_argument("--class-file", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--learner", required=True)
    p.add_argument(
        "--adversary", choices=["branch", "threshold", "optimal", "proper"], required=True
    )
    p.add_argument("--trials", type=_count(1), default=1)
    p.add_argument("--max-rounds", type=_count(0), default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--slack", default="1/16")
    p.set_defaults(func="cmd_play")

    p = sub.add_parser("tree", help="extract or analyze adversary trees")
    tree_sub = p.add_subparsers(dest="tree_command", required=True)
    pe = tree_sub.add_parser("extract")
    pe.add_argument("class_file")
    pe.add_argument("--horizon", type=int, default=None)
    pe.add_argument("--slack", default="1/16")
    pe.set_defaults(func="cmd_tree_extract")
    pa = tree_sub.add_parser("analyze")
    pa.add_argument("tree_file")
    pa.add_argument("--class-file", default=None)
    pa.set_defaults(func="cmd_tree_analyze")

    p = sub.add_parser("check", help="statistical checks")
    check_sub = p.add_subparsers(dest="check_command", required=True)
    pc = check_sub.add_parser("concentration")
    pc.add_argument("--n", type=int, default=2)
    pc.add_argument("--k", type=int, default=5)
    pc.add_argument("--slack", default="1/64")
    pc.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="ignored: the tails come from the exact law (an integer >= 1 is still required)",
    )
    pc.add_argument("--eps", default="0.1,0.2,0.3")
    pc.set_defaults(func="cmd_check_concentration")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built once per process; parsing leaves it unchanged
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # By name at call time, so that a replaced ``cmd_*`` is the one run.
        command = globals()[args.func]
        if args.out in (None, "-") or args.command == "play":  # play writes its transcripts itself
            return command(args)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = command(args)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
        return code
    except ComputeBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print(
            f"error: input too deep: needs more than {sys.getrecursionlimit()} nested calls",
            file=sys.stderr,
        )
        return 2
    except ArithmeticError as e:  # rational flags raise ValueError; this is any other
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (
        UnknownInstanceError,
        GameProtocolError,
        EmptyVersionSpaceError,
        HorizonExhaustedError,
        UnrealizableSequenceError,
        OSError,
        ValueError,
    ) as e:
        # KeyError's str() quotes its message; print the message itself.
        message = e.args[0] if isinstance(e, UnknownInstanceError) else str(e)
        if "integer string conversion" in message:
            # Python's own message names an interpreter setting, not a CLI option.
            message = (
                "the exact value has more digits than the "
                f"{sys.get_int_max_str_digits()}-digit limit on printing an integer"
            )
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
