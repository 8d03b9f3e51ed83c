"""Command-line interface.

Exit codes: 0 success (or Proved/Sat), 1 Disproved/Unsat (or a violation
witness found), 2 Unknown/Timeout, 3 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

# each command imports the modules it needs in its handler, so that a run
# loads only those
from .errors import ChcError
from .syntax import Program, parse_program, print_program, renumbered

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

SOLVER_ENV = "CHCPAIR_SOLVER"


def _decimal(text: str) -> int:
    """text as an int when it is an ASCII decimal integer, -?[0-9]+, as in
    clause and model files; int() alone also takes underscores, surrounding
    blanks and other scripts' digits. Raises ValueError otherwise."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


# argparse names the type in its message: "invalid int value: 'x'"
_decimal.__name__ = "int"


def _seconds(text: str) -> float:
    """text as a float when it is an ASCII decimal, [0-9]+(.[0-9]+)?;
    float() alone also takes inf, nan, exponents, signs, underscores,
    surrounding blanks and other scripts' digits. Raises ValueError
    otherwise."""
    if re.fullmatch(r"[0-9]+(\.[0-9]+)?", text) is None:
        raise ValueError(f"invalid float value: {text!r}")
    return float(text)


_seconds.__name__ = "float"


def _read_program(path: str) -> Program:
    return parse_program(Path(path).read_text(encoding="utf-8-sig"))


def _verdict_exit(v) -> int:
    from .lia import Verdict

    if v is Verdict.PROVED:
        return EXIT_OK
    if v is Verdict.DISPROVED:
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _cmd_transform(args) -> int:
    from .kernel import classify_sequence
    from .pairing import PairingConfig, iterate_pairing

    prog = _read_program(args.input)
    goals = prog.goals()
    if args.query == "auto":
        if len(goals) != 1:
            print(
                f"error: --query auto needs exactly one goal clause, found {len(goals)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        goal = goals[0]
    else:
        try:
            goal = prog.clause(_decimal(args.query))
        except (ValueError, KeyError):
            print(f"error: no clause with id {args.query!r}", file=sys.stderr)
            return EXIT_USAGE
        if not goal.is_goal:
            print(f"error: clause {args.query} is not a goal", file=sys.stderr)
            return EXIT_USAGE
    other_goals = [g for g in goals if g.cid != goal.cid]
    definite = [c for c in prog if not c.is_goal]
    cfg = PairingConfig(max_defs=args.max_defs, iterate=args.iterate)
    work = Program(
        [c for c in definite] + [goal],
    )
    res = iterate_pairing(work, [], cfg)
    out_clauses = list(res.transf) + other_goals
    out = Program(renumbered(out_clauses))
    # both files before stdout, so that a command that fails to write one
    # leaves stdout empty
    text = print_program(out)
    if args.trace:
        Path(args.trace).write_text(res.trace_text(), encoding="utf-8")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    rep = classify_sequence(res.steps)
    print(
        f"; defs introduced: {len(res.defs)}; clauses: {len(out)}; "
        f"all defs unfolded: {not rep.defs_not_unfolded}; foldings reversible: "
        f"{rep.all_foldings_reversible}",
        file=sys.stderr,
    )
    for ov in res.overlaps:
        print(
            f"; partition overlap at {ov.pred!r}: goal {ov.goal_id} left untransformed",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_check_model(args) -> int:
    from .models import check_model
    from .smtlib import parse_model

    prog = _read_program(args.program)
    sigma = parse_model(Path(args.model).read_text(encoding="utf-8-sig"))
    res = check_model(prog, sigma)
    for cid, v in res.per_clause:
        print(f"clause {cid}: {v.value}")
    if res.defaulted_preds:
        print(f"defaulted to true: {', '.join(res.defaulted_preds)}")
    print(f"overall: {res.overall.value}")
    return _verdict_exit(res.overall)


def _cmd_check_tight(args) -> int:
    from .models import check_tight
    from .smtlib import parse_model

    prog = _read_program(args.defs)
    sigma = parse_model(Path(args.model).read_text(encoding="utf-8-sig"))
    v = check_tight(prog, sigma)
    print(f"tight: {v.value}")
    return _verdict_exit(v)


def _parse_box(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return _decimal(lo), _decimal(hi)  # without "..", hi is "" and raises
    except ValueError:
        raise ValueError(f"bad box {text!r}, expected LO..HI") from None


def _cmd_oracle(args) -> int:
    from . import oracle

    prog = _read_program(args.program)
    lo, hi = _parse_box(args.box)
    budget = oracle.OracleBudget(args.depth, lo, hi)
    if prog.goals():
        res = oracle.false_derivable(prog, budget)
        if isinstance(res, oracle.Found):
            vals = ", ".join(f"{v.name}={x}" for v, x in res.valuation.items())
            print(f"found: goal {res.goal_id} violated" + (f" with {vals}" if vals else ""))
            return EXIT_NEGATIVE
        print("not within budget")
        return EXIT_OK
    atoms = sorted(oracle.bounded_lm(prog, budget), key=lambda a: (a.pred, a.args))
    for a in atoms:
        print(a)
    return EXIT_OK


def _cmd_emit(args) -> int:
    prog = _read_program(args.program)
    if args.format == "smtlib":
        from .smtlib import emit_smtlib

        sys.stdout.write(emit_smtlib(prog))
    else:
        sys.stdout.write(print_program(prog))
    return EXIT_OK


def _cmd_solve(args) -> int:
    from . import solver

    prog = _read_program(args.program)
    cmd = args.solver or os.environ.get(SOLVER_ENV)
    if not cmd:
        print(
            f"error: no solver configured (use --solver or ${SOLVER_ENV})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cfg = solver.SolverConfig.from_command_line(cmd, timeout_seconds=args.timeout)
    res = solver.external_solve(prog, cfg)
    print(res.status.value)
    if res.status is solver.SolveStatus.SAT and res.model_text and args.model:
        Path(args.model).write_text(res.model_text + "\n", encoding="utf-8")
    if res.detail:
        print(res.detail, file=sys.stderr)
    return {
        solver.SolveStatus.SAT: EXIT_OK,
        solver.SolveStatus.UNSAT: EXIT_NEGATIVE,
        solver.SolveStatus.UNKNOWN: EXIT_UNKNOWN,
        solver.SolveStatus.TIMEOUT: EXIT_UNKNOWN,
        solver.SolveStatus.PROCESS_ERROR: EXIT_USAGE,
    }[res.status]


def _cmd_validate_trace(args) -> int:
    from .kernel import classify_sequence, parse_trace

    steps = parse_trace(Path(args.trace).read_text(encoding="utf-8-sig"))
    rep = classify_sequence(steps)
    missing = list(rep.defs_not_unfolded)
    ok = not missing
    print(f"steps: {len(steps)}")
    print(f"all definitions unfolded: {ok}" + (f" (missing: {missing})" if not ok else ""))
    print(f"no self-unfolding: {rep.no_self_unfolding}")
    print(f"all foldings reversible: {rep.all_foldings_reversible}")
    return EXIT_OK if ok else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_USAGE, not argparse's
    2, which means Unknown here; its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="chcpair",
        description="Transform constrained Horn clauses by predicate pairing",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("transform", help="run the pairing strategy on a goal")
    t.add_argument("input")
    t.add_argument("--query", default="auto", help="goal clause id, or 'auto'")
    t.add_argument("--iterate", action="store_true", help="iterate over all pairs")
    t.add_argument("--max-defs", type=_decimal, default=64)
    t.add_argument("--trace", help="write the transformation trace to a file")
    t.add_argument("-o", "--output", help="write the transformed program here")
    t.set_defaults(fn=_cmd_transform)

    cm = sub.add_parser("check-model", help="check an interpretation against a program")
    cm.add_argument("program")
    cm.add_argument("model")
    cm.set_defaults(fn=_cmd_check_model)

    ct = sub.add_parser("check-tight", help="check tightness on a definition set")
    ct.add_argument("defs")
    ct.add_argument("model")
    ct.set_defaults(fn=_cmd_check_tight)

    orc = sub.add_parser("oracle", help="bounded ground evaluation")
    orc.add_argument("program")
    orc.add_argument("--depth", type=_decimal, required=True)
    orc.add_argument("--box", required=True, help="value box LO..HI, e.g. 0..3 or -1..1")
    orc.set_defaults(fn=_cmd_oracle)

    em = sub.add_parser("emit", help="print the program in another format")
    em.add_argument("program")
    em.add_argument("--format", choices=["smtlib", "chc"], default="smtlib")
    em.set_defaults(fn=_cmd_emit)

    so = sub.add_parser("solve", help="run an external Horn solver")
    so.add_argument("program")
    so.add_argument("--solver", help=f"solver command (default ${SOLVER_ENV})")
    so.add_argument("--timeout", type=_seconds, default=60)
    so.add_argument("--model", help="write a sat model to this file")
    so.set_defaults(fn=_cmd_solve)

    vt = sub.add_parser("validate-trace", help="check theorem side conditions on a trace")
    vt.add_argument("trace")
    vt.set_defaults(fn=_cmd_validate_trace)
    return ap


def _glue_box(argv: list[str]) -> list[str]:
    """argv with `--box LO..HI` written as `--box=LO..HI`.

    argparse reads a separate value that starts with '-' and is not a plain
    number, such as -1..1, as an option, and then finds `--box` without
    its value.
    """
    out: list[str] = []
    for a in argv:
        if out and out[-1] == "--box" and a.startswith("-"):
            out[-1] = f"--box={a}"
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_glue_box(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except (ChcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
