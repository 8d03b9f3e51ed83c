import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import chcpair
from chcpair import corpus, parse_program
from chcpair.cli import main

CORPUS_DIR = Path(corpus.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


def test_emit_smtlib(capsys):
    assert run("emit", CORPUS_DIR / "sum_upto.chc") == 0
    out = capsys.readouterr().out
    assert out.startswith("(set-logic HORN)")


def test_emit_refuses_reserved_smtlib_symbols(tmp_path, capsys):
    f = tmp_path / "reserved.chc"
    f.write_text("and(_, STRING) :- _ = 0, STRING = 1.\n", encoding="utf-8")
    assert run("emit", f) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'and' is reserved in SMT-LIB" in captured.err
    # the CHC text itself is fine
    assert run("emit", f, "--format", "chc") == 0


def test_emit_chc_round_trips(capsys):
    assert run("emit", CORPUS_DIR / "ackermann.chc", "--format", "chc") == 0
    out = capsys.readouterr().out
    assert len(parse_program(out)) == 9


def test_oracle_witness_exit_code(capsys):
    assert run("oracle", CORPUS_DIR / "hl.chc", "--depth", "6", "--box", "0..3") == 1
    assert "found" in capsys.readouterr().out


def test_oracle_within_budget(capsys):
    assert run("oracle", CORPUS_DIR / "sum_upto.chc", "--depth", "6", "--box", "0..3") == 0
    assert "not within budget" in capsys.readouterr().out


def test_oracle_witness_is_independent_of_the_hash_seed():
    src = str(Path(chcpair.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "chcpair.cli", "oracle", str(CORPUS_DIR / "hl.chc"),
            "--depth", "6", "--box", "0..3"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, encoding="utf-8",
                              timeout=120)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("found: goal 1 violated with ")


@pytest.mark.parametrize("text, line", [
    ("p(X) :- X = 1.\nfalse :- p(X), X >= 0.\n", "found: goal 2 violated with X=1"),
    # a goal without variables has an empty valuation
    ("p.\nfalse :- p, p.\n", "found: goal 2 violated"),
])
def test_oracle_prints_the_violated_goal(tmp_path, capsys, text, line):
    f = tmp_path / "p.chc"
    f.write_text(text, encoding="utf-8")
    assert run("oracle", f, "--depth", "3", "--box", "-1..2") == 1
    assert capsys.readouterr().out.splitlines() == [line]


def test_oracle_takes_a_box_with_a_negative_bound(tmp_path, capsys):
    f = tmp_path / "p.chc"
    f.write_text("p(X) :- X = -1.\np(X) :- X = Y + 1, p(Y).\n", encoding="utf-8")
    for box in (["--box", "-1..1"], ["--box=-1..1"]):
        assert run("oracle", f, "--depth", "3", *box) == 0
        assert capsys.readouterr().out.splitlines() == ["p(-1)", "p(0)", "p(1)"]


# int() would also take an underscore, other scripts' digits and blanks
@pytest.mark.parametrize("box", ["a..3", "0..", "0-3", "1.5..3", "3", "0..1_0", "\u0660..\u0663",
                                 " 0..3 ", "0.. 3"])
def test_oracle_refuses_a_bad_box_with_its_own_message(box, capsys):
    assert run("oracle", CORPUS_DIR / "sum_upto.chc", "--depth", "2", "--box", box) == 3
    assert capsys.readouterr().err.strip() == f"error: bad box {box!r}, expected LO..HI"


def test_oracle_lists_atoms_for_definite_programs(tmp_path, capsys):
    f = tmp_path / "p.chc"
    f.write_text("p(X) :- X = 0.\np(X) :- X = Y + 1, p(Y).\n", encoding="utf-8")
    assert run("oracle", f, "--depth", "3", "--box", "0..3") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p(0)", "p(1)", "p(2)"]


def test_transform_writes_program_and_trace(tmp_path, capsys):
    out = tmp_path / "out.chc"
    tr = tmp_path / "run.trace"
    code = run(
        "transform", CORPUS_DIR / "ackermann.chc",
        "--query", "auto", "-o", out, "--trace", tr,
    )
    assert code == 0
    transformed = parse_program(out.read_text(encoding="utf-8"))
    assert "new1" in transformed.preds() and "new2" in transformed.preds()
    assert "PAIR" in tr.read_text(encoding="utf-8")
    err = capsys.readouterr().err
    assert "defs introduced: 2" in err


def test_transform_that_cannot_write_its_trace_prints_no_program(tmp_path, capsys):
    """The trace is written before the program, so a transform that fails
    to write it exits 3 with nothing on stdout and no -o file."""
    bad = tmp_path / "missing" / "run.trace"
    assert run("transform", CORPUS_DIR / "ackermann.chc", "--trace", bad) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    out = tmp_path / "out.chc"
    assert run("transform", CORPUS_DIR / "ackermann.chc", "--trace", bad, "-o", out) == 3
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_a_used_up_definitions_budget_exits_unknown(tmp_path):
    """A run that needs more definitions than --max-defs gives up, as a
    timeout does: it exits 2, not 3, and writes no program and no trace."""
    fib = CORPUS_DIR / "fib_injectivity.chc"
    out, tr = tmp_path / "out.chc", tmp_path / "run.trace"
    proc = _run_strict("transform", fib, "--iterate", "--max-defs", "22", "-o", out,
                       "--trace", tr)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: definition cap 22 reached\n"
    assert not out.exists() and not tr.exists()
    proc = _run_strict("transform", fib, "--iterate", "--max-defs", "23")
    assert proc.returncode == 0, proc.stderr
    assert "defs introduced: 23;" in proc.stderr
    # a budget of no definitions is still a usage error
    proc = _run_strict("transform", fib, "--iterate", "--max-defs", "0")
    assert (proc.returncode, proc.stderr) == (3, "error: max_defs must be positive\n")


def test_transform_then_validate_trace(tmp_path, capsys):
    out = tmp_path / "out.chc"
    tr = tmp_path / "run.trace"
    run("transform", CORPUS_DIR / "ackermann.chc", "-o", out, "--trace", tr)
    capsys.readouterr()
    assert run("validate-trace", tr) == 0
    text = capsys.readouterr().out
    assert "all definitions unfolded: True" in text
    assert "all foldings reversible: False" in text


def test_validate_trace_lists_the_definitions_never_unfolded(tmp_path, capsys):
    tr = tmp_path / "run.trace"
    tr.write_text(
        "STEP 1 DEFINITION in= out=4 flags=\n"
        "STEP 2 DEFINITION in= out=5 flags=\n"
        "STEP 3 UNFOLDING in=5 out=6,7 pos=0 flags=self_unfolding:0\n"
        "STEP 4 DEFINITION in= out=8 flags=\n"
        "STEP 5 FOLDING in=3 out=9 def=4 flags=reversible_folding:1\n",
        encoding="utf-8",
    )
    assert run("validate-trace", tr) == 1
    assert capsys.readouterr().out == (
        "steps: 5\n"
        "all definitions unfolded: False (missing: [4, 8])\n"
        "no self-unfolding: True\n"
        "all foldings reversible: True\n"
    )


@pytest.mark.parametrize("iterate", [[], ["--iterate"]])
def test_transform_leaves_a_goal_over_a_predicate_without_clauses(tmp_path, capsys, iterate):
    f = tmp_path / "undefined.chc"
    f.write_text("p(X) :- X = 0.\nfalse :- X = Y, p(X), q(Y).\n", encoding="utf-8")
    assert run("transform", f, *iterate) == 0
    captured = capsys.readouterr()
    assert captured.out == f.read_text(encoding="utf-8")
    assert captured.err == (
        "; defs introduced: 0; clauses: 2; all defs unfolded: True; "
        "foldings reversible: True\n"
    )


COUNTERS = """
p(X,Y) :- X =< 0, Y = 0.
p(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, p(X1,Y1).
q(X,Y) :- X =< 0, Y = 0.
q(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, q(X1,Y1).
"""


def test_transform_iterate_two_atom_goal(tmp_path):
    f = tmp_path / "two.chc"
    f.write_text(
        COUNTERS + "false :- X1 = X2, Y1 =\\= Y2, p(X1,Y1), q(X2,Y2).\n", encoding="utf-8"
    )
    out = tmp_path / "out.chc"
    assert run("transform", f, "--iterate", "-o", out) == 0
    assert parse_program(out.read_text(encoding="utf-8")).goals()


def test_transform_iterate_names_the_goal_of_each_overlap(tmp_path, capsys):
    out = tmp_path / "out.chc"
    assert run("transform", CORPUS_DIR / "fib_injectivity.chc", "--iterate", "-o", out) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "partition overlap" in ln]
    ids = [int(re.search(r": goal (\d+) left untransformed$", ln).group(1)) for ln in lines]
    assert sorted(ids) == [367, 369, 370, 372, 373, 374, 375, 376, 377]
    assert set(ids) <= {g.cid for g in parse_program(out.read_text(encoding="utf-8")).goals()}


def test_transform_iterate_goal_with_two_atoms_in_one_cone(tmp_path):
    f = tmp_path / "three.chc"
    f.write_text(
        COUNTERS + "false :- X1 = X3, Y1 =\\= Y3, p(X1,Y1), q(X2,Y2), q(X3,Y3).\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.chc"
    assert run("transform", f, "--iterate", "-o", out) == 0


def test_transform_query_auto_ambiguous(tmp_path, capsys):
    f = tmp_path / "two_goals.chc"
    f.write_text("p(X) :- X = 0.\nfalse :- p(X).\nfalse :- X > 0, p(X).\n", encoding="utf-8")
    assert run("transform", f) == 3
    assert "exactly one goal" in capsys.readouterr().err


def test_transform_query_by_id(tmp_path, capsys):
    f = tmp_path / "two_goals.chc"
    f.write_text(
        "p(X) :- X = 0.\nq(X) :- X = 0.\n"
        "false :- X = Y, p(X), q(Y).\nfalse :- X > 5, p(X).\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.chc"
    assert run("transform", f, "--query", "3", "-o", out) == 0
    prog = parse_program(out.read_text(encoding="utf-8"))
    assert len(prog.goals()) == 2  # the other goal is carried through
    # an id is an ASCII decimal integer, as in clause files
    capsys.readouterr()
    for query in (" 3", "\u0663", "0_3"):
        assert run("transform", f, "--query", query, "-o", out) == 3
        assert capsys.readouterr().err.strip() == f"error: no clause with id {query!r}"


# a cone that one goal pairs with itself, under a name that another goal uses
COUNT_DOWN = "p(X) :- X = 0.\np(X) :- X > 0, X1 = X - 1, p(X1).\n"


def test_transform_iterate_names_a_cone_copy_apart_from_the_goal(tmp_path, capsys):
    """The goal's own p_2 is neither a cone copy of p nor a side of the pair
    (it was both, and transform exited 3)."""
    f = tmp_path / "same.chc"
    f.write_text(COUNT_DOWN + "false :- X = Y, Z > 5, p(X), p(Y), p_2(Z).\n", encoding="utf-8")
    out = tmp_path / "out.chc"
    assert run("transform", f, "--iterate", "-o", out) == 0
    assert capsys.readouterr().err.startswith("; defs introduced: 1;")


def test_transform_query_mints_no_name_of_another_goal(tmp_path, capsys):
    """--query N leaves the other goals as they are and takes none of their
    predicates for a definition or a cone copy (it minted new1 and p_2, and
    the untouched goal over new1 was violated on the output alone)."""
    f = tmp_path / "new1.chc"
    f.write_text(
        COUNT_DOWN + "q(X) :- X = 0.\nq(X) :- X > 0, X1 = X - 1, q(X1).\n"
        "false :- X = Y, p(X), q(Y), r(X).\nfalse :- Z > 1, new1(Z,Z).\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.chc"
    assert run("transform", f, "--query", "5", "-o", out) == 0
    heads = {c.head.pred for c in parse_program(out.read_text(encoding="utf-8")) if c.head}
    assert "new1" not in heads and "new2" in heads
    capsys.readouterr()
    for program in (f, out):
        assert run("oracle", program, "--depth", "8", "--box", "-1..5") == 0
        assert capsys.readouterr().out == "not within budget\n"

    f = tmp_path / "p_2.chc"
    f.write_text(
        COUNT_DOWN + "false :- X = Y, X < 0, p(X), p(Y).\nfalse :- Z > 2, p_2(Z).\n",
        encoding="utf-8",
    )
    assert run("transform", f, "--query", "3", "-o", out) == 0
    heads = {c.head.pred for c in parse_program(out.read_text(encoding="utf-8")) if c.head}
    assert heads == {"p", "p_3"}


def test_check_model_proved(tmp_path, capsys):
    model = tmp_path / "su.model"
    model.write_text(
        "(define-fun su ((M Int)(R Int)(S Int)) Bool"
        " (or (and (>= S M) (>= S R)) (< R 0)))\n",
        encoding="utf-8",
    )
    assert run("check-model", CORPUS_DIR / "sum_upto.chc", model) == 0
    assert "overall: proved" in capsys.readouterr().out


def test_check_model_disproved(tmp_path, capsys):
    model = tmp_path / "su.model"
    model.write_text("(define-fun su ((M Int)(R Int)(S Int)) Bool true)\n", encoding="utf-8")
    assert run("check-model", CORPUS_DIR / "sum_upto.chc", model) == 1


def test_check_tight(tmp_path):
    defs = tmp_path / "defs.chc"
    defs.write_text("p(X) :- q(X).\n", encoding="utf-8")
    good = tmp_path / "good.model"
    good.write_text(
        "(define-fun p ((X Int)) Bool (= X 0))\n(define-fun q ((X Int)) Bool (= X 0))\n",
        encoding="utf-8",
    )
    bad = tmp_path / "bad.model"
    bad.write_text(
        "(define-fun p ((X Int)) Bool true)\n(define-fun q ((X Int)) Bool (= X 0))\n",
        encoding="utf-8",
    )
    assert run("check-tight", defs, good) == 0
    assert run("check-tight", defs, bad) == 1


def test_a_byte_order_mark_changes_no_emit(tmp_path, capsys):
    plain = CORPUS_DIR / "sum_upto.chc"
    bom = tmp_path / "bom.chc"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for fmt in ("smtlib", "chc"):
        assert run("emit", plain, "--format", fmt) == 0
        want = capsys.readouterr().out
        assert run("emit", bom, "--format", fmt) == 0
        assert capsys.readouterr().out == want


def test_a_byte_order_mark_changes_no_model_check(tmp_path, capsys):
    plain = ROOT / "bench_e2e" / "inputs" / "handwritten" / "sum_upto.smt2"
    bom = tmp_path / "bom.smt2"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run("check-model", CORPUS_DIR / "sum_upto.chc", plain) == 0
    want = capsys.readouterr().out
    assert run("check-model", CORPUS_DIR / "sum_upto.chc", bom) == 0
    assert capsys.readouterr().out == want and "overall: proved" in want


def _run_strict(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter that turns EncodingWarning into an error."""
    src = str(Path(chcpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
              "-m", "chcpair.cli"]
    return subprocess.run(strict + [str(a) for a in argv], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)


@pytest.mark.parametrize("command", ["oracle", "emit", "transform", "validate-trace"])
def test_a_closed_stdout_ends_the_run_quietly(tmp_path, command):
    """A stdout whose reader has gone, as under `| head -1`, is not a usage
    error: the run exits 141 with nothing on stderr, no traceback and no
    "Exception ignored" at shutdown."""
    facts = tmp_path / "facts.chc"
    facts.write_text("p(X) :- X = 0.\np(X) :- X = 1.\n", encoding="utf-8")
    trace = tmp_path / "ack.trace"
    assert run("transform", CORPUS_DIR / "ackermann.chc", "--trace", trace,
               "-o", tmp_path / "ack.chc") == 0
    argv = {
        "oracle": ["oracle", facts, "--depth", "2", "--box", "0..2"],
        "emit": ["emit", CORPUS_DIR / "hl1.chc"],
        "transform": ["transform", CORPUS_DIR / "ackermann.chc"],
        "validate-trace": ["validate-trace", trace],
    }[command]
    src = str(Path(chcpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "chcpair.cli"] + [str(a) for a in argv],
            env=env, stdout=w, stderr=subprocess.PIPE, text=True, encoding="utf-8",
            timeout=120,
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_files_are_read_and_written_without_the_locale(tmp_path):
    """Every file the CLI opens names its encoding, so a run that turns
    EncodingWarning into an error still succeeds."""
    out, trace = tmp_path / "out.chc", tmp_path / "run.trace"
    for argv in [
        ["transform", CORPUS_DIR / "sum_square.chc", "-o", out, "--trace", trace],
        ["emit", out],
        ["validate-trace", trace],
        ["check-model", CORPUS_DIR / "sum_upto.chc",
         ROOT / "bench_e2e" / "inputs" / "handwritten" / "sum_upto.smt2"],
        ["check-tight", ROOT / "bench_e2e" / "inputs" / "defs" / "sum_square.chc",
         ROOT / "bench_e2e" / "inputs" / "models" / "sum_square.smt2"],
        ["oracle", CORPUS_DIR / "sum_upto.chc", "--depth", "3", "--box", "0..3"],
    ]:
        proc = _run_strict(*argv)
        assert proc.returncode == 0, proc.stderr


def test_solver_pipes_are_decoded_without_the_locale():
    """The solver's stdin and stdout are UTF-8 whatever the locale, so a
    strict run reads the sat answer; an EncodingWarning there would exit 1,
    which means Unsat."""
    solver = f"{shlex.quote(sys.executable)} -c \"print('sat')\""
    proc = _run_strict("solve", CORPUS_DIR / "hl.chc", "--solver", solver)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sat\n"


MALFORMED_MODELS = [
    "(define-fun su ((M Int)(R Int)(S Int)) Bool)\n",
    "(define-fun su ((M Int)(R Int)(S Int)) Bool ((= M R) (>= S 0)))\n",
    "(define-fun su ((M Int)(R Int)(S Int)) Bool (>= S 0) extra)\n",
    "(define-fun su ((M Int)(R Int)(S Int)) Bool " + "(and (>= S 0) " * 3000 + "true"
    + ")" * 3001 + "\n",
]


@pytest.mark.parametrize("text", MALFORMED_MODELS)
def test_malformed_model_is_usage_error(tmp_path, capsys, text):
    model = tmp_path / "su.model"
    model.write_text(text, encoding="utf-8")
    defs = tmp_path / "defs.chc"
    defs.write_text("su(M,R,S) :- M = R, S = 0.\n", encoding="utf-8")
    assert run("check-model", CORPUS_DIR / "sum_upto.chc", model) == 3
    assert "(line 1, column " in capsys.readouterr().err
    assert run("check-tight", defs, model) == 3
    assert "(line 1, column " in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "STEP 1\n",
    "STEP 1 UNFOLDING in= out=2\n",
    "STEP 1 DEFINITION in= out=2 flags=\nSTEP 2 UNFOLDING 4 out=3 pos=0 flags=self_unfolding:0\n",
])
def test_malformed_trace_is_usage_error(tmp_path, capsys, text):
    tr = tmp_path / "bad.trace"
    tr.write_text(text, encoding="utf-8")
    assert run("validate-trace", tr) == 3
    assert "error: trace line " in capsys.readouterr().err


def test_solve_with_fake_solver(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(
        "CHCPAIR_SOLVER", f"{sys.executable} -c \"print('unsat')\""
    )
    assert run("solve", CORPUS_DIR / "hl.chc") == 1
    assert "unsat" in capsys.readouterr().out


def test_solve_without_solver(monkeypatch, capsys):
    monkeypatch.delenv("CHCPAIR_SOLVER", raising=False)
    assert run("solve", CORPUS_DIR / "hl.chc") == 3


def test_usage_error_on_missing_file(capsys):
    assert run("emit", "/nonexistent.chc") == 3
    assert "error" in capsys.readouterr().err


def test_parse_error_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.chc"
    f.write_text("p(X :- q.\n", encoding="utf-8")
    assert run("emit", f) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--bogus", "p.chc"],
        ["transform", "p.chc", "--a-classifier", "lia"],
        ["transform", "p.chc", "--max-defs", "x"],
        ["transform", "p.chc", "--max-defs", "\u0663"],
        ["transform", "p.chc", "--max-defs", "6_4"],
        ["oracle", "p.chc", "--box", "0..3"],
        ["oracle", "p.chc", "--depth", "\u0662", "--box", "0..3"],
        ["oracle", "p.chc", "--depth", "1_0", "--box", "0..3"],
        ["oracle", "p.chc", "--depth", " 2", "--box", "0..3"],
        ["solve", "p.chc", "--timeout", "inf"],
        ["solve", "p.chc", "--timeout", "nan"],
        ["solve", "p.chc", "--timeout", "1_0"],
        ["solve", "p.chc", "--timeout", " 5 "],
        ["solve", "p.chc", "--timeout", "\u0665"],
        ["frobnicate"],
    ],
)
def test_argument_errors_exit_with_the_usage_code(argv, capsys):
    """argparse's own errors exit 3, like every other usage error, not 2,
    which means Unknown."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_an_integer_option_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit):
        run("oracle", "p.chc", "--depth", "1_0", "--box", "0..3")
    assert "error: argument --depth: invalid int value: '1_0'" in capsys.readouterr().err


def test_timeout_takes_an_ascii_decimal(capsys):
    """--timeout reads [0-9]+(.[0-9]+)? with argparse's message otherwise:
    float() would take inf, which crashed the solver call, and nan."""
    from chcpair.cli import build_parser

    for text, want in (("1.5", 1.5), ("60", 60.0), ("007.250", 7.25)):
        assert build_parser().parse_args(["solve", "p.chc", "--timeout", text]).timeout == want
    with pytest.raises(SystemExit):
        run("solve", "p.chc", "--timeout", "inf")
    assert "error: argument --timeout: invalid float value: 'inf'" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("transform", "--help")
    assert exc.value.code == 0
    assert "--iterate" in capsys.readouterr().out


def _readme_session():
    """(argv, shown lines) of each `$ chcpair` command of the README's
    example session, the shown lines being the ones up to the next command."""
    after = (ROOT / "README.md").read_text(encoding="utf-8").split("Example session", 1)[1]
    block = after.split("```\n")[1]
    session = []
    for line in block.splitlines():
        if line.startswith("$ chcpair "):
            session.append((line.split()[2:], []))
        else:
            session[-1][1].append(line)
    return session


def test_readme_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    session = _readme_session()
    assert [argv[0] for argv, _ in session] == ["transform", "validate-trace", "oracle", "emit"]
    for argv, shown in session:
        argv = [str(tmp_path / a[len("/tmp/"):]) if a.startswith("/tmp/") else a for a in argv]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[-1]
        main(argv)
        out, err = capsys.readouterr()
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
            out = ""
        assert out.splitlines() + err.splitlines() == shown, argv
    assert (tmp_path / "ack_pp.smt2").read_text(encoding="utf-8").startswith("(set-logic HORN)")
