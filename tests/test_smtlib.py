from pathlib import Path

import pytest

from chcpair import (
    Program,
    Var,
    check_model,
    emit_smtlib,
    parse_model,
    parse_program,
    print_model,
)
from chcpair.errors import ChcError, ParseError, SortMismatch
from chcpair.lia import QuantDisj, Verdict, equiv_quant_disj, qd_false, qd_of, qd_true
from chcpair.models import SymbolicInterpretation
from chcpair import corpus, smtlib

from helpers import conj, line_chunks, mutant_failures

GOLDEN = Path(__file__).parent / "golden"
BENCH_MODELS = Path(__file__).resolve().parents[1] / "bench_e2e" / "inputs" / "models"
CORPUS_DIR = Path(corpus.__file__).parent


def test_emit_clause_two_of_the_loop():
    p = parse_program("su(X,R,Sum) :- X =< 0, Sum = R.")
    out = emit_smtlib(p)
    assert (
        "(assert (forall ((X Int)(R Int)(Sum Int)) "
        "(=> (and (<= X 0) (= Sum R)) (su X R Sum))))" in out
    )


def test_emit_empty_program_is_header_only():
    assert emit_smtlib(Program([])) == "(set-logic HORN)\n"


def test_emit_goal_implies_false(sum_upto):
    out = emit_smtlib(sum_upto)
    assert ") false))" in out.splitlines()[2]


def test_emit_array_select_store():
    p = corpus.load("array_loop")
    out = emit_smtlib(p)
    assert "(declare-fun loop (Int (Array Int Int) Int (Array Int Int)) Bool)" in out
    assert "(= (select A1 J) U)" in out
    assert "(= (store A1 I V) A2)" in out
    assert "(= A_1 A)" in out  # normalized repeated head array variable


@pytest.mark.parametrize(
    "text, name",
    [
        ("and(_, STRING) :- _ = 0, STRING = 1.", "and"),
        ("p(X) :- X = 0.\nassert(X) :- p(X).", "assert"),
        ("p(X, STRING) :- X = STRING.", "STRING"),
        ("false :- _ > 0, p(_).\np(X) :- X = 1.", "_"),
    ],
)
def test_emit_refuses_reserved_symbols(text, name):
    with pytest.raises(ValueError, match=f"'{name}' is reserved"):
        emit_smtlib(parse_program(text))


def test_print_model_and_lia_query_refuse_reserved_symbols():
    for text, name in [
        ("(define-fun push ((X Int)) Bool (= X 0))", "push"),
        ("(define-fun p ((_ Int)) Bool (= _ 0))", "_"),
        ("(define-fun p ((X Int)) Bool (exists ((NUMERAL Int)) (= X NUMERAL)))", "NUMERAL"),
    ]:
        with pytest.raises(ValueError, match=f"'{name}' is reserved"):
            print_model(parse_model(text))
    with pytest.raises(ValueError, match="'STRING' is reserved"):
        smtlib.emit_lia_query(conj("X = STRING + 1"))
    assert "(declare-const X Int)" in smtlib.emit_lia_query(conj("X = Y + 1"))


def test_emit_deterministic_and_golden():
    for name in corpus.NAMES:
        p = corpus.load(name)
        one = emit_smtlib(p)
        two = emit_smtlib(p)
        assert one == two
        golden = (GOLDEN / f"{name}.smt2").read_bytes()
        assert one.encode() == golden, f"golden drift for {name}"


# --- model files ---------------------------------------------------------------

EX1_MODEL = (
    "(define-fun su ((M Int)(R Int)(S Int)) Bool"
    " (or (and (>= S M) (>= S R)) (< R 0)))\n"
)


def test_parse_model_example1(sum_upto):
    sigma = parse_model(EX1_MODEL)
    params, formula = sigma.entry("su")
    assert [v.name for v in params] == ["M", "R", "S"]
    assert len(formula.disjuncts) == 2
    assert check_model(sum_upto, sigma).overall is Verdict.PROVED


def test_parse_model_true():
    sigma = parse_model("(define-fun p ((X Int)) Bool true)")
    _, formula = sigma.entry("p")
    assert formula == qd_true()


def test_parse_model_nested_with_exists(sum_upto):
    text = (
        "(define-fun su ((M Int)(R Int)(S Int)) Bool "
        "(exists ((D Int)) (and (>= D 0) "
        "(or (and (= S (+ M D)) (>= S R)) (< R 0)))))"
    )
    sigma = parse_model(text)
    _, formula = sigma.entry("su")
    assert formula.exists and len(formula.disjuncts) == 2
    # flattened existential disjunction still checks out against the program
    assert check_model(sum_upto, sigma).overall is Verdict.PROVED


def test_parse_model_wrapped_in_model_form():
    sigma = parse_model("(model (define-fun p ((X Int)) Bool (= X 1)))")
    assert sigma.defines("p")


def test_parse_model_round_trip():
    entries = {
        "su": (
            (Var("M"), Var("R"), Var("S")),
            qd_of(conj("S >= M, S >= R")),
        ),
        "p": ((Var("X"),), qd_true()),
        # two disjuncts, the first with an existential of its own
        "r": (
            (Var("X"),),
            QuantDisj((Var("Y"),), (conj("X = Y + 1, Y >= 0"), conj("X =< -5"))),
        ),
    }
    sigma = SymbolicInterpretation(entries)
    text = print_model(sigma)
    assert "(define-fun r ((X Int)) Bool (exists ((Y Int)) (or (and " in text
    again = parse_model(text)
    for pred in sigma.preds():
        p1, f1 = sigma.entry(pred)
        p2, f2 = again.entry(pred)
        assert p1 == p2
        assert equiv_quant_disj(f1, f2) is Verdict.PROVED
    # the empty disjunction reads back as false
    _, f = parse_model("(define-fun r ((X Int)) Bool (or))").entry("r")
    assert equiv_quant_disj(f, qd_false()) is Verdict.PROVED


def test_parse_model_round_trip_with_exists():
    sigma = SymbolicInterpretation(
        {"q": ((Var("X"),), qd_of(conj("X = Y + 1, Y >= 0"), exists := (Var("Y"),)))}
    )
    again = parse_model(print_model(sigma))
    _, f = again.entry("q")
    assert f.exists


def test_parse_model_unsupported_construct():
    with pytest.raises(ParseError) as e:
        parse_model("(define-fun p ((X Int)) Bool (let ((y 1)) (= X y)))")
    assert "let" in str(e.value)
    assert e.value.line is not None


@pytest.mark.parametrize("text, line, col", [
    ("(define-fun sum_upto ((X Int)) Bool)", 1, 1),
    ("(define-fun p ((X Int)) Bool (>= X 0) extra)", 1, 1),
    ("(define-fun p ((X Int)) Bool\n  ((= X 0) (>= X 1)))", 2, 3),
    ("(define-fun p ((X Int)) Bool ())", 1, 30),
    ("(define-fun p (X Int) Bool true)", 1, 16),
    ("(define-fun p ((X)) Bool true)", 1, 16),
    ("(define-fun p ((X Int)) Bool (>= X))", 1, 30),
    ("(define-fun p ((X Int)) Bool (= (-) X))", 1, 33),
    # + and * take two arguments or more, as - takes one or more
    ("(define-fun p ((X Int)) Bool (= (+) X))", 1, 33),
    ("(define-fun p ((X Int)) Bool (= (*) X))", 1, 33),
    ("(define-fun p ((X Int)) Bool (= (+ X) X))", 1, 33),
    ("(define-fun p ((X Int)) Bool (= X (* 2)))", 1, 35),
    ("(define-fun p ((X Int)) Bool (not (= X 0 1)))", 1, 35),
    ("(define-fun p ((X Int)) Bool (not))", 1, 30),
    ("(define-fun p ((X Int)) Bool (exists ((Y Int))))", 1, 30),
    ("(define-fun p ((X Int)) Bool (exists (Y) (= X Y)))", 1, 39),
    # one name bound twice, refused at the second binder
    ("(define-fun p ((X Int)) Bool (exists ((Y Int) (Y Int)) (= X Y)))", 1, 47),
    ("(declare-fun)", 1, 1),
    ("(define-fun p ((A (Array Bool Int))) Bool true)", 1, 19),
    ("(define-fun p ((X Int)) Bool true)\n(define-fun p ((X Int)) Bool false)", 2, 1),
    # a numeral is ASCII digits: ARABIC-INDIC DIGIT THREE is an unbound symbol
    ("(define-fun p ((X Int)) Bool\n  (= X \u0663))", 2, 8),
])
def test_parse_model_refuses_malformed_forms_at_their_position(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert (e.value.line, e.value.col) == (line, col)


def _or_pairs(n: int) -> str:
    """n two-way disjunctions: their conjunction has 2**n disjuncts."""
    return " ".join(f"(or (= X {2 * i}) (= X {2 * i + 1}))" for i in range(n))


@pytest.mark.parametrize("text, message, col", [
    ("(define-fun (p) ((x Int)) Bool true)", "expected a predicate name", 13),
    ("(define-fun p x Bool true)", "expected a list of binders (name sort)", 15),
    ("(define-fun p ((x Int) (y Int)) Bool (= (* x y) 0))",
     "nonlinear product in model formula", 41),
    # 2**11 disjuncts, past lia.DNF_CAP; ten pairs, 2**10, are taken
    (f"(define-fun p ((X Int)) Bool (and {_or_pairs(11)}))",
     "conjunction exceeds the disjunct cap", 30),
    ("(define-fun p ((X Int)) Bool (not (and (= X 0) (= X 1))))",
     "negation is only supported on atoms", 35),
])
def test_parse_model_refuses_what_it_cannot_represent(text, message, col):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert str(e.value) == f"{message} (line 1, column {col})"


def test_parse_model_refuses_an_array_in_arithmetic_and_takes_ten_or_pairs():
    with pytest.raises(SortMismatch, match="^array variable a in arithmetic$"):
        parse_model("(define-fun p ((a (Array Int Int))) Bool (= a 0))")
    _, f = parse_model(f"(define-fun p ((X Int)) Bool (and {_or_pairs(10)}))").entry("p")
    assert len(f.disjuncts) == 1024


def _nested(kind: str, n: int) -> str:
    """A model whose formula nests n lists deep through `kind`."""
    if kind == "not":
        body = "(and " * (n - 2) + "(not (= X 0))" + ")" * (n - 2)
    elif kind == "exists":
        body = "(exists ((Y Int)) " * (n - 1) + "(= X Y)" + ")" * (n - 1)
    elif kind in ("-", "+"):
        term = f"({kind} 1 " if kind == "+" else "(- "
        body = "(>= " + term * (n - 1) + "X" + ")" * (n - 1) + " 0)"
    else:
        body = f"({kind} (>= X 0) " * (n - 1) + "(>= X 0)" + ")" * (n - 1)
    return f"(define-fun p ((X Int)) Bool {body})"


NESTING_KINDS = ("and", "or", "not", "exists", "-", "+")


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_deep_nesting_is_refused_at_the_first_list_past_the_bound(kind):
    text = _nested(kind, 3000)
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert "nested deeper" in str(e.value) and e.value.line == 1
    before = text[: e.value.col - 1]
    # the define-fun's own list is open, and the lists around the form
    assert text[e.value.col - 1] == "("
    assert before.count("(") - before.count(")") == smtlib._MAX_DEPTH + 1


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_up_to_the_bound_parses(kind):
    for n in (300, smtlib._MAX_DEPTH):
        params, formula = parse_model(_nested(kind, n)).entry("p")
        assert params == (Var("X"),) and formula.disjuncts


def test_the_reader_takes_any_depth():
    deep = "(" * 3000 + ")" * 3000
    assert parse_model(f"(declare-fun q ({deep}) Bool)").preds() == ()
    # the lists at columns 3016 and 3015 close: the one at 3014 is unbalanced
    with pytest.raises(ParseError) as e:
        parse_model("(declare-fun q (" + "(" * 3000 + ") Bool)")
    assert "unbalanced" in str(e.value) and (e.value.line, e.value.col) == (1, 3014)


EVERY_CONSTRUCT = (
    "(model (declare-fun q (Int) Bool)\n"
    "(define-fun su ((M Int)(R Int)(S Int)) Bool\n"
    " (exists ((D Int)) (and (>= D 0) (or (and (= S (+ M D)) (>= S R R))\n"
    "  (not (< R (- 1))) (<= (* 2 R) (- S M)) false true))))\n"
    "(define-fun a ((A (Array Int Int))(X Int)) Bool (= X 0)))\n"
)


def test_mutated_models_and_programs_raise_only_chc_errors():
    """One-edit mutants of the frozen models and of the corpus programs
    parse or raise a ChcError, and a model's ParseError has a position."""
    texts = [*line_chunks(sorted(BENCH_MODELS.glob("*.smt2"))), EVERY_CONSTRUCT]
    n, failures = mutant_failures(parse_model, texts, seed=12, seconds=2, most=3000)
    assert n >= 300 and failures
    bad = [
        (t, e) for t, e in failures
        if not isinstance(e, ChcError) or isinstance(e, ParseError) and e.line is None
    ]
    assert not bad, bad[:3]
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.chc"))]
    n, failures = mutant_failures(parse_program, texts, seed=13, seconds=1, most=1000)
    assert n >= 100 and failures
    bad = [(t, e) for t, e in failures if not isinstance(e, ChcError)]
    assert not bad, bad[:3]


def test_parse_model_negated_atom():
    sigma = parse_model("(define-fun p ((X Int)) Bool (not (= X 0)))")
    _, f = sigma.entry("p")
    assert len(f.disjuncts) == 2


def test_parse_model_multiplication():
    sigma = parse_model("(define-fun p ((X Int)) Bool (>= (* 2 X) 4))")
    _, f = sigma.entry("p")
    assert equiv_quant_disj(f, qd_of(conj("2*X >= 4"))) is Verdict.PROVED
