import collections.abc
import copy
import dataclasses
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chcpair import (
    ArrEqAtom,
    Atom,
    Clause,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Program,
    ReadAtom,
    Rel,
    Sort,
    Var,
    parse_program,
    predicate_partition,
    print_clause,
    print_program,
    rename_apart,
)
from chcpair.errors import ArityClash, OverlapError, ParseError, SortMismatch
from chcpair import corpus, syntax

from helpers import conj


def test_parse_goal_shape():
    p = parse_program("false :- M > Sum, M >= 0, R = 0, su(M,R,Sum).")
    (c,) = p.clauses
    assert c.is_goal
    assert len(c.constraint.lin_atoms()) == 3
    assert [a.pred for a in c.body] == ["su"]


def test_parse_empty_constraint():
    p = parse_program("p(X) :- q(X).")
    (c,) = p.clauses
    assert c.constraint.is_true()
    assert c.head.pred == "p" and c.body[0].pred == "q"


def test_parse_normalizes_literal_argument():
    p = parse_program("p(0).")
    (c,) = p.clauses
    assert not c.is_goal and len(c.body) == 0
    (v,) = c.head.args
    (eq,) = c.constraint.lin_atoms()
    assert eq.rel is Rel.EQ and eq.lhs == LinExpr.of(v) and eq.rhs.const == 0


def test_parse_normalizes_repeated_head_vars():
    p = parse_program("p(X,X).")
    (c,) = p.clauses
    a, b = c.head.args
    assert a != b
    assert len(c.constraint) == 1


def test_parse_linear_term_argument():
    p = parse_program("p(X) :- q(X + 1).")
    (c,) = p.clauses
    (arg,) = c.body[0].args
    (eq,) = c.constraint.lin_atoms()
    assert eq.lhs == LinExpr.of(arg)
    # terms come in name order, without zero coefficients, as LinExpr.build makes them
    (eq,) = parse_program("p(X) :- Z = 2*Y + X - 0*W + 1.").clauses[0].constraint
    x, y = Var("X"), Var("Y")
    assert eq.rhs.coeffs == ((x, 1), (y, 2)) and eq.rhs == LinExpr.build({y: 2, x: 1}, 1)
    # a coefficient may follow its variable
    (post,) = parse_program("p(X,Y) :- Y = X*2.").clauses[0].constraint
    (pre,) = parse_program("p(X,Y) :- Y = 2*X.").clauses[0].constraint
    assert post == pre


PARSE_ERRORS = [
    # an unexpected character after comment lines
    ("% c1\n% c2\n% c3\nq(Y) :- Y @ 1.\n", "unexpected character '@'", 4, 11),
    # a bad character anywhere wins over an earlier grammar error
    ("p(X) :- q(X)\nq(Y) :- Y = 1 $ 2.\n", "unexpected character '$'", 2, 15),
    # an integer is ASCII digits: ARABIC-INDIC DIGIT THREE starts no token
    ("p(X) :- X = \u0663.", "unexpected character '\u0663'", 1, 13),
    # a missing final dot, at the end of the text
    ("p(X) :- q(X)", "expected '.', found ''", 1, 13),
    ("p(X) :- X > 0.\nq(X) :- p(X)\n", "expected '.', found ''", 3, 1),
    ("p(X) :- X = +.", "expected term, found '+'", 1, 13),
    ("p(X) :- ", "expected term, found ''", 1, 9),
    ("p(X) :-\n  X > 0,\n  X = 2 * .\n", "expected 'var', found '.'", 3, 11),
    ("p(X) :- X = Y * Z.", "expected 'int', found 'Z'", 1, 17),
    ("p(X) :- X Y.", "expected 'rel', found 'Y'", 1, 11),
    # a bare variable, then an operator and something that cannot follow it
    ("p(X) :- q(X *).", "expected 'int', found ')'", 1, 14),
    ("p(X) :- X + .", "expected term, found '.'", 1, 13),
    ("p(X) :- q(X -).", "expected term, found ')'", 1, 14),
    ("p(X) :- X * Y = 1.", "expected 'int', found 'Y'", 1, 13),
    ("p(X,Y) :- Y = X*Y.", "expected 'int', found 'Y'", 1, 17),
    ("p(X :- q(X).", "expected ')', found ':-'", 1, 5),
    (":- foo p(int).", "unknown directive 'foo'", 1, 4),
    (":- sorts p(real).", "unknown sort 'real'", 1, 12),
    (":- sorts p(int,\n  bool).", "unknown sort 'bool'", 2, 3),
    ("p(A) :-\n read(A, I).", "read takes 3 variables", 2, 2),
]


def test_parse_errors_carry_position():
    for text, message, line, col in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_program(text)
        assert (e.value.line, e.value.col) == (line, col), text
        assert str(e.value) == f"{message} (line {line}, column {col})"


def test_arity_clash_detected():
    for text, message in [
        ("p(X) :- p(X,X).", "predicate 'p' used with arity 2 and 1 (line 1)"),
        ("p(X).\nq(Y) :- p(Y, Y).\n", "predicate 'p' used with arity 2 and 1 (line 2)"),
    ]:
        with pytest.raises(ArityClash) as e:
            parse_program(text)
        assert str(e.value) == message


def test_sort_mismatch_detected():
    for text, message in [
        (":- sorts p(array).\np(X) :- X > 0.", "variable X used as int and array (line 2)"),
        (":- sorts p(array).\nq(A) :- p(A), p(B), A =< B.",
         "variable A used as int and array (line 2)"),
        (":- sorts p(array).\nq(X) :-\n  p(X + 1).",
         "array argument of 'p' must be a variable (line 2)"),
        (":- sorts p(array, int).\nq(A) :- p(A, A).",
         "variable A used as array and int (line 2)"),
    ]:
        with pytest.raises(SortMismatch) as e:
            parse_program(text)
        assert str(e.value) == message


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench_e2e" / "inputs"
FROZEN = sorted((BENCH_INPUTS / "pn").glob("*.chc")) + sorted((BENCH_INPUTS / "defs").glob("*.chc"))


def test_round_trip_corpus():
    for name in corpus.NAMES:
        p = corpus.load(name)
        text = print_program(p)
        again = parse_program(text)
        assert again == p and again.signatures == p.signatures
        assert print_program(again) == text


@pytest.mark.parametrize("path", FROZEN, ids=lambda f: f"{f.parent.name}/{f.stem}")
def test_round_trip_frozen_programs(path):
    # the frozen transform outputs are read, never written; each is itself
    # a printed program, so it reprints byte for byte
    text = path.read_text()
    p = parse_program(text)
    assert print_program(p) == text
    again = parse_program(text)
    assert again == p and again.signatures == p.signatures
    assert print_program(again) == text


def test_frozen_programs_are_present():
    assert {f.parent.name for f in FROZEN} == {"pn", "defs"} and len(FROZEN) >= 19


def test_print_clause_matches_surface_syntax():
    p = parse_program("su(X,R,Sum) :- X =< 0, Sum = R.")
    assert print_clause(p.clauses[0]) == "su(X,R,Sum) :- X =< 0, Sum = R."


def test_round_trip_preserves_body_order(ackermann):
    # the two-recursive-calls clause keeps its body atom order
    c = ackermann.clause(4)
    assert [a.pred for a in c.body] == ["ack1", "ack1"]
    again = parse_program(print_program(ackermann)).clause(4)
    assert [a.args for a in again.body] == [a.args for a in c.body]


def test_rename_apart_avoids_collisions():
    p = parse_program("p(X) :- X > 0, q(X,Y).")
    c = p.clauses[0]
    r = rename_apart(c, [Var("X")])
    names = {v.name for v in r.vars()}
    assert "X" not in names and "Y" in names
    # skeleton preserved
    assert [a.pred for a in r.body] == ["q"]
    assert r.constraint.lin_atoms()[0].rel is Rel.GT


def test_rename_apart_empty_avoid_is_identity():
    c = parse_program("p(X) :- X > 0.").clauses[0]
    assert rename_apart(c, []) is c


def test_rename_apart_keeps_relation_multiset():
    c = parse_program("p(X,Y) :- X > 0, Y =< X, X = 2.").clauses[0]
    r = rename_apart(c, c.vars())
    assert sorted(a.rel.value for a in r.constraint.lin_atoms()) == sorted(
        a.rel.value for a in c.constraint.lin_atoms()
    )


def test_fresh_renaming_takes_the_smallest_free_name_and_grows_taken():
    x, y, z, a = Var("X"), Var("Y"), Var("Z"), Var("A", Sort.ARRAY)
    taken = {"X", "X_1", "Y", "A"}
    assert syntax.fresh_renaming([x, y, z, a], {"X", "A"}, taken) == {
        x: Var("X_2"), a: Var("A_1", Sort.ARRAY)
    }
    assert taken == {"X", "X_1", "X_2", "Y", "Z", "A", "A_1"}
    # with clash and taken one set, a name kept by one variable clashes for the next
    taken = {"X"}
    assert syntax.fresh_renaming([x, z, Var("Z", Sort.ARRAY)], taken, taken) == {
        x: Var("X_1"), Var("Z", Sort.ARRAY): Var("Z_1", Sort.ARRAY)
    }


def test_subst_on_atom():
    a = Atom("ack1", (Var("M1"), Var("N1"), Var("A1")))
    out = a.subst({Var("N1"): Var("Y1")})
    assert out == Atom("ack1", (Var("M1"), Var("Y1"), Var("A1")))


def test_subst_union_equals_composition():
    # for disjoint substitutions, applying their union simultaneously
    # equals applying one then the other
    c = parse_program("p(A,B,C) :- A = B + C.").clauses[0]
    t1 = {Var("A"): Var("X")}
    t2 = {Var("B"): Var("Y")}
    assert c.subst(t1).subst(t2) == c.subst({**t1, **t2})


def test_partition_ackermann(ackermann):
    q, r = predicate_partition(ackermann, "ackermann1", "ackermann2")
    assert [c.cid for c in q] == [1, 2, 3, 4]
    assert [c.cid for c in r] == [5, 6, 7, 8]


def test_partition_same_pred_overlaps(ackermann):
    with pytest.raises(OverlapError):
        predicate_partition(ackermann, "ack1", "ack1")


def test_partition_sum_square(sum_square):
    q, r = predicate_partition(sum_square, "su", "sq")
    assert {c.head.pred for c in q} == {"su"}
    assert {c.head.pred for c in r} == {"sq"}
    assert len(q) == 2 and len(r) == 2


def test_array_clause_round_trip():
    p = corpus.load("array_loop")
    assert p.signatures["loop"] == (Sort.INT, Sort.ARRAY, Sort.INT, Sort.ARRAY)
    # the repeated head variable was split into an array equality
    last = p.clauses[-1]
    assert len(set(last.head.args)) == len(last.head.args)
    assert parse_program(print_program(p)) == p


def test_comments_ignored():
    p = parse_program("% a comment\np(X) :- X = 1. % trailing\n")
    assert len(p) == 1


# --- hashing of the frozen values --------------------------------------------

def test_equal_values_built_differently_hash_equal():
    x, w = Var("X"), Var("W")
    assert LinExpr.of(x) == LinExpr.build({x: 1})
    assert hash(LinExpr.of(x)) == hash(LinExpr.build({x: 1}))
    c = conj("X + 2*Y >= 3, X =\\= Z")
    for value in (c, c.atoms[0], c.atoms[0].lhs):
        before = hash(value)  # memoised on the original only
        same = value.subst({x: w}).subst({w: x})  # there and back: rebuilt
        assert same == value and same is not value
        assert hash(same) == before == hash(value)
    assert {LinExpr.build({x: 1}): 1}[LinExpr.of(x)] == 1


def test_var_sort_still_distinguishes():
    assert Var("X", Sort.INT) != Var("X", Sort.ARRAY)
    assert len({Var("X", Sort.INT), Var("X", Sort.ARRAY)}) == 2


def test_variables_are_interned_per_name_and_sort():
    name = "".join(["Interned", "Name"])  # a str object of its own
    x = Var(name)
    assert x is Var("InternedName") is Var(name, Sort.INT)
    assert (x.name, x.sort) == ("InternedName", Sort.INT)
    a = Var(name, Sort.ARRAY)
    assert a is Var("InternedName", Sort.ARRAY) and a is not x
    assert a.sort is Sort.ARRAY and repr(a) == "InternedName:arr"
    # two parses of one text share their variables (equality is identity)
    text = ":- sorts p(array, int).\np(A, X) :- read(A, X, Y), q(Y)."
    assert parse_program(text).clauses[0].vars() == parse_program(text).clauses[0].vars()
    with pytest.raises(TypeError):
        Var("X", "int")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.sort


def test_values_stay_frozen():
    c = conj("X =< Y + 1")
    for value, attr in ((Var("X"), "name"), (c, "atoms"), (c.atoms[0], "rel"),
                        (c.atoms[0].rhs, "const"), (c.atoms[0].rhs, "_hash"),
                        (c.atoms[0], "_row")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, None)


def test_copy_and_pickle_rebuild_equal_values():
    c = conj("X =< Y + 1, Z = 2*X")
    hash(c.atoms[0])  # one memoised, the rest not
    c.atoms[0].row()
    for value in (c, c.atoms[0], c.atoms[1], c.atoms[0].lhs, Var("X"), Var("X", Sort.ARRAY)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
            if isinstance(value, Var):
                assert clone is value  # re-interned
            if isinstance(value, LinAtom):
                assert not hasattr(clone, "_row")  # rebuilt, not carried over
                assert clone.row() == value.row()


def test_conjunction_vars_are_memoised_apart_from_equality():
    c = conj("X =< Y + 1, Z = 2*X, read(A, Y, V)")
    fresh = ConstraintConj(c.atoms)
    walk = tuple(dict.fromkeys(v for a in c.atoms for v in a.vars()))
    assert c.vars() == walk and c.vars() is c.vars()  # memoised on the first call
    assert not hasattr(fresh, "_vars")
    assert fresh == c and hash(fresh) == hash(c)  # the memo takes no part
    for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert not hasattr(clone, "_vars")  # rebuilt, not carried over
        assert clone == c and hash(clone) == hash(c)
        assert clone.vars() == walk
    with pytest.raises(dataclasses.FrozenInstanceError):
        c._vars = ()


_INTS = [Var(n) for n in "UVWXYZ"]
_ARRAY = Var("A", Sort.ARRAY)
_LIN_ATOMS = st.builds(
    LinAtom,
    st.builds(LinExpr.build, st.dictionaries(st.sampled_from(_INTS), st.integers(-2, 2), max_size=3),
              st.integers(-1, 1)),
    st.sampled_from(list(Rel)),
    st.builds(LinExpr.build, st.dictionaries(st.sampled_from(_INTS), st.integers(-2, 2), max_size=2)),
)
_READ_ATOMS = st.builds(ReadAtom, st.just(_ARRAY), st.sampled_from(_INTS), st.sampled_from(_INTS))
_ATOM_LISTS = st.lists(st.one_of(_LIN_ATOMS, _READ_ATOMS), max_size=5)


@given(_ATOM_LISTS, _ATOM_LISTS, st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_extended_inherits_the_variables_of_a_fresh_walk(left, right, memo_left, memo_right):
    """extended is the plain conjunction of the two parts' atoms with the
    result's variables memoised, merged from its parts' whether or not they
    had memoised theirs, and equal to a first-occurrence walk over the
    concatenated atoms; a plain ConstraintConj memoises nothing."""
    a, b = ConstraintConj(tuple(left)), ConstraintConj(tuple(right))
    if memo_left:
        a.vars()
    if memo_right:
        b.vars()
    out, plain = a.extended(b), ConstraintConj(a.atoms + b.atoms)
    assert out == plain == ConstraintConj(tuple(left + right))
    assert hasattr(out, "_vars") and not hasattr(plain, "_vars")
    walk = tuple(dict.fromkeys(v for x in left + right for v in x.vars()))
    assert out.vars() == walk == plain.vars()


SUBST_TEXT = (":- sorts p(array, int).\n"
              "p(A, X) :- X = Y + 1, 2*Y - Z > 0, read(A, Y, Z), write(A, X, Z, B), C = B, "
              "q(X, Y, Z), r(B).")


def test_subst_that_changes_nothing_returns_the_receiver():
    c = parse_program(SUBST_TEXT).clauses[0]
    lin = c.constraint.lin_atoms()
    for a in lin:
        a.row()
        hash(a), hash(a.lhs), hash(a.rhs)
    hash(c.constraint), c.constraint.vars()
    identity = {v: v for v in c.vars()}
    unrelated = {Var("W"): Var("W2"), Var("X", Sort.ARRAY): Var("Y", Sort.ARRAY)}
    for theta in ({}, identity, unrelated):
        assert c.subst(theta) is c
        assert c.constraint.subst(theta) is c.constraint
        assert all(a.subst(theta) is a for a in c.constraint.atoms + c.body + (c.head,))
        assert all(e.subst(theta) is e for a in lin for e in (a.lhs, a.rhs))
    assert rename_apart(c, [Var("W"), Var("W2", Sort.ARRAY)]) is c
    # the memos survive, on the very objects the substitution returned
    assert hasattr(c.constraint, "_hash") and hasattr(c.constraint, "_vars")
    assert all(hasattr(a, "_row") and hasattr(a, "_hash") for a in lin)
    assert all(hasattr(e, "_hash") for a in lin for e in (a.lhs, a.rhs))


def test_subst_that_maps_one_variable_rebuilds_only_what_mentions_it():
    x, y, z, w = (Var(n) for n in "XYZW")
    lhs = conj("X + 2*Y - Z >= 3").atoms[0].lhs
    for theta, coeffs in (({y: w}, {w: 2, x: 1, z: -1}),  # W sorts first
                          ({y: x}, {x: 3, z: -1}),  # merges two terms
                          ({z: x}, {y: 2})):  # cancels one
        out = lhs.subst(theta)
        assert out == LinExpr.build(coeffs) and out.coeffs == LinExpr.build(coeffs).coeffs
        assert hash(out) == hash(LinExpr.build(coeffs))
    c = parse_program(SUBST_TEXT).clauses[0]
    renamed = c.subst({y: w})
    assert renamed == parse_program(SUBST_TEXT.replace("Y", "W")).clauses[0]
    for old, new in zip(c.constraint.atoms + c.body, renamed.constraint.atoms + renamed.body):
        assert (new is old) == (y not in old.vars())
    assert renamed.head is c.head


def test_row_lowers_every_relation_to_le_eq_or_ne():
    x, y = Var("X"), Var("Y")
    xy = ((x, 1), (y, -1))
    yx = ((x, -1), (y, 1))
    cases = {
        "X + 2 = Y": (xy, 2, Rel.EQ),
        "X + 2 =\\= Y": (xy, 2, Rel.NE),
        "X + 2 =< Y": (xy, 2, Rel.LE),
        "X + 2 < Y": (xy, 3, Rel.LE),
        "X + 2 >= Y": (yx, -2, Rel.LE),
        "X + 2 > Y": (yx, -1, Rel.LE),
        "Y - X + 3 > 2 * Y - X": (((y, 1),), -2, Rel.LE),
        "3 =< 1": ((), 2, Rel.LE),
    }
    for text, row in cases.items():
        atom = conj(text).atoms[0]
        assert atom.row() == row, text
        assert atom.row() is atom.row()  # memoised


def _reference_row(atom):
    """LinAtom.row as it was built before the merge: through LinExpr.sub."""
    lhs, rhs, rel = atom.lhs, atom.rhs, atom.rel
    if rel is Rel.GE or rel is Rel.GT:
        lhs, rhs = rhs, lhs
    k = lhs.const - rhs.const + (1 if rel is Rel.LT or rel is Rel.GT else 0)
    return lhs.sub(rhs).coeffs, k, rel if rel is Rel.EQ or rel is Rel.NE else Rel.LE


def test_row_matches_the_difference_of_its_sides():
    """row() merges the two sides' terms in LinExpr.sub's order, which Gauss
    pivots depend on, on seeded random atoms: every relation, terms that
    cancel, constant-only and single-term sides, shared variables, and
    distinct variables of one name."""
    rng = random.Random(20)
    pool = [Var(n) for n in ("A", "B", "X", "X1", "Y", "Z")] + [Var("X", Sort.ARRAY)]
    seen = {rel: 0 for rel in Rel}
    shapes = dict.fromkeys(("cancel", "const", "single", "shared", "one_name"), 0)

    def side():
        n = rng.choice([0, 1, 1, 2, 3])
        return LinExpr.build({v: rng.choice([-2, -1, 1, 3]) for v in rng.sample(pool, n)},
                             rng.randint(-3, 3))

    for _ in range(3000):
        lhs = side()
        # the right side often repeats left terms, with the same coefficient
        # (they cancel) or another
        terms = dict(side().coeffs)
        for v, c in lhs.coeffs:
            if rng.random() < 0.5:
                terms[v] = c if rng.random() < 0.5 else c + 1
        rhs = LinExpr.build(terms, rng.randint(-3, 3))
        atom = LinAtom(lhs, rng.choice(list(Rel)), rhs)
        want = _reference_row(atom)
        assert atom.row() == want, atom  # tuples: the term order counts
        seen[atom.rel] += 1
        shared = {v for v, _ in lhs.coeffs} & {v for v, _ in rhs.coeffs}
        shapes["cancel"] += any(v not in dict(want[0]) for v in shared)
        shapes["const"] += not lhs.coeffs or not rhs.coeffs
        shapes["single"] += len(lhs.coeffs) == 1 or len(rhs.coeffs) == 1
        shapes["shared"] += bool(shared)
        names = [v.name for v, _ in lhs.coeffs + rhs.coeffs]
        shapes["one_name"] += len(set(names)) < len(set(v for v, _ in lhs.coeffs + rhs.coeffs))
    assert min(seen.values()) >= 100, seen
    assert min(shapes.values()) >= 50, shapes
    x, y = Var("X"), Var("Y")
    assert conj("X + Y = X + 2").atoms[0].row() == (((y, 1),), -2, Rel.EQ)
    assert conj("X + Y > Y").atoms[0].row() == (((x, -1),), 1, Rel.LE)


# --- sort declarations and shared variables ---------------------------------

def test_conflicting_sorts_redeclaration_is_refused():
    # a bug fix: the later declaration used to overwrite the earlier one
    with pytest.raises(SortMismatch) as e:
        parse_program(":- sorts p(array).\n:- sorts p(int).\np(X).")
    assert str(e.value) == "predicate 'p' declared with sorts (int) and (array) (line 2)"
    with pytest.raises(ArityClash) as e:
        parse_program(":- sorts p(array).\n:- sorts p(array, int).\n")
    assert str(e.value) == "predicate 'p' declared with arity 2 and 1 (line 2)"
    p = parse_program(":- sorts p(array).\n:- sorts p(array).\np(X) :- q(X).")
    assert p.signatures == {"p": (Sort.ARRAY,), "q": (Sort.ARRAY,)}


def _occurrences(c):
    """Every Var occurrence in a clause, constraint atoms included."""
    for a in ([c.head] if c.head is not None else []) + list(c.body):
        yield from a.args
    for a in c.constraint:
        if isinstance(a, LinAtom):
            yield from (v for v, _ in a.lhs.coeffs + a.rhs.coeffs)
        else:
            yield from a.vars()


def test_a_parsed_clause_has_one_var_per_name():
    text = (":- sorts p(array, int).\n"
            "p(A, X) :- X = Y + 1, Y > 0, read(A, Y, Z), B = A, q(X, Y, Z), q(Y, X, 2*Z).\n"
            "q(X, X, Y) :- X =< Y + X.\n")
    programs = [parse_program(text), parse_program((FROZEN[0].parent / "hl1.chc").read_text())]
    for p in programs:
        for c in p.clauses:
            first = {}
            for v in _occurrences(c):
                assert first.setdefault(v.name, v) is v, (c, v)
    p = programs[0]
    assert p.signatures["p"] == (Sort.ARRAY, Sort.INT)
    for clone in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and clone.signatures == p.signatures
        assert print_program(clone) == print_program(p)
    for c in p.clauses:
        for clone in (copy.copy(c), pickle.loads(pickle.dumps(c))):
            assert clone == c and hash(clone) == hash(c)


# --- one atom object per constraint text within a parse ---------------------

HL1_PN = BENCH_INPUTS / "pn" / "hl1.chc"


def _lin_atoms(p):
    return [a for c in p.clauses for a in c.constraint if isinstance(a, LinAtom)]


def test_equal_linear_atoms_of_one_parse_are_one_object():
    # a printed Pn repeats each clause's parent prefix in every child
    atoms = _lin_atoms(parse_program(HL1_PN.read_text()))
    assert len({id(a) for a in atoms}) == len(set(atoms)) < len(atoms)


def test_two_parses_of_one_text_share_no_atom_object():
    text = HL1_PN.read_text()
    first, second = parse_program(text), parse_program(text)
    assert first == second
    assert not {id(a) for a in _lin_atoms(first)} & {id(a) for a in _lin_atoms(second)}


@pytest.mark.parametrize("array_first", [True, False])
def test_an_array_equality_shares_nothing_with_an_int_one(array_first):
    lines = ["p(A,B) :- read(A,I,V), A = B.", "q(A,B) :- A = B, A >= 0."]
    if not array_first:
        lines.reverse()
    p = parse_program("\n".join(lines) + "\n")
    by_head = {c.head.pred: c.constraint.atoms for c in p.clauses}
    assert by_head["p"][1] == ArrEqAtom(Var("A", Sort.ARRAY), Var("B", Sort.ARRAY))
    int_eq = by_head["q"][0]
    assert isinstance(int_eq, LinAtom) and int_eq.vars() == (Var("A"), Var("B"))
    assert p.signatures == {"p": (Sort.ARRAY, Sort.ARRAY), "q": (Sort.INT, Sort.INT)}


def test_parsing_keeps_no_container_at_module_level():
    """After parsing hl1's Pn, syntax holds no mutable container at module
    level but the Var intern tables and its constant parser tables, which
    the parse leaves as they were: the atom table lived on the call."""
    constants = {name: dict(getattr(syntax, name)) for name in ("_FIXED_KINDS", "_EXPECTED", "_RELS", "_SORTS")}
    parse_program(HL1_PN.read_text())
    mutable = (collections.abc.MutableMapping, collections.abc.MutableSequence,
               collections.abc.MutableSet)
    held = sorted(name for name, value in vars(syntax).items()
                  if not name.startswith("__") and isinstance(value, mutable))
    assert held == sorted(["_INT_VARS", "_ARRAY_VARS", *constants])
    assert {name: getattr(syntax, name) for name in constants} == constants
