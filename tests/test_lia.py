import collections
import gc
import itertools
import math
import operator
import random
import time
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from chcpair import (
    Atom,
    ConstraintConj,
    LinAtom,
    LinExpr,
    PairingConfig,
    QuantDisj,
    Rel,
    Sort,
    TransformationState,
    Var,
    boxes,
    check_model,
    corpus,
    entails_equality,
    eq_set,
    equiv_quant_disj,
    install_unknown_resolver,
    is_satisfiable,
    iterate_pairing,
    negate_linatom,
    parse_program,
    project,
)
from chcpair import lia
from chcpair.lia import Verdict, qd_of, satisfiable_with_witness
from chcpair.syntax import ReadAtom, false_atom, fresh_name, print_constraint_atom

from helpers import conj
from test_model_goldens import load_case

V = lambda n: Var(n)


# --- is_satisfiable -------------------------------------------------------

def test_sat_examples():
    assert is_satisfiable(conj("M = Y, M =< 0, Y > 0")) is Verdict.DISPROVED
    assert is_satisfiable(ConstraintConj()) is Verdict.PROVED
    # integer tightening closes the open unit interval
    assert is_satisfiable(conj("X > 0, X < 1")) is Verdict.DISPROVED


def test_sat_witness_is_real():
    v, w = satisfiable_with_witness(conj("X + Y >= 7, X =< 2, Y =\\= 9"))
    assert v is Verdict.PROVED
    assert boxes.eval_conj(conj("X + Y >= 7, X =< 2, Y =\\= 9"), w)


def test_sat_gcd_tightening():
    # 2x = 1 has rational but no integer solutions
    assert is_satisfiable(conj("2*X = 1")) is Verdict.DISPROVED


def test_sat_array_atoms_dropped():
    p = parse_program(":- sorts p(array).\np(A) :- read(A,I,U), U > 0, U < 0.")
    assert is_satisfiable(p.clauses[0].constraint) is Verdict.DISPROVED


def test_fm_step_past_the_row_cap_is_refused_before_it_is_built(monkeypatch):
    """With `Y >= S` added, one Fourier-Motzkin step of this 8-variable
    conjunction would combine 232 x 12,511 rows; the step is refused by its
    count, so the answer is Unknown after far fewer than a cap's worth of
    tightened rows (2,916,299 when the cap was checked after the step)."""
    c = conj(
        "-2*S - W - X - Y + 3*Z - 3 =< -U + Z - 5, -2*U + 4 =\\= 2*S + X - 1, "
        "-2*R - 3*T + 3*W - 3*Z + 3 > -2*Y - 2, "
        "-R - W - 2 = -3*S + T + 2*U + 2*W + 2*X - Y + 3*Z + 3, "
        "R - 3*S - 2*Y - 1 = 2*S + 2*T - 2*X - Y + 1, -S + 2*W + X + 2*Y > R - S + 3*Y - 3, "
        "-2*R - 3*T - U - W + X + Y + 3*Z + 5 < -1, Y >= S"
    )
    calls = []
    tighten = lia._tighten

    def counted(coeffs, const):
        calls.append(None)
        return tighten(coeffs, const)

    monkeypatch.setattr(lia, "_tighten", counted)
    install_unknown_resolver(None)
    assert is_satisfiable(c) is Verdict.UNKNOWN
    assert len(calls) < 2 * lia._FM_ROW_CAP


# --- entails_equality / eq_set ---------------------------------------------

def test_entails_equality_examples():
    assert entails_equality(conj("M1 = M2, N1 = N2"), V("M1"), V("M2")) is Verdict.PROVED
    assert entails_equality(conj("R0 = 0, S0 = 0"), V("R0"), V("S0")) is Verdict.PROVED
    assert entails_equality(conj("M1 > 0"), V("M1"), V("M2")) is Verdict.DISPROVED


def test_entails_equality_through_chains():
    d = conj("Y1 = N1 - 1, Y2 = N2 - 1, N1 = N2")
    assert entails_equality(d, V("Y1"), V("Y2")) is Verdict.PROVED


D15 = conj(
    "A1 =\\= A2, M1 >= 0, M1 = M2, N1 >= 0, N1 = N2, M1 > 0, N1 > 0, "
    "Y1 = N1 - 1, X1 = M1 - 1, N2 =\\= 0, Y2 = N2 - 1, X2 = M2 - 1, Z3 = Z2 + 1"
)


def test_eq_set_paper_pairs():
    a = Atom("ack1", (V("M1"), V("Y1"), V("Z1")))
    b = Atom("ack2", (V("M2"), V("Y2"), V("Z2")))
    assert eq_set(D15, a, b) == ((V("M1"), V("M2")), (V("Y1"), V("Y2")))
    b2 = Atom("ack2", (V("X2"), V("Z3"), V("A2")))
    assert eq_set(D15, a, b2) == ()
    a2 = Atom("ack1", (V("X1"), V("Z1"), V("A1")))
    assert eq_set(D15, a2, b2) == ((V("X1"), V("X2")),)


def test_eq_set_disjoint_true():
    a = Atom("p", (V("A"),))
    b = Atom("q", (V("B"),))
    assert eq_set(ConstraintConj(), a, b) == ()


def test_eq_set_shared_var_counts_once():
    a = Atom("p", (V("N"), V("X")))
    b = Atom("q", (V("N"), V("Y")))
    out = eq_set(ConstraintConj(), a, b)
    assert out == ((V("N"), V("N")),)


def test_eq_set_unsat_d_is_all_pairs():
    # documented convention: an unsatisfiable d entails everything
    d = conj("X > 0, X < 0")
    a = Atom("p", (V("A"),))
    b = Atom("q", (V("B"),))
    assert eq_set(d, a, b) == ((V("A"), V("B")),)


# --- project ----------------------------------------------------------------

def test_project_examples():
    q = project(conj("X = Y + 1, Y >= 0"), {V("X")})
    assert q.exists == () and len(q.disjuncts) == 1
    assert equiv_quant_disj(q, qd_of(conj("X >= 1"))) is Verdict.PROVED

    c = conj("M = N, N = Y")
    q2 = project(c, {V("M"), V("N")})
    assert equiv_quant_disj(q2, qd_of(conj("M = N"))) is Verdict.PROVED


def test_project_identity_when_keeping_all():
    c = conj("X = Y + 1, Y >= 0")
    q = project(c, set(c.vars()))
    assert q.disjuncts == (c,)


def test_project_disequality_split():
    q = project(conj("X =\\= Y, X = Z"), {V("Y"), V("Z")})
    # exists X. X != Y and X = Z  is equivalent to  Z != Y
    assert equiv_quant_disj(q, qd_of(conj("Z =\\= Y"))) is Verdict.PROVED


def test_project_gives_up_on_a_fourier_motzkin_overflow(monkeypatch):
    c = conj("X =< A, X =< B, X >= C, X >= D")
    keep = {V("A"), V("B"), V("C"), V("D")}
    assert len(project(c, keep).disjuncts[0]) == 4  # C =< A, C =< B, D =< A, D =< B
    # eliminating X pairs 2 upper with 2 lower bounds: 4 rows, past a cap of 1
    monkeypatch.setattr(lia, "_FM_ROW_CAP", 1)
    q = project(c, keep)
    assert q.disjuncts == (ConstraintConj(),) and q.exact is False


# --- equiv ------------------------------------------------------------------

def test_equiv_examples():
    lhs = QuantDisj((V("Y"),), (conj("M = Y, M =< 0, Sum = R0, Sqr = S0"),))
    rhs = qd_of(conj("M =< 0, Sum = R0, Sqr = S0"))
    assert equiv_quant_disj(lhs, rhs) is Verdict.PROVED
    c = qd_of(conj("X > 0, X = Y"))
    assert equiv_quant_disj(c, c) is Verdict.PROVED
    assert equiv_quant_disj(qd_of(conj("X > 0")), qd_of(conj("X >= 1"))) is Verdict.PROVED
    assert equiv_quant_disj(qd_of(conj("X > 0")), qd_of(conj("X >= 0"))) is Verdict.DISPROVED


def test_equiv_of_disjunctions():
    lhs = QuantDisj((), (conj("X >= 1"), conj("X =< -1")))
    rhs = qd_of(conj("X =\\= 0"))
    assert equiv_quant_disj(lhs, rhs) is Verdict.PROVED


# --- negate -----------------------------------------------------------------

def test_existential_renaming_names():
    e, x, y = V("E"), V("X"), V("Y")
    q = QuantDisj((e,), (conj("E = X"),))
    taken = {"E", "E_1", "X"}
    assert lia.qd_rename_exists_fresh(q, taken) == QuantDisj((V("E_2"),), (conj("E_2 = X"),))
    assert "E_2" in taken
    assert lia.qd_rename_exists_fresh(q, {"X"}) is q
    # captured by the image of theta
    assert lia.qd_subst(q, {x: e}) == QuantDisj((V("E_1"),), (conj("E_1 = E"),))
    # in theta's domain, renamed even though no disjunct mentions E
    free = QuantDisj((e,), (conj("X = 1"),))
    assert lia.qd_subst(free, {e: y}).exists == (V("E_1"),)
    # an existential's own name, reserved for its renaming only, stays free for the next
    q2 = QuantDisj((V("E_1"), e), (conj("E = X"),))
    assert lia.qd_subst(q2, {V("E_1"): y, x: e}) == QuantDisj(
        (V("E_1_1"), V("E_1")), (conj("E_1 = E"),)
    )


def test_negate_forms():
    le = conj("X =< Y").atoms[0]
    assert [print_constraint_atom(a) for a in negate_linatom(le)] == ["X >= Y + 1"]
    eq = conj("X = Y").atoms[0]
    assert [print_constraint_atom(a) for a in negate_linatom(eq)] == [
        "X =< Y - 1",
        "X >= Y + 1",
    ]
    gt = conj("X > 0").atoms[0]
    assert [print_constraint_atom(a) for a in negate_linatom(gt)] == ["X =< 0"]


def test_negate_is_complement_pointwise():
    rng = random.Random(3)
    pool = [V("X"), V("Y")]
    for _ in range(100):
        atom = _random_atom(rng, pool)
        env = {v: rng.randint(-4, 4) for v in pool}
        original = boxes.eval_atom(atom, env)
        negs = any(boxes.eval_atom(n, env) for n in negate_linatom(atom))
        assert original != negs


# --- randomized agreement with brute force ---------------------------------

def _random_expr(rng, pool):
    coeffs = {v: rng.randint(-3, 3) for v in rng.sample(pool, rng.randint(0, len(pool)))}
    return LinExpr.build(coeffs, rng.randint(-6, 6))


def _random_atom(rng, pool):
    return LinAtom(_random_expr(rng, pool), rng.choice(list(Rel)), _random_expr(rng, pool))


def _random_conj(rng, nvars=4, natoms=4):
    pool = [V(n) for n in ["X", "Y", "Z", "W"][:nvars]]
    return ConstraintConj(tuple(_random_atom(rng, pool) for _ in range(rng.randint(1, natoms))))


def brute_force_box_sat(c, lo, hi):
    sys_ = boxes.lower_conj(c)
    return boxes.find_solution(sys_, lo, hi) is not None


def test_sat_verdicts_never_contradict_enumeration():
    rng = random.Random(42)
    for _ in range(250):
        c = _random_conj(rng)
        v, w = satisfiable_with_witness(c)
        brute = brute_force_box_sat(c, -8, 8)
        if v is Verdict.DISPROVED:
            assert not brute, f"engine disproved a box-satisfiable conjunction: {c}"
        if v is Verdict.PROVED:
            assert boxes.eval_conj(c, w)


def test_entails_equality_agrees_with_enumeration():
    rng = random.Random(43)
    checked = disproved = 0
    x, y = V("X"), V("Y")
    negations = negate_linatom(LinAtom(LinExpr.of(x), Rel.EQ, LinExpr.of(y)))
    for _ in range(150):
        c = _random_conj(rng)
        v = entails_equality(c, x, y)
        sys_ = boxes.lower_conj(c, var_order=[x, y])
        sols = boxes.solutions(sys_, -6, 6)
        if v is Verdict.PROVED:
            assert all(s[x] == s[y] for s in sols)
            checked += 1
        elif v is Verdict.DISPROVED:
            # Disproved rests on a negation query proved with a witness: a
            # solution of c that separates X and Y
            witnesses = [
                w
                for na in negations
                for nv, w in [satisfiable_with_witness(ConstraintConj(c.atoms + (na,)))]
                if nv is Verdict.PROVED
            ]
            assert witnesses, f"no separating witness for {c}"
            for w in witnesses:
                assert w[x] != w[y]
                assert all(boxes.eval_atom(a, w) for a in c.lin_atoms())
            disproved += 1
    assert checked > 0 and disproved > 0


def test_lower_and_lower_conj_share_variables_and_rows():
    rng = random.Random(46)
    for _ in range(300):
        c = _random_conj(rng)
        r = lia._lower(c.lin_atoms())
        bsys = boxes.lower_conj(c)
        assert r.vars == bsys.vars
        assert r.rows == bsys.rows
        work = []
        ground_false = False
        for coeffs, k, rel in bsys.rows:
            if coeffs:
                work.append((coeffs, k, rel))
            else:
                ground_false |= not boxes.row_holds(k, rel)
        assert r.work == work
        assert all(0 not in row.values() for row, _, _ in r.work)
        assert r.unsat == ground_false
        assert r.atoms == c.lin_atoms() and r.defs == [] and r.conj is None


def test_probe_witness_is_the_first_point_of_the_box():
    """A conjunction of at most 6 variables with a point in [-2,2]^n gets the
    lexicographically first such point, variables in order of first
    occurrence in the atoms' lhs - rhs."""
    rng = random.Random(47)
    pool = [V(n) for n in ("X", "Y", "Z", "W", "U", "T")]
    ref = {Rel.EQ: operator.eq, Rel.NE: operator.ne, Rel.LE: operator.le,
           Rel.LT: operator.lt, Rel.GE: operator.ge, Rel.GT: operator.gt}

    def value(e, env):
        # a variable that cancels out of lhs - rhs is in no row: any value
        return e.const + sum(c * env.get(v, 0) for v, c in e.coeffs)

    def holds(a, env):
        return ref[a.rel](value(a.lhs, env), value(a.rhs, env))

    deadline = time.monotonic() + 4.0
    checked = tried = 0
    while tried < 250 and time.monotonic() < deadline:
        tried += 1
        sub = rng.sample(pool, rng.randint(1, len(pool)))
        c = ConstraintConj(tuple(_random_atom(rng, sub) for _ in range(rng.randint(1, 4))))
        order: list = []
        for a in c.lin_atoms():
            for v, _ in a.lhs.sub(a.rhs).coeffs:
                if v not in order:
                    order.append(v)
        first = next(
            (
                p
                for p in itertools.product(range(-2, 3), repeat=len(order))
                if all(holds(a, dict(zip(order, p))) for a in c.lin_atoms())
            ),
            None,
        )
        if first is None:
            continue
        verdict, w = satisfiable_with_witness(c)
        assert verdict is Verdict.PROVED and w == dict(zip(order, first)), c
        checked += 1
    assert checked >= 50


def test_project_prints_rows_without_negative_terms():
    cases = [
        ("X = Y + 2, Y =< 3, Z >= X, W =\\= X + 1", "XZW",
         [["Z >= X", "W =\\= X + 1", "X =< 5"]], True),
        ("Y =< X, Y >= 1, Y + Z =< 3", "XZ", [["X >= 1", "Z =< 2"]], True),
        ("2*Y = 2*Z, X =< Y, Y =< X, Z >= 0 - 4", "XZ", [["Z >= -4", "Z = X"]], True),
        ("Y =\\= X + 2, Y >= 0, Y =< 5, X =\\= 3", "X",
         [["X =\\= 3", "X >= -1"], ["X =\\= 3", "X =< 2"]], True),
        ("3*Y >= X + 1, 2*Y =< 7 - Z", "XZ", [["2*X + 3*Z =< 19"]], False),
        ("Y = X + 2, Y =\\= W, Z =\\= Y - 4", "XWZ", [["X + 2 =\\= W", "Z + 2 =\\= X"]], True),
        ("2*Y = 2*Z + 2, X =< Y, Y =< X", "XZ", [["Z + 1 = X"]], True),
        # B's definition puts D after E in the second row; the pivot is D, first by name
        ("B = D + X, B + E = 0, D - E = 0 - X, 2*Y = 2*E + Y + 3", "XY", [["Y = 3"]], False),
        # A's definition turns 2*D into D, which becomes a pivot
        ("A = D + X, 2*D - A = Y, D =< 3*Y", "XY", [["X =< 2*Y"]], True),
        # X cancels out of B + X =< X + 1
        ("B + X =< X + 1, B >= 0", "B", [["B >= 0", "B =< 1"]], True),
        ("B + X =< X + 1, X = Y + 2, Y >= B", "BY", [["Y >= B", "B =< 1"]], True),
        # after A's definition, Fourier-Motzkin takes Y, B, X, by first occurrence
        ("B = 0 - A + Z, 1 = 2*Y + 3, A + X + 3 =< 2*Y", "Z", [[]], False),
        # the array atom on an eliminated variable is dropped
        ("read(M, I, U), U = X + 1, I >= U", "X", [[]], False),
        ("read(M, I, U), U = X + 1, I >= U", "XIM", [["X + 1 =< I"]], False),
        # past the split cap the disequalities on X are dropped, but X
        # cancels out of 2*B + X =\= X, which stays
        ("2*B + X =\\= X, " + ", ".join(f"B =\\= X + {k}" for k in range(7)), "B",
         [["2*B =\\= 0"]], False),
    ]
    for text, keep, want, exact in cases:
        c = conj(text)
        q = project(c, [v for v in c.vars() if v.name in keep])
        assert [[print_constraint_atom(a) for a in d] for d in q.disjuncts] == want, text
        assert q.exact is exact, text


def test_project_overapproximates_integer_points():
    rng = random.Random(44)
    for _ in range(120):
        c = _random_conj(rng, nvars=3, natoms=3)
        vs = list(c.vars())
        if not vs:
            continue
        keep = set(rng.sample(vs, rng.randint(0, len(vs) - 1)))
        q = project(c, keep)
        sys_ = boxes.lower_conj(c, var_order=vs)
        for s in boxes.solutions(sys_, -4, 4, limit=50):
            restricted = {v: s[v] for v in keep}
            assert any(
                boxes.eval_conj(d, {**{v: 0 for v in d.vars()}, **restricted})
                for d in q.disjuncts
            ) or q.exists, f"projection lost point {restricted} of {c}"


def test_eq_set_monotone_in_d():
    rng = random.Random(45)
    a = Atom("p", (V("X"), V("Y")))
    b = Atom("q", (V("Z"), V("W")))
    for _ in range(60):
        d = _random_conj(rng, nvars=4, natoms=2)
        extra = _random_atom(rng, [V("X"), V("Y"), V("Z"), V("W")])
        d2 = ConstraintConj(d.atoms + (extra,))
        if is_satisfiable(d2) is not Verdict.PROVED:
            continue
        small = set(eq_set(d, a, b))
        big = set(eq_set(d2, a, b))
        assert small <= big


def _eq_set_reference(d, a, b):
    """eq_set without the witness filter: one entailment query per pair."""
    out = []
    seen = set()
    for x in a.vars():
        for y in b.vars():
            if x == y:
                key = frozenset((x.name,))
                ok = True
            elif x.sort is y.sort is Sort.INT:
                key = frozenset((x.name, y.name))
                if key in seen:
                    continue
                ok = entails_equality(d, x, y) is Verdict.PROVED
            else:
                continue
            if ok and key not in seen:
                seen.add(key)
                out.append((x, y))
    return tuple(sorted(out, key=lambda p: (p[0].name, p[1].name)))


def _eq_set_pair_loop(d, a, b, reduced):
    """eq_set as a loop over every pair of a's and b's variables, in order,
    that skips a pair a point of d's decision separates and asks the
    others."""
    is_satisfiable(d, reduced=reduced)
    witnesses = reduced.decision[1]
    out = []
    seen = set()
    for x in a.vars():
        for y in b.vars():
            if x == y:
                key = frozenset((x.name,))
                ok = True
            elif x.sort is Sort.INT and y.sort is Sort.INT:
                key = frozenset((x.name, y.name))
                if key in seen:
                    continue
                if any(x not in w or y not in w or w[x] != w[y] for w in witnesses):
                    continue
                ok = lia.entails_equality(d, x, y, reduced=reduced) is Verdict.PROVED
            else:
                continue
            if ok and key not in seen:
                seen.add(key)
                out.append((x, y))
    return tuple(sorted(out, key=lambda p: (p[0].name, p[1].name)))


def test_eq_set_matches_pairwise_reference(monkeypatch):
    """eq_set answers as one query per pair does, and asks entails_equality
    the same pairs in the same order as the pair loop, also with an array
    variable that a and b share and with a variable of a that d lacks."""
    rng = random.Random(46)
    pool = [V(n) for n in ["X", "Y", "Z", "W", "U"]]
    array, absent = Var("A", Sort.ARRAY), V("Q")
    asked = []
    ask = lia.entails_equality

    def recording(d, x, y, *, reduced=None):
        asked.append((x, y))
        return ask(d, x, y, reduced=reduced)

    monkeypatch.setattr(lia, "entails_equality", recording)
    deadline = time.monotonic() + 5.0
    seen = collections.Counter()
    cases = 0
    while cases < 400 and time.monotonic() < deadline:
        d = _random_conj(rng)
        # chained equalities make some pairs entailed, not only disproved
        for _ in range(rng.randint(0, 2)):
            u, w = rng.sample(pool, 2)
            shift = LinExpr.build({w: 1}, rng.choice([0, 0, 1]))
            d = ConstraintConj(d.atoms + (LinAtom(LinExpr.of(u), Rel.EQ, shift),))
        a_args = rng.sample(pool, rng.randint(1, 3))
        b_args = rng.sample(pool, rng.randint(1, 3))
        if rng.random() < 0.2:
            a_args.insert(rng.randint(0, len(a_args)), array)
            b_args.insert(rng.randint(0, len(b_args)), array)
            seen["shared array"] += 1
        if rng.random() < 0.2:
            a_args.insert(rng.randint(0, len(a_args)), absent)
            seen["absent from d"] += 1
        a, b = Atom("p", tuple(a_args)), Atom("q", tuple(b_args))
        got = eq_set(d, a, b)
        want = _eq_set_reference(d, a, b)
        assert got == want, f"eq_set differs on {d}, {a}, {b}"
        # with the caller's reduction, which keeps the decision's points
        r = lia.reduction(d)
        asked.clear()
        assert eq_set(d, a, b, reduced=r) == want, f"{d}, {a}, {b}"
        got_asked = list(asked)
        asked.clear()
        assert _eq_set_pair_loop(d, a, b, lia.reduction(d)) == want
        assert got_asked == asked, f"{d}, {a}, {b}"
        for witness in r.decision[1]:
            assert all(boxes.eval_atom(at, witness) for at in d.lin_atoms())
        seen["entailed"] += any(x != y for x, y in got)
        seen["asked several"] += len(asked) > 1
        cases += 1
    assert cases >= 50
    for key in ("entailed", "asked several", "shared array", "absent from d"):
        assert seen[key] > 0, (key, seen)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_interval_sat_matches_arithmetic(lo, hi, k):
    c = ConstraintConj(
        (
            LinAtom(LinExpr.build({V("X"): k}), Rel.GE, LinExpr.number(lo)),
            LinAtom(LinExpr.build({V("X"): k}), Rel.LE, LinExpr.number(hi)),
        )
    )
    v = is_satisfiable(c)
    has_int = (lo <= hi) and any(lo <= k * x <= hi for x in range(-40, 41))
    if has_int:
        assert v is Verdict.PROVED
    else:
        assert v is Verdict.DISPROVED


# --- reduce once, then extend ----------------------------------------------


def _reference_subst_rows(rows, v, dcoeffs, dconst):
    """The rows with v replaced by sum(dcoeffs) + dconst, one definition
    into every row."""
    out = []
    for coeffs, k in rows:
        a = coeffs.get(v)
        if not a:
            out.append((coeffs, k))
            continue
        merged = {i: c for i, c in coeffs.items() if i != v}
        for i, c in dcoeffs.items():
            merged[i] = merged.get(i, 0) + a * c
        merged = {i: c for i, c in merged.items() if c != 0}
        out.append((merged, k + a * dconst))
    return out


def _buckets(vars_, work):
    """The rows of `work` sorted into LE, EQ and NE lists of (coeffs, k),
    each in list order, as the reference Gauss below reads them."""
    split = {Rel.LE: [], Rel.EQ: [], Rel.NE: []}
    for coeffs, k, rel in work:
        split[rel].append((coeffs, k))
    return types.SimpleNamespace(vars=vars_, le=split[Rel.LE], eq=split[Rel.EQ], ne=split[Rel.NE])


def _reference_gauss(sys_, only=None):
    """Gauss elimination on a whole lowered system in LE, EQ and NE lists,
    as a from-scratch query ran it: pivot on the first EQ row with a unit
    coefficient (with `only`, a unit coefficient on a variable of `only`,
    the first by name), substitute it everywhere, start over; then drop
    ground rows."""
    defs = []
    subst_rows = _reference_subst_rows
    progress = True
    while progress:
        progress = False
        for idx, (coeffs, k) in enumerate(sys_.eq):
            units = [i for i, c in coeffs.items() if abs(c) == 1 and (only is None or i in only)]
            if not units:
                continue
            unit = units[0] if only is None else min(units, key=lambda i: sys_.vars[i].name)
            a = coeffs[unit]
            dcoeffs = {i: -a * c for i, c in coeffs.items() if i != unit}
            dconst = -a * k
            sys_.eq.pop(idx)
            sys_.le = subst_rows(sys_.le, unit, dcoeffs, dconst)
            sys_.eq = subst_rows(sys_.eq, unit, dcoeffs, dconst)
            sys_.ne = subst_rows(sys_.ne, unit, dcoeffs, dconst)
            defs.append((unit, dcoeffs, dconst))
            progress = True
            break
    unsat = False
    for bucket, rel in ((sys_.le, Rel.LE), (sys_.eq, Rel.EQ), (sys_.ne, Rel.NE)):
        keep = []
        for coeffs, k in bucket:
            if coeffs:
                keep.append((coeffs, k))
            elif not boxes.row_holds(k, rel):
                unsat = True
        bucket[:] = keep
    return defs, unsat


def test_subst_defs_matches_one_definition_at_a_time():
    """_subst_defs, row by row, gives each row the dict, in the same key
    order, that substituting the definitions one at a time into every row
    gives, on seeded random rows and definition chains; a definition's right
    side may mention a variable that a later definition eliminates, or that
    an earlier one did."""
    rng = random.Random(20)
    seen = collections.Counter()
    for _ in range(2000):
        nvars = rng.randint(1, 8)
        order = rng.sample(range(nvars), rng.randint(0, nvars))
        defs = []
        for v in order:
            others = [i for i in range(nvars) if i != v]
            dcoeffs = {i: rng.choice([-2, -1, 1, 2])
                       for i in rng.sample(others, rng.randint(0, min(3, len(others))))}
            defs.append((v, dcoeffs, rng.randint(-3, 3)))
        elim = [v for v, _, _ in defs]
        seen["forward"] += any(i in elim[n + 1:] for n, (_, dc, _) in enumerate(defs) for i in dc)
        seen["backward"] += any(i in elim[:n] for n, (_, dc, _) in enumerate(defs) for i in dc)
        rows = []
        for _ in range(rng.randint(0, 5)):
            keys = rng.sample(range(nvars), rng.randint(0, nvars))
            rows.append(({i: rng.choice([-3, -1, 1, 2]) for i in keys}, rng.randint(-3, 3),
                         rng.choice([Rel.LE, Rel.EQ, Rel.NE])))
        before = [(list(c.items()), k, rel) for c, k, rel in rows]
        want = [(c, k) for c, k, _ in rows]
        for v, dcoeffs, dconst in defs:
            want = _reference_subst_rows(want, v, dcoeffs, dconst)
        got = lia._subst_defs(rows, defs)
        # each row keeps its relation
        assert [(list(c.items()), k, rel) for c, k, rel in got] == [
            (list(c.items()), k, rel) for (c, k), (_, _, rel) in zip(want, rows)
        ], (rows, defs)
        # an untouched row keeps its dict, and no given dict changes
        assert [g is w for (g, _, _), (w, _) in zip(got, want)] == [
            g is c for (g, _, _), (c, _, _) in zip(got, rows)
        ]
        assert [(list(c.items()), k, rel) for c, k, rel in rows] == before
        seen["untouched"] += any(g is c for (g, _, _), (c, _, _) in zip(got, rows))
        seen["changed"] += any(g is not c for (g, _, _), (c, _, _) in zip(got, rows))
        seen["cancel"] += any(len(g) < len(c) - 1 for (g, _, _), (c, _, _) in zip(got, rows))
        seen["no_rows"] += not rows
        seen["no_defs"] += not defs
    for key in ("forward", "backward", "untouched", "changed", "cancel", "no_rows", "no_defs"):
        assert seen[key] >= 20, (key, seen)


def _reference_le_branches(sys_, ne):
    """The <=-row branches of LE, EQ and NE lists: the LE rows, each EQ row
    in both directions, then one side of each NE row."""
    base = list(sys_.le)
    for c, k in sys_.eq:
        base += [(dict(c), k), ({i: -x for i, x in c.items()}, -k)]
    branches = [base]
    for c, k in ne:
        sides = ((dict(c), k + 1), ({i: -x for i, x in c.items()}, 1 - k))
        branches = [br + [side] for br in branches for side in sides]
    return branches


def _keyed(rows):
    """Rows with their keys in order, so that a comparison sees key order."""
    return [(list(row[0].items()),) + tuple(row[1:]) for row in rows]


def test_gauss_on_the_one_list_matches_the_reference_on_relation_lists(monkeypatch):
    """_gauss_reduce on one row list gives the definitions, in the same
    order, and the unsat flag of the reference Gauss on LE, EQ and NE lists,
    with and without `only`; the rows it leaves, taken by relation, are the
    reference's lists, in the same order and with the same key order; and
    _le_branches on them gives the reference's branches. Seeded random
    systems, ground and unit-free rows included, over variables whose names
    are not in index order; in some, a row before a pivot gains a unit
    coefficient from its substitution, where the resumed pivot search must
    step back."""
    pivots = []
    find_pivot = boxes.find_pivot

    def recorded(rows, start=0, only=None, key=None):
        found = find_pivot(rows, start, only, key)
        pivots.append(found and found[0])
        return found

    monkeypatch.setattr(boxes, "find_pivot", recorded)
    rng = random.Random(33)
    seen = collections.Counter()
    deadline = time.monotonic() + 4.0
    cases = 0
    while cases < 3000 and time.monotonic() < deadline:
        nvars = rng.randint(1, 7)
        names = rng.sample("ABCDEFGHJK", nvars)
        vars_ = tuple(V(n) for n in names)
        work = []
        for _ in range(rng.randint(0, 7)):
            keys = rng.sample(range(nvars), rng.randint(0, min(nvars, 4)))
            coeffs = {i: rng.choice([-2, -1, 1, 1, 2, 3]) for i in keys}
            work.append((coeffs, rng.randint(-2, 2), rng.choice([Rel.LE, Rel.EQ, Rel.EQ, Rel.NE])))
        if nvars > 1 and rng.random() < 0.2:
            # 2i + 3j = k has no unit until a later i + j = k' substitutes i
            i, j = rng.sample(range(nvars), 2)
            work.insert(rng.randint(0, len(work)), ({i: 2, j: 3}, rng.randint(-2, 2), Rel.EQ))
            work.append(({i: 1, j: 1}, rng.randint(-2, 2), Rel.EQ))
        only = None
        if rng.random() < 0.4:
            only = set(rng.sample(range(nvars), rng.randint(0, nvars)))
        ref = _buckets(vars_, work)
        want_defs, want_unsat = _reference_gauss(ref, only)
        r = lia.Reduction(None, (), vars_, {v: i for i, v in enumerate(vars_)}, [], list(work),
                          [], False)
        pivots.clear()
        lia._gauss_reduce(r, only)
        assert [(v, list(dc.items()), k) for v, dc, k in r.defs] == [
            (v, list(dc.items()), k) for v, dc, k in want_defs
        ], (work, only)
        assert r.unsat is want_unsat, (work, only)
        got = _buckets(vars_, r.work)
        for rel in ("le", "eq", "ne"):
            assert _keyed(getattr(got, rel)) == _keyed(getattr(ref, rel)), (rel, work, only)
        ne = [row for row in r.work if row[2] is Rel.NE][:3]
        assert [_keyed(br) for br in lia._le_branches(r.work, ne)] == [
            _keyed(br) for br in _reference_le_branches(ref, [(c, k) for c, k, _ in ne])
        ], (work, only)
        seen["only" if only is not None else "all"] += 1
        seen["pivots"] += len(r.defs) > 1
        unit_rels = [rel for c, _, rel in work if any(abs(x) == 1 for x in c.values())]
        seen["a unit on a non-EQ row first"] += (
            bool(unit_rels) and unit_rels[0] is not Rel.EQ and Rel.EQ in unit_rels)
        seen["unit-free EQ left"] += any(rel is Rel.EQ for _, _, rel in r.work)
        seen["unsat"] += want_unsat
        seen["mixed"] += len({rel for _, _, rel in r.work}) == 3
        steps = [idx for idx in pivots if idx is not None]
        seen["an earlier row pivots after a substitution"] += any(
            b < a for a, b in zip(steps, steps[1:]))
        cases += 1
    assert cases >= 300
    for key in ("only", "all", "pivots", "a unit on a non-EQ row first", "unit-free EQ left",
                "unsat", "mixed", "an earlier row pivots after a substitution"):
        assert seen[key] >= 20, (key, seen)


def _gauss_matches_the_reference(r: lia.Reduction, work, defs_before: int, unsat_before: bool,
                                 only=None):
    """r, Gauss-reduced, took the reference's pivots on a copy of the rows
    it held before, and kept its rows and unsat flag."""
    ref = _buckets(r.vars, work)
    want_defs, want_unsat = _reference_gauss(ref, only)
    assert [(v, list(dc.items()), k) for v, dc, k in r.defs[defs_before:]] == [
        (v, list(dc.items()), k) for v, dc, k in want_defs
    ], (work, only)
    assert r.unsat is (unsat_before or want_unsat), (work, only)
    got = _buckets(r.vars, r.work)
    for rel in ("le", "eq", "ne"):
        assert _keyed(getattr(got, rel)) == _keyed(getattr(ref, rel)), (rel, work, only)


def test_a_row_before_the_pivot_pivots_once_the_substitution_gives_it_a_unit():
    """2X + 3Y = 0 has no unit coefficient until the pivot of the row after
    it, X + Y = 0, substitutes X = -Y into it and leaves Y = 0: the resumed
    search steps back to it, as a search from the top would."""
    x, y = V("X"), V("Y")
    work = [({0: 2, 1: 3}, 0, Rel.EQ), ({0: 1, 1: 1}, 0, Rel.EQ)]
    r = lia.Reduction(None, (), (x, y), {x: 0, y: 1}, [], list(work), [], False)
    lia._gauss_reduce(r)
    assert [(v, dc) for v, dc, _ in r.defs] == [(0, {1: -1}), (1, {})]
    assert r.work == [] and not r.unsat
    _gauss_matches_the_reference(r, work, 0, False)


def test_every_gauss_run_of_a_transform_and_a_certify_pass_matches_the_reference(monkeypatch):
    """Each `_gauss_reduce` call of the transform of every corpus entry and
    of every model and tightness check of the benchmark's certify cases
    gives the definitions, in pivot order, the rows and the unsat flag that
    the reference Gauss gives on a copy of its input."""
    from chcpair import check_tight
    from test_model_goldens import NAMES

    gauss = lia._gauss_reduce
    calls = collections.Counter()

    def checked(r, only=None):
        work = [(dict(c), k, rel) for c, k, rel in r.work]
        defs_before, unsat_before = len(r.defs), r.unsat
        gauss(r, only)
        _gauss_matches_the_reference(r, work, defs_before, unsat_before, only)
        calls["all"] += 1
        calls["pivoted"] += len(r.defs) > defs_before

    monkeypatch.setattr(lia, "_gauss_reduce", checked)
    for name in corpus.NAMES:
        iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    transformed = calls["all"]
    for case in NAMES:
        prog, sigma, defs = load_case(case)
        check_model(prog, sigma)
        if defs is not None:
            check_tight(defs, sigma)
    assert transformed > 1000 and calls["all"] > transformed + 300, calls
    assert calls["pivoted"] > 1000, calls


def _reference_sat(atoms, signs=(0,)):
    """Satisfiability of the atoms decided from scratch, with its points:
    lower all of them, probe, Gauss-reduce the whole system, then branch
    towards one target per sign, the i-th variable at sign * 1000 * (i + 1).
    The signs (0,) aim at 0 as an extension query does, and (1, -1, 0) at
    the targets of a reduction's decision."""
    lowered = lia._lower(atoms)
    if lowered.unsat:
        return Verdict.DISPROVED, ()
    if not lowered.work:
        return Verdict.PROVED, ({v: 0 for v in lowered.vars},)
    if len(lowered.vars) <= lia._PROBE_MAX_VARS:
        w = boxes.find_solution(boxes.BoxSystem(lowered.vars, lowered.rows), -2, 2)
        if w is not None:
            return Verdict.PROVED, (w,)
    sys_ = _buckets(lowered.vars, lowered.work)
    gdefs, unsat = _reference_gauss(sys_)
    if unsat:
        return Verdict.DISPROVED, ()
    # the branches read the rows by relation, so the lists' order is enough
    work = [(c, k, rel) for rel, rows in ((Rel.LE, sys_.le), (Rel.EQ, sys_.eq),
                                          (Rel.NE, sys_.ne)) for c, k in rows]
    reduced = lia.Reduction(None, lowered.atoms, lowered.vars, lowered.index, lowered.rows, work,
                            gdefs, False)
    n = len(lowered.vars)
    return lia._branch_witness(
        reduced, [[sign * 1000 * (i + 1) for i in range(n)] for sign in signs]
    )


def _first(decision):
    """satisfiable_with_witness's answer from a decision's points."""
    verdict, points = decision
    return verdict, points[0] if points else None


_POOL = [V(n) for n in ("X", "Y", "Z", "W", "U", "T", "S", "R")]


def _extension_case(rng):
    """(kind, base atoms, extras): a random base and a few extra atom lists,
    each of one kind of extra, over at most 6 or up to 8 variables."""
    pool = _POOL[: rng.choice([3, 4, 6, 8])]
    base = [_random_atom(rng, pool) for _ in range(rng.randint(0, 5))]
    # equalities with a unit coefficient give Gauss pivots
    for _ in range(rng.randint(0, 3)):
        u, w = rng.sample(pool, 2)
        rhs = LinExpr.build({w: rng.choice([1, 2])}, rng.randint(-2, 2))
        base.append(LinAtom(LinExpr.of(u), Rel.EQ, rhs))
    base_kind = rng.choice(["plain", "plain", "refuted", "ground_false", "many_ne"])
    if base_kind == "refuted":  # u = w and u = w + 1: Gauss finds 0 = 1
        u, w = rng.sample(pool, 2)
        base += [LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.of(w)),
                 LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.build({w: 1}, 1))]
    elif base_kind == "ground_false":
        base.insert(rng.randint(0, len(base)), false_atom())
    elif base_kind == "many_ne":
        ring = _POOL[: lia._PROBE_MAX_VARS + 2]
        base += [LinAtom(LinExpr.of(a), Rel.NE, LinExpr.of(b)) for a, b in zip(ring, ring[1:])]
    rng.shuffle(base)
    kind = rng.choice(["le", "eq", "eqs", "new_vars", "ground"])
    extras = []
    for _ in range(rng.randint(1, 4)):
        if kind == "le":
            a = _random_atom(rng, pool)
            extra = negate_linatom(a) if a.rel is not Rel.NE else negate_linatom(
                LinAtom(a.lhs, Rel.LE, a.rhs))
        elif kind in ("eq", "eqs"):
            extra = [
                negate_linatom(LinAtom(_random_expr(rng, pool), Rel.NE, _random_expr(rng, pool)))[0]
                for _ in range(1 if kind == "eq" else 2)
            ]
        elif kind == "new_vars":
            fresh = [V("N1"), V("N2")]
            extra = [_random_atom(rng, rng.sample(pool, 2) + fresh[: rng.randint(1, 2)])]
        else:  # mostly false
            extra = [LinAtom(LinExpr.number(rng.randint(0, 3)), rng.choice([Rel.EQ, Rel.LT]),
                             LinExpr.number(0))]
        extras.append(tuple(extra if kind == "eqs" else extra[: rng.randint(1, len(extra))]))
    return base_kind, kind, tuple(base), extras


def _build(coeffs, k):
    return LinExpr.build({V(n): c for n, c in coeffs.items()}, k)


# base and extra whose witness depends on the base's NE row coming first
_NE_ORDER_CASE = (
    (
        LinAtom(_build({"W": -1, "Y": 3}, -5), Rel.GE, _build({"Y": 3, "Z": 2}, 4)),
        LinAtom(_build({"Z": 1}, -1), Rel.NE, _build({"W": -2, "X": 3, "Y": 1, "Z": 2}, -5)),
        LinAtom(_build({}, -1), Rel.LT, _build({"W": 1, "X": -2, "Z": 3}, 1)),
    ),
    [(LinAtom(_build({"Z": 3}, -5), Rel.NE, _build({"X": 2}, -2)),)],
)


def _snapshot(r):
    return repr((r.vars, r.rows, r.work, r.defs, r.unsat))


def test_extending_a_reduced_base_matches_a_query_from_scratch():
    """_extend of a reduced base gives the verdict and the point of the
    whole conjunction decided from scratch towards 0, for every kind of
    extra, and leaves the base as it found it: one base answers several
    extras the same in either order. Where it decides, the conjunction's
    own decision agrees."""
    rng = random.Random(48)
    seen = collections.Counter()
    deadline = time.monotonic() + 6.0
    fixed = [("plain", "ne") + _NE_ORDER_CASE]
    cases = 0
    for base_kind, kind, base, extras in itertools.chain(
        fixed, iter(lambda: _extension_case(rng), None)
    ):
        if cases >= 600 or time.monotonic() > deadline:
            break
        reduced = lia.reduction(ConstraintConj(base))
        before = _snapshot(reduced)
        forward = [lia._extend(reduced, e) for e in extras]
        backward = [lia._extend(reduced, e) for e in reversed(extras)][::-1]
        assert _snapshot(reduced) == before, base
        for extra, got, again in zip(extras, forward, backward):
            want = _reference_sat(base + extra)
            assert got == want == again, (base, extra)
            if want[0] is not Verdict.UNKNOWN:
                assert is_satisfiable(ConstraintConj(base + extra)) is want[0], (base, extra)
            seen.update((base_kind, kind, want[0].value))
            seen["probed"] += len(lia._lower(base + extra).vars) <= lia._PROBE_MAX_VARS
        cases += 1
    assert cases >= 100
    for key in ("plain", "refuted", "ground_false", "many_ne", "le", "eq", "eqs", "new_vars",
                "ground", "proved", "disproved", "unknown", "probed"):
        assert seen[key] >= 5, (key, seen)


def test_unknown_extension_goes_to_the_resolver_as_the_whole_conjunction():
    # seven disequalities over seven variables: beyond the case-split cap,
    # and beyond the probe
    c = conj("A =\\= B, B =\\= C, C =\\= D, D =\\= E, E =\\= F, F =\\= G, G =\\= A")
    atom = LinAtom(LinExpr.of(V("A")), Rel.LE, LinExpr.number(100))
    (na,) = negate_linatom(atom)
    full = ConstraintConj(c.atoms + (na,))
    asked = []

    def resolver(q):
        asked.append(q)
        return Verdict.DISPROVED

    install_unknown_resolver(None)
    r = lia.reduction(c)
    assert lia.entails_atom(c, atom, reduced=r) is Verdict.UNKNOWN
    install_unknown_resolver(resolver)
    try:
        assert lia.entails_atom(c, atom, reduced=r) is Verdict.PROVED
        assert asked == [full]
        # the extension's answer stays with the query: c's reduction holds no decision
        assert r.decision is None
        assert lia.implies_quant_disj(qd_of(c), qd_of(ConstraintConj((atom,)))) is Verdict.PROVED
        assert asked == [full, full]
        # c itself is Unknown too; the resolver's answer is memoised on c's reduction
        assert is_satisfiable(c, reduced=r) is Verdict.DISPROVED
        assert asked == [full, full, c] and r.decision == (Verdict.DISPROVED, ())
        assert is_satisfiable(c, reduced=r) is Verdict.DISPROVED
        assert asked == [full, full, c]
    finally:
        install_unknown_resolver(None)


def test_a_point_that_breaks_one_row_is_no_witness(monkeypatch):
    """A back-substituted point is checked on every row as lowered: one that
    breaks a single LE, EQ or NE row is a point neither of the decision,
    towards any of its targets, nor of an extension query. Each breaking
    point leaves its row's sum on the side that a misread relation would
    accept (an EQ row at -3, an LE row at +3, an NE row at 0)."""
    # X >= 10 keeps the box probe from answering; no unit coefficient, no Gauss
    c = conj("X >= 10, 2*X + 3*Y = 50, Z =\\= 7")
    index = lia.reduction(c).index
    good = {"X": 10, "Y": 10, "Z": 0}
    broken = {
        "LE": {"X": 7, "Y": 12, "Z": 0},
        "EQ": {"X": 10, "Y": 9, "Z": 0},
        "NE": {"X": 10, "Y": 10, "Z": 7},
    }
    for point, breaks in [(good, None)] + [(p, rel) for rel, p in broken.items()]:
        at = {index[V(n)]: value for n, value in point.items()}
        monkeypatch.setattr(lia, "_backsubst_witness", lambda *args, at=at: dict(at))
        held = [boxes.eval_atom(a, {V(n): x for n, x in point.items()}) for a in c.lin_atoms()]
        assert held.count(False) == (0 if breaks is None else 1), breaks
        r = lia.reduction(c)
        got = satisfiable_with_witness(c, reduced=r)
        extended = lia._extend(lia._EMPTY, c.lin_atoms())
        if breaks is None:
            want = {V(n): x for n, x in point.items()}
            # the two generic targets have their point; 0 is not aimed at
            assert got == (Verdict.PROVED, want) and r.decision == (Verdict.PROVED, (want,) * 2)
            assert extended == (Verdict.PROVED, (want,))
        else:
            assert got == (Verdict.UNKNOWN, None) and r.decision == (Verdict.UNKNOWN, ()), breaks
            assert extended == (Verdict.UNKNOWN, ()), breaks


def test_entails_atom_memoises_proved_and_disproved_on_the_reduction(monkeypatch):
    """A second entails_atom of one atom on one reduction asks no query for
    a Proved or a Disproved answer; an Unknown is asked again."""
    calls = []
    refute = lia._refute_each

    def counting(*args):
        calls.append(args)
        return refute(*args)

    monkeypatch.setattr(lia, "_refute_each", counting)
    c = conj("X >= 0, Y >= X")
    r = lia.reduction(c)
    for text, want in (("Y >= 0", Verdict.PROVED), ("Y >= 1", Verdict.DISPROVED)):
        (atom,) = conj(text).lin_atoms()
        calls.clear()
        assert lia.entails_atom(c, atom, reduced=r) is want
        assert len(calls) == 1, text
        assert lia.entails_atom(c, atom, reduced=r) is want
        assert len(calls) == 1 and r.entailed[atom] is want, text
        # another reduction of c has its own memo
        assert lia.entails_atom(c, atom) is want and len(calls) == 2, text
    # seven disequalities: beyond the case-split cap and the probe
    c = conj("A =\\= B, B =\\= C, C =\\= D, D =\\= E, E =\\= F, F =\\= G, G =\\= A")
    (atom,) = conj("A =< 100").lin_atoms()
    r = lia.reduction(c)
    calls.clear()
    assert lia.entails_atom(c, atom, reduced=r) is Verdict.UNKNOWN
    assert lia.entails_atom(c, atom, reduced=r) is Verdict.UNKNOWN
    assert len(calls) == 2 and r.entailed == {}


def test_entails_atom_settles_an_atom_of_the_constraint_and_array_atoms(monkeypatch):
    """An atom that c holds is Proved, an array atom or a linear one, with
    or without the caller's reduction, and a linear one asks no query; an
    array atom that c does not hold is Unknown."""
    def no_query(*args):
        raise AssertionError("an atom of the constraint was asked")

    c = conj("read(A,I,V), X = V, X >= 1")
    read, _, bound = c.atoms
    monkeypatch.setattr(lia, "_refute_each", no_query)
    for reduced in (None, lia.reduction(c)):
        assert lia.entails_atom(c, read, reduced=reduced) is Verdict.PROVED
        assert lia.entails_atom(c, bound, reduced=reduced) is Verdict.PROVED
        other = ReadAtom(read.arr, read.idx, Var("W"))
        assert lia.entails_atom(c, other, reduced=reduced) is Verdict.UNKNOWN


_ARRAYS = [Var("A", Sort.ARRAY), Var("B", Sort.ARRAY)]


def _chain_case(rng):
    """(kind, atoms, i, j): a random conjunction with array atoms mixed in,
    cut into a prefix atoms[:i], a middle atoms[i:j] and a suffix atoms[j:]."""
    kind = rng.choice(["plain", "plain", "ground_false_prefix", "refuted_middle", "probe",
                       "many_ne"])
    pool = _POOL[:3] if kind == "probe" else _POOL[: rng.choice([3, 4, 6, 8])]
    parts = []
    for _ in range(3):
        part = [_random_atom(rng, pool) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):  # Gauss pivots
            u, w = rng.sample(pool, 2)
            rhs = LinExpr.build({w: rng.choice([1, 2])}, rng.randint(-2, 2))
            part.append(LinAtom(LinExpr.of(u), Rel.EQ, rhs))
        parts.append(part)
    prefix, middle, suffix = parts
    if kind == "ground_false_prefix":
        prefix.append(false_atom())
    elif kind == "refuted_middle":  # u = w and u = w + 1: Gauss finds 0 = 1
        u, w = rng.sample(pool, 2)
        middle += [LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.of(w)),
                   LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.build({w: 1}, 1))]
    elif kind == "many_ne":
        ring = _POOL[: lia._PROBE_MAX_VARS + 2]
        suffix += [LinAtom(LinExpr.of(a), Rel.NE, LinExpr.of(b)) for a, b in zip(ring, ring[1:])]
    for part in parts:
        rng.shuffle(part)
        for _ in range(rng.randint(0, 1)):
            arr = ReadAtom(rng.choice(_ARRAYS), rng.choice(pool), rng.choice(pool))
            part.insert(rng.randint(0, len(part)), arr)
    atoms = tuple(prefix + middle + suffix)
    return kind, atoms, len(prefix), len(prefix) + len(middle)


def test_growing_a_chain_of_prefixes_matches_a_query_from_scratch():
    """Reduce a prefix, grow it by a middle, decide the suffix: the verdict
    and the points are those of the whole conjunction decided from scratch,
    decided again or read from the memo of its reduction, whether the
    suffix is decided as the conjunction's decision or as an extension
    query, and no reduction on the way changes."""
    rng = random.Random(90)
    seen = collections.Counter()
    deadline = time.monotonic() + 6.0
    cases = 0
    while cases < 500 and time.monotonic() < deadline:
        kind, atoms, i, j = _chain_case(rng)
        c = ConstraintConj(atoms)
        decision = _reference_sat(c.lin_atoms(), (1, -1, 0))
        want = _first(decision)
        assert satisfiable_with_witness(c) == want, atoms
        head, mid = ConstraintConj(atoms[:i]), ConstraintConj(atoms[:j])
        r_head = lia.reduction(head)
        before_head = _snapshot(r_head)
        r_mid = lia._grow(r_head, mid.lin_atoms()[len(r_head.atoms):])
        before_mid = _snapshot(r_mid)
        assert _snapshot(lia.reduction(mid, base=r_head)) == before_mid
        scratch = lia.reduction(mid)
        assert r_mid.unsat == scratch.unsat
        if not r_mid.unsat:
            assert before_mid == _snapshot(scratch), atoms
        extended = lia._extend(r_mid, c.lin_atoms()[len(r_mid.atoms):])
        assert extended == _reference_sat(c.lin_atoms()), atoms
        for base in (r_head, r_mid, None):
            r = lia.reduction(c, base=base)
            got = satisfiable_with_witness(c, reduced=r)
            assert got == want, atoms
            if got[1] is not None:
                got[1].clear()  # the caller's copy, not the memo
            assert satisfiable_with_witness(c, reduced=r) == want  # from the memo
            assert r.decision == decision, atoms
        assert r_head.decision is None and r_mid.decision is None
        assert _snapshot(r_head) == before_head and _snapshot(r_mid) == before_mid
        seen.update((kind, want[0].value))
        seen["array"] += len(c.lin_atoms()) < len(atoms)
        seen["probed"] += len(r_mid.vars) <= lia._PROBE_MAX_VARS and not r_mid.unsat
        cases += 1
    assert cases >= 100
    for key in ("plain", "ground_false_prefix", "refuted_middle", "probe", "many_ne",
                "proved", "disproved", "unknown", "array", "probed"):
        assert seen[key] >= 5, (key, seen)


def test_a_reduction_of_no_prefix_is_refused():
    c = conj("X >= 0, Y >= X, X =< 3")
    for other in (conj("Y >= X"), conj("X >= 0, Y >= X, X =< 3, Y =< 9"), conj("X >= 1")):
        r = lia.reduction(other)
        with pytest.raises(ValueError):
            satisfiable_with_witness(c, reduced=r)
        with pytest.raises(ValueError):
            is_satisfiable(c, reduced=r)
        with pytest.raises(ValueError):
            lia.reduction(c, base=r)
        # the kernel's recheck of a deletion, on the clause with constraint c
        st = TransformationState(parse_program("p(X,Y) :- X >= 0, Y >= X, X =< 3."))
        with pytest.raises(ValueError):
            st.apply_replace([1], [], r)
    # a query takes c's own reduction; one of a prefix grows into it
    prefix = lia.reduction(conj("X >= 0"))
    with pytest.raises(ValueError):
        is_satisfiable(c, reduced=prefix)
    assert is_satisfiable(c, reduced=lia.reduction(c, base=prefix)) is Verdict.PROVED


def _ref_branch_witness(r, targets):
    """Fourier-Motzkin branch search as the two procedures below ran it:
    every target without a point is back-substituted on each feasible
    branch, up to the first point for targets[0]."""
    points = [None] * len(targets)
    ne = [row for row in r.work if row[2] is Rel.NE]
    if 2 ** len(ne) > lia.NEQ_SPLIT_CAP:
        return Verdict.UNKNOWN, points
    branches = lia._le_branches(r.work, ne)
    residual = sorted({i for rows in branches for coeffs, _ in rows for i in coeffs})
    undecided = False
    for rows in branches:
        try:
            _, stages, _ = lia._fm_eliminate(rows, residual)
        except lia._Unsat:
            continue
        except lia._Overflow:
            undecided = True
            break
        undecided = True
        for t, target in enumerate(targets):
            if points[t] is None:
                envi = lia._backsubst_witness(stages, target)
                if envi is not None:
                    lia._apply_gauss_defs(r.defs, envi)
                    if lia._rows_hold(r.rows, envi):
                        points[t] = {v: envi[i] for i, v in enumerate(r.vars)}
        if points[0] is not None:
            break
    if any(p is not None for p in points):
        return Verdict.PROVED, points
    return (Verdict.UNKNOWN if undecided else Verdict.DISPROVED), points


def _ref_zero_decision(r):
    """Satisfiability as is_satisfiable decided it before one decision
    served eq_set too: the box probe, then Fourier-Motzkin towards 0."""
    if r.unsat:
        return Verdict.DISPROVED, None
    if len(r.vars) <= lia._PROBE_MAX_VARS:
        w = boxes.find_solution(boxes.BoxSystem(r.vars, r.rows), -2, 2)
        if w is not None:
            return Verdict.PROVED, w
    verdict, (w,) = _ref_branch_witness(r, [[0] * len(r.vars)])
    return verdict, w


def _ref_generic_decision(r):
    """The strategy's R4 decision of a mixed clause as it was made apart
    from is_satisfiable: Fourier-Motzkin towards the two generic targets,
    an Unknown decided by `_ref_zero_decision`; with the points it kept."""
    if r.unsat:
        return Verdict.DISPROVED, ()
    n = len(r.vars)
    targets = [[sign * 1000 * (i + 1) for i in range(n)] for sign in (1, -1)]
    verdict, points = _ref_branch_witness(r, targets)
    if verdict is Verdict.UNKNOWN:
        verdict = _ref_zero_decision(r)[0]
    return verdict, tuple(w for w in points if w is not None)


def test_one_decision_keeps_every_verdict_of_the_two_it_replaces():
    """Differential test against the two procedures that decided a
    reduction before (`_ref_zero_decision`, `_ref_generic_decision`), on
    conjunctions decided from a reduction grown from a prefix's, as the
    strategy decides them, and on a base with each extra of an extension
    case: the one decision answers Disproved exactly when they did, keeps
    each of their Proved answers, and may turn only an Unknown into Proved.
    Every point it keeps satisfies the conjunction. An extension query
    still answers as `_ref_zero_decision` did, point included."""
    rng = random.Random(91)
    seen = collections.Counter()
    install_unknown_resolver(None)
    deadline = time.monotonic() + 4.0

    def check(c, r, tag):
        old_sat = _ref_zero_decision(lia.reduction(c))[0]
        old_generic = _ref_generic_decision(lia.reduction(c))[0]
        got = is_satisfiable(c, reduced=r)
        for old in (old_sat, old_generic):
            assert (got is Verdict.DISPROVED) == (old is Verdict.DISPROVED), c
            assert old is not Verdict.PROVED or got is Verdict.PROVED, c
        verdict, points = r.decision
        assert verdict is got and (points != ()) == (got is Verdict.PROVED), c
        for w in points:
            assert all(boxes.eval_atom(a, w) for a in c.lin_atoms()), c
        seen.update((tag, got.value))
        seen["wide"] += len(r.vars) > lia._PROBE_MAX_VARS
        seen["several points"] += len(points) > 1

    cases = 0
    while cases < 400 and time.monotonic() < deadline:
        kind, atoms, _, j = _chain_case(rng)
        c = ConstraintConj(atoms)
        check(c, lia.reduction(c, base=lia.reduction(ConstraintConj(atoms[:j]))), kind)
        base_kind, _, base, extras = _extension_case(rng)
        reduced = lia.reduction(ConstraintConj(base))
        for extra in extras:
            c = ConstraintConj(base + extra)
            assert _first(lia._extend(reduced, extra)) == _ref_zero_decision(lia.reduction(c)), c
            check(c, lia.reduction(c, base=reduced), base_kind)
        cases += 1
    assert cases >= 100
    for key in ("plain", "ground_false_prefix", "refuted_middle", "probe", "many_ne", "refuted",
                "ground_false", "proved", "disproved", "unknown", "wide", "several points"):
        assert seen[key] >= 5, (key, seen)


def test_eq_set_on_a_decided_reduction_runs_no_further_elimination(monkeypatch):
    """eq_set reads the points of the decision that is_satisfiable left on
    the reduction: it runs no Fourier-Motzkin of its own when every pair is
    separated by a point or settled by Gauss."""
    runs = []
    eliminate = lia._fm_eliminate

    def counted(*args):
        runs.append(args)
        return eliminate(*args)

    monkeypatch.setattr(lia, "_fm_eliminate", counted)
    # X >= 10 keeps the box probe from answering; Z = X is a Gauss definition
    d = conj("X >= 10, Y >= X + 1, Z = X, W =< Y")
    a, b = Atom("p", (V("X"), V("W"))), Atom("q", (V("Y"), V("Z")))
    r = lia.reduction(d)
    assert is_satisfiable(d, reduced=r) is Verdict.PROVED
    assert len(runs) == 1 and len(r.decision[1]) == 2
    runs.clear()
    assert eq_set(d, a, b, reduced=r) == ((V("X"), V("Z")),)
    assert runs == []


def _refute_negations(c, atom):
    """for-all(c -> atom) with one `_extend` of c's reduction per negation
    of the atom, and nothing settled before."""
    base = lia.reduction(c)
    verdict = Verdict.PROVED
    for na in negate_linatom(atom):
        got, _ = lia._extend(base, [na])
        if got is Verdict.PROVED:
            return Verdict.DISPROVED
        if got is Verdict.UNKNOWN:
            verdict = Verdict.UNKNOWN
    return verdict


def test_entails_atom_with_a_reduction_matches_the_queries():
    """entails_atom settles an unsatisfiable reduction, a Disproved decision
    memoised on it and Gauss-ground atoms without a query, and otherwise asks
    its queries on the reduction, the caller's or its own: it answers as
    asking every negation query does."""
    rng = random.Random(92)
    seen = collections.Counter()
    deadline = time.monotonic() + 2.0
    cases = 0
    while cases < 400 and time.monotonic() < deadline:
        kind, atoms, _, _ = _chain_case(rng)
        pool = sorted({v for a in atoms for v in a.vars() if v.sort is Sort.INT},
                      key=lambda v: v.name)
        if len(pool) < 2:
            continue
        x, y = rng.sample(pool, 2)
        shifted = LinExpr.build({y: 1}, rng.randint(-1, 1))
        atom = rng.choice([
            LinAtom(LinExpr.of(x), Rel.EQ, LinExpr.of(y)),
            LinAtom(LinExpr.of(x), rng.choice([Rel.EQ, Rel.LE, Rel.GE]), shifted),
            _random_atom(rng, pool),
        ])
        if rng.random() < 0.3:  # a Gauss pivot that can make the atom's row ground
            atoms += (LinAtom(LinExpr.of(x), Rel.EQ, shifted),)
        c = ConstraintConj(atoms)
        want = _refute_negations(c, atom)
        r = lia.reduction(c)
        if cases % 2:  # decided first, as the strategy decides a clause
            seen["decided"] += is_satisfiable(c, reduced=r) is Verdict.DISPROVED
        assert lia.entails_atom(c, atom) is want, (atoms, atom)
        assert lia.entails_atom(c, atom, reduced=r) is want, (atoms, atom)
        seen.update((kind, want.value))
        seen["ground"] += not r.unsat and bool(lia._entailed_atoms(r, (atom,)))
        cases += 1
    assert cases >= 100
    for key in ("plain", "refuted_middle", "many_ne", "proved", "disproved", "ground",
                "decided"):
        assert seen[key] >= 5, (key, seen)
    with pytest.raises(ValueError):
        lia.entails_atom(conj("X = Y"), LinAtom(LinExpr.of(V("X")), Rel.EQ, LinExpr.of(V("Y"))),
                         reduced=lia.reduction(conj("X = Y, Y = 0")))


def test_lia_keeps_no_answer_between_operations():
    """After an hl1 transform and an hl1 model check, lia holds no mutable
    container at module level, and its shared empty reduction no memo: the
    answers lived on the reductions of each operation and went with them."""
    iterate_pairing(corpus.load("hl1"), [], PairingConfig(iterate=True))
    prog, sigma, _ = load_case("hl1.transported")
    assert check_model(prog, sigma).overall is Verdict.PROVED
    held = [name for name, value in vars(lia).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert held == []
    assert lia._EMPTY.decision is None
    assert lia._EMPTY.entailed == {}


def test_no_reduction_outlives_its_operation(monkeypatch):
    """Every reduction that `_grow` and `_lower` build during an hl1
    transform and an hl1 model and tightness check is freed once they
    return: no answer is memoised on a value that outlives the run."""
    from chcpair import check_tight

    refs = []
    for name in ("_grow", "_lower"):
        def keeping(*args, _build=getattr(lia, name), **kwargs):
            r = _build(*args, **kwargs)
            refs.append(weakref.ref(r))
            return r

        monkeypatch.setattr(lia, name, keeping)
    iterate_pairing(corpus.load("hl1"), [], PairingConfig(iterate=True))
    transformed = len(refs)
    prog, sigma, defs = load_case("hl1.transported")
    assert check_model(prog, sigma).overall is Verdict.PROVED
    assert check_tight(defs, sigma) is Verdict.PROVED
    assert transformed > 100 and len(refs) > transformed
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# --- implications between quantified disjunctions ---------------------------

def _implies_reference(lhs, rhs):
    """for-all(lhs -> rhs) with one `_extend` of the antecedent disjunct's
    reduction per choice of a negated atom from each consequent disjunct,
    the cap applied to the choices of each antecedent disjunct."""
    taken = {v.name for v in lhs.free_vars()} | {v.name for v in rhs.free_vars()}
    lhs = lia.qd_rename_exists_fresh(lhs, taken)
    rdisj, r_exact = lia._flatten_exists(rhs)
    saw_unknown = not r_exact
    for phi in lhs.disjuncts:
        if any(psi.is_true() for psi in rdisj):
            continue
        choices = [[n for a in psi.lin_atoms() for n in negate_linatom(a)] for psi in rdisj]
        if math.prod(len(alts) for alts in choices) > lia.DNF_CAP:
            saw_unknown = True
            continue
        base = lia.reduction(phi)
        for extra in itertools.product(*choices):
            verdict, _ = lia._extend(base, extra)
            if verdict is Verdict.PROVED:
                return Verdict.DISPROVED
            saw_unknown = saw_unknown or verdict is Verdict.UNKNOWN
    return Verdict.UNKNOWN if saw_unknown else Verdict.PROVED


def _equiv_reference(lhs, rhs):
    a = _implies_reference(lhs, rhs)
    if a is Verdict.DISPROVED:
        return a
    b = _implies_reference(rhs, lhs)
    if b is not Verdict.PROVED:
        return b
    return a


def _unit_equality(rng, pool):
    """u = a*w + k with a unit u, or u = k: a Gauss pivot."""
    u = rng.choice(pool)
    others = [v for v in pool if v != u]
    coeffs = {rng.choice(others): rng.choice([1, 2, -1])} if rng.random() < 0.8 else {}
    return LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.build(coeffs, rng.randint(-2, 2)))


_OUTSIDE = [V("N1"), V("N2")]
_BOUND = V("E")


def _implication_case(rng):
    """(tags, lhs, rhs): an antecedent whose disjuncts have unit equalities,
    some unsatisfiable, and a consequent whose atoms are the antecedent's,
    ground and mostly false, over variables outside it, random, or under an
    existential prefix; some have more negation choices than the cap."""
    pool = _POOL[: rng.randint(2, 7)]
    tags = set()
    phis = []
    for _ in range(rng.randint(1, 3)):
        atoms = [_unit_equality(rng, pool) for _ in range(rng.randint(1, 3))]
        atoms += [_random_atom(rng, pool) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.05:
            tags.add("unsat_phi")
            atoms.append(false_atom())
        elif rng.random() < 0.15:  # u = w and u = w + 1: Gauss finds 0 = 1
            tags.add("unsat_phi")
            u, w = rng.sample(pool, 2)
            atoms += [LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.of(w)),
                      LinAtom(LinExpr.of(u), Rel.EQ, LinExpr.build({w: 1}, 1))]
        rng.shuffle(atoms)
        phis.append(ConstraintConj(tuple(atoms)))
    if rng.random() < 0.05:
        tags.add("cap")
        psis = [
            ConstraintConj(tuple(_unit_equality(rng, pool) for _ in range(2))) for _ in range(6)
        ]
        return tags, QuantDisj((), tuple(phis)), QuantDisj((), tuple(psis))
    psis = []
    exists = ()
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["reuse", "reuse", "relaxed", "ground", "outside", "random",
                               "exists"])
            tags.add(kind)
            if kind == "reuse":
                atoms.append(rng.choice(rng.choice(phis).atoms))
            elif kind == "relaxed":  # entailed when phi's atom is an equality
                a = rng.choice(rng.choice(phis).atoms)
                atoms.append(LinAtom(a.lhs, rng.choice([Rel.LE, Rel.GE, a.rel]), a.rhs))
            elif kind == "ground":
                atoms.append(LinAtom(LinExpr.number(rng.randint(0, 3)),
                                     rng.choice([Rel.EQ, Rel.LT, Rel.NE]), LinExpr.number(0)))
            elif kind == "outside":
                atoms.append(_random_atom(rng, rng.sample(pool, 1) + _OUTSIDE))
            elif kind == "random":
                atoms.append(_random_atom(rng, pool))
            else:
                exists = (_BOUND,)
                rhs = LinExpr.build({rng.choice(pool): 1}, rng.randint(-1, 1))
                atoms.append(LinAtom(LinExpr.build({_BOUND: rng.choice([1, 2])}), Rel.EQ, rhs))
        psis.append(ConstraintConj(tuple(atoms)))
    return tags, QuantDisj((), tuple(phis)), QuantDisj(exists, tuple(psis))


# an unsatisfiable antecedent and more than DNF_CAP choices: Unknown,
# although every choice would be refuted
_UNSAT_PAST_THE_CAP = (
    {"cap", "unsat_phi", "fixed"},
    qd_of(conj("X = Y, X = Y + 1")),
    QuantDisj((), tuple(conj(f"X = {k}, Y = {k}") for k in range(6))),
)


def test_implications_match_one_query_per_negation_choice():
    """implies_quant_disj and equiv_quant_disj give the verdicts of asking
    every choice of negated consequent atoms, under the cap, through
    `_extend`."""
    rng = random.Random(113)
    seen = collections.Counter()
    deadline = time.monotonic() + 1.5
    cases = 0
    install_unknown_resolver(None)
    for tags, lhs, rhs in itertools.chain(
        [_UNSAT_PAST_THE_CAP], iter(lambda: _implication_case(rng), None)
    ):
        # the deadline ends the draw only past the floor of 200 cases
        if cases >= 3000 or (cases >= 200 and time.monotonic() > deadline):
            break
        got = lia.implies_quant_disj(lhs, rhs)
        assert got is _implies_reference(lhs, rhs), (lhs, rhs)
        assert lia.equiv_quant_disj(lhs, rhs) is _equiv_reference(lhs, rhs), (lhs, rhs)
        seen.update(tags)
        seen[got.value] += 1
        if tags >= {"cap", "unsat_phi"}:
            assert got is Verdict.UNKNOWN
            seen["unsat_past_the_cap"] += 1
        cases += 1
    assert cases >= 200
    for key in ("unsat_phi", "cap", "reuse", "relaxed", "ground", "outside", "random", "exists",
                "proved", "disproved", "unknown"):
        assert seen[key] >= 5, (key, seen)
    assert seen["unsat_past_the_cap"] >= 1 and seen["fixed"] == 1


# --- renaming existential prefixes apart -------------------------------------

def _qd_subst_reference(q, theta):
    """qd_subst collecting the free names and theta's images on every call,
    with or without a prefix, and renaming the prefix variables that theta
    maps or that are among its images."""
    image = set(theta.values())
    taken = {v.name for v in image} | {v.name for d in q.disjuncts for v in d.vars()}
    full = dict(theta)
    for ev in q.exists:
        full[ev] = ev
        if ev in image or ev in theta:
            nn = fresh_name(ev.name, taken | {ev.name})
            taken.add(nn)
            full[ev] = Var(nn, ev.sort)
    return QuantDisj(
        tuple(full[ev] for ev in q.exists), tuple(d.subst(full) for d in q.disjuncts), q.exact
    )


def _qd_conjoin_reference(parts, cap=lia.DNF_CAP):
    """qd_conjoin renaming every part's prefix apart from all parts' free
    names, with or without a prefix."""
    taken = {v.name for q in parts for v in q.free_vars()}
    renamed = [lia.qd_rename_exists_fresh(q, taken) for q in parts]
    if math.prod(len(q.disjuncts) for q in renamed) > cap:
        return None
    disjuncts = tuple(
        ConstraintConj(tuple(a for d in combo for a in d.atoms))
        for combo in itertools.product(*(q.disjuncts for q in renamed))
    )
    return QuantDisj(
        tuple(v for q in renamed for v in q.exists), disjuncts, all(q.exact for q in renamed)
    )


# E and E_1 are both prefix and free names: fresh names must step past both
_PREFIX_POOL = [V(n) for n in ("X", "Y", "Z", "E", "E_1")]


def _prefixed_qd(rng, tags):
    """A quantified disjunction over _PREFIX_POOL, with no prefix half the
    time; a prefix variable may be missing from the disjuncts, and its name
    may be free in another formula of the case."""
    exists = ()
    if rng.random() < 0.5:
        exists = tuple(rng.sample(_PREFIX_POOL, rng.randint(1, 2)))
        tags.add("prefix")
    disjuncts = tuple(
        ConstraintConj(
            tuple(_random_atom(rng, rng.sample(_PREFIX_POOL, 2)) for _ in range(rng.randint(1, 2)))
        )
        for _ in range(rng.randint(1, 2))
    )
    return QuantDisj(exists, disjuncts, rng.random() < 0.9)


def _same(got, want):
    return got == want and (got is None or got.exact == want.exact)


def test_renaming_only_with_a_prefix_matches_renaming_always(monkeypatch):
    """qd_subst, qd_conjoin, implies_quant_disj and equiv_quant_disj give
    what they give when every call collects names and renames the prefixes
    apart, on formulas with and without prefixes whose names clash with
    free names and with theta's images. qd_conjoin runs under a cap of 2
    as well as under DNF_CAP, so that small cases reach the cap."""
    rng = random.Random(14)
    seen = collections.Counter()
    deadline = time.monotonic() + 1.5
    install_unknown_resolver(None)
    cases = 0
    # the deadline ends the draw only past the floor of 200 cases
    while cases < 2000 and (cases < 200 or time.monotonic() < deadline):
        tags = set()
        q = _prefixed_qd(rng, tags)
        domain = rng.sample(_PREFIX_POOL, rng.randint(0, 3))
        theta = {v: rng.choice(_PREFIX_POOL) for v in domain}
        if set(q.exists) & (set(domain) | set(theta.values())):
            tags.add("captured")
        assert _same(lia.qd_subst(q, theta), _qd_subst_reference(q, theta)), (q, theta)
        parts = [q] + [_prefixed_qd(rng, tags) for _ in range(rng.randint(0, 2))]
        cap = rng.choice([2, lia.DNF_CAP])
        with monkeypatch.context() as m:
            m.setattr(lia, "DNF_CAP", cap)
            got = lia.qd_conjoin(parts)
        assert _same(got, _qd_conjoin_reference(parts, cap)), parts
        if got is None:
            tags.add("cap")
        rhs = rng.choice([_prefixed_qd(rng, tags), q, lia.qd_subst(q, theta)])
        verdict = lia.implies_quant_disj(q, rhs)
        assert verdict is _implies_reference(q, rhs), (q, rhs)
        assert equiv_quant_disj(q, rhs) is _equiv_reference(q, rhs), (q, rhs)
        seen.update(tags)
        seen[verdict.value] += 1
        cases += 1
    assert cases >= 200
    for key in ("prefix", "captured", "cap", "proved", "disproved"):
        assert seen[key] >= 5, (key, seen)
