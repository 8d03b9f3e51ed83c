import gc
import random
import weakref

import pytest

from chcpair import (
    Atom,
    Program,
    QuantDisj,
    Var,
    bounded_lm,
    check_model,
    check_tight,
    parse_program,
    transport_definition,
    transport_unfold_inverse,
)
from chcpair.errors import ModelError, TransportError
from chcpair.lia import Verdict, equiv_quant_disj, qd_of, qd_true
from chcpair.models import ModelCheckResult, SymbolicInterpretation
from chcpair.oracle import OracleBudget
from chcpair import boxes, lia, models

from helpers import all_true_interpretation, conj, random_definite_program
from test_model_goldens import load_case

V = Var


def sigma_su():
    return SymbolicInterpretation(
        {
            "su": (
                (V("M"), V("R"), V("Sum")),
                QuantDisj((), (conj("Sum >= M, Sum >= R"), conj("R < 0"))),
            )
        }
    )


def test_check_model_sum_upto(sum_upto):
    res = check_model(sum_upto, sigma_su())
    assert res.overall is Verdict.PROVED
    assert all(v is Verdict.PROVED for _, v in res.per_clause)


def test_check_model_degenerate_true_fails_goal(sum_upto):
    sigma = SymbolicInterpretation({"su": ((V("M"), V("R"), V("S")), qd_true())})
    res = check_model(sum_upto, sigma)
    assert res.overall is Verdict.DISPROVED
    goal_id = sum_upto.goals()[0].cid
    assert res.verdict_for(goal_id) is Verdict.DISPROVED


def test_check_model_p4():
    from chcpair import corpus

    p4 = corpus.load("sum_square_p4")
    params = tuple(V(n) for n in ("M", "R0", "Sum", "N", "S0", "Sqr"))
    sigma = SymbolicInterpretation(
        {
            "su_sq": (
                params,
                QuantDisj((), (conj("Sum =< Sqr"), conj("R0 > S0"), conj("M > N"))),
            ),
            "su": ((V("X"), V("R"), V("S")), qd_true()),
            "sq": ((V("K"), V("Y"), V("S0"), V("S")), qd_true()),
        }
    )
    assert check_model(p4, sigma).overall is Verdict.PROVED


def test_check_model_reports_defaulted_preds(sum_upto):
    res = check_model(sum_upto, SymbolicInterpretation({}))
    assert res.defaulted_preds == ("su",)


def test_check_model_arity_mismatch(sum_upto):
    sigma = SymbolicInterpretation({"su": ((V("A"),), qd_true())})
    with pytest.raises(ModelError):
        check_model(sum_upto, sigma)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SymbolicInterpretation({"p": ((V("X"), V("X")), qd_true())}),
         ModelError, "canonical parameters must be distinct"),
        (lambda: SymbolicInterpretation({"p": ((V("X"),), qd_of(conj("Y = 1")))}),
         ModelError, r"free variables outside the parameters: \['Y'\]"),
        (lambda: ModelCheckResult(Verdict.PROVED, ((1, Verdict.PROVED),)).verdict_for(9),
         KeyError, "9"),
        (lambda: transport_definition(
            SymbolicInterpretation({}), parse_program("false :- X = 1.").clauses[0]),
         TransportError, "definitions have head atoms"),
        (lambda: transport_unfold_inverse(
            SymbolicInterpretation({}), "p", parse_program("q(X) :- X = 1.").clauses),
         TransportError, "must define the unfolded predicate"),
    ],
    ids=["repeated-parameter", "free-variable", "unknown-clause", "goal-as-definition",
         "clause-of-another-predicate"],
)
def test_model_entry_points_refuse_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_renaming_equivariance():
    sigma = sigma_su()
    a = sigma.instantiate(Atom("su", (V("A"), V("B"), V("C"))))
    b = sigma.instantiate(Atom("su", (V("X"), V("Y"), V("Z"))))
    back = {V("X"): V("A"), V("Y"): V("B"), V("Z"): V("C")}
    from chcpair.lia import qd_subst

    assert qd_subst(b, back) == a


def test_each_atom_is_instantiated_once_per_interpretation(monkeypatch):
    """On hl1's transported model, the model check and the tightness check
    substitute the formula of each distinct atom once (2,707 substitutions
    of 642 atoms on the certify cases before the memo), and every clause
    that holds an atom gets the same formula object."""
    prog, sigma, defs = load_case("hl1.transported")
    calls = []
    subst = models.qd_subst

    def counted(q, theta):
        calls.append(q)
        return subst(q, theta)

    monkeypatch.setattr(models, "qd_subst", counted)
    lia.install_unknown_resolver(None)
    assert check_model(prog, sigma).overall is Verdict.PROVED
    after_model = len(calls)
    assert check_tight(defs, sigma) is Verdict.PROVED
    atoms = [a for c in prog.clauses + defs.clauses for a in (c.head, *c.body) if a is not None]
    distinct = set(atoms)
    assert len(atoms) > 2 * len(distinct) and after_model > 0
    assert len(calls) <= len(distinct)
    done = len(calls)
    assert all(sigma.instantiate(a) is sigma.instantiate(Atom(a.pred, a.args)) for a in atoms)
    assert len(calls) == done


def test_the_instantiation_memo_dies_with_its_interpretation():
    """The formulas memoised by instantiate live on the interpretation and
    are freed with it: no module-level table keeps them."""
    prog, sigma, defs = load_case("hl1.transported")
    lia.install_unknown_resolver(None)
    assert check_model(prog, sigma).overall is Verdict.PROVED
    assert check_tight(defs, sigma) is Verdict.PROVED
    refs = [weakref.ref(sigma)] + [weakref.ref(q) for q in sigma._instances.values()]
    assert len(refs) > 100
    # a new interpretation starts with a memo of its own
    other = sigma.with_entry(*next((p, *sigma.entry(p)) for p in sigma.preds()))
    assert other._instances == {}
    del sigma, other
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# --- tightness ----------------------------------------------------------------

def test_tightness_fixtures():
    s = parse_program("p(X) :- q(X).")
    x = (V("X"),)
    sig1 = SymbolicInterpretation({"p": (x, qd_of(conj("X = 0"))), "q": (x, qd_of(conj("X = 0")))})
    sig2 = SymbolicInterpretation({"p": (x, qd_true()), "q": (x, qd_of(conj("X = 0")))})
    assert check_tight(s, sig1) is Verdict.PROVED
    assert check_tight(s, sig2) is Verdict.DISPROVED
    assert check_tight(Program([]), sig1) is Verdict.PROVED


def test_entailed_atoms_of_a_transported_model_ask_no_query(monkeypatch):
    """On hl1's transported model, nearly every consequent atom is ground and
    true under the Gauss definitions of the antecedent disjunct, so the
    checks ask few satisfiability queries of the rest (3,456 when every
    choice of negated atoms was asked)."""
    prog, sigma, defs = load_case("hl1.transported")
    calls = []
    extend = lia._extend

    def counted(base, extra):
        calls.append(extra)
        return extend(base, extra)

    monkeypatch.setattr(lia, "_extend", counted)
    lia.install_unknown_resolver(None)
    assert check_model(prog, sigma).overall is Verdict.PROVED
    assert check_tight(defs, sigma) is Verdict.PROVED
    assert len(calls) <= 20


def test_formulas_without_a_prefix_collect_no_variables(monkeypatch):
    """hl1's transported model has no existential prefix, so substituting,
    conjoining and implying its formulas renames nothing and collects few
    free variables (2,171 calls when every step collected them)."""
    prog, sigma, defs = load_case("hl1.transported")
    calls = []
    free_vars = QuantDisj.free_vars

    def counted(q):
        calls.append(q)
        return free_vars(q)

    monkeypatch.setattr(QuantDisj, "free_vars", counted)
    lia.install_unknown_resolver(None)
    assert check_model(prog, sigma).overall is Verdict.PROVED
    assert check_tight(defs, sigma) is Verdict.PROVED
    assert len(calls) <= 150


def test_checks_past_the_disjunct_cap_are_unknown(monkeypatch):
    # p has two disjuncts, so a body that instantiates it has two as well
    two = QuantDisj((), (conj("X = 0"), conj("X = 1")))
    prog = parse_program("r(X) :- X = 0.\nq(X) :- p(X).")
    (r, q) = prog.clauses
    sigma = SymbolicInterpretation({"p": ((V("X"),), two)})
    defs = parse_program("q(X) :- p(X).")
    tight = sigma.with_entry("q", (V("X"),), two)
    assert check_model(prog, sigma).overall is Verdict.PROVED
    assert check_tight(defs, tight) is Verdict.PROVED

    monkeypatch.setattr(lia, "DNF_CAP", 1)
    asked = []
    for name in ("implies_quant_disj", "equiv_quant_disj"):
        real = getattr(lia, name)
        monkeypatch.setattr(
            lia, name, lambda lhs, rhs, real=real: asked.append(lhs) or real(lhs, rhs)
        )
    res = check_model(prog, sigma)
    assert res.per_clause == ((r.cid, Verdict.PROVED), (q.cid, Verdict.UNKNOWN))
    assert res.overall is Verdict.UNKNOWN
    assert check_tight(defs, tight) is Verdict.UNKNOWN
    # the clause with two body disjuncts is settled before any implication
    assert [len(lhs.disjuncts) for lhs in asked] == [1]


def test_tightness_rejects_goals(sum_upto):
    with pytest.raises(ModelError):
        check_tight(sum_upto, sigma_su())


# --- transport across definition introduction ---------------------------------

def test_transport_definition_projects_away_existential():
    base = SymbolicInterpretation(
        {
            "su": ((V("X"), V("R"), V("S")), qd_true()),
            "sq": ((V("K"), V("Y"), V("S0"), V("S")), qd_true()),
        }
    )
    d7 = parse_program(
        "su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr)."
    ).clauses[0]
    out = transport_definition(base, d7)
    _, formula = out.entry("su_sq")
    assert equiv_quant_disj(formula, qd_true()) is Verdict.PROVED
    assert check_tight(Program([d7]), out) is Verdict.PROVED


def test_transport_definition_false_constraint():
    base = SymbolicInterpretation({"p": ((V("X"),), qd_true())})
    d = parse_program("n(A) :- A > 0, A < 0, p(A).").clauses[0]
    out = transport_definition(base, d)
    _, formula = out.entry("n")
    from chcpair.lia import qd_false

    assert equiv_quant_disj(formula, qd_false()) is Verdict.PROVED


def test_transport_definition_keeps_equalities():
    base = SymbolicInterpretation(
        {
            "ack1": ((V("M"), V("N"), V("A")), qd_true()),
            "ack2": ((V("M"), V("N"), V("A")), qd_true()),
        }
    )
    d = parse_program(
        "new1(M1,N1,A1,M2,N2,A2) :- M1 = M2, N1 = N2, ack1(M1,N1,A1), ack2(M2,N2,A2)."
    ).clauses[0]
    out = transport_definition(base, d)
    _, formula = out.entry("new1")
    assert equiv_quant_disj(formula, qd_of(conj("M1 = M2, N1 = N2"))) is Verdict.PROVED
    assert check_model(Program([d]), out).overall is Verdict.PROVED


def test_transport_definition_rejects_known_pred():
    base = SymbolicInterpretation({"p": ((V("X"),), qd_true())})
    d = parse_program("p(A) :- A = 0, p(A).").clauses[0]
    with pytest.raises(TransportError):
        transport_definition(base, d)


# --- inverse transport across unfolding ---------------------------------------

def test_unfold_inverse_no_clauses_gives_false():
    sigma = SymbolicInterpretation({"p": ((V("X"),), qd_true())})
    out = transport_unfold_inverse(sigma, "p", [])
    from chcpair.lia import qd_false

    _, formula = out.entry("p")
    assert equiv_quant_disj(formula, qd_false()) is Verdict.PROVED


def test_unfold_inverse_single_clause():
    sigma = SymbolicInterpretation({})
    c = parse_program("p(X) :- X = 0.").clauses[0]
    out = transport_unfold_inverse(sigma, "p", [c])
    _, formula = out.entry("p")
    assert equiv_quant_disj(formula, qd_of(conj("X = 0"))) is Verdict.PROVED


def test_unfold_inverse_rejects_self_unfolding():
    sigma = SymbolicInterpretation({})
    c = parse_program("p(X) :- X = 0.").clauses[0]
    with pytest.raises(TransportError):
        transport_unfold_inverse(sigma, "p", [c], unfolded_head="p")


def test_unfold_inverse_matches_bounded_least_model():
    # two-clause toy predicate over [0,3]: the rebuilt formula must hold for
    # exactly the derivable points
    text = """
p(X) :- X = 0.
p(X) :- X = Y + 1, Y >= 0, X =< 3, q(Y).
q(Y) :- Y = 2.
"""
    p = parse_program(text)
    sigma_after = SymbolicInterpretation({"q": ((V("Y"),), qd_of(conj("Y = 2")))})
    out = transport_unfold_inverse(sigma_after, "p", [c for c in p if c.head.pred == "p"])
    _, formula = out.entry("p")
    params = out.entry("p")[0]
    lm = bounded_lm(p, OracleBudget(4, 0, 3))
    derivable = {ga.args[0] for ga in lm if ga.pred == "p"}
    for x in range(0, 4):
        holds = any(
            boxes.eval_conj(d, {**{v: 0 for v in d.vars()}, params[0]: x})
            for d in formula.disjuncts
        ) if not formula.exists else None
        if holds is None:
            # quantified formula: decide by satisfiability
            from chcpair.lia import is_satisfiable
            from chcpair import ConstraintConj, LinAtom, LinExpr, Rel

            holds = any(
                is_satisfiable(
                    ConstraintConj(
                        d.atoms
                        + (LinAtom(LinExpr.of(params[0]), Rel.EQ, LinExpr.number(x)),)
                    )
                )
                is Verdict.PROVED
                for d in formula.disjuncts
            )
        assert holds == (x in derivable), f"x={x}"


# --- model soundness against the ground oracle ---------------------------------

def test_proved_models_overapproximate_bounded_lm():
    rng = random.Random(7)
    budget = OracleBudget(5, -4, 4)
    checked = 0
    for _ in range(30):
        p = random_definite_program(rng)
        sigma = all_true_interpretation(p)
        res = check_model(p, sigma)
        assert res.overall is Verdict.PROVED  # all-true models any definite set
        # a nontrivial candidate: first argument bounded below
        entries = {}
        for pred, sig in p.signatures.items():
            params = tuple(V(f"P{i}") for i in range(len(sig)))
            entries[pred] = (params, qd_of(conj("P0 >= -4").subst({V("P0"): params[0]})))
        cand = SymbolicInterpretation(entries)
        res2 = check_model(p, cand)
        if res2.overall is Verdict.PROVED:
            for ga in bounded_lm(p, budget):
                assert ga.args[0] >= -4
            checked += 1
    assert checked > 0
