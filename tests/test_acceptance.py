"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; any assertion failure marks the criterion as failed.
"""

import random
import time
from pathlib import Path

import pytest

from chcpair import (
    Atom,
    ConstraintConj,
    Found,
    NotWithinBudget,
    OracleBudget,
    Program,
    QuantDisj,
    SolveStatus,
    SolverConfig,
    Var,
    bounded_lm,
    check_all_defs_unfolded,
    check_model,
    check_tight,
    classify_sequence,
    corpus,
    emit_smtlib,
    equisat_probe,
    external_solve,
    false_derivable,
    parse_program,
    predicate_partition,
)
from chcpair import boxes
from chcpair.lia import Verdict, qd_true, satisfiable_with_witness
from chcpair.models import SymbolicInterpretation
from chcpair.pairing import PairingConfig, iterate_pairing, predicate_pairing
from chcpair.kernel import TransformationState

from helpers import (
    all_true_interpretation,
    assert_programs_equal,
    clauses_equivalent,
    conj,
    goal_of,
    random_definite_program,
    run_sum_square_script,
    transport_along_trace,
)

V = Var
GOLDEN = Path(__file__).parent / "golden"


def _report(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


def _run_ackermann():
    prog = corpus.load("ackermann")
    goal = goal_of(prog)
    q, r = predicate_partition(prog, "ackermann1", "ackermann2")
    return predicate_pairing(goal, q, r, PairingConfig())


def test_criterion_1_golden_ackermann_derivation():
    t0 = time.monotonic()
    res = _run_ackermann()
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"transformation took {elapsed:.2f}s"
    assert len(res.defs) == 2, f"expected 2 definitions, got {len(res.defs)}"
    assert_programs_equal(res.transf, corpus.load("ackermann_transf"))
    _report(1, f"golden derivation in {elapsed:.2f}s, 2 definitions")


def test_criterion_2_golden_selection_decisions():
    res = _run_ackermann()
    # the four-atom clause (two ack1, two ack2): the chosen pair shares the
    # clause head's first arguments and two equalities
    four = next(pc for pc in res.pair_log if len(pc.clause.body) == 4)
    head = four.clause.head.args
    assert four.atom_a.pred == "ack1" and four.atom_b.pred == "ack2"
    assert four.atom_a.args[0] == head[0]  # ack1(M1, Y1, Z1)
    assert four.atom_b.args[0] == head[3]  # ack2(M2, Y2, Z2)
    assert len(four.eq) == 2
    # the three-atom clause with one ack1 and two ack2 (N1 = 0, N2 /= 0):
    # the single-equality pair beats the zero-equality one
    three = next(
        pc
        for pc in res.pair_log
        if len(pc.clause.body) == 3
        and sum(a.pred == "ack2" for a in pc.clause.body) == 2
    )
    head = three.clause.head.args
    assert three.atom_a.args[2] == head[2]  # ack1(X1, Y1, A1)
    assert three.atom_b.args[2] == head[5]  # ack2(X2, Z3, A2)
    assert len(three.eq) == 1
    _report(2, "pair choices |Eq|=2 then |Eq|=1 as narrated")


def test_criterion_3_model_checking_sum_upto():
    prog = corpus.load("sum_upto")
    sigma = SymbolicInterpretation(
        {
            "su": (
                (V("M"), V("R"), V("Sum")),
                QuantDisj((), (conj("Sum >= M, Sum >= R"), conj("R < 0"))),
            )
        }
    )
    t0 = time.monotonic()
    res = check_model(prog, sigma)
    elapsed = time.monotonic() - t0
    assert res.overall is Verdict.PROVED
    assert elapsed < 0.1, f"check took {elapsed:.3f}s"
    degenerate = SymbolicInterpretation({"su": ((V("M"), V("R"), V("S")), qd_true())})
    res2 = check_model(prog, degenerate)
    goal_id = prog.goals()[0].cid
    assert res2.verdict_for(goal_id) is Verdict.DISPROVED
    _report(3, f"2VAR model proved in {elapsed * 1000:.1f}ms; true-model fails the goal")


def test_criterion_4_model_checking_p4():
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
    _report(4, "paired-predicate model of the transformed program proved")


def test_criterion_5_tightness_fixtures():
    s = parse_program("p(X) :- q(X).")
    x = (V("X"),)
    from chcpair.lia import qd_of

    sig1 = SymbolicInterpretation(
        {"p": (x, qd_of(conj("X = 0"))), "q": (x, qd_of(conj("X = 0")))}
    )
    sig2 = SymbolicInterpretation({"p": (x, qd_true()), "q": (x, qd_of(conj("X = 0")))})
    assert check_tight(s, sig1) is Verdict.PROVED
    assert check_tight(s, sig2) is Verdict.DISPROVED
    _report(5, "tightness fixtures proved/disproved")


def test_criterion_6_trace_classification():
    st = run_sum_square_script()
    ok, offenders = check_all_defs_unfolded(st.trace)
    assert ok and not offenders
    rep = classify_sequence(st.trace)
    assert rep.all_foldings_reversible is False
    _report(6, "scripted trace: defs unfolded, foldings not reversible")


def test_criterion_7_oracle_unsatisfiability_hl():
    hl = corpus.load("hl")
    budget = OracleBudget(6, 0, 3)
    before = false_derivable(hl, budget)
    assert isinstance(before, Found)
    res = iterate_pairing(hl, [], PairingConfig(iterate=True))
    after = false_derivable(res.transf, budget)
    assert isinstance(after, Found)
    rep = equisat_probe(hl, res.transf, budget)
    assert rep.agreement
    _report(7, "goal violation found before and after pairing")


def test_criterion_8a_engine_vs_enumeration():
    rng = random.Random(20240817)
    pool = [V(n) for n in ("X", "Y", "Z", "W")]
    from chcpair import LinAtom, LinExpr, Rel

    def rand_expr():
        chosen = rng.sample(pool, rng.randint(0, 4))
        return LinExpr.build(
            {v: rng.randint(-3, 3) for v in chosen}, rng.randint(-6, 6)
        )

    contradictions = 0
    proved = disproved = 0
    for _ in range(500):
        c = ConstraintConj(
            tuple(
                LinAtom(rand_expr(), rng.choice(list(Rel)), rand_expr())
                for _ in range(rng.randint(1, 4))
            )
        )
        verdict, witness = satisfiable_with_witness(c)
        sys_ = boxes.lower_conj(c)
        brute = boxes.find_solution(sys_, -6, 6)
        if verdict is Verdict.DISPROVED:
            disproved += 1
            if brute is not None:
                contradictions += 1
        elif verdict is Verdict.PROVED:
            proved += 1
            if not boxes.eval_conj(c, witness):
                contradictions += 1
    assert contradictions == 0
    assert proved and disproved
    _report(
        8,
        f"(a) 500 random conjunctions, {proved} proved / {disproved} disproved, "
        "zero contradictions",
    )


def test_criterion_8b_unfold_bounded_lm_cross_check():
    rng = random.Random(77)
    budget = OracleBudget(6, -4, 4)
    doubled = OracleBudget(12, -4, 4)
    done = 0
    while done < 100:
        p = random_definite_program(rng)
        st = TransformationState(p)
        candidates = [
            (c.cid, i) for c in st.clauses.values() for i in range(len(c.body))
        ]
        if not candidates:
            continue
        cid, pos = rng.choice(candidates)
        before_k = bounded_lm(p, budget)
        before_2k = bounded_lm(p, doubled)
        st.apply_unfold(cid, pos)
        after_k = bounded_lm(st.current, budget)
        after_2k = bounded_lm(st.current, doubled)
        assert before_k <= after_2k
        assert after_k <= before_2k
        done += 1
    # folding slack, via the scripted derivation: originals agree between
    # P0 u Defs and the final program under doubled depth
    st = run_sum_square_script()
    p0 = corpus.load("sum_square").definite()
    defs = Program(list(p0) + [c for c in st.defs])
    orig_preds = {c.head.pred for c in p0}
    b = OracleBudget(4, 0, 3)
    lm_defs = {a for a in bounded_lm(defs, b) if a.pred in orig_preds}
    lm_final = {
        a
        for a in bounded_lm(st.current.definite(), OracleBudget(8, 0, 3))
        if a.pred in orig_preds
    }
    assert lm_defs <= lm_final
    _report(8, f"(b) {done} random unfold cross-checks with doubled-depth slack")


def test_criterion_8c_transport_on_corpus_traces():
    runs = []
    ack = corpus.load("ackermann")
    q, r = predicate_partition(ack, "ackermann1", "ackermann2")
    runs.append(predicate_pairing(goal_of(ack), q, r, PairingConfig()))
    ss = corpus.load("sum_square")
    q, r = predicate_partition(ss, "su", "sq")
    runs.append(predicate_pairing(goal_of(ss), q, r, PairingConfig()))
    n_steps = 0
    for res in runs:
        new_preds = {d.head.pred for d in res.defs}
        base = Program([c for c in res.transf.definite() if c.head.pred not in new_preds])
        sigma = all_true_interpretation(base)
        sigma = transport_along_trace(res.state, sigma)
        n_steps += len(res.defs)
        assert check_model(res.transf.definite(), sigma).overall is Verdict.PROVED
        assert check_tight(res.defs, sigma) is not Verdict.DISPROVED
    # a goal-bearing case: the sum_upto model transported across a fresh
    # definition keeps modelling the goal program
    prog = corpus.load("sum_upto")
    sigma = SymbolicInterpretation(
        {
            "su": (
                (V("M"), V("R"), V("Sum")),
                QuantDisj((), (conj("Sum >= M, Sum >= R"), conj("R < 0"))),
            )
        }
    )
    st = TransformationState(prog)
    d = st.apply_definition(parse_program("n(A,S) :- A >= 0, su(A,R,S), R = 0.").clauses[0])
    from chcpair import transport_definition

    sigma2 = transport_definition(sigma, d)
    assert check_model(st.current, sigma2).overall is Verdict.PROVED
    assert check_tight(Program([d]), sigma2) is not Verdict.DISPROVED
    _report(8, f"(c) transport validated across {n_steps} definition steps + goal case")


def test_criterion_8d_emission_goldens():
    for name in corpus.NAMES:
        prog = corpus.load(name)
        text = emit_smtlib(prog)
        assert text == emit_smtlib(prog)
        assert text.encode() == (GOLDEN / f"{name}.smt2").read_bytes()
    _report(8, f"(d) byte-stable emission for {len(corpus.NAMES)} corpus programs")


def _solver_config():
    import os
    import shutil

    cmd = os.environ.get("CHCPAIR_SOLVER")
    if cmd:
        return SolverConfig.from_command_line(cmd, timeout_seconds=60)
    if shutil.which("z3"):
        return SolverConfig(("z3", "-in", "-smt2"), timeout_seconds=60)
    try:
        import z3  # noqa: F401
    except ImportError:
        return None
    import sys

    return SolverConfig((sys.executable, "-m", "chcpair.z3shim"), timeout_seconds=60)


@pytest.mark.skipif(_solver_config() is None, reason="no external Horn solver available")
def test_criterion_9_external_solver():
    cfg = _solver_config()
    sat = external_solve(corpus.load("ackermann_transf"), cfg)
    assert sat.status is SolveStatus.SAT
    unsat = external_solve(corpus.load("hl"), cfg)
    assert unsat.status is SolveStatus.UNSAT
    _report(9, "external solver: transformed clauses sat, interference unsat")
