import pytest

from chcpair import (
    Atom,
    install_unknown_resolver,
    Clause,
    Program,
    Var,
    parse_program,
    predicate_partition,
    print_program,
)
from chcpair.errors import ArityClash, CapExceeded, InputShapeError, NoMixedPair
from chcpair.pairing import (
    PairingConfig,
    _rank_goal_pairs,
    duplicate_cone,
    find_matching_def,
    iterate_pairing,
    predicate_pairing,
    select_pair,
)
from chcpair import lia
from chcpair.kernel import check_all_defs_unfolded

from helpers import assert_programs_equal, clauses_equivalent, conj, goal_of

V = Var


def _clause(text):
    return parse_program(text).clauses[0]


def run_ackermann(ackermann, **cfg):
    goal = goal_of(ackermann)
    q, r = predicate_partition(ackermann, "ackermann1", "ackermann2")
    return predicate_pairing(goal, q, r, PairingConfig(**cfg))


# --- select_pair ------------------------------------------------------------

U4_TEXT = """
new1(M1,N1,A1,M2,N2,A2) :- M1 > 0, M1 = M2, N1 > 0, N1 = N2, N2 =\\= 0,
    Y1 = N1 - 1, X1 = M1 - 1, Y2 = N2 - 1, X2 = M2 - 1, Z3 = Z2 + 1,
    ack1(M1,Y1,Z1), ack1(X1,Z1,A1), ack2(M2,Y2,Z2), ack2(X2,Z3,A2).
"""

U7_TEXT = """
new2(M1,N1,A1,M2,N2,A2) :- M1 = M2, M1 > 0, N1 = 0, N2 =\\= 0,
    X1 = M1 - 1, Y1 = 1, X2 = M2 - 1, Y2 = N2 - 1, Z3 = Z2 + 1,
    ack1(X1,Y1,A1), ack2(M2,Y2,Z2), ack2(X2,Z3,A2).
"""


def _with_and_without_reduction(c):
    """None, then c's constraint reduction."""
    return None, lia.reduction(c.constraint)


def test_select_pair_prefers_two_shared_equalities():
    c = _clause(U4_TEXT)
    for reduced in _with_and_without_reduction(c):
        i, j, eqs = select_pair(c, {"ack1"}, {"ack2"}, reduced)
        assert (c.body[i], c.body[j]) == (
            Atom("ack1", (V("M1"), V("Y1"), V("Z1"))),
            Atom("ack2", (V("M2"), V("Y2"), V("Z2"))),
        )
        assert len(eqs) == 2


def test_select_pair_one_beats_zero():
    c = _clause(U7_TEXT)
    for reduced in _with_and_without_reduction(c):
        i, j, eqs = select_pair(c, {"ack1"}, {"ack2"}, reduced)
        assert (c.body[i], c.body[j]) == (
            Atom("ack1", (V("X1"), V("Y1"), V("A1"))),
            Atom("ack2", (V("X2"), V("Z3"), V("A2"))),
        )
        assert len(eqs) == 1


def test_select_pair_single_candidates():
    c = _clause("false :- p(X), q(Y).")
    i, j, eqs = select_pair(c, {"p"}, {"q"})
    assert (i, j) == (0, 1) and eqs == ()


def test_select_pair_requires_mixed_body():
    c = _clause("false :- p(X).")
    with pytest.raises(NoMixedPair):
        select_pair(c, {"p"}, {"q"})


# --- find_matching_def -------------------------------------------------------

D1 = _clause("new1(M1,N1,A1,M2,N2,A2) :- M1 = M2, N1 = N2, ack1(M1,N1,A1), ack2(M2,N2,A2).")
D2 = _clause("new2(M1,N1,A1,M2,N2,A2) :- M1 = M2, ack1(M1,N1,A1), ack2(M2,N2,A2).")


def test_find_matching_def_rejects_unentailed_equalities():
    c = _clause(U4_TEXT)
    a = Atom("ack1", (V("X1"), V("Z1"), V("A1")))
    b = Atom("ack2", (V("X2"), V("Z3"), V("A2")))
    for reduced in _with_and_without_reduction(c):
        assert find_matching_def([D1], a, b, c.constraint, reduced) is None


def test_find_matching_def_newest_first():
    c = _clause(
        """
    new2(M1,N1,A1,M2,N2,A2) :- M1 = M2, M1 > 0, N1 = 0, N2 = 0,
        X1 = M1 - 1, Y1 = 1, X2 = M2 - 1, Y2 = 1,
        ack1(X1,Y1,A1), ack2(X2,Y2,A2).
    """
    )
    a, b = c.body
    for reduced in _with_and_without_reduction(c):
        hit = find_matching_def([D1, D2], a, b, c.constraint, reduced)
        assert hit is not None
        def_id, theta = hit
        # both definitions qualify here; the newest one wins, reproducing the
        # published derivation
        assert def_id == D2.cid
        assert theta[V("M1")] == V("X1")
        assert find_matching_def([D1], a, b, c.constraint, reduced)[0] == D1.cid


def test_find_matching_def_empty():
    assert find_matching_def([], D1.body[0], D1.body[1], conj("X = 0")) is None


# --- the golden ackermann run ------------------------------------------------

def test_ackermann_two_definitions(ackermann):
    res = run_ackermann(ackermann)
    assert len(res.defs) == 2
    d1, d2 = res.defs
    assert clauses_equivalent(d1, D1)
    assert clauses_equivalent(d2, D2)


def test_ackermann_matches_golden_transf(ackermann, ackermann_golden):
    res = run_ackermann(ackermann)
    assert_programs_equal(res.transf, ackermann_golden)


def test_ackermann_defs_all_unfolded(ackermann):
    res = run_ackermann(ackermann)
    ok, offenders = check_all_defs_unfolded(res.state.trace)
    assert ok and not offenders
    assert res.report.a_sound
    assert not res.report.all_foldings_reversible


def test_ackermann_deterministic(ackermann):
    a = run_ackermann(ackermann)
    b = run_ackermann(ackermann)
    assert print_program(a.transf) == print_program(b.transf)
    assert a.trace_text() == b.trace_text()


def test_ackermann_cap(ackermann):
    with pytest.raises(CapExceeded):
        run_ackermann(ackermann, max_defs=1)


def test_max_defs_bounds_the_whole_run():
    """fib_injectivity makes 23 definitions over its rounds, at most 14 in
    one round: the cap counts those of every round."""
    from chcpair import corpus

    p = corpus.load("fib_injectivity")
    with pytest.raises(CapExceeded):
        iterate_pairing(p, [], PairingConfig(max_defs=20, iterate=True))
    res = iterate_pairing(p, [], PairingConfig(max_defs=23, iterate=True))
    assert len(res.defs) == 23


def test_pair_log_records_choices(ackermann):
    res = run_ackermann(ackermann)
    four_atom = [pc for pc in res.pair_log if len(pc.clause.body) == 4]
    assert len(four_atom) == 2  # the nonlinear clause, before and after folding
    assert len(four_atom[0].eq) == 2
    text = res.trace_text()
    assert "PAIR" in text and "eq=2" in text


# --- sum/square --------------------------------------------------------------

def test_sum_square_pairing(sum_square):
    goal = goal_of(sum_square)
    q, r = predicate_partition(sum_square, "su", "sq")
    res = predicate_pairing(goal, q, r, PairingConfig())
    # the first definition collects all three entailed equalities
    assert len(res.defs) == 2
    d1 = res.defs.clauses[0]
    golden_d1 = _clause(
        "t(M,R0,Sum,N,Y,S0,Sqr) :- M = Y, R0 = N, R0 = S0, su(M,R0,Sum), sq(N,Y,S0,Sqr)."
    )
    assert clauses_equivalent(d1, golden_d1, pred_map={d1.head.pred: "t"})
    d2 = res.defs.clauses[1]
    golden_d2 = _clause(
        "t2(M,R0,Sum,N,Y,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr)."
    )
    assert clauses_equivalent(d2, golden_d2, pred_map={d2.head.pred: "t2"})
    for c in res.transf:
        preds = {a.pred for a in c.body}
        assert not ({"su"} & preds and {"sq"} & preds)


# --- degenerate inputs --------------------------------------------------------

def test_pairing_with_undefined_predicate():
    q = parse_program("qq(X) :- qa(X).")
    r = parse_program("rr(X) :- X = 0.")
    goal = _clause("false :- X = Y, qa(X), rr(Y).")
    res = predicate_pairing(goal, q, r, PairingConfig())
    assert len(res.defs) == 0
    assert len(res.transf) == len(q) + len(r)


def test_pairing_rejects_shared_preds():
    q = parse_program("p(X) :- X = 0.")
    goal = _clause("false :- p(X), p(Y).")
    with pytest.raises(InputShapeError):
        predicate_pairing(goal, q, q, PairingConfig())


def test_pairing_rejects_goalless_shape():
    q = parse_program("p(X) :- X = 0.")
    r = parse_program("s(X) :- X = 0.")
    goal = _clause("false :- p(X), p(Y).")
    with pytest.raises(InputShapeError):
        predicate_pairing(goal, q, r, PairingConfig())


# --- iterated driver -----------------------------------------------------------

def test_iterate_two_atom_goal_equals_single_run(ackermann):
    res = iterate_pairing(ackermann, [], PairingConfig(iterate=True))
    direct = run_ackermann(ackermann)
    assert_programs_equal(res.transf, direct.transf)


THREE = """
p(X,Y) :- X =< 0, Y = 0.
p(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, p(X1,Y1).
q(X,Y) :- X =< 0, Y = 0.
q(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, q(X1,Y1).
r(X,Y) :- X =< 0, Y = 0.
r(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, r(X1,Y1).
false :- X1 = X2, X2 = X3, Y1 =\\= Y2, p(X1,Y1), q(X2,Y2), r(X3,Y3).
"""


def test_iterate_three_atoms_pairs_all():
    p = parse_program(THREE)
    res = iterate_pairing(p, [], PairingConfig(iterate=True))
    goals = res.transf.goals()
    assert goals and all(len(g.body) <= 1 for g in goals)
    # a later definition pairs a previously introduced predicate with r,
    # tupling all three original predicates together
    last = res.defs.clauses[-1]
    body_preds = {a.pred for a in last.body}
    assert any(p.startswith("new") for p in body_preds)
    assert "r" in body_preds


def test_iterate_self_pair_duplicates(hl):
    res = iterate_pairing(hl, [], PairingConfig(iterate=True))
    preds = res.transf.preds()
    assert "p_2" in preds
    for c in res.transf:
        body_preds = {a.pred for a in c.body}
        assert not ({"p"} & body_preds and {"p_2"} & body_preds)


def _count_rankings(monkeypatch):
    """The goals that iterate_pairing ranks, one entry per call."""
    from chcpair import pairing

    ranked = []
    rank = pairing._rank_goal_pairs

    def counted(goal):
        ranked.append(goal)
        return rank(goal)

    monkeypatch.setattr(pairing, "_rank_goal_pairs", counted)
    return ranked


OVERLAP = """
p(X) :- X = 0.
q(X) :- p(X).
r(X,Y) :- X =< 0, Y = 0.
r(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, r(X1,Y1).
s(X,Y) :- X =< 0, Y = 0.
s(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, s(X1,Y1).
"""


@pytest.mark.parametrize("iterate", [False, True])
def test_iterate_reports_partition_overlap(monkeypatch, iterate):
    ranked = _count_rankings(monkeypatch)
    p = parse_program(
        OVERLAP
        + "false :- X1 = X2, p(X1), q(X2).\n"
        + "false :- X1 = X2, Y1 =\\= Y2, r(X1,Y1), s(X2,Y2).\n"
    )
    res = iterate_pairing(p, [], PairingConfig(iterate=iterate))
    # the first goal is left untransformed, ranked once (the scan resumes
    # after the round that pairs the second) and reported once, by its id in
    # the output; the second is paired
    assert [[a.pred for a in g.body] for g in ranked].count(["p", "q"]) == 1
    left = [g for g in res.transf.goals() if len(g.body) == 2]
    assert [g.body[0].pred for g in left] == ["p"]
    assert [(ov.pred, ov.goal_id) for ov in res.overlaps] == [("p", left[0].cid)]
    assert len(res.transf.goals()) == 2 and res.defs


@pytest.mark.parametrize("iterate", [False, True])
def test_a_goal_paired_after_an_overlapping_pair_is_not_reported(iterate):
    p = parse_program(OVERLAP + "false :- X1 = X2, Y3 > 0, p(X1), q(X2), r(X3,Y3).\n")
    res = iterate_pairing(p, [], PairingConfig(iterate=iterate))
    # (p, q) ranks first and overlaps; (p, r) is then paired
    assert res.steps and res.overlaps == []


@pytest.mark.parametrize("name, most", [("fib_injectivity", 21), ("fib_monotonicity", 13)])
def test_iterate_ranks_each_goal_once(monkeypatch, name, most):
    """A goal left before a round is not ranked again after it (46 and 22
    rankings when every round restarted the scan at the first goal)."""
    from chcpair import corpus

    ranked = _count_rankings(monkeypatch)
    iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    assert len(ranked) <= most


@pytest.mark.parametrize("name", ["ackermann", "sum_square", "fib_injectivity"])
def test_cone_functions_read_any_clauses(name):
    """reachable_preds, predicate_partition and duplicate_cone read the
    predicates from the clauses themselves: a list of a program's definite
    clauses gives what the program gives."""
    from chcpair import corpus
    from chcpair.syntax import reachable_preds

    p = corpus.load(name).definite()
    a, b = (x.pred for x in goal_of(corpus.load(name)).body[:2])
    for pred in (a, b):
        assert reachable_preds(list(p), pred) == reachable_preds(p, pred)
        assert duplicate_cone(list(p), pred) == duplicate_cone(p, pred)
    if a != b:
        assert predicate_partition(list(p), a, b) == predicate_partition(p, a, b)


def test_duplicate_cone_renames_recursion():
    p = parse_program("p(X) :- X = 0.\np(X) :- X = Y + 1, p(Y).")
    copies, mapping = duplicate_cone(p, "p")
    assert mapping == {"p": "p_2"}
    assert all(c.head.pred == "p_2" for c in copies)
    assert copies[1].body[0].pred == "p_2"


def test_corpus_integer_runs_terminate_within_cap():
    from chcpair import corpus

    for name in (
        "sum_square",
        "ackermann",
        "hl",
        "hl1",
        "fib_monotonicity",
        "fib_injectivity",
        "fib_fundep",
        "loop_unswitching",
    ):
        prog = corpus.load(name)
        res = iterate_pairing(prog, [], PairingConfig(iterate=True))
        assert len(res.defs) <= 64
        ok, _ = check_all_defs_unfolded(res.all_steps())
        assert ok, name


def test_select_pair_breaks_ties_leftmost():
    c = _clause("false :- p(B), p(A), q(C).")
    i, j, _ = select_pair(c, {"p"}, {"q"})
    assert c.body[i].args[0].name == "B"


def test_rank_goal_pairs_orders_by_equalities_then_position():
    # q-r share two entailed equalities (C=E, D=F), p-q and p-r one each
    goal = _clause("false :- A = C, C = E, D = F, p(A,B), q(C,D), r(E,F).")
    assert [len(lia.eq_set(goal.constraint, goal.body[i], goal.body[j]))
            for i, j in ((0, 1), (0, 2), (1, 2))] == [1, 1, 2]
    assert _rank_goal_pairs(goal) == [(1, 2), (0, 1), (0, 2)]


def test_iterate_pairing_runs_one_round_without_iterate():
    from chcpair import corpus

    p = corpus.load("fib_fundep")
    one = iterate_pairing(p, [], PairingConfig()).all_steps()
    full = iterate_pairing(p, [], PairingConfig(iterate=True)).all_steps()
    assert (len(one), len(full)) == (27, 73)
    assert full[: len(one)] == one


def test_iterate_pairing_checks_extra_goals_against_the_program(sum_upto):
    bad = _clause("false :- su(X, Y).")
    with pytest.raises(ArityClash):
        iterate_pairing(sum_upto, [bad], PairingConfig())
    extra = _clause("false :- su(X, R, S), su(X, R, T), S =\\= T.")
    res = iterate_pairing(sum_upto, [extra], PairingConfig())
    assert len(res.transf.goals()) == len(sum_upto.goals()) + 1


def test_pairing_accepts_swapped_goal_atoms(ackermann, ackermann_golden):
    goal = goal_of(ackermann)
    swapped = Clause(goal.cid, None, goal.constraint, (goal.body[1], goal.body[0]))
    q, r = predicate_partition(ackermann, "ackermann1", "ackermann2")
    res = predicate_pairing(swapped, q, r, PairingConfig())
    assert_programs_equal(res.transf, ackermann_golden)


def test_unknown_a_classifier_is_refused():
    with pytest.raises(ValueError, match="unknown A-classifier 'nope'; known: lia, 2var"):
        PairingConfig(a_classifier="nope")


def test_fib_injectivity_settles_pair_selection_without_queries(monkeypatch):
    """R4 caches the generic witnesses of each kept clause, and eq_set and
    the fold checks settle by Gauss what they can on the clause's own
    reduction: iterating on fib_injectivity asks few negation queries (607
    when each proved equality paid two)."""
    from chcpair import corpus

    calls = []
    extend = lia._extend

    def counted(base, extra):
        calls.append(extra)
        return extend(base, extra)

    monkeypatch.setattr(lia, "_extend", counted)
    install_unknown_resolver(None)
    iterate_pairing(corpus.load("fib_injectivity"), [], PairingConfig(iterate=True))
    assert len(calls) <= 60


def test_fib_injectivity_builds_a_program_per_round(monkeypatch):
    """The driver keeps its definite clauses as a list: each of the 12
    rounds builds the Programs of its two cones, its P_0, its output and its
    definitions, and the run builds its output and definitions once (87
    constructions when the driver also built a Program of its definite
    clauses at the start and after each round)."""
    from chcpair import corpus, syntax

    p = corpus.load("fib_injectivity")
    calls = []
    init = syntax.Program.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(syntax.Program, "__init__", counted)
    iterate_pairing(p, [], PairingConfig(iterate=True))
    assert len(calls) <= 62
