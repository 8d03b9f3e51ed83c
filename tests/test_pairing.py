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
from chcpair.errors import ArityClash, CapExceeded, InputShapeError, NoMixedPair, SortMismatch
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
from chcpair.kernel import classify_sequence

from helpers import assert_programs_equal, chain, clauses_equivalent, conj, goal_of

V = Var


def _clause(text):
    return parse_program(text).clauses[0]


def run_ackermann(ackermann, **cfg):
    goal = goal_of(ackermann)
    q, r = predicate_partition(ackermann, "ackermann1", "ackermann2")
    return predicate_pairing(goal, (0, 1), q, r, PairingConfig(**cfg))


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
    rep = classify_sequence(res.steps)
    assert rep.defs_not_unfolded == ()
    assert not rep.all_foldings_reversible


def test_ackermann_deterministic(ackermann):
    a = run_ackermann(ackermann)
    b = run_ackermann(ackermann)
    assert print_program(a.transf) == print_program(b.transf)
    assert a.trace_text() == b.trace_text()


def test_ackermann_cap(ackermann):
    with pytest.raises(CapExceeded):
        run_ackermann(ackermann, max_defs=1)


def test_a_definitions_budget_is_positive():
    with pytest.raises(ValueError, match="max_defs must be positive"):
        PairingConfig(max_defs=0)


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
    res = predicate_pairing(goal, (0, 1), q, r, PairingConfig())
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
    res = predicate_pairing(goal, (0, 1), q, r, PairingConfig())
    assert len(res.defs) == 0
    assert len(res.transf) == len(q) + len(r)


def test_pairing_rejects_shared_preds():
    q = parse_program("p(X) :- X = 0.")
    goal = _clause("false :- p(X), p(Y).")
    with pytest.raises(InputShapeError):
        predicate_pairing(goal, (0, 1), q, q, PairingConfig())


def test_pairing_rejects_goalless_shape():
    q = parse_program("p(X) :- X = 0.")
    r = parse_program("s(X) :- X = 0.")
    goal = _clause("false :- p(X), p(Y).")
    with pytest.raises(InputShapeError):
        predicate_pairing(goal, (0, 1), q, r, PairingConfig())


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


# a cone that one goal pairs with itself, under a name that another goal uses
COUNT_DOWN = "p(X) :- X = 0.\np(X) :- X > 0, X1 = X - 1, p(X1).\n"


def test_iterate_names_a_cone_copy_apart_from_every_goal():
    """The copy of p is not named p_2, which the second goal uses, so Pn
    keeps that goal's answer (it was violated with Z=3 on Pn only)."""
    from chcpair.oracle import OracleBudget, equisat_probe

    p = parse_program(
        COUNT_DOWN + "false :- X = Y, X < 0, p(X), p(Y).\nfalse :- Z > 2, p_2(Z).\n"
    )
    res = iterate_pairing(p, [], PairingConfig(iterate=True))
    assert "p_2" not in {c.head.pred for c in res.transf if not c.is_goal}
    assert equisat_probe(p, res.transf, OracleBudget(6, -1, 5)).agreement


# one counter under two names, p and q
COUNTERS = """
p(X,Y) :- X =< 0, Y = 0.
p(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, p(X1,Y1).
q(X,Y) :- X =< 0, Y = 0.
q(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, q(X1,Y1).
"""

# f(N,S): S is the sum of N down to 0
SUM_DOWN = "f(N,S) :- N =< 0, S = 0.\nf(N,S) :- N > 0, N1 = N - 1, S = S1 + N, f(N1,S1).\n"


def test_iterate_pairs_a_goal_with_two_atoms_in_one_cone():
    """The round unfolds the pair that ranks first, p(X1,Y1) with
    q(X3,Y3), which X1 = X3 links, with q(X2,Y2) left in the goal's body:
    in each child of the p-unfolding, q(X3,Y3) is the R-atom unfolded, at
    position 1 behind p's base case and 2 behind its recursive case. The
    next round pairs the definition with q(X2,Y2), and no goal is left."""
    from chcpair.oracle import OracleBudget, equisat_probe

    p0 = parse_program(
        COUNTERS + "false :- X1 = X3, Y1 =\\= Y3, p(X1,Y1), q(X2,Y2), q(X3,Y3).\n"
    )
    res = iterate_pairing(p0, [], PairingConfig(iterate=True))
    assert [(s.rule.name, s.detail) for s in res.steps[:3]] == [
        ("UNFOLDING", 0), ("UNFOLDING", 1), ("UNFOLDING", 2)
    ]
    assert (len(res.defs), len(res.transf)) == (2, 12)
    assert res.overlaps == []
    assert {g.cid: len(g.body) for g in res.transf.goals()} == {11: 1, 12: 1}
    assert equisat_probe(p0, res.transf, OracleBudget(5, -1, 3)).agreement


def test_a_round_reduces_a_goal_of_three_atoms_once(monkeypatch):
    """The round grows its children's reductions from the one that ranked
    the goal's pairs: the goal's constraint is reduced from scratch once
    (twice when the round reduced it again)."""
    p0 = parse_program(
        COUNTERS + "false :- X1 = X3, Y1 =\\= Y3, p(X1,Y1), q(X2,Y2), q(X3,Y3).\n"
    )
    goal = p0.goals()[0]
    fresh = []
    reduction = lia.reduction

    def counted(c, *, base=None):
        if base is None and c == goal.constraint:
            fresh.append(c)
        return reduction(c, base=base)

    monkeypatch.setattr(lia, "reduction", counted)
    res = iterate_pairing(p0, [], PairingConfig())
    assert res.steps and len(fresh) == 1


def test_iterate_pairs_a_goal_with_three_atoms_of_one_predicate():
    """Three copies of f: the first round pairs two of them, with the third
    left in the body, and the next round pairs the definition with it."""
    from chcpair.oracle import OracleBudget, equisat_probe

    p0 = parse_program(
        SUM_DOWN + "false :- N1 = N2, N2 = N3, S1 =\\= S3, f(N1,S1), f(N2,S2), f(N3,S3).\n"
    )
    res = iterate_pairing(p0, [], PairingConfig(iterate=True))
    assert (len(res.defs), len(res.transf)) == (2, 13)
    assert res.overlaps == []
    assert {g.cid: len(g.body) for g in res.transf.goals()} == {11: 1, 12: 1, 13: 1}
    assert equisat_probe(p0, res.transf, OracleBudget(5, -1, 3)).agreement


@pytest.mark.parametrize("iterate, defs, clauses, goal_atoms", [
    (False, 1, 9, 2),
    (True, 2, 11, 1),
])
def test_a_same_predicate_pair_whose_cone_holds_the_third_atom(iterate, defs, clauses,
                                                                goal_atoms):
    """The pair p, p ranks first; its copy renames p's whole cone, r with
    it, so r(X3,Y3), left in the body, stays on the Q side's r. With
    iterate, the next round pairs the definition with it."""
    from chcpair.oracle import OracleBudget, equisat_probe

    p0 = parse_program(
        "r(X,Y) :- X =< 0, Y = 0.\n"
        "r(X,Y) :- X > 0, X1 = X - 1, Y = Y1 + 1, r(X1,Y1).\n"
        "p(X,Y) :- r(X,Y).\n"
        "false :- X1 = X2, X3 = X1, Y1 =\\= Y2, Y3 > Y1, p(X1,Y1), p(X2,Y2), r(X3,Y3).\n"
    )
    res = iterate_pairing(p0, [], PairingConfig(iterate=iterate))
    assert {"p_2", "r_2"} <= res.transf.preds()
    assert (len(res.defs), len(res.transf)) == (defs, clauses)
    assert [len(g.body) for g in res.transf.goals()] == [goal_atoms]
    assert res.overlaps == []
    assert equisat_probe(p0, res.transf, OracleBudget(4, -1, 3)).agreement


def test_a_goal_with_one_pair_is_ranked_without_a_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the goal was reduced")

    monkeypatch.setattr(lia, "reduction", refuse)
    assert _rank_goal_pairs(_clause("false :- X = Y, p(X), q(Y).")) == ([(0, 1)], None)


# chain(k): defs, Pn clauses, Pn constraint atoms, SHA-256 of the printed Pn
# and of the trace
CHAIN = {
    2: (3, 17, 98, "ff2c2f7df64adadf6526a9fdecab344f5e5f9b97f9725000ea971703f2625007",
        "2c87b0fdfab6355fa7e7e06e5177296d57a2963f1f02ba0f1fdfdef91f35343d"),
    4: (7, 33, 323, "ae938b1741982d20278984dee3bdf052cc2e0279c02783acbe88ced92b9225b9",
        "16fd32fc09b9feb39854098571885f71ee820cdf050d5c304872bc08ce9ef493"),
    8: (17, 69, 1126, "42afaec9870bd9abc6fc6af4aac755c9a605398e58e59c7ee68238d99d0c4d5e",
        "1afeb008a9e1ac828718d721dcfc2366226c4c1cbaf759eca3fb5e76b9c60640"),
    12: (30, 115, 3512, "f4b755ae73f420c54e9254e0bddc655483e4343ac44d05c0f0e0297af464ecbd",
         "e49c2e5895a166b7955279ab32de76b26915deb26947ab2254be4e2d0ba4e503"),
    16: (43, 153, 4113, "71ea29162d386bc181748c1a1df81e362c08b00d81d3aac67021524001560e58",
         "efa5ed9655ac315b38533e48f55371b51d06c92aea2512798bcfda6f8028ae89"),
    24: (76, 255, 12733, "6b6ef177b290d32e60db8c8c98b5b03ecfa53f04db397d5c8fe49c79b06b1b29",
         "5b795ef3dc87b3d99f092f87595bf541b8b45bee14733ce7aec638c992b73b52"),
}


@pytest.mark.parametrize("k", sorted(CHAIN))
def test_iterate_chain_output_is_frozen(k):
    """chain(k) ranks k-atom goals and copies cones again and again; its
    output and trace stay as frozen, and at k <= 4 Pn keeps P0's answers."""
    import hashlib

    from chcpair.oracle import OracleBudget, equisat_probe

    p0 = parse_program(chain(k))
    res = iterate_pairing(p0, [], PairingConfig(max_defs=1000, iterate=True))
    atoms = sum(len(c.constraint.atoms) for c in res.transf)
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (print_program(res.transf), res.trace_text())
    )
    assert (len(res.defs), len(res.transf), atoms) + digests == CHAIN[k]
    if k <= 4:
        assert equisat_probe(p0, res.transf, OracleBudget(6, 0, 2)).agreement


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
@pytest.mark.parametrize(
    "text",
    [
        # q has no clause: the (p, q) cone pair has an empty R side
        "p(X) :- X = 0.\nfalse :- X = Y, p(X), q(Y).\n",
        # p has no clause: its duplicated cone is empty on both sides
        "false :- p(X), p(Y).\n",
    ],
)
def test_a_goal_over_a_predicate_without_clauses_is_left_untransformed(text, iterate):
    p = parse_program(text)
    res = iterate_pairing(p, [], PairingConfig(iterate=iterate))
    assert print_program(res.transf) == print_program(p)
    assert res.steps == [] and res.overlaps == [] and not res.defs


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
    taken = {q for c in p for q in c.preds()}
    for pred in (a, b):
        assert reachable_preds(list(p), pred) == reachable_preds(p, pred)
        assert duplicate_cone(list(p), pred, taken) == duplicate_cone(p, pred, taken)
    if a != b:
        assert predicate_partition(list(p), a, b) == predicate_partition(p, a, b)


@pytest.mark.parametrize("name, q, r", [("ackermann", "ackermann1", "ackermann2"),
                                        ("sum_square", "su", "sq")])
def test_pairing_reads_clause_tuples_as_programs(name, q, r):
    """predicate_pairing reads its two sides' predicates from their clauses:
    the tuples that predicate_partition returns give the output and trace
    that Programs of the same clauses give."""
    from chcpair import corpus

    p = corpus.load(name)
    q_cl, r_cl = predicate_partition(p, q, r)
    assert isinstance(q_cl, tuple) and isinstance(r_cl, tuple)
    a = predicate_pairing(goal_of(p), (0, 1), q_cl, r_cl)
    b = predicate_pairing(goal_of(p), (0, 1), Program(q_cl), Program(r_cl))
    assert print_program(a.transf) == print_program(b.transf)
    assert a.trace_text() == b.trace_text()


def test_pairing_refuses_a_goal_that_disagrees_with_its_cones(sum_square):
    q, r = predicate_partition(sum_square, "su", "sq")
    goal = _clause("false :- X = Y, su(X,R,S), sq(Y,Z).")
    with pytest.raises(ArityClash, match="'sq' used with arity 2 and 4"):
        predicate_pairing(goal, (0, 1), q, r)


def test_duplicate_cone_renames_recursion():
    p = parse_program("p(X) :- X = 0.\np(X) :- X = Y + 1, p(Y).")
    copies, mapping = duplicate_cone(p, "p", p.preds())
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
        assert classify_sequence(res.steps).defs_not_unfolded == (), name


def test_select_pair_breaks_ties_leftmost():
    c = _clause("false :- p(B), p(A), q(C).")
    i, j, _ = select_pair(c, {"p"}, {"q"})
    assert c.body[i].args[0].name == "B"


def test_rank_goal_pairs_orders_by_equalities_then_position():
    # q-r share two entailed equalities (C=E, D=F), p-q and p-r one each
    goal = _clause("false :- A = C, C = E, D = F, p(A,B), q(C,D), r(E,F).")
    assert [len(lia.eq_set(goal.constraint, goal.body[i], goal.body[j]))
            for i, j in ((0, 1), (0, 2), (1, 2))] == [1, 1, 2]
    pairs, reduced = _rank_goal_pairs(goal)
    assert pairs == [(1, 2), (0, 1), (0, 2)]
    assert reduced.conj == goal.constraint


def test_iterate_pairing_runs_one_round_without_iterate():
    from chcpair import corpus

    p = corpus.load("fib_fundep")
    one = iterate_pairing(p, [], PairingConfig()).steps
    full = iterate_pairing(p, [], PairingConfig(iterate=True)).steps
    assert (len(one), len(full)) == (27, 73)
    assert full[: len(one)] == one


def test_iterate_pairing_checks_extra_goals_against_the_program(sum_upto):
    bad = _clause("false :- su(X, Y).")
    with pytest.raises(ArityClash):
        iterate_pairing(sum_upto, [bad], PairingConfig())
    extra = _clause("false :- su(X, R, S), su(X, R, T), S =\\= T.")
    res = iterate_pairing(sum_upto, [extra], PairingConfig())
    assert len(res.transf.goals()) == len(sum_upto.goals()) + 1
    # a definite clause is not a goal: pairing its body would drop its head
    definite = _clause("r(X, S, T) :- su(X, R, S), su(X, R, T).")
    with pytest.raises(InputShapeError, match="not a goal"):
        iterate_pairing(sum_upto, [definite], PairingConfig())


def test_iterate_pairing_refuses_an_extra_goal_of_conflicting_sorts():
    p = parse_program("p(X) :- X = 0.\nfalse :- p(X).\n")
    extra = _clause("false :- read(A, I, V), p(A).")  # A is an array, p's X an int
    with pytest.raises(SortMismatch, match="predicate 'p' used with conflicting sorts"):
        iterate_pairing(p, [extra], PairingConfig())


@pytest.mark.parametrize("pair", [(0, 2), (-1, 1), (1, 0), (0, 0), (1, 1)])
def test_pairing_refuses_a_pair_that_is_not_a_q_atom_and_an_r_atom(sum_square, pair):
    q, r = predicate_partition(sum_square, "su", "sq")
    with pytest.raises(InputShapeError, match="the initial clause"):
        predicate_pairing(goal_of(sum_square), pair, q, r)


def test_pairing_refuses_a_goal_among_its_clauses(sum_square):
    q, r = predicate_partition(sum_square, "su", "sq")
    q_goal = _clause("false :- su(X,R,S).")
    with pytest.raises(InputShapeError, match="input programs must be definite"):
        predicate_pairing(goal_of(sum_square), (0, 1), q + (q_goal,), r)


def test_pairing_accepts_swapped_goal_atoms(ackermann, ackermann_golden):
    goal = goal_of(ackermann)
    swapped = Clause(goal.cid, None, goal.constraint, (goal.body[1], goal.body[0]))
    q, r = predicate_partition(ackermann, "ackermann1", "ackermann2")
    res = predicate_pairing(swapped, (1, 0), q, r, PairingConfig())
    assert_programs_equal(res.transf, ackermann_golden)


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
    """The driver hands each round clause lists: each of the 12 rounds
    builds a Program of its output and of its definitions, and the run
    builds its output and definitions once (62 constructions when each
    round also built Programs of its two cones and of its P_0)."""
    from chcpair import corpus, syntax

    p = corpus.load("fib_injectivity")
    calls = []
    init = syntax.Program.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(syntax.Program, "__init__", counted)
    iterate_pairing(p, [], PairingConfig(iterate=True))
    assert len(calls) <= 26
