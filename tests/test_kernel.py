import collections.abc
import gc
import random
import weakref
from pathlib import Path

import pytest

from chcpair import (
    Atom,
    Clause,
    ConstraintConj,
    Program,
    TransformationState,
    Var,
    check_all_defs_unfolded,
    classify_sequence,
    parse_program,
    print_clause,
)
from chcpair.errors import (
    ArityClash,
    BadPosition,
    ConstraintClassViolation,
    EntailmentFailure,
    EquivalenceNotProved,
    FreshnessViolation,
    HeadVarViolation,
    MatchFailure,
    NonP0Predicate,
    NoSuchClause,
    NotADefinition,
    ShapeMismatch,
    VarConditionViolation,
)
from chcpair import corpus, kernel, lia, pairing
from chcpair.kernel import RuleKind, parse_trace
from chcpair.pairing import PairingConfig, iterate_pairing
from chcpair.oracle import OracleBudget, bounded_lm
from chcpair.syntax import fresh_name

from helpers import (
    clauses_equivalent,
    conj,
    goal_of,
    line_chunks,
    mutant_failures,
    random_definite_program,
    run_sum_square_script,
)

V = Var


def _def(text):
    return parse_program(text).clauses[0]


@pytest.fixture
def st(sum_square):
    return TransformationState(sum_square)


def _snapshot(st):
    """What a refused rule leaves as it was: P_i, Defs_i and the trace."""
    return dict(st.clauses), list(st.defs), list(st.trace)


# --- R1 ---------------------------------------------------------------------

def test_definition_introduces_clause(st):
    d = st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    assert st.clause(d.cid) is d
    assert st.defs[-1].cid == d.cid
    assert st.trace[-1].rule is RuleKind.DEFINITION


def test_definition_freshness_violation(st):
    with pytest.raises(FreshnessViolation):
        st.apply_definition(_def("su(A,B,C) :- A = B, su(A,B,C)."))


def test_definition_requires_p0_body_preds(st):
    with pytest.raises(NonP0Predicate):
        st.apply_definition(_def("n(A) :- A = 0, mystery(A)."))


def test_definition_requires_nonempty_body(st):
    with pytest.raises(NonP0Predicate):
        st.apply_definition(_def("n(A) :- A = 0."))


def test_definition_head_vars_must_be_free_in_body(st):
    with pytest.raises(HeadVarViolation):
        st.apply_definition(_def("n(A,B) :- A = 0, su(A,C,D)."))


@pytest.mark.parametrize(
    "head, message",
    [
        (None, "must have a head atom"),
        # built directly: the parser makes repeated head variables distinct
        (Atom("n", (V("A"), V("A"))), "must be distinct"),
    ],
)
def test_definition_head_refusals_leave_the_state(st, head, message):
    body = _def("false :- su(A,B,C).").body
    before = _snapshot(st)
    with pytest.raises(HeadVarViolation, match=message):
        st.apply_definition(Clause(0, head, ConstraintConj(), body))
    assert _snapshot(st) == before


def test_state_takes_any_iterable_of_well_formed_clauses():
    """P_0 is any iterable of clauses with distinct ids and one arity per
    predicate; its predicates are those that its clauses name, not those
    that a sorts declaration names."""
    p = parse_program(":- sorts s(int).\np(X) :- X = 0.")
    st = TransformationState(list(p))
    assert st.current == p and st.p0_preds == {"p"}
    with pytest.raises(NonP0Predicate):
        st.apply_definition(_def("n(A) :- s(A)."))
    with pytest.raises(ArityClash, match="duplicate clause id 1"):
        TransformationState([p.clauses[0], p.clauses[0]])
    goal = parse_program("false :- p(X,Y).").clauses[0]
    with pytest.raises(ArityClash, match="'p' used with arity"):
        TransformationState([p.clauses[0], Clause(2, None, goal.constraint, goal.body)])


def test_definition_constraint_must_be_linear():
    p = parse_program("p(X) :- X = 0.\na(A,I) :- read(A,I,V), V = 0.")
    st = TransformationState(p)
    st.apply_definition(_def("n1(A,B) :- A = B + 1, p(A), p(B)."))
    with pytest.raises(ConstraintClassViolation, match="outside the 'lia' class"):
        st.apply_definition(_def("n2(A,I,V) :- read(A,I,V), a(A,I)."))


# --- R2 ---------------------------------------------------------------------

def test_unfold_two_steps_gives_paper_clauses(st):
    d = st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    first = st.apply_unfold(d.cid, 0)
    assert len(first) == 2
    out = st.apply_unfold(first[0].cid, 0) + st.apply_unfold(first[1].cid, 1)
    assert len(out) == 4
    golden8 = _def(
        "su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, M =< 0, Sum = R0, Y =< 0, Sqr = S0."
    )
    assert clauses_equivalent(out[0], golden8)


def test_unfold_no_matching_clauses_deletes(sum_upto):
    p = parse_program("false :- zeta(X).\nsu(X) :- X = 0.")
    st = TransformationState(p)
    out = st.apply_unfold(1, 0)
    assert out == []
    assert 1 not in st.clauses


def test_unfold_errors(st):
    with pytest.raises(NoSuchClause):
        st.apply_unfold(999, 0)
    with pytest.raises(BadPosition):
        st.apply_unfold(2, 5)


def test_unfold_flags_self_unfolding():
    p = parse_program("p(X) :- X = 0.\np(X) :- X = Y + 1, p(Y).")
    st = TransformationState(p)
    st.apply_unfold(2, 0)
    assert st.trace[-1].self_unfolding is True


def test_unfold_renames_clashing_vars():
    p = parse_program("false :- R1 = 0, su(R1).\nsu(X) :- R1 = X - 1, su(R1).")
    st = TransformationState(p)
    (out,) = st.apply_unfold(1, 0)
    names = [v.name for v in out.vars()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", ["sum_square", "fib_fundep", "hl", "loop_pipelining"])
def test_unfolded_constraints_extend_their_parent(name, monkeypatch):
    """Every clause apply_unfold returns, in a pairing run, starts its
    constraint with its parent's atoms, the same objects: the strategy
    decides it by extending the parent's reduction."""
    unfold = TransformationState.apply_unfold
    checked = []

    def checking_unfold(self, cid, atom_index):
        parent = self.clause(cid).constraint.atoms
        out = unfold(self, cid, atom_index)
        for new in out:
            head = new.constraint.atoms[: len(parent)]
            assert head == parent
            assert all(a is b for a, b in zip(head, parent))
        checked.extend(out)
        return out

    monkeypatch.setattr(TransformationState, "apply_unfold", checking_unfold)
    iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    assert len(checked) >= 4
    assert any(len(c.constraint) > 0 for c in checked)


def _unfold_reference(state, cid, atom_index):
    """(head, constraint, body) of each clause that unfolding cid at
    atom_index gives, each matching clause renamed afresh."""
    c = state.clause(cid)
    target = c.body[atom_index]
    c_names = {v.name for v in c.vars()}
    out = []
    for dj in state.clauses.values():
        if dj.head is None or dj.head.pred != target.pred:
            continue
        head_vars = set(dj.head.args)
        taken = c_names | {v.name for v in dj.vars()}
        sigma = {}
        for v in dj.vars():
            if v not in head_vars and v.name in c_names:
                nn = fresh_name(v.name, taken)
                taken.add(nn)
                sigma[v] = Var(nn, v.sort)
        sigma.update(zip(dj.head.args, target.args))
        constraint = ConstraintConj(c.constraint.atoms + dj.constraint.subst(sigma).atoms)
        body = c.body[:atom_index] + tuple(a.subst(sigma) for a in dj.body) + c.body[atom_index + 1 :]
        out.append((c.head, constraint, body))
    return out


@pytest.mark.parametrize("name", corpus.NAMES)
def test_unfolding_shares_renamed_copies_without_changing_them(name, monkeypatch):
    """Every clause that apply_unfold returns in a pairing run, shared
    renamed copies or not, equals the one that renaming the matching clause
    afresh gives, and its constraint's variables are those of a fresh walk."""
    unfold = TransformationState.apply_unfold
    checked = []

    def checking_unfold(self, cid, atom_index):
        want = _unfold_reference(self, cid, atom_index)
        out = unfold(self, cid, atom_index)
        assert [(c.head, c.constraint, c.body) for c in out] == want
        for c in out:
            assert c.constraint.vars() == ConstraintConj(c.constraint.atoms).vars()
        checked.extend(out)
        return out

    monkeypatch.setattr(TransformationState, "apply_unfold", checking_unfold)
    iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    if name not in ("sum_upto", "ackermann_transf", "sum_square_p4", "array_loop"):
        assert checked


def test_unfoldings_with_one_renaming_share_the_renamed_atoms():
    p = parse_program(
        "p(X) :- X = Y + 1, Y >= 0, q(Y).\n"
        "false :- Z >= 5, p(Z).\n"
        "false :- Z =< 2, p(Z).\n"
        "false :- Y = 1, p(Z).\n"
    )
    st = TransformationState(p)
    (a,) = st.apply_unfold(2, 0)
    (b,) = st.apply_unfold(3, 0)
    (c,) = st.apply_unfold(4, 0)
    # 2 and 3 match p's head to Z and rename nothing: one renamed copy
    assert len(a.constraint) == len(b.constraint) == 3
    assert all(x is y for x, y in zip(a.constraint.atoms[1:], b.constraint.atoms[1:]))
    assert a.body[0] is b.body[0]
    # 4 names Y itself, so p's Y is renamed: a copy of its own
    assert print_clause(c) == "false :- Y = 1, Z = Y_1 + 1, Y_1 >= 0, q(Y_1)."
    assert not any(x is y for x in a.constraint.atoms[1:] for y in c.constraint.atoms[1:])


def test_pairing_leaves_no_transformation_state_behind(monkeypatch):
    """The states of a run, and the renamed copies that they keep, are gone
    when iterate_pairing returns."""
    init = TransformationState.__init__
    states = []

    def recording_init(self, p0):
        init(self, p0)
        states.append(weakref.ref(self))

    monkeypatch.setattr(TransformationState, "__init__", recording_init)
    res = iterate_pairing(corpus.load("fib_injectivity"), [], PairingConfig(iterate=True))
    gc.collect()
    assert len(states) > 1
    assert [ref() for ref in states] == [None] * len(states)
    assert res.defs


def test_kernel_and_pairing_keep_no_container_between_operations():
    """After an hl1 transform, kernel and pairing hold no mutable container
    at module level: the renamed copies and skeletons lived on each round's
    state. The one exception is kernel's constant table of trace line
    shapes, which the transform leaves as it was."""
    shapes = dict(kernel._TRACE_SHAPES)
    iterate_pairing(corpus.load("hl1"), [], PairingConfig(iterate=True))
    mutable = (collections.abc.MutableMapping, collections.abc.MutableSequence,
               collections.abc.MutableSet)
    held = [f"{m.__name__}.{name}" for m in (kernel, pairing) for name, value in vars(m).items()
            if not name.startswith("__") and isinstance(value, mutable)]
    assert held == ["chcpair.kernel._TRACE_SHAPES"]
    assert kernel._TRACE_SHAPES == shapes and shapes.keys() == set(RuleKind)


@pytest.mark.parametrize(
    "name, folds",
    [
        ("sum_square", 3),
        ("fib_fundep", 10),
        ("hl", 2),
        ("loop_pipelining", 3),
        ("fib_injectivity", 162),
    ],
)
def test_strategy_folds_keep_the_clause_constraint(name, folds, monkeypatch):
    """Every fold of a pairing run returns a clause whose constraint is the
    folded clause's own object: a strategy definition's head holds every
    variable of its two atoms, so it has no existential variable, and the
    clause's reduction stays valid across its folds."""
    fold = TransformationState.apply_fold
    kept = []

    def checking_fold(self, cid, *args, **kwargs):
        before = self.clause(cid).constraint
        out = fold(self, cid, *args, **kwargs)
        assert out.constraint is before
        kept.append(out)
        return out

    monkeypatch.setattr(TransformationState, "apply_fold", checking_fold)
    iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    assert len(kept) == folds


# --- R3 ---------------------------------------------------------------------

def test_fold_example3_goal(st):
    d = st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    goal = goal_of(st.current)
    theta = {V(n): V(n) for n in ["M", "R0", "Sum", "N", "Y", "S0", "Sqr"]}
    folded = st.apply_fold(goal.cid, [0, 1], d.cid, theta)
    assert clauses_equivalent(
        folded,
        _def(
            "false :- Sum > Sqr, M >= 0, M = N, R0 = 0, S0 = 0, su_sq(M,R0,Sum,N,S0,Sqr)."
        ),
    )
    # the definition is still present, so this fold is reversible
    assert st.trace[-1].reversible_folding is True


def test_fold_requires_definition(st):
    goal = goal_of(st.current)
    with pytest.raises(NotADefinition):
        st.apply_fold(goal.cid, [0, 1], 2, {})


def test_fold_match_failure(st):
    d = st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    goal = goal_of(st.current)
    theta = {V(n): V(n) for n in ["M", "R0", "Sum", "N", "Y", "S0", "Sqr"]}
    with pytest.raises(MatchFailure):
        st.apply_fold(goal.cid, [1, 0], d.cid, theta)  # atoms swapped


@pytest.mark.parametrize(
    "positions, error, message",
    [
        ([0, 0], BadPosition, "invalid body positions"),
        ([0, 2], BadPosition, "invalid body positions"),
        ([-1, 1], BadPosition, "invalid body positions"),
        ([0], MatchFailure, "definition body has 2 atoms, 1 selected"),
    ],
)
def test_fold_position_refusals_leave_the_state(st, positions, error, message):
    d = st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    goal = goal_of(st.current)
    theta = {V(n): V(n) for n in ["M", "R0", "Sum", "N", "Y", "S0", "Sqr"]}
    before = _snapshot(st)
    with pytest.raises(error, match=message):
        st.apply_fold(goal.cid, positions, d.cid, theta)
    assert _snapshot(st) == before


def test_fold_entailment_failure():
    p = parse_program("h(A) :- p(A).\np(X) :- X = 0.")
    st = TransformationState(p)
    d = st.apply_definition(_def("n(X) :- X > 0, p(X)."))
    with pytest.raises(EntailmentFailure) as e:
        st.apply_fold(1, [0], d.cid, {V("X"): V("A")})
    assert e.value.atom is not None


def test_fold_existential_image_in_head_rejected():
    p = parse_program("h(A,B) :- B = A + 1, p(A), q(B).\np(X) :- X = 0.\nq(X) :- X = 1.")
    st = TransformationState(p)
    d = st.apply_definition(_def("n(X) :- Y = X + 1, p(X), q(Y)."))
    with pytest.raises(VarConditionViolation):
        st.apply_fold(1, [0, 1], d.cid, {V("X"): V("A"), V("Y"): V("B")})


def test_fold_existential_images_must_differ():
    p = parse_program("h(A) :- p(A,A).\np(X,Y) :- X = Y.")
    st = TransformationState(p)
    d = st.apply_definition(_def("n(X) :- p(X,Y)."))
    with pytest.raises(VarConditionViolation):
        st.apply_fold(1, [0], d.cid, {V("X"): V("A"), V("Y"): V("A")})


def test_fold_drops_linking_conjunct():
    # the constraint atom naming the definition's existential variable is
    # dropped because the remainder plus the definition constraint entails it
    p = parse_program("h(A) :- B = A + 1, A > 0, p(A), q(B).\np(X) :- X = 0.\nq(X) :- X = 1.")
    st = TransformationState(p)
    d = st.apply_definition(_def("n(X) :- Y = X + 1, p(X), q(Y)."))
    folded = st.apply_fold(1, [0, 1], d.cid, {V("X"): V("A"), V("Y"): V("B")})
    assert clauses_equivalent(folded, _def("h(A) :- A > 0, n(A)."))


def test_fold_with_the_clause_reduction():
    """A fold given the reduction of the clause's constraint gives the fold
    without it; a reduction of another constraint is refused."""
    text = "h(A) :- B = A + 1, A > 0, p(A), q(B).\np(X) :- X = 0.\nq(X) :- X = 1."
    theta = {V("X"): V("A"), V("Y"): V("B")}
    folds = []
    for reduce in (False, True):
        st = TransformationState(parse_program(text))
        d = st.apply_definition(_def("n(X) :- X = Y - 1, p(X), q(Y)."))
        reduced = lia.reduction(st.clause(1).constraint) if reduce else None
        folds.append(st.apply_fold(1, [0, 1], d.cid, theta, reduced))
    assert folds[0] == folds[1]
    assert clauses_equivalent(folds[0], _def("h(A) :- A > 0, n(A)."))
    st = TransformationState(parse_program(text))
    d = st.apply_definition(_def("n(X) :- X = Y - 1, p(X), q(Y)."))
    with pytest.raises(ValueError):
        st.apply_fold(1, [0, 1], d.cid, theta, lia.reduction(conj("B = A + 1")))


# --- R4 ---------------------------------------------------------------------

def test_replace_deletes_unsatisfiable(st):
    # unfold the goal's su atom with the recursive clause, then force a
    # contradiction via the base clause of sq
    goal = goal_of(st.current)
    out = st.apply_unfold(goal.cid, 0)
    # removing a satisfiable clause must fail, also on its reduction, fresh
    # or holding its decision, and leave the state as it was
    current, trace = st.current, list(st.trace)
    c = out[0].constraint
    decided = lia.reduction(c)
    assert lia.is_satisfiable(c, reduced=decided) is lia.Verdict.PROVED
    for reduced in (None, lia.reduction(c), decided):
        with pytest.raises(EquivalenceNotProved):
            st.apply_replace([out[0].cid], [], reduced)
    assert st.current == current and st.trace == trace


def _r4_atoms(rng):
    """Random atoms over X, Y and Z: bounds, which often clash, and
    equalities and disequalities between two variables, which Gauss or a
    case split can refute."""
    atoms = []
    for _ in range(rng.randint(1, 4)):
        x, y = rng.sample(("X", "Y", "Z"), 2)
        k = rng.randint(-3, 3)
        shifted = f"{y} + {k}" if k >= 0 else f"{y} - {-k}"
        atoms.append(rng.choice([
            f"{x} >= {k}",
            f"{x} =< {k}",
            f"{x} = {shifted}",
            f"{x} =\\= {shifted}",
            f"{rng.choice([1, 2, 3])}*{x} < {shifted}",
        ]))
    return atoms


def test_replace_deletion_with_a_reduction_matches_the_recheck_without():
    """Over seeded random constraints, a deletion checked on the clause's
    reduction, fresh, decided first, or grown from its first atom's and
    decided first as the strategy decides it, deletes the clause or refuses
    with the verdict that the check without a reduction gives."""
    rng = random.Random(16)
    seen = collections.Counter()
    for _ in range(300):
        text = "p(X,Y,Z) :- " + ", ".join(_r4_atoms(rng)) + "."
        outcomes = []
        for how in ("none", "fresh", "decided", "grown"):
            st = TransformationState(parse_program(text))
            c = st.clause(1).constraint
            reduced = None
            if how == "grown":
                prefix = lia.reduction(ConstraintConj(c.atoms[:1]))
                reduced = lia.reduction(c, base=prefix)
            elif how != "none":
                reduced = lia.reduction(c)
            if how in ("decided", "grown"):
                lia.is_satisfiable(c, reduced=reduced)
            try:
                st.apply_replace([1], [], reduced)
            except EquivalenceNotProved as e:
                outcomes.append(e.verdict)
            else:
                assert not st.clauses
                outcomes.append("deleted")
        assert len(set(outcomes)) == 1, (text, outcomes)
        seen[outcomes[0]] += 1
    assert seen["deleted"] >= 20 and seen[lia.Verdict.PROVED] >= 20, seen


def test_replace_swaps_equivalent_constraint(st):
    (c,) = st.apply_replace([1], [conj("X =< 0, R = Sum")])
    assert print_clause(c) == "su(X,R,Sum) :- X =< 0, R = Sum."


def test_replace_rejects_nonequivalent(st):
    with pytest.raises(EquivalenceNotProved) as e:
        st.apply_replace([1], [conj("X =< 1, Sum = R")])
    assert e.value.verdict is not None


def test_replace_shape_mismatch(st):
    with pytest.raises(ShapeMismatch):
        st.apply_replace([2, 3], [conj("X = 0")])


def test_replace_refuses_a_repeated_clause(st):
    """A group names each clause once: [1, 1] would count clause 1 as two
    disjuncts. It is refused before the state changes."""
    current, trace = st.current, list(st.trace)
    for new in ([conj("X =< 0, R = Sum")], []):
        with pytest.raises(ShapeMismatch):
            st.apply_replace([1, 1], new)
    assert st.current == current and st.trace == trace


@pytest.mark.parametrize(
    "text, group, message",
    [
        (None, [], "empty clause group"),
        (None, [1, 4], "head predicates differ"),
        ("p(X) :- X > 0, q(X).\np(Y) :- Y > 2, r(Y).", [1, 2], "body predicates differ"),
        ("p(X,Y) :- X > 0, q(X,Y).\np(X,X) :- X > 2, q(X,X).", [1, 2], "not renamings"),
    ],
)
def test_replace_group_refusals_leave_the_state(sum_square, text, group, message):
    st = TransformationState(sum_square if text is None else parse_program(text))
    before = _snapshot(st)
    for new in ([conj("X > 0")], []):
        with pytest.raises(ShapeMismatch, match=message):
            st.apply_replace(group, new)
        assert _snapshot(st) == before


def test_replace_groups_variants():
    p = parse_program("p(X) :- X > 0, q(X).\np(Y) :- Y > 2, q(Y).")
    st = TransformationState(p)
    out = st.apply_replace([1, 2], [conj("X > 0")])
    assert len(out) == 1 and print_clause(out[0]) == "p(X) :- X > 0, q(X)."


def test_replace_renames_member_locals_apart_from_reference():
    # the second clause's local X must not be captured by the reference's
    # head variable X, which would read X = X + 2 and lose the disjunct X > 2
    p = parse_program(
        "p(X) :- X = Z + 5, Z > 0, q(X).\np(Y) :- Y = X + 2, X > 0, q(Y)."
    )
    st = TransformationState(p)
    (out,) = st.apply_replace([1, 2], [conj("X > 2")])
    assert print_clause(out) == "p(X) :- X > 2, q(X)."


def test_replace_identity(st):
    before = st.clause(2)
    (after,) = st.apply_replace([2], [before.constraint])
    assert after.constraint == before.constraint


# --- validators & trace -----------------------------------------------------

def test_sum_square_script_classification(sum_square):
    st = run_sum_square_script()
    ok, offenders = check_all_defs_unfolded(st.trace)
    assert ok and not offenders
    rep = classify_sequence(st.trace)
    assert rep.no_self_unfolding is True
    assert rep.all_foldings_reversible is False  # the definition left P before folding


def test_sum_square_script_reaches_p4(sum_square):
    st = run_sum_square_script()
    golden = parse_program(
        """
false :- Sum > Sqr, M >= 0, M = N, R0 = 0, S0 = 0, su_sq(M,R0,Sum,N,S0,Sqr).
su(X,R,Sum) :- X =< 0, Sum = R.
su(X,R,Sum) :- X > 0, R1 = R + X, X1 = X - 1, su(X1,R1,Sum).
sq(K,Y,S0,S) :- Y =< 0, S = S0.
sq(K,Y,S0,S) :- Y > 0, Y1 = Y - 1, S1 = S0 + K, sq(K,Y1,S1,S).
su_sq(M,R0,Sum,N,S0,Sqr) :- M =< 0, Sum = R0, Sqr = S0.
su_sq(M,R0,Sum,N,S0,Sqr) :- M > 0, M1 = M - 1, R1 = R0 + M, S1 = S0 + N, su_sq(M1,R1,Sum,N,S1,Sqr).
"""
    )
    from helpers import assert_programs_equal

    assert_programs_equal(st.current, golden)


def test_unfolded_definition_not_flagged(sum_square):
    st = TransformationState(sum_square)
    st.apply_definition(
        _def("su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr).")
    )
    ok, offenders = check_all_defs_unfolded(st.trace)
    assert not ok and offenders == [st.defs[0].cid]


def test_empty_trace_classifies_true():
    rep = classify_sequence([])
    assert rep.no_self_unfolding and rep.all_foldings_reversible


def test_reversible_flag_positive():
    p = parse_program("h(A) :- A = 0, p(A).\np(X) :- X = 0.")
    st = TransformationState(p)
    d = st.apply_definition(_def("n(X) :- p(X)."))
    st.apply_fold(1, [0], d.cid, {V("X"): V("A")})
    assert st.trace[-1].reversible_folding is True
    rep = classify_sequence(st.trace)
    assert rep.all_foldings_reversible is True


def test_trace_round_trip():
    st = run_sum_square_script()
    text = "".join(step.line(i + 1) + "\n" for i, step in enumerate(st.trace))
    steps = parse_trace(text)
    assert [s.rule for s in steps] == [s.rule for s in st.trace]
    assert [s.inputs for s in steps] == [s.inputs for s in st.trace]
    assert [s.self_unfolding for s in steps] == [s.self_unfolding for s in st.trace]


@pytest.mark.parametrize("text, line", [
    ("STEP 1\n", 1),
    ("STEP 1 UNFOLDING in= out=2 pos=0 flags=self_unfolding:0\n", 1),
    ("STEP 1 UNFOLDING in=1 out=2\n", 1),
    ("PAIR clause=1\nSTEP 1 UNFOLDING in=1 out=2 pos=0 flags=self_unfolding:0\n"
     "STEP 2 UNFOLDING 4 in=2 out=3 pos=0 flags=self_unfolding:0\n", 3),
    ("STEP 1 DEFINITION in= out=5,6 flags=\n", 1),
    ("STEP 1 FOLDING in=1 out=2 def=x flags=reversible_folding:1\n", 1),
    ("STEP 1 FOLDING in=1 out=2 def=3 flags=reversible_folding:2\n", 1),
    ("STEP 1 CONSTRAINT_REPLACEMENT in= out= flags=\n", 1),
    ("STEP 1 CONSTRAINT_REPLACEMENT in=1 out= pos=0 flags=\n", 1),
    ("STEP 1 CONSTRAINT_REPLACEMENT in=1 in=2 out= flags=\n", 1),
])
def test_parse_trace_refuses_malformed_steps_with_their_line(text, line):
    with pytest.raises(ValueError, match=f"^trace line {line}: "):
        parse_trace(text)


def _validate_trace(text):
    steps = parse_trace(text)
    check_all_defs_unfolded(steps)
    classify_sequence(steps)


def test_mutated_traces_raise_only_value_errors_with_their_line():
    golden = Path(__file__).parent / "golden" / "transform"
    texts = list(line_chunks(sorted(golden.glob("*.trace"))))
    n, failures = mutant_failures(_validate_trace, texts, seed=14, seconds=2, most=3000)
    assert n >= 300 and failures
    bad = [
        (t, e) for t, e in failures
        if not isinstance(e, ValueError) or not str(e).startswith("trace line ")
    ]
    assert not bad, bad[:3]


def test_determinism_of_rule_application(sum_square):
    st1 = run_sum_square_script()
    st2 = run_sum_square_script()
    assert [print_clause(c) for c in st1.current] == [print_clause(c) for c in st2.current]
    assert st1.trace == st2.trace


# --- bounded-model preservation across single unfold steps ------------------

def test_unfold_preserves_bounded_model():
    rng = random.Random(99)
    budget = OracleBudget(6, -4, 4)
    doubled = OracleBudget(12, -4, 4)
    tried = 0
    for _ in range(40):
        p = random_definite_program(rng)
        st = TransformationState(p)
        candidates = [
            (c.cid, i)
            for c in st.clauses.values()
            for i in range(len(c.body))
        ]
        if not candidates:
            continue
        cid, pos = rng.choice(candidates)
        before = bounded_lm(st.current, budget)
        st.apply_unfold(cid, pos)
        after_k = bounded_lm(st.current, budget)
        after_2k = bounded_lm(st.current, doubled)
        before_2k = bounded_lm(p, doubled)
        assert before <= after_2k
        assert after_k <= before_2k
        tried += 1
    assert tried >= 20
