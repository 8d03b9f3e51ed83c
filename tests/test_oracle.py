import collections
import gc
import random
import time
import weakref
from pathlib import Path

import pytest

from chcpair import (
    ConstraintConj,
    Found,
    GroundAtom,
    NotWithinBudget,
    OracleBudget,
    Program,
    bounded_lm,
    corpus,
    equisat_probe,
    false_derivable,
    parse_program,
    print_program,
)
from chcpair import boxes, oracle
from chcpair.errors import ArrayUnsupported
from chcpair.oracle import ProbeReport
from chcpair.pairing import PairingConfig, duplicate_cone, iterate_pairing
from chcpair.syntax import Atom, Clause, Rel, renumbered

from helpers import random_definite_program

ARRAY_ENTRIES = ("array_loop", "loop_pipelining")
PN = Path(__file__).resolve().parents[1] / "bench_e2e" / "inputs" / "pn"


def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(0, 0, 1)
    with pytest.raises(ValueError):
        OracleBudget(2, 3, 1)


def test_bounded_lm_sum_upto(sum_upto):
    lm = bounded_lm(sum_upto.definite(), OracleBudget(4, 0, 3))
    assert GroundAtom("su", (0, 0, 0)) in lm
    assert GroundAtom("su", (1, 0, 1)) in lm
    assert GroundAtom("su", (2, 0, 3)) in lm
    assert GroundAtom("su", (2, 0, 2)) not in lm
    # semantics check: derived sums satisfy Sum = R + X*(X+1)/2
    for ga in lm:
        x, r, s = ga.args
        assert s == r + x * (x + 1) // 2


def test_bounded_lm_empty_program():
    assert bounded_lm(Program([]), OracleBudget(3, 0, 1)) == set()


def test_bounded_lm_single_fact():
    p = parse_program("p(X) :- X = 0.")
    for depth in (1, 5):
        assert bounded_lm(p, OracleBudget(depth, -2, 2)) == {GroundAtom("p", (0,))}


def test_bounded_lm_rejects_goals(sum_upto):
    with pytest.raises(ValueError):
        bounded_lm(sum_upto, OracleBudget(2, 0, 1))


def test_bounded_lm_rejects_arrays():
    from chcpair import corpus

    with pytest.raises(ArrayUnsupported):
        bounded_lm(corpus.load("array_loop"), OracleBudget(2, 0, 1))


def test_bounded_lm_monotone():
    rng = random.Random(5)
    for _ in range(20):
        p = random_definite_program(rng)
        small = bounded_lm(p, OracleBudget(3, -2, 2))
        deeper = bounded_lm(p, OracleBudget(5, -2, 2))
        wider = bounded_lm(p, OracleBudget(3, -3, 3))
        assert small <= deeper
        assert small <= wider


def test_false_derivable_hl(hl):
    res = false_derivable(hl, OracleBudget(6, 0, 3))
    assert isinstance(res, Found)
    goal = hl.clause(res.goal_id)
    assert boxes.eval_conj(goal.constraint, res.valuation)


def test_false_derivable_satisfiable_program(sum_upto):
    assert isinstance(false_derivable(sum_upto, OracleBudget(6, 0, 3)), NotWithinBudget)


def test_false_derivable_trivial_goal():
    p = parse_program("p(X) :- X = 0.\nfalse.")
    assert isinstance(false_derivable(p, OracleBudget(1, 0, 1)), Found)


def test_equisat_probe_identical(hl):
    rep = equisat_probe(hl, hl, OracleBudget(4, 0, 3))
    assert rep.agreement
    assert isinstance(rep.p0_budget, Found) and isinstance(rep.pn_budget, Found)


def test_equisat_probe_hl_after_pairing(hl):
    res = iterate_pairing(hl, [], PairingConfig(iterate=True))
    rep = equisat_probe(hl, res.transf, OracleBudget(6, 0, 3))
    assert rep.agreement
    assert isinstance(rep.p0_budget, Found) and isinstance(rep.pn_budget, Found)


def test_equisat_probe_ackermann(ackermann, ackermann_golden):
    rep = equisat_probe(ackermann, ackermann_golden, OracleBudget(4, 0, 2))
    assert rep.agreement
    assert isinstance(rep.p0_budget, NotWithinBudget)
    assert isinstance(rep.pn_budget, NotWithinBudget)


_F, _N = Found(1, {}), NotWithinBudget()


@pytest.mark.parametrize(
    "p0_budget, pn_budget, p0_doubled, pn_doubled, agree",
    [
        (_F, _N, _F, _N, False),  # P0's violation is not found in Pn at the doubled budget
        (_N, _F, _N, _F, False),  # Pn's violation is not found in P0 at the doubled budget
        (_F, _F, _F, _F, True),
    ],
)
def test_probe_agreement_table(p0_budget, pn_budget, p0_doubled, pn_doubled, agree):
    assert ProbeReport(p0_budget, pn_budget, p0_doubled, pn_doubled).agreement is agree


# --- differential checks against full enumeration ------------------------------
#
# The reference below enumerates the full cross product of known facts for
# every body and keeps, after the first level, the combinations that use at
# least one fact new at the last level: the oracle's semantics, without its
# semi-naive indexed join.


def _reference_bindings(body, facts_per_pred, delta_per_pred, need_delta):
    n = len(body)

    def rec(k, env, used_delta):
        if k == n:
            if not need_delta or used_delta:
                yield dict(env)
            return
        atom = body[k]
        pool = facts_per_pred.get(atom.pred, set())
        dpool = delta_per_pred.get(atom.pred, set())
        for vals in pool:
            ok = True
            touched = []
            for v, x in zip(atom.args, vals):
                if v in env:
                    if env[v] != x:
                        ok = False
                        break
                else:
                    env[v] = x
                    touched.append(v)
            if ok:
                yield from rec(k + 1, env, used_delta or vals in dpool)
            for v in touched:
                env.pop(v)

    yield from rec(0, {}, False)


def _system(c):
    return boxes.lower_conj(ConstraintConj(c.constraint.lin_atoms()), var_order=c.vars())


def _reference_lm(p, b):
    systems = {c.cid: _system(c) for c in p.clauses}
    total, delta = {}, {}
    for level in range(b.depth):
        new = {}
        for c in p.clauses:
            for env in _reference_bindings(c.body, total, delta, need_delta=level > 0):
                for full in boxes.solutions(systems[c.cid], b.lo, b.hi, fixed=env):
                    vals = tuple(full[v] for v in c.head.args)
                    if all(b.lo <= x <= b.hi for x in vals):
                        if vals not in total.get(c.head.pred, set()):
                            new.setdefault(c.head.pred, set()).add(vals)
        if not any(new.values()):
            break
        delta = new
        for pred, tuples in new.items():
            total.setdefault(pred, set()).update(tuples)
    return {GroundAtom(pred, vals) for pred, s in total.items() for vals in s}


def _reference_violated(p, b):
    facts = {}
    for ga in _reference_lm(p.definite(), b):
        facts.setdefault(ga.pred, set()).add(ga.args)
    return any(
        boxes.find_solution(_system(goal), b.lo, b.hi, fixed=env) is not None
        for goal in p.goals()
        for env in _reference_bindings(goal.body, facts, {}, need_delta=False)
    )


def _assert_oracle_matches_reference(p, b):
    assert bounded_lm(p.definite(), b) == _reference_lm(p.definite(), b)
    res = false_derivable(p, b)
    assert isinstance(res, Found) == _reference_violated(p, b)
    if isinstance(res, Found):
        goal = p.clause(res.goal_id)
        assert boxes.eval_conj(goal.constraint, res.valuation)


def _random_joins(rng):
    """Clauses whose bodies join two atoms on shared and repeated variables."""
    lines = [
        "p(X,Y) :- X = 0, Y = 1.",
        "p(X,Y) :- X = 1, Y = 1.",
        "q(X,Y) :- X = Y, X >= 0, X =< 1.",
    ]
    for _ in range(rng.randint(2, 4)):
        head = rng.choice(["p(A,C)", "q(C,A)", "r(A,B,C)", "r(A,A,C)"])
        body = rng.choice(
            ["p(A,B), q(B,C)", "q(A,B), p(B,C)", "p(A,A), q(A,C)", "r(A,B,C), p(B,B)", "p(A,B), p(C,A)"]
        )
        if head.startswith("r") and "B" not in body:
            body += ", q(B,C)"
        shift = rng.choice(["C = C", f"C =< A + {rng.randint(0, 2)}", f"A =\\= {rng.randint(0, 2)}"])
        lines.append(f"{head} :- {body}, {shift}.")
    return parse_program("\n".join(lines))


def _with_random_goals(p, rng):
    arity = {c.head.pred: len(c.head.args) for c in p.clauses}
    goals = []
    for _ in range(2):
        pr1, pr2 = rng.choice(sorted(arity)), rng.choice(sorted(arity))
        xs = [f"X{i}" for i in range(arity[pr1])]
        ys = [f"Y{i}" for i in range(arity[pr2])]
        ys[0] = xs[-1] if rng.random() < 0.5 else ys[0]
        goals.append(
            f"false :- {pr1}({','.join(xs)}), {pr2}({','.join(ys)}), "
            f"{xs[0]} >= {ys[-1]} + {rng.randint(0, 3)}."
        )
    return parse_program(print_program(p) + "\n" + "\n".join(goals))


def test_oracle_matches_full_enumeration_on_random_programs():
    rng = random.Random(17)
    deadline = time.monotonic() + 4.0
    cases = found = 0
    while cases < 120 and time.monotonic() < deadline:
        p = random_definite_program(rng) if cases % 2 else _random_joins(rng)
        p = _with_random_goals(p, rng)
        b = OracleBudget(rng.randint(1, 5), rng.randint(-2, 0), rng.randint(1, 3))
        _assert_oracle_matches_reference(p, b)
        found += isinstance(false_derivable(p, b), Found)
        cases += 1
    assert cases >= 30 and 0 < found < cases


def _random_links(rng):
    """Clauses whose constraints link body atoms through an intermediate
    variable T: with unit and non-unit coefficients, with T forced outside
    any box of the test (A >= -2, so T >= 4), and with a disequality across
    the atoms."""
    lines = [
        "p(X,Y) :- X = 0, Y = 1.",
        "p(X,Y) :- X = 1, Y = 0.",
        f"q(X) :- X >= {rng.randint(-2, 0)}, X =< {rng.randint(0, 2)}.",
    ]
    for _ in range(rng.randint(2, 4)):
        head = rng.choice(["p(C,D)", "q(C)", "r(A,C)", "r(C,D)"])
        body = rng.choice(
            ["p(A,B), q(C)", "q(A), p(B,C)", "p(A,B), p(C,D)", "r(A,B), q(C)", "q(A), r(C,D)"]
        )
        k = rng.randint(-2, 2)
        plus_k = f"+ {k}" if k >= 0 else f"- {-k}"
        link = rng.choice(
            [
                f"T = A {plus_k}, C = T + B",
                f"T = 2*A {plus_k}, 2*C = T - B",
                f"T = A + 6, C = T - 6 {plus_k}",
                f"T = A - B, A =\\= C, D = T {plus_k}",
                f"C - A =\\= {k}, T = C + D",
            ]
        )
        lines.append(f"{head} :- {body}, {link}.")
    return parse_program("\n".join(lines))


def test_oracle_matches_full_enumeration_on_linked_programs():
    rng = random.Random(41)
    deadline = time.monotonic() + 4.0
    cases = found = 0
    while cases < 120 and time.monotonic() < deadline:
        p = _with_random_goals(_random_links(rng), rng)
        b = OracleBudget(rng.randint(1, 4), rng.randint(-2, 0), rng.randint(1, 3))
        _assert_oracle_matches_reference(p, b)
        found += isinstance(false_derivable(p, b), Found)
        cases += 1
    assert cases >= 30 and 0 < found < cases


def test_fib_monotonicity_probe_runs_few_box_plans(monkeypatch):
    # The constraint of each clause rejects most bindings of its body: they
    # must be dropped in the join, before any box plan runs.
    calls = []
    run = boxes.run
    monkeypatch.setattr(boxes, "run", lambda *a, **k: calls.append(1) or run(*a, **k))
    pn = parse_program((PN / "fib_monotonicity.chc").read_text())
    rep = equisat_probe(corpus.load("fib_monotonicity"), pn, OracleBudget(6, 0, 3))
    assert rep.pn_budget == rep.pn_doubled == NotWithinBudget()
    assert len(calls) <= 2000


@pytest.mark.parametrize("name", [n for n in corpus.NAMES if n not in ARRAY_ENTRIES])
def test_oracle_matches_full_enumeration_on_corpus(name):
    _assert_oracle_matches_reference(corpus.load(name), OracleBudget(5, 0, 3))


# --- the resumed evaluation of equisat_probe ------------------------------------
#
# equisat_probe evaluates each side once: to the budget's depth, then on to
# the doubled depth. Its four answers must be those of four independent
# false_derivable calls, each evaluating from level 0.

# Violated only from height 9 on: past a budget of depth 6, within its double.
_COUNTER = "p(0).\np(X1) :- p(X), X1 = X + 1.\nfalse :- p(X), X >= 8."


def test_doubled_probe_resumes_past_the_budget():
    p = parse_program(_COUNTER)
    rep = equisat_probe(p, p, OracleBudget(6, 0, 10))
    assert rep.p0_budget == rep.pn_budget == NotWithinBudget()
    (x,) = p.goals()[0].body[0].args
    assert rep.p0_doubled == rep.pn_doubled == Found(p.goals()[0].cid, {x: 8})
    assert rep.p0_doubled == false_derivable(p, OracleBudget(12, 0, 10))


def test_resumed_model_must_be_within_the_budget():
    from chcpair.oracle import _Evaluator

    p = parse_program(_COUNTER)
    model = _Evaluator(p, 0, 10)
    model.run_to(9)
    with pytest.raises(ValueError):
        false_derivable(p, OracleBudget(6, 0, 10), model=model)
    with pytest.raises(ValueError):
        false_derivable(p, OracleBudget(9, 0, 9), model=model)
    assert isinstance(false_derivable(p, OracleBudget(9, 0, 10), model=model), Found)
    # an evaluation of another program, in the right box and not too deep
    p = parse_program("p(0).\nfalse :- p(X), X >= 0.")
    q = parse_program("q(1).\nfalse :- q(X), X >= 5.")
    with pytest.raises(ValueError):
        false_derivable(q, OracleBudget(2, 0, 3), model=_Evaluator(p, 0, 3))
    assert false_derivable(q, OracleBudget(2, 0, 3)) == NotWithinBudget()


def test_probe_matches_independent_calls_on_random_programs():
    rng = random.Random(29)
    deadline = time.monotonic() + 4.0
    cases = grew = found = 0
    while cases < 80 and time.monotonic() < deadline:
        p0, pn = (
            _with_random_goals(random_definite_program(rng) if k % 2 else _random_joins(rng), rng)
            for k in range(cases, cases + 2)
        )
        b = OracleBudget(rng.randint(1, 3), rng.randint(-2, 0), rng.randint(1, 3))
        rep = equisat_probe(p0, pn, b)
        want = [false_derivable(p, bb) for bb in (b, b.doubled()) for p in (p0, pn)]
        assert [rep.p0_budget, rep.pn_budget, rep.p0_doubled, rep.pn_doubled] == want
        assert [isinstance(r, Found) for r in want] == [
            _reference_violated(p, bb) for bb in (b, b.doubled()) for p in (p0, pn)
        ]
        for p in (p0, pn):
            grew += bounded_lm(p.definite(), b) != bounded_lm(p.definite(), b.doubled())
        found += sum(isinstance(r, Found) for r in want)
        cases += 1
    # depths that stop before the fixpoint, and after it
    assert cases >= 20 and 0 < grew < 2 * cases
    assert 0 < found < 4 * cases


# --- one compile per clause shape ---------------------------------------------
#
# An evaluation compiles each clause shape once (head arguments, constraint,
# body arguments) and binds the rule to each clause's id and predicates;
# equisat_probe shares one table between its two sides.

_SHIFTED = "p(0).\np(X1) :- p(X), X1 = X + 1.\nfalse :- p(X), X >= 3."


def test_shared_goal_reports_its_own_id():
    p0 = parse_program(_SHIFTED)
    pn = parse_program("r(5).\n" + _SHIFTED)
    assert p0.goals()[0].cid != pn.goals()[0].cid
    b = OracleBudget(6, 0, 10)
    rep = equisat_probe(p0, pn, b)
    assert rep.pn_budget == Found(pn.goals()[0].cid, {pn.goals()[0].body[0].args[0]: 3})
    want = [false_derivable(p, bb) for bb in (b, b.doubled()) for p in (p0, pn)]
    assert [rep.p0_budget, rep.pn_budget, rep.p0_doubled, rep.pn_doubled] == want


def _with_cone_copy(p, pred, extra=""):
    """p's definite clauses, a copy of pred's cone renamed apart, `extra`
    clauses, then p's goals and their copies over the renamed predicates."""
    copies, mapping = duplicate_cone(p.definite().clauses, pred)

    def rename(a):
        return Atom(mapping.get(a.pred, a.pred), a.args)

    goals = [Clause(0, None, g.constraint, tuple(map(rename, g.body))) for g in p.goals()]
    more = list(parse_program(extra).clauses) if extra else []
    return Program(renumbered([*p.definite().clauses, *copies, *more, *p.goals(), *goals])), mapping


def test_cone_copies_derive_the_same_facts_under_their_own_names():
    p = parse_program("p(0).\np(X1) :- p(X), X1 = X + 2.\nq(Y) :- p(X), r(X), Y = X + 1.\nr(2).")
    # r(4) is a fact of the original r alone: q differs from its copy q_2
    pn, mapping = _with_cone_copy(p, "q", extra="r(4).")
    assert mapping == {"p": "p_2", "q": "q_2", "r": "r_2"}
    b = OracleBudget(4, 0, 9)
    lm = bounded_lm(pn, b)
    back = {v: k for k, v in mapping.items()}
    copied = {GroundAtom(back[a.pred], a.args) for a in lm if a.pred in back}
    assert copied == bounded_lm(p, b) == _reference_lm(p, b)
    extended = Program(renumbered([*p.clauses, *parse_program("r(4).").clauses]))
    assert {a for a in lm if a.pred not in back} == bounded_lm(extended, b)
    assert lm == _reference_lm(pn, b)


def test_fib_fundep_probe_compiles_each_shape_once(monkeypatch):
    calls = []
    compile_ = oracle._compile
    monkeypatch.setattr(oracle, "_compile", lambda *a: calls.append(a[0]) or compile_(*a))
    p0 = corpus.load("fib_fundep")
    pn = parse_program((PN / "fib_fundep.chc").read_text())
    assert len(p0) + len(pn) == 32
    equisat_probe(p0, pn, OracleBudget(6, 0, 3))
    assert len(calls) == 20


def test_probe_rules_do_not_outlive_the_probe(monkeypatch):
    refs = []
    compile_ = oracle._compile

    def tracked(c, lo, hi):
        r = compile_(c, lo, hi)
        refs.append(weakref.ref(r))
        return r

    monkeypatch.setattr(oracle, "_compile", tracked)
    pn = parse_program((PN / "hl.chc").read_text())
    rep = equisat_probe(corpus.load("hl"), pn, OracleBudget(6, 0, 3))
    assert isinstance(rep.pn_budget, Found)
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_probe_with_renamed_cones_matches_independent_calls_on_random_programs():
    rng = random.Random(53)
    deadline = time.monotonic() + 4.0
    cases = found = 0
    while cases < 80 and time.monotonic() < deadline:
        p0 = random_definite_program(rng) if cases % 2 else _random_joins(rng)
        p0 = _with_random_goals(p0, rng)
        arity = {c.head.pred: len(c.head.args) for c in p0.definite()}
        pred = rng.choice(sorted(arity))
        # one more fact for pred, so that the original and its copy differ
        args = ",".join(f"X{i}" for i in range(arity[pred]))
        eqs = ", ".join(f"X{i} = {rng.randint(-1, 2)}" for i in range(arity[pred]))
        pn, _ = _with_cone_copy(p0, pred, extra=f"{pred}({args}) :- {eqs}.")
        b = OracleBudget(rng.randint(1, 3), rng.randint(-2, 0), rng.randint(1, 3))
        rep = equisat_probe(p0, pn, b)
        want = [false_derivable(p, bb) for bb in (b, b.doubled()) for p in (p0, pn)]
        assert [rep.p0_budget, rep.pn_budget, rep.p0_doubled, rep.pn_doubled] == want
        assert [isinstance(r, Found) for r in want] == [
            _reference_violated(p, bb) for bb in (b, b.doubled()) for p in (p0, pn)
        ]
        assert bounded_lm(pn.definite(), b) == _reference_lm(pn.definite(), b)
        found += sum(isinstance(r, Found) for r in want)
        cases += 1
    assert cases >= 20 and 0 < found < 4 * cases


def test_a_goal_witness_that_violates_its_constraint_is_refused(monkeypatch):
    p = parse_program("p(X) :- X = 1.\nfalse :- X >= 0, p(X).")
    goal = p.goals()[0]
    ev = oracle._Evaluator(p, 0, 3)
    ev.run_to(2)
    assert ev.violation() == Found(goal.cid, {goal.body[0].args[0]: 1})
    # a join that hands over a point outside the constraint is a fault
    monkeypatch.setattr(oracle._Rule, "solutions", lambda self, vals, limit: [(-1,) * len(vals)])
    with pytest.raises(RuntimeError, match=f"^goal {goal.cid}: .* violates its constraint$"):
        ev.violation()


# --- the elimination that pushes a clause's constraint into the join ----------
#
# oracle._eliminate runs the pivot search and step of `boxes`, which lia's
# Gauss runs too, but in its own order: each free slot in turn, through the
# first EQ row with a unit coefficient on it. The reference below does the
# same with a search-and-substitute loop of its own.


def _reference_eliminate(rows, free, lo, hi):
    free_set = set(free)
    work = list(rows)
    defs = []
    for x in free:
        for j, piv in enumerate(work):
            if piv[2] is Rel.EQ and piv[0].get(x) in (1, -1):
                break
        else:
            continue
        del work[j]
        s = piv[0][x]
        k, terms = -s * piv[1], {i: -s * c for i, c in piv[0].items() if i != x}
        for n, r in enumerate(work):
            if x in r[0]:
                work[n] = (*boxes.subst_row(r[0], r[1], x, r[0][x], terms, k), r[2])
        work.append(({i: -c for i, c in terms.items()}, lo - k, Rel.LE))
        work.append((dict(terms), k - hi, Rel.LE))
        defs.append((x, k, tuple(terms.items())))
    implied = []
    exact = len(defs) == len(free)
    for r in work:
        coeffs, k, rel = r
        if not free_set.isdisjoint(coeffs):
            continue
        mn = mx = k
        for c in coeffs.values():
            mn += c * (lo if c > 0 else hi)
            mx += c * (hi if c > 0 else lo)
        if rel is Rel.LE:
            holds = mx <= 0
        elif rel is Rel.EQ:
            holds = mn == mx == 0
        else:
            holds = mn > 0 or mx < 0
        if holds:
            continue
        if coeffs:
            implied.append(r)
        else:
            exact = False
    return implied, tuple(reversed(defs)) if exact else None


def _keyed_elimination(result):
    """An _eliminate result with every dict's keys in order, so that a
    comparison sees key order."""
    implied, defs = result
    return [(list(c.items()), k, rel) for c, k, rel in implied], defs


def _assert_eliminate_matches_the_reference(eliminate, rows, free, lo, hi):
    before = [(list(c.items()), k, rel) for c, k, rel in rows]
    want = _reference_eliminate(rows, free, lo, hi)
    got = eliminate(rows, free, lo, hi)
    assert _keyed_elimination(got) == _keyed_elimination(want), (rows, free, lo, hi)
    assert [(list(c.items()), k, rel) for c, k, rel in rows] == before
    return got


def test_eliminate_matches_the_reference_on_random_systems():
    """Seeded random systems of EQ, LE and NE rows, ground ones included,
    with unit and non-unit coefficients over free and bound slots: the
    implied rows and the definitions, in order and key order, are the
    reference's. In some, a free slot's first unit equality follows a row
    with a unit on a later free slot, where lia's order would pivot first."""
    rng = random.Random(35)
    seen = collections.Counter()
    deadline = time.monotonic() + 3.0
    cases = 0
    while cases < 4000 and time.monotonic() < deadline:
        nvars = rng.randint(1, 7)
        free = sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
        rows = []
        for _ in range(rng.randint(0, 7)):
            keys = rng.sample(range(nvars), rng.randint(0, min(nvars, 4)))
            coeffs = {i: rng.choice([-2, -1, 1, 1, 2, 3]) for i in keys}
            rows.append((coeffs, rng.randint(-3, 3), rng.choice([Rel.LE, Rel.EQ, Rel.EQ, Rel.NE])))
        lo = rng.randint(-2, 0)
        hi = rng.randint(lo, 3)
        implied, defs = _assert_eliminate_matches_the_reference(
            oracle._eliminate, rows, free, lo, hi)
        eqs = [c for c, _, rel in rows if rel is Rel.EQ]
        units = [[i for i in free if abs(c.get(i, 0)) == 1] for c in eqs]
        firsts = [u[0] for u in units if u]
        seen["out of lia's order"] += any(b < a for a, b in zip(firsts, firsts[1:]))
        seen["exact"] += defs is not None and bool(free)
        seen["not exact"] += defs is None
        seen["implied"] += bool(implied)
        seen["ground"] += any(not c for c, _, _ in rows)
        seen["non-unit"] += any(abs(x) > 1 for c in eqs for x in c.values())
        cases += 1
    assert cases >= 300
    for key in ("out of lia's order", "exact", "not exact", "implied", "ground", "non-unit"):
        assert seen[key] >= 20, (key, seen)


# the oracle workload's entries (bench_e2e/workloads.py)
ORACLE_NAMES = ("sum_upto", "sum_square", "sum_square_p4", "ackermann", "ackermann_transf",
                "hl", "loop_unswitching", "fib_fundep")


def test_eliminate_matches_the_reference_on_every_compile_of_the_oracle_workload(monkeypatch):
    """Every _eliminate call of one probe of P0 against the frozen Pn of each
    oracle workload entry, at the goldens' box, gives the reference's
    implied rows and definitions."""
    eliminate = oracle._eliminate
    calls = collections.Counter()

    def checked(rows, free, lo, hi):
        got = _assert_eliminate_matches_the_reference(eliminate, rows, free, lo, hi)
        calls["all"] += 1
        calls["exact"] += got[1] is not None and bool(free)
        return got

    monkeypatch.setattr(oracle, "_eliminate", checked)
    for name in ORACLE_NAMES:
        pn = parse_program((PN / f"{name}.chc").read_text())
        equisat_probe(corpus.load(name), pn, OracleBudget(6, 0, 3))
    assert calls["all"] > 100 and calls["exact"] > 50, calls
