"""Shared test utilities: clause/program comparison up to renaming,
body-atom order and constraint equivalence; scripted derivations."""

import random
import re
import time
from itertools import permutations

from chcpair import (
    Clause,
    ConstraintConj,
    PairingResult,
    Program,
    QuantDisj,
    TransformationState,
    Var,
    equiv_quant_disj,
    parse_program,
)
from chcpair.kernel import RuleKind
from chcpair.lia import Verdict, is_satisfiable, qd_true
from chcpair.models import SymbolicInterpretation, transport_definition


def conj(text: str) -> ConstraintConj:
    """Parse a constraint conjunction from the clause syntax."""
    return parse_program(f"dummy__ :- {text}.").clauses[0].constraint


def goal_of(p: Program) -> Clause:
    gs = p.goals()
    assert len(gs) == 1, f"expected one goal, found {len(gs)}"
    return gs[0]


def _skeleton_alignment(a: Clause, b: Clause, pred_map):
    """Yield variable maps aligning a's head/body skeleton onto b's."""
    mapped = lambda pr: pred_map.get(pr, pr)
    if (a.head is None) != (b.head is None):
        return
    if a.head is not None:
        if mapped(a.head.pred) != b.head.pred or len(a.head.args) != len(b.head.args):
            return
    if len(a.body) != len(b.body):
        return
    for perm in permutations(range(len(b.body))):
        ok = True
        for i, j in enumerate(perm):
            if mapped(a.body[i].pred) != b.body[j].pred or len(a.body[i].args) != len(
                b.body[j].args
            ):
                ok = False
                break
        if not ok:
            continue
        pairs = []
        if a.head is not None:
            pairs.extend(zip(a.head.args, b.head.args))
        for i, j in enumerate(perm):
            pairs.extend(zip(a.body[i].args, b.body[j].args))
        fwd, bwd = {}, {}
        good = True
        for x, y in pairs:
            if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
                good = False
                break
        if good:
            yield fwd


def clauses_equivalent(a: Clause, b: Clause, pred_map=None) -> bool:
    """Equality up to renaming, body order and constraint equivalence."""
    pred_map = pred_map or {}
    for fwd in _skeleton_alignment(a, b, pred_map):
        taken = {v.name for v in b.vars()} | {v.name for v in fwd.values()}
        theta = dict(fwd)
        lhs_ex = []
        for v in a.constraint.vars():
            if v not in theta:
                k = 0
                name = f"_lx{k}"
                while name in taken:
                    k += 1
                    name = f"_lx{k}"
                taken.add(name)
                nv = Var(name, v.sort)
                theta[v] = nv
                lhs_ex.append(nv)
        lhs = QuantDisj(tuple(lhs_ex), (a.constraint.subst(theta),))
        skel_b = set(fwd.values())
        rhs_ex = tuple(v for v in b.constraint.vars() if v not in skel_b)
        rhs = QuantDisj(rhs_ex, (b.constraint,))
        if equiv_quant_disj(lhs, rhs) is Verdict.PROVED:
            return True
    return False


def match_programs(produced: Program, golden: Program, pred_map=None):
    """Perfect matching between clause sets; returns unmatched golden ids."""
    pred_map = pred_map or {}
    pool = list(produced.clauses)
    unmatched = []
    for g in golden.clauses:
        hit = None
        for i, c in enumerate(pool):
            if clauses_equivalent(c, g, pred_map):
                hit = i
                break
        if hit is None:
            unmatched.append(g.cid)
        else:
            pool.pop(hit)
    return unmatched, pool


def assert_programs_equal(produced: Program, golden: Program, pred_map=None):
    unmatched, leftover = match_programs(produced, golden, pred_map)
    assert not unmatched and not leftover, (
        f"unmatched golden clauses: {unmatched}; extra produced clauses: "
        f"{[c.cid for c in leftover]}"
    )


# ---------------------------------------------------------------------------
# Scripted Example-3-style derivation over the sum/square program


SUM_SQUARE_TEXT = """
false :- Sum > Sqr, M >= 0, M = N, N = Y, R0 = 0, S0 = 0, su(M,R0,Sum), sq(N,Y,S0,Sqr).
su(X,R,Sum) :- X =< 0, Sum = R.
su(X,R,Sum) :- X > 0, R1 = R + X, X1 = X - 1, su(X1,R1,Sum).
sq(K,Y,S0,S) :- Y =< 0, S = S0.
sq(K,Y,S0,S) :- Y > 0, Y1 = Y - 1, S1 = S0 + K, sq(K,Y1,S1,S).
"""

SUM_SQUARE_DEF = "su_sq(M,R0,Sum,N,S0,Sqr) :- M = Y, su(M,R0,Sum), sq(N,Y,S0,Sqr)."


def run_sum_square_script():
    """Replay the pairing derivation for sum/square through the kernel.

    Returns (state, p4_ids): the state after the full rule script and the
    ids of the clauses forming the final program.
    """
    p0 = parse_program(SUM_SQUARE_TEXT)
    goal = goal_of(p0)
    st = TransformationState(p0)
    d = st.apply_definition(parse_program(SUM_SQUARE_DEF).clauses[0])
    first = st.apply_unfold(d.cid, 0)
    u_top = st.apply_unfold(first[0].cid, 0)
    u_bot = st.apply_unfold(first[1].cid, 1)
    kept = []
    for c in u_top + u_bot:
        if is_satisfiable(c.constraint) is Verdict.DISPROVED:
            st.apply_replace([c.cid], [])
        else:
            kept.append(c)
    c8, c11 = kept
    (r12,) = st.apply_replace([c8.cid], [conj("M =< 0, Sum = R0, Sqr = S0")])
    (r13,) = st.apply_replace(
        [c11.cid], [conj("M > 0, X1 = M - 1, R1 = R0 + M, S1 = S0 + N, X1 = Y1")]
    )
    names = ["M", "R0", "Sum", "N", "Y", "S0", "Sqr"]
    st.apply_fold(goal.cid, [0, 1], d.cid, {Var(n): Var(n) for n in names})
    theta = {
        Var("M"): Var("X1"),
        Var("R0"): Var("R1"),
        Var("Sum"): Var("Sum"),
        Var("N"): Var("N"),
        Var("Y"): Var("Y1"),
        Var("S0"): Var("S1"),
        Var("Sqr"): Var("Sqr"),
    }
    st.apply_fold(r13.cid, [0, 1], d.cid, theta)
    return st


# ---------------------------------------------------------------------------
# Model transport along a recorded trace


def all_true_interpretation(p: Program) -> SymbolicInterpretation:
    entries = {}
    for c in p.clauses:
        if c.head is not None and c.head.pred not in entries:
            entries[c.head.pred] = (c.head.args, qd_true())
    return SymbolicInterpretation(entries)


def transport_along_trace(res: PairingResult, sigma: SymbolicInterpretation):
    """Apply the definition-transport across every R1 step of a pairing
    run's trace."""
    by_id = {c.cid: c for c in res.defs}
    for step in res.steps:
        if step.rule is RuleKind.DEFINITION:
            sigma = transport_definition(sigma, by_id[step.outputs[0]])
    return sigma


# ---------------------------------------------------------------------------
# Random definite toy programs for oracle cross-checks


def random_definite_program(rng: random.Random) -> Program:
    """A small random definite program with unit-coefficient constraints."""
    lines = []
    npreds = rng.randint(2, 3)
    preds = ["p", "q", "r"][:npreds]
    arities = {pr: rng.randint(1, 2) for pr in preds}

    def head(pr):
        vs = [f"X{i}" for i in range(arities[pr])]
        return f"{pr}({','.join(vs)})", vs

    for pr in preds:
        h, vs = head(pr)
        base = rng.randint(-1, 1)
        eqs = ", ".join(f"{v} = {base + i}" for i, v in enumerate(vs))
        lines.append(f"{h} :- {eqs}.")
    for _ in range(rng.randint(1, 3)):
        pr = rng.choice(preds)
        h, vs = head(pr)
        callee = rng.choice(preds)
        cvs = [f"Y{i}" for i in range(arities[callee])]
        parts = [f"{vs[0]} = {cvs[0]} + 1"]
        for v in vs[1:]:
            parts.append(f"{v} = {rng.choice(cvs + [str(rng.randint(0, 2))])}")
        for cv in cvs[1:]:
            parts.append(f"{cv} >= {rng.randint(-1, 0)}")
        lines.append(f"{h} :- {', '.join(parts)}, {callee}({','.join(cvs)}).")
    return parse_program("\n".join(lines))


# ---------------------------------------------------------------------------
# Parametric relational problems


def chain(k: int) -> str:
    """The clause text of k summing loops in sequence, under
    self-composition: the goal pairs two runs of the sequence on equal
    inputs and asks for different outputs. Its k-atom cone and repeated
    cone copies are what the corpus does not reach."""
    lines = []
    for i in range(1, k + 1):
        lines.append(f"l{i}(N,A,B) :- N =< 0, B = A.")
        lines.append(f"l{i}(N,A,B) :- N > 0, A1 = A + N, N1 = N - 1, l{i}(N1,A1,B).")
    body = ", ".join(f"l{i}(N,A{i-1},A{i})" for i in range(1, k + 1))
    lines.append(f"prog(N,A0,A{k}) :- {body}.")
    lines.append("false :- N1 = N2, X1 = X2, O1 =\\= O2, prog(N1,X1,O1), prog(N2,X2,O2).")
    return "\n".join(lines) + "\n"


_MUTANT_TOKEN = re.compile(r"\s+|[()]|[^\s()]+")


def one_edit_mutants(text: str, rng: random.Random):
    """Endless copies of text with one seeded edit each: a character
    deleted, inserted or replaced, or a token deleted, duplicated or
    replaced by another token of the text. Inserted characters come from
    the text itself and from '() -0'."""
    chars = sorted(set(text) | set("() -0"))
    tokens = _MUTANT_TOKEN.findall(text)
    words = sorted({t for t in tokens if not t.isspace()})
    while True:
        kind = rng.randrange(6)
        if kind < 3:
            i = rng.randrange(len(text))
            if kind == 0:
                yield text[:i] + text[i + 1:]
            else:
                keep = i + 1 if kind == 2 else i
                yield text[:i] + rng.choice(chars) + text[keep:]
        else:
            i = rng.randrange(len(tokens))
            new = (
                [] if kind == 3
                else [tokens[i], tokens[i]] if kind == 4
                else [rng.choice(words)]
            )
            yield "".join(tokens[:i] + new + tokens[i + 1:])


def line_chunks(paths, size=8):
    """The files' texts cut into pieces of `size` lines, for mutants that
    parse fast and still reach every line."""
    for path in paths:
        rows = path.read_text(encoding="utf-8").splitlines()
        for i in range(0, len(rows), size):
            yield "\n".join(rows[i:i + size]) + "\n"


def mutant_failures(parse, texts, seed: int, seconds: float, most: int):
    """Parse seeded one-edit mutants of the texts in turn, until `most`
    mutants or `seconds` have passed. Returns the number parsed and the
    (mutant, exception) of every mutant that parse refused."""
    rng = random.Random(seed)
    gens = [one_edit_mutants(t, rng) for t in texts]
    failures = []
    deadline = time.monotonic() + seconds
    n = 0
    while n < most and time.monotonic() < deadline:
        text = next(gens[n % len(gens)])
        n += 1
        try:
            parse(text)
        except Exception as exc:
            failures.append((text, exc))
    return n, failures
