"""Decision services for conjunctions of linear integer atoms.

The internal procedure is Fourier-Motzkin elimination over the rationals
with integer tightening (strict bounds become non-strict via -1, rows are
divided by their coefficient gcd with ceiling on the constant). Rational
unsatisfiability soundly implies integer unsatisfiability, which is the
direction every transformation-rule check needs. Positive (Proved)
satisfiability answers are only given with a concrete integer witness in
hand. Disequalities are handled by bounded case splitting; array atoms are
dropped before any query, which weakens antecedents and therefore keeps
every Proved entailment sound.

A query is decided in two steps. `_grow` reduces a conjunction: it lowers
the atoms through `boxes.index_rows` into the rows of `LinAtom.row()`
(sum(a*v) + k rel 0 with rel LE, EQ or NE), keeps them in one list in atom
order, and Gauss-reduces that list in place: every EQ row with a unit
coefficient defines a variable that is substituted away. It grows an
existing reduction the way an incremental SMT solver pushes a scope (de
Moura & Bjorner, "Z3: An Efficient SMT Solver", TACAS 2008): the new rows
are numbered after its variables, its Gauss definitions are substituted
into them, and Gauss resumes, without touching the old rows. `reduction(c)`
grows the empty reduction by c's linear atoms and records c. `_decide` then
runs the box probe on all rows as lowered when there are at most
`_PROBE_MAX_VARS` variables, and otherwise Fourier-Motzkin on each
disequality branch, with back-substitution towards each of its target
points; it returns the verdict with every point it verified. Since the old
rows come first and Gauss always pivots on the first EQ row with a unit
coefficient, a grown reduction, its answer and its witness are those of a
reduction from scratch, however long the chain of prefixes it grew from.
The pairing strategy relies on this: an unfolded clause's constraint starts
with its parent's, so it reduces the clause it unfolds once, grows each
child's reduction from it, and grows each grandchild's from its child's
(`reduction(c, base=...)`).
A reduction owns the answers asked of it, the way an incremental solver
scopes its state to a context: its decision, whose points serve both
satisfiability and eq_set, and its Proved or Disproved atom entailments are
memoised on it when first asked, and freed with it. A caller that holds
c's reduction passes it (`reduced=`) to the queries on c, which check only
that it records c; the module keeps no answer between calls.
Every entailment is decided by one core, `_entails(phi, reduced, psi_atoms)`:
does phi entail the disjunction of the conjunctions psi? It first settles
what phi's reduction alone settles: an unsatisfiable reduction, or a
Disproved decision memoised on it, proves it, and an atom whose row is
ground and true under the Gauss definitions is entailed and asked nothing,
so a psi whose atoms are all entailed proves it too. Only the negations of
the other atoms are asked, one query per choice of them, each extending
phi's reduction; Unknowns are handed to the installed resolver as the whole
conjunction. `entails_atom` asks it about one linear atom, on the caller's
reduction or one built for the call, after the memo and the atoms of c
itself (an array atom that c does not hold is Unknown); this is the test of
folding and of definition matching. `implies_quant_disj` reduces each
disjunct of its antecedent once and asks it about the consequent's
disjuncts. Verdicts of several checks are combined by `combine` alone.

`project` shares the Gauss pass. It lowers the atoms that mention an
eliminated variable once, and `_gauss_reduce` pivots on eliminated
variables alone, on the first by name within a row; Fourier-Motzkin then
eliminates the others on each branch of the disequalities that mention
one. The oracle shares the pivot search and step (in `boxes`), not the
pivot order.

Degenerate input note: on an unsatisfiable d, eq_set returns every pair,
since d entails anything; strategy code removes unsatisfiable clauses
before asking.

Witness filtering in eq_set (implied-equality detection as in Simplify,
Detlefs, Nelson & Saxe, JACM 2005, and model-based theory combination, de
Moura & Bjorner, SMT 2007): eq_set reads the points of d's one decision,
the one that also answers is_satisfiable. Past the box probe, one
Fourier-Motzkin run per disequality branch, up to the first branch that
yields the first point, back-substitutes every variable towards its own
distant target value, the i-th towards 1000*(i+1) and then towards
-1000*(i+1), and towards 0 only on a branch where neither gives a point.
A point is kept only if it holds on every row of d's atoms as lowered, read
by variable position, as is every Fourier-Motzkin point: the way a simplex
solver checks an assignment on its own tableau rows (Dutertre & de Moura,
"A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006). A candidate pair
(x, y) that a kept point w separates, with w[x] != w[y] or with x or y
absent from d's linear atoms (w can then give it any value), is dropped
without a query: eq_set groups b's variables by their values, and x meets
only its own group. This cannot change the answer: w satisfies d and one
of the two negations x < y, x > y, so that negation query cannot be
Disproved (a Disproved answer is sound over the integers),
entails_equality cannot return Proved, and eq_set counts anything but
Proved as "not equal". A pair
that every kept point leaves equal is settled by Gauss when it can be:
on an unsatisfiable reduction of d, or when x - y is ground 0 under d's
Gauss definitions, it is Proved, as its two negation queries would be
refuted. Only the rest are sent to entails_equality, and their queries
extend that reduction of d. The decision is memoised on the reduction,
since pair selection asks eq_set about every atom pair of one clause
constraint. The pairing strategy's R4 check makes it: each unfolded clause
is decided once, and the clause that survives keeps its reduction, points
included, for eq_set and the folding checks. A query that extends a
reduction answers once and is thrown away, so it aims at 0 alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, product
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from . import boxes
from .syntax import (
    Atom,
    ConstraintAtom,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Rel,
    Sort,
    Var,
    false_atom,
    fresh_name,
    fresh_renaming,
)
from .errors import SortMismatch

NEQ_SPLIT_CAP = 64      # max disequality case splits per query (2^6)
DNF_CAP = 1024          # max disjuncts when distributing to DNF (2^10)
_PROBE_BOX = 2          # quick witness probe over [-2,2]^n
_PROBE_MAX_VARS = 6
_FM_ROW_CAP = 20000
_WITNESS_SPREAD = 1000  # gap between the target values of a decision's points


class Verdict(enum.Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class QuantDisj:
    """Existentially quantified disjunction of constraint conjunctions."""

    exists: tuple[Var, ...] = ()
    disjuncts: tuple[ConstraintConj, ...] = (ConstraintConj(),)
    exact: bool = field(default=True, compare=False)

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("QuantDisj requires at least one disjunct")

    def free_vars(self) -> tuple[Var, ...]:
        ex = set(self.exists)
        seen: dict[Var, None] = {}
        for d in self.disjuncts:
            for v in d.vars():
                if v not in ex:
                    seen.setdefault(v)
        return tuple(seen)


def qd_true() -> QuantDisj:
    return QuantDisj((), (ConstraintConj(),))


def qd_false() -> QuantDisj:
    return QuantDisj((), (ConstraintConj((false_atom(),)),))


def qd_of(conj: ConstraintConj, exists: Iterable[Var] = ()) -> QuantDisj:
    return QuantDisj(tuple(exists), (conj,))


def qd_subst(q: QuantDisj, theta: Mapping[Var, Var]) -> QuantDisj:
    """Substitute free variables, renaming existentials to avoid capture.

    Without an existential prefix there is nothing to capture: the disjuncts
    are substituted as they are, and no variable is collected.
    """
    if not q.exists:
        return QuantDisj((), tuple(d.subst(theta) for d in q.disjuncts), q.exact)
    image = set(theta.values())
    ren: dict[Var, Var] = {}
    taken = {v.name for v in image} | {v.name for d in q.disjuncts for v in d.vars()}
    for ev in q.exists:
        if ev in image or ev in theta:
            # renamed even when its own name is free, which stays free for the others
            nn = fresh_name(ev.name, taken | {ev.name})
            taken.add(nn)
            ren[ev] = Var(nn, ev.sort)
    full = dict(theta)
    for ev in q.exists:
        full[ev] = ren.get(ev, ev)
    return QuantDisj(
        tuple(full[ev] for ev in q.exists),
        tuple(d.subst(full) for d in q.disjuncts),
        q.exact,
    )


def qd_rename_exists_fresh(q: QuantDisj, taken: set[str]) -> QuantDisj:
    """Give the existential prefix names outside `taken` (grows taken)."""
    theta = fresh_renaming(q.exists, taken, taken)
    if not theta:
        return q
    return QuantDisj(
        tuple(theta.get(ev, ev) for ev in q.exists),
        tuple(d.subst(theta) for d in q.disjuncts),
        q.exact,
    )


def qd_conjoin(parts: Sequence[QuantDisj]) -> Optional[QuantDisj]:
    """Conjoin quantified disjunctions, distributing to DNF.

    Existential prefixes are renamed apart and merged; the parts' variables
    are collected for that only when some part has a prefix. Returns None if
    the disjunct count would exceed `DNF_CAP`.
    """
    renamed = parts
    if any(q.exists for q in parts):
        taken: set[str] = set()
        for q in parts:
            taken |= {v.name for v in q.free_vars()}
        renamed = [qd_rename_exists_fresh(q, taken) for q in parts]
    total = 1
    for q in renamed:
        total *= len(q.disjuncts)
        if total > DNF_CAP:
            return None
    exists: list[Var] = []
    for q in renamed:
        exists.extend(q.exists)
    disjuncts = [
        ConstraintConj(tuple(a for c in combo for a in c.atoms))
        for combo in product(*(q.disjuncts for q in renamed))
    ]
    exact = all(q.exact for q in renamed)
    return QuantDisj(tuple(exists), tuple(disjuncts) or (ConstraintConj(),), exact)


# ---------------------------------------------------------------------------
# Row-level Fourier-Motzkin machinery.
#
# A row is (coeffs: dict[var-index, int], const: int) denoting
# sum(coeffs) + const <= 0. Equalities are expanded into two rows,
# disequalities branch.


def _tighten(coeffs: dict[int, int], const: int) -> tuple[dict[int, int], int]:
    if not coeffs:
        return coeffs, const
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = {i: c // g for i, c in coeffs.items()}
        const = -((-const) // g)  # ceil(const/g)
    return coeffs, const


class _Unsat(Exception):
    pass


class _Overflow(Exception):
    pass


def _fm_eliminate(rows: list[tuple[dict[int, int], int]], elim: Sequence[int]):
    """Eliminate the given variable indices; returns (rows, stages, exact).

    stages records, per eliminated variable, the rows that mentioned it at
    elimination time (for witness back-substitution). Raises _Unsat when a
    ground row becomes positive, and _Overflow, before it builds them,
    when one step would make more rows than _FM_ROW_CAP.
    """
    rows = [_tighten(dict(c), k) for c, k in rows]
    stages: list[tuple[int, list[tuple[dict[int, int], int]]]] = []
    exact = True

    def check_ground(rs):
        out = []
        seen = set()
        for c, k in rs:
            if not c:
                if k > 0:
                    raise _Unsat()
                continue
            key = (tuple(sorted(c.items())), k)
            if key not in seen:
                seen.add(key)
                out.append((c, k))
        return out

    rows = check_ground(rows)
    for v in elim:
        pos = [(c, k) for c, k in rows if c.get(v, 0) > 0]
        neg = [(c, k) for c, k in rows if c.get(v, 0) < 0]
        rest = [(c, k) for c, k in rows if v not in c or c[v] == 0]
        if len(rest) + len(pos) * len(neg) > _FM_ROW_CAP:
            raise _Overflow()
        stages.append((v, pos + neg))
        if any(abs(c[v]) != 1 for c, _ in pos + neg):
            exact = False
        new_rows = list(rest)
        for cp, kp in pos:
            a = cp[v]
            for cn, kn in neg:
                b = -cn[v]
                comb: dict[int, int] = {}
                for i, c in cp.items():
                    if i != v:
                        comb[i] = comb.get(i, 0) + b * c
                for i, c in cn.items():
                    if i != v:
                        comb[i] = comb.get(i, 0) + a * c
                comb = {i: c for i, c in comb.items() if c != 0}
                k = b * kp + a * kn
                new_rows.append(_tighten(comb, k))
        rows = check_ground(new_rows)
    return rows, stages, exact


def _backsubst_witness(stages, target: Sequence[int]) -> Optional[dict[int, int]]:
    """Build an integer point, indexed like target, from recorded
    elimination stages.

    Variables are assigned in reverse elimination order: at each stage the
    recorded rows only mention the stage variable and later-assigned ones,
    so they reduce to numeric bounds. Each variable takes its target value
    when its bounds admit it; otherwise its only bound, or its lower bound
    when it has two. Variables that no stage eliminates keep their target.
    May fail (None) when the rational interval contains no integer.
    """
    env = dict(enumerate(target))
    for v, vrows in reversed(stages):
        lo = None
        hi = None
        for c, k in vrows:
            a = c[v]
            s = k
            for i, cc in c.items():
                if i != v:
                    s += cc * env[i]
            # a*v + s <= 0
            if a > 0:
                bound = (-s) // a  # v <= floor(-s/a)
                hi = bound if hi is None else min(hi, bound)
            else:
                q = -a
                bound = -((-s) // q)  # v >= ceil(s/q)
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        t = target[v]
        if lo is None and hi is None:
            env[v] = t
        elif lo is None:
            env[v] = min(t, hi)
        elif hi is None:
            env[v] = max(t, lo)
        else:
            env[v] = t if lo <= t <= hi else lo
    return env


# a verdict and the points that were verified on the way to it
_Decision = tuple[Verdict, tuple[dict[Var, int], ...]]


@dataclass(eq=False)
class Reduction:
    """A conjunction's linear atoms, lowered and Gauss-reduced once, and the
    answers asked of them.

    `conj` is the conjunction it reduces (`reduction`; None for the
    extensions that `_extend` decides once and for `_lower`'s), `atoms` its
    linear atoms, `vars` and `index` their variables by position, `rows`
    every atom's row as lowered, ground ones too, and `work` the rows left
    after Gauss, one (coeffs, k, rel) list in atom order without the pivot
    rows and the ground rows. `defs` are the Gauss definitions in
    elimination order, and `unsat` says whether a ground row is false
    before or after Gauss. None of these changes once built, so one
    reduction serves any number of queries and grows into any number of
    longer conjunctions. Two memos are filled when first asked, and freed
    with the reduction: `decision`, the verdict of `_decide` and every point
    it verified, once the resolver has settled an Unknown, which
    `satisfiable_with_witness` and `eq_set` both read; and `entailed`, the
    Proved or Disproved verdict of `entails_atom` per atom (an Unknown is
    asked again). Every point is checked on `rows` before it is kept.
    """

    conj: Optional[ConstraintConj]
    atoms: tuple[LinAtom, ...]
    vars: tuple[Var, ...]
    index: dict[Var, int]
    rows: list[tuple[dict[int, int], int, Rel]]
    work: list[tuple[dict[int, int], int, Rel]]
    defs: list[tuple[int, dict[int, int], int]]
    unsat: bool
    decision: Optional[_Decision] = None
    entailed: dict[ConstraintAtom, Verdict] = field(default_factory=dict)


def _lower(atoms: Iterable[LinAtom], var_order: Sequence[Var] = ()) -> Reduction:
    """The atoms as a reduction before Gauss: `rows` are their indexed
    rows, `work` those that are not ground, `unsat` flags a false ground
    row, and there is no definition. Variables are numbered after
    `var_order` as in `boxes.index_rows`."""
    atoms = tuple(atoms)
    vars_, index, rows = boxes.index_rows(atoms, var_order)
    work = [row for row in rows if row[0]]
    unsat = not all(boxes.row_holds(k, rel) for coeffs, k, rel in rows if not coeffs)
    return Reduction(None, atoms, tuple(vars_), index, rows, work, [], unsat)


def _le_branches(work, ne_rows) -> list[list[tuple[dict[int, int], int]]]:
    """The <=-row alternatives of the LE and EQ rows of `work` and of the
    given NE rows.

    Every branch holds the LE rows, then each EQ row in both directions,
    then one of d <= -1 and d >= 1 for each NE row d, in every combination.
    """
    base = [(c, k) for c, k, rel in work if rel is Rel.LE]
    for c, k, rel in work:
        if rel is Rel.EQ:
            base.append((dict(c), k))
            base.append(({i: -x for i, x in c.items()}, -k))
    branches = [base]
    for c, k, _ in ne_rows:
        lo = (dict(c), k + 1)  # d <= -1
        hi = ({i: -x for i, x in c.items()}, 1 - k)  # d >= 1
        branches = [br + [alt] for br in branches for alt in (lo, hi)]
    return branches


def _rows_hold(rows, env) -> bool:
    """Whether every row (coeffs by position, k, rel) holds at the point
    env, indexed by position."""
    for coeffs, k, rel in rows:
        for i, c in coeffs.items():
            k += c * env[i]
        if not boxes.row_holds(k, rel):
            return False
    return True


def _subst_defs(rows, defs):
    """The (coeffs, k, rel) rows with each Gauss definition of defs
    substituted in turn.

    Row by row: each row takes, in elimination order, the definitions whose
    variable it still mentions, and ends with the dict that substituting
    one definition at a time into every row would give.
    """
    if not rows or not defs:
        return rows
    out = []
    for coeffs, k, rel in rows:
        for v, dcoeffs, dconst in defs:
            a = coeffs.get(v)
            if a:
                coeffs, k = boxes.subst_row(coeffs, k, v, a, dcoeffs, dconst)
        out.append((coeffs, k, rel))
    return out


def _gauss_reduce(r: Reduction, only: Optional[set[int]] = None) -> None:
    """Substitute away variables defined by unit-coefficient equalities,
    rewriting `r.work` in place by `boxes.find_pivot` and `boxes.pivot`.

    Each step pivots on the first EQ row of the list with a unit
    coefficient, on the first such variable in the row. With `only`, a set
    of variable indices, it pivots on those variables alone, and on the
    first by name in a row. The pivot row leaves the list, each definition,
    var = sum(coeffs) + const as (var_index, coeffs, const), is appended to
    `r.defs`, and only the rows that hold the pivot are rewritten, each into
    a new dict. Then the ground rows leave the list, and a false one sets
    `r.unsat`.

    The search for the next pivot resumes where the last one stood, or at
    the first EQ row before it that the substitution rewrote: every other
    row before it was passed over and is unchanged, so it still has no
    eligible unit coefficient, and the pivots are those of a search from
    the top.
    """
    work = r.work
    key = None if only is None else (lambda i: r.vars[i].name)
    start = 0
    while True:
        found = boxes.find_pivot(work, start, only, key)
        if found is None:
            break
        idx, unit = found
        dcoeffs, dconst, start = boxes.pivot(work, idx, unit)
        r.defs.append((unit, dcoeffs, dconst))
    # ground rows may have appeared
    r.unsat = r.unsat or not all(boxes.row_holds(k, rel) for c, k, rel in work if not c)
    work[:] = [row for row in work if row[0]]


def _apply_gauss_defs(defs, env: dict[int, int]):
    """Fill substituted variables back into a residual-variable assignment."""
    for v, dcoeffs, dconst in reversed(defs):
        s = dconst
        for i, c in dcoeffs.items():
            s += c * env.get(i, 0)
        env[v] = s


_EMPTY = Reduction(ConstraintConj(), (), (), {}, [], [], [], False)


def _grow(
    base: Reduction, extra: Sequence[LinAtom], conj: Optional[ConstraintConj] = None
) -> Reduction:
    """The reduction of base and extra, as if the atoms were reduced afresh;
    it records `conj` as the conjunction it reduces.

    The extra rows are numbered after the base's variables. The base's Gauss
    definitions are substituted into them in elimination order, they follow
    the base's rows in `work`, and Gauss resumes: the base's rows come
    first, so a reduction from scratch would take the same pivots, in the
    same order, and end with the same rows. Past an unsatisfiable base or a
    false ground row Gauss does not run.
    """
    ext = _lower(extra, base.vars)
    r = Reduction(
        conj, base.atoms + ext.atoms, ext.vars, ext.index, base.rows + ext.rows, [],
        list(base.defs), base.unsat or ext.unsat,
    )
    if not r.unsat:
        r.work = base.work + _subst_defs(ext.work, base.defs)
        _gauss_reduce(r)
    return r


def _decide(r: Reduction, target_signs: Sequence[int]) -> _Decision:
    """Satisfiability of a reduction's atoms, with every point it verified.

    The box probe runs on the rows as lowered when there are at most
    `_PROBE_MAX_VARS` variables, and its point is the only one. Otherwise
    Fourier-Motzkin runs on each disequality branch of the rows left after
    Gauss, and back-substitutes one target per sign (`_branch_witness`):
    the i-th variable aims at sign * _WITNESS_SPREAD * (i + 1).
    """
    if r.unsat:  # no probe point either: Gauss keeps every integer point
        return Verdict.DISPROVED, ()
    n = len(r.vars)
    if n <= _PROBE_MAX_VARS:
        w = boxes.find_solution(boxes.BoxSystem(r.vars, r.rows), -_PROBE_BOX, _PROBE_BOX)
        if w is not None:
            return Verdict.PROVED, (w,)
    targets = [[sign * _WITNESS_SPREAD * (i + 1) for i in range(n)] for sign in target_signs]
    return _branch_witness(r, targets)


def _extend(base: Reduction, extra: Sequence[LinAtom]) -> _Decision:
    """Decide base and extra, aiming at 0, without touching the base's rows."""
    return _decide(_grow(base, extra), (0,))


def _rest(c: ConstraintConj, reduced: Reduction) -> tuple[LinAtom, ...]:
    """c's linear atoms after the prefix whose reduction is `reduced`."""
    lin = c.lin_atoms()
    n = len(reduced.atoms)
    if lin[:n] != reduced.atoms:
        raise ValueError("the reduction is not of a prefix of the conjunction's linear atoms")
    return lin[n:]


def reduction(c: ConstraintConj, *, base: Optional[Reduction] = None) -> Reduction:
    """The reduction of c's linear atoms, which records c, for `reduced=`
    arguments.

    With `base`, the reduction of a prefix of c's linear atoms, it grows
    from base and reduces only the atoms after that prefix. Raises
    ValueError when base holds no such prefix.
    """
    base = _EMPTY if base is None else base
    return _grow(base, _rest(c, base), c)


def _own(c: ConstraintConj, reduced: Optional[Reduction]) -> Reduction:
    """c's reduction: `reduced` when it records c, a new one when it is
    None. Raises ValueError for a reduction of another conjunction."""
    if reduced is None:
        return reduction(c)
    if reduced.conj != c:
        raise ValueError("the reduction is not of the conjunction")
    return reduced


def _branch_witness(r: Reduction, targets: Sequence[Sequence[int]]) -> _Decision:
    """Fourier-Motzkin on each disequality branch of a reduction's `work`.

    Each feasible branch back-substitutes, from its one elimination, every
    target (indexed like r.vars) that has no point yet, the last one only
    when no other target has one, and keeps a point that satisfies every
    row of r.rows, the atoms' rows as lowered, read by position. The
    branches stop at the first point for targets[0]. Returns the verdict and
    the points kept, keyed by variable, in the order of their targets:
    Proved when there is one, Disproved when every branch is infeasible over
    the rationals, Unknown otherwise.
    """
    points: list[Optional[dict[Var, int]]] = [None] * len(targets)
    ne = [row for row in r.work if row[2] is Rel.NE]
    if 2 ** len(ne) > NEQ_SPLIT_CAP:
        return Verdict.UNKNOWN, ()
    branches = _le_branches(r.work, ne)
    residual = sorted({i for rows in branches for coeffs, _ in rows for i in coeffs})
    last = len(targets) - 1
    undecided = False
    for rows in branches:
        try:
            _, stages, _ = _fm_eliminate(rows, residual)
        except _Unsat:
            continue
        except _Overflow:
            undecided = True
            break
        undecided = True
        for t, target in enumerate(targets):
            if points[t] is not None or (t == last and any(p is not None for p in points)):
                continue
            envi = _backsubst_witness(stages, target)
            if envi is not None:
                _apply_gauss_defs(r.defs, envi)
                if _rows_hold(r.rows, envi):
                    points[t] = {v: envi[i] for i, v in enumerate(r.vars)}
        if points[0] is not None:
            break
    kept = tuple(p for p in points if p is not None)
    if kept:
        return Verdict.PROVED, kept
    return (Verdict.UNKNOWN if undecided else Verdict.DISPROVED), ()


# optional hook consulted on Unknown verdicts, e.g. an external SMT solver
_UNKNOWN_RESOLVER = None


def install_unknown_resolver(fn) -> None:
    """Install a fallback deciding conjunctions the internal procedure cannot.

    fn takes a ConstraintConj and returns a Verdict (Unknown to decline).
    Pass None to uninstall. Externally resolved Proved answers carry no
    witness. A decision already memoised on a reduction keeps the answer it
    got, so install the resolver before building the reductions it serves.
    """
    global _UNKNOWN_RESOLVER
    _UNKNOWN_RESOLVER = fn


def _settle(hit, c: ConstraintConj, extra: tuple[LinAtom, ...] = ()):
    """Hand an internal Unknown on c and extra to the resolver, as one
    conjunction."""
    if hit[0] is Verdict.UNKNOWN and _UNKNOWN_RESOLVER is not None:
        resolved = _UNKNOWN_RESOLVER(ConstraintConj(c.atoms + extra) if extra else c)
        if resolved in (Verdict.PROVED, Verdict.DISPROVED):
            hit = (resolved, ())
    return hit


def _decision(c: ConstraintConj, reduced: Reduction) -> _Decision:
    """c's decision on its reduction: the verdict and the points of
    `_decide`, aimed at distant targets and then at 0 (see the module
    docstring), memoised on the reduction once the resolver has settled an
    Unknown."""
    if reduced.decision is None:
        reduced.decision = _settle(_decide(reduced, (1, -1, 0)), c)
    return reduced.decision


def satisfiable_with_witness(
    c: ConstraintConj, *, reduced: Optional[Reduction] = None
) -> tuple[Verdict, Optional[dict[Var, int]]]:
    """Integer satisfiability of the linear part of c, with witness if Proved.

    `reduced` is c's reduction when the caller has it (see `reduction`);
    otherwise c is reduced here. The decision is memoised on the reduction,
    so asking again with it decides nothing; the witness returned is a copy
    of its first point. The witness can be None for a Proved verdict that
    came from an installed external resolver.
    """
    verdict, points = _decision(c, _own(c, reduced))
    return verdict, dict(points[0]) if points else None


def is_satisfiable(c: ConstraintConj, *, reduced: Optional[Reduction] = None) -> Verdict:
    return satisfiable_with_witness(c, reduced=reduced)[0]


def _refute_each(
    c: ConstraintConj, extras: Iterable[Sequence[LinAtom]], reduced: Reduction
) -> Verdict:
    """Whether c and e is unsatisfiable for every atom list e of extras,
    each decided by extending c's reduction.

    Disproved at the first satisfiable one, Proved when all are refuted,
    Unknown otherwise. An Unknown goes to the resolver as the whole
    conjunction.
    """
    verdict = Verdict.PROVED
    for extra in extras:
        extra = tuple(extra)
        hit = _settle(_extend(reduced, extra), c, extra)
        if hit[0] is Verdict.PROVED:
            return Verdict.DISPROVED
        if hit[0] is Verdict.UNKNOWN:
            verdict = Verdict.UNKNOWN
    return verdict


def _entails(
    phi: ConstraintConj, reduced: Reduction, psi_atoms: Sequence[Sequence[LinAtom]]
) -> Verdict:
    """Whether phi entails the disjunction of the conjunctions `psi_atoms`,
    on phi's reduction `reduced`.

    What the reduction alone settles comes first: an unsatisfiable
    reduction, or a Disproved decision memoised on it, is Proved, and an
    atom whose row is ground and true under its Gauss definitions is
    entailed (`_entailed_atoms`), so it gets no negation; a psi whose atoms
    are all entailed proves the case. Otherwise phi and not(psi1 or ... or
    psim) must be unsatisfiable: `_refute_each` asks one query per choice
    of a negation of an atom of each psi, in the order of `product`.
    """
    if reduced.unsat or (
        reduced.decision is not None and reduced.decision[0] is Verdict.DISPROVED
    ):
        return Verdict.PROVED
    entailed = _entailed_atoms(reduced, dict.fromkeys(a for atoms in psi_atoms for a in atoms))
    neg_choices: list[list[LinAtom]] = []
    for atoms in psi_atoms:
        alts = [n for a in atoms if a not in entailed for n in negate_linatom(a)]
        if not alts:
            return Verdict.PROVED
        neg_choices.append(alts)
    return _refute_each(phi, product(*neg_choices), reduced)


def combine(verdicts: Iterable[Verdict]) -> Verdict:
    """The verdict of a conjunction of checks: Disproved at the first
    Disproved, asking for no further verdict, else Unknown if any is
    Unknown, else Proved."""
    out = Verdict.PROVED
    for v in verdicts:
        if v is Verdict.DISPROVED:
            return v
        if v is Verdict.UNKNOWN:
            out = v
    return out


def entails_atom(
    c: ConstraintConj, atom: ConstraintAtom, *, reduced: Optional[Reduction] = None
) -> Verdict:
    """Validity of for-all(c -> atom) over the integers, for any constraint
    atom; the one entailment test of folding and definition matching.

    `reduced` is c's reduction when the caller already has it (see
    `reduction`); otherwise c is reduced here. A Proved or Disproved answer
    is memoised on the reduction (its `entailed`), so asking again with it
    decides nothing; an Unknown is asked again, resolver included. Past the
    memo, an atom of c is Proved, an array atom that c does not hold is
    Unknown, and a linear atom goes to `_entails`, which settles what the
    reduction alone settles and asks the atom's negations of the rest.
    """
    reduced = _own(c, reduced)
    verdict = reduced.entailed.get(atom)
    if verdict is not None:
        return verdict
    if atom in c.atoms:
        verdict = Verdict.PROVED
    elif isinstance(atom, LinAtom):
        verdict = _entails(c, reduced, [(atom,)])
    else:
        verdict = Verdict.UNKNOWN  # an array atom: no internal theory
    if verdict is not Verdict.UNKNOWN:
        reduced.entailed[atom] = verdict
    return verdict


def entails_equality(
    d: ConstraintConj, x: Var, y: Var, *, reduced: Optional[Reduction] = None
) -> Verdict:
    """Does every integer solution of d satisfy x = y?"""
    if x.sort is not Sort.INT or y.sort is not Sort.INT:
        raise SortMismatch("entails_equality is defined on Int variables")
    if x == y:
        return Verdict.PROVED
    return entails_atom(d, LinAtom(LinExpr.of(x), Rel.EQ, LinExpr.of(y)), reduced=reduced)


def eq_set(
    d: ConstraintConj, a: Atom, b: Atom, *, reduced: Optional[Reduction] = None
) -> tuple[tuple[Var, Var], ...]:
    """Equalities X=Y with X in vars(a), Y in vars(b) entailed by d.

    Pairs are deduplicated semantically (X=Y and Y=X count once, as do
    shared-variable pairs) and returned in lexicographic name order so
    strategy runs are deterministic. `reduced` is d's reduction when the
    caller has it; otherwise d is reduced here. A pair is settled before it
    is asked: a pair that a point of d's decision, memoised on the
    reduction, separates is not entailed and is skipped (see the module
    docstring), so each x of a meets only the variables of b that share its
    values under every point, in b's order; on an unsatisfiable reduction,
    or when x - y is ground 0 under its Gauss definitions, the pair is
    entailed (`entails_atom`). Only the others are asked, extending the
    reduction.
    """
    reduced = _own(d, reduced)
    witnesses = _decision(d, reduced)[1]

    def values(v: Var) -> Optional[tuple[int, ...]]:
        # None for a variable that no witness leaves equal to another one
        try:
            return tuple([w[v] for w in witnesses]) if v.sort is Sort.INT else None
        except KeyError:  # absent from d's linear atoms
            return None

    avars, bvars = a.vars(), b.vars()
    # x's candidates: the variables of b that every witness leaves equal to x
    group: dict[tuple[int, ...], list[Var]] = {}
    for y in bvars:
        key = values(y)
        if key is not None:
            group.setdefault(key, []).append(y)
    out = [(x, x) for x in avars if x in bvars]
    seen: set[frozenset[str]] = set()
    for x in avars:
        for y in group.get(values(x), ()):
            pair = frozenset((x.name, y.name))
            if x != y and pair not in seen:
                if entails_equality(d, x, y, reduced=reduced) is Verdict.PROVED:
                    seen.add(pair)
                    out.append((x, y))
    return tuple(sorted(out, key=lambda p: (p[0].name, p[1].name)))


def negate_linatom(a: LinAtom) -> list[LinAtom]:
    """Disjunction (as a list) equivalent to not-a over the integers."""
    one = LinExpr.number(1)
    lhs, rhs = a.lhs, a.rhs
    if a.rel is Rel.EQ:
        return [LinAtom(lhs, Rel.LE, rhs.sub(one)), LinAtom(lhs, Rel.GE, rhs.add(one))]
    if a.rel is Rel.LE:
        return [LinAtom(lhs, Rel.GE, rhs.add(one))]
    if a.rel is Rel.LT:
        return [LinAtom(lhs, Rel.GE, rhs)]
    if a.rel is Rel.GE:
        return [LinAtom(lhs, Rel.LE, rhs.sub(one))]
    if a.rel is Rel.GT:
        return [LinAtom(lhs, Rel.LE, rhs)]
    return [LinAtom(lhs, Rel.EQ, rhs)]


# ---------------------------------------------------------------------------
# Projection


def _row_atom(coeffs: Mapping[Var, int], k: int, rel: Rel) -> LinAtom:
    """Print the row sum(coeffs) + k rel 0 as an atom without negative terms.

    Positive terms and a positive k go left, the others right; an LE row
    without positive terms prints as sum >= k.
    """
    pos = {v: c for v, c in coeffs.items() if c > 0}
    neg = {v: -c for v, c in coeffs.items() if c < 0}
    if rel is Rel.LE and not pos:
        return LinAtom(LinExpr.build(neg), Rel.GE, LinExpr.number(k))
    return LinAtom(LinExpr.build(pos, max(k, 0)), rel, LinExpr.build(neg, max(-k, 0)))


def _rows_to_atoms(rows) -> list[LinAtom]:
    """Turn <=-rows back into readable atoms, pairing x<=y with y<=x as =."""
    atoms: list[LinAtom] = []
    used = [False] * len(rows)
    norm = [
        (tuple(sorted(((v, c) for v, c in row.items()), key=lambda t: t[0].name)), k)
        for row, k in rows
    ]
    for i, (ci, ki) in enumerate(norm):
        if used[i]:
            continue
        used[i] = True
        neg = (tuple(sorted(((v, -c) for v, c in ci), key=lambda t: t[0].name)), -ki)
        rel = Rel.LE
        for j in range(i + 1, len(norm)):
            if not used[j] and norm[j] == neg:
                used[j] = True
                rel = Rel.EQ
                break
        atoms.append(_row_atom(dict(ci), ki, rel))
    return atoms


def project(c: ConstraintConj, keep: Iterable[Var]) -> QuantDisj:
    """Eliminate the variables of c outside `keep`.

    The linear atoms that mention an eliminated variable are lowered once
    into one row list; Gauss substitutes away, in place, the eliminated
    variables that unit-coefficient equalities define, and Fourier-Motzkin
    the others, in order of first occurrence in the rows Gauss leaves, on
    each branch of the disequalities that still mention one. Exact over the
    rationals; over the integers the result can be an over-approximation,
    in which case the returned QuantDisj carries exact=False. Array atoms
    touching eliminated variables are dropped (over-approximation, also
    flagged), as are the disequalities on eliminated variables past the
    split cap.
    """
    keepset = set(keep)
    exact = True
    passthrough: list = []
    touched: list[LinAtom] = []
    elim_set = {v for v in c.vars() if v not in keepset}
    for a in c.atoms:
        if elim_set.isdisjoint(a.vars()):
            passthrough.append(a)
        elif isinstance(a, LinAtom):
            touched.append(a)
        else:
            exact = False  # dropped array atom
    if not touched:
        return QuantDisj((), (ConstraintConj(tuple(passthrough)),), exact)
    r = _lower(touched)
    elim = {i for i, v in enumerate(r.vars) if v in elim_set}
    _gauss_reduce(r, elim)
    if r.unsat:
        return qd_false()
    ne = [row for row in r.work if row[2] is Rel.NE]
    ne_split = [row for row in ne if not elim.isdisjoint(row[0])]
    ne_plain = [row for row in ne if elim.isdisjoint(row[0])]
    if 2 ** len(ne_split) > NEQ_SPLIT_CAP:
        # drop those disequalities instead of splitting
        ne_split = []
        exact = False
    # Fourier-Motzkin takes the variables left in order of first occurrence
    # in the rows after Gauss, atoms in order and names in a row, without
    # the dropped disequalities.
    order: dict[int, None] = {}
    for coeffs, _, rel in r.work:
        if rel is not Rel.NE or ne_split:
            for i in sorted(elim.intersection(coeffs), key=lambda i: r.vars[i].name):
                order.setdefault(i)
    disjuncts = []
    for rows in _le_branches(r.work, ne_split):
        try:
            rem, _, br_exact = _fm_eliminate(rows, list(order))
        except _Unsat:
            continue
        except _Overflow:
            # give up on this branch precisely: keep no constraint at all
            rem, br_exact = [], False
        exact = exact and br_exact
        var_rows = [({r.vars[i]: cc for i, cc in row.items()}, k) for row, k in rem]
        datoms = list(passthrough) + _rows_to_atoms(var_rows)
        for row, k, _ in ne_plain:
            datoms.append(_row_atom({r.vars[i]: cc for i, cc in row.items()}, k, Rel.NE))
        disjuncts.append(ConstraintConj(tuple(datoms)))
    if not disjuncts:
        return qd_false()
    return QuantDisj((), tuple(disjuncts), exact)


# ---------------------------------------------------------------------------
# Quantified-disjunction equivalence (rule R4 and model checking)


def _flatten_exists(q: QuantDisj) -> tuple[list[ConstraintConj], bool]:
    """Push the existential prefix into each disjunct by projection."""
    if not q.exists:
        return list(q.disjuncts), q.exact
    exact = q.exact
    out: list[ConstraintConj] = []
    for d in q.disjuncts:
        keep = [v for v in d.vars() if v not in set(q.exists)]
        pd = project(d, keep)
        exact = exact and pd.exact
        out.extend(pd.disjuncts)
    return out, exact


def _entailed_atoms(reduced: Reduction, atoms: Iterable[LinAtom]) -> set[LinAtom]:
    """The atoms whose rows are ground and true once the reduction's Gauss
    definitions are substituted into them, in elimination order as `_grow`
    does. The reduced atoms entail each of them, and any negation of one,
    added to the reduced atoms, leaves a false ground row. An atom with a
    variable outside the reduction is never ground."""
    index = reduced.index
    candidates = []
    rows = []
    for atom in atoms:
        terms, k, rel = atom.row()
        if all(v in index for v, _ in terms):
            candidates.append(atom)
            rows.append(({index[v]: c for v, c in terms}, k, rel))
    return {
        atom
        for atom, (coeffs, k, rel) in zip(candidates, _subst_defs(rows, reduced.defs))
        if not coeffs and boxes.row_holds(k, rel)
    }


def _implies(lhs: QuantDisj, rhs: QuantDisj) -> Verdict:
    """Validity of for-all(lhs -> rhs).

    lhs -> rhs holds when, for each disjunct phi of lhs, phi and not(psi1 or
    ... or psim) is unsatisfiable for the disjuncts psi of rhs, that is, phi
    and one negation of an atom of each psi, for every choice of them. The
    choices are counted first, without building any atom (an EQ atom has two
    negations, any other atom one); past `DNF_CAP` the answer is Unknown.
    Then each phi is reduced once and handed to `_entails`, the core that
    `entails_atom` shares; their verdicts are combined (`combine`) with
    Unknown for an inexact projection of rhs. An existential prefix of lhs
    is first renamed apart from the free variables of both sides; without
    one, no variable is collected.
    """
    if lhs.exists:
        taken = {v.name for v in lhs.free_vars()} | {v.name for v in rhs.free_vars()}
        lhs = qd_rename_exists_fresh(lhs, taken)
    rdisj, r_exact = _flatten_exists(rhs)
    if any(not isinstance(a, LinAtom) for d in rdisj for a in d.atoms) or any(
        not isinstance(a, LinAtom) for d in lhs.disjuncts for a in d.atoms
    ):
        return Verdict.UNKNOWN  # array atoms: no internal theory
    r_verdict = Verdict.PROVED if r_exact else Verdict.UNKNOWN
    if any(psi.is_true() for psi in rdisj):
        return r_verdict  # not(true) = false: the implication holds
    psi_atoms = [psi.lin_atoms() for psi in rdisj]
    total = 1
    for atoms in psi_atoms:
        total *= sum(2 if a.rel is Rel.EQ else 1 for a in atoms)
    if total > DNF_CAP:
        return Verdict.UNKNOWN
    return combine(chain(
        (r_verdict,), (_entails(phi, reduction(phi), psi_atoms) for phi in lhs.disjuncts)
    ))


def implies_quant_disj(lhs: QuantDisj, rhs: QuantDisj) -> Verdict:
    """Validity of for-all(lhs -> rhs) between quantified disjunctions."""
    return _implies(lhs, rhs)


def equiv_quant_disj(lhs: QuantDisj, rhs: QuantDisj) -> Verdict:
    """Validity of the biconditional between two quantified disjunctions;
    the second direction is not asked once the first is Disproved."""
    return combine(_implies(a, b) for a, b in ((lhs, rhs), (rhs, lhs)))
