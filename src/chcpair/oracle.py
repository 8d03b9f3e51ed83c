"""Bounded ground evaluation: desk-scale least models and goal violations.

Evaluation is bottom-up and semi-naive over derivation-tree height: an
atom enters level k+1 when some clause derives it from body atoms of
height <= k, at least one of exactly height k. All values (including
intermediate constraint variables) are confined to the budget box, so the
result under-approximates the true least model by design.

Each level joins a clause body against the facts known so far only where
it uses a fact new at the last level (`delta`): for each pivot atom i, the
atoms before i take the older facts, atom i a delta fact and the atoms
after i any fact. Every body binding is thus made once over the whole run
(Bancilhon & Ramakrishnan, SIGMOD 1986). The indexes of the older facts
are kept from level to level, each level adding the facts of the last.

A program is compiled once per value box into a join plan per clause, in
the manner of Souffle (Jordan, Scholz & Subotic, CAV 2016). A clause's
values live in one list, a slot per variable. Its constraint is pushed
into the join: eliminating the free slots (those no body atom binds)
through unit-coefficient equalities, with their box bounds, leaves rows
over the bound slots that the constraint implies (by the pivot search and
step of `lia`'s Gauss, in `boxes`, on each free slot in turn). Each such
row is checked as soon as its last slot is bound: in the index of the one
atom that binds all its slots, as a computed key of the atom's index when
it is an equality that fixes one of that atom's slots, or else in the
join. So a binding that the constraint rejects is dropped before the atoms
after it are joined, and the bindings that survive come in the same order.
When the equalities fix every free slot, the survivors are exactly the
solutions and the free slots are computed; otherwise a box plan enumerates
them. The head atom is read off each solution by position. No variable is
hashed in the loop.

Each clause shape is compiled once: the head's arguments (None for a
goal), the constraint and the body atoms' arguments, leaving out the
clause id and every predicate name. A clause of a shape compiled before
takes that plan, bound to its own id and predicates. `equisat_probe`
shares one table of shapes between P0 and Pn, so the clauses that Pn
keeps from P0, and its renamed cone copies, are compiled once; the table
lives as long as the probe.

The evaluation can be resumed. `equisat_probe` runs each side to the
budget's depth, searches the goals, and carries the same evaluation on to
the doubled depth; only when that finds a new fact is the goal search
repeated, on the larger model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Union

from . import boxes
from .errors import ArrayUnsupported
from .syntax import Clause, Program, Rel, Sort, Var

_LE, _EQ = Rel.LE, Rel.EQ


@dataclass(frozen=True)
class OracleBudget:
    depth: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.lo > self.hi:
            raise ValueError("empty value box")

    def doubled(self) -> "OracleBudget":
        return OracleBudget(self.depth * 2, self.lo, self.hi)


@dataclass(frozen=True)
class GroundAtom:
    pred: str
    args: tuple[int, ...]

    def __repr__(self):
        return f"{self.pred}({','.join(map(str, self.args))})"


@dataclass(frozen=True)
class Found:
    goal_id: int
    valuation: Mapping[Var, int]


@dataclass(frozen=True)
class NotWithinBudget:
    pass


@dataclass(frozen=True)
class _Atom:
    """How one body atom joins the atoms before it.

    `spec` names the index its facts are looked up in: the predicate, the
    argument positions of the key, and the checks a fact's own arguments
    must pass (a variable repeated within the atom, and the constraint's
    rows over the slots that only this atom binds). `key` reads the same key
    off the clause's value list: a slot that an earlier atom binds, or a
    value that the constraint computes from such slots. `new` lists the
    (argument position, slot) pairs the atom binds first, and `test` checks
    the other rows whose last slot the atom binds, or is None.
    """

    spec: tuple
    key: Callable
    new: tuple[tuple[int, int], ...]
    test: Optional[Callable]


@dataclass(frozen=True)
class _Rule:
    """A clause compiled for one value box.

    Values live in one list per clause, a slot per variable of `vars`. The
    join checks every row that the constraint implies over the slots that
    body atoms bind. The slots left free are then either computed in turn
    by `defs`, when the constraint fixes each of them, or enumerated by the
    box `plan`; the other is None. `head` reads the head atom off a
    solution; a goal has none.
    """

    cid: int
    pred: Optional[str]
    head: Optional[Callable]
    atoms: tuple[_Atom, ...]
    vars: tuple[Var, ...]
    defs: Optional[tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]
    plan: Optional[boxes.Plan]

    def solutions(self, vals: list, limit: int = 2**62) -> list[tuple]:
        """The first `limit` solutions with the body slots of `vals` fixed,
        as tuples in slot order; the free slots of `vals` are overwritten."""
        if self.plan is not None:
            return boxes.run(self.plan, vals, limit)
        for i, k, terms in self.defs:
            for j, c in terms:
                k += c * vals[j]
            vals[i] = k
        return [tuple(vals)]


# A row is (coeffs by position, k, rel), for sum(c * x[i]) + k rel 0; a
# check is the same row as (k, ((i, c), ...), rel), hashable.
Row = tuple[dict[int, int], int, Rel]
Check = tuple[int, tuple[tuple[int, int], ...], Rel]


def _getter(positions: tuple[int, ...]) -> Callable:
    """A key function giving the items at `positions`; the same positions
    give the same key whatever the sequence."""
    return itemgetter(*positions) if positions else _no_key


def _no_key(_seq) -> tuple:
    return ()


def _computer(parts: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]) -> Callable:
    """A key function giving k + sum(c * x[i] for i, c in terms) for each
    (k, terms) of `parts`, shaped like the keys of `_getter`."""

    def key(x):
        out = []
        for k, terms in parts:
            for i, c in terms:
                k += c * x[i]
            out.append(k)
        return out[0] if len(out) == 1 else tuple(out)

    return key


def _checks(checks: list[Check]) -> tuple[Check, ...]:
    """The checks without repeats, equalities first and then by length, so
    that the likeliest to fail and the cheapest come first."""
    if not checks:
        return ()
    return tuple(sorted(dict.fromkeys(checks), key=lambda ch: (ch[2] is not _EQ, len(ch[1]))))


def _tester(checks: tuple[Check, ...]) -> Optional[Callable]:
    """A function telling whether a sequence x passes every check, or None
    when there are none."""
    if not checks:
        return None

    def test(x) -> bool:
        for k, terms, rel in checks:
            for i, c in terms:
                k += c * x[i]
            if (k > 0) if rel is _LE else (k != 0) if rel is _EQ else (k == 0):
                return False
        return True

    return test


def _eliminate(rows: list[Row], free: list[int], lo: int, hi: int):
    """(implied, defs) for the rows of a clause whose slots in `free` no
    body atom binds.

    Each free slot in turn that has a coefficient of 1 or -1 in an equality
    is eliminated through the first one: its definition replaces it in every
    row, then its box bounds [lo, hi] join the rows. `implied` holds the
    rows left over the bound slots alone: the constraint and the box imply
    them. The bound slots take values in the box too, so a row that every
    value of the box satisfies is left out. When every free slot is
    eliminated and no row is left false, `implied` is equivalent to the
    constraint with its free slots in the box, and `defs` computes the one
    solution: (slot, k, terms) to set in turn, each to
    k + sum(c * x[j] for j, c in terms). Otherwise `defs` is None.
    """
    free_set = set(free)
    work = list(rows)
    defs = []
    for x in free:
        found = boxes.find_pivot(work, 0, {x})
        if found is not None:
            # x = k + sum(c * x[i] for i, c in terms): substitute it, and add
            # lo <= x <= hi.
            terms, k, _ = boxes.pivot(work, *found)
            work.append(({i: -c for i, c in terms.items()}, lo - k, _LE))
            work.append((dict(terms), k - hi, _LE))
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
        if rel is _LE:
            holds = mx <= 0
        elif rel is _EQ:
            holds = mn == mx == 0
        else:
            holds = mn > 0 or mx < 0
        if holds:
            continue
        if coeffs:
            implied.append(r)
        else:
            exact = False  # a false row: let the box plan find no solution
    # A later slot's definition is set before an earlier one reads it.
    return implied, tuple(reversed(defs)) if exact else None


def _compile(c: Clause, lo: int, hi: int) -> _Rule:
    """The join plan of `c` in the box [lo, hi]; the constraint is lowered
    once, for the elimination and for the box plan alike."""
    if c.constraint.array_atoms():
        raise ArrayUnsupported(f"clause {c.cid} uses array constraints")
    vars_ = c.vars()
    if any(v.sort is Sort.ARRAY for v in vars_):
        raise ArrayUnsupported(f"clause {c.cid} has array variables")
    vars_, pos, rows = boxes.index_rows(c.constraint.lin_atoms(), vars_)
    # binder[slot] is the body atom that binds the slot first, and where.
    # Per atom: its key, argument position to a slot or to the (k, terms)
    # of a computed value; the slots it binds; its index's checks, over
    # argument positions; and the checks it makes in the join.
    binder: dict[int, tuple[int, int]] = {}
    keys: list[dict[int, Union[int, tuple]]] = []
    news: list[list[tuple[int, int]]] = []
    owns: list[list[Check]] = []
    for n, atom in enumerate(c.body):
        key: dict[int, Union[int, tuple]] = {}
        new, own = [], []
        for arg, v in enumerate(atom.args):
            i = pos[v]
            b = binder.get(i)
            if b is None:
                binder[i] = (n, arg)
                new.append((arg, i))
            elif b[0] < n:
                key[arg] = i
            else:  # a variable repeated within the atom
                own.append((0, ((b[1], 1), (arg, -1)), _EQ))
        keys.append(key)
        news.append(new)
        owns.append(own)
    joins: list[list[Check]] = [[] for _ in c.body]
    free = [i for i in range(len(vars_)) if i not in binder]
    implied, defs = _eliminate(rows, free, lo, hi)
    # Each implied row is checked as soon as its last slot is bound: by the
    # index when one atom binds all its slots; as a lookup when it is an
    # equality that computes, with a coefficient of 1 or -1, the one slot
    # that its last atom binds; and otherwise in the join.
    for coeffs, k, rel in implied:
        n = max([binder[i][0] for i in coeffs])
        mine = [i for i in coeffs if binder[i][0] == n]
        if len(mine) == len(coeffs):
            owns[n].append((k, tuple(sorted([(binder[i][1], a) for i, a in coeffs.items()])), rel))
            continue
        s = mine[0]
        arg, cs = binder[s][1], coeffs[s]
        if rel is _EQ and len(mine) == 1 and cs in (1, -1) and arg not in keys[n]:
            keys[n][arg] = (-cs * k, tuple([(i, -cs * a) for i, a in coeffs.items() if i != s]))
        else:
            joins[n].append((k, tuple(sorted(coeffs.items())), rel))
    atoms = []
    for atom, key, new, own, join in zip(c.body, keys, news, owns, joins):
        args = tuple(sorted(key))
        parts = [key[a] for a in args]
        if all(isinstance(x, int) for x in parts):
            getter = _getter(tuple(parts))
        else:
            getter = _computer(tuple((0, ((x, 1),)) if isinstance(x, int) else x for x in parts))
        spec = (atom.pred, args, _checks(own))
        atoms.append(_Atom(spec, getter, tuple(new), _tester(_checks(join))))
    pred = head = None
    if c.head is not None:
        # Head variables come first in the clause's variable order, so a
        # head of distinct variables is the front of a solution; one that
        # repeats a variable has at least two arguments.
        pred = c.head.pred
        hpos = tuple([pos[v] for v in c.head.args])
        whole = hpos == tuple(range(len(hpos)))
        head = itemgetter(slice(0, len(hpos))) if whole else itemgetter(*hpos)
    plan = None
    if defs is None:
        # The join checks the rows over bound slots alone.
        box = [r for r in rows if not r[0] or any(i not in binder for i in r[0])]
        plan = boxes.plan(boxes.BoxSystem(tuple(vars_), box), lo, hi, tuple(sorted(binder)))
    return _Rule(c.cid, pred, head, tuple(atoms), tuple(vars_), defs, plan)


def _rules(clauses: Iterable[Clause], lo: int, hi: int, shapes: dict) -> list[_Rule]:
    """The join plans of `clauses` in the box [lo, hi], one compile per shape.

    A clause's shape is all that its plan depends on: its head's arguments
    (None for a goal), its constraint and its body atoms' arguments, leaving
    out its id and every predicate name. `shapes` maps each shape compiled
    in this box to its rule. A clause of a shape met before gets that rule
    bound to its own id, head predicate and body predicates.
    """
    out = []
    for c in clauses:
        head, body = c.head, c.body
        shape = (None if head is None else head.args, c.constraint, tuple([a.args for a in body]))
        r = shapes.get(shape)
        if r is None:
            r = shapes[shape] = _compile(c, lo, hi)
        else:
            atoms = tuple([replace(a, spec=(b.pred,) + a.spec[1:]) for a, b in zip(r.atoms, body)])
            r = replace(r, cid=c.cid, pred=None if head is None else head.pred, atoms=atoms)
        out.append(r)
    return out


def _index(facts: Iterable[tuple], spec: tuple) -> dict:
    """The facts hashed on the key of `spec`, each bucket in the facts'
    order, without those that fail the checks of `spec`."""
    _, key_pos, checks = spec
    key, test = _getter(key_pos), _tester(checks)
    idx: dict = {}
    for t in facts if test is None else filter(test, facts):
        k = key(t)
        bucket = idx.get(k)
        if bucket is None:
            idx[k] = [t]
        else:
            bucket.append(t)
    return idx


def _join(atoms: tuple[_Atom, ...], idx: list[tuple[dict, ...]], vals: list):
    """Yield `vals` once per way of binding body atom i to a fact of one of
    the indexes idx[i] that passes the atom's test.

    Atoms join left to right through hashed lookups, each binding once. The
    same list comes back every time, its body slots filled in: read it
    before the next one.
    """
    n = len(atoms)

    def rec(k: int):
        if k == n:
            yield vals
            return
        atom = atoms[k]
        new, test = atom.new, atom.test
        key = atom.key(vals)
        for part in idx[k]:
            for t in part.get(key, ()):
                for arg, i in new:
                    vals[i] = t[arg]
                if test is None or test(vals):
                    yield from rec(k + 1)

    return rec(0)


class _Evaluator:
    """The bounded least model of one program in one value box, resumable.

    `total` holds the facts found so far per predicate, `delta` those new
    at the last level, and `level` the number of levels evaluated; once a
    level finds nothing new, `fixpoint` is set and no later level can.
    `old` holds, per index spec of a body atom, the index of the facts
    found before the last level; each level adds the last level's facts to
    it, so each fact is checked and hashed once per spec. The clauses are
    compiled when the evaluator is made, each shape once (`_rules`); a
    clause with arrays raises ArrayUnsupported there. `shapes`, the table of
    rules by shape in this box, is the evaluator's own unless the caller
    shares one between evaluators of the same box.
    """

    def __init__(self, p: Program, lo: int, hi: int, shapes: Optional[dict] = None):
        self.program, self.lo, self.hi = p, lo, hi
        rules = _rules(p.clauses, lo, hi, {} if shapes is None else shapes)
        self.rules = [r for r in rules if r.head is not None]
        self.goals = [r for r in rules if r.head is None]
        self.old: dict[tuple, dict] = {a.spec: {} for r in self.rules for a in r.atoms}
        self.total: dict[str, set[tuple[int, ...]]] = {}
        self.delta: dict[str, set[tuple[int, ...]]] = {}
        self.level = 0
        self.fixpoint = False

    def run_to(self, depth: int) -> bool:
        """Evaluate the levels up to `depth`; whether any fact was new."""
        grew = False
        while self.level < depth and not self.fixpoint:
            new = self._step()
            self.level += 1
            if not new:
                self.fixpoint = True
                break
            grew = True
            self.delta = new
            for pred, facts in new.items():
                self.total.setdefault(pred, set()).update(facts)
        return grew

    def _step(self) -> dict[str, set[tuple[int, ...]]]:
        """The facts of the next level that are not known yet.

        Semi-naive: past level 0 a binding must use a fact of `delta`. For
        each pivot i, the first atom bound to a delta fact, the atoms before
        i take `old` facts (`total` minus `delta`), atom i a delta fact and
        the atoms after it any fact; so every binding is made once over the
        whole run. The delta facts join `old` at the end of the step.
        """
        total, delta, old = self.total, self.delta, self.old
        fresh = {spec: _index(delta[spec[0]], spec) for spec in old if spec[0] in delta}
        found: dict[str, set[tuple[int, ...]]] = {}
        for r in self.rules:
            atoms = r.atoms
            if self.level == 0:
                pools = [] if atoms else [[]]
            else:
                pools = [
                    [(old[a.spec],) for a in atoms[:i]]
                    + [(fresh[atoms[i].spec],)]
                    + [(old[a.spec], fresh[a.spec]) if a.spec in fresh else (old[a.spec],)
                       for a in atoms[i + 1 :]]
                    for i in range(len(atoms))
                    if atoms[i].spec in fresh
                ]
            add = found.setdefault(r.pred, set()).add
            head, solutions, vals = r.head, r.solutions, [None] * len(r.vars)
            for idx in pools:
                for _ in _join(atoms, idx, vals):
                    for t in solutions(vals):
                        add(head(t))
        for spec, idx in fresh.items():
            known = old[spec]
            for k, bucket in idx.items():
                if k in known:
                    known[k] += bucket
                else:
                    known[k] = bucket
        new = {}
        for pred, facts in found.items():
            facts -= total.get(pred, set())
            if facts:
                new[pred] = facts
        return new

    def violation(self) -> Union[Found, NotWithinBudget]:
        """The first goal violated by the facts found so far, if any."""
        cache: dict = {}
        for g in self.goals:
            idx = []
            for a in g.atoms:
                if a.spec not in cache:
                    # Sorted, so that which violation comes first does not
                    # hang on set order.
                    facts = sorted(self.total.get(a.spec[0], ()))
                    cache[a.spec] = _index(facts, a.spec)
                idx.append((cache[a.spec],))
            for vals in _join(g.atoms, idx, [None] * len(g.vars)):
                hit = g.solutions(vals, limit=1)
                if hit:
                    # The witness comes from the compiled join; check it
                    # against the goal's own constraint, as it is reported.
                    valuation = dict(zip(g.vars, hit[0]))
                    if not boxes.eval_conj(self.program.clause(g.cid).constraint, valuation):
                        raise RuntimeError(
                            f"goal {g.cid}: the join's witness {valuation} violates its constraint"
                        )
                    return Found(g.cid, valuation)
        return NotWithinBudget()


def bounded_lm(p: Program, b: OracleBudget) -> set[GroundAtom]:
    """Ground atoms derivable within the budget's height and value box."""
    if p.goals():
        raise ValueError("bounded_lm takes a definite program (no goals)")
    ev = _Evaluator(p, b.lo, b.hi)
    ev.run_to(b.depth)
    return {GroundAtom(pred, vals) for pred, s in ev.total.items() for vals in s}


def false_derivable(
    p: Program, b: OracleBudget, *, model: Optional[_Evaluator] = None
) -> Union[Found, NotWithinBudget]:
    """Search for a goal violated by the bounded least model.

    `model`, an evaluation of `p` itself in b's value box no deeper than b,
    is carried on to b's depth instead of evaluating from level 0.
    """
    if model is None:
        model = _Evaluator(p, b.lo, b.hi)
    elif model.program is not p:
        raise ValueError("the model to resume is an evaluation of another program")
    elif (model.lo, model.hi) != (b.lo, b.hi) or model.level > b.depth:
        raise ValueError("the model to resume is not within the budget")
    model.run_to(b.depth)
    return model.violation()


@dataclass(frozen=True)
class ProbeReport:
    p0_budget: Union[Found, NotWithinBudget]
    pn_budget: Union[Found, NotWithinBudget]
    p0_doubled: Union[Found, NotWithinBudget]
    pn_doubled: Union[Found, NotWithinBudget]

    @property
    def agreement(self) -> bool:
        """The theorem-backed direction: a violation found within the budget
        on either side must be found on the other within the doubled budget."""
        p0_found = isinstance(self.p0_budget, Found)
        pn_found = isinstance(self.pn_budget, Found)
        if p0_found and not isinstance(self.pn_doubled, Found):
            return False
        if pn_found and not isinstance(self.p0_doubled, Found):
            return False
        return True


def equisat_probe(p0: Program, pn: Program, b: OracleBudget) -> ProbeReport:
    """Compare goal violations before/after a transformation at desk scale.
    Both sides share one table of rules by shape, dropped with the probe."""
    shapes: dict = {}
    p0_budget, p0_doubled = _budget_and_doubled(p0, b, shapes)
    pn_budget, pn_doubled = _budget_and_doubled(pn, b, shapes)
    return ProbeReport(p0_budget, pn_budget, p0_doubled, pn_doubled)


def _budget_and_doubled(p: Program, b: OracleBudget, shapes: dict):
    """`false_derivable` at b and at b doubled, from one evaluation of p,
    compiled with the rules of `shapes`, a table for b's box.

    The doubled search resumes the evaluation where the first stopped; when
    the further levels find no new fact, the model and so the answer are the
    same.
    """
    model = _Evaluator(p, b.lo, b.hi, shapes)
    first = false_derivable(p, b, model=model)
    if not model.run_to(2 * b.depth):
        return first, first
    return first, false_derivable(p, b.doubled(), model=model)
