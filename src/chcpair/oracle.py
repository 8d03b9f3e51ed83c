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
(Bancilhon & Ramakrishnan, SIGMOD 1986).

A program is compiled once per value box into a join plan per clause, in
the manner of Souffle (Jordan, Scholz & Subotic, CAV 2016). A clause's
values live in one list, a slot per variable of its box system; the plan
gives, per body atom, the slots that make its index key and the slots it
binds, and the box enumeration plan for the slots left free. Atoms join
left to right through facts hashed on their key, filling the list in
place; the box plan then fills the free slots, and the head atom is read
off each solution by position. No variable is hashed in the loop.

The evaluation can be resumed. `equisat_probe` runs each side to the
budget's depth, searches the goals, and carries the same evaluation on to
the doubled depth; only when that finds a new fact is the goal search
repeated, on the larger model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional, Union

from . import boxes
from .errors import ArrayUnsupported
from .syntax import Clause, ConstraintConj, Program, Sort, Var


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
    argument positions that earlier atoms bind (the key) and the argument
    position pairs a fact must agree on because a variable repeats within
    the atom. `key` reads the same key off the clause's value list, and
    `new` lists the (argument position, slot) pairs the atom binds first.
    """

    spec: tuple
    key: Callable
    new: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _Rule:
    """A clause compiled for one value box.

    Values live in one list per clause, a slot per variable of its box
    system `sys`; `plan` enumerates the slots that no body atom binds.
    `head` reads the head atom off a solution; a goal has none.
    """

    cid: int
    pred: Optional[str]
    head: Optional[Callable]
    atoms: tuple[_Atom, ...]
    sys: boxes.BoxSystem
    plan: boxes.Plan


def _getter(positions: tuple[int, ...]) -> Callable:
    """A key function giving the items at `positions`; the same positions
    give the same key whatever the sequence."""
    return itemgetter(*positions) if positions else _no_key


def _no_key(_seq) -> tuple:
    return ()


def _compile(c: Clause, lo: int, hi: int) -> _Rule:
    if c.constraint.array_atoms():
        raise ArrayUnsupported(f"clause {c.cid} uses array constraints")
    vars_ = c.vars()
    if any(v.sort is Sort.ARRAY for v in vars_):
        raise ArrayUnsupported(f"clause {c.cid} has array variables")
    sys_ = boxes.lower_conj(ConstraintConj(c.constraint.lin_atoms()), var_order=vars_)
    pos = {v: i for i, v in enumerate(sys_.vars)}
    bound: set[int] = set()
    atoms = []
    for atom in c.body:
        key_pos, key_vals, eqs, new = [], [], [], []
        first: dict[int, int] = {}
        for arg, v in enumerate(atom.args):
            i = pos[v]
            if i in bound:
                key_pos.append(arg)
                key_vals.append(i)
            elif i in first:
                eqs.append((first[i], arg))
            else:
                first[i] = arg
                new.append((arg, i))
        bound.update(first)
        spec = (atom.pred, tuple(key_pos), tuple(eqs))
        atoms.append(_Atom(spec, _getter(tuple(key_vals)), tuple(new)))
    pred = head = None
    if c.head is not None:
        # Head variables come first in the clause's variable order, so a
        # head of distinct variables is the front of a solution; one that
        # repeats a variable has at least two arguments.
        pred = c.head.pred
        hpos = tuple([pos[v] for v in c.head.args])
        whole = hpos == tuple(range(len(hpos)))
        head = itemgetter(slice(0, len(hpos))) if whole else itemgetter(*hpos)
    plan = boxes.prepare(sys_, lo, hi, tuple(sorted(bound)))
    return _Rule(c.cid, pred, head, tuple(atoms), sys_, plan)


def _index(facts: Iterable[tuple], spec: tuple, skip: Collection = ()) -> dict:
    """The facts hashed on the key of `spec`, each bucket in the facts'
    order, without those in `skip` or that break a repeated variable."""
    _, key_pos, eqs = spec
    key = _getter(key_pos)
    idx: dict = {}
    for t in facts:
        if t in skip or any(t[i] != t[j] for i, j in eqs):
            continue
        k = key(t)
        bucket = idx.get(k)
        if bucket is None:
            idx[k] = [t]
        else:
            bucket.append(t)
    return idx


def _join(atoms: tuple[_Atom, ...], idx: list[dict], vals: list):
    """Yield `vals` once per way of binding body atom i to a fact of idx[i].

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
        new = atom.new
        for t in idx[k].get(atom.key(vals), ()):
            for arg, i in new:
                vals[i] = t[arg]
            yield from rec(k + 1)

    return rec(0)


class _Evaluator:
    """The bounded least model of one program in one value box, resumable.

    `total` holds the facts found so far per predicate, `delta` those new
    at the last level, and `level` the number of levels evaluated; once a
    level finds nothing new, `fixpoint` is set and no later level can. The
    clauses are compiled once, when the evaluator is made; a clause with
    arrays raises ArrayUnsupported there.
    """

    def __init__(self, p: Program, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        rules = [_compile(c, lo, hi) for c in p.clauses]
        self.rules = [r for r in rules if r.head is not None]
        self.goals = [r for r in rules if r.head is None]
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
        whole run.
        """
        total, delta = self.total, self.delta
        cache: dict = {}

        def index(pool: str, spec: tuple) -> dict:
            idx = cache.get((pool, spec))
            if idx is None:
                facts = (delta if pool == "delta" else total).get(spec[0], ())
                skip = delta.get(spec[0], ()) if pool == "old" else ()
                idx = cache[pool, spec] = _index(facts, spec, skip)
            return idx

        found: dict[str, set[tuple[int, ...]]] = {}
        for r in self.rules:
            atoms, n = r.atoms, len(r.atoms)
            if self.level == 0:
                pools = [["total"] * n]
            else:
                pools = [
                    ["old"] * i + ["delta"] + ["total"] * (n - i - 1)
                    for i in range(n)
                    if delta.get(atoms[i].spec[0])
                ]
            add = found.setdefault(r.pred, set()).add
            head, plan, vals = r.head, r.plan, [None] * len(r.sys.vars)
            for ps in pools:
                idx = [index(pool, a.spec) for pool, a in zip(ps, atoms)]
                for _ in _join(atoms, idx, vals):
                    for t in boxes.run(plan, vals):
                        add(head(t))
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
                idx.append(cache[a.spec])
            for vals in _join(g.atoms, idx, [None] * len(g.sys.vars)):
                if boxes.run(g.plan, vals, limit=1):
                    # Slots map back to variables in boxes.solutions; for
                    # the binding that hit it gives the same first solution.
                    fixed = {g.sys.vars[i]: vals[i] for i in g.plan.pinned}
                    hit = boxes.solutions(g.sys, self.lo, self.hi, fixed, limit=1)
                    return Found(g.cid, hit[0])
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

    `model`, an evaluation of `p` in b's value box no deeper than b, is
    carried on to b's depth instead of evaluating from level 0.
    """
    if model is None:
        model = _Evaluator(p, b.lo, b.hi)
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

    def summary(self) -> str:
        def s(r):
            return "Found" if isinstance(r, Found) else "NotWithinBudget"

        return (
            f"P0: {s(self.p0_budget)} (doubled: {s(self.p0_doubled)}), "
            f"Pn: {s(self.pn_budget)} (doubled: {s(self.pn_doubled)}), "
            f"agreement: {self.agreement}"
        )


def equisat_probe(p0: Program, pn: Program, b: OracleBudget) -> ProbeReport:
    """Compare goal violations before/after a transformation at desk scale."""
    p0_budget, p0_doubled = _budget_and_doubled(p0, b)
    pn_budget, pn_doubled = _budget_and_doubled(pn, b)
    return ProbeReport(p0_budget, pn_budget, p0_doubled, pn_doubled)


def _budget_and_doubled(p: Program, b: OracleBudget):
    """`false_derivable` at b and at b doubled, from one evaluation of p.

    The doubled search resumes the evaluation where the first stopped; when
    the further levels find no new fact, the model and so the answer are the
    same.
    """
    model = _Evaluator(p, b.lo, b.hi)
    first = false_derivable(p, b, model=model)
    if not model.run_to(2 * b.depth):
        return first, first
    return first, false_derivable(p, b.doubled(), model=model)
