"""Bounded ground evaluation: desk-scale least models and goal violations.

Evaluation is bottom-up and semi-naive over derivation-tree height: an
atom enters level k+1 when some clause derives it from body atoms of
height <= k, at least one of exactly height k. All values (including
intermediate constraint variables) are confined to the budget box, so the
result under-approximates the true least model by design.

Each level joins a clause body against the facts known so far only where
it uses a fact new at the last level (`delta`): for each pivot atom i, the
atoms before i take the older facts, atom i a delta fact and the atoms
after i any fact. Every body binding is thus made once over the whole run.
Atoms join left to right through facts hashed on the argument positions
that earlier atoms bind; a binding then pins the body variables of the
clause's box system, whose solutions give the head atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Union

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


def _reject_arrays(p: Program):
    for c in p.clauses:
        if c.constraint.array_atoms():
            raise ArrayUnsupported(f"clause {c.cid} uses array constraints")
        for v in c.vars():
            if v.sort is Sort.ARRAY:
                raise ArrayUnsupported(f"clause {c.cid} has array variables")


def _clause_system(c: Clause) -> boxes.BoxSystem:
    return boxes.lower_conj(
        ConstraintConj(c.constraint.lin_atoms()), var_order=c.vars()
    )


def _shapes(body, sys_: boxes.BoxSystem) -> tuple:
    """How each body atom joins the atoms before it.

    Per atom: its predicate; the argument positions, and their variables,
    that earlier atoms bind (the index key); the position pairs a fact must
    agree on because a variable repeats within the atom; and the
    (position, variable) pairs the atom binds first. Variables are the
    system's own objects, so that its lookups find them by identity.
    """
    canon = {v: v for v in sys_.vars}
    bound: set[Var] = set()
    out = []
    for atom in body:
        key_pos, key_vars, eqs, new = [], [], [], []
        first: dict[Var, int] = {}
        for pos, v in enumerate(atom.args):
            v = canon[v]
            if v in bound:
                key_pos.append(pos)
                key_vars.append(v)
            elif v in first:
                eqs.append((first[v], pos))
            else:
                first[v] = pos
                new.append((pos, v))
        bound.update(first)
        out.append((atom.pred, tuple(key_pos), tuple(key_vars), tuple(eqs), tuple(new)))
    return tuple(out)


class _Indexes:
    """Facts hashed on the argument positions a join looks them up by.

    Three pools: `delta` (the facts new at the last level), `old`
    (`total` minus `delta`) and `total`. An index keeps each bucket in the
    pool's iteration order and drops facts that break a repeated variable.
    """

    def __init__(self, total: Mapping[str, Collection], delta: Mapping[str, set]):
        self.total = total
        self.delta = delta
        self.cache: dict = {}

    def get(self, pool: str, pred: str, key_pos: tuple, eqs: tuple) -> dict:
        k = (pool, pred, key_pos, eqs)
        idx = self.cache.get(k)
        if idx is None:
            facts = (self.delta if pool == "delta" else self.total).get(pred, ())
            skip = self.delta.get(pred, ()) if pool == "old" else ()
            idx = self.cache[k] = {}
            for t in facts:
                if t in skip or any(t[i] != t[j] for i, j in eqs):
                    continue
                key = tuple([t[i] for i in key_pos])
                bucket = idx.get(key)
                if bucket is None:
                    idx[key] = [t]
                else:
                    bucket.append(t)
        return idx


def _join(shapes: tuple, pools: Iterable[str], indexes: _Indexes):
    """Yield every env that binds body atom i to a fact of pool `pools[i]`.

    Atoms join left to right through hashed lookups, each binding once. The
    same env object comes back every time: read it before the next one.
    """
    idx = [
        indexes.get(pool, pred, key_pos, eqs)
        for pool, (pred, key_pos, _, eqs, _) in zip(pools, shapes)
    ]
    n = len(shapes)
    env: dict[Var, int] = {}

    def rec(k: int):
        if k == n:
            yield env
            return
        key_vars, new = shapes[k][2], shapes[k][4]
        for vals in idx[k].get(tuple([env[v] for v in key_vars]), ()):
            for pos, v in new:
                env[v] = vals[pos]
            yield from rec(k + 1)

    return rec(0)


def _bindings(shapes: tuple, indexes: _Indexes, need_delta: bool):
    """Yield the envs binding the body to known facts, each exactly once;
    with `need_delta`, only those that use at least one fact of `delta`.

    Semi-naive: the pivot i is the first atom bound to a delta fact, so the
    atoms before it take `old` facts and the atoms after it any fact.
    """
    if not need_delta:
        yield from _join(shapes, ["total"] * len(shapes), indexes)
        return
    for i, shape in enumerate(shapes):
        if indexes.delta.get(shape[0]):
            pools = ["old"] * i + ["delta"] + ["total"] * (len(shapes) - i - 1)
            yield from _join(shapes, pools, indexes)


def bounded_lm(p: Program, b: OracleBudget) -> set[GroundAtom]:
    """Ground atoms derivable within the budget's height and value box."""
    if p.goals():
        raise ValueError("bounded_lm takes a definite program (no goals)")
    _reject_arrays(p)
    clauses = []
    for c in p.clauses:
        sys_ = _clause_system(c)
        clauses.append((c, sys_, _shapes(c.body, sys_)))
    total: dict[str, set[tuple[int, ...]]] = {}
    delta: dict[str, set[tuple[int, ...]]] = {}
    for level in range(b.depth):
        new: dict[str, set[tuple[int, ...]]] = {}
        indexes = _Indexes(total, delta)
        for c, sys_, shapes in clauses:
            head = c.head.args
            known = total.get(c.head.pred, set())
            for env in _bindings(shapes, indexes, need_delta=level > 0):
                for full in boxes.solutions(sys_, b.lo, b.hi, fixed=env):
                    vals = tuple([full[v] for v in head])
                    if all(b.lo <= x <= b.hi for x in vals):
                        if vals not in known:
                            new.setdefault(c.head.pred, set()).add(vals)
        if not any(new.values()):
            break
        delta = new
        for pred, tuples in new.items():
            total.setdefault(pred, set()).update(tuples)
    return {GroundAtom(pred, vals) for pred, s in total.items() for vals in s}


def false_derivable(p: Program, b: OracleBudget) -> Union[Found, NotWithinBudget]:
    """Search for a goal violated by the bounded least model."""
    _reject_arrays(p)
    lm = bounded_lm(p.definite(), b)
    facts: dict[str, set[tuple[int, ...]]] = {}
    for ga in lm:
        facts.setdefault(ga.pred, set()).add(ga.args)
    # Sorted, so that which violation comes first does not hang on set order.
    indexes = _Indexes({pred: sorted(ts) for pred, ts in facts.items()}, {})
    for goal in p.goals():
        sys_ = _clause_system(goal)
        for env in _bindings(_shapes(goal.body, sys_), indexes, need_delta=False):
            hit = boxes.solutions(sys_, b.lo, b.hi, fixed=env, limit=1)
            if hit:
                return Found(goal.cid, hit[0])
    return NotWithinBudget()


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
    return ProbeReport(
        p0_budget=false_derivable(p0, b),
        pn_budget=false_derivable(pn, b),
        p0_doubled=false_derivable(p0, b.doubled()),
        pn_doubled=false_derivable(pn, b.doubled()),
    )
