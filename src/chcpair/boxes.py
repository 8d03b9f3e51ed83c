"""Finite-box enumeration of integer solutions for linear constraint systems.

This is the kernel behind the bounded oracle and every brute-force check in
the test suite. A system is a list of rows sum(coeff*var) + k REL 0, with
REL one of Rel.LE, Rel.EQ and Rel.NE. `solutions` lists the assignments
inside a box that satisfy every row, lexicographically in variable order
with ascending values.

Rows come from `LinAtom.row()`, the one place that turns a relation into
LE, EQ or NE. `index_rows` numbers the variables of a list of atoms by
first occurrence and indexes their rows as (coeffs by position, k, rel);
a `BoxSystem` holds those rows as they are. `lower_conj` does both, and
`lia` lowers its queries through `index_rows` as well. `eval_atom`
evaluates the same rows. `subst_row` replaces a variable of a row by a
definition of it, the one row substitution of `lia`'s Gauss elimination
and of the oracle's, each with its own pivot rule.

Enumeration runs a plan, made by `plan` for one system, box and set of
pinned (fixed) variables. `run` takes the values as a list in variable
order and returns tuples; `solutions` plans and runs for values keyed by
variable. Per plan:

- the pinned columns fold into the row constants; only free variables are
  enumerated, in variable order;
- every LE or EQ row keeps suffix bounds of its free columns, so at each
  level the rows that level's variable touches give an interval [xlo, xhi]
  holding exactly the values that leave every such row satisfiable by the
  later free variables. A row's last free variable is thus solved, not
  searched: an EQ row gives a single value, or none;
- an NE row is checked as soon as its last free variable is set;
- rows with no free variable are checked once, before the search.

A level tries no value that one of its LE or EQ rows rules out, so the cost
follows the number of partial assignments that each row can still extend,
rather than the size of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import ConstraintConj, LinAtom, Rel, Var

# The only enumerator there is, kept as a constant for tools that report it.
KERNEL = "pure"


Row = tuple[dict[int, int], int, Rel]

# Plans and runs compare relations with `is` against these module names: a
# global read, where `Rel.LE` would pay an attribute lookup on the enum.
_LE, _EQ, _NE = Rel.LE, Rel.EQ, Rel.NE


@dataclass
class BoxSystem:
    """A conjunction of linear atoms lowered to rows over `vars`: each row
    is (coeffs by position, k, rel), as `index_rows` makes it."""

    vars: tuple[Var, ...]
    rows: Sequence[Row]


def index_rows(
    atoms: Iterable[LinAtom], var_order: Sequence[Var] = ()
) -> tuple[list[Var], dict[Var, int], list[Row]]:
    """(vars, index, rows): `vars` is `var_order` followed by the other
    variables by first occurrence, `index` their positions, and rows[i] is
    atoms[i].row() as (coeffs by position, k, rel)."""
    vars_: list[Var] = list(var_order)
    index = {v: i for i, v in enumerate(vars_)}
    rows = []
    for atom in atoms:
        terms, k, rel = atom.row()
        coeffs: dict[int, int] = {}
        for v, c in terms:
            i = index.get(v)
            if i is None:
                i = index[v] = len(vars_)
                vars_.append(v)
            coeffs[i] = c
        rows.append((coeffs, k, rel))
    return vars_, index, rows


def lower_conj(conj: ConstraintConj, var_order: Optional[Sequence[Var]] = None) -> BoxSystem:
    """Lower the linear part of a conjunction for box evaluation.

    Array atoms are not allowed here; callers strip or reject them first.
    """
    if not all(isinstance(atom, LinAtom) for atom in conj):
        raise ValueError("box systems handle linear atoms only")
    vars_, _, rows = index_rows(conj, var_order or ())
    return BoxSystem(tuple(vars_), rows)


def subst_row(
    coeffs: dict[int, int], k: int, v: int, a: int, dcoeffs: dict[int, int], dconst: int
) -> tuple[dict[int, int], int]:
    """The row's coeffs and k with its coefficient a on v replaced by
    a * (sum(dcoeffs) + dconst); a new dict, never changing the given one.
    Its keys keep their order, and new ones follow in dcoeffs' order."""
    merged = dict(coeffs)
    del merged[v]
    for i, c in dcoeffs.items():
        merged[i] = merged.get(i, 0) + a * c
    for i in dcoeffs:
        if not merged[i]:
            del merged[i]
    return merged, k + a * dconst


@dataclass(frozen=True)
class Plan:
    """How to enumerate one system in one box with a fixed set of pinned vars.

    `consts` are the system's row constants and [lo, hi] the box. `pins[j]`
    lists the (row, coeff) pairs of the j-th pinned variable. `start` holds
    (row, rel, min, max) of every row whose free part can rule out the whole
    box: the bounds of its free columns' sum. `levels[k]` belongs to the
    k-th free variable: its position in `vars`, the (row, coeff) pairs it
    shifts, and the checks (row, coeff, rel, min, max) that bound it, with
    min and max the bounds of the row's free columns after it (both 0 when
    it is the row's last free variable).
    """

    consts: tuple[int, ...]
    lo: int
    hi: int
    pinned: tuple[int, ...]
    pins: tuple[tuple[tuple[int, int], ...], ...]
    start: tuple[tuple[int, Rel, int, int], ...]
    levels: tuple[tuple[int, tuple, tuple], ...]


def plan(sys_: BoxSystem, lo: int, hi: int, pinned: tuple[int, ...]) -> Plan:
    """The plan of `sys_` in [lo, hi] with the variables at positions
    `pinned` (ascending) fixed."""
    n = len(sys_.vars)
    rels = [rel for _, _, rel in sys_.rows]
    # cols[v]: the (row, coeff) pairs of v's nonzero coefficients, in row order
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, (coeffs, _, _) in enumerate(sys_.rows):
        for v, c in coeffs.items():
            if c:
                cols[v].append((r, c))
    pinned_set = set(pinned)
    free = [v for v in range(n) if v not in pinned_set]
    # rem[r] runs from the bounds of all free columns of row r down to 0 as
    # the levels below walk past them; last[r] is the row's last free var.
    rem = [[0, 0] for _ in rels]
    last = [-1] * len(rels)
    for v in free:
        for r, c in cols[v]:
            rem[r][0] += min(c * lo, c * hi)
            rem[r][1] += max(c * lo, c * hi)
            last[r] = v
    start = tuple(
        (r, rel, rem[r][0], rem[r][1])
        for r, rel in enumerate(rels)
        if rel is not _NE or last[r] < 0
    )
    levels = []
    for v in free:
        checks = []
        for r, c in cols[v]:
            rem[r][0] -= min(c * lo, c * hi)
            rem[r][1] -= max(c * lo, c * hi)
            if rels[r] is not _NE or last[r] == v:
                checks.append((r, c, rels[r], rem[r][0], rem[r][1]))
        levels.append((v, tuple(cols[v]), tuple(checks)))
    consts = tuple([k for _, k, _ in sys_.rows])
    pins = tuple(tuple(cols[v]) for v in pinned)
    return Plan(consts, lo, hi, pinned, pins, start, tuple(levels))


def run(plan: Plan, vals: list, limit: int = 2**62) -> list[tuple]:
    """The first `limit` solutions of the plan, as tuples in variable order.

    `vals` has one slot per variable and holds the pinned values in place;
    the free slots are overwritten."""
    lo, hi = plan.lo, plan.hi
    s = list(plan.consts)
    for pos, touched in zip(plan.pinned, plan.pins):
        x = vals[pos]
        for r, c in touched:
            s[r] += c * x
    for r, rel, mn, mx in plan.start:
        t = s[r]
        if rel is _LE:
            if t + mn > 0:
                return []
        elif rel is _EQ:
            if t + mn > 0 or t + mx < 0:
                return []
        elif t == 0:  # a ground NE row
            return []
    out: list[tuple] = []
    levels = plan.levels
    last = len(levels) - 1
    if last < 0:
        # Nothing to search; an empty system is satisfied whatever the limit.
        return [tuple(vals)] if limit > 0 or not (vals or s) else []

    def rec(k: int) -> None:
        pos, touched, checks = levels[k]
        xlo, xhi = lo, hi
        skip = None
        for r, c, rel, mn, mx in checks:
            t = s[r]
            if rel is _NE:
                if t % c == 0:
                    skip = (-t // c,) if skip is None else skip + (-t // c,)
                continue
            # LE: mn + t + c*x <= 0; EQ also mx + t + c*x >= 0.
            a = -t - mn
            if c > 0:
                b = a // c
                if b < xhi:
                    xhi = b
                if rel is _EQ:
                    b = -((t + mx) // c)
                    if b > xlo:
                        xlo = b
            else:
                b = -(a // -c)
                if b > xlo:
                    xlo = b
                if rel is _EQ:
                    b = (t + mx) // -c
                    if b < xhi:
                        xhi = b
            if xlo > xhi:
                return
        xs = range(xlo, xhi + 1)
        if skip is not None:
            xs = [x for x in xs if x not in skip]
        if k == last:
            # every value left is a solution
            head, tail = tuple(vals[:pos]), tuple(vals[pos + 1 :])
            out.extend([head + (x,) + tail for x in xs[: limit - len(out)]])
            return
        for x in xs:
            vals[pos] = x
            for r, c in touched:
                s[r] += c * x
            rec(k + 1)
            for r, c in touched:
                s[r] -= c * x
            if len(out) >= limit:
                return

    if limit > 0:
        rec(0)
    return out


def solutions(
    sys_: BoxSystem,
    lo: int,
    hi: int,
    fixed: Optional[Mapping[Var, int]] = None,
    limit: int = 2**62,
) -> list[dict[Var, int]]:
    """All assignments (as dicts) in the box satisfying the system.

    Variables in `fixed` keep their given value, inside the box or not. At
    most `limit` assignments come back, the lexicographically first ones.
    """
    vs = sys_.vars
    vals = [fixed.get(v) for v in vs] if fixed else [None] * len(vs)
    pinned = tuple([i for i, x in enumerate(vals) if x is not None])
    return [dict(zip(vs, tup)) for tup in run(plan(sys_, lo, hi, pinned), vals, limit)]


def find_solution(
    sys_: BoxSystem, lo: int, hi: int, fixed: Optional[Mapping[Var, int]] = None
) -> Optional[dict[Var, int]]:
    got = solutions(sys_, lo, hi, fixed, limit=1)
    return got[0] if got else None


def row_holds(s: int, rel: Rel) -> bool:
    """Whether s rel 0, for a row relation (LE, EQ or NE)."""
    if rel is Rel.LE:
        return s <= 0
    if rel is Rel.EQ:
        return s == 0
    return s != 0


def eval_atom(atom: LinAtom, env: Mapping[Var, int]) -> bool:
    """Evaluate a ground linear atom under a total assignment."""
    terms, k, rel = atom.row()
    return row_holds(k + sum(c * env[v] for v, c in terms), rel)


def eval_conj(conj: ConstraintConj, env: Mapping[Var, int]) -> bool:
    return all(eval_atom(a, env) for a in conj if isinstance(a, LinAtom))
