"""Abstract syntax, parsing and printing for constrained Horn clauses.

Clauses are kept in a normalized form: every atom argument is a variable,
head argument variables are distinct, and non-variable arguments from the
surface syntax are replaced by fresh variables plus equality constraints.
All values are immutable and hashable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ArityClash, OverlapError, ParseError, SortMismatch


class Sort(enum.Enum):
    INT = "int"
    ARRAY = "array"

    def __repr__(self):
        return self.value


class Rel(enum.Enum):
    EQ = "="
    LE = "=<"
    LT = "<"
    GE = ">="
    GT = ">"
    NE = "=\\="

    def __repr__(self):
        return self.value


def _memo_hash(cls):
    """Memoise the hash of a frozen, slotted dataclass in its `_hash` field.

    The field is declared with init=False, compare=False and repr=False, and
    stays unset until the first hash(). A slot, unlike an instance __dict__,
    adds no memory to these small and numerous values. Pickling and copying
    rebuild the value from its compared fields, so a hash computed under one
    hash seed never travels to another process.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)
    key = attrgetter(*names)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return cls, tuple(getattr(self, n) for n in names)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: Sort = Sort.INT

    def __hash__(self):
        # the name alone: equal variables share it, and a str caches its
        # hash, where hashing the Sort member runs Enum.__hash__ in Python
        return hash(self.name)

    def __repr__(self):
        return self.name if self.sort is Sort.INT else f"{self.name}:arr"


@_memo_hash
@dataclass(frozen=True, slots=True)
class LinExpr:
    """Linear polynomial: sum of coeff*var terms plus an integer constant.

    Terms are stored sorted by variable name with zero coefficients removed,
    so structural equality coincides with syntactic equality of polynomials.
    """

    coeffs: tuple[tuple[Var, int], ...] = ()
    const: int = 0
    _hash: int = field(init=False, compare=False, repr=False)

    @staticmethod
    def of(v: Var) -> "LinExpr":
        return LinExpr(((v, 1),), 0)

    @staticmethod
    def number(n: int) -> "LinExpr":
        return LinExpr((), n)

    @staticmethod
    def build(coeffs: Mapping[Var, int], const: int = 0) -> "LinExpr":
        items = tuple(
            sorted(((v, c) for v, c in coeffs.items() if c != 0), key=lambda it: it[0].name)
        )
        return LinExpr(items, const)

    def coeff_map(self) -> dict[Var, int]:
        return dict(self.coeffs)

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def as_var(self) -> Optional[Var]:
        if len(self.coeffs) == 1 and self.const == 0 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def add(self, other: "LinExpr") -> "LinExpr":
        m = self.coeff_map()
        for v, c in other.coeffs:
            m[v] = m.get(v, 0) + c
        return LinExpr.build(m, self.const + other.const)

    def sub(self, other: "LinExpr") -> "LinExpr":
        m = self.coeff_map()
        for v, c in other.coeffs:
            m[v] = m.get(v, 0) - c
        return LinExpr.build(m, self.const - other.const)

    def scale(self, k: int) -> "LinExpr":
        return LinExpr.build({v: c * k for v, c in self.coeffs}, self.const * k)

    def subst(self, theta: Mapping[Var, Var]) -> "LinExpr":
        m: dict[Var, int] = {}
        for v, c in self.coeffs:
            w = theta.get(v, v)
            m[w] = m.get(w, 0) + c
        return LinExpr.build(m, self.const)


@_memo_hash
@dataclass(frozen=True, slots=True)
class LinAtom:
    lhs: LinExpr
    rel: Rel
    rhs: LinExpr
    _hash: int = field(init=False, compare=False, repr=False)
    _row: tuple = field(init=False, compare=False, repr=False)

    def row(self) -> tuple[tuple[tuple[Var, int], ...], int, Rel]:
        """This atom as the row sum(c*v for v, c in terms) + k rel 0.

        Returns (terms, k, rel) with rel one of LE, EQ and NE: LT and GT add
        1 to k (integers), and GE and GT turn into rhs - lhs <= 0. Terms come
        in LinExpr's name order. The row is memoised in `_row`, which, like
        `_hash`, never travels through pickle or copy.
        """
        try:
            return self._row
        except AttributeError:
            pass
        lhs, rhs, rel = self.lhs, self.rhs, self.rel
        if rel is Rel.GE or rel is Rel.GT:
            lhs, rhs = rhs, lhs
        terms = lhs.sub(rhs).coeffs
        k = lhs.const - rhs.const
        if rel is Rel.LT or rel is Rel.GT:
            k += 1
        row = (terms, k, rel if rel is Rel.EQ or rel is Rel.NE else Rel.LE)
        object.__setattr__(self, "_row", row)
        return row

    def vars(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for v in self.lhs.vars() + self.rhs.vars():
            seen.setdefault(v)
        return tuple(seen)

    def subst(self, theta: Mapping[Var, Var]) -> "LinAtom":
        return LinAtom(self.lhs.subst(theta), self.rel, self.rhs.subst(theta))


@dataclass(frozen=True)
class ReadAtom:
    arr: Var
    idx: Var
    val: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.arr, self.idx, self.val)

    def subst(self, theta: Mapping[Var, Var]) -> "ReadAtom":
        g = lambda v: theta.get(v, v)
        return ReadAtom(g(self.arr), g(self.idx), g(self.val))


@dataclass(frozen=True)
class WriteAtom:
    arr: Var
    idx: Var
    val: Var
    out: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.arr, self.idx, self.val, self.out)

    def subst(self, theta: Mapping[Var, Var]) -> "WriteAtom":
        g = lambda v: theta.get(v, v)
        return WriteAtom(g(self.arr), g(self.idx), g(self.val), g(self.out))


@dataclass(frozen=True)
class ArrEqAtom:
    """Equality between two array variables (from head normalization)."""

    lhs: Var
    rhs: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.lhs, self.rhs)

    def subst(self, theta: Mapping[Var, Var]) -> "ArrEqAtom":
        return ArrEqAtom(theta.get(self.lhs, self.lhs), theta.get(self.rhs, self.rhs))


ConstraintAtom = Union[LinAtom, ReadAtom, WriteAtom, ArrEqAtom]


def false_atom() -> LinAtom:
    """Canonical unsatisfiable constraint atom (0 = 1)."""
    return LinAtom(LinExpr.number(0), Rel.EQ, LinExpr.number(1))


def eq_atom(x: Var, y: Var) -> ConstraintAtom:
    if x.sort is Sort.ARRAY or y.sort is Sort.ARRAY:
        if x.sort is not y.sort:
            raise SortMismatch(f"cannot equate {x!r} and {y!r}")
        return ArrEqAtom(x, y)
    return LinAtom(LinExpr.of(x), Rel.EQ, LinExpr.of(y))


@_memo_hash
@dataclass(frozen=True, slots=True)
class ConstraintConj:
    """Conjunction of constraint atoms; the empty conjunction is true."""

    atoms: tuple[ConstraintAtom, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __iter__(self) -> Iterator[ConstraintAtom]:
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def is_true(self) -> bool:
        return not self.atoms

    def vars(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for a in self.atoms:
            for v in a.vars():
                seen.setdefault(v)
        return tuple(seen)

    def lin_atoms(self) -> tuple[LinAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, LinAtom))

    def array_atoms(self) -> tuple[ConstraintAtom, ...]:
        return tuple(a for a in self.atoms if not isinstance(a, LinAtom))

    def conjoin(self, other: "ConstraintConj") -> "ConstraintConj":
        return ConstraintConj(self.atoms + other.atoms)

    def subst(self, theta: Mapping[Var, Var]) -> "ConstraintConj":
        return ConstraintConj(tuple(a.subst(theta) for a in self.atoms))


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Var, ...] = ()

    def vars(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for v in self.args:
            seen.setdefault(v)
        return tuple(seen)

    def subst(self, theta: Mapping[Var, Var]) -> "Atom":
        return Atom(self.pred, tuple(theta.get(v, v) for v in self.args))

    def __repr__(self):
        return f"{self.pred}({','.join(v.name for v in self.args)})"


@dataclass(frozen=True)
class Clause:
    """A definite clause (head atom) or a goal (head None, i.e. false)."""

    cid: int
    head: Optional[Atom]
    constraint: ConstraintConj = ConstraintConj()
    body: tuple[Atom, ...] = ()

    @property
    def is_goal(self) -> bool:
        return self.head is None

    @property
    def is_linear(self) -> bool:
        return len(self.body) <= 1

    def vars(self) -> tuple[Var, ...]:
        """Variables in head, constraint, body order (first occurrence)."""
        seen: dict[Var, None] = {}
        if self.head is not None:
            for v in self.head.args:
                seen.setdefault(v)
        for v in self.constraint.vars():
            seen.setdefault(v)
        for a in self.body:
            for v in a.args:
                seen.setdefault(v)
        return tuple(seen)

    def subst(self, theta: Mapping[Var, Var]) -> "Clause":
        return Clause(
            self.cid,
            None if self.head is None else self.head.subst(theta),
            self.constraint.subst(theta),
            tuple(a.subst(theta) for a in self.body),
        )

    def preds(self) -> set[str]:
        s = {a.pred for a in self.body}
        if self.head is not None:
            s.add(self.head.pred)
        return s


class Program:
    """An ordered set of clauses with inferred predicate signatures."""

    def __init__(self, clauses: Iterable[Clause], signatures: Optional[Mapping[str, tuple[Sort, ...]]] = None):
        self.clauses: tuple[Clause, ...] = tuple(clauses)
        seen_ids = set()
        for c in self.clauses:
            if c.cid in seen_ids:
                raise ArityClash(f"duplicate clause id {c.cid}")
            seen_ids.add(c.cid)
        self.signatures: dict[str, tuple[Sort, ...]] = dict(signatures or {})
        for c in self.clauses:
            atoms = list(c.body) + ([c.head] if c.head is not None else [])
            for a in atoms:
                sig = tuple(v.sort for v in a.args)
                old = self.signatures.get(a.pred)
                if old is None:
                    self.signatures[a.pred] = sig
                elif old != sig:
                    if len(old) != len(sig):
                        raise ArityClash(
                            f"predicate {a.pred!r} used with arity {len(sig)} and {len(old)}"
                        )
                    raise SortMismatch(f"predicate {a.pred!r} used with conflicting sorts")
        self._by_id = {c.cid: c for c in self.clauses}

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)

    def __eq__(self, other):
        return isinstance(other, Program) and self.clauses == other.clauses

    def clause(self, cid: int) -> Clause:
        return self._by_id[cid]

    def has_clause(self, cid: int) -> bool:
        return cid in self._by_id

    def preds(self) -> set[str]:
        return set(self.signatures)

    def head_preds(self) -> set[str]:
        return {c.head.pred for c in self.clauses if c.head is not None}

    def goals(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.is_goal)

    def definite(self) -> "Program":
        return Program([c for c in self.clauses if not c.is_goal], self.signatures)

    def clauses_for(self, pred: str) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.head is not None and c.head.pred == pred)

    def max_id(self) -> int:
        return max((c.cid for c in self.clauses), default=0)


# ---------------------------------------------------------------------------
# Substitution and renaming


Substitutable = Union[Clause, Atom, ConstraintConj, LinExpr, list, tuple]


def apply_subst(target, theta: Mapping[Var, Var]):
    """Apply a simultaneous variable-for-variable substitution.

    Accepts clauses, atoms, constraint conjunctions, linear expressions and
    (possibly nested) lists/tuples of these. Raises SortMismatch if theta
    maps across sorts.
    """
    for v, w in theta.items():
        if v.sort is not w.sort:
            raise SortMismatch(f"substitution maps {v!r} to {w!r} of different sort")
    return _subst(target, theta)


def _subst(target, theta):
    if isinstance(target, (Clause, Atom, ConstraintConj, LinExpr, LinAtom, ReadAtom, WriteAtom, ArrEqAtom)):
        return target.subst(theta)
    if isinstance(target, list):
        return [_subst(t, theta) for t in target]
    if isinstance(target, tuple):
        return tuple(_subst(t, theta) for t in target)
    raise TypeError(f"cannot substitute into {type(target).__name__}")


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def rename_apart(c: Clause, avoid: Iterable[Var]) -> Clause:
    """Return a variant of c whose variables avoid the given set.

    Variables not in the avoid set keep their names; clashing ones get the
    smallest fresh primed name (X -> X_1, X_2, ...).
    """
    avoid_names = {v.name for v in avoid}
    own = c.vars()
    taken = avoid_names | {v.name for v in own}
    theta: dict[Var, Var] = {}
    for v in own:
        if v.name in avoid_names:
            nn = fresh_name(v.name, taken)
            taken.add(nn)
            theta[v] = Var(nn, v.sort)
    return c.subst(theta) if theta else c


# ---------------------------------------------------------------------------
# Dependency partition


def reachable_preds(p: Program, root: str) -> set[str]:
    """Predicates reachable from root in the head->body dependency graph."""
    deps: dict[str, set[str]] = {}
    for c in p.clauses:
        if c.head is None:
            continue
        deps.setdefault(c.head.pred, set()).update(a.pred for a in c.body)
    seen = {root}
    work = [root]
    while work:
        q = work.pop()
        for nxt in deps.get(q, ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def predicate_partition(p: Program, q: str, r: str) -> tuple[Program, Program]:
    """Split p into the clause cones reachable from q and from r.

    The two cones must be predicate-disjoint; otherwise OverlapError names
    a shared predicate.
    """
    if q not in p.preds():
        raise OverlapError(q) if q == r else ArityClash(f"unknown predicate {q!r}")
    if r not in p.preds():
        raise ArityClash(f"unknown predicate {r!r}")
    qs = reachable_preds(p, q)
    rs = reachable_preds(p, r)
    shared = qs & rs
    if shared:
        raise OverlapError(sorted(shared)[0])
    qcl = [c for c in p.clauses if c.head is not None and c.head.pred in qs]
    rcl = [c for c in p.clauses if c.head is not None and c.head.pred in rs]
    return Program(qcl), Program(rcl)


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<neck>:-)
  | (?P<rel>=\\=|=<|>=|=|<|>)
  | (?P<int>\d+)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<punct>[(),.*+\-])
    """,
    re.VERBOSE,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# Raw (untyped) clause pieces produced by the grammar pass, before sort
# inference assigns Var sorts.
_RawExpr = tuple  # (coeffs: dict[str,int], const: int)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def at(self, kind, text=None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    # --- grammar ---

    def program(self):
        sort_decls: dict[str, tuple[str, ...]] = {}
        raw_clauses = []
        while not self.at("eof"):
            if self.at("neck"):
                self.next()
                t = self.expect("ident")
                if t.text != "sorts":
                    raise ParseError(f"unknown directive {t.text!r}", t.line, t.col)
                pred = self.expect("ident").text
                self.expect("punct", "(")
                sorts = [self.expect("ident").text]
                while self.at("punct", ","):
                    self.next()
                    sorts.append(self.expect("ident").text)
                self.expect("punct", ")")
                self.expect("punct", ".")
                for s in sorts:
                    if s not in ("int", "array"):
                        raise ParseError(f"unknown sort {s!r}", t.line, t.col)
                sort_decls[pred] = tuple(sorts)
            else:
                raw_clauses.append(self.clause())
        return sort_decls, raw_clauses

    def clause(self):
        t = self.peek()
        if self.at("ident", "false"):
            self.next()
            head = None
        else:
            head = self.atom()
        items = []
        if self.at("neck"):
            self.next()
            items.append(self.item())
            while self.at("punct", ","):
                self.next()
                items.append(self.item())
        self.expect("punct", ".")
        return (head, items, t.line, t.col)

    def atom(self):
        name = self.expect("ident").text
        args = []
        if self.at("punct", "("):
            self.next()
            args.append(self.linexpr())
            while self.at("punct", ","):
                self.next()
                args.append(self.linexpr())
            self.expect("punct", ")")
        return ("atom", name, args)

    def item(self):
        t = self.peek()
        if t.kind == "ident" and t.text in ("read", "write"):
            save = self.i
            self.next()
            if self.at("punct", "("):
                self.next()
                args = [self.expect("var").text]
                while self.at("punct", ","):
                    self.next()
                    args.append(self.expect("var").text)
                self.expect("punct", ")")
                want = 3 if t.text == "read" else 4
                if len(args) != want:
                    raise ParseError(f"{t.text} takes {want} variables", t.line, t.col)
                return (t.text, args)
            self.i = save
        if t.kind == "ident":
            return self.atom()
        # otherwise a linear constraint atom
        lhs = self.linexpr()
        rel = self.expect("rel").text
        rhs = self.linexpr()
        return ("lin", lhs, rel, rhs)

    def linexpr(self):
        coeffs: dict[str, int] = {}
        const = 0
        sign = 1
        if self.at("punct", "-"):
            self.next()
            sign = -1
        c, k = self.term()
        for n, v in c.items():
            coeffs[n] = coeffs.get(n, 0) + sign * v
        const += sign * k
        while self.at("punct", "+") or self.at("punct", "-"):
            sign = 1 if self.next().text == "+" else -1
            c, k = self.term()
            for n, v in c.items():
                coeffs[n] = coeffs.get(n, 0) + sign * v
            const += sign * k
        return (coeffs, const)

    def term(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            k = int(t.text)
            if self.at("punct", "*"):
                self.next()
                v = self.expect("var").text
                return ({v: k}, 0)
            return ({}, k)
        if t.kind == "var":
            self.next()
            if self.at("punct", "*"):
                self.next()
                k = int(self.expect("int").text)
                return ({t.text: k}, 0)
            return ({t.text: 1}, 0)
        raise ParseError(f"expected term, found {t.text!r}", t.line, t.col)


def _infer_sorts(sort_decls, raw_clauses):
    """Assign a sort to every (clause, var) and a signature to every pred."""
    signatures: dict[str, list[Optional[str]]] = {
        p: list(s) for p, s in sort_decls.items()
    }

    def sig_for(name, nargs, line, col):
        if name not in signatures:
            signatures[name] = [None] * nargs
        elif len(signatures[name]) != nargs:
            raise ArityClash(
                f"predicate {name!r} used with arity {nargs} and {len(signatures[name])} "
                f"(line {line})"
            )
        return signatures[name]

    # per-clause var sort tables, fixpoint over signature propagation
    clause_sorts: list[dict[str, str]] = [dict() for _ in raw_clauses]

    def set_sort(tbl, v, s, line, col):
        old = tbl.get(v)
        if old is None:
            tbl[v] = s
            return True
        if old != s:
            raise SortMismatch(f"variable {v} used as {old} and {s} (line {line})")
        return False

    changed = True
    while changed:
        changed = False
        for idx, (head, items, line, col) in enumerate(raw_clauses):
            tbl = clause_sorts[idx]
            atoms = ([("atom",) + head[1:]] if head is not None else []) + [
                it for it in items if it[0] == "atom"
            ]
            for it in items:
                if it[0] == "lin":
                    _kind, (lc, lconst), rel, (rc, rconst) = it
                    lv = _bare_var(lc, lconst)
                    rv = _bare_var(rc, rconst)
                    if rel == "=" and lv is not None and rv is not None:
                        # equality between two bare variables may be an array
                        # equality; propagate sorts instead of forcing int
                        a, b = lv, rv
                        sa, sb = tbl.get(a), tbl.get(b)
                        if sa and set_sort(tbl, b, sa, line, col):
                            changed = True
                        elif sb and set_sort(tbl, a, sb, line, col):
                            changed = True
                        continue
                    for v in list(lc) + list(rc):
                        if set_sort(tbl, v, "int", line, col):
                            changed = True
                elif it[0] == "read":
                    a, i, u = it[1]
                    for v, s in ((a, "array"), (i, "int"), (u, "int")):
                        if set_sort(tbl, v, s, line, col):
                            changed = True
                elif it[0] == "write":
                    a, i, u, b = it[1]
                    for v, s in ((a, "array"), (i, "int"), (u, "int"), (b, "array")):
                        if set_sort(tbl, v, s, line, col):
                            changed = True
            for at in atoms:
                _, name, args = at
                sig = sig_for(name, len(args), line, col)
                for pos, (coeffs, const) in enumerate(args):
                    v = _bare_var(coeffs, const)
                    if v is not None:
                        if sig[pos] is not None and set_sort(tbl, v, sig[pos], line, col):
                            changed = True
                        if sig[pos] is None and v in tbl:
                            sig[pos] = tbl[v]
                            changed = True
                    else:
                        # a proper linear term: int slot, int vars
                        if sig[pos] is None:
                            sig[pos] = "int"
                            changed = True
                        elif sig[pos] != "int":
                            raise SortMismatch(
                                f"array argument of {name!r} must be a variable (line {line})"
                            )
                        for v2 in coeffs:
                            if set_sort(tbl, v2, "int", line, col):
                                changed = True
    # defaults
    final_sigs = {
        p: tuple(Sort.ARRAY if s == "array" else Sort.INT for s in sig)
        for p, sig in signatures.items()
    }
    return final_sigs, clause_sorts


def _bare_var(coeffs, const) -> Optional[str]:
    if const == 0 and len(coeffs) == 1:
        name, k = next(iter(coeffs.items()))
        if k == 1:
            return name
    return None


def parse_program(text: str) -> Program:
    """Parse the textual clause syntax into a normalized Program."""
    sort_decls, raw_clauses = _Parser(text).program()
    signatures, clause_sorts = _infer_sorts(sort_decls, raw_clauses)

    clauses = []
    for idx, (head, items, line, col) in enumerate(raw_clauses):
        tbl = clause_sorts[idx]

        def mkvar(name: str) -> Var:
            return Var(name, Sort.ARRAY if tbl.get(name) == "array" else Sort.INT)

        def mkexpr(raw) -> LinExpr:
            coeffs, const = raw
            return LinExpr.build({mkvar(n): c for n, c in coeffs.items()}, const)

        used = {n for n in tbl}
        for it in items:
            if it[0] == "lin":
                used |= set(it[1][0]) | set(it[3][0])
            elif it[0] in ("read", "write"):
                used |= set(it[1])
            else:
                for coeffs, _ in it[2]:
                    used |= set(coeffs)
        if head is not None:
            for coeffs, _ in head[2]:
                used |= set(coeffs)

        norm_eqs: list[ConstraintAtom] = []

        def normalize_atom(name, raw_args, is_head):
            sig = signatures[name]
            args: list[Var] = []
            seen: set[str] = set()
            for pos, raw_arg in enumerate(raw_args):
                v = _bare_var(*raw_arg)
                if v is not None and not (is_head and v in seen):
                    if sig[pos] is Sort.ARRAY and tbl.get(v) != "array":
                        tbl[v] = "array"
                    args.append(mkvar(v))
                    seen.add(v)
                    continue
                # non-variable argument, or repeated head variable
                base = v if v is not None else "V"
                nn = fresh_name(base, used)
                used.add(nn)
                fv = Var(nn, sig[pos])
                if v is not None:
                    norm_eqs.append(eq_atom(fv, mkvar(v)))
                else:
                    norm_eqs.append(LinAtom(LinExpr.of(fv), Rel.EQ, mkexpr(raw_arg)))
                args.append(fv)
                seen.add(nn)
            return Atom(name, tuple(args))

        h = None if head is None else normalize_atom(head[1], head[2], True)
        body: list[Atom] = []
        catoms: list[ConstraintAtom] = []
        for it in items:
            if it[0] == "atom":
                body.append(normalize_atom(it[1], it[2], False))
            elif it[0] == "lin":
                lhs, rel, rhs = mkexpr(it[1]), it[2], mkexpr(it[3])
                lv, rv = lhs.as_var(), rhs.as_var()
                if lv is not None and rv is not None and (
                    lv.sort is Sort.ARRAY or rv.sort is Sort.ARRAY
                ):
                    if rel != "=":
                        raise ParseError("array variables admit only equality", line, col)
                    catoms.append(eq_atom(lv, rv))
                else:
                    for e in (lhs, rhs):
                        for v in e.vars():
                            if v.sort is Sort.ARRAY:
                                raise SortMismatch(
                                    f"array variable {v.name} in arithmetic (line {line})"
                                )
                    catoms.append(LinAtom(lhs, Rel(rel), rhs))
            elif it[0] == "read":
                a, i, u = (mkvar(n) for n in it[1])
                catoms.append(ReadAtom(a, i, u))
            else:
                a, i, u, b = (mkvar(n) for n in it[1])
                catoms.append(WriteAtom(a, i, u, b))
        clauses.append(
            Clause(idx + 1, h, ConstraintConj(tuple(norm_eqs) + tuple(catoms)), tuple(body))
        )
    return Program(clauses, signatures)


# ---------------------------------------------------------------------------
# Printer


def print_expr(e: LinExpr) -> str:
    parts = []
    for v, c in e.coeffs:
        if not parts:
            if c == 1:
                parts.append(v.name)
            elif c == -1:
                parts.append(f"-{v.name}")
            else:
                parts.append(f"{c}*{v.name}" if c > 0 else f"-{-c}*{v.name}")
        else:
            sign = " + " if c > 0 else " - "
            mag = abs(c)
            parts.append(sign + (v.name if mag == 1 else f"{mag}*{v.name}"))
    if e.const != 0 or not parts:
        if not parts:
            parts.append(str(e.const))
        else:
            parts.append(f" + {e.const}" if e.const > 0 else f" - {-e.const}")
    return "".join(parts)


def print_constraint_atom(a: ConstraintAtom) -> str:
    if isinstance(a, LinAtom):
        return f"{print_expr(a.lhs)} {a.rel.value} {print_expr(a.rhs)}"
    if isinstance(a, ReadAtom):
        return f"read({a.arr.name},{a.idx.name},{a.val.name})"
    if isinstance(a, WriteAtom):
        return f"write({a.arr.name},{a.idx.name},{a.val.name},{a.out.name})"
    return f"{a.lhs.name} = {a.rhs.name}"


def print_atom(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(v.name for v in a.args)})"


def print_clause(c: Clause) -> str:
    head = "false" if c.head is None else print_atom(c.head)
    items = [print_constraint_atom(a) for a in c.constraint] + [print_atom(a) for a in c.body]
    if not items:
        return f"{head}."
    return f"{head} :- {', '.join(items)}."


def print_program(p: Program) -> str:
    lines = []
    for pred in sorted(p.signatures):
        sig = p.signatures[pred]
        if any(s is Sort.ARRAY for s in sig):
            lines.append(f":- sorts {pred}({', '.join(s.value for s in sig)}).")
    lines.extend(print_clause(c) for c in p.clauses)
    return "\n".join(lines) + ("\n" if lines else "")
