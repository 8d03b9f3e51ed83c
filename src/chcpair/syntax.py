"""Abstract syntax, parsing and printing for constrained Horn clauses.

Clauses are kept in a normalized form: every atom argument is a variable,
head argument variables are distinct, and non-variable arguments from the
surface syntax are replaced by fresh variables plus equality constraints.
All values are immutable and hashable. Variables are interned, and a
substitution that changes nothing returns its receiver, memos included.
"""

from __future__ import annotations

import enum
import itertools
import re
import string
from dataclasses import FrozenInstanceError, dataclass, field, fields
from operator import attrgetter, is_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ArityClash, OverlapError, ParseError, SortMismatch


class Sort(enum.Enum):
    INT = "int"
    ARRAY = "array"

    # members are singletons compared by identity; object's hash runs in C,
    # where Enum.__hash__ hashes the member's name in Python
    __hash__ = object.__hash__

    def __repr__(self):
        return self.value


class Rel(enum.Enum):
    EQ = "="
    LE = "=<"
    LT = "<"
    GE = ">="
    GT = ">"
    NE = "=\\="

    __hash__ = object.__hash__

    def __repr__(self):
        return self.value


def _memo_hash(cls):
    """Memoise the hash of a frozen, slotted dataclass in its `_hash` field.

    The field is declared with init=False, compare=False and repr=False, and
    stays unset until the first hash(). A slot, unlike an instance __dict__,
    adds no memory to these small and numerous values. Pickling and copying
    rebuild the value from its compared fields, so a hash, which depends on
    the hash seed and on the variables' addresses, never travels to another
    process.
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


_INT_VARS: dict[str, "Var"] = {}
_ARRAY_VARS: dict[str, "Var"] = {}


class Var:
    """A variable: one shared object per (name, sort), so that equality is
    identity and the hash is object's, both computed in C.

    `Var(name, sort)` returns the interned object; a name of both sorts gives
    two distinct variables. The tables keep every variable ever made, which
    is few: the names of the programs read and the fresh names derived from
    them. Copying and pickling re-intern. Like the dataclasses below, a
    variable is frozen.
    """

    __slots__ = ("name", "sort")

    name: str
    sort: Sort

    def __new__(cls, name: str, sort: Sort = Sort.INT) -> "Var":
        if sort is Sort.INT:
            table = _INT_VARS
        elif sort is Sort.ARRAY:
            table = _ARRAY_VARS
        else:
            raise TypeError(f"not a sort: {sort!r}")
        v = table.get(name)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "name", name)
            object.__setattr__(v, "sort", sort)
            # setdefault: of two threads interning one name, both get the
            # object stored first
            v = table.setdefault(name, v)
        return v

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return Var, (self.name, self.sort)

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
        if len(self.coeffs) == 1:  # most renamed terms: X, X - 1
            (v, c), = self.coeffs
            w = theta.get(v, v)
            return self if w is v else LinExpr(((w, c),), self.const)
        for v, _ in self.coeffs:
            if theta.get(v, v) is not v:
                break
        else:
            return self  # shared, with its memoised hash
        m: dict[Var, int] = {}
        for v, c in self.coeffs:
            w = theta.get(v, v)
            m[w] = m.get(w, 0) + c
        return LinExpr.build(m, self.const)


def _sub_terms(a, b):
    """The terms of a - b, for two term tuples in LinExpr's name order, in
    the order that LinExpr.sub gives them, merged without a dict or a sort.

    None when a and b hold distinct variables of one name: the stable sort
    of LinExpr.build settles their order, and LinExpr.sub is the reference.
    """
    if not b:
        return a
    if not a:
        return tuple([(w, -d) for w, d in b])
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        v, c = a[i]
        w, d = b[j]
        if v is w:
            if c != d:
                out.append((v, c - d))
            i += 1
            j += 1
        elif v.name < w.name:
            out.append((v, c))
            i += 1
        elif w.name < v.name:
            out.append((w, -d))
            j += 1
        else:
            return None
    out.extend(a[i:])
    out.extend([(w, -d) for w, d in b[j:]])
    return tuple(out)


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
        terms = _sub_terms(lhs.coeffs, rhs.coeffs)
        if terms is None:
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
        lhs, rhs = self.lhs.subst(theta), self.rhs.subst(theta)
        if lhs is self.lhs and rhs is self.rhs:
            return self  # shared, with its memoised hash and row
        return LinAtom(lhs, self.rel, rhs)


def _subst_fields(atom, theta):
    """An array atom, whose fields are its vars() in order, with theta
    applied; the atom itself when theta changes none of them."""
    old = atom.vars()
    new = tuple(theta.get(v, v) for v in old)
    return atom if new == old else type(atom)(*new)


@dataclass(frozen=True)
class ReadAtom:
    arr: Var
    idx: Var
    val: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.arr, self.idx, self.val)

    def subst(self, theta: Mapping[Var, Var]) -> "ReadAtom":
        return _subst_fields(self, theta)


@dataclass(frozen=True)
class WriteAtom:
    arr: Var
    idx: Var
    val: Var
    out: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.arr, self.idx, self.val, self.out)

    def subst(self, theta: Mapping[Var, Var]) -> "WriteAtom":
        return _subst_fields(self, theta)


@dataclass(frozen=True)
class ArrEqAtom:
    """Equality between two array variables (from head normalization)."""

    lhs: Var
    rhs: Var

    def vars(self) -> tuple[Var, ...]:
        return (self.lhs, self.rhs)

    def subst(self, theta: Mapping[Var, Var]) -> "ArrEqAtom":
        return _subst_fields(self, theta)


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
    _vars: tuple = field(init=False, compare=False, repr=False)

    def __iter__(self) -> Iterator[ConstraintAtom]:
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def is_true(self) -> bool:
        return not self.atoms

    def vars(self) -> tuple[Var, ...]:
        """The atoms' variables by first occurrence, memoised in `_vars`,
        which, like `_hash`, never travels through pickle or copy."""
        try:
            return self._vars
        except AttributeError:
            pass
        seen: dict[Var, None] = {}
        for a in self.atoms:
            for v in a.vars():
                seen.setdefault(v)
        out = tuple(seen)
        object.__setattr__(self, "_vars", out)
        return out

    def lin_atoms(self) -> tuple[LinAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, LinAtom))

    def array_atoms(self) -> tuple[ConstraintAtom, ...]:
        return tuple(a for a in self.atoms if not isinstance(a, LinAtom))

    def extended(self, other: "ConstraintConj") -> "ConstraintConj":
        """self's atoms followed by other's, with the result's variables
        memoised: merged from the two parts' own (memoised on them too), in
        the order of a fresh first-occurrence walk. For a caller that extends
        one constraint by many others whose variables are asked for, as
        unfolding does."""
        out = ConstraintConj(self.atoms + other.atoms)
        seen = dict.fromkeys(self.vars())
        seen.update(dict.fromkeys(other.vars()))
        object.__setattr__(out, "_vars", tuple(seen))
        return out

    def subst(self, theta: Mapping[Var, Var]) -> "ConstraintConj":
        atoms = tuple(a.subst(theta) for a in self.atoms)
        # each atom returns itself when theta changes none of its variables
        if all(map(is_, atoms, self.atoms)):
            return self  # shared, with its memoised hash and variables
        return ConstraintConj(atoms)


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
        args = tuple(theta.get(v, v) for v in self.args)
        return self if args == self.args else Atom(self.pred, args)

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
        """The clause with theta applied; the clause itself when theta maps
        each of its variables to itself."""
        head = None if self.head is None else self.head.subst(theta)
        constraint = self.constraint.subst(theta)
        body = tuple(a.subst(theta) for a in self.body)
        if head is self.head and constraint is self.constraint and all(map(is_, body, self.body)):
            return self
        return Clause(self.cid, head, constraint, body)

    def preds(self) -> set[str]:
        s = {a.pred for a in self.body}
        if self.head is not None:
            s.add(self.head.pred)
        return s


def renumbered(clauses: Iterable[Clause]) -> list[Clause]:
    """The clauses in order, their ids renumbered 1..n."""
    return [Clause(i + 1, c.head, c.constraint, c.body) for i, c in enumerate(clauses)]


def infer_signatures(
    clauses: Iterable[Clause], signatures: Optional[Mapping[str, tuple[Sort, ...]]] = None
) -> dict[str, tuple[Sort, ...]]:
    """The argument sorts of every predicate of the clauses, extending
    `signatures`; ArityClash or SortMismatch when two uses disagree."""
    out: dict[str, tuple[Sort, ...]] = dict(signatures or {})
    for c in clauses:
        atoms = list(c.body) + ([c.head] if c.head is not None else [])
        for a in atoms:
            sig = tuple(v.sort for v in a.args)
            old = out.get(a.pred)
            if old is None:
                out[a.pred] = sig
            elif old != sig:
                if len(old) != len(sig):
                    raise ArityClash(
                        f"predicate {a.pred!r} used with arity {len(sig)} and {len(old)}"
                    )
                raise SortMismatch(f"predicate {a.pred!r} used with conflicting sorts")
    return out


class Program:
    """An ordered set of clauses with their predicate signatures.

    The constructor checks that clause ids are distinct. Without
    `signatures` it infers them from the clauses (`infer_signatures`);
    given ones are taken as they are and must be those of the clauses, as
    `parse_program`'s (from the parser's sort inference) and `definite`'s
    (from the parent program) are.
    """

    def __init__(self, clauses: Iterable[Clause], signatures: Optional[Mapping[str, tuple[Sort, ...]]] = None):
        self.clauses: tuple[Clause, ...] = tuple(clauses)
        seen_ids = set()
        for c in self.clauses:
            if c.cid in seen_ids:
                raise ArityClash(f"duplicate clause id {c.cid}")
            seen_ids.add(c.cid)
        self.signatures = infer_signatures(self.clauses) if signatures is None else dict(signatures)
        self._by_id = {c.cid: c for c in self.clauses}

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)

    def __eq__(self, other):
        return isinstance(other, Program) and self.clauses == other.clauses

    def clause(self, cid: int) -> Clause:
        return self._by_id[cid]

    def preds(self) -> set[str]:
        return set(self.signatures)

    def goals(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.is_goal)

    def definite(self) -> "Program":
        """The program without its goals, with every signature of this one."""
        return Program([c for c in self.clauses if not c.is_goal], self.signatures)


# ---------------------------------------------------------------------------
# Substitution and renaming


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def fresh_renaming(vs: Iterable[Var], clash, taken: set[str]) -> dict[Var, Var]:
    """Map each variable of vs whose name is in `clash` to the smallest
    fresh name outside `taken` (X -> X_1, X_2, ...), of the same sort.

    `taken` grows by every name a variable keeps or gets, and may be `clash`
    itself; `clash` holds only names of `taken`.
    """
    theta: dict[Var, Var] = {}
    for v in vs:
        name = v.name
        if name in clash:
            name = fresh_name(name, taken)
            theta[v] = Var(name, v.sort)
        taken.add(name)
    return theta


def rename_apart(c: Clause, avoid: Iterable[Var]) -> Clause:
    """Return a variant of c whose variables avoid the given set.

    Variables not in the avoid set keep their names; clashing ones get the
    smallest fresh primed name (X -> X_1, X_2, ...).
    """
    avoid_names = {v.name for v in avoid}
    own = c.vars()
    return c.subst(fresh_renaming(own, avoid_names, avoid_names | {v.name for v in own}))


# ---------------------------------------------------------------------------
# Dependency partition


def reachable_preds(p: Iterable[Clause], root: str) -> set[str]:
    """Predicates reachable from root in the head->body dependency graph of
    the clauses p."""
    deps: dict[str, set[str]] = {}
    for c in p:
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


def predicate_partition(
    p: Iterable[Clause], q: str, r: str
) -> tuple[tuple[Clause, ...], tuple[Clause, ...]]:
    """Split the clauses p into the clauses of the cones reachable from q and
    from r, each in p's order.

    A root that no clause of p defines gets an empty cone of clauses. The
    two cones must be predicate-disjoint; otherwise OverlapError names a
    shared predicate. Both cones hold their root, so q == r always overlaps.
    """
    p = tuple(p)
    qs = reachable_preds(p, q)
    rs = reachable_preds(p, r)
    shared = qs & rs
    if shared:
        raise OverlapError(sorted(shared)[0])
    qcl = tuple(c for c in p if c.head is not None and c.head.pred in qs)
    rcl = tuple(c for c in p if c.head is not None and c.head.pred in rs)
    return qcl, rcl


# ---------------------------------------------------------------------------
# Parser
#
# parse_program runs four stages over the text: _scan cuts it into tokens,
# _grammar reads the tokens into raw clauses, _infer_sorts gives every
# variable and predicate position a sort, and _build makes the normalized
# Clauses. _scan runs one flat regular expression with findall, whose
# matches are the tokens themselves; comments are tokens too, and are
# filtered out only from a text that has a `%`. A raw clause numbers its
# variables in order of first occurrence; a raw linear expression is that
# number for a bare variable (coefficient 1, constant 0) and a pair
# (coefficients by number, constant) otherwise. Most terms of a printed
# program are bare variables: the grammar returns a variable's number at
# once when no `*`, `+` or `-` follows it, without a coefficient dict. Only
# arrays need the union-find of _infer_sorts: a text with no `:- sorts`
# declaration and no read or write constraint is all int, and only its
# arities are checked. Most linear constraints of a printed program repeat:
# a printed Pn repeats each clause's parent prefix in every child. _build
# keeps a table for the one call, of one LinAtom per distinct constraint
# text, so every clause that holds a constraint shares one atom object,
# whose hash and row are then computed once (hl1's Pn: 246 atom objects
# for 4,234 occurrences). It reads an int variable from the intern table
# directly. Nothing outlives the call but the Vars, which are interned
# anyway.

# One flat alternation, the most frequent tokens first. Whitespace matches
# nothing and findall steps over it; a comment is a token that _scan drops;
# \S takes any other character, which _scan refuses.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(),.]|:-|=\\=|=<|>=|[=<>*+\-]|%[^\n]*|\S")

_NECK, _REL, _INT, _VAR, _IDENT, _LPAR, _RPAR, _COMMA, _DOT, _STAR, _PLUS, _MINUS, _EOF, _BAD = range(14)
_FIXED_KINDS = {
    ":-": _NECK, "(": _LPAR, ")": _RPAR, ",": _COMMA, ".": _DOT, "*": _STAR, "+": _PLUS,
    "-": _MINUS, "": _EOF, **{r.value: _REL for r in Rel},
}
_UPPER = frozenset(string.ascii_uppercase + "_")
_LOWER = frozenset(string.ascii_lowercase)
_TERM_OPS = (_STAR, _PLUS, _MINUS)
_EXPECTED = {_REL: "rel", _INT: "int", _VAR: "var", _IDENT: "ident", _LPAR: "(", _RPAR: ")", _DOT: "."}
_RELS = {r.value: r for r in Rel}
_SORTS = {"int": Sort.INT, "array": Sort.ARRAY}


class _KindOf(dict):
    """Token text to token kind, as the alternatives of _TOKEN_RE tell them
    apart; a text not met before is classified once, by its first character.
    """

    def __missing__(self, text):
        c = text[0]
        kind = self[text] = (
            _VAR if c in _UPPER else _IDENT if c in _LOWER else _INT if "0" <= c <= "9" else _BAD
        )
        return kind


def _token_position(text: str, i: int) -> tuple[int, int]:
    """Line and column, both from 1, of the i-th token as _scan counts them,
    comments left out; the _EOF token is at the end of the text."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if text[m.start()] != "%")
    offset = next(itertools.islice(starts, i, None), len(text))
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> tuple[list[int], list[str]]:
    """The kinds and texts of the tokens; the last token is _EOF, whose text
    is "". Comments are dropped, and only a text with a `%` looks for them.

    A character that starts no token raises ParseError, wherever it is,
    before any grammar error.
    """
    texts = _TOKEN_RE.findall(text)
    if "%" in text:
        texts = [t for t in texts if t[0] != "%"]
    texts.append("")
    kinds = list(map(_KindOf(_FIXED_KINDS).__getitem__, texts))
    if _BAD in kinds:
        i = kinds.index(_BAD)
        raise ParseError(f"unexpected character {texts[i]!r}", *_token_position(text, i))
    return kinds, texts


def _grammar(text: str, tokens):
    """Read the tokens into `:- sorts` declarations and raw clauses.

    A declaration is (pred, sorts, token index). A raw clause is (head,
    constraints, body, token index, variables): head None for a goal or
    (pred, args); constraints in text order, each ("lin", lhs, rel, rhs,
    key), key the tuple of the constraint's token texts, ("read", (a, i,
    v)) or ("write", (a, i, v, b)); body the (pred, args) atoms in text
    order; variables a dict from name to number.
    """
    kinds, texts = tokens

    def error(message, i):
        return ParseError(message, *_token_position(text, i))

    def expected(kind, i):
        return error(f"expected {_EXPECTED[kind]!r}, found {texts[i]!r}", i)

    def linexpr(i, names):
        if kinds[i] == _VAR and kinds[i + 1] not in _TERM_OPS:
            # a bare variable, most terms of a printed program
            return names.setdefault(texts[i], len(names)), i + 1
        coeffs: dict[int, int] = {}
        const = 0
        sign = 1
        if kinds[i] == _MINUS:
            sign = -1
            i += 1
        while True:
            k = kinds[i]
            if k == _INT:
                c = int(texts[i])
                if kinds[i + 1] == _STAR:
                    if kinds[i + 2] != _VAR:
                        raise expected(_VAR, i + 2)
                    name = texts[i + 2]
                    i += 3
                else:
                    const += sign * c
                    i += 1
                    name = None
            elif k == _VAR:
                name = texts[i]
                if kinds[i + 1] == _STAR:
                    if kinds[i + 2] != _INT:
                        raise expected(_INT, i + 2)
                    c = int(texts[i + 2])
                    i += 3
                else:
                    c = 1
                    i += 1
            else:
                raise error(f"expected term, found {texts[i]!r}", i)
            if name is not None:
                v = names.get(name)
                if v is None:
                    v = names[name] = len(names)
                coeffs[v] = coeffs.get(v, 0) + sign * c
            k = kinds[i]
            if k == _PLUS:
                sign = 1
            elif k == _MINUS:
                sign = -1
            else:
                break
            i += 1
        if const == 0 and len(coeffs) == 1:
            ((v, c),) = coeffs.items()
            if c == 1:
                return v, i
        return (coeffs, const), i

    def listed(i, kind):
        # one or more tokens of a kind, comma-separated, then ")"
        out = []
        while True:
            if kinds[i] != kind:
                raise expected(kind, i)
            out.append(texts[i])
            if kinds[i + 1] != _COMMA:
                break
            i += 2
        if kinds[i + 1] != _RPAR:
            raise expected(_RPAR, i + 1)
        return out, i + 2

    def atom(i, names):
        if kinds[i] != _IDENT:
            raise expected(_IDENT, i)
        pred = texts[i]
        args = []
        i += 1
        if kinds[i] == _LPAR:
            e, i = linexpr(i + 1, names)
            args.append(e)
            while kinds[i] == _COMMA:
                e, i = linexpr(i + 1, names)
                args.append(e)
            if kinds[i] != _RPAR:
                raise expected(_RPAR, i)
            i += 1
        return (pred, args), i

    decls = []
    clauses = []
    i = 0
    while kinds[i] != _EOF:
        if kinds[i] == _NECK:
            t = i + 1
            if kinds[t] != _IDENT:
                raise expected(_IDENT, t)
            if texts[t] != "sorts":
                raise error(f"unknown directive {texts[t]!r}", t)
            i = t + 1
            if kinds[i] != _IDENT:
                raise expected(_IDENT, i)
            pred = texts[i]
            if kinds[i + 1] != _LPAR:
                raise expected(_LPAR, i + 1)
            first = i + 2
            sorts, i = listed(first, _IDENT)
            if kinds[i] != _DOT:
                raise expected(_DOT, i)
            i += 1
            for k, s in enumerate(sorts):
                if s not in _SORTS:
                    # the k-th sort token follows k commas
                    raise error(f"unknown sort {s!r}", first + 2 * k)
            decls.append((pred, tuple(_SORTS[s] for s in sorts), t))
            continue
        start = i
        names: dict[str, int] = {}
        if kinds[i] == _IDENT and texts[i] == "false":
            head = None
            i += 1
        else:
            head, i = atom(i, names)
        cons = []
        body = []
        if kinds[i] == _NECK:
            while True:
                i += 1
                k = kinds[i]
                if k == _IDENT:
                    word = texts[i]
                    if (word == "read" or word == "write") and kinds[i + 1] == _LPAR:
                        args, end = listed(i + 2, _VAR)
                        want = 3 if word == "read" else 4
                        if len(args) != want:
                            raise error(f"{word} takes {want} variables", i)
                        for name in args:
                            names.setdefault(name, len(names))
                        cons.append((word, tuple(names[name] for name in args)))
                        i = end
                    else:
                        a, i = atom(i, names)
                        body.append(a)
                else:
                    first = i
                    lhs, i = linexpr(i, names)
                    if kinds[i] != _REL:
                        raise expected(_REL, i)
                    rel = texts[i]
                    rhs, i = linexpr(i + 1, names)
                    cons.append(("lin", lhs, rel, rhs, tuple(texts[first:i])))
                if kinds[i] != _COMMA:
                    break
        if kinds[i] != _DOT:
            raise expected(_DOT, i)
        i += 1
        clauses.append((head, cons, body, start, names))
    return decls, clauses


def _infer_sorts(text: str, decls, clauses):
    """Give every predicate a signature and every clause variable a sort.

    One pass of union-find over the nodes (clause, variable) and (predicate,
    position): a bare variable as an atom argument, and an equality between
    two bare variables, join two nodes' classes; every other use fixes the
    class to int or array. A class that gets both sorts is a SortMismatch,
    and one that gets neither is int. Clauses are visited in order, and in
    each its constraints before its head and then its body atoms.

    A text with no `:- sorts` declaration and no read or write constraint
    has no array source, so no class can become array and no SortMismatch
    can arise: every sort is int, and only the arities are checked, with the
    same ArityClash in the same clause order.

    Returns the signatures and, for each clause, the sort of each variable
    by number.
    """
    INT, ARRAY = Sort.INT, Sort.ARRAY
    if not decls and all(c[0] == "lin" for clause in clauses for c in clause[1]):
        arities: dict[str, int] = {}
        for head, _, body, start, _ in clauses:
            for pred, args in ([head] if head is not None else []) + body:
                arity = arities.setdefault(pred, len(args))
                if arity != len(args):
                    raise ArityClash(
                        f"predicate {pred!r} used with arity {len(args)} and {arity} "
                        f"(line {_token_position(text, start)[0]})"
                    )
        signatures = {pred: (INT,) * arity for pred, arity in arities.items()}
        return signatures, [[INT] * len(c[4]) for c in clauses]
    parent: list[int] = []  # union-find forest; a root is its own parent
    sort: list[Optional[Sort]] = []  # the sort of each root's class
    preds: dict[str, tuple[int, int]] = {}  # pred -> (first node, arity)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def line(i):
        return _token_position(text, i)[0]

    def new_nodes(sorts):
        first = len(parent)
        parent.extend(range(first, first + len(sorts)))
        sort.extend(sorts)
        return first

    declared: dict[str, tuple[Sort, ...]] = {}
    for pred, sorts, t in decls:
        old = declared.setdefault(pred, sorts)
        if len(old) != len(sorts):
            raise ArityClash(
                f"predicate {pred!r} declared with arity {len(sorts)} and {len(old)} "
                f"(line {line(t)})"
            )
        if old != sorts:
            raise SortMismatch(
                f"predicate {pred!r} declared with sorts ({', '.join(s.value for s in sorts)}) "
                f"and ({', '.join(s.value for s in old)}) (line {line(t)})"
            )
    for pred, sorts in declared.items():
        preds[pred] = (new_nodes(sorts), len(sorts))

    bases = []
    for head, cons, body, start, names in clauses:
        base = new_nodes([None] * len(names))
        bases.append(base)
        names_of = list(names)

        def fix(v, s):
            r = find(base + v)
            old = sort[r]
            if old is None:
                sort[r] = s
            elif old is not s:
                raise SortMismatch(
                    f"variable {names_of[v]} used as {old.value} and {s.value} (line {line(start)})"
                )

        def join(v, node):
            # join v's class into node's; a conflict names v
            rv, rn = find(base + v), find(node)
            if rv == rn:
                return
            sv, sn = sort[rv], sort[rn]
            if sn is None:
                sort[rn] = sv
            elif sv is not None and sv is not sn:
                raise SortMismatch(
                    f"variable {names_of[v]} used as {sv.value} and {sn.value} (line {line(start)})"
                )
            parent[rv] = rn

        for c in cons:
            tag = c[0]
            if tag == "lin":
                _, lhs, rel, rhs, _ = c
                if rel == "=" and type(lhs) is int and type(rhs) is int:
                    join(rhs, base + lhs)
                    continue
                for e in (lhs, rhs):
                    if type(e) is int:
                        fix(e, INT)
                    else:
                        for v in e[0]:
                            fix(v, INT)
            elif tag == "read":
                a, i, u = c[1]
                fix(a, ARRAY)
                fix(i, INT)
                fix(u, INT)
            else:
                a, i, u, b = c[1]
                fix(a, ARRAY)
                fix(i, INT)
                fix(u, INT)
                fix(b, ARRAY)
        for pred, args in ([head] if head is not None else []) + body:
            node = preds.get(pred)
            if node is None:
                node = preds[pred] = (new_nodes([None] * len(args)), len(args))
            elif node[1] != len(args):
                raise ArityClash(
                    f"predicate {pred!r} used with arity {len(args)} and {node[1]} "
                    f"(line {line(start)})"
                )
            for position, e in enumerate(args, node[0]):
                if type(e) is int:
                    join(e, position)
                    continue
                r = find(position)
                if sort[r] is None:
                    sort[r] = INT
                elif sort[r] is not INT:
                    raise SortMismatch(
                        f"array argument of {pred!r} must be a variable (line {line(start)})"
                    )
                for v in e[0]:
                    fix(v, INT)
    var_sorts = [
        [sort[find(v)] or INT for v in range(base, base + len(c[4]))]
        for base, c in zip(bases, clauses)
    ]
    signatures = {
        pred: tuple(sort[find(first + k)] or INT for k in range(arity))
        for pred, (first, arity) in preds.items()
    }
    return signatures, var_sorts


def _build(clauses, signatures, var_sorts) -> list[Clause]:
    """Normalized Clauses, numbered from 1, with one Var per variable name.

    `shared`, a table of this call alone like print_program's, holds one
    LinAtom per distinct linear constraint text, and every clause that holds
    the constraint gets that object, with its memoised hash and row.
    Variables are interned by name and sort, an int one read from its table
    directly, and a LinAtom's are all int, so one text is one atom; two
    texts of one atom (`X + Y`, `Y + X`) only build it twice. A bare `A = B`
    over arrays is an ArrEqAtom and never enters the table, so it shares
    nothing with an int `A = B`.
    """
    INT, ARRAY, EQ = Sort.INT, Sort.ARRAY, Rel.EQ
    get_int = _INT_VARS.get
    shared: dict[tuple[str, ...], LinAtom] = {}
    out = []
    for cid, ((head, cons, body, _, names), sorts) in enumerate(zip(clauses, var_sorts), 1):
        vs = [(s is INT and get_int(name)) or Var(name, s) for name, s in zip(names, sorts)]
        names_of = list(names)
        used: Optional[set[str]] = None
        norm_eqs: list[ConstraintAtom] = []

        def expr(e):
            if type(e) is int:
                return LinExpr.of(vs[e])
            coeffs, const = e
            return LinExpr.build({vs[v]: c for v, c in coeffs.items()}, const)

        def normalize(pred, args, is_head):
            # a non-variable argument, or a repeated head variable, becomes a
            # fresh variable and an equality
            nonlocal used
            sig = signatures[pred]
            out_args = []
            seen = set()
            for pos, e in enumerate(args):
                if type(e) is int and not (is_head and e in seen):
                    out_args.append(vs[e])
                    seen.add(e)
                    continue
                if used is None:
                    used = set(names)
                nn = fresh_name(names_of[e] if type(e) is int else "V", used)
                used.add(nn)
                fv = Var(nn, sig[pos])
                if type(e) is int:
                    norm_eqs.append(eq_atom(fv, vs[e]))
                else:
                    norm_eqs.append(LinAtom(LinExpr.of(fv), EQ, expr(e)))
                out_args.append(fv)
            return Atom(pred, tuple(out_args))

        h = None if head is None else normalize(head[0], head[1], True)
        atoms = tuple(normalize(pred, args, False) for pred, args in body)
        catoms: list[ConstraintAtom] = []
        for c in cons:
            tag = c[0]
            if tag == "lin":
                _, lhs, rel, rhs, key = c
                if type(lhs) is int and vs[lhs].sort is ARRAY:
                    # an array variable is only ever bare, in `A = B` with B
                    # an array too: every other use would have fixed it int
                    catoms.append(ArrEqAtom(vs[lhs], vs[rhs]))
                else:
                    a = shared.get(key)
                    if a is None:
                        a = shared[key] = LinAtom(expr(lhs), _RELS[rel], expr(rhs))
                    catoms.append(a)
            elif tag == "read":
                catoms.append(ReadAtom(*(vs[v] for v in c[1])))
            else:
                catoms.append(WriteAtom(*(vs[v] for v in c[1])))
        out.append(Clause(cid, h, ConstraintConj(tuple(norm_eqs) + tuple(catoms)), atoms))
    return out


def parse_program(text: str) -> Program:
    """Parse the textual clause syntax into a normalized Program.

    Linear constraint atoms of one text are one object, from a table of
    this call alone: two calls on one text share Vars, which are interned,
    but no atom. The Program takes `_infer_sorts`'s signatures as they are:
    every clause variable gets its sort from the same inference, so
    `infer_signatures` on the clauses would find them again.
    """
    tokens = _scan(text)
    decls, clauses = _grammar(text, tokens)
    signatures, var_sorts = _infer_sorts(text, decls, clauses)
    return Program(_build(clauses, signatures, var_sorts), signatures)


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
    return _clause_text(c, [print_constraint_atom(a) for a in c.constraint])


def _clause_text(c: Clause, constraint_texts: list[str]) -> str:
    head = "false" if c.head is None else print_atom(c.head)
    items = constraint_texts + [print_atom(a) for a in c.body]
    if not items:
        return f"{head}."
    return f"{head} :- {', '.join(items)}."


def print_program(p: Program) -> str:
    """The program as text: its array sorts, then one clause a line.

    Clauses share constraint-atom objects (unfolding's renamed copies, the
    parent prefix of every unfolded constraint), so each object is printed
    once per call, from a dict local to the call keyed by id(atom): p holds
    every atom for the whole call. Hashing equal but distinct atoms by
    value would cost more than printing them.
    """
    lines = []
    for pred in sorted(p.signatures):
        sig = p.signatures[pred]
        if any(s is Sort.ARRAY for s in sig):
            lines.append(f":- sorts {pred}({', '.join(s.value for s in sig)}).")
    printed: dict[int, str] = {}
    for c in p.clauses:
        texts = []
        for a in c.constraint.atoms:
            text = printed.get(id(a))
            if text is None:
                text = printed[id(a)] = print_constraint_atom(a)
            texts.append(text)
        lines.append(_clause_text(c, texts))
    return "\n".join(lines) + ("\n" if lines else "")
