"""SMT-LIB emission of clause sets and parsing/printing of model files.

Emission targets the HORN logic: one declare-fun per predicate and one
universally quantified implication per clause, with goals implying false.
Array reads and writes map to select/store equalities, which carries the
array congruence and read-over-write axioms via the standard theory.
Output is byte-deterministic for a given program. A predicate or variable
named by a symbol that SMT-LIB reserves (`and`, `assert`, `_`, ...) is
refused with ValueError rather than written.

Model files are sequences of define-fun forms over and/or/exists/not and
linear atoms, as produced by common Horn solvers; they are normalized
into quantified disjunctions.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .errors import ModelError, ParseError, SortMismatch
from .lia import (
    QuantDisj,
    negate_linatom,
    qd_conjoin,
    qd_false,
    qd_rename_exists_fresh,
    qd_true,
)
from .syntax import (
    ArrEqAtom,
    Atom,
    Clause,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Program,
    ReadAtom,
    Rel,
    Sort,
    Var,
    WriteAtom,
    fresh_name,
)

# at run time only parse_model imports models: emitting needs none of it
if TYPE_CHECKING:
    from .models import SymbolicInterpretation

_SORT_SMT = {Sort.INT: "Int", Sort.ARRAY: "(Array Int Int)"}

# Symbols that no declared predicate or variable may be (SMT-LIB 2.6): the
# reserved words, the command names, and the function symbols of the Core,
# Ints and ArraysEx theories. Quoting does not help, since |and| and `and`
# are the same symbol.
_RESERVED = frozenset(
    """
    ! _ as BINARY DECIMAL exists HEXADECIMAL forall let match NUMERAL par STRING
    assert check-sat check-sat-assuming declare-const declare-datatype
    declare-datatypes declare-fun declare-sort define-fun define-fun-rec
    define-funs-rec define-sort echo exit get-assertions get-assignment get-info
    get-model get-option get-proof get-unsat-assumptions get-unsat-core
    get-value pop push reset reset-assertions set-info set-logic set-option
    true false not => and or xor = distinct ite
    - + * div mod abs <= < >= >
    select store
    """.split()
)


def _check_symbols(names: Iterable[str]) -> None:
    """ValueError naming the first of `names` that SMT-LIB reserves."""
    for name in names:
        if name in _RESERVED:
            raise ValueError(
                f"{name!r} is reserved in SMT-LIB and cannot name a predicate or variable"
            )


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _smt_term(c: int, v: Var) -> str:
    if c == 1:
        return v.name
    return f"(* {_smt_int(c)} {v.name})"


def _smt_expr(e: LinExpr) -> str:
    parts = [_smt_term(c, v) for v, c in e.coeffs]
    if e.const != 0 or not parts:
        parts.append(_smt_int(e.const))
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


_REL_SMT = {Rel.EQ: "=", Rel.LE: "<=", Rel.LT: "<", Rel.GE: ">=", Rel.GT: ">"}


def _smt_constraint(a) -> str:
    if isinstance(a, LinAtom):
        if a.rel is Rel.NE:
            return f"(not (= {_smt_expr(a.lhs)} {_smt_expr(a.rhs)}))"
        return f"({_REL_SMT[a.rel]} {_smt_expr(a.lhs)} {_smt_expr(a.rhs)})"
    if isinstance(a, ReadAtom):
        return f"(= (select {a.arr.name} {a.idx.name}) {a.val.name})"
    if isinstance(a, WriteAtom):
        return f"(= (store {a.arr.name} {a.idx.name} {a.val.name}) {a.out.name})"
    if isinstance(a, ArrEqAtom):
        return f"(= {a.lhs.name} {a.rhs.name})"
    raise TypeError(f"unknown constraint atom {a!r}")


def _smt_atom(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"({a.pred} {' '.join(v.name for v in a.args)})"


def _binder_text(vs: Iterable[Var]) -> str:
    """Each variable as (name sort), the binder of a forall, exists or define-fun."""
    return "".join(f"({v.name} {_SORT_SMT[v.sort]})" for v in vs)


def _smt_and(parts: Sequence[str]) -> str:
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return f"(and {' '.join(parts)})"


def emit_smtlib(p: Program) -> str:
    """Render the program as HORN-logic SMT-LIB text.

    Each constraint-atom object is rendered once per call, as in
    `syntax.print_program`: a dict local to the call, keyed by id(atom),
    serves the atoms that clauses share.
    """
    lines = ["(set-logic HORN)"]
    seen: list[str] = []
    for c in p.clauses:
        for a in ([c.head] if c.head is not None else []) + list(c.body):
            if a.pred not in seen:
                seen.append(a.pred)
    _check_symbols(seen)
    for pred in seen:
        sig = p.signatures[pred]
        args = " ".join(_SORT_SMT[s] for s in sig)
        lines.append(f"(declare-fun {pred} ({args}) Bool)")
    rendered: dict[int, str] = {}
    for c in p.clauses:
        body = []
        for a in c.constraint.atoms:
            text = rendered.get(id(a))
            if text is None:
                text = rendered[id(a)] = _smt_constraint(a)
            body.append(text)
        body += [_smt_atom(a) for a in c.body]
        head = "false" if c.head is None else _smt_atom(c.head)
        impl = f"(=> {_smt_and(body)} {head})"
        vs = c.vars()
        _check_symbols([v.name for v in vs])
        if vs:
            lines.append(f"(assert (forall ({_binder_text(vs)}) {impl}))")
        else:
            lines.append(f"(assert {impl})")
    return "\n".join(lines) + "\n"


def emit_lia_query(c: ConstraintConj) -> str:
    """Render a conjunction's linear part as a QF_LIA satisfiability query."""
    lines = ["(set-logic QF_LIA)"]
    seen: list[Var] = []
    atoms = [a for a in c if isinstance(a, LinAtom)]
    for a in atoms:
        for v in a.vars():
            if v not in seen:
                seen.append(v)
    _check_symbols([v.name for v in seen])
    for v in seen:
        lines.append(f"(declare-const {v.name} Int)")
    for a in atoms:
        lines.append(f"(assert {_smt_constraint(a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model files


def _qd_smt(q: QuantDisj) -> str:
    def conj_smt(c: ConstraintConj) -> str:
        return _smt_and([_smt_constraint(a) for a in c])

    if len(q.disjuncts) == 1:
        body = conj_smt(q.disjuncts[0])
    else:
        body = f"(or {' '.join(conj_smt(d) for d in q.disjuncts)})"
    if q.exists:
        _check_symbols([v.name for v in q.exists])
        body = f"(exists ({_binder_text(q.exists)}) {body})"
    return body


def print_model(sigma: SymbolicInterpretation) -> str:
    """Write an interpretation in the define-fun model format."""
    lines = []
    for pred in sigma.preds():
        params, formula = sigma.entry(pred)
        _check_symbols([pred] + [v.name for v in params])
        lines.append(f"(define-fun {pred} ({_binder_text(params)}) Bool {_qd_smt(formula)})")
    return "\n".join(lines) + ("\n" if lines else "")


# --- s-expression reader ---

_SX_TOKEN = re.compile(r"\s+|;[^\n]*|[()]|[^\s();]+")


def _read_forms(text: str) -> list:
    """The top-level forms as nodes (value, (line, col)), where a value is a
    token's text or the list of the nodes inside a parenthesis. The lists
    still open wait on a stack, so no nesting depth recurses. Every
    character matches one of _SX_TOKEN's alternatives, and only whitespace
    holds a newline."""
    out = items = []
    stack = []  # (enclosing items, position) of each open list
    line, bol = 1, 0  # the current line and the offset where it begins
    for m in _SX_TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            stack.append((items, (line, m.start() - bol + 1)))
            items = []
        elif tok == ")" and stack:
            enclosing, start = stack.pop()
            enclosing.append((items, start))
            items = enclosing
        elif tok.isspace():
            nl = tok.count("\n")
            if nl:
                line += nl
                bol = m.start() + tok.rfind("\n") + 1
        elif tok[0] != ";":
            items.append((tok, (line, m.start() - bol + 1)))
    if stack:
        raise ParseError("unbalanced parenthesis", *stack[-1][1])
    return out


def _symbol(node, what: str) -> str:
    """The text of a symbol node; ParseError at a list node."""
    val, pos = node
    if not isinstance(val, str):
        raise ParseError(f"expected {what}", *pos)
    return val


def _form(node, what: str) -> tuple[str, list]:
    """The operator and the arguments of the list node (op args...) that
    `what` names; ParseError at the node for any other shape."""
    val, pos = node
    if not isinstance(val, list) or not val or not isinstance(val[0][0], str):
        raise ParseError(f"expected {what}", *pos)
    return val[0][0], val[1:]


def _arity(op: str, args: list, pos, n: int, or_more: bool = False) -> None:
    """ParseError at pos unless op has n arguments, or more with or_more."""
    if len(args) < n or (len(args) > n and not or_more):
        want = f"at least {n}" if or_more else str(n)
        raise ParseError(f"{op!r} takes {want} arguments, not {len(args)}", *pos)


def _binders(node) -> list[tuple[str, Sort, tuple[int, int]]]:
    """The name, sort and position of each binder of ((name sort)...)."""
    val, pos = node
    if not isinstance(val, list):
        raise ParseError("expected a list of binders (name sort)", *pos)
    out = []
    for b in val:
        name, args = _form(b, "a binder (name sort)")
        if len(args) != 1:
            raise ParseError("expected a binder (name sort)", *b[1])
        out.append((name, _parse_sort(args[0]), b[1]))
    return out


def _parse_sort(node) -> Sort:
    val, pos = node
    if val == "Int":
        return Sort.INT
    if isinstance(val, list) and [v for v, _ in val] == ["Array", "Int", "Int"]:
        return Sort.ARRAY
    raise ParseError("unsupported sort, expected Int or (Array Int Int)", *pos)


# Deepest nesting of a formula's lists, counted from the define-fun body: the
# formula and term parsers recurse once or twice per level, and the bound
# keeps them well inside Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 400


def _nest(pos, depth: int) -> int:
    """depth + 1, the depth of a list node's arguments; ParseError at the
    node past `_MAX_DEPTH`."""
    if depth >= _MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", *pos)
    return depth + 1


def _parse_expr(node, env: Mapping[str, Var], depth: int) -> LinExpr:
    val, pos = node
    if isinstance(val, str):
        if re.fullmatch(r"-?[0-9]+", val):
            return LinExpr.number(int(val))
        if val in env:
            v = env[val]
            if v.sort is not Sort.INT:
                raise SortMismatch(f"array variable {val} in arithmetic")
            return LinExpr.of(v)
        raise ParseError(f"unbound symbol {val!r}", *pos)
    op, args = _form(node, "a term")
    depth = _nest(pos, depth)
    if op == "+":
        out = LinExpr.number(0)
        for a in args:
            out = out.add(_parse_expr(a, env, depth))
        return out
    if op == "-":
        _arity(op, args, pos, 1, or_more=True)
        if len(args) == 1:
            return _parse_expr(args[0], env, depth).scale(-1)
        out = _parse_expr(args[0], env, depth)
        for a in args[1:]:
            out = out.sub(_parse_expr(a, env, depth))
        return out
    if op == "*":
        exprs = [_parse_expr(a, env, depth) for a in args]
        consts = [e for e in exprs if e.is_const()]
        others = [e for e in exprs if not e.is_const()]
        if len(others) > 1:
            raise ParseError("nonlinear product in model formula", *pos)
        k = 1
        for e in consts:
            k *= e.const
        return others[0].scale(k) if others else LinExpr.number(k)
    raise ParseError(f"unsupported term operator {op!r}", *pos)


_REL_FROM_SMT = {"=": Rel.EQ, "<=": Rel.LE, "<": Rel.LT, ">=": Rel.GE, ">": Rel.GT}


def _parse_formula(node, env: dict[str, Var], taken: set[str], depth: int) -> QuantDisj:
    val, pos = node
    if val == "true":
        return qd_true()
    if val == "false":
        return qd_false()
    op, args = _form(node, "a formula")
    depth = _nest(pos, depth)
    if op in _REL_FROM_SMT:
        _arity(op, args, pos, 2, or_more=True)
        lhs = _parse_expr(args[0], env, depth)
        rhs = _parse_expr(args[1], env, depth)
        atoms = [LinAtom(lhs, _REL_FROM_SMT[op], rhs)]
        for extra in args[2:]:  # chained relations
            nxt = _parse_expr(extra, env, depth)
            atoms.append(LinAtom(rhs, _REL_FROM_SMT[op], nxt))
            rhs = nxt
        parts = [QuantDisj((), (ConstraintConj((a,)),)) for a in atoms]
        out = qd_conjoin(parts)
        if out is None:
            raise ParseError("formula too large", *pos)
        return out
    if op == "and":
        parts = [_parse_formula(a, env, taken, depth) for a in args]
        out = qd_conjoin(parts) if parts else qd_true()
        if out is None:
            raise ParseError("conjunction exceeds the disjunct cap", *pos)
        return out
    if op == "or":
        if not args:
            return qd_false()
        parts = [_parse_formula(a, env, taken, depth) for a in args]
        exists: list[Var] = []
        disjuncts: list[ConstraintConj] = []
        for q in parts:
            q = qd_rename_exists_fresh(q, taken)
            exists.extend(q.exists)
            disjuncts.extend(q.disjuncts)
        return QuantDisj(tuple(exists), tuple(disjuncts))
    if op == "not":
        _arity(op, args, pos, 1)
        rel, operands = _form(args[0], "an atom to negate")
        if rel not in _REL_FROM_SMT:
            raise ParseError("negation is only supported on atoms", *args[0][1])
        _arity(rel, operands, args[0][1], 2)
        depth = _nest(args[0][1], depth)
        lhs = _parse_expr(operands[0], env, depth)
        rhs = _parse_expr(operands[1], env, depth)
        neg = negate_linatom(LinAtom(lhs, _REL_FROM_SMT[rel], rhs))
        return QuantDisj((), tuple(ConstraintConj((a,)) for a in neg))
    if op == "exists":
        _arity(op, args, pos, 2)
        inner_env = dict(env)
        bound: list[Var] = []
        for name, sort, _ in _binders(args[0]):
            nn = fresh_name(name, taken)
            taken.add(nn)
            v = Var(nn, sort)
            inner_env[name] = v
            bound.append(v)
        sub = _parse_formula(args[1], inner_env, taken, depth)
        return QuantDisj(tuple(bound) + sub.exists, sub.disjuncts, sub.exact)
    if op in ("let", "ite", "forall", "select", "store"):
        raise ParseError(f"unsupported construct {op!r} in model formula", *pos)
    raise ParseError(f"unsupported formula operator {op!r}", *pos)


def parse_model(text: str) -> SymbolicInterpretation:
    """Parse a sequence of define-fun forms into an interpretation.

    Raises ParseError, with the line and column, on any form that is not
    (declare-fun name (sorts) sort) or (define-fun name ((param sort)...)
    Bool formula), optionally wrapped in one (model ...) form.
    """
    from .models import SymbolicInterpretation

    forms = _read_forms(text)
    # tolerate a (model ...) wrapper
    flat = []
    for val, pos in forms:
        if isinstance(val, list) and val and val[0][0] == "model":
            flat.extend(val[1:])
        else:
            flat.append((val, pos))
    entries: dict[str, tuple[tuple[Var, ...], QuantDisj]] = {}
    for node in flat:
        head, args = _form(node, "a define-fun form")
        pos = node[1]
        if head == "declare-fun":
            _arity(head, args, pos, 3)
            _symbol(args[0], "a predicate name")
            continue
        if head != "define-fun":
            raise ParseError(f"unsupported construct {head!r}", *pos)
        _arity(head, args, pos, 4)
        name = _symbol(args[0], "a predicate name")
        if name in entries:
            raise ParseError(f"predicate {name} is defined twice", *pos)
        ret, rpos = args[2]
        if ret != "Bool":
            raise ParseError(f"predicate {name} must return Bool", *rpos)
        params: list[Var] = []
        env: dict[str, Var] = {}
        taken: set[str] = set()
        for pname, sort, bpos in _binders(args[1]):
            if pname in env:
                raise ParseError(f"duplicate parameter {pname}", *bpos)
            v = Var(pname, sort)
            env[pname] = v
            taken.add(pname)
            params.append(v)
        formula = _parse_formula(args[3], env, taken, 0)
        entries[name] = (tuple(params), formula)
    return SymbolicInterpretation(entries)
