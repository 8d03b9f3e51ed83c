"""Sort inference against the fixpoint it replaced.

`syntax._infer_sorts` gives sorts by one pass of union-find. The reference
below is the whole-program fixpoint the parser used before, kept verbatim:
it re-walks every clause until no sort changes. Random programs go through
both, and they must agree on the signatures and on each clause's table of
variable sorts, or both refuse the program with the same exception type.
The fixpoint leaves out a variable that nothing fixed, which the parser
makes int; the tables are compared after that default.

Each predicate keeps one arity within a program. A program with both an
arity clash and a sort conflict may be refused with either error: the
fixpoint finds some sort conflicts only in its second pass, after it has
met the clash, while union-find finds them where they arise.
"""

import random
import time
from pathlib import Path
from typing import Optional

import pytest

from chcpair import corpus, syntax
from chcpair.errors import ArityClash, SortMismatch
from chcpair.syntax import LinAtom, ReadAtom, Sort, WriteAtom


# --- the reference: the fixpoint, as it was ---------------------------------

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


def _int_default(table, head, items):
    """A reference table with every variable of its clause, int where the
    fixpoint fixed nothing."""
    names = set()
    for it in ([head] if head is not None else []) + items:
        if it[0] == "atom":
            for coeffs, _ in it[2]:
                names.update(coeffs)
        elif it[0] == "lin":
            names.update(it[1][0])
            names.update(it[3][0])
        else:
            names.update(it[1])
    return {v: table.get(v, "int") for v in names}


def _bare_var(coeffs, const) -> Optional[str]:
    if const == 0 and len(coeffs) == 1:
        name, k = next(iter(coeffs.items()))
        if k == 1:
            return name
    return None



# --- random programs ---------------------------------------------------------

VARS = ("A", "B", "C", "X", "Y", "Z")
RELS = ("=", "=<", "<", ">=", ">", "=\\=")


def _expr(rng, names):
    if rng.random() < 0.75:
        return ({rng.choice(names): 1}, 0)
    vs = rng.sample(names, rng.randint(0, 2))
    return ({v: rng.choice((-2, -1, 0, 1, 2)) for v in vs}, rng.choice((-1, 0, 0, 2)))


def _render_expr(e):
    # every term is printed, 0*V too, so the parser reads back the same
    # coefficients, and so the same bare variables
    coeffs, const = e
    out = ""
    for v, c in coeffs.items():
        term = v if c == 1 else f"{abs(c)}*{v}"
        if not out:
            out = term if c >= 0 else f"-{term}"
        else:
            out += f" + {term}" if c >= 0 else f" - {term}"
    if not out:
        return str(const) if const >= 0 else f"-{-const}"
    if const:
        out += f" + {const}" if const > 0 else f" - {-const}"
    return out


def _render_atom(name, args):
    return f"{name}({', '.join(_render_expr(a) for a in args)})" if args else name


def _chain_arg(k):
    return ({"X" if k == 0 else f"V{k}": 1}, 0)


def random_program(rng):
    """A random program as text, and as the declarations and raw clauses
    that the old grammar made of that text."""
    arity = {f"p{k}": rng.randint(0, 3) for k in range(rng.randint(2, 6))}
    preds = list(arity)
    decls = {}
    for p in preds:
        if arity[p] and rng.random() < 0.2:
            decls[p] = tuple(rng.choice(("int", "int", "array")) for _ in range(arity[p]))
    clauses = []

    def atom(name, names):
        return ("atom", name, [_expr(rng, names) for _ in range(arity[name])])

    def add(head, items):
        clauses.append((head, items, len(decls) + len(clauses) + 1, 1))

    for _ in range(rng.randint(1, 6)):
        names = list(VARS[: rng.randint(2, len(VARS))])
        head = None if rng.random() < 0.2 else atom(rng.choice(preds), names)
        items = []
        for _ in range(rng.randint(0, 5)):
            r = rng.random()
            if r < 0.3:
                # chains of bare-variable equalities
                a, b = rng.sample(names, 2)
                items.append(("lin", ({a: 1}, 0), "=", ({b: 1}, 0)))
            elif r < 0.4:
                items.append(("lin", _expr(rng, names), rng.choice(RELS), _expr(rng, names)))
            elif r < 0.45:
                items.append(("read", [rng.choice(names) for _ in range(3)]))
            elif r < 0.47:
                items.append(("write", [rng.choice(names) for _ in range(4)]))
            else:
                items.append(atom(rng.choice(preds), names))
        add(head, items)
    chain = [p for p in preds if arity[p]]
    if chain and rng.random() < 0.5:
        # each clause uses a predicate whose sorts only a later clause fixes
        rng.shuffle(chain)
        for p, q in zip(chain, chain[1:]):
            add(("atom", p, [_chain_arg(k) for k in range(arity[p])]),
                [("atom", q, [_chain_arg(k) for k in range(arity[q])])])
        last = chain[-1]
        fixing = ("read", ["X", "I", "U"]) if rng.random() < 0.5 else ("lin", ({"X": 1}, 0), ">", ({}, 0))
        add(("atom", last, [_chain_arg(k) for k in range(arity[last])]), [fixing])
    lines = [f":- sorts {p}({', '.join(s)})." for p, s in decls.items()]
    for head, items, _, _ in clauses:
        parts = []
        for it in items:
            if it[0] == "lin":
                parts.append(f"{_render_expr(it[1])} {it[2]} {_render_expr(it[3])}")
            elif it[0] in ("read", "write"):
                parts.append(f"{it[0]}({', '.join(it[1])})")
            else:
                parts.append(_render_atom(it[1], it[2]))
        h = "false" if head is None else _render_atom(head[1], head[2])
        lines.append(f"{h} :- {', '.join(parts)}." if parts else f"{h}.")
    return "\n".join(lines) + "\n", decls, clauses


def _new_inference(text):
    decls, clauses = syntax._grammar(text, syntax._scan(text))
    signatures, var_sorts = syntax._infer_sorts(text, decls, clauses)
    tables = [
        {name: s.value for name, s in zip(names, sorts)}
        for (*_, names), sorts in zip(clauses, var_sorts)
    ]
    return signatures, tables


def _outcome(infer, *args):
    try:
        return infer(*args)
    except (ArityClash, SortMismatch) as e:
        return type(e)


def test_union_find_matches_the_fixpoint():
    rng = random.Random(20261018)
    seen = {"agree": 0, "array": 0, SortMismatch: 0}
    deadline = time.monotonic() + 4.0
    cases = 0
    while cases < 3000 and time.monotonic() < deadline:
        cases += 1
        text, decls, raw = random_program(rng)
        want = _outcome(_infer_sorts, decls, raw)
        got = _outcome(_new_inference, text)
        if isinstance(want, tuple):
            want = (
                list(want[0].items()),
                [_int_default(t, head, items) for t, (head, items, _, _) in zip(want[1], raw)],
            )
            got = (list(got[0].items()), got[1]) if isinstance(got, tuple) else got
        assert got == want, text
        seen["agree"] += 1
        if isinstance(want, tuple):
            seen["array"] += any(Sort.ARRAY in sig for _, sig in want[0])
        else:
            seen[want] += 1
    assert seen["agree"] >= 300 and seen["array"] >= 30 and seen[SortMismatch] >= 30, seen


# --- the array-free return against the union-find ----------------------------

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench_e2e" / "inputs"
TEXTS = {name: corpus.text(name) for name in corpus.NAMES} | {
    f"{path.parent.name}/{path.stem}": path.read_text(encoding="utf-8")
    for kind in ("pn", "defs")
    for path in sorted((BENCH_INPUTS / kind).glob("*.chc"))
}


def _distinct_lin_atoms(p):
    return len({id(a) for c in p.clauses for a in c.constraint if isinstance(a, LinAtom)})


@pytest.mark.parametrize("name", TEXTS)
def test_a_sorts_declaration_changes_no_parse(name):
    """A leading `:- sorts` declaration of the first predicate, with the
    sorts it has anyway, sends the text through the union-find; without
    one, a text with no read or write constraint returns all int at once.
    Both give the same clauses, signatures in the same order, and as many
    shared atom objects. The declaration is all int but for the array
    entries, which take the union-find either way."""
    text = TEXTS[name]
    plain = syntax.parse_program(text)
    pred, sorts = next(iter(plain.signatures.items()))
    arrays = any(isinstance(a, (ReadAtom, WriteAtom)) for c in plain.clauses for a in c.constraint)
    assert arrays or all(s is Sort.INT for s in sorts)
    declared = syntax.parse_program(
        f":- sorts {pred}({', '.join(s.value for s in sorts)}).\n" + text
    )
    assert list(declared.clauses) == list(plain.clauses)
    assert list(declared.signatures.items()) == list(plain.signatures.items())
    assert _distinct_lin_atoms(declared) == _distinct_lin_atoms(plain)


# --- the parsed signatures against a walk of the parsed clauses -------------

# texts whose `:- sorts` declarations make arguments arrays
ARRAY_TEXTS = {
    "read and write": (":- sorts p(array, int).\n"
                       "p(A, X) :- X = Y + 1, 2*Y - Z > 0, read(A, Y, Z), write(A, X, Z, B), "
                       "C = B, q(X, Y, Z), r(B)."),
    "shared array": (":- sorts p(array, int).\n"
                     "p(A, X) :- X = Y + 1, Y > 0, read(A, Y, Z), B = A, q(X, Y, Z), "
                     "q(Y, X, 2*Z).\nq(X, X, Y) :- X =< Y + X.\n"),
    "declared twice": ":- sorts p(array).\n:- sorts p(array).\np(X) :- q(X).",
    "array read": ":- sorts p(array).\np(A) :- read(A,I,U), U > 0, U < 0.",
}


@pytest.mark.parametrize("name", list(TEXTS) + list(ARRAY_TEXTS))
def test_parsed_signatures_are_those_of_the_clauses(name):
    """parse_program keeps the signatures of its sort inference without
    walking the clauses again, and `definite` its parent's: both are the
    signatures that `infer_signatures` finds on the clauses. (The order is
    the sort inference's, which visits constraints before atoms.)"""
    p = syntax.parse_program(TEXTS.get(name) or ARRAY_TEXTS[name])
    assert p.signatures == syntax.infer_signatures(p.clauses)
    d = p.definite()
    assert list(d.signatures.items()) == list(p.signatures.items())
    assert d.signatures is not p.signatures
    assert list(d.clauses) == [c for c in p.clauses if not c.is_goal]
    assert name not in ARRAY_TEXTS or any(Sort.ARRAY in s for s in p.signatures.values())
