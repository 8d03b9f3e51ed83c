import itertools
import operator
import random
import time

from chcpair import LinAtom, LinExpr, Rel, Var, boxes

from helpers import conj


def _brute_force(vs, rows, lo, hi, fixed, limit):
    """Every point of the box, pinned variables held, in lexicographic order."""
    ranges = [[fixed[v]] if v in fixed else range(lo, hi + 1) for v in vs]
    out = []
    for point in itertools.product(*ranges):
        if all(
            _REL_OPS[rel](k + sum(c * point[i] for i, c in coeffs.items()), 0)
            for coeffs, k, rel in rows
        ):
            out.append(dict(zip(vs, point)))
            if len(out) >= limit:
                break
    return out


def _random_system(rng):
    """(vars, rows) with sparse rows (coeffs by position, k, rel); some zero
    coefficients are kept in the row, and a row may have no nonzero
    coefficient at all."""
    nvars = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(0, 5)):
        # mostly unit coefficients and zeros, as in clause constraints
        coeffs = {}
        for i in range(nvars):
            c = rng.choice([0, 0, 0, 1, -1, 1, -1, 2, -3])
            if c or rng.random() < 0.3:
                coeffs[i] = c
        rel = rng.choice([Rel.LE, Rel.LE, Rel.EQ, Rel.NE])
        rows.append((coeffs, rng.randint(-6, 6), rel))
    vs = tuple(Var(f"V{i}") for i in range(nvars))
    return vs, rows


def test_solutions_match_brute_force():
    rng = random.Random(11)
    deadline = time.monotonic() + 4.0
    systems = queries = found = 0
    seen = {"ne": False, "no_vars": False, "outside": False, "zero": False, "ground": False}
    while systems < 400 and time.monotonic() < deadline:
        vs, rows = _random_system(rng)
        seen["ne"] |= any(rel is Rel.NE for _, _, rel in rows)
        seen["no_vars"] |= not vs
        seen["zero"] |= any(0 in coeffs.values() for coeffs, _, _ in rows)
        seen["ground"] |= any(not any(coeffs.values()) for coeffs, _, _ in rows)
        # one system, several boxes and pinned sets
        for _ in range(3):
            lo = rng.randint(-3, 1)
            hi = lo + rng.randint(-1, 4)
            fixed = {v: rng.randint(-5, 5) for v in vs if rng.random() < 0.35}
            seen["outside"] |= any(not lo <= x <= hi for x in fixed.values())
            for limit in (1, 2, 2**62):
                want = _brute_force(vs, rows, lo, hi, fixed, limit)
                got = boxes.solutions(vs, rows, lo, hi, fixed=fixed, limit=limit)
                assert got == want, (vs, rows, lo, hi, fixed, limit)
                assert [list(d) for d in got] == [list(vs)] * len(got)
                queries += 1
                found += bool(got)
        systems += 1
    assert systems >= 50 and found > queries // 10
    assert all(seen.values()), seen


def test_lowering_and_enumeration():
    vs, _, rows = boxes.index_rows(conj("X > 0, X =< Y, Y < 3"))
    sols = boxes.solutions(vs, rows, -3, 3)
    pts = {(s[Var("X")], s[Var("Y")]) for s in sols}
    assert pts == {(1, 1), (1, 2), (2, 2)}


def test_fixed_variables():
    vs, _, rows = boxes.index_rows(conj("X = Y + 1"))
    sols = boxes.solutions(vs, rows, -3, 3, fixed={Var("Y"): 2})
    assert [s[Var("X")] for s in sols] == [3]


def test_disequality_rows():
    vs, _, rows = boxes.index_rows(conj("X =\\= 0"))
    vals = sorted(s[Var("X")] for s in boxes.solutions(vs, rows, -1, 1))
    assert vals == [-1, 1]


def test_limit():
    vs, _, rows = boxes.index_rows(conj("X >= -5"))
    assert len(boxes.solutions(vs, rows, -5, 5, limit=3)) == 3


def test_eval_conj():
    c = conj("X + Y = 3, X < Y")
    assert boxes.eval_conj(c, {Var("X"): 1, Var("Y"): 2})
    assert not boxes.eval_conj(c, {Var("X"): 2, Var("Y"): 1})


def test_big_coefficients_fall_back_to_pure():
    big = 2**45
    c = conj(f"{big}*X = {big}")
    vs, _, rows = boxes.index_rows(c)
    sols = boxes.solutions(vs, rows, -2, 2)
    assert [s[Var("X")] for s in sols] == [1]


_REL_OPS = {
    Rel.EQ: operator.eq,
    Rel.NE: operator.ne,
    Rel.LE: operator.le,
    Rel.LT: operator.lt,
    Rel.GE: operator.ge,
    Rel.GT: operator.gt,
}


def test_eval_atom_matches_operator_arithmetic():
    rng = random.Random(12)
    pool = [Var(n) for n in "XYZ"]

    def expr():
        vs = rng.sample(pool, rng.randint(0, len(pool)))
        return LinExpr.build({v: rng.randint(-3, 3) for v in vs}, rng.randint(-4, 4))

    def value(e, env):
        return e.const + sum(c * env[v] for v, c in e.coeffs)

    for rel, op in _REL_OPS.items():
        outcomes = set()
        for _ in range(300):
            atom = LinAtom(expr(), rel, expr())
            env = {v: rng.randint(-4, 4) for v in pool}
            want = op(value(atom.lhs, env), value(atom.rhs, env))
            assert boxes.eval_atom(atom, env) is want, (atom, env)
            outcomes.add(want)
        assert outcomes == {True, False}, rel
