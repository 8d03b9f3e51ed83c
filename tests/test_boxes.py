import itertools
import operator
import random
import time

from chcpair import LinAtom, LinExpr, Rel, Var, boxes

from helpers import conj


def _brute_force(sys_, lo, hi, fixed, limit):
    """Every point of the box, pinned variables held, in lexicographic order."""
    n = len(sys_.vars)
    ranges = [
        [fixed[v]] if v in fixed else range(lo, hi + 1) for v in sys_.vars
    ]
    out = []
    for point in itertools.product(*ranges):
        ok = True
        for r, op in enumerate(sys_.ops):
            s = sys_.consts[r] + sum(
                sys_.matrix[r * n + i] * x for i, x in enumerate(point)
            )
            if (op == boxes.OP_LE and s > 0) or (op == boxes.OP_EQ and s != 0) or (
                op == boxes.OP_NE and s == 0
            ):
                ok = False
                break
        if ok:
            out.append(dict(zip(sys_.vars, point)))
            if len(out) >= limit:
                break
    return out


def _random_system(rng):
    nvars = rng.randint(0, 4)
    nrows = rng.randint(0, 5)
    # mostly unit coefficients and zeros, as in clause constraints
    matrix = [rng.choice([0, 0, 0, 1, -1, 1, -1, 2, -3]) for _ in range(nrows * nvars)]
    consts = [rng.randint(-6, 6) for _ in range(nrows)]
    ops = [rng.choice([boxes.OP_LE, boxes.OP_LE, boxes.OP_EQ, boxes.OP_NE]) for _ in range(nrows)]
    vs = tuple(Var(f"V{i}") for i in range(nvars))
    return boxes.BoxSystem(vs, matrix, consts, ops)


def test_solutions_match_brute_force():
    rng = random.Random(11)
    deadline = time.monotonic() + 4.0
    systems = queries = found = 0
    seen = {"ne": False, "no_vars": False, "outside": False}
    while systems < 400 and time.monotonic() < deadline:
        sys_ = _random_system(rng)
        seen["ne"] |= boxes.OP_NE in sys_.ops
        seen["no_vars"] |= not sys_.vars
        # one system, several boxes and pinned sets
        for _ in range(3):
            lo = rng.randint(-3, 1)
            hi = lo + rng.randint(-1, 4)
            fixed = {v: rng.randint(-5, 5) for v in sys_.vars if rng.random() < 0.35}
            seen["outside"] |= any(not lo <= x <= hi for x in fixed.values())
            for limit in (1, 2, 2**62):
                want = _brute_force(sys_, lo, hi, fixed, limit)
                got = boxes.solutions(sys_, lo, hi, fixed=fixed, limit=limit)
                assert got == want, (sys_, lo, hi, fixed, limit)
                assert [list(d) for d in got] == [list(sys_.vars)] * len(got)
                queries += 1
                found += bool(got)
        systems += 1
    assert systems >= 50 and found > queries // 10
    assert all(seen.values()), seen


def test_lowering_and_enumeration():
    sys_ = boxes.lower_conj(conj("X > 0, X =< Y, Y < 3"))
    sols = boxes.solutions(sys_, -3, 3)
    pts = {(s[Var("X")], s[Var("Y")]) for s in sols}
    assert pts == {(1, 1), (1, 2), (2, 2)}


def test_fixed_variables():
    sys_ = boxes.lower_conj(conj("X = Y + 1"))
    sols = boxes.solutions(sys_, -3, 3, fixed={Var("Y"): 2})
    assert [s[Var("X")] for s in sols] == [3]


def test_disequality_rows():
    sys_ = boxes.lower_conj(conj("X =\\= 0"))
    vals = sorted(s[Var("X")] for s in boxes.solutions(sys_, -1, 1))
    assert vals == [-1, 1]


def test_limit():
    sys_ = boxes.lower_conj(conj("X >= -5"))
    assert len(boxes.solutions(sys_, -5, 5, limit=3)) == 3


def test_eval_conj():
    c = conj("X + Y = 3, X < Y")
    assert boxes.eval_conj(c, {Var("X"): 1, Var("Y"): 2})
    assert not boxes.eval_conj(c, {Var("X"): 2, Var("Y"): 1})


def test_big_coefficients_fall_back_to_pure():
    big = 2**45
    c = conj(f"{big}*X = {big}")
    sys_ = boxes.lower_conj(c)
    sols = boxes.solutions(sys_, -2, 2)
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
