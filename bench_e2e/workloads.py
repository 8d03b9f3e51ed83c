"""The benchmark's workloads: their inputs, operations and correctness checks.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``chcpair`` from there, so the benchmark always
measures the sources next to it, never an installed copy.

Every operation calls the library through attributes of the ``chcpair``
package looked up at call time, so the wrappers that ``tracing.py`` installs
in a traced run see those calls too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
INPUTS = BENCH_DIR / "inputs"

if not (SRC / "chcpair" / "__init__.py").is_file():
    raise SystemExit(f"error: no chcpair sources at {SRC}")
sys.path.insert(0, str(SRC))

import chcpair  # noqa: E402
from chcpair import corpus  # noqa: E402

if Path(chcpair.__file__).resolve().parent != SRC / "chcpair":
    raise SystemExit(f"error: imported chcpair from {chcpair.__file__}, not from {SRC}")

WORKLOADS = ("transform", "oracle", "certify")

# Every corpus entry goes through the transform.
TRANSFORM_NAMES = corpus.NAMES
# Array-free entries whose Pn is small enough for the bounded oracle. A single
# probe on the fib_monotonicity output takes minutes, so the fib_* outputs
# other than fib_fundep, and hl1, are left out.
ORACLE_NAMES = (
    "sum_upto",
    "sum_square",
    "sum_square_p4",
    "ackermann",
    "ackermann_transf",
    "hl",
    "loop_unswitching",
    "fib_fundep",
)
ORACLE_BUDGET = chcpair.OracleBudget(6, 0, 3)
# hl states non-interference, which the program violates: a counterexample
# sits within the budget on both sides. Every other entry holds, so the
# bounded search finds no violation.
ORACLE_VIOLATED = {"hl"}
# Entries whose pairing output certify checks against the all-true model
# transported along the definition steps of the pairing trace.
TRANSPORT_NAMES = (
    "sum_square",
    "ackermann",
    "hl",
    "loop_unswitching",
    "fib_monotonicity",
    "fib_injectivity",
    "fib_fundep",
    "hl1",
)
PN_NAMES = tuple(dict.fromkeys(ORACLE_NAMES + TRANSPORT_NAMES))
# The smallest operation of each workload, for the smoke mode.
SMOKE_OPS = {"transform": "sum_square", "oracle": "sum_upto", "certify": "sum_upto.hand"}


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``check`` gets what ``run`` returned and gives None when the output is
    correct, or a message saying what is wrong.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def transform_outputs(res, program: str, trace: str, smtlib: str) -> dict:
    """What a transform is checked on: output sizes and digests of its texts."""
    return {
        "defs": len(res.defs),
        "clauses": len(res.transf),
        "steps": len(res.all_steps()),
        "program_sha256": sha256(program),
        "trace_sha256": sha256(trace),
        "smtlib_sha256": sha256(smtlib),
    }


def transform(p):
    """What ``chcpair transform --iterate`` followed by ``chcpair emit`` does."""
    res = chcpair.iterate_pairing(p, [], chcpair.PairingConfig(iterate=True))
    return res, chcpair.print_program(res.transf), res.trace_text(), chcpair.emit_smtlib(res.transf)


def _mismatch(got: dict, want: dict) -> Optional[str]:
    bad = [f"{k}: got {got.get(k)!r}, want {want[k]!r}" for k in want if got.get(k) != want[k]]
    return "; ".join(bad) or None


def transform_ops(expected: dict) -> list[Op]:
    ops = []
    for name in TRANSFORM_NAMES:
        p = corpus.load(name)
        want = expected[name]
        ops.append(
            Op(
                name,
                lambda p=p: transform(p),
                lambda out, want=want: _mismatch(transform_outputs(*out), want),
            )
        )
    return ops


def _found(r) -> bool:
    return isinstance(r, chcpair.Found)


def oracle_check(name: str, rep) -> Optional[str]:
    want = name in ORACLE_VIOLATED
    sides = {
        "p0": rep.p0_budget,
        "pn": rep.pn_budget,
        "p0_doubled": rep.p0_doubled,
        "pn_doubled": rep.pn_doubled,
    }
    bad = [
        f"{side}: {'Found' if _found(r) else 'NotWithinBudget'}"
        for side, r in sides.items()
        if _found(r) != want
    ]
    if not rep.agreement:
        bad.append("agreement is false")
    if bad:
        return f"want {'Found' if want else 'NotWithinBudget'} everywhere; " + "; ".join(bad)
    return None


def oracle_ops() -> list[Op]:
    ops = []
    for name in ORACLE_NAMES:
        p0 = corpus.load(name)
        pn = chcpair.parse_program((INPUTS / "pn" / f"{name}.chc").read_text())
        ops.append(
            Op(
                name,
                lambda p0=p0, pn=pn: chcpair.equisat_probe(p0, pn, ORACLE_BUDGET),
                lambda rep, name=name: oracle_check(name, rep),
            )
        )
    return ops


@dataclass
class CertifyCase:
    """Frozen texts for one check-model (and check-tight) run.

    A case with ``defs`` holds a transported model, which interprets the
    predicates but not the goal, so only the definite clauses are checked.
    ``want`` is the overall check_model verdict backed by the theory:
    transported and hand-written models are Proved, and the degenerate
    ``true`` model is Disproved on the goal.
    """

    name: str
    program: str
    model: str
    defs: Optional[str]
    want: str


def certify_cases() -> list[CertifyCase]:
    hand = INPUTS / "handwritten"
    cases = [
        CertifyCase("sum_upto.hand", corpus.text("sum_upto"),
                    (hand / "sum_upto.smt2").read_text(), None, "proved"),
        CertifyCase("sum_upto.true", corpus.text("sum_upto"),
                    (hand / "sum_upto_true.smt2").read_text(), None, "disproved"),
        CertifyCase("sum_square_p4.hand", corpus.text("sum_square_p4"),
                    (hand / "sum_square_p4.smt2").read_text(), None, "proved"),
    ]
    for name in TRANSPORT_NAMES:
        cases.append(
            CertifyCase(
                f"{name}.transported",
                (INPUTS / "pn" / f"{name}.chc").read_text(),
                (INPUTS / "models" / f"{name}.smt2").read_text(),
                (INPUTS / "defs" / f"{name}.chc").read_text(),
                "proved",
            )
        )
    return cases


def certify(case: CertifyCase):
    """What ``chcpair check-model`` (and ``check-tight``) does on the case."""
    prog = chcpair.parse_program(case.program)
    if case.defs is not None:
        prog = prog.definite()
    sigma = chcpair.parse_model(case.model)
    res = chcpair.check_model(prog, sigma)
    tight = None
    if case.defs is not None:
        defs = chcpair.parse_program(case.defs)
        if all(sigma.defines(d.head.pred) for d in defs):
            tight = chcpair.check_tight(defs, sigma)
    return prog, res, tight


def certify_check(case: CertifyCase, out) -> Optional[str]:
    prog, res, tight = out
    bad = []
    if res.overall.value != case.want:
        bad.append(f"check_model {res.overall.value}, want {case.want}")
    if case.want == "disproved":
        for goal in prog.goals():
            if res.verdict_for(goal.cid).value != "disproved":
                bad.append(f"goal {goal.cid} {res.verdict_for(goal.cid).value}, want disproved")
    if case.defs is not None and (tight is None or tight.value != "proved"):
        bad.append(f"check_tight {tight.value if tight else 'skipped'}, want proved")
    return "; ".join(bad) or None


def certify_ops() -> list[Op]:
    return [
        Op(case.name, lambda case=case: certify(case), lambda out, case=case: certify_check(case, out))
        for case in certify_cases()
    ]


def load_expected() -> dict:
    return json.loads((INPUTS / "transform_expected.json").read_text())


def load(workload: str) -> list[Op]:
    """Load and parse a workload's inputs; this is what ``setup_s`` times."""
    if workload == "transform":
        return transform_ops(load_expected())
    if workload == "oracle":
        return oracle_ops()
    if workload == "certify":
        return certify_ops()
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
