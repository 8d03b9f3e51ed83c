"""Goldens of the model checks on the benchmark's certify cases.

Each case is a program with a model: the hand-written models of sum_upto
and sum_square_p4, the degenerate `true` model of sum_upto, and the
all-true model transported along the pairing trace of each entry with a
frozen output under `bench_e2e/inputs`. The golden records the verdict of
`check_model` on every clause (on the definite clauses alone for a
transported model, which leaves the goals uninterpreted) and, for a
transported model, the verdict of `check_tight` on every definition. It
records the same checks once more with the model's first predicate mapped
to false, which makes some clauses Disproved. A faster entailment check
must leave every verdict as it is.

To record the goldens again after an intended change of output, run
`PYTHONPATH=src python tests/test_model_goldens.py --write`.
"""

import json
import sys
from pathlib import Path

import pytest

from chcpair import Program, check_model, check_tight, corpus, parse_model, parse_program
from chcpair.lia import qd_false

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "models"
INPUTS = ROOT / "bench_e2e" / "inputs"
HANDWRITTEN = {
    "sum_upto.hand": ("sum_upto", "sum_upto.smt2"),
    "sum_upto.true": ("sum_upto", "sum_upto_true.smt2"),
    "sum_square_p4.hand": ("sum_square_p4", "sum_square_p4.smt2"),
}
TRANSPORTED = (
    "sum_square",
    "ackermann",
    "hl",
    "loop_unswitching",
    "fib_monotonicity",
    "fib_injectivity",
    "fib_fundep",
    "hl1",
)
NAMES = tuple(HANDWRITTEN) + tuple(f"{name}.transported" for name in TRANSPORTED)


def load_case(case: str):
    """(program, model, definitions or None) of a certify case."""
    if case in HANDWRITTEN:
        entry, model = HANDWRITTEN[case]
        text = (INPUTS / "handwritten" / model).read_text(encoding="utf-8")
        return corpus.load(entry), parse_model(text), None
    name = case.removesuffix(".transported")
    prog = parse_program((INPUTS / "pn" / f"{name}.chc").read_text(encoding="utf-8")).definite()
    sigma = parse_model((INPUTS / "models" / f"{name}.smt2").read_text(encoding="utf-8"))
    defs = parse_program((INPUTS / "defs" / f"{name}.chc").read_text(encoding="utf-8"))
    return prog, sigma, defs


def _checks(prog, sigma, defs) -> dict:
    res = check_model(prog, sigma)
    out = {
        "overall": res.overall.value,
        "clauses": {str(cid): v.value for cid, v in res.per_clause},
        "defaulted": list(res.defaulted_preds),
    }
    if defs is not None:
        out["tight"] = {
            d.head.pred: check_tight(Program([d]), sigma).value for d in defs.clauses
        }
    return out


def model_record(case: str) -> dict:
    prog, sigma, defs = load_case(case)
    first = sigma.preds()[0]
    params, _ = sigma.entry(first)
    return {
        "model": _checks(prog, sigma, defs),
        f"{first} false": _checks(prog, sigma.with_entry(first, params, qd_false()), defs),
    }


def _text(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_model_checks_match_golden(name):
    assert _text(model_record(name)) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_model_goldens.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (GOLDEN / f"{name}.json").write_text(_text(model_record(name)), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")
