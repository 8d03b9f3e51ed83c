"""Goldens of the bounded oracle on the benchmark's probe entries.

For each array-free entry with a frozen pairing output
`bench_e2e/inputs/pn/<name>.chc`, P0 from the corpus is probed against it
at two budgets (hl1, whose output is the largest, at one). The golden
records the four `ProbeReport` verdicts with their goal ids and valuations
(in the valuation's own order) and the size of each side's bounded least
model. A faster oracle must leave them as they are.

To record the goldens again after an intended change of output, run
`PYTHONPATH=src python tests/test_oracle_goldens.py --write`.
"""

import json
import sys
from pathlib import Path

import pytest

from chcpair import Found, OracleBudget, bounded_lm, corpus, equisat_probe, parse_program

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "oracle"
PN = ROOT / "bench_e2e" / "inputs" / "pn"
# The first budget reaches every least model's fixpoint; the second stops
# before some, so that the doubled probe has to evaluate further levels.
TWO_BUDGETS = (OracleBudget(6, 0, 3), OracleBudget(3, 0, 3))
BUDGETS = {
    "sum_upto": TWO_BUDGETS,
    "sum_square": TWO_BUDGETS,
    "sum_square_p4": TWO_BUDGETS,
    "ackermann": TWO_BUDGETS,
    "ackermann_transf": TWO_BUDGETS,
    "hl": TWO_BUDGETS,
    "loop_unswitching": TWO_BUDGETS,
    "fib_fundep": TWO_BUDGETS,
    "fib_monotonicity": TWO_BUDGETS,
    "fib_injectivity": TWO_BUDGETS,
    "hl1": (OracleBudget(4, 0, 3),),
}
NAMES = tuple(BUDGETS)


def _result(r) -> dict:
    if isinstance(r, Found):
        return {
            "verdict": "Found",
            "goal_id": r.goal_id,
            "valuation": {repr(v): x for v, x in r.valuation.items()},
        }
    return {"verdict": "NotWithinBudget"}


def oracle_record(name: str) -> dict:
    p0 = corpus.load(name)
    pn = parse_program((PN / f"{name}.chc").read_text(encoding="utf-8"))
    out = {}
    for b in BUDGETS[name]:
        rep = equisat_probe(p0, pn, b)
        out[f"{b.depth},{b.lo},{b.hi}"] = {
            "p0_budget": _result(rep.p0_budget),
            "pn_budget": _result(rep.pn_budget),
            "p0_doubled": _result(rep.p0_doubled),
            "pn_doubled": _result(rep.pn_doubled),
            "p0_lm": len(bounded_lm(p0.definite(), b)),
            "pn_lm": len(bounded_lm(pn.definite(), b)),
        }
    return out


def _text(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_oracle_matches_golden(name):
    assert _text(oracle_record(name)) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_oracle_goldens.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (GOLDEN / f"{name}.json").write_text(_text(oracle_record(name)), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")
