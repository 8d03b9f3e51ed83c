"""Write the benchmark's derived inputs, or check that they are current.

The oracle and certify workloads read frozen texts rather than running the
transform themselves, so their inputs and ``setup_s`` stay put when the
transform changes. This script derives those texts from the corpus:

- ``inputs/pn/<name>.chc``: the pairing output Pn of each entry;
- ``inputs/defs/<name>.chc``: the definitions that the pairing introduced;
- ``inputs/models/<name>.smt2``: the all-true interpretation of the input
  predicates, transported along the definition steps of the pairing trace;
- ``inputs/transform_expected.json``: the output sizes and text digests the
  transform workload checks every operation against.

Models under ``inputs/handwritten`` are written by hand and not derived.

    python3 bench_e2e/gen_inputs.py          # write the files
    python3 bench_e2e/gen_inputs.py --check  # exit 1 unless byte-identical
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as w
from workloads import INPUTS, chcpair, corpus


def _all_true(p) -> "chcpair.SymbolicInterpretation":
    entries = {}
    for c in p.clauses:
        if c.head is not None and c.head.pred not in entries:
            entries[c.head.pred] = (c.head.args, chcpair.lia.qd_true())
    return chcpair.SymbolicInterpretation(entries)


def transported_model(res) -> str:
    new_preds = {d.head.pred for d in res.defs}
    base = chcpair.Program(
        [c for c in res.transf.definite() if c.head.pred not in new_preds]
    )
    sigma = _all_true(base)
    for d in res.defs:
        sigma = chcpair.transport_definition(sigma, d)
    return chcpair.print_model(sigma)


def derived_files() -> dict[str, str]:
    """Every derived file, by path relative to ``inputs``, with its text."""
    files: dict[str, str] = {}
    expected = {}
    for name in w.TRANSFORM_NAMES:
        res, program, trace, smtlib = w.transform(corpus.load(name))
        expected[name] = w.transform_outputs(res, program, trace, smtlib)
        if name in w.PN_NAMES:
            files[f"pn/{name}.chc"] = program
        if name in w.TRANSPORT_NAMES:
            files[f"defs/{name}.chc"] = chcpair.print_program(res.defs)
            files[f"models/{name}.smt2"] = transported_model(res)
    files["transform_expected.json"] = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args(argv)
    files = derived_files()
    if args.check:
        stale = [
            rel
            for rel, text in files.items()
            if not (INPUTS / rel).is_file() or (INPUTS / rel).read_bytes() != text.encode()
        ]
        for rel in stale:
            print(f"stale: inputs/{rel}", file=sys.stderr)
        return 1 if stale else 0
    for rel, text in files.items():
        path = INPUTS / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
