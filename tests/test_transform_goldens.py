"""Byte-for-byte goldens of the pairing transform in both of its modes.

The printed program and the trace text of `iterate_pairing(p, [], cfg)` are
the behavioural contract of the transform: a speed-up of pair selection or of
the LIA engine must leave them unchanged. `{name}.chc`/`.trace` pin the
iterated transform (`PairingConfig(iterate=True)`, `chcpair transform
--iterate`), and `{name}.round.chc`/`.round.trace` pin one round
(`PairingConfig()`, `chcpair transform` without `--iterate`).

To record the goldens again after an intended change of output, run
`PYTHONPATH=src python tests/test_transform_goldens.py --write`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcpair
from chcpair import PairingConfig, corpus, iterate_pairing, print_program

GOLDEN = Path(__file__).parent / "golden" / "transform"
NAMES = corpus.NAMES
# golden file infix -> the configuration of the transform that it pins
MODES = {"": PairingConfig(iterate=True), ".round": PairingConfig()}


def transform_texts(name: str) -> dict[str, str]:
    texts = {}
    for infix, cfg in MODES.items():
        res = iterate_pairing(corpus.load(name), [], cfg)
        texts[f"{name}{infix}.chc"] = print_program(res.transf)
        texts[f"{name}{infix}.trace"] = res.trace_text()
    return texts


@pytest.mark.parametrize("name", NAMES)
def test_transform_matches_golden(name):
    for fname, text in transform_texts(name).items():
        assert text.encode() == (GOLDEN / fname).read_bytes(), f"{fname} differs from its golden"


@pytest.mark.parametrize("name", NAMES)
def test_overlaps_name_the_goals_left_in_the_output(name):
    # every goal left with two or more atoms is reported once, by its id
    # in the output, and no other id is
    res = iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))
    left = [g.cid for g in res.transf.goals() if len(g.body) >= 2]
    assert sorted(ov.goal_id for ov in res.overlaps) == left


def test_transform_text_is_independent_of_the_hash_seed():
    script = (
        "from chcpair import PairingConfig, corpus, iterate_pairing, print_program\n"
        "for name in ('loop_unswitching', 'fib_fundep'):\n"
        "    res = iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))\n"
        "    print(print_program(res.transf) + res.trace_text())\n"
    )
    src = str(Path(chcpair.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            encoding="utf-8", timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "PAIR" in outs[0]


def test_transform_text_is_independent_of_object_addresses():
    # A Var, Sort or Rel hashes by its address, so a set or dict keyed on
    # them iterates in an order set by where the objects were allocated, not
    # by the hash seed. Before each transform, each process keeps a seeded
    # number of small lists of mixed sizes alive, which moves the objects
    # that the transform allocates; the outputs must still be the goldens.
    names = ("hl", "fib_fundep", "loop_unswitching")
    script = (
        "import random, sys\n"
        "from chcpair import PairingConfig, corpus, iterate_pairing, print_program\n"
        "rng = random.Random(int(sys.argv[1]))\n"
        "keep = []\n"
        "for name in sys.argv[2:]:\n"
        "    keep.append([[None] * rng.randrange(1, 9) for _ in range(rng.randrange(1, 4000))])\n"
        "    res = iterate_pairing(corpus.load(name), [], PairingConfig(iterate=True))\n"
        "    sys.stdout.write(print_program(res.transf) + '\\0' + res.trace_text() + '\\0')\n"
    )
    src = str(Path(chcpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    expected = [
        (GOLDEN / f"{name}{ext}").read_text(encoding="utf-8")
        for name in names
        for ext in (".chc", ".trace")
    ]
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, seed, *names],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\0")[:-1] == expected, f"allocation seed {seed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_transform_goldens.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        for fname, text in transform_texts(name).items():
            (GOLDEN / fname).write_bytes(text.encode())
            print(f"wrote {GOLDEN / fname}")
