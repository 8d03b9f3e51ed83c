"""The package resolves its public names lazily: a bare import, and each CLI
command, loads only the chcpair modules that it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcpair

SRC = Path(chcpair.__file__).resolve().parents[1]
ROOT = SRC.parent
CORPUS_DIR = SRC / "chcpair" / "corpus"
INPUTS = ROOT / "bench_e2e" / "inputs"

# prints, as its last line, the chcpair modules loaded by the code before it
_REPORT = (
    "\nimport json as _j, sys as _s\n_s.stdout.flush()\n"
    "print(_j.dumps(sorted(n[len('chcpair.'):] for n in _s.modules"
    " if n.startswith('chcpair.'))))\n"
)


def _fresh(code: str, *argv) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run code in a fresh interpreter; its result and the submodules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + _REPORT, *map(str, argv)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc, set(json.loads(proc.stdout.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    _, loaded = _fresh("import chcpair")
    assert loaded == set()


def test_an_unknown_name_raises_and_loads_nothing():
    proc, loaded = _fresh(
        "import chcpair\n"
        "try:\n    chcpair.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n"
    )
    assert "'no_such_name'" in proc.stdout.splitlines()[0]
    assert loaded == set()


def test_a_submodule_is_reachable_as_an_attribute():
    proc, loaded = _fresh("import chcpair\nprint(chcpair.boxes.KERNEL)")
    assert loaded == {"boxes", "errors", "syntax"}


def test_a_name_loads_its_own_module_only():
    _, loaded = _fresh("import chcpair\nchcpair.OracleBudget(1, 0, 1)")
    assert loaded == {"boxes", "errors", "oracle", "syntax"}


def test_every_public_name_is_its_defining_modules_object():
    star: dict = {}
    exec("from chcpair import *", star)
    listed = set(dir(chcpair))
    for name in chcpair.__all__:
        obj = getattr(chcpair, name)
        assert obj.__module__.startswith("chcpair."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in listed, name
        assert star[name] is obj, name


_CLI = "import sys\nfrom chcpair.cli import main\ncode = main(sys.argv[1:])\nassert code == 0, code"

# (argv, the command's own module, modules it must leave unloaded)
COMMANDS = [
    (["oracle", CORPUS_DIR / "sum_upto.chc", "--depth", "3", "--box", "0..3"], "oracle",
     {"lia", "kernel", "pairing", "models", "smtlib", "solver"}),
    (["transform", "--iterate", CORPUS_DIR / "sum_square.chc"], "pairing",
     {"models", "oracle", "solver"}),
    (["emit", CORPUS_DIR / "sum_upto.chc"], "smtlib",
     {"kernel", "pairing", "models", "oracle", "solver"}),
    (["check-model", CORPUS_DIR / "sum_upto.chc", INPUTS / "handwritten" / "sum_upto.smt2"],
     "models", {"kernel", "pairing", "oracle", "solver"}),
    (["check-tight", INPUTS / "defs" / "sum_square.chc", INPUTS / "models" / "sum_square.smt2"],
     "models", {"kernel", "pairing", "oracle", "solver"}),
]


@pytest.mark.parametrize("argv, own, unused", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_a_cli_command_loads_only_what_it_uses(argv, own, unused):
    _, loaded = _fresh(_CLI, *argv)
    assert own in loaded
    assert not loaded & unused, sorted(loaded & unused)
