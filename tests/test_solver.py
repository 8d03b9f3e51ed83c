import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

import chcpair
from chcpair import SolveStatus, SolverConfig, external_solve, parse_program
from chcpair.lia import Verdict, install_unknown_resolver, is_satisfiable
from chcpair.solver import make_unknown_resolver
from helpers import conj

PROG = parse_program("false :- X > 0, p(X).\np(X) :- X = 1.")


def _py_solver(body: str) -> SolverConfig:
    return SolverConfig((sys.executable, "-c", body), timeout_seconds=10)


def test_solver_reads_stdin_and_answers_sat():
    cfg = _py_solver(
        "import sys; data = sys.stdin.read();"
        "assert '(set-logic HORN)' in data and '(check-sat)' in data;"
        "print('sat'); print('(define-fun p ((X Int)) Bool false)')"
    )
    res = external_solve(PROG, cfg)
    assert res.status is SolveStatus.SAT
    assert "define-fun" in res.model_text


def test_solver_unsat():
    res = external_solve(PROG, _py_solver("print('unsat')"))
    assert res.status is SolveStatus.UNSAT


def test_solver_unknown():
    res = external_solve(PROG, _py_solver("print('unknown')"))
    assert res.status is SolveStatus.UNKNOWN


def test_solver_garbage_output():
    res = external_solve(PROG, _py_solver("print('flurble')"))
    assert res.status is SolveStatus.PROCESS_ERROR


def test_solver_skips_noise_before_answer():
    res = external_solve(PROG, _py_solver("print('; warming up'); print('unsat')"))
    assert res.status is SolveStatus.UNSAT


def test_solver_timeout_kills_child():
    cfg = SolverConfig(
        (sys.executable, "-c", "import time; time.sleep(30)"), timeout_seconds=1
    )
    t0 = time.monotonic()
    res = external_solve(PROG, cfg)
    elapsed = time.monotonic() - t0
    assert res.status is SolveStatus.TIMEOUT
    assert elapsed < 3 + 2  # timeout plus grace


def test_solver_missing_binary():
    cfg = SolverConfig(("/nonexistent/solver-binary",), timeout_seconds=5)
    res = external_solve(PROG, cfg)
    assert res.status is SolveStatus.PROCESS_ERROR


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(("z3",), timeout_seconds=0)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf")])
def test_solver_config_refuses_a_timeout_that_is_not_finite(seconds):
    """NaN passes the one-second floor, since every comparison with it is
    false, and infinity overflows the process wait: both are refused."""
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(("z3",), timeout_seconds=seconds)


def test_solver_config_from_command_line():
    cfg = SolverConfig.from_command_line("z3 -in -smt2", 30)
    assert cfg.command == ("z3", "-in", "-smt2")


def test_unknown_resolver_roundtrip():
    # seven disequalities exceed the case-split cap, forcing unknown
    hard = conj(
        "A =\\= B, B =\\= C, C =\\= D, D =\\= E, E =\\= F, F =\\= G, G =\\= A"
    )
    assert is_satisfiable(hard) is Verdict.UNKNOWN

    cfg = _py_solver(
        "import sys; data = sys.stdin.read();"
        "assert '(set-logic QF_LIA)' in data and '(declare-const A Int)' in data;"
        "print('sat')"
    )
    install_unknown_resolver(make_unknown_resolver(cfg))
    try:
        assert is_satisfiable(hard) is Verdict.PROVED
    finally:
        install_unknown_resolver(None)
    assert is_satisfiable(hard) is Verdict.UNKNOWN


def test_unknown_resolver_declines_on_garbage():
    hard = conj(
        "A =\\= B, B =\\= C, C =\\= D, D =\\= E, E =\\= F, F =\\= G, G =\\= A"
    )
    install_unknown_resolver(make_unknown_resolver(_py_solver("print('eh')")))
    try:
        assert is_satisfiable(hard) is Verdict.UNKNOWN
    finally:
        install_unknown_resolver(None)


def test_unknown_resolver_declines_on_a_timeout():
    hung = SolverConfig((sys.executable, "-c", "import time; time.sleep(30)"), timeout_seconds=1)
    t0 = time.monotonic()
    assert make_unknown_resolver(hung)(conj("X >= 0")) is Verdict.UNKNOWN
    assert time.monotonic() - t0 < 1 + 1


def test_unknown_resolver_declines_on_a_missing_binary():
    cfg = SolverConfig(("/nonexistent/solver-binary",), timeout_seconds=5)
    assert make_unknown_resolver(cfg)(conj("X >= 0")) is Verdict.UNKNOWN


def test_unknown_resolver_declines_a_reserved_symbol_without_asking():
    cfg = _py_solver("print('unsat')")
    assert make_unknown_resolver(cfg)(conj("STRING >= 0")) is Verdict.UNKNOWN
    assert make_unknown_resolver(cfg)(conj("X >= 0")) is Verdict.DISPROVED


@pytest.mark.skipif(importlib.util.find_spec("z3") is not None, reason="z3 bindings installed")
def test_z3shim_without_bindings_answers_unknown(monkeypatch):
    src = str(Path(chcpair.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = SolverConfig((sys.executable, "-m", "chcpair.z3shim"), timeout_seconds=30)
    assert external_solve(PROG, cfg).status is SolveStatus.UNKNOWN
