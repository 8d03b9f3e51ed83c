"""External Horn solver process client."""

from __future__ import annotations

import enum
import shlex
import subprocess
from dataclasses import dataclass
from typing import Optional

from .lia import Verdict
from .smtlib import emit_lia_query, emit_smtlib
from .syntax import ConstraintConj, Program


@dataclass(frozen=True)
class SolverConfig:
    command: tuple[str, ...]
    timeout_seconds: float = 60

    def __post_init__(self):
        if self.timeout_seconds < 1:
            raise ValueError("timeout must be at least one second")

    @staticmethod
    def from_command_line(cmd: str, timeout_seconds: float = 60) -> "SolverConfig":
        return SolverConfig(tuple(shlex.split(cmd)), timeout_seconds)


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"
    PROCESS_ERROR = "process-error"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    model_text: Optional[str] = None
    detail: str = ""


def _run(payload: str, cfg: SolverConfig) -> SolveResult:
    """Write payload on the solver's stdin and parse the first
    sat/unsat/unknown line of its output; the lines after a sat answer are
    its model. A process that outlives the timeout is killed and reaped."""
    try:
        done = subprocess.run(
            list(cfg.command),
            input=payload,
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=cfg.timeout_seconds,
        )
    except subprocess.TimeoutExpired:
        return SolveResult(SolveStatus.TIMEOUT)
    except OSError as exc:
        return SolveResult(SolveStatus.PROCESS_ERROR, detail=str(exc))
    lines = done.stdout.splitlines()
    for i, line in enumerate(lines):
        word = line.strip()
        if word == "sat":
            return SolveResult(SolveStatus.SAT, model_text="\n".join(lines[i + 1 :]))
        if word == "unsat":
            return SolveResult(SolveStatus.UNSAT)
        if word == "unknown":
            return SolveResult(SolveStatus.UNKNOWN)
    return SolveResult(
        SolveStatus.PROCESS_ERROR,
        detail=f"no answer in solver output (exit {done.returncode}): {done.stderr[:500]}",
    )


def external_solve(p: Program, cfg: SolverConfig) -> SolveResult:
    """Feed the emitted clauses to the configured solver process.

    Writes the SMT-LIB text plus (check-sat)(get-model) on the solver's
    stdin, parses the first sat/unsat/unknown answer, and kills the
    process if it outlives the timeout.
    """
    return _run(emit_smtlib(p) + "(check-sat)\n(get-model)\n", cfg)


def make_unknown_resolver(cfg: SolverConfig):
    """Build a lia.install_unknown_resolver hook backed by this solver.

    Each query ships the conjunction's linear part as QF_LIA; sat/unsat
    answers become Proved/Disproved, anything else declines. A conjunction
    that SMT-LIB cannot write (a variable named by a reserved symbol) is
    declined without running the solver.
    """
    verdicts = {SolveStatus.SAT: Verdict.PROVED, SolveStatus.UNSAT: Verdict.DISPROVED}

    def resolve(c: ConstraintConj) -> Verdict:
        try:
            query = emit_lia_query(c)
        except ValueError:
            return Verdict.UNKNOWN
        return verdicts.get(_run(query, cfg).status, Verdict.UNKNOWN)

    return resolve
