"""Bundled clause-set examples, loadable by short name."""

from importlib import resources

from ..syntax import Program, parse_program

NAMES = (
    "sum_upto",
    "sum_square",
    "sum_square_p4",
    "ackermann",
    "ackermann_transf",
    "fib_monotonicity",
    "fib_injectivity",
    "fib_fundep",
    "hl",
    "hl1",
    "loop_unswitching",
    "array_loop",
    "loop_pipelining",
)


def text(name: str) -> str:
    if name not in NAMES:
        raise KeyError(f"unknown corpus entry {name!r}; have {', '.join(NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.chc").read_text(encoding="utf-8-sig")


def load(name: str) -> Program:
    return parse_program(text(name))
