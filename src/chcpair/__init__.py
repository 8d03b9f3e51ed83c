"""Constrained Horn clause transformation by unfold/fold and predicate pairing.

``import chcpair`` loads this package alone. Each public name, and each
submodule such as ``chcpair.lia``, is resolved on its first access through
the package (PEP 562): that access imports the defining module and binds
all of that module's names listed in ``_MODULE_OF`` into the package, so
that later accesses are plain attribute lookups. A call or CLI command thus
pays only for the modules that it uses.

Binding happens once. A wrapper installed on a module attribute before
the name's first access through the package is what the package binds,
and it stays bound there after the module attribute is restored; access
the name through the package first to avoid that. The benchmark's tracer
(``bench_e2e/tracing.py``) never meets that case: ``bench_e2e/run.py``
always runs an operation untraced before it traces it.
"""

from importlib import import_module

# public name -> the submodule that defines it
_MODULE_OF = {
    **dict.fromkeys(
        (
            "ArrEqAtom",
            "Atom",
            "Clause",
            "ConstraintConj",
            "LinAtom",
            "LinExpr",
            "Program",
            "ReadAtom",
            "Rel",
            "Sort",
            "Var",
            "WriteAtom",
            "parse_program",
            "predicate_partition",
            "print_clause",
            "print_program",
            "rename_apart",
        ),
        "syntax",
    ),
    **dict.fromkeys(
        (
            "QuantDisj",
            "Verdict",
            "entails_equality",
            "eq_set",
            "equiv_quant_disj",
            "install_unknown_resolver",
            "is_satisfiable",
            "negate_linatom",
            "project",
        ),
        "lia",
    ),
    **dict.fromkeys(
        (
            "RuleKind",
            "SequenceReport",
            "TraceStep",
            "TransformationState",
            "classify_sequence",
        ),
        "kernel",
    ),
    **dict.fromkeys(
        (
            "PairingConfig",
            "PairingResult",
            "find_matching_def",
            "iterate_pairing",
            "predicate_pairing",
            "select_pair",
        ),
        "pairing",
    ),
    **dict.fromkeys(
        (
            "SymbolicInterpretation",
            "check_model",
            "check_tight",
            "transport_definition",
            "transport_unfold_inverse",
        ),
        "models",
    ),
    **dict.fromkeys(
        (
            "Found",
            "GroundAtom",
            "NotWithinBudget",
            "OracleBudget",
            "bounded_lm",
            "equisat_probe",
            "false_derivable",
        ),
        "oracle",
    ),
    **dict.fromkeys(("emit_lia_query", "emit_smtlib", "parse_model", "print_model"), "smtlib"),
    **dict.fromkeys(
        ("SolveResult", "SolveStatus", "SolverConfig", "external_solve", "make_unknown_resolver"),
        "solver",
    ),
}

# submodules reachable as attributes of the package without importing them
_SUBMODULES = frozenset(_MODULE_OF.values()) | {"boxes", "errors"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{module_name}")
    package = globals()
    for public, owner in _MODULE_OF.items():
        if owner == module_name:
            package[public] = getattr(module, public)
    return package[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
