"""Constrained Horn clause transformation by unfold/fold and predicate pairing."""

from .syntax import (
    ArrEqAtom,
    Atom,
    Clause,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Program,
    ReadAtom,
    Rel,
    Sort,
    Var,
    WriteAtom,
    parse_program,
    predicate_partition,
    print_clause,
    print_program,
    rename_apart,
)
from .lia import (
    QuantDisj,
    Verdict,
    entails_equality,
    eq_set,
    equiv_quant_disj,
    install_unknown_resolver,
    is_satisfiable,
    negate_linatom,
    project,
)
from .kernel import (
    RuleKind,
    SequenceReport,
    TraceStep,
    TransformationState,
    check_all_defs_unfolded,
    classify_sequence,
)
from .pairing import (
    PairingConfig,
    PairingResult,
    find_matching_def,
    iterate_pairing,
    predicate_pairing,
    select_pair,
)
from .models import (
    SymbolicInterpretation,
    check_model,
    check_tight,
    transport_definition,
    transport_unfold_inverse,
)
from .oracle import (
    Found,
    GroundAtom,
    NotWithinBudget,
    OracleBudget,
    bounded_lm,
    equisat_probe,
    false_derivable,
)
from .smtlib import emit_lia_query, emit_smtlib, parse_model, print_model
from .solver import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    external_solve,
    make_unknown_resolver,
)

__version__ = "0.1.0"
