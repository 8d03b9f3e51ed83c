"""Symbolic interpretations: checking models, tightness, and transport.

A symbolic interpretation maps each predicate to an existentially
quantified disjunction of constraint conjunctions over canonical
parameters. Instantiation substitutes actual argument variables, so
renaming-equivariance holds by construction. The transport operations
rebuild interpretations across definition-introduction and unfolding
steps using their constructive characterizations; folding and constraint
replacement transport models unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import lia
from .errors import ModelError, TransportError
from .lia import QuantDisj, Verdict, qd_conjoin, qd_false, qd_of, qd_subst, qd_true
from .syntax import Atom, Clause, ConstraintConj, Program, Sort, Var, rename_apart


class SymbolicInterpretation:
    """Per-predicate formulas over canonical parameters; false maps to false.

    `instantiate` memoises its formulas by atom in `_instances`, which lives
    and dies with the interpretation; an interpretation never changes, so a
    memoised formula stays right.
    """

    def __init__(self, entries: Optional[Mapping[str, tuple[tuple[Var, ...], QuantDisj]]] = None):
        self._entries: dict[str, tuple[tuple[Var, ...], QuantDisj]] = {}
        self._instances: dict[Atom, QuantDisj] = {}
        for pred, (params, formula) in (entries or {}).items():
            self._check_entry(pred, params, formula)
            self._entries[pred] = (tuple(params), formula)

    @staticmethod
    def _check_entry(pred: str, params: Sequence[Var], formula: QuantDisj):
        if len(set(params)) != len(params):
            raise ModelError(f"{pred}: canonical parameters must be distinct")
        extra = set(formula.free_vars()) - set(params)
        if extra:
            raise ModelError(
                f"{pred}: formula has free variables outside the parameters: "
                f"{sorted(v.name for v in extra)}"
            )

    def preds(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def defines(self, pred: str) -> bool:
        return pred in self._entries

    def entry(self, pred: str) -> tuple[tuple[Var, ...], QuantDisj]:
        return self._entries[pred]

    def with_entry(self, pred: str, params: Sequence[Var], formula: QuantDisj) -> "SymbolicInterpretation":
        self._check_entry(pred, params, formula)
        new = dict(self._entries)
        new[pred] = (tuple(params), formula)
        return SymbolicInterpretation(new)

    def instantiate(self, atom: Atom) -> QuantDisj:
        """The formula for an atom, with parameters renamed to its arguments.

        Each distinct atom is instantiated once per interpretation: every
        clause and check that asks for it again, `check_model` and
        `check_tight` alike, gets the same formula, with its LinAtoms and
        their memoised hashes and rows.
        """
        out = self._instances.get(atom)
        if out is not None:
            return out
        if atom.pred not in self._entries:
            return qd_true()
        params, formula = self._entries[atom.pred]
        if len(params) != len(atom.args):
            raise ModelError(
                f"interpretation of {atom.pred!r} has arity {len(params)}, "
                f"atom has {len(atom.args)}"
            )
        out = self._instances[atom] = qd_subst(formula, dict(zip(params, atom.args)))
        return out


@dataclass(frozen=True)
class ModelCheckResult:
    overall: Verdict
    per_clause: tuple[tuple[int, Verdict], ...]
    defaulted_preds: tuple[str, ...] = ()

    def verdict_for(self, cid: int) -> Verdict:
        for c, v in self.per_clause:
            if c == cid:
                return v
        raise KeyError(cid)


def _clause_body_formula(c: Clause, sigma: SymbolicInterpretation) -> Optional[QuantDisj]:
    parts = [qd_of(c.constraint)]
    parts.extend(sigma.instantiate(a) for a in c.body)
    return qd_conjoin(parts)


def check_model(p: Program, sigma: SymbolicInterpretation) -> ModelCheckResult:
    """Clause-by-clause validity of the interpretation as a model of p.

    Predicates without an entry default to true and are reported.
    """
    defaulted = tuple(
        sorted({pr for pr in p.preds() if not sigma.defines(pr)})
    )
    per = []
    for c in p.clauses:
        body = _clause_body_formula(c, sigma)
        if body is None:
            per.append((c.cid, Verdict.UNKNOWN))
            continue
        head = qd_false() if c.head is None else sigma.instantiate(c.head)
        per.append((c.cid, lia.implies_quant_disj(body, head)))
    return ModelCheckResult(lia.combine(v for _, v in per), tuple(per), defaulted)


def check_tight(defs: Program, sigma: SymbolicInterpretation) -> Verdict:
    """Is each definition's head formula equivalent to its body formula?

    For A <- c, G the check is Sigma(A) <-> exists X. (c and Sigma(G)) with
    X the free body-formula variables outside the head atom's variables.
    (Quantifying relative to Fvars(Sigma(A)) instead would make the
    all-true interpretation tight on everything, contradicting the
    intended fixtures; head-atom variables are what the transport
    construction uses as well.)
    """
    verdicts = []
    for c in defs.clauses:
        if c.head is None:
            raise ModelError("tightness is defined on definition clauses, not goals")
        lhs = sigma.instantiate(c.head)
        rhs_open = _clause_body_formula(c, sigma)
        if rhs_open is None:
            verdicts.append(Verdict.UNKNOWN)
            continue
        head_vars = set(c.head.args)
        exists = tuple(v for v in rhs_open.free_vars() if v not in head_vars)
        rhs = QuantDisj(rhs_open.exists + exists, rhs_open.disjuncts, rhs_open.exact)
        verdicts.append(lia.equiv_quant_disj(lhs, rhs))
    return lia.combine(verdicts)


def transport_definition(sigma: SymbolicInterpretation, d: Clause) -> SymbolicInterpretation:
    """Extend a model across a definition introduction.

    The new predicate gets exists Y. (c and Sigma(G)) with Y the body
    variables outside the head parameters; existentials are projected away
    when the elimination is exact. The extension is re-checked as a model
    of {d} and tight on {d} before being returned.
    """
    if d.head is None:
        raise TransportError("definitions have head atoms")
    if sigma.defines(d.head.pred):
        raise TransportError(f"{d.head.pred!r} is already interpreted")
    body = _clause_body_formula(d, sigma)
    if body is None:
        raise TransportError("body formula exceeds the disjunct cap")
    params = d.head.args
    extra = tuple(v for v in body.free_vars() if v not in set(params))
    formula = body
    if extra or body.exists:
        formula = QuantDisj(body.exists + extra, body.disjuncts)
        projected, exact = lia._flatten_exists(formula)
        if exact:
            formula = QuantDisj((), tuple(projected))
    out = sigma.with_entry(d.head.pred, params, formula)
    single = Program([d])
    chk = check_model(single, out)
    if chk.overall is Verdict.DISPROVED:
        raise TransportError("transported definition interpretation is not a model")
    if check_tight(single, out) is Verdict.DISPROVED:
        raise TransportError("transported definition interpretation is not tight")
    return out


def transport_unfold_inverse(
    sigma_after: SymbolicInterpretation,
    pred: str,
    matching: Sequence[Clause],
    unfolded_head: Optional[str] = None,
) -> SymbolicInterpretation:
    """Rebuild a pre-unfolding model from a post-unfolding one.

    Redefines pred by the quantified disjunction of its matching clauses'
    body formulas under the after-model. Rejects self-unfolding steps
    (pass the unfolded clause's head predicate to enable the check). With
    no matching clauses the empty disjunction is taken to be false, a mild
    extension of the nonempty-disjunction formula class.
    """
    if unfolded_head is not None and unfolded_head == pred:
        raise TransportError("the inverse construction requires a non-self-unfolding")
    if not matching:
        params_guess: tuple[Var, ...] = ()
        if sigma_after.defines(pred):
            params_guess = sigma_after.entry(pred)[0]
        return sigma_after.with_entry(pred, params_guess, qd_false())
    params = matching[0].head.args
    disjuncts: list[ConstraintConj] = []
    exists: list[Var] = []
    taken = {v.name for v in params}
    for c in matching:
        if c.head is None or c.head.pred != pred:
            raise TransportError("matching clauses must define the unfolded predicate")
        cr = rename_apart(
            Clause(c.cid, c.head, c.constraint, c.body),
            [v for v in params if v not in c.head.args],
        )
        theta = dict(zip(cr.head.args, params))
        cr = cr.subst(theta)
        body = _clause_body_formula(cr, sigma_after)
        if body is None:
            raise TransportError("body formula exceeds the disjunct cap")
        body = lia.qd_rename_exists_fresh(body, taken)
        for v in body.free_vars():
            if v not in set(params) and v not in exists:
                exists.append(v)
                taken.add(v.name)
        exists.extend(v for v in body.exists if v not in exists)
        disjuncts.extend(body.disjuncts)
    formula = QuantDisj(tuple(exists), tuple(disjuncts))
    return sigma_after.with_entry(pred, params, formula)
