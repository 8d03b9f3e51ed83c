"""The four transformation rules as checked transitions over a state.

A TransformationState owns the current clause set P_i, keyed by clause
id, the accumulated definition set Defs_i and a trace of every rule
application; P_0 is any iterable of clauses. Each rule method checks its
side conditions and builds its output clauses; one method, `_step`, then
changes the state for every rule: it removes the rule's input clauses,
adds its outputs in order and appends the rule's trace step. A
definition's constraint (rule R1, condition (ii)) must be a conjunction
of linear atoms. Clause ids are minted monotonically and never recycled,
so trace lines stay stable references. `current` lists P_i in the order
its clauses were made (P_0's first, in P_0's order); a strategy that
wants another order keeps its own list of ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import lia
from .errors import (
    ArityClash,
    BadPosition,
    ConstraintClassViolation,
    EntailmentFailure,
    EquivalenceNotProved,
    FreshnessViolation,
    HeadVarViolation,
    MatchFailure,
    NonP0Predicate,
    NoSuchClause,
    NotADefinition,
    ShapeMismatch,
    VarConditionViolation,
)
from .lia import QuantDisj, Verdict
from .syntax import Atom, Clause, ConstraintConj, LinAtom, Program, Var, fresh_renaming, infer_signatures


class RuleKind(enum.Enum):
    DEFINITION = "DEFINITION"
    UNFOLDING = "UNFOLDING"
    FOLDING = "FOLDING"
    CONSTRAINT_REPLACEMENT = "CONSTRAINT_REPLACEMENT"


# per rule: the field its trace line has besides in, out and flags, which
# holds a step's `detail`; the flag that holds its `flag`; and the fewest and
# most inputs and outputs it has (None: no most)
_TRACE_SHAPES = {
    RuleKind.DEFINITION: (None, None, (0, 0), (1, 1)),
    RuleKind.UNFOLDING: ("pos", "self_unfolding", (1, 1), (0, None)),
    RuleKind.FOLDING: ("def", "reversible_folding", (1, 1), (1, 1)),
    RuleKind.CONSTRAINT_REPLACEMENT: (None, None, (1, None), (0, None)),
}


@dataclass(frozen=True)
class TraceStep:
    """One rule application. `detail` is an unfolding's body position or a
    folding's definition id, and `flag` says whether an unfolding is a
    self-unfolding or a folding is reversible; `_TRACE_SHAPES` says which
    rules have them (the others leave them None), and `line` reads it."""

    rule: RuleKind
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    detail: Optional[int] = None
    flag: Optional[bool] = None

    def line(self, n: int) -> str:
        field, flag, _, _ = _TRACE_SHAPES[self.rule]
        extra = f" {field}={self.detail}" if field else ""
        flags = f"{flag}:{int(self.flag)}" if flag else ""
        ins = ",".join(str(i) for i in self.inputs)
        outs = ",".join(str(i) for i in self.outputs)
        return f"STEP {n} {self.rule.value} in={ins} out={outs}{extra} flags={flags}"


@dataclass(frozen=True)
class SequenceReport:
    """Whether a sequence has no self-unfolding and only reversible
    foldings, and the ids of the definitions it never unfolds, in order."""

    no_self_unfolding: bool
    all_foldings_reversible: bool
    defs_not_unfolded: tuple[int, ...]


class TransformationState:
    """P_i, Defs_i and the application trace of one transformation sequence.

    P_0 is any iterable of clauses, a Program among them, with distinct ids
    and one arity and sorts per predicate (ArityClash or SortMismatch
    otherwise); its predicates are those that its clauses name.

    The state also keeps what unfolding has renamed (see `apply_unfold`):
    each matching clause's renaming skeleton, and each renamed copy of a
    clause's constraint and body. Both are keyed by clause id and go with
    the state.
    """

    def __init__(self, p0: Iterable[Clause]):
        self.clauses: dict[int, Clause] = {}
        for c in p0:
            if c.cid in self.clauses:
                raise ArityClash(f"duplicate clause id {c.cid}")
            self.clauses[c.cid] = c
        # unfolding matches a head to a body atom argument by argument
        self.p0_preds: set[str] = set(infer_signatures(self.clauses.values()))
        self.defs: list[Clause] = []
        self.trace: list[TraceStep] = []
        self.seen_preds: set[str] = set(self.p0_preds)
        self._next_cid = max(self.clauses, default=0) + 1
        # clause id -> (its non-head variables, the names of all its variables)
        self._skeletons: dict[int, tuple[tuple[Var, ...], frozenset[str]]] = {}
        # (clause id, target atom's args, renaming items) -> the clause's
        # renamed (constraint, body)
        self._renamed: dict[tuple, tuple[ConstraintConj, tuple[Atom, ...]]] = {}

    # -- bookkeeping --

    def mint_id(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    @property
    def current(self) -> Program:
        """P_i, its clauses in the order they were made."""
        return Program(self.clauses.values())

    def clause(self, cid: int) -> Clause:
        try:
            return self.clauses[cid]
        except KeyError:
            raise NoSuchClause(f"clause {cid} is not in the current program") from None

    def def_clause(self, cid: int) -> Clause:
        for c in self.defs:
            if c.cid == cid:
                return c
        raise NotADefinition(f"clause {cid} is not a definition")

    def _step(
        self,
        rule: RuleKind,
        inputs: Sequence[int],
        outputs: Sequence[Clause],
        detail: Optional[int] = None,
        flag: Optional[bool] = None,
    ) -> None:
        """Apply one rule to P_i: remove its input clauses, add its outputs
        in order and append its trace step, with `detail` and `flag` as in
        `TraceStep`."""
        for cid in inputs:
            del self.clauses[cid]
        self.clauses.update((c.cid, c) for c in outputs)
        outs = tuple(c.cid for c in outputs)
        self.trace.append(TraceStep(rule, tuple(inputs), outs, detail, flag))

    # -- rule R1: definition introduction --

    def apply_definition(self, d: Clause) -> Clause:
        if d.head is None:
            raise HeadVarViolation("a definition must have a head atom")
        if d.head.pred in self.seen_preds:
            raise FreshnessViolation(
                f"predicate {d.head.pred!r} already occurs in the sequence"
            )
        if not all(isinstance(a, LinAtom) for a in d.constraint):
            raise ConstraintClassViolation("definition constraint is outside the 'lia' class")
        if not d.body:
            raise NonP0Predicate("a definition body must be a non-empty conjunction")
        for a in d.body:
            if a.pred not in self.p0_preds:
                raise NonP0Predicate(
                    f"body predicate {a.pred!r} does not occur in the initial program"
                )
        if len(set(d.head.args)) != len(d.head.args):
            raise HeadVarViolation("head variables of a definition must be distinct")
        body_vars = set(d.constraint.vars()) | {v for a in d.body for v in a.args}
        for v in d.head.args:
            if v not in body_vars:
                raise HeadVarViolation(
                    f"head variable {v.name} does not occur free in the body"
                )
        new = Clause(self.mint_id(), d.head, d.constraint, d.body)
        self._step(RuleKind.DEFINITION, (), [new])
        self.defs.append(new)
        self.seen_preds.add(new.head.pred)
        return new

    # -- rule R2: unfolding --

    def apply_unfold(self, cid: int, atom_index: int) -> list[Clause]:
        """Unfold body atom `atom_index` of clause cid against every clause
        whose head has its predicate, taken in the order of `current`;
        returns the new clauses in that order.

        Each new constraint is c's constraint followed by the matching
        clause's, renamed: its first len(c.constraint) atoms are c's own
        atom objects. Callers rely on this prefix to decide a new clause by
        extending the reduction of c's constraint (`lia.reduction`).

        A matching clause's variables outside its head that clash with c's
        names are renamed apart, and its head is matched to the target
        atom's arguments. The renamed constraint and body depend only on
        the matching clause, the target's arguments and that renaming, so
        the state renames each such triple once: a later unfolding with the
        same triple shares the renamed atom objects, with their memoised
        hashes, rows and variables. The new constraint's variables are
        merged from its two parts' (`ConstraintConj.extended`).
        """
        c = self.clause(cid)
        if not (0 <= atom_index < len(c.body)):
            raise BadPosition(f"clause {cid} has no body atom {atom_index}")
        target = c.body[atom_index]
        matching = [cl for cl in self.clauses.values() if cl.head is not None and cl.head.pred == target.pred]
        c_var_names = {v.name for v in c.vars()}
        new_clauses: list[Clause] = []
        for dj in matching:
            skeleton = self._skeletons.get(dj.cid)
            if skeleton is None:
                head_vars = set(dj.head.args)
                dj_vars = dj.vars()
                skeleton = self._skeletons[dj.cid] = (
                    tuple(v for v in dj_vars if v not in head_vars),
                    frozenset(v.name for v in dj_vars),
                )
            local_vars, dj_names = skeleton
            ren = fresh_renaming(local_vars, c_var_names, c_var_names | dj_names)
            key = (dj.cid, target.args, tuple(ren.items()))
            renamed = self._renamed.get(key)
            if renamed is None:
                # the renaming and the head match in one substitution: ren
                # maps no head variable, and only to names outside c and dj
                sigma = dict(ren)
                sigma.update(zip(dj.head.args, target.args))
                renamed = self._renamed[key] = (
                    dj.constraint.subst(sigma),
                    tuple(a.subst(sigma) for a in dj.body),
                )
            part, body = renamed
            new_clauses.append(
                Clause(
                    self.mint_id(),
                    c.head,
                    c.constraint.extended(part),
                    c.body[:atom_index] + body + c.body[atom_index + 1 :],
                )
            )
        self_unfolding = c.head is not None and c.head.pred == target.pred
        self._step(RuleKind.UNFOLDING, (cid,), new_clauses, atom_index, self_unfolding)
        return new_clauses

    # -- rule R3: folding --

    def check_fold(
        self,
        clause: Clause,
        body_positions: Sequence[int],
        d: Clause,
        theta: Mapping[Var, Var],
        reduced: Optional[lia.Reduction] = None,
    ) -> ConstraintConj:
        """Validate the folding side conditions; returns the residual constraint e.

        e starts as the clause constraint; conjuncts mentioning images of the
        definition's existential variables are dropped when still entailed by
        the remainder together with the instantiated definition constraint.
        Both entailments, that and condition (ii), are `lia.entails_atom`'s:
        an atom of the antecedent is entailed, an array atom it does not
        hold is not shown entailed, and a linear atom is decided by `lia`.
        `reduced`, the reduction of the clause constraint's linear atoms
        (`lia.reduction`), serves the entailments of condition (ii).
        """
        positions = list(body_positions)
        selected = set(positions)
        if len(selected) != len(positions) or any(
            not 0 <= i < len(clause.body) for i in positions
        ):
            raise BadPosition(f"invalid body positions {positions}")
        if len(positions) != len(d.body):
            raise MatchFailure(
                f"definition body has {len(d.body)} atoms, {len(positions)} selected"
            )
        q = [clause.body[i] for i in positions]
        b_inst = [a.subst(theta) for a in d.body]
        if q != b_inst:
            raise MatchFailure(
                f"selected atoms {q} do not match the instantiated definition body {b_inst}"
            )
        d_inst = d.constraint.subst(theta)

        # condition (ii) with e := c: c must entail every conjunct of d(theta)
        for atom in d_inst:
            v = lia.entails_atom(clause.constraint, atom, reduced=reduced)
            if v is not Verdict.PROVED:
                raise EntailmentFailure(
                    f"clause constraint does not entail {atom!r} ({v.value})",
                    atom=atom,
                    verdict=v,
                )
        # existential variables of the definition and their images
        dvars = list(dict.fromkeys([*d.constraint.vars(), *(v for a in d.body for v in a.args)]))
        head_vars = set(d.head.args)
        exvars = [v for v in dvars if v not in head_vars]
        images = {theta.get(v, v) for v in exvars}
        # condition (iii.2): theta maps existential vars injectively, apart
        # from every other variable of (d, B)
        for x in exvars:
            xi = theta.get(x, x)
            for y in dvars:
                if y != x and theta.get(y, y) == xi:
                    raise VarConditionViolation(
                        f"existential variable image {xi.name} collides with {y.name}"
                    )
        # residual constraint: drop conjuncts that mention existential images
        # while they stay entailed by the rest plus d(theta); without images
        # it is the clause constraint itself
        e = clause.constraint
        if images:
            e_atoms = list(e.atoms)
            changed = True
            while changed:
                changed = False
                for i, atom in enumerate(e_atoms):
                    if not images & set(atom.vars()):
                        continue
                    rest = ConstraintConj(
                        tuple(e_atoms[:i] + e_atoms[i + 1 :]) + d_inst.atoms
                    )
                    if lia.entails_atom(rest, atom) is Verdict.PROVED:
                        e_atoms.pop(i)
                        changed = True
                        break
            e = ConstraintConj(tuple(e_atoms))
        # condition (iii.1): images must not occur in head, e, or unfolded rest
        rest_atoms = [a for i, a in enumerate(clause.body) if i not in selected]
        outside: set[Var] = set()
        if clause.head is not None:
            outside |= set(clause.head.args)
        outside |= set(e.vars())
        for a in rest_atoms:
            outside |= set(a.args)
        bad = images & outside
        if bad:
            raise VarConditionViolation(
                f"existential image {sorted(v.name for v in bad)} occurs outside the folded atoms"
            )
        return e

    def apply_fold(
        self,
        cid: int,
        body_positions: Sequence[int],
        def_id: int,
        theta: Mapping[Var, Var],
        reduced: Optional[lia.Reduction] = None,
    ) -> Clause:
        """Fold the atoms at body_positions of clause cid with definition
        def_id under theta; `reduced` is as in `check_fold`."""
        d = self.def_clause(def_id)
        c = self.clause(cid)
        e = self.check_fold(c, body_positions, d, theta, reduced)
        folded_atom = d.head.subst(theta)
        first = min(body_positions)
        selected = set(body_positions)
        new_body = []
        for i, a in enumerate(c.body):
            if i == first:
                new_body.append(folded_atom)
            elif i in selected:
                continue
            else:
                new_body.append(a)
        reversible = def_id != cid and def_id in self.clauses
        new = Clause(self.mint_id(), c.head, e, tuple(new_body))
        self._step(RuleKind.FOLDING, (cid,), [new], def_id, reversible)
        return new

    # -- rule R4: constraint replacement --

    def apply_replace(
        self,
        group: Sequence[int],
        new_constraints: Sequence[ConstraintConj],
        reduced: Optional[lia.Reduction] = None,
    ) -> list[Clause]:
        """Replace the group's constraints by new_constraints, or delete the
        group when there are none. `reduced`, the reduction of the first
        clause's constraint (`lia.reduction`), serves a deletion's check."""
        if not group:
            raise ShapeMismatch("empty clause group")
        if len(set(group)) != len(group):
            raise ShapeMismatch(f"clause group {list(group)} repeats a clause")
        ref, *others = [self.clause(cid) for cid in group]
        ref_skel_vars = _skeleton_vars(ref)
        disjuncts: list[ConstraintConj] = [ref.constraint]
        # a one-clause group, as every deletion of rule R4 in the strategy,
        # renames nothing
        taken = {v.name for v in ref.vars()} if others else set()
        for cl in others:
            # map the skeleton onto the reference's and rename
            # constraint-local variables apart from it
            ren = _match_skeleton(cl, ref)
            local = [v for v in cl.constraint.vars() if v not in ren]
            ren.update(fresh_renaming(local, taken, taken))
            disjuncts.append(cl.constraint.subst(ren))
        if not new_constraints:
            # deletion: every constraint in the group must be unsatisfiable
            for cid, dj in zip(group, disjuncts):
                v = lia.is_satisfiable(dj, reduced=reduced if cid == group[0] else None)
                if v is not Verdict.DISPROVED:
                    raise EquivalenceNotProved(
                        f"clause {cid} constraint not shown unsatisfiable ({v.value})",
                        verdict=v,
                    )
        else:
            lhs_ex = tuple(
                v for d in disjuncts for v in d.vars() if v not in ref_skel_vars
            )
            rhs_ex = tuple(
                v
                for d in new_constraints
                for v in d.vars()
                if v not in ref_skel_vars
            )
            lhs = QuantDisj(tuple(dict.fromkeys(lhs_ex)), tuple(disjuncts))
            rhs = QuantDisj(tuple(dict.fromkeys(rhs_ex)), tuple(new_constraints))
            v = lia.equiv_quant_disj(lhs, rhs)
            if v is not Verdict.PROVED:
                raise EquivalenceNotProved(
                    f"constraint equivalence not proved ({v.value})", verdict=v
                )
        new_clauses = [
            Clause(self.mint_id(), ref.head, nc, ref.body) for nc in new_constraints
        ]
        self._step(RuleKind.CONSTRAINT_REPLACEMENT, group, new_clauses)
        return new_clauses


def _skeleton_vars(c: Clause) -> set[Var]:
    out: set[Var] = set()
    if c.head is not None:
        out |= set(c.head.args)
    for a in c.body:
        out |= set(a.args)
    return out


def _match_skeleton(c: Clause, ref: Clause) -> dict[Var, Var]:
    """Variable bijection making (H, G) of c syntactically equal to ref's."""
    if (c.head is None) != (ref.head is None) or len(c.body) != len(ref.body):
        raise ShapeMismatch("clause shapes differ")
    pairs: list[tuple[Var, Var]] = []
    if c.head is not None:
        if c.head.pred != ref.head.pred:
            raise ShapeMismatch("head predicates differ")
        pairs.extend(zip(c.head.args, ref.head.args))
    for a, b in zip(c.body, ref.body):
        if a.pred != b.pred:
            raise ShapeMismatch("body predicates differ")
        pairs.extend(zip(a.args, b.args))
    fwd: dict[Var, Var] = {}
    bwd: dict[Var, Var] = {}
    for x, y in pairs:
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            raise ShapeMismatch("clause skeletons are not renamings of each other")
    return fwd


# ---------------------------------------------------------------------------
# Trace validators


def classify_sequence(trace: Sequence[TraceStep]) -> SequenceReport:
    """Report the syntactic side conditions for completeness over a trace,
    in one walk; a definition counts as unfolded if any step unfolds it."""
    no_self = all_rev = True
    def_ids: list[int] = []
    unfolded: set[int] = set()
    for s in trace:
        if s.rule is RuleKind.UNFOLDING:
            no_self &= not s.flag
            unfolded.add(s.inputs[0])
        elif s.rule is RuleKind.FOLDING:
            all_rev &= bool(s.flag)
        elif s.rule is RuleKind.DEFINITION:
            def_ids.append(s.outputs[0])
    return SequenceReport(no_self, all_rev, tuple(d for d in def_ids if d not in unfolded))


def _trace_number(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a number")
    return int(text)


def _trace_ids(text: str) -> tuple[int, ...]:
    return tuple(_trace_number(x) for x in text.split(",")) if text else ()


def _parse_step(line: str) -> TraceStep:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "STEP":
        raise ValueError("expected STEP <number> <rule> <field>=<value>...")
    _trace_number(parts[1])
    rule = RuleKind(parts[2])
    extra, flag, (in_lo, in_hi), (out_lo, out_hi) = _TRACE_SHAPES[rule]
    fields: dict[str, str] = {}
    for tok in parts[3:]:
        k, eq, v = tok.partition("=")
        if not eq or k in fields:
            raise ValueError(f"bad or repeated field {tok!r}")
        fields[k] = v
    keys = {"in", "out", "flags"} | ({extra} if extra else set())
    if fields.keys() != keys:
        raise ValueError(f"{rule.value} takes the fields {', '.join(sorted(keys))}")
    ins, outs = _trace_ids(fields["in"]), _trace_ids(fields["out"])
    for what, ids, lo, hi in (("inputs", ins, in_lo, in_hi), ("outputs", outs, out_lo, out_hi)):
        if len(ids) < lo or (hi is not None and len(ids) > hi):
            raise ValueError(f"{rule.value} cannot have {len(ids)} {what}")
    flagged = None
    if flag is not None:
        name, _, bit = fields["flags"].partition(":")
        if name != flag or bit not in ("0", "1"):
            raise ValueError(f"{rule.value} takes flags={flag}:0 or flags={flag}:1")
        flagged = bit == "1"
    elif fields["flags"]:
        raise ValueError(f"{rule.value} takes no flags")
    return TraceStep(rule, ins, outs, _trace_number(fields[extra]) if extra else None, flagged)


def parse_trace(text: str) -> list[TraceStep]:
    """Parse the line-oriented trace log back into steps.

    Raises ValueError, with the line number, on a STEP line that
    `TraceStep.line` cannot have written: a missing, unknown or repeated
    field, a value that is not a number, or a count of inputs or outputs
    that its rule cannot have.
    """
    steps = []
    for n, raw in enumerate(text.splitlines(), 1):
        raw = raw.strip()
        if not raw or raw.startswith("#") or raw.startswith("PAIR"):
            continue
        try:
            steps.append(_parse_step(raw))
        except ValueError as exc:
            raise ValueError(f"trace line {n}: {exc}: {raw!r}") from None
    return steps
