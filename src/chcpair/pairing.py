"""The predicate pairing strategy and its iterated driver.

One pairing run takes a goal false <- c, q(X), r(Y) plus two predicate-
disjoint programs and eliminates every mixed Q/R body by introducing new
predicates for pairs of atoms sharing a maximal set of entailed argument
equalities, then folding. The driver iterates runs over goals whose bodies
mix several predicate cones, duplicating a cone when a goal pairs two
atoms of the same predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import lia
from .errors import (
    CapExceeded,
    InputShapeError,
    NoMixedPair,
    OverlapError,
    PartitionOverlap,
)
from .kernel import (
    SequenceReport,
    TraceStep,
    TransformationState,
    check_a_classifier,
    classify_sequence,
)
from .syntax import (
    Atom,
    Clause,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Program,
    Rel,
    Var,
    predicate_partition,
    print_atom,
    reachable_preds,
)


@dataclass(frozen=True)
class PairingConfig:
    max_defs: int = 64
    iterate: bool = False
    a_classifier: str = "lia"

    def __post_init__(self):
        if self.max_defs < 1:
            raise ValueError("max_defs must be positive")
        check_a_classifier(self.a_classifier)


@dataclass(frozen=True)
class PairChoice:
    """One inner-loop pair selection, for the PAIR trace lines."""

    clause_id: int
    clause: Clause
    pos_a: int
    pos_b: int
    atom_a: Atom
    atom_b: Atom
    eq: tuple[tuple[Var, Var], ...]
    trace_index: int

    def line(self) -> str:
        return (
            f"PAIR clause={self.clause_id} "
            f"chosen=({print_atom(self.atom_a)},{print_atom(self.atom_b)}) eq={len(self.eq)}"
        )


@dataclass
class PairingResult:
    transf: Program
    defs: Program
    state: TransformationState
    report: SequenceReport
    steps: list[TraceStep]
    pair_log: list[PairChoice] = field(default_factory=list)
    overlaps: list[PartitionOverlap] = field(default_factory=list)

    def all_steps(self) -> list[TraceStep]:
        return self.steps

    def trace_text(self) -> str:
        """Kernel trace interleaved with the strategy's PAIR lines."""
        lines = []
        by_index: dict[int, list[PairChoice]] = {}
        for pc in self.pair_log:
            by_index.setdefault(pc.trace_index, []).append(pc)
        steps = self.all_steps()
        for i, step in enumerate(steps):
            for pc in by_index.get(i, ()):
                lines.append(pc.line())
            lines.append(step.line(i + 1))
        for pc in by_index.get(len(steps), ()):
            lines.append(pc.line())
        return "\n".join(lines) + ("\n" if lines else "")


def select_pair(
    e: Clause,
    q_preds: set[str],
    r_preds: set[str],
    reduced: Optional[lia._Reduced] = None,
) -> tuple[int, int, tuple[tuple[Var, Var], ...]]:
    """Pick the (Q-atom, R-atom) body pair with the most entailed equalities.

    Ties go to the leftmost Q-atom, then the leftmost R-atom. `reduced` is
    the reduction of e's constraint when the caller has it (`lia.eq_set`).
    """
    q_pos = [i for i, a in enumerate(e.body) if a.pred in q_preds]
    r_pos = [i for i, a in enumerate(e.body) if a.pred in r_preds]
    if not q_pos or not r_pos:
        raise NoMixedPair(f"clause {e.cid} has no Q/R atom pair")
    best = None
    for i in q_pos:
        for j in r_pos:
            eqs = lia.eq_set(e.constraint, e.body[i], e.body[j], reduced=reduced)
            if best is None or len(eqs) > len(best[2]):
                best = (i, j, eqs)
    return best


def find_matching_def(
    defs: Iterable[Clause],
    a: Atom,
    b: Atom,
    d: ConstraintConj,
    reduced: Optional[lia._Reduced] = None,
) -> Optional[tuple[int, dict[Var, Var]]]:
    """First definition (newest first) whose body folds the pair (a, b).

    Matching builds the substitution from the definition's body onto (a, b)
    and requires d to entail the instantiated definition constraint; the
    full folding side conditions are re-checked by the kernel at apply time.
    `reduced` is the reduction of d when the caller has it
    (`lia.entails_atom`).
    """
    for defc in reversed(list(defs)):
        if len(defc.body) != 2:
            continue
        da, db = defc.body
        if da.pred != a.pred or db.pred != b.pred:
            continue
        theta: dict[Var, Var] = {}
        ok = True
        for dv, tv in list(zip(da.args, a.args)) + list(zip(db.args, b.args)):
            if theta.setdefault(dv, tv) != tv:
                ok = False
                break
        if not ok:
            continue
        for atom in defc.constraint.subst(theta):
            if not isinstance(atom, LinAtom):
                ok = False
                break
            if lia.entails_atom(d, atom, reduced=reduced) is not lia.Verdict.PROVED:
                ok = False
                break
        if ok:
            return defc.cid, theta
    return None


def _fresh_pred(state: TransformationState, base: str = "new") -> str:
    k = len(state.defs) + 1
    name = f"{base}{k}"
    while name in state.seen_preds:
        k += 1
        name = f"{base}{k}"
    return name


def _pair_def_clause(a: Atom, b: Atom, eqs, name: str) -> Clause:
    args: list[Var] = []
    for v in a.args + b.args:
        if v not in args:
            args.append(v)
    e_atoms = tuple(
        LinAtom(LinExpr.of(x), Rel.EQ, LinExpr.of(y)) for x, y in eqs if x != y
    )
    return Clause(0, Atom(name, tuple(args)), ConstraintConj(e_atoms), (a, b))


def predicate_pairing(
    c_init: Clause,
    q_prog: Program,
    r_prog: Program,
    cfg: PairingConfig = PairingConfig(),
    reserved_preds: Iterable[str] = (),
) -> PairingResult:
    """Run the pairing strategy on one goal over two disjoint programs.

    Each round unfolds a clause on its Q-atom and then on its R-atom, and
    decides each unfolded clause once, on a reduction grown from its
    parent's; an unsatisfiable one is deleted (rule R4). A clause that
    still mixes Q and R atoms is decided by `lia.satisfiable_generic`,
    which leaves its generic witnesses in the cache of `lia.eq_set`, and
    its reduction then serves pair selection, definition matching and the
    fold's entailment checks, until a fold changes its constraint.
    """
    q_preds = set(q_prog.preds())
    r_preds = set(r_prog.preds())
    shared = q_preds & r_preds
    if shared:
        raise InputShapeError(f"input programs share predicate {sorted(shared)[0]!r}")
    if q_prog.goals() or r_prog.goals():
        raise InputShapeError("input programs must be definite")
    qa = [i for i, a in enumerate(c_init.body) if a.pred in q_preds]
    ra = [i for i, a in enumerate(c_init.body) if a.pred in r_preds]
    if len(qa) != 1 or len(ra) != 1:
        raise InputShapeError(
            "the initial clause must contain exactly one Q-atom and one R-atom"
        )

    # assemble P_0 with fresh sequential ids: Q, R, then the goal
    renum: list[Clause] = []
    nid = 1
    for c in tuple(q_prog) + tuple(r_prog) + (c_init,):
        renum.append(Clause(nid, c.head, c.constraint, c.body))
        nid += 1
    state = TransformationState(Program(renum), a_classifier=cfg.a_classifier)
    state.seen_preds |= set(reserved_preds)
    in_cls: list[Clause] = [renum[-1]]
    pair_log: list[PairChoice] = []
    transf_ids: list[int] = [c.cid for c in renum[:-1]]

    def mixed(c: Clause) -> bool:
        return any(a.pred in q_preds for a in c.body) and any(
            a.pred in r_preds for a in c.body
        )

    while in_cls:
        clause = in_cls.pop(0)
        pos_q = next(i for i, a in enumerate(clause.body) if a.pred in q_preds)
        # an unfolded constraint extends its parent's (see apply_unfold), so
        # each grandchild is decided from its Q-child's reduction, grown from
        # the clause's own
        reduced = lia.reduction(clause.constraint)
        unfolded: list[tuple[Clause, lia._Reduced]] = []
        for c in state.apply_unfold(clause.cid, pos_q):
            c_reduced = lia.reduction(c.constraint, base=reduced)
            pos_r = next(i for i, a in enumerate(c.body) if a.pred in r_preds)
            unfolded.extend((g, c_reduced) for g in state.apply_unfold(c.cid, pos_r))
        # silently remove clauses with unsatisfiable constraints (rule R4);
        # the run that decides a clause that goes on to pair selection caches
        # the witnesses of its eq_set
        kept: list[tuple[Clause, lia._Reduced]] = []
        for c, c_reduced in unfolded:
            r = lia.reduction(c.constraint, base=c_reduced)
            if mixed(c):
                verdict = lia.satisfiable_generic(c.constraint, r)
            else:
                verdict = lia.is_satisfiable(c.constraint, reduced=r)
            if verdict is lia.Verdict.DISPROVED:
                state.apply_replace([c.cid], [])
            else:
                kept.append((c, r))
        # definition & folding: fold each clause until it no longer mixes Q/R;
        # its reduction serves every query on its constraint until a fold
        # changes the constraint
        for e, r in kept:
            while mixed(e):
                pos_a, pos_b, eqs = select_pair(e, q_preds, r_preds, r)
                a, b = e.body[pos_a], e.body[pos_b]
                pair_log.append(
                    PairChoice(
                        e.cid, e, pos_a, pos_b, a, b, eqs, trace_index=len(state.trace)
                    )
                )
                hit = find_matching_def(state.defs, a, b, e.constraint, r)
                if hit is not None:
                    def_id, theta = hit
                else:
                    if len(state.defs) >= cfg.max_defs:
                        raise CapExceeded(f"definition cap {cfg.max_defs} reached")
                    intro = state.apply_definition(
                        _pair_def_clause(a, b, eqs, _fresh_pred(state))
                    )
                    def_id, theta = intro.cid, {v: v for v in intro.vars()}
                    in_cls.append(intro)
                folded = state.apply_fold(e.cid, [pos_a, pos_b], def_id, theta, r)
                if folded.constraint != e.constraint:
                    r = None
                e = folded
            transf_ids.append(e.cid)

    current_ids = {c.cid for c in state.clauses}
    assert current_ids == set(transf_ids), "strategy state out of sync"
    transf = state.current
    # output contract: no mixed Q/R bodies remain
    for c in transf:
        assert not mixed(c), f"clause {c.cid} still mixes partitions"
    return PairingResult(
        transf=transf,
        defs=state.defs_program,
        state=state,
        report=classify_sequence(state.trace),
        steps=list(state.trace),
        pair_log=pair_log,
    )


# ---------------------------------------------------------------------------
# Iterated driver


def duplicate_cone(program: Program, pred: str, taken: Iterable[str]) -> tuple[list[Clause], dict[str, str]]:
    """Copy the clause cone of pred with renamed predicates."""
    cone = reachable_preds(program, pred)
    taken_set = set(taken) | set(program.preds())
    mapping: dict[str, str] = {}
    for p in sorted(cone):
        k = 2
        name = f"{p}_{k}"
        while name in taken_set:
            k += 1
            name = f"{p}_{k}"
        taken_set.add(name)
        mapping[p] = name
    copies = []
    for c in program:
        if c.head is not None and c.head.pred in cone:
            copies.append(
                Clause(
                    0,
                    Atom(mapping[c.head.pred], c.head.args),
                    c.constraint,
                    tuple(Atom(mapping.get(a.pred, a.pred), a.args) for a in c.body),
                )
            )
    return copies, mapping


def _rank_goal_pairs(goal: Clause) -> list[tuple[int, int]]:
    """Atom index pairs of a goal body, by descending |Eq| then position."""
    n = len(goal.body)
    scored = []
    for i in range(n):
        for j in range(i + 1, n):
            eqs = lia.eq_set(goal.constraint, goal.body[i], goal.body[j])
            scored.append((-len(eqs), i, j))
    scored.sort()
    return [(i, j) for _, i, j in scored]


def iterate_pairing(
    p: Program,
    goals: Sequence[Clause],
    cfg: PairingConfig,
) -> PairingResult:
    """Run one pairing round, or with cfg.iterate, rounds until no goal
    mixes two disjoint cones.

    Two atoms of the same predicate are paired by duplicating that
    predicate's cone under renamed predicates. A chosen pair whose cones
    overlap (for distinct predicates) is reported as a PartitionOverlap
    and its goal left untransformed.
    """
    def renumber(cs: Iterable[Clause]) -> list[Clause]:
        return [Clause(i + 1, c.head, c.constraint, c.body) for i, c in enumerate(cs)]

    extra = [g for g in goals if g not in p.clauses]
    if extra:
        Program(renumber(extra), p.signatures)  # they must agree with p
    definite = [c for c in p if not c.is_goal]
    work_goals = [c for c in p if c.is_goal] + extra
    all_steps: list[TraceStep] = []
    all_pairs: list[PairChoice] = []
    overlaps: list[PartitionOverlap] = []
    all_defs: list[Clause] = []
    last_state: Optional[TransformationState] = None
    skipped: set[int] = set()

    while True:
        clauses = renumber(definite + work_goals)
        definite = [c for c in clauses if not c.is_goal]
        work_goals = [c for c in clauses if c.is_goal]
        target = None
        for gi, g in enumerate(work_goals):
            if gi in skipped or len(g.body) < 2:
                continue
            target = (gi, g)
            break
        if target is None:
            break
        gi, goal = target
        dprog = Program(definite)
        for i, j in _rank_goal_pairs(goal):
            pa, pb = goal.body[i].pred, goal.body[j].pred
            if pa == pb:
                copies, mapping = duplicate_cone(dprog, pb, [])
                definite2 = definite + copies
                goal2 = Clause(
                    goal.cid,
                    None,
                    goal.constraint,
                    tuple(
                        Atom(mapping[a.pred], a.args) if k == j else a
                        for k, a in enumerate(goal.body)
                    ),
                )
                q_prog, r_prog = predicate_partition(
                    Program(renumber(definite2)), pa, mapping[pb]
                )
            else:
                try:
                    q_prog, r_prog = predicate_partition(dprog, pa, pb)
                except OverlapError as ov:
                    overlaps.append(PartitionOverlap(ov.pred, goal.cid))
                    continue
                definite2 = definite
                goal2 = goal
            qr_preds = q_prog.preds() | r_prog.preds()
            rest = [c for c in definite2 if c.head.pred not in qr_preds]
            reserved = {a.pred for c in definite2 + work_goals for a in c.body} | {
                c.head.pred for c in definite2 + all_defs
            }
            res = predicate_pairing(goal2, q_prog, r_prog, cfg, reserved_preds=reserved)
            base = len(all_steps)
            all_steps.extend(res.steps)
            for pc in res.pair_log:
                all_pairs.append(
                    PairChoice(
                        pc.clause_id, pc.clause, pc.pos_a, pc.pos_b,
                        pc.atom_a, pc.atom_b, pc.eq, pc.trace_index + base,
                    )
                )
            all_defs.extend(res.defs)
            last_state = res.state
            definite = rest + [c for c in res.transf if not c.is_goal]
            work_goals = (
                work_goals[:gi]
                + [c for c in res.transf if c.is_goal]
                + work_goals[gi + 1 :]
            )
            skipped = set()
            break
        else:  # no pair of this goal could be transformed
            skipped.add(gi)
            continue
        if not cfg.iterate:
            break

    final = Program(renumber(definite + work_goals))
    state = last_state if last_state is not None else TransformationState(final)
    return PairingResult(
        transf=final,
        defs=Program(renumber(all_defs)),
        state=state,
        report=classify_sequence(all_steps),
        steps=all_steps,
        pair_log=all_pairs,
        overlaps=overlaps,
    )
