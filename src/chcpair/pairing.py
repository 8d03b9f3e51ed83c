"""The predicate pairing strategy and its iterated driver.

One pairing run takes a goal false <- c, q(X), r(Y) plus two predicate-
disjoint programs and eliminates every mixed Q/R body by introducing new
predicates for pairs of atoms sharing a maximal set of entailed argument
equalities, then folding. The driver iterates runs over goals whose bodies
mix several predicate cones, duplicating a cone when a goal pairs two
atoms of the same predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Optional, Sequence

from . import lia
from .errors import CapExceeded, InputShapeError, NoMixedPair, OverlapError
from .kernel import TraceStep, TransformationState, entailed
from .syntax import (
    Atom,
    Clause,
    ConstraintConj,
    LinAtom,
    LinExpr,
    Program,
    Rel,
    Var,
    infer_signatures,
    predicate_partition,
    print_atom,
    reachable_preds,
    renumbered,
)


@dataclass(frozen=True)
class PairingConfig:
    """max_defs bounds the definitions of a whole run, over all its rounds."""

    max_defs: int = 64
    iterate: bool = False

    def __post_init__(self):
        if self.max_defs < 1:
            raise ValueError("max_defs must be positive")


@dataclass(frozen=True)
class PairChoice:
    """One inner-loop pair selection, for the PAIR trace lines."""

    clause: Clause
    atom_a: Atom
    atom_b: Atom
    eq: tuple[tuple[Var, Var], ...]
    trace_index: int

    def line(self) -> str:
        return (
            f"PAIR clause={self.clause.cid} "
            f"chosen=({print_atom(self.atom_a)},{print_atom(self.atom_b)}) eq={len(self.eq)}"
        )


@dataclass
class PairingResult:
    """The output program and definitions of a pairing run, with its trace.

    Each pair choice is logged at the index of the trace step that it leads
    to. `transf` lists its clauses in the strategy's order. Under
    `iterate_pairing`, `defs`, `steps` and `pair_log` cover every round.
    """

    transf: Program
    defs: Program
    steps: list[TraceStep]
    pair_log: list[PairChoice] = field(default_factory=list)
    overlaps: list[OverlapError] = field(default_factory=list)

    def all_steps(self) -> list[TraceStep]:
        """`steps`; kept only for the benchmark harness, which reads it."""
        return self.steps

    def trace_text(self) -> str:
        """Kernel trace interleaved with the strategy's PAIR lines."""
        lines = []
        by_index: dict[int, list[PairChoice]] = {}
        for pc in self.pair_log:
            by_index.setdefault(pc.trace_index, []).append(pc)
        for i, step in enumerate(self.steps):
            for pc in by_index.get(i, ()):
                lines.append(pc.line())
            lines.append(step.line(i + 1))
        return "\n".join(lines) + ("\n" if lines else "")


def _ranked_pairs(
    c: Clause, pairs: Iterable[tuple[int, int]], reduced: Optional[lia.Reduction]
) -> list[tuple[int, int, tuple[tuple[Var, Var], ...]]]:
    """The body position pairs (i, j) of c, each with the equalities that
    c's constraint entails between its atoms (`lia.eq_set`, on `reduced`),
    by descending |Eq|; equal ones keep the order of `pairs`."""
    scored = [
        (i, j, lia.eq_set(c.constraint, c.body[i], c.body[j], reduced=reduced))
        for i, j in pairs
    ]
    scored.sort(key=lambda s: -len(s[2]))
    return scored


def select_pair(
    e: Clause,
    q_preds: set[str],
    r_preds: set[str],
    reduced: Optional[lia.Reduction] = None,
) -> tuple[int, int, tuple[tuple[Var, Var], ...]]:
    """Pick the (Q-atom, R-atom) body pair with the most entailed equalities.

    Ties go to the leftmost Q-atom, then the leftmost R-atom. `reduced` is
    the reduction of e's constraint when the caller has it (`lia.eq_set`).
    """
    q_pos = [i for i, a in enumerate(e.body) if a.pred in q_preds]
    r_pos = [i for i, a in enumerate(e.body) if a.pred in r_preds]
    if not q_pos or not r_pos:
        raise NoMixedPair(f"clause {e.cid} has no Q/R atom pair")
    return _ranked_pairs(e, [(i, j) for i in q_pos for j in r_pos], reduced)[0]


def find_matching_def(
    defs: Iterable[Clause],
    a: Atom,
    b: Atom,
    d: ConstraintConj,
    reduced: Optional[lia.Reduction] = None,
) -> Optional[tuple[int, dict[Var, Var]]]:
    """First definition (newest first) whose body folds the pair (a, b).

    Matching builds the substitution from the definition's body onto (a, b)
    and requires d to entail each atom of the instantiated definition
    constraint, by the fold's own test (`kernel.entailed`); the full folding
    side conditions are re-checked by the kernel at apply time. `reduced`
    is the reduction of d when the caller has it.
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
        if ok and all(
            entailed(d, atom, reduced) is lia.Verdict.PROVED
            for atom in defc.constraint.subst(theta)
        ):
            return defc.cid, theta
    return None


def _fresh_pred(state: TransformationState) -> str:
    k = len(state.defs) + 1
    name = f"new{k}"
    while name in state.seen_preds:
        k += 1
        name = f"new{k}"
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
    q_prog: Iterable[Clause],
    r_prog: Iterable[Clause],
    cfg: PairingConfig = PairingConfig(),
    reserved_preds: Iterable[str] = (),
) -> PairingResult:
    """Run the pairing strategy on one goal over two disjoint programs, each
    any iterable of definite clauses (a Program among them); the predicates
    of Q and R are those that their clauses name.

    Each round unfolds a clause on its Q-atom and then on its R-atom, and
    decides each unfolded clause once (`lia.is_satisfiable`), on a
    reduction grown from its parent's; an unsatisfiable one is deleted
    (rule R4). The decision stays on the reduction with its points, which
    `lia.eq_set` reads as its witnesses, and the reduction of a kept clause
    then serves pair selection, definition matching and the fold's
    entailment checks. A fold keeps the clause's constraint object:
    a definition's head holds every variable of its two atoms, so the
    definition has no existential variable to project. The kernel rechecks
    a deletion from the decision memoised on the reduction.

    `transf` lists the clauses in the strategy's order: Q's, R's, then each
    clause of the goal's unfolding as its fold loop ends. It is the one
    Program that the run builds besides `defs`.
    """
    q_prog, r_prog = tuple(q_prog), tuple(r_prog)
    q_preds = {p for c in q_prog for p in c.preds()}
    r_preds = {p for c in r_prog for p in c.preds()}
    shared = q_preds & r_preds
    if shared:
        raise InputShapeError(f"input programs share predicate {sorted(shared)[0]!r}")
    if any(c.is_goal for c in q_prog + r_prog):
        raise InputShapeError("input programs must be definite")
    qa = [i for i, a in enumerate(c_init.body) if a.pred in q_preds]
    ra = [i for i, a in enumerate(c_init.body) if a.pred in r_preds]
    if len(qa) != 1 or len(ra) != 1:
        raise InputShapeError(
            "the initial clause must contain exactly one Q-atom and one R-atom"
        )

    # assemble P_0 with fresh sequential ids: Q, R, then the goal
    renum = renumbered(q_prog + r_prog + (c_init,))
    state = TransformationState(renum)
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
        unfolded: list[tuple[Clause, lia.Reduction]] = []
        for c in state.apply_unfold(clause.cid, pos_q):
            c_reduced = lia.reduction(c.constraint, base=reduced)
            pos_r = next(i for i, a in enumerate(c.body) if a.pred in r_preds)
            unfolded.extend((g, c_reduced) for g in state.apply_unfold(c.cid, pos_r))
        # silently remove clauses with unsatisfiable constraints (rule R4)
        kept: list[tuple[Clause, lia.Reduction]] = []
        for c, c_reduced in unfolded:
            r = lia.reduction(c.constraint, base=c_reduced)
            if lia.is_satisfiable(c.constraint, reduced=r) is lia.Verdict.DISPROVED:
                state.apply_replace([c.cid], [], r)
            else:
                kept.append((c, r))
        # definition & folding: fold each clause until it no longer mixes Q/R;
        # a fold keeps the constraint, so its reduction serves every query
        for e, r in kept:
            while mixed(e):
                pos_a, pos_b, eqs = select_pair(e, q_preds, r_preds, r)
                a, b = e.body[pos_a], e.body[pos_b]
                pair_log.append(PairChoice(e, a, b, eqs, trace_index=len(state.trace)))
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
                e = state.apply_fold(e.cid, [pos_a, pos_b], def_id, theta, r)
            transf_ids.append(e.cid)

    assert state.clauses.keys() == set(transf_ids), "strategy state out of sync"
    transf = Program([state.clauses[i] for i in transf_ids])
    # output contract: no mixed Q/R bodies remain
    for c in transf:
        assert not mixed(c), f"clause {c.cid} still mixes partitions"
    return PairingResult(
        transf=transf, defs=Program(state.defs), steps=state.trace, pair_log=pair_log
    )


# ---------------------------------------------------------------------------
# Iterated driver


def duplicate_cone(
    clauses: Iterable[Clause], pred: str, taken: Collection[str]
) -> tuple[list[Clause], dict[str, str]]:
    """Copy the clause cone of pred, each predicate p renamed to the first
    p_k, k >= 2, not in `taken`, the names in use, which the call leaves as
    it is (no two p give one p_k)."""
    clauses = tuple(clauses)
    cone = reachable_preds(clauses, pred)
    mapping: dict[str, str] = {}
    for p in sorted(cone):
        k = 2
        while f"{p}_{k}" in taken:
            k += 1
        mapping[p] = f"{p}_{k}"
    copies = []
    for c in clauses:
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
    """Atom index pairs of a goal body, by descending |Eq| then position;
    one reduction of the goal's constraint serves them; a lone pair needs none."""
    n = len(goal.body)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) == 1:
        return pairs
    return [(i, j) for i, j, _ in _ranked_pairs(goal, pairs, lia.reduction(goal.constraint))]


def iterate_pairing(
    p: Program,
    goals: Sequence[Clause],
    cfg: PairingConfig,
) -> PairingResult:
    """Run one pairing round, or with cfg.iterate, rounds until no goal
    mixes two disjoint cones.

    The goals are p's own, then those of `goals` that p does not hold.
    Every clause of `goals` must be a goal (InputShapeError otherwise) and
    agree with p's predicate signatures (ArityClash or SortMismatch
    otherwise).

    The goals are scanned once, in order. A goal is left when none of its
    pairs can be transformed. After a round, the scan resumes at the goals
    the round produced: a round adds clauses only for new predicates and
    keeps those of the old ones, so a goal left earlier would be left again
    with the same overlaps. Two atoms of the same predicate are paired by
    duplicating that predicate's cone under renamed predicates, the copy
    being the R side. Copies and definitions take no name in use: none of
    p's signatures and the extra goals, nor, once a round has run, its new
    names (`taken`). A pair whose cones overlap (for distinct predicates)
    is reported as an OverlapError of the goal it leaves, by that goal's
    id in the output. A pair whose Q or R cone has no clause, as no clause
    defines its root, is skipped without a report, and can leave its goal
    untransformed too.

    Between rounds the driver keeps plain lists of clauses, whose ids may
    repeat; it numbers the output and the definitions from 1, and builds a
    Program of each only at the end.

    Each round's trace numbers its clauses afresh, from 1, and the steps of
    all rounds are concatenated without a mark between rounds. The result's
    trace therefore replays one round at a time against that round's own
    input, not as one run from p.
    """
    for g in goals:
        if not g.is_goal:
            raise InputShapeError(f"clause {g.cid} of goals is not a goal")
    extra = [g for g in goals if g not in p.clauses]
    taken = set(infer_signatures(extra, p.signatures))  # extra must agree with p
    definite = [c for c in p if not c.is_goal]
    work_goals = [c for c in p if c.is_goal] + extra
    all_steps: list[TraceStep] = []
    all_pairs: list[PairChoice] = []
    all_defs: list[Clause] = []
    left: list[tuple[str, int]] = []  # (overlap predicate, goal index) of the goals left
    gi = 0

    while gi < len(work_goals):
        goal = work_goals[gi]
        overlap_preds: list[str] = []
        pairs = _rank_goal_pairs(goal) if len(goal.body) >= 2 else []
        for i, j in pairs:
            pa, pb = goal.body[i].pred, goal.body[j].pred
            if pa == pb:
                r_cl, mapping = duplicate_cone(definite, pb, taken)
                q_cl = [c for c in definite if c.head.pred in mapping]
                goal2 = Clause(
                    goal.cid,
                    None,
                    goal.constraint,
                    tuple(
                        Atom(mapping[a.pred], a.args) if k == j else a
                        for k, a in enumerate(goal.body)
                    ),
                )
            else:
                try:
                    q_cl, r_cl = predicate_partition(definite, pa, pb)
                except OverlapError as ov:
                    overlap_preds.append(ov.pred)
                    continue
                mapping = {}
                goal2 = goal
            if not q_cl or not r_cl:
                continue
            qr_preds = {c.head.pred for c in q_cl + r_cl}
            rest = [c for c in definite if c.head.pred not in qr_preds]
            res = predicate_pairing(goal2, q_cl, r_cl, cfg, reserved_preds=taken)
            taken.update(mapping.values(), (d.head.pred for d in res.defs))
            base = len(all_steps)
            all_steps.extend(res.steps)
            all_pairs.extend(
                replace(pc, trace_index=pc.trace_index + base) for pc in res.pair_log
            )
            all_defs.extend(res.defs)
            if len(all_defs) > cfg.max_defs:
                raise CapExceeded(f"definition cap {cfg.max_defs} reached")
            definite = rest + [c for c in res.transf if not c.is_goal]
            work_goals = (
                work_goals[:gi]
                + [c for c in res.transf if c.is_goal]
                + work_goals[gi + 1 :]
            )
            break
        else:  # no pair of this goal could be transformed
            left.extend((pred, gi) for pred in overlap_preds)
            gi += 1
            continue
        if not cfg.iterate:
            break
        # The scan resumes at gi. A round adds clauses only for new
        # predicates (definitions, cone copies) and keeps every clause of the
        # existing ones, so reachable_preds of each old predicate is
        # unchanged: a goal left before gi would be left again, with the
        # same overlaps.

    final = Program(renumbered(definite + work_goals))
    out_goals = final.goals()
    return PairingResult(
        transf=final,
        defs=Program(renumbered(all_defs)),
        steps=all_steps,
        pair_log=all_pairs,
        overlaps=[OverlapError(pred, out_goals[k].cid) for pred, k in left],
    )
