"""Per-layer tracing, installed from outside the library for traced runs only.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper that
records a span: the operation it ran under, the span that called it, its
name, start, end and a note on its outcome. The wrapper goes on the module
attribute, on every other ``chcpair`` module (or the package) that imported
the same function by name, and, for the kernel rules, on the
``TransformationState`` method. Spans stay in memory until the pass ends;
``layer_metrics`` derives counts and self times from them, and
``write_spans`` writes them out.

A span's self time is its duration minus the durations of its child spans.
Functions that are not wrapped count toward the self time of the nearest
wrapped caller: ``lia.satisfiable_with_witness`` holds the decision
procedure itself, less the box probe it makes through
``boxes.find_solution``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import workloads  # noqa: F401  (puts the checkout's sources first on sys.path)
from chcpair import boxes, kernel, lia, models, oracle, pairing, smtlib, syntax


def _verdict(args, out):
    return out.value


def _sat(args, out):
    # the conjunction is kept so that repeats are found after the pass,
    # outside the timed spans
    return (out[0].value, args[0])


def _size(args, out):
    return len(out)


def _found(args, out):
    return out is not None


def _defs(args, out):
    return len(out.defs)


# (owner, attribute, span name, note on the outcome or None)
TRACED: tuple[tuple[object, str, str, Optional[Callable]], ...] = (
    (syntax, "parse_program", "syntax.parse_program", None),
    (syntax, "print_program", "syntax.print_program", None),
    (lia, "eq_set", "lia.eq_set", None),
    (lia, "entails_equality", "lia.entails_equality", _verdict),
    (lia, "entails_atom", "lia.entails_atom", _verdict),
    (lia, "satisfiable_with_witness", "lia.satisfiable_with_witness", _sat),
    (lia, "implies_quant_disj", "lia.implies_quant_disj", _verdict),
    (lia, "equiv_quant_disj", "lia.equiv_quant_disj", _verdict),
    (kernel.TransformationState, "apply_unfold", "kernel.unfold", None),
    (kernel.TransformationState, "apply_fold", "kernel.fold", None),
    (kernel.TransformationState, "apply_definition", "kernel.definition", None),
    (kernel.TransformationState, "apply_replace", "kernel.replace", None),
    (pairing, "iterate_pairing", "pairing.iterate_pairing", _defs),
    (pairing, "predicate_pairing", "pairing.predicate_pairing", None),
    (pairing, "select_pair", "pairing.select_pair", None),
    (pairing, "find_matching_def", "pairing.find_matching_def", _found),
    (models, "check_model", "models.check_model", None),
    (models, "check_tight", "models.check_tight", _verdict),
    (smtlib, "emit_smtlib", "smtlib.emit_smtlib", None),
    (smtlib, "parse_model", "smtlib.parse_model", None),
    (oracle, "bounded_lm", "oracle.bounded_lm", _size),
    (oracle, "false_derivable", "oracle.false_derivable", None),
    (boxes, "solutions", "boxes.solutions", _size),
    (boxes, "find_solution", "boxes.find_solution", _found),
)

HIGHER, LOWER = "higher", "lower"
# (metric, unit, better): what a traced run reports, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("syntax.parse_program.calls", "count", LOWER),
    ("syntax.parse_program.self_s", "s", LOWER),
    ("syntax.print_program.self_s", "s", LOWER),
    ("lia.eq_set.calls", "count", LOWER),
    ("lia.eq_set.self_s", "s", LOWER),
    ("lia.entails_equality.calls", "count", LOWER),
    ("lia.entails_equality.proved", "count", HIGHER),
    ("lia.entails_equality.disproved", "count", LOWER),
    ("lia.entails_equality.unknown", "count", LOWER),
    ("lia.entails_equality.useful_ratio", "ratio", HIGHER),
    ("lia.entails_atom.calls", "count", LOWER),
    ("lia.entails_atom.self_s", "s", LOWER),
    ("lia.satisfiable_with_witness.calls", "count", LOWER),
    ("lia.satisfiable_with_witness.self_s", "s", LOWER),
    ("lia.satisfiable_with_witness.unknown", "count", LOWER),
    ("lia.satisfiable_with_witness.repeat_ratio", "ratio", LOWER),
    ("lia.implies_quant_disj.calls", "count", LOWER),
    ("lia.implies_quant_disj.self_s", "s", LOWER),
    ("lia.equiv_quant_disj.calls", "count", LOWER),
    ("lia.equiv_quant_disj.self_s", "s", LOWER),
    ("kernel.unfold.calls", "count", LOWER),
    ("kernel.unfold.self_s", "s", LOWER),
    ("kernel.fold.calls", "count", LOWER),
    ("kernel.fold.self_s", "s", LOWER),
    ("kernel.fold.rejected", "count", LOWER),
    ("kernel.definition.calls", "count", LOWER),
    ("kernel.replace.calls", "count", LOWER),
    ("kernel.replace.self_s", "s", LOWER),
    ("pairing.select_pair.calls", "count", LOWER),
    ("pairing.select_pair.self_s", "s", LOWER),
    ("pairing.find_matching_def.calls", "count", LOWER),
    ("pairing.find_matching_def.hits", "count", HIGHER),
    ("pairing.predicate_pairing.calls", "count", LOWER),
    ("pairing.defs_introduced", "count", LOWER),
    ("models.check_model.calls", "count", LOWER),
    ("models.check_model.self_s", "s", LOWER),
    ("models.check_tight.calls", "count", LOWER),
    ("models.check_tight.self_s", "s", LOWER),
    ("smtlib.emit_smtlib.self_s", "s", LOWER),
    ("smtlib.parse_model.self_s", "s", LOWER),
    ("oracle.bounded_lm.calls", "count", LOWER),
    ("oracle.bounded_lm.self_s", "s", LOWER),
    ("oracle.false_derivable.calls", "count", LOWER),
    ("oracle.false_derivable.self_s", "s", LOWER),
    ("oracle.ground_atoms", "count", LOWER),
    ("boxes.solutions.calls", "count", LOWER),
    ("boxes.solutions.self_s", "s", LOWER),
    ("boxes.solutions.results", "count", LOWER),
    ("boxes.find_solution.calls", "count", LOWER),
    ("boxes.find_solution.self_s", "s", LOWER),
    ("boxes.find_solution.hit_ratio", "ratio", HIGHER),
    ("trace.overhead_s", "s", LOWER),
)


class Tracer:
    """Records spans of the wrapped library functions while installed."""

    def __init__(self):
        # (op, parent span index or -1, name, t0, t1, note)
        self.spans: list[Optional[tuple]] = []
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = clock()
                stack.pop()
                spans[sid] = (self.op, parent, name, t0, t1, "raised:" + type(exc).__name__)
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (self.op, parent, name, t0, t1, note(args, out) if note else None)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "chcpair" or n.startswith("chcpair.")]
        for owner, attr, name, note in TRACED:
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, note)
            targets = [owner] + [m for m in modules if m is not owner and vars(m).get(attr) is fn]
            for t in targets:
                self._saved.append((t, attr, fn))
                setattr(t, attr, wrapper)

    def uninstall(self) -> None:
        for t, attr, fn in reversed(self._saved):
            setattr(t, attr, fn)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far, finished, and start afresh.

        A finished span is (op, parent, name, t0, t1, self seconds, note),
        with the note as text.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        spans = self.spans
        out = [
            (op, parent, name, t0, t1, own, note)
            for (op, parent, name, t0, t1, _), own, note in zip(
                spans, self_times(spans), notes_for_output(spans)
            )
        ]
        spans.clear()
        return out


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration less the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def notes_for_output(spans: list[tuple]) -> list[str]:
    """Printable notes; for satisfiability calls, also whether the same
    conjunction was already queried in the same operation."""
    seen: dict[str, set] = defaultdict(set)
    out = []
    for op, _, name, _, _, note in spans:
        if name == "lia.satisfiable_with_witness" and isinstance(note, tuple):
            verdict, conj = note
            repeat = conj in seen[op]
            seen[op].add(conj)
            out.append(verdict + (":repeat" if repeat else ""))
        else:
            out.append("" if note is None else str(note))
    return out


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Counts and self times per layer function, over finished spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_note: dict[tuple[str, str], int] = defaultdict(int)
    for _, _, name, _, _, own, note in spans:
        calls[name] += 1
        self_s[name] += own
        by_note[name, note] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(name: str) -> int:
        """Sum of the sizes noted on the spans of name."""
        return sum(int(note) * k for (n, note), k in by_note.items() if n == name and note.isdigit())

    def noted(name: str, prefix: str) -> int:
        return sum(k for (n, note), k in by_note.items() if n == name and note.startswith(prefix))

    ee, sat, fs = "lia.entails_equality", "lia.satisfiable_with_witness", "boxes.find_solution"
    out: dict[str, float] = {}
    for _, _, name, _ in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for verdict in ("proved", "disproved", "unknown"):
        out[f"{ee}.{verdict}"] = by_note[ee, verdict]
    out[f"{ee}.useful_ratio"] = ratio(by_note[ee, "proved"], calls[ee])
    out[f"{sat}.unknown"] = noted(sat, "unknown")
    out[f"{sat}.repeat_ratio"] = ratio(
        sum(k for (n, note), k in by_note.items() if n == sat and note.endswith(":repeat")),
        calls[sat],
    )
    out["kernel.fold.rejected"] = noted("kernel.fold", "raised:")
    out["pairing.find_matching_def.hits"] = by_note["pairing.find_matching_def", "True"]
    out["pairing.defs_introduced"] = total("pairing.iterate_pairing")
    out["oracle.ground_atoms"] = total("oracle.bounded_lm")
    out["boxes.solutions.results"] = total("boxes.solutions")
    out[f"{fs}.hit_ratio"] = ratio(by_note[fs, "True"], calls[fs])
    return out


def per_op_counts(spans: list[tuple]) -> dict[str, dict[str, int]]:
    """Call counts per operation and span name, with verdicts of the LIA calls."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for op, _, name, _, _, _, note in spans:
        out[op][name] += 1
        if name.startswith("lia.") and note:
            out[op][f"{name}.{note.split(':')[0]}"] += 1
    return {op: dict(c) for op, c in out.items()}


def write_spans(path, passes: list[list[tuple]]) -> None:
    """Write the finished spans of every traced pass as tab-separated text."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("pass\top\tspan\tparent\tname\tt0\tt1\tself_s\tnote\n")
        for k, spans in enumerate(passes):
            for i, (op, parent, name, t0, t1, own, note) in enumerate(spans):
                f.write(f"{k}\t{op}\t{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{own:.9f}\t{note}\n")
