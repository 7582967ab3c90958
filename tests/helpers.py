"""Helpers that only the tests use: rule-file printing, table comparison,
the chained oracle, summed implications taken apart, the binary predicates,
the kinds and terms of the engine's runs, a row view of the report and a
per-threshold loop for ``auc_pr``."""

from dataclasses import replace

import numpy as np

from einlog.engine import MarginalTable, UnaryTable, initial_marginals, message
from einlog.fol import RuleSet
from einlog.io import report_columns
from einlog.oracle import naive_mf_step


def format_rules(ruleset: RuleSet) -> str:
    """Rule file text that reparses to an equal RuleSet, up to formula ids
    where the parsed file had a tautological line (reparsing closes the gap)."""
    lines = []
    for pred in ruleset.predicates.values():
        types = pred.arg_types or tuple(f"t{i}" for i in range(pred.arity))
        decl = f"predicate {pred.name}({','.join(types)})"
        if pred.label_names is not None:
            decl += f" labels {{{','.join(pred.label_names)}}}"
        lines.append(decl)
    lines.extend(str(formula) for formula in ruleset.formulas)
    return "\n".join(lines) + "\n"


def copy_unary(phi: UnaryTable) -> UnaryTable:
    return UnaryTable({k: v.copy() for k, v in phi.tables.items()})


def max_abs_diff(a: MarginalTable, b: MarginalTable) -> float:
    return max(float(np.max(np.abs(a.tables[k] - b.tables[k]))) for k in a.tables)


def chained_oracle(phi, rules, kb, iterations, damping) -> MarginalTable:
    """``iterations`` damped sequential oracle steps from the initial marginals."""
    q = initial_marginals(phi, kb)
    for _ in range(iterations):
        new = naive_mf_step(q, rules, kb, phi)
        q = MarginalTable({name: (1.0 - damping) * new.tables[name]
                           + damping * q.tables[name] for name in new.tables})
    return q


def apart(implications):
    """The implications, one message each: a summed implication as the one
    whose plan it runs, then its partner."""
    for ci in implications:
        yield from (ci,) if ci.partner is None else (replace(ci, partner=None), ci.partner)


# every kind of engine step (see the engine module docstring): an add, told
# apart by its weight and, when scaled, by whether its message is a view; a
# write, the first term of a run that starts written, whose plan fills its
# plane through out=; and a summed step, which always refills its table
STEP_KINDS = frozenset({"add weight ±1", "add scaled owned", "add scaled view", "add into cells",
                        "write through out=", "summed refill"})


def step_kinds(runs, q: MarginalTable) -> set[str]:
    """The kinds of the terms of engine ``Run``s, each one of
    ``STEP_KINDS``; ``q`` is any snapshot their messages can read."""
    kinds = set()
    for run in runs:
        for i, (ci, w, _) in enumerate(run.terms):
            if ci.partner is not None:
                kinds.add("summed refill")
            elif i == 0 and run.start == "write":
                kinds.add("write through out=")
            elif not any(isinstance(ix, slice) for ix in ci.scatter):
                kinds.add("add into cells")
            elif abs(w) == 1.0:
                kinds.add("add weight ±1")
            else:
                owned = message(ci, q).flags.owndata
                kinds.add("add scaled owned" if owned else "add scaled view")
    return kinds


def plane_names(kb) -> set[str]:
    """The binary predicates of ``kb``, which the engine holds as ``q1`` planes."""
    return {name for name, p in kb.predicates.items() if p.num_labels == 2}


def terms(runs) -> list[tuple]:
    """The terms of engine ``Run``s, one run after another."""
    return [term for run in runs for term in run.terms]


def same_bytes(a: MarginalTable, b: MarginalTable) -> bool:
    """Whether both hold the same tables with the same float64 bit patterns,
    so that ``-0.0`` differs from ``0.0``."""
    return a.tables.keys() == b.tables.keys() and all(
        np.array_equal(a.tables[k].view(np.uint64), b.tables[k].view(np.uint64))
        for k in a.tables)


def report_rows(result: MarginalTable, kb, queries=None) -> list[tuple]:
    """The report's rows as ``(predicate, argument names, label name,
    probability, observed 0 or 1)`` tuples, read from its columns."""
    return [(columns.predicate.name, tuple(kb.entities[a] for a in args),
             columns.predicate.label_name(label), prob, int(observed))
            for columns in report_columns(result, kb, queries)
            for args, label, prob, observed in zip(
                columns.cells.tolist(), columns.labels.tolist(),
                columns.probability.tolist(), columns.observed.tolist())]


def auc_pr_loop(scores, truths) -> float:
    """``metrics.auc_pr`` of valid input, one distinct score at a time in
    decreasing order, adding each threshold's recall step times precision."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    positives = int(truths.sum())
    order = np.argsort(-scores, kind="stable")
    scores, truths = scores[order], truths[order]
    area = prev_recall = 0.0
    tp = fp = i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        hits = int(truths[i:j].sum())
        tp, fp = tp + hits, fp + (j - i) - hits
        recall = tp / positives
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall, i = recall, j
    return float(area)
