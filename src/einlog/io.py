"""File formats: unary potentials, marginal reports, scored predictions.

Unary potential files reuse the evidence atom syntax followed by one logit
per label (``coexist(T1,T2) 0.3 -0.3``); unlisted cells default to zero
logits.  Marginal reports are CSV ``predicate,arg1,...,argk,label,
probability,observed`` rows (9 decimals, lexicographically sorted; binary
predicates report the positive label only) or the same records as JSON.
"""

from __future__ import annotations

import json

import numpy as np

from .engine import MarginalTable, UnaryTable
from .fol import content_lines
from .kb import EvidenceError, GroundAtom, KnowledgeBase, parse_atom


def load_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    """Unary logit table from text; zero logits for unlisted cells."""
    table = UnaryTable.zeros(kb)
    seen = set()
    for lineno, line in content_lines(text):
        atom, *values = line.split()
        negated, pred, args, label = parse_atom(atom, lineno, kb.predicates, kb.index)
        if negated or label is not None:
            raise EvidenceError(f"line {lineno}: malformed atom {atom!r}")
        if len(values) != pred.num_labels:
            raise EvidenceError(f"line {lineno}: {pred.name} needs {pred.num_labels} "
                                f"logits, got {len(values)}")
        key = (pred.name, args)
        if key in seen:
            raise EvidenceError(f"line {lineno}: duplicate unary entry for {atom}")
        seen.add(key)
        try:
            table.tables[pred.name][args] = [float(v) for v in values]
        except ValueError:
            raise EvidenceError(f"line {lineno}: bad logit value") from None
    return table


def marginal_rows(result: MarginalTable, kb: KnowledgeBase, queries=None):
    """Report rows (predicate, arg names, label name, probability, observed).

    Defaults to every cell of every predicate with observed cells flagged;
    an explicit query list restricts the report to those atoms.
    """
    if queries is None:
        atoms = [GroundAtom(pred, args)
                 for name, pred in kb.predicates.items()
                 for args in np.ndindex(*kb.shape(pred))]
    else:
        atoms = list(queries)
    rows = []
    for atom in atoms:
        name = atom.predicate.name
        args = tuple(int(a) for a in atom.args)
        observed = int((name, args) in kb.observations)
        cell = result.tables[name][args]
        labels = range(atom.predicate.num_labels) if atom.predicate.num_labels > 2 else (1,)
        for label in labels:
            rows.append((name, tuple(kb.entities[a] for a in args),
                         atom.predicate.label_name(label), float(cell[label]), observed))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def format_marginals_csv(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    lines = []
    for name, args, label, prob, observed in marginal_rows(result, kb, queries):
        lines.append(",".join([name, *args, label, f"{prob:.9f}", str(observed)]))
    return "\n".join(lines) + "\n"


def format_marginals_json(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    records = [
        {"predicate": name, "args": list(args), "label": label,
         "probability": round(prob, 9), "observed": bool(observed)}
        for name, args, label, prob, observed in marginal_rows(result, kb, queries)
    ]
    return json.dumps(records, indent=2) + "\n"


def load_predictions(text: str, kb: KnowledgeBase):
    """Scored atoms: one `Atom score` per line."""
    out = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise EvidenceError(f"line {lineno}: expected 'Atom score'")
        atom, value = parts
        negated, pred, args, label = parse_atom(atom, lineno, kb.predicates, kb.index)
        if negated or label is not None:
            raise EvidenceError(f"line {lineno}: malformed atom {atom!r}")
        try:
            score = float(value)
        except ValueError:
            raise EvidenceError(f"line {lineno}: bad score {value!r}") from None
        key = (pred.name, args)
        if key in out:
            raise EvidenceError(f"line {lineno}: duplicate prediction for {atom}")
        out[key] = score
    if not out:
        raise EvidenceError("empty prediction file")
    return out


def load_truth(text: str, kb: KnowledgeBase):
    """Held-out binary facts: `Atom` lines are true, `!Atom` lines false."""
    out = {}
    for lineno, line in content_lines(text):
        negated, pred, args, label = parse_atom(line, lineno, kb.predicates, kb.index)
        if label is not None:
            raise EvidenceError(f"line {lineno}: malformed truth atom {line!r}")
        if pred.num_labels != 2:
            raise EvidenceError(f"line {lineno}: truth atoms must be binary")
        key = (pred.name, args)
        truth = not negated
        if key in out and out[key] != truth:
            raise EvidenceError(f"line {lineno}: conflicting truth for {line!r}")
        out[key] = truth
    if not out:
        raise EvidenceError("empty truth file")
    return out
