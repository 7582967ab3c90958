"""File formats: unary potentials, marginal reports, scored predictions.

Unary potential files reuse the evidence atom syntax followed by one logit
per label (``coexist(T1,T2) 0.3 -0.3``); unlisted cells default to zero
logits.  Marginal reports are CSV ``predicate,arg1,...,argk,label,
probability,observed`` rows (9 decimals, lexicographically sorted; binary
predicates report the positive label only) or the same records as JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat

import numpy as np

from .engine import MarginalTable, UnaryTable
from .fol import content_lines
from .kb import (Declined, EvidenceError, KnowledgeBase, Queries, atom_blocks, flat_cells,
                 parse_atom, read_bulk)


def load_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    """Unary logit table from text; zero logits for unlisted cells."""
    return read_bulk(_bulk_unary, _walk_unary, text, kb)


def _bulk_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    found = {name: ([np.empty((0, p.arity), np.int64)], [np.empty((0, p.num_labels))])
             for name, p in kb.predicates.items()}
    for block in atom_blocks(text, kb.predicates, kb.index):
        if block.negated.any() or block.named.any():
            raise Declined
        counts = block.counts
        values = np.fromiter(map(float, block.fields), np.float64, len(block.fields))
        if not np.all(np.isfinite(values)):
            raise Declined
        first = np.cumsum(counts) - counts
        for pred, at, cells in block.groups:
            if np.any(counts[at] != pred.num_labels):
                raise Declined
            found[pred.name][0].append(cells)
            found[pred.name][1].append(values[first[at, None] + np.arange(pred.num_labels)])
    tables = {}
    for name, pred in kb.predicates.items():
        flat = flat_cells(np.concatenate(found[name][0]), kb.n)
        if np.any(np.diff(np.sort(flat)) == 0):
            raise Declined                      # duplicate unary entry
        # label-major storage, as UnaryTable.zeros allocates it
        planes = np.zeros((pred.num_labels, kb.n ** pred.arity))
        planes[:, flat] = np.concatenate(found[name][1]).T
        tables[name] = np.moveaxis(planes.reshape((pred.num_labels,) + kb.shape(pred)), 0, -1)
    return UnaryTable(tables)


def _walk_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    """The per-line unary reader; its errors name the first bad line."""
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
            logits = [float(v) for v in values]
        except ValueError:
            raise EvidenceError(f"line {lineno}: bad logit value") from None
        if not all(map(math.isfinite, logits)):
            raise EvidenceError(f"line {lineno}: non-finite logit")
        table.tables[pred.name][args] = logits
    return table


def marginal_rows(result: MarginalTable, kb: KnowledgeBase, queries: Queries | None = None):
    """Report rows (predicate, arg names, label name, probability, observed).

    Defaults to every cell of every predicate with observed cells flagged;
    ``queries`` from ``load_queries`` restricts the report to those atoms,
    with one row set per query line.  Rows sort by predicate name, then
    argument names, then label name.
    """
    names = np.array(kb.entities, dtype=object)
    rank = _ranks(kb.entities)
    masks = kb.masks()
    rows = []
    for name in sorted(kb.predicates):
        pred = kb.predicates[name]
        if queries is None:
            cells = np.indices(kb.shape(pred)).reshape(pred.arity, kb.n ** pred.arity).T
        else:
            cells = queries.cells[name]
        labels = np.arange(pred.num_labels) if pred.num_labels > 2 else np.array([1])
        label_names = np.array([pred.label_name(k) for k in labels.tolist()], dtype=object)
        # row r of the unsorted report is cell r // L, label r % L
        width = len(labels)
        keys = [np.tile(_ranks(label_names), len(cells))]
        keys += [np.repeat(rank[c], width) for c in cells.T[::-1]]
        atom, label = np.divmod(np.lexsort(keys), width)
        cell = flat_cells(cells, kb.n)[atom]
        planes = np.moveaxis(result.tables[name], -1, 0).reshape(pred.num_labels, -1)
        args = zip(*(names[c].tolist() for c in cells[atom].T)) if pred.arity \
            else repeat((), len(atom))
        rows += zip(repeat(name), args, label_names[label].tolist(),
                    planes[labels[label], cell].tolist(),
                    masks[name].mask.reshape(-1)[cell].astype(int).tolist())
    return rows


def _ranks(names) -> np.ndarray:
    """Position of each name in string order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    return rank


def format_marginals_csv(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    lines = [",".join([name, *args, label, f"{prob:.9f}", str(observed)])
             for name, args, label, prob, observed in marginal_rows(result, kb, queries)]
    lines.append("")  # every row ends in a newline; a report without rows is empty
    return "\n".join(lines)


def format_marginals_json(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    """The report rows as ``json.dumps(records, indent=2)`` writes one record
    per row, built as text with each name encoded once."""
    labels = (p.label_name(k) for p in kb.predicates.values() for k in range(p.num_labels))
    quoted = {name: json.dumps(name) for name in chain(kb.entities, kb.predicates, labels)}
    records = []
    for name, args, label, prob, observed in marginal_rows(result, kb, queries):
        arg_list = ("[\n      " + ",\n      ".join(map(quoted.__getitem__, args)) + "\n    ]"
                    if args else "[]")
        records.append(f'  {{\n    "predicate": {quoted[name]},\n    "args": {arg_list},\n'
                       f'    "label": {quoted[label]},\n    "probability": {round(prob, 9)!r},\n'
                       f'    "observed": {"true" if observed else "false"}\n  }}')
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"


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
        if not math.isfinite(score):
            raise EvidenceError(f"line {lineno}: non-finite score")
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
