"""File formats: unary potentials, marginal reports, scored predictions.

Unary potential files reuse the evidence atom syntax followed by one logit
per label (``coexist(T1,T2) 0.3 -0.3``); unlisted cells default to zero
logits.  Prediction files hold ``Atom score`` lines; ``einlog aucpr`` reads
its truth file as evidence.  Unary files are read in bulk through
``kb.atom_blocks``, with a per-line walk that names the first bad line when
the bulk reader declines; prediction files are read line by line.

Marginal reports are CSV ``predicate,arg1,...,argk,label,probability,
observed`` rows (9 decimals, lexicographically sorted; binary predicates
report the positive label only) or the same records as JSON.  Both writers
read the per-predicate columns of ``report_columns``; the CSV writer
assembles its rows as UTF-8 bytes in array passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import MarginalTable, UnaryTable
from .fol import Predicate, content_lines
from .kb import (Declined, EvidenceError, KnowledgeBase, Queries, atom_blocks, flat_cells,
                 parse_atom, read_bulk)
from .tensor import label_planes


def load_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    """Unary logit table from text; zero logits for unlisted cells, and one
    read-only ``np.broadcast_to(0.0, shape)`` for a predicate no line lists."""
    return read_bulk(_bulk_unary, _walk_unary, text, kb)


def _bulk_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    found = {name: ([np.empty((0, p.arity), np.int64)], [np.empty((0, p.num_labels))])
             for name, p in kb.predicates.items()}
    for block in atom_blocks(text, kb.predicates, kb.entity_keys):
        if block.negated.any() or block.named.any():
            raise Declined
        counts, values = block.counts, block.values
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
        if not len(flat):       # no line lists it: one read-only zero, stride 0
            tables[name] = np.broadcast_to(0.0, kb.shape(pred) + (pred.num_labels,))
            continue
        if np.any(np.diff(np.sort(flat)) == 0):
            raise Declined                      # duplicate unary entry
        tables[name] = label_planes(kb.shape(pred) + (pred.num_labels,), np.zeros)
        # filled through its label-major planes, one row of cells per label
        np.moveaxis(tables[name], -1, 0).reshape(pred.num_labels, kb.n ** pred.arity)[
            :, flat] = np.concatenate(found[name][1]).T
    return UnaryTable(tables)


def _walk_unary(text: str, kb: KnowledgeBase) -> UnaryTable:
    """The per-line unary reader; its errors name the first bad line."""
    table = UnaryTable.zeros(kb)
    seen = set()
    for lineno, line in content_lines(text):
        atom, *values = line.split()
        negated, pred, args, label = parse_atom(atom, lineno, kb.predicates, kb.index.__getitem__)
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


@dataclass(frozen=True)
class ReportColumns:
    """One predicate's report rows as columns, in report order."""

    predicate: Predicate
    cells: np.ndarray           # (rows, arity) entity indices
    labels: np.ndarray          # label index
    probability: np.ndarray     # float64
    observed: np.ndarray        # bool


def report_columns(result: MarginalTable, kb: KnowledgeBase,
                   queries: Queries | None = None) -> list[ReportColumns]:
    """The report's rows as one ``ReportColumns`` per predicate, in name order.

    Defaults to every cell of every predicate with observed cells flagged;
    ``queries`` from ``load_queries`` restricts the report to those atoms,
    with one row set per query line.  Within a predicate rows sort by
    argument names, then label name; a binary predicate reports its positive
    label only.
    """
    order = np.array(sorted(range(kb.n), key=kb.entities.__getitem__), np.intp)
    rank = np.empty(kb.n, np.intp)
    rank[order] = np.arange(kb.n)
    masks = kb.masks()
    out = []
    for name in sorted(kb.predicates):
        pred = kb.predicates[name]
        labels = np.array(sorted(range(pred.num_labels) if pred.num_labels > 2 else [1],
                                 key=pred.label_name), np.intp)
        width = len(labels)
        if queries is None:
            # the outer product of each axis's name order is already sorted
            cells = order[np.indices(kb.shape(pred)).reshape(pred.arity, kb.n ** pred.arity).T]
            rows = np.arange(len(cells) * width)
        else:
            # one int64 key per row; a stable sort keeps repeated query lines
            # in file order
            cells = queries.cells[name]
            key = np.repeat(flat_cells(rank[cells], kb.n) * width, width)
            rows = np.argsort(key + np.tile(np.arange(width), len(cells)), kind="stable")
        atom, slot = np.divmod(rows, width)
        flat = flat_cells(cells, kb.n)[atom]
        label = labels[slot]
        planes = np.moveaxis(result.tables[name], -1, 0).reshape(pred.num_labels, -1)
        out.append(ReportColumns(pred, cells[atom], label, planes[label, flat],
                                 masks[name].mask.reshape(-1)[flat]))
    return out


# Rows per CSV block: a block's index arrays stay in cache and small.
CSV_BLOCK_ROWS = 8192


def format_marginals_csv(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    """The report rows as CSV text, assembled as UTF-8 bytes in array passes
    over blocks of each predicate's columns and decoded once."""
    entities = _name_runs(kb.entities)
    parts = []
    for columns in report_columns(result, kb, queries):
        pred = columns.predicate
        name = _name_runs([pred.name])
        labels = _name_runs([pred.label_name(k) for k in range(pred.num_labels)])
        for start in range(0, len(columns.labels), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            fields = [(name, np.zeros_like(columns.labels[rows]))]
            fields += [(entities, ids[rows]) for ids in columns.cells.T]
            fields.append((labels, columns.labels[rows]))
            parts.append(_csv_bytes(fields, columns.probability[rows], columns.observed[rows]))
    return b"".join(parts).decode()


def _name_runs(names):
    """Each name's UTF-8 bytes and a ',', as one byte blob with each name's
    offset and length in it."""
    encoded = [name.encode() + b"," for name in names]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    return np.frombuffer(b"".join(encoded), np.uint8), np.cumsum(lengths) - lengths, lengths


def _csv_bytes(fields, probability: np.ndarray, observed: np.ndarray) -> bytes:
    """CSV lines of rows that hold one name from each ``(name runs, ids)``
    field, then the probability and observed flag.

    A row is a head (the names, each with its comma) and a 14-byte tail
    (probability, comma, flag, newline).  The names are copied in as byte
    runs; the tails go in through one mask of tail bytes.
    """
    tails, fallback = _tail_bytes(probability, observed)
    lengths = [runs[2][ids] for runs, ids in fields]
    head = sum(lengths)
    tail = np.full(len(tails), tails.shape[1], np.intp)
    if fallback:
        rows = np.fromiter(fallback, np.intp, len(fallback))
        head[rows] += np.fromiter(map(len, fallback.values()), np.intp, len(rows))
        tail[rows] = 0
        tails = np.delete(tails, rows, axis=0)
    ends = np.cumsum(head + tail)
    buf = np.empty(ends[-1], np.uint8)
    at = ends - tail - head
    for (runs, ids), length in zip(fields, lengths):
        _scatter_runs(buf, at, runs, ids, length)
        at += length
    for row, text in fallback.items():
        buf[at[row]:at[row] + len(text)] = np.frombuffer(text, np.uint8)
    is_tail = np.repeat(np.tile(np.array([False, True]), len(head)),
                        np.stack([head, tail], axis=1).reshape(-1))
    buf[is_tail] = tails.reshape(-1)
    return buf.tobytes()


def _scatter_runs(buf: np.ndarray, at: np.ndarray, runs, ids: np.ndarray,
                  length: np.ndarray) -> None:
    """Copy name ``ids[r]``'s bytes from ``runs`` into ``buf`` at ``at[r]``,
    for every row r, as one flat copy over all the rows' bytes."""
    blob, offsets, _ = runs
    first = np.cumsum(length) - length      # each row's first byte in the flat copy
    step = np.arange(first[-1] + length[-1])
    dst = np.repeat(at - first, length)
    dst += step
    src = np.repeat(offsets[ids] - first, length)
    src += step
    buf[dst] = blob[src]


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of four bytes as one uint32 each, so that a gather copies four bytes."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint32).reshape(-1)


# The 9-decimal text of k / 1e9 for 0 <= k <= 1e9, and a comma, is
# _LEAD[k // 10^7], _MIDDLE[k // 1000 % 10^4] and _LAST[k % 1000]: "0.12",
# "3456" and "789,".  Row i of _DIGITS is the text of i, zero-padded to four.
_DIGITS = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_LEAD = _words(np.column_stack([_DIGITS[:101, 1], np.full(101, ord(".")), _DIGITS[:101, 2:]]))
_MIDDLE = _words(_DIGITS)
_LAST = _words(np.column_stack([_DIGITS[:1000, 1:], np.full(1000, ord(","))]))


def _tail_bytes(p: np.ndarray, observed: np.ndarray):
    """The (m, 14) bytes ``f"{x:.9f},{flag}\\n"`` of each probability x and
    observed flag, and ``{row: f"{x:.9f},{flag}\\n".encode()}`` for the rows
    whose tail these bytes do not hold.

    ``x * 1e9`` is at most 1e9 < 2^30, so its rounding error is below 6e-8
    and ``rint`` gives the f-string's last digit unless the product lies
    within 1e-5 of a half-integer.  Those rows, and any x outside [0, 1],
    negative zero or non-finite x, keep the f-string.
    """
    inside = (p >= 0) & (p <= 1) & ~np.signbit(p)
    scaled = np.where(inside, p, 0.0) * 1e9
    whole = np.rint(scaled)
    fallback = np.flatnonzero(~inside | (np.abs(scaled - whole) > 0.5 - 1e-5))
    k = whole.astype(np.int32)
    thousands = k // 1000
    lead = thousands // 10_000
    words = np.empty((len(p), 4), np.uint32)
    words[:, 0] = _LEAD[lead]
    words[:, 1] = _MIDDLE[thousands - lead * 10_000]
    words[:, 2] = _LAST[k - thousands * 1000]
    tails = words.view(np.uint8)
    tails[:, 12] = ord("0") + observed
    tails[:, 13] = ord("\n")
    return tails[:, :14], {row: f"{x:.9f},{int(flag)}\n".encode() for row, x, flag in zip(
        fallback.tolist(), p[fallback].tolist(), observed[fallback].tolist())}


def format_marginals_json(result: MarginalTable, kb: KnowledgeBase, queries=None) -> str:
    """The report rows as ``json.dumps(records, indent=2)`` writes one record
    per row, built as text with each name encoded once."""
    entities = [json.dumps(name) for name in kb.entities]
    records = []
    for columns in report_columns(result, kb, queries):
        pred = columns.predicate
        name = json.dumps(pred.name)
        labels = [json.dumps(pred.label_name(k)) for k in range(pred.num_labels)]
        for args, label, prob, observed in zip(columns.cells.tolist(), columns.labels.tolist(),
                                               columns.probability.tolist(),
                                               columns.observed.tolist()):
            arg_list = ("[\n      " + ",\n      ".join(map(entities.__getitem__, args))
                        + "\n    ]" if args else "[]")
            records.append(f'  {{\n    "predicate": {name},\n    "args": {arg_list},\n'
                           f'    "label": {labels[label]},\n'
                           f'    "probability": {round(prob, 9)!r},\n'
                           f'    "observed": {"true" if observed else "false"}\n  }}')
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"


def load_predictions(text: str, kb: KnowledgeBase):
    """Scored atoms: one `Atom score` per line.  Errors name the first bad
    line."""
    out = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise EvidenceError(f"line {lineno}: expected 'Atom score'")
        atom, value = parts
        negated, pred, args, label = parse_atom(atom, lineno, kb.predicates, kb.index.__getitem__)
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

