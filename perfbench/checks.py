"""Correctness gate of every benchmark run, applied outside the timed region.

A run counts as failed when any check here reports a problem.  The
references are written independently of ``einlog.planner`` and
``einlog.testing``; only ``einlog.oracle`` is shared with the test suite.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import einlog as E
from einlog import oracle

ORACLE_TOL = 1e-9
# nine-decimal rounding in the report, plus float slack
CSV_TOL = 5e-10 + 1e-12


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def marginal_failures(result: E.MarginalTable, kb: E.KnowledgeBase) -> list[str]:
    """Finite tables that sum to one, and observed cells pinned to evidence."""
    failures = []
    for name, q in result.tables.items():
        if not np.all(np.isfinite(q)):
            failures.append(f"{name}: non-finite marginals")
    try:
        result.validate(kb)
    except E.EngineError as exc:
        failures.append(str(exc))
    for name, mask in kb.masks().items():
        q = result.tables[name]
        want = np.eye(q.shape[-1])[mask.labels[mask.mask]]
        if not np.array_equal(q[mask.mask], want):
            failures.append(f"{name}: observed cells differ from their evidence")
    return failures


def csv_failures(path: Path, result: E.MarginalTable, kb: E.KnowledgeBase,
                 queries) -> list[str]:
    """Parse the written report back and compare it with the marginals."""
    def rows_of(pred) -> int:
        return pred.num_labels if pred.num_labels > 2 else 1
    if queries is None:
        expected = sum(kb.n ** p.arity * rows_of(p) for p in kb.predicates.values())
    else:
        expected = sum(rows_of(a.predicate) for a in queries)
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    failures = []
    if len(rows) != expected:
        failures.append(f"report has {len(rows)} rows, expected {expected}")
    by_predicate: dict[str, list[list[str]]] = {}
    for row in rows:
        by_predicate.setdefault(row[0], []).append(row)
    entity = {name: i for i, name in enumerate(kb.entities)}
    worst = 0.0
    for name, group in by_predicate.items():
        pred = kb.predicates[name]
        if any(len(row) != pred.arity + 4 for row in group):
            failures.append(f"report rows of {name} have the wrong field count")
            continue
        columns = list(zip(*group))
        cell = tuple(np.array([entity[a] for a in col], dtype=np.int64)
                     for col in columns[1:1 + pred.arity])
        label_index = {pred.label_name(k): k for k in range(pred.num_labels)}
        label = np.array([label_index[v] for v in columns[1 + pred.arity]])
        prob = np.array(columns[2 + pred.arity], dtype=np.float64)
        observed = np.array(columns[3 + pred.arity]) == "1"
        if not np.array_equal(observed, kb.masks()[name].mask[cell]):
            failures.append(f"report rows of {name}: wrong observed flags")
        worst = max(worst, float(np.abs(prob - result.tables[name][cell + (label,)]).max()))
    if worst > CSV_TOL:
        failures.append(f"report probabilities deviate by {worst:.3e}")
    return failures


def output_digest(result: E.MarginalTable, report: bytes) -> str:
    """SHA-256 of the report bytes and of every marginal table's bytes."""
    h = hashlib.sha256(report)
    for name in sorted(result.tables):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result.tables[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def transitivity_reference(logits: np.ndarray, iterations: int,
                           weight: float = 1.0) -> np.ndarray:
    """Synchronous mean field of `!c(a,b) | !c(b,c) | c(a,c)` by plain matmul.

    Each implication's message is the expected count of true-premise
    groundings: with P1 = q[...,1] and P0 = q[...,0],
      c(a,c)  <- sum_b P1[a,b] P1[b,c]   = P1 @ P1       (adds to label 1)
      !c(a,b) <- sum_c P1[b,c] P0[a,c]   = P0 @ P1.T     (adds to label 0)
      !c(b,c) <- sum_a P1[a,b] P0[a,c]   = P1.T @ P0     (adds to label 0)
    """
    q = _softmax(logits)
    for _ in range(iterations):
        p0, p1 = np.ascontiguousarray(q[..., 0]), np.ascontiguousarray(q[..., 1])
        step = logits.copy()
        step[..., 1] += weight * (p1 @ p1)
        step[..., 0] += weight * (p0 @ p1.T + p1.T @ p0)
        q = _softmax(step)
    return q


def initial_marginals(phi: E.UnaryTable, kb: E.KnowledgeBase) -> E.MarginalTable:
    """Label softmax of the unary logits with observed cells pinned."""
    q = {name: _softmax(arr) for name, arr in phi.tables.items()}
    for name, mask in kb.masks().items():
        q[name][mask.mask] = np.eye(q[name].shape[-1])[mask.labels[mask.mask]]
    return E.MarginalTable(q)


def oracle_gap(rules, kb: E.KnowledgeBase, phi: E.UnaryTable) -> float:
    """Max |engine - sequential oracle| over all cells after one iteration."""
    got = E.run_inference(rules, kb, phi, E.EngineConfig(iterations=1))
    want = oracle.naive_mf_step(initial_marginals(phi, kb), rules, kb, phi)
    return max(float(np.max(np.abs(got.tables[k] - want.tables[k])))
               for k in kb.predicates)


def accuracy(result: E.MarginalTable, kb: E.KnowledgeBase,
             truth: dict[str, np.ndarray]) -> float:
    """Argmax agreement with the generator's labels over latent scored cells."""
    order = np.array([kb.entity_index(f"E{i}") for i in range(kb.n)])
    hits = total = 0
    for name, labels in truth.items():
        q = result.tables[name][np.ix_(*[order] * labels.ndim)]
        latent = ~kb.masks()[name].mask[np.ix_(*[order] * labels.ndim)]
        hits += int(np.count_nonzero((np.argmax(q, axis=-1) == labels) & latent))
        total += int(np.count_nonzero(latent))
    return hits / total
