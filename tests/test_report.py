"""The array-built report against the per-row report it replaced."""

import json

import numpy as np
import pytest

from einlog.engine import MarginalTable
from einlog.fol import Predicate
from einlog.io import format_marginals_csv, format_marginals_json, marginal_rows
from einlog.kb import GroundAtom, KnowledgeBase, load_queries
from einlog.tensor import label_planes


def reference_rows(result, kb, queries=None):
    """One ground atom per cell or query line, one row per reported label,
    sorted by (predicate, argument names, label name)."""
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


def reference_csv(rows) -> str:
    lines = [",".join([name, *args, label, f"{prob:.9f}", str(observed)])
             for name, args, label, prob, observed in rows]
    return "".join(line + "\n" for line in lines)


def reference_json(rows) -> str:
    records = [{"predicate": name, "args": list(args), "label": label,
                "probability": round(prob, 9), "observed": bool(observed)}
               for name, args, label, prob, observed in rows]
    return json.dumps(records, indent=2) + "\n"


# arities 0 to 3; label names whose string order is not label order (O, B, I)
PREDICATES = [Predicate("on", 0), Predicate("mode", 0, 3, ("O", "B", "I")),
              Predicate("tag", 1, 3, ("O", "B", "I")), Predicate("seen", 1),
              Predicate("link", 2), Predicate("kind", 2, 4), Predicate("tri", 3)]


def random_case(seed: int, with_queries: bool):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    # seeded order: index order differs from string order (E10 < E2 < E3)
    entities = [f"E{i}" for i in rng.permutation(12)[:n]]
    preds = [PREDICATES[i] for i in sorted(rng.choice(len(PREDICATES), size=4, replace=False))]
    observations = {}
    tables = {}
    for p in preds:
        shape = (n,) * p.arity + (p.num_labels,)
        probs = rng.dirichlet(np.ones(p.num_labels), size=shape[:-1])
        table = label_planes(shape) if rng.random() < 0.5 else np.empty(shape)
        table[...] = probs
        tables[p.name] = table
        for args in np.ndindex(*shape[:-1]):
            if rng.random() < 0.3:
                observations[(p.name, args)] = int(rng.integers(p.num_labels))
    kb = KnowledgeBase(entities, {p.name: p for p in preds}, observations)
    queries = None
    if with_queries:
        lines = []
        for _ in range(int(rng.integers(0, 40))):
            p = preds[int(rng.integers(len(preds)))]
            args = ",".join(entities[int(i)] for i in rng.integers(n, size=p.arity))
            lines.append(f"{p.name}({args})")
        lines += lines[:int(rng.integers(0, 5))]                  # duplicate query lines
        queries = load_queries("\n".join(lines), kb)
    return MarginalTable(tables), kb, queries


@pytest.mark.parametrize("with_queries", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_report_matches_per_row_reference(seed, with_queries):
    result, kb, queries = random_case(seed, with_queries)
    want = reference_rows(result, kb, queries)
    assert marginal_rows(result, kb, queries) == want
    assert format_marginals_csv(result, kb, queries) == reference_csv(want)
    assert format_marginals_json(result, kb, queries) == reference_json(want)


def test_reference_cases_cover_the_orders_the_report_sorts_by():
    cases = [random_case(seed, True) for seed in range(30)]
    arities = {p.arity for _, kb, _ in cases for p in kb.predicates.values()}
    assert arities == {0, 1, 2, 3}
    assert any(kb.entities.index("E10") < kb.entities.index("E2")
               for _, kb, _ in cases if {"E10", "E2"} <= set(kb.entities))
    assert any(len(q) > len({(a.predicate.name, a.args) for a in q}) for _, _, q in cases)


def test_json_report_without_rows_and_with_escaped_names():
    on, tag = Predicate("on", 0), Predicate("tag", 1, 3, ('O"', "B\\", "\u00c9"))
    kb = KnowledgeBase(['E"0', "\u00e9\n1"], {"on": on, "tag": tag}, {("tag", (1,)): 2})
    tables = {"on": np.array([0.25, 0.75]),
              "tag": np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])}
    result = MarginalTable(tables)
    want = reference_rows(result, kb)
    assert format_marginals_json(result, kb) == reference_json(want)
    assert '"E\\"0"' in format_marginals_json(result, kb)
    empty = load_queries("", kb)
    assert format_marginals_json(result, kb, empty) == reference_json([]) == "[]\n"
