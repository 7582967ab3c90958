"""The array-built report against the per-row report it replaced."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlog as E
from einlog import io
from einlog.engine import MarginalTable
from einlog.fol import Predicate
from einlog.io import format_marginals_csv, format_marginals_json, report_columns
from einlog.kb import GroundAtom, KnowledgeBase, Queries, load_queries
from einlog.tensor import label_planes
from helpers import report_rows


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
    assert report_rows(result, kb, queries) == want
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


def test_csv_report_with_non_ascii_names():
    # one to four UTF-8 bytes per character, and names of mixed byte lengths
    on, tag = Predicate("on", 0), Predicate("t\u00e4g", 1, 3, ("\u00d6", "B", "\u6c34\u00df"))
    link = Predicate("link", 2)
    entities = ["\u00e9", "A", "\u4e2d\u6587", "\U0001f600x", "Zz\u00e9\u00e9\u00e9"]
    kb = KnowledgeBase(entities, {p.name: p for p in (on, tag, link)},
                       {("t\u00e4g", (2,)): 2, ("link", (3, 0)): 1})
    rng = np.random.default_rng(5)
    tables = {"on": np.array([0.25, 0.75]),
              "t\u00e4g": rng.dirichlet(np.ones(3), size=5),
              "link": rng.dirichlet(np.ones(2), size=(5, 5))}
    result = MarginalTable(tables)
    want = reference_rows(result, kb)
    assert format_marginals_csv(result, kb) == reference_csv(want)
    # query lines link(\U0001f600x,\u00e9), t\u00e4g(\u4e2d\u6587), link(A,A),
    # link(\U0001f600x,\u00e9), t\u00e4g(\u4e2d\u6587), which the atom syntax cannot spell
    queries = Queries(kb, np.array([2, 1, 2, 2, 1]),
                      {"on": np.empty((0, 0), np.int64), "t\u00e4g": np.array([[2], [2]]),
                       "link": np.array([[3, 0], [1, 1], [3, 0]])})
    assert format_marginals_csv(result, kb, queries) == reference_csv(
        reference_rows(result, kb, queries))


def _nudged(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


# k / 1e9 and (k + 1/2) / 1e9, each a few ulps off; the edges of [0, 1] and
# values just under 1 that round up to 1.000000000; subnormals; values
# outside [0, 1]; non-finite values
PROBABILITIES = st.one_of(
    st.builds(lambda k, half, steps: _nudged((k + half) / 1e9, steps),
              st.integers(0, 10 ** 9), st.sampled_from([0.0, 0.5]), st.integers(-4, 4)),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                     0.9999999995, 1 - 1e-10, float(np.nextafter(1.0, 0.0)),
                     1.0000000001, -1e-12, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.floats(1.0, 1e12), st.floats(-1e12, 0.0),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(PROBABILITIES, min_size=1, max_size=40), st.sampled_from([1, 3, 8192]))
@example([1.5e-09], 8192)         # rint(1.5) = 2, the f-string's 0.000000001
def test_probability_bytes_match_the_f_string(values, block_rows):
    n = len(values)
    kb = KnowledgeBase([f"E{i:02d}" for i in range(n)], {"on": Predicate("on", 1)},
                       {("on", (n - 1,)): 1})
    table = np.zeros((n, 2))
    table[:, 1] = values
    want = "".join(f"on,E{i:02d},1,{p:.9f},{int(i == n - 1)}\n" for i, p in enumerate(values))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "CSV_BLOCK_ROWS", block_rows)
        assert format_marginals_csv(MarginalTable({"on": table}), kb) == want


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_csv_blocks_cut_anywhere(block_rows, monkeypatch):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", block_rows)
    for seed in range(10):
        result, kb, queries = random_case(seed, seed % 2 == 1)
        assert format_marginals_csv(result, kb, queries) == reference_csv(
            reference_rows(result, kb, queries))


def test_report_columns_are_typed_arrays_in_name_order():
    result, kb, _ = random_case(3, False)
    columns = report_columns(result, kb)
    assert [c.predicate.name for c in columns] == sorted(kb.predicates)
    for c in columns:
        rows = len(c.labels)
        assert c.cells.shape == (rows, c.predicate.arity)
        assert c.probability.dtype == np.float64 and c.observed.dtype == bool
        assert c.probability.shape == c.observed.shape == (rows,)


@pytest.mark.parametrize("name,n", [("transitivity", None), ("kbc", None), ("report", 40)])
def test_benchmark_reports_equal_the_per_row_reference(workloads, name, n):
    inst = workloads.make(name, 11, n)
    s = workloads.setup(inst, inst.texts.__getitem__)
    result = E.run_inference(s.rules, s.kb, s.phi, E.EngineConfig(iterations=inst.iterations))
    assert format_marginals_csv(result, s.kb, s.queries) == reference_csv(
        reference_rows(result, s.kb, s.queries))
