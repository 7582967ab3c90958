import json

import numpy as np
import pytest

import einlog as E
from einlog.engine import EngineConfig, UnaryTable
from einlog.io import format_marginals_csv, format_marginals_json, load_predictions, load_unary
from einlog.kb import EvidenceError, load_evidence, load_queries
from helpers import report_rows, same_bytes


def test_unary_defaults_to_zero(smoke_kb):
    phi = load_unary("smoke(A) 0.5 -0.5\n", smoke_kb)
    assert np.allclose(phi.tables["smoke"][1], [0.5, -0.5])
    assert np.allclose(phi.tables["smoke"][0], [0.0, 0.0])
    assert np.allclose(phi.tables["friend"], 0.0)


class _Reductions(np.ndarray):
    """An array that records the element count of every reduction over it."""

    counts: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "reduce":
            self.counts.append(inputs[0].size)
        inputs = [np.asarray(x) if isinstance(x, _Reductions) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_validate_reads_one_slice_of_a_broadcast_zero():
    # validate reduces a zero-stride axis over one slice; every axis of this
    # 16 GB table has stride 0, so it reads one value, not 2e9
    pred = E.Predicate("p", 3)
    kb = E.KnowledgeBase([f"E{i}" for i in range(1000)], {"p": pred}, {})
    table = np.broadcast_to(0.0, (1000, 1000, 1000, 2)).view(_Reductions)
    _Reductions.counts = []
    assert UnaryTable({"p": table}).extremes(kb) == {"p": (0.0, 0.0)}
    assert _Reductions.counts and max(_Reductions.counts) == 1


def _kbc_texts(workloads):
    """The benchmark's kbc rules at N=5, with evidence and unary lines for
    rel, link and kind, so tri and active are listed by no line."""
    rng = np.random.default_rng(5)
    names = [f"E{i}" for i in range(5)]
    cells = [(a, b) for a in names for b in names]
    evidence = [f"{'' if rng.random() < 0.5 else '!'}rel({a},{b})"
                for a, b in cells if rng.random() < 0.3]
    evidence += [f"kind({names[0]})=K2", f"link({names[1]},{names[2]})"]
    unary = [f"{p}({a},{b}) {rng.normal():.3f} {rng.normal():.3f}"
             for p in ("rel", "link") for a, b in cells if rng.random() < 0.6]
    unary += [f"kind({a}) " + " ".join(f"{x:.3f}" for x in rng.normal(size=5)) for a in names]
    rules = E.parse_rules(workloads.KBC_RULES)
    kb = load_evidence("\n".join(evidence), rules.predicates, names)
    return rules, kb, "\n".join(unary)


@pytest.mark.parametrize("rule_set", ["smoke", "kbc"])
@pytest.mark.parametrize("listed", [False, True])
def test_broadcast_zero_unary_solves_as_zeros(smoke_rules, smoke_kb, workloads, rule_set,
                                              listed):
    if rule_set == "smoke":
        rules, kb, text = smoke_rules, smoke_kb, "smoke(A) 0.5 -0.5\n"
    else:
        rules, kb, text = _kbc_texts(workloads)
    phi = load_unary(text if listed else "", kb)
    zeros = UnaryTable.zeros(kb).tables
    dense = UnaryTable({name: zeros[name] if 0 in table.strides else table
                        for name, table in phi.tables.items()})
    assert any(0 in table.strides for table in phi.tables.values())
    for config in (EngineConfig(iterations=1), EngineConfig(iterations=4, damping=0.3)):
        assert same_bytes(E.run_inference(rules, kb, phi, config),
                          E.run_inference(rules, kb, dense, config))


def test_unary_errors(smoke_kb):
    with pytest.raises(EvidenceError, match="logits"):
        load_unary("smoke(A) 0.5\n", smoke_kb)
    with pytest.raises(EvidenceError, match="duplicate"):
        load_unary("smoke(A) 1 2\nsmoke(A) 1 2\n", smoke_kb)
    with pytest.raises(EvidenceError, match="bad logit"):
        load_unary("smoke(A) a b\n", smoke_kb)
    with pytest.raises(EvidenceError, match="unknown entity"):
        load_unary("smoke(Q) 1 2\n", smoke_kb)


def test_marginal_rows_cover_all_cells_flagging_observed(smoke_rules, smoke_kb, smoke_phi):
    result = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=2))
    rows = report_rows(result, smoke_kb)
    # binary predicates: one row per cell (2 + 4 + 2 cells)
    assert len(rows) == 8
    unobserved = [r for r in rows if r[4] == 0]
    observed = [r for r in rows if r[4] == 1]
    assert len(unobserved) == 6 and len(observed) == 2
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    for r in observed:
        assert r[3] == 1.0  # both observed facts are true


def test_csv_format_has_nine_decimals(smoke_rules, smoke_kb, smoke_phi):
    result = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=2))
    text = format_marginals_csv(result, smoke_kb)
    line = text.splitlines()[0]
    prob_field = line.split(",")[-2]
    assert len(prob_field.split(".")[1]) == 9


def test_json_mirrors_csv_records(smoke_rules, smoke_kb, smoke_phi):
    result = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=2))
    records = json.loads(format_marginals_json(result, smoke_kb))
    rows = report_rows(result, smoke_kb)
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        assert rec["predicate"] == row[0]
        assert tuple(rec["args"]) == row[1]
        assert rec["probability"] == pytest.approx(row[3], abs=1e-9)
        assert rec["observed"] == bool(row[4])


def test_queries_restrict_rows(smoke_rules, smoke_kb, smoke_phi):
    result = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=2))
    queries = load_queries("smoke(A)\nfriend(B,A)\n", smoke_kb)
    rows = report_rows(result, smoke_kb, queries)
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("friend", ("B", "A"), 1), ("smoke", ("A",), 0)]


def test_multiclass_rows_list_every_label():
    from einlog.fol import Predicate
    from einlog.kb import KnowledgeBase
    from einlog.engine import MarginalTable
    pred = Predicate("tag", 1, 3, ("O", "B", "I"))
    kb = KnowledgeBase(["w"], {"tag": pred}, {})
    result = MarginalTable({"tag": np.array([[0.2, 0.5, 0.3]])})
    rows = report_rows(result, kb)
    assert [(r[2], r[3]) for r in rows] == [("B", 0.5), ("I", 0.3), ("O", 0.2)]


def test_prediction_loader(smoke_kb):
    preds = load_predictions("smoke(A) 0.9\nsmoke(B) 0.4\n", smoke_kb)
    assert preds[("smoke", (1,))] == 0.9
    with pytest.raises(EvidenceError):
        load_predictions("smoke(A)\n", smoke_kb)
    with pytest.raises(EvidenceError, match="duplicate"):
        load_predictions("smoke(A) 1\nsmoke(A) 2\n", smoke_kb)


# Each reader gets a comment line, one good line, then the atom under test.
ATOM_READERS = {
    "evidence": lambda kb, atom: load_evidence(f"#\nsmoke(A)\n{atom}\n", kb.predicates),
    "queries": lambda kb, atom: load_queries(f"#\nsmoke(A)\n{atom}\n", kb),
    "unary": lambda kb, atom: load_unary(f"#\nsmoke(A) 0 0\n{atom} 0 0\n", kb),
    "predictions": lambda kb, atom: load_predictions(f"#\nsmoke(A) 1\n{atom} 0\n", kb),
}


ATOM_ERRORS = [
    ("smoke(Q)", "unknown entity 'Q'"),
    ("friend(A)", "friend expects 2 args, got 1"),
    ("friend(A,,B)", "malformed atom 'friend(A,,B)'"),
    ("friend(,A)", "malformed atom 'friend(,A)'"),
    ("cancer(B,)", "malformed atom 'cancer(B,)'"),
    ("ghost(A)", "undeclared predicate 'ghost'"),
]


# evidence numbers new entities, so it has no unknown-entity case
@pytest.mark.parametrize("reader,atom,message", [
    (reader, atom, message) for reader in sorted(ATOM_READERS) for atom, message in ATOM_ERRORS
    if (reader, atom) != ("evidence", "smoke(Q)")])
def test_atom_reader_errors_name_their_line(smoke_kb, reader, atom, message):
    with pytest.raises(EvidenceError) as err:
        ATOM_READERS[reader](smoke_kb, atom)
    assert str(err.value) == f"line 3: {message}"
