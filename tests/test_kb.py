import pickle

import numpy as np
import pytest

import einlog as E
from einlog.engine import EngineConfig, UnaryTable, compile_rules, initial_marginals, iterate
from einlog.fol import Predicate, parse_rules
from einlog.io import report_columns
from einlog.kb import EvidenceError, KnowledgeBase, flat_cells, load_evidence, load_queries

from helpers import chained_oracle, max_abs_diff

SMOKE_PREDS = [Predicate("smoke", 1), Predicate("friend", 2), Predicate("cancer", 1)]


def _latent_cells(kb):
    """Number of unobserved ground atoms per predicate, read from the masks."""
    return {name: int(np.count_nonzero(~m.mask)) for name, m in kb.masks().items()}


def test_smoke_example_counts():
    kb = load_evidence("friend(B,A)\ncancer(B)\n", SMOKE_PREDS)
    assert kb.n == 2
    assert len(kb.observations) == 2
    # 2 + 4 + 2 cells minus two observed
    assert sum(_latent_cells(kb).values()) == 6
    assert _latent_cells(kb) == {"smoke": 2, "friend": 3, "cancer": 1}
    # latent + observed cells account for every cell of every predicate
    observed_per = {name: 0 for name in kb.predicates}
    for (name, _args) in kb.observations:
        observed_per[name] += 1
    for name, pred in kb.predicates.items():
        assert _latent_cells(kb)[name] + observed_per[name] == kb.n ** pred.arity


def test_duplicate_line_is_idempotent():
    kb = load_evidence("friend(B,A)\nfriend(B,A)\n", SMOKE_PREDS)
    assert len(kb.observations) == 1


def test_conflicting_duplicate_rejected():
    with pytest.raises(EvidenceError, match="conflicting"):
        load_evidence("friend(B,A)\n!friend(B,A)\n", SMOKE_PREDS)


def test_empty_file_without_seed_entities_fails():
    with pytest.raises(EvidenceError, match="empty entity domain"):
        load_evidence("", SMOKE_PREDS)


ARGUMENT_FREE_RULES = """\
predicate rain()
predicate wet()
predicate alarm()
predicate mood() labels {LOW,MID,HIGH}
1.5: !rain() | wet()
-0.8: wet() => alarm()
mood() in {HIGH} | !alarm()
(mood() in {LOW,MID} | rain()) & (!wet() | mood() in {MID,HIGH})
"""


def test_argument_free_rules_need_no_entity_and_match_the_chained_oracle():
    rules = parse_rules(ARGUMENT_FREE_RULES)
    kb = load_evidence("rain()\n!alarm()\n", rules.predicates)
    assert kb.entities == () and kb.n == 0
    rng = np.random.default_rng(5)
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    got = iterate(phi, compile_rules(rules, kb), EngineConfig(iterations=3, damping=0.3))
    assert max_abs_diff(got, chained_oracle(phi, rules, kb, 3, 0.3)) <= 1e-9
    assert max_abs_diff(got, initial_marginals(phi, kb)) > 1e-3
    assert got.tables["rain"].tolist() == [0.0, 1.0] and got.tables["alarm"].tolist() == [1.0, 0.0]
    # one predicate that takes an argument needs an entity
    for make in (lambda: KnowledgeBase((), {p.name: p for p in SMOKE_PREDS}, {}),
                 lambda: load_evidence("", SMOKE_PREDS),
                 lambda: load_evidence("rain()\n", [*rules.predicates.values(), *SMOKE_PREDS])):
        with pytest.raises(EvidenceError) as err:
            make()
        assert str(err.value) == "empty entity domain: no entities seeded or observed"


def test_seed_entities_allow_empty_evidence():
    kb = load_evidence("", SMOKE_PREDS, entities=["A", "B", "C"])
    assert kb.n == 3
    assert _latent_cells(kb)["friend"] == 9


def test_seed_entities_keep_their_indices():
    kb = load_evidence("friend(D,B)\nsmoke(C)\nsmoke(D)\n", SMOKE_PREDS,
                       entities=["A", "B"])
    assert kb.entities == ("A", "B", "D", "C")
    assert kb.observations[("friend", (2, 1))] == 1
    assert kb.observations[("smoke", (3,))] == 1
    assert kb.masks()["friend"].labels[2, 1] == 1 and kb.masks()["smoke"].labels[3] == 1
    assert ("smoke", (0,)) not in kb.observations and kb.masks()["smoke"].labels[0] == -1


def test_repeated_seed_entity_rejected():
    with pytest.raises(EvidenceError, match="duplicate entity names"):
        load_evidence("smoke(C)\n", SMOKE_PREDS, entities=["A", "B", "A"])
    # the constructor's own check, which load_evidence's seed check comes before
    with pytest.raises(EvidenceError) as err:
        KnowledgeBase(["A", "B", "A"], {}, {})
    assert str(err.value) == "duplicate entity names"


@pytest.mark.parametrize("observed, error", [
    ({"f": (np.array([[0, 1, 1]]), np.array([1]))}, "observation arity mismatch for f"),
    ({"t": (np.array([[0]]), np.array([3]))}, "observation label out of range for t"),
    ({"f": (np.array([[0, 1], [1, 0], [0, 1]]), np.array([1, 0, 0]))},
     "repeated observation cell for f"),
])
def test_knowledge_base_checks_per_predicate_arrays(observed, error):
    preds = {"f": Predicate("f", 2), "t": Predicate("t", 1, 3, ("A", "B", "C"))}
    with pytest.raises(EvidenceError) as err:
        KnowledgeBase(["A", "B"], preds, observed)
    assert str(err.value) == error


def test_negative_evidence_and_multiclass_labels():
    preds = SMOKE_PREDS + [Predicate("label", 1, 3, ("O", "B", "I"))]
    kb = load_evidence("!smoke(A)\nlabel(A)=B\n", preds)
    assert kb.observations[("smoke", (0,))] == 0
    assert kb.observations[("label", (0,))] == 1
    assert kb.masks()["smoke"].labels[0] == 0 and kb.masks()["label"].labels[0] == 1


def test_multiclass_requires_label():
    preds = [Predicate("label", 1, 3, ("O", "B", "I"))]
    with pytest.raises(EvidenceError, match="=LABEL"):
        load_evidence("label(A)\n", preds)


@pytest.mark.parametrize("line,fragment", [
    ("friend(A)", "expects 2 args"),
    ("ghost(A)", "undeclared"),
    ("friend(A, B)", "malformed"),
    ("smoke(A)=5", "label index 5 out of range"),
    ("!smoke(A)=1", "cannot be combined"),
])
def test_evidence_errors(line, fragment):
    with pytest.raises(EvidenceError, match=fragment):
        load_evidence(line + "\n", SMOKE_PREDS)


def test_order_insensitive_observation_set():
    a = load_evidence("friend(B,A)\ncancer(B)\n!smoke(A)\n", SMOKE_PREDS)
    b = load_evidence("!smoke(A)\ncancer(B)\nfriend(B,A)\n", SMOKE_PREDS)
    named_a = {(p, tuple(a.entities[i] for i in args), v)
               for (p, args), v in a.observations.items()}
    named_b = {(p, tuple(b.entities[i] for i in args), v)
               for (p, args), v in b.observations.items()}
    assert named_a == named_b
    # entity indexing follows first occurrence
    assert a.entities == ("B", "A")
    assert b.entities == ("A", "B")


def test_masks_mark_observed_cells():
    kb = load_evidence("friend(B,A)\ncancer(B)\n", SMOKE_PREDS)
    masks = kb.masks()
    assert masks["friend"].mask.sum() == 1
    assert masks["friend"].labels[0, 1] == 1
    assert masks["friend"].labels[1, 0] == -1
    assert masks["smoke"].mask.sum() == 0


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "never observed"])
@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_masks_and_report_flags_match_full_tables(arity, observed):
    n, pred = 3, Predicate("p", arity, 3)
    rng = np.random.default_rng(arity)
    facts = {}
    if observed:
        facts = {("p", cell): int(rng.integers(3)) for cell in np.ndindex(*(n,) * arity)
                 if rng.random() < 0.5}
        facts.setdefault(("p", (0,) * arity), 2)
    kb = KnowledgeBase(["A", "B", "C"], {"p": pred}, facts)
    cells, labels = kb.observed["p"]
    # the masks as one full table each, as they were always built
    want = np.full(n ** arity, -1, np.int8)
    want[flat_cells(cells, n)] = labels
    want = want.reshape((n,) * arity)
    m = kb.masks()["p"]
    assert m.labels.dtype == np.int8 and m.mask.dtype == bool
    assert np.array_equal(m.labels, want) and np.array_equal(m.mask, want >= 0)
    for arr in (m.mask, m.labels):
        assert arr.shape == (n,) * arity and not arr.flags.writeable
    # a never-observed predicate holds no table: its masks are views of one value
    if arity:
        assert all(step == 0 for step in m.mask.strides + m.labels.strides) != observed
    result = E.initial_marginals(E.UnaryTable.zeros(kb), kb)
    (columns,) = report_columns(result, kb)
    assert np.array_equal(columns.observed,
                          (want >= 0).reshape(-1)[flat_cells(columns.cells, n)])
    assert columns.observed.sum() == 3 * len(labels)


def test_fully_observed_predicate_has_zero_latents():
    preds = [Predicate("p", 1)]
    kb = load_evidence("p(A)\n!p(B)\n", preds)
    assert _latent_cells(kb)["p"] == 0


def test_observation_arrays_are_read_only():
    cells = np.array([[0, 1]])
    labels = np.array([1])
    kb = KnowledgeBase(["A", "B"], {"friend": SMOKE_PREDS[1]}, {"friend": (cells, labels)})
    m = kb.masks()["friend"]
    for arr in (m.mask, m.labels, *kb.observed["friend"]):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
    with pytest.raises(AttributeError):
        m.mask = m.mask.copy()
    # the knowledge base keeps its own copies of the caller's arrays
    cells[0, 1], labels[0] = 0, 0
    assert kb.observations == {("friend", (0, 1)): 1}
    assert kb.masks()["friend"].labels[0, 1] == 1


def test_masks_dict_is_a_copy():
    rules = E.parse_rules("predicate p(t)\npredicate q(t)\n1.0: !p(a) | q(a)\n")
    kb = load_evidence("!p(X)\n", rules.predicates)
    assert kb.masks() is not kb.masks() and kb.masks() == kb.masks()
    program = E.compile_rules(rules, kb)
    phi = E.UnaryTable.zeros(kb)
    before = E.iterate(phi, program, E.EngineConfig(iterations=3)).tables["p"]
    assert before.tolist() == [[1.0, 0.0]]
    kb.masks().pop("p")
    kb.masks()["q"] = kb.masks()["p"]
    after = E.iterate(phi, program, E.EngineConfig(iterations=3)).tables["p"]
    assert np.array_equal(after, before)
    assert pickle.loads(pickle.dumps(kb)).masks().keys() == {"p", "q"}


def test_queries_roundtrip():
    kb = load_evidence("friend(B,A)\ncancer(B)\n", SMOKE_PREDS)
    atoms = load_queries("smoke(A)\nfriend(A,B)\n", kb)
    assert [(a.predicate.name, a.args) for a in atoms] == [("smoke", (1,)), ("friend", (1, 0))]
    with pytest.raises(EvidenceError):
        load_queries("!smoke(A)\n", kb)
    with pytest.raises(EvidenceError, match="unknown entity"):
        load_queries("smoke(Z)\n", kb)


def test_kb_validates_observations():
    with pytest.raises(EvidenceError):
        KnowledgeBase(["A"], {"p": Predicate("p", 1)}, {("p", (3,)): 1})
    with pytest.raises(EvidenceError):
        KnowledgeBase(["A"], {"p": Predicate("p", 1)}, {("q", (0,)): 1})
