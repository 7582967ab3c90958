import pytest

from einlog.fol import Predicate
from einlog.kb import (EvidenceError, KnowledgeBase, load_evidence, load_queries,
                       variable_universe)

SMOKE_PREDS = [Predicate("smoke", 1), Predicate("friend", 2), Predicate("cancer", 1)]


def test_smoke_example_counts():
    kb = load_evidence("friend(B,A)\ncancer(B)\n", SMOKE_PREDS)
    assert kb.n == 2
    assert len(kb.observations) == 2
    # 2 + 4 + 2 cells minus two observed
    assert sum(variable_universe(kb).values()) == 6
    assert variable_universe(kb) == {"smoke": 2, "friend": 3, "cancer": 1}
    # latent + observed cells account for every cell of every predicate
    observed_per = {name: 0 for name in kb.predicates}
    for (name, _args) in kb.observations:
        observed_per[name] += 1
    for name, pred in kb.predicates.items():
        assert variable_universe(kb)[name] + observed_per[name] == kb.n ** pred.arity


def test_duplicate_line_is_idempotent():
    kb = load_evidence("friend(B,A)\nfriend(B,A)\n", SMOKE_PREDS)
    assert len(kb.observations) == 1


def test_conflicting_duplicate_rejected():
    with pytest.raises(EvidenceError, match="conflicting"):
        load_evidence("friend(B,A)\n!friend(B,A)\n", SMOKE_PREDS)


def test_empty_file_without_seed_entities_fails():
    with pytest.raises(EvidenceError, match="empty entity domain"):
        load_evidence("", SMOKE_PREDS)


def test_seed_entities_allow_empty_evidence():
    kb = load_evidence("", SMOKE_PREDS, entities=["A", "B", "C"])
    assert kb.n == 3
    assert variable_universe(kb)["friend"] == 9


def test_seed_entities_keep_their_indices():
    kb = load_evidence("friend(D,B)\nsmoke(C)\nsmoke(D)\n", SMOKE_PREDS,
                       entities=["A", "B"])
    assert kb.entities == ("A", "B", "D", "C")
    assert kb.observed_label("friend", (2, 1)) == 1
    assert kb.observed_label("smoke", (3,)) == 1


def test_repeated_seed_entity_rejected():
    with pytest.raises(EvidenceError, match="duplicate entity names"):
        load_evidence("smoke(C)\n", SMOKE_PREDS, entities=["A", "B", "A"])


def test_negative_evidence_and_multiclass_labels():
    preds = SMOKE_PREDS + [Predicate("label", 1, 3, ("O", "B", "I"))]
    kb = load_evidence("!smoke(A)\nlabel(A)=B\n", preds)
    assert kb.observed_label("smoke", (0,)) == 0
    assert kb.observed_label("label", (0,)) == 1


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


def test_fully_observed_predicate_has_zero_latents():
    preds = [Predicate("p", 1)]
    kb = load_evidence("p(A)\n!p(B)\n", preds)
    assert variable_universe(kb)["p"] == 0


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
