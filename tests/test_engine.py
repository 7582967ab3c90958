import numpy as np
import pytest

import einlog as E
from einlog.engine import (EngineConfig, EngineError, MarginalTable,
                           Program, UnaryTable, compile_rules, initial_marginals,
                           iterate, message, transitivity_violations)
from einlog.fol import Clause, CnfFormula, Literal, Predicate, binary_literal, variable
from einlog.kb import KnowledgeBase
from einlog.tensor import softmax_lastaxis
from einlog.testing import engine_oracle_gap

C = Predicate("c", 2)
A, B, D = variable("a"), variable("b"), variable("d")
TRANSITIVITY = Clause((binary_literal(C, (A, B), True),
                       binary_literal(C, (B, D), True),
                       binary_literal(C, (A, D))), weight=1.0, id="t")


def trans_kb(n):
    return KnowledgeBase([f"t{i}" for i in range(n)], {"c": C}, {})


def test_compile_transitivity_specs():
    compiled = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(3)).implications
    specs = [str(ci.spec) for ci in compiled]
    assert specs == ["bc,ac->ab", "ab,ac->bc", "ab,bc->ac"]
    assert [ci.target_labels for ci in compiled] == [(0,), (0,), (1,)]
    # premises feed the false-probability slices
    assert [p.complement_labels for p in compiled[2].premises] == [(1,), (1,)]
    assert [p.complement_labels for p in compiled[0].premises] == [(1,), (0,)]


def test_compile_smoke_matches_worked_messages(smoke_rules, smoke_kb):
    table = {(ci.rule_id, ci.hypothesis, ci.target_labels): str(ci.spec)
             for ci in compile_rules(smoke_rules, smoke_kb).implications}
    # smoking spreads along friendship: e1/e2 pair
    assert table[("f1", "smoke", (1,))] == "a,ab->b"
    assert table[("f1", "smoke", (0,))] == "ab,b->a"
    # the cancer equivalence contributes e3/e4 to smoke and two messages to cancer
    assert table[("f2", "smoke", (1,))] == "a->a"
    assert table[("f2", "smoke", (0,))] == "a->a"
    assert table[("f2", "cancer", (1,))] == "a->a"
    assert table[("f2", "cancer", (0,))] == "a->a"


def test_unit_clause_message_is_all_ones():
    p = Predicate("p", 1)
    clause = Clause((binary_literal(p, (A,)),), id="u")
    kb = KnowledgeBase(["x", "y", "z"], {"p": p}, {})
    (ci,) = compile_rules([clause], kb).implications
    assert ci.premises == ()
    q = MarginalTable({"p": np.full((3, 2), 0.5)})
    assert np.array_equal(message(ci, q), np.ones(3))


def test_message_annihilated_by_zero_premise():
    compiled = compile_rules([TRANSITIVITY], trans_kb(2)).implications
    q1 = np.zeros((2, 2))  # no mass on label 1 anywhere
    q = MarginalTable({"c": np.stack([1 - q1, q1], axis=-1)})
    msg = message(compiled[2], q)
    assert np.array_equal(msg, np.zeros((2, 2)))


def test_message_counts_true_premises():
    # three tokens, c(0,1) and c(1,2) certain, everything else 0.5
    q1 = np.full((3, 3), 0.5)
    q1[0, 1] = 1.0
    q1[1, 2] = 1.0
    q = MarginalTable({"c": np.stack([1 - q1, q1], axis=-1)})
    compiled = compile_rules([TRANSITIVITY], trans_kb(3)).implications
    msg = message(compiled[2], q)
    want = np.zeros((3, 3))
    for a in range(3):
        for d in range(3):
            for b in range(3):
                want[a, d] += q1[a, b] * q1[b, d]
    assert np.allclose(msg, want, atol=1e-12)
    assert msg[0, 2] == pytest.approx(1.0 + 0.25 + 0.25)  # includes the certain 1*1 path


def unobserved(kb):
    return KnowledgeBase(kb.entities, kb.predicates, {})


def test_no_rules_returns_softmax(smoke_kb, smoke_phi):
    cfg = EngineConfig(iterations=3)
    out = iterate(smoke_phi, Program(unobserved(smoke_kb), ()), cfg)
    for name, arr in smoke_phi.tables.items():
        assert np.array_equal(out.tables[name], softmax_lastaxis(arr))


def test_zero_weight_rules_leave_softmax_unchanged(smoke_rules, smoke_kb, smoke_phi):
    cfg = EngineConfig(iterations=4, weights={"f1": 0.0, "f2": 0.0})
    out = iterate(smoke_phi, compile_rules(smoke_rules, unobserved(smoke_kb)), cfg)
    for name, arr in smoke_phi.tables.items():
        assert np.allclose(out.tables[name], softmax_lastaxis(arr), atol=0)


def test_normalization_and_clamping_every_iteration(smoke_rules, smoke_kb, smoke_phi):
    for k in range(1, 8):
        m = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=k))
        m.validate(smoke_kb, atol=1e-9)
        assert m.tables["friend"][0, 1, 1] == 1.0  # friend(B,A) observed true
        assert m.tables["friend"][0, 1, 0] == 0.0
        assert m.tables["cancer"][0, 1] == 1.0     # cancer(B) observed true


def test_fixed_point_stability(smoke_rules, smoke_kb, smoke_phi):
    m41, m42 = (E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=k))
                for k in (41, 42))
    assert m42.max_abs_diff(m41) <= 1e-9


def test_full_damping_freezes_marginals(smoke_rules, smoke_kb, smoke_phi):
    cfg = EngineConfig(iterations=3, damping=1.0)
    out = E.run_inference(smoke_rules, smoke_kb, smoke_phi, cfg)
    start = initial_marginals(smoke_phi, smoke_kb)
    assert out.max_abs_diff(start) == 0.0


def test_nonfinite_logits_reported_with_iteration():
    p = Predicate("p", 1)
    kb = KnowledgeBase(["x"], {"p": p}, {})
    phi = UnaryTable({"p": np.array([[0.0, 1e308]])})
    clause = Clause((binary_literal(p, (A,)),), weight=1e308, id="boom")
    program = compile_rules([clause], kb)
    with np.errstate(over="ignore"), pytest.raises(EngineError, match="iteration 1"):
        iterate(phi, program, EngineConfig(iterations=1))


def test_unknown_weight_override_rejected(smoke_rules, smoke_kb, smoke_phi):
    program = compile_rules(smoke_rules, smoke_kb)
    with pytest.raises(EngineError, match="nosuchrule"):
        iterate(smoke_phi, program, EngineConfig(weights={"f1": 2.0, "nosuchrule": 50.0}))


def test_validate_rejects_missing_table(smoke_kb, smoke_phi):
    tables = {k: v for k, v in smoke_phi.tables.items() if k != "cancer"}
    with pytest.raises(EngineError, match="missing unary table for cancer"):
        UnaryTable(tables).validate(smoke_kb)


def test_validate_rejects_wrong_shape(smoke_kb, smoke_phi):
    bad = smoke_phi.copy()
    bad.tables["friend"] = np.zeros((2, 2, 3))
    with pytest.raises(EngineError, match="unary table friend: shape"):
        bad.validate(smoke_kb)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_nonfinite_logit(smoke_kb, smoke_phi, value):
    bad = smoke_phi.copy()
    bad.tables["smoke"][0, 1] = value
    with pytest.raises(EngineError, match="smoke contains non-finite"):
        bad.validate(smoke_kb)


def test_compile_rejects_unknown_predicate():
    ghost = Predicate("ghost", 1)
    clause = Clause((binary_literal(ghost, (A,)),))
    with pytest.raises(EngineError, match="not in knowledge base"):
        compile_rules([clause], trans_kb(2))


def test_compile_rejects_mismatched_declaration():
    other = Predicate("c", 2, 3, ("x", "y", "z"))
    clause = Clause((Literal(other, (A, B), frozenset({1})),))
    with pytest.raises(EngineError, match="differs"):
        compile_rules([clause], trans_kb(2))


def test_constant_argument_sliced_and_scattered():
    p = Predicate("p", 2)
    r = Predicate("r", 1)
    kb = KnowledgeBase(["u", "v", "w"], {"p": p, "r": r}, {})
    from einlog.fol import constant
    clause = Clause((binary_literal(p, (A, constant("v")), True),
                     binary_literal(r, (A,))), id="k")
    compiled = compile_rules([clause], kb).implications
    ci_r = next(ci for ci in compiled if ci.hypothesis == "r")
    assert ci_r.premises[0].const_slices == ((1, 1),)
    q1 = np.array([[0.1, 0.9, 0.3], [0.2, 0.5, 0.7], [0.8, 0.4, 0.6]])
    q = MarginalTable({"p": np.stack([1 - q1, q1], axis=-1),
                       "r": np.full((3, 2), 0.5)})
    msg = message(ci_r, q)
    assert np.allclose(msg, q1[:, 1], atol=1e-12)  # column for constant v

    ci_p = next(ci for ci in compiled if ci.hypothesis == "p")
    logits = {"p": np.zeros((3, 3, 2)), "r": np.zeros((3, 2))}
    phi = UnaryTable(logits)
    out = iterate(phi, Program(kb, (ci_p,)), EngineConfig(iterations=1))
    changed = ~np.isclose(out.tables["p"][..., 1], 0.5)
    assert changed[:, 1].all() and not changed[:, 0].any() and not changed[:, 2].any()


def test_repeated_variable_hypothesis_hits_diagonal():
    p = Predicate("p", 2)
    r = Predicate("r", 1)
    kb = KnowledgeBase(["u", "v"], {"p": p, "r": r}, {})
    clause = Clause((binary_literal(r, (A,), True), binary_literal(p, (A, A))), id="d")
    compiled = compile_rules([clause], kb).implications
    ci = next(ci for ci in compiled if ci.hypothesis == "p")
    phi = UnaryTable({"p": np.zeros((2, 2, 2)), "r": np.zeros((2, 2))})
    out = iterate(phi, Program(kb, (ci,)), EngineConfig(iterations=1))
    off_diag = out.tables["p"][0, 1, 1], out.tables["p"][1, 0, 1]
    assert np.allclose(off_diag, 0.5)
    assert out.tables["p"][0, 0, 1] > 0.5 and out.tables["p"][1, 1, 1] > 0.5


def test_transitivity_violations_examples():
    block = np.zeros((4, 4, 2))
    ids = np.array([0, 0, 1, 1])
    truth = (ids[:, None] == ids[None, :]).astype(float)
    block[..., 1] = truth
    block[..., 0] = 1 - truth
    assert transitivity_violations(block) == 0

    q = np.zeros((3, 3, 2))
    q[..., 0] = 1.0
    for cell in [(0, 1), (1, 2)]:
        q[cell][0] = 0.0
        q[cell][1] = 1.0
    assert transitivity_violations(q) >= 1

    rng = np.random.default_rng(0)
    probs = rng.random((8, 8))
    q = np.stack([1 - probs, probs], axis=-1)
    b = (probs > 0.5).astype(int)
    count = 0
    for a in range(8):
        for m in range(8):
            for c in range(8):
                if b[a, m] and b[m, c] and not b[a, c]:
                    count += 1
    assert transitivity_violations(q) == count

    with pytest.raises(EngineError, match="shape"):
        transitivity_violations(np.zeros((3, 3, 3)))


def test_cnf_equals_split_clauses_bitwise(smoke_kb, smoke_phi, smoke_rules):
    cnf = smoke_rules[1]
    assert len(cnf.clauses) == 2
    split = [CnfFormula((cl,), weight=cnf.weight, id=f"s{i}")
             for i, cl in enumerate(cnf.clauses)]
    a = E.run_inference([smoke_rules[0], cnf], smoke_kb, smoke_phi,
                        EngineConfig(iterations=3))
    b = E.run_inference([smoke_rules[0], *split], smoke_kb, smoke_phi,
                        EngineConfig(iterations=3))
    for name in smoke_kb.predicates:
        assert np.array_equal(a.tables[name], b.tables[name])


def test_multiclass_message_reduces_to_binary_slices():
    # D=2 with singleton value sets must reproduce slice-based binary messages
    p = Predicate("p", 2)
    r = Predicate("r", 1)
    kb = KnowledgeBase(["u", "v", "w"], {"p": p, "r": r}, {})
    clause = Clause((Literal(p, (A, B), frozenset({0})),
                     Literal(r, (B,), frozenset({1}))), id="m")
    (ci0, ci1) = compile_rules([clause], kb).implications
    rng = np.random.default_rng(5)
    qp = softmax_lastaxis(rng.normal(size=(3, 3, 2)))
    qr = softmax_lastaxis(rng.normal(size=(3, 2)))
    q = MarginalTable({"p": qp, "r": qr})
    from einlog import planner
    # binary reference: premise factors as direct opposite-label slices
    ref0 = planner.execute(ci0.plan, [qr[..., 0]])
    ref1 = planner.execute(ci1.plan, [qp[..., 1]])
    assert np.array_equal(message(ci0, q), ref0)
    assert np.array_equal(message(ci1, q), ref1)


def test_engine_handles_arity_zero_predicate():
    flag = Predicate("flag", 0)
    r = Predicate("r", 1)
    kb = KnowledgeBase(["u", "v"], {"flag": flag, "r": r}, {})
    clause = Clause((binary_literal(flag, (), True), binary_literal(r, (A,))), id="z")
    program = compile_rules([clause], kb)
    phi = UnaryTable({"flag": np.array([0.0, 2.0]), "r": np.zeros((2, 2))})
    out = iterate(phi, program, EngineConfig(iterations=2))
    out.validate(kb)
    assert out.tables["r"][:, 1].min() > 0.5  # the confident flag pushes r up


# Hypothesis shapes that random_instance never draws: each rule is one clause,
# so every literal in it becomes a hypothesis in turn.
SHAPE_DECLS = """\
predicate flag()
predicate r(e)
predicate k(e) labels {A,B,C}
predicate p(e,e)
predicate t(e,e,e)
"""
SCATTER_SHAPES = {
    "constant": "!r(a) | p(a,E1)",
    "constant-only, multi-label": "!r(a) | k(E2) in {A,B}",
    "repeated variable": "!r(a) | p(a,a)",
    "repeated variable and constant": "!r(a) | t(a,E0,a)",
    "free hypothesis variable": "!p(a,b) | t(a,b,c)",
    "arity-0 hypothesis": "!r(a) | flag()",
    "arity-0 premise": "!flag() | k(a) in {C}",
}


@pytest.mark.parametrize("rule", SCATTER_SHAPES.values(), ids=SCATTER_SHAPES.keys())
def test_scatter_shapes_match_oracle(rule):
    rules = E.parse_rules(SHAPE_DECLS + rule)
    kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
    rng = np.random.default_rng(9)
    for _ in range(5):
        phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                          for name, p in kb.predicates.items()})
        assert engine_oracle_gap(kb, rules, phi) <= 1e-9
    program = compile_rules(rules, kb)
    out = iterate(phi, program, EngineConfig(iterations=1))
    for ci in program.implications:  # every message landed somewhere
        free = softmax_lastaxis(phi.tables[ci.hypothesis])
        assert not np.array_equal(out.tables[ci.hypothesis], free)


def test_scatter_index_is_basic_unless_a_variable_repeats():
    rules = E.parse_rules(SHAPE_DECLS + "\n".join(SCATTER_SHAPES.values()))
    kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
    fancy = []
    for ci in compile_rules(rules, kb).implications:
        variable_args = sum(1 for i in ci.scatter if not isinstance(i, int))
        if variable_args > len(ci.spec.output):  # a variable repeats
            fancy.append(ci)
        else:
            assert all(isinstance(i, (slice, int)) for i in ci.scatter), str(ci.spec)
    assert sorted(ci.hypothesis for ci in fancy) == ["p", "t"]
    assert all(isinstance(i, (np.ndarray, int)) for ci in fancy for i in ci.scatter)


@pytest.mark.parametrize("rule", ["!r(a) | !p(a,b) | r(b)",
                                  "!k(a) in {A,C} | !p(a,E1) | r(a)",
                                  "!t(a,E0,E2) | r(a)"])
def test_gather_returns_fresh_contiguous_array(rule):
    rules = E.parse_rules(SHAPE_DECLS + rule)
    kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
    q = initial_marginals(UnaryTable.zeros(kb), kb)
    for ci in compile_rules(rules, kb).implications:
        for premise in ci.premises:
            table = q.tables[premise.predicate]
            out = premise.gather(table)
            assert not np.shares_memory(out, table)
            assert out.flags.c_contiguous and out.ndim == len(premise.subscript)
