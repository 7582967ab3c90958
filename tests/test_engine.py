import gc
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import einlog as E
from einlog import engine, parallel, planner
from einlog.engine import (EngineConfig, EngineError, IterationTrace, MarginalTable,
                           PremiseInput, Program, UnaryTable, _add_messages, compile_rules,
                           initial_marginals, iterate, message, transitivity_violations)
from einlog.fol import (Clause, CnfFormula, Literal, Predicate, binary_literal, constant,
                        merge_literals, normalize_rules, split_cnf, variable)
from einlog.kb import KnowledgeBase
from einlog.tensor import softmax_lastaxis
from einlog.testing import ORACLE_TOL, engine_oracle_gap, random_instance

from helpers import (STEP_KINDS, apart, chained_oracle, copy_unary, max_abs_diff, same_bytes,
                     step_kind)

C = Predicate("c", 2)
A, B, D = variable("a"), variable("b"), variable("d")
TRANSITIVITY = Clause((binary_literal(C, (A, B), True),
                       binary_literal(C, (B, D), True),
                       binary_literal(C, (A, D))), weight=1.0, id="t")


def trans_kb(n):
    return KnowledgeBase([f"t{i}" for i in range(n)], {"c": C}, {})


def test_compile_transitivity_specs():
    compiled = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(2)).implications
    specs = [str(ci.plan.spec) for ci in compiled]
    assert specs == ["bc,ac->ab", "ab,ac->bc", "ab,bc->ac"]
    assert [ci.target_labels for ci in compiled] == [(0,), (0,), (1,)]
    assert [ci.coefficient for ci in compiled] == [1.0, 1.0, 1.0]
    # premises feed the false-probability slices
    assert [p.complement_labels for p in compiled[2].premises] == [(1,), (1,)]
    assert [p.complement_labels for p in compiled[0].premises] == [(1,), (0,)]
    # from N = 3 on, each label-0 literal compiles to a pair: the product
    # reading q1 with coefficient -1, then the ones term with N^0; the first
    # product folds into the last as its summed partner
    compiled = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(3)).implications
    assert [(str(ci.plan.spec), ci.coefficient) for ci in compiled] == [
        ("bc->ab", 1.0), ("ab,ac->bc", -1.0), ("ab->bc", 1.0), ("ab,bc->ac", 1.0)]
    partner = compiled[-1].partner
    assert (str(partner.plan.spec), partner.coefficient) == ("bc,ac->ab", -1.0)
    assert [p.complement_labels for p in partner.premises] == [(1,), (1,)]


def test_compile_smoke_matches_worked_messages(smoke_rules, smoke_kb):
    table = {(ci.rule_id, ci.hypothesis, ci.target_labels): str(ci.plan.spec)
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
    msg = message(ci, q)
    assert msg.shape == (1,)
    assert np.array_equal(np.broadcast_to(msg, (3,)), np.ones(3))


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
    msg = message(replace(compiled[-1], partner=None), q)
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
    program = Program(unobserved(smoke_kb), ())
    out = iterate(smoke_phi, program, cfg)
    want = _reference_iterate(smoke_phi, program, cfg)
    for name, arr in smoke_phi.tables.items():
        assert np.array_equal(want[name], softmax_lastaxis(arr))
        assert _is_label_plane(out.tables[name])
        assert np.max(np.abs(out.tables[name] - want[name])) <= 1e-12


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
    assert max_abs_diff(m42, m41) <= 1e-9


def test_full_damping_freezes_marginals(smoke_rules, smoke_kb, smoke_phi):
    cfg = EngineConfig(iterations=3, damping=1.0)
    out = E.run_inference(smoke_rules, smoke_kb, smoke_phi, cfg)
    start = initial_marginals(smoke_phi, smoke_kb)
    assert max_abs_diff(out, start) == 0.0


def test_nonfinite_logits_reported_with_iteration():
    p = Predicate("p", 1)
    kb = KnowledgeBase(["x"], {"p": p}, {})
    phi = UnaryTable({"p": np.array([[0.0, 1e308]])})
    clause = Clause((binary_literal(p, (A,)),), weight=1e308, id="boom")
    program = compile_rules([clause], kb)
    with np.errstate(over="ignore"), pytest.raises(EngineError, match="iteration 1"):
        iterate(phi, program, EngineConfig(iterations=1))


@pytest.mark.parametrize("rules", [
    "1e308: !p(X)\n1e308: !p(X)\n",  # two label-0 messages: x0 - x1 = +inf
    "1e308: !q(b) | p(X)\n1e308: !q(b) | !p(X)\n",  # 2 * 1e308 either way: inf - inf
], ids=["+inf", "nan"])
def test_nonfinite_logits_of_any_kind_reported_with_iteration(rules):
    # only cell X goes non-finite; p(Y) keeps its finite logit
    ruleset = E.parse_rules("predicate p(t)\npredicate q(t)\n" + rules)
    kb = KnowledgeBase(["X", "Y"], ruleset.predicates, {("q", (0,)): 1, ("q", (1,)): 1})
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(EngineError, match="non-finite logits for p at iteration 1"):
        iterate(UnaryTable.zeros(kb), compile_rules(ruleset, kb), EngineConfig(iterations=1))


@given(seed=st.integers(0, 2**32 - 1), damping=st.sampled_from([0.0, 0.3]),
       iterations=st.integers(1, 3), override=st.one_of(st.none(), st.floats(-20.0, 20.0)))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _logits_within_bound(seen, seed, damping, iterations, override):
    kb, rules, phi = random_instance(np.random.default_rng(seed), max_entities=4,
                                     max_predicates=3, max_arity=2, max_clauses=4)
    weights = {} if override is None else {rules[0].id: override}
    program = compile_rules(rules, kb)
    peaks = {name: [] for name in kb.predicates}
    original = engine._normalize

    def normalize(tables, planes):
        for name, arr in tables.items():
            peaks[name].append(float(np.max(np.abs(arr))))
        return original(tables, planes)

    trace = IterationTrace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_normalize", normalize)
        iterate(phi, program, EngineConfig(iterations, weights=weights, damping=damping),
                trace)
    seen["damped"] += damping > 0.0
    seen["multi-class"] += any(p.num_labels > 2 for p in kb.predicates.values())
    seen["summed"] += any(ci.partner is not None for ci in program.implications)
    seen["override"] += bool(weights)
    for name, bound in trace.bounds.items():
        assert bound < engine.LOGIT_LIMIT
        # the bound is of exact arithmetic: a marginal an ulp above 1, as
        # damping can make, may move a logit by a few ulps
        assert max(peaks[name], default=0.0) <= bound * (1.0 + 1e-12), name


def test_logits_never_exceed_their_bound():
    seen = {"damped": 0, "multi-class": 0, "summed": 0, "override": 0}
    _logits_within_bound(seen)
    assert all(seen.values()), seen


def test_bound_above_the_limit_keeps_the_finite_check(smoke_rules, smoke_kb, smoke_phi,
                                                      monkeypatch):
    # weight 1e305 times one grounding: the bound of p is 1e305, and its
    # logits, -1e305, stay finite; q gets no message
    ruleset = E.parse_rules("predicate p(t,t)\npredicate q(t)\n1e305: p(a,b)\n")
    kb = KnowledgeBase(["X", "Y"], ruleset.predicates, {("q", (0,)): 1})
    checked = []
    original = engine._finite

    def finite(arr):
        checked.append(arr.shape)
        return original(arr)

    monkeypatch.setattr(engine, "_finite", finite)
    trace = IterationTrace()
    result = iterate(UnaryTable.zeros(kb), compile_rules(ruleset, kb),
                     EngineConfig(iterations=3), trace)
    assert trace.bounds == {"p": 1e305, "q": 0.0}
    # only p's plane is checked, once in each iteration that ran
    assert checked == [(2, 2)] * len(trace.seconds)
    assert np.all(result.tables["p"][..., 1] == 1.0)
    # a bound far below the limit skips the check
    checked.clear()
    iterate(smoke_phi, compile_rules(smoke_rules, smoke_kb), EngineConfig(iterations=3))
    assert checked == []


def test_unknown_weight_override_rejected(smoke_rules, smoke_kb, smoke_phi):
    program = compile_rules(smoke_rules, smoke_kb)
    with pytest.raises(EngineError, match="nosuchrule"):
        iterate(smoke_phi, program, EngineConfig(weights={"f1": 2.0, "nosuchrule": 50.0}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_weight_override_rejected(value):
    with pytest.raises(EngineError, match="non-finite weight override for rule id f2"):
        EngineConfig(weights={"f1": 2.0, "f2": value})


@pytest.mark.parametrize("value", [2.5, 2.0, "3"])
def test_non_integer_iterations_rejected(value):
    with pytest.raises(EngineError, match="iterations must be an integer"):
        EngineConfig(iterations=value)


def test_iterate_rejects_misshaped_unary_table():
    # a (1,3,2) table would broadcast against p's (3,3) cells
    p = Predicate("p", 2)
    kb = KnowledgeBase(["x", "y", "z"], {"p": p}, {})
    program = compile_rules([Clause((binary_literal(p, (A, B)),), weight=1.0, id="u")], kb)
    phi = UnaryTable({"p": np.zeros((1, 3, 2))})
    with pytest.raises(EngineError, match=r"unary table p: shape \(1, 3, 2\)"):
        iterate(phi, program, EngineConfig(iterations=1))


def test_oracle_gap_overrides_rules_without_ids():
    # the engine names a bare clause and an unnamed formula by position, so
    # the oracle side must apply the overrides to the same rules
    s = Predicate("s", 1)
    kb = KnowledgeBase([f"E{i}" for i in range(3)], {"c": C, "s": s}, {})
    bare = Clause(TRANSITIVITY.literals, weight=1.0)
    unnamed = CnfFormula((Clause((binary_literal(C, (A, B), True), binary_literal(s, (B,)))),),
                         weight=0.7)
    rng = np.random.default_rng(5)
    phi = UnaryTable({"c": rng.normal(size=(3, 3, 2)), "s": rng.normal(size=(3, 2))})
    assert engine_oracle_gap(kb, [bare, unnamed], phi, {"f1": 3.0, "f2": -1.5}) <= 1e-9


def test_validate_rejects_missing_table(smoke_kb, smoke_phi):
    tables = {k: v for k, v in smoke_phi.tables.items() if k != "cancer"}
    with pytest.raises(EngineError, match="missing unary table for cancer"):
        UnaryTable(tables).validate(smoke_kb)


def test_validate_rejects_table_for_unknown_predicate(smoke_kb, smoke_phi):
    tables = {**UnaryTable.zeros(smoke_kb).tables, "ghost": np.zeros(3)}
    with pytest.raises(EngineError, match="unary table for unknown predicate ghost"):
        UnaryTable(tables).validate(smoke_kb)


def test_validate_rejects_wrong_shape(smoke_kb, smoke_phi):
    bad = copy_unary(smoke_phi)
    bad.tables["friend"] = np.zeros((2, 2, 3))
    with pytest.raises(EngineError, match="unary table friend: shape"):
        bad.validate(smoke_kb)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_nonfinite_logit(smoke_kb, smoke_phi, value):
    bad = copy_unary(smoke_phi)
    bad.tables["smoke"][0, 1] = value
    with pytest.raises(EngineError, match="smoke contains non-finite"):
        bad.validate(smoke_kb)


@pytest.mark.parametrize("fill", ["all", "one"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_marginal_validate_rejects_nonfinite_values(smoke_kb, smoke_phi, value, fill):
    q = initial_marginals(smoke_phi, smoke_kb).validate(smoke_kb)
    if fill == "all":   # every comparison with NaN is False, so only min/max catch it
        q.tables["smoke"][...] = value
    else:
        q.tables["smoke"][0, 1] = value
    with pytest.raises(EngineError, match="marginals of smoke contain non-finite values"):
        q.validate(smoke_kb)


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
        if variable_args > len(ci.plan.spec.output):  # a variable repeats
            fancy.append(ci)
        else:
            assert all(isinstance(i, (slice, int)) for i in ci.scatter), str(ci.plan.spec)
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


def _reference_softmax(arr):
    """The reduction form; it matches the slice loops bit for bit below 8 labels."""
    e = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _reference_iterate(phi, program, config):
    """Mean field on fresh C-order tables each iteration, one gather per
    premise and one message per implication, a summed one's two apart."""
    masks = program.kb.masks()

    def clamp(tables):
        for name, m in masks.items():
            tables[name][m.mask] = np.eye(tables[name].shape[-1])[m.labels[m.mask]]

    q = {name: _reference_softmax(arr) for name, arr in phi.tables.items()}
    clamp(q)
    for _ in range(config.iterations):
        logits = {name: np.array(arr, order="C") for name, arr in phi.tables.items()}
        for ci in apart(program.implications):
            arrays = [p.gather(q[p.predicate]) for p in ci.premises]
            w = config.weights.get(ci.rule_id, ci.weight) * ci.coefficient
            weighted = w * planner.execute(ci.plan, arrays)
            for label in ci.target_labels:
                logits[ci.hypothesis][ci.scatter + (label,)] += weighted
        new_q = {name: _reference_softmax(arr) for name, arr in logits.items()}
        if config.damping > 0.0:
            lam = config.damping
            new_q = {name: (1.0 - lam) * arr + lam * q[name] for name, arr in new_q.items()}
        clamp(new_q)
        q = new_q
    return q


def _is_label_plane(table):
    return np.moveaxis(table, -1, 0).flags.c_contiguous


def _assert_matches_reference(phi, program, config):
    got = iterate(phi, program, config)
    want = _reference_iterate(phi, program, config)
    assert got.tables.keys() == want.keys()
    for name, pred in program.kb.predicates.items():
        table = got.tables[name]
        assert _is_label_plane(table), name
        assert np.max(np.abs(table - want[name])) <= 1e-12, name
        if pred.num_labels == 2:
            assert np.array_equal(table[..., 0], 1.0 - table[..., 1]), name


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("iterations", [1, 3, 5])
def test_iterate_matches_c_order_reference_bitwise(iterations, damping):
    rng = np.random.default_rng(40 + iterations)
    for _ in range(12):
        kb, rules, phi = random_instance(rng, max_entities=5, max_arity=3)
        program = compile_rules(rules, kb)
        # binary predicates run as one plane, so agreement is to rounding
        _assert_matches_reference(phi, program, EngineConfig(iterations, damping=damping))
    assert all(_is_label_plane(t) for t in initial_marginals(phi, kb).tables.values())
    assert all(_is_label_plane(t) for t in UnaryTable.zeros(kb).tables.values())


def _stored(result: MarginalTable) -> MarginalTable:
    """What ``iterate`` stores: label 1 of a binary table, a table whole."""
    return MarginalTable({name: t[..., 1] if t.shape[-1] == 2 else t
                          for name, t in result.tables.items()})


def test_trace_residual_is_the_change_between_iterations(smoke_rules, smoke_kb, smoke_phi):
    trace = IterationTrace()
    E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=6), trace)
    assert len(trace.residual) == len(trace.seconds) == 6
    prev = initial_marginals(smoke_phi, smoke_kb)
    for k in range(1, 7):
        cur = E.run_inference(smoke_rules, smoke_kb, smoke_phi, EngineConfig(iterations=k))
        assert trace.residual[k - 1] == max_abs_diff(_stored(cur), _stored(prev))
        prev = cur
    assert 0.0 < trace.residual[-1] < trace.residual[0]


# The rule file of the benchmark's knowledge-base-completion workload.
KBC_RULES = """\
predicate active()
predicate kind(ent) labels {K0,K1,K2,K3,K4}
predicate link(ent,ent)
predicate rel(ent,ent)
predicate tri(ent,ent,ent)
2.0: (!link(a,b) | rel(a,b)) & (link(a,b) | !rel(a,b))
!rel(a,b) | tri(a,b,c)
!tri(a,b,c) | !rel(b,c) | rel(a,c)
!active() | !rel(a,b) | rel(b,a)
!rel(E0,b) | kind(b) in {K0,K1}
!kind(a) in {K2} | !rel(a,b) | kind(b) in {K2,K3}
!link(a,b) | !rel(b,c) | !link(c,d) | rel(a,d)
"""


def _kbc_instance(n, seed=3):
    rules = E.parse_rules(KBC_RULES)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
    rng = np.random.default_rng(seed)
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    return rules, kb, phi


def test_one_gather_per_distinct_premise_key(monkeypatch):
    rules, kb, phi = _kbc_instance(4)
    program = compile_rules(rules, kb)
    premises = [p for ci in program.implications for p in ci.premises]
    keys = {p.key for p in premises}
    # the expanded tri premise reads q1 under its label-1 key, and its ones
    # term reads no premise, so ('tri', (), (0,)) is never gathered
    assert (len(premises), len(keys)) == (38, 10)
    assert ("tri", (), (0,)) not in keys and ("tri", (), (1,)) in keys

    # each iteration gathers each distinct key once per scheduled message
    scheduled, _, _ = engine._schedule(program, tuple(ci.weight for ci in program.implications),
                                       phi.extremes(kb), engine._storage(kb)[2])
    per_iteration = sorted(key for step in scheduled
                           for key in {p.key for p in step.implication.premises})
    calls = []
    original = PremiseInput.gather

    def counting(self, table):
        calls.append(self.key)
        return original(self, table)

    monkeypatch.setattr(PremiseInput, "gather", counting)
    for iterations in (1, 3):
        calls.clear()
        iterate(phi, program, EngineConfig(iterations=iterations))
        assert sorted(calls) == sorted(per_iteration * iterations)


def test_chain_steps_of_workload_rules_run_as_gemm():
    rules, kb, _ = _kbc_instance(4)
    steps = [(ci.rule_id, s) for ci in compile_rules(rules, kb).implications
             for s in ci.plan.steps]
    # the 4-literal chain: two matrix products per implication
    assert sum(s.kernel == "gemm" for _, s in steps) == 8
    assert all(s.kernel == "gemm" for rid, s in steps if rid == "f7")
    trans = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(5)).implications
    # each label-0 literal also has its ones term, a single-operand row sum;
    # the summed Q @ Q runs its partner's product too
    assert [s.kernel for ci in apart(trans) for s in ci.plan.steps] == [
        "einsum", "gemm", "einsum", "gemm", "gemm"]


def test_broadcast_message_keeps_its_contracted_size():
    rules, kb, phi = _kbc_instance(4)
    program = compile_rules(rules, kb)
    (ci,) = [ci for ci in program.implications
             if ci.rule_id == "f2" and ci.hypothesis == "tri"]
    assert str(ci.plan.spec) == "ab->abc"
    assert message(ci, initial_marginals(phi, kb)).shape == (4, 4, 1)
    config = EngineConfig(iterations=3)
    got = iterate(phi, program, config)
    want = _reference_iterate(phi, program, config)
    assert all(np.max(np.abs(got.tables[name] - want[name])) <= 1e-12 for name in want)


def test_weighting_leaves_shared_gathered_input_unchanged(monkeypatch):
    # the r and s messages are views of their gathered p(a,b) complements,
    # and neither weight is 1
    rules = E.parse_rules("predicate p(t,t)\npredicate r(t,t)\npredicate s(t,t)\n"
                          "2.5: !p(a,b) | r(a,b)\n0.5: !p(a,b) | s(a,b)\n")
    kb = KnowledgeBase([f"E{i}" for i in range(3)], rules.predicates, {})
    program = compile_rules(rules, kb)
    rng = np.random.default_rng(1)
    q = initial_marginals(UnaryTable({name: rng.normal(size=(3, 3, 2)) for name in "prs"}), kb)
    gathered = []
    original = PremiseInput.gather

    def recording(self, table):
        out = original(self, table)
        gathered.append((self.key, out, out.copy()))
        return out

    monkeypatch.setattr(PremiseInput, "gather", recording)
    logits = UnaryTable.zeros(kb).tables
    snapshot = q.copy()
    steps, _, _ = engine._schedule(program, tuple(ci.weight * ci.coefficient
                                                  for ci in program.implications), {}, frozenset())
    _add_messages(logits, q, steps)
    assert all(np.array_equal(out, before) for _, out, before in gathered)
    # a message without contraction may alias the live snapshot q itself
    assert all(np.array_equal(q.tables[name], snapshot.tables[name]) for name in q.tables)
    want = UnaryTable.zeros(kb).tables
    for ci in program.implications:
        weighted = ci.weight * ci.coefficient * planner.execute(
            ci.plan, [original(p, q.tables[p.predicate]) for p in ci.premises])
        for label in ci.target_labels:
            want[ci.hypothesis][ci.scatter + (label,)] += weighted
    assert all(np.array_equal(logits[name], want[name]) for name in want)


def test_iterate_memory_does_not_grow_with_iterations():
    rules, kb, phi = _kbc_instance(48)
    program = compile_rules(rules, kb)
    table_bytes = phi.tables["tri"].nbytes

    def peak(iterations):
        tracemalloc.start()
        try:
            iterate(phi, program, EngineConfig(iterations=iterations))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) <= peak(2) + table_bytes


# --- binary predicates as one plane -----------------------------------------

def _with_evidence(kb, rng, share=0.3):
    """The same domain with a random share of every predicate's cells observed."""
    observations = {}
    for name, p in kb.predicates.items():
        for cell in np.ndindex(*kb.shape(p)):
            if rng.random() < share:
                observations[(name, cell)] = int(rng.integers(p.num_labels))
    return KnowledgeBase(kb.entities, kb.predicates, observations)


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("rule", [*SCATTER_SHAPES.values(), "\n".join(SCATTER_SHAPES.values())],
                         ids=[*SCATTER_SHAPES.keys(), "all shapes"])
def test_scatter_shapes_match_two_plane_reference(rule, damping):
    rules = E.parse_rules(SHAPE_DECLS + rule)
    rng = np.random.default_rng(21)
    kb = _with_evidence(KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {}), rng)
    assert any(m.mask.any() for m in kb.masks().values())
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    _assert_matches_reference(phi, compile_rules(rules, kb), EngineConfig(3, damping=damping))


def test_saturated_logit_difference_gives_exact_marginals():
    p = Predicate("p", 1)
    kb = KnowledgeBase(["x", "y", "z"], {"p": p}, {})
    phi = UnaryTable({"p": np.array([[0.0, 800.0], [800.0, 0.0], [0.0, 700.0]])})
    program = compile_rules([Clause((binary_literal(p, (A,)),), weight=50.0, id="u")], kb)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = iterate(phi, program, EngineConfig(iterations=2))
        start = initial_marginals(phi, kb)
    # |x0 - x1| is 850, 750 and 750 after the +50 message
    assert out.tables["p"].tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    assert start.tables["p"].tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_overflowing_label_spread_fails_validation():
    # each cell's label logits are finite, but their difference is not, so
    # normalizing would overflow; a wide spread across cells is fine
    for labels, cell in ((2, [-1e308, 1e308]), (3, [1e308, -1e308, 0.0])):
        kb = KnowledgeBase(["x", "y"], {"p": Predicate("p", 1, labels)}, {})
        phi = UnaryTable({"p": np.array([cell, [0.0] * labels])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            UnaryTable({"p": np.array([[1e308] * labels, [-1e308] * labels])}).validate(kb)
            for run in (lambda: phi.validate(kb), lambda: initial_marginals(phi, kb),
                        lambda: iterate(phi, Program(kb, ()), EngineConfig(iterations=1))):
                with pytest.raises(EngineError, match="unary table p: the label logits of a cell"):
                    run()


def test_strided_constant_slice_feeds_a_symmetric_product_one_copy(monkeypatch):
    # c(a,E1,b) read twice: its q1 slice is strided, so gather copies it, and
    # the main product of h gets that one copy as both operands
    rules = E.parse_rules("predicate c(t,t,t)\npredicate h(t,t)\n"
                          "c(a,E1,b) | !c(d,E1,b) | h(a,d)\n")
    kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
    (main,) = [ci for ci in compile_rules(rules, kb).implications
               if ci.hypothesis == "h" and ci.coefficient == -1.0]
    assert main.symmetric and {p.key for p in main.premises} == {("c", ((1, 1),), (1,))}
    operands = []
    original = planner.execute

    def recording(cplan, arrays, out=None):
        operands.append(list(arrays))
        return original(cplan, arrays, out=out)

    monkeypatch.setattr(planner, "execute", recording)
    q1 = np.random.default_rng(5).random((4, 4, 4))
    got = message(main, MarginalTable({"c": q1, "h": np.zeros((4, 4))}))
    ((left, right),) = operands
    assert left is right and left.flags.c_contiguous and not np.shares_memory(left, q1)
    assert np.max(np.abs(got - q1[:, 1] @ q1[:, 1].T)) <= 1e-12


def test_gather_from_a_binary_plane():
    rules = E.parse_rules(SHAPE_DECLS + "!p(a,b) | r(a)\np(a,b) | r(a)\n"
                          "!p(a,E1) | r(a)\n!p(E1,b) | r(b)\n!flag() | r(a)\n")
    kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
    rng = np.random.default_rng(3)
    planes = {"p": rng.random((4, 4)), "r": rng.random(4), "flag": np.array(0.25)}
    seen = set()
    for ci in compile_rules(rules, kb).implications:
        for premise in ci.premises:
            q1 = planes[premise.predicate]
            cells = [slice(None)] * q1.ndim
            for axis, pos in premise.const_slices:
                cells[axis] = pos
            want = q1[tuple(cells)]
            out = premise.gather(q1)
            if premise.complement_labels == (0,):
                want = 1.0 - want
                assert not np.shares_memory(out, q1)
            else:
                # a contiguous slice is q1 itself; a strided one is copied
                assert np.shares_memory(out, q1) == want.flags.c_contiguous
            assert np.array_equal(out, want)
            assert np.asarray(out).flags.c_contiguous
            seen.add((premise.predicate, premise.complement_labels, premise.const_slices))
    assert {(1,), (0,)} <= {labels for _, labels, _ in seen}
    assert {((1, 1),), ((0, 1),)} <= {consts for _, _, consts in seen}


def test_one_plane_weighting_leaves_aliased_snapshot_unchanged():
    # the r and s messages read p's label-1 plane itself, through one view
    rules = E.parse_rules("predicate p(t,t)\npredicate r(t,t)\npredicate s(t,t)\n"
                          "2.5: !p(a,b) | r(a,b)\n0.5: !p(a,b) | !s(a,b)\n")
    kb = KnowledgeBase([f"E{i}" for i in range(3)], rules.predicates, {})
    program = compile_rules(rules, kb)
    rng = np.random.default_rng(2)
    q1 = {name: rng.random((3, 3)) for name in "prs"}
    snapshot = {name: arr.copy() for name, arr in q1.items()}
    diff = {name: np.zeros((3, 3)) for name in "prs"}
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    on_planes, _, _ = engine._schedule(program, weights, {}, frozenset("prs"))
    _add_messages(diff, MarginalTable(q1), on_planes)
    assert all(np.array_equal(q1[name], snapshot[name]) for name in q1)
    # the same messages added to two label planes give x0 - x1 exactly
    q = MarginalTable({name: np.stack([1.0 - arr, arr], axis=-1) for name, arr in q1.items()})
    logits = {name: np.zeros((3, 3, 2)) for name in "prs"}
    _add_messages(logits, q, engine._schedule(program, weights, {}, frozenset())[0])
    for name in "prs":
        assert np.array_equal(diff[name], logits[name][..., 0] - logits[name][..., 1])
    assert np.array_equal(diff["r"], -2.5 * q1["p"]) and np.array_equal(diff["s"], 0.5 * q1["p"])


def _argmax_changes(new, old, kb):
    return sum(int(np.count_nonzero((new.tables[name].argmax(-1) != old.tables[name].argmax(-1))
                                    & ~kb.masks()[name].mask))
               for name in kb.predicates)


def test_trace_counts_latent_cells_whose_argmax_changed(smoke_rules, smoke_kb, smoke_phi):
    rules, kb, phi = _kbc_instance(6, seed=8)
    kb = _with_evidence(kb, np.random.default_rng(8))
    for rules, kb, phi in [(smoke_rules, smoke_kb, smoke_phi), (rules, kb, phi)]:
        trace = IterationTrace()
        E.run_inference(rules, kb, phi, EngineConfig(iterations=5), trace)
        assert len(trace.changed) == 5
        prev = initial_marginals(phi, kb)
        for k in range(1, 6):
            cur = E.run_inference(rules, kb, phi, EngineConfig(iterations=k))
            assert trace.changed[k - 1] == _argmax_changes(cur, prev, kb)
            prev = cur
    assert trace.changed[0] > 0     # the kbc rules move some argmax at once


def _two_label_record(q, new, planes):
    """Residual and argmax changes from both labels of each binary plane,
    ``q1`` and ``1 - q1``, as the expanded tables hold them."""
    residual, changed = 0.0, 0
    for name, arr in new.items():
        old = q[name]
        if name in planes:
            pairs = ((arr, old), (1.0 - arr, 1.0 - old))
            moved = (arr > 1.0 - arr) != (old > 1.0 - old)
        else:
            pairs = ((arr, old),)
            moved = arr.argmax(axis=-1) != old.argmax(axis=-1)
        residual = max(residual, *(float(np.max(np.abs(a - b))) for a, b in pairs))
        changed += int(np.count_nonzero(moved))
    return residual, changed


def _record_state(rng, edges, near_half):
    """Binary planes whose cells are half drawn from ``edges``, half random
    (or within a few ulps of 0.5), and a 3-label table."""
    def plane(shape):
        other = 0.5 + rng.normal(0.0, 1e-16, shape) if near_half else rng.random(shape)
        return np.where(rng.random(shape) < 0.5, rng.choice(edges, shape), other)
    return {"p": plane((5, 5)), "t": plane((5, 5, 5)), "flag": plane(()),
            "k": softmax_lastaxis(rng.normal(size=(5, 3)))}


def test_record_matches_the_two_label_formula():
    # 0, 1, 0.5 and their neighbours up to 3 ulps away, where 1 - q1 rounds
    edges = [0.0, 1.0, 0.5, 0.25, 0.75, 2.0 ** -60, FLUSH]
    for x in (0.0, 0.5, 1.0):
        below = above = x
        for _ in range(3):
            below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
            edges += [v for v in (below, above) if 0.0 <= v <= 1.0]
    rng = np.random.default_rng(14)
    planes = frozenset({"p", "t", "flag"})
    below_two_label = 0
    for trial in range(40):
        q = _record_state(rng, edges, trial % 2)
        new = _record_state(rng, edges, trial % 2)
        if trial % 4 == 0:   # the same state but for a few cells
            q["t"][0, :, 1] = rng.uniform(0.25, 0.5, 5)
            new = {name: arr.copy() for name, arr in q.items()}
            # one ulp up below 0.5: 1 - q1 moves by twice as much, or not at all
            new["t"][0, :, 1] = (np.nextafter(q["t"][0, :, 1], 2.0) if trial % 8
                                 else rng.choice(edges, 5))
        trace = IterationTrace()
        engine._record(trace, q, new, planes)
        residual, changed = _two_label_record(q, new, planes)
        assert trace.changed[0] == changed
        # the residual is over the stored q1, so it drops only what the two
        # roundings of 1 - q1 and one of their difference add
        assert trace.residual[0] == max(float(np.max(np.abs(new[name] - q[name])))
                                        for name in new)
        assert residual - 3 * 2.0 ** -53 <= trace.residual[0] <= residual
        assert type(trace.residual[0]) is float and type(trace.changed[0]) is int
        below_two_label += trace.residual[0] < residual
    assert below_two_label > 0   # the one-ulp steps below 0.5


# --- summed 1 - q1 premises compiled into N^k - sum q1 pairs ----------------

def _unfolded(rules, kb):
    """The implications of ``rules`` in compile order, before summed pairs
    fold (see ``engine._fold_sums``)."""
    return [ci for formula in normalize_rules(rules) for clause in split_cnf(formula)
            for ci in engine._compile_clause(clause, kb, formula.id)]


def _pairs(implications):
    """Each expanded literal's two implications: the one reading ``q1`` with
    coefficient -1, and its ones term, compiled right after it."""
    implications = list(implications)
    return [(ci, implications[k + 1]) for k, ci in enumerate(implications)
            if ci.coefficient == -1.0]


def _expanded(rules, n):
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
    return _pairs(_unfolded(rules, kb))


def _unexpanded_premises(main, ones):
    """The premises of the literal a pair came from: the one ``ones`` lacks,
    which ``main`` reads as ``q1``, read as ``1 - q1`` again."""
    (i,) = [i for i, p in enumerate(main.premises) if p.complement_labels == (1,)
            and main.premises[:i] + main.premises[i + 1:] == ones.premises]
    return (*main.premises[:i], replace(main.premises[i], complement_labels=(0,)),
            *main.premises[i + 1:])


@pytest.mark.parametrize("n", [2, 128])
def test_only_the_summed_tri_premise_of_kbc_expands(workloads, n):
    rules = E.parse_rules(workloads.KBC_RULES)
    ((main, ones),) = _expanded(rules, n)
    assert (main.hypothesis, str(main.plan.spec), main.coefficient) == ("rel", "abc->ab", -1.0)
    assert [p.key for p in main.premises] == [("tri", (), (1,))]
    assert (ones.hypothesis, str(ones.plan.spec), ones.coefficient) == ("rel", "->ab", float(n))
    assert ones.premises == () and ones.plan.total_cost == 0
    assert main.target_labels == ones.target_labels == (0,)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
    assert sum(ci.coefficient != 1.0 for ci in compile_rules(rules, kb).implications) == 2


@pytest.mark.parametrize("n", [9, 1024])
@pytest.mark.parametrize("name", ["TRANSITIVITY_RULES", "REPORT_RULES"])
def test_no_transitivity_or_report_implication_expands(workloads, name, n):
    # transitivity expands exactly its two label-0 implications, whose main
    # plans are symmetric products and whose ones terms have N^0 = 1; report
    # expands none
    want = {"TRANSITIVITY_RULES": [("bc,ac->ab", "bc->ab"), ("ab,ac->bc", "ab->bc")],
            "REPORT_RULES": []}[name]
    expanded = _expanded(E.parse_rules(getattr(workloads, name)), n)
    assert [(str(main.plan.spec), str(ones.plan.spec)) for main, ones in expanded] == want
    assert all(main.target_labels == ones.target_labels == (0,) and main.symmetric
               and ones.coefficient == 1.0 and not ones.symmetric
               for main, ones in expanded)


def test_only_a_symmetric_main_product_tips_the_decision():
    # N^2 saved cells plus half the N^3 product beat the N^2 ones plan plus
    # the N^2 core from N = 3 on.  With another predicate in the product, or
    # with Q @ Q (neither operand transposed), the main plan is an ordinary
    # matrix product and the size test declines
    trans = E.parse_rules("predicate c(t,t)\n!c(a,b) | !c(b,c) | c(a,c)\n")
    assert _expanded(trans, 2) == [] and len(_expanded(trans, 3)) == 2
    for rule in ("!c(a,b) | !c(b,c) | d(a,c)", "!c(a,b) | c(b,c) | d(a,c)"):
        rules = E.parse_rules(f"predicate c(t,t)\npredicate d(t,t)\n{rule}\n")
        assert _expanded(rules, 3) == [] == _expanded(rules, 1024), rule


def test_symmetric_message_agrees_with_the_complement_product(monkeypatch):
    n = 64
    rng = np.random.default_rng(64)
    q1 = rng.random((n, n))
    operands = []
    original = planner.execute

    def recording(cplan, arrays, out=None):
        operands.append(list(arrays))
        return original(cplan, arrays, out=out)

    monkeypatch.setattr(planner, "execute", recording)
    want = [(1.0 - q1) @ q1.T, q1.T @ (1.0 - q1)]
    pairs = _pairs(_unfolded([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(n)))
    assert len(pairs) == 2
    for (main, ones), ref in zip(pairs, want):
        assert main.symmetric
        operands.clear()
        planes = MarginalTable({"c": q1})
        got = (main.coefficient * message(main, planes)
               + ones.coefficient * message(ones, planes))
        assert np.max(np.abs(got - ref)) <= 1e-12
        # the main product reads one buffer twice, as numpy's symmetric
        # matmul path needs, and the ones term reads a view of that buffer
        main_ops, ones_ops = operands
        assert main_ops[0] is main_ops[1] and np.shares_memory(main_ops[0], q1)
        assert len(ones_ops) == 1 and np.shares_memory(ones_ops[0], main_ops[0])


def test_message_on_public_tables_is_the_unexpanded_contraction(workloads):
    # every implication, before summed pairs fold, is an ordinary
    # contraction on either storage; an expanded pair's coefficient-weighted
    # sum is the contraction over 1 - q1 it came from
    rng = np.random.default_rng(6)
    instances = [_kbc_instance(5)]
    for text in (workloads.TRANSITIVITY_RULES,
                 SHAPE_DECLS + "\n".join(EXPANDING_SHAPES.values())):
        rules = E.parse_rules(text)
        kb = KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {})
        instances.append((rules, kb, UnaryTable({
            name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
            for name, p in kb.predicates.items()})))
    checked = 0
    for rules, kb, phi in instances:
        program = compile_rules(rules, kb)
        q = iterate(phi, program, EngineConfig(iterations=2))
        planes = MarginalTable({name: t[..., 1] if kb.predicates[name].num_labels == 2
                                else t for name, t in q.tables.items()})
        implications = _unfolded(rules, kb)
        for ci in implications:
            want = planner.execute(ci.plan, [p.gather(q.tables[p.predicate])
                                             for p in ci.premises])
            assert np.array_equal(message(ci, q), want)
            assert np.max(np.abs(message(ci, planes) - want)) <= 1e-12
        for main, ones in _pairs(implications):
            unexpanded = _unexpanded_premises(main, ones)
            for tables in (q, planes):
                want = planner.execute(main.plan, [p.gather(tables.tables[p.predicate])
                                                   for p in unexpanded])
                got = (main.coefficient * message(main, tables)
                       + ones.coefficient * message(ones, tables))
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12
                checked += 1
    # kbc 1 pair, transitivity 2, the expanding shapes at least one each
    assert checked >= 2 * (1 + 2 + len(EXPANDING_SHAPES))


EXPANDING_SHAPES = {
    "arity-2 sum": "!r(a) | p(a,b)",
    "repeated variable": "!r(a) | t(a,b,b)",
    "constant": "!r(a) | t(a,E1,c)",
    "beside another premise": "!r(a) | !p(a,b) | t(a,b,c)",
    "broadcast hypothesis": "!p(a,d) | r(b)",
    "two-clause CNF": "2.0: (!r(a) | p(a,b)) & (!p(a,b) | t(a,b,c))",
}


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("rule", EXPANDING_SHAPES.values(), ids=EXPANDING_SHAPES.keys())
def test_expanded_shapes_match_reference_and_chained_oracle(rule, damping):
    rules = E.parse_rules(SHAPE_DECLS + rule)
    rng = np.random.default_rng(27)
    kb = _with_evidence(KnowledgeBase([f"E{i}" for i in range(4)], rules.predicates, {}), rng)
    program = compile_rules(rules, kb)
    assert _pairs(program.implications)
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    config = EngineConfig(3, damping=damping)
    _assert_matches_reference(phi, program, config)
    got = iterate(phi, program, config)
    assert max_abs_diff(got, chained_oracle(phi, rules, kb, 3, damping)) <= 1e-9


# --- q1 planes flushed below sqrt(tiny) ---------------------------------------

FLUSH = np.sqrt(np.finfo(np.float64).tiny)


@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_no_nonzero_q1_below_the_flush_threshold(damping):
    rules = E.parse_rules(SHAPE_DECLS + "30.0: !p(a,b) | !p(b,c) | p(a,c)\n"
                          "20.0: !r(a) | !p(a,b) | t(a,b,c)\n5.0: p(a,b) | !r(b)\n"
                          "!flag() | r(a)\n")
    rng = np.random.default_rng(5)
    kb = _with_evidence(KnowledgeBase([f"E{i}" for i in range(12)], rules.predicates, {}),
                        rng, share=0.1)
    # logit differences up to a few hundred put many start cells below 1e-154
    phi = UnaryTable({name: rng.normal(0.0, 250.0, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    program = compile_rules(rules, kb)
    start = initial_marginals(phi, kb)
    for t in range(6):
        q = start if t == 0 else iterate(phi, program, EngineConfig(t, damping=damping))
        for name, pred in kb.predicates.items():
            if pred.num_labels == 2 and pred.arity <= 2:
                q1 = q.tables[name][..., 1]
                assert not np.any((q1 > 0.0) & (q1 < FLUSH)), (name, t)
    # the threshold is reached: unflushed sigmoids of the start hold such values
    below = 0
    for name in ("p", "r"):
        e = phi.tables[name][..., 0] - phi.tables[name][..., 1]
        with np.errstate(over="ignore"):
            raw = 1.0 / (1.0 + np.exp(e))
        below += int(np.count_nonzero((raw > 0.0) & (raw < FLUSH) & ~kb.masks()[name].mask))
    assert below > 0
    # arity-3 planes are left alone
    t1 = start.tables["t"][..., 1]
    assert np.any((t1 > 0.0) & (t1 < FLUSH))


# --- zero-unary planes written by a message --------------------------------

WRITER_DECLS = "predicate r(e,e)\npredicate o(e,e)\npredicate t(e,e,e)\n"
# the first message to the zero-unary plane t, and the one after it
CANDIDATES = {
    "broadcast": "!r(a,b) | t(a,b,c)",                   # ab->abc, size-1 axis
    "diagonal": "!r(a,b) | t(a,a,b)",
    "constant slice": "!r(a,b) | t(E1,a,b)",
    "weight 2.0": "2.0: !r(a,b) | !r(b,c) | t(a,b,c)",   # fills the plane
}
PARTNERS = {
    "contraction": "!t(a,b,c) | !r(b,c) | r(a,c)",       # bc,ac->abc fills the plane
    "diagonal": "!r(a,b) | t(a,b,b)",
}
# a third message to t, which may not write it, and o, observed in every
# cell, so its messages are dropped
OTHER_RULES = ("0.5: !r(a,c) | !r(c,b) | t(a,b,c)\n"
               "!r(a,b) | o(a,b)\n!o(a,b) | !o(b,c) | r(a,c)\n")


def _writer_instance(candidate, partner):
    rules = E.parse_rules(WRITER_DECLS + f"{CANDIDATES[candidate]}\n{PARTNERS[partner]}\n"
                          + OTHER_RULES)
    rng = np.random.default_rng(17)
    n = 4
    observations = {("o", cell): int(rng.integers(2)) for cell in np.ndindex(n, n)}
    observations.update({("r", cell): int(rng.integers(2)) for cell in np.ndindex(n, n)
                         if rng.random() < 0.25})
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, observations)
    phi = UnaryTable({"r": rng.normal(0.0, 1.5, (n, n, 2)), "o": rng.normal(0.0, 1.5, (n, n, 2)),
                      "t": np.zeros((n, n, n, 2))})
    return compile_rules(rules, kb), phi


def _refill_and_add(phi, program, config):
    """``iterate`` with every table refilled and every message scaled by its
    weight and added, messages into observed tables included."""
    kb = program.kb
    pins = engine._pins(kb)
    _, q, planes = engine._storage(kb)
    engine._start(q, phi, planes, pins)
    for _ in range(config.iterations):
        _, new, _ = engine._storage(kb)
        engine._refill(new, phi, planes, new)
        for ci in program.implications:
            w = config.weights.get(ci.rule_id, ci.weight) * ci.coefficient
            target = new[ci.hypothesis]
            if target.ndim == len(ci.scatter):
                (label,) = ci.target_labels
                w, cells = (-w if label else w), [ci.scatter]
            else:
                cells = [ci.scatter + (label,) for label in ci.target_labels]
            weighted = w * message(ci, MarginalTable(q))
            for index in cells:
                target[index] += weighted
        engine._normalize(new, planes)
        if config.damping > 0.0:
            for name, arr in new.items():
                arr *= 1.0 - config.damping
                arr += config.damping * q[name]
        engine._clamp(new, pins)
        engine._flush(new, planes)
        q = new
    return q


# the message that writes t: the first one, the second one, or none (refilled)
WRITER = {("broadcast", "contraction"): 1, ("diagonal", "contraction"): 1,
          ("constant slice", "contraction"): 1, ("weight 2.0", "contraction"): 0,
          ("broadcast", "diagonal"): None, ("diagonal", "diagonal"): None,
          ("constant slice", "diagonal"): None, ("weight 2.0", "diagonal"): 0}


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("candidate, partner", WRITER.keys())
def test_written_plane_is_bitwise_the_refilled_sum(candidate, partner, damping):
    program, phi = _writer_instance(candidate, partner)
    planes = frozenset(program.kb.predicates)
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    steps, refill, _ = engine._schedule(program, weights, phi.extremes(program.kb), planes)
    assert "o" not in {step.implication.hypothesis for step in steps}
    into_t = [ci for ci in program.implications if ci.hypothesis == "t"]
    writers = [step.implication for step in steps if step.writes]
    want = WRITER[candidate, partner]
    if want is None:
        assert writers == [] and "t" in refill
    else:
        assert writers == [into_t[want]] and refill == {"r", "o"}
        # the writer runs before every other message into t
        order = [step.implication for step in steps if step.implication.hypothesis == "t"]
        assert order[0] is into_t[want]
    for iterations in (1, 2, 3):
        config = EngineConfig(iterations, damping=damping)
        got = iterate(phi, program, config)
        ref = _refill_and_add(phi, program, config)
        for name in program.kb.predicates:
            assert np.array_equal(got.tables[name][..., 1], ref[name]), (name, iterations)


def test_kbc_tri_takes_its_outer_product_directly():
    rules, kb, _ = _kbc_instance(5)
    program = compile_rules(rules, kb)
    phi = UnaryTable.zeros(kb)
    _, _, planes = engine._storage(kb)
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    steps, refill, _ = engine._schedule(program, weights, phi.extremes(kb), planes)
    assert refill == {"kind"}
    (writer,) = [step.implication for step in steps
                 if step.writes and step.implication.hypothesis == "tri"]
    assert str(writer.plan.spec) == "bc,ac->abc" and writer.plan.fills_output


def test_fully_observed_hypothesis_gets_no_message(monkeypatch):
    program, phi = _writer_instance("broadcast", "contraction")
    hypotheses = []
    original = engine.message

    def recording(ci, *args, **kwargs):
        hypotheses.append(ci.hypothesis)
        return original(ci, *args, **kwargs)

    monkeypatch.setattr(engine, "message", recording)
    iterate(phi, program, EngineConfig(iterations=2))
    into_o = sum(ci.hypothesis == "o" for ci in program.implications)
    assert into_o == 3
    assert "o" not in hypotheses and len(hypotheses) == 2 * (len(program.implications) - into_o)


def test_schedule_runs_once_per_solve_with_signs_and_cells_resolved(monkeypatch):
    program = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(5))
    phi = UnaryTable({"c": np.random.default_rng(4).normal(0.0, 1.5, (5, 5, 2))})
    built = []
    original = engine._schedule

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(engine, "_schedule", recording)
    iterate(phi, program, EngineConfig(iterations=4))
    ((steps, refill, written),) = built
    # the summed product runs first and refills c after building its sum
    # there; on the plane x0 - x1 label 1 negates the weight, so the q1
    # products go in as -msg and the ones terms as +msg
    assert refill == written == frozenset()
    assert [(str(s.implication.plan.spec), s.weight, s.implication.partner is not None)
            for s in steps] == [("ab,bc->ac", -1.0, True), ("bc->ab", 1.0, False),
                                ("ab,ac->bc", -1.0, False), ("ab->bc", 1.0, False)]
    assert all(s.cells == ((slice(None),) * 2,) and s.sliced and not s.writes for s in steps)


def test_schedule_of_the_kbc_rules_on_tables_and_planes():
    rules, kb, phi = _kbc_instance(4)
    program = compile_rules(rules, kb)
    planes = engine._storage(kb)[2]
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    steps, refill, written = engine._schedule(program, weights, phi.extremes(kb), planes)
    assert refill == set(kb.predicates) and written == frozenset()
    step = {(s.implication.rule_id, s.implication.hypothesis, s.implication.target_labels): s
            for s in steps}
    # a multi-class table gets one index per target label, with the weight as given
    assert step["f5", "kind", (0, 1)].cells == ((slice(None), 0), (slice(None), 1))
    assert step["f5", "kind", (0, 1)].weight == 1.0
    # label 1 of a binary plane negates the weight; a constant keeps the
    # plane's other axis, so the add runs in row blocks
    assert (step["f1", "rel", (1,)].weight, step["f1", "rel", (0,)].weight) == (-2.0, 2.0)
    assert step["f5", "rel", (0,)].cells == ((0, slice(None)),) and step["f5", "rel", (0,)].sliced
    # the arity-0 `active` is one cell
    assert step["f4", "active", (0,)].cells == ((),) and not step["f4", "active", (0,)].sliced
    q = initial_marginals(phi, kb)
    assert {step_kind(s, q) for s in steps} == {"add weight ±1", "add scaled view",
                                                "add into cells"}
    zero = UnaryTable.zeros(kb)
    steps, refill, written = engine._schedule(program, weights, zero.extremes(kb), planes)
    assert refill == {"kind"} and written == planes
    assert {step_kind(s, q) for s in steps} == {"write through out=", "add weight ±1",
                                                "add scaled view"}


def _instance_running(kind):
    """A program and unary table whose schedule has a step of ``kind``."""
    if kind in ("add into cells", "add scaled view"):
        rules, kb, phi = _kbc_instance(4)
        return compile_rules(rules, kb), phi
    if kind in ("add scaled owned", "write through out="):
        return _writer_instance("broadcast", "contraction")
    program = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(6))
    return program, UnaryTable({"c": np.random.default_rng(2).normal(0.0, 1.5, (6, 6, 2))})


@pytest.mark.parametrize("instance", sorted(STEP_KINDS))
def test_schedule_drops_each_message_before_the_next_is_computed(monkeypatch, instance):
    program, phi = _instance_running(instance)
    steps, _, _ = engine._schedule(program, tuple(ci.weight * ci.coefficient
                                                  for ci in program.implications),
                                   phi.extremes(program.kb), engine._storage(program.kb)[2])
    q = initial_marginals(phi, program.kb)
    assert instance in {step_kind(s, q) for s in steps}
    kept = []
    original = engine.message

    def recording(ci, *args, **kwargs):
        # a message written through out= is the logit plane, which lives on
        assert all(ref() is None for ref in kept)
        msg = original(ci, *args, **kwargs)
        if kwargs.get("out") is None:
            kept.append(weakref.ref(msg))
        return msg

    monkeypatch.setattr(engine, "message", recording)
    iterate(phi, program, EngineConfig(iterations=2))
    assert kept


def test_schedule_refills_a_zero_plane_that_no_filling_message_writes():
    # zero-unary planes that no message writes: t, whose first message
    # broadcasts over c and whose second is a diagonal, and c, into which a
    # summed product runs first
    summed = (compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(6)),
              UnaryTable({"c": np.zeros((6, 6, 2))}))
    writer = _writer_instance("broadcast", "diagonal")
    for (program, phi), plane, summing in ((writer, "t", False), (summed, "c", True)):
        weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
        steps, refill, written = engine._schedule(program, weights, phi.extremes(program.kb),
                                                  engine._storage(program.kb)[2])
        assert written == frozenset() and not any(step.writes for step in steps)
        # the summed step refills c itself, after building its sum there
        assert (plane in refill) != summing
        tol = 1e-12 if summing else 0.0
        for iterations in (1, 2, 3):
            config = EngineConfig(iterations)
            got = iterate(phi, program, config)
            want = _reference_iterate(phi, program, config)
            assert all(np.max(np.abs(got.tables[k] - want[k])) <= 1e-12 for k in want)
            # each binary plane against refilling and adding every message in
            # implication order: the summed step adds first and in another order
            ref = _refill_and_add(phi, program, config)
            assert all(np.max(np.abs(got.tables[k][..., 1] - ref[k])) <= tol for k in ref)


# matrix products split over the calling thread and the helper (see planner._split_matmul)

def test_split_products_keep_the_oracle_gap(split_products, splits):
    rng = np.random.default_rng(18)
    with_gemm = 0
    for _ in range(100):
        # one predicate, so that two binary premises often chain into a product
        kb, rules, phi = random_instance(rng, max_predicates=1)
        program = compile_rules(rules, kb)
        with_gemm += any(s.gemm for ci in program.implications for s in ci.plan.steps)
        assert engine_oracle_gap(kb, rules, phi) <= ORACLE_TOL
    assert with_gemm >= 5 and splits


def test_split_transitivity_stays_within_1e_12_of_the_unsplit_run(split_products, splits,
                                                                  monkeypatch):
    kb = trans_kb(64)
    phi = UnaryTable({"c": np.random.default_rng(5).normal(0.0, 2.0, (64, 64, 2))})
    program = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], kb)
    # one symmetric product runs; the other is the summed Q @ Q's partner
    assert sum(ci.symmetric for ci in program.implications) == 1
    assert program.implications[-1].partner.symmetric
    config = EngineConfig(iterations=3)
    split = iterate(phi, program, config)
    assert splits
    with monkeypatch.context() as m:
        m.setattr(parallel, "WORKERS", 1)
        whole = iterate(phi, program, config)
    assert max_abs_diff(split, whole) <= 1e-12
    assert np.array_equal(split.tables["c"].argmax(-1), whole.tables["c"].argmax(-1))


def test_split_product_writes_a_zero_unary_plane_through_out(split_products, splits,
                                                             monkeypatch):
    r = Predicate("r", 2)
    kb = KnowledgeBase([f"t{i}" for i in range(24)], {"c": C, "r": r}, {})
    clause = Clause((binary_literal(C, (A, B), True), binary_literal(C, (B, D), True),
                     binary_literal(r, (A, D))), weight=1.5, id="w")
    program = compile_rules([CnfFormula((clause,), id="w")], kb)
    rng = np.random.default_rng(2)
    phi = UnaryTable({"c": rng.normal(0.0, 2.0, (24, 24, 2)), "r": np.zeros((24, 24, 2))})
    writes = []
    original = planner._split_matmul

    def recording(left, right, out, symmetric):
        writes.append(out is not None)
        return original(left, right, out, symmetric)

    monkeypatch.setattr(planner, "_split_matmul", recording)
    config = EngineConfig(iterations=2)
    split = iterate(phi, program, config)
    assert any(writes) and splits
    with monkeypatch.context() as m:
        m.setattr(parallel, "WORKERS", 1)
        whole = iterate(phi, program, config)
    assert max_abs_diff(split, whole) <= 1e-12


# --- the exact fixed-point stop and the half start -------------------------

def _kbc_workload(workloads, n=80, seed=11):
    """The benchmark's kbc instance at ``n`` entities, compiled."""
    inst = workloads.make("kbc", seed, n)
    s = workloads.setup(inst, inst.texts.__getitem__)
    return compile_rules(s.rules, s.kb), s.phi


@pytest.mark.parametrize("iterations", [5, 8])
def test_fixed_point_stop_ends_kbc_after_iteration_4(workloads, monkeypatch, iterations):
    program, phi = _kbc_workload(workloads)
    trace = IterationTrace()
    got = iterate(phi, program, EngineConfig(iterations), trace)
    assert len(trace.seconds) == len(trace.residual) == 4
    assert trace.residual[2] > 0.0 and (trace.residual[3], trace.changed[3]) == (0.0, 0)
    monkeypatch.setattr(engine, "_same", lambda new, old: False)
    assert same_bytes(got, iterate(phi, program, EngineConfig(iterations)))


def test_fixed_point_stop_compares_bit_patterns():
    # 300 rows of 300 compare in two chunks; a zero's sign differs in the last
    new = {"p": np.zeros((300, 300)), "s": np.zeros(())}
    same = {name: arr.copy() for name, arr in new.items()}
    assert engine._same(new, same)
    for name, cell in (("p", (-1, -1)), ("s", ())):
        old = {name: arr.copy() for name, arr in new.items()}
        old[name][cell] = -0.0
        assert not engine._same(new, old), name


@pytest.mark.parametrize("zeros", ["+0", "-0", "mixed"])
def test_half_start_is_the_refilled_sigmoid_bitwise(zeros):
    rules, kb, phi = _kbc_instance(6)
    kb = _with_evidence(kb, np.random.default_rng(4))
    rng = np.random.default_rng(9)
    for name in ("rel", "tri"):
        shape = phi.tables[name].shape
        phi.tables[name] = {"+0": np.zeros(shape), "-0": np.full(shape, -0.0),
                            "mixed": np.where(rng.random(shape) < 0.5, -0.0, 0.0)}[zeros]
    program = compile_rules(rules, kb)
    _, refilled, planes = engine._storage(kb)
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    _, refill, _ = engine._schedule(program, weights, phi.extremes(kb), planes)
    halves = planes - refill
    assert halves == {"rel", "tri"}
    pins = engine._pins(kb)
    _, half, _ = engine._storage(kb)
    engine._start(refilled, phi, planes, pins)
    engine._start(half, phi, planes, pins, halves)
    assert same_bytes(MarginalTable(half), MarginalTable(refilled))
    latent = ~kb.masks()["tri"].mask
    assert latent.any() and np.all(half["tri"][latent] == 0.5)
    config = EngineConfig(iterations=3)
    got, ref = iterate(phi, program, config), _refill_and_add(phi, program, config)
    assert same_bytes(MarginalTable({name: got.tables[name][..., 1] if name in planes
                                     else got.tables[name] for name in ref}),
                      MarginalTable(ref))


def test_fixed_point_stop_frees_the_spare_planes_before_expand(workloads, monkeypatch):
    # T=5 is odd, so iteration 4, where kbc stops, writes the spare tables
    program, phi = _kbc_workload(workloads)
    program.kb.masks()
    live = []
    original = engine._expand

    def expand(tables, planes):
        live.append(tracemalloc.get_traced_memory()[0])
        return original(tables, planes)

    monkeypatch.setattr(engine, "_expand", expand)
    trace = IterationTrace()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = iterate(phi, program, EngineConfig(iterations=5), trace)
    finally:
        tracemalloc.stop()
    assert len(trace.seconds) == 4
    output = sum(t.nbytes for t in result.tables.values())
    # a tri plane beyond the output tables would add at least this
    plane = result.tables["tri"][..., 1].nbytes
    assert live[0] - before < output + plane // 4


BINARY_ARITY_3 = """\
predicate rel(ent,ent)
predicate tri(ent,ent,ent)
!rel(a,b) | tri(a,b,c)
!tri(a,b,c) | !rel(b,c) | rel(a,c)
"""


@pytest.mark.parametrize("iterations", [3, 4])
@pytest.mark.parametrize("traced", [False, True])
def test_fixed_point_loop_allocates_no_plane_beyond_output_and_a_message(traced, iterations):
    # T=3 starts in label 0 of the output tables, T=4 in label 1
    rules = E.parse_rules(BINARY_ARITY_3)
    kb = KnowledgeBase([f"E{i}" for i in range(64)], rules.predicates, {})
    rng = np.random.default_rng(5)
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    program = compile_rules(rules, kb)
    start = initial_marginals(phi, kb)
    largest = max(E.message(ci, start).nbytes for ci in program.implications)
    tracemalloc.start()
    try:
        result = iterate(phi, program, EngineConfig(iterations),
                         IterationTrace() if traced else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(t.nbytes for t in result.tables.values())
    plane = result.tables["tri"][..., 1].nbytes
    assert largest == plane
    # a spare plane, or a plane-sized temporary of the trace, would add a plane
    assert peak < output + largest + plane // 4


def test_split_helper_keeps_no_table_of_a_dropped_result(workloads, split_products):
    program, phi = _kbc_workload(workloads)
    result = iterate(phi, program, EngineConfig(iterations=5))
    assert parallel._helper.thread is not None
    buffers = [weakref.ref(t.base) for t in result.tables.values()]
    del result
    gc.collect()
    assert all(ref() is None for ref in buffers)


# --- two messages run as one summed product ---------------------------------

SUM_PREDS = {p.name: p for p in (Predicate("p", 2), Predicate("q", 2), Predicate("m", 2, 3),
                                 Predicate("t", 3))}


def _values(draw, pred):
    return frozenset(draw(st.sets(st.integers(0, pred.num_labels - 1), min_size=1,
                                  max_size=pred.num_labels - 1)))


def _pair_literal(draw, pred, first, second, values):
    """``pred`` over the terms ``first`` and ``second``, in either order; t
    gets the constant E1 in a drawn position."""
    args = [first, second] if draw(st.booleans()) else [second, first]
    if pred.arity == 3:
        args.insert(draw(st.integers(0, 2)), constant("E1"))
    return Literal(pred, tuple(args), values)


@st.composite
def _chain_clauses(draw):
    """``a(x,y) | b(y,z) | h(x,z)`` (transitivity-shaped) or a four-literal
    chain to ``h(x,w)``, each literal's terms in either order.  Most often
    the premises read one predicate with one value set, and often ``h`` is
    that predicate too, which is where summed pairs come from."""
    x, y, z, w = (variable(v) for v in "xyzw")
    links = [(x, y), (y, z)] if draw(st.booleans()) else [(x, y), (y, z), (z, w)]
    pick = st.sampled_from(sorted(SUM_PREDS))
    one = SUM_PREDS[draw(pick)]
    held = _values(draw, one)
    literals = []
    for first, second in links:
        pred = one if draw(st.integers(0, 3)) else SUM_PREDS[draw(pick)]
        values = held if pred is one else _values(draw, pred)
        literals.append(_pair_literal(draw, pred, first, second, values))
    head = one if draw(st.booleans()) else SUM_PREDS[draw(pick)]
    literals.append(_pair_literal(draw, head, links[0][0], links[-1][1], _values(draw, head)))
    merged = merge_literals(literals)
    assume(merged is not None)
    return Clause(merged)


@st.composite
def _chain_rules(draw):
    rules = []
    for i in range(draw(st.integers(1, 3))):
        body = draw(st.lists(_chain_clauses(), min_size=1, max_size=2,
                             unique_by=lambda c: c.literals))
        weight = draw(st.one_of(st.sampled_from([1.0, -1.0]),
                                st.floats(-2.0, 2.0, allow_nan=False)))
        rules.append(CnfFormula(tuple(body), weight=weight, id=f"r{i}"))
    return rules


def _transitivity_on(name, held, head, weight=1.0):
    """``name(x,y) in held | name(y,z) in held | name(x,z) in head`` as rule r0."""
    pred = SUM_PREDS[name]
    x, y, z = (variable(v) for v in "xyz")
    clause = Clause(merge_literals([Literal(pred, (x, y), frozenset(held)),
                                    Literal(pred, (y, z), frozenset(held)),
                                    Literal(pred, (x, z), frozenset(head))]))
    return [CnfFormula((clause,), weight=weight, id="r0")]


# a pair into a zero-unary plane, which it refills, under an override, and a
# pair into the multi-class table m
@example(rules=_transitivity_on("p", {0}, {1}), n=4, seed=1, damping=0.0, iterations=2,
         override=0.7, zero_unary={"p"})
@example(rules=_transitivity_on("m", {0, 2}, {0, 2}, 1.5), n=3, seed=2, damping=0.3,
         iterations=3, override=None, zero_unary=set())
@given(rules=_chain_rules(), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       damping=st.sampled_from([0.0, 0.3]), iterations=st.integers(1, 3),
       override=st.one_of(st.none(), st.floats(-2.0, 2.0, allow_nan=False)),
       zero_unary=st.sets(st.sampled_from(sorted(SUM_PREDS))))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _summed_matches_one_at_a_time(seen, rules, n, seed, damping, iterations, override,
                                  zero_unary):
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], SUM_PREDS, {
        (p.name, cell): int(rng.integers(p.num_labels))
        for p in SUM_PREDS.values() for cell in np.ndindex(*(n,) * p.arity)
        if rng.random() < 0.2})
    phi = UnaryTable({p.name: np.zeros(shape) if p.name in zero_unary
                      else rng.normal(0.0, 1.5, shape)
                      for p in SUM_PREDS.values() for shape in [(n,) * p.arity + (p.num_labels,)]})
    weights = {} if override is None else {"r0": override}
    config = EngineConfig(iterations, weights=weights, damping=damping)
    program = compile_rules(rules, kb)
    planes = engine._storage(kb)[2]
    for ci in program.implications:
        if ci.partner is not None:
            seen["summed"].append(ci.hypothesis)
            seen["table"] += ci.hypothesis not in planes
            seen["override"] += ci.rule_id in weights
            seen["zero"] += ci.hypothesis in zero_unary
    got = iterate(phi, program, config)
    want = iterate(phi, Program(kb, tuple(apart(program.implications))), config)
    assert max_abs_diff(got, want) <= 1e-12
    # the argmax agrees wherever the best label leads by more than rounding;
    # an exact tie, such as two rules that cancel, is broken by the last bits
    for name in kb.predicates:
        ranked = np.sort(want.tables[name], axis=-1)
        decided = ranked[..., -1] - ranked[..., -2] > 1e-12
        assert np.array_equal(got.tables[name].argmax(-1)[decided],
                              want.tables[name].argmax(-1)[decided]), name
    assert engine_oracle_gap(kb, rules, phi, weights) <= ORACLE_TOL


def _assert_summed_matches_one_at_a_time():
    seen = {"summed": [], "table": 0, "override": 0, "zero": 0}
    _summed_matches_one_at_a_time(seen)
    # pairs into binary planes and into a table, under an override, and
    # pairs into a zero-unary plane
    assert len(seen["summed"]) >= 10 and "p" in seen["summed"]
    assert seen["table"] and seen["override"] and seen["zero"]


def test_summed_products_match_the_messages_one_at_a_time():
    _assert_summed_matches_one_at_a_time()


def test_split_summed_products_match_the_messages_one_at_a_time(split_products, splits):
    _assert_summed_matches_one_at_a_time()
    assert splits


def _summed_implications(program):
    return [ci for ci in program.implications if ci.partner is not None]


@pytest.mark.parametrize("n", [8, 1024])
def test_summed_products_of_the_workload_rules(workloads, smoke_rules, smoke_kb, n):
    def sums(rules, kb=None):
        kb = kb or KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
        return _summed_implications(compile_rules(rules, kb))

    assert sums(E.parse_rules(workloads.KBC_RULES)) == []
    assert sums(E.parse_rules(workloads.REPORT_RULES)) == []
    assert sums(smoke_rules, smoke_kb) == []
    (s,) = sums(E.parse_rules(workloads.TRANSITIVITY_RULES))
    # Q @ Q into coexist(a,c) takes in Q @ Q^T into coexist(a,b): one N^3
    # product and an N^2 sum in place of N^3 + N^3 / 2
    assert (str(s.plan.spec), str(s.partner.plan.spec)) == ("ab,bc->ac", "bc,ac->ab")
    assert not s.symmetric and s.partner.symmetric and s.transpose
    assert s.saved == n ** 3 / 2 - n ** 2


def test_summed_message_is_the_kept_plan_on_the_summed_operand():
    n = 40
    program = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], trans_kb(n))
    (s,) = _summed_implications(program)
    q1 = np.random.default_rng(3).random((n, n))
    q = MarginalTable({"c": q1})
    scratch = np.empty((n, n))
    got = message(s, q, scratch=scratch)
    assert np.array_equal(scratch, q1 + q1.T)
    assert np.array_equal(got, planner.execute(s.plan, [q1, q1 + q1.T]))
    # weight 1 and coefficient -1 on label 0: both go into x0 - x1 as -msg
    assert s.target_labels == (1,) and s.partner.coefficient == -1.0
    one_at_a_time = message(replace(s, partner=None), q) + message(s.partner, q)
    assert np.max(np.abs(got - one_at_a_time)) <= 1e-12


@pytest.mark.parametrize("rules", [
    [CnfFormula((TRANSITIVITY,), id="t")],
    _transitivity_on("p", {0}, {1}, 0.7),
    _transitivity_on("m", {0, 2}, {0, 2}, 1.5),
], ids=["plane", "weighted plane", "multi-class table"])
def test_summed_message_without_scratch_is_the_two_messages_added(rules):
    # the sum goes into a new array, and the snapshot is left as it was
    n = 6
    preds = rules[0].clauses[0].literals[0].predicate
    kb = KnowledgeBase([f"E{i}" for i in range(n)], {preds.name: preds}, {})
    program = compile_rules(rules, kb)
    (s,) = _summed_implications(program)
    rng = np.random.default_rng(9)
    q = initial_marginals(UnaryTable({preds.name: rng.normal(0.0, 1.5, kb.shape(preds)
                                                             + (preds.num_labels,))}), kb)
    before = q.copy()
    got = message(s, q)
    assert same_bytes(q, before)
    one_at_a_time = message(replace(s, partner=None), q) + message(s.partner, q)
    assert got.shape == one_at_a_time.shape
    assert np.max(np.abs(got - one_at_a_time)) <= 1e-12
    assert np.array_equal(got, message(s, q, scratch=np.empty(s.plan.input_shapes[s.operand])))


@pytest.mark.parametrize("override", [None, -0.7])
@pytest.mark.parametrize("n", [8, 1024])
def test_summed_implication_bound_counts_both_messages(workloads, n, override):
    # coexist gets five messages of N groundings each, two of them as one
    # summed product: the bound is the unary spread plus 5 N |w|
    rules = E.parse_rules(workloads.TRANSITIVITY_RULES)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
    program = compile_rules(rules, kb)
    assert len(program.implications) == 4 and len(_summed_implications(program)) == 1
    phi = UnaryTable({"coexist": np.random.default_rng(n).normal(0.0, 2.0, (n, n, 2))})
    (weight,) = [f.weight for f in rules]
    weights = {} if override is None else {"f1": override}
    lo, hi = phi.extremes(kb)["coexist"]
    traces = {}
    for name, prog in (("summed", program),
                       ("apart", Program(kb, tuple(apart(program.implications))))):
        traces[name] = IterationTrace()
        iterate(phi, prog, EngineConfig(1, weights=weights), traces[name])
    # added one message at a time, as every implication's bound is
    want = hi - lo
    for _ in range(5):
        want += abs(weight if override is None else override) * n
    assert traces["summed"].bounds == {"coexist": want}
    assert traces["summed"].bounds == traces["apart"].bounds


@pytest.mark.parametrize("iterations", [3, 4])
@pytest.mark.parametrize("zeros", [False, True])
def test_summed_product_allocates_no_plane_beyond_output_and_a_message(iterations, zeros):
    # the sum is built in the hypothesis's spare plane, not in a plane of its own
    n = 128
    kb = trans_kb(n)
    program = compile_rules([CnfFormula((TRANSITIVITY,), id="t")], kb)
    assert len(_summed_implications(program)) == 1
    rng = np.random.default_rng(8)
    phi = UnaryTable({"c": np.zeros((n, n, 2)) if zeros else rng.normal(0.0, 2.0, (n, n, 2))})
    program.kb.masks()      # cached by the knowledge base, not by the solve
    tracemalloc.start()
    try:
        result = iterate(phi, program, EngineConfig(iterations))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = result.tables["c"].nbytes
    plane = result.tables["c"][..., 1].nbytes
    assert peak < output + plane + plane // 4
