import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from einlog.engine import (EngineConfig, IterationTrace, MarginalTable, UnaryTable,
                           _schedule, _storage,
                           compile_rules, initial_marginals, iterate)
from einlog.fol import (Clause, CnfFormula, Literal, Predicate, binary_literal, constant,
                        merge_literals, parse_rules, variable)
from einlog.kb import KnowledgeBase
from einlog.oracle import (OracleError, brute_einsum, enumerate_groundings,
                           exact_marginals, naive_mf_step)
from einlog.tensor import softmax_lastaxis
from einlog.testing import random_instance

from helpers import STEP_KINDS, chained_oracle, max_abs_diff, same_bytes, step_kind

S = Predicate("s", 1)
F = Predicate("f", 2)
X, Y = variable("x"), variable("y")
SPREAD = Clause((binary_literal(S, (X,), True),
                 binary_literal(F, (X, Y), True),
                 binary_literal(S, (Y,))), weight=1.0, id="spread")


def kb_of(n, observations=None):
    return KnowledgeBase([f"e{i}" for i in range(n)], {"s": S, "f": F},
                         observations or {})


def test_grounding_counts():
    assert len(enumerate_groundings(SPREAD, kb_of(2))) == 4
    c = Predicate("c", 2)
    a, b, d = variable("a"), variable("b"), variable("d")
    trans = Clause((binary_literal(c, (a, b), True), binary_literal(c, (b, d), True),
                    binary_literal(c, (a, d))))
    kb3 = KnowledgeBase(["p", "q", "r"], {"c": c}, {})
    assert len(enumerate_groundings(trans, kb3)) == 27


def test_grounding_count_at_uw_cse_scale():
    kb = KnowledgeBase([f"e{i}" for i in range(82)], {"s": S, "f": F}, {})
    two_var = Clause((binary_literal(F, (X, Y)),))
    assert len(enumerate_groundings(two_var, kb)) == 82 * 82 == 6724


def test_grounding_enumeration_is_lexicographic_and_complete():
    gs = enumerate_groundings(SPREAD, kb_of(2))
    assert [g.assignment for g in gs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert gs[1].atoms[1].args == (0, 1)
    assert len({g.assignment for g in gs}) == len(gs)


def test_grounding_limit_enforced():
    with pytest.raises(OracleError, match="exceed"):
        enumerate_groundings(SPREAD, kb_of(40), limit=1000)


def test_no_rules_is_softmax():
    kb = kb_of(2)
    rng = np.random.default_rng(0)
    phi = UnaryTable({"s": rng.normal(size=(2, 2)), "f": rng.normal(size=(2, 2, 2))})
    q0 = initial_marginals(phi, kb)
    out = naive_mf_step(q0, [], kb, phi)
    for name in kb.predicates:
        assert np.allclose(out.tables[name], softmax_lastaxis(phi.tables[name]))


def test_hand_computed_two_variable_update():
    # one entity, clause  !s(x) | c(x):  message to c is q_s(1), message to s is q_c(0)
    c = Predicate("c", 1)
    kb = KnowledgeBase(["only"], {"s": S, "c": c}, {})
    clause = Clause((binary_literal(S, (X,), True), binary_literal(c, (X,))),
                    weight=0.7, id="h")
    phi = UnaryTable({"s": np.array([[0.0, 0.4]]), "c": np.array([[0.0, -0.3]])})
    q0 = initial_marginals(phi, kb)
    qs1 = q0.tables["s"][0, 1]
    qc0 = q0.tables["c"][0, 0]
    out = naive_mf_step(q0, [clause], kb, phi, simplified=True)

    def softmax2(l0, l1):
        m = max(l0, l1)
        e0, e1 = math.exp(l0 - m), math.exp(l1 - m)
        return e0 / (e0 + e1), e1 / (e0 + e1)

    want_c = softmax2(0.0, -0.3 + 0.7 * qs1)
    want_s = softmax2(0.0 + 0.7 * qc0, 0.4)
    assert out.tables["c"][0] == pytest.approx(want_c, abs=1e-15)
    assert out.tables["s"][0] == pytest.approx(want_s, abs=1e-15)


def test_simplified_equals_full_expectation_after_normalization():
    rng = np.random.default_rng(7)
    for _ in range(40):
        kb, rules, phi = random_instance(rng)
        q0 = initial_marginals(phi, kb)
        full = naive_mf_step(q0, rules, kb, phi, simplified=False)
        short = naive_mf_step(q0, rules, kb, phi, simplified=True)
        assert max_abs_diff(full, short) <= 1e-12


def test_self_grounding_exclusion_changes_diagonal_only():
    kb = kb_of(2)
    rng = np.random.default_rng(1)
    phi = UnaryTable({"s": rng.normal(size=(2, 2)), "f": rng.normal(size=(2, 2, 2))})
    loop = Clause((binary_literal(F, (X, Y), True), binary_literal(F, (Y, X))),
                  weight=1.3, id="loop")
    q0 = initial_marginals(phi, kb)
    incl = naive_mf_step(q0, [loop], kb, phi, include_self_groundings=True)
    excl = naive_mf_step(q0, [loop], kb, phi, include_self_groundings=False)
    diff = np.abs(incl.tables["f"] - excl.tables["f"])
    assert diff[0, 0].max() > 0 and diff[1, 1].max() > 0
    assert diff[0, 1].max() == 0 and diff[1, 0].max() == 0


def test_message_budget_enforced():
    kb = kb_of(6)
    q0 = MarginalTable({"s": np.full((6, 2), 0.5), "f": np.full((6, 6, 2), 0.5)})
    phi = UnaryTable({"s": np.zeros((6, 2)), "f": np.zeros((6, 6, 2))})
    with pytest.raises(OracleError, match="grounding messages"):
        naive_mf_step(q0, [SPREAD], kb, phi, message_limit=10)


def test_exact_marginals_uniform_when_unconstrained():
    kb = kb_of(2)
    phi = UnaryTable({"s": np.zeros((2, 2)), "f": np.zeros((2, 2, 2))})
    zero = Clause(SPREAD.literals, weight=0.0, id="zero")
    out = exact_marginals(kb, [zero], phi)
    for name in kb.predicates:
        assert np.allclose(out.tables[name], 0.5, atol=1e-12)


def test_exact_marginals_single_variable_closed_form():
    p = Predicate("p", 1)
    kb = KnowledgeBase(["only"], {"p": p}, {})
    phi = UnaryTable({"p": np.array([[math.log(2.0), 0.0]])})
    out = exact_marginals(kb, [], phi)
    assert out.tables["p"][0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_exact_marginals_normalized_and_match_mean_field_direction():
    rng = np.random.default_rng(3)
    kb, rules, phi = random_instance(rng, max_entities=3, max_predicates=2,
                                     max_clauses=2, max_labels=2)
    out = exact_marginals(kb, rules, phi, max_bits=20)
    for name in kb.predicates:
        assert np.max(np.abs(out.tables[name].sum(axis=-1) - 1.0)) <= 1e-12


def test_exact_marginals_bit_limit():
    kb = kb_of(4)
    phi = UnaryTable({"s": np.zeros((4, 2)), "f": np.zeros((4, 4, 2))})
    with pytest.raises(OracleError, match="binary-equivalent"):
        exact_marginals(kb, [], phi, max_bits=10)


def test_exact_marginals_respects_observations_and_cnf():
    # s(e0) observed true; CNF (s -> c) & (c -> s) with a strong weight
    c = Predicate("c", 1)
    kb = KnowledgeBase(["e0"], {"s": S, "c": c}, {("s", (0,)): 1})
    phi = UnaryTable({"s": np.zeros((1, 2)), "c": np.zeros((1, 2))})
    both = CnfFormula((Clause((binary_literal(S, (X,), True), binary_literal(c, (X,))), weight=3.0),
                       Clause((binary_literal(S, (X,)), binary_literal(c, (X,), True)), weight=3.0)),
                      weight=3.0, id="iff")
    out = exact_marginals(kb, [both], phi)
    assert out.tables["s"][0, 1] == 1.0
    # worlds: c=1 satisfies both clauses (score 6), c=0 only the second (score 3)
    want = math.exp(6.0) / (math.exp(6.0) + math.exp(3.0))
    assert out.tables["c"][0, 1] == pytest.approx(want, abs=1e-12)


def test_engine_matches_oracle_on_degenerate_diagonals():
    # repeated predicate with swapped arguments exercises self-groundings
    kb = kb_of(3)
    rng = np.random.default_rng(9)
    phi = UnaryTable({"s": rng.normal(size=(3, 2)), "f": rng.normal(size=(3, 3, 2))})
    loop = Clause((binary_literal(F, (X, Y), True), binary_literal(F, (Y, X))),
                  weight=0.9, id="loop")
    got = iterate(phi, compile_rules([loop], kb), EngineConfig(iterations=1))
    want = naive_mf_step(initial_marginals(phi, kb), [loop], kb, phi)
    assert max_abs_diff(got, want) <= 1e-12


@pytest.mark.parametrize("text, rule_id", [("KBC_RULES", "f2"), ("TRANSITIVITY_RULES", "f1")])
def test_weight_override_on_an_expanded_rule_matches_chained_oracle(workloads, text, rule_id):
    # kbc's f2 and transitivity's one rule compile to expanded pairs, whose
    # coefficients scale the override as they scale the rule weight
    rules = parse_rules(getattr(workloads, text))
    n = 4
    rng = np.random.default_rng(12)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {
        (p.name, cell): int(rng.integers(p.num_labels))
        for p in rules.predicates.values() for cell in np.ndindex(*(n,) * p.arity)
        if rng.random() < 0.2})
    phi = UnaryTable({name: rng.normal(0.0, 1.5, kb.shape(p) + (p.num_labels,))
                      for name, p in kb.predicates.items()})
    program = compile_rules(rules, kb)
    assert any(ci.rule_id == rule_id and ci.coefficient == -1.0
               for ci in program.implications)
    overridden = [replace(f, weight=0.37) if f.id == rule_id else f for f in rules]
    for damping in (0.0, 0.3):
        got = iterate(phi, program, EngineConfig(iterations=3, weights={rule_id: 0.37},
                                                 damping=damping))
        assert max_abs_diff(got, chained_oracle(phi, overridden, kb, 3, damping)) <= 1e-9
        # the override moves the marginals
        plain = iterate(phi, program, EngineConfig(iterations=3, damping=damping))
        assert max_abs_diff(got, plain) > 1e-3


# 0.3 also tells the two operands of the damping mix apart
@pytest.mark.parametrize("damping", [0.0, 0.3, 0.5])
def test_three_iterations_match_chained_oracle_steps(damping):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        kb, rules, phi = random_instance(rng)
        got = iterate(phi, compile_rules(rules, kb),
                      EngineConfig(iterations=3, damping=damping))
        worst = max(worst, max_abs_diff(got, chained_oracle(phi, rules, kb, 3, damping)))
    assert worst <= 1e-9


# Every rule shape the parser accepts: arities 0 to 3, multi-class
# predicates, constants and repeated variables in any literal, and two-clause
# CNF formulas whose clauses share variables.
PALETTE = (Predicate("flag", 0), Predicate("r", 1), Predicate("k", 1, 3),
           Predicate("p", 2), Predicate("m", 2, 3), Predicate("t", 3))
TERMS = (variable("x"), variable("y"), variable("z"), constant("E0"), constant("E1"))


@st.composite
def literals(draw):
    pred = draw(st.sampled_from(PALETTE))
    args = tuple(draw(st.sampled_from(TERMS)) for _ in range(pred.arity))
    values = draw(st.sets(st.integers(0, pred.num_labels - 1), min_size=1,
                          max_size=pred.num_labels - 1))
    return Literal(pred, args, frozenset(values))


@st.composite
def clauses(draw):
    merged = merge_literals(draw(st.lists(literals(), min_size=1, max_size=3)))
    assume(merged is not None)
    return Clause(merged)


@st.composite
def rule_lists(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        body = draw(st.lists(clauses(), min_size=1, max_size=2,
                             unique_by=lambda c: c.literals))
        # exactly +-1 adds a message with no scale pass
        weight = draw(st.one_of(st.sampled_from([1.0, -1.0]),
                                st.floats(-2.0, 2.0, allow_nan=False)))
        rules.append(CnfFormula(tuple(body), weight=weight))
    return rules


def _transitivity_on_p(weight):
    x, y, z = TERMS[:3]
    p = PALETTE[3]
    return [CnfFormula((Clause(merge_literals([
        Literal(p, (x, y), frozenset({0})), Literal(p, (y, z), frozenset({0})),
        Literal(p, (x, z), frozenset({1}))])),), weight=weight)]


# an all-zero unary table lets a message whose plan fills the plane write it
# with no refill; the examples run a summed product, which refills p, with a
# drawn and with an all-zero unary table
@example(rules=_transitivity_on_p(0.7), n=3, seed=5, damping=0.0, iterations=2,
         zero_unary=set())
@example(rules=_transitivity_on_p(1.0), n=3, seed=6, damping=0.3, iterations=3,
         zero_unary={"p"})
@given(rules=rule_lists(), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       damping=st.sampled_from([0.0, 0.3]), iterations=st.integers(1, 3),
       zero_unary=st.sets(st.sampled_from([p.name for p in PALETTE])))
# derandomized, so that every asserted step kind, expanding draw and writing
# draw is met on every run
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True)
def _matches_chained_oracle(seen, rules, n, seed, damping, iterations, zero_unary):
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], {p.name: p for p in PALETTE}, {
        (p.name, cell): int(rng.integers(p.num_labels))
        for p in PALETTE for cell in np.ndindex(*(n,) * p.arity) if rng.random() < 0.2})
    phi = UnaryTable({p.name: np.zeros(shape) if p.name in zero_unary
                      else rng.normal(0.0, 1.5, shape)
                      for p in PALETTE for shape in [(n,) * p.arity + (p.num_labels,)]})
    program = compile_rules(rules, kb)
    seen["expanding"].append(any(ci.coefficient != 1.0 for ci in program.implications))
    weights = tuple(ci.weight * ci.coefficient for ci in program.implications)
    steps, _, _ = _schedule(program, weights, phi.extremes(kb), _storage(kb)[2])
    seen["writing"].append(any(step.writes for step in steps))
    start = initial_marginals(phi, kb)
    seen["kinds"].update(step_kind(step, start) for step in steps)
    got = iterate(phi, program, EngineConfig(iterations=iterations, damping=damping))
    q = chained_oracle(phi, rules, kb, iterations, damping)
    for name, mask in kb.masks().items():
        diff = np.abs(got.tables[name] - q.tables[name])[~mask.mask]
        assert diff.size == 0 or diff.max() <= 1e-9


def test_iterate_matches_chained_oracle_on_every_rule_shape():
    # per example: does a summed 1 - q1 premise expand, does a message write
    # a zero-unary plane?  And every kind of step runs at least once.
    seen = {"expanding": [], "writing": [], "kinds": set()}
    _matches_chained_oracle(seen)
    assert any(seen["expanding"]) and any(seen["writing"])
    assert seen["kinds"] == STEP_KINDS


# Every cell observed stops at iteration 1; logits of ten thousand saturate
# the sigmoid and softmax to exact 0 and 1, which messages rarely move.  The
# examples stop after messages moved a cell, at iteration 3 undamped and 2
# damped, and one runs out its single iteration, so every run of the test
# holds each case its caller asserts was seen.
@example(rules=_transitivity_on_p(1.0), n=3, seed=3, damping=0.0, iterations=5,
         observed=0.2, scale=1e4, zero_unary=set())
@example(rules=_transitivity_on_p(1.0), n=3, seed=14, damping=0.3, iterations=5,
         observed=0.2, scale=1e4, zero_unary=set())
@example(rules=_transitivity_on_p(1.0), n=3, seed=3, damping=0.0, iterations=1,
         observed=0.2, scale=1e4, zero_unary=set())
@given(rules=rule_lists(), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       damping=st.sampled_from([0.0, 0.3]), iterations=st.integers(1, 5),
       observed=st.sampled_from([0.2, 1.0]), scale=st.sampled_from([1.0, 1e4]),
       zero_unary=st.sets(st.sampled_from([p.name for p in PALETTE])))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def _stops_only_where_later_iterations_repeat(seen, rules, n, seed, damping, iterations,
                                              observed, scale, zero_unary):
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase([f"E{i}" for i in range(n)], {p.name: p for p in PALETTE}, {
        (p.name, cell): int(rng.integers(p.num_labels))
        for p in PALETTE for cell in np.ndindex(*(n,) * p.arity) if rng.random() < observed})
    phi = UnaryTable({p.name: np.zeros(shape) if p.name in zero_unary
                      else scale * rng.normal(0.0, 1.5, shape)
                      for p in PALETTE for shape in [(n,) * p.arity + (p.num_labels,)]})
    program = compile_rules(rules, kb)
    trace, longer_trace = IterationTrace(), IterationTrace()
    got = iterate(phi, program, EngineConfig(iterations, damping=damping), trace)
    ran = len(trace.seconds)
    assert len(trace.residual) == len(trace.changed) == ran and 1 <= ran <= iterations
    seen.append((ran, iterations, damping))
    if ran == iterations:
        return
    assert (trace.residual[-1], trace.changed[-1]) == (0.0, 0)
    longer = iterate(phi, program, EngineConfig(iterations + 3, damping=damping), longer_trace)
    assert len(longer_trace.seconds) == ran and same_bytes(longer, got)
    # the stop's own iteration count, whose last iteration is never compared
    assert same_bytes(iterate(phi, program, EngineConfig(ran, damping=damping)), got)


def test_fixed_point_stop_gives_the_bytes_of_every_longer_run():
    seen: list[tuple[int, int, float]] = []
    _stops_only_where_later_iterations_repeat(seen)
    stopped = [(ran, damping) for ran, iterations, damping in seen if ran < iterations]
    # stops with and without damping, and after messages moved a cell
    assert {damping for _, damping in stopped} == {0.0, 0.3}
    assert any(ran > 1 for ran, _ in stopped) and len(stopped) < len(seen)


def test_brute_einsum_agrees_with_numpy():
    rng = np.random.default_rng(2)
    a, b = rng.random((3, 4)), rng.random((4, 2))
    assert np.allclose(brute_einsum("ab,bc->ac", [a, b]), a @ b, atol=1e-12)
    v = rng.random(4)
    assert np.allclose(brute_einsum("a,ab->b", [v, a.T]), v @ a.T, atol=1e-12)
