"""The benchmark tracer patches einlog entry points by name; a renamed or
moved entry point would silently zero its per-layer metrics."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import einlog as E  # noqa: E402
from einlog import engine  # noqa: E402


def test_every_tracer_target_resolves():
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == []


def test_every_planned_product_runs_inside_a_message_span():
    # a summed implication's message is one product, so it and the N^2 sum
    # before it count toward engine.message
    rules = E.parse_rules(workloads.TRANSITIVITY_RULES)
    n = 16
    kb = E.KnowledgeBase([f"E{i}" for i in range(n)], rules.predicates, {})
    phi = E.UnaryTable({"coexist": np.random.default_rng(5).normal(0.0, 2.0, (n, n, 2))})
    program = E.compile_rules(rules, kb)
    assert sum(ci.partner is not None for ci in program.implications) == 1
    with tracing.Tracer() as tracer:
        engine.iterate(phi, program, E.EngineConfig(iterations=3))
    spans = tracer.spans
    products = [s for s in spans if s.name == "planner.execute"]
    # per iteration: the summed product, the other q1 product and two ones terms
    assert len(products) == 12
    parents = [spans[s.parent].name if s.parent >= 0 else None for s in products]
    assert parents == ["engine.message"] * len(products)
