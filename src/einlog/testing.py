"""Random instance generation and the engine-versus-oracle check suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import engine, oracle
from .engine import EngineConfig, UnaryTable, initial_marginals
from .fol import (Clause, CnfFormula, Literal, Predicate, merge_literals, normalize_rules,
                  variable)
from .kb import KnowledgeBase

_VARS = ("x", "y", "z")
# the share of drawn clauses that read one arity-2 predicate in a chain
_CHAIN = 0.25
# the largest engine-versus-oracle gap a check accepts
ORACLE_TOL = 1e-9


def _random_clause(rng: np.random.Generator, predicates, max_literals: int,
                   weight: float, cid: str) -> Clause | None:
    """None when the drawn literals merge into a tautology; the caller redraws.

    With probability ``_CHAIN``, when there is an arity-2 predicate, the
    clause is ``p(x,y) | p(y,z) | h(x,z)``: one predicate read twice, in a
    chain, with one value set, as in transitivity, so that its implications
    include matrix products, symmetric ones and summed pairs."""
    def values(pred: Predicate) -> frozenset:
        size = int(rng.integers(1, pred.num_labels))
        return frozenset(int(v) for v in
                         rng.choice(pred.num_labels, size=size, replace=False))

    def draw() -> Literal:
        pred = predicates[int(rng.integers(len(predicates)))]
        args = tuple(variable(_VARS[int(rng.integers(len(_VARS)))])
                     for _ in range(pred.arity))
        return Literal(pred, args, values(pred))

    pairs = [p for p in predicates if p.arity == 2]
    if pairs and max_literals >= 3 and rng.random() < _CHAIN:
        pred, head = (pairs[int(i)] for i in rng.integers(len(pairs), size=2))
        x, y, z = map(variable, _VARS)
        held = values(pred)
        literals = merge_literals([Literal(pred, (x, y), held), Literal(pred, (y, z), held),
                                   Literal(head, (x, z), values(head))])
    else:
        length = int(rng.integers(1, max_literals + 1))
        literals = merge_literals(draw() for _ in range(length))
    return None if literals is None else Clause(literals, weight=weight, id=cid)


def random_instance(rng: np.random.Generator, *, max_entities: int = 6,
                    max_predicates: int = 3, max_arity: int = 2,
                    max_clauses: int = 4, max_literals: int = 3,
                    max_labels: int = 3, p_observe: float = 0.25):
    """A random KB, rule list, and unary table within the given bounds."""
    n = int(rng.integers(2, max_entities + 1))
    entities = [f"e{i}" for i in range(n)]
    predicates = []
    for i in range(int(rng.integers(1, max_predicates + 1))):
        arity = int(rng.integers(1, max_arity + 1))
        labels = int(rng.integers(2, max_labels + 1))
        predicates.append(Predicate(f"p{i}", arity, labels))

    observations = {}
    for pred in predicates:
        for args in np.ndindex(*((n,) * pred.arity)):
            if rng.random() < p_observe:
                observations[(pred.name, tuple(int(a) for a in args))] = \
                    int(rng.integers(pred.num_labels))
    kb = KnowledgeBase(entities, {p.name: p for p in predicates}, observations)

    rules = []
    n_clauses = int(rng.integers(1, max_clauses + 1))
    k = 0
    while k < n_clauses:
        weight = float(rng.uniform(0.2, 2.0))
        clause = _random_clause(rng, predicates, max_literals, weight, f"f{k + 1}")
        if clause is None:
            continue
        rules.append(CnfFormula((clause,), weight=weight, id=f"f{k + 1}"))
        k += 1

    phi = UnaryTable({p.name: rng.normal(0.0, 1.5, size=(n,) * p.arity + (p.num_labels,))
                      for p in predicates})
    return kb, rules, phi


def engine_oracle_gap(kb: KnowledgeBase, rules, phi: UnaryTable,
                      weights: dict[str, float] | None = None) -> float:
    """Max |engine - sequential oracle| over unobserved cells after one step.

    ``weights`` overrides rule weights by formula id, in both computations.
    """
    weights = weights or {}
    rules = normalize_rules(rules)
    got = engine.iterate(phi, engine.compile_rules(rules, kb),
                         EngineConfig(iterations=1, weights=weights))
    rules = [replace(f, weight=weights.get(f.id, f.weight)) for f in rules]
    want = oracle.naive_mf_step(initial_marginals(phi, kb), rules, kb, phi)
    worst = 0.0
    for name in kb.predicates:
        diff = np.abs(got.tables[name] - want.tables[name])
        latent = ~kb.masks()[name].mask
        if latent.any():
            worst = max(worst, float(diff[latent].max()))
    return worst


def run_equivalence_suite(trials: int = 25, seed: int = 0) -> tuple[float, int]:
    """Random engine-vs-oracle trials; returns (worst gap, count of gaps
    above ``ORACLE_TOL``) and prints a line for each trial above it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for t in range(trials):
        kb, rules, phi = random_instance(rng)
        gap = engine_oracle_gap(kb, rules, phi)
        worst = max(worst, gap)
        if gap > ORACLE_TOL:
            failures += 1
            print(f"trial {t}: gap {gap:.3e} exceeds {ORACLE_TOL:.1e}")
    return worst, failures
