"""Mean-field engine over grouped per-predicate marginal tensors.

Rules compile into implications, one per clause literal.  The message of an
implication is a planned einsum over the premise predicates' marginal
tensors, where each premise literal contributes the probability that it is
*false* (the marginal mass on the labels outside its value set).  The message
value at a hypothesis cell is the expected number of groundings whose premise
holds, and it is added, scaled by the rule weight, to the logits of the
labels in the hypothesis value set before renormalizing.  Updates are
synchronous: all messages of one iteration read the same marginal snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import planner
from .fol import Clause, CnfFormula, Literal, split_cnf, to_implications
from .kb import KnowledgeBase, ObservationMask
from .tensor import EinsumSpec, softmax_lastaxis

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class EngineError(Exception):
    """Shape mismatch, invalid rule, or numerical failure during inference."""


@dataclass
class UnaryTable:
    """Per-predicate logit tensors of shape N^arity x D."""

    tables: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, kb: KnowledgeBase) -> "UnaryTable":
        return cls({name: np.zeros(kb.shape(p) + (p.num_labels,))
                    for name, p in kb.predicates.items()})

    def copy(self) -> "UnaryTable":
        return UnaryTable({k: v.copy() for k, v in self.tables.items()})

    def validate(self, kb: KnowledgeBase) -> "UnaryTable":
        for name, pred in kb.predicates.items():
            arr = self.tables.get(name)
            if arr is None:
                raise EngineError(f"missing unary table for {name}")
            want = kb.shape(pred) + (pred.num_labels,)
            if arr.shape != want:
                raise EngineError(f"unary table {name}: shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)):
                raise EngineError(f"unary table {name} contains non-finite values")
        return self


@dataclass
class MarginalTable:
    """Per-predicate marginals; last axis sums to one."""

    tables: dict[str, np.ndarray]

    def copy(self) -> "MarginalTable":
        return MarginalTable({k: v.copy() for k, v in self.tables.items()})

    def max_abs_diff(self, other: "MarginalTable") -> float:
        return max(float(np.max(np.abs(self.tables[k] - other.tables[k])))
                   for k in self.tables)

    def validate(self, kb: KnowledgeBase, atol: float = 1e-9) -> "MarginalTable":
        for name, pred in kb.predicates.items():
            arr = self.tables[name]
            if arr.min() < -atol:
                raise EngineError(f"negative marginal in {name}")
            if np.max(np.abs(arr.sum(axis=-1) - 1.0)) > atol:
                raise EngineError(f"marginals of {name} do not sum to 1")
        return self


@dataclass(frozen=True)
class PremiseInput:
    """One premise literal lowered to tensor form."""

    predicate: str
    subscript: str                       # letters of variable args, constants sliced away
    const_slices: tuple[tuple[int, int], ...]  # (axis, entity index), ascending axes
    complement_labels: tuple[int, ...]   # labels on which the literal is false

    def gather(self, q: np.ndarray) -> np.ndarray:
        """Mass on the labels that falsify the literal, as a fresh contiguous
        array; for binary literals it is the single opposite-label slice.

        A strided view of ``q`` would change the summation order of the
        contraction, so even a single label is copied.
        """
        cells = [slice(None)] * (q.ndim - 1)
        for axis, pos in self.const_slices:
            cells[axis] = pos
        first, *rest = self.complement_labels
        out = q[(*cells, first)].copy()
        for label in rest:
            out += q[(*cells, label)]
        return out


@dataclass(frozen=True)
class CompiledImplication:
    """A clause literal as hypothesis plus the planned premise contraction."""

    rule_id: str
    clause_id: str
    weight: float
    hypothesis: str
    target_labels: tuple[int, ...]
    premises: tuple[PremiseInput, ...]
    spec: EinsumSpec
    plan: planner.ContractionPlan
    # index of the hypothesis cells, in message axis order; see _scatter_index
    scatter: tuple = field(compare=False, repr=False)

    def describe(self) -> str:
        return (f"rule {self.rule_id} -> {self.hypothesis}: spec {self.spec} "
                f"M'={self.plan.max_intermediate_arity}")


@dataclass(frozen=True)
class Program:
    """Rules compiled against one knowledge base: every implication, planned."""

    kb: KnowledgeBase
    implications: tuple[CompiledImplication, ...]


@dataclass
class EngineConfig:
    iterations: int = 5
    weights: dict[str, float] = field(default_factory=dict)  # rule id -> override
    damping: float = 0.0

    def __post_init__(self):
        if self.iterations < 1:
            raise EngineError("iterations must be >= 1")
        if not 0.0 <= self.damping <= 1.0:
            raise EngineError("damping must lie in [0, 1]")

    def effective_weight(self, ci: CompiledImplication) -> float:
        return self.weights.get(ci.rule_id, ci.weight)


@dataclass
class IterationTrace:
    """Optional per-iteration record of wall seconds."""

    seconds: list[float] = field(default_factory=list)


def _compile_clause(clause: Clause, kb: KnowledgeBase, rule_id: str) -> list[CompiledImplication]:
    letters: dict[str, str] = {}

    def letter(symbol: str) -> str:
        if symbol not in letters:
            if len(letters) >= len(_LETTERS):
                raise EngineError("more than 26 distinct variables in one clause")
            letters[symbol] = _LETTERS[len(letters)]
        return letters[symbol]

    def check(lit: Literal):
        pred = kb.predicates.get(lit.predicate.name)
        if pred is None:
            raise EngineError(f"rule {rule_id}: predicate {lit.predicate.name!r} "
                              "not in knowledge base")
        if pred != lit.predicate:
            raise EngineError(f"rule {rule_id}: predicate {lit.predicate.name!r} "
                              "differs from the knowledge-base declaration")

    for lit in clause.literals:
        check(lit)
        for term in lit.args:
            if not term.is_constant:
                letter(term.symbol)

    out = []
    for imp in to_implications(clause):
        hyp = imp.hypothesis
        pattern = tuple(kb.entity_index(t.symbol) if t.is_constant else letter(t.symbol)
                        for t in hyp.args)
        out_sub = ""
        for t in hyp.args:
            if not t.is_constant and letter(t.symbol) not in out_sub:
                out_sub += letter(t.symbol)
        premises = []
        in_subs = []
        for plit in imp.premise:
            sub = ""
            consts = []
            for axis, t in enumerate(plit.args):
                if t.is_constant:
                    consts.append((axis, kb.entity_index(t.symbol)))
                else:
                    sub += letter(t.symbol)
            premises.append(PremiseInput(plit.predicate.name, sub, tuple(consts),
                                         plit.complement_labels()))
            in_subs.append(sub)
        spec = EinsumSpec(tuple(in_subs), out_sub)
        extents = {ch: kb.n for sub in (*in_subs, out_sub) for ch in sub}
        cplan = planner.plan(spec, extents)
        out.append(CompiledImplication(
            rule_id=rule_id, clause_id=clause.id or rule_id,
            weight=clause.weight, hypothesis=hyp.predicate.name,
            target_labels=tuple(sorted(hyp.value_set)),
            premises=tuple(premises), spec=spec, plan=cplan,
            scatter=_scatter_index(out_sub, pattern, kb.n)))
    return out


def _scatter_index(output: str, pattern, n: int) -> tuple:
    """Index mapping the message tensor onto hypothesis cells.

    Without a repeated variable the cells form a basic-indexed view (a full
    slice per variable, the entity index per constant), so the message is
    added in place.  A repeated variable, as in ``p(a,a)``, selects a
    diagonal, which needs an arange fancy index over its message axis.
    """
    variables = [item for item in pattern if isinstance(item, str)]
    if len(variables) == len(set(variables)):
        return tuple(slice(None) if isinstance(item, str) else item for item in pattern)
    idx = []
    for item in pattern:
        if isinstance(item, str):
            shape = [1] * len(output)
            shape[output.index(item)] = n
            idx.append(np.arange(n).reshape(shape))
        else:
            idx.append(item)
    return tuple(idx)


def compile_rules(rules, kb: KnowledgeBase) -> Program:
    """Split CNF formulas into clauses and plan every implication."""
    compiled = []
    for i, formula in enumerate(rules):
        if isinstance(formula, Clause):
            formula = CnfFormula((formula,), weight=formula.weight,
                                 id=formula.id or f"f{i + 1}")
        rule_id = formula.id or f"f{i + 1}"
        for clause in split_cnf(formula):
            compiled.extend(_compile_clause(clause, kb, rule_id))
    return Program(kb, tuple(compiled))


def message(ci: CompiledImplication, marginals: MarginalTable) -> np.ndarray:
    """Expected count of true-premise groundings per hypothesis cell."""
    arrays = [p.gather(marginals.tables[p.predicate]) for p in ci.premises]
    return planner.execute(ci.plan, arrays)


def _clamp(q: MarginalTable, masks: dict[str, ObservationMask]):
    """Pin observed cells to the one-hot marginal of their observed label."""
    for name, m in masks.items():
        if m.mask.any():
            arr = q.tables[name]
            arr[m.mask] = np.eye(arr.shape[-1])[m.labels[m.mask]]


def initial_marginals(phi: UnaryTable, kb: KnowledgeBase) -> MarginalTable:
    """The starting point of inference: label softmax, observed cells pinned."""
    q = MarginalTable({name: softmax_lastaxis(arr) for name, arr in phi.tables.items()})
    _clamp(q, kb.masks())
    return q


def iterate(phi: UnaryTable, program: Program, config: EngineConfig,
            trace: IterationTrace | None = None) -> MarginalTable:
    """Run mean-field iterations and return the final marginals."""
    unknown = sorted(set(config.weights) - {ci.rule_id for ci in program.implications})
    if unknown:
        raise EngineError(f"weight override for unknown rule id {', '.join(unknown)}")
    masks = program.kb.masks()
    q = initial_marginals(phi, program.kb)
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        logits = {name: arr.copy() for name, arr in phi.tables.items()}
        for ci in program.implications:
            weighted = config.effective_weight(ci) * message(ci, q)
            target = logits[ci.hypothesis]
            for label in ci.target_labels:
                target[ci.scatter + (label,)] += weighted
        for name, arr in logits.items():
            if not np.all(np.isfinite(arr)):
                raise EngineError(f"non-finite logits for {name} at iteration {t}")
        new_q = MarginalTable({name: softmax_lastaxis(arr) for name, arr in logits.items()})
        if config.damping > 0.0:
            lam = config.damping
            for name in new_q.tables:
                new_q.tables[name] = (1.0 - lam) * new_q.tables[name] + lam * q.tables[name]
        _clamp(new_q, masks)
        q = new_q
        if trace is not None:
            trace.seconds.append(time.perf_counter() - started)
    return q


def run_inference(rules, kb: KnowledgeBase, phi: UnaryTable, config: EngineConfig,
                  trace: IterationTrace | None = None) -> MarginalTable:
    """Compile rules against the knowledge base and iterate."""
    phi.validate(kb)
    return iterate(phi, compile_rules(rules, kb), config, trace)


def transitivity_violations(q: np.ndarray) -> int:
    """Triples (a,b,c) whose argmax labels assert ab and bc but deny ac."""
    arr = np.asarray(q)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise EngineError("expected marginals of one binary arity-2 predicate "
                          f"(N,N,2); got shape {arr.shape}")
    b = np.argmax(arr, axis=-1).astype(np.int64)
    return int(np.einsum("ab,bc,ac->", b, b, 1 - b))
