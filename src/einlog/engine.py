"""Mean-field engine over grouped per-predicate marginal tensors.

Rules compile into implications, one per clause literal.  The message of an
implication is a planned einsum over the premise predicates' marginal
tensors, where each premise literal contributes the probability that it is
*false* (the marginal mass on the labels outside its value set).  The message
value at a hypothesis cell is the expected number of groundings whose premise
holds, and it is added, scaled by the rule weight, to the logits of the
labels in the hypothesis value set before renormalizing.  Updates are
synchronous: all messages of one iteration read the same marginal snapshot.

Inside ``iterate`` a binary predicate is held as one plane, since
``q0 = 1 - q1``: the logit difference ``x0 - x1`` while messages are added,
then ``q1 = 1 / (1 + exp(x0 - x1))``.  A table whose ``ndim`` equals its
predicate's arity is such a plane; every other table is ``N^arity x D``
with the labels last.  Where a summed premise would read ``1 - q1``, the
message is expanded as ``N^k * contract(other premises) -
contract(..., q1, ...)`` instead (see ``ComplementExpansion``), so no
complement table is built.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import planner
from .fol import Clause, normalize_rules, split_cnf
from .kb import KnowledgeBase, ObservationMask
from .tensor import EinsumSpec, label_planes, sigmoid, softmax_lastaxis

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class EngineError(Exception):
    """Shape mismatch, invalid rule, or numerical failure during inference."""


@dataclass
class UnaryTable:
    """Per-predicate logit tensors of shape N^arity x D."""

    tables: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, kb: KnowledgeBase) -> "UnaryTable":
        return cls({name: label_planes(kb.shape(p) + (p.num_labels,), np.zeros)
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

    @property
    def arity(self) -> int:
        return len(self.subscript) + len(self.const_slices)

    @property
    def key(self) -> tuple:
        """What ``gather`` reads: premises with equal keys get equal arrays."""
        return (self.predicate, self.const_slices, self.complement_labels)

    def gather(self, q: np.ndarray) -> np.ndarray:
        """Mass on the labels that falsify the literal, as a contiguous array.

        From an ``N^arity x D`` table it is a fresh array: for binary
        literals the single opposite-label slice, otherwise their sum.  From
        the ``q1`` plane of a binary predicate it is ``q1`` itself (a view)
        when label 1 falsifies the literal and ``1 - q1`` when label 0 does.
        A constant slice that comes out strided is copied, since a strided
        operand would change the summation order of the contraction.
        """
        cells = [slice(None)] * self.arity
        for axis, pos in self.const_slices:
            cells[axis] = pos
        if q.ndim == self.arity:
            plane = q[(*cells, ...)]
            if self.complement_labels == (0,):
                return np.subtract(1.0, plane)
            return plane if plane.flags.c_contiguous else plane.copy()
        first, *rest = self.complement_labels
        out = q[(*cells, first)].copy()
        for label in rest:
            out += q[(*cells, label)]
        return out


@dataclass(frozen=True)
class ComplementExpansion:
    """The premise ``index``, falsified by label 0 of a binary predicate, read
    as ``q1``: ``contract(..., 1 - q1, ...)`` equals
    ``scale * contract(others) - contract(..., q1, ...)``, where ``scale`` is
    ``N^k`` for the k letters only that premise holds and ``ones`` plans the
    other premises onto the message's output."""

    index: int
    scale: float
    ones: planner.ContractionPlan


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
    complement: ComplementExpansion | None  # used on q1 planes only
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
        if not isinstance(self.iterations, numbers.Integral):
            raise EngineError(f"iterations must be an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise EngineError("iterations must be >= 1")
        if not 0.0 <= self.damping <= 1.0:
            raise EngineError("damping must lie in [0, 1]")
        bad = sorted(rid for rid, w in self.weights.items() if not math.isfinite(w))
        if bad:
            raise EngineError(f"non-finite weight override for rule id {', '.join(bad)}")


@dataclass
class IterationTrace:
    """Optional per-iteration record: wall seconds, the residual
    ``max|q_t - q_{t-1}|`` over every cell of every predicate, and the number
    of latent cells whose argmax label changed."""

    seconds: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    changed: list[int] = field(default_factory=list)


def _compile_clause(clause: Clause, kb: KnowledgeBase, rule_id: str) -> list[CompiledImplication]:
    for lit in clause.literals:
        pred = kb.predicates.get(lit.predicate.name)
        if pred is None:
            raise EngineError(f"rule {rule_id}: predicate {lit.predicate.name!r} "
                              "not in knowledge base")
        if pred != lit.predicate:
            raise EngineError(f"rule {rule_id}: predicate {lit.predicate.name!r} "
                              "differs from the knowledge-base declaration")
    variables = clause.variables()
    if len(variables) > len(_LETTERS):
        raise EngineError("more than 26 distinct variables in one clause")
    letter = dict(zip(variables, _LETTERS))

    out = []
    for h, hyp in enumerate(clause.literals):
        pattern = tuple(kb.entity_index(t.symbol) if t.is_constant else letter[t.symbol]
                        for t in hyp.args)
        out_sub = "".join(dict.fromkeys(letter[t.symbol] for t in hyp.args
                                        if not t.is_constant))
        premises = []
        for plit in clause.literals[:h] + clause.literals[h + 1:]:
            sub = "".join(letter[t.symbol] for t in plit.args if not t.is_constant)
            consts = tuple((axis, kb.entity_index(t.symbol))
                           for axis, t in enumerate(plit.args) if t.is_constant)
            premises.append(PremiseInput(plit.predicate.name, sub, consts,
                                         plit.complement_labels()))
        in_subs = tuple(p.subscript for p in premises)
        spec = EinsumSpec(in_subs, out_sub)
        extents = {ch: kb.n for sub in (*in_subs, out_sub) for ch in sub}
        cplan = planner.plan(spec, extents)
        out.append(CompiledImplication(
            rule_id=rule_id, clause_id=clause.id or rule_id,
            weight=clause.weight, hypothesis=hyp.predicate.name,
            target_labels=tuple(sorted(hyp.value_set)),
            premises=tuple(premises), spec=spec, plan=cplan,
            complement=_complement_expansion(premises, spec, extents, kb),
            scatter=_scatter_index(out_sub, pattern, kb.n)))
    return out


def _complement_expansion(premises, spec: EinsumSpec, extents: dict,
                          kb: KnowledgeBase) -> ComplementExpansion | None:
    """The expansion of the one premise a binary label 0 falsifies, when the
    ``1 - q1`` table it saves has more cells than the ones-term's plan costs
    plus the message core holds; None otherwise.

    A premise worth expanding sums a letter, so the main plan's result is a
    fresh array that the expansion may overwrite.
    """
    found = [i for i, p in enumerate(premises) if p.complement_labels == (0,)
             and kb.predicates[p.predicate].num_labels == 2]
    if len(found) != 1:
        return None
    (i,) = found
    others = spec.inputs[:i] + spec.inputs[i + 1:]
    ones = planner.plan(EinsumSpec(others, spec.output), extents)

    def cells(letters) -> int:
        return math.prod(extents[ch] for ch in letters)

    core = spec.input_letters().intersection(spec.output)
    if cells(set(spec.inputs[i])) <= ones.total_cost + cells(core):
        return None
    own = set(spec.inputs[i]).difference(spec.output, *others)
    return ComplementExpansion(i, float(cells(own)), ones)


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
    for formula in normalize_rules(rules):
        for clause in split_cnf(formula):
            compiled.extend(_compile_clause(clause, kb, formula.id))
    return Program(kb, tuple(compiled))


def message(ci: CompiledImplication, marginals: MarginalTable,
            gathered: dict | None = None) -> np.ndarray:
    """Expected count of true-premise groundings per hypothesis cell.

    The message broadcasts to the hypothesis cells: a hypothesis variable
    absent from every premise gets a size-1 axis.  ``gathered`` shares
    premise inputs between the messages that read one marginal snapshot,
    keyed by ``PremiseInput.key``; ``planner.execute`` does not write to its
    inputs, so one array can feed several messages.  A message without
    contraction (``ab->ab``) is a view of its gathered input, so callers
    must not write to it in place.

    With a ``q1`` plane under its expanded premise, ``ci.complement`` reads
    that premise as ``q1`` (gathered under its label-1 key) and the message
    is ``scale * ones - main``, written over ``main``.
    """
    if gathered is None:
        gathered = {}
    premises, cx = ci.premises, ci.complement
    if cx is not None:
        p = premises[cx.index]
        if marginals.tables[p.predicate].ndim == p.arity:
            premises = (*premises[:cx.index], replace(p, complement_labels=(1,)),
                        *premises[cx.index + 1:])
        else:
            cx = None
    arrays = []
    for p in premises:
        arr = gathered.get(p.key)
        if arr is None:
            arr = gathered[p.key] = p.gather(marginals.tables[p.predicate])
        arrays.append(arr)
    main = planner.execute(ci.plan, arrays)
    if cx is None:
        return main
    ones = planner.execute(cx.ones, arrays[:cx.index] + arrays[cx.index + 1:])
    return np.subtract(cx.scale * ones, main, out=main)


def _clamp(tables: dict[str, np.ndarray], masks: dict[str, ObservationMask]):
    """Pin observed cells to the one-hot marginal of their observed label; a
    ``q1`` plane gets the label itself."""
    for name, m in masks.items():
        if m.mask.any():
            arr = tables[name]
            observed = m.labels[m.mask]
            arr[m.mask] = observed if arr.ndim == m.mask.ndim \
                else np.eye(arr.shape[-1])[observed]


def _storage(kb: KnowledgeBase) -> tuple[dict, dict, frozenset]:
    """Label-plane ``N^arity x D`` output tables; the storage ``iterate``
    works in, which is label 1's plane of a binary table and the table
    itself otherwise; and the names of the binary predicates."""
    tables = {name: label_planes(kb.shape(p) + (p.num_labels,))
              for name, p in kb.predicates.items()}
    planes = frozenset(name for name, p in kb.predicates.items() if p.num_labels == 2)
    return tables, {name: t[..., 1] if name in planes else t
                    for name, t in tables.items()}, planes


def _refill(tables: dict[str, np.ndarray], phi: UnaryTable, planes: frozenset):
    """Unary logits into each table; a binary plane gets ``x0 - x1``, which
    may overflow: the finite check of ``iterate`` reports it."""
    with np.errstate(over="ignore"):
        for name, arr in tables.items():
            logits = phi.tables[name]
            if name in planes:
                np.subtract(logits[..., 0], logits[..., 1], out=arr)
            else:
                np.copyto(arr, logits)


def _normalize(tables: dict[str, np.ndarray], planes: frozenset):
    """Logits to marginals in place: the sigmoid of a binary plane's logit
    difference, the label softmax of a table."""
    for name, arr in tables.items():
        if name in planes:
            sigmoid(arr, out=arr)
        else:
            softmax_lastaxis(arr, out=arr)


def _start(q: dict[str, np.ndarray], phi: UnaryTable, planes: frozenset,
           masks: dict[str, ObservationMask]):
    """The state inference starts from, into ``q``: label softmax (a sigmoid
    for binary planes), observed cells pinned."""
    _refill(q, phi, planes)
    _normalize(q, planes)
    _clamp(q, masks)


def _expand(tables: dict[str, np.ndarray], planes: frozenset) -> MarginalTable:
    """Fill label 0 of each binary table with ``1 - q1``."""
    for name in planes:
        np.subtract(1.0, tables[name][..., 1], out=tables[name][..., 0])
    return MarginalTable(tables)


def initial_marginals(phi: UnaryTable, kb: KnowledgeBase) -> MarginalTable:
    """The starting point of inference: label softmax (a sigmoid for binary
    predicates), observed cells pinned.

    The tables are label-plane (see ``tensor.label_planes``), as every
    marginal table ``iterate`` returns, and hold what ``iterate`` starts from.
    """
    tables, q, planes = _storage(kb)
    _start(q, phi, planes, kb.masks())
    return _expand(tables, planes)


def _add_messages(logits: dict[str, np.ndarray], program: Program,
                  q: MarginalTable, weights: tuple[float, ...]):
    """Add every message, scaled by its entry of ``weights`` (aligned with
    ``program.implications``), all read from the snapshot ``q``.

    A binary plane holds ``x0 - x1``, so a message to label 1 is added with
    its weight negated; negation is exact, so this rounds as a subtraction.
    A message that ``planner.execute`` allocated is scaled in place (it
    rounds as ``w * msg``).  A view, such as a message without contraction
    that aliases a shared gathered input or ``q`` itself, is scaled into a
    new array.  The ``+=`` broadcasts a message's size-1 axes over the
    hypothesis cells.  Each message is dropped before the next is computed.
    """
    gathered: dict = {}
    for ci, w in zip(program.implications, weights):
        target = logits[ci.hypothesis]
        if target.ndim == len(ci.scatter):
            (label,) = ci.target_labels
            w, cells = (-w if label else w), [ci.scatter]
        else:
            cells = [ci.scatter + (label,) for label in ci.target_labels]
        msg = message(ci, q, gathered)
        if msg.flags.owndata:
            msg *= w
        else:
            msg = w * msg
        for index in cells:
            target[index] += msg
        del msg


def _record(trace: IterationTrace, q: dict, new: dict, planes: frozenset):
    """Residual and argmax changes between two states, as the expanded
    ``N^arity x D`` tables would give them.  Observed cells stay pinned, so
    every cell whose argmax changes is latent."""
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
    trace.residual.append(residual)
    trace.changed.append(changed)


def iterate(phi: UnaryTable, program: Program, config: EngineConfig,
            trace: IterationTrace | None = None) -> MarginalTable:
    """Run mean-field iterations and return the final marginals.

    Two tables per predicate take turns: one holds the current marginals,
    the other is refilled with the unary logits, receives the messages and
    is normalized, damped and clamped in place.  A binary predicate's pair
    is two planes (see the module docstring), and the one the last
    iteration writes is label 1 of its output table from the start, so the
    result costs one ``1 - q1`` pass and no copy.  ``phi`` is validated
    against the program's knowledge base first.
    """
    phi.validate(program.kb)
    unknown = sorted(set(config.weights) - {ci.rule_id for ci in program.implications})
    if unknown:
        raise EngineError(f"weight override for unknown rule id {', '.join(unknown)}")
    weights = tuple(config.weights.get(ci.rule_id, ci.weight) for ci in program.implications)
    masks = program.kb.masks()
    tables, last, planes = _storage(program.kb)
    other = {name: np.empty(arr.shape) if name in planes else label_planes(arr.shape)
             for name, arr in last.items()}
    # iteration t writes the spare table; after T iterations that is `last`
    q, spare = (last, other) if config.iterations % 2 == 0 else (other, last)
    _start(q, phi, planes, masks)
    lam = config.damping
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        _refill(spare, phi, planes)
        _add_messages(spare, program, MarginalTable(q), weights)
        for name, arr in spare.items():
            if not np.all(np.isfinite(arr)):
                raise EngineError(f"non-finite logits for {name} at iteration {t}")
        _normalize(spare, planes)
        if lam > 0.0:
            for name, arr in spare.items():
                arr *= 1.0 - lam
                arr += lam * q[name]
        _clamp(spare, masks)
        q, spare = spare, q
        if trace is not None:
            trace.seconds.append(time.perf_counter() - started)
            _record(trace, spare, q, planes)
    del q, spare, other  # free the spare planes before label 0 is written
    return _expand(tables, planes)


def run_inference(rules, kb: KnowledgeBase, phi: UnaryTable, config: EngineConfig,
                  trace: IterationTrace | None = None) -> MarginalTable:
    """Compile rules against the knowledge base and iterate."""
    return iterate(phi, compile_rules(rules, kb), config, trace)


def transitivity_violations(q: np.ndarray) -> int:
    """Triples (a,b,c) whose argmax labels assert ab and bc but deny ac."""
    arr = np.asarray(q)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise EngineError("expected marginals of one binary arity-2 predicate "
                          f"(N,N,2); got shape {arr.shape}")
    b = np.argmax(arr, axis=-1).astype(np.int64)
    return int(np.einsum("ab,bc,ac->", b, b, 1 - b))
