"""Mean-field engine over grouped per-predicate marginal tensors.

Rules compile into implications, one per clause literal.  The message of an
implication is a planned einsum over the premise predicates' marginal
tensors, where each premise literal contributes the probability that it is
*false* (the marginal mass on the labels outside its value set).  The message
value at a hypothesis cell is the expected number of groundings whose premise
holds, and it is added, scaled by the rule weight, to the logits of the
labels in the hypothesis value set before renormalizing.  Updates are
synchronous: all messages of one iteration read the same marginal snapshot.

Where a summed premise would read ``1 - q1`` of a binary predicate, the
literal compiles to two implications instead of one (see
``_complement_expansion``): ``contract(..., q1, ...)`` with coefficient -1
and ``contract(other premises)`` with coefficient ``N^k``, so no complement
table is built.  Each implication's coefficient scales its rule weight.

Inside ``iterate`` a binary predicate is held as one plane, since
``q0 = 1 - q1``: the logit difference ``x0 - x1`` while messages are added,
then ``q1 = 1 / (1 + exp(x0 - x1))``.  A table whose ``ndim`` equals its
predicate's arity is such a plane; every other table is ``N^arity x D``
with the labels last.  Each snapshot of ``q1`` on a plane of arity at most 2
holds exactly 0 wherever it would hold less than ``_FLUSH``, so the product
of two nonzero entries of a matrix-product operand is a normal number.

Where it is exact, a message writes its logit plane (see ``_schedule``):
a zero-unary binary plane is not refilled but written by one of its first
two messages, through ``planner.execute(out=)`` when the plan fills it; a
message of weight ±1 is added with no scale pass; and a predicate observed
in every cell gets no message.  Marginals are bit-identical to refilling
and adding every scaled message.

Each large pass of an iteration over a table, a plane or a label slice
(refill, a message's scale and its add through a basic index, the finite
check, normalize, damping, flush, the result's ``1 - q1`` and the trace's
passes) runs in row blocks through ``parallel.rows``, and each large
contraction step through ``planner.execute``'s split.  Every block does
the whole pass's arithmetic on its own rows, so the bytes are those of the
whole pass.  Clamping and an add into a diagonal, which index by array,
stay whole.
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
from .parallel import rows
from .tensor import EinsumSpec, label_planes, sigmoid, softmax_lastaxis

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# sqrt of the smallest normal float64, about 1.49e-154: two q1 entries at
# or above it multiply to a normal number
_FLUSH = math.sqrt(np.finfo(np.float64).tiny)
# the largest last residual of a run that counts as converged
CONVERGENCE_TOL = 1e-6


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

    def validate(self, kb: KnowledgeBase) -> "UnaryTable":
        unknown = sorted(set(self.tables).difference(kb.predicates))
        if unknown:
            raise EngineError(f"unary table for unknown predicate {', '.join(unknown)}")
        for name, pred in kb.predicates.items():
            arr = self.tables.get(name)
            if arr is None:
                raise EngineError(f"missing unary table for {name}")
            want = kb.shape(pred) + (pred.num_labels,)
            if arr.shape != want:
                raise EngineError(f"unary table {name}: shape {arr.shape}, expected {want}")
            lo, hi = arr.min(), arr.max()  # NaN propagates into both
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise EngineError(f"unary table {name} contains non-finite values")
            # per-cell label spreads only when the whole-table spread overflows
            with np.errstate(over="ignore"):
                if not (np.isfinite(hi - lo)
                        or np.isfinite(arr.max(axis=-1) - arr.min(axis=-1)).all()):
                    raise EngineError(f"unary table {name}: the label logits of a cell "
                                      "differ by more than a float64 holds")
        return self


@dataclass
class MarginalTable:
    """Per-predicate marginals; last axis sums to one."""

    tables: dict[str, np.ndarray]

    def copy(self) -> "MarginalTable":
        return MarginalTable({k: v.copy() for k, v in self.tables.items()})

    def validate(self, kb: KnowledgeBase, atol: float = 1e-9) -> "MarginalTable":
        for name, pred in kb.predicates.items():
            arr = self.tables[name]
            lo, hi = arr.min(), arr.max()  # NaN propagates into both
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise EngineError(f"marginals of {name} contain non-finite values")
            if lo < -atol:
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
        """What ``gather`` reads: premises with equal keys get equal arrays,
        so ``message`` gathers each key of one implication once."""
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
class CompiledImplication:
    """A clause literal as hypothesis plus the planned premise contraction,
    or one of the two terms an expanded literal compiles to.  Its message is
    scaled by the rule weight times ``coefficient``: -1 for the term that
    reads the expanded premise as ``q1``, ``N^k`` for the term over the
    other premises, and 1 for every unexpanded literal."""

    rule_id: str
    clause_id: str
    weight: float
    hypothesis: str
    target_labels: tuple[int, ...]
    premises: tuple[PremiseInput, ...]
    plan: planner.ContractionPlan
    coefficient: float
    # index of the hypothesis cells, in message axis order; see _scatter_index
    scatter: tuple = field(compare=False, repr=False)

    @property
    def symmetric(self) -> bool:
        """Whether the plan is one matrix product of an operand with its own
        transpose: both operands gather under one premise key, so ``message``
        hands them one array, and exactly one of them is transposed."""
        steps = self.plan.steps
        if len(steps) != 1 or steps[0].gemm is None:
            return False
        left, right, t_left, t_right = steps[0].gemm
        return self.premises[left].key == self.premises[right].key and t_left != t_right

    def describe(self) -> str:
        times = "" if self.coefficient == 1.0 else f" x {self.coefficient:.17g}"
        return (f"rule {self.rule_id} -> {self.hypothesis}: spec {self.plan.spec}{times} "
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

    @property
    def converged(self) -> bool:
        """Whether the last iteration moved no cell by more than
        ``CONVERGENCE_TOL`` and changed no argmax."""
        return (bool(self.residual) and self.residual[-1] <= CONVERGENCE_TOL
                and self.changed[-1] == 0)


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
        premises = tuple(premises)
        in_subs = tuple(p.subscript for p in premises)
        extents = {ch: kb.n for sub in (*in_subs, out_sub) for ch in sub}
        cplan = planner.plan(EinsumSpec(in_subs, out_sub), extents)
        out += _complement_expansion(CompiledImplication(
            rule_id=rule_id, clause_id=clause.id or rule_id,
            weight=clause.weight, hypothesis=hyp.predicate.name,
            target_labels=tuple(sorted(hyp.value_set)),
            premises=premises, plan=cplan, coefficient=1.0,
            scatter=_scatter_index(out_sub, pattern, kb.n)), kb)
    return out


def _complement_expansion(ci: CompiledImplication,
                          kb: KnowledgeBase) -> list[CompiledImplication]:
    """``ci`` as the two implications ``contract(..., q1, ...)`` (coefficient
    -1) and ``contract(others)`` (coefficient ``N^k``, k the letters only the
    premise holds) when the one premise a binary label 0 falsifies costs
    less that way; ``[ci]`` otherwise.  Unexpanded, the message builds the
    ``1 - q1`` table and runs ``ci.plan``; expanded, it runs the ones plan,
    adds the message core and runs ``ci.plan`` on ``q1``, which counts half
    when that is a symmetric product, and cancels otherwise.
    """
    premises, main = ci.premises, ci.plan
    found = [i for i, p in enumerate(premises) if p.complement_labels == (0,)
             and kb.predicates[p.predicate].num_labels == 2]
    if len(found) != 1:
        return [ci]
    (i,) = found
    spec = main.spec
    others = premises[:i] + premises[i + 1:]
    ones = planner.plan(EinsumSpec(spec.inputs[:i] + spec.inputs[i + 1:], spec.output),
                        main.extents)
    as_q1 = replace(ci, premises=(*premises[:i], replace(premises[i], complement_labels=(1,)),
                                  *premises[i + 1:]), coefficient=-1.0)

    def cells(letters) -> int:
        return math.prod(main.extents[ch] for ch in letters)

    saved = main.total_cost / 2 if as_q1.symmetric else 0
    core = spec.input_letters().intersection(spec.output)
    if cells(set(spec.inputs[i])) + saved <= ones.total_cost + cells(core):
        return [ci]
    own = set(spec.inputs[i]).difference(spec.output, *ones.spec.inputs)
    return [as_q1, replace(ci, premises=others, plan=ones, coefficient=float(cells(own)))]


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
            out: np.ndarray | None = None) -> np.ndarray:
    """Expected count of true-premise groundings per hypothesis cell.

    The message broadcasts to the hypothesis cells: a hypothesis variable
    absent from every premise gets a size-1 axis.  Each distinct
    ``PremiseInput.key`` of ``ci`` is gathered once, so premises with one key
    get one array, as the symmetric product (``ci.symmetric``) needs, even
    where gather copies; nothing is kept for other messages.  A message
    without contraction (``ab->ab``) is a view of its gathered input, so
    callers must not write to it in place.  The message is not scaled:
    callers apply the rule weight times ``ci.coefficient``.

    With ``out`` the plan's last step writes the message into ``out``,
    which is returned; the plan must fill its output (see
    ``planner.execute``).
    """
    first = {p.key: p for p in ci.premises}
    gathered = {key: p.gather(marginals.tables[p.predicate]) for key, p in first.items()}
    return planner.execute(ci.plan, [gathered[p.key] for p in ci.premises], out=out)


def _pins(masks: dict[str, ObservationMask]) -> dict[str, tuple]:
    """The mask and observed labels of each predicate with an observed cell."""
    return {name: (m.mask, m.labels[m.mask]) for name, m in masks.items() if m.mask.any()}


def _clamp(tables: dict[str, np.ndarray], pins: dict[str, tuple]):
    """Pin observed cells (``pins``, see ``_pins``) to the one-hot marginal
    of their observed label; a ``q1`` plane gets the label itself."""
    for name, (mask, labels) in pins.items():
        arr = tables[name]
        arr[mask] = labels if arr.ndim == mask.ndim else np.eye(arr.shape[-1])[labels]


def _storage(kb: KnowledgeBase) -> tuple[dict, dict, frozenset]:
    """Label-plane ``N^arity x D`` output tables; the storage ``iterate``
    works in, which is label 1's plane of a binary table and the table
    itself otherwise; and the names of the binary predicates."""
    tables = {name: label_planes(kb.shape(p) + (p.num_labels,))
              for name, p in kb.predicates.items()}
    planes = frozenset(name for name, p in kb.predicates.items() if p.num_labels == 2)
    return tables, {name: t[..., 1] if name in planes else t
                    for name, t in tables.items()}, planes


def _refill(tables: dict[str, np.ndarray], phi: UnaryTable, planes: frozenset, names):
    """Unary logits into the tables ``names``; a binary plane gets
    ``x0 - x1``, which is finite when ``phi`` passed ``validate``."""
    for name in names:
        arr, logits = tables[name], phi.tables[name]
        if name in planes:
            rows(_difference, arr, logits[..., 0], logits[..., 1])
        else:
            rows(np.copyto, arr, logits)


def _difference(out: np.ndarray, a, b):
    np.subtract(a, b, out=out)


def _normalize(tables: dict[str, np.ndarray], planes: frozenset):
    """Logits to marginals in place: the sigmoid of a binary plane's logit
    difference, the label softmax of a table."""
    for name, arr in tables.items():
        if name in planes:
            sigmoid(arr, out=arr)
        else:
            softmax_lastaxis(arr, out=arr)


def _flush(tables: dict[str, np.ndarray], planes: frozenset):
    """Write exactly 0 over every ``q1`` entry below ``_FLUSH`` on the
    binary planes of arity at most 2, the ones a matrix product can read.
    ``q1`` is never negative, so multiplying by the kept mask does it in
    one pass with no branch."""
    for name in planes:
        arr = tables[name]
        if arr.ndim <= 2:
            rows(_flush_block, arr)


def _flush_block(arr: np.ndarray):
    np.multiply(arr, arr >= _FLUSH, out=arr)


def _start(q: dict[str, np.ndarray], phi: UnaryTable, planes: frozenset, pins: dict):
    """The state inference starts from, into ``q``: label softmax (a sigmoid
    for binary planes), observed cells pinned, small ``q1`` flushed."""
    _refill(q, phi, planes, q)
    _normalize(q, planes)
    _clamp(q, pins)
    _flush(q, planes)


def _expand(tables: dict[str, np.ndarray], planes: frozenset) -> MarginalTable:
    """Fill label 0 of each binary table with ``1 - q1``."""
    for name in planes:
        rows(_difference, tables[name][..., 0], 1.0, tables[name][..., 1])
    return MarginalTable(tables)


def initial_marginals(phi: UnaryTable, kb: KnowledgeBase) -> MarginalTable:
    """The starting point of inference: label softmax (a sigmoid for binary
    predicates), observed cells pinned.

    The tables are label-plane (see ``tensor.label_planes``), as every
    marginal table ``iterate`` returns, and hold what ``iterate`` starts from.
    ``phi`` is validated against ``kb`` first.
    """
    phi.validate(kb)
    tables, q, planes = _storage(kb)
    _start(q, phi, planes, _pins(kb.masks()))
    return _expand(tables, planes)


def _schedule(program: Program, weights: tuple[float, ...],
              masks: dict[str, ObservationMask], phi: UnaryTable,
              planes: frozenset) -> tuple[tuple, frozenset]:
    """The messages of one iteration as ``(implication, weight, writes)``
    triples, in the order ``_add_messages`` runs them, and the names of the
    tables to refill before them.

    An implication whose hypothesis is observed in every cell is dropped:
    clamping overwrites whatever it adds.  A binary plane whose unary table
    is all zero is not refilled when one of the first two messages to it
    covers every cell (a full slice per axis): that message writes the
    plane, and runs first.  One whose plan fills the plane is preferred,
    since it writes through ``out=`` with no temporary.  Either of the two
    may write because the refilled sum ``(0 + a) + b`` equals ``b + a`` bit
    for bit: ``0 + a == a`` and addition commutes.
    """
    full = {name for name, m in masks.items() if m.mask.all()}
    messages = [(ci, w, False) for ci, w in zip(program.implications, weights)
                if ci.hypothesis not in full]
    refill = set(program.kb.predicates)
    for name in planes:
        first = [i for i, (ci, _, _) in enumerate(messages) if ci.hypothesis == name][:2]
        cover = [i for i in first
                 if all(isinstance(ix, slice) for ix in messages[i][0].scatter)]
        if not cover or phi.tables[name].any():
            continue
        ci, w, _ = messages.pop(min(cover, key=lambda i: not messages[i][0].plan.fills_output))
        messages.insert(first[0], (ci, w, True))
        refill.discard(name)
    return tuple(messages), frozenset(refill)


def _add_messages(logits: dict[str, np.ndarray], q: MarginalTable, messages):
    """Add each message of ``messages``, ``(implication, weight, writes)``
    triples (see ``_schedule``), to ``logits``, all read from the snapshot
    ``q``.

    A binary plane holds ``x0 - x1``, so a message to label 1 is added with
    its weight negated; negation is exact, so this rounds as a subtraction.
    A writing message covers its plane and overwrites it: a plan that fills
    the plane writes it through ``out=`` and is scaled in place unless the
    weight is 1, and any other message is written as ``w * msg``.  Added
    with weight ±1, a message goes in by ``+=`` or ``-=`` with no scale
    pass, which is exact since ``1.0 * x == x``.  With any other weight a
    message that ``planner.execute`` allocated is scaled in place (it
    rounds as ``w * msg``), and a view, such as a message without
    contraction that aliases its gathered input or ``q`` itself, is scaled
    into a new array.  The ``+=`` broadcasts a message's size-1 axes over
    the hypothesis cells.  Each message, and what it gathered, is dropped
    before the next is computed.
    """
    for ci, w, writes in messages:
        target = logits[ci.hypothesis]
        if target.ndim == len(ci.scatter):
            (label,) = ci.target_labels
            w, cells = (-w if label else w), [ci.scatter]
        else:
            cells = [ci.scatter + (label,) for label in ci.target_labels]
        if writes and ci.plan.fills_output:
            message(ci, q, out=target)
            if w != 1.0:
                rows(_scale, target, target, w)
        elif writes:
            rows(_scale, target, message(ci, q), w)
        else:
            msg = message(ci, q)
            if abs(w) != 1.0:
                scaled = msg if msg.flags.owndata else np.empty_like(msg)
                rows(_scale, scaled, msg, w)
                msg = scaled
            add = np.subtract if w == -1.0 else np.add
            for index in cells:
                view = target[index]
                if view.ndim and not any(isinstance(ix, np.ndarray) for ix in index):
                    rows(_accumulate, view, msg, add)
                else:   # one cell or a diagonal, which indexing copies
                    target[index] = add(view, msg)
            del msg


def _scale(out: np.ndarray, msg: np.ndarray, w: float):
    np.multiply(msg, w, out=out)


def _accumulate(out: np.ndarray, msg: np.ndarray, add):
    add(out, msg, out=out)


def _max_abs(d: np.ndarray) -> float:
    """``max|d|`` in two reads and no ``abs`` pass."""
    return max(float(d.max()), -float(d.min()))


def _record(trace: IterationTrace, q: dict, new: dict, planes: frozenset, scratch):
    """Residual and argmax changes between two states, as the expanded
    ``N^arity x D`` tables would give them, worked out for binary planes in
    the two rows of ``scratch``, in row blocks of large tables (see
    ``parallel.rows``).  Observed cells stay pinned, so every cell whose
    argmax changes is latent."""
    residual, changed = 0.0, 0
    for name, arr in new.items():
        if name in planes:
            a, b = (buf[:arr.size].reshape(arr.shape) for buf in scratch)
            blocks = rows(_plane_change, a, b, arr, q[name])
        else:
            blocks = rows(_table_change, arr, q[name])
        residual = max(residual, *(r for r, _ in blocks))
        changed += sum(c for _, c in blocks)
    trace.residual.append(residual)
    trace.changed.append(changed)


def _plane_change(a: np.ndarray, b: np.ndarray, arr: np.ndarray, old: np.ndarray):
    """The residual of both labels and the argmax changes between two
    ``q1`` planes, using ``a`` and ``b`` as scratch.  ``q1 > 0.5`` is
    exactly ``q1 > 1 - q1``: above 0.5 the difference is exact, at or below
    it rounds to at least 0.5."""
    residual = _max_abs(np.subtract(arr, old, out=a))
    diff = np.subtract(np.subtract(1.0, arr, out=a), np.subtract(1.0, old, out=b), out=a)
    return (max(residual, _max_abs(diff)),
            int(np.count_nonzero((arr > 0.5) != (old > 0.5))))


def _table_change(arr: np.ndarray, old: np.ndarray):
    return (_max_abs(arr - old),
            int(np.count_nonzero(arr.argmax(axis=-1) != old.argmax(axis=-1))))


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))  # NaN propagates


def _damp(arr: np.ndarray, old: np.ndarray, lam: float):
    arr *= 1.0 - lam
    arr += lam * old


def iterate(phi: UnaryTable, program: Program, config: EngineConfig,
            trace: IterationTrace | None = None) -> MarginalTable:
    """Run mean-field iterations and return the final marginals.

    Two tables per predicate take turns: one holds the current marginals,
    the other is refilled with the unary logits, receives the messages and
    is normalized, damped, clamped and flushed in place.  A zero-unary plane
    that a message writes is not refilled, and messages into a predicate
    observed in every cell are skipped (see ``_schedule``).  A binary
    predicate's pair is two planes (see the module docstring), and the one
    the last iteration writes is label 1 of its output table from the
    start, so the result costs one ``1 - q1`` pass and no copy.  ``phi`` is
    validated against the program's knowledge base first.
    """
    phi.validate(program.kb)
    unknown = sorted(set(config.weights) - {ci.rule_id for ci in program.implications})
    if unknown:
        raise EngineError(f"weight override for unknown rule id {', '.join(unknown)}")
    weights = tuple(config.weights.get(ci.rule_id, ci.weight) * ci.coefficient
                    for ci in program.implications)
    masks = program.kb.masks()
    pins = _pins(masks)
    tables, last, planes = _storage(program.kb)
    messages, refill = _schedule(program, weights, masks, phi, planes)
    other = {name: np.empty(arr.shape) if name in planes else label_planes(arr.shape)
             for name, arr in last.items()}
    # iteration t writes the spare table; after T iterations that is `last`
    q, spare = (last, other) if config.iterations % 2 == 0 else (other, last)
    _start(q, phi, planes, pins)
    if trace is not None:
        scratch = np.empty((2, max((last[name].size for name in planes), default=0)))
    lam = config.damping
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        _refill(spare, phi, planes, refill)
        _add_messages(spare, MarginalTable(q), messages)
        for name, arr in spare.items():
            if not all(rows(_finite, arr)):
                raise EngineError(f"non-finite logits for {name} at iteration {t}")
        _normalize(spare, planes)
        if lam > 0.0:
            for name, arr in spare.items():
                rows(_damp, arr, q[name], lam)
        _clamp(spare, pins)
        _flush(spare, planes)
        q, spare = spare, q
        if trace is not None:
            trace.seconds.append(time.perf_counter() - started)
            _record(trace, spare, q, planes, scratch)
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
