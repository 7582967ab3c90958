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
literal may compile to two implications that build no complement table
(``_complement_expansion``).  Each implication's coefficient scales its
rule weight.

Two implications of one clause whose plans are one matrix product each,
into every cell of one hypothesis with the same signed weight, and which
read one operand in the same role, fold into one summed implication: the
one that is not a symmetric product keeps the other as its ``partner``.
By linearity ``A·B + A·C = A·(B + C)``, so ``message`` runs its plan on
the sum of the two other operands, built in row blocks in the hypothesis's
spare table, whose bytes are dead until its first message; a transposed
operand is first copied in strips (see ``_add``).  On transitivity ``Q·Q``
takes in ``Q·Qᵀ``, and the three messages cost 1.5N³ multiply-adds per
iteration instead of 2N³.  The sum adds in another order than the two
messages, so on a rule set with a summed pair the marginals can differ from
adding them one at a time in their last bits, and a 9-decimal report at a
rounding tie.

Inside ``iterate`` a binary predicate is held as one plane at a time,
since ``q0 = 1 - q1``: the logit difference ``x0 - x1`` while messages are
added, then ``q1 = 1 / (1 + exp(x0 - x1))``.  The two planes it alternates
between are the label planes of its output table.  A table whose ``ndim``
equals its predicate's arity is such a plane; every other table is
``N^arity x D`` with the labels last.  Each snapshot of ``q1`` on a plane
of arity at most 2 holds exactly 0 wherever it would hold less than
``_FLUSH``, so the product of two nonzero entries of a matrix-product
operand is a normal number.

The messages of an iteration run as a tuple of ``Step`` records, built once
per solve by ``_schedule`` and run in order by ``_add_messages``.  A step
holds its implication, its weight (negated into label 1 of a binary plane,
which holds ``x0 - x1``; negation is exact), the logit cells it goes into,
and whether it writes.  A predicate observed in every cell gets no step,
since clamping overwrites whatever it adds.  A step is of one kind:

* add: the message goes into its cells by ``+=``, or ``-=`` with weight -1,
  with no scale pass at weight ±1 (``1.0 * x == x``).  At any other weight a
  message ``planner.execute`` allocated is scaled in place and a view (a
  message without contraction aliases its gathered input or the snapshot)
  is scaled into a new array.  A size-1 message axis broadcasts over the
  cells.  Through a slice the add runs in row blocks; into one cell or a
  diagonal, which indexing copies, it is whole.
* write: a binary plane with an all-zero unary table is not refilled when
  the plan of one of its first two messages fills the plane (a slice per
  axis, no size-1 axis).  That message runs first of those into the plane
  and writes it through ``planner.execute(out=)``, then is scaled in place
  unless the weight is 1.  The refilled sum ``(0 + a) + b`` equals ``b + a``
  bit for bit, so either may write, and the plane starts at ½ with no
  refill and no sigmoid.  With no such message the plane is refilled.
* summed: a summed implication's step runs first of the messages into its
  hypothesis, with its sum built in the table's dead bytes.  It then
  refills the table and adds.

Marginals are bit-identical to refilling and adding every scaled message,
but for the summed implications' order of adds.

Before its first iteration ``iterate`` bounds the logits of each predicate
H (``_bounds``): ``max|phi_H|`` (the spread ``hi - lo`` on a binary plane,
which holds ``x0 - x1``), read from the extremes ``UnaryTable.extremes``
validates, plus, over the messages into H (two of a summed implication),
``|w * coefficient|`` (the weights ``iterate`` uses, overrides included)
times the groundings per cell: the product of the extents of the premise
letters absent from the output.  A message sums, over those groundings,
products of marginal masses of at most 1, so no logit exceeds the bound,
whatever damping and clamping do, but by rounding (a damped marginal can be
an ulp above 1).  Only a predicate whose
bound is not below ``LOGIT_LIMIT`` (1e300, far under float64's 1.8e308), an
infinite or NaN bound included, gets the per-iteration finite check, which
fails with an ``EngineError`` naming the predicate and the iteration.

An iteration reads only the snapshot it is given, the unary tables and the
program, so one that reproduces its snapshot bit for bit would be
reproduced by every later one: ``iterate`` stops there, with the bytes the
remaining iterations would give.

The large passes of an iteration run in row blocks through ``parallel.rows``,
by the split rules of the ``parallel`` module docstring.  The fixed-point
compare and the trace walk their blocks in chunks of rows (see ``_chunks``),
so they need no table-sized temporary.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import planner
from .fol import Clause, normalize_rules, split_cnf
from .kb import KnowledgeBase
from .parallel import rows
from .tensor import EinsumSpec, label_planes, sigmoid, softmax_lastaxis

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# sqrt of the smallest normal float64, about 1.49e-154: two q1 entries at
# or above it multiply to a normal number
_FLUSH = math.sqrt(np.finfo(np.float64).tiny)
# elements per chunk of the fixed-point compare, whose boolean temporary
# then stays well below a large table
_COMPARE_CHUNK = 1 << 16
# columns per strip of a transposed operand's copy (see _add)
_TILE = 64
# the largest last residual of a run that counts as converged
CONVERGENCE_TOL = 1e-6
# a predicate whose logit bound is below this gets no finite check
LOGIT_LIMIT = 1e300


class EngineError(Exception):
    """Shape mismatch, invalid rule, or numerical failure during inference."""


@dataclass
class UnaryTable:
    """Per-predicate logit tensors of shape N^arity x D."""

    tables: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, kb: KnowledgeBase) -> "UnaryTable":
        """Writable zero tables; ``io.load_unary("", kb)`` gives read-only ones."""
        return cls({name: label_planes(kb.shape(p) + (p.num_labels,), np.zeros)
                    for name, p in kb.predicates.items()})

    def validate(self, kb: KnowledgeBase) -> "UnaryTable":
        self.extremes(kb)
        return self

    def extremes(self, kb: KnowledgeBase) -> dict[str, tuple[float, float]]:
        """Each table's ``(min, max)``, from the one pass that checks the
        tables against ``kb`` and raises what ``validate`` raises; an axis of
        stride 0 (see ``io.load_unary``) is read as its one slice."""
        unknown = sorted(set(self.tables).difference(kb.predicates))
        if unknown:
            raise EngineError(f"unary table for unknown predicate {', '.join(unknown)}")
        out = {}
        for name, pred in kb.predicates.items():
            arr = self.tables.get(name)
            if arr is None:
                raise EngineError(f"missing unary table for {name}")
            want = kb.shape(pred) + (pred.num_labels,)
            if arr.shape != want:
                raise EngineError(f"unary table {name}: shape {arr.shape}, expected {want}")
            arr = arr[tuple(slice(None) if step else slice(0, 1) for step in arr.strides)]
            lo, hi = arr.min(), arr.max()  # NaN propagates into both
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise EngineError(f"unary table {name} contains non-finite values")
            # per-cell label spreads only when the whole-table spread overflows
            with np.errstate(over="ignore"):
                if not (np.isfinite(hi - lo)
                        or np.isfinite(arr.max(axis=-1) - arr.min(axis=-1)).all()):
                    raise EngineError(f"unary table {name}: the label logits of a cell "
                                      "differ by more than a float64 holds")
            out[name] = (float(lo), float(hi))
        return out


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
    # of a summed implication (see the module docstring): the folded one,
    # whose premise `other` is added, transposed when `transpose`, to
    # `operand`, and the multiply-adds that saves per iteration
    partner: CompiledImplication | None = None
    operand: int = 0
    other: int = 0
    transpose: bool = False
    saved: float = 0.0

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

    def specs(self) -> str:
        """The spec and its coefficient; of a summed implication also its
        partner's, the two operands it adds and the multiply-adds saved."""
        out = f"spec {self.plan.spec}{_times(self.coefficient)}"
        if self.partner is None:
            return out
        partner, turned = self.partner, " transposed" if self.transpose else ""
        return (f"{out} + spec {partner.plan.spec}{_times(partner.coefficient)} (summed operand "
                f"{self.plan.spec.inputs[self.operand]} plus "
                f"{partner.plan.spec.inputs[self.other]}{turned}; saves {int(self.saved)})")

    def describe(self) -> str:
        return (f"rule {self.rule_id} -> {self.hypothesis}: {self.specs()} "
                f"M'={self.plan.max_intermediate_arity}")


def _times(coefficient: float) -> str:
    return "" if coefficient == 1.0 else f" x {coefficient:.17g}"


@dataclass(frozen=True)
class Program:
    """Rules compiled against one knowledge base: every implication, planned,
    one per message an iteration runs."""

    kb: KnowledgeBase
    implications: tuple[CompiledImplication, ...]


@dataclass(frozen=True)
class Step:
    """One message of an iteration, as ``_add_messages`` runs it (see the
    module docstring for the kinds)."""

    implication: CompiledImplication
    weight: float                      # negated into label 1 of a binary plane
    cells: tuple[tuple, ...]           # one index of the logit table per target label
    sliced: bool                       # the cells keep a slice: the add runs in row blocks
    writes: bool = False               # writes its plane through planner.execute(out=)


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
    ``max|q_t - q_{t-1}|`` over the values the engine stores (``q1`` of a
    binary predicate, every label of the others), and the number of latent
    cells whose argmax label changed.  It holds one entry per
    iteration that ran: fewer than configured when ``iterate`` stopped at an
    exact fixed point, whose last entry then has residual 0.  ``bounds``
    holds each predicate's logit bound (see the module docstring)."""

    seconds: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    changed: list[int] = field(default_factory=list)
    bounds: dict[str, float] = field(default_factory=dict)

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


def _summed(a: CompiledImplication, b: CompiledImplication,
            kb: KnowledgeBase) -> CompiledImplication | None:
    """``a`` and ``b`` as one summed implication (see the module docstring)
    when that saves multiply-adds, else None.  Their signed coefficients
    must be equal: on a binary hypothesis, which ``iterate`` holds as the
    plane ``x0 - x1``, the coefficient with the target label's sign, on a
    table the coefficient with equal target labels."""
    if ((a.rule_id, a.clause_id, a.weight, a.hypothesis)
            != (b.rule_id, b.clause_id, b.weight, b.hypothesis)
            or not all(isinstance(ix, slice) for ix in a.scatter)
            or not all(len(ci.plan.steps) == 1 and ci.plan.steps[0].gemm is not None
                       and ci.plan.fills_output for ci in (a, b))):
        return None
    if kb.predicates[a.hypothesis].num_labels == 2:
        (la,), (lb,) = a.target_labels, b.target_labels
        if (-1.0 if la else 1.0) * a.coefficient != (-1.0 if lb else 1.0) * b.coefficient:
            return None
    elif (a.target_labels, a.coefficient) != (b.target_labels, b.coefficient):
        return None
    kept, dropped = (b, a) if a.symmetric else (a, b)
    if kept.symmetric:
        return None
    left, right, t_left, t_right = kept.plan.steps[0].gemm
    d_left, d_right, dt_left, dt_right = dropped.plan.steps[0].gemm
    if kept.premises[left].key == dropped.premises[d_left].key and t_left == dt_left:
        operand, other, transpose = right, d_right, t_right != dt_right
    elif kept.premises[right].key == dropped.premises[d_right].key and t_right == dt_right:
        operand, other, transpose = left, d_left, t_left != dt_left
    else:
        return None
    # the partner's product, half when symmetric, less the adds of the sum
    saved = (dropped.plan.total_cost / (2 if dropped.symmetric else 1)
             - math.prod(kept.plan.input_shapes[operand]))
    return replace(kept, partner=dropped, operand=operand, other=other, transpose=transpose,
                   saved=saved) if saved > 0 else None


def _fold_sums(implications: list[CompiledImplication],
               kb: KnowledgeBase) -> tuple[CompiledImplication, ...]:
    """``implications`` with pairs folded into summed implications, which
    take the place of the one whose plan they run: the largest saving first,
    then in implication order, at most one per hypothesis, whose spare table
    holds the sum and is dead only until its first message."""
    found = [(s, i, j) for i, a in enumerate(implications)
             for j, b in enumerate(implications[i + 1:], i + 1)
             if (s := _summed(a, b, kb)) is not None]
    taken = {}
    for s, i, j in sorted(found, key=lambda f: -f[0].saved):
        taken.setdefault(s.hypothesis, (s, i, j))
    out = list(implications)
    for s, i, j in taken.values():
        kept, dropped = (i, j) if s.partner is implications[j] else (j, i)
        out[kept], out[dropped] = s, None
    return tuple(ci for ci in out if ci is not None)


def compile_rules(rules, kb: KnowledgeBase) -> Program:
    """Split CNF formulas into clauses, plan every implication and fold the
    pairs whose messages run as one product."""
    compiled = []
    for formula in normalize_rules(rules):
        for clause in split_cnf(formula):
            compiled.extend(_compile_clause(clause, kb, formula.id))
    return Program(kb, _fold_sums(compiled, kb))


def message(ci: CompiledImplication, marginals: MarginalTable,
            out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
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
    ``planner.execute``).  Of a summed implication it is the pair's message
    (see the module docstring), with the summed operand written into
    ``scratch``, a C-contiguous array of its shape whose bytes the caller
    does not need, or into a new array when ``scratch`` is None.
    """
    extra = () if ci.partner is None else (ci.partner.premises[ci.other],)
    first = {p.key: p for p in (*ci.premises, *extra)}
    gathered = {key: p.gather(marginals.tables[p.predicate]) for key, p in first.items()}
    inputs = [gathered[p.key] for p in ci.premises]
    if extra:
        other = gathered[extra[0].key]
        summed = np.empty(inputs[ci.operand].shape) if scratch is None else scratch
        rows(_add, summed, inputs[ci.operand], other.T if ci.transpose else other)
        inputs[ci.operand] = summed
    return planner.execute(ci.plan, inputs, out=out)


def _add(out: np.ndarray, a: np.ndarray, b: np.ndarray):
    """``a + b`` into the C-contiguous ``out``.  A ``b`` that is not
    C-contiguous, such as a transposed view, is first copied into ``out`` in
    strips of ``_TILE`` columns, so the rows of ``b``'s memory that a strip
    reads stay in cache; an add over mixed layouts would be slower and
    allocate a buffer."""
    if not b.flags.c_contiguous:
        for j in range(0, out.shape[-1], _TILE):
            np.copyto(out[:, j:j + _TILE], b[:, j:j + _TILE])
        b = out
    np.add(a, b, out=out)


def _pins(kb: KnowledgeBase) -> dict[str, tuple]:
    """The observed cells, one index array per axis, and their labels, of
    each predicate with an observed cell."""
    return {name: (tuple(cells.T), labels) for name, (cells, labels) in kb.observed.items()
            if len(labels)}


def _clamp(tables: dict[str, np.ndarray], pins: dict[str, tuple]):
    """Pin observed cells (``pins``, see ``_pins``) to the one-hot marginal
    of their observed label; a ``q1`` plane gets the label itself."""
    for name, (cells, labels) in pins.items():
        arr = tables[name]
        arr[(*cells, ...)] = labels if arr.ndim == len(cells) else np.eye(arr.shape[-1])[labels]


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


def _start(q: dict[str, np.ndarray], phi: UnaryTable, planes: frozenset, pins: dict,
           halves: frozenset = frozenset()):
    """The state inference starts from, into ``q``: label softmax (a sigmoid
    for binary planes), observed cells pinned, small ``q1`` flushed.

    The binary planes ``halves`` must have all-zero unary tables.  They are
    filled with ½, which is ``sigmoid(x0 - x1)`` bit for bit: the difference
    of two zeros is ±0, and ``1 / (1 + exp(±0))`` is exactly 0.5.  That
    takes one write pass, where a refill and the sigmoid take four."""
    computed = {name: arr for name, arr in q.items() if name not in halves}
    _refill(q, phi, planes, computed)
    _normalize(computed, planes)
    for name in halves:
        rows(np.copyto, q[name], 0.5)
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
    _start(q, phi, planes, _pins(kb))
    return _expand(tables, planes)


def _schedule(program: Program, weights: tuple[float, ...],
              extremes: dict[str, tuple[float, float]],
              planes: frozenset) -> tuple[tuple[Step, ...], frozenset, frozenset]:
    """The steps of one iteration in run order (see the module docstring),
    the tables to refill before them, and the binary planes they write,
    which start at ½.  A step that writes, or is summed, runs first of the
    steps into its hypothesis, which is not refilled before it."""
    kb = program.kb
    full = {name for name, (cells, _) in kb.observed.items()
            if len(cells) == kb.n ** cells.shape[1]}
    zero = {name for name, (lo, hi) in extremes.items() if lo == hi == 0.0}
    order = [(ci, w) for ci, w in zip(program.implications, weights)
             if ci.hypothesis not in full]
    lead, rank = {}, {}
    for name in planes | {ci.hypothesis for ci, _ in order if ci.partner is not None}:
        into = [i for i, (ci, _) in enumerate(order) if ci.hypothesis == name]
        sums = [i for i in into if order[i][0].partner is not None]
        fills = [i for i in into[:2] if order[i][0].plan.fills_output
                 and all(isinstance(ix, slice) for ix in order[i][0].scatter)]
        if sums or (fills and name in zero):
            lead[name] = (sums or fills)[0]
            rank[lead[name]] = into[0] - 0.5
    written = frozenset(name for name, i in lead.items() if order[i][0].partner is None)
    steps = []
    for i in sorted(range(len(order)), key=lambda i: rank.get(i, i)):
        ci, w = order[i]
        if ci.hypothesis in planes:
            (label,) = ci.target_labels
            w, cells = (-w if label else w), (ci.scatter,)
        else:
            cells = tuple(ci.scatter + (label,) for label in ci.target_labels)
        writes = lead.get(ci.hypothesis) == i and ci.hypothesis in written
        steps.append(Step(ci, w, cells, any(isinstance(ix, slice) for ix in ci.scatter),
                          writes))
    return tuple(steps), frozenset(kb.predicates).difference(lead), written


def _add_messages(logits: dict[str, np.ndarray], q: MarginalTable, steps,
                  phi: UnaryTable | None = None, planes: frozenset = frozenset()):
    """Run ``steps`` (see ``_schedule``) into ``logits``, every message read
    from the snapshot ``q``; ``phi`` and ``planes`` refill the table of a
    summed step.  Each message, and what it gathered, is dropped before the
    next is computed."""
    for step in steps:
        ci, w = step.implication, step.weight
        target = logits[ci.hypothesis]
        if ci.partner is not None:
            msg = message(ci, q, scratch=target[step.cells[0]])
            _refill(logits, phi, planes, (ci.hypothesis,))
        else:
            msg = message(ci, q, out=target if step.writes else None)
        if step.writes:
            if w != 1.0:
                rows(_scale, target, target, w)
        else:
            if abs(w) != 1.0:
                scaled = msg if msg.flags.owndata else np.empty_like(msg)
                rows(_scale, scaled, msg, w)
                msg = scaled
                del scaled
            add = np.subtract if w == -1.0 else np.add
            for index in step.cells:
                if step.sliced:
                    rows(_accumulate, target[index], msg, add)
                else:   # one cell or a diagonal, which indexing copies
                    target[index] = add(target[index], msg)
        del msg


def _scale(out: np.ndarray, msg: np.ndarray, w: float):
    np.multiply(msg, w, out=out)


def _accumulate(out: np.ndarray, msg: np.ndarray, add):
    add(out, msg, out=out)


def _bounds(program: Program, weights: tuple[float, ...],
            extremes: dict[str, tuple[float, float]], planes: frozenset) -> dict[str, float]:
    """Each predicate's logit bound (see the module docstring), in Python
    floats, so that an overflow gives ``inf``.  A summed implication counts
    its two messages, whose weights have one magnitude."""
    bound = {name: hi - lo if name in planes else max(-lo, hi)
             for name, (lo, hi) in extremes.items()}
    for ci, w in zip(program.implications, weights):
        for plan in (ci.plan,) if ci.partner is None else (ci.plan, ci.partner.plan):
            letters = plan.spec.input_letters().difference(plan.spec.output)
            bound[ci.hypothesis] += abs(w) * math.prod((plan.extents[ch] for ch in letters),
                                                       start=1.0)
    return bound


def _max_abs(d: np.ndarray) -> float:
    """``max|d|`` in two reads and no ``abs`` pass."""
    return max(float(d.max()), -float(d.min()))


def _chunks(a: np.ndarray, b: np.ndarray):
    """Matching chunks of rows of ``a`` and ``b`` of about ``_COMPARE_CHUNK``
    elements each, so that a temporary made from one chunk stays well below
    a large table; an array of fewer than two axes is one chunk."""
    if a.ndim < 2:
        yield a, b
        return
    step = max(1, _COMPARE_CHUNK // a[0].size)
    for r in range(0, len(a), step):
        yield a[r:r + step], b[r:r + step]


def _record(trace: IterationTrace, q: dict, new: dict, planes: frozenset):
    """Residual and argmax changes between two states, in row blocks of
    large tables (see ``parallel.rows``).  Observed cells stay pinned, so
    every cell whose argmax changes is latent."""
    residual, changed = 0.0, 0
    for name, arr in new.items():
        blocks = rows(_change, arr, q[name], name in planes)
        residual = max(residual, *(r for r, _ in blocks))
        changed += sum(c for _, c in blocks)
    trace.residual.append(residual)
    trace.changed.append(changed)


def _change(new: np.ndarray, old: np.ndarray, plane: bool) -> tuple[float, int]:
    """``max|new - old|`` over the stored values and the count of cells
    whose argmax differs, chunk by chunk (see ``_chunks``).  On a ``q1``
    plane the argmax is 1 where ``q1 > 0.5``, which is exactly
    ``q1 > 1 - q1``: above 0.5 the difference is exact, at or below it
    rounds to at least 0.5."""
    residual, changed = 0.0, 0
    for a, b in _chunks(new, old):
        residual = max(residual, _max_abs(a - b))
        moved = (a > 0.5) != (b > 0.5) if plane else a.argmax(axis=-1) != b.argmax(axis=-1)
        changed += int(np.count_nonzero(moved))
    return residual, changed


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))  # NaN propagates


def _same(new: dict[str, np.ndarray], old: dict[str, np.ndarray]) -> bool:
    """Whether every table of ``new`` holds the bytes of its table in
    ``old``.  The tables are compared as ``uint64``, so ``-0.0`` differs
    from ``0.0`` and a NaN is equal only to its own bit pattern."""
    return all(all(rows(_same_block, new[name], old[name])) for name in new)


def _same_block(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same bit patterns, compared chunk by
    chunk (see ``_chunks``) up to the first that differs."""
    return all(np.array_equal(x, y) for x, y in _chunks(a.view(np.uint64), b.view(np.uint64)))


def _damp(arr: np.ndarray, old: np.ndarray, lam: float):
    arr *= 1.0 - lam
    arr += lam * old


def iterate(phi: UnaryTable, program: Program, config: EngineConfig,
            trace: IterationTrace | None = None) -> MarginalTable:
    """Run mean-field iterations and return the final marginals.

    Two tables per predicate take turns: one holds the current marginals,
    the other is refilled with the unary logits, receives the messages and
    is normalized, damped, clamped and flushed in place.  The messages run
    as the steps ``_schedule`` builds once (see the module docstring), and a
    plane a step writes starts at ½.  A binary predicate's pair is the two
    label planes of its output table: iteration ``config.iterations``
    writes label 1, and label 0 is the spare until the result's one
    ``1 - q1`` pass writes it, so the predicate needs no buffer beyond its
    output table and the result no copy.  A multi-class predicate has one
    spare table beside its output table.

    After every iteration but the last, each new table is compared bit for
    bit with the snapshot it was computed from.  When all are identical the
    run is at an exact fixed point and stops: every later iteration would
    give the same bytes, and both tables of each pair now hold them, so
    label 1 holds the result whichever of the two the stop wrote.  ``trace``
    gets one entry per iteration that ran, and the logit bounds.  ``phi``
    is validated against the program's knowledge base first.
    """
    extremes = phi.extremes(program.kb)
    unknown = sorted(set(config.weights) - {ci.rule_id for ci in program.implications})
    if unknown:
        raise EngineError(f"weight override for unknown rule id {', '.join(unknown)}")
    weights = tuple(config.weights.get(ci.rule_id, ci.weight) * ci.coefficient
                    for ci in program.implications)
    pins = _pins(program.kb)
    tables, last, planes = _storage(program.kb)
    bounds = _bounds(program, weights, extremes, planes)
    checked = [name for name, bound in bounds.items() if not bound < LOGIT_LIMIT]
    if trace is not None:
        trace.bounds = bounds
    steps, refill, written = _schedule(program, weights, extremes, planes)
    # iteration T writes `last`; a binary predicate's spare is label 0 of its
    # output table, read for the last time before `_expand` writes it
    other = {name: tables[name][..., 0] if name in planes else label_planes(arr.shape)
             for name, arr in last.items()}
    q, spare = (last, other) if config.iterations % 2 == 0 else (other, last)
    _start(q, phi, planes, pins, written)
    lam = config.damping
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        _refill(spare, phi, planes, refill)
        _add_messages(spare, MarginalTable(q), steps, phi, planes)
        for name in checked:
            if not all(rows(_finite, spare[name])):
                raise EngineError(f"non-finite logits for {name} at iteration {t}")
        _normalize(spare, planes)
        if lam > 0.0:
            for name in spare:
                rows(_damp, spare[name], q[name], lam)
        _clamp(spare, pins)
        _flush(spare, planes)
        q, spare = spare, q
        fixed = t < config.iterations and _same(q, spare)
        if trace is not None:
            trace.seconds.append(time.perf_counter() - started)
            _record(trace, spare, q, planes)
        if fixed:
            break
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
