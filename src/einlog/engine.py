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

The tables of an iteration are computed as one ``Run`` per table, built
once per solve by ``_runs``.  A run records how its table starts and its
terms in add order: each an implication, its weight (negated into label 1 of
a binary plane, which holds ``x0 - x1``; negation is exact) and the logit
cells it goes into.  A predicate observed in every cell gets no term, since
clamping overwrites whatever it adds.  A run finishes its table before the
next run starts: start and terms, finite check, normalize, damp, pin and
flush.  Every message reads the snapshot, so only the order of operations
within a table fixes its bytes, and the runs may follow one another in any
order.  A table starts in one of three ways:

* refilled with its unary logits.
* written: a binary plane with an all-zero unary table is not refilled when
  the plan of one of its first two messages fills the plane (a slice per
  axis, no size-1 axis).  That message is the first term and writes the
  plane through ``planner.execute(out=)``, then is scaled in place unless
  the weight is 1.  The refilled sum ``(0 + a) + b`` equals ``b + a`` bit
  for bit, so either may write, and the plane starts at ½ with no refill
  and no sigmoid.
* summed: a summed implication is the first term, with its sum built in the
  table's dead bytes.  It then refills the table and adds.

Every other term follows in implication order.  A message goes into its
cells by ``+=``, or ``-=`` with weight -1, with no scale pass at weight ±1
(``1.0 * x == x``).  At any other weight a message ``planner.execute``
allocated is scaled in place and a view (a message without contraction
aliases its gathered input or the snapshot) is scaled into a new array.  A
size-1 message axis broadcasts over the cells.  Through a slice the add runs
in row blocks; into one cell or a diagonal, which indexing copies, it is
whole.  Marginals are bit-identical to refilling and adding every scaled
message in implication order, but for the summed implications' order of adds.

Each run also holds its table's logit bound (``Run.bound``), summed in the
same pass that builds the runs: ``max|phi_H|`` (the spread ``hi - lo`` on a
binary plane, which holds ``x0 - x1``), read from the extremes
``UnaryTable.extremes`` validates, plus, over the messages into H in
implication order (two of a summed implication, and those into a table
observed in every cell, whose run drops them), ``|w * coefficient|`` (the
weights the terms carry, overrides included) times the groundings per cell:
the product of the extents of the premise letters absent from the output.
A message sums, over those groundings, products of marginal masses of at
most 1, so no logit exceeds the bound, whatever damping and clamping do, but
by rounding (a damped marginal can be an ulp above 1).  Only a table whose
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
class Run:
    """How one table starts, the messages into it in add order, its logit
    bound, and what finishes the table before the next run starts (see the
    module docstring)."""

    hypothesis: str
    start: str                         # "refill", "write" or "sum"
    # per message: its implication, its weight (negated into label 1 of a
    # binary plane) and one index of the logit table per target label
    terms: tuple[tuple[CompiledImplication, float, tuple[tuple, ...]], ...]
    bound: float
    plane: bool                        # a binary predicate's q1 plane
    unary: np.ndarray = field(compare=False, repr=False)
    # observed cells, one index array per axis, and their labels, or None
    observed: tuple | None = field(compare=False, repr=False)


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
        for t in lit.args:
            if t.is_constant and t.symbol not in kb.index:
                raise EngineError(f"rule {rule_id}: constant {t.symbol!r} is not an entity")
    variables = clause.variables()
    if len(variables) > len(_LETTERS):
        raise EngineError(f"rule {rule_id}: more than 26 distinct variables in one clause")
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


def _storage(kb: KnowledgeBase) -> tuple[dict, dict]:
    """Label-plane ``N^arity x D`` output tables, and the storage ``iterate``
    works in: label 1's plane of a binary table, the table itself otherwise."""
    tables = {name: label_planes(kb.shape(p) + (p.num_labels,))
              for name, p in kb.predicates.items()}
    return tables, {name: t[..., 1] if kb.predicates[name].num_labels == 2 else t
                    for name, t in tables.items()}


def _refill(arr: np.ndarray, run: Run):
    """The run's unary logits into its table ``arr``; a binary plane gets
    ``x0 - x1``, which is finite since ``_runs`` validated the unary table."""
    if run.plane:
        rows(_difference, arr, run.unary[..., 0], run.unary[..., 1])
    else:
        rows(np.copyto, arr, run.unary)


def _difference(out: np.ndarray, a, b):
    np.subtract(a, b, out=out)


def _normalize(arr: np.ndarray, run: Run):
    """Logits to marginals in place: the sigmoid of a binary plane's logit
    difference, the label softmax of a table."""
    if run.plane:
        sigmoid(arr, out=arr)
    else:
        softmax_lastaxis(arr, out=arr)


def _pin_and_flush(arr: np.ndarray, run: Run):
    """Pin the run's observed cells of ``arr`` to the one-hot marginal of
    their observed label (a ``q1`` plane gets the label itself), then write
    exactly 0 over every ``q1`` entry below ``_FLUSH`` on a binary plane of
    arity at most 2, which a matrix product can read.  ``q1`` is never
    negative, so multiplying by the kept mask flushes in one pass with no
    branch."""
    if run.observed is not None:
        cells, labels = run.observed
        arr[(*cells, ...)] = labels if run.plane else np.eye(arr.shape[-1])[labels]
    if run.plane and arr.ndim <= 2:
        rows(_flush_block, arr)


def _flush_block(arr: np.ndarray):
    np.multiply(arr, arr >= _FLUSH, out=arr)


def _start(q: dict[str, np.ndarray], runs: tuple[Run, ...]):
    """The state inference starts from, into ``q``, one run's table after
    another: label softmax (a sigmoid for binary planes), observed cells
    pinned, small ``q1`` flushed.

    A binary plane its run writes (see ``_runs``) has an all-zero unary
    table.  It is filled with ½, which is ``sigmoid(x0 - x1)`` bit for bit:
    the difference of two zeros is ±0, and ``1 / (1 + exp(±0))`` is exactly
    0.5.  That takes one write pass, where refill and sigmoid take four."""
    for run in runs:
        arr = q[run.hypothesis]
        if run.start == "write":
            rows(np.copyto, arr, 0.5)
        else:
            _refill(arr, run)
            _normalize(arr, run)
        _pin_and_flush(arr, run)


def _expand(tables: dict[str, np.ndarray], runs: tuple[Run, ...]) -> MarginalTable:
    """Fill label 0 of each binary table with ``1 - q1``."""
    for run in runs:
        if run.plane:
            table = tables[run.hypothesis]
            rows(_difference, table[..., 0], 1.0, table[..., 1])
    return MarginalTable(tables)


def initial_marginals(phi: UnaryTable, kb: KnowledgeBase) -> MarginalTable:
    """The starting point of inference: label softmax (a sigmoid for binary
    predicates), observed cells pinned.

    The tables are label-plane (see ``tensor.label_planes``), as every
    marginal table ``iterate`` returns, and hold what ``iterate`` starts from.
    They are started by the runs of a program with no implication, one run
    finishing its table before the next, and ``_runs`` validates ``phi``.
    """
    runs = _runs(Program(kb, ()), {}, phi)
    tables, q = _storage(kb)
    _start(q, runs)
    return _expand(tables, runs)


def _runs(program: Program, overrides: dict[str, float], phi: UnaryTable) -> tuple[Run, ...]:
    """One run per table of ``program.kb``, with its logit bound (see the
    module docstring), its unary logits from ``phi`` and its observed cells.
    ``phi`` is validated against the knowledge base by the pass that reads
    its extremes.  An implication's weight is its rule's override in
    ``overrides`` (rule id to weight), else its own, times its coefficient.
    The bound is summed in Python floats, so that an overflow gives ``inf``;
    the two messages of a summed implication have weights of one magnitude."""
    kb = program.kb
    extremes = phi.extremes(kb)
    unknown = sorted(set(overrides) - {ci.rule_id for ci in program.implications})
    if unknown:
        raise EngineError(f"weight override for unknown rule id {', '.join(unknown)}")
    planes = {name for name, p in kb.predicates.items() if p.num_labels == 2}
    full = {name for name, (cells, _) in kb.observed.items()
            if len(cells) == kb.n ** cells.shape[1]}
    bound = {name: hi - lo if name in planes else max(-lo, hi)
             for name, (lo, hi) in extremes.items()}
    weighted = {name: [] for name in kb.predicates}
    for ci in program.implications:
        w = overrides.get(ci.rule_id, ci.weight) * ci.coefficient
        for plan in (ci.plan,) if ci.partner is None else (ci.plan, ci.partner.plan):
            letters = plan.spec.input_letters().difference(plan.spec.output)
            bound[ci.hypothesis] += abs(w) * math.prod((plan.extents[ch] for ch in letters),
                                                       start=1.0)
        weighted[ci.hypothesis].append((ci, w))
    runs = []
    for name in kb.predicates:
        plane = name in planes
        into = [] if name in full else weighted[name]
        sums = [i for i, (ci, _) in enumerate(into) if ci.partner is not None]
        fills = [i for i, (ci, _) in enumerate(into[:2]) if ci.plan.fills_output
                 and all(isinstance(ix, slice) for ix in ci.scatter)]
        if sums:
            start, lead = "sum", sums[0]
        elif fills and plane and extremes[name] == (0.0, 0.0):
            start, lead = "write", fills[0]
        else:
            start, lead = "refill", 0
        terms = []
        for ci, w in into[lead:lead + 1] + into[:lead] + into[lead + 1:]:
            if plane:
                (label,) = ci.target_labels
                terms.append((ci, -w if label else w, (ci.scatter,)))
            else:
                terms.append((ci, w, tuple(ci.scatter + (label,) for label in ci.target_labels)))
        cells, labels = kb.observed[name]
        observed = (tuple(cells.T), labels) if len(labels) else None
        runs.append(Run(name, start, tuple(terms), bound[name], plane, phi.tables[name],
                        observed))
    return tuple(runs)


def _add_messages(target: np.ndarray, q: MarginalTable, run: Run):
    """The run's table (see ``_runs``) into ``target``: its start, then its
    terms, every message read from the snapshot ``q``.  Each message, and
    what it gathered, is dropped before the next is computed."""
    terms = run.terms
    if run.start == "refill":
        _refill(target, run)
    elif run.start == "write":
        (ci, w, _), *terms = terms
        message(ci, q, out=target)
        if w != 1.0:
            rows(_scale, target, target, w)
    for ci, w, cells in terms:
        if ci.partner is None:
            msg = message(ci, q)
        else:   # the summed start: the sum is built in the table's dead bytes
            msg = message(ci, q, scratch=target[cells[0]])
            _refill(target, run)
        if abs(w) != 1.0:
            scaled = msg if msg.flags.owndata else np.empty_like(msg)
            rows(_scale, scaled, msg, w)
            msg = scaled
            del scaled
        add = np.subtract if w == -1.0 else np.add
        sliced = any(isinstance(ix, slice) for ix in ci.scatter)
        for index in cells:
            if sliced:
                rows(_accumulate, target[index], msg, add)
            else:   # one cell or a diagonal, which indexing copies
                target[index] = add(target[index], msg)
        del msg


def _scale(out: np.ndarray, msg: np.ndarray, w: float):
    np.multiply(msg, w, out=out)


def _accumulate(out: np.ndarray, msg: np.ndarray, add):
    add(out, msg, out=out)


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


def _record(trace: IterationTrace, q: dict, new: dict, runs: tuple[Run, ...]):
    """Residual and argmax changes between two states of the runs' tables,
    in row blocks of large tables (see ``parallel.rows``).  Observed cells
    stay pinned, so every cell whose argmax changes is latent."""
    residual, changed = 0.0, 0
    for run in runs:
        blocks = rows(_change, new[run.hypothesis], q[run.hypothesis], run.plane)
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
    the other is computed in place by the run ``_runs`` builds for it once,
    which finishes it before the next run starts (see the module
    docstring); a plane a run writes starts at ½.  A binary predicate's pair
    is the two label planes of its output table: iteration
    ``config.iterations`` writes label 1, and label 0 is the spare until the
    result's one ``1 - q1`` pass writes it, so the predicate needs no buffer
    beyond its output table and the result no copy.  A multi-class
    predicate has one spare table beside its output table.

    After every iteration but the last, each new table is compared bit for
    bit with the snapshot it was computed from.  When all are identical the
    run is at an exact fixed point and stops: every later iteration would
    give the same bytes, and both tables of each pair now hold them, so
    label 1 holds the result whichever of the two the stop wrote.  ``trace``
    gets one entry per iteration that ran, and the logit bounds; a program
    with no table runs none.  ``phi`` is validated against the program's
    knowledge base first.
    """
    runs = _runs(program, config.weights, phi)
    tables, last = _storage(program.kb)
    if trace is not None:
        trace.bounds = {run.hypothesis: run.bound for run in runs}
    if not runs:
        return MarginalTable(tables)
    # iteration T writes `last`; a binary predicate's spare is label 0 of its
    # output table, read for the last time before `_expand` writes it
    other = {run.hypothesis: tables[run.hypothesis][..., 0] if run.plane
             else label_planes(tables[run.hypothesis].shape) for run in runs}
    q, spare = (last, other) if config.iterations % 2 == 0 else (other, last)
    _start(q, runs)
    lam = config.damping
    for t in range(1, config.iterations + 1):
        started = time.perf_counter()
        snapshot = MarginalTable(q)
        for run in runs:
            name = run.hypothesis
            arr = spare[name]
            _add_messages(arr, snapshot, run)
            if not run.bound < LOGIT_LIMIT and not all(rows(_finite, arr)):
                raise EngineError(f"non-finite logits for {name} at iteration {t}")
            _normalize(arr, run)
            if lam > 0.0:
                rows(_damp, arr, q[name], lam)
            _pin_and_flush(arr, run)
        q, spare = spare, q
        fixed = t < config.iterations and _same(q, spare)
        if trace is not None:
            trace.seconds.append(time.perf_counter() - started)
            _record(trace, spare, q, runs)
        if fixed:
            break
    return _expand(tables, runs)


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
