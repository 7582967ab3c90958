"""Contraction planner: orders pairwise einsum steps under a FLOP cost model.

Each pairwise step multiplies two operands and sums exactly the indices that
are shared by both and needed nowhere else; indices private to one operand
ride along until the final step, which projects onto the requested output.
Where two or more operands hold private indices, each of them may first be
summed over its own in a single-operand step, when that plan costs less.
A step costs the product of the extents of every distinct index it touches,
and M' is the maximum such index count over the plan, i.e. the exponent of
the dominating term.  The search is exhaustive (subset dynamic programming)
up to six operands and greedy beyond that.  When no pairwise decomposition
beats evaluating the whole expression at once, the plan falls back to a
single multi-operand step so a plan never costs more than the naive
single-shot evaluation.

A pairwise step that is a plain 2-D matrix product runs as BLAS
``np.matmul`` on (transposed) views; every other step runs as
``np.einsum(..., optimize=False)``.  The choice is made once, when planning.
When BLAS is pinned to fewer threads than the process has CPUs, a large
step runs in two blocks that the calling thread and ``parallel``'s helper
thread compute at once: a matrix product of at least ``_SPLIT_FLOPS``
multiply-adds (``_split_matmul``) and an ``einsum`` step over at least
``parallel.FLOOR`` index cells (``_split_einsum``).  The last step can
write into a caller's array (``execute(out=)``) when its result is the
whole output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import parallel
from .tensor import EinsumSpec, broadcast_output


# a matrix product of at least _SPLIT_FLOPS multiply-adds is split (see
# _split_matmul); an einsum step runs in row blocks from parallel.FLOOR
_SPLIT_FLOPS = 256 ** 3


class PlanError(Exception):
    """Ill-posed contraction problem."""


@dataclass(frozen=True)
class ContractionStep:
    """One contraction: two operands usually, one for reshapes/reductions,
    or all of them for the irreducible fallback."""

    operand_ids: tuple[int, ...]
    operand_subscripts: tuple[str, ...]
    result_subscript: str
    est_flops: float
    # (left id, right id, transpose left, transpose right) when the step is
    # one 2-D matrix product run by np.matmul; None runs np.einsum
    gemm: tuple[int, int, bool, bool] | None = None

    @property
    def expr(self) -> str:
        return ",".join(self.operand_subscripts) + "->" + self.result_subscript

    @property
    def kernel(self) -> str:
        return "einsum" if self.gemm is None else "gemm"

    def describe(self) -> str:
        return f"{self.expr} kernel={self.kernel} cost={int(self.est_flops)}"


@dataclass(frozen=True)
class ContractionPlan:
    spec: EinsumSpec
    extents: dict[str, int]
    steps: tuple[ContractionStep, ...]
    max_intermediate_arity: int  # M': max distinct indices active in one step
    total_cost: float
    naive_cost: float
    reducible: bool
    # operand shapes fixed by the extents, so execute compares tuples only
    input_shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shapes", tuple(
            tuple(self.extents[ch] for ch in sub) for sub in self.spec.inputs))

    @property
    def fills_output(self) -> bool:
        """Whether the last step's result is the whole output, with no
        broadcast letter: only then can ``execute`` write into ``out``."""
        return bool(self.steps) and len(self.steps[-1].result_subscript) == len(self.spec.output)

    def max_result_arity(self) -> int:
        return max((len(s.result_subscript) for s in self.steps), default=0)

    def max_intermediate_bytes(self) -> int:
        """float64 bytes of the largest step result: its extents x 8."""
        return 8 * max((prod(self.extents[ch] for ch in s.result_subscript)
                        for s in self.steps), default=0)

    def describe(self) -> str:
        lines = [s.describe() for s in self.steps]
        lines.append(f"M'={self.max_intermediate_arity} total_cost={int(self.total_cost)} "
                     f"naive_cost={int(self.naive_cost)} "
                     f"reducible={'yes' if self.reducible else 'no'} "
                     f"max_intermediate_bytes={self.max_intermediate_bytes()}")
        return "\n".join(lines)


def _distinct(sub: str) -> tuple[str, ...]:
    out: list[str] = []
    for ch in sub:
        if ch not in out:
            out.append(ch)
    return tuple(out)


def _cost(letters, extents) -> float:
    return float(prod(extents[ch] for ch in letters)) if letters else 0.0


def _kept_letters(member_ids, operand_letters, appearances, output_letters):
    """Letters surviving a merge of the original operands in ``member_ids``.

    A letter survives while it is requested by the output, still present in
    an operand outside the merged group, or private to a single operand of
    the group (private indices are only summed in the final projection).
    """
    inside: dict[str, int] = {}
    for i in member_ids:
        for ch in operand_letters[i]:
            inside[ch] = inside.get(ch, 0) + 1
    kept = set()
    for ch, cnt in inside.items():
        if ch in output_letters or appearances[ch] > cnt or cnt == 1:
            kept.add(ch)
    return kept


def _ordered(letter_set, *subscripts) -> str:
    out = []
    for sub in subscripts:
        for ch in sub:
            if ch in letter_set and ch not in out:
                out.append(ch)
    return "".join(out)


def plan(spec, extents) -> ContractionPlan:
    """Plan a contraction order for ``spec`` given index extents."""
    if isinstance(spec, str):
        spec = EinsumSpec.parse(spec)
    extents = {k: int(v) for k, v in dict(extents).items()}
    letters = sorted(spec.input_letters() | set(spec.output))
    if len(letters) > 26:
        raise PlanError("more than 26 distinct indices")
    for ch in letters:
        if ch not in extents:
            raise PlanError(f"unknown extent for index {ch!r}")

    naive_cost = _cost(letters, extents)
    k = len(spec.inputs)
    core_output = "".join(ch for ch in spec.output if ch in spec.input_letters())

    if k == 0:
        return ContractionPlan(spec, extents, (), 0, 0.0, naive_cost, False)

    operand_letters = [_distinct(sub) for sub in spec.inputs]

    if k == 1:
        sub = spec.inputs[0]
        summed = set(operand_letters[0]) - set(core_output)
        has_diag = len(sub) != len(operand_letters[0])
        cost = _cost(operand_letters[0], extents) if (summed or has_diag) else 0.0
        step = ContractionStep((0,), (sub,), core_output, cost)
        return ContractionPlan(spec, extents, (step,), len(operand_letters[0]), cost,
                               naive_cost, False)

    appearances: dict[str, int] = {}
    for ls in operand_letters:
        for ch in ls:
            appearances[ch] = appearances.get(ch, 0) + 1
    output_set = set(core_output)
    input_union = {ch for ls in operand_letters for ch in ls}
    single_shot = _cost(sorted(input_union), extents)

    merges, group_letters = _search(operand_letters, appearances, core_output, extents)
    tree_cost = sum(cost for _, _, cost in merges)
    # where two or more operands hold private letters, some step multiplies
    # their extents together; summing each operand's private letters in a
    # single-operand step first is taken when it makes the whole plan cheaper
    reductions = []
    for i, ls in enumerate(operand_letters):
        kept = tuple(ch for ch in ls if appearances[ch] > 1 or ch in output_set)
        if kept != ls:
            reductions.append(ContractionStep((i,), (spec.inputs[i],), "".join(kept),
                                              _cost(ls, extents)))
    first = []
    if len(reductions) > 1:
        reduced = list(operand_letters)
        for step in reductions:
            reduced[step.operand_ids[0]] = tuple(step.result_subscript)
        r_merges, r_group_letters = _search(reduced, appearances, core_output, extents)
        r_cost = sum(s.est_flops for s in reductions) + sum(c for _, _, c in r_merges)
        if r_cost < tree_cost:
            merges, group_letters, tree_cost = r_merges, r_group_letters, r_cost
            first = reductions

    if tree_cost > single_shot:
        # irreducible: one multi-operand step is cheapest
        step = ContractionStep(tuple(range(k)), tuple(spec.inputs), core_output, single_shot)
        return ContractionPlan(spec, extents, (step,), len(input_union), single_shot,
                               naive_cost, False)

    steps = _materialize(merges, spec, group_letters, core_output, first)
    mprime = max(len({ch for sub in s.operand_subscripts for ch in sub}) for s in steps)
    return ContractionPlan(spec, extents, tuple(steps), mprime, tree_cost, naive_cost,
                           len(steps) > 1)


def _search(operand_letters, appearances, core_output, extents):
    """Pairwise merges over operands with these distinct letters, and the
    letters each group of operands keeps.  ``appearances`` counts the
    operands that hold each letter; summing private letters first leaves
    the other counts as they are."""
    output_set = set(core_output)
    all_ids = frozenset(range(len(operand_letters)))

    def group_letters(ids: frozenset) -> set[str]:
        if len(ids) == 1:
            return set(operand_letters[next(iter(ids))])
        if ids == all_ids:
            return set(core_output)
        return _kept_letters(ids, operand_letters, appearances, output_set)

    if len(all_ids) <= 6:
        return _search_exhaustive(all_ids, group_letters, extents), group_letters
    return _search_greedy(all_ids, group_letters, extents), group_letters


def _search_exhaustive(all_ids, group_letters, extents):
    """Subset DP over merge trees; returns merges as (left_ids, right_ids, cost)."""
    best: dict[frozenset, tuple] = {}  # ids -> (cost, tie_key, split or None)
    singles = sorted(all_ids)
    for i in singles:
        best[frozenset([i])] = (0.0, (), None)

    for size in range(2, len(singles) + 1):
        for combo in itertools.combinations(singles, size):
            s = frozenset(combo)
            pivot = min(s)
            candidates = []
            rest = sorted(s - {pivot})
            for r in range(len(rest) + 1):
                for picked in itertools.combinations(rest, r):
                    left = frozenset((pivot,) + picked)
                    right = s - left
                    if not right:
                        continue
                    lcost, lkey, _ = best[left]
                    rcost, rkey, _ = best[right]
                    step_letters = group_letters(left) | group_letters(right)
                    cost = lcost + rcost + _cost(step_letters, extents)
                    result = group_letters(s)
                    tie = lkey + rkey + ((len(result), "".join(sorted(result)),
                                          tuple(sorted(left)), tuple(sorted(right))),)
                    candidates.append((cost, tie, (left, right)))
            best[s] = min(candidates, key=lambda c: (c[0], c[1]))

    merges = []

    def rebuild(s: frozenset):
        _, _, split = best[s]
        if split is None:
            return
        left, right = split
        rebuild(left)
        rebuild(right)
        step_letters = group_letters(left) | group_letters(right)
        merges.append((left, right, _cost(step_letters, extents)))

    rebuild(all_ids)
    return merges


def _search_greedy(all_ids, group_letters, extents):
    """Min-cost pair at each step; used beyond the exhaustive operand bound."""
    groups: list[frozenset] = [frozenset([i]) for i in sorted(all_ids)]
    merges = []
    while len(groups) > 1:
        options = []
        for a, b in itertools.combinations(range(len(groups)), 2):
            merged = groups[a] | groups[b]
            step_letters = group_letters(groups[a]) | group_letters(groups[b])
            cost = _cost(step_letters, extents)
            result = group_letters(merged) if merged != all_ids else group_letters(all_ids)
            options.append((cost, len(result), "".join(sorted(result)), a, b))
        cost, _, _, a, b = min(options)
        merges.append((groups[a], groups[b], cost))
        merged = groups[a] | groups[b]
        groups = [g for i, g in enumerate(groups) if i not in (a, b)] + [merged]
    return merges


def _gemm(operand_ids, operand_subscripts, result):
    """Lower a step to one matrix product ``left @ right``, or return None.

    A step qualifies when both operands are matrices over two distinct
    letters, they share exactly one letter, which the step sums away, and
    the result is the other two letters.  The operand holding the result's
    row letter goes left, and each operand is transposed (a view) where
    needed, so the product comes out in result order with no copy.
    """
    if len(operand_subscripts) != 2 or len(result) != 2:
        return None
    s, t = operand_subscripts
    if any(len(sub) != 2 or sub[0] == sub[1] for sub in (s, t)):
        return None
    shared = set(s) & set(t)
    if len(shared) != 1 or set(result) != set(s) ^ set(t):
        return None
    (k,) = shared
    left, right = (0, 1) if result[0] in s else (1, 0)
    return (operand_ids[left], operand_ids[right],
            operand_subscripts[left][0] == k, operand_subscripts[right][1] == k)


def _materialize(merges, spec, group_letters, core_output, reductions):
    """Turn merge pairs into concrete steps with subscripts and operand ids,
    after the single-operand ``reductions``, whose results stand in for
    their operands."""
    k = len(spec.inputs)
    sub_of: dict[frozenset, tuple[int, str]] = {
        frozenset([i]): (i, spec.inputs[i]) for i in range(k)}
    all_ids = frozenset(range(k))
    steps = list(reductions)
    next_id = k
    for step in reductions:
        sub_of[frozenset(step.operand_ids)] = (next_id, step.result_subscript)
        next_id += 1
    for left, right, cost in merges:
        lid, lsub = sub_of[left]
        rid, rsub = sub_of[right]
        merged = left | right
        if merged == all_ids:
            result = core_output
        else:
            result = _ordered(group_letters(merged), lsub, rsub)
        steps.append(ContractionStep((lid, rid), (lsub, rsub), result, cost,
                                     _gemm((lid, rid), (lsub, rsub), result)))
        sub_of[merged] = (next_id, result)
        next_id += 1
    return steps


def _split_matmul(left: np.ndarray, right: np.ndarray, out: np.ndarray | None,
                  symmetric: bool) -> np.ndarray:
    """``np.matmul(left, right, out=out)`` in two blocks that the calling
    thread and the helper compute at once (see ``parallel.run``), or whole
    when there is one worker or one row.

    The calling thread allocates the result (or takes ``out``) and each
    block is one matmul written into it through views.  A plain product
    splits into two row blocks.  A ``symmetric`` one, ``right`` being
    ``left`` transposed, splits into the upper-triangle blocks of a 2 x 2
    grid: the helper computes the off-diagonal block, twice the work of a
    diagonal one, and copies it transposed into the lower triangle, as
    numpy's own symmetric product does; the calling thread computes the two
    diagonal blocks, each numpy's half-cost product of a row block with its
    own transpose.  Blocks are fixed by the shapes, so the result does not
    depend on which thread runs what; it may differ from the unsplit
    product in the last bits.
    """
    m, n = left.shape[0], right.shape[1]
    if parallel.WORKERS < 2 or m < 2:
        return np.matmul(left, right, out=out)
    if out is None:
        out = np.empty((m, n))
    top, bottom = slice(0, m // 2), slice(m // 2, m)

    def product(rows, cols):
        np.matmul(left[rows], right[:, cols], out=out[rows, cols])

    if symmetric:
        def corner():
            product(top, bottom)
            np.copyto(out[bottom, top], out[top, bottom].T)

        parallel.run(lambda: (product(top, top), product(bottom, bottom)), corner)
    else:
        parallel.run(lambda: product(top, slice(None)), lambda: product(bottom, slice(None)))
    return out


def _split_einsum(step: ContractionStep, operands, out: np.ndarray | None,
                  extents: dict[str, int]) -> np.ndarray:
    """``np.einsum`` of ``step`` in two row blocks of its result's first
    letter, which the calling thread and the helper compute at once (see
    ``parallel.run``), or whole.  Each block slices that letter's axes of
    every operand that holds it and writes its rows of the result, or of
    ``out``.

    The split gives the unsplit bytes only while numpy runs each block with
    the loops of the whole step, so the step stays whole where they could
    differ: with one worker; with fewer than two rows per block, as numpy
    drops a length-1 axis; when the letter is an operand's last axis, the
    one numpy's inner loop runs along; with three or more operands, where a
    split block was seen to sum in another order; and, without ``out``,
    unless one operand is C-contiguous and holds every result letter in
    result order, as numpy lays a new result out in the order of its
    operands' strides and a later step's sums follow that layout.  A step
    of one operand and nothing summed stays whole too, as numpy returns it
    as a view.
    """
    result = step.result_subscript
    n = extents[result[0]] if result else 0
    subs = step.operand_subscripts
    if (parallel.WORKERS < 2 or n < 4 or len(subs) > 2
            or any(sub.endswith(result[0]) for sub in subs)
            or (len(operands) == 1 and set(subs[0]) == set(result))
            or (out is None and not any(x.flags.c_contiguous and _in_order(sub, result)
                                        for x, sub in zip(operands, subs)))):
        return np.einsum(step.expr, *operands, out=out, optimize=False)
    if out is None:
        out = np.empty(tuple(extents[ch] for ch in result))
    letter = result[0]

    def block(rows):
        cut = (x[tuple(rows if ch == letter else slice(None) for ch in sub)]
               for x, sub in zip(operands, subs))
        np.einsum(step.expr, *cut, out=out[rows], optimize=False)

    parallel.run(lambda: block(slice(0, n // 2)), lambda: block(slice(n // 2, n)))
    return out


def _in_order(sub: str, result: str) -> bool:
    """Whether ``sub`` holds every letter of ``result``, first met in
    ``result``'s order."""
    return "".join(ch for ch in dict.fromkeys(sub) if ch in result) == result


def execute(cplan: ContractionPlan, inputs, out: np.ndarray | None = None) -> np.ndarray:
    """Run a plan; the result broadcasts to the unplanned einsum of the same
    spec.  Each broadcast output letter gets a size-1 axis rather than a
    replicated one, so the result is never larger than the contraction.

    With ``out`` the last step writes its result there and ``out`` is
    returned; the plan must fill its output (``cplan.fills_output``).
    """
    arrays = [np.asarray(t, dtype=np.float64) for t in inputs]
    spec = cplan.spec
    if len(arrays) != len(cplan.input_shapes):
        raise PlanError(f"plan has {len(spec.inputs)} operands, got {len(arrays)}")
    for arr, shape, sub in zip(arrays, cplan.input_shapes, spec.inputs):
        if arr.shape != shape:
            raise PlanError(f"operand shape {arr.shape} does not match subscript {sub!r}")
    if out is not None and not cplan.fills_output:
        raise PlanError(f"plan of {spec} does not fill its output, so it cannot write out=")
    pool = arrays
    last = None
    final = len(cplan.steps) - 1
    for n, step in enumerate(cplan.steps):
        dest = out if n == final else None
        if step.gemm is None:
            operands = [pool[i] for i in step.operand_ids]
            if step.est_flops >= parallel.FLOOR:
                last = _split_einsum(step, operands, dest, cplan.extents)
            else:
                last = np.einsum(step.expr, *operands, out=dest, optimize=False)
        else:
            i, j, ti, tj = step.gemm
            left, right = pool[i].T if ti else pool[i], pool[j].T if tj else pool[j]
            # est_flops is the product's m * k * n multiply-adds
            if step.est_flops >= _SPLIT_FLOPS:
                last = _split_matmul(left, right, dest, pool[i] is pool[j] and ti != tj)
            else:
                last = np.matmul(left, right, out=dest)
        pool.append(last)
    last = np.asarray(np.float64(1.0) if last is None else last)
    return last if last.ndim == len(spec.output) else broadcast_output(last, spec)
