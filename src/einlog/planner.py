"""Contraction planner: orders pairwise einsum steps under a FLOP cost model.

Each pairwise step multiplies two operands and sums exactly the indices that
are shared by both and needed nowhere else; indices private to one operand
ride along until the final step, which projects onto the requested output.
A step costs the product of the extents of every distinct index it touches,
and M' is the maximum such index count over the plan, i.e. the exponent of
the dominating term.  The search is exhaustive (subset dynamic programming)
up to six operands and greedy beyond that.  When no pairwise decomposition
beats evaluating the whole expression at once, the plan falls back to a
single multi-operand step so a plan never costs more than the naive
single-shot evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .tensor import EinsumSpec, broadcast_output


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

    @property
    def expr(self) -> str:
        return ",".join(self.operand_subscripts) + "->" + self.result_subscript

    def describe(self) -> str:
        return f"{self.expr} cost={int(self.est_flops)}"


@dataclass(frozen=True)
class ContractionPlan:
    spec: EinsumSpec
    extents: dict[str, int]
    steps: tuple[ContractionStep, ...]
    final_subscript: str
    max_intermediate_arity: int  # M': max distinct indices active in one step
    total_cost: float
    naive_cost: float
    reducible: bool

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
        return ContractionPlan(spec, extents, (), core_output, 0, 0.0, naive_cost, False)

    operand_letters = [_distinct(sub) for sub in spec.inputs]

    if k == 1:
        sub = spec.inputs[0]
        summed = set(operand_letters[0]) - set(core_output)
        has_diag = len(sub) != len(operand_letters[0])
        cost = _cost(operand_letters[0], extents) if (summed or has_diag) else 0.0
        step = ContractionStep((0,), (sub,), core_output, cost)
        return ContractionPlan(spec, extents, (step,), core_output,
                               len(operand_letters[0]), cost, naive_cost, False)

    appearances: dict[str, int] = {}
    for ls in operand_letters:
        for ch in ls:
            appearances[ch] = appearances.get(ch, 0) + 1
    output_set = set(core_output)
    all_ids = frozenset(range(k))
    input_union = {ch for ls in operand_letters for ch in ls}
    single_shot = _cost(sorted(input_union), extents)

    def group_letters(ids: frozenset) -> set[str]:
        if len(ids) == 1:
            return set(operand_letters[next(iter(ids))])
        if ids == all_ids:
            return set(core_output)
        return _kept_letters(ids, operand_letters, appearances, output_set)

    if k <= 6:
        merges = _search_exhaustive(all_ids, group_letters, extents)
    else:
        merges = _search_greedy(all_ids, group_letters, extents)
    tree_cost = sum(cost for _, _, cost in merges)

    if tree_cost > single_shot:
        # irreducible: one multi-operand step is cheapest
        step = ContractionStep(tuple(range(k)), tuple(spec.inputs), core_output, single_shot)
        return ContractionPlan(spec, extents, (step,), core_output,
                               len(input_union), single_shot, naive_cost, False)

    steps = _materialize(merges, spec, group_letters, core_output)
    mprime = max(len({ch for sub in s.operand_subscripts for ch in sub}) for s in steps)
    return ContractionPlan(spec, extents, tuple(steps), core_output,
                           mprime, tree_cost, naive_cost, len(steps) > 1)


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


def _materialize(merges, spec, group_letters, core_output):
    """Turn merge pairs into concrete steps with subscripts and operand ids."""
    k = len(spec.inputs)
    sub_of: dict[frozenset, tuple[int, str]] = {
        frozenset([i]): (i, spec.inputs[i]) for i in range(k)}
    all_ids = frozenset(range(k))
    steps = []
    next_id = k
    for left, right, cost in merges:
        lid, lsub = sub_of[left]
        rid, rsub = sub_of[right]
        merged = left | right
        if merged == all_ids:
            result = core_output
        else:
            result = _ordered(group_letters(merged), lsub, rsub)
        steps.append(ContractionStep((lid, rid), (lsub, rsub), result, cost))
        sub_of[merged] = (next_id, result)
        next_id += 1
    return steps


def execute(cplan: ContractionPlan, inputs) -> np.ndarray:
    """Run a plan; equals the unplanned einsum of the same spec."""
    arrays = [np.asarray(t, dtype=np.float64) for t in inputs]
    spec = cplan.spec
    if len(arrays) != len(spec.inputs):
        raise PlanError(f"plan has {len(spec.inputs)} operands, got {len(arrays)}")
    ext = cplan.extents
    for sub, arr in zip(spec.inputs, arrays):
        if arr.ndim != len(sub) or any(ext[ch] != d for ch, d in zip(sub, arr.shape)):
            raise PlanError(f"operand shape {arr.shape} does not match subscript {sub!r}")
    pool = list(arrays)
    last = None
    for step in cplan.steps:
        last = np.einsum(step.expr, *(pool[i] for i in step.operand_ids), optimize=False)
        pool.append(last)
    if last is None:
        last = np.asarray(np.float64(1.0))
    if cplan.final_subscript == spec.output:
        return np.asarray(last)
    return broadcast_output(last, cplan.final_subscript, spec, ext)
