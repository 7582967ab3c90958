"""Brute-force reference implementations used as ground truth in tests.

Everything here favors obvious correctness over speed: explicit nested
loops, sequential grounding enumeration, exhaustive world enumeration, and a
pure-loop einsum evaluator.  Size limits abort instead of truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import MarginalTable, UnaryTable
from .fol import Clause, normalize_rules, split_cnf
from .kb import GroundAtom, KnowledgeBase
from .tensor import EinsumSpec


class OracleError(Exception):
    """Instance exceeds a configured enumeration limit or is malformed."""


def brute_einsum(spec, inputs, extents=None) -> np.ndarray:
    """Einstein summation by explicit loops over every index assignment."""
    if isinstance(spec, str):
        spec = EinsumSpec.parse(spec)
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]
    ext = spec.resolve_extents([a.shape for a in arrays], extents)
    letters = sorted({ch for sub in spec.inputs for ch in sub} | set(spec.output))
    out = np.zeros(tuple(ext[ch] for ch in spec.output))
    for assign in itertools.product(*(range(ext[ch]) for ch in letters)):
        env = dict(zip(letters, assign))
        p = 1.0
        for sub, arr in zip(spec.inputs, arrays):
            p *= float(arr[tuple(env[ch] for ch in sub)])
        out[tuple(env[ch] for ch in spec.output)] += p
    return out


@dataclass(frozen=True)
class Grounding:
    """A clause with entities assigned to its variables."""

    clause: Clause
    assignment: tuple[int, ...]          # one entity index per clause variable
    atoms: tuple[GroundAtom, ...]        # one ground atom per literal


def _literal_atoms(clause: Clause, kb: KnowledgeBase, variables: tuple[str, ...]):
    """Per literal: argument slots as positions in ``variables`` or fixed indices."""
    var_pos = {v: i for i, v in enumerate(variables)}
    slots = []
    for lit in clause.literals:
        slot = []
        for term in lit.args:
            if term.is_constant:
                slot.append(("const", kb.entity_index(term.symbol)))
            else:
                slot.append(("var", var_pos[term.symbol]))
        slots.append(tuple(slot))
    return slots


def _ground_args(slot, assignment) -> tuple[int, ...]:
    return tuple(idx if kind == "const" else assignment[idx] for kind, idx in slot)


def enumerate_groundings(clause: Clause, kb: KnowledgeBase,
                         limit: int = 10 ** 6) -> list[Grounding]:
    """All groundings of a clause in lexicographic assignment order."""
    variables = clause.variables()
    slots = _literal_atoms(clause, kb, variables)
    count = kb.n ** len(variables)
    if count > limit:
        raise OracleError(f"{count} groundings exceed the limit of {limit}")
    out = []
    for assignment in itertools.product(range(kb.n), repeat=len(variables)):
        atoms = tuple(GroundAtom(lit.predicate, _ground_args(slot, assignment))
                      for lit, slot in zip(clause.literals, slots))
        out.append(Grounding(clause, assignment, atoms))
    return out


def naive_mf_step(q: MarginalTable, rules, kb: KnowledgeBase, phi: UnaryTable, *,
                  simplified: bool = False, include_self_groundings: bool = True,
                  message_limit: int = 10 ** 5) -> MarginalTable:
    """One sequential mean-field update over explicitly enumerated groundings.

    For every unobserved-or-not cell the update sums, over all groundings and
    hypothesis positions touching it, the full expectation of the clause
    potential over every premise-position label assignment (``simplified=False``)
    or only the true-premise product (``simplified=True``); both normalize to
    the same marginals.  ``include_self_groundings=False`` skips hypothesis
    positions whose premise mentions the target atom itself.  Observed cells
    are pinned to their observed label afterwards, as in the engine.
    """
    clauses = [c for formula in normalize_rules(rules) for c in split_cnf(formula)]
    total = 0
    for clause in clauses:
        total += (kb.n ** len(clause.variables())) * len(clause.literals)
    if total > message_limit:
        raise OracleError(f"{total} grounding messages exceed the limit of {message_limit}")

    contrib = {name: np.zeros(kb.shape(p) + (p.num_labels,))
               for name, p in kb.predicates.items()}

    for clause in clauses:
        w = clause.weight
        lits = clause.literals
        value_sets = [lit.value_set for lit in lits]
        num_labels = [lit.predicate.num_labels for lit in lits]
        for g in enumerate_groundings(clause, kb):
            for h in range(len(lits)):
                target = g.atoms[h]
                if not include_self_groundings:
                    if any(g.atoms[j] == target for j in range(len(lits)) if j != h):
                        continue
                premise = [j for j in range(len(lits)) if j != h]
                table = contrib[target.predicate.name]
                if simplified:
                    prob = 1.0
                    for j in premise:
                        qj = q.tables[lits[j].predicate.name][g.atoms[j].args]
                        prob *= sum(float(qj[v]) for v in range(num_labels[j])
                                    if v not in value_sets[j])
                    for v in value_sets[h]:
                        table[target.args + (v,)] += w * prob
                else:
                    msg = [0.0] * num_labels[h]
                    for vals in itertools.product(*(range(num_labels[j]) for j in premise)):
                        p = 1.0
                        for j, vj in zip(premise, vals):
                            p *= float(q.tables[lits[j].predicate.name][g.atoms[j].args + (vj,)])
                        if any(vj in value_sets[j] for j, vj in zip(premise, vals)):
                            for v in range(num_labels[h]):
                                msg[v] += p  # clause already satisfied by the premise
                        else:
                            for v in value_sets[h]:
                                msg[v] += p  # satisfied only when the hypothesis holds
                    for v in range(num_labels[h]):
                        table[target.args + (v,)] += w * msg[v]

    out = {}
    for name in kb.predicates:
        logits = phi.tables[name] + contrib[name]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out[name] = e / e.sum(axis=-1, keepdims=True)
    result = MarginalTable(out)
    for (name, args), label in kb.observations.items():
        cell = np.zeros(kb.predicates[name].num_labels)
        cell[label] = 1.0
        result.tables[name][args] = cell
    return result


def _clause_satisfied(clause: Clause, slots, assignment, values) -> bool:
    for lit, slot in zip(clause.literals, slots):
        args = _ground_args(slot, assignment)
        if values[(lit.predicate.name, args)] in lit.value_set:
            return True
    return False


def exact_marginals(kb: KnowledgeBase, rules, phi: UnaryTable,
                    max_bits: int = 20) -> MarginalTable:
    """Exact posterior marginals by enumerating and scoring every world."""
    latents: list[tuple[str, tuple[int, ...], int]] = []
    for name, pred in kb.predicates.items():
        for args in itertools.product(range(kb.n), repeat=pred.arity):
            if (name, args) not in kb.observations:
                latents.append((name, args, pred.num_labels))
    bits = sum(math.log2(d) for _, _, d in latents)
    if bits > max_bits:
        raise OracleError(f"{bits:.1f} binary-equivalent variables exceed the "
                          f"limit of {max_bits}")

    formulas: list[tuple[float, list]] = []
    for formula in normalize_rules(rules):
        # the variables of every clause, in first-occurrence order
        variables = tuple(dict.fromkeys(v for c in formula.clauses for v in c.variables()))
        grounded_clauses = [(clause, _literal_atoms(clause, kb, variables))
                            for clause in formula.clauses]
        formulas.append((formula.weight, (variables, grounded_clauses)))

    def energy(values) -> float:
        e = 0.0
        for name, args, _d in latents:
            e += float(phi.tables[name][args + (values[(name, args)],)])
        for w, (variables, grounded_clauses) in formulas:
            for assignment in itertools.product(range(kb.n), repeat=len(variables)):
                if all(_clause_satisfied(clause, remap, assignment, values)
                       for clause, remap in grounded_clauses):
                    e += w
        return e

    base = dict(kb.observations)
    label_ranges = [range(d) for _, _, d in latents]
    energies = []
    for world in itertools.product(*label_ranges):
        values = dict(base)
        for (name, args, _d), label in zip(latents, world):
            values[(name, args)] = label
        energies.append(energy(values))
    peak = max(energies) if energies else 0.0

    sums = {(name, args): np.zeros(d) for name, args, d in latents}
    z = 0.0
    for world, e in zip(itertools.product(*label_ranges), energies):
        weight = math.exp(e - peak)
        z += weight
        for (name, args, _d), label in zip(latents, world):
            sums[(name, args)][label] += weight

    out = {name: np.zeros(kb.shape(p) + (p.num_labels,))
           for name, p in kb.predicates.items()}
    for (name, args), acc in sums.items():
        out[name][args] = acc / z
    for (name, args), label in kb.observations.items():
        out[name][args + (label,)] = 1.0
    return MarginalTable(out)
