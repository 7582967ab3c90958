"""Knowledge base: entity domain, observed facts, and per-predicate masks.

Evidence files list one ground fact per line under the open-world assumption:
facts not listed are latent variables, not false.  Syntax (no whitespace
inside atoms, ``#`` comments)::

    friend(B,A)          # binary predicate observed true
    !friend(A,A)         # binary predicate observed false
    label(T3)=B-PER      # multi-class predicate fixed to a label

Entity constants are collected in first-occurrence order; an optional seed
list pins the leading indices.  ``parse_atom`` reads the atom syntax for every
data file (evidence, queries, unary potentials, predictions, truth), so each
reader error starts with ``line N:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fol import Predicate, RuleError, content_lines

_SYMBOL = r"[A-Za-z0-9_.-]+"
ATOM_RE = re.compile(
    rf"^(?P<neg>!?)(?P<name>{_SYMBOL})\((?P<args>(?:{_SYMBOL}(?:,{_SYMBOL})*)?)\)"
    rf"(?:=(?P<label>{_SYMBOL}))?$")


class EvidenceError(Exception):
    """Malformed evidence, query, or unary-potential input."""


@dataclass(frozen=True)
class GroundAtom:
    """A predicate applied to concrete entity indices."""

    predicate: Predicate
    args: tuple[int, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise EvidenceError(f"{self.predicate.name} expects {self.predicate.arity} args")


@dataclass
class ObservationMask:
    """Per-cell observation flags and observed labels (-1 where latent)."""

    mask: np.ndarray
    labels: np.ndarray


class KnowledgeBase:
    """Immutable entity domain, predicate universe, and observation set."""

    def __init__(self, entities, predicates, observations):
        self.entities: tuple[str, ...] = tuple(entities)
        if not self.entities:
            raise EvidenceError("empty entity domain")
        self.predicates: dict[str, Predicate] = dict(predicates)
        # (predicate name, arg index tuple) -> observed label
        self.observations: dict[tuple[str, tuple[int, ...]], int] = dict(observations)
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.entities)}
        if len(self.index) != len(self.entities):
            raise EvidenceError("duplicate entity names")
        for (name, args), label in self.observations.items():
            pred = self.predicates.get(name)
            if pred is None:
                raise EvidenceError(f"observation for undeclared predicate {name!r}")
            if len(args) != pred.arity:
                raise EvidenceError(f"observation arity mismatch for {name}")
            if any(a < 0 or a >= self.n for a in args):
                raise EvidenceError(f"observation {name}{args} indexes unknown entity")
            if not 0 <= label < pred.num_labels:
                raise EvidenceError(f"observation label out of range for {name}")

    @property
    def n(self) -> int:
        return len(self.entities)

    def entity_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise EvidenceError(f"unknown entity {name!r}") from None

    def shape(self, pred: Predicate) -> tuple[int, ...]:
        return (self.n,) * pred.arity

    def observed_label(self, name: str, args: tuple[int, ...]) -> int | None:
        return self.observations.get((name, args))

    @cached_property
    def _masks(self) -> dict[str, ObservationMask]:
        out = {}
        for name, pred in self.predicates.items():
            mask = np.zeros(self.shape(pred), dtype=bool)
            labels = np.full(self.shape(pred), -1, dtype=np.int64)
            out[name] = ObservationMask(mask, labels)
        for (name, args), label in self.observations.items():
            out[name].mask[args] = True
            out[name].labels[args] = label
        return out

    def masks(self) -> dict[str, ObservationMask]:
        return self._masks


class _Numbering(dict):
    """Entity name -> index map that numbers each new name on first lookup."""

    def __missing__(self, name: str) -> int:
        self[name] = index = len(self)
        return index


def parse_atom(line: str, lineno: int, predicates: dict[str, Predicate], entities):
    """``(negated, predicate, args, label)`` of one atom line.

    ``entities`` maps entity names to indices; a name it lacks is an unknown
    entity unless it numbers new names itself.  Every error names the line.
    """
    m = ATOM_RE.match(line)
    if m is None:
        raise EvidenceError(f"line {lineno}: malformed atom {line!r}")
    negated, name, syms, label = m.groups()
    pred = predicates.get(name)
    if pred is None:
        raise EvidenceError(f"line {lineno}: undeclared predicate {name!r}")
    syms = syms.split(",") if syms else ()
    if len(syms) != pred.arity:
        raise EvidenceError(f"line {lineno}: {name} expects {pred.arity} args, "
                            f"got {len(syms)}")
    try:
        args = tuple(map(entities.__getitem__, syms))
    except KeyError as exc:
        raise EvidenceError(f"line {lineno}: unknown entity {exc.args[0]!r}") from None
    return bool(negated), pred, args, label


def load_evidence(text: str, predicates, entities=None) -> KnowledgeBase:
    """Build a KnowledgeBase from evidence text and declared predicates."""
    preds = {p.name: p for p in (predicates.values() if isinstance(predicates, dict)
                                 else predicates)}
    seed = list(entities or ())
    index = _Numbering(zip(seed, range(len(seed))))
    if len(index) != len(seed):
        raise EvidenceError("duplicate entity names")
    observations: dict[tuple[str, tuple[int, ...]], int] = {}
    for lineno, line in content_lines(text):
        negated, pred, args, label_sym = parse_atom(line, lineno, preds, index)
        if label_sym is None:
            if pred.num_labels != 2:
                raise EvidenceError(f"line {lineno}: multi-class fact {pred.name} "
                                    "needs '=LABEL'")
            label = 0 if negated else 1
        elif negated:
            raise EvidenceError(f"line {lineno}: '!' and '=' cannot be combined")
        else:
            try:
                label = pred.label_index(label_sym)
            except RuleError as exc:
                raise EvidenceError(f"line {lineno}: {exc}") from None
        key = (pred.name, args)
        if observations.setdefault(key, label) != label:
            raise EvidenceError(f"line {lineno}: conflicting observation for {line!r}")

    if not index:
        raise EvidenceError("empty entity domain: no entities seeded or observed")
    return KnowledgeBase(index, preds, observations)


def variable_universe(kb: KnowledgeBase) -> dict[str, int]:
    """Number of unobserved ground atoms per predicate."""
    observed: dict[str, int] = {name: 0 for name in kb.predicates}
    for (name, _args) in kb.observations:
        observed[name] += 1
    return {name: kb.n ** pred.arity - observed[name]
            for name, pred in kb.predicates.items()}


def load_queries(text: str, kb: KnowledgeBase) -> list[GroundAtom]:
    """Ground atoms to report, using the evidence atom syntax without !/=."""
    out = []
    for lineno, line in content_lines(text):
        negated, pred, args, label = parse_atom(line, lineno, kb.predicates, kb.index)
        if negated or label is not None:
            raise EvidenceError(f"line {lineno}: queries are bare atoms")
        out.append(GroundAtom(pred, args))
    return out
