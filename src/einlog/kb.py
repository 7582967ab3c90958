"""Knowledge base: entity domain, observed facts, and per-predicate masks.

Evidence files list one ground fact per line under the open-world assumption:
facts not listed are latent variables, not false.  Syntax (no whitespace
inside atoms, ``#`` comments)::

    friend(B,A)          # binary predicate observed true
    !friend(A,A)         # binary predicate observed false
    label(T3)=B-PER      # multi-class predicate fixed to a label

Entity constants are collected in first-occurrence order; an optional seed
list pins the leading indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fol import Predicate

ATOM_RE = re.compile(
    r"^(?P<neg>!?)(?P<name>[A-Za-z0-9_.-]+)\((?P<args>[A-Za-z0-9_.,-]*)\)"
    r"(?:=(?P<label>[A-Za-z0-9_.-]+))?$")


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
        self._index = {name: i for i, name in enumerate(self.entities)}
        if len(self._index) != len(self.entities):
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
            return self._index[name]
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


def _parse_atom_line(line: str, lineno: int):
    m = ATOM_RE.match(line)
    if m is None:
        raise EvidenceError(f"line {lineno}: malformed atom {line!r}")
    args = m.group("args")
    return (bool(m.group("neg")), m.group("name"),
            tuple(a for a in args.split(",") if a) if args else (),
            m.group("label"))


def load_evidence(text: str, predicates, entities=None) -> KnowledgeBase:
    """Build a KnowledgeBase from evidence text and declared predicates."""
    preds = {p.name: p for p in (predicates.values() if isinstance(predicates, dict)
                                 else predicates)}
    names: list[str] = list(entities) if entities else []
    index = {e: i for i, e in enumerate(names)}
    observations: dict[tuple[str, tuple[int, ...]], int] = {}

    def intern(symbol: str) -> int:
        if symbol not in index:
            index[symbol] = len(names)
            names.append(symbol)
        return index[symbol]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        negated, name, arg_syms, label_sym = _parse_atom_line(line, lineno)
        pred = preds.get(name)
        if pred is None:
            raise EvidenceError(f"line {lineno}: undeclared predicate {name!r}")
        if len(arg_syms) != pred.arity:
            raise EvidenceError(f"line {lineno}: {name} expects {pred.arity} args, "
                                f"got {len(arg_syms)}")
        if negated and label_sym is not None:
            raise EvidenceError(f"line {lineno}: '!' and '=' cannot be combined")
        if label_sym is not None:
            try:
                label = pred.label_index(label_sym)
            except Exception as exc:
                raise EvidenceError(f"line {lineno}: {exc}") from None
        elif pred.num_labels == 2:
            label = 0 if negated else 1
        else:
            raise EvidenceError(f"line {lineno}: multi-class fact {name} needs '=LABEL'")
        args = tuple(intern(s) for s in arg_syms)
        key = (name, args)
        if key in observations and observations[key] != label:
            raise EvidenceError(f"line {lineno}: conflicting observation for {line!r}")
        observations[key] = label

    if not names:
        raise EvidenceError("empty entity domain: no entities seeded or observed")
    return KnowledgeBase(names, preds, observations)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        negated, name, arg_syms, label_sym = _parse_atom_line(line, lineno)
        if negated or label_sym is not None:
            raise EvidenceError(f"line {lineno}: queries are bare atoms")
        pred = kb.predicates.get(name)
        if pred is None:
            raise EvidenceError(f"line {lineno}: undeclared predicate {name!r}")
        args = tuple(kb.entity_index(s) for s in arg_syms)
        out.append(GroundAtom(pred, args))
    return out
