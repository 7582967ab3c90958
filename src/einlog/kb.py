"""Knowledge base: entity domain, observed facts, and per-predicate masks.

Evidence files list one ground fact per line under the open-world assumption:
facts not listed are latent variables, not false.  Syntax (no whitespace
inside atoms, ``#`` comments)::

    friend(B,A)          # binary predicate observed true
    !friend(A,A)         # binary predicate observed false
    label(T3)=B-PER      # multi-class predicate fixed to a label

Entity constants are collected in first-occurrence order; an optional seed
list pins the leading indices.

Data files (evidence, queries, unary potentials, predictions, truth) are
read in bulk, in blocks of ``BLOCK_LINES`` lines: ``atom_blocks`` checks the
atom grammar of a block in array passes over its characters' classes (the
sequence of delimiters ``!``, ``(``, ``,``, ``)``, ``=`` and the gaps between
them), cuts it into tokens with one ``str.translate`` and ``split``, and
turns the atoms into per-predicate entity index arrays.  When a bulk reader
declines a text, ``read_bulk`` runs the reader's per-line walk, which goes
through ``fol.content_lines`` and ``parse_atom`` and raises the first error
in line order, so each reader error starts with ``line N:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .fol import Predicate, RuleError, content_lines

_SYMBOL = r"[A-Za-z0-9_.-]+"
ATOM_RE = re.compile(rf"^(?P<neg>!?)(?P<name>{_SYMBOL})"
                     rf"\((?P<args>(?:{_SYMBOL}(?:,{_SYMBOL})*)?)\)(?:=(?P<label>{_SYMBOL}))?$")

# Lines per bulk-read block.  Reading a whole file at once would keep every
# character's class and position arrays alive together.
BLOCK_LINES = 2048


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


@dataclass(frozen=True)
class ObservationMask:
    """Per-cell observation flags and observed labels (-1 where latent),
    both read-only."""

    mask: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)
        self.labels.setflags(write=False)


def flat_cells(cells: np.ndarray, n: int) -> np.ndarray:
    """Row-major cell numbers, in an ``n^arity`` table, of an (m, arity)
    entity index array; every row is cell 0 at arity 0."""
    return cells @ n ** np.arange(cells.shape[1] - 1, -1, -1)


class KnowledgeBase:
    """Immutable entity domain, predicate universe, and observation set.

    ``observations`` is a ``{(name, args): label}`` mapping, or per-predicate
    arrays ``{name: (cells, labels)}`` as ``load_evidence`` passes them: an
    (m, arity) entity index array and the m labels observed at those cells.
    Both forms are kept as read-only copies in ``observed`` and validated
    there.
    """

    def __init__(self, entities, predicates, observations):
        self.entities: tuple[str, ...] = tuple(entities)
        if not self.entities:
            raise EvidenceError("empty entity domain")
        self.predicates: dict[str, Predicate] = dict(predicates)
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.entities)}
        if len(self.index) != len(self.entities):
            raise EvidenceError("duplicate entity names")
        observations = dict(observations)
        if observations and not isinstance(next(iter(observations)), str):
            grouped: dict[str, tuple[list, list]] = {}
            for (name, args), label in observations.items():
                cells, labels = grouped.setdefault(name, ([], []))
                cells.append(args)
                labels.append(label)
            observations = grouped
        # predicate name -> (cells, labels), one row per observed cell
        self.observed: dict[str, tuple[np.ndarray, np.ndarray]] = {
            name: (np.empty((0, p.arity), np.int64), np.empty(0, np.int64))
            for name, p in self.predicates.items()}
        for name, (cells, labels) in observations.items():
            pred = self.predicates.get(name)
            if pred is None:
                raise EvidenceError(f"observation for undeclared predicate {name!r}")
            try:
                labels = np.array(labels, dtype=np.int64).reshape(-1)
                cells = np.array(cells, dtype=np.int64).reshape(len(labels), pred.arity)
            except ValueError:
                raise EvidenceError(f"observation arity mismatch for {name}") from None
            unknown = np.flatnonzero(((cells < 0) | (cells >= self.n)).any(axis=1))
            if unknown.size:
                args = tuple(cells[unknown[0]].tolist())
                raise EvidenceError(f"observation {name}{args} indexes unknown entity")
            if np.any((labels < 0) | (labels >= pred.num_labels)):
                raise EvidenceError(f"observation label out of range for {name}")
            if np.any(np.diff(np.sort(flat_cells(cells, self.n))) == 0):
                raise EvidenceError(f"repeated observation cell for {name}")
            self.observed[name] = (cells, labels)
        for arrays in self.observed.values():
            for arr in arrays:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.entities)

    @cached_property
    def observations(self):
        """Read-only ``{(name, args): label}`` view of the observed cells."""
        return MappingProxyType({
            (name, tuple(args)): label
            for name, (cells, labels) in self.observed.items()
            for args, label in zip(cells.tolist(), labels.tolist())})

    def entity_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise EvidenceError(f"unknown entity {name!r}") from None

    def shape(self, pred: Predicate) -> tuple[int, ...]:
        return (self.n,) * pred.arity

    @cached_property
    def _masks(self) -> dict[str, ObservationMask]:
        out = {}
        for name, pred in self.predicates.items():
            cells, observed = self.observed[name]
            # the smallest signed type that holds -1 and every label: int8 up to 128 labels
            labels = np.full(self.n ** pred.arity, -1, np.min_scalar_type(-pred.num_labels))
            labels[flat_cells(cells, self.n)] = observed
            labels = labels.reshape(self.shape(pred))
            out[name] = ObservationMask(labels >= 0, labels)
        return out

    def masks(self) -> dict[str, ObservationMask]:
        """Per-predicate observation masks, as a new dict each call: the
        masks are frozen and read-only, so a caller may drop or replace
        entries without un-pinning cells for later calls."""
        return dict(self._masks)


class Queries:
    """Query atoms in file order, held as per-predicate entity index arrays.

    ``cells[name]`` is the (m, arity) array of that predicate's query lines,
    in file order, for every predicate; iterating yields one ``GroundAtom``
    per query line, duplicates included.
    """

    def __init__(self, kb: KnowledgeBase, lines: np.ndarray, cells: dict[str, np.ndarray]):
        self._predicates = tuple(kb.predicates.values())
        self._lines = lines  # position in kb.predicates of each line's predicate
        self.cells = cells

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self):
        rows = {name: iter(cells.tolist()) for name, cells in self.cells.items()}
        for pred in map(self._predicates.__getitem__, self._lines.tolist()):
            yield GroundAtom(pred, tuple(next(rows[pred.name])))


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


class Declined(Exception):
    """A bulk reader met input it does not take; the per-line walk names it."""


# A bulk reader declines by raising one of these: its own signal, a miss in a
# predicate or entity lookup, a number float() rejects, an unknown label.
_DECLINES = (Declined, KeyError, ValueError, RuleError)


def read_bulk(bulk, walk, *args):
    """``bulk(*args)``, or, when it declines, the error of ``walk(*args)``.

    The walk is the per-line reader: it raises the first error in line order,
    with the line's number.  A walk that accepts what the bulk reader declined
    is a reader bug, reported as such, never a result.
    """
    try:
        return bulk(*args)
    except _DECLINES:
        pass
    walk(*args)
    raise RuntimeError(f"internal error: {bulk.__name__} declined input that "
                       f"{walk.__name__} accepts")


# Character classes of the bulk readers; a class up to _HASH ends a token.
_SPACE, _NEWLINE, _OPEN, _COMMA, _EQUALS, _HASH, _SYM, _BANG, _CLOSE, _OTHER = range(10)
# No code point above U+3000 is whitespace, so the last entry stands for them all.
_CLASS = np.full(0x3002, _OTHER, np.uint8)
_CLASS[[i for i in range(0x3001) if chr(i).isspace()]] = _SPACE
_CLASS[[i for i in range(128) if re.fullmatch(_SYMBOL, chr(i))]] = _SYM
_CLASS[list(b"\n(,=#!)")] = [_NEWLINE, _OPEN, _COMMA, _EQUALS, _HASH, _BANG, _CLOSE]
_ASCII_CLASS = _CLASS[:256].tobytes()
# str.split(",") after this table cuts a block into its tokens: each
# token-ending character becomes ',', and '!' and ')' are dropped.
_TOKENS = (dict.fromkeys(np.flatnonzero(_CLASS[:-1] <= _HASH).tolist(), ",")
           | {ord("!"): None, ord(")"): None})


def _classes(block: str) -> np.ndarray:
    """The class of each character of ``block``."""
    if block.isascii():
        return np.frombuffer(block.encode("ascii").translate(_ASCII_CLASS), np.uint8)
    codes = np.frombuffer(block.encode("utf-32-le"), "<u4")
    return _CLASS[np.minimum(codes, len(_CLASS) - 1)]


def _scan(block: str):
    """The atom lines of ``block``, a text of lines joined and ended by "\\n",
    or None when no line has content.

    Lines, comments and whitespace are read as ``fol.content_lines`` and
    ``str.split`` read them: a line's first word is its atom, the words after
    it are its fields.  Returns ``(names, nargs, args, negated, named, labels,
    counts, fields)``: per line the predicate name and argument count, all
    lines' arguments in order, per line the '!' and '=LABEL' flags, the label
    text (or None) and the field count, and all lines' fields in order.
    Declines a block with an atom outside the grammar or a field that holds a
    delimiter, which no reader takes.
    """
    cls = _classes(block)
    seps = np.flatnonzero(cls <= _HASH)         # token ends, as str.translate sees them
    newlines = np.flatnonzero(cls == _NEWLINE)
    hashes = np.flatnonzero(cls == _HASH)
    if hashes.size:                     # a comment runs from a line's first '#' on
        ends = newlines[np.searchsorted(newlines, hashes)]
        first = np.diff(ends, prepend=-1) != 0
        toggles = np.zeros(len(cls), bool)
        toggles[hashes[first]] = toggles[ends[first]] = True
        cls = np.where(np.logical_xor.accumulate(toggles), _SPACE, cls)
    # word starts and stops alternate, as the block ends in a line break
    bounds = np.flatnonzero(np.diff(cls <= _NEWLINE, prepend=True))
    starts, stops = bounds[0::2], bounds[1::2]
    if not starts.size:
        return None
    head = np.flatnonzero(np.diff(np.searchsorted(newlines, starts), prepend=-1))
    a0, a1 = starts[head], stops[head]         # each line's first word: its atom
    opens, commas, equals, bangs, closes, others = (
        np.flatnonzero(cls == k) for k in (_OPEN, _COMMA, _EQUALS, _BANG, _CLOSE, _OTHER))
    m = len(head)
    if not len(opens) == len(closes) == m:
        raise Declined
    # In each atom: a symbol, then one '(', then symbols joined by single
    # commas, then one ')', then the atom's end or '=' and a symbol; a '!'
    # only first, and no other character.  A delimiter in a field breaks one
    # of these.
    comma_of = np.searchsorted(opens, commas) - 1
    other_of = np.searchsorted(a0, others, "right") - 1
    if not (np.all((a0 < opens) & (opens < closes) & (closes < a1)
                   & (cls[opens - 1] == _SYM)
                   & ((closes + 1 == a1) | (cls[closes + 1] == _EQUALS)))
            and np.all((comma_of >= 0) & (commas < closes[comma_of])
                       & (cls[commas - 1] == _SYM) & (cls[commas + 1] == _SYM))
            and np.all((cls[equals - 1] == _CLOSE) & (cls[equals + 1] == _SYM))
            and np.isin(bangs, a0, assume_unique=True).all()
            and not np.any((other_of >= 0) & (others < a1[other_of]))):
        raise Declined
    nargs = np.bincount(comma_of, minlength=m) + (closes > opens + 1)
    negated = np.zeros(m, bool)
    negated[np.searchsorted(a0, bangs)] = True
    named = np.zeros(m, bool)
    named[np.searchsorted(closes, equals - 1)] = True
    # the token at a position is the count of token ends before it
    tokens = np.array(block.translate(_TOKENS).split(","), object)
    name_at = np.searchsorted(seps, a0)
    arg_first = np.cumsum(nargs) - nargs
    arg_at = np.arange(arg_first[-1] + nargs[-1]) + np.repeat(name_at + 1 - arg_first, nargs)
    labels = np.full(m, None, object)
    labels[named] = tokens[np.searchsorted(seps, equals + 1)]
    return (tokens[name_at], nargs, tokens[arg_at], negated, named, labels,
            np.diff(head, append=len(starts)) - 1,
            tokens[np.searchsorted(seps, np.delete(starts, head))])


@dataclass
class AtomBlock:
    """The content lines of one block: per-line columns, and for each
    predicate present its line positions and (m, arity) entity indices."""

    codes: np.ndarray                 # position in the predicate dict, per line
    negated: np.ndarray               # per line: a leading '!'
    named: np.ndarray                 # per line: an '=LABEL' suffix
    labels: np.ndarray                # per line: the label text, or None
    counts: np.ndarray                # per line: whitespace-separated fields after the atom
    fields: np.ndarray                # those fields, in line order (object)
    groups: list[tuple[Predicate, np.ndarray, np.ndarray]]


def atom_blocks(text: str, predicates: dict[str, Predicate], entities):
    """Yield an ``AtomBlock`` for each ``BLOCK_LINES`` lines with content.

    Each block is read by ``_scan``.  Declines a block that ``_scan``
    declines, or with an undeclared predicate, a wrong argument count or an
    entity that ``entities`` cannot map.
    """
    preds = list(predicates.values())
    position = {p.name: i for i, p in enumerate(preds)}
    arity = np.array([p.arity for p in preds], dtype=np.intp)
    lines = text.splitlines()
    for start in range(0, len(lines), BLOCK_LINES):
        scanned = _scan("\n".join(lines[start:start + BLOCK_LINES]) + "\n")
        if scanned is None:
            continue
        names, nargs, args, negated, named, labels, counts, fields = scanned
        codes = np.fromiter(map(position.__getitem__, names), np.intp, len(names))
        if not np.array_equal(nargs, arity[codes]):
            raise Declined
        ids = np.fromiter(map(entities.__getitem__, args), np.int64, len(args))
        first = np.cumsum(nargs) - nargs
        groups = []
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            at = np.flatnonzero(codes == code)
            groups.append((preds[code], at, ids[first[at, None] + np.arange(arity[code])]))
        yield AtomBlock(codes, negated, named, labels, counts, fields, groups)


def first_rows(cells: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The first row of each distinct cell of an (m, arity) entity index
    array, in row order.  Declines when two rows of one cell hold different
    values."""
    _, first, inverse = np.unique(flat_cells(cells, n), return_index=True, return_inverse=True)
    if np.any(values != values[first][inverse]):
        raise Declined
    return np.sort(first)


def load_evidence(text: str, predicates, entities=None) -> KnowledgeBase:
    """Build a KnowledgeBase from evidence text and declared predicates."""
    preds = {p.name: p for p in (predicates.values() if isinstance(predicates, dict)
                                 else predicates)}
    seed = list(entities or ())
    if len(set(seed)) != len(seed):
        raise EvidenceError("duplicate entity names")
    return read_bulk(_bulk_evidence, _walk_evidence, text, preds, seed)


def _bulk_evidence(text: str, preds: dict[str, Predicate], seed: list) -> KnowledgeBase:
    """Observations as per-predicate arrays, first occurrence of each cell kept."""
    index = _Numbering(zip(seed, range(len(seed))))
    found: dict[str, list] = {}
    for block in atom_blocks(text, preds, index):
        if block.counts.any() or np.any(block.negated & block.named):
            raise Declined
        for pred, at, cells in block.groups:
            labels = np.where(block.negated[at], 0, 1)
            has = block.named[at]
            if pred.num_labels != 2 and not has.all():
                raise Declined
            labels[has] = [pred.label_index(label) for label in block.labels[at[has]]]
            found.setdefault(pred.name, []).append((cells, labels))
    observed = {}
    for name, parts in found.items():
        cells = np.concatenate([c for c, _ in parts])
        labels = np.concatenate([v for _, v in parts])
        keep = first_rows(cells, labels, len(index))
        observed[name] = (cells[keep], labels[keep])
    if not index:
        raise EvidenceError("empty entity domain: no entities seeded or observed")
    return KnowledgeBase(index, preds, observed)


def _walk_evidence(text: str, preds: dict[str, Predicate], seed: list) -> KnowledgeBase:
    """The per-line evidence reader; its errors name the first bad line."""
    index = _Numbering(zip(seed, range(len(seed))))
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


def load_queries(text: str, kb: KnowledgeBase) -> Queries:
    """Ground atoms to report, using the evidence atom syntax without !/=."""
    return read_bulk(_bulk_queries, _walk_queries, text, kb)


def _bulk_queries(text: str, kb: KnowledgeBase) -> Queries:
    lines = [np.empty(0, np.intp)]
    found = {name: [np.empty((0, p.arity), np.int64)] for name, p in kb.predicates.items()}
    for block in atom_blocks(text, kb.predicates, kb.index):
        if block.negated.any() or block.named.any() or block.counts.any():
            raise Declined
        lines.append(block.codes)
        for pred, _, cells in block.groups:
            found[pred.name].append(cells)
    return Queries(kb, np.concatenate(lines),
                   {name: np.concatenate(parts) for name, parts in found.items()})


def _walk_queries(text: str, kb: KnowledgeBase) -> list[GroundAtom]:
    """The per-line query reader; its errors name the first bad line."""
    out = []
    for lineno, line in content_lines(text):
        negated, pred, args, label = parse_atom(line, lineno, kb.predicates, kb.index)
        if negated or label is not None:
            raise EvidenceError(f"line {lineno}: queries are bare atoms")
        out.append(GroundAtom(pred, args))
    return out
