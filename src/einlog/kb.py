"""Knowledge base: entity domain, observed facts, and per-predicate masks.

Evidence files list one ground fact per line under the open-world assumption:
facts not listed are latent variables, not false.  Syntax (no whitespace
inside atoms, ``#`` comments)::

    friend(B,A)          # binary predicate observed true
    !friend(A,A)         # binary predicate observed false
    label(T3)=B-PER      # multi-class predicate fixed to a label

Entity constants are collected in first-occurrence order; an optional seed
list pins the leading indices.  ``KnowledgeBase`` alone decides the domain:
it may be empty only when no declared predicate takes an argument.

Evidence, query and unary-potential files are read in bulk, in blocks of
``BLOCK_LINES`` lines: ``atom_blocks`` checks the atom grammar of a block in
array passes over its characters' classes (the sequence of delimiters
``!``, ``(``, ``,``, ``)``, ``=`` and the gaps between them) and cuts it
into tokens as spans of positions, not strings.  Predicate and entity names
are found by a hashed lookup of their padded bytes, which matches only when
every byte is equal (``_Keys``), and fields become float64 values read from
their digits (``_numbers``), so no token becomes a Python object unless it
is a label or a number outside the fast path.  When a bulk reader declines
a text, ``read_bulk`` runs the reader's per-line walk, which goes through
``fol.content_lines`` and ``parse_atom`` and raises the first error in line
order, so each reader error starts with ``line N:``.

A block costs a fixed part, its few dozen array passes, and a part per line:
on ``transitivity``'s 32,768 query lines (``perfbench``, one BLAS thread,
2-CPU host, warm) about 0.16 ms per block plus 0.19 us per line, the latter
0.23 us in blocks of 16,384 lines.  Median cold set-up in fresh processes,
in ms (25 per size, seed 11)::

    lines per block  1,024  2,048  3,072  4,096  5,120  6,144  8,192  16,384
    transitivity     14.66  12.00  11.37  11.10  11.04  10.86  10.71  11.59
    kbc              23.51  19.07  18.30  17.75  17.16  17.16  18.57  20.71

``BLOCK_LINES`` is 4,096, the smallest size within 4% of the fastest on
both workloads.  Larger blocks save a few more fixed parts, and on ``kbc``
mostly by where a file's last block falls: at 4,096 its 16,409-line
evidence leaves a fifth block of 25 lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .fol import Predicate, RuleError, content_lines

_SYMBOL = r"[A-Za-z0-9_.-]+"
_SYMBOL_RE = re.compile(_SYMBOL)
ATOM_RE = re.compile(rf"^(?P<neg>!?)(?P<name>{_SYMBOL})"
                     rf"\((?P<args>(?:{_SYMBOL}(?:,{_SYMBOL})*)?)\)(?:=(?P<label>{_SYMBOL}))?$")

# Lines per bulk-read block (measured: see the module docstring).  Reading a
# whole file at once would keep every character's class and position arrays
# alive together.
BLOCK_LINES = 4096


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
    there.  ``entities`` may be empty only when every declared predicate
    has arity 0; otherwise the empty domain is an ``EvidenceError``.
    """

    def __init__(self, entities, predicates, observations):
        self.entities: tuple[str, ...] = tuple(entities)
        self.predicates: dict[str, Predicate] = dict(predicates)
        if not self.entities and any(p.arity for p in self.predicates.values()):
            raise EvidenceError("empty entity domain: no entities seeded or observed")
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

    @cached_property
    def entity_keys(self) -> _Keys:
        """The hashed key table the bulk readers look entity names up in."""
        return _Keys(self.entities)

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
            dtype = np.min_scalar_type(-pred.num_labels)
            shape = self.shape(pred)
            if len(observed):
                labels = np.full(self.n ** pred.arity, -1, dtype)
                labels[flat_cells(cells, self.n)] = observed
                labels = labels.reshape(shape)
                out[name] = ObservationMask(labels >= 0, labels)
            else:   # never observed: broadcast views of one value, no N^arity table
                out[name] = ObservationMask(np.broadcast_to(False, shape),
                                            np.broadcast_to(np.array(-1, dtype), shape))
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

def parse_atom(line: str, lineno: int, predicates: dict[str, Predicate], entity):
    """``(negated, predicate, args, label)`` of one atom line.

    ``entity`` maps an entity name to its index and raises KeyError for a
    name that is an unknown entity.  Every error names the line.
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
        args = tuple(map(entity, syms))
    except KeyError as exc:
        raise EvidenceError(f"line {lineno}: unknown entity {exc.args[0]!r}") from None
    return bool(negated), pred, args, label


class Declined(Exception):
    """A bulk reader met input it does not take; the per-line walk names it."""


# A bulk reader declines by raising one of these: its own signal, a number
# float() rejects, an unknown label.
_DECLINES = (Declined, ValueError, RuleError)


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


# Character classes of the bulk readers; a class up to _NEWLINE separates words.
_SPACE, _NEWLINE, _OPEN, _COMMA, _EQUALS, _HASH, _SYM, _BANG, _CLOSE, _OTHER = range(10)
# No code point above U+3000 is whitespace, so the last entry stands for them all.
_CLASS = np.full(0x3002, _OTHER, np.uint8)
_CLASS[[i for i in range(0x3001) if chr(i).isspace()]] = _SPACE
_CLASS[[i for i in range(128) if re.fullmatch(_SYMBOL, chr(i))]] = _SYM
_CLASS[list(b"\n(,=#!)")] = [_NEWLINE, _OPEN, _COMMA, _EQUALS, _HASH, _BANG, _CLOSE]
_ASCII_CLASS = _CLASS[:256].tobytes()


def _classes(block: str):
    """A ``_window`` over the character codes of ``block`` (0 for a
    character outside ASCII), and the class of each character."""
    if block.isascii():
        raw = block.encode("ascii")
        return (_window(np.frombuffer(raw + bytes(8), np.uint8)),
                np.frombuffer(raw.translate(_ASCII_CLASS), np.uint8))
    codes = np.frombuffer(block.encode("utf-32-le"), "<u4")
    chars = np.zeros(len(codes) + 8, np.uint8)
    np.copyto(chars[:len(codes)], codes, casting="unsafe", where=codes < 128)
    return _window(chars), _CLASS[np.minimum(codes, len(_CLASS) - 1)]


def _window(chars: np.ndarray) -> np.ndarray:
    """Each run of 8 bytes of ``chars`` (which ends in 8 zero bytes) as a
    little-endian uint64, indexed by the position of its first byte."""
    return np.ndarray((len(chars) - 7,), "<u8", chars, 0, (1,))


# _MASKS[k] keeps the first k bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _words(win: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """The (m, width) little-endian uint64 key of each token at ``starts``:
    its bytes, zero-padded (or cut) to ``8 * width``."""
    out = np.empty((len(starts), width), "<u8")
    for k in range(width):
        at, rest = starts, np.minimum(lengths, 8)
        if k:                           # past a token's last word: no bytes
            at = np.minimum(starts + 8 * k, len(win) - 1)
            rest = np.clip(lengths - 8 * k, 0, 8)
        np.bitwise_and(win[at], _MASKS[rest], out=out[:, k])
    return out


# Odd multipliers of a key's words, used in turn: a key hashes to the sum of
# its words times theirs, so zero words past its end add nothing, and
# widening the table moves no key.
_MULTIPLIER = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                        0xD6E8FEB86659FD93], np.uint64)


def _slots(size: int) -> int:
    """The slots of a key table for ``size`` names: the smallest power of
    two of at least 256 and ``4 * size``."""
    return 1 << max(8, (4 * size - 1).bit_length())


class _Keys:
    """Names, and an open-addressing hash table to look tokens up among
    them exactly.

    A key is a name's bytes, zero-padded to ``8 * width`` and read as
    ``width`` uint64 words (``_words``): one word holds a name of up to 8
    bytes.  Only symbols can be tokens, so the table holds the names that
    are symbols, and a symbol is not empty and has no zero byte, so no key
    equals the zero words of an empty slot.  A token's home slot is the top
    bits of its hash; it probes on from there, one slot at a time, until a
    slot holds its key or is empty.  A token matches a name only when every
    word is equal, so the hash decides no match: a set of names whose hashes
    collide only lengthens the probes.  The table is at most a quarter full
    and has at least 256 slots, so most tokens, and those of a few predicate
    names, find their name at its home slot.

    A token that matches no name declines its block; with ``grow`` it is
    added instead, numbered after the names in first-occurrence order.  A
    block's new names are claimed into the table as it stands, unless its
    missing tokens, duplicates included, could fill more than a quarter of
    it; then they are claimed into a table with room for them all, which is
    rebuilt after the claim at the size its names need (``_slots``).
    """

    def __init__(self, names, grow: bool = False):
        self.names = list(names)
        self.grow = grow
        kept = [i for i, name in enumerate(self.names) if _SYMBOL_RE.fullmatch(name)]
        lengths = np.fromiter((len(self.names[i]) for i in kept), np.intp, len(kept))
        raw = "".join(self.names[i] for i in kept).encode("ascii") + bytes(8)
        words = _words(_window(np.frombuffer(raw, np.uint8)), np.cumsum(lengths) - lengths,
                       lengths, max(1, -(-int(lengths.max(initial=0)) // 8)))
        self._build(words, np.array(kept, np.intp), len(kept))

    def _build(self, words: np.ndarray, ids: np.ndarray, size: int) -> None:
        """A new table with room for ``size`` names (``_slots(size)``
        slots) that holds the distinct keys ``words`` with their name
        indices ``ids``."""
        slots = _slots(size)
        self.ids = np.full(slots, -1, np.intp)      # name index per slot, -1 if empty
        self.keys = np.zeros((words.shape[1], slots), np.uint64)
        self._shift = 64 - (slots - 1).bit_length()
        self.ids[self._probe(words, claim=True)] = ids

    def _probe(self, words: np.ndarray, claim: bool = False) -> np.ndarray:
        """The slot of each row of ``words`` (an (m, width) key array), or -1
        where its key is not in the table.  With ``claim`` a key not in the
        table takes the first empty slot it probes, shared by the rows that
        hold it; a claimed slot's id is left below -1 for the caller to set.
        """
        # each key's hash, kept on arrays, which wrap where a scalar would warn
        hashed = words[:, 0] * _MULTIPLIER[0]
        for k in range(1, words.shape[1]):
            hashed += words[:, k] * _MULTIPLIER[k % len(_MULTIPLIER)]
        slot = (hashed >> self._shift).astype(np.intp)
        at = np.full(len(words), -1, np.intp)
        pending, rows = np.arange(len(words)), words
        while len(pending):
            if claim and (free := np.flatnonzero(self.ids[slot] == -1)).size:
                # one row at each empty slot takes it; the key written is its own
                self.ids[slot[free]] = -2 - pending[free]
                won = free[self.ids[slot[free]] == -2 - pending[free]]
                self.keys[:, slot[won]] = rows[won].T
            hit = self.keys[0][slot] == rows[:, 0]
            for k in range(1, len(self.keys)):
                hit &= self.keys[k][slot] == rows[:, k]
            at[pending[hit]] = slot[hit]
            go = np.flatnonzero(~hit)
            go = go[self.ids[slot[go]] != -1]       # an empty slot ends a probe
            pending, rows, slot = pending[go], rows[go], (slot[go] + 1) & (len(self.ids) - 1)
        return at

    def index(self, block: str, win: np.ndarray, starts: np.ndarray,
              stops: np.ndarray) -> np.ndarray:
        """The name index of each token ``block[start:stop]``."""
        lengths = stops - starts
        width = -(-int(lengths.max(initial=0)) // 8)
        if width > len(self.keys):
            if not self.grow:
                raise Declined
            self.keys = np.pad(self.keys, ((0, width - len(self.keys)), (0, 0)))
        words = _words(win, starts, lengths, len(self.keys))
        at = self._probe(words)
        out = self.ids[at]
        miss = np.flatnonzero(at < 0)
        if len(miss):
            if not self.grow:
                raise Declined
            out[miss] = self._add(block, starts[miss], stops[miss], words[miss])
        return out

    def _rebuild(self, size: int) -> None:
        """The table's names in a new table with room for ``size`` names."""
        full = np.flatnonzero(self.ids >= 0)
        self._build(self.keys[:, full].T, self.ids[full], size)

    def _add(self, block, starts, stops, words) -> np.ndarray:
        """The name index of each token at ``starts``, whose names are not
        in the table, after adding those names in first-occurrence order."""
        # the rows' names are told apart only by claiming them, so the claim
        # needs room for every row to be a new name
        size = len(self.names) + len(words)
        if 4 * size > len(self.ids):
            self._rebuild(size)
        slots = self._probe(words, claim=True)
        # each claimed slot keeps -2 - (the first row of its name)
        rows = np.arange(len(slots))
        np.maximum.at(self.ids, slots, -2 - rows)
        heads = np.flatnonzero(self.ids[slots] == -2 - rows)
        self.ids[slots[heads]] = len(self.names) + np.arange(len(heads))
        self.names += [block[s:e] for s, e in zip(starts[heads].tolist(), stops[heads].tolist())]
        out = self.ids[slots]
        if len(self.ids) > _slots(len(self.names)):
            self._rebuild(len(self.names))
        return out


# A field of at most _NUMBER_CHARS characters that reads [+-]?digits[.digits]
# or [+-]?.digits, with at most 15 significant digits and 22 after the point,
# is read from its character codes.  Its digits as an integer m < 10^15 < 2^53,
# and 10^frac, are exact float64 values, so m / 10^frac is the correctly
# rounded value, float(text) bit for bit (Clinger, "How to read floating point
# numbers accurately", PLDI 1990).
_NUMBER_CHARS = 24
# 10^k for k <= 22, then -10^k
_POW10 = np.array([float(10 ** k) for k in range(23)] * 2) * np.repeat([1, -1], 23)


def _numbers(block: str, win: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``float(block[start:stop])`` of each field; ValueError when one is no
    number.  A field outside the fast path above goes through ``float``."""
    values = np.empty(len(starts))
    if not len(starts):
        return values
    lengths = stops - starts
    width = min(int(lengths.max()), _NUMBER_CHARS)
    # one row per character position, one column per field; 0 past a field's end
    chars = np.ascontiguousarray(_words(win, starts, lengths, -(-width // 8))
                                 .view(np.uint8)[:, :width].T)
    digit = chars - np.uint8(ord("0"))         # a character that is no digit wraps past 9
    is_digit = digit < 10
    is_point = chars == ord(".")
    digit *= is_digit
    scale = 1 + 9 * is_digit.view(np.int8)
    # running over the rows: the digit count, the digits after a point, the
    # point count, and the digits as a number (float64: exact below 2^53, and
    # from 10^15 on it only has to stay there)
    digits, frac, points = np.zeros((3, len(starts)), np.int8)
    mantissa = np.zeros(len(starts))
    for row in range(width):
        digits += is_digit[row]
        frac += is_digit[row] * (points > 0)
        points += is_point[row]
        mantissa *= scale[row]
        mantissa += digit[row]
    negative = chars[0] == ord("-")
    # counted characters are no more than width, so a longer field fails the sum
    fast = ((digits + points + (negative | (chars[0] == ord("+"))) == lengths)
            & (digits > 0) & (points <= 1) & (frac <= 22) & (mantissa < 1e15))
    # m / -10^k is -(m / 10^k), and -0.0 for m = 0, as float("-0") is
    np.divide(mantissa, _POW10[np.minimum(frac, 22) + len(_POW10) // 2 * negative], out=values)
    slow = np.flatnonzero(~fast)
    values[slow] = [float(block[s:e]) for s, e in zip(starts[slow].tolist(),
                                                      stops[slow].tolist())]
    return values


def _scan(block: str):
    """The atom lines of ``block``, a text of lines joined and ended by "\\n",
    or None when no line has content.

    Lines, comments and whitespace are read as ``fol.content_lines`` and
    ``str.split`` read them: a line's first word is its atom, the words after
    it are its fields.  Returns ``(win, names, nargs, args, negated, named,
    labels, counts, fields)``: the block's ``_window``; per line the span of
    the predicate name and the argument count; the spans of all lines'
    arguments in order; per line the '!' and '=LABEL' flags; the spans of the
    labels of the lines that have one; per line the field count; and the
    spans of all lines' fields in order.  A span is a ``(starts, stops)`` pair
    of arrays of positions in ``block``.  Declines a block with an atom
    outside the grammar or a field that holds a delimiter, which no reader
    takes.
    """
    win, cls = _classes(block)
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
    has_args = closes > opens + 1
    nargs = np.bincount(comma_of, minlength=m) + has_args
    negated = np.zeros(m, bool)
    negated[np.searchsorted(a0, bangs)] = True
    named = np.zeros(m, bool)
    named[np.searchsorted(closes, equals - 1)] = True
    # an argument runs from just after a '(' or ',' to the next ',' or ')'
    args = (np.sort(np.concatenate([opens[has_args], commas])) + 1,
            np.sort(np.concatenate([commas, closes[has_args]])))
    fields = np.ones(len(starts), bool)
    fields[head] = False
    return (win, (a0 + negated, opens), nargs, args, negated, named,
            (equals + 1, a1[named]), np.diff(head, append=len(starts)) - 1,
            (starts[fields], stops[fields]))


@dataclass
class AtomBlock:
    """The content lines of one block: per-line columns, and for each
    predicate present its line positions and (m, arity) entity indices."""

    codes: np.ndarray                 # position in the predicate dict, per line
    negated: np.ndarray               # per line: a leading '!'
    named: np.ndarray                 # per line: an '=LABEL' suffix
    labels: np.ndarray                # per line: the label's index, or -1
    counts: np.ndarray                # per line: whitespace-separated fields after the atom
    values: np.ndarray                # those fields as float64, in line order
    groups: list[tuple[Predicate, np.ndarray, np.ndarray]]


# the line breaks str.splitlines honours besides "\n"
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _blocks(text: str):
    """Each ``BLOCK_LINES`` lines of ``text``, as ``str.splitlines`` cuts
    them, joined and ended by "\\n".  A text with another break is first
    rejoined by "\\n"; then it is cut at the offsets of every
    ``BLOCK_LINES``-th "\\n"."""
    if any(ch in text for ch in _BREAKS):
        text = "\n".join(text.splitlines()) + "\n"
    codes = (np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii()
             else np.frombuffer(text.encode("utf-32-le"), "<u4"))
    cuts = (np.flatnonzero(codes == 10)[BLOCK_LINES - 1::BLOCK_LINES] + 1).tolist()
    start = 0
    for stop in cuts:
        yield text[start:stop]
        start = stop
    if start < len(text):
        yield text[start:] if text.endswith("\n") else text[start:] + "\n"


def atom_blocks(text: str, predicates: dict[str, Predicate], entities: _Keys):
    """Yield an ``AtomBlock`` for each ``BLOCK_LINES`` lines with content.

    Each block is read by ``_scan``, and its names are looked up by key.
    Declines a block that ``_scan`` declines, or with an undeclared
    predicate, a wrong argument count, an entity that ``entities`` cannot
    number, an unknown label or a field that is no number.
    """
    preds = list(predicates.values())
    names = _Keys([p.name for p in preds])
    arity = np.array([p.arity for p in preds], dtype=np.intp)
    for block in _blocks(text):
        scanned = _scan(block)
        if scanned is None:
            continue
        win, name_spans, nargs, arg_spans, negated, named, label_spans, counts, fields = scanned
        codes = names.index(block, win, *name_spans)
        if not np.array_equal(nargs, arity[codes]):
            raise Declined
        ids = entities.index(block, win, *arg_spans)
        labels = np.full(len(codes), -1, np.intp)
        at = np.flatnonzero(named)
        labels[at] = [preds[code].label_index(block[s:e]) for code, s, e in zip(
            codes[at].tolist(), *(span.tolist() for span in label_spans))]
        first = np.cumsum(nargs) - nargs
        groups = []
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            at = np.flatnonzero(codes == code)
            groups.append((preds[code], at, ids[first[at, None] + np.arange(arity[code])]))
        yield AtomBlock(codes, negated, named, labels, counts,
                        _numbers(block, win, *fields), groups)


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
    keys = _Keys(seed, grow=True)
    found: dict[str, list] = {}
    for block in atom_blocks(text, preds, keys):
        if block.counts.any() or np.any(block.negated & block.named):
            raise Declined
        for pred, at, cells in block.groups:
            has = block.named[at]
            if pred.num_labels != 2 and not has.all():
                raise Declined
            labels = np.where(has, block.labels[at], ~block.negated[at])
            found.setdefault(pred.name, []).append((cells, labels))
    observed = {}
    for name, parts in found.items():
        cells = np.concatenate([c for c, _ in parts])
        labels = np.concatenate([v for _, v in parts])
        keep = first_rows(cells, labels, len(keys.names))
        observed[name] = (cells[keep], labels[keep])
    return KnowledgeBase(keys.names, preds, observed)


def _walk_evidence(text: str, preds: dict[str, Predicate], seed: list) -> KnowledgeBase:
    """The per-line evidence reader; its errors name the first bad line.
    Entities are numbered after the seed in first-occurrence order."""
    index = dict(zip(seed, range(len(seed))))
    observations: dict[tuple[str, tuple[int, ...]], int] = {}
    for lineno, line in content_lines(text):
        negated, pred, args, label_sym = parse_atom(
            line, lineno, preds, lambda name: index.setdefault(name, len(index)))
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
    return KnowledgeBase(index, preds, observations)


def load_queries(text: str, kb: KnowledgeBase) -> Queries:
    """Ground atoms to report, using the evidence atom syntax without !/=."""
    return read_bulk(_bulk_queries, _walk_queries, text, kb)


def _bulk_queries(text: str, kb: KnowledgeBase) -> Queries:
    lines = [np.empty(0, np.intp)]
    found = {name: [np.empty((0, p.arity), np.int64)] for name, p in kb.predicates.items()}
    for block in atom_blocks(text, kb.predicates, kb.entity_keys):
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
        negated, pred, args, label = parse_atom(line, lineno, kb.predicates, kb.index.__getitem__)
        if negated or label is not None:
            raise EvidenceError(f"line {lineno}: queries are bare atoms")
        out.append(GroundAtom(pred, args))
    return out
