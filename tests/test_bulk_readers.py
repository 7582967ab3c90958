"""The bulk readers against the per-line walks they fall back on.

Every evidence, query and unary text must give the same result from the
bulk reader as from the per-line walk, or the same error string.  Small
block sizes put block edges between the lines, so a first error in a later
block must still carry its own line number.  The prediction and truth
readers read line by line; each stands in the tables below as its own walk,
and a truth text read as evidence must give what the truth reader reads.
"""

import itertools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einlog import io, kb
from einlog.fol import Predicate, parse_rules
from einlog.kb import EvidenceError, KnowledgeBase, load_evidence, load_queries

PREDS = {p.name: p for p in [
    Predicate("active", 0), Predicate("smoke", 1), Predicate("friend", 2),
    Predicate("tri", 3), Predicate("tag", 1, 3, ("O", "B", "I")), Predicate("kind", 1, 3)]}
ENTITIES = ["E2", "E10", "A", "B"]
CELLS = [(p, args) for p in PREDS.values()
         for args in itertools.product(ENTITIES, repeat=p.arity)]
BINARY_CELLS = [(p, args) for p, args in CELLS if p.num_labels == 2]
GOOD_LOGITS = ["0", "1.5", "-2e-3", ".5", "+3", "1E2", "1_0", "-0"]
BAD_LOGITS = ["x", "nan", "inf", "-inf", "1e400", "1,5", "--1"]
SPACES = [" ", "\t", "\xa0", "  "]


def _atom(pred, args, neg="", label=""):
    return f"{neg}{pred.name}({','.join(args)}){label}"


def _label_suffix(draw, pred):
    if pred.label_names is not None:
        return "=" + draw(st.sampled_from(pred.label_names))
    if pred.num_labels > 2:
        return "=" + draw(st.sampled_from(["0", "1", "2", "01"]))
    return draw(st.sampled_from(["", "", "!", "=0", "=1"]))


def _cells(reader):
    """The cells a good line of ``reader`` may name: truth atoms are binary."""
    return BINARY_CELLS if reader == "truth" else CELLS


def _good_line(draw, reader, pred, args):
    if reader == "queries":
        return _atom(pred, args)
    if reader == "predictions":
        return _atom(pred, args) + draw(st.sampled_from(SPACES)) + draw(
            st.sampled_from(GOOD_LOGITS))
    if reader == "truth":
        return draw(st.sampled_from(["", "!"])) + _atom(pred, args)
    if reader == "unary":
        values = draw(st.lists(st.sampled_from(GOOD_LOGITS),
                               min_size=pred.num_labels, max_size=pred.num_labels))
        seps = draw(st.lists(st.sampled_from(SPACES), min_size=len(values),
                             max_size=len(values)))
        return _atom(pred, args) + "".join(s + v for s, v in zip(seps, values))
    suffix = _label_suffix(draw, pred)
    return _atom(pred, args, neg="!" if suffix == "!" else "",
                 label="" if suffix == "!" else suffix)


def _bad_lines(reader, pred, args, good):
    """Every kind of bad line for ``reader``, built from one cell and its good line."""
    shapes = [
        "ghost(A)", _atom(pred, args + ("A",)), good.replace("(", "( ", 1),
        good.replace(")", ",)", 1), good.replace("(", "(,", 1), good.replace(")", "", 1),
        good + "x", _atom(pred, ("Q",) * pred.arity), "!" + _atom(pred, args, label="=1"),
        _atom(pred, args, label="=X"), _atom(pred, args, label="=5"),
    ]
    if pred.arity:
        shapes.append(_atom(pred, args[1:]))
        shapes.append(_atom(pred, args).replace(",", ",,", 1) if pred.arity > 1
                      else _atom(pred, ("",)))
    if reader == "evidence":
        shapes.append(_atom(pred, args))                      # '=LABEL' missing if multi-class
        # each conflicts with the good line when that comes first
        shapes += ["!" + _atom(pred, args),
                   _atom(pred, args, label="=" + pred.label_name(pred.num_labels - 1))]
    if reader == "queries":
        shapes += ["!" + good, good + "=1", good + " 0"]
    if reader in ("unary", "predictions"):
        head = good.rsplit(None, 1)[0]
        shapes += [good + " 0", head, "!" + good, _atom(pred, args) + "=0 0 0",
                   _atom(pred, args)]
        shapes += [f"{head}{space}{value}" for space in SPACES[:2] for value in BAD_LOGITS]
    if reader == "truth":
        # a multi-class atom, fields, and a conflict with the good line when
        # that comes first
        shapes += [_atom(PREDS["tag"], ("A",)), good + " 1", good + " x",
                   good[1:] if good.startswith("!") else "!" + good]
    return shapes


def _decorated(draw, line):
    lead = draw(st.sampled_from(["", "", " ", "\t", "\xa0"]))
    trail = draw(st.sampled_from(["", "", " ", "\t", "\xa0", "  # note", "#x"]))
    return lead + line + trail


@st.composite
def reader_texts(draw, reader):
    """A block size and a text of good lines, comments and blanks, with up to
    two bad lines (most often one, so that each kind of bad line is met alone)."""
    cells = _cells(reader)
    picks = draw(st.lists(st.integers(0, len(cells) - 1), max_size=30,
                          unique=draw(st.booleans())))
    lines = []
    for i in picks:
        lines.append(_decorated(draw, _good_line(draw, reader, *cells[i])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "\t#", "\xa0"])))
    if lines and draw(st.booleans()):
        lines.append(lines[draw(st.integers(0, len(lines) - 1))])   # a repeated line
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        pred, args = cells[draw(st.integers(0, len(cells) - 1))]
        bad = draw(st.sampled_from(_bad_lines(reader, pred, args,
                                              _good_line(draw, reader, pred, args))))
        lines.insert(draw(st.integers(0, len(lines))), _decorated(draw, bad))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    block = draw(st.sampled_from([1, 2, 3, 5, kb.BLOCK_LINES]))
    return block, newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(read, *args):
    try:
        got = read(*args)
    except EvidenceError as exc:
        return "error", str(exc)
    if isinstance(got, KnowledgeBase):
        return "ok", (got.entities, dict(got.observations),
                      {name: (c.tolist(), v.tolist()) for name, (c, v) in got.observed.items()})
    if isinstance(got, io.UnaryTable):
        return "ok", {name: t.tolist() for name, t in got.tables.items()}
    if isinstance(got, dict):
        return "ok", got
    return "ok", [(a.predicate.name, a.args) for a in got]


def _assert_same(block, bulk, walk, *args):
    with mock.patch.object(kb, "BLOCK_LINES", block):
        assert _outcome(bulk, *args) == _outcome(walk, *args)


SEEDED = KnowledgeBase(ENTITIES, PREDS, {})
READERS = {  # reader -> (bulk, walk), both taking the text
    "evidence": (lambda t: load_evidence(t, PREDS), lambda t: kb._walk_evidence(t, PREDS, [])),
    "queries": (lambda t: load_queries(t, SEEDED), lambda t: kb._walk_queries(t, SEEDED)),
    "unary": (lambda t: io.load_unary(t, SEEDED), lambda t: io._walk_unary(t, SEEDED)),
    "predictions": (lambda t: io.load_predictions(t, SEEDED),
                    lambda t: io.load_predictions(t, SEEDED)),
    "truth": (lambda t: io.load_truth(t, SEEDED), lambda t: io.load_truth(t, SEEDED)),
}
PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(reader_texts("evidence"), st.sampled_from([[], ["E10", "E2"], ENTITIES]))
def test_bulk_evidence_matches_line_walk(case, seed):
    block, text = case
    _assert_same(block, lambda t: load_evidence(t, PREDS, seed),
                 lambda t: kb._walk_evidence(t, PREDS, seed), text)


@PROPERTY
@given(reader_texts("queries"))
def test_bulk_queries_match_line_walk(case):
    _assert_same(case[0], *READERS["queries"], case[1])


@PROPERTY
@given(reader_texts("unary"))
def test_bulk_unary_matches_line_walk(case):
    _assert_same(case[0], *READERS["unary"], case[1])


@PROPERTY
@given(reader_texts("truth").filter(lambda case: "=" not in case[1]))
def test_truth_read_as_evidence_is_what_the_truth_reader_reads(case):
    # einlog aucpr takes its truth from the evidence read of a text without '='
    block, text = case
    with mock.patch.object(kb, "BLOCK_LINES", block):
        try:
            base = load_evidence(text, PREDS)
        except EvidenceError:
            return
    assert {key: label == 1 for key, label in base.observations.items()} == \
        io.load_truth(text, base)


def _plain_good_line(reader, pred, args):
    if reader == "unary":
        return _atom(pred, args) + " 0.5" * pred.num_labels
    if reader == "predictions":
        return _atom(pred, args) + " 0.5"
    if reader == "evidence" and pred.num_labels > 2:
        return _atom(pred, args, label="=" + pred.label_name(0))
    return _atom(pred, args)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_kind_of_bad_line_alone_gets_the_walk_error(reader):
    preds = [p for p in PREDS.values() if reader != "truth" or p.num_labels == 2]
    others = [_plain_good_line(reader, p, tuple((ENTITIES[2:] + ENTITIES)[:p.arity]))
              for p in preds if p.arity]
    assert _outcome(READERS[reader][0], "\n".join(others))[0] == "ok"
    for pred in preds:
        args = tuple(ENTITIES[:pred.arity])
        good = _plain_good_line(reader, pred, args)
        # evidence and truth repeat a cell to conflict; a repeated unary cell
        # or prediction would be the first error itself
        first = [good] if reader in ("evidence", "truth") else []
        for bad in _bad_lines(reader, pred, args, good):
            text = "\n".join(others[:2] + first + [bad] + others[2:])
            for block in (1, kb.BLOCK_LINES):
                _assert_same(block, *READERS[reader], text)


def test_first_error_in_a_later_block_names_its_line():
    n = kb.BLOCK_LINES + 600
    preds = {name: PREDS[name] for name in ("smoke", "friend")}
    base = KnowledgeBase([f"E{i}" for i in range(n + 1)], preds, {})
    cases = {
        "evidence": ([f"friend(E{i},E{i + 1})" for i in range(n)], "",
                     lambda t: load_evidence(t, preds)),
        "queries": ([f"smoke(E{i})" for i in range(n)], "", lambda t: load_queries(t, base)),
        "unary": ([f"smoke(E{i}) 1 -1" for i in range(n)], " 0 0",
                  lambda t: io.load_unary(t, base)),
        "predictions": ([f"smoke(E{i}) 0.5" for i in range(n)], " 0",
                        lambda t: io.load_predictions(t, base)),
        "truth": ([f"{'!' * (i % 2)}smoke(E{i})" for i in range(n)], "",
                  lambda t: io.load_truth(t, base)),
    }
    bad_at = kb.BLOCK_LINES + 57
    for reader, (lines, tail, read) in cases.items():
        read("\n".join(lines))
        text = "\n".join(lines[:bad_at - 1] + ["friend(A,,B)" + tail] + lines[bad_at - 1:])
        with pytest.raises(EvidenceError) as err:
            read(text)
        assert str(err.value) == f"line {bad_at}: malformed atom 'friend(A,,B)'", reader


def test_bulk_unary_tables_are_label_plane():
    # a listed predicate's table is label-plane; one no line lists is a
    # read-only zero whose every stride is 0
    phi = io.load_unary("friend(A,B) 1 2\nactive() 0 3\n", SEEDED)
    assert phi.tables["friend"][2, 3].tolist() == [1.0, 2.0]
    assert phi.tables["active"].tolist() == [0.0, 3.0]
    assert np.count_nonzero(phi.tables["friend"]) == 2
    for name in ("friend", "active"):
        assert phi.tables[name][..., 0].flags.c_contiguous
    for name in PREDS.keys() - {"friend", "active"}:
        table, pred = phi.tables[name], PREDS[name]
        assert table.shape == SEEDED.shape(pred) + (pred.num_labels,)
        assert not table.flags.writeable and set(table.strides) <= {0}
        assert not table.any()


SHAPE_PREDS = {p.name: p for p in [Predicate("rel", 2), Predicate("kind", 1, 2, ("K0", "K1"))]}
SHAPE_KB = KnowledgeBase(["A", "B"], SHAPE_PREDS, {})
SHAPE_READERS = {
    "evidence": (lambda t: load_evidence(t, SHAPE_PREDS),
                 lambda t: kb._walk_evidence(t, SHAPE_PREDS, [])),
    "queries": (lambda t: load_queries(t, SHAPE_KB), lambda t: kb._walk_queries(t, SHAPE_KB)),
    "unary": (lambda t: io.load_unary(t, SHAPE_KB), lambda t: io._walk_unary(t, SHAPE_KB)),
    "predictions": (lambda t: io.load_predictions(t, SHAPE_KB),
                    lambda t: io.load_predictions(t, SHAPE_KB)),
    "truth": (lambda t: io.load_truth(t, SHAPE_KB), lambda t: io.load_truth(t, SHAPE_KB)),
}
FIELDS = {"unary": " 0 0", "predictions": " 0"}


@pytest.mark.parametrize("reader", sorted(SHAPE_READERS))
@pytest.mark.parametrize("shape", ["rel(A,B)=", "!!rel(A,B)", "rel((A,B))", "rel(A,B))", "(A,B)",
                                   "kind(A)=K0=K1", "rél(A)", "rel(A)B", "rel(A,B)=K0("])
def test_each_bad_delimiter_shape_gets_the_walk_error(reader, shape):
    logits = FIELDS.get(reader, "")
    text = "\n".join(["rel(B,A)" + logits, shape + logits, "kind(B)" + logits])
    bulk, walk = SHAPE_READERS[reader]
    assert _outcome(walk, text) == ("error", f"line 2: malformed atom {shape!r}")
    for block in (1, kb.BLOCK_LINES):
        _assert_same(block, bulk, walk, text)


def _multi_block_lines(reader):
    """Entities, and more than three blocks of lines of every arity, read
    form and separator over them, in an order that mixes predicates within
    each block.  The entity count is the smallest whose friend and tri
    cells alone exceed three blocks."""
    n = next(n for n in itertools.count(1) if n * n + n ** 3 // 16 > 3 * kb.BLOCK_LINES)
    entities = [f"E{i}" for i in range(n)]
    cells = [(p, args) for p in PREDS.values() if p.arity < 3
             and (reader != "truth" or p.num_labels == 2)
             for args in itertools.product(entities, repeat=p.arity)]
    cells += list(itertools.product([PREDS["tri"]], itertools.product(entities, repeat=3)))[::16]
    cells = [cells[i * 7919 % len(cells)] for i in range(len(cells))]   # 7919 is prime
    lines = []
    for i, (pred, args) in enumerate(cells):
        atom = _atom(pred, args)
        if reader == "evidence":
            if pred.label_names is not None:
                atom += "=" + pred.label_names[i % 3]
            elif pred.num_labels > 2:
                atom += f"={i % pred.num_labels}"
            else:
                atom = ["!" + atom, atom, atom + "=0", atom + "=1"][i % 4]
        elif reader == "unary":
            seps = [" ", "\t", "\xa0", " \t"]
            atom += "".join(f"{seps[(i + k) % 4]}{(i * 3 + k) % 11 - 5}.{k}5"
                            for k in range(pred.num_labels))
        elif reader == "predictions":
            atom += [" ", "\t", "\xa0", " \t"][i % 4] + f"{(i * 3) % 11 - 5}.{i % 7}5"
        elif reader == "truth":
            atom = "!" * (i % 3 == 1) + atom
        lines.append(["", " ", "\t", "\xa0"][i % 4 if i % 3 == 0 else 0] + atom
                     + ("  # note" if i % 5 == 0 else ""))
        if i % 13 == 0:
            lines.append("" if i % 2 else "# a comment line")
        if reader not in ("unary", "predictions") and i % 50 == 49:
            lines.append(lines[-40])          # a repeated line
    return entities, lines


@pytest.mark.parametrize("reader", sorted(READERS))
def test_multi_block_text_at_default_block_size_matches_the_walk(reader):
    entities, lines = _multi_block_lines(reader)
    assert len(lines) > 3 * kb.BLOCK_LINES
    text = "\r\n".join(lines) + "\r\n"
    wide = KnowledgeBase(entities, PREDS, {})
    bulk, walk = {
        "evidence": (lambda t: load_evidence(t, PREDS),
                     lambda t: kb._walk_evidence(t, PREDS, [])),
        "queries": (lambda t: load_queries(t, wide), lambda t: kb._walk_queries(t, wide)),
        "unary": (lambda t: io.load_unary(t, wide), lambda t: io._walk_unary(t, wide)),
        "predictions": (lambda t: io.load_predictions(t, wide),
                        lambda t: io.load_predictions(t, wide)),
        "truth": (lambda t: io.load_truth(t, wide), lambda t: io.load_truth(t, wide)),
    }[reader]
    got = _outcome(bulk, text)
    assert got[0] == "ok"
    assert got == _outcome(walk, text)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [11, 3])
@pytest.mark.parametrize("make, n", [("make_kbc", 24), ("make_transitivity", 48)])
def test_benchmark_inputs_read_the_same_at_every_block_size(workloads, make, n, seed):
    # the benchmark's set-up of its evidence, unary and query texts
    inst = getattr(workloads, make)(seed, n)
    runs = []
    for block in (1, 7, 2048, 4096):
        with mock.patch.object(kb, "BLOCK_LINES", block):
            runs.append(workloads.setup(inst, inst.texts.__getitem__))
    first = runs[0]
    assert len(first.queries) > 0 and first.kb.n == n
    for run in runs[1:]:
        assert run.kb.entities == first.kb.entities
        assert run.kb.observed.keys() == first.kb.observed.keys()
        for name, arrays in first.kb.observed.items():
            assert all(map(_same_bytes, run.kb.observed[name], arrays)), name
        assert run.phi.tables.keys() == first.phi.tables.keys()
        for name, table in first.phi.tables.items():
            assert _same_bytes(run.phi.tables[name], table), name
        assert _same_bytes(run.queries._lines, first.queries._lines)
        assert run.queries.cells.keys() == first.queries.cells.keys()
        for name, cells in first.queries.cells.items():
            assert _same_bytes(run.queries.cells[name], cells), name


@pytest.mark.parametrize("block", [7, kb.BLOCK_LINES])
def test_grown_key_table_is_sized_by_its_names(workloads, block):
    # kbc's evidence: each block repeats its 128 names many times over
    inst = workloads.make_kbc(11)
    rules = parse_rules(inst.texts["rules"])
    keys = kb._Keys([], grow=True)
    with mock.patch.object(kb, "BLOCK_LINES", block):
        for _ in kb.atom_blocks(inst.texts["evidence"], rules.predicates, keys):
            want = 256
            while want < 4 * len(keys.names):
                want *= 2
            assert len(keys.ids) == want
    assert len(keys.names) == 128


SCAN_PIECES = ["p", "A", "!", "(", ")", ",", "=", " ", "\xa0", "#", "é", "+1", "p(A)", "()"]


@st.composite
def scan_lines(draw):
    """An atom line with fields and a comment, with up to three pieces
    inserted or characters deleted."""
    sym = st.sampled_from(["p", "A", "p.A", "_1"])
    atom = (draw(st.sampled_from(["", "!"])) + draw(sym) + "("
            + ",".join(draw(st.lists(sym, max_size=3))) + ")" + draw(st.sampled_from(["", "=A"])))
    fields = draw(st.lists(st.sampled_from(["1", "+2", "é", "x"]), max_size=2))
    line = (draw(st.sampled_from(["", " "])) + draw(st.sampled_from([" ", "\t", "\xa0"])).join(
        [atom] + fields) + draw(st.sampled_from(["", " ", " #c", "#)"])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(line)))
        piece = draw(st.sampled_from(SCAN_PIECES + [""]))
        line = line[:at] + piece + line[at + (not piece):]
    return line


def _assert_scan_is_the_regex(lines):
    """``_scan`` declines a block unless each line's first word is an atom
    and no later word holds a delimiter, and then cuts it as the regex does:
    each span it returns reads as ``block[start:stop]``."""
    words = [w for w in (line.split("#", 1)[0].split() for line in lines) if w]
    atoms = [kb.ATOM_RE.fullmatch(w[0]) for w in words]
    block = "\n".join(lines) + "\n"
    if not all(atoms) or any(set(field) & set("!(),=") for w in words for field in w[1:]):
        with pytest.raises(kb.Declined):
            kb._scan(block)
        return
    if not words:
        assert kb._scan(block) is None
        return
    _, names, nargs, args, negated, named, labels, counts, fields = kb._scan(block)

    def text(span):
        return [block[start:stop] for start, stop in zip(*span)]

    want_args = [a["args"].split(",") if a["args"] else [] for a in atoms]
    assert text(names) == [a["name"] for a in atoms]
    assert nargs.tolist() == list(map(len, want_args))
    assert text(args) == list(itertools.chain.from_iterable(want_args))
    assert negated.tolist() == [bool(a["neg"]) for a in atoms]
    assert named.tolist() == [a["label"] is not None for a in atoms]
    label_text = iter(text(labels))
    assert [next(label_text) if has else None for has in named] == [a["label"] for a in atoms]
    assert next(label_text, None) is None
    assert counts.tolist() == [len(w) - 1 for w in words]
    assert text(fields) == [field for w in words for field in w[1:]]


@settings(max_examples=500, deadline=None)
@given(st.lists(scan_lines(), min_size=1, max_size=5))
def test_scan_takes_exactly_the_atom_grammar(lines):
    _assert_scan_is_the_regex(lines)


# Lines that break one rule of the delimiter grammar and keep every other,
# with names and arguments a reader could look up, then good lines with
# fields and comments.
@pytest.mark.parametrize("text", [
    "p(A(B)\nq,C)",             # a '(' before its atom, in an earlier one
    "p(A\nq(B)=C)",             # a ')' after its atom, in a later one
    "!(A)", "p)=A(B", "p(A)B", "p,A(B)", "p(A)=B,C", "p(,A)", "p(A,)", "p=A(B)", "p(A)=",
    "!!p(A)", "pé(A)", "p(A)) 1", "p(A) 1,2", "p(A) =1", "p(A) !1", "p(A)\t()", "p()",
    "!p(A,B)=C 1 +2 é", "\xa0p(A)  # (,)=!",
])
def test_scan_near_misses(text):
    _assert_scan_is_the_regex(text.split("\n"))


def test_the_class_table_holds_every_whitespace_character():
    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert max(spaces) < len(kb._CLASS) - 1
    assert all(kb._CLASS[c] in (kb._SPACE, kb._NEWLINE) for c in spaces)


# Names of one to four uint64 words, and names that share their first 8 bytes
LONG_PREDS = {p.name: p for p in [
    Predicate("ABCDEFGH", 1), Predicate("ABCDEFGHI", 1), Predicate("relationship_of", 2),
    Predicate("labelled_entity_kind", 1, 3, ("first_label_name", "B", "label_3"))]}
LONG_ENTITIES = ["ABCDEFGH", "ABCDEFGHI", "entity_0001", "entity_0002", "Q",
                 "a_name_longer_than_twenty_four_bytes"]
LONG_KB = KnowledgeBase(LONG_ENTITIES, LONG_PREDS, {})
LONG_READERS = {
    "evidence": (lambda t: load_evidence(t, LONG_PREDS),
                 lambda t: kb._walk_evidence(t, LONG_PREDS, [])),
    "queries": (lambda t: load_queries(t, LONG_KB), lambda t: kb._walk_queries(t, LONG_KB)),
    "unary": (lambda t: io.load_unary(t, LONG_KB), lambda t: io._walk_unary(t, LONG_KB)),
    "predictions": (lambda t: io.load_predictions(t, LONG_KB),
                    lambda t: io.load_predictions(t, LONG_KB)),
    "truth": (lambda t: io.load_truth(t, LONG_KB), lambda t: io.load_truth(t, LONG_KB)),
}


def _long_lines(reader):
    lines = []
    for i, (pred, args) in enumerate((p, args) for p in LONG_PREDS.values()
                                     for args in itertools.product(LONG_ENTITIES, repeat=p.arity)):
        if reader == "truth" and pred.num_labels > 2:
            continue
        if reader == "evidence" and pred.num_labels > 2:
            lines.append(_atom(pred, args, label="=" + pred.label_names[i % 3]))
        else:
            negated = reader in ("evidence", "truth") and i % 3 == 1
            lines.append("!" * negated + _plain_good_line(reader, pred, args))
    return lines


@pytest.mark.parametrize("reader", sorted(LONG_READERS))
def test_long_names_and_names_sharing_eight_bytes_match_the_walk(reader):
    lines = _long_lines(reader)
    bulk, walk = LONG_READERS[reader]
    for block in (1, 3, kb.BLOCK_LINES):
        with mock.patch.object(kb, "BLOCK_LINES", block):
            assert _outcome(bulk, "\n".join(lines))[0] == "ok"
        _assert_same(block, bulk, walk, "\n".join(lines))
    # unknown names one byte or one word away from known ones
    for bad in ["ABCDEFGH(entity_0003)", "ABCDEFGH(ABCDEFG)", "ABCDEFGHI(ABCDEFGHIJ)",
                "ABCDEFGHIJ(Q)", "relationship(Q,Q)", "relationship_of_(Q,Q)",
                "ABCDEFGHI(a_name_longer_than_twenty_four_byte)",
                "ABCDEFGHI(a_name_longer_than_twenty_four_bytes_)",
                "ABCDEFGHI(a_name_longer_than_twenty_four_bytes_and_one_more_word)"]:
        text = "\n".join(lines[:5] + [bad + FIELDS.get(reader, "")] + lines[5:])
        for block in (1, 3, kb.BLOCK_LINES):
            _assert_same(block, bulk, walk, text)


@pytest.mark.parametrize("block", [1, 3])
def test_names_new_in_a_later_block_are_numbered_after_the_seed(block):
    seed = ["E2", "entity_0001", "not a symbol"]
    text = "\n".join(["smoke(E2)", "friend(entity_0002,E2)", "# a comment", "smoke(ABCDEFGHI)",
                      "friend(ABCDEFGH,entity_0002)", "smoke(entity_0001)", "",
                      "tri(Z,ABCDEFGH,a_name_longer_than_sixteen)", "!smoke(Z)",
                      "friend(a_name_longer_than_sixteen,ABCDEFGHI)"])
    want = seed + ["entity_0002", "ABCDEFGHI", "ABCDEFGH", "Z", "a_name_longer_than_sixteen"]
    bulk = (lambda t: load_evidence(t, PREDS, seed))
    _assert_same(block, bulk, lambda t: kb._walk_evidence(t, PREDS, seed), text)
    with mock.patch.object(kb, "BLOCK_LINES", block):
        assert bulk(text).entities == tuple(want)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_new_names_in_every_block_match_the_walk(block):
    # each block adds names, so the added key tables merge many times
    seed = ["N3", "entity_0001"]
    text = "\n".join(f"friend(N{i},{'entity_000' if i % 5 else 'N'}{i // 2})" for i in range(300))
    _assert_same(block, lambda t: load_evidence(t, PREDS, seed),
                 lambda t: kb._walk_evidence(t, PREDS, seed), text)


# Fields for the number path: the ones that float() reads and the fast path
# takes (15 significant digits, 22 after the point), then the ones that go
# through float() (16 significant digits, 23 after the point, over 24
# characters, an exponent, an underscore, non-ASCII digits), then non-numbers.
FAST_NUMBERS = ["0", "-0", "-0.0", "+0", "+.5", "5.", "007", "-12.50", ".000",
                "123456789012345", "-12345678901234.5", "0." + "0" * 21 + "1",
                "0.0000000123456789012345", "-." + "0" * 21 + "1", "0" * 23 + "1"]
SLOW_NUMBERS = ["1234567890123456", "9007199254740993", "1.000000000000000",
                "0." + "0" * 22 + "1", "." + "0" * 22 + "1", "0" * 24 + "1",
                "1e5", "-1E-2", "1_0", "inf", "nan", "５", "-٣.5"]
NOT_NUMBERS = [".", "-", "+", "+-1", "1.2.3", "1-", "x", "é", "1__0"]


def _number_fields(fields, wide):
    """``_numbers`` of the fields of one unary line, in a non-ASCII block
    when ``wide``."""
    block = "p(A) " + " ".join(fields) + ("  # é" if wide else "") + "\n"
    scanned = kb._scan(block)
    return kb._numbers(block, scanned[0], *scanned[-1])


def _bits(values):
    return np.asarray(values, np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("wide", [False, True])
def test_float_is_called_only_outside_the_fast_path(wide):
    with mock.patch.object(kb, "float", create=True, side_effect=float) as called:
        got = _number_fields(FAST_NUMBERS + SLOW_NUMBERS, wide)
    assert [c.args[0] for c in called.call_args_list] == SLOW_NUMBERS
    assert _bits(got) == _bits([float(f) for f in FAST_NUMBERS + SLOW_NUMBERS])
    for bad in NOT_NUMBERS:
        with pytest.raises(ValueError):
            _number_fields(FAST_NUMBERS + [bad], wide)


DIGITS = st.text("0123456789", max_size=12) | st.text("0123456789", max_size=24)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(
    st.builds(lambda sign, whole, point, frac: sign + whole + point + frac,
              st.sampled_from(["", "+", "-"]), DIGITS, st.sampled_from(["", ".", "."]), DIGITS),
    st.sampled_from(FAST_NUMBERS + SLOW_NUMBERS + NOT_NUMBERS)).filter(bool),
    min_size=1, max_size=6), st.booleans())
def test_number_path_is_float_bit_for_bit(fields, wide):
    try:
        want = [float(f) for f in fields]
    except ValueError:
        with pytest.raises(ValueError):
            _number_fields(fields, wide)
        return
    assert _bits(_number_fields(fields, wide)) == _bits(want)


def _splitlines_blocks(text):
    lines = text.splitlines()
    return ["\n".join(lines[start:start + kb.BLOCK_LINES]) + "\n"
            for start in range(0, len(lines), kb.BLOCK_LINES)]


# lines of "\n" breaks alone, cut at offsets, or mixed with another break
# that str.splitlines honours, which the cut leaves to splitlines
@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from("a( \t\xa0é#")), max_size=12),
       st.sampled_from(["", *kb._BREAKS, "\r\n"]), st.integers(0, 12), st.booleans(),
       st.sampled_from([1, 3, kb.BLOCK_LINES]))
def test_blocks_are_the_splitlines_blocks(lines, other, at, ended, block):
    text = "\n".join(lines) + ("\n" if ended else "")
    text = text[:at] + other + text[at:]
    with mock.patch.object(kb, "BLOCK_LINES", block):
        assert list(kb._blocks(text)) == _splitlines_blocks(text)


def test_blocks_of_a_text_without_a_final_newline():
    text = "\n".join(f"smoke(E{i})" for i in range(7))
    for block in (1, 3, kb.BLOCK_LINES):
        with mock.patch.object(kb, "BLOCK_LINES", block):
            got = list(kb._blocks(text))
            assert got == _splitlines_blocks(text) and got[-1].endswith("smoke(E6)\n")


def test_blocks_know_every_break_that_splitlines_honours():
    breaks = {chr(c) for c in range(sys.maxunicode + 1)
              if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == {"\n", *kb._BREAKS}


# --- the hashed key table --------------------------------------------------

SYMBOL_CHARS = "abcXYZ019_.-"
NAMES = st.text(st.sampled_from(SYMBOL_CHARS), min_size=1, max_size=30)


@st.composite
def _name_sets(draw):
    """Distinct names of up to 30 bytes, with pairs equal in their first 8
    bytes and names that are prefixes of others."""
    names = draw(st.lists(NAMES, min_size=1, max_size=10))
    for head in draw(st.lists(st.text(st.sampled_from(SYMBOL_CHARS), min_size=8, max_size=8),
                              max_size=3)):
        names += [head + draw(st.text(st.sampled_from(SYMBOL_CHARS), max_size=22))
                  for _ in range(2)]
    for name in draw(st.lists(st.sampled_from(names), max_size=4)):
        names.append(name[:draw(st.integers(1, len(name)))])
    return list(dict.fromkeys(names))


def _index(keys, tokens):
    """``keys.index`` of tokens, one per line of a block."""
    block = "".join(token + "\n" for token in tokens)
    lengths = np.array([len(token) for token in tokens], np.intp)
    stops = np.cumsum(lengths + 1) - 1
    return keys.index(block, kb._classes(block)[0], stops - lengths, stops).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_keys_index_agrees_with_a_dict(data):
    names = data.draw(_name_sets())
    seed = data.draw(st.lists(st.sampled_from(names), unique=True))
    tokens = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=80))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(tokens)), max_size=4)))
    # grown block by block, new names numbered in first-occurrence order
    want = {name: i for i, name in enumerate(seed)}
    keys = kb._Keys(seed, grow=True)
    for start, stop in zip([0, *cuts], [*cuts, len(tokens)]):
        part = tokens[start:stop]
        assert _index(keys, part) == [want.setdefault(t, len(want)) for t in part]
    assert keys.names == list(want)
    # a fixed table finds each of its names and declines any other token
    fixed = kb._Keys(list(want))
    assert _index(fixed, tokens) == [want[t] for t in tokens]
    stranger = data.draw(NAMES.filter(lambda name: name not in want))
    with pytest.raises(kb.Declined):
        _index(fixed, [*tokens, stranger])
    # load_evidence grows its table across blocks of a few lines
    pairs = [f"friend({a},{b})" for a, b in zip(tokens, tokens[1:] + tokens[:1])]
    with mock.patch.object(kb, "BLOCK_LINES", data.draw(st.sampled_from([1, 2, 3]))):
        got = load_evidence("\n".join(pairs), PREDS, seed)
    assert got.entities == tuple(dict.fromkeys([*seed, *(t for pair in zip(
        tokens, tokens[1:] + tokens[:1]) for t in pair)]))
