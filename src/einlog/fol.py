"""First-order rule language: predicates, literals, clauses and the rule-file parser.

A rule file declares predicates and lists one universally quantified formula
per line.  Formulas are clauses (disjunctions of literals) or conjunctions of
clauses, with ``=>`` sugar for implications::

    predicate smoke(person)
    predicate friend(person,person)
    predicate label(token) labels {O,B-PER,I-PER}

    # weight prefix is optional, defaults to 1.0 and must be finite
    1.5: !smoke(a) | !friend(a,b) | smoke(b)
    smoke(a) => cancer(a)
    (!smoke(a) | cancer(a)) & (smoke(a) | !cancer(a))
    label(i) in {B-PER,I-PER} | !samelist(i,j)

Identifiers match ``[A-Za-z0-9_.+-]+``.  An argument starting with a lowercase
letter is a universally quantified variable; anything else (``Level_500``,
``B``) is a constant resolved against the entity domain at compile time.  A
leading ``+`` on an argument is accepted and ignored (the argument is treated
as an ordinary shared variable).  Multi-class literals constrain a predicate
to a set of labels via ``in {...}``; repeated mentions of the same atom inside
one clause are merged by unioning their label sets, and clauses whose merged
label set covers every label are tautologies and are dropped with a warning.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field, replace


class RuleError(Exception):
    """Invalid rule text or ill-formed formula."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


def content_lines(text: str):
    """Yield ``(line number, line)`` for each non-blank line, ``#`` comments
    and surrounding whitespace stripped; numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class RuleWarning(UserWarning):
    """Non-fatal oddity in a rule file (tautological or duplicate clause)."""


@dataclass(frozen=True)
class Predicate:
    """Named relation over entities with ``num_labels`` exclusive labels.

    ``num_labels == 2`` is the ordinary true/false case (label 1 = true).
    """

    name: str
    arity: int
    num_labels: int = 2
    label_names: tuple[str, ...] | None = None
    arg_types: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise RuleError("predicate name must be non-empty")
        if self.arity < 0:
            raise RuleError(f"predicate {self.name}: arity must be >= 0")
        if self.num_labels < 2:
            raise RuleError(f"predicate {self.name}: num_labels must be >= 2")
        if self.label_names is not None and len(self.label_names) != self.num_labels:
            raise RuleError(f"predicate {self.name}: {len(self.label_names)} label names "
                            f"for {self.num_labels} labels")

    def label_index(self, name: str) -> int:
        if self.label_names is not None:
            try:
                return self.label_names.index(name)
            except ValueError:
                raise RuleError(f"unknown label {name!r} for predicate {self.name}") from None
        try:
            idx = int(name)
        except ValueError:
            raise RuleError(f"predicate {self.name} has no named labels; got {name!r}") from None
        if not 0 <= idx < self.num_labels:
            raise RuleError(f"label index {idx} out of range for predicate {self.name}")
        return idx

    def label_name(self, index: int) -> str:
        if self.label_names is not None:
            return self.label_names[index]
        return str(index)


@dataclass(frozen=True)
class Term:
    """Rule argument: a universally quantified variable or a constant."""

    symbol: str
    is_constant: bool = False

    def __str__(self) -> str:
        return self.symbol


def variable(symbol: str) -> Term:
    return Term(symbol, is_constant=False)


def constant(symbol: str) -> Term:
    return Term(symbol, is_constant=True)


@dataclass(frozen=True)
class Literal:
    """An atom restricted to a set of labels that make the literal true.

    For binary predicates ``value_set == {1}`` is a positive literal and
    ``{0}`` a negated one.  The set is always a non-empty proper subset of the
    predicate's labels.
    """

    predicate: Predicate
    args: tuple[Term, ...]
    value_set: frozenset[int]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise RuleError(f"{self.predicate.name} expects {self.predicate.arity} args, "
                            f"got {len(self.args)}")
        if not self.value_set:
            raise RuleError(f"empty value set for {self.predicate.name}")
        if any(v < 0 or v >= self.predicate.num_labels for v in self.value_set):
            raise RuleError(f"label index out of range for {self.predicate.name}")
        if len(self.value_set) >= self.predicate.num_labels:
            raise RuleError(f"value set of {self.predicate.name} literal covers every label "
                            "(tautology)")

    def complement_labels(self) -> tuple[int, ...]:
        """Labels under which this literal is false, in increasing order."""
        return tuple(v for v in range(self.predicate.num_labels) if v not in self.value_set)

    def atom_key(self) -> tuple:
        return (self.predicate.name, self.args)

    def __str__(self) -> str:
        head = f"{self.predicate.name}({','.join(str(a) for a in self.args)})"
        if self.predicate.num_labels == 2 and self.value_set == frozenset({1}):
            return head
        if self.predicate.num_labels == 2 and self.value_set == frozenset({0}):
            return "!" + head
        names = [self.predicate.label_name(v) for v in sorted(self.value_set)]
        return f"{head} in {{{','.join(names)}}}"


def binary_literal(predicate: Predicate, args: tuple[Term, ...], negated: bool = False) -> Literal:
    return Literal(predicate, args, frozenset({0 if negated else 1}))


def merge_literals(literals) -> tuple[Literal, ...] | None:
    """Literals with repeated atoms merged by unioning their label sets, in
    first-occurrence order; None once a merged set covers every label (the
    clause is a tautology), without reading the rest of ``literals``."""
    merged: dict[tuple, Literal] = {}
    for lit in literals:
        key = lit.atom_key()
        if key in merged:
            union = merged[key].value_set | lit.value_set
            if len(union) == lit.predicate.num_labels:
                return None
            lit = Literal(lit.predicate, lit.args, union)
        merged[key] = lit
    return tuple(merged.values())


def _check_weight(weight: float):
    if not math.isfinite(weight):
        raise RuleError(f"rule weight must be finite, got {weight!r}")


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals with a rule weight."""

    literals: tuple[Literal, ...]
    weight: float = 1.0
    id: str = ""

    def __post_init__(self):
        _check_weight(self.weight)
        if not self.literals:
            raise RuleError("clause must contain at least one literal")
        seen = set()
        for lit in self.literals:
            key = lit.atom_key()
            if key in seen:
                raise RuleError("repeated atom in clause; merge value sets into one literal")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.literals)

    def variables(self) -> tuple[str, ...]:
        """Distinct variable symbols in first-occurrence order."""
        return tuple(dict.fromkeys(term.symbol for lit in self.literals for term in lit.args
                                   if not term.is_constant))

    def __str__(self) -> str:
        return " | ".join(str(lit) for lit in self.literals)


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of distinct clauses sharing one weight."""

    clauses: tuple[Clause, ...]
    weight: float = 1.0
    id: str = ""

    def __post_init__(self):
        _check_weight(self.weight)
        if not self.clauses:
            raise RuleError("formula must contain at least one clause")
        plain = [(c.literals,) for c in self.clauses]
        if len(set(plain)) != len(plain):
            raise RuleError("CNF clauses must be pairwise distinct")

    def __str__(self) -> str:
        if len(self.clauses) == 1:
            body = str(self.clauses[0])
        else:
            body = " & ".join(f"({c})" for c in self.clauses)
        if self.weight != 1.0:
            return f"{self.weight!r}: {body}"
        return body


def normalize_rules(rules) -> list[CnfFormula]:
    """A rule list as CNF formulas with ids: a bare clause becomes a
    one-clause formula, and a formula without an id is named ``f<position>``
    (counting from 1)."""
    out = []
    for i, rule in enumerate(rules):
        if isinstance(rule, Clause):
            rule = CnfFormula((rule,), weight=rule.weight, id=rule.id)
        elif not isinstance(rule, CnfFormula):
            raise RuleError(f"unsupported rule object {rule!r}")
        out.append(rule if rule.id else replace(rule, id=f"f{i + 1}"))
    return out


def split_cnf(formula: CnfFormula) -> list[Clause]:
    """Clauses of a CNF formula, each carrying the formula weight."""
    out = []
    for k, clause in enumerate(formula.clauses):
        cid = clause.id or (f"{formula.id}.{k + 1}" if formula.id else "")
        out.append(Clause(clause.literals, weight=formula.weight, id=cid))
    return out


@dataclass
class RuleSet:
    """Parsed rule file: predicate declarations plus formulas.

    Iterates over the formulas so it can be passed anywhere a list of
    formulas is expected.
    """

    predicates: dict[str, Predicate] = field(default_factory=dict)
    formulas: list[CnfFormula] = field(default_factory=list)

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __getitem__(self, i):
        return self.formulas[i]


_TOKEN_RE = re.compile(r"""
      (?P<ws>[ \t]+)
    | (?P<implies>=>)
    | (?P<op>[!|&(){},:])
    | (?P<ident>[A-Za-z0-9_.+-]+)
""", re.X)


@dataclass(frozen=True)
class _Tok:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str, lineno: int) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            toks.append(_Tok("op" if kind == "implies" else kind, value, lineno, pos + 1))
        pos = m.end()
    return toks


class _LineParser:
    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise RuleError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.value != value:
            got = "end of line" if tok is None else repr(tok.value)
            col = None if tok is None else tok.col
            raise RuleError(f"expected {value!r}, got {got}", self.lineno, col)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> _Tok:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            got = "end of line" if tok is None else repr(tok.value)
            col = None if tok is None else tok.col
            raise RuleError(f"expected {what}, got {got}", self.lineno, col)
        return self.next()

    def idents(self, close: str, what: str) -> list[str]:
        """``ident (, ident)* close``, after the opening bracket."""
        out = []
        while True:
            out.append(self.expect_ident(what).value)
            if self.accept(close):
                return out
            self.expect(",")


# Raw literal straight out of the grammar, before semantic checks.
@dataclass
class _RawLiteral:
    negated: bool
    name: str
    args: list[str]
    values: list[str] | None
    line: int
    col: int


def _parse_atom(p: _LineParser) -> _RawLiteral:
    negated = p.accept("!")
    name_tok = p.expect_ident("predicate name")
    p.expect("(")
    args = [] if p.accept(")") else p.idents(")", "argument")
    values = None
    nxt = p.peek()
    if nxt is not None and nxt.value == "in":
        p.next()
        p.expect("{")
        values = p.idents("}", "label name")
    return _RawLiteral(negated, name_tok.value, args, values, name_tok.line, name_tok.col)


def _parse_disjunction(p: _LineParser) -> list[_RawLiteral]:
    lits = [_parse_atom(p)]
    while p.accept("|"):
        lits.append(_parse_atom(p))
    return lits


def _parse_clause_group(p: _LineParser) -> list[_RawLiteral]:
    if p.accept("("):
        lits = _parse_disjunction(p)
        p.expect(")")
        return lits
    return _parse_disjunction(p)


def _parse_cnf(p: _LineParser) -> list[list[_RawLiteral]]:
    clauses = [_parse_clause_group(p)]
    while p.accept("&"):
        clauses.append(_parse_clause_group(p))
    return clauses


def _negate(raw: _RawLiteral) -> _RawLiteral:
    return _RawLiteral(not raw.negated, raw.name, raw.args, raw.values, raw.line, raw.col)


def _parse_formula_line(p: _LineParser) -> list[list[_RawLiteral]]:
    """Formula as CNF clause lists; `A & B => C|D` becomes `!A|!B|C|D`."""
    # Split on a single top-level '=>' so the antecedent can use '&'.
    arrow = [i for i, t in enumerate(p.toks) if t.value == "=>"]
    if len(arrow) > 1:
        t = p.toks[arrow[1]]
        raise RuleError("at most one '=>' per formula", t.line, t.col)
    if arrow:
        antecedent = [_parse_atom(p)]
        while p.accept("&"):
            antecedent.append(_parse_atom(p))
        p.expect("=>")
        cnf = _parse_cnf(p)
        negs = [_negate(a) for a in antecedent]
        cnf = [negs + clause for clause in cnf]
    else:
        cnf = _parse_cnf(p)
    tok = p.peek()
    if tok is not None:
        raise RuleError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return cnf


def _term_from_symbol(symbol: str) -> Term:
    if symbol.startswith("+"):
        symbol = symbol[1:]
        if not symbol or not symbol[0].islower():
            raise RuleError(f"'+' prefix expects a variable, got {symbol!r}")
        return variable(symbol)
    if symbol[0].islower():
        return variable(symbol)
    return constant(symbol)


def _build_literal(raw: _RawLiteral, predicates: dict[str, Predicate]) -> Literal | None:
    """Semantic literal; None when it is trivially true for every label."""
    pred = predicates.get(raw.name)
    if pred is None:
        raise RuleError(f"undeclared predicate {raw.name!r}", raw.line, raw.col)
    if len(raw.args) != pred.arity:
        raise RuleError(f"{pred.name} expects {pred.arity} args, got {len(raw.args)}",
                        raw.line, raw.col)
    try:
        args = tuple(_term_from_symbol(a) for a in raw.args)
        values = (None if raw.values is None
                  else frozenset(pred.label_index(v) for v in raw.values))
    except RuleError as exc:  # term and label errors carry no position of their own
        raise RuleError(str(exc), raw.line, raw.col) from None
    if values is None:
        if pred.num_labels != 2:
            raise RuleError(f"multi-class predicate {pred.name} needs an 'in {{...}}' "
                            "value set", raw.line, raw.col)
        values = frozenset({1})
    if raw.negated:
        values = frozenset(range(pred.num_labels)) - values
    if not values:
        raise RuleError(f"empty value set for {pred.name}", raw.line, raw.col)
    if len(values) == pred.num_labels:
        return None  # always true; caller treats the clause as a tautology
    return Literal(pred, args, values)


def _build_clause(raws: list[_RawLiteral], predicates: dict[str, Predicate],
                  weight: float, cid: str, lineno: int) -> Clause | None:
    """Validate every literal, then merge repeated atoms; None when the clause
    is a tautology.  A variable at argument positions of two declared types
    is refused: every variable ranges over all entities, so the types would
    be ignored without a word."""
    literals = [_build_literal(raw, predicates) for raw in raws]
    types: dict[str, str] = {}
    for raw in raws:
        for symbol, arg_type in zip(raw.args, predicates[raw.name].arg_types):
            term = _term_from_symbol(symbol)
            if not term.is_constant and types.setdefault(term.symbol, arg_type) != arg_type:
                raise RuleError(f"variable {term.symbol!r} is used as {types[term.symbol]} "
                                f"and as {arg_type}", raw.line, raw.col)
    merged = None if any(lit is None for lit in literals) else merge_literals(literals)
    if merged is None:
        warnings.warn(f"line {lineno}: tautological clause dropped ({cid})", RuleWarning,
                      stacklevel=3)
        return None
    return Clause(merged, weight=weight, id=cid)


def _parse_declaration(p: _LineParser, predicates: dict[str, Predicate]):
    name_tok = p.expect_ident("predicate name")
    name = name_tok.value
    if name in predicates:
        raise RuleError(f"duplicate predicate declaration {name!r}",
                        name_tok.line, name_tok.col)
    p.expect("(")
    arg_types = [] if p.accept(")") else p.idents(")", "argument type")
    label_names = None
    if p.peek() is not None and p.peek().value == "labels":
        p.next()
        p.expect("{")
        label_names = p.idents("}", "label name")
        if len(set(label_names)) != len(label_names):
            raise RuleError(f"duplicate label names for {name}", name_tok.line)
    tok = p.peek()
    if tok is not None:
        raise RuleError(f"trailing input {tok.value!r}", tok.line, tok.col)
    num_labels = len(label_names) if label_names is not None else 2
    try:
        predicates[name] = Predicate(name, len(arg_types), num_labels,
                                     tuple(label_names) if label_names else None,
                                     tuple(arg_types))
    except RuleError as exc:
        raise RuleError(str(exc), name_tok.line, name_tok.col) from None


def _try_weight_prefix(p: _LineParser) -> float | None:
    """Consume a leading `NUMBER :` if present."""
    if len(p.toks) >= 2 and p.toks[0].kind == "ident" and p.toks[1].value == ":":
        tok = p.toks[0]
        try:
            w = float(tok.value)
        except ValueError:
            return None
        if not math.isfinite(w):
            raise RuleError(f"rule weight must be finite, got {tok.value!r}", tok.line, tok.col)
        p.pos = 2
        return w
    return None


def parse_rules(text: str) -> RuleSet:
    """Parse a rule file into predicate declarations and validated formulas.

    Formula lines are numbered in file order, ``f1, f2, ...``; a line whose
    clauses are all tautologies is dropped and keeps its number, so the ids
    of later lines do not depend on it.
    """
    ruleset = RuleSet()
    n_formulas = 0
    for lineno, line in content_lines(text):
        toks = _tokenize(line, lineno)
        p = _LineParser(toks, lineno)
        if toks[0].value == "predicate" and len(toks) > 1 and toks[1].value != "(":
            p.next()
            _parse_declaration(p, ruleset.predicates)
            continue
        weight = _try_weight_prefix(p)
        if weight is None:
            weight = 1.0
        raw_cnf = _parse_formula_line(p)
        n_formulas += 1
        fid = f"f{n_formulas}"
        clauses: list[Clause] = []
        for k, raw_clause in enumerate(raw_cnf):
            cid = f"{fid}.{k + 1}" if len(raw_cnf) > 1 else fid
            clause = _build_clause(raw_clause, ruleset.predicates, weight, cid, lineno)
            if clause is not None:
                clauses.append(clause)
        # Drop exact duplicates inside one CNF; they carry no extra constraint.
        distinct: list[Clause] = []
        for c in clauses:
            if any(c.literals == d.literals for d in distinct):
                warnings.warn(f"line {lineno}: duplicate clause dropped", RuleWarning,
                              stacklevel=2)
                continue
            distinct.append(c)
        if not distinct:
            continue
        ruleset.formulas.append(CnfFormula(tuple(distinct), weight=weight, id=fid))
    return ruleset

