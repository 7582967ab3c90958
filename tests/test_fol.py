import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from einlog.engine import compile_rules
from einlog.fol import (Clause, CnfFormula, Literal, Predicate, RuleError,
                        RuleWarning, binary_literal, constant,
                        parse_rules, split_cnf, variable)
from einlog.kb import KnowledgeBase

from helpers import format_rules

HEADER = """\
predicate smoke(person)
predicate friend(person,person)
predicate cancer(person)
predicate label(token) labels {O,B-PER,I-PER}
predicate samelist(token,token)
"""


def parse_one(text):
    ruleset = parse_rules(HEADER + text + "\n")
    assert len(ruleset) == 1
    return ruleset[0]


def test_parse_clause_with_negations():
    f = parse_one("!smoke(a) | !friend(a,b) | smoke(b)")
    clause = f.clauses[0]
    assert [lit.predicate.name for lit in clause.literals] == ["smoke", "friend", "smoke"]
    # a negated binary literal is true on label 0 alone
    assert [lit.value_set for lit in clause.literals] == [
        frozenset({0}), frozenset({0}), frozenset({1})]


def test_implication_sugar_rewrites_to_clause():
    f = parse_one("smoke(a) => cancer(a)")
    clause = f.clauses[0]
    assert str(clause) == "!smoke(a) | cancer(a)"


def test_conjunctive_antecedent():
    f = parse_one("smoke(a) & friend(a,b) => smoke(b)")
    assert str(f.clauses[0]) == "!smoke(a) | !friend(a,b) | smoke(b)"


def test_multiclass_literal_with_value_set():
    f = parse_one("label(i) in {B-PER,I-PER} | !samelist(i,j)")
    first, second = f.clauses[0].literals
    assert first.predicate.name == "label"
    assert first.value_set == frozenset({1, 2})
    assert second.predicate.name == "samelist"
    assert second.value_set == frozenset({0})


def test_negated_value_set_complements():
    f = parse_one("!label(i) in {O} | samelist(i,j)")
    assert f.clauses[0].literals[0].value_set == frozenset({1, 2})


def test_cnf_with_parentheses_and_weight():
    f = parse_one("2.5: (!smoke(a) | cancer(a)) & (smoke(a) | !cancer(a))")
    assert len(f.clauses) == 2
    assert f.weight == 2.5
    assert all(c.weight == 2.5 for c in f.clauses)


def test_repeated_atom_merges_value_sets():
    f = parse_one("label(x) in {B-PER} | label(x) in {I-PER} | samelist(x,y)")
    clause = f.clauses[0]
    assert len(clause.literals) == 2
    assert clause.literals[0].value_set == frozenset({1, 2})


def test_tautological_clause_dropped_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ruleset = parse_rules(HEADER + "!friend(a,b) | friend(a,b)\nsmoke(a) => cancer(a)\n")
    assert any(issubclass(w.category, RuleWarning) for w in caught)
    assert len(ruleset) == 1  # only the non-tautological formula survives


def test_constants_and_plus_arguments():
    text = HEADER + "predicate level(course,lvl)\n!level(c,Level_500) | smoke(+w)\n"
    f = parse_rules(text)[0]
    lvl_lit, smoke_lit = f.clauses[0].literals
    assert lvl_lit.args[1].is_constant and lvl_lit.args[1].symbol == "Level_500"
    assert not smoke_lit.args[0].is_constant and smoke_lit.args[0].symbol == "w"


@pytest.mark.parametrize("bad,fragment", [
    ("ghost(a)", "undeclared"),
    ("smoke(a,b)", "expects 1 args"),
    ("label(i)", "value set"),
    ("label(i) in {NOPE}", "unknown label"),
    ("smoke(a) | | smoke(b)", "expected"),
    ("smoke(a) => smoke(b) => smoke(c)", "at most one"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(RuleError) as err:
        parse_rules(HEADER + bad + "\n")
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(RuleError) as err:
        parse_rules(HEADER + "\nsmoke(a) |\n")
    assert err.value.line == 7


def test_to_implications_counts():
    # a clause compiles to one implication per literal, in literal order
    smoke = Predicate("smoke", 1)
    friend = Predicate("friend", 2)
    a, b = variable("a"), variable("b")
    kb = KnowledgeBase(["E0", "E1"], {"smoke": smoke, "friend": friend}, {})
    clause = Clause((binary_literal(smoke, (a,), True),
                     binary_literal(friend, (a, b), True),
                     binary_literal(smoke, (b,))))
    imps = compile_rules([clause], kb).implications
    assert len(imps) == len(clause.literals) == 3
    assert [ci.hypothesis for ci in imps] == ["smoke", "friend", "smoke"]
    assert [ci.target_labels for ci in imps] == [(0,), (0,), (1,)]
    assert [[p.predicate for p in ci.premises] for ci in imps] == [
        ["friend", "smoke"], ["smoke", "smoke"], ["smoke", "friend"]]

    unit = Clause((binary_literal(smoke, (a,)),))
    (only,) = compile_rules([unit], kb).implications
    assert only.premises == ()


def test_transitivity_premise_complement():
    c = Predicate("c", 2)
    a, b, d = variable("a"), variable("b"), variable("d")
    kb = KnowledgeBase(["E0", "E1"], {"c": c}, {})
    clause = Clause((binary_literal(c, (a, b), True),
                     binary_literal(c, (b, d), True),
                     binary_literal(c, (a, d))))
    imp = compile_rules([clause], kb).implications[2]
    assert imp.target_labels == (1,)
    # the premise holds when its literals are false, i.e. both atoms take label 1
    assert [p.complement_labels for p in imp.premises] == [(1,), (1,)]


def test_split_cnf_copies_weight():
    f = parse_one("2.0: (!smoke(a) | cancer(a)) & (smoke(a) | !cancer(a)) & (!friend(a,a) | smoke(a))")
    clauses = split_cnf(f)
    assert len(clauses) == 3
    assert all(c.weight == 2.0 for c in clauses)
    lits = sorted(str(l) for c in f.clauses for l in c.literals)
    split_lits = sorted(str(l) for c in clauses for l in c.literals)
    assert lits == split_lits  # literal multiset preserved


def test_split_cnf_single_clause_identity():
    f = parse_one("!smoke(a) | cancer(a)")
    (clause,) = split_cnf(f)
    assert clause.literals == f.clauses[0].literals


def test_roundtrip_on_bundled_rule_file():
    from pathlib import Path
    text = (Path(__file__).parent / "data" / "smoke.rules").read_text()
    first = parse_rules(text)
    second = parse_rules(format_rules(first))
    assert first.predicates == second.predicates
    assert first.formulas == second.formulas


def test_roundtrip_through_formatter():
    text = HEADER + "\n".join([
        "!smoke(a) | !friend(a,b) | smoke(b)",
        "0.5: (!smoke(a) | cancer(a)) & (smoke(a) | !cancer(a))",
        "label(i) in {B-PER,I-PER} | !samelist(i,j)",
    ]) + "\n"
    first = parse_rules(text)
    second = parse_rules(format_rules(first))
    assert first.predicates == second.predicates
    assert first.formulas == second.formulas
    # printing is a fixed point after one round
    assert format_rules(first) == format_rules(second)


def test_predicate_invariants():
    with pytest.raises(RuleError):
        Predicate("p", -1)
    with pytest.raises(RuleError):
        Predicate("p", 1, 1)
    with pytest.raises(RuleError):
        Literal(Predicate("p", 1), (variable("x"),), frozenset())
    with pytest.raises(RuleError):
        Literal(Predicate("p", 1), (variable("x"),), frozenset({0, 1}))


def test_duplicate_atom_requires_merge():
    p = Predicate("p", 1, 3, ("u", "v", "w"))
    x = variable("x")
    with pytest.raises(RuleError):
        Clause((Literal(p, (x,), frozenset({0})), Literal(p, (x,), frozenset({1}))))


def test_cnf_requires_distinct_clauses():
    smoke = Predicate("smoke", 1)
    c = Clause((binary_literal(smoke, (variable("a"),)),))
    with pytest.raises(RuleError):
        CnfFormula((c, c))


def test_constant_term_helpers():
    assert constant("Bob").is_constant
    assert not variable("x").is_constant


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
def test_nonfinite_rule_weight_names_its_line(weight):
    with pytest.raises(RuleError, match="must be finite") as err:
        parse_rules(HEADER + f"smoke(a) => cancer(a)\n{weight}: smoke(a)\n")
    assert (err.value.line, err.value.column) == (7, 1)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_hand_built_rules_reject_nonfinite_weight(weight):
    lit = binary_literal(Predicate("smoke", 1), (variable("a"),))
    with pytest.raises(RuleError, match="must be finite"):
        Clause((lit,), weight=weight)
    with pytest.raises(RuleError, match="must be finite"):
        CnfFormula((Clause((lit,)),), weight=weight)


@pytest.mark.parametrize("literal,fragment", [
    ("label(i) in {Z}", "unknown label"),
    ("label(i) in {O,Q}", "unknown label"),
    ("friend(a,b) in {T}", "no named labels"),
    ("friend(a,b) in {5}", "out of range"),
    ("smoke(+)", "'\\+' prefix"),
])
def test_label_and_term_errors_name_their_line(literal, fragment):
    with pytest.raises(RuleError, match=fragment) as err:
        parse_rules(HEADER + f"smoke(a) => cancer(a)\nsmoke(a) | {literal}\n")
    assert (err.value.line, err.value.column) == (7, 12)


def test_declaration_errors_name_their_line():
    with pytest.raises(RuleError, match="num_labels must be >= 2") as err:
        parse_rules("predicate smoke(person)\npredicate one(t) labels {A}\n")
    assert (err.value.line, err.value.column) == (2, 11)


TYPED = "predicate smoke(person)\npredicate teaches(person,course)\npredicate hard(course)\n"


@pytest.mark.parametrize("formula,column", [
    ("!smoke(a) | hard(a)", 13),
    ("!teaches(a,c) | !hard(c) | smoke(+c)", 28),
    ("teaches(a,b) => teaches(b,a)", 17),
    ("smoke(a) | !smoke(a) | hard(a)", 24),    # a tautology does not hide it
])
def test_variable_of_two_types_is_an_error(formula, column):
    with pytest.raises(RuleError, match="variable '[abc]' is used as (person|course) and as "
                                        "(course|person)") as err:
        parse_rules(TYPED + f"!teaches(a,c) | !hard(c) | smoke(a)\n{formula}\n")
    assert (err.value.line, err.value.column) == (5, column)


def test_one_variable_name_may_take_one_type_per_clause():
    # each clause of a CNF quantifies its own variables; constants have no type
    rules = parse_rules(TYPED + "(!smoke(a) | smoke(A)) & (hard(a) | hard(A))\n")
    assert len(rules.formulas[0].clauses) == 2


@pytest.mark.parametrize("literal,fragment", [
    ("ghost(a,b,c)", "undeclared"),
    ("smoke(a,b)", "expects 1 args"),
    ("label(a) in {NOPE}", "unknown label"),
    ("label(a)", "value set"),
])
@pytest.mark.parametrize("tautology", ["smoke(a) | !smoke(a)",
                                       "label(a) in {O,B-PER,I-PER}"])
def test_tautology_does_not_hide_a_bad_literal(tautology, literal, fragment):
    with pytest.raises(RuleError, match=fragment) as err:
        parse_rules(HEADER + f"{tautology} | {literal}\n")
    assert err.value.line == 6


def test_pure_tautology_still_warns_and_is_dropped():
    with pytest.warns(RuleWarning, match="line 6: tautological clause dropped"):
        ruleset = parse_rules(HEADER + "smoke(a) | !smoke(a) | cancer(a)\nsmoke(a) => cancer(a)\n")
    assert [str(f) for f in ruleset] == ["!smoke(a) | cancer(a)"]


def test_duplicate_clause_warns_and_is_dropped():
    with pytest.warns(RuleWarning) as caught:
        (formula,) = parse_rules("predicate p(t)\npredicate q(t)\n"
                                 "(p(a) | q(a)) & (p(a) | q(a))\n")
    assert [str(w.message) for w in caught] == ["line 3: duplicate clause dropped"]
    assert len(formula.clauses) == 1


@pytest.mark.parametrize("text, error", [
    ("predicate p(t)\npredicate p(t)\n", "line 2, column 11: duplicate predicate declaration 'p'"),
    ("predicate t(x) labels {A,A}\n", "line 1: duplicate label names for t"),
    ("predicate p(t) junk\n", "line 1, column 16: trailing input 'junk'"),
    ("predicate p(t)\np(a) p\n", "line 2, column 6: trailing input 'p'"),
    ("predicate p(t)\np(a);\n", "line 2, column 5: unexpected character ';'"),
    ("predicate p(t)\n(p(a)\n", "line 2: expected ')', got end of line"),
    ("predicate t(x) labels {A,B,C}\n!t(a) in {A,B,C}\n",
     "line 2, column 2: empty value set for t"),
    ("predicate p(t)\nfoo: p(a)\n", "line 2, column 4: expected '(', got ':'"),
])
def test_rule_errors_give_their_exact_message(text, error):
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert str(err.value) == error


def test_formula_ids_keep_the_number_of_a_dropped_tautology():
    text = "predicate p(e)\npredicate q(e)\np(a) | !p(a)\nq(a)\n3.0: !q(a) | p(a)\n"
    with pytest.warns(RuleWarning, match=r"line 3: tautological clause dropped \(f1\)"):
        ruleset = parse_rules(text)
    assert [(f.id, str(f)) for f in ruleset] == [("f2", "q(a)"), ("f3", "3.0: !q(a) | p(a)")]
    kb = KnowledgeBase(["u"], ruleset.predicates, {})
    weights = {ci.rule_id: ci.weight for ci in compile_rules(ruleset, kb).implications}
    assert weights == {"f2": 1.0, "f3": 3.0}


# --- parse, print, parse ----------------------------------------------------

PRED_NAMES = ["smoke", "friend_of", "p.q", "R2", "has-label", "kind"]
LABEL_NAMES = ["O", "B-PER", "I-PER", "yes", "no", "x_1", "Level.2"]
VARIABLES = ["a", "b", "c", "x1"]
# the declared argument type each variable may stand at: a variable of two
# types is a rule error
VARIABLE_TYPES = {"a": "t0", "b": "t1", "c": "t0", "x1": "t1"}
CONSTANTS = ["A", "B_2", "Level_500", "7"]
WEIGHTS = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                    st.sampled_from(["1", "1.0", "-1", "2", "-0.5", "+3", "1e-3", "-2.5E2",
                                     "0", "-0.0", "0.1", "1_0", "1e300", "5e-324"]))


@st.composite
def declarations(draw):
    """Declared predicates of arity 0 to 3, each argument of type ``t0`` or
    ``t1``: binary, named multi-class, and multi-class with numbered labels
    in any order (``labels {2,0,1}``)."""
    names = draw(st.lists(st.sampled_from(PRED_NAMES), min_size=1, max_size=4, unique=True))
    lines, preds = [], []
    for name in names:
        arity = draw(st.integers(0, 3))
        kind = draw(st.sampled_from(["binary", "binary", "named", "numbered"]))
        types = draw(st.lists(st.sampled_from(["t0", "t1"]), min_size=arity, max_size=arity))
        line = f"predicate {name}({','.join(types)})"
        labels = None
        if kind == "named":
            labels = draw(st.lists(st.sampled_from(LABEL_NAMES), min_size=2, max_size=4,
                                   unique=True))
        elif kind == "numbered":
            labels = draw(st.permutations([str(i) for i in range(draw(st.integers(3, 5)))]))
        if labels is not None:
            line += f" labels {{{','.join(labels)}}}"
        lines.append(line)
        preds.append((name, arity, labels, tuple(types)))
    return "".join(line + "\n" for line in lines), preds


def _literal_text(draw, pred, args):
    """One literal over a drawn value set: plain or ``!`` for a binary
    predicate, else ``in {...}`` of the set or ``!`` and its complement."""
    name, _, labels, _ = pred
    head = f"{name}({','.join(args)})"
    if labels is None:
        return draw(st.sampled_from(["", "!"])) + head + draw(
            st.sampled_from(["", "", " in {0}", " in {1}"]))
    subset = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1,
                           unique=True))
    negated = draw(st.booleans())
    shown = [label for label in labels if label not in subset] if negated else subset
    return ("!" if negated else "") + f"{head} in {{{','.join(shown)}}}"


@st.composite
def formula_lines(draw, preds):
    """One formula line: an optional weight, then a clause, a CNF of up to
    three clauses, or ``A & B => CNF``.  No atom repeats within the line,
    so no clause merges into a tautology, and each variable stands only at
    arguments of its type (``VARIABLE_TYPES``)."""
    atoms = {}
    for _ in range(draw(st.integers(1, 6))):
        pred = draw(st.sampled_from(preds))
        terms = [draw(st.sampled_from([v for v in VARIABLES if VARIABLE_TYPES[v] == arg_type]
                                      + CONSTANTS)) for arg_type in pred[3]]
        plus = draw(st.lists(st.booleans(), min_size=pred[1], max_size=pred[1]))
        args = tuple("+" + t if p and t in VARIABLES else t for t, p in zip(terms, plus))
        atoms.setdefault((pred[0], tuple(t.lstrip("+") for t in args)), (pred, args))
    atoms = list(atoms.values())
    arrow = len(atoms) > 1 and draw(st.booleans())
    antecedent = atoms[:draw(st.integers(1, len(atoms) - 1))] if arrow else []
    rest = atoms[len(antecedent):]
    parts = sorted(draw(st.lists(st.integers(1, len(rest) - 1), max_size=2, unique=True))
                   if len(rest) > 1 else [])
    clauses = [rest[i:j] for i, j in zip([0] + parts, parts + [len(rest)])]
    texts = [" | ".join(_literal_text(draw, *atom) for atom in clause) for clause in clauses]
    body = " & ".join(f"({t})" if draw(st.booleans()) else t for t in texts)
    if antecedent:
        body = " & ".join(_literal_text(draw, *atom) for atom in antecedent) + " => " + body
    weight = draw(st.one_of(st.none(), WEIGHTS))
    return body if weight is None else f"{weight}: {body}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_printed_formulas_parse_to_the_same_formulas(data):
    declared, preds = data.draw(declarations())
    lines = data.draw(st.lists(formula_lines(preds), min_size=1, max_size=4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rules = parse_rules(declared + "\n".join(lines))
    assume(not caught)          # a clause repeated in its CNF is dropped
    printed = [str(formula) for formula in rules.formulas]
    assert parse_rules(declared + "\n".join(printed)).formulas == rules.formulas
