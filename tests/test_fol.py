import warnings

import pytest

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


def test_formula_ids_keep_the_number_of_a_dropped_tautology():
    text = "predicate p(e)\npredicate q(e)\np(a) | !p(a)\nq(a)\n3.0: !q(a) | p(a)\n"
    with pytest.warns(RuleWarning, match=r"line 3: tautological clause dropped \(f1\)"):
        ruleset = parse_rules(text)
    assert [(f.id, str(f)) for f in ruleset] == [("f2", "q(a)"), ("f3", "3.0: !q(a) | p(a)")]
    kb = KnowledgeBase(["u"], ruleset.predicates, {})
    weights = {ci.rule_id: ci.weight for ci in compile_rules(ruleset, kb).implications}
    assert weights == {"f2": 1.0, "f3": 3.0}
