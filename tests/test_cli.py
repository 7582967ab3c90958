import json
from pathlib import Path

import numpy as np
import pytest

from einlog import engine, io
from einlog.cli import main
from einlog.demo import RULES_TEXT, block_truth, noisy_logits
from einlog.fol import RuleWarning, parse_rules
from einlog.kb import load_evidence

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def infer_args(tmp_path, *extra):
    out = tmp_path / "marginals.csv"
    return out, ["infer",
                 "--rules", str(DATA / "smoke.rules"),
                 "--evidence", str(DATA / "smoke.evidence"),
                 "--unary", str(DATA / "smoke.unary"),
                 "--iterations", "5",
                 "--output", str(out), *extra]


def test_infer_writes_expected_rows(tmp_path, capsys):
    out, argv = infer_args(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 8  # 6 latent cells + 2 observed, binary: one row each
    unobserved = [l for l in lines if l.endswith(",0")]
    assert len(unobserved) == 6
    for line in lines:
        fields = line.split(",")
        assert len(fields[-2].split(".")[1]) == 9
    assert "wall clock per iteration" in err
    assert "M'=" in err


def test_infer_reports_residual_per_iteration(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == ""
    (line,) = [l for l in err.splitlines() if "wall clock per iteration" in l]
    residual = [float(r) for r in line.split("residual max|q_t - q_t-1|: ")[1].split(", ")]
    assert len(residual) == 5 and all(r > 0.0 for r in residual)
    assert residual[-1] < residual[0]


def test_infer_reports_argmax_changes_per_iteration(tmp_path, capsys):
    # the smoke fixture's unary logits already pick every argmax the rules keep
    _, argv = infer_args(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 0
    (line,) = [l for l in err.splitlines() if "wall clock per iteration" in l]
    changed = line.split("latent cells whose argmax changed: ")[1].split(";")[0]
    assert changed == "0, 0, 0, 0, 0"


def test_infer_is_deterministic(tmp_path, capsys):
    out1, argv1 = infer_args(tmp_path / "a")
    out2, argv2 = infer_args(tmp_path / "b")
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    assert run(capsys, *argv1)[0] == 0
    assert run(capsys, *argv2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_infer_json_format(tmp_path, capsys):
    out = tmp_path / "m.json"
    _, argv = infer_args(tmp_path)
    argv[argv.index("--output") + 1] = str(out)
    argv += ["--format", "json"]
    assert run(capsys, *argv)[0] == 0
    records = json.loads(out.read_text())
    assert len(records) == 8
    assert {"predicate", "args", "label", "probability", "observed"} <= records[0].keys()


# The engine's bytes from before a message could write a zero-unary plane
# directly; without --unary every plane is zero-unary.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("unary", [False, True], ids=["zero unary", "unary"])
def test_infer_bytes_match_the_committed_outputs(tmp_path, capsys, fmt, unary):
    golden = (DATA / f"smoke.infer{'-unary' if unary else ''}.{fmt}").read_bytes()
    argv = ["infer", "--rules", str(DATA / "smoke.rules"),
            "--evidence", str(DATA / "smoke.evidence"), "--format", fmt]
    if unary:
        argv += ["--unary", str(DATA / "smoke.unary")]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.encode() == golden
    path = tmp_path / f"m.{fmt}"
    assert run(capsys, *argv, "--output", str(path))[:2] == (0, "")
    assert path.read_bytes() == golden


def _verdict(err):
    (line,) = [l for l in err.splitlines() if l.startswith("converged: ")]
    word, rest = line[len("converged: "):].split(" ", 1)
    residual, flipped = rest.removeprefix("(last residual ").split(", ")
    flipped = flipped.removesuffix(" cells flipped)")
    return word, float(residual), int(flipped)


def test_infer_prints_the_convergence_verdict(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 0
    word, residual, flipped = _verdict(err)
    assert (word, flipped) == ("yes", 0) and residual <= engine.CONVERGENCE_TOL
    (line,) = [l for l in err.splitlines() if "wall clock per iteration" in l]
    assert line.endswith(f"{residual:.3e}")


def test_weight_one_transitivity_demo_does_not_converge(tmp_path, capsys):
    # the demo's N=64 instance as infer files; the rule-free `tok` facts
    # name the entities
    n = 64
    logits = noisy_logits(block_truth(n), 0.1, np.random.default_rng(0))
    names = [f"t{i}" for i in range(n)]
    (tmp_path / "rules").write_text(RULES_TEXT + "predicate tok(token)\n")
    (tmp_path / "evidence").write_text("".join(f"tok({e})\n" for e in names))
    (tmp_path / "unary").write_text("".join(
        f"coexist({names[i]},{names[j]}) 0 {logits[i, j, 1]:g}\n"
        for i, j in np.ndindex(n, n)))
    argv = ["infer", "--iterations", "8", "--output", str(tmp_path / "out.csv")]
    argv += [item for role in ("rules", "evidence", "unary")
             for item in (f"--{role}", str(tmp_path / role))]
    code, _, err = run(capsys, *argv)
    assert code == 0
    word, residual, flipped = _verdict(err)
    assert word == "no" and residual > engine.CONVERGENCE_TOL


def test_infer_oracle_crosscheck_passes(tmp_path, capsys):
    _, argv = infer_args(tmp_path, "--oracle")
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "oracle cross-check" in err


def test_infer_names_the_coefficient_of_an_expanded_pair(tmp_path, capsys):
    rules = tmp_path / "t.rules"
    rules.write_text("predicate c(t,t)\n!c(a,b) | !c(b,c) | c(a,c)\n")
    evidence = tmp_path / "t.evidence"
    evidence.write_text("c(A,B)\nc(B,C)\n!c(C,A)\n")
    code, _, err = run(capsys, "infer", "--rules", str(rules), "--evidence", str(evidence),
                       "--weight", "f1=0.5", "--oracle")
    assert code == 0
    assert [line for line in err.splitlines() if line.startswith("rule ")] == [
        "rule f1 -> c: spec bc,ac->ab x -1 M'=3", "rule f1 -> c: spec bc->ab M'=2",
        "rule f1 -> c: spec ab,ac->bc x -1 M'=3", "rule f1 -> c: spec ab->bc M'=2",
        "rule f1 -> c: spec ab,bc->ac M'=3"]


def test_infer_rejects_zero_iterations(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    argv[argv.index("--iterations") + 1] = "0"
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "usage error" in err


def test_infer_reports_missing_file_as_data_error(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    argv[argv.index("--rules") + 1] = str(tmp_path / "nope.rules")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_infer_weight_override_changes_output(tmp_path, capsys):
    out1, argv1 = infer_args(tmp_path / "a")
    out2, argv2 = infer_args(tmp_path / "b")
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    argv2 += ["--weight", "f1=0", "--weight", "f2=0"]
    run(capsys, *argv1)
    run(capsys, *argv2)
    assert out1.read_bytes() != out2.read_bytes()


def test_infer_damping_flag(tmp_path, capsys):
    runs = {}
    for value in (None, "0", "0.5"):
        folder = tmp_path / str(value)
        folder.mkdir()
        out, argv = infer_args(folder, *(["--damping", value] if value else []))
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout == ""
        runs[value] = out.read_text()
    assert runs["0"] == runs[None]
    assert runs["0.5"] != runs[None]
    # the flag is EngineConfig.damping
    ruleset = parse_rules((DATA / "smoke.rules").read_text())
    kb = load_evidence((DATA / "smoke.evidence").read_text(), ruleset.predicates)
    phi = io.load_unary((DATA / "smoke.unary").read_text(), kb)
    config = engine.EngineConfig(iterations=5, damping=0.5)
    want = io.format_marginals_csv(engine.run_inference(ruleset, kb, phi, config), kb)
    assert runs["0.5"] == want


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_infer_damping_out_of_range_is_data_error(tmp_path, capsys, value):
    out, argv = infer_args(tmp_path, "--damping", value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error: damping must lie in [0, 1]" in err
    assert not out.exists()


def test_unknown_weight_name_is_data_error(tmp_path, capsys):
    out, argv = infer_args(tmp_path, "--weight", "nosuchrule=50")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "nosuchrule" in err
    assert not out.exists()


def test_nonfinite_unary_logit_is_data_error(tmp_path, capsys):
    unary = tmp_path / "nan.unary"
    unary.write_text("smoke(A) 0 nan\n")
    out, argv = infer_args(tmp_path)
    argv[argv.index("--unary") + 1] = str(unary)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "line 1: non-finite logit" in err
    assert not out.exists()


@pytest.mark.parametrize("decl, premise, logits", [
    ("", "!p(a)", "1e308 -1e308"),
    (" labels {L0,L1,L2}", "!p(a) in {L1}", "1e308 -1e308 0")], ids=["binary", "3 labels"])
def test_overflowing_unary_label_spread_is_data_error(tmp_path, capsys, recwarn,
                                                      decl, premise, logits):
    rules, evidence, unary = (tmp_path / name for name in ("r.rules", "e.txt", "u.txt"))
    rules.write_text(f"predicate p(t){decl}\npredicate q(t)\n{premise} | q(a)\n")
    evidence.write_text("q(A)\n")
    unary.write_text(f"p(A) {logits}\n")
    code, out, err = run(capsys, "infer", "--rules", str(rules), "--evidence", str(evidence),
                         "--unary", str(unary))
    assert code == 2 and out == ""
    assert err == "error: unary table p: the label logits of a cell differ by more than " \
                  "a float64 holds\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("score", ["nan", "inf", "-1e400"])
def test_nonfinite_prediction_score_is_data_error(tmp_path, capsys, score):
    rules, preds, truth = (tmp_path / name for name in ("r.rules", "p.txt", "t.txt"))
    rules.write_text("predicate smoke(person)\n")
    preds.write_text(f"smoke(A) 0.9\nsmoke(B) {score}\n")
    truth.write_text("smoke(A)\n!smoke(B)\n")
    code, _, err = run(capsys, "aucpr", "--rules", str(rules),
                       "--predictions", str(preds), "--truth", str(truth))
    assert code == 2
    assert "line 2: non-finite score" in err


@pytest.mark.parametrize("atom", ["friend(A,,B)", "friend(,A)", "cancer(B,)"])
def test_empty_atom_argument_is_data_error(tmp_path, capsys, atom):
    evidence = tmp_path / "bad.evidence"
    evidence.write_text(f"friend(B,A)\n{atom}\n")
    out, argv = infer_args(tmp_path)
    argv[argv.index("--evidence") + 1] = str(evidence)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"line 2: malformed atom {atom!r}" in err
    assert not out.exists()


def test_bad_weight_flag_is_usage_error(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    argv += ["--weight", "f1"]
    code, _, err = run(capsys, *argv)
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1e400", "x"])
def test_nonfinite_weight_flag_is_usage_error(tmp_path, capsys, value):
    out, argv = infer_args(tmp_path, "--weight", f"f1={value}")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert f"bad weight value in 'f1={value}'" in err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "1e400"])
def test_nonfinite_rule_weight_is_data_error(tmp_path, capsys, weight):
    rules = tmp_path / "w.rules"
    text = (DATA / "smoke.rules").read_text()
    rules.write_text(text + f"{weight}: smoke(a)\n")
    out, argv = infer_args(tmp_path)
    argv[argv.index("--rules") + 1] = str(rules)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"line {len(text.splitlines()) + 1}, column 1: rule weight must be finite, got '{weight}'" in err
    assert not out.exists()


@pytest.mark.parametrize("fmt,want", [("csv", ""), ("json", "[]\n")])
def test_query_file_without_atoms_gives_empty_report(tmp_path, capsys, fmt, want):
    queries = tmp_path / "empty.queries"
    queries.write_text("# no atoms\n\n")
    out, argv = infer_args(tmp_path, "--queries", str(queries), "--format", fmt)
    assert run(capsys, *argv)[0] == 0
    assert out.read_text() == want


def test_plan_reports_chain_costs(tmp_path, capsys):
    rules = tmp_path / "chain.rules"
    rules.write_text("predicate r1(t,t)\npredicate r2(t,t)\npredicate r3(t,t)\n"
                     "predicate r4(t,t)\n"
                     "r1(a,b) & r2(b,c) & r3(c,d) => r4(a,d)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "10")
    assert code == 0
    assert "ab,bc->ac kernel=gemm cost=1000" in out
    assert "naive=10000 optimized=2000 ratio=5.0" in out
    assert "M'=3" in out


def test_plan_reports_largest_intermediate_bytes(tmp_path, capsys):
    rules = tmp_path / "mixed.rules"
    rules.write_text("predicate r1(t,t)\npredicate r2(t,t)\npredicate r3(t,t)\n"
                     "predicate r4(t,t)\npredicate s(t)\n"
                     "r1(a,b) & r2(b,c) & r3(c,d) => r4(a,d)\ns(a)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "10")
    assert code == 0
    chunks = {chunk.split("\n", 1)[0]: chunk for chunk in out.split("# rule")[1:]}
    # every step of the chain yields a 10 x 10 float64 table
    chain = chunks[" f1 clause f1 -> r4 (labels [1]), spec ab,bc,cd->ad"]
    assert "M'=3 total_cost=2000 naive_cost=10000 reducible=yes " \
           "max_intermediate_bytes=800\n" in chain
    unit = chunks[" f2 clause f2 -> s (labels [1]), spec ->a"]
    assert "max_intermediate_bytes=0\n" in unit


def test_plan_flags_irreducible(tmp_path, capsys):
    rules = tmp_path / "hard.rules"
    rules.write_text("predicate r1(t,t,t,t)\npredicate r2(t,t)\npredicate r3(t,t)\n"
                     "predicate r4(t,t)\npredicate r0(t,t)\n"
                     "r1(a,b,c,d) & r2(b,c) & r3(c,d) & r4(a,d) => r0(a,c)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "4")
    assert code == 0
    target = [chunk for chunk in out.split("# rule") if "-> r0" in chunk]
    assert target and "M'=4" in target[0] and "reducible=no" in target[0]


def test_plan_unit_clause_zero_cost(tmp_path, capsys):
    rules = tmp_path / "unit.rules"
    rules.write_text("predicate s(t)\ns(a)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules))
    assert code == 0
    assert "total_cost=0" in out


@pytest.mark.parametrize("name", ["transitivity", "kbc"])
def test_plan_output_matches_golden_bytes(tmp_path, capsys, workloads, name):
    # an expanded literal prints as its two implications, each header marked
    # with its coefficient and, for a product of q1 with its own transpose,
    # "symmetric"
    rules = tmp_path / f"{name}.rules"
    rules.write_text(getattr(workloads, f"{name.upper()}_RULES"))
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "8")
    assert code == 0
    assert out == (DATA / f"plan-{name}.txt").read_text()


def test_plan_lists_the_ones_plan_steps(tmp_path, capsys):
    rules = tmp_path / "side.rules"
    rules.write_text("predicate r(e)\npredicate p(e,e)\npredicate t(e,e,e)\n"
                     "!r(a) | !p(a,b) | t(a,b,c)\n!r(a) | t(a,E1,c)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "10")
    assert code == 0
    # the t premise, read as q1, then the ones term over the other premise
    assert "# rule f1 clause f1 -> r (labels [0]), spec ab,abc->a x -1\n" \
           "ab,abc->a kernel=einsum cost=1000\n" in out
    assert "# rule f1 clause f1 -> r (labels [0]), spec ab->a x 10\n" \
           "ab->a kernel=einsum cost=100\n" in out
    # a constant argument is sliced away; no premise is left for the ones term
    assert "# rule f2 clause f2 -> r (labels [0]), spec ab->a x -1\n" in out
    assert "# rule f2 clause f2 -> r (labels [0]), spec ->a x 10\nM'=0 total_cost=0 " in out


def test_plan_sums_private_letters_first(tmp_path, capsys):
    rules = tmp_path / "private.rules"
    rules.write_text("predicate r(e)\npredicate p(e,e)\npredicate t(e,e,e)\n"
                     "!r(a) | !p(a,b) | t(a,E1,c)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "10")
    assert code == 0
    assert out.startswith("# rule f1 clause f1 -> r (labels [0]), spec ab,ac->a\n"
                          "ab->a kernel=einsum cost=100\n"
                          "ac->a kernel=einsum cost=100\n"
                          "a,a->a kernel=einsum cost=10\n"
                          "M'=2 total_cost=210 ")


def test_weight_ids_count_a_dropped_tautological_line(tmp_path, capsys):
    rules = tmp_path / "gap.rules"
    rules.write_text("predicate smoke(person)\npredicate cancer(person)\n"
                     "smoke(a) | !smoke(a)\nsmoke(a)\n3.0: !smoke(a) | cancer(a)\n")
    evidence = tmp_path / "gap.evidence"
    evidence.write_text("smoke(Ann)\n")
    argv = ["infer", "--rules", str(rules), "--evidence", str(evidence)]
    with pytest.warns(RuleWarning, match=r"\(f1\)"):
        assert run(capsys, *argv, "--weight", "f3=0")[0] == 0
        code, _, err = run(capsys, *argv, "--weight", "f1=0")
    assert code == 2 and "unknown rule id f1" in err


def test_demo_command(capsys):
    code, out, _ = run(capsys, "demo-transitivity", "--tokens", "16",
                       "--noise", "0.1", "--seed", "1", "--iterations", "3")
    assert code == 0
    assert "violations:" in out and "cell accuracy:" in out


def test_demo_rejects_tiny_token_count(capsys):
    code, _, err = run(capsys, "demo-transitivity", "--tokens", "2")
    assert code == 1


def test_aucpr_command(tmp_path, capsys):
    rules = tmp_path / "r.rules"
    rules.write_text("predicate hit(x)\n hit(a)\n")
    preds = tmp_path / "p.txt"
    preds.write_text("hit(A) 0.9\nhit(B) 0.8\nhit(C) 0.7\nhit(D) 0.6\n")
    truth = tmp_path / "t.txt"
    truth.write_text("hit(A)\n!hit(B)\nhit(C)\n!hit(D)\n")
    code, out, _ = run(capsys, "aucpr", "--rules", str(rules),
                       "--predictions", str(preds), "--truth", str(truth))
    assert code == 0
    assert out.strip() == f"{0.5 + 1/3:.9f}"


def test_aucpr_mismatched_atoms(tmp_path, capsys):
    rules = tmp_path / "r.rules"
    rules.write_text("predicate hit(x)\nhit(a)\n")
    preds = tmp_path / "p.txt"
    preds.write_text("hit(A) 0.9\n")
    truth = tmp_path / "t.txt"
    truth.write_text("hit(A)\n!hit(B)\n")
    code, _, err = run(capsys, "aucpr", "--rules", str(rules),
                       "--predictions", str(preds), "--truth", str(truth))
    assert code == 2
    assert "differ" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--trials", "5", "--seed", "0")
    assert code == 0
    assert "worst gap" in out


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
