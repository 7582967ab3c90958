import json
from pathlib import Path

import pytest

from einlog.cli import main

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


def test_infer_oracle_crosscheck_passes(tmp_path, capsys):
    _, argv = infer_args(tmp_path, "--oracle")
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "oracle cross-check" in err


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
    assert "non-finite" in err
    assert not out.exists()


def test_bad_weight_flag_is_usage_error(tmp_path, capsys):
    _, argv = infer_args(tmp_path)
    argv += ["--weight", "f1"]
    code, _, err = run(capsys, *argv)
    assert code == 1


def test_plan_reports_chain_costs(tmp_path, capsys):
    rules = tmp_path / "chain.rules"
    rules.write_text("predicate r1(t,t)\npredicate r2(t,t)\npredicate r3(t,t)\n"
                     "predicate r4(t,t)\n"
                     "r1(a,b) & r2(b,c) & r3(c,d) => r4(a,d)\n")
    code, out, _ = run(capsys, "plan", "--rules", str(rules), "--entities", "10")
    assert code == 0
    assert "ab,bc->ac cost=1000" in out
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
