"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload through the whole benchmark at its reduced size and
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the computed counts repeat exactly, that only outputs byte-identical to
an already checked repetition skip the whole gate, that perturbed marginals
fail the correctness gate, and that a traced run completes when a wrapped
function is missing.  Prints one PASS/FAIL line per check and exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread pins before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import einlog  # noqa: E402
import einlog.io  # noqa: E402
import rep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILED.append(what)


def metrics_match_spec(spec: dict) -> None:
    for workload in run.WORKLOADS:      # the gated ones and `report`
        n = workloads.REDUCED_N[workload]
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            what = f"{workload} --trace {int(traced)} emits every {key} metric, all checks pass"
            try:
                result, _ = run.measure(workload, 0, 0, traced, n)
            except KeyError as exc:
                check(False, f"{what} (not computed: {exc})")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"] and got == want, what)


def counts_repeat(folder: Path) -> None:
    first, second = (rep.measure(folder, True, run_id) for run_id in (0, 1))
    check(first["counts"] == second["counts"] and first["counts"]["planner.flops"] > 0,
          "computed counts repeat exactly between traced runs")


def gate_reuse(folder: Path) -> None:
    first = rep.measure(folder, False, 0)
    same = rep.measure(folder, False, 1, checked_digest=first["digest"])
    other = rep.measure(folder, False, 2, checked_digest="0" * 64)
    check(first["full_gate"] and not first["failures"] and same["digest"] == first["digest"]
          and not same["full_gate"] and other["full_gate"] and not other["failures"],
          "a repetition skips the whole gate only for outputs an earlier one passed")
    check(rep.measure_setup(folder)["setup_s"] > 0,
          "a set-up-only repetition times the set-up")


def perturbed_marginals_fail(inst: workloads.Instance, folder: Path) -> None:
    s = workloads.setup(inst, inst.texts.__getitem__)
    result = einlog.run_inference(s.rules, s.kb, s.phi,
                                  einlog.EngineConfig(iterations=inst.iterations))
    check(not checks.marginal_failures(result, s.kb), "unperturbed marginals pass")

    bad = result.copy()
    bad.tables["rel"][0, 1] = [0.7, 0.7]
    check(bool(checks.marginal_failures(bad, s.kb)), "marginals not summing to 1 fail")

    bad = result.copy()
    (name, args), label = next(iter(s.kb.observations.items()))
    bad.tables[name][args] = np.roll(bad.tables[name][args], 1)
    check(bool(checks.marginal_failures(bad, s.kb)), "an observed cell off its evidence fails")

    path = folder / "perturbed.csv"
    path.write_text(einlog.io.format_marginals_csv(result, s.kb, s.queries), encoding="utf-8")
    check(not checks.csv_failures(path, result, s.kb, s.queries), "report parses back")
    bad = result.copy()
    bad.tables["rel"] += 1e-6
    check(bool(checks.csv_failures(path, bad, s.kb, s.queries)),
          "report that differs from the marginals fails")

    logits = np.zeros((4, 4, 2))
    logits[..., 1] = np.arange(16).reshape(4, 4) % 3 - 1.0
    want = checks.transitivity_reference(logits, 2)
    kb = einlog.KnowledgeBase([f"E{i}" for i in range(4)],
                              einlog.parse_rules(workloads.TRANSITIVITY_RULES).predicates, {})
    got = einlog.run_inference(einlog.parse_rules(workloads.TRANSITIVITY_RULES), kb,
                               einlog.UnaryTable({"coexist": logits}),
                               einlog.EngineConfig(iterations=2)).tables["coexist"]
    check(float(abs(got - want).max()) <= checks.ORACLE_TOL,
          "matmul reference agrees with the engine")
    check(float(abs(checks.transitivity_reference(logits, 2, weight=1.1) - got).max())
          > checks.ORACLE_TOL, "matmul reference tells a changed weight apart")


def missing_function_is_absent(folder: Path) -> None:
    removed = "tensor.broadcast"
    targets = tuple((name, module, path + "_removed" if name == removed else path, counter)
                    for name, module, path, counter in tracing.TARGETS)
    record = rep.measure(folder, True, 0, targets)
    check(record["absent"] == [removed] and not record["failures"]
          and record["layers"]["planner.execute_s"] > 0,
          "traced run completes and reports a missing function as absent")
    check(not hasattr(einlog.planner.execute, "__wrapped__")
          and not hasattr(einlog.engine.message, "__wrapped__"),
          "tracer restores the patched functions")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_match_spec(spec)
    run.OUT.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        inst = workloads.make("kbc", 0, workloads.REDUCED_N["kbc"])
        inst.save(folder)
        counts_repeat(folder)
        gate_reuse(folder)
        perturbed_marginals_fail(inst, folder)
        missing_function_is_absent(folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
