"""The einlog benchmark.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout.  The seed makes the workload's inputs
(``workloads.py``); a sequential-oracle cross-check of one iteration runs on
a reduced-size instance from the same generator.  Then, for about T seconds,
the benchmark starts one fresh process per repetition (``rep.py``), one at a
time, each timing set-up, solve and report once and checking its outputs.
What time is left after the last one that fits goes to set-up-only
repetitions, so that ``setup_s`` is a median over more cold set-ups.  Each
metric is the median over repetitions.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` traced and untraced repetitions alternate, the last line
carries the per-layer metrics, and the spans go to a JSON trace file under
``.perfbench-out/``.  A repetition whose correctness gate fails counts in
``failed``; ``correct`` is true when none did.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("transitivity", "kbc", "report")
REP_TIMEOUT_S = 120
DEADLINE_S = 150          # start no repetition that could end past this

# fields each repetition reports; the end-to-end metrics are their medians
SAMPLED = ("setup_s", "solve_s", "report_s", "total_s", "peak_rss_mb", "accuracy")


def _units(key: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _run_rep(folder: Path, mode: str, run_id: int,
             checked_digest: str | None = None) -> dict:
    """One ``rep.py`` process; ``mode`` is its TRACE argument."""
    traced = mode == "1"
    cmd = [sys.executable, "-B", str(HERE / "rep.py"), str(folder), mode,
           str(run_id)] + ([checked_digest] if checked_digest else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"timed out after {REP_TIMEOUT_S} s"],
                "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"traced": traced, "failures": tail, "wall_s": wall}
    return dict(json.loads(lines[-1]), wall_s=wall)


def _oracle_gap(workload: str, seed: int) -> float:
    import checks
    import workloads
    inst = workloads.make(workload, seed, workloads.REDUCED_N[workload])
    s = workloads.setup(inst, inst.texts.__getitem__)
    return checks.oracle_gap(s.rules, s.kb, s.phi)


def _run_record(workload: str, seed: int, n: int, iterations: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "n": n, "iterations": iterations,
            "numpy": numpy.__version__,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            n: int | None = None) -> tuple[dict, dict]:
    """Run repetitions for about ``seconds``; return (result, run record)."""
    import checks
    import workloads
    inst = workloads.make(workload, seed, n)
    record = _run_record(workload, seed, inst.n, inst.iterations)
    gap = _oracle_gap(workload, seed)
    record["oracle_gap"] = gap
    OUT.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    reps: list[dict] = []
    setups: list[dict] = []     # set-up-only repetitions
    try:
        inst.save(folder)
        modes = ("0", "1") if traced else ("0",)
        checked_digest = None
        start = time.perf_counter()
        while True:
            rep = _run_rep(folder, modes[len(reps) % len(modes)], len(reps),
                           checked_digest)
            reps.append(rep)
            if rep.get("full_gate") and not rep["failures"]:
                checked_digest = rep["digest"]
            # start another repetition only if the slowest so far still fits
            elapsed = time.perf_counter() - start
            slowest = max(r["wall_s"] for r in reps)
            if len(reps) >= len(modes) and elapsed + slowest > seconds:
                break
            if elapsed + slowest > DEADLINE_S:
                break
        while not traced:
            elapsed = time.perf_counter() - start
            if elapsed + max((r["wall_s"] for r in setups), default=0.0) > seconds:
                break
            setups.append(_run_rep(folder, "setup", len(reps) + len(setups)))
    finally:
        shutil.rmtree(folder, ignore_errors=True)

    timed = [r for r in reps if "total_s" in r]
    if gap > checks.ORACLE_TOL:
        for r in reps:
            r["failures"].append(f"reduced-size oracle gap {gap:.3e}")
    failed = sum(1 for r in reps + setups if r["failures"])
    plain = [r for r in timed if not r["traced"]]
    if not plain or (traced and not any(r["traced"] for r in timed)):
        raise RuntimeError("no repetition completed: "
                           + "; ".join(f for r in reps for f in r["failures"]))
    e2e = {m: median(r[m] for r in plain) for m in SAMPLED}
    setup_only = [r["setup_s"] for r in setups if "setup_s" in r]
    e2e["setup_s"] = median([r["setup_s"] for r in plain] + setup_only)
    record.update(repetitions=len(reps), failures=[r["failures"] for r in reps + setups],
                  setup_only_s=setup_only,
                  full_gates=sum(1 for r in reps if r.get("full_gate")),
                  samples={m: [r[m] for r in timed] for m in SAMPLED},
                  traced_flags=[r["traced"] for r in timed])

    if traced:
        metrics = _layer_metrics([r for r in timed if r["traced"]], e2e)
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "record": record, "metrics": metrics,
            "absent": sorted({a for r in timed if r["traced"] for a in r["absent"]}),
            "spans_fields": ["name", "start_s", "end_s", "parent", "run", "counts"],
            "spans": [sp for r in timed if r["traced"] for sp in r["spans"]],
        }), encoding="utf-8")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = e2e
    units = _units("per_layer" if traced else "end_to_end")
    result = {"correct": failed == 0, "attempted": len(reps) + len(setups),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, record


def _layer_metrics(traced_reps: list[dict], e2e: dict) -> dict:
    metrics = {k: median(r["layers"][k] for r in traced_reps)
               for k in traced_reps[0]["layers"]}
    metrics.update(traced_reps[0]["counts"])
    metrics["planner.rate"] = (metrics["planner.flops"] / metrics["planner.execute_s"]
                               if metrics["planner.execute_s"] > 0 else 0.0)
    metrics["trace.total_s"] = median(r["total_s"] for r in traced_reps)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - e2e["total_s"]
    metrics["trace.untraced_solve_s"] = e2e["solve_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "einlog" / "__init__.py").is_file():
        print(f"perfbench: no einlog sources at {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, record = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
