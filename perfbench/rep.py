"""One repetition of a workload in a fresh process.

    python3 perfbench/rep.py DIR TRACE RUN_ID [CHECKED_DIGEST]

DIR holds an instance written by ``workloads.Instance.save``; TRACE is 0,
1, or ``setup`` to time the set-up alone; RUN_ID tags the spans of a traced
repetition.  Imports happen before
timing starts and nothing is warmed up, because ``einlog infer`` is a
one-shot command whose users pay the cold cost on every call.  The
correctness gate runs after the timed region and after the peak RSS is read.
CHECKED_DIGEST is the output digest of an earlier repetition of the same
instance that passed the whole gate; outputs with that digest are the same
bytes, so only the cheap marginal checks run again.  Any other output gets
the whole gate.  The last line of stdout is one JSON record.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import einlog as E  # noqa: E402
import einlog.io  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _reader(folder: Path):
    def read(role: str) -> str:
        return (folder / f"{role}.txt").read_text(encoding="utf-8")
    return read


def measure_setup(folder: Path) -> dict:
    """Set up once, cold, exactly as ``measure`` does, and nothing else."""
    inst = workloads.Instance.load(folder)
    read = _reader(folder)
    t0 = time.perf_counter()
    workloads.setup(inst, read)
    return {"setup_s": time.perf_counter() - t0, "failures": []}


def measure(folder: Path, traced: bool, run_id: int = 0, targets=tracing.TARGETS,
            checked_digest: str | None = None) -> dict:
    """Set up, solve and report once; then check the outputs."""
    inst = workloads.Instance.load(folder)
    report_path = folder / f"report-{os.getpid()}-{run_id}.csv"
    read = _reader(folder)
    tracer = tracing.Tracer(run_id, targets) if traced else contextlib.nullcontext()
    with tracer:
        t0 = time.perf_counter()
        s = workloads.setup(inst, read)
        t1 = time.perf_counter()
        result = E.run_inference(s.rules, s.kb, s.phi,
                                 E.EngineConfig(iterations=inst.iterations))
        t2 = time.perf_counter()
        report_path.write_text(einlog.io.format_marginals_csv(result, s.kb, s.queries),
                               encoding="utf-8")
        t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = checks.marginal_failures(result, s.kb)
    digest = checks.output_digest(result, report_path.read_bytes())
    full_gate = digest != checked_digest
    if full_gate:
        failures += checks.csv_failures(report_path, result, s.kb, s.queries)
        if inst.workload == "transitivity":
            want = checks.transitivity_reference(inst.unary_arrays["coexist"],
                                                 inst.iterations)
            gap = float(abs(result.tables["coexist"] - want).max())
            if gap > checks.ORACLE_TOL:
                failures.append(f"matmul reference deviates by {gap:.3e}")
    report_path.unlink()

    record = {
        "setup_s": t1 - t0, "solve_s": t2 - t1, "report_s": t3 - t2,
        "total_s": t3 - t0, "peak_rss_mb": peak_rss_mb,
        "accuracy": checks.accuracy(result, s.kb, inst.truth),
        "failures": failures, "traced": traced, "digest": digest, "full_gate": full_gate,
    }
    if traced:
        layers, counts = tracing.layer_metrics(tracer.spans, (t1, t2))
        record.update(layers=layers, counts=counts, absent=tracer.absent,
                      spans=[[sp.name, sp.start - t0, sp.end - t0, sp.parent, sp.run,
                              sp.counts] for sp in tracer.spans])
    return record


def main(argv: list[str]) -> int:
    folder, mode, run_id = Path(argv[0]), argv[1], int(argv[2])
    checked_digest = argv[3] if len(argv) > 3 else None
    if mode == "setup":
        print(json.dumps(measure_setup(folder)))
    else:
        print(json.dumps(measure(folder, mode == "1", run_id,
                                 checked_digest=checked_digest)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
