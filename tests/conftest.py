import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from pathlib import Path

import pytest

import einlog as E
from einlog import parallel, planner

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def smoke_rules():
    return E.parse_rules((DATA / "smoke.rules").read_text())


@pytest.fixture(scope="session")
def smoke_kb(smoke_rules):
    return E.load_evidence((DATA / "smoke.evidence").read_text(), smoke_rules.predicates)


@pytest.fixture(scope="session")
def smoke_phi(smoke_kb):
    from einlog.io import load_unary
    return load_unary((DATA / "smoke.unary").read_text(), smoke_kb)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, for its rule texts."""
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "perfbench"))
    import workloads
    return workloads


@pytest.fixture
def split_products(monkeypatch):
    """Every matrix product split over the calling thread and the helper
    (two workers, floor 0)."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(planner, "_SPLIT_FLOPS", 0)


@pytest.fixture
def splits(monkeypatch):
    """A list that gets one entry per ``parallel.run`` call, the block pair
    of one split."""
    calls = []
    run = parallel.run

    def recording(first, second):
        calls.append((first, second))
        return run(first, second)

    monkeypatch.setattr(parallel, "run", recording)
    return calls
