import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from pathlib import Path

import pytest

import einlog as E

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
