"""The benchmark tracer patches einlog entry points by name; a renamed or
moved entry point would silently zero its per-layer metrics."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_tracer_target_resolves():
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == []
