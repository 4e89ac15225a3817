"""Every function the benchmark's tracer wraps still exists in comfnet.

``perfbench/tracing.py`` names its targets as ``(home module, attribute)``
pairs in ``TRACED`` and reports a name it cannot find as absent, which the
traced benchmark run refuses. This reads that table without running the
benchmark, so it needs neither scipy nor a timed run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return sorted(tracing.TRACED)


@pytest.mark.parametrize("home, attr", traced_names())
def test_traced_name_resolves(home, attr):
    target = importlib.import_module(home)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
