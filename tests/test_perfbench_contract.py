"""The benchmark's output contract, on a short run of hicom-wide.

``perfbench/run.py`` must end its stdout with one strict-JSON result line
(no NaN or Infinity), whether or not it traces: any op output that escaped
the per-op ``redirect_stdout``, such as text written through a stream bound
at import or flushed at exit, would land after it. The traced run must also
find every function its tracer wraps. The benchmark runs from a copy of
``perfbench/`` beside a link to ``src/``, so its results and work files stay
out of the tree. scipy is what the benchmark's checks import, so the module
is skipped where it is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent


def reject(constant):
    raise ValueError(f"result line holds {constant}")


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_ends_in_a_strict_result_line(bench_root, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hicom-wide", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=bench_root, env={"PATH": "/usr/bin:/bin"}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 5
    if trace:
        detail = json.loads((bench_root / "perfbench" / "results" / "hicom-wide-seed1-trace1.json").read_text())
        assert detail["trace"]["absent"] == []
