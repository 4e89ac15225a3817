"""Repeat the benchmark and print each end-to-end metric's spread against
its bound.

    python3 perfbench/spread.py                       # 10 seeds, every workload
    python3 perfbench/spread.py --seeds 1-5 --workloads oracle-proof

Run from the repository root. Each run is the command in BENCHMARK.json
with ``--trace 0`` and the run length given there. The spread of a metric
is the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark counts as steady when every spread other than that of
``setup_s`` stays under a third of the metric's bound. A summary is
written to perfbench/results/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3 or name == "setup_s"
            steady = steady and ok
            print(f"  {name:12s} median {median:12.4f} {metric['unit']:4s} spread {spread:7.2%} "
                  f"bound {metric['bound']:.0%}  {'ok' if ok else 'TOO WIDE'}")
            summary[workload][name] = {"values": values, "median": median, "spread": spread,
                                       "bound": metric["bound"]}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "spread.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
