"""Benchmark of whole ``comfnet`` CLI calls on four workloads.

    python3 perfbench/run.py --workload hicom-wide --seed 1 --seconds 20 --trace 0

Run from the repository root; comfnet is imported from ``src/``. One op is
one in-process ``comfnet.cli.run([...])`` call with stdout captured, so it
covers everything a CLI user waits for except interpreter start-up. A run
sets up, then repeats whole rounds (every case of the workload once, each
on a fresh seeded vertex relabelling) until ``--seconds`` have passed, then
checks every output independently. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the first round runs with spans around comfnet's public functions and
yields the per-layer metrics; the second round runs the same inputs
untraced, and ``trace.overhead_pct`` compares the two.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, corpus_union, relabel  # noqa: E402

SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median of 7

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, span name(s), what it reads: span calls, span
# self time, or a counter the span's wrapper adds up). layer_metrics adds
# hicom.repair_removed and oracle.enumerated from the ops' JSON output, and
# trace.overhead_pct.
PER_LAYER = {
    "graphs.parse_s": ("s", "graphs.parse_edge_list", "self"),
    "graphs.apsp_s": ("s", "graphs.all_pairs_distances", "self"),
    "graphs.apsp_calls": ("count", "graphs.all_pairs_distances", "calls"),
    "graphs.bfs_sources": ("count", "graphs.all_pairs_distances", "graphs.bfs_sources"),
    "graphs.ecc_profile_calls": ("count", "graphs.eccentricity_profile", "calls"),
    "graphs.ecc_profile_s": ("s", "graphs.eccentricity_profile", "self"),
    "criteria.induced_metrics_calls": ("count", "criteria.induced_metrics", "calls"),
    "criteria.induced_metrics_s": ("s", "criteria.induced_metrics", "self"),
    "criteria.induced_bfs_sources": ("count", "criteria.induced_metrics", "criteria.induced_bfs_sources"),
    "criteria.domination_radius_calls": ("count", "criteria.domination_radius", "calls"),
    "criteria.domination_radius_s": ("s", "criteria.domination_radius", "self"),
    "criteria.check_hc_s": ("s", "criteria.check_hc", "self"),
    "criteria.subset_profile_calls": ("count", "criteria.profile", "calls"),
    "criteria.subset_profile_s": ("s", "criteria.profile", "self"),
    "hicom.hicom_self_s": ("s", "hicom.hicom", "self"),
    "hicom.extend_step_calls": ("count", "hicom.extend_step", "calls"),
    "hicom.extend_step_s": ("s", "hicom.extend_step", "self"),
    "hicom.repair_calls": ("count", "hicom.repair", "calls"),
    "hicom.repair_s": ("s", "hicom.repair", "self"),
    "hicom.verify_k_bound_s": ("s", "hicom.verify_k_bound", "self"),
    "oracle.scan_s": ("s", ("oracle.exact_min_team", "oracle.exact_max_team", "oracle.exact_min_cds"), "self"),
    "cli.run_self_s": ("s", "cli.run", "self"),
    "cli.serialize_s": ("s", "cli._emit", "self"),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no src/comfnet)."""


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import comfnet.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import comfnet from {src}: {exc}") from None
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"comfnet was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """One workload in one process: its inputs, ops and raw outputs."""

    def __init__(self, name, seed):
        self.cli = import_cli()
        self.workload = WORKLOADS[name]()
        self.rng = random.Random(f"relabel-{name}-{seed}")
        self.work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.records = []  # (case index, perm, argv, exit code, stdout) per op
        self.rounds = 0

    def prepare(self, cases):
        """Relabel and write one round's inputs; returns (perm, argv) per case."""
        self.rounds += 1
        out = []
        for i, case in enumerate(cases):
            perm, text = relabel(case.n, case.edges, self.rng)
            path = self.work / f"r{self.rounds}-{i}.txt"
            path.write_text(text)
            out.append((perm, [*case.command, str(path)]))
        return out

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(argv)
        return code, buf.getvalue()

    def setup(self):
        """Inputs of the first round, then one warm-up op on a small input."""
        inputs = self.prepare(self.workload.cases)
        ((_, argv),) = self.prepare([self.workload.warmup])
        self.call(argv)
        return inputs

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def timed_rounds(runner, inputs, seconds, tracer=None):
    """Whole rounds for about ``seconds``; returns seconds per op and per
    round. With a tracer, round one is traced and round two runs the same
    inputs untraced, as the baseline for the tracing overhead."""
    op_times, round_times = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and not round_times
        if traced:
            tracer.install()
        round_s = 0.0
        for i, (perm, argv) in enumerate(inputs):
            gc.collect()
            begin = time.perf_counter()
            code, out = tracer.op(i, runner.call, argv) if traced else runner.call(argv)
            elapsed = time.perf_counter() - begin
            op_times.append(elapsed)
            round_s += elapsed
            runner.records.append((i, perm, argv, code, out))
        if traced:
            tracer.uninstall()
        round_times.append(round_s)
        # stop at the round boundary nearest to ``seconds``
        half_round = sum(round_times) / len(round_times) / 2
        enough = len(round_times) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start + half_round >= seconds:
            return op_times, round_times
        if not traced:
            inputs = runner.prepare(runner.workload.cases)


# --- independent checks --------------------------------------------------------

def oracle_kind(command):
    if command[1] == "min":
        return command[command.index("--kind") + 1]
    return {"max": "hc-max", "cds": "cds"}[command[1]]


def base_of(perm):
    """Map an output label 'v<i+1>' of a relabelled input to its base vertex."""
    inverse = [0] * len(perm)
    for base, new in enumerate(perm):
        inverse[new] = base
    return lambda label: inverse[int(label[1:]) - 1]


class Checker:
    """Checks every recorded op of a run; counts failed ops and collects
    the messages of wrong outputs."""

    def __init__(self, runner):
        import checks

        checks.self_test()
        self.checks = checks
        self.runner = runner
        self.hosts = {}
        self.brute = {}
        self.parts = None  # corpus graphs, loaded on first use
        self.failed = 0
        self.errors = []

    def host(self, key, n, edges):
        if key not in self.hosts:
            self.hosts[key] = self.checks.Host(n, edges)
        return self.hosts[key]

    def run(self):
        cases = self.runner.workload.cases
        for op, (i, perm, _, code, out) in enumerate(self.runner.records):
            case = cases[i]
            where = f"op {op} ({case.name})"
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                payload = {"error": "output is not JSON"}
            if "error" in payload:
                self.failed += 1
                self.errors.append(f"{where}: exit {code}, {payload['error']}")
                continue
            try:
                if case.command[0] == "oracle":
                    self.oracle(i, case, payload, code, perm, where)
                elif "components" in payload:
                    self.corpus(payload, code, perm, where)
                else:
                    self.checks.require(code == 0, f"{where}: exit {code}")
                    self.checks.check_hicom(self.host(i, case.n, case.edges), payload, base_of(perm), where)
            except self.checks.CheckError as exc:
                self.errors.append(str(exc))
        self.oracle_against_hicom()
        return self

    def oracle(self, i, case, payload, code, perm, where):
        kind = oracle_kind(case.command)
        host = self.host(i, case.n, case.edges)
        if (i, kind) not in self.brute:
            self.brute[i, kind] = self.checks.brute_force(case.n, case.edges, kind, host)
        self.checks.check_oracle(host, kind, payload, code, base_of(perm), self.brute[i, kind], where)

    def corpus(self, payload, code, perm, where):
        """One pass over the corpus union: every graph is found whole and
        gets a checked team."""
        if self.parts is None:
            self.parts = corpus_union()[2]
            self.owner = [p for p, (_, n, _) in enumerate(self.parts) for _ in range(n)]
        to_base = base_of(perm)
        entries = payload["components"]
        errored = [e for e in entries if "result" not in e]
        if errored:
            self.failed += 1
            self.errors.append(f"{where}: {len(errored)} graphs failed: {errored[0].get('error')}")
            return
        self.checks.require(code == 0, f"{where}: exit {code}")
        self.checks.require(len(entries) == len(self.parts), f"{where}: {len(entries)} components")
        for entry in entries:
            vertices = sorted(to_base(label) for label in entry["vertices"])
            p = self.owner[vertices[0]]
            offset, n, edges = self.parts[p]
            self.checks.require(vertices == list(range(offset, offset + n)), f"{where}: graph {p} split")
            host = self.host(("part", p), n, edges)
            local = lambda label, offset=offset: to_base(label) - offset  # noqa: E731
            self.checks.check_hicom(host, entry["result"], local, f"{where} graph {p}")

    def oracle_against_hicom(self):
        """Where the brute force finds an HC team, min-HC <= |HICOM team| <=
        max-HC. HICOM runs here, outside the timed ops, on each case's
        first input, and its team is checked like any other."""
        first = {}
        for i, perm, argv, _, _ in self.runner.records:
            first.setdefault(i, (perm, argv))
        for i, case in enumerate(self.runner.workload.cases):
            if case.command[0] != "oracle" or oracle_kind(case.command) not in ("hc", "hc-max"):
                continue
            kind = oracle_kind(case.command)
            optimum, _ = self.brute[i, kind]
            if optimum is None:
                continue
            perm, argv = first[i]
            code, out = self.runner.call(["hicom", "--l", "3/2", argv[-1]])
            where = f"hicom on {case.name}"
            try:
                self.checks.require(code == 0, f"{where}: exit {code} where an HC team exists")
                size = self.checks.check_hicom(self.hosts[i], json.loads(out), base_of(perm), where)
                if kind == "hc":
                    self.checks.require(optimum <= size, f"{where}: min-HC {optimum} > HICOM {size}")
                else:
                    self.checks.require(size <= optimum, f"{where}: max-HC {optimum} < HICOM {size}")
            except self.checks.CheckError as exc:
                self.errors.append(str(exc))


# --- metrics and the result line ----------------------------------------------

def layer_metrics(tracer, traced_outputs, round_times):
    """Per-layer metrics of the traced round. A metric whose traced
    function no longer exists in comfnet is left out (absent)."""
    totals = tracer.totals()
    metrics = {}
    for metric, (unit, spans, field) in PER_LAYER.items():
        spans = (spans,) if isinstance(spans, str) else spans
        if not any(s in tracer.installed for s in spans):
            continue
        if field == "calls":
            value = sum(totals.get(s, (0, 0.0))[0] for s in spans)
        elif field == "self":
            value = sum(totals.get(s, (0, 0.0))[1] for s in spans)
        else:
            value = tracer.counts.get(field, 0)
        metrics[metric] = {"value": value, "unit": unit}
    results = []
    for payload in traced_outputs:
        results.extend(e["result"] for e in payload.get("components", []) if "result" in e)
        if "trace" in payload or "enumerated" in payload:
            results.append(payload)
    removed = sum(step["op"] == "repair" for r in results for step in r.get("trace", ()))
    enumerated = sum(r.get("enumerated") or 0 for r in results)
    metrics["hicom.repair_removed"] = {"value": removed, "unit": "count"}
    metrics["oracle.enumerated"] = {"value": enumerated, "unit": "count"}
    overhead = 100.0 * (round_times[0] / round_times[1] - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def probe_setup(args):
    """One full set-up in a fresh interpreter; returns its seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    try:
        runner = Runner(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        inputs = runner.setup()
        setup_s = time.perf_counter() - begin
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer() if args.trace else None
        phases = {"setup": setup_s}
        mark = time.perf_counter()
        op_times, round_times = timed_rounds(runner, inputs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases["measure"] = time.perf_counter() - mark
        mark = time.perf_counter()
        checker = Checker(runner).run()
        phases["check"] = time.perf_counter() - mark
        mark = time.perf_counter()
        if tracer is None:
            phases["setups"] = setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = {
                "ops_per_s": len(op_times) / sum(op_times),
                "op_p50_ms": 1000.0 * statistics.median(op_times),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        else:
            per_round = len(runner.workload.cases)
            traced = [json.loads(out) for *_, out in runner.records[:per_round]]
            metrics = layer_metrics(tracer, traced, round_times)
        phases["probes"] = time.perf_counter() - mark
    finally:
        runner.close()

    for message in checker.errors[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {
        "correct": not checker.errors,
        "attempted": len(op_times),
        "failed": checker.failed,
        "metrics": metrics,
    }
    cases = runner.workload.cases
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(round_times),
        "round_s": round_times,
        "phase_s": phases,
        "op_s": [[cases[r[0]].name, t] for r, t in zip(runner.records, op_times)],
        "errors": checker.errors,
        **({"trace": tracer.to_json()} if tracer else {}),
        "result": result,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
