"""Acceptance suite: one test per criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The corpus (all small trees of diameter >= 3, cycles C7..C30, and 200
fixed connected G(n, p) samples) is built once per session.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from comfnet import (
    Graph,
    all_pairs_distances,
    check_bc,
    check_hc,
    connected_gnp,
    cycle_graph,
    exact_min_team,
    graph_power,
    hicom,
    is_comfortable,
    path_graph,
    ratio_experiment,
    reduction_witness,
    self_centered_direct_substitution,
    serialize_edge_list,
    two_hc_feasibility,
    verify_k_bound,
)
from comfnet.cli import main as cli_main
from comfnet.corpus import standard_corpus
from comfnet.generators import iter_connected_graphs
from comfnet.oracle import bound_sweep

L32 = Fraction(3, 2)


def verdict(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def corpus_graphs():
    return standard_corpus()


@pytest.fixture(scope="module")
def small_corpus_graphs(corpus_graphs):
    return [g for g in corpus_graphs if g.n <= 12]


@pytest.fixture(scope="module")
def existence_runs(corpus_graphs):
    begin = time.perf_counter()
    results = [hicom(g, L32) for g in corpus_graphs]
    return results, time.perf_counter() - begin


def test_criterion_1_minimum_comfortable_team_of_p6():
    begin = time.perf_counter()
    p6 = path_graph(6)
    answer = exact_min_team(p6, "comfortable")
    elapsed = time.perf_counter() - begin
    assert answer.optimum == 4
    assert answer.witness == (1, 2, 3, 4)
    assert is_comfortable(p6, answer.witness)
    assert elapsed < 1.0
    verdict(1, f"minimum comfortable team of the 6-path is {answer.optimum} "
               f"with witness {answer.witness} ({elapsed:.3f}s)")


def test_criterion_2_c6_comfortable_vs_bc():
    begin = time.perf_counter()
    c6 = cycle_graph(6)
    comfortable = exact_min_team(c6, "comfortable")
    assert comfortable.optimum is None
    assert comfortable.enumerated == 62  # every nonempty proper subset exhausted
    bc = exact_min_team(c6, "bc", 2)
    elapsed = time.perf_counter() - begin
    assert bc.optimum == 3
    assert check_bc(c6, bc.witness, 2)
    assert elapsed < 1.0
    verdict(2, f"C6 admits no comfortable team over {comfortable.enumerated} subsets; "
               f"minimum 2-BC team has size {bc.optimum} ({elapsed:.3f}s)")


def test_criterion_3_existence_at_three_halves(corpus_graphs, existence_runs):
    results, elapsed = existence_runs
    trees = sum(1 for g in corpus_graphs if g.m == g.n - 1)
    cycles = sum(1 for g in corpus_graphs if g.m == g.n)
    assert len(results) == len(corpus_graphs)
    for g, result in zip(corpus_graphs, results):
        # machine-check all four conditions independently of the run
        report = check_hc(g, result.team, L32)
        assert report.is_hc, f"verdict {report.verdict}"
        assert report.less_dispersive and report.is_connected
        assert report.induced_diameter <= report.bc_target
        assert report.domination_radius <= report.induced_diameter
    assert elapsed < 60.0
    verdict(3, f"3/2-HC team found on 100% of {len(corpus_graphs)} corpus graphs "
               f"({trees} trees, {cycles} cycles, {len(corpus_graphs) - trees - cycles} "
               f"random samples) in {elapsed:.1f}s")


def test_criterion_4_accessibility_bound(corpus_graphs, existence_runs):
    results, _ = existence_runs
    final_form_held = 0
    for g, result in zip(corpus_graphs, results):
        checks = verify_k_bound(result, g)
        construction = checks[0]
        assert construction.holds, (
            f"construction bound violated: k={construction.lhs} > {construction.rhs}"
        )
        final_form_held += checks[1].holds
    verdict(4, f"k <= r(G) - x holds on all {len(results)} constructions; the "
               f"finished teams (repair removals included) also satisfied it on "
               f"{final_form_held}/{len(results)} runs")


def test_criterion_5_direct_substitution_table():
    rows = {
        500: (334, 167, 333, "<"),
        100: (67, 33, 67, "="),
        99: (66, 33, 66, "="),
        81: (54, 27, 54, "="),
        50: (34, 17, 33, "<"),
        34: (23, 11, 23, "="),
        23: (16, 8, 15, "<"),
        20: (14, 7, 13, "<"),
    }
    for diameter, expected in rows.items():
        row = self_centered_direct_substitution(diameter)
        assert (row.d1, row.x, row.k_bound, row.relation) == expected
    verdict(5, f"all {len(rows)} self-centered direct-substitution rows reproduced exactly")


def test_criterion_6_power_graph_reduction_equivalence():
    graphs = list(iter_connected_graphs(max_n=8, count=500, seed=20260810))
    assert len(graphs) == 500
    cases = 0
    for g in graphs:
        for k in (1, 2, 3):
            power = graph_power(g, k)
            for size in range(1, g.n + 1):
                for members in combinations(range(g.n), size):
                    left, right = reduction_witness(g, k, members, power=power)
                    assert left == right, (g.edges, k, members)
                    cases += 1
    verdict(6, f"connected k-distance domination matched power-graph domination on "
               f"{cases} (graph, subset, k) cases over {len(graphs)} graphs, "
               f"zero discrepancies")


def test_criterion_7_dispersion_index_sandwich(small_corpus_graphs):
    total = 0
    skipped_total = 0
    for l in (L32, Fraction(2)):
        checks, skipped = bound_sweep(small_corpus_graphs, l)
        assert checks, "sweep produced no feasible graphs"
        for check in checks:
            assert check.holds, f"{check.name} failed: {check.lhs} vs {check.rhs} ({check.context})"
        total += len(checks)
        skipped_total += len(skipped)
    verdict(7, f"dispersion-index sandwich held on all {total} checks over "
               f"{len(small_corpus_graphs)} small graphs at l in {{3/2, 2}} "
               f"({skipped_total} infeasible graph/l pairs skipped)")


def test_criterion_8_performance_ratio(small_corpus_graphs):
    records, summary, skipped = ratio_experiment(small_corpus_graphs, L32)
    assert skipped == []  # every small corpus graph is feasible at 3/2
    assert len(records) == len(small_corpus_graphs)
    for record in records:
        assert math.isfinite(record.ratio)
        assert record.ratio >= 1.0
    verdict(8, f"heuristic/optimal size ratio over {len(records)} graphs: "
               f"max {summary['max_ratio']:.3f}, mean {summary['mean_ratio']:.3f}, "
               f"reference ln(max degree) up to {summary['max_ln_max_degree']:.3f} "
               f"(empirical record only)")


def test_criterion_9_feasibility_classifier(corpus_graphs):
    hard_failures = []
    conservative = 0
    predicted = 0
    for g in corpus_graphs:
        prediction = two_hc_feasibility(g)
        try:
            result = hicom(g, 2)
            succeeded = check_hc(g, result.team, 2).is_hc
        except Exception:
            succeeded = False
        if prediction.predicted_feasible:
            predicted += 1
            if not succeeded:
                hard_failures.append(prediction)
        elif succeeded:
            conservative += 1
    assert not hard_failures, hard_failures
    verdict(9, f"every one of the {predicted} predicted-feasible graphs produced a "
               f"2-HC team; {conservative} predicted-infeasible graphs succeeded "
               f"anyway (conservative prediction notes, not failures)")


def test_criterion_10_scale_and_complexity_slope():
    begin = time.perf_counter()
    g = connected_gnp(500, 0.02, seed=0)
    all_pairs_distances(g)
    fresh = Graph(g.n, g.edges)
    hicom(fresh, L32)
    elapsed = time.perf_counter() - begin
    assert elapsed < 10.0

    sizes = (100, 200, 400)
    times = []
    for n in sizes:
        sample = connected_gnp(n, 2.5 * math.log(n) / n, seed=7)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            all_pairs_distances(sample)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert slope <= 3.5
    verdict(10, f"all-pairs BFS + full run on connected G(500, 0.02) took "
                f"{elapsed:.2f}s (< 10s); fitted log-log slope over n={sizes} "
                f"is {slope:.2f} (<= 3.5)")


def test_criterion_11_byte_identical_outputs(tmp_path, capsys):
    graph_file = tmp_path / "c6.txt"
    graph_file.write_text(serialize_edge_list(cycle_graph(6)))
    team_file = tmp_path / "team.txt"
    team_file.write_text("v1\nv2\nv6\n")

    commands = [
        ["analyze", str(graph_file)],
        ["hicom", "--l", "3/2", "--max", str(graph_file)],
        ["verify", "--l", "3/2", "--team", str(team_file), str(graph_file)],
        ["oracle", "min", "--kind", "hc", "--l", "3/2", str(graph_file)],
        ["oracle", "min", "--kind", "comfortable", str(graph_file)],
        ["oracle", "max", "--l", "3/2", str(graph_file)],
        ["oracle", "cds", str(graph_file)],
        ["oracle", "ratio", "--corpus", "cycles:7-9", "--l", "3/2"],
        ["oracle", "bounds", "--corpus", "cycles:6-8", "--l", "3/2"],
        ["gen", "gnp", "20", "--p", "0.2", "--seed", "7"],
        ["gen", "tree", "9", "--seed", "3"],
    ]
    for argv in commands:
        first_code = cli_main(list(argv))
        first = capsys.readouterr().out
        second_code = cli_main(list(argv))
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second, f"output drift for {argv}"

    # bench reports wall-clock times; compare everything except the timings
    def bench_structure():
        code = cli_main(["bench", "--sizes", "30,40", "--seed", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        for run in payload["runs"]:
            for key in ("apsp_seconds", "hicom_seconds", "total_seconds"):
                run.pop(key)
        payload.pop("slopes")
        return payload

    assert bench_structure() == bench_structure()
    verdict(11, f"{len(commands)} commands produced byte-identical reruns; bench "
                f"compared structurally (wall-clock fields exempt)")
