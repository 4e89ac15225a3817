import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from comfnet import (
    Graph,
    bound_sweep,
    check_bc,
    check_hc,
    complete_graph,
    exact_max_team,
    exact_min_cds,
    exact_min_team,
    extend_to_max,
    gnp,
    graph_power,
    hicom,
    is_comfortable,
    parse_edge_list,
    path_graph,
    ratio_experiment,
    reduction_witness,
    star_graph,
)
from comfnet.corpus import cycles_corpus
from comfnet.generators import iter_connected_graphs

DATA = Path(__file__).parent / "data"
L32 = Fraction(3, 2)


# --- minimum teams ------------------------------------------------------------

def test_min_comfortable_p6(p6):
    answer = exact_min_team(p6, "comfortable")
    assert answer.optimum == 4
    assert answer.witness == (1, 2, 3, 4)
    assert answer.secondary_optimum == 1
    assert answer.enumerated == 56  # cardinalities 1..4 scanned in full
    assert is_comfortable(p6, answer.witness)


def test_c6_has_no_comfortable_team(c6):
    answer = exact_min_team(c6, "comfortable")
    assert answer.optimum is None and answer.witness is None
    assert answer.enumerated == 62  # every nonempty proper subset


def test_min_bc_c6_at_two(c6):
    answer = exact_min_team(c6, "bc", 2)
    assert answer.optimum == 3
    assert answer.witness == (0, 1, 2)
    assert answer.secondary_optimum == 2
    assert check_bc(c6, answer.witness, 2)


def test_min_hc_c6_at_three_halves(c6):
    answer = exact_min_team(c6, "hc", L32)
    assert answer.optimum == 3
    assert answer.secondary_optimum == 2
    assert check_hc(c6, answer.witness, L32).is_hc


def test_min_hc_c6_at_two_exists(c6):
    # a direct instance check: the three-vertex arc meets all four
    # conditions at l = 2, so cycles are not uniformly infeasible there
    answer = exact_min_team(c6, "hc", 2)
    assert answer.optimum == 3
    assert check_hc(c6, answer.witness, 2).is_hc


def test_min_hc_p7(p7):
    answer = exact_min_team(p7, "hc", L32)
    assert answer.optimum == 3
    assert answer.witness == (2, 3, 4)
    assert answer.secondary_optimum == 2


def test_min_team_validation(c6):
    with pytest.raises(ValueError):
        exact_min_team(c6, "grand")
    with pytest.raises(ValueError):
        exact_min_team(c6, "bc")  # bc needs l
    with pytest.raises(ValueError):
        exact_min_team(Graph(4, [(0, 1), (2, 3)]), "comfortable")


# --- maximum teams ---------------------------------------------------------------

def test_max_hc_c6(c6):
    answer = exact_max_team(c6, L32)
    assert answer.optimum == 3
    assert check_hc(c6, answer.witness, L32).is_hc


def test_max_hc_p7(p7):
    answer = exact_max_team(p7, L32)
    assert answer.optimum == 5
    assert answer.witness == (1, 2, 3, 4, 5)


def test_min_max_unique_feasible_set_coincide():
    p4 = path_graph(4)
    low = exact_min_team(p4, "hc", L32)
    high = exact_max_team(p4, L32)
    assert low.optimum == high.optimum == 2
    assert low.witness == high.witness == (1, 2)


def test_max_bounds_min_everywhere():
    for g in cycles_corpus(7, 10) + [path_graph(n) for n in range(4, 9)]:
        low = exact_min_team(g, "hc", L32)
        high = exact_max_team(g, L32)
        assert low.optimum is not None
        assert high.optimum >= low.optimum
        grown = extend_to_max(g, hicom(g, L32), L32)
        assert len(grown.members) <= high.optimum


# --- connected dominating sets -----------------------------------------------------

def test_min_cds_examples(p6):
    assert exact_min_cds(p6).optimum == 4
    assert exact_min_cds(p6).witness == (1, 2, 3, 4)
    assert exact_min_cds(complete_graph(6)).optimum == 1
    assert exact_min_cds(star_graph(5)).witness == (0,)
    assert exact_min_cds(Graph(1)).optimum == 1


# --- cap -----------------------------------------------------------------------------

def test_cap_enforced():
    g = path_graph(15)
    with pytest.raises(ValueError, match="cap"):
        exact_min_team(g, "comfortable")
    answer = exact_min_team(g, "comfortable", cap=15)
    assert answer.optimum == 13


def test_exact_scan_holds_one_path_of_the_walk():
    g = parse_edge_list((DATA / "no_team_n15.txt").read_text())
    tracemalloc.start()
    try:
        answer = exact_max_team(g, "3/2", cap=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answer.optimum is None
    assert peak < 256 * 1024  # one size class of C(15, 7) subsets alone is ~3 MB


def test_no_team_fixture_proven_infeasible():
    g = parse_edge_list((DATA / "no_team_n15.txt").read_text())
    answer = exact_min_team(g, "hc", L32, cap=15)
    assert answer.optimum is None
    assert answer.enumerated == 2**15 - 2


# --- power-graph correspondence ------------------------------------------------------

def test_reduction_witness_c6(c6):
    assert reduction_witness(c6, 2, {0, 3}) == (False, False)
    assert reduction_witness(c6, 3, {0, 3}) == (True, True)
    assert reduction_witness(c6, 2, {0, 1}) == (True, True)


def test_reduction_witness_k1_matches_direct_definitions(c6, p6):
    for g in (c6, p6):
        for members in ({0}, {1, 2}, {0, 2, 4}, set(range(g.n))):
            left, right = reduction_witness(g, 1, members)
            assert left == right


def test_reduction_witness_edge_cases(c6):
    assert reduction_witness(c6, 2, set()) == (False, False)
    with pytest.raises(ValueError):
        reduction_witness(c6, 0, {0})
    with pytest.raises(ValueError):
        reduction_witness(c6, 2, {9})


def test_reduction_witness_sides_agree_small_sweep():
    from itertools import combinations

    for g in iter_connected_graphs(max_n=6, count=25, seed=11):
        for k in (1, 2, 3):
            power = graph_power(g, k)
            for size in range(1, g.n + 1):
                for members in combinations(range(g.n), size):
                    left, right = reduction_witness(g, k, members, power=power)
                    assert left == right


# --- experiments ----------------------------------------------------------------------

def test_ratio_experiment_cycles():
    records, summary, skipped = ratio_experiment(cycles_corpus(7, 12), L32)
    assert skipped == []
    assert len(records) == 6
    for record in records:
        assert record.ratio >= 1.0
        assert record.hicom_size >= record.oracle_size
        assert record.log_max_degree == pytest.approx(math.log(2))
    assert summary["max_ratio"] >= summary["mean_ratio"] >= 1.0


def test_ratio_experiment_p7_record(p7):
    records, summary, skipped = ratio_experiment([p7], L32)
    (record,) = records
    assert record.hicom_size == 5 and record.oracle_size == 3
    assert record.ratio == pytest.approx(5 / 3)
    assert record.k_hicom == 1 and record.k_oracle == 2


def test_ratio_experiment_skips_infeasible():
    g = gnp(9, 0.85, seed=4)  # diameter 2: no reduction possible
    assert g.is_connected()
    records, summary, skipped = ratio_experiment([g], L32)
    assert records == [] and len(skipped) == 1
    assert summary == {"count": 0}


def test_bound_sweep_c6(c6):
    checks, skipped = bound_sweep([c6], L32)
    assert skipped == []
    lower, upper = checks
    assert lower.name == "l(k*-1) <= diam(G)"
    assert (lower.lhs, lower.rhs) == (1.5, 3.0)
    assert upper.rhs == pytest.approx(15.0)
    assert lower.holds and upper.holds


def test_bound_sweep_degenerate_k_star():
    p4 = path_graph(4)
    checks, skipped = bound_sweep([p4], L32)
    lower = checks[0]
    assert lower.lhs == 0.0 and lower.holds  # k* = 1 collapses the lower bound


def test_bound_sweep_skips_infeasible():
    p3 = path_graph(3)
    checks, skipped = bound_sweep([p3], L32)
    assert checks == [] and len(skipped) == 1


# --- answers serialize ------------------------------------------------------------------

def test_oracle_answer_json(c6):
    payload = exact_min_team(c6, "hc", L32).to_json_dict(c6.labels)
    assert payload["optimum"] == 3
    assert payload["witness"] == ["v1", "v2", "v3"]
    assert payload["k"] == 2
    assert payload["l"] == "3/2"
    payload = exact_min_team(c6, "comfortable").to_json_dict(c6.labels)
    assert payload["optimum"] is None and payload["witness"] is None
