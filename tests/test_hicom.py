import hashlib
import importlib
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from comfnet import (
    DegenerateParams,
    Graph,
    HicomError,
    NoFeasibleTeam,
    RepairFailed,
    bc_target,
    bound_sweep,
    check_hc,
    complete_graph,
    cycle_graph,
    eccentricity_profile,
    exact_max_team,
    exact_min_team,
    extend_to_max,
    gnp,
    hicom,
    is_dominating,
    parse_edge_list,
    path_graph,
    ratio_experiment,
    repair,
    replay_trace,
    self_centered_direct_substitution,
    small_diameter_fallback,
    star_graph,
    two_hc_feasibility,
    verify_k_bound,
)
import comfnet.cli as cli
from comfnet.corpus import cycles_corpus, gnp_corpus, trees_corpus
from comfnet.graphs import bfs

DATA = Path(__file__).parent / "data"
L32 = Fraction(3, 2)


def small_mixed_corpus():
    return trees_corpus(max_n=8) + cycles_corpus(7, 14) + gnp_corpus(count=15)


# --- worked runs -------------------------------------------------------------

def test_c6_run(c6):
    result = hicom(c6, L32)
    assert result.team.members == {5, 0, 1}
    assert result.start_vertex == 0
    assert result.d1 == 2
    assert result.achieved_diameter == 2
    assert result.k == 2
    assert result.x == 1
    assert result.report.verdict == "3/2-HC"


def test_p7_run_is_pure_ball(p7):
    result = hicom(p7, L32)
    assert result.team.members == {1, 2, 3, 4, 5}
    assert result.d1 == 4 and result.achieved_diameter == 4
    assert result.k == 1
    assert {step.op for step in result.trace} == {"ball"}
    assert result.construction_k == result.k


def test_c8_run_extends_one_vertex():
    result = hicom(cycle_graph(8), L32)
    extends = [step for step in result.trace if step.op == "extend"]
    assert len(extends) == 1
    assert result.d1 == 3 and result.achieved_diameter == 3
    assert result.k == 2


@pytest.mark.parametrize("g", [path_graph(7), cycle_graph(8), cycle_graph(11)], ids=["P7", "C8", "C11"])
def test_construction_measures_each_grown_team_once(g, monkeypatch):
    measured = []
    real = importlib.import_module("comfnet.criteria").induced_metrics

    def counting(host, members):
        measured.append(members)
        return real(host, members)

    # the package re-exports hicom(), so the modules are looked up by name
    for name in ("comfnet.criteria", "comfnet.hicom"):
        monkeypatch.setattr(importlib.import_module(name), "induced_metrics", counting)
    result = hicom(g, L32)
    assert "repair" not in {step.op for step in result.trace}
    # the ball once, then once per extension; the last of these checks is
    # the returned team's report, so nothing is measured twice
    assert len(measured) == 1 + sum(step.op == "extend" for step in result.trace)
    assert len(set(measured)) == len(measured)


#: From its center v1 the ball reaches diameter 2 below d1 = 3; shell 2
#: adds one vertex, shell 3 offers none within d1 and there is no shell 4.
RARE_BRANCHES = "10 12\n0 1\n0 9\n1 3\n1 6\n1 7\n1 9\n2 4\n3 4\n3 9\n4 9\n5 7\n8 9\n"


@pytest.mark.parametrize("l, digest", [
    ("2", "0ecbc16473689667045f18b6923d593a5a99aaae"),
    ("7/4", "e1f7a5e4d1a28881aa19b2ed0b2572fa5ddfec8e"),
])
def test_exhausted_and_unreached_shells(l, digest, capsys, tmp_path):
    g = parse_edge_list(RARE_BRANCHES)
    result = hicom(g, l)
    assert [step.op for step in result.trace] == ["ball", "ball", "extend", "exhausted", "unreached"]
    assert result.team.labels() == ["v1", "v2", "v4", "v10"]
    path = tmp_path / "rare.txt"
    path.write_text(RARE_BRANCHES)
    assert cli.run(["hicom", "--l", l, str(path)]) == 0
    # digests of the CLI output taken before `_attempt` measured each team once
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest


def test_trace_replay(c6, p7):
    for g in (c6, p7, cycle_graph(9), path_graph(6)):
        result = hicom(g, L32)
        assert replay_trace(g, result.trace) == result.team.members


def test_determinism(c6):
    first = hicom(c6, L32)
    second = hicom(c6, L32)
    assert first == second


def test_start_override(c6):
    result = hicom(c6, L32, start=1)
    assert result.start_vertex == 1
    assert result.team.members == {0, 1, 2}
    assert result.report.verdict == "3/2-HC"


def test_start_override_must_be_central(p6):
    with pytest.raises(ValueError, match="start vertex v1 is not central"):
        hicom(p6, L32, start=0)


@pytest.mark.parametrize("start", [5, 9, -1])
def test_start_outside_the_graph_is_refused(start):
    with pytest.raises(ValueError, match=f"start vertex {start} out of range for n=5"):
        hicom(path_graph(5), L32, start=start)


# --- parameter validation -----------------------------------------------------

def test_degenerate_params(c6):
    with pytest.raises(DegenerateParams):
        hicom(c6, Fraction(21, 20))  # ceil(3/1.05) = 3 = diam, no reduction


def test_l_validation(c6, p6):
    with pytest.raises(ValueError):
        hicom(c6, 1)
    c8 = cycle_graph(8)
    entry_points = (
        lambda l: hicom(c6, l),
        lambda l: exact_min_team(c8, "hc", l),
        lambda l: exact_max_team(c8, l),
        lambda l: ratio_experiment([c8], l),
        lambda l: bound_sweep([c8], l),
        lambda l: extend_to_max(c6, hicom(c6, L32), l),
        lambda l: self_centered_direct_substitution(5, l),
    )
    for call in entry_points:
        for malformed in ("1/0", "abc"):
            with pytest.raises(ValueError, match="cannot parse"):
                call(malformed)
    with pytest.raises(ValueError, match="allow_large_l"):
        hicom(p6, Fraction(5, 2))
    with pytest.warns(UserWarning, match="not guaranteed"):
        hicom(p6, Fraction(9, 5))


def test_large_l_warns_once_at_the_caller():
    g = path_graph(30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hicom(g, "7/4")
    assert [w.category for w in caught] == [UserWarning]
    assert caught[0].filename == __file__


def test_hicom_never_holds_a_dense_distance_matrix():
    g = path_graph(400)
    tracemalloc.start()
    try:
        hicom(g, "3/2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8  # one n x n int64 matrix: 1.28 MB


def test_large_l_with_flag():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = hicom(path_graph(21), Fraction(5, 2), allow_large_l=True)
    assert result.report.is_hc
    assert result.d1 == 8


# --- repair --------------------------------------------------------------------

def test_repair_whole_path_fixture(p6):
    team = repair(p6, frozenset(range(6)), 5)
    assert team.members == {1, 2, 3, 4}


def test_repair_identity_when_already_less_dispersive(p6):
    team = repair(p6, frozenset({1, 2, 3, 4}), 4)
    assert team.members == {1, 2, 3, 4}


def test_repair_failure_attaches_candidate():
    g = parse_edge_list((DATA / "no_team_n15.txt").read_text())
    prof = eccentricity_profile(g)
    row = bfs(g.adj, (prof.center[0],), g.n)[0]
    ball = frozenset(u for u in range(g.n) if row[u] <= 1)
    with pytest.raises(RepairFailed) as exc:
        repair(g, ball, 2)
    assert exc.value.candidate


def test_repair_of_a_one_vertex_graph_fails():
    # the lone vertex keeps its eccentricity 0, and no removal leaves a team
    with pytest.raises(RepairFailed):
        repair(Graph(1), {0}, 1)


def test_repair_runs_shrink_but_stay_valid(p6):
    result = hicom(p6, L32)
    # the even-path run sheds an endpoint and lands on the interior path
    assert result.team.members == {1, 2, 3, 4}
    assert any(step.op == "repair" for step in result.trace)
    assert result.achieved_diameter <= result.d1
    assert result.construction_diameter == result.d1


# --- small-diameter fallback -----------------------------------------------------

def test_fallback_k4_minus_edge(k4_minus_edge):
    team = small_diameter_fallback(k4_minus_edge)
    assert team is not None
    members = tuple(sorted(team.members))
    assert is_dominating(k4_minus_edge, members, 1)
    for u in members:
        for v in members:
            assert u == v or k4_minus_edge.has_edge(u, v)


def test_fallback_c5_has_no_dominating_clique():
    from itertools import combinations

    c5 = cycle_graph(5)
    assert small_diameter_fallback(c5) is None
    # cross-check by brute force over every clique
    for size in range(1, 6):
        for subset in combinations(range(5), size):
            is_clique = all(
                c5.has_edge(u, v) for u in subset for v in subset if u < v
            )
            if is_clique:
                assert not is_dominating(c5, subset, 1)


def test_fallback_complete_graph_single_vertex():
    assert small_diameter_fallback(complete_graph(5)).members == {0}


def test_fallback_greedy_finds_no_dominating_clique():
    # n > 20 takes the greedy clique search, which dead-ends here
    g = gnp(30, 0.45, seed=13)
    assert eccentricity_profile(g).diameter == 2
    assert small_diameter_fallback(g) is None
    with pytest.raises(NoFeasibleTeam):
        hicom(g, L32)


def test_fallback_rejects_large_diameter(p6):
    with pytest.raises(ValueError):
        small_diameter_fallback(p6)


def test_hicom_c4_fallback_team():
    result = hicom(cycle_graph(4), L32)
    assert result.report.verdict == "2-HC"
    assert result.team.members == {0, 1}
    assert result.trace[0].op == "fallback"


def test_hicom_complete_graph_infeasible():
    with pytest.raises(NoFeasibleTeam):
        hicom(complete_graph(5), L32)


def test_hicom_star_routes_to_fallback_and_fails():
    star = star_graph(6)
    assert small_diameter_fallback(star).members == {0}
    with pytest.raises(NoFeasibleTeam):
        hicom(star, L32)


# --- graphs with no team anywhere -------------------------------------------------

@pytest.mark.parametrize("name", ["no_team_n15.txt", "no_team_n16.txt"])
def test_no_feasible_team_graphs_raise(name):
    # dense diameter-3 graphs on which no vertex subset is simultaneously
    # connected, less dispersive, within the diameter target, and accessible;
    # the run must raise rather than return a weaker team
    g = parse_edge_list((DATA / name).read_text())
    for l in (L32, Fraction(2)):
        with pytest.raises(HicomError):
            hicom(g, l)


def test_single_start_raises_its_own_failure():
    # with one start there is no retry to summarise: the run's error surfaces
    g = parse_edge_list((DATA / "no_team_n15.txt").read_text())
    with pytest.raises(RepairFailed):
        hicom(g, "3/2", start=eccentricity_profile(g).center[0])


# --- bounds and predictions --------------------------------------------------------

def test_verify_k_bound_p7(p7):
    result = hicom(p7, L32)
    checks = verify_k_bound(result, p7)
    names = [c.name for c in checks]
    assert names == [
        "construction k <= r(G) - x",
        "k <= r(G) - x",
        "k <= r(G) - diam(<D1>)/2 + 1/2",
    ]
    assert all(c.holds for c in checks)
    assert checks[0].lhs == 1.0 and checks[0].rhs == 1.0


def test_bound_check_json(p7):
    payload = verify_k_bound(hicom(p7, L32), p7)[0].to_json_dict()
    assert set(payload) == {"name", "lhs", "rhs", "holds", "context"}


def test_construction_bound_on_mixed_corpus():
    for g in small_mixed_corpus():
        result = hicom(g, L32)
        checks = verify_k_bound(result, g)
        assert checks[0].holds, checks[0]
        # repair can only grow the domination radius
        assert result.k >= result.construction_k


def test_ball_induced_diameter_within_target():
    from comfnet.criteria import induced_metrics

    for g in small_mixed_corpus():
        prof = eccentricity_profile(g)
        d1 = bc_target(g, L32)
        x = d1 // 2
        for v in prof.center[:2]:
            row = bfs(g.adj, (v,), g.n)[0]
            ball = frozenset(u for u in range(g.n) if row[u] <= x)
            _, diameter, _ = induced_metrics(g, ball)
            assert diameter <= d1


def test_target_diameter_reached_without_repair():
    for g in small_mixed_corpus():
        result = hicom(g, L32)
        ops = {step.op for step in result.trace}
        assert result.achieved_diameter <= result.d1
        if "repair" not in ops and "unreached" not in ops:
            assert result.achieved_diameter == result.d1


def test_two_hc_feasibility_cases(p7):
    p5 = path_graph(5)
    pred = two_hc_feasibility(p5)
    assert pred.b == 0 and pred.predicted_feasible
    assert pred.case_label == "b=0 (diam = 2r)"

    pred = two_hc_feasibility(path_graph(8))
    assert pred.b == 1 and pred.threshold == 1 and pred.predicted_feasible

    pred = two_hc_feasibility(cycle_graph(12))
    assert pred.b == 6 and not pred.predicted_feasible
    assert pred.case_label.startswith("self-centered")

    # cycle with one pendant: r=3, diam=4, so the deficit is 2 and the
    # threshold 2b+2=6 exceeds the diameter
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
    pred = two_hc_feasibility(g)
    assert (pred.radius, pred.diameter, pred.b) == (3, 4, 2)
    assert pred.threshold == 6 and not pred.predicted_feasible


def test_prediction_json_keys(p7):
    payload = two_hc_feasibility(p7).to_json_dict()
    assert set(payload) == {"radius", "diameter", "b", "threshold", "predicted_feasible", "case"}


# --- maximization ---------------------------------------------------------------

def test_extend_to_max_c6_stays_put(c6):
    result = hicom(c6, L32)
    assert extend_to_max(c6, result, L32).members == result.team.members


def test_extend_to_max_p7_stays_put(p7):
    result = hicom(p7, L32)
    assert extend_to_max(p7, result, L32).members == {1, 2, 3, 4, 5}


def test_extend_to_max_accepts_bare_team(p6):
    from comfnet import TeamCandidate

    # seed maximization from a deliberately small valid team
    seed = TeamCandidate(p6, frozenset({2, 3}))
    grown = extend_to_max(p6, seed, L32)
    assert grown.members > seed.members
    assert check_hc(p6, grown.members, L32).is_hc


def test_extend_to_max_property_on_corpus():
    for g in trees_corpus(max_n=7) + cycles_corpus(7, 10):
        result = hicom(g, L32)
        grown = extend_to_max(g, result, L32)
        assert len(grown.members) >= len(result.team.members)
        assert check_hc(g, grown.members, L32).is_hc


# --- direct substitution table ------------------------------------------------------

def test_direct_substitution_row():
    row = self_centered_direct_substitution(500)
    assert (row.d1, row.x, row.k_bound, row.relation) == (334, 167, 333, "<")


def test_hicom_result_json(c6):
    payload = hicom(c6, L32).to_json_dict()
    assert payload["team"] == ["v1", "v2", "v6"]
    assert payload["l"] == "3/2"
    assert payload["d1"] == 2 and payload["k"] == 2
    assert payload["start"] == "v1"
    assert payload["report"]["verdict"] == "3/2-HC"
    assert isinstance(payload["trace"], list) and payload["trace"]
