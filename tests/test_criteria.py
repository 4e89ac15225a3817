import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import (
    Graph,
    UNREACHABLE,
    bc_target,
    check_bc,
    check_hc,
    connected_gnp,
    domination_radius,
    is_comfortable,
    is_less_dispersive,
    path_graph,
)
from comfnet.criteria import SubsetEvaluator, parse_l


@st.composite
def graph_and_team(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    p = draw(st.floats(0.2, 0.9))
    seed = draw(st.integers(0, 10**6))
    g = connected_gnp(n, p, seed=seed)
    size = draw(st.integers(1, n))
    members = frozenset(random.Random(seed).sample(range(n), size))
    return g, members


def test_parse_l_exact():
    assert parse_l("3/2") == Fraction(3, 2)
    assert parse_l("1.6") == Fraction(8, 5)
    assert parse_l(1.6) == Fraction(8, 5)
    assert parse_l(2) == Fraction(2)


def test_team_validation(c6):
    report = check_hc(c6, frozenset({5, 0, 1}), Fraction(3, 2))
    assert report.team == (0, 1, 5)
    assert report.to_json_dict(c6.labels)["team"] == ["v1", "v2", "v6"]
    with pytest.raises(ValueError, match="nonempty"):
        check_hc(c6, frozenset(), Fraction(3, 2))
    with pytest.raises(ValueError, match="out of range"):
        check_hc(c6, frozenset({7}), Fraction(3, 2))


# --- domination ----------------------------------------------------------------

def test_domination_radius_examples(p6, c6):
    assert domination_radius(c6, {0, 1, 2}) == 2
    assert domination_radius(p6, {1, 2, 3, 4}) == 1
    assert domination_radius(c6, range(6)) == 0


def test_is_dominating_examples(p6, c6):
    assert domination_radius(c6, {0, 1, 2}) > 1
    assert domination_radius(c6, {0, 1, 2}) <= 2
    assert domination_radius(p6, {2}) <= 3


@given(graph_and_team())
@settings(max_examples=60, deadline=None)
def test_domination_radius_monotone_under_growth(data):
    g, members = data
    k_before = domination_radius(g, members)
    outside = sorted(set(range(g.n)) - members)
    if outside:
        grown = members | {outside[0]}
        assert domination_radius(g, grown) <= k_before


# --- less dispersive -------------------------------------------------------------

def test_less_dispersive_examples(p6, c6):
    ok, violators = is_less_dispersive(p6, {1, 2, 3, 4})
    assert ok and violators == ()
    ok, violators = is_less_dispersive(c6, {0, 1, 2, 3})
    assert not ok and violators == (0, 3)
    ok, _ = is_less_dispersive(c6, {0, 1, 2})
    assert ok


def test_disconnected_team_is_never_less_dispersive(c6):
    ok, violators = is_less_dispersive(c6, {0, 3})
    assert not ok and violators == (0, 3)


@given(graph_and_team())
@settings(max_examples=60, deadline=None)
def test_whole_vertex_set_never_less_dispersive(data):
    g, _ = data
    ok, violators = is_less_dispersive(g, range(g.n))
    assert not ok and len(violators) == g.n


@given(graph_and_team())
@settings(max_examples=60, deadline=None)
def test_singleton_always_less_dispersive(data):
    g, _ = data
    ok, _ = is_less_dispersive(g, {0})
    assert ok  # induced eccentricity 0 < host eccentricity (n >= 2)


# --- bc / hc -----------------------------------------------------------------------

def test_bc_target_exact_rationals(c6, p6):
    assert bc_target(c6, Fraction(3, 2)) == 2
    assert bc_target(c6, 2) == 2
    assert bc_target(p6, Fraction(5, 3)) == 3
    assert bc_target(p6, "1.6") == 4  # ceil(5 / 1.6) = ceil(3.125)


def test_check_bc_examples(p6, c6):
    assert check_bc(c6, {0, 1, 2}, 2)
    assert not check_bc(p6, range(6), 2)
    assert not check_bc(c6, {0, 1, 2, 3}, 2)
    with pytest.raises(ValueError):
        check_bc(c6, {0, 1, 2}, 1)


def test_check_hc_c6_at_three_halves(c6):
    report = check_hc(c6, {5, 0, 1}, Fraction(3, 2))
    assert report.verdict == "3/2-HC"
    assert report.domination_radius == 2
    assert report.induced_diameter == 2
    assert report.bc_target == 2
    assert report.is_hc and report.is_bc


def test_check_hc_four_arc_fails(c6):
    report = check_hc(c6, {0, 1, 2, 3}, 2)
    assert report.verdict == "none"
    assert not report.less_dispersive
    assert report.violators == (0, 3)


def test_check_hc_p6_interior_at_five_thirds(p6):
    report = check_hc(p6, {1, 2, 3, 4}, Fraction(5, 3))
    assert report.verdict == "5/3-HC"
    assert report.induced_diameter == 3 == report.bc_target
    assert report.domination_radius == 1
    with pytest.raises(ValueError):
        check_hc(p6, {1, 2, 3, 4}, 1)
    for malformed in ("1/0", "abc"):
        with pytest.raises(ValueError, match=f"cannot parse l='{malformed}' as a rational"):
            check_hc(p6, {1, 2, 3, 4}, malformed)


def test_check_hc_comfortable_verdict():
    # the interior of an 8-path dominates at one and shrinks, but its
    # induced diameter 5 misses the l=2 ceiling ceil(7/2) = 4
    p8 = path_graph(8)
    report = check_hc(p8, {1, 2, 3, 4, 5, 6}, 2)
    assert report.is_dominating_1
    assert report.less_dispersive
    assert not report.bc_condition
    assert report.verdict == "comfortable"
    assert is_comfortable(p8, {1, 2, 3, 4, 5, 6})


def test_check_hc_disconnected_short_circuits(c6):
    report = check_hc(c6, {0, 3}, 2)
    assert not report.is_connected
    assert report.induced_diameter == UNREACHABLE
    assert not report.bc_condition and not report.hc_condition
    assert report.verdict == "none"
    assert report.to_json_dict(c6.labels)["induced_diameter"] is None


def test_report_json_stable_keys(c6):
    payload = check_hc(c6, {5, 0, 1}, Fraction(3, 2)).to_json_dict(c6.labels)
    assert payload["team"] == ["v1", "v2", "v6"]
    assert payload["l"] == "3/2"
    assert payload["verdict"] == "3/2-HC"
    assert set(payload) == {
        "team", "l", "is_connected", "is_dominating_1", "domination_radius",
        "induced_diameter", "less_dispersive", "violators", "bc_target",
        "bc_condition", "hc_condition", "verdict",
    }


@given(graph_and_team(), st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 3)]))
@settings(max_examples=80, deadline=None)
def test_verdict_implications(data, l):
    g, members = data
    report = check_hc(g, members, l)
    if report.is_hc:
        assert report.is_bc
    if report.is_bc:
        assert report.less_dispersive and report.is_connected
    if report.verdict == "comfortable":
        assert report.is_dominating_1 and report.less_dispersive and report.is_connected
    # domination radius 1 and classic domination agree on proper subsets
    if len(members) < g.n:
        assert (report.domination_radius == 1) == report.is_dominating_1


@given(graph_and_team(), st.sampled_from([Fraction(3, 2), Fraction(2)]))
@settings(max_examples=60, deadline=None)
def test_subset_evaluator_agrees_with_reports(data, l):
    g, members = data
    connected, diameter, less, k = SubsetEvaluator(g).profile(tuple(sorted(members)))
    report = check_hc(g, members, l)
    assert connected == report.is_connected
    assert diameter == report.induced_diameter
    assert less == report.less_dispersive
    if connected:
        assert k == report.domination_radius


@given(graph_and_team(), st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 3)]))
@settings(max_examples=80, deadline=None)
def test_is_comfortable_and_check_bc_agree_with_reports(data, l):
    g, members = data
    report = check_hc(g, members, l)
    assert is_comfortable(g, members) == (
        report.is_connected and report.is_dominating_1 and report.less_dispersive
    )
    assert check_bc(g, members, l) == report.is_bc


def test_domination_requires_connected_host():
    with pytest.raises(ValueError):
        domination_radius(Graph(4, [(0, 1), (2, 3)]), {0})
