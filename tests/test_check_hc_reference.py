"""``check_hc`` against a reference written from the team definitions.

The reference reads every hop metric from networkx and applies the
definitions directly: a team is connected when its induced subgraph is;
a member violates less-dispersiveness when its induced eccentricity
(infinite in a disconnected team) reaches its host eccentricity; k is the
largest distance from an outside vertex to its nearest member; the BC
target is ceil(diam(G) / l); the BC condition asks for a connected team
within the target and the HC condition for k <= the induced diameter.
Teams are drawn both as arbitrary vertex sets, often disconnected, and as
connected sets grown from one vertex.

networkx is a test-only reference; the module is skipped where it is not
installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import UNREACHABLE, bc_target, check_hc

nx = pytest.importorskip("networkx")
from test_bfs_reference import as_nx, connected_member_sets, graphs  # noqa: E402  (after the skip)

LS = (Fraction(3, 2), Fraction(2))


def reference(g, team, l):
    """Every field of the team report, from the definitions."""
    host = as_nx(g)
    dist = dict(nx.all_pairs_shortest_path_length(host))
    host_ecc = nx.eccentricity(host)
    sub = host.subgraph(team)
    connected = nx.is_connected(sub)
    inner = nx.eccentricity(sub) if connected else dict.fromkeys(team, UNREACHABLE)
    violators = tuple(v for v in sorted(team) if inner[v] >= host_ecc[v])
    k = max((min(dist[u][v] for v in team) for u in host if u not in team), default=0)
    diameter = max(inner.values())
    target = -(-max(host_ecc.values()) * l.denominator // l.numerator)
    bc = connected and diameter <= target
    hc = connected and k <= diameter
    less = not violators
    if connected and less and bc and hc:
        verdict = f"{l}-HC"
    elif connected and less and bc:
        verdict = f"{l}-BC"
    elif connected and less and k <= 1:
        verdict = "comfortable"
    else:
        verdict = "none"
    return {
        "team": tuple(sorted(team)),
        "is_connected": connected,
        "is_dominating_1": k <= 1,
        "domination_radius": k,
        "induced_diameter": diameter,
        "less_dispersive": less,
        "violators": violators,
        "bc_target": target,
        "bc_condition": bc,
        "hc_condition": hc,
        "verdict": verdict,
    }


def assert_report_matches(g, team):
    for l in LS:
        report = check_hc(g, team, l)
        expected = reference(g, team, l)
        assert {key: getattr(report, key) for key in expected} == expected
        assert report.l == l
        assert bc_target(g, l) == expected["bc_target"]


@given(graphs(connected=True), st.data())
@settings(max_examples=120, deadline=None)
def test_check_hc_matches_the_definitions(g, data):
    assert_report_matches(g, frozenset(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))))


@given(graphs(max_n=20, connected=True), st.data())
@settings(max_examples=120, deadline=None)
def test_check_hc_on_connected_teams_matches_the_definitions(g, data):
    assert_report_matches(g, data.draw(connected_member_sets(g)))
