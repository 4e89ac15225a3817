"""Metamorphic tests: renaming the vertices of a host renames the answers.

Every team check reads only the graph's structure, so relabelling the host
and the team by one permutation must leave each ``check_hc`` verdict, the
induced diameter and the domination radius as they were, and move the
violators with the labels. ``hicom`` may pick another team on the
relabelled host, since its tie-breaks and the eccentricity engine's
search sources follow vertex indices, but that team must still pass the
check, or the run must raise ``HicomError``. The l = 2 feasibility class
depends on the radius and diameter alone. ``hicom._standing``, the team
test its walks share, agrees with ``check_hc`` on the same drawn teams.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import Graph, HicomError, bc_target, check_hc, hicom, two_hc_feasibility
from comfnet.hicom import _standing

L32 = Fraction(3, 2)


@st.composite
def relabelled(draw, max_n=40):
    """(host, relabelled host, permutation): a connected graph grown as a
    random tree, which shrinks towards a path, plus a few chords."""
    n = draw(st.integers(1, max_n))
    edges = [(i - 1 - draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=n // 2)) if u != v]
    perm = draw(st.permutations(range(n)))
    g = Graph(n, edges)
    return g, Graph(n, [(perm[u], perm[v]) for u, v in g.edges]), perm


@st.composite
def teams(draw, g):
    """A vertex set, connected or not; grown from one vertex by random
    neighbours when ``connected`` is drawn."""
    if draw(st.booleans()):
        return frozenset(draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    team = {draw(st.integers(0, g.n - 1))}
    for _ in range(draw(st.integers(0, g.n - 1))):
        frontier = sorted({w for v in team for w in g.adj[v]} - team)
        if not frontier:
            break
        team.add(draw(st.sampled_from(frontier)))
    return frozenset(team)


@given(relabelled(), st.data(), st.sampled_from([L32, Fraction(2), Fraction(5, 4)]))
@settings(max_examples=120, deadline=None)
def test_check_hc_moves_with_the_labels(case, data, l):
    g, moved, perm = case
    for _ in range(3):
        team = data.draw(teams(g))
        report = check_hc(g, team, l)
        mapped = check_hc(moved, frozenset(perm[v] for v in team), l)
        assert mapped.verdict == report.verdict
        assert mapped.violators == tuple(sorted(perm[v] for v in report.violators))
        assert mapped.induced_diameter == report.induced_diameter
        assert mapped.domination_radius == report.domination_radius


@given(relabelled(), st.sampled_from([L32, Fraction(2)]))
@settings(max_examples=80, deadline=None)
def test_hicom_on_a_relabelled_host_returns_a_checked_team_or_raises(case, l):
    g, moved, _ = case
    for host in (g, moved):
        try:
            result = hicom(host, l)
        except HicomError:
            continue
        report = check_hc(host, result.team.members, result.l)
        assert report.is_hc
        assert report == result.report


@given(relabelled())
@settings(max_examples=80, deadline=None)
def test_two_hc_feasibility_ignores_the_labels(case):
    g, moved, _ = case
    assert two_hc_feasibility(moved) == two_hc_feasibility(g)


@given(relabelled(), st.data(), st.sampled_from([L32, Fraction(2)]))
@settings(max_examples=120, deadline=None)
def test_standing_agrees_with_check_hc(case, data, l):
    g = case[0]
    d1 = bc_target(g, l)
    for _ in range(3):
        team = data.draw(teams(g))
        report = check_hc(g, team, l)
        standing = _standing(g, team, d1)
        assert (standing is not None) == (report.bc_condition and report.hc_condition)
        assert (standing is not None and not standing[1]) == report.is_hc
        if standing is not None:
            assert standing == (report.domination_radius, report.violators)
