"""``extend_step`` against a reference copy of the host-wide search it
replaced: one search per candidate over the whole host, confined to the
grown team. The reference lives here, so it shares only the BFS kernel
with what it checks.

Teams are BFS balls with attached vertices (as HICOM grows them), plus
arbitrary vertex sets, which may be disconnected; shells are drawn from
every vertex outside the team, so some candidates attach to nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import Graph, path_graph
from comfnet.graphs import bfs
from comfnet.hicom import extend_step


def reference_extend_step(g, shell, members, d1):
    best_vertex = None
    best_ecc = -1
    for u in shell:
        grown = members | {u}
        levels, order = bfs(g.adj, (u,), g.n, grown)
        if len(order) < len(grown):
            continue
        new_ecc = levels[order[-1]]
        if new_ecc > d1:
            continue
        if new_ecc > best_ecc:
            best_ecc = new_ecc
            best_vertex = u
    return best_vertex


@st.composite
def graphs(draw, max_n=14, connected=True):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    if connected:
        edges |= {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    return Graph(n, edges)


@st.composite
def grown_teams(draw, g):
    """A ball around a drawn centre, then vertices that each touch the team."""
    centre = draw(st.integers(0, g.n - 1))
    levels, order = bfs(g.adj, (centre,), g.n)
    radius = draw(st.integers(0, levels[order[-1]]))
    team = {v for v in order if levels[v] <= radius}
    for _ in range(draw(st.integers(0, 3))):
        attached = sorted({w for v in team for w in g.adj[v]} - team)
        if not attached:
            break
        team.add(draw(st.sampled_from(attached)))
    return frozenset(team)


def shell_outside(draw, g, team):
    outside = [v for v in range(g.n) if v not in team]
    return sorted(draw(st.sets(st.sampled_from(outside)))) if outside else []


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_grown_teams_pick_what_the_host_wide_search_picks(g, data):
    team = data.draw(grown_teams(g))
    shell = shell_outside(data.draw, g, team)
    d1 = data.draw(st.integers(0, g.n))
    assert extend_step(g, shell, team, d1) == reference_extend_step(g, shell, team, d1)


@given(graphs(connected=False), st.data())
@settings(max_examples=200, deadline=None)
def test_any_team_picks_what_the_host_wide_search_picks(g, data):
    """Arbitrary teams on arbitrary hosts: disconnected teams, candidates
    that attach to nothing and candidates that join parts of the team."""
    team = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    shell = shell_outside(data.draw, g, team)
    d1 = data.draw(st.integers(0, g.n))
    assert extend_step(g, shell, team, d1) == reference_extend_step(g, shell, team, d1)


def test_a_candidate_that_bridges_the_team_is_scored_on_the_whole_team():
    g = path_graph(7)
    team = frozenset({0, 1, 2, 4, 5})  # two parts that only 3 joins
    for d1 in range(7):
        expected = reference_extend_step(g, [3, 6], team, d1)
        assert extend_step(g, [3, 6], team, d1) == expected
    assert extend_step(g, [3, 6], team, 3) == 3  # 3 is 3 hops from 0
    assert extend_step(g, [3, 6], team, 2) is None
    assert extend_step(g, [6], team, 6) is None  # 6 leaves the parts apart


def test_the_empty_team_takes_the_first_shell_vertex():
    g = path_graph(5)
    for shell, d1 in (([2, 4], 1), ([0], 0), ([], 3)):
        assert extend_step(g, shell, frozenset(), d1) == reference_extend_step(
            g, shell, frozenset(), d1
        )
    assert extend_step(g, [2, 4], frozenset(), 1) == 2
