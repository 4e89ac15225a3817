"""The BFS kernel, the cached eccentricity profile, induced team metrics
and the hop metrics built on them (components, shells, subset profiles,
the connected-set walk, graph powers, the power-graph reduction) against
networkx.

networkx is a test-only reference; the module is skipped where it is not
installed. Graphs are drawn straight from hypothesis or built by networkx,
not by comfnet's generators, so the reference shares no code with what it
checks. The graph families include those where eccentricity bounds settle
almost nothing early (cycles, complete bipartite graphs, barbells,
hypercubes), those where they settle most vertices (paths, grids, trees),
lollipops, which join the two kinds, and narrow random graphs.
"""

import math
import random
from itertools import combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import (
    Graph,
    UNREACHABLE,
    domination_radius,
    eccentricity_profile,
    graph_power,
    induced_subgraph,
    reduction_witness,
)
from comfnet.criteria import SubsetEvaluator, induced_metrics
from comfnet.graphs import bfs, iter_components

nx = pytest.importorskip("networkx")


@st.composite
def graphs(draw, max_n=12, connected=False):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    if connected:
        # a random spanning tree: vertex i hangs from some vertex below it
        edges |= {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    return Graph(n, edges)


def as_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def expected_levels(g, lengths):
    return [lengths.get(v, UNREACHABLE) for v in range(g.n)]


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_single_source_levels(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    levels, order = bfs(g.adj, (source,), g.n)
    lengths = nx.single_source_shortest_path_length(as_nx(g), source)
    assert levels == expected_levels(g, lengths)
    assert sorted(order) == sorted(lengths)
    assert levels[order[-1]] == max(lengths.values())


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_multi_source_levels(g, data):
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    levels, order = bfs(g.adj, sources, g.n)
    lengths = nx.multi_source_dijkstra_path_length(as_nx(g), sources)
    assert levels == expected_levels(g, lengths)
    assert len(order) == len(lengths)
    # visit order is breadth-first: levels never decrease along it
    assert [levels[v] for v in order] == sorted(levels[v] for v in order)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_levels_within_a_vertex_set(g, data):
    within = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    source = data.draw(st.sampled_from(sorted(within)))
    levels, order = bfs(g.adj, (source,), g.n, within)
    lengths = nx.single_source_shortest_path_length(as_nx(g).subgraph(within), source)
    assert levels == expected_levels(g, lengths)
    assert set(order) == set(lengths) <= within


@given(graphs(connected=True))
@settings(max_examples=80, deadline=None)
def test_eccentricity_profile_matches_networkx(g):
    h = as_nx(g)
    prof = eccentricity_profile(g)
    ecc = nx.eccentricity(h)
    assert prof.eccentricity == tuple(ecc[v] for v in range(g.n))
    assert prof.radius == nx.radius(h)
    assert prof.diameter == nx.diameter(h)
    assert prof.center == tuple(sorted(nx.center(h)))
    assert prof.periphery == tuple(sorted(nx.periphery(h)))


@given(graphs(connected=True))
@settings(max_examples=30, deadline=None)
def test_eccentricity_profile_is_cached(g):
    assert eccentricity_profile(g) is eccentricity_profile(g)


@given(graphs(connected=True), st.data())
@settings(max_examples=80, deadline=None)
def test_domination_radius_matches_networkx(g, data):
    team = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    lengths = dict(nx.all_pairs_shortest_path_length(as_nx(g)))
    outside = set(range(g.n)) - team
    expected = max((min(lengths[u][v] for v in team) for u in outside), default=0)
    assert domination_radius(g, team) == expected


def nearest_team_distance(lengths, team, u):
    return min((lengths[u][v] for v in team if v in lengths[u]), default=None)


@given(graphs(connected=True), st.data())
@settings(max_examples=80, deadline=None)
def test_subset_profile_matches_networkx(g, data):
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))))
    h = as_nx(g)
    sub = h.subgraph(subset)
    connected, diameter, less, k = SubsetEvaluator(g).profile(subset)
    assert connected == nx.is_connected(sub)
    if not connected:
        assert (diameter, less, k) == (UNREACHABLE, False, None)
        return
    host_ecc = nx.eccentricity(h)
    sub_ecc = nx.eccentricity(sub)
    assert diameter == max(sub_ecc.values())
    assert less == all(sub_ecc[v] < host_ecc[v] for v in subset)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    outside = set(range(g.n)) - set(subset)
    assert k == max((nearest_team_distance(lengths, subset, u) for u in outside), default=0)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_shell_matches_networkx(g, data):
    """A search's visit order, cut where the level changes, gives the
    shells 0, 1, ... around its source: the cut ``hicom`` makes."""
    v = data.draw(st.integers(0, g.n - 1))
    levels, order = bfs(g.adj, (v,), g.n)
    shells = [set(shell) for _, shell in groupby(order, key=levels.__getitem__)]
    lengths = nx.single_source_shortest_path_length(as_nx(g), v)
    assert shells == [{u for u, d in lengths.items() if d == j} for j in range(len(shells))]
    assert len(shells) == max(lengths.values()) + 1


@given(graphs(max_n=20))
@settings(max_examples=80, deadline=None)
def test_connected_components_match_networkx(g):
    # both list the parts in the order of their smallest vertex
    expected = [frozenset(part) for part in nx.connected_components(as_nx(g))]
    assert [frozenset(part) for part in iter_components(g)] == expected


@st.composite
def edge_lists(draw, max_n=16):
    """n and an edge list in which edges may repeat, either way round."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=3 * n))


@given(edge_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_induced_subgraph_matches_networkx(case, data):
    n, edges = case
    g = Graph(n, edges, labels=[f"x{v}" for v in reversed(range(n))])
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    some = st.sets(st.integers(0, n - 1), min_size=1)
    members = data.draw(st.one_of(some, st.sampled_from(list(nx.connected_components(h)))))
    expected = h.subgraph(members)
    sub = induced_subgraph(g, members)
    hosts = tuple(sorted(expected.nodes))
    assert sub.labels == tuple(g.labels[v] for v in hosts)
    expected_edges = {tuple(sorted(e)) for e in expected.edges}
    assert {(hosts[u], hosts[w]) for u, w in sub.edges} == expected_edges
    assert sub.m == expected.number_of_edges()


@given(edge_lists(), edge_lists())
@settings(max_examples=100, deadline=None)
def test_edge_count_lookup_and_equality_follow_the_edge_set(case, other):
    """``m`` and ``==`` read the sorted rows; they agree with the set of
    edges as (smaller, larger) pairs they once were built on."""
    (n, edges), (n2, edges2) = case, other
    g = Graph(n, edges)
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    assert g.edges == edge_set and g.m == len(edge_set)
    assert g == Graph(n, [(v, u) for u, v in reversed(edges)])
    assert g != Graph(n + 1, edges)
    h = Graph(n2, edges2)
    assert (g == h) == (g.n == h.n and g.edges == h.edges)


@given(graphs(max_n=16), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_graph_power_matches_networkx(g, k):
    power = graph_power(g, k)
    expected = {tuple(sorted(e)) for e in nx.power(as_nx(g), k).edges}
    assert power.edges == expected
    assert power.labels == g.labels


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_reduction_witness_matches_networkx(g, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    k = data.draw(st.integers(1, 4))
    h = as_nx(g)
    power = nx.power(h, k)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    outside = set(range(g.n)) - subset
    k_dominates = all(
        (d := nearest_team_distance(lengths, subset, u)) is not None and d <= k
        for u in outside
    )
    power_connected = nx.is_connected(power.subgraph(subset))
    power_dominates = all(set(power[u]) & subset for u in outside)
    assert reduction_witness(g, k, subset) == (
        k_dominates and power_connected,
        power_dominates and power_connected,
    )


@given(graphs(max_n=9, connected=True), st.data())
@settings(max_examples=60, deadline=None)
def test_connected_sets_are_the_connected_subsets(g, data):
    limit = data.draw(st.integers(1, g.n))
    h = as_nx(g)
    walked = [
        (tuple(v for v in range(g.n) if mask >> v & 1), closed, size)
        for mask, closed, size in SubsetEvaluator(g).connected_sets(lambda: limit)
    ]
    members = [m for m, _, _ in walked]
    assert len(members) == len(set(members))  # each set once
    assert set(members) == {
        s
        for size in range(1, limit + 1)
        for s in combinations(range(g.n), size)
        if nx.is_connected(h.subgraph(s))
    }
    for m, closed, size in walked:
        assert size == len(m)
        assert closed == sum(1 << v for v in set(m).union(*(h[u] for u in m)))


@given(graphs(max_n=9, connected=True), st.data())
@settings(max_examples=60, deadline=None)
def test_connected_sets_within_a_mask_are_its_connected_subsets(g, data):
    """Closed neighbourhoods stay the host's own, outside the mask too."""
    within = data.draw(st.sets(st.integers(0, g.n - 1)))
    h = as_nx(g)
    walked = [
        (tuple(v for v in range(g.n) if mask >> v & 1), closed)
        for mask, closed, _ in SubsetEvaluator(g).connected_sets(
            lambda: g.n, within=sum(1 << v for v in within)
        )
    ]
    members = [m for m, _ in walked]
    assert len(members) == len(set(members))
    assert set(members) == {
        s
        for size in range(1, len(within) + 1)
        for s in combinations(sorted(within), size)
        if nx.is_connected(h.subgraph(s))
    }
    for m, closed in walked:
        assert closed == sum(1 << v for v in set(m).union(*(h[u] for u in m)))


def from_nx(h, seed=None):
    """comfnet Graph of a networkx graph, vertices renumbered in node order
    or, with a seed, in a shuffled order."""
    nodes = list(h.nodes)
    if seed is not None:
        random.Random(seed).shuffle(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in h.edges])


def random_tree(n, seed):
    rng = random.Random(seed)
    return nx.Graph([(rng.randrange(i), i) for i in range(1, n)])


def connected_gnp(n, factor, seed):
    """Connected G(n, p) with p = factor * ln n / n: narrow graphs."""
    p = factor * math.log(n) / n
    while not nx.is_connected(h := nx.gnp_random_graph(n, p, seed=seed)):
        seed += 1000
    return h


# Cycles, complete bipartite graphs, barbells and hypercubes, where
# eccentricity bounds settle almost nothing early; lollipops, a clique with
# a path; paths, grids and random trees, where a few searches settle most
# vertices; and narrow random graphs, which are swept many sources at once.
FAMILIES = {
    **{f"cycle-{n}": nx.cycle_graph(n) for n in (3, 4, 7, 10, 33, 64, 151, 200)},
    **{f"K{a},{b}": nx.complete_bipartite_graph(a, b) for a, b in ((1, 1), (1, 6), (3, 3), (4, 9), (20, 30))},
    **{f"barbell-{a}-{b}": nx.barbell_graph(a, b) for a, b in ((3, 0), (4, 2), (10, 5), (30, 40))},
    **{f"Q{d}": nx.hypercube_graph(d) for d in (3, 4, 5, 6)},
    **{f"lollipop-{a}-{b}": nx.lollipop_graph(a, b) for a, b in ((3, 1), (5, 8), (20, 60), (60, 20))},
    **{f"path-{n}": nx.path_graph(n) for n in (1, 2, 3, 8, 57, 200)},
    **{f"grid-{r}x{c}": nx.grid_2d_graph(r, c) for r, c in ((1, 9), (2, 2), (5, 7), (10, 10), (8, 25), (14, 14))},
    **{f"tree-{n}-{s}": random_tree(n, s) for n, s in ((5, 1), (30, 2), (90, 3), (150, 4), (200, 5), (200, 6))},
    **{f"gnp-{n}-{s}": connected_gnp(n, 2.5, s) for n, s in ((40, 1), (120, 2), (300, 3), (600, 4))},
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_eccentricity_profile_on_families(name):
    h = FAMILIES[name]
    for seed in (None, 1):
        g = from_nx(h, seed)
        expected = nx.eccentricity(as_nx(g))
        prof = eccentricity_profile(g)
        assert prof.eccentricity == tuple(expected[v] for v in range(g.n))
        assert prof.center == tuple(v for v in range(g.n) if expected[v] == prof.radius)


@st.composite
def connected_member_sets(draw, g):
    """A connected vertex set grown from one vertex by random neighbours."""
    team = {draw(st.integers(0, g.n - 1))}
    for _ in range(draw(st.integers(0, g.n - 1))):
        frontier = sorted({w for v in team for w in g.adj[v]} - team)
        if not frontier:
            break
        team.add(draw(st.sampled_from(frontier)))
    return frozenset(team)


def assert_induced_metrics_match(g, team):
    """(connected, diameter, violators) against networkx; on a disconnected
    host every vertex's eccentricity is UNREACHABLE, so only the members of
    a disconnected team are violators."""
    host = as_nx(g)
    sub = host.subgraph(team)
    connected, diameter, violators = induced_metrics(g, team)
    assert connected == nx.is_connected(sub)
    host_ecc = nx.eccentricity(host) if nx.is_connected(host) else dict.fromkeys(host, UNREACHABLE)
    if connected:
        expected = nx.eccentricity(sub)
        assert diameter == max(expected.values())
        assert violators == tuple(v for v in sorted(team) if expected[v] >= host_ecc[v])
    else:
        assert diameter == UNREACHABLE
        assert violators == tuple(sorted(team))


@given(graphs(max_n=16), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_metrics_match_networkx(g, data):
    team = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    assert_induced_metrics_match(g, team)


@given(graphs(max_n=40, connected=True), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_metrics_on_connected_teams_match_networkx(g, data):
    assert_induced_metrics_match(g, data.draw(connected_member_sets(g)))


@pytest.mark.parametrize("name", ["grid-14x14", "tree-200-5", "lollipop-20-60", "gnp-300-3", "Q6"])
def test_induced_metrics_on_family_balls(name):
    """Balls around a vertex: the team shapes hicom grows."""
    g = from_nx(FAMILIES[name], 7)
    levels = bfs(g.adj, (0,), g.n)[0]
    for radius in (1, 3, 6):
        assert_induced_metrics_match(g, frozenset(v for v in range(g.n) if levels[v] <= radius))


@given(graphs(max_n=30, connected=True), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_permutes_eccentricities(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    moved = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    host, host_moved = eccentricity_profile(g), eccentricity_profile(moved)
    assert all(host_moved.eccentricity[perm[v]] == e for v, e in enumerate(host.eccentricity))
    team = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    connected, diameter, violators = induced_metrics(g, frozenset(team))
    connected_m, diameter_m, violators_m = induced_metrics(moved, frozenset(perm[v] for v in team))
    assert (connected_m, diameter_m) == (connected, diameter)
    assert violators_m == tuple(sorted(perm[v] for v in violators))
