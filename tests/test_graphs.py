import hashlib
import random
import time
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import (
    EdgeListParseError,
    Graph,
    UNREACHABLE,
    all_pairs_distances,
    connected_gnp,
    cycle_graph,
    eccentricity_profile,
    gnp,
    graph_digest,
    graph_power,
    induced_subgraph,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
    to_dot,
)
from comfnet.graphs import bfs, iter_components


def floyd_warshall(g):
    """Independent distance oracle for cross-checking BFS."""
    dist = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1.0
    for mid in range(g.n):
        dist = np.minimum(dist, dist[:, [mid]] + dist[[mid], :])
    return np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int64)


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    p = draw(st.floats(0.2, 0.9))
    seed = draw(st.integers(0, 10**6))
    return connected_gnp(n, p, seed=seed)


# --- parsing ----------------------------------------------------------------

def test_parse_p6(p6):
    assert p6.n == 6
    assert p6.m == 5
    assert p6 == path_graph(6)


def test_parse_single_vertex():
    g = parse_edge_list("1 0")
    assert g.n == 1 and g.m == 0


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_tolerates_comments_blank_lines_and_crlf():
    text = "# generated\r\n\r\n6 5\r\n0 1\r\n1 2\n2 3\n# mid comment\n3 4\n4 5\n"
    assert parse_edge_list(text) == path_graph(6)


def test_parse_deduplicates_edges():
    g = parse_edge_list("3 3\n0 1\n1 0\n1 2")
    assert g.m == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("2", "header"),
        ("2 1\n0 x", "line 2"),
        ("2 1\n0 5", "line 2"),
        ("2 1\n1 1", "self-loop"),
        ("3 2\n0 1", "2 edges"),
        ("0 0", "vertex count"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty input, expected header 'n m'"),
        ("# a\n\n  # b\n", "line 1: empty input, expected header 'n m'"),
        ("2 1 5\n0 1", "line 1: expected header 'n m', got '2 1 5'"),
        ("# c\na b\n", "line 2: non-integer header 'a b'"),
        ("0 0", "line 1: vertex count must be >= 1, got 0"),
        ("2 -1", "line 1: edge count must be >= 0, got -1"),
        # the count mismatch is reported before the bad edge line
        ("# c\n3 2\n0 x\n", "line 2: header promises 2 edges but 1 edge lines follow"),
        ("3 2\n\n0 1\n# c\n", "line 1: header promises 2 edges but 1 edge lines follow"),
        ("3 1\n0 x", "line 2: non-integer endpoints '0 x'"),
        ("3 1\n0 1 2", "line 2: expected 'u v', got '0 1 2'"),
        ("3 1\n0 3", "line 2: vertex out of range 0..2: '0 3'"),
        ("3 1\n-1 2", "line 2: vertex out of range 0..2: '-1 2'"),
        ("3 1\n\n1 1", "line 3: self-loop at vertex 1"),
        ("3 3\n0 1\n1 1\n0 x\n", "line 3: self-loop at vertex 1"),
    ],
)
def test_parse_error_messages_are_exact(text, message):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_serialize_parse_roundtrip(p6, c6):
    for g in (p6, c6, star_graph(4)):
        assert parse_edge_list(serialize_edge_list(g)) == g


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_roundtrip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@st.composite
def any_graphs(draw, max_n=14):
    """Graphs from raw vertex pairs, repeats and disconnected ones included."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


def sorted_edges_text(g):
    """The canonical edge list written from ``sorted(g.edges)``."""
    return "".join([f"{g.n} {g.m}\n", *(f"{u} {v}\n" for u, v in sorted(g.edges))])


@given(any_graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_exports_follow_the_sorted_edge_order(g, data):
    assert serialize_edge_list(g) == sorted_edges_text(g)
    assert graph_digest(g) == hashlib.sha1(sorted_edges_text(g).encode()).hexdigest()[:12]
    team = data.draw(st.sets(st.integers(0, g.n - 1)))
    dot = to_dot(g, team=team).splitlines()
    assert dot[0] == "graph G {" and dot[-1] == "}"
    assert dot[1 + g.n:-1] == [f'  "v{u + 1}" -- "v{v + 1}";' for u, v in sorted(g.edges)]
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(any_graphs())
@settings(max_examples=80, deadline=None)
def test_parse_matches_the_graph_of_its_edges(g):
    # edge lines in a shuffled, duplicated, reversed and commented form
    lines = [f"{v} {u}" for u, v in sorted(g.edges, reverse=True)] + [f"{u} {v}" for u, v in g.edges]
    text = f"# header next\n{g.n} {len(lines)}\r\n" + "\n# c\n".join(lines)
    parsed = parse_edge_list(text)
    assert parsed == g
    assert parsed.adj == g.adj
    assert parsed.edges == g.edges and parsed.m == g.m


def _parse_peak_bytes(text):
    tracemalloc.start()
    try:
        parse_edge_list(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_of_many_isolated_vertices_stays_lean():
    # 27.3 MB when the parse first built an edge set and then copied it
    assert _parse_peak_bytes("200000 0\n") <= 27.4e6


def test_parse_of_a_sparse_graph_keeps_no_copy_of_the_input():
    rng = random.Random(5)
    n, pairs = 20_000, set()
    while len(pairs) < 60_000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    text = f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    # 30.1 MB when the parse kept a list of lines, an edge list and an edge set
    assert _parse_peak_bytes(text) < 22e6


# --- construction invariants ------------------------------------------------

def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0)


def test_adjacency_is_symmetric_and_sorted(c6):
    for u in range(c6.n):
        for v in c6.adj[u]:
            assert u in c6.adj[v]
        assert list(c6.adj[u]) == sorted(c6.adj[u])


def test_default_labels_and_lookup(p6):
    assert p6.labels == ("v1", "v2", "v3", "v4", "v5", "v6")
    assert p6.vertex_for_label("v3") == 2
    with pytest.raises(KeyError):
        p6.vertex_for_label("nope")


# --- distances ---------------------------------------------------------------

def test_bfs_p6_row(p6):
    assert bfs(p6.adj, (0,), p6.n)[0] == [0, 1, 2, 3, 4, 5]


def test_bfs_c6_multiset(c6):
    assert sorted(bfs(c6.adj, (2,), c6.n)[0]) == [0, 1, 1, 2, 2, 3]


def test_bfs_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert bfs(g.adj, (0,), g.n)[0] == [0, 1, 1]


def test_all_pairs_p6_corner(p6):
    dist = all_pairs_distances(p6)
    assert dist[0][5] == 5
    assert dist == [list(column) for column in zip(*dist)]


def test_all_pairs_matches_floyd_warshall_fixed():
    g = gnp(8, 0.5, seed=1)
    assert all_pairs_distances(g) == floyd_warshall(g).tolist()


@given(st.integers(2, 10), st.floats(0.1, 0.9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_all_pairs_matches_floyd_warshall_property(n, p, seed):
    g = gnp(n, p, seed=seed)
    assert all_pairs_distances(g) == floyd_warshall(g).tolist()


def test_unreachable_sentinel_dominates_real_distances():
    g = Graph(4, [(0, 1), (2, 3)])
    dist = all_pairs_distances(g)
    assert dist[0][2] == UNREACHABLE
    assert UNREACHABLE > g.n


# --- eccentricity profile ----------------------------------------------------

def test_profile_p6(p6):
    prof = eccentricity_profile(p6)
    assert prof.eccentricity == (5, 4, 3, 3, 4, 5)
    assert prof.radius == 3
    assert prof.diameter == 5
    assert prof.center == (2, 3)
    assert prof.periphery == (0, 5)
    assert prof.class_label == "tri-eccentric"


def test_profile_c6_self_centered(c6):
    prof = eccentricity_profile(c6)
    assert prof.eccentricity == (3,) * 6
    assert prof.class_label == "self-centered"
    assert prof.center == tuple(range(6))


def test_profile_star_bi_eccentric():
    prof = eccentricity_profile(star_graph(4))
    assert prof.radius == 1 and prof.diameter == 2
    assert prof.center == (0,)
    assert prof.class_label == "bi-eccentric"


def test_profile_single_vertex():
    prof = eccentricity_profile(Graph(1))
    assert prof.radius == 0 == prof.diameter


def test_profile_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        eccentricity_profile(Graph(4, [(0, 1), (2, 3)]))


def test_profile_json_keys(p6):
    payload = eccentricity_profile(p6).to_json_dict(p6.labels)
    assert set(payload) == {"eccentricity", "radius", "diameter", "center", "periphery", "class"}
    assert payload["center"] == ["v3", "v4"]


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_radius_diameter_sandwich(g):
    prof = eccentricity_profile(g)
    assert prof.radius <= prof.diameter <= 2 * prof.radius


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_eccentricity_two_ways(g):
    # profile values must equal row-wise maxima of the distance matrix
    prof = eccentricity_profile(g)
    assert list(prof.eccentricity) == [max(row) for row in all_pairs_distances(g)]


# --- shells -------------------------------------------------------------------

def shells(g, v):
    """The shells around v, cut from one search's visit order."""
    levels, order = bfs(g.adj, (v,), g.n)
    return [set(shell) for _, shell in groupby(order, key=levels.__getitem__)]


def test_shell_examples(p6, c6):
    assert shells(p6, 0)[2] == {2}
    assert shells(c6, 0)[1] == {1, 5}
    assert shells(c6, 3)[0] == {3}
    assert len(shells(p6, 0)) == 6


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_shells_partition_vertices(g):
    prof = eccentricity_profile(g)
    for v in range(g.n):
        parts = shells(g, v)
        assert len(parts) == prof.eccentricity[v] + 1
        union = set().union(*parts)
        assert union == set(range(g.n))
        assert sum(len(p) for p in parts) == g.n


# --- induced subgraphs --------------------------------------------------------

def test_induced_p4_from_p6(p6):
    sub, hosts, index = induced_subgraph(p6, {1, 2, 3, 4})
    assert sub == path_graph(4)
    assert hosts == (1, 2, 3, 4)
    assert index[3] == 2
    assert sub.labels == ("v2", "v3", "v4", "v5")


def test_induced_identity(c6):
    sub, _, _ = induced_subgraph(c6, range(6))
    assert sub == c6


def test_induced_independent_set(c6):
    sub, _, _ = induced_subgraph(c6, {0, 2, 4})
    assert sub.m == 0


def test_induced_errors(c6):
    with pytest.raises(ValueError):
        induced_subgraph(c6, set())
    with pytest.raises(ValueError):
        induced_subgraph(c6, {0, 9})


@given(connected_graphs(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_induced_distances_never_shrink(g, seed):
    import random

    rng = random.Random(seed)
    size = rng.randint(1, g.n)
    members = sorted(rng.sample(range(g.n), size))
    sub, hosts, _ = induced_subgraph(g, members)
    dist_host = all_pairs_distances(g)
    dist_sub = all_pairs_distances(sub)
    for i, u in enumerate(hosts):
        for j, v in enumerate(hosts):
            assert dist_sub[i][j] >= dist_host[u][v]


# --- graph powers ---------------------------------------------------------------

def test_power_identity(c6):
    assert graph_power(c6, 1) == c6


def test_power_p4_squared():
    assert graph_power(path_graph(4), 2).edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    )


def test_power_c6_cubed_complete(c6):
    assert graph_power(c6, 3).m == 15


def test_power_rejects_k_zero(c6):
    with pytest.raises(ValueError):
        graph_power(c6, 0)


def test_power_never_holds_a_dense_distance_matrix():
    g = path_graph(500)
    tracemalloc.start()
    try:
        squared = graph_power(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert squared.m == 2 * g.n - 3
    assert peak * 4 <= g.n * g.n * 8  # a quarter of one n x n int64 matrix


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_power_monotone_and_saturates(g):
    prof = eccentricity_profile(g)
    previous = g
    for k in range(2, prof.diameter + 2):
        current = graph_power(g, k)
        assert previous.edges <= current.edges
        previous = current
    full = graph_power(g, prof.diameter)
    assert full.m == g.n * (g.n - 1) // 2


# --- components -----------------------------------------------------------------

def components(g):
    return [set(part) for part in iter_components(g)]


def test_components_connected(p6):
    assert components(p6) == [set(range(6))]


def test_components_two_parts():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert components(g) == [{0, 1, 2}, {3, 4}]


def test_components_edgeless():
    assert components(Graph(4)) == [{i} for i in range(4)]


def test_components_take_linear_time_in_their_number():
    begin = time.perf_counter()
    parts = components(parse_edge_list("200000 0\n"))
    assert time.perf_counter() - begin < 5.0  # one search per vertex took minutes
    assert len(parts) == 200_000 and parts[-1] == {199_999}


# --- exports ---------------------------------------------------------------------

def test_dot_marks_team_and_is_stable(c6):
    dot = to_dot(c6, team={0, 1, 5})
    assert dot == to_dot(c6, team={5, 1, 0})
    assert '"v1" [style=filled, fillcolor=lightblue, team=true];' in dot
    assert '"v3";' in dot
    assert '"v1" -- "v2";' in dot


def test_digest_is_stable(p6):
    assert graph_digest(p6) == graph_digest(path_graph(6))
    assert graph_digest(p6) != graph_digest(cycle_graph(6))
