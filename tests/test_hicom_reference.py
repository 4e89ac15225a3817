"""HICOM's exhaustive searches against references written from the definitions.

Two searches in ``hicom`` are exhaustive. When the greedy repair walk dead-ends,
``_exhaustive_repair`` returns the largest subset of the stuck candidate that
is connected, less dispersive, of induced diameter at most d1 and of
domination radius k at most that diameter; among subsets of that size it
returns the first in ``itertools.combinations`` order. On graphs of diameter
at most 2 with n <= 20, ``small_diameter_fallback`` returns the smallest
dominating clique, lexicographically first. The references below walk
``combinations`` and networkx's ``enumerate_all_cliques`` and read every hop
metric from networkx, so they share no code with what they check.

networkx is a test-only reference; the module is skipped where it is not
installed.
"""

import contextlib
import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import (
    Graph,
    HicomError,
    complete_graph,
    cycle_graph,
    hicom,
    small_diameter_fallback,
    star_graph,
)
from comfnet.corpus import standard_corpus
from comfnet.hicom import EXHAUSTIVE_REPAIR_LIMIT, _exhaustive_repair

nx = pytest.importorskip("networkx")
from test_bfs_reference import as_nx, graphs  # noqa: E402  (after the skip)


def reference_repair(g, members, d1):
    h = as_nx(g)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    ecc = nx.eccentricity(h)
    pool = sorted(members)
    for size in range(len(pool) - 1, 0, -1):
        for subset in combinations(pool, size):
            sub = h.subgraph(subset)
            if not nx.is_connected(sub):
                continue
            inner = nx.eccentricity(sub)
            if any(inner[v] >= ecc[v] for v in subset):
                continue
            diameter = max(inner.values())
            k = max(min(dist[u][v] for v in subset) for u in h)
            if diameter <= d1 and k <= diameter:
                return frozenset(subset)
    return None


@given(graphs(max_n=12, connected=True), st.data())
@settings(max_examples=100, deadline=None)
def test_exhaustive_repair_matches_the_reference(g, data):
    """Candidates are most of the graph, as a stuck one is, and may be
    disconnected."""
    dropped = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n // 3))
    members = set(range(g.n)) - dropped
    diameter = max(nx.eccentricity(as_nx(g)).values())
    d1 = data.draw(st.integers(1, max(1, diameter)))
    assert _exhaustive_repair(g, frozenset(members), d1) == reference_repair(g, members, d1)


#: (n, edges, candidate, d1) met on relabelled corpus graphs, where the HC
#: subsets of the largest size differ in k: the first in ``combinations``
#: order must win, not the one of least k
TIED = [
    (10, [(0, 1), (0, 2), (0, 3), (0, 8), (0, 9), (1, 3), (2, 3), (3, 6), (3, 7), (3, 8), (4, 5),
          (4, 6), (5, 8), (5, 9), (6, 7), (6, 8), (7, 8), (7, 9)], [0, 1, 2, 3, 6, 7, 8], 2),
    (13, [(0, 3), (0, 7), (0, 12), (1, 2), (1, 5), (1, 10), (1, 12), (2, 8), (3, 5), (3, 9),
          (3, 10), (4, 6), (4, 7), (4, 9), (5, 6), (5, 8), (5, 9), (5, 12), (6, 7), (6, 9),
          (6, 10), (6, 12), (7, 8), (8, 9), (8, 10), (9, 10), (9, 11), (9, 12), (10, 11),
          (11, 12)], [1, 3, 5, 6, 8, 9, 12], 2),
]


@pytest.mark.parametrize("case", range(len(TIED)))
def test_exhaustive_repair_ties_go_to_combinations_order(case):
    n, edges, members, d1 = TIED[case]
    g = Graph(n, edges)
    assert _exhaustive_repair(g, frozenset(members), d1) == reference_repair(g, members, d1)


@pytest.mark.parametrize("seed", [1, 2])
def test_exhaustive_repair_on_the_relabelled_corpus(monkeypatch, seed):
    """Every candidate that hicom's greedy repair leaves stuck on the
    standard corpus, each graph relabelled."""
    module = importlib.import_module("comfnet.hicom")
    real, seen = module._exhaustive_repair, []

    def spy(g, members, d1):
        found = real(g, members, d1)
        seen.append((g, members, d1, found))
        return found

    monkeypatch.setattr(module, "_exhaustive_repair", spy)
    rng = random.Random(seed)
    for g in standard_corpus():
        perm = list(range(g.n))
        rng.shuffle(perm)
        with contextlib.suppress(HicomError):
            hicom(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), Fraction(3, 2))
    assert len(seen) >= 10
    for g, members, d1, found in seen:
        if len(members) > EXHAUSTIVE_REPAIR_LIMIT:
            assert found is None
        else:
            assert found == reference_repair(g, members, d1)


def reference_dominating_clique(g):
    h = as_nx(g)
    best = None
    for clique in nx.enumerate_all_cliques(h):  # cliques by nondecreasing size
        if best is not None and len(clique) > len(best):
            break
        covered = set(clique).union(*(h[v] for v in clique))
        if len(covered) == g.n and (best is None or sorted(clique) < list(best)):
            best = tuple(sorted(clique))
    return best


@st.composite
def dense_graphs(draw, max_n=20):
    """The complement of a sparse graph: mostly diameter <= 2, shrinking
    towards the complete graph."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    gone = {frozenset(p) for p in draw(st.lists(pairs, max_size=2 * n))}
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if {u, v} not in gone])


def fallback_members(g):
    team = small_diameter_fallback(g)
    return None if team is None else tuple(sorted(team))


@given(dense_graphs())
@settings(max_examples=80, deadline=None)
def test_fallback_is_the_first_smallest_dominating_clique(g):
    h = as_nx(g)
    if not nx.is_connected(h) or nx.diameter(h) > 2:
        return
    assert fallback_members(g) == reference_dominating_clique(g)


def k33():
    return Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def petersen():
    h = nx.petersen_graph()
    return Graph(10, list(h.edges))


def wheel(n):
    return Graph(n, [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)])


NAMED = {
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "K4-e": Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K3,3": k33(),
    "Petersen": petersen(),
    "star-9": star_graph(9),
    "wheel-12": wheel(12),
    "K20": complete_graph(20),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_fallback_on_named_graphs(name):
    g = NAMED[name]
    assert fallback_members(g) == reference_dominating_clique(g)


def test_fallback_on_random_graphs_of_diameter_two():
    checked = 0
    for seed in range(40):
        h = nx.gnp_random_graph(10 + seed % 11, 0.45, seed=seed)
        if nx.is_connected(h) and nx.diameter(h) <= 2:
            g = Graph(h.number_of_nodes(), list(h.edges))
            assert fallback_members(g) == reference_dominating_clique(g), seed
            checked += 1
    assert checked >= 5
