"""The exact oracle against a reference written from the definitions.

The reference walks ``itertools.combinations`` in (size, lexicographic)
order and reads every hop metric from networkx; it shares no code with
comfnet's scans. Each kind's answer is the first feasible size, the
minimal domination radius k among that size's feasible subsets, and the
lexicographically first subset reaching it, with ``enumerated`` the number
of subsets of the sizes scanned. A metamorphic test relabels the vertices
and checks that the answers move with them.

networkx is a test-only reference; the module is skipped where it is not
installed.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import Graph, exact_max_team, exact_min_cds, exact_min_team
from comfnet.corpus import small_corpus

nx = pytest.importorskip("networkx")
from test_bfs_reference import as_nx, graphs  # noqa: E402  (after the skip)

L32 = Fraction(3, 2)
#: (kind, l) per query; "max" is the maximum-cardinality HC team
QUERIES = (
    ("comfortable", None),
    ("bc", L32),
    ("bc", Fraction(2)),
    ("hc", L32),
    ("hc", Fraction(2)),
    ("max", L32),
    ("cds", None),
)


class Reference:
    """Every subset's (connected, induced diameter, less dispersive, k),
    computed once per graph from networkx."""

    def __init__(self, g):
        self.n = g.n
        self.h = as_nx(g)
        self.dist = dict(nx.all_pairs_shortest_path_length(self.h))
        self.ecc = nx.eccentricity(self.h)
        self.diameter = max(self.ecc.values())
        self._profiles = {}

    def profile(self, subset):
        if subset not in self._profiles:
            sub = self.h.subgraph(subset)
            if not nx.is_connected(sub):
                self._profiles[subset] = (False, None, False, None)
            else:
                sub_ecc = nx.eccentricity(sub)
                outside = set(range(self.n)) - set(subset)
                k = max((min(self.dist[u][v] for v in subset) for u in outside), default=0)
                self._profiles[subset] = (
                    True,
                    max(sub_ecc.values()),
                    all(sub_ecc[v] < self.ecc[v] for v in subset),
                    k,
                )
        return self._profiles[subset]

    def feasible(self, kind, l, subset):
        connected, diameter, less, k = self.profile(subset)
        if not connected:
            return False
        if kind == "cds":
            return k <= 1
        if not less:
            return False
        if kind == "comfortable":
            return k <= 1
        target = math.ceil(Fraction(self.diameter) / l)
        if kind == "bc":
            return diameter == target
        return diameter <= target and k <= diameter

    def answer(self, kind, l):
        """(optimum, witness, k, enumerated) for one query."""
        n = self.n
        if kind == "max":
            sizes = range(n - 1, 0, -1)
        elif kind == "cds":
            sizes = range(1, n + 1)
        else:
            sizes = range(1, n)
        enumerated = 0
        for size in sizes:
            enumerated += math.comb(n, size)
            found = [
                (self.profile(s)[3], s)
                for s in combinations(range(n), size)
                if self.feasible("hc" if kind == "max" else kind, l, s)
            ]
            if found:
                k, witness = min(found)
                return size, witness, k, enumerated
        return None, None, None, enumerated


def solve(g, kind, l):
    if kind == "max":
        answer = exact_max_team(g, l)
    elif kind == "cds":
        answer = exact_min_cds(g)
    else:
        answer = exact_min_team(g, kind, l)
    return answer.optimum, answer.witness, answer.secondary_optimum, answer.enumerated


def check_against_reference(g):
    ref = Reference(g)
    for kind, l in QUERIES:
        if kind != "cds" and g.n < 2:
            continue  # a team is a nonempty proper subset
        assert solve(g, kind, l) == ref.answer(kind, l), (kind, l, g.edges)


@given(graphs(max_n=8, connected=True))
@settings(max_examples=60, deadline=None)
def test_oracle_matches_reference_on_random_graphs(g):
    check_against_reference(g)


#: graphs where a connected-set walk meets some optimum-size, minimal-k
#: team before the lexicographically first one (bc at 3/2, max at 3/2 and
#: cds, respectively), so keeping the first one found gives a wrong witness
NOT_FOUND_IN_ORDER = [
    Graph(9, [(0, 1), (0, 2), (1, 6), (1, 8), (2, 3), (2, 4), (3, 7), (4, 5), (5, 8), (6, 7)]),
    Graph(9, [(0, 1), (0, 2), (1, 4), (1, 7), (1, 8), (2, 3), (2, 7), (3, 5), (4, 5), (4, 7),
              (5, 6), (5, 7)]),
    Graph(9, [(0, 1), (0, 3), (0, 6), (0, 7), (1, 2), (1, 5), (1, 6), (1, 7), (2, 4), (2, 6),
              (3, 4), (3, 7), (5, 6), (6, 8)]),
]


@pytest.mark.parametrize("g", NOT_FOUND_IN_ORDER)
def test_witness_is_lexicographically_first(g):
    check_against_reference(g)


CORPUS = [g for g in small_corpus() if g.n <= 9]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_oracle_matches_reference_on_corpus(index):
    check_against_reference(CORPUS[index])


def relabel(g, perm):
    """The graph with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@given(graphs(max_n=9, connected=True), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_relabelling_moves_every_answer_with_the_vertices(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    inverse = {new: old for old, new in enumerate(perm)}
    ref = Reference(g)
    moved = relabel(g, perm)
    for kind, l in QUERIES:
        if kind != "cds" and g.n < 2:
            continue
        optimum, _, k, enumerated = solve(g, kind, l)
        optimum_p, witness_p, k_p, enumerated_p = solve(moved, kind, l)
        assert (optimum_p, k_p, enumerated_p) == (optimum, k, enumerated)
        if witness_p is not None:
            back = tuple(sorted(inverse[v] for v in witness_p))
            assert ref.feasible("hc" if kind == "max" else kind, l, back)
            assert ref.profile(back)[3] == k
