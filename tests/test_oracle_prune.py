"""The oracle's conflict prune: its masks, its soundness, its answers.

``SubsetEvaluator.conflicts`` marks the pairs u, v with host distance at
least min(ecc(u), ecc(v), target + 1). Induced distances never shrink, so
every set holding such a pair fails the team tests, and the connected-set
walk skips it with all its supersets. The tests check the masks against
networkx distances, check that no set the walk may skip passes the
reference test of its kind, compare the pruned answers with a scan of
every connected set on graphs whose scans are exhaustive or long, and pin
how many sets the walk yields on one no-team fixture.

The walk drops a conflicting vertex from its extension sets as soon as one
member's row holds it, which is sound only because the rows are
symmetric; the tests check that of every mask the walk is given. Max scans
also skip every subtree that cannot reach the best size found; the tests
compare them with the scan of every connected set and pin how many sets
one such scan yields.

networkx is a test-only reference; the module is skipped where it is not
installed.
"""

import contextlib
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comfnet import Graph, exact_max_team, exact_min_cds, exact_min_team, small_diameter_fallback
from comfnet.criteria import SubsetEvaluator, bc_target
from comfnet.oracle import OracleAnswer

nx = pytest.importorskip("networkx")
from test_bfs_reference import as_nx, graphs  # noqa: E402  (after the skip)
from test_golden import ORACLE_GRAPHS, _grid  # noqa: E402
from test_hicom_reference import dense_graphs  # noqa: E402
from test_oracle_reference import QUERIES, Reference  # noqa: E402


@contextlib.contextmanager
def walks_seen():
    """Record, per connected-set walk, the conflict masks it was given and
    how many sets it yielded. Every argument goes on to the walk."""
    walk = SubsetEvaluator.connected_sets
    seen = []

    def spy(self, limit, conflicts=None, *rest, **options):
        record = {"conflicts": conflicts, "yielded": 0}
        seen.append(record)
        for item in walk(self, limit, conflicts, *rest, **options):
            record["yielded"] += 1
            yield item

    SubsetEvaluator.connected_sets = spy
    try:
        yield seen
    finally:
        SubsetEvaluator.connected_sets = walk


def solve(g, kind, l):
    if kind == "max":
        return exact_max_team(g, l, cap=g.n)
    if kind == "cds":
        return exact_min_cds(g, cap=g.n)
    return exact_min_team(g, kind, l, cap=g.n)


@given(graphs(max_n=12, connected=True), st.sampled_from([None, 0, 1, 2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_conflicts_match_their_definition(g, target):
    h = as_nx(g)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    ecc = nx.eccentricity(h)
    ceiling = math.inf if target is None else target + 1
    expected = tuple(
        sum(1 << u for u in range(g.n) if dist[u][v] >= min(ecc[u], ecc[v], ceiling))
        for v in range(g.n)
    )
    assert SubsetEvaluator(g).conflicts(target) == expected


@given(graphs(max_n=12, connected=True), st.sampled_from([None, 1, 2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_conflicts_within_a_mask_are_its_rows_cut_to_it(g, target, data):
    within = data.draw(st.sets(st.integers(0, g.n - 1)))
    mask = sum(1 << v for v in within)
    ev = SubsetEvaluator(g)
    rows = ev.conflicts(target)
    expected = tuple(row & mask if v in within else 0 for v, row in enumerate(rows))
    assert ev.conflicts(target, mask) == expected


def is_symmetric(rows):
    return all((rows[v] >> u & 1) == (rows[u] >> v & 1) for u in range(len(rows)) for v in range(u))


@given(graphs(max_n=12, connected=True), st.sampled_from([None, 0, 1, 2, 3, 4, 5]), st.data())
@settings(max_examples=80, deadline=None)
def test_conflict_rows_are_symmetric(g, target, data):
    ev = SubsetEvaluator(g)
    assert is_symmetric(ev.conflicts(target))
    within = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert is_symmetric(ev.conflicts(target, sum(1 << v for v in within)))


@given(graphs(max_n=10, connected=True), st.sampled_from([None, 0, 1, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_filtered_walk_is_the_full_walk_without_conflicting_sets(g, target):
    ev = SubsetEvaluator(g)
    clash = ev.conflicts(target)

    def conflict_free(mask):
        return not any(clash[u] >> w & 1 for u, w in combinations(ev.members(mask), 2))

    full = [s for s in ev.connected_sets(lambda: g.n) if conflict_free(s[0])]
    assert list(ev.connected_sets(lambda: g.n, clash)) == full


@given(dense_graphs())
@settings(max_examples=60, deadline=None)
def test_fallback_stranger_rows_are_symmetric(g):
    if not g.is_connected() or g.n > 20:
        return
    with walks_seen() as seen:
        try:
            small_diameter_fallback(g)
        except ValueError:  # diameter above 2: the fallback does not apply
            return
    (walk,) = seen
    assert is_symmetric(walk["conflicts"])


@given(graphs(max_n=10, connected=True), st.sampled_from(["3/2", "2"]))
@settings(max_examples=80, deadline=None)
def test_max_scan_floor_keeps_the_unpruned_answer(g, l):
    assert exact_max_team(g, l, cap=g.n) == scan_without_masks(g, "max", l)


def test_max_scan_floor_skips_what_cannot_reach_the_best_size():
    """Without the floor this scan yields 944 015 sets."""
    g = Graph(30, _grid(5, 6))
    with walks_seen() as seen:
        answer = exact_max_team(g, "3/2", cap=30)
    assert (answer.optimum, answer.secondary_optimum) == (22, 2)
    assert [walk["yielded"] for walk in seen] == [529]


@given(graphs(max_n=9, connected=True))
@settings(max_examples=40, deadline=None)
def test_every_set_the_walk_may_skip_fails_its_kind(g):
    """For each query, the masks the oracle hands its walk never mark a pair
    inside a connected set that passes the reference test."""
    ref = Reference(g)
    connected = [
        s for size in range(1, g.n + 1) for s in combinations(range(g.n), size)
        if ref.profile(s)[0]
    ]
    for kind, l in QUERIES:
        if kind != "cds" and g.n < 2:
            continue  # a team is a nonempty proper subset
        with walks_seen() as seen:
            solve(g, kind, l)
        (walk,) = seen
        if walk["conflicts"] is None:
            continue
        clash = walk["conflicts"]
        for s in connected:
            if any(clash[u] >> v & 1 for u, v in combinations(s, 2)):
                assert not ref.feasible("hc" if kind == "max" else kind, l, s), (kind, l, s)


def scan_without_masks(g, kind, l):
    """The oracle's answer from every connected set the kind's test sees,
    no set skipped: the first feasible size in scan order, then minimal k,
    then the lexicographically first witness."""
    ev = SubsetEvaluator(g)
    target = None if kind in ("comfortable", "cds") else bc_target(g, l)
    test = ev.kind_test("hc" if kind == "max" else kind, target)
    n = g.n
    sizes = {"max": range(n - 1, 0, -1), "cds": range(1, n + 1)}.get(kind, range(1, n))
    best = {}  # size -> (k, witness)

    def limit():  # a smallest-size walk need not go past the best size yet
        return n if kind == "max" else min(best, default=n)

    for mask, closed, size in ev.connected_sets(limit):
        if size not in sizes or (kind == "max" and size < max(best, default=0)):
            continue
        k = test(mask, closed)
        if k is not None:
            found = (k, ev.members(mask))
            best[size] = min(best.get(size, found), found)
    label = "hc-max" if kind == "max" else kind
    frac = None if target is None else Fraction(l)
    if not best:
        return OracleAnswer(label, frac, None, None, None, sum(math.comb(n, s) for s in sizes))
    size = max(best) if kind == "max" else min(best)
    k, witness = best[size]
    scanned = sizes[: sizes.index(size) + 1]
    return OracleAnswer(label, frac, size, witness, k, sum(math.comb(n, s) for s in scanned))


#: G(22) is left out: its unpruned scans take over 15 s
PRUNE_GRAPHS = [name for name in ORACLE_GRAPHS if name != "gnp-22"]


@pytest.mark.parametrize("name", PRUNE_GRAPHS)
def test_pruned_scans_give_the_unpruned_answers(name):
    g = Graph(*ORACLE_GRAPHS[name])
    for kind, l in QUERIES:
        assert solve(g, kind, l) == scan_without_masks(g, kind, l), (kind, l)


def test_walk_on_no_team_fixture_is_pruned():
    """Without the prune this exhaustive scan yields 57 787 sets."""
    g = Graph(*ORACLE_GRAPHS["no-team-n16"])
    with walks_seen() as seen:
        answer = exact_min_team(g, "hc", "3/2", cap=16)
    assert answer.optimum is None
    assert [walk["yielded"] for walk in seen] == [96]
