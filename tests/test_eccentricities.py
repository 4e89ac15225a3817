"""The eccentricity engine's three ways to finish, the team check that
stops at its answer, its memory bound, and a run of every subcommand where
numpy cannot be imported.

Which way ``eccentricities`` finishes is read from calls to ``_sweep``
(one per bit-parallel chunk) and ``_plain`` (one per plain finish); a run
that calls neither was settled by eccentricity bounds alone. Every answer
is compared with one plain search per vertex.
"""

import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from comfnet import Graph, cycle_graph, hicom, path_graph
from comfnet import graphs
from comfnet.criteria import induced_metrics
from comfnet.graphs import CHUNK, UNREACHABLE, bfs, eccentricities

SRC = Path(__file__).resolve().parent.parent / "src"


def one_search_each(g):
    out = []
    for s in range(g.n):
        levels, order = bfs(g.adj, (s,), g.n)
        out.append(levels[order[-1]])
    return out


@pytest.fixture
def finishes(monkeypatch):
    """Record the sources of every ``_sweep`` and ``_plain`` call."""
    calls = {"_sweep": [], "_plain": []}
    for name, log in calls.items():
        original = getattr(graphs, name)

        def recorded(adj, n, sources, original=original, log=log):
            log.append(list(sources))
            return original(adj, n, sources)

        monkeypatch.setattr(graphs, name, recorded)
    return calls


def grid(rows, cols):
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, edges)


def narrow(n, seed):
    """Connected sparse random graph: each vertex joins a random earlier
    one, plus n random chords; its diameter grows like log n."""
    rng = random.Random(seed)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n)}
    return Graph(n, edges)


@pytest.mark.parametrize(
    "g", [path_graph(500), grid(20, 30), grid(7, 90)], ids=["path-500", "grid-20x30", "grid-7x90"]
)
def test_bounds_alone_settle_paths_and_grids(g, finishes):
    assert eccentricities(g.adj, g.n) == one_search_each(g)
    assert finishes == {"_sweep": [], "_plain": []}


def test_narrow_graphs_finish_in_bit_parallel_chunks(finishes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK", 64)
    g = narrow(400, 1)
    assert eccentricities(g.adj, g.n) == one_search_each(g)
    assert finishes["_plain"] == []
    sizes = [len(sources) for sources in finishes["_sweep"]]
    assert len(sizes) >= 2 and max(sizes) <= 64
    assert max(sizes) - min(sizes) <= 1  # the chunks are balanced


def test_hosts_up_to_twice_chunk_finish_in_one_sweep(finishes):
    """A sweep level costs per vertex, not per source, so on n <= 2 * CHUNK
    one sweep carries every vertex the bounds leave, more than CHUNK of
    them here. Its bitsets hold about n * n bits, under 4 * CHUNK**2; two
    generations of them live at once, so the peak stays under twice that."""
    g = narrow(1500, 1)
    assert CHUNK < g.n <= 2 * CHUNK
    tracemalloc.start()
    try:
        ecc = eccentricities(g.adj, g.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ecc == one_search_each(g)
    assert finishes["_plain"] == []
    [swept] = finishes["_sweep"]
    assert len(swept) > CHUNK and len(set(swept)) == len(swept)
    assert peak <= 2 * 4 * CHUNK * CHUNK / 8, f"peak {peak} B"


def test_cycles_finish_one_search_per_vertex(finishes):
    g = cycle_graph(1300)  # more vertices than CHUNK, so sweeps would cost more
    assert g.n > CHUNK
    assert eccentricities(g.adj, g.n) == one_search_each(g)
    assert finishes["_sweep"] == []
    assert len(finishes["_plain"]) == 1 and len(finishes["_plain"][0]) > g.n - 10


@pytest.mark.parametrize("seed", [None, 1])
def test_a_team_check_stops_at_its_answer(seed, finishes, monkeypatch):
    """HICOM's 803-vertex team of a 32x32 grid: its diameter and its
    violators need a few bounding searches, where settling every member's
    eccentricity takes 58-80. Every search of the engine counts, the
    first of which also finds whether the team is connected."""
    g = grid(32, 32)
    if seed is not None:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    team = hicom(g, "3/2").team.members
    for log in finishes.values():
        log.clear()
    searches = []
    real = graphs.bfs

    def counted(*args, **kwargs):
        searches.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "bfs", counted)
    assert induced_metrics(g, team) == (True, 42, ())
    assert finishes == {"_sweep": [], "_plain": []}
    assert len(searches) <= 8


def test_bars_answer_only_the_team_questions():
    """With bars, an entry is exact only where a question needs it: it
    reaches its bar exactly when the eccentricity does, and the largest
    entry is the diameter."""
    for g in (path_graph(40), cycle_graph(31), grid(9, 13), narrow(300, 2)):
        exact = one_search_each(g)
        for bar in (exact, [e + 1 for e in exact], [UNREACHABLE] * g.n, [max(exact) // 2 + 1] * g.n):
            ecc = eccentricities(g.adj, g.n, bar)
            assert max(ecc) == max(exact)
            assert [e >= b for e, b in zip(ecc, bar)] == [e >= b for e, b in zip(exact, bar)]
            assert all(e <= x for e, x in zip(ecc, exact))


def test_small_graphs():
    assert eccentricities(((),), 1) == [0]
    assert eccentricities(((1,), (0,)), 2) == [1, 1]
    with pytest.raises(ValueError, match="connected"):
        eccentricities(((1,), (0,), ()), 3)


def test_no_vertices_is_refused_up_front():
    with pytest.raises(ValueError, match="at least one vertex"):
        eccentricities([], 0, [])
    with pytest.raises(ValueError, match="at least one vertex"):
        eccentricities([], 0)


def test_empty_team_reads_not_connected_without_a_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the empty team needs no search")

    monkeypatch.setattr("comfnet.criteria.eccentricities", no_search)
    for g in (Graph(1), path_graph(5), Graph(3, [(0, 1)])):
        assert induced_metrics(g, frozenset()) == (False, UNREACHABLE, ())


def test_sweeps_stay_far_below_a_dense_bitset(finishes):
    """K_{2,n-2}: diameter 2 and no vertex settled by bounds, so all but a
    few vertices are swept, CHUNK sources at a time; two levels per sweep
    keep the test to a few seconds under tracemalloc."""
    n = 10_000
    g = Graph(n, [(a, b) for a in (0, 1) for b in range(2, n)])
    tracemalloc.start()
    try:
        ecc = eccentricities(g.adj, g.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ecc == [2] * n
    assert len(finishes["_sweep"]) >= 4
    assert max(len(sources) for sources in finishes["_sweep"]) <= CHUNK
    assert peak * 4 <= n * n / 8, f"peak {peak} B against a dense bitset of {n * n // 8} B"


def test_cli_paths_load_no_numpy(tmp_path):
    """Every subcommand and the distance functions run where numpy cannot
    be imported at all."""
    graph = tmp_path / "c6.txt"
    graph.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    team = tmp_path / "team.txt"
    team.write_text("v1\nv2\nv3\n")
    script = (
        "import sys, contextlib, io\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "import comfnet\n"
        "from comfnet.cli import run\n"
        "g, team, out = sys.argv[1:]\n"
        "commands = [\n"
        "    ['analyze', g], ['hicom', '--l', '3/2', '--max', g],\n"
        "    ['verify', '--l', '3/2', '--team', team, g],\n"
        "    ['oracle', 'min', '--kind', 'hc', '--l', '3/2', g],\n"
        "    ['oracle', 'max', '--l', '3/2', g], ['oracle', 'cds', g],\n"
        "    ['oracle', 'ratio', '--corpus', 'cycles:7-8'],\n"
        "    ['oracle', 'bounds', '--corpus', 'cycles:6-7'],\n"
        "    ['gen', 'gnp', '20', '--p', '0.3', '--connected', '-o', out],\n"
        "    ['bench', '--sizes', '30,40'],\n"
        "]\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        code = run(argv)\n"
        "    assert code == 0, (argv, code, text.getvalue())\n"
        "c6 = comfnet.cycle_graph(6)\n"
        "assert comfnet.graphs.bfs(c6.adj, (0,), 6)[0] == [0, 1, 2, 3, 2, 1]\n"
        "assert comfnet.all_pairs_distances(c6)[3] == [3, 2, 1, 0, 1, 2]\n"
        "assert comfnet.graph_power(c6, 3).m == 15\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(graph), str(team), str(tmp_path / "gen.txt")],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
