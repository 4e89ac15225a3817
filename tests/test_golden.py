"""CLI output, byte for byte, against committed golden files.

``tests/data/golden`` holds ten fixed graphs of at most 150 vertices,
chosen so that every way of computing eccentricities runs: long paths,
grids and trees, which a few bounding searches settle; self-centred
cycles, which need one search per vertex; and narrow graphs (random
G(n, p), a hypercube, cliques joined by paths), which are swept many
sources at a time. For each graph the directory holds the stdout of
``analyze`` and of ``hicom --l 3/2``, and ``codes.json`` their exit codes.

It also holds the exact oracle's answers (``oracle min`` for three kinds,
``oracle max`` and ``oracle cds``, all at ``--cap 22``) on eight graphs of
15 to 24 vertices whose scans must be exhaustive or long: the two no-team
fixtures, two dense G(15, 0.35) samples (seed 1507 has no comfortable
team), C18, a random tree of 18 vertices, a 4x6 grid and a sparse G(22).
Two larger graphs hold ``oracle max`` at ``--cap 40``, whose walk only a
bound on the sizes still reachable keeps short: the random tree
``random_tree(40, 1)`` and a 5x6 grid.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import heapq
import io
import json
import math
import random
from pathlib import Path

import pytest

from comfnet.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

COMMANDS = {"analyze": ("analyze",), "hicom": ("hicom", "--l", "3/2")}

ORACLE_COMMANDS = {
    "oracle-min-comfortable": ("oracle", "min", "--kind", "comfortable", "--cap", "22"),
    "oracle-min-hc": ("oracle", "min", "--kind", "hc", "--l", "3/2", "--cap", "22"),
    "oracle-min-bc": ("oracle", "min", "--kind", "bc", "--l", "2", "--cap", "22"),
    "oracle-max": ("oracle", "max", "--l", "3/2", "--cap", "22"),
    "oracle-cds": ("oracle", "cds", "--cap", "22"),
}


def _path(n, offset=0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def _cycle(n, offset=0):
    return _path(n, offset) + [(offset, offset + n - 1)]


def _clique(n, offset=0):
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def _grid(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _tree(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(i), i) for i in range(1, n)]


def _gnp(n, factor, seed):
    """Connected G(n, p), p = factor * ln n / n: each vertex joins a random
    earlier one, then every pair is added with probability p."""
    rng = random.Random(seed)
    p = factor * math.log(n) / n
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return sorted(edges)


def _hypercube(d):
    return [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1]


def _lollipop(k, tail):
    return _clique(k) + [(k - 1 + i, k + i) for i in range(tail)]


def _barbell(k, bridge):
    chain = list(range(k - 1, k + bridge)) + [k + bridge]
    return _clique(k) + _clique(k, k + bridge) + list(zip(chain, chain[1:]))


def _bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def _gnp_fixed(n, p, seed):
    """G(n, p) by geometric skipping over the n(n-1)/2 vertex pairs; not
    forced connected."""
    rng = random.Random(seed)
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def _pruefer_tree(n, seed):
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    return edges + [(heapq.heappop(leaves), heapq.heappop(leaves))]


def _fixture(name):
    rows = [line.split() for line in (DATA / name).read_text().splitlines() if line.strip()]
    return int(rows[0][0]), [(int(u), int(v)) for u, v in rows[1:]]


def _shuffled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


#: name -> (n, edges); vertex numbers are shuffled so no graph arrives in
#: the order its generator built it.
GRAPHS = {
    "path-120": (120, _shuffled(120, _path(120), 1)),
    "grid-10x15": (150, _shuffled(150, _grid(10, 15), 2)),
    "tree-150": (150, _shuffled(150, _tree(150, 3), 3)),
    "cycle-100": (100, _shuffled(100, _cycle(100), 4)),
    "gnp-120": (120, _shuffled(120, _gnp(120, 2.5, 5), 5)),
    "hypercube-6": (64, _shuffled(64, _hypercube(6), 6)),
    "lollipop-20-80": (100, _shuffled(100, _lollipop(20, 80), 7)),
    "barbell-15-30": (60, _shuffled(60, _barbell(15, 30), 8)),
    "bipartite-10-20": (30, _shuffled(30, _bipartite(10, 20), 9)),
    "path-20-and-cycle-30": (50, _shuffled(50, _path(20) + _cycle(30, 20), 10)),
}

#: name -> (n, edges) for the oracle queries; every graph is connected
ORACLE_GRAPHS = {
    "no-team-n15": _fixture("no_team_n15.txt"),
    "no-team-n16": _fixture("no_team_n16.txt"),
    "gnp15-1501": (15, _gnp_fixed(15, 0.35, 1501)),
    "gnp15-1507": (15, _gnp_fixed(15, 0.35, 1507)),
    "cycle-18": (18, _shuffled(18, _cycle(18), 11)),
    "tree-18": (18, _pruefer_tree(18, 1801)),
    "grid-4x6": (24, _shuffled(24, _grid(4, 6), 12)),
    "gnp-22": (22, _shuffled(22, _gnp(22, 2.5, 13), 13)),
}


#: name -> (n, edges) for ``oracle max`` alone, in the order the generator
#: builds them; ``_pruefer_tree(40, 1)`` is ``comfnet.random_tree(40, 1)``
MAX_GRAPHS = {
    "tree-40": (40, _pruefer_tree(40, 1)),
    "grid-5x6": (30, _grid(5, 6)),
}

MAX_COMMANDS = {"oracle-max-40": ("oracle", "max", "--l", "3/2", "--cap", "40")}


def _edge_list(n, edges):
    pairs = sorted((u, v) if u < v else (v, u) for u, v in edges)
    return "".join([f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs])


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _check_golden(graphs, commands, name, command):
    graph = GOLDEN / f"{name}.txt"
    assert graph.read_text() == _edge_list(*graphs[name])
    code, out = _run(commands[command] + (str(graph),))
    expected = (GOLDEN / f"{name}.{command}.json").read_text()
    assert out == expected
    assert code == json.loads((GOLDEN / "codes.json").read_text())[f"{name}.{command}"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_cli_output_matches_golden(name, command):
    _check_golden(GRAPHS, COMMANDS, name, command)


@pytest.mark.parametrize("command", ORACLE_COMMANDS)
@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_oracle_output_matches_golden(name, command):
    _check_golden(ORACLE_GRAPHS, ORACLE_COMMANDS, name, command)


@pytest.mark.parametrize("name", MAX_GRAPHS)
def test_oracle_max_reach_matches_golden(name):
    _check_golden(MAX_GRAPHS, MAX_COMMANDS, name, "oracle-max-40")


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for graphs, commands in (
        (GRAPHS, COMMANDS), (ORACLE_GRAPHS, ORACLE_COMMANDS), (MAX_GRAPHS, MAX_COMMANDS)
    ):
        for name, (n, edges) in graphs.items():
            graph = GOLDEN / f"{name}.txt"
            graph.write_text(_edge_list(n, edges))
            for command, argv in commands.items():
                code, out = _run(argv + (str(graph),))
                (GOLDEN / f"{name}.{command}.json").write_text(out)
                codes[f"{name}.{command}"] = code
    (GOLDEN / "codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
