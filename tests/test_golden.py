"""CLI output, byte for byte, against committed golden files.

``tests/data/golden`` holds ten fixed graphs of at most 150 vertices,
chosen so that every way of computing eccentricities runs: long paths,
grids and trees, which a few bounding searches settle; self-centred
cycles, which need one search per vertex; and narrow graphs (random
G(n, p), a hypercube, cliques joined by paths), which are swept many
sources at a time. For each graph the directory holds the stdout of
``analyze`` and of ``hicom --l 3/2``, and ``codes.json`` their exit codes.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from comfnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

COMMANDS = {"analyze": ("analyze",), "hicom": ("hicom", "--l", "3/2")}


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


def _edge_list(n, edges):
    pairs = sorted((u, v) if u < v else (v, u) for u, v in edges)
    return "".join([f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs])


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_cli_output_matches_golden(name, command):
    graph = GOLDEN / f"{name}.txt"
    assert graph.read_text() == _edge_list(*GRAPHS[name])
    code, out = _run(COMMANDS[command] + (str(graph),))
    expected = (GOLDEN / f"{name}.{command}.json").read_text()
    assert out == expected
    assert code == json.loads((GOLDEN / "codes.json").read_text())[f"{name}.{command}"]


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, (n, edges) in GRAPHS.items():
        graph = GOLDEN / f"{name}.txt"
        graph.write_text(_edge_list(n, edges))
        for command, argv in COMMANDS.items():
            code, out = _run(argv + (str(graph),))
            (GOLDEN / f"{name}.{command}.json").write_text(out)
            codes[f"{name}.{command}"] = code
    (GOLDEN / "codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
