"""Benchmark inputs: graph generators and the four workloads.

Every graph here is built by this file from fixed seeds, never by
comfnet's own generators, so a change to comfnet cannot change what the
benchmark feeds it. A workload is a list of cases; one round runs every
case once, each on a fresh vertex relabelling drawn from the run's seed,
so no edge-list text is timed twice in a run.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

HICOM = ("hicom", "--l", "3/2")


@dataclass(frozen=True)
class Case:
    """One base graph and the comfnet command an op runs on it."""

    name: str
    command: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    warmup: Case  # small input of the same command, run once during set-up


# --- generators ---------------------------------------------------------------

def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1)]


def grid_edges(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def random_tree_edges(n, rng):
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    if n == 2:
        return [(0, 1)]
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
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def gnp_edges(n, p, rng):
    """G(n, p) by geometric skipping over the n(n-1)/2 vertex pairs."""
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


def is_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def gnp_sample(n, factor, rng):
    """Connected G(n, p) with p = factor * ln n / n; disconnected draws are
    discarded and the stream advances."""
    p = factor * math.log(n) / n
    while True:
        edges = gnp_edges(n, p, rng)
        if is_connected(n, edges):
            return edges


def relabel(n, edges, rng):
    """Random vertex permutation; returns (perm, edge-list text).

    ``perm[b]`` is the new index of base vertex ``b``. Edges are written
    sorted, with the smaller endpoint first, like comfnet's own serializer.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    moved = sorted(
        (a, b) if a < b else (b, a) for a, b in ((perm[u], perm[v]) for u, v in edges)
    )
    lines = [f"{n} {len(moved)}"]
    lines.extend(f"{a} {b}" for a, b in moved)
    return perm, "\n".join(lines) + "\n"


def read_edge_list(path):
    rows = [
        line.split()
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    n = int(rows[0][0])
    return n, tuple((int(u), int(v)) for u, v in rows[1:])


def corpus_union():
    """Disjoint union of the standard-corpus snapshot: (n, edges, parts),
    where ``parts`` lists each graph's (first vertex, n, edges)."""
    graphs = json.loads((DATA / "corpus.json").read_text())
    edges, parts, offset = [], [], 0
    for n, part_edges in graphs:
        edges.extend((u + offset, v + offset) for u, v in part_edges)
        parts.append((offset, n, [tuple(e) for e in part_edges]))
        offset += n
    return offset, tuple(edges), tuple(parts)


# --- workloads ------------------------------------------------------------------

def _case(name, command, n, edges):
    return Case(name, tuple(command), n, tuple(edges))


# Every workload keeps its graph structures fixed and lets the seed choose
# only the vertex labels. A random tree or G(n, p) sample drawn from the
# seed moved the op time by up to 18% between seeds, more than the effect
# the benchmark is meant to resolve.

def hicom_wide():
    return Workload(
        "hicom-wide",
        (
            _case("path-1000", HICOM, 1000, path_edges(1000)),
            _case("cycle-1400", HICOM, 1400, cycle_edges(1400)),
            _case("tree-1000", HICOM, 1000, random_tree_edges(1000, random.Random(1000))),
            _case("grid-32x32", HICOM, 1024, grid_edges(32, 32)),
            _case("grid-16x64", HICOM, 1024, grid_edges(16, 64)),
        ),
        _case("warmup-path-200", HICOM, 200, path_edges(200)),
    )


def hicom_gnp():
    return Workload(
        "hicom-gnp",
        tuple(
            _case(f"gnp-{n}", HICOM, n, gnp_sample(n, 2.5, random.Random(n)))
            for n in (1000, 1250, 1500)
        ),
        _case("warmup-gnp-200", HICOM, 200, gnp_sample(200, 2.5, random.Random(200))),
    )


def oracle_proof():
    # Sample 1507 is the first seed from 1500 whose G(15, 0.35) has no
    # comfortable team, so its min scan is exhaustive.
    comfortable = ("oracle", "min", "--kind", "comfortable")
    min_hc = ("oracle", "min", "--kind", "hc", "--l", "3/2")
    max_hc = ("oracle", "max", "--l", "3/2")
    cap16 = ("--cap", "16")
    cap = ("--cap", "20")
    dense_a = gnp_edges(15, 0.35, random.Random(1501))
    dense_b = gnp_edges(15, 0.35, random.Random(1507))
    tree = random_tree_edges(18, random.Random(1801))
    return Workload(
        "oracle-proof",
        (
            _case("n15-min-comfortable", comfortable + cap16, *read_edge_list(DATA / "no_team_n15.txt")),
            _case("n16-min-hc", min_hc + cap16, *read_edge_list(DATA / "no_team_n16.txt")),
            _case("gnp15-1501-max", max_hc + cap16, 15, dense_a),
            _case("gnp15-1501-min-comfortable", comfortable + cap16, 15, dense_a),
            _case("gnp15-1507-max", max_hc + cap16, 15, dense_b),
            _case("gnp15-1507-min-comfortable", comfortable + cap16, 15, dense_b),
            _case("cycle-18-min-comfortable", comfortable + cap, 18, cycle_edges(18)),
            _case("tree-18-cds", ("oracle", "cds") + cap, 18, tree),
            _case("tree-18-min-hc", min_hc + cap, 18, tree),
        ),
        _case("warmup-cycle-10", max_hc + cap, 10, cycle_edges(10)),
    )


def corpus_sweep():
    n, edges, _ = corpus_union()
    return Workload(
        "corpus-sweep",
        (_case("standard-corpus", HICOM, n, edges),),
        _case("warmup-cycles-7-12", HICOM, 57, _cycles_union(range(7, 13))),
    )


def _cycles_union(sizes):
    edges, offset = [], 0
    for size in sizes:
        edges.extend((u + offset, v + offset) for u, v in cycle_edges(size))
        offset += size
    return edges


WORKLOADS = {
    "hicom-wide": hicom_wide,
    "hicom-gnp": hicom_gnp,
    "oracle-proof": oracle_proof,
    "corpus-sweep": corpus_sweep,
}
