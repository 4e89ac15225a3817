"""Deterministic graph constructors: paths, cycles, trees, G(n, p).

Every constructor is a pure function of its arguments; fixed seeds give
byte-identical regeneration. ``enumerate_trees`` yields one representative
per isomorphism class, produced by leaf extension with canonical-form
deduplication.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Iterator

from .graphs import Graph


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError(f"star needs >= 1 leaf, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, list(combinations(range(n), 2)))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform labeled tree via a seeded Pruefer sequence."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return Graph(1)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi sample; the pair scan order is fixed, so the draw is
    fully determined by the seed. The sample may be disconnected; callers
    check ``Graph.is_connected``."""
    if n < 1:
        raise ValueError(f"gnp needs n >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def connected_gnp(n: int, p: float, seed: int = 0) -> Graph:
    """First connected G(n, p) sample among 1000 seed-derived attempts."""
    for attempt in range(1000):
        g = gnp(n, p, seed=seed * 100003 + attempt)
        if g.is_connected():
            return g
    raise ValueError(f"no connected G({n}, {p}) sample within 1000 tries for seed {seed}")


def generate(
    kind: str,
    n: int,
    p: float | None = None,
    seed: int = 0,
    require_connected: bool = False,
) -> Graph:
    """Dispatch constructor used by the CLI ``gen`` command."""
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "tree":
        return random_tree(n, seed=seed)
    if kind == "gnp":
        if p is None:
            raise ValueError("gnp requires an edge probability p")
        if require_connected:
            return connected_gnp(n, p, seed=seed)
        return gnp(n, p, seed=seed)
    raise ValueError(f"unknown generator kind {kind!r}")


# --- exhaustive tree enumeration -------------------------------------------

def _tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            for w in adj[leaf]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[leaf] = 0
        layer = nxt
    return sorted(layer)


def _rooted_code(root: int, parent: int, adj: list[list[int]]) -> str:
    subs = sorted(_rooted_code(w, root, adj) for w in adj[root] if w != parent)
    return "(" + "".join(subs) + ")"


def _tree_canonical(n: int, edges: tuple[tuple[int, int], ...]) -> str:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _tree_centers(n, adj)
    return min(_rooted_code(c, -1, adj) for c in centers)


def enumerate_trees(n: int) -> list[Graph]:
    """All trees on ``n`` vertices, one per isomorphism class.

    Built by attaching a new leaf to every vertex of every (n-1)-vertex
    tree and deduplicating by canonical form; every n-vertex tree arises
    this way because deleting a leaf leaves a smaller tree. Output order
    is fixed (sorted canonical codes).
    """
    if n < 1:
        raise ValueError(f"tree enumeration needs n >= 1, got {n}")
    current: list[tuple[tuple[int, int], ...]] = [()]
    for size in range(2, n + 1):
        seen: dict[str, tuple[tuple[int, int], ...]] = {}
        for edges in current:
            for attach in range(size - 1):
                candidate = edges + ((attach, size - 1),)
                code = _tree_canonical(size, candidate)
                if code not in seen:
                    seen[code] = candidate
        current = [seen[code] for code in sorted(seen)]
    return [Graph(n, edges) for edges in current]


def iter_connected_graphs(max_n: int, count: int, seed: int = 0) -> Iterator[Graph]:
    """Seeded stream of small connected graphs (sizes 2..max_n), used by
    property sweeps. Densities vary from tree-like to near-complete."""
    rng = random.Random(seed)
    produced = 0
    attempt = 0
    while produced < count:
        attempt += 1
        n = rng.randint(2, max_n)
        p = rng.uniform(1.0 / n, 0.9)
        g = gnp(n, p, seed=seed * 7919 + attempt)
        if g.is_connected():
            produced += 1
            yield g
