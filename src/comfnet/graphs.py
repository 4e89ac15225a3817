"""Immutable graphs, hop metrics, and edge-list / DOT input-output.

Vertices are dense 0-based indices. Human-facing labels (``v1`` .. ``vn``
by default) live in a sidecar tuple on the graph and never enter the
algorithms. Every hop count comes from one breadth-first kernel, ``bfs``,
run from the sources a caller needs; ``eccentricities`` is the one
all-sources computation, for the host and inside a team alike. Each graph
caches two derived things, whether it is connected and its eccentricity
profile; ``UNREACHABLE`` marks pairs in different components and is
strictly larger than any real hop count, so max/min aggregations stay well
defined on disconnected vertex sets. Distances come back as plain lists of
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import or_
from typing import AbstractSet, Iterable, Iterator, Sequence

try:  # the builtin module: hashlib would load OpenSSL, about 3.5 MB of RSS
    from _sha1 import sha1 as _sha1
except ImportError:
    from hashlib import sha1 as _sha1

#: Sentinel hop distance for unreachable pairs. Strictly greater than any
#: valid distance (a path has at most n - 1 hops); never 0 or -1.
UNREACHABLE = 2**31 - 1

#: Scale of the bit-parallel sweeps: on n vertices one sweep carries up to
#: ``_width(n)`` = max(CHUNK, 4 * CHUNK**2 // n) sources, and each vertex
#: holds an int of that many bits. A host of up to 2 * CHUNK vertices is
#: finished in one sweep; a sweep's bitsets hold at most 4 * CHUNK**2 bits
#: on up to 4 * CHUNK vertices, and CHUNK bits per vertex beyond.
CHUNK = 1024

#: One sweep level costs about as much as this many plain searches (a
#: level visits every vertex and ORs its neighbours' ints); measured on
#: G(n, p), grids and trees with n = 1000-2000. At the widest sweep
#: ``_width`` allows, 2048 sources at n = 2048, a level cost 3.6 searches on
#: G(n, 2.5 ln n / n), 3.0 on a sparse random graph of diameter 11, 2.8 on
#: a 32x64 grid and 3.2 on a random tree (1024 sources: 3.3, 2.2, 2.0 and
#: 2.8; CPython 3.11, one core of a shared 2-core x86-64 machine).
_LEVEL_COST = 3


class EdgeListParseError(ValueError):
    """Malformed edge-list text; the message names the offending line."""


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    Instances are immutable after construction and safe to share across
    threads. Connectivity and the eccentricity profile are computed lazily
    and cached; recomputation is deterministic, so a benign double-compute
    under concurrency cannot change the result.
    """

    __slots__ = ("n", "m", "adj", "labels", "_profile", "_connected")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        self._fill(adj, labels)

    @classmethod
    def _of_lists(cls, adj: list[list[int]], labels: Sequence[str] | None = None) -> Graph:
        """Graph from symmetric neighbour lists that are in range and free
        of self-loops (any order, repeats allowed)."""
        g = cls.__new__(cls)
        g._fill(adj, labels)
        return g

    def _fill(self, adj: list[list[int]], labels: Sequence[str] | None) -> None:
        rows = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        if sum(map(len, map(set, rows))) != sum(map(len, rows)):  # repeated edges: merge them
            rows = tuple(tuple(sorted(set(row))) for row in rows)
        n = len(rows)
        self.n = n
        self.m = sum(map(len, rows)) // 2
        self.adj = rows
        if labels is None:
            self.labels = tuple(f"v{i + 1}" for i in range(n))
        else:
            label_tuple = tuple(str(s) for s in labels)
            if len(label_tuple) != n or len(set(label_tuple)) != n:
                raise ValueError("labels must be distinct and cover every vertex")
            self.labels = label_tuple
        self._profile: EccentricityProfile | None = None
        self._connected: bool | None = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as ``(u, w)`` with ``u < w``; built on each call."""
        return frozenset((u, w) for u, row in enumerate(self.adj) for w in row if w > u)

    @property
    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adj)

    def is_connected(self) -> bool:
        if self._connected is None:
            _, reached = bfs(self.adj, (0,), self.n)
            self._connected = len(reached) == self.n
        return self._connected

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EccentricityProfile:
    """Per-vertex eccentricities plus the derived center/periphery summary."""

    eccentricity: tuple[int, ...]
    radius: int
    diameter: int
    center: tuple[int, ...]
    periphery: tuple[int, ...]
    class_label: str

    def to_json_dict(self, labels: Sequence[str]) -> dict:
        return {
            "eccentricity": list(self.eccentricity),
            "radius": self.radius,
            "diameter": self.diameter,
            "center": [labels[v] for v in self.center],
            "periphery": [labels[v] for v in self.periphery],
            "class": self.class_label,
        }


def bfs(
    adj: Sequence[Sequence[int]],
    sources: Iterable[int],
    n: int,
    within: AbstractSet[int] | None = None,
    levels: list[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Hop levels from the nearest of ``sources``: the one BFS kernel.

    ``adj[u]`` lists the neighbours of ``u``; a dict over a vertex subset
    serves as well. Returns ``(levels, order)``. ``levels`` has one entry
    per vertex, ``UNREACHABLE`` where the search never arrived; ``order``
    lists the reached vertices in visit order, so ``levels[order[-1]]`` is
    the deepest level and ``len(order)`` counts them. With ``within`` the
    search stays inside that vertex set (its induced subgraph), which must
    hold the sources. Given the ``levels`` of an earlier search, the search
    fills that list in place and treats what it reached as visited, so
    searches from the roots of successive components share one list.
    """
    unreached = UNREACHABLE  # a local: the edge loop reads it once per edge
    if levels is None:
        levels = [unreached] * n
    order = []
    for s in sources:
        if levels[s] == unreached:
            levels[s] = 0
            order.append(s)
    for u in order:  # order grows while it is walked: it is the queue
        nxt = levels[u] + 1
        for w in adj[u]:
            if (within is None or w in within) and levels[w] == unreached:
                levels[w] = nxt
                order.append(w)
    return levels, order


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """The ``n x n`` distance rows, ``UNREACHABLE`` across components; one
    BFS per vertex, rows in vertex order."""
    return [bfs(g.adj, (s,), g.n)[0] for s in range(g.n)]


def eccentricities(
    adj: Sequence[Sequence[int]], n: int, bar: Sequence[int] | None = None
) -> list[int]:
    """Exact eccentricities of a connected graph on ``0 .. n-1``; given a
    ``bar`` per vertex, only what a team check asks of them.

    Eccentricity bounds (Takes & Kosters, *Algorithms* 6(1), 2013): a
    search from s with eccentricity e puts every vertex v at distance d
    within max(d, e - d) <= ecc(v) <= e + d; v is settled once its bounds
    meet. After a two-sweep start the sources alternate between the
    largest upper bound and the smallest lower bound. When searches settle
    too few of the vertices left, those are finished either by as few
    bit-parallel sweeps as ``_width`` allows, ``_sweep``, when the diameter
    seen so far is small next to their number, or by one plain search each,
    ``_plain`` (self-centred graphs such as cycles, where neither helps).
    A sweep level costs per vertex, not per source, so wide sweeps are
    cheaper: up to 2 * CHUNK vertices, one sweep carries them all.

    With ``bar`` the entries are lower bounds, exact only as far as the two
    questions of a team check reach: ``ecc[v] >= bar[v]`` exactly when v's
    eccentricity reaches ``bar[v]``, and ``max(ecc)`` is the diameter. The
    searches stop as soon as every vertex is decided (its lower bound
    reaches its bar or its upper bound falls below it) and the largest
    lower bound meets the smaller of 2e over the sources searched (no two
    vertices are farther apart) and the largest upper bound still open;
    only the vertices that keep a question open are finished.
    """
    if n == 0:
        raise ValueError("eccentricities need at least one vertex")
    lo = [0] * n
    up = [UNREACHABLE] * n
    left = list(range(n))  # vertices whose bounds still differ
    settled: list[int] = []  # how many each search settled
    diameter = 0
    asked = left  # vertices that keep a question of ``bar`` open
    twice = UNREACHABLE  # 2e over the sources searched, the least of them
    source = max(range(n), key=lambda v: len(adj[v]))
    while True:
        levels, order = bfs(adj, (source,), n)
        if len(order) < n:
            raise ValueError("eccentricities need a connected graph")
        e = levels[order[-1]]
        diameter = max(diameter, e)
        for v in left:
            d = levels[v]
            low = d if d > e - d else e - d
            if low > lo[v]:
                lo[v] = low
            if e + d < up[v]:
                up[v] = e + d
        kept = [v for v in left if lo[v] < up[v]]
        settled.append(len(left) - len(kept))
        if bar is not None:
            # The largest lower bound is the largest e so far: no bound
            # passes its search's e, and each source's own bound is e. A
            # vertex that closes its questions never reopens them: its
            # bounds only tighten, and the ceiling only rises.
            if 2 * e < twice:
                twice = 2 * e
            ceiling = diameter if diameter < twice else UNREACHABLE
            asked = [v for v in asked if up[v] > ceiling or lo[v] < bar[v] <= up[v]]
            if not asked:
                return lo
        left = kept
        if not left:
            return lo
        if len(settled) == 1:
            source = order[-1]  # the second sweep starts at the farthest vertex
            continue
        # Finishing the rest costs about finish_cost searches. Bounding stops
        # when its last four searches settled only their own sources, or
        # once it has spent a quarter of that cost.
        chunks = -(-len(left) // _width(n))
        sweep_cost = _LEVEL_COST * chunks * (diameter + 1)
        finish_cost = min(sweep_cost, len(left))
        if len(settled) >= 4 and (sum(settled[-4:]) <= 4 or 4 * len(settled) > finish_cost):
            break
        if len(settled) % 2:
            source = max(left, key=up.__getitem__)
        else:
            source = min(left, key=lo.__getitem__)
    if bar is not None:
        left = asked
    chunks = -(-len(left) // _width(n))
    if _LEVEL_COST * chunks * (diameter + 1) < len(left):
        for part in (left[i::chunks] for i in range(chunks)):
            for v, e in zip(part, _sweep(adj, n, part)):
                lo[v] = e
    else:
        for v, e in zip(left, _plain(adj, n, left)):
            lo[v] = e
    return lo


def _width(n: int) -> int:
    """Most sources one sweep carries on n vertices (see ``CHUNK``)."""
    return max(CHUNK, 4 * CHUNK * CHUNK // n)


def _sweep(adj: Sequence[Sequence[int]], n: int, sources: Sequence[int]) -> list[int]:
    """Eccentricities of up to ``_width(n)`` sources of a connected graph
    with n >= 2, by bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013).

    ``reach[v]`` holds bit i once source i has reached v; each level ORs
    every unfinished vertex's neighbours' sets into its own. A source's
    eccentricity is the level at which every vertex holds its bit.
    """
    everyone = (1 << len(sources)) - 1
    reach = [0] * n
    for i, s in enumerate(sources):
        reach[s] = 1 << i
    ecc = [0] * len(sources)
    spreading = everyone
    level = 0
    while spreading:
        level += 1
        get = reach.__getitem__
        grown = reach[:]
        finished = spreading
        for v, r in enumerate(reach):
            if r != everyone:
                r = reduce(or_, map(get, adj[v]), r)
                grown[v] = r
                finished &= r
        reach = grown
        spreading ^= finished
        while finished:
            low = finished & -finished
            ecc[low.bit_length() - 1] = level
            finished ^= low
    return ecc


def _plain(adj: Sequence[Sequence[int]], n: int, sources: Sequence[int]) -> list[int]:
    """Eccentricities of ``sources`` by one search each."""
    out = []
    for s in sources:
        levels, order = bfs(adj, (s,), n)
        out.append(levels[order[-1]])
    return out


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    """Eccentricities, radius, diameter, center, periphery, class label;
    computed once per graph and cached.

    Raises on disconnected input: callers must decompose into components
    first (see ``iter_components``).
    """
    if g._profile is not None:
        return g._profile
    if not g.is_connected():
        raise ValueError("graph is disconnected; analyze each component separately")
    ecc = eccentricities(g.adj, g.n)
    radius = min(ecc)
    diameter = max(ecc)
    a = diameter - radius
    if a == 0:
        label = "self-centered"
    elif a == 1:
        label = "bi-eccentric"
    elif a == 2:
        label = "tri-eccentric"
    else:
        label = f"{a + 1}-eccentric"
    g._profile = EccentricityProfile(
        eccentricity=tuple(ecc),
        radius=radius,
        diameter=diameter,
        center=tuple(v for v, e in enumerate(ecc) if e == radius),
        periphery=tuple(v for v, e in enumerate(ecc) if e == diameter),
        class_label=label,
    )
    return g._profile


def induced_subgraph(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph induced by ``members``, its vertices numbered in ascending
    host order and labelled as in the host.

    Built from the members' own rows, in time linear in them and their
    degrees. The induced graph computes its own eccentricity profile:
    induced distances generally differ from the host's restricted ones.
    """
    vertices = sorted(set(members))
    if not vertices:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    if vertices[0] < 0 or vertices[-1] >= g.n:
        raise ValueError(f"vertex set out of range for n={g.n}")
    return Graph._of_lists(induced_rows(g, vertices)[1], labels=[g.labels[v] for v in vertices])


def induced_rows(g: Graph, vertices: Sequence[int]) -> tuple[dict[int, int], list[list[int]]]:
    """``(index, rows)`` of the subgraph induced by ``vertices``, renumbered
    in their order: ``index`` maps each of them to its position, and
    ``rows[i]`` lists the positions of the neighbours of ``vertices[i]``
    among them. Linear in the vertices and their degrees."""
    index = {v: i for i, v in enumerate(vertices)}
    return index, [[index[w] for w in g.adj[v] if w in index] for v in vertices]


def graph_power(g: Graph, k: int) -> Graph:
    """Graph on the same vertices with an edge wherever 1 <= d(u,v) <= k;
    one BFS per vertex, so it holds O(n + edges) rather than a matrix."""
    if k < 1:
        raise ValueError(f"graph power requires k >= 1, got {k}")
    edges = []
    for u in range(g.n):
        levels, order = bfs(g.adj, (u,), g.n)
        edges.extend((u, w) for w in order if w > u and levels[w] <= k)
    return Graph(g.n, edges, labels=g.labels)


def iter_components(g: Graph) -> Iterator[list[int]]:
    """Each component's vertices, found when asked for, in the order of their
    smallest vertex; the searches share one levels list, so O(n + m) in all."""
    levels = [UNREACHABLE] * g.n
    for start in range(g.n):
        if levels[start] == UNREACHABLE:
            yield bfs(g.adj, (start,), g.n, levels=levels)[1]


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list format.

    Blank lines and ``#`` comments are skipped; CRLF is tolerated. Errors
    name the 1-based line number; a header whose edge count does not match
    the edge lines is reported before any bad edge line. Duplicate edges
    are merged. The edge lines go straight into the neighbour lists.
    """
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        header = raw.strip()
        if header and not header.startswith("#"):
            break
    else:
        raise EdgeListParseError("line 1: empty input, expected header 'n m'")

    parts = header.split()
    if len(parts) != 2:
        raise EdgeListParseError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(f"line {lineno}: non-integer header {header!r}") from None
    if n < 1:
        raise EdgeListParseError(f"line {lineno}: vertex count must be >= 1, got {n}")
    if m < 0:
        raise EdgeListParseError(f"line {lineno}: edge count must be >= 0, got {m}")

    body = lineno  # index of the first line after the header
    found = sum(1 for raw in islice(lines, body, None) if raw.strip()[:1] not in ("", "#"))
    if found != m:
        raise EdgeListParseError(
            f"line {lineno}: header promises {m} edges but {found} edge lines follow"
        )
    adj: list[list[int]] = [[] for _ in range(n)]
    for lineno, raw in enumerate(islice(lines, body, None), start=body + 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:  # a wrong field count is reported before a bad value
            if len(line.split()) != 2:
                raise EdgeListParseError(f"line {lineno}: expected 'u v', got {line!r}") from None
            raise EdgeListParseError(f"line {lineno}: non-integer endpoints {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"line {lineno}: vertex out of range 0..{n - 1}: {line!r}")
        if u == v:
            raise EdgeListParseError(f"line {lineno}: self-loop at vertex {u}")
        adj[u].append(v)
        adj[v].append(u)
    del lines  # the lines go before the rows are built
    return Graph._of_lists(adj)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header then sorted edges, one per line.
    The sorted rows of ``g.adj`` give the edges already in order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, row in enumerate(g.adj) for w in row if w > u)
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, team: Iterable[int] | None = None) -> str:
    """DOT text with team vertices filled; vertex order, then edges in the
    order of ``serialize_edge_list``."""
    members = set(team) if team is not None else set()
    lines = ["graph G {"]
    for v in range(g.n):
        if v in members:
            lines.append(f'  "{g.labels[v]}" [style=filled, fillcolor=lightblue, team=true];')
        else:
            lines.append(f'  "{g.labels[v]}";')
    lines.extend(
        f'  "{g.labels[u]}" -- "{g.labels[w]}";'
        for u, row in enumerate(g.adj)
        for w in row
        if w > u
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    """Short stable identifier: the first 12 hex digits of the SHA-1 of the
    canonical edge list, from the builtin ``_sha1`` where it exists."""
    return _sha1(serialize_edge_list(g).encode()).hexdigest()[:12]
