"""Reproducible graph corpora for experiments and verification sweeps.

Every corpus is a pure function of fixed seeds, so repeated builds are
identical. The standard corpus mixes all small trees of diameter >= 3,
mid-size cycles, and 200 connected G(n, p) samples of diameter >= 3.
"""

from __future__ import annotations

import math
import random

from .generators import connected_gnp, cycle_graph, enumerate_trees, gnp, path_graph
from .graphs import Graph, eccentricity_profile

GNP_BASE_SEED = 46301


def trees_corpus(min_n: int = 4, max_n: int = 9) -> list[Graph]:
    """All non-isomorphic trees in the size range with diameter >= 3."""
    graphs = []
    for n in range(min_n, max_n + 1):
        for g in enumerate_trees(n):
            if eccentricity_profile(g).diameter >= 3:
                graphs.append(g)
    return graphs


def cycles_corpus(lo: int = 7, hi: int = 30) -> list[Graph]:
    return [cycle_graph(n) for n in range(lo, hi + 1)]


def paths_corpus(lo: int = 4, hi: int = 10) -> list[Graph]:
    return [path_graph(n) for n in range(lo, hi + 1)]


def gnp_corpus(count: int = 200) -> list[Graph]:
    """Connected G(n, p) samples with 10 <= n <= 40 and diameter >= 3,
    from seeds fixed by ``GNP_BASE_SEED``.

    Densities sit a little above the connectivity threshold so samples
    are usually connected yet keep a nontrivial diameter; draws failing
    either filter are discarded and the seed stream advances. The upper
    density multiplier stays at 2.2: denser samples collapse toward
    diameter-3 near-self-centered graphs, where whole-graph eccentricity
    drops can be impossible for every candidate subset (no team of any
    kind exists; see tests/data/no_team_*.txt for two such graphs).
    """
    graphs: list[Graph] = []
    stream = 0
    while len(graphs) < count:
        stream += 1
        rng = random.Random(GNP_BASE_SEED + stream)
        n = rng.randint(10, 40)
        base = math.log(n) / n
        lo = min(0.9, 1.1 * base)
        hi = max(lo, min(0.9, 2.2 * base))
        p = rng.uniform(lo, hi)
        g = gnp(n, p, seed=GNP_BASE_SEED + 7919 * stream)
        if not g.is_connected():
            continue
        if eccentricity_profile(g).diameter < 3:
            continue
        graphs.append(g)
    return graphs


def standard_corpus() -> list[Graph]:
    """Trees (n <= 9, diam >= 3) + cycles C7..C30 + 200 G(n, p) samples."""
    return trees_corpus() + cycles_corpus() + gnp_corpus()


def small_corpus() -> list[Graph]:
    """The standard corpus restricted to graphs within the oracle's reach,
    n <= 12."""
    return [g for g in standard_corpus() if g.n <= 12]


def parse_corpus_spec(spec: str) -> list[Graph]:
    """Build a corpus from a compact spec string.

    Parts are joined with '+'. Each part is one of:
      - ``standard`` or ``small``
      - ``trees:<lo>-<hi>``    (non-isomorphic, diameter >= 3)
      - ``cycles:<lo>-<hi>``
      - ``paths:<lo>-<hi>``
      - ``gnp:n=<n>,p=<p>,count=<c>,seed=<s>``  (connected samples)
    """
    graphs: list[Graph] = []
    for part in spec.split("+"):
        part = part.strip()
        if not part:
            continue
        if part == "standard":
            graphs.extend(standard_corpus())
        elif part == "small":
            graphs.extend(small_corpus())
        elif part.startswith(("trees:", "cycles:", "paths:")):
            kind, _, rng_text = part.partition(":")
            lo_text, _, hi_text = rng_text.partition("-")
            try:
                lo, hi = int(lo_text), int(hi_text or lo_text)
            except ValueError:
                raise ValueError(f"bad corpus range in {part!r}") from None
            if kind == "trees":
                graphs.extend(trees_corpus(min_n=lo, max_n=hi))
            elif kind == "cycles":
                graphs.extend(cycles_corpus(lo, hi))
            else:
                graphs.extend(paths_corpus(lo, hi))
        elif part.startswith("gnp:"):
            options = {"n": 20, "p": 0.2, "count": 5, "seed": GNP_BASE_SEED}
            for item in part[len("gnp:"):].split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if key not in options:
                    raise ValueError(f"unknown gnp option {key!r} in {part!r}")
                try:
                    options[key] = float(value) if key == "p" else int(value)
                except ValueError:
                    raise ValueError(f"bad gnp option value {item!r} in {part!r}") from None
            graphs.extend(
                connected_gnp(options["n"], options["p"], seed=options["seed"] + i)
                for i in range(options["count"])
            )
        else:
            raise ValueError(f"unknown corpus spec part {part!r}")
    if not graphs:
        raise ValueError(f"corpus spec {spec!r} produced no graphs")
    return graphs
