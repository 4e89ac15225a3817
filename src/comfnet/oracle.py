"""Exhaustive ground truth on small graphs.

Every team kind and every connected dominating set is connected, so each
answer is one ``SubsetEvaluator.best`` walk over the connected vertex sets,
tested against the kind cheapest condition first (``kind_test``). The
smallest feasible cardinality wins (the largest, for maximization); within
it the minimal domination radius is the secondary objective and
lexicographic order breaks remaining ties. ``enumerated`` counts every
subset of the cardinalities scanned, connected or not.
Three bounds keep the walk to the sets that can still win, and none
changes an answer, a witness, ``k`` or ``enumerated``:

- the team scans skip every set that holds a conflicting pair
  (``SubsetEvaluator.conflicts``); such a set and all its supersets fail
  the team test. The CDS scan has no such condition and walks every
  connected set;
- the HC and BC tests reject a set by its size first: a connected set of
  t vertices has induced diameter at most t - 1, so HC needs k < t and BC
  needs t above the ceiling;
- the maximum scan skips every subtree that cannot reach the best size
  found, and still walks the sets of that size, so ties resolve as in a
  full scan.

Infeasibility is a first-class answer: whole graph families admit no
comfortable team, and the enumerator proves it by exhaustion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .criteria import SubsetEvaluator, bc_target, parse_l
from .graphs import Graph, bfs, eccentricity_profile, graph_digest, graph_power
from .hicom import BoundCheck, HicomError, hicom

DEFAULT_CAP = 14


@dataclass(frozen=True)
class OracleAnswer:
    """Exact optimum with one witness, or NONE after exhausting the space."""

    kind: str
    l: Fraction | None
    optimum: int | None
    witness: tuple[int, ...] | None
    secondary_optimum: int | None  # minimal domination radius at the optimum size
    enumerated: int

    def to_json_dict(self, labels) -> dict:
        return {
            "kind": self.kind,
            "l": None if self.l is None else str(self.l),
            "optimum": self.optimum,
            "witness": None if self.witness is None else [labels[v] for v in self.witness],
            "k": self.secondary_optimum,
            "enumerated": self.enumerated,
        }


@dataclass(frozen=True)
class RatioRecord:
    """Heuristic size against the exact optimum for one graph."""

    digest: str
    n: int
    l: Fraction
    hicom_size: int
    oracle_size: int
    ratio: float
    k_hicom: int
    k_oracle: int
    log_max_degree: float

    def to_json_dict(self) -> dict:
        return {
            "graph": self.digest,
            "n": self.n,
            "l": str(self.l),
            "hicom_size": self.hicom_size,
            "oracle_size": self.oracle_size,
            "ratio": self.ratio,
            "k_hicom": self.k_hicom,
            "k_oracle": self.k_oracle,
            "ln_max_degree": self.log_max_degree,
        }


def oracle_cap(cap: int | None = None) -> int:
    """The largest n the exhaustive scans accept: ``cap``, else
    ``DEFAULT_CAP``. ValueError unless it is an integer of at least 1."""
    if cap is None:
        return DEFAULT_CAP
    if cap < 1:
        raise ValueError(f"oracle cap must be at least 1, got cap={cap}")
    return cap


def _evaluator(g: Graph, cap: int | None) -> SubsetEvaluator:
    """The scan scratch of ``g``, once ``g`` passes the guards every exact
    scan shares: connected, with at most ``oracle_cap(cap)`` vertices."""
    if not g.is_connected():
        raise ValueError("oracle requires a connected graph")
    limit = oracle_cap(cap)
    if g.n > limit:
        raise ValueError(
            f"oracle cap exceeded: n={g.n} > {limit} (raise the cap argument to override)"
        )
    return SubsetEvaluator(g)


def _answer(kind: str, l, ev: SubsetEvaluator, test, sizes: range, conflicts=None) -> OracleAnswer:
    """``ev.best`` over ``sizes`` as an answer of ``kind``. ``enumerated``
    counts every subset of the sizes scanned up to the optimum, connected
    or not."""
    found = ev.best(test, sizes, conflicts)
    if found is None:
        return OracleAnswer(kind, l, None, None, None, sum(math.comb(ev.n, s) for s in sizes))
    size, k, witness = found
    scanned = sizes[: sizes.index(size) + 1]
    return OracleAnswer(kind, l, size, witness, k, sum(math.comb(ev.n, s) for s in scanned))


def exact_min_team(g: Graph, kind: str, l=None, cap: int | None = None) -> OracleAnswer:
    """Exact minimum team size for one kind over all nonempty proper subsets.

    'comfortable' ignores l; 'bc' and 'hc' need l > 1. The answer is the
    smallest feasible cardinality; the reported domination radius is the
    minimum among optimum-size teams.
    """
    if kind not in ("comfortable", "bc", "hc"):
        raise ValueError(f"unknown team kind {kind!r}")
    ev = _evaluator(g, cap)
    frac = target = None
    if kind in ("bc", "hc"):
        frac = parse_l(l)
        target = bc_target(g, frac)
    return _answer(kind, frac, ev, ev.kind_test(kind, target), range(1, g.n), ev.conflicts(target))


def exact_max_team(g: Graph, l, cap: int | None = None) -> OracleAnswer:
    """Exact maximum-cardinality team passing all four HC conditions."""
    ev = _evaluator(g, cap)
    frac = parse_l(l)
    target = bc_target(g, frac)
    test = ev.kind_test("hc", target)
    return _answer("hc-max", frac, ev, test, range(g.n - 1, 0, -1), ev.conflicts(target))


def exact_min_cds(g: Graph, cap: int | None = None) -> OracleAnswer:
    """Minimum connected dominating set; the whole vertex set counts here
    (it is trivially connected and dominating), unlike the team kinds."""
    ev = _evaluator(g, cap)
    return _answer("cds", None, ev, ev.kind_test("cds"), range(1, g.n + 1))


def reduction_witness(
    g: Graph, k: int, members: Iterable[int], power: Graph | None = None
) -> tuple[bool, bool]:
    """Both sides of the power-graph correspondence for one subset.

    Left: the subset k-distance dominates the host graph (hop distances)
    and induces a connected subgraph of the k-th power. Right: the subset
    dominates the k-th power at distance one and induces a connected
    subgraph of it. The two sides agree for every subset, which is what
    makes connected domination in the power graph the right reduction
    object. Sweeps may pass the precomputed ``power`` graph.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    subset = frozenset(members)
    if subset and (min(subset) < 0 or max(subset) >= g.n):
        raise ValueError(f"subset out of range for n={g.n}")
    if power is None:
        power = graph_power(g, k)

    if not subset:
        return False, False

    _, reached = bfs(power.adj, (min(subset),), g.n, subset)
    power_connected = len(reached) == len(subset)

    # unreached vertices sit at UNREACHABLE > k, so a disconnected host reads False
    k_dominates = max(bfs(g.adj, subset, g.n)[0]) <= k
    outside = [u for u in range(g.n) if u not in subset]

    adjsets = [set(nbrs) for nbrs in power.adj]
    power_dominates = all(adjsets[u] & subset for u in outside)

    return (k_dominates and power_connected, power_dominates and power_connected)


def ratio_experiment(corpus: Iterable[Graph], l, cap: int | None = None):
    """Heuristic-vs-exact sizes over a corpus.

    Returns (records, summary, skipped); graphs where the heuristic finds
    no team are skipped with a note. A heuristic success on a graph the
    oracle calls infeasible is a contract violation and raises.
    """
    frac = parse_l(l)
    records: list[RatioRecord] = []
    skipped: list[dict] = []
    for g in corpus:
        digest = graph_digest(g)
        try:
            result = hicom(g, frac)
        except HicomError as exc:
            skipped.append({"graph": digest, "reason": f"hicom: {exc}"})
            continue
        answer = exact_min_team(g, "hc", frac, cap=cap)
        if answer.optimum is None:
            raise RuntimeError(
                f"oracle found no {frac}-HC team on {digest} where hicom succeeded"
            )
        records.append(
            RatioRecord(
                digest=digest,
                n=g.n,
                l=frac,
                hicom_size=len(result.team.members),
                oracle_size=answer.optimum,
                ratio=len(result.team.members) / answer.optimum,
                k_hicom=result.k,
                k_oracle=answer.secondary_optimum,
                log_max_degree=math.log(g.max_degree),
            )
        )
    summary = summarize_ratios(records)
    return records, summary, skipped


def summarize_ratios(records: Sequence[RatioRecord]) -> dict:
    if not records:
        return {"count": 0}
    ratios = [r.ratio for r in records]
    k_ratios = [r.k_hicom / r.k_oracle for r in records]
    return {
        "count": len(records),
        "max_ratio": max(ratios),
        "mean_ratio": sum(ratios) / len(ratios),
        "max_k_ratio": max(k_ratios),
        "max_ln_max_degree": max(r.log_max_degree for r in records),
    }


def bound_sweep(corpus: Iterable[Graph], l, cap: int | None = None):
    """Check l(k*-1) <= diam(G) <= l(2k*+1)/(l-1) with the oracle-minimal
    dispersion index on every feasible graph; infeasible graphs are
    skipped with a note."""
    frac = parse_l(l)
    checks: list[BoundCheck] = []
    skipped: list[dict] = []
    for g in corpus:
        digest = graph_digest(g)
        answer = exact_min_team(g, "hc", frac, cap=cap)
        if answer.optimum is None:
            skipped.append({"graph": digest, "reason": f"no {frac}-HC team"})
            continue
        k_star = answer.secondary_optimum
        diam = eccentricity_profile(g).diameter
        context = f"{digest} l={frac} k*={k_star}"
        checks.append(BoundCheck.of("l(k*-1) <= diam(G)", frac * (k_star - 1), diam, context))
        checks.append(
            BoundCheck.of("diam(G) <= l(2k*+1)/(l-1)", diam, frac * (2 * k_star + 1) / (frac - 1), context)
        )
    return checks, skipped
