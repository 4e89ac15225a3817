"""The HICOM team-construction heuristic and its runtime verification.

The run grows a ball of shells around a central vertex, extends it one
vertex per outer shell until the induced diameter hits the target
d1 = ceil(diam(G)/l), then repairs the less-dispersiveness condition by
removing vertices. Each grown team is measured once, by ``check_hc``
against the full team criteria, and only a repaired team is measured
again, so the report of the returned team is its re-verification; a run
whose team fails it raises instead of returning a weaker team.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .criteria import (
    SubsetEvaluator,
    TeamCandidate,
    TeamReport,
    bc_target,
    check_hc,
    domination_radius,
    induced_metrics,
    parse_l,
)
from .graphs import Graph, bfs, eccentricity_profile, graph_digest, induced_rows


class HicomError(Exception):
    """A run could not produce a valid team; CLI maps this to 'infeasible'."""


class DegenerateParams(HicomError):
    """The requested target allows no diameter reduction (d1 >= diam)."""


class RepairFailed(HicomError):
    """Step-7 removals cannot restore the team conditions."""

    def __init__(self, message: str, candidate: frozenset[int]):
        super().__init__(message)
        self.candidate = candidate


class NoFeasibleTeam(HicomError):
    """No extension or fallback produces a team meeting every condition."""

    def __init__(self, message: str, candidate: frozenset[int] | None = None):
        super().__init__(message)
        self.candidate = candidate


@dataclass(frozen=True)
class TraceStep:
    """One replayable phase event. Ops 'ball', 'extend' and 'fallback' add
    their vertices, 'repair' removes, the rest are markers."""

    op: str  # ball | extend | exhausted | unreached | repair | fallback
    shell: int | None
    vertices: tuple[int, ...]

    def to_json_dict(self, labels) -> dict:
        return {
            "op": self.op,
            "shell": self.shell,
            "vertices": [labels[v] for v in self.vertices],
        }


@dataclass(frozen=True)
class BoundCheck:
    """Evaluation record for one proved inequality lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    context: str

    @classmethod
    def of(cls, name: str, lhs, rhs, context: str) -> BoundCheck:
        """The check of ``lhs <= rhs``, decided on the exact values (ints
        or Fractions) and recorded as floats."""
        return cls(name, float(lhs), float(rhs), lhs <= rhs, context)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class HicomResult:
    """Output team plus the run's parameters, metrics and phase trace.

    ``construction_k`` and ``construction_diameter`` describe the candidate
    at the end of the growth phase, before any repair removals; they equal
    ``k`` and ``achieved_diameter`` on runs that needed no repair. The
    accessibility bound k <= r(G) - x governs the construction: removals
    can only grow the domination radius.
    """

    team: TeamCandidate
    l: Fraction
    d1: int
    achieved_diameter: int
    k: int
    x: int
    construction_k: int
    construction_diameter: int
    start_vertex: int | None
    trace: tuple[TraceStep, ...]
    report: TeamReport

    @classmethod
    def of(cls, team: TeamCandidate, report: TeamReport, built: TeamReport,
           start: int | None, trace: Iterable[TraceStep]) -> HicomResult:
        """The result for ``team``, read off its final ``check_hc`` report
        and off ``built``, the report of the candidate before repair."""
        d1 = report.bc_target
        return cls(
            team=team, l=report.l, d1=d1, x=d1 // 2, start_vertex=start,
            achieved_diameter=report.induced_diameter, k=report.domination_radius,
            construction_k=built.domination_radius,
            construction_diameter=built.induced_diameter,
            trace=tuple(trace), report=report,
        )

    def to_json_dict(self) -> dict:
        return {
            "team": [self.team.host.labels[v] for v in sorted(self.team.members)],
            "team_size": len(self.team.members),
            "l": str(self.l),
            "d1": self.d1,
            "achieved_diameter": self.achieved_diameter,
            "k": self.k,
            "x": self.x,
            "construction_k": self.construction_k,
            "construction_diameter": self.construction_diameter,
            "start": None if self.start_vertex is None else self.team.host.labels[self.start_vertex],
            "trace": [step.to_json_dict(self.team.host.labels) for step in self.trace],
            "report": self.report.to_json_dict(self.team.host.labels),
        }


def _validate_l(l, allow_large_l: bool) -> Fraction:
    frac = parse_l(l)
    if frac > 2 and not allow_large_l:
        raise ValueError(
            f"l={frac} > 2 shrinks teams sharply and often leaves none; "
            "pass allow_large_l=True to force it"
        )
    if frac > Fraction(3, 2):
        warnings.warn(
            f"l={frac} > 3/2: an l-HC team is not guaranteed to exist",
            stacklevel=3,
        )
    return frac


def replay_trace(g: Graph, trace: Iterable[TraceStep]) -> frozenset[int]:
    """Re-apply a phase trace; returns the reconstructed team."""
    members: set[int] = set()
    for step in trace:
        if step.op in ("ball", "extend", "fallback"):
            members.update(step.vertices)
        elif step.op == "repair":
            members.difference_update(step.vertices)
    return frozenset(members)


def extend_step(g: Graph, shell: list[int], members: frozenset[int], d1: int) -> int | None:
    """Pick the vertex of ``shell`` (vertices outside the team, ascending)
    whose addition pushes the induced diameter up fastest without
    overshooting d1 or disconnecting the team; ties break to the lowest
    index. None when the shell offers no usable vertex. With the empty team
    each vertex would stand alone at eccentricity 0, so the first shell
    vertex is picked.

    Candidates are ranked by the eccentricity the new vertex would take
    inside the grown team. That eccentricity is a lower bound on the grown
    diameter, and existing pair distances can only shrink when a vertex is
    added, so a candidate within d1 never overshoots: the grown diameter
    is max(new eccentricity, old pairs). A shortest path from u to a
    member w leaves u once, so d(u, w) = 1 + d(t, w) inside the team for
    the nearest of u's team neighbours t: one search over the team's own
    rows, from those neighbours, scores each candidate.
    """
    if not members:
        return shell[0] if shell else None
    index, rows = induced_rows(g, sorted(members))
    size = len(rows)
    best_vertex = None
    best_ecc = -1
    for u in shell:
        sources = [index[w] for w in g.adj[u] if w in index]
        if not sources:
            continue  # u does not attach to the team
        levels, order = bfs(rows, sources, size)
        if len(order) < size:
            continue  # the team stays in parts that u does not join
        new_ecc = levels[order[-1]] + 1
        if new_ecc > d1:
            continue
        if new_ecc > best_ecc:
            best_ecc = new_ecc
            best_vertex = u
    return best_vertex


def _standing(g: Graph, team: frozenset[int], d1: int) -> tuple[int, tuple[int, ...]] | None:
    """``(k, violators)`` of a connected team whose induced diameter is at
    most d1 and at least its domination radius k; None for any other
    team. The team is HC for the l with d1 = bc_target(g, l) exactly when
    it stands with no violators."""
    connected, diameter, violators = induced_metrics(g, team)
    if not connected or diameter > d1:
        return None
    k = domination_radius(g, team)
    return (k, violators) if k <= diameter else None


#: Exhaustive repair walks the connected subsets of the candidate, up to
#: 2^|D1|, so beyond this size only the greedy phase runs, which then also
#: tries shedding every violator at once (the bulk shed) before single removals.
EXHAUSTIVE_REPAIR_LIMIT = 18


def _greedy_repair(g: Graph, current: frozenset[int], d1: int) -> frozenset[int] | None:
    """Remove one vertex at a time until every member drops its whole-graph
    eccentricity. A removal must leave the team standing (``_standing``);
    candidates are ranked by the radius they leave behind, then by how many
    violators remain, then by index. Removals are not limited to the
    violators themselves: shedding a violator's far teammate is often what
    lowers its eccentricity."""
    violators = induced_metrics(g, current)[2]
    while violators:
        if len(current) > EXHAUSTIVE_REPAIR_LIMIT and len(violators) > 1:
            # large candidates: shedding every violator at once usually lands
            # directly on a valid core and skips the quadratic rescan rounds
            bulk = current - set(violators)
            standing = _standing(g, bulk, d1) if bulk else None
            if standing is not None:
                current, violators = bulk, standing[1]
                continue
        best = None  # ((k_after, violators_after, vertex), shrunk team, its violators)
        for v in sorted(current):
            shrunk = current - {v}
            standing = _standing(g, shrunk, d1)
            if standing is None:
                continue
            key = (standing[0], len(standing[1]), v)
            if best is None or key < best[0]:
                best = (key, shrunk, standing[1])
        if best is None:
            return None
        _, current, violators = best
    return current


def _exhaustive_repair(g: Graph, members: frozenset[int], d1: int) -> frozenset[int] | None:
    """Fallback when the greedy walk dead-ends: the largest connected subset
    of the candidate that is HC for the target d1, the lexicographically
    first of its size. Bounded by EXHAUSTIVE_REPAIR_LIMIT."""
    if len(members) > EXHAUSTIVE_REPAIR_LIMIT:
        return None
    ev = SubsetEvaluator(g)
    within = sum(1 << v for v in members)
    hc = ev.kind_test("hc", d1)

    def test(mask, closed):  # every HC subset ranks alike, so ties go to the first
        return None if hc(mask, closed) is None else 0

    found = ev.best(test, range(len(members) - 1, 0, -1), ev.conflicts(d1, within), within)
    return None if found is None else frozenset(found[2])


def repair(g: Graph, members: Iterable[int], d1: int) -> TeamCandidate:
    """Step-7 removal phase: shed vertices until the team is less dispersive
    while holding the diameter ceiling d1 and the accessibility condition.

    A greedy one-at-a-time walk runs first; if it dead-ends, a bounded
    exhaustive scan over the candidate's connected subsets takes over. Raises
    ``RepairFailed`` (stuck candidate attached) when neither finds a team.
    The team returned is not yet checked against l; ``hicom`` does that.
    """
    current = members.members if isinstance(members, TeamCandidate) else frozenset(members)
    repaired = _greedy_repair(g, current, d1)
    if repaired is None:
        repaired = _exhaustive_repair(g, current, d1)
    if repaired is None:
        raise RepairFailed(
            "repair failed: no removal restores less-dispersiveness within the "
            "diameter and accessibility conditions",
            candidate=current,
        )
    return TeamCandidate(g, repaired)


def small_diameter_fallback(g: Graph) -> TeamCandidate | None:
    """Dominating-clique search for graphs of diameter <= 2.

    Exhaustive (smallest clique first, lexicographic ties) up to n = 20,
    greedy beyond. Returns None when no dominating clique exists; low
    diameter leaves no room for an ordinary run to reduce anything.
    """
    prof = eccentricity_profile(g)
    if prof.diameter > 2:
        raise ValueError(f"fallback applies to diameter <= 2, got {prof.diameter}")
    if g.n <= 20:
        # non-neighbours conflict, so the walk visits cliques only
        ev = SubsetEvaluator(g)
        strangers = tuple(ev.full ^ nbr ^ (1 << v) for v, nbr in enumerate(ev.nbr))
        found = ev.best(ev.kind_test("cds"), range(1, g.n + 1), strangers)
        return None if found is None else TeamCandidate(g, frozenset(found[2]))

    adjsets = [set(nbrs) for nbrs in g.adj]
    # greedy: grow a clique inside the common neighborhood, maximizing coverage
    start = max(range(g.n), key=lambda v: (len(adjsets[v]), -v))
    clique = [start]
    covered = {start} | adjsets[start]
    while len(covered) < g.n:
        common = set(range(g.n))
        for v in clique:
            common &= adjsets[v]
        common -= set(clique)
        if not common:
            return None
        gain = {u: len(adjsets[u] - covered) for u in common}
        u = max(sorted(common), key=lambda w: (gain[w], -w))
        clique.append(u)
        covered |= {u} | adjsets[u]
    return TeamCandidate(g, frozenset(clique))


def hicom(
    g: Graph,
    l,
    start: int | None = None,
    allow_large_l: bool = False,
) -> HicomResult:
    """Run the full heuristic; returns a result whose report verdict is
    l-HC, or raises a ``HicomError`` describing why no team was produced.

    Graphs of diameter <= 2 route to the dominating-clique fallback with
    l = 2 semantics. The start override, when given, must be a central
    vertex (the correctness bound leans on e(start) = r(G)). The result's
    report is ``check_hc`` of exactly the returned team: the run's own
    measurement of it, taken once, is its re-verification.
    """
    if not g.is_connected():
        raise ValueError("hicom requires a connected graph")
    if start is not None and not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range for n={g.n}")
    frac = _validate_l(l, allow_large_l)
    prof = eccentricity_profile(g)

    if prof.diameter <= 2:
        team = small_diameter_fallback(g)
        if team is None:
            raise NoFeasibleTeam("no l-HC team; graph diameter <= 2 and no dominating clique")
        report = check_hc(g, team.members, Fraction(2))
        if not report.is_hc:
            raise NoFeasibleTeam(
                "no l-HC team; graph diameter <= 2 and the dominating clique "
                "fails the team conditions",
                candidate=team.members,
            )
        trace = (TraceStep("fallback", None, tuple(sorted(team.members))),)
        return HicomResult.of(team, report, report, None, trace)

    d1 = bc_target(g, frac)
    if d1 >= prof.diameter:  # ceil(diam/l) >= 1 for any diameter >= 1
        raise DegenerateParams(
            f"degenerate params: d1={d1} with diam(G)={prof.diameter} requests no reduction"
        )

    if start is not None:
        if start not in prof.center:
            raise ValueError(
                f"start vertex {g.labels[start]} is not central (eccentricity "
                f"{prof.eccentricity[start]} != radius {prof.radius})"
            )
        starts = (start,)
    else:
        # ties among central vertices may be broken arbitrarily, so a run
        # that fails from one center legitimately retries from the next
        starts = prof.center

    first_error: HicomError | None = None
    for v in starts:
        try:
            return _attempt(g, frac, d1, v)
        except HicomError as exc:
            if first_error is None:
                first_error = exc
    assert first_error is not None
    if len(starts) > 1:
        raise NoFeasibleTeam(
            f"no {frac}-HC team from any of {len(starts)} central starts; "
            f"first failure: {first_error}",
            candidate=getattr(first_error, "candidate", None),
        )
    raise first_error


def _attempt(g: Graph, l: Fraction, d1: int, v: int) -> HicomResult:
    """One run from a fixed central start: ball, extension, repair, check.

    The ball and each extended team are measured once, by ``check_hc``; the
    report's induced diameter drives the extension, and the last report before
    repair gives the construction metrics and the violators that call for
    repair. Only a repaired team is checked again."""
    x = d1 // 2
    levels, order = bfs(g.adj, (v,), g.n)
    shells = [sorted(shell) for _, shell in groupby(order, key=levels.__getitem__)]
    ball = shells[: x + 1]
    trace = [TraceStep("ball", j, tuple(shell)) for j, shell in enumerate(ball)]

    frozen = frozenset(u for shell in ball for u in shell)
    built = check_hc(g, frozen, l)
    unreached = False
    i = x
    while built.induced_diameter < d1:
        i += 1
        if i >= len(shells):
            trace.append(TraceStep("unreached", i, ()))
            unreached = True
            break
        u = extend_step(g, shells[i], frozen, d1)
        if u is None:
            trace.append(TraceStep("exhausted", i, ()))
            continue
        frozen = frozen | {u}
        trace.append(TraceStep("extend", i, (u,)))
        built = check_hc(g, frozen, l)

    report = built
    if built.violators:
        repaired = repair(g, frozen, d1).members
        trace.extend(TraceStep("repair", None, (u,)) for u in sorted(frozen - repaired))
        frozen = repaired
        report = check_hc(g, frozen, l)

    if not report.is_hc:
        if unreached:
            raise NoFeasibleTeam(
                f"no extension achieves target diameter {d1}: shells exhausted at "
                f"induced diameter {built.induced_diameter} and the resulting team is not "
                f"{l}-HC",
                candidate=frozen,
            )
        raise NoFeasibleTeam(
            f"conditions not met: verdict {report.verdict} "
            f"(k={report.domination_radius}, induced diameter {report.induced_diameter})",
            candidate=frozen,
        )
    return HicomResult.of(TeamCandidate(g, frozen), report, built, v, trace)


def verify_k_bound(result: HicomResult, g: Graph) -> list[BoundCheck]:
    """Evaluate the accessibility bounds against a successful run.

    The proved inequality k <= r(G) - x rests on the grown candidate still
    containing the whole radius-x ball around the start, so the first
    check evaluates it on the construction (pre-repair) radius; it must
    hold on every run. The remaining two evaluate the parity form and its
    relaxed closed form on the finished team; repair removals can breach
    them, since shedding ball vertices pushes outside vertices farther
    from the team.
    """
    prof = eccentricity_profile(g)
    r = prof.radius
    a = result.achieved_diameter
    context = f"{graph_digest(g)} l={result.l} d1={result.d1}"
    return [
        BoundCheck.of("construction k <= r(G) - x", result.construction_k, r - result.x, context),
        BoundCheck.of("k <= r(G) - x", result.k, r - a // 2, context),
        BoundCheck.of("k <= r(G) - diam(<D1>)/2 + 1/2", result.k, Fraction(2 * r - a + 1, 2), context),
    ]


@dataclass(frozen=True)
class FeasibilityPrediction:
    """Prediction of whether a run with l = 2 can reach an HC verdict,
    from the deficit b = 2 r(G) - diam(G) and its parity threshold."""

    radius: int
    diameter: int
    b: int
    threshold: int
    predicted_feasible: bool
    case_label: str

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "diameter": self.diameter,
            "b": self.b,
            "threshold": self.threshold,
            "predicted_feasible": self.predicted_feasible,
            "case": self.case_label,
        }


def two_hc_feasibility(g: Graph) -> FeasibilityPrediction:
    """Classify the graph for l = 2 runs.

    b even needs diam >= 2b + 2; b odd needs diam >= 2b - 1. Graphs whose
    deficit grows with the radius (self-centered at the extreme) are
    predicted infeasible. The thresholds are sufficient, not necessary:
    a run may still succeed on a predicted-infeasible graph.
    """
    prof = eccentricity_profile(g)
    b = 2 * prof.radius - prof.diameter
    if b % 2 == 0:
        threshold = 2 * b + 2
        label = f"even b={b}"
    else:
        threshold = 2 * b - 1
        label = f"odd b={b}"
    if b == 0:
        label = "b=0 (diam = 2r)"
    elif b == prof.radius:
        label = f"self-centered (b = r = {b})"
    return FeasibilityPrediction(
        radius=prof.radius,
        diameter=prof.diameter,
        b=b,
        threshold=threshold,
        predicted_feasible=prof.diameter >= threshold,
        case_label=label,
    )


def extend_to_max(g: Graph, result: HicomResult | TeamCandidate, l) -> TeamCandidate:
    """Greedy maximization: keep adding the lowest-index vertex whose
    addition preserves all four HC conditions; stops at a fixpoint."""
    d1 = bc_target(g, l)
    members = result.team.members if isinstance(result, HicomResult) else result.members
    while True:
        for u in range(g.n):
            if u not in members:
                standing = _standing(g, members | {u}, d1)
                if standing is not None and not standing[1]:
                    members = members | {u}
                    break
        else:
            return TeamCandidate(g, members)


@dataclass(frozen=True)
class DirectSubstitutionRow:
    """One self-centered direct-substitution row: bound value vs target."""

    diameter: int
    d1: int
    x: int
    k_bound: int
    relation: str  # how k_bound compares to d1: '<', '=' or '>'


def self_centered_direct_substitution(diameter: int, l=Fraction(3, 2)) -> DirectSubstitutionRow:
    """Evaluate the accessibility bound for a self-centered graph of the
    given diameter (r = diam): d1 = ceil(diam/l), x = floor(d1/2),
    k = r - x, and the comparison of k against d1."""
    frac = parse_l(l)
    d1 = math.ceil(Fraction(diameter) / frac)
    x = d1 // 2
    k_bound = diameter - x
    relation = "<" if k_bound < d1 else ("=" if k_bound == d1 else ">")
    return DirectSubstitutionRow(diameter=diameter, d1=d1, x=x, k_bound=k_bound, relation=relation)
