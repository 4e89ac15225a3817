"""Team predicates: domination radius, less-dispersiveness, BC/HC checks.

All functions are pure over immutable inputs and safe to evaluate in
parallel across candidate teams. The reduction factor ``l`` is an exact
rational (``fractions.Fraction``), so ceil(diam/l) carries no float error;
values like 3/2 and 1.6 sit exactly where rounding flips the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, UNREACHABLE, bfs, eccentricities, eccentricity_profile, induced_rows


@dataclass(frozen=True)
class TeamCandidate:
    """A vertex subset proposed as a team of its host graph."""

    host: Graph
    members: frozenset[int]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a team must be nonempty")
        if min(self.members) < 0 or max(self.members) >= self.host.n:
            raise ValueError(f"team members out of range for n={self.host.n}")

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def labels(self) -> list[str]:
        return [self.host.labels[v] for v in sorted(self.members)]


@dataclass(frozen=True)
class TeamReport:
    """Full verdict on one candidate team at a given reduction factor l.

    ``induced_diameter`` is ``UNREACHABLE`` when the induced subgraph is
    disconnected (serialized as null). The verdict is the strongest level
    achieved, ranked HC > BC > comfortable > none.
    """

    team: tuple[int, ...]
    l: Fraction
    is_connected: bool
    is_dominating_1: bool
    domination_radius: int
    induced_diameter: int
    less_dispersive: bool
    violators: tuple[int, ...]
    bc_target: int
    bc_condition: bool
    hc_condition: bool
    verdict: str

    @property
    def is_hc(self) -> bool:
        return self.verdict.endswith("-HC")

    @property
    def is_bc(self) -> bool:
        return self.verdict.endswith("-BC") or self.is_hc

    def to_json_dict(self, labels) -> dict:
        diam = None if self.induced_diameter >= UNREACHABLE else self.induced_diameter
        return {
            "team": [labels[v] for v in self.team],
            "l": str(self.l),
            "is_connected": self.is_connected,
            "is_dominating_1": self.is_dominating_1,
            "domination_radius": self.domination_radius,
            "induced_diameter": diam,
            "less_dispersive": self.less_dispersive,
            "violators": [labels[v] for v in self.violators],
            "bc_target": self.bc_target,
            "bc_condition": self.bc_condition,
            "hc_condition": self.hc_condition,
            "verdict": self.verdict,
        }


def as_fraction(l) -> Fraction:
    """Exact rational from 'p/q' or decimal text, int, float, or Fraction."""
    if isinstance(l, Fraction):
        return l
    if isinstance(l, int):
        return Fraction(l)
    if isinstance(l, float):
        # exact decimal reading, not the binary float expansion
        return Fraction(repr(l))
    return Fraction(str(l))


def parse_l(l) -> Fraction:
    """The reduction factor as an exact rational; ValueError unless l > 1."""
    try:
        frac = as_fraction(l)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse l={l!r} as a rational") from None
    if frac <= 1:
        raise ValueError(f"reduction factor l must be > 1, got {frac}")
    return frac


def _member_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    if isinstance(members, TeamCandidate):
        return members.members
    return TeamCandidate(g, frozenset(members)).members


def induced_metrics(g: Graph, members: frozenset[int]):
    """(connected, induced diameter, violators) of a team: the violators
    are the members, in order, whose induced eccentricity reaches their
    host eccentricity. On a disconnected host every host eccentricity is
    UNREACHABLE, so only a disconnected team has violators there.

    ``eccentricities`` runs on the adjacency restricted to the members and
    renumbered 0..k-1, with the host eccentricities as its bars, so it
    settles only what the two answers need; its first search finds a team
    that is not connected. When some teammate cannot be reached inside the
    team, the diameter is UNREACHABLE and every member is a violator. The
    empty team reads as not connected.
    """
    if not members:
        return False, UNREACHABLE, ()
    team = sorted(members)
    adj = induced_rows(g, team)[1]
    if g.is_connected():
        host = eccentricity_profile(g).eccentricity
        bar = [host[v] for v in team]
    else:
        bar = [UNREACHABLE] * len(team)
    try:
        ecc = eccentricities(adj, len(team), bar)
    except ValueError:  # the team is not connected
        return False, UNREACHABLE, tuple(team)
    return True, max(ecc), tuple([v for v, e, b in zip(team, ecc, bar) if e >= b])


class SubsetEvaluator:
    """Per-graph scratch for exhaustive scans over vertex subsets of a
    connected graph, and the one exhaustive search over them (``best``).
    A subset is an int bitmask (bit v for vertex v); the evaluator holds
    the host eccentricities, one neighbourhood mask per vertex and the
    full mask. Each search below can stop at a bound, so a scan pays only
    for the conditions a subset reaches."""

    def __init__(self, g: Graph):
        self.ecc = eccentricity_profile(g).eccentricity
        self.nbr = tuple(sum(1 << w for w in nbrs) for nbrs in g.adj)
        self.full = (1 << g.n) - 1
        self.n = g.n

    def members(self, mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if mask >> v & 1)

    def conflicts(self, target: int | None = None, within: int | None = None) -> tuple[int, ...]:
        """Per vertex v of ``within`` (default: every vertex), the mask of
        the u in ``within`` with d(u, v) >= min(ecc(u), ecc(v), target + 1);
        0 for the vertices outside it. The condition is symmetric in u and
        v, so the rows are too: u is in row v exactly when v is in row u.

        Row v is read off v's balls in the host, one mask per hop level,
        against the vertices of ``within`` grouped by eccentricity: the
        group of eccentricity e keeps what lies outside the ball of radius
        min(e, ecc(v), target + 1) - 1.

        An induced distance is never shorter than the host distance, so in
        any vertex set holding such a pair, u or v has an induced
        eccentricity that reaches its host eccentricity or passes
        ``target``: the set fails less-dispersiveness or the diameter
        ceiling, and so does every set that contains it."""
        ecc, nbr = self.ecc, self.nbr
        ceiling = UNREACHABLE if target is None else target + 1
        vertices = self.members(self.full if within is None else within)
        groups: dict[int, int] = {}  # eccentricity -> its vertices in ``within``
        for u in vertices:
            groups[ecc[u]] = groups.get(ecc[u], 0) | 1 << u
        out = [0] * self.n
        for v in vertices:
            reach = min(ecc[v], ceiling)
            radii = [(min(e, reach), group) for e, group in groups.items()]
            deepest = max(r for r, _ in radii)
            balls = [0, 1 << v]  # balls[r]: the vertices at distance below r
            frontier = 1 << v
            while len(balls) <= deepest:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = grown & ~balls[-1]
                balls.append(balls[-1] | frontier)
            row = 0
            for r, group in radii:
                row |= group & ~balls[r]
            out[v] = row
        return tuple(out)

    def connected_sets(self, limit, conflicts: tuple[int, ...] | None = None,
                       within: int | None = None, floor=None):
        """Depth-first ESU walk (Wernicke, IEEE/ACM TCBB 3(4), 2006): yield
        ``(mask, closed neighbourhood mask, size)`` for every connected
        vertex set inside ``within`` (default: every vertex) of at most
        ``limit()`` vertices, each exactly once. The closed neighbourhood
        is the set's own in the host.

        The sets rooted at v are those whose smallest vertex is v; a set
        grows only by vertices above v that neighbour the newest member and
        nothing before it. The current step and the stack of steps above
        it hold one path of the walk. ``limit`` (and ``floor``) are read
        again after every yield, the only time a caller can change them, so
        a caller may lower the limit.

        Given the masks of ``conflicts``, which must be symmetric (u in row
        v exactly when v is in row u), only sets free of conflicting pairs
        are yielded. Each step carries the OR of its members' rows, and no
        extension set holds a vertex of it: a set with such a vertex, and
        every set it grows into, holds a conflicting pair. The sets free of
        conflicts come out in the same order as without the masks.

        Given ``floor``, a set whose size plus the vertices it could still
        add (its extension set, and the vertices above v outside its closed
        neighbourhood that conflict with none of its members) stays below
        ``floor()`` is not yielded, and its whole subtree is skipped: no
        set in it reaches that size."""
        nbr = self.nbr
        clash = (0,) * self.n if conflicts is None else conflicts
        within = self.full if within is None else within
        cap = limit()
        least = 0 if floor is None else floor()
        for v in self.members(within):
            above = within & ~((2 << v) - 1)
            # the root v is the one extension of the empty set below it
            sub, ext, closed, bad, size = 0, 1 << v, 1 << v, 0, 0
            stack = []  # the steps above, each with the extension set it has left
            while True:
                if ext and size < cap:
                    low = ext & -ext
                    ext ^= low
                    u = low.bit_length() - 1
                    grown = bad | clash[u]
                    step = (ext | (nbr[u] & above & ~closed)) & ~grown
                    reach = closed | nbr[u]
                    if least > size + 1 and size + 1 + step.bit_count() + (
                            above & ~reach & ~grown).bit_count() < least:
                        continue
                    yield sub | low, reach, size + 1
                    cap = limit()
                    if floor is not None:
                        least = floor()
                    stack.append((sub, ext, closed, bad))
                    sub, ext, closed, bad = sub | low, step, reach, grown
                    size += 1
                elif stack:
                    sub, ext, closed, bad = stack.pop()
                    size -= 1
                else:
                    break

    def best(self, test, sizes: range, conflicts: tuple[int, ...] | None = None,
             within: int | None = None):
        """The best connected set inside ``within`` that ``test`` passes
        among the sizes in ``sizes``, as ``(size, k, witness)``: the first
        such size in the order of ``sizes``, then the minimal k that
        ``test(mask, closed)`` returns, then the lexicographically first
        witness. None when no set passes.

        The walk is bounded three ways. ``conflicts`` keeps every set that
        ``test`` must reject for a conflicting pair out of the walk. Once a
        size is found, a walk for the smallest goes no deeper, and a walk
        for the largest (``sizes`` descending) skips every subtree that
        cannot reach that size; sets of the size found are still walked,
        so ties resolve as in a full scan. The third bound is the tests'
        own: ``kind_test`` rejects a set by its size before any search."""
        largest = sizes.step < 0
        max_size = max(sizes, default=0)
        found = None  # (size rank in scan order, k, witness)

        def limit():
            return max_size if found is None or largest else found[0]

        def floor():
            return 0 if found is None else -found[0]

        walk = self.connected_sets(limit, conflicts, within, floor if largest else None)
        for mask, closed, size in walk:
            rank = -size if largest else size
            if found is not None and rank > found[0]:
                continue
            k = test(mask, closed)
            if k is None or (found is not None and (rank, k) > found[:2]):
                continue
            candidate = (rank, k, self.members(mask))
            if found is None or candidate < found:
                found = candidate
        return None if found is None else (abs(found[0]), found[1], found[2])

    def kind_test(self, kind: str, target: int | None = None):
        """Test of one team kind over a connected set: ``test(mask, closed)``
        returns its domination radius k when the set qualifies, else None.

        Conditions run cheapest first: the set's size, then the domination
        radius (k <= 1 for 'comfortable' and 'cds', k <= target for 'hc'),
        then the member searches, which stop at the first member whose
        induced eccentricity reaches its host eccentricity or passes the
        target. A connected set of t vertices has induced diameter at most
        t - 1, so 'hc' (k <= diameter) needs k < t and 'bc' (diameter equal
        to the target) needs t > target; both are read before any search.

        The 'bc' kind uses the tight-diameter reading: the team's induced
        diameter must equal the target exactly, i.e. the team spends its
        whole communication budget. Under the lenient <= reading every
        non-universal singleton qualifies (diameter 0, huge domination
        radius) and the minimum collapses to 1, which contradicts the
        worked C6 value; the tight reading reproduces it. The 'hc' kind
        keeps <=: its accessibility condition k <= diam already rules the
        degenerate sets out, and the heuristic-vs-exact ratio needs the
        global size minimum.
        """
        full = self.full

        def cds(mask, closed):
            if closed != full:
                return None
            return 0 if mask == full else 1

        def comfortable(mask, closed):
            if closed != full or self.less_dispersive_diameter(mask) is None:
                return None
            return 1  # a proper subset; the whole vertex set is never less dispersive

        def bc(mask, closed):
            if mask.bit_count() <= target or self.less_dispersive_diameter(mask, target) != target:
                return None
            return self.radius(mask, closed)

        def hc(mask, closed):
            k = self.radius(mask, closed, min(target, mask.bit_count() - 1))
            if k is None:
                return None
            diameter = self.less_dispersive_diameter(mask, target)
            return None if diameter is None or k > diameter else k

        return {"cds": cds, "comfortable": comfortable, "bc": bc, "hc": hc}[kind]

    def _search(self, seen: int, frontier: int, level: int, within: int, stop: int) -> int | None:
        """The bitmask twin of ``graphs.bfs``: a search inside ``within``
        that has reached ``seen``, with ``frontier`` at depth ``level``. The
        depth at which it reaches all of ``within``; UNREACHABLE when it
        stops short, None as soon as that depth is known to reach ``stop``."""
        nbr = self.nbr
        while seen != within:
            if level + 1 >= stop:
                return None
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & within & ~seen
            if not frontier:
                return UNREACHABLE
            seen |= frontier
            level += 1
        return level

    def radius(self, mask: int, closed: int, bound: int = UNREACHABLE) -> int | None:
        """Domination radius of ``mask``, the deepest level of one search
        from all of it (``closed`` is its closed neighbourhood, level one);
        None as soon as it is known to exceed ``bound``. The host is
        connected, so the search reaches every vertex."""
        if mask == self.full:
            return 0
        return self._search(closed, closed & ~mask, 1, self.full, bound + 1)

    def less_dispersive_diameter(self, mask: int, cap: int = UNREACHABLE) -> int | None:
        """Induced diameter of a connected ``mask`` whose every member's
        induced eccentricity is below its host eccentricity and at most
        ``cap``; None at the first member that fails."""
        diameter = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            e = self._search(low, low, 0, mask, min(self.ecc[low.bit_length() - 1], cap + 1))
            if e is None:
                return None
            if e > diameter:
                diameter = e
        return diameter

    def profile(self, subset) -> tuple[bool, int, bool, int | None]:
        """(connected, induced_diameter, less_dispersive, domination_radius)
        of a nonempty vertex subset; the radius is None when the subset is
        disconnected."""
        mask = closed = 0
        for v in subset:
            mask |= 1 << v
            closed |= self.nbr[v]
        diameter = 0
        less = True
        for v in subset:
            e = self._search(1 << v, 1 << v, 0, mask, UNREACHABLE)
            if e == UNREACHABLE:
                return False, UNREACHABLE, False, None
            less = less and e < self.ecc[v]
            diameter = max(diameter, e)
        return True, diameter, less, self.radius(mask, closed | mask)


def bc_target(g: Graph, l) -> int:
    """The induced-diameter ceiling ceil(diam(G)/l), computed exactly."""
    frac = parse_l(l)
    diam = eccentricity_profile(g).diameter
    return math.ceil(Fraction(diam) / frac)


def domination_radius(g: Graph, members: Iterable[int] | TeamCandidate) -> int:
    """Smallest k with every outside vertex within k hops of the team;
    0 when the team is the whole vertex set."""
    team = _member_set(g, members)
    if not g.is_connected():
        raise ValueError("domination radius requires a connected graph")
    levels, order = bfs(g.adj, team, g.n)
    return levels[order[-1]]


def is_dominating(g: Graph, members: Iterable[int] | TeamCandidate, k: int) -> bool:
    """True when the team k-distance dominates the rest of the graph."""
    if k < 1:
        raise ValueError(f"domination distance must be >= 1, got {k}")
    return domination_radius(g, members) <= k


def is_less_dispersive(
    g: Graph, members: Iterable[int] | TeamCandidate
) -> tuple[bool, tuple[int, ...]]:
    """Strict per-member eccentricity drop inside the team.

    Returns (ok, violators): a violator keeps (or exceeds, when the team
    is disconnected) its whole-graph eccentricity. The whole vertex set is
    never less dispersive since nothing can drop.
    """
    team = _member_set(g, members)
    if not g.is_connected():
        raise ValueError("less-dispersiveness requires a connected host graph")
    violators = induced_metrics(g, team)[2]
    return not violators, violators


def check_hc(g: Graph, members: Iterable[int] | TeamCandidate, l) -> TeamReport:
    """Evaluate every team condition at ``l`` and assemble the report.

    A disconnected team short-circuits: the BC and HC flags are false and
    the induced diameter is the UNREACHABLE sentinel.
    """
    frac = parse_l(l)
    team = _member_set(g, members)
    if not g.is_connected():
        raise ValueError("team checks require a connected host graph")

    connected, ind_diam, violators = induced_metrics(g, team)
    less_disp = not violators

    k = domination_radius(g, team)
    target = bc_target(g, frac)
    bc_cond = connected and ind_diam <= target
    hc_cond = connected and k <= ind_diam

    comfortable_ok = connected and k <= 1 and less_disp
    bc_ok = connected and less_disp and bc_cond
    hc_ok = bc_ok and hc_cond
    if hc_ok:
        verdict = f"{frac}-HC"
    elif bc_ok:
        verdict = f"{frac}-BC"
    elif comfortable_ok:
        verdict = "comfortable"
    else:
        verdict = "none"

    return TeamReport(
        team=tuple(sorted(team)),
        l=frac,
        is_connected=connected,
        is_dominating_1=k <= 1,
        domination_radius=k,
        induced_diameter=ind_diam,
        less_dispersive=less_disp,
        violators=violators,
        bc_target=target,
        bc_condition=bc_cond,
        hc_condition=hc_cond,
        verdict=verdict,
    )


def check_bc(g: Graph, members: Iterable[int] | TeamCandidate, l) -> bool:
    """True iff the team is connected, less dispersive, and meets the
    induced-diameter ceiling for ``l``; the ceiling implies connected."""
    report = check_hc(g, members, l)
    return report.less_dispersive and report.bc_condition


def is_comfortable(g: Graph, members: Iterable[int] | TeamCandidate) -> bool:
    """Connected, dominating at distance one, and less dispersive. A less
    dispersive team is connected: in a disconnected one every member's
    induced eccentricity is UNREACHABLE, so every member is a violator."""
    team = _member_set(g, members)
    ok, _ = is_less_dispersive(g, team)
    return ok and domination_radius(g, team) <= 1
