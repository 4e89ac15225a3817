"""Team predicates: domination radius, less-dispersiveness, BC/HC checks.

A team is a set of vertex indices of its host graph. ``check_hc`` measures
it once, and its ``TeamReport`` stores those measurements and derives every
team condition and the verdict from them.

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
class TeamReport:
    """What ``check_hc`` measures of one team at a given reduction factor
    l, and the team conditions read off it.

    ``induced_diameter`` is ``UNREACHABLE`` when the induced subgraph is
    disconnected (serialized as null), and then every member is a
    violator. The verdict is the strongest level achieved, ranked HC > BC
    > comfortable > none.
    """

    team: tuple[int, ...]
    l: Fraction
    domination_radius: int
    induced_diameter: int
    violators: tuple[int, ...]
    bc_target: int

    @property
    def is_connected(self) -> bool:
        return self.induced_diameter < UNREACHABLE

    @property
    def is_dominating_1(self) -> bool:
        return self.domination_radius <= 1

    @property
    def less_dispersive(self) -> bool:
        return not self.violators

    @property
    def bc_condition(self) -> bool:
        return self.is_connected and self.induced_diameter <= self.bc_target

    @property
    def hc_condition(self) -> bool:
        return self.is_connected and self.domination_radius <= self.induced_diameter

    @property
    def is_bc(self) -> bool:
        return self.less_dispersive and self.bc_condition

    @property
    def is_hc(self) -> bool:
        return self.is_bc and self.hc_condition

    @property
    def verdict(self) -> str:
        if self.is_hc:
            return f"{self.l}-HC"
        if self.is_bc:
            return f"{self.l}-BC"
        return "comfortable" if self.less_dispersive and self.is_dominating_1 else "none"

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


def parse_l(l) -> Fraction:
    """The reduction factor as an exact rational, from 'p/q' or decimal
    text, int, float or Fraction; ValueError unless l > 1. A float is read
    by its text, which is its repr, not by its binary expansion."""
    try:
        frac = l if isinstance(l, Fraction) else Fraction(str(l))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse l={l!r} as a rational") from None
    if frac <= 1:
        raise ValueError(f"reduction factor l must be > 1, got {frac}")
    return frac


def _member_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    """A team given from outside as a vertex set: nonempty and in range."""
    team = frozenset(members)
    if not team:
        raise ValueError("a team must be nonempty")
    if min(team) < 0 or max(team) >= g.n:
        raise ValueError(f"team members out of range for n={g.n}")
    return team


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


def domination_radius(g: Graph, members: Iterable[int]) -> int:
    """Smallest k with every outside vertex within k hops of the team;
    0 when the team is the whole vertex set."""
    team = _member_set(g, members)
    if not g.is_connected():
        raise ValueError("domination radius requires a connected graph")
    levels, order = bfs(g.adj, team, g.n)
    return levels[order[-1]]


def is_less_dispersive(g: Graph, members: Iterable[int]) -> tuple[bool, tuple[int, ...]]:
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


def check_hc(g: Graph, members: Iterable[int], l) -> TeamReport:
    """Measure a team at ``l``: its domination radius, its induced diameter
    and violators, and the diameter ceiling. The report reads every team
    condition and the verdict off these four."""
    frac = parse_l(l)
    team = _member_set(g, members)
    if not g.is_connected():
        raise ValueError("team checks require a connected host graph")
    _, diameter, violators = induced_metrics(g, team)
    return TeamReport(
        team=tuple(sorted(team)), l=frac, domination_radius=domination_radius(g, team),
        induced_diameter=diameter, violators=violators, bc_target=bc_target(g, frac))


def check_bc(g: Graph, members: Iterable[int], l) -> bool:
    """True iff the team is connected, less dispersive, and meets the
    induced-diameter ceiling for ``l``."""
    return check_hc(g, members, l).is_bc


def is_comfortable(g: Graph, members: Iterable[int]) -> bool:
    """Connected, dominating at distance one, and less dispersive: the
    conditions of the 'comfortable' verdict, which no value of l changes."""
    report = check_hc(g, members, 2)
    return report.is_dominating_1 and report.less_dispersive
