"""Independent checks of comfnet's JSON outputs.

Nothing here imports comfnet. Hop distances come from
``scipy.sparse.csgraph.shortest_path``; small oracle inputs are re-solved
by a bitmask brute force written here. Every check raises ``CheckError``
with a message naming the input and the violated condition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

L = Fraction(3, 2)


class CheckError(AssertionError):
    """An output violates a condition the paper or the CLI contract states."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


class Host:
    """Hop metrics of one base graph, computed once per run."""

    def __init__(self, n, edges):
        self.n = n
        rows = [u for u, v in edges] + [v for u, v in edges]
        cols = [v for u, v in edges] + [u for u, v in edges]
        adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
        self.dense = adj.toarray()
        self.dist = shortest_path(adj, unweighted=True, directed=False)
        require(np.isfinite(self.dist).all(), "host graph is disconnected")
        self.ecc = self.dist.max(axis=1)
        self.diameter = int(self.ecc.max())
        self.radius = int(self.ecc.min())
        self.target = math.ceil(Fraction(self.diameter) / L)
        self._teams = {}  # relabelled rounds often map back to the same team

    def team_metrics(self, team):
        """(connected, induced diameter, induced eccentricities, domination radius)."""
        key = frozenset(team)
        if key not in self._teams:
            self._teams[key] = self._team_metrics(sorted(key))
        return self._teams[key]

    def _team_metrics(self, order):
        sub = shortest_path(self.dense[np.ix_(order, order)], unweighted=True, directed=False)
        connected = bool(np.isfinite(sub).all())
        ind_ecc = sub.max(axis=1)
        outside = np.setdiff1d(np.arange(self.n), order)
        k = int(self.dist[np.ix_(outside, order)].min(axis=1).max()) if len(outside) else 0
        diameter = int(ind_ecc.max()) if connected else None
        return connected, diameter, dict(zip(order, ind_ecc.tolist())), k

    def check_team(self, team, kind, where):
        """Team conditions of one kind; returns (induced diameter, k)."""
        require(0 < len(team) and min(team) >= 0 and max(team) < self.n, f"{where}: bad vertex set")
        connected, diameter, ind_ecc, k = self.team_metrics(team)
        require(connected, f"{where}: team is not connected")
        if kind == "cds":
            require(k <= 1, f"{where}: not dominating (k={k})")
            return diameter, k
        violators = [v for v in sorted(team) if ind_ecc[v] >= self.ecc[v]]
        require(not violators, f"{where}: not less dispersive, violators {violators[:5]}")
        if kind == "comfortable":
            require(k <= 1, f"{where}: not dominating (k={k})")
        else:
            require(diameter <= self.target, f"{where}: induced diameter {diameter} > {self.target}")
            require(k <= diameter, f"{where}: k={k} > induced diameter {diameter}")
        return diameter, k


def check_hicom(host, payload, base_of, where):
    """One HICOM result: the team, the reported figures and the
    accessibility bound on the construction. Returns the team size."""
    team = {base_of(label) for label in payload["team"]}
    diameter, k = host.check_team(team, "hc", where)
    d1 = host.target
    x = d1 // 2
    reported = {key: payload[key] for key in ("l", "d1", "x", "team_size", "k", "achieved_diameter")}
    expected = {"l": str(L), "d1": d1, "x": x, "team_size": len(team), "k": k, "achieved_diameter": diameter}
    require(reported == expected, f"{where}: reported {reported}, independent {expected}")
    require(payload["report"]["verdict"] == f"{L}-HC", f"{where}: verdict {payload['report']['verdict']}")

    built, final = set(), set()
    for step in payload["trace"]:
        vertices = {base_of(label) for label in step["vertices"]}
        if step["op"] in ("ball", "extend", "fallback"):
            built |= vertices
            final |= vertices
        elif step["op"] == "repair":
            final -= vertices
    require(final == team, f"{where}: trace does not replay to the team")
    if built == team:  # no repair: the construction is the team
        built_diameter, built_k = diameter, k
    else:
        connected, built_diameter, _, built_k = host.team_metrics(built)
        require(connected, f"{where}: the construction is not connected")
    reported = (payload["construction_diameter"], payload["construction_k"])
    require(reported == (built_diameter, built_k),
            f"{where}: construction diameter and k {reported}, independent {(built_diameter, built_k)}")
    require(built_k <= host.radius - x, f"{where}: construction k={built_k} > r(G) - x = {host.radius - x}")
    return len(team)


def _enumerated(n, kind, optimum):
    if kind == "hc-max":
        low = 1 if optimum is None else optimum
        return sum(math.comb(n, s) for s in range(low, n))
    high = (n if kind == "cds" else n - 1) if optimum is None else optimum
    return sum(math.comb(n, s) for s in range(1, high + 1))


def check_oracle(host, kind, payload, exit_code, base_of, expected, where):
    """One oracle answer against the brute-force optimum ``expected``
    (size, k), or (None, None) when no team of the kind exists."""
    optimum = payload["optimum"]
    require(payload["kind"] == kind, f"{where}: kind {payload['kind']}")
    require((optimum, payload["k"]) == expected, f"{where}: optimum/k {optimum, payload['k']} != brute force {expected}")
    enumerated = _enumerated(host.n, kind, optimum)
    require(payload["enumerated"] == enumerated, f"{where}: enumerated {payload['enumerated']} != {enumerated}")
    if optimum is None:
        require(exit_code == 2 and payload["witness"] is None, f"{where}: no-team answer must exit 2")
        return
    require(exit_code == 0, f"{where}: exit {exit_code}")
    witness = {base_of(label) for label in payload["witness"]}
    require(len(witness) == optimum, f"{where}: witness size")
    _, k = host.check_team(witness, "hc" if kind == "hc-max" else kind, where)
    require(k == payload["k"], f"{where}: witness has k={k}, reported {payload['k']}")


# --- brute force over bitmasks -------------------------------------------------

def _spread(mask, masks):
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def _induced_ecc(v, team, nbr):
    seen = frontier = 1 << v
    depth = 0
    while True:
        frontier = _spread(frontier, nbr) & team & ~seen
        if not frontier:
            return depth if seen == team else None
        seen |= frontier
        depth += 1


def brute_force(n, edges, kind, host):
    """Exact (optimum size, minimal k at that size) over vertex subsets, or
    (None, None). Sizes run upward for the minimum kinds and downward for
    'hc-max'; the whole vertex set counts only for 'cds'."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    closed = [nbr[v] | 1 << v for v in range(n)]
    full = (1 << n) - 1
    ecc = [int(e) for e in host.ecc]
    reach = 1 if kind in ("cds", "comfortable") else host.target
    ball = [sum(1 << u for u in range(n) if host.dist[v][u] <= reach) for v in range(n)]

    def radius(team):
        k, cover = 0, team
        while cover != full:
            cover = _spread(cover, closed)
            k += 1
        return k

    sizes = range(n - 1, 0, -1) if kind == "hc-max" else range(1, n + (kind == "cds"))
    for size in sizes:
        best = None
        for combo in combinations(range(n), size):
            team = 0
            for v in combo:
                team |= 1 << v
            if _spread(team, ball) != full:
                continue  # k exceeds what the kind allows
            diameter = 0
            for v in combo[:1] if kind == "cds" else combo:
                e = _induced_ecc(v, team, nbr)
                if e is None or (kind != "cds" and e >= ecc[v]):
                    break  # disconnected, or v keeps its eccentricity
                diameter = max(diameter, e)
            else:
                k = radius(team)
                if kind in ("hc", "hc-max") and not (diameter <= host.target and k <= diameter):
                    continue
                if best is None or k < best:
                    best = k
        if best is not None:
            return size, best
    return None, None


def self_test():
    """The checker must reject a wrong team: {0,1,2,3} on C6 leaves the two
    ends of the induced path at their host eccentricity 3."""
    c6 = Host(6, [(i, (i + 1) % 6) for i in range(6)])
    try:
        c6.check_team({0, 1, 2, 3}, "hc", "C6 {0,1,2,3}")
    except CheckError as exc:
        require("violators [0, 3]" in str(exc), f"self-test: wrong reason: {exc}")
    else:
        raise CheckError("self-test: the checker accepted team {0,1,2,3} on C6")
    c6.check_team({0, 1, 5}, "hc", "C6 {0,1,5}")
    require(brute_force(6, [(i, (i + 1) % 6) for i in range(6)], "comfortable", c6) == (None, None),
            "self-test: C6 has no comfortable team")
