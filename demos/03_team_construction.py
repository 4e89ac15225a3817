#!/usr/bin/env python3
"""Constructing a highly comfortable team with the HICOM heuristic.

The run picks a central vertex, absorbs whole distance shells up to half
the target diameter, extends outward one vertex per shell until the
induced diameter hits the target, then repairs the less-dispersiveness
condition by shedding vertices. Every returned team is re-checked against
all four conditions.
"""

from fractions import Fraction

from comfnet import cycle_graph, hicom, path_graph, to_dot, verify_k_bound

l = Fraction(3, 2)

for name, g in [("C6", cycle_graph(6)), ("P7", path_graph(7)), ("C8", cycle_graph(8))]:
    result = hicom(g, l)
    print(f"{name}: team {[g.labels[v] for v in sorted(result.team)]}")
    print(f"  target diameter d1={result.d1}, achieved {result.achieved_diameter}, "
          f"domination radius k={result.k}, verdict {result.report.verdict}")
    print("  phases:")
    for step in result.trace:
        labels = [g.labels[v] for v in step.vertices]
        print(f"    {step.op:9s} shell={step.shell} {labels}")
    for check in verify_k_bound(result, g):
        print(f"  bound {check.name}: {check.lhs} <= {check.rhs} -> {check.holds}")
    print()

print("Graphs of diameter <= 2 route to a dominating-clique fallback:")
c4 = cycle_graph(4)
result = hicom(c4, l)
print(f"  C4: team {[c4.labels[v] for v in sorted(result.team)]} "
      f"verdict {result.report.verdict}")

print("\nDOT export with the team highlighted (paste into graphviz):")
print(to_dot(cycle_graph(6), team=hicom(cycle_graph(6), l).team))
