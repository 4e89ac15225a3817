#!/usr/bin/env python3
"""Exhaustive ground truth on small graphs, and how the heuristic compares.

The oracle walks every connected vertex set up to the sizes it needs,
skipping only sets that hold a pair of vertices too far apart to share a
team, so its answers are exact: minimum comfortable / BC / HC teams,
maximum HC teams, and minimum connected dominating sets. Infeasibility is
an answer too, proven by exhaustion.
"""

from fractions import Fraction

from comfnet import (
    cycle_graph,
    exact_max_team,
    exact_min_cds,
    exact_min_team,
    hicom,
    parse_edge_list,
    path_graph,
    ratio_experiment,
)

l = Fraction(3, 2)
p6 = parse_edge_list("6 5\n0 1\n1 2\n2 3\n3 4\n4 5")
c6 = cycle_graph(6)

print("Minimum comfortable team of the 6-path:")
answer = exact_min_team(p6, "comfortable")
print(f"  size {answer.optimum}, witness {[p6.labels[v] for v in answer.witness]}, "
      f"{answer.enumerated} subsets examined")

print("\nThe 6-cycle has no comfortable team at all:")
answer = exact_min_team(c6, "comfortable")
print(f"  optimum {answer.optimum} after exhausting {answer.enumerated} "
      f"nonempty proper subsets")

print("\nIt does have a minimum 2-BC team (size, then dispersion index):")
answer = exact_min_team(c6, "bc", 2)
print(f"  size {answer.optimum}, witness {[c6.labels[v] for v in answer.witness]}, "
      f"dispersion index {answer.secondary_optimum}")

print("\nMinimum and maximum 3/2-HC teams of the 7-path:")
low = exact_min_team(path_graph(7), "hc", l)
high = exact_max_team(path_graph(7), l)
print(f"  minimum {low.optimum} {low.witness}, maximum {high.optimum} {high.witness}")

print("\nMinimum connected dominating set of the 6-path:")
print(f"  size {exact_min_cds(p6).optimum}, witness {exact_min_cds(p6).witness}")

print("\nHeuristic size against the exact optimum on the 7-path:")
result = hicom(path_graph(7), l)
print(f"  heuristic team size {len(result.team.members)}, exact minimum {low.optimum}")

print("\nPerformance ratios over the cycles C7..C12:")
records, summary, skipped = ratio_experiment([cycle_graph(n) for n in range(7, 13)], l)
for record in records:
    print(f"  n={record.n}: heuristic {record.hicom_size} vs exact {record.oracle_size} "
          f"-> ratio {record.ratio:.2f}")
print(f"  summary: max {summary['max_ratio']:.2f}, mean {summary['mean_ratio']:.2f}")
