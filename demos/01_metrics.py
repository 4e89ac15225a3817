#!/usr/bin/env python3
"""Tour of the graph basics: parsing, distances, eccentricity profiles,
shells, induced subgraphs, and graph powers."""

from comfnet import (
    all_pairs_distances,
    eccentricity_profile,
    graph_power,
    induced_subgraph,
    parse_edge_list,
)

print("A six-vertex path, written in the edge-list format the CLI reads:")
text = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5"
print(text)
p6 = parse_edge_list(text)

profile = eccentricity_profile(p6)
print("\nPer-vertex eccentricities:", profile.eccentricity)
print(f"radius {profile.radius}, diameter {profile.diameter}, "
      f"center {[p6.labels[v] for v in profile.center]}, class {profile.class_label}")

print("\nAll-pairs hop distances, computed on request (a graph caches only its connectivity and profile):")
distances = all_pairs_distances(p6)
for row in distances:
    print(" ", *row)

print("\nShells around the central vertex v3 partition the graph:")
for j in range(profile.eccentricity[2] + 1):
    print(f"  distance {j}: {[p6.labels[v] for v in range(p6.n) if distances[2][v] == j]}")

print("\nThe subgraph induced by the interior vertices is a shorter path:")
sub = induced_subgraph(p6, {1, 2, 3, 4})
inner = eccentricity_profile(sub)
print(f"  vertices {list(sub.labels)}, diameter {inner.diameter} "
      f"(was {profile.diameter})")

print("\nSquaring the path adds every distance-2 chord:")
squared = graph_power(p6, 2)
print(f"  edges: {sorted(squared.edges)}")
