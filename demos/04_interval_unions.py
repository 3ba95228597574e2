"""Chebyshev constants on a union of intervals: restricted vs unrestricted.

On a single interval it makes no difference whether the nodes of the minimal
monic product may leave the set; on a union E of k intervals it does. The
unrestricted extremizer may park nodes inside the gaps; snapping each such
node to the nearer component endpoint costs at most a factor 2 per gap node,
which gives R <= 2^(k-1) C for unit exponents. R itself is computed
exactly: each node of a restricted optimum sits at a component endpoint or
is a free node of a smaller equioscillation problem.
"""

import equiosc as eq

E = eq.IntervalUnion(((0.0, 0.4), (0.6, 1.0)))

C, w_nodes = eq.unrestricted_constant(E, (1.0,))
print(f"unrestricted: C = {C:.9f} with node(s) {w_nodes}  (node sits in the gap)")

snapped = eq.snap_to_E(w_nodes, E)
print(f"snapped nodes: {snapped}  (tie at the gap midpoint goes left)")
print(f"snapped norm:  {eq.gap_norm(snapped, (1.0,), eq.constant_field(1.0), E):.9f}")

R, r_nodes = eq.restricted_constant(E, (1.0,))
print(f"restricted:   R = {R:.9f} with node(s) {r_nodes}")

report = eq.compare_constants(E, (1.0,))
print(
    f"\nbound check: C = {report['C']:.6f} <= R = {report['R']:.6f} "
    f"<= {report['bound']:.0f} * C = {report['bound'] * report['C']:.6f}"
)

print("\nthree components, two nodes:")
E3 = eq.IntervalUnion(((0.0, 0.25), (0.4, 0.6), (0.8, 1.0)))
report3 = eq.compare_constants(E3, (1.0, 1.0))
print(
    f"C = {report3['C']:.6f}, R = {report3['R']:.6f}, factor bound {report3['bound']:.0f}, "
    f"all inequalities hold: {report3['lower_ok'] and report3['upper_ok'] and report3['snap_ok']}"
)
print(f"restricted nodes: {report3['nodes_restricted']}")
