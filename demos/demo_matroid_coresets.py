"""
Coresets under partition and laminar constraints
================================================

build_coreset inspects the constraint and the rank regime:

  * partition, k <= d  -> one local optimum of size k per group (<= s*k ids)
  * partition, k >  d  -> per-group peeling with d-sized layers (<= k*d ids)
  * laminar            -> peel each maximal family set, recurse into any
                          child set a layer touches (<= (k*ell)^r ids)

The summary is tiny compared to n, yet solving on it stays within the
proven factor of the full optimum.
"""

import numpy as np

from detmax import (
    brute_force_opt,
    build_coreset,
    LaminarConstraint,
    PartitionConstraint,
    PointSet,
    solve_on_coreset,
)

rng = np.random.default_rng(12)

# ------------------------------------------------------------------
# partition: 3 groups with caps (2, 2, 1), d = 2 -> high-rank regime
# ------------------------------------------------------------------
n, d = 40, 2
coords = rng.standard_normal((n, d))
labels = {i: i % 3 for i in range(n)}
points = PointSet(d, [(i, coords[i], labels[i]) for i in range(n)])
constraint = PartitionConstraint((2, 2, 1), labels)

cs = build_coreset(points, points.ids, constraint, zeta=1.01)
print("partition coreset: %d of %d points (declared bound %d)"
      % (len(cs.ids), n, cs.declared_bound))

full = brute_force_opt(points, constraint)
small = solve_on_coreset(points, constraint, cs.ids)
print("full optimum   : %.4f" % full.log_value)
print("coreset optimum: %.4f" % small.log_value)
print("log gap %.4f vs guarantee %.4f" % (
    full.log_value - small.log_value, cs.approx_log_factor))

# ------------------------------------------------------------------
# laminar: a nested family {inner} < {outer}, plus a disjoint block
# ------------------------------------------------------------------
m = 16
coords2 = rng.standard_normal((m, d))
pts2 = PointSet(d, [(i, coords2[i], None) for i in range(m)])
family = [
    (list(range(0, 10)), 3),   # outer set, at most 3
    (list(range(0, 5)), 1),    # nested inner set, at most 1
    (list(range(10, 14)), 2),  # disjoint second root
]
lam = LaminarConstraint(family, list(range(m)))
cs2 = build_coreset(pts2, pts2.ids, lam, zeta=1.01)
print("\nlaminar coreset: %d of %d points (bound %d, cover number 2)"
      % (len(cs2.ids), m, cs2.declared_bound))
print("kept per root:", {r: sorted(node.set_ids & cs2.ids)
                         for r, node in cs2.structure["roots"].items()})
print("free ids kept verbatim:", cs2.structure["free"])

full2 = brute_force_opt(pts2, lam)
small2 = solve_on_coreset(pts2, lam, cs2.ids)
print("full %.4f  vs coreset %.4f  (gap %.4f, guarantee %.4f)" % (
    full2.log_value, small2.log_value,
    full2.log_value - small2.log_value, cs2.approx_log_factor))
