"""Exact node subproblem solves, cross-checked against full enumeration.

One node's task: cluster its local observations while a linear dual term
c_k . m_k tilts each centroid. For any fixed assignment the optimal
box-constrained centroid has a closed form, so branch-and-bound only searches
over assignments — and proves global optimality.
"""

import numpy as np

from fedkmeans.core import BoundingBox, NodeDataset
from fedkmeans.subsolver import (
    LagrangianSubproblem,
    branching_order,
    brute_force_subproblem,
    lloyd_incumbent,
    solve_subproblem,
)


def main():
    rng = np.random.default_rng(7)

    print("Exact subproblem vs. enumeration on random instances")
    print("-" * 60)
    for trial in range(5):
        n_pts, K = int(rng.integers(5, 9)), int(rng.integers(2, 4))
        Y = rng.normal(size=(n_pts, 2))
        box = BoundingBox(Y.min(axis=0) - 0.5, Y.max(axis=0) + 0.5)
        c = rng.normal(scale=0.5, size=(K, 2))
        sub = LagrangianSubproblem(data=NodeDataset(0, Y), K=K, box=box, c=c)

        exact = solve_subproblem(sub)
        brute = brute_force_subproblem(sub)
        heuristic = lloyd_incumbent(sub, branching_order(Y))

        print(f"trial {trial}: {n_pts} points, K={K} "
              f"(search space {K ** n_pts} assignments)")
        print(f"  branch-and-bound  {exact.lagrangian_value:+.9f} "
              f"({exact.stats['explored']} nodes explored, "
              f"proof gap {exact.proof_gap:.1e})")
        print(f"  enumeration       {brute.lagrangian_value:+.9f}")
        print(f"  Lloyd incumbent   {heuristic.lagrangian_value:+.9f} "
              f"(one descent from the branching order; upper bound only)")
        assert abs(exact.lagrangian_value - brute.lagrangian_value) \
            <= 1e-9 * max(1.0, abs(brute.lagrangian_value))

    print()
    print("Every solve matched the enumeration oracle to 1e-9 relative.")


if __name__ == "__main__":
    main()
