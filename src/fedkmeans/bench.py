"""Seeded random benchmark instances and the 90-problem evaluation grid.

Each instance draws K ground-truth centroids with components uniform on
[-1, 1], then places points uniformly inside the radius-0.5 Euclidean ball
around each centroid.  Reproducibility: every random draw uses its own
``numpy.random.SeedSequence`` keyed by an integer tuple, documented below, so
instances are byte-identical for a given seed.

Stream-splitting rule:
  centroid k          -> SeedSequence((seed, 0, k))
  node i, cluster k,  -> SeedSequence((seed, 1, node, cluster, point))
  point p
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BoundingBox, NodeDataset, ProblemInstance, write_instance

__all__ = ["BenchmarkSpec", "generate_grid", "generate_instance", "GRID_AXES"]

# Grid axes: 3 node counts x 3 dimensions x 2 cluster counts x 5 replicates = 90.
GRID_AXES = {
    "n_nodes": (2, 3, 4),
    "n_y": (2, 3, 4),
    "K": (3, 4),
    "replicates": (1, 2, 3, 4, 5),
}


@dataclass(frozen=True)
class BenchmarkSpec:
    n_nodes: int
    n_y: int
    K: int
    replicate: int
    seed: int
    points_per_cluster_per_node: int = 5
    radius: float = 0.5
    # "per-node": each node draws its own points around every centroid;
    # "global-split": one global pool per cluster, dealt round-robin to nodes.
    sampling: str = "per-node"

    def __post_init__(self):
        if self.n_nodes < 2 or self.K < 2 or self.n_y < 1 or self.replicate < 1:
            raise ValueError("invalid benchmark parameters")
        if self.points_per_cluster_per_node < 1 or self.radius <= 0:
            raise ValueError("invalid sampling parameters")
        if self.sampling not in ("per-node", "global-split"):
            raise ValueError("sampling must be 'per-node' or 'global-split'")

    @property
    def name(self) -> str:
        return f"{self.n_nodes}N{self.n_y}D{self.K}K_{self.replicate}"


def _ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform sample from the Euclidean ball around ``center``."""
    n = center.shape[0]
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    r = radius * rng.random() ** (1.0 / n)
    return center + r * direction


def generate_instance(spec: BenchmarkSpec) -> ProblemInstance:
    """Instance with K ball-shaped clusters replicated at every node."""
    centroids = np.array([
        np.random.default_rng(np.random.SeedSequence((spec.seed, 0, k))).uniform(-1.0, 1.0, spec.n_y)
        for k in range(spec.K)
    ])

    per_node: list[list[np.ndarray]] = [[] for _ in range(spec.n_nodes)]
    if spec.sampling == "per-node":
        for i in range(spec.n_nodes):
            for k in range(spec.K):
                for p in range(spec.points_per_cluster_per_node):
                    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1, i, k, p)))
                    per_node[i].append(_ball_point(rng, centroids[k], spec.radius))
    else:
        # One global pool of points per cluster, dealt round-robin to nodes.
        counter = 0
        for k in range(spec.K):
            for p in range(spec.points_per_cluster_per_node * spec.n_nodes):
                rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1, 0, k, p)))
                per_node[counter % spec.n_nodes].append(_ball_point(rng, centroids[k], spec.radius))
                counter += 1

    nodes = tuple(
        NodeDataset(node_id=i, observations=np.array(points))
        for i, points in enumerate(per_node)
    )
    box = BoundingBox.of_data([n.observations for n in nodes])
    return ProblemInstance(name=spec.name, K=spec.K, n_y=spec.n_y, nodes=nodes, box=box)


def _grid_seed(base_seed: int, n_nodes: int, n_y: int, K: int, replicate: int) -> int:
    state = np.random.SeedSequence((base_seed, n_nodes, n_y, K, replicate)).generate_state(1)
    return int(state[0])


def generate_grid(base_seed: int, out_dir) -> list[BenchmarkSpec]:
    """Write the full 90-instance grid plus a manifest CSV; returns the specs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = []
    for n_nodes, n_y, K, r in itertools.product(
        GRID_AXES["n_nodes"], GRID_AXES["n_y"], GRID_AXES["K"], GRID_AXES["replicates"]
    ):
        spec = BenchmarkSpec(
            n_nodes=n_nodes, n_y=n_y, K=K, replicate=r,
            seed=_grid_seed(base_seed, n_nodes, n_y, K, r),
        )
        write_instance(generate_instance(spec), out / f"{spec.name}.json")
        specs.append(spec)
    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "seed", "n_nodes", "n_y", "K", "replicate"])
        for s in specs:
            writer.writerow([s.name, s.seed, s.n_nodes, s.n_y, s.K, s.replicate])
    return specs
