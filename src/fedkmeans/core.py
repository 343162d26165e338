"""Domain types, consensus-topology algebra, and instance I/O.

A problem instance holds the per-node observation sets plus the global data
bounding box.  The linear-chain consensus constraints (centroids of node i
equal those of node i+1) are applied structurally through
:func:`apply_coupling` / :func:`apply_coupling_adjoint`; the stacked coupling
matrix is never materialized outside of test oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BoundingBox",
    "ConsensusTopology",
    "NodeDataset",
    "ProblemInstance",
    "apply_coupling",
    "apply_coupling_adjoint",
    "primal_residual",
    "read_instance",
    "write_instance",
]


@dataclass(frozen=True)
class NodeDataset:
    """Observations held by a single node (rows of ``observations``)."""

    node_id: int
    observations: np.ndarray  # (n_points, n_y), row-major, immutable

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2 or obs.shape[0] == 0:
            raise ValueError(f"node {self.node_id}: observations must be a non-empty 2-D array")
        if not np.isfinite(obs).all():
            raise ValueError(f"node {self.node_id}: non-finite observation coordinates")
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)

    @property
    def n_points(self) -> int:
        return self.observations.shape[0]

    @property
    def n_y(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box containing the union of all node data."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("non-finite box bounds")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi component-wise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n_y(self) -> int:
        return self.lo.shape[0]

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point``, or every row of an (n, n_y) array, lies in the
        box, to within 1e-12 per coordinate."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo - 1e-12) and np.all(p <= self.hi + 1e-12))

    @staticmethod
    def of_data(arrays) -> "BoundingBox":
        """Component-wise envelope of per-node min/max bounds.

        Only 2*n_y scalars per node are needed, so a coordinator can build the
        global box without ever seeing raw observations.
        """
        los = [np.min(a, axis=0) for a in arrays]
        his = [np.max(a, axis=0) for a in arrays]
        return BoundingBox(np.min(los, axis=0), np.max(his, axis=0))


@dataclass(frozen=True)
class ProblemInstance:
    """A federated clustering instance: K, per-node data, and the box containing it."""

    name: str
    K: int
    n_y: int
    nodes: tuple[NodeDataset, ...]
    box: BoundingBox

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if len(self.nodes) < 2:
            raise ValueError("an instance needs at least 2 nodes")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for node in self.nodes:
            if node.n_y != self.n_y:
                raise ValueError(f"node {node.node_id} dimension {node.n_y} != n_y={self.n_y}")
            if not self.box.contains(node.observations):
                raise ValueError(f"node {node.node_id}: observation outside the box")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_points(self) -> int:
        return sum(node.n_points for node in self.nodes)

    def merged_observations(self) -> np.ndarray:
        """Union of all node data, in node order (central baseline only)."""
        return np.vstack([node.observations for node in self.nodes])


@dataclass(frozen=True)
class ConsensusTopology:
    """Linear-chain coupling: centroids of node i equal those of node i+1.

    Coupling block b (b = 0..N_s-2) is the constraint m_hat_b - m_hat_{b+1} = 0.
    The dual vector is laid out block-major: (coupling block, cluster, dimension).
    """

    n_nodes: int
    K: int
    n_y: int

    def __post_init__(self):
        if self.n_nodes < 2 or self.K < 1 or self.n_y < 1:
            raise ValueError("require N_s >= 2, K >= 1, n_y >= 1")

    @property
    def block_size(self) -> int:
        return self.K * self.n_y

    @property
    def n_blocks(self) -> int:
        return self.n_nodes - 1

    @property
    def dual_dim(self) -> int:
        return self.block_size * self.n_blocks

    def dense_matrix(self) -> np.ndarray:
        """Stacked coupling matrix A; test oracle only, never used in solves."""
        b = self.block_size
        A = np.zeros((self.dual_dim, b * self.n_nodes))
        eye = np.eye(b)
        for blk in range(self.n_blocks):
            A[blk * b:(blk + 1) * b, blk * b:(blk + 1) * b] = eye
            A[blk * b:(blk + 1) * b, (blk + 1) * b:(blk + 2) * b] = -eye
        return A


def apply_coupling(topology: ConsensusTopology, i: int, m_hat: np.ndarray) -> np.ndarray:
    """Return A_i m_hat_i: node i's contribution to the consensus residual."""
    m = np.asarray(m_hat, dtype=float).ravel()
    b = topology.block_size
    if m.shape[0] != b:
        raise ValueError(f"stacked centroid vector must have length {b}")
    if not 0 <= i < topology.n_nodes:
        raise ValueError(f"node index {i} out of range")
    out = np.zeros(topology.dual_dim)
    if i < topology.n_blocks:
        out[i * b:(i + 1) * b] = m
    if i > 0:
        out[(i - 1) * b:i * b] -= m
    return out


def apply_coupling_adjoint(topology: ConsensusTopology, i: int, lam: np.ndarray) -> np.ndarray:
    """Return c_i = A_i^T lambda, the linear term of node i's Lagrangian."""
    lam = np.asarray(lam, dtype=float).ravel()
    b = topology.block_size
    if lam.shape[0] != topology.dual_dim:
        raise ValueError(f"dual vector must have length {topology.dual_dim}")
    if not 0 <= i < topology.n_nodes:
        raise ValueError(f"node index {i} out of range")
    out = np.zeros(b)
    if i < topology.n_blocks:
        out += lam[i * b:(i + 1) * b]
    if i > 0:
        out -= lam[(i - 1) * b:i * b]
    return out


def primal_residual(topology: ConsensusTopology, centroid_sets) -> tuple[np.ndarray, float]:
    """Consensus violation w_p = sum_i A_i m_hat_i and its Euclidean norm."""
    sets = list(centroid_sets)
    if len(sets) != topology.n_nodes:
        raise ValueError("need one centroid set per node")
    w = np.zeros(topology.dual_dim)
    for i, m in enumerate(sets):
        w += apply_coupling(topology, i, np.asarray(m, dtype=float).ravel())
    return w, float(np.linalg.norm(w))


# ------------------------------- serialization ------------------------------


def write_instance(instance: ProblemInstance, path) -> None:
    raw = {
        "name": instance.name,
        "K": instance.K,
        "n_y": instance.n_y,
        "nodes": [
            {"node_id": node.node_id, "observations": node.observations.tolist()}
            for node in instance.nodes
        ],
        "box": {"lo": instance.box.lo.tolist(), "hi": instance.box.hi.tolist()},
    }
    Path(path).write_text(json.dumps(raw, indent=1), encoding="utf-8")


def read_instance(path) -> ProblemInstance:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    return instance_from_dict(raw)


def instance_from_dict(raw: dict) -> ProblemInstance:
    """Instance from its JSON form; keys other than the instance fields are ignored."""
    try:
        nodes = tuple(
            NodeDataset(node_id=int(n["node_id"]), observations=np.array(n["observations"], dtype=float))
            for n in raw["nodes"]
        )
        box = BoundingBox(np.array(raw["box"]["lo"], dtype=float), np.array(raw["box"]["hi"], dtype=float))
        return ProblemInstance(
            name=str(raw["name"]), K=int(raw["K"]), n_y=int(raw["n_y"]),
            nodes=nodes, box=box,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance payload: {exc}") from exc
