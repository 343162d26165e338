"""Tests for domain types, consensus-topology algebra, and instance I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkmeans.core import (
    BoundingBox,
    ConsensusTopology,
    NodeDataset,
    ProblemInstance,
    apply_coupling,
    apply_coupling_adjoint,
    primal_residual,
    read_instance,
    write_instance,
)


def make_instance(n_nodes=2, n_y=2, K=2, seed=0, points=6):
    rng = np.random.default_rng(seed)
    nodes = tuple(
        NodeDataset(node_id=i, observations=rng.normal(size=(points, n_y)))
        for i in range(n_nodes)
    )
    box = BoundingBox.of_data([n.observations for n in nodes])
    return ProblemInstance(name="t", K=K, n_y=n_y, nodes=nodes, box=box)


class TestTopology:
    def test_three_node_scalar_blocks(self):
        # N_s=3, K=1, n_y=1: stacked A = [[1,-1,0],[0,1,-1]].
        topo = ConsensusTopology(3, 1, 1)
        A = topo.dense_matrix()
        assert np.array_equal(A, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(apply_coupling(topo, 0, [1.0]), [1.0, 0.0])
        assert np.array_equal(apply_coupling(topo, 1, [1.0]), [-1.0, 1.0])
        assert np.array_equal(apply_coupling(topo, 2, [1.0]), [0.0, -1.0])

    def test_dual_dimensions(self):
        assert ConsensusTopology(2, 2, 2).dual_dim == 4
        assert ConsensusTopology(4, 4, 4).dual_dim == 48

    def test_middle_node_block(self):
        topo = ConsensusTopology(3, 1, 1)
        assert np.array_equal(apply_coupling(topo, 1, [2.0]), [-2.0, 2.0])

    def test_identity_block_two_nodes(self):
        topo = ConsensusTopology(2, 1, 1)
        assert np.array_equal(apply_coupling(topo, 0, [3.0]), [3.0])

    def test_consensus_cancels(self):
        topo = ConsensusTopology(2, 2, 2)
        m = np.arange(4.0)
        assert np.array_equal(apply_coupling(topo, 0, m) + apply_coupling(topo, 1, m),
                              np.zeros(4))

    def test_adjoint_scalar(self):
        topo = ConsensusTopology(2, 1, 1)
        assert np.array_equal(apply_coupling_adjoint(topo, 0, [5.0]), [5.0])
        assert np.array_equal(apply_coupling_adjoint(topo, 1, [5.0]), [-5.0])

    def test_zero_duals(self):
        topo = ConsensusTopology(4, 2, 3)
        for i in range(4):
            assert np.array_equal(apply_coupling_adjoint(topo, i, np.zeros(topo.dual_dim)),
                                  np.zeros(topo.block_size))

    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, n_nodes, K, n_y, seed):
        # lam . (A_i m) == (A_i^T lam) . m for every node.
        topo = ConsensusTopology(n_nodes, K, n_y)
        rng = np.random.default_rng(seed)
        lam = rng.normal(size=topo.dual_dim)
        for i in range(n_nodes):
            m = rng.normal(size=topo.block_size)
            lhs = float(lam @ apply_coupling(topo, i, m))
            rhs = float(apply_coupling_adjoint(topo, i, lam) @ m)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_coupling_matches_dense_matrix(self, n_nodes, K, n_y, seed):
        topo = ConsensusTopology(n_nodes, K, n_y)
        A = topo.dense_matrix()
        rng = np.random.default_rng(seed)
        b = topo.block_size
        stacked = rng.normal(size=b * n_nodes)
        dense = A @ stacked
        structural = sum(apply_coupling(topo, i, stacked[i * b:(i + 1) * b])
                         for i in range(n_nodes))
        np.testing.assert_allclose(structural, dense, atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ConsensusTopology(1, 2, 2)
        topo = ConsensusTopology(2, 1, 1)
        with pytest.raises(ValueError):
            apply_coupling(topo, 0, [1.0, 2.0])
        with pytest.raises(ValueError):
            apply_coupling_adjoint(topo, 2, [1.0])


class TestPrimalResidual:
    def test_identical_centroids_telescope(self):
        topo = ConsensusTopology(4, 2, 2)
        m = np.arange(4.0)
        _, norm = primal_residual(topo, [m] * 4)
        assert norm == 0.0

    def test_simple_difference(self):
        topo = ConsensusTopology(2, 1, 1)
        w, norm = primal_residual(topo, [[1.0], [0.0]])
        assert np.array_equal(w, [1.0])
        assert norm == 1.0

    @given(st.integers(2, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense(self, n_nodes, seed):
        topo = ConsensusTopology(n_nodes, 2, 2)
        rng = np.random.default_rng(seed)
        sets = [rng.normal(size=topo.block_size) for _ in range(n_nodes)]
        w, norm = primal_residual(topo, sets)
        dense = topo.dense_matrix() @ np.concatenate(sets)
        np.testing.assert_allclose(w, dense, atol=1e-12)
        assert norm == pytest.approx(np.linalg.norm(dense))

    @given(st.integers(2, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_zero_residual_implies_equal_neighbors(self, n_nodes, seed):
        topo = ConsensusTopology(n_nodes, 1, 2)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=topo.block_size)
        sets = [m.copy() for _ in range(n_nodes)]
        _, norm = primal_residual(topo, sets)
        assert norm == 0.0
        sets[-1] = m + 1e-3
        _, norm = primal_residual(topo, sets)
        assert norm > 0.0


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        instance = make_instance(n_nodes=3, n_y=2, K=2, seed=1)
        path = tmp_path / "inst.json"
        write_instance(instance, path)
        loaded = read_instance(path)
        assert loaded.name == instance.name
        assert loaded.K == instance.K and loaded.n_y == instance.n_y
        for a, b in zip(loaded.nodes, instance.nodes):
            assert a.node_id == b.node_id
            np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(loaded.box.lo, instance.box.lo)
        np.testing.assert_array_equal(loaded.box.hi, instance.box.hi)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            read_instance(path)

    def test_legacy_big_m_key_ignored(self, tmp_path):
        # Instance files once carried per-observation big-M values; they still load.
        import json

        instance = make_instance()
        path = tmp_path / "inst.json"
        write_instance(instance, path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert "big_m" not in raw
        raw["big_m"] = {"0": [123.0] * 6, "1": []}
        path.write_text(json.dumps(raw), encoding="utf-8")
        loaded = read_instance(path)
        for a, b in zip(loaded.nodes, instance.nodes):
            np.testing.assert_array_equal(a.observations, b.observations)
        assert not hasattr(loaded, "big_m")

    def test_non_finite_observations_rejected(self):
        with pytest.raises(ValueError):
            NodeDataset(node_id=0, observations=np.array([[np.nan, 0.0]]))

    def test_box_must_contain_data(self):
        nodes = (NodeDataset(0, np.array([[0.0, 0.0]])), NodeDataset(1, np.array([[5.0, 5.0]])))
        box = BoundingBox(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            ProblemInstance(name="t", K=2, n_y=2, nodes=nodes, box=box)

    def test_envelope_box(self):
        arrays = [np.array([[0.0, 3.0], [1.0, 1.0]]), np.array([[-1.0, 2.0]])]
        box = BoundingBox.of_data(arrays)
        np.testing.assert_array_equal(box.lo, [-1.0, 1.0])
        np.testing.assert_array_equal(box.hi, [1.0, 3.0])
