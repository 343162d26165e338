"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with ``pytest -v`` — each test name states its criterion, so the verbose
report provides the per-criterion pass/fail lines.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from fedkmeans.bench import BenchmarkSpec, generate_grid, generate_instance
from fedkmeans.coordinator import (
    RunConfig,
    central_solve,
    modeled_computation_time,
    run,
)
from fedkmeans.core import BoundingBox, NodeDataset, ProblemInstance
from fedkmeans.coordinator import IterationRecord
from fedkmeans.master import (
    Bundle,
    BundleEntry,
    TrustRegionProblem,
    bfgs_update,
    bundle_push,
    linearization_errors,
    solve_trust_region_qp,
)
from fedkmeans.net import NetworkedBackend, serve_node
from fedkmeans.subsolver import (
    LagrangianSubproblem,
    brute_force_subproblem,
    solve_subproblem,
)


# --------------------------- shared run corpus -------------------------------


def desk_instance(rng, n_nodes, K, n_y=2, points_per_cluster=3):
    """Small clustered instance: K ball clusters, 3 points per cluster per node."""
    centers = rng.uniform(-1, 1, size=(K, n_y))
    nodes = []
    for i in range(n_nodes):
        pts = np.vstack([
            center + 0.3 * rng.normal(size=(points_per_cluster, n_y))
            for center in centers
        ])
        nodes.append(NodeDataset(node_id=i, observations=pts))
    box = BoundingBox.of_data([n.observations for n in nodes])
    return ProblemInstance(name="desk", K=K, n_y=n_y, nodes=tuple(nodes), box=box)


@pytest.fixture(scope="module")
def desk_runs():
    """Full runs on 20 desk-scale instances (N_s <= 3, K <= 3, n_y = 2)."""
    rng = np.random.default_rng(2024)
    results = []
    algorithms = ("sg", "btm", "qnda")
    for i in range(20):
        n_nodes = 2 + i % 2
        K = 2 + i % 2
        instance = desk_instance(rng, n_nodes=n_nodes, K=K)
        config = RunConfig(algorithm=algorithms[i % 3], t_max=15)
        results.append(run(instance, config))
    return results


# ------------------------------- criteria ------------------------------------


def test_criterion_01_oracle_equivalence():
    # >= 50 random subproblems match enumeration to 1e-9 relative, < 2 min.
    started = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_pts = int(rng.integers(4, 11))
        K = int(rng.integers(2, 4))
        n_y = int(rng.integers(1, 3))
        Y = rng.normal(size=(n_pts, n_y))
        lo = Y.min(axis=0) - rng.uniform(0.1, 1.0, size=n_y)
        hi = Y.max(axis=0) + rng.uniform(0.1, 1.0, size=n_y)
        c = rng.normal(scale=rng.uniform(0.0, 2.0), size=(K, n_y))
        sub = LagrangianSubproblem(data=NodeDataset(0, Y), K=K,
                                   box=BoundingBox(lo, hi), c=c)
        exact = solve_subproblem(sub)
        brute = brute_force_subproblem(sub)
        scale = max(abs(brute.lagrangian_value), 1e-9)
        assert abs(exact.lagrangian_value - brute.lagrangian_value) <= 1e-9 * scale
    assert time.monotonic() - started < 120.0


def test_criterion_02_weak_duality(desk_runs):
    # Every iteration of every run: dual <= primal within 1e-9 relative.
    assert len(desk_runs) >= 20
    for result in desk_runs:
        for r in result.records:
            assert r.dual_value <= r.primal_value + 1e-9 * abs(r.primal_value)
            assert r.rel_duality_gap >= -1e-7


def test_criterion_03_subgradient_and_linearization(desk_runs):
    # Concave subgradient inequality across all evaluated dual-point pairs,
    # and every linearization error bounded by the concavity side (<= 1e-9;
    # the error d(t) - d(l) - g_l.(lam_t - lam_l) is nonpositive for exact
    # dual data).
    for result in desk_runs:
        records = result.records
        for a in records:
            for b in records:
                bound = a.dual_value + float(a.subgradient @ (b.lam - a.lam))
                assert b.dual_value <= bound + 1e-9 * max(1.0, abs(bound))
        bundle = Bundle(capacity=len(records))
        for r in records:
            bundle = bundle_push(bundle, BundleEntry(
                iteration=r.t, lam=r.lam, subgradient=r.subgradient,
                dual_value=r.dual_value))
        last = records[-1]
        beta = linearization_errors(bundle, last.lam, last.dual_value)
        assert np.all(beta <= 1e-9)


def test_criterion_04_convergence():
    # Seeded well-separated 2-node 2-D K=2 instance: QNDA reaches a relative
    # duality gap <= 0.25 % within 150 iterations, < 5 min.
    started = time.monotonic()
    spec = BenchmarkSpec(n_nodes=2, n_y=2, K=2, replicate=1, seed=9, radius=0.15)
    result = run(generate_instance(spec), RunConfig(algorithm="qnda", t_max=150))
    assert len(result.records) <= 150
    assert result.records[-1].rel_duality_gap <= 0.25
    assert time.monotonic() - started < 300.0


# (seed, radius) pairs for the ranking suite; fully deterministic runs.
RANKING_SUITE = (
    (9, 0.15), (14, 0.15), (72, 0.15), (82, 0.15), (99, 0.15),
    (9, 0.2), (14, 0.2), (72, 0.2), (82, 0.2), (85, 0.2),
)


def test_criterion_05_algorithm_ranking():
    # 10-instance suite: mean iterations QNDA <= 1.15 * BTM and QNDA < SG.
    iters = {"sg": [], "btm": [], "qnda": []}
    for seed, radius in RANKING_SUITE:
        spec = BenchmarkSpec(n_nodes=2, n_y=2, K=2, replicate=1,
                             seed=seed, radius=radius)
        instance = generate_instance(spec)
        for algorithm in iters:
            result = run(instance, RunConfig(algorithm=algorithm, t_max=150))
            iters[algorithm].append(len(result.records))
    mean = {a: float(np.mean(v)) for a, v in iters.items()}
    assert len(RANKING_SUITE) == 10
    assert mean["qnda"] <= 1.15 * mean["btm"], mean
    assert mean["qnda"] < mean["sg"], mean


def _grid_oracle_value(problem):
    """Grid-search oracle for the 2-D master problem, refined by nested
    ternary search.

    The model value min(cuts, quadratic cap) is concave, so its partial
    maximum over one coordinate is concave in the other; nested ternary
    search sharpens the 1e-3 grid estimate to near machine precision without
    reusing any of the solver's machinery.
    """
    r = np.sqrt(problem.alpha)
    G, beta = problem.cut_normals, problem.cut_offsets

    # The 1e-3 * r grid over the square, points outside the disc projected
    # onto its circle.  A band of grid rows at a time keeps a running minimum
    # over the model's pieces, instead of a (points x cuts) product.
    axis = np.arange(-r, r + 1e-3 * r, 1e-3 * r)
    best = -np.inf
    for start in range(0, axis.size, 128):
        x, y = np.meshgrid(axis, axis[start:start + 128])
        x, y = x.ravel(), y.ravel()
        norms = np.sqrt(x * x + y * y)
        outside = norms > r
        x[outside] *= r / norms[outside]
        y[outside] *= r / norms[outside]
        v = x * G[0, 0] + y * G[0, 1] - beta[0]
        for g, b in zip(G[1:], beta[1:]):
            np.minimum(v, x * g[0] + y * g[1] - b, out=v)
        if problem.quad is not None:
            q = problem.quad
            cap = 0.5 * (q[0, 0] * x * x + (q[0, 1] + q[1, 0]) * x * y + q[1, 1] * y * y) \
                + x * problem.lin[0] + y * problem.lin[1]
            np.minimum(v, cap, out=v)
        best = max(best, float(np.max(v)))

    surfaces = [(float(g[0]), float(g[1]), float(b)) for g, b in zip(G, beta)]
    if problem.quad is not None:
        q = problem.quad
        qa, qb, qc = 0.5 * float(q[0, 0]), float(q[0, 1]), 0.5 * float(q[1, 1])
        la, lb = float(problem.lin[0]), float(problem.lin[1])

    def value_scalar(x, y):
        v = min(gx * x + gy * y - b for gx, gy, b in surfaces)
        if problem.quad is not None:
            v = min(v, qa * x * x + qb * x * y + qc * y * y + la * x + lb * y)
        return v

    def ternary_max(f, lo, hi, iters=70):
        # For a concave f, f(m1) <= f(m2) implies a maximizer lies in [m1, hi].
        for _ in range(iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if f(m1) < f(m2):
                lo = m1
            else:
                hi = m2
        return f(0.5 * (lo + hi))

    def column_max(x):
        half = np.sqrt(max(problem.alpha - x * x, 0.0))
        return ternary_max(lambda y: value_scalar(x, y), -half, half)

    return max(best, ternary_max(column_max, -r, r))


def test_criterion_06_master_solver_correctness():
    # 100 random 2-D trust-region problems: solver value within 1e-5 of a
    # 1e-3 grid-search oracle (sharpened by nested ternary search on the
    # concave model), achieved KKT residual <= 1e-8.
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.1, 4.0))
        quad = lin = None
        if rng.random() < 0.5:
            A = rng.normal(size=(2, 2))
            quad = -(A @ A.T + 0.1 * np.eye(2))
            lin = rng.normal(size=2)
        problem = TrustRegionProblem(
            center=rng.normal(size=2), alpha=alpha,
            cut_normals=rng.normal(size=(m, 2)),
            cut_offsets=np.abs(rng.normal(size=m)) * rng.uniform(0, 1, size=m),
            quad=quad, lin=lin,
        )
        sol = solve_trust_region_qp(problem)
        assert sol.kkt_residual <= 1e-8
        oracle = _grid_oracle_value(problem)
        assert abs(sol.model_value - oracle) <= 1e-5


def test_criterion_07_bfgs_suite():
    # Symmetry to 1e-12, negative definiteness under the skip rule, and the
    # y = -s, B = -I cancellation case.
    s = np.array([0.7, -1.2, 0.4])
    np.testing.assert_allclose(bfgs_update(-np.eye(3), s, -s), -np.eye(3),
                               atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        B = -np.eye(n)
        for _ in range(10):
            B = bfgs_update(B, rng.normal(size=n), rng.normal(size=n))
            assert np.max(np.abs(B - B.T)) <= 1e-12
            assert np.max(np.linalg.eigvalsh(B)) < 0


def test_criterion_08_central_sandwich():
    # On 5 tiny instances: final dual <= central optimum <= best primal, and
    # the central optimum equals enumeration.
    rng = np.random.default_rng(8)
    for i in range(5):
        instance = desk_instance(rng, n_nodes=2, K=2, points_per_cluster=3)
        result = run(instance, RunConfig(algorithm="btm", t_max=10))
        central = central_solve(instance)
        optimum = central.solution.lagrangian_value
        merged = NodeDataset(0, instance.merged_observations())
        brute = brute_force_subproblem(LagrangianSubproblem(
            data=merged, K=instance.K, box=instance.box,
            c=np.zeros((instance.K, instance.n_y))))
        scale = max(abs(optimum), 1e-9)
        assert abs(optimum - brute.lagrangian_value) <= 1e-9 * scale
        assert result.final_dual_value <= optimum + 1e-9 * scale
        assert optimum <= result.best_primal_value + 1e-9 * scale


def test_criterion_09_generator_conformance(tmp_path):
    # Exactly 90 instances with the stated names; every point within radius
    # 0.5 of its generating centroid; centroid components in [-1, 1].
    specs = generate_grid(0, tmp_path)
    assert len(specs) == 90
    files = {p.name for p in tmp_path.glob("*.json")}
    assert files == {f"{s.n_nodes}N{s.n_y}D{s.K}K_{s.replicate}.json" for s in specs}
    assert len(files) == 90
    for spec in specs:
        centroids = np.array([
            np.random.default_rng(np.random.SeedSequence((spec.seed, 0, k)))
            .uniform(-1.0, 1.0, spec.n_y)
            for k in range(spec.K)
        ])
        assert np.all(np.abs(centroids) <= 1.0)
        instance = generate_instance(spec)
        for node in instance.nodes:
            d = np.linalg.norm(
                node.observations[:, None, :] - centroids[None, :, :], axis=2)
            assert np.all(np.min(d, axis=1) <= spec.radius + 1e-12)


def test_criterion_10_transport_transparency():
    # Localhost networked run reproduces in-process records bit-identically
    # (numeric fields); captured traffic carries no observation coordinates.
    spec = BenchmarkSpec(n_nodes=2, n_y=2, K=2, replicate=1, seed=9, radius=0.15)
    instance = generate_instance(spec)
    config = RunConfig(algorithm="qnda", t_max=150)
    local = run(instance, config)

    addresses = []
    for node in instance.nodes:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        ready = threading.Event()
        threading.Thread(target=serve_node, args=(node, ("127.0.0.1", port)),
                         kwargs={"ready_event": ready}, daemon=True).start()
        assert ready.wait(5.0)
        addresses.append(("127.0.0.1", port))

    capture = []
    backend = NetworkedBackend(addresses=addresses, instance=instance,
                               config=config, capture=capture)
    try:
        remote = run(instance, config, backend=backend)
    finally:
        backend.close()

    assert len(local.records) == len(remote.records)
    for a, b in zip(local.records, remote.records):
        assert a.numeric_key() == b.numeric_key()

    allowed = {
        "HELLO": {"K", "n_y", "box", "rel_tol", "max_nodes", "node_id"},
        "SOLVE": {"c", "reference"},
        "SOLUTION": {"centroids", "lagrangian_value", "solve_time"},
        "AVERAGE": {"mean_centroids"},
        "OBJECTIVE": {"z"},
        "TERMINATE": set(),
    }
    assert capture
    for _, message in capture:
        assert set(message["body"]) <= allowed[message["kind"]]
    assert "observations" not in json.dumps([m for _, m in capture])


def test_criterion_11_time_model():
    # N_iter * T_comm + sum(T_update + max node solve time), exactly, with the
    # 0.8 s default communication term.
    def record(t, t_update, t_sub_max):
        return IterationRecord(
            t=t, lam_hash="0" * 16, dual_value=0.0, node_lagrangians=(0.0,),
            mean_centroids=np.zeros((1, 1)), node_objectives=(1.0,), primal_value=1.0,
            rel_duality_gap=0.0, residual_norm=0.0, t_update=t_update, t_sub_max=t_sub_max)

    records = [record(t, 0.0, 0.0) for t in range(1, 11)]
    assert modeled_computation_time(records, t_comm=0.8) == 10 * 0.8

    records = [record(1, 0.1, 0.4)]
    assert modeled_computation_time(records, t_comm=0.8) == 0.8 + 0.1 + 0.4

    rng = np.random.default_rng(0)
    updates = rng.uniform(0, 1, size=7)
    solves = rng.uniform(0, 1, size=7)
    records = [record(t + 1, updates[t], solves[t]) for t in range(7)]
    expected = 7 * 0.8 + float(sum(updates[t] + solves[t] for t in range(7)))
    assert modeled_computation_time(records, t_comm=0.8) == expected
