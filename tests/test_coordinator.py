"""Tests for the run loop, averaging heuristic, time model, and central baseline."""

import hashlib
import json
import math

import numpy as np
import pytest

from fedkmeans.bench import BenchmarkSpec, generate_grid, generate_instance
from fedkmeans.coordinator import (
    ALGORITHMS,
    CentralResult,
    InProcessBackend,
    IterationRecord,
    NodeSession,
    RunAborted,
    RunConfig,
    central_solve,
    modeled_computation_time,
    relative_duality_gap,
    run,
    write_run_csv,
)
from fedkmeans.core import (
    BoundingBox,
    ConsensusTopology,
    NodeDataset,
    ProblemInstance,
    apply_coupling_adjoint,
    primal_residual,
    read_instance,
)
from fedkmeans.subsolver import (
    brute_force_subproblem,
    LagrangianSubproblem,
    NodeLimitExceeded,
    solve_subproblem,
    suffix_lower_bounds,
)


def two_node_instance(seed=123, n_y=2, K=2, points=3):
    rng = np.random.default_rng(seed)
    nodes = tuple(
        NodeDataset(node_id=i, observations=rng.normal(size=(points * K, n_y)))
        for i in range(2)
    )
    box = BoundingBox.of_data([n.observations for n in nodes])
    return ProblemInstance(name="t", K=K, n_y=n_y, nodes=nodes, box=box)


WELL_SEPARATED = BenchmarkSpec(n_nodes=2, n_y=2, K=2, replicate=1, seed=9, radius=0.15)


class TestRelativeDualityGap:
    def test_values(self):
        assert relative_duality_gap(99.0, 100.0) == pytest.approx(1.0)
        assert relative_duality_gap(100.0, 100.0) == pytest.approx(0.0)

    def test_weak_duality_sign(self):
        assert relative_duality_gap(50.0, 100.0) >= 0.0

    def test_requires_positive_primal(self):
        with pytest.raises(ValueError):
            relative_duality_gap(1.0, 0.0)

    def test_zero_primal_is_proven_optimal(self):
        # No clustering costs less than 0, so a dual of at most 0 closes the gap.
        assert relative_duality_gap(0.0, 0.0) == 0.0
        assert relative_duality_gap(-1.0, 0.0) == 0.0


class TestTimeModel:
    def test_pure_communication(self):
        records = [make_record(t, 0.0, 0.0) for t in range(1, 11)]
        assert modeled_computation_time(records, t_comm=0.8) == pytest.approx(8.0)

    def test_single_iteration(self):
        records = [make_record(1, 0.1, 0.4)]
        assert modeled_computation_time(records, t_comm=0.8) == pytest.approx(1.3)

    def test_additivity(self):
        a = [make_record(t, 0.01 * t, 0.02 * t) for t in range(1, 4)]
        b = [make_record(t, 0.03, 0.05) for t in range(4, 7)]
        total = modeled_computation_time(a + b, 0.8)
        assert total == pytest.approx(modeled_computation_time(a, 0.8)
                                      + modeled_computation_time(b, 0.8))

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            modeled_computation_time([], 0.8)


def make_record(t, t_update, t_sub_max):
    return IterationRecord(
        t=t, lam_hash="0" * 16, dual_value=0.0, node_lagrangians=(0.0,),
        mean_centroids=np.zeros((1, 1)), node_objectives=(1.0,), primal_value=1.0,
        rel_duality_gap=0.0, residual_norm=0.0, t_update=t_update, t_sub_max=t_sub_max,
    )


class TestRunLoop:
    def test_identical_data_terminates_immediately(self):
        # Symmetric nodes produce identical centroids after the iteration-1
        # relabeling, so g = 0 and the run stops by residual at t = 1.
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(6, 2))
        nodes = (NodeDataset(0, Y), NodeDataset(1, Y.copy()))
        box = BoundingBox.of_data([Y])
        instance = ProblemInstance(name="twin", K=2, n_y=2, nodes=nodes, box=box)
        result = run(instance, RunConfig(algorithm="sg", t_max=10))
        assert result.termination == "residual"
        assert len(result.records) == 1
        assert result.records[0].residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_weak_duality_every_iteration(self):
        instance = two_node_instance(seed=1)
        result = run(instance, RunConfig(algorithm="btm", t_max=8))
        for r in result.records:
            assert r.dual_value <= r.primal_value + 1e-9 * abs(r.primal_value)
            assert r.rel_duality_gap >= -1e-7

    def test_subgradient_equals_primal_residual(self):
        instance = two_node_instance(seed=2)
        result = run(instance, RunConfig(algorithm="sg", t_max=5))
        topo = ConsensusTopology(instance.n_nodes, instance.K, instance.n_y)
        for r in result.records:
            assert float(np.linalg.norm(r.subgradient)) == r.residual_norm
            _, norm = primal_residual(
                topo,
                [r.mean_centroids.ravel()] * instance.n_nodes,
            )
            assert norm == pytest.approx(0.0, abs=1e-12)  # averaged set is consensual

    def test_dual_value_additivity(self):
        instance = two_node_instance(seed=3)
        result = run(instance, RunConfig(algorithm="qnda", t_max=4))
        for r in result.records:
            assert r.dual_value == pytest.approx(sum(r.node_lagrangians), abs=1e-12)

    def test_determinism(self):
        instance = two_node_instance(seed=4)
        cfg = RunConfig(algorithm="qnda", t_max=6)
        a = run(instance, cfg)
        b = run(instance, cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.numeric_key() == rb.numeric_key()

    def test_best_primal_is_minimum(self):
        instance = two_node_instance(seed=7)
        result = run(instance, RunConfig(algorithm="sg", t_max=8))
        assert result.best_primal_value == pytest.approx(
            min(r.primal_value for r in result.records))
        assert result.final_dual_value == pytest.approx(
            max(r.dual_value for r in result.records))

    def test_convergence_on_separated_instance(self):
        instance = generate_instance(WELL_SEPARATED)
        result = run(instance, RunConfig(algorithm="qnda", t_max=150))
        assert result.termination in ("residual", "duality_gap")
        assert len(result.records) < 150

    def test_node_limit_aborts_with_partial_records(self):
        instance = two_node_instance(seed=8, points=6)
        with pytest.raises(RunAborted) as err:
            run(instance, RunConfig(algorithm="sg", t_max=5, max_nodes=2))
        assert isinstance(err.value.records, tuple)

    def test_backend_failure_aborts(self):
        instance = two_node_instance(seed=9)

        class FailingBackend(InProcessBackend):
            def solve_batch(self, t, c_list, reference, node_indices):
                if t >= 3:
                    raise RuntimeError("connection lost")
                return super().solve_batch(t, c_list, reference, node_indices)

        backend = FailingBackend(instance, RunConfig(algorithm="sg", t_max=10))
        with pytest.raises(RunAborted) as err:
            run(instance, RunConfig(algorithm="sg", t_max=10), backend=backend)
        assert len(err.value.records) == 2

    def test_master_solver_failure_aborts(self, monkeypatch):
        import fedkmeans.coordinator as coordinator
        from fedkmeans.master import TrustRegionSolverError

        def failing(*args, **kwargs):
            raise TrustRegionSolverError("KKT residual 1e-3 exceeds 1e-8")

        monkeypatch.setattr(coordinator, "btm_direction", failing)
        with pytest.raises(RunAborted, match="^master solver failed: KKT residual") as err:
            run(two_node_instance(seed=9), RunConfig(algorithm="btm", t_max=10))
        assert isinstance(err.value.__cause__, TrustRegionSolverError)

    def test_qnda_fallbacks_counted(self, monkeypatch):
        # Every quasi-Newton master problem fails; each update falls back to
        # a BTM step, whose own master problem (no quadratic cap) solves.
        import fedkmeans.master as master

        solve = master.solve_trust_region_qp

        def failing_with_cap(problem, *args, **kwargs):
            if problem.quad is not None:
                raise master.TrustRegionSolverError("forced")
            return solve(problem, *args, **kwargs)

        instance = two_node_instance(seed=1)
        assert run(instance, RunConfig(algorithm="qnda", t_max=6)).qnda_fallbacks == 0
        monkeypatch.setattr(master, "solve_trust_region_qp", failing_with_cap)
        result = run(instance, RunConfig(algorithm="qnda", t_max=6))
        assert result.termination == "max_iter"
        # The last iteration stops before any update.
        assert result.qnda_fallbacks == len(result.records) - 1 == 5

    @pytest.mark.parametrize("K", [3, 4])
    def test_first_iteration_values_are_unaligned_minima(self, K):
        # Label alignment at iteration 1 permutes only the centroid rows of
        # each reply, so every node's value is its own minimum, bit for bit.
        instance = generate_instance(BenchmarkSpec(n_nodes=3, n_y=2, K=K, replicate=1, seed=0))
        record = run(instance, RunConfig(algorithm="sg", t_max=1)).records[0]
        for node, value in zip(instance.nodes, record.node_lagrangians, strict=True):
            sub = LagrangianSubproblem(data=node, K=K, box=instance.box, c=np.zeros((K, instance.n_y)))
            assert value == solve_subproblem(sub).lagrangian_value


class TestNodeSession:
    def test_hello_body_round_trip(self):
        instance = two_node_instance(seed=5)
        config = RunConfig(max_nodes=1234)
        body = NodeSession.hello_body(instance, config)
        assert set(body) == {"K", "n_y", "box", "max_nodes"}
        session = NodeSession.open(instance.nodes[1], json.loads(json.dumps(body)))
        assert session.data is instance.nodes[1]
        assert (session.K, session.max_nodes) == (instance.K, 1234)
        np.testing.assert_array_equal(session.box.lo, instance.box.lo)
        np.testing.assert_array_equal(session.box.hi, instance.box.hi)

    def test_open_rejects_mismatched_settings(self):
        instance = two_node_instance(seed=5)
        body = NodeSession.hello_body(instance, RunConfig())
        node = instance.nodes[0]
        with pytest.raises(ValueError, match="n_y"):
            NodeSession.open(node, {**body, "n_y": 3})
        with pytest.raises(ValueError, match="K must be"):
            NodeSession.open(node, {**body, "K": 1})
        with pytest.raises(ValueError, match="box"):
            NodeSession.open(node, {**body, "box": {"lo": [9.0, 9.0], "hi": [10.0, 10.0]}})

    def test_solve_and_objective(self):
        instance = two_node_instance(seed=6)
        session = InProcessBackend(instance, RunConfig()).sessions[0]
        c = np.array([[0.3, -0.1], [0.0, 0.2]])
        reply = session.solve(c.ravel())
        sub = LagrangianSubproblem(data=session.data, K=2, box=instance.box, c=c)
        assert reply.lagrangian_value == pytest.approx(brute_force_subproblem(sub).lagrangian_value, abs=1e-9)
        Y = session.data.observations
        expected = sum(min(float(np.sum((y - m) ** 2)) for m in reply.centroids) for y in Y)
        assert session.objective(reply.centroids) == pytest.approx(expected)

    def test_malformed_input_rejected(self):
        # Mean centroids of any other shape would broadcast against the data,
        # and a non-finite dual term has no exact minimum to report.
        instance = generate_instance(BenchmarkSpec(n_nodes=2, n_y=2, K=3, replicate=1, seed=0))
        session = InProcessBackend(instance, RunConfig()).sessions[0]
        for mean in (np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]], np.zeros((4, 2)), [[math.nan, 0.0]] * 3,
                     [[math.inf, 0.0]] * 3):
            with pytest.raises(ValueError, match=r"finite \(3, 2\) array"):
                session.objective(mean)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"c must be a finite \(3, 2\) array"):
                session.solve([0.0, 0.0, bad, 0.0, 0.0, 0.0])
        assert math.isfinite(session.objective(session.solve(np.zeros(6)).centroids))

    def test_suffix_bounds_computed_once(self, monkeypatch):
        # One branching order per session: the suffix bounds and every
        # solve use it, every solve through the one search template that
        # the session builds from them.
        import fedkmeans.coordinator as coordinator

        calls = {"order": [], "bounds": [], "solve": []}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key].append(kwargs)
                result = original(*args, **kwargs)
                if key == "order":
                    calls[key][-1] = result
                return result
            return wrapper

        for key, name in (("order", "branching_order"), ("bounds", "suffix_lower_bounds"),
                          ("solve", "solve_subproblem")):
            monkeypatch.setattr(coordinator, name, counting(key, getattr(coordinator, name)))
        instance = two_node_instance(seed=6, K=3)
        session = InProcessBackend(instance, RunConfig()).sessions[0]
        assert calls == {"order": [], "bounds": [], "solve": []}  # not computed when the session opens
        c = np.array([[0.3, -0.1], [0.0, 0.2], [-0.2, 0.1]])
        for scale in (0.0, 1.0, -0.5, 2.0):
            reply = session.solve(scale * c.ravel())
            sub = LagrangianSubproblem(data=session.data, K=3, box=instance.box, c=scale * c)
            assert reply.lagrangian_value == pytest.approx(brute_force_subproblem(sub).lagrangian_value, abs=1e-9)
        assert len(calls["order"]) == 1 and len(calls["bounds"]) == 1 and len(calls["solve"]) == 4
        order = calls["order"][0]
        assert calls["bounds"][0]["order"] is order
        assert all(kwargs["template"] is session.template for kwargs in calls["solve"])
        assert session.template.order == order

    @pytest.mark.parametrize("seed", range(8))
    def test_solve_matches_enumeration_on_small_nodes(self, seed):
        # Zero, equal-row and random dual terms on one session, each solve
        # through the session's search template.
        rng = np.random.default_rng(seed)
        K, n_y = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        Y = rng.normal(size=(int(rng.integers(K, 9 if K < 4 else 8)), n_y))
        box = BoundingBox(Y.min(axis=0) - rng.uniform(0.1, 1.0, n_y), Y.max(axis=0) + rng.uniform(0.1, 1.0, n_y))
        session = NodeSession(data=NodeDataset(0, Y), K=K, box=box, max_nodes=RunConfig().max_nodes)
        duals = [np.zeros((K, n_y)), np.tile(rng.normal(size=n_y), (K, 1))]
        duals += [rng.normal(scale=scale, size=(K, n_y)) for scale in (0.5, 2.0, 5.0)]
        for c in duals:
            reply = session.solve(c.ravel())
            brute = brute_force_subproblem(LagrangianSubproblem(data=session.data, K=K, box=box, c=c))
            assert reply.lagrangian_value == pytest.approx(brute.lagrangian_value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("node", [0, 1])
    def test_reply_does_not_depend_on_the_node_id(self, tmp_path, node):
        # A reply depends on the node's data and the duals, so the same data
        # served under node ids 0 and 1 gives the same bits, at zero duals
        # and at the t = 2 duals of an SG run on the same cell.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "3N2D4K_1.json")
        lam = run(instance, RunConfig(algorithm="sg", t_max=2)).records[1].lam
        topology = ConsensusTopology(instance.n_nodes, instance.K, instance.n_y)
        body = NodeSession.hello_body(instance, RunConfig())
        data = instance.nodes[node].observations
        replies = []
        for node_id in (0, 1):
            session = NodeSession.open(NodeDataset(node_id, data), body)
            replies.append([session.solve(np.zeros(instance.K * instance.n_y)),
                            session.solve(apply_coupling_adjoint(topology, node, lam))])
        for a, b in zip(*replies):
            assert a.lagrangian_value == b.lagrangian_value
            np.testing.assert_array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("cell", [None, "3N2D4K_1"])
    def test_fresh_session_at_zero_duals_explores_no_nodes(self, monkeypatch, tmp_path, cell):
        # The suffix precompute proves the node's K-means optimum, and at
        # zero duals its value meets the root bound, so the search stops at
        # the root whether Lloyd's incumbent or that optimum starts it.
        if cell is None:
            instance = two_node_instance(seed=6, K=3)
        else:
            generate_grid(0, tmp_path)
            instance = read_instance(tmp_path / f"{cell}.json")
        log = record_solves(monkeypatch)
        body = NodeSession.hello_body(instance, RunConfig())
        for node in instance.nodes:
            NodeSession.open(node, body).solve(np.zeros(instance.K * instance.n_y))
        assert [entry["explored"] for entry in log] == [0] * instance.n_nodes

    def test_reply_does_not_depend_on_earlier_solves(self, tmp_path):
        # Solving c1, then c2, then c1 again gives the first reply's bits,
        # and so does a fresh session's first solve of c1.  The duals are
        # those of an SG run's iterations 2 and 3 on a K=4 grid cell.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "3N2D4K_1.json")
        lams = [r.lam for r in run(instance, RunConfig(algorithm="sg", t_max=3)).records[1:]]
        topology = ConsensusTopology(instance.n_nodes, instance.K, instance.n_y)
        c1, c2 = (apply_coupling_adjoint(topology, 1, lam) for lam in lams)
        body = NodeSession.hello_body(instance, RunConfig())
        session = NodeSession.open(instance.nodes[1], body)
        first, _, again = (session.solve(c) for c in (c1, c2, c1))
        fresh = NodeSession.open(instance.nodes[1], body).solve(c1)
        for reply in (again, fresh):
            assert reply.lagrangian_value == first.lagrangian_value
            np.testing.assert_array_equal(reply.centroids, first.centroids)


def record_solves(monkeypatch):
    """Log each node solve's nodes explored and its Lloyd calls."""
    import fedkmeans.coordinator as coordinator
    import fedkmeans.subsolver as subsolver

    log, counts = [], {"lloyd": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(subsolver, "lloyd_incumbent", counted("lloyd", subsolver.lloyd_incumbent))
    original = coordinator.solve_subproblem

    def solve(sub, **kwargs):
        before = dict(counts)
        solution = original(sub, **kwargs)
        log.append({"explored": solution.stats["explored"], **{key: counts[key] - before[key] for key in counts}})
        return solution

    monkeypatch.setattr(coordinator, "solve_subproblem", solve)
    return log


class TestLloydStart:
    @pytest.mark.parametrize("cell, t_max", [(None, 5), ("3N2D4K_1", 3)])
    def test_node_solves_run_no_lloyd(self, monkeypatch, tmp_path, cell, t_max):
        # Every node solve starts from the node's K-means optimum, relabelled
        # under its dual term, on small K=3 searches and on the larger ones of
        # a K=4 grid cell; none runs a Lloyd descent.
        if cell is None:
            instance = two_node_instance(seed=6, K=3, points=2)
        else:
            generate_grid(0, tmp_path)
            instance = read_instance(tmp_path / f"{cell}.json")
        log = record_solves(monkeypatch)
        run(instance, RunConfig(algorithm="sg", t_max=t_max))
        assert len(log) == t_max * instance.n_nodes
        assert all(entry["lloyd"] == 0 for entry in log)


class TestSearchSize:
    def test_k4_grid_cells_explore_few_nodes(self, monkeypatch, tmp_path):
        # The K=4 cells of the seed-0 grid, SG for two iterations, explore
        # 9,369 nodes in all with the farthest-first branching order and
        # each node's K-means optimum as its start (24,217 from a Lloyd start
        # alone and 267,303 in decreasing distance from the data mean, both
        # measured when some of these searches ran in numpy batches).  The
        # counts are deterministic, so this bound, about twice the count,
        # catches a regression in the order, the start or the bounds.
        log = record_solves(monkeypatch)
        generate_grid(0, tmp_path)
        for cell in ("2N2D4K_1", "3N2D4K_1", "4N2D4K_1"):
            run(read_instance(tmp_path / f"{cell}.json"), RunConfig(algorithm="sg", t_max=2))
        assert len(log) == 18
        assert sum(entry["explored"] for entry in log) <= 19_000


def _digest(value) -> str:
    """sha256 of ``repr(value)``; the repr of a Python float gives it back
    bit for bit, so equal digests mean bit-identical numbers."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def seed0_grid(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid")
    generate_grid(0, path)
    return path


class TestGoldenRecords:
    """Bit-exact results on the K=4 cells of the seed-0 grid, rows as
    generated.  A change to the node search that moves one bit of a bound,
    an optimum or a record fails here; a change that means to move them
    must say why and record the new values."""

    # _digest of the numeric_key()s of an SG run's records, t_max 2.
    K4_SG_RECORDS = {
        "2N2D4K_1": "f1680d00c0c10ee832b94c5474a49777054ece783e80d9d56e5815916b9afb63",
        "3N2D4K_1": "a901c2044fb3054fa6b0e755eb2a207eaf8ab4bd4cdc8a5ca9b0b612576ba7b0",
        "4N2D4K_1": "7f04e1aca4071a6235c0824a88c3c04748874fb7a297475df77a23862fd44a42",
    }

    @pytest.mark.parametrize("cell", sorted(K4_SG_RECORDS))
    def test_k4_sg_records(self, seed0_grid, cell):
        result = run(read_instance(seed0_grid / f"{cell}.json"), RunConfig(algorithm="sg", t_max=2))
        assert _digest(tuple(r.numeric_key() for r in result.records)) == self.K4_SG_RECORDS[cell]

    def test_suffix_bounds_and_optimum(self, seed0_grid):
        instance = read_instance(seed0_grid / "3N2D4K_1.json")
        bounds, optimum = suffix_lower_bounds(instance.nodes[0], instance.K, instance.box)
        assert len(bounds) == 21
        assert float(bounds[0]) == 1.371920292992614
        assert _digest(bounds.tolist()) == "b6290c5a15c1dc60010c3effc548873a00cef280847979055dfa4046b287b81e"
        assert optimum == (3, 1, 3, 1, 3, 1, 3, 3, 1, 3, 0, 2, 2, 2, 2, 2, 2, 2, 0, 0)


class TestRunCsv:
    def test_round_trip_exact(self, tmp_path):
        import csv as csvmod

        instance = two_node_instance(seed=10)
        config = RunConfig(algorithm="btm", t_max=4)
        result = run(instance, config)
        path = tmp_path / "run.csv"
        write_run_csv(result.records, path, config.t_comm)
        with open(path, newline="") as fh:
            rows = list(csvmod.DictReader(fh))
        assert list(rows[0]) == ["t", "dual", "primal", "rel_dg_percent", "residual_norm",
                                 "t_update_s", "t_sub_max_s", "t_model_cum_s"]
        for row, record in zip(rows, result.records):
            # repr round-trip keeps doubles bit-exact
            assert float(row["dual"]) == record.dual_value
            assert float(row["primal"]) == record.primal_value
            assert float(row["rel_dg_percent"]) == record.rel_duality_gap


class TestCentralBaseline:
    def test_tiny_instance_matches_enumeration(self):
        instance = two_node_instance(seed=11, points=3)
        central = central_solve(instance)
        merged = NodeDataset(0, instance.merged_observations())
        sub = LagrangianSubproblem(data=merged, K=instance.K, box=instance.box,
                                   c=np.zeros((instance.K, instance.n_y)))
        brute = brute_force_subproblem(sub)
        assert central.solution.lagrangian_value == pytest.approx(
            brute.lagrangian_value, rel=1e-9)

    def test_trace_bounds_monotone(self):
        instance = two_node_instance(seed=12, points=3)
        central = central_solve(instance)
        assert isinstance(central, CentralResult)
        lbs = [lb for _, _, lb, _ in central.trace]
        ubs = [ub for _, ub, _, _ in central.trace]
        assert all(b <= a + 1e-12 for a, b in zip(lbs[1:], lbs))  # lb non-decreasing
        assert all(a <= b + 1e-12 for a, b in zip(ubs[1:], ubs))  # ub non-increasing
        assert central.trace[-1][3] <= 1e-7  # final gap closed

    def test_trace_bounds_monotone_in_chunked_search(self, monkeypatch):
        # The search loop returns to Python after every expanded node, so
        # the trace gets a row whenever the proven bound rises.
        import fedkmeans.subsolver as subsolver

        monkeypatch.setattr(subsolver, "_CHUNK", 1)
        instance = two_node_instance(seed=12, K=3, points=4)
        central = central_solve(instance)
        lbs = [lb for _, _, lb, _ in central.trace]
        ubs = [ub for _, ub, _, _ in central.trace]
        assert len(set(lbs)) > 2
        assert all(b <= a + 1e-12 for a, b in zip(lbs[1:], lbs))
        assert all(a <= b + 1e-12 for a, b in zip(ubs[1:], ubs))
        assert central.trace[-1][3] <= 1e-7

    def test_zero_time_budget_stops_with_a_proven_bound(self, seed0_grid):
        instance = read_instance(seed0_grid / "3N2D4K_1.json")
        with pytest.raises(NodeLimitExceeded, match="time budget of 0 s reached after") as err:
            central_solve(instance, time_budget=0)
        assert err.value.lower_bound < 5.0023  # the optimum is 5.00227259
        assert err.value.trace

    @pytest.mark.parametrize("cell", ["2N2D3K_1", "2N3D3K_1", "2N4D3K_1", "3N3D3K_1"])
    def test_weak_duality_on_grid_cells(self, seed0_grid, cell):
        # Against the proven central optimum of seed-0 grid cells: each
        # algorithm's best dual lies below it and its best primal above.
        # The optimum is the bound that the precompute on the merged data
        # proves, with a zero gap.
        instance = read_instance(seed0_grid / f"{cell}.json")
        central = central_solve(instance)
        optimum = central.solution.lagrangian_value
        merged = NodeDataset(0, instance.merged_observations())
        bound = float(suffix_lower_bounds(merged, instance.K, instance.box)[0][0])
        assert central.solution.proof_gap == 0.0
        assert central.trace[-1][2] == bound
        assert optimum == pytest.approx(bound, rel=1e-12)
        scale = max(abs(optimum), 1e-9)
        for algorithm in ALGORITHMS:
            result = run(instance, RunConfig(algorithm=algorithm, t_max=20))
            assert result.final_dual_value <= optimum + 1e-9 * scale
            assert optimum <= result.best_primal_value + 1e-9 * scale

    def test_sandwich(self):
        instance = two_node_instance(seed=13, points=3)
        central = central_solve(instance)
        result = run(instance, RunConfig(algorithm="btm", t_max=10))
        optimum = central.solution.lagrangian_value
        scale = max(abs(optimum), 1e-9)
        assert result.final_dual_value <= optimum + 1e-9 * scale
        assert optimum <= result.best_primal_value + 1e-9 * scale
