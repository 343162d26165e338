"""Tests for the run loop, averaging heuristic, time model, and central baseline."""

import json

import numpy as np
import pytest

from fedkmeans.bench import BenchmarkSpec, generate_grid, generate_instance
from fedkmeans.coordinator import (
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
from fedkmeans.subsolver import brute_force_subproblem, LagrangianSubproblem, solve_subproblem


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
        # Label alignment at iteration 1 permutes each node's optimum under
        # zero duals, so every node still reports its exact minimum.
        instance = generate_instance(BenchmarkSpec(n_nodes=3, n_y=2, K=K, replicate=1, seed=0))
        record = run(instance, RunConfig(algorithm="sg", t_max=1)).records[0]
        for node, value in zip(instance.nodes, record.node_lagrangians, strict=True):
            sub = LagrangianSubproblem(data=node, K=K, box=instance.box, c=np.zeros((K, instance.n_y)))
            assert value == pytest.approx(solve_subproblem(sub).lagrangian_value, rel=1e-12, abs=0)


class TestNodeSession:
    def test_hello_body_round_trip(self):
        instance = two_node_instance(seed=5)
        config = RunConfig(rel_tol=1e-7, max_nodes=1234)
        body = NodeSession.hello_body(instance, config)
        assert set(body) == {"K", "n_y", "box", "rel_tol", "max_nodes"}
        session = NodeSession.open(instance.nodes[1], json.loads(json.dumps(body)))
        assert session.data is instance.nodes[1]
        assert (session.K, session.rel_tol, session.max_nodes) == (instance.K, 1e-7, 1234)
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
        reply = session.solve(c.ravel(), None)
        sub = LagrangianSubproblem(data=session.data, K=2, box=instance.box, c=c)
        assert reply.lagrangian_value == pytest.approx(brute_force_subproblem(sub).lagrangian_value, abs=1e-9)
        Y = session.data.observations
        expected = sum(min(float(np.sum((y - m) ** 2)) for m in reply.centroids) for y in Y)
        assert session.objective(reply.centroids) == pytest.approx(expected)

    def test_solve_refuses_reference_under_unequal_dual_terms(self):
        instance = two_node_instance(seed=6)
        session = InProcessBackend(instance, RunConfig()).sessions[1]
        reference = session.solve(np.zeros(4), None).centroids
        with pytest.raises(ValueError, match="same dual term"):
            session.solve([0.3, -0.1, 0.0, 0.2], reference)

    def test_suffix_bounds_computed_once(self, monkeypatch):
        # One branching order per session: the suffix bounds and every
        # solve use it.
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
            reply = session.solve(scale * c.ravel(), None)
            sub = LagrangianSubproblem(data=session.data, K=3, box=instance.box, c=scale * c)
            assert reply.lagrangian_value == pytest.approx(brute_force_subproblem(sub).lagrangian_value, abs=1e-9)
        assert len(calls["order"]) == 1 and len(calls["bounds"]) == 1 and len(calls["solve"]) == 4
        order = calls["order"][0]
        assert calls["bounds"][0]["order"] is order
        assert all(kwargs["order"] is order for kwargs in calls["solve"])

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
            replies.append([session.solve(np.zeros(instance.K * instance.n_y), None),
                            session.solve(apply_coupling_adjoint(topology, node, lam), None)])
        for a, b in zip(*replies):
            assert a.lagrangian_value == b.lagrangian_value
            np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_suffix_bounds_ignore_rel_tol(self):
        # The suffix searches run to a zero gap whatever the run's rel_tol,
        # so a loose tolerance cannot push an entry above its suffix optimum
        # nor change the K-means optimum that the last search proves.
        instance = two_node_instance(seed=6, K=3)
        tight, loose = (InProcessBackend(instance, RunConfig(rel_tol=tol)).sessions[0]
                        for tol in (1e-9, 0.3))
        np.testing.assert_array_equal(tight.suffix[0], loose.suffix[0])
        assert tight.suffix[1] == loose.suffix[1]

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
            NodeSession.open(node, body).solve(np.zeros(instance.K * instance.n_y), None)
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
        first, _, again = (session.solve(c, None) for c in (c1, c2, c1))
        fresh = NodeSession.open(instance.nodes[1], body).solve(c1, None)
        for reply in (again, fresh):
            assert reply.lagrangian_value == first.lagrangian_value
            np.testing.assert_array_equal(reply.centroids, first.centroids)


def record_solves(monkeypatch):
    """Log each node solve's nodes explored and its Lloyd and batched-switch calls."""
    import fedkmeans.coordinator as coordinator
    import fedkmeans.subsolver as subsolver

    log, counts = [], {"lloyd": 0, "switch": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(subsolver, "lloyd_incumbent", counted("lloyd", subsolver.lloyd_incumbent))
    monkeypatch.setattr(subsolver, "_best_first_batched", counted("switch", subsolver._best_first_batched))
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
    def test_lloyd_runs_once_per_solve(self, monkeypatch, tmp_path, cell, t_max):
        # Every solve starts from one Lloyd descent, whether its search stays
        # scalar, as the small K=3 searches do, or switches to batches, as
        # some of the K=4 grid cell's do.
        if cell is None:
            instance = two_node_instance(seed=6, K=3, points=2)
        else:
            generate_grid(0, tmp_path)
            instance = read_instance(tmp_path / f"{cell}.json")
        log = record_solves(monkeypatch)
        run(instance, RunConfig(algorithm="sg", t_max=t_max))
        assert len(log) == t_max * instance.n_nodes
        assert all(entry["lloyd"] == 1 for entry in log)
        switched = sum(entry["switch"] for entry in log)
        assert switched == 0 if cell is None else switched > 0


class TestSearchSize:
    def test_k4_grid_cells_explore_few_nodes(self, monkeypatch, tmp_path):
        # The K=4 cells of the seed-0 grid, SG for two iterations, explore
        # 13,148 nodes in all with the farthest-first branching order, the
        # Lloyd start taken from it and each node's K-means optimum as a
        # second start (24,217 from Lloyd alone; 267,303 in decreasing
        # distance from the data mean).  The counts are deterministic, so
        # this bound, about twice the count, catches a regression in the
        # order, the starts or the bounds.
        log = record_solves(monkeypatch)
        generate_grid(0, tmp_path)
        for cell in ("2N2D4K_1", "3N2D4K_1", "4N2D4K_1"):
            run(read_instance(tmp_path / f"{cell}.json"), RunConfig(algorithm="sg", t_max=2))
        assert len(log) == 18
        assert sum(entry["explored"] for entry in log) <= 26_000


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

    def test_trace_bounds_monotone_in_batched_search(self, monkeypatch):
        import fedkmeans.subsolver as subsolver

        for name, value in (("_BATCH_AT", 1), ("_BATCH", 3), ("_FRONT", 4)):
            monkeypatch.setattr(subsolver, name, value)
        instance = two_node_instance(seed=12, K=3, points=4)
        central = central_solve(instance)
        lbs = [lb for _, _, lb, _ in central.trace]
        ubs = [ub for _, ub, _, _ in central.trace]
        assert len(set(lbs)) > 2
        assert all(b <= a + 1e-12 for a, b in zip(lbs[1:], lbs))
        assert all(a <= b + 1e-12 for a, b in zip(ubs[1:], ubs))
        assert central.trace[-1][3] <= 1e-7

    def test_sandwich(self):
        instance = two_node_instance(seed=13, points=3)
        central = central_solve(instance)
        result = run(instance, RunConfig(algorithm="btm", t_max=10))
        optimum = central.solution.lagrangian_value
        scale = max(abs(optimum), 1e-9)
        assert result.final_dual_value <= optimum + 1e-9 * scale
        assert optimum <= result.best_primal_value + 1e-9 * scale
