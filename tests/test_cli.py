"""Tests for the command-line surface: exit codes, outputs, and reports."""

import csv
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from fedkmeans.cli import main
from fedkmeans.core import read_instance
from fedkmeans.net import serve_node


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    code = main(["generate", "--n-nodes", "2", "--n-y", "2", "--K", "2",
                 "--seed", "9", "--radius", "0.15", "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_single_instance(self, tmp_path):
        out = tmp_path / "one.json"
        code = main(["generate", "--n-nodes", "2", "--n-y", "2", "--K", "3",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        raw = json.loads(out.read_text())
        assert raw["name"] == "2N2D3K_1"

    def test_missing_dimensions_is_argument_error(self, tmp_path):
        code = main(["generate", "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_unknown_flag_is_argument_error(self):
        assert main(["generate", "--bogus"]) == 2

    def test_grid(self, tmp_path):
        code = main(["generate", "--grid", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 90
        assert (tmp_path / "manifest.csv").exists()


class TestRun:
    def test_run_writes_csv_and_meta(self, instance_file, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["run", "--instance", str(instance_file), "--algorithm", "qnda",
                     "--t-max", "50", "--csv", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and list(rows[0]) == ["t", "dual", "primal", "rel_dg_percent",
                                          "residual_norm", "t_update_s",
                                          "t_sub_max_s", "t_model_cum_s"]
        meta = json.loads((Path(str(out) + ".meta.json")).read_text())
        assert meta["instance"] == "2N2D2K_1"
        assert meta["algorithm"] == "qnda"
        assert meta["iterations"] == len(rows)
        assert meta["qnda_fallbacks"] == 0
        # The certified gap uses the best dual and the best primal of the run,
        # so it is never wider than the last iteration's gap.
        best_dual = max(float(r["dual"]) for r in rows)
        best_primal = min(float(r["primal"]) for r in rows)
        assert meta["certified_gap_percent"] == 100.0 * (1.0 - best_dual / best_primal)
        assert meta["certified_gap_percent"] <= meta["rel_dg_percent"]
        assert f"certified gap {meta['certified_gap_percent']:.4f} %" in capsys.readouterr().out

    def test_zero_cost_data_certified_at_once(self, tmp_path):
        # Each node holds the points 0 and 1, so with K = 2 the optimum costs
        # 0: the first iteration proves it, and the gap of a zero primal with
        # a zero dual is 0.
        instance = tmp_path / "zero.json"
        nodes = [{"node_id": i, "observations": [[0.0], [1.0]]} for i in range(2)]
        instance.write_text(json.dumps({"name": "zero", "K": 2, "n_y": 1, "nodes": nodes,
                                        "box": {"lo": [0.0], "hi": [1.0]}}))
        out = tmp_path / "run.csv"
        assert main(["run", "--instance", str(instance), "--csv", str(out)]) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["iterations"] == 1
        assert meta["certified_gap_percent"] == 0.0

    def test_missing_instance_is_argument_error(self, tmp_path):
        code = main(["run", "--instance", str(tmp_path / "nope.json"),
                     "--csv", str(tmp_path / "out.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--max-nodes", "0"), ("--rel-tol", "-1")])
    def test_bad_solver_setting_is_argument_error(self, instance_file, tmp_path, capsys, flag, value):
        code = main(["run", "--instance", str(instance_file), flag, value,
                     "--csv", str(tmp_path / "out.csv")])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["run", "run-remote"])
    def test_missing_csv_directory_checked_before_solving(self, instance_file, tmp_path, capsys,
                                                          monkeypatch, command):
        # A solve or a node connection would fail this test.
        import fedkmeans.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("solved or contacted a node before checking --csv")

        class NeverConnects(cli.NetworkedBackend):
            __init__ = never

        monkeypatch.setattr(cli, "run", never)
        monkeypatch.setattr(cli, "NetworkedBackend", NeverConnects)
        nodes = ["--nodes", "127.0.0.1:9", "127.0.0.1:9"] if command == "run-remote" else []
        code = main([command, "--instance", str(instance_file), *nodes,
                     "--csv", str(tmp_path / "missing" / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: --csv directory") and "missing" in err
        assert not (tmp_path / "missing").exists()

    def test_solver_failure_exit_code(self, instance_file, tmp_path):
        # An absurdly small branch-and-bound budget forces an inexact solve.
        code = main(["run", "--instance", str(instance_file), "--max-nodes", "2",
                     "--csv", str(tmp_path / "out.csv")])
        assert code == 3

    def test_master_solver_failure_exit_code(self, instance_file, tmp_path, monkeypatch):
        import fedkmeans.coordinator as coordinator
        from fedkmeans.master import TrustRegionSolverError

        def failing(*args, **kwargs):
            raise TrustRegionSolverError("forced")

        monkeypatch.setattr(coordinator, "btm_direction", failing)
        code = main(["run", "--instance", str(instance_file), "--algorithm", "btm",
                     "--csv", str(tmp_path / "out.csv")])
        assert code == 3


class TestCentral:
    def test_trace_csv(self, instance_file, tmp_path):
        out = tmp_path / "central.csv"
        code = main(["central", "--instance", str(instance_file), "--csv", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["wall_s", "incumbent", "lower_bound", "rel_gap_percent"]
        assert float(rows[-1]["rel_gap_percent"]) <= 1e-6

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "2"), ("--rel-tol", "-1"),
                                             ("--max-nodes", "0"), ("--time-budget", "-1")])
    def test_bad_setting_is_argument_error(self, instance_file, tmp_path, capsys, flag, value):
        code = main(["central", "--instance", str(instance_file), flag, value,
                     "--csv", str(tmp_path / "out.csv")])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_missing_csv_directory_checked_before_solving(self, instance_file, tmp_path, capsys,
                                                          monkeypatch):
        import fedkmeans.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("solved before checking --csv")

        monkeypatch.setattr(cli, "central_solve", never)
        code = main(["central", "--instance", str(instance_file),
                     "--csv", str(tmp_path / "missing" / "central.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("central: --csv directory")

    def test_node_limit_is_solver_failure(self, instance_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["central", "--instance", str(instance_file), "--max-nodes", "1",
                     "--csv", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("central: node limit reached after ")
        assert err.count("\n") == 1
        # The trace keeps the rows reached before the cap.
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["wall_s", "incumbent", "lower_bound", "rel_gap_percent"]
        assert all(float(row["lower_bound"]) <= float(row["incumbent"]) for row in rows)


class TestRemote:
    def test_node_and_run_remote(self, instance_file, tmp_path):
        ports = []
        for _ in range(2):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                ports.append(probe.getsockname()[1])
        servers = [
            subprocess.Popen([sys.executable, "-m", "fedkmeans.cli", "node",
                              "--instance", str(instance_file),
                              "--node-id", str(i), "--bind", f"127.0.0.1:{port}"])
            for i, port in enumerate(ports)
        ]
        try:
            for port in ports:  # wait for both listeners
                deadline = time.time() + 10
                while time.time() < deadline:
                    try:
                        socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                        break
                    except OSError:
                        time.sleep(0.05)
            remote_csv = tmp_path / "remote.csv"
            code = main(["run-remote", "--instance", str(instance_file),
                         "--nodes", f"127.0.0.1:{ports[0]}", f"127.0.0.1:{ports[1]}",
                         "--algorithm", "btm", "--t-max", "25",
                         "--csv", str(remote_csv)])
            assert code == 0
            local_csv = tmp_path / "local.csv"
            assert main(["run", "--instance", str(instance_file),
                         "--algorithm", "btm", "--t-max", "25",
                         "--csv", str(local_csv)]) == 0
            with open(remote_csv, newline="") as fh:
                remote_rows = list(csv.DictReader(fh))
            with open(local_csv, newline="") as fh:
                local_rows = list(csv.DictReader(fh))
            for a, b in zip(remote_rows, local_rows):
                for field in ("t", "dual", "primal", "rel_dg_percent", "residual_norm"):
                    assert a[field] == b[field]
        finally:
            for server in servers:
                server.terminate()
            for server in servers:
                server.wait(timeout=10)

    @staticmethod
    def serve_threaded(instance_file):
        """Serve every node of the instance from a thread; returns ports and threads."""
        ports, threads = [], []
        for node in read_instance(instance_file).nodes:
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                ports.append(probe.getsockname()[1])
            ready = threading.Event()
            threads.append(threading.Thread(target=serve_node, args=(node, ("127.0.0.1", ports[-1])),
                                            kwargs={"ready_event": ready}, daemon=True))
            threads[-1].start()
            assert ready.wait(5.0)
        return ports, threads

    def test_remote_solver_failure_exit_code(self, instance_file, tmp_path, capsys):
        # A node that cannot solve exactly fails the run as a solver failure,
        # exactly as the same limit does in process.  The node that reported
        # the failure stays connected, so the TERMINATE sent when the run
        # aborts reaches it as well and every node stops.
        args = ["--max-nodes", "5", "--t-max", "3", "--csv", str(tmp_path / "out.csv")]
        assert main(["run", "--instance", str(instance_file), *args]) == 3
        ports, threads = self.serve_threaded(instance_file)
        capsys.readouterr()
        code = main(["run-remote", "--instance", str(instance_file),
                     "--nodes", *(f"127.0.0.1:{port}" for port in ports), *args])
        assert code == 3
        assert "exact subproblem solve failed: node " in capsys.readouterr().err
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()

    def test_network_failure_exit_code(self, instance_file, tmp_path):
        code = main(["run-remote", "--instance", str(instance_file),
                     "--nodes", "127.0.0.1:9", "127.0.0.1:9",
                     "--timeout", "0.5", "--csv", str(tmp_path / "x.csv")])
        assert code == 4

    def test_bad_solver_setting_checked_before_connecting(self, instance_file, tmp_path, capsys):
        # Nobody listens at these addresses: a connection attempt would exit 4.
        code = main(["run-remote", "--instance", str(instance_file),
                     "--nodes", "127.0.0.1:9", "127.0.0.1:9", "--max-nodes", "0",
                     "--timeout", "0.5", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "max_nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf", "nan", "1e300"])
    def test_bad_timeout_checked_before_connecting(self, instance_file, tmp_path, capsys, timeout):
        # Nobody listens at these addresses: a connection attempt would exit 4.
        code = main(["run-remote", "--instance", str(instance_file),
                     "--nodes", "127.0.0.1:9", "127.0.0.1:9",
                     "--timeout", timeout, "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "timeout must be positive" in capsys.readouterr().err

    def test_address_count_checked(self, instance_file, tmp_path):
        code = main(["run-remote", "--instance", str(instance_file),
                     "--nodes", "127.0.0.1:9", "--csv", str(tmp_path / "x.csv")])
        assert code == 2


class TestReport:
    def test_grouping_and_means(self, instance_file, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        for alg, iters in (("sg", 10), ("btm", 6), ("qnda", 4)):
            for rep in (1, 2):
                meta = {
                    "instance": f"2N2D2K_{rep}", "algorithm": alg,
                    "n_nodes": 2, "n_y": 2, "K": 2,
                    "iterations": iters + rep, "termination": "max_iter",
                    "rel_dg_percent": 1.0 * rep, "certified_gap_percent": 0.5 * rep,
                    "modeled_t_comp_s": 8.0 * rep,
                    "best_primal": 1.0, "final_dual": 0.9,
                }
                (runs / f"{alg}_{rep}.csv.meta.json").write_text(json.dumps(meta))
        out = tmp_path / "summary.csv"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {(r["group"], r["algorithm"]): r for r in csv.DictReader(fh)}
        assert set(rows) == {("2N2D2K", a) for a in ("sg", "btm", "qnda")}
        assert float(rows[("2N2D2K", "qnda")]["mean_iterations"]) == pytest.approx(5.5)
        assert float(rows[("2N2D2K", "sg")]["mean_t_comp_s"]) == pytest.approx(12.0)
        assert float(rows[("2N2D2K", "btm")]["mean_certified_gap_percent"]) == pytest.approx(0.75)

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"instance": "2N2D2K_1", "algorithm": "sg", "iterations": 3,
                     "termination": "max_iter", "rel_dg_percent": 1.0, "modeled_t_comp_s": 2.4}),
         "missing field(s) certified_gap_percent"),
        ("[1, 2]", "not a JSON object"),
        ("{", "not valid JSON"),
    ])
    def test_malformed_meta_is_argument_error(self, tmp_path, capsys, text, message):
        runs = tmp_path / "runs"
        runs.mkdir()
        meta = runs / "sg_1.csv.meta.json"
        meta.write_text(text)
        code = main(["report", "--runs", str(runs), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"report: {meta}: {message}")
        assert not (tmp_path / "s.csv").exists()

    def test_empty_dir_is_argument_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["report", "--runs", str(empty), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert not (tmp_path / "s.csv").exists()

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main_argv = ["run", "--help"]
            import fedkmeans.cli as climod
            climod.build_parser().parse_args(main_argv)
        text = capsys.readouterr().out
        for token in ("0.5", "150", "0.25", "50", "qnda"):
            assert token in text

    @pytest.mark.parametrize("argv", [
        ["run", "--instance", "i.json", "--csv", "r.csv"],
        ["run-remote", "--instance", "i.json", "--nodes", "h:1", "--csv", "r.csv"],
    ])
    def test_flag_defaults_are_run_config_defaults(self, argv):
        import fedkmeans.cli as climod
        from fedkmeans.coordinator import RunConfig

        args = climod.build_parser().parse_args(argv)
        assert climod._config_from_args(args) == RunConfig()
