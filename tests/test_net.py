"""Tests for the framed wire protocol and the networked backend."""

import json
import socket
import threading

import numpy as np
import pytest

from fedkmeans.bench import generate_grid
from fedkmeans.cli import main
from fedkmeans.coordinator import NodeSession, RunConfig, run
from fedkmeans.core import BoundingBox, NodeDataset, ProblemInstance, read_instance, write_instance
from fedkmeans.net import (
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    NetworkError,
    NetworkedBackend,
    decode_frame,
    encode_frame,
    read_message,
    send_message,
    serve_node,
)


def make_instance(seed=0):
    rng = np.random.default_rng(seed)
    nodes = tuple(
        NodeDataset(node_id=i, observations=rng.normal(size=(6, 2)))
        for i in range(2)
    )
    box = BoundingBox.of_data([n.observations for n in nodes])
    return ProblemInstance(name="net", K=2, n_y=2, nodes=nodes, box=box)


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(node):
    """Serve one node on an ephemeral localhost port; returns its address and thread."""
    address = ("127.0.0.1", free_port())
    ready = threading.Event()
    thread = threading.Thread(target=serve_node, args=(node, address),
                              kwargs={"ready_event": ready}, daemon=True)
    thread.start()
    assert ready.wait(5.0)
    return address, thread


def start_servers(instance):
    """Serve each node of ``instance``; returns addresses and threads."""
    served = [start_server(node) for node in instance.nodes]
    return [a for a, _ in served], [t for _, t in served]


def start_fake_node(respond):
    """Accept one connection and answer each message with ``respond(message)``."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def loop():
        with server:
            conn, _ = server.accept()
            with conn:
                while True:
                    try:
                        message = read_message(conn)
                    except NetworkError:
                        return
                    reply = respond(message)
                    if reply is None:
                        return
                    send_message(conn, reply)

    threading.Thread(target=loop, daemon=True).start()
    return server.getsockname()


def honest_node(node):
    """``respond`` for :func:`start_fake_node` that answers as ``serve_node`` would."""
    state = {}

    def respond(message):
        reply = {"run_id": message["run_id"], "t": message["t"]}
        if message["kind"] == "HELLO":
            state["session"] = NodeSession.open(node, message["body"])
            reply.update(kind="HELLO", body={"node_id": node.node_id})
        elif message["kind"] == "SOLVE":
            solved = state["session"].solve(message["body"]["c"])
            reply.update(kind="SOLUTION", body={"centroids": solved.centroids.tolist(),
                                                "lagrangian_value": solved.lagrangian_value,
                                                "solve_time": solved.solve_time})
        elif message["kind"] == "AVERAGE":
            reply.update(kind="OBJECTIVE",
                         body={"z": state["session"].objective(message["body"]["mean_centroids"])})
        else:
            return None
        return reply

    return respond


def assert_run_matches_in_process(instance, addresses, config):
    local = run(instance, config)
    backend = NetworkedBackend(addresses=addresses, instance=instance, config=config)
    try:
        remote = run(instance, config, backend=backend)
    finally:
        backend.close()
    assert [r.numeric_key() for r in remote.records] == [r.numeric_key() for r in local.records]


class TestFrames:
    def test_round_trip_all_kinds(self):
        for kind in MESSAGE_KINDS:
            message = {"kind": kind, "run_id": "r", "t": 3, "body": {"x": [1.5, -2.0]}}
            assert decode_frame(encode_frame(message)) == message

    def test_length_prefix(self):
        frame = encode_frame({"kind": "HELLO", "body": {}})
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_oversize_frame_rejected(self):
        big = {"kind": "SOLVE", "body": {"x": "a" * (MAX_FRAME_BYTES + 1)}}
        with pytest.raises(NetworkError):
            encode_frame(big)

    def test_truncated_frame_rejected(self):
        frame = encode_frame({"kind": "HELLO", "body": {}})
        with pytest.raises(NetworkError):
            decode_frame(frame[:-1])
        with pytest.raises(NetworkError):
            decode_frame(b"\x00\x00")

    def test_bad_payload_rejected(self):
        # decode_frame checks a payload as read_message does.
        for payload in (b"{not json", b"\xff\xfe", b"[1, 2]", b'{"kind": "HELO", "body": {}}', b'{"body": {}}'):
            with pytest.raises(NetworkError, match="malformed|unknown message kind"):
                decode_frame(len(payload).to_bytes(4, "big") + payload)


class TestNetworkedRun:
    def test_matches_in_process_bit_exactly(self):
        instance = make_instance(seed=3)
        config = RunConfig(algorithm="qnda", t_max=5)
        local = run(instance, config)

        addresses, _ = start_servers(instance)
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

        # Privacy: the schema carries only derived quantities, never the raw
        # observation table.  (A singleton cluster's centroid can coincide with
        # one observation, so the check is structural, not value-based.)
        allowed_body_keys = {
            "HELLO": {"K", "n_y", "box", "max_nodes", "node_id"},
            "SOLVE": {"c"},
            "SOLUTION": {"centroids", "lagrangian_value", "solve_time"},
            "AVERAGE": {"mean_centroids"},
            "OBJECTIVE": {"z"},
            "TERMINATE": set(),
        }
        assert capture
        for _, message in capture:
            assert set(message["body"]) <= allowed_body_keys[message["kind"]]
        assert "observations" not in json.dumps([m for _, m in capture])

    def test_k4_grid_cell_matches_in_process(self, tmp_path):
        # Iteration 2 is one exact K=4 solve per node at nonzero duals, and the
        # nodes compute their suffix bounds during their first solve.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "2N2D4K_1.json")
        addresses, threads = start_servers(instance)
        assert_run_matches_in_process(instance, addresses, RunConfig(algorithm="sg", t_max=2))
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()

    def test_first_iteration_sends_every_solve_before_reading_a_reply(self, tmp_path):
        # Iteration 1 is one solve phase: the coordinator aligns the labels
        # itself, so no node waits for another node's reply.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "3N2D3K_1.json")
        addresses, _ = start_servers(instance)
        capture = []
        backend = NetworkedBackend(addresses=addresses, instance=instance,
                                   config=RunConfig(algorithm="sg", t_max=1), capture=capture)
        try:
            run(instance, backend.config, backend=backend)
        finally:
            backend.close()
        first = [(direction, m["kind"]) for direction, m in capture if m.get("t") == 1]
        assert first[:6] == [("send", "SOLVE")] * 3 + [("recv", "SOLUTION")] * 3

    def test_three_node_grid_cell_matches_in_process(self, tmp_path):
        # With three nodes, two replies are aligned to node 0's at t = 1.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "3N2D4K_1.json")
        addresses, threads = start_servers(instance)
        assert_run_matches_in_process(instance, addresses, RunConfig(algorithm="sg", t_max=2))
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()

    def test_runs_over_one_backend_match_in_process(self, tmp_path):
        # A node session keeps its last reply as the warm start of the next
        # iteration's solve; a second run over the same connections starts
        # again from t = 1 and must not pick up the first run's state.
        generate_grid(0, tmp_path)
        instance = read_instance(tmp_path / "2N2D3K_1.json")
        config = RunConfig(algorithm="qnda", t_max=12)
        local = [r.numeric_key() for r in run(instance, config).records]
        addresses, _ = start_servers(instance)
        backend = NetworkedBackend(addresses=addresses, instance=instance, config=config)
        try:
            for _ in range(2):
                remote = run(instance, config, backend=backend)
                assert [r.numeric_key() for r in remote.records] == local
        finally:
            backend.close()

    def test_dropped_connection_aborts(self):
        from fedkmeans.coordinator import RunAborted

        instance = make_instance(seed=4)
        config = RunConfig(algorithm="sg", t_max=10)
        addresses, _ = start_servers(instance)
        backend = NetworkedBackend(addresses=addresses, instance=instance, config=config)

        original = backend.solve_batch
        calls = {"n": 0}

        def failing(t, c_list, reference, node_indices):
            calls["n"] += 1
            if t >= 3:
                backend._socks[0].close()
            return original(t, c_list, reference, node_indices)

        backend.solve_batch = failing
        with pytest.raises(RunAborted) as err:
            run(instance, config, backend=backend)
        assert len(err.value.records) == 2
        backend.close()

    def test_protocol_violations_do_not_stop_the_node(self):
        instance = make_instance(seed=6)
        config = RunConfig(algorithm="qnda", t_max=4)
        addresses, threads = start_servers(instance)
        hello = NodeSession.hello_body(instance, config)
        bad_messages = [
            {"kind": "SOLVE", "run_id": "x", "t": 1, "body": {"c": [0.0] * 4}},
            {"kind": "AVERAGE", "run_id": "x", "t": 1, "body": {"mean_centroids": [[0.0, 0.0]] * 2}},
            {"kind": "SOLUTION", "run_id": "x", "t": 1, "body": {}},
            {"kind": "BOGUS", "run_id": "x", "t": 1, "body": {}},
            {"kind": "HELLO", "run_id": "x", "t": 0, "body": {**hello, "n_y": 3}},
            {"kind": "HELLO", "run_id": "x", "t": 0, "body": {**hello, "K": 1}},
            {"kind": "HELLO", "run_id": "x", "t": 0, "body": {**hello, "max_nodes": 0}},
        ]
        for message in bad_messages:
            with socket.create_connection(addresses[0], timeout=5.0) as sock:
                sock.sendall(encode_frame(message))
                reply = read_message(sock)
                assert reply["kind"] == "ERROR"
                assert reply["body"]["class"] == "internal"
                assert sock.recv(1) == b""  # the node dropped this connection
        assert threads[0].is_alive()
        assert_run_matches_in_process(instance, addresses, config)

    def test_malformed_solve_and_average_get_error_frames(self):
        # After a valid HELLO, a SOLVE with a non-finite dual term and an
        # AVERAGE whose centroids are not a finite (K, n_y) array get an
        # ERROR frame, not a SOLUTION or an OBJECTIVE; the node keeps serving.
        instance = make_instance(seed=6)
        config = RunConfig(algorithm="sg", t_max=3)
        addresses, threads = start_servers(instance)
        hello = NodeSession.hello_body(instance, config)
        bad_messages = [
            {"kind": "SOLVE", "body": {"c": [0.0, float("nan"), 0.0, 0.0]}},
            {"kind": "SOLVE", "body": {"c": [0.0, float("inf"), 0.0, 0.0]}},
            {"kind": "AVERAGE", "body": {"mean_centroids": [[0.0], [0.0]]}},
            {"kind": "AVERAGE", "body": {"mean_centroids": [[0.0, 0.0]]}},
            {"kind": "AVERAGE", "body": {"mean_centroids": [[0.0]]}},
            {"kind": "AVERAGE", "body": {"mean_centroids": [[float("nan"), 0.0]] * 2}},
        ]
        for message in bad_messages:
            with socket.create_connection(addresses[0], timeout=5.0) as sock:
                sock.sendall(encode_frame({"kind": "HELLO", "run_id": "x", "t": 0, "body": hello}))
                assert read_message(sock)["kind"] == "HELLO"
                sock.sendall(encode_frame({**message, "run_id": "x", "t": 1}))
                reply = read_message(sock)
                assert reply["kind"] == "ERROR"
                assert reply["body"]["class"] == "internal"
                assert reply["body"]["error"].startswith("ValueError")
        assert threads[0].is_alive()
        assert_run_matches_in_process(instance, addresses, config)

    @pytest.mark.parametrize("kind, field, value", [
        ("SOLUTION", "t", 2), ("SOLUTION", "run_id", "old"),
        ("OBJECTIVE", "t", 0), ("OBJECTIVE", "run_id", "old"),
    ])
    def test_stale_reply_rejected(self, kind, field, value):
        instance = make_instance(seed=7)
        config = RunConfig(algorithm="sg", t_max=3)
        honest = honest_node(instance.nodes[1])

        def respond(message):
            reply = honest(message)
            if reply is not None and reply["kind"] == kind:
                reply[field] = value
            return reply

        addresses = [start_server(instance.nodes[0])[0], start_fake_node(respond)]
        backend = NetworkedBackend(addresses=addresses, instance=instance, config=config)
        try:
            c_list = [np.zeros(4), np.zeros(4)]
            if kind == "SOLUTION":
                with pytest.raises(NetworkError, match="expected run 'run' t=1"):
                    backend.solve_batch(1, c_list, None, [0, 1])
            else:
                replies = backend.solve_batch(1, c_list, None, [0, 1])
                mean = np.mean([r.centroids for r in replies], axis=0)
                with pytest.raises(NetworkError, match="expected run 'run' t=1"):
                    backend.objective_batch(1, mean)
        finally:
            backend.close()

    @pytest.mark.parametrize("kind, spoil", [
        ("SOLUTION", lambda body: {**body, "centroids": body["centroids"][:1]}),
        ("SOLUTION", lambda body: {k: v for k, v in body.items() if k != "centroids"}),
        ("SOLUTION", lambda body: {**body, "lagrangian_value": float("nan")}),
        ("SOLUTION", lambda body: {**body, "solve_time": None}),
        ("OBJECTIVE", lambda body: {"z": str(body["z"])}),
    ], ids=["one-centroid-row", "no-centroids", "nan-value", "no-solve-time", "string-z"])
    def test_malformed_reply_is_a_network_failure(self, tmp_path, capsys, kind, spoil):
        # Node 1 answers iteration 2 with a malformed body: run-remote exits 4
        # with the record of iteration 1 in its CSV, as for a dropped node.
        instance = make_instance(seed=7)
        write_instance(instance, tmp_path / "inst.json")
        honest = honest_node(instance.nodes[1])

        def respond(message):
            reply = honest(message)
            if reply is not None and reply["kind"] == kind and reply["t"] == 2:
                reply["body"] = spoil(reply["body"])
            return reply

        addresses = [start_server(instance.nodes[0])[0], start_fake_node(respond)]
        code = main(["run-remote", "--instance", str(tmp_path / "inst.json"),
                     "--nodes", *(f"{host}:{port}" for host, port in addresses),
                     "--algorithm", "sg", "--t-max", "3", "--csv", str(tmp_path / "run.csv")])
        assert code == 4
        assert "node 1:" in capsys.readouterr().err
        assert (tmp_path / "run.csv").read_text().count("\n") == 2  # header and iteration 1

    def test_connect_failure(self):
        instance = make_instance(seed=5)
        with pytest.raises(NetworkError):
            NetworkedBackend(addresses=[("127.0.0.1", 9), ("127.0.0.1", 9)],
                             instance=instance,
                             config=RunConfig(algorithm="sg"), timeout=0.5)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), 1e300])
    def test_bad_timeout_rejected_before_connecting(self, timeout):
        # socket.settimeout refuses 1e300 with OverflowError.
        instance = make_instance(seed=5)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()
            with pytest.raises(ValueError, match="timeout must be positive"):
                NetworkedBackend(addresses=[address, address], instance=instance,
                                 config=RunConfig(algorithm="sg"), timeout=timeout)
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # no connection was attempted
