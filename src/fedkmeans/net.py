"""Networked execution: node service and coordinator-side backend.

Wire protocol: each frame is a 4-byte big-endian length prefix followed by a
UTF-8 JSON payload (at most 16 MiB).  Within an iteration the message order is
SOLVE -> SOLUTION -> AVERAGE -> OBJECTIVE; a HELLO exchange opens a run and
TERMINATE closes it.  Raw observation coordinates never cross the wire: a node
receives only its dual coefficients and the averaged centroids, never another
node's centroids, and it replies with centroids, Lagrangian values, and
objective values.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .coordinator import NodeSession, NodeSolveFailed, NodeSolveReply
from .subsolver import NodeLimitExceeded

__all__ = [
    "MAX_FRAME_BYTES",
    "MESSAGE_KINDS",
    "NetworkError",
    "NetworkedBackend",
    "decode_frame",
    "encode_frame",
    "serve_node",
]

MAX_FRAME_BYTES = 16 * 1024 * 1024
MESSAGE_KINDS = ("HELLO", "SOLVE", "SOLUTION", "AVERAGE", "OBJECTIVE", "TERMINATE", "ERROR")


class NetworkError(RuntimeError):
    pass


def encode_frame(message: dict) -> bytes:
    payload = json.dumps(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise NetworkError(f"frame of {len(payload)} bytes exceeds the 16 MiB limit")
    return struct.pack(">I", len(payload)) + payload


def decode_frame(data: bytes) -> dict:
    if len(data) < 4:
        raise NetworkError("truncated frame header")
    if len(data) != 4 + _payload_length(data[:4]):
        raise NetworkError("frame length prefix does not match payload size")
    return _decode_payload(data[4:])


def _payload_length(header: bytes) -> int:
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise NetworkError(f"declared frame length {length} exceeds the 16 MiB limit")
    return length


def _decode_payload(payload: bytes) -> dict:
    """The message in a frame's payload; NetworkError unless it is a JSON
    object of a known kind."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise NetworkError(f"malformed frame payload: {exc}") from exc
    kind = message.get("kind") if isinstance(message, dict) else None
    if kind not in MESSAGE_KINDS:
        raise NetworkError(f"unknown message kind {kind!r}")
    return message


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise NetworkError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket) -> dict:
    return _decode_payload(_recv_exact(sock, _payload_length(_recv_exact(sock, 4))))


def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


# -------------------------------- node side ---------------------------------


def serve_node(dataset, bind_address: tuple[str, int], *, ready_event=None) -> None:
    """Serve one node's solve/objective steps until a TERMINATE message.

    ``dataset`` is a :class:`fedkmeans.core.NodeDataset`; problem metadata
    (K, box, solver settings) arrives in the HELLO message and opens a
    :class:`fedkmeans.coordinator.NodeSession`.  Requests on a connection are
    handled sequentially.  A solve that cannot be proven optimal gets an
    ERROR frame and the connection stays open, so the node still receives
    the TERMINATE that ends the aborted run.  A connection that breaks the
    protocol gets an ERROR frame and is dropped; the node then waits for the
    next coordinator.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(bind_address)
        server.listen(1)
        if ready_event is not None:
            ready_event.set()
        while True:
            conn, _ = server.accept()
            with conn:
                if _serve_connection(conn, dataset):
                    return


def _serve_connection(conn: socket.socket, dataset) -> bool:
    """Handle one coordinator connection; True once TERMINATE was received."""
    session = run_id = None
    while True:
        try:
            message = read_message(conn)
        except NetworkError as exc:
            _send_error(conn, run_id, None, exc)  # the peer may be gone already
            return False
        kind = message["kind"]
        if kind == "TERMINATE":
            return True
        try:
            body = message.get("body") or {}
            if kind == "HELLO":
                session = NodeSession.open(dataset, body)
                run_id = message.get("run_id")
                reply = {"kind": "HELLO", "body": {"node_id": dataset.node_id}}
            elif session is None:
                raise NetworkError(f"{kind} before HELLO")
            elif kind == "SOLVE":
                solved = session.solve(body["c"])
                reply = {"kind": "SOLUTION", "body": {
                    "centroids": solved.centroids.tolist(),
                    "lagrangian_value": solved.lagrangian_value,
                    "solve_time": solved.solve_time,
                }}
            elif kind == "AVERAGE":
                reply = {"kind": "OBJECTIVE", "body": {"z": session.objective(body["mean_centroids"])}}
            else:
                raise NetworkError(f"unexpected message kind {kind!r}")
            send_message(conn, {**reply, "run_id": run_id, "t": message.get("t")})
        except NodeLimitExceeded as exc:
            # The request was read and answered in full, so the connection is
            # still in sync: keep it for the TERMINATE that ends the run.
            _send_error(conn, message.get("run_id"), message.get("t"), exc)
        except Exception as exc:
            _send_error(conn, message.get("run_id"), message.get("t"), exc)
            return False


def _send_error(conn: socket.socket, run_id, t, exc: Exception) -> None:
    """Best-effort ERROR frame, of class "solver" for an inexact solve, else "internal"."""
    if isinstance(exc, NodeLimitExceeded):
        body = {"error": str(exc), "class": "solver"}
    else:
        body = {"error": f"{type(exc).__name__}: {exc}", "class": "internal"}
    try:
        send_message(conn, {"kind": "ERROR", "run_id": run_id, "t": t, "body": body})
    except (OSError, NetworkError):
        pass


# ----------------------------- coordinator side ------------------------------


@dataclass
class NetworkedBackend:
    """Coordinator-side backend speaking the framed protocol to remote nodes.

    Drop-in replacement for the in-process backend in
    :func:`fedkmeans.coordinator.run`.  ``timeout`` is the per-message
    timeout in seconds.  It must be positive, finite and small enough for
    ``socket.settimeout`` (about 9.2e9 s on a 64-bit platform); ValueError
    otherwise, before any node is contacted.  ``capture``, when given a
    list, records every (direction, payload) pair for traffic inspection.
    """

    addresses: list[tuple[str, int]]
    instance: "object"
    config: "object"
    run_id: str = "run"
    timeout: float = 60.0
    capture: list | None = None

    def __post_init__(self):
        self._socks = []
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")
        try:
            with socket.socket() as unconnected:
                unconnected.settimeout(self.timeout)
        except OverflowError:
            raise ValueError(f"timeout must be positive and small enough for a socket, got {self.timeout}") from None
        try:
            for host, port in self.addresses:
                sock = socket.create_connection((host, port), timeout=self.timeout)
                sock.settimeout(self.timeout)
                self._socks.append(sock)
            hello = {"kind": "HELLO", "run_id": self.run_id, "t": 0,
                     "body": NodeSession.hello_body(self.instance, self.config)}
            for i in range(len(self._socks)):
                self._send(i, hello)
                self._recv(i, "HELLO", 0)
        except OSError as exc:
            self.close()
            raise NetworkError(f"connecting to nodes failed: {exc}") from exc
        except NetworkError:
            self.close()
            raise

    def _send(self, i: int, message: dict) -> None:
        if self.capture is not None:
            self.capture.append(("send", message))
        try:
            send_message(self._socks[i], message)
        except OSError as exc:
            raise NetworkError(f"node {i}: send failed: {exc}") from exc

    def _recv(self, i: int, kind: str, t: int) -> dict:
        """Node i's next message; it must be ``kind`` for this run and iteration ``t``."""
        try:
            message = read_message(self._socks[i])
        except OSError as exc:
            raise NetworkError(f"node {i}: receive failed or timed out: {exc}") from exc
        if self.capture is not None:
            self.capture.append(("recv", message))
        if message["kind"] == "ERROR":
            body = message.get("body") or {}
            if body.get("class") == "solver":
                raise NodeSolveFailed(f"node {i}: {body.get('error')}")
            raise NetworkError(f"node {i} reported: {body.get('error')}")
        if message["kind"] != kind:
            raise NetworkError(f"node {i}: expected {kind}, got {message['kind']}")
        if message.get("run_id") != self.run_id or message.get("t") != t:
            raise NetworkError(f"node {i}: {kind} for run {message.get('run_id')!r} t={message.get('t')!r}, "
                               f"expected run {self.run_id!r} t={t}")
        return message

    # run() passes no reference and every node index; perfbench's TracedBackend forwards all four.
    def solve_batch(self, t, c_list, reference, node_indices) -> list[NodeSolveReply]:
        for i in node_indices:
            self._send(i, {"kind": "SOLVE", "run_id": self.run_id, "t": t,
                           "body": {"c": np.asarray(c_list[i]).tolist()}})
        replies = []
        for i in node_indices:  # gather preserves node-index order
            body = self._recv(i, "SOLUTION", t)["body"]
            replies.append(NodeSolveReply(
                centroids=np.array(body["centroids"], dtype=float),
                lagrangian_value=float(body["lagrangian_value"]),
                solve_time=float(body["solve_time"]),
            ))
        return replies

    def objective_batch(self, t, mean_centroids) -> list[float]:
        payload = {"kind": "AVERAGE", "run_id": self.run_id, "t": t,
                   "body": {"mean_centroids": np.asarray(mean_centroids).tolist()}}
        for i in range(len(self._socks)):
            self._send(i, payload)
        return [float(self._recv(i, "OBJECTIVE", t)["body"]["z"]) for i in range(len(self._socks))]

    def close(self):
        for i, sock in enumerate(self._socks):
            try:
                send_message(sock, {"kind": "TERMINATE", "run_id": self.run_id, "t": -1, "body": {}})
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._socks = []
