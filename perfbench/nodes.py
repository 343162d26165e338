"""Start, wait for and stop ``fedkmeans node`` processes on localhost."""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

NODE_MAIN = Path(__file__).resolve().parent / "node_main.py"
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


class NodeStartError(RuntimeError):
    pass


def _die_with_parent() -> None:
    """Ask Linux to kill the node if the benchmark process dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    PR_SET_PDEATHSIG = 1
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class NodeProcess:
    """One ``fedkmeans node`` child; stderr goes to a file for failure reports."""

    def __init__(self, instance_path: Path, node_id: int, workdir: Path, env: dict,
                 trace_out: Path | None):
        self.node_id = node_id
        self.port = _free_port()
        self.stderr_path = workdir / f"node{node_id}-{self.port}.stderr"
        self.trace_out = trace_out
        argv = [sys.executable, str(NODE_MAIN), "--trace-out", str(trace_out or ""),
                "node", "--instance", str(instance_path), "--node-id", str(node_id),
                "--bind", f"127.0.0.1:{self.port}"]
        self._stderr = open(self.stderr_path, "wb")
        try:
            self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=self._stderr,
                                         preexec_fn=_die_with_parent)
        except BaseException:
            self._stderr.close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def wait_ready(self, deadline: float) -> None:
        """Block until the node accepts connections.

        A probe connection that closes without a frame is dropped by the node,
        which then waits for the next coordinator.
        """
        while True:
            if self.proc.poll() is not None:
                raise NodeStartError(f"node {self.node_id} exited with code {self.proc.returncode} "
                                     f"before listening: {self.stderr_tail()}")
            try:
                with socket.create_connection(self.address, timeout=1.0):
                    return
            except OSError:
                if time.perf_counter() > deadline:
                    raise NodeStartError(f"node {self.node_id} not ready on port {self.port}")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """VmHWM of the live process, from /proc (0 when it cannot be read)."""
        try:
            for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-limit:].strip()
        except OSError:
            return ""

    def stop(self) -> int:
        """Wait for the node to exit after TERMINATE; kill it if it does not."""
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._stderr.close()
        return self.proc.returncode


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    """Environment for node processes: the checkout's sources, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_nodes(instance_path: Path, n_nodes: int, workdir: Path, env: dict,
                trace_dir: Path | None) -> list[NodeProcess]:
    """Start every node and wait until each listens; stops them all on failure."""
    nodes: list[NodeProcess] = []
    try:
        for i in range(n_nodes):
            trace_out = None if trace_dir is None else trace_dir / f"node{i}-spans.json"
            nodes.append(NodeProcess(instance_path, i, workdir, env, trace_out))
        deadline = time.perf_counter() + READY_TIMEOUT_S
        for node in nodes:
            node.wait_ready(deadline)
    except BaseException:
        kill_nodes(nodes)
        raise
    return nodes


def kill_nodes(nodes: list[NodeProcess]) -> None:
    """Kill and reap every node still running (failure path)."""
    for node in nodes:
        if node.proc.poll() is None:
            node.proc.kill()
        node.stop()
