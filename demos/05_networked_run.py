"""A localhost networked run, bit-identical to the in-process run.

Each node runs as a service speaking length-prefixed JSON frames; the
coordinator sends dual coefficients and receives centroids, Lagrangian values,
and objective values. Raw observations never leave a node.
"""

import socket
import threading

from fedkmeans.bench import BenchmarkSpec, generate_instance
from fedkmeans.coordinator import RunConfig, run
from fedkmeans.net import NetworkedBackend, serve_node


def main():
    spec = BenchmarkSpec(n_nodes=2, n_y=2, K=2, replicate=1, seed=9, radius=0.15)
    instance = generate_instance(spec)
    config = RunConfig(algorithm="qnda", t_max=150)

    local = run(instance, config)
    print(f"in-process: {len(local.records)} iterations, "
          f"terminated by {local.termination}")

    addresses = []
    for node in instance.nodes:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        ready = threading.Event()
        threading.Thread(target=serve_node, args=(node, ("127.0.0.1", port)),
                         kwargs={"ready_event": ready}, daemon=True).start()
        ready.wait(5.0)
        addresses.append(("127.0.0.1", port))

    capture = []
    backend = NetworkedBackend(addresses=addresses, instance=instance,
                               config=config, capture=capture)
    try:
        remote = run(instance, config, backend=backend)
    finally:
        backend.close()
    print(f"networked:  {len(remote.records)} iterations, "
          f"terminated by {remote.termination} "
          f"({len(capture)} messages exchanged)")

    identical = all(
        a.numeric_key() == b.numeric_key()
        for a, b in zip(local.records, remote.records)
    ) and len(local.records) == len(remote.records)
    print(f"numeric fields bit-identical across transports: {identical}")

    kinds = sorted({m["kind"] for _, m in capture})
    print(f"message kinds on the wire: {', '.join(kinds)}")
    print("no message body carries raw observations — only centroids,")
    print("Lagrangian values, objective values, and box metadata.")


if __name__ == "__main__":
    main()
