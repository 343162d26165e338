"""Entry point of a benchmark node process: ``fedkmeans node`` with optional spans.

Usage: ``python3 node_main.py --trace-out PATH node --instance ... --node-id I --bind HOST:PORT``.
With a non-empty PATH the layer wrappers are installed before the node
serves, and the recorded spans are written to PATH once it receives TERMINATE.
"""

import json
import sys
from pathlib import Path

import layers
from fedkmeans.cli import main


def run(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: node_main.py --trace-out PATH node ...", file=sys.stderr)
        return 2
    trace_out, cli_argv = argv[1], argv[2:]
    if not trace_out:
        return main(cli_argv)
    tracer = layers.Tracer()
    with layers.patched(tracer):
        code = main(cli_argv)
    Path(trace_out).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
