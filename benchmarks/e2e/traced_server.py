"""``python -m repro.gateway serve`` with the benchmark's span wrappers.

    python -m benchmarks.e2e.traced_server CONFIG --port PORT --spans DIR

The wrappers are installed before ``Gateway.start`` forks the warm
workers, so the workers inherit them.  Each worker writes
``DIR/spans-<pid>.jsonl`` when it stops at drain; this process writes
its own file, with the public timestamps of every ``JobHandle``, when
``serve`` returns (send it SIGINT).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import probes, served
from .spans import Recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e."
                                          "traced_server")
    parser.add_argument("config")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spans", required=True,
                        help="directory for the span files")
    args = parser.parse_args(argv)

    from repro.gateway.__main__ import main as gateway_main

    spans_dir = Path(args.spans)
    rec = Recorder("server")
    patches, handles = probes.install_gateway(
        rec, spans_dir, job_op=served.job_op, session_op=served.session_op,
        record_op=served.record_op)
    try:
        return gateway_main(["serve", args.config, "--port", str(args.port)])
    finally:
        rec.dump(spans_dir / f"spans-{os.getpid()}.jsonl",
                 facts=[served.handle_fact(op, h) for op, h in handles])
        patches.restore()


if __name__ == "__main__":
    sys.exit(main())
