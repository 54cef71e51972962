"""Start ``repro serve`` for the serve-mixed workload.

    python3 perfbench/serve_launcher.py --trace 0|1 [--spans FILE] [--cpu N]

Runs the real CLI entry point with default settings on an ephemeral
port (``repro serve --port 0``).  With ``--trace 1`` the layer wrappers
of :mod:`tracing` are installed first, and the spans are written to
``FILE`` when the server has drained and stopped.
"""

from __future__ import annotations

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the server (all its threads) to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder, serve=True)
        recorder.calibrate()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
