"""Start ``rat serve`` with benchmark instruments installed.

    python3 perfbench/serve_launcher.py [--spans SPANS.json] [--speed SPEED.json] serve --port 0

``--spans`` installs the ``tracing`` wrappers on the serve, protocol and
kernel layers; ``--speed`` runs a ``common.Speedometer`` in the server
process from before the program is imported.  The remaining arguments go
to ``repro.cli.main``; the recorded spans and speed samples are written to
the given files once the server has drained.
"""

import contextlib
import json
import sys

import common


def main() -> int:
    argv = sys.argv[1:]
    paths = {}
    while argv and argv[0] in ("--spans", "--speed"):
        paths[argv[0]], argv = argv[1], argv[2:]
    speed = common.Speedometer() if "--speed" in paths else None
    tracer = None
    try:
        with speed or contextlib.nullcontext():
            import tracing
            from repro import cli

            if "--spans" in paths:
                tracer = tracing.Tracer()
                tracing.install_serve(tracer, wire=True)
            return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(paths["--spans"])
        if speed is not None:
            with open(paths["--speed"], "w") as handle:
                json.dump(speed.samples, handle)


if __name__ == "__main__":
    sys.exit(main())
