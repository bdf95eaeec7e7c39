"""Launch the graph query service with the per-layer timing wrappers.

Same service as ``python -m repro serve``: installs :mod:`layers` first,
then boots through :func:`repro.api.serve`.  Adds one read-out route,
``GET /perfbench/layers`` (``?reset=1`` zeroes the recorder first), so the
benchmark can read the service-side spans and counters around its loop.
Stops on SIGINT.

    python3 -u perfbench/serve_traced.py --port 0 --warmup g@rmat:scale=14
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402  (needs the source path above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--warmup", nargs="*", default=[])
    args = parser.parse_args(argv)

    from repro.api import serve
    from repro.serve import app

    recorder = layers.Recorder()
    installation = layers.install(recorder)
    original_get = app._Handler.do_GET

    def do_get(handler) -> None:
        if not handler.path.startswith("/perfbench/layers"):
            original_get(handler)
            return
        if "reset=1" in handler.path:
            recorder.reset()
        data = json.dumps(recorder.snapshot()).encode("utf-8")
        handler.send_response(200)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    app._Handler.do_GET = do_get
    try:
        service = serve(port=args.port, warmup=args.warmup, block=False)
        for entry in service.registry.entries().values():
            entry.lock = layers.TimedLock(entry.lock, recorder)
        print(f"serving on {service.address}", flush=True)
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            service.shutdown()
    finally:
        app._Handler.do_GET = original_get
        installation.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
