"""Start the evaluation service, optionally traced.

Usage::

    python perfbench/serve_launcher.py [--trace-out SPANS.jsonl] -- SERVICE-ARGS...

Without ``--trace-out`` this is ``python -m repro.engine.service
SERVICE-ARGS``.  With it, the tracing wrappers are installed before
``repro.engine.service.main`` runs, and the spans are written to
``SPANS.jsonl`` once the service has shut down (on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    from repro.engine.service import main as service_main

    code = service_main(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
