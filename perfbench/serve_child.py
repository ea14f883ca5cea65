"""A traced ``repro serve``: layer wrappers installed, then the same argv.

    python -m perfbench.serve_child SPANS.npz serve --warm --port 0 ...

Runs ``repro.cli.main`` with the given argv after installing the span
wrappers, and writes the spans plus the frontend/service figures to
``SPANS.npz`` once the server has exited (``--max-requests``).
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli
    imported = time.perf_counter()

    from perfbench import layers
    from perfbench.spans import SpanRecorder
    recorder = SpanRecorder()
    recorder.add_span("startup.import", STARTED, imported)
    probe = layers.install(recorder)

    span_id, parent = recorder.begin()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        recorder.end("serve.main", span_id, parent, start,
                     time.perf_counter())
    recorder.dump(spans_path, **probe.values())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
