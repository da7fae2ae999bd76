"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_FILE [serve options...]

The wrappers go in before the server is built, then ``repro.cli.main``
runs ``serve`` unchanged; the spans are written to ``SPANS_FILE`` when it
returns.
"""

from __future__ import annotations

import sys

from tracing import SpanRecorder, install


def main() -> int:
    spans_path, options = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *options])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
