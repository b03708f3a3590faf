"""Run one ``kab`` command line with the module functions traced.

    python3 perfbench/cli_traced.py SPANS_FILE COMMAND [ARGS...]

Behaves like ``python -m kab.cli COMMAND [ARGS...]`` (same output and exit
code) and writes the spans, counts, warnings and the import time of
``kab.cli`` to SPANS_FILE as JSON.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.monotonic()
    sys.path.insert(0, str(HERE.parent / "src"))
    import kab.cli

    import_s = time.monotonic() - t0
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.request(0):
        idx = tracer.open("cli.main")
        try:
            code = kab.cli.main(argv)
        finally:
            tracer.close(idx)
    with open(spans_file, "w") as fh:
        json.dump({**tracer.dump(), "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
