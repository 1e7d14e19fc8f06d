"""One CLI invocation in a fresh interpreter, timed after import.

    python3 child.py SRC RESULT_JSON [--trace TRACE_SPEC_JSON] -- CLI_ARGS...

Imports ``aadetect`` from ``SRC`` (the checkout's ``src/``), optionally
installs the span tracer, runs ``aadetect.cli.main(CLI_ARGS)`` and writes the
exit code, the import time and the wall time of the call to RESULT_JSON (with
no CLI_ARGS it only imports). The parent reads peak RSS from ``wait4``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    src, result_path = Path(own[0]).resolve(), Path(own[1])
    trace_spec = own[3] if len(own) > 3 and own[2] == "--trace" else None

    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import aadetect.cli
    import_s = time.perf_counter() - started
    if src not in Path(aadetect.__file__).resolve().parents:
        print(f"aadetect imported from {aadetect.__file__}, not from {src}", file=sys.stderr)
        return 3

    if not cli_args:  # a set-up sample: import only
        result_path.write_text(json.dumps({"rc": 0, "import_s": import_s}))
        return 0

    tracer = None
    if trace_spec is not None:
        import spans  # the benchmark's tracer, next to this file
        spec = json.loads(Path(trace_spec).read_text())
        tracer = spans.Tracer(spec.get("flooder"), spec.get("onset_us"))
        tracer.install()

    started = time.perf_counter()
    rc = aadetect.cli.main(cli_args)
    call_s = time.perf_counter() - started
    doc = {"rc": rc, "import_s": import_s, "call_s": call_s}
    if tracer is not None:
        doc["trace"] = tracer.summary()
    result_path.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
