"""Traced CLI entry: installs the tracer, then runs the CLI exactly as ``trident ARGS`` would.

    python3 perfbench/cli_shim.py SPANS.tsv SUMMARY.json REQUEST_ID ARGS...
    python3 perfbench/cli_shim.py SPANS.tsv SUMMARY.json REQUEST_ID --layer-sample

The second form runs ``tracer.layer_sample`` instead of a command.

Spans are appended to SPANS.tsv, and the span summary is written to
SUMMARY.json, when the command returns.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracer_module  # noqa: E402


def main():
    spans_file, summary_file, request = sys.argv[1], sys.argv[2], int(sys.argv[3])
    origin = time.perf_counter()
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.request = request
    import trident.cli
    try:
        if sys.argv[4:] == ["--layer-sample"]:
            tracer_module.layer_sample()
            code = 0
        else:
            code = trident.cli.run(sys.argv[4:])
        sys.stdout.flush()
    finally:
        Path(summary_file).write_text(json.dumps(tracer.summary()))
        tracer.write_spans(spans_file, origin, append=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
