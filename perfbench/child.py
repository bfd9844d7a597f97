"""One benchmark step in a fresh interpreter.

    python3 perfbench/child.py setup vector|sequence FILE
    python3 perfbench/child.py cli ARGS...
    python3 perfbench/child.py traced TRACE.json ARGS...

``setup`` imports the package and loads one data file, the cost every
command pays before it starts work.  ``cli`` runs ``pacgibbs.cli.main``
with ARGS.  ``traced`` does the same with the layer wrappers of
tracing.py installed, and writes the trace to TRACE.json.  The package
must be importable (PYTHONPATH=src).
"""

import sys


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import pacgibbs

        load = pacgibbs.load_vectors if argv[1] == "vector" else pacgibbs.load_sequences
        print(len(load(argv[2])))
        return 0

    from pacgibbs.cli import main as cli_main

    if mode == "cli":
        return cli_main(argv[1:])
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            return cli_main(argv[2:])
        finally:
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
