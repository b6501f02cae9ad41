"""Run one `aqgd` command line in this process and report its wall time.

    python3 bench/child.py RESULT_JSON SPANS_JSON|- -- <aqgd arguments>

The package is imported before the clock starts; with a spans path the
calls into each module are traced and the spans written there at the end.
An error the program does not catch ends this process with a non-zero
code and no result file.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SPANS|- -- ARGS...")
    from aqgd import cli

    tracer = None
    if spans_path != "-":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    solve_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "solve_s": solve_s}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
