"""Traced CLI process: ``python3 bench/cli_child.py SPANS_JSON SUBCOMMAND ...``.

Imports ``rnmlab.cli`` (timing the import), installs the span wrappers,
calls ``rnmlab.cli.run`` with the remaining arguments, writes the spans and
counters to SPANS_JSON and exits with the subcommand's exit code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import rnmlab.cli
    import_s = perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = rnmlab.cli.run(argv)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(spans_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
