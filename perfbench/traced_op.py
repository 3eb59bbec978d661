"""Run one `groupedbh` CLI command with every public function traced.

    python3 traced_op.py TRACE_OUT.json -- <groupedbh arguments>

Times the fresh-process import of ``groupedbh.cli`` first, then wraps the
package (see spans.py), runs ``groupedbh.cli.main`` on the arguments,
writes the spans to TRACE_OUT.json, and exits with the command's exit code.
The stages outside ``main`` go to TRACE_OUT.phases.json: the perf_counter()
reading before the import (``import_start``) and at the end (``end``), and
the seconds of the import, of wrapping the package and of writing the spans.
"""

import json
import sys
import time
from pathlib import Path

from spans import Tracer, instrument


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_op.py TRACE_OUT.json -- ARGS...")
    t_import = time.perf_counter()
    import groupedbh.cli

    t_instrument = time.perf_counter()
    tracer = Tracer()
    instrument(tracer)
    t_main = time.perf_counter()
    try:
        rc = groupedbh.cli.main(argv)
    finally:
        t_dump = time.perf_counter()
        tracer.dump(out_path)
        t_end = time.perf_counter()
        phases = {
            "import_start": t_import,
            "import_s": t_instrument - t_import,
            "instrument_s": t_main - t_instrument,
            "dump_s": t_end - t_dump,
            "end": t_end,
        }
        Path(out_path).with_suffix(".phases.json").write_text(json.dumps(phases))
    return rc


if __name__ == "__main__":
    sys.exit(main())
