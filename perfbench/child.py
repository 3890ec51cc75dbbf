"""Runs one logdiff CLI command in this fresh interpreter and times it.

    python3 child.py run RECORD RUN_ID -- ARGV...
    python3 child.py probe RECORD COMMAND...

`run` times `import logdiff.cli` and `logdiff.cli.main(ARGV)` separately and
writes them, with the exit code, to the JSON file RECORD.  A RUN_ID other
than "-" installs the tracing wrappers after the import and adds the spans
to the record.  `probe` asks each COMMAND for its --help text and records
which ones accept --jobs, plus the numpy and scipy versions the program
imported.  The parent sets PYTHONPATH to the checkout's src directory.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout


def _run(record, run_id, argv):
    t0 = time.perf_counter()
    import logdiff.cli
    t1 = time.perf_counter()
    tracer = None
    if run_id != "-":
        import tracing  # beside this file, so on sys.path[0]
        tracer = tracing.Tracer(run_id)
        tracer.install()
        main = tracer.wrap(logdiff.cli.main, "cli.main")
    else:
        main = logdiff.cli.main
    t2 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    t3 = time.perf_counter()
    sys.stdout.flush()
    out = {"import_s": t1 - t0, "main_s": t3 - t2, "rc": rc}
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(record, "w") as fh:
        json.dump(out, fh)


def _probe(record, commands):
    import logdiff.cli
    jobs = {}
    for cmd in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                logdiff.cli.main([cmd, "--help"])
            except SystemExit:
                pass
        jobs[cmd] = "--jobs" in buf.getvalue()
    versions = {name: getattr(sys.modules.get(name), "__version__", "not imported")
                for name in ("numpy", "scipy")}
    with open(record, "w") as fh:
        json.dump({"jobs": jobs, "versions": versions}, fh)


if __name__ == "__main__":
    mode, record = sys.argv[1], sys.argv[2]
    if mode == "run":
        _run(record, sys.argv[3], sys.argv[5:])
    else:
        _probe(record, sys.argv[3:])
