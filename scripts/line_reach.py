#!/usr/bin/env python3
"""Line reach of the logdiff package: which source lines nothing runs.

A `sys.settrace` line tracer records every line of src/logdiff/*.py that
runs while tier-1 runs in this process and while the nine shipped commands
(the golden-artifact commands of tests/test_golden_artifacts.py) run, one
fresh interpreter each (this script with --command), the way the console
script runs them.  A line is
executable when its module's compiled code maps an instruction to it.  The
report lists every executable line that neither reached; the script exits 1
if one of them is missing from ALLOWED, which names each line expected to
stay unreached with its reason, 2 if tier-1 or a command fails, and 0
otherwise.

    python3 scripts/line_reach.py

A line is named by its module, the qualified name of the code it belongs
to and its source text (stripped), so ALLOWED survives edits elsewhere in
the file.  The commands write their artifacts to a temporary directory,
removed when the script ends.  Stdlib only; tier-1 needs what it always
needs (pytest, hypothesis, mpmath).
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logdiff"

# (module, code qualname, stripped source line) -> reason
_NO_SHA1 = ("runs only where CPython lacks its built-in _sha1; "
            "test_config_hash_without_the_builtin_sha1 runs it in an interpreter of its own")
ALLOWED = {
    ("cli", "<module>", "sys.exit(main())"):
        "runs when cli.py is executed as a script; the console script calls main itself",
    ("config", "<module>", "except ImportError:"): _NO_SHA1,
    ("config", "<module>", "from hashlib import sha1"): _NO_SHA1,
}


def executable_lines():
    """(module, line) -> (code qualname, stripped text) of every line that
    some instruction of the package's compiled code maps to."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        todo = [compile(text, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
            for _, _, line in code.co_lines():
                if line is not None:
                    found.setdefault((path.stem, line), (code.co_qualname, source[line - 1].strip()))
    return found


def _module_of(filename, cache={}):
    # the package module a code object's file is, or None
    if filename not in cache:
        path = Path(os.path.realpath(filename))
        cache[filename] = path.stem if path.parent == PACKAGE.resolve() else None
    return cache[filename]


def _with_src(pythonpath):
    return os.pathsep.join([str(ROOT / "src")] + ([pythonpath] if pythonpath else []))


def _trace_into(reached):
    """A sys.settrace function that adds (module, line) of each package
    line run to reached."""
    def local(frame, event, arg):
        if event == "line":
            reached.add((_module_of(frame.f_code.co_filename), frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        module = _module_of(frame.f_code.co_filename)
        if module is None:
            return None
        reached.add((module, frame.f_lineno))
        return local

    return tracer


def run_tier1(reached) -> int:
    """pytest's exit code for tier-1 run here under the line tracer."""
    import pytest

    # the tests that start interpreters of their own find the package too
    os.environ["PYTHONPATH"] = _with_src(os.environ.get("PYTHONPATH"))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(_trace_into(reached))
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    finally:
        sys.settrace(None)


def run_command(argv) -> int:
    """One shipped command run here under the line tracer, the way the
    console script runs it; prints its exit code and the lines it reached
    as one JSON line."""
    reached = set()
    sys.settrace(_trace_into(reached))
    from logdiff.cli import main

    code = main(argv)
    sys.settrace(None)
    print(json.dumps([code, sorted(reached)]))
    return 0


def run_commands(reached) -> list:
    """Exit codes of the nine shipped commands, each run in a fresh
    interpreter under a line tracer that adds what it reached to reached."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_golden_artifacts import _commands

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _with_src(env.get("PYTHONPATH"))
    codes = []
    with tempfile.TemporaryDirectory(prefix="line_reach_") as out:
        for argv in _commands(out):
            proc = subprocess.run(
                [sys.executable, __file__, "--command", json.dumps(argv)],
                capture_output=True, text=True, env=env, cwd=out)
            try:
                code, lines = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                code, lines = proc.returncode or 1, []
                print(proc.stderr, file=sys.stderr)
            reached.update(map(tuple, lines))
            codes.append(code)
    return codes


def main() -> int:
    started = time.time()
    reached = set()
    tier1 = run_tier1(reached)
    tier1_s = time.time() - started
    codes = run_commands(reached)
    lines = executable_lines()
    unreached = sorted(key for key in lines if key not in reached)
    named = {key: (key[0],) + lines[key] for key in unreached}
    unexpected = [key for key in unreached if named[key] not in ALLOWED]

    print(f"tier-1 exit {tier1} in {tier1_s:.0f} s; shipped commands exit {codes} "
          f"in {time.time() - started - tier1_s:.0f} s")
    print(f"{len(lines)} executable lines in src/logdiff, {len(lines) - len(unreached)} reached, "
          f"{len(unreached)} not")
    for key in unreached:
        name = named[key]
        tag = "allowed" if name in ALLOWED else "UNREACHED"
        why = f"  ({ALLOWED[name]})" if name in ALLOWED else ""
        print(f"  {tag}: {key[0]}.py:{key[1]} [{name[1]}]  {name[2]}{why}")
    for name in sorted(set(ALLOWED) - set(named.values())):
        print(f"  note: allowed line is reached now: {name[0]}.py [{name[1]}]  {name[2]}")
    if tier1 != 0 or any(codes):
        return 2
    return 1 if unexpected else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--command"]:
        sys.exit(run_command(json.loads(sys.argv[2])))
    sys.exit(main())
