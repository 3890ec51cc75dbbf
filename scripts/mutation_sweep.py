#!/usr/bin/env python3
"""Mutation sweep over the logdiff package: comparison flips and deleted
verdicts.

Two operators run over src/logdiff/*.py, cli.py excepted, each mutant made
in a copy of src/, tests/ and configs/:

  flip    every `<`, `<=`, `>` and `>=` is negated in turn (`<` becomes
          `>=`, `<=` becomes `>`, and back);
  delete  every whole `raise`, `return False` or `name = False` statement
          is replaced by `pass` in turn, so a verdict or a refusal that
          nothing exercises shows up, which no flip can show.

For each mutant the tier-1 suite runs on the copy with `-x`; a mutant that
no test fails survives.  The sweep exits 1 if a survivor is missing from
ALLOWED, which names each expected survivor with its reason, and 0
otherwise.

    python3 scripts/mutation_sweep.py

A mutant is named by its module, its source line (stripped) and, for a
flip, which comparison of that line it flips, or, for a deletion, which of
the module's statements with that first line it deletes; so ALLOWED
survives edits elsewhere in the file.  The unmutated suite is timed once
first; a mutant's suite run that takes TIMEOUT_FACTOR times as long counts
as killing it (a deleted refusal can leave a march that never ends).  The copy lives in a temporary
directory, removed when the sweep ends.  Stdlib only; the suite needs what
tier-1 needs (pytest, hypothesis, mpmath).
"""

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
SKIP = {"cli"}  # the front end: its comparisons format output and parse argv
TIMEOUT_FACTOR = 10  # a mutant suite run this many times the unmutated one is killed

# (module, stripped source line, index of the comparison in that line) -> reason
_IN_RANGE = "return 0.35 <= self.exponent <= 0.65"
_REPORT_ONLY = ("boundary-layer's exponent window is report-only: in_range sets one word "
                "of the summary line and never the exit code, by design")
ALLOWED = {
    ("experiments", _IN_RANGE, 0): _REPORT_ONLY,
    ("experiments", _IN_RANGE, 1): _REPORT_ONLY,
}


def flips(module: str, text: str):
    """(key, line number, mutated text) of each comparison flip in text."""
    lines = text.splitlines(keepends=True)
    seen = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.OP or tok.string not in FLIP:
            continue
        row, col = tok.start
        line = lines[row - 1]
        index = seen[row] = seen.get(row, -1) + 1
        flipped = line[:col] + FLIP[tok.string] + line[col + len(tok.string):]
        mutated = "".join(lines[:row - 1]) + flipped + "".join(lines[row:])
        yield (module, line.strip(), index), row, mutated


def _verdict(node) -> bool:
    """True for a `raise`, a `return False` or a `name = False` statement."""
    if isinstance(node, ast.Raise):
        return True
    value = getattr(node, "value", None)
    if not (isinstance(value, ast.Constant) and value.value is False):
        return False
    return isinstance(node, ast.Return) or (
        isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets))


def deletions(module: str, text: str):
    """(key, line number, mutated text) of each verdict statement of text
    replaced by `pass`."""
    data = text.encode()  # ast offsets count UTF-8 bytes
    lines = data.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    seen = {}
    nodes = sorted((n for n in ast.walk(ast.parse(text)) if _verdict(n)),
                   key=lambda n: (n.lineno, n.col_offset))
    for node in nodes:
        first = lines[node.lineno - 1].decode().strip()
        index = seen[first] = seen.get(first, -1) + 1
        lo = starts[node.lineno - 1] + node.col_offset
        hi = starts[node.end_lineno - 1] + node.end_col_offset
        yield (module, first, f"delete {index}"), node.lineno, (data[:lo] + b"pass" + data[hi:]).decode()


def run_suite(tree: Path, timeout=None) -> bool:
    """True if tier-1 passes on tree within timeout seconds (the mutant
    survives)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def sweep(tree: Path, todo, timeout) -> list:
    """Run the suite on tree once per mutant; the keys of the survivors."""
    survivors = []
    started = time.time()
    for n, (path, key, row, mutated) in enumerate(todo, 1):
        target = tree / path.relative_to(ROOT)
        original = target.read_text()
        target.write_text(mutated)
        try:
            survived = run_suite(tree, timeout)
        finally:
            target.write_text(original)
        if survived:
            survivors.append(key)
        print(f"[{n}/{len(todo)}] {'SURVIVED' if survived else 'killed  '} "
              f"{path.stem}.py:{row} #{key[2]}  {key[1]}", flush=True)
    print(f"{len(todo)} mutants, {len(todo) - len(survivors)} killed, "
          f"{len(survivors)} survived, {time.time() - started:.0f} s")
    return survivors


def main() -> int:
    sources = sorted(p for p in (ROOT / "src" / "logdiff").glob("*.py") if p.stem not in SKIP)
    todo = [(path, *m) for path in sources for operator in (flips, deletions)
            for m in operator(path.stem, path.read_text())]
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as work:
        tree = Path(work)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests", "configs"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        started = time.time()
        if not run_suite(tree):
            print("the unmutated suite fails; nothing to measure", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.time() - started)
        print(f"unmutated suite passes; mutant timeout {timeout:.0f} s", flush=True)
        survivors = sweep(tree, todo, timeout)

    unexpected = [key for key in survivors if key not in ALLOWED]
    for key in survivors:
        if key in ALLOWED:
            print(f"  allowed: {key[0]}.py #{key[2]}  {key[1]}  ({ALLOWED[key]})")
    for key in unexpected:
        print(f"  UNEXPECTED: {key[0]}.py #{key[2]}  {key[1]}")
    for key in ALLOWED:
        if key not in survivors:
            print(f"  note: allowed mutant no longer survives: {key[0]}.py #{key[2]}  {key[1]}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
