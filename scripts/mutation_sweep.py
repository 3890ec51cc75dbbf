#!/usr/bin/env python3
"""Comparison-flip mutation sweep over the logdiff package.

Every `<`, `<=`, `>` and `>=` in src/logdiff/*.py, cli.py excepted, is
negated in turn (`<` becomes `>=`, `<=` becomes `>`, and back), in a copy of
src/, tests/ and configs/.  For each such mutant the tier-1 suite runs on the
copy with `-x`; a mutant that no test fails survives.  The sweep exits 1 if a
survivor is missing from ALLOWED, which names each expected survivor with its
reason, and 0 otherwise.

    python3 scripts/mutation_sweep.py

A mutant is named by its module, its source line (stripped) and which
comparison of that line it flips, so ALLOWED survives edits elsewhere in the
file.  A suite run that exceeds TIMEOUT seconds counts as killing its mutant.
The copy lives in a temporary directory, removed when the sweep ends.
Stdlib only; the suite needs what tier-1 needs (pytest, hypothesis, mpmath).
"""

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
TIMEOUT = 600.0  # seconds per suite run

# (module, stripped source line, index of the comparison in that line) -> reason
_IN_RANGE = "return 0.35 <= self.exponent <= 0.65"
_REPORT_ONLY = ("boundary-layer's exponent window is report-only: in_range sets one word "
                "of the summary line and never the exit code, by design")
ALLOWED = {
    ("experiments", _IN_RANGE, 0): _REPORT_ONLY,
    ("experiments", _IN_RANGE, 1): _REPORT_ONLY,
}


def mutants(module: str, text: str):
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


def run_suite(tree: Path) -> bool:
    """True if tier-1 passes on tree (the mutant survives)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def sweep(tree: Path, todo) -> list:
    """Run the suite on tree once per mutant; the keys of the survivors."""
    survivors = []
    started = time.time()
    for n, (path, key, row, mutated) in enumerate(todo, 1):
        target = tree / path.relative_to(ROOT)
        original = target.read_text()
        target.write_text(mutated)
        try:
            survived = run_suite(tree)
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
    todo = [(path, *m) for path in sources for m in mutants(path.stem, path.read_text())]
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as work:
        tree = Path(work)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests", "configs"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        if not run_suite(tree):
            print("the unmutated suite fails; nothing to measure", file=sys.stderr)
            return 2
        survivors = sweep(tree, todo)

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
