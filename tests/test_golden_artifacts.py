"""Golden digests of every artifact the shipped commands write, and a guard
that those commands run every def of the package.

The nine commands below are the shipped configs of each subcommand. Their
23 artifacts are byte-identical across refactors, so each file's SHA-256 is
compared with the digest recorded when the tree was last allowed to move
output bytes. Floats depend on the numpy and scipy builds, so the test skips,
naming both versions, on any other pair than the one the digests were
recorded with.

The commands run once, in one fresh interpreter that imports `logdiff.cli`
before numpy, as the console script does, so they run with the CLI's
start-up settings (single-threaded OpenBLAS), as users do. A profiler
records every function they call, and the guard fails on any def in
`logdiff` they never call, save a short list of error paths: code only
tests run belongs in tests/. A third test checks that the run loaded no
scipy module but the solver's LAPACK wrapper, and not OpenSSL's `_hashlib`.
All three read that one run.

When a change moves bytes on purpose, `artifact_io.artifact_changes` on the
old and new trees names each moved column with the size of its change.
"""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import logdiff
from artifact_io import artifact_changes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RECORDED_WITH = ("2.4.6", "1.17.1")  # numpy, scipy

GOLDEN = {
    "lo/snap_000.txt": "ce65adeb3d5dfaf9a2c6c8f18f3c70939a2b41281418321288345c50b87628b5",
    "lo/snap_001.txt": "c8e0a05f694c896b97c6ecdde6d933ba5b7f5497954d09c0a5a4d1e604969ca0",
    "lo/snap_002.txt": "eb05b219cb7d8498986fb3a8c0f059d2e37d859aa483ce49556e60e7bf346ebe",
    "lo/snap_003.txt": "034b7c6b9618abb638718f464a8fd4ec64eda82c921703a3ef16fa968986380f",
    "lo/snap_004.txt": "76766a2a8e29a0ffa3ecf7a79b5c64d5b5531046bc68744312b270175406cecf",
    "lo/snap_005.txt": "8d9bd3fd3b6e65a4b8c5ceb3db329f8e5c2d4db65a24e1246b0dad322f136a2a",
    "lo/snap_manifest.csv": "f36867ca2755b6483afbea91521aaf564142fe8f5b2779f9f977fc88d9530762",
    "hi/snap_000.txt": "ce65adeb3d5dfaf9a2c6c8f18f3c70939a2b41281418321288345c50b87628b5",
    "hi/snap_001.txt": "2dacbdefdc28fd4fbfd04dc85eb4743bcb9e5d676276e4b4c3dd1aa5867d112f",
    "hi/snap_002.txt": "adf69d2e520f1c0afb63b480b07e924b0e54599177ec11095d9228a1854bba54",
    "hi/snap_003.txt": "654354d52e5bb30d56c3d907c88f4005f1804eb541830d9ae9244a307ac9fc07",
    "hi/snap_004.txt": "be07a586e116dce2f89d098c3c4a5a0867640fab9dd64e46bb1d13ca4548fe39",
    "hi/snap_005.txt": "c46226b4c68306eaa4048ac85d4c75464e21ccc403cd6dd2d82a63f0e618d44d",
    "hi/snap_manifest.csv": "e8476656da33eaf950546213a06b1264519a4baee8dc09373ca528a7ecc5ee28",
    "verify/verify_report.csv": "0d8af1df6eaef7b27c798df752718536cda14d2ad113045e874459811f87e502",
    "exact/exact_suite.csv": "a3368aa44508d2751fab7b323e6b2bd0bcd2b064734dad8f899fcbda037ffa82",
    "q/q_sweep.csv": "1b34b48d58fdfe3481144ff9a64afa5beb76c3a0f92a9a42451ef653d748c8a8",
    "qc/q_sweep.csv": "20b6ec140dfdb274b411f9ecf50488445d7a6bd09064c8286871c82c76635254",
    "u/uniqueness.csv": "5f22709fb86d898018df9f6050c74ae13d266817e9c82787ab6a75de25e4c892",
    "u/uniqueness_gauge.csv": "5c13f096c4592f227ddd05a8dce839a27d01ca67569e010697a3dc037c9c1212",
    "us/uniqueness.csv": "5f22709fb86d898018df9f6050c74ae13d266817e9c82787ab6a75de25e4c892",
    "us/uniqueness_gauge.csv": "5c13f096c4592f227ddd05a8dce839a27d01ca67569e010697a3dc037c9c1212",
    "bl/boundary_layer.csv": "dcd9a227c9b595422fe2a18a45541f0cadc57b108e66e3ac48a8da73bfc6ab3b",
}


def _commands(out):
    lo, hi = str(CONFIGS / "exhaustion_lo.ini"), str(CONFIGS / "exhaustion_hi.ini")
    return (
        ["simulate", "--config", lo, "--out", f"{out}/lo"],
        ["simulate", "--config", hi, "--out", f"{out}/hi"],
        ["verify", f"{out}/lo/snap_manifest.csv", f"{out}/hi/snap_manifest.csv",
         "--config", lo, "--out", f"{out}/verify"],
        ["exact-suite", "--out", f"{out}/exact"],
        ["q-sweep", "--out", f"{out}/q"],
        ["q-sweep", "--config", str(CONFIGS / "q_sweep_custom.ini"), "--out", f"{out}/qc"],
        ["uniqueness", "--out", f"{out}/u"],
        ["uniqueness", "--config", str(CONFIGS / "uniqueness_small.ini"), "--out", f"{out}/us"],
        ["boundary-layer", "--out", f"{out}/bl"],
    )


# runs the commands given as JSON in argv[1] under a profiler that records
# every Python function called; prints (module, first line) of each function
# of the logdiff package that ran, then the scipy modules and _hashlib if
# loaded at the end, then main's exit codes, one per command
_RUN_PROFILED = """\
import json, os, sys
called = set()
sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
from logdiff.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(sys.modules["logdiff"].__file__))
print(json.dumps(sorted({(os.path.basename(c.co_filename)[:-3], c.co_firstlineno) for c in called
                         if os.path.dirname(os.path.realpath(c.co_filename)) == package})))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "_hashlib"))))
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """(out, called, loaded): the commands run once, writing under out, each
    checked to exit 0; the (module, first line) of every package function
    they called; and the scipy modules, and _hashlib if it was, loaded when
    they were done.
    A fresh interpreter, because lru_cache'd functions called earlier in
    this process would not run again, and modules imported stay loaded."""
    out = tmp_path_factory.mktemp("shipped")
    commands = _commands(out)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", _RUN_PROFILED, json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *_, called, loaded, codes = proc.stdout.splitlines()
    assert json.loads(codes) == [0] * len(commands)
    return out, {tuple(key) for key in json.loads(called)}, set(json.loads(loaded))


def test_shipped_artifacts_match_recorded_digests(shipped):
    versions = (numpy.__version__, scipy.__version__)
    if versions != RECORDED_WITH:
        pytest.skip(f"digests recorded with numpy {RECORDED_WITH[0]} / scipy "
                    f"{RECORDED_WITH[1]}; this is numpy {versions[0]} / scipy {versions[1]}")
    out, _, _ = shipped
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == set(GOLDEN)
    moved = sorted(name for name, digest in GOLDEN.items()
                   if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest)
    assert moved == []


# defs no shipped command reaches, each with its reason
UNREACHED_ON_PURPOSE = {
    "cli._Parser.error": "runs on a bad command line only",
    "config.ConfigError.__init__": "runs on an invalid config only",
    "solver.StepFailure.__init__": "runs when a Newton solve fails, as no shipped run's does",
    "solver.RunError.__init__": "runs when a run fails after all its halvings",
}


def _defs():
    """(module, first line) -> dotted name of every def in the package.  A
    code object's first line is its first decorator's, if it has one."""
    found = {}

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(module, first)] = name
                visit(child, name, module)
            else:
                visit(child, prefix, module)

    for path in sorted(Path(logdiff.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.stem)
    return found


def test_shipped_commands_never_import_scipy_integrate(shipped):
    # Q and I2(gamma) come from numpy Gauss rules; scipy.integrate would add
    # about a quarter second to every command's start-up.  The solver loads
    # LAPACK's compiled wrapper alone, without the scipy or scipy.linalg
    # package, and the config hash's SHA-1 does without OpenSSL
    _, _, loaded = shipped
    assert loaded == {"scipy.linalg._flapack"}


def test_shipped_commands_reach_every_def(shipped):
    _, called, _ = shipped
    unreached = sorted(name for key, name in _defs().items() if key not in called)
    assert unreached == sorted(UNREACHED_ON_PURPOSE)


def test_artifact_changes_name_file_column_and_size(tmp_path):
    # a re-baseline reports what moved: a one-ulp edit of one number by file,
    # column and size, a changed text cell verbatim, identical files not at all
    old, new = tmp_path / "old", tmp_path / "new"
    q = 4.894180228406698
    table = ("# config-hash=abc\nR,Q,status\n0.9,{q!r},ok\n0.95,1.5,{status}\n")
    snapshot = "# logdiff-state t=0.02 n=2\n0.045,39.4796\n0.05,37.3\n"
    for root, value, status in ((old, q, "ok"), (new, math.nextafter(q, 2.0 * q), "failed: x")):
        (root / "q").mkdir(parents=True)
        (root / "q" / "q_sweep.csv").write_text(table.format(q=value, status=status))
        (root / "q" / "snap_000.txt").write_text(snapshot)
    ulp = math.ulp(q)
    assert artifact_changes(old, new) == [
        "q/q_sweep.csv row 2 status: 'ok' -> 'failed: x'",
        f"q/q_sweep.csv Q: 1 cells, largest change {ulp:.3g} absolute, {ulp / q:.3g} relative",
    ]
    (new / "q" / "snap_000.txt").write_text(snapshot.replace("37.3", "37.4"))
    assert artifact_changes(old, new)[-1] == (
        f"q/snap_000.txt column 2: 1 cells, largest change {37.4 - 37.3:.3g} absolute, "
        f"{(37.4 - 37.3) / 37.3:.3g} relative")
