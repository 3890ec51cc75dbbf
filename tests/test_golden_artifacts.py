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
tests run belongs in tests/. A third test checks that the run never
loaded `scipy.integrate`. All three read that one run.

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
    "lo/snap_001.txt": "3789c496f58e94126012f89ad60b26974d4e193a2fd022ffd618805e6311c10d",
    "lo/snap_002.txt": "de0850c900221cdb1ed07664d744d6f16e2d628eff229114f1490d8284ed279d",
    "lo/snap_003.txt": "72ccd5467cdde136a32a107394eef7ae007e08b330f086907b2de8f49c7ec715",
    "lo/snap_004.txt": "0c84cd6f94324b935c8c0c72c859788bff2361848791c50921c77d4809129104",
    "lo/snap_005.txt": "5c6d6aea1846808cb980e6e7c6a94aa76f1c3a2ff9f45b43d22d7afd1203c8c0",
    "lo/snap_manifest.csv": "f36867ca2755b6483afbea91521aaf564142fe8f5b2779f9f977fc88d9530762",
    "hi/snap_000.txt": "ce65adeb3d5dfaf9a2c6c8f18f3c70939a2b41281418321288345c50b87628b5",
    "hi/snap_001.txt": "5f3a14ecd0ef2ddb1dfb0c1bbdbffe42eb442230c6740aa0b023638480a90909",
    "hi/snap_002.txt": "ffcaa8094523e57f68abf8ff34bde31ae85da0e96fc484852db9913dcdbd38fb",
    "hi/snap_003.txt": "00b63764ebb4d5a5d97a2b99931af2f70ce7b202d5427229969d3e6d38254f66",
    "hi/snap_004.txt": "9080c2965f94521701564225d2ff7acdd4b6cbec90c47d9ffb1ff75cf2224334",
    "hi/snap_005.txt": "077ef0ce254d8ceaa87337d55b413ca78dc86904fb50d98deacc7e6236a4dd21",
    "hi/snap_manifest.csv": "e8476656da33eaf950546213a06b1264519a4baee8dc09373ca528a7ecc5ee28",
    "verify/verify_report.csv": "63352861a730f1823f6fe6776baaffe14179040b26309e5fab94f2218e874989",
    "exact/exact_suite.csv": "2317d9d100eed57dea7c7beb0946a33357ce4ccaab5ca7a0ceba01cf202810ed",
    "q/q_sweep.csv": "1b34b48d58fdfe3481144ff9a64afa5beb76c3a0f92a9a42451ef653d748c8a8",
    "qc/q_sweep.csv": "20b6ec140dfdb274b411f9ecf50488445d7a6bd09064c8286871c82c76635254",
    "u/uniqueness.csv": "9cba6c9b37976551f4afa6121f978fc97cd0fc72926e1d37a511fa5b48c8105c",
    "u/uniqueness_gauge.csv": "5f3151f3a3eaf2699ea7a5977b65841ea30d4223fdcc1d17dea8c1f0a5ac1031",
    "us/uniqueness.csv": "9cba6c9b37976551f4afa6121f978fc97cd0fc72926e1d37a511fa5b48c8105c",
    "us/uniqueness_gauge.csv": "5f3151f3a3eaf2699ea7a5977b65841ea30d4223fdcc1d17dea8c1f0a5ac1031",
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
# of the logdiff package that ran, then the scipy modules loaded at the end,
# then main's exit codes, one per command
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
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """(out, called, scipy_modules): the commands run once, writing under
    out, each checked to exit 0; the (module, first line) of every package
    function they called; and the scipy modules loaded when they were done.
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
    # LAPACK's compiled wrapper alone, without the scipy.linalg package
    _, _, loaded = shipped
    assert "scipy.linalg._flapack" in loaded  # the solver's LAPACK: the list is real
    assert "scipy.linalg" not in loaded
    assert sorted(m for m in loaded if m.startswith("scipy.integrate")) == []


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
