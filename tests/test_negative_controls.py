"""Negative controls for `verify`: each edit of one saved snapshot of the
shipped pair (configs/exhaustion_lo.ini, exhaustion_hi.ini) must make
`verify` exit 2 with negative-margin rows in exactly the named families.
A family that no test here can fail would pass unseen if its comparison
were flipped.

Two families have no negative control here, for these reasons:

- `u-inverse-bound` is implied by the lower barrier that gates it. Where
  U >= 2t/sinh^2 s holds on (0, log 2), 1/U <= C s^2/t follows. An edit that
  breaks the barrier there turns the family off instead of failing it:
  breaking it below S, where the lower-barrier rows do not look, drops all
  u-inverse-bound rows and `verify` still exits 0. It names the gated family
  and the size of the break on stderr, which the last test here checks.
- `damped-monotone-g` and `damped-monotone-G` are gated off on this pair.
  The ramps pull K below -1 in every evolved snapshot (K_min is about -25 at
  t = 0.02), so the report holds no such rows to break, and `verify` says so
  on stderr. Turning the gate on would mean replacing every evolved
  snapshot, which tests a different pair. The family's negative control is
  in tests/test_estimates.py instead: a flat static run whose last snapshot
  is scaled by 1.5 keeps K = 0 and fails its one row.

Interior-area and volume-excess share the envelope and, on an ordered pair,
the left side, so they fail together. J bounds the area difference, so an
edit big enough to break them breaks main-odi as well.
"""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from logdiff.cli import main
from artifact_io import read_rows_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
S = 0.18                # cut-off S = -log R of the shipped configs
S0 = -math.log(0.55)    # cut-off s0 = -log r0
T_EDIT = 0.06           # snapshot 3 of both runs


@pytest.fixture(scope="module")
def shipped_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    for run in ("lo", "hi"):
        config = str(CONFIGS / f"exhaustion_{run}.ini")
        assert main(["simulate", "--config", config, "--out", str(out / run)]) == 0
    return out


def _read(path):
    lines = path.read_text().splitlines()
    s, u = np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T
    return lines[0], s, u


def _write(path, header, s, u):
    path.write_text(header + "\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(s, u)))


def _halve_barrier_at(s_edit):
    # one g node near s_edit at half of 2tH: below the barrier, still under G
    def edit(lo, hi):
        header, s, u = _read(lo)
        i = int(np.argmin(np.abs(s - s_edit)))
        u[i] = 0.5 * 2.0 * T_EDIT / math.sinh(s[i]) ** 2
        _write(lo, header, s, u)
    return edit


def _scale_G_inside_disc(factor):
    def edit(lo, hi):
        header, s, u = _read(hi)
        u[s >= S0] *= factor
        _write(hi, header, s, u)
    return edit


def _bend_G_at_outer_boundary(lo, hi):
    # doubles G at the second-to-last node: the one-sided slope of
    # log V - log U at s_max, and so the boundary term, jumps while J
    # moves by about 1e-8
    header, s, u = _read(hi)
    u[-2] *= 2.0
    _write(hi, header, s, u)


def _G_just_below_g(lo, hi):
    # G = g (1 - 1e-9) stays within verify's order tolerance (10 newton_tol
    # times the largest final value), so the pair still reads as ordered
    header, s, u = _read(lo)
    _write(hi, header, s, u * (1.0 - 1e-9))


def _verify_edited(pair, tmp_path, edit):
    for run in ("lo", "hi"):
        shutil.copytree(pair / run, tmp_path / run)
    snap = "snap_003.txt"
    assert _read(tmp_path / "lo" / snap)[0].startswith(f"# logdiff-state t={T_EDIT}")
    edit(tmp_path / "lo" / snap, tmp_path / "hi" / snap)
    return main(["verify", str(tmp_path / "lo" / "snap_manifest.csv"),
                 str(tmp_path / "hi" / "snap_manifest.csv"),
                 "--config", str(CONFIGS / "exhaustion_lo.ini"), "--out", str(tmp_path / "ver")])


@pytest.mark.parametrize("edit, failing", [
    (_halve_barrier_at(2.0 * S), {"lower-barrier"}),
    (_scale_G_inside_disc(10.0), {"main-odi"}),
    (_bend_G_at_outer_boundary, {"djdt-identity"}),
    (_scale_G_inside_disc(300.0), {"main-odi", "interior-area", "volume-excess"}),
    (_G_just_below_g, {"J-nonnegative", "area-diff-below-J"}),
], ids=["lower-barrier", "main-odi", "djdt-identity", "interior-area", "J-nonnegative"])
def test_edited_snapshot_fails_its_family(shipped_pair, tmp_path, capsys, edit, failing):
    capsys.readouterr()
    rc = _verify_edited(shipped_pair, tmp_path, edit)
    assert rc == 2
    assert capsys.readouterr().out.splitlines()[-1] == "verify: FAIL"
    rows = read_rows_csv(tmp_path / "ver" / "verify_report.csv")
    failed = {r["inequality"] for r in rows if float(r["margin"]) < 0.0}
    assert failed == failing
    assert {float(r["time"]) for r in rows if float(r["margin"]) < 0.0} == {T_EDIT}


def test_barrier_broken_below_S_gates_u_inverse_bound_and_says_so(shipped_pair, tmp_path, capsys):
    # s = 0.048 < S: no lower-barrier row sees the edit, and the gate of the
    # 1/U bound (which reads (0, log 2)) shuts, so verify still passes
    capsys.readouterr()
    assert _verify_edited(shipped_pair, tmp_path, _halve_barrier_at(0.048)) == 0
    rows = read_rows_csv(tmp_path / "ver" / "verify_report.csv")
    assert "u-inverse-bound" not in {r["inequality"] for r in rows}
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("note: u-inverse-bound gated off")]
    assert len(notes) == 1
    assert "lower barrier on (0, 0.6931) fails by" in notes[0]
