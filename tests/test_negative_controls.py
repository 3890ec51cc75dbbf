"""Negative controls for `verify`: each edit of one saved snapshot of the
shipped pair (configs/exhaustion_lo.ini, exhaustion_hi.ini) must make
`verify` exit 2 with negative-margin rows in exactly the named families.
A family that no test here can fail would pass unseen if its comparison
were flipped.

Two families have no negative control, for these reasons:

- `u-inverse-bound` is implied by the lower barrier that gates it. Where
  U >= 2t/sinh^2 s holds on (0, log 2), 1/U <= C s^2/t follows. An edit that
  breaks the barrier there turns the family off instead of failing it.
- `damped-monotone-g` and `damped-monotone-G` are gated off on this pair.
  The ramps pull K below -1 in every evolved snapshot (K_min is about -25 at
  t = 0.02), so the report holds no such rows to break. Turning the gate on
  would mean replacing every evolved snapshot, which tests a different pair.

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
from logdiff.snapshots import read_rows_csv

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


def _halve_barrier_near_2S(lo, hi):
    # one g node near s = 2S at half of 2tH: below the barrier, still under G
    header, s, u = _read(lo)
    i = int(np.argmin(np.abs(s - 2.0 * S)))
    u[i] = 0.5 * 2.0 * T_EDIT / math.sinh(s[i]) ** 2
    _write(lo, header, s, u)


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


@pytest.mark.parametrize("edit, failing", [
    (_halve_barrier_near_2S, {"lower-barrier"}),
    (_scale_G_inside_disc(10.0), {"main-odi"}),
    (_bend_G_at_outer_boundary, {"djdt-identity"}),
    (_scale_G_inside_disc(300.0), {"main-odi", "interior-area", "volume-excess"}),
    (_G_just_below_g, {"J-nonnegative", "area-diff-below-J"}),
], ids=["lower-barrier", "main-odi", "djdt-identity", "interior-area", "J-nonnegative"])
def test_edited_snapshot_fails_its_family(shipped_pair, tmp_path, capsys, edit, failing):
    for run in ("lo", "hi"):
        shutil.copytree(shipped_pair / run, tmp_path / run)
    snap = "snap_003.txt"
    assert _read(tmp_path / "lo" / snap)[0].startswith(f"# logdiff-state t={T_EDIT}")
    edit(tmp_path / "lo" / snap, tmp_path / "hi" / snap)
    capsys.readouterr()
    rc = main(["verify", str(tmp_path / "lo" / "snap_manifest.csv"),
               str(tmp_path / "hi" / "snap_manifest.csv"),
               "--config", str(CONFIGS / "exhaustion_lo.ini"), "--out", str(tmp_path / "ver")])
    assert rc == 2
    assert capsys.readouterr().out.splitlines()[-1] == "verify: FAIL"
    rows = read_rows_csv(tmp_path / "ver" / "verify_report.csv")
    failed = {r["inequality"] for r in rows if float(r["margin"]) < 0.0}
    assert failed == failing
    assert {float(r["time"]) for r in rows if float(r["margin"]) < 0.0} == {T_EDIT}
