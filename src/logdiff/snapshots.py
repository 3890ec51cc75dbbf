"""State and trajectory persistence.

Snapshot format, one state per file:

    # logdiff-state t=<time> n=<N>
    s_0,U_0
    ...

Values are written with repr so save/load round-trips bitwise. A trajectory
is a directory of snapshots plus a manifest CSV listing (index, time, file);
the manifest carries the config hash comment like every other CSV artifact.
Every artifact is written to a temporary file beside it and renamed into
place, so an interrupted run never leaves a truncated file under a valid
header. Loaders never modify files in place.
"""

import csv
import os
import re

import numpy as np

from .config import _short_sha1
from .geometry import ConformalState, LogPolarGrid
from .solver import Trajectory

__all__ = [
    "save_state",
    "load_state",
    "save_trajectory",
    "load_trajectory",
    "write_rows_csv",
    "hash_comment",
    "write_atomic",
]

_HEADER = re.compile(r"^# logdiff-state t=(?P<t>[^ ]+) n=(?P<n>\d+)$")
_STEM = "snap"  # a trajectory's files are snap_NNN.txt and snap_manifest.csv


def hash_comment(payload: str) -> str:
    """Comment row recording the config hash; identical inputs give identical
    artifacts, which is what makes re-runs byte-for-byte reproducible."""
    return "# config-hash=" + _short_sha1(payload)


def write_atomic(path, write) -> None:
    """Calls write(fh) on path + ".tmp" in the same directory, created if
    missing, then renames it over path; if write raises, the previous file
    at path is untouched and the temporary file is removed."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_state(state: ConformalState, path) -> None:
    def write(fh):
        fh.write(f"# logdiff-state t={state.time!r} n={state.grid.n}\n")
        for s, u in zip(state.grid.nodes, state.values):
            fh.write(f"{float(s)!r},{float(u)!r}\n")

    write_atomic(path, write)


def load_state(path) -> ConformalState:
    """Reads one snapshot; every ValueError it raises starts with the path."""
    # undecodable bytes become U+FFFD and fail as a bad header or row below
    with open(path, errors="replace") as fh:
        first = fh.readline().rstrip("\n")
        m = _HEADER.match(first)
        if m is None:
            raise ValueError(f"{path}: not a logdiff-state file (header {first!r})")
        n = int(m.group("n"))
        s, u = [], []
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {n} rows, file ended at {i}")
            try:
                a, b = line.split(",")
                s.append(float(a))
                u.append(float(b))
            except ValueError:
                raise ValueError(
                    f"{path}:{i + 2}: malformed row {line.rstrip()!r}, expected s,U"
                ) from None
        if fh.readline().strip():
            raise ValueError(f"{path}: trailing data after {n} rows")
    try:
        return ConformalState(grid=LogPolarGrid(np.array(s)), values=np.array(u),
                              time=float(m.group("t")))
    except ValueError as exc:  # grid, value and time checks name no file
        raise ValueError(f"{path}: {exc}") from None


def save_trajectory(traj: Trajectory, out_dir, hash_payload: str) -> str:
    """Writes snap_NNN.txt per sample time plus snap_manifest.csv, whose hash
    comment records hash_payload. Returns the manifest path."""
    rows = []
    for i, state in enumerate(traj.states):
        name = f"{_STEM}_{i:03d}.txt"
        save_state(state, os.path.join(out_dir, name))
        rows.append({"index": i, "time": repr(state.time), "file": name})
    manifest = os.path.join(out_dir, f"{_STEM}_manifest.csv")
    write_rows_csv(manifest, ["index", "time", "file"], rows, hash_payload)
    return manifest


def load_trajectory(manifest_path) -> Trajectory:
    """Rebuilds a Trajectory from a manifest and the snapshots beside it.
    Every manifest entry must be a bare file name in the manifest's own
    directory, its index its position, and its time exactly its snapshot's
    time (both are written with repr). Every ValueError it raises names the
    manifest or the snapshot at fault."""
    base = os.path.dirname(manifest_path)
    with open(manifest_path, errors="replace") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        try:
            entries = list(reader)
        except csv.Error as exc:  # e.g. an over-long field; not a ValueError
            raise ValueError(f"{manifest_path}: malformed CSV: {exc}") from None
    if reader.fieldnames is None or not {"index", "time", "file"} <= set(reader.fieldnames):
        raise ValueError(f"{manifest_path}: not a trajectory manifest")
    states = []
    for i, row in enumerate(entries):
        name = row["file"]
        if not name or name in (".", "..") or os.path.basename(name) != name or "\0" in name:
            raise ValueError(
                f"{manifest_path}: entry {name!r} is not a file name in the manifest's directory"
            )
        if row["index"] != str(i):
            raise ValueError(f"{manifest_path}: entry {i} has index {row['index']!r}")
        state = load_state(os.path.join(base, name))
        try:
            listed = float(row["time"])
        except (TypeError, ValueError):
            listed = None
        if listed != state.time:
            raise ValueError(
                f"{manifest_path}: entry {i} lists time {row['time']!r} but {name} "
                f"holds t={state.time!r}"
            )
        states.append(state)
    if not states:
        raise ValueError(f"{manifest_path}: empty manifest")
    try:
        return Trajectory(states=tuple(states))
    except ValueError as exc:  # times out of order, or snapshots on different grids
        raise ValueError(f"{manifest_path}: {exc}") from None


def write_rows_csv(path, fieldnames, rows, hash_payload: str) -> None:
    """CSV artifact convention: hash comment first, then header, then rows.
    Floats, numpy float scalars included, are written with repr of the plain
    float; everything else with str."""

    def write(fh):
        fh.write(hash_comment(hash_payload) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            out = {}
            for k in fieldnames:
                v = row[k]
                out[k] = repr(float(v)) if isinstance(v, float) else v
            writer.writerow(out)

    write_atomic(path, write)

