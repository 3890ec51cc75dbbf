"""Test-side reader of the CSV artifacts the commands write, a report of
what moved between two trees of them, and writer of the INI configs the
commands read."""

import csv
import math
from itertools import zip_longest
from pathlib import Path

from logdiff.config import FIELDS


def read_rows_csv(path) -> list:
    """Rows of a CSV artifact as dicts of strings; comment rows are skipped."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _number(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _table(path):
    """(comment lines, column names, data rows) of a CSV artifact or a
    snapshot.  The first row is a header when none of its cells is a
    number; snapshots have none, and their columns are named by position."""
    comments, lines = [], []
    with open(path) as fh:
        for line in fh:
            (comments if line.startswith("#") else lines).append(line)
    rows = list(csv.reader(lines))
    if rows and all(_number(cell) is None for cell in rows[0]):
        return comments, rows[0], rows[1:]
    return comments, [], rows


def artifact_changes(old_dir, new_dir) -> list:
    """What moved between two trees of artifacts, as report lines.

    For each file that is not byte-identical: every changed comment line,
    header or non-numeric cell, verbatim; then, for each column with a
    changed finite number, the count of such cells and the largest absolute
    and relative change.  A file in one tree only is named as such.
    """
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.relative_to(d).as_posix()
                    for d in (old_dir, new_dir) for p in d.rglob("*") if p.is_file()})
    report = []
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            report.append(f"{name}: only in {old_dir if old.is_file() else new_dir}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        (c_old, h_old, r_old), (c_new, h_new, r_new) = _table(old), _table(new)
        for i, (a, b) in enumerate(zip_longest(c_old, c_new, fillvalue="")):
            if a != b:
                report.append(f"{name} comment line {i + 1}: {a.strip()!r} -> {b.strip()!r}")
        if h_old != h_new:
            report.append(f"{name} header: {h_old} -> {h_new}")
        if len(r_old) != len(r_new):
            report.append(f"{name}: {len(r_old)} -> {len(r_new)} data rows")
        def column(j):
            return h_new[j] if j < len(h_new) else f"column {j + 1}"

        moved = {}  # column index -> [cells, largest absolute change, largest relative]
        for i, (row_a, row_b) in enumerate(zip(r_old, r_new)):
            for j, (a, b) in enumerate(zip_longest(row_a, row_b, fillvalue="")):
                if a == b:
                    continue
                x, y = _number(a), _number(b)
                if x is None or y is None:
                    report.append(f"{name} row {i + 1} {column(j)}: {a!r} -> {b!r}")
                    continue
                change = abs(y - x)
                worst = moved.setdefault(j, [0, 0.0, 0.0])
                worst[0] += 1
                worst[1] = max(worst[1], change)
                worst[2] = max(worst[2], change / abs(x) if x else math.inf)
        for j, (cells, change, rel) in sorted(moved.items()):
            report.append(f"{name} {column(j)}: {cells} cells, largest change "
                          f"{change:.3g} absolute, {rel:.3g} relative")
    return report


def write_ini(cfg, path) -> None:
    """Write an ExperimentConfig as an INI file that parse_config reads back
    to an equal config: one line per field of config.FIELDS that is set."""
    lines, section = [], None
    for name, (sec, key, *_) in FIELDS.items():
        value = getattr(cfg, name)
        if value is None:
            continue
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        if isinstance(value, tuple):
            value = ", ".join(map(repr, value))
        elif not isinstance(value, str):
            value = repr(value)
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
