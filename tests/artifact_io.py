"""Test-side reader of the CSV artifacts the commands write, and writer of
the INI configs they read."""

import csv
from pathlib import Path

from logdiff.config import INI_KEYS


def read_rows_csv(path) -> list:
    """Rows of a CSV artifact as dicts of strings; comment rows are skipped."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def write_ini(cfg, path) -> None:
    """Write an ExperimentConfig as an INI file that parse_config reads back
    to an equal config: one line per key of config.INI_KEYS whose field is
    set."""
    lines, section = [], None
    for (sec, key), (name, _) in INI_KEYS.items():
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
