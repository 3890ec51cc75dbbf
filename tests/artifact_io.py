"""Test-side reader of the CSV artifacts the commands write, and writer of
the INI configs they read."""

import csv
from pathlib import Path


def read_rows_csv(path) -> list:
    """Rows of a CSV artifact as dicts of strings; comment rows are skipped."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def write_ini(cfg, path) -> None:
    """Write an ExperimentConfig as an INI file that parse_config reads back
    to an equal config."""

    def floats(values):
        return ", ".join(map(repr, values))

    grid = [f"{key} = {getattr(cfg, key)!r}" for key in ("s_min", "s_max", "n", "ratio")
            if getattr(cfg, key) is not None]
    flow = [f"ramps = {floats(cfg.ramps)}", f"t = {cfg.T!r}", f"dt = {cfg.dt!r}"]
    if cfg.sample_times:
        flow.append(f"sample_times = {floats(cfg.sample_times)}")
    lines = ["[experiment]", f"id = {cfg.experiment}", "[grid]", *grid,
             "[cutoff]", f"r0 = {cfg.r0!r}", f"r = {floats(cfg.R_list)}",
             f"gamma = {floats(cfg.gamma_list)}", "[flow]", *flow]
    Path(path).write_text("\n".join(lines) + "\n")
