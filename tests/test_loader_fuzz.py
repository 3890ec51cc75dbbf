"""Property tests: malformed snapshots, manifests and configs fail cleanly.

Every generated input carries at least one defect (a NaN or inf value, a
short or long file, nodes out of order, ...).  The loader must raise
ValueError (ConfigError for configs) with a one-line message that names the
file, and the CLI must turn it into exit 3 with one line on stderr.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logdiff.cli import main
from logdiff.config import ConfigError, parse_config
from logdiff.snapshots import load_state, load_trajectory

BAD_FLOATS = ("nan", "inf", "-inf", "1e999")


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_one_line(message, where):
    assert "\n" not in message
    assert message.startswith(str(where)), message


def _cli_exits_three(argv, expect_prefix):
    rc, err = _run_cli(argv)
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith(expect_prefix), err


# ------------------------------------------------------------------ snapshots

VALUE_DEFECTS = ("s_bad", "u_bad", "t_bad", "nodes_unordered", "few_nodes")


@st.composite
def snapshot_texts(draw):
    """Text of a snapshot file with at least one defect."""
    n = draw(st.integers(3, 8))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    s = [sum(steps[: i + 1]) for i in range(n)]
    u = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    t = draw(st.floats(0.0, 10.0))
    defects = draw(st.sets(st.sampled_from(VALUE_DEFECTS)))
    length = draw(st.sampled_from(("exact", "short", "long")))
    assume(defects or length != "exact")
    k = draw(st.integers(0, n - 1))
    if "s_bad" in defects:
        s[k] = draw(st.sampled_from((float("nan"), float("inf"), float("-inf"), 0.0, -s[k])))
    if "u_bad" in defects:
        u[k] = draw(st.sampled_from((float("nan"), float("inf"), float("-inf"), 0.0, -1.0)))
    t_text = repr(t)
    if "t_bad" in defects:
        t_text = draw(st.sampled_from(BAD_FLOATS + ("-1.0", "soon")))
    if "nodes_unordered" in defects:
        j = draw(st.integers(0, n - 2))
        s[j + 1] = draw(st.sampled_from((s[j], s[j] / 2.0)))  # repeated or decreasing
    if "few_nodes" in defects:
        n = draw(st.integers(0, 2))
        s, u = s[:n], u[:n]
    rows = [f"{a!r},{b!r}" for a, b in zip(s, u)]
    if length == "short" and rows:
        rows = rows[: draw(st.integers(0, len(rows) - 1))]
    elif length == "long" or (length == "short" and not rows):
        rows += [f"{9.0 + i!r},1.0" for i in range(draw(st.integers(1, 3)))]
    text = f"# logdiff-state t={t_text} n={n}\n" + "".join(r + "\n" for r in rows)
    return text


@given(snapshot_texts())
@settings(max_examples=60, deadline=None)
def test_bad_snapshot_raises_one_line_naming_the_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap_000.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_state(path)
        _assert_one_line(str(exc.value), path)


def test_nan_row_and_nan_time_name_the_file(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("# logdiff-state t=0.0 n=3\n0.1,1.0\n0.2,nan\n0.3,1.0\n")
    with pytest.raises(ValueError) as exc:
        load_state(path)
    assert str(exc.value) == f"{path}: conformal factor must be positive and finite"
    path.write_text("# logdiff-state t=nan n=3\n0.1,1.0\n0.2,1.0\n0.3,1.0\n")
    with pytest.raises(ValueError) as exc:
        load_state(path)
    assert str(exc.value) == f"{path}: time must be nonnegative and finite"


def test_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_bytes(b"# logdiff-state t=0.0 n=3\n0.1,1.0\n\xff\xfe,1.0\n0.3,1.0\n")
    with pytest.raises(ValueError) as exc:
        load_state(path)
    assert str(exc.value).startswith(f"{path}:3: malformed row")
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"\xff\xfe\n0,0.0,snap.txt\n")
    with pytest.raises(ValueError, match="not a trajectory manifest") as exc:
        load_trajectory(manifest)
    assert str(exc.value).startswith(str(manifest))


def test_over_long_manifest_field_names_the_file(tmp_path):
    # the csv module raises its own Error, not a ValueError, on a field over
    # its size limit; the fuzz cases below reach this only by chance
    manifest = tmp_path / "m.csv"
    manifest.write_text("index,time,file\n0,0.0," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError) as exc:
        load_trajectory(manifest)
    assert str(exc.value).startswith(f"{manifest}: malformed CSV: field larger than field limit")


# ------------------------------------------------------------------ manifests

MANIFEST_DEFECTS = ("snapshot", "time_listed", "times_unordered", "grid", "empty", "extra_entry",
                    "index", "nul_name", "long_field")


def _state_text(s, u, t):
    return f"# logdiff-state t={t!r} n={len(s)}\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(s, u))


@st.composite
def trajectory_dirs(draw):
    """{name: text} of a manifest "m.csv" and its snapshots, with one defect."""
    n_states = draw(st.integers(2, 4))
    s = [0.1, 0.2, 0.4, 0.8]
    times = [0.1 * (i + 1) for i in range(n_states)]
    files = {f"snap_{i:03d}.txt": _state_text(s, [1.0 + i] * len(s), t) for i, t in enumerate(times)}
    entries = [[str(i), repr(t), f"snap_{i:03d}.txt"] for i, t in enumerate(times)]
    defect = draw(st.sampled_from(MANIFEST_DEFECTS))
    k = draw(st.integers(0, n_states - 1))
    name = entries[k][2]
    if defect == "snapshot":
        files[name] = draw(snapshot_texts())
    elif defect == "time_listed":
        entries[k][1] = draw(st.sampled_from(BAD_FLOATS))
    elif defect == "times_unordered":
        # snapshot k holds an earlier time than snapshot k-1, and says so
        j = max(k, 1)
        bad_t = times[j - 1] - draw(st.sampled_from((0.0, 0.05)))
        files[entries[j][2]] = _state_text(s, [1.0] * len(s), bad_t)
        entries[j][1] = repr(bad_t)
    elif defect == "grid":
        files[name] = _state_text([0.1, 0.2, 0.5, 0.8], [1.0] * len(s), times[k])
    elif defect == "empty":
        entries = []
    elif defect == "extra_entry":
        entries.append([str(n_states)] + entries[-1][1:])
    elif defect == "index":
        entries[k][0] = str(k + draw(st.integers(1, 3)))
    elif defect == "nul_name":
        entries[k][2] = name.replace(".", "\0.")
    else:  # a field past the csv module's 131072-character limit
        entries[k][2] = "x" * 140_000
    files["m.csv"] = ("# config-hash=abc\nindex,time,file\n"
                      + "".join(",".join(e) + "\n" for e in entries))
    return files


@given(trajectory_dirs())
@settings(max_examples=60, deadline=None)
def test_bad_trajectory_raises_one_line_and_verify_exits_three(files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        manifest = Path(tmp) / "m.csv"
        with pytest.raises(ValueError) as exc:
            load_trajectory(manifest)
        _assert_one_line(str(exc.value), tmp)
        _cli_exits_three(["verify", str(manifest), str(manifest), "--out", str(Path(tmp) / "ver")],
                         f"error: {tmp}")
        assert not (Path(tmp) / "ver" / "verify_report.csv").exists()


# -------------------------------------------------------------------- configs

CONFIG_FIELDS = {  # (section, key): a valid value
    ("grid", "n"): "261",
    ("grid", "ratio"): "1.02",
    ("grid", "s_min"): "0.045",
    ("grid", "s_max"): "8.0",
    ("cutoff", "r0"): "0.55",
    ("cutoff", "r"): "0.9, 0.95",
    ("cutoff", "gamma"): "0.25",
    ("flow", "ramps"): "100.0, 1000.0",
    ("flow", "t"): "0.1",
    ("flow", "dt"): "0.001",
    ("flow", "sample_times"): "0.05, 0.1",
}
FLOAT_KEYS = [key for key in CONFIG_FIELDS if key != ("grid", "n")]
LIST_KEYS = [("cutoff", "r"), ("cutoff", "gamma"), ("flow", "ramps"), ("flow", "sample_times")]


@st.composite
def config_texts(draw):
    """Text of a config file with at least one non-finite value, and maybe
    an empty, doubled or unordered list and a structural defect."""
    values = dict(CONFIG_FIELDS)
    for key in draw(st.sets(st.sampled_from(LIST_KEYS), max_size=2)):
        # short (empty) and long lists, values out of order
        values[key] = draw(st.sampled_from(("", values[key] + ", " + values[key], "1000.0, 100.0")))
    for key in draw(st.sets(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=3)):
        toks = values[key].split(", ")
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_FLOATS))
        values[key] = ", ".join(toks)
    lines = ["[experiment]", "id = simulate"]
    for section in ("grid", "cutoff", "flow"):
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for (sec, k), v in values.items() if sec == section]
    tail = draw(st.sampled_from(("none", "duplicate_section", "cut_header", "blank_lines")))
    if tail == "duplicate_section":
        lines += ["[flow]", "t = 0.2"]
    elif tail == "cut_header":
        lines.append("[cuto")
    elif tail == "blank_lines":
        lines += [""] * draw(st.integers(1, 50))
    return "\n".join(lines) + "\n"


def test_empty_ramp_list_rejected(tmp_path):
    # simulate takes the first ramp, so an empty list must not validate
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nid = simulate\n[flow]\nramps =\n")
    with pytest.raises(ConfigError, match="ramps must not be empty"):
        parse_config(path)
    _cli_exits_three(["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
                     "config error: ")


def test_undecodable_config_names_the_file(tmp_path):
    path = tmp_path / "c.ini"
    path.write_bytes(b"[flow]\nt = 0.1\xff\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert str(exc.value).startswith(f"malformed file: {path}: ")
    _cli_exits_three(["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
                     "config error: malformed file: ")


@given(config_texts())
@settings(max_examples=60, deadline=None)
def test_bad_config_raises_one_line_and_cli_exits_three(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert "\n" not in str(exc.value)
        # the config is read before either manifest, so they need not exist
        _cli_exits_three(["verify", "none_g.csv", "none_G.csv", "--config", str(path),
                          "--out", str(Path(tmp) / "ver")], "config error: ")
