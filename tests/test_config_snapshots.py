import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from logdiff.config import ConfigError, ExperimentConfig, parse_config
from logdiff.geometry import BigBang, LogPolarGrid, model_state
from logdiff.snapshots import (
    hash_comment,
    load_state,
    load_trajectory,
    save_state,
    save_trajectory,
    write_rows_csv,
)
from logdiff.solver import Trajectory
from artifact_io import read_rows_csv, write_ini

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[experiment]
id = simulate

[cutoff]
r0 = 0.55
r = 0.9
gamma = 0.25

[flow]
ramps = 100.0, 1000.0
t = 0.1
dt = 0.001
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.experiment == "simulate"
        assert cfg.r0 == 0.55
        assert cfg.R_list == (0.9,)
        assert cfg.ramps == (100.0, 1000.0)
        assert cfg.T == 0.1

    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        out = tmp_path / "echo.ini"
        write_ini(cfg, out)
        again = parse_config(out)
        assert vars(again) == vars(cfg)
        assert again.config_hash == cfg.config_hash

    def test_unknown_key_listed(self, tmp_path):
        bad = MINIMAL + "\n[grid]\nn = 101\nwibble = 3\nwobble = 4\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, bad))
        msg = str(exc.value)
        assert "unknown keys in [grid]" in msg
        assert "wibble" in msg and "wobble" in msg

    @pytest.mark.parametrize("key", ["seed", "out_dir"])
    def test_dropped_keys_are_unknown(self, tmp_path, key):
        bad = MINIMAL.replace("id = simulate\n", f"id = simulate\n{key} = 0\n")
        with pytest.raises(ConfigError, match=rf"unknown keys in \[experiment\]: {key}"):
            parse_config(write(tmp_path, bad))

    def test_unknown_section(self, tmp_path):
        bad = MINIMAL + "\n[plotting]\nstyle = dark\n"
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            parse_config(write(tmp_path, bad))

    def test_r0_out_of_range_cites_invariant(self, tmp_path):
        bad = MINIMAL.replace("r0 = 0.55", "r0 = 0.4")
        with pytest.raises(ConfigError, match=r"r0"):
            parse_config(write(tmp_path, bad))
        # the message repeats the library invariant, open interval (1/2, 1)
        try:
            parse_config(write(tmp_path, bad, "b2.ini"))
        except ConfigError as e:
            assert "(1/2, 1)" in str(e)

    def test_R_equal_r0_cites_cube_root(self, tmp_path):
        bad = MINIMAL.replace("r = 0.9", "r = 0.55")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, bad))
        assert "r0^{1/3}" in str(exc.value)

    def test_all_errors_collected(self, tmp_path):
        bad = MINIMAL.replace("r0 = 0.55", "r0 = 0.4").replace("t = 0.1", "t = -1")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, bad))
        assert len(exc.value.errors) >= 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_malformed_float(self, tmp_path):
        bad = MINIMAL.replace("dt = 0.001", "dt = banana")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(write(tmp_path, bad))

    def test_sample_times_outside_horizon(self, tmp_path):
        bad = MINIMAL + "sample_times = 0.05, 0.2\n"
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write(tmp_path, bad))

    def test_decreasing_ramps_rejected(self, tmp_path):
        bad = MINIMAL.replace("ramps = 100.0, 1000.0", "ramps = 1000.0, 100.0")
        with pytest.raises(ConfigError, match="ramps must be strictly increasing"):
            parse_config(write(tmp_path, bad))

    def test_grid_bounds_defaults(self):
        cfg = ExperimentConfig()
        lo, hi = cfg.grid_bounds(R=math.exp(-0.18))
        assert lo == pytest.approx(0.045)
        assert hi == 8.0  # max(8, 4*s0) with s0 = -log 0.55 = 0.598

    def test_grid_bounds_pinned(self):
        cfg = ExperimentConfig(s_min=0.01, s_max=10.0)
        assert cfg.grid_bounds(0.9) == (0.01, 10.0)

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig(T=-1.0)
        with pytest.raises(ConfigError, match="s_min must be positive"):
            ExperimentConfig(s_min=0.0)
        with pytest.raises(TypeError, match="seed"):
            ExperimentConfig(seed=1)

    def test_hash_differs_on_change(self):
        a = ExperimentConfig()
        b = ExperimentConfig(n=301)
        assert a.config_hash != b.config_hash

    @pytest.mark.parametrize("kwargs", [{}, {"n": 301}, {"T": 0.2, "sample_times": (0.05, 0.1)}])
    def test_hash_is_sha1_of_the_fields(self, kwargs):
        # the config hash is SHA-1 however it is computed: every artifact
        # written so far records it
        cfg = ExperimentConfig(**kwargs)
        names = ("experiment", "s_min", "s_max", "n", "ratio", "r0", "R_list", "gamma_list",
                 "ramps", "T", "dt", "sample_times")
        text = "|".join(f"{name}={getattr(cfg, name)!r}" for name in names)
        assert cfg.config_hash == hashlib.sha1(text.encode()).hexdigest()[:12]

    def test_hash_of_a_shipped_config_is_pinned(self):
        assert parse_config(CONFIGS / "uniqueness_small.ini").config_hash == "6aff5a801ca5"


@pytest.mark.parametrize("payload", ["demo", "", "6aff5a801ca5", "γ = 0.25, R ≈ 0.835 · e^{-s}"])
def test_hash_comment_is_sha1_of_the_utf8_payload(payload):
    digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]
    assert hash_comment(payload) == "# config-hash=" + digest


class TestSnapshots:
    def bigbang_state(self, t=0.5):
        grid = LogPolarGrid.graded(0.05, 6.0, 101, 1.03)
        return model_state(BigBang(), grid, t)

    def test_state_roundtrip_bitwise(self, tmp_path):
        st = self.bigbang_state()
        p = tmp_path / "state.txt"
        save_state(st, p)
        back = load_state(p)
        assert back.time == st.time
        assert np.array_equal(back.grid.nodes, st.grid.nodes)
        assert np.array_equal(back.values, st.values)

    def test_header_format(self, tmp_path):
        st = self.bigbang_state(t=0.25)
        p = tmp_path / "state.txt"
        save_state(st, p)
        first = p.read_text().splitlines()[0]
        assert first == f"# logdiff-state t=0.25 n={st.grid.n}"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("hello\n1,2\n")
        with pytest.raises(ValueError, match="not a logdiff-state"):
            load_state(p)

    def test_truncated_file_rejected(self, tmp_path):
        st = self.bigbang_state()
        p = tmp_path / "state.txt"
        save_state(st, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:50]) + "\n")
        with pytest.raises(ValueError, match="file ended"):
            load_state(p)

    def test_trailing_rows_rejected(self, tmp_path):
        st = self.bigbang_state()
        p = tmp_path / "state.txt"
        save_state(st, p)
        with open(p, "a") as fh:
            fh.write("9.0,1.0\n")
        with pytest.raises(ValueError, match="trailing"):
            load_state(p)

    def test_malformed_row_named_by_line(self, tmp_path):
        st = self.bigbang_state()
        p = tmp_path / "state.txt"
        save_state(st, p)
        lines = p.read_text().splitlines()
        for bad in ("s,U,7", "0.5;1.0", "0.5,nan?"):
            lines[2] = bad
            p.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as exc:
                load_state(p)
            assert str(exc.value) == f"{p}:3: malformed row {bad!r}, expected s,U"

    def make_traj(self):
        grid = LogPolarGrid.uniform(0.1, 5.0, 61)
        states = tuple(model_state(BigBang(), grid, t) for t in (0.2, 0.4, 0.6))
        return Trajectory(states=states)

    def test_trajectory_roundtrip(self, tmp_path):
        traj = self.make_traj()
        manifest = save_trajectory(traj, tmp_path / "run", hash_payload="demo")
        back = load_trajectory(manifest)
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(back.states, traj.states):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("column, value, match", [
        ("index", "2", "entry 1 has index '2'"),
        ("index", "", "entry 1 has index ''"),
        ("time", "0.5", "lists time '0.5'"),
        ("time", "0.4000000000000001", "lists time"),
        ("time", "soon", "lists time 'soon'"),
    ])
    def test_manifest_row_must_match_position_and_snapshot(self, tmp_path, column, value, match):
        manifest = save_trajectory(self.make_traj(), tmp_path / "run", hash_payload="demo")
        rows = read_rows_csv(manifest)
        rows[1][column] = value
        write_rows_csv(manifest, ["index", "time", "file"], rows, "demo")
        with pytest.raises(ValueError, match=match):
            load_trajectory(manifest)

    def test_manifest_has_hash_comment(self, tmp_path):
        traj = self.make_traj()
        manifest = save_trajectory(traj, tmp_path / "run", hash_payload="demo")
        with open(manifest) as fh:
            assert fh.readline().startswith("# config-hash=")

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# config-hash=abc\nindex,time,file\n")
        with pytest.raises(ValueError, match="empty manifest"):
            load_trajectory(p)

    def test_non_manifest_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not a trajectory manifest"):
            load_trajectory(p)

    def test_save_is_deterministic(self, tmp_path):
        traj = self.make_traj()
        m1 = save_trajectory(traj, tmp_path / "r1", hash_payload="same")
        m2 = save_trajectory(traj, tmp_path / "r2", hash_payload="same")
        with open(m1) as f1, open(m2) as f2:
            assert f1.read() == f2.read()
        s1 = (tmp_path / "r1" / "snap_000.txt").read_text()
        s2 = (tmp_path / "r2" / "snap_000.txt").read_text()
        assert s1 == s2


class TestRowsCsv:
    def test_roundtrip_and_hash_line(self, tmp_path):
        rows = [{"a": 1.5, "b": "x"}, {"a": 2.25, "b": "y"}]
        p = tmp_path / "t.csv"
        write_rows_csv(p, ["a", "b"], rows, "payload")
        text = p.read_text().splitlines()
        assert text[0].startswith("# config-hash=")
        assert text[1] == "a,b"
        back = read_rows_csv(p)
        assert [float(r["a"]) for r in back] == [1.5, 2.25]

    def test_identical_payload_identical_artifact(self, tmp_path):
        rows = [{"a": 0.1}]
        write_rows_csv(tmp_path / "x.csv", ["a"], rows, "p")
        write_rows_csv(tmp_path / "y.csv", ["a"], rows, "p")
        assert (tmp_path / "x.csv").read_text() == (tmp_path / "y.csv").read_text()

    def test_write_creates_missing_parent_directories(self, tmp_path, monkeypatch):
        nested = tmp_path / "a" / "b" / "t.csv"
        write_rows_csv(nested, ["a"], [{"a": 1.5}], "p")
        assert [float(r["a"]) for r in read_rows_csv(nested)] == [1.5]
        assert sorted(f.name for f in nested.parent.iterdir()) == ["t.csv"]
        # a bare file name has no directory part to create
        monkeypatch.chdir(tmp_path)
        write_rows_csv("bare.csv", ["a"], [{"a": 2.5}], "p")
        assert [float(r["a"]) for r in read_rows_csv(tmp_path / "bare.csv")] == [2.5]

    def test_failed_write_keeps_previous_artifact(self, tmp_path):
        p = tmp_path / "t.csv"
        write_rows_csv(p, ["a"], [{"a": 1.5}], "old")
        before = p.read_bytes()
        # the second row lacks its column, so the writer raises after the
        # hash comment, the header and one row are already written
        with pytest.raises(KeyError):
            write_rows_csv(p, ["a"], [{"a": 2.5}, {}], "new")
        assert p.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["t.csv"]
