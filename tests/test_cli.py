"""Exit-code semantics and artifact round trips for the command line."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from logdiff import cutoff, estimates, experiments
from logdiff.cli import _default_uniqueness_config, main
from logdiff.config import ExperimentConfig, parse_config
from logdiff.snapshots import load_trajectory
from logdiff.solver import RunError
from artifact_io import read_rows_csv, write_ini

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _pair_configs(tmp_path, k_lo, k_hi):
    """Two single-ramp configs sharing grid, window, and cutoff."""
    base = dict(
        experiment="simulate",
        n=261,
        ratio=1.02,
        r0=0.55,
        R_list=(math.exp(-0.18),),
        gamma_list=(0.25,),
        T=0.1,
        dt=1e-3,
        sample_times=(0.02, 0.04, 0.06, 0.08, 0.1),
    )
    lo = tmp_path / "lo.ini"
    hi = tmp_path / "hi.ini"
    write_ini(ExperimentConfig(ramps=(k_lo,), **base), lo)
    write_ini(ExperimentConfig(ramps=(k_hi,), **base), hi)
    return lo, hi


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no help line wraps
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert re.findall(r"^    (\S+) +(.+)$", capsys.readouterr().out, re.M) == [
        ("exact-suite", "convergence orders against closed-form flows"),
        ("q-sweep", "Q integral against its analytic bound over (r0, R, gamma)"),
        ("uniqueness", "interior differences between exhaustion ramps, per R"),
        ("boundary-layer", "boundary layer width exponent (exploratory, never gates)"),
        ("simulate", "evolve one exhaustion trajectory and write snapshots"),
        ("verify", "replay estimate certificates on two snapshot trajectories"),
    ]


def test_usage_errors_exit_three():
    # 2 is reserved for certificate failures; bad command lines get 3
    # no subcommand takes --jobs, so it is a usage error everywhere; the
    # exact suite's studies are fixed, so it takes no --config either
    for argv in ([], ["wibble"], ["verify", "only_one.csv"], ["simulate", "--jobs", "2"],
                 ["boundary-layer", "--jobs", "2"], ["exact-suite", "--jobs", "2"],
                 ["uniqueness", "--jobs", "2"], ["exact-suite", "--config", "x.ini"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3


def test_exact_suite_passes(tmp_path, capsys):
    rc = main(["exact-suite", "--out", str(tmp_path)])
    assert rc == 0
    assert "exact-suite: PASS" in capsys.readouterr().out
    assert (tmp_path / "exact_suite.csv").exists()


def test_q_sweep_config_driven(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment="q-sweep",
        r0=0.6,
        R_list=(0.85, 0.9, 0.95),
        gamma_list=(0.25,),
    )
    path = tmp_path / "q.ini"
    write_ini(cfg, path)
    rc = main(["q-sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert "q-sweep: PASS" in capsys.readouterr().out
    rows = [ln for ln in (tmp_path / "q_sweep.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 3  # header + one row per R


@pytest.mark.parametrize("growth, monotone", [(1e-12 / 3.0, True), (3e-12, False)])
def test_q_rising_with_R_fails_the_q_sweep(tmp_path, capsys, monkeypatch, growth, monotone):
    # Q may rise with R inside one (r0, gamma) group by 1e-12 relative
    # (roundoff) and no more.  Planted Q values rise by growth at each R.
    Rs = (0.85, 0.9, 0.95)
    cfg = ExperimentConfig(experiment="q-sweep", r0=0.6, R_list=Rs, gamma_list=(0.25,))
    path = tmp_path / "q.ini"
    write_ini(cfg, path)
    real = experiments._q_task

    def rising(point):
        return dict(real(point), Q=(1.0 + growth) ** Rs.index(point[1]))

    monkeypatch.setattr(experiments, "_q_task", rising)
    result = experiments.run_q_sweep(cfg)
    assert (result.monotone_in_R, result.passed) == (monotone, monotone)
    rc = main(["q-sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == (0 if monotone else 2)
    out = capsys.readouterr().out
    assert f"monotone={monotone} " in out
    assert ("q-sweep: PASS" if monotone else "q-sweep: FAIL") in out


def test_certificate_that_raises_fails_uniqueness(tmp_path, capsys, monkeypatch):
    # a pair whose certificate cannot be computed is a failure named by its
    # R, pair and gamma, never a pass
    def broken(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(experiments, "interior_area_verify", broken)
    config = CONFIGS / "uniqueness_small.ini"
    cfg = parse_config(config)
    result = experiments.run_uniqueness_experiment(cfg)
    assert result.failures == tuple(f"R={R:g} pair=0 gamma=0.25: planted" for R in sorted(cfg.R_list))
    assert (result.all_certified, result.passed, result.rows) == (False, False, ())
    assert main(["uniqueness", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "uniqueness: FAIL" in capsys.readouterr().out


def test_uniqueness_rows_follow_their_config(tmp_path, capsys):
    # the shipped uniqueness_small.ini equals the no-config default, so the
    # goldens cannot tell a config that is read from one that is ignored:
    # this config differs from the default in every list field uniqueness
    # reads, and the CSV must hold its R, ramp pairs, gammas and times
    Rs, ramps = (0.92, 0.95, 0.975), (150.0, 500.0, 1500.0)
    gammas, samples = (0.2, 0.3), (0.03, 0.06, 0.08)
    default = _default_uniqueness_config()
    assert set(Rs).isdisjoint(default.R_list) and set(ramps).isdisjoint(default.ramps)
    assert set(gammas).isdisjoint(default.gamma_list)
    assert set(samples).isdisjoint(default.sample_times)
    path = tmp_path / "u.ini"
    write_ini(ExperimentConfig(experiment="uniqueness", r0=0.75, R_list=Rs, gamma_list=gammas,
                               ramps=ramps, T=0.08, dt=1e-3, n=161, ratio=1.04,
                               sample_times=samples), path)
    assert main(["uniqueness", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "uniqueness: PASS" in capsys.readouterr().out
    rows = read_rows_csv(tmp_path / "uniqueness.csv")
    got = [tuple(float(r[key]) for key in ("R", "k_lo", "k_hi", "gamma", "t")) for r in rows]
    assert got == [(R, lo, hi, gamma, t) for R in Rs for lo, hi in zip(ramps, ramps[1:])
                   for gamma in gammas for t in samples]


def test_q_sweep_whose_every_row_failed_exits_two(tmp_path, capsys, monkeypatch):
    # rules of 4 and 6 points cannot reach the Q tolerance, so no row has a
    # ratio: the run is a FAIL with its failed rows written, not an error
    monkeypatch.setattr(cutoff, "_RULE_SIZES", (4,))
    path = tmp_path / "q.ini"
    write_ini(ExperimentConfig(experiment="q-sweep", r0=0.55, R_list=(0.86, 0.995),
                               gamma_list=(0.3,)), path)
    assert main(["q-sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "  2 rows, worst Q/bound ratio nan\n" in out
    assert out.endswith("q-sweep: FAIL\n") and err == ""
    rows = read_rows_csv(tmp_path / "q_sweep.csv")
    assert len(rows) == 2 and all(r["status"].startswith("failed: ") for r in rows)


def _plant_run_error(monkeypatch, n_runs, index):
    """experiments.evolve_many, except that in the call of n_runs runs the
    run at index ends in a planted RunError."""
    real = experiments.evolve_many

    def planted(runs):
        out = real(runs)
        if len(runs) == n_runs:
            out[index] = RunError("planted", None)
        return out

    monkeypatch.setattr(experiments, "evolve_many", planted)


def test_uniqueness_skips_the_pair_of_a_failed_member(tmp_path, capsys, monkeypatch):
    # the default config runs 3 R x 2 ramps; member 2 is the lower ramp at
    # the middle R, whose one pair then has no rows and is a failure
    cfg = _default_uniqueness_config()
    Rs = sorted(cfg.R_list)
    _plant_run_error(monkeypatch, 6, 2)
    result = experiments.run_uniqueness_experiment(cfg)
    assert result.failures == (f"R={Rs[1]:g} k=100: planted",)
    assert {row["R"] for row in result.rows} == {Rs[0], Rs[2]}
    assert not result.passed
    assert main(["uniqueness", "--out", str(tmp_path)]) == 2
    assert "uniqueness: FAIL" in capsys.readouterr().out
    assert {float(r["R"]) for r in read_rows_csv(tmp_path / "uniqueness.csv")} == {Rs[0], Rs[2]}


def test_failed_gauge_run_exits_three(tmp_path, capsys, monkeypatch):
    # the gauge's three runs: a failed one has no terminal state to compare
    _plant_run_error(monkeypatch, 3, 1)
    assert main(["uniqueness", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "solver error: planted\n"


def test_boundary_layer_without_a_layer_reports_nan(tmp_path, capsys):
    # a ramp of 1e-3 never doubles the flat data: every width is 0, no
    # exponent can be fitted, and the exploratory run still exits 0
    path = tmp_path / "bl.ini"
    write_ini(ExperimentConfig(experiment="boundary-layer", ramps=(0.001,)), path)
    assert main(["boundary-layer", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fitted exponent p = nan (exploratory window [0.35, 0.65]: out of range)" in out
    widths = [float(r["width"]) for r in read_rows_csv(tmp_path / "boundary_layer.csv")]
    assert len(widths) == 9 and set(widths) == {0.0}


@pytest.mark.parametrize("s_min", [4.0, 9.0])
def test_boundary_layer_s_min_at_or_past_its_grid_end_exits_three(tmp_path, capsys, s_min):
    # boundary-layer's grid ends at s = 4 whatever the config says, so a
    # config s_min there or beyond is a config error naming the window
    path = tmp_path / "bl.ini"
    write_ini(ExperimentConfig(experiment="boundary-layer", s_min=s_min), path)
    assert main(["boundary-layer", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (f"config error: grid on [s_min, 4] = [{s_min:g}, 4]: "
                                       "need 0 < s_min < s_max and n >= 3\n")
    assert not (tmp_path / "out").exists()


def test_failed_exact_suite_run_fails_the_suite(tmp_path, capsys, monkeypatch):
    # 17 runs in study order: run 0 is the first static level
    _plant_run_error(monkeypatch, 17, 0)
    assert main(["exact-suite", "--out", str(tmp_path)]) == 2
    assert "exact-suite: FAIL" in capsys.readouterr().out
    statuses = [r["status"] for r in read_rows_csv(tmp_path / "exact_suite.csv")]
    assert statuses[0] == "failed: planted" and statuses.count("ok") == len(statuses) - 1


@pytest.mark.parametrize("command", ["q-sweep", "simulate"])
def test_out_naming_a_file_exits_three(tmp_path, capsys, command):
    # the writer makes the artifact directory; an existing file is in the way
    path = tmp_path / "cfg.ini"
    write_ini(ExperimentConfig(experiment=command, r0=0.55, R_list=(0.86,), gamma_list=(0.3,),
                               ramps=(100.0,), T=0.01, dt=1e-3, n=41), path)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert out.read_text() == "not a directory\n"


def test_simulate_verify_roundtrip_passes(tmp_path, capsys):
    # ramps at 2x and 10x the barrier rate 2H(s_min): every certificate holds
    two_H = 2.0 / math.sinh(0.045) ** 2
    lo, hi = _pair_configs(tmp_path, 2.0 * two_H, 10.0 * two_H)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "lo")]) == 0
    assert main(["simulate", "--config", str(hi), "--out", str(tmp_path / "hi")]) == 0
    rc = main([
        "verify",
        str(tmp_path / "lo" / "snap_manifest.csv"),
        str(tmp_path / "hi" / "snap_manifest.csv"),
        "--config", str(lo),
        "--out", str(tmp_path / "ver"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    report = (tmp_path / "ver" / "verify_report.csv").read_text()
    assert report.startswith("# config-hash=")
    assert "lower-barrier" in report and "interior-area" in report

    # the same pair given larger flow first is refused, not passed vacuously
    rc = main([
        "verify",
        str(tmp_path / "hi" / "snap_manifest.csv"),
        str(tmp_path / "lo" / "snap_manifest.csv"),
        "--config", str(lo),
        "--out", str(tmp_path / "rev"),
    ])
    assert rc == 3
    assert "reverse order" in capsys.readouterr().err
    assert not (tmp_path / "rev" / "verify_report.csv").exists()


def test_simulate_reruns_are_byte_identical(tmp_path):
    lo, _ = _pair_configs(tmp_path, 2e3, 2e4)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "b")]) == 0
    for name in ("snap_manifest.csv", "snap_000.txt", "snap_005.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_verify_shallow_pair_fails_with_two(tmp_path, capsys):
    # k = 1e2 does not dominate the barrier rate, so verify honestly fails
    lo, hi = _pair_configs(tmp_path, 1e2, 1e3)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "lo")]) == 0
    assert main(["simulate", "--config", str(hi), "--out", str(tmp_path / "hi")]) == 0
    rc = main([
        "verify",
        str(tmp_path / "lo" / "snap_manifest.csv"),
        str(tmp_path / "hi" / "snap_manifest.csv"),
        "--config", str(lo),
        "--out", str(tmp_path / "ver"),
    ])
    assert rc == 2
    assert "verify: FAIL" in capsys.readouterr().out


def test_bad_config_exits_three(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nn = banana\n")
    rc = main(["q-sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "ramps = 100\n",                                # no section header
    "[grid]\nn = 41\nn = 42\n",                    # duplicate key
    "[grid]\nn = 41\n[grid]\nratio = 1.02\n",      # duplicate section
    "[grid]\nn = 41\n[flow\nramps = 100\n",        # broken section line
    "[flow]\nramps = 100%\n",                       # '%' is a value, not a reference
    "[cutoff]\nr = 0.9139, 0.9139, 0.9704\n",       # two distinct R values, listed as three
    "[cutoff]\ngamma = 0.25, 0.25\n",               # one gamma, listed twice
], ids=["no-header", "duplicate-key", "duplicate-section", "broken-section", "percent",
        "repeated-R", "repeated-gamma"])
def test_malformed_ini_exits_three_on_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err


_FULL_SIMULATE_INI = {
    "grid": {"s_min": "0.045", "s_max": "8.0", "n": "41", "ratio": "1.02"},
    "cutoff": {"r0": "0.55", "r": "0.835270211411272", "gamma": "0.25"},
    "flow": {"ramps": "1973.98", "t": "0.1", "dt": "0.001", "sample_times": "0.05, 0.1"},
}
_FIELD_OF_KEY = {"r": "R_list", "gamma": "gamma_list", "t": "T"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _FULL_SIMULATE_INI.items() for key in keys if key != "n"])
def test_non_finite_float_exits_three(tmp_path, capsys, section, key, value):
    sections = {name: dict(keys) for name, keys in _FULL_SIMULATE_INI.items()}
    sections[section][key] = value
    path = tmp_path / "nonfinite.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert f"{_FIELD_OF_KEY.get(key, key)} must be finite" in capsys.readouterr().err


def test_infinite_ramp_in_uniqueness_exits_three(tmp_path, capsys):
    path = tmp_path / "u.ini"
    path.write_text("[experiment]\nid = uniqueness\n[flow]\nramps = 100, inf\n")
    rc = main(["uniqueness", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert "config error: ramps must be finite" in capsys.readouterr().err


def test_repeated_ramp_in_uniqueness_exits_three(tmp_path, capsys):
    # two equal ramps give two bitwise-equal runs, whose certificates compare nothing
    shipped = (CONFIGS / "uniqueness_small.ini").read_text()
    assert "ramps = 100.0, 1000.0\n" in shipped
    path = tmp_path / "u.ini"
    path.write_text(shipped.replace("ramps = 100.0, 1000.0\n", "ramps = 100.0, 100.0\n"))
    rc = main(["uniqueness", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "config error: ramps must be strictly increasing\n"


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nid = banana\n",
     "experiment id 'banana' not one of ('uniqueness', 'q-sweep', 'boundary-layer', 'simulate')"),
    ("[grid]\nn = 15\n", "grid n must be at least 16"),
    ("[grid]\nratio = 0.99\n", "grid ratio must be >= 1"),
    ("[flow]\nramps = 0, 100\n", "ramps must be positive"),
], ids=["experiment-id", "n", "ratio", "ramp"])
def test_each_invalid_value_exits_three_naming_it(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, edit, keys", [
    ("simulate", "uniqueness_small.ini", None, ["r", "ramps"]),
    ("simulate", "exhaustion_lo.ini", ("gamma = 0.25\n", "gamma = 0.25, 0.4\n"), ["gamma"]),
    ("verify", "q_sweep_custom.ini", None, ["r", "gamma"]),
], ids=["simulate-R-and-ramps", "simulate-gamma", "verify-R-and-gamma"])
def test_several_values_of_a_member_key_exit_three(shipped_pair, tmp_path, capsys,
                                                    command, config, edit, keys):
    # simulate runs, and verify certifies, one member; neither may run the
    # first of several listed values and drop the rest unread
    path = CONFIGS / config
    if edit is not None:
        text = path.read_text()
        assert edit[0] in text
        path = tmp_path / config
        path.write_text(text.replace(*edit))
    manifests = ([str(shipped_pair / run / "snap_manifest.csv") for run in ("lo", "hi")]
                 if command == "verify" else [])
    rc = main([command, *manifests, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert re.findall(r"takes one value of (\w+), got \d+", err) == keys
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print more lines
@pytest.mark.parametrize("command, config", [
    ("uniqueness", "uniqueness_small.ini"), ("simulate", "exhaustion_lo.ini")])
@pytest.mark.parametrize("pattern, replacement, reason", [
    (r"\[grid\]\n", "[grid]\ns_min = 9\n", "on [9, 8]: need 0 < s_min < s_max"),
    (r"ratio = \S+", "ratio = 30", ": nodes must be "),
    (r"\[grid\]\n", "[grid]\ns_max = 400\n", ": conformal factor must be positive"),
], ids=["s_min-beyond-s_max", "ratio-too-steep", "flat-start-underflows"])
def test_config_whose_grid_cannot_be_built_exits_three(tmp_path, capsys, command, config,
                                                       pattern, replacement, reason):
    # s_max derives to 8 here; ratio 30 leaves cells below the resolution of
    # s, or overflows; the flat factor underflows to 0 well before s = 400
    path = tmp_path / config
    path.write_text(re.sub(pattern, replacement, (CONFIGS / config).read_text()))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: grid at R=")
    assert reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    ("boundary-layer", "uniqueness_small.ini"), ("q-sweep", "q_sweep_custom.ini")])
def test_commands_without_exhaustion_grids_run_any_grid(tmp_path, capsys, command, config):
    # neither command builds a grid from n, ratio and s_max, so a ratio no
    # grid can take does not stop them; boundary-layer notes that it ignores it
    path = tmp_path / config
    path.write_text(re.sub(r"ratio = \S+", "ratio = 30", (CONFIGS / config).read_text()))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert ("note: boundary-layer ignores ratio = 30" in err) == (command == "boundary-layer")
    assert "error" not in err


@pytest.mark.parametrize("command", ["simulate", "uniqueness"])
@pytest.mark.parametrize("times", ["0.1, 0.05", "0.05, 0.05, 0.1"], ids=["decreasing", "repeated"])
def test_sample_times_not_increasing_exit_three(tmp_path, capsys, command, times):
    # rows are written in the listed order and the last listed time is read
    # as the final one, so an unsorted list would misreport the run
    path = tmp_path / "bad.ini"
    path.write_text(f"[flow]\nramps = 100, 1000\nsample_times = {times}\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "config error: sample times must be strictly increasing\n"


def test_bare_import_loads_no_runner_and_no_scipy():
    code = ("import sys, logdiff; "
            "print(sorted(m for m in ('logdiff.experiments', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_lapack_without_the_scipy_linalg_package():
    # the solver loads scipy's compiled LAPACK wrapper on its own: the
    # scipy.linalg package init would import numpy.f2py, numpy.testing and
    # more, about 0.2 s of every command's start-up, and the scipy package
    # init ten modules, subprocess among them.  The config hash's SHA-1 is
    # the built-in one, not OpenSSL's _hashlib.  The records are built
    # without dataclasses, whose decorations took about half of the
    # package's own import time, and so without copy, which it loads
    names = ("scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
             "subprocess", "_hashlib", "dataclasses", "copy", "scipy.linalg._flapack")
    code = f"import sys, logdiff.cli; print([m for m in {names!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"


def test_config_hash_without_the_builtin_sha1():
    # where the interpreter has no built-in _sha1, hashlib's SHA-1 gives the
    # same config hash
    path = CONFIGS / "uniqueness_small.ini"
    code = ("import sys; sys.modules['_sha1'] = None; import logdiff.cli; "
            "from logdiff.config import parse_config; "
            f"print(parse_config({str(path)!r}).config_hash, 'hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [parse_config(path).config_hash, "True"]


def _fresh_interpreter(module, setup="pass", **env):
    # runs setup, then imports module in a new process with
    # OPENBLAS_NUM_THREADS unset unless given; prints the variable, the thread
    # count (None without /proc), the collector's frozen-object count and
    # whether the collector is on
    code = (f"import gc, os; {setup}; import {module}; task = '/proc/self/task'; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
            "len(os.listdir(task)) if os.path.isdir(task) else None, "
            "gc.get_freeze_count(), gc.isenabled())")
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**child_env, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_starts_no_openblas_worker_threads():
    variable, threads, *_ = _fresh_interpreter("logdiff.cli")
    assert variable == "1"
    assert threads in ("1", "None")


def test_cli_import_keeps_a_callers_openblas_setting():
    assert _fresh_interpreter("logdiff.cli", OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_bare_import_leaves_openblas_setting_alone():
    assert _fresh_interpreter("logdiff")[0] == "None"


def test_cli_import_freezes_its_modules_and_keeps_the_collector_on():
    *_, frozen, enabled = _fresh_interpreter("logdiff.cli")
    assert int(frozen) > 0
    assert enabled == "True"


@pytest.mark.parametrize("module", ["logdiff", "logdiff.solver"])
def test_bare_import_leaves_the_collector_alone(module):
    *_, frozen, enabled = _fresh_interpreter(module)
    assert frozen == "0"
    assert enabled == "True"


def test_cli_import_keeps_a_callers_collector_off():
    *_, enabled = _fresh_interpreter("logdiff.cli", setup="gc.disable()")
    assert enabled == "False"


def test_missing_manifest_exits_three(tmp_path):
    rc = main(["verify", "nope.csv", "also_nope.csv", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("absolute", [False, True])
def test_manifest_entry_outside_its_directory_exits_three(tmp_path, capsys, absolute):
    lo, _ = _pair_configs(tmp_path, 2e3, 2e4)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "run")]) == 0
    snap = tmp_path / "run" / "snap_000.txt"
    entry = str(snap) if absolute else "../run/snap_000.txt"
    other = tmp_path / "other"
    other.mkdir()
    manifest = other / "m.csv"
    manifest.write_text(f"# config-hash=abc\nindex,time,file\n0,0.0,{entry}\n")
    rc = main(["verify", str(manifest), str(manifest), "--out", str(tmp_path / "ver")])
    assert rc == 3
    assert "not a file name" in capsys.readouterr().err


def _verify_alone(tmp_path, manifest):
    return main(["verify", str(manifest), str(manifest), "--out", str(tmp_path / "ver")])


def test_one_snapshot_pair_exits_three(tmp_path, capsys):
    # a pair holding only the initial state has nothing evolved to certify
    lo, _ = _pair_configs(tmp_path, 2e3, 2e4)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "run")]) == 0
    manifest = tmp_path / "run" / "first.csv"
    manifest.write_text("# config-hash=abc\nindex,time,file\n0,0.0,snap_000.txt\n")
    capsys.readouterr()
    assert _verify_alone(tmp_path, manifest) == 3
    err = capsys.readouterr().err
    assert "fewer than two sample times" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "ver" / "verify_report.csv").exists()


@pytest.mark.parametrize("column, value, message", [
    ("time", "0.5", "lists time '0.5' but snap_001.txt holds t=0.02"),
    ("index", "7", "entry 1 has index '7'"),
])
def test_manifest_row_disagreeing_with_its_snapshot_exits_three(tmp_path, capsys, column, value,
                                                                message):
    lo, _ = _pair_configs(tmp_path, 2e3, 2e4)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "run")]) == 0
    manifest = tmp_path / "run" / "snap_manifest.csv"
    lines = manifest.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[3].split(",")
    assert cells[header.index("file")] == "snap_001.txt"
    cells[header.index(column)] = value
    lines[3] = ",".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _verify_alone(tmp_path, manifest) == 3
    assert message in capsys.readouterr().err


def test_malformed_snapshot_row_exits_three_naming_the_line(tmp_path, capsys):
    lo, _ = _pair_configs(tmp_path, 2e3, 2e4)
    assert main(["simulate", "--config", str(lo), "--out", str(tmp_path / "run")]) == 0
    snap = tmp_path / "run" / "snap_003.txt"
    lines = snap.read_text().splitlines()
    lines[4] = "s,U,7"
    snap.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _verify_alone(tmp_path, tmp_path / "run" / "snap_manifest.csv") == 3
    err = capsys.readouterr().err
    assert f"{snap}:5: malformed row 's,U,7'" in err
    assert "unpack" not in err


def test_uniqueness_precondition_exits_three(tmp_path, capsys):
    # a config short of ramps and of R values is told both, by INI key
    cfg = ExperimentConfig(
        experiment="uniqueness",
        r0=0.75,
        R_list=(0.92,),
        gamma_list=(0.25,),
        ramps=(1e3,),
    )
    path = tmp_path / "u.ini"
    write_ini(cfg, path)
    rc = main(["uniqueness", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "config error: uniqueness needs at least 2 ramps ([flow] ramps), got 1: 1000; "
        "uniqueness needs at least 3 R values ([cutoff] r), got 1: 0.92\n")


def test_experiment_id_mismatch_warns_but_runs(tmp_path, capsys):
    cfg = ExperimentConfig(experiment="simulate", r0=0.6, R_list=(0.9,), gamma_list=(0.25,))
    path = tmp_path / "c.ini"
    write_ini(cfg, path)
    rc = main(["q-sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "config says experiment=simulate" in captured.err


def test_shipped_config_note_only_on_mismatch(tmp_path, capsys):
    # verify replays simulate runs, so a simulate config is no mismatch there
    lo = str(CONFIGS / "exhaustion_lo.ini")
    hi = str(CONFIGS / "exhaustion_hi.ini")
    assert main(["simulate", "--config", lo, "--out", str(tmp_path / "lo")]) == 0
    assert main(["simulate", "--config", hi, "--out", str(tmp_path / "hi")]) == 0
    capsys.readouterr()
    rc = main([
        "verify",
        str(tmp_path / "lo" / "snap_manifest.csv"),
        str(tmp_path / "hi" / "snap_manifest.csv"),
        "--config", lo,
        "--out", str(tmp_path / "ver"),
    ])
    assert rc == 0
    # no config note; the only notes name the families the pair gates off,
    # because the ramps pull K below -1 first at t = 0.02
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": K_min = ")[0] for line in err] == [
        "note: damped-monotone-g gated off, no rows", "note: damped-monotone-G gated off, no rows"]
    assert all(line.endswith(" < -1.000001 at t=0.02") for line in err)
    # the shipped manifests pass the index and time checks of load_trajectory
    for run in ("lo", "hi"):
        traj = load_trajectory(tmp_path / run / "snap_manifest.csv")
        assert list(traj.times) == [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
    assert main(["q-sweep", "--config", lo, "--out", str(tmp_path / "q")]) == 0
    assert "note: config says experiment=simulate, running q-sweep" in capsys.readouterr().err


def test_verify_names_djdt_gated_without_an_interior_sample_time(tmp_path, capsys):
    # the shipped pair sampled at t = 0.1 alone: dJ/dt needs a time between
    # the first and the last, so verify says it wrote no djdt-identity rows
    for run in ("lo", "hi"):
        shipped = parse_config(CONFIGS / f"exhaustion_{run}.ini")
        cfg = ExperimentConfig(**{**vars(shipped), "sample_times": (0.1,)})
        write_ini(cfg, tmp_path / f"{run}.ini")
        assert main(["simulate", "--config", str(tmp_path / f"{run}.ini"),
                     "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "lo" / "snap_manifest.csv"),
                 str(tmp_path / "hi" / "snap_manifest.csv"),
                 "--config", str(tmp_path / "lo.ini"), "--out", str(tmp_path / "ver")]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("  12 inequality rows")
    err = captured.err.splitlines()
    assert err[0] == "note: djdt-identity gated off, no rows: no sample time between t=0 and t=0.1"
    assert [line.split(": K_min = ")[0] for line in err[1:]] == [
        "note: damped-monotone-g gated off, no rows", "note: damped-monotone-G gated off, no rows"]
    rows = read_rows_csv(tmp_path / "ver" / "verify_report.csv")
    assert len(rows) == 12 and "djdt-identity" not in {r["inequality"] for r in rows}


def test_boundary_layer_names_the_config_values_it_ignores(tmp_path, capsys):
    # its grid, step and sample times are fixed: each config value among them
    # that differs from the default gets a note, and the rows do not move
    assert main(["boundary-layer", "--config", str(CONFIGS / "uniqueness_small.ini"),
                 "--out", str(tmp_path / "small")]) == 0
    err = capsys.readouterr().err.splitlines()
    fixed = "; it runs its fixed grid, step and sample times"
    assert err == ["note: config says experiment=uniqueness, running boundary-layer",
                   "note: boundary-layer ignores n = 161" + fixed,
                   "note: boundary-layer ignores ratio = 1.04" + fixed,
                   "note: boundary-layer ignores sample_times = 0.05, 0.1" + fixed]
    # a config of the two values it reads gets no note, and the same rows
    path = tmp_path / "ramps.ini"
    write_ini(ExperimentConfig(experiment="boundary-layer", ramps=(100.0, 1000.0)), path)
    assert main(["boundary-layer", "--config", str(path), "--out", str(tmp_path / "ramps")]) == 0
    assert capsys.readouterr().err == ""
    assert (read_rows_csv(tmp_path / "small" / "boundary_layer.csv")
            == read_rows_csv(tmp_path / "ramps" / "boundary_layer.csv"))


@pytest.fixture(scope="module")
def shipped_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    for run in ("lo", "hi"):
        config = str(CONFIGS / f"exhaustion_{run}.ini")
        assert main(["simulate", "--config", config, "--out", str(out / run)]) == 0
    return out


def _verify_shipped(pair, out):
    return main(["verify", str(pair / "lo" / "snap_manifest.csv"),
                 str(pair / "hi" / "snap_manifest.csv"),
                 "--config", str(CONFIGS / "exhaustion_lo.ini"), "--out", str(out)])


def test_verify_computes_J_once_per_sample_time_and_Q_once(shipped_pair, tmp_path, monkeypatch):
    calls = {"J_samples": 0, "compute_Q": 0, "lower_barrier_check": 0,
             "check_order_preservation": 0, "_check_pair": 0}

    def count(name):
        fn = getattr(estimates, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(estimates, name, counted)

    for name in calls:
        count(name)
    assert _verify_shipped(shipped_pair, tmp_path / "ver") == 0
    # one J table and one Q per report; the barrier runs once for its rows
    # and once as the gate of the 1/U bound; the ordered certificates reuse
    # the report's one order check, and each pair certificate checks the
    # pair once
    pair_checks = calls.pop("_check_pair")
    assert calls == {"J_samples": 1, "compute_Q": 1, "lower_barrier_check": 2,
                     "check_order_preservation": 1}
    assert pair_checks <= 5


def test_verify_headline_skips_rows_that_read_zero_le_zero(shipped_pair, tmp_path, capsys):
    capsys.readouterr()
    assert _verify_shipped(shipped_pair, tmp_path / "ver") == 0
    out = capsys.readouterr().out.splitlines()
    rows = read_rows_csv(tmp_path / "ver" / "verify_report.csv")
    vacuous = [r for r in rows if float(r["lhs"]) == 0.0 and float(r["rhs"]) == 0.0]
    # the t = 0 rows of the J, area and envelope checks hold by construction
    assert {(r["inequality"], r["time"]) for r in vacuous} == {
        ("J-nonnegative", "0.0"), ("area-diff-below-J", "0.0"),
        ("interior-area", "0.0"), ("volume-excess", "0.0")}
    worst = min((r for r in rows if r not in vacuous), key=lambda r: float(r["margin"]))
    assert float(worst["margin"]) > 0.0
    assert out[0] == (f"  {len(rows)} inequality rows, worst margin {float(worst['margin']):.3e} "
                      f"({worst['inequality']} at t={float(worst['time']):g}); "
                      f"4 rows with lhs = rhs = 0 skipped")
    assert out[-1] == "verify: PASS"


def test_console_script_wired():
    proc = subprocess.run([sys.executable, "-m", "logdiff.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "boundary-layer" in proc.stdout
