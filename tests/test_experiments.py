import math
from pathlib import Path

import pytest

from logdiff import estimates, experiments
from logdiff.config import ConfigError, ExperimentConfig, parse_config
from logdiff.experiments import (
    exhaustion_member,
    matched_truncation_gauge,
    run_boundary_layer_experiment,
    run_exact_solution_suite,
    run_q_sweep,
    run_uniqueness_experiment,
)
from logdiff.geometry import LogPolarGrid
from logdiff.solver import evolve
from artifact_io import read_rows_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def exact_suite():
    return run_exact_solution_suite()


@pytest.fixture(scope="module")
def q_default():
    return run_q_sweep()


@pytest.fixture(scope="module")
def uniq_result():
    return run_uniqueness_experiment(small_uniqueness_config())


@pytest.fixture(scope="module")
def gauge():
    return matched_truncation_gauge()


@pytest.fixture(scope="module")
def layer():
    return run_boundary_layer_experiment()


class TestExactSuite:
    def test_passes(self, exact_suite):
        assert exact_suite.passed

    def test_all_four_orders_fitted(self, exact_suite):
        assert set(exact_suite.orders) == {
            ("bigbang", "spatial"), ("cusp", "spatial"),
            ("bigbang", "temporal"), ("cusp", "temporal"),
        }
        for (_, kind), slope in exact_suite.orders.items():
            lo, hi = (1.7, 2.3) if kind == "spatial" else (0.8, 1.2)
            assert lo <= slope <= hi

    def test_flatdisc_static_tight(self, exact_suite):
        assert exact_suite.flat_max_error <= 1e-10

    def test_row_count_and_statuses(self, exact_suite):
        # 3 static + (3 levels + fit) x2 spatial + (4 levels + fit) x2 temporal
        assert len(exact_suite.rows) == 21
        assert all(r["status"] == "ok" for r in exact_suite.rows)

    def test_a_failed_row_fails_the_suite(self, exact_suite):
        failed = dict(exact_suite.rows[0], status="failed: Newton damping exhausted")
        assert not exact_suite._replace(rows=exact_suite.rows + (failed,)).passed

    @pytest.mark.parametrize("drift, passed", [(1e-10, True), (3e-10, False)])
    def test_flat_drift_above_1e_10_fails_the_suite(self, exact_suite, drift, passed):
        assert exact_suite._replace(flat_max_error=drift).passed is passed

    @pytest.mark.parametrize("kind, slope, passed", [
        ("spatial", 1.7, True), ("spatial", 2.3, True),
        ("spatial", 1.69, False), ("spatial", 2.31, False),
        ("temporal", 0.8, True), ("temporal", 1.2, True),
        ("temporal", 0.79, False), ("temporal", 1.21, False),
    ])
    def test_order_outside_its_window_fails_the_suite(self, exact_suite, kind, slope, passed):
        # spatial orders must lie in [1.7, 2.3], temporal ones in [0.8, 1.2]
        key = next(key for key in exact_suite.orders if key[1] == kind)
        assert exact_suite._replace(orders={**exact_suite.orders, key: slope}).passed is passed

    def test_runtime_budget(self, exact_suite):
        assert exact_suite.elapsed < 120.0

    def test_csv_written_and_deterministic(self, tmp_path):
        run_exact_solution_suite(out_dir=tmp_path / "a")
        run_exact_solution_suite(out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "exact_suite.csv").read_text()
        b = (tmp_path / "b" / "exact_suite.csv").read_text()
        assert a == b
        assert a.startswith("# config-hash=")
        rows = read_rows_csv(tmp_path / "a" / "exact_suite.csv")
        assert rows[0]["kind"] == "static"


class TestQSweep:
    def test_small_sweep_passes(self, q_default):
        assert len(q_default.rows) == 240
        assert q_default.passed

    def test_ratios_bounded(self, q_default):
        assert all(r["ratio"] <= 1.0 for r in q_default.rows)

    def test_split_rows_have_dual_route_check(self, q_default):
        splits = [r for r in q_default.rows if r["split"] == 1]
        assert splits, "deep rows should hit the e^2 a < 1 regime"
        for r in splits:
            assert r["split_gap"] <= r["split_budget"]
            assert r["Q1"] > 0.0 and r["Q2"] > 0.0

    def test_q_decreases_toward_boundary(self, q_default):
        from logdiff.experiments import _Q_GAMMAS, _Q_R0S
        for r0 in _Q_R0S:
            for gamma in _Q_GAMMAS:
                qs = [r["Q"] for r in q_default.rows
                      if r["r0"] == r0 and r["gamma"] == gamma]
                assert len(qs) == 6
                assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_default_mesh_is_at_least_200_rows(self):
        # count only: the full sweep runs in the acceptance suite
        from logdiff.experiments import _Q_GAMMAS, _Q_N_R, _Q_R0S
        assert len(_Q_R0S) * len(_Q_GAMMAS) * _Q_N_R >= 200

    def test_csv_deterministic(self, tmp_path):
        run_q_sweep(out_dir=tmp_path / "a")
        run_q_sweep(out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "q_sweep.csv").read_text() == \
               (tmp_path / "b" / "q_sweep.csv").read_text()

    def test_config_driven(self, tmp_path):
        cfg = ExperimentConfig(r0=0.55, R_list=(0.9, 0.95, 0.99), gamma_list=(0.25,))
        res = run_q_sweep(config=cfg, out_dir=tmp_path)
        assert len(res.rows) == 3
        assert res.passed


def small_uniqueness_config():
    return ExperimentConfig(
        experiment="uniqueness", r0=0.75,
        R_list=(math.exp(-0.09), math.exp(-0.06), math.exp(-0.03)),
        gamma_list=(0.25,), ramps=(1e2, 1e3, 1e4), T=0.1, dt=1e-3,
        n=161, ratio=1.04, sample_times=(0.05, 0.1),
    )


class TestUniqueness:
    def test_certified_everywhere(self, uniq_result):
        assert uniq_result.all_certified
        assert all(r["cert_pass"] == 1 for r in uniq_result.rows)
        assert uniq_result.passed  # the gauge is part of the verdict

    def test_diffs_decay_as_R_increases(self, uniq_result):
        assert uniq_result.area_monotone_in_R
        assert uniq_result.sup_monotone_in_R

    def test_area_below_envelope(self, uniq_result):
        for r in uniq_result.rows:
            assert r["area_diff"] <= r["envelope"]

    def test_row_count(self, uniq_result):
        # 3 R x 2 pairs x 1 gamma x 2 sample times
        assert len(uniq_result.rows) == 12
        assert not uniq_result.failures

    def test_identical_ramps_rejected(self):
        # equal ramps would certify two bitwise-equal runs (see
        # test_solver.test_exhaust_equal_ramps_identical), which checks nothing
        with pytest.raises(ConfigError, match="ramps must be strictly increasing"):
            ExperimentConfig(
                experiment="uniqueness", r0=0.75,
                R_list=(math.exp(-0.09), math.exp(-0.06), math.exp(-0.03)),
                gamma_list=(0.25,), ramps=(1e3, 1e3), T=0.05, dt=1e-3,
                n=101, ratio=1.05, sample_times=(0.05,),
            )

    def test_needs_two_ramps(self):
        cfg = ExperimentConfig(ramps=(1e3,), R_list=(0.92, 0.94, 0.96), r0=0.75)
        with pytest.raises(ValueError, match="2 ramps"):
            run_uniqueness_experiment(cfg)

    def test_needs_three_R(self):
        cfg = ExperimentConfig(ramps=(1e2, 1e3), R_list=(0.92, 0.95), r0=0.75)
        with pytest.raises(ValueError, match="3 R values"):
            run_uniqueness_experiment(cfg)

    def test_each_pair_order_checked_once(self, monkeypatch):
        # a pair's order does not depend on gamma: with three gammas, the
        # shipped config's 3 R x 1 ramp pair are 3 order checks, not 9
        calls = []
        real = estimates.check_order_preservation

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "check_order_preservation", counted)
        monkeypatch.setattr(estimates, "check_order_preservation", counted)
        shipped = parse_config(CONFIGS / "uniqueness_small.ini")
        cfg = ExperimentConfig(**{**vars(shipped), "gamma_list": (0.15, 0.25, 0.35)})
        res = run_uniqueness_experiment(cfg)
        assert len(calls) == 3
        # 3 R x 1 pair x 3 gamma x 2 sample times
        assert len(res.rows) == 18 and not res.failures

    def test_csv_outputs(self, tmp_path):
        cfg = small_uniqueness_config()
        run_uniqueness_experiment(cfg, out_dir=tmp_path)
        rows = read_rows_csv(tmp_path / "uniqueness.csv")
        assert len(rows) == 12
        assert {"R", "sup_diff", "area_diff", "envelope", "cert_pass"} <= set(rows[0])


class TestGauge:
    def test_matched_depths_make_ramps_indistinguishable(self, gauge):
        g = gauge
        assert g["passed"]
        assert 0.0 < g["pair_diff"] <= g["threshold"]
        # depths follow k = 2A H(depth)
        assert g["depth_lo"] == pytest.approx(math.asinh(math.sqrt(2e-3)))
        assert g["depth_hi"] == pytest.approx(math.asinh(math.sqrt(2e-4)))

    def test_shared_window_would_fail_by_far(self, gauge):
        # on one shared window the two ramps converge to different truncated
        # flows; the matched-depth gap must sit far below that plateau
        assert gauge["pair_diff"] < 0.1


class TestBoundaryLayer:
    def test_exponent_near_square_root(self, layer):
        assert 0.35 <= layer.exponent <= 0.65

    def test_width_monotone(self, layer):
        assert layer.width_monotone

    def test_rows_cover_window(self, layer):
        assert len(layer.rows) == 9
        assert layer.rows[0]["t"] == pytest.approx(1e-3)
        assert layer.rows[-1]["t"] == pytest.approx(1e-1)
        # the default grid is graded(0.005, 4, 301, 1.02); width is at
        # least its first spacing
        nodes = LogPolarGrid.graded(0.005, 4.0, 301, 1.02).nodes
        assert layer.rows[0]["width"] >= nodes[1] - nodes[0]

    def test_config_runs_its_last_ramp(self, layer):
        # ramps 100, 1000 and no s_min: the run differs from the default
        # one in k alone, so its rows must differ too
        small = run_boundary_layer_experiment(parse_config(CONFIGS / "uniqueness_small.ini"))
        assert small.rows != layer.rows
        assert small.width_monotone

    def test_fixed_fields_do_not_move_the_rows(self, layer):
        # cli notes these fields as ignored: a config changing every one of
        # them, with the default ramp and s_min, must give the default rows
        changed = {"s_max": 6.0, "n": 121, "ratio": 1.05, "T": 0.05, "dt": 5e-4,
                   "sample_times": (0.01,)}
        assert set(changed) == set(experiments.LAYER_FIXED_FIELDS)
        cfg = ExperimentConfig(experiment="boundary-layer", ramps=(1e3, 3e5), **changed)
        assert run_boundary_layer_experiment(cfg).rows == layer.rows

    def test_csv(self, tmp_path):
        run_boundary_layer_experiment(out_dir=tmp_path)
        rows = read_rows_csv(tmp_path / "boundary_layer.csv")
        assert len(rows) == 9


class TestNewtonStart:
    def test_shipped_member_extrapolates_the_same_steps(self):
        # each Newton solve starts from the run's own linear extrapolation:
        # the shipped simulate member keeps its 100 steps and takes 314
        # iterations, where starting from the previous state took 407
        cfg = parse_config(CONFIGS / "exhaustion_lo.ini")
        traj = evolve(exhaustion_member(cfg, cfg.R_list[0], cfg.ramps[0]))
        assert traj.nsteps == 100
        assert traj.newton_iters <= 330

    def test_run_that_may_grow_dt_starts_from_its_previous_state(self, monkeypatch):
        # the dt controller grows dt after cheap Newton solves, reading their
        # count as smoothness; the default boundary-layer run, the only one
        # with dt_cap above dt, keeps its steps and iterations (extrapolated,
        # it took 91 steps at 4.6 times the relative error at t = 0.1)
        trajs = []

        def recorded(run):
            trajs.append(evolve(run))
            return trajs[-1]

        monkeypatch.setattr(experiments, "evolve", recorded)
        run_boundary_layer_experiment()
        assert [(traj.nsteps, traj.newton_iters) for traj in trajs] == [(414, 1654)]
