"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria 1-9 gate the build. Criterion 10 is exploratory: its verdict is
printed but never asserted. Run with -s to see the verdict lines live:

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np

from logdiff.config import ExperimentConfig
from logdiff.cutoff import CutoffSpec, _filler_eval, flux_deriv, flux_second_deriv, flux_value
from logdiff.experiments import (
    matched_truncation_gauge,
    run_boundary_layer_experiment,
    run_exact_solution_suite,
    run_q_sweep,
    run_uniqueness_experiment,
)
from logdiff.geometry import BigBang, Cusp, FlatDisc, LogPolarGrid, model_state
from logdiff.solver import BoundarySchedule, Run, Trajectory, evolve
from logdiff import estimates as est


def _verdict(num: int, label: str, ok: bool) -> bool:
    print(f"criterion {num:2d}  {label:<52s} {'PASS' if ok else 'FAIL'}")
    return ok


def _exact_pair(grid, times):
    tg = Trajectory(states=tuple(model_state(BigBang, grid, t) for t in times))
    tG = Trajectory(states=tuple(model_state(Cusp, grid, t) for t in times))
    return tg, tG


def test_criterion_01_exact_solution_suite():
    res = run_exact_solution_suite()
    ok = res.passed and res.elapsed < 120.0
    assert _verdict(1, f"exact solutions, orders {sorted(res.orders.values())}", ok)


def test_criterion_02_flux_function_properties():
    # nine defining properties of the flux profile, checked per a;
    # plateau identities hold exactly, branch matching to 1e-12
    tol = 1e-12
    ok = True
    for j in range(1, 13):
        a = round(0.05 * j, 2)
        L = -math.log(a)
        core = np.linspace(a * (1 + 1e-9), 1.0 - 1e-9, 500)

        ok &= abs(flux_value(a, a)) <= tol                                   # (i)
        f1 = 1.0 - (1.0 - a) / L
        ok &= 0.0 < f1 < 1.0 and abs(flux_value(a, 1.0) - f1) <= tol         # (ii)
        dcore = (np.log(core) + L) / L
        ok &= bool(np.max(np.abs(flux_deriv(a, core) - dcore)) <= tol)       # (iii)
        ok &= bool(np.min(flux_deriv(a, np.linspace(a / 2, 3.0, 700))) >= -tol)
        ok &= abs(flux_deriv(a, a)) <= tol                                   # (iv)
        ok &= abs(_filler_eval(a, np.array([1.0]), 1)[0] - 1.0) <= tol       # (v)
        ok &= abs(_filler_eval(a, np.array([1.0]), 0)[0] - f1) <= tol
        ok &= bool(np.max(np.abs(flux_second_deriv(a, core) * (core * L) - 1.0)) <= tol)  # (vi)
        ok &= bool(np.all(flux_value(a, np.linspace(a / 10, a, 200)) == 0.0))  # (a)
        ok &= bool(np.all(flux_value(a, np.linspace(2.0, 5.0, 200)) == 1.0))   # (b)
        ok &= abs(_filler_eval(a, np.array([2.0]), 0)[0] - 1.0) <= tol
        ok &= abs(_filler_eval(a, np.array([2.0]), 1)[0]) <= tol
        ok &= bool(np.max(flux_second_deriv(a, np.linspace(1.0 + 1e-9, 2.0, 500))) <= tol)  # (c)
    assert _verdict(2, "flux-function properties (i)-(vi),(a)-(c)", ok)


def test_criterion_03_q_certification():
    res = run_q_sweep()
    ratios = [r["ratio"] for r in res.rows if r["status"] == "ok"]
    ok = (len(res.rows) >= 200 and len(ratios) == len(res.rows)
          and max(ratios) <= 1.0 and res.all_bounded and res.split_consistent)
    assert _verdict(3, f"Q bound on {len(res.rows)} rows, worst {max(ratios):.3f}", ok)


def test_criterion_04_barrier_and_pointwise_bounds():
    # exhaustion members whose ramps dominate the barrier rate 2 t H(s_min);
    # the outer value tracks max(flat, barrier) so the floor holds at s_max too
    g = LogPolarGrid.graded(0.045, 8.0, 261, ratio=1.02)
    st0 = model_state(FlatDisc, g)
    u_in, u_out = float(st0.values[0]), float(st0.values[-1])
    two_H_in = 2.0 / math.sinh(g.s_min) ** 2
    two_H_out = 2.0 / math.sinh(g.s_max) ** 2
    ts = (0.02, 0.04, 0.06, 0.08, 0.1)
    ok = True
    worst_barrier, worst_inv = math.inf, math.inf
    for A in (1.05, 2.0, 10.0):
        k = A * two_H_in
        sched = BoundarySchedule(
            inner=lambda t, k=k: max(u_in, k * t),
            outer=lambda t: max(u_out, t * two_H_out),
        )
        traj = evolve(Run(st0, sched, 1e-3, 0.1, sample_times=ts))
        barrier = min(r.margin for r in est.lower_barrier_check(traj))  # all nodes, all snapshots
        worst_barrier = min(worst_barrier, barrier)
        ok &= barrier >= -1e-8
        # asserted at every sample time after t = 0 only if the barrier gate passed
        rows, _ = est.pointwise_u_inverse_bound(traj)
        ok &= tuple(r.time for r in rows) == ts and all(r.margin >= -1e-8 for r in rows)
        worst_inv = min([worst_inv] + [r.margin for r in rows])
    assert _verdict(
        4, f"barrier {worst_barrier:+.1e}, 1/U bound {worst_inv:+.1e}", ok)


def test_criterion_05_interior_area_estimate():
    windows = {0.6: (0.15, 0.10, 0.05), 0.75: (0.09, 0.06, 0.03), 0.9: (0.032, 0.021, 0.011)}
    ok = True
    total = 0
    for r0, S_list in windows.items():
        cfg = ExperimentConfig(
            experiment="uniqueness",
            r0=r0,
            R_list=tuple(math.exp(-S) for S in S_list),
            gamma_list=(0.1, 0.25, 0.4),
            ramps=(1e2, 1e3, 1e4),
            T=0.1,
            dt=1e-3,
            n=161,
            ratio=1.04,
            sample_times=(0.05, 0.1),
        )
        res = run_uniqueness_experiment(cfg)
        total += len(res.rows)
        ok &= (res.all_certified and res.area_monotone_in_R
               and res.sup_monotone_in_R and not res.failures)
    assert _verdict(5, f"interior-area certificates on {total} rows", ok)


def test_criterion_06_ramp_indistinguishable_from_discretization():
    gauge = matched_truncation_gauge()
    ok = gauge["passed"]
    assert _verdict(
        6,
        f"sup-diff {gauge['pair_diff']:.2e} vs 10x refine {gauge['threshold']:.2e}",
        ok,
    )


def test_criterion_07_djdt_identity():
    spec = CutoffSpec(math.exp(-0.5), math.exp(-0.1), 0.25)
    tg, tG = _exact_pair(LogPolarGrid.graded(0.025, 8.0, 801, ratio=1.01), (0.2, 0.3, 0.4, 0.5, 0.6))
    row = est.djdt_identity_check(tg, tG, spec, est.J_samples(tg, tG, spec))[0][1]  # t = 0.4
    rel = row.lhs / abs(sum(est._djdt_terms(tg.states[2], tG.states[2], spec)))
    ok = rel <= 0.01
    assert _verdict(7, f"dJ/dt identity, relative residual {rel:.1e}", ok)


def test_criterion_08_volume_excess_on_crossing_pair():
    g = LogPolarGrid.graded(0.045, 8.0, 261, ratio=1.02)
    st0 = model_state(FlatDisc, g)
    u_in, u_out = float(st0.values[0]), float(st0.values[-1])
    T, k1, k2 = 0.1, 3947.95, 19739.76

    def swap(ka, kb):
        # strong-then-weak against weak-then-strong: the factors cross
        return BoundarySchedule(
            inner=lambda t: max(u_in, (ka if t < T / 2 else kb) * t),
            outer=lambda t: u_out,
        )

    dt = 1e-3
    ts = [0.02, 0.04, 0.06, 0.08, 0.1]
    a = evolve(Run(st0, swap(k1, k2), dt, T, sample_times=ts))
    b = evolve(Run(st0, swap(k2, k1), dt, T, sample_times=ts))
    crossed = not est.check_order_preservation(a, b).ordered
    rows = est.volume_excess_verify(a, b, CutoffSpec(0.55, math.exp(-0.18), 0.25))
    ok = crossed and all(r.margin >= 0.0 for r in rows)
    assert _verdict(8, f"volume excess on crossing pair (crossed={crossed})", ok)


def test_criterion_09_damped_factor_monotone():
    g = LogPolarGrid.uniform(0.1, 6.0, 101)
    st0 = model_state(FlatDisc, g)
    traj = evolve(Run(st0, BoundarySchedule.from_model(FlatDisc, g.s_min, g.s_max), 0.02, 0.3,
                      sample_times=[0.1, 0.2, 0.3]))
    rows_flat, _ = est.curvature_monotonicity_check(traj, "damped-monotone")
    # curvature gate needs K >= -1: holds for the expanding factor once t >= 1/2
    tb, _ = _exact_pair(LogPolarGrid.uniform(0.5, 3.0, 4001), (0.5, 0.75, 1.0))
    rows_bb, _ = est.curvature_monotonicity_check(tb, "damped-monotone")
    # one row each means the gate passed
    ok = all(
        len(rows) == 1 and rows[0].margin >= 0.0 and rows[0].lhs <= 1e-8
        for rows in (rows_flat, rows_bb)
    )
    assert _verdict(9, "damped factor e^{-2t}U nonincreasing", ok)


def test_criterion_10_boundary_layer_exponent():
    layer = run_boundary_layer_experiment()
    ok = layer.in_range and layer.width_monotone
    _verdict(10, f"boundary-layer p={layer.exponent:.3f} (non-gating)", ok)
    # exploratory: reported, never fails the build
