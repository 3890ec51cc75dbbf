import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdiff import solver
from logdiff.geometry import (
    BigBang,
    ConformalState,
    Cusp,
    FlatDisc,
    LogPolarGrid,
    _d2_coeffs,
    model_factor,
    model_state,
)
from logdiff.solver import (
    BoundarySchedule,
    Run,
    RunError,
    StepFailure,
    Trajectory,
    evolve,
)
from logdiff.estimates import check_order_preservation
from oracle_support import newton_solve_reference


def flat_setup(n=101, s_min=0.1, s_max=6.0):
    g = LogPolarGrid.uniform(s_min, s_max, n)
    st0 = model_state(FlatDisc, g, 0.0)
    return g, st0, BoundarySchedule.from_model(FlatDisc, s_min, s_max)


def _newton_one(s, u, w_in, w_out, dt):
    """The batched Newton kernel on one member: (w, iterations), or raises
    the member's error."""
    lay = solver._Layout([s])
    w, (iters,), errors = solver._newton_solve(lay, [u], [(w_in, w_out)], (dt,), 0.0)
    if errors:
        raise errors[0]
    return w, iters


def _step(state, dt, schedule):
    """One backward-Euler step of state through the Newton kernel, to the
    schedule's boundary values at time + dt."""
    t_new = state.time + dt
    w, _ = _newton_one(state.grid.nodes, state.values, *solver._log_bounds(schedule, t_new), dt)
    return ConformalState(state.grid, np.exp(w), t_new)


# ------------------------------------------------------------------ one step


def test_flatdisc_is_discrete_fixed_point():
    # log U linear in s, so D2(log U) vanishes node-by-node and the step is exact
    g, st0, sched = flat_setup()
    out = _step(st0, 0.05, sched)
    assert out.time == pytest.approx(0.05)
    assert np.max(np.abs(out.values - st0.values)) < 1e-12


def test_step_rejects_bad_dt_and_schedule():
    g, st0, sched = flat_setup()
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve(Run(st0, sched, -0.1, 0.05))
    # consistent with the initial data, nonpositive at the first step
    u_in, u_out = float(st0.values[0]), float(st0.values[-1])
    bad = BoundarySchedule(inner=lambda t: u_in if t == 0.0 else -1.0, outer=lambda t: u_out)
    with pytest.raises(ValueError, match="nonpositive"):
        evolve(Run(st0, bad, 0.01, 0.05))


def test_step_failure_carries_residual(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 1)
    g = LogPolarGrid.uniform(0.3, 4.0, 81)
    st0 = model_state(BigBang, g, 0.2)
    sched = BoundarySchedule.from_model(BigBang, g.s_min, g.s_max)
    with pytest.raises(StepFailure) as exc:
        _step(st0, 0.05, sched)
    assert exc.value.residual > 0.0


def test_positivity_under_violent_ramp():
    g = LogPolarGrid.graded(0.05, 8.0, 121, ratio=1.04)
    st0 = model_state(FlatDisc, g, 0.0)
    sched = BoundarySchedule.ramp(st0, 1e6)
    out = _step(st0, 0.05, sched)
    assert np.all(out.values > 0.0)
    assert out.values[0] == pytest.approx(5e4)  # Dirichlet value k*t


# ------------------------------------------------------------ Newton kernel


def _kernel_case(name):
    """(nodes, u_old, w_in, w_out, dt) of one backward-Euler step."""
    if name == "flatdisc-static":
        g, st0, _ = flat_setup()
        return g.nodes, st0.values, math.log(st0.values[0]), math.log(st0.values[-1]), 0.05
    if name == "bigbang-model":
        g = LogPolarGrid.uniform(0.3, 4.0, 81)
        u = model_state(BigBang, g, 0.2).values
        m_in, m_out = (float(model_factor(BigBang, x, 0.25)) for x in (g.s_min, g.s_max))
        return g.nodes, u, math.log(m_in), math.log(m_out), 0.05
    if name == "ramp-1e6-graded":
        # the full Newton step overshoots once here, so the line search halves
        g = LogPolarGrid.graded(0.05, 8.0, 121, ratio=1.04)
        u = model_state(FlatDisc, g, 0.0).values
        return g.nodes, u, math.log(1e6 * 0.05), math.log(u[-1]), 0.05
    g = LogPolarGrid.graded(0.01, 8.0, 241, ratio=1.02)
    u = model_state(FlatDisc, g, 0.0).values
    return g.nodes, u, math.log(max(u[0], 1e4 * 1e-4)), math.log(u[-1]), 1e-4


@pytest.mark.parametrize(
    "name", ["flatdisc-static", "bigbang-model", "ramp-1e6-graded", "n241-dt1e-4"]
)
def test_newton_kernel_matches_solve_banded_reference(name):
    s, u, w_in, w_out, dt = _kernel_case(name)
    coeffs = _d2_coeffs(s)
    u_before = u.copy()
    w, iters = _newton_one(s, u, w_in, w_out, dt)
    w_ref, iters_ref = newton_solve_reference(s, u, w_in, w_out, dt, coeffs)
    assert iters == iters_ref
    assert np.array_equal(w, w_ref)
    assert np.array_equal(u, u_before)


def test_evolve_leaves_inputs_and_cached_coeffs_untouched(monkeypatch):
    # dgtsv may overwrite what it is given; the caller's data and the
    # second-difference weights shared by every step must survive a run
    made = []
    d2_coeffs = solver._d2_coeffs

    def recording_coeffs(s):
        out = d2_coeffs(s)
        made.append((out, tuple(c.copy() for c in out)))
        return out

    monkeypatch.setattr(solver, "_d2_coeffs", recording_coeffs)
    g = LogPolarGrid.graded(0.05, 8.0, 121, ratio=1.04)
    st0 = model_state(FlatDisc, g, 0.0)
    before = st0.values.copy()
    sched = BoundarySchedule.ramp(st0, 1e6)
    traj = evolve(Run(st0, sched, 0.01, 0.05))
    assert traj.nsteps >= 5
    assert np.array_equal(st0.values, before)
    (live, saved), = made
    for a, b in zip(live, saved):
        assert np.array_equal(a, b)


def test_non_finite_input_raises_value_error():
    s, u, w_in, w_out, dt = _kernel_case("flatdisc-static")
    _, st0, _ = flat_setup()
    inf_inner = BoundarySchedule(inner=lambda t: math.inf, outer=lambda t: 1.0)
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf):
            u_bad = u.copy()
            u_bad[len(u) // 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _newton_one(s, u_bad, w_in, w_out, dt)
        with pytest.raises(ValueError, match="non-finite"):
            _step(st0, 0.01, inf_inner)


def test_singular_jacobian_fails_step_then_run(monkeypatch):
    calls = []

    def singular_dgtsv(dl, d, du, b, **kwargs):
        calls.append(d.size)
        return dl, d, du, np.zeros_like(b), 1

    monkeypatch.setattr(solver, "dgtsv", singular_dgtsv)
    _, st0, sched = flat_setup()
    with pytest.raises(StepFailure, match="singular"):
        _step(st0, 0.01, sched)
    calls.clear()
    monkeypatch.setattr(solver, "MAX_HALVINGS", 3)
    with pytest.raises(RunError, match="after 3 halvings") as exc:
        evolve(Run(st0, sched, 0.01, 0.05))
    assert len(calls) == 3 + 1
    assert exc.value.partial.nsteps == 0


# --------------------------------------------------- manufactured solutions


def _mms_residual(model, grid, t, dt):
    """max |U_num - U_exact(t + dt)| / dt after one step from the exact state
    at t with exact boundary data: first order in dt on a fine grid, second
    order in ds with dt slaved to ds^2, the Newton floor for a static model."""
    schedule = BoundarySchedule.from_model(model, grid.s_min, grid.s_max)
    out = _step(model_state(model, grid, t), dt, schedule)
    return float(np.max(np.abs(out.values - model_factor(model, grid.nodes, t + dt)))) / dt


def test_mms_flatdisc_sits_at_newton_floor():
    g = LogPolarGrid.uniform(0.1, 6.0, 201)
    assert _mms_residual(FlatDisc, g, 0.3, 0.01) < 1e-8


def test_mms_bigbang_first_order_in_dt():
    # one-step error dt*rate halves with dt on a fine grid
    g = LogPolarGrid.uniform(0.5, 3.0, 801)
    errs = [dt * _mms_residual(BigBang, g, 0.5, dt) for dt in (8e-6, 4e-6, 2e-6, 1e-6)]
    for big, small in zip(errs, errs[1:]):
        assert 1.85 <= big / small <= 2.1


def test_mms_cusp_second_order_in_ds():
    # defect rate is dominated by the D2 truncation error once dt ~ ds^2
    rates = []
    for n in (101, 201, 401):
        g = LogPolarGrid.uniform(0.5, 3.0, n)
        ds = g.nodes[1] - g.nodes[0]
        rates.append(_mms_residual(Cusp, g, 0.5, 0.25 * ds * ds))
    r1 = rates[0] / rates[1]
    r2 = rates[1] / rates[2]
    assert 3.2 < r1 < 4.6 and 3.2 < r2 < 4.6
    assert r2 > r1  # approaching the asymptotic factor 4 from below


def test_spatial_richardson_order_two():
    # frozen study: bigbang on [0.5,3], evolve 0.5 -> 1.0 with dt = ds^2/4
    errs = []
    for n in (33, 65, 129):
        g = LogPolarGrid.uniform(0.5, 3.0, n)
        ds = g.nodes[1] - g.nodes[0]
        st0 = model_state(BigBang, g, 0.5)
        sched = BoundarySchedule.from_model(BigBang, g.s_min, g.s_max)
        traj = evolve(Run(st0, sched, 0.25 * ds * ds, 1.0))
        exact = model_state(BigBang, g, 1.0).values
        errs.append(float(np.max(np.abs(traj.states[-1].values - exact) / exact)))
    assert errs[0] == pytest.approx(1.485e-3, rel=1e-2)
    assert errs[1] == pytest.approx(3.743e-4, rel=1e-2)
    assert errs[2] == pytest.approx(9.378e-5, rel=1e-2)
    p = math.log2((errs[0] - errs[1]) / (errs[1] - errs[2]))
    assert 1.9 < p < 2.1


def test_temporal_order_by_successive_differences():
    # differencing terminal states at halved dt cancels the shared spatial
    # floor and isolates the O(dt) backward-Euler component
    g = LogPolarGrid.uniform(0.5, 3.0, 201)
    st0 = model_state(Cusp, g, 0.5)
    sched = BoundarySchedule.from_model(Cusp, g.s_min, g.s_max)
    finals = []
    for dt in (0.05, 0.025, 0.0125, 0.00625):
        traj = evolve(Run(st0, sched, dt, 1.0))
        finals.append(traj.states[-1].values)
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(d1 / d2) for d1, d2 in zip(diffs, diffs[1:])]
    assert all(0.9 < p < 1.1 for p in orders)


# ------------------------------------------------------------------- evolve


def test_evolve_flat_static_run():
    g, st0, sched = flat_setup()
    traj = evolve(Run(st0, sched, 0.02, 0.3, sample_times=[0.1, 0.2, 0.3]))
    assert [st.time for st in traj.states] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    for st in traj.states:
        assert np.max(np.abs(st.values - st0.values)) < 1e-10


def test_evolve_bigbang_exact_schedule():
    g = LogPolarGrid.graded(0.1, 6.0, 301, ratio=1.02)
    st0 = model_state(BigBang, g, 0.1)
    sched = BoundarySchedule.from_model(BigBang, g.s_min, g.s_max)
    traj = evolve(Run(st0, sched, 5e-3, 1.0, sample_times=[0.55, 1.0]))
    exact = model_state(BigBang, g, 1.0).values
    rel = np.max(np.abs(traj.states[-1].values - exact) / exact)
    assert rel < 2e-4  # measured 6.4e-5 at this resolution


def test_evolve_is_deterministic():
    g = LogPolarGrid.graded(0.05, 8.0, 141, ratio=1.03)
    st0 = model_state(FlatDisc, g, 0.0)
    sched = BoundarySchedule.ramp(st0, 1e3)
    a = evolve(Run(st0, sched, 2e-3, 0.1, sample_times=[0.05, 0.1]))
    b = evolve(Run(st0, sched, 2e-3, 0.1, sample_times=[0.05, 0.1]))
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.states, b.states))
    assert a.nsteps == b.nsteps and a.newton_iters == b.newton_iters


def test_evolve_validates_times_and_consistency():
    g, st0, sched = flat_setup()
    with pytest.raises(ValueError):
        evolve(Run(st0, sched, 0.01, T=0.0))
    with pytest.raises(ValueError, match="sample times"):
        evolve(Run(st0, sched, 0.01, T=0.1, sample_times=[0.2]))
    bad = BoundarySchedule(inner=lambda t: 42.0, outer=sched.outer)
    with pytest.raises(ValueError, match="inconsistent"):
        evolve(Run(st0, bad, 0.01, T=0.1))


@pytest.mark.parametrize("side", ["inner", "outer"])
def test_schedule_consistency_tolerance(side):
    # the schedule must match the initial data at t0 to rel_tol 1e-6: an
    # end value off by 3e-7 relative runs, one off by 3e-6 is refused
    _, st0, sched = flat_setup()

    def off_by(rel):
        moved = getattr(sched, side)
        return sched._replace(**{side: lambda t: moved(t) * (1.0 + rel)})

    solver._check_schedule_consistency(st0, off_by(3e-7))
    with pytest.raises(ValueError, match=f"{side} .* inconsistent"):
        solver._check_schedule_consistency(st0, off_by(3e-6))


def test_failed_step_retries_at_half_dt(monkeypatch):
    # no shipped run halves: force one StepFailure on the first solve
    dts = []
    real_solve = solver._newton_solve

    def fail_once(lay, values, bounds, step_dts, trend):
        dts.append(step_dts[0])
        if len(dts) == 1:
            return None, None, {0: StepFailure("forced", 1.0)}
        return real_solve(lay, values, bounds, step_dts, trend)

    monkeypatch.setattr(solver, "_newton_solve", fail_once)
    _, st0, sched = flat_setup()
    traj = evolve(Run(st0, sched, 0.01, 0.05))
    assert dts[:2] == [0.01, 0.005]
    assert traj.states[-1].time == 0.05


@pytest.mark.parametrize("growth, whole", [(1e-12 / 3.0, True), (3e-12, False)])
def test_line_search_slack(monkeypatch, growth, whole):
    # a Newton step is taken whole when it lets the residual grow by at most
    # 1e-12 relative (roundoff near convergence) and halved when it grows it
    # more.  One interior node on s = 0, 1, 2 with dt = 1 and w = 0 at both
    # ends has residual F(w) = e^w - e + 2w, which is 2 at the start w = 1;
    # a planted solver step lands where F = -2 (1 + growth).
    s, dt, u = np.array([0.0, 1.0, 2.0]), 1.0, math.e
    cl, cc, cr = (float(c[0]) for c in _d2_coeffs(s))
    w0 = float(np.log(np.array([u]))[0])

    def residual(w):  # the kernel's arithmetic, node by node
        return float(np.exp(np.array([w]))[0] - u - dt * (cl * 0.0 + cc * w + cr * 0.0))

    lo, hi = -1.0, w0  # F increases with w: bisect for F(w) = -F(w0) (1 + growth)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(mid) < -residual(w0) * (1.0 + growth) else (lo, mid)
    step = hi - w0
    assert (abs(residual(w0 + step)) <= abs(residual(w0)) * (1.0 + 1e-12)) is whole
    monkeypatch.setattr(solver, "dgtsv", lambda dl, d, du, b, **kw: (dl, d, du, np.array([step]), 0))
    monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 1)
    w, _, errors = solver._newton_solve(solver._Layout([s]), [np.array([1.0, u, 1.0])],
                                        [(0.0, 0.0)], (dt,), 0.0)
    assert str(errors[0]).startswith("Newton iteration budget exhausted")
    assert w[1] == w0 + (step if whole else 0.5 * step)


def test_uphill_step_exhausts_the_damping(monkeypatch):
    # the line search halves a step 30 times before it gives up.  On the
    # node of test_line_search_slack, F(w) = e^w - e + 2w is 2 at w0 = 1 and
    # increases with w, so a planted positive step raises |F| at every scale
    s, dt, u = np.array([0.0, 1.0, 2.0]), 1.0, math.e
    monkeypatch.setattr(solver, "dgtsv", lambda dl, d, du, b, **kw: (dl, d, du, np.array([1.0]), 0))
    w, done, errors = solver._newton_solve(solver._Layout([s]), [np.array([1.0, u, 1.0])],
                                           [(0.0, 0.0)], (dt,), 0.0)
    assert list(errors) == [0] and done == [None]
    assert isinstance(errors[0], StepFailure)
    assert str(errors[0]) == "Newton damping exhausted"
    assert errors[0].residual == pytest.approx(2.0)
    assert w[1] == float(np.log(np.array([u]))[0])


def test_dgtsv_is_scipys_routine_from_one_module():
    # the solver loads scipy.linalg._flapack without the scipy.linalg
    # package; importing the package afterwards reuses that module
    import scipy.linalg.lapack
    assert solver.dgtsv is scipy.linalg.lapack.dgtsv


def test_dgtsv_loader_falls_back_to_the_public_import():
    # where the compiled wrapper is not found, the public name serves
    import scipy.linalg.lapack
    assert solver._load_dgtsv([]) is scipy.linalg.lapack.dgtsv


@pytest.mark.parametrize("error", ["ImportError", "OSError"])
def test_dgtsv_loader_falls_back_when_the_wrapper_fails_to_load(tmp_path, monkeypatch, error):
    # a wrapper that needs scipy's init to find its libraries fails to load
    # alone; the public name serves, and no half-loaded module stays behind
    import scipy.linalg.lapack
    name = "scipy.linalg._flapack"
    (tmp_path / "_flapack.py").write_text(f"raise {error}('cannot open shared object file')\n")
    monkeypatch.delitem(sys.modules, name)
    assert solver._load_dgtsv([str(tmp_path)]) is scipy.linalg.lapack.dgtsv
    assert name not in sys.modules


def test_adaptive_doubling_reduces_step_count():
    g, st0, sched = flat_setup()
    traj = evolve(Run(st0, sched, 1e-3, 0.1, dt_cap=8e-3))
    # fixed dt would take 100.  Every step takes one Newton iteration, so dt
    # doubles after each STREAK_TO_GROW = 3 steps: 3 steps each at 1e-3,
    # 2e-3 and 4e-3, then 10 at the cap 8e-3 (the last one cut short)
    assert traj.nsteps == traj.newton_iters == 19


def test_run_error_carries_partial_trajectory(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 1)
    monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
    g = LogPolarGrid.uniform(0.3, 4.0, 81)
    st0 = model_state(BigBang, g, 0.2)
    sched = BoundarySchedule.from_model(BigBang, g.s_min, g.s_max)
    with pytest.raises(RunError) as exc:
        evolve(Run(st0, sched, 0.05, 0.5))
    partial = exc.value.partial
    assert isinstance(partial, Trajectory)
    assert partial.states[-1].time < 0.5


def test_trajectory_lookup_and_validation():
    g, st0, sched = flat_setup()
    with pytest.raises(ValueError):
        Trajectory(states=())
    other = ConformalState(LogPolarGrid.uniform(0.1, 6.0, 51), np.ones(51), 0.1)
    with pytest.raises(ValueError, match="grid"):
        Trajectory(states=(st0, other))


def test_evolve_trajectory_pickles():
    # plain data: a run can be stored or sent whole
    g, st0, _ = flat_setup()
    traj = evolve(Run(st0, BoundarySchedule.ramp(st0, 1e3), 0.02, 0.1,
                      sample_times=[0.05, 0.1]))
    back = pickle.loads(pickle.dumps(traj))
    assert (back.nsteps, back.newton_iters) == (traj.nsteps, traj.newton_iters)
    assert np.array_equal(back.grid.nodes, traj.grid.nodes)
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.values, b.values)


def test_run_validation():
    g, st0, sched = flat_setup()
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve(Run(st0, sched, 0.0, 0.1))
    with pytest.raises(ValueError, match="undercut"):
        evolve(Run(st0, sched, 1e-2, 0.1, dt_cap=1e-3))
    assert evolve(Run(st0, sched, 1e-2, 0.1, dt_cap=1e-2)).times[-1] == 0.1


def test_schedule_constructors_validate():
    st0 = ConformalState(LogPolarGrid.uniform(0.1, 1.0, 5), np.linspace(2.0, 1.0, 5), 0.0)
    for k in (-5.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BoundarySchedule.ramp(st0, k)
    sched = BoundarySchedule.ramp(st0, 100.0)
    assert sched.inner(0.0) == 2.0  # ramp below initial data at t=0
    assert sched.inner(1.0) == 100.0
    assert sched.inner(2.0) == 200.0  # slope k


# ------------------------------------------------------------ batched runs


def _mixed_runs():
    """evolve_many runs that differ in n, dt, T, sample times, schedule and
    dt cap."""
    runs = []
    g = LogPolarGrid.graded(0.05, 8.0, 141, ratio=1.03)
    st0 = model_state(FlatDisc, g, 0.0)
    runs.append(Run(st0, BoundarySchedule.ramp(st0, 1e3), 2e-3, 0.1, [0.05, 0.1]))
    g = LogPolarGrid.graded(0.01, 8.0, 241, ratio=1.02)
    st0 = model_state(FlatDisc, g, 0.0)
    runs.append(Run(st0, BoundarySchedule.ramp(st0, 1e4), 1e-4, 0.01))
    _, st0, sched = flat_setup()
    runs.append(Run(st0, sched, 1e-3, 0.1, [0.03, 0.07], dt_cap=8e-3))
    g = LogPolarGrid.uniform(0.5, 3.0, 65)
    runs.append(Run(model_state(Cusp, g, 0.5), BoundarySchedule.from_model(Cusp, 0.5, 3.0),
                    0.0125, 1.0, [0.6, 0.75]))
    g = LogPolarGrid.uniform(0.3, 4.0, 81)
    runs.append(Run(model_state(BigBang, g, 0.2), BoundarySchedule.from_model(BigBang, 0.3, 4.0),
                    0.05, 0.5, [0.3, 0.45]))
    g = LogPolarGrid.graded(0.05, 8.0, 121, ratio=1.04)
    st0 = model_state(FlatDisc, g, 0.0)
    runs.append(Run(st0, BoundarySchedule.ramp(st0, 1e6), 0.002, 0.05, dt_cap=0.02))
    return runs


def _assert_same_run(a, b):
    assert (a.nsteps, a.newton_iters) == (b.nsteps, b.newton_iters)
    assert [st.time for st in a.states] == [st.time for st in b.states]
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x.values, y.values)


def test_evolve_many_members_equal_their_solo_runs(monkeypatch):
    # a budget of 4 Newton iterations makes several members halve dt on the way
    monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 4)
    runs = _mixed_runs()
    batch = solver.evolve_many(runs)
    assert len(batch) == len(runs)
    # the mix has halvings (more steps than T/dt) and lockstep riders
    assert batch[4].nsteps > 6 and batch[5].nsteps > 5
    for run, got in zip(runs, batch):
        _assert_same_run(got, evolve(run))


def _singular_when_n(n_fail, calls):
    """A dgtsv that reports a zero first pivot in the member with n_fail
    nodes and solves every other system; members show up as runs of nonzero
    super-diagonal entries, n - 3 long."""
    real = solver.dgtsv

    def dgtsv(dl, d, du, b, **kwargs):
        calls.append(d.size)
        edges = np.concatenate(([-1], np.flatnonzero(du == 0.0), [du.size]))
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo - 1 == n_fail - 3:
                return dl, d, du, np.zeros_like(b), int(lo) + 2
        return real(dl, d, du, b, **kwargs)

    return dgtsv


def test_failing_member_fails_alone_with_its_solo_error(monkeypatch):
    runs = _mixed_runs()[:4]
    solo = [evolve(run) for run in runs]
    g = LogPolarGrid.uniform(0.1, 6.0, 77)
    st0 = model_state(FlatDisc, g, 0.0)
    flat = BoundarySchedule.from_model(FlatDisc, 0.1, 6.0)  # both grids span [0.1, 6]
    singular = Run(st0, flat, 0.01, 0.05)
    st1 = model_state(FlatDisc, LogPolarGrid.uniform(0.1, 6.0, 61), 0.0)
    v_in, v_out = float(st1.values[0]), float(st1.values[-1])
    dips = BoundarySchedule(inner=lambda t: v_in if t < 0.03 else -1.0, outer=lambda t: v_out)
    nonpositive = Run(st1, dips, 0.01, 0.05)
    too_short = Run(st1, flat, 0.01, 0.0)

    calls = []
    monkeypatch.setattr(solver, "MAX_HALVINGS", 3)
    monkeypatch.setattr(solver, "dgtsv", _singular_when_n(77, calls))
    batch = solver.evolve_many(runs[:2] + [singular, nonpositive] + runs[2:] + [too_short])
    with pytest.raises(RunError) as alone:
        evolve(singular)
    assert isinstance(batch[2], RunError)
    assert str(batch[2]) == str(alone.value)
    assert str(batch[2]).startswith("step at t=0 failed after 3 halvings")
    assert str(batch[2].__cause__) == "singular Newton Jacobian (dgtsv info=1)"
    assert batch[2].partial.nsteps == 0
    assert isinstance(batch[3], ValueError)
    assert str(batch[3]) == "schedule produced a nonpositive boundary value"
    with pytest.raises(ValueError, match="nonpositive"):
        evolve(nonpositive)
    assert isinstance(batch[6], ValueError) and "T must exceed" in str(batch[6])
    for got, want in zip(batch[:2] + batch[4:6], solo):
        _assert_same_run(got, want)
    assert calls  # the stub was in the loop


# -------------------------------------------------------------- exhaustion


def _ramp_family(st0, ks, dt, T, sample_times=None):
    # the standard exhaustion family: one ramp per k from shared data, one batch
    trajs = solver.evolve_many([Run(st0, BoundarySchedule.ramp(st0, k), dt, T, sample_times)
                                for k in ks])
    assert all(isinstance(traj, Trajectory) for traj in trajs)
    return trajs


def test_exhaust_spec_family_is_monotone():
    # discrete comparison principle: larger ramp, larger solution, every node
    g = LogPolarGrid.graded(0.05, 8.0, 201, ratio=1.03)
    st0 = model_state(FlatDisc, g, 0.0)
    trajs = _ramp_family(st0, [10.0, 1e2, 1e3, 1e4], 2e-3, 0.1,
                         sample_times=[0.05, 0.1])
    assert len(trajs) == 4
    for lo, hi in zip(trajs, trajs[1:]):
        rep = check_order_preservation(lo, hi)
        assert rep.ordered
        assert rep.max_violation < 1e-8


def test_exhaust_supdiffs_decay_for_deep_ramps():
    # once every ramp is past the shallow regime the interior stops feeling
    # the difference: sup-differences on D_{r0} shrink as k grows
    g = LogPolarGrid.graded(0.05, 8.0, 201, ratio=1.03)
    st0 = model_state(FlatDisc, g, 0.0)
    trajs = _ramp_family(st0, [1e2, 1e3, 1e4, 1e5], 2e-3, 0.1)
    mask = g.nodes >= -math.log(0.75)
    finals = [traj.states[-1].values[mask] for traj in trajs]
    sup_diffs = [float(np.max(np.abs(b - a))) for a, b in zip(finals, finals[1:])]
    assert all(b <= a for a, b in zip(sup_diffs, sup_diffs[1:]))
    assert sup_diffs[0] > sup_diffs[-1] > 0.0


def test_exhaust_equal_ramps_identical():
    g = LogPolarGrid.uniform(0.1, 6.0, 81)
    st0 = model_state(FlatDisc, g, 0.0)
    a, b = _ramp_family(st0, [50.0, 50.0], 5e-3, 0.05)
    assert check_order_preservation(a, b).max_violation == 0.0
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.states, b.states))


# ---------------------------------------------------------- order preservation


def test_order_preservation_identical_is_tight():
    g, st0, sched = flat_setup()
    traj = evolve(Run(st0, sched, 0.02, 0.1))
    rep = check_order_preservation(traj, traj)
    assert rep.ordered and rep.max_violation == 0.0


def test_order_preservation_model_pair():
    # 2t/sinh^2 <= 2t/s^2 pointwise, preserved along the numerical flow
    g = LogPolarGrid.uniform(0.3, 5.0, 201)
    dt = 5e-3
    lo, hi = (evolve(Run(model_state(model, g, 0.2),
                         BoundarySchedule.from_model(model, g.s_min, g.s_max),
                         dt, 0.6, sample_times=[0.4, 0.6]))
              for model in (BigBang, Cusp))
    rep = check_order_preservation(lo, hi)
    assert rep.ordered


def test_order_preservation_incompatibility_errors():
    g, st0, sched = flat_setup()
    traj = evolve(Run(st0, sched, 0.02, 0.1))
    g2 = LogPolarGrid.uniform(0.1, 6.0, 51)
    other = evolve(Run(model_state(FlatDisc, g2, 0.0), sched, 0.02, 0.1))
    with pytest.raises(ValueError, match="incompatible"):
        check_order_preservation(traj, other)
    shifted = evolve(Run(st0, sched, 0.02, 0.12))
    with pytest.raises(ValueError, match="mismatched"):
        check_order_preservation(traj, shifted)


@given(st.floats(min_value=10.0, max_value=1e3), st.floats(min_value=1.5, max_value=50.0))
@settings(max_examples=5, deadline=None)
def test_ordered_ramps_give_ordered_flows(k1, factor):
    k2 = k1 * factor
    g = LogPolarGrid.graded(0.1, 6.0, 61, ratio=1.05)
    st0 = model_state(FlatDisc, g, 0.0)
    dt = 2e-3
    lo = evolve(Run(st0, BoundarySchedule.ramp(st0, k1), dt, 0.02))
    hi = evolve(Run(st0, BoundarySchedule.ramp(st0, k2), dt, 0.02))
    assert check_order_preservation(lo, hi).ordered
