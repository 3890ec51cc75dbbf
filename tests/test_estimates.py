import csv
import math

import numpy as np
import pytest

from logdiff.cutoff import CutoffSpec, INV_SQUARE_CONSTANT, compute_Q
from logdiff.geometry import (
    BigBang,
    ConformalState,
    Cusp,
    FlatDisc,
    LogPolarGrid,
    gauss_curvature,
    model_state,
)
from logdiff.solver import NEWTON_TOL, BoundarySchedule, Run, Trajectory, evolve
from logdiff import estimates as est
from logdiff.snapshots import load_trajectory, save_trajectory
from oracle_support import pair_flux_rate_reference

# frozen reference values (40-digit quadrature, see tests/oracle_support.py)
PAIR_FLUX_RATE = 9.7794587372932628163  # 4 pi int (1/s^2 - 1/sinh^2 s) phi, case A, [0.1, 8]
Q_CASE_A = 10.18574547976275190944
C_STAR_INT = {0.1: 55.701780222271057644, 0.25: 19.543494496015334553, 0.4: 11.162237715420048715}
C_LEMMA = {0.1: 1441.9650181328825201, 0.25: 396.14433234691208565, 0.4: 228.43351974534767919}


def _rows(report, inequality):
    return tuple(r for r in report.rows if r.inequality == inequality)


def case_a_spec():
    return CutoffSpec(math.exp(-0.5), math.exp(-0.1), 0.25)


def exact_pair(grid, times):
    tg = Trajectory(states=tuple(model_state(BigBang, grid, t) for t in times))
    tG = Trajectory(states=tuple(model_state(Cusp, grid, t) for t in times))
    return tg, tG


@pytest.fixture(scope="module")
def model_pair():
    grid = LogPolarGrid.graded(0.025, 8.0, 801, ratio=1.01)
    return exact_pair(grid, (0.2, 0.3, 0.4, 0.5, 0.6))


@pytest.fixture(scope="module")
def exhaust_spec():
    return CutoffSpec(0.55, math.exp(-0.18), 0.25)


@pytest.fixture(scope="module")
def exhaust_pair(exhaust_spec):
    # the flux-ODI example pair: ramps 1e2 and 1e3 from flat initial data,
    # grid truncated at s_min = S/4 so boundary artifacts sit inside the
    # cut-off dead zone
    g = LogPolarGrid.graded(exhaust_spec.S / 4.0, 8.0, 261, ratio=1.02)
    st0 = model_state(FlatDisc, g)
    dt = 1e-3
    ts = [0.02, 0.04, 0.06, 0.08, 0.1]
    lo = evolve(Run(st0, BoundarySchedule.ramp(st0, 1e2), dt, 0.1, sample_times=ts))
    hi = evolve(Run(st0, BoundarySchedule.ramp(st0, 1e3), dt, 0.1, sample_times=ts))
    return lo, hi


@pytest.fixture(scope="module")
def crossing_pair(exhaust_spec):
    # swap the two ramps at T/2: the early-strong run keeps a deeper imprint
    # while the late-strong run wins near the boundary, so the conformal
    # factors cross and neither ordering holds
    g = LogPolarGrid.graded(exhaust_spec.S / 4.0, 8.0, 261, ratio=1.02)
    st0 = model_state(FlatDisc, g)
    u_in, u_out = float(st0.values[0]), float(st0.values[-1])
    T = 0.1
    k1, k2 = 3947.95, 19739.76

    def swap_schedule(ka, kb):
        def inner(t):
            return max(u_in, (ka if t < T / 2 else kb) * t)

        return BoundarySchedule(inner=inner, outer=lambda t: u_out)

    dt = 1e-3
    ts = [0.02, 0.04, 0.06, 0.08, 0.1]
    a = evolve(Run(st0, swap_schedule(k1, k2), dt, T, sample_times=ts))
    b = evolve(Run(st0, swap_schedule(k2, k1), dt, T, sample_times=ts))
    return a, b


# ----------------------------------------------------------------- constants


def test_c_star_chain_matches_frozen_values():
    for gamma, ref in C_STAR_INT.items():
        assert est.c_star_int(gamma) == pytest.approx(ref, rel=1e-12)
        assert est.c_star_diff(gamma) == pytest.approx(ref / (1.0 + gamma), rel=1e-12)


def test_c_star_closed_form():
    gamma = 0.25
    direct = (2.0 * math.pi * INV_SQUARE_CONSTANT**gamma) ** 0.8 / gamma
    assert est.c_star_diff(gamma) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(ValueError):
        est.c_star_diff(0.0)
    with pytest.raises(ValueError):
        est.c_star_diff(1.5)


def test_lemma_constant_matches_frozen_values():
    for gamma, ref in C_LEMMA.items():
        assert est.lemma_constant(gamma) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------- J(t)


def test_J_identical_pair_is_zero(model_pair):
    tg, _ = model_pair
    assert est.J_samples(tg, tg, case_a_spec()) == (0.0,) * len(tg.states)


def test_J_linear_in_t_on_model_pair(model_pair):
    # V - U = 2t (1/s^2 - 1/sinh^2 s), so J(t) = t * (frozen quadrature rate)
    tg, tG = model_pair
    Js = est.J_samples(tg, tG, case_a_spec())
    for t, J in zip(tg.times, Js):
        assert J / t == pytest.approx(PAIR_FLUX_RATE, rel=1e-4)


def test_J_matches_pair_flux_rate_reference():
    # J / t of the model pair against the 40-digit quadrature behind
    # PAIR_FLUX_RATE (s0 = 1/2, S = 1/10, s_max = 8); measured 4.5e-7 apart
    # on this grid
    spec = case_a_spec()
    ref = float(pair_flux_rate_reference(0.5, 0.1, 8.0))
    assert PAIR_FLUX_RATE == pytest.approx(ref, rel=1e-15)
    grid = LogPolarGrid.graded(spec.S / 4.0, 8.0, 4001, ratio=1.002)
    tg, tG = exact_pair(grid, (0.4,))
    (J,) = est.J_samples(tg, tG, spec)
    assert J / 0.4 == pytest.approx(ref, rel=2e-6)


def test_J_refuses_incompatible_grids(model_pair):
    tg, _ = model_pair
    g2 = LogPolarGrid.uniform(0.1, 6.0, 101)
    other, _ = exact_pair(g2, (0.2, 0.4))
    with pytest.raises(ValueError, match="incompatible"):
        est.J_samples(tg, other, case_a_spec())


# ------------------------------------------------------------ dJ/dt identity


def test_djdt_identity_on_model_pair(model_pair):
    tg, tG = model_pair
    spec = case_a_spec()
    Js = est.J_samples(tg, tG, spec)
    rows, why = est.djdt_identity_check(tg, tG, spec, Js)
    assert why is None
    # one row at each interior sample time
    assert [(r.time, r.inequality) for r in rows] == [
        (0.3, "djdt-identity"), (0.4, "djdt-identity"), (0.5, "djdt-identity")]
    assert all(r.margin >= 0.0 for r in rows)
    # J is exactly linear in t, so centered differencing is exact and both
    # routes must land on the frozen rate
    fd = (Js[3] - Js[1]) / (0.5 - 0.3)
    phi2, boundary = est._djdt_terms(tg.states[2], tG.states[2], spec)
    assert fd == pytest.approx(PAIR_FLUX_RATE, rel=1e-4)
    assert phi2 + boundary == pytest.approx(PAIR_FLUX_RATE, rel=1e-4)
    assert rows[1].lhs == abs(fd - (phi2 + boundary))
    assert rows[1].lhs < 1e-3
    # the s_max bracket is phi * d_s(log V - log U) = 2(coth s - 1/s) there
    analytic = 2.0 * math.pi * 2.0 * (1.0 / math.tanh(8.0) - 1.0 / 8.0)
    assert boundary == pytest.approx(analytic, rel=1e-4)


def test_djdt_identity_trivial_for_identical_pair(model_pair):
    tg, _ = model_pair
    spec = case_a_spec()
    rows, _ = est.djdt_identity_check(tg, tg, spec, est.J_samples(tg, tg, spec))
    assert len(rows) == 3 and all(r.lhs == 0.0 for r in rows)
    assert est._djdt_terms(tg.states[2], tg.states[2], spec) == (0.0, 0.0)


def test_djdt_identity_gated_without_an_interior_sample_time(model_pair):
    tg, tG = exact_pair(model_pair[0].grid, (0.2, 0.4))
    spec = case_a_spec()
    assert est.djdt_identity_check(tg, tG, spec, est.J_samples(tg, tG, spec)) == (
        (), "no sample time between t=0.2 and t=0.4")


def test_djdt_rejects_mismatched_times(model_pair):
    tg, tG = model_pair
    grid = tg.grid
    other, _ = exact_pair(grid, (0.2, 0.4))
    with pytest.raises(ValueError, match="mismatched"):
        est.djdt_identity_check(tg, other, case_a_spec(), (0.0, 0.0))


# -------------------------------------------------------------- lower barrier


def test_barrier_is_exact_equality_for_bigbang(model_pair):
    tg, _ = model_pair
    rows = est.lower_barrier_check(tg)
    assert [r.time for r in rows] == list(tg.times)
    assert all(r.inequality == "lower-barrier" and r.constants == "" for r in rows)
    assert [r.margin for r in rows] == [0.0] * len(tg.states)


def test_barrier_for_cusp_is_positive(model_pair):
    _, tG = model_pair
    rows = est.lower_barrier_check(tG)
    assert min(r.margin for r in rows) > 0.0  # sinh s > s for s > 0


def test_barrier_flags_violator():
    g = LogPolarGrid.graded(0.05, 8.0, 201, ratio=1.03)
    states = tuple(
        ConformalState(g, float(t) / np.sinh(g.nodes) ** 2, float(t)) for t in (0.2, 0.4)
    )
    viol = Trajectory(states=states)
    worst = min(r.margin for r in est.lower_barrier_check(viol))
    assert worst < -1.0
    # node restriction matters: the worst violation sits at small s
    deep = est.lower_barrier_check(viol, s_from=2.0)
    assert min(r.margin for r in deep) > worst
    assert {r.constants for r in deep} == {"s>=2"}
    with pytest.raises(ValueError, match="no grid nodes"):
        est.lower_barrier_check(viol, s_from=100.0)


# ------------------------------------------------------- inverse-square bound


def test_inverse_bound_on_bigbang_is_tight_at_log2():
    g = LogPolarGrid.uniform(0.05, 4.0, 2001)
    tb, _ = exact_pair(g, (0.2, 0.4))
    rows, why = est.pointwise_u_inverse_bound(tb)  # barrier holds, so the bound is asserted
    assert why is None
    assert [(r.time, r.inequality) for r in rows] == [(0.2, "u-inverse-bound"), (0.4, "u-inverse-bound")]
    row = rows[1]
    scale = INV_SQUARE_CONSTANT * math.log(2.0) ** 2 / 0.4
    # sinh(log 2) = 3/4 makes the bound an equality at s = log 2, so the
    # margin at the nearest node is positive but a small fraction of scale
    assert 0.0 < row.margin < 1e-3 * scale


def test_inverse_bound_not_asserted_without_barrier():
    g = LogPolarGrid.graded(0.05, 8.0, 201, ratio=1.03)
    states = tuple(
        ConformalState(g, float(t) / np.sinh(g.nodes) ** 2, float(t)) for t in (0.2, 0.4)
    )
    viol = Trajectory(states=states)
    rows, why = est.pointwise_u_inverse_bound(viol)
    assert rows == () and why.startswith("lower barrier on (0, 0.6931) fails by ")
    # the gate read the barrier on (0, log 2)
    assert min(r.margin for r in est.lower_barrier_check(viol, s_to=math.log(2.0))) < 0.0


def test_inverse_bound_gate_tolerance():
    # the gate forgives a barrier deficit up to 1e-9 max(1, max U(0)); on
    # this exact flow the barrier's lhs is 0 and that tolerance 1.599e-7
    g = LogPolarGrid.uniform(0.05, 4.0, 2001)
    tb, _ = exact_pair(g, (0.2, 0.4))
    tol = 1e-9 * float(np.max(tb.states[0].values))
    assert tol == pytest.approx(1.599e-7, rel=1e-3)
    assert max(r.lhs for r in est.lower_barrier_check(tb, s_to=math.log(2.0))) == 0.0
    j = int(np.searchsorted(g.nodes, 0.5))  # a node in (0, log 2)
    first, last = tb.states
    for deficit, kept in ((tol / 3.0, True), (3.0 * tol, False)):
        values = last.values.copy()
        values[j] -= deficit
        lowered = Trajectory(states=(first, ConformalState(g, values, last.time)))
        rows, why = est.pointwise_u_inverse_bound(lowered)
        assert (len(rows), why is None) == ((2, True) if kept else (0, False))


def test_inverse_bound_validation():
    deep = LogPolarGrid.uniform(1.0, 6.0, 101)
    tdeep, _ = exact_pair(deep, (0.4,))
    assert est.pointwise_u_inverse_bound(tdeep) == ((), "no grid nodes in (0, log 2)")


# ------------------------------------------------------------------ main ODI


def test_odi_on_model_pair(model_pair):
    tg, tG = model_pair
    spec = case_a_spec()
    Js = est.J_samples(tg, tG, spec)
    Q = compute_Q(spec).Q
    assert Q == pytest.approx(Q_CASE_A, rel=1e-12)
    rows = est.main_odi_check(tg.times, Js, spec, Q)
    assert [r.time for r in rows] == [0.3, 0.4, 0.5, 0.6]
    # the rows state the C* they used: the frozen integrated-ODI constant
    assert est.c_star_int(0.25) == pytest.approx(C_STAR_INT[0.25], rel=1e-12)
    assert {r.constants for r in rows} == {f"gamma=0.25 C*={est.c_star_int(0.25):.8g} Q={Q:.8g}"}
    assert all(r.margin > 1.0 for r in rows)  # holds with slack here
    # lhs consistency: J = rate * t exactly, p = 0.8
    rate = Js[0] / 0.2
    lhs = (rate * 0.3) ** 0.8 - (rate * 0.2) ** 0.8
    assert rows[0].lhs == pytest.approx(lhs, rel=1e-9)


def test_odi_trivial_for_identical_pair(model_pair):
    tg, _ = model_pair
    spec = case_a_spec()
    rows = est.main_odi_check(tg.times, est.J_samples(tg, tg, spec), spec, compute_Q(spec).Q)
    assert all(r.lhs == 0.0 and r.margin >= 0.0 for r in rows)


def test_odi_on_exhaustion_pair(exhaust_pair, exhaust_spec):
    lo, hi = exhaust_pair
    Js = est.J_samples(lo, hi, exhaust_spec)
    rows = est.main_odi_check(lo.times, Js, exhaust_spec, compute_Q(exhaust_spec).Q)
    assert Js[0] == 0.0  # equal initial data
    assert all(j >= 0.0 for j in Js)
    assert min(r.margin for r in rows) > 1.0


def test_holder_step_discrete(model_pair, exhaust_pair, exhaust_spec):
    # the flux ODI's Hoelder step as a trapezoid sum: with q = gamma/(1+gamma),
    # d = (V-U)_+ phi and g = |phi''| (phi U)^{-q},
    # sum w d^q g <= (sum w d)^q (sum w g^{1+gamma})^{1/(1+gamma)}
    def sides(traj_g, traj_G, spec, k):
        s = traj_g.grid.nodes
        U, V = traj_g.states[k].values, traj_G.states[k].values
        q = spec.gamma / (1.0 + spec.gamma)
        phi, phi2 = spec.value(s), np.abs(spec.second_deriv(s))
        d = np.maximum(V - U, 0.0) * phi
        g = np.zeros_like(s)
        live = (phi > 0.0) & (phi2 > 0.0)
        g[live] = phi2[live] * (phi[live] * U[live]) ** -q
        w = np.zeros_like(s)
        w[1:] += 0.5 * np.diff(s)
        w[:-1] += 0.5 * np.diff(s)
        rhs = np.sum(w * d) ** q * np.sum(w * g ** (1.0 + spec.gamma)) ** (1.0 - q)
        return np.sum(w * d**q * g), rhs

    lhs, rhs = sides(*model_pair, case_a_spec(), 2)  # t = 0.4
    assert lhs <= rhs * (1.0 + 1e-12)
    for k in (1, 3, 5):  # t = 0.02, 0.06, 0.1
        lhs, rhs = sides(*exhaust_pair, exhaust_spec, k)
        assert lhs <= rhs * (1.0 + 1e-12)
        assert rhs > 0.0


# ------------------------------------------------------------ area estimates


def _lemma_term(spec, t):
    # C_L [t/(s0 (log s0 - log S)^gamma)]^p: the envelope without its initial term
    p = 1.0 / (1.0 + spec.gamma)
    denom = spec.s0 * (math.log(spec.s0) - math.log(spec.S)) ** spec.gamma
    return est.lemma_constant(spec.gamma) * (t / denom) ** p


def test_interior_area_on_exhaustion_pair(exhaust_pair, exhaust_spec):
    lo, hi = exhaust_pair
    rows = est.interior_area_verify(lo, hi, exhaust_spec)
    assert [r.time for r in rows] == list(lo.times)
    assert rows[0].lhs == 0.0 and rows[0].rhs == 0.0
    assert all(r.margin > 1.0 for r in rows[1:])
    # equal initial data, so the initial term is 0 and the envelope is the
    # lemma term alone, with the frozen C_L
    assert est.lemma_constant(0.25) == pytest.approx(C_LEMMA[0.25], rel=1e-12)
    for r in rows:
        assert r.rhs == pytest.approx(_lemma_term(exhaust_spec, r.time), rel=1e-12)


def test_interior_area_on_model_pair(model_pair):
    tg, tG = model_pair
    spec = CutoffSpec(0.55, math.exp(-0.18), 0.25)
    rows = est.interior_area_verify(tg, tG, spec)
    assert all(r.margin >= 0.0 for r in rows)
    # different data already at the first sample: a positive initial term
    assert rows[0].rhs - _lemma_term(spec, rows[0].time) > 0.0


def test_interior_area_trivial_identical(exhaust_pair, exhaust_spec):
    lo, _ = exhaust_pair
    rows = est.interior_area_verify(lo, lo, exhaust_spec)
    assert all(r.lhs == 0.0 and r.margin >= 0.0 for r in rows)


def test_interior_area_domain_errors(exhaust_pair, exhaust_spec):
    lo, hi = exhaust_pair
    with pytest.raises(ValueError, match="R must"):
        # r0 = 0.75 needs R > 0.75^(1/3) ~ 0.908, above the grid-implied R
        est.interior_area_verify(lo, hi, CutoffSpec(0.75, exhaust_spec.R, 0.25))
    with pytest.raises(ValueError, match="gamma"):
        est.interior_area_verify(lo, hi, CutoffSpec(0.55, exhaust_spec.R, 0.75))


def test_interior_area_refuses_unordered(crossing_pair, exhaust_spec):
    a, b = crossing_pair
    with pytest.raises(ValueError, match="not ordered"):
        est.interior_area_verify(a, b, exhaust_spec)


def test_volume_excess_reduces_to_interior_area_when_ordered(exhaust_pair, exhaust_spec):
    lo, hi = exhaust_pair
    cert = est.interior_area_verify(lo, hi, exhaust_spec)
    vex = est.volume_excess_verify(lo, hi, exhaust_spec)
    assert [r.inequality for r in vex] == ["volume-excess"] * len(cert)
    for a, b in zip(cert, vex):
        assert b.lhs == pytest.approx(a.lhs, rel=1e-10, abs=1e-13)
        assert b.rhs == pytest.approx(a.rhs, rel=1e-12)


def test_volume_excess_identical_is_zero(exhaust_pair, exhaust_spec):
    lo, _ = exhaust_pair
    vex = est.volume_excess_verify(lo, lo, exhaust_spec)
    assert all(r.lhs == 0.0 for r in vex)


def test_volume_excess_on_crossing_pair(crossing_pair, exhaust_spec):
    # genuine crossing: neither ordering holds, yet the positive-part
    # certificate goes through
    a, b = crossing_pair
    assert not est.check_order_preservation(a, b).ordered
    assert not est.check_order_preservation(b, a).ordered
    vex = est.volume_excess_verify(a, b, exhaust_spec)
    assert all(r.margin >= 0.0 for r in vex)
    assert any(r.lhs > 0.0 for r in vex)


# ------------------------------------------------- curvature monotonicity


def test_curvature_check_flat_static():
    g = LogPolarGrid.uniform(0.1, 6.0, 101)
    st0 = model_state(FlatDisc, g)
    sched = BoundarySchedule.from_model(FlatDisc, g.s_min, g.s_max)
    traj = evolve(Run(st0, sched, 0.02, 0.3, sample_times=[0.1, 0.2, 0.3]))
    (row,), why = est.curvature_monotonicity_check(traj, "damped-monotone-g")  # gate passed
    assert why is None
    assert (row.time, row.inequality) == (0.3, "damped-monotone-g")
    assert row.margin >= 0.0
    assert row.lhs < 0.0  # e^{-2t} U strictly decreasing


def test_curvature_check_fails_when_damped_factor_rises():
    # negative control: scaling the last snapshot shifts log U by a constant,
    # so K stays 0 and the gate passes, but e^{-2t} U now rises at the end
    g = LogPolarGrid.uniform(0.1, 6.0, 101)
    st0 = model_state(FlatDisc, g)
    sched = BoundarySchedule.from_model(FlatDisc, g.s_min, g.s_max)
    traj = evolve(Run(st0, sched, 0.02, 0.3, sample_times=[0.1, 0.2, 0.3]))
    last = traj.states[-1]
    bumped = Trajectory(states=traj.states[:-1] + (ConformalState(g, 1.5 * last.values, last.time),))
    (row,), why = est.curvature_monotonicity_check(bumped, "damped-monotone-g")
    assert why is None
    assert row.margin < 0.0


def test_curvature_check_bigbang_late_times():
    g = LogPolarGrid.uniform(0.5, 3.0, 4001)
    tb, _ = exact_pair(g, (0.5, 0.75, 1.0))
    (row,), _ = est.curvature_monotonicity_check(tb, "damped-monotone-g")  # K = -1/(2t) >= -1 for t >= 1/2
    assert row.margin >= 0.0
    assert row.lhs <= 0.0


def test_curvature_gate_blocks_early_bigbang():
    g = LogPolarGrid.uniform(0.5, 3.0, 401)
    tb, _ = exact_pair(g, (0.2, 0.3))
    rows, why = est.curvature_monotonicity_check(tb, "damped-monotone-g")
    assert rows == () and why.startswith("K_min = ")
    assert min(float(np.min(gauss_curvature(st))) for st in tb.states) < -2.0


def _flat_profile(grid, peak):
    # peak e^{-2 (s - s_min)}: log-linear, so its discrete K is 0 up to roundoff
    return peak * np.exp(-2.0 * (grid.nodes - grid.s_min))


@pytest.mark.parametrize("peak", [4.0, 0.25])
def test_order_tolerance(peak):
    # ordered means U_a <= U_b + 10 NEWTON_TOL max(1, max U at the last
    # sample time): one crossing inside that tolerance, one outside it
    g = LogPolarGrid.uniform(0.1, 2.0, 41)
    base = _flat_profile(g, peak)
    tol = 10.0 * NEWTON_TOL * max(1.0, peak)
    lower = Trajectory(states=(ConformalState(g, base, 0.0), ConformalState(g, base, 0.1)))
    for excess, ordered in ((tol / 3.0, True), (3.0 * tol, False)):
        above = base.copy()
        above[20] += excess
        upper = Trajectory(states=(lower.states[0], ConformalState(g, above, 0.1)))
        rep = est.check_order_preservation(upper, lower)
        assert rep.ordered == ordered
        assert rep.max_violation == pytest.approx(excess, rel=1e-6)


@pytest.mark.parametrize("peak", [4.0, 0.25])
def test_damped_monotone_tolerance(peak):
    # the damped factor e^{-2t} U may rise by 10 NEWTON_TOL max(1, max U(0));
    # U(t) = e^{2t} (1 + eps) U(0) raises it by eps peak, at s_min
    g = LogPolarGrid.uniform(0.1, 2.0, 41)
    base = _flat_profile(g, peak)
    tol = 10.0 * NEWTON_TOL * max(1.0, peak)
    for excess, holds in ((tol / 3.0, True), (3.0 * tol, False)):
        later = math.exp(0.2) * (1.0 + excess / peak) * base
        traj = Trajectory(states=(ConformalState(g, base, 0.0), ConformalState(g, later, 0.1)))
        (row,), why = est.curvature_monotonicity_check(traj, "damped-monotone-g")
        assert why is None and row.rhs == tol
        assert row.lhs == pytest.approx(excess, rel=1e-5)
        assert (row.margin >= 0.0) == holds


def test_curvature_gate_slack():
    # U -> A U turns the discrete K into K/A, so A puts K_min just inside
    # and just outside the gate's slack, K >= -1 - 1e-6
    g = LogPolarGrid.uniform(0.5, 3.0, 401)
    tb, _ = exact_pair(g, (0.5, 1.0))
    kmin = min(float(np.min(gauss_curvature(st))) for st in tb.states)
    for target, kept in ((-1.0 - 4e-7, True), (-1.0 - 3e-6, False)):
        scale = kmin / target
        scaled = Trajectory(states=tuple(
            ConformalState(g, scale * st.values, st.time) for st in tb.states))
        assert min(float(np.min(gauss_curvature(st))) for st in scaled.states) == pytest.approx(
            target, rel=0.0, abs=1e-9)
        rows, why = est.curvature_monotonicity_check(scaled, "damped-monotone-g")
        assert (len(rows), why is None) == ((1, True) if kept else (0, False))
    # the note keeps enough digits to tell K_min from the threshold
    assert why == "K_min = -1.000003 < -1.000001 at t=0.5"


# ----------------------------------------------------------------- reporting


def test_inequality_row_margin():
    row = est.InequalityRow(0.1, "demo", 1.0, 3.0)
    assert row.margin == 2.0
    assert not row.vacuous and est.InequalityRow(0.0, "demo", 0.0, -0.0).vacuous


def test_worst_row_skips_vacuous_rows():
    rows = (est.InequalityRow(0.0, "a", 0.0, 0.0), est.InequalityRow(0.1, "b", 1.0, 1.5),
            est.InequalityRow(0.2, "c", 0.0, 2.0))
    assert est.EstimateReport(rows, {}, {}).worst is rows[1]
    assert est.EstimateReport(rows[:1], {}, {}).worst is None


def test_full_report_always_has_a_worst_row(model_pair, exhaust_pair, crossing_pair,
                                            exhaust_spec):
    # verify prints the worst margin unconditionally: every report holds
    # volume-excess rows, and at each t > 0 their rhs init + C_L (t/denom)^p
    # is positive, so some row is not vacuous
    tg, _ = model_pair
    for pair, spec in (((tg, tg), case_a_spec()), (model_pair, case_a_spec()),
                       (crossing_pair, exhaust_spec), (exhaust_pair, exhaust_spec)):
        assert est.full_report(*pair, spec).worst is not None


def test_J_table_must_cover_every_sample_time(model_pair):
    tg, tG = model_pair
    spec = case_a_spec()
    short = est.J_samples(tg, tG, spec)[:-1]
    with pytest.raises(ValueError, match="one J value per sample time"):
        est.djdt_identity_check(tg, tG, spec, short)
    with pytest.raises(ValueError, match="one J value per sample time"):
        est.main_odi_check(tg.times, short, spec, compute_Q(spec).Q)


def test_full_report_on_exhaustion_pair(exhaust_pair, exhaust_spec, tmp_path):
    lo, hi = exhaust_pair
    rep = est.full_report(lo, hi, exhaust_spec)
    assert rep.meta["ordered"]
    for name in ("J-nonnegative", "area-diff-below-J", "main-odi", "interior-area", "volume-excess"):
        rows = _rows(rep, name)
        assert rows and all(r.margin >= 0.0 for r in rows)
    assert all(r.margin >= 0.0 for r in _rows(rep, "djdt-identity"))
    # the k = 1e2 ramp does not dominate 2tH, so the barrier honestly fails
    assert any(r.margin < 0.0 for r in _rows(rep, "lower-barrier"))
    assert not rep.passed
    assert rep.worst.inequality == "lower-barrier"
    # the broken barrier also shuts the gate of the 1/U bound, and says so
    assert _rows(rep, "u-inverse-bound") == ()
    assert rep.gated["u-inverse-bound"].startswith("lower barrier on (0, 0.6931) fails by ")

    path = tmp_path / "report.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config-hash=")
    reader = csv.DictReader(lines[1:])
    parsed = list(reader)
    assert len(parsed) == len(rep.rows)
    assert {row["inequality"] for row in parsed} >= {"main-odi", "volume-excess"}
    # numpy scalars must reach the file as plain float text
    for row in parsed:
        for col in ("time", "lhs", "rhs", "margin"):
            float(row[col])


def test_full_report_same_after_save_and_load(exhaust_pair, exhaust_spec, tmp_path):
    # a saved run keeps no solver settings, and the report needs none
    lo, hi = exhaust_pair
    live = est.full_report(lo, hi, exhaust_spec)
    back = est.full_report(
        *(load_trajectory(save_trajectory(traj, tmp_path / name, "pair"))
          for traj, name in ((lo, "lo"), (hi, "hi"))),
        exhaust_spec,
    )
    assert back.rows == live.rows
    assert back.gated == live.gated


def test_full_report_refuses_reversed_pair(exhaust_pair, exhaust_spec):
    # larger flow first would otherwise read as a crossing pair and pass on
    # a volume excess that is zero by construction
    lo, hi = exhaust_pair
    with pytest.raises(ValueError, match="reverse order"):
        est.full_report(hi, lo, exhaust_spec)


def test_full_report_dominating_ramps_all_pass(exhaust_spec):
    # ramps k = A * 2H(s_min): the big-bang barrier now holds globally and
    # every certificate row is nonnegative
    g = LogPolarGrid.graded(exhaust_spec.S / 4.0, 8.0, 261, ratio=1.02)
    st0 = model_state(FlatDisc, g)
    two_H = 2.0 / math.sinh(g.s_min) ** 2
    dt = 1e-3
    ts = [0.02, 0.04, 0.06, 0.08, 0.1]
    lo = evolve(Run(st0, BoundarySchedule.ramp(st0, 2.0 * two_H), dt, 0.1, sample_times=ts))
    hi = evolve(Run(st0, BoundarySchedule.ramp(st0, 10.0 * two_H), dt, 0.1, sample_times=ts))
    rep = est.full_report(lo, hi, exhaust_spec)
    assert rep.passed
    # barrier holds, so the bound is asserted at every sample time but t = 0,
    # where it is vacuous
    assert [r.time for r in _rows(rep, "u-inverse-bound")] == ts
    assert "u-inverse-bound" not in rep.gated


def test_full_report_crossing_pair_falls_back(crossing_pair, exhaust_spec):
    # neither order of a crossing pair is refused as reversed
    for a, b in (crossing_pair, crossing_pair[::-1]):
        rep = est.full_report(a, b, exhaust_spec)
        assert not rep.meta["ordered"]
        assert _rows(rep, "main-odi") == ()
        assert _rows(rep, "interior-area") == ()
        for name in ("J-nonnegative", "area-diff-below-J", "main-odi", "interior-area"):
            assert rep.gated[name].startswith("pair not ordered: g exceeds G by up to ")
        rows = _rows(rep, "volume-excess")
        assert rows and all(r.margin >= 0.0 for r in rows)
