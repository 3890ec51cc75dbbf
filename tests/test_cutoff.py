import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdiff.cutoff import (
    INV_SQUARE_CONSTANT,
    CutoffSpec,
    compute_Q,
    flux_deriv,
    flux_knots,
    flux_second_deriv,
    flux_value,
    log_excess,
    q_analytic_bound,
    q_bound_constant,
)
from logdiff.cutoff import _f1, _i2  # branch internals are part of the contract here
from logdiff import cutoff
from logdiff.cutoff import _jacobi_rule, _q_far, _q_near, _q_smooth

# [frozen] mpmath dps=40 values, computed before the implementation existed.
Q_CASE_A = 10.18574547976275190944  # r0=e^{-1/2}, R=e^{-1/10}, gamma=1/4 (single range)
BOUND_CASE_A = 76.370471398492134656
Q_CASE_B = 4.894180228406698520838  # r0=0.55, R=0.995, gamma=0.3 (split at e^2 a)
Q1_CASE_B = 1.388998914941944883523
Q2_CASE_B = 3.505181313464753637314
CQ_TABLE = {
    0.1: 35.842163294019857958,
    0.25: 43.009464224263604688,
    0.4: 68.456074251385095647,
}
I2_TABLE = {
    0.05: 6.2830340025992067744,
    0.1: 6.2232246912758738726,
    0.25: 6.4842544649498386663,
    0.3: 6.857002842153957799,
    0.4: 9.1597831680538936909,
    0.45: 14.092945057813605648,
}
F_AT_ONE_A_EXP2 = 0.56766764161830634595  # 1 - (1-a)/(-log a) at a = e^{-2}
F1_AT_04 = 0.34518599923762513


def spec_case_a():
    return CutoffSpec(r0=math.exp(-0.5), R=math.exp(-0.1), gamma=0.25)


def spec_case_b():
    return CutoffSpec(r0=0.55, R=0.995, gamma=0.3)


# ---------------------------------------------------------------- scalar pieces


def test_inv_square_constant_closed_form():
    assert INV_SQUARE_CONSTANT == pytest.approx(9.0 / (32.0 * math.log(2.0) ** 2), rel=1e-15)
    assert INV_SQUARE_CONSTANT == pytest.approx(0.58538502590782719315, rel=1e-15)


def test_log_excess_series_matches_reference():
    # the series up to u = log1p(x) = 7 and x (u - 1) + u beyond, at
    # x = e^7 - 1 = 1095.6 on both sides
    from oracle_support import mp_excess

    for x in [1e-12, 1e-7, 9.9e-5, 1.01e-4, 0.3, 4.0, 1095.0, 1097.0, 1e6]:
        assert log_excess(x) == pytest.approx(float(mp_excess(x)), rel=2e-15)


@pytest.mark.parametrize("a", [2.0 / 3.0, 0.3, 1e-4])
def test_flux_core_matches_40_digit_reference(a):
    # f on [a, 1) at x = sigma/a - 1 from 1e-12 to 1/a - 1; at a = 1e-4 the
    # core reaches u = log(1 + x) = 9.2, past the series' end at u = 7
    from oracle_support import mp_flux

    xs = np.logspace(-12, math.log10(1.0 / a - 1.0), 400)
    if a < math.exp(-7.0):
        xs = np.concatenate((xs, math.expm1(7.0) * (1.0 + np.linspace(-1e-3, 1e-3, 21))))
    sigma = a * (1.0 + xs)
    sigma = sigma[(sigma >= a) & (sigma < 1.0)]
    ref = np.array([float(mp_flux(a, s)) for s in sigma])
    assert flux_value(a, sigma) == pytest.approx(ref, rel=2e-15, abs=0.0)


def test_log_excess_vectorized_and_nonnegative():
    x = np.logspace(-15, 2, 300)
    v = log_excess(x)
    assert v.shape == x.shape
    assert np.all(v >= 0.0)
    assert np.all(np.diff(v) > 0.0)  # strictly increasing for x > 0
    # any shape, elementwise up to the order of the series' sum; 0 at x = 0;
    # no x < 0, where the series alternates
    grid = np.array([[0.0, 1e-12, 0.3], [4.0, 1097.0, 1e6]])
    assert log_excess(grid) == pytest.approx(np.vectorize(log_excess)(grid), rel=1e-15, abs=0.0)
    assert log_excess(0.0) == 0.0
    for bad in (-1e-12, [0.3, -0.5]):
        with pytest.raises(ValueError, match="x >= 0"):
            log_excess(bad)


# x near 0 on both sides, around 1e-4, and far out
KERNEL_XS = [-0.5, -0.1, -1.0001e-4, -1e-4, -9.999e-5, -1e-8, -1e-12,
             1e-12, 1e-8, 9.999e-5, 1e-4, 1.0001e-4, 0.3, 1.0, 4.0, 1e3]


@pytest.mark.parametrize("x", KERNEL_XS)
def test_scalar_excess_kernels_match_vectorized(x):
    # the near kernel at the x = beta - 1 it is given, alone and inside one
    # vectorized call over every x, against the 40-digit excess; the direct
    # form (1+x) log1p(x) - x is off by up to 5e-12 just above x = 1e-4
    import mpmath as mp
    from oracle_support import mp_excess

    gamma = 0.3
    beta = 1.0 + x
    xb = mp.mpf(beta) - 1
    ref = float(mp.mpf(beta) ** (gamma - 1) * (mp_excess(xb) / xb**2) ** (-gamma))
    together = _q_smooth(1.0 + np.array(KERNEL_XS), gamma)[KERNEL_XS.index(x)]
    assert _q_smooth(beta, gamma) == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert together == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_scalar_excess_ratio_limit_at_zero():
    # log_excess(x)/x^2 -> 1/2, so the smooth integrand is 2^gamma at beta = 1
    for gamma in (0.05, 0.25, 0.45):
        assert _q_smooth(1.0, gamma) == 0.5 ** -gamma


@pytest.mark.parametrize("gamma", [0.05, 0.45])
def test_jacobi_rule_exact_to_degree_2n_minus_1(gamma):
    # the n-point rule integrates t^k (1+t)^{-2 gamma} exactly for k < 2n,
    # to a rounding allowance of 512 ulp of mu0; at n = 20, t^{2n} misses by more
    from oracle_support import jacobi_moment_reference

    mu0 = 2.0 ** (1.0 - 2.0 * gamma) / (1.0 - 2.0 * gamma)
    tol = 512 * np.finfo(float).eps * mu0
    for n in (20, 30):
        t, w = _jacobi_rule(gamma, n)
        assert float(np.sum(w)) == pytest.approx(mu0, rel=1e-14)
        for k in range(2 * n):
            assert abs(w @ t**k - float(jacobi_moment_reference(k, gamma))) <= tol, (n, k)
    t, w = _jacobi_rule(gamma, 20)
    assert abs(w @ t**40 - float(jacobi_moment_reference(40, gamma))) > tol


# ----------------------------------------------------------------- flux profile


def test_flux_value_endpoint_identities():
    a = math.exp(-2.0)
    assert flux_value(a, a) == 0.0
    assert flux_value(a, 0.5 * a) == 0.0
    assert flux_value(a, 2.0) == 1.0
    assert flux_value(a, 57.0) == 1.0
    assert flux_value(a, 1.0 - 1e-14) == pytest.approx(F_AT_ONE_A_EXP2, rel=1e-10)


def test_f1_frozen_value():
    assert _f1(0.4) == pytest.approx(F1_AT_04, rel=1e-14)


def test_flux_knots_by_branch():
    # f1(0.4) = 0.345 in [1/3, 2/3]: cubic filler ends at 2
    assert flux_knots(0.4)[2] == pytest.approx(2.0)
    # f1(0.05) = 0.683 > 2/3: concave parabola reaching 1 at 3 - 2 f1
    f1 = _f1(0.05)
    assert f1 > 2.0 / 3.0
    assert flux_knots(0.05)[2] == pytest.approx(3.0 - 2.0 * f1)
    # f1(0.6) = 0.217 < 1/3: slope-one segment to 2 - 2 f1, then parabola
    f1 = _f1(0.6)
    assert f1 < 1.0 / 3.0
    assert flux_knots(0.6)[2] == pytest.approx(2.0 - 2.0 * f1)


a_values = st.floats(min_value=1e-3, max_value=0.666)


@given(a_values)
@settings(max_examples=60, deadline=None)
def test_flux_range_and_monotone(a):
    sigma = np.linspace(a / 2, 2.5, 1200)
    f = flux_value(a, sigma)
    assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-15)
    assert np.all(np.diff(f) >= -1e-14)
    assert np.all(flux_deriv(a, sigma) >= -1e-14)


@given(a_values)
@settings(max_examples=60, deadline=None)
def test_flux_c1_gluing(a):
    # value and first derivative match across sigma = a, 1, and the filler knot;
    # the derivative jump over 2h is controlled by the local curvature, which
    # grows like 1/(a log(1/a)) at the left breakpoint
    h = 1e-7
    for b in (a, 1.0, flux_knots(a)[2]):
        fl, fr = flux_value(a, b - h), flux_value(a, b + h)
        assert abs(fr - fl) < 2.5 * h + 1e-12  # |f'| <= 1 everywhere
        dl, dr = flux_deriv(a, b - h), flux_deriv(a, b + h)
        curv = max(abs(flux_second_deriv(a, b - h)), abs(flux_second_deriv(a, b + h)))
        assert abs(dr - dl) < 2.5 * h * curv + 1e-9


@given(a_values)
@settings(max_examples=60, deadline=None)
def test_flux_normalized_slope_and_flat_ends(a):
    assert flux_deriv(a, a) == pytest.approx(0.0, abs=1e-15)
    assert flux_deriv(a, 1.0 - 1e-13) == pytest.approx(1.0, rel=1e-10)
    assert flux_deriv(a, 2.0 + 1e-13) == 0.0


@given(a_values)
@settings(max_examples=60, deadline=None)
def test_flux_convex_core_concave_filler(a):
    core = np.linspace(a * (1 + 1e-9), 1.0 - 1e-9, 400)
    assert np.all(flux_second_deriv(a, core) >= 0.0)
    filler = np.linspace(1.0, 2.0, 400)
    assert np.all(flux_second_deriv(a, filler) <= 1e-12)


def test_flux_core_closed_form():
    # on (a, 1) the profile is (sigma log(sigma/a) - sigma + a)/(-log a)
    a = 0.31
    sigma = np.linspace(a + 1e-6, 1.0 - 1e-6, 50)
    expected = (sigma * np.log(sigma / a) - sigma + a) / (-np.log(a))
    assert np.allclose(flux_value(a, sigma), expected, rtol=1e-12)


def test_flux_deriv_matches_finite_differences():
    a = 0.22
    h = 1e-6
    for sig in [0.4, 0.9, 1.2, 1.7]:
        fd = (flux_value(a, sig + h) - flux_value(a, sig - h)) / (2 * h)
        assert flux_deriv(a, sig) == pytest.approx(fd, rel=2e-8, abs=1e-9)
        sd = (flux_value(a, sig + h) - 2 * flux_value(a, sig) + flux_value(a, sig - h)) / h**2
        assert flux_second_deriv(a, sig) == pytest.approx(sd, rel=1e-3, abs=1e-3)


def test_invalid_a_rejected():
    # standalone flux profile accepts any a in (0,1); the 2/3 ceiling is a
    # CutoffSpec invariant, enforced there via R > r0^{1/3}
    with pytest.raises(ValueError):
        flux_value(1.0, 1.0)
    with pytest.raises(ValueError):
        flux_value(0.0, 1.0)
    assert 0.0 < flux_value(0.8, 1.0) < 1.0


# -------------------------------------------------------- cutoff in s variable


def test_cutoff_spec_validation():
    with pytest.raises(ValueError, match=r"r0"):
        CutoffSpec(r0=0.4, R=0.9, gamma=0.25)
    with pytest.raises(ValueError, match=r"R must"):
        CutoffSpec(r0=0.8, R=0.9, gamma=0.25)  # 0.9 < 0.8^{1/3}
    with pytest.raises(ValueError, match=r"gamma"):
        CutoffSpec(r0=0.8, R=0.95, gamma=0.6)


def test_cutoff_derived_quantities():
    spec = spec_case_a()
    assert spec.s0 == pytest.approx(0.5, rel=1e-15)
    assert spec.S == pytest.approx(0.1, rel=1e-14)
    assert spec.a == pytest.approx(0.4, rel=1e-14)
    knots = spec.knots_s()
    assert knots[0] == pytest.approx(spec.S)
    assert knots[1] == pytest.approx(spec.s0 / 2)
    assert knots[-1] == pytest.approx(spec.s0)
    # nondecreasing; the filler knot coincides with s0 when the cubic is used
    assert all(x <= y for x, y in zip(knots, knots[1:]))


def test_cutoff_plateau_and_support():
    spec = spec_case_a()
    s_dead = np.linspace(spec.S / 10, spec.S, 20)
    assert np.all(spec.value(s_dead) == 0.0)
    s_one = np.linspace(spec.s0, 4 * spec.s0, 20)
    assert np.all(spec.value(s_one) == 1.0)
    assert np.all(spec.deriv(s_one) == 0.0)


def test_cutoff_concave_on_outer_half():
    spec = spec_case_b()
    s = np.linspace(spec.s0 / 2 * (1 + 1e-9), spec.s0 * (1 - 1e-9), 300)
    assert np.all(spec.second_deriv(s) <= 1e-10)


def test_cutoff_chain_rule_scaling():
    spec = spec_case_a()
    s = 0.33
    h = 1e-6
    fd = (spec.value(s + h) - spec.value(s - h)) / (2 * h)
    assert spec.deriv(s) == pytest.approx(fd, rel=1e-8)
    sd = (spec.value(s + h) - 2 * spec.value(s) + spec.value(s - h)) / h**2
    assert spec.second_deriv(s) == pytest.approx(sd, rel=1e-4)


# --------------------------------------------------------------- Q integration


def test_q_case_a_single_range():
    rep = compute_Q(spec_case_a())
    assert not rep.split_applied  # e^2 a = 2.96 > 1 leaves nothing above the near range
    assert rep.Q1 == 0.0
    assert rep.Q == pytest.approx(Q_CASE_A, rel=1e-12)
    assert rep.Q2 == pytest.approx(Q_CASE_A, rel=1e-12)
    assert rep.analytic_bound == pytest.approx(BOUND_CASE_A, rel=1e-12)
    assert rep.Q <= rep.analytic_bound
    assert rep.quadrature_error < 1e-9
    assert q_bound_constant(0.25) == pytest.approx(CQ_TABLE[0.25], rel=1e-12)


def test_q_case_b_split_range():
    rep = compute_Q(spec_case_b())
    assert rep.split_applied
    assert rep.Q == pytest.approx(Q_CASE_B, rel=1e-12)
    assert rep.Q1 == pytest.approx(Q1_CASE_B, rel=1e-12)
    assert rep.Q2 == pytest.approx(Q2_CASE_B, rel=1e-12)
    assert rep.Q == pytest.approx(rep.Q1 + rep.Q2, rel=1e-14)
    assert rep.Q <= rep.analytic_bound


def test_q_cases_match_independent_reference():
    from oracle_support import q_reference

    qa, _, _ = q_reference(0.5, 0.1, 0.25, split=False)
    assert float(qa) == pytest.approx(Q_CASE_A, rel=1e-14)
    sb = spec_case_b()
    qb, q1b, q2b = q_reference(sb.s0, sb.S, 0.3, split=True)
    assert float(qb) == pytest.approx(Q_CASE_B, rel=1e-14)
    assert float(q1b) == pytest.approx(Q1_CASE_B, rel=1e-14)
    assert float(q2b) == pytest.approx(Q2_CASE_B, rel=1e-14)


@pytest.mark.parametrize("r0, R, gamma, split", [
    (0.8, 0.95, 0.4, False),
    (0.75, 0.93, 0.45, False),
    (0.9, 0.97, 0.05, False),
    (0.6, 0.97, 0.45, True),
    (0.55, 0.995, 0.45, True),
    (0.7, 0.99, 0.25, True),
])
def test_compute_q_matches_reference(r0, R, gamma, split):
    from oracle_support import q_reference

    spec = CutoffSpec(r0, R, gamma)
    rep = compute_Q(spec)
    assert rep.split_applied == split
    q, q1, q2 = (float(v) for v in q_reference(spec.s0, spec.S, gamma, split=True))
    assert rep.Q == pytest.approx(q, rel=1e-13)
    assert rep.Q1 == pytest.approx(q1, rel=1e-13, abs=0.0)
    assert rep.Q2 == pytest.approx(q2, rel=1e-13)


def test_i2_frozen_table():
    # frozen values come from the binomial-series evaluation (the endpoint
    # singularity reaches exponent -0.9 at gamma=0.45, where naive adaptive
    # quadrature silently loses five digits)
    for gamma, val in I2_TABLE.items():
        assert _i2(gamma) == pytest.approx(val, rel=1e-12)


def test_q_bound_constant_frozen_table():
    for gamma, val in CQ_TABLE.items():
        assert q_bound_constant(gamma) == pytest.approx(val, rel=1e-12)
    with pytest.raises(ValueError):
        q_bound_constant(0.5)


def test_q_bound_constant_matches_reference():
    from oracle_support import q_bound_constant_reference

    for gamma in (0.1, 0.25, 0.4, 0.45):
        assert q_bound_constant(gamma) == pytest.approx(
            float(q_bound_constant_reference(gamma)), rel=1e-12
        )


def test_q_stable_under_tolerance_halving(monkeypatch):
    # every range compute_Q and q_split_check integrate, at two tolerances
    # looser than _Q_TOL: each result stays within the error estimate of the
    # looser one, and so does the result at _Q_TOL itself
    mid = 0.5 * (1.0 + math.exp(2.0))
    tols = (1e-8, 5e-9, cutoff._Q_TOL)

    def integral(tol, gamma, lo, hi):
        monkeypatch.setattr(cutoff, "_Q_TOL", tol)
        # uncached, so each tolerance integrates afresh
        return _q_near.__wrapped__(gamma, hi) if lo == 1.0 else _q_far(gamma, lo, hi)

    for spec in (spec_case_a(), spec_case_b()):
        b_max, e2 = 1.0 / spec.a, math.exp(2.0)
        ranges = [(1.0, min(b_max, e2))]
        if e2 < b_max:
            ranges += [(e2, b_max), (1.0, mid), (mid, b_max)]
        for lo, hi in ranges:
            loose, tight, default = (integral(tol, spec.gamma, lo, hi) for tol in tols)
            assert abs(tight[0] - loose[0]) <= loose[1] + 1e-15
            assert abs(default[0] - loose[0]) <= loose[1] + 1e-15


class _Counting:
    """Stands in for a function of logdiff.cutoff and records the arguments
    of every call."""

    def __init__(self, func):
        self.func = func
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.func(*args)


def _split_specs(r0=0.55, gamma=0.3):
    # S halved from just under s0/3: the deep rows of the q-sweep mesh
    s0 = -math.log(r0)
    specs = [CutoffSpec(r0, math.exp(-0.98 * (s0 / 3.0) * 0.5 ** j), gamma) for j in range(4, 10)]
    assert all(math.exp(2.0) * spec.a < 1.0 for spec in specs)
    return specs


def test_q_near_part_integrated_once_per_gamma(monkeypatch):
    _q_near.cache_clear()
    rules = _Counting(cutoff._near_integral)
    far = _Counting(_q_far)
    kernel = _Counting(_q_smooth)
    monkeypatch.setattr(cutoff, "_near_integral", rules)
    monkeypatch.setattr(cutoff, "_q_far", far)
    monkeypatch.setattr(cutoff, "_q_smooth", kernel)
    specs = _split_specs()
    reports = [compute_Q(spec) for spec in specs]
    assert all(rep.split_applied for rep in reports)
    # one near integral, over [1, e^2]; the bound's I2 integrates at its own 1e-13
    assert [c[:2] for c in rules.calls if c[3] == cutoff._Q_TOL] == [(0.3, math.exp(2.0))]
    near = _q_near.cache_info()
    assert (near.misses, near.hits, near.currsize) == (1, len(specs) - 1, 1)
    assert far.calls == [(0.3, math.exp(2.0), 1.0 / spec.a) for spec in specs]  # one per point
    # the near rule's kernel ran once, on the nodes of the first rule pair,
    # which meets the tolerance
    assert [(len(c[0]), c[1]) for c in kernel.calls] == [(20 + 30, 0.3)]


def test_q_cold_and_warm_cache_agree_bitwise():
    spec = _split_specs()[0]
    _q_near.cache_clear()
    cold = compute_Q(spec)
    assert _q_near.cache_info().currsize == 1
    warm = compute_Q(spec)
    assert _q_near.cache_info().hits >= 1
    for name in ("Q", "Q1", "Q2", "quadrature_error"):
        assert getattr(warm, name) == getattr(cold, name)


def test_q_sweep_rows_do_not_depend_on_the_near_cache(monkeypatch):
    from logdiff.config import ExperimentConfig
    from logdiff.experiments import run_q_sweep

    s0 = -math.log(0.55)
    cfg = ExperimentConfig(experiment="q-sweep", r0=0.55, gamma_list=(0.1, 0.3),
                           R_list=tuple(math.exp(-0.98 * (s0 / 3.0) * 0.5 ** j) for j in range(6)))
    _q_near.cache_clear()
    cached = run_q_sweep(cfg).rows
    # a cache that always misses: every point integrates its own near part
    monkeypatch.setattr(cutoff, "_q_near", lru_cache(maxsize=0)(_q_near.__wrapped__))
    uncached = run_q_sweep(cfg).rows
    assert any(row["split"] == 1 for row in cached)
    assert uncached == cached


def test_q_sweep_split_check_catches_a_wrong_near_part(monkeypatch):
    # one Jacobi rule of 30 points over all of [1, 49] is off by 1.1e-7
    # relative; the same error in compute_Q's near part [1, e^2] must fail
    # the split check, which integrates the whole range on a partition of
    # its own and so calls the same _q_near on [1, (1 + e^2)/2]
    from logdiff.config import ExperimentConfig
    from logdiff.experiments import run_q_sweep

    s0 = -math.log(0.55)
    cfg = ExperimentConfig(experiment="q-sweep", r0=0.55, gamma_list=(0.1, 0.3),
                           R_list=tuple(math.exp(-0.98 * (s0 / 3.0) * 0.5 ** j) for j in range(6)))
    exact = _q_near.__wrapped__

    @lru_cache(maxsize=0)
    def wrong_near(gamma, b_hi):
        value, err = exact(gamma, b_hi)
        return (value * (1.0 + 1.1e-7) if b_hi == math.exp(2.0) else value), err

    monkeypatch.setattr(cutoff, "_q_near", wrong_near)
    result = run_q_sweep(cfg)
    split = [row for row in result.rows if row["split"] == 1]
    assert split and all(row["split_gap"] > row["split_budget"] for row in split)
    assert not result.split_consistent and not result.passed


def test_unmet_tolerance_raises_and_fails_its_q_sweep_rows(monkeypatch):
    # rules of 4 and 6 points cannot reach 1e-12: every integral raises, and
    # the q-sweep records each of its rows as failed instead of passing
    from logdiff.config import ExperimentConfig
    from logdiff.experiments import run_q_sweep

    monkeypatch.setattr(cutoff, "_RULE_SIZES", (4,))
    with pytest.raises(ValueError, match="missed tolerance 1e-12: gap .* at 6 points"):
        _q_near.__wrapped__(0.3, 5.0)
    with pytest.raises(ValueError, match="missed tolerance 1e-12: gap .* at 6 points"):
        _q_far(0.3, 5.0, 500.0)
    cfg = ExperimentConfig(experiment="q-sweep", r0=0.55, gamma_list=(0.3,),
                           R_list=(0.86, 0.995))
    result = run_q_sweep(cfg)
    assert len(result.rows) == 2
    assert all(row["status"].startswith("failed: Gauss rules missed tolerance 1e-12")
               for row in result.rows)
    assert not result.passed


@given(
    st.floats(min_value=0.51, max_value=0.98),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.03, max_value=0.47),
)
@settings(max_examples=25, deadline=None)
def test_q_below_analytic_bound(r0, u, gamma):
    # the certified inequality Q <= C(gamma)/(s0 (log s0 - log S)^gamma)
    lo = r0 ** (1.0 / 3.0)
    R = lo + (1.0 - lo) * (0.02 + 0.96 * u)
    rep = compute_Q(CutoffSpec(r0=r0, R=R, gamma=gamma))
    assert rep.Q <= rep.analytic_bound * (1.0 + 1e-12)
    assert rep.Q == pytest.approx(rep.Q1 + rep.Q2, rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=0.66), st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_pointwise_numerator_bounds(a, frac):
    # the two lower bounds on P(sigma) = sigma log(sigma/a) - sigma + a behind
    # the near/far split of the Q estimate
    sigma = a + (1.0 - a) * frac
    P = a * log_excess((sigma - a) / a)
    assert P >= (sigma - a) ** 2 / (2.0 * sigma) - 1e-15
    if sigma >= math.exp(2.0) * a:
        assert P >= 0.5 * sigma * math.log(sigma / a) - 1e-15


# ------------------------------------------------------- scalar inequality kit


@given(st.floats(min_value=1e-6, max_value=0.999), st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=100)
def test_log_power_inequality(lam, x):
    # log(1+x) <= x^lam / lam for lam in (0,1), x >= 0
    assert x**lam / lam - math.log1p(x) >= -1e-12


@given(st.floats(min_value=-0.999, max_value=0.0))
@settings(max_examples=100)
def test_log_quad_inequality(x):
    # log(1+x) <= x - x^2/2 for x in (-1, 0]
    assert (x - x * x / 2.0) - math.log1p(x) >= -1e-12


@given(st.floats(min_value=1e-9, max_value=math.log(2.0) - 1e-9))
@settings(max_examples=100)
def test_sinh_chord_inequality(s):
    # sinh(s) <= 3 s/(4 log 2) on (0, log 2), the chord behind INV_SQUARE_CONSTANT
    assert 3.0 * s / (4.0 * math.log(2.0)) - math.sinh(s) >= -1e-12


def test_sinh_chord_tight_at_right_endpoint():
    # sinh(log 2) = 3/4 exactly, so the chord bound closes up at log 2
    s = math.log(2.0) - 1e-9
    margin = 3.0 * s / (4.0 * math.log(2.0)) - math.sinh(s)
    assert 0.0 <= margin < 1e-8

