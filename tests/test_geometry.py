import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdiff.geometry import (
    BigBang,
    ConformalState,
    Cusp,
    FlatDisc,
    LogPolarGrid,
    annulus_area,
    disc_area,
    gauss_curvature,
    hyperbolic_factor,
    model_factor,
    model_state,
    s_from_r,
)

# [frozen] 4 pi t (coth(-log 0.8) - 1), mpmath dps=40
BIGBANG_DISC_AREA_R08_T1 = 44.680428851054837169


def test_coordinate_round_trip():
    r = np.array([0.999, 0.5, 0.1, 1e-6])
    assert np.allclose(np.exp(-s_from_r(r)), r, rtol=1e-14)
    assert s_from_r(1.0) == 0.0


@given(st.floats(min_value=1e-8, max_value=1.0, exclude_max=True))
def test_s_from_r_monotone_decreasing(r):
    # smaller radius sits deeper in the cylinder
    assert s_from_r(r) > s_from_r(min(1.0, r * 1.5))


def test_coordinate_domain_checks():
    with pytest.raises(ValueError):
        s_from_r(0.0)
    with pytest.raises(ValueError):
        s_from_r(1.0 + 1e-9)


def test_hyperbolic_factor_values():
    # 1/sinh^2(1) = 0.723... ; blows up like 1/s^2 near the boundary
    assert hyperbolic_factor(1.0) == pytest.approx(1.0 / np.sinh(1.0) ** 2, rel=1e-15)
    s = 1e-4
    assert hyperbolic_factor(s) == pytest.approx(1.0 / s**2, rel=1e-7)


def test_grid_uniform_and_graded():
    g = LogPolarGrid.uniform(0.1, 8.0, 100)
    assert g.n == 100
    assert g.s_min == 0.1 and g.s_max == 8.0
    diffs = np.diff(g.nodes)
    assert np.allclose(diffs, diffs[0], rtol=1e-12)

    gg = LogPolarGrid.graded(0.1, 8.0, 100, ratio=1.05)
    assert gg.n == 100
    assert gg.nodes[0] == 0.1 and gg.nodes[-1] == 8.0
    ratios = np.diff(gg.nodes)[1:] / np.diff(gg.nodes)[:-1]
    assert np.allclose(ratios, 1.05, rtol=1e-10)


def test_grid_ratio_one_matches_uniform():
    a = LogPolarGrid.graded(0.2, 5.0, 33, ratio=1.0).nodes
    b = LogPolarGrid.uniform(0.2, 5.0, 33).nodes
    assert np.allclose(a, b, atol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        LogPolarGrid(np.array([0.1, 0.2]))  # too few nodes
    with pytest.raises(ValueError):
        LogPolarGrid(np.array([0.1, 0.3, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        LogPolarGrid(np.array([-0.1, 0.2, 0.3]))  # s must be positive


def test_refine_keeps_original_nodes_exactly():
    g = LogPolarGrid.graded(0.05, 8.0, 41, ratio=1.05)
    fine = g.refine()
    assert fine.n == 2 * g.n - 1
    # original nodes must appear bit-for-bit: the gauge compares at the even positions
    assert np.array_equal(fine.nodes[0::2], g.nodes)


def test_state_validation():
    g = LogPolarGrid.uniform(0.1, 8.0, 50)
    with pytest.raises(ValueError):
        ConformalState(g, np.zeros(50), 0.0)  # factor must be positive
    with pytest.raises(ValueError):
        ConformalState(g, np.ones(49), 0.0)  # shape mismatch
    with pytest.raises(ValueError):
        ConformalState(g, np.ones(50), -1.0)


_FLAT = model_state(FlatDisc, LogPolarGrid.uniform(0.5, 4.0, 8))


@pytest.mark.parametrize("call, message", [
    (lambda: hyperbolic_factor(-0.5), "s must be positive"),
    (lambda: Cusp.factor(0.0, 1.0), "s must be positive"),
    (lambda: FlatDisc.factor(np.array([1.0, -0.5])), "s must be positive"),
    (lambda: LogPolarGrid.graded(0.1, 8.0, 10, ratio=-1.05), "ratio must be positive"),
    (lambda: annulus_area(_FLAT, 2.0, 1.0), "empty interval reversed"),
    (lambda: annulus_area(_FLAT, 1.0, 5.0), "interval outside grid"),
    (lambda: disc_area(_FLAT, 0.9), "disc boundary falls outside the grid"),
], ids=["hyperbolic-s", "cusp-s", "flat-s", "graded-ratio", "annulus-reversed",
        "annulus-outside", "disc-outside"])
def test_out_of_domain_arguments_raise(call, message):
    # without its check each call returns a number: a positive factor, a
    # grid that another check refuses for a different reason, or an area
    with pytest.raises(ValueError, match=message):
        call()


def test_model_factor_names_and_classes():
    # the names are the model column of exact_suite.csv
    assert [m.name for m in (BigBang, Cusp, FlatDisc)] == ["bigbang", "cusp", "flatdisc"]
    s = np.linspace(0.3, 5.0, 7)
    assert np.allclose(model_factor(BigBang, s, 2.0), 4.0 / np.sinh(s) ** 2)
    assert np.allclose(model_factor(Cusp, s, 0.5), 1.0 / s**2)
    assert np.allclose(model_factor(FlatDisc, s), np.exp(-2.0 * s))
    with pytest.raises(ValueError, match="time must be nonnegative"):
        model_factor(BigBang, s, -0.5)


def test_bigbang_dominates_poincare_after_t_half():
    # 2t/sinh^2 >= 1/sinh^2 once t >= 1/2, uniformly in s
    s = np.linspace(0.05, 9.0, 200)
    assert np.all(model_factor(BigBang, s, 0.5) >= hyperbolic_factor(s) - 1e-15)


def test_gauss_curvature_of_models():
    g = LogPolarGrid.graded(0.05, 8.0, 801, ratio=1.01)
    # Poincare metric has K = -1 identically
    k_hyp = gauss_curvature(ConformalState(g, hyperbolic_factor(g.nodes), 0.0))
    assert np.max(np.abs(k_hyp + 1.0)) < 2e-3
    # big-bang at time t has K = -1/(2t)
    k_bb = gauss_curvature(model_state(BigBang, g, t=0.25))
    assert np.max(np.abs(k_bb + 2.0)) < 4e-3


def test_gauss_curvature_flat_disc():
    # log U is linear so the stencil is exact; residual is eps noise in
    # log(exp(-2s)) amplified by e^{2s}/h^2, so keep s_max moderate here
    g = LogPolarGrid.graded(0.05, 4.0, 801, ratio=1.01)
    k_flat = gauss_curvature(model_state(FlatDisc, g))
    assert np.max(np.abs(k_flat)) < 1e-6


@given(st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_gauss_curvature_conformal_scaling(c):
    # scaling the factor by c scales curvature by 1/c; exact up to
    # log roundoff amplified by e^{2s}/h^2
    g = LogPolarGrid.uniform(0.3, 5.0, 301)
    base = ConformalState(g, hyperbolic_factor(g.nodes), 0.0)
    scaled = ConformalState(g, c * base.values, 0.0)
    assert np.allclose(gauss_curvature(scaled), gauss_curvature(base) / c, rtol=2e-6, atol=1e-8)


def test_disc_area_flat_example():
    # unit disc minus a tiny hole: area must come out near pi
    g = LogPolarGrid.uniform(0.005, 9.0, 8001)
    st8 = model_state(FlatDisc, g)
    a = disc_area(st8, r0=0.8)
    assert abs(a - np.pi * 0.8**2) < 1e-6


def test_disc_area_bigbang_against_closed_form():
    from oracle_support import bigbang_disc_area_reference

    g = LogPolarGrid.graded(0.02, 10.0, 3001, ratio=1.002)
    st8 = model_state(BigBang, g, t=1.0)
    a = disc_area(st8, r0=0.8)
    assert a == pytest.approx(BIGBANG_DISC_AREA_R08_T1, rel=1e-5)
    # and the frozen literal itself matches an independent recomputation
    assert float(bigbang_disc_area_reference(0.8, 1.0)) == pytest.approx(
        BIGBANG_DISC_AREA_R08_T1, rel=1e-15
    )


def test_annulus_area_additivity():
    g = LogPolarGrid.graded(0.05, 8.0, 501, ratio=1.01)
    st8 = model_state(BigBang, g, t=0.3)
    whole = annulus_area(st8, 0.2, 3.0)
    parts = annulus_area(st8, 0.2, 1.1) + annulus_area(st8, 1.1, 3.0)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_annulus_area_cut_points_off_grid():
    # integration limits need not be grid nodes
    g = LogPolarGrid.uniform(0.1, 6.0, 601)
    st8 = model_state(FlatDisc, g)
    exact = np.pi * (np.exp(-2 * 0.737) - np.exp(-2 * 2.113))
    assert annulus_area(st8, 0.737, 2.113) == pytest.approx(exact, rel=1e-4)


@given(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=2.5, max_value=7.0),
)
@settings(max_examples=40, deadline=None)
def test_area_monotone_under_pointwise_domination(lo, hi):
    # if U <= V pointwise then every annulus has no larger area
    g = LogPolarGrid.uniform(0.1, 8.0, 400)
    t = 0.7
    u = model_state(BigBang, g, t=t)  # 2t/sinh^2 <= 2t/s^2
    v = model_state(Cusp, g, t=t)
    assert annulus_area(u, lo, hi) <= annulus_area(v, lo, hi) + 1e-14


def test_disc_area_includes_deep_tail():
    # the region beyond s_max carries pi*U(s_max) of flat-factor area
    g = LogPolarGrid.uniform(0.1, 7.0, 7001)
    st8 = model_state(FlatDisc, g)
    full = disc_area(st8, r0=np.exp(-0.1))
    assert full == pytest.approx(np.pi * np.exp(-0.2), rel=1e-6)

