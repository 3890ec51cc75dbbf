"""Certified inequality checks on pairs of conformal-factor trajectories.

Everything here consumes immutable trajectories. A pair certificate checks
its pair once (_check_pair), then walks the two flows' states in step. Each
certificate returns a tuple of InequalityRow labelled as in verify_report.csv,
each row carrying both sides of its inequality and the margin rhs - lhs. The
two gated ones, pointwise_u_inverse_bound and curvature_monotonicity_check,
return (rows, why): no rows when their precondition fails, and why says so.
full_report concatenates them and alone decides ordered versus crossing.

The tracked constants are assembled once per gamma:

    C      = 9/(32 log^2 2)                   inverse-square bound 1/U <= C s^2/t
    C*d    = gamma^{-1} (2 pi C^gamma)^{1/(1+gamma)}
    C*     = (1+gamma) C*d                    integrated form of the flux ODI
    C_Q    = a-uniform constant of the Q bound (see cutoff module)
    C_L    = C* C_Q^{1/(1+gamma)}             area-difference lemma constant
"""

import math
from typing import NamedTuple

import numpy as np

from .cutoff import CutoffSpec, INV_SQUARE_CONSTANT, compute_Q, q_bound_constant
from .geometry import (
    _area_beyond,
    _trapezoid_between,
    annulus_area,
    disc_area,
    gauss_curvature,
    hyperbolic_factor,
)
from .snapshots import write_rows_csv
from .solver import NEWTON_TOL, Trajectory

__all__ = [
    "EstimateReport",
    "InequalityRow",
    "J_samples",
    "OrderReport",
    "c_star_diff",
    "c_star_int",
    "check_order_preservation",
    "curvature_monotonicity_check",
    "djdt_identity_check",
    "full_report",
    "interior_area_verify",
    "lemma_constant",
    "lower_barrier_check",
    "main_odi_check",
    "pointwise_u_inverse_bound",
    "volume_excess_verify",
]


# ----------------------------------------------------------------- constants


def c_star_diff(gamma: float) -> float:
    """gamma^{-1} (2 pi C^gamma)^{1/(1+gamma)}, C the inverse-square constant."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return (2.0 * math.pi * INV_SQUARE_CONSTANT**gamma) ** (1.0 / (1.0 + gamma)) / gamma


def c_star_int(gamma: float) -> float:
    """Constant of the integrated flux inequality, (1+gamma) times the ODI one."""
    return (1.0 + gamma) * c_star_diff(gamma)


def lemma_constant(gamma: float) -> float:
    """C_L = C* C_Q^{1/(1+gamma)}: area-difference bound with Q replaced by its
    analytic envelope C_Q/(s0 (log s0 - log S)^gamma)."""
    return c_star_int(gamma) * q_bound_constant(gamma) ** (1.0 / (1.0 + gamma))


# -------------------------------------------------------------- report types


class InequalityRow(NamedTuple):
    """One certified inequality at one sample time; pass means lhs <= rhs."""

    time: float
    inequality: str
    lhs: float
    rhs: float
    constants: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def vacuous(self) -> bool:
        """0 <= 0: holds by construction (e.g. at t = 0), so certifies nothing."""
        return self.lhs == 0.0 and self.rhs == 0.0


class EstimateReport(NamedTuple):
    rows: tuple
    meta: dict
    # family -> why its precondition failed and it wrote no rows; not in the CSV
    gated: dict

    @property
    def passed(self) -> bool:
        return all(r.margin >= 0.0 for r in self.rows)

    @property
    def worst(self):
        """Smallest-margin row among the rows that are not vacuous."""
        live = [r for r in self.rows if not r.vacuous]
        return min(live, key=lambda r: r.margin) if live else None

    def write_csv(self, path) -> None:
        """One row per (sample time, inequality id); leading config-hash comment."""
        meta_str = ",".join(f"{k}={self.meta[k]}" for k in sorted(self.meta))
        rows = [
            {"time": r.time, "inequality": r.inequality, "lhs": r.lhs, "rhs": r.rhs,
             "margin": r.margin, "constants": r.constants}
            for r in self.rows
        ]
        write_rows_csv(path, ["time", "inequality", "lhs", "rhs", "margin", "constants"],
                       rows, "estimates:" + meta_str)


# ------------------------------------------------------------ pair plumbing


class OrderReport(NamedTuple):
    """Outcome of a pointwise trajectory comparison U_a <= U_b."""

    ordered: bool
    max_violation: float
    tolerance: float
    worst_time: float


def _check_pair(traj_a: Trajectory, traj_b: Trajectory) -> None:
    """Raise ValueError unless both trajectories share one grid and one set
    of sample times; every pair certificate starts here, once."""
    if not np.array_equal(traj_a.grid.nodes, traj_b.grid.nodes):
        raise ValueError("trajectories live on incompatible grids")
    # np.allclose(rtol=1e-12, atol=1e-14) on a few finite floats, without its
    # per-call overhead
    ta = [st.time for st in traj_a.states]
    tb = [st.time for st in traj_b.states]
    if len(ta) != len(tb) or any(abs(a - b) > 1e-14 + 1e-12 * abs(b) for a, b in zip(ta, tb)):
        raise ValueError("trajectories have mismatched sample times")


def check_order_preservation(traj_a: Trajectory, traj_b: Trajectory) -> OrderReport:
    """Check U_a <= U_b + tol at every node of every shared sample time, with
    tol = 10 NEWTON_TOL max(1, max U at the last sample time of either)."""
    _check_pair(traj_a, traj_b)
    scale = max(
        float(np.max(traj_a.states[-1].values)),
        float(np.max(traj_b.states[-1].values)),
        1.0,
    )
    tol = 10.0 * NEWTON_TOL * scale
    worst = -math.inf
    worst_t = float(traj_a.states[0].time)
    for st_a, st_b in zip(traj_a.states, traj_b.states):
        v = float(np.max(st_a.values - st_b.values))
        if v > worst:
            worst, worst_t = v, st_a.time
    return OrderReport(
        ordered=worst <= tol, max_violation=worst, tolerance=tol, worst_time=worst_t
    )


def _check_J_table(times, Js) -> None:
    if len(Js) != len(times):
        raise ValueError(f"need one J value per sample time, got {len(Js)} for {len(times)}")


def _endpoint_slope(s: np.ndarray, w: np.ndarray, last: bool) -> float:
    # one-sided 3-point first derivative, nonuniform spacing; the first
    # node's is minus the last node's on the mirrored grid
    if not last:
        return -_endpoint_slope(-s[2::-1], w[2::-1], True)
    x0, x1, x2 = s[-3], s[-2], s[-1]
    w0, w1, w2 = w[-3], w[-2], w[-1]
    h1, h2 = x1 - x0, x2 - x1
    return float(
        w2 * (2.0 * h2 + h1) / (h2 * (h1 + h2)) - w1 * (h1 + h2) / (h1 * h2) + w0 * h2 / (h1 * (h1 + h2))
    )


# ------------------------------------------------------------------- J(t)


def J_samples(traj_g, traj_G, cutoff: CutoffSpec) -> tuple:
    """J(t) = 2 pi int_S^{s_max} (V - U) phi ds, keeping the sign of V - U,
    at every sample time of the pair, in time order: the one table the ODI
    and the dJ/dt check share."""
    _check_pair(traj_g, traj_G)
    s = traj_g.grid.nodes
    phi = cutoff.value(s)
    s_lo, s_hi = max(float(cutoff.S), float(s[0])), float(s[-1])
    return tuple(2.0 * math.pi * _trapezoid_between(s, (st_G.values - st_g.values) * phi, s_lo, s_hi)
                 for st_g, st_G in zip(traj_g.states, traj_G.states))


def _djdt_terms(st_g, st_G, cutoff: CutoffSpec) -> tuple:
    """(phi'' integral, boundary term) of the identity dJ/dt = 2 pi int
    (log V - log U) phi'' ds + 2 pi [phi d_s(log V - log U) - phi' (log V - log U)]
    on one state pair.  The bracket is computed, never assumed zero:
    truncation replaces the decay hypothesis that kills it."""
    s = st_g.grid.nodes
    dw = np.log(st_G.values) - np.log(st_g.values)
    s_lo = max(float(cutoff.S), float(s[0]))
    s_hi = float(s[-1])

    # phi'' jumps across the cut-off knots (C^1 gluing only) and point
    # evaluation at a knot picks one branch; composite midpoint per piece
    # never touches the branch points, unlike trapezoid, whose h/2 endpoint
    # weight turns the f''(2-) jump into an O(h) error
    pieces = [s_lo] + [float(k) for k in cutoff.knots_s() if s_lo < k < s_hi] + [s_hi]
    phi2 = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        x = np.linspace(lo, hi, 513)
        mids = 0.5 * (x[:-1] + x[1:])
        phi2 += float(np.sum(np.interp(mids, s, dw) * cutoff.second_deriv(mids) * np.diff(x)))
    phi2 *= 2.0 * math.pi

    def bracket(last):
        idx = -1 if last else 0
        sp = float(cutoff.value(s[idx]))
        spd = float(cutoff.deriv(s[idx]))
        return sp * _endpoint_slope(s, dw, last) - spd * float(dw[idx])

    return phi2, 2.0 * math.pi * (bracket(True) - bracket(False))


def djdt_identity_check(traj_g, traj_G, cutoff: CutoffSpec, Js) -> tuple:
    """(rows, why).  rows holds the djdt-identity rows, one per interior
    sample time t: lhs = |centered difference of Js (the pair's J_samples)
    - _djdt_terms at t| against rhs = 0.05 scale + 0.5 |fwd - bwd| + 1e-8,
    scale the sum of the three terms' sizes and fwd, bwd the one-sided
    slopes of J at t.  A pair with no interior sample time gets no rows,
    and why says so; otherwise why is None."""
    _check_pair(traj_g, traj_G)
    times = [float(st.time) for st in traj_g.states]
    _check_J_table(times, Js)
    if len(times) < 3:
        return (), f"no sample time between t={times[0]:g} and t={times[-1]:g}"
    rows = []
    for k in range(1, len(times) - 1):
        t = times[k]
        fd = (Js[k + 1] - Js[k - 1]) / (times[k + 1] - times[k - 1])
        phi2, boundary = _djdt_terms(traj_g.states[k], traj_G.states[k], cutoff)
        scale = abs(fd) + abs(phi2) + abs(boundary)
        # forward/backward slope disagreement measures the time-differencing
        # error that centered FD leaves in; quadrature gets the 5% of scale
        fwd = (Js[k + 1] - Js[k]) / (times[k + 1] - t)
        bwd = (Js[k] - Js[k - 1]) / (t - times[k - 1])
        budget = 0.05 * scale + 0.5 * abs(fwd - bwd) + 1e-8
        rows.append(InequalityRow(t, "djdt-identity", abs(fd - (phi2 + boundary)), budget))
    return tuple(rows), None


# ------------------------------------------------------------ barrier bounds


def lower_barrier_check(
    traj: Trajectory, s_from: float | None = None, s_to: float | None = None
) -> tuple:
    """lower-barrier rows, one per sample time: lhs = max over nodes of
    2 t H(s) - U, H = 1/sinh^2, against rhs = 0.

    s_from/s_to restrict the node range: finite-ramp exhaustion flows lose the
    barrier near the inner boundary when the ramp does not dominate 2 t H,
    while the certificate chain only consumes it on the cut-off support.
    The constants column names s_from.
    """
    s = traj.grid.nodes
    mask = np.ones(s.size, dtype=bool)
    if s_from is not None:
        mask &= s >= s_from
    if s_to is not None:
        mask &= s <= s_to
    if not np.any(mask):
        raise ValueError("node restriction leaves no grid nodes")
    H = hyperbolic_factor(s[mask])
    tag = f"s>={s_from:g}" if s_from is not None else ""
    return tuple(
        InequalityRow(float(st.time), "lower-barrier",
                      -float(np.min(st.values[mask] - 2.0 * st.time * H)), 0.0, constants=tag)
        for st in traj.states
    )


def pointwise_u_inverse_bound(traj: Trajectory) -> tuple:
    """(rows, why): u-inverse-bound rows, one per sample time t > 0, with
    lhs = max over nodes in (0, log 2) of 1/U - C s^2/t, C = 9/(32 log^2 2),
    against rhs = 0, and why None.

    The bound needs a grid node in (0, log 2) and the lower barrier on
    (0, log 2) over the whole trajectory, up to 1e-9 max(1, max U(0)); when
    either fails, rows is empty and why says which.
    """
    log2 = math.log(2.0)
    s = traj.grid.nodes
    mask = (s > 0.0) & (s < log2)
    if not np.any(mask):
        return (), "no grid nodes in (0, log 2)"
    # the bound is claimed on (0, log 2), so that is where the barrier must hold
    worst = max(r.lhs for r in lower_barrier_check(traj, s_to=log2))
    tol = 1e-9 * max(1.0, float(np.max(traj.states[0].values)))
    if worst > tol:
        return (), (f"lower barrier on (0, {log2:.4g}) fails by {worst:.3e} "
                    f"(tolerance {tol:.3e})")
    c_s2 = INV_SQUARE_CONSTANT * s[mask] ** 2
    return tuple(
        InequalityRow(float(st.time), "u-inverse-bound",
                      -float(np.min(c_s2 / st.time - 1.0 / st.values[mask])), 0.0)
        for st in traj.states if st.time > 0.0
    ), None


# ------------------------------------------------------------------ main ODI


def main_odi_check(times, Js, cutoff: CutoffSpec, Q: float) -> tuple:
    """main-odi rows: the integrated flux inequality between consecutive
    sample times, one row at each later time t2,

        J^p(t2) - J^p(t1) <= C* (t2^p - t1^p) Q^p,   p = 1/(1+gamma),

    with Js the J_samples of an ordered pair at its sample times and
    Q = compute_Q(cutoff).Q.  The inequality holds for ordered pairs only;
    the caller decides that the pair is one.
    """
    _check_J_table(times, Js)
    gamma = cutoff.gamma
    p = 1.0 / (1.0 + gamma)
    cs = c_star_int(gamma)
    tag = f"gamma={gamma:g} C*={cs:.8g} Q={Q:.8g}"
    rows = []
    for k in range(len(times) - 1):
        t1, t2 = float(times[k]), float(times[k + 1])
        # tiny negative J from quadrature noise on near-identical pairs
        lhs = max(Js[k + 1], 0.0) ** p - max(Js[k], 0.0) ** p
        rhs = cs * (t2**p - t1**p) * Q**p
        rows.append(InequalityRow(time=t2, inequality="main-odi", lhs=lhs, rhs=rhs, constants=tag))
    return tuple(rows)


# ------------------------------------------------------- area certificates


def _positive_part_area(s, U, V, s_lo: float) -> float:
    # 2 pi int (V-U)_+ over {s >= s_lo} with the same tail convention as disc_area
    return _area_beyond(s, np.maximum(V - U, 0.0), max(float(s_lo), float(s[0])))


def _area_certificate(traj_g, traj_G, cutoff: CutoffSpec, positive_part: bool, label: str) -> tuple:
    _check_pair(traj_g, traj_G)
    r0, R, gamma = cutoff.r0, cutoff.R, cutoff.gamma
    p = 1.0 / (1.0 + gamma)
    cl = lemma_constant(gamma)
    denom = cutoff.s0 * (math.log(cutoff.s0) - math.log(cutoff.S)) ** gamma
    s = traj_g.grid.nodes
    g0, G0 = traj_g.states[0], traj_G.states[0]
    if positive_part:
        init = _positive_part_area(s, g0.values, G0.values, cutoff.S)
    else:
        init = max(disc_area(G0, R) - disc_area(g0, R), 0.0)
    init_term = init**p
    tag = f"gamma={gamma:g} C_L={cl:.8g} R={R:.8g}"
    rows = []
    for st_g, st_G in zip(traj_g.states, traj_G.states):
        t = st_g.time
        if positive_part:
            vol = _positive_part_area(s, st_g.values, st_G.values, cutoff.s0)
        else:
            vol = max(disc_area(st_G, r0) - disc_area(st_g, r0), 0.0)
        lhs = vol**p
        rhs = init_term + cl * (t / denom) ** p
        rows.append(InequalityRow(time=float(t), inequality=label, lhs=lhs, rhs=rhs, constants=tag))
    return tuple(rows)


def interior_area_verify(traj_g, traj_G, cutoff: CutoffSpec, order=None) -> tuple:
    """interior-area rows, one per sample time: the area-difference
    certificate over the disc D_{r0},

        [Vol_G D_{r0} - Vol_g D_{r0}]^p <= [Vol_G(0) D_R - Vol_g(0) D_R]^p
                                           + C_L [t/(s0 (log s0 - log S)^gamma)]^p

    with p = 1/(1+gamma), S = -log R, s0 = -log r0.  Refuses a pair that
    is not ordered, as uniqueness relies on; order, the pair's
    check_order_preservation if the caller has it, saves checking again.
    """
    if order is None:
        order = check_order_preservation(traj_g, traj_G)
    if not order.ordered:
        raise ValueError("pair is not ordered; use volume_excess_verify")
    return _area_certificate(traj_g, traj_G, cutoff, positive_part=False, label="interior-area")


def volume_excess_verify(traj_g, traj_G, cutoff: CutoffSpec) -> tuple:
    """volume-excess rows: the positive-part variant of interior_area_verify.
    The volume excess 2 pi int (V-U)_+ over D_{r0} obeys the same bound
    without any ordering hypothesis.  For ordered pairs it reduces to
    interior_area_verify."""
    return _area_certificate(traj_g, traj_G, cutoff, positive_part=True, label="volume-excess")


# ------------------------------------------------- damped-factor monotonicity


def curvature_monotonicity_check(traj: Trajectory, label: str) -> tuple:
    """(rows, why).  If K >= -1 - 1e-6 at every sampled state, rows is one
    row named label at the last sample time, with lhs = the largest increase
    of e^{-2t} U between consecutive sample times over all nodes and
    rhs = 10 NEWTON_TOL max(1, max U(0)), and why is None.  A curvature dip
    below that gates the check off: no rows, and why gives K_min."""
    kmin, t_min = min((float(np.min(gauss_curvature(st))), st.time) for st in traj.states)
    floor = -1.0 - 1e-6
    if kmin < floor:
        # 7 digits, so the note never rounds K_min onto the threshold
        return (), f"K_min = {kmin:.7g} < {floor:.7g} at t={t_min:g}"
    tol = 10.0 * NEWTON_TOL * max(1.0, float(np.max(traj.states[0].values)))
    worst = -math.inf
    prev = None
    for st in traj.states:
        damped = math.exp(-2.0 * st.time) * st.values
        if prev is not None:
            worst = max(worst, float(np.max(damped - prev)))
        prev = damped
    return (InequalityRow(float(traj.states[-1].time), label, worst, tol),), None


# ------------------------------------------------------------- full report


def full_report(traj_g, traj_G, cutoff: CutoffSpec) -> EstimateReport:
    """Run every certificate that applies to the pair and concatenate the rows.

    Ordered pairs get the J invariants, the ODI, and the interior-area
    certificate; crossing pairs fall back to the positive-part variants.
    A pair given larger flow first raises ValueError: read as a crossing
    pair it would drop the ordered certificates and pass on a volume excess
    that is zero by construction.  The 1/U bound, curvature monotonicity and
    the dJ/dt identity add rows only when their preconditions hold;
    report.gated names each family that wrote no rows and why.  A pair with
    fewer than two sample times raises ValueError: it holds no evolved state
    to certify.  J, Q and the pair's order are computed once per report; the
    checks share them.
    """
    if min(len(traj_g.states), len(traj_G.states)) < 2:
        raise ValueError("pair has fewer than two sample times: no evolved state to certify")
    order = check_order_preservation(traj_g, traj_G)
    if not order.ordered and check_order_preservation(traj_G, traj_g).ordered:
        raise ValueError(
            "pair is in reverse order: the first flow lies above the second "
            f"(by up to {order.max_violation:.3e}); give the smaller flow first"
        )
    rows = []
    gated = {}
    times = [float(t) for t in traj_g.times]
    Js = J_samples(traj_g, traj_G, cutoff)
    Q = compute_Q(cutoff)

    if order.ordered:
        s_hi = traj_g.grid.s_max
        for t, J, st_g, st_G in zip(times, Js, traj_g.states, traj_G.states):
            rows.append(InequalityRow(t, "J-nonnegative", 0.0, J))
            # truncated disc areas: tails cancel identically from both sides
            diff = annulus_area(st_G, cutoff.s0, s_hi) - annulus_area(st_g, cutoff.s0, s_hi)
            rows.append(InequalityRow(t, "area-diff-below-J", diff, J))
        rows += main_odi_check(times, Js, cutoff, Q.Q)
        rows += interior_area_verify(traj_g, traj_G, cutoff, order=order)
    else:
        why = (f"pair not ordered: g exceeds G by up to {order.max_violation:.3e} "
               f"at t={order.worst_time:g}")
        gated.update(dict.fromkeys(
            ("J-nonnegative", "area-diff-below-J", "main-odi", "interior-area"), why))
    rows += volume_excess_verify(traj_g, traj_G, cutoff)
    # the chain only consumes the barrier on the cut-off support [S, s_max]
    rows += lower_barrier_check(traj_g, s_from=cutoff.S)
    # the gated families: each check returns its rows, or none and why
    for family, (gate_rows, why) in (
            ("u-inverse-bound", pointwise_u_inverse_bound(traj_g)),
            ("djdt-identity", djdt_identity_check(traj_g, traj_G, cutoff, Js)),
            ("damped-monotone-g", curvature_monotonicity_check(traj_g, "damped-monotone-g")),
            ("damped-monotone-G", curvature_monotonicity_check(traj_G, "damped-monotone-G"))):
        rows += gate_rows
        if why:
            gated[family] = why

    meta = {
        "r0": cutoff.r0,
        "R": cutoff.R,
        "gamma": cutoff.gamma,
        "Q": Q.Q,
        "Q_bound": Q.analytic_bound,
        "C_L": lemma_constant(cutoff.gamma),
        "ordered": order.ordered,
    }
    return EstimateReport(rows=tuple(rows), meta=meta, gated=gated)
