"""Certified inequality checks on pairs of conformal-factor trajectories.

Everything here consumes immutable trajectories. Each certificate returns a
tuple of InequalityRow labelled as in verify_report.csv, each row carrying
both sides of its inequality and the margin rhs - lhs. The two gated ones,
pointwise_u_inverse_bound and curvature_monotonicity_check, return
(rows, why): no rows when their precondition fails, and why says so.
full_report concatenates them.
djdt_identity_check alone returns the identity's three terms (DjdtReport),
which full_report turns into a djdt-identity row with its error budget.

The tracked constants are assembled once per gamma:

    C      = 9/(32 log^2 2)                   inverse-square bound 1/U <= C s^2/t
    C*d    = gamma^{-1} (2 pi C^gamma)^{1/(1+gamma)}
    C*     = (1+gamma) C*d                    integrated form of the flux ODI
    C_Q    = a-uniform constant of the Q bound (see cutoff module)
    C_L    = C* C_Q^{1/(1+gamma)}             area-difference lemma constant
"""

import math
from dataclasses import dataclass, field

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
from .solver import NEWTON_TOL, Trajectory, _check_pair, check_order_preservation

__all__ = [
    "DjdtReport",
    "EstimateReport",
    "InequalityRow",
    "J_samples",
    "c_star_diff",
    "c_star_int",
    "compute_J",
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


@dataclass(frozen=True)
class InequalityRow:
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


@dataclass(frozen=True)
class EstimateReport:
    rows: tuple
    meta: dict = field(default_factory=dict)
    # family -> why its precondition failed and it wrote no rows; not in the CSV
    gated: dict = field(default_factory=dict)

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


def _pair_arrays(traj_g: Trajectory, traj_G: Trajectory, t: float):
    _check_pair(traj_g, traj_G)
    # state_at refuses interpolation, so an unsampled t fails loudly here
    return traj_g.grid.nodes, traj_g.state_at(t).values, traj_G.state_at(t).values


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


def compute_J(traj_g, traj_G, cutoff: CutoffSpec, t: float) -> float:
    """J(t) = 2 pi int_S^{s_max} (V - U) phi ds, keeping the sign of V - U."""
    s, U, V = _pair_arrays(traj_g, traj_G, t)
    s_lo = max(float(cutoff.S), float(s[0]))
    return 2.0 * math.pi * _trapezoid_between(s, (V - U) * cutoff.value(s), s_lo, float(s[-1]))


def J_samples(traj_g, traj_G, cutoff: CutoffSpec) -> tuple:
    """J at every sample time of the pair, in time order: the one table the
    ODI and the dJ/dt check share."""
    return tuple(compute_J(traj_g, traj_G, cutoff, float(t)) for t in traj_g.times)


def _check_J_table(traj_g, Js) -> None:
    if len(Js) != len(traj_g.states):
        raise ValueError(f"need one J value per sample time, got {len(Js)} for {len(traj_g.states)}")


@dataclass(frozen=True)
class DjdtReport:
    """Finite-difference dJ/dt against the integrated-by-parts identity.

    identity_rhs = phi2_integral + boundary_term; the boundary bracket
    [phi d_s(log V - log U) - phi' (log V - log U)] is always computed and
    reported, never assumed zero: truncation replaces the decay hypothesis
    that kills it on the untruncated domain.
    """

    time: float
    fd_djdt: float
    phi2_integral: float
    boundary_term: float

    @property
    def identity_rhs(self) -> float:
        return self.phi2_integral + self.boundary_term

    @property
    def discrepancy(self) -> float:
        return abs(self.fd_djdt - self.identity_rhs)


def djdt_identity_check(traj_g, traj_G, cutoff: CutoffSpec, t: float, Js) -> DjdtReport:
    """dJ/dt at sample time t, differenced from Js (J_samples of the pair),
    against the integrated-by-parts identity evaluated on the state at t."""
    _check_pair(traj_g, traj_G)
    times = traj_g.times
    if times.size < 2:
        raise ValueError("need at least two sample times to difference J")
    _check_J_table(traj_g, Js)
    traj_g.state_at(t)  # validates t is sampled
    i = int(np.argmin(np.abs(times - t)))

    if 0 < i < times.size - 1:
        fd = (Js[i + 1] - Js[i - 1]) / (times[i + 1] - times[i - 1])
    elif i == 0:
        fd = (Js[1] - Js[0]) / (times[1] - times[0])
    else:
        fd = (Js[i] - Js[i - 1]) / (times[i] - times[i - 1])

    s, U, V = _pair_arrays(traj_g, traj_G, t)
    dw = np.log(V) - np.log(U)
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

    boundary = 2.0 * math.pi * (bracket(True) - bracket(False))
    return DjdtReport(time=float(t), fd_djdt=fd, phi2_integral=phi2, boundary_term=boundary)


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


def _require_ordered(traj_g, traj_G, order) -> None:
    if order is None:
        order = check_order_preservation(traj_g, traj_G)
    if not order.ordered:
        raise ValueError("pair is not ordered; use volume_excess_verify")


def main_odi_check(traj_g, traj_G, cutoff: CutoffSpec, Js, Q: float, order=None) -> tuple:
    """main-odi rows: the integrated flux inequality between consecutive
    sample times, one row at each later time t2,

        J^p(t2) - J^p(t1) <= C* (t2^p - t1^p) Q^p,   p = 1/(1+gamma),

    with Js the pair's J_samples and Q = compute_Q(cutoff).Q.  Refuses
    unordered pairs; those belong to volume_excess_verify.  order, the
    pair's check_order_preservation report if the caller has one, saves
    checking the order again.
    """
    _require_ordered(traj_g, traj_G, order)
    _check_J_table(traj_g, Js)
    gamma = cutoff.gamma
    p = 1.0 / (1.0 + gamma)
    cs = c_star_int(gamma)
    times = traj_g.times
    tag = f"gamma={gamma:g} C*={cs:.8g} Q={Q:.8g}"
    rows = []
    for k in range(times.size - 1):
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


def _area_certificate(traj_g, traj_G, r0, gamma, R, positive_part: bool, label: str) -> tuple:
    _check_pair(traj_g, traj_G)
    spec = CutoffSpec(r0, R, gamma)  # validates every parameter range
    p = 1.0 / (1.0 + gamma)
    cl = lemma_constant(gamma)
    denom = spec.s0 * (math.log(spec.s0) - math.log(spec.S)) ** gamma
    s = traj_g.grid.nodes
    g0, G0 = traj_g.states[0], traj_G.states[0]
    if positive_part:
        init = _positive_part_area(s, g0.values, G0.values, spec.S)
    else:
        init = max(disc_area(G0, R) - disc_area(g0, R), 0.0)
    init_term = init**p
    tag = f"gamma={gamma:g} C_L={cl:.8g} R={R:.8g}"
    rows = []
    for st_g, st_G in zip(traj_g.states, traj_G.states):
        t = st_g.time
        if positive_part:
            vol = _positive_part_area(s, st_g.values, st_G.values, spec.s0)
        else:
            vol = max(disc_area(st_G, r0) - disc_area(st_g, r0), 0.0)
        lhs = vol**p
        rhs = init_term + cl * (t / denom) ** p
        rows.append(InequalityRow(time=float(t), inequality=label, lhs=lhs, rhs=rhs, constants=tag))
    return tuple(rows)


def interior_area_verify(traj_g, traj_G, r0: float, gamma: float, R: float, order=None) -> tuple:
    """interior-area rows, one per sample time: the area-difference
    certificate over the disc D_{r0},

        [Vol_G D_{r0} - Vol_g D_{r0}]^p <= [Vol_G(0) D_R - Vol_g(0) D_R]^p
                                           + C_L [t/(s0 (log s0 - log S)^gamma)]^p

    with p = 1/(1+gamma), S = -log R, s0 = -log r0.  Requires an ordered
    pair; order is as in main_odi_check.
    """
    _require_ordered(traj_g, traj_G, order)
    return _area_certificate(traj_g, traj_G, r0, gamma, R, positive_part=False, label="interior-area")


def volume_excess_verify(traj_g, traj_G, r0: float, gamma: float, R: float) -> tuple:
    """volume-excess rows: the positive-part variant of interior_area_verify.
    The volume excess 2 pi int (V-U)_+ over D_{r0} obeys the same bound
    without any ordering hypothesis.  For ordered pairs it reduces to
    interior_area_verify."""
    return _area_certificate(traj_g, traj_G, r0, gamma, R, positive_part=True, label="volume-excess")


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
    that is zero by construction.  The 1/U bound and curvature monotonicity
    add rows only when their preconditions hold; report.gated names each
    family that wrote no rows and why.  A pair with fewer than two
    sample times raises ValueError: it holds no evolved state to certify.
    J is computed once per sample time and Q once per report; the checks
    share them.
    """
    if min(len(traj_g.states), len(traj_G.states)) < 2:
        raise ValueError("pair has fewer than two sample times: no evolved state to certify")
    order = check_order_preservation(traj_g, traj_G)
    if not order.ordered and check_order_preservation(traj_G, traj_g).ordered:
        raise ValueError(
            "pair is in reverse order: the first flow lies above the second "
            f"(by up to {order.max_violation:.3e}); give the smaller flow first"
        )
    gamma = cutoff.gamma
    rows = []
    gated = {}
    times = [float(t) for t in traj_g.times]
    Js = J_samples(traj_g, traj_G, cutoff)
    Q = compute_Q(cutoff)

    if order.ordered:
        s_hi = traj_g.grid.s_max
        for t, J in zip(times, Js):
            rows.append(InequalityRow(t, "J-nonnegative", 0.0, J))
            # truncated disc areas: tails cancel identically from both sides
            diff = annulus_area(traj_G.state_at(t), cutoff.s0, s_hi) - annulus_area(
                traj_g.state_at(t), cutoff.s0, s_hi
            )
            rows.append(InequalityRow(t, "area-diff-below-J", diff, J))
        rows += main_odi_check(traj_g, traj_G, cutoff, Js, Q.Q, order=order)
        rows += interior_area_verify(traj_g, traj_G, cutoff.r0, gamma, cutoff.R, order=order)
    else:
        why = (f"pair not ordered: g exceeds G by up to {order.max_violation:.3e} "
               f"at t={order.worst_time:g}")
        gated.update(dict.fromkeys(
            ("J-nonnegative", "area-diff-below-J", "main-odi", "interior-area"), why))
    rows += volume_excess_verify(traj_g, traj_G, cutoff.r0, gamma, cutoff.R)
    # the chain only consumes the barrier on the cut-off support [S, s_max]
    rows += lower_barrier_check(traj_g, s_from=cutoff.S)
    gate_rows, why = pointwise_u_inverse_bound(traj_g)
    rows += gate_rows
    if why:
        gated["u-inverse-bound"] = why

    for k in range(1, len(times) - 1):
        t = times[k]
        rep = djdt_identity_check(traj_g, traj_G, cutoff, t, Js)
        scale = abs(rep.fd_djdt) + abs(rep.phi2_integral) + abs(rep.boundary_term)
        # forward/backward slope disagreement measures the time-differencing
        # error that centered FD leaves in; quadrature gets the 5% of scale
        fwd = (Js[k + 1] - Js[k]) / (times[k + 1] - t)
        bwd = (Js[k] - Js[k - 1]) / (t - times[k - 1])
        budget = 0.05 * scale + 0.5 * abs(fwd - bwd) + 1e-8
        rows.append(InequalityRow(t, "djdt-identity", rep.discrepancy, budget))

    for traj, label in ((traj_g, "damped-monotone-g"), (traj_G, "damped-monotone-G")):
        gate_rows, why = curvature_monotonicity_check(traj, label)
        rows += gate_rows
        if why:
            gated[label] = why

    meta = {
        "r0": cutoff.r0,
        "R": cutoff.R,
        "gamma": gamma,
        "Q": Q.Q,
        "Q_bound": Q.analytic_bound,
        "C_L": lemma_constant(gamma),
        "ordered": order.ordered,
    }
    return EstimateReport(rows=tuple(rows), meta=meta, gated=gated)
