"""Implicit time stepping for the radial log-diffusion flow.

The evolution dU/dt = (log U)'' is integrated on a truncated interval
[s_min, s_max] with Dirichlet data at both ends.  Each backward-Euler step
solves

    U_i^{new} - dt * D2(log U^{new})_i = U_i^{old}

at the interior nodes by a damped Newton iteration in w = log U.  Working in
the log variable keeps the Jacobian diag(e^w) - dt*D2 well conditioned even
when U spans ten orders of magnitude across the grid, and makes positivity
automatic.  Backward Euler is first order; that is deliberate: for boundary
data growing like k*t the problem is stiff near s_min and unconditional
stability matters more than temporal order, which the convergence tests
recover by refinement.

Each Newton iteration solves the tridiagonal Jacobian system with one direct
call of LAPACK dgtsv (Gaussian elimination with partial pivoting).  A zero
pivot fails the step like a stalled iteration does, so evolve halves dt and
retries.

No randomness anywhere: identical inputs produce bitwise-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .geometry import ConformalState, LogPolarGrid, model_factor

__all__ = [
    "BoundarySchedule",
    "SolverConfig",
    "Trajectory",
    "StepFailure",
    "RunError",
    "ExhaustDiagnostics",
    "OrderReport",
    "step",
    "evolve",
    "exhaust",
    "mms_residual",
    "check_order_preservation",
]


class StepFailure(RuntimeError):
    """Newton did not converge within the iteration budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class RunError(RuntimeError):
    """Evolution aborted after adaptive retries; carries the partial trajectory."""

    def __init__(self, message: str, partial: "Trajectory"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class BoundarySchedule:
    """Dirichlet data M_in(t) at s_min and M_out(t) at s_max.

    The inner side is the disc-boundary side (small s); pumping area into the
    domain means growing M_in.  The standard exhaustion family is
    M_in(t) = max(U0(s_min), k*t), linear in t like the big-bang factor.
    """

    inner: Callable[[float], float]
    outer: Callable[[float], float]
    label: str = "custom"
    ramp_k: float | None = None

    @classmethod
    def static(cls, u_in: float, u_out: float) -> "BoundarySchedule":
        if u_in <= 0.0 or u_out <= 0.0:
            raise ValueError("boundary values must be positive")
        return cls(inner=lambda t: u_in, outer=lambda t: u_out, label="static")

    @classmethod
    def ramp(cls, initial: ConformalState, k: float) -> "BoundarySchedule":
        """Standard exhaustion member started from initial: inner
        max(U0(s_min), k*t), outer pinned at U0(s_max)."""
        if k <= 0.0:
            raise ValueError("ramp slope k must be positive")
        u0_in, u_out = float(initial.values[0]), float(initial.values[-1])
        return cls(
            inner=lambda t: max(u0_in, k * t),
            outer=lambda t: u_out,
            label=f"ramp-k={k:g}",
            ramp_k=k,
        )

    @classmethod
    def from_model(cls, model, s_min: float, s_max: float) -> "BoundarySchedule":
        """Exact model values at both ends (for manufactured-solution runs)."""
        return cls(
            inner=lambda t: float(model_factor(model, s_min, t)),
            outer=lambda t: float(model_factor(model, s_max, t)),
            label="model",
        )


@dataclass(frozen=True)
class SolverConfig:
    """Time-step policy and Newton controls.

    dt is the target step; the adaptive policy halves it on a failed step
    (up to max_halvings) and doubles it back after streak_to_grow consecutive
    successes that each needed at most fast_iters Newton iterations, never
    exceeding dt_cap (defaults to the target dt).
    """

    dt: float = 1e-3
    newton_tol: float = 1e-10
    max_newton_iter: int = 50
    max_halvings: int = 10
    dt_cap: float | None = None
    streak_to_grow: int = 3
    fast_iters: int = 3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_iter < 1:
            raise ValueError("max_newton_iter must be at least 1")
        if self.dt_cap is not None and self.dt_cap < self.dt:
            raise ValueError("dt_cap must not undercut dt")

    @property
    def effective_cap(self) -> float:
        return self.dt if self.dt_cap is None else self.dt_cap


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run at strictly increasing sample times.

    Plain data: a trajectory pickles, so process-pool workers return it
    whole.
    """

    states: tuple
    config: SolverConfig
    nsteps: int = 0
    newton_iters: int = 0

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("trajectory needs at least one state")
        times = [st.time for st in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        nodes0 = self.states[0].grid.nodes
        for st in self.states[1:]:
            if not np.array_equal(st.grid.nodes, nodes0):
                raise ValueError("all states must share one grid")

    @property
    def grid(self) -> LogPolarGrid:
        return self.states[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([st.time for st in self.states])

    def state_at(self, t: float) -> ConformalState:
        for st in self.states:
            if abs(st.time - t) <= 1e-12 * max(1.0, abs(t)):
                return st
        raise ValueError(f"time {t} is not a sample time of this trajectory")

    def values_at(self, t: float) -> np.ndarray:
        return self.state_at(t).values


def _d2_coeffs(s: np.ndarray):
    # second-difference weights on a nonuniform grid, one row per interior node
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    cl = 2.0 / (hm * (hm + hp))
    cc = -2.0 / (hm * hp)
    cr = 2.0 / (hp * (hm + hp))
    return cl, cc, cr


def _newton_solve(s, u_old, w_in, w_out, dt, cfg, coeffs=None):
    """Solve the backward-Euler system in w = log U; returns (w, iterations).

    Raises ValueError when the initial residual is not finite, and
    StepFailure when the Jacobian is singular, the line search exhausts its
    halvings, or the iteration budget runs out.
    """
    cl, cc, cr = coeffs if coeffs is not None else _d2_coeffs(s)
    # dgtsv overwrites its diagonals with the factorization, so these two are
    # passed with overwrite off and serve every iteration of the solve
    du = -dt * cr[:-1]
    dl = -dt * cl[1:]
    dt_cc = dt * cc
    u_int = u_old[1:-1]
    w = np.log(u_old)
    w[0], w[-1] = w_in, w_out
    w_try = w.copy()

    def residual(wv):
        # returns F(w) and e^w at the interior nodes; e^w is reused as the
        # Jacobian diagonal of the next iteration
        ew = np.exp(wv[1:-1])
        d2 = cl * wv[:-2] + cc * wv[1:-1] + cr * wv[2:]
        return ew - u_int - dt * d2, ew

    f, ew = residual(w)
    fnorm = float(np.abs(f).max())
    if not math.isfinite(fnorm):
        raise ValueError("Newton system has non-finite values (is U positive and finite?)")
    for it in range(1, cfg.max_newton_iter + 1):
        _, _, _, delta, info = dgtsv(dl, ew - dt_cc, du, -f, overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise StepFailure(f"singular Newton Jacobian (dgtsv info={info})", fnorm)

        # damped update: halve until the residual stops growing
        scale = 1.0
        for _ in range(30):
            dw = scale * delta
            np.add(w[1:-1], dw, out=w_try[1:-1])
            f_try, ew_try = residual(w_try)
            fnorm_try = float(np.abs(f_try).max())
            if math.isfinite(fnorm_try) and fnorm_try <= fnorm * (1.0 + 1e-12) + 1e-300:
                break
            scale *= 0.5
        else:
            raise StepFailure("Newton damping exhausted", fnorm)

        w, w_try = w_try, w
        f, ew, fnorm = f_try, ew_try, fnorm_try
        if float(np.abs(dw).max()) < cfg.newton_tol:
            return w, it
    raise StepFailure("Newton iteration budget exhausted", fnorm)


def _advance(s, u, t_new, dt, schedule, cfg, coeffs=None):
    """Backward-Euler step from values u to time t_new; returns (w, iterations)."""
    m_in, m_out = float(schedule.inner(t_new)), float(schedule.outer(t_new))
    if m_in <= 0.0 or m_out <= 0.0:
        raise ValueError("schedule produced a nonpositive boundary value")
    return _newton_solve(s, u, math.log(m_in), math.log(m_out), dt, cfg, coeffs)


def step(
    state: ConformalState,
    dt: float,
    schedule: BoundarySchedule,
    config: SolverConfig | None = None,
) -> ConformalState:
    """One backward-Euler step; returns the state at time + dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cfg = config if config is not None else SolverConfig(dt=dt)
    t_new = state.time + dt
    w, _ = _advance(state.grid.nodes, state.values, t_new, dt, schedule, cfg)
    return ConformalState(state.grid, np.exp(w), t_new)


def _check_schedule_consistency(initial: ConformalState, schedule: BoundarySchedule):
    t0 = initial.time
    for val, idx, name in (
        (float(schedule.inner(t0)), 0, "inner"),
        (float(schedule.outer(t0)), -1, "outer"),
    ):
        ref = float(initial.values[idx])
        if not math.isclose(val, ref, rel_tol=1e-6, abs_tol=0.0):
            raise ValueError(
                f"{name} schedule value {val:g} at t0={t0:g} is inconsistent "
                f"with initial data {ref:g}"
            )


def evolve(
    initial: ConformalState,
    schedule: BoundarySchedule,
    config: SolverConfig,
    T: float,
    sample_times: Sequence[float] | None = None,
) -> Trajectory:
    """March from initial.time to T, snapshotting at the sample times.

    Steps land exactly on every sample time.  On a failed step dt is halved
    and the step retried (max_halvings times); sustained cheap steps let dt
    grow back toward the cap.
    """
    t0 = initial.time
    if T <= t0:
        raise ValueError("T must exceed the initial time")
    _check_schedule_consistency(initial, schedule)

    if sample_times is None:
        targets = [T]
    else:
        targets = []
        for tt in sorted(float(t) for t in sample_times):
            if tt <= t0 or tt > T + 1e-12 * max(1.0, T):
                raise ValueError("sample times must lie in (t0, T]")
            if not targets or tt - targets[-1] > 1e-12 * max(1.0, tt):
                targets.append(tt)
        if not targets or abs(targets[-1] - T) > 1e-12 * max(1.0, T):
            targets.append(T)

    s = initial.grid.nodes
    coeffs = _d2_coeffs(s)
    cfg = config
    snapshots = [initial]
    u = initial.values.copy()
    t = t0
    dt_cur = cfg.dt
    streak = 0
    nsteps = 0
    newton_total = 0

    for target in targets:
        while t < target - 1e-14 * max(1.0, target):
            dt_try = min(dt_cur, target - t)
            halvings = 0
            while True:
                t_new = t + dt_try
                try:
                    w, iters = _advance(s, u, t_new, dt_try, schedule, cfg, coeffs)
                    break
                except StepFailure as exc:
                    halvings += 1
                    if halvings > cfg.max_halvings:
                        partial = Trajectory(
                            states=tuple(snapshots),
                            config=cfg,
                            nsteps=nsteps,
                            newton_iters=newton_total,
                        )
                        raise RunError(
                            f"step at t={t:g} failed after {cfg.max_halvings} halvings "
                            f"(last residual {exc.residual:g})",
                            partial,
                        ) from exc
                    dt_try *= 0.5
                    streak = 0
            u = np.exp(w)
            t = t_new
            nsteps += 1
            newton_total += iters
            if halvings > 0:
                dt_cur = dt_try
            if iters <= cfg.fast_iters and halvings == 0:
                streak += 1
                if streak >= cfg.streak_to_grow and dt_cur < cfg.effective_cap:
                    dt_cur = min(2.0 * dt_cur, cfg.effective_cap)
                    streak = 0
            else:
                streak = 0
        t = target  # land exactly, clearing accumulated roundoff
        snapshots.append(ConformalState(initial.grid, u.copy(), t))

    return Trajectory(
        states=tuple(snapshots),
        config=cfg,
        nsteps=nsteps,
        newton_iters=newton_total,
    )


@dataclass(frozen=True)
class ExhaustDiagnostics:
    """Comparison-principle bookkeeping for one exhaustion family."""

    r0: float
    max_order_violation: float  # max over nodes/times of U_k - U_{k'}, k < k'
    monotone: bool
    sup_diffs: tuple  # sup over D_{r0} of |U_{k_{j+1}} - U_{k_j}| at final time
    sup_diffs_decreasing: bool


def exhaust(
    initial: ConformalState,
    ramps: Sequence[float],
    config: SolverConfig,
    T: float,
    r0: float = 0.75,
    sample_times: Sequence[float] | None = None,
):
    """Run the standard ramp family for each k and check the exhaustion order.

    All runs share the grid, the initial data, and T.  Diagnostics record the
    worst violation of pointwise monotonicity in k (the discrete comparison
    principle makes larger ramps give larger solutions) and the successive
    sup-differences on the interior region D_{r0} at the final time.
    """
    ks = [float(k) for k in ramps]
    # equal neighbors are tolerated (useful as a determinism check); only a
    # decrease breaks the exhaustion ordering
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise ValueError("ramps must be nondecreasing")
    trajectories = [
        evolve(initial, BoundarySchedule.ramp(initial, k), config, T, sample_times)
        for k in ks
    ]

    tol = 10.0 * config.newton_tol
    worst = 0.0
    for lo, hi in zip(trajectories, trajectories[1:]):
        for st_lo, st_hi in zip(lo.states, hi.states):
            worst = max(worst, float(np.max(st_lo.values - st_hi.values)))
    scale = max(float(np.max(traj.states[-1].values)) for traj in trajectories)
    monotone = worst <= tol * max(1.0, scale)

    mask = initial.grid.nodes >= -math.log(r0)
    finals = [traj.states[-1].values[mask] for traj in trajectories]
    sup_diffs = tuple(
        float(np.max(np.abs(b - a))) for a, b in zip(finals, finals[1:])
    )
    decreasing = all(b <= a for a, b in zip(sup_diffs, sup_diffs[1:]))

    diag = ExhaustDiagnostics(
        r0=r0,
        max_order_violation=worst,
        monotone=monotone,
        sup_diffs=sup_diffs,
        sup_diffs_decreasing=decreasing,
    )
    return trajectories, diag


def mms_residual(
    model,
    grid: LogPolarGrid,
    t: float,
    dt: float,
    config: SolverConfig | None = None,
) -> float:
    """Defect rate of one step against an exact solution.

    Takes the exact state at time t, advances one backward-Euler step with
    exact boundary data, and returns max|U_num - U_exact(t+dt)| / dt.  For a
    time-dependent model this converges at first order in dt on a fine grid
    and at second order in ds when dt is slaved to ds^2; for a static exact
    solution it sits at the Newton floor.
    """
    s = grid.nodes
    exact_now = ConformalState(grid, np.asarray(model_factor(model, s, t), dtype=float), t)
    schedule = BoundarySchedule.from_model(model, grid.s_min, grid.s_max)
    cfg = config if config is not None else SolverConfig(dt=dt)
    advanced = step(exact_now, dt, schedule, cfg)
    exact_next = np.asarray(model_factor(model, s, t + dt), dtype=float)
    return float(np.max(np.abs(advanced.values - exact_next))) / dt


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a pointwise trajectory comparison U_a <= U_b."""

    ordered: bool
    max_violation: float
    tolerance: float
    worst_time: float

    def __bool__(self) -> bool:
        return self.ordered


def _check_pair(traj_a: Trajectory, traj_b: Trajectory) -> None:
    """Raise ValueError unless both trajectories share one grid and one set
    of sample times; every pair comparison starts here."""
    if not np.array_equal(traj_a.grid.nodes, traj_b.grid.nodes):
        raise ValueError("trajectories live on incompatible grids")
    # np.allclose(rtol=1e-12, atol=1e-14) on a few finite floats, without its
    # per-call overhead: certificates run this once per sample time
    ta = [st.time for st in traj_a.states]
    tb = [st.time for st in traj_b.states]
    if len(ta) != len(tb) or any(abs(a - b) > 1e-14 + 1e-12 * abs(b) for a, b in zip(ta, tb)):
        raise ValueError("trajectories have mismatched sample times")


def check_order_preservation(
    traj_a: Trajectory, traj_b: Trajectory, tol: float | None = None
) -> OrderReport:
    """Check U_a <= U_b + tol at every node of every shared sample time."""
    _check_pair(traj_a, traj_b)
    if tol is None:
        scale = max(
            float(np.max(traj_a.states[-1].values)),
            float(np.max(traj_b.states[-1].values)),
            1.0,
        )
        tol = 10.0 * traj_a.config.newton_tol * scale
    worst = -math.inf
    worst_t = float(traj_a.states[0].time)
    for st_a, st_b in zip(traj_a.states, traj_b.states):
        v = float(np.max(st_a.values - st_b.values))
        if v > worst:
            worst, worst_t = v, st_a.time
    return OrderReport(
        ordered=worst <= tol, max_violation=worst, tolerance=tol, worst_time=worst_t
    )
