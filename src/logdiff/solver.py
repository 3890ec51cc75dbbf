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

Runs are solved in batches: evolve_many advances many runs in lockstep,
and evolve is a batch of one.  Each round stacks the live runs'
nodes into one tridiagonal system whose blocks do not couple, and each
Newton iteration solves it with one direct call of LAPACK dgtsv (Gaussian
elimination with partial pivoting).  Line search, convergence and the step
clock stay per run, so every run gives bitwise the results it gives alone.
A zero pivot fails the step like a stalled iteration does, so the run halves
dt and retries while the others go on.

Each Newton solve starts from the run's own extrapolation of degree
DEGREE = 4: the Newton-form polynomial through its last five accepted
states, built from divided differences f[t_n..t_{n-k}] of w on its own
step sizes, so a halved retry or a step cut short to land on a sample time
needs nothing special (Hairer, Norsett and Wanner, Solving ODEs I, III.5;
Hairer and Wanner, Solving ODEs II, IV.8).  The degree rises from 0 as the
history builds.  evolve_many keeps the divided differences stacked and
evaluates the start by Horner's rule; it depends on the run's own history
alone, so batch and solo runs stay bitwise equal.  On the shipped commands
no step moves, only where Newton begins: the shipped simulate member takes
229 Newton iterations for its 100 steps, against 314 from a linear start
and 407 from its previous state, and the benchmark's seed-41 uniqueness
ensemble makes 1,652 dgtsv calls against 2,885 (degree 5 makes 1,500 and
ran uniqueness no faster).  A run whose dt may grow (dt_cap above dt) starts from its
previous state: its controller reads a cheap solve as a smooth flow, and
extrapolated linearly, the boundary-layer run took 91 steps instead of 414
at 4.6 times the error.

No randomness anywhere: identical inputs produce bitwise-identical runs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import ConformalState, LogPolarGrid, _d2_coeffs, model_factor


def _load_dgtsv(search):
    """LAPACK dgtsv from scipy.linalg._flapack, found in the directories
    search and loaded without the scipy package init (ten modules, among them
    subprocess) or the scipy.linalg one, which imports most of numpy (about
    0.2 s and 20 MB); a later import of scipy.linalg shares the module.
    Where it is not found (an editable scipy build, say), or fails to load
    without scipy's init (a wheel whose bundled libraries that init puts on
    the library path, say), the public scipy.linalg.lapack.dgtsv."""
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(name, search)
    if spec is not None and name not in sys.modules:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            spec = None
        else:
            sys.modules[name] = module
    if spec is None:
        from scipy.linalg.lapack import dgtsv
        return dgtsv
    return sys.modules[name].dgtsv


# the one seam through which every Newton iteration solves; tests patch it
dgtsv = _load_dgtsv([os.path.join(path, "linalg")
                     for path in importlib.util.find_spec("scipy").submodule_search_locations])

__all__ = [
    "BoundarySchedule",
    "Run",
    "Trajectory",
    "StepFailure",
    "RunError",
    "evolve",
    "evolve_many",
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


class BoundarySchedule(NamedTuple):
    """Dirichlet data M_in(t) at s_min and M_out(t) at s_max.

    The inner side is the disc-boundary side (small s); pumping area into the
    domain means growing M_in.  The standard exhaustion family is
    M_in(t) = max(U0(s_min), k*t), linear in t like the big-bang factor.
    """

    inner: Callable[[float], float]
    outer: Callable[[float], float]

    @classmethod
    def ramp(cls, initial: ConformalState, k: float) -> "BoundarySchedule":
        """Standard exhaustion member started from initial: inner
        max(U0(s_min), k*t), outer pinned at U0(s_max)."""
        if not (math.isfinite(k) and k > 0.0):
            raise ValueError("ramp slope k must be positive and finite")
        u0_in, u_out = float(initial.values[0]), float(initial.values[-1])
        return cls(inner=lambda t: max(u0_in, k * t), outer=lambda t: u_out)

    @classmethod
    def from_model(cls, model, s_min: float, s_max: float) -> "BoundarySchedule":
        """Exact model values at both ends (for manufactured-solution runs)."""
        return cls(
            inner=lambda t: float(model_factor(model, s_min, t)),
            outer=lambda t: float(model_factor(model, s_max, t)),
        )


# Newton and step-size controls shared by every run.  They are read at call
# time, so a test can monkeypatch them.
NEWTON_TOL = 1e-10  # a member converges once its damped step's max |dw| is below this
MAX_NEWTON_ITER = 50  # Newton iterations before a step fails
MAX_HALVINGS = 10  # halvings of dt on one step before the run fails
STREAK_TO_GROW = 3  # cheap steps in a row before dt doubles
FAST_ITERS = 3  # a step is cheap with at most this many Newton iterations
DEGREE = 4  # degree of the extrapolation each Newton solve starts from


class Run(NamedTuple):
    """March initial under schedule to T, snapshotting at sample_times (T
    alone when None), with target step dt: halved on a failed step, doubled
    back after cheap steps, never above dt_cap (default dt).  Each Newton
    solve starts from the run's degree-4 extrapolation through its last five
    accepted states (of lower degree over its first four steps), or from its
    previous state when dt_cap exceeds dt.  The steps, T, the
    sample times and the schedule's fit to initial are checked when the run
    starts."""

    initial: ConformalState
    schedule: BoundarySchedule
    dt: float
    T: float
    sample_times: Sequence[float] | None = None
    dt_cap: float | None = None


class Trajectory:
    """Snapshots of one run at strictly increasing sample times; plain data
    that pickles."""

    def __init__(self, states: tuple, nsteps: int = 0, newton_iters: int = 0):
        if len(states) < 1:
            raise ValueError("trajectory needs at least one state")
        times = [st.time for st in states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        nodes0 = states[0].grid.nodes
        for st in states[1:]:
            if not np.array_equal(st.grid.nodes, nodes0):
                raise ValueError("all states must share one grid")
        self.states, self.nsteps, self.newton_iters = states, nsteps, newton_iters

    @property
    def grid(self) -> LogPolarGrid:
        return self.states[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([st.time for st in self.states])


class _Layout:
    """Members stacked into one tridiagonal system.

    Member k owns nodes off[k]:off[k+1] of the stacked w, and the system's
    rows are the stacked nodes 1..N-2, so a lone member's rows are exactly
    its interior nodes.  A boundary node between two members is a row with
    a zero stencil and no couplings: its residual and its Newton step are
    exactly 0, and dgtsv never eliminates across it, so every member solves
    bitwise as it would alone.  (That needs every member's Newton step to be
    finite: an overflowing step would spread through the zero couplings as
    0 * inf.)  Per-member norms reduce over row segments; a junction row
    belongs to the member whose interior node it neighbours.
    """

    def __init__(self, grids):
        coeffs = [_d2_coeffs(s) for s in grids]
        off = np.cumsum([0] + [s.size for s in grids])
        self.off = off.tolist()
        self.ends = [(a, b - 1) for a, b in zip(self.off, self.off[1:])]
        self.junctions = np.concatenate((off[1:-1], off[1:-1] - 1))

        def rows(parts, tail):
            # zero at every boundary node, cut to the system's rows (tail 1)
            # or to its off-diagonals (tail 2)
            padded = [np.concatenate(([0.0], p, np.zeros(tail))) for p in parts]
            return np.concatenate(padded)[1:-tail]

        self.cl, self.cc, self.cr = (rows([c[i] for c in coeffs], 1) for i in range(3))
        # Jacobian couplings link two interior nodes of one member only
        self.cl_sub = rows([c[0][1:] for c in coeffs], 2)
        self.cr_sup = rows([c[2][:-1] for c in coeffs], 2)
        self.starts = np.maximum(off[:-1] - 1, 0)
        self.sizes = np.diff(np.append(self.starts, off[-1] - 2))
        self.segments = [slice(a, a + n) for a, n in zip(self.starts.tolist(), self.sizes.tolist())]
        self._dts = None

    def jacobian(self, dts):
        """(dt, dl, du, dt*cc) for the members' steps dts: dt is a float when
        they share it and one value per row otherwise.  Cached while dts
        repeats; dgtsv gets dl and du with overwrite off, so they serve every
        iteration."""
        if dts != self._dts:
            self._jac = None  # let go before the new one is built
            if len(set(dts)) == 1:
                dt = dt_sub = dt_sup = dts[0]
            else:
                dt = np.repeat(dts, self.sizes)
                dt_sub, dt_sup = dt[1:], dt[:-1]
            self._dts = dts
            self._jac = (dt, -dt_sub * self.cl_sub, -dt_sup * self.cr_sup, dt * self.cc)
        return self._jac

    def seg_max(self, x):
        """max |x| over each member's rows, as floats."""
        return np.maximum.reduceat(np.abs(x), self.starts).tolist()


def _per_node(values, nodes):
    """Each member's value of one coefficient on each of its nodes: a float
    when the members share it.  Either way every node is multiplied by the
    same bits, so batch and solo runs stay equal."""
    return values[0] if values.count(values[0]) == len(values) else np.repeat(values, nodes)


def _trend(diffs, factors, nodes):
    """The start's change from w_n by Horner's rule, in one new buffer:
    c_1 (D_1 + c_2 (D_2 + ... + c_d D_d)) with D_k = diffs[k-1], the
    stacked f[t_n..t_{n-k}], and c_k = factors[k-1], the members' t - t_{n+1-k}."""
    trend = diffs[-1] * _per_node(factors[-1], nodes)
    for diff, factor in zip(diffs[-2::-1], factors[-2::-1]):
        trend += diff
        trend *= _per_node(factor, nodes)
    return trend


def _newton_solve(lay, values, bounds, dts, trend):
    """Backward-Euler systems in w = log U of every member of lay, solved by
    damped Newton in lockstep; returns (w, iterations, errors).

    Member k steps from values[k] to the boundary values bounds[k] =
    (w_in, w_out) with step dts[k].  Newton starts from log(values) + trend:
    trend is evolve_many's stacked change of the extrapolant from w_n over
    the step, which the solve lets go once added, or 0.0 for the previous
    state, and the two boundary entries of each member are set to its
    bounds either way.  Junction entries of the stacked u_old are set
    to exp(w), so their residual is exactly 0.  Each member has its own line
    search, acceptance test and convergence test; a converged member rides
    along with a zero right-hand side, so its step is exactly 0, until the
    rest converge.  errors maps a member to the ValueError
    (non-finite initial residual) or StepFailure (singular Jacobian,
    exhausted damping or iteration budget) that stopped it.  A failure ends
    the solve at once, leaving the other members unsolved.
    """
    u_old = np.concatenate(values)
    w = np.log(u_old)
    w += trend
    del trend  # its room serves w_try
    for (first, last), (w_in, w_out) in zip(lay.ends, bounds):
        w[first], w[last] = w_in, w_out
    if lay.junctions.size:
        u_old[lay.junctions] = np.exp(w[lay.junctions])
    dt, dl, du, dt_cc = lay.jacobian(dts)
    cl, cc, cr = lay.cl, lay.cc, lay.cr
    u_int = u_old[1:-1]
    w_try = w.copy()
    m = len(dts)
    done = [None] * m  # iteration count of each converged member

    def residual(wv):
        # returns F(w) and e^w at the system's rows; e^w is reused as the
        # Jacobian diagonal of the next iteration.  F is summed in place and
        # the right-hand side overwrites it, so that a solve's temporaries
        # leave room for the two stacked vectors of evolve_many's history
        ew = np.exp(wv[1:-1])
        d2 = cl * wv[:-2]
        d2 += cc * wv[1:-1]
        d2 += cr * wv[2:]
        d2 *= dt
        f = ew - u_int
        f -= d2
        return f, ew

    f, ew = residual(w)
    fnorm = lay.seg_max(f)
    bad = {k: ValueError("Newton system has non-finite values (is U positive and finite?)")
           for k in range(m) if not math.isfinite(fnorm[k])}
    if bad:
        return w, done, bad
    active = list(range(m))
    for it in itertools.count(1):
        rhs = np.negative(f, out=f)  # f is not read again
        for k in range(m):
            if done[k] is not None:
                rhs[lay.segments[k]] = 0.0
        ew -= dt_cc  # the Jacobian's diagonal, which dgtsv overwrites
        delta, info = dgtsv(dl, ew, du, rhs, overwrite_d=1, overwrite_b=1)[3:]
        del ew  # overwritten; [3:] drops dgtsv's copies of dl and du too
        if info != 0:
            k = int(np.searchsorted(lay.starts, info - 1, side="right")) - 1
            return w, done, {k: StepFailure(
                f"singular Newton Jacobian (dgtsv info={info - lay.off[k]})", fnorm[k])}

        # damped update: each member halves until its residual stops growing
        scale = [1.0] * m
        searching = active
        for _ in range(30):
            # w_try = w + scale * delta, the scaled step kept in no vector
            scaled = np.multiply(delta, scale[0] if scale.count(scale[0]) == m
                                 else np.array(scale).repeat(lay.sizes), out=w_try[1:-1])
            scaled += w[1:-1]
            f_try, ew_try = residual(w_try)
            fnorm_try = lay.seg_max(f_try)
            searching = [
                k for k in searching
                if not (math.isfinite(fnorm_try[k])
                        and fnorm_try[k] <= fnorm[k] * (1.0 + 1e-12) + 1e-300)
            ]
            if not searching:
                break
            for k in searching:
                scale[k] *= 0.5
        else:
            return w, done, {k: StepFailure("Newton damping exhausted", fnorm[k])
                             for k in searching}

        w, w_try = w_try, w
        f, ew, fnorm = f_try, ew_try, fnorm_try
        # scales are powers of two, so this is max |scale * delta| exactly
        steps = [a * b for a, b in zip(scale, lay.seg_max(delta))]
        for k in active:
            if steps[k] < NEWTON_TOL:
                done[k] = it
        active = [k for k in active if done[k] is None]
        if not active:
            return w, done, {}
        if it >= MAX_NEWTON_ITER:
            return w, done, {k: StepFailure("Newton iteration budget exhausted", fnorm[k])
                             for k in active}


def _log_bounds(schedule, t_new):
    m_in, m_out = float(schedule.inner(t_new)), float(schedule.outer(t_new))
    if m_in <= 0.0 or m_out <= 0.0:
        raise ValueError("schedule produced a nonpositive boundary value")
    return math.log(m_in), math.log(m_out)


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


def _march(run: Run):
    """One run as a generator: yields each step attempt as
    (u, (w_in, w_out), dt), is sent back (u_new, Newton iterations) or has
    the step's StepFailure thrown in, and returns the Trajectory."""
    initial, schedule, T, sample_times = run.initial, run.schedule, run.T, run.sample_times
    if run.dt <= 0.0:
        raise ValueError("dt must be positive")
    if run.dt_cap is not None and run.dt_cap < run.dt:
        raise ValueError("dt_cap must not undercut dt")
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

    cap = run.dt if run.dt_cap is None else run.dt_cap
    snapshots = [initial]
    u = initial.values
    t = t0
    dt_cur = run.dt
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
                    u, iters = yield u, _log_bounds(schedule, t_new), dt_try
                    break
                except StepFailure as exc:
                    halvings += 1
                    if halvings > MAX_HALVINGS:
                        raise RunError(
                            f"step at t={t:g} failed after {MAX_HALVINGS} halvings "
                            f"(last residual {exc.residual:g})",
                            Trajectory(tuple(snapshots), nsteps, newton_total),
                        ) from exc
                    dt_try *= 0.5
            t = t_new
            nsteps += 1
            newton_total += iters
            if halvings > 0:
                dt_cur = dt_try
            if iters <= FAST_ITERS and halvings == 0:
                streak += 1
                if streak >= STREAK_TO_GROW and dt_cur < cap:
                    dt_cur = min(2.0 * dt_cur, cap)
                    streak = 0
            else:
                streak = 0
        t = target  # land exactly, clearing accumulated roundoff
        snapshots.append(ConformalState(initial.grid, u.copy(), t))

    return Trajectory(tuple(snapshots), nsteps, newton_total)


def evolve_many(runs: Sequence[Run]) -> list:
    """Advance many Runs at once.

    Runs step in lockstep: every round, each live run attempts its next step
    and one Newton solve serves them all, with one dgtsv call per iteration.
    Every run keeps its own clock and the history that its Newton starts
    extrapolate, and its results are bitwise those of a lone evolve.
    Returns one entry per run: its Trajectory, or the ValueError or RunError
    that ended it; one run's failure never stops the others.
    """
    out = [None] * len(runs)
    marches = [_march(run) for run in runs]
    asks = {}  # run index -> its pending step attempt

    def resume(i, outcome):
        # hands run i the outcome of its step; keeps its next attempt
        try:
            if isinstance(outcome, Exception):
                asks[i] = marches[i].throw(outcome)
            else:
                asks[i] = marches[i].send(outcome)
            return
        except StopIteration as stop:
            out[i] = stop.value
        except (ValueError, RunError) as exc:
            out[i] = exc
        asks.pop(i, None)

    for i in range(len(runs)):
        resume(i, None)
    # the history behind each start: every live run's last DEGREE - 1
    # accepted steps, latest first, and, stacked, its w after the last one
    # and the divided differences f[t_n..t_{n-k}] of w, k = 1..len(diffs),
    # which grow by one a step up to DEGREE.  A run whose dt may grow gets a
    # zero trend, starting from its previous state.  Each new divided
    # difference is written into the buffer of the one it replaces, so a
    # round allocates nothing for the history but its trend and its per-node
    # coefficients
    steps = {i: [] for i in asks}
    previous = {i for i in asks if runs[i].dt_cap is not None and runs[i].dt_cap > runs[i].dt}
    w_last, diffs = None, []
    lay = lay_for = None
    while asks:
        group = list(asks)
        if group != lay_for:
            # rebuilt only when the set of live runs changes; each old
            # vector is let go before the next new one is made
            if w_last is not None:
                segs = [slice(lay.off[k], lay.off[k + 1])
                        for k, i in enumerate(lay_for) if i in asks]
                w_last = np.concatenate([w_last[seg] for seg in segs])
                for j, diff in enumerate(diffs):
                    diffs[j] = np.concatenate([diff[seg] for seg in segs])
            lay = None
            lay, lay_for = _Layout([runs[i].initial.grid.nodes for i in group]), group
            nodes = np.diff(lay.off)
        values, bounds, dts = zip(*[asks[i] for i in group])
        # spans[j][k] = t_new - t_{n-j} of member k: the (j+1)-th factor of
        # its start's Horner rule and, once its step is accepted, the
        # denominator of its new f[t_new..t_{n-j}]
        spans = list(zip(*[itertools.accumulate([dt] + steps[i]) for i, dt in zip(group, dts)]))
        lead = [0.0 if i in previous else span for i, span in zip(group, spans[0])]
        # the trend goes straight to the solve, which frees it once added
        w, iters, errors = _newton_solve(
            lay, values, bounds, dts,
            _trend(diffs, [lead] + spans[1:len(diffs)], nodes) if diffs else 0.0)
        if errors:
            # the others' solve was cut short; they retry the same step in
            # the next round, with the same result.  No history changes
            for k, exc in errors.items():
                resume(group[k], exc)
            continue
        if w_last is None:  # every member took its first step: w_0 = log u_0
            w_last = np.log(np.concatenate(values))
        np.subtract(w, w_last, out=w_last)
        w_last, diffs = w, [w_last] + diffs[:DEGREE - 1]
        for j, diff in enumerate(diffs):
            if j:
                np.subtract(diffs[j - 1], diff, out=diff)
            diff /= _per_node(spans[j], nodes)
        for i, dt in zip(group, dts):
            steps[i] = [dt] + steps[i][:DEGREE - 2]
        u = np.exp(w)
        for k, i in enumerate(group):
            resume(i, (u[lay.off[k]:lay.off[k + 1]], iters[k]))
    return out


def evolve(run: Run) -> Trajectory:
    """March run.initial from its time to run.T, snapshotting at the sample
    times.

    Steps land exactly on every sample time.  On a failed step dt is halved
    and the step retried (MAX_HALVINGS times); sustained cheap steps let dt
    grow back toward the cap.  This is evolve_many with one run.
    """
    (out,) = evolve_many([run])
    if isinstance(out, Exception):
        raise out
    return out

