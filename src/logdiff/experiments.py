"""Headline experiments over the log-diffusion solver.

Four runners, each emitting one deterministic CSV artifact:

  exact-solution suite   manufactured-solution errors and convergence orders
  uniqueness             interior differences between exhaustion ramps versus
                         the interior-area envelope, per truncation radius R
  q-sweep                Q quadrature against its analytic bound over a grid
                         of cutoff parameters
  boundary-layer         width of the near-boundary disturbance versus time

Runners return result objects holding the rows they wrote so callers can
assert on values without re-reading files.  Everything runs in one process:
the exact-solution suite, the uniqueness ensemble and its gauge hand their
runs to solver.evolve_many, which advances them together in one batched
Newton solve per step, and the Q sweep evaluates its points in turn.
"""

import math
import os
import time
from itertools import islice
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig, require_values
from .cutoff import CutoffSpec, compute_Q, q_split_check
from .estimates import check_order_preservation, interior_area_verify
from .geometry import BigBang, Cusp, FlatDisc, LogPolarGrid, model_factor, model_state
from .snapshots import write_rows_csv
from .solver import BoundarySchedule, Run, Trajectory, evolve, evolve_many

__all__ = [
    "flat_start_run",
    "exhaustion_member",
    "ExactSuiteResult",
    "run_exact_solution_suite",
    "QSweepResult",
    "run_q_sweep",
    "UniquenessResult",
    "run_uniqueness_experiment",
    "matched_truncation_gauge",
    "BoundaryLayerResult",
    "LAYER_FIXED_FIELDS",
    "run_boundary_layer_experiment",
]


# ------------------------------------------------------- exhaustion members


def flat_start_run(grid, k, dt, T, sample_times=None, dt_cap=None) -> Run:
    """The Run of every exhaustion flow: flat data on grid at t = 0, inner
    boundary ramped at slope k, outer value pinned."""
    st0 = model_state(FlatDisc(), grid, 0.0)
    return Run(st0, BoundarySchedule.ramp(st0, float(k)), dt, T, sample_times, dt_cap)


def exhaustion_member(config: ExperimentConfig, R: float, k: float) -> Run:
    """One exhaustion member: the flat-start run on the graded window of
    cut-off radius R at slope k, sampled at config.sample_times or, when
    none are given, at five equal steps up to T.

    A window that cannot carry the grid or the flat start (s_min beyond
    s_max, a ratio too steep for n, a factor that underflows far out) is a
    ConfigError, as a bad field is."""
    lo, hi = config.grid_bounds(R)
    samples = config.sample_times or tuple((j + 1) * config.T / 5.0 for j in range(5))
    try:
        grid = LogPolarGrid.graded(lo, hi, config.n, config.ratio)
        return flat_start_run(grid, k, config.dt, config.T, samples)
    except ValueError as exc:
        raise ConfigError([f"grid at R={R:g} on [{lo:g}, {hi:g}]: {exc}"]) from None


# ---------------------------------------------------------- exact solutions

_SPATIAL_BASE = (0.1, 6.0, 151, 1.02)  # refined by midpoint insertion per level
_SPATIAL_DT = 2e-3
_SPATIAL_SPAN = (0.1, 0.35)
_TEMPORAL_GRID = (0.5, 3.0, 201)
_TEMPORAL_DTS = (0.05, 0.025, 0.0125, 0.00625)
_TEMPORAL_SPAN = (0.5, 1.0)
_STATIC_NS = (101, 201, 401)
# (kind, model, levels) of each study, in the order of the CSV rows
_STUDIES = (
    ("static", FlatDisc, len(_STATIC_NS)),
    ("spatial", BigBang, 3),
    ("spatial", Cusp, 3),
    ("temporal", BigBang, len(_TEMPORAL_DTS)),
    ("temporal", Cusp, len(_TEMPORAL_DTS)),
)


def _exact_run(kind, model, level):
    """The evolve_many run of one refinement level of one study, held at the
    model's own values at both grid ends."""
    if kind == "static":
        grid = LogPolarGrid.graded(0.1, 6.0, _STATIC_NS[level], 1.02)
        (t0, T), dt = (0.0, 0.1), 1e-3
    elif kind == "spatial":
        grid = LogPolarGrid.graded(*_SPATIAL_BASE)
        for _ in range(level):
            grid = grid.refine()
        (t0, T), dt = _SPATIAL_SPAN, _SPATIAL_DT
    else:  # temporal: fixed grid, one run per dt
        grid = LogPolarGrid.uniform(*_TEMPORAL_GRID)
        (t0, T), dt = _TEMPORAL_SPAN, _TEMPORAL_DTS[level]
    sched = BoundarySchedule.from_model(model, grid.s_min, grid.s_max)
    return Run(model_state(model, grid, t0), sched, dt, T)


def _exact_row(kind, model, level, run, traj):
    """Row of one refinement level; solver failures land in the status
    column and the suite continues.  Temporal errors are successive
    terminal differences, filled in by the caller."""
    if isinstance(traj, Exception):
        return {"kind": kind, "model": model.name, "level": level, "n": "", "dt": "",
                "h": "", "error": "", "status": f"failed: {traj}"}
    grid = run.initial.grid
    h = float(np.min(np.diff(grid.nodes)))
    final = traj.states[-1].values
    if kind == "static":
        error = float(np.max(np.abs(final - run.initial.values)))
    elif kind == "spatial":
        exact = model_factor(model, grid.nodes, run.T)
        error = float(np.max(np.abs(final - exact)) / np.max(exact))
    else:
        h, error = run.dt, ""
    return {"kind": kind, "model": model.name, "level": level, "n": grid.n,
            "dt": run.dt, "h": h, "error": error, "status": "ok"}


def _log_slope(x, y) -> float:
    """Least-squares slope of log y against log x, in closed form."""
    x, y = np.log(x), np.log(y)
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


class ExactSuiteResult(NamedTuple):
    rows: tuple
    orders: dict  # (model, kind) -> fitted slope of log error vs log h
    flat_max_error: float
    elapsed: float

    @property
    def passed(self) -> bool:
        if any(r["status"] != "ok" for r in self.rows if r["level"] != "fit"):
            return False
        if self.flat_max_error > 1e-10:
            return False
        for (model, kind), slope in self.orders.items():
            lo, hi = (1.7, 2.3) if kind == "spatial" else (0.8, 1.2)
            if not (lo <= slope <= hi):
                return False
        return True


def run_exact_solution_suite(out_dir=None) -> ExactSuiteResult:
    """Convergence study against the closed-form flows.

    Spatial orders come from errors versus the exact factor over three nested
    grids (midpoint refinement keeps the grading shape fixed); temporal
    orders from successive terminal differences over dt halvings, which
    sidesteps both models being linear in t (backward Euler integrates the
    continuum part exactly there, so errors versus the exact factor would
    measure only the spatial term again).
    """
    started = time.time()
    runs = [_exact_run(kind, model, level)
            for kind, model, levels in _STUDIES for level in range(levels)]
    done = iter(zip(runs, evolve_many(runs)))
    rows, orders = [], {}
    flat_max = 0.0
    for kind, model, levels in _STUDIES:
        study = [(_exact_row(kind, model, level, run, traj), traj)
                 for level, (run, traj) in enumerate(islice(done, levels))]
        if kind == "temporal":
            # diff of each ok level against the next, attached to the coarser dt
            ok = [(r, traj) for r, traj in study if r["status"] == "ok"]
            for (r, coarse), (_, fine) in zip(ok, ok[1:]):
                d = fine.states[-1].values - coarse.states[-1].values
                r["error"] = float(np.max(np.abs(d)))
        errors = [r["error"] for r, _ in study]
        for (r, _), coarse, fine in zip(study, [""] + errors, errors):
            r["order"] = (math.log2(coarse / fine)
                          if kind != "static" and "" not in (coarse, fine) else "")
            rows.append(r)
        errs = [e for e in errors if e != ""]
        hs = [r["h"] for r, _ in study if r["error"] != ""]
        if kind == "static":
            flat_max = max([flat_max] + errs)
        elif len(errs) >= 2:
            slope = _log_slope(hs, errs)
            orders[(model.name, kind)] = slope
            rows.append({"kind": kind, "model": model.name, "level": "fit", "n": "",
                         "dt": "", "h": "", "error": "", "order": slope,
                         "status": "ok"})
    result = ExactSuiteResult(rows=tuple(rows), orders=orders,
                              flat_max_error=flat_max, elapsed=time.time() - started)
    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "exact_suite.csv"),
                       ["kind", "model", "level", "n", "dt", "h", "error", "order", "status"],
                       rows, f"exact-suite|{_SPATIAL_BASE}|{_TEMPORAL_DTS}|{_STATIC_NS}")
    return result


# ------------------------------------------------------------------ Q sweep

_Q_R0S = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
_Q_GAMMAS = (0.05, 0.15, 0.25, 0.35, 0.45)
_Q_N_R = 6


def _q_task(point):
    r0, R, gamma = point
    row = {"r0": r0, "R": R, "gamma": gamma, "a": "", "S": "", "s0": "",
           "Q": "", "Q1": "", "Q2": "", "bound": "", "ratio": "",
           "quad_error": "", "split": "", "split_gap": "", "split_budget": "",
           "status": "ok"}
    try:
        spec = CutoffSpec(r0, R, gamma)
        rep = compute_Q(spec)
        row.update(a=spec.a, S=spec.S, s0=spec.s0, Q=rep.Q, Q1=rep.Q1, Q2=rep.Q2,
                   bound=rep.analytic_bound, ratio=rep.Q / rep.analytic_bound,
                   quad_error=rep.quadrature_error, split=int(rep.split_applied))
        if rep.split_applied:
            row["split_gap"], row["split_budget"] = q_split_check(spec, rep)
    except Exception as exc:  # quadrature failures recorded per row
        row["status"] = f"failed: {exc}"
    return row


def _nonincreasing(vals, rel=1e-9, floor=1e-12) -> bool:
    return all(b <= a * (1.0 + rel) + floor for a, b in zip(vals, vals[1:]))


class QSweepResult(NamedTuple):
    rows: tuple
    all_bounded: bool       # Q <= analytic bound in every ok row
    monotone_in_R: bool     # Q nonincreasing as R increases, per (r0, gamma)
    split_consistent: bool  # |Q_whole - (Q1+Q2)| within quadrature budget

    @property
    def passed(self) -> bool:
        ok = all(r["status"] == "ok" for r in self.rows)
        return ok and self.all_bounded and self.monotone_in_R and self.split_consistent


def run_q_sweep(config=None, out_dir=None) -> QSweepResult:
    """Q against its analytic bound over a (r0, R, gamma) grid.

    A config sweeps its own r0, R list and gamma list.  The default mesh has
    8 x 5 x 6 = 240 points: R values are generated per r0 by halving S from
    just under its ceiling s0/3, so each (r0, gamma) group sweeps R toward 1
    and deep-truncation rows exercise the split regime e^2 a < 1.
    """
    r0_values = (config.r0,) if config is not None else _Q_R0S
    gamma_values = config.gamma_list if config is not None else _Q_GAMMAS
    points = []
    for r0 in r0_values:
        s0 = -math.log(r0)
        if config is not None:
            Rs = sorted(config.R_list)
        else:
            Rs = [math.exp(-0.98 * (s0 / 3.0) * 0.5 ** j) for j in range(_Q_N_R)]
        for gamma in gamma_values:
            for R in Rs:
                points.append((float(r0), float(R), float(gamma)))
    rows = [_q_task(p) for p in points]

    ok_rows = [r for r in rows if r["status"] == "ok"]
    all_bounded = all(r["ratio"] <= 1.0 for r in ok_rows)
    # rows were generated with R increasing inside each (r0, gamma) group
    monotone = all(
        _nonincreasing([r["Q"] for r in ok_rows if (r["r0"], r["gamma"]) == (r0, gamma)],
                       rel=1e-12, floor=0.0)
        for r0 in r0_values for gamma in gamma_values)
    split_ok = all(r["split_gap"] <= r["split_budget"]
                   for r in ok_rows if r["split"] == 1)
    result = QSweepResult(rows=tuple(rows), all_bounded=all_bounded,
                          monotone_in_R=monotone, split_consistent=split_ok)
    if out_dir is not None:
        payload = (config.config_hash if config is not None
                   else f"q-sweep|{_Q_R0S}|{_Q_GAMMAS}|{_Q_N_R}")
        write_rows_csv(os.path.join(out_dir, "q_sweep.csv"),
                       ["r0", "R", "gamma", "a", "S", "s0", "Q", "Q1", "Q2",
                        "bound", "ratio", "quad_error", "split", "split_gap",
                        "split_budget", "status"],
                       rows, payload)
    return result


# -------------------------------------------------------------- uniqueness

class UniquenessResult(NamedTuple):
    rows: tuple
    gauge: dict
    area_monotone_in_R: bool
    sup_monotone_in_R: bool
    all_certified: bool
    failures: tuple

    @property
    def passed(self) -> bool:
        return (self.all_certified and self.area_monotone_in_R
                and self.sup_monotone_in_R and not self.failures and self.gauge["passed"])


def run_uniqueness_experiment(config: ExperimentConfig, out_dir=None) -> UniquenessResult:
    """Interior differences between exhaustion ramps, per truncation R.

    Each R gets its own run window (the default grid floor is S/4), all
    ramps share the flat initial data and the pinned outer value, and every
    consecutive ramp pair is certified with the interior-area estimate.  The
    envelope column is the certificate right side raised to 1+gamma, i.e.
    the bound expressed in plain area units.
    """
    require_values(config, "uniqueness", {"ramps": (2, "ramps"), "R_list": (3, "R values")})
    Rs = sorted(config.R_list)

    # one evolve_many run per (R, ramp), keyed (R, ramp index): its
    # Trajectory or the error that ended it
    keys = [(R, j) for R in Rs for j in range(len(config.ramps))]
    members = dict(zip(keys, evolve_many([exhaustion_member(config, R, config.ramps[j])
                                          for R, j in keys])))
    failures = [f"R={R:g} k={float(config.ramps[j]):g}: {run}"
                for (R, j), run in members.items() if not isinstance(run, Trajectory)]

    s0 = -math.log(config.r0)
    rows = []
    all_certified = True
    finals = {}  # (pair index, gamma) -> list of (R, area_diff, sup_diff)
    for R in Rs:
        S = -math.log(R)
        s_lo, _ = config.grid_bounds(R)
        for pair_idx in range(len(config.ramps) - 1):
            lo, hi = members[(R, pair_idx)], members[(R, pair_idx + 1)]
            if not (isinstance(lo, Trajectory) and isinstance(hi, Trajectory)):
                continue
            mask = lo.grid.nodes >= s0
            # members at one R share grid and sample times, so the pair check passes
            order = check_order_preservation(lo, hi)
            for gamma in config.gamma_list:
                try:
                    cert = interior_area_verify(lo, hi, CutoffSpec(config.r0, R, gamma), order)
                except ValueError as exc:
                    failures.append(f"R={R:g} pair={pair_idx} gamma={gamma:g}: {exc}")
                    all_certified = False
                    continue
                # every sample time after the initial data
                for crow, st_lo, st_hi in zip(cert[1:], lo.states[1:], hi.states[1:]):
                    t = crow.time
                    sup_diff = float(np.max(np.abs(st_hi.values[mask] - st_lo.values[mask])))
                    area_diff = crow.lhs ** (1.0 + gamma)
                    envelope = crow.rhs ** (1.0 + gamma)
                    passed = crow.margin >= 0.0
                    all_certified = all_certified and passed
                    rows.append({
                        "R": R, "S": S, "s_min": s_lo, "r0": config.r0,
                        "gamma": gamma, "k_lo": config.ramps[pair_idx],
                        "k_hi": config.ramps[pair_idx + 1], "t": t,
                        "sup_diff": sup_diff, "area_diff": area_diff,
                        "envelope": envelope, "margin": crow.margin,
                        "cert_pass": int(passed), "status": "ok",
                    })
                    if crow is cert[-1]:
                        finals.setdefault((pair_idx, gamma), []).append(
                            (R, area_diff, sup_diff))

    area_monotone = all(
        _nonincreasing([a for _, a, _ in sorted(v)]) for v in finals.values())
    sup_monotone = all(
        _nonincreasing([d for _, _, d in sorted(v)]) for v in finals.values())

    gauge_row = matched_truncation_gauge()
    result = UniquenessResult(rows=tuple(rows), gauge=gauge_row,
                              area_monotone_in_R=area_monotone,
                              sup_monotone_in_R=sup_monotone,
                              all_certified=all_certified,
                              failures=tuple(failures))
    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "uniqueness.csv"),
                       ["R", "S", "s_min", "r0", "gamma", "k_lo", "k_hi", "t",
                        "sup_diff", "area_diff", "envelope", "margin",
                        "cert_pass", "status"],
                       rows, config.config_hash)
        write_rows_csv(os.path.join(out_dir, "uniqueness_gauge.csv"),
                       list(gauge_row.keys()),
                       [dict(gauge_row, passed=int(gauge_row["passed"]))],
                       config.config_hash)
    return result


# ramps, interior radius, matching factor A, horizon, grid (n, ratio), step
_GAUGE_K = (1e3, 1e4)
_GAUGE_R0 = 0.75
_GAUGE_A = 1.0
_GAUGE_T = 0.1
_GAUGE_GRID = (241, 1.02)
_GAUGE_DT = 1e-3


def matched_truncation_gauge() -> dict:
    """Is the ramp choice visible above discretization error?

    Each ramp runs at its own matched truncation depth, the s where the ramp
    equals A times the big-bang boundary rate: k = A 2H(s) means
    s = asinh(sqrt(2A/k)).  With A = 1 the inner data is exactly the big-bang
    value once kt clears the flat floor, so both flows approximate the same
    complete flow and their interior gap is the exhaustion tail, not a fixed
    truncation effect.  (On a shared window the gap is O(0.5), two orders
    above discretization error: the two ramps then converge to different
    truncated flows and no resolution makes them agree.)

    The yardstick is the self-refinement error of the larger ramp: the same
    run on the midpoint-refined grid at half the step, restricted back to
    the coarse nodes.  The gauge passes when the terminal sup-difference on
    D_{r0} is below 10x that error.  The three runs go through one
    evolve_many batch; the first failed run's error is raised.
    """
    (k_lo, k_hi), r0, A, T, dt = _GAUGE_K, _GAUGE_R0, _GAUGE_A, _GAUGE_T, _GAUGE_DT
    depth_lo = math.asinh(math.sqrt(2.0 * A / k_lo))
    depth_hi = math.asinh(math.sqrt(2.0 * A / k_hi))
    base = LogPolarGrid.graded(depth_hi, 8.0, *_GAUGE_GRID).nodes
    # the shallower depth becomes node j, so the shallow window is master's
    # nodes from j on; refine keeps master's nodes at the even positions.
    # All three windows end at the same outer node, so they share the
    # pinned outer value
    j = int(np.searchsorted(base, depth_lo))
    master = LogPolarGrid(np.insert(base, j, depth_lo))
    sub = LogPolarGrid(master.nodes[j:])
    fine = master.refine()
    hi, lo, hif = evolve_many([flat_start_run(grid, k, step, T) for grid, k, step in (
        (master, k_hi, dt), (sub, k_lo, dt), (fine, k_hi, 0.5 * dt))])
    for run in (hi, lo, hif):
        if isinstance(run, Exception):
            raise run
    inside = master.nodes >= -math.log(r0)
    pair_diff = float(np.max(np.abs(
        hi.states[-1].values[j:] - lo.states[-1].values)[inside[j:]]))
    refine_err = float(np.max(np.abs(
        hif.states[-1].values[0::2] - hi.states[-1].values)[inside]))
    return {"r0": r0, "A": A, "k_lo": k_lo, "k_hi": k_hi,
            "depth_lo": depth_lo, "depth_hi": depth_hi, "t": T,
            "pair_diff": pair_diff, "refine_err": refine_err,
            "threshold": 10.0 * refine_err,
            "passed": bool(pair_diff <= 10.0 * refine_err)}


# ----------------------------------------------------------- boundary layer

class BoundaryLayerResult(NamedTuple):
    rows: tuple
    exponent: float
    width_monotone: bool

    @property
    def in_range(self) -> bool:
        # exploratory gate, reported but never build-failing
        return 0.35 <= self.exponent <= 0.65


_LAYER_SAMPLES = 9
# config fields run_boundary_layer_experiment never reads: it fixes them below
LAYER_FIXED_FIELDS = ("s_max", "n", "ratio", "T", "dt", "sample_times")


def run_boundary_layer_experiment(config=None, out_dir=None) -> BoundaryLayerResult:
    """Width of the pumped-up region versus time for the ramp k = 3e5, or a
    config's last ramp; a config sets only k and s_min.

    Width is measured as w(t) = s*(t) - s_min with s*(t) the largest node at
    which U exceeds the flat profile e^{-2s} by a factor of 2; the factor-2
    convention is a measurement choice, not a theorem.  The fitted exponent
    of w ~ c t^p over t in [1e-3, 1e-1] is the headline number.
    """
    k = 3e5 if config is None else float(config.ramps[-1])
    s_min = 0.005 if config is None or config.s_min is None else config.s_min
    try:
        grid = LogPolarGrid.graded(s_min, 4.0, 301, 1.02)
    except ValueError as exc:
        # validate has refused s_min <= 0: only a config's s_min at or past 4 lands here
        raise ConfigError([f"grid on [s_min, 4] = [{s_min:g}, 4]: {exc}"]) from None
    traj = evolve(flat_start_run(grid, k, 1e-4, 0.1, np.logspace(-3.0, -1.0, _LAYER_SAMPLES),
                                 dt_cap=2e-3))
    rows = []
    widths, ts = [], []
    for st in traj.states[1:]:
        ratio = st.values / traj.states[0].values
        idx = np.nonzero(ratio >= 2.0)[0]
        s_star = float(grid.nodes[idx[-1]]) if idx.size else float(grid.s_min)
        w = s_star - float(grid.s_min)
        rows.append({"t": float(st.time), "s_star": s_star, "width": w})
        if w > 0.0:
            widths.append(w)
            ts.append(float(st.time))
    exponent = _log_slope(ts, widths) if len(widths) >= 2 else float("nan")
    monotone = all(b["width"] >= a["width"] for a, b in zip(rows, rows[1:]))
    result = BoundaryLayerResult(rows=tuple(rows), exponent=exponent,
                                 width_monotone=monotone)
    if out_dir is not None:
        payload = (config.config_hash if config is not None
                   else f"boundary-layer|k={k:g}|s_min={s_min:g}|{_LAYER_SAMPLES}")
        write_rows_csv(os.path.join(out_dir, "boundary_layer.csv"),
                       ["t", "s_star", "width"], rows, payload)
    return result
