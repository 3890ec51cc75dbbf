"""Spans around logdiff's layers, and the per-layer metrics made from them.

A `Tracer` lives inside one traced CLI process.  It replaces each function
listed in SITES at the place its caller looks it up (`logdiff.cli.evolve`
and `logdiff.experiments.evolve` are separate sites of one function), so
the program's source is untouched.  Each call becomes a span

    [name, start, end, parent index, extra]

kept in memory and dumped with the run id when the process ends.  Integrand
evaluations are counted through a proxy for the `integrate` module that
`logdiff.cutoff` calls `quad` on.  A site the program no longer has is
reported as missing, and the metrics that need it read 0.
"""

import importlib
import os
import statistics
import time

# (module, attribute, span name)
SITES = (
    ("logdiff.cli", "parse_config", "config.parse_config"),
    ("logdiff.cli", "run_q_sweep", "experiments.run_q_sweep"),
    ("logdiff.cli", "run_exact_solution_suite", "experiments.run_exact_solution_suite"),
    ("logdiff.cli", "run_uniqueness_experiment", "experiments.run_uniqueness_experiment"),
    ("logdiff.cli", "run_boundary_layer_experiment", "experiments.run_boundary_layer_experiment"),
    ("logdiff.experiments", "matched_truncation_gauge", "experiments.matched_truncation_gauge"),
    ("logdiff.cli", "evolve", "solver.evolve"),
    ("logdiff.experiments", "evolve", "solver.evolve"),
    ("logdiff.solver", "solve_banded", "linalg.solve"),
    ("logdiff.experiments", "compute_Q", "cutoff.compute_Q"),
    ("logdiff.estimates", "compute_Q", "cutoff.compute_Q"),
    ("logdiff.experiments", "interior_area_verify", "estimates.interior_area_verify"),
    ("logdiff.estimates", "interior_area_verify", "estimates.interior_area_verify"),
    ("logdiff.cli", "full_report", "estimates.full_report"),
    ("logdiff.cli", "save_trajectory", "snapshots.save_trajectory"),
    ("logdiff.cli", "load_trajectory", "snapshots.load_trajectory"),
    ("logdiff.experiments", "write_rows_csv", "snapshots.write_rows_csv"),
    ("logdiff.snapshots", "write_rows_csv", "snapshots.write_rows_csv"),
    ("logdiff.snapshots", "save_state", "snapshots.save_state"),
    ("logdiff.snapshots", "load_state", "snapshots.load_state"),
)

RUNNERS = ("run_q_sweep", "run_exact_solution_suite", "run_uniqueness_experiment",
           "matched_truncation_gauge", "run_boundary_layer_experiment")


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# what a span records from its call once the call has returned
_ON_RETURN = {
    "solver.evolve": lambda args, out: {"nsteps": out.nsteps, "newton_iters": out.newton_iters},
    "estimates.full_report": lambda args, out: {"rows": len(out.rows)},
    "snapshots.write_rows_csv": lambda args, out: {"bytes_written": _size(args[0])},
    "snapshots.save_state": lambda args, out: {"bytes_written": _size(args[1])},
    "snapshots.load_state": lambda args, out: {"bytes_read": _size(args[0])},
    "snapshots.load_trajectory": lambda args, out: {"bytes_read": _size(args[0])},
}


class _IntegrateProxy:
    """Stands in for scipy.integrate inside logdiff.cutoff: spans each quad
    call and counts the integrand evaluations it makes."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, func, *args, **kwargs):
        evals = 0

        def counted(*a):
            nonlocal evals
            evals += 1
            return func(*a)

        span = self._tracer.open("cutoff.quad")
        try:
            return self._module.quad(counted, *args, **kwargs)
        finally:
            self._tracer.close(span)
            span[4] = {"evals": evals}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []

    def open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        on_return = _ON_RETURN.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                span[4] = on_return(args, out)
            return out

        return traced

    def install(self):
        for modname, attr, name in SITES:
            module = importlib.import_module(modname)
            if not hasattr(module, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), name))
        cutoff = importlib.import_module("logdiff.cutoff")
        if hasattr(cutoff, "integrate"):
            cutoff.integrate = _IntegrateProxy(cutoff.integrate, self)
        else:
            self.missing.append("logdiff.cutoff.integrate")

    def dump(self):
        return {"run_id": self.run_id, "spans": self.spans, "missing": self.missing}


# ------------------------------------------------------------ per-layer metrics

# name -> unit, in the order they are printed
PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_linalg_s": "s",
    "import.scipy_integrate_s": "s",
    "import.logdiff_self_s": "s",
    "solver.evolve.calls": "count",
    "solver.evolve.self_s": "s",
    "solver.steps": "count",
    "solver.newton_iters": "count",
    "solver.newton_per_step": "ratio",
    "solver.us_per_newton_iter": "us",
    "linalg.solve.calls": "count",
    "linalg.solve.s": "s",
    "linalg.us_per_solve": "us",
    "cutoff.compute_Q.calls": "count",
    "cutoff.compute_Q.s": "s",
    "cutoff.compute_Q.p50_ms": "ms",
    "cutoff.compute_Q.p95_ms": "ms",
    "cutoff.quad.calls": "count",
    "cutoff.integrand_evals": "count",
    "cutoff.us_per_eval": "us",
    "estimates.interior_area_verify.calls": "count",
    "estimates.interior_area_verify.s": "s",
    "estimates.full_report.s": "s",
    "estimates.rows": "count",
    "snapshots.save_trajectory.s": "s",
    "snapshots.load_trajectory.s": "s",
    "snapshots.write_rows_csv.s": "s",
    "snapshots.bytes_written": "bytes",
    "snapshots.bytes_read": "bytes",
    "config.parse_config.s": "s",
    **{f"experiments.{r}.self_s": "s" for r in RUNNERS},
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(traces):
    """Per-layer metrics of one workload iteration from its commands' traces
    (everything except import.* and trace.overhead_frac)."""
    calls, total, self_s, extra = {}, {}, {}, {}
    q_ms = []
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, ext) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if name == "cutoff.compute_Q":
                q_ms.append(1e3 * dur)
            for key, val in (ext or {}).items():
                extra[key] = extra.get(key, 0) + val

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    steps, iters = extra.get("nsteps", 0), extra.get("newton_iters", 0)
    n_solve, evals = calls.get("linalg.solve", 0), extra.get("evals", 0)
    out = {
        "solver.evolve.calls": calls.get("solver.evolve", 0),
        "solver.evolve.self_s": self_s.get("solver.evolve", 0.0),
        "solver.steps": steps,
        "solver.newton_iters": iters,
        "solver.newton_per_step": ratio(iters, steps),
        "solver.us_per_newton_iter": ratio(total.get("solver.evolve", 0.0), iters, 1e6),
        "linalg.solve.calls": n_solve,
        "linalg.solve.s": total.get("linalg.solve", 0.0),
        "linalg.us_per_solve": ratio(total.get("linalg.solve", 0.0), n_solve, 1e6),
        "cutoff.compute_Q.calls": calls.get("cutoff.compute_Q", 0),
        "cutoff.compute_Q.s": total.get("cutoff.compute_Q", 0.0),
        "cutoff.compute_Q.p50_ms": _percentile(q_ms, 50),
        "cutoff.compute_Q.p95_ms": _percentile(q_ms, 95),
        "cutoff.quad.calls": calls.get("cutoff.quad", 0),
        "cutoff.integrand_evals": evals,
        "cutoff.us_per_eval": ratio(total.get("cutoff.quad", 0.0), evals, 1e6),
        "estimates.interior_area_verify.calls": calls.get("estimates.interior_area_verify", 0),
        "estimates.interior_area_verify.s": total.get("estimates.interior_area_verify", 0.0),
        "estimates.full_report.s": total.get("estimates.full_report", 0.0),
        "estimates.rows": extra.get("rows", 0),
        "snapshots.save_trajectory.s": total.get("snapshots.save_trajectory", 0.0),
        "snapshots.load_trajectory.s": total.get("snapshots.load_trajectory", 0.0),
        "snapshots.write_rows_csv.s": total.get("snapshots.write_rows_csv", 0.0),
        "snapshots.bytes_written": extra.get("bytes_written", 0),
        "snapshots.bytes_read": extra.get("bytes_read", 0),
        "config.parse_config.s": total.get("config.parse_config", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for r in RUNNERS:
        out[f"experiments.{r}.self_s"] = self_s.get(f"experiments.{r}", 0.0)
    return out


_IMPORT_FAMILIES = (("numpy", "import.numpy_s"), ("scipy.linalg", "import.scipy_linalg_s"),
                    ("scipy.integrate", "import.scipy_integrate_s"))


def import_breakdown(text):
    """import.* metrics from the stderr of `python -X importtime -c "import
    logdiff.cli"`.

    A module's self time is charged to the outermost numpy, scipy.linalg or
    scipy.integrate module above it in the import tree, so a family also
    pays for the dependencies it pulls in first (scipy.integrate brings
    scipy.special and scipy.optimize).  import.logdiff_self_s is the
    package's own module bodies; import.total_s is everything `import
    logdiff.cli` costs.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((depth, raw.strip(), float(self_us), float(cum_us)))
    out = dict.fromkeys(["import.total_s", "import.logdiff_self_s"]
                        + [key for _, key in _IMPORT_FAMILIES], 0.0)
    stack = []  # (depth, family key) of the ancestors of the current row
    # rows are printed children first, so reversed they list parents first
    for depth, name, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        charge = stack[-1][1] if stack else None
        if charge is None:
            charge = next((key for pkg, key in _IMPORT_FAMILIES
                           if name == pkg or name.startswith(pkg + ".")), None)
        stack.append((depth, charge))
        if charge is not None:
            out[charge] += self_us / 1e6
        if name == "logdiff" or name.startswith("logdiff."):
            out["import.logdiff_self_s"] += self_us / 1e6
            if depth == 0:
                out["import.total_s"] += cum_us / 1e6
    return out
