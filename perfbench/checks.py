"""Output checks on what each logdiff command printed and wrote.

Every check returns (name, ok, detail); the runner counts each one as
attempted and each `ok == False` as failed, so `failed_frac` covers both
commands and checks.  None of this runs inside a timed region.
"""

import csv
import os

# the line each command prints last when it succeeds
VERDICT = {
    "exact-suite": "exact-suite: PASS",
    "q-sweep": "q-sweep: PASS",
    "uniqueness": "uniqueness: PASS",
    "boundary-layer": "boundary-layer: REPORTED",
    "simulate": "simulate: DONE",
    "verify": "verify: PASS",
}

# exact_suite.csv: 3 static levels, 3 spatial levels + fit and 4 temporal
# levels + fit for each of two models
EXACT_SUITE_ROWS = 3 + 2 * (3 + 1) + 2 * (4 + 1)


def verify_families(m):
    """Rows per inequality family in verify_report.csv for m sample times
    (m + 1 states with t = 0): 44 rows for m = 5."""
    return {"J-nonnegative": m + 1, "area-diff-below-J": m + 1, "interior-area": m + 1,
            "volume-excess": m + 1, "lower-barrier": m + 1, "main-odi": m,
            "u-inverse-bound": m, "djdt-identity": m - 1}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _csv(path, expect_rows, status=True):
    name = os.path.basename(path)
    try:
        rows = read_rows(path)
    except OSError as exc:
        return [(f"{name} readable", False, str(exc))], []
    out = [(f"{name} rows", len(rows) == expect_rows, f"{len(rows)} rows, expected {expect_rows}")]
    if status:
        bad = [r.get("status") for r in rows if r.get("status") != "ok"]
        out.append((f"{name} status ok", not bad, f"{len(bad)} rows not ok: {bad[:3]}"))
    return out, rows


def check_command(cmd, rc, stdout, out_dir, expect):
    """Checks for one command: exit code, verdict line, and its artifacts."""
    lines = stdout.strip().splitlines()
    checks = [(f"{cmd} exit 0", rc == 0, f"exit code {rc}"),
              (f"{cmd} verdict", bool(lines) and lines[-1] == VERDICT[cmd],
               f"last line {lines[-1] if lines else ''!r}")]
    if rc != 0:
        return checks

    def path(name):
        return os.path.join(out_dir, name)

    if cmd == "q-sweep":
        checks += _csv(path("q_sweep.csv"), expect["rows"])[0]
    elif cmd == "exact-suite":
        checks += _csv(path("exact_suite.csv"), EXACT_SUITE_ROWS)[0]
    elif cmd == "uniqueness":
        checks += _csv(path("uniqueness.csv"), expect["rows"])[0]
        gauge, rows = _csv(path("uniqueness_gauge.csv"), 1, status=False)
        checks += gauge
        checks.append(("uniqueness gauge passed", bool(rows) and rows[0]["passed"] == "1",
                       str(rows[0] if rows else None)))
    elif cmd == "boundary-layer":
        found, rows = _csv(path("boundary_layer.csv"), expect["rows"], status=False)
        widths = [float(r["width"]) for r in rows]
        checks += found
        checks.append(("boundary-layer widths monotone",
                       all(b >= a for a, b in zip(widths, widths[1:])), str(widths)))
    elif cmd == "simulate":
        checks += _csv(path("snap_manifest.csv"), expect["samples"] + 1, status=False)[0]
    elif cmd == "verify":
        found, rows = _csv(path("verify_report.csv"), sum(verify_families(expect["samples"]).values()),
                           status=False)
        checks += found
        for family, n in verify_families(expect["samples"]).items():
            got = sum(r["inequality"] == family for r in rows)
            checks.append((f"verify {family} rows", got == n, f"{got} rows, expected {n}"))
    return checks


def q_reference(r0, R, gamma, dps=40):
    """Q at (r0, R, gamma) by 40-digit tanh-sinh quadrature; returns
    (Q, relative error estimate).

    Substituting beta = 1 + u^5 in the beta form of Q used by compute_Q
    turns the (beta-1)^(-2 gamma) endpoint singularity into the milder
    u^(4 - 10 gamma); the excess (1+x) log(1+x) - x is summed as its series
    near x = 0, where the closed form cancels.
    """
    import mpmath as mp

    with mp.workdps(dps):
        s0 = -mp.log(mp.mpf(r0))
        a = 2 * -mp.log(mp.mpf(R)) / s0
        g = mp.mpf(gamma)
        tiny = mp.mpf("1e-6")

        def excess(x):
            if abs(x) < tiny:
                return mp.fsum((-1) ** n * x ** n / (n * (n - 1)) for n in range(2, 14))
            return (1 + x) * mp.log1p(x) - x

        def integrand(u):
            x = u ** 5
            return (1 + x) ** (g - 1) * excess(x) ** (-g) * 5 * u ** 4

        u_max = (1 / a - 1) ** (mp.mpf(1) / 5)
        knot = (mp.e ** 2 - 1) ** (mp.mpf(1) / 5)  # beta = e^2, the regime split
        points = [0, knot, u_max] if knot < u_max else [0, u_max]
        val, err = mp.quad(integrand, points, error=True)
        return float(2 / s0 / -mp.log(a) * val), float(err / val)


def check_q_values(rows, picks, rel_tol=1e-12):
    """Compares the Q column of the given q_sweep.csv rows with q_reference."""
    try:
        import mpmath  # noqa: F401
    except ImportError:
        return [("Q reference available", False, "mpmath is not installed")]
    checks = []
    for i in picks:
        if i >= len(rows):
            checks.append((f"Q row {i} vs 40-digit reference", False, f"only {len(rows)} rows"))
            continue
        row = rows[i]
        r0, R, gamma, q = (float(row[k]) for k in ("r0", "R", "gamma", "Q"))
        ref, ref_err = q_reference(r0, R, gamma)
        rel = abs(q - ref) / ref
        checks.append((f"Q row {i} vs 40-digit reference", rel <= rel_tol and ref_err < 1e-20,
                       f"r0={r0!r} R={R!r} gamma={gamma!r} Q={q!r} ref={ref!r} rel={rel:.2e}"))
    return checks
