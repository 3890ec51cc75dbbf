"""Seeded inputs for the benchmark workloads.

Every generator takes a `random.Random` and returns INI text; the program
sees only these files.  Where several values come from one range they are
drawn by jittered stratification: the range is cut into as many equal strata
as values are needed and one value is drawn from the middle 80% of each.  The
values still cover the whole range, but the mix of cheap and expensive
points barely changes from seed to seed, so run-to-run spread measures the
program and not the luck of the draw.  The 10% margins keep
neighbouring values apart, which keeps the Q-monotone-in-R gate of
`q-sweep` far from quadrature noise.
"""

import math


def strata(rng, k, lo, hi):
    """k values, one from the middle 80% of each of k equal strata of [lo, hi]."""
    width = (hi - lo) / k
    vals = [lo + (j + 0.1 + 0.8 * rng.random()) * width for j in range(k)]
    rng.shuffle(vals)
    return vals


def ini_text(sections):
    """INI text with floats written by repr, so the file pins every digit."""
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, val in keys.items():
            if isinstance(val, (list, tuple)):
                val = ", ".join(repr(float(v)) for v in val)
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def _deep_R(rng, s0, k, u_max):
    # S = 0.98 s0/3 2^-u keeps R inside (r0^{1/3}, 1); small u gives the
    # single-range regime e^2 a >= 1, large u the split regime
    return sorted(math.exp(-0.98 * s0 / 3.0 * 2.0 ** -u) for u in strata(rng, k, 0.0, u_max))


def q_sweep_ini(rng, n_R=16, n_gamma=15):
    """|R| x |gamma| Q points (240 by default) at one seeded r0."""
    r0 = rng.uniform(0.55, 0.9)
    R = _deep_R(rng, -math.log(r0), n_R, 6.0)
    gammas = sorted(strata(rng, n_gamma, 0.05, 0.45))
    text = ini_text({
        "experiment": {"id": "q-sweep"},
        "cutoff": {"r0": r0, "r": R, "gamma": gammas},
    })
    return text, {"rows": n_R * n_gamma, "r0": r0, "R": R, "gamma": gammas}


def uniqueness_ini(rng, n_R=4, n_ramps=3, n_gamma=3, n=241, n_samples=5, dt=1e-4):
    """Exhaustion ramps 1e2..1e4 per truncation radius R, certified per gamma."""
    r0 = rng.uniform(0.7, 0.8)
    R = _deep_R(rng, -math.log(r0), n_R, 2.0)
    ramps = sorted(10.0 ** x for x in strata(rng, n_ramps, 2.0, 4.0))
    gammas = sorted(strata(rng, n_gamma, 0.1, 0.4))
    T = 0.1
    samples = [T * (j + 1) / n_samples for j in range(n_samples)]
    text = ini_text({
        "experiment": {"id": "uniqueness"},
        "grid": {"n": n, "ratio": 1.02},
        "cutoff": {"r0": r0, "r": R, "gamma": gammas},
        "flow": {"ramps": ramps, "t": T, "dt": dt, "sample_times": samples},
    })
    rows = n_R * (n_ramps - 1) * n_gamma * n_samples
    return text, {"rows": rows, "r0": r0, "R": R, "ramps": ramps, "gamma": gammas}


def boundary_layer_ini(rng):
    """One large ramp k in [1e4, 10^5.5] pumping a boundary layer at s_min."""
    k = 10.0 ** rng.uniform(4.0, 5.5)
    s_min = rng.uniform(0.004, 0.01)
    text = ini_text({
        "experiment": {"id": "boundary-layer"},
        "grid": {"s_min": s_min},
        "flow": {"ramps": [k]},
    })
    return text, {"rows": 9, "k": k, "s_min": s_min}


def pipeline_inis(rng, n):
    """The README demo with seeded geometry: two ramps over one window.

    k = A 2/sinh^2(s_min) puts each ramp at A times the big-bang boundary
    rate, so the larger flow dominates and every certificate applies.
    """
    r0 = rng.uniform(0.55, 0.7)
    s0 = -math.log(r0)
    S = 0.98 * s0 / 3.0 * rng.uniform(0.4, 1.0)
    R = math.exp(-S)
    s_min = S / 4.0  # the default window the simulate command derives
    a_lo = rng.uniform(1.5, 3.0)
    a_hi = a_lo * rng.uniform(3.0, 6.0)
    T = 0.1
    samples = [T * (j + 1) / 5 for j in range(5)]
    texts = []
    for A in (a_lo, a_hi):
        k = A * 2.0 / math.sinh(s_min) ** 2
        texts.append(ini_text({
            "experiment": {"id": "simulate"},
            "grid": {"n": n, "ratio": 1.02},
            "cutoff": {"r0": r0, "r": [R], "gamma": [0.25]},
            "flow": {"ramps": [k], "t": T, "dt": 1e-3, "sample_times": samples},
        }))
    return texts, {"r0": r0, "R": R, "n": n, "A_lo": a_lo, "A_hi": a_hi,
                   "samples": len(samples)}
