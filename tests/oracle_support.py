"""Independent high-precision recomputation of the frozen reference constants.

Every [frozen] literal in the test suite was produced by one of the mpmath
routines below, run at 40 significant digits before the implementation under
test existed.  A handful of tests re-derive a value here and compare against
both the frozen literal and the double-precision implementation, so a
regression in either direction is caught.  mpmath is a test-only dependency.

The module also keeps the solver's former Newton loop on
scipy.linalg.solve_banded, which the LAPACK kernel must reproduce bitwise.
"""

import mpmath as mp
import numpy as np
from scipy.linalg import solve_banded

from logdiff import solver
from logdiff.geometry import _d2_coeffs
from logdiff.solver import StepFailure

mp.mp.dps = 40


def mp_excess(x):
    # (1+x) log(1+x) - x with the same series protection as the package
    x = mp.mpf(x)
    if abs(x) < mp.mpf("1e-8"):
        return x**2 / 2 - x**3 / 6 + x**4 / 12 - x**5 / 20
    return (1 + x) * mp.log(1 + x) - x


def q_reference(s0, S, gamma, split=False):
    """Q in beta coordinates at 40 digits; returns (Q, Q1, Q2).

    Substituting beta = 1 + u^5 turns the (beta-1)^{-2 gamma} endpoint
    singularity into the milder u^{4 - 10 gamma}; tanh-sinh on the raw
    endpoint loses digits as gamma grows (4e-5 relative at gamma = 0.45).
    """
    s0, S, gamma = mp.mpf(s0), mp.mpf(S), mp.mpf(gamma)
    a = 2 * S / s0
    pref = (2 / s0) / (-mp.log(a))
    fifth = mp.mpf(1) / 5

    def integrand(u):
        x = u**5
        return (1 + x) ** (gamma - 1) * mp_excess(x) ** (-gamma) * 5 * u**4

    u_max = (1 / a - 1) ** fifth
    u_split = (mp.e**2 - 1) ** fifth
    if split and u_split < u_max:
        near = mp.quad(integrand, [0, u_split])
        far = mp.quad(integrand, [u_split, u_max])
        return pref * (near + far), pref * far, pref * near
    whole = mp.quad(integrand, [0, u_max])
    return pref * whole, mp.mpf(0), pref * whole


def i2_reference(gamma):
    """int_1^{e^2} b^g (b-1)^{-2g} db by binomial series near the singularity.

    Substituting x = b-1 and expanding (1+x)^g on [0,1] turns the singular
    part into sum_k binom(g,k)/(k+1-2g); tanh-sinh quadrature alone loses
    digits once the endpoint exponent passes -0.8.
    """
    gamma = mp.mpf(gamma)
    series = mp.nsum(
        lambda k: mp.binomial(gamma, int(k)) / (int(k) + 1 - 2 * gamma), [0, mp.inf]
    )
    outer = mp.quad(lambda x: (1 + x) ** gamma * x ** (-2 * gamma), [1, mp.e**2 - 1])
    return series + outer


def jacobi_moment_reference(k, gamma):
    """int_{-1}^{1} t^k (1+t)^{-2 gamma} dt from the binomial expansion of
    t^k = ((1+t) - 1)^k: sum_j C(k,j) (-1)^{k-j} 2^{j+b+1}/(j+b+1), b = -2 gamma.
    The alternating sum cancels about 35 digits at k = 60, so it runs at 80."""
    with mp.workdps(80):
        b = -2 * mp.mpf(gamma)
        return mp.fsum(mp.binomial(k, j) * (-1) ** (k - j) * 2 ** (j + b + 1) / (j + b + 1)
                       for j in range(k + 1))


def q_bound_constant_reference(gamma):
    gamma = mp.mpf(gamma)
    bracket = i2_reference(gamma) * mp.log(mp.mpf(3) / 2) ** (gamma - 1) + 1 / (1 - gamma)
    return 2 ** (1 + gamma) * (1 - mp.log(2) / mp.log(3)) ** (-gamma) * bracket


def bigbang_disc_area_reference(r0, t):
    # 4 pi t (coth s0 - 1), the exact area of D_{r0} under 2t/sinh^2
    s0 = -mp.log(mp.mpf(r0))
    return 4 * mp.pi * mp.mpf(t) * (mp.coth(s0) - 1)


def mp_flux(a, sigma):
    """The flux function f(sigma) of logdiff.cutoff at 40 digits, every piece."""
    a, sigma = mp.mpf(a), mp.mpf(sigma)
    f1 = 1 - (1 - a) / (-mp.log(a))
    if sigma <= a:
        return mp.mpf(0)
    if sigma < 1:
        return a * mp_excess(sigma / a - 1) / (-mp.log(a))
    if f1 > mp.mpf(2) / 3:
        knot = 3 - 2 * f1
        if sigma < knot:
            tau = sigma - 1
            return f1 + tau - tau**2 / (4 * (1 - f1))
        return mp.mpf(1)
    if f1 >= mp.mpf(1) / 3:
        if sigma < 2:
            tau = sigma - 1
            return f1 + tau + (1 - 3 * f1) * tau**2 + (2 * f1 - 1) * tau**3
        return mp.mpf(1)
    knot = 2 - 2 * f1
    if sigma < knot:
        return f1 + (sigma - 1)
    if sigma < 2:
        return 1 - (2 - sigma) ** 2 / (4 * f1)
    return mp.mpf(1)


def pair_flux_rate_reference(s0, S, s_max):
    """4 pi int (1/s^2 - 1/sinh^2 s) phi ds over [S, s_max]: dJ/dt of the model pair."""
    s0, S, s_max = mp.mpf(s0), mp.mpf(S), mp.mpf(s_max)
    a = 2 * S / s0

    def integrand(s):
        return (1 / s**2 - 1 / mp.sinh(s) ** 2) * mp_flux(a, 2 * s / s0)

    knots = sorted({S, s0 / 2, s0, s_max})
    return 4 * mp.pi * mp.quad(integrand, knots)


def newton_solve_reference(s, u_old, w_in, w_out, dt, coeffs=None):
    """The backward-Euler Newton loop as written on scipy.linalg.solve_banded.

    Kept verbatim as the reference for logdiff.solver._newton_solve, which
    calls LAPACK dgtsv directly (solve_banded is dgtsv for (1, 1) bands) and
    must return a bitwise-equal w after the same number of iterations.  It
    reads the solver's NEWTON_TOL and MAX_NEWTON_ITER at call time, as the
    kernel does.
    """
    cl, cc, cr = coeffs if coeffs is not None else _d2_coeffs(s)
    w = np.log(u_old)
    w[0], w[-1] = w_in, w_out
    u_int = u_old[1:-1]

    def residual(wv):
        d2 = cl * wv[:-2] + cc * wv[1:-1] + cr * wv[2:]
        return np.exp(wv[1:-1]) - u_int - dt * d2

    f = residual(w)
    fnorm = float(np.max(np.abs(f)))
    for it in range(1, solver.MAX_NEWTON_ITER + 1):
        ab = np.zeros((3, s.size - 2))
        ab[0, 1:] = -dt * cr[:-1]
        ab[1, :] = np.exp(w[1:-1]) - dt * cc
        ab[2, :-1] = -dt * cl[1:]
        delta = solve_banded((1, 1), ab, -f)

        # damped update: halve until the residual stops growing
        scale = 1.0
        for _ in range(30):
            w_try = w.copy()
            w_try[1:-1] = w[1:-1] + scale * delta
            f_try = residual(w_try)
            fnorm_try = float(np.max(np.abs(f_try)))
            if np.isfinite(fnorm_try) and fnorm_try <= fnorm * (1.0 + 1e-12) + 1e-300:
                break
            scale *= 0.5
        else:
            raise StepFailure("Newton damping exhausted", fnorm)

        w, f, fnorm = w_try, f_try, fnorm_try
        if float(np.max(np.abs(scale * delta))) < solver.NEWTON_TOL:
            return w, it
    raise StepFailure("Newton iteration budget exhausted", fnorm)
