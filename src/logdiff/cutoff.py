"""Flux function, C1 cut-off, and the singular Q integrals with tracked constants.

The cut-off phi(s) = f(2s/s_0) is built from the flux function

    f(sigma) = [sigma (log sigma - log a) - (sigma - a)] / (-log a),  a <= sigma <= 1,

extended by 0 below a and continued concavely to reach 1 with zero slope at
or before sigma = 2.  The weighted-area machinery only ever uses three facts
about the continuation: it is C1, it stays in [0,1], and its second
derivative is <= 0 on (1,2].  The quantity

    Q = int_S^{s0/2} s^{2 gamma} |phi''|^{1+gamma} phi^{-gamma} ds

has an integrable endpoint singularity at s = S and admits a fully explicit
upper bound; both are computed here, the bound with every constant tracked
numerically rather than hidden in a generic C(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "CutoffSpec",
    "QReport",
    "flux_value",
    "flux_deriv",
    "flux_second_deriv",
    "flux_knots",
    "compute_Q",
    "q_analytic_bound",
    "q_bound_constant",
    "log_excess",
    "INV_SQUARE_CONSTANT",
]

# Universal constant in the barrier consequence 1/U <= C s^2 / t on (0, s_0):
# from U >= 2t/sinh^2(s) and the chord bound sinh(s) <= 3s/(4 log 2) valid on
# (0, log 2) by convexity with sinh(log 2) = 3/4, giving C = 9/(32 log^2 2).
INV_SQUARE_CONSTANT = 9.0 / (32.0 * math.log(2.0) ** 2)


# The excess beta log beta - beta + 1 = (1+x) log1p(x) - x and beta - 1 = x
# as sums in u = log beta = log1p(x), with positive terms for u > 0:
#   beta log beta - beta + 1 = u^2 sum_{j>=0} (j+1) u^j / (j+2)!,
#   beta - 1                 = u   sum_{j>=0}       u^j / (j+1)!.
# Below are the coefficients of u^1 .. u^39; the constant terms are 1/2 and 1.
# For 0 <= u <= 7 the first omitted term is below 1e-17 of its sum.
_N_TERMS = 40
_EXCESS_SERIES = np.array([(j + 1) / math.factorial(j + 2) for j in range(1, _N_TERMS)])
_EXPREL_SERIES = np.array([1.0 / math.factorial(j + 1) for j in range(1, _N_TERMS)])


def _powers(u):
    """u^1 .. u^39 stacked along a new first axis, for the series above."""
    return np.multiply.accumulate(np.broadcast_to(u, (_N_TERMS - 1, *np.shape(u))), axis=0)


def log_excess(x):
    """(1+x) log1p(x) - x for x >= 0, with no digit lost to cancellation.

    Up to u = log1p(x) = 7 it is the excess series above; beyond, it is
    x (u - 1) + u, whose terms are positive.  The flux numerator
    sigma log(sigma/a) - (sigma - a) is a * log_excess((sigma - a)/a), and
    the Q integrands (_q_smooth) sum the same series.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        # for u < 0 the series alternates and loses digits
        raise ValueError("log_excess needs x >= 0")
    u = np.log1p(x)
    series = u * u * (0.5 + np.tensordot(_EXCESS_SERIES, _powers(u), axes=1))
    out = np.where(u <= 7.0, series, x * (u - 1.0) + u)
    return float(out) if out.ndim == 0 else out


def _f1(a: float) -> float:
    # f(1) = 1 - (1-a)/(-log a), the height the closed form reaches at sigma=1
    return 1.0 - (1.0 - a) / (-math.log(a))


def _filler(a: float):
    """Concave C1 continuation of f on [1,2]: kind, knot, and coefficients.

    The cubic Hermite through (1, f1) slope 1 and (2, 1) slope 0 has
    p'' = (12 f1 - 6) tau + (2 - 6 f1), tau = sigma - 1, so it is concave
    exactly when f1 in [1/3, 2/3].  Outside that window:
      f1 > 2/3: single quadratic peaking at 3 - 2 f1 <= 2, then constant 1;
      f1 < 1/3: slope-1 line to sigma = 2 - 2 f1, then a downward parabola
                arriving at (2, 1) with zero slope.
    All three are C1, nondecreasing, within [f1, 1], and have f'' <= 0.
    """
    f1 = _f1(a)
    if 1.0 / 3.0 <= f1 <= 2.0 / 3.0:
        return ("cubic", 2.0, f1)
    if f1 >= 0.5:
        return ("quadratic", 3.0 - 2.0 * f1, f1)
    return ("linear_parabola", 2.0 - 2.0 * f1, f1)


def flux_knots(a: float) -> tuple:
    """Breakpoints of the piecewise definition: (a, 1, interior knot, 2)."""
    _check_a(a)
    _, knot, _ = _filler(a)
    return (a, 1.0, knot, 2.0)


def _check_a(a: float):
    if not (0.0 < a < 1.0):
        raise ValueError("flux parameter a must lie in (0,1)")


def _filler_eval(a: float, sigma: np.ndarray, order: int) -> np.ndarray:
    kind, knot, f1 = _filler(a)
    tau = sigma - 1.0
    if kind == "cubic":
        # expanded Hermite basis: p(tau) = f1 + tau + c2 tau^2 + c3 tau^3
        c2 = 1.0 - 3.0 * f1
        c3 = 2.0 * f1 - 1.0
        if order == 0:
            return f1 + tau + tau * tau * (c2 + c3 * tau)
        if order == 1:
            return 1.0 + tau * (2.0 * c2 + 3.0 * c3 * tau)
        return 2.0 * c2 + 6.0 * c3 * tau
    if kind == "quadratic":
        # q(sigma) = f1 + tau - tau^2/(4(1-f1)) until the peak, then 1
        denom = 4.0 * (1.0 - f1)
        before = sigma < knot
        if order == 0:
            return np.where(before, f1 + tau - tau * tau / denom, 1.0)
        if order == 1:
            return np.where(before, 1.0 - 2.0 * tau / denom, 0.0)
        return np.where(before, -2.0 / denom, 0.0)
    # linear then parabola: line f1 + tau until knot = 2 - 2 f1, then
    # 1 - (2 - sigma)^2/(4 f1); C1 because the line slope is 1 and the
    # parabola slope at the knot is (2 - knot)/(2 f1) = 1.
    before = sigma < knot
    rem = 2.0 - sigma
    if order == 0:
        return np.where(before, f1 + tau, 1.0 - rem * rem / (4.0 * f1))
    if order == 1:
        return np.where(before, 1.0, rem / (2.0 * f1))
    return np.where(before, 0.0, -1.0 / (2.0 * f1))


def _flux_piecewise(a: float, sigma, order: int):
    _check_a(a)
    sigma = np.asarray(sigma, dtype=float)
    scalar = sigma.ndim == 0
    sigma = np.atleast_1d(sigma)
    out = np.zeros_like(sigma)
    neg_log_a = -math.log(a)

    core = (sigma >= a) & (sigma < 1.0)
    filler = (sigma >= 1.0) & (sigma < 2.0)
    high = sigma >= 2.0

    if np.any(core):
        sc = sigma[core]
        if order == 0:
            out[core] = a * log_excess((sc - a) / a) / neg_log_a
        elif order == 1:
            out[core] = np.log(sc / a) / neg_log_a
        else:
            out[core] = 1.0 / (sc * neg_log_a)
    if np.any(filler):
        out[filler] = _filler_eval(a, sigma[filler], order)
    if np.any(high) and order == 0:
        out[high] = 1.0
    # below a everything is identically zero, all orders
    if scalar:
        return float(out[0])
    return out


def flux_value(a: float, sigma):
    """The C1 flux function: 0 below a, closed form on [a,1], concave filler, then 1.

    On [a,1] the numerator sigma log(sigma/a) - (sigma - a) is
    a * log_excess((sigma - a)/a): a sum of positive terms, so f >= 0 holds
    through roundoff and no digit cancels at sigma ~ a.
    """
    return _flux_piecewise(a, sigma, 0)


def flux_deriv(a: float, sigma):
    """First derivative of flux_value; log(sigma/a)/(-log a) on the core range."""
    return _flux_piecewise(a, sigma, 1)


def flux_second_deriv(a: float, sigma):
    """Second derivative, right-hand limit at the breakpoints.

    Classically undefined exactly at sigma = a and sigma = 1 (the one-sided
    values disagree there); this function always reports the limit from the
    right, so f''(a) = 1/(a(-log a)) and f''(1) is the filler's value.
    """
    return _flux_piecewise(a, sigma, 2)


@dataclass(frozen=True)
class CutoffSpec:
    """The triple (r0, R, gamma) with the derived cut-off geometry.

    Invariants enforced: r0 in (1/2, 1) so s0 = -log r0 <= log 2;
    R in (r0^{1/3}, 1) so S = -log R <= s0/3 and a = 2S/s0 <= 2/3;
    gamma in (0, 1/2) so the Q singularity (sigma-a)^{-2 gamma} is integrable.
    """

    r0: float
    R: float
    gamma: float
    s0: float = field(init=False)
    S: float = field(init=False)
    a: float = field(init=False)

    def __post_init__(self):
        if not (0.5 < self.r0 < 1.0):
            raise ValueError("r0 must lie in (1/2, 1)")
        if not (self.r0 ** (1.0 / 3.0) < self.R < 1.0):
            raise ValueError("R must lie in (r0^{1/3}, 1)")
        if not (0.0 < self.gamma < 0.5):
            raise ValueError("gamma must lie in (0, 1/2)")
        object.__setattr__(self, "s0", -math.log(self.r0))
        object.__setattr__(self, "S", -math.log(self.R))
        object.__setattr__(self, "a", 2.0 * self.S / self.s0)

    def value(self, s):
        """phi(s) = f(2s/s0) with a = 2S/s0."""
        return flux_value(self.a, 2.0 * np.asarray(s, dtype=float) / self.s0)

    def deriv(self, s):
        return (2.0 / self.s0) * flux_deriv(self.a, 2.0 * np.asarray(s, dtype=float) / self.s0)

    def second_deriv(self, s):
        return (2.0 / self.s0) ** 2 * flux_second_deriv(self.a, 2.0 * np.asarray(s, dtype=float) / self.s0)

    def knots_s(self) -> tuple:
        """Piecewise breakpoints in the s variable: (S, s0/2, filler knot, s0)."""
        return tuple(k * self.s0 / 2.0 for k in flux_knots(self.a))


@dataclass(frozen=True)
class QReport:
    """Q quadrature values, split parts, analytic bound and quadrature error."""

    Q: float
    Q1: float
    Q2: float
    analytic_bound: float
    quadrature_error: float
    split_applied: bool

    def __post_init__(self):
        if self.Q < 0.0 or self.Q1 < 0.0 or self.Q2 < 0.0:
            raise ValueError("Q integrals must be nonnegative")


# compute_Q splits the beta integral at e^2
_E2 = math.exp(2.0)

def _q_smooth(beta, gamma: float):
    """beta^{gamma-1} ((beta log beta - beta + 1)/(beta-1)^2)^{-gamma}: the
    integrand with its (beta-1)^{-2 gamma} endpoint factor divided out.

    The excess beta log beta - beta + 1 and beta - 1 both come from the
    series in u = log beta that log_excess sums, over one table of powers of
    u, so no digit cancels near beta = 1.  Their ratio tends to 1/2 at
    beta = 1, where the factor is 2^gamma.  Vectorized over beta.
    """
    u = np.log(beta)
    powers = _powers(u)
    excess = 0.5 + _EXCESS_SERIES @ powers  # (beta log beta - beta + 1)/u^2
    exprel = 1.0 + _EXPREL_SERIES @ powers  # (beta - 1)/u
    return np.exp((gamma - 1.0) * u) * (excess / (exprel * exprel)) ** -gamma


@lru_cache(maxsize=None)
def _jacobi_rule(gamma: float, n: int) -> tuple:
    """Nodes and weights of the n-point Gauss rule on [-1, 1] for the weight
    (1+t)^{-2 gamma}, by Golub and Welsch (Math. Comp. 23, 1969): the nodes
    are the eigenvalues of the Jacobi matrix of the monic Jacobi recurrence,
    and each weight is mu0 = int (1+t)^{-2 gamma} dt times the square of the
    first component of its unit eigenvector.  gamma = 0 gives the
    Gauss-Legendre rule, several times sooner than numpy's leggauss, which
    polishes its nodes in Python."""
    b = -2.0 * gamma
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (b + 1.0) / (b + 1.0) * vectors[0] ** 2


# n of the rule pairs (n, n + n/2) that _gauss tries in turn
_RULE_SIZES = (20, 40, 80, 160)


def _gauss(rule, f, tol: float) -> tuple:
    """(value, error) of sum_i w_i f(t_i) over the Gauss rules rule(n).

    The n- and (n + n/2)-point rules are sampled in one call of f.  The
    larger rule's sum is the value and its gap to the smaller one the error
    estimate.  The first n of _RULE_SIZES whose gap is within tol, absolute
    or relative, gives the result; if none does, ValueError.
    """
    for n in _RULE_SIZES:
        (t_lo, w_lo), (t_hi, w_hi) = rule(n), rule(n + n // 2)
        y = f(np.concatenate((t_lo, t_hi)))
        coarse, fine = w_lo @ y[:n], w_hi @ y[n:]
        err = abs(fine - coarse)
        if err <= tol * max(1.0, abs(fine)):
            return float(fine), float(err)
    raise ValueError(f"Gauss rules missed tolerance {tol:g}: "
                     f"gap {err:.3g} at {n + n // 2} points")


def _near_integral(gamma: float, b_hi: float, g, tol: float) -> tuple:
    """(value, error) of int_1^{b_hi} (beta-1)^{-2 gamma} g(beta) dbeta by
    Gauss-Jacobi rules in beta = 1 + h (1+t), h = (b_hi-1)/2, which carry
    the endpoint singularity in their weights."""
    h = 0.5 * (b_hi - 1.0)
    scale = h ** (1.0 - 2.0 * gamma)
    return _gauss(partial(_jacobi_rule, gamma), lambda t: scale * g(1.0 + h * (1.0 + t)), tol)


def _q_integral_beta(gamma: float, b_lo: float, b_hi: float, tol: float = 1e-12) -> tuple:
    """(value, error) of int_{b_lo}^{b_hi} beta^{gamma-1} (beta log beta - beta + 1)^{-gamma}.

    The integrand blows up like 2^gamma (beta-1)^{-2 gamma} at beta = 1, so
    from b_lo = 1 Gauss-Jacobi rules take that factor as their weight and
    sample only the bounded remainder _q_smooth.  From b_lo > 1 the range
    is mapped to u = log beta, where the integrand is the smooth
    (u - 1 + e^{-u})^{-gamma}, and Gauss-Legendre rules (_jacobi_rule at
    gamma = 0) sample it.  Callers start that range at (1 + e^2)/2 or
    above, where u - 1 + e^{-u} > 0.6 has no cancellation.  Every call
    integrates afresh; compute_Q reuses the near part through _q_near.
    """
    if b_hi <= b_lo:
        return 0.0, 0.0
    if b_lo == 1.0:
        return _near_integral(gamma, b_hi, lambda b: _q_smooth(b, gamma), tol)
    # half the range in u, without the cancellation of log(b_hi) - log(b_lo)
    lo, half = math.log(b_lo), 0.5 * math.log1p((b_hi - b_lo) / b_lo)

    def far(t):
        u = lo + half * (1.0 + t)
        return half * (u - 1.0 + np.exp(-u)) ** -gamma

    return _gauss(partial(_jacobi_rule, 0.0), far, tol)


@lru_cache(maxsize=None)
def _q_near(gamma: float, b_hi: float = _E2) -> tuple:
    """(value, error) of the near part int_1^{b_hi} of the beta integral,
    b_hi <= e^2: compute_Q's split point by default.

    It depends on gamma and b_hi alone, so a sweep over R integrates it once
    per gamma per process.
    """
    return _q_integral_beta(gamma, 1.0, b_hi)


def compute_Q(spec: CutoffSpec) -> QReport:
    """Q by Gauss rules with the substitution beta = sigma/a, to absolute and
    relative tolerance 1e-12 in each part's error estimate.

    In beta coordinates Q = (2/s0) (-log a)^{-1} int_1^{1/a} beta^{gamma-1}
    (beta log beta - beta + 1)^{-gamma} dbeta, which removes every power of a
    from the integrand.  When e^2 a < 1 the integral is split at beta = e^2
    into the near part Q2 (sigma of order a) and the far part Q1, mirroring
    the two-regime estimate; otherwise the single-range value is reported
    with Q1 = 0.  The near part does not involve a, so it comes from the
    per-process cache _q_near: integrated once per gamma.  Only the
    far part and the single-range integral are computed per call; the
    q-sweep cross-check of the split integrates on its own partition.
    """
    a, gamma = spec.a, spec.gamma
    prefactor = (2.0 / spec.s0) / (-math.log(a))
    b_max = 1.0 / a
    split = _E2 * a < 1.0
    if split:
        near, err_near = _q_near(gamma)
        far, err_far = _q_integral_beta(gamma, _E2, b_max)
        q2 = prefactor * near
        q1 = prefactor * far
        q = q1 + q2
        err = prefactor * (err_near + err_far)
    else:
        whole, err_whole = _q_integral_beta(gamma, 1.0, b_max)
        q = prefactor * whole
        q1, q2 = 0.0, q
        err = prefactor * err_whole
    return QReport(
        Q=q, Q1=q1, Q2=q2,
        analytic_bound=q_analytic_bound(spec),
        quadrature_error=err,
        split_applied=split,
    )


@lru_cache(maxsize=None)
def _i2(gamma: float) -> float:
    """int_1^{e^2} beta^gamma (beta-1)^{-2 gamma} dbeta, finite for gamma < 1/2."""
    return _near_integral(gamma, _E2, lambda b: b ** gamma, 1e-13)[0]


@lru_cache(maxsize=None)
def q_bound_constant(gamma: float) -> float:
    """The explicit constant C(gamma) in Q <= C(gamma)/(s0 (log s0 - log S)^gamma).

    Assembled from the two-regime chain:
      far range:   numerator bound sigma log(sigma/a) - (sigma-a) >= (sigma/2) log(sigma/a)
                   gives Q1 <= 2^{1+gamma}/(1-gamma) (-log a)^{-gamma}/s0;
      near range:  numerator bound >= (sigma-a)^2/(2 sigma) gives
                   Q2 <= 2^{1+gamma} I2(gamma) (-log a)^{-1}/s0
                   with I2 = int_1^{e^2} beta^gamma (beta-1)^{-2 gamma} dbeta;
      absorption:  (-log a)^{-1} <= (log 3/2)^{gamma-1} (-log a)^{-gamma}
                   since a <= 2/3;
      final:       -log a >= (1 - log2/log3)(log s0 - log S) since S <= s0/3.
    The single-range case (e^2 a >= 1) is dominated by the same expression.
    """
    if not (0.0 < gamma < 0.5):
        raise ValueError("gamma must lie in (0, 1/2)")
    i2 = _i2(gamma)
    bracket = i2 * math.log(1.5) ** (gamma - 1.0) + 1.0 / (1.0 - gamma)
    return 2.0 ** (1.0 + gamma) * (1.0 - math.log(2.0) / math.log(3.0)) ** (-gamma) * bracket


def q_analytic_bound(spec: CutoffSpec) -> float:
    """Upper bound C(gamma)/[s0 (log s0 - log S)^gamma] with the tracked constant."""
    depth = math.log(spec.s0) - math.log(spec.S)
    return q_bound_constant(spec.gamma) / (spec.s0 * depth ** spec.gamma)

