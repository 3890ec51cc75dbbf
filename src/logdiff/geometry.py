"""Log-polar coordinates, model conformal factors, curvature, and area functionals.

Radially symmetric conformal metrics on the punctured unit disc are written
g = U(s) (ds^2 + dth^2) in logarithmic polar coordinates s = -log r, so the
disc boundary sits at s -> 0+ and the center at s -> infinity.  Everything in
this module is a pure function of node values; angular integrals carry an
explicit 2*pi because all states are rotationally symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LogPolarGrid",
    "ConformalState",
    "BigBang",
    "Cusp",
    "FlatDisc",
    "s_from_r",
    "hyperbolic_factor",
    "model_factor",
    "gauss_curvature",
    "annulus_area",
    "disc_area",
    "model_state",
]


def s_from_r(r):
    """Map radius r in (0,1] to the cylinder coordinate s = -log r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise ValueError("radius must lie in (0,1]")
    out = -np.log(r)
    return float(out) if out.ndim == 0 else out


def hyperbolic_factor(s):
    """Conformal factor 1/sinh^2(s) of the complete hyperbolic metric on the disc."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("s must be positive")
    out = 1.0 / np.sinh(s) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LogPolarGrid:
    """Strictly increasing nodes s_0 < s_1 < ... < s_{N-1}, all positive."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)) or nodes[0] <= 0.0:
            raise ValueError("nodes must be finite and positive")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def s_min(self) -> float:
        return float(self.nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def uniform(cls, s_min: float, s_max: float, n: int) -> "LogPolarGrid":
        return cls(np.linspace(s_min, s_max, n))

    @classmethod
    def graded(cls, s_min: float, s_max: float, n: int, ratio: float = 1.05) -> "LogPolarGrid":
        """Geometrically growing spacing away from s_min.

        The boundary layer of the flow lives near s_min where U ~ 2t/s^2 is
        steepest, so cells cluster there.  ratio == 1 recovers a uniform grid.
        """
        if not (s_min > 0.0 and s_max > s_min and n >= 3):
            raise ValueError("need 0 < s_min < s_max and n >= 3")
        if ratio <= 0.0:
            raise ValueError("ratio must be positive")
        if abs(ratio - 1.0) < 1e-12:
            return cls.uniform(s_min, s_max, n)
        # a ratio too steep for n overflows to nodes that are not finite,
        # which the constructor refuses
        with np.errstate(over="ignore", invalid="ignore"):
            steps = ratio ** np.arange(n - 1)
            pos = np.concatenate([[0.0], np.cumsum(steps)])
            pos *= (s_max - s_min) / pos[-1]
        return cls(s_min + pos)

    def refine(self) -> "LogPolarGrid":
        """Insert every cell midpoint: N nodes -> 2N-1, original nodes kept exactly."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        out = np.empty(2 * self.n - 1)
        out[0::2] = self.nodes
        out[1::2] = mids
        return LogPolarGrid(out)

    def restrict(self, s_from: float) -> "LogPolarGrid":
        """Subgrid of nodes with s >= s_from - 1e-12 (node values preserved)."""
        j = int(np.searchsorted(self.nodes, s_from - 1e-12))
        if self.n - j < 3:
            raise ValueError("restriction leaves fewer than 3 nodes")
        return LogPolarGrid(self.nodes[j:].copy())

    def index_of(self, other: "LogPolarGrid") -> np.ndarray:
        """Positions of other's nodes inside self (exact match required)."""
        idx = np.searchsorted(self.nodes, other.nodes)
        if np.any(idx >= self.n) or not np.allclose(self.nodes[idx], other.nodes, rtol=0, atol=1e-13):
            raise ValueError("grids do not share nodes")
        return idx


@dataclass(frozen=True)
class ConformalState:
    """Conformal factor samples U_i > 0 on a grid at a fixed flow time t >= 0."""

    grid: LogPolarGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError("values shape must match grid")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("conformal factor must be positive and finite")
        if not (np.isfinite(self.time) and self.time >= 0.0):
            raise ValueError("time must be nonnegative and finite")
        object.__setattr__(self, "values", values)

    @property
    def log_values(self) -> np.ndarray:
        return np.log(self.values)


class _Model:
    time_dependent = True


class BigBang(_Model):
    """U(s,t) = 2t/sinh^2 s: the hyperbolic metric expanding from zero area.

    Exact solution of dU/dt = (log U)'' and the universal lower barrier for
    instantaneously complete flows.
    """

    name = "bigbang"

    @staticmethod
    def factor(s, t):
        return 2.0 * t * hyperbolic_factor(s)


class Cusp(_Model):
    """U(s,t) = 2t/s^2: expanding hyperbolic cusp, comparison geometry at the rim."""

    name = "cusp"

    @staticmethod
    def factor(s, t):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0.0):
            raise ValueError("s must be positive")
        out = 2.0 * t / s**2
        return float(out) if out.ndim == 0 else out


class FlatDisc(_Model):
    """U(s) = e^{-2s}: the incomplete flat metric, a static fixed point of the flow."""

    name = "flatdisc"
    time_dependent = False

    @staticmethod
    def factor(s, t=None):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0.0):
            raise ValueError("s must be positive")
        out = np.exp(-2.0 * s)
        return float(out) if out.ndim == 0 else out


def model_factor(model, s, t=0.0):
    """Evaluate the conformal factor of a model class."""
    if model.time_dependent and t < 0.0:
        raise ValueError("time must be nonnegative")
    return model.factor(s, t)


def model_state(model, grid: LogPolarGrid, t: float = 0.0) -> ConformalState:
    """Sample a model solution on a grid as a ConformalState."""
    return ConformalState(grid, model_factor(model, grid.nodes, t), t)


def _d2_coeffs(s: np.ndarray):
    # second-difference weights on a nonuniform grid, one row per interior node
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    cl = 2.0 / (hm * (hm + hp))
    cc = -2.0 / (hm * hp)
    cr = 2.0 / (hp * (hm + hp))
    return cl, cc, cr


def gauss_curvature(state: ConformalState) -> np.ndarray:
    """K = -(log U)''/(2U) at interior nodes; endpoints carry no stencil and are excluded."""
    cl, cc, cr = _d2_coeffs(state.grid.nodes)
    w = state.log_values
    return -(cl * w[:-2] + cc * w[1:-1] + cr * w[2:]) / (2.0 * state.values[1:-1])


def _trapezoid_between(s: np.ndarray, u: np.ndarray, s_lo: float, s_hi: float) -> float:
    # Composite trapezoid of node data over [s_lo, s_hi], with linear
    # interpolation at the two cut points.  States are only known at nodes,
    # so higher-order quadrature would manufacture accuracy.
    if s_hi < s_lo:
        raise ValueError("empty interval reversed")
    if s_lo < s[0] - 1e-12 or s_hi > s[-1] + 1e-12:
        raise ValueError("interval outside grid")
    if s_hi == s_lo:
        return 0.0
    u_lo = float(np.interp(s_lo, s, u))
    u_hi = float(np.interp(s_hi, s, u))
    inside = (s > s_lo) & (s < s_hi)
    xs = np.concatenate([[s_lo], s[inside], [s_hi]])
    us = np.concatenate([[u_lo], u[inside], [u_hi]])
    return float(np.trapezoid(us, xs))


def annulus_area(state: ConformalState, s_lo: float, s_hi: float) -> float:
    """Area 2*pi int_{s_lo}^{s_hi} U ds of the annulus {s_lo <= s <= s_hi}."""
    return 2.0 * math.pi * _trapezoid_between(state.grid.nodes, state.values, s_lo, s_hi)


def _area_beyond(s: np.ndarray, u: np.ndarray, s_lo: float) -> float:
    # 2 pi int u ds over {s >= s_lo}.  Beyond s_max the smooth-center profile
    # u ~ u(s_max) e^{-2(s - s_max)} is assumed, whose 2 pi int is pi u(s_max):
    # exact for FlatDisc, error O(e^{-4 s_max}) for models with a smooth center.
    return 2.0 * math.pi * _trapezoid_between(s, u, s_lo, float(s[-1])) + math.pi * float(u[-1])


def disc_area(state: ConformalState, r0: float) -> float:
    """Area of the centered disc D_{r0}, i.e. {s >= -log r0}, tail included."""
    s0 = s_from_r(r0)
    if s0 < state.grid.s_min - 1e-12:
        raise ValueError("disc boundary falls outside the grid")
    return _area_beyond(state.grid.nodes, state.values, max(s0, state.grid.s_min))
