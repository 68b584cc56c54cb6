"""Two-sided Wiener paths and the stationary OU driver.

Paths live on a uniform two-sided grid that always contains t = 0 as a
node; a path is anchored there (w(0) = 0 in every mode) and is a pure
function of (seed, grid, covariance), so every downstream quantity is
reproducible bit for bit.

The stationary solution z of  dz + A z dt = dW  is generated per mode by
the damped recursion

    z(t+h) = e^{-lambda h} z(t) + (1 - e^{-lambda h})/(lambda h) * dW(t),

i.e. the stochastic convolution over a step is approximated with the same
increment the path stores, weighted by the averaged kernel; the price is
O(h) weak error in the one-step variance.  The table is solved once per
path.  The noise shift theta_t never re-samples or re-solves: it relabels
the grid of the stored table (``ModelProblem.ou_for``), so
z(theta_t omega)(s) = z(omega)(s + t) holds bit for bit.

Sampling and the OU solve each fill their one grid-sized array in place,
so set-up peaks near two grid arrays (the path and the table solved from
it), and a ModelProblem keeps the table alone.  The path is stored
row-major, as it is drawn; the OU table is stored mode-major (each mode's
column contiguous, like the histories the solvers iterate on) and is
read-only once solved.  Every reader takes its window as a view of that
one table (the backward and forward operators' OU windows, the
integrator's window and every shifted driver), so none copies it and none
can write to it.

The initial value at the left end of the grid is drawn from the
stationary law N(0, q/(2 lambda)); the burn-in transient decays like
e^{-lambda_1 (t - t_min)}, so analysis windows should stay at least
10/lambda_1 away from the left end of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RimlabError
from .spectral import Spectrum, _filter_modes

__all__ = [
    "whole_steps",
    "TimeGrid",
    "CovarianceSpec",
    "WienerPath",
    "OUProcess",
    "sample_wiener",
    "solve_ou",
]


def whole_steps(t: float, h: float) -> int:
    """Steps h covering the span t: ceil(t / h - 1e-9), so a whole number of
    steps up to rounding (4.001 / 0.001 = 4001.0000000000005) gains none."""
    return int(math.ceil(t / h - 1e-9))


def _grid_index(t: float, h: float) -> int:
    """Index i of the node i*h at t; raises if t is not a multiple of h."""
    x = t / h
    i = int(round(x))
    if abs(x - i) > 1e-6 * max(1.0, abs(x)):
        raise RimlabError(f"t={t} is not a multiple of h={h}")
    return i


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid i*h for integer i in [i_min, i_max], with i_min < 0 < i_max."""

    h: float
    i_min: int
    i_max: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise RimlabError("grid step must be positive")
        if not (self.i_min < 0 < self.i_max):
            raise RimlabError("grid must contain 0 strictly inside its span")

    @classmethod
    def from_times(cls, t_min: float, t_max: float, h: float) -> "TimeGrid":
        if h <= 0.0:
            raise RimlabError("grid step must be positive")
        return cls(h, -whole_steps(-t_min, h), whole_steps(t_max, h))

    @property
    def t_min(self) -> float:
        return self.i_min * self.h

    @property
    def t_max(self) -> float:
        return self.i_max * self.h

    @property
    def n_nodes(self) -> int:
        return self.i_max - self.i_min + 1

    def index(self, t: float) -> int:
        """Grid index of t; raises if t is off-grid or outside the span."""
        i = _grid_index(t, self.h)
        if not (self.i_min <= i <= self.i_max):
            raise RimlabError(f"t={t} outside stored support [{self.t_min}, {self.t_max}]")
        return i

    def offset(self, t: float) -> int:
        """Array offset (0-based from the left end) of the node at t."""
        return self.index(t) - self.i_min


@dataclass(frozen=True)
class CovarianceSpec:
    """Per-mode variances q_j of the trace-class noise covariance."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 1:
            raise RimlabError("covariance must be a 1-D per-mode vector")
        if np.any(q < 0.0) or not np.all(np.isfinite(q)):
            raise RimlabError("per-mode variances must be finite and >= 0")

    @classmethod
    def zero(cls, n_modes: int) -> "CovarianceSpec":
        return cls(np.zeros(n_modes))

    @classmethod
    def power_law(cls, n_modes: int, scale: float, exponent: float) -> "CovarianceSpec":
        j = np.arange(1, n_modes + 1, dtype=float)
        # an overflow (or 0 * inf) gives a non-finite variance, which is refused
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(scale * j ** (-exponent))


@dataclass(frozen=True)
class WienerPath:
    """Sampled two-sided Wiener path; values[k] holds the node i_min + k."""

    grid: TimeGrid
    cov: CovarianceSpec
    values: np.ndarray
    seed: int

    @property
    def n_modes(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class OUProcess:
    """Stationary OU driver z; values[k] holds the node grid.i_min + k, and
    ``seed`` is the seed of the path it was solved from."""

    grid: TimeGrid
    values: np.ndarray
    seed: int

    def at(self, t: float) -> np.ndarray:
        return self.values[self.grid.offset(t)]


def sample_wiener(seed: int, grid: TimeGrid, cov: CovarianceSpec) -> WienerPath:
    """Sample a path with independent N(0, q_j h) increments, anchored at 0.

    Increments are drawn once for every grid cell and cumulatively summed
    outward from t = 0 in both directions, so w(0) is exactly zero; each
    increment is drawn onto the node its outward sum ends at and summed in
    place.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    std = np.sqrt(cov.q * grid.h)
    values = np.empty((grid.n_nodes, cov.q.size))
    k0 = -grid.i_min  # array offset of the node t = 0, with 0 < k0 < n_nodes - 1
    # the cells left of t = 0, then those right of it: one stream in cell order
    past, future = values[:k0], values[k0 + 1 :]
    for part in (past, future):
        rng.standard_normal(out=part)
        part *= std
    values[k0] = 0.0
    np.cumsum(future, axis=0, out=future)
    np.cumsum(past[::-1], axis=0, out=past[::-1])
    np.negative(past, out=past)
    return WienerPath(grid=grid, cov=cov, values=values, seed=int(seed))


def solve_ou(w: WienerPath, s: Spectrum) -> OUProcess:
    """Generate the stationary OU driver along the stored path.

    Per mode, z obeys the exact damped recursion with the convolution
    increment described in the module docstring; the value at the left grid
    end is drawn (seeded) from the stationary law N(0, q/(2 lambda)).  The
    increments are scaled and filtered in the table itself, which is
    mode-major, so the filter scans contiguous columns; the filter starts
    from the initial value, whose decay is its zero-input response.  The
    table returned is read-only.
    """
    if np.any(s.lambdas <= 0.0):
        raise RimlabError("OU driver requires strictly positive rates")
    if w.n_modes != s.size:
        raise RimlabError(f"path has {w.n_modes} modes, spectrum has {s.size}")
    h = w.grid.h
    lam = s.lambdas
    q = w.cov.q
    damp = np.exp(-lam * h)
    rng0 = np.random.default_rng(np.random.SeedSequence([int(w.seed), 1]))
    z0 = rng0.standard_normal(s.size) * np.sqrt(q / (2.0 * lam))

    values = np.empty(w.values.shape, order="F")  # mode-major: contiguous columns
    values[0] = z0
    u = values[1:]
    np.subtract(w.values[1:], w.values[:-1], out=u)  # the increments dW
    u *= -np.expm1(-lam * h) / (lam * h)
    _filter_modes(u, damp, z0, out=u)
    values.flags.writeable = False
    return OUProcess(grid=w.grid, values=values, seed=w.seed)
