"""Two-sided Wiener paths, the shift group, and the stationary OU driver.

Paths live on a uniform two-sided grid that always contains t = 0 as a
node; a path is anchored there (w(0) = 0 in every mode) and is a pure
function of (seed, grid, covariance), so every downstream quantity is
reproducible bit for bit.  The shift group acts by integer index shifts,
never by re-sampling noise.

The stationary solution z of  dz + A z dt = dW  is generated per mode by
the damped recursion

    z(t+h) = e^{-lambda h} z(t) + (1 - e^{-lambda h})/(lambda h) * dW(t),

i.e. the stochastic convolution over a step is approximated with the same
increment the path stores, weighted by the averaged kernel.  That keeps z
a deterministic functional of the stored path, so index-shifting the path
shifts z exactly; the price is O(h) weak error in the one-step variance.
Passing ``exact_variance=True`` instead samples the exactly distributed
conditional convolution, which restores the one-step law but breaks the
path-functoriality (fresh Gaussians are consumed per step).

The initial value at the left end of the grid is drawn from the
stationary law N(0, q/(2 lambda)); the burn-in transient decays like
e^{-lambda_1 (t - t_min)}, so analysis windows should stay at least
10/lambda_1 away from the left end of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    GridAlignmentError,
    SpectrumError,
    SupportRangeError,
    ValidationError,
)
from .spectral import Spectrum, _filter_modes

__all__ = [
    "TimeGrid",
    "CovarianceSpec",
    "WienerPath",
    "OUProcess",
    "sample_wiener",
    "shift_path",
    "coarsen_path",
    "solve_ou",
    "temperedness_ratio",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid i*h for integer i in [i_min, i_max], with i_min < 0 < i_max."""

    h: float
    i_min: int
    i_max: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise DomainError("grid step must be positive")
        if not (self.i_min < 0 < self.i_max):
            raise DomainError("grid must contain 0 strictly inside its span")

    @classmethod
    def from_times(cls, t_min: float, t_max: float, h: float) -> "TimeGrid":
        if h <= 0.0:
            raise DomainError("grid step must be positive")
        i_min = int(np.floor(t_min / h + 1e-9))
        i_max = int(np.ceil(t_max / h - 1e-9))
        return cls(h, i_min, i_max)

    @property
    def t_min(self) -> float:
        return self.i_min * self.h

    @property
    def t_max(self) -> float:
        return self.i_max * self.h

    @property
    def n_nodes(self) -> int:
        return self.i_max - self.i_min + 1

    def times(self) -> np.ndarray:
        return np.arange(self.i_min, self.i_max + 1) * self.h

    def index(self, t: float) -> int:
        """Grid index of t; raises if t is off-grid or outside the span."""
        x = t / self.h
        i = int(round(x))
        if abs(x - i) > 1e-6 * max(1.0, abs(x)):
            raise GridAlignmentError(f"t={t} is not a multiple of h={self.h}")
        if not (self.i_min <= i <= self.i_max):
            raise SupportRangeError(
                f"t={t} outside stored support [{self.t_min}, {self.t_max}]"
            )
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
            raise ValidationError("covariance must be a 1-D per-mode vector")
        if np.any(q < 0.0) or not np.all(np.isfinite(q)):
            raise ValidationError("per-mode variances must be finite and >= 0")

    @classmethod
    def zero(cls, n_modes: int) -> "CovarianceSpec":
        return cls(np.zeros(n_modes))

    @classmethod
    def power_law(cls, n_modes: int, scale: float, exponent: float) -> "CovarianceSpec":
        j = np.arange(1, n_modes + 1, dtype=float)
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

    def at(self, t: float) -> np.ndarray:
        return self.values[self.grid.offset(t)]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def to_csv(self, path) -> None:
        _write_series_csv(path, self.grid.times(), self.values)


@dataclass(frozen=True)
class OUProcess:
    """Stationary OU driver z sampled on the same grid as its path."""

    grid: TimeGrid
    spectrum: Spectrum
    values: np.ndarray

    def at(self, t: float) -> np.ndarray:
        return self.values[self.grid.offset(t)]

    def to_csv(self, path) -> None:
        _write_series_csv(path, self.grid.times(), self.values)


def sample_wiener(seed: int, grid: TimeGrid, cov: CovarianceSpec) -> WienerPath:
    """Sample a path with independent N(0, q_j h) increments, anchored at 0.

    Increments are drawn once for every grid cell and cumulatively summed
    outward from t = 0 in both directions, so w(0) is exactly zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    n_cells = grid.n_nodes - 1
    n_modes = cov.q.size
    std = np.sqrt(cov.q * grid.h)
    inc = rng.standard_normal((n_cells, n_modes)) * std
    values = np.zeros((grid.n_nodes, n_modes))
    k0 = -grid.i_min  # array offset of the node t = 0
    if k0 < n_cells:
        values[k0 + 1 :] = np.cumsum(inc[k0:], axis=0)
    if k0 > 0:
        values[:k0] = -np.cumsum(inc[:k0][::-1], axis=0)[::-1]
    return WienerPath(grid=grid, cov=cov, values=values, seed=int(seed))


def shift_path(w: WienerPath, t_k: float) -> WienerPath:
    """Shift-group action: returns p with p(s) = w(s + t_k) - w(t_k).

    The shift is a pure index shift of the stored nodes; t_k must be a grid
    multiple and the translated grid must still contain 0 strictly inside.
    """
    x = t_k / w.grid.h
    k = int(round(x))
    if abs(x - k) > 1e-6 * max(1.0, abs(x)):
        raise GridAlignmentError(f"shift {t_k} is not a multiple of h={w.grid.h}")
    i_min = w.grid.i_min - k
    i_max = w.grid.i_max - k
    if not (i_min < 0 < i_max):
        raise SupportRangeError(
            f"shift by {t_k} pushes the anchor outside the stored support"
        )
    if not (w.grid.i_min <= k <= w.grid.i_max):
        raise SupportRangeError(f"shift time {t_k} is outside the stored support")
    anchor = w.values[k - w.grid.i_min]
    return WienerPath(
        grid=TimeGrid(w.grid.h, i_min, i_max),
        cov=w.cov,
        values=w.values - anchor,
        seed=w.seed,
    )


def coarsen_path(w: WienerPath, factor: int) -> WienerPath:
    """Restrict the path to every ``factor``-th node (exact at common nodes)."""
    if factor < 1:
        raise DomainError("coarsening factor must be >= 1")
    if w.grid.i_min % factor or w.grid.i_max % factor:
        raise GridAlignmentError("grid endpoints must be divisible by the factor")
    return WienerPath(
        grid=TimeGrid(w.grid.h * factor, w.grid.i_min // factor, w.grid.i_max // factor),
        cov=w.cov,
        values=w.values[::factor].copy(),
        seed=w.seed,
    )


def solve_ou(w: WienerPath, s: Spectrum, exact_variance: bool = False) -> OUProcess:
    """Generate the stationary OU driver along the stored path.

    Per mode, z obeys the exact damped recursion with the convolution
    increment described in the module docstring; the value at the left grid
    end is drawn (seeded) from the stationary law N(0, q/(2 lambda)).
    """
    if np.any(s.lambdas <= 0.0):
        raise SpectrumError("OU driver requires strictly positive rates")
    if w.n_modes != s.size:
        raise DimensionMismatchError(
            f"path has {w.n_modes} modes, spectrum has {s.size}"
        )
    h = w.grid.h
    lam = s.lambdas
    q = w.cov.q
    damp = np.exp(-lam * h)
    rng0 = np.random.default_rng(np.random.SeedSequence([int(w.seed), 1]))
    z0 = rng0.standard_normal(s.size) * np.sqrt(q / (2.0 * lam))

    dw = w.increments()
    if not exact_variance:
        u = dw * (-np.expm1(-lam * h) / (lam * h))
    else:
        # Conditional law of the convolution given the stored increment.
        cov_iw = q * (-np.expm1(-lam * h)) / lam
        var_i = q * (-np.expm1(-2.0 * lam * h)) / (2.0 * lam)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = np.where(q > 0.0, cov_iw / (q * h), 0.0)
            resid = np.sqrt(np.maximum(var_i - slope * cov_iw, 0.0))
        rng1 = np.random.default_rng(np.random.SeedSequence([int(w.seed), 2]))
        u = dw * slope + rng1.standard_normal(dw.shape) * resid

    n_cells = dw.shape[0]
    values = np.empty_like(w.values)
    values[0] = z0
    if n_cells:
        homog = np.exp(-lam * np.arange(1, n_cells + 1)[:, None] * h) * z0
        values[1:] = homog + _filter_modes(u, damp)
    return OUProcess(grid=w.grid, spectrum=s, values=values)


def temperedness_ratio(z: OUProcess, c: float, alpha: float | None = None) -> float:
    """Diagnostic sup over grid t <= 0 of e^{c t} ||A^alpha z(t)||."""
    if c <= 0.0:
        raise DomainError("temperedness rate must be positive")
    k0 = -z.grid.i_min
    t = z.grid.times()[: k0 + 1]
    wts = z.spectrum.weights_alpha(alpha)
    norms = np.linalg.norm(z.values[: k0 + 1] * wts, axis=1)
    return float(np.max(np.exp(c * t) * norms))


def _write_series_csv(path, times: np.ndarray, values: np.ndarray) -> None:
    n_modes = values.shape[1]
    header = "t," + ",".join(f"mode_{j + 1}" for j in range(n_modes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t, row in zip(times, values):
            fh.write(
                repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n"
            )
