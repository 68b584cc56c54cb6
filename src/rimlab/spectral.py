"""Diagonal spectral calculus for a positive self-adjoint operator.

Everything acts in the eigenbasis of the linear operator A: a state is a
coefficient vector, A and its functions are diagonal, and the fractional
norms are weighted coefficient norms,

    ||v||          = (sum_j v_j^2)^(1/2)
    ||v||_alpha    = (sum_j lambda_j^(2*alpha) v_j^2)^(1/2)

There is deliberately no generic matrix path: per-mode evaluation makes the
projection and smoothing estimates exact up to roundoff, so they can serve
as test oracles rather than quadrature-limited approximations.

Time histories are (nodes, modes) arrays.  Every time-stepping recursion in
the package is the per-mode first-order filter ``_filter_modes`` run down
the node axis, so the histories the fixed-point operators iterate on are
stored mode-major (``_mode_major``): each mode's column is contiguous.
``_node_norms`` reads that layout column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SpectrumError

__all__ = [
    "Spectrum",
    "dirichlet_laplacian",
    "frac_power",
    "apply_semigroup",
    "norm_alpha",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of A (positive, nondecreasing) and the fractional exponent.

    ``alpha`` must lie in [0, 1/2); it controls the domain space D(A^alpha)
    in which graphs and defects are measured.
    """

    lambdas: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lams)
        if lams.ndim != 1 or lams.size < 2:
            raise SpectrumError("need a 1-D list of at least two eigenvalues")
        if not np.all(np.isfinite(lams)) or lams[0] <= 0.0:
            raise SpectrumError("eigenvalues must be finite and positive")
        if np.any(np.diff(lams) < 0.0):
            raise SpectrumError("eigenvalues must be nondecreasing")
        if not (0.0 <= self.alpha < 0.5):
            raise SpectrumError(f"alpha={self.alpha} outside [0, 1/2)")

    @property
    def size(self) -> int:
        return int(self.lambdas.size)

    def weights_alpha(self, alpha: float | None = None) -> np.ndarray:
        """Per-mode weights lambda_j^alpha."""
        a = self.alpha if alpha is None else alpha
        if a == 0.0:
            return np.ones_like(self.lambdas)
        return self.lambdas**a

    def check_state(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.size:
            raise DimensionMismatchError(
                f"state has {v.shape[-1]} modes, spectrum has {self.size}"
            )
        return v


def dirichlet_laplacian(n_total: int, alpha: float = 0.0) -> Spectrum:
    """Spectrum lambda_j = j^2 of the 1-D Dirichlet Laplacian on (0, pi)."""
    if n_total < 2:
        raise SpectrumError("need at least two modes")
    j = np.arange(1, n_total + 1, dtype=float)
    return Spectrum(j**2, alpha)


def frac_power(alpha: float, v: np.ndarray, s: Spectrum) -> np.ndarray:
    """Apply A^alpha diagonally: component j becomes lambda_j^alpha * v_j."""
    if alpha < 0.0:
        raise DomainError("fractional power requires alpha >= 0")
    v = s.check_state(v)
    return v * s.weights_alpha(alpha)


def apply_semigroup(
    t: float,
    v: np.ndarray,
    s: Spectrum,
    n: int | None = None,
    part: str = "full",
) -> np.ndarray:
    """Apply e^{-At} to the selected spectral block of v.

    ``part`` is one of "P" (the first n modes), "Q" (the rest) or "full",
    which ignores n.  On the finite-dimensional P-block the flow is
    invertible, so any real t is accepted there; the Q and full flows are
    only defined forward in time.
    """
    v = s.check_state(v)
    if part not in ("P", "Q", "full"):
        raise DomainError(f"unknown part {part!r}")
    if part in ("Q", "full") and t < 0.0:
        raise DomainError("backward flow is only defined on the P block")
    if part == "full":
        return v * np.exp(-s.lambdas * t)
    if n is None:
        raise DomainError("P/Q application needs the resolved-mode count n")
    if n < 1:
        raise DomainError("resolved-mode count must be at least 1")
    if n >= s.size:
        raise DimensionMismatchError(f"split n={n} needs n < {s.size} total modes")
    block = slice(None, n) if part == "P" else slice(n, None)
    out = np.zeros_like(v)
    out[..., block] = v[..., block] * np.exp(-s.lambdas[block] * t)
    return out


def norm_alpha(v: np.ndarray, s: Spectrum, alpha: float | None = None) -> float:
    """Weighted norm ||A^alpha v|| realising the D(A^alpha) norm."""
    v = s.check_state(v)
    return float(np.linalg.norm(v * s.weights_alpha(alpha), axis=-1))


def _mode_major(a: np.ndarray) -> np.ndarray:
    """The (nodes, modes) array ``a`` stored with each mode's column contiguous."""
    return np.asfortranarray(a)


def _filter_modes(u, a, b=1.0, reverse=False, out=None) -> np.ndarray:
    """Per-mode first-order recurrence down the node axis of a (nodes, modes) array.

    Column j obeys y_k = a_j y_{k-1} + b_j u_k from y_{-1} = 0, or, with
    ``reverse``, y_k = a_j y_{k+1} + b_j u_k from the last node backwards;
    ``a`` and ``b`` are per-mode arrays or scalars.  The result goes to
    ``out`` when given, else to a new mode-major array.  Columns are
    filtered one at a time, which is fastest when they are contiguous.
    """
    # Imported here, not at module level: loading scipy.signal costs about
    # 1.3 s, and commands that never step time (gap-scan, report) never
    # reach this function.
    from scipy.signal import lfilter

    n_modes = u.shape[1]
    a = np.broadcast_to(np.asarray(a, dtype=float), (n_modes,))
    b = np.broadcast_to(np.asarray(b, dtype=float), (n_modes,))
    if out is None:
        out = np.empty(u.shape, order="F")
    step = -1 if reverse else 1
    for j in range(n_modes):
        out[::step, j] = lfilter([b[j]], [1.0, -a[j]], u[::step, j])
    return out


def _node_norms(values: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Per-node weighted norms ||wts * values[k]|| of a (nodes, modes) array.

    The squares are summed column by column in the order of numpy's
    pairwise row sum, so the result equals
    ``np.linalg.norm(values * wts, axis=-1)`` bit for bit while reading
    mode-major storage contiguously.
    """
    w = values * wts
    np.multiply(w, w, out=w)
    return np.sqrt(_pairwise_columns(w))


def _pairwise_columns(sq: np.ndarray) -> np.ndarray:
    """Row sums of ``sq`` in numpy's pairwise order (blocks of 8 up to 128)."""
    n = sq.shape[1]
    if n < 8:
        total = np.zeros(sq.shape[0])
        for j in range(n):
            total += sq[:, j]
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_columns(sq[:, :half]) + _pairwise_columns(sq[:, half:])
    stop = n - n % 8
    acc = sq[:, :8] + sq[:, 8:16] if stop >= 16 else sq[:, :8].copy()
    for i in range(16, stop, 8):
        acc += sq[:, i : i + 8]
    total = ((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])) + (
        (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
    )
    for j in range(stop, n):
        total += sq[:, j]
    return total
