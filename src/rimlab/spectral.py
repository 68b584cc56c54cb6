"""Diagonal spectral calculus for a positive self-adjoint operator.

Everything acts in the eigenbasis of the linear operator A: a state is a
coefficient vector, A and its functions are diagonal, and the fractional
norms are weighted coefficient norms,

    ||v||          = (sum_j v_j^2)^(1/2)
    ||v||_alpha    = (sum_j lambda_j^(2*alpha) v_j^2)^(1/2)

There is deliberately no generic matrix path.  The semigroup e^{-At} exists
only as per-mode arrays the solvers build from the eigenvalues (the
one-step factors and the backward P flow in ``LPContext``) and as the
zero-input response of the filter below, so the projection and smoothing
estimates hold for them exactly up to roundoff and are asserted on them as
test oracles.

Time histories are (nodes, modes) arrays.  Every time-stepping recursion in
the package is the per-mode first-order filter ``_filter_modes`` run down
the node axis from a start state, so each homogeneous decay e^{-At} y (the
OU driver's initial value, the linear flow, the forward operator's Q seed)
is the filter's response to a zero input.  The histories the fixed-point
operators iterate on are stored mode-major (``_mode_major``): each mode's
column is contiguous.  The OU table is solved in that layout too, so the
solvers' OU windows are views of it.  ``_node_norms``, the package's one
norm, reads that layout column by column and allocates one column at a
time.  The filter is the one place that keeps subnormal floats out: it
writes exact zeros where a decaying column's input has ended and its state
has fallen below the smallest normal float (``_flush_tail``), so later
sweeps do not compute with subnormals.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import RimlabError

__all__ = ["Spectrum", "dirichlet_laplacian", "norm_alpha"]


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
            raise RimlabError("need a 1-D list of at least two eigenvalues")
        if not np.all(np.isfinite(lams)) or lams[0] <= 0.0:
            raise RimlabError("eigenvalues must be finite and positive")
        if np.any(np.diff(lams) < 0.0):
            raise RimlabError("eigenvalues must be nondecreasing")
        if not (0.0 <= self.alpha < 0.5):
            raise RimlabError(f"alpha={self.alpha} outside [0, 1/2)")

    @property
    def size(self) -> int:
        return int(self.lambdas.size)

    def weights_alpha(self) -> np.ndarray:
        """Per-mode weights lambda_j^alpha (exactly 1 at alpha = 0)."""
        return self.lambdas**self.alpha

    def check_state(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.size:
            raise RimlabError(f"state has {v.shape[-1]} modes, spectrum has {self.size}")
        return v


def dirichlet_laplacian(n_total: int, alpha: float = 0.0) -> Spectrum:
    """Spectrum lambda_j = j^2 of the 1-D Dirichlet Laplacian on (0, pi)."""
    if n_total < 2:
        raise RimlabError("need at least two modes")
    j = np.arange(1, n_total + 1, dtype=float)
    return Spectrum(j**2, alpha)


def norm_alpha(v: np.ndarray, s: Spectrum) -> float | np.ndarray:
    """D(A^alpha) norm ||A^alpha v|| of each state along the last axis of v."""
    return _node_norms(s.check_state(v), s.weights_alpha())


def _mode_major(a: np.ndarray) -> np.ndarray:
    """The (nodes, modes) array ``a`` stored with each mode's column contiguous."""
    return np.asfortranarray(a)


def _filter_modes(u, a, start, b=1.0, reverse=False, out=None) -> np.ndarray:
    """Per-mode first-order recurrence down the node axis of a (nodes, modes) array.

    Column j obeys y_k = a_j y_{k-1} + b_j u_k from y_{-1} = start_j, or,
    with ``reverse``, y_k = a_j y_{k+1} + b_j u_k from the state start_j
    after the last node; ``a``, ``start`` and ``b`` are per-mode arrays or
    scalars.  So the response to a zero input is the homogeneous decay
    y_k = a_j^(k+1) start_j, and the response to ``u`` from a zero start is
    its Duhamel sum.  ``start`` enters ``lfilter`` as its state
    zi = a_j start_j.  The result goes to ``out`` when given, else to a new
    mode-major array.  Columns are filtered one at a time, which is fastest
    when they are contiguous.

    A decaying column (|a_j| < 1) whose input ends in zeros is flushed to
    exact zeros once its state falls below the smallest normal float
    (``np.finfo(float).tiny``).  Left alone, the zero-input recursion
    stalls at a subnormal of a few ulps for a > 1/2: once (1 - a) y is
    under half an ulp, a y rounds back up to y.  Subnormal arithmetic is
    several times slower, in this filter and in everything that later
    reads the column.  Every entry at least ``tiny`` in magnitude is
    bit-identical to the plain recursion.
    """
    # Imported here, not at module level: loading scipy.signal costs about
    # 0.8 s, and commands that never step time (gap-scan, report) never
    # reach this function.
    from scipy.signal import lfilter

    n_modes = u.shape[1]
    a = np.broadcast_to(np.asarray(a, dtype=float), (n_modes,))
    b = np.broadcast_to(np.asarray(b, dtype=float), (n_modes,))
    zi = a * start  # lfilter's state before the first node, per mode
    if out is None:
        out = np.empty(u.shape, order="F")
    step = -1 if reverse else 1
    tiny = np.finfo(float).tiny
    for j in range(n_modes):
        col, dst, coeffs = u[::step, j], out[::step, j], ([b[j]], [1.0, -a[j]])
        # ``stop`` is one past the last nonzero input.  A column that ends in
        # a nonzero input or does not decay is filtered whole; the last-entry
        # test comes first, since a nonzero scan of every column would cost
        # more than the flush saves.
        stop = col.size
        if col[-1] == 0.0 and abs(a[j]) < 1.0:
            last = int(np.argmax(col[::-1] != 0.0))
            # col[-1] == 0, so a first nonzero at reversed index 0 means none
            stop = 0 if last == 0 else col.size - last
        # Filter up to ``stop``, then continue the zero-input recursion
        # through lfilter's state (bit-identical to one call) in chunks of
        # the steps the state needs to decay below tiny.
        done, state = 0, zi[j : j + 1]
        while done < col.size and (done < stop or not abs(state[0]) < tiny):
            count = stop if done < stop else _decay_steps(state[0], a[j], tiny)
            count = min(count, col.size - done)
            dst[done : done + count], state = lfilter(*coeffs, col[done : done + count], zi=state)
            done += count
        if stop < col.size:  # a zero tail, exact zeros from its first entry below tiny
            dst[done:] = 0.0
            _flush_tail(dst[stop:done])
    return out


def _flush_tail(col: np.ndarray) -> None:
    """Zero a decaying column from its first entry below ``tiny`` in magnitude.

    The magnitudes must be nonincreasing down the column (a zero-input
    recursion), so the entries below ``tiny`` form its tail and a bisection
    finds where it starts.
    """
    tiny = np.finfo(float).tiny
    col[bisect.bisect_left(col, True, key=lambda v: abs(v) < tiny) :] = 0.0


def _decay_steps(y: float, a: float, tiny: float) -> float:
    """Steps of y <- a y (0 < |a| < 1) to take |y| >= tiny below tiny, plus
    one; inf for a non-finite y, which the filter carries to the end."""
    if not math.isfinite(y):
        return math.inf
    return math.ceil(math.log(tiny / abs(y)) / math.log(abs(a))) + 1


def _node_norms(values: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Norms ||wts * v|| along the last (mode) axis: a scalar for a state.

    Each mode column is weighted, squared and added in turn, in mode order
    from zeros, so C and F storage give the same bits, no modes give 0, and
    no temporary is larger than one column.
    """
    total = np.zeros(values.shape[:-1])
    for j in range(values.shape[-1]):
        sq = values[..., j] * wts[j]
        sq *= sq
        total += sq
    return np.sqrt(total)
