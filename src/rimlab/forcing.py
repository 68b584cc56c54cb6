"""Deterministic non-autonomous forcing signals.

A signal is data: a constant mode-coefficient vector plus a finite sum of
per-mode sinusoids, possibly with incommensurate frequencies.  The config
forms ``zero``, ``constant`` and ``trig_sum`` only choose which parts are
nonzero.  Periodic and almost-periodic inputs are represented exclusively
as finite trigonometric sums, which makes near-periods checkable by a
direct scan instead of an existence argument; a signal without terms is
autonomous, so it is periodic with every period.

Besides pointwise evaluation and exact time translation, the module
provides the one quadrature primitive everything downstream shares: the
convolution of the signal against the semigroup kernel over a single grid
cell,

    cell(t, h, j) = int_t^{t+h} e^{-lambda_j (t+h-s)} g_j(s) ds.

The constant and every trig term have this cell integral in closed form,
so forcing adds no quadrature error anywhere in the library.  Time
integrator and fixed-point operators both use this primitive, which keeps
their discretisations consistent with each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RimlabError
from .spectral import Spectrum, _node_norms

__all__ = [
    "TrigTerm",
    "ForcingSignal",
    "shift_forcing",
    "cell_convolution",
    "almost_period_defect",
    "scan_almost_period",
]


@dataclass(frozen=True)
class TrigTerm:
    """One sinusoid a*sin(beta*t + phase) acting on a single (1-based) mode."""

    mode: int
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.mode < 1:
            raise RimlabError("trig term mode indices are 1-based")
        if self.frequency <= 0.0:
            raise RimlabError("trig term frequency must be positive")


@dataclass(frozen=True, eq=False)
class ForcingSignal:
    """g(t) = amplitudes + sum of ``terms``; ``amplitudes`` defaults to zeros.

    Signals compare and hash by identity, since an array field has no
    single truth value.
    """

    n_modes: int
    amplitudes: np.ndarray | None = None
    terms: tuple = ()
    declared_period: float | None = None

    def __post_init__(self):
        amp = np.zeros(self.n_modes) if self.amplitudes is None else self.amplitudes
        amp = np.asarray(amp, dtype=float)
        if amp.shape != (self.n_modes,):
            raise RimlabError("constant amplitudes must have one value per mode")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.mode > self.n_modes:
                raise RimlabError(f"trig term mode {term.mode} exceeds {self.n_modes} modes")
        if self.declared_period is not None:
            self._check_period()

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_modes: int) -> "ForcingSignal":
        return cls(n_modes)

    @classmethod
    def constant(cls, amplitudes) -> "ForcingSignal":
        amp = np.asarray(amplitudes, dtype=float)
        return cls(amp.size, amp)

    @classmethod
    def trig(cls, n_modes: int, terms, period: float | None = None) -> "ForcingSignal":
        return cls(n_modes, terms=terms, declared_period=period)

    # ---- internals -----------------------------------------------------

    def _check_period(self):
        period = self.declared_period
        if period <= 0.0:
            raise RimlabError("declared period must be positive")
        r = np.linspace(0.0, 2.0 * period, 64)
        diff = self.eval_many(r + period) - self.eval_many(r)
        scale = 1.0 + float(np.max(np.abs(self.eval_many(r))))
        if np.max(np.abs(diff)) > 1e-9 * scale:
            raise RimlabError(f"signal is not periodic with declared period {period}")

    def eval_many(self, t) -> np.ndarray:
        """Evaluate at an array of times; returns (len(t), n_modes)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.tile(self.amplitudes, (t.size, 1))
        for term in self.terms:
            out[:, term.mode - 1] += term.amplitude * np.sin(
                term.frequency * t + term.phase
            )
        return out


def shift_forcing(g: ForcingSignal, tau: float) -> ForcingSignal:
    """Exact translation: eval(shift(g, tau), t) == eval(g, t + tau)."""
    if tau == 0.0:
        return g
    terms = tuple(
        TrigTerm(t.mode, t.amplitude, t.frequency, t.phase + t.frequency * tau)
        for t in g.terms
    )
    return replace(g, terms=terms)


def cell_convolution(g: ForcingSignal, s: Spectrum, t_lefts: np.ndarray, h: float) -> np.ndarray:
    """Kernel-weighted cell integrals of the signal.

    Entry [i, j] is  int_{t_i}^{t_i + h} e^{-lambda_j (t_i + h - sigma)}
    g_j(sigma) d sigma, evaluated in closed form.
    """
    if g.n_modes != s.size:
        raise RimlabError("forcing and spectrum mode counts differ")
    return _cell_columns(g, s, t_lefts, h, list(range(s.size)))


def _cell_columns(g: ForcingSignal, s: Spectrum, t_lefts, h: float, modes: list) -> np.ndarray:
    """The columns ``modes`` (0-based, listing every forced mode) of
    ``cell_convolution``'s table, in that order and bit for bit, with no
    table of the other columns."""
    t_lefts = np.asarray(t_lefts, dtype=float)
    lam = s.lambdas
    w1 = -np.expm1(-lam[modes] * h) / lam[modes]  # int_0^h e^{-lam (h-u)} du
    out = np.tile(g.amplitudes[modes] * w1, (t_lefts.size, 1))
    for term in g.terms:
        j = term.mode - 1
        coeff = (np.exp(1j * term.frequency * h) - np.exp(-lam[j] * h)) / (
            lam[j] + 1j * term.frequency
        )
        theta = term.frequency * t_lefts + term.phase
        out[:, modes.index(j)] += term.amplitude * (np.exp(1j * theta) * coeff).imag
    return out


def almost_period_defect(g: ForcingSignal, s: Spectrum, tau0: float) -> float:
    """Sampled sup over 1024 points of a window of ||g(r + tau0) - g(r)||_alpha."""
    if not g.terms:
        return 0.0  # an autonomous signal is periodic with every period
    span = 4.0 * max(2.0 * np.pi / t.frequency for t in g.terms)
    r = np.linspace(0.0, span, 1024)
    diff = g.eval_many(r + tau0) - g.eval_many(r)
    return float(np.max(_node_norms(diff, s.weights_alpha())))


def _scan_row_vectors(g: ForcingSignal) -> int:
    """Rows of taus ``scan_almost_period`` holds at its peak: the taus, the
    bound table and its squares (a column per forced mode), sum and norms."""
    return 3 + 2 * len({term.mode for term in g.terms})


def scan_almost_period(
    g: ForcingSignal,
    s: Spectrum,
    target: float,
    tau_max: float,
    step: float = 1e-2,
):
    """Scan for a translation 1 <= tau0 < tau_max with defect at most ``target``.

    The scan uses the per-term bound 2|a| lambda^alpha |sin(beta tau0 / 2)|,
    which dominates the sampled defect, so any candidate it accepts is
    genuine (an autonomous signal accepts tau0 = 1); the returned defect is
    re-measured densely.  The bound is tabulated only on the modes some
    term forces, since every other mode adds an exact zero to its norm.
    Returns (tau0, defect).
    """
    taus = np.arange(1.0, tau_max, step)
    if taus.size == 0:
        raise RimlabError(f"near-period scan needs tau_max > 1 (got {tau_max})")
    forced = sorted({term.mode - 1 for term in g.terms})
    per_mode = np.zeros((taus.size, len(forced)))
    for term in g.terms:
        per_mode[:, forced.index(term.mode - 1)] += 2.0 * abs(term.amplitude) * np.abs(
            np.sin(term.frequency * taus / 2.0)
        )
    bound = _node_norms(per_mode, s.weights_alpha()[forced])
    idx = int(np.argmin(bound))
    if bound[idx] > target:
        raise RimlabError(f"no near-period with defect <= {target} found below {tau_max}")
    tau0 = float(taus[idx])
    return tau0, almost_period_defect(g, s, tau0)
