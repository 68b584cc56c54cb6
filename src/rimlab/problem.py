"""Aggregate of one model instance: operator data, noise, certificate.

A ModelProblem is built complete and never changes: it owns the stored
noise, the OU table ``ou`` of one sampled path (``config.build_problem``
solves it, and lets the path go, before the problem exists), so a problem
holds one grid-sized array.  Every time shift of the noise is that one
table on a relabelled grid (``ou_for``), and fixed-point contexts for any
forcing translation are built from here, so that every downstream object
provably uses the same stored noise.  The backward window ``t_back`` and
the solver tolerance ``tol`` are fixed per problem and passed to every
context.
Every comparison of the graph at (tau, omega), flowed for a time t, with
the graph at tau + s on theta_t omega is one leg (t, s) of a chart's sweep
(``chart`` with ``legs``): invariance is (t, t), a translate by s is
(0, s).  Each leg is solved from the history that began the point's final
Picard step while that history is live; the problem keeps no graph value,
so which solves a check runs never depends on the checks before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Nonlinearity
from .errors import ConfigError, RimlabError
from .forcing import ForcingSignal
from .lyapunov_perron import (
    GapCertificate,
    LPContext,
    ManifoldChart,
    _sweep,
    build_chart,
)
from .randomness import OUProcess, TimeGrid
from .spectral import Spectrum

__all__ = ["ModelProblem"]


@dataclass(frozen=True)
class ModelProblem:
    spectrum: Spectrum
    nonlinearity: Nonlinearity
    forcing: ForcingSignal
    ou: OUProcess
    cert: GapCertificate
    t_back: float
    t_fwd: float
    tol: float

    def __post_init__(self):
        if self.ou.values.shape[1] != self.spectrum.size:
            raise ConfigError("noise.values: mode count differs from the spectrum")
        if self.forcing.n_modes != self.spectrum.size:
            raise ConfigError("forcing: mode count differs from the spectrum")
        if self.tol <= 0.0:
            raise ConfigError("numerics.tol: must be positive")

    @property
    def h(self) -> float:
        return self.ou.grid.h

    @property
    def seed(self) -> int:
        return self.ou.seed

    def ou_for(self, t: float) -> OUProcess:
        """OU driver of the shifted noise theta_t omega: ``ou_for(t).at(s)`` is
        ``ou.at(s + t)``, bit for bit.

        The stored table is shared on its grid relabelled by t; nothing is
        copied or solved.  An off-grid t, or a t that leaves t = 0 outside
        the stored support or on its end node, raises RimlabError.
        """
        grid = self.ou.grid
        k = grid.index(t)
        if not grid.i_min < k < grid.i_max:
            raise RimlabError(f"shift by {t} puts t = 0 on the end of the stored support")
        shifted = TimeGrid(grid.h, grid.i_min - k, grid.i_max - k)
        return OUProcess(shifted, self.ou.values, self.seed)

    def lp_context(self, tau: float, ou: OUProcess | None = None) -> LPContext:
        return LPContext(
            spectrum=self.spectrum,
            cert=self.cert,
            nonlinearity=self.nonlinearity,
            forcing=self.forcing,
            ou=self.ou if ou is None else ou,
            tau=tau,
            t_back=self.t_back,
            tol=self.tol,
        )

    def chart(self, tau: float, x_grid: np.ndarray, legs=()) -> ManifoldChart:
        """``build_chart`` at translation tau with each leg (t, s) of ``legs``
        (``ManifoldChart.legs``, keyed by (t, s)), solved under the context
        at tau + s on the noise shifted by t (``ou_for``).  A repeated leg
        is solved once."""
        contexts = tuple(
            ((t, s), self.lp_context(tau + s, ou=self.ou_for(t))) for t, s in dict.fromkeys(legs)
        )
        return build_chart(x_grid, self.lp_context(tau), contexts)

    def graph_values(self, tau: float, points: np.ndarray) -> np.ndarray:
        """Graph values m_tau(P x) at the base points of ``points``, in the
        caller's order.

        The points are solved as one ``_sweep`` in lexicographic order of
        their P coordinates, so each solve starts on the secant through its
        two predecessors; each final start is dropped before the next solve.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ctx = self.lp_context(tau)
        order = sorted(range(points.shape[0]), key=lambda i: tuple(points[i, : self.cert.n]))
        sweep = _sweep([ctx.project_p(points[i]) for i in order], ctx)
        values = np.empty_like(points)
        for i in order:
            values[i] = ctx.project_q(next(sweep)[0][-1])  # the final start is dropped here
        return values
