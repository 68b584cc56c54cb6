"""Aggregate of one model instance: operator data, noise path, certificate.

A ModelProblem owns the sampled Wiener path and derives the OU driver from
it once; fixed-point contexts for any forcing translation, and for
index-shifted copies of the path, are built from here so that every
downstream object provably uses the same stored noise.  The solver
tolerance ``tol`` is fixed per problem and passed to every context.  Graph
values on the stored path are solved at most once per (tau, base point), so
checks that revisit the chart's points reuse its solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Nonlinearity
from .errors import ConfigError
from .forcing import ForcingSignal
from .lyapunov_perron import (
    GapCertificate,
    LPContext,
    ManifoldChart,
    backward_horizon,
    build_chart,
    manifold_point,
)
from .randomness import CovarianceSpec, OUProcess, WienerPath, shift_path, solve_ou
from .spectral import Spectrum
from .tracking import forward_horizon

__all__ = ["ModelProblem"]


@dataclass
class ModelProblem:
    spectrum: Spectrum
    nonlinearity: Nonlinearity
    forcing: ForcingSignal
    path: WienerPath
    cert: GapCertificate
    t_back: float
    t_fwd: float
    tol: float = 1e-6
    ou_exact_variance: bool = False
    _ou: OUProcess | None = field(default=None, repr=False)
    _shifted: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _graph: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.path.n_modes != self.spectrum.size:
            raise ConfigError("noise.values: mode count differs from the spectrum")
        if self.forcing.n_modes != self.spectrum.size:
            raise ConfigError("forcing: mode count differs from the spectrum")
        if self.tol <= 0.0:
            raise ConfigError("numerics.tol: must be positive")

    @property
    def h(self) -> float:
        return self.path.grid.h

    @property
    def cov(self) -> CovarianceSpec:
        return self.path.cov

    @property
    def seed(self) -> int:
        return self.path.seed

    @property
    def ou(self) -> OUProcess:
        if self._ou is None:
            self._ou = solve_ou(self.path, self.spectrum, self.ou_exact_variance)
        return self._ou

    def ou_for(self, path: WienerPath) -> OUProcess:
        """OU driver on an index-shifted or coarsened copy of the stored path."""
        return solve_ou(path, self.spectrum, self.ou_exact_variance)

    def shifted_ou(self, t: float) -> OUProcess:
        """OU driver on the stored path shifted by t (the driver itself at t = 0).

        The last shifted driver is kept, so a check and its caller that both
        need the driver at t share one solve.
        """
        if t == 0.0:
            return self.ou
        if self._shifted is None or self._shifted[0] != t:
            self._shifted = (t, self.ou_for(shift_path(self.path, t)))
        return self._shifted[1]

    def lp_context(self, tau: float = 0.0, ou: OUProcess | None = None) -> LPContext:
        return LPContext(
            spectrum=self.spectrum,
            cert=self.cert,
            nonlinearity=self.nonlinearity,
            forcing=self.forcing,
            ou=self.ou if ou is None else ou,
            tau=tau,
            t_back=self.t_back,
            tol=self.tol,
            seed=self.seed,
        )

    def chart(self, tau: float, x_grid: np.ndarray) -> ManifoldChart:
        """``build_chart`` at translation tau; its values join the graph-value store."""
        chart = build_chart(x_grid, self.lp_context(tau))
        for x, m in zip(chart.x_grid, chart.values):
            self._graph[(chart.tau, x.tobytes())] = m.copy()
        return chart

    def graph_values(self, tau: float, x_grid: np.ndarray) -> np.ndarray:
        """Graph values m_tau(P x) over a grid of base points, each solved once.

        Values are stored per (tau, P x) and only missing ones are solved;
        ``chart`` fills the same store.
        """
        ctx = self.lp_context(tau)
        values = []
        for x in np.atleast_2d(np.asarray(x_grid, dtype=float)):
            base = ctx.project_p(x)
            key = (ctx.tau, base.tobytes())
            if key not in self._graph:
                self._graph[key] = manifold_point(base, ctx)
            values.append(self._graph[key])
        return np.array(values)

    @staticmethod
    def default_horizons(cert: GapCertificate, tol: float) -> tuple[float, float]:
        t_back = backward_horizon(cert, tol)
        return t_back, forward_horizon(cert, tol, t_back)
