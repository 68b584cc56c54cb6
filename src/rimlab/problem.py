"""Aggregate of one model instance: operator data, noise, certificate.

A ModelProblem owns the stored noise: the sampled Wiener path until the OU
driver is first read, then the OU table solved from it, which replaces the
path, so a problem holds one grid-sized array.  Every time shift of the
noise is that one table on a relabelled grid (``ou_for``), and
fixed-point contexts for any forcing translation are built from here, so
that every downstream object provably uses the same stored noise.  The
solver tolerance ``tol`` is fixed per problem and passed to every context.
Graph values on the stored OU table are solved at most once per (tau, base
point), so checks that revisit the chart's points reuse its solves.  The
store holds values only: a translate of a point is solved from the history
that began the point's final Picard step while that history is live, in
the chart's sweep or right after the base solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Nonlinearity
from .errors import ConfigError, RimlabError
from .forcing import ForcingSignal
from .lyapunov_perron import (
    GapCertificate,
    LPContext,
    ManifoldChart,
    _sweep,
    _translated_value,
    build_chart,
)
from .randomness import OUProcess, TimeGrid, WienerPath, solve_ou
from .spectral import Spectrum

__all__ = ["ModelProblem"]


@dataclass
class ModelProblem:
    spectrum: Spectrum
    nonlinearity: Nonlinearity
    forcing: ForcingSignal
    noise: WienerPath | OUProcess
    cert: GapCertificate
    t_back: float
    t_fwd: float
    tol: float = 1e-6
    _graph: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.noise.values.shape[1] != self.spectrum.size:
            raise ConfigError("noise.values: mode count differs from the spectrum")
        if self.forcing.n_modes != self.spectrum.size:
            raise ConfigError("forcing: mode count differs from the spectrum")
        if self.tol <= 0.0:
            raise ConfigError("numerics.tol: must be positive")

    @property
    def h(self) -> float:
        return self.noise.grid.h

    @property
    def seed(self) -> int:
        return self.noise.seed

    @property
    def ou(self) -> OUProcess:
        """The OU table; the first read solves it and lets the path go."""
        if isinstance(self.noise, WienerPath):
            self.noise = solve_ou(self.noise, self.spectrum)
        return self.noise

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
        )

    def _graph_key(self, tau: float, x: np.ndarray) -> tuple:
        return float(tau), x[: self.cert.n].tobytes()

    def chart(
        self, tau: float, x_grid: np.ndarray, shifts=(), flow_t: float | None = None
    ) -> ManifoldChart:
        """``build_chart`` at translation tau, with the translates by each of
        ``shifts`` and, at a ``flow_t``, the invariance leg on the noise
        shifted by ``flow_t`` (``ou_for``).  Its values and translates join
        the graph-value store."""
        translates = tuple(self.lp_context(tau + s) for s in dict.fromkeys(shifts))
        flow = None
        if flow_t is not None:
            flow = flow_t, self.lp_context(tau + flow_t, ou=self.ou_for(flow_t))
        chart = build_chart(x_grid, self.lp_context(tau), translates, flow)
        for t, values in ((chart.tau, chart.values), *chart.translates.items()):
            for x, m in zip(chart.x_grid, values):
                self._graph[self._graph_key(t, x)] = m.copy()
        return chart

    def graph_values(
        self, tau: float, x_grid: np.ndarray, shift: float | None = None
    ) -> np.ndarray:
        """Graph values m_tau(P x) over a grid of base points, each solved once.

        Values are stored per (tau, P x); a context is built, and the missing
        values solved as one ``_sweep`` in lexicographic order of their P
        coordinates, only when some are missing.  Values come back in the
        caller's order.  ``chart`` fills the same store, its translates
        included.

        With ``shift``, right after each missing value is solved, its
        translate m_{tau+shift}(P x) is solved and stored too, unless it is
        stored already, from the history that began the final Picard step
        of the solve at tau.  At a translation by a period the operator maps
        that start onto m_tau(P x)'s fixed point, so the translate stops
        after one application, at rounding level.  The translate of a value
        stored before the call is left to a later
        ``graph_values(tau + shift, ...)``.
        """
        points = np.atleast_2d(np.asarray(x_grid, dtype=float))
        keys, missing = [], {}
        for x in points:
            keys.append(self._graph_key(tau, x))
            if keys[-1] not in self._graph:
                missing.setdefault(keys[-1], x)
        if missing:
            ctx = self.lp_context(tau)
            shifted = functools.cache(lambda: self.lp_context(tau + shift))
            order = sorted(missing, key=lambda key: tuple(missing[key][: self.cert.n]))
            bases = [ctx.project_p(missing[key]) for key in order]
            for key, x, (xi, start) in zip(order, bases, _sweep(bases, ctx)):
                self._graph[key] = ctx.project_q(xi[-1])
                if shift is not None:
                    moved = self._graph_key(tau + shift, x)
                    if moved not in self._graph:
                        self._graph[moved] = _translated_value(x, shifted(), start)
                del start  # a translate's start is held only while it is solved
        return np.array([self._graph[key] for key in keys])
