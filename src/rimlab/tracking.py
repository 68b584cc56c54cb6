"""Exponential tracking: shadowing points on the manifold and decay envelopes.

Given an arbitrary initial state, the difference xi between its orbit and a
suitable manifold orbit is constructed as the fixed point of a forward
integral operator on [0, T_f], weighted by e^{+mu t}:

    (T+ xi)(t) = e^{-At} y0
                 + int_0^t   e^{-A(t-s)} Q dF(s) ds
                 - int_t^T_f e^{-A(t-s)} P dF(s) ds,

    dF(s) = F(xi(s) + v(s) + z(s)) - F(v(s) + z(s)),

where v is the orbit of the given initial state and the off-graph seed

    y0 = -Q v0 + m(P v0 - int_0^T_f e^{As} P dF(s) ds)

is refreshed from the current iterate inside every sweep (freezing it would
change the fixed point).  The operator contracts with factor
delta = k + k/(2-2k), which requires k < 1/2.  The converged xi yields the
shadowing point v0* = v0 + xi(0) on the graph, and its node norms obey

    ||xi(t)||_alpha <= e^{-mu t} ||Q v0 - m(P v0)||_alpha / (1 - delta)

up to quadrature slack; the same discrete cell rule as everywhere else
makes v0*'s discrete orbit equal v + xi exactly at the fixed point.

In the original variables the conjugation by the OU driver cancels in orbit
differences, so the envelope transfers verbatim with the offset graph map.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, integrate
from .errors import GridAlignmentError, ParameterError
from .forcing import shift_forcing
from .lyapunov_perron import LPContext, _duhamel, _picard, solve_fixed_point, weighted_sup_norm
from .spectral import _mode_major, _node_norms, norm_alpha

__all__ = [
    "TrackingResult",
    "base_orbit",
    "forward_horizon",
    "lp_plus_apply",
    "solve_tracking",
    "track_phi",
]


@dataclass(frozen=True)
class TrackingResult:
    """Shadowing point, off-graph seed, and the measured decay curve."""

    v0: np.ndarray
    v0_star: np.ndarray
    y0: np.ndarray
    x0: np.ndarray
    defect: float
    prefactor: float
    rate: float
    times: np.ndarray
    decay_curve: np.ndarray
    iterations: int
    graph_residual: float
    u0: np.ndarray | None = None
    u0_star: np.ndarray | None = None
    xi_values: np.ndarray | None = None

    def envelope(self, slack: float = 0.0) -> np.ndarray:
        return self.prefactor * np.exp(-self.rate * self.times) * (1.0 + slack)

    def envelope_ok(self, slack: float) -> bool:
        return bool(np.all(self.decay_curve <= self.envelope(slack)))

    def fitted_slope(self, floor_ratio: float = 1e-10) -> float:
        """Least-squares slope of log decay versus time, above the noise floor."""
        curve = self.decay_curve
        keep = curve > max(float(curve.max()) * floor_ratio, 0.0)
        if np.count_nonzero(keep) < 2:
            return float("nan")
        coeffs = np.polyfit(self.times[keep], np.log(curve[keep]), 1)
        return float(coeffs[0])


def forward_horizon(cert, tol: float, t_back: float) -> float:
    """Horizon truncating the future resolved-mode integral to tol/10."""
    if cert.lipschitz <= 0.0:
        return t_back
    return math.log(10.0 / tol) / (cert.mu - cert.lambda_n)


def _forward_cells(ctx: LPContext, t_fwd: float) -> int:
    """Cells on the forward horizon, rounded up to whole steps (at least two)."""
    return max(int(math.ceil(t_fwd / ctx.h - 1e-9)), 2)


def base_orbit(v0: np.ndarray, ctx: LPContext, t_fwd: float) -> Trajectory:
    """Transformed orbit of v0 on the forward tracking nodes of [0, t_fwd].

    ``v0`` may be one state or a (B, N) batch; one orbit's values (a
    ``[:, b]`` slice for a batch) is the ``base`` that ``solve_tracking``
    and ``track_phi`` accept.
    """
    return integrate(
        v0,
        0.0,
        _forward_cells(ctx, t_fwd) * ctx.h,
        ctx.ou,
        shift_forcing(ctx.forcing, ctx.tau),
        ctx.nonlinearity,
        ctx.spectrum,
    )


class _ForwardStencil:
    """Node set, OU window and filter coefficients for the forward operator.

    Node arrays are stored mode-major, like the backward operator's, and
    an orbit difference is a bare (nodes, modes) array on ``times``.
    """

    def __init__(self, ctx: LPContext, t_fwd: float):
        self.ctx = ctx
        h = ctx.h
        self.n_cells = _forward_cells(ctx, t_fwd)
        self.t_fwd = self.n_cells * h
        lo = ctx.ou.grid.offset(0.0)
        hi = ctx.ou.grid.offset(self.t_fwd)
        self.times = np.arange(0, self.n_cells + 1) * h
        self.z = _mode_major(ctx.ou.values[lo : hi + 1])
        n = ctx.cert.n
        lam = ctx.spectrum.lambdas
        lam_p = lam[:n]
        # Weights of the resolved-mode seed integral int e^{+lambda s} over a cell.
        self.seed_weights = np.exp(np.outer(self.times[:-1], lam_p)) * (
            np.expm1(lam_p * h) / lam_p
        )
        self.q_decay = _mode_major(np.exp(-np.outer(self.times, lam[n:])))
        self.wmu = np.exp(ctx.cert.mu * self.times)


def _apply_forward(stencil: _ForwardStencil, xi_values, base_values, f_base, v0, warm=None):
    """One sweep of the forward operator; returns (values, y0, x0, graph).

    ``f_base`` is F(base + z) on the forward nodes, fixed for a whole
    solve.  ``graph`` is the nested fixed point at x0, whose time-zero Q
    part is m(x0).  ``warm``, a previous sweep's (graph, x0, ...) tuple,
    warm-starts that solve.
    """
    ctx = stencil.ctx
    n = ctx.cert.n
    df = ctx.f(xi_values + base_values + stencil.z) - f_base
    u = ctx.w1 * df[:-1]

    seed_integral = np.zeros(ctx.spectrum.size)
    seed_integral[:n] = np.sum(stencil.seed_weights * df[:-1, :n], axis=0)
    x0 = ctx.project_p(v0) - seed_integral
    start = None if warm is None else ctx.rebase(warm[0], warm[1], x0)
    graph, _ = solve_fixed_point(x0, ctx, start=start)
    y0 = -ctx.project_q(v0) + ctx.project_q(graph[-1])

    out = _duhamel(u, ctx)
    out[:, n:] += stencil.q_decay * y0[n:]
    return out, y0, x0, graph


def lp_plus_apply(xi: np.ndarray, v0: np.ndarray, base, ctx: LPContext):
    """One application of the forward tracking operator.

    ``xi`` is an orbit difference on the forward nodes of [0, T_f], T_f
    read off its node count; ``base`` is the orbit of v0 on the same nodes
    (a Trajectory or a value array).  The off-graph seed is recomputed from
    the supplied iterate, matching the coupled fixed-point system.  Returns
    (T+ xi, y0, x0).
    """
    base_values = getattr(base, "values", base)
    stencil = _ForwardStencil(ctx, (xi.shape[0] - 1) * ctx.h)
    if xi.shape != base_values.shape or xi.shape[0] != stencil.times.size:
        raise GridAlignmentError("iterate and base orbit must share the forward nodes")
    f_base = ctx.f(base_values + stencil.z)
    values, y0, x0, _ = _apply_forward(stencil, xi, base_values, f_base, v0)
    return values, y0, x0


def solve_tracking(
    v0: np.ndarray,
    ctx: LPContext,
    t_fwd: float | None = None,
    base=None,
) -> TrackingResult:
    """Construct the shadowing manifold point for v0 with its decay envelope.

    ``base`` is the orbit of v0 on the forward nodes, as in
    ``lp_plus_apply``; it is integrated here when not given.  The first
    sweep's nested graph solve starts cold; each later one, and the final
    graph-residual solve, starts from the previous fixed point moved to its
    new base point.  Sweeps stop and raise as ``_picard`` does, with factor
    delta and the context's quadrature slack.
    """
    if ctx.cert.k >= 0.5:
        raise ParameterError(
            f"tracking requires k < 1/2 (got k={ctx.cert.k:g}, delta >= 1)"
        )
    delta = ctx.cert.delta
    if t_fwd is None:
        t_fwd = forward_horizon(ctx.cert, ctx.tol, ctx.t_back)
    stencil = _ForwardStencil(ctx, t_fwd)
    v0 = ctx.spectrum.check_state(np.asarray(v0, dtype=float))
    if base is None:
        base = base_orbit(v0, ctx, t_fwd)
    base_values = getattr(base, "values", base)
    if base_values.shape != (stencil.times.size, ctx.spectrum.size) or not np.array_equal(
        base_values[0], v0
    ):
        raise GridAlignmentError("base orbit must start at v0 on the forward nodes")
    base_values = _mode_major(base_values)
    f_base = ctx.f(base_values + stencil.z)

    first = latest = None  # (graph, x0, y0) of the first and the latest sweep

    def sweep(xi_values):
        nonlocal first, latest
        values, y0, x0, graph = _apply_forward(stencil, xi_values, base_values, f_base, v0, latest)
        latest = (graph, x0, y0)
        if first is None:
            # From xi = 0 the seed integral vanishes, so x0 = P v0 exactly
            # and this solve is the graph value m(P v0) the defect needs.
            first = latest
        return values

    xi_values, iterations = _picard(
        sweep,
        lambda new, old: weighted_sup_norm(stencil.wmu, new - old, ctx.wts_alpha),
        np.zeros_like(stencil.z),
        delta,
        ctx.ratio_slack,
        ctx.tol,
    )
    graph, x0, y0 = latest
    defect = norm_alpha(ctx.project_q(v0) - ctx.project_q(first[0][-1]), ctx.spectrum)
    v0_star = v0 + xi_values[0]
    x_star = ctx.project_p(v0_star)
    star_graph, _ = solve_fixed_point(x_star, ctx, start=ctx.rebase(graph, x0, x_star))
    graph_residual = norm_alpha(
        ctx.project_q(v0_star) - ctx.project_q(star_graph[-1]), ctx.spectrum
    )
    decay = _node_norms(xi_values, ctx.wts_alpha)
    return TrackingResult(
        v0=v0,
        v0_star=v0_star,
        y0=y0,
        x0=x0,
        defect=defect,
        prefactor=defect / (1.0 - delta),
        rate=ctx.cert.mu,
        times=stencil.times,
        decay_curve=decay,
        iterations=iterations,
        graph_residual=graph_residual,
        xi_values=xi_values,
    )


def track_phi(
    u0: np.ndarray,
    ctx: LPContext,
    t_fwd: float | None = None,
    base=None,
) -> TrackingResult:
    """Tracking in the original variables.

    The OU conjugation cancels in orbit differences, so the transformed
    solve applies verbatim; only the endpoints are offset by the driver
    state at time zero, and the defect is measured against the offset graph.
    ``base``, when given, is the transformed orbit of u0 - z(0) on the
    forward nodes (see ``base_orbit``).
    """
    u0 = ctx.spectrum.check_state(np.asarray(u0, dtype=float))
    z0 = ctx.z_at_zero()
    result = solve_tracking(u0 - z0, ctx, t_fwd, base)
    return dataclasses.replace(result, u0=u0, u0_star=result.v0_star + z0)
