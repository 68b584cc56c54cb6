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
delta = k + k/(2-2k), which requires k < 1/2, and ``forward_horizon``
sizes T_f so that cutting the future there moves xi(0) by at most tol/10
relative to the graph defect.  The converged xi yields the
shadowing point v0* = v0 + xi(0) on the graph, and its node norms obey

    ||xi(t)||_alpha <= e^{-mu t} ||Q v0 - m(P v0)||_alpha / (1 - delta)

up to quadrature slack; the same discrete cell rule as everywhere else
makes v0*'s discrete orbit equal v + xi exactly at the fixed point.

In the original variables the conjugation by the OU driver cancels in orbit
differences, so the envelope transfers verbatim with the offset graph map.
``track_phi`` is the one solver: it solves in v0 = u0 - z(0) on the window
that v0's base orbit spans (``base_orbit``) and offsets the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import integrate
from .errors import RimlabError
from .lyapunov_perron import (
    LPContext,
    _duhamel,
    _picard,
    _two_weight_horizon,
    solve_fixed_point,
    weighted_factor,
    weighted_sup_norm,
)
from .randomness import whole_steps
from .spectral import _node_norms, norm_alpha

__all__ = [
    "TrackingResult",
    "base_orbit",
    "forward_horizon",
    "track_phi",
]


@dataclass(frozen=True)
class TrackingResult:
    """Shadowing point in both variables, its graph defect, and the decay curve."""

    u0: np.ndarray
    u0_star: np.ndarray
    v0: np.ndarray
    v0_star: np.ndarray
    defect: float
    prefactor: float
    rate: float
    times: np.ndarray
    decay_curve: np.ndarray
    iterations: int
    graph_residual: float

    def envelope(self) -> np.ndarray:
        return self.prefactor * np.exp(-self.rate * self.times)

    def fitted_slope(self) -> float:
        """Least-squares slope of log decay versus time, above 1e-10 of its peak."""
        curve = self.decay_curve
        keep = curve > max(float(curve.max()) * 1e-10, 0.0)
        if np.count_nonzero(keep) < 2:
            return float("nan")
        coeffs = np.polyfit(self.times[keep], np.log(curve[keep]), 1)
        return float(coeffs[0])


def forward_horizon(cert, tol: float) -> float | None:
    """Horizon T_f keeping the truncated shadowing point within (tol/10) d0.

    Let xi* be the fixed point of the forward operator on [0, inf) and xi_T
    that of the operator truncated at T, for the same v0, and let
    d0 = |Q v0 - m(P v0)|_a.  In the e^{x t}-weighted sup norm, for x in
    (lambda_n, lambda_{n+1}), the dichotomy estimates behind
    ``weighted_factor`` bound the Q integral over [0, t] and the P integral
    over [t, T] by k(x) times the norm of the iterate difference.  The seed
    integral int_0^T e^{As} P dF(s) ds adds L lambda_n^a / (x - lambda_n)
    times that norm, carried through m (Lipschitz constant 1/(1-k)) and
    e^{-At} Q (at most one in the weight), so the operator contracts with

        delta(x) = k(x) + L lambda_n^a / ((x - lambda_n)(1 - k)),

    on [0, inf) and on every window [0, T] alike.  At x = mu the second
    term is k/(2 - 2k) and k(mu) <= k, so delta(mu) <= cert.delta.

    Take weights lambda_n < rho < nu < lambda_{n+1} with delta(rho) < 1 and
    delta(nu) < 1.  The operator maps 0 to e^{-At}(m(P v0) - Q v0), whose
    nu-norm is at most d0, so |xi*|_nu <= d0 / (1 - delta(nu)).  On [0, T]

        xi* = T_T xi* + r,

    where r is the P integral over (T, inf), -int_T^inf e^{-A(t-s)} P dF,
    plus e^{-At} Q applied to the change in m that the seed integral's
    tail over (T, inf) makes.  Since |dF(s)| <= L e^{-nu s} |xi*|_nu, both
    parts are at most L lambda_n^a e^{-(nu - lambda_n) T} / (nu - lambda_n)
    |xi*|_nu, the second times 1/(1-k).  In the rho-norm the P part gains
    e^{(rho - lambda_n) t} <= e^{(rho - lambda_n) T} on [0, T], and the Q
    part at most one, so

        |r|_rho <= c(nu) e^{-(nu - rho) T} |xi*|_nu,
        c(nu) = L lambda_n^a (1 + 1/(1-k)) / (nu - lambda_n).

    Then |xi_T - xi*|_rho <= delta(rho) |xi_T - xi*|_rho + |r|_rho, and at
    t = 0 the weight is one:

        |xi_T(0) - xi*(0)|_a
            <= d0 c(nu) e^{-(nu - rho) T} / ((1 - delta(rho))(1 - delta(nu))).

    This is at most (tol/10) d0 once

        T >= [ln(10/tol) + ln c(nu) + ln(1/(1 - delta(rho)))
              + ln(1/(1 - delta(nu)))] / (nu - rho),

    and T_f is the least right side (at least 0) over the pairs that
    ``lyapunov_perron._two_weight_horizon`` searches, the search that sizes
    the backward window too, with tail c.  Some pair near mu is feasible
    whenever L > 0 and k < 1/2, since then delta(mu) < 1.  With no tail to
    bound (L = 0, where the seed needs no truncation, or k >= 1/2, which
    ``track_phi`` refuses) it is None.
    """
    if tol <= 0.0:
        raise RimlabError("tolerance must be positive")
    if cert.lipschitz == 0.0 or cert.k >= 0.5:
        return None
    lam_n = cert.lambda_n

    def seed(x):  # the seed integral's factor L lambda_n^a / (x - lambda_n)
        return cert.lipschitz * lam_n**cert.alpha / (x - lam_n)

    def delta(x):
        return weighted_factor(cert, x) + seed(x) / (1.0 - cert.k)

    weights = _two_weight_horizon(
        cert, tol, delta, lambda x: seed(x) * (1.0 + 1.0 / (1.0 - cert.k))
    )
    return None if weights is None else weights[0]


def base_orbit(v0: np.ndarray, ctx: LPContext, t_fwd: float) -> np.ndarray:
    """Transformed orbit of v0 on the forward tracking nodes of [0, t_fwd].

    ``v0`` may be one state or a (B, N) batch; the orbit (a ``[:, b]``
    slice for a batch) is the ``base`` array that ``track_phi`` takes, with
    v0 = u0 - z(0).
    """
    return integrate(
        v0,
        0.0,
        max(whole_steps(t_fwd, ctx.h), 2) * ctx.h,
        ctx.ou,
        ctx.g,
        ctx.nonlinearity,
        ctx.spectrum,
    )


class _ForwardStencil:
    """Node set, OU window and weights for the forward operator on n_cells cells.

    Node arrays are stored mode-major, like the backward operator's (the OU
    window ``z`` is a view of the driver's table), and an orbit difference
    is a bare (nodes, modes) array on ``times``.
    """

    def __init__(self, ctx: LPContext, n_cells: int):
        h = ctx.h
        lo = ctx.ou.grid.offset(0.0)
        hi = ctx.ou.grid.offset(n_cells * h)
        self.times = np.arange(0, n_cells + 1) * h
        self.z = ctx.ou.values[lo : hi + 1]  # a view of the shared, read-only table
        lam_p = ctx.spectrum.lambdas[: ctx.cert.n]
        # Weights of the resolved-mode seed integral int e^{+lambda s} over a cell.
        self.seed_weights = np.exp(np.outer(self.times[:-1], lam_p)) * (
            np.expm1(lam_p * h) / lam_p
        )
        self.wmu = np.exp(ctx.cert.mu * self.times)


def _apply_forward(
    ctx: LPContext, stencil: _ForwardStencil, xi_values, base, f_base, v0, warm=None
):
    """One sweep of the forward operator; returns (values, x0, graph).

    ``f_base`` is F(base + z) on the forward cells' left nodes (every node
    but the last), fixed for a whole solve; dF is needed only there.
    ``graph`` is the nested fixed point at x0, whose time-zero Q part is
    m(x0).  ``warm`` is a list holding the previous sweep's (graph, x0)
    pair, if any: the sweep takes it out and moves the graph to x0 to
    warm-start that solve, so the old graph is not held during it.
    """
    n = ctx.cert.n
    u = np.add(xi_values[:-1], base[:-1], order="F")
    u += stencil.z[:-1]
    u = ctx.f(u)
    u -= f_base  # dF, scaled in place below into the per-cell increments

    seed_integral = np.zeros(ctx.spectrum.size)
    seed_integral[:n] = np.sum(stencil.seed_weights * u[:, :n], axis=0)
    u *= ctx.w1
    x0 = ctx.project_p(v0) - seed_integral
    graph, _ = solve_fixed_point(x0, ctx, ctx.rebase(*warm.pop(), x0) if warm else None)
    # the off-graph seed y0 = m(x0) - Q v0 starts the Q modes: e^{-At} y0
    # is the filter's zero-input response from it
    return _duhamel(u, ctx, graph[-1, n:] - v0[n:]), x0, graph


def track_phi(u0: np.ndarray, ctx: LPContext, base: np.ndarray) -> TrackingResult:
    """Shadowing manifold point for u0 with its decay envelope.

    The OU conjugation cancels in orbit differences, so the solve runs in
    the transformed variables from v0 = u0 - z(0); only the endpoints are
    offset by the driver state at time zero, and the defect is that of v0
    against the graph, which equals that of u0 against the offset graph.
    ``base`` is the value array of v0's transformed orbit (``base_orbit``),
    and its nodes are the forward window.  The first sweep's nested
    graph solve starts cold; each later one, and the final graph-residual
    solve, starts from the previous fixed point moved to its new base
    point.  Sweeps stop and raise as ``_picard`` does, with factor delta
    and the context's quadrature slack.
    """
    if ctx.cert.k >= 0.5:
        raise RimlabError(f"tracking requires k < 1/2 (got k={ctx.cert.k:g}, delta >= 1)")
    delta = ctx.cert.delta
    u0 = ctx.spectrum.check_state(np.asarray(u0, dtype=float))
    z0 = ctx.z_at_zero()
    v0 = u0 - z0
    if base.ndim != 2 or base.shape[0] < 3 or not np.array_equal(base[0], v0):
        raise RimlabError("base orbit must start at u0 - z(0) and span at least two cells")
    stencil = _ForwardStencil(ctx, base.shape[0] - 1)
    # F sees both of dF's arguments mode-major, so a mode-coupling F rounds
    # them alike and dF is exactly zero where xi is
    f_base = ctx.f(np.add(base[:-1], stencil.z[:-1], order="F"))

    latest, defect = [], None  # the latest sweep's (graph, x0); the first sweep's defect

    def sweep(xi_values):
        nonlocal defect
        values, x0, graph = _apply_forward(ctx, stencil, xi_values, base, f_base, v0, latest)
        latest.append((graph, x0))
        if defect is None:
            # From xi = 0 the seed integral vanishes, so x0 = P v0 exactly
            # and this solve is the graph value m(P v0) the defect needs.
            defect = norm_alpha(ctx.project_q(v0) - ctx.project_q(graph[-1]), ctx.spectrum)
        return values

    xi_values, iterations = _picard(
        sweep,
        lambda new, old: weighted_sup_norm(stencil.wmu, new - old, ctx.wts_alpha),
        [np.zeros_like(stencil.z)],
        delta,
        ctx.ratio_slack,
        ctx.tol,
    )
    v0_star = v0 + xi_values[0]
    x_star = ctx.project_p(v0_star)
    star_graph, _ = solve_fixed_point(x_star, ctx, ctx.rebase(*latest.pop(), x_star))
    graph_residual = norm_alpha(
        ctx.project_q(v0_star) - ctx.project_q(star_graph[-1]), ctx.spectrum
    )
    return TrackingResult(
        u0=u0,
        u0_star=v0_star + z0,
        v0=v0,
        v0_star=v0_star,
        defect=defect,
        prefactor=defect / (1.0 - delta),
        rate=ctx.cert.mu,
        times=stencil.times,
        decay_curve=_node_norms(xi_values, ctx.wts_alpha),
        iterations=iterations,
        graph_residual=graph_residual,
    )
