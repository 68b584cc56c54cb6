"""Spectral-gap certificate and the backward fixed-point construction.

The graph of the invariant manifold over the first n modes is obtained as
the fixed point of an integral operator acting on trajectories defined on
a backward window.  On the space of histories xi(t), t <= 0, weighted by
e^{mu t} in the D(A^alpha) norm, the operator

    (T xi)(t) = e^{-At} x
                - int_t^0      e^{-A(t-s)} P [F(xi(s) + z(s)) + g(s + tau)] ds
                + int_{-T_b}^t e^{-A(t-s)} Q [F(xi(s) + z(s)) + g(s + tau)] ds

contracts with the certified factor k whenever the spectral gap condition

    lambda_{n+1} - lambda_n >= (2 L / k) (lambda_{n+1}^a + lambda_n^a
                               + c_a (lambda_{n+1} - lambda_n)^a)

holds, where c_a = a^a Gamma(1-a) for a > 0 and c_0 = 0.  The decay weight
is mu = lambda_n + (2 L / k) lambda_n^a, strictly between the two
eigenvalues when L > 0, and the tracking contraction factor is
delta = k + k/(2 - 2k), below one exactly when k < 1/2.

Discretisation: both integrals use the kernel-exact cell rule shared with
the time integrator (nonlinearity frozen at left nodes, forcing cells in
closed form), so a fixed point of the discrete operator is exactly a
discrete flow trajectory; the infinite past is truncated at -T_b, sized
by ``backward_horizon`` so the graph value moves by at most tol/10
(relative to the weighted norm of the history).  Both recursions
are first-order filters, evaluated per mode by ``spectral._filter_modes``
on histories stored mode-major.  The forward tracking operator shares
these sums (``_duhamel``) and the Picard loop (``_picard``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Nonlinearity
from .errors import (
    CertificateError,
    ContractionViolationError,
    DimensionMismatchError,
    DomainError,
    GridAlignmentError,
    ParameterError,
    ValidationError,
)
from .forcing import ForcingSignal, cell_convolution, shift_forcing
from .randomness import OUProcess
from .spectral import Spectrum, _filter_modes, _mode_major, _node_norms, norm_alpha

__all__ = [
    "c_alpha_constant",
    "GapCertificate",
    "gap_margin",
    "check_gap",
    "scan_gap",
    "weighted_factor",
    "backward_horizon",
    "LPContext",
    "lp_apply",
    "solve_fixed_point",
    "manifold_point",
    "tilde_manifold_point",
    "ManifoldChart",
    "build_chart",
]

# Tolerated excess over the certified Lipschitz bound of the chart map.
LIPSCHITZ_SLACK = 0.05


def c_alpha_constant(alpha: float) -> float:
    """The singular-kernel constant alpha^alpha * Gamma(1 - alpha); zero at 0."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError("constant defined for alpha in [0, 1)")
    if alpha == 0.0:
        return 0.0
    return alpha**alpha * math.gamma(1.0 - alpha)


@dataclass(frozen=True)
class GapCertificate:
    """Witness that the gap condition holds at index n, plus derived constants."""

    n: int
    lipschitz: float
    k: float
    alpha: float
    c_alpha: float
    mu: float
    delta: float
    lambda_n: float
    lambda_np1: float
    margin: float


def _gap_parts(s: Spectrum, lipschitz: float, k: float, n: int):
    if not (0.0 < k < 1.0):
        raise ParameterError(f"contraction parameter k={k} must lie in (0, 1)")
    if lipschitz < 0.0:
        raise ParameterError("Lipschitz constant must be nonnegative")
    if not (1 <= n < s.size):
        raise ParameterError(f"gap index n={n} must satisfy 1 <= n < {s.size}")
    lam_n = float(s.lambdas[n - 1])
    lam_np1 = float(s.lambdas[n])
    gap = lam_np1 - lam_n
    ca = c_alpha_constant(s.alpha)
    required = (2.0 * lipschitz / k) * (
        lam_np1**s.alpha + lam_n**s.alpha + ca * gap**s.alpha
    )
    return lam_n, lam_np1, gap, ca, required


def gap_margin(s: Spectrum, lipschitz: float, k: float, n: int) -> float:
    """Gap minus the required separation; nonnegative means the index passes."""
    _, _, gap, _, required = _gap_parts(s, lipschitz, k, n)
    return gap - required


def check_gap(s: Spectrum, lipschitz: float, k: float, n: int) -> GapCertificate:
    """Validate the gap condition at index n and derive (mu, delta, c_alpha)."""
    lam_n, lam_np1, gap, ca, required = _gap_parts(s, lipschitz, k, n)
    margin = gap - required
    if gap <= 0.0:
        raise CertificateError(f"no spectral gap at n={n}: repeated eigenvalue", margin)
    if margin < 0.0:
        raise CertificateError(
            f"gap condition fails at n={n}: gap {gap:g} < required {required:g} "
            f"(margin {margin:g})",
            margin,
        )
    mu = lam_n + (2.0 * lipschitz / k) * lam_n**s.alpha
    if mu > lam_np1:
        raise CertificateError(f"decay weight mu={mu:g} escapes ({lam_n:g}, {lam_np1:g})", margin)
    delta = k + k / (2.0 - 2.0 * k)
    return GapCertificate(
        n=n,
        lipschitz=lipschitz,
        k=k,
        alpha=s.alpha,
        c_alpha=ca,
        mu=mu,
        delta=delta,
        lambda_n=lam_n,
        lambda_np1=lam_np1,
        margin=margin,
    )


def scan_gap(s: Spectrum, lipschitz: float, k: float) -> list[dict]:
    """Evaluate the gap condition at every admissible index."""
    rows = []
    for n in range(1, s.size):
        lam_n, lam_np1, gap, _, required = _gap_parts(s, lipschitz, k, n)
        margin = gap - required
        passed = margin >= 0.0 and gap > 0.0
        row = {
            "n": n,
            "gap": gap,
            "required": required,
            "margin": margin,
            "passed": bool(passed),
        }
        if passed:
            cert = check_gap(s, lipschitz, k, n)
            row["mu"] = cert.mu
            row["delta"] = cert.delta
        rows.append(row)
    return rows


def weighted_factor(cert: GapCertificate, nu: float) -> float:
    """Contraction factor k(nu) of the backward operator in the e^{nu t} norm.

    For nu in (lambda_n, lambda_{n+1}) the dichotomy estimates
    |A^a e^{-A t} P| <= lambda_n^a e^{-lambda_n t} (t <= 0) and
    |A^a e^{-A t} Q| <= (lambda_{n+1}^a + a^a t^{-a}) e^{-lambda_{n+1} t}
    (t > 0) give

        k(nu) = L [lambda_n^a / (nu - lambda_n) + lambda_{n+1}^a / (lambda_{n+1} - nu)
                   + c_a (lambda_{n+1} - nu)^{a-1}],

    on (-inf, 0] and on every truncated window [-T, 0] alike.  The gap
    condition makes k(mu) <= k; k is convex in nu.
    """
    if cert.lipschitz == 0.0:
        return 0.0
    a, lam_n, lam_np1 = cert.alpha, cert.lambda_n, cert.lambda_np1
    return cert.lipschitz * (
        lam_n**a / (nu - lam_n)
        + lam_np1**a / (lam_np1 - nu)
        + cert.c_alpha * (lam_np1 - nu) ** (a - 1.0)
    )


def _horizon_weight(cert: GapCertificate, tol: float) -> tuple[float, float]:
    """(T*, nu*): the backward horizon and the weight that attains it.

    Golden-section search of T(nu) = [ln(10/tol) - ln(1 - k(nu))] / (nu - mu)
    over (mu, lambda_{n+1}), with T = inf where k(nu) >= 1.  The numerator
    is convex in nu and the denominator affine and positive, so T is
    quasiconvex and the search finds its minimum.  At L = 0, T decreases
    to t1 = ln(10/tol) / (lambda_{n+1} - mu) as nu -> lambda_{n+1}, and
    that limit is returned.
    """
    if tol <= 0.0:
        raise ParameterError("tolerance must be positive")
    target = math.log(10.0 / tol)
    if cert.lipschitz == 0.0:
        return target / (cert.lambda_np1 - cert.mu), cert.lambda_np1

    def horizon(nu):
        k = weighted_factor(cert, nu)
        return (target - math.log1p(-k)) / (nu - cert.mu) if k < 1.0 else math.inf

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = cert.mu, cert.lambda_np1
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    ta, tb = horizon(a), horizon(b)
    for _ in range(100):
        # ties keep the left part: the feasible set k(nu) < 1 starts at mu
        if ta <= tb:
            hi, b, tb = b, a, ta
            a = hi - shrink * (hi - lo)
            ta = horizon(a)
        else:
            lo, a, ta = a, b, tb
            b = lo + shrink * (hi - lo)
            tb = horizon(b)
    return (ta, a) if ta <= tb else (tb, b)


def backward_horizon(cert: GapCertificate, tol: float) -> float:
    """Horizon T* keeping the truncated graph value within tol/10 of m(x).

    Let xi* be the fixed point on (-inf, 0] and xi_T that of the operator
    truncated at -T.  The Q integral from -inf to t >= -T splits at -T
    into e^{-A(t+T)} Q xi*(-T) plus the integral from -T, so on [-T, 0]

        xi* = T_T xi* + r,   r(t) = e^{-A(t+T)} Q xi*(-T).

    The forcing and the OU driver enter xi* and xi_T identically, so for
    any weight nu in (mu, lambda_{n+1}) with k(nu) = ``weighted_factor``
    below one, the e^{nu t}-weighted sup norm gives
    |xi_T - xi*|_nu <= k(nu) |xi_T - xi*|_nu + |r|_nu.  Since
    lambda_{n+1} > nu, |r|_nu <= e^{-nu T} |xi*(-T)|_a
    <= e^{-(nu - mu) T} |xi*|_mu, and at t = 0 the weight is one:

        |m_T(x) - m(x)|_a <= e^{-(nu - mu) T} |xi*|_mu / (1 - k(nu)).

    Relative to |xi*|_mu (the unit-constant convention of the tolerance),
    the bound is at most tol/10 once

        T >= [ln(10/tol) + ln(1/(1 - k(nu)))] / (nu - mu),

    and T* is the minimum of the right side over nu (``_horizon_weight``).
    It is never below t1 = ln(10/tol) / (lambda_{n+1} - mu), and equals t1
    when L = 0.  The bound holds for the graph value, not for the weighted
    sup norm of the whole history, which near -T keeps an O(1) error.
    """
    return _horizon_weight(cert, tol)[0]


def weighted_sup_norm(wmu: np.ndarray, values: np.ndarray, wts_alpha: np.ndarray) -> float:
    """max over nodes t_k of wmu_k ||A^alpha v_k||, with wmu_k = e^{mu t_k} cached."""
    return float(np.max(wmu * _node_norms(values, wts_alpha)))


class LPContext:
    """Precomputed discretisation of the backward fixed-point operator.

    Bundles the problem data (spectrum, certificate, nonlinearity, forcing
    translated by tau, OU driver) with everything that does not change
    between operator applications: the node set, the OU window, the exact
    forcing cells, the per-mode filter coefficients and F itself.  The
    solver tolerance ``tol`` is fixed here; without an explicit ``t_back``
    the window is sized for it.

    A history is a bare (nodes, modes) array on ``times``, stored
    mode-major like every node array here; its last row is the graph point
    x + m(x).  The resolved block P is the first ``cert.n`` columns, Q the
    rest.
    """

    def __init__(
        self,
        spectrum: Spectrum,
        cert: GapCertificate,
        nonlinearity: Nonlinearity,
        forcing: ForcingSignal,
        ou: OUProcess,
        tau: float = 0.0,
        t_back: float | None = None,
        tol: float = 1e-6,
        seed: int | None = None,
    ):
        if cert.n >= spectrum.size:
            raise DimensionMismatchError("certificate index exceeds the truncation")
        if tol <= 0.0:
            raise ParameterError("tolerance must be positive")
        self.spectrum = spectrum
        self.cert = cert
        self.nonlinearity = nonlinearity
        self.forcing = forcing
        self.ou = ou
        self.tau = float(tau)
        self.tol = float(tol)
        self.seed = seed

        self.h = ou.grid.h
        if t_back is None:
            t_back = backward_horizon(cert, tol)
        self.n_cells = max(int(math.ceil(t_back / self.h - 1e-9)), 2)
        self.t_back = self.n_cells * self.h
        if cert.lambda_n * self.t_back > 500.0:
            raise ParameterError(
                "backward horizon too long for the resolved modes "
                f"(lambda_n * t_back = {cert.lambda_n * self.t_back:g} > 500)"
            )
        lo = ou.grid.offset(-self.t_back)
        hi = ou.grid.offset(0.0)
        self.times = np.arange(ou.grid.index(-self.t_back), 1) * self.h
        self.z = _mode_major(ou.values[lo : hi + 1])
        self.f = nonlinearity.evaluator(spectrum)

        lam = spectrum.lambdas
        self.damp = np.exp(-lam * self.h)
        self.grow = np.exp(lam * self.h)
        self.w1 = -np.expm1(-lam * self.h) / lam
        self.wts_alpha = spectrum.weights_alpha()
        self.wmu = np.exp(cert.mu * self.times)
        self.gcells = _mode_major(
            cell_convolution(shift_forcing(forcing, self.tau), spectrum, self.times[:-1], self.h)
        )
        # Per-P-mode backward flow e^{-lambda t} on the window (t <= 0).
        self.p_flow = _mode_major(np.exp(-np.outer(self.times, lam[: cert.n])))
        self.ratio_slack = 5.0 * self.h * cert.lambda_np1

    # ---- helpers --------------------------------------------------------

    def s_norm(self, values: np.ndarray) -> float:
        return weighted_sup_norm(self.wmu, values, self.wts_alpha)

    def initial_guess(self, x: np.ndarray) -> np.ndarray:
        """Backward linear flow of the base point (exact for F=0, g=0)."""
        x = self.spectrum.check_state(x)
        n = self.cert.n
        xi = np.zeros_like(self.z)
        xi[:, :n] = self.p_flow * x[:n]
        return xi

    def rebase(self, xi: np.ndarray, x_from: np.ndarray, x_to: np.ndarray) -> np.ndarray:
        """Move a history's resolved linear part e^{-At} x from x_from to x_to.

        Applied to the fixed point at x_from, this is a warm start for the
        solve at a nearby x_to.
        """
        n = self.cert.n
        moved = xi.copy(order="K")
        moved[:, :n] += self.p_flow * (x_to - x_from)[:n]
        return moved

    def project_p(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        out[..., : self.cert.n] = v[..., : self.cert.n]
        return out

    def project_q(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        out[..., self.cert.n :] = v[..., self.cert.n :]
        return out

    def z_at_zero(self) -> np.ndarray:
        return self.z[-1]


def _duhamel(u: np.ndarray, ctx: LPContext) -> np.ndarray:
    """Cell-rule Duhamel sums of per-cell increments ``u`` on a node set.

    Q modes accumulate forward from zero at the first node; P modes carry
    minus the sum over the cells ahead, zero at the last node.  Both
    operators add their homogeneous term to this.
    """
    n = ctx.cert.n  # the resolved modes are the first n
    out = np.empty((u.shape[0] + 1, u.shape[1]), order="F")
    out[0, n:] = 0.0
    _filter_modes(u[:, n:], ctx.damp[n:], out=out[1:, n:])
    out[-1, :n] = 0.0
    out[:-1, :n] = -_filter_modes(u[:, :n], ctx.grow[:n], ctx.grow[:n], reverse=True)
    return out


def lp_apply(xi: np.ndarray, x: np.ndarray, ctx: LPContext) -> np.ndarray:
    """One application of the backward integral operator at every node."""
    if xi.shape != (ctx.times.size, ctx.spectrum.size):
        raise GridAlignmentError("history nodes do not match the context window")
    x = ctx.spectrum.check_state(x)
    u = ctx.w1 * ctx.f(xi + ctx.z)[:-1] + ctx.gcells  # per-cell increments
    out = _duhamel(u, ctx)
    out[:, : ctx.cert.n] += ctx.p_flow * x[: ctx.cert.n]
    return out


def _picard(step, dist, start, factor: float, slack: float, tol: float):
    """Picard iteration ``x <- step(x)`` of a contraction with factor ``factor``.

    Returns (fixed point, iterations) once consecutive iterates are at
    most (1 - factor) tol apart under ``dist``, which bounds the distance
    to the fixed point by tol from any start.  Raises
    ContractionViolationError when a measured ratio of consecutive
    distances reaches 1 or exceeds factor + slack (the quadrature slack),
    or when the a-priori iteration cap set from the first distance is
    exceeded.
    """
    thresh = (1.0 - factor) * tol
    # budget from the slack-adjusted ratio, so a contraction running
    # exactly at the quadrature allowance is not misreported
    rate = min(factor + slack, 0.999)
    old = start
    del start  # so a history is not held past its first step
    cap = None
    d_prev = None
    iterations = 0
    while True:
        new = step(old)
        iterations += 1
        d = dist(new, old)
        if d <= thresh:
            return new, iterations
        if cap is None:
            cap = math.ceil(math.log(thresh / d) / math.log(rate)) + 1
        if d_prev is not None:
            ratio = d / d_prev
            if ratio >= 1.0:
                raise ContractionViolationError(
                    f"iterate distances stopped decreasing (ratio {ratio:g}); "
                    f"certified factor {factor:g} is empirically exceeded"
                )
            if ratio > factor + slack:
                raise ContractionViolationError(
                    f"measured contraction ratio {ratio:g} exceeds "
                    f"factor + slack = {factor + slack:g}"
                )
        if iterations > cap:
            raise ContractionViolationError(
                f"fixed point not reached within the {cap}-iteration budget"
            )
        d_prev = d
        old = new


def solve_fixed_point(
    x: np.ndarray, ctx: LPContext, start: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Picard iteration of the backward operator to S-norm accuracy ctx.tol.

    Iteration starts from the history ``start`` when given (e.g. a
    neighbouring point's fixed point moved by ``LPContext.rebase``), else
    from the linear flow of x.  Stops and raises as ``_picard`` does, with
    factor k and the context's quadrature slack.
    """
    return _picard(
        lambda xi: lp_apply(xi, x, ctx),
        lambda new, old: ctx.s_norm(new - old),
        ctx.initial_guess(x) if start is None else start,
        ctx.cert.k,
        ctx.ratio_slack,
        ctx.tol,
    )


def solve_with_residual(x: np.ndarray, ctx: LPContext):
    """Fixed point plus its measured operator residual (one extra apply)."""
    xi, iterations = solve_fixed_point(x, ctx)
    residual = ctx.s_norm(lp_apply(xi, x, ctx) - xi)
    return xi, iterations, residual


def manifold_point(x: np.ndarray, ctx: LPContext) -> np.ndarray:
    """Off-graph part of the fixed point at time zero: the graph value m(x)."""
    xi, _ = solve_fixed_point(x, ctx)
    return ctx.project_q(xi[-1])


def tilde_manifold_point(x: np.ndarray, ctx: LPContext) -> np.ndarray:
    """Graph value of the original-variable manifold, offset by the OU state."""
    z0 = ctx.z_at_zero()
    base = ctx.project_p(np.asarray(x, dtype=float) - z0)
    return ctx.project_q(z0) + manifold_point(base, ctx)


@dataclass(frozen=True)
class ManifoldChart:
    """Sampled graph of the manifold over a grid of resolved-mode points."""

    tau: float
    seed: int | None
    x_grid: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    lipschitz: float
    cert: GapCertificate
    tol: float
    t_back: float

    def __post_init__(self):
        if np.any(self.residuals > self.tol * (1.0 + 1e-9)):
            raise ValidationError(
                f"chart residual {float(np.max(self.residuals)):g} exceeds tol {self.tol:g}"
            )
        bound = 1.0 / (1.0 - self.cert.k) + LIPSCHITZ_SLACK
        if self.lipschitz > bound:
            raise ValidationError(
                f"empirical chart Lipschitz constant {self.lipschitz:g} exceeds {bound:g}"
            )

    @property
    def points(self) -> np.ndarray:
        """Full graph points x + m(x)."""
        return self.x_grid + self.values


def build_chart(x_grid: np.ndarray, ctx: LPContext) -> ManifoldChart:
    """Evaluate the graph map over a grid of base points.

    Records per-point fixed-point residuals and the empirical Lipschitz
    constant over all grid pairs.
    """
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if x_grid.shape[0] < 1:
        raise DomainError("chart grid must contain at least one point")
    x_grid = np.array([ctx.project_p(x) for x in x_grid])

    values, residuals = [], []
    for x in x_grid:
        xi, _, residual = solve_with_residual(x, ctx)
        values.append(ctx.project_q(xi[-1]))
        residuals.append(residual)
    values = np.array(values)
    residuals = np.array(residuals)

    lip = 0.0
    k_pts = x_grid.shape[0]
    for i in range(k_pts):
        for j in range(i + 1, k_pts):
            dx = norm_alpha(x_grid[i] - x_grid[j], ctx.spectrum)
            if dx > 1e-14:
                lip = max(lip, norm_alpha(values[i] - values[j], ctx.spectrum) / dx)

    return ManifoldChart(
        tau=ctx.tau,
        seed=ctx.seed,
        x_grid=x_grid,
        values=values,
        residuals=residuals,
        lipschitz=lip,
        cert=ctx.cert,
        tol=ctx.tol,
        t_back=ctx.t_back,
    )
