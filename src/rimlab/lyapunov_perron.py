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
(relative to |T(0)|_rho, one application from the zero history, in the
rho-weight of the two-weight rule that also sizes the forward tracking
window, ``_two_weight_horizon``).  Both recursions
are first-order filters, evaluated per mode by ``spectral._filter_modes``
on histories stored mode-major.  The forward tracking operator shares
these sums (``_duhamel``) and the Picard loop (``_picard``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Nonlinearity, integrate
from .errors import CertificateError, RimlabError
from .forcing import ForcingSignal, _cell_columns, shift_forcing
from .randomness import OUProcess, whole_steps
from .spectral import Spectrum, _filter_modes, _mode_major, _node_norms, _step_weights, norm_alpha

__all__ = [
    "c_alpha_constant",
    "GapCertificate",
    "check_gap",
    "scan_gap",
    "weighted_factor",
    "backward_horizon",
    "LPContext",
    "lp_apply",
    "solve_fixed_point",
    "ManifoldChart",
    "build_chart",
]

def c_alpha_constant(alpha: float) -> float:
    """The singular-kernel constant alpha^alpha * Gamma(1 - alpha); zero at 0."""
    if not (0.0 <= alpha < 1.0):
        raise RimlabError("constant defined for alpha in [0, 1)")
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
        raise RimlabError(f"contraction parameter k={k} must lie in (0, 1)")
    if lipschitz < 0.0:
        raise RimlabError("Lipschitz constant must be nonnegative")
    if not (1 <= n < s.size):
        raise RimlabError(f"gap index n={n} must satisfy 1 <= n < {s.size}")
    lam_n = float(s.lambdas[n - 1])
    lam_np1 = float(s.lambdas[n])
    gap = lam_np1 - lam_n
    ca = c_alpha_constant(s.alpha)
    required = (2.0 * lipschitz / k) * (
        lam_np1**s.alpha + lam_n**s.alpha + ca * gap**s.alpha
    )
    return lam_n, lam_np1, gap, ca, required


def check_gap(s: Spectrum, lipschitz: float, k: float, n: int) -> GapCertificate:
    """Validate the gap condition at index n and derive (mu, delta, c_alpha)."""
    lam_n, lam_np1, gap, ca, required = _gap_parts(s, lipschitz, k, n)
    margin = gap - required
    if gap <= 0.0:
        raise CertificateError(f"no spectral gap at n={n}: repeated eigenvalue")
    if margin < 0.0:
        raise CertificateError(
            f"gap condition fails at n={n}: gap {gap:g} < required {required:g} "
            f"(margin {margin:g})"
        )
    mu = lam_n + (2.0 * lipschitz / k) * lam_n**s.alpha
    if mu > lam_np1:
        raise CertificateError(f"decay weight mu={mu:g} escapes ({lam_n:g}, {lam_np1:g})")
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


def _two_weight_horizon(cert: GapCertificate, tol: float, factor, tail):
    """(T*, rho*, nu*): the least horizon over weight pairs, or None.

    A window's truncation bound at weights lambda_n < rho < nu <
    lambda_{n+1}, with its contraction factor ``factor`` below one at both,
    is at most tol/10 (relative to the window's reference size) once

        T >= [ln(10/tol) + ln tail(nu) + ln(1/(1 - factor(rho)))
              + ln(1/(1 - factor(nu)))] / (nu - rho).

    ``factor`` is convex on (lambda_n, lambda_{n+1}) and below one at mu,
    so where it is below one is an interval around mu; its ends are found
    by bisection.  The right side (at least 0) is evaluated on the pairs
    rho < nu of 200 evenly spaced weights spanning that interval, and the
    least is returned.  Every feasible pair bounds the tail, so this coarse
    search is sound; it only forgoes the last few thousandths of T.  Both
    callables take an array of weights.  The callers handle tol <= 0 and
    L = 0 (no tail to bound); at L > 0 this returns None only when no pair
    is feasible.
    """
    # in float64 scalars, so a weight at an eigenvalue (mu rounds to
    # lambda_n when L is tiny) gives an infinite factor instead of raising
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = []
        for outside in np.array([cert.lambda_n, cert.lambda_np1]):
            inside = cert.mu
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                if factor(mid) < 1.0:
                    inside = mid
                else:
                    outside = mid
            ends.append(inside)
        x = np.linspace(ends[0], ends[1], 200)
        d = factor(x)
        log_gain = np.where(d < 1.0, -np.log1p(-d), np.inf)  # ln 1/(1 - factor)
        # rows rho, columns nu; only rho < nu (a positive nu - rho) is a pair
        numer = math.log(10.0 / tol) + np.log(tail(x)) + log_gain[:, None] + log_gain
    gap = x - x[:, None]
    horizon = np.full(gap.shape, np.inf)
    pairs = gap > 0.0
    horizon[pairs] = np.maximum(numer[pairs], 0.0) / gap[pairs]
    i, j = np.unravel_index(np.argmin(horizon), horizon.shape)
    if not math.isfinite(horizon[i, j]):
        return None
    return float(horizon[i, j]), float(x[i]), float(x[j])


def backward_horizon(cert: GapCertificate, tol: float) -> float:
    """Horizon T* keeping the truncated graph value within tol/10 of m(x).

    Let xi* be the fixed point on (-inf, 0] and xi_T that of the operator
    truncated at -T.  The Q integral from -inf to t >= -T splits at -T
    into e^{-A(t+T)} Q xi*(-T) plus the integral from -T, so on [-T, 0]

        xi* = T_T xi* + r,   r(t) = e^{-A(t+T)} Q xi*(-T).

    The forcing and the OU driver enter xi* and xi_T identically.  Take
    weights lambda_n < rho < nu < lambda_{n+1} with k(rho) and k(nu)
    (``weighted_factor``) below one.  In the e^{rho t}-weighted sup norm the
    operator on (-inf, 0] contracts with k(rho), so
    |xi*|_rho <= |T(0)|_rho / (1 - k(rho)), where T(0) is one application
    to the zero history, and |xi*(-T)|_a <= e^{rho T} |xi*|_rho.  Since
    lambda_{n+1} > nu, |r|_nu <= e^{-nu T} |xi*(-T)|_a, and in the
    e^{nu t}-weighted norm |xi_T - xi*|_nu <= k(nu) |xi_T - xi*|_nu + |r|_nu.
    At t = 0 the weight is one:

        |m_T(x) - m(x)|_a
            <= e^{-(nu - rho) T} |T(0)|_rho / ((1 - k(rho))(1 - k(nu))).

    Relative to |T(0)|_rho (the size of the data: the convention of the
    tolerance), this is at most tol/10 once

        T >= [ln(10/tol) + ln(1/(1 - k(rho))) + ln(1/(1 - k(nu)))] / (nu - rho),

    and T* is the least right side over the pairs that
    ``_two_weight_horizon`` searches, the search that sizes the forward
    window too.  Some pair near mu is feasible whenever L > 0, since
    k(mu) <= k < 1.  With F = 0 there is no pair to search, and T* is
    t1 = ln(10/tol) / (lambda_{n+1} - mu), the off-graph tail alone.  Were
    no pair feasible at L > 0 (in floating point), T* is infinite, a window
    ``build_problem`` refuses.  The bound holds for the graph value, not for
    the weighted sup norm of the whole history, which near -T keeps an O(1)
    error.
    """
    if tol <= 0.0:
        raise RimlabError("tolerance must be positive")
    if cert.lipschitz == 0.0:
        return math.log(10.0 / tol) / (cert.lambda_np1 - cert.mu)
    weights = _two_weight_horizon(cert, tol, lambda x: weighted_factor(cert, x), lambda x: 1.0)
    return math.inf if weights is None else weights[0]


def weighted_sup_norm(wmu: np.ndarray, values: np.ndarray, wts_alpha: np.ndarray) -> float:
    """max over nodes t_k of wmu_k ||A^alpha v_k||, with wmu_k = e^{mu t_k} cached."""
    return float(np.max(wmu * _node_norms(values, wts_alpha)))


class LPContext:
    """Precomputed discretisation of the backward fixed-point operator.

    Bundles the problem data (spectrum, certificate, nonlinearity, forcing
    translated by tau, OU driver) with everything that does not change
    between operator applications: the node set, the OU window, the exact
    forcing cells (``gcells``, only the columns of the ``forced`` modes),
    the per-mode filter coefficients and F itself.  The OU window ``z`` is
    a read-only view of the driver's mode-major table, so every context on
    one table shares its values and copies none.  The window ``t_back``
    (rounded to whole steps) and the solver tolerance ``tol`` are fixed
    here; ``config.build_problem`` derives both, the window by
    ``backward_horizon``.  The solver's S-norm keeps the certified
    mu-weight (``wmu``); the weight pair rho < nu that sized the window
    enters nothing here.

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
        tau: float,
        t_back: float,
        tol: float,
    ):
        if cert.n >= spectrum.size:
            raise RimlabError("certificate index exceeds the truncation")
        if tol <= 0.0:
            raise RimlabError("tolerance must be positive")
        self.spectrum = spectrum
        self.cert = cert
        self.nonlinearity = nonlinearity
        self.forcing = forcing
        self.ou = ou
        self.tau = float(tau)
        self.tol = float(tol)

        self.h = ou.grid.h
        self.n_cells = max(whole_steps(t_back, self.h), 2)
        self.t_back = self.n_cells * self.h
        if cert.lambda_n * self.t_back > 500.0:
            raise RimlabError(
                "backward horizon too long for the resolved modes "
                f"(lambda_n * t_back = {cert.lambda_n * self.t_back:g} > 500)"
            )
        lo = ou.grid.offset(-self.t_back)
        hi = ou.grid.offset(0.0)
        self.times = np.arange(ou.grid.index(-self.t_back), 1) * self.h
        self.z = ou.values[lo : hi + 1]  # a view of the shared, read-only table
        self.f = nonlinearity.evaluator(spectrum)

        lam = spectrum.lambdas
        self.damp, self.w1 = _step_weights(spectrum, self.h)
        self.grow = np.exp(lam * self.h)
        self.wts_alpha = spectrum.weights_alpha()
        self.wmu = np.exp(cert.mu * self.times)
        # Forcing cells on the forced modes only: every other column is zero,
        # so no other column is tabulated.
        g = shift_forcing(forcing, self.tau)
        forced = {*np.flatnonzero(g.amplitudes).tolist(), *(term.mode - 1 for term in g.terms)}
        self.forced = sorted(forced)
        self.gcells = _mode_major(_cell_columns(g, spectrum, self.times[:-1], self.h, self.forced))
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


def _duhamel(u: np.ndarray, ctx: LPContext, q_start) -> np.ndarray:
    """Cell-rule Duhamel sums of per-cell increments ``u`` on a node set.

    Q modes accumulate forward from ``q_start`` at the first node, so they
    carry its decay e^{-At} q_start, the filter's zero-input response; P
    modes carry minus the sum over the cells ahead, zero at the last node.
    The backward operator starts Q at zero and adds its P term to this.
    """
    n = ctx.cert.n  # the resolved modes are the first n
    out = np.empty((u.shape[0] + 1, u.shape[1]), order="F")
    out[0, n:] = q_start
    _filter_modes(u[:, n:], ctx.damp[n:], q_start, out=out[1:, n:])
    out[-1, :n] = 0.0
    _filter_modes(u[:, :n], ctx.grow[:n], 0.0, ctx.grow[:n], reverse=True, out=out[:-1, :n])
    np.negative(out[:-1, :n], out=out[:-1, :n])
    return out


def lp_apply(xi: np.ndarray, x: np.ndarray, ctx: LPContext) -> np.ndarray:
    """One application of the backward integral operator at every node."""
    if xi.shape != (ctx.times.size, ctx.spectrum.size):
        raise RimlabError("history nodes do not match the context window")
    x = ctx.spectrum.check_state(x)
    u = ctx.f(xi[:-1] + ctx.z[:-1])  # per-cell increments, scaled in place
    u *= ctx.w1
    u[:, ctx.forced] += ctx.gcells
    out = _duhamel(u, ctx, 0.0)
    out[:, : ctx.cert.n] += ctx.p_flow * x[: ctx.cert.n]
    return out


def _picard(step, dist, starts: list, factor: float, slack: float, tol: float):
    """Picard iteration ``x <- step(x)`` of a contraction with factor ``factor``.

    The iteration starts from the one item of ``starts``, which it takes
    out of the list, so the caller holds no reference to the start during
    the solve.

    Returns (fixed point, iterations) once consecutive iterates are at
    most (1 - factor) tol apart under ``dist``, which bounds the distance
    to the fixed point by tol from any start.  Raises CertificateError
    when a measured ratio of consecutive distances reaches 1 or exceeds
    factor + slack (the quadrature slack), or when the a-priori iteration
    cap set from the first distance is exceeded.  The fixed point returned
    is ``step`` of the final step's start, its last argument;
    ``solve_fixed_point`` hands that start back on request.
    """
    thresh = (1.0 - factor) * tol
    # budget from the slack-adjusted ratio, so a contraction running
    # exactly at the quadrature allowance is not misreported
    rate = min(factor + slack, 0.999)
    old = starts.pop()  # so a history is not held past its first step
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
                raise CertificateError(
                    f"iterate distances stopped decreasing (ratio {ratio:g}); "
                    f"certified factor {factor:g} is empirically exceeded"
                )
            if ratio > factor + slack:
                raise CertificateError(
                    f"measured contraction ratio {ratio:g} exceeds "
                    f"factor + slack = {factor + slack:g}"
                )
        if iterations > cap:
            raise CertificateError(f"fixed point not reached within the {cap}-iteration budget")
        d_prev = d
        old = new


def solve_fixed_point(
    x: np.ndarray, ctx: LPContext, start: np.ndarray | None = None, *, final_start: bool = False
) -> tuple:
    """Picard iteration of the backward operator to S-norm accuracy ctx.tol.

    Iteration starts from the history ``start`` when given (e.g. a
    neighbouring point's fixed point moved by ``LPContext.rebase``), else
    from the linear flow of x.  Stops and raises as ``_picard`` does, with
    factor k and the context's quadrature slack.  Returns (fixed point,
    iterations), and with ``final_start`` also the history the final step
    started from, which the operator maps to the returned fixed point.
    """
    final = [None]

    def step(xi):
        final[0] = xi
        return lp_apply(xi, x, ctx)

    starts = [ctx.initial_guess(x) if start is None else start]
    del start  # handed to _picard, so no frame here holds it during the solve
    xi, iterations = _picard(
        step,
        lambda new, old: ctx.s_norm(new - old),
        starts,
        ctx.cert.k,
        ctx.ratio_slack,
        ctx.tol,
    )
    return (xi, iterations, final[0]) if final_start else (xi, iterations)


def _sweep_start(ctx: LPContext, x, done: list) -> np.ndarray | None:
    """Start of a sweep's solve at x from ``done``, the (base point, fixed
    point) pairs of the solves before it, oldest first; all but the latest
    pair are dropped from ``done``.

    None with no pair, the fixed point moved to x by ``LPContext.rebase``
    with one, else the start at x on the secant through the fixed points
    xi0 at x0 and xi1 at x1: rebase(xi1, x1 -> x) + s (xi1 - rebase(xi0,
    x0 -> x1)), with s the projection of x - x1 onto x1 - x0 in P
    coordinates (0 when x0 = x1).
    """
    if len(done) < 2:
        return ctx.rebase(done[0][1], done[0][0], x) if done else None
    (x0, xi0), (x1, xi1) = done.pop(0), done[0]
    n = ctx.cert.n
    step = (x1 - x0)[:n]
    norm2 = float(step @ step)
    s = float((x - x1)[:n] @ step) / norm2 if norm2 > 0.0 else 0.0
    start = ctx.rebase(xi1, x1 + s * (x1 - x0), x)
    diff = xi1 - xi0
    diff *= s
    start += diff
    return start


def _sweep(xs, ctx: LPContext):
    """Fixed points at the base points ``xs``, solved in order as one continuation.

    The first solve starts cold and the second from the first fixed point
    moved to its base point by ``LPContext.rebase``.  Each later one starts
    from the secant through the two previous fixed points
    (``_sweep_start``), which is exact to first order along a line of base
    points.  Each start is handed to its solve, and the older fixed point
    dropped, before the solve runs.  The stop rule bounds the distance to
    the fixed point by tol from any start, so a predicted start saves
    iterations and loosens nothing.  Yields each (fixed point, final start): the final start is
    the history that began the solve's final Picard step, which the
    operator maps to the fixed point, so a solve of the same point under a
    translated operator can start from it (``build_chart``,
    ``ModelProblem.graph_values``).
    """
    done = []  # the latest (base point, fixed point) pairs, oldest first
    for x in xs:
        xi, _, final = solve_fixed_point(x, ctx, _sweep_start(ctx, x, done), final_start=True)
        done.append((x, xi))
        yield xi, final
        del final


@dataclass(frozen=True)
class ManifoldChart:
    """Sampled graph of the manifold over a grid of resolved-mode points.

    ``translates`` maps each translated tau to the graph values there at
    the grid's points.  With a flow time ``flow_t``, ``off_graph`` holds,
    per point, the Q part of the graph point flowed for ``flow_t`` minus
    the graph on the noise shifted by ``flow_t`` at the flowed P part.
    """

    tau: float
    x_grid: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    lipschitz: float
    cert: GapCertificate
    tol: float
    t_back: float
    translates: dict = field(default_factory=dict, repr=False, compare=False)
    flow_t: float | None = None
    off_graph: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if np.any(self.residuals > self.tol * (1.0 + 1e-9)):
            raise RimlabError(
                f"chart residual {float(np.max(self.residuals)):g} exceeds tol {self.tol:g}"
            )


def _translated_value(x, ctx: LPContext, start: np.ndarray) -> np.ndarray:
    """Graph value m(P x) under ``ctx``, solved from ``start``.

    ``start`` is the final start of the same point's solve under an
    operator that ``ctx`` translates.  At a translation by a period the
    operator maps that start onto the fixed point, so the solve stops after
    one application, at rounding level.
    """
    return ctx.project_q(solve_fixed_point(ctx.project_p(x), ctx, start)[0][-1])


def _flow_leg(x, m, start, ctx: LPContext, t: float, ctx_t: LPContext) -> np.ndarray:
    """Q part of the graph point x + m flowed for time t, minus the graph at
    its flowed P part under ``ctx_t`` (translated by t, on the noise shifted
    by t).

    The point is flowed by ``integrate`` with the forcing translated by the
    chart's tau.  By the cocycle property the chart history continued by
    the flowed orbit is the fixed point under ``ctx_t`` up to the window's
    far end, so the solve starts from the last rows of the point's final
    start followed by its orbit, copied into one mode-major history that
    is handed to the solve.  The stop rule bounds the distance to the
    fixed point by tol from any start, so a flow that leaves the discrete
    graph only moves the start and still shows.
    """
    orbit = integrate(
        x + m, 0.0, t, ctx.ou, shift_forcing(ctx.forcing, ctx.tau), ctx.nonlinearity, ctx.spectrum
    )
    steps, size = orbit.shape[0] - 1, start.shape[0]
    xi, _ = solve_fixed_point(
        ctx_t.project_p(orbit[-1]),
        ctx_t,
        np.concatenate((start[steps:], orbit[1:][-size:]), out=np.empty(start.shape, order="F")),
    )
    return ctx_t.project_q(orbit[-1]) - ctx_t.project_q(xi[-1])


def build_chart(
    x_grid: np.ndarray,
    ctx: LPContext,
    translates: tuple = (),
    flow: tuple | None = None,
) -> ManifoldChart:
    """Evaluate the graph map over a grid of base points.

    The points are solved in grid order as one ``_sweep``.  While a point's
    fixed point and final start are live, every solve that starts from them
    runs, and then both are dropped, so the chart holds values only:

    - the fixed-point residual (one extra operator application);
    - the translate under each context of ``translates`` (the operator at
      a translated tau on the same window, ``_translated_value``);
    - with ``flow = (t, ctx_t)``, the invariance leg (``_flow_leg``), where
      ``ctx_t`` is the operator translated by t on the noise shifted by t.
      A ``ctx_t`` on another backward window raises RimlabError.

    Also records the empirical Lipschitz constant over all grid pairs.
    """
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if x_grid.shape[0] < 1:
        raise RimlabError("chart grid must contain at least one point")
    x_grid = np.array([ctx.project_p(x) for x in x_grid])
    if flow is not None and (flow[1].t_back != ctx.t_back or flow[1].z.shape != ctx.z.shape):
        raise RimlabError("flow context window differs from the chart's backward window")

    values, residuals, off_graph = [], [], []
    shifted = [[] for _ in translates]
    for x, (xi, start) in zip(x_grid, _sweep(x_grid, ctx)):
        values.append(ctx.project_q(xi[-1]))
        residuals.append(ctx.s_norm(lp_apply(xi, x, ctx) - xi))
        for rows, ctx_s in zip(shifted, translates):
            rows.append(_translated_value(x, ctx_s, start))
        if flow is not None:
            off_graph.append(_flow_leg(x, values[-1], start, ctx, *flow))
        del start  # hold no spare history while the sweep solves the next point
    values = np.array(values)
    residuals = np.array(residuals)

    # row by row, so memory stays linear in the grid; dx = 0 has no quotient
    lip = 0.0
    for i in range(1, x_grid.shape[0]):
        dx = norm_alpha(x_grid[:i] - x_grid[i], ctx.spectrum)
        far = dx > 1e-14
        dm = norm_alpha(values[:i][far] - values[i], ctx.spectrum)
        lip = float(np.max(dm / dx[far], initial=lip))

    return ManifoldChart(
        tau=ctx.tau,
        x_grid=x_grid,
        values=values,
        residuals=residuals,
        lipschitz=lip,
        cert=ctx.cert,
        tol=ctx.tol,
        t_back=ctx.t_back,
        translates={c.tau: np.array(rows) for c, rows in zip(translates, shifted)},
        flow_t=None if flow is None else flow[0],
        off_graph=None if flow is None else np.array(off_graph),
    )
