"""Verification harness: every check of the manifold, with its bound.

Each check (Lipschitz, invariance, tracking, periodicity, almost
periodicity, containment) turns a measured quantity into a ``DefectReport``
with its bound; no bound is written anywhere else.

Every check here compares objects computed on the same stored noise path;
a time shift of the noise is the one OU table on a relabelled grid
(``ModelProblem.ou_for``), never a fresh sample or solve, so each reported
defect is a deterministic function of (seed, configuration).  Invariance
and almost periodicity read one kind of measurement, a leg (t, s) that
their chart's sweep solved (``ModelProblem.chart`` with ``legs``): the
graph flowed for time t against the graph at tau + s on the noise shifted
by t, read by ``_leg_distance``.  Invariance is the leg (t, t), a
translate by a near-period tau0 the leg (0, tau0).  Periodicity is
bounded from the forcing cells with no solve (``periodicity_bound``), and
containment alone solves graph values of its own
(``ModelProblem.graph_values``), so no check depends on which ran before
it.
Reported bounds carry the fixed slack constants below, so a configuration
enters a bound only through the problem and its numerics (h, tol).  The
continuum statements (defect exactly zero, containment exact) are only
recovered in the joint limit of step, tolerance and horizons, which the
two-resolution ratio checks in the test suite certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import cocycle_phi
from .errors import RimlabError
from .forcing import almost_period_defect
from .lyapunov_perron import LPContext, ManifoldChart, _duhamel
from .problem import ModelProblem
from .spectral import norm_alpha
from .tracking import TrackingResult

__all__ = [
    "DefectReport",
    "AttractorCloud",
    "LIPSCHITZ_SLACK",
    "INVARIANCE_CONSTANT",
    "ENVELOPE_SLACK",
    "SLOPE_SLACK",
    "PERIODICITY_SLACK",
    "lipschitz_defect",
    "invariance_defect",
    "tracking_defects",
    "periodicity_bound",
    "ap_defect",
    "pullback_attractor",
    "containment_defect",
]

# Bound constants, fixed here: no config value or keyword sets one.
LIPSCHITZ_SLACK = 0.05  # excess over the chart's certified Lipschitz bound 1/(1-k)
INVARIANCE_CONSTANT = 10.0  # invariance bound: this times (h + tol)
ENVELOPE_SLACK = 0.02  # relative excess of a decay curve over its envelope
SLOPE_SLACK = 0.1  # excess of a fitted log slope over -mu
PERIODICITY_SLACK = 1e-4  # periodicity bound: 2 tol plus this

_KINDS = (
    "invariance",
    "periodicity",
    "almost_periodicity",
    "containment",
    "lipschitz",
    "tracking",
)


@dataclass(frozen=True)
class DefectReport:
    """One measured defect with its optional bound; passes iff value <= bound."""

    kind: str
    value: float
    bound: float | None = None
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise RimlabError(f"unknown defect kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        return self.bound is None or self.value <= self.bound

    def as_dict(self) -> dict:
        """The report as a document entry; a non-finite value, which JSON
        writes as null, also keeps its text ("-inf", "inf", "nan")."""
        doc = {
            "kind": self.kind,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
            "context": dict(sorted(self.context.items())),
        }
        if not np.isfinite(self.value):
            doc["value_nonfinite"] = str(float(self.value))
        return doc


@dataclass(frozen=True)
class AttractorCloud:
    """Pullback ensemble endpoints approximating the attractor fibre."""

    tau: float
    pullback_time: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise RimlabError("ensemble must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise RimlabError("cloud contains non-finite points")

    @property
    def ensemble_size(self) -> int:
        return int(self.points.shape[0])


def lipschitz_defect(chart: ManifoldChart) -> DefectReport:
    """Empirical Lipschitz constant of the chart map against 1/(1-k)."""
    return DefectReport(
        kind="lipschitz",
        value=chart.lipschitz,
        bound=1.0 / (1.0 - chart.cert.k) + LIPSCHITZ_SLACK,
        context={"points": int(chart.x_grid.shape[0]), "tau": chart.tau},
    )


def _leg_distance(chart: ManifoldChart, t: float, s: float, problem: ModelProblem) -> float:
    """Largest D(A^alpha) norm over the chart's points of its leg (t, s):
    the Q part of the graph point flowed for time t minus the graph at
    tau + s on the noise shifted by t (``build_chart``).  At t = 0 this is
    the graph distance |m_tau(x) - m_{tau+s}(x)|_alpha.  A chart without
    the leg raises RimlabError."""
    if (t, s) not in chart.legs:
        raise RimlabError(f"chart has no leg (t, s) = ({t}, {s}) (legs {sorted(chart.legs)})")
    return float(np.max(norm_alpha(chart.legs[(t, s)], problem.spectrum)))


def invariance_defect(chart: ManifoldChart, t: float, problem: ModelProblem) -> DefectReport:
    """Distance of the chart flowed for time t >= 0 to the shifted graph.

    Reads the chart's leg (t, t) (``ModelProblem.chart`` with ``legs``):
    per point, the off-graph part of the flowed graph point against a
    fixed-point solve at forcing translated by t on the shifted noise
    ``ou_for(t)``.  Flow and graph share one cell rule at the problem's
    step, so this matched-resolution defect sits at the solver and
    truncation floor, not at O(h).  A chart without that leg raises
    RimlabError.
    """
    bound = INVARIANCE_CONSTANT * (problem.h + problem.tol)
    return DefectReport(
        kind="invariance",
        value=_leg_distance(chart, t, t, problem),
        bound=float(bound),
        context={
            "t": t,
            "h": problem.h,
            "tol": problem.tol,
            "c_inv": INVARIANCE_CONSTANT,
            "tau": chart.tau,
        },
    )


def tracking_defects(
    results: list[TrackingResult],
    problem: ModelProblem,
    tau: float,
) -> list[DefectReport]:
    """Largest decay-curve/envelope ratio and largest fitted log slope over orbits.

    An orbit that starts on the manifold (its curve stays within 2 tol)
    scores 0 on the envelope check when its prefactor is 0, and -inf on the
    slope check when its curve leaves no slope to fit.  Any other orbit with
    a prefactor of 0 or no fitted slope scores inf.
    """
    ratios, slopes = [], []
    for r in results:
        on_graph = float(np.max(r.decay_curve)) <= 2.0 * problem.tol
        if r.prefactor > 0.0:
            ratios.append(float(np.max(r.decay_curve / r.envelope())))
        else:
            ratios.append(0.0 if on_graph else np.inf)
        slope = r.fitted_slope()
        slopes.append(slope if not np.isnan(slope) else -np.inf if on_graph else np.inf)
    checks = (
        ("envelope", ratios, 1.0 + ENVELOPE_SLACK),
        ("log_slope", slopes, -problem.cert.mu + SLOPE_SLACK),
    )
    return [
        DefectReport(
            kind="tracking",
            value=float(np.max(values)),
            bound=bound,
            context={"check": check, "count": len(results), "tau": tau},
        )
        for check, values, bound in checks
    ]


def _check_period(problem: ModelProblem, period: float) -> None:
    """A signal without trig terms is periodic with every period; one with
    terms must declare the requested one, else RimlabError."""
    if problem.forcing.terms:
        declared = problem.forcing.declared_period
        if declared is None or abs(declared - period) > 1e-9 * max(1.0, period):
            raise RimlabError(f"forcing has declared period {declared!r}, check requested {period}")


def _periodicity_report(
    tau: float, period: float, value: float, problem: ModelProblem
) -> DefectReport:
    return DefectReport(
        kind="periodicity",
        value=value,
        bound=2.0 * problem.tol + PERIODICITY_SLACK,
        context={"tau": tau, "period": period, "slack": PERIODICITY_SLACK, "tol": problem.tol},
    )


def periodicity_defect(chart: ManifoldChart, period: float, problem: ModelProblem) -> DefectReport:
    """Graph distance between the chart's tau and its translate by one
    declared forcing period, the leg (0, period) that the chart's sweep
    solved.

    No command calls this: the periodicity check is ``periodicity_bound``,
    which solves nothing.  It stays as the solved measurement that the
    bound, and the contraction it assumes, are compared against.
    """
    _check_period(problem, period)
    value = _leg_distance(chart, 0.0, period, problem)
    return _periodicity_report(chart.tau, period, value, problem)


def _cell_bound(ctx: LPContext, ctx_s: LPContext) -> float:
    """|D(G_s - G)|_S / (1 - k - ratio_slack) for two contexts on one
    window and one noise path (``periodicity_bound``).  Without a
    contraction to divide by, k + ratio_slack >= 1, RimlabError."""
    kappa = ctx.cert.k + ctx.ratio_slack
    if kappa >= 1.0:
        raise RimlabError(f"no contraction to bound periodicity by: k + ratio_slack = {kappa:g}")
    u = np.zeros((ctx.times.size - 1, ctx.spectrum.size), order="F")
    u[:, ctx.forced] = ctx_s.gcells - ctx.gcells
    return ctx.s_norm(_duhamel(u, ctx, 0.0)) / (1.0 - kappa)


def periodicity_bound(tau: float, period: float, problem: ModelProblem) -> DefectReport:
    """A bound on |m_{tau+T}(x) - m_tau(x)|_alpha at every x, for T one
    declared forcing period, from the forcing cells alone: no graph is
    solved.

    Let T_a and T_b be the backward operators of ``problem.lp_context`` at
    tau and at tau + T.  They share the window, the noise path, F and the
    linear part; they differ only in their forcing cells G_a and G_b
    (``LPContext.gcells``), which ``lp_apply`` adds to F's cell increments
    before the Duhamel sums.  Those sums are linear, so for every history
    xi and base point x

        T_b(xi) - T_a(xi) = D(G_b - G_a),

    with D the cell-rule Duhamel sum from a zero start (``_duhamel``), the
    same for every xi and x.  The S-norm is the e^{mu t}-weighted sup of
    the D(A^alpha) norm (``LPContext.s_norm``).

    Premise: each discrete operator contracts in the S-norm with factor
    kappa = k + ratio_slack < 1.  The certificate gives k for the
    continuum operator; ratio_slack = 5 h lambda_{n+1} is a quadrature
    allowance for the cell rule, not a proven constant.  ``_picard``
    measures the ratios of consecutive distances of every solve against
    kappa, which tests the premise along those iterates but does not
    certify it, and no solve runs here.  Under the premise, with xi_a and
    xi_b the fixed points at x,

        |xi_b - xi_a|_S <= |T_b xi_b - T_b xi_a|_S + |T_b xi_a - T_a xi_a|_S
                        <= kappa |xi_b - xi_a|_S + |D(G_b - G_a)|_S,

    so |xi_b - xi_a|_S <= |D(G_b - G_a)|_S / (1 - kappa).  The graph value
    is the Q part of a fixed point's node t = 0, where the weight e^{mu t}
    is one, so the bound holds for m_{tau+T}(x) - m_tau(x) at every x at
    once.  At a period the cells agree up to the rounding of the shifted
    phases, so the bound reads at rounding level; a shift that is not a
    period (a shift built off by a step) shows as the cells' difference.
    The value bounds the distance between the exact discrete fixed points,
    each of which a chart would solve to within tol; kappa >= 1 raises
    RimlabError.
    """
    _check_period(problem, period)
    value = _cell_bound(problem.lp_context(tau), problem.lp_context(tau + period))
    return _periodicity_report(tau, period, value, problem)


def ap_defect(chart: ManifoldChart, tau0: float, problem: ModelProblem) -> DefectReport:
    """Graph distance between the chart's tau and its translate by a
    measured near-period, the leg (0, tau0) that the chart's sweep solved.

    A forcing defect eps_g over the translation tau0 propagates through the
    contraction to a graph defect of at most 2 eps_g / ((1-k) lambda_n).
    """
    eps_g = almost_period_defect(problem.forcing, problem.spectrum, tau0)
    cert = problem.cert
    bound = 2.0 * eps_g / ((1.0 - cert.k) * cert.lambda_n) + 2.0 * problem.tol
    value = _leg_distance(chart, 0.0, tau0, problem)
    return DefectReport(
        kind="almost_periodicity",
        value=value,
        bound=float(bound),
        context={"tau": chart.tau, "tau0": tau0, "eps_g": eps_g, "tol": problem.tol},
    )


def pullback_attractor(
    tau: float,
    problem: ModelProblem,
    pullback_time: float,
    ensemble: np.ndarray,
) -> AttractorCloud:
    """Evolve an ensemble from the pulled-back initial time up to time zero.

    Every member is mapped through the original-variable cocycle
    ``cocycle_phi`` started at tau - pullback_time on the shifted noise
    ``ou_for(-pullback_time)``, so the endpoint cloud approximates the
    attractor fibre at (tau, omega).
    """
    if pullback_time <= 0.0:
        raise RimlabError("pullback time must be positive")
    points = cocycle_phi(
        pullback_time,
        tau - pullback_time,
        problem.ou_for(-pullback_time),
        np.atleast_2d(np.asarray(ensemble, dtype=float)),
        problem.forcing,
        problem.nonlinearity,
        problem.spectrum,
    )
    return AttractorCloud(tau=tau, pullback_time=pullback_time, points=points)


def containment_defect(cloud: AttractorCloud, problem: ModelProblem) -> DefectReport:
    """Distance of the pullback cloud to the offset graph, against tol + e^{-lambda_1 t}.

    The graph values come from ``ModelProblem.graph_values`` on the stored OU table.
    """
    z0 = problem.ou.at(0.0)
    # Q part of u - (z(0) + m(P(u - z(0)))): u's distance to the offset graph
    off = cloud.points - (z0 + problem.graph_values(cloud.tau, cloud.points - z0))
    off[:, : problem.cert.n] = 0.0
    lam1 = float(problem.spectrum.lambdas[0])
    bound = problem.tol + float(np.exp(-lam1 * cloud.pullback_time))
    return DefectReport(
        kind="containment",
        value=float(np.max(norm_alpha(off, problem.spectrum))),
        bound=float(bound),
        context={
            "tau": cloud.tau,
            "pullback_time": cloud.pullback_time,
            "ensemble_size": cloud.ensemble_size,
            "tol": problem.tol,
            "c_att": 1.0,
        },
    )

