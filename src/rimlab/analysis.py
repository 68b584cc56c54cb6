"""Verification harness: every check of the manifold, with its bound.

Each check (Lipschitz, invariance, tracking, periodicity, almost
periodicity, containment) turns a measured quantity into a ``DefectReport``
with its bound; no bound is written anywhere else.

Every check here compares objects computed on the same stored noise path;
a time shift of the noise is the one OU table on a relabelled grid
(``ModelProblem.ou_for``), never a fresh sample or solve, so each reported
defect is a deterministic function of (seed, configuration).
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
from .lyapunov_perron import ManifoldChart
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
    "periodicity_defect",
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


def invariance_defect(chart: ManifoldChart, t: float, problem: ModelProblem) -> DefectReport:
    """Distance of the chart flowed for time t >= 0 to the shifted graph.

    Reads the chart's invariance leg, solved in its sweep at flow time t
    (``build_chart`` with ``flow``, ``ModelProblem.chart`` with ``flow_t``):
    per point, the off-graph part of the flowed graph point against a
    fixed-point solve at translated forcing on the shifted noise
    ``ou_for(t)``.  Flow and graph share one cell rule at the problem's
    step, so this matched-resolution defect sits at the solver and
    truncation floor, not at O(h).  A chart without a leg at t raises
    RimlabError.
    """
    if chart.flow_t != t:
        raise RimlabError(f"chart has no invariance leg at t = {t} (flow time {chart.flow_t})")
    bound = INVARIANCE_CONSTANT * (problem.h + problem.tol)
    return DefectReport(
        kind="invariance",
        value=float(np.max(norm_alpha(chart.off_graph, problem.spectrum))),
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


def _graph_shift(tau, shift, x_grid, problem) -> float:
    """Largest graph distance |m_{tau+shift}(x) - m_tau(x)|_alpha over the grid.

    Each m_{tau+shift}(x) is solved from the final start of m_tau(x)'s
    solve, in the chart's sweep when the chart named the shift
    (``ModelProblem.chart``), else right after the base solve
    (``ModelProblem.graph_values`` with ``shift``).  At a translation by a
    period each shifted solve then takes one operator application and
    reproduces m_tau up to rounding.
    """
    m_a = problem.graph_values(tau, x_grid, shift)
    m_b = problem.graph_values(tau + shift, x_grid)
    return float(np.max(norm_alpha(m_b - m_a, problem.spectrum)))


def periodicity_defect(
    tau: float,
    period: float,
    x_grid: np.ndarray,
    problem: ModelProblem,
) -> DefectReport:
    """Graph distance between translations by one declared forcing period.

    A signal without trig terms is periodic with every period; one with
    terms must declare the requested one.
    """
    if problem.forcing.terms:
        declared = problem.forcing.declared_period
        if declared is None or abs(declared - period) > 1e-9 * max(1.0, period):
            raise RimlabError(f"forcing has declared period {declared!r}, check requested {period}")
    value = _graph_shift(tau, period, x_grid, problem)
    return DefectReport(
        kind="periodicity",
        value=value,
        bound=2.0 * problem.tol + PERIODICITY_SLACK,
        context={"tau": tau, "period": period, "slack": PERIODICITY_SLACK, "tol": problem.tol},
    )


def ap_defect(
    tau: float,
    tau0: float,
    x_grid: np.ndarray,
    problem: ModelProblem,
) -> DefectReport:
    """Graph distance between translations by a measured near-period.

    A forcing defect eps_g over the translation tau0 propagates through the
    contraction to a graph defect of at most 2 eps_g / ((1-k) lambda_n).
    """
    eps_g = almost_period_defect(problem.forcing, problem.spectrum, tau0)
    cert = problem.cert
    bound = 2.0 * eps_g / ((1.0 - cert.k) * cert.lambda_n) + 2.0 * problem.tol
    value = _graph_shift(tau, tau0, x_grid, problem)
    return DefectReport(
        kind="almost_periodicity",
        value=value,
        bound=float(bound),
        context={"tau": tau, "tau0": tau0, "eps_g": eps_g, "tol": problem.tol},
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

