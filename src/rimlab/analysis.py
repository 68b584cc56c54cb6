"""Verification harness: invariance, periodicity, containment, set distances.

Every check here compares objects computed on the same stored noise path;
time shifts of the path are index shifts, never fresh samples, so each
reported defect is a deterministic function of (seed, configuration).
Reported bounds carry explicit, configuration-recorded slack constants:
the continuum statements (defect exactly zero, containment exact) are only
recovered in the joint limit of step, tolerance and horizons, which the
two-resolution ratio checks in the test suite certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import integrate
from .errors import DomainError, ParameterError, ValidationError
from .forcing import almost_period_defect, shift_forcing
from .lyapunov_perron import ManifoldChart, manifold_point, tilde_manifold_point
from .problem import ModelProblem
from .randomness import shift_path
from .spectral import Spectrum, norm_alpha

__all__ = [
    "DefectReport",
    "AttractorCloud",
    "invariance_defect",
    "periodicity_defect",
    "ap_defect",
    "pullback_attractor",
    "containment_defect",
    "containment_decay",
    "fit_decay_rate",
    "hausdorff_semidist",
]

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
            raise ValidationError(f"unknown defect kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        return self.bound is None or self.value <= self.bound

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
            "context": dict(sorted(self.context.items())),
        }


@dataclass(frozen=True)
class AttractorCloud:
    """Pullback ensemble endpoints approximating the attractor fibre."""

    tau: float
    seed: int
    pullback_time: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise DomainError("ensemble must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("cloud contains non-finite points")

    @property
    def ensemble_size(self) -> int:
        return int(self.points.shape[0])


def invariance_defect(
    chart: ManifoldChart,
    t: float,
    problem: ModelProblem,
    c_inv: float = 10.0,
) -> DefectReport:
    """Flow the chart forward and measure its distance to the shifted graph.

    Each chart point is evolved for time t under the transformed dynamics;
    the off-graph part of the endpoint is compared against a fresh
    fixed-point solve at translated forcing on the index-shifted path.
    Flow and graph share one cell rule at the problem's step, so this
    matched-resolution defect sits at the solver and truncation floor, not
    at O(h).
    """
    if t < 0.0:
        raise DomainError("invariance check needs t >= 0")
    endpoints = integrate(
        chart.points,
        0.0,
        t,
        problem.ou,
        shift_forcing(problem.forcing, chart.tau),
        problem.nonlinearity,
        problem.spectrum,
        return_trajectory=False,
    )
    endpoints = np.atleast_2d(endpoints)
    ctx = problem.lp_context(chart.tau + t, ou=problem.shifted_ou(t))
    value = 0.0
    for q_pt in endpoints:
        m_val = manifold_point(ctx.project_p(q_pt), ctx)
        value = max(value, norm_alpha(ctx.project_q(q_pt) - m_val, problem.spectrum))
    bound = c_inv * (problem.h + problem.tol)
    return DefectReport(
        kind="invariance",
        value=float(value),
        bound=float(bound),
        context={"t": t, "h": problem.h, "tol": problem.tol, "c_inv": c_inv, "tau": chart.tau},
    )


def _graph_shift(tau, shift, x_grid, problem) -> float:
    """Largest graph distance |m_{tau+shift}(x) - m_tau(x)|_alpha over the grid."""
    m_a = problem.graph_values(tau, x_grid)
    m_b = problem.graph_values(tau + shift, x_grid)
    value = 0.0
    for a, b in zip(m_a, m_b):
        value = max(value, norm_alpha(b - a, problem.spectrum))
    return value


def periodicity_defect(
    tau: float,
    period: float,
    x_grid: np.ndarray,
    problem: ModelProblem,
    slack: float = 1e-4,
) -> DefectReport:
    """Graph distance between translations by one declared forcing period.

    Zero and constant signals are periodic with every period; other forms
    must declare the requested one.
    """
    if problem.forcing.form not in ("zero", "constant"):
        declared = problem.forcing.declared_period
        if declared is None or abs(declared - period) > 1e-9 * max(1.0, period):
            raise ParameterError(
                f"forcing has declared period {declared!r}, check requested {period}"
            )
    value = _graph_shift(tau, period, x_grid, problem)
    return DefectReport(
        kind="periodicity",
        value=value,
        bound=2.0 * problem.tol + slack,
        context={"tau": tau, "period": period, "slack": slack, "tol": problem.tol},
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

    Every member is mapped through the original-variable solution operator
    started at tau - pullback_time on the index-shifted path, so the
    endpoint cloud approximates the attractor fibre at (tau, omega).
    """
    if pullback_time <= 0.0:
        raise DomainError("pullback time must be positive")
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    shifted = shift_path(problem.path, -pullback_time)
    ou = problem.ou_for(shifted)
    v0 = ensemble - ou.at(0.0)
    v_end = integrate(
        v0,
        0.0,
        pullback_time,
        ou,
        shift_forcing(problem.forcing, tau - pullback_time),
        problem.nonlinearity,
        problem.spectrum,
        return_trajectory=False,
    )
    points = np.atleast_2d(v_end) + ou.at(pullback_time)
    return AttractorCloud(
        tau=tau, seed=problem.seed, pullback_time=pullback_time, points=points
    )


def containment_defect(
    cloud: AttractorCloud,
    problem: ModelProblem,
    c_att: float = 1.0,
) -> DefectReport:
    """Distance of the pullback cloud to the offset graph at the same fibre."""
    ctx = problem.lp_context(cloud.tau)
    value = 0.0
    for u in cloud.points:
        m_val = tilde_manifold_point(u, ctx)
        value = max(value, norm_alpha(ctx.project_q(u) - m_val, problem.spectrum))
    lam1 = float(problem.spectrum.lambdas[0])
    bound = problem.tol + c_att * float(np.exp(-lam1 * cloud.pullback_time))
    return DefectReport(
        kind="containment",
        value=float(value),
        bound=float(bound),
        context={
            "tau": cloud.tau,
            "pullback_time": cloud.pullback_time,
            "ensemble_size": cloud.ensemble_size,
            "tol": problem.tol,
            "c_att": c_att,
        },
    )


def containment_decay(
    tau: float,
    problem: ModelProblem,
    pullback_times,
    ensemble: np.ndarray,
) -> tuple[list[DefectReport], float]:
    """Containment defects over a sequence of pullback times plus a decay fit.

    Returns the per-time reports and the fitted exponential rate of the
    defect versus pullback time (negative means decay).
    """
    reports = [
        containment_defect(pullback_attractor(tau, problem, t_m, ensemble), problem)
        for t_m in pullback_times
    ]
    return reports, fit_decay_rate(pullback_times, reports)


def fit_decay_rate(pullback_times, reports: list[DefectReport]) -> float:
    """Fitted exponential rate of defect values versus pullback time.

    Negative means decay; NaN when fewer than two times are given.
    """
    if len(reports) < 2:
        return float("nan")
    values = np.array([max(r.value, 1e-300) for r in reports])
    times = np.asarray(list(pullback_times), dtype=float)
    return float(np.polyfit(times, np.log(values), 1)[0])


def hausdorff_semidist(
    a: np.ndarray, b: np.ndarray, s: Spectrum, alpha: float | None = None
) -> float:
    """One-sided set distance max_{p in a} min_{q in b} ||p - q||_alpha."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("Hausdorff semi-distance needs nonempty point sets")
    wts = s.weights_alpha(alpha)
    diffs = (a[:, None, :] - b[None, :, :]) * wts
    dists = np.linalg.norm(diffs, axis=2)
    return float(np.max(np.min(dists, axis=1)))
