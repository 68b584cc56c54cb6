import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import rimlab as rl
from conftest import coarsen_path, manifold_point
from rimlab import cli, dynamics, lyapunov_perron
from rimlab.analysis import (
    AttractorCloud,
    DefectReport,
    ap_defect,
    containment_defect,
    invariance_defect,
    periodicity_defect,
    pullback_attractor,
)
from rimlab.errors import RimlabError
from rimlab.lyapunov_perron import build_chart

WORKHORSE = Path(__file__).resolve().parent.parent / "configs" / "dirichlet_nonlinear.ini"


def flowed_chart(problem, grid, t):
    """The chart at tau = 0 with its invariance leg at flow time t, on a
    fresh graph-value store."""
    return dataclasses.replace(problem).chart(0.0, grid, flow_t=t)


@pytest.fixture(scope="module")
def chart_nl(problem_nl, chart_grid16):
    return flowed_chart(problem_nl, chart_grid16[:5], 1.0)


def test_defect_report_pass_semantics():
    assert DefectReport("invariance", 1.0, None).passed
    assert DefectReport("invariance", 1.0, 2.0).passed
    assert not DefectReport("invariance", 3.0, 2.0).passed
    with pytest.raises(RimlabError, match="unknown defect kind"):
        DefectReport("nonsense", 0.0)


def test_invariance_zero_time_equals_residual(problem_nl, chart_grid16):
    chart = flowed_chart(problem_nl, chart_grid16[:5], 0.0)
    report = invariance_defect(chart, 0.0, problem_nl)
    assert report.value <= float(np.max(chart.residuals))
    assert report.value == 0.0  # identical deterministic solves cancel exactly
    assert report.passed


def test_invariance_linear_constant_forcing(problem_lin_const, chart_grid16):
    chart = flowed_chart(problem_lin_const, chart_grid16[:3], 1.0)
    report = invariance_defect(chart, 1.0, problem_lin_const)
    assert report.value <= 10.0 * (problem_lin_const.h + problem_lin_const.tol)
    assert report.passed


def test_invariance_nonlinear_within_bound(chart_nl, problem_nl):
    report = invariance_defect(chart_nl, 1.0, problem_nl)
    assert report.passed
    assert report.value <= report.bound


def test_invariance_shows_a_broken_flow(chart_nl, problem_nl, chart_grid16, monkeypatch):
    # Forcing sampled at cell left endpoints in the flow only (the graph
    # keeps the exact cells): the flowed chart leaves the discrete graph by
    # O(h).  The shifted solves start from the flowed orbit, and the stop
    # rule must still carry them to the graph, so the defect shows.
    def left_endpoint_cells(g, s, t_lefts, h):
        return g.eval_many(t_lefts) * (-np.expm1(-s.lambdas * h) / s.lambdas)

    exact = invariance_defect(chart_nl, 1.0, problem_nl).value
    monkeypatch.setattr(dynamics, "cell_convolution", left_endpoint_cells)
    broken_chart = flowed_chart(problem_nl, chart_grid16[:5], 1.0)
    broken = invariance_defect(broken_chart, 1.0, problem_nl).value
    assert exact <= 1e-9
    assert broken > 1e-5


def test_invariance_rejects_a_chart_on_another_window(problem_nl, chart_grid16):
    ctx = problem_nl.lp_context(0.0)
    short = rl.LPContext(
        problem_nl.spectrum, problem_nl.cert, problem_nl.nonlinearity, problem_nl.forcing,
        problem_nl.ou, t_back=4.0, tol=problem_nl.tol,
    )
    assert short.t_back < ctx.t_back
    flow = 0.5, problem_nl.lp_context(0.5, ou=problem_nl.ou_for(0.5))
    with pytest.raises(RimlabError, match="flow context window differs"):
        build_chart(chart_grid16[:2], short, flow=flow)


def test_invariance_needs_the_charts_flow_time(chart_nl, problem_nl, chart_grid16):
    # A chart carries its invariance leg at one flow time; at another, or
    # without a leg, there is nothing to read.
    with pytest.raises(RimlabError, match="chart has no invariance leg"):
        invariance_defect(chart_nl, 0.5, problem_nl)
    plain = build_chart(chart_grid16[:2], problem_nl.lp_context(0.0))
    assert plain.flow_t is None and plain.off_graph is None and plain.translates == {}
    with pytest.raises(RimlabError, match="chart has no invariance leg"):
        invariance_defect(plain, 1.0, problem_nl)


def test_invariance_reports_are_reproducible(problem_nl, chart_grid16):
    a = invariance_defect(flowed_chart(problem_nl, chart_grid16[:5], 0.5), 0.5, problem_nl)
    b = invariance_defect(flowed_chart(problem_nl, chart_grid16[:5], 0.5), 0.5, problem_nl)
    assert a.value == b.value
    assert a.as_dict() == b.as_dict()


def test_periodicity_requires_declared_period(problem_nl, chart_grid16):
    # trig forcing must declare the requested period (constants accept any)
    with pytest.raises(RimlabError, match="forcing has declared period"):
        periodicity_defect(0.0, 3.0, chart_grid16[:2], problem_nl)


def test_periodicity_linear_sine(problem_lin, chart_grid16):
    report = periodicity_defect(0.0, 2.0 * np.pi, chart_grid16[:3], problem_lin)
    assert report.value <= 2.0 * problem_lin.tol
    assert report.passed


def test_periodicity_nonlinear(problem_nl, chart_grid16):
    for tau in (0.0, 1.0):
        report = periodicity_defect(tau, 2.0 * np.pi, chart_grid16[:3], problem_nl)
        assert report.passed
        assert report.value <= 2.0 * problem_nl.tol + 1e-4


def test_periodicity_reuses_chart_graph_values(problem_nl, chart_grid16, monkeypatch):
    # The chart's solves fill the problem's graph-value store, its
    # translates included, so the periodicity check at the chart's tau
    # solves only the translates the chart was not asked for.
    period = 2.0 * np.pi
    grid = chart_grid16[::4]
    uncached = periodicity_defect(0.0, period, grid, dataclasses.replace(problem_nl))
    solved_taus = []
    solve = lyapunov_perron.solve_fixed_point

    def counting(x, ctx, *args, **kwargs):
        solved_taus.append(ctx.tau)
        return solve(x, ctx, *args, **kwargs)

    _patch_solve(monkeypatch, counting)
    for shifts, solved in (((), [period] * len(grid)), ((period,), [])):
        problem = dataclasses.replace(problem_nl)
        problem.chart(0.0, grid, shifts)
        solved_taus.clear()
        cached = periodicity_defect(0.0, period, grid, problem)
        assert solved_taus == solved
        assert cached.passed
    assert cached.value == uncached.value


def _patch_solve(monkeypatch, solve):
    """Replace ``solve_fixed_point`` where every graph solve calls it."""
    monkeypatch.setattr(lyapunov_perron, "solve_fixed_point", solve)


def _applies_per_solve(monkeypatch):
    """Record [tau, operator applications, noise grid's i_min] for every
    graph solve, and assert that no (tau, noise, P x) is solved twice."""
    solves, solved = [], set()
    solve, apply = lyapunov_perron.solve_fixed_point, lyapunov_perron.lp_apply

    def counting_solve(x, ctx, *args, **kwargs):
        key = ctx.tau, ctx.ou.grid.i_min, ctx.project_p(x)[: ctx.cert.n].tobytes()
        assert key not in solved
        solved.add(key)
        solves.append([ctx.tau, 0, ctx.ou.grid.i_min])
        return solve(x, ctx, *args, **kwargs)

    def counting_apply(*args):
        solves[-1][1] += 1
        return apply(*args)

    _patch_solve(monkeypatch, counting_solve)
    monkeypatch.setattr(lyapunov_perron, "lp_apply", counting_apply)
    return solves


def test_period_shifted_solves_take_one_application(problem_nl, chart_grid16, monkeypatch):
    # With m_tau not stored, each m_{tau+T}(x) starts from the history that
    # began m_tau(x)'s final Picard step.  The operator at tau + T is the
    # one at tau up to the last bit of the translated forcing cells, so it
    # maps that start onto m_tau(x) and the solve stops after one application.
    period = 2.0 * np.pi
    problem = dataclasses.replace(problem_nl)
    solves = _applies_per_solve(monkeypatch)
    report = periodicity_defect(1.0, period, chart_grid16, problem)
    assert [n for tau, n, _ in solves if tau == 1.0 + period] == [1] * len(chart_grid16)
    assert len(solves) == 2 * len(chart_grid16)
    assert report.value <= 1e-15
    # A chart asked for the translate solves it in its sweep from the same
    # start, with the same effect, and the check at its tau solves nothing.
    problem.chart(0.0, chart_grid16, (period,))
    assert [n for tau, n, _ in solves if tau == period] == [1] * len(chart_grid16)
    solves.clear()
    report = periodicity_defect(0.0, period, chart_grid16, problem)
    assert solves == []
    assert report.value <= 1e-15


def test_verify_legs_start_from_their_chart_points_start(tmp_path, monkeypatch):
    # verify hands the chart every shift and flow time its checks use, so
    # each leg starts from its chart point's final start: on the workhorse
    # the period translates take one application each, the invariance
    # solves (on the noise shifted by t) one each, and the near-period
    # translates two each.  Tracking solves no graph-store value and is left
    # out; every other graph value is solved once.
    text = WORKHORSE.read_text(encoding="utf-8").replace(
        "checks = invariance lipschitz tracking periodicity",
        "checks = invariance lipschitz periodicity almost_period containment",
    )
    (tmp_path / "legs.ini").write_text(text, encoding="utf-8")
    solves = _applies_per_solve(monkeypatch)
    argv = ["verify", "--config", str(tmp_path / "legs.ini"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "verification.json").read_text(encoding="utf-8"))
    (tau0,) = [r["context"]["tau0"] for r in doc["reports"] if r["kind"] == "almost_periodicity"]
    period, points = 2.0 * np.pi, 9
    noise = solves[0][2]  # the chart's own noise, unshifted
    assert [n for tau, n, _ in solves if tau == period] == [1] * points
    assert [n for tau, n, i_min in solves if i_min != noise] == [1] * points
    assert [n for tau, n, _ in solves if tau == tau0] == [2] * points


def test_period_shifted_start_reproduces_base_bit_for_bit(problem_nl, chart_grid16, monkeypatch):
    # Under a constant forcing the translated operator is the same operator,
    # bit for bit, so each shifted value is the base value exactly.
    amps = np.zeros(16)
    amps[1] = 1.0
    problem = dataclasses.replace(problem_nl, forcing=rl.ForcingSignal.constant(amps))
    solves = _applies_per_solve(monkeypatch)
    report = periodicity_defect(0.5, 3.0, chart_grid16, problem)
    assert [n for tau, n, _ in solves if tau == 3.5] == [1] * len(chart_grid16)
    assert np.array_equal(problem.graph_values(3.5, chart_grid16), problem.graph_values(0.5, chart_grid16))
    assert report.value == 0.0


def test_shifted_start_cannot_hide_a_non_period(problem_nl, chart_grid16):
    # Shift 1.0 is not a period of the sine forcing.  The paired solves must
    # still land within 2 tol of cold solves at both translations, so the
    # warm start cannot make a non-period look periodic.  The same holds
    # when a chart asked for the shift solves the translates in its sweep.
    cold = {}
    for tau in (0.0, 1.0):
        ctx = problem_nl.lp_context(tau)
        cold[tau] = np.array([manifold_point(ctx.project_p(x), ctx) for x in chart_grid16])
    for stored in (False, True):
        problem = dataclasses.replace(problem_nl)
        if stored:
            problem.chart(0.0, chart_grid16, (1.0,))
        report = ap_defect(0.0, 1.0, chart_grid16, problem)
        for tau in (0.0, 1.0):
            got = problem.graph_values(tau, chart_grid16)
            assert np.max(np.linalg.norm(got - cold[tau], axis=1)) <= 2.0 * problem.tol
        assert report.value > 1e-3  # m_1 is far from m_0


def test_graph_values_build_no_context_when_stored(problem_nl, chart_grid16, monkeypatch):
    # Values the chart stored, keyed by tau and P x, are read back without
    # building a context, whatever the Q part of the requested points.
    problem = dataclasses.replace(problem_nl)
    grid = chart_grid16[::4]
    chart = problem.chart(0.0, grid)
    built = []
    init = lyapunov_perron.LPContext.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("tau"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(lyapunov_perron.LPContext, "__init__", counting)
    off_graph = grid.copy()
    off_graph[:, 1:] = 0.5
    for points in (grid, off_graph):
        assert np.array_equal(problem.graph_values(0.0, points), chart.values)
    assert built == []


def test_periodicity_two_resolution_ratio(spectrum16, sine_forcing, cov16):
    # The defect vanishes with (h, tol): quartering both shrinks it >= 3x
    # (it is tolerance-dominated, so the reduction tracks tol).
    cert = rl.check_gap(spectrum16, 0.1, 0.2, 1)
    f = rl.Nonlinearity.per_mode_sin(0.1)
    fine = rl.TimeGrid.from_times(-28.0, 1.0, 2.5e-4)
    w_fine = rl.sample_wiener(3, fine, cov16)
    grid = np.zeros((2, 16))
    grid[:, 0] = [-0.5, 0.5]
    values = []
    for path, tol in ((coarsen_path(w_fine, 4), 4e-5), (w_fine, 1e-5)):
        from rimlab.problem import ModelProblem

        prob = ModelProblem(
            spectrum=spectrum16, nonlinearity=f, forcing=sine_forcing, noise=path,
            cert=cert, t_back=16.12, t_fwd=16.12, tol=tol,
        )
        values.append(periodicity_defect(0.0, 2.0 * np.pi, grid, prob).value)
    assert values[1] <= values[0] / 3.0 or values[1] < 1e-12


def test_ap_defect_exact_period(problem_lin, chart_grid16):
    report = ap_defect(0.0, 2.0 * np.pi, chart_grid16[:2], problem_lin)
    assert report.value <= 2.0 * problem_lin.tol + 1e-12
    assert report.passed


def test_ap_defect_zero_forcing(problem_lin_const, chart_grid16, spectrum16, path16):
    from rimlab.problem import ModelProblem

    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=rl.ForcingSignal.zero(16),
        noise=path16,
        cert=problem_lin_const.cert,
        t_back=8.1,
        t_fwd=8.1,
        tol=1e-6,
    )
    for tau0 in (1.7, 12.3):
        report = ap_defect(0.0, tau0, chart_grid16[:2], prob)
        assert report.value <= 2.0 * prob.tol


def test_pullback_trivial_collapse(spectrum16, path16):
    # F=0, g=0, q=0: the pullback cloud contracts to the origin at the
    # leading spectral rate.
    from rimlab.problem import ModelProblem

    grid = rl.TimeGrid.from_times(-20.0, 1.0, 1e-3)
    w0 = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(16))
    cert = rl.check_gap(spectrum16, 0.0, 0.2, 1)
    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=rl.ForcingSignal.zero(16),
        noise=w0,
        cert=cert,
        t_back=6.0,
        t_fwd=6.0,
        tol=1e-6,
    )
    rng = np.random.default_rng(0)
    ensemble = rng.standard_normal((6, 16))
    for t_m in (2.0, 4.0):
        cloud = pullback_attractor(0.0, prob, t_m, ensemble)
        expected = ensemble * np.exp(-spectrum16.lambdas * t_m)
        assert np.allclose(cloud.points, expected, atol=1e-13)
        radius = np.max(np.linalg.norm(cloud.points, axis=1))
        assert radius <= np.exp(-1.0 * t_m) * np.max(np.linalg.norm(ensemble, axis=1)) * (
            1 + 1e-12
        )


def test_pullback_single_point(problem_nl):
    u = np.zeros(16)
    u[0] = 0.5
    cloud = pullback_attractor(0.0, problem_nl, 2.0, u)
    assert cloud.points.shape == (1, 16)
    assert cloud.ensemble_size == 1


def test_pullback_convergence_in_time(problem_nl):
    # Doubling the pullback horizon moves endpoints by at most the
    # contraction of the initial-data dependence.
    rng = np.random.default_rng(1)
    ensemble = 0.5 * rng.standard_normal((4, 16))
    a = pullback_attractor(0.0, problem_nl, 2.0, ensemble)
    b = pullback_attractor(0.0, problem_nl, 4.0, ensemble)
    move = np.max(np.linalg.norm(a.points - b.points, axis=1))
    lam1 = problem_nl.spectrum.lambdas[0]
    scale = 4.0 * (1.0 + np.max(np.linalg.norm(ensemble, axis=1)))
    assert move <= scale * np.exp(-lam1 * 2.0)


def test_containment_trivial_zero(spectrum16):
    from rimlab.problem import ModelProblem

    grid = rl.TimeGrid.from_times(-20.0, 1.0, 1e-3)
    w0 = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(16))
    cert = rl.check_gap(spectrum16, 0.0, 0.2, 1)
    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=rl.ForcingSignal.zero(16),
        noise=w0,
        cert=cert,
        t_back=6.0,
        t_fwd=6.0,
        tol=1e-6,
    )
    cloud = AttractorCloud(tau=0.0, pullback_time=8.0, points=np.zeros((3, 16)))
    report = containment_defect(cloud, prob)
    assert report.value == 0.0
    assert report.passed


def test_containment_linear_constant(problem_lin_const):
    rng = np.random.default_rng(2)
    ensemble = rng.standard_normal((6, 16))
    for t_m in (4.0, 8.0):
        cloud = pullback_attractor(0.0, problem_lin_const, t_m, ensemble)
        report = containment_defect(cloud, problem_lin_const)
        lam1 = problem_lin_const.spectrum.lambdas[0]
        assert report.value <= problem_lin_const.tol + np.exp(-lam1 * t_m)
        assert report.passed


def test_containment_halves_with_pullback_time(problem_nl):
    rng = np.random.default_rng(3)
    ensemble = rng.standard_normal((6, 16))
    reports = [
        containment_defect(pullback_attractor(0.0, problem_nl, t_m, ensemble), problem_nl)
        for t_m in (4.0, 8.0)
    ]
    assert reports[1].value <= 0.5 * reports[0].value


def test_invariance_shift_beyond_support_errors(problem_nl, chart_grid16):
    with pytest.raises(RimlabError, match="outside stored support"):
        flowed_chart(problem_nl, chart_grid16[:5], 500.0)


def test_periodicity_zero_forcing_any_period(spectrum16, path16):
    from rimlab.problem import ModelProblem

    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.per_mode_sin(0.1),
        forcing=rl.ForcingSignal.zero(16),
        noise=path16,
        cert=rl.check_gap(spectrum16, 0.1, 0.2, 1),
        t_back=8.0,
        t_fwd=8.0,
        tol=1e-6,
    )
    grid = np.zeros((2, 16))
    grid[:, 0] = [-0.5, 0.5]
    report = periodicity_defect(0.0, 2.0, grid, prob)
    assert report.value <= 2.0 * prob.tol
    assert report.passed
