import dataclasses
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import rimlab as rl
from conftest import coarsen_path, manifold_point
from rimlab import analysis, cli, dynamics, lyapunov_perron
from rimlab.analysis import (
    AttractorCloud,
    DefectReport,
    ap_defect,
    containment_defect,
    invariance_defect,
    periodicity_bound,
    periodicity_defect,
    pullback_attractor,
)
from rimlab.config import build_problem, load_config
from rimlab.errors import RimlabError
from rimlab.lyapunov_perron import build_chart
from rimlab.spectral import norm_alpha

WORKHORSE = Path(__file__).resolve().parent.parent / "configs" / "dirichlet_nonlinear.ini"


def flowed_chart(problem, grid, t):
    """The chart at tau = 0 with its invariance leg at flow time t."""
    return problem.chart(0.0, grid, [(t, t)])


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
        problem_nl.ou, tau=0.0, t_back=4.0, tol=problem_nl.tol,
    )
    assert short.t_back < ctx.t_back
    leg = (0.5, 0.5), problem_nl.lp_context(0.5, ou=problem_nl.ou_for(0.5))
    with pytest.raises(RimlabError, match="leg context window differs"):
        build_chart(chart_grid16[:2], short, (leg,))


def test_invariance_needs_the_charts_flow_time(chart_nl, problem_nl, chart_grid16):
    # A chart carries its invariance leg (t, t) at one flow time; at
    # another, or without a leg, there is nothing to read, and the check
    # names the leg it looked for.
    with pytest.raises(RimlabError, match=re.escape("chart has no leg (t, s) = (0.5, 0.5)")):
        invariance_defect(chart_nl, 0.5, problem_nl)
    plain = build_chart(chart_grid16[:2], problem_nl.lp_context(0.0))
    assert plain.legs == {}
    with pytest.raises(RimlabError, match=re.escape("chart has no leg (t, s) = (1.0, 1.0)")):
        invariance_defect(plain, 1.0, problem_nl)


def test_invariance_reports_are_reproducible(problem_nl, chart_grid16):
    a = invariance_defect(flowed_chart(problem_nl, chart_grid16[:5], 0.5), 0.5, problem_nl)
    b = invariance_defect(flowed_chart(problem_nl, chart_grid16[:5], 0.5), 0.5, problem_nl)
    assert a.value == b.value
    assert a.as_dict() == b.as_dict()


def test_periodicity_requires_declared_period(chart_nl, problem_nl):
    # trig forcing must declare the requested period (constants accept any),
    # whether the report reads a chart or bounds the forcing cells
    with pytest.raises(RimlabError, match="forcing has declared period"):
        periodicity_defect(chart_nl, 3.0, problem_nl)
    with pytest.raises(RimlabError, match="forcing has declared period"):
        periodicity_bound(1.0, 3.0, problem_nl)


def test_chart_holds_translates_by_their_shift(chart_nl, problem_nl, chart_grid16):
    # A chart keys each translate, the leg (0, s), by the shift it was
    # asked for, so a reader never rebuilds tau + s (0.1 + 0.2 is not 0.3
    # in floating point).  Asked for a shift it holds no leg by, a check
    # names the leg instead of solving it.
    for check, shift in ((periodicity_defect, 2.0 * np.pi), (ap_defect, 1.0)):
        missing = re.escape(f"chart has no leg (t, s) = (0.0, {shift})")
        with pytest.raises(RimlabError, match=missing):
            check(chart_nl, shift, problem_nl)
    chart = problem_nl.chart(0.1, chart_grid16[:2], [(0.0, 0.2), (0.0, 0.2)])
    assert list(chart.legs) == [(0.0, 0.2)]
    assert ap_defect(chart, 0.2, problem_nl).context["tau"] == 0.1


def test_periodicity_linear_sine(problem_lin, chart_grid16):
    period = 2.0 * np.pi
    chart = problem_lin.chart(0.0, chart_grid16[:3], [(0.0, period)])
    report = periodicity_defect(chart, period, problem_lin)
    assert report.value <= 2.0 * problem_lin.tol
    assert report.passed


def test_periodicity_nonlinear(problem_nl, chart_grid16):
    period = 2.0 * np.pi
    for tau in (0.0, 1.0):
        chart = problem_nl.chart(tau, chart_grid16[:3], [(0.0, period)])
        report = periodicity_defect(chart, period, problem_nl)
        assert report.passed
        assert report.value <= 2.0 * problem_nl.tol + 1e-4


def test_periodicity_reuses_chart_graph_values(problem_nl, chart_grid16, monkeypatch):
    # The periodicity check reads the values and the translate that the
    # chart's sweep solved: it runs no solve and builds no context.
    period = 2.0 * np.pi
    chart = problem_nl.chart(0.0, chart_grid16[::4], [(0.0, period)])
    solved, built = [], []
    solve, init = lyapunov_perron.solve_fixed_point, lyapunov_perron.LPContext.__init__
    _patch_solve(monkeypatch, lambda *a, **kw: solved.append(1) or solve(*a, **kw))
    monkeypatch.setattr(
        lyapunov_perron.LPContext, "__init__", lambda *a, **kw: built.append(1) or init(*a, **kw)
    )
    report = periodicity_defect(chart, period, problem_nl)
    assert solved == [] and built == []
    moved = norm_alpha(chart.legs[(0.0, period)], problem_nl.spectrum)
    assert report.value == float(np.max(moved))
    assert report.passed


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
    # Each m_{tau+T}(x) starts from the history that began m_tau(x)'s final
    # Picard step in the chart's sweep.  The operator at tau + T is the one
    # at tau up to the last bit of the translated forcing cells, so it maps
    # that start onto m_tau(x) and the solve stops after one application.
    period = 2.0 * np.pi
    solves = _applies_per_solve(monkeypatch)
    for tau in (0.0, 1.0):
        solves.clear()
        chart = problem_nl.chart(tau, chart_grid16, [(0.0, period)])
        assert [n for t, n, _ in solves if t == tau + period] == [1] * len(chart_grid16)
        assert len(solves) == 2 * len(chart_grid16)
        assert periodicity_defect(chart, period, problem_nl).value <= 1e-15


def test_translate_legs_match_cold_solves(problem_nl, chart_grid16):
    # At flow time 0 a leg is a translate: its rows are m_tau - m_{tau+s},
    # here against cold solves at both translations, at the period 2 pi
    # and at the near-period 6.3 of the sine forcing.
    grid, tau = chart_grid16[::2], 0.5
    for s in (2.0 * np.pi, 6.3):
        chart = problem_nl.chart(tau, grid, [(0.0, s)])
        cold = [
            np.array([manifold_point(x, problem_nl.lp_context(at)) for x in grid])
            for at in (tau, tau + s)
        ]
        diff = chart.legs[(0.0, s)] - (cold[0] - cold[1])
        assert np.max(np.linalg.norm(diff, axis=1)) <= 2.0 * problem_nl.tol


def test_a_leg_answers_only_its_own_pair(problem_nl, chart_grid16):
    # The invariance leg (t, t) and the translate (0, t) are different
    # comparisons: a chart with one does not answer a check that reads the
    # other, and the error names the leg the check looked for.
    grid = chart_grid16[:2]
    flowed = problem_nl.chart(0.0, grid, [(0.5, 0.5)])
    shifted = problem_nl.chart(0.0, grid, [(0.0, 0.5)])
    with pytest.raises(RimlabError, match=re.escape("chart has no leg (t, s) = (0.0, 0.5)")):
        ap_defect(flowed, 0.5, problem_nl)
    with pytest.raises(RimlabError, match=re.escape("chart has no leg (t, s) = (0.5, 0.5)")):
        invariance_defect(shifted, 0.5, problem_nl)
    assert invariance_defect(flowed, 0.5, problem_nl).passed


def test_chart_solves_a_repeated_leg_once(problem_nl, chart_grid16, monkeypatch):
    # Asked for a leg twice, a chart solves it once per point (the counter
    # also asserts that no (tau, noise, P x) is solved twice) and keeps it
    # under its one key.
    grid = chart_grid16[:3]
    solves = _applies_per_solve(monkeypatch)
    legs = [(0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.5, 0.5)]
    chart = problem_nl.chart(0.0, grid, legs)
    assert list(chart.legs) == [(0.0, 1.0), (0.5, 0.5)]
    assert len(solves) == 3 * len(grid)


def test_sweeps_hold_no_final_start_across_the_next_solve(problem_nl, chart_grid16, monkeypatch):
    # A final start is a whole backward history.  graph_values, and the
    # chart with a translate leg (0, s) and an invariance leg (t, t), drop
    # each one before the sweep solves the next point.
    refs, live = [], []
    solve = lyapunov_perron.solve_fixed_point

    def watched(x, ctx, start=None, *, final_start=False):
        if final_start:  # a sweep's solve of its next point
            live.append(sum(ref() is not None for ref in refs))
        result = solve(x, ctx, start, final_start=final_start)
        if final_start:
            refs.append(weakref.ref(result[2]))
        return result

    _patch_solve(monkeypatch, watched)
    grid = chart_grid16[:4]
    problem_nl.graph_values(0.0, grid)
    problem_nl.chart(0.0, grid, [(0.0, 2.0 * np.pi), (0.5, 0.5)])
    assert live == [0] * 8


def test_verify_legs_start_from_their_chart_points_start(tmp_path, monkeypatch):
    # verify hands the chart every leg (t, s) its checks use, so each leg
    # starts from its chart point's final start: on the workhorse the
    # invariance solves (on the noise shifted by t) take one application
    # each and the near-period translates two each.
    # Periodicity is bounded from the forcing cells, so no translate by the
    # period is solved.  Tracking is left out; every other graph value is
    # solved once.
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
    assert [n for tau, n, _ in solves if tau == period] == []
    assert [n for tau, n, i_min in solves if i_min != noise] == [1] * points
    assert [n for tau, n, _ in solves if tau == tau0] == [2] * points


def test_period_shifted_start_reproduces_base_bit_for_bit(problem_nl, chart_grid16, monkeypatch):
    # Under a constant forcing the translated operator is the same operator,
    # bit for bit, so each shifted value is the base value exactly.
    amps = np.zeros(16)
    amps[1] = 1.0
    problem = dataclasses.replace(problem_nl, forcing=rl.ForcingSignal(amps.size, amps))
    solves = _applies_per_solve(monkeypatch)
    chart = problem.chart(0.5, chart_grid16, [(0.0, 3.0)])
    assert [n for tau, n, _ in solves if tau == 3.5] == [1] * len(chart_grid16)
    assert np.array_equal(chart.legs[(0.0, 3.0)], np.zeros_like(chart.values))
    assert periodicity_defect(chart, 3.0, problem).value == 0.0


def test_shifted_start_cannot_hide_a_non_period(problem_nl, chart_grid16):
    # Shift 1.0 is not a period of the sine forcing.  The chart's values and
    # its translates, solved from their final starts, must still land within
    # 2 tol of cold solves at both translations, so the warm start cannot
    # make a non-period look periodic.
    cold = {}
    for tau in (0.0, 1.0):
        ctx = problem_nl.lp_context(tau)
        cold[tau] = np.array([manifold_point(ctx.project_p(x), ctx) for x in chart_grid16])
    chart = problem_nl.chart(0.0, chart_grid16, [(0.0, 1.0)])
    report = ap_defect(chart, 1.0, problem_nl)
    for tau, got in ((0.0, chart.values), (1.0, chart.values - chart.legs[(0.0, 1.0)])):
        assert np.max(np.linalg.norm(got - cold[tau], axis=1)) <= 2.0 * problem_nl.tol
    assert report.value > 1e-3  # m_1 is far from m_0


def test_periodicity_bound_dominates_the_solved_distance(chart_grid16):
    # The forcing-cell bound covers every x at once, so under a shift built
    # one step late (tau + T + h) or one step early (tau + T - h) it stays
    # at or above the distance a chart solves under that shift, less the
    # 2 tol the two solves may each be off by.  At the period itself the
    # cells agree up to rounding, and so does the bound.
    problem = build_problem(load_config(WORKHORSE))
    period, grid = 2.0 * np.pi, chart_grid16[::2]
    for tau in (0.0, 1.0, 2.0):
        ctx = problem.lp_context(tau)
        report = periodicity_bound(tau, period, problem)
        assert report.value <= 1e-15
        for off in (problem.h, -problem.h):
            ctx_s = problem.lp_context(tau + period + off)
            chart = build_chart(grid, ctx, (((0.0, period), ctx_s),))
            solved = periodicity_defect(chart, period, problem)
            assert solved.value > 1e-5  # the shift shows in the solved graph
            assert analysis._cell_bound(ctx, ctx_s) >= solved.value - 2.0 * problem.tol


def test_periodicity_bound_needs_a_contraction(problem_nl):
    # With k + ratio_slack >= 1 there is no contraction to divide the
    # cells' difference by, so the bound refuses rather than report inf
    # at a true period (where the cells still differ by rounding).
    problem = dataclasses.replace(problem_nl, cert=dataclasses.replace(problem_nl.cert, k=0.99))
    with pytest.raises(RimlabError, match="no contraction to bound periodicity by"):
        periodicity_bound(1.0, 2.0 * np.pi, problem)


def test_periodicity_two_resolution_ratio(spectrum16, sine_forcing, cov16):
    # The defect vanishes with (h, tol): quartering both shrinks it >= 3x
    # (it is tolerance-dominated, so the reduction tracks tol).
    cert = rl.check_gap(spectrum16, 0.1, 0.2, 1)
    f = rl.Nonlinearity(0.1)
    fine = rl.TimeGrid.from_times(-28.0, 1.0, 2.5e-4)
    w_fine = rl.sample_wiener(3, fine, cov16)
    grid = np.zeros((2, 16))
    grid[:, 0] = [-0.5, 0.5]
    values = []
    for path, tol in ((coarsen_path(w_fine, 4), 4e-5), (w_fine, 1e-5)):
        from rimlab.problem import ModelProblem

        prob = ModelProblem(
            spectrum=spectrum16, nonlinearity=f, forcing=sine_forcing,
            ou=rl.solve_ou(path, spectrum16),
            cert=cert, t_back=16.12, t_fwd=16.12, tol=tol,
        )
        period = 2.0 * np.pi
        chart = prob.chart(0.0, grid, [(0.0, period)])
        values.append(periodicity_defect(chart, period, prob).value)
    assert values[1] <= values[0] / 3.0 or values[1] < 1e-12


def test_ap_defect_exact_period(problem_lin, chart_grid16):
    period = 2.0 * np.pi
    chart = problem_lin.chart(0.0, chart_grid16[:2], [(0.0, period)])
    report = ap_defect(chart, period, problem_lin)
    assert report.value <= 2.0 * problem_lin.tol + 1e-12
    assert report.passed


def test_ap_defect_zero_forcing(problem_lin_const, chart_grid16, spectrum16, ou16):
    from rimlab.problem import ModelProblem

    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity(0.0),
        forcing=rl.ForcingSignal(16),
        ou=ou16,
        cert=problem_lin_const.cert,
        t_back=8.1,
        t_fwd=8.1,
        tol=1e-6,
    )
    for tau0 in (1.7, 12.3):
        report = ap_defect(prob.chart(0.0, chart_grid16[:2], [(0.0, tau0)]), tau0, prob)
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
        nonlinearity=rl.Nonlinearity(0.0),
        forcing=rl.ForcingSignal(16),
        ou=rl.solve_ou(w0, spectrum16),
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
        nonlinearity=rl.Nonlinearity(0.0),
        forcing=rl.ForcingSignal(16),
        ou=rl.solve_ou(w0, spectrum16),
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


def test_periodicity_zero_forcing_any_period(spectrum16, ou16):
    from rimlab.problem import ModelProblem

    prob = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity(0.1),
        forcing=rl.ForcingSignal(16),
        ou=ou16,
        cert=rl.check_gap(spectrum16, 0.1, 0.2, 1),
        t_back=8.0,
        t_fwd=8.0,
        tol=1e-6,
    )
    grid = np.zeros((2, 16))
    grid[:, 0] = [-0.5, 0.5]
    report = periodicity_defect(prob.chart(0.0, grid, [(0.0, 2.0)]), 2.0, prob)
    assert report.value <= 2.0 * prob.tol
    assert report.passed
    # no forcing cells at all, so nothing to bound: exactly 0 at any tau
    assert periodicity_bound(1.0, 2.0, prob).value == 0.0
