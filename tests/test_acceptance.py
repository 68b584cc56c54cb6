"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
All tolerances are pinned here; nothing is deferred to later calibration.

The shared workhorse instance is the quadratic spectrum with 16 modes,
gap index n = 1, per-mode sine nonlinearity with L = 0.1 and k = 0.2
(so mu = 2, delta = 0.325), unit sine forcing on mode 2, power-law noise.
"""

import json

import numpy as np
import pytest

import rimlab as rl
from conftest import coarsen_path, forward_apply, manifold_point, q_flow, track_alone
from rimlab.analysis import containment_defect, invariance_defect, pullback_attractor
from rimlab.cli import main as cli_main
from rimlab.dynamics import integrate
from rimlab.forcing import scan_almost_period, shift_forcing
from rimlab.lyapunov_perron import (
    build_chart,
    check_gap,
    lp_apply,
    scan_gap,
    weighted_factor,
)
from rimlab.problem import ModelProblem
from rimlab.tracking import _ForwardStencil


TOL = 1e-6


def _report(number: int, name: str, passed: bool, detail: str) -> bool:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {tag} {name}: {detail}")
    return passed


def test_criterion_01_gap_arithmetic(spectrum16):
    first = min(row["n"] for row in scan_gap(spectrum16, 1.0, 0.45) if row["margin"] >= 0)
    cert = check_gap(spectrum16, 0.1, 0.2, 1)
    ok = (
        first == 4
        and cert.mu == 2.0
        and cert.delta == 0.325
        and cert.margin == pytest.approx(1.0, abs=1e-15)
    )
    assert _report(
        1,
        "gap arithmetic",
        ok,
        f"first passing n={first} (want 4); mu={cert.mu}, delta={cert.delta}",
    )


def test_criterion_02_linear_closed_form(spectrum16, sine_forcing, cov16):
    target = -1.0 / 17.0
    values = []
    for seed in (7, 8):
        grid = rl.TimeGrid.from_times(-19.0, 0.5, 1e-3)
        path = rl.sample_wiener(seed, grid, cov16)
        problem = ModelProblem(
            spectrum=spectrum16,
            nonlinearity=rl.Nonlinearity.zero(),
            forcing=sine_forcing,
            noise=path,
            cert=check_gap(spectrum16, 0.0, 0.2, 1),
            t_back=8.1,
            t_fwd=8.1,
            tol=TOL,
        )
        ctx = problem.lp_context(0.0)
        for x1 in (-0.8, 0.6):
            x = np.zeros(16)
            x[0] = x1
            values.append(manifold_point(x, ctx)[1])
    err = max(abs(v - target) for v in values)
    spread = max(values) - min(values)
    ok = err <= 1e-5 and spread <= 1e-12
    assert _report(
        2,
        "linear closed form",
        ok,
        f"mode-2 graph value within {err:.2e} of -1/17; x/seed spread {spread:.2e}",
    )


def test_criterion_03_contraction_certificates(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    cert = problem_nl.cert
    rng = np.random.default_rng(33)
    x = np.zeros(16)
    x[0] = 0.3

    def random_backward():
        vals = rng.standard_normal((ctx.times.size, 16))
        vals *= 0.5 * np.exp(-cert.mu * ctx.times)[:, None]
        return vals

    lp_ratios = []
    for _ in range(32):
        a, b = random_backward(), random_backward()
        num = ctx.s_norm(lp_apply(a, x, ctx) - lp_apply(b, x, ctx))
        lp_ratios.append(num / ctx.s_norm(a - b))

    v0 = 0.5 * rng.standard_normal(16)
    base = integrate(
        v0, 0.0, problem_nl.t_fwd, problem_nl.ou,
        shift_forcing(problem_nl.forcing, 0.0), problem_nl.nonlinearity,
        problem_nl.spectrum,
    )
    times = np.arange(len(base)) * problem_nl.h

    def random_forward():
        vals = rng.standard_normal((times.size, 16))
        vals *= 0.3 * np.exp(-cert.mu * times)[:, None]
        return vals

    wmu = np.exp(cert.mu * times)
    wts = problem_nl.spectrum.weights_alpha()
    plus_ratios = []
    for _ in range(32):
        a, b = random_forward(), random_forward()
        out_a, _ = forward_apply(a, v0, base, ctx)
        out_b, _ = forward_apply(b, v0, base, ctx)
        num = rl.lyapunov_perron.weighted_sup_norm(wmu, out_a - out_b, wts)
        den = rl.lyapunov_perron.weighted_sup_norm(wmu, a - b, wts)
        plus_ratios.append(num / den)

    ok = max(lp_ratios) <= cert.k + 0.05 and max(plus_ratios) <= cert.delta + 0.05
    assert _report(
        3,
        "contraction certificates",
        ok,
        f"backward ratio max {max(lp_ratios):.4g} <= {cert.k + 0.05}; "
        f"forward ratio max {max(plus_ratios):.4g} <= {cert.delta + 0.05}",
    )


def test_criterion_04_lipschitz_bound(problem_nl, chart_grid16):
    chart = build_chart(chart_grid16, problem_nl.lp_context(0.0))
    bound = 1.0 / (1.0 - problem_nl.cert.k) + 0.05
    ok = chart.lipschitz <= bound
    assert _report(
        4,
        "chart Lipschitz bound",
        ok,
        f"empirical constant {chart.lipschitz:.4g} <= {bound:.4g} over 9 points",
    )


def test_criterion_05_invariance(spectrum16, sine_forcing, cov16, chart_grid16):
    # Flow and graph share one kernel-exact cell rule, so at matched resolution
    # the discrete graph is invariant up to the solver and truncation floor and
    # shows no O(h) term.  First order is measured against a flow at h/16:
    # each chart, built at h or h/4 on a restriction of one h/16 path, is
    # flowed on the h/16 driver and compared with fresh solves on its own
    # index-shifted path.  The leading error is random and differs between
    # the two resolutions, so single-path ratios scatter; the 3x reduction is
    # asserted on the RMS over a fixed ensemble of paths.
    cert = check_gap(spectrum16, 0.1, 0.2, 1)
    f = rl.Nonlinearity.per_mode_sin(0.1)
    tol_run = TOL / 10.0
    tau, t = 0.0, 1.0
    x_grid = chart_grid16[::4]  # x in {-1, 0, 1}
    ref_grid = rl.TimeGrid.from_times(-27.3, 1.2, 6.25e-5)  # h/16 for h = 1e-3
    seeds = (7, 8, 9, 10)  # the suite seed and the next three

    cross = {"h": [], "h/4": []}
    matched = {"h": [], "h/4": []}
    for seed in seeds:
        w_ref = rl.sample_wiener(seed, ref_grid, cov16)
        charts = {}
        for label, factor in (("h", 16), ("h/4", 4)):
            problem = ModelProblem(
                spectrum=spectrum16, nonlinearity=f, forcing=sine_forcing,
                noise=coarsen_path(w_ref, factor), cert=cert,
                t_back=16.12, t_fwd=16.12, tol=tol_run,
            )
            ctx = problem.lp_context(tau)
            charts[label] = (problem, ctx, problem.chart(tau, x_grid, flow_t=t))
        # Both charts' points flow together in one batch on the h/16 driver.
        flowed = integrate(
            np.vstack([chart.points for *_, chart in charts.values()]), 0.0, t,
            rl.solve_ou(w_ref, spectrum16), shift_forcing(sine_forcing, tau),
            f, spectrum16, return_trajectory=False,
        )
        for (label, (problem, ctx, chart)), endpoints in zip(
            charts.items(), np.split(flowed, len(charts))
        ):
            ctx_shift = problem.lp_context(tau + t, ou=problem.ou_for(t))
            cross[label].append(max(
                rl.norm_alpha(
                    ctx.project_q(q_pt)
                    - manifold_point(ctx_shift.project_p(q_pt), ctx_shift),
                    spectrum16,
                )
                for q_pt in endpoints
            ))
            matched[label].append(invariance_defect(chart, t, problem).value)
            if seed == seeds[0] and label == "h":
                zero_chart = problem.chart(tau, x_grid, flow_t=0.0)
                zero_time = invariance_defect(zero_chart, 0.0, problem).value
                residual = float(np.max(chart.residuals))

    rms = {label: float(np.sqrt(np.mean(np.square(v)))) for label, v in cross.items()}
    ratios = [a / b for a, b in zip(cross["h"], cross["h/4"])]
    ratio_ok = rms["h"] >= 3.0 * rms["h/4"]
    matched_ok = max(matched["h"] + matched["h/4"]) <= tol_run
    zero_ok = zero_time <= residual <= TOL

    def fmt(values, spec=".3e"):
        return "[" + ", ".join(format(v, spec) for v in values) + "]"

    detail = (
        f"seeds {seeds}: defect vs h/16 flow at h {fmt(cross['h'])}, "
        f"at h/4 {fmt(cross['h/4'])}, ratios {fmt(ratios, '.2f')}; "
        f"RMS {rms['h']:.3e} / {rms['h/4']:.3e} = {rms['h'] / rms['h/4']:.2f} "
        f"(need >= 3); matched-resolution defect max {max(matched['h']):.3e} (h), "
        f"{max(matched['h/4']):.3e} (h/4) <= tol/10; t=0 defect {zero_time:.1e} "
        f"<= residual {residual:.1e} <= tol"
    )
    assert _report(5, "invariance two-resolution", ratio_ok and matched_ok and zero_ok, detail)


def test_criterion_06_exponential_tracking(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    cert = problem_nl.cert
    rng = np.random.default_rng(66)
    worst_ratio = 0.0
    worst_slope = -np.inf
    for _ in range(16):
        u0 = 0.6 * rng.standard_normal(16)
        result = track_alone(u0, ctx, problem_nl.t_fwd)
        envelope = result.envelope()
        worst_ratio = max(worst_ratio, float(np.max(result.decay_curve / envelope)))
        worst_slope = max(worst_slope, result.fitted_slope())
    ok = worst_ratio <= 1.02 and worst_slope <= -cert.mu + 0.1
    assert _report(
        6,
        "exponential tracking",
        ok,
        f"16 starts: max curve/envelope {worst_ratio:.4f} <= 1.02; "
        f"worst log-slope {worst_slope:.3f} <= {-cert.mu + 0.1}",
    )


def test_criterion_07_periodicity(problem_nl, chart_grid16):
    period = 2.0 * np.pi
    bound = 2.0 * TOL + 1e-4
    worst = 0.0
    for tau in (0.0, 1.0, 2.0):
        report = rl.periodicity_defect(tau, period, chart_grid16, problem_nl)
        worst = max(worst, report.value)
    ok = worst <= bound
    assert _report(
        7,
        "pathwise periodicity",
        ok,
        f"max graph defect over tau in {{0,1,2}}: {worst:.3e} <= {bound:.3e}",
    )


def test_criterion_08_almost_periodicity(spectrum16, cov16, path16, chart_grid16):
    g2 = rl.ForcingSignal.trig(
        16,
        [rl.TrigTerm(2, 0.02, 1.0, 0.0), rl.TrigTerm(3, 0.02, np.sqrt(2.0), 0.0)],
    )
    cert = check_gap(spectrum16, 0.1, 0.2, 1)
    problem = ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.per_mode_sin(0.1),
        forcing=g2,
        noise=path16,
        cert=cert,
        t_back=16.12,
        t_fwd=16.12,
        tol=TOL,
    )
    tau0, eps_g = scan_almost_period(g2, spectrum16, 1e-3, 450.0, 0.01)
    report = rl.ap_defect(0.0, tau0, chart_grid16[:3], problem)
    bound = 2.0 * eps_g / ((1.0 - cert.k) * cert.lambda_n) + 2.0 * TOL
    ok = eps_g <= 1e-3 and report.value <= bound
    assert _report(
        8,
        "almost periodicity",
        ok,
        f"tau0={tau0:.2f}, eps_g={eps_g:.3e}; graph defect {report.value:.3e} "
        f"<= {bound:.3e}",
    )


def test_criterion_09_containment(problem_nl, problem_lin_const):
    rng = np.random.default_rng(99)
    ensemble = rng.standard_normal((8, 16))
    lam1 = problem_lin_const.spectrum.lambdas[0]
    closed_ok = True
    worst = 0.0
    for t_m in (4.0, 8.0):
        cloud = pullback_attractor(0.0, problem_lin_const, t_m, ensemble)
        value = containment_defect(cloud, problem_lin_const).value
        worst = max(worst, value)
        closed_ok = closed_ok and value <= TOL + np.exp(-lam1 * t_m)

    v4 = containment_defect(
        pullback_attractor(0.0, problem_nl, 4.0, ensemble), problem_nl
    ).value
    v8 = containment_defect(
        pullback_attractor(0.0, problem_nl, 8.0, ensemble), problem_nl
    ).value
    halved = v8 <= 0.5 * v4
    ok = closed_ok and halved
    assert _report(
        9,
        "attractor containment",
        ok,
        f"closed-form cloud defect {worst:.2e} within tol+e^(-t); "
        f"nonlinear defect {v4:.2e} -> {v8:.2e} (need halving)",
    )


def test_criterion_10_dichotomy_oracles():
    # The dichotomy bounds on the semigroup arrays the solvers run, for
    # random vectors at random nodes: Q decay e^{-lambda_{n+1} t} and Q
    # smoothing (a^a t^-a + lambda_{n+1}^a) e^{-lambda_{n+1} t} on the forward
    # operator's Q kernel (the filter's zero-input response, ``q_flow``) and
    # on the Q filter's one-step factor ``damp`` raised to the node's step
    # count, and P growth lambda_n^a e^{lambda_n |t|}
    # on the backward operator's ``p_flow``.  ``weighted_factor`` integrates
    # the same bounds, so it must dominate the weighted kernel sums of those
    # arrays at every weight nu in [mu, lambda_{n+1}).
    violations = checks = 0
    for alpha in (0.0, 0.25):
        s = rl.dirichlet_laplacian(16, alpha)
        n = 3
        cert = check_gap(s, 0.1, 0.2, n)
        grid = rl.TimeGrid.from_times(-4.1, 4.1, 1e-3)
        ou = rl.solve_ou(rl.sample_wiener(0, grid, rl.CovarianceSpec.zero(16)), s)
        g0 = rl.ForcingSignal.zero(16)
        ctx = rl.LPContext(s, cert, rl.Nonlinearity.zero(), g0, ou, t_back=4.0)
        n_cells = 4000
        stencil = _ForwardStencil(ctx, n_cells)
        q_decay = q_flow(ctx, n_cells)
        lam_n, lam_np1 = cert.lambda_n, cert.lambda_np1
        wts_p, wts_q = s.weights_alpha()[:n], s.weights_alpha()[n:]
        smooth = alpha**alpha if alpha > 0 else 1.0

        def check(ok):
            nonlocal violations, checks
            checks += 1
            violations += not ok

        rng = np.random.default_rng(hash(alpha) % 2**32)
        for _ in range(500):
            vq = rng.standard_normal(16 - n)
            vp = rng.standard_normal(n)
            k = int(rng.integers(1, n_cells + 1))
            t = stencil.times[k]
            decay = np.exp(-lam_np1 * t) * np.linalg.norm(vq) * (1 + 1e-12)
            smoothing = smooth * t**-alpha + lam_np1**alpha
            for kern in (q_decay[k], ctx.damp[n:] ** k):
                check(np.linalg.norm(kern * vq) <= decay)
                check(np.linalg.norm(wts_q * kern * vq) <= smoothing * decay)
            j = int(rng.integers(0, ctx.n_cells))
            grown = lam_n**alpha * np.exp(-lam_n * ctx.times[j]) * np.linalg.norm(vp)
            check(np.linalg.norm(wts_p * ctx.p_flow[j] * vp) <= grown * (1 + 1e-12))

        h = ctx.h
        p_kernel = np.max(wts_p * ctx.p_flow[:-1], axis=1)  # lags -t > 0
        q_kernel = np.max(wts_q * q_decay[1:], axis=1)  # lags t > 0
        check(weighted_factor(cert, cert.mu) <= cert.k)
        for nu in cert.mu + np.array([0.0, 0.25, 0.5, 0.75]) * (lam_np1 - cert.mu):
            p_sum = h * np.sum(p_kernel * np.exp(nu * ctx.times[:-1]))
            q_sum = h * np.sum(q_kernel * np.exp(nu * stencil.times[1:]))
            check(cert.lipschitz * (p_sum + q_sum) <= weighted_factor(cert, nu))
    ok = violations == 0
    assert _report(
        10,
        "dichotomy oracles",
        ok,
        f"{violations} violations over {checks} checks on the Q flow, damp^k, p_flow "
        "and the weighted_factor kernel sums",
    )


def test_criterion_11_determinism(tmp_path):
    config = (
        "[spectrum]\nkind = dirichlet\nn_total = 8\nalpha = 0.0\n"
        "[nonlinearity]\nkind = per_mode_sin\nlipschitz = 0.1\n"
        "[forcing]\nform = trig_sum\nterms =\n    2 1.0 1.0 0.0\n"
        "period = 6.283185307179586\n"
        "[noise]\nkind = power_law\nscale = 0.05\nexponent = 2.0\nseed = 7\n"
        "[certificate]\nn = 1\nk = 0.2\n"
        "[numerics]\nh = 0.005\ntol = 1e-5\n"
        "[chart]\nx_count = 5\n"
        "[track]\ncount = 2\n"
        "[periodicity]\ntaus = 0.0\n"
        "[verify]\nchecks = invariance lipschitz tracking periodicity\n"
        "invariance_t = 0.5\n"
    )
    cfg = tmp_path / "det.ini"
    cfg.write_text(config, encoding="utf-8")
    pairs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main(["build-manifold", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        pairs.append(out)
    identical = all(
        (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
        for name in ("chart.csv", "chart_meta.json", "verification.json", "chart.svg")
    )
    doc = json.loads((pairs[0] / "verification.json").read_text())
    ok = identical and doc["all_pass"]
    assert _report(
        11,
        "byte determinism",
        ok,
        "two runs of build-manifold and verify produced identical CSV/JSON/SVG"
        if identical
        else "outputs differ between identical runs",
    )
