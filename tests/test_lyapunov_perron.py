import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import lfilter

import rimlab as rl
from conftest import (
    ModeCoupling,
    coarsen_path,
    dense_cells,
    line_grid,
    manifold_point,
    pairwise_lipschitz,
    tilde_manifold_point,
)
from rimlab import lyapunov_perron
from rimlab.errors import CertificateError, RimlabError
from rimlab.lyapunov_perron import (
    LPContext,
    _picard,
    _sweep,
    _two_weight_horizon,
    backward_horizon,
    build_chart,
    c_alpha_constant,
    check_gap,
    lp_apply,
    scan_gap,
    solve_fixed_point,
    weighted_factor,
)
from rimlab.spectral import norm_alpha


# ---- constants and certificate -------------------------------------------


def test_c_alpha_zero():
    assert c_alpha_constant(0.0) == 0.0


def test_c_alpha_against_quadrature():
    for alpha in (0.1, 0.25, 0.4):
        oracle = alpha**alpha * quad(lambda t, a=alpha: t ** (-a) * np.exp(-t), 0, np.inf)[0]
        assert c_alpha_constant(alpha) == pytest.approx(oracle, rel=1e-9)


def test_check_gap_small_lipschitz():
    # lambda_j = j^2, alpha=0, L=0.1, k=0.2: gap 3 >= 2, mu=2, delta=0.325.
    s = rl.dirichlet_laplacian(16, 0.0)
    cert = check_gap(s, 0.1, 0.2, 1)
    assert cert.mu == pytest.approx(2.0)
    assert cert.delta == pytest.approx(0.325)
    assert cert.margin == pytest.approx(1.0)
    assert cert.lambda_n == 1.0 and cert.lambda_np1 == 4.0


def test_check_gap_first_passing_index():
    # L=1, k=0.45 needs 2n+1 >= 8.888..., so n=4 is the first pass.
    s = rl.dirichlet_laplacian(16, 0.0)
    first = min(row["n"] for row in scan_gap(s, 1.0, 0.45) if row["margin"] >= 0)
    assert first == 4
    with pytest.raises(CertificateError):
        check_gap(s, 1.0, 0.45, 3)
    cert = check_gap(s, 1.0, 0.45, 4)
    assert cert.lambda_n < cert.mu < cert.lambda_np1


def test_check_gap_zero_lipschitz_passes_everywhere():
    s = rl.dirichlet_laplacian(12, 0.0)
    for n in range(1, 12):
        cert = check_gap(s, 0.0, 0.3, n)
        assert cert.mu == pytest.approx(cert.lambda_n)


def test_check_gap_parameter_errors():
    s = rl.dirichlet_laplacian(8, 0.0)
    with pytest.raises(RimlabError, match=r"contraction parameter k=1.5 must lie in \(0, 1\)"):
        check_gap(s, 0.1, 1.5, 1)
    with pytest.raises(RimlabError, match="gap index n=0 must satisfy"):
        check_gap(s, 0.1, 0.2, 0)
    with pytest.raises(RimlabError, match="Lipschitz constant must be nonnegative"):
        check_gap(s, -1.0, 0.2, 1)
    with pytest.raises(CertificateError):
        check_gap(rl.Spectrum(np.array([1.0, 1.0, 4.0])), 0.0, 0.2, 1)


def test_scan_gap_table():
    s = rl.dirichlet_laplacian(10, 0.0)
    rows = scan_gap(s, 1.0, 0.45)
    assert [r["n"] for r in rows] == list(range(1, 10))
    assert [r["passed"] for r in rows[:4]] == [False, False, False, True]
    assert "mu" in rows[3]


# The three instances the horizon is checked on: the workhorse, the
# fractional alpha = 0.25 fixture of test_fractional, and a tight instance
# whose gap margin is small (k = 0.49).
HORIZON_INSTANCES = {
    "workhorse": (16, 0.0, 0.1, 0.2, 0.05, 2.0),
    "fractional": (12, 0.25, 0.1, 0.45, 0.02, 3.0),
    "tight": (16, 0.0, 0.35, 0.49, 0.05, 2.0),
}


def _horizon_cert(name):
    n_total, alpha, lip, k, _, _ = HORIZON_INSTANCES[name]
    return check_gap(rl.dirichlet_laplacian(n_total, alpha), lip, k, 1)


def _checked_backward_horizon(cert, tol):
    # backward_horizon is the search's T at its pair rho < nu, inside the
    # gap with k below one at both, and the bound at T is at most tol/10
    t_back, rho, nu = _two_weight_horizon(
        cert, tol, lambda x: weighted_factor(cert, x), lambda x: 1.0
    )
    assert backward_horizon(cert, tol) == t_back
    assert cert.lambda_n < rho < nu < cert.lambda_np1
    k_rho, k_nu = weighted_factor(cert, rho), weighted_factor(cert, nu)
    assert k_rho < 1.0 and k_nu < 1.0
    bound = math.exp(-(nu - rho) * t_back) / ((1.0 - k_rho) * (1.0 - k_nu))
    assert bound <= tol / 10 * (1 + 1e-9)
    return t_back


def test_backward_horizon_rule():
    # The two-weight rule's T* on the three instances, never above the
    # one-weight rule's (e^{-(nu-mu)T} |xi*|_mu / (1 - k(nu)), which it
    # replaced).  The workhorse is the certificate and tol of both shipped
    # nonlinear configs, and linear_sine's F = 0 keeps t1.  The rule's
    # bound is re-evaluated in test_tracking's
    # test_forward_horizon_bound_holds.
    tol = 1e-6
    target = math.log(10.0 / tol)
    sizes = {  # (two-weight T*, one-weight T*)
        "workhorse": (6.7813, 9.3415),
        "fractional": (7.3137, 7.7138),
        "tight": (9.8837, 16.5611),
    }
    for name, (size, one_weight) in sizes.items():
        t_back = _checked_backward_horizon(_horizon_cert(name), tol)
        assert t_back == pytest.approx(size, abs=1e-4) and t_back <= one_weight
    # F = 0: the off-graph tail t1 alone, bit for bit
    s = rl.dirichlet_laplacian(16, 0.0)
    for n in (1, 3):
        cert = check_gap(s, 0.0, 0.2, n)
        assert backward_horizon(cert, tol) == target / (cert.lambda_np1 - cert.mu)
    # L so small that mu rounds to lambda_n, where the factors are infinite:
    # both windows are still sized, the backward one near t1
    cert = check_gap(s, 1e-20, 0.2, 1)
    assert cert.mu == cert.lambda_n
    t1 = target / (cert.lambda_np1 - cert.mu)
    assert t1 < backward_horizon(cert, tol) < 1.01 * t1
    assert rl.forward_horizon(cert, tol) == 0.0
    # an L no weight contracts for (check_gap refuses it): no pair, and an
    # infinite backward window rather than t1
    cert = dataclasses.replace(_horizon_cert("workhorse"), lipschitz=100.0)
    assert weighted_factor(cert, cert.mu) > 1.0
    assert backward_horizon(cert, tol) == math.inf
    assert rl.forward_horizon(cert, tol) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.floats(0.01, 50.0), min_size=5, max_size=5),
    lam_1=st.floats(0.05, 50.0),
    n=st.integers(1, 4),
    alpha=st.floats(0.0, 0.49),
    k=st.floats(0.01, 0.99),
    frac=st.floats(0.01, 1.0),
)
def test_weighted_factor_at_mu_within_certificate(gaps, lam_1, n, alpha, k, frac):
    # The derivation's premise: at nu = mu the weighted factor is the
    # certified k or less, on any instance that passes the gap condition.
    # L is a fraction of the largest admissible constant; at frac >= 0.01
    # mu - lambda_n is resolved to about 1e-9 relative, hence the slack.
    lams = lam_1 + np.concatenate([[0.0], np.cumsum(gaps)])
    s = rl.Spectrum(lams, alpha)
    lam_n, lam_np1 = lams[n - 1], lams[n]
    ca = c_alpha_constant(alpha)
    lip = frac * k * (lam_np1 - lam_n) / (
        2.0 * (lam_np1**alpha + lam_n**alpha + ca * (lam_np1 - lam_n) ** alpha)
    )
    try:
        cert = check_gap(s, lip, k, n)
    except CertificateError:
        assume(False)
    assert weighted_factor(cert, cert.mu) <= k * (1 + 1e-8)
    # so the backward window has a feasible pair and its bound holds; any
    # pair lambda_n < rho < nu < lambda_{n+1} has nu - rho below the gap
    t_back = _checked_backward_horizon(cert, 1e-6)
    assert t_back >= math.log(1e7) / (cert.lambda_np1 - cert.lambda_n)


@pytest.mark.parametrize(
    "instance, coupled",
    [(HORIZON_INSTANCES[name], False) for name in sorted(HORIZON_INSTANCES)]
    + [((16, 0.0, 0.1, 0.2, 0.05, 2.0), True), ((16, 0.0, 0.36, 0.49, 0.05, 2.0), True)],
    ids=[*sorted(HORIZON_INSTANCES), "coupled", "coupled_tight"],
)
def test_graph_value_settled_at_horizon(instance, coupled):
    # m(x) on the window T* agrees with a window 3T* long to within tol/10.
    # Under the linear coupling F = L S u the Q part grows with the P flow,
    # the slowest tail decay the bound allows.
    tol = 1e-6
    n_total, alpha, lip, k, scale, exponent = instance
    s = rl.dirichlet_laplacian(n_total, alpha)
    cert = check_gap(s, lip, k, 1)
    t_back = backward_horizon(cert, tol)
    g = rl.ForcingSignal(
        n_total, terms=[rl.TrigTerm(2, 1.0, 1.0, 0.0)], declared_period=2.0 * np.pi
    )
    cov = rl.CovarianceSpec.power_law(n_total, scale, exponent)
    grid = rl.TimeGrid.from_times(-(3.0 * t_back + 10.0) - 0.1, 0.1, 1e-3)
    ou = rl.solve_ou(rl.sample_wiener(7, grid, cov), s)
    f = ModeCoupling("mode_coupling", lip) if coupled else rl.Nonlinearity.per_mode_sin(lip)
    short, long = (
        LPContext(s, cert, f, g, ou, 0.0, t_back=t, tol=tol / 1000) for t in (t_back, 3 * t_back)
    )
    for x1 in (-1.0, 0.25, 1.0):
        x = np.zeros(n_total)
        x[0] = x1
        diff = manifold_point(x, short) - manifold_point(x, long)
        assert rl.norm_alpha(diff, s) <= tol / 10


# ---- operator and fixed point ---------------------------------------------


def _random_history(ctx, rng, scale=0.5):
    vals = rng.standard_normal((ctx.times.size, ctx.spectrum.size))
    vals *= scale * np.exp(-ctx.cert.mu * ctx.times)[:, None]
    return vals


def test_lp_apply_pure_backward_flow(problem_lin):
    # F=0, g=0: the operator returns the backward flow on the resolved modes.
    g0 = rl.ForcingSignal(16)
    ctx = LPContext(
        problem_lin.spectrum,
        problem_lin.cert,
        rl.Nonlinearity.zero(),
        g0,
        problem_lin.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_lin.tol,
    )
    x = np.zeros(16)
    x[0] = 0.8
    out = lp_apply(ctx.initial_guess(x), x, ctx)
    expected = np.zeros_like(out)
    expected[:, 0] = 0.8 * np.exp(-1.0 * ctx.times)
    assert np.allclose(out, expected, rtol=1e-13, atol=1e-13)


def test_lp_apply_sine_forcing_convolution(problem_lin):
    # Off-graph component at time 0 equals the analytic weighted convolution
    # (lam sin(b tau) - b cos(b tau)) / (lam^2 + b^2) for each tau.
    ctx = problem_lin.lp_context(0.0)
    x = np.zeros(16)
    out = lp_apply(ctx.initial_guess(x), x, ctx)
    lam, beta = 4.0, 1.0
    for tau in (0.0, 1.3):
        ctx_t = problem_lin.lp_context(tau)
        out = lp_apply(ctx_t.initial_guess(x), x, ctx_t)
        oracle = (lam * np.sin(beta * tau) - beta * np.cos(beta * tau)) / (lam**2 + beta**2)
        assert out[-1, 1] == pytest.approx(oracle, abs=1e-9)
    assert out[-1, 1] != 0.0


def test_lp_apply_minus_one_seventeenth(problem_lin):
    ctx = problem_lin.lp_context(0.0)
    x = np.zeros(16)
    out = lp_apply(ctx.initial_guess(x), x, ctx)
    assert out[-1, 1] == pytest.approx(-1.0 / 17.0, abs=1e-9)


def test_lp_contraction_ratios(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(14)
    x = np.zeros(16)
    x[0] = 0.3
    slack = 5.0 * problem_nl.h * problem_nl.cert.lambda_np1
    for _ in range(16):
        a = _random_history(ctx, rng)
        b = _random_history(ctx, rng)
        num = ctx.s_norm(lp_apply(a, x, ctx) - lp_apply(b, x, ctx))
        den = ctx.s_norm(a - b)
        assert num / den <= problem_nl.cert.k * (1 + 1e-6) + slack


def _lp_apply_row_major(values, x, ctx):
    # Frozen reference: the backward operator as written before histories
    # were stored mode-major, on C-ordered copies, one lfilter per mode.
    values = np.ascontiguousarray(values)
    z = np.ascontiguousarray(ctx.z)
    p_flow = np.ascontiguousarray(ctx.p_flow)
    fw = ctx.nonlinearity.apply(values + z, ctx.spectrum)
    u = ctx.w1 * fw[:-1] + dense_cells(ctx)
    m = u.shape[0]
    out = np.zeros_like(values)
    for j in range(ctx.cert.n, ctx.spectrum.size):
        out[1:, j] = lfilter([1.0], [1.0, -ctx.damp[j]], u[:, j])
    for col, j in enumerate(range(ctx.cert.n)):
        a = ctx.grow[j]
        rev = lfilter([a], [1.0, -a], u[::-1, j])
        tail = np.zeros(m + 1)
        tail[:m] = rev[::-1]
        out[:, j] = p_flow[:, col] * x[j] - tail
    return out


def test_context_keeps_the_forced_cells_only(problem_nl):
    # The context stores the forcing cells of the forced modes (a constant
    # amplitude or a trig term) and no column of zeros for the others, and
    # tabulates no other column: building it peaks below one dense table.
    import tracemalloc

    amps = np.zeros(16)
    amps[3] = 0.5
    forcings = {
        (1,): problem_nl.forcing,  # the workhorse sine on mode 2
        (1, 3): rl.ForcingSignal(16, amps, problem_nl.forcing.terms),
        (): rl.ForcingSignal(16),
    }
    for forced, forcing in forcings.items():
        problem = dataclasses.replace(problem_nl, forcing=forcing)
        problem.ou  # solved before the trace
        tracemalloc.start()
        try:
            ctx = problem.lp_context(0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = dense_cells(ctx)
        assert peak < dense.nbytes
        assert ctx.forced == list(forced)
        assert np.array_equal(ctx.gcells, dense[:, ctx.forced])
        assert not np.any(np.delete(dense, ctx.forced, axis=1))
        xi = ctx.initial_guess(line_grid(16, 1)[0])
        assert np.array_equal(lp_apply(xi, xi[-1], ctx), _lp_apply_row_major(xi, xi[-1], ctx))


@pytest.mark.parametrize("x1", [-0.8, 0.35])
def test_lp_apply_and_solve_match_row_major_reference(problem_nl, x1):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = x1
    xi = ctx.initial_guess(x)
    assert np.array_equal(lp_apply(xi, x, ctx), _lp_apply_row_major(xi, x, ctx))
    # Picard iteration on the reference, with the row-wise S-norm and the
    # same stopping rule, reaches the same history bit for bit.
    solved, iterations = solve_fixed_point(x, ctx)
    ref = np.ascontiguousarray(xi)
    thresh = (1.0 - ctx.cert.k) * ctx.tol
    for count in range(1, 50):
        new = _lp_apply_row_major(ref, x, ctx)
        d = np.max(ctx.wmu * np.linalg.norm((new - ref) * ctx.wts_alpha, axis=-1))
        ref = new
        if d <= thresh:
            break
    assert count == iterations
    assert np.array_equal(solved, ref)


def test_histories_are_mode_major(problem_nl):
    # Every history the backward operator iterates on keeps each mode's
    # column contiguous, the layout the per-mode filters scan.
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.5
    guess = ctx.initial_guess(x)
    solved, _ = solve_fixed_point(x, ctx)
    moved = ctx.rebase(solved, x, 0.9 * x)
    row_major = np.ascontiguousarray(guess)
    for history in (guess, solved, moved, lp_apply(guess, x, ctx), lp_apply(row_major, x, ctx)):
        assert history.flags.f_contiguous


def test_solver_one_iteration_when_constant(problem_lin):
    g0 = rl.ForcingSignal(16)
    ctx = LPContext(
        problem_lin.spectrum,
        problem_lin.cert,
        rl.Nonlinearity.zero(),
        g0,
        problem_lin.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_lin.tol,
    )
    x = np.zeros(16)
    x[0] = -0.4
    xi, iterations = solve_fixed_point(x, ctx)
    assert iterations == 1
    # with forcing the constant operator still converges on the second apply
    ctx_g = problem_lin.lp_context(0.0)
    _, iterations_g = solve_fixed_point(x, ctx_g)
    assert iterations_g <= 2


def test_solver_ratio_sequence_below_k(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.5
    xi = ctx.initial_guess(x)
    dists = []
    for _ in range(6):
        xi_new = lp_apply(xi, x, ctx)
        dists.append(ctx.s_norm(xi_new - xi))
        xi = xi_new
    dists = np.array(dists)
    live = dists > 1e-14
    ratios = dists[1:][live[1:]] / dists[:-1][live[1:]]
    assert np.all(ratios <= problem_nl.cert.k + 0.05)


def test_solver_iteration_cap(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.5
    xi, iterations = solve_fixed_point(x, ctx)
    xi0 = ctx.initial_guess(x)
    d1 = ctx.s_norm(lp_apply(xi0, x, ctx) - xi0)
    thresh = (1 - ctx.cert.k) * ctx.tol
    cap = math.ceil(math.log(thresh / d1) / math.log(ctx.cert.k)) + 1
    assert iterations <= cap


def test_solver_apriori_bound(problem_nl, past_forcing_bound):
    # (1-k)||xi*|| <= k||z|| + ||A^a x|| + past-integral of the forcing.
    ctx = problem_nl.lp_context(0.7)
    x = np.zeros(16)
    x[0] = 0.9
    xi, _ = solve_fixed_point(x, ctx)
    k = ctx.cert.k
    lhs = (1 - k) * ctx.s_norm(xi)
    rhs = (
        k * ctx.s_norm(ctx.z)
        + rl.norm_alpha(x, ctx.spectrum)
        + past_forcing_bound(problem_nl.forcing, problem_nl.spectrum)
    )
    assert lhs <= rhs * (1 + 10 * problem_nl.h * ctx.cert.lambda_np1)


def test_solver_detects_wrong_certificate(problem_nl):
    # Feeding a much stronger nonlinearity than certified must trip the guard.
    ctx = LPContext(
        problem_nl.spectrum,
        problem_nl.cert,  # certified for L = 0.1
        rl.Nonlinearity.per_mode_sin(1.5),
        problem_nl.forcing,
        problem_nl.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_nl.tol,
    )
    x = np.zeros(16)
    x[0] = 0.5
    with pytest.raises(CertificateError):
        solve_fixed_point(x, ctx)


def _scalar_picard(step, factor, slack, tol):
    """_picard on floats from 1.0, counting the steps it takes."""
    calls = []

    def counted(x):
        calls.append(x)
        return step(x)

    try:
        return _picard(counted, lambda a, b: abs(a - b), [1.0], factor, slack, tol), len(calls)
    except CertificateError as exc:
        return str(exc), len(calls)


def test_picard_exits():
    # Halving from 1 moves by 2^-k at step k: the stop at (1 - factor) tol
    # = 2^-10 is met exactly, at the tenth step.
    (fixed, iterations), calls = _scalar_picard(lambda x: x / 2, 0.5, 0.0, 2.0**-9)
    assert (fixed, iterations, calls) == (2.0**-10, 10, 10)
    # Constant distances (ratio 1) stay within factor + slack = 1.4, so only
    # the ratio >= 1 guard can stop them.
    message, calls = _scalar_picard(lambda x: x + 1.0, 0.9, 0.5, 1e-6)
    assert "stopped decreasing" in message and calls == 2
    message, calls = _scalar_picard(lambda x: 0.7 * x, 0.5, 0.1, 1e-6)
    assert "exceeds factor + slack" in message and calls == 2
    # factor + slack = 1.1 clips the budget's rate to 0.999.  Ratios of
    # 0.9999 pass both guards, and from a first distance of 1e-4 to the
    # stop at 0.1 tol = 0.99e-4 the cap is ceil(ln 0.99 / ln 0.999) + 1 = 12,
    # exceeded at the thirteenth step.
    message, calls = _scalar_picard(lambda x: 0.9999 * x, 0.9, 0.2, 0.99e-3)
    assert "12-iteration budget" in message and calls == 13


def test_warm_start_from_neighbour(problem_nl):
    # A neighbouring point's fixed point, moved to x by rebase, is a start
    # that converges to within tol of the cold solve in at most two applies.
    ctx = problem_nl.lp_context(0.0)
    x_near = np.zeros(16)
    x_near[0] = 0.5
    x = x_near.copy()
    x[0] = 0.5001
    near, _ = solve_fixed_point(x_near, ctx)
    cold, cold_iters = solve_fixed_point(x, ctx)
    warm, warm_iters = solve_fixed_point(x, ctx, start=ctx.rebase(near, x_near, x))
    assert warm_iters <= 2 < cold_iters
    assert ctx.s_norm(warm - cold) <= ctx.tol


def test_warm_solve_holds_at_most_three_histories(problem_nl):
    # The start is handed to the solve (popped from a list, so this frame
    # keeps no reference), which drops it after the first step; Picard then
    # holds the iterate, the next one and their difference, and F allocates
    # only its result.  A history is counted from the window, since ctx.z
    # is a view and owns no bytes.
    import tracemalloc

    ctx = problem_nl.lp_context(0.0)
    history = ctx.times.size * ctx.spectrum.size * 8
    x_near, x = np.zeros(16), np.zeros(16)
    x_near[0], x[0] = 0.5, 0.6
    near, _ = solve_fixed_point(x_near, ctx)
    tracemalloc.start()
    try:
        starts = [ctx.rebase(near, x_near, x)]
        inputs = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, iterations = solve_fixed_point(x, ctx, starts.pop())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations >= 2
    assert peak - inputs <= 3 * history


def test_selfmap_bound_along_picard_iterates(problem_nl, past_forcing_bound):
    # Every apply of the solve maps xi into the ball
    # ||T xi|| <= k ||xi + z|| + ||A^a P x|| + past-integral of the forcing.
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.4
    _, iterations = solve_fixed_point(x, ctx)
    g_past = past_forcing_bound(problem_nl.forcing, problem_nl.spectrum)
    slack = 1.0 + 10.0 * ctx.h * ctx.cert.lambda_np1
    xi = ctx.initial_guess(x)
    for _ in range(iterations):
        out = lp_apply(xi, x, ctx)
        rhs = (
            ctx.cert.k * ctx.s_norm(xi + ctx.z)
            + rl.norm_alpha(ctx.project_p(x), ctx.spectrum)
            + g_past
        )
        assert ctx.s_norm(out) <= rhs * slack + 1e-12
        xi = out


# ---- graph map -------------------------------------------------------------


def test_manifold_zero_without_data(problem_lin):
    g0 = rl.ForcingSignal(16)
    ctx = LPContext(
        problem_lin.spectrum,
        problem_lin.cert,
        rl.Nonlinearity.zero(),
        g0,
        problem_lin.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_lin.tol,
    )
    x = np.zeros(16)
    x[0] = 1.0
    assert np.array_equal(manifold_point(x, ctx), np.zeros(16))


def test_manifold_constant_forcing_closed_form(problem_lin_const):
    # m = (integral of e^{lam s}) c = c / lambda_2 on mode 2, for every x, tau.
    for tau in (0.0, 2.0):
        ctx = problem_lin_const.lp_context(tau)
        for x1 in (-0.7, 0.4):
            x = np.zeros(16)
            x[0] = x1
            m = manifold_point(x, ctx)
            assert m[1] == pytest.approx(0.25, abs=2e-6)
            assert np.max(np.abs(np.delete(m, 1))) < 1e-12


def test_manifold_norm_bound(problem_nl, past_forcing_bound):
    # ||m(x)|| <= (k||z|| + ||A^a x|| + g-integral) / (1-k).
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 1.0
    m = manifold_point(x, ctx)
    k = ctx.cert.k
    rhs = (
        k * ctx.s_norm(ctx.z)
        + rl.norm_alpha(x, ctx.spectrum)
        + past_forcing_bound(problem_nl.forcing, problem_nl.spectrum)
    ) / (1 - k)
    assert rl.norm_alpha(m, ctx.spectrum) <= rhs * (1 + 10 * problem_nl.h * ctx.cert.lambda_np1)


def test_graph_identity_resolved_part(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.6
    xi, _ = solve_fixed_point(x, ctx)
    assert xi[-1, 0] == pytest.approx(0.6, abs=1e-14)


def test_tilde_manifold_offsets(problem_nl, problem_lin_const):
    ctx = problem_nl.lp_context(0.0)
    z0 = ctx.z_at_zero()
    x = np.zeros(16)
    x[0] = 0.3
    tilde = tilde_manifold_point(x, ctx)
    direct = ctx.project_q(z0) + manifold_point(ctx.project_p(x - z0), ctx)
    assert np.array_equal(tilde, direct)
    # with zero noise the two graph maps coincide
    grid = rl.TimeGrid.from_times(-10.0, 1.0, 1e-3)
    w0 = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(16))
    ctx0 = LPContext(
        problem_nl.spectrum,
        problem_nl.cert,
        problem_nl.nonlinearity,
        problem_nl.forcing,
        rl.solve_ou(w0, problem_nl.spectrum),
        tau=0.0,
        t_back=6.0,
        tol=1e-6,
    )
    a = tilde_manifold_point(x, ctx0)
    b = manifold_point(x, ctx0)
    assert np.array_equal(a, b)


def test_tilde_affine_shift_linear_case(problem_lin_const):
    # F=0: the offset graph is the OU state plus the deterministic value.
    ctx = problem_lin_const.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.5
    tilde = tilde_manifold_point(x, ctx)
    m_det = manifold_point(ctx.project_p(x - ctx.z_at_zero()), ctx)
    assert np.array_equal(tilde, ctx.project_q(ctx.z_at_zero()) + m_det)


# ---- charts ----------------------------------------------------------------


def test_chart_single_point(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros((1, 16))
    chart = build_chart(x, ctx)
    assert chart.values.shape == (1, 16)
    assert chart.residuals[0] <= problem_nl.tol


def test_chart_lipschitz_and_flatness(problem_nl, chart_grid16):
    ctx = problem_nl.lp_context(0.0)
    chart = build_chart(chart_grid16, ctx)
    assert chart.lipschitz <= 1.0 / (1.0 - ctx.cert.k) + 0.05
    assert np.all(chart.residuals <= problem_nl.tol)
    # the diagonal sine nonlinearity decouples modes: the graph is flat in x
    assert np.max(np.std(chart.values, axis=0)) < 1e-7


def test_chart_lipschitz_edge_cases(problem_nl):
    # A coupled F makes the graph depend on x.  One point has no pair, and
    # a repeated point's pair (dx = 0) has no quotient: the chart gives the
    # pairwise double loop's value, bit for bit.
    coupled = dataclasses.replace(problem_nl, nonlinearity=ModeCoupling("mode_coupling", 0.1))
    ctx = coupled.lp_context(0.0)
    assert build_chart(line_grid(16, 1), ctx).lipschitz == 0.0
    chart = build_chart(line_grid(16, 4)[[0, 1, 1, 2, 3]], ctx)
    assert chart.lipschitz > 1e-3
    assert chart.lipschitz == pairwise_lipschitz(chart.x_grid, chart.values, ctx.spectrum)


def test_chart_linear_case_x_independent(problem_lin, chart_grid16):
    ctx = problem_lin.lp_context(0.0)
    chart = build_chart(chart_grid16, ctx)
    assert np.max(chart.values.max(axis=0) - chart.values.min(axis=0)) < 1e-12
    assert chart.lipschitz == 0.0


def test_chart_offset_identity(problem_nl, chart_grid16):
    # The offset chart equals the plain chart shifted by the OU state.
    ctx = problem_nl.lp_context(0.0)
    z0 = ctx.z_at_zero()
    for x in chart_grid16[:3]:
        tilde = tilde_manifold_point(x + ctx.project_p(z0), ctx)
        plain = manifold_point(ctx.project_p(x), ctx)
        assert np.allclose(tilde, ctx.project_q(z0) + plain, atol=1e-14)


def test_horizon_convergence(problem_nl):
    # Doubling the backward horizon moves the graph value monotonically less.
    x = np.zeros(16)
    x[0] = 0.5
    values = []
    for t_back in (2.0, 4.0, 8.0):
        ctx_short = LPContext(
            problem_nl.spectrum,
            problem_nl.cert,
            problem_nl.nonlinearity,
            problem_nl.forcing,
            problem_nl.ou,
            tau=0.0,
            t_back=t_back,
            tol=1e-9,
        )
        values.append(manifold_point(x, ctx_short))
    deltas = [float(np.linalg.norm(values[i + 1] - values[i])) for i in range(2)]
    assert deltas[1] <= deltas[0]


def test_chart_residuals_report_small(problem_nl):
    # A chart residual is the measured operator residual of its fixed point;
    # a one-point chart solves cold, so it is that of the cold solve.
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = 0.2
    xi, _ = solve_fixed_point(x, ctx)
    chart = build_chart(x, ctx)
    assert chart.residuals[0] == ctx.s_norm(lp_apply(xi, x, ctx) - xi)
    assert chart.residuals[0] <= problem_nl.tol


# ---- continuation sweeps ---------------------------------------------------


def test_sweep_matches_cold_solves(problem_nl, chart_grid16):
    # Each warm-started value is within 2 tol of a cold solve: both stop
    # within tol of the same fixed point.
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(5)
    for xs in (chart_grid16, ctx.project_p(rng.standard_normal((6, 16)))):
        for x, (xi, _) in zip(xs, _sweep(xs, ctx)):
            cold = manifold_point(x, ctx)
            assert norm_alpha(ctx.project_q(xi[-1]) - cold, ctx.spectrum) <= 2.0 * ctx.tol


def test_one_point_sweep_is_a_cold_solve(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    x = np.zeros(16)
    x[0] = -0.3
    ((xi, _),) = _sweep([x], ctx)
    assert np.array_equal(xi, solve_fixed_point(x, ctx)[0])


def test_chart_sweep_saves_operator_applications(problem_nl, chart_grid16, monkeypatch):
    # Warm starts make a 9-point chart cheaper than 9 cold solves plus the
    # 9 residual applications.
    ctx = problem_nl.lp_context(0.0)
    cold = sum(solve_fixed_point(x, ctx)[1] for x in chart_grid16) + len(chart_grid16)
    calls = []
    apply = lyapunov_perron.lp_apply
    monkeypatch.setattr(lyapunov_perron, "lp_apply", lambda *a: calls.append(1) or apply(*a))
    build_chart(chart_grid16, ctx)
    assert len(calls) < cold


def test_sorted_secant_sweep_saves_operator_applications(problem_nl, monkeypatch):
    # A random cloud of 16 base points, as the containment check solves it:
    # ModelProblem.graph_values sorts the points by P coordinate and starts
    # each solve on the secant through the two previous fixed points.  That
    # takes at least 30 % fewer applications than solving the points in the
    # given order, each started from its predecessor moved by rebase alone.
    # The P spread of 0.3 is wider than that of a pulled-back ensemble
    # (about e^{-4} of its radius); over [-1, 1] the saving drops to about
    # 20 %, since the history far in the past is not smooth in x.
    ctx = problem_nl.lp_context(0.0)
    xs = np.random.default_rng(11).uniform(-0.3, 0.3, (16, 16))
    bases = ctx.project_p(xs)
    rebased, xi, x_prev = 0, None, None
    for x in bases:
        start = None if xi is None else ctx.rebase(xi, x_prev, x)
        xi, iterations = solve_fixed_point(x, ctx, start)
        rebased, x_prev = rebased + iterations, x
    calls = []
    apply = lyapunov_perron.lp_apply
    monkeypatch.setattr(lyapunov_perron, "lp_apply", lambda *a: calls.append(1) or apply(*a))
    values = problem_nl.graph_values(0.0, xs)
    assert len(calls) <= 0.7 * rebased
    cold = np.array([manifold_point(x, ctx) for x in bases])
    assert np.max(np.linalg.norm(values - cold, axis=1)) <= 2.0 * ctx.tol


def test_context_rejects_nonpositive_tol(problem_nl):
    for tol in (0.0, -1e-6):
        with pytest.raises(RimlabError, match="tolerance must be positive"):
            LPContext(
                problem_nl.spectrum,
                problem_nl.cert,
                problem_nl.nonlinearity,
                problem_nl.forcing,
                problem_nl.ou,
                tau=0.0,
                t_back=4.0,
                tol=tol,
            )


def test_lp_apply_misaligned_window_errors(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    short = LPContext(
        problem_nl.spectrum,
        problem_nl.cert,
        problem_nl.nonlinearity,
        problem_nl.forcing,
        problem_nl.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_nl.tol,
    )
    x = np.zeros(16)
    with pytest.raises(RimlabError, match="history nodes do not match the context window"):
        lp_apply(short.initial_guess(x), x, ctx)


def test_graph_values_first_order_in_step():
    # The graph map converges under step refinement: against an 8x-refined
    # reference on the same restricted path, quartering the step shrinks
    # the graph-value error at least threefold.  (A matched-resolution
    # invariance defect cannot see this because both of its legs share one
    # step; acceptance criterion 5 sees it by flowing against an h/16 driver.)
    s = rl.dirichlet_laplacian(12, 0.0)
    cert = check_gap(s, 0.1, 0.2, 1)
    f = rl.Nonlinearity.per_mode_sin(0.1)
    g = rl.ForcingSignal(12, terms=[rl.TrigTerm(2, 1.0, 1.0, 0.0)], declared_period=2 * np.pi)
    cov = rl.CovarianceSpec.power_law(12, 0.05, 2.0)
    from rimlab.problem import ModelProblem

    h0 = 2e-3
    fine = rl.TimeGrid.from_times(-28.0, 1.0, h0 / 8)
    w_fine = rl.sample_wiener(3, fine, cov)
    x = np.zeros(12)
    x[0] = 0.5

    def graph_at(path):
        prob = ModelProblem(
            spectrum=s, nonlinearity=f, forcing=g, ou=rl.solve_ou(path, s), cert=cert,
            t_back=16.2, t_fwd=16.2, tol=1e-11,
        )
        return manifold_point(x, prob.lp_context(0.0))

    m_ref = graph_at(w_fine)
    errs = [
        float(np.linalg.norm(graph_at(coarsen_path(w_fine, fac)) - m_ref))
        for fac in (8, 4, 2)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] >= 3.0 * errs[2]
