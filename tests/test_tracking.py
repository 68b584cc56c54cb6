import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rimlab as rl
from conftest import (
    ModeCoupling,
    forward_apply,
    manifold_point,
    tilde_manifold_point,
    track_alone,
)
from rimlab.analysis import tracking_defects
from rimlab.dynamics import integrate
from rimlab.errors import CertificateError, RimlabError
from rimlab.forcing import shift_forcing
from rimlab.lyapunov_perron import _two_weight_horizon, weighted_factor
from rimlab.problem import ModelProblem
from rimlab.tracking import base_orbit, forward_horizon, track_phi


def _random_forward(ctx, times, rng, scale=0.3):
    vals = rng.standard_normal((times.size, ctx.spectrum.size))
    vals *= scale * np.exp(-ctx.cert.mu * times)[:, None]
    return vals


def _base_orbit(problem, ctx, v0, t_fwd):
    return integrate(
        v0,
        0.0,
        t_fwd,
        problem.ou,
        shift_forcing(problem.forcing, ctx.tau),
        problem.nonlinearity,
        problem.spectrum,
    )


def _on_manifold_point(ctx, x1=0.4):
    x = np.zeros(ctx.spectrum.size)
    x[0] = x1
    return x + manifold_point(x, ctx)


def test_requires_half_contraction(problem_nl):
    cert_bad = rl.check_gap(problem_nl.spectrum, 0.1, 0.8, 1)
    ctx = rl.LPContext(
        problem_nl.spectrum,
        cert_bad,
        problem_nl.nonlinearity,
        problem_nl.forcing,
        problem_nl.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_nl.tol,
    )
    with pytest.raises(RimlabError, match="tracking requires k < 1/2"):
        track_alone(np.zeros(16), ctx, 2.0)


def test_forward_operator_linear_case(problem_lin):
    # F=0: one sweep lands on e^{-At} y0 independently of the iterate.
    ctx = problem_lin.lp_context(0.0)
    t_fwd = 4.0
    rng = np.random.default_rng(0)
    v0 = 0.5 * rng.standard_normal(16)
    base = _base_orbit(problem_lin, ctx, v0, t_fwd)
    times = np.arange(len(base)) * ctx.h
    xi_a = _random_forward(ctx, times, rng)
    xi_b = _random_forward(ctx, times, rng)
    out_a, y0_a = forward_apply(xi_a, v0, base, ctx)
    out_b, y0_b = forward_apply(xi_b, v0, base, ctx)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(y0_a, y0_b)
    expected = -ctx.project_q(v0) + manifold_point(ctx.project_p(v0), ctx)
    assert np.allclose(y0_a, expected, atol=1e-12)
    decay = np.exp(-np.outer(times, problem_lin.spectrum.lambdas))
    assert np.allclose(out_a, decay * y0_a, atol=1e-12)


def test_forward_operator_contraction(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    t_fwd = problem_nl.t_fwd
    rng = np.random.default_rng(1)
    v0 = 0.5 * rng.standard_normal(16)
    base = _base_orbit(problem_nl, ctx, v0, t_fwd)
    times = np.arange(len(base)) * ctx.h
    delta = ctx.cert.delta
    slack = 5.0 * problem_nl.h * ctx.cert.lambda_np1
    wmu = np.exp(ctx.cert.mu * times)
    wts = ctx.spectrum.weights_alpha()
    for _ in range(8):
        xi_a = _random_forward(ctx, times, rng)
        xi_b = _random_forward(ctx, times, rng)
        out_a, _ = forward_apply(xi_a, v0, base, ctx)
        out_b, _ = forward_apply(xi_b, v0, base, ctx)
        num = rl.lyapunov_perron.weighted_sup_norm(wmu, out_a - out_b, wts)
        den = rl.lyapunov_perron.weighted_sup_norm(wmu, xi_a - xi_b, wts)
        assert num / den <= delta + slack


def test_on_manifold_point_is_fixed(problem_nl):
    # A state on the offset graph z(0) + x + m(x) is its own shadowing point.
    ctx = problem_nl.lp_context(0.0)
    u0 = ctx.z_at_zero() + _on_manifold_point(ctx)
    result = track_alone(u0, ctx, problem_nl.t_fwd)
    assert result.defect <= 2.0 * problem_nl.tol
    assert np.linalg.norm(result.u0_star - u0) <= 10.0 * problem_nl.tol
    assert np.max(result.decay_curve) <= 10.0 * problem_nl.tol


def test_linear_pure_q_decay(problem_lin):
    # F=0 with a seed on the unresolved modes: the difference decays like
    # the unresolved semigroup and sits inside the certified envelope.
    ctx = problem_lin.lp_context(0.0)
    rng = np.random.default_rng(2)
    u0 = 0.5 * rng.standard_normal(16)
    result = track_alone(u0, ctx, 6.0)
    lam2 = problem_lin.spectrum.lambdas[1]
    # curve equals |e^{-At} y0| which is dominated by the mode-2 rate; for
    # F = 0 the seed is y0 = m(P v0) - Q v0, whose norm (alpha = 0) is the defect
    idx = np.searchsorted(result.times, 1.0)
    assert result.decay_curve[idx] <= np.exp(-lam2 * 1.0) * result.defect * (1 + 1e-6)
    envelope, _ = tracking_defects([result], problem_lin, 0.0)
    assert envelope.passed


def test_tracking_envelope_and_slope(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(3)
    slack = 1.0 + 10.0 * problem_nl.h * ctx.cert.lambda_np1
    for _ in range(3):
        u0 = 0.6 * rng.standard_normal(16)
        result = track_alone(u0, ctx, problem_nl.t_fwd)
        envelope = result.prefactor * np.exp(-ctx.cert.mu * result.times)
        assert np.all(result.decay_curve <= envelope * slack)
        assert result.fitted_slope() <= -ctx.cert.mu + 0.1
        assert result.graph_residual <= 2.0 * problem_nl.tol


def test_consistency_with_dynamics(problem_nl):
    # The discrete orbit of the shadowing point v0* is base + xi at every
    # node: its distance to the base orbit is the decay curve |xi| to 1e-9
    # relative accuracy (tight-tolerance run; alpha = 0, so the node norm
    # is the Euclidean one).
    ctx = dataclasses.replace(problem_nl, tol=5e-10).lp_context(0.0)
    rng = np.random.default_rng(4)
    u0 = 0.5 * rng.standard_normal(16)
    t_fwd = 6.0
    result = track_alone(u0, ctx, t_fwd)
    base = _base_orbit(problem_nl, ctx, result.v0, t_fwd)
    star = integrate(
        result.v0_star,
        0.0,
        t_fwd,
        problem_nl.ou,
        shift_forcing(problem_nl.forcing, 0.0),
        problem_nl.nonlinearity,
        problem_nl.spectrum,
    )
    assert np.array_equal(np.arange(len(star)) * ctx.h, result.times)
    scale = np.maximum(np.linalg.norm(star, axis=1), 1.0)
    gap = np.linalg.norm(star - base, axis=1)
    assert np.max(np.abs(gap - result.decay_curve) / scale) <= 1e-9


def test_track_phi_orbit_difference_identity(problem_nl):
    # The original-variable orbit difference is computed in transformed
    # variables, where the OU conjugation cancels identically.
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(6)
    u0 = 0.5 * rng.standard_normal(16)
    result = track_alone(u0, ctx, 4.0)
    z0 = ctx.z_at_zero()
    assert np.array_equal(result.u0_star, result.v0_star + z0)
    assert np.array_equal(result.v0, u0 - z0)
    # defect against the offset graph map equals the transformed defect
    tilde_defect = rl.norm_alpha(
        ctx.project_q(u0) - tilde_manifold_point(u0, ctx), ctx.spectrum
    )
    assert tilde_defect == pytest.approx(result.defect, abs=2.0 * problem_nl.tol)


def test_track_phi_envelope(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(7)
    u0 = 0.7 * rng.standard_normal(16)
    result = track_alone(u0, ctx, problem_nl.t_fwd)
    envelope, _ = tracking_defects([result], problem_nl, 0.0)
    assert envelope.passed
    assert result.fitted_slope() <= -ctx.cert.mu + 0.1


def test_batched_bases_match_single_tracking(problem_nl):
    # Three orbits tracked from one batched base integration agree with
    # track_phi run alone, and each defect is exactly the cold graph solve
    # at P v0 (the first sweep's nested solve is reused for it).
    ctx = problem_nl.lp_context(0.0)
    t_fwd = 6.0
    u0s = 0.5 * np.random.default_rng(8).standard_normal((3, 16))
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, t_fwd)
    assert bases.shape[1:] == (3, 16)
    for i, u0 in enumerate(u0s):
        batched = track_phi(u0, ctx, bases[:, i])
        alone = track_alone(u0, ctx, t_fwd)
        assert np.max(np.abs(batched.u0_star - alone.u0_star)) <= problem_nl.tol
        v0 = batched.v0
        fresh = rl.norm_alpha(
            ctx.project_q(v0) - manifold_point(ctx.project_p(v0), ctx), ctx.spectrum
        )
        assert batched.defect == fresh
        assert batched.graph_residual <= 2.0 * problem_nl.tol


def test_base_must_belong_to_v0(problem_nl):
    # The base orbit is the one statement of the forward window, so a base
    # that is another state's orbit, not a node array, or shorter than two
    # cells is refused, even where its first row is v0.
    ctx = problem_nl.lp_context(0.0)
    u0s = 0.5 * np.random.default_rng(9).standard_normal((2, 16))
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, 2.0)
    refused = r"base orbit must start at u0 - z\(0\) and span at least two cells"
    for base in (bases[:, 1], bases[:, 0][0], bases[:2, 0], bases[:, :1]):
        with pytest.raises(RimlabError, match=refused):
            track_phi(u0s[0], ctx, base)
    assert track_phi(u0s[0], ctx, bases[:3, 0]).times.size == 3


def test_tracking_detects_wrong_certificate(problem_nl):
    # The certificate guard still fires inside the (cold) first sweep.
    ctx = rl.LPContext(
        problem_nl.spectrum,
        problem_nl.cert,  # certified for L = 0.1
        rl.Nonlinearity.per_mode_sin(1.5),
        problem_nl.forcing,
        problem_nl.ou,
        tau=0.0,
        t_back=4.0,
        tol=problem_nl.tol,
    )
    u0 = np.zeros(16)
    u0[0] = 0.5
    with pytest.raises(CertificateError):
        track_alone(u0, ctx, 4.0)


def test_tracking_evaluates_base_nonlinearity_once(problem_nl):
    # F(base + z) is fixed for a whole solve, so k sweeps make k + 1 F calls
    # on the forward cells' left nodes (nested graph solves run on the
    # longer backward window and are not counted).
    ctx = problem_nl.lp_context(0.0)
    t_fwd = 6.0
    u0 = 0.5 * np.random.default_rng(10).standard_normal(16)
    base = base_orbit(u0 - ctx.z_at_zero(), ctx, t_fwd)
    expected = track_phi(u0, ctx, base)
    assert base.shape[0] != ctx.times.size
    f, calls = ctx.f, []

    def counted(u):
        if u.shape[0] == base.shape[0] - 1:
            calls.append(u.shape)
        return f(u)

    ctx.f = counted
    result = track_phi(u0, ctx, base)
    assert result.iterations >= 2
    assert len(calls) == result.iterations + 1
    assert np.array_equal(result.v0_star, expected.v0_star)
    assert np.array_equal(result.decay_curve, expected.decay_curve)


def test_tracking_memory_in_histories(problem_nl):
    # Pinned at the count measured when the sweeps stopped holding spare
    # arrays (6.2 histories; 10.1 before; 6.4 since each call builds its
    # stencil): during a nested graph solve a sweep holds the iterate, dF
    # (scaled in place into the increments) and F(base + z) on the forward
    # window, and the solve its own three.  Both windows have 16,121 nodes
    # here.
    import tracemalloc

    ctx = problem_nl.lp_context(0.0)
    history = ctx.times.size * ctx.spectrum.size * 8
    u0 = 0.5 * np.random.default_rng(10).standard_normal(16)
    base = base_orbit(u0 - ctx.z_at_zero(), ctx, problem_nl.t_fwd)
    assert base.shape == (ctx.times.size, ctx.spectrum.size)
    tracemalloc.start()
    try:
        result = track_phi(u0, ctx, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations >= 2
    assert peak <= 6.5 * history


def test_track_phi_leaves_the_context_as_built(problem_nl):
    # The forward window is read off the base orbit and its stencil built
    # per call, so a solve neither adds, rebinds nor fills any attribute of
    # the context it reads.
    ctx = problem_nl.lp_context(0.0)
    before = dict(vars(ctx))
    sizes = {key: len(value) for key, value in before.items() if isinstance(value, (dict, list))}
    u0 = 0.5 * np.random.default_rng(11).standard_normal(16)
    track_alone(u0, ctx, problem_nl.t_fwd)
    assert vars(ctx).keys() == before.keys()
    assert all(vars(ctx)[key] is value for key, value in before.items())
    assert {key: len(vars(ctx)[key]) for key in sizes} == sizes


def test_forward_sweep_leaves_no_subnormal(problem_nl):
    # Orbit differences decay like e^{-lambda t}; in the high modes they pass
    # below the smallest normal float well inside [0, T_f].  Neither the
    # Duhamel filter (whose input ends in zeros there) nor the homogeneous
    # term may leave subnormals for the next sweep to compute with.
    ctx = problem_nl.lp_context(0.0)
    tiny = np.finfo(float).tiny
    u0 = 0.5 * np.random.default_rng(3).standard_normal(16)
    v0 = u0 - ctx.z_at_zero()
    base = base_orbit(v0, ctx, problem_nl.t_fwd)
    xi = np.zeros_like(base)
    for _ in range(2):
        xi, _ = forward_apply(xi, v0, base, ctx)
        assert not np.any((xi != 0.0) & (np.abs(xi) < tiny))
    assert np.count_nonzero(xi[-1]) < xi.shape[1]  # the fast modes reached 0


# ---- forward horizon --------------------------------------------------------


def _weighted_k(cert, x):
    """k(x) of the backward operator, written out apart from the library."""
    a, lam_n, lam_np1, lip = cert.alpha, cert.lambda_n, cert.lambda_np1, cert.lipschitz
    ca = rl.c_alpha_constant(a)
    return lip * (
        lam_n**a / (x - lam_n) + lam_np1**a / (lam_np1 - x) + ca * (lam_np1 - x) ** (a - 1.0)
    )


def _forward_delta(cert, x):
    """delta(x) of the forward operator, written out apart from the library."""
    lam_n, lip = cert.lambda_n, cert.lipschitz
    return _weighted_k(cert, x) + lip * lam_n**cert.alpha / ((x - lam_n) * (1.0 - cert.k))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.floats(0.01, 50.0), min_size=5, max_size=5),
    lam_1=st.floats(0.05, 50.0),
    n=st.integers(1, 4),
    alpha=st.floats(0.0, 0.49),
    k=st.floats(0.01, 0.499),
    frac=st.floats(0.01, 1.0),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
    window=st.sampled_from(["forward", "backward"]),
)
def test_forward_horizon_bound_holds(gaps, lam_1, n, alpha, k, frac, tol, window):
    # On any instance that passes the gap condition with k < 1/2, the
    # shared search returns a feasible weight pair for either window, and
    # the window's truncation bound, re-evaluated here at the returned T,
    # is tol/10: ``forward_horizon``'s relative to d0, or
    # ``backward_horizon``'s relative to |T(0)|_rho (tail constant 1).
    lams = lam_1 + np.concatenate([[0.0], np.cumsum(gaps)])
    s = rl.Spectrum(lams, alpha)
    lam_n, lam_np1 = lams[n - 1], lams[n]
    ca = rl.c_alpha_constant(alpha)
    lip = frac * k * (lam_np1 - lam_n) / (
        2.0 * (lam_np1**alpha + lam_n**alpha + ca * (lam_np1 - lam_n) ** alpha)
    )
    try:
        cert = rl.check_gap(s, lip, k, n)
    except CertificateError:
        assume(False)
    assert _forward_delta(cert, cert.mu) <= cert.delta * (1 + 1e-8)
    if window == "forward":

        def seed(x):  # the library's factors, operation for operation
            return cert.lipschitz * cert.lambda_n**cert.alpha / (x - cert.lambda_n)

        t_f, rho, nu = _two_weight_horizon(
            cert,
            tol,
            lambda x: weighted_factor(cert, x) + seed(x) / (1.0 - cert.k),
            lambda x: seed(x) * (1.0 + 1.0 / (1.0 - cert.k)),
        )
        assert forward_horizon(cert, tol) == t_f >= 0.0
        check = _forward_delta
        c_nu = lip * lam_n**alpha * (1.0 + 1.0 / (1.0 - k)) / (nu - lam_n)
    else:
        t_f, rho, nu = _two_weight_horizon(
            cert, tol, lambda x: weighted_factor(cert, x), lambda x: 1.0
        )
        assert rl.backward_horizon(cert, tol) == t_f >= 0.0
        check, c_nu = _weighted_k, 1.0
    assert lam_n < rho < nu < lam_np1
    d_rho, d_nu = check(cert, rho), check(cert, nu)
    assert d_rho < 1.0 and d_nu < 1.0
    bound = c_nu * math.exp(-(nu - rho) * t_f) / ((1.0 - d_rho) * (1.0 - d_nu))
    assert bound <= tol / 10 * (1 + 1e-9)


def test_forward_horizon_without_a_tail(problem_lin):
    # L = 0 and k >= 1/2 leave no tail to bound: there is no horizon.
    assert forward_horizon(problem_lin.cert, 1e-6) is None
    cert = rl.check_gap(problem_lin.spectrum, 0.1, 0.5, 1)
    assert forward_horizon(cert, 1e-6) is None
    workhorse = rl.check_gap(problem_lin.spectrum, 0.1, 0.2, 1)
    assert forward_horizon(workhorse, 1e-6) == pytest.approx(6.3676, abs=1e-4)


def test_coupled_shadowing_point_settled_at_forward_horizon():
    # Under a mode-coupling F, P of the shadowing point moves, so the
    # window matters: u0* on the derived T_f equals u0* on 3 T_f within
    # (tol/10) d0, and on T_f/4 it misses by more, so this guard can fail.
    tol = 1e-6
    s = rl.dirichlet_laplacian(16, 0.0)
    cert = rl.check_gap(s, 0.2, 0.4, 1)
    t_back = rl.backward_horizon(cert, tol)
    t_f = forward_horizon(cert, tol)
    assert t_f == pytest.approx(9.14, abs=0.01)
    grid = rl.TimeGrid.from_times(-(t_back + 10.0) - 0.1, 3.0 * t_f + 0.1, 1e-3)
    problem = ModelProblem(
        spectrum=s,
        nonlinearity=ModeCoupling("mode_coupling", 0.2),
        forcing=rl.ForcingSignal(
            16, terms=[rl.TrigTerm(2, 1.0, 1.0, 0.0)], declared_period=2 * np.pi
        ),
        ou=rl.solve_ou(rl.sample_wiener(7, grid, rl.CovarianceSpec.power_law(16, 0.05, 2.0)), s),
        cert=cert,
        t_back=t_back,
        t_fwd=t_f,
        tol=tol,
    )
    ctx = problem.lp_context(0.0)
    rng = np.random.default_rng(11)
    for _ in range(3):
        u0 = rng.uniform(-1.0, 1.0, 16)
        settled, long, short = (track_alone(u0, ctx, t) for t in (t_f, 3.0 * t_f, t_f / 4))
        limit = tol / 10 * settled.defect
        assert settled.defect > 1.0  # far off the graph, so the window matters
        assert abs(settled.u0_star[0] - u0[0]) > 1e-3  # the coupling moves P
        assert rl.norm_alpha(settled.u0_star - long.u0_star, s) <= limit
        assert rl.norm_alpha(short.u0_star - long.u0_star, s) > limit
