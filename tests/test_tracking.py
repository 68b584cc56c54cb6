import dataclasses

import numpy as np
import pytest

import rimlab as rl
from rimlab.dynamics import integrate
from rimlab.errors import ContractionViolationError, GridAlignmentError, ParameterError
from rimlab.forcing import shift_forcing
from rimlab.lyapunov_perron import manifold_point
from rimlab.tracking import (
    base_orbit,
    lp_plus_apply,
    solve_tracking,
    track_phi,
)


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
        t_back=4.0,
    )
    with pytest.raises(ParameterError):
        solve_tracking(np.zeros(16), ctx)


def test_forward_operator_linear_case(problem_lin):
    # F=0: one sweep lands on e^{-At} y0 independently of the iterate.
    ctx = problem_lin.lp_context(0.0)
    t_fwd = 4.0
    rng = np.random.default_rng(0)
    v0 = 0.5 * rng.standard_normal(16)
    base = _base_orbit(problem_lin, ctx, v0, t_fwd)
    xi_a = _random_forward(ctx, base.times, rng)
    xi_b = _random_forward(ctx, base.times, rng)
    out_a, y0_a, _ = lp_plus_apply(xi_a, v0, base, ctx)
    out_b, y0_b, _ = lp_plus_apply(xi_b, v0, base, ctx)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(y0_a, y0_b)
    expected = -ctx.project_q(v0) + manifold_point(ctx.project_p(v0), ctx)
    assert np.allclose(y0_a, expected, atol=1e-12)
    decay = np.exp(-np.outer(base.times, problem_lin.spectrum.lambdas))
    assert np.allclose(out_a, decay * y0_a, atol=1e-12)


def test_forward_operator_contraction(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    t_fwd = problem_nl.t_fwd
    rng = np.random.default_rng(1)
    v0 = 0.5 * rng.standard_normal(16)
    base = _base_orbit(problem_nl, ctx, v0, t_fwd)
    delta = ctx.cert.delta
    slack = 5.0 * problem_nl.h * ctx.cert.lambda_np1
    wmu = np.exp(ctx.cert.mu * base.times)
    wts = ctx.spectrum.weights_alpha()
    for _ in range(8):
        xi_a = _random_forward(ctx, base.times, rng)
        xi_b = _random_forward(ctx, base.times, rng)
        out_a, _, _ = lp_plus_apply(xi_a, v0, base, ctx)
        out_b, _, _ = lp_plus_apply(xi_b, v0, base, ctx)
        num = rl.lyapunov_perron.weighted_sup_norm(wmu, out_a - out_b, wts)
        den = rl.lyapunov_perron.weighted_sup_norm(wmu, xi_a - xi_b, wts)
        assert num / den <= delta + slack


def test_on_manifold_point_is_fixed(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    v0 = _on_manifold_point(ctx)
    result = solve_tracking(v0, ctx)
    assert result.defect <= 2.0 * problem_nl.tol
    assert np.linalg.norm(result.v0_star - v0) <= 10.0 * problem_nl.tol
    assert np.max(result.decay_curve) <= 10.0 * problem_nl.tol
    assert np.linalg.norm(result.y0) <= 10.0 * problem_nl.tol


def test_linear_pure_q_decay(problem_lin):
    # F=0 with a seed on the unresolved modes: the difference decays like
    # the unresolved semigroup and sits inside the certified envelope.
    ctx = problem_lin.lp_context(0.0)
    rng = np.random.default_rng(2)
    v0 = 0.5 * rng.standard_normal(16)
    result = solve_tracking(v0, ctx, t_fwd=6.0)
    lam2 = problem_lin.spectrum.lambdas[1]
    y0_norm = np.linalg.norm(result.y0)
    # curve equals |e^{-At} y0| which is dominated by the mode-2 rate
    idx = np.searchsorted(result.times, 1.0)
    assert result.decay_curve[idx] <= np.exp(-lam2 * 1.0) * y0_norm * (1 + 1e-6)
    assert result.envelope_ok(0.02)


def test_tracking_envelope_and_slope(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(3)
    slack = 1.0 + 10.0 * problem_nl.h * ctx.cert.lambda_np1
    for _ in range(3):
        v0 = 0.6 * rng.standard_normal(16)
        result = solve_tracking(v0, ctx)
        envelope = result.prefactor * np.exp(-ctx.cert.mu * result.times)
        assert np.all(result.decay_curve <= envelope * slack)
        assert result.fitted_slope() <= -ctx.cert.mu + 0.1
        assert result.graph_residual <= 2.0 * problem_nl.tol


def test_consistency_with_dynamics(problem_nl):
    # The reconstructed orbit of the shadowing point matches base + xi at
    # every node to 1e-9 relative accuracy (tight-tolerance run).
    ctx = dataclasses.replace(problem_nl, tol=5e-10).lp_context(0.0)
    rng = np.random.default_rng(4)
    v0 = 0.5 * rng.standard_normal(16)
    t_fwd = 6.0
    result = solve_tracking(v0, ctx, t_fwd=t_fwd)
    base = _base_orbit(problem_nl, ctx, v0, t_fwd)
    star = integrate(
        result.v0_star,
        0.0,
        t_fwd,
        problem_nl.ou,
        shift_forcing(problem_nl.forcing, 0.0),
        problem_nl.nonlinearity,
        problem_nl.spectrum,
    )
    recon = base.values + result.xi_values
    scale = np.maximum(np.linalg.norm(star.values, axis=1), 1.0)
    rel = np.linalg.norm(star.values - recon, axis=1) / scale
    assert np.max(rel) <= 1e-9


def test_track_phi_equals_transformed_without_noise(problem_nl):
    grid = rl.TimeGrid.from_times(-12.0, 7.0, 1e-3)
    w0 = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(16))
    ctx0 = rl.LPContext(
        problem_nl.spectrum,
        problem_nl.cert,
        problem_nl.nonlinearity,
        problem_nl.forcing,
        rl.solve_ou(w0, problem_nl.spectrum),
        t_back=8.0,
    )
    rng = np.random.default_rng(5)
    u0 = 0.5 * rng.standard_normal(16)
    a = track_phi(u0, ctx0, t_fwd=5.0)
    b = solve_tracking(u0, ctx0, t_fwd=5.0)
    assert np.array_equal(a.decay_curve, b.decay_curve)
    assert np.array_equal(a.u0_star, b.v0_star)


def test_track_phi_orbit_difference_identity(problem_nl):
    # The original-variable orbit difference is computed in transformed
    # variables, where the OU conjugation cancels identically.
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(6)
    u0 = 0.5 * rng.standard_normal(16)
    result = track_phi(u0, ctx, t_fwd=4.0)
    z0 = ctx.z_at_zero()
    assert np.array_equal(result.u0_star, result.v0_star + z0)
    assert np.array_equal(result.v0, u0 - z0)
    # defect against the offset graph map equals the transformed defect
    tilde_defect = rl.norm_alpha(
        ctx.project_q(u0) - rl.tilde_manifold_point(u0, ctx), ctx.spectrum
    )
    assert tilde_defect == pytest.approx(result.defect, abs=2.0 * problem_nl.tol)


def test_track_phi_envelope(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    rng = np.random.default_rng(7)
    u0 = 0.7 * rng.standard_normal(16)
    result = track_phi(u0, ctx)
    assert result.envelope_ok(0.02)
    assert result.fitted_slope() <= -ctx.cert.mu + 0.1


def test_batched_bases_match_single_tracking(problem_nl):
    # Three orbits tracked from one batched base integration agree with
    # track_phi run alone, and each defect is exactly the cold graph solve
    # at P v0 (the first sweep's nested solve is reused for it).
    ctx = problem_nl.lp_context(0.0)
    t_fwd = 6.0
    u0s = 0.5 * np.random.default_rng(8).standard_normal((3, 16))
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, t_fwd)
    assert bases.values.shape[1:] == (3, 16)
    for i, u0 in enumerate(u0s):
        batched = track_phi(u0, ctx, t_fwd=t_fwd, base=bases.values[:, i])
        alone = track_phi(u0, ctx, t_fwd=t_fwd)
        assert np.max(np.abs(batched.u0_star - alone.u0_star)) <= problem_nl.tol
        v0 = batched.v0
        fresh = rl.norm_alpha(
            ctx.project_q(v0) - manifold_point(ctx.project_p(v0), ctx), ctx.spectrum
        )
        assert batched.defect == fresh
        assert batched.graph_residual <= 2.0 * problem_nl.tol


def test_base_must_belong_to_v0(problem_nl):
    ctx = problem_nl.lp_context(0.0)
    u0s = 0.5 * np.random.default_rng(9).standard_normal((2, 16))
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, 2.0)
    with pytest.raises(GridAlignmentError):
        track_phi(u0s[0], ctx, t_fwd=2.0, base=bases.values[:, 1])
    with pytest.raises(GridAlignmentError):
        track_phi(u0s[0], ctx, t_fwd=3.0, base=bases.values[:, 0])


def test_tracking_detects_wrong_certificate(problem_nl):
    # The certificate guard still fires inside the (cold) first sweep.
    ctx = rl.LPContext(
        problem_nl.spectrum,
        problem_nl.cert,  # certified for L = 0.1
        rl.Nonlinearity.per_mode_sin(1.5),
        problem_nl.forcing,
        problem_nl.ou,
        t_back=4.0,
        seed=problem_nl.seed,
    )
    v0 = np.zeros(16)
    v0[0] = 0.5
    with pytest.raises(ContractionViolationError):
        solve_tracking(v0, ctx, t_fwd=4.0)


def test_tracking_evaluates_base_nonlinearity_once(problem_nl):
    # F(base + z) is fixed for a whole solve, so k sweeps make k + 1 F calls
    # on the forward nodes (nested graph solves run on the longer backward
    # window and are not counted).
    ctx = problem_nl.lp_context(0.0)
    t_fwd = 6.0
    v0 = 0.5 * np.random.default_rng(10).standard_normal(16)
    base = base_orbit(v0, ctx, t_fwd).values
    expected = solve_tracking(v0, ctx, t_fwd=t_fwd, base=base)
    assert base.shape[0] != ctx.times.size
    f, calls = ctx.f, []

    def counted(u):
        if u.shape[0] == base.shape[0]:
            calls.append(u.shape)
        return f(u)

    ctx.f = counted
    result = solve_tracking(v0, ctx, t_fwd=t_fwd, base=base)
    assert result.iterations >= 2
    assert len(calls) == result.iterations + 1
    assert np.array_equal(result.v0_star, expected.v0_star)
    assert np.array_equal(result.decay_curve, expected.decay_curve)
