"""Solver paths with a nonzero fractional exponent.

The fractional weights enter the gap condition through the singular-kernel
constant, the weighted norms, and the nonlinearity's argument scaling;
these tests push alpha = 0.25 through the full construction.
"""

import numpy as np
import pytest

import rimlab as rl
from conftest import manifold_point, track_alone
from rimlab.analysis import tracking_defects
from rimlab.lyapunov_perron import (
    LPContext,
    backward_horizon,
    build_chart,
    check_gap,
    lp_apply,
)
from rimlab.problem import ModelProblem
from rimlab.tracking import forward_horizon


@pytest.fixture(scope="module")
def problem_frac():
    s = rl.dirichlet_laplacian(12, 0.25)
    cert = check_gap(s, 0.1, 0.45, 1)
    g = rl.ForcingSignal.trig(12, [rl.TrigTerm(2, 1.0, 1.0, 0.0)], period=2.0 * np.pi)
    cov = rl.CovarianceSpec.power_law(12, 0.02, 3.0)
    t_back = backward_horizon(cert, 1e-6)
    t_fwd = forward_horizon(cert, 1e-6) or t_back  # None: no tail
    grid = rl.TimeGrid.from_times(-(t_back + 10.0) - 0.1, t_fwd + 0.1, 1e-3)
    path = rl.sample_wiener(7, grid, cov)
    return ModelProblem(
        spectrum=s,
        nonlinearity=rl.Nonlinearity.per_mode_sin(0.1),
        forcing=g,
        noise=path,
        cert=cert,
        t_back=t_back,
        t_fwd=t_fwd,
        tol=1e-6,
    )


def test_fractional_certificate_constants(problem_frac):
    cert = problem_frac.cert
    assert cert.c_alpha == pytest.approx(0.25**0.25 * 1.2254167024651776, rel=1e-12)
    assert cert.lambda_n < cert.mu < cert.lambda_np1
    assert 0.0 < cert.delta < 1.0


def test_fractional_linear_convolution(problem_frac):
    # F = 0 leaves the convolution untouched: the exponent only reweights
    # norms, so the graph value on mode 2 is still the closed form.
    ctx = LPContext(
        problem_frac.spectrum,
        check_gap(problem_frac.spectrum, 0.0, 0.45, 1),
        rl.Nonlinearity.zero(),
        problem_frac.forcing,
        problem_frac.ou,
        t_back=8.0,
    )
    x = np.zeros(12)
    x[0] = 0.4
    m = manifold_point(x, ctx)
    assert m[1] == pytest.approx(-1.0 / 17.0, abs=1e-8)


def test_fractional_contraction_and_chart(problem_frac):
    ctx = problem_frac.lp_context(0.0)
    cert = problem_frac.cert
    rng = np.random.default_rng(21)
    x = np.zeros(12)
    x[0] = 0.3
    slack = 5.0 * problem_frac.h * cert.lambda_np1
    for _ in range(8):
        vals = rng.standard_normal((2, ctx.times.size, 12))
        vals *= 0.4 * np.exp(-cert.mu * ctx.times)[None, :, None]
        a, b = vals
        num = ctx.s_norm(lp_apply(a, x, ctx) - lp_apply(b, x, ctx))
        assert num / ctx.s_norm(a - b) <= cert.k * (1 + 1e-6) + slack

    grid = np.zeros((5, 12))
    grid[:, 0] = np.linspace(-0.5, 0.5, 5)
    chart = build_chart(grid, ctx)
    assert np.all(chart.residuals <= problem_frac.tol)
    assert chart.lipschitz <= 1.0 / (1.0 - cert.k) + 0.05


def test_fractional_tracking_envelope(problem_frac):
    ctx = problem_frac.lp_context(0.0)
    rng = np.random.default_rng(22)
    u0 = 0.4 * rng.standard_normal(12)
    result = track_alone(u0, ctx, problem_frac.t_fwd)
    envelope, _ = tracking_defects([result], problem_frac, 0.0)
    assert envelope.passed
    assert result.fitted_slope() <= -problem_frac.cert.mu + 0.1
