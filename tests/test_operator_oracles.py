"""Independent brute-force oracles for the two integral operators.

The production code evaluates the backward and forward operators through
per-mode first-order filter recursions.  These tests rebuild both from the
definition: a dense double loop over (node, cell) with the kernel integral
of each cell written out directly.  Agreement to near roundoff on a short
window rules out systematic errors in the recursion algebra.
"""

import numpy as np
import pytest

import rimlab as rl
from conftest import dense_cells, forward_apply
from rimlab.forcing import cell_convolution, shift_forcing
from rimlab.lyapunov_perron import LPContext, lp_apply
from rimlab.dynamics import integrate


@pytest.fixture(scope="module")
def setup():
    s = rl.dirichlet_laplacian(6, 0.25)
    cert = rl.check_gap(s, 0.1, 0.45, 1)
    g = rl.ForcingSignal(6, terms=[rl.TrigTerm(2, 1.0, 1.3, 0.2)])
    f = rl.Nonlinearity(0.1)
    cov = rl.CovarianceSpec.power_law(6, 0.1, 2.0)
    grid = rl.TimeGrid.from_times(-4.0, 3.0, 0.01)
    path = rl.sample_wiener(5, grid, cov)
    ou = rl.solve_ou(path, s)
    return s, cert, g, f, ou


def _brute_backward(xi_values, x, ctx):
    """Direct double-loop evaluation of the backward operator."""
    s = ctx.spectrum
    lam = s.lambdas
    times = ctx.times
    h = ctx.h
    m = times.size - 1
    fw = ctx.nonlinearity.apply(xi_values + ctx.z, s)
    gcells = dense_cells(ctx)
    out = np.zeros_like(xi_values)
    for i, t in enumerate(times):
        for j in range(s.size):
            kernel_cells = np.zeros(m)
            for c in range(m):
                s_lo, s_hi = times[c], times[c + 1]
                # int_{s_lo}^{s_hi} e^{-lam (t - s)} ds and the g-cell reweighted
                kernel_cells[c] = (
                    np.exp(-lam[j] * (t - s_hi)) - np.exp(-lam[j] * (t - s_lo))
                ) / lam[j]
            if j < ctx.cert.n:
                total = np.exp(-lam[j] * t) * x[j]
                for c in range(i, m):
                    total -= kernel_cells[c] * fw[c, j]
                    total -= np.exp(-lam[j] * (t - times[c + 1])) * gcells[c, j]
                out[i, j] = total
            else:
                total = 0.0
                for c in range(0, i):
                    total += kernel_cells[c] * fw[c, j]
                    total += np.exp(-lam[j] * (t - times[c + 1])) * gcells[c, j]
                out[i, j] = total
    return out


def test_backward_operator_matches_brute_force(setup):
    s, cert, g, f, ou = setup
    ctx = LPContext(s, cert, f, g, ou, tau=0.4, t_back=2.0, tol=1e-6)
    rng = np.random.default_rng(0)
    x = np.zeros(6)
    x[0] = 0.7
    vals = 0.5 * rng.standard_normal((ctx.times.size, 6))
    vals *= np.exp(-cert.mu * ctx.times)[:, None]
    fast = lp_apply(vals, x, ctx)
    brute = _brute_backward(vals, x, ctx)
    scale = np.max(np.abs(brute))
    assert np.max(np.abs(fast - brute)) <= 1e-11 * scale


def _brute_forward(xi_values, v0, base_values, times, z, ctx, y0):
    s = ctx.spectrum
    lam = s.lambdas
    m = times.size - 1
    df = ctx.nonlinearity.apply(xi_values + base_values + z, s) - ctx.nonlinearity.apply(
        base_values + z, s
    )
    out = np.zeros_like(xi_values)
    for i, t in enumerate(times):
        for j in range(s.size):
            kernel_cells = np.zeros(m)
            for c in range(m):
                s_lo, s_hi = times[c], times[c + 1]
                kernel_cells[c] = (
                    np.exp(-lam[j] * (t - s_hi)) - np.exp(-lam[j] * (t - s_lo))
                ) / lam[j]
            if j < ctx.cert.n:
                total = 0.0
                for c in range(i, m):
                    total -= kernel_cells[c] * df[c, j]
                out[i, j] = total
            else:
                total = np.exp(-lam[j] * t) * y0[j]
                for c in range(0, i):
                    total += kernel_cells[c] * df[c, j]
                out[i, j] = total
    return out


def test_forward_operator_matches_brute_force(setup):
    s, cert, g, f, ou = setup
    ctx = LPContext(s, cert, f, g, ou, tau=0.0, t_back=2.0, tol=1e-6)
    rng = np.random.default_rng(1)
    v0 = 0.4 * rng.standard_normal(6)
    t_fwd = 2.0
    base = integrate(v0, 0.0, t_fwd, ou, shift_forcing(g, 0.0), f, s)
    times = np.arange(len(base)) * ou.grid.h
    vals = 0.3 * rng.standard_normal((times.size, 6))
    vals *= np.exp(-cert.mu * times)[:, None]
    fast, y0 = forward_apply(vals, v0, base, ctx)
    lo = ou.grid.offset(0.0)
    z = ou.values[lo : lo + times.size]
    brute = _brute_forward(vals, v0, base, times, z, ctx, y0)
    scale = max(np.max(np.abs(brute)), 1e-12)
    assert np.max(np.abs(fast - brute)) <= 1e-11 * scale


def test_forcing_cells_reweight_consistently(setup):
    # The brute reconstructions above reuse the stored cells; check the
    # reweighting identity against direct quadrature for one kernel.
    s, cert, g, f, ou = setup
    h = 0.01
    t_lefts = np.array([-0.5, 0.25])
    cells = cell_convolution(g, s, t_lefts, h)
    fine = np.linspace(0.0, h, 4001)
    lam = s.lambdas[1]
    t_node = 1.0
    for i, t0 in enumerate(t_lefts):
        vals = g.eval_many(t0 + fine)[:, 1]
        direct = np.trapezoid(np.exp(-lam * (t_node - t0 - fine)) * vals, fine)
        reweighted = np.exp(-lam * (t_node - t0 - h)) * cells[i, 1]
        assert reweighted == pytest.approx(direct, abs=1e-10)
