import numpy as np
import pytest

import rimlab as rl
from conftest import Saturating, coarsen_path, noise_problem
from rimlab.dynamics import Nonlinearity, cocycle_phi, cocycle_psi, integrate
from rimlab.errors import InstabilityError, RimlabError


@pytest.fixture(scope="module")
def spec8():
    return rl.dirichlet_laplacian(8, 0.0)


@pytest.fixture(scope="module")
def quiet_ou(spec8):
    grid = rl.TimeGrid.from_times(-2.0, 3.0, 1e-3)
    w = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(8))
    return rl.solve_ou(w, spec8)


@pytest.fixture(scope="module")
def noisy_problem(spec8):
    grid = rl.TimeGrid.from_times(-4.0, 3.0, 1e-3)
    cov = rl.CovarianceSpec.power_law(8, 0.05, 2.0)
    return noise_problem(spec8, rl.sample_wiener(13, grid, cov))


@pytest.fixture(scope="module")
def noisy_ou(noisy_problem):
    return noisy_problem.ou


def test_nonlinearity_validation():
    with pytest.raises(RimlabError, match="unknown nonlinearity kind"):
        Nonlinearity("nope")


def test_nonlinearity_lipschitz_probes(spec8):
    # F(0) = 0 and the weighted Lipschitz bound on random probe pairs.
    rng = np.random.default_rng(3)
    f = Nonlinearity.per_mode_sin(0.37)
    assert np.array_equal(f.apply(np.zeros(8), spec8), np.zeros(8))
    wts = spec8.weights_alpha()
    for _ in range(1000):
        u, v = rng.standard_normal((2, 8)) * 2.0
        df = np.linalg.norm(f.apply(u, spec8) - f.apply(v, spec8))
        assert df <= f.lipschitz * np.linalg.norm((u - v) * wts) * (1 + 1e-12)
    # the norm bound from the origin
    u = rng.standard_normal(8)
    assert np.linalg.norm(f.apply(u, spec8)) <= f.lipschitz * np.linalg.norm(u * wts) * (
        1 + 1e-12
    )


def test_linear_homogeneous_exact(spec8, quiet_ou):
    v0 = np.linspace(1.0, -1.0, 8)
    g = rl.ForcingSignal.zero(8)
    traj = integrate(v0, 0.0, 1.5, quiet_ou, g, Nonlinearity.zero(), spec8)
    exact = v0 * np.exp(-spec8.lambdas * 1.5)
    assert np.allclose(traj[-1], exact, rtol=1e-12, atol=0)


def test_rest_state_stays_zero(spec8, quiet_ou):
    g = rl.ForcingSignal.zero(8)
    f = Nonlinearity.per_mode_sin(0.3)
    traj = integrate(np.zeros(8), 0.0, 1.0, quiet_ou, g, f, spec8)
    assert np.array_equal(traj[-1], np.zeros(8))


def test_cocycle_identity_at_zero(spec8, noisy_ou):
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    v0 = np.linspace(0.4, -0.4, 8)
    out = cocycle_psi(0.0, 0.7, noisy_ou, v0, g, Nonlinearity.per_mode_sin(0.1), spec8)
    assert np.array_equal(out, v0)


def test_constant_forcing_closed_form(spec8, quiet_ou):
    c = 1.7
    amps = np.zeros(8)
    amps[1] = c
    g = rl.ForcingSignal.constant(amps)
    t = 0.8
    out = cocycle_psi(t, 0.0, quiet_ou, np.zeros(8), g, Nonlinearity.zero(), spec8)
    lam2 = spec8.lambdas[1]
    assert out[1] == pytest.approx(c / lam2 * (1.0 - np.exp(-lam2 * t)), rel=1e-12)
    assert np.max(np.abs(out[[0, 2, 3, 4, 5, 6, 7]])) == 0.0


def test_cocycle_law(spec8, noisy_problem):
    ou = noisy_problem.ou
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    rng = np.random.default_rng(8)
    v0 = 0.5 * rng.standard_normal(8)
    s_leg, t_leg = 0.5, 0.7
    full = cocycle_psi(s_leg + t_leg, 0.0, ou, v0, g, f, spec8)
    mid = cocycle_psi(s_leg, 0.0, ou, v0, g, f, spec8)
    composed = cocycle_psi(t_leg, s_leg, noisy_problem.ou_for(s_leg), mid, g, f, spec8)
    assert np.linalg.norm(full - composed) <= 1e-10 * np.linalg.norm(full)


def test_phi_cocycle_law(spec8, noisy_problem):
    ou = noisy_problem.ou
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    u0 = np.linspace(0.6, -0.6, 8)
    s_leg, t_leg = 0.4, 0.9
    full = cocycle_phi(s_leg + t_leg, 0.0, ou, u0, g, f, spec8)
    mid = cocycle_phi(s_leg, 0.0, ou, u0, g, f, spec8)
    composed = cocycle_phi(t_leg, s_leg, noisy_problem.ou_for(s_leg), mid, g, f, spec8)
    assert np.linalg.norm(full - composed) <= 1e-10 * np.linalg.norm(full)


def test_phi_equals_psi_without_noise(spec8, quiet_ou):
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    u0 = np.linspace(0.6, -0.6, 8)
    a = cocycle_phi(1.0, 0.3, quiet_ou, u0, g, f, spec8)
    b = cocycle_psi(1.0, 0.3, quiet_ou, u0, g, f, spec8)
    assert np.array_equal(a, b)


def test_phi_conjugacy_residual_exact(spec8, noisy_ou):
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    u0 = np.linspace(0.6, -0.6, 8)
    t = 1.2
    phi = cocycle_phi(t, 0.0, noisy_ou, u0, g, f, spec8)
    manual = cocycle_psi(t, 0.0, noisy_ou, u0 - noisy_ou.at(0.0), g, f, spec8) + noisy_ou.at(t)
    assert np.array_equal(phi, manual)


def test_initial_condition_continuity(spec8):
    # Orbits from nearby starts stay within a bounded ratio over [0, 5].
    grid = rl.TimeGrid.from_times(-4.0, 6.0, 1e-3)
    w = rl.sample_wiener(13, grid, rl.CovarianceSpec.power_law(8, 0.05, 2.0))
    ou5 = rl.solve_ou(w, spec8)
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    rng = np.random.default_rng(10)
    for _ in range(4):
        v0 = 0.5 * rng.standard_normal(8)
        dv = 1e-3 * rng.standard_normal(8)
        for t in (1.0, 3.0, 5.0):
            a = cocycle_psi(t, 0.0, ou5, v0, g, f, spec8)
            b = cocycle_psi(t, 0.0, ou5, v0 + dv, g, f, spec8)
            assert np.linalg.norm(a - b) <= 10.0 * np.linalg.norm(dv)


def test_self_convergence_order(spec8):
    # First-order self-convergence against a 16x finer reference.
    h0 = 2e-3
    grid = rl.TimeGrid.from_times(-1.0, 2.0, h0 / 16.0)
    w_fine = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(8))
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    v0 = np.linspace(0.5, -0.5, 8)
    ref = integrate(
        v0, 0.0, 2.0, rl.solve_ou(w_fine, spec8), g, f, spec8, return_trajectory=False
    )
    errs = []
    for factor in (16, 8, 4):
        ou_c = rl.solve_ou(coarsen_path(w_fine, factor), spec8)
        out = integrate(v0, 0.0, 2.0, ou_c, g, f, spec8, return_trajectory=False)
        errs.append(np.linalg.norm(out - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 0.9)


def test_self_convergence_with_noise(spec8):
    # The stochastic convolution approximation keeps strong first-order
    # behaviour along a fixed path; allow slack for the random constant.
    h0 = 2e-3
    grid = rl.TimeGrid.from_times(-1.0, 2.0, h0 / 16.0)
    cov = rl.CovarianceSpec.power_law(8, 0.05, 2.0)
    w_fine = rl.sample_wiener(5, grid, cov)
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    v0 = np.linspace(0.5, -0.5, 8)
    ref = integrate(
        v0, 0.0, 2.0, rl.solve_ou(w_fine, spec8), g, f, spec8, return_trajectory=False
    )
    errs = []
    for factor in (16, 4):
        ou_c = rl.solve_ou(coarsen_path(w_fine, factor), spec8)
        out = integrate(v0, 0.0, 2.0, ou_c, g, f, spec8, return_trajectory=False)
        errs.append(np.linalg.norm(out - ref))
    order = np.log2(errs[0] / errs[1]) / 2.0
    assert order >= 0.7


def test_step_stability_guard(quiet_ou):
    stiff = rl.Spectrum(np.arange(1.0, 9.0) ** 4)
    g = rl.ForcingSignal.zero(8)
    with pytest.raises(RimlabError, match="exceeds the 0.5 stability budget"):
        integrate(np.zeros(8), 0.0, 0.5, quiet_ou, g, Nonlinearity.zero(), stiff)


def _first_nonfinite_step(v, ou, f, s, t_end):
    """Per-step reference: the exponential-Euler step (zero forcing) after
    which the state is first non-finite, checked at every step."""
    h = ou.grid.h
    n_steps = round(t_end / h)
    z = ou.values[ou.grid.offset(0.0) :]
    damp = np.exp(-s.lambdas * h)
    w1 = -np.expm1(-s.lambdas * h) / s.lambdas
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            v = damp * v + w1 * f.apply(v + z[i], s)
            if not np.all(np.isfinite(v)):
                return i + 1
    return None


def test_instability_reports_step():
    # Saturation level F_max / lambda_1 above the float range overflows.
    # Finiteness is checked once per integration; the error still names the
    # step and time at which a per-step check first fails, for one state and
    # for a batch in which only the second orbit blows up (the first stays
    # at 0 = F(0)), with and without the stored trajectory.
    slow = rl.Spectrum(np.array([0.5, 2.0]))
    grid = rl.TimeGrid.from_times(-1.0, 3.0, 1e-3)
    ou = rl.solve_ou(rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(2)), slow)
    f = Saturating("saturating", 1.5e308)
    g = rl.ForcingSignal.zero(2)
    times = np.arange(0, 3001) * 1e-3
    for v0 in (np.full(2, 1.0), np.array([[0.0, 0.0], [1.0, 1.0]])):
        step = _first_nonfinite_step(v0, ou, f, slow, 3.0)
        assert step is not None and 1 < step < 3000
        for return_trajectory in (True, False):
            with pytest.raises(InstabilityError) as exc:
                integrate(v0, 0.0, 3.0, ou, g, f, slow, return_trajectory=return_trajectory)
            assert str(exc.value) == f"non-finite state at step {step} (t = {float(times[step])})"


def test_batched_integration_matches_loop(spec8, noisy_ou):
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    f = Nonlinearity.per_mode_sin(0.1)
    rng = np.random.default_rng(2)
    batch = 0.3 * rng.standard_normal((5, 8))
    ends = integrate(batch, 0.0, 1.0, noisy_ou, g, f, spec8, return_trajectory=False)
    for i in range(5):
        single = integrate(batch[i], 0.0, 1.0, noisy_ou, g, f, spec8, return_trajectory=False)
        assert np.allclose(ends[i], single, rtol=0, atol=1e-14)


@pytest.mark.parametrize("f", [Nonlinearity.per_mode_sin(0.1)], ids=["per_mode_sin"])
def test_batched_trajectory_matches_single_calls(spec8, noisy_ou, f):
    # One batched integrate of B states reproduces B single-state histories.
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    batch = 0.5 * np.random.default_rng(11).standard_normal((4, 8))
    both = integrate(batch, 0.0, 1.5, noisy_ou, g, f, spec8)
    assert both.shape[1:] == (4, 8)
    for i in range(4):
        single = integrate(batch[i], 0.0, 1.5, noisy_ou, g, f, spec8)
        assert single.shape == (both.shape[0], 8)
        scale = np.max(np.abs(single))
        assert np.max(np.abs(both[:, i] - single)) <= 1e-12 * scale


def test_phi_identity_at_zero(spec8, noisy_ou):
    g = rl.ForcingSignal.trig(8, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    u0 = np.array([1e-20, 0.4, -0.2, 0.0, 0.1, 0.0, 0.0, 0.0])
    out = cocycle_phi(0.0, 0.3, noisy_ou, u0, g, Nonlinearity.per_mode_sin(0.1), spec8)
    assert np.array_equal(out, u0)


@pytest.mark.parametrize("f", [Nonlinearity.per_mode_sin(0.3)], ids=["per_mode_sin"])
def test_evaluator_weights_only_when_alpha_positive(f):
    # At alpha = 0 the evaluator skips the all-ones weight multiply; that must
    # equal the weighted formula bit for bit (signed zeros and non-finite
    # entries included) and in memory layout, which later axis sums read.
    # At alpha > 0 the weights must still be applied.
    u = np.asfortranarray(np.random.default_rng(4).standard_normal((50, 8)) * 3.0)
    u[0, :4] = [-0.0, np.inf, -np.inf, np.nan]

    def weighted(s):
        return f.lipschitz * np.sin(u * s.weights_alpha())

    with np.errstate(invalid="ignore"):
        for alpha in (0.0, 0.25):
            s = rl.dirichlet_laplacian(8, alpha)
            got, want = f.evaluator(s)(u), weighted(s)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
        unweighted = f.evaluator(rl.dirichlet_laplacian(8, 0.0))(u)
    assert not np.array_equal(got[1:], unweighted[1:])


@pytest.mark.parametrize("f", [Nonlinearity.zero(), Nonlinearity.per_mode_sin(0.3)])
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_apply_leaves_its_argument_unchanged(f, alpha):
    # F computes its result in place in a new array, never in its argument.
    s = rl.dirichlet_laplacian(8, alpha)
    u = np.linspace(-2.0, 2.0, 24).reshape(3, 8)
    kept = u.copy()
    out = f.apply(u, s)
    assert np.array_equal(u, kept)
    assert not np.shares_memory(out, u)
