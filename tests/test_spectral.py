import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import rimlab as rl
from rimlab.errors import RimlabError
from conftest import forward_apply, q_flow
from rimlab.dynamics import Nonlinearity, integrate
from rimlab.spectral import _decay_steps, _filter_modes, _node_norms
from rimlab.tracking import _ForwardStencil, base_orbit


@pytest.fixture
def two_mode():
    return rl.Spectrum(np.array([1.0, 4.0]), 0.0)


def test_spectrum_rejects_nonpositive_and_decreasing():
    with pytest.raises(RimlabError, match="eigenvalues must be finite and positive"):
        rl.Spectrum(np.array([0.0, 1.0]))
    with pytest.raises(RimlabError, match="eigenvalues must be nondecreasing"):
        rl.Spectrum(np.array([4.0, 1.0]))
    with pytest.raises(RimlabError, match=r"alpha=0.5 outside \[0, 1/2\)"):
        rl.Spectrum(np.array([1.0, 4.0]), alpha=0.5)
    with pytest.raises(RimlabError, match=r"alpha=-0.1 outside \[0, 1/2\)"):
        rl.Spectrum(np.array([1.0, 4.0]), alpha=-0.1)


def test_dirichlet_laplacian_is_squares():
    s = rl.dirichlet_laplacian(6)
    assert np.array_equal(s.lambdas, np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]))


def test_frac_power_identity_at_zero(two_mode):
    # A^0 is the identity: its per-mode weights are exactly one, so the
    # weighted coordinate is the state itself, bit for bit.
    v = np.array([3.0, -2.0])
    assert np.array_equal(v * two_mode.weights_alpha(), v)


def test_frac_power_quarter_root():
    s = rl.Spectrum(np.array([16.0, 17.0]), alpha=0.25)
    assert s.weights_alpha()[0] == pytest.approx(2.0, abs=1e-14)
    assert rl.norm_alpha(np.array([2.0, 0.0]), s) == pytest.approx(4.0, abs=1e-14)


def test_frac_power_dimension_error(two_mode):
    with pytest.raises(RimlabError, match="state has 3 modes, spectrum has 2"):
        rl.norm_alpha(np.array([1.0, 2.0, 3.0]), two_mode)
    with pytest.raises(RimlabError, match=r"alpha=-0.5 outside \[0, 1/2\)"):
        rl.Spectrum(np.array([1.0, 4.0]), alpha=-0.5)


# ---- the semigroup as the solvers store it ---------------------------------
# e^{-At} exists only as per-mode arrays, the backward P flow ``p_flow`` and
# the one-step factors ``damp``/``grow`` of an LPContext, and as the filter's
# zero-input response, which gives the forward operator its Q decay
# (``conftest.q_flow``).

H = 0.005  # lambda_max h = 0.32 on 8 modes, inside the integrator's budget


@pytest.fixture(scope="module")
def flows():
    """A backward context on [-7.5, 0] split at n = 2, and its forward stencil on [0, 1.1]."""
    s = rl.dirichlet_laplacian(8)
    grid = rl.TimeGrid.from_times(-7.6, 1.2, H)
    ou = rl.solve_ou(rl.sample_wiener(0, grid, rl.CovarianceSpec.zero(8)), s)
    ctx = rl.LPContext(
        s, rl.check_gap(s, 0.0, 0.2, 2), rl.Nonlinearity.zero(), rl.ForcingSignal(8), ou,
        tau=0.0,
        t_back=7.5,
        tol=1e-6,
    )
    return ctx, _ForwardStencil(ctx, 220)


def test_semigroup_identity_at_zero(flows):
    ctx, stencil = flows
    assert ctx.times[-1] == 0.0 and np.array_equal(ctx.p_flow[-1], np.ones(2))
    assert stencil.times[0] == 0.0
    assert np.array_equal(q_flow(ctx, stencil.times.size - 1)[0], np.ones(6))


def test_semigroup_forward_p_block(flows):
    # The linear flow of a resolved state decays mode by mode and leaves Q at 0.
    ctx, _ = flows
    v = np.zeros(8)
    v[:2] = [8.0, -3.0]
    out = rl.integrate(v, 0.0, 0.7, ctx.ou, ctx.forcing, ctx.nonlinearity, ctx.spectrum)
    end = out[-1]
    assert np.allclose(end[:2], v[:2] * np.exp(-ctx.spectrum.lambdas[:2] * 0.7), rtol=1e-14, atol=0)
    assert np.array_equal(end[2:], np.zeros(6))


def test_semigroup_backward_p_block(flows):
    ctx, _ = flows
    k = int(np.argmin(np.abs(ctx.times + 1.0)))
    assert ctx.times[k] == pytest.approx(-1.0, abs=1e-12)
    assert ctx.p_flow.shape == (ctx.times.size, 2)  # Q modes have no backward flow
    assert np.allclose(ctx.p_flow[k], np.exp([1.0, 4.0]), rtol=1e-12, atol=0)


def test_semigroup_rejects_backward_q(flows):
    # Only the P block is flowed backward (``p_flow``); the full flow runs
    # forward in time only.
    ctx, _ = flows
    with pytest.raises(RimlabError, match="integration requires r <= t_end"):
        rl.integrate(np.ones(8), 0.5, 0.0, ctx.ou, ctx.forcing, ctx.nonlinearity, ctx.spectrum)


def test_semigroup_rejects_bad_resolved_count(flows):
    ctx, _ = flows
    for n in (0, 8):
        with pytest.raises(RimlabError, match="gap index n="):
            rl.check_gap(ctx.spectrum, 0.0, 0.2, n)
    small = rl.dirichlet_laplacian(2)
    with pytest.raises(RimlabError, match="certificate index exceeds the truncation"):
        rl.LPContext(
            small, ctx.cert, ctx.nonlinearity, rl.ForcingSignal(2), ctx.ou, 0.0, ctx.t_back, ctx.tol
        )


def test_semigroup_law_composition(flows):
    # The Q filter's one-step factor composes to the homogeneous Q decay,
    # and the decay composes with itself: e^{-A(s+t)} = e^{-As} e^{-At}.
    ctx, stencil = flows
    n = ctx.cert.n
    q_decay = q_flow(ctx, stencil.times.size - 1)
    for k in (1, 40, 220):
        assert np.allclose(ctx.damp[n:] ** k, q_decay[k], rtol=1e-13, atol=0)
    assert np.allclose(q_decay[40] * q_decay[70], q_decay[110], rtol=1e-13, atol=0)


def test_backward_roundtrip_on_p_block(flows):
    # Back to -7.5 by the P flow, forward again by n_cells one-step factors:
    # lambda_n t = 30 at lambda_2 = 4.
    ctx, _ = flows
    assert ctx.times[0] == pytest.approx(-7.5, abs=1e-12)
    back_forth = ctx.p_flow[0] * ctx.damp[:2] ** ctx.n_cells
    assert np.allclose(back_forth, np.ones(2), rtol=1e-12, atol=0)


def _dichotomy_case(alpha):
    # For random vectors at random nodes: Q decay e^{-lambda_{n+1} t} and Q
    # smoothing (a^a t^-a + lambda_{n+1}^a) e^{-lambda_{n+1} t} on the forward
    # operator's Q kernel (the filter's zero-input response) and on ``damp``
    # raised to the step count, and P
    # growth lambda_n^a e^{lambda_n |t|} on the backward ``p_flow``.
    s = rl.dirichlet_laplacian(12, alpha)
    n = 3
    grid = rl.TimeGrid.from_times(-2.1, 3.1, 1e-3)
    ou = rl.solve_ou(rl.sample_wiener(0, grid, rl.CovarianceSpec.zero(12)), s)
    ctx = rl.LPContext(
        s, rl.check_gap(s, 0.0, 0.2, n), rl.Nonlinearity.zero(), rl.ForcingSignal(12), ou,
        tau=0.0,
        t_back=2.0,
        tol=1e-6,
    )
    n_cells = 3000
    stencil = _ForwardStencil(ctx, n_cells)
    q_decay = q_flow(ctx, n_cells)
    lam_n, lam_np1 = s.lambdas[n - 1], s.lambdas[n]
    wts_p, wts_q = s.weights_alpha()[:n], s.weights_alpha()[n:]
    smooth = alpha**alpha if alpha > 0 else 1.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        vq = rng.standard_normal(12 - n)
        k = int(rng.integers(10, n_cells + 1))  # t in [0.01, 3]
        t = stencil.times[k]
        decay = np.exp(-lam_np1 * t) * np.linalg.norm(vq) * (1 + 1e-12)
        for kern in (q_decay[k], ctx.damp[n:] ** k):
            assert np.linalg.norm(kern * vq) <= decay
            assert np.linalg.norm(wts_q * kern * vq) <= (smooth * t**-alpha + lam_np1**alpha) * decay
        vp = rng.standard_normal(n)
        j = int(rng.integers(0, ctx.n_cells - 9))  # t in [-2, -0.01]
        grown = lam_n**alpha * np.exp(-lam_n * ctx.times[j]) * np.linalg.norm(vp)
        assert np.linalg.norm(wts_p * ctx.p_flow[j] * vp) <= grown * (1 + 1e-12)


def test_projection_dichotomy_bounds_plain():
    _dichotomy_case(0.0)


def test_projection_dichotomy_bounds_fractional():
    _dichotomy_case(0.25)


def test_split_merge_roundtrip(flows):
    ctx, _ = flows
    rng = np.random.default_rng(2)
    v = rng.standard_normal(8)
    p, q = ctx.project_p(v), ctx.project_q(v)
    assert np.array_equal(p + q, v)


# ---- per-mode recurrence and node norms ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 24),
    modes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    reverse=st.booleans(),
    gain_a=st.booleans(),
    started=st.booleans(),
    order=st.sampled_from("CF"),
)
def test_filter_modes_matches_loop(nodes, modes, seed, reverse, gain_a, started, order):
    # y_k = a_j y_{k-1} + b_j u_k per column (b = 1 or b = a) from the state
    # start_j (zero or not), forward or reversed, on C- or F-ordered input: a
    # plain loop agrees to rounding and per-column lfilter with the same
    # coefficients and the state zi = a_j start_j agrees bit for bit.
    rng = np.random.default_rng(seed)
    u = np.asarray(rng.standard_normal((nodes, modes)), order=order)
    a = rng.uniform(0.0, 1.5, modes)
    b = a if gain_a else 1.0
    start = rng.standard_normal(modes) if started else np.zeros(modes)
    got = _filter_modes(u, a, start, b, reverse=reverse)
    assert got.flags.f_contiguous

    loop = np.zeros((nodes, modes))
    rows = range(nodes - 1, -1, -1) if reverse else range(nodes)
    bj = np.broadcast_to(b, (modes,))
    for j in range(modes):
        y = start[j]
        for k in rows:
            y = a[j] * y + bj[j] * u[k, j]
            loop[k, j] = y
    assert np.allclose(got, loop, rtol=1e-12, atol=1e-12)

    step = -1 if reverse else 1
    for j in range(modes):
        col = np.ascontiguousarray(u[::step, j])
        ref, _ = lfilter([bj[j]], [1.0, -a[j]], col, zi=[a[j] * start[j]])
        assert np.array_equal(got[:, j], ref[::step])


@settings(max_examples=80, deadline=None)
@given(
    rows=st.sampled_from([(), (1,), (5,), (3, 2), (40,), (400,)]),
    modes=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_norms_match_row_norms_in_any_layout(rows, modes, seed):
    # One reduction for a state (rows ()), a (B, N) batch, a (nodes, modes)
    # history and a (nodes, points, modes) orbit: the same bits in C and F
    # order, so S-norms and the chart residuals written from them do not
    # depend on storage order, and within 4 ulp of numpy's row norm for up
    # to 64 modes (the mode-order sum's rounding grows with the count).
    rng = np.random.default_rng(seed)
    scale = np.exp(3.0 * rng.standard_normal(rows + (1,)))
    values = rng.standard_normal(rows + (modes,)) * scale
    wts = rng.uniform(0.5, 4.0, modes)
    got = _node_norms(np.ascontiguousarray(values), wts)
    assert np.shape(got) == rows
    assert np.array_equal(_node_norms(np.asfortranarray(values), wts), got)
    expected = np.linalg.norm(values * wts, axis=-1)
    assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(expected))
    none = _node_norms(values[..., :0], wts[:0])
    assert np.shape(none) == rows and np.all(none == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(2, 4000),
    modes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    reverse=st.booleans(),
    started=st.booleans(),
    order=st.sampled_from("CF"),
)
def test_filter_modes_flushes_decaying_zero_tails(nodes, modes, seed, reverse, started, order):
    # Columns whose input ends in zeros (all zeros for some), with a in
    # (1/2, 1), from a zero or a nonzero start state: the plain recursion
    # stalls at subnormals there.  The filter matches per-column lfilter
    # with zi = a start bit for bit wherever that is at least tiny in
    # magnitude, and is exactly 0 elsewhere, so it holds no subnormal.
    rng = np.random.default_rng(seed)
    tiny = np.finfo(float).tiny
    # scales down to 1e-300 reach the subnormals within a few hundred steps;
    # the inputs and start states themselves stay normal
    u = rng.standard_normal((nodes, modes)) * 10.0 ** rng.integers(-300, 3, modes)
    for j in range(modes):
        u[rng.integers(0, nodes) :, j] = 0.0
    u = np.asarray(u[::-1] if reverse else u, order=order)
    a = rng.uniform(0.5, 1.0, modes)
    start = rng.standard_normal(modes) * 10.0 ** rng.integers(-300, 3, modes)
    start = start if started else np.zeros(modes)
    got = _filter_modes(u, a, start, reverse=reverse)

    step = -1 if reverse else 1
    ref = np.empty((nodes, modes))
    for j in range(modes):
        ref[::step, j], _ = lfilter([1.0], [1.0, -a[j]], u[::step, j], zi=[a[j] * start[j]])
    normal = np.abs(ref) >= tiny
    assert np.array_equal(got[normal], ref[normal])
    assert np.all(got[~normal] == 0.0)
    assert not np.any((got != 0.0) & (np.abs(got) < tiny))


def test_filter_modes_flush_stops_a_stall():
    # From 1e-300 at a = 0.9 the plain recursion reaches the subnormals in
    # about 170 steps and then stalls at a few-ulp value for good.  The
    # filter matches it up to there and is exactly 0 after, whether 1e-300
    # is the first input or the start state before a zero input (the same
    # recursion one node later).
    tiny = np.finfo(float).tiny
    u = np.zeros((2000, 1))
    u[0] = 1e-300
    ref = lfilter([1.0], [1.0, -0.9], u[:, 0])
    assert ref[-1] != 0.0 and abs(ref[-1]) < tiny
    from_input = _filter_modes(u, 0.9, 0.0)[:, 0]
    from_start = _filter_modes(u[1:], 0.9, 1e-300)[:, 0]
    for got, plain in ((from_input, ref), (from_start, ref[1:])):
        first = int(np.argmax(np.abs(plain) < tiny))
        assert np.array_equal(got[:first], plain[:first])
        assert not np.any(got[first:])


def test_decay_steps_from_a_huge_state():
    # tiny / |y| underflows to 0 once |y| is above about 9e15 (a tracking
    # orbit of radius 1e17 starts the filter there), so the step count
    # takes the two logarithms apart.  From 1e300 at a = 0.5 it is finite
    # and exact, and the filter started there matches the plain recursion
    # up to its first entry below tiny and is exactly 0 after.
    tiny = np.finfo(float).tiny
    steps = _decay_steps(1e300, 0.5, tiny)
    assert math.isfinite(steps)
    assert math.ldexp(1e300, -(steps - 1)) < tiny <= math.ldexp(1e300, -(steps - 2))
    got = _filter_modes(np.zeros((3000, 1)), 0.5, 1e300)[:, 0]
    plain = lfilter([1.0], [1.0, -0.5], np.zeros(3000), zi=[0.5e300])[0]
    first = int(np.argmax(np.abs(plain) < tiny))
    assert np.array_equal(got[:first], plain[:first])
    assert not np.any(got[first:])


def test_solved_tables_hold_no_subnormal(problem_nl):
    # Every decay e^{-At} y the solvers compute is the filter's zero-input
    # response, flushed to exact zeros below tiny: the OU table (its
    # initial value's decay), a linear integrator trajectory (its unforced
    # fast modes) and a forward tracking sweep (its off-graph seed's decay
    # in the fast Q modes) hold no subnormal, and the last two did reach
    # exact zeros.
    tiny = np.finfo(float).tiny
    spec = rl.dirichlet_laplacian(16)
    grid = rl.TimeGrid.from_times(-1.0, 7.0, 1e-3)
    ou = rl.solve_ou(rl.sample_wiener(3, grid, rl.CovarianceSpec.power_law(16, 0.05, 2.0)), spec)
    lin = integrate(np.full(16, 0.3), 0.0, 6.0, ou, problem_nl.forcing, Nonlinearity.zero(), spec)
    ctx = problem_nl.lp_context(0.0)
    v0 = np.full(16, 0.3)
    base = base_orbit(v0, ctx, problem_nl.t_fwd)
    sweep, _ = forward_apply(np.zeros_like(base), v0, base, ctx)
    for table in (ou.values, lin, sweep):
        assert np.all(np.isfinite(table))
        assert not np.any((table != 0.0) & (np.abs(table) < tiny))
    # the fast modes' decays underflow: e^{-256 t} at t = 6 and at t_fwd
    assert np.count_nonzero(lin[-1] == 0.0) > 0
    assert np.count_nonzero(sweep[-1, ctx.cert.n :] == 0.0) > 0
