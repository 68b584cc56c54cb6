import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import rimlab as rl
from rimlab.errors import DimensionMismatchError, DomainError, SpectrumError
from rimlab.spectral import (
    _filter_modes,
    _node_norms,
    apply_semigroup,
    frac_power,
)


@pytest.fixture
def two_mode():
    return rl.Spectrum(np.array([1.0, 4.0]), 0.0)


def test_spectrum_rejects_nonpositive_and_decreasing():
    with pytest.raises(SpectrumError):
        rl.Spectrum(np.array([0.0, 1.0]))
    with pytest.raises(SpectrumError):
        rl.Spectrum(np.array([4.0, 1.0]))
    with pytest.raises(SpectrumError):
        rl.Spectrum(np.array([1.0, 4.0]), alpha=0.5)
    with pytest.raises(SpectrumError):
        rl.Spectrum(np.array([1.0, 4.0]), alpha=-0.1)


def test_dirichlet_laplacian_is_squares():
    s = rl.dirichlet_laplacian(6)
    assert np.array_equal(s.lambdas, np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]))


def test_frac_power_identity_at_zero(two_mode):
    v = np.array([3.0, -2.0])
    assert np.array_equal(frac_power(0.0, v, two_mode), v)


def test_frac_power_full_operator(two_mode):
    out = frac_power(1.0, np.array([1.0, 1.0]), two_mode)
    assert np.allclose(out, [1.0, 4.0], rtol=0, atol=0)


def test_frac_power_quarter_root():
    s = rl.Spectrum(np.array([16.0, 17.0]))
    out = frac_power(0.25, np.array([2.0, 0.0]), s)
    assert out[0] == pytest.approx(4.0, abs=1e-14)


def test_frac_power_dimension_error(two_mode):
    with pytest.raises(DimensionMismatchError):
        frac_power(0.5, np.array([1.0, 2.0, 3.0]), two_mode)
    with pytest.raises(DomainError):
        frac_power(-0.5, np.array([1.0, 2.0]), two_mode)


def test_semigroup_identity_at_zero(two_mode):
    v = np.array([2.5, -1.5])
    assert np.array_equal(apply_semigroup(0.0, v, two_mode), v)


def test_semigroup_forward_p_block():
    s = rl.Spectrum(np.array([1.0, 4.0]))
    out = apply_semigroup(np.log(2.0), np.array([8.0, 0.0]), s, 1, "P")
    assert out[0] == pytest.approx(4.0, rel=1e-14)
    assert out[1] == 0.0


def test_semigroup_backward_p_block():
    s = rl.Spectrum(np.array([1.0, 4.0]))
    out = apply_semigroup(-1.0, np.array([1.0, 7.0]), s, 1, "P")
    assert out[0] == pytest.approx(np.e, rel=1e-14)
    assert out[1] == 0.0  # unselected modes are zeroed


def test_semigroup_rejects_backward_q(two_mode):
    with pytest.raises(DomainError):
        apply_semigroup(-0.1, np.array([1.0, 1.0]), two_mode, 1, "Q")
    with pytest.raises(DomainError):
        apply_semigroup(-0.1, np.array([1.0, 1.0]), two_mode)


def test_semigroup_rejects_bad_resolved_count(two_mode):
    v = np.array([1.0, 1.0])
    with pytest.raises(DomainError):
        apply_semigroup(0.1, v, two_mode, None, "P")
    with pytest.raises(DomainError):
        apply_semigroup(0.1, v, two_mode, 0, "P")
    with pytest.raises(DimensionMismatchError):
        apply_semigroup(0.1, v, two_mode, 2, "Q")


def test_semigroup_law_composition():
    s = rl.dirichlet_laplacian(8)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8)
    ab = apply_semigroup(0.7, apply_semigroup(0.4, v, s), s)
    once = apply_semigroup(1.1, v, s)
    assert np.allclose(ab, once, rtol=1e-13, atol=0)


def test_backward_roundtrip_on_p_block():
    s = rl.dirichlet_laplacian(8)
    rng = np.random.default_rng(1)
    v = np.zeros(8)
    v[:2] = rng.standard_normal(2)
    t = 30.0 / 4.0  # lambda_n * t = 30 at lambda_2 = 4
    back = apply_semigroup(-t, v, s, 2, "P")
    forth = apply_semigroup(t, back, s, 2, "P")
    assert np.allclose(forth[:2], v[:2], rtol=1e-12, atol=0)


def test_split_merge_roundtrip():
    s = rl.dirichlet_laplacian(10)
    grid = rl.TimeGrid.from_times(-1.0, 0.1, 0.01)
    ou = rl.solve_ou(rl.sample_wiener(0, grid, rl.CovarianceSpec.zero(10)), s)
    ctx = rl.LPContext(
        s, rl.check_gap(s, 0.0, 0.2, 4), rl.Nonlinearity.zero(), rl.ForcingSignal.zero(10), ou,
        t_back=0.5,
    )
    rng = np.random.default_rng(2)
    v = rng.standard_normal(10)
    p, q = ctx.project_p(v), ctx.project_q(v)
    assert np.array_equal(p + q, v)


def _dichotomy_case(alpha):
    s = rl.dirichlet_laplacian(12, alpha)
    n = 3
    p_block = np.arange(s.size) < n
    lam_n, lam_np1 = s.lambdas[n - 1], s.lambdas[n]
    rng = np.random.default_rng(5)
    wts = s.weights_alpha()
    for _ in range(200):
        v = rng.standard_normal(12)
        t = rng.uniform(0.01, 3.0)
        vq = np.where(p_block, 0.0, v)
        smoothed = apply_semigroup(t, vq, s, n, "Q")
        lhs = np.linalg.norm(smoothed * wts)
        bound = (alpha**alpha if alpha > 0 else 1.0) * t ** (-alpha) + lam_np1**alpha
        assert lhs <= bound * np.exp(-lam_np1 * t) * np.linalg.norm(vq) * (1 + 1e-12)
        assert np.linalg.norm(smoothed) <= np.exp(-lam_np1 * t) * np.linalg.norm(vq) * (
            1 + 1e-12
        )
        vp = np.where(p_block, v, 0.0)
        tb = -rng.uniform(0.01, 2.0)
        grown = apply_semigroup(tb, vp, s, n, "P")
        assert np.linalg.norm(grown * wts) <= lam_n**alpha * np.exp(
            -lam_n * tb
        ) * np.linalg.norm(vp) * (1 + 1e-12)


def test_projection_dichotomy_bounds_plain():
    _dichotomy_case(0.0)


def test_projection_dichotomy_bounds_fractional():
    _dichotomy_case(0.25)


# ---- per-mode recurrence and node norms ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 24),
    modes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    reverse=st.booleans(),
    gain_a=st.booleans(),
    order=st.sampled_from("CF"),
)
def test_filter_modes_matches_loop(nodes, modes, seed, reverse, gain_a, order):
    # y_k = a_j y_{k-1} + b_j u_k per column (b = 1 or b = a), forward or
    # reversed, on C- or F-ordered input: a plain loop agrees to rounding and
    # per-column lfilter with the same coefficients agrees bit for bit.
    rng = np.random.default_rng(seed)
    u = np.asarray(rng.standard_normal((nodes, modes)), order=order)
    a = rng.uniform(0.0, 1.5, modes)
    b = a if gain_a else 1.0
    got = _filter_modes(u, a, b, reverse=reverse)
    assert got.flags.f_contiguous

    loop = np.zeros((nodes, modes))
    rows = range(nodes - 1, -1, -1) if reverse else range(nodes)
    bj = np.broadcast_to(b, (modes,))
    for j in range(modes):
        y = 0.0
        for k in rows:
            y = a[j] * y + bj[j] * u[k, j]
            loop[k, j] = y
    assert np.allclose(got, loop, rtol=1e-12, atol=1e-12)

    step = -1 if reverse else 1
    for j in range(modes):
        ref = lfilter([bj[j]], [1.0, -a[j]], np.ascontiguousarray(u[::step, j]))[::step]
        assert np.array_equal(got[:, j], ref)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 40),
    modes=st.integers(1, 140),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from("CF"),
)
def test_node_norms_equal_row_norms(nodes, modes, seed, order):
    # Bit-equal to numpy's row norm in either layout, so S-norms (and the
    # chart residuals written from them) do not depend on storage order.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((nodes, modes)) * np.exp(3.0 * rng.standard_normal((nodes, 1)))
    wts = rng.uniform(0.5, 4.0, modes)
    expected = np.linalg.norm(values * wts, axis=-1)
    assert np.array_equal(_node_norms(np.asarray(values, order=order), wts), expected)
