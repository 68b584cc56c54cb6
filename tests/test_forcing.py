import tracemalloc

import numpy as np
import pytest

import rimlab as rl
from conftest import dense_scan_almost_period
from rimlab.errors import RimlabError
from rimlab.forcing import (
    _scan_row_vectors,
    almost_period_defect,
    cell_convolution,
    scan_almost_period,
    shift_forcing,
)


@pytest.fixture
def spec4():
    return rl.Spectrum(np.array([1.0, 4.0, 9.0, 16.0]), 0.0)


def test_zero_forcing(spec4):
    g = rl.ForcingSignal.zero(4)
    for t in (-3.0, 0.0, 7.5):
        assert np.array_equal(g.eval_many([t])[0], np.zeros(4))


def test_constant_forcing():
    g = rl.ForcingSignal.constant(np.array([0.0, 2.5, 0.0]))
    assert np.array_equal(g.eval_many([-11.0])[0], [0.0, 2.5, 0.0])
    assert np.array_equal(g.eval_many([3.0])[0], [0.0, 2.5, 0.0])


def test_trig_forcing_pointwise():
    g = rl.ForcingSignal.trig(4, [rl.TrigTerm(2, 1.0, 1.0, 0.0)])
    out = g.eval_many([np.pi / 2.0])[0]
    assert out[1] == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(out[[0, 2, 3]], np.zeros(3))


def test_declared_period_validated():
    with pytest.raises(RimlabError, match="not periodic with declared period"):
        rl.ForcingSignal.trig(2, [rl.TrigTerm(1, 1.0, 1.0, 0.0)], period=1.0)
    g = rl.ForcingSignal.trig(2, [rl.TrigTerm(1, 1.0, 1.0, 0.0)], period=2.0 * np.pi)
    assert g.declared_period == pytest.approx(2.0 * np.pi)


def test_shift_identity_and_period():
    g = rl.ForcingSignal.trig(2, [rl.TrigTerm(1, 1.0, 2.0, 0.3)], period=np.pi)
    assert shift_forcing(g, 0.0) is g
    shifted = shift_forcing(g, np.pi)
    t = np.linspace(-5, 5, 41)
    assert np.allclose(shifted.eval_many(t), g.eval_many(t), atol=1e-12)


def test_shift_phase_arithmetic():
    g = rl.ForcingSignal.trig(2, [rl.TrigTerm(1, 1.0, 1.0, 0.0)])
    shifted = shift_forcing(g, np.pi)
    assert shifted.terms[0].phase == pytest.approx(np.pi)


def test_shift_group_law(spec4):
    g = rl.ForcingSignal.trig(
        4, [rl.TrigTerm(2, 1.0, 1.0, 0.1), rl.TrigTerm(3, 0.5, np.sqrt(2.0), 0.0)]
    )
    rng = np.random.default_rng(0)
    t = rng.uniform(-10, 10, 64)
    lhs = shift_forcing(shift_forcing(g, 0.7), -1.9).eval_many(t)
    rhs = shift_forcing(g, -1.2).eval_many(t)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cell_convolution_matches_quadrature(spec4):
    # Oracle: dense left-Riemann refinement of the kernel-weighted integral.
    g = rl.ForcingSignal.trig(
        4, [rl.TrigTerm(2, 1.3, 2.0, 0.4), rl.TrigTerm(4, 0.7, 0.5, -0.2)]
    )
    h = 0.05
    t_lefts = np.array([-0.3, 0.0, 1.15])
    cells = cell_convolution(g, spec4, t_lefts, h)
    fine = np.linspace(0.0, h, 20001)
    for i, t0 in enumerate(t_lefts):
        vals = g.eval_many(t0 + fine)
        for j in range(4):
            kern = np.exp(-spec4.lambdas[j] * (h - fine))
            oracle = np.trapezoid(kern * vals[:, j], fine)
            assert cells[i, j] == pytest.approx(oracle, abs=1e-10)


def test_cell_convolution_constant_matches_weight(spec4):
    amps = np.array([1.0, -2.0, 0.0, 3.0])
    g = rl.ForcingSignal.constant(amps)
    h = 0.02
    cells = cell_convolution(g, spec4, np.array([0.0, 5.0]), h)
    w1 = -np.expm1(-spec4.lambdas * h) / spec4.lambdas
    assert np.allclose(cells, amps * w1, rtol=1e-14)


def test_constant_and_terms_take_one_path(spec4):
    # A signal is a constant vector plus trig terms: evaluation and cell
    # integrals add over the two parts, and a shift keeps the constant.
    amps = np.array([0.5, -1.0, 0.0, 2.0])
    terms = [rl.TrigTerm(2, 1.3, 2.0, 0.4), rl.TrigTerm(4, 0.7, 0.5, -0.2)]
    both = rl.ForcingSignal(4, amps, terms)
    const, trig = rl.ForcingSignal.constant(amps), rl.ForcingSignal.trig(4, terms)
    t = np.linspace(-3.0, 3.0, 13)
    parts = const.eval_many(t) + trig.eval_many(t)
    assert np.allclose(both.eval_many(t), parts, rtol=0, atol=1e-15)
    cells = [cell_convolution(g, spec4, t, 0.05) for g in (both, const, trig)]
    assert np.allclose(cells[0], cells[1] + cells[2], rtol=0, atol=1e-15)
    shifted = shift_forcing(both, 0.9)
    assert np.array_equal(shifted.amplitudes, amps)
    assert np.allclose(shifted.eval_many(t), both.eval_many(t + 0.9), rtol=0, atol=1e-12)
    # without terms the signal is periodic with every period it declares,
    # and the near-period scan accepts its first candidate
    assert rl.ForcingSignal(4, amps, declared_period=1.0).declared_period == 1.0
    with pytest.raises(RimlabError, match="not periodic with declared period"):
        rl.ForcingSignal(4, amps, terms, declared_period=1.0)
    assert scan_almost_period(const, spec4, 1e-3, 2.0) == (1.0, 0.0)
    with pytest.raises(RimlabError, match=r"near-period scan needs tau_max > 1"):
        scan_almost_period(const, spec4, 1e-3, 1.0)


def test_temperedness_integral_zero_and_constant(spec4, past_forcing_bound):
    assert past_forcing_bound(rl.ForcingSignal.zero(4), spec4) == 0.0
    amps = np.array([0.0, 3.0, 0.0, 0.0])
    g = rl.ForcingSignal.constant(amps)
    assert past_forcing_bound(g, spec4) == pytest.approx(3.0 / 1.0)


def test_temperedness_integral_trig_bound(spec4, past_forcing_bound):
    # The oracle bounds the past integral itself, by quadrature, at every tau.
    g = rl.ForcingSignal.trig(4, [rl.TrigTerm(2, 2.0, 1.0, 0.0)])
    sigma = np.linspace(-40.0, 0.0, 40001)
    for tau in (0.0, 0.7, 3.0):
        integrand = np.exp(sigma) * np.linalg.norm(g.eval_many(sigma + tau), axis=1)
        assert np.trapezoid(integrand, sigma) <= past_forcing_bound(g, spec4)


def test_almost_period_trivial_cases(spec4):
    g = rl.ForcingSignal.trig(4, [rl.TrigTerm(2, 1.0, 1.0, 0.0)], period=2 * np.pi)
    assert almost_period_defect(g, spec4, 0.0) == 0.0
    assert almost_period_defect(g, spec4, 2.0 * np.pi) < 1e-12


def test_almost_period_half_period_flip(spec4):
    beta, amp = 2.0, 0.7
    g = rl.ForcingSignal.trig(4, [rl.TrigTerm(3, amp, beta, 0.0)])
    defect = almost_period_defect(g, spec4, np.pi / beta)
    assert defect == pytest.approx(2.0 * amp, rel=1e-2)


def test_trig_sup_bound_dominates_samples(spec4, past_forcing_bound):
    g = rl.ForcingSignal.trig(
        4, [rl.TrigTerm(2, 1.0, 1.0, 0.0), rl.TrigTerm(2, 0.3, np.sqrt(2.0), 0.2)]
    )
    bound = past_forcing_bound(g, spec4) * spec4.lambdas[0]
    t = np.linspace(0, 50, 5001)
    sampled = np.max(np.linalg.norm(g.eval_many(t), axis=1))
    assert sampled <= bound + 1e-12
    assert bound <= 1.3 + 1e-12  # sum of term amplitudes on one mode


def test_scan_almost_period_quasi_periodic(spec4):
    g = rl.ForcingSignal.trig(
        4, [rl.TrigTerm(2, 0.02, 1.0, 0.0), rl.TrigTerm(3, 0.02, np.sqrt(2.0), 0.0)]
    )
    tau0, eps = scan_almost_period(g, spec4, 1e-3, 450.0, 0.01)
    assert eps <= 1e-3
    assert tau0 > 1.0
    # the dense defect never exceeds the scan's accepted bound
    assert almost_period_defect(g, spec4, tau0) == pytest.approx(eps)


# (terms, alpha): one forced mode, two, two terms on one mode, and fractional
# weights, each on 16 modes
ROOT2 = float(np.sqrt(2.0))
SCAN_SIGNALS = {
    "one_mode": ([rl.TrigTerm(2, 0.02, 1.0, 0.0)], 0.0),
    "two_modes": ([rl.TrigTerm(2, 0.02, 1.0, 0.0), rl.TrigTerm(3, 0.02, ROOT2, 0.0)], 0.0),
    "one_mode_two_terms": (
        [rl.TrigTerm(5, 0.02, 1.0, 0.3), rl.TrigTerm(5, 0.01, ROOT2, 1.0)],
        0.0,
    ),
    "alpha": ([rl.TrigTerm(2, 0.02, 1.0, 0.0), rl.TrigTerm(3, 0.02, ROOT2, 0.0)], 0.25),
}


@pytest.mark.parametrize("name", sorted(SCAN_SIGNALS))
def test_sparse_scan_equals_dense(name):
    # The scan tabulates its bound on the forced modes alone: the same
    # (tau0, defect) as the dense (taus, n_total) table, within less memory
    # than that one table.
    terms, alpha = SCAN_SIGNALS[name]
    s = rl.dirichlet_laplacian(16, alpha)
    g = rl.ForcingSignal.trig(16, terms)
    args = (2e-3, 450.0, 0.01)
    expected = dense_scan_almost_period(g, s, *args)
    tracemalloc.start()
    try:
        assert scan_almost_period(g, s, *args) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.arange(1.0, 450.0, 0.01).size * s.size * 8


@pytest.mark.parametrize(
    "terms",
    [[], SCAN_SIGNALS["one_mode"][0], SCAN_SIGNALS["two_modes"][0]],
    ids=["no_forced_mode", "one_forced_mode", "two_forced_modes"],
)
def test_scan_peak_within_its_budget_charge(terms):
    # load_config charges the scan scan_max / scan_step rows of
    # _scan_row_vectors float64 values; its traced peak stays within that.
    s = rl.dirichlet_laplacian(16, 0.0)
    g = rl.ForcingSignal(16, terms=terms)
    tracemalloc.start()
    try:
        scan_almost_period(g, s, 2e-3, 450.0, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 450.0 / 0.01 * _scan_row_vectors(g) * 8
