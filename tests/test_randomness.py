import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import rimlab as rl
from conftest import coarsen_path, dense_sample_wiener, dense_solve_ou, noise_problem
from rimlab.config import build_problem, load_config
from rimlab.errors import RimlabError
from rimlab.randomness import whole_steps


def small_grid(h=0.05, lo=-12.0, hi=1.0):
    return rl.TimeGrid.from_times(lo, hi, h)


def test_grid_requires_zero_inside():
    with pytest.raises(RimlabError, match="grid must contain 0 strictly inside its span"):
        rl.TimeGrid(0.1, 1, 5)
    with pytest.raises(RimlabError, match="grid step must be positive"):
        rl.TimeGrid(-0.1, -5, 5)


def test_grid_index_alignment():
    grid = small_grid()
    assert grid.index(0.0) == 0
    assert grid.index(-0.25) == -5
    with pytest.raises(RimlabError, match="is not a multiple of h"):
        grid.index(0.026)
    with pytest.raises(RimlabError, match="outside stored support"):
        grid.index(500.0)


def test_whole_steps_of_exact_multiples():
    # k * 0.001 / 0.001 lands just above k for some k; no such span gains a step
    assert [k for k in range(1, 20_000) if whole_steps(k * 0.001, 0.001) != k] == []
    assert whole_steps(4.0015, 0.001) == 4002
    grid = rl.TimeGrid.from_times(-8.002, 4.001, 0.001)
    assert (grid.i_min, grid.i_max) == (-8002, 4001)


def test_zero_covariance_gives_zero_path():
    grid = small_grid()
    w = rl.sample_wiener(3, grid, rl.CovarianceSpec.zero(4))
    assert np.array_equal(w.values, np.zeros_like(w.values))


def test_same_seed_bitwise_identical():
    grid = small_grid()
    cov = rl.CovarianceSpec.power_law(4, 0.3, 2.0)
    a = rl.sample_wiener(11, grid, cov)
    b = rl.sample_wiener(11, grid, cov)
    assert np.array_equal(a.values, b.values)
    c = rl.sample_wiener(12, grid, cov)
    assert not np.array_equal(a.values, c.values)


def test_path_anchored_at_zero():
    grid = small_grid()
    w = rl.sample_wiener(5, grid, rl.CovarianceSpec.power_law(3, 1.0, 1.0))
    assert np.array_equal(w.values[grid.offset(0.0)], np.zeros(3))


def test_increment_variance_matches_covariance():
    # Monte-Carlo moment check over 1e5 steps.
    grid = rl.TimeGrid.from_times(-1.0, 99.0, 1e-3)
    q = np.array([0.8, 0.2])
    w = rl.sample_wiener(21, grid, rl.CovarianceSpec(q))
    inc = np.diff(w.values, axis=0)
    assert inc.shape[0] == 100_000
    sample_var = np.var(inc, axis=0)
    assert np.all(np.abs(sample_var / (q * grid.h) - 1.0) < 0.05)


def shifted_problem(seed: int = 5):
    path = rl.sample_wiener(seed, small_grid(), rl.CovarianceSpec.power_law(3, 1.0, 1.0))
    return noise_problem(rl.Spectrum(np.array([1.0, 4.0, 9.0])), path)


def test_shift_identity_and_anchor():
    problem = shifted_problem()
    same = problem.ou_for(0.0)
    assert same.grid == problem.ou.grid
    assert same.values is problem.ou.values
    sh = problem.ou_for(-2.0)
    assert (sh.grid.i_min, sh.grid.i_max) == (problem.ou.grid.i_min + 40, 60)
    # z(theta_t omega)(s) = z(omega)(s + t): its t = 0 node is the old t = -2
    assert np.array_equal(sh.at(0.0), problem.ou.at(-2.0))
    assert np.array_equal(sh.at(1.0), problem.ou.at(-1.0))


def test_shift_group_law_exact():
    problem = shifted_problem(9)
    for t1, t2 in ((-1.0, -0.5), (-3.0, 0.75), (0.5, -2.0)):
        one_step = problem.ou_for(t1 + t2)
        for s in (0.0, -1.0, 0.25):
            assert np.array_equal(one_step.at(s), problem.ou_for(t1).at(s + t2))


def test_shift_errors():
    problem = shifted_problem()
    with pytest.raises(RimlabError, match="is not a multiple of h"):
        problem.ou_for(0.0123)
    with pytest.raises(RimlabError, match="outside stored support"):
        problem.ou_for(500.0)
    for end in (1.0, -12.0):  # t = 0 would sit on the grid's end node
        with pytest.raises(RimlabError, match="on the end of the stored support"):
            problem.ou_for(end)


def test_coarsen_restriction_is_exact():
    grid = rl.TimeGrid.from_times(-2.0, 1.0, 0.01)
    w = rl.sample_wiener(13, grid, rl.CovarianceSpec.power_law(2, 1.0, 1.0))
    c = coarsen_path(w, 4)
    assert c.grid.h == pytest.approx(0.04)
    assert np.array_equal(c.values, w.values[::4])
    assert np.array_equal(c.values[c.grid.offset(-1.0)], w.values[grid.offset(-1.0)])


WORKHORSE = Path(__file__).resolve().parent.parent / "configs" / "dirichlet_nonlinear.ini"


def test_in_place_setup_equals_dense_formulas():
    # The workhorse grid, then grids whose t = 0 node is one node from either
    # end, where one of the two outward sums covers a single cell.
    problem = build_problem(load_config(WORKHORSE))
    cases = [(problem.noise, problem.spectrum)]
    s = rl.Spectrum(np.array([1.0, 4.0, 9.0]))
    cov = rl.CovarianceSpec.power_law(3, 0.4, 2.0)
    for i_min, i_max in ((-1, 40), (-40, 1), (-1, 1)):
        cases.append((rl.sample_wiener(5, rl.TimeGrid(0.01, i_min, i_max), cov), s))
    for w, spectrum in cases:
        assert np.array_equal(w.values, dense_sample_wiener(w.seed, w.grid, w.cov))
        assert np.array_equal(rl.solve_ou(w, spectrum).values, dense_solve_ou(w, spectrum))


def test_setup_holds_one_grid_array():
    # Sampling and the OU solve each fill their one table in place, and the
    # problem keeps the OU table, not the path it was solved from.
    import scipy.signal  # noqa: F401  (loaded first: its import is not set-up)

    cfg = load_config(WORKHORSE)
    tracemalloc.start()
    try:
        problem = build_problem(cfg)
        problem.ou
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = problem.ou.values.nbytes
    assert peak <= 2.5 * table
    assert retained <= 1.1 * table
    assert problem.noise is problem.ou


def test_ou_zero_noise_is_zero():
    s = rl.Spectrum(np.array([1.0, 4.0]))
    w = rl.sample_wiener(1, small_grid(), rl.CovarianceSpec.zero(2))
    z = rl.solve_ou(w, s)
    assert np.array_equal(z.values, np.zeros_like(z.values))


def test_ou_recursion_residual_is_exact():
    s = rl.Spectrum(np.array([1.0, 4.0, 9.0]))
    grid = small_grid(h=0.02, lo=-3.0, hi=1.0)
    cov = rl.CovarianceSpec.power_law(3, 0.4, 2.0)
    w = rl.sample_wiener(17, grid, cov)
    z = rl.solve_ou(w, s)
    damp = np.exp(-s.lambdas * grid.h)
    gain = -np.expm1(-s.lambdas * grid.h) / (s.lambdas * grid.h)
    resid = z.values[1:] - damp * z.values[:-1] - gain * np.diff(w.values, axis=0)
    assert np.max(np.abs(resid)) < 1e-13


def test_ou_long_run_variance():
    s = rl.Spectrum(np.array([1.0, 2.0]))
    grid = rl.TimeGrid.from_times(-1.0, 10_000.0, 0.05)
    q = np.array([1.0, 0.5])
    w = rl.sample_wiener(29, grid, rl.CovarianceSpec(q))
    z = rl.solve_ou(w, s)
    sample_var = np.var(z.values[z.grid.offset(10.0) :], axis=0)
    assert np.all(np.abs(sample_var / (q / (2.0 * s.lambdas)) - 1.0) < 0.05)


def test_ou_stationarity_ks():
    # Distribution of z at two times past burn-in agrees across 1e3 seeds.
    s = rl.Spectrum(np.array([1.0, 4.0]))
    grid = small_grid(h=0.05, lo=-12.0, hi=1.0)
    cov = rl.CovarianceSpec(np.array([1.0, 0.5]))
    a, b = [], []
    for seed in range(1000):
        z = rl.solve_ou(rl.sample_wiener(seed, grid, cov), s)
        a.append(z.at(-1.0)[0])
        b.append(z.at(0.5)[0])
    stat = stats.ks_2samp(a, b).statistic
    critical = 1.628 * np.sqrt(2.0 / 1000.0)  # 1% level, equal sizes
    assert stat < critical


def test_temperedness_ratio():
    # The OU driver is tempered: sup over grid t <= 0 of e^{t} ||z(t)|| is
    # finite, and zero for zero noise.
    s = rl.Spectrum(np.array([1.0, 4.0]))
    grid = small_grid()
    times = np.arange(grid.i_min, grid.i_max + 1) * grid.h
    past = times <= 0.0

    def ratio(z):
        return float(np.max(np.exp(times[past]) * np.linalg.norm(z.values[past], axis=1)))

    w0 = rl.sample_wiener(1, grid, rl.CovarianceSpec.zero(2))
    assert ratio(rl.solve_ou(w0, s)) == 0.0
    cov = rl.CovarianceSpec(np.array([1.0, 0.0]))
    for seed in range(1000):
        z = rl.solve_ou(rl.sample_wiener(seed, grid, cov), s)
        r = ratio(z)
        assert np.isfinite(r)
        assert np.exp(grid.t_min) * np.linalg.norm(z.values[0]) <= r


@pytest.fixture(scope="module")
def workhorse():
    problem = build_problem(load_config(WORKHORSE))
    problem.ou
    return problem


def test_every_window_reads_the_one_ou_table(workhorse):
    # A base, a translated and a shifted context and the forward stencil
    # all read their OU window in place from the one mode-major table.
    from rimlab.tracking import _ForwardStencil

    table = workhorse.ou.values
    assert table.flags.f_contiguous
    contexts = (
        workhorse.lp_context(0.0),
        workhorse.lp_context(1.0),  # the forcing translated by 1
        workhorse.lp_context(0.0, ou=workhorse.ou_for(1.0)),
    )
    for ctx in contexts:
        assert np.shares_memory(ctx.z, table)
    stencil = _ForwardStencil(contexts[0], whole_steps(workhorse.t_fwd, workhorse.h))
    assert np.shares_memory(stencil.z, table)


def test_ou_table_is_read_only(workhorse):
    # Every reader shares the table, so none may write to it.
    assert not workhorse.ou.values.flags.writeable
    for view in (
        workhorse.lp_context(0.0).z,
        workhorse.ou.at(0.0),
        workhorse.ou_for(1.0).values,
    ):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0


def test_context_copies_no_ou_window(workhorse):
    # Building a context allocates its forcing cells (the forced modes
    # only), its resolved-mode flow and its node weights, and keeps less
    # than one backward history of them: the OU window is a view.
    tracemalloc.start()
    try:
        ctx = workhorse.lp_context(0.0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < ctx.times.size * workhorse.spectrum.size * 8
