"""Shared model instances and oracles for the test suite.

The workhorse configuration is the quadratic (Dirichlet) spectrum with 16
modes, gap index n = 1, sine nonlinearity with constant 0.1 and k = 0.2,
a unit sine forcing on mode 2, and power-law trace-class noise.  Session
fixtures share one sampled path so the expensive OU solve happens once.

The plain functions at the end are test helpers and oracles that the
library itself does not need: a problem that only carries noise, a cold
one-point graph solve, the offset graph of the
original variables, a path restriction, the chart's pairwise Lipschitz
quotient, the forward operator's Q kernel, one forward-operator sweep, a
tracking solve that integrates its own base orbit, and the dense formulas
of path sampling, the OU solve, the near-period scan and a context's
forcing cells (on every mode, not only the forced ones), which allocate
every intermediate table the in-place library code avoids.  ``ModeCoupling`` is
a test-only nonlinearity whose graph depends on x; ``Saturating`` is one
whose orbits overflow the float range.
"""

import numpy as np
import pytest

import rimlab as rl
from rimlab.errors import RimlabError
from rimlab.forcing import almost_period_defect, cell_convolution, shift_forcing
from rimlab.lyapunov_perron import _duhamel
from rimlab.problem import ModelProblem
from rimlab.spectral import _filter_modes
from rimlab.tracking import _apply_forward, _ForwardStencil, base_orbit, track_phi

SEED = 7
H = 1e-3
TOL = 1e-6
T_BACK = 16.12
T_FWD = 16.12
BURN_IN = 10.0
MAX_SHIFT = 8.0  # largest pullback / invariance shift any test requests


@pytest.fixture(scope="session")
def spectrum16():
    return rl.dirichlet_laplacian(16, 0.0)


@pytest.fixture(scope="session")
def sine_forcing(spectrum16):
    return rl.ForcingSignal.trig(
        spectrum16.size, [rl.TrigTerm(2, 1.0, 1.0, 0.0)], period=2.0 * np.pi
    )


@pytest.fixture(scope="session")
def cov16(spectrum16):
    return rl.CovarianceSpec.power_law(spectrum16.size, 0.05, 2.0)


@pytest.fixture(scope="session")
def path16(spectrum16, cov16):
    grid = rl.TimeGrid.from_times(-(T_BACK + BURN_IN + MAX_SHIFT) - 0.1, T_FWD + 1.1, H)
    return rl.sample_wiener(SEED, grid, cov16)


@pytest.fixture(scope="session")
def problem_nl(spectrum16, sine_forcing, path16):
    """Nonlinear example: per-mode sine with L=0.1, k=0.2 (mu=2, delta=0.325)."""
    cert = rl.check_gap(spectrum16, 0.1, 0.2, 1)
    return ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.per_mode_sin(0.1),
        forcing=sine_forcing,
        noise=path16,
        cert=cert,
        t_back=T_BACK,
        t_fwd=T_FWD,
        tol=TOL,
    )


@pytest.fixture(scope="session")
def problem_lin(spectrum16, sine_forcing, path16):
    """Linear example: F = 0 with the same path and sine forcing."""
    cert = rl.check_gap(spectrum16, 0.0, 0.2, 1)
    return ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=sine_forcing,
        noise=path16,
        cert=cert,
        t_back=8.1,
        t_fwd=8.1,
        tol=TOL,
    )


@pytest.fixture(scope="session")
def problem_lin_const(spectrum16, path16):
    """Linear example with constant forcing on mode 2 (closed-form graph)."""
    cert = rl.check_gap(spectrum16, 0.0, 0.2, 1)
    amps = np.zeros(spectrum16.size)
    amps[1] = 1.0
    return ModelProblem(
        spectrum=spectrum16,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=rl.ForcingSignal.constant(amps),
        noise=path16,
        cert=cert,
        t_back=8.1,
        t_fwd=8.1,
        tol=TOL,
    )


@pytest.fixture(scope="session")
def past_forcing_bound():
    """Oracle for the forcing's weighted past integral in the a-priori bounds.

    Returns g, s -> sup_t ||A^alpha g(t)|| / lambda_1, which bounds
    int_{-inf}^0 e^{lambda_1 sigma} ||A^alpha g(sigma + tau)|| d sigma for
    every tau.  Trig amplitudes are summed per mode before the mode norm,
    so the bound is exact for a constant.
    """

    def bound(g, s):
        per_mode = np.abs(g.amplitudes)
        for term in g.terms:
            per_mode[term.mode - 1] += abs(term.amplitude)
        return float(np.linalg.norm(per_mode * s.weights_alpha())) / float(s.lambdas[0])

    return bound


@pytest.fixture(scope="session")
def chart_grid16(spectrum16):
    grid = np.zeros((9, spectrum16.size))
    grid[:, 0] = np.linspace(-1.0, 1.0, 9)
    return grid


class ModeCoupling(rl.Nonlinearity):
    """Test-only F(u) = L S u, with S the orthonormal DST-I matrix.

    S_jk = sqrt(2/(N+1)) sin(pi j k/(N+1)) is symmetric and orthogonal, so
    F is exactly L-Lipschitz on H (take alpha = 0), F(0) = 0, and every
    mode drives every other: the graph depends on x and P of a shadowing
    point moves.  S is applied by ``np.einsum`` without ``optimize``, so no
    BLAS call (nor its thread pool) is made, and a mode-major input gives a
    mode-major output.
    """

    def __post_init__(self):
        if self.lipschitz < 0.0:
            raise RimlabError("Lipschitz constant must be nonnegative")

    def evaluator(self, s):
        j = np.arange(1, s.size + 1)
        dst = np.sqrt(2.0 / (s.size + 1)) * np.sin(np.pi * np.outer(j, j) / (s.size + 1))
        lip = self.lipschitz
        return lambda u: lip * np.einsum("jk,...k->...j", dst, u)


class Saturating(rl.Nonlinearity):
    """Test-only F(u) = L clip(u, -1, 1), mode by mode, at alpha = 0.

    With L near the float maximum, an orbit whose saturation level
    L / lambda_1 lies beyond the float range overflows after finitely many
    steps, so ``integrate`` raises InstabilityError on it.
    """

    def __post_init__(self):
        if self.lipschitz < 0.0:
            raise RimlabError("Lipschitz constant must be nonnegative")

    def evaluator(self, s):
        lip = self.lipschitz
        return lambda u: lip * np.clip(u, -1.0, 1.0)


def line_grid(n_modes: int, count: int, lo: float = -1.0, hi: float = 1.0, mode: int = 1):
    grid = np.zeros((count, n_modes))
    grid[:, mode - 1] = np.linspace(lo, hi, count)
    return grid


def noise_problem(spectrum: rl.Spectrum, path: rl.WienerPath) -> ModelProblem:
    """A problem that only carries the path's noise (zero F and forcing), for
    the OU driver and its shifts ``ou_for``."""
    return ModelProblem(
        spectrum=spectrum,
        nonlinearity=rl.Nonlinearity.zero(),
        forcing=rl.ForcingSignal.zero(spectrum.size),
        noise=path,
        cert=rl.check_gap(spectrum, 0.0, 0.2, 1),
        t_back=1.0,
        t_fwd=1.0,
    )


def pairwise_lipschitz(x_grid: np.ndarray, values: np.ndarray, s: rl.Spectrum) -> float:
    """Largest |m(x_i) - m(x_j)|_alpha / |x_i - x_j|_alpha over the grid pairs,
    skipping coincident points, by the double loop over pairs: the oracle
    for the chart's Lipschitz quotient."""
    lip = 0.0
    k_pts = x_grid.shape[0]
    for i in range(k_pts):
        for j in range(i + 1, k_pts):
            dx = rl.norm_alpha(x_grid[i] - x_grid[j], s)
            if dx > 1e-14:
                lip = max(lip, rl.norm_alpha(values[i] - values[j], s) / dx)
    return float(lip)


def manifold_point(x: np.ndarray, ctx: rl.LPContext) -> np.ndarray:
    """Graph value m(x) from one cold solve: the oracle for warm-started sweeps."""
    xi, _ = rl.solve_fixed_point(x, ctx)
    return ctx.project_q(xi[-1])


def dense_cells(ctx: rl.LPContext) -> np.ndarray:
    """The context's forcing cells on every mode, shaped (cells, modes)."""
    g = shift_forcing(ctx.forcing, ctx.tau)
    return cell_convolution(g, ctx.spectrum, ctx.times[:-1], ctx.h)


def q_flow(ctx: rl.LPContext, n_cells: int) -> np.ndarray:
    """The forward operator's Q kernel e^{-A t_k} on nodes k = 0..n_cells:
    ``_duhamel`` of zero increments started at ones, the filter's
    zero-input response, shaped (nodes, unresolved modes)."""
    n = ctx.cert.n
    cells = np.zeros((n_cells, ctx.spectrum.size))
    return _duhamel(cells, ctx, np.ones(ctx.spectrum.size - n))[:, n:]


def tilde_manifold_point(x: np.ndarray, ctx: rl.LPContext) -> np.ndarray:
    """Graph value of the original-variable manifold, offset by the OU state."""
    z0 = ctx.z_at_zero()
    base = ctx.project_p(np.asarray(x, dtype=float) - z0)
    return ctx.project_q(z0) + manifold_point(base, ctx)


def coarsen_path(w: rl.WienerPath, factor: int) -> rl.WienerPath:
    """Restrict the path to every ``factor``-th node (exact at common nodes)."""
    if factor < 1:
        raise RimlabError("coarsening factor must be >= 1")
    if w.grid.i_min % factor or w.grid.i_max % factor:
        raise RimlabError("grid endpoints must be divisible by the factor")
    return rl.WienerPath(
        grid=rl.TimeGrid(w.grid.h * factor, w.grid.i_min // factor, w.grid.i_max // factor),
        cov=w.cov,
        values=w.values[::factor].copy(),
        seed=w.seed,
    )


def dense_sample_wiener(seed: int, grid: rl.TimeGrid, cov: rl.CovarianceSpec) -> np.ndarray:
    """Node values of ``sample_wiener``'s path: the increments drawn as one
    (cells, modes) table, then summed outward from t = 0 into a new array."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    n_cells = grid.n_nodes - 1
    inc = rng.standard_normal((n_cells, cov.q.size)) * np.sqrt(cov.q * grid.h)
    values = np.zeros((grid.n_nodes, cov.q.size))
    k0 = -grid.i_min  # array offset of the node t = 0
    values[k0 + 1 :] = np.cumsum(inc[k0:], axis=0)
    values[:k0] = -np.cumsum(inc[:k0][::-1], axis=0)[::-1]
    return values


def dense_solve_ou(w: rl.WienerPath, s: rl.Spectrum) -> np.ndarray:
    """Table of ``solve_ou``: increments, scaled increments and the filter
    started at the initial value each held as its own grid table."""
    h, lam = w.grid.h, s.lambdas
    rng0 = np.random.default_rng(np.random.SeedSequence([int(w.seed), 1]))
    z0 = rng0.standard_normal(s.size) * np.sqrt(w.cov.q / (2.0 * lam))
    dw = np.diff(w.values, axis=0)
    u = dw * (-np.expm1(-lam * h) / (lam * h))
    values = np.empty_like(w.values)
    values[0] = z0
    values[1:] = _filter_modes(u, np.exp(-lam * h), z0)
    return values


def dense_scan_almost_period(g, s, target, tau_max, step=1e-2):
    """``scan_almost_period`` with its per-term bound on a dense (taus,
    n_total) table, every unforced mode a column of zeros."""
    taus = np.arange(1.0, tau_max, step)
    per_mode = np.zeros((taus.size, s.size))
    for term in g.terms:
        per_mode[:, term.mode - 1] += 2.0 * abs(term.amplitude) * np.abs(
            np.sin(term.frequency * taus / 2.0)
        )
    bound = np.linalg.norm(per_mode * s.weights_alpha(), axis=1)
    idx = int(np.argmin(bound))
    if bound[idx] > target:
        raise RimlabError(f"no near-period with defect <= {target} found below {tau_max}")
    return float(taus[idx]), almost_period_defect(g, s, float(taus[idx]))


def forward_apply(xi: np.ndarray, v0: np.ndarray, base: np.ndarray, ctx: rl.LPContext):
    """One application of the forward tracking operator; returns (T+ xi, y0).

    ``xi`` is an orbit difference on the forward nodes of [0, T_f], the
    cells read off its node count, and ``base`` is v0's transformed orbit
    on the same nodes.  The off-graph seed y0 is recomputed from the
    supplied iterate.
    """
    stencil = _ForwardStencil(ctx, xi.shape[0] - 1)
    assert xi.shape == base.shape == (stencil.times.size, ctx.spectrum.size)
    # on the cells' left nodes, mode-major like dF's argument in the sweep
    f_base = ctx.f(np.add(base[:-1], stencil.z[:-1], order="F"))
    values, _, graph = _apply_forward(ctx, stencil, xi, base, f_base, v0)
    return values, -ctx.project_q(v0) + ctx.project_q(graph[-1])


def track_alone(u0: np.ndarray, ctx: rl.LPContext, t_fwd: float):
    """``track_phi`` for one state, with its base orbit integrated here."""
    return track_phi(u0, ctx, base_orbit(u0 - ctx.z_at_zero(), ctx, t_fwd))
