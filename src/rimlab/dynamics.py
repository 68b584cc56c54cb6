"""Mild-solution time stepping and the solution cocycles.

The transformed state v = u - z obeys

    dv/dt + A v = F(v + z(t)) + g(t + tau),

and is integrated by exponential Euler with the nonlinearity frozen at the
left endpoint of each step:

    v(t+h) = e^{-Ah} v(t) + h phi1(Ah) F(v(t) + z(t)) + cell(t),

where phi1(x) = (1 - e^{-x})/x acts per mode and cell(t) is the exact
kernel-weighted integral of the forcing over [t, t+h] (see
``forcing.cell_convolution``).  The scheme is unconditionally stable for
the stiff diagonal part, exact when F = 0, and first order otherwise.

Two solution maps are exposed on top of the integrator: the transformed
cocycle (integrate with translated forcing) and the original-variable
cocycle obtained by conjugating with the OU driver, i.e. subtracting z at
time zero and adding z at the endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, RimlabError
from .forcing import ForcingSignal, cell_convolution, shift_forcing
from .randomness import OUProcess
from .spectral import Spectrum, _filter_modes, _step_weights

__all__ = ["Nonlinearity", "integrate", "cocycle_psi", "cocycle_phi"]


@dataclass(frozen=True)
class Nonlinearity:
    """Globally Lipschitz map F: D(A^alpha) -> H with F(0) = 0.

    F_j(u) = L sin(lambda_j^alpha u_j), whose Lipschitz constant in the
    weighted-to-plain sense is exactly L; L = 0 is the linear equation, F = 0.
    """

    lipschitz: float

    def __post_init__(self):
        if self.lipschitz < 0.0:
            raise RimlabError("Lipschitz constant must be nonnegative")

    def evaluator(self, s: Spectrum):
        """F as a function of the state alone, with the weights computed once.

        The returned function allocates only its result, which it computes
        in place, and leaves its argument unchanged.  It does no shape
        check; ``apply`` is the checked entry point.
        """
        if self.lipschitz == 0.0:
            return np.zeros_like
        wts = s.weights_alpha()
        lip = self.lipschitz

        def f(u):
            if s.alpha == 0.0:
                # the weights are all ones and u * 1.0 == u exactly
                out = np.sin(u)
            else:
                out = u * wts
                np.sin(out, out=out)
            out *= lip
            return out

        return f

    def apply(self, u: np.ndarray, s: Spectrum) -> np.ndarray:
        return self.evaluator(s)(s.check_state(u))


def integrate(
    v_r: np.ndarray,
    r: float,
    t_end: float,
    ou: OUProcess,
    g: ForcingSignal,
    f: Nonlinearity,
    s: Spectrum,
    return_trajectory: bool = True,
):
    """Exponential-Euler orbit of the transformed equation from r to t_end.

    ``v_r`` may be a single state (N,) or a batch (B, N); the OU driver must
    cover [r, t_end] on its grid, whose step is the integration step.

    Returns the state at every grid node of [r, t_end], shaped (nodes, N)
    or (nodes, B, N), or only the final state when
    ``return_trajectory=False``.
    """
    if t_end < r:
        raise RimlabError("integration requires r <= t_end")
    h = ou.grid.h
    if float(np.max(s.lambdas)) * h > 0.5:
        raise RimlabError(
            f"lambda_max*h = {float(np.max(s.lambdas)) * h:g} exceeds the 0.5 stability budget"
        )
    i_r = ou.grid.index(r)
    i_e = ou.grid.index(t_end)
    n_steps = i_e - i_r
    times = np.arange(i_r, i_e + 1) * h
    v = s.check_state(np.array(v_r, dtype=float, copy=True))

    if n_steps == 0:
        if return_trajectory:
            return v[None, ...].copy()
        return v

    z = ou.values[i_r - ou.grid.i_min : i_e - ou.grid.i_min + 1]
    cells = cell_convolution(g, s, times[:-1], h)
    damp, w1 = _step_weights(s, h)

    if f.lipschitz == 0.0:
        # Linear case, L = 0: the orbit of each state is one filter pass
        # started at it (the Euler step with F = 0), so a batch member's
        # orbit is bit-identical to that state's own.
        states = v.reshape(-1, s.size)
        if return_trajectory:
            values = np.empty((n_steps + 1,) + v.shape)
            values[0] = v
            orbits = values[1:].reshape((n_steps,) + states.shape)
            for i, state in enumerate(states):
                _filter_modes(cells, damp, state, out=orbits[:, i])
        else:
            ends = np.empty(states.shape)  # each orbit goes once its end is copied
            for i, state in enumerate(states):
                ends[i] = _filter_modes(cells, damp, state)[-1]
            values = ends.reshape(v.shape)
        if not np.all(np.isfinite(values)):
            raise InstabilityError("non-finite state in linear integration")
        return values

    store = None
    if return_trajectory:
        store = np.empty((n_steps + 1,) + v.shape)
        store[0] = v
    rhs = f.evaluator(s)
    v_end = _euler_steps(v, z, cells, damp, w1, rhs, store=store)
    # A non-finite component stays non-finite (damp > 0, and a sum with a
    # non-finite term is non-finite), so the end state shows every failure;
    # a checked re-run from the start names the first failing step.
    if not np.all(np.isfinite(v_end)):
        _euler_steps(v, z, cells, damp, w1, rhs, times=times)
    if return_trajectory:
        return store
    return v_end


def _euler_steps(v, z, cells, damp, w1, rhs, store=None, times=None):
    """Nonlinear exponential-Euler steps from v, one per forcing cell.

    Writes each new state to ``store`` when given.  With ``times``, raises
    InstabilityError at the first non-finite state, naming its step and time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cells.shape[0]):
            v = damp * v + w1 * rhs(v + z[i]) + cells[i]
            if times is not None and not np.all(np.isfinite(v)):
                raise InstabilityError(
                    f"non-finite state at step {i + 1} (t = {float(times[i + 1])})"
                )
            if store is not None:
                store[i + 1] = v
    return v


def cocycle_psi(
    t: float,
    tau: float,
    ou: OUProcess,
    v0: np.ndarray,
    g: ForcingSignal,
    f: Nonlinearity,
    s: Spectrum,
) -> np.ndarray:
    """Transformed-variable solution map: v(t, 0, omega, g shifted by tau, v0)."""
    if t < 0.0:
        raise RimlabError("cocycle time must be nonnegative")
    return integrate(
        v0, 0.0, t, ou, shift_forcing(g, tau), f, s, return_trajectory=False
    )


def cocycle_phi(
    t: float,
    tau: float,
    ou: OUProcess,
    u0: np.ndarray,
    g: ForcingSignal,
    f: Nonlinearity,
    s: Spectrum,
) -> np.ndarray:
    """Original-variable solution map, conjugated through the OU driver.

    At t = 0 the map is the identity by definition (subtracting and adding
    the driver state would otherwise cost a rounding error).
    """
    if t == 0.0:
        return np.array(u0, dtype=float, copy=True)
    v0 = u0 - ou.at(0.0)
    v_t = cocycle_psi(t, tau, ou, v0, g, f, s)
    return v_t + ou.at(t)
