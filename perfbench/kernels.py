"""Computed (not measured) operation counts and bytes moved of two kernels.

Each kernel is written as the sequence of array operations the code
performs, one tuple per operation: (elementwise operations, float64
elements read, float64 elements written, bool bytes moved).  A
transcendental function counts as one operation.  Bytes assume every
operand streams from memory once, so caches are ignored: the figures are
labelled ``_computed`` and derived only from array shapes.
"""

from __future__ import annotations

F64 = 8


def _total(steps: list) -> tuple[int, int]:
    ops = sum(s[0] for s in steps)
    nbytes = sum(F64 * (s[1] + s[2]) + s[3] for s in steps)
    return ops, nbytes


def lp_apply(m: int, n_modes: int, n_res: int) -> tuple[int, int]:
    """One backward-operator application on M cells, N modes, n resolved.

    Follows ``lyapunov_perron.lp_apply``: F at every node, per-cell
    increments, one forward first-order recurrence per unresolved mode and
    one reversed recurrence per resolved mode.
    """
    nodes = (m + 1) * n_modes
    cells = m * n_modes
    q = n_modes - n_res
    steps = [
        (nodes, 2 * nodes, nodes, 0),  # xi + z
        (nodes, nodes + n_modes, nodes, 0),  # weighted coordinate
        (nodes, nodes, nodes, 0),  # sin
        (nodes, nodes, nodes, 0),  # L * sin
        (cells, cells + n_modes, cells, 0),  # w1 * F
        (cells, 2 * cells, cells, 0),  # + forcing cells
        (0, 0, nodes, 0),  # zeroed output
        (2 * m * q, m * q, 2 * m * q, 0),  # forward recurrence + copy, Q modes
        (3 * m * n_res, 2 * m * n_res, 3 * m * n_res, 0),  # reversed recurrence, P modes
        (2 * (m + 1) * n_res, 3 * (m + 1) * n_res, (m + 1) * n_res, 0),  # p_flow x - tail
    ]
    return _total(steps)


def integrator_step(batch: int, n_modes: int) -> tuple[int, int]:
    """One exponential-Euler step of ``dynamics.integrate`` on a (B, N) state."""
    e = batch * n_modes
    steps = [
        (e, e + n_modes, e, 0),  # v + z
        (e, e + n_modes, e, 0),  # weighted coordinate
        (e, e, e, 0),  # sin
        (e, e, e, 0),  # L * sin
        (e, e + n_modes, e, 0),  # damp * v
        (e, e + n_modes, e, 0),  # w1 * F
        (e, 2 * e, e, 0),  # sum
        (e, e + n_modes, e, 0),  # + forcing cell
        (e, e, 0, 2 * e),  # isfinite + all
        (0, e, e, 0),  # store the node
    ]
    return _total(steps)


def kernel_metrics(m: int, n_modes: int, n_res: int, batch: int) -> dict:
    out = {}
    for name, (ops, nbytes) in (
        ("lp_apply", lp_apply(m, n_modes, n_res)),
        ("step_b1", integrator_step(1, n_modes)),
        ("step_bB", integrator_step(batch, n_modes)),
    ):
        out[f"kernel.{name}.ops_computed"] = ops
        out[f"kernel.{name}.bytes_computed"] = nbytes
    return out
