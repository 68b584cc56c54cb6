"""Per-layer metrics from the span files of one traced pass.

A layer is the rimlab module that defines the traced function (``cli``,
``config``, ``lyapunov_perron``, ...), plus ``import`` for the package
import.  A span's self time is its duration minus the durations of its
child spans; self times summed over all layers equal the summed durations
of the root spans (the import and ``cli.main``).  Clock readings taken by
the tracer and by the caller split the rest of each process's wall time
into ``interpreter`` (start-up before the tracer's first line, and exit
after the spans are written) and the tracer's own work, so the layers
plus the interpreter account for the traced wall time.
Times are pass totals unless the name says per call (``_ms``, ``_us``,
``_p50``, ``_p90``); counts are pass totals.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

LAYERS = (
    "import",
    "config",
    "randomness",
    "forcing",
    "problem",
    "lyapunov_perron",
    "dynamics",
    "spectral",
    "tracking",
    "analysis",
    "svgplot",
    "cli",
)

# metric -> span name whose outermost spans are summed (inclusive seconds)
TOTALS = {
    "config.load_config_s": "config.load_config",
    "config.build_problem_s": "config.build_problem",
    "randomness.sample_wiener_s": "randomness.sample_wiener",
    "randomness.solve_ou_s": "randomness.solve_ou",
    "forcing.cell_convolution_s": "forcing.cell_convolution",
    "forcing.scan_almost_period_s": "forcing.scan_almost_period",
    "lyapunov_perron.context_s": "lyapunov_perron.LPContext.__init__",
    "lyapunov_perron.build_chart_s": "lyapunov_perron.build_chart",
    "dynamics.integrate_s": "dynamics.integrate",
    "tracking.track_phi_s": "tracking.track_phi",
    "analysis.invariance_s": "analysis.invariance_defect",
    "analysis.periodicity_s": "analysis.periodicity_defect",
    "analysis.ap_s": "analysis.ap_defect",
    "analysis.pullback_s": "analysis.pullback_attractor",
    "analysis.containment_s": "analysis.containment_defect",
}

# metric -> span name whose calls are counted
CALLS = {
    "randomness.solve_ou.calls": "randomness.solve_ou",
    "forcing.cell_convolution.calls": "forcing.cell_convolution",
    "problem.lp_context.calls": "problem.ModelProblem.lp_context",
    "lyapunov_perron.context.calls": "lyapunov_perron.LPContext.__init__",
    "lyapunov_perron.lp_apply.calls": "lyapunov_perron.lp_apply",
    "lyapunov_perron.solve.calls": "lyapunov_perron.solve_fixed_point",
    "dynamics.integrate.calls": "dynamics.integrate",
    "dynamics.apply.calls": "dynamics.Nonlinearity.apply",
}

SOLVE = "lyapunov_perron.solve_fixed_point"


def _percentile(values: list, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1); 0.0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class _Trace:
    """One process's spans with durations, self times and name lookups."""

    def __init__(self, prefix: str):
        with open(prefix + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        flat = array("q")
        with open(prefix + ".bin", "rb") as fh:
            flat.frombytes(fh.read())
        names = doc["names"]
        self.name = [names[i] for i in flat[0::4]]
        self.parent = list(flat[1::4])
        self.dur = [(b - a) * 1e-9 for a, b in zip(flat[2::4], flat[3::4])]
        child = [0.0] * len(self.parent)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.extra = {int(k): v for k, v in doc["extra"].items()}
        self.counts = doc["counts"]
        self.clock = doc["clock"]
        self.cost_ns = doc["cost_ns"]
        self.by_name = defaultdict(list)
        for i, n in enumerate(self.name):
            self.by_name[n].append(i)

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name:
                return True
            p = self.parent[p]
        return False

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.by_name[name] if not self.has_ancestor(i, name))


def layer_metrics(processes: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``processes`` holds (span file prefix, spawn ns, reaped ns) per command,
    read on the caller's monotonic clock; ``wall_s`` is the pass wall time.
    """
    traces = [_Trace(p) for p, _, _ in processes]
    interpreter = tracer = 0.0
    for t, (_, spawned, reaped) in zip(traces, processes):
        clock = t.clock
        in_child = (clock["dumped"] - clock["started"]) * 1e-9
        roots = sum(d for d, p in zip(t.dur, t.parent) if p < 0)
        interpreter += (reaped - spawned) * 1e-9 - in_child  # start-up and exit
        tracer += in_child - roots  # tracer imports, wrapping, writing spans
    out = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for t in traces:
        for n, s in zip(t.name, t.self_time):
            self_by_layer[n.split(".", 1)[0]] += s
    imports = [t.dur[i] for t in traces for i in t.by_name["import.rimlab"]]
    out["import.rimlab_s"] = _percentile(imports, 0.5)
    for metric, name in TOTALS.items():
        out[metric] = sum(t.total(name) for t in traces)
    for metric, name in CALLS.items():
        out[metric] = sum(len(t.by_name[name]) for t in traces)

    apply_ = [t.dur[i] for t in traces for i in t.by_name["lyapunov_perron.lp_apply"]]
    solves = [t.dur[i] for t in traces for i in t.by_name[SOLVE]]
    out["lyapunov_perron.lp_apply_ms"] = 1e3 * _percentile(apply_, 0.5)
    out["lyapunov_perron.picard_iters"] = sum(
        1
        for t in traces
        for i in t.by_name["lyapunov_perron.lp_apply"]
        if t.parent[i] >= 0 and t.name[t.parent[i]] == SOLVE
    )
    out["lyapunov_perron.solve_p50_ms"] = 1e3 * _percentile(solves, 0.5)
    out["lyapunov_perron.solve_p90_ms"] = 1e3 * _percentile(solves, 0.9)

    per_step = {1: [], "B": []}
    steps = 0
    for t in traces:
        for i in t.by_name["dynamics.integrate"]:
            n_steps, batch = t.extra.get(i, (0, 1))
            steps += n_steps
            if n_steps:
                per_step[1 if batch == 1 else "B"].append(t.dur[i] / n_steps)
    out["dynamics.integrate.steps"] = steps
    out["dynamics.step_us_b1"] = 1e6 * _percentile(per_step[1], 0.5)
    out["dynamics.step_us_bB"] = 1e6 * _percentile(per_step["B"], 0.5)
    applies = [t.dur[i] for t in traces for i in t.by_name["dynamics.Nonlinearity.apply"]]
    out["dynamics.apply_us"] = 1e6 * _percentile(applies, 0.5)
    out["spectral.check_state.calls"] = sum(
        t.counts.get("spectral.Spectrum.check_state", 0) for t in traces
    )

    out["tracking.sweeps"] = sum(
        t.extra.get(i, [0])[0] for t in traces for i in t.by_name["tracking.track_phi"]
    )
    out["tracking.nested_solves"] = sum(
        1 for t in traces for i in t.by_name[SOLVE] if t.has_ancestor(i, "tracking.track_phi")
    )
    out["svgplot_s"] = sum(
        t.total(n) for t in traces for n in list(t.by_name) if n.startswith("svgplot.")
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["interpreter.self_s"] = interpreter
    accounted = sum(self_by_layer.values()) + interpreter
    out["trace.spans"] = sum(len(t.name) for t in traces)
    out["trace.span_cost_us"] = 1e-3 * _percentile([t.cost_ns["span"] for t in traces], 0.5)
    # tracer work plus calibrated per-call costs: the overhead without the
    # run-to-run noise of a traced-minus-untraced difference
    out["trace.overhead_est_s"] = tracer + 1e-9 * sum(
        len(t.name) * t.cost_ns["span"] + sum(t.counts.values()) * t.cost_ns["count"]
        for t in traces
    )
    out["trace.tracer_s"] = tracer
    out["trace.accounted_frac"] = accounted / wall_s
    out["trace.unaccounted_s"] = wall_s - accounted - tracer
    return out
