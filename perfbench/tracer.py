"""Run one rimlab CLI command with spans around rimlab's public functions.

Usage: python3 perfbench/tracer.py PREFIX ARG...   (ARGs as for rimlab)

The package is imported under an ``import.rimlab`` span.  Then every public
function (name without a leading underscore) defined in a rimlab module is
wrapped in every rimlab namespace that binds it, because ``from .x import
y`` copies the binding; the methods in METHODS are wrapped on their class,
and the methods in COUNTED only count calls.  Spans stay in memory, each
with its parent's index, and are written to PREFIX.json and PREFIX.bin
when the command ends.  The exit code is the command's own.
"""

from __future__ import annotations

from time import perf_counter_ns

STARTED_NS = perf_counter_ns()  # first clock reading in this process

import functools  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402

METHODS = (
    ("lyapunov_perron", "LPContext", "__init__"),
    ("dynamics", "Nonlinearity", "apply"),
    ("problem", "ModelProblem", "lp_context"),
    ("problem", "ModelProblem", "ou_for"),
)
COUNTED = (("spectral", "Spectrum", "check_state"),)


def _integrate_shape(fn):
    """Annotator for dynamics.integrate: [time steps, batch size]."""
    sig = inspect.signature(fn)

    def annotate(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        steps = round((bound["t_end"] - bound["r"]) / bound["ou"].grid.h)
        shape = getattr(bound["v_r"], "shape", ())
        return [steps, shape[0] if len(shape) == 2 else 1]

    return annotate


ANNOTATORS = {
    "dynamics.integrate": _integrate_shape,
    "tracking.track_phi": lambda fn: lambda args, kwargs, result: [result.iterations],
}


class Tracer:
    """In-memory span store: spans[i] = [name id, parent index, t0 ns, t1 ns]."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.extra: dict = {}  # span index -> annotator output
        self.counts: dict = {}

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack, extra = self.spans, self.stack, self.extra
        annotate = ANNOTATORS[name](fn) if name in ANNOTATORS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [nid, stack[-1] if stack else -1, perf_counter_ns(), 0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if annotate is not None:
                extra[idx] = annotate(args, kwargs, result)
            return result

        return traced

    def count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @staticmethod
    def costs_ns(calls: int = 20000) -> tuple[float, float]:
        """Measured extra cost of one traced and of one counted call: a
        wrapped no-op minus a bare one."""
        probe = Tracer()

        def noop():
            return None

        times = []
        for fn in (noop, probe.wrap(noop, "probe"), probe.count(noop, "probe")):
            t0 = perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(perf_counter_ns() - t0)
        return (times[1] - times[0]) / calls, (times[2] - times[0]) / calls

    def dump(self, prefix: str) -> None:
        """Write PREFIX.bin (the spans as native int64 quadruples), then
        PREFIX.json (names, annotations, counts, and this process's clock
        readings, which are CLOCK_MONOTONIC like the caller's)."""
        span_ns, count_ns = self.costs_ns()
        dump_ns = perf_counter_ns()
        with open(prefix + ".bin", "wb") as fh:
            array("q", itertools.chain.from_iterable(self.spans)).tofile(fh)
        doc = {
            "names": self.names,
            "extra": {str(k): v for k, v in self.extra.items()},
            "counts": self.counts,
            "clock": {"started": STARTED_NS, "dump": dump_ns, "dumped": perf_counter_ns()},
            "cost_ns": {"span": span_ns, "count": count_ns},
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))


def instrument(tracer: Tracer) -> None:
    """Wrap rimlab's public functions and the listed methods in place."""
    wrapped = {}
    modules = [m for n, m in sys.modules.items() if n == "rimlab" or n.startswith("rimlab.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if not obj.__module__.startswith("rimlab."):
                continue
            if obj not in wrapped:
                layer = obj.__module__.split(".", 1)[1]
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{obj.__name__}")
            setattr(mod, attr, wrapped[obj])
    for module, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"rimlab.{module}"], cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), f"{module}.{cls_name}.{meth}"))
    for module, cls_name, meth in COUNTED:
        cls = getattr(sys.modules[f"rimlab.{module}"], cls_name)
        setattr(cls, meth, tracer.count(getattr(cls, meth), f"{module}.{cls_name}.{meth}"))


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = perf_counter_ns()
    import rimlab.cli  # noqa: F401  (the span covers the package import)

    tracer.spans.append([tracer._name_id("import.rimlab"), -1, t0, perf_counter_ns()])
    instrument(tracer)
    try:
        return sys.modules["rimlab.cli"].main(argv)
    finally:
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main())
