"""Batch front end: config-driven subcommands with deterministic outputs.

Exit codes form a stable contract: 0 all requested checks pass, 1 a
verification check failed, 2 invalid configuration or run, or an output
that cannot be written, 3 spectral-gap certificate failure (including
empirically violated contraction).
Every emitted file records the config hash and the effective seed; no
timestamps or machine state enter the outputs, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .analysis import (
    ap_defect,
    containment_defect,
    invariance_defect,
    lipschitz_defect,
    periodicity_defect,
    pullback_attractor,
    tracking_defects,
)
from .config import RunConfig, build_problem, load_config
from .errors import CertificateError, ConfigError, InstabilityError, RimlabError
from .forcing import scan_almost_period
from .lyapunov_perron import scan_gap
from .problem import ModelProblem
from .tracking import base_orbit, track_phi

__all__ = ["main"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except InstabilityError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except RimlabError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc.filename or '--out'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rimlab",
        description="Construct and verify random inertial manifolds "
        "for stochastic semilinear equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gap-scan", cmd_gap_scan, "tabulate the spectral gap condition over all indices"),
        ("build-manifold", cmd_build_manifold, "solve the graph map over the chart grid"),
        ("verify", cmd_verify, "run the configured verification checks"),
        ("track", cmd_track, "compute shadowing points and decay envelopes"),
        ("periodicity", cmd_periodicity, "measure graph defects over forcing periods"),
        ("attractor", cmd_attractor, "pullback ensembles and containment defects"),
        ("report", cmd_report, "render a verification document to text and SVG"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "report"), help="path to the run config")
        p.add_argument("--seed", type=int, default=None, help="override the noise seed")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
    return parser


# ---- shared helpers ------------------------------------------------------


def _setup(args):
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else int(args.seed)
    if seed < 0:
        raise ConfigError(f"--seed: must be >= 0 (got {seed})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": cfg.config_hash(seed), "seed": seed}
    return cfg, seed, out, meta


def _problem_meta(problem: ModelProblem) -> dict:
    grid = problem.noise.grid
    return {
        "h": grid.h,
        "grid_t_min": grid.t_min,
        "grid_t_max": grid.t_max,
        "t_back": problem.t_back,
        "t_fwd": problem.t_fwd,
        "tol": problem.tol,
        "n_total": problem.spectrum.size,
        "alpha": problem.spectrum.alpha,
    }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _chart_grid(cfg: RunConfig) -> np.ndarray:
    c = cfg.chart
    coords = np.linspace(c["x_min"], c["x_max"], c["x_count"])
    grid = np.zeros((coords.size, cfg.spectrum.size))
    grid[:, c["x_mode"] - 1] = coords
    return grid


def _write_chart_files(chart, cfg: RunConfig, out: Path, meta: dict) -> None:
    n = chart.cert.n
    n_total = cfg.spectrum.size
    columns = (
        [f"x_{j + 1}" for j in range(n)]
        + [f"m_{j + 1}" for j in range(n, n_total)]
        + ["residual"]
    )
    with open(out / "chart.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for x, m, res in zip(chart.x_grid, chart.values, chart.residuals):
            row = (
                [repr(float(v)) for v in x[:n]]
                + [repr(float(v)) for v in m[n:]]
                + [repr(float(res))]
            )
            fh.write(",".join(row) + "\n")
    _write_json(
        out / "chart_meta.json",
        {
            **meta,
            "tau": chart.tau,
            "t_back": chart.t_back,
            "tol": chart.tol,
            "lipschitz": chart.lipschitz,
            "max_residual": float(np.max(chart.residuals)),
            "certificate": dataclasses.asdict(chart.cert),
        },
    )
    sweep = cfg.chart["x_mode"] - 1
    svgplot.line_plot(
        out / "chart.svg",
        chart.x_grid[:, sweep],
        [(f"mode {j + 1}", chart.values[:, j]) for j in range(n, min(n + 3, n_total))],
        title="manifold graph",
        xlabel=f"x (mode {sweep + 1})",
        ylabel="m(x)",
    )


def _random_states(seed: int, stream: int, count: int, n_modes: int, radius: float):
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return radius * rng.standard_normal((count, n_modes))


def _report_line(passed: bool, label: str, value: float, bound: float | None) -> str:
    bound = "-" if bound is None else f"{bound:.4g}"
    return f"{'PASS' if passed else 'FAIL'} {label} value={value:.4g} bound={bound}"


def _write_reports(
    path: Path, meta: dict, problem: ModelProblem, reports, label: str, **extra
) -> int:
    """Write a report document with the command's ``extra`` keys, print one line
    per report (``label`` formatted with its kind and context), return the exit code."""
    all_pass = all(r.passed for r in reports)
    _write_json(
        path,
        {
            **meta,
            **_problem_meta(problem),
            "all_pass": all_pass,
            "reports": [r.as_dict() for r in reports],
            **extra,
        },
    )
    for r in reports:
        print(_report_line(r.passed, label.format(kind=r.kind, **r.context), r.value, r.bound))
    return 0 if all_pass else 1


# ---- checks: config fields to check arguments ----------------------------
# Each takes (cfg, problem, chart), where chart() builds the configured chart
# once per command, and returns one check's reports and its by-products.


def _lipschitz(cfg: RunConfig, problem: ModelProblem, chart):
    return [lipschitz_defect(chart())], None


def _invariance(cfg: RunConfig, problem: ModelProblem, chart):
    return [invariance_defect(chart(), cfg.verify["invariance_t"], problem)], None


def _tracking(cfg: RunConfig, problem: ModelProblem, chart=None):
    tau = cfg.track["tau"]
    ctx = problem.lp_context(tau)
    u0s = _random_states(
        problem.seed, 101, cfg.track["count"], cfg.spectrum.size, cfg.track["radius"]
    )
    # every orbit's transformed base u0 - z(0), integrated in one batch
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, problem.t_fwd)
    results = [track_phi(u0, ctx, bases[:, i]) for i, u0 in enumerate(u0s)]
    return tracking_defects(results, problem, tau), results


def _periodicity(cfg: RunConfig, problem: ModelProblem, chart=None):
    period = cfg.forcing.declared_period
    if period is None:
        raise ConfigError("forcing.period: the periodicity check needs a declared period")
    grid = _chart_grid(cfg)
    return [periodicity_defect(tau, period, grid, problem) for tau in cfg.periodicity["taus"]], None


def _almost_period(cfg: RunConfig, problem: ModelProblem, chart=None):
    tau0 = cfg.almost_period["tau0"]  # cmd_verify scans for it when the config leaves it open
    return [ap_defect(cfg.chart["tau"], tau0, _chart_grid(cfg), problem)], None


def _containment(cfg: RunConfig, problem: ModelProblem, chart=None):
    att = cfg.attractor
    ensemble = _random_states(
        problem.seed, 100, att["ensemble_size"], cfg.spectrum.size, att["radius"]
    )
    clouds = [
        pullback_attractor(att["tau"], problem, t_m, ensemble) for t_m in att["pullback_times"]
    ]
    return [containment_defect(cloud, problem) for cloud in clouds], clouds


# verify runs the configured checks in this order, whatever order the config lists
_CHECKS = (
    ("lipschitz", _lipschitz),
    ("invariance", _invariance),
    ("tracking", _tracking),
    ("periodicity", _periodicity),
    ("almost_period", _almost_period),
    ("containment", _containment),
)


# ---- subcommands ---------------------------------------------------------


def cmd_gap_scan(args) -> int:
    cfg, seed, out, meta = _setup(args)
    rows = scan_gap(cfg.spectrum, cfg.nonlinearity.lipschitz, cfg.gap_k)
    _write_json(out / "gap_scan.json", {**meta, "k": cfg.gap_k, "rows": rows})
    lines = [
        f"{'n':>4} {'gap':>12} {'required':>12} {'margin':>12} {'pass':>5}"
        + f" {'mu':>12} {'delta':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>4} {row['gap']:>12.6g} {row['required']:>12.6g} "
            f"{row['margin']:>12.6g} {'yes' if row['passed'] else 'no':>5} "
            f"{row.get('mu', float('nan')):>12.6g} {row.get('delta', float('nan')):>8.4g}"
        )
    text = "\n".join(lines) + "\n"
    (out / "gap_scan.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_build_manifold(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    chart = problem.chart(cfg.chart["tau"], _chart_grid(cfg))
    _write_chart_files(chart, cfg, out, {**meta, **_problem_meta(problem)})
    print(
        f"chart: {chart.x_grid.shape[0]} points, max residual "
        f"{float(np.max(chart.residuals)):.3g}, Lipschitz {chart.lipschitz:.4g}"
    )
    return 0


def _chart_legs(cfg: RunConfig) -> tuple:
    """(shifts, flow time) that verify's enabled checks solve from the chart's
    points: the declared period when the chart's tau is a periodicity tau,
    the near-period, and the invariance flow time."""
    checks, tau = cfg.verify["checks"], cfg.chart["tau"]
    shifts = []
    period = cfg.forcing.declared_period
    if "periodicity" in checks and period is not None and tau in cfg.periodicity["taus"]:
        shifts.append(period)
    if "almost_period" in checks:
        shifts.append(cfg.almost_period["tau0"])
    return shifts, cfg.verify["invariance_t"] if "invariance" in checks else None


def _refuse_tracking_k(cfg: RunConfig) -> None:
    """Before any solve, refuse the k >= 1/2 where tracking's delta >= 1."""
    if cfg.gap_k >= 0.5:
        raise ConfigError(f"certificate.k: tracking requires k < 1/2 (got {cfg.gap_k:g})")


def cmd_verify(args) -> int:
    cfg, seed, out, meta = _setup(args)
    if "tracking" in cfg.verify["checks"]:
        _refuse_tracking_k(cfg)
    problem = build_problem(cfg, seed)
    ap = cfg.almost_period
    if "almost_period" in cfg.verify["checks"] and ap["tau0"] is None:
        # the chart solves the translates by the near-period: find it first
        try:
            tau0, _ = scan_almost_period(
                cfg.forcing, cfg.spectrum, ap["target"], ap["scan_max"], ap["scan_step"]
            )
        except RimlabError as exc:
            raise ConfigError(f"almost_period.target: {exc}") from exc
        cfg = dataclasses.replace(cfg, almost_period={**ap, "tau0": tau0})
    chart = functools.cache(
        lambda: problem.chart(cfg.chart["tau"], _chart_grid(cfg), *_chart_legs(cfg))
    )
    reports = []
    for name, check in _CHECKS:
        if name in cfg.verify["checks"]:
            reports += check(cfg, problem, chart)[0]
    return _write_reports(out / "verification.json", meta, problem, reports, "{kind:<18}")


# TrackingResult fields copied into each orbit entry of tracking.json
_ORBIT_FIELDS = (
    "u0", "u0_star", "v0", "v0_star", "defect", "prefactor", "rate", "iterations", "graph_residual"
)


def cmd_track(args) -> int:
    cfg, seed, out, meta = _setup(args)
    _refuse_tracking_k(cfg)
    problem = build_problem(cfg, seed)
    reports, results = _tracking(cfg, problem)
    # every orbit is tracked on the same forward nodes: format the times once
    times = [repr(t) for t in results[0].times.tolist()]
    entries = []
    for idx, r in enumerate(results):
        curve_path = out / f"decay_curve_{idx:02d}.csv"
        rows = zip(times, r.decay_curve.tolist(), r.envelope().tolist())
        with open(curve_path, "w", encoding="utf-8") as fh:
            fh.write("t,norm,envelope\n")
            fh.writelines(f"{t},{c!r},{e!r}\n" for t, c, e in rows)
        entry = {key: getattr(r, key) for key in _ORBIT_FIELDS}
        entries.append({**entry, "fitted_slope": r.fitted_slope(), "decay_csv": curve_path.name})
    return _write_reports(
        out / "tracking.json", meta, problem, reports, "tracking[{check}]", orbits=entries
    )


def cmd_periodicity(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    reports, _ = _periodicity(cfg, problem)
    return _write_reports(
        out / "periodicity.json", meta, problem, reports, "periodicity tau={tau}"
    )


def cmd_attractor(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    reports, clouds = _containment(cfg, problem)
    for idx, cloud in enumerate(clouds):
        with open(out / f"cloud_{idx:02d}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(f"mode_{j + 1}" for j in range(cfg.spectrum.size)) + "\n")
            for p in cloud.points:
                fh.write(",".join(repr(float(v)) for v in p) + "\n")
    return _write_reports(
        out / "attractor.json", meta, problem, reports, "containment t={pullback_time}"
    )


def _read_reports(doc_path: Path) -> tuple[dict, list]:
    """A verification document and its reports as (passed, kind, value, bound).

    A null value reads as its ``value_nonfinite`` text, a null bound or a
    null value without that text as NaN; a malformed document is a
    ConfigError.
    """
    try:
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        rows = [
            (
                r["passed"],
                str(r["kind"]),
                float(r.get("value_nonfinite", "nan")) if r["value"] is None else float(r["value"]),
                float("nan") if r["bound"] is None else float(r["bound"]),
            )
            for r in doc.get("reports", [])
        ]
        if not all(isinstance(row[0], bool) for row in rows):
            raise TypeError("a passed flag is not a boolean")
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(
            f"report: {doc_path} is not a verification document "
            "(each report needs kind, value, bound and a true/false passed)"
        ) from exc
    return doc, rows


def cmd_report(args) -> int:
    out = Path(args.out)
    doc_path = out / "verification.json"
    if not doc_path.exists():
        raise ConfigError(f"report: no verification.json under {out}")
    doc, rows = _read_reports(doc_path)
    all_pass = all(row[0] for row in rows)
    if doc.get("all_pass") is not all_pass:
        raise ConfigError(
            f"report: {doc_path} has all_pass = {json.dumps(doc.get('all_pass'))}, "
            f"but its reports' passed flags give {json.dumps(all_pass)}"
        )
    lines = [
        f"verification report (config {str(doc.get('config_sha256', '?'))[:12]}, "
        f"seed {doc.get('seed')})",
        "",
    ]
    for passed, kind, value, bound in rows:
        lines.append("  " + _report_line(passed, f"{kind:<18}", value, bound))
    lines.append("")
    lines.append("all_pass: " + ("yes" if all_pass else "no"))
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    if rows:
        values, bounds = np.array([row[2:] for row in rows]).T
        svgplot.line_plot(
            out / "report.svg",
            np.arange(len(rows), dtype=float),
            [("value", values), ("bound", bounds)],
            title="defects vs bounds",
            xlabel="check index",
            ylabel="magnitude",
            logy=True,
        )
    print(text, end="")
    return 0 if all_pass else 1

