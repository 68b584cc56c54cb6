"""Batch front end: config-driven subcommands with deterministic outputs.

Exit codes form a stable contract: 0 all requested checks pass, 1 a
verification check failed, 2 invalid configuration, 3 spectral-gap
certificate failure (including empirically violated contraction).
Every emitted file records the config hash and the effective seed; no
timestamps or machine state enter the outputs, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .analysis import (
    DefectReport,
    ap_defect,
    containment_decay,
    containment_defect,
    fit_decay_rate,
    invariance_defect,
    periodicity_defect,
    pullback_attractor,
)
from .config import RunConfig, build_problem, load_config
from .errors import (
    CertificateError,
    ConfigError,
    ContractionViolationError,
    InstabilityError,
    RimlabError,
)
from .forcing import scan_almost_period
from .lyapunov_perron import LIPSCHITZ_SLACK, backward_horizon, scan_gap
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
    except (CertificateError, ContractionViolationError) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except InstabilityError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except RimlabError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
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
    grid = problem.path.grid
    return {
        "h": grid.h,
        "grid_t_min": grid.t_min,
        "grid_t_max": grid.t_max,
        "t_back": problem.t_back,
        "t_back_required": backward_horizon(problem.cert, problem.tol),
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
    coords = (
        np.linspace(c["x_min"], c["x_max"], c["x_count"])
        if c["x_count"] > 1
        else np.array([c["x_min"]])
    )
    grid = np.zeros((coords.size, cfg.spectrum.size))
    grid[:, c["x_mode"] - 1] = coords
    return grid


def _build_configured_chart(cfg: RunConfig, problem: ModelProblem):
    return problem.chart(cfg.chart["tau"], _chart_grid(cfg))


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
    if cfg.chart["svg"]:
        sweep = cfg.chart["x_mode"] - 1
        if chart.x_grid.shape[0] > 1:
            xs = chart.x_grid[:, sweep]
            show = [
                (f"mode {j + 1}", chart.values[:, j])
                for j in range(n, min(n + 3, n_total))
            ]
            svgplot.line_plot(
                out / "chart.svg",
                xs,
                show,
                title="manifold graph",
                xlabel=f"x (mode {sweep + 1})",
                ylabel="m(x)",
            )
        else:
            svgplot.histogram(
                out / "chart.svg",
                chart.residuals,
                bins=8,
                title="chart residuals",
                xlabel="residual",
            )


def _random_states(seed: int, stream: int, count: int, n_modes: int, radius: float):
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return radius * rng.standard_normal((count, n_modes))


def _tracking_reports(cfg: RunConfig, problem: ModelProblem) -> tuple[list, list]:
    ctx = problem.lp_context(cfg.track["tau"])
    u0s = _random_states(
        problem.seed, 101, cfg.track["count"], cfg.spectrum.size, cfg.track["radius"]
    )
    # every orbit's transformed base u0 - z(0), integrated in one batch
    bases = base_orbit(u0s - ctx.z_at_zero(), ctx, problem.t_fwd).values
    results = [
        track_phi(u0, ctx, t_fwd=problem.t_fwd, base=bases[:, i]) for i, u0 in enumerate(u0s)
    ]
    slack = cfg.verify["envelope_slack"]
    ratios, slopes = [], []
    for r in results:
        envelope = r.envelope(0.0)
        if r.prefactor > 0.0:
            ratios.append(float(np.max(r.decay_curve / envelope)))
        else:
            ratios.append(0.0 if float(np.max(r.decay_curve)) <= 2.0 * problem.tol else np.inf)
        slopes.append(r.fitted_slope())
    reports = [
        DefectReport(
            kind="tracking",
            value=float(np.max(ratios)),
            bound=1.0 + slack,
            context={"check": "envelope", "count": len(results), "tau": cfg.track["tau"]},
        ),
        DefectReport(
            kind="tracking",
            value=float(np.max(slopes)),
            bound=-problem.cert.mu + cfg.verify["slope_slack"],
            context={"check": "log_slope", "count": len(results), "tau": cfg.track["tau"]},
        ),
    ]
    return reports, results


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
    chart = _build_configured_chart(cfg, problem)
    _write_chart_files(chart, cfg, out, {**meta, **_problem_meta(problem)})
    print(
        f"chart: {chart.x_grid.shape[0]} points, max residual "
        f"{float(np.max(chart.residuals)):.3g}, Lipschitz {chart.lipschitz:.4g}"
    )
    return 0


def cmd_verify(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    checks = cfg.verify["checks"]
    reports: list[DefectReport] = []

    chart = None
    if "invariance" in checks or "lipschitz" in checks:
        chart = _build_configured_chart(cfg, problem)
    if "lipschitz" in checks:
        reports.append(
            DefectReport(
                kind="lipschitz",
                value=chart.lipschitz,
                bound=1.0 / (1.0 - problem.cert.k) + LIPSCHITZ_SLACK,
                context={"points": int(chart.x_grid.shape[0]), "tau": chart.tau},
            )
        )
    if "invariance" in checks:
        reports.append(
            invariance_defect(
                chart, cfg.verify["invariance_t"], problem, c_inv=cfg.verify["c_inv"]
            )
        )
    if "tracking" in checks:
        track_reports, _ = _tracking_reports(cfg, problem)
        reports.extend(track_reports)
    if "periodicity" in checks:
        period = cfg.forcing.declared_period
        if period is None:
            raise ConfigError("verify.checks: periodicity requires forcing.period")
        for tau in cfg.periodicity["taus"]:
            reports.append(
                periodicity_defect(
                    tau, period, _chart_grid(cfg), problem, slack=cfg.periodicity["slack"]
                )
            )
    if "almost_period" in checks:
        ap = cfg.almost_period
        if ap["tau0"] is None:
            tau0, _ = scan_almost_period(
                cfg.forcing, cfg.spectrum, ap["target"], ap["scan_max"], ap["scan_step"]
            )
        else:
            tau0 = ap["tau0"]
        reports.append(ap_defect(cfg.chart["tau"], tau0, _chart_grid(cfg), problem))
    if "containment" in checks:
        att = cfg.attractor
        ensemble = _random_states(
            problem.seed, 100, att["ensemble_size"], cfg.spectrum.size, att["radius"]
        )
        cont_reports, rate = containment_decay(
            att["tau"], problem, att["pullback_times"], ensemble
        )
        reports.extend(cont_reports)

    all_pass = all(r.passed for r in reports)
    _write_json(
        out / "verification.json",
        {
            **meta,
            **_problem_meta(problem),
            "all_pass": all_pass,
            "reports": [r.as_dict() for r in reports],
        },
    )
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        bound = "-" if r.bound is None else f"{r.bound:.4g}"
        print(f"{tag} {r.kind:<18} value={r.value:.4g} bound={bound}")
    return 0 if all_pass else 1


def cmd_track(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    reports, results = _tracking_reports(cfg, problem)
    entries = []
    for idx, r in enumerate(results):
        curve_path = out / f"decay_curve_{idx:02d}.csv"
        with open(curve_path, "w", encoding="utf-8") as fh:
            fh.write("t,norm,envelope\n")
            for t, c, e in zip(r.times, r.decay_curve, r.envelope(0.0)):
                fh.write(f"{float(t)!r},{float(c)!r},{float(e)!r}\n")
        entries.append(
            {
                "u0": r.u0,
                "u0_star": r.u0_star,
                "v0": r.v0,
                "v0_star": r.v0_star,
                "defect": r.defect,
                "prefactor": r.prefactor,
                "rate": r.rate,
                "fitted_slope": r.fitted_slope(),
                "iterations": r.iterations,
                "graph_residual": r.graph_residual,
                "decay_csv": curve_path.name,
            }
        )
    all_pass = all(r.passed for r in reports)
    _write_json(
        out / "tracking.json",
        {
            **meta,
            **_problem_meta(problem),
            "all_pass": all_pass,
            "reports": [r.as_dict() for r in reports],
            "orbits": entries,
        },
    )
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} tracking[{r.context['check']}] "
              f"value={r.value:.4g} bound={r.bound:.4g}")
    return 0 if all_pass else 1


def cmd_periodicity(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    period = cfg.forcing.declared_period
    if period is None:
        raise ConfigError("periodicity: forcing.period must be declared")
    reports = [
        periodicity_defect(tau, period, _chart_grid(cfg), problem,
                           slack=cfg.periodicity["slack"])
        for tau in cfg.periodicity["taus"]
    ]
    all_pass = all(r.passed for r in reports)
    _write_json(
        out / "periodicity.json",
        {
            **meta,
            **_problem_meta(problem),
            "all_pass": all_pass,
            "reports": [r.as_dict() for r in reports],
        },
    )
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} periodicity tau={r.context['tau']} "
              f"value={r.value:.4g} bound={r.bound:.4g}")
    return 0 if all_pass else 1


def cmd_attractor(args) -> int:
    cfg, seed, out, meta = _setup(args)
    problem = build_problem(cfg, seed)
    att = cfg.attractor
    ensemble = _random_states(
        problem.seed, 100, att["ensemble_size"], cfg.spectrum.size, att["radius"]
    )
    reports = []
    for idx, t_m in enumerate(att["pullback_times"]):
        cloud = pullback_attractor(att["tau"], problem, t_m, ensemble)
        with open(out / f"cloud_{idx:02d}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(f"mode_{j + 1}" for j in range(cfg.spectrum.size)) + "\n")
            for p in cloud.points:
                fh.write(",".join(repr(float(v)) for v in p) + "\n")
        reports.append(containment_defect(cloud, problem))
    rate = fit_decay_rate(att["pullback_times"], reports)  # NaN, written as null, for one time
    all_pass = all(r.passed for r in reports)
    _write_json(
        out / "attractor.json",
        {
            **meta,
            **_problem_meta(problem),
            "all_pass": all_pass,
            "fitted_decay_rate": rate,
            "reports": [r.as_dict() for r in reports],
        },
    )
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} containment "
              f"t={r.context['pullback_time']} value={r.value:.4g} bound={r.bound:.4g}")
    return 0 if all_pass else 1


def cmd_report(args) -> int:
    out = Path(args.out)
    doc_path = out / "verification.json"
    if not doc_path.exists():
        raise ConfigError(f"report: no verification.json under {out}")
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    lines = [
        f"verification report (config {doc.get('config_sha256', '?')[:12]}, "
        f"seed {doc.get('seed')})",
        "",
    ]
    values, bounds, labels = [], [], []
    for r in doc.get("reports", []):
        tag = "PASS" if r["passed"] else "FAIL"
        bound = "-" if r["bound"] is None else f"{r['bound']:.4g}"
        lines.append(f"  {tag} {r['kind']:<18} value={r['value']:.4g} bound={bound}")
        labels.append(r["kind"])
        values.append(r["value"])
        bounds.append(r["bound"] if r["bound"] is not None else r["value"])
    lines.append("")
    lines.append("all_pass: " + ("yes" if doc.get("all_pass") else "no"))
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    if values:
        idx = np.arange(len(values), dtype=float)
        svgplot.line_plot(
            out / "report.svg",
            idx,
            [("value", np.asarray(values)), ("bound", np.asarray(bounds))],
            title="defects vs bounds",
            xlabel="check index",
            ylabel="magnitude",
            logy=True,
        )
    print(text, end="")
    return 0 if doc.get("all_pass") else 1


if __name__ == "__main__":
    sys.exit(main())
