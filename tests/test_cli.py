import configparser
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rimlab import cli
from rimlab import config as config_module
from rimlab.cli import main
from rimlab.config import build_problem, load_config
from rimlab.errors import CertificateError, ConfigError, InstabilityError, RimlabError
from rimlab.lyapunov_perron import LPContext
from rimlab.tracking import base_orbit

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_CONFIG = """
[spectrum]
kind = dirichlet
n_total = 8
alpha = 0.0

[nonlinearity]
kind = per_mode_sin
lipschitz = 0.1

[forcing]
form = trig_sum
terms =
    2 1.0 1.0 0.0
period = 6.283185307179586

[noise]
kind = power_law
scale = 0.05
exponent = 2.0
seed = 7

[certificate]
n = 1
k = 0.2

[numerics]
h = 0.005
tol = 1e-5

[chart]
x_count = 5

[track]
count = 2
radius = 0.5

[attractor]
pullback_times = 2.0 4.0
ensemble_size = 4
radius = 0.5

[periodicity]
taus = 0.0

[verify]
checks = invariance lipschitz tracking periodicity
invariance_t = 0.5
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def test_gap_scan_first_passing_index(tmp_path, capsys):
    cfg = tmp_path / "gap.ini"
    cfg.write_text(
        SMALL_CONFIG.replace("lipschitz = 0.1", "lipschitz = 1.0").replace(
            "k = 0.2", "k = 0.45"
        ),
        encoding="utf-8",
    )
    code = main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "gap_scan.json").read_text())
    passing = [row["n"] for row in doc["rows"] if row["passed"]]
    assert passing[0] == 4
    text = (tmp_path / "gap_scan.txt").read_text()
    assert "yes" in text and "no" in text


def test_gap_scan_zero_lipschitz_all_pass(tmp_path):
    cfg = tmp_path / "gap0.ini"
    cfg.write_text(SMALL_CONFIG.replace("kind = per_mode_sin", "kind = zero"), "utf-8")
    code = main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "gap_scan.json").read_text())
    assert all(row["passed"] for row in doc["rows"])


def test_invalid_k_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_CONFIG.replace("k = 0.2", "k = 1.5"), encoding="utf-8")
    assert main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_failed_gap_exits_3(tmp_path):
    cfg = tmp_path / "tight.ini"
    cfg.write_text(SMALL_CONFIG.replace("lipschitz = 0.1", "lipschitz = 5.0"), "utf-8")
    assert main(["build-manifold", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_build_manifold_outputs(small_config, tmp_path):
    code = main(["build-manifold", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    csv_lines = (tmp_path / "chart.csv").read_text().splitlines()
    assert csv_lines[0].startswith("x_1,m_2")
    assert len(csv_lines) == 6
    meta = json.loads((tmp_path / "chart_meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["certificate"]["mu"] == pytest.approx(2.0)
    assert (tmp_path / "chart.svg").exists()


def test_one_point_chart_is_a_graph_plot(tmp_path):
    # chart.svg plots the graph values for every grid, a one-point grid too:
    # a one-point polyline draws nothing, so each series shows as its marker.
    cfg = tmp_path / "one.ini"
    cfg.write_text(SMALL_CONFIG.replace("x_count = 5", "x_count = 1"), encoding="utf-8")
    assert main(["build-manifold", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "chart.svg").read_text()
    assert "manifold graph" in svg and svg.count("<polyline") == 3
    assert svg.count("<circle") == 3


def test_build_flat_zero_chart(tmp_path):
    cfg = tmp_path / "flat.ini"
    flat = SMALL_CONFIG.replace("kind = per_mode_sin", "kind = zero")
    flat = flat.replace("form = trig_sum", "form = zero").replace(
        "terms =\n    2 1.0 1.0 0.0\nperiod = 6.283185307179586", ""
    )
    flat = flat.replace("kind = power_law", "kind = zero")
    cfg.write_text(flat, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["build-manifold", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "chart.csv").read_text().splitlines()[1:]
    values = np.array([[float(v) for v in line.split(",")] for line in rows])
    assert np.max(np.abs(values[:, 1:])) == 0.0  # graph columns all zero


def test_byte_identical_reruns(small_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["build-manifold", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(["build-manifold", "--config", str(small_config), "--out", str(out2)]) == 0
    for name in ("chart.csv", "chart_meta.json", "chart.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_outputs(small_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["build-manifold", "--config", str(small_config), "--out", str(out1)])
    main(
        ["build-manifold", "--config", str(small_config), "--seed", "8", "--out", str(out2)]
    )
    assert (out1 / "chart.csv").read_bytes() != (out2 / "chart.csv").read_bytes()
    meta = json.loads((out2 / "chart_meta.json").read_text())
    assert meta["seed"] == 8


def test_verify_passes_and_reports(small_config, tmp_path):
    code = main(["verify", "--config", str(small_config), "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert code == 0
    assert doc["all_pass"] is True
    kinds = {r["kind"] for r in doc["reports"]}
    assert {"invariance", "lipschitz", "tracking", "periodicity"} <= kinds
    assert all(r["passed"] for r in doc["reports"])


def test_verify_failure_exits_1(small_config, tmp_path, monkeypatch):
    # bound 0 * (h + tol) = 0, below the measured invariance defect
    monkeypatch.setattr("rimlab.analysis.INVARIANCE_CONSTANT", 0.0)
    code = main(["verify", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert doc["all_pass"] is False


def _trivial_config() -> str:
    """SMALL_CONFIG with zero nonlinearity, forcing and noise: the graph is 0."""
    trivial = SMALL_CONFIG.replace("kind = per_mode_sin", "kind = zero")
    trivial = trivial.replace("form = trig_sum", "form = zero").replace(
        "terms =\n    2 1.0 1.0 0.0\nperiod = 6.283185307179586", ""
    )
    trivial = trivial.replace("kind = power_law", "kind = zero")
    return trivial.replace(
        "checks = invariance lipschitz tracking periodicity",
        "checks = invariance lipschitz tracking containment",
    )


def test_verify_trivial_config_all_pass(tmp_path):
    cfg = tmp_path / "trivial.ini"
    cfg.write_text(_trivial_config(), encoding="utf-8")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0


def test_orbits_started_on_the_manifold_pass_tracking(tmp_path, capsys):
    # At radius 0 every tracked orbit starts at 0, on the zero graph: its
    # decay curve is identically 0 and leaves no log slope to fit, which
    # scores -inf rather than a failing NaN.  The document writes it as null
    # and keeps its sign in value_nonfinite, so report prints it as verify did.
    cfg = tmp_path / "on_graph.ini"
    cfg.write_text(_trivial_config().replace("radius = 0.5", "radius = 0.0"), "utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if "tracking" in line] == [
        ["PASS", "tracking", "value=0"],
        ["PASS", "tracking", "value=-inf"],
    ]
    doc = json.loads((tmp_path / "verification.json").read_text())
    (slope,) = [r for r in doc["reports"] if r["context"].get("check") == "log_slope"]
    assert slope["value"] is None and slope["passed"] is True
    assert slope["value_nonfinite"] == "-inf"
    assert all("value_nonfinite" not in r for r in doc["reports"] if r is not slope)
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path)]) == 0
    printed = [line.split()[:3] for line in capsys.readouterr().out.splitlines()]
    assert printed.count(["PASS", "tracking", "value=-inf"]) == 1
    assert "value=nan" not in (tmp_path / "report.txt").read_text()


def test_config_cannot_move_a_verdict(small_config, tmp_path):
    # Retired keys that once set a check bound, picked a code path or set a
    # window are unread: the same reports and the same files, whatever
    # their values.
    edits = (
        ("invariance_t = 0.5", "c_inv = 0\nenvelope_slack = 1e9\nslope_slack = 1e9"),
        ("taus = 0.0", "slack = 1e9"),
        ("seed = 7", "exact_variance = true"),
        ("x_count = 5", "svg = false"),
    )
    text = SMALL_CONFIG
    for anchor, added in edits:
        assert text.count(anchor) == 1
        text = text.replace(anchor, f"{anchor}\n{added}")
    configs = [small_config]
    for idx, windows in enumerate(("t_back = 1e12\nt_fwd = 0.001", "t_back = abc\nt_fwd = 1e12")):
        configs.append(tmp_path / f"retired_{idx}.ini")
        configs[-1].write_text(text.replace("tol = 1e-5", f"tol = 1e-5\n{windows}"), "utf-8")
    runs = []
    for cfg in configs:
        out = tmp_path / cfg.stem
        codes = [
            main([command, "--config", str(cfg), "--out", str(out)])
            for command in ("build-manifold", "verify")
        ]
        doc = json.loads((out / "verification.json").read_text())
        runs.append((codes, doc["reports"], sorted(f.name for f in out.iterdir())))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == [0, 0] and "chart.svg" in runs[0][2]


def test_lipschitz_check_can_fail(tmp_path, monkeypatch, capsys):
    # bound 1/(1-k) + slack = 1.25 - 2 = -0.75, below the chart's constant 0
    monkeypatch.setattr("rimlab.analysis.LIPSCHITZ_SLACK", -2.0)
    cfg = tmp_path / "lipschitz.ini"
    cfg.write_text(
        SMALL_CONFIG.replace(
            "checks = invariance lipschitz tracking periodicity", "checks = lipschitz"
        ),
        encoding="utf-8",
    )
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL lipschitz") for line in lines)
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert doc["all_pass"] is False


def test_verify_runs_checks_in_fixed_order(tmp_path, capsys):
    checks = "invariance lipschitz tracking periodicity"
    runs = []
    for name, order in (("given", checks), ("reversed", " ".join(reversed(checks.split())))):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(SMALL_CONFIG.replace(f"checks = {checks}", f"checks = {order}"), "utf-8")
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, json.loads((out / "verification.json").read_text())))
    (stdout_a, doc_a), (stdout_b, doc_b) = runs
    assert stdout_a == stdout_b
    assert doc_a["reports"] == doc_b["reports"]
    assert doc_a["config_sha256"] != doc_b["config_sha256"]


def test_track_outputs(small_config, tmp_path):
    code = main(["track", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "tracking.json").read_text())
    assert len(doc["orbits"]) == 2
    entry = doc["orbits"][0]
    for key in ("v0", "v0_star", "prefactor", "rate", "fitted_slope", "graph_residual"):
        assert key in entry
    curve = (tmp_path / "decay_curve_00.csv").read_text().splitlines()
    assert curve[0] == "t,norm,envelope"


def test_half_k_is_refused_only_where_tracking_runs(tmp_path, capsys, monkeypatch):
    # At k >= 1/2 the backward operator still contracts, so a chart is
    # built; track, and verify with tracking among its checks, refuse it
    # before any problem is built.
    cfg = tmp_path / "half.ini"
    cfg.write_text(SMALL_CONFIG.replace("k = 0.2", "k = 0.6"), encoding="utf-8")
    built = []
    monkeypatch.setattr(cli, "build_problem", lambda *a: built.append(a) or build_problem(*a))
    assert main(["build-manifold", "--config", str(cfg), "--out", str(tmp_path / "chart")]) == 0
    for command in ("track", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
    assert len(built) == 1
    refusal = "config error: certificate.k: tracking requires k < 1/2 (got 0.6)\n"
    assert capsys.readouterr().err == 2 * refusal


def test_decay_curves_match_the_per_row_writer(small_config, tmp_path):
    # track formats the shared time column once and the other columns from
    # lists; the bytes are those of a row-by-row writer of numpy scalars.
    assert main(["track", "--config", str(small_config), "--out", str(tmp_path)]) == 0
    cfg = load_config(small_config)
    _, results = cli._tracking(cfg, build_problem(cfg, cfg.seed))
    assert len(results) == 2
    for idx, r in enumerate(results):
        rows = ["t,norm,envelope\n"] + [
            f"{float(t)!r},{float(c)!r},{float(e)!r}\n"
            for t, c, e in zip(r.times, r.decay_curve, r.envelope())
        ]
        got = (tmp_path / f"decay_curve_{idx:02d}.csv").read_bytes()
        assert got == "".join(rows).encode("utf-8")


def test_threads_option_retired(tmp_path, capsys):
    # numerics.threads is an unread key like any other; --threads is unknown.
    cfg = tmp_path / "threads.ini"
    cfg.write_text(SMALL_CONFIG.replace("tol = 1e-5", "tol = 1e-5\nthreads = 4"), "utf-8")
    assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["track", "--config", str(cfg), "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_periodicity_command(small_config, tmp_path):
    code = main(["periodicity", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "periodicity.json").read_text())
    assert doc["all_pass"] is True


@pytest.mark.parametrize(
    "forcing",
    ["form = zero", "form = constant\namplitudes = 0.0 0.5 0.0 0.0 0.0 0.0 0.0 0.0"],
    ids=["zero", "constant"],
)
def test_autonomous_forcing_keeps_its_declared_period(tmp_path, capsys, forcing):
    # A signal without trig terms is periodic with every period, so the
    # period a zero or constant forcing declares runs the periodicity check.
    text = SMALL_CONFIG.replace("form = trig_sum\nterms =\n    2 1.0 1.0 0.0", forcing)
    text = text.replace(
        "checks = invariance lipschitz tracking periodicity", "checks = periodicity"
    )
    cfg = tmp_path / "autonomous.ini"
    cfg.write_text(text, encoding="utf-8")
    for command, name in (("periodicity", "periodicity.json"), ("verify", "verification.json")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / name).read_text())["all_pass"] is True
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed if "periodicity" in line] == [
        ["PASS", "periodicity"]
    ] * 2


def test_attractor_command(small_config, tmp_path):
    code = main(["attractor", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "attractor.json").read_text())
    assert len(doc["reports"]) == 2
    assert (tmp_path / "cloud_00.csv").exists()
    assert (tmp_path / "cloud_01.csv").exists()


ALL_SIX_CONFIG = SMALL_CONFIG.replace(
    "checks = invariance lipschitz tracking periodicity",
    "checks = invariance lipschitz tracking periodicity almost_period containment",
)


def test_verify_reuses_the_chart_solves(tmp_path, monkeypatch):
    # In the chart's sweep, the periodicity and almost-period legs at the
    # chart's tau solve each translate from its point's final start, and
    # invariance starts each shifted solve from that start continued by the
    # flowed orbit.  All six checks then take at most 83 backward-operator
    # applications on this config (117 when those solves started from the
    # linear flow or the secant).
    from rimlab import lyapunov_perron

    apply, calls = lyapunov_perron.lp_apply, []
    monkeypatch.setattr(lyapunov_perron, "lp_apply", lambda *a: calls.append(1) or apply(*a))
    cfg = tmp_path / "verify.ini"
    cfg.write_text(ALL_SIX_CONFIG, encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert len(doc["reports"]) == 8
    assert len(calls) <= 83


def _solve_phase_peak(config: Path, out: Path, monkeypatch) -> int:
    """tracemalloc peak of ``verify`` after set-up (the problem built and its
    OU table solved), above the memory traced at that point."""
    import tracemalloc

    build, base = cli.build_problem, []

    def traced_build(cfg, seed=None):
        problem = build(cfg, seed)
        base.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return problem

    monkeypatch.setattr(cli, "build_problem", traced_build)
    tracemalloc.start()
    try:
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base[0]


def test_verify_memory_is_flat_in_chart_size(tmp_path, monkeypatch):
    # The chart holds values only: each point's fixed point and final start
    # are dropped once every solve that starts from them has run.  So four
    # times the chart points add less than one backward history (0.87 MB on
    # the workhorse window) to verify's traced peak.  That peak is pinned in
    # backward plus forward histories (1.68 MB together), a unit that the
    # backward window's length does not inflate: 5.5 of them (9.2 MB) were
    # measured.  A history is counted from the window, since ctx.z is a
    # view of the OU table and owns no bytes.
    import scipy.signal  # noqa: F401  (loaded first: its import is not a solve)

    peaks = {}
    for count in (3, 12):
        text = (CONFIG_DIR / "dirichlet_nonlinear.ini").read_text(encoding="utf-8")
        config = tmp_path / f"chart_{count}.ini"
        config.write_text(text.replace("x_count = 9", f"x_count = {count}"), encoding="utf-8")
        peaks[count] = _solve_phase_peak(config, tmp_path / f"out_{count}", monkeypatch)
    problem = build_problem(load_config(config))
    ctx = problem.lp_context(0.0)
    node = problem.spectrum.size * 8
    history = ctx.times.size * node
    windows = history + (round(problem.t_fwd / ctx.h) + 1) * node
    assert windows > 1_000_000
    assert peaks[12] - peaks[3] <= history
    assert max(peaks.values()) <= 6.0 * windows


def test_commands_solve_ou_once(tmp_path, monkeypatch):
    # Every noise shift (invariance's t, each pullback time) relabels the one
    # stored OU table: a command solves it once, and the shifted driver
    # reads the stored values bit for bit.
    solve_ou, calls = config_module.solve_ou, []

    def counted(w, s):
        calls.append(w)
        return solve_ou(w, s)

    monkeypatch.setattr(config_module, "solve_ou", counted)
    text = ALL_SIX_CONFIG + "\n[almost_period]\ntau0 = 6.283185307179586\n"
    for command, config in (
        ("verify", text),
        ("attractor", text.replace("pullback_times = 2.0 4.0", "pullback_times = 4 8")),
    ):
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(config, encoding="utf-8")
        calls.clear()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1, command

    problem = build_problem(load_config(cfg))
    ou = problem.ou
    for t in (0.5, -4.0, -8.0, 0.005):
        shifted = problem.ou_for(t)
        assert shifted.values is ou.values
        for s in (0.0, -2.0, 0.5 - t, ou.grid.t_min - t, ou.grid.t_max - t):
            assert np.array_equal(shifted.at(s), ou.at(s + t))


def test_report_command(small_config, tmp_path):
    main(["verify", "--config", str(small_config), "--out", str(tmp_path)])
    code = main(["report", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "report.txt").read_text()
    assert "all_pass: yes" in text
    assert (tmp_path / "report.svg").exists()


def test_report_renders_null_as_nan(tmp_path, capsys):
    # the report writer turns a non-finite value or bound into null
    doc = {
        "all_pass": True,
        "reports": [
            {"kind": "tracking", "passed": True, "value": None, "bound": 1.3},
            {"kind": "lipschitz", "passed": True, "value": 0.5, "bound": None},
        ],
    }
    (tmp_path / "verification.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["PASS", "tracking", "value=nan", "bound=1.3"] in lines
    assert ["PASS", "lipschitz", "value=0.5", "bound=nan"] in lines
    assert (tmp_path / "report.svg").exists()


def test_report_without_finite_values_draws_an_empty_frame(tmp_path):
    # Every value and bound null: the plot has nothing to scale, yet it warns
    # nothing, labels its axes with numbers, and the passed flags still set
    # the exit code.
    reports = [
        {"kind": "lipschitz", "passed": True, "value": None, "bound": None},
        {"kind": "invariance", "passed": False, "value": None, "bound": None},
    ]
    doc = {"all_pass": False, "reports": reports}
    (tmp_path / "verification.json").write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "rimlab", "report", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    assert "nan" not in (tmp_path / "report.svg").read_text(encoding="utf-8")
    assert proc.returncode == 1


@pytest.mark.parametrize("all_pass", [True, False])
def test_report_verdict_comes_from_passed_flags(tmp_path, all_pass):
    # A hand-edited document whose all_pass disagrees with its reports'
    # passed flags exits 2 with one line; one that agrees sets the exit code.
    reports = [
        {"kind": "lipschitz", "passed": False, "value": 2.0, "bound": 1.3},
        {"kind": "invariance", "passed": True, "value": 1e-8, "bound": 1e-2},
    ]
    doc_path = tmp_path / "verification.json"
    doc_path.write_text(json.dumps({"all_pass": all_pass, "reports": reports}), "utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "rimlab", "report", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    if all_pass:
        assert proc.returncode == 2 and proc.stdout == ""
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "all_pass" in err[0] and str(doc_path) in err[0]
        assert not (tmp_path / "report.txt").exists()
    else:
        assert proc.returncode == 1 and proc.stderr == ""
        assert "all_pass: no" in (tmp_path / "report.txt").read_text()


_REPORT = {"kind": "lipschitz", "passed": True, "value": 0.5, "bound": 1.3}
MALFORMED_REPORTS = {
    "not_json": "{not json",
    "not_a_document": "[1, 2]",
    **{
        f"missing_{key}": json.dumps(
            {"all_pass": True, "reports": [{k: v for k, v in _REPORT.items() if k != key}]}
        )
        for key in _REPORT
    },
    "passed_not_a_boolean": json.dumps(
        {"all_pass": True, "reports": [{**_REPORT, "passed": "false", "value": 2.0}]}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_report_rejects_malformed_document(tmp_path, capsys, case):
    doc_path = tmp_path / "verification.json"
    doc_path.write_text(MALFORMED_REPORTS[case], encoding="utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(doc_path) in err[0]


def test_almost_period_check(tmp_path):
    code = main(
        [
            "verify",
            "--config",
            str(CONFIG_DIR / "quasi_periodic.ini"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "verification.json").read_text())
    (report,) = doc["reports"]
    assert report["kind"] == "almost_periodicity"
    assert report["context"]["eps_g"] <= 1e-3


def test_module_entry_point(small_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rimlab", "gap-scan", "--config", str(small_config),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "yes" in proc.stdout


# Each bad input maps to exit 2 with a one-line message: a config edit, or
# arguments overriding the config ("{tmp}" is the test's directory).
# case -> (config edit, extra arguments, command, field the message names).
# Grid spans and the tracked batch are sized when the problem is built,
# which gap-scan never does, so those cases run build-manifold.
BAD_INPUTS = {
    "nan_float": (("tol = 1e-5", "tol = nan"), [], "gap-scan", None),
    "inf_float": (("lipschitz = 0.1", "lipschitz = inf"), [], "gap-scan", None),
    "inf_in_list": (
        ("pullback_times = 2.0 4.0", "pullback_times = 2.0 inf"), [], "gap-scan", None
    ),
    "nan_in_terms": (("2 1.0 1.0 0.0", "2 nan 1.0 0.0"), [], "gap-scan", None),
    "empty_terms": (("terms =\n    2 1.0 1.0 0.0", "terms ="), [], "gap-scan", "forcing.terms"),
    "retired_custom_table": (
        ("kind = per_mode_sin", "kind = custom_table"), [], "gap-scan", "nonlinearity.kind"
    ),
    "retired_tabulated": (("form = trig_sum", "form = tabulated"), [], "gap-scan", "forcing.form"),
    "negative_seed": (("seed = 7", "seed = -3"), [], "gap-scan", None),
    "negative_seed_flag": (None, ["--seed", "-3"], "gap-scan", None),
    "missing_config": (None, ["--config", "{tmp}/missing.ini"], "gap-scan", None),
    "unreadable_config": (None, ["--config", "{tmp}"], "gap-scan", None),
    "empty_checks": (
        ("checks = invariance lipschitz tracking periodicity", "checks ="),
        [],
        "gap-scan",
        "verify.checks",
    ),
    "empty_taus": (("taus = 0.0", "taus ="), [], "gap-scan", "periodicity.taus"),
    "empty_pullback_times": (
        ("pullback_times = 2.0 4.0", "pullback_times ="),
        [],
        "gap-scan",
        "attractor.pullback_times",
    ),
    "budget_h": (("h = 0.005", "h = 1e-13"), [], "build-manifold", "numerics.h"),
    "budget_spin_up": (
        (
            "kind = dirichlet\nn_total = 8",
            "kind = explicit\nlambdas = 1e-9 4.0 9.0 16.0 25.0 36.0 49.0 64.0",
        ),
        [],
        "build-manifold",
        "spectrum.lambdas",
    ),
    "budget_pullback_times": (
        ("pullback_times = 2.0 4.0", "pullback_times = 2.0 1e12"),
        [],
        "build-manifold",
        "attractor.pullback_times",
    ),
    "budget_invariance_t": (
        ("invariance_t = 0.5", "invariance_t = 1e12"), [], "build-manifold", "verify.invariance_t"
    ),
    "zero_invariance_t": (
        ("invariance_t = 0.5", "invariance_t = 0"), [], "gap-scan", "verify.invariance_t"
    ),
    "subgrid_invariance_t": (
        ("invariance_t = 0.5", "invariance_t = 1e-9"), [], "gap-scan", "verify.invariance_t"
    ),
    # times that shift the noise must be whole steps, refused before any solve
    "offgrid_invariance_t": (
        ("invariance_t = 0.5", "invariance_t = 0.5025"), [], "verify", "verify.invariance_t"
    ),
    "offgrid_pullback_times": (
        ("pullback_times = 2.0 4.0", "pullback_times = 2.0 4.0025"),
        [],
        "attractor",
        "attractor.pullback_times",
    ),
    "offgrid_h": (("h = 0.005", "h = 0.0035"), [], "verify", "verify.invariance_t"),
    # the forward operator contracts only for k < 1/2
    "tracking_k_half_track": (("k = 0.2", "k = 0.6"), [], "track", "certificate.k"),
    "tracking_k_half_verify": (("k = 0.2", "k = 0.6"), [], "verify", "certificate.k"),
    "no_near_period": (
        (
            "[verify]\nchecks = invariance lipschitz tracking periodicity",
            "[almost_period]\ntarget = 1e-9\n\n[verify]\nchecks = almost_period",
        ),
        [],
        "verify",
        "almost_period.target",
    ),
    # the periodicity check needs a declared period, in its command and in verify
    "no_period_periodicity": (
        ("period = 6.283185307179586\n", ""), [], "periodicity", "forcing.period"
    ),
    "no_period_verify": (("period = 6.283185307179586\n", ""), [], "verify", "forcing.period"),
    "budget_track_count": (
        ("count = 2", "count = 1000000000"), [], "build-manifold", "track.count"
    ),
    "budget_x_count": (("x_count = 5", "x_count = 1000000000"), [], "gap-scan", "chart.x_count"),
    "budget_ensemble_size": (
        ("ensemble_size = 4", "ensemble_size = 1000000000"),
        [],
        "gap-scan",
        "attractor.ensemble_size",
    ),
    "budget_scan_step": (
        ("[verify]", "[almost_period]\nscan_step = 1e-9\n\n[verify]"),
        [],
        "gap-scan",
        "almost_period.scan_step",
    ),
    "scan_max_below_one": (
        ("[verify]", "[almost_period]\nscan_max = 0.5\n\n[verify]"),
        [],
        "gap-scan",
        "almost_period.scan_max",
    ),
    "scan_max_one": (
        ("[verify]", "[almost_period]\nscan_max = 1.0\n\n[verify]"),
        [],
        "gap-scan",
        "almost_period.scan_max",
    ),
    "zero_scan_step": (
        ("[verify]", "[almost_period]\nscan_step = 0\n\n[verify]"),
        [],
        "gap-scan",
        "almost_period.scan_step",
    ),
    # values that a library constructor refuses, named by their field
    "period_not_a_period": (
        ("period = 6.283185307179586", "period = 1.0"), [], "gap-scan", "forcing.period"
    ),
    "terms_mode_zero": (("2 1.0 1.0 0.0", "0 1.0 1.0 0.0"), [], "gap-scan", "forcing.terms"),
    "terms_mode_above_n_total": (
        ("2 1.0 1.0 0.0", "9 1.0 1.0 0.0"), [], "gap-scan", "forcing.terms"
    ),
    "terms_zero_frequency": (("2 1.0 1.0 0.0", "2 1.0 0.0 0.0"), [], "gap-scan", "forcing.terms"),
    "decreasing_lambdas": (
        (
            "kind = dirichlet\nn_total = 8",
            "kind = explicit\nlambdas = 1.0 4.0 9.0 16.0 25.0 36.0 64.0 49.0",
        ),
        [],
        "gap-scan",
        "spectrum.lambdas",
    ),
    "negative_noise_value": (
        (
            "kind = power_law\nscale = 0.05\nexponent = 2.0",
            "kind = explicit\nvalues = 0.1 -0.1 0.0 0.0 0.0 0.0 0.0 0.0",
        ),
        [],
        "gap-scan",
        "noise.values",
    ),
    "overflowing_noise_exponent": (
        ("exponent = 2.0", "exponent = -1000"), [], "gap-scan", "noise.exponent"
    ),
    # argparse keeps the last --out, so these replace the writable one
    "out_is_a_file": (None, ["--out", "{tmp}/case.ini"], "gap-scan", "{tmp}/case.ini"),
    "out_under_a_file": (None, ["--out", "{tmp}/case.ini/sub"], "gap-scan", "{tmp}/case.ini/sub"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, case):
    edit, extra, command, field = BAD_INPUTS[case]
    cfg = tmp_path / "case.ini"
    cfg.write_text(SMALL_CONFIG if edit is None else SMALL_CONFIG.replace(*edit), "utf-8")
    args = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    args += [a.format(tmp=tmp_path) for a in extra]
    proc = subprocess.run(
        [sys.executable, "-m", "rimlab", command, *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    if field is not None:
        assert field.format(tmp=tmp_path) + ":" in proc.stderr


# Refusals that need only the config, with the line each prints: none
# builds a problem, so none samples a path or solves anything first.
CONFIG_ONLY_REFUSALS = {
    "no_period_periodicity": "forcing.period: the periodicity check needs a declared period",
    "no_period_verify": "forcing.period: the periodicity check needs a declared period",
    "no_near_period": "almost_period.target: no near-period with defect <= 1e-09 found below 450.0",
    "tracking_k_half_track": "certificate.k: tracking requires k < 1/2 (got 0.6)",
    "tracking_k_half_verify": "certificate.k: tracking requires k < 1/2 (got 0.6)",
}


@pytest.mark.parametrize("case", sorted(CONFIG_ONLY_REFUSALS))
def test_config_only_refusals_come_before_the_problem(tmp_path, capsys, monkeypatch, case):
    edit, _, command, _ = BAD_INPUTS[case]
    cfg = tmp_path / "case.ini"
    cfg.write_text(SMALL_CONFIG.replace(*edit), "utf-8")

    def refuse(*args):
        pytest.fail("a config-only refusal built the problem first")

    monkeypatch.setattr(cli, "build_problem", refuse)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {CONFIG_ONLY_REFUSALS[case]}\n"


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ConfigError("section.key: refused"), 2, "config error: "),
        (CertificateError("gap condition fails"), 3, "certificate failure: "),
        (InstabilityError("non-finite state"), 1, "run failed: "),
        (RimlabError("grid step must be positive"), 2, "invalid run: "),
        (NotADirectoryError(20, "Not a directory", "out/sub"), 2, "output error: out/sub: "),
    ],
    ids=["ConfigError", "CertificateError", "InstabilityError", "RimlabError", "OSError"],
)
def test_each_error_class_has_one_exit_code(monkeypatch, capsys, exc, code, prefix):
    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_gap_scan", refuse)
    assert main(["gap-scan", "--config", "unused.ini"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


def test_output_name_taken_by_a_directory_exits_2(tmp_path, small_config, capsys):
    taken = tmp_path / "gap_scan.txt"
    taken.mkdir()
    assert main(["gap-scan", "--config", str(small_config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"output error: {taken}: Is a directory"
    ]


def test_scan_budget_charges_the_rows_it_holds(tmp_path, capsys):
    # The scan holds 3 + 2 x (forced modes) rows of taus, not n_total: on
    # the workhorse (one forced mode) 25,000 / 0.01 taus fit the budget, and
    # a step ten times finer does not.
    base = (CONFIG_DIR / "dirichlet_nonlinear.ini").read_text(encoding="utf-8")
    for step, code in ((0.01, 0), (0.001, 2)):
        cfg = tmp_path / f"scan_{step}.ini"
        cfg.write_text(f"{base}\n[almost_period]\nscan_max = 25000\nscan_step = {step}\n")
        assert main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)]) == code
    assert "almost_period.scan_step:" in capsys.readouterr().err


def test_truncation_margin_validated(tmp_path):
    cfg = tmp_path / "margin.ini"
    cfg.write_text(SMALL_CONFIG.replace("n = 1", "n = 5"), encoding="utf-8")
    assert main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2


EXPLICIT_CONFIG = """
[spectrum]
kind = explicit
lambdas = 1.0 4.0 9.0 16.0 25.0 36.0
alpha = 0.25

[nonlinearity]
kind = per_mode_sin
lipschitz = 0.1

[forcing]
form = constant
amplitudes = 0.0 0.5 0.0 0.0 0.0 0.0

[noise]
kind = explicit
values = 0.1 0.05 0.02 0.01 0.005 0.002
seed = 3

[certificate]
n = 1
k = 0.45

[numerics]
h = 0.005
tol = 1e-5

[chart]
x_count = 3

[verify]
checks = lipschitz
invariance_t = 0.5

[attractor]
pullback_times = 2.0
ensemble_size = 2
"""


def test_explicit_config_surface(tmp_path):
    cfg = tmp_path / "explicit.ini"
    cfg.write_text(EXPLICIT_CONFIG, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["build-manifold", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "chart_meta.json").read_text())
    assert meta["alpha"] == 0.25
    assert meta["n_total"] == 6
    # the derived horizons 6.3937 and 6.3776 in whole steps of 0.005
    assert meta["t_back"] == pytest.approx(6.395) and meta["t_fwd"] == pytest.approx(6.38)
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0


def test_overlong_backward_horizon_rejected_before_sampling(tmp_path, capsys):
    # k near 1 at a near-zero gap margin derives T* of about 6.1e3: the
    # window is refused before a path that long is sampled.
    text = SMALL_CONFIG.replace("lipschitz = 0.1", "lipschitz = 0.7499955")
    text = text.replace("k = 0.2", "k = 0.999999")
    cfg = tmp_path / "long.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["build-manifold", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # the message names the keys that set the derived window
    assert len(err) == 1 and "> 500" in err[0] and "numerics.t_back" not in err[0]
    assert all(key in err[0] for key in ("certificate.k", "nonlinearity.lipschitz", "numerics.tol"))


def test_explicit_config_field_errors(tmp_path):
    bad = EXPLICIT_CONFIG.replace("values = 0.1 0.05 0.02 0.01 0.005 0.002",
                                  "values = 0.1 0.05")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(bad, encoding="utf-8")
    assert main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2


LINEAR_SINE = CONFIG_DIR / "linear_sine.ini"
DIRICHLET_NONLINEAR = CONFIG_DIR / "dirichlet_nonlinear.ini"
QUASI_PERIODIC = CONFIG_DIR / "quasi_periodic.ini"


def test_windows_round_to_whole_steps():
    # F = 0 leaves the forward operator no tail: the forward window is the
    # backward one, the derived 5.373 in whole steps.
    problem = build_problem(load_config(LINEAR_SINE))
    assert problem.t_fwd == problem.t_back == pytest.approx(5.373)
    # 4.001 / 0.001 and 8.002 / 0.001 land just above 4001 and 8002 in
    # floating point; neither window may take an extra step.
    ctx = LPContext(
        problem.spectrum, problem.cert, problem.nonlinearity, problem.forcing, problem.ou,
        tau=0.0, t_back=8.002, tol=problem.tol,
    )
    assert ctx.n_cells == 8002
    forward = base_orbit(np.zeros(problem.spectrum.size), ctx, 4.001)
    assert len(forward) - 1 == 4001


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(path.read_text(encoding="utf-8"))
    return parser


class _ReadKeys(dict):
    """A config section's values that record every key looked up."""

    def __init__(self, section: str, data: dict, seen: set):
        super().__init__(data)
        self.section, self.seen = section, seen

    def get(self, key, default=None):
        self.seen.add((self.section, key))
        return super().get(key, default)


def _record_reads(monkeypatch) -> set:
    """The (section, key) pairs that load_config looks up from now on."""
    seen = set()
    init = config_module._Section.__init__

    def recording_init(self, parser, name):
        init(self, parser, name)
        self.data = _ReadKeys(name, self.data, seen)

    monkeypatch.setattr(config_module._Section, "__init__", recording_init)
    return seen


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_keys_are_all_read(path, monkeypatch):
    # load_config ignores a key it does not read (a retired option, a typo),
    # so a shipped config must set only keys that it reads.
    seen = _record_reads(monkeypatch)
    load_config(path)
    parser = _read_ini(path)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    assert keys - seen == set()


def test_readme_lists_the_keys_that_are_read(tmp_path, monkeypatch):
    # The README's config block lists every key load_config reads, and no
    # other; a key read for one kind only is a '; key = ...' line.  The
    # shipped configs and EXPLICIT_CONFIG take every branch that reads a key.
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Config file", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = set(), None
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = header.group(1)
        elif key := re.match(r"(?:;\s*)?(\w+)\s*=", line):
            listed.add((section, key.group(1)))
    seen = _record_reads(monkeypatch)
    explicit = tmp_path / "explicit.ini"
    explicit.write_text(EXPLICIT_CONFIG, encoding="utf-8")
    for path in [*sorted(CONFIG_DIR.glob("*.ini")), explicit]:
        load_config(path)
    assert listed == seen


# Each statement runs in a fresh interpreter, paired with whether it should
# load SciPy: commands that never step time must not import it, and the OU
# solve, which is a filter call, must.
SCIPY_PROBES = {
    "import": ("import rimlab.cli", False),
    "gap_scan": ("main(['gap-scan', '--config', CFG, '--out', OUT])", False),
    "report": ("main(['report', '--config', CFG, '--out', OUT])", False),
    "ou": ("build_problem(load_config(CFG), 7).ou", True),
    # refused after the problem is built, before its noise is first read
    "periodicity_without_period": (
        "assert main(['periodicity', '--config', QP, '--out', OUT]) == 2",
        False,
    ),
}


@pytest.mark.parametrize("probe", sorted(SCIPY_PROBES))
def test_scipy_loaded_only_by_the_filter(tmp_path, probe):
    statement, loads_scipy = SCIPY_PROBES[probe]
    doc = {
        "all_pass": True,
        "reports": [{"kind": "lipschitz", "passed": True, "value": 0.0, "bound": 1.3}],
    }
    (tmp_path / "verification.json").write_text(json.dumps(doc), encoding="utf-8")
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            "from rimlab.cli import main",
            "from rimlab.config import build_problem, load_config",
            f"CFG, QP = {str(LINEAR_SINE)!r}, {str(QUASI_PERIODIC)!r}",
            f"OUT = {str(tmp_path)!r}",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    {statement}",
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if loads_scipy:
        assert "scipy.signal" in loaded
    else:
        assert loaded == []


# Field-by-field mutations of a shipped config: every input must map to the
# exit-code contract with a readable message, never a traceback.  None stands
# for the key being removed; no value asks for a large grid.
def _fields(path: Path) -> list:
    return [(sec, key) for sec, keys in _read_ini(path).items() for key in keys]


FUZZ_VALUES = ["", "nan", "inf", "-inf", "-1", "0", "abc", None]


def _check_mutation(path: Path, command: str, field, value):
    section, key = field
    parser = _read_ini(path)
    if value is None:
        parser.remove_option(section, key)
    else:
        parser[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "case.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    if code == 1:
        failed = any(line.startswith("FAIL") for line in out.getvalue().splitlines())
        assert failed or err.getvalue().startswith("run failed:")
    if code in (2, 3):
        assert len(err.getvalue().strip().splitlines()) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(field=st.sampled_from(_fields(LINEAR_SINE)), value=st.sampled_from(FUZZ_VALUES))
def test_config_mutations_keep_exit_code_contract(field, value):
    _check_mutation(LINEAR_SINE, "verify", field, value)


# The nonlinear config puts the Picard solve under the same contract.  Most
# mutations exit 2 at once; the few that run build the full 9-point chart.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(field=st.sampled_from(_fields(DIRICHLET_NONLINEAR)), value=st.sampled_from(FUZZ_VALUES))
def test_nonlinear_config_mutations_keep_exit_code_contract(field, value):
    _check_mutation(DIRICHLET_NONLINEAR, "build-manifold", field, value)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(field=st.sampled_from(_fields(QUASI_PERIODIC)), value=st.sampled_from(FUZZ_VALUES))
def test_quasi_periodic_config_mutations_keep_exit_code_contract(field, value):
    _check_mutation(QUASI_PERIODIC, "build-manifold", field, value)
