import configparser
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rimlab.cli import main

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
svg = true

[track]
count = 2
radius = 0.5

[attractor]
pullback_times = 2.0 4.0
ensemble_size = 4
radius = 0.5

[periodicity]
taus = 0.0
slack = 1e-4

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


def test_verify_failure_exits_1(small_config, tmp_path):
    cfg = tmp_path / "strict.ini"
    cfg.write_text(
        SMALL_CONFIG.replace("invariance_t = 0.5", "invariance_t = 0.5\nc_inv = 0.0"),
        encoding="utf-8",
    )
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert doc["all_pass"] is False


def test_verify_trivial_config_all_pass(tmp_path):
    cfg = tmp_path / "trivial.ini"
    trivial = SMALL_CONFIG.replace("kind = per_mode_sin", "kind = zero")
    trivial = trivial.replace("form = trig_sum", "form = zero").replace(
        "terms =\n    2 1.0 1.0 0.0\nperiod = 6.283185307179586", ""
    )
    trivial = trivial.replace("kind = power_law", "kind = zero")
    trivial = trivial.replace(
        "checks = invariance lipschitz tracking periodicity",
        "checks = invariance lipschitz tracking containment",
    )
    cfg.write_text(trivial, encoding="utf-8")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0


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


def test_attractor_command(small_config, tmp_path):
    code = main(["attractor", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "attractor.json").read_text())
    assert len(doc["reports"]) == 2
    assert (tmp_path / "cloud_00.csv").exists()
    assert (tmp_path / "cloud_01.csv").exists()


def test_report_command(small_config, tmp_path):
    main(["verify", "--config", str(small_config), "--out", str(tmp_path)])
    code = main(["report", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "report.txt").read_text()
    assert "all_pass: yes" in text
    assert (tmp_path / "report.svg").exists()


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
    "nan_in_table": (
        (
            "form = trig_sum\nterms =\n    2 1.0 1.0 0.0",
            "form = tabulated\ntable =\n    -40.0 0 0.5 0 0 0 0 0 0\n    8.0 0 nan 0 0 0 0 0 0",
        ),
        [],
        "gap-scan",
        None,
    ),
    "negative_seed": (("seed = 7", "seed = -3"), [], "gap-scan", None),
    "negative_seed_flag": (None, ["--seed", "-3"], "gap-scan", None),
    "missing_config": (None, ["--config", "{tmp}/missing.ini"], "gap-scan", None),
    "unreadable_config": (None, ["--config", "{tmp}"], "gap-scan", None),
    "budget_h": (("h = 0.005", "h = 1e-13"), [], "build-manifold", "numerics.h"),
    "budget_t_back": (
        ("tol = 1e-5", "tol = 1e-5\nt_back = 1e12"), [], "build-manifold", "numerics.t_back"
    ),
    "budget_t_fwd": (
        ("tol = 1e-5", "tol = 1e-5\nt_fwd = 1e12"), [], "build-manifold", "numerics.t_fwd"
    ),
    "budget_burn_in": (
        ("tol = 1e-5", "tol = 1e-5\nburn_in = 1e12"), [], "build-manifold", "numerics.burn_in"
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
    "zero_scan_step": (
        ("[verify]", "[almost_period]\nscan_step = 0\n\n[verify]"),
        [],
        "gap-scan",
        "almost_period.scan_step",
    ),
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
        assert field + ":" in proc.stderr


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
kind = custom_table
lipschitz = 0.1
table_x = -6.0 -3.0 0.0 3.0 6.0
table_y = -0.3 -0.29 0.0 0.29 0.3

[forcing]
form = tabulated
table =
    -40.0 0.0 0.5 0.0 0.0 0.0 0.0
    0.0 0.0 0.5 0.0 0.0 0.0 0.0
    8.0 0.0 0.5 0.0 0.0 0.0 0.0

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
t_back = 7.0
t_fwd = 6.0

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
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0


def test_short_backward_horizon_rejected(tmp_path, capsys):
    # The derived horizon of EXPLICIT_CONFIG is 6.69 (6.695 in whole steps).
    cfg = tmp_path / "short.ini"
    cfg.write_text(EXPLICIT_CONFIG.replace("t_back = 7.0", "t_back = 6.0"), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["build-manifold", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "numerics.t_back" in err[0] and "6.695" in err[0]
    cfg.write_text(EXPLICIT_CONFIG.replace("t_back = 7.0", "t_back = 6.691"), encoding="utf-8")
    assert main(["build-manifold", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "chart_meta.json").read_text())
    assert meta["t_back"] == pytest.approx(6.695)
    assert meta["t_back_required"] == pytest.approx(6.6914, abs=1e-4)


def test_overlong_backward_horizon_rejected_before_sampling(tmp_path, capsys):
    # k near 1 at a near-zero gap margin derives T* of about 8.7e3: the
    # window is refused before a path that long is sampled.
    text = SMALL_CONFIG.replace("lipschitz = 0.1", "lipschitz = 0.7499955")
    text = text.replace("k = 0.2", "k = 0.999999")
    cfg = tmp_path / "long.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["build-manifold", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "numerics.t_back" in err[0] and "> 500" in err[0]


def test_explicit_config_field_errors(tmp_path):
    bad = EXPLICIT_CONFIG.replace("values = 0.1 0.05 0.02 0.01 0.005 0.002",
                                  "values = 0.1 0.05")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(bad, encoding="utf-8")
    assert main(["gap-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2


LINEAR_SINE = CONFIG_DIR / "linear_sine.ini"
DIRICHLET_NONLINEAR = CONFIG_DIR / "dirichlet_nonlinear.ini"
QUASI_PERIODIC = CONFIG_DIR / "quasi_periodic.ini"


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(path.read_text(encoding="utf-8"))
    return parser


# Each statement runs in a fresh interpreter, paired with whether it should
# load SciPy: commands that never step time must not import it, and the OU
# solve, which is a filter call, must.
SCIPY_PROBES = {
    "import": ("import rimlab.cli", False),
    "gap_scan": ("main(['gap-scan', '--config', CFG, '--out', OUT])", False),
    "report": ("main(['report', '--config', CFG, '--out', OUT])", False),
    "ou": ("build_problem(load_config(CFG), 7).ou", True),
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
            f"CFG, OUT = {str(LINEAR_SINE)!r}, {str(tmp_path)!r}",
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
