"""The process entry runs the CLI with Python's cyclic garbage collector off.

``rimlab.__main__.run`` disables the collector before ``cli.main`` and
freezes what survives before exit.  That leaks nothing only while the
library's own objects form no reference cycles, which is checked here by
counting what a collection finds after runs of different sizes.
``cli.main``, which the tests call in-process, leaves the collector alone.
"""

import ast
import contextlib
import gc
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import rimlab.__main__ as entry
from rimlab.cli import main
from test_cli import SMALL_CONFIG

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small_ini(tmp_path):
    def write(count: int = 2) -> Path:
        path = tmp_path / f"small_{count}.ini"
        path.write_text(SMALL_CONFIG.replace("count = 2", f"count = {count}"), "utf-8")
        return path

    return write


@contextlib.contextmanager
def collector(enabled: bool):
    """The collector switched on or off inside the block, restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_found(small_ini, tmp_path, enabled):
    with collector(enabled):
        frozen = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["track", "--config", str(small_ini()), "--out", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen


def _garbage_after_track(config: Path, out: Path) -> int:
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["track", "--config", str(config), "--out", str(out)]) == 0
    return gc.collect()


def test_track_garbage_does_not_grow_with_the_orbit_count(small_ini, tmp_path):
    # With the collector off, whatever a run leaves in reference cycles
    # stays allocated until exit.  A run with 8 orbits must leave no more
    # of it than a run with 2: the per-orbit solves create no cycles.
    with collector(False):
        _garbage_after_track(small_ini(2), tmp_path / "warm")  # first-call imports and caches
        two = _garbage_after_track(small_ini(2), tmp_path / "two")
        eight = _garbage_after_track(small_ini(8), tmp_path / "eight")
    # a cycle per orbit would add at least 6 objects
    assert abs(eight - two) <= 5, (two, eight)


def test_run_turns_the_collector_off_and_freezes_before_exit(monkeypatch):
    seen = []
    monkeypatch.setattr(entry, "main", lambda: seen.append(gc.isenabled()) or 3)
    frozen = gc.get_freeze_count()
    with collector(True):
        try:
            with pytest.raises(SystemExit) as exc:
                entry.run()
            assert exc.value.code == 3
            assert seen == [False]
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()


def _in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# case -> (arguments, exit code); {cfg} and {out} are filled in per test
ENTRY_CASES = {
    "build": (["build-manifold", "--config", "{cfg}", "--out", "{out}"], 0),
    "config_error": (["build-manifold", "--config", "{out}/missing.ini", "--out", "{out}"], 2),
    "usage_error": (["track", "--config", "{cfg}", "--out", "{out}", "--threads", "2"], 2),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_module_entry_runs_main_to_completion(small_ini, tmp_path, case):
    # python -m rimlab, with the collector off and frozen at exit, exits with
    # the code and prints the complete output that cli.main gives in-process.
    args, expected = ENTRY_CASES[case]
    cfg = small_ini()
    runs = []
    for where in ("subprocess", "in_process"):
        out = tmp_path / where
        out.mkdir()
        argv = [a.format(cfg=cfg, out=out) for a in args]
        if where == "subprocess":
            proc = subprocess.run(
                [sys.executable, "-m", "rimlab", *argv], capture_output=True, text=True
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr.replace(str(out), "OUT")))
        else:
            code, stdout, stderr = _in_process(argv)
            runs.append((code, stdout, stderr.replace(str(out), "OUT")))
    assert runs[0][0] == expected
    assert runs[0] == runs[1]
    if expected == 0:
        assert runs[0][1].startswith("chart: 5 points")
        for name in ("chart.csv", "chart_meta.json", "chart.svg"):
            sub = (tmp_path / "subprocess" / name).read_bytes()
            assert sub == (tmp_path / "in_process" / name).read_bytes()
    else:
        assert runs[0][2].strip() != ""


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]["scripts"]
    module, _, attr = scripts["rimlab"].partition(":")
    assert getattr(importlib.import_module(module), attr) is entry.run
    # __main__'s guarded block calls run() and nothing else
    tree = ast.parse(Path(entry.__file__).read_text("utf-8"))
    guarded = [n for n in tree.body if isinstance(n, ast.If)]
    assert len(guarded) == 1 and ast.unparse(guarded[0].test) == "__name__ == '__main__'"
    assert [ast.unparse(n) for n in guarded[0].body] == ["run()"]


def test_importing_the_entry_changes_nothing():
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    importlib.reload(entry)
    assert (gc.isenabled(), gc.get_freeze_count()) == (was_enabled, frozen)
