"""rimlab benchmark: runs the real CLI in fresh processes and reports metrics.

Usage, from the root of a rimlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn and print one table.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` alternates untraced passes with passes
whose commands run under tracer.py and reports the per-layer metrics.
The run pins itself and its children to one CPU and runs the host-speed
probe of speed.py there at the lowest priority; the end-to-end times are
scaled by the CPU speed that the probe saw while they were measured.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

from checks import check_command
from kernels import kernel_metrics
from layers import layer_metrics
from speed import REF_UNIT_S, mean_unit
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
# Claims of a gain are re-checked on this seed, which is never used while
# a change is written or tuned.
HELD_OUT_SEED = 9176
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 165.0  # a run must end within 180 s
MIN_SETUPS = 3
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "pass_frac")
UNITS = (("ms", "ms"), ("us", "us"), ("s", "s"), ("mb", "MB"), ("frac", "ratio"), ("bytes", "bytes"))


def unit_of(metric: str) -> str:
    """Unit from the name: a ``_s``, ``_ms``, ``_us``, ``_mb``, ``_frac`` or
    ``bytes`` token sets it; anything else is a count."""
    tokens = set(re.split(r"[._]", metric))
    for token, unit in UNITS:
        if token in tokens:
            return unit
    return "count"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Deadline(Exception):
    """The run limit passed while a child was running."""


def _on_alarm(signum, frame):
    raise _Deadline


class HostProbe:
    """speed.py in its own process on ``cpu``, from start to ``stop``."""

    def __init__(self, cpu: int, out: Path, env: dict):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed.py"), str(cpu), str(out)],
            env=env, stdout=subprocess.PIPE,
        )

    def wait_ready(self) -> None:
        if self.proc.stdout.readline() != b"ready\n":
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> array:
        """Stop the probe, wait for it, and return its unit stamps."""
        if self.proc.returncode is None:
            self.proc.terminate()
            self.proc.wait()
            self.proc.stdout.close()
        stamps = array("d")
        if self.out.is_file():
            stamps.frombytes(self.out.read_bytes())
        return stamps


class Runner:
    """Runs one workload's passes in a work directory inside the checkout."""

    def __init__(self, root: Path, workload, work: Path):
        self.wl = workload
        self.work = work
        self.module_file = (root / "src" / "rimlab" / "__init__.py").resolve()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list = []
        self.first_digests: list | None = None
        self.sizes = {"grid_nodes": 0, "backward_cells_M": 0, **workload.sizes,
                      "batch_B": workload.batch_b}
        self.pass_no = 0
        self.passes: list = []
        self.setup_walls: list = []
        self.setup_spans: list = []  # (start, end) of each set-up sample

    # ---- processes ------------------------------------------------------

    def spawn(self, argv: list, cwd: Path, stdout: Path):
        """Run a child to completion.

        Returns (exit code, spawn ns, reaped ns, cpu s, max RSS MB); the
        clock is ``perf_counter_ns``, which the tracer reads too.  The wait
        blocks, so this process takes no CPU from the child it shares its
        CPU with; an alarm at the run limit kills the child.
        """
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 1e-3))
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            t1 = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, t0, t1, cpu, usage.ru_maxrss / 1024.0

    def record(self, label: str, reasons: list) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: " + "; ".join(reasons))

    def _write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        for name, text in self.wl.configs.items():
            (directory / name).write_text(text, encoding="utf-8")

    # ---- set-up ---------------------------------------------------------

    def setup_sample(self, counted: bool = True) -> float:
        d = self.work / "setup"
        if not d.exists():
            self._write_configs(d)
        argv = [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            self.wl.setup_config,
            str(self.wl.noise_seed),
        ]
        code, t0, t1, _, _ = self.spawn(argv, d, d / "probe.txt")
        reasons = [] if code == 0 else [f"exit {code}: {self._stderr_tail(d / 'probe.err')}"]
        ran = (d / "probe.txt").read_text().strip()
        if code == 0 and Path(ran).resolve() != self.module_file:
            reasons.append(f"imported {ran}, not the checkout's source")
        if counted:
            self.record("setup", reasons)
            self.setup_spans.append((t0 * 1e-9, t1 * 1e-9))
        return (t1 - t0) * 1e-9

    @staticmethod
    def _stderr_tail(path: Path) -> str:
        lines = path.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    # ---- passes ---------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        pdir = self.work / f"pass{self.pass_no}"
        self.pass_no += 1
        self._write_configs(pdir)
        owned: set = set()
        runs = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.wl.commands):
            if traced:
                prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), f"spans_{i}"]
            else:
                prefix = [sys.executable, "-m", "rimlab"]
            code, t_spawn, t_reaped, cpu, rss = self.spawn(
                prefix + cmd.argv(), pdir, pdir / f"stdout_{i}.txt"
            )
            out_dir = pdir / cmd.out
            files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p not in owned)
            owned.update(files)
            runs.append((cmd, code, cpu, rss, files, t_spawn, t_reaped))
        wall = time.perf_counter() - t0

        digests, out_bytes = [], 0
        for i, (cmd, code, _, _, files, _, _) in enumerate(runs):
            if code != cmd.expect:
                reasons = [f"exit {code}, expected {cmd.expect}: "
                           + self._stderr_tail(pdir / f"stdout_{i}.err")]
            else:
                try:
                    reasons = check_command(cmd, pdir / cmd.out, files)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    reasons = [f"unreadable output: {exc!r}"]
            digest = {str(p.relative_to(pdir)): _sha256(p) for p in files}
            digest["stdout"] = _sha256(pdir / f"stdout_{i}.txt")
            out_bytes += sum(p.stat().st_size for p in files)
            if self.first_digests is not None and digest != self.first_digests[i]:
                changed = sorted(
                    k for k in digest.keys() | self.first_digests[i].keys()
                    if digest.get(k) != self.first_digests[i].get(k)
                )
                reasons.append("outputs differ from the first pass of this seed: "
                               + ", ".join(changed))
            digests.append(digest)
            self.record(f"{cmd.args[0]} -> {cmd.out}", reasons)
        if self.first_digests is None:
            self.first_digests = digests
            self._read_sizes(pdir / self.wl.meta_file)

        result = {
            "span": (t0, t0 + wall),
            "wall": wall,
            "cpu": sum(r[2] for r in runs),
            "rss": max(r[3] for r in runs),
            "out_bytes": out_bytes,
        }
        if traced:
            procs = [(str(pdir / f"spans_{i}"), r[5], r[6]) for i, r in enumerate(runs)]
            result["layers"] = layer_metrics(
                [p for p in procs if Path(p[0] + ".json").is_file()], wall
            )
        shutil.rmtree(pdir)
        return result

    def _read_sizes(self, meta_path: Path) -> None:
        if not meta_path.is_file():
            return
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        h = meta["h"]
        self.sizes["grid_nodes"] = round((meta["grid_t_max"] - meta["grid_t_min"]) / h) + 1
        self.sizes["backward_cells_M"] = round(meta["t_back"] / h)

    # ---- measurement loops ---------------------------------------------

    def _repeat(self, step, end: float, at_least: int, estimate: float = 0.0) -> None:
        """Call ``step`` at least ``at_least`` times, then while another
        call, as long as the longest so far (or ``estimate``), still ends
        before ``end``."""
        n = 0
        while n < at_least or time.monotonic() + estimate <= end:
            if n and time.monotonic() + estimate > self.deadline:
                return
            t0 = time.monotonic()
            step()
            estimate = max(estimate, time.monotonic() - t0)
            n += 1

    def end_to_end(self, seconds: float) -> dict:
        setups, passes = [], []

        def setup():
            setups.append(self.setup_sample())

        def step():
            setup()
            passes.append(self.run_pass(traced=False))

        self.setup_sample(counted=False)  # fills bytecode and page caches
        end = time.monotonic() + seconds
        self._repeat(step, end, 2)
        # the rest of the run buys set-up samples, at least MIN_SETUPS in all
        self._repeat(setup, end, MIN_SETUPS - len(setups), max(setups))
        self.passes = passes
        self.setup_walls = setups
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "pass_frac": 1.0 - len(self.failures) / self.attempted,
        }

    def scaled(self, stamps: array) -> dict:
        """Set-up, pass wall and pass CPU times, each scaled by the host
        speed the probe saw while it was measured; see speed.py."""

        def factor(span):
            unit = mean_unit(stamps, *span)
            if unit is None:
                raise RuntimeError("no probe unit ran inside a measured span")
            return REF_UNIT_S / unit

        setups = [w * factor(span) for w, span in zip(self.setup_walls, self.setup_spans)]
        passes = [(p["wall"] * factor(p["span"]), p["cpu"] * factor(p["span"]))
                  for p in self.passes]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(w for w, _ in passes),
            "cpu_s": statistics.median(c for _, c in passes),
        }

    def per_layer(self, seconds: float) -> dict:
        plain, traced = [], []

        def step():
            plain.append(self.run_pass(traced=False))
            traced.append(self.run_pass(traced=True))

        self.setup_sample(counted=False)
        self._repeat(step, time.monotonic() + seconds, 1)
        self.passes = plain + traced
        layers = [p["layers"] for p in traced]
        out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        wall_t = statistics.median(p["wall"] for p in traced)
        wall_u = statistics.median(p["wall"] for p in plain)
        out.update({
            "trace.wall_s": wall_t,
            "trace.untraced_wall_s": wall_u,
            "trace.overhead_s": wall_t - wall_u,
            "cli.output_bytes": plain[0]["out_bytes"],
        })
        out.update(kernel_metrics(
            self.sizes["backward_cells_M"],
            self.sizes["modes_N"],
            self.sizes["resolved_n"],
            self.sizes["batch_B"],
        ))
        return out


def _git_sha(git: Path) -> str | None:
    """HEAD's commit, read from the checkout's own .git; None outside git."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    src = hashlib.sha256()
    for path in sorted((root / "src" / "rimlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root / ".git"),
        "source_sha256": src.hexdigest(),
        **{var: "1" for var in THREAD_VARS},
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool, cpu: int) -> dict:
    wl = WORKLOADS[name](seed)
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, wl, work)
    probe = None
    try:
        probe = HostProbe(cpu, work / "probe.bin", runner.env)
        probe.wait_ready()
        metrics = runner.per_layer(seconds) if trace else runner.end_to_end(seconds)
        stamps = probe.stop()
        unscaled = {}
        if not trace:
            unscaled = {k: metrics[k] for k in ("setup_s", "wall_s", "cpu_s")}
            metrics.update(runner.scaled(stamps))
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(f"== {name}: seed {seed}, noise seed {wl.noise_seed}, "
          f"{len(runner.passes)} passes, {len(wl.commands)} commands per pass")
    print("inputs " + json.dumps(runner.sizes, sort_keys=True))
    print("pass walls " + " ".join(f"{p['wall']:.3f}" for p in runner.passes))
    if runner.setup_walls:
        print("setup walls " + " ".join(f"{w:.3f}" for w in runner.setup_walls))
    units = [mean_unit(stamps, *p["span"]) for p in runner.passes]
    print("speed probe: mean unit CPU time per pass, us: "
          + " ".join(f"{u * 1e6:.2f}" for u in units if u is not None)
          + f" (reference {REF_UNIT_S * 1e6:g} us)")
    if unscaled:
        print("unscaled " + " ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    for line in runner.failures:
        print("FAIL " + line)
    failed = len(runner.failures)
    print(f"fail_frac {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} operations failed)")
    for key, value in metrics.items():
        print(f"{key:<36} {value:.6g} {unit_of(key)}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running child is stopped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, _on_alarm)

    root = Path.cwd()
    if not (root / "src" / "rimlab" / "__init__.py").is_file():
        print("run.py: no src/rimlab here; run from the root of a rimlab checkout",
              file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    # rimlab and the speed probe share the first usable CPU; see speed.py
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    print("env " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(root, n, args.seed, args.seconds, bool(args.trace), cpu) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        print(f"\n{'workload':<14}" + "".join(f"{m:>16}" for m in END_TO_END) + f"{'fail_frac':>16}")
        for n, r in results.items():
            cells = "".join(
                f"{r['metrics'][m]['value']:>11.4g} {unit_of(m):<4}" if m in r["metrics"]
                else f"{'-':>16}" for m in END_TO_END
            )
            print(f"{n:<14}{cells}{r['failed'] / r['attempted']:>10.4g} ratio")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
