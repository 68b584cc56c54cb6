"""Benchmark workloads: configs generated from the workload seed, and the
command sequence that one pass runs.

Each workload is closed-loop: one client process runs its commands one
after another, each in a fresh ``rimlab`` process.  The base configs under
``configs/`` are copies of the three configs shipped with rimlab, so the
benchmark inputs do not move when the shipped examples change.
"""

from __future__ import annotations

import configparser
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BASE_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``rimlab <args> --out <out>``.

    ``main_file`` must exist in ``out`` afterwards.  ``m2_target`` asks for
    the linear closed-form check on chart.csv; ``reference`` names an entry
    of reference.json that the command's output must match.
    """

    args: tuple
    out: str
    main_file: str
    expect: int = 0
    m2_target: float | None = None
    reference: str | None = None

    def argv(self) -> list:
        return list(self.args) + ["--out", self.out]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    configs: dict = field(repr=False)  # file name -> INI text
    setup_config: str = ""  # config file that the setup probe loads
    noise_seed: int = 0
    meta_file: str = ""  # output JSON carrying the problem sizes
    sizes: dict = field(default_factory=dict)  # sizes read from the config
    batch_b: int = 1  # batch size B used for the computed step figures


def render(base: str, overrides: dict) -> str:
    """A shipped base config with ``{section: {key: value}}`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(BASE_DIR / f"{base}.ini", encoding="utf-8")
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _draws(name: str, seed: int) -> tuple[int, float]:
    """Noise seed and forcing phase for (workload, seed); stable across runs."""
    rng = random.Random(f"{name}/{seed}")
    return rng.randrange(1, 2**31 - 1), round(rng.uniform(0.0, 2.0 * math.pi), 6)


def _sizes(text: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    get = lambda sec, key, default: int(parser.get(sec, key, fallback=default))
    return {
        "modes_N": get("spectrum", "n_total", 16),
        "resolved_n": get("certificate", "n", 1),
        "chart_points": get("chart", "x_count", 9),
        "orbits": get("track", "count", 4),
        "ensemble_size": get("attractor", "ensemble_size", 16),
    }


def verify_full(seed: int) -> Workload:
    noise, phase = _draws("verify_full", seed)
    text = render(
        "dirichlet_nonlinear",
        {
            "noise": {"seed": noise},
            "forcing": {"terms": f"\n2 1.0 1.0 {phase!r}"},
            "verify": {
                "checks": "invariance lipschitz tracking periodicity "
                "almost_period containment"
            },
        },
    )
    cmd = Command(
        ("verify", "--config", "verify_full.ini", "--seed", str(noise)),
        "verify",
        "verification.json",
    )
    sizes = _sizes(text)
    return Workload(
        name="verify_full",
        commands=(cmd,),
        configs={"verify_full.ini": text},
        setup_config="verify_full.ini",
        noise_seed=noise,
        meta_file="verify/verification.json",
        sizes=sizes,
        batch_b=sizes["ensemble_size"],
    )


def track_orbits(seed: int) -> Workload:
    noise, phase = _draws("track_orbits", seed)
    text = render(
        "dirichlet_nonlinear",
        {
            "noise": {"seed": noise},
            "forcing": {"terms": f"\n2 1.0 1.0 {phase!r}"},
            "track": {"count": 8},
        },
    )
    cmd = Command(
        ("track", "--config", "track_orbits.ini", "--seed", str(noise)),
        "track",
        "tracking.json",
    )
    sizes = _sizes(text)
    return Workload(
        name="track_orbits",
        commands=(cmd,),
        configs={"track_orbits.ini": text},
        setup_config="track_orbits.ini",
        noise_seed=noise,
        meta_file="track/tracking.json",
        sizes=sizes,
        batch_b=sizes["orbits"],
    )


def cli_short(seed: int) -> Workload:
    noise, _ = _draws("cli_short", seed)
    names = ("dirichlet_nonlinear", "linear_sine", "quasi_periodic")
    configs = {f"{n}.ini": render(n, {"noise": {"seed": noise}}) for n in names}
    s = ("--seed", str(noise))
    ls = ("--config", "linear_sine.ini") + s
    cmds = [
        Command(
            ("gap-scan", "--config", f"{n}.ini") + s,
            f"gap_{n}",
            "gap_scan.json",
            reference=f"gap_scan/{n}",
        )
        for n in names
    ]
    cmds += [
        Command(
            ("build-manifold",) + ls,
            "ls_build",
            "chart.csv",
            m2_target=-1.0 / 17.0,
            reference="chart/linear_sine",
        ),
        Command(("verify",) + ls, "ls_verify", "verification.json"),
        Command(("periodicity",) + ls, "ls_periodicity", "periodicity.json"),
        Command(("attractor",) + ls, "ls_attractor", "attractor.json"),
        Command(
            ("verify", "--config", "quasi_periodic.ini") + s,
            "qp_verify",
            "verification.json",
        ),
        # report renders the linear_sine verification document in place
        Command(("report",), "ls_verify", "report.txt"),
    ]
    sizes = _sizes(configs["linear_sine.ini"])
    return Workload(
        name="cli_short",
        commands=tuple(cmds),
        configs=configs,
        setup_config="linear_sine.ini",
        noise_seed=noise,
        meta_file="ls_verify/verification.json",
        sizes=sizes,
        batch_b=sizes["ensemble_size"],
    )


WORKLOADS = {w.__name__: w for w in (verify_full, track_orbits, cli_short)}
