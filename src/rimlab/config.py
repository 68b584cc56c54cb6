"""Run configuration: INI parsing, validation, and problem assembly.

A run is fully described by one flat key-value file with sections (parsed
by configparser) plus the noise seed; every output file records the SHA-256
of the file content and the effective seed so runs can be reproduced
byte for byte.  Validation failures name the offending ``section.field``.
Every value that sizes an array is checked against ``ARRAY_BUDGET_BYTES``
before anything is allocated.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import Nonlinearity
from .errors import ConfigError, RimlabError
from .forcing import ForcingSignal, TrigTerm, _scan_row_vectors
from .lyapunov_perron import backward_horizon, check_gap
from .problem import ModelProblem
from .randomness import CovarianceSpec, TimeGrid, _grid_index, sample_wiener, solve_ou, whole_steps
from .spectral import Spectrum, dirichlet_laplacian
from .tracking import forward_horizon

__all__ = ["RunConfig", "load_config", "build_problem"]

# Largest float64 array, in bytes, that one configured size may call for:
# the sampled path (grid nodes x modes), the chart grid, the tracked and
# pullback batches and the near-period scan (the tau rows it holds at its
# peak).  Far above every shipped config (the largest, the workhorse OU
# table, is about 4.0 MB), far below the memory of a small machine.
ARRAY_BUDGET_BYTES = 1 << 28


def _check_budget(field: str, rows: float, n_modes: int) -> None:
    """Refuse a (rows, n_modes) float64 array over the budget, naming ``field``."""
    size = rows * n_modes * 8.0
    if size > ARRAY_BUDGET_BYTES:
        raise ConfigError(
            f"{field}: needs an array of {rows:.4g} x {n_modes} values "
            f"({size / 2**20:.4g} MiB), over the {ARRAY_BUDGET_BYTES >> 20} MiB budget"
        )


@dataclass
class RunConfig:
    """Validated run parameters; see the README for the file schema."""

    raw_text: str
    spectrum: Spectrum
    nonlinearity: Nonlinearity
    forcing: ForcingSignal
    cov: CovarianceSpec
    seed: int
    gap_n: int
    gap_k: float
    h: float
    tol: float
    chart: dict = field(default_factory=dict)
    track: dict = field(default_factory=dict)
    attractor: dict = field(default_factory=dict)
    periodicity: dict = field(default_factory=dict)
    almost_period: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)

    def config_hash(self, seed: int) -> str:
        digest = hashlib.sha256()
        digest.update(self.raw_text.encode("utf-8"))
        digest.update(f"|seed={seed}".encode("ascii"))
        return digest.hexdigest()


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.data = dict(parser[name]) if parser.has_section(name) else {}

    def _fail(self, key: str, message: str):
        raise ConfigError(f"{self.name}.{key}: {message}")

    def build(self, key: str, make, *args, **kwargs):
        """``make(*args, **kwargs)``, its refusal named as this section's ``key``."""
        try:
            return make(*args, **kwargs)
        except RimlabError as exc:
            self._fail(key, str(exc))

    def raw(self, key: str, default=None):
        return self.data.get(key, default)

    def str(self, key: str, default=None, choices=None):
        value = self.data.get(key, default)
        if value is None:
            self._fail(key, "missing required value")
        value = str(value).strip()
        if choices is not None and value not in choices:
            self._fail(key, f"must be one of {', '.join(choices)} (got {value!r})")
        return value

    def float(self, key: str, default=None, minimum=None, maximum=None):
        value = self.data.get(key)
        if value is None:
            if default is None:
                self._fail(key, "missing required value")
            return default
        try:
            out = float(value)
        except ValueError:
            self._fail(key, f"not a number: {value!r}")
        if not math.isfinite(out):
            self._fail(key, f"must be finite (got {value!r})")
        if minimum is not None and out < minimum:
            self._fail(key, f"must be >= {minimum}")
        if maximum is not None and out > maximum:
            self._fail(key, f"must be <= {maximum}")
        return out

    def int(self, key: str, default=None, minimum=None):
        value = self.data.get(key)
        if value is None:
            if default is None:
                self._fail(key, "missing required value")
            return default
        try:
            out = int(str(value).strip())
        except ValueError:
            self._fail(key, f"not an integer: {value!r}")
        if minimum is not None and out < minimum:
            self._fail(key, f"must be >= {minimum}")
        return out

    def floats(self, key: str, default=None):
        value = self.data.get(key)
        if value is None:
            if default is None:
                self._fail(key, "missing required value")
            return default
        try:
            out = [float(tok) for tok in str(value).split()]
        except ValueError:
            self._fail(key, f"not a list of numbers: {value!r}")
        if not out:
            self._fail(key, "needs at least one number")
        if not all(math.isfinite(x) for x in out):
            self._fail(key, f"must be finite numbers (got {value!r})")
        return out

    def auto_float(self, key: str, minimum=None):
        """A float or the literal 'auto' (returned as None)."""
        value = self.data.get(key, "auto")
        if str(value).strip().lower() == "auto":
            return None
        return self.float(key, minimum=minimum)


def _parse_spectrum(sec: _Section) -> Spectrum:
    kind = sec.str("kind", "dirichlet", choices=("dirichlet", "explicit"))
    alpha = sec.float("alpha", 0.0, minimum=0.0)
    if alpha >= 0.5:
        sec._fail("alpha", "must lie in [0, 1/2)")
    if kind == "dirichlet":
        n_total = sec.int("n_total", 16, minimum=2)
        return dirichlet_laplacian(n_total, alpha)
    lams = sec.floats("lambdas")
    if len(lams) < 2:
        sec._fail("lambdas", "need at least two eigenvalues")
    return sec.build("lambdas", Spectrum, np.asarray(lams), alpha)


def _parse_nonlinearity(sec: _Section) -> Nonlinearity:
    kind = sec.str("kind", "zero", choices=("zero", "per_mode_sin"))
    if kind == "zero":
        return Nonlinearity.zero()
    return Nonlinearity.per_mode_sin(sec.float("lipschitz", minimum=0.0))


def _parse_forcing(sec: _Section, n_modes: int) -> ForcingSignal:
    form = sec.str("form", "zero", choices=("zero", "constant", "trig_sum"))
    period_raw = sec.raw("period")
    period = None if period_raw is None else sec.float("period", minimum=0.0)
    if form == "zero":
        signal = ForcingSignal(n_modes)
    elif form == "constant":
        amps = sec.floats("amplitudes")
        if len(amps) != n_modes:
            sec._fail("amplitudes", f"need {n_modes} values, got {len(amps)}")
        signal = ForcingSignal(n_modes, amps)
    else:
        signal = sec.build("terms", ForcingSignal, n_modes, terms=_parse_terms(sec))
    # every form keeps its declared period: a signal without terms has them all
    return sec.build("period", replace, signal, declared_period=period)


def _parse_terms(sec: _Section) -> list[TrigTerm]:
    raw = sec.raw("terms")
    if raw is None:
        sec._fail("terms", "missing required value")
    terms = []
    for line in str(raw).strip().splitlines():
        toks = line.split()
        if len(toks) != 4:
            sec._fail("terms", f"each row needs 'mode amplitude frequency phase': {line!r}")
        try:
            mode, amp, freq, phase = int(toks[0]), *map(float, toks[1:])
        except ValueError:
            sec._fail("terms", f"non-numeric row: {line!r}")
        if not all(map(math.isfinite, (amp, freq, phase))):
            sec._fail("terms", f"non-finite row: {line!r}")
        terms.append(sec.build("terms", TrigTerm, mode, amp, freq, phase))
    if not terms:
        sec._fail("terms", "needs at least one 'mode amplitude frequency phase' row")
    return terms


def _parse_noise(sec: _Section, n_modes: int) -> tuple[CovarianceSpec, int]:
    kind = sec.str("kind", "zero", choices=("zero", "power_law", "explicit"))
    seed = sec.int("seed", 0, minimum=0)
    if kind == "zero":
        return CovarianceSpec.zero(n_modes), seed
    if kind == "power_law":
        scale = sec.float("scale", minimum=0.0)
        exponent = sec.float("exponent", 2.0)
        return sec.build("exponent", CovarianceSpec.power_law, n_modes, scale, exponent), seed
    values = sec.floats("values")
    if len(values) != n_modes:
        sec._fail("values", f"need {n_modes} values, got {len(values)}")
    return sec.build("values", CovarianceSpec, np.asarray(values)), seed


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text") from exc
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    spectrum = _parse_spectrum(_Section(parser, "spectrum"))
    nonlinearity = _parse_nonlinearity(_Section(parser, "nonlinearity"))
    forcing = _parse_forcing(_Section(parser, "forcing"), spectrum.size)
    cov, seed = _parse_noise(_Section(parser, "noise"), spectrum.size)

    cert_sec = _Section(parser, "certificate")
    gap_n = cert_sec.int("n", minimum=1)
    gap_k = cert_sec.float("k")
    if not (0.0 < gap_k < 1.0):
        cert_sec._fail("k", "must lie in (0, 1)")
    if spectrum.size < gap_n + 4:
        # keep several unresolved modes so the graph is nontrivial
        cert_sec._fail("n", f"needs n_total >= n + 4 (n_total = {spectrum.size})")

    num = _Section(parser, "numerics")
    h = num.float("h", 1e-3, minimum=0.0)
    if h <= 0.0:
        num._fail("h", "must be positive")
    if float(np.max(spectrum.lambdas)) * h > 0.5:
        num._fail("h", f"lambda_max*h = {float(np.max(spectrum.lambdas)) * h:g} exceeds 0.5")
    tol = num.float("tol", 1e-6)
    if tol <= 0.0:
        num._fail("tol", "must be positive")

    chart_sec = _Section(parser, "chart")
    chart = {
        "tau": chart_sec.float("tau", 0.0),
        "x_mode": chart_sec.int("x_mode", 1, minimum=1),
        "x_min": chart_sec.float("x_min", -1.0),
        "x_max": chart_sec.float("x_max", 1.0),
        "x_count": chart_sec.int("x_count", 9, minimum=1),
    }
    if chart["x_mode"] > gap_n:
        chart_sec._fail("x_mode", f"must be a resolved mode (<= n = {gap_n})")
    _check_budget("chart.x_count", chart["x_count"], spectrum.size)

    track_sec = _Section(parser, "track")
    track = {
        "tau": track_sec.float("tau", 0.0),
        "count": track_sec.int("count", 4, minimum=1),
        "radius": track_sec.float("radius", 0.5, minimum=0.0),
    }

    att_sec = _Section(parser, "attractor")
    attractor = {
        "tau": att_sec.float("tau", 0.0),
        "pullback_times": att_sec.floats("pullback_times", [4.0, 8.0]),
        "ensemble_size": att_sec.int("ensemble_size", 16, minimum=1),
        "radius": att_sec.float("radius", 1.0, minimum=0.0),
    }
    if any(t <= 0.0 for t in attractor["pullback_times"]):
        att_sec._fail("pullback_times", "must be positive")
    _check_budget("attractor.ensemble_size", attractor["ensemble_size"], spectrum.size)

    per_sec = _Section(parser, "periodicity")
    periodicity = {"taus": per_sec.floats("taus", [0.0])}

    ap_sec = _Section(parser, "almost_period")
    almost_period = {
        "tau0": ap_sec.auto_float("tau0"),
        "scan_max": ap_sec.float("scan_max", 450.0, minimum=0.0),
        "scan_step": ap_sec.float("scan_step", 0.01, minimum=0.0),
        "target": ap_sec.float("target", 1e-3, minimum=0.0),
    }
    if almost_period["scan_max"] <= 1.0:
        # the scan starts at 1, so it would have no candidate to pick
        ap_sec._fail("scan_max", "must be > 1")
    if almost_period["scan_step"] <= 0.0:
        ap_sec._fail("scan_step", "must be positive")
    _check_budget(
        "almost_period.scan_step",
        almost_period["scan_max"] / almost_period["scan_step"],
        _scan_row_vectors(forcing),
    )

    ver_sec = _Section(parser, "verify")
    checks_raw = ver_sec.str("checks", "invariance lipschitz tracking")
    checks = checks_raw.split()
    if not checks:
        ver_sec._fail("checks", "needs at least one check")
    known = {"invariance", "lipschitz", "tracking", "periodicity", "almost_period", "containment"}
    for c in checks:
        if c not in known:
            ver_sec._fail("checks", f"unknown check {c!r}")
    verify = {
        "checks": checks,
        "invariance_t": ver_sec.float("invariance_t", 1.0, minimum=0.0),
    }
    if verify["invariance_t"] < h:
        # a flow of no step leaves every point where it was: the check could not fail
        ver_sec._fail("invariance_t", f"must be at least one step h = {h:g}")
    # the flow and pullback times shift the noise by whole steps (TimeGrid.index)
    ver_sec.build("invariance_t", _grid_index, verify["invariance_t"], h)
    for t in attractor["pullback_times"]:
        att_sec.build("pullback_times", _grid_index, t, h)

    return RunConfig(
        raw_text=text,
        spectrum=spectrum,
        nonlinearity=nonlinearity,
        forcing=forcing,
        cov=cov,
        seed=seed,
        gap_n=gap_n,
        gap_k=gap_k,
        h=h,
        tol=tol,
        chart=chart,
        track=track,
        attractor=attractor,
        periodicity=periodicity,
        almost_period=almost_period,
        verify=verify,
    )


def build_problem(cfg: RunConfig, seed_override: int | None = None) -> ModelProblem:
    """Assemble the model: certificate, horizons, grid sizing, OU table.

    The backward window is ``backward_horizon``, and the forward window is
    ``forward_horizon``, or the backward window where the forward operator
    has no tail to truncate; both come from one two-weight search of their
    truncation bounds, and each is rounded once to whole steps.  A
    window, or a tracked batch on the forward window, over the array
    budget is a ConfigError.

    The grid is sized once from the whole configuration (largest requested
    shift plus the OU spin-up margin), so every subcommand sees the same
    OU table for a given (config, seed).  The path is sampled and the OU
    table solved from it here, and the path is let go once it is solved:
    the problem returned is complete, holds the table alone and solves
    nothing on read.  A refusal that needs only the config comes before
    this call (``cli``), so it costs no sample and no solve.
    """
    cert = check_gap(cfg.spectrum, cfg.nonlinearity.lipschitz, cfg.gap_k, cfg.gap_n)
    t_back = backward_horizon(cert, cfg.tol)
    t_fwd = forward_horizon(cert, cfg.tol)
    if t_fwd is None:  # no tail
        t_fwd = t_back
    h = cfg.h
    # OU spin-up margin: the stationary draw's transient decays like
    # e^{-lambda_1 t}, so 10 / lambda_1 leaves e^{-10} of it
    spin_up = 10.0 / float(cfg.spectrum.lambdas[0])
    pullback = max(cfg.attractor["pullback_times"])
    invariance_t = cfg.verify["invariance_t"]

    # every window in steps, before any is rounded to steps or sampled; the
    # derived windows come first, so a step too fine for them names h
    n_modes = cfg.spectrum.size
    for name, span in (
        ("numerics.h", max(t_back, t_fwd)),
        ("spectrum.lambdas", spin_up),
        ("attractor.pullback_times", pullback),
        ("verify.invariance_t", invariance_t),
    ):
        _check_budget(name, span / h, n_modes)
    # track integrates all its orbits in one (nodes, count, modes) batch
    _check_budget("track.count", cfg.track["count"] * (t_fwd / h), n_modes)

    max_shift = max(invariance_t, pullback)
    t_back = whole_steps(t_back, h) * h
    if cert.lambda_n * t_back > 500.0:
        # LPContext refuses this window; refuse it before the path is sampled
        raise ConfigError(
            f"certificate.k, nonlinearity.lipschitz, numerics.tol: derived backward horizon "
            f"{t_back:g} too long for the resolved modes "
            f"(lambda_n * t_back = {cert.lambda_n * t_back:g} > 500)"
        )
    t_fwd = whole_steps(t_fwd, h) * h
    t_min = -(t_back + spin_up + max_shift) - h
    t_max = max(t_fwd, invariance_t) + h
    grid = TimeGrid.from_times(t_min, t_max, h)
    _check_budget("numerics.h", grid.n_nodes, n_modes)

    seed = cfg.seed if seed_override is None else int(seed_override)
    return ModelProblem(
        spectrum=cfg.spectrum,
        nonlinearity=cfg.nonlinearity,
        forcing=cfg.forcing,
        ou=solve_ou(sample_wiener(seed, grid, cfg.cov), cfg.spectrum),
        cert=cert,
        t_back=t_back,
        t_fwd=t_fwd,
        tol=cfg.tol,
    )
