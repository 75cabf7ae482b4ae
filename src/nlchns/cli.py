"""Command line front end: flat configs, presets, the run driver, reports.

Subcommands
-----------
run              coupled Cahn-Hilliard / Navier-Stokes integration
run-ch           transport-only integration with a prescribed velocity
eps-sweep        regularization refinement study (Cauchy-difference table)
diagnose         post-hoc property audit of a finished run directory
kernel-report    kernel moments and admissibility margins
potential-table  per-epsilon potential constants

Config format
-------------
Flat ``key = value`` text, one pair per line, ``#`` starts a comment.
Unknown keys are rejected.  ``--config`` also accepts a manifest.json
written by an earlier run; rerunning from it reproduces that run's
series byte for byte.  A manifest written while the config still had a
``scheme`` or ``series_every`` key loads when that key holds the one
value this version runs.  Precedence: DEFAULTS < --preset < --config file
< --seed flag.  The full key list with defaults is the DEFAULTS dict
below; every run's manifest records the resolved values plus all derived
constants and numerical tolerances, so a run directory is self-describing.

Outputs
-------
series.csv       one row per accepted step (%.17g, deterministic bytes)
snapshots.json   index of field snapshots with shape/spacing/time metadata
*.fld            flat binary fields (fixed 48-byte header + row-major f64)
manifest.json    resolved config, derived constants, tolerances, status

Every command resolves its grid, kernel and potential through _physics.
run and run-ch share one time loop, _run_series, over a small stepper
(_Coupled or _Transport) that provides step, energy_terms, row and fields;
eps-sweep keeps its own loop because it writes a Cauchy table, not a
series, but steps through _Transport too.
diagnose only reads and writes: _audit_run reads the manifest and the
series, hands the snapshots over lazily to diagnostics.audit, which holds
every check, and run_diagnose writes the report.
The implicit CH solve, the momentum solve and the Stokes eigenvalue all
use the one conjugate-gradient loop, grid_ops.cg.

The per-row ``identity_residual`` column is the discrete energy balance
over the step ending at that row's time (first row: nan), evaluated by
diagnostics.identity_residual on energies from diagnostics.energy_terms,
the formulas diagnostics.energy_identity_residuals applies to a snapshot
trajectory.  For coupled runs it is

    [E(n+1) - E(n)]/dt + 2||sqrt(nu(phi_n)) Du_(n+1)||^2
        + ||grad mu_(n+1)||^2 - <h(t_n), u_(n+1)>

with the same frozen-coefficient convention the flow stepper uses; for
transport-only runs the viscous and forcing terms are replaced by the
convective power, matching ch_step.ch_energy_identity_residual.

Exit codes: 0 success, 2 config rejection (stderr line
``error[<code>]: message``), 3 numerical failure mid-run.  On a mid-run
failure the partial series, a final snapshot, and a manifest with
status "failed" are flushed before exiting.
"""

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from itertools import chain

import numpy as np
from numpy.random import default_rng

from . import diagnostics as dg
from . import grid_ops as go
from . import ns_step as ns
from .ch_step import (
    CHError,
    MASS_DEFECT_LIMIT,
    NEWTON_MAX_OUTER,
    NEWTON_MAX_POINTWISE,
    SATURATION_GUARD,
    ch_step,
    convective_power,
    fprime_l1,
    init_state,
)
from .grid_ops import Grid, GridError, ScalarField, VectorField
from .kernel import (
    GAUSSIAN_CUTOFF_SIGMAS,
    KernelAssumptionError,
    KernelError,
    KernelSpec,
    build_kernel,
)
from .ns_step import (
    DIV_TOLERANCE,
    MOMENTUM_MAXITER,
    MOMENTUM_RTOL,
    NSError,
    ViscositySpec,
    init_ns_state,
)
from .potential import (
    EPS_MAX_DEFAULT,
    PotentialError,
    PotentialSpec,
    SingularPotential,
    build_F_eps,
    exhibit_dq,
)
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Rejected configuration; ``code`` is a stable machine-readable tag."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class RunFailure(Exception):
    """Numerical failure after outputs were flushed; maps to exit code 3."""


# --------------------------------------------------------------- schema

DEFAULTS = {
    # domain
    "grid_nx": 64, "grid_ny": 64, "grid_lx": 1.0, "grid_ly": 1.0,
    # potential
    "theta": 1.0, "theta_c": 2.0, "q": 1, "epsilon": 1e-3,
    "eps_grid": "1e-1,5e-2,2.5e-2,1.25e-2,6.25e-3",
    # kernel
    "kernel_family": "gaussian", "kernel_width": 0.1, "kernel_j_l1": 4.0,
    # viscosity
    "nu1": 0.01, "nu2": 0.02,
    # initial order parameter
    "m0": 0.9,
    "init": "constant-noise",
    "init_mean": 0.0, "init_amplitude": 0.05,
    "init_radius": 0.25, "init_width": 0.05, "init_file": "",
    # initial velocity (coupled runs)
    "init_u": "zero", "init_u_amplitude": 0.0,
    # body force (coupled runs)
    "forcing": "zero",
    "forcing_fx": 0.0, "forcing_fy": 0.0, "forcing_omega": 6.283185307179586,
    # prescribed velocity (transport-only runs)
    "velocity": "zero", "velocity_amplitude": 0.5, "velocity_period": 1.0,
    # time stepping and output cadence
    "dt": 2e-3, "horizon": 0.2, "snapshot_every": 0,
    "seed": 1234,
}

PRESETS = {
    # 1e4 steps of coupled spinodal decomposition on a 64^2 box
    "spinodal-2d": {
        "horizon": 20.0, "snapshot_every": 2000,
        "init": "constant-noise", "init_mean": 0.0, "init_amplitude": 0.05,
        "init_u": "swirl", "init_u_amplitude": 0.2,
    },
    # layered two-phase state stirred by a steady swirl, transport only
    "stripe-ch": {
        "grid_nx": 48, "grid_ny": 48,
        "init": "stripe", "init_amplitude": 0.8, "init_width": 0.08,
        "epsilon": 1e-2, "velocity": "swirl", "velocity_amplitude": 0.5,
        "horizon": 1.0,
    },
    # droplet relaxing under the nonlocal energy alone
    "bubble-ch": {
        "grid_nx": 48, "grid_ny": 48,
        "init": "bubble", "init_amplitude": 0.9, "init_radius": 0.2,
        "init_width": 0.06, "epsilon": 1e-2, "velocity": "zero",
        "horizon": 1.0,
    },
    # epsilon refinement study at T = 1.  The quench is deep (pure-phase
    # plateau about 1 - 5e-4) so every epsilon in the halving grid reshapes
    # the potential on a range the trajectory actually occupies; consecutive
    # rows of the table are then honest phi_eps vs phi_{eps/2} differences.
    "cauchy-sweep": {
        "grid_nx": 32, "grid_ny": 32,
        "theta": 0.4, "theta_c": 1.66, "kernel_j_l1": 6.0,
        "init": "stripe", "init_amplitude": 0.999, "init_width": 0.08,
        "velocity": "zero", "horizon": 1.0,
        "eps_grid": "1e-1,5e-2,2.5e-2,1.25e-2,6.25e-3,3.125e-3",
    },
}


def _coerce(key, raw):
    """Coerce a raw config value to the type of its default."""
    default = DEFAULTS[key]
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            out = int(raw.strip()) if isinstance(raw, str) else int(raw)
            if out != raw and not isinstance(raw, str):
                raise ValueError(f"{raw!r} is not an integer")
            if key == "seed" and out < 0:
                raise ValueError(f"must be nonnegative, got {out}")
            return out
        if isinstance(default, float):
            out = float(raw)
            if not math.isfinite(out):
                raise ValueError(f"{out} is not finite")
            return out
        return str(raw).strip()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("parse", f"bad value for {key}: {exc}") from None


def parse_config_text(text):
    """Flat key = value lines into a typed dict; unknown keys rejected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("parse", f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError("parse", f"line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path=None, preset=None, seed=None):
    """Resolve DEFAULTS < preset < config file (flat text or a manifest
    from an earlier run) < --seed into a complete typed dict."""
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError("preset", f"unknown preset {preset!r} (known: {known})")
        cfg.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("io", f"cannot read config: {exc}") from None
        if text.lstrip().startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError("parse", f"bad manifest json: {exc}") from None
            _apply_manifest(cfg, doc)
        else:
            cfg.update(parse_config_text(text))
    if seed is not None:
        cfg["seed"] = _coerce("seed", seed)
    return cfg


def _apply_manifest(cfg, doc):
    """Overlay the config block of a parsed manifest document onto cfg.
    Manifests from versions that had a retired key still load when it
    holds the one value this version runs."""
    retired = {"scheme": "semi-implicit-convex-split", "series_every": 1}
    items = doc.get("config")
    if not isinstance(items, dict):
        raise ConfigError("parse", "manifest has no config block")
    for key, raw in items.items():
        if key in retired:
            if raw != retired[key]:
                raise ConfigError("parse", f"manifest {key} {raw!r} is not "
                                           f"{retired[key]!r}, the one this runs")
            continue
        if key not in DEFAULTS:
            raise ConfigError("parse", f"unknown key {key!r} in manifest")
        cfg[key] = _coerce(key, raw)
    return cfg


# ------------------------------------------------------- object assembly

Physics = namedtuple("Physics", "grid kd pspec pot")


def _check_epsilon(eps):
    if not (0.0 <= eps <= EPS_MAX_DEFAULT):
        raise ConfigError(
            "epsilon-range",
            f"epsilon must lie in [0, {EPS_MAX_DEFAULT}], got {eps:.6g}",
        )


def _physics(cfg, epsilon=None):
    """The grid -> potential spec -> kernel -> beta -> potential chain every
    command shares; each rejection is a ConfigError.
    epsilon overrides cfg["epsilon"].  epsilon > 0 is the working family;
    epsilon = 0 is the true-singular mode whose evaluations must stay
    inside (-1, 1)."""
    try:
        grid = Grid(cfg["grid_nx"], cfg["grid_ny"], cfg["grid_lx"], cfg["grid_ly"])
    except GridError as exc:
        raise ConfigError("grid", str(exc)) from None
    eps = cfg["epsilon"] if epsilon is None else epsilon
    _check_epsilon(eps)
    try:
        spec = PotentialSpec(cfg["theta"], cfg["theta_c"], cfg["q"], eps)
    except PotentialError as exc:
        raise ConfigError("potential", str(exc)) from None
    try:
        kspec = KernelSpec(cfg["kernel_family"], cfg["kernel_width"], cfg["kernel_j_l1"])
        kd = build_kernel(kspec, grid)
    except KernelAssumptionError as exc:
        raise ConfigError("beta-margin", str(exc)) from None
    except KernelError as exc:
        raise ConfigError("kernel", str(exc)) from None
    try:
        pspec = spec.with_beta(kd.beta)
    except PotentialError as exc:
        raise ConfigError("beta-margin", str(exc)) from None
    try:
        pot = SingularPotential(pspec) if eps == 0.0 else build_F_eps(pspec)
    except PotentialError as exc:
        raise ConfigError("potential", str(exc)) from None
    return Physics(grid, kd, pspec, pot)


def _check_mean_cap(cfg, phi):
    m0 = cfg["m0"]
    if not (0.0 < m0 < 1.0):
        raise ConfigError("mean-cap", f"m0 must lie in (0, 1), got {m0:.6g}")
    mean = phi.mean()
    if abs(mean) > m0:
        raise ConfigError(
            "mean-cap",
            f"|mean of phi0| = {abs(mean):.6g} exceeds the cap m0 = {m0:.6g}",
        )
    sat = float(np.max(np.abs(phi.values)))
    if sat >= 1.0:
        raise ConfigError("init", f"initial data saturates: max |phi0| = {sat:.6g}")


# the most steps a run may take: SnapshotWriter names hold 8 step digits
MAX_STEPS = 99_999_999


def _nsteps(cfg):
    dt, horizon = cfg["dt"], cfg["horizon"]
    if dt <= 0.0:
        raise ConfigError("time", f"dt must be positive, got {dt:.6g}")
    if horizon < 0.0:
        raise ConfigError("time", f"horizon must be nonnegative, got {horizon:.6g}")
    if cfg["snapshot_every"] < 0:
        raise ConfigError("time", "snapshot_every must be >= 0")
    ratio = horizon / dt
    if not ratio < MAX_STEPS + 0.5:  # round(ratio) > MAX_STEPS, or inf
        raise ConfigError(
            "time", f"horizon / dt = {ratio:.6g} steps, more than the "
                    f"{MAX_STEPS} a run may take")
    n = int(round(ratio))
    if _off_step(horizon, n, dt):
        raise ConfigError(
            "time", f"horizon {horizon:.6g} is not an integer multiple of dt {dt:.6g}"
        )
    return n


def _off_step(t, n, dt):
    """Whether time t misses step n, n dt, by more than 1e-9 max(1, |t|);
    elementwise on arrays."""
    return np.abs(t - n * dt) > 1e-9 * np.maximum(1.0, np.abs(t))


def _eps_list(cfg):
    try:
        values = [float(tok) for tok in cfg["eps_grid"].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("parse", f"bad eps_grid: {exc}") from None
    if len(values) < 2:
        raise ConfigError("parse", "eps_grid needs at least two entries")
    for eps in values:
        _check_epsilon(eps)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError("epsilon-range", "eps_grid must be strictly decreasing")
    return values


# ------------------------------------------------------------ scenarios

def _initial_phi(cfg, grid, rng):
    """Initial order parameter.  Patterns are made mean free and rescaled
    so their peak equals init_amplitude; the resolved mean then equals
    init_mean exactly (file init is taken verbatim)."""
    kind = cfg["init"]
    mean, amp = cfg["init_mean"], cfg["init_amplitude"]
    x, y = grid.cell_mesh()
    if kind == "constant-noise":
        pattern = 2.0 * rng.random((grid.nx, grid.ny)) - 1.0
    elif kind == "stripe":
        w = max(cfg["init_width"], 1e-6)
        d = np.abs(y - 0.5 * grid.ly) - 0.25 * grid.ly
        pattern = -np.tanh(d / w)
    elif kind == "bubble":
        w = max(cfg["init_width"], 1e-6)
        r = np.hypot(x - 0.5 * grid.lx, y - 0.5 * grid.ly)
        pattern = np.tanh((cfg["init_radius"] - r) / w)
    elif kind == "file":
        path = cfg["init_file"]
        if not path:
            raise ConfigError("init", "init = file requires init_file")
        try:  # ScalarField rejects a wrong shape and non-finite values
            phi = ScalarField(grid, go.read_snapshot(path)[0])
        except (OSError, GridError) as exc:
            raise ConfigError("init", f"cannot load init_file: {exc}") from None
        _check_mean_cap(cfg, phi)
        return phi
    else:
        raise ConfigError("init", f"unknown init kind {kind!r}")
    pattern -= pattern.mean()
    peak = float(np.max(np.abs(pattern)))
    if peak > 0.0:
        pattern *= amp / peak
    phi = ScalarField(grid, mean + pattern)
    _check_mean_cap(cfg, phi)
    return phi


def _swirl(grid, amplitude, code):
    """Single counterclockwise cell-filling vortex; exactly divergence free.
    An amplitude whose velocity overflows is a ConfigError with code."""
    xc, yc = grid.corner_mesh()
    psi = amplitude * np.sin(np.pi * xc / grid.lx) ** 2 \
        * np.sin(np.pi * yc / grid.ly) ** 2
    try:
        return go.velocity_from_streamfunction(grid, psi)
    except GridError as exc:
        raise ConfigError(code, f"swirl amplitude {amplitude:.6g}: {exc}") from None


def _initial_velocity(cfg, grid):
    kind = cfg["init_u"]
    if kind not in ("zero", "swirl"):
        raise ConfigError("init", f"unknown init_u kind {kind!r}")
    if kind == "zero" or cfg["init_u_amplitude"] == 0.0:
        return go.zero_vector(grid)
    return _swirl(grid, cfg["init_u_amplitude"], "init")


def _cos_in_time(field, omega):
    """field scaled by cos(omega t), as a callable of time."""
    return lambda t: VectorField(field.grid, np.cos(omega * t) * field.u,
                                 np.cos(omega * t) * field.v)


def _forcing_fn(cfg, grid):
    """Body force as a callable of time (None means unforced)."""
    kind = cfg["forcing"]
    if kind == "zero":
        return lambda t: None
    fx, fy = cfg["forcing_fx"], cfg["forcing_fy"]
    bu = np.zeros((grid.nx + 1, grid.ny))
    bv = np.zeros((grid.nx, grid.ny + 1))
    bu[1:-1, :] = fx
    bv[:, 1:-1] = fy
    steady = VectorField(grid, bu, bv)
    if kind == "steady":
        return lambda t: steady
    if kind == "time-periodic":
        return _cos_in_time(steady, cfg["forcing_omega"])
    raise ConfigError("parse", f"unknown forcing kind {kind!r}")


def _velocity_fn(cfg, grid):
    """Prescribed transport velocity for run-ch as a callable of time."""
    kind = cfg["velocity"]
    if kind == "zero":
        still = go.zero_vector(grid)
        return lambda t: still
    if kind == "swirl":
        steady = _swirl(grid, cfg["velocity_amplitude"], "parse")
        return lambda t: steady
    if kind == "swirl-periodic":
        period = cfg["velocity_period"]
        if period <= 0.0:
            raise ConfigError("parse", f"velocity_period must be positive, got {period}")
        return _cos_in_time(_swirl(grid, cfg["velocity_amplitude"], "parse"),
                            2.0 * np.pi / period)
    raise ConfigError("parse", f"unknown velocity kind {kind!r}")


# --------------------------------------------------------------- output

def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_series(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class SnapshotWriter:
    """Field snapshots plus a JSON index with the binary-layout metadata."""

    def __init__(self, outdir, grid):
        self.outdir = outdir
        self.grid = grid
        self.entries = []

    def write(self, step, t, fields):
        entry = {"step": int(step), "t": float(t)}
        for name, arr in fields.items():
            fname = f"{name}_{step:08d}.fld"
            go.write_snapshot(os.path.join(self.outdir, fname), arr, self.grid, time=t)
            entry[name] = {"file": fname, "shape": list(arr.shape)}
        self.entries.append(entry)

    def flush(self):
        doc = {
            "format": "nlchns-fld-1",
            "layout": "8-byte magic NLCHFLD1, <qqddd (n0, n1, hx, hy, t), "
                      "then row-major float64",
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "lx": self.grid.lx, "ly": self.grid.ly},
            "snapshots": self.entries,
        }
        _write_json(os.path.join(self.outdir, "snapshots.json"), doc)


def _finish(outdir, command, cfg, derived, t_start, outputs, error=None):
    """Write manifest.json: resolved config, derived constants, tolerances
    and status.  A run that failed (error set) then raises RunFailure."""
    _write_json(os.path.join(outdir, "manifest.json"), {
        "format": "nlchns-manifest-1",
        "package_version": __version__,
        "command": command,
        "status": "failed" if error else "completed",
        "error": error,
        "seed": cfg["seed"],
        "config": {k: cfg[k] for k in sorted(DEFAULTS)},
        "derived": derived,
        "tolerances": {
            "mass_defect_limit": MASS_DEFECT_LIMIT,
            "saturation_guard": SATURATION_GUARD,
            "newton_max_outer": NEWTON_MAX_OUTER,
            "newton_max_pointwise": NEWTON_MAX_POINTWISE,
            "div_tolerance": DIV_TOLERANCE,
            "momentum_rtol": MOMENTUM_RTOL,
            "momentum_maxiter": MOMENTUM_MAXITER,
            "eps_max": EPS_MAX_DEFAULT,
            "gaussian_cutoff_sigmas": GAUSSIAN_CUTOFF_SIGMAS,
            "energy_prefix_tol": dg.ENERGY_PREFIX_TOL,
        },
        "outputs": outputs,
        # informational only; excluded from determinism comparisons
        "timing": {"wall_s": time.perf_counter() - t_start},
    })
    if error:
        raise RunFailure(error)
    return EXIT_OK


def _prepare_outdir(outdir):
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("io", f"cannot create output directory: {exc}") from None


# ------------------------------------------------------------- run loops

COUPLED_HEADER = (
    "t", "mass", "max_abs_phi", "kinetic", "nonlocal", "potential", "total",
    "grad_mu_sq", "visc_dissipation", "fprime_l1", "div_inf", "forcing_power",
    "identity_residual",
)

CH_HEADER = (
    "t", "mass", "max_abs_phi", "nonlocal", "potential", "total",
    "grad_mu_sq", "fprime_l1", "conv_power", "identity_residual",
)


# what a run or sweep records as a failed run (exit 3) instead of raising
RUN_FAILURES = (CHError, NSError, GridError, KernelError)


def _power(h, vel):
    return go.inner_vec(h, vel) if h is not None else 0.0


class _Stepper:
    """What _run_series needs of a run command: ``step(t)`` advances one dt,
    ``energy_terms`` gives the state's diagnostics.energy_terms,
    ``row(t, terms, prev_total)`` the series row (prev_total None before
    the first step), ``fields`` the arrays to snapshot."""

    def __init__(self, cfg, phys):
        self.grid, self.kd, self.pot = phys.grid, phys.kd, phys.pot
        self.dt = cfg["dt"]
        rng = default_rng(cfg["seed"])
        self.ch = init_state(_initial_phi(cfg, self.grid, rng), self.kd, self.pot)


class _Coupled(_Stepper):
    """run: u advances on the frozen order parameter, then phi is
    transported by the end-of-step velocity."""

    command = "run"
    header = COUPLED_HEADER

    def __init__(self, cfg, phys):
        try:
            self.visc = ViscositySpec(cfg["nu1"], cfg["nu2"])
        except NSError as exc:
            raise ConfigError("viscosity", str(exc)) from None
        self.forcing = _forcing_fn(cfg, phys.grid)
        super().__init__(cfg, phys)
        self.flow = init_ns_state(_initial_velocity(cfg, self.grid))
        self.h_n = None  # forcing of the step just taken
        self.nu = None  # nu(phi) at cells and corners of the last row's state

    def step(self, t):
        h = self.forcing(t)
        flow = ns.ns_step(self.flow, self.ch.phi, self.ch.mu, h, self.visc, self.dt)
        self.ch = ch_step(self.ch, flow.u, self.dt, self.kd, self.pot)
        self.flow = flow  # (phi, u) stays a coherent pair on failure
        self.h_n = h

    def energy_terms(self):
        return dg.energy_terms(self.ch.phi, self.flow.u, self.kd, self.pot,
                               self.ch.conv)

    def row(self, t, terms, prev_total):
        """Instantaneous columns (viscous dissipation, forcing power) use the
        row's own state; the residual is the balance over the step that
        ended here, with coefficients frozen at phi_n as in the step.  A row
        follows every step, so phi_n is the previous row's phi and its
        nu(phi_n) is the one that row kept."""
        grid, ch, vel = self.grid, self.ch, self.flow.u
        gm2 = go.h1_seminorm(ch.mu) ** 2
        div_inf, residual = 0.0, float("nan")
        if prev_total is not None:
            diss = ns.dissipation(grid, *self.nu, vel.u, vel.v)
            residual = dg.identity_residual(prev_total, terms[3], self.dt, diss,
                                            gm2, _power(self.h_n, vel))
            div_inf = float(np.max(np.abs(go.div_arrays(grid, vel.u, vel.v))))
        self.nu = ns.viscosity_fields(grid, ch.phi.values, self.visc)
        return (t, ch.phi.mean(), float(np.max(np.abs(ch.phi.values))), *terms, gm2,
                ns.dissipation(grid, *self.nu, vel.u, vel.v),
                fprime_l1(ch.phi, self.pot), div_inf,
                _power(self.forcing(t), vel), residual)

    def fields(self):
        return {"phi": self.ch.phi.values, "u": self.flow.u.u,
                "v": self.flow.u.v, "p": self.flow.pressure.values}


class _Transport(_Stepper):
    """run-ch: phi transported by a prescribed divergence-free velocity."""

    command = "run-ch"
    header = CH_HEADER

    def __init__(self, cfg, phys):
        self.velocity = _velocity_fn(cfg, phys.grid)
        super().__init__(cfg, phys)
        self.u_n = None  # velocity of the step just taken

    def step(self, t):
        u = self.velocity(t)
        self.ch = ch_step(self.ch, u, self.dt, self.kd, self.pot)
        self.u_n = u

    def energy_terms(self):
        return dg.energy_terms(self.ch.phi, None, self.kd, self.pot, self.ch.conv)

    def row(self, t, terms, prev_total):
        """The balance over the step uses the new energy, the new mu and the
        stepping velocity."""
        ch = self.ch
        gm2 = go.h1_seminorm(ch.mu) ** 2
        power, residual = 0.0, float("nan")
        if prev_total is not None:
            power = convective_power(self.u_n, ch.phi.values, ch.mu.values)
            residual = dg.identity_residual(prev_total, terms[3], self.dt, 0.0,
                                            gm2, power)
        return (t, ch.phi.mean(), float(np.max(np.abs(ch.phi.values))), *terms[1:], gm2,
                fprime_l1(ch.phi, self.pot), power, residual)

    def fields(self):
        return {"phi": self.ch.phi.values}


def _run_series(cfg, outdir, make_stepper):
    """The time loop of run and run-ch.  Each step's energies are computed
    once and feed both its row and the next row's residual.  On a numerical
    failure the partial series, a final snapshot and a manifest with status
    "failed" are written before RunFailure is raised."""
    phys = _physics(cfg)
    nsteps = _nsteps(cfg)
    stepper = make_stepper(cfg, phys)

    _prepare_outdir(outdir)
    t_start = time.perf_counter()
    grid, kd, pspec, _ = phys
    derived = {
        "hx": grid.hx, "hy": grid.hy, "area": grid.area,
        "beta": kd.beta, "a_inf": kd.a_inf,
        "j_l1_discrete": kd.j_l1_discrete, "grad_j_l1_discrete": kd.grad_j_l1,
        "c0": pspec.c0, "alpha": pspec.alpha, "alpha_star": pspec.alpha_star,
        "potential_order": pspec.order,
        "scheme_flags": {
            "ch": "semi-implicit convex splitting, implicit a phi + F', "
                  "explicit convolution and transport",
            "ns": "implicit variational viscosity, explicit conservative "
                  "advection and capillary force, incremental pressure "
                  "projection",
        },
        "nsteps": nsteps, "mass0": stepper.ch.mass0,
    }
    if nsteps == 0:
        return _finish(outdir, stepper.command, cfg, derived, t_start,
                       {"steps_completed": 0})

    dt, snap_every = cfg["dt"], cfg["snapshot_every"]
    snapshots = SnapshotWriter(outdir, grid)
    terms = stepper.energy_terms()
    rows = [stepper.row(0.0, terms, None)]
    snapshots.write(0, 0.0, stepper.fields())

    error, steps_done = None, 0
    try:
        for n in range(nsteps):
            stepper.step(n * dt)
            steps_done = n + 1
            prev_total = terms[3]
            terms = stepper.energy_terms()
            rows.append(stepper.row(steps_done * dt, terms, prev_total))
            if snap_every and steps_done % snap_every == 0:
                snapshots.write(steps_done, steps_done * dt, stepper.fields())
    except RUN_FAILURES as exc:
        error = f"{type(exc).__name__}: {exc}"

    if steps_done and not (snap_every and steps_done % snap_every == 0):
        snapshots.write(steps_done, steps_done * dt, stepper.fields())
    _write_series(os.path.join(outdir, "series.csv"), stepper.header, rows)
    snapshots.flush()
    return _finish(outdir, stepper.command, cfg, derived, t_start,
                   {"series": "series.csv", "snapshot_index": "snapshots.json",
                    "steps_completed": steps_done, "series_rows": len(rows)},
                   error)


def run_coupled(cfg, outdir):
    """Coupled Cahn-Hilliard / Navier-Stokes integration (see _Coupled)."""
    return _run_series(cfg, outdir, _Coupled)


def run_eps_sweep(cfg, outdir):
    """Rerun the same transport problem over a decreasing epsilon grid and
    tabulate the final-time differences between consecutive runs."""
    eps_values = _eps_list(cfg)
    nsteps = _nsteps(cfg)
    if nsteps == 0:
        raise ConfigError("time", "eps-sweep needs a positive horizon")
    first = _Transport(cfg, _physics(cfg, epsilon=eps_values[0]))
    grid, kd, dt = first.grid, first.kd, cfg["dt"]
    # only the first run is built before anything is written; the others
    # when their turn comes, so setup and memory do not grow with eps_grid
    runs = chain([first], (_Transport(cfg, _physics(cfg, epsilon=eps))
                           for eps in eps_values[1:]))

    _prepare_outdir(outdir)
    t_start = time.perf_counter()
    finals, error = [], None
    try:
        for eps, run in zip(eps_values, runs):
            for n in range(nsteps):
                run.step(n * dt)
            finals.append(run.ch.phi.values)
            go.write_snapshot(os.path.join(outdir, f"phi_eps_{eps:.6e}.fld"),
                              finals[-1], grid, time=nsteps * dt)
    except RUN_FAILURES as exc:
        error = f"{type(exc).__name__}: {exc}"

    rows = [(eps_values[i], eps_values[i + 1],
             go.norm_l2(ScalarField(grid, finals[i] - finals[i + 1])))
            for i in range(len(finals) - 1)]
    monotone = all(rows[i][2] > rows[i + 1][2] for i in range(len(rows) - 1))
    _write_series(os.path.join(outdir, "eps_sweep.csv"),
                  ("eps_coarse", "eps_fine", "l2_difference"), rows)
    derived = {
        "hx": grid.hx, "hy": grid.hy, "beta": kd.beta, "a_inf": kd.a_inf,
        "eps_grid": eps_values, "nsteps": nsteps, "t_final": nsteps * dt,
        "cauchy_table": [list(r) for r in rows],
        "monotone_decreasing": bool(monotone and len(rows) >= 2),
        "completed_runs": len(finals),
    }
    return _finish(outdir, "eps-sweep", cfg, derived, t_start,
                   {"table": "eps_sweep.csv", "completed_runs": len(finals)},
                   error)


# -------------------------------------------------------------- diagnose

def _snapshots(rundir, grid, dt, singular):
    """(t, phi) of each entry of the run's snapshot index, each file read
    only when its pair is drawn.  An entry's step must be a count and its t
    a number at step dt.  In a singular (epsilon = 0) run every snapshot
    must hold |phi| < 1, the potential's domain."""
    try:
        with open(os.path.join(rundir, "snapshots.json")) as fh:
            entries = list(json.load(fh)["snapshots"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError("io", f"bad snapshot index: {exc}") from None
    for entry in entries:
        try:
            step, t = entry["step"], entry["t"]
            values, _meta = go.read_snapshot(
                os.path.join(rundir, entry["phi"]["file"]))
            phi = ScalarField(grid, values)
        except (OSError, GridError, KeyError, TypeError) as exc:
            raise ConfigError("io", f"bad snapshot: {exc}") from None
        # step is a count and t a number at step dt; the bound on |t|
        # refuses nan, inf and an int past a float's range
        if not (type(step) is int and 0 <= step <= MAX_STEPS
                and type(t) in (int, float) and abs(t) <= sys.float_info.max
                and not _off_step(t, step, dt)):
            raise ConfigError("io", f"bad snapshot index: step {step!r} at "
                                    f"t {t!r} is not a step of dt {dt:.6g}")
        if singular and np.max(np.abs(values)) >= 1.0:
            raise ConfigError("io", f"bad snapshot: {entry['phi']['file']} holds "
                                    "|phi| >= 1, outside the singular potential's "
                                    "domain")
        yield t, phi


def _audit_run(rundir):
    """diagnostics.audit over a run directory: reads the manifest and the
    series, hands the snapshots over lazily, and returns the manifest, the
    checks and the gradient-bound rows.  Bad input is a ConfigError."""
    try:
        with open(os.path.join(rundir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("io", f"cannot read manifest: {exc}") from None
    if not isinstance(manifest, dict) or \
            manifest.get("command") not in ("run", "run-ch"):
        raise ConfigError("io", "diagnose needs a run or run-ch directory")
    cfg = _apply_manifest(dict(DEFAULTS), manifest)
    grid, kd, _, pot = _physics(cfg)
    _nsteps(cfg)  # the audit weighs every residual by dt
    coupled = manifest["command"] == "run"
    header = COUPLED_HEADER if coupled else CH_HEADER
    try:
        with open(os.path.join(rundir, "series.csv")) as fh:
            names = tuple(name.strip() for name in fh.readline().split(","))
            rows = [line for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError("io", f"cannot read series: {exc}") from None
    # no rows is refused here: np.loadtxt would warn on stderr first
    if names != header or not rows:
        raise ConfigError("io", "series.csv needs the header "
                                f"{','.join(header)} and at least one row")
    try:
        body = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError("io", f"cannot read series: {exc}") from None
    if body.shape[1] != len(header):
        raise ConfigError("io", f"series.csv rows need {len(header)} columns, "
                                f"got {body.shape[1]}")
    series = dict(zip(header, body.T))
    # the columns the audit reads; a run writes the first row's residual,
    # which no step precedes, as nan
    audited = {name: series[name] for name in
               ("t", "mass", "max_abs_phi", "total", "div_inf") if name in series}
    audited["identity_residual"] = series["identity_residual"][1:]
    for name, column in audited.items():
        if not np.all(np.isfinite(column)):
            raise ConfigError("io", f"series.csv {name} must be finite")
    # a run's mean stays inside the cap m0 < 1; the audit evaluates F there
    if not np.all(np.abs(series["mass"]) < 1.0):
        raise ConfigError("io", "series.csv mass must lie in (-1, 1)")
    # row n is written at t = n dt
    t, dt = series["t"], cfg["dt"]
    if np.any(_off_step(t, np.arange(t.size), dt)):
        raise ConfigError("io", f"series.csv t is not n dt for the manifest's "
                                f"dt {dt:.6g}")

    snapshots = None
    if os.path.exists(os.path.join(rundir, "snapshots.json")):
        snapshots = _snapshots(rundir, grid, dt, cfg["epsilon"] == 0.0)
    forced = (cfg["forcing"] != "zero") if coupled else (cfg["velocity"] != "zero")
    return (manifest, *dg.audit(series, snapshots, dt, coupled, forced,
                                cfg["nu1"], kd, pot))


def run_diagnose(rundir, outdir=None):
    """Audit a finished run directory (_audit_run, diagnostics.audit):
    conservation, saturation, the energy balance direction, the gradient
    comparison bound, and the decay envelope.  Results go to diagnose.json,
    per-snapshot bound margins to a CSV, one pass/FAIL line per check to
    stdout."""
    outdir = outdir or rundir
    manifest, checks, bound_rows = _audit_run(rundir)
    report = {
        "rundir": os.path.abspath(rundir),
        "run_status": manifest.get("status"),
        "command": manifest.get("command"),
        "checks": checks,
        "all_passed": all(c.get("passed", True) for c in checks.values()),
    }
    _prepare_outdir(outdir)
    _write_json(os.path.join(outdir, "diagnose.json"), report)
    if bound_rows:
        _write_series(os.path.join(outdir, "gradient_bound.csv"),
                      ("t", "grad_mu_sq", "comparison_rhs", "margin"),
                      bound_rows)
    for name, chk in checks.items():
        flag = "pass" if chk.get("passed", True) else "FAIL"
        print(f"{name}: {flag}")
    return EXIT_OK


# --------------------------------------------------------------- reports

def run_kernel_report(cfg, outdir=None):
    grid, kd, pspec, _ = _physics(cfg)
    report = kd.report()
    report["beta_margin"] = pspec.c0
    report["grid"] = {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly}
    report["width_cells"] = cfg["kernel_width"] / grid.hx
    if outdir:
        _prepare_outdir(outdir)
        _write_json(os.path.join(outdir, "kernel_report.json"), report)
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK


def run_potential_table(cfg, outdir=None):
    """Per-epsilon potential constants over the configured grid; the
    comparison constant c_q is shared so d_q values are comparable."""
    eps_values = _eps_list(cfg)
    if any(eps <= 0.0 for eps in eps_values):
        raise ConfigError("epsilon-range",
                          "potential-table needs strictly positive epsilon")
    rows = []
    c_q = None
    scan = np.linspace(-0.999, 0.999, 4001)
    for eps in eps_values:
        _, _, pspec, pot = _physics(cfg, epsilon=eps)
        if c_q is None:
            c_q = pot.c_q
        d_q = exhibit_dq(pot, c_q=c_q)
        rows.append((
            eps, pspec.order, pspec.alpha, pspec.alpha_star, pspec.c0,
            c_q, d_q, float(pot.f(0.0)),
            float(np.min(pot.fsecond(scan))),
        ))
    header = ("epsilon", "order", "alpha", "alpha_star", "c0",
              "c_q", "d_q", "f_at_zero", "fsecond_min_scan")
    if outdir:
        _prepare_outdir(outdir)
        _write_series(os.path.join(outdir, "potential_table.csv"), header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return EXIT_OK


# ------------------------------------------------------------------ main

def _add_common(sub, out_required):
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="flat key=value file or a manifest.json to rerun")
    sub.add_argument("--preset", metavar="NAME", default=None,
                     help="named scenario: " + ", ".join(sorted(PRESETS)))
    sub.add_argument("--seed", metavar="U64", type=int, default=None,
                     help="override the rng seed")
    sub.add_argument("--out", metavar="DIR", default=None,
                     required=out_required, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlchns",
        description="Nonlocal Cahn-Hilliard-Navier-Stokes runs and reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "run-ch", "eps-sweep"):
        sub = subs.add_parser(name)
        _add_common(sub, out_required=True)
    sub = subs.add_parser("diagnose")
    sub.add_argument("rundir", help="directory written by run or run-ch")
    sub.add_argument("--out", metavar="DIR", default=None,
                     help="report directory (default: the run directory)")
    for name in ("kernel-report", "potential-table"):
        sub = subs.add_parser(name)
        _add_common(sub, out_required=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "diagnose":
            return run_diagnose(args.rundir, args.out)
        cfg = load_config(args.config, args.preset, args.seed)
        if args.command == "run":
            return run_coupled(cfg, args.out)
        if args.command == "run-ch":
            return _run_series(cfg, args.out, _Transport)
        if args.command == "eps-sweep":
            return run_eps_sweep(cfg, args.out)
        if args.command == "kernel-report":
            return run_kernel_report(cfg, args.out)
        return run_potential_table(cfg, args.out)
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RunFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
