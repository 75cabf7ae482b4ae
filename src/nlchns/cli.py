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
Flat ``key = value`` text, or a manifest.json written by an earlier run;
rerunning from it reproduces that run's series byte for byte.  The keys,
their defaults, types and domains, the presets and the loading are in
config.py, whose TABLE every loaded value is checked against, whatever
the command; ``nlchns run --help`` prints the table.  Every run's manifest
records the resolved values plus all derived constants and numerical
tolerances, so a run directory is self-describing.

Outputs
-------
series.csv       one row per accepted step (%.17g, deterministic bytes)
snapshots.json   index of field snapshots with shape/spacing/time metadata
*.fld            flat binary fields (fixed 48-byte header + row-major f64)
manifest.json    resolved config, derived constants, tolerances, status

Every command resolves its grid, kernel and potential through _physics.
One loop, _steps, owns the clock: it steps a small stepper (_Coupled or
_Transport) from t = 0 and is the only place that turns a step count and
dt into a time.  A stepper answers step(t, dt), row(t, dt) and fields().
run and run-ch drive it from _run_series, which also writes the rows and
snapshots; eps-sweep drives it once per epsilon.
diagnose only reads and writes: _audit_run reads the manifest and the
series, hands the snapshots over lazily to diagnostics.audit, which holds
every check, and run_diagnose writes the report.
The implicit CH solve, the momentum solve and the Stokes eigenvalue all
use the one conjugate-gradient loop, grid_ops.cg.

The per-row ``identity_residual`` column is the discrete energy balance
over the step ending at that row's time (first row: nan): the row applies
diagnostics.identity_residual to its energy_terms and the last row's total
energy, which the stepper keeps, as diagnostics.energy_identity_residuals
does over a snapshot trajectory.  For coupled runs it is

    [E(n+1) - E(n)]/dt + 2||sqrt(nu(phi_n)) Du_(n+1)||^2
        + ||grad mu_(n+1)||^2 - <h(t_n), u_(n+1)>

with the same frozen-coefficient convention the flow stepper uses:
_Coupled computes nu(phi) once per accepted state, hands nu(phi_n) to
ns_step and keeps it for this residual; for
transport-only runs the viscous and forcing terms are replaced by the
convective power, matching diagnostics.ch_energy_identity_residual.

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
from .config import (ConfigError, DEFAULTS, PRESETS, _apply_manifest, eps_list,
                     keys_help, load_config)
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


class RunFailure(Exception):
    """Numerical failure after outputs were flushed; maps to exit code 3."""


# ------------------------------------------------------- object assembly

Physics = namedtuple("Physics", "grid kd pspec pot")


def _physics(cfg):
    """The grid -> potential spec -> kernel -> beta -> potential chain every
    command shares; each rejection is a ConfigError.
    cfg["epsilon"] > 0 is the working family; epsilon = 0 is the
    true-singular mode whose evaluations must stay inside (-1, 1)."""
    try:
        grid = Grid(cfg["grid_nx"], cfg["grid_ny"], cfg["grid_lx"], cfg["grid_ly"])
    except GridError as exc:
        raise ConfigError("grid", str(exc)) from None
    eps = cfg["epsilon"]
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
    mean, m0 = abs(phi.mean()), cfg["m0"]
    if mean > m0:
        raise ConfigError("mean-cap", f"|mean of phi0| = {mean:.6g} exceeds the "
                                      f"cap m0 = {m0:.6g}")
    sat = float(np.max(np.abs(phi.values)))
    if sat >= 1.0:
        raise ConfigError("init", f"initial data saturates: max |phi0| = {sat:.6g}")


# the most steps a run may take: SnapshotWriter names hold 8 step digits
MAX_STEPS = 99_999_999


def _nsteps(cfg):
    dt, horizon = cfg["dt"], cfg["horizon"]
    ratio = horizon / dt
    if not ratio < MAX_STEPS + 0.5:  # round(ratio) > MAX_STEPS, or inf
        raise ConfigError(
            "time", f"horizon / dt = {ratio:.6g} steps, more than the "
                    f"{MAX_STEPS} a run may take")
    n = int(round(ratio))
    if _off_step(horizon, n, dt):
        raise ConfigError("time", f"horizon {horizon:.6g} is not an integer "
                                  f"multiple of dt {dt:.6g}")
    return n


def _off_step(t, n, dt):
    """Whether time t misses step n, n dt, by more than 1e-9 max(1, |t|);
    elementwise on arrays."""
    return np.abs(t - n * dt) > 1e-9 * np.maximum(1.0, np.abs(t))


# ------------------------------------------------------------ scenarios

def _initial_phi(cfg, grid, rng):
    """Initial order parameter.  Patterns are made mean free and rescaled
    so their peak equals init_amplitude; the resolved mean then equals
    init_mean exactly (file init is taken verbatim)."""
    if cfg["init"] == "file":
        path = cfg["init_file"]
        if not path:
            raise ConfigError("init", "init = file requires init_file")
        try:  # ScalarField rejects a wrong shape and non-finite values
            phi = ScalarField(grid, go.read_snapshot(path)[0])
        except (OSError, GridError) as exc:
            raise ConfigError("init", f"cannot load init_file: {exc}") from None
        _check_mean_cap(cfg, phi)
        return phi
    mean, amp, w = cfg["init_mean"], cfg["init_amplitude"], cfg["init_width"]
    x, y = grid.cell_mesh()
    # a width far below the spacing overflows the ratio to +-inf, which
    # tanh takes to a sharp interface's +-1
    with np.errstate(over="ignore"):
        if cfg["init"] == "constant-noise":
            pattern = 2.0 * rng.random((grid.nx, grid.ny)) - 1.0
        elif cfg["init"] == "stripe":
            d = np.abs(y - 0.5 * grid.ly) - 0.25 * grid.ly
            pattern = -np.tanh(d / w)
        else:  # bubble
            r = np.hypot(x - 0.5 * grid.lx, y - 0.5 * grid.ly)
            pattern = np.tanh((cfg["init_radius"] - r) / w)
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
    if cfg["init_u"] == "zero" or cfg["init_u_amplitude"] == 0.0:
        return go.zero_vector(grid)
    return _swirl(grid, cfg["init_u_amplitude"], "init")


def _cos_in_time(field, omega, horizon, key):
    """field scaled by cos(omega t), as a callable of time; a phase
    omega * horizon that is not finite is a ConfigError naming key."""
    if not math.isfinite(omega * horizon):
        raise ConfigError("parse", f"{key} gives angular frequency {omega:.6g}, "
                                   f"whose phase over the horizon is not finite")
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
    return _cos_in_time(steady, cfg["forcing_omega"], cfg["horizon"],
                        "forcing_omega")


def _velocity_fn(cfg, grid):
    """Prescribed transport velocity for run-ch as a callable of time."""
    kind = cfg["velocity"]
    if kind == "zero":
        still = go.zero_vector(grid)
        return lambda t: still
    steady = _swirl(grid, cfg["velocity_amplitude"], "parse")
    if kind == "swirl":
        return lambda t: steady
    return _cos_in_time(steady, 2.0 * np.pi / cfg["velocity_period"],
                        cfg["horizon"], "velocity_period")


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
    """What _run_series needs of a run command: ``step(t, dt)`` advances
    from t by dt, ``row(t, dt)`` gives the series row at t, whose residual
    balances the step of length dt from ``total``, the last row's energy
    (None before the first row), and ``fields`` the arrays to snapshot."""

    def __init__(self, cfg, phys):
        self.grid, self.kd, self.pot = phys.grid, phys.kd, phys.pot
        rng = default_rng(cfg["seed"])
        self.ch = init_state(_initial_phi(cfg, self.grid, rng), self.kd, self.pot)
        self.total = None


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
        # nu(phi) at cells and corners, of the state and of the state the
        # step just taken started from (its frozen coefficients)
        self.nu = ns.viscosity_fields(self.grid, self.ch.phi.values, self.visc)
        self.nu_n = None

    def step(self, t, dt):
        h = self.forcing(t)
        flow = ns.ns_step(self.flow, self.ch.phi, self.ch.mu, h, self.nu, dt)
        ch = ch_step(self.ch, flow.u, dt, self.kd, self.pot)
        nu = ns.viscosity_fields(self.grid, ch.phi.values, self.visc)
        # (phi, u, nu) stays a coherent state on failure
        self.ch, self.flow, self.h_n, self.nu_n, self.nu = ch, flow, h, self.nu, nu

    def row(self, t, dt):
        """Instantaneous columns (viscous dissipation, forcing power) use the
        row's own state; the residual balances the step that ended here,
        with coefficients frozen at phi_n as in the step.  Both viscous
        quadratures read one D(u); div_inf is the step's projection's."""
        grid, ch, vel = self.grid, self.ch, self.flow.u
        terms = dg.energy_terms(ch.phi, vel, self.kd, self.pot, ch.conv)
        gm2 = go.h1_seminorm(ch.mu) ** 2
        grads = go.mac_component_gradients(grid, vel.u, vel.v)
        residual = float("nan")
        if self.total is not None:
            diss = ns.dissipation(grid, *self.nu_n, grads)
            residual = dg.identity_residual(self.total, terms[3], dt, diss,
                                            gm2, _power(self.h_n, vel))
        self.total = terms[3]
        return (t, ch.phi.mean(), float(np.max(np.abs(ch.phi.values))), *terms, gm2,
                ns.dissipation(grid, *self.nu, grads),
                fprime_l1(ch.phi, self.pot), self.flow.div_inf,
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

    def step(self, t, dt):
        u = self.velocity(t)
        self.ch = ch_step(self.ch, u, dt, self.kd, self.pot)
        self.u_n = u

    def row(self, t, dt):
        """The balance over the step uses the new energy, the new mu and the
        stepping velocity."""
        ch = self.ch
        terms = dg.energy_terms(ch.phi, None, self.kd, self.pot, ch.conv)
        gm2 = go.h1_seminorm(ch.mu) ** 2
        power, residual = 0.0, float("nan")
        if self.total is not None:
            power = convective_power(self.u_n, ch.phi.values, ch.mu.values)
            residual = dg.identity_residual(self.total, terms[3], dt, 0.0,
                                            gm2, power)
        self.total = terms[3]
        return (t, ch.phi.mean(), float(np.max(np.abs(ch.phi.values))), *terms[1:], gm2,
                fprime_l1(ch.phi, self.pot), power, residual)

    def fields(self):
        return {"phi": self.ch.phi.values}


def _steps(stepper, nsteps, dt):
    """The one clock: steps stepper from t = 0 by dt, nsteps times, and
    yields (n, t_n) after step n."""
    for n in range(nsteps):
        stepper.step(n * dt, dt)
        yield n + 1, (n + 1) * dt


def _run_series(cfg, outdir, make_stepper):
    """run and run-ch: rows and snapshots along _steps, a row after every
    step, so each row balances the step before it.  A non-finite first row is
    refused before anything is written; a numerical failure flushes the
    partial series, a final snapshot and a "failed" manifest (RunFailure)."""
    phys = _physics(cfg)
    nsteps, dt, snap_every = _nsteps(cfg), cfg["dt"], cfg["snapshot_every"]
    stepper = make_stepper(cfg, phys)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [stepper.row(0.0, dt)]
    bad = [k for k, v in zip(stepper.header[:-1], rows[0]) if not math.isfinite(v)]
    if bad:  # the last column, the residual, is nan before the first step
        raise ConfigError("init", f"initial state is not finite in {', '.join(bad)}")

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

    snapshots = SnapshotWriter(outdir, grid)
    snapshots.write(0, 0.0, stepper.fields())

    error, steps_done, t = None, 0, 0.0
    try:
        for steps_done, t in _steps(stepper, nsteps, dt):
            rows.append(stepper.row(t, dt))
            if snap_every and steps_done % snap_every == 0:
                snapshots.write(steps_done, t, stepper.fields())
    except RUN_FAILURES as exc:
        error = f"{type(exc).__name__}: {exc}"

    if steps_done and not (snap_every and steps_done % snap_every == 0):
        snapshots.write(steps_done, t, stepper.fields())
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
    eps_values = eps_list(cfg["eps_grid"])
    nsteps = _nsteps(cfg)
    if nsteps == 0:
        raise ConfigError("time", "eps-sweep needs a positive horizon")
    first = _Transport(cfg, _physics({**cfg, "epsilon": eps_values[0]}))
    grid, kd, dt = first.grid, first.kd, cfg["dt"]
    # only the first run is built before anything is written; the others
    # when their turn comes, so setup and memory do not grow with eps_grid
    runs = chain([first], (_Transport(cfg, _physics({**cfg, "epsilon": eps}))
                           for eps in eps_values[1:]))

    _prepare_outdir(outdir)
    t_start = time.perf_counter()
    finals, t_final, error = [], None, None
    try:
        for eps, run in zip(eps_values, runs):
            for _, t_final in _steps(run, nsteps, dt):
                pass
            finals.append(run.ch.phi.values)
            go.write_snapshot(os.path.join(outdir, f"phi_eps_{eps:.6e}.fld"),
                              finals[-1], grid, time=t_final)
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
        "eps_grid": eps_values, "nsteps": nsteps, "t_final": t_final,
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
    """Per-epsilon potential constants over the configured grid; c_q is
    the spec's, the same for every epsilon, so d_q values are comparable."""
    eps_values = eps_list(cfg["eps_grid"])
    if any(eps <= 0.0 for eps in eps_values):
        raise ConfigError("epsilon-range",
                          "potential-table needs strictly positive epsilon")
    rows = []
    scan = np.linspace(-0.999, 0.999, 4001)
    for eps in eps_values:
        _, _, pspec, pot = _physics({**cfg, "epsilon": eps})
        rows.append((
            eps, pspec.order, pspec.alpha, pspec.alpha_star, pspec.c0,
            pspec.c_q, exhibit_dq(pot), float(pot.f(0.0)),
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
    """The options of a command that reads a config; its help ends with
    the config keys."""
    sub.epilog = keys_help()
    sub.formatter_class = argparse.RawDescriptionHelpFormatter
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
