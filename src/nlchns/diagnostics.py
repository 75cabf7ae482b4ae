"""Energy accounting, the discrete energy identity, the dissipative
estimate, the audit behind ``nlchns diagnose``, and a trajectory metric
for comparing runs.

Energy of a state (phi, u):

    E = 1/2 ||u||^2  +  1/4 iint J(x-y) (phi(x) - phi(y))^2  +  int F(phi)

The nonlocal quadratic term is evaluated through the convolution,
(1/2)<a phi, phi> - (1/2)<phi, J*phi>, which agrees with the double sum
identically because both use the same kernel table and cell quadrature
(the tests hold a direct O(N^2) double sum as the cross-check oracle).

The identity residual follows the stepper's conventions: viscous
dissipation is evaluated with coefficients frozen at the start-of-step
concentration against the end-of-step velocity, the chemical dissipation
and transport power at the end-of-step state, and the forcing power pairs
the start-of-step force with the end-of-step velocity:

    r_n = [E_{n+1} - E_n]/dt + 2||sqrt(nu(phi_n)) D u_{n+1}||^2
          + ||grad mu_{n+1}||^2 - <h_n, u_{n+1}>

For the exact time discretization the residual is O(dt) on smooth data,
and its cumulative integral stays nonpositive up to roundoff (the scheme
dissipates at least as much as the identity claims).  energy_terms and
identity_residual are the one energy formula and the one residual formula:
the run series and both identities here, the coupled
energy_identity_residuals and the transport-only
ch_energy_identity_residual, evaluate them in the same float order.
scheme_law_residuals is the balance the convex-split CH step satisfies
with its own chemical potential, mu~ = a phi1 + F'(phi1) - J*phi0; its
running prefix stays at roundoff, where that of the r_n above, with
mu1 = a phi1 + F'(phi1) - J*phi1, can climb by O(dt).

audit holds every check of ``nlchns diagnose`` (mass, saturation, energy
direction, incompressibility, the gradient comparison bound per snapshot
and the decay envelope) over a run's series columns, settings and
snapshot fields.  It opens no file: cli reads the run directory, maps bad
input to exit codes and writes the report.

Trajectory distance: a sum of five nonnegative terms, each a norm of the
difference (or the square root of a gap), so symmetry and the triangle
inequality hold term by term:

    sup_t ( ||du|| + ||dphi||_{L^{2+2q}} )
  + sup over unit windows of the windowed L^2 of V-norms of differences
  + windowed L^{4/3} of velocity difference quotients in the dual
    (Stokes-inverse) gradient seminorm
  + windowed L^2 of concentration difference quotients in the dual
    Neumann seminorm
  + sqrt( sup_t | int F(phi_a) - int F(phi_b) | )

Windows have unit length; a horizon shorter than one window degenerates
to a single truncated window over the whole trajectory.
"""

from dataclasses import dataclass

import numpy as np

from . import grid_ops as go
from . import ns_step
from .ch_step import MASS_DEFECT_LIMIT, chemical_potential, convective_power
from .grid_ops import ScalarField, VectorField

WINDOW_WIDTH = 1.0
ENERGY_PREFIX_TOL = 1e-8  # no running prefix of sum(r_n dt) may exceed this


class DiagnosticsError(Exception):
    pass


# ---------------------------------------------------------------- energy

def nonlocal_energy(phi, kernel, conv=None):
    """1/4 iint J(x-y)(phi(x)-phi(y))^2 via the convolution form.  conv,
    when given, is J*phi already computed for these values."""
    p = phi.values
    if conv is None:
        conv = kernel.convolve_raw(p)
    val = 0.5 * float(np.sum(p * (kernel.a_field.values * p - conv))) \
        * phi.grid.cell_volume
    return val


def potential_energy(phi, feps):
    return float(np.sum(feps.f(phi.values))) * phi.grid.cell_volume


def energy_terms(phi, vel, kernel, feps, conv=None):
    """(kinetic, nonlocal, potential, total) of a state; vel None means no
    flow (kinetic 0).  conv: J*phi if already computed (CHState.conv)."""
    kin = 0.0 if vel is None else ns_step.kinetic_energy(vel)
    nl = nonlocal_energy(phi, kernel, conv)
    pot = potential_energy(phi, feps)
    return kin, nl, pot, kin + nl + pot


def identity_residual(e0, e1, dt, visc_dissipation, grad_mu_sq, power):
    """r_n of the module docstring from its parts: the energies at both ends
    of the step and the step's dissipation and forcing (or transport) power."""
    return (e1 - e0) / dt + visc_dissipation + grad_mu_sq - power


# ------------------------------------------------------------ trajectory

@dataclass
class Trajectory:
    """Uniformly sampled run history.  Times are canonical, k dt, so
    translation composes exactly."""

    grid: go.Grid
    dt: float
    phis: np.ndarray     # (n, nx, ny)
    us: np.ndarray       # (n, nx+1, ny)
    vs: np.ndarray       # (n, nx, ny+1)

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise DiagnosticsError(f"dt must be positive, got {self.dt}")
        self.phis = np.asarray(self.phis, dtype=float)
        self.us = np.asarray(self.us, dtype=float)
        self.vs = np.asarray(self.vs, dtype=float)
        n = self.phis.shape[0]
        nx, ny = self.grid.nx, self.grid.ny
        if self.phis.shape != (n, nx, ny) or self.us.shape != (n, nx + 1, ny) \
                or self.vs.shape != (n, nx, ny + 1):
            raise DiagnosticsError("trajectory array shapes are inconsistent")
        if n < 1:
            raise DiagnosticsError("trajectory needs at least one snapshot")
        if not (np.all(np.isfinite(self.phis)) and np.all(np.isfinite(self.us))
                and np.all(np.isfinite(self.vs))):
            raise DiagnosticsError("trajectory contains non-finite data")
        means = self.phis.mean(axis=(1, 2))
        if np.max(np.abs(means)) >= 1.0:
            raise DiagnosticsError("concentration mean escaped (-1, 1)")

    @property
    def n_snapshots(self):
        return self.phis.shape[0]

    @property
    def times(self):
        return self.dt * np.arange(self.n_snapshots)

    @property
    def horizon(self):
        return float(self.dt * (self.n_snapshots - 1))

    def phi(self, k):
        return ScalarField(self.grid, self.phis[k])

    def vel(self, k):
        return VectorField(self.grid, self.us[k], self.vs[k])


def translate(traj, t_shift):
    """Drop the first t_shift of the trajectory and restart the clock at 0.

    t_shift must align with the snapshot grid; shifting to or beyond the
    final snapshot is an error.  Times are regenerated as k * dt, so
    translate(a) then translate(b) equals translate(a + b) bitwise."""
    if t_shift < -1e-9 * traj.dt:
        raise DiagnosticsError("translation must be forward in time")
    steps = int(round(t_shift / traj.dt))
    if abs(steps * traj.dt - t_shift) > 1e-9 * max(traj.dt, 1.0):
        raise DiagnosticsError(
            f"shift {t_shift} is not a multiple of dt = {traj.dt}")
    if steps >= traj.n_snapshots:
        raise DiagnosticsError("translation exceeds the trajectory horizon")
    return Trajectory(traj.grid, traj.dt, traj.phis[steps:].copy(),
                      traj.us[steps:].copy(), traj.vs[steps:].copy())


# ------------------------------------------------------- energy identity

def energy_identity_residuals(traj, kernel, feps, visc):
    """Residual series r_n, n = 0 .. n_snapshots - 2, per the module
    docstring for an unforced run (h = 0), with chemical potentials
    recomputed from phi as the stepper does."""
    n = traj.n_snapshots
    if n < 2:
        raise DiagnosticsError("need at least two snapshots for residuals")
    energies = np.empty(n)
    for k in range(n):
        energies[k] = energy_terms(traj.phi(k), traj.vel(k), kernel, feps)[3]
    out = np.empty(n - 1)
    for k in range(n - 1):
        mu_next = chemical_potential(traj.phi(k + 1), kernel, feps)
        nu_c, nu_n = ns_step.viscosity_fields(traj.grid, traj.phis[k], visc)
        grads = go.mac_component_gradients(traj.grid, traj.us[k + 1], traj.vs[k + 1])
        diss_v = ns_step.dissipation(traj.grid, nu_c, nu_n, grads)
        diss_m = go.h1_seminorm(mu_next) ** 2
        out[k] = identity_residual(energies[k], energies[k + 1], traj.dt,
                                   diss_v, diss_m, 0.0)
    return out


def ch_energy_identity_residual(states, u, kd, pot, dt):
    """Per-step residuals of the standalone CH energy balance over a list
    of CHState,

        [E(phi1) - E(phi0)]/dt + ||grad mu1||^2 - <u phibar1, grad mu1>.

    First order in dt for the semi-implicit scheme; identically zero on
    constant states."""
    energies = [energy_terms(s.phi, None, kd, pot)[3] for s in states]
    out = np.empty(len(states) - 1)
    for n in range(len(states) - 1):
        s1 = states[n + 1]
        power = convective_power(u, s1.phi.values, s1.mu.values) if u is not None else 0.0
        out[n] = identity_residual(energies[n], energies[n + 1], dt, 0.0,
                                   go.h1_seminorm(s1.mu) ** 2, power)
    return out


def scheme_law_residuals(states, u, kd, pot, dt):
    """Per-step residuals of the energy law that the convex-split CH step
    satisfies (Eyre 1998; Guan, Wang & Wise, Numer. Math. 128 (2014)) over
    a list of CHState,

        [E(phi1) - E(phi0)]/dt + ||grad mu~||^2 - <u phibar0, grad mu~>,

    with the scheme's own chemical potential mu~ = a phi1 + F'(phi1) - J*phi0
    (the convolution explicit, as the step takes it) and the transport flux
    at phi0, as the step advects.  mu~ and ch_energy_identity_residual's
    mu1 = a phi1 + F'(phi1) - J*phi1 differ by J*(phi1 - phi0), O(dt) with
    no sign."""
    energies = [energy_terms(s.phi, None, kd, pot, s.conv)[3] for s in states]
    out = np.empty(len(states) - 1)
    for n in range(len(states) - 1):
        s0, s1 = states[n], states[n + 1]
        mu = chemical_potential(s1.phi, kd, pot, s0.conv)
        power = convective_power(u, s0.phi.values, mu.values) if u is not None else 0.0
        out[n] = identity_residual(energies[n], energies[n + 1], dt, 0.0,
                                   go.h1_seminorm(mu) ** 2, power)
    return out


def running_cumulative(residuals, dt):
    """Prefix sums of r_n dt.  The continuum energy balance caps these at
    zero (energy is never gained beyond the forcing account); an implicit
    scheme sits on the negative side by its numerical dissipation, so the
    meaningful audit is that no prefix climbs above roundoff tolerance."""
    return np.cumsum(np.asarray(residuals, dtype=float)) * dt


def observed_order(dts, values):
    """Least-squares slope of log(value) against log(dt)."""
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise DiagnosticsError("order estimate needs positive values")
    slope = np.polyfit(np.log(dts), np.log(values), 1)[0]
    return float(slope)


# --------------------------------------------------- dissipative estimate

def dissipative_estimate_check(times, energies, k, floor):
    """Check E(t) <= E(0) exp(-k t) + floor + K with K fitted once.

    K is the largest deficit over the fit window [0, fit_time], fit_time =
    min(2/k, a quarter of the horizon), and is then frozen; every later
    snapshot must sit under the bound, up to a relative slack of 1e-12.
    A horizon shorter than 5/k cannot distinguish the decay from its
    transient, so the status is "inconclusive" rather than pass or fail;
    so is a single sample, whose horizon is 0."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape or times.ndim != 1 or times.size < 1:
        raise DiagnosticsError("times/energies must be matching 1d arrays")
    if not (k > 0.0):
        raise DiagnosticsError("decay rate k must be positive")
    horizon = times[-1] - times[0]
    result = {"k": k, "floor": floor, "horizon": float(horizon),
              "required_horizon": 5.0 / k}
    if horizon < 5.0 / k:
        result.update(status="inconclusive", K=None, first_violation=None)
        return result
    t = times - times[0]
    bound_core = energies[0] * np.exp(-k * t) + floor
    fit_time = min(2.0 / k, horizon / 4.0)
    fit_mask = t <= fit_time
    K = max(0.0, float(np.max(energies[fit_mask] - bound_core[fit_mask])))
    scale = max(abs(energies[0]), abs(floor), 1.0)
    margin = energies - (bound_core + K)
    check_mask = ~fit_mask
    bad = np.flatnonzero(check_mask & (margin > 1e-12 * scale))
    result.update(K=K, fit_time=float(fit_time),
                  max_margin=float(np.max(margin[check_mask])) if
                  np.any(check_mask) else None)
    if bad.size:
        result.update(status="violated", first_violation=float(times[bad[0]]))
    else:
        result.update(status="satisfied", first_violation=None)
    return result


# -------------------------------------------------- chemical lower bound

def gradient_bound_check(phi, mu, kernel, c0):
    """||grad mu||^2 >= (c0^2/4) ||grad phi||^2 - 2 ||grad J||_{L1}^2 ||phi||^2.

    Returns both sides; satisfied means lhs >= rhs - roundoff slack."""
    lhs = go.h1_seminorm(mu) ** 2
    rhs = 0.25 * c0**2 * go.h1_seminorm(phi) ** 2 \
        - 2.0 * kernel.grad_j_l1**2 * go.norm_l2(phi) ** 2
    scale = max(abs(lhs), abs(rhs), 1.0)
    return {"lhs": lhs, "rhs": rhs,
            "satisfied": bool(lhs >= rhs - 1e-12 * scale)}


# ------------------------------------------------------------------ audit

def audit(series, snapshots, dt, coupled, forced, nu1, kernel, pot):
    """The checks of ``nlchns diagnose`` over one run, opening no file.

    series maps the series.csv column names to arrays; snapshots is None
    when the run kept no snapshot index, else an iterable of (t, phi)
    pairs, first drawn after the series checks.  dt, coupled (a ``run``
    rather than a ``run-ch``), forced (a body force or a stirring
    velocity) and nu1 are the run's settings; the grid is the kernel's and
    c0 the potential's.  Returns the checks, by name, and the gradient
    bound's rows (t, ||grad mu||^2, comparison rhs, margin), one per
    snapshot."""
    grid = kernel.grid
    checks = {}
    mass = series["mass"]
    drift = float(np.max(np.abs(mass - mass[0])))
    checks["mass_conservation"] = {
        "max_drift": drift, "tolerance": MASS_DEFECT_LIMIT,
        "passed": drift <= MASS_DEFECT_LIMIT,
    }
    sat = float(np.max(series["max_abs_phi"]))
    checks["saturation"] = {"max_abs_phi": sat, "passed": sat < 1.0}

    residuals = series["identity_residual"][1:]
    if residuals.size:
        prefixes = running_cumulative(residuals, dt)
        peak = float(prefixes.max())
        checks["energy_direction"] = {
            "max_prefix": peak,
            "cumulative": float(prefixes[-1]),
            "tolerance": ENERGY_PREFIX_TOL,
            "passed": peak <= ENERGY_PREFIX_TOL,
        }
    if coupled:
        div_max = float(np.max(series["div_inf"]))
        checks["incompressibility"] = {
            "max_div_inf": div_max, "tolerance": ns_step.DIV_TOLERANCE,
            "passed": div_max <= ns_step.DIV_TOLERANCE,
        }

    bound_rows = []
    if snapshots is not None:
        bound_ok = True
        worst = np.inf
        for t, phi in snapshots:
            mu = chemical_potential(phi, kernel, pot)
            res = gradient_bound_check(phi, mu, kernel, pot.spec.c0)
            margin = res["lhs"] - res["rhs"]
            worst = min(worst, margin)
            bound_ok = bound_ok and res["satisfied"]
            bound_rows.append((t, res["lhs"], res["rhs"], margin))
        checks["gradient_bound"] = {
            "snapshots": len(bound_rows),
            "min_margin": float(worst) if bound_rows else None,
            "passed": bound_ok,
        }

    # external work (body force or stirring) voids the unforced estimate
    if forced:
        checks["dissipative_envelope"] = {"status": "skipped (forced run)"}
        return checks, bound_rows
    try:
        lam1 = ns_step.stokes_lambda1(grid) if coupled else None
    except ns_step.NSError as exc:
        checks["dissipative_envelope"] = {
            "status": "error", "error": f"{type(exc).__name__}: {exc}",
            "passed": False,
        }
        return checks, bound_rows
    k = min(0.5, nu1 * lam1) if coupled else 0.5
    floor = float(pot.f(np.array(mass[0]))) * grid.area
    envelope = dissipative_estimate_check(series["t"], series["total"], k, floor)
    checks["dissipative_envelope"] = {
        "k": k, "floor": floor, "lambda1": lam1,
        "status": envelope["status"], "K": envelope["K"],
        "first_violation": envelope["first_violation"],
        "passed": envelope["status"] in ("satisfied", "inconclusive"),
    }
    return checks, bound_rows


# ------------------------------------------------------ trajectory metric

def _window_starts(times, width):
    """Indices s such that [t_s, t_s + width] fits inside the horizon;
    degenerate horizons yield the single full window."""
    horizon = times[-1] - times[0]
    if horizon <= width + 1e-12:
        return [0]
    starts = [s for s in range(len(times))
              if times[s] + width <= times[-1] + 1e-12]
    return starts


def _windowed_norm(times, values, dt, power):
    """sup over unit windows of (sum values^power dt)^(1/power)."""
    values = np.asarray(values, dtype=float)
    best = 0.0
    for s in _window_starts(times, WINDOW_WIDTH):
        mask = (times >= times[s] - 1e-12) & (times <= times[s] + WINDOW_WIDTH + 1e-12)
        val = float(np.sum(values[mask] ** power) * dt) ** (1.0 / power)
        best = max(best, val)
    return best


def trajectory_metric(a, b, feps):
    """Distance between two runs; see the module docstring for the terms.
    Requires matching grids, step sizes, and horizons."""
    if a.grid != b.grid:
        raise DiagnosticsError("trajectory grids do not match")
    if a.dt != b.dt or a.n_snapshots != b.n_snapshots:
        raise DiagnosticsError("trajectory samplings do not match")
    grid = a.grid
    dt = a.dt
    n = a.n_snapshots
    p_exp = 2.0 + 2.0 * feps.spec.q

    du = a.us - b.us
    dv = a.vs - b.vs
    dphi = a.phis - b.phis

    sup_state = 0.0
    vnorm_sq = np.empty(n)
    pot_gap = 0.0
    for k in range(n):
        w = VectorField(grid, du[k], dv[k])
        f = ScalarField(grid, dphi[k])
        u_l2 = go.vector_l2(w)
        sup_state = max(sup_state, u_l2 + go.norm_lp(f, p_exp))
        vnorm_sq[k] = (u_l2**2 + go.vector_h1_seminorm(w) ** 2
                       + go.norm_l2(f) ** 2 + go.h1_seminorm(f) ** 2)
        gap = abs(potential_energy(a.phi(k), feps)
                  - potential_energy(b.phi(k), feps))
        pot_gap = max(pot_gap, gap)

    times = a.times
    d_window_v = _windowed_norm(times, np.sqrt(vnorm_sq), dt, 2.0)

    d_quot_u = 0.0
    d_quot_phi = 0.0
    if n >= 2:
        qu_norms = np.empty(n - 1)
        qphi_norms = np.empty(n - 1)
        for k in range(n - 1):
            qu = (du[k + 1] - du[k]) / dt
            qv = (dv[k + 1] - dv[k]) / dt
            qu_norms[k] = ns_step.stiffness_dual_norm(grid, qu, qv)
            qp = (dphi[k + 1] - dphi[k]) / dt
            qp = qp - qp.mean()  # means cancel exactly up to roundoff
            qphi_norms[k] = go.v0prime_norm(ScalarField(grid, qp))
        d_quot_u = _windowed_norm(times[:-1], qu_norms, dt, 4.0 / 3.0)
        d_quot_phi = _windowed_norm(times[:-1], qphi_norms, dt, 2.0)

    return float(sup_state + d_window_v + d_quot_u + d_quot_phi
                 + np.sqrt(pot_gap))
