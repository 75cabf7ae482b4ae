"""Energy bookkeeping, identity residuals, the dissipative estimate,
translation semigroup, and the trajectory metric axioms."""

import numpy as np
import pytest

from nlchns import cli
from nlchns import diagnostics as dg
from nlchns import grid_ops as go
from nlchns import ns_step
from nlchns.ch_step import chemical_potential, ch_step, init_state
from nlchns.config import load_config
from nlchns.grid_ops import Grid, ScalarField
from nlchns.kernel import KernelSpec, build_kernel
from nlchns.potential import PotentialSpec, build_F_eps

GRID = Grid(16, 16, 1.0, 1.0)
KD = build_kernel(KernelSpec("gaussian", 0.15, 4.0), GRID)
SPEC = PotentialSpec(1.0, 2.0, 1, 1e-2).with_beta(KD.beta)
FEPS = build_F_eps(SPEC)
VISC = ns_step.ViscositySpec(0.05, 0.2)


def nonlocal_energy_direct(phi, kernel):
    """O(N^2) double-sum reference; keep to small grids."""
    grid = phi.grid
    nx, ny = grid.nx, grid.ny
    p = phi.values
    jt = kernel.Jtab
    total = 0.0
    for i in range(nx):
        for j in range(ny):
            block = jt[nx - 1 - i:2 * nx - 1 - i, ny - 1 - j:2 * ny - 1 - j]
            total += np.sum(block * (p[i, j] - p) ** 2)
    return 0.25 * total * grid.cell_volume ** 2


def smooth_field(grid, seed, amplitude=0.4):
    rng = np.random.default_rng(seed)
    x, y = grid.cell_mesh()
    vals = np.zeros((grid.nx, grid.ny))
    for kx in range(3):
        for ky in range(3):
            c = rng.standard_normal()
            vals += c * np.cos(kx * np.pi * x / grid.lx) \
                * np.cos(ky * np.pi * y / grid.ly)
    vals *= amplitude / max(np.abs(vals).max(), 1e-30)
    return ScalarField(grid, vals)


def smooth_velocity(grid, seed, amplitude=0.1):
    rng = np.random.default_rng(seed)
    xc, yc = grid.corner_mesh()
    psi = np.zeros((grid.nx + 1, grid.ny + 1))
    for kx in (1, 2):
        for ky in (1, 2):
            psi += rng.standard_normal() \
                * np.sin(kx * np.pi * xc / grid.lx) ** 2 \
                * np.sin(ky * np.pi * yc / grid.ly) ** 2
    psi *= amplitude / max(np.abs(psi).max(), 1e-30)
    return go.velocity_from_streamfunction(grid, psi)


def run_coupled_snapshots(grid, kd, spec, feps, nsteps, dt, seed=5,
                          amplitude=0.3, u_amplitude=0.1, start=None):
    """Short coupled run collected into a Trajectory.  start overrides the
    initial (ch_state, ns_state) pair, e.g. with a pre-relaxed state."""
    if start is None:
        phi0 = smooth_field(grid, seed, amplitude)
        ch = init_state(phi0, kd, feps)
        flow = ns_step.init_ns_state(smooth_velocity(grid, seed + 1,
                                                     u_amplitude))
    else:
        ch, flow = start
    phis, us, vs = [ch.phi.values.copy()], [flow.u.u.copy()], [flow.u.v.copy()]
    for _ in range(nsteps):
        mu = chemical_potential(ch.phi, kd, feps)
        nu = ns_step.viscosity_fields(grid, ch.phi.values, VISC)
        flow = ns_step.ns_step(flow, ch.phi, mu, None, nu, dt)
        ch = ch_step(ch, flow.u, dt, kd, feps)
        phis.append(ch.phi.values.copy())
        us.append(flow.u.u.copy())
        vs.append(flow.u.v.copy())
    return dg.Trajectory(grid, dt, np.array(phis), np.array(us), np.array(vs))


def relaxed_start(grid, kd, feps, n_burn=10, dt_burn=2e-3, seed=5):
    """Run a short burn-in so the startup transient (fresh pressure, fresh
    swirl) has settled; refinement studies started here see a residual
    envelope that is smooth in time."""
    ch = init_state(smooth_field(grid, seed, 0.3), kd, feps)
    flow = ns_step.init_ns_state(smooth_velocity(grid, seed + 1, 0.1))
    for _ in range(n_burn):
        mu = chemical_potential(ch.phi, kd, feps)
        nu = ns_step.viscosity_fields(grid, ch.phi.values, VISC)
        flow = ns_step.ns_step(flow, ch.phi, mu, None, nu, dt_burn)
        ch = ch_step(ch, flow.u, dt_burn, kd, feps)
    return ch, flow


class TestEnergyPieces:
    def test_nonlocal_matches_direct_double_sum(self):
        for n, seed in ((16, 0), (24, 1)):
            grid = Grid(n, n, 1.0, 1.0)
            kd = build_kernel(KernelSpec("gaussian", 0.15, 4.0), grid)
            rng = np.random.default_rng(seed)
            phi = ScalarField(grid, rng.uniform(-0.9, 0.9, (n, n)))
            fast = dg.nonlocal_energy(phi, kd)
            direct = nonlocal_energy_direct(phi, kd)
            assert abs(fast - direct) <= 1e-11 * max(abs(direct), 1.0)

    def test_nonlocal_nonnegative_and_zero_on_constants(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            phi = ScalarField(GRID, rng.uniform(-0.9, 0.9, (16, 16)))
            val = dg.nonlocal_energy(phi, KD)
            assert val >= -1e-12 * max(abs(val), 1.0)
        const = ScalarField(GRID, np.full((16, 16), 0.4))
        assert abs(dg.nonlocal_energy(const, KD)) <= 1e-13

    def test_constant_state_potential_energy(self):
        const = ScalarField(GRID, np.full((16, 16), 0.3))
        pot = dg.potential_energy(const, FEPS)
        assert pot == pytest.approx(float(FEPS.f(0.3)) * GRID.area, rel=1e-13)


class TestTrajectoryType:
    def _traj(self, n=4, dt=0.25):
        phis = np.stack([smooth_field(GRID, 10 + k).values for k in range(n)])
        us = np.stack([smooth_velocity(GRID, 20 + k).u for k in range(n)])
        vs = np.stack([smooth_velocity(GRID, 20 + k).v for k in range(n)])
        return dg.Trajectory(GRID, dt, phis, us, vs)

    def test_times_and_horizon(self):
        traj = self._traj()
        assert np.array_equal(traj.times, 0.25 * np.arange(4))
        assert traj.horizon == pytest.approx(0.75)
        assert traj.phi(2).values.shape == (16, 16)

    def test_validation(self):
        traj = self._traj()
        with pytest.raises(dg.DiagnosticsError):
            dg.Trajectory(GRID, -0.1, traj.phis, traj.us, traj.vs)
        with pytest.raises(dg.DiagnosticsError):
            dg.Trajectory(GRID, 0.1, traj.phis[:, :8, :], traj.us, traj.vs)
        bad = traj.phis.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(dg.DiagnosticsError):
            dg.Trajectory(GRID, 0.1, bad, traj.us, traj.vs)
        with pytest.raises(dg.DiagnosticsError):
            dg.Trajectory(GRID, 0.1, np.ones_like(traj.phis) * 1.2,
                          traj.us, traj.vs)

    def test_translate_semigroup_is_exact(self):
        traj = self._traj(n=8, dt=0.125)
        one = dg.translate(dg.translate(traj, 0.25), 0.375)
        two = dg.translate(traj, 0.625)
        assert np.array_equal(one.times, two.times)
        assert np.array_equal(one.phis, two.phis)
        assert np.array_equal(one.us, two.us)
        assert np.array_equal(one.vs, two.vs)
        ident = dg.translate(traj, 0.0)
        assert np.array_equal(ident.times, traj.times)
        assert np.array_equal(ident.phis, traj.phis)

    def test_translate_errors(self):
        traj = self._traj(n=4, dt=0.25)
        with pytest.raises(dg.DiagnosticsError):
            dg.translate(traj, 0.1)          # off the snapshot grid
        with pytest.raises(dg.DiagnosticsError):
            dg.translate(traj, 1.0)          # beyond the horizon
        with pytest.raises(dg.DiagnosticsError):
            dg.translate(traj, -0.25)


class TestEnergyIdentity:
    def test_residual_series_and_cumulative(self):
        traj = run_coupled_snapshots(GRID, KD, SPEC, FEPS, 10, 2e-3)
        res = dg.energy_identity_residuals(traj, KD, FEPS, VISC)
        assert res.shape == (10,)
        assert np.all(np.isfinite(res))
        # energy-balance direction: no prefix may show unaccounted gain;
        # the implicit scheme sits on the dissipative (negative) side
        prefixes = dg.running_cumulative(res, traj.dt)
        assert prefixes.max() <= 1e-8
        # and the defect itself is O(dt), not runaway
        assert abs(prefixes[-1]) <= 1.0 * traj.dt

    def test_residual_first_order_under_refinement(self):
        start = relaxed_start(GRID, KD, FEPS)
        maxima = {}
        for dt in (8e-3, 4e-3, 2e-3):
            nsteps = int(round(0.048 / dt))
            traj = run_coupled_snapshots(GRID, KD, SPEC, FEPS, nsteps, dt,
                                         start=start)
            res = dg.energy_identity_residuals(traj, KD, FEPS, VISC)
            maxima[dt] = np.abs(res).max()
        order = dg.observed_order(list(maxima), list(maxima.values()))
        assert 0.8 <= order <= 1.2

    def test_matches_ch_only_residual_when_flow_is_zero(self):
        phi0 = smooth_field(GRID, 42)
        state = init_state(phi0, KD, FEPS)
        still = go.zero_vector(GRID)
        states = [state]
        dt = 4e-3
        for _ in range(5):
            states.append(ch_step(states[-1], still, dt, KD, FEPS))
        traj = dg.Trajectory(
            GRID, dt, np.stack([s.phi.values for s in states]),
            np.zeros((6, 17, 16)), np.zeros((6, 16, 17)))
        ours = dg.energy_identity_residuals(traj, KD, FEPS, VISC)
        theirs = dg.ch_energy_identity_residual(states, still, KD, FEPS, dt)
        scale = max(np.abs(theirs).max(), 1.0)
        assert np.abs(ours - np.asarray(theirs)).max() <= 1e-11 * scale


class TestDissipativeEstimate:
    def test_clean_decay_is_satisfied_with_small_k_constant(self):
        k = 0.5
        t = np.linspace(0.0, 12.0 / k, 400)
        e = 2.0 * np.exp(-k * t) + 0.5
        res = dg.dissipative_estimate_check(t, e, k, 0.5)
        assert res["status"] == "satisfied"
        assert res["K"] <= 1e-12

    def test_frozen_constant_catches_slow_decay(self):
        k = 0.5
        t = np.linspace(0.0, 12.0 / k, 400)
        e = 2.0 * np.exp(-0.05 * k * t) + 0.5  # much slower than claimed
        res = dg.dissipative_estimate_check(t, e, k, 0.5)
        assert res["status"] == "violated"
        assert res["first_violation"] is not None

    def test_late_bump_is_flagged_with_time(self):
        k = 0.5
        t = np.linspace(0.0, 12.0 / k, 400)
        e = 2.0 * np.exp(-k * t) + 0.5
        e[300:] += 1.0
        res = dg.dissipative_estimate_check(t, e, k, 0.5)
        assert res["status"] == "violated"
        assert res["first_violation"] == pytest.approx(t[300])

    def test_short_horizon_is_inconclusive(self):
        k = 0.5
        t = np.linspace(0.0, 3.0 / k, 60)
        e = 2.0 * np.exp(-k * t) + 0.5
        res = dg.dissipative_estimate_check(t, e, k, 0.5)
        assert res["status"] == "inconclusive"
        assert res["K"] is None

    def test_single_sample_is_inconclusive(self):
        res = dg.dissipative_estimate_check([0.0], [2.0], 0.5, 0.5)
        assert res["status"] == "inconclusive" and res["horizon"] == 0.0

    def test_input_validation(self):
        with pytest.raises(dg.DiagnosticsError):
            dg.dissipative_estimate_check([0.0, 1.0], [1.0], 0.5, 0.0)
        with pytest.raises(dg.DiagnosticsError):
            dg.dissipative_estimate_check([0.0, 1.0], [1.0, 0.9], -1.0, 0.0)
        with pytest.raises(dg.DiagnosticsError):
            dg.dissipative_estimate_check([], [], 0.5, 0.0)


class TestGradientBoundAndSeries:
    def test_bound_holds_along_a_run(self):
        traj = run_coupled_snapshots(GRID, KD, SPEC, FEPS, 8, 2e-3)
        for k in range(traj.n_snapshots):
            phi = traj.phi(k)
            mu = chemical_potential(phi, KD, FEPS)
            res = dg.gradient_bound_check(phi, mu, KD, SPEC.c0)
            assert res["satisfied"], f"violated at snapshot {k}: {res}"


def audit_series(coupled, rows=5, dt=2e-3):
    """Series columns of a quiet run: fixed mass, decaying energy."""
    t = dt * np.arange(rows)
    series = {"t": t, "mass": np.full(rows, 0.1), "max_abs_phi": np.full(rows, 0.5),
              "total": 1.0 + np.exp(-t),
              "identity_residual": np.r_[np.nan, np.full(rows - 1, -1e-3)]}
    if coupled:
        series["div_inf"] = np.r_[0.0, np.full(rows - 1, 1e-13)]
    return series


class TestAudit:
    """diagnose's checks on series columns and fields held in memory."""

    DT = 2e-3
    NU1 = 0.01

    def snapshots(self):
        return [(0.0, smooth_field(GRID, 3)), (0.004, smooth_field(GRID, 4))]

    def test_coupled_unforced_run(self):
        checks, rows = dg.audit(audit_series(True), self.snapshots(), self.DT,
                                True, False, self.NU1, KD, FEPS)
        assert list(checks) == ["mass_conservation", "saturation",
                                "energy_direction", "incompressibility",
                                "gradient_bound", "dissipative_envelope"]
        assert all(c["passed"] for c in checks.values())
        assert checks["energy_direction"]["max_prefix"] == pytest.approx(-1e-3 * self.DT)
        assert [r[0] for r in rows] == [0.0, 0.004]
        assert checks["gradient_bound"]["snapshots"] == 2
        env = checks["dissipative_envelope"]
        assert env["lambda1"] == ns_step.stokes_lambda1(GRID)
        assert env["k"] == min(0.5, self.NU1 * env["lambda1"])
        assert env["floor"] == pytest.approx(float(FEPS.f(0.1)) * GRID.area)
        assert env["status"] == "inconclusive"

    def test_mass_drift_limit_does_not_grow_with_the_rows(self):
        series = audit_series(False, rows=1000)
        series["mass"][-1] += 2e-12
        checks, _ = dg.audit(series, None, self.DT, False, False, self.NU1, KD, FEPS)
        mass = checks["mass_conservation"]
        assert mass["tolerance"] == 1e-12 and mass["passed"] is False

    def test_run_ch_series(self):
        checks, rows = dg.audit(audit_series(False), None, self.DT, False, False,
                                self.NU1, KD, FEPS)
        assert "incompressibility" not in checks and "gradient_bound" not in checks
        assert rows == []
        env = checks["dissipative_envelope"]
        assert env["k"] == 0.5 and env["lambda1"] is None

    def test_forced_run_skips_the_envelope(self):
        for coupled in (True, False):
            checks, _ = dg.audit(audit_series(coupled), None, self.DT, coupled,
                                 True, self.NU1, KD, FEPS)
            assert checks["dissipative_envelope"] == {
                "status": "skipped (forced run)"}

    def test_series_checks_come_before_snapshots_and_lambda1(self, monkeypatch):
        order = []
        cumulative, lambda1 = dg.running_cumulative, ns_step.stokes_lambda1
        monkeypatch.setattr(dg, "running_cumulative", lambda residuals, dt: (
            order.append("series"), cumulative(residuals, dt))[1])
        monkeypatch.setattr(ns_step, "stokes_lambda1", lambda grid: (
            order.append("lambda1"), lambda1(grid))[1])

        def snapshots():
            order.append("snapshots")
            yield from self.snapshots()

        dg.audit(audit_series(True), snapshots(), self.DT, True, False,
                 self.NU1, KD, FEPS)
        assert order == ["series", "snapshots", "lambda1"]

    def test_unconverged_lambda1_fails_envelope(self, monkeypatch):
        # three Lanczos steps cannot settle lambda1 to 1e-10
        lambda1 = ns_step.stokes_lambda1
        monkeypatch.setattr(ns_step, "stokes_lambda1",
                            lambda grid: lambda1(grid, maxiter=3))
        checks, _ = dg.audit(audit_series(True), None, self.DT, True, False,
                             self.NU1, KD, FEPS)
        envelope = checks["dissipative_envelope"]
        assert envelope["passed"] is False and envelope["status"] == "error"
        assert "did not converge" in envelope["error"]


class TestSchemeLaw:
    """The energy law of the convex-split step, with its own mu~, against
    the series column's balance, with mu1."""

    def test_bubble_prefix_stays_at_roundoff(self):
        cfg = load_config(preset="bubble-ch")
        stepper = cli._Transport(cfg, cli._physics(cfg))
        dt = cfg["dt"]
        states, column = [stepper.ch], []
        stepper.row(0.0, dt)
        for _, t in cli._steps(stepper, 50, dt):
            states.append(stepper.ch)
            column.append(stepper.row(t, dt)[-1])
        law = dg.scheme_law_residuals(states, stepper.u_n, stepper.kd,
                                      stepper.pot, dt)
        assert np.max(dg.running_cumulative(law, dt)) <= dg.ENERGY_PREFIX_TOL
        # the series column's prefix is above the tolerance from step 1
        assert np.all(dg.running_cumulative(column, dt) > dg.ENERGY_PREFIX_TOL)


def random_trajectory(seed, n=4, dt=0.5, grid=None):
    grid = grid or Grid(12, 12, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    phis, us, vs = [], [], []
    for k in range(n):
        phis.append(smooth_field(grid, int(rng.integers(1 << 30)), 0.5).values)
        w = smooth_velocity(grid, int(rng.integers(1 << 30)), 0.2)
        us.append(w.u)
        vs.append(w.v)
    return dg.Trajectory(grid, dt, np.array(phis), np.array(us), np.array(vs))


class TestTrajectoryMetric:
    GRID12 = Grid(12, 12, 1.0, 1.0)

    def test_axioms_on_random_triples(self):
        feps = build_F_eps(SPEC)
        for trial in range(6):
            a = random_trajectory(100 + trial, grid=self.GRID12)
            b = random_trajectory(200 + trial, grid=self.GRID12)
            c = random_trajectory(300 + trial, grid=self.GRID12)
            dab = dg.trajectory_metric(a, b, feps)
            dba = dg.trajectory_metric(b, a, feps)
            dac = dg.trajectory_metric(a, c, feps)
            dbc = dg.trajectory_metric(b, c, feps)
            scale = max(dab, dac, dbc, 1.0)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-12 * scale
            assert dac <= dab + dbc + 1e-12 * scale
            assert dg.trajectory_metric(a, a, feps) <= 1e-12 * scale

    def test_separates_distinct_trajectories(self):
        a = random_trajectory(1, grid=self.GRID12)
        b = random_trajectory(2, grid=self.GRID12)
        assert dg.trajectory_metric(a, b, FEPS) > 1e-6

    def test_mismatch_errors(self):
        a = random_trajectory(1, grid=self.GRID12)
        b = random_trajectory(2, n=5, grid=self.GRID12)
        with pytest.raises(dg.DiagnosticsError):
            dg.trajectory_metric(a, b, FEPS)
        c = random_trajectory(3, dt=0.25, grid=self.GRID12)
        with pytest.raises(dg.DiagnosticsError):
            dg.trajectory_metric(a, c, FEPS)
        other = random_trajectory(4, grid=Grid(16, 16, 1.0, 1.0))
        with pytest.raises(dg.DiagnosticsError):
            dg.trajectory_metric(a, other, FEPS)


class TestObservedOrder:
    def test_recovers_known_slope(self):
        dts = np.array([0.1, 0.05, 0.025])
        vals = 3.0 * dts ** 1.05
        assert dg.observed_order(dts, vals) == pytest.approx(1.05, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(dg.DiagnosticsError):
            dg.observed_order([0.1, 0.05], [1.0, 0.0])
