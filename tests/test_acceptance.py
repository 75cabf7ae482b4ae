"""Acceptance gate: one test per advertised guarantee.

Each test measures the property at the stated tolerance, records a
single pass/fail line (echoed after the run, see conftest), and then
asserts.  The expensive scenario runs are session fixtures shared by the
criteria that consume them.
"""

import json
import time

import numpy as np
import pytest

from nlchns import cli
from nlchns import diagnostics as dg
from nlchns import grid_ops as go
from nlchns import ns_step as ns
from nlchns.ch_step import (
    ch_energy,
    ch_energy_identity_residual,
    ch_step,
    chemical_potential,
    init_state,
)
from nlchns.grid_ops import Grid, ScalarField, zero_vector
from nlchns.kernel import KernelSpec, build_kernel
from nlchns.ns_step import ViscositySpec, init_ns_state, stokes_lambda1
from nlchns.potential import (
    PotentialSpec,
    SingularPotential,
    build_F_eps,
    verify_potential_lemmas,
)

from test_kernel import direct_convolve

EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
DT_LADDER = (4e-3, 2e-3, 1e-3, 5e-4)


# ------------------------------------------------------------- helpers

def small_setup(nx=16, width=0.15, epsilon=1e-2):
    grid = Grid(nx, nx, 1.0, 1.0)
    kd = build_kernel(KernelSpec("gaussian", width, 4.0), grid)
    spec = PotentialSpec(1.0, 2.0, 1, epsilon).with_beta(kd.beta)
    return grid, kd, build_F_eps(spec)


def smooth_field(grid, amp=0.3, mean=0.0):
    x, y = grid.cell_mesh()
    v = (np.cos(np.pi * x / grid.lx) * np.cos(np.pi * y / grid.ly)
         + 0.4 * np.cos(2 * np.pi * x / grid.lx))
    v = v - v.mean()
    return ScalarField(grid, mean + amp * v / np.max(np.abs(v)))


def smooth_velocity(grid, amp=0.4):
    xc, yc = grid.corner_mesh()
    psi = amp * np.sin(np.pi * xc / grid.lx) ** 2 \
        * np.sin(np.pi * yc / grid.ly) ** 2
    return go.velocity_from_streamfunction(grid, psi)


def coupled_trajectory(grid, kd, feps, visc, ch, flow, dt, nsteps):
    phis = [ch.phi.values.copy()]
    us = [flow.u.u.copy()]
    vs = [flow.u.v.copy()]
    for _ in range(nsteps):
        flow = ns.ns_step(flow, ch.phi, ch.mu, None, visc, dt)
        ch = ch_step(ch, flow.u, dt, kd, feps)
        phis.append(ch.phi.values.copy())
        us.append(flow.u.u.copy())
        vs.append(flow.u.v.copy())
    return dg.Trajectory(grid, dt, np.array(phis), np.array(us), np.array(vs))


def run_cli(args):
    rc = cli.main(args)
    assert rc == 0, f"cli {args[0]} exited {rc}"


def load_series(rundir):
    return np.genfromtxt(rundir / "series.csv", delimiter=",", names=True)


# ------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def spinodal_run(tmp_path_factory):
    """The flagship preset: 10^4 coupled steps on a 64^2 box."""
    out = tmp_path_factory.mktemp("spinodal")
    t0 = time.perf_counter()
    run_cli(["run", "--preset", "spinodal-2d", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    return {"out": out, "elapsed": elapsed,
            "manifest": json.loads((out / "manifest.json").read_text())}


@pytest.fixture(scope="session")
def singular_runs(tmp_path_factory):
    """Spinodal decomposition at eps = 1e-4 and in the eps = 0 mode."""
    runs = {}
    for eps in (1e-4, 0.0):
        out = tmp_path_factory.mktemp(f"singular-{eps:g}")
        cfg = out / "run.cfg"
        cfg.write_text(
            "grid_nx = 32\ngrid_ny = 32\n"
            f"epsilon = {eps:g}\nhorizon = 2.0\n"
            "init_u = swirl\ninit_u_amplitude = 0.2\n"
        )
        run_cli(["run", "--config", str(cfg), "--out", str(out)])
        runs[eps] = out
    return runs


@pytest.fixture(scope="session")
def coupled_ladder():
    """Relaxed-start coupled runs over the dt ladder, shared residual data.

    The burn-in steps matter: the raw first step from any cold start sits
    on a startup transient whose size depends on absolute time, which
    contaminates the observed order.  After relaxing, the max residual
    scales cleanly like O(dt)."""
    grid, kd, feps = small_setup()
    visc = ViscositySpec(0.05, 0.2)
    ch = init_state(smooth_field(grid), kd, feps)
    flow = init_ns_state(smooth_velocity(grid))
    for _ in range(10):
        flow = ns.ns_step(flow, ch.phi, ch.mu, None, visc, 2e-3)
        ch = ch_step(ch, flow.u, 2e-3, kd, feps)
    t0 = time.perf_counter()
    out = {"max_res": [], "prefix_max": [], "cumulative": [], "trajs": []}
    for dt in DT_LADDER:
        traj = coupled_trajectory(grid, kd, feps, visc, ch, flow, dt,
                                  int(round(0.1 / dt)))
        res = dg.energy_identity_residuals(traj, kd, feps, visc)
        prefixes = dg.running_cumulative(res, dt)
        out["max_res"].append(float(np.max(np.abs(res))))
        out["prefix_max"].append(float(prefixes.max()))
        out["cumulative"].append(float(prefixes[-1]))
        out["trajs"].append(traj)
    out["elapsed"] = time.perf_counter() - t0
    out["setup"] = (grid, kd, feps, visc)
    return out


# ------------------------------------------------------------- criteria

def test_criterion_01_potential_lemma_suite(criterion):
    t0 = time.perf_counter()
    _, kd, _ = small_setup()
    failures = []
    for q in (1, 2):
        spec = PotentialSpec(1.0, 2.0, q, 1e-2).with_beta(kd.beta)
        rep = verify_potential_lemmas(spec, samples=100_000,
                                      eps_grid=EPS_GRID)
        if not rep.passed:
            failures.append((q, rep.violations))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    criterion(1, "potential lemma suite, zero violations over 1e5 samples",
              ok, f"q in (1, 2), eps grid {EPS_GRID}, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_02_derivative_finite_differences(criterion):
    """Each derivative order against a centered difference of the one
    below it; 1000 points per potential, all at least 1e-3 from +-1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for q, eps in ((1, 0.0), (2, 0.0), (1, 1e-2), (2, 3e-3)):
        spec = PotentialSpec(1.0, 2.0, q, eps)
        pot = SingularPotential(spec) if eps == 0.0 else build_F_eps(spec)
        s = rng.uniform(-1.0 + 1e-3, 1.0 - 1e-3, 1000)
        if eps > 0.0:
            # the family is C^K at the tail knot, not C^(K+1); a stencil
            # straddling it would probe the break, so redraw the handful
            # of samples that land within reach of the step size
            while True:
                near = np.abs(np.abs(s) - pot.knot) < 2e-4
                if not near.any():
                    break
                s[near] = rng.uniform(-1.0 + 1e-3, 1.0 - 1e-3, near.sum())
        h = 1e-6 * (1.0 - np.abs(s))
        # F differs from F1 by an exact quadratic: FD-check F at orders
        # 1 and 2, then climb the F1 ladder (identical from order 3 on)
        pairs = [(pot.f(s - h), pot.f(s + h), pot.fprime(s)),
                 (pot.fprime(s - h), pot.fprime(s + h), pot.fsecond(s))]
        for k in range(2, spec.order + 1):
            pairs.append((pot.f1(s - h, k - 1), pot.f1(s + h, k - 1),
                          pot.f1(s, k)))
        for lo, hi, exact in pairs:
            fd = (hi - lo) / (2.0 * h)
            rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    criterion(2, "derivatives up to order 2+2q match centered differences",
              ok, f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert ok, worst


def test_criterion_03_convolution_oracle(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_direct = 0.0
    worst_adjoint = 0.0
    for n, width in ((32, 0.1), (64, 0.08)):
        grid = Grid(n, n, 1.0, 1.0)
        kd = build_kernel(KernelSpec("gaussian", width, 1.3), grid)
        f = ScalarField(grid, rng.standard_normal((n, n)))
        g = ScalarField(grid, rng.standard_normal((n, n)))
        want = direct_convolve("gaussian", width, 1.3, grid, f.values)
        got = kd.convolve(f).values
        worst_direct = max(worst_direct, float(np.max(np.abs(got - want))))
        a = np.sum(kd.convolve(f).values * g.values) * grid.cell_volume
        b = np.sum(f.values * kd.convolve(g).values) * grid.cell_volume
        worst_adjoint = max(worst_adjoint, abs(a - b) / (abs(a) + 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_direct <= 1e-10 and worst_adjoint <= 1e-12 and elapsed < 10.0
    criterion(3, "fast convolution matches direct quadrature, self-adjoint",
              ok, f"direct {worst_direct:.2e} (tol 1e-10), adjoint "
                  f"{worst_adjoint:.2e} (tol 1e-12), {elapsed:.1f}s")
    assert ok


def test_criterion_04_mass_conservation(criterion, spinodal_run):
    d = load_series(spinodal_run["out"])
    drift = float(np.max(np.abs(d["mass"] - d["mass"][0])))
    elapsed = spinodal_run["elapsed"]
    ok = (d.shape[0] == 10_001 and drift <= 1e-12 and elapsed < 300.0)
    criterion(4, "mass drift <= 1e-12 at every one of 1e4 coupled steps",
              ok, f"max drift {drift:.2e}, 64x64, {elapsed:.0f}s")
    assert ok, (d.shape, drift, elapsed)


def test_criterion_05_equilibrium_exactness(criterion):
    grid, kd, _ = small_setup()
    visc = ViscositySpec(0.05, 0.2)
    c = 0.1
    worst_phi, worst_u, worst_p = 0.0, 0.0, 0.0
    for eps in EPS_GRID + (0.0,):
        spec = PotentialSpec(1.0, 2.0, 1, eps).with_beta(kd.beta)
        pot = SingularPotential(spec) if eps == 0.0 else build_F_eps(spec)
        ch = init_state(ScalarField(grid, np.full((16, 16), c)), kd, pot)
        flow = init_ns_state(zero_vector(grid))
        for _ in range(1000):
            flow = ns.ns_step(flow, ch.phi, ch.mu, None, visc, 2e-3)
            ch = ch_step(ch, flow.u, 2e-3, kd, pot)
        worst_phi = max(worst_phi, float(np.max(np.abs(ch.phi.values - c))))
        worst_u = max(worst_u, float(np.abs(flow.u.u).max()),
                      float(np.abs(flow.u.v).max()))
        worst_p = max(worst_p, float(np.abs(flow.pressure.values).max()))
    ok = worst_phi == 0.0 and worst_u <= 1e-15 and worst_p <= 1e-15
    criterion(5, "constant state is a 1000-step fixed point, every eps",
              ok, f"|dphi| {worst_phi:.1e}, |u| {worst_u:.1e}, "
                  f"|p| {worst_p:.1e}")
    assert ok, (worst_phi, worst_u, worst_p)


def test_criterion_06_energy_identity_refinement(criterion, coupled_ladder):
    """Unforced coupled balance: the per-step residual is first order in dt
    and its running time integral never goes positive beyond tolerance --
    the scheme only ever dissipates more than the balance requires, never
    less, which is the verifiable direction of the energy inequality."""
    max_res = np.array(coupled_ladder["max_res"])
    ratios = max_res[:-1] / max_res[1:]
    prefix_worst = max(coupled_ladder["prefix_max"])
    elapsed = coupled_ladder["elapsed"]
    ok = (np.all((ratios >= 1.7) & (ratios <= 2.3))
          and prefix_worst <= 1e-8 and elapsed < 600.0)
    criterion(6, "coupled energy residual halves with dt, direction kept",
              ok, f"ratios {np.round(ratios, 3).tolist()}, max prefix "
                  f"{prefix_worst:.2e} (tol 1e-8), cumulative "
                  f"{coupled_ladder['cumulative'][1]:.2e} at dt=2e-3, "
                  f"{elapsed:.0f}s")
    assert ok, (ratios, prefix_worst)


def test_criterion_07_ch_identity_and_monotonicity(criterion):
    grid, kd, feps = small_setup()
    u_swirl = smooth_velocity(grid, amp=0.4)
    ch0 = init_state(smooth_field(grid), kd, feps)
    for _ in range(10):
        ch0 = ch_step(ch0, u_swirl, 2e-3, kd, feps)
    max_res = []
    for dt in DT_LADDER:
        states = [ch0]
        for _ in range(int(round(0.1 / dt))):
            states.append(ch_step(states[-1], u_swirl, dt, kd, feps))
        res = ch_energy_identity_residual(states, u_swirl, kd, feps, dt)
        max_res.append(float(np.max(np.abs(res))))
    max_res = np.array(max_res)
    ratios = max_res[:-1] / max_res[1:]

    # u = 0: convex splitting must never raise the energy, no tolerance
    ch = init_state(smooth_field(grid, amp=0.6), kd, feps)
    energies = [ch_energy(ch.phi, kd, feps)]
    for _ in range(100):
        ch = ch_step(ch, None, 2e-3, kd, feps)
        energies.append(ch_energy(ch.phi, kd, feps))
    increases = np.diff(energies)
    monotone = bool(np.all(increases <= 0.0))

    ok = np.all((ratios >= 1.7) & (ratios <= 2.3)) and monotone
    criterion(7, "transport-only residual refines, u=0 energy monotone",
              ok, f"ratios {np.round(ratios, 3).tolist()}, max energy "
                  f"increase {increases.max():.1e} (tol 0)")
    assert ok, (ratios, increases.max())


def test_criterion_08_singular_bound(criterion, singular_runs):
    details = []
    ok = True
    for eps, out in singular_runs.items():
        d = load_series(out)
        peak = float(np.max(d["max_abs_phi"]))
        manifest = json.loads((out / "manifest.json").read_text())
        completed = manifest["status"] == "completed"
        ok = ok and completed and peak < 1.0
        if eps == 0.0:
            # the saturation guard sits at 1 - 1e-10; staying below it
            # means the guard never fired on the accepted trajectory
            ok = ok and peak < 1.0 - 1e-10
        details.append(f"eps={eps:g}: max|phi|={peak:.6f}")
    criterion(8, "max|phi| < 1 over the full horizon, eps=1e-4 and eps=0",
              ok, "; ".join(details))
    assert ok, details


def test_criterion_09_epsilon_cauchy_decrease(criterion, tmp_path):
    out = tmp_path / "sweep"
    run_cli(["eps-sweep", "--preset", "cauchy-sweep", "--out", str(out)])
    d = np.genfromtxt(out / "eps_sweep.csv", delimiter=",", names=True)
    diffs = d["l2_difference"]
    strict = bool(np.all(np.diff(diffs) < 0.0)) and bool(np.all(diffs > 0.0))
    manifest = json.loads((out / "manifest.json").read_text())
    ok = strict and manifest["derived"]["monotone_decreasing"] is True
    criterion(9, "||phi_eps - phi_{eps/2}|| at T=1 strictly decreasing",
              ok, "differences " + ", ".join(f"{v:.2e}" for v in diffs))
    assert ok, diffs


def test_criterion_10_dissipative_estimate(criterion, spinodal_run):
    d = load_series(spinodal_run["out"])
    cfg = spinodal_run["manifest"]["config"]
    grid = Grid(cfg["grid_nx"], cfg["grid_ny"], cfg["grid_lx"], cfg["grid_ly"])
    lam1 = stokes_lambda1(grid)
    k = min(0.5, cfg["nu1"] * lam1)
    horizon = float(d["t"][-1])
    kd = build_kernel(
        KernelSpec(cfg["kernel_family"], cfg["kernel_width"],
                   cfg["kernel_j_l1"]), grid)
    spec = PotentialSpec(cfg["theta"], cfg["theta_c"], cfg["q"],
                         cfg["epsilon"]).with_beta(kd.beta)
    feps = build_F_eps(spec)
    floor = float(feps.f(float(d["mass"][0]))) * grid.area
    result = dg.dissipative_estimate_check(d["t"], d["total"], k, floor)
    ok = (horizon >= 10.0 / k - 1e-9 and result["status"] == "satisfied")
    criterion(10, "energy under exp(-kt) envelope with fitted offset",
              ok, f"lambda1 {lam1:.2f}, k {k:.3f}, horizon {horizon:.0f} "
                  f">= {10.0 / k:.0f}, K {result['K']:.3e}, "
                  f"status {result['status']}")
    assert ok, result


def test_criterion_11_gradient_lower_bound(criterion, spinodal_run,
                                           singular_runs, coupled_ladder):
    """Every stored snapshot of the scenario runs plus sampled states of
    the refinement trajectories."""
    checked = 0
    worst = np.inf
    ok = True

    for out in [spinodal_run["out"]] + list(singular_runs.values()):
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        grid = Grid(cfg["grid_nx"], cfg["grid_ny"],
                    cfg["grid_lx"], cfg["grid_ly"])
        kd = build_kernel(
            KernelSpec(cfg["kernel_family"], cfg["kernel_width"],
                       cfg["kernel_j_l1"]), grid)
        spec = PotentialSpec(cfg["theta"], cfg["theta_c"], cfg["q"],
                             cfg["epsilon"]).with_beta(kd.beta)
        pot = SingularPotential(spec) if cfg["epsilon"] == 0.0 \
            else build_F_eps(spec)
        index = json.loads((out / "snapshots.json").read_text())
        for entry in index["snapshots"]:
            values, _ = go.read_snapshot(str(out / entry["phi"]["file"]))
            phi = ScalarField(grid, values)
            mu = chemical_potential(phi, kd, pot)
            res = dg.gradient_bound_check(phi, mu, kd, spec.c0)
            ok = ok and res["satisfied"]
            worst = min(worst, res["lhs"] - res["rhs"])
            checked += 1

    grid, kd, feps, _ = coupled_ladder["setup"]
    c0 = feps.spec.c0
    for traj in coupled_ladder["trajs"]:
        for idx in range(0, traj.n_snapshots, 10):
            phi = traj.phi(idx)
            mu = chemical_potential(phi, kd, feps)
            res = dg.gradient_bound_check(phi, mu, kd, c0)
            ok = ok and res["satisfied"]
            worst = min(worst, res["lhs"] - res["rhs"])
            checked += 1

    criterion(11, "||grad mu||^2 >= (c0^2/4)||grad phi||^2 - 2||grad J||^2"
                  "||phi||^2 on every snapshot",
              ok, f"{checked} snapshots, min margin {worst:.3e}")
    assert ok and checked > 20


def random_trajectory(grid, kd, feps, rng, n=5, dt=0.05):
    nx, ny = grid.nx, grid.ny
    x, y = grid.cell_mesh()
    phis = np.empty((n, nx, ny))
    us = np.empty((n, nx + 1, ny))
    vs = np.empty((n, nx, ny + 1))
    mean = rng.uniform(-0.3, 0.3)
    for k in range(n):
        bumps = sum(rng.normal() * np.cos((i + 1) * np.pi * x / grid.lx)
                    * np.cos((j + 1) * np.pi * y / grid.ly)
                    for i in range(2) for j in range(2))
        bumps = bumps - bumps.mean()
        phis[k] = mean + 0.4 * bumps / max(1e-12, np.max(np.abs(bumps)))
        xc, yc = grid.corner_mesh()
        psi = rng.normal() * np.sin(np.pi * xc / grid.lx) ** 2 \
            * np.sin(np.pi * yc / grid.ly) ** 2
        w = go.velocity_from_streamfunction(grid, psi)
        us[k], vs[k] = w.u, w.v
    return dg.Trajectory(grid, dt, phis, us, vs)


def test_criterion_12_metric_axioms_semigroup_series(
        criterion, spinodal_run, singular_runs):
    grid = Grid(12, 12, 1.0, 1.0)
    kd = build_kernel(KernelSpec("gaussian", 0.2, 4.0), grid)
    spec = PotentialSpec(1.0, 2.0, 1, 1e-2).with_beta(kd.beta)
    feps = build_F_eps(spec)
    rng = np.random.default_rng(1_2_12)

    slack = 1e-12
    axioms = True
    worst_sym, worst_tri = 0.0, 0.0
    for _ in range(20):
        a, b, c = (random_trajectory(grid, kd, feps, rng) for _ in range(3))
        dab = dg.trajectory_metric(a, b, feps)
        dba = dg.trajectory_metric(b, a, feps)
        dbc = dg.trajectory_metric(b, c, feps)
        dac = dg.trajectory_metric(a, c, feps)
        scale = max(dab, dbc, dac, 1.0)
        worst_sym = max(worst_sym, abs(dab - dba) / scale)
        worst_tri = max(worst_tri, (dac - dab - dbc) / scale)
        axioms = axioms and dg.trajectory_metric(a, a, feps) <= slack \
            and abs(dab - dba) <= slack * scale \
            and dac <= dab + dbc + slack * scale \
            and min(dab, dbc, dac) >= 0.0

    base = random_trajectory(grid, kd, feps, rng, n=9)
    t1 = dg.translate(dg.translate(base, 2 * base.dt), base.dt)
    t2 = dg.translate(base, 3 * base.dt)
    semigroup = (np.array_equal(t1.phis, t2.phis)
                 and np.array_equal(t1.us, t2.us)
                 and np.array_equal(t1.vs, t2.vs)
                 and np.array_equal(t1.times, t2.times))

    bounded = True
    peaks = []
    for out in [spinodal_run["out"]] + list(singular_runs.values()):
        d = load_series(out)
        assert abs(d["mass"][0]) <= 0.5
        col = d["fprime_l1"]
        bounded = bounded and bool(np.all(np.isfinite(col))) \
            and float(col.max()) < 1e3
        peaks.append(float(col.max()))

    ok = axioms and semigroup and bounded
    criterion(12, "metric axioms on 20 triples, exact shift semigroup, "
                  "bounded |F'| series",
              ok, f"sym {worst_sym:.1e}, tri {worst_tri:.1e} (slack 1e-12), "
                  f"series peaks {np.round(peaks, 2).tolist()}")
    assert ok, (axioms, semigroup, peaks)


def test_criterion_13_determinism(criterion, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid_nx = 24\ngrid_ny = 24\nkernel_width = 0.15\n"
        "horizon = 0.04\ninit_u = swirl\ninit_u_amplitude = 0.3\n"
        "snapshot_every = 10\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "2024"])
        outs.append(out)
    series_same = (outs[0] / "series.csv").read_bytes() == \
        (outs[1] / "series.csv").read_bytes()
    fields_same = all(
        (outs[0] / f"{name}_00000020.fld").read_bytes() ==
        (outs[1] / f"{name}_00000020.fld").read_bytes()
        for name in ("phi", "u", "v", "p"))
    ok = series_same and fields_same
    criterion(13, "same config and seed give byte-identical outputs",
              ok, f"series {'==' if series_same else '!='}, final fields "
                  f"{'==' if fields_same else '!='}")
    assert ok
