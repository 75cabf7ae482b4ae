"""Flow step: operator identities, projection, the preconditioned momentum
solve, decay against an independent single-phase reference, and the
Stokes eigenvalue."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nlchns import ch_step as ch
from nlchns import grid_ops as go
from nlchns import ns_step as ns
from nlchns.ch_step import face_phi
from nlchns.grid_ops import Grid, ScalarField, VectorField
from nlchns.kernel import KernelSpec, build_kernel
from nlchns.potential import PotentialSpec, build_F_eps


def swirl(grid, amplitude=1.0):
    xc, yc = grid.corner_mesh()
    psi = amplitude * np.sin(np.pi * xc / grid.lx) ** 2 \
        * np.sin(np.pi * yc / grid.ly) ** 2
    return go.velocity_from_streamfunction(grid, psi)


def random_interior(grid, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((grid.nx + 1, grid.ny))
    v = rng.standard_normal((grid.nx, grid.ny + 1))
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return u, v


def smooth_scalar(grid, amplitude, kx=1, ky=2):
    x, y = grid.cell_mesh()
    vals = amplitude * np.cos(kx * np.pi * x / grid.lx) \
        * np.cos(ky * np.pi * y / grid.ly)
    return ScalarField(grid, vals)


GRID = Grid(24, 24, 1.0, 1.0)


class TestViscositySpec:
    def test_validation(self):
        with pytest.raises(ns.NSError):
            ns.ViscositySpec(0.0, 1.0)
        with pytest.raises(ns.NSError):
            ns.ViscositySpec(2.0, 1.0)

    def test_affine_endpoints(self):
        visc = ns.ViscositySpec(0.5, 1.5)
        assert visc.at(-1.0) == pytest.approx(0.5)
        assert visc.at(1.0) == pytest.approx(1.5)
        assert visc.at(0.0) == pytest.approx(1.0)

    def test_clipping_out_of_range_states(self):
        visc = ns.ViscositySpec(0.5, 1.5)
        assert visc.at(-3.0) == 0.5
        assert visc.at(3.0) == 1.5

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ns.NSError):
            ns.ViscositySpec(0.5, 1.5).at(np.array([np.nan]))


class TestViscousOperator:
    def _nu(self, grid, seed=3):
        rng = np.random.default_rng(seed)
        nu_c = 0.5 + 0.4 * rng.random((grid.nx, grid.ny))
        return nu_c, ns.cell_to_corner(grid, nu_c)

    def test_forward_scatter_adjoint_pairs(self):
        grid = GRID
        rng = np.random.default_rng(7)
        u, v = random_interior(grid, 7)
        q_cell = rng.standard_normal((grid.nx, grid.ny))
        r_corner = rng.standard_normal((grid.nx + 1, grid.ny + 1))
        ux, uy, vx, vy = go.mac_component_gradients(grid, u, v)
        pairs = [
            (np.sum(ns._scatter_ux(grid, q_cell) * u), np.sum(q_cell * ux)),
            (np.sum(ns._scatter_vy(grid, q_cell) * v), np.sum(q_cell * vy)),
            (np.sum(ns._scatter_uy(grid, r_corner) * u), np.sum(r_corner * uy)),
            (np.sum(ns._scatter_vx(grid, r_corner) * v), np.sum(r_corner * vx)),
        ]
        for left, right in pairs:
            assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1.0)

    def test_operator_symmetry(self):
        grid = GRID
        nu_c, nu_n = self._nu(grid)
        u1, v1 = random_interior(grid, 11)
        u2, v2 = random_interior(grid, 12)
        a1u, a1v = ns.viscous_apply(grid, nu_c, nu_n, u1, v1)
        a2u, a2v = ns.viscous_apply(grid, nu_c, nu_n, u2, v2)
        left = np.sum(a1u * u2) + np.sum(a1v * v2)
        right = np.sum(a2u * u1) + np.sum(a2v * v1)
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)

    def test_quadratic_form_matches_dissipation(self):
        grid = GRID
        nu_c, nu_n = self._nu(grid)
        u, v = random_interior(grid, 13)
        au, av = ns.viscous_apply(grid, nu_c, nu_n, u, v)
        form = (np.sum(au * u) + np.sum(av * v)) * grid.cell_volume
        diss = ns.dissipation(grid, nu_c, nu_n, u, v)
        assert diss > 0.0
        assert abs(form - diss) <= 1e-12 * diss

    def test_dissipation_positive_on_constant_tangential_flow(self):
        # uniform tangential u is not a discrete rigid motion here: the
        # no-slip wall shear 2u/h keeps the form positive definite
        grid = GRID
        u = np.ones((grid.nx + 1, grid.ny))
        u[0, :] = u[-1, :] = 0.0
        v = np.zeros((grid.nx, grid.ny + 1))
        nu_c = np.ones((grid.nx, grid.ny))
        assert ns.dissipation(grid, nu_c, ns.cell_to_corner(grid, nu_c),
                              u, v) > 0.0

    def test_grad_form_matches_h1_seminorm(self):
        grid = GRID
        u, v = random_interior(grid, 17)
        au, av = ns.grad_form_apply(grid, u, v)
        form = (np.sum(au * u) + np.sum(av * v)) * grid.cell_volume
        w = VectorField(grid, u, v)
        ref = go.vector_h1_seminorm(w) ** 2
        assert abs(form - ref) <= 1e-12 * ref

    def test_corner_viscosity_stays_in_bounds(self):
        grid = GRID
        rng = np.random.default_rng(23)
        phi = rng.uniform(-1.2, 1.2, (grid.nx, grid.ny))
        visc = ns.ViscositySpec(0.3, 0.9)
        nu_c, nu_n = ns.viscosity_fields(grid, phi, visc)
        for arr in (nu_c, nu_n):
            assert np.all(arr >= 0.3 - 1e-15) and np.all(arr <= 0.9 + 1e-15)


class TestCapillaryForce:
    def test_zero_for_constant_mu(self):
        grid = GRID
        phi = smooth_scalar(grid, 0.5)
        mu = ScalarField(grid, np.full((grid.nx, grid.ny), 2.5))
        force = ns.capillary_force(phi, mu)
        assert np.all(force.u == 0.0) and np.all(force.v == 0.0)

    def test_constant_phi_gives_scaled_gradient(self):
        grid = GRID
        phi = ScalarField(grid, np.full((grid.nx, grid.ny), 0.3))
        mu = smooth_scalar(grid, 1.0)
        force = ns.capillary_force(phi, mu)
        gx, gy = go.grad_arrays(grid, mu.values)
        assert np.allclose(force.u, -0.3 * gx, rtol=0, atol=1e-14)
        assert np.allclose(force.v, -0.3 * gy, rtol=0, atol=1e-14)

    def test_discrete_integration_by_parts(self):
        # <-phi grad mu, v> = <mu, div(phi_face v)> for solenoidal-or-not v
        grid = GRID
        rng = np.random.default_rng(29)
        phi = ScalarField(grid, rng.uniform(-0.8, 0.8, (grid.nx, grid.ny)))
        mu = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
        u, v = random_interior(grid, 31)
        vel = VectorField(grid, u, v)
        force = ns.capillary_force(phi, mu)
        left = go.inner_vec(force, vel)
        px, py = face_phi(grid, phi.values)
        flux = VectorField(grid, px * u, py * v)
        right = go.inner(mu, ScalarField(grid, go.div_arrays(grid, flux.u,
                                                             flux.v)))
        scale = max(abs(left), abs(right), 1.0)
        assert abs(left - right) <= 1e-10 * scale


class TestProjection:
    def test_kills_gradients_and_keeps_solenoidal_fields(self):
        grid = GRID
        psi = smooth_scalar(grid, 1.0, kx=2, ky=1)
        gx, gy = go.grad_arrays(grid, psi.values)
        pu, pv = ns.project_divfree(grid, gx, gy)
        scale = max(np.abs(gx).max(), np.abs(gy).max())
        assert max(np.abs(pu).max(), np.abs(pv).max()) <= 1e-11 * scale

        w = swirl(grid, 1.0)
        su, sv = ns.project_divfree(grid, w.u.copy(), w.v.copy())
        assert np.abs(su - w.u).max() <= 1e-11
        assert np.abs(sv - w.v).max() <= 1e-11

    def test_idempotent(self):
        grid = GRID
        u, v = random_interior(grid, 37)
        pu, pv = ns.project_divfree(grid, u, v)
        ppu, ppv = ns.project_divfree(grid, pu.copy(), pv.copy())
        scale = max(np.abs(pu).max(), 1.0)
        assert np.abs(ppu - pu).max() <= 1e-11 * scale
        assert np.abs(ppv - pv).max() <= 1e-11 * scale


class TestStepContract:
    def _setup(self, grid=GRID, amplitude=0.1):
        state = ns.init_ns_state(swirl(grid, amplitude))
        phi = smooth_scalar(grid, 0.4)
        mu = smooth_scalar(grid, 0.2, kx=2, ky=1)
        visc = ns.ViscositySpec(0.05, 0.2)
        return state, phi, mu, visc

    def test_rest_state_is_bitwise_fixed_point(self):
        grid = GRID
        state = ns.init_ns_state(go.zero_vector(grid))
        phi = ScalarField(grid, np.full((grid.nx, grid.ny), 0.2))
        mu = ScalarField(grid, np.full((grid.nx, grid.ny), 1.7))
        visc = ns.ViscositySpec(0.1, 0.3)
        for _ in range(5):
            state = ns.ns_step(state, phi, mu, None, visc, 1e-2)
        assert np.all(state.u.u == 0.0) and np.all(state.u.v == 0.0)
        assert np.all(state.pressure.values == 0.0)
        assert state.t == pytest.approx(5e-2)

    def test_divergence_audit_and_pressure_mean(self):
        state, phi, mu, visc = self._setup()
        grid = state.u.grid
        for _ in range(10):
            state = ns.ns_step(state, phi, mu, None, visc, 2e-3)
            div = go.div_arrays(grid, state.u.u, state.u.v)
            umax = max(np.abs(state.u.u).max(), np.abs(state.u.v).max(), 1.0)
            assert np.abs(div).max() <= 1e-10 * umax
            assert np.abs(div).max() <= 1e-9
            assert abs(state.pressure.mean()) <= 1e-13 * (
                1.0 + np.abs(state.pressure.values).max())

    def test_noslip_walls_preserved(self):
        state, phi, mu, visc = self._setup()
        forcing = None
        for _ in range(3):
            state = ns.ns_step(state, phi, mu, forcing, visc, 2e-3)
        assert np.all(state.u.u[0, :] == 0.0)
        assert np.all(state.u.u[-1, :] == 0.0)
        assert np.all(state.u.v[:, 0] == 0.0)
        assert np.all(state.u.v[:, -1] == 0.0)

    def test_kinetic_energy_decays_without_forcing(self):
        state, phi, mu0, visc = self._setup()
        grid = state.u.grid
        mu = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        energies = [ns.kinetic_energy(state.u)]
        for _ in range(20):
            state = ns.ns_step(state, phi, mu, None, visc, 2e-3)
            energies.append(ns.kinetic_energy(state.u))
        for e_prev, e_next in zip(energies, energies[1:]):
            assert e_next < e_prev

    def test_bad_dt_and_grid_mismatch(self):
        state, phi, mu, visc = self._setup()
        with pytest.raises(ns.NSError):
            ns.ns_step(state, phi, mu, None, visc, 0.0)
        other = Grid(32, 32, 1.0, 1.0)
        phi_other = smooth_scalar(other, 0.4)
        with pytest.raises(ns.NSError):
            ns.ns_step(state, phi_other, mu, None, visc, 1e-3)

    def test_nan_input_is_hard_error(self):
        state, phi, mu, visc = self._setup()
        mu.values[0, 0] = np.nan  # mutate after construction-time checks
        with pytest.raises(ns.NSError):
            ns.ns_step(state, phi, mu, None, visc, 1e-3)

    def test_solver_stall_raises_rejection(self, monkeypatch):
        state, phi, mu, visc = self._setup()
        monkeypatch.setattr(ns, "MOMENTUM_MAXITER", 0)
        with pytest.raises(ns.NSStepRejection) as err:
            ns.ns_step(state, phi, mu, None, visc, 4e-3)
        assert err.value.suggested_dt == pytest.approx(2e-3)
        assert "CG failed to reach" in str(err.value)  # the CG's own reason


def reference_single_phase_decay(grid, u0, v0, nu, dt, nsteps):
    """Independent constant-viscosity solver: componentwise 5-point
    Laplacian with reflection wall ghosts, backward Euler, and its own
    assembled pinned Neumann projection.  Deliberately a different
    discretization of the same flow for a decay-rate cross-check."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy

    def dirichlet_1d(m, h):
        return sp.diags([np.full(m - 1, 1.0), np.full(m, -2.0),
                         np.full(m - 1, 1.0)], [-1, 0, 1]) / h**2

    def reflect_1d(m, h):
        main = np.full(m, -2.0)
        main[0] = main[-1] = -3.0
        return sp.diags([np.full(m - 1, 1.0), main,
                         np.full(m - 1, 1.0)], [-1, 0, 1]) / h**2

    lap_u = sp.kronsum(reflect_1d(ny, hy), dirichlet_1d(nx - 1, hx)).tocsc()
    lap_v = sp.kronsum(dirichlet_1d(ny - 1, hy), reflect_1d(nx, hx)).tocsc()
    mu_lu = spla.splu((sp.identity(lap_u.shape[0], format="csc")
                       - dt * nu * lap_u).tocsc())
    mv_lu = spla.splu((sp.identity(lap_v.shape[0], format="csc")
                       - dt * nu * lap_v).tocsc())

    def neumann_1d(m, h):
        main = np.full(m, -2.0)
        main[0] = main[-1] = -1.0
        return sp.diags([np.full(m - 1, 1.0), main,
                         np.full(m - 1, 1.0)], [-1, 0, 1]) / h**2

    poisson = (-sp.kronsum(neumann_1d(ny, hy), neumann_1d(nx, hx))).tolil()
    poisson[0, :] = 0.0
    poisson[0, 0] = 1.0
    poisson_lu = spla.splu(poisson.tocsc())

    u = u0.copy()
    v = v0.copy()
    for _ in range(nsteps):
        u_int = mu_lu.solve(u[1:-1, :].ravel()).reshape(nx - 1, ny)
        v_int = mv_lu.solve(v[:, 1:-1].ravel()).reshape(nx, ny - 1)
        u = np.zeros_like(u)
        v = np.zeros_like(v)
        u[1:-1, :] = u_int
        v[:, 1:-1] = v_int
        div = (u[1:, :] - u[:-1, :]) / hx + (v[:, 1:] - v[:, :-1]) / hy
        rhs = -(div - div.mean()).ravel() / dt
        rhs[0] = 0.0
        q = poisson_lu.solve(rhs).reshape(nx, ny)
        u[1:-1, :] -= dt * (q[1:, :] - q[:-1, :]) / hx
        v[:, 1:-1] -= dt * (q[:, 1:] - q[:, :-1]) / hy
    return u, v


class TestSinglePhaseDecay:
    def test_decay_rate_matches_reference_within_ten_percent(self):
        grid = Grid(32, 32, 1.0, 1.0)
        nu = 0.08
        dt = 2e-3
        nsteps = 50
        w0 = swirl(grid, 0.05)

        visc = ns.ViscositySpec(nu, nu)
        phi = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        mu = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        state = ns.init_ns_state(w0.copy())
        ke0 = ns.kinetic_energy(state.u)
        for _ in range(nsteps):
            state = ns.ns_step(state, phi, mu, None, visc, dt)
        rate_ours = np.log(ke0 / ns.kinetic_energy(state.u))

        ur, vr = reference_single_phase_decay(grid, w0.u, w0.v, nu, dt, nsteps)
        ke_ref0 = 0.5 * (np.sum(w0.u**2) + np.sum(w0.v**2)) * grid.cell_volume
        ke_ref = 0.5 * (np.sum(ur**2) + np.sum(vr**2)) * grid.cell_volume
        rate_ref = np.log(ke_ref0 / ke_ref)

        assert rate_ours > 0.0 and rate_ref > 0.0
        assert abs(rate_ours - rate_ref) <= 0.10 * rate_ref


class TestMomentumResidual:
    def test_first_order_in_dt(self):
        grid = GRID
        phi = smooth_scalar(grid, 0.3)
        mu = smooth_scalar(grid, 0.2, kx=2, ky=1)
        visc = ns.ViscositySpec(0.05, 0.2)
        state0 = ns.init_ns_state(swirl(grid, 0.1))

        res = {}
        for dt in (4e-3, 2e-3, 1e-3):
            state1 = ns.ns_step(state0, phi, mu, None, visc, dt)
            res[dt] = ns.momentum_residual(grid, state0, state1, phi, mu,
                                           None, visc)
        assert res[4e-3] > res[2e-3] > res[1e-3] > 0.0
        ratio = res[4e-3] / res[2e-3]
        assert 1.5 <= ratio <= 2.6
        ratio2 = res[2e-3] / res[1e-3]
        assert 1.5 <= ratio2 <= 2.6


def divfree_stiffness(grid):
    """Dense oracle from scratch: build the gradient quadratic form and the
    divergence constraint by explicit slicing.  Returns an orthonormal
    basis of the divergence null space on the interior faces and the
    quadratic form sum |grad|^2 (plain sums, no cell volume)."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    nu = (nx - 1) * ny  # interior u faces
    nv = nx * (ny - 1)
    ndof = nu + nv

    def embed(x):
        u = np.zeros((nx + 1, ny))
        v = np.zeros((nx, ny + 1))
        u[1:-1, :] = x[:nu].reshape(nx - 1, ny)
        v[:, 1:-1] = x[nu:].reshape(nx, ny - 1)
        return u, v

    divm = np.zeros((nx * ny, ndof))
    images = None
    for k in range(ndof):
        u, v = embed(np.eye(ndof)[k])
        ux = (u[1:, :] - u[:-1, :]) / hx
        vy = (v[:, 1:] - v[:, :-1]) / hy
        uy = np.zeros((nx + 1, ny + 1))
        uy[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / hy
        uy[:, 0] = 2.0 * u[:, 0] / hy
        uy[:, -1] = -2.0 * u[:, -1] / hy
        vx = np.zeros((nx + 1, ny + 1))
        vx[1:-1, :] = (v[1:, :] - v[:-1, :]) / hx
        vx[0, :] = 2.0 * v[0, :] / hx
        vx[-1, :] = -2.0 * v[-1, :] / hx
        grads = (ux, uy, vx, vy)
        if images is None:
            images = [np.zeros((g.size, ndof)) for g in grads]
        for g, store in zip(grads, images):
            store[:, k] = g.ravel()
        divm[:, k] = (ux + vy).ravel()
    # quadratic form sum |grad|^2 as sum of squared forward maps
    quad = sum(store.T @ store for store in images)
    return scipy.linalg.null_space(divm), quad


def assembled_stokes_lambda1(grid):
    """Smallest eigenvalue of the stiffness restricted to the divergence
    null space."""
    null, quad = divfree_stiffness(grid)
    return float(scipy.linalg.eigvalsh(null.T @ quad @ null)[0])


def assembled_dual_norm(grid, u, v):
    """sqrt(<w, N (N^T K N)^-1 N^T w> vol) over the same null-space basis N."""
    null, quad = divfree_stiffness(grid)
    x = np.concatenate((u[1:-1, :].ravel(), v[:, 1:-1].ravel()))
    y = null.T @ x
    val = y @ scipy.linalg.solve(null.T @ quad @ null, y, assume_a="pos")
    return float(np.sqrt(val * grid.cell_volume))


def interior_error(grid, got, want):
    """Relative max error over the interior faces of two MAC pairs."""
    du = got[0][1:-1, :] - want[0][1:-1, :]
    dv = got[1][:, 1:-1] - want[1][:, 1:-1]
    scale = max(np.abs(want[0]).max(), np.abs(want[1]).max())
    return max(np.abs(du).max(), np.abs(dv).max()) / scale


class TestStiffnessInverse:
    @pytest.mark.parametrize("grid", [Grid(9, 14, 1.0, 1.7),
                                      Grid(31, 20, 2.0, 1.0), Grid(64, 64)],
                             ids=lambda g: f"{g.nx}x{g.ny}")
    def test_inverse_round_trip(self, grid):
        fu, fv = random_interior(grid, 41)
        u, v = ns.grad_form_inverse(grid, fu, fv)
        assert np.all(u[0] == 0.0) and np.all(u[-1] == 0.0)
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)
        assert interior_error(grid, ns.grad_form_apply(grid, u, v),
                              (fu, fv)) <= 1e-12


class TestMomentumSolve:
    DT = 2e-3
    VISC = ns.ViscositySpec(0.01, 0.02)

    def _problem(self, grid):
        """Viscosity spanning [nu1, nu2] and a random right-hand side."""
        rng = np.random.default_rng(71)
        x, y = grid.cell_mesh()
        phi = 1.2 * np.sin(3 * np.pi * x / grid.lx) \
            * np.cos(2 * np.pi * y / grid.ly)
        nu_c, nu_n = ns.viscosity_fields(grid, phi, self.VISC)
        bu = rng.standard_normal((grid.nx + 1, grid.ny))
        bv = rng.standard_normal((grid.nx, grid.ny + 1))
        return nu_c, nu_n, bu, bv

    def _zero_start(self, grid):
        return np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_iterations_mesh_independent(self, n):
        # plain CG needs 42 iterations at 128^2 and doubles per refinement
        grid = Grid(n, n, 1.0, 1.0)
        nu_c, nu_n, bu, bv = self._problem(grid)
        assert nu_c.min() == 0.01 and nu_c.max() == 0.02
        *_, iters = ns._solve_momentum(grid, nu_c, nu_n, self.DT, bu, bv,
                                       *self._zero_start(grid))
        assert iters <= 25

    def test_preconditioner_symmetric_positive_definite(self):
        # on the whole packed vector, wall-normal faces included
        grid = Grid(20, 14, 1.5, 1.0)
        precond = ns._momentum_precond(grid, 0.015, self.DT)
        rng = np.random.default_rng(73)
        size = (grid.nx + 1) * grid.ny + grid.nx * (grid.ny + 1)
        for _ in range(3):
            x, y = rng.standard_normal(size), rng.standard_normal(size)
            xpy, ypx = np.vdot(x, precond(y)), np.vdot(y, precond(x))
            assert abs(xpy - ypx) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(y)
            assert np.vdot(x, precond(x)) > 0.0

    def test_preconditioner_inverts_constant_viscosity_blocks(self):
        # at constant nu it is the exact inverse of the diagonal blocks of
        # I + dt A; only the u-v shear coupling is left to CG
        grid = Grid(12, 9, 1.5, 1.0)
        nu = 0.015
        nu_c = np.full((grid.nx, grid.ny), nu)
        nu_n = ns.cell_to_corner(grid, nu_c)
        precond = ns._momentum_precond(grid, nu, self.DT)
        u, v = random_interior(grid, 79)
        zero_u, zero_v = np.zeros_like(u), np.zeros_like(v)
        au, _ = ns.viscous_apply(grid, nu_c, nu_n, u, zero_v)
        _, av = ns.viscous_apply(grid, nu_c, nu_n, zero_u, v)
        back_u, back_v = ns._unpack(grid, precond(ns._pack(u + self.DT * au,
                                                           v + self.DT * av)))
        assert np.abs(back_u - u).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(back_v - v).max() <= 1e-12 * np.abs(v).max()

    def test_matches_plain_cg_oracle(self):
        grid = Grid(32, 24, 1.0, 0.75)
        nu_c, nu_n, bu, bv = self._problem(grid)
        u, v, _ = ns._solve_momentum(grid, nu_c, nu_n, self.DT, bu, bv,
                                     *self._zero_start(grid))

        def mv(w):
            wu, wv = ns._unpack(grid, w)
            au, av = ns.viscous_apply(grid, nu_c, nu_n, wu, wv)
            return ns._pack(wu + self.DT * au, wv + self.DT * av)

        oracle, _ = go.cg(mv, ns._pack(*ns._zero_normal(bu.copy(), bv.copy())),
                          rtol=1e-14)
        got = ns._pack(u, v)
        assert np.linalg.norm(got - oracle) <= \
            ns.MOMENTUM_RTOL * np.linalg.norm(oracle)


    def test_flow_at_rest_under_converged_phi_stops_at_roundoff(self,
                                                                 monkeypatch):
        # a stripe relaxed by 50 large CH steps has |grad mu| ~ 2e-11, so u = 0
        # meets a roundoff-sized capillary b; a stop relative to ||b|| alone
        # took 6.7 iterations per step here (9.4 at 64^2) reducing noise
        grid = Grid(32, 32, 1.0, 1.0)
        kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=4.0), grid)
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1,
                                        epsilon=1e-3).with_beta(kd.beta))
        x, _ = grid.cell_mesh()
        state = ch.init_state(ScalarField(grid, 0.8 * np.tanh((x - 0.5) / 0.05)),
                              kd, pot)
        for _ in range(50):
            state = ch.ch_step(state, None, 0.05, kd, pot)
        counts = []
        solve = ns._solve_momentum

        def counting(*args):
            *uv, iters = solve(*args)
            counts.append(iters)
            return (*uv, iters)

        monkeypatch.setattr(ns, "_solve_momentum", counting)
        flow = ns.init_ns_state(go.zero_vector(grid))
        for _ in range(10):
            flow = ns.ns_step(flow, state.phi, state.mu, None, self.VISC, self.DT)
        assert max(counts) <= 1
        assert np.abs(flow.u.u).max() <= 1e-12


class TestStokesSolve:
    def test_dual_norm_matches_assembled_oracle(self):
        grid = Grid(9, 12, 1.0, 1.4)
        u, v = random_interior(grid, 47)
        oracle = assembled_dual_norm(grid, u, v)
        assert ns.stiffness_dual_norm(grid, u, v) == pytest.approx(oracle,
                                                                   rel=1e-8)

    def test_gradient_fields_have_zero_dual_norm(self):
        # grad q is orthogonal to every solenoidal test field
        grid = Grid(16, 12, 1.0, 0.8)
        q = np.random.default_rng(53).standard_normal((grid.nx, grid.ny))
        gx, gy = go.grad_arrays(grid, q)
        u, v = random_interior(grid, 59)
        base = ns.stiffness_dual_norm(grid, u, v)
        assert ns.stiffness_dual_norm(grid, gx, gy) <= 1e-6 * base
        assert ns.stiffness_dual_norm(grid, u + gx, v + gy) == pytest.approx(
            base, rel=1e-9)

    def test_solution_is_solenoidal(self):
        # the Schur CG alone leaves div z near its rtol (1e-10 by default);
        # the closing Leray projection pins it to roundoff
        grid = Grid(32, 24, 1.0, 1.3)
        u, v = random_interior(grid, 61)
        z = ns._stiffness_solve(grid, ns._pack(u, v))
        zu, zv = ns._unpack(grid, z)
        div = go.div_arrays(grid, zu, zv)
        scale = max(np.abs(zu).max(), np.abs(zv).max()) / min(grid.hx, grid.hy)
        assert np.abs(div).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [32, 64])
    def test_schur_iterations_mesh_independent(self, n, monkeypatch):
        # the Schur complement is spectrally equivalent to the identity on
        # zero-mean pressures, so its CG count must not grow with n
        counts = []
        cg = go.cg

        def counting(*args, **kwargs):
            x, iters = cg(*args, **kwargs)
            counts.append(iters)
            return x, iters

        monkeypatch.setattr(go, "cg", counting)
        ns.stokes_lambda1(Grid(n, n, 1.0, 1.0))
        assert counts and max(counts) <= 30

    @pytest.mark.parametrize("grid", [Grid(9, 14, 1.0, 1.4), Grid(20, 9),
                                      Grid(64, 64)],
                             ids=lambda g: f"{g.nx}x{g.ny}")
    def test_schur_matches_composed_operator(self, grid):
        # the non-square grids catch a swapped pair of transfer factors
        p = np.random.default_rng(67).standard_normal((grid.nx, grid.ny))
        gx, gy = go.grad_arrays(grid, p)
        want = -go.div_arrays(grid, *ns.grad_form_inverse(grid, gx, gy))
        got = ns._schur_apply(ns._stokes_factors(grid), p)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_schur_iterations_skip_the_stiffness_inverse(self, monkeypatch):
        # one inverse for the right-hand side, one for the closing velocity;
        # the Schur CG applies S through the precomputed factors
        calls = []
        inverse = ns.grad_form_inverse

        def counting(*args):
            calls.append(1)
            return inverse(*args)

        monkeypatch.setattr(ns, "grad_form_inverse", counting)
        grid = Grid(64, 64)
        ns._stiffness_solve(grid, ns._pack(*random_interior(grid, 71)))
        assert len(calls) <= 2


class TestStokesEigenvalue:
    def test_matches_assembled_oracle_on_coarse_grid(self):
        grid = Grid(10, 10, 1.0, 1.0)
        oracle = assembled_stokes_lambda1(grid)
        computed = ns.stokes_lambda1(grid, tol=1e-11)
        assert computed == pytest.approx(oracle, rel=1e-10)

    def test_matches_assembled_oracle_on_anisotropic_grid(self):
        grid = Grid(8, 11, 1.0, 1.3)
        oracle = assembled_stokes_lambda1(grid)
        assert ns.stokes_lambda1(grid, tol=1e-12) == pytest.approx(oracle,
                                                                   rel=1e-9)

    def test_unconverged_iteration_raises(self):
        # a 1e-10 relative settle takes far more than three Lanczos steps
        with pytest.raises(ns.NSError, match="did not converge"):
            ns.stokes_lambda1(Grid(16, 16, 1.0, 1.0), maxiter=3)

    @pytest.mark.parametrize("maxiter", [0, 1])
    def test_too_few_iterations_raise_nserror(self, maxiter):
        # no estimate (0) or no second one to compare against (1)
        with pytest.raises(ns.NSError, match="did not converge"):
            ns.stokes_lambda1(Grid(8, 8, 1.0, 1.0), maxiter=maxiter)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_solve_count_and_determinism(self, n, monkeypatch):
        # Lanczos settles in 10-12 Stokes solves; inverse power took 21+
        calls = []
        solve = ns._stiffness_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ns, "_stiffness_solve", counting)
        grid = Grid(n, n, 1.0, 1.0)
        first = ns.stokes_lambda1(grid)
        assert len(calls) <= 14
        assert ns.stokes_lambda1(grid) == first

    def test_invariant_start_space_returns_its_ritz_value(self, monkeypatch):
        # a multiple of the identity leaves every start vector invariant:
        # beta vanishes after the first solve, whose Ritz value is exact
        calls = []

        def scaled(grid, b, rtol):
            calls.append(1)
            return 0.25 * b

        monkeypatch.setattr(ns, "_stiffness_solve", scaled)
        assert ns.stokes_lambda1(Grid(8, 8, 1.0, 1.0)) == pytest.approx(
            4.0, rel=1e-14)
        assert len(calls) == 1

    def test_continuum_square_value(self):
        # first Stokes eigenvalue of the unit square is about 52.3447
        grid = Grid(32, 32, 1.0, 1.0)
        lam = ns.stokes_lambda1(grid, tol=1e-9)
        assert lam == pytest.approx(52.3447, rel=0.05)
