"""Grid operator tests.

Oracles kept independent of the implementation:
  - summation by parts and adjointness checked as exact floating identities
    on random fields;
  - the discrete Neumann Laplacian has closed-form eigenpairs
    f_i = cos(k pi (i+1/2)/n), lambda = (4/h^2) sin^2(k pi / (2n)),
    which pin down inverse_neumann and the V0' norm without re-deriving
    anything from the code under test;
  - the Neumann matrix A = -laplace assembled here from 1D stencils
    (assembled_neumann) checks the Neumann solve on both sides of
    DENSE_MAX_N and the matrix-free stencil;
  - quadrature sums of polynomials have closed forms.
"""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import fft, sparse

from nlchns import grid_ops as go


def rng(seed=0):
    return np.random.default_rng(seed)


def _neumann_1d(n, h):
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    return sparse.diags(
        [np.full(n - 1, -1.0), main, np.full(n - 1, -1.0)], [-1, 0, 1]
    ) / h**2


def assembled_neumann(grid):
    """The sparse Neumann matrix A = -laplace as a Kronecker sum of 1D
    stencils, with its diagonal and its action on cell arrays."""
    nx, ny = grid.nx, grid.ny
    ax = _neumann_1d(nx, grid.hx)
    ay = _neumann_1d(ny, grid.hy)
    ix = sparse.identity(nx, format="csr")
    iy = sparse.identity(ny, format="csr")
    A = (sparse.kron(ax, iy) + sparse.kron(ix, ay)).tocsr()
    return SimpleNamespace(
        A=A,
        diag=A.diagonal().reshape(nx, ny),
        apply_A=lambda f: (A @ f.reshape(nx * ny)).reshape(nx, ny),
    )


def random_scalar(grid, seed=0, zero_mean=False):
    vals = rng(seed).standard_normal((grid.nx, grid.ny))
    if zero_mean:
        vals -= vals.mean()
    return go.ScalarField(grid, vals)


def random_vector(grid, seed=0):
    r = rng(seed)
    u = r.standard_normal((grid.nx + 1, grid.ny))
    v = r.standard_normal((grid.nx, grid.ny + 1))
    u[0] = u[-1] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return go.VectorField(grid, u, v)


class TestGridBasics:
    def test_min_size_enforced(self):
        with pytest.raises(go.GridError):
            go.Grid(7, 16)
        with pytest.raises(go.GridError):
            go.Grid(16, 4)
        go.Grid(8, 8)

    def test_bad_extent(self):
        with pytest.raises(go.GridError):
            go.Grid(8, 8, lx=-1.0)

    def test_cell_centers(self):
        g = go.Grid(10, 8, lx=2.0, ly=1.0)
        assert g.hx == pytest.approx(0.2)
        x = g.cell_x()
        assert x[0] == pytest.approx(0.1)
        assert x[-1] == pytest.approx(1.9)
        assert g.cell_volume * g.nx * g.ny == pytest.approx(g.area)

    def test_field_shape_validation(self):
        g = go.Grid(8, 8)
        with pytest.raises(go.GridError):
            go.ScalarField(g, np.zeros((8, 9)))
        with pytest.raises(go.GridError):
            go.VectorField(g, np.zeros((8, 8)), np.zeros((8, 9)))

    def test_nonfinite_rejected(self):
        g = go.Grid(8, 8)
        vals = np.zeros((8, 8))
        vals[3, 3] = np.nan
        with pytest.raises(go.GridError):
            go.ScalarField(g, vals)

    def test_normal_face_enforcement(self):
        g = go.Grid(8, 8)
        u = np.zeros((9, 8))
        v = np.zeros((8, 9))
        u[0, 2] = 1.0
        with pytest.raises(go.GridError):
            go.VectorField(g, u, v)

    def test_mean_and_integral(self):
        g = go.Grid(8, 16, lx=3.0, ly=0.5)
        f = go.ScalarField(g, np.full((8, 16), 2.5))
        assert f.mean() == pytest.approx(2.5, abs=1e-15)
        assert f.integral() == pytest.approx(2.5 * g.area, rel=1e-14)


class TestExactIdentities:
    """The structural identities the energy bookkeeping relies on."""

    def test_gradient_of_constant(self):
        g = go.Grid(16, 12)
        gx, gy = go.grad_arrays(g, np.full((16, 12), 3.7))
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_laplacian_of_constant(self):
        g = go.Grid(16, 12)
        lf = go.laplace_arrays(g, np.full((16, 12), -1.2))
        assert np.max(np.abs(lf)) == 0.0

    def test_laplacian_has_zero_integral(self):
        g = go.Grid(24, 16, lx=1.5)
        f = random_scalar(g, seed=3)
        lf = go.ScalarField(g, go.laplace_arrays(g, f.values))
        scale = go.norm_l2(lf) + 1.0
        assert abs(lf.integral()) <= 1e-12 * scale

    def test_summation_by_parts(self):
        g = go.Grid(24, 20, lx=1.3, ly=0.9)
        f = random_scalar(g, seed=1)
        w = random_scalar(g, seed=2)
        lhs = go.inner(go.ScalarField(g, go.laplace_arrays(g, f.values)), w)
        (fx, fy), (wx, wy) = go.grad_arrays(g, f.values), go.grad_arrays(g, w.values)
        rhs = -(np.sum(fx * wx) + np.sum(fy * wy)) * g.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_divergence_adjoint_to_gradient(self):
        g = go.Grid(20, 24, lx=0.7, ly=1.1)
        f = random_scalar(g, seed=4)
        v = random_vector(g, seed=5)
        fx, fy = go.grad_arrays(g, f.values)
        lhs = (np.sum(fx * v.u) + np.sum(fy * v.v)) * g.cell_volume
        rhs = -go.inner(f, go.ScalarField(g, go.div_arrays(g, v.u, v.v)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_h1_seminorm_matches_quadratic_form(self):
        g = go.Grid(16, 16)
        f = random_scalar(g, seed=6)
        ws = assembled_neumann(g)
        quad = go.inner(f, go.ScalarField(g, ws.apply_A(f.values)))
        assert go.h1_seminorm(f) ** 2 == pytest.approx(quad, rel=1e-12)

    def test_neumann_matrix_positive_semidefinite(self):
        g = go.Grid(12, 10)
        ws = assembled_neumann(g)
        for seed in range(5):
            f = rng(seed).standard_normal((12, 10))
            e = np.sum(f * ws.apply_A(f)) * g.cell_volume
            assert e >= -1e-12
        # assembled diagonal rounds 2/hx^2 + 2/hy^2 once, so constants are
        # only annihilated to relative roundoff of the stencil scale
        const = np.full((12, 10), 2.0)
        stencil_scale = 4.0 * (1.0 / g.hx**2 + 1.0 / g.hy**2)
        assert np.max(np.abs(ws.apply_A(const))) <= 1e-12 * stencil_scale

    def test_sparse_matches_matrixfree(self):
        g = go.Grid(14, 18, lx=2.0, ly=3.0)
        f = random_scalar(g, seed=7)
        ws = assembled_neumann(g)
        direct = -go.laplace_arrays(g, f.values)
        assert np.allclose(ws.apply_A(f.values), direct, rtol=1e-13, atol=1e-13)


def neumann_eigenfield(grid, kx, ky):
    """Exact eigenpair of the discrete Neumann Laplacian (negative form)."""
    i = np.arange(grid.nx)
    j = np.arange(grid.ny)
    fx = np.cos(kx * np.pi * (i + 0.5) / grid.nx)
    fy = np.cos(ky * np.pi * (j + 0.5) / grid.ny)
    lam = (4.0 / grid.hx**2) * np.sin(kx * np.pi / (2 * grid.nx)) ** 2 \
        + (4.0 / grid.hy**2) * np.sin(ky * np.pi / (2 * grid.ny)) ** 2
    return go.ScalarField(grid, np.outer(fx, fy)), lam


class TestNeumannInverse:
    def test_eigenfield_is_eigenvector(self):
        g = go.Grid(16, 12, lx=1.7)
        f, lam = neumann_eigenfield(g, 2, 1)
        ws = assembled_neumann(g)
        assert np.allclose(ws.apply_A(f.values), lam * f.values,
                           rtol=1e-12, atol=1e-12)

    def test_inverse_on_eigenfield(self):
        g = go.Grid(16, 16)
        f, lam = neumann_eigenfield(g, 1, 3)
        nf = go.inverse_neumann(f)
        assert np.allclose(nf.values, f.values / lam, rtol=1e-10, atol=1e-12)

    def test_round_trip_random(self):
        g = go.Grid(24, 20, lx=1.2, ly=0.8)
        f = random_scalar(g, seed=8, zero_mean=True)
        nf = go.inverse_neumann(f)
        ws = assembled_neumann(g)
        resid = np.linalg.norm(ws.apply_A(nf.values) - f.values)
        assert resid <= 1e-9 * np.linalg.norm(f.values)
        assert abs(nf.values.mean()) <= 1e-13 * np.abs(nf.values).max()

    def test_symmetry(self):
        g = go.Grid(16, 16)
        f = random_scalar(g, seed=9, zero_mean=True)
        h = random_scalar(g, seed=10, zero_mean=True)
        a = go.inner(f, go.inverse_neumann(h))
        b = go.inner(h, go.inverse_neumann(f))
        scale = abs(a) + abs(b) + 1.0
        assert abs(a - b) <= 1e-10 * scale

    def test_nonzero_mean_rejected(self):
        g = go.Grid(8, 8)
        f = go.ScalarField(g, np.ones((8, 8)))
        with pytest.raises(go.MeanError):
            go.inverse_neumann(f)

    @pytest.mark.parametrize("shape", [(9, 14, 1.3, 0.7), (31, 20, 2.0, 0.5),
                                       (48, 20, 2.0, 0.5), (64, 64, 1.0, 1.0),
                                       (128, 128, 1.0, 1.0),
                                       (256, 256, 1.0, 1.0)],
                             ids=["9x14", "31x20", "48x20", "64x64", "128x128",
                                  "256x256"])
    def test_direct_solve_residual_against_assembled_stencil(self, shape):
        # odd, non-square, anisotropic grids on both sides of DENSE_MAX_N:
        # the dense and the DCT solve must invert the assembled sparse A
        g = go.Grid(*shape)
        f = random_scalar(g, seed=11, zero_mean=True)
        p = go.solve_neumann_direct(g, f.values)
        ws = assembled_neumann(g)
        resid = np.linalg.norm(ws.A @ p.ravel() - f.values.ravel())
        assert resid <= 1e-12 * np.linalg.norm(f.values)
        assert abs(p.mean()) <= 1e-15 * np.abs(p).max()

    @pytest.mark.parametrize("shape,k", [((9, 14, 1.3, 0.7), (4, 3)),
                                         ((31, 20, 2.0, 0.5), (1, 7)),
                                         ((48, 20, 2.0, 0.5), (5, 2)),
                                         ((64, 64, 1.0, 1.0), (3, 11)),
                                         ((128, 128, 1.0, 1.0), (6, 1))],
                             ids=["9x14", "31x20", "48x20", "64x64", "128x128"])
    def test_direct_solve_exact_on_eigenfield(self, shape, k):
        g = go.Grid(*shape)
        f, lam = neumann_eigenfield(g, *k)
        p = go.solve_neumann_direct(g, f.values)
        # roundoff in the other modes is divided by eigenvalues down to the
        # smallest nonzero one, so that one sets the error scale
        lam_min = min(neumann_eigenfield(g, 1, 0)[1], neumann_eigenfield(g, 0, 1)[1])
        assert np.max(np.abs(p - f.values / lam)) <= 1e-14 / lam_min

    @pytest.mark.parametrize("shape", [(9, 14, 1.3, 0.7), (48, 20, 2.0, 0.5),
                                       (64, 64, 1.0, 1.0), (100, 120, 1.0, 1.3)],
                             ids=["9x14", "48x20", "64x64", "100x120"])
    def test_transform_pair_applies_the_stencil(self, shape):
        # A is the eigenvalue table between the forward and inverse DCT-II,
        # as dense products within DENSE_MAX_N and through scipy.fft above
        g = go.Grid(*shape)
        f = random_scalar(g, seed=12).values
        ws = go.workspace(g)
        assert (ws.qx is None) is (max(g.nx, g.ny) > go.DENSE_MAX_N)
        if ws.qx is None:
            fh = fft.dctn(f, type=2, norm="ortho")
            af = fft.idctn(ws.eig * fh, type=2, norm="ortho")
        else:
            af = ws.qx @ (ws.eig * (ws.qx.T @ f @ ws.qy)) @ ws.qy.T
        stencil_scale = 4.0 * (1.0 / g.hx**2 + 1.0 / g.hy**2) * np.abs(f).max()
        err = af + go.laplace_arrays(g, f)
        # observed at most 4.2e-16 of the scale
        assert np.abs(err).max() <= 1e-15 * stencil_scale

    def test_dense_factors_only_up_to_the_size_rule(self):
        # 64^2 runs on dense factors; 256^2 keeps the scipy.fft and stencil
        # path, and the workspace builds no cosine basis for it
        small, large = go.Grid(64, 64), go.Grid(256, 256)
        assert max(small.nx, small.ny) <= go.DENSE_MAX_N < large.nx
        assert [m.shape for m in go.workspace(small)] == [(64, 64)] * 4
        ws = go.workspace(large)
        assert ws.qx is None and ws.qy is None

    @pytest.mark.parametrize("apply,reason", [
        (lambda x: np.roll(x, 1) + x * 2.0, "CG failed to reach"),
        (lambda x: -x, "CG met a non-positive curvature")],
        ids=["plain", "indefinite"])
    def test_cg_reports_failure(self, apply, reason):
        b = rng(0).standard_normal(64)
        b -= b.mean()
        with pytest.raises(go.CGStall, match=reason):
            go.cg(apply, b, maxiter=2)

    @pytest.mark.parametrize("big", [1e200, np.inf], ids=["overflow", "inf"])
    def test_cg_rejects_nonfinite_rhs_norm(self, big):
        # ||b|| overflows to inf, which every residual would "meet"
        b = np.full(64, 1.0)
        b[5] = big
        with pytest.raises(go.CGStall, match="non-finite"):
            go.cg(lambda x: 2.0 * x, b)

    def test_cg_warm_start_at_solution_takes_no_iteration(self):
        g = go.Grid(16, 12)
        f, lam = neumann_eigenfield(g, 2, 1)
        ws = assembled_neumann(g)
        x, iters = go.cg(ws.apply_A, f.values, x0=f.values / lam)
        assert iters == 0
        assert np.array_equal(x, f.values / lam)

    def test_cg_preconditioned_agrees_with_plain(self):
        # SPD diag(w) + A, preconditioned by the exact inverse of its
        # diagonal: both paths must land on the same solution
        g = go.Grid(16, 16)
        ws = assembled_neumann(g)
        w = 1.0 + rng(18).random((g.nx, g.ny))
        b = rng(19).standard_normal((g.nx, g.ny))

        def op(x):
            return w * x + 1e-3 * ws.apply_A(x)

        diag = w + 1e-3 * ws.diag
        x_plain, n_plain = go.cg(op, b, rtol=1e-13)
        x_pre, n_pre = go.cg(op, b, precond=lambda r: r / diag, rtol=1e-13)
        assert n_pre <= n_plain
        assert np.allclose(x_pre, x_plain, rtol=1e-11, atol=1e-13)


class TestRefinement:
    def test_laplacian_second_order_on_cosine(self):
        errs = []
        ns = [16, 32, 64]
        for n in ns:
            g = go.Grid(n, 8, lx=1.0, ly=1.0)
            x, _ = g.cell_mesh()
            lf = go.laplace_arrays(g, np.cos(np.pi * x))
            exact = -np.pi**2 * np.cos(np.pi * x)
            errs.append(np.max(np.abs(lf - exact)))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9

class TestNorms:
    def test_l2_closed_form_sum(self):
        # sum_{i<n} ((i+1/2)h)^2 h = h^3 n(4n^2-1)/12 with h = 1/n
        n = 16
        g = go.Grid(n, 8)
        x, _ = g.cell_mesh()
        f = go.ScalarField(g, x)
        exact_sq = (4 * n**2 - 1) / (12.0 * n**2)
        assert go.norm_l2(f) ** 2 == pytest.approx(exact_sq, rel=1e-14)

    def test_lp_and_linf(self):
        g = go.Grid(8, 8)
        vals = np.zeros((8, 8))
        vals[2, 5] = -3.0
        f = go.ScalarField(g, vals)
        assert go.norm_linf(f) == 3.0
        assert go.norm_lp(f, 4) == pytest.approx((81.0 * g.cell_volume) ** 0.25)

    def test_v0prime_on_eigenfield(self):
        g = go.Grid(16, 16, lx=1.5, ly=1.5)
        f, lam = neumann_eigenfield(g, 2, 0)
        want = np.sqrt(go.norm_l2(f) ** 2 / lam)
        assert go.v0prime_norm(f) == pytest.approx(want, rel=1e-10)

    def test_vector_h1_detects_wall_shear(self):
        # u = 1 in the interior of a channel has zero gradient except the
        # no-slip ghost rows, which must contribute 2u/h per wall corner.
        g = go.Grid(8, 8)
        u = np.ones((9, 8))
        u[0] = u[-1] = 0.0
        w = go.VectorField(g, u, np.zeros((8, 9)))
        assert go.vector_h1_seminorm(w) > 0.0
        _, uy, _, _ = go.mac_component_gradients(g, w.u, w.v)
        assert uy[4, 0] == pytest.approx(2.0 / g.hy)
        assert uy[4, -1] == pytest.approx(-2.0 / g.hy)
        assert np.max(np.abs(uy[:, 1:-1])) == 0.0


class TestStreamfunction:
    def test_divergence_free_and_noslip(self):
        g = go.Grid(24, 16, lx=1.0, ly=2.0)
        xc, yc = g.corner_mesh()
        psi = np.sin(np.pi * xc / g.lx) ** 2 * np.sin(np.pi * yc / g.ly) ** 2
        w = go.velocity_from_streamfunction(g, psi)
        div = go.div_arrays(g, w.u, w.v)
        assert np.max(np.abs(div)) <= 1e-12 * (np.abs(w.u).max() / g.hx)
        assert np.all(w.u[0] == 0.0) and np.all(w.v[:, -1] == 0.0)

    def test_shape_check(self):
        g = go.Grid(8, 8)
        with pytest.raises(go.GridError):
            go.velocity_from_streamfunction(g, np.zeros((8, 8)))


class TestSnapshotIO:
    def test_round_trip_bitwise(self, tmp_path):
        g = go.Grid(12, 10, lx=1.4, ly=0.6)
        f = random_scalar(g, seed=13)
        path = tmp_path / "phi.fld"
        go.write_snapshot(path, f.values, g, time=2.25)
        data, meta = go.read_snapshot(path)
        assert data.shape == (12, 10)
        assert np.array_equal(data, f.values)
        assert meta == {"hx": g.hx, "hy": g.hy, "time": 2.25}

    def test_mac_component_round_trip(self, tmp_path):
        g = go.Grid(8, 8)
        w = random_vector(g, seed=14)
        path = tmp_path / "u.fld"
        go.write_snapshot(path, w.u, g, time=0.5)
        data, _ = go.read_snapshot(path)
        assert np.array_equal(data, w.u)

    @pytest.mark.parametrize("cut", [20, 48 + 8 * 7, 48 + 8 * 121],
                             ids=["short-header", "short-payload", "long-payload"])
    def test_wrong_size_rejected(self, tmp_path, cut):
        g = go.Grid(12, 10)
        path = tmp_path / "phi.fld"
        go.write_snapshot(path, random_scalar(g, seed=20).values, g)
        blob = path.read_bytes()
        path.write_bytes((blob + b"\x00" * 8)[:cut])
        with pytest.raises(go.GridError, match="snapshot"):
            go.read_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fld"
        path.write_bytes(b"NOTAFIELD" + b"\x00" * 64)
        with pytest.raises(go.GridError):
            go.read_snapshot(path)


SHAPES = (st.integers(0, 12) | st.sampled_from([-1, 2**31, 2**62, 2**63 - 1])
          | st.integers(-2**63, 2**63 - 1))
HEADERS = st.builds(
    lambda n0, n1, hx, hy, t: struct.pack("<qqddd", n0, n1, hx, hy, t),
    SHAPES, SHAPES, st.floats(), st.floats(), st.floats(),
)
PAYLOADS = st.integers(0, 16).flatmap(
    lambda k: st.binary(min_size=8 * k, max_size=8 * k))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tail=st.binary(max_size=160)
       | st.tuples(HEADERS, PAYLOADS).map(b"".join))
@example(tail=struct.pack("<qqddd", 0, 2**62, 1.0, 1.0, 0.0))
def test_read_snapshot_any_bytes_after_magic(tmp_path, tail):
    """The header's shape describes the array read back, or GridError."""
    path = tmp_path / "fuzz.fld"
    path.write_bytes(b"NLCHFLD1" + tail)
    try:
        data, meta = go.read_snapshot(path)
    except go.GridError:
        return
    n0, n1, hx, hy, time = struct.unpack_from("<qqddd", tail)
    assert data.shape == (n0, n1) and data.dtype == np.float64
    assert data.tobytes() == tail[40:]
    assert set(meta) == {"hx", "hy", "time"}
