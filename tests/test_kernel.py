"""Kernel and convolution tests.

The main oracle is a brute-force direct quadrature sum with its own inline
kernel formulas (independent of the module under test), evaluated cell by
cell.  Closed-form mass and gradient-mass integrals are cross-checked with
adaptive quadrature.
"""

import numpy as np
import pytest
from scipy import integrate

from nlchns.grid_ops import Grid
from nlchns.kernel import (
    KernelAssumptionError,
    KernelError,
    KernelResolutionError,
    KernelSpec,
    build_kernel,
)
from nlchns.potential import PotentialBuildError, PotentialSpec


def profile_ref(family, width, j_l1, r):
    """Test-local kernel formulas, kept independent of the implementation."""
    r = np.asarray(r, dtype=float)
    if family == "gaussian":
        out = j_l1 / (2 * np.pi * width**2) * np.exp(-(r**2) / (2 * width**2))
        return np.where(r <= 6 * width, out, 0.0)
    if family == "compact-mollifier":
        t = np.clip(1.0 - (r / width) ** 2, 0.0, None)
        return 4 * j_l1 / (np.pi * width**2) * t**3
    raise ValueError(family)


def direct_convolve(family, width, j_l1, grid, fvals):
    """O(N^2) double sum, one output cell at a time."""
    x, y = grid.cell_x(), grid.cell_y()
    out = np.empty((grid.nx, grid.ny))
    for i in range(grid.nx):
        for j in range(grid.ny):
            r = np.hypot(x[i] - x[:, None], y[j] - y[None, :])
            out[i, j] = np.sum(profile_ref(family, width, j_l1, r) * fvals)
    return out * grid.cell_volume


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(KernelError, match="family"):
            KernelSpec("box", 0.1)

    def test_bad_width_and_mass(self):
        with pytest.raises(KernelError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(KernelError):
            KernelSpec("gaussian", 0.1, j_l1=-1.0)

    @pytest.mark.parametrize("width", [1e200, 1e300])
    def test_width_whose_square_overflows(self, width):
        with pytest.raises(KernelError, match="finite"):
            KernelSpec("gaussian", width)
        with pytest.raises(KernelError, match="finite"):
            KernelSpec("compact-mollifier", width)

    def test_resolution_gate(self):
        g = Grid(16, 16)  # h = 1/16
        with pytest.raises(KernelResolutionError):
            build_kernel(KernelSpec("gaussian", 0.1), g)
        build_kernel(KernelSpec("gaussian", 0.125), g)


class TestProfiles:
    @pytest.mark.parametrize("family,width", [
        ("gaussian", 0.15), ("compact-mollifier", 0.3),
    ])
    def test_mass_matches_quadrature(self, family, width):
        spec = KernelSpec(family, width, j_l1=2.5)
        mass, err = integrate.quad(
            lambda r: 2 * np.pi * r * float(spec.profile(r)),
            0.0, spec.support_radius, limit=200,
        )
        # gaussian carries ~1.5e-8 relative truncation deficit at 6 sigma
        tol = 1e-7 if family == "gaussian" else 1e-12
        assert mass == pytest.approx(2.5, rel=tol)

    @pytest.mark.parametrize("family,width", [
        ("gaussian", 0.2), ("compact-mollifier", 0.25),
    ])
    def test_grad_mass_matches_quadrature(self, family, width):
        spec = KernelSpec(family, width, j_l1=1.7)
        eps = 1e-7 * width

        def absgrad(r):
            return abs(float(spec.profile(r + eps)) - float(spec.profile(r - eps))) / (2 * eps)

        val, _ = integrate.quad(
            lambda r: 2 * np.pi * r * absgrad(r),
            0.0, spec.support_radius * (1 - 1e-9), limit=400,
        )
        assert spec.grad_l1_continuum() == pytest.approx(val, rel=1e-5)

    def test_compact_support_and_smoothness(self):
        spec = KernelSpec("compact-mollifier", 0.3)
        assert spec.profile(0.30000001) == 0.0
        assert spec.profile(0.29999999) > 0.0
        # C^2 at the edge: J ~ (R - r)^3, so the curvature decays linearly
        # in the distance u to the edge; halving u must halve it
        h = 1e-5

        def curv(u):
            r0 = 0.3 - u
            return (spec.profile(r0 + h) - 2 * spec.profile(r0)
                    + spec.profile(r0 - h)) / h**2

        u = 3e-4
        assert abs(curv(u)) < 5e-2 * abs(curv(0.15))
        assert curv(u / 2) / curv(u) == pytest.approx(0.5, rel=0.05)
        # one-sided slope at the edge also vanishes
        slope = (spec.profile(0.3) - spec.profile(0.3 - h)) / h
        assert abs(slope) <= 1e-3 * spec.profile(0.0) / 0.3

    def test_peak_values(self):
        g = KernelSpec("gaussian", 0.1, j_l1=3.0)
        assert float(g.profile(0.0)) == pytest.approx(3.0 / (2 * np.pi * 0.01), rel=1e-14)
        b = KernelSpec("compact-mollifier", 0.5, j_l1=3.0)
        assert float(b.profile(0.0)) == pytest.approx(12.0 / (np.pi * 0.25), rel=1e-14)


class TestBuildAndConvolve:
    @pytest.mark.parametrize("family,width", [
        ("gaussian", 0.1), ("compact-mollifier", 0.2),
    ])
    def test_direct_oracle_32(self, family, width):
        g = Grid(32, 32)
        spec = KernelSpec(family, width, j_l1=1.3)
        kd = build_kernel(spec, g)
        f = np.random.default_rng(0).standard_normal((32, 32))
        want = direct_convolve(family, width, 1.3, g, f)
        got = kd.convolve_raw(f)
        scale = np.abs(want).max()
        assert np.max(np.abs(got - want)) <= 1e-12 * max(scale, 1.0)

    def test_fast_direct_equivalence_64(self):
        g = Grid(64, 64)
        spec = KernelSpec("gaussian", 0.08)
        kd = build_kernel(spec, g)
        f = np.random.default_rng(1).standard_normal((64, 64))
        want = direct_convolve("gaussian", 0.08, 1.0, g, f)
        got = kd.convolve_raw(f)
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("family,width,shape", [
        ("gaussian", 0.4, (11, 17, 1.1, 1.7)),
        ("compact-mollifier", 2.5, (9, 13, 0.9, 1.95)),
    ])
    def test_full_domain_support_does_not_alias(self, family, width, shape):
        # the support radius exceeds the box diagonal, so every entry of the
        # displacement table carries weight and an FFT shorter than 2n - 1
        # on an axis would wrap some of it onto the restricted output
        g = Grid(*shape)
        assert KernelSpec(family, width).support_radius > np.hypot(g.lx, g.ly)
        kd = build_kernel(KernelSpec(family, width, j_l1=1.3), g)
        assert kd._fshape[0] >= 2 * g.nx - 1 and kd._fshape[1] >= 2 * g.ny - 1
        f = np.random.default_rng(3).standard_normal((g.nx, g.ny))
        want = direct_convolve(family, width, 1.3, g, f)
        got = kd.convolve_raw(f)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_jtab_even(self):
        g = Grid(24, 16, lx=1.2, ly=0.8)
        kd = build_kernel(KernelSpec("compact-mollifier", 0.3), g)
        assert np.array_equal(kd.Jtab, kd.Jtab[::-1, ::-1])

    def test_self_adjoint(self):
        g = Grid(24, 24)
        kd = build_kernel(KernelSpec("gaussian", 0.12), g)
        r = np.random.default_rng(2)
        f = r.standard_normal((24, 24))
        h = r.standard_normal((24, 24))
        a = np.sum(kd.convolve_raw(f) * h) * g.cell_volume
        b = np.sum(f * kd.convolve_raw(h)) * g.cell_volume
        assert abs(a - b) <= 1e-12 * (abs(a) + 1.0)

    def test_indicator_reproduces_a_bitwise(self):
        g = Grid(16, 16)
        kd = build_kernel(KernelSpec("gaussian", 0.15), g)
        again = kd.convolve_raw(np.ones((16, 16)))
        assert np.array_equal(again, kd.a_field.values)

    def test_constant_state_consistency(self):
        # a c - J*c must vanish to machine precision by shared quadrature
        g = Grid(20, 28, lx=1.0, ly=1.4)
        kd = build_kernel(KernelSpec("compact-mollifier", 0.25), g)
        c = -0.37
        resid = kd.a_field.values * c - kd.convolve_raw(np.full((20, 28), c))
        assert np.max(np.abs(resid)) <= 1e-13 * abs(c) * kd.a_inf


class TestCoefficientField:
    def test_interior_equals_mass_compact(self):
        # cells farther than the support radius from every wall see the full
        # kernel, so a(x) there equals the discrete mass to FFT roundoff
        g = Grid(32, 32)
        spec = KernelSpec("compact-mollifier", 0.2, j_l1=0.9)
        kd = build_kernel(spec, g)
        x, y = g.cell_mesh()
        interior = (np.minimum(x, g.lx - x) > 0.2) & (np.minimum(y, g.ly - y) > 0.2)
        assert interior.sum() > 0
        dev = np.abs(kd.a_field.values[interior] - kd.j_l1_discrete)
        assert dev.max() <= 1e-13 * kd.j_l1_discrete

    def test_corner_less_than_center_with_fine_quadrature(self):
        g = Grid(32, 32)
        spec = KernelSpec("gaussian", 0.1, j_l1=1.0)
        kd = build_kernel(spec, g)
        a = kd.a_field.values
        assert a[0, 0] < a[16, 16]
        # independent oracle: 4x-refined quadrature of the continuum integral
        fine = Grid(128, 128)
        fx, fy = fine.cell_mesh()
        for (ci, cj) in [(0, 0), (16, 16)]:
            x0 = (ci + 0.5) * g.hx
            y0 = (cj + 0.5) * g.hy
            r = np.hypot(fx - x0, fy - y0)
            ref = np.sum(profile_ref("gaussian", 0.1, 1.0, r)) * fine.cell_volume
            assert a[ci, cj] == pytest.approx(ref, rel=2e-3)
        # at the exact corner point the continuum integral sees a quarter
        # plane of kernel mass
        r_corner = np.hypot(fx, fy)
        quarter = np.sum(profile_ref("gaussian", 0.1, 1.0, r_corner)) * fine.cell_volume
        assert quarter == pytest.approx(0.25, rel=5e-3)

    def test_interior_mass_recovery_refines(self):
        # gaussian, interior point: a -> ||J||_L1 as the width shrinks
        g = Grid(64, 64)
        errs = []
        for width in [0.25, 0.125, 0.0625]:
            kd = build_kernel(KernelSpec("gaussian", width, j_l1=2.0), g)
            errs.append(abs(kd.a_field.values[32, 32] - 2.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-7 * 2.0

    def test_beta_bounds_field(self):
        g = Grid(24, 24)
        kd = build_kernel(KernelSpec("gaussian", 0.1), g)
        assert kd.beta > 0.0
        assert kd.beta <= kd.a_field.values.min() + 1e-15
        assert kd.a_inf >= kd.a_field.values.max() - 1e-15
        assert kd.a_inf <= kd.j_l1_discrete * (1 + 1e-12)


class TestAssumptionGate:
    """The kernel requires only beta > 0; the convex-split premise
    beta > theta_c - theta is the potential's, checked by with_beta."""

    def test_pairing_margin_error(self):
        g = Grid(16, 16)
        pot = PotentialSpec(theta=1.0, theta_c=2.0)  # needs beta > 1
        weak = KernelSpec("gaussian", 0.15, j_l1=0.5)  # beta < 0.5
        kd = build_kernel(weak, g)
        assert 0.0 < kd.beta < 0.5
        with pytest.raises(PotentialBuildError,
                           match=r"c0 = theta \+ beta - theta_c"):
            pot.with_beta(kd.beta)

    def test_pairing_accepts_strong_kernel(self):
        g = Grid(16, 16)
        pot = PotentialSpec(theta=1.0, theta_c=2.0)
        strong = KernelSpec("gaussian", 0.15, j_l1=8.0)
        kd = build_kernel(strong, g)
        assert kd.beta > 1.0
        assert pot.with_beta(kd.beta).c0 == pytest.approx(kd.beta - 1.0)

    def test_nonpositive_floor_rejected(self):
        # the smallest subnormal L1 mass: a = J * 1 underflows to zero
        with pytest.raises(KernelAssumptionError, match="positive"):
            build_kernel(KernelSpec("gaussian", 0.15, j_l1=5e-324), Grid(16, 16))


class TestGradientMass:
    def test_directional_tv_matches_closed_form(self):
        # discrete TV of x-differences tends to the one-direction integral
        # of |dJ/dx|, which is (2/pi) of the gradient L1 norm
        g = Grid(96, 96)
        spec = KernelSpec("gaussian", 0.1, j_l1=1.4)
        kd = build_kernel(spec, g)
        want = spec.grad_directional_l1_continuum()
        assert kd.tv_x == pytest.approx(want, rel=2e-2)
        assert kd.tv_y == pytest.approx(want, rel=2e-2)
        assert kd.grad_j_l1 == max(kd.tv_x, kd.tv_y)
        # the directional value never exceeds the full gradient mass
        assert kd.grad_j_l1 < spec.grad_l1_continuum()

    def test_tv_majorizes_convolution_gradient(self):
        # grid-level Young inequality: ||D_x (J*phi)|| <= tv_x ||phi||
        from nlchns import grid_ops as go

        g = Grid(32, 32)
        kd = build_kernel(KernelSpec("compact-mollifier", 0.2), g)
        r = np.random.default_rng(3)
        for seed in range(5):
            f = np.random.default_rng(seed).standard_normal((32, 32))
            gx, gy = go.grad_arrays(g, kd.convolve_raw(f))
            l2 = np.sqrt(np.sum(f**2) * g.cell_volume)
            assert np.sqrt(np.sum(gx**2) * g.cell_volume) <= kd.tv_x * l2 * (1 + 1e-12)
            assert np.sqrt(np.sum(gy**2) * g.cell_volume) <= kd.tv_y * l2 * (1 + 1e-12)

    def test_report_fields(self):
        g = Grid(16, 16)
        kd = build_kernel(KernelSpec("gaussian", 0.15, j_l1=2.0), g)
        rep = kd.report()
        for key in ("family", "width", "beta", "a_inf", "grad_j_l1_discrete",
                    "grad_j_l1_continuum", "j_l1_discrete", "j_l1_configured"):
            assert key in rep
        assert rep["j_l1_discrete"] == pytest.approx(2.0, rel=1e-3)
