"""Cahn-Hilliard stepper tests.

Oracles: compositional checks against the independently tested convolution
and potential modules, a linearization oracle for the chemical potential,
Richardson refinement for the energy-identity residual, and a
forward-Euler oracle as an independent integrator cross-check.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nlchns import ch_step as ch
from nlchns import diagnostics as dg
from nlchns import grid_ops as go
from nlchns.grid_ops import Grid, ScalarField
from nlchns.kernel import KernelSpec, build_kernel
from nlchns.potential import (
    PotentialDomainError,
    PotentialSpec,
    SingularPotential,
    build_F_eps,
)


@pytest.fixture(scope="module")
def setup32():
    g = Grid(32, 32)
    kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=4.0), g)
    spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=1e-3).with_beta(kd.beta)
    return g, kd, build_F_eps(spec), spec


def swirl(grid, amp=0.05):
    xc, yc = grid.corner_mesh()
    psi = amp * np.sin(np.pi * xc / grid.lx) ** 2 * np.sin(np.pi * yc / grid.ly) ** 2
    return go.velocity_from_streamfunction(grid, psi)


def spinodal_phi(grid, seed=7, amp=1e-2, mean=0.0):
    noise = np.random.default_rng(seed).standard_normal((grid.nx, grid.ny))
    vals = mean + amp * (noise - noise.mean())
    return ScalarField(grid, vals)


def smooth_phi(grid, amp=0.1):
    """Low-mode initial data whose decay rates the test dt resolves; noise
    data carries modes far stiffer than 1/dt, which dominates residual
    maxima and masks the first-order refinement."""
    x, y = grid.cell_mesh()
    vals = amp * np.cos(np.pi * x / grid.lx) * np.cos(2 * np.pi * y / grid.ly) \
        + 0.5 * amp * np.cos(2 * np.pi * x / grid.lx)
    return ScalarField(grid, vals)


def deep_quench_stripe(grid):
    """The cauchy-sweep preset's initial stripe: zero mean, peak 0.999."""
    _, y = grid.cell_mesh()
    stripe = -np.tanh((np.abs(y - 0.5 * grid.ly) - 0.25 * grid.ly) / 0.08)
    stripe -= stripe.mean()
    return stripe * (0.999 / np.max(np.abs(stripe)))


class TestChemicalPotential:
    def test_constant_state_collapses_to_fprime(self, setup32):
        g, kd, pot, _ = setup32
        c = -0.3
        mu = ch.chemical_potential(ScalarField(g, np.full((32, 32), c)), kd, pot)
        want = float(pot.fprime(np.float64(c)))
        assert np.max(np.abs(mu.values - want)) <= 1e-13 * max(abs(want), kd.a_inf)

    def test_compositional_oracle(self, setup32):
        g, kd, pot, _ = setup32
        p = np.random.default_rng(0).uniform(-0.8, 0.8, (32, 32))
        mu = ch.chemical_potential(ScalarField(g, p), kd, pot)
        want = kd.a_field.values * p - kd.convolve_raw(p) + pot.fprime(p)
        assert np.array_equal(mu.values, want)

    def test_linearization_oracle(self, setup32):
        g, kd, pot, _ = setup32
        c, delta = 0.2, 1e-6
        x, _ = g.cell_mesh()
        cos = np.cos(np.pi * x / g.lx)
        phi = ScalarField(g, c + delta * cos)
        mu = ch.chemical_potential(phi, kd, pot)
        mu0 = float(pot.fprime(np.float64(c)))
        lin = (kd.a_field.values + float(pot.fsecond(np.float64(c)))) * cos \
            - kd.convolve_raw(cos)
        got = (mu.values - mu0) / delta
        assert np.max(np.abs(got - lin)) <= 1e-6 * np.max(np.abs(lin))

    def test_singular_domain_error_propagates(self, setup32):
        g, kd, _, spec = setup32
        pot0 = SingularPotential(spec)
        bad = np.zeros((32, 32))
        bad[3, 3] = 1.0
        with pytest.raises(PotentialDomainError):
            ch.chemical_potential(ScalarField(g, bad), kd, pot0)

    def test_nan_rejected(self, setup32):
        g, kd, pot, _ = setup32
        vals = np.zeros((32, 32))
        f = ScalarField(g, vals)
        f.values[0, 0] = np.nan  # bypass constructor check on purpose
        with pytest.raises(ch.CHError):
            ch.chemical_potential(f, kd, pot)


class TestFixedPointAndMass:
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_constant_is_exact_fixed_point(self, setup32, eps):
        g, kd, _, spec = setup32
        pot = build_F_eps(PotentialSpec(1.0, 2.0, 1, eps).with_beta(kd.beta))
        st = ch.init_state(ScalarField(g, np.full((32, 32), 0.25)), kd, pot)
        for _ in range(20):
            st = ch.ch_step(st, None, 5e-3, kd, pot)
        assert np.array_equal(st.phi.values, np.full((32, 32), 0.25))

    def test_constant_fixed_point_singular_mode(self, setup32):
        g, kd, _, spec = setup32
        pot = SingularPotential(spec)
        st = ch.init_state(ScalarField(g, np.full((32, 32), -0.4)), kd, pot)
        for _ in range(5):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
        assert np.array_equal(st.phi.values, np.full((32, 32), -0.4))

    @pytest.mark.parametrize("eps", [1e-2, 0.0])
    @pytest.mark.parametrize("c", [0.0, 0.3, -0.7])
    def test_constant_step_makes_no_invert_call(self, setup32, monkeypatch,
                                                eps, c):
        # psi = m(phi^n) and m'(phi^n) come from one fused potential pass;
        # a constant state meets the outer tolerance before any update
        g, kd, _, _ = setup32
        spec = PotentialSpec(1.0, 2.0, 1, eps).with_beta(kd.beta)
        pot = SingularPotential(spec) if eps == 0.0 else build_F_eps(spec)
        calls = []
        invert = ch.ImplicitMap.invert

        def counted(self, *args):
            calls.append(1)
            return invert(self, *args)

        monkeypatch.setattr(ch.ImplicitMap, "invert", counted)
        phi = np.full((32, 32), c)
        st = ch.ch_step(ch.init_state(ScalarField(g, phi.copy()), kd, pot),
                        None, 2e-3, kd, pot)
        assert np.array_equal(st.phi.values, phi)
        assert calls == []

    def test_mean_pinned_with_advection(self, setup32):
        g, kd, pot, _ = setup32
        u = swirl(g, amp=0.2)
        st = ch.init_state(spinodal_phi(g, seed=1, mean=0.1), kd, pot)
        mass0 = st.mass0
        for _ in range(200):
            st = ch.ch_step(st, u, 2e-3, kd, pot)
            assert abs(st.phi.mean() - mass0) <= 1e-13

    @pytest.mark.parametrize("dt", [0.1, 1.0])
    def test_droplet_at_large_dt_keeps_mass(self, setup32, dt):
        # the Newton norm test admits a mean defect of 1e-13 max|b|, above
        # MASS_DEFECT_LIMIT at these dt; the mean is converged separately
        g, kd, pot, _ = setup32
        x, y = g.cell_mesh()
        r = np.hypot(x - 0.5 * g.lx, y - 0.5 * g.ly)
        st = ch.init_state(ScalarField(g, 0.9 * np.tanh((0.25 - r) / 0.05)),
                           kd, pot)
        mass0 = st.mass0
        for _ in range(60):
            st = ch.ch_step(st, None, dt, kd, pot)
        assert abs(st.phi.mean() - mass0) <= 1e-13

    def test_initial_mean_gate(self, setup32):
        g, kd, pot, _ = setup32
        with pytest.raises(ch.CHError, match="mean"):
            ch.init_state(ScalarField(g, np.full((32, 32), 1.25)), kd, pot)


class TestOperatorPair:
    def test_dense_and_dct_arms_take_the_same_step(self, monkeypatch):
        # one advected spinodal step on a grid above DENSE_MAX_N, through
        # the stencil and the DCT pair as shipped, then through the dense
        # factors with the size rule raised past the grid
        g = Grid(100, 100)
        kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=4.0), g)
        pot = build_F_eps(PotentialSpec(1.0, 2.0, 1, 1e-3).with_beta(kd.beta))
        st = ch.init_state(spinodal_phi(g, amp=0.05), kd, pot)
        u = swirl(g, amp=0.2)

        def step(dense):
            go.workspace.cache_clear()
            try:
                assert (go.workspace(g).qx is not None) is dense
                return ch.ch_step(st, u, 2e-3, kd, pot).phi.values
            finally:
                go.workspace.cache_clear()

        dct = step(dense=False)
        monkeypatch.setattr(go, "DENSE_MAX_N", 128)
        dense = step(dense=True)
        # the Newton tolerance, 1e-13 sqrt(size) here, bounds the residual
        # norm; the arms were observed 1.4e-17 apart (max), 4e-20 in mean
        assert np.max(np.abs(dct - dense)) <= 10 * 1e-13 * np.sqrt(g.nx * g.ny)
        assert abs(dct.mean() - dense.mean()) <= 1e-16
        assert dct.mean() == pytest.approx(st.mass0, abs=1e-16)


def newton_tol(grid):
    """ch_step's outer Newton tolerance on the residual norm for max|b| <= 1."""
    return 1e-13 * np.sqrt(grid.nx * grid.ny)


class TestExtrapolatedStart:
    """Newton starts at 2 phi_n - phi_{n-1}; a state with no predecessor
    keeps phi_n as phi_{n-1} and so starts at phi_n."""

    @pytest.mark.parametrize("singular", [False, True])
    def test_only_the_start_changed(self, setup32, singular, monkeypatch):
        # init_state's prev is phi itself and 2 p - p = p exactly (Sterbenz),
        # so a run's first Newton solve starts at phi_n bit for bit
        g, kd, pot, spec = setup32
        if singular:
            pot = SingularPotential(spec)
        st = ch.init_state(spinodal_phi(g, seed=2, amp=0.05), kd, pot)
        assert st.prev is st.phi.values
        starts = []
        fused = pot.fprime_fsecond

        def recorded(s):
            starts.append(s.copy())
            return fused(s)

        monkeypatch.setattr(pot, "fprime_fsecond", recorded)
        u = swirl(g, amp=0.2)
        first = ch.ch_step(st, u, 2e-3, kd, pot)
        assert np.array_equal(starts[0], st.phi.values)
        assert first.prev is st.phi.values
        same = dataclasses.replace(st, prev=st.phi.values.copy())
        assert np.array_equal(ch.ch_step(same, u, 2e-3, kd, pot).phi.values,
                              first.phi.values)

    def test_warm_start_saves_inner_cg_work(self, setup32, monkeypatch):
        g, kd, pot, _ = setup32
        iters = []
        cg = go.cg

        def counted(*args, **kwargs):
            x, n = cg(*args, **kwargs)
            iters.append(n)
            return x, n

        monkeypatch.setattr(go, "cg", counted)

        def run(plain):
            iters.clear()
            st = ch.init_state(spinodal_phi(g), kd, pot)
            for _ in range(50):
                if plain:
                    st = dataclasses.replace(st, prev=st.phi.values)
                st = ch.ch_step(st, None, 2e-3, kd, pot)
            return st, sum(iters)

        warm, warm_iters = run(plain=False)
        plain, plain_iters = run(plain=True)
        # observed 686 against 895 CG iterations, a ratio of 0.77
        assert warm_iters <= 0.8 * plain_iters
        # observed 1.3e-11 apart (max) and 2e-19 in mean
        assert np.max(np.abs(warm.phi.values - plain.phi.values)) \
            <= 10 * newton_tol(g)
        assert abs(warm.phi.mean() - plain.phi.mean()) <= 1e-16

    def test_singular_start_is_clipped_into_the_bracket(self):
        # the cauchy-sweep stripe (peak 0.999) with eps = 0, relaxed 3 steps
        g = Grid(32, 32)
        kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=6.0), g)
        pot = SingularPotential(PotentialSpec(0.4, 1.66, 1, 0.0).with_beta(kd.beta))
        st = ch.init_state(ScalarField(g, deep_quench_stripe(g)), kd, pot)
        for _ in range(3):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
        phi = st.phi.values
        prev = 0.95 * phi  # the extrapolant 1.05 phi
        assert np.any(np.abs(2.0 * phi - prev) >= 1.0)
        warm = ch.ch_step(dataclasses.replace(st, prev=prev), None, 2e-3, kd, pot)
        plain = ch.ch_step(dataclasses.replace(st, prev=phi), None, 2e-3, kd, pot)
        assert np.max(np.abs(warm.phi.values)) < 1.0
        # observed 1.0e-13 apart (max)
        assert np.max(np.abs(warm.phi.values - plain.phi.values)) \
            <= 10 * newton_tol(g)


class TestPredictionStart:
    """Each Newton sweep's pointwise inverse starts at p1 + W'(psi) delta,
    the sweep's own linear prediction of W(psi + delta)."""

    def test_pointwise_inverse_starts_at_the_prediction(self, setup32,
                                                        monkeypatch):
        g, kd, pot, _ = setup32
        evals, inverts = [], []
        fused = pot.fprime_fsecond
        invert = ch.ImplicitMap.invert

        def counted_fused(s):
            evals.append(1)
            return fused(s)

        def counted_invert(self, *args):
            inverts.append(1)
            return invert(self, *args)

        monkeypatch.setattr(pot, "fprime_fsecond", counted_fused)
        monkeypatch.setattr(ch.ImplicitMap, "invert", counted_invert)
        steps = 50
        st = ch.init_state(spinodal_phi(g, seed=7), kd, pot)
        for _ in range(steps):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
        # one evaluation per step starts Newton, the rest are the inverse's;
        # observed 1.78 per inverse, and 2.78 when it started at p1
        assert (len(evals) - steps) / len(inverts) <= 2.0


class TestConvolutionCache:
    """CHState.conv is the J*phi of its own phi, bit for bit, whichever
    path built the state."""

    def test_conv_is_fresh_convolution_of_phi(self, setup32):
        g, kd, pot, _ = setup32
        u = swirl(g, amp=0.2)
        st = ch.init_state(spinodal_phi(g, seed=3, mean=0.1), kd, pot)
        assert np.array_equal(st.conv, kd.convolve_raw(st.phi.values))
        dt = 2e-3
        for n in range(4):
            if n == 2:
                # a recorded mass 1e-13 off the mean of phi forces a nonzero
                # uniform mass-defect shift in this step
                st = dataclasses.replace(st, mass0=st.mass0 + 1e-13)
            mean_before = st.phi.mean()
            st = ch.ch_step(st, u, dt, kd, pot)
            assert np.array_equal(st.conv, kd.convolve_raw(st.phi.values))
            assert np.array_equal(st.mu.values,
                                  ch.chemical_potential(st.phi, kd, pot).values)
            if n == 2:
                assert abs(st.phi.mean() - mean_before) >= 0.9e-13


class TestEnergyMonotonicity:
    def test_zero_tolerance_decrease(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g, seed=3), kd, pot)
        e_prev = dg.energy_terms(st.phi, None, kd, pot)[3]
        for _ in range(300):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
            e = dg.energy_terms(st.phi, None, kd, pot)[3]
            assert e <= e_prev
            e_prev = e

    def test_decrease_survives_large_dt(self, setup32):
        # the split is implicit in the whole convex group, so monotonicity
        # does not hinge on a diffusive dt restriction
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g, seed=4), kd, pot)
        e_prev = dg.energy_terms(st.phi, None, kd, pot)[3]
        for _ in range(20):
            st = ch.ch_step(st, None, 0.05, kd, pot)
            e = dg.energy_terms(st.phi, None, kd, pot)[3]
            assert e <= e_prev
            e_prev = e


class TestSchemeGuards:
    def test_bad_dt(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g), kd, pot)
        with pytest.raises(ch.CHError, match="dt"):
            ch.ch_step(st, None, 0.0, kd, pot)

    def test_nan_is_hard_error(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g), kd, pot)
        st.phi.values[5, 5] = np.nan
        with pytest.raises(ch.CHError, match="finite"):
            ch.ch_step(st, None, 1e-3, kd, pot)

    def test_step_rejection_suggests_halving(self, setup32, monkeypatch):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g, seed=5), kd, pot)
        monkeypatch.setattr(ch, "NEWTON_MAX_OUTER", 1)
        with pytest.raises(ch.StepRejection) as exc:
            ch.ch_step(st, None, 0.5, kd, pot)
        assert exc.value.suggested_dt == pytest.approx(0.25)


def forward_euler(phi0, kd, pot, dt, nsteps):
    """The same semidiscretization without advection, stepped by forward
    Euler with the uniform mass shift: phi += dt lap(mu(phi))."""
    p, mass = phi0.values, phi0.mean()
    for _ in range(nsteps):
        mu = ch.chemical_potential(ScalarField(phi0.grid, p), kd, pot)
        p = p + dt * go.laplace_arrays(phi0.grid, mu.values)
        p = p + (mass - float(p.mean()))
    return p


class TestExplicitCrossCheck:
    def test_schemes_converge_to_each_other(self, setup32):
        # both schemes are first-order consistent with the same spatial
        # semidiscretization, so their gap at fixed T shrinks linearly in dt
        g, kd, pot, _ = setup32
        phi0 = spinodal_phi(g, seed=8, amp=0.05)
        horizon = 64
        # a quarter of forward Euler's diffusive bound h^2 / (4 (a_inf +
        # max F'')), where F'' < 0 on the |phi| < 0.4 this run stays in
        assert np.max(pot.fsecond(np.linspace(-0.4, 0.4, 2001))) < 0.0
        base_dt = 0.25 * g.hx**2 / (4.0 * kd.a_inf)
        gaps = []
        for k in (1, 2):
            dt = base_dt / k
            n = horizon * k
            si = ch.init_state(phi0, kd, pot)
            for _ in range(n):
                si = ch.ch_step(si, None, dt, kd, pot)
            pe = forward_euler(phi0, kd, pot, dt, n)
            assert max(np.max(np.abs(pe)), np.max(np.abs(si.phi.values))) < 0.4
            gaps.append(go.norm_l2(ScalarField(g, pe - si.phi.values)))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)


class TestSingularMode:
    def test_spinodal_run_stays_inside(self, setup32):
        g, kd, _, spec = setup32
        pot = SingularPotential(spec)
        st = ch.init_state(spinodal_phi(g, seed=9), kd, pot)
        for _ in range(100):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
            assert np.max(np.abs(st.phi.values)) < 1.0
        assert not st.saturated

    def test_saturation_guard_trips(self, setup32):
        # a uniform state is a fixed point, so one sitting above the
        # 1 - 1e-10 line stays there and the post-step guard must fire
        g, kd, _, spec = setup32
        pot = SingularPotential(spec)
        st = ch.init_state(ScalarField(g, np.full((32, 32), 1.0 - 5e-11)), kd, pot)
        with pytest.raises(ch.CHError, match="guard"):
            ch.ch_step(st, None, 1e-4, kd, pot)


@functools.cache
def implicit_map_potential(theta, theta_c, beta, eps):
    spec = PotentialSpec(theta, theta_c, 1, eps).with_beta(beta)
    return SingularPotential(spec) if eps == 0.0 else build_F_eps(spec)


def m_of(imap, x):
    """The oracle m(x) = a x + F'(x) that ImplicitMap.invert inverts."""
    return imap.a * x + imap.pot.fprime(x)


class TestImplicitMapInverse:
    """ImplicitMap.invert solves m(x) = a x + F'(x) = psi nodewise from its
    a-priori bracket |x| <= 2 |psi| / c0, for any warm start."""

    @settings(max_examples=150, deadline=None)
    @given(params=hst.sampled_from([(1.0, 2.0, 1.5), (0.4, 1.66, 1.3)]),
           eps=hst.sampled_from([0.0, 1e-1, 1e-2, 3.125e-3]),
           seed=hst.integers(0, 2**32 - 1),
           depth=hst.floats(-3.0, 2.0),
           start=hst.sampled_from(["mirror", "far", "random"]))
    def test_solves_to_tolerance_and_returns_mprime(self, params, eps, seed,
                                                    depth, start):
        pot = implicit_map_potential(*params, eps)
        rng = np.random.default_rng(seed)
        shape = (4, 6)
        a = params[2] + 4.0 * rng.random(shape)
        sign = rng.choice([-1.0, 1.0], shape)
        if pot.singular:
            # roots up to 1e-3 from the wall, where m' reaches 1e3 theta
            root = sign * (1.0 - 10.0 ** (-3.0 * rng.random(shape)))
        else:
            # roots up to 10^depth, far into the polynomial tails
            root = sign * 10.0 ** (depth * rng.random(shape))
        imap = ch.ImplicitMap(a, pot)
        psi = m_of(imap, root)
        edge = 1.0 - 1e-9 if pot.singular else 1e3
        x0 = {"mirror": -root,
              "far": -sign * edge,
              "random": edge * (2.0 * rng.random(shape) - 1.0)}[start]
        x, mprime = imap.invert(psi, x0, 1e-3)
        assert np.all(np.abs(m_of(imap, x) - psi) <= 1e-13 * (1.0 + np.abs(psi)))
        assert np.array_equal(mprime, a + pot.fsecond(x))

    def test_converged_nodes_come_back_unchanged(self, setup32):
        # psi one ulp above m(x0) meets the tolerance while the Newton step
        # is below an ulp of x0; those nodes must not move while one far
        # node still iterates
        g, kd, pot, _ = setup32
        imap = ch.ImplicitMap(kd.a_field.values, pot)
        x0 = np.linspace(-0.95, 0.95, g.nx * g.ny).reshape(g.nx, g.ny)
        psi = np.nextafter(m_of(imap, x0), np.inf)
        x0_far = x0.copy()
        x0_far[0, 0] = 0.9
        x, _ = imap.invert(psi, x0_far, 1e-3)
        assert x[0, 0] != 0.9
        held = np.ones(x0.shape, dtype=bool)
        held[0, 0] = False
        assert np.array_equal(x[held], x0[held])

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-8])
    def test_roots_next_to_the_wall(self, gap):
        # below gap ~ 1e-5, m' times one ulp of x exceeds the psi
        # tolerance; the float nearest the root must still be accepted
        pot = implicit_map_potential(1.0, 2.0, 1.5, 0.0)
        rng = np.random.default_rng(0)
        a = np.full((4, 6), 2.0)
        imap = ch.ImplicitMap(a, pot)
        root = rng.choice([-1.0, 1.0], a.shape) * (1.0 - gap)
        psi = m_of(imap, root) + 1e-11 * rng.standard_normal(a.shape)
        x, _ = imap.invert(psi, np.zeros_like(a), 1e-3)
        step = 2.0 * np.abs(np.spacing(x))
        assert np.all(m_of(imap, x - step) < psi)
        assert np.all(m_of(imap, x + step) > psi)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_singular_guard_refuses_psi_beyond_the_edge(self, sign):
        # F' is odd, so m(+-edge) = +-(a edge + F'(edge)) bounds psi
        pot = implicit_map_potential(1.0, 2.0, 1.5, 0.0)
        imap = ch.ImplicitMap(np.full((4, 6), 2.0), pot)
        edge = 1.0 - 1e-14
        bound = imap.a * edge + pot.fprime(edge)
        psi = np.zeros(imap.a.shape)
        psi[1, 2] = sign * np.nextafter(bound[1, 2], np.inf)
        with pytest.raises(ch.CHError, match=r"requires \|phi\| >= 1 - 1e-14"):
            imap.invert(psi, np.zeros_like(psi), 1e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_singular_root_inside_the_edge(self, sign):
        pot = implicit_map_potential(1.0, 2.0, 1.5, 0.0)
        imap = ch.ImplicitMap(np.full((4, 6), 2.0), pot)
        root = sign * np.full(imap.a.shape, 1.0 - 1e-12)
        x, _ = imap.invert(m_of(imap, root), np.zeros_like(root), 1e-3)
        assert np.array_equal(x, root)


class TestEnergyIdentityResidual:
    def test_constant_state_zero_residual(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(ScalarField(g, np.full((32, 32), 0.3)), kd, pot)
        traj = [st]
        for _ in range(5):
            traj.append(ch.ch_step(traj[-1], None, 1e-3, kd, pot))
        res = dg.ch_energy_identity_residual(traj, None, kd, pot, 1e-3)
        # a phi - J*phi for constant phi cancels to FFT roundoff (~1e-16),
        # so the squared-gradient term bottoms out around 1e-28
        assert np.max(np.abs(res)) <= 1e-24

    def test_residual_refines_first_order(self, setup32):
        g, kd, pot, _ = setup32
        phi0 = smooth_phi(g)
        maxres = []
        for k in (1, 2):
            dt = 4e-3 / k
            st = ch.init_state(phi0, kd, pot)
            traj = [st]
            for _ in range(50 * k):
                traj.append(ch.ch_step(traj[-1], None, dt, kd, pot))
            res = dg.ch_energy_identity_residual(traj, None, kd, pot, dt)
            maxres.append(np.max(np.abs(res)))
        assert maxres[0] / maxres[1] == pytest.approx(2.0, abs=0.3)

    def test_swirl_residual_bounded(self, setup32):
        g, kd, pot, _ = setup32
        u = swirl(g, amp=0.1)
        dt = 2e-3
        st = ch.init_state(smooth_phi(g), kd, pot)
        traj = [st]
        for _ in range(300):
            traj.append(ch.ch_step(traj[-1], u, dt, kd, pot))
        res = dg.ch_energy_identity_residual(traj, u, kd, pot, dt)
        # first-order scheme: residual scale set during active dynamics
        assert np.max(np.abs(res)) <= 50.0 * dt

    def test_fprime_l1_series_bounded(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g, seed=12, mean=0.3), kd, pot)
        series = [ch.fprime_l1(st.phi, pot)]
        for _ in range(200):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
            series.append(ch.fprime_l1(st.phi, pot))
        series = np.asarray(series)
        assert np.all(np.isfinite(series))
        # bounded: the tail does not keep growing
        assert series[-50:].max() <= series.max() + 1e-12
        assert series.max() <= 10.0 * (series[0] + 1.0)


class TestEpsFamilyConsistency:
    def test_cauchy_gap_shrinks(self):
        # the cauchy-sweep deep-quench stripe: its plateaus settle beyond
        # 1 - eps for every eps compared, so each regularization differs
        # from the next in the tail branch, not only at the Newton tolerance
        g = Grid(32, 32)
        kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=6.0), g)
        phi0 = ScalarField(g, deep_quench_stripe(g))
        epss = (1e-1, 5e-2, 2.5e-2, 1.25e-2)
        finals = []
        for eps in epss:
            pot = build_F_eps(PotentialSpec(0.4, 1.66, 1, eps).with_beta(kd.beta))
            st = ch.init_state(phi0, kd, pot)
            for _ in range(100):
                st = ch.ch_step(st, None, 2e-3, kd, pot)
            finals.append(st.phi.values)
        # observed max|phi| 1.056, 1.020, 1.0056 and 1.00023
        for eps, final in zip(epss, finals):
            assert np.max(np.abs(final)) > 1.0 - eps
        gaps = [np.sqrt(np.sum((coarse - fine) ** 2) * g.cell_volume)
                for coarse, fine in zip(finals, finals[1:])]
        # observed 7.36e-3, 2.27e-3 and 6.42e-4
        assert gaps[0] > gaps[1] > gaps[2] >= 1e-6


class TestSpinodalRegression:
    """Frozen numbers from a dt-refined reference run of this exact config
    (seed 7, 32x32, dt 2e-3, 250 steps); guards against silent drift."""

    def test_frozen_baseline(self, setup32):
        g, kd, pot, _ = setup32
        st = ch.init_state(spinodal_phi(g, seed=7), kd, pot)
        for _ in range(250):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
        energy = dg.energy_terms(st.phi, None, kd, pot)[3]
        peak = float(np.max(np.abs(st.phi.values)))
        assert energy == pytest.approx(REGRESSION_ENERGY, rel=1e-10)
        assert peak == pytest.approx(REGRESSION_PEAK, rel=1e-10)
        # plateaus sit strictly inside (-1, 1) at tanh-like values
        assert 0.5 < peak < 1.0


# Frozen from the run whose inner CG works on DCT-II coefficients and whose
# pointwise inverse starts at the Newton prediction.  The pin tracks one
# float trajectory: spinodal growth over 250 steps amplifies differences at
# the Newton tolerance to a few 1e-10 relative (tightening that tolerance
# tenfold moves it by as much), so the constants are refrozen, not
# loosened, when such a change lands.  A dt/4 run (1000 steps at 5e-4)
# reaches the same two-plateau morphology (peak 0.882, deeper energy
# -0.0190), confirming the numbers describe the flow rather than an
# artifact.
REGRESSION_ENERGY = -0.010611628784688593
REGRESSION_PEAK = 0.7940762167847527


class TestTailRegimeRegression:
    """The cauchy-sweep stripe (theta 0.4, theta_c 1.66, |J| 6, peak 0.999)
    at its finest eps = 3.125e-3: an eighth of the nodes start in the
    polynomial tails |phi| > 1 - eps, so the pointwise Newton of the
    implicit map runs through the tail branch of F_eps on every step.
    test_frozen_baseline above stays in the core.  The numbers were frozen
    from the code before F' and F'' were fused into one pass per pointwise
    Newton iteration, which left every float of the step unchanged."""

    def test_frozen_tail_baseline(self):
        g = Grid(32, 32)
        kd = build_kernel(KernelSpec("gaussian", 0.1, j_l1=6.0), g)
        pot = build_F_eps(PotentialSpec(0.4, 1.66, 1, 3.125e-3).with_beta(kd.beta))
        st = ch.init_state(ScalarField(g, deep_quench_stripe(g)), kd, pot)
        assert np.mean(np.abs(st.phi.values) > pot.knot) > 0.1
        for _ in range(20):
            st = ch.ch_step(st, None, 2e-3, kd, pot)
        energy = dg.energy_terms(st.phi, None, kd, pot)[3]
        peak = float(np.max(np.abs(st.phi.values)))
        assert energy == pytest.approx(TAIL_REGRESSION_ENERGY, rel=1e-12)
        assert peak == pytest.approx(TAIL_REGRESSION_PEAK, rel=1e-12)


TAIL_REGRESSION_ENERGY = -0.0559223417896767
TAIL_REGRESSION_PEAK = 0.9984119911800604
