"""Potential family: closed forms vs independent oracles, comparison lemmas.

Oracles used here, none of which share code with the implementation:
- sympy symbolic differentiation of the logarithmic density
- mpmath high-precision evaluation
- adaptive centered finite differences (step scaled to the distance from +-1)
"""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from nlchns.potential import (
    PotentialBuildError,
    PotentialDomainError,
    PotentialSpec,
    SingularPotential,
    build_F_eps,
    eval_F1_derivative,
    exhibit_dq,
    verify_potential_lemmas,
)

EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def sympy_f1_derivatives(theta, kmax):
    """Independent symbolic oracle for F1 and its derivatives."""
    x = sp.Symbol("x")
    f1 = sp.Rational(1, 2) * theta * ((1 + x) * sp.log(1 + x) + (1 - x) * sp.log(1 - x))
    out = []
    expr = f1
    for k in range(kmax + 1):
        out.append(sp.lambdify(x, expr, "numpy"))
        expr = sp.diff(expr, x)
    return out


def fd_centered(f, s, h):
    return (f(s + h) - f(s - h)) / (2 * h)


class TestSingularClosedForms:
    def test_trivial_values_at_zero(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0)
        assert eval_F1_derivative(spec, 0, 0.0) == 0.0
        assert eval_F1_derivative(spec, 1, 0.0) == 0.0
        assert eval_F1_derivative(spec, 2, 0.0) == pytest.approx(1.0, abs=1e-15)
        pot = SingularPotential(spec)
        assert pot.f(0.0) == 0.0
        assert pot.fprime(0.0) == 0.0
        assert pot.fsecond(0.0) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [1.0, 2.0, 0.7])
    def test_against_sympy_oracle(self, theta):
        spec = PotentialSpec(theta=theta, theta_c=theta + 2.0, q=2)
        oracle = sympy_f1_derivatives(theta, spec.order)
        s = np.linspace(-0.97, 0.97, 41)
        for k in range(spec.order + 1):
            got = eval_F1_derivative(spec, k, s)
            want = oracle[k](s)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_third_derivative_frozen_value(self):
        # exact rational: F1'''(1/2) = (theta/2) * (-4/9 + 4) = theta * 16/9
        spec = PotentialSpec(theta=2.0, theta_c=4.0, q=1)
        assert eval_F1_derivative(spec, 3, 0.5) == pytest.approx(32.0 / 9.0, rel=1e-15)

    def test_third_derivative_fd_cross_check(self):
        spec = PotentialSpec(theta=2.0, theta_c=4.0, q=1)
        h = 1e-6 * 0.5
        fd = fd_centered(lambda s: eval_F1_derivative(spec, 2, s), 0.5, h)
        assert fd == pytest.approx(eval_F1_derivative(spec, 3, 0.5), rel=1e-6)

    def test_high_precision_value(self):
        # mpmath oracle at s = 0.9, theta = 1, theta_c = 2
        mp.mp.dps = 50
        s = mp.mpf(9) / 10
        want = mp.mpf(1) / 2 * ((1 + s) * mp.log(1 + s) + (1 - s) * mp.log(1 - s)) - s**2
        spec = PotentialSpec(theta=1.0, theta_c=2.0)
        assert SingularPotential(spec).f(0.9) == pytest.approx(float(want), rel=1e-14)
        # frozen reference from the same oracle
        assert float(want) == pytest.approx(-0.31536806278592733, abs=1e-16)

    def test_fprime_diverges_toward_one(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0)
        pot = SingularPotential(spec)
        vals = [abs(pot.fprime(1 - 10.0 ** (-k))) for k in range(2, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10.0

    @pytest.mark.parametrize("s", [1.0, -1.0, 1.5, -2.0])
    def test_domain_errors(self, s):
        spec = PotentialSpec(theta=1.0, theta_c=2.0)
        with pytest.raises(PotentialDomainError):
            SingularPotential(spec).f(s)
        with pytest.raises(PotentialDomainError):
            eval_F1_derivative(spec, 1, s)

    def test_fd_all_orders_away_from_walls(self):
        # the acceptance-level derivative/FD agreement, singular branch
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=2)
        rng = np.random.default_rng(7)
        s = rng.uniform(-1 + 1e-3, 1 - 1e-3, 1000)
        for k in range(1, spec.order + 1):
            h = 1e-6 * (1 - np.abs(s))
            fd = (eval_F1_derivative(spec, k - 1, s + h)
                  - eval_F1_derivative(spec, k - 1, s - h)) / (2 * h)
            got = eval_F1_derivative(spec, k, s)
            np.testing.assert_allclose(fd, got, rtol=1e-6, atol=1e-9)


class TestSpecValidation:
    def test_rejects_theta_at_or_above_theta_c(self):
        with pytest.raises(PotentialBuildError):
            PotentialSpec(theta=2.0, theta_c=2.0)

    def test_rejects_bad_q(self):
        with pytest.raises(PotentialBuildError):
            PotentialSpec(theta=1.0, theta_c=2.0, q=0)
        with pytest.raises(PotentialBuildError):
            PotentialSpec(theta=1.0, theta_c=2.0, q=9)

    def test_rejects_insufficient_beta_with_margin_message(self):
        with pytest.raises(PotentialBuildError, match="margin"):
            PotentialSpec(theta=1.0, theta_c=2.0, beta=0.5)

    def test_derived_constants(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, beta=1.5)
        assert spec.alpha == 1.0
        assert spec.alpha_star == -1.0
        assert spec.c0 == pytest.approx(0.5)
        assert spec.s0 == 0.0
        assert SingularPotential(spec).fprime(spec.s0) == 0.0


class TestRegularizedFamily:
    def test_core_region_is_shared_code_path(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.1)
        pot = build_F_eps(spec)
        s = np.linspace(-0.9, 0.9, 101)
        for k in range(pot.order + 1):
            got = pot.f1(s, k)
            want = eval_F1_derivative(spec, k, s)
            assert np.array_equal(got, want)  # bitwise: same code path
        assert pot.f1(0.5, 0) == eval_F1_derivative(spec, 0, 0.5)
        assert pot.f1(0.0, 0) == eval_F1_derivative(spec, 0, 0.0)
        assert pot.f1(0.0, 1) == eval_F1_derivative(spec, 1, 0.0)

    def test_tail_matches_independent_taylor_oracle(self):
        # sympy-exact Taylor polynomial of F1 about 9/10, degree 4, at s = 1
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.1)
        pot = build_F_eps(spec)
        x = sp.Symbol("x")
        f1 = sp.Rational(1, 2) * ((1 + x) * sp.log(1 + x) + (1 - x) * sp.log(1 - x))
        a = sp.Rational(9, 10)
        taylor = sum(
            f1.diff(x, k).subs(x, a) / sp.factorial(k) * (sp.S(1) - a) ** k
            for k in range(5)
        )
        want = float(sp.N(taylor, 30))
        assert pot.f1(1.0, 0) == pytest.approx(want, rel=1e-13)

    def test_even_symmetry(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=2, epsilon=0.05)
        pot = build_F_eps(spec)
        s = np.linspace(-2.5, 2.5, 201)
        for k in range(pot.order + 1):
            np.testing.assert_allclose(
                pot.f1(-s, k), (-1.0) ** k * pot.f1(s, k), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("q,eps", [(1, 0.05), (1, 0.02), (2, 0.05), (2, 0.1)])
    def test_smoothness_at_knots(self, q, eps):
        # one-sided limits of every derivative order agree at +-(1-eps):
        # linear Richardson extrapolation from each side, mismatch <= 1e-8 rel
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=q, epsilon=eps)
        pot = build_F_eps(spec)
        h = eps * 1e-5
        for knot in (pot.knot, -pot.knot):
            for k in range(pot.order + 1):
                right = 2 * pot.f1(knot + h, k) - pot.f1(knot + 2 * h, k)
                left = 2 * pot.f1(knot - h, k) - pot.f1(knot - 2 * h, k)
                scale = max(abs(left), abs(right), 1e-30)
                assert abs(left - right) / scale < 1e-8, (k, knot)

    def test_fd_agreement_all_orders_regularized(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=2, epsilon=0.05)
        pot = build_F_eps(spec)
        rng = np.random.default_rng(3)
        s = rng.uniform(-2.0, 2.0, 1000)
        # keep FD stencils clear of the knots
        h = np.minimum(1e-6 * (1 + np.abs(s)), 0.3 * np.abs(np.abs(s) - pot.knot) + 1e-12)
        ok = h > 1e-9
        s, h = s[ok], h[ok]
        for k in range(1, pot.order + 1):
            fd = (pot.f1(s + h, k - 1) - pot.f1(s - h, k - 1)) / (2 * h)
            got = pot.f1(s, k)
            np.testing.assert_allclose(fd, got, rtol=2e-6, atol=1e-8)

    def test_eps_gating(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.3)
        with pytest.raises(PotentialBuildError, match="eps_max"):
            build_F_eps(spec)
        with pytest.raises(PotentialBuildError):
            build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.0))

    def test_pointwise_convergence_to_singular(self):
        # |F_eps(s) - F(s)| non-increasing along the eps grid at fixed s,
        # strictly decreasing while nonzero
        for s in (0.95, 0.99, 0.999):
            spec0 = PotentialSpec(theta=1.0, theta_c=2.0, q=1)
            want = SingularPotential(spec0).f(s)
            gaps = []
            for eps in EPS_GRID:
                pot = build_F_eps(PotentialSpec(1.0, 2.0, 1, eps))
                gaps.append(abs(pot.f(s) - want))
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a
                if a > 0:
                    assert b < a


class TestComparisonLemmas:
    def test_report_passes_and_prints(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, beta=1.5)
        rep = verify_potential_lemmas(spec, samples=20_000, seed=1)
        assert rep.passed, rep.violations[:5]
        assert rep.c_q > 0 and rep.d_q > 0

    def test_dq_stabilizes_along_eps_grid(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, beta=1.5)
        rep = verify_potential_lemmas(spec, samples=2_000, seed=2)
        ds = [rep.d_q_by_eps[e] for e in EPS_GRID]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ds, ds[1:]))
        assert abs(ds[-1] - ds[-2]) <= 0.05 * abs(ds[-1])

    def test_dq_trivial_at_zero(self):
        # F_eps(0) = F(0) = 0 >= -d_q
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.05))
        assert pot.f(0.0) == 0.0
        assert exhibit_dq(pot) > 0

    def test_shifted_convexity_example_constant(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.05, beta=1.5)
        pot = build_F_eps(spec)
        assert spec.c0 == pytest.approx(0.5)
        s = np.linspace(-3, 3, 20001)
        assert np.min(pot.fsecond(s) + spec.beta) >= spec.c0 - 1e-12

    def test_q2_suite(self):
        spec = PotentialSpec(theta=1.0, theta_c=2.0, q=2, beta=1.5)
        rep = verify_potential_lemmas(spec, samples=20_000, seed=3)
        assert rep.passed, rep.violations[:5]


class TestConvexSplit:
    def test_definitional_identity(self):
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.05))
        s = np.linspace(-3, 3, 1000)
        np.testing.assert_allclose(
            pot.g(s) + 0.5 * pot.alpha_star * s**2, pot.f(s), rtol=1e-14, atol=1e-14
        )

    def test_gsecond_zero_at_origin(self):
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.05))
        assert pot.gsecond(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_gsecond_nonnegative_everywhere(self):
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=2, epsilon=0.03))
        s = np.linspace(-3, 3, 40001)
        assert np.min(pot.gsecond(s)) >= -1e-13

    def test_midpoint_convexity_random_triples(self):
        pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.05))
        g = pot.g
        rng = np.random.default_rng(11)
        a = rng.uniform(-2.5, 2.5, 500)
        b = rng.uniform(-2.5, 2.5, 500)
        mid = 0.5 * (a + b)
        assert np.all(g(mid) <= 0.5 * (g(a) + g(b)) + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(-0.999999, 0.999999),
    eps=st.floats(1e-3, 0.2),
)
def test_monotone_comparison_property(s, eps):
    spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=eps)
    pot = build_F_eps(spec)
    f1 = eval_F1_derivative(spec, 0, s)
    d1 = eval_F1_derivative(spec, 1, s)
    assert pot.f1(s, 0) <= f1 + 1e-12 * (1 + abs(f1))
    assert abs(pot.f1(s, 1)) <= abs(d1) + 1e-12 * (1 + abs(d1))


@settings(max_examples=100, deadline=None)
@given(s=st.floats(-3, 3), eps=st.sampled_from(EPS_GRID))
def test_second_derivative_floor_property(s, eps):
    pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=eps))
    assert pot.f1(s, 2) >= pot.alpha - 1e-12


def test_singular_potential_wrapper():
    spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=0.0)
    pot = SingularPotential(spec)
    assert pot.singular
    assert not build_F_eps(PotentialSpec(1.0, 2.0, 1, 0.05)).singular
    assert pot.f(0.0) == 0.0
    # F''(s) = theta / (1 - s^2) - theta_c
    assert pot.gsecond(0.5) == pytest.approx(
        spec.theta / (1 - 0.5**2) - spec.theta_c - spec.alpha_star
    )
    with pytest.raises(PotentialDomainError):
        pot.fprime(1.0)


@pytest.mark.parametrize("q,eps", [(1, 0.1), (1, 1e-3), (2, 0.05)])
def test_singular_and_regularized_share_the_core(q, eps):
    # on |s| <= 1 - eps both classes run the same formulas on the same
    # f1 floats, so every method agrees bit for bit
    spec = PotentialSpec(theta=1.0, theta_c=2.0, q=q, epsilon=eps)
    sing, reg = SingularPotential(spec), build_F_eps(spec)
    s = np.linspace(-(1 - eps), 1 - eps, 2001)
    for name in ("f", "fprime", "fsecond", "g", "gprime", "gsecond"):
        assert np.array_equal(getattr(sing, name)(s), getattr(reg, name)(s)), name
        assert getattr(sing, name)(0.3) == getattr(reg, name)(0.3), name


@pytest.mark.parametrize("q", [1, 2])
def test_nan_propagates_through_every_order(q):
    # a NaN node fails every core/tail comparison; it must come out as NaN,
    # not as whatever the output buffer held
    pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=q, epsilon=0.05))
    nan = float("nan")
    for s in (np.array([0.1, nan, 0.5, nan]),              # core only
              np.array([0.1, nan, 1.5, nan, -2.0, 0.5])):  # both tails
        want = np.isnan(s)
        for k in range(pot.order + 1):
            assert np.array_equal(np.isnan(pot.f1(s, k)), want), k
        for got in (pot.fprime(s), pot.fsecond(s), *pot.fprime_fsecond(s)):
            assert np.array_equal(np.isnan(got), want)
    assert np.isnan(pot.fsecond(nan))
    assert all(np.isnan(v) for v in pot.fprime_fsecond(nan))


@st.composite
def straddling_knots(draw):
    """(q, eps, s): s mixes core nodes with nodes on both sides of both
    knots +-(1 - eps), or stays in the core when core_only is drawn."""
    q = draw(st.sampled_from((1, 2)))
    eps = draw(st.sampled_from(EPS_GRID))
    knot = 1.0 - eps
    core = st.floats(-knot, knot)
    vals = draw(st.lists(core, min_size=1, max_size=32))
    if not draw(st.booleans()):
        near = st.builds(lambda sign, d: sign * (knot + d), st.sampled_from((-1.0, 1.0)),
                         st.floats(-2 * eps, 2 * eps))
        vals += [knot + eps, -knot - eps]
        vals += draw(st.lists(st.one_of(near, st.floats(-3.0, 3.0)), max_size=32))
    return q, eps, np.array(draw(st.permutations(vals)))


@settings(max_examples=200, deadline=None)
@given(case=straddling_knots())
def test_fused_pair_is_bitwise_the_separate_calls(case):
    q, eps, s = case
    pot = build_F_eps(PotentialSpec(theta=1.0, theta_c=2.0, q=q, epsilon=eps))
    fp, fpp = pot.fprime_fsecond(s)
    assert np.array_equal(fp, pot.fprime(s))
    assert np.array_equal(fpp, pot.fsecond(s))


@settings(max_examples=100, deadline=None)
@given(s=st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                  min_size=1, max_size=32))
def test_fused_pair_singular(s):
    pot = SingularPotential(PotentialSpec(theta=1.0, theta_c=2.0, q=1))
    s = np.array(s)
    fp, fpp = pot.fprime_fsecond(s)
    assert np.array_equal(fp, pot.fprime(s))
    assert np.array_equal(fpp, pot.fsecond(s))


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_scalar_calls_return_python_floats(eps):
    spec = PotentialSpec(theta=1.0, theta_c=2.0, q=1, epsilon=eps)
    pot = SingularPotential(spec) if eps == 0.0 else build_F_eps(spec)
    for k in range(pot.order + 1):
        assert type(pot.f1(0.3, k)) is float
    pair = pot.fprime_fsecond(0.3)
    assert [type(v) for v in pair] == [float, float]
    assert pair == (pot.fprime(0.3), pot.fsecond(0.3))
    with pytest.raises(PotentialDomainError):
        SingularPotential(spec).fprime_fsecond(np.array([0.2, 1.0]))
