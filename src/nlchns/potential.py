"""Singular logarithmic free-energy density and its polynomial regularization.

The free energy density is split as F = F1 + F2 with

    F1(s) = (theta/2) * ((1+s)*log(1+s) + (1-s)*log(1-s)),   s in (-1, 1)
    F2(s) = -(theta_c/2) * s**2

so F1 is convex and singular at s = +-1 while F2 is a smooth concave
quadratic.  For 0 < theta < theta_c the total F is a double well whose
minima sit strictly inside (-1, 1).

The regularized family F_eps keeps F1 exactly on [-1+eps, 1-eps] and
replaces it outside by the degree-(2+2q) Taylor polynomial of F1 about
the matching point +-(1-eps).  The result is C^(2+2q) on all of R, grows
like |s|^(2+2q), and satisfies the comparison bounds

    F1_eps''(s) >= alpha            (alpha = min F1'' = theta)
    F1_eps(s)  <= F1(s)             on (-1, 1)
    |F1_eps'(s)| <= |F1'(s)|        on (-1, 1)
    F_eps(s)   >= c_q |s|^(2+2q) - d_q
    F_eps''(s) + a >= c0            whenever a >= beta

with constants (alpha, alpha_star, c0, c_q) computed here in closed form
and d_q exhibited by scan.  `verify_potential_lemmas` re-checks every one
of these inequalities by dense sampling and returns a structured report.

LogPotential writes F, F', F'' and the convex split G = F - (alpha_star/2)
s^2 once over a subclass's f1(s, k): SingularPotential (eps = 0, raises at
|s| >= 1) or RegularizedPotential (eps > 0, from build_F_eps).  The two
agree bit for bit on |s| <= 1 - eps; ``pot.singular`` tells them apart.

Conventions: q is a positive integer, K = 2 + 2q is the matched smoothness
order, and beta (the lower bound of the kernel coefficient field a(x)) is
injected by the kernel module when the potential is used inside mu.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

EPS_MAX_DEFAULT = 0.2
Q_CAP = 8  # factorial (2+2q)! stays comfortably inside float64


class PotentialError(Exception):
    pass


class PotentialDomainError(PotentialError):
    """Singular potential evaluated at or beyond +-1."""


class PotentialBuildError(PotentialError):
    """Parameter set violates a premise needed by the comparison lemmas."""


def _factorial(k):
    return float(math.factorial(k))


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of the logarithmic family plus derived constants.

    beta is optional: it only enters c0, which is needed when the
    potential is combined with an interaction kernel.
    """

    theta: float
    theta_c: float
    q: int = 1
    epsilon: float = 0.05
    beta: float | None = None

    def __post_init__(self):
        if not (self.theta > 0 and self.theta_c > 0):
            raise PotentialBuildError("theta and theta_c must be positive")
        if not (self.theta < self.theta_c):
            raise PotentialBuildError(
                f"double-well regime requires theta < theta_c, "
                f"got theta={self.theta}, theta_c={self.theta_c}"
            )
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise PotentialBuildError(f"q must be a positive integer, got {self.q!r}")
        if self.q > Q_CAP:
            raise PotentialBuildError(f"q={self.q} exceeds the q <= {Q_CAP} cap")
        if self.epsilon < 0:
            raise PotentialBuildError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.beta is not None and self.c0 <= 0:
            raise PotentialBuildError(
                f"convexity surplus c0 = theta + beta - theta_c = {self.c0:.6g} "
                f"must be positive: need beta > theta_c - theta = "
                f"{self.theta_c - self.theta:.6g}, got beta = {self.beta:.6g} "
                f"(margin {self.beta - (self.theta_c - self.theta):.6g})"
            )

    @property
    def order(self):
        """Matched smoothness order K = 2 + 2q."""
        return 2 + 2 * self.q

    @property
    def alpha(self):
        """min of F1'' over (-1,1), attained at s = 0."""
        return self.theta

    @property
    def min_f2_second(self):
        return -self.theta_c

    @property
    def alpha_star(self):
        """alpha + min F2'': the (usually negative) quadratic shift."""
        return self.theta - self.theta_c

    @property
    def c0(self):
        if self.beta is None:
            raise PotentialBuildError("c0 requires beta (kernel lower bound)")
        return self.alpha + self.beta + self.min_f2_second

    @property
    def s0(self):
        """A root of F' in (-1,1); s = 0 by symmetry of the family."""
        return 0.0

    def with_beta(self, beta):
        return PotentialSpec(self.theta, self.theta_c, self.q, self.epsilon, beta)


def eval_F1_derivative(spec, k, s):
    """k-th derivative of the convex logarithmic part, closed form.

    F1'(s)    = (theta/2) log((1+s)/(1-s))
    F1^(k)(s) = (theta/2) (k-2)! [(-1)^k/(1+s)^(k-1) + 1/(1-s)^(k-1)], k >= 2
    """
    if not (0 <= k <= spec.order):
        raise PotentialError(f"derivative order k={k} outside 0..{spec.order}")
    s = np.asarray(s, dtype=float)
    outside = np.abs(s) >= 1.0
    if np.any(outside):
        raise PotentialDomainError(f"singular potential evaluated at or beyond "
                                   f"+-1 (s={float(s[outside][0])!r})")
    th = spec.theta
    if k == 0:
        out = 0.5 * th * ((1 + s) * np.log1p(s) + (1 - s) * np.log1p(-s))
    elif k == 1:
        out = th * np.arctanh(s)
    else:
        fac = 0.5 * th * _factorial(k - 2)
        out = fac * ((-1.0) ** k / (1 + s) ** (k - 1) + 1.0 / (1 - s) ** (k - 1))
    return out if np.ndim(out) else float(out)


class LogPotential:
    """F = F1 + F2 and G = F - (alpha_star/2) s^2 with their derivatives,
    over the k-th derivative f1(s, k) of F1 that a subclass supplies."""

    singular = False

    def __init__(self, spec, eps):
        self.spec = spec
        self.eps = float(eps)
        self.q = spec.q
        self.order = spec.order  # K = 2 + 2q
        self.alpha = spec.alpha
        self.alpha_star = spec.alpha_star

    def f(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = self.f1(s, 0) - 0.5 * self.spec.theta_c * s_arr**2
        return float(out) if np.ndim(s) == 0 else out

    def fprime(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = self.f1(s, 1) - self.spec.theta_c * s_arr
        return float(out) if np.ndim(s) == 0 else out

    def fsecond(self, s):
        out = self.f1(s, 2) - self.spec.theta_c
        return float(out) if np.ndim(s) == 0 else out

    def g(self, s):
        """Convex part of the split F = G + (alpha_star/2) s^2."""
        s_arr = np.asarray(s, dtype=float)
        out = self.f(s) - 0.5 * self.alpha_star * s_arr**2
        return float(out) if np.ndim(s) == 0 else out

    def gprime(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = self.fprime(s) - self.alpha_star * s_arr
        return float(out) if np.ndim(s) == 0 else out

    def gsecond(self, s):
        out = self.fsecond(s) - self.alpha_star
        return float(out) if np.ndim(s) == 0 else out


class SingularPotential(LogPotential):
    """The unregularized F, for eps = 0 diagnostics runs.

    Evaluation at |s| >= 1 raises rather than clamps: a solver escaping
    (-1,1) must surface as a hard error, not silent saturation.
    """

    singular = True

    def __init__(self, spec):
        super().__init__(spec, 0.0)

    def f1(self, s, k=0):
        return eval_F1_derivative(self.spec, k, s)


class RegularizedPotential(LogPotential):
    """F_eps = F1_eps + F2: log core with degree-(2+2q) polynomial tails.

    The tails are the Taylor polynomials of F1 about +-(1-eps); mirror
    symmetry of F1 makes the left tail the exact reflection of the right
    one, which is how it is evaluated here.
    """

    def __init__(self, spec, eps_max=EPS_MAX_DEFAULT, n_premise_samples=2000):
        if spec.epsilon <= 0:
            raise PotentialBuildError(
                "RegularizedPotential needs epsilon > 0; use SingularPotential "
                "for the eps = 0 mode"
            )
        if spec.epsilon > eps_max:
            raise PotentialBuildError(
                f"epsilon={spec.epsilon} exceeds eps_max={eps_max}; lemma "
                f"premises are only certified on (0, {eps_max}]"
            )
        super().__init__(spec, spec.epsilon)
        self.eps_max = float(eps_max)
        self.knot = 1.0 - self.eps

        K = self.order
        # taylor[m][j] = F1^(j+m)(knot) / j!  -> m-th derivative of the right
        # tail is sum_j taylor[m][j] * (s - knot)^j
        derivs = np.array([eval_F1_derivative(spec, k, self.knot) for k in range(K + 1)])
        self._tail = [
            np.array([derivs[j + m] / _factorial(j) for j in range(K + 1 - m)])
            for m in range(K + 1)
        ]

        self._check_premises(n_premise_samples)

        # (A3) constant: minimum of F1^(K) over the outer strips for any
        # eps <= eps_max; F1^(K) is even and increasing toward +-1, so the
        # minimum sits at the inner edge 1 - eps_max.  This makes c1 (and
        # hence c_q) independent of the particular eps of this instance.
        self.c1 = eval_F1_derivative(spec, K, 1.0 - eps_max)
        self.c_q = self.c1 / (2.0 * _factorial(K))

    def _check_premises(self, n):
        """Sampled gate for the sign/monotonicity premises on the strips.

        On [1-eps, 1): every F1^(k) must be >= 0 (k = 0..K), F1^(K) must be
        bounded away from 0 and nondecreasing.  The left strip follows by
        mirror symmetry (even orders >= 0, odd orders <= 0) and is checked
        directly as well.
        """
        spec, K = self.spec, self.order
        s = 1.0 - np.geomspace(self.eps, 1e-12, n)
        for k in range(K + 1):
            vals = eval_F1_derivative(spec, k, s)
            if np.any(vals < 0):
                raise PotentialBuildError(
                    f"sign premise violated: F1^({k}) < 0 on [1-eps, 1) "
                    f"at eps={self.eps}"
                )
            left = eval_F1_derivative(spec, k, -s)
            want_sign = 1.0 if k % 2 == 0 else -1.0
            if np.any(want_sign * left < 0):
                raise PotentialBuildError(
                    f"sign premise violated: (-1)^{k} F1^({k}) < 0 on "
                    f"(-1, -1+eps] at eps={self.eps}"
                )
        top = eval_F1_derivative(spec, K, s)
        if top.min() <= 0:
            raise PotentialBuildError(
                f"positivity premise violated: min F1^({K}) = {top.min():.3g} "
                f"<= 0 on the outer strip at eps={self.eps}"
            )
        if np.any(np.diff(top) < 0):
            raise PotentialBuildError(
                f"monotonicity premise violated: F1^({K}) not nondecreasing "
                f"on [1-eps, 1) at eps={self.eps}"
            )

    def f1(self, s, k=0):
        """k-th derivative of F1_eps, defined on all of R."""
        if not (0 <= k <= self.order):
            raise PotentialError(f"derivative order k={k} outside 0..{self.order}")
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty_like(s)

        core = np.abs(s) <= self.knot
        right = s > self.knot
        left = s < -self.knot
        if np.any(core):
            out[core] = eval_F1_derivative(self.spec, k, s[core])
        coeffs = self._tail[k]
        if np.any(right):
            t = s[right] - self.knot
            out[right] = np.polynomial.polynomial.polyval(t, coeffs)
        if np.any(left):
            t = -s[left] - self.knot
            out[left] = (-1.0) ** k * np.polynomial.polynomial.polyval(t, coeffs)
        return float(out[0]) if scalar else out


def build_F_eps(spec, eps_max=EPS_MAX_DEFAULT):
    """Construct the regularized family, gating the lemma premises."""
    return RegularizedPotential(spec, eps_max=eps_max)


def exhibit_dq(pot, c_q=None, s_range=3.0, n_scan=200_001, margin=1e-6):
    """Exhibit d_q: the smallest shift making F_eps >= c_q |s|^K - d_q on
    [-s_range, s_range], found by dense scan plus local refinement."""
    K = pot.order
    if c_q is None:
        c_q = pot.c_q

    def gap(s):
        return c_q * np.abs(s) ** K - pot.f(s)

    s = np.linspace(-s_range, s_range, n_scan)
    vals = gap(s)
    i = int(np.argmax(vals))
    lo = s[max(i - 2, 0)]
    hi = s[min(i + 2, n_scan - 1)]
    res = optimize.minimize_scalar(
        lambda x: -gap(float(x)), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    best = max(float(vals[i]), float(-res.fun))
    return best + margin


@dataclass
class LemmaViolation:
    name: str
    eps: float
    s: float
    lhs: float
    rhs: float


@dataclass
class LemmaReport:
    c_q: float
    d_q: float
    d_q_by_eps: dict
    checks: dict = field(default_factory=dict)  # name -> samples checked
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def verify_potential_lemmas(spec, samples=100_000,
                            eps_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
                            s_range=3.0, seed=0, eps_max=EPS_MAX_DEFAULT,
                            slack=1e-12):
    """Dense sampled audit of every comparison bound of the family.

    A single (c_q, d_q) pair is exhibited and then held fixed across the
    whole eps grid.  Violations are returned as structured records, never
    silently dropped.
    """
    if spec.beta is None:
        raise PotentialBuildError("verify_potential_lemmas needs spec.beta for "
                                  "the convexity-shift check")
    rng = np.random.default_rng(seed)
    pots = {}
    for eps in eps_grid:
        pots[eps] = build_F_eps(
            PotentialSpec(spec.theta, spec.theta_c, spec.q, eps, spec.beta),
            eps_max=max(eps_max, max(eps_grid)),
        )
    c_q = next(iter(pots.values())).c_q
    d_q_by_eps = {eps: exhibit_dq(p, c_q=c_q, s_range=s_range)
                  for eps, p in pots.items()}
    d_q = max(d_q_by_eps.values())

    report = LemmaReport(c_q=c_q, d_q=d_q, d_q_by_eps=d_q_by_eps)

    def record(name, eps, mask, s, lhs, rhs):
        report.checks[name] = report.checks.get(name, 0) + s.size
        if np.any(mask):
            idx = np.nonzero(mask)[0]
            for i in idx[:20]:  # cap the record, report the count
                report.violations.append(LemmaViolation(
                    name, eps, float(s[i]), float(lhs[i]), float(rhs[i])))
            if idx.size > 20:
                report.violations.append(LemmaViolation(
                    name, eps, float("nan"), float(idx.size), float("nan")))

    alpha = spec.alpha
    c0 = spec.c0
    for eps, pot in pots.items():
        s_wide = rng.uniform(-s_range, s_range, samples)
        s_open = rng.uniform(-1.0 + 1e-12, 1.0 - 1e-12, samples)

        # polynomial growth from below with the fixed exhibited constants
        lhs = pot.f(s_wide)
        rhs = c_q * np.abs(s_wide) ** pot.order - d_q
        record("growth_coercivity", eps, lhs < rhs, s_wide, lhs, rhs)

        # second-derivative floor of the regularized convex part
        lhs = pot.f1(s_wide, 2)
        rhs = np.full_like(s_wide, alpha - slack)
        record("f1eps_second_ge_alpha", eps, lhs < rhs, s_wide, lhs, rhs)

        # F'' + beta stays above c0, with a(x) replaced by its lower bound
        lhs = pot.fsecond(s_wide) + spec.beta
        rhs = np.full_like(s_wide, c0 - slack)
        record("shifted_convexity", eps, lhs < rhs, s_wide, lhs, rhs)

        # monotone comparison with the singular potential on (-1, 1)
        f1_sing = eval_F1_derivative(spec, 0, s_open)
        lhs = pot.f1(s_open, 0)
        tol = slack * (1 + np.abs(f1_sing))
        record("f1eps_le_f1", eps, lhs > f1_sing + tol, s_open, lhs, f1_sing)

        d1_sing = np.abs(eval_F1_derivative(spec, 1, s_open))
        lhs = np.abs(pot.f1(s_open, 1))
        tol = slack * (1 + d1_sing)
        record("abs_f1eps_prime_le", eps, lhs > d1_sing + tol, s_open, lhs, d1_sing)

    return report
