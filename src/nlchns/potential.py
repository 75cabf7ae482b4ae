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

LogPotential writes F, F', F'' once over a subclass's f1_orders(s, ks):
SingularPotential (eps = 0, raises at |s| >= 1) or RegularizedPotential
(eps > 0, from build_F_eps).
The two agree bit for bit on |s| <= 1 - eps; ``pot.singular`` tells them
apart.  fprime_fsecond gives (F', F'') from one pass over s.

Conventions: q is a positive integer, K = 2 + 2q is the matched smoothness
order, and beta (the lower bound of the kernel coefficient field a(x)) is
injected by the kernel module when the potential is used inside mu.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

EPS_MAX_DEFAULT = 0.2
S_RANGE = 3.0  # |s| range of the d_q scan and of the sampled lemma audit
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
                f"{self.theta_c - self.theta:.6g}, got beta = {self.beta:.6g}"
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
    def alpha_star(self):
        """alpha + min F2'': the (usually negative) quadratic shift."""
        return self.theta - self.theta_c

    @property
    def c0(self):
        if self.beta is None:
            raise PotentialBuildError("c0 requires beta (kernel lower bound)")
        return self.theta + self.beta - self.theta_c

    def with_beta(self, beta):
        return PotentialSpec(self.theta, self.theta_c, self.q, self.epsilon, beta)


def _F1_closed_form(theta, k, s):
    """k-th derivative of F1 on a float array, unchecked: the caller has
    validated k and kept s inside (-1, 1) (NaN passes through as NaN)."""
    if k == 0:
        return 0.5 * theta * ((1 + s) * np.log1p(s) + (1 - s) * np.log1p(-s))
    if k == 1:
        return theta * np.arctanh(s)
    fac = 0.5 * theta * _factorial(k - 2)
    return fac * ((-1.0) ** k / (1 + s) ** (k - 1) + 1.0 / (1 - s) ** (k - 1))


def _check_orders(spec, ks):
    for k in ks:
        if not (0 <= k <= spec.order):
            raise PotentialError(f"derivative order k={k} outside 0..{spec.order}")


def eval_F1_derivatives(spec, ks, s):
    """[F1^(k)(s) for k in ks], closed form, with one domain check shared
    by every order (see eval_F1_derivative)."""
    _check_orders(spec, ks)
    s = np.asarray(s, dtype=float)
    outside = np.abs(s) >= 1.0
    if np.any(outside):
        raise PotentialDomainError(f"singular potential evaluated at or beyond "
                                   f"+-1 (s={float(s[outside][0])!r})")
    return [_F1_closed_form(spec.theta, k, s) for k in ks]


def eval_F1_derivative(spec, k, s):
    """k-th derivative of the convex logarithmic part, closed form.

    F1'(s)    = (theta/2) log((1+s)/(1-s))
    F1^(k)(s) = (theta/2) (k-2)! [(-1)^k/(1+s)^(k-1) + 1/(1-s)^(k-1)], k >= 2
    """
    (out,) = eval_F1_derivatives(spec, (k,), s)
    return out if np.ndim(out) else float(out)


class LogPotential:
    """F = F1 + F2 with its derivatives, over f1_orders(s, ks), the
    derivatives of F1 that a subclass supplies for several orders from one
    pass over s."""

    singular = False

    def __init__(self, spec):
        self.spec = spec

    def f1(self, s, k=0):
        """k-th derivative of F1 (of F1_eps when regularized)."""
        (out,) = self.f1_orders(s, (k,))
        return out if np.ndim(out) else float(out)

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

    def fprime_fsecond(self, s):
        """(F'(s), F''(s)) from one f1 pass, bit for bit the separate calls."""
        s_arr = np.asarray(s, dtype=float)
        d1, d2 = self.f1_orders(s_arr, (1, 2))
        fp = d1 - self.spec.theta_c * s_arr
        fpp = d2 - self.spec.theta_c
        if np.ndim(s) == 0:
            return float(fp), float(fpp)
        return fp, fpp


class SingularPotential(LogPotential):
    """The unregularized F, for eps = 0 diagnostics runs.

    Evaluation at |s| >= 1 raises rather than clamps: a solver escaping
    (-1,1) must surface as a hard error, not silent saturation.
    """

    singular = True

    def f1_orders(self, s, ks):
        return eval_F1_derivatives(self.spec, ks, s)


class RegularizedPotential(LogPotential):
    """F_eps = F1_eps + F2: log core with degree-(2+2q) polynomial tails.

    The tails are the Taylor polynomials of F1 about +-(1-eps); mirror
    symmetry of F1 makes the left tail the exact reflection of the right
    one, which is how it is evaluated here.

    The lemma premises on the strip [1-eps, 1) hold in closed form for
    every spec accepted here (eps <= 0.2): for k >= 2, F1^(k) > 0 there
    because (1-s)^(1-k) >= 5^(k-1) > 1 >= (1+s)^(1-k), so F1^(K) is
    positive and increasing; F1 and F1' are positive; the left strip
    follows by parity.  verify_potential_lemmas audits the consequences.
    """

    def __init__(self, spec):
        if spec.epsilon <= 0:
            raise PotentialBuildError(
                "RegularizedPotential needs epsilon > 0; use SingularPotential "
                "for the eps = 0 mode"
            )
        if spec.epsilon > EPS_MAX_DEFAULT:
            raise PotentialBuildError(
                f"epsilon={spec.epsilon} exceeds eps_max={EPS_MAX_DEFAULT}; "
                f"lemma premises are only certified on (0, {EPS_MAX_DEFAULT}]"
            )
        super().__init__(spec)
        self.knot = 1.0 - spec.epsilon

        K = spec.order
        # taylor[m][j] = F1^(j+m)(knot) / j!  -> m-th derivative of the right
        # tail is sum_j taylor[m][j] * (s - knot)^j
        derivs = np.array([eval_F1_derivative(spec, k, self.knot) for k in range(K + 1)])
        self._tail = [
            np.array([derivs[j + m] / _factorial(j) for j in range(K + 1 - m)])
            for m in range(K + 1)
        ]

        # (A3) constant: minimum of F1^(K) over the outer strips for any
        # eps <= EPS_MAX_DEFAULT; F1^(K) is even and increasing toward +-1,
        # so the minimum sits at the inner edge 1 - EPS_MAX_DEFAULT.  This
        # makes c1 (and hence c_q) independent of the eps of this instance.
        self.c1 = eval_F1_derivative(spec, K, 1.0 - EPS_MAX_DEFAULT)
        self.c_q = self.c1 / (2.0 * _factorial(K))

    def f1_orders(self, s, ks):
        """[F1_eps^(k)(s) for k in ks], defined on all of R.  One split of
        s at |s| = knot serves every order; with no node in a tail the
        closed forms run on s directly.  NaN stays in the core and comes
        out as NaN."""
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            # a scalar runs as one element, so it gets the array loops' bits
            return [out[0] for out in self.f1_orders(s[None], ks)]
        _check_orders(self.spec, ks)
        theta = self.spec.theta
        tail = np.abs(s) > self.knot
        if not tail.any():
            return [_F1_closed_form(theta, k, s) for k in ks]
        core = ~tail
        s_core = s[core]
        s_tail = s[tail]
        t = np.abs(s_tail) - self.knot
        left = s_tail < 0
        outs = []
        for k in ks:
            out = np.empty_like(s)
            out[core] = _F1_closed_form(theta, k, s_core)
            # Horner in np.polynomial.polynomial.polyval's own order
            coeffs = self._tail[k]
            val = coeffs[-1] + t * 0
            for c in coeffs[-2::-1]:
                val = c + val * t
            if k % 2:
                np.negative(val, out=val, where=left)
            out[tail] = val
            outs.append(out)
        return outs


def build_F_eps(spec):
    """Construct the regularized family F_eps of spec."""
    return RegularizedPotential(spec)


def exhibit_dq(pot, c_q=None):
    """Exhibit d_q: the smallest shift making F_eps >= c_q |s|^K - d_q on
    [-S_RANGE, S_RANGE], found by dense scan plus local refinement, plus a
    margin of 1e-6."""
    from scipy import optimize  # only here: the run commands never load it

    K = pot.spec.order
    if c_q is None:
        c_q = pot.c_q

    def gap(s):
        return c_q * np.abs(s) ** K - pot.f(s)

    s = np.linspace(-S_RANGE, S_RANGE, 200_001)
    vals = gap(s)
    i = int(np.argmax(vals))
    lo = s[max(i - 2, 0)]
    hi = s[min(i + 2, s.size - 1)]
    res = optimize.minimize_scalar(
        lambda x: -gap(float(x)), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    best = max(float(vals[i]), float(-res.fun))
    return best + 1e-6


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
                            eps_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3), seed=0):
    """Dense sampled audit of every comparison bound of the family.

    A single (c_q, d_q) pair is exhibited and then held fixed across the
    whole eps grid.  Violations are returned as structured records, never
    silently dropped.  Floors and comparisons allow a roundoff slack of
    1e-12.
    """
    if spec.beta is None:
        raise PotentialBuildError("verify_potential_lemmas needs spec.beta for "
                                  "the convexity-shift check")
    rng = default_rng(seed)
    pots = {eps: build_F_eps(PotentialSpec(spec.theta, spec.theta_c, spec.q,
                                           eps, spec.beta))
            for eps in eps_grid}
    c_q = next(iter(pots.values())).c_q
    d_q_by_eps = {eps: exhibit_dq(p, c_q=c_q) for eps, p in pots.items()}
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
    slack = 1e-12
    for eps, pot in pots.items():
        s_wide = rng.uniform(-S_RANGE, S_RANGE, samples)
        s_open = rng.uniform(-1.0 + 1e-12, 1.0 - 1e-12, samples)

        # polynomial growth from below with the fixed exhibited constants
        lhs = pot.f(s_wide)
        rhs = c_q * np.abs(s_wide) ** pot.spec.order - d_q
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
