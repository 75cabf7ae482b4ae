"""Time integration of the convective nonlocal Cahn-Hilliard equation

    phi_t + u . grad phi = lap mu,   mu = a phi - J*phi + F'(phi),

with no-flux mu and a prescribed (or coupled) divergence-free velocity.

Scheme
------
The step is first-order semi-implicit with a convex/concave split
of the free energy

    E(phi) = 1/2 <a phi, phi> + int F(phi)  -  1/2 <phi, J*phi>.

The first group is convex in phi thanks to the surplus a + F'' >= c0 > 0,
and is treated implicitly through the pointwise monotone map

    m(s; x) = a(x) s + F'(s),

while the nonlocal term J*phi (whose energy is concave for positive
semidefinite J) and the advective flux are explicit:

    phi1 - dt lap m(phi1) = phi0 - dt div(u phibar0) - dt lap(J*phi0).

Substituting psi = m(phi1) turns the update into W(psi) - dt lap psi = b
with W = m^{-1}, whose Newton systems diag(W') + dt A are symmetric
positive definite and solved by conjugate gradients on the orthonormal
DCT-II coefficients of the update, where A is the diagonal of its
eigenvalues and the preconditioner median(W') + dt A a division.  The
transform pair is chosen once per step: up to grid_ops.DENSE_MAX_N dense
1D matrix products over the workspace's cosine bases, on larger grids the
scipy.fft pair, which only those grids import.  The Newton residual always
takes the stencil, whose sums telescope, so the mass argument below holds
on both.  Newton starts at psi = m(s), where s is phi0 plus its backward
differences over the kept history of up to HISTORY earlier states,
s = phi0 + nabla phi0 + nabla^2 phi0 + nabla^3 phi0: the cubic
extrapolation of the last four states, which needs no inverse and lies
O(dt^4) from phi1 on a smooth trajectory; the singular potential's start
is clipped into |s| <= SINGULAR_EDGE first.  A state from init_state has
no history, so a run's first three steps take the plain, linear and
quadratic starts by themselves.  A difference of equal arrays is an exact
zero, so with no history, or a history equal to phi0, s = phi0 bit for
bit.  The extrapolation assumes equal steps: a caller that changes dt
passes dataclasses.replace(state, prev=()) and gets the plain start.  W
itself is a safeguarded pointwise Newton inside the bracket
|W(psi)| <= 2 |psi| / c0 that m(0) = 0 and m' >= c0 give up front; after
a sweep's update delta it starts at p1 + W' delta, that sweep's own
linear prediction of W(psi + delta).  This
makes the energy non-increasing for u = 0 at any dt (up to the kernel's
departure from positive semidefiniteness, which is roundoff-level for the
gaussian family), keeps constant states exact fixed points, and conserves
the mean exactly: the mean of b equals the mean of phi0 because both the
advective divergence and the Laplacian telescope, and the leftover Newton
defect (checked below 1e-12) is removed by a uniform shift so the mass
never drifts across steps.  Newton stops only once the residual's mean is
also within half that gate, which its norm test alone does not give at
large dt.

Running with the true singular potential (no regularization) is allowed
for diagnostics; any node reaching |phi| >= 1 - 1e-10 is a hard error
rather than a silent clamp.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import grid_ops as go
from .grid_ops import ScalarField, face_phi

log = logging.getLogger(__name__)

# the CG's transform pair on grids above go.DENSE_MAX_N, imported at its
# first DCT there; the benchmark's ch_step.dct span wraps its dctn/idctn
sfft = go.LazyModule("scipy.fft")

SATURATION_GUARD = 1.0 - 1e-10
SINGULAR_EDGE = 1.0 - 1e-14  # the implicit map's reach under the singular F
MASS_DEFECT_LIMIT = 1e-12
NEWTON_MAX_OUTER = 50
NEWTON_MAX_POINTWISE = 80
HISTORY = 3  # earlier phis kept for the Newton start: a cubic extrapolation


class CHError(Exception):
    pass


class StepRejection(CHError):
    """The implicit solve did not converge; retry with a smaller step."""

    def __init__(self, message, suggested_dt):
        super().__init__(f"{message}; suggest retrying with dt = {suggested_dt:.6g}")
        self.suggested_dt = suggested_dt


@dataclass
class CHState:
    phi: ScalarField
    mu: ScalarField
    conv: np.ndarray  # J*phi, computed once per accepted state
    mass0: float
    saturated: bool  # |phi| reached 1 somewhere (monitor, not error)
    prev: tuple  # up to HISTORY earlier phis, newest first; () at a start


def _accepted_state(phi, kd, pot, mass0, saturated, prev):
    """The state at phi: J*phi is convolved here, once, and reused by mu,
    the next step's explicit term and the energy of the series row."""
    conv = kd.convolve_raw(phi.values)
    mu = chemical_potential(phi, kd, pot, conv)
    return CHState(phi=phi, mu=mu, conv=conv, mass0=mass0, saturated=saturated,
                   prev=prev)


def init_state(phi, kd, pot):
    mass = phi.mean()
    if abs(mass) >= 1.0:
        raise CHError(f"mean of phi must lie strictly inside (-1, 1), got {mass:.6g}")
    sat = bool(np.max(np.abs(phi.values)) >= 1.0)
    return _accepted_state(phi, kd, pot, mass, sat, ())


def chemical_potential(phi, kd, pot, conv=None):
    """mu = a phi - J*phi + F'(phi), nodewise on the cells.  conv, when
    given, is J*phi already computed for these values."""
    p = phi.values
    if not np.all(np.isfinite(p)):
        raise CHError("phi contains non-finite entries")
    if conv is None:
        conv = kd.convolve_raw(p)
    vals = kd.a_field.values * p - conv + pot.fprime(p)
    return ScalarField(phi.grid, vals)


def convective_divergence(u, p):
    """div(u phibar) at cells; conservative, so its mean telescopes to zero."""
    fx, fy = face_phi(u.grid, p)
    return go.div_arrays(u.grid, u.u * fx, u.v * fy)


def convective_power(u, p, mu_vals):
    """<u phibar, grad mu>, the advective work term of the energy balance."""
    fx, fy = face_phi(u.grid, p)
    gx, gy = go.grad_arrays(u.grid, mu_vals)
    return float((np.sum(u.u * fx * gx) + np.sum(u.v * fy * gy)) * u.grid.cell_volume)


class ImplicitMap:
    """The pointwise inverse W of m(s) = a(x) s + F'(s).

    m is strictly increasing, m' = a + F'' >= c0 = theta + beta - theta_c > 0
    (pot.spec.c0, since a >= beta), so W is well defined: on all of R for
    the regularized potential (polynomial growth), on the preimage of
    (-1, 1) for the singular one.
    """

    def __init__(self, a_vals, pot):
        self.a = a_vals
        self.pot = pot

    def invert(self, psi, x0, dt_for_reject):
        """Safeguarded vectorized Newton for m(x) = psi, warm started at x0.

        m(0) = 0 and m' >= c0 place every root in |x| <= |psi| / c0, so the
        bracket is known before any evaluation: radius 2 |psi| / c0 (the 2
        is headroom for roundoff in m'), widened to contain x0 and, for the
        singular potential, cut to |x| <= edge = SINGULAR_EDGE (|psi| beyond
        m(edge) = a edge + F'(edge), F' odd, is refused).  A Newton step that
        leaves the bracket falls back to bisection, so monotonicity of m
        guarantees convergence.  A node stays put once it meets the
        tolerance or its Newton step falls below one ulp of x: near +-1,
        where m' is large, the nearest float to the root can miss the psi
        tolerance.  Each iteration takes F' and F'' from one fused potential
        pass.
        Returns x and m'(x) from the converged iteration.
        """
        rad = 2.0 * np.abs(psi) / self.pot.spec.c0
        lo = np.minimum(x0, -rad)
        hi = np.maximum(x0, rad)
        if self.pot.singular:
            edge = SINGULAR_EDGE
            if np.any(np.abs(psi) > self.a * edge + self.pot.fprime(edge)):
                raise CHError(
                    "singular-potential saturation guard: implicit update "
                    "requires |phi| >= 1 - 1e-14 somewhere"
                )
            lo = np.maximum(lo, -edge)
            hi = np.minimum(hi, edge)
        x = np.clip(x0, lo, hi)

        tol = 1e-13 * (1.0 + np.abs(psi))
        for _ in range(NEWTON_MAX_POINTWISE):
            fp, fpp = self.pot.fprime_fsecond(x)
            f = self.a * x + fp - psi
            mprime = self.a + fpp
            done = np.abs(f) <= np.maximum(tol, mprime * np.abs(np.spacing(x)))
            if np.all(done):
                return x, mprime
            hi = np.where(f > 0, np.minimum(hi, x), hi)
            lo = np.where(f < 0, np.maximum(lo, x), lo)
            xn = x - f / mprime
            outside = (xn <= lo) | (xn >= hi)
            x = np.where(done, x, np.where(outside, 0.5 * (lo + hi), xn))
        raise StepRejection("pointwise Newton for the implicit map stalled",
                            dt_for_reject / 2.0)


def ch_step(state, u, dt, kd, pot):
    """Advance one step.  u is a divergence-free VectorField or None."""
    if dt <= 0:
        raise CHError(f"dt must be positive, got {dt}")
    grid = state.phi.grid
    p0 = state.phi.values
    if not np.all(np.isfinite(p0)):
        raise CHError("phi contains non-finite entries")

    adv = convective_divergence(u, p0) if u is not None else 0.0
    b = p0 - dt * adv - dt * go.laplace_arrays(grid, state.conv)
    imap = ImplicitMap(kd.a_field.values, pot)
    ws = go.workspace(grid)  # ws.eig: A = -laplace on the DCT-II basis
    if ws.qx is None:  # the scipy.fft DCT-II pair
        def fwd(x):
            return sfft.dctn(x, type=2, norm="ortho")

        def inv(xh):
            return sfft.idctn(xh, type=2, norm="ortho")
    else:  # the same pair as dense 1D matrix products
        def fwd(x):
            return ws.qx.T @ x @ ws.qy

        def inv(xh):
            return ws.qx @ xh @ ws.qy.T

    # the Newton system on DCT-II coefficients, where dt A is the diagonal
    # dt lam: the operator costs one transform pair and its preconditioner
    # none; the transform is orthonormal, so norms and rtol are unchanged
    dt_lam = dt * ws.eig

    def newton_op(xh):  # Q^T (diag(w) + dt A) Q at this sweep's w
        return fwd(w * inv(xh)) + dt_lam * xh

    def precond(rh):  # its inverse with w replaced by its median
        return rh / denom

    tol = 1e-13 * np.sqrt(b.size) * max(1.0, float(np.max(np.abs(b))))

    # Newton starts at p0 + nabla p0 + ... + nabla^k p0, k = len(prev), the
    # differences formed in place in a table that loses one row per order
    # (p0 itself, bit for bit, when prev is () or equals p0); one fused pass
    # gives psi = m(p1) and m'(p1).  The kept arrays are shared, never written.
    history = (p0,) + state.prev
    diffs = [new - old for new, old in zip(history, state.prev)]
    p1 = p0.copy()
    while diffs:
        p1 += diffs[0]
        for lo, hi in zip(diffs, diffs[1:]):
            lo -= hi
        diffs.pop()
    if pot.singular:
        p1 = np.clip(p1, -SINGULAR_EDGE, SINGULAR_EDGE)
    fp, fpp = pot.fprime_fsecond(p1)
    psi, mprime = imap.a * p1 + fp, imap.a + fpp
    for _ in range(NEWTON_MAX_OUTER):
        residual = p1 - dt * go.laplace_arrays(grid, psi) - b
        with np.errstate(over="ignore"):  # an inf norm fails the CG below
            rnorm = np.linalg.norm(residual)
        # the norm test alone admits a mean defect of 1e-13 max|b|, which
        # at large dt exceeds the absolute mass gate below
        if rnorm <= tol and abs(residual.mean()) <= 0.5 * MASS_DEFECT_LIMIT:
            break
        w = 1.0 / mprime
        denom = float(np.median(w)) + dt_lam

        # inexact Newton: only resolve the linear model down to what the
        # outer tolerance actually needs this sweep
        rtol_cg = min(1e-2, max(0.3 * tol / rnorm, 1e-13))
        try:
            delta_h, _ = go.cg(newton_op, fwd(-residual), precond,
                               rtol=rtol_cg, maxiter=2000)
        except go.CGNonFinite as exc:
            raise CHError(f"implicit update: {exc}") from None
        except go.CGStall:
            raise StepRejection("inner CG for the implicit update stalled",
                                dt / 2.0) from None
        delta = inv(delta_h)
        psi = psi + delta
        # W' = w, so p1 + w delta is the sweep's own linear prediction of
        # W(psi); the pointwise inverse starts there instead of at p1
        p1, mprime = imap.invert(psi, p1 + w * delta, dt)
    else:
        raise StepRejection(
            f"implicit Newton did not converge in {NEWTON_MAX_OUTER} iterations",
            dt / 2.0,
        )

    if not np.all(np.isfinite(p1)):
        raise CHError("step produced non-finite phi")

    if pot.singular:
        peak = float(np.max(np.abs(p1)))
        if peak >= SATURATION_GUARD:
            raise CHError(
                f"singular-potential saturation guard tripped: max|phi| = {peak:.17g}"
            )

    defect = state.mass0 - float(p1.mean())
    if abs(defect) > MASS_DEFECT_LIMIT:
        raise CHError(
            f"mass defect {defect:.3g} exceeds {MASS_DEFECT_LIMIT:.0e}; "
            "conservation broken before correction"
        )
    p1 = p1 + defect

    saturated = bool(np.max(np.abs(p1)) >= 1.0)
    if saturated and not state.saturated and not pot.singular:
        log.warning("phi reached |phi| >= 1 (monitor flag set)")

    return _accepted_state(ScalarField(grid, p1), kd, pot, state.mass0,
                           saturated or state.saturated, history[:HISTORY])


def fprime_l1(phi, pot):
    """Integral of |F'(phi)|, the boundedness diagnostic for the series."""
    return float(np.sum(np.abs(pot.fprime(phi.values))) * phi.grid.cell_volume)
