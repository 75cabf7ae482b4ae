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
positive definite and solved by conjugate gradients, preconditioned by
median(W') + dt A in the DCT-II basis.  Up to grid_ops.DENSE_MAX_N the CG
applies A and that inverse as dense 1D matrix products (the workspace's
stiffnesses and grid_ops.tensor_solve); on larger grids through the
stencil and the scipy.fft pair, which only those grids import.  The Newton
residual always takes the stencil, whose sums telescope, so the mass
argument below holds on both.  Newton starts at psi = m(phi0), which needs
no inverse.  W itself is a safeguarded pointwise Newton inside the bracket
|W(psi)| <= 2 |psi| / c0 that m(0) = 0 and m' >= c0 give up front.  This
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

from . import diagnostics as dg
from . import grid_ops as go
from .grid_ops import ScalarField, face_phi

log = logging.getLogger(__name__)

# the preconditioner's own binding, imported at its first DCT (grids above
# go.DENSE_MAX_N); the benchmark's ch_step.dct span wraps its dctn/idctn
sfft = go.LazyModule("scipy.fft")

SATURATION_GUARD = 1.0 - 1e-10
MASS_DEFECT_LIMIT = 1e-12
NEWTON_MAX_OUTER = 50
NEWTON_MAX_POINTWISE = 80


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
    t: float
    mass0: float
    saturated: bool = False  # |phi| reached 1 somewhere (monitor, not error)


def _accepted_state(phi, kd, pot, t, mass0, saturated):
    """The state at phi: J*phi is convolved here, once, and reused by mu,
    the next step's explicit term and the energy of the series row."""
    conv = kd.convolve_raw(phi.values)
    mu = chemical_potential(phi, kd, pot, conv)
    return CHState(phi=phi, mu=mu, conv=conv, t=t, mass0=mass0,
                   saturated=saturated)


def init_state(phi, kd, pot):
    mass = phi.mean()
    if abs(mass) >= 1.0:
        raise CHError(f"mean of phi must lie strictly inside (-1, 1), got {mass:.6g}")
    sat = bool(np.max(np.abs(phi.values)) >= 1.0)
    return _accepted_state(phi, kd, pot, 0.0, mass, sat)


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


def ch_energy(phi, kd, pot):
    """1/2 <a phi, phi> - 1/2 <phi, J*phi> + int F(phi)."""
    return dg.energy_terms(phi, None, kd, pot)[3]


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
        singular potential, cut to |x| <= edge = 1 - 1e-14 (|psi| beyond
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
            edge = 1.0 - 1e-14
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
    ws = go.workspace(grid)
    lam, dense = ws.eig, ws.dense  # A = -laplace on the DCT-II basis
    scale = max(1.0, float(np.max(np.abs(b))))
    tol = 1e-13 * np.sqrt(b.size) * scale

    # Newton starts at p0; one fused pass gives psi = m(p0) and m'(p0)
    fp, fpp = pot.fprime_fsecond(p0)
    phi, psi, mprime = p0, imap.a * p0 + fp, imap.a + fpp
    converged = False
    for _ in range(NEWTON_MAX_OUTER):
        residual = phi - dt * go.laplace_arrays(grid, psi) - b
        rnorm = np.linalg.norm(residual)
        # the norm test alone admits a mean defect of 1e-13 max|b|, which
        # at large dt exceeds the absolute mass gate below
        if rnorm <= tol and abs(residual.mean()) <= 0.5 * MASS_DEFECT_LIMIT:
            converged = True
            break
        w = 1.0 / mprime
        shift = float(np.median(w))
        denom = shift + dt * lam

        if dense is None:  # the stencil and the scipy.fft DCT pair
            def mv(x, w=w):
                return w * x + dt * (-go.laplace_arrays(grid, x))

            def precond(r, denom=denom):
                rh = sfft.dctn(r, type=2, norm="ortho")
                return sfft.idctn(rh / denom, type=2, norm="ortho")
        else:  # the same operators as dense 1D matrix products
            def mv(x, w=w):
                return w * x + dt * (dense.kx @ x + x @ dense.ky)

            def precond(r, denom=denom):
                return go.tensor_solve(dense.qx, dense.qy, denom, r)

        # inexact Newton: only resolve the linear model down to what the
        # outer tolerance actually needs this sweep
        rtol_cg = min(1e-2, max(0.3 * tol / rnorm, 1e-13))
        try:
            delta, _ = go.cg(mv, -residual, precond, rtol=rtol_cg,
                             maxiter=2000)
        except go.CGStall:
            raise StepRejection("inner CG for the implicit update stalled",
                                dt / 2.0) from None
        psi = psi + delta
        phi, mprime = imap.invert(psi, phi, dt)
    if not converged:
        raise StepRejection(
            f"implicit Newton did not converge in {NEWTON_MAX_OUTER} iterations",
            dt / 2.0,
        )
    p1 = phi

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
        log.warning("phi reached |phi| >= 1 at t = %.6g (monitor flag set)",
                    state.t + dt)

    return _accepted_state(ScalarField(grid, p1), kd, pot,
                           state.t + dt, state.mass0, saturated or state.saturated)


def ch_energy_identity_residual(states, u, kd, pot, dt):
    """Per-step residuals of the standalone energy balance

        [E(phi1) - E(phi0)]/dt + ||grad mu1||^2 - <u phibar1, grad mu1>.

    First order in dt for the semi-implicit scheme; identically zero on
    constant states.
    """
    energies = [ch_energy(s.phi, kd, pot) for s in states]
    out = np.empty(len(states) - 1)
    for n in range(len(states) - 1):
        s1 = states[n + 1]
        power = convective_power(u, s1.phi.values, s1.mu.values) if u is not None else 0.0
        out[n] = dg.identity_residual(energies[n], energies[n + 1], dt, 0.0,
                                      go.h1_seminorm(s1.mu) ** 2, power)
    return out


def fprime_l1(phi, pot):
    """Integral of |F'(phi)|, the boundedness diagnostic for the series."""
    return float(np.sum(np.abs(pot.fprime(phi.values))) * phi.grid.cell_volume)
