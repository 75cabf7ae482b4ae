"""Incompressible flow step with concentration-dependent viscosity,
capillary forcing, and pressure projection on the MAC staggering.

The viscous term is built variationally: the dissipation form

    R(u) = int 2 nu |Du|^2
         = sum_cells 2 nu_c (ux^2 + vy^2) + sum_corners nu_n (uy + vx)^2

(uniform cell weights) defines the operator

    A u = D^T (2 nu_c ux, nu_n s, nu_n s, 2 nu_c vy),  s = uy + vx,

with D = grid_ops.mac_component_gradients, the MAC velocity gradient
whose no-slip wall ghosts fold into the corner shears as 2 u / h, and D^T
its exact transpose grid_ops.mac_component_gradients_t.  That makes
<A u, u> = R(u) hold to roundoff, so the flow's energy bookkeeping closes
discretely, and I + dt A is symmetric positive definite for the
conjugate-gradient momentum solve with frozen coefficients nu(phi^n).  Its
condition number grows like n^2, so the CG is preconditioned by the
constant-viscosity, uncoupled operator at the mean viscosity,
1 + dt nu_ref (2 Kx + Ky) on u and its mirror image on v (Kx, Ky the 1D
factors of the stiffness blocks below), applied exactly by fast
diagonalisation (grid_ops.tensor_solve; Lynch, Rice & Thomas 1964); the
iteration count then stays bounded as the grid is refined.

Advection is the conservative divergence-form MAC interpolation of
div(u x u): -D^T of the momentum flux (uc^2, uv, uv, vc^2).  It has no
skew correction (the advective energy residual is part of the O(dt)
identity residual, not hidden).  The capillary force is the
-phi grad(mu) form, interpolated with the same face averaging as the
scalar transport flux, which makes <-phi grad mu, v> = <mu, div(phi v)>
an exact discrete integration by parts.

Projection is incremental pressure-correction: the Neumann Poisson solve
is the exact DCT-II solve of grid_ops, so the post-step divergence sits at
its roundoff floor (audited against 1e-10, observed around 1e-13).

The Stokes eigenvalue and the momentum residual's dual norm both need the
inverse of the componentwise stiffness A = D^T D (grad_form_apply)
restricted to solenoidal fields.  That is the Stokes problem
A z + grad p = b, div z = 0, solved by CG on the pressure Schur complement
S p = -div(A^-1 grad p).  A itself is inverted exactly by fast
diagonalisation: each velocity block is a sum of two 1D tridiagonal
stiffnesses, whose eigenpairs are cached by (n, h, end entry) and shared
with the momentum preconditioner; both solve through
grid_ops.tensor_solve.  The CG applies S without forming grad p,
A^-1 grad p or its divergence: the 1D cell-to-face difference of each
block's wall-normal axis is folded into that axis's eigenbasis once per
grid, so S is four matrix products per velocity block.  S is
spectrally equivalent to the identity on zero-mean pressures
(the MAC pair is inf-sup stable), so the CG count does not grow with n.
The eigenvalue is found by Lanczos on the Stokes inverse, with full
reorthogonalisation, in 10-12 Stokes solves.
"""

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from . import grid_ops as go
from .grid_ops import ScalarField, VectorField

DIV_TOLERANCE = 1e-10
MOMENTUM_RTOL = 1e-11
MOMENTUM_MAXITER = 4000


class NSError(Exception):
    pass


class NSStepRejection(NSError):
    def __init__(self, message, suggested_dt):
        super().__init__(f"{message}; suggest retrying with dt = {suggested_dt:.6g}")
        self.suggested_dt = suggested_dt


@dataclass(frozen=True)
class ViscositySpec:
    nu1: float
    nu2: float

    def __post_init__(self):
        if not (0.0 < self.nu1 <= self.nu2):
            raise NSError(
                f"need 0 < nu1 <= nu2, got nu1 = {self.nu1}, nu2 = {self.nu2}"
            )

    def at(self, s):
        """nu(s): the affine blend in s, clipped into [nu1, nu2]."""
        s = np.asarray(s, dtype=float)
        vals = self.nu1 + (self.nu2 - self.nu1) * 0.5 * (1.0 + s)
        if not np.all(np.isfinite(vals)):
            raise NSError("viscosity produced non-finite values")
        return np.clip(vals, self.nu1, self.nu2)


@dataclass
class NSState:
    u: VectorField
    pressure: ScalarField
    t: float


def init_ns_state(u):
    return NSState(u=u, pressure=go.zeros(u.grid), t=0.0)


def kinetic_energy(w):
    return 0.5 * go.vector_l2(w) ** 2


# ------------------------------------------------------- viscous operator

def cell_to_corner(grid, c):
    """Arithmetic 4-point average onto corners, edges replicated outward."""
    padded = np.pad(c, 1, mode="edge")
    return 0.25 * (padded[:-1, :-1] + padded[1:, :-1]
                   + padded[:-1, 1:] + padded[1:, 1:])


def _zero_normal(u, v):
    u[0, :] = 0.0
    u[-1, :] = 0.0
    v[:, 0] = 0.0
    v[:, -1] = 0.0
    return u, v


def viscous_apply(grid, nu_c, nu_n, u, v):
    """Discrete -div(2 nu Du) as the exact gradient of R(u)/2: D^T of the
    weighted D, with D = go.mac_component_gradients and the shear s = uy + vx.

    <A u, w> * vol equals the polarization of R, so the operator is
    symmetric and <A u, u> = R(u) = dissipation(...) to roundoff.  Output
    boundary normal faces are zero (constrained, not unknowns)."""
    ux, uy, vx, vy = go.mac_component_gradients(grid, u, v)
    s = nu_n * (uy + vx)
    qx, qy = 2.0 * nu_c * ux, 2.0 * nu_c * vy
    # freed before the transpose allocates: in the 256^2 momentum CG the
    # smaller working set takes about a quarter off each call
    del ux, uy, vx, vy
    return go.mac_component_gradients_t(grid, qx, s, s, qy)


def dissipation(grid, nu_c, nu_n, u, v):
    """int 2 nu |Du|^2 with the same quadrature the operator derives from."""
    ux, uy, vx, vy = go.mac_component_gradients(grid, u, v)
    total = 2.0 * np.sum(nu_c * (ux**2 + vy**2)) + np.sum(nu_n * (uy + vx)**2)
    return float(total * grid.cell_volume)


def viscosity_fields(grid, phi_values, visc):
    """nu(phi) at cells and corners (corner values by 4-point averaging,
    which keeps them inside [nu1, nu2])."""
    nu_c = visc.at(phi_values)
    return nu_c, cell_to_corner(grid, nu_c)


def grad_form_apply(grid, u, v):
    """Componentwise stiffness D^T D with the same wall convention as the
    strain: <A w, w> = sum(ux^2 + uy^2 + vx^2 + vy^2) vol exactly (the
    squared velocity gradient seminorm).  Used for the Stokes eigenvalue."""
    return go.mac_component_gradients_t(
        grid, *go.mac_component_gradients(grid, u, v))


@cache
def _stiffness_eigh(n, h, end):
    """Eigenpairs (lam, Q) of the 1D stiffness tridiag(-1, 2, -1) / h^2 on
    n nodes with both end diagonal entries set to end, cached by (n, h, end)."""
    return np.linalg.eigh(go.stiffness_1d(n, h, end))


def _block_factors(grid):
    """1D factors ((Kx, Ky) of the u block, (Kx, Ky) of the v block) as
    eigenpairs.  Each velocity block of the stiffness is, on its interior
    faces, a weighted tensor sum of two 1D stiffnesses.  The wall-normal
    factor is the Dirichlet tridiagonal on the n-1 interior faces.  The
    tangential factor lives on the n cell rows; its end entries are 5: 1
    from the interior difference plus 4 from the gradient pair's wall
    ghost, the shear 2 u / h of mac_component_gradients sent back by its
    transpose with another 2 / h.  That is not a sine basis, so every
    factor is diagonalised with eigh."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    return ((_stiffness_eigh(nx - 1, hx, 2.0), _stiffness_eigh(ny, hy, 5.0)),
            (_stiffness_eigh(nx, hx, 5.0), _stiffness_eigh(ny - 1, hy, 2.0)))


class _StokesFactors(NamedTuple):
    """The Stokes layer of one grid in the tensor eigenbasis of
    _block_factors: per velocity block the two 1D eigenbases, the table of
    eigenvalue sums, and the transfer factor from cell pressures into the
    eigenbasis of the block's wall-normal axis."""
    qx_u: np.ndarray
    qy_u: np.ndarray
    lam_u: np.ndarray
    wx: np.ndarray  # Qx_u^T Gx, Gx the cell-to-interior-face difference
    qx_v: np.ndarray
    qy_v: np.ndarray
    lam_v: np.ndarray
    wy: np.ndarray  # Qy_v^T Gy


@cache
def _stokes_factors(grid):
    """_StokesFactors of grid, built at the first Stokes solve on it and
    kept per grid: one eigenvalue costs about 200 Schur applications, and
    rebuilding a broadcast eigenvalue sum costs more than the division it
    feeds."""
    (ux, uy), (vx, vy) = _block_factors(grid)
    gx = np.diff(np.eye(grid.nx), axis=0) / grid.hx
    gy = np.diff(np.eye(grid.ny), axis=0) / grid.hy
    return _StokesFactors(
        ux[1], uy[1], ux[0][:, None] + uy[0][None, :], ux[1].T @ gx,
        vx[1], vy[1], vx[0][:, None] + vy[0][None, :], vy[1].T @ gy)


def grad_form_inverse(grid, fu, fv):
    """Exact inverse of grad_form_apply on the interior faces: returns (u, v)
    with zero normal faces and grad_form_apply(u, v) = (fu, fv) there.
    Boundary normal entries of fu, fv are ignored."""
    f = _stokes_factors(grid)
    u = np.zeros((grid.nx + 1, grid.ny))
    v = np.zeros((grid.nx, grid.ny + 1))
    u[1:-1, :] = go.tensor_solve(f.qx_u, f.qy_u, f.lam_u, fu[1:-1, :])
    v[:, 1:-1] = go.tensor_solve(f.qx_v, f.qy_v, f.lam_v, fv[:, 1:-1])
    return u, v


def _schur_apply(f, p):
    """The pressure Schur complement S p = -div(A^-1 grad p) through the
    factors f of _stokes_factors.  grad p is Gx p on the interior u faces
    and p Gy^T on the interior v faces, and -div is its transpose, so per
    block the grad, the fast-diagonalisation solve and the div fold into
    four matrix products:
    S p = Wx^T [(Wx p Qy_u) / lam_u] Qy_u^T + Qx_v [(Qx_v^T p Wy^T) / lam_v] Wy."""
    su = f.wx.T @ ((f.wx @ p @ f.qy_u) / f.lam_u) @ f.qy_u.T
    sv = f.qx_v @ ((f.qx_v.T @ p @ f.wy.T) / f.lam_v) @ f.wy
    return su + sv


# ------------------------------------------------------------- advection

def advective_tendency(grid, u, v):
    """Conservative div(u x u) on interior faces: -D^T of the momentum flux
    (uc^2, uv, uv, vc^2), its products interpolated to cells and corners.
    Wall corner fluxes vanish because the stored normal faces are exactly
    zero."""
    uc = 0.5 * (u[1:, :] + u[:-1, :])       # u at cells
    vc = 0.5 * (v[:, 1:] + v[:, :-1])       # v at cells
    # corner interpolants; tangential wall values average to the no-slip 0
    u_corner = np.zeros((grid.nx + 1, grid.ny + 1))
    u_corner[:, 1:-1] = 0.5 * (u[:, 1:] + u[:, :-1])
    v_corner = np.zeros((grid.nx + 1, grid.ny + 1))
    v_corner[1:-1, :] = 0.5 * (v[1:, :] + v[:-1, :])
    uv = u_corner * v_corner
    au, av = go.mac_component_gradients_t(grid, uc**2, uv, uv, vc**2)
    return -au, -av


# ------------------------------------------------------- capillary force

def capillary_force(phi, mu):
    """-phi grad(mu) at faces, with phi face-averaged exactly as in the
    transport flux, so <force, v> = <mu, div(phi_face v)> discretely."""
    fx, fy = go.face_phi(phi.grid, phi.values)
    gx, gy = go.grad_arrays(phi.grid, mu.values)
    return VectorField(phi.grid, -fx * gx, -fy * gy)


# ------------------------------------------------------------ projection

def project(grid, u, v, dt, pressure):
    """Incremental pressure correction.  Solves the Neumann Poisson problem
    for the increment q, updates u <- u - dt grad q and p <- p + q, and
    returns (u, v, new_pressure, div_inf)."""
    div = go.div_arrays(grid, u, v)
    rhs = -div / dt  # solver convention is -lap, so -div makes div(u1) = 0
    rhs = rhs - rhs.mean()  # compatibility shift, roundoff-sized by no-slip
    q = go.solve_neumann_direct(grid, rhs)
    gx, gy = go.grad_arrays(grid, q)
    u = u - dt * gx
    v = v - dt * gy
    _zero_normal(u, v)
    div_after = go.div_arrays(grid, u, v)
    return u, v, pressure + q, float(np.max(np.abs(div_after)))


# --------------------------------------------------------------- CG solve

def _pack(u, v):
    return np.concatenate((u.ravel(), v.ravel()))


def _unpack(grid, w):
    """Views of a packed vector as the MAC (u, v) pair."""
    split = (grid.nx + 1) * grid.ny
    return (w[:split].reshape(grid.nx + 1, grid.ny),
            w[split:].reshape(grid.nx, grid.ny + 1))


def _momentum_precond(grid, nu_ref, dt):
    """Exact inverse of the constant-coefficient, uncoupled momentum
    operator: 1 + dt nu_ref (2 Kx + Ky) on the u block and its mirror
    image on the v block, in the cached eigenbases of _block_factors (fast
    diagonalisation).  It is SPD on the whole packed vector: the identity on
    the wall-normal faces, where every CG residual is exactly zero."""
    (ux, uy), (vx, vy) = _block_factors(grid)
    c = dt * nu_ref
    lam_u = 1.0 + c * (2.0 * ux[0][:, None] + uy[0][None, :])
    lam_v = 1.0 + c * (vx[0][:, None] + 2.0 * vy[0][None, :])

    def apply(r):
        z = r.copy()
        (ru, rv), (zu, zv) = _unpack(grid, r), _unpack(grid, z)
        zu[1:-1, :] = go.tensor_solve(ux[1], uy[1], lam_u, ru[1:-1, :])
        zv[:, 1:-1] = go.tensor_solve(vx[1], vy[1], lam_v, rv[:, 1:-1])
        return z

    return apply


def _solve_momentum(grid, nu_c, nu_n, dt, bu, bv, u0, v0):
    """Preconditioned CG on the coupled SPD system (I + dt A) w = b, with u
    and v packed into one vector, warm-started at the previous velocity.
    The preconditioner is _momentum_precond at the mean cell viscosity: the
    variable coefficient and the u-v shear coupling are what it leaves to
    CG, so the iteration count stays bounded as the grid is refined.  The
    CG stops at MOMENTUM_RTOL relative to ||b||, or at the roundoff
    eps sqrt(size) of an O(1) velocity when that is larger: a flow at rest
    under a converged phi has a roundoff-sized b, and iterating on it only
    reduces noise.
    Returns (u, v, iterations).  A right-hand side whose norm is not finite
    is an NSError; any other CG stall an NSStepRejection with the CG's
    reason."""

    def mv(w):
        u, v = _unpack(grid, w)
        au, av = viscous_apply(grid, nu_c, nu_n, u, v)
        return _pack(u + dt * au, v + dt * av)

    b = _pack(*_zero_normal(bu.copy(), bv.copy()))
    precond = _momentum_precond(grid, float(np.mean(nu_c)), dt)
    roundoff = np.finfo(float).eps * np.sqrt(b.size)
    try:
        w, iters = go.cg(mv, b, precond=precond, rtol=MOMENTUM_RTOL,
                         maxiter=MOMENTUM_MAXITER, x0=_pack(u0, v0),
                         atol=roundoff)
    except go.CGNonFinite as exc:
        raise NSError(f"momentum solve: {exc}") from None
    except go.CGStall as exc:
        raise NSStepRejection(f"momentum solve did not converge: {exc}",
                              0.5 * dt) from None
    return (*_unpack(grid, w), iters)


# -------------------------------------------------------------- the step

def ns_step(ns, phi, mu, forcing, visc, dt):
    """One semi-implicit momentum step with incremental projection.

    ns       : NSState at time t
    phi, mu  : ScalarFields at time t (mu drives the capillary force)
    forcing  : VectorField body force, or None
    visc     : ViscositySpec; coefficients frozen at nu(phi(t))
    dt       : time step, > 0

    Explicit advection and capillary force, implicit viscous solve with
    the SPD frozen-coefficient operator by preconditioned CG, then
    pressure correction.  Raises NSStepRejection when the momentum CG
    stalls and NSError on non-finite data.  The post-projection
    divergence is audited against DIV_TOLERANCE.
    """
    if not (dt > 0.0):
        raise NSError(f"dt must be positive, got {dt}")
    grid = ns.u.grid
    if phi.grid != grid or mu.grid != grid:
        raise NSError("phi/mu grid does not match the velocity grid")
    if not (np.all(np.isfinite(phi.values)) and np.all(np.isfinite(mu.values))):
        raise NSError("non-finite phi or mu input")
    u0, v0 = ns.u.u, ns.u.v

    nu_c, nu_n = viscosity_fields(grid, phi.values, visc)
    adv_u, adv_v = advective_tendency(grid, u0, v0)
    cap = capillary_force(phi, mu)
    gpx, gpy = go.grad_arrays(grid, ns.pressure.values)

    bu = u0 + dt * (cap.u - adv_u - gpx)
    bv = v0 + dt * (cap.v - adv_v - gpy)
    if forcing is not None:
        bu = bu + dt * forcing.u
        bv = bv + dt * forcing.v
    if not (np.all(np.isfinite(bu)) and np.all(np.isfinite(bv))):
        raise NSError("non-finite momentum right-hand side")

    us, vs, _ = _solve_momentum(grid, nu_c, nu_n, dt, bu, bv, u0, v0)
    if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vs))):
        raise NSError("non-finite velocity after momentum solve")

    u1, v1, p1, div_inf = project(grid, us, vs, dt, ns.pressure.values)
    if div_inf > DIV_TOLERANCE * max(1.0, float(np.max(np.abs(u1))),
                                     float(np.max(np.abs(v1)))):
        raise NSError(f"projection left divergence {div_inf:.3e}")
    p1 = p1 - p1.mean()

    vel = VectorField(grid, u1, v1)
    return NSState(u=vel, pressure=ScalarField(grid, p1),
                   t=ns.t + dt)


# ------------------------------------------------- momentum weak residual

def momentum_residual(grid, ns0, ns1, phi, mu, forcing, visc):
    """Dual norm of the momentum residual over divergence-free test fields.

    r(w) = <(u1 - u0)/dt + adv(u0) - cap - h, w> + <2 nu Du1, Dw>
    for solenoidal w (the pressure gradient drops out).  The splitting
    error makes this O(dt).  Returned in the gradient-seminorm dual norm,
    computed by a Stokes solve."""
    dt = ns1.t - ns0.t
    u0, v0 = ns0.u.u, ns0.u.v
    u1, v1 = ns1.u.u, ns1.u.v
    nu_c, nu_n = viscosity_fields(grid, phi.values, visc)
    adv_u, adv_v = advective_tendency(grid, u0, v0)
    cap = capillary_force(phi, mu)
    au, av = viscous_apply(grid, nu_c, nu_n, u1, v1)
    ru = (u1 - u0) / dt + adv_u - cap.u + au
    rv = (v1 - v0) / dt + adv_v - cap.v + av
    if forcing is not None:
        ru = ru - forcing.u
        rv = rv - forcing.v
    _zero_normal(ru, rv)
    return stiffness_dual_norm(grid, ru, rv)


def project_divfree(grid, u, v):
    """Leray projection: remove the gradient part of the Helmholtz split."""
    div = go.div_arrays(grid, u, v)
    q = go.solve_neumann_direct(grid, -(div - div.mean()))
    gx, gy = go.grad_arrays(grid, q)
    out_u = u - gx
    out_v = v - gy
    return _zero_normal(out_u, out_v)


def _stiffness_solve(grid, b, rtol=1e-10):
    """Solenoidal z with P A z = P b, on packed vectors: the Stokes problem
    A z + grad p = b, div z = 0 for the componentwise stiffness A.

    CG on the pressure Schur complement S p = -div(A^-1 grad p), applied
    through the per-grid factors of _stokes_factors (_schur_apply), with
    the constants (its null space) projected out; then z = A^-1 (b - grad p)
    and one Leray projection that pins div z to roundoff.  A^-1 itself
    (grad_form_inverse) runs twice: for the right-hand side and for z."""
    bu, bv = _unpack(grid, b)
    rhs = -go.div_arrays(grid, *grad_form_inverse(grid, bu, bv))
    f = _stokes_factors(grid)
    try:
        p, _ = go.cg(lambda q: _schur_apply(f, q), rhs, rtol=rtol,
                     maxiter=20000, project=go.remove_mean)
    except go.CGStall:
        raise NSError("Stokes pressure solve did not converge") from None
    gx, gy = go.grad_arrays(grid, p)
    zu, zv = grad_form_inverse(grid, bu - gx, bv - gy)
    return _pack(*project_divfree(grid, zu, zv))


def stiffness_dual_norm(grid, wu, wv):
    """Dual gradient-seminorm of (wu, wv) over solenoidal test fields:
    sqrt(<P w, z>) with z the Stokes solution of _stiffness_solve for w.
    z is solenoidal, so <P w, z> = <w, z> and w needs no projection."""
    r = _pack(wu, wv)
    val = float(np.vdot(r, _stiffness_solve(grid, r))) * grid.cell_volume
    return float(np.sqrt(max(val, 0.0)))


# ------------------------------------------------------ Stokes eigenvalue

def stokes_lambda1(grid, tol=1e-10, maxiter=50):
    """Smallest eigenvalue of the divergence-free constrained stiffness:
    the best constant in ||grad u||^2 >= lambda1 ||u||^2 over solenoidal
    no-slip fields.  Lanczos on the Stokes inverse (Lanczos 1950): each step
    is one Stokes solve (_stiffness_solve: a pressure Schur-complement CG
    over the exact stiffness inverse), and lambda1 is the inverse of the
    largest Ritz value of the tridiagonal.  Every new vector is
    reorthogonalised twice against the stored ones, so the basis stays
    orthonormal to roundoff.  The Ritz value converges at the Chebyshev
    rate of the gap (Kaniel-Paige-Saad), in 10-12 solves from 10^2 to
    256^2.  A beta at roundoff (eps sqrt(size) theta) means the basis spans
    an invariant subspace, whose Ritz value is exact.  Raises NSError when
    successive estimates still differ by more than tol (relative) after
    maxiter solves."""
    rng = default_rng(1234)
    u = rng.standard_normal((grid.nx + 1, grid.ny))
    v = rng.standard_normal((grid.nx, grid.ny + 1))
    w = _pack(*project_divfree(grid, *_zero_normal(u, v)))
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise NSError("eigen iteration collapsed to zero")
    # rows are filled in place; the pages of unused rows are never touched
    basis = np.empty((maxiter + 1, w.size))
    basis[0] = w / nrm
    alphas, betas = [], []
    lam = None
    for k in range(maxiter):
        z = _stiffness_solve(grid, basis[k], rtol=1e-12)
        alphas.append(np.vdot(basis[k], z))
        q = basis[:k + 1]
        for _ in range(2):
            z -= q.T @ (q @ z)
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta = np.linalg.eigvalsh(tri)[-1]
        lam_new = 1.0 / theta
        beta = np.linalg.norm(z)
        invariant = beta <= np.finfo(float).eps * np.sqrt(z.size) * theta
        if invariant or (lam is not None
                         and abs(lam_new - lam) <= tol * abs(lam_new)):
            return float(lam_new)
        lam = lam_new
        np.divide(z, beta, out=basis[k + 1])
        betas.append(beta)
    last = "none" if lam is None else f"{lam:.10g}"
    raise NSError(f"Stokes eigenvalue iteration did not converge to tol={tol:.3g} "
                  f"in {maxiter} iterations (last estimate {last})")
