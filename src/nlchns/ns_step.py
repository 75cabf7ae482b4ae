"""Incompressible flow step with concentration-dependent viscosity,
capillary forcing, and pressure projection on the MAC staggering.

The viscous term is built variationally: the dissipation form

    R(u) = int 2 nu |Du|^2
         = sum_cells 2 nu_c (ux^2 + vy^2) + sum_corners nu_n (uy + vx)^2

(uniform cell weights) defines the operator

    A u = D^T (2 nu_c ux, nu_n s, nu_n s, 2 nu_c vy),  s = uy + vx,

with D = grid_ops.mac_component_gradients, the MAC velocity gradient
whose no-slip wall ghosts fold into the corner shears as WALL_SHEAR u / h
(grid_ops.WALL_SHEAR = 2), and D^T its exact transpose
grid_ops.mac_component_gradients_t.  That makes
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
its roundoff floor (audited against 1e-10, observed around 1e-13).  It and
the Leray projection project_divfree share one core, _remove_gradient;
the Leray projection is that core at dt = 1.

The Stokes eigenvalue and the momentum residual's dual norm both need the
inverse of the componentwise stiffness A = D^T D (grad_form_apply)
restricted to solenoidal fields.  That is the Stokes problem
A z + grad p = b, div z = 0, solved directly through the pressure Schur
complement S = -div(A^-1 grad).  A itself is inverted exactly by fast
diagonalisation: each velocity block is a sum of two 1D tridiagonal
stiffnesses, whose eigenpairs are cached by (n, h, end entry) and shared
with the momentum preconditioner; both solve through
grid_ops.tensor_solve.  S is inverted exactly by the capacitance matrix
method (_schur_solve): A is its free-slip counterpart plus a diagonal
term on the 2(nx-1) + 2(ny-1) tangential faces next to the walls, the
free-slip Schur complement is the identity, and Woodbury's formula
corrects it with two Neumann solves and one product by the inverse of a
capacitance matrix of that order, assembled from the 1D factors and
cached per grid.
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
    div_inf: float  # max |div u| after the projection that made u; 0 at a start


def init_ns_state(u):
    return NSState(u=u, pressure=go.zeros(u.grid), div_inf=0.0)


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


def dissipation(grid, nu_c, nu_n, grads):
    """int 2 nu |Du|^2 with the same quadrature the operator derives from;
    grads is go.mac_component_gradients of u, so one velocity's gradients
    serve every viscosity it is weighed with."""
    ux, uy, vx, vy = grads
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
    tangential factor lives on the n cell rows; its end entries are
    1 + go.WALL_SHEAR^2 = 5: 1 from the interior difference plus the wall
    shear WALL_SHEAR u / h of mac_component_gradients sent back by its
    transpose with another WALL_SHEAR / h.  That is not a sine basis, so
    every factor is diagonalised with eigh."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    wall = 1.0 + go.WALL_SHEAR**2
    return ((_stiffness_eigh(nx - 1, hx, 2.0), _stiffness_eigh(ny, hy, wall)),
            (_stiffness_eigh(nx, hx, wall), _stiffness_eigh(ny - 1, hy, 2.0)))


class _StokesFactors(NamedTuple):
    """The Stokes layer of one grid: per velocity block the two 1D
    eigenbases of _block_factors and the table of eigenvalue sums, by which
    grad_form_inverse divides, and the inverse of the capacitance matrix of
    the pressure Schur complement (_capacitance_inverse)."""
    qx_u: np.ndarray
    qy_u: np.ndarray
    lam_u: np.ndarray
    qx_v: np.ndarray
    qy_v: np.ndarray
    lam_v: np.ndarray
    minv: np.ndarray  # M^-1 over the wall faces: u walls first, then v walls


@cache
def _stokes_factors(grid):
    """_StokesFactors of grid, built at the first Stokes solve on it and
    kept per grid: one eigenvalue costs 10-12 Stokes solves, and rebuilding
    a broadcast eigenvalue sum costs more than the division it feeds."""
    (ux, uy), (vx, vy) = _block_factors(grid)
    return _StokesFactors(
        ux[1], uy[1], ux[0][:, None] + uy[0][None, :],
        vx[1], vy[1], vx[0][:, None] + vy[0][None, :],
        _capacitance_inverse(grid))


def _wall_block(lam, q, c, dc, neumann, inv_eig2, h):
    """The self block of the capacitance matrix over the faces of one
    velocity component next to its two walls, wall line 0 first: per pair
    of lines Q diag(f) Q^T - DC diag(g) DC^T, f and g the tangential sums
    of the two lines' cosine rows against 1 / (lam + neumann) and
    1 / eig^2, plus D^-1 = (h / WALL_SHEAR)^2 on the diagonal.  (lam, q)
    are the Dirichlet eigenpairs of the wall-normal axis, c the tangential
    cosine basis and dc the wall-normal cosine basis differenced onto the
    faces; inv_eig2 is indexed (wall-normal, tangential) mode."""
    ends = c[[0, -1]]
    slip = 1.0 / (lam[:, None] + neumann[None, :])

    def pair(w):
        return (q * (slip @ w)) @ q.T - (dc * (inv_eig2 @ w)) @ dc.T

    block = np.block([[pair(a * b) for b in ends] for a in ends])
    block += (h / go.WALL_SHEAR) ** 2 * np.eye(len(block))
    return block


def _capacitance_blocks(grid):
    """The SPD capacitance matrix M = D^-1 + W^T A_slip^-1 P W of
    _schur_solve (P the Leray projection) as its blocks (muu, muv, mvv) over
    the u and the v wall faces, assembled from 1D factors.  A_slip and
    L = -laplace are diagonal in the cosine basis, so
    M = D^-1 + W^T A_slip^-1 W - W^T grad L+^2 grad^T W needs only the rows
    of the two wall lines: muu and mvv come from _wall_block, and muv is
    -(DCx o cx_i) (1 / eig^2) (cy_j o DCy^T) per pair of a u wall line j and
    a v wall line i."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    ws = go.workspace(grid)
    inv_eig2 = 1.0 / ws.eig_nomean**2  # 0 at the constant mode
    cx, cy = go._cosine_basis(nx), go._cosine_basis(ny)
    dcx, dcy = np.diff(cx, axis=0) / hx, np.diff(cy, axis=0) / hy
    muu = _wall_block(*_stiffness_eigh(nx - 1, hx, 2.0), cy, dcx, ws.eig[0, :],
                      inv_eig2, hy)
    mvv = _wall_block(*_stiffness_eigh(ny - 1, hy, 2.0), cx, dcy, ws.eig[:, 0],
                      inv_eig2.T, hx)
    muv = -np.block([[(dcx * cx[i]) @ inv_eig2 @ (dcy * cy[j]).T
                      for i in (0, -1)] for j in (0, -1)])
    return muu, muv, mvv


def _capacitance_inverse(grid):
    """M^-1 for the blocks of _capacitance_blocks, inverted as a 2 x 2 block
    matrix, so no factorization is larger than 2 max(nx, ny) - 2.  The
    blocks of M^-1 are written in place: at 64^2, building them apart and
    joining them with np.block raised diagnose's peak RSS by 0.7 MiB more."""
    muu, muv, mvv = _capacitance_blocks(grid)
    k = len(muu)
    minv = np.empty((k + len(mvv),) * 2)
    iuu, iuv, ivv = minv[:k, :k], minv[:k, k:], minv[k:, k:]
    iuu[...] = np.linalg.inv(muu)
    t = iuu @ muv
    mvv -= muv.T @ t  # the Schur complement of muu
    ivv[...] = np.linalg.inv(mvv)
    np.matmul(t, ivv, out=iuv)
    iuu += iuv @ t.T
    iuv *= -1.0
    minv[k:, :k] = iuv.T
    return minv


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


def _schur_solve(grid, r):
    """The zero-mean p with S p = r for the pressure Schur complement
    S = -div(A^-1 grad) and a zero-mean r, exact to roundoff.

    The no-slip stiffness is the free-slip one plus a diagonal term on the
    tangential faces next to the walls, A = A_slip + W D W^T, with A_slip
    the componentwise stiffness whose tangential 1D factor has the Neumann
    end entry 1 and D the rest of the wall entry, WALL_SHEAR^2 / h^2.  The
    Dirichlet face factor is Gx Gx^T and the Neumann cell factor Gx^T Gx, so
    A_slip grad q = grad(L q) with L = -laplace, and the free-slip Schur
    complement is the identity on zero-mean pressures.  Woodbury's formula
    then inverts S exactly (the capacitance matrix method; Buzbee, Dorr,
    George & Golub, SIAM J. Numer. Anal. 8, 1971):
    S^-1 r = r + L+(-div(W c)), c = M^-1 W^T grad(L+ r),
    with L+ the Neumann inverse and M^-1 from _capacitance_inverse."""
    nx, ny = grid.nx, grid.ny
    gx, gy = go.grad_arrays(grid, go.solve_neumann_direct(grid, r))
    c = _stokes_factors(grid).minv @ np.concatenate(
        (gx[1:-1, 0], gx[1:-1, -1], gy[0, 1:-1], gy[-1, 1:-1]))
    wu, wv = np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))
    cu, cv = np.split(c, [2 * (nx - 1)])
    wu[1:-1, 0], wu[1:-1, -1] = np.split(cu, 2)
    wv[0, 1:-1], wv[-1, 1:-1] = np.split(cv, 2)
    return r - go.solve_neumann_direct(grid, go.div_arrays(grid, wu, wv))


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

def _remove_gradient(grid, u, v, dt):
    """The one Leray core: solve the Neumann Poisson problem for q with
    -laplace q = -div(u, v) / dt, shifted to its compatible zero mean, and
    return (u, v) - dt grad q, with zero normal faces, and q."""
    rhs = -go.div_arrays(grid, u, v) / dt  # the solver's -lap makes div 0
    rhs = rhs - rhs.mean()  # compatibility shift, roundoff-sized by no-slip
    q = go.solve_neumann_direct(grid, rhs)
    gx, gy = go.grad_arrays(grid, q)
    return (*_zero_normal(u - dt * gx, v - dt * gy), q)


def project(grid, u, v, dt, pressure):
    """Incremental pressure correction: u <- u - dt grad q and p <- p + q
    for the increment q of _remove_gradient.  Returns (u, v, new_pressure,
    div_inf)."""
    u, v, q = _remove_gradient(grid, u, v, dt)
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

def ns_step(ns, phi, mu, forcing, nu, dt):
    """One semi-implicit momentum step with incremental projection.

    ns       : NSState at time t
    phi, mu  : ScalarFields at time t (mu drives the capillary force)
    forcing  : VectorField body force, or None
    nu       : (nu_c, nu_n), the coefficients frozen at nu(phi(t)), as
               viscosity_fields gives them; the caller computes them once
               per state
    dt       : time step, > 0

    Explicit advection and capillary force, implicit viscous solve with
    the SPD frozen-coefficient operator by preconditioned CG, then
    pressure correction.  Raises NSStepRejection when the momentum CG
    stalls and NSError on non-finite data.  The post-projection
    divergence is audited against DIV_TOLERANCE and kept in the new
    state's div_inf.
    """
    if not (dt > 0.0):
        raise NSError(f"dt must be positive, got {dt}")
    grid = ns.u.grid
    if phi.grid != grid or mu.grid != grid:
        raise NSError("phi/mu grid does not match the velocity grid")
    if not (np.all(np.isfinite(phi.values)) and np.all(np.isfinite(mu.values))):
        raise NSError("non-finite phi or mu input")
    u0, v0 = ns.u.u, ns.u.v

    nu_c, nu_n = nu
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

    return NSState(VectorField(grid, u1, v1), ScalarField(grid, p1), div_inf)


# ------------------------------------------------- momentum weak residual

def momentum_residual(grid, ns0, ns1, phi, mu, forcing, visc, dt):
    """Dual norm of the momentum residual over divergence-free test fields.

    r(w) = <(u1 - u0)/dt + adv(u0) - cap - h, w> + <2 nu Du1, Dw>
    for solenoidal w (the pressure gradient drops out).  The splitting
    error makes this O(dt).  Returned in the gradient-seminorm dual norm,
    computed by a Stokes solve.  ns1 is ns0 advanced by dt."""
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
    """Leray projection: remove the gradient part of the Helmholtz split,
    _remove_gradient at dt = 1."""
    u, v, _ = _remove_gradient(grid, u, v, 1.0)
    return u, v


def _stiffness_solve(grid, b):
    """Solenoidal z with P A z = P b, on packed vectors: the Stokes problem
    A z + grad p = b, div z = 0 for the componentwise stiffness A.

    A direct solve: the pressure comes from the exact Schur complement
    inverse _schur_solve, with S p = -div(A^-1 b) after the right-hand
    side's roundoff mean is dropped (only grad p is used).  Then
    z = A^-1 (b - grad p) and one Leray projection that pins div z to
    roundoff.  A^-1 itself (grad_form_inverse) runs twice: for the
    right-hand side and for z."""
    bu, bv = _unpack(grid, b)
    rhs = -go.div_arrays(grid, *grad_form_inverse(grid, bu, bv))
    gx, gy = go.grad_arrays(grid, _schur_solve(grid, rhs - rhs.mean()))
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
    is one Stokes solve (_stiffness_solve: the exact pressure Schur
    complement inverse over the exact stiffness inverse), and lambda1 is
    the inverse of the largest Ritz value of the tridiagonal.  Every new vector is
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
        z = _stiffness_solve(grid, basis[k])
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
