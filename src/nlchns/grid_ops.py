"""Cell-centered grids, no-flux operators, Neumann inverse, norms, field IO.

Layout
------
Scalar unknowns (phi, mu, pressure) live at cell centers of a uniform
rectangular grid: values[i, j] sits at x_i = (i + 1/2) hx, y_j = (j + 1/2) hy,
x index first.  The quadrature weight of every cell is hx*hy, so cell volumes
sum to |Omega| exactly and the mean is a plain numpy mean.

Velocities use the MAC staggering: the x component u[i, j] sits on the
vertical face (i hx, (j + 1/2) hy), shape (nx+1, ny); the y component
v[i, j] on the horizontal face ((i + 1/2) hx, j hy), shape (nx, ny+1).
Boundary faces carry the no-penetration value 0.

With mirror-ghost no-flux for scalars, the discrete identities

    <laplace f, g> = -<grad f, grad g>        (summation by parts)
    <grad f, v>    = -<f, div v>              (v normal = 0 on walls)

hold exactly in floating point up to roundoff, which is what the energy
bookkeeping downstream relies on.

The Neumann Laplacian A = -laplace is diagonalized exactly by the
orthonormal DCT-II: its eigenvectors are cos(k pi (i + 1/2) / n) per axis,
with eigenvalues (4/hx^2) sin^2(kx pi / 2nx) + (4/hy^2) sin^2(ky pi / 2ny).
Every Neumann Poisson solve (the pressure and Leray projections, the
zero-mean inverse N and the V0' norm) is therefore one direct transform
pair, exact to roundoff: the staggered-grid direct method of Schumann &
Sweet, J. Comput. Phys. 75 (1988).  workspace(grid), built once per grid,
is one flat record (eig, eig_nomean, qx, qy): the eigenvalue table, shared
with the implicit CH solve, whose inner CG runs on DCT-II coefficients;
the same table with inf at the constant mode, by which every solve
divides, so both branches drop the mean the same way; and the cosine
bases.  Two branches apply it, chosen by grid size:

- both sides at most DENSE_MAX_N: qx and qy are the dense cosine
  matrices, and the transform pair is two dense products each way
  (tensor_solve for a solve), O(N^1.5) in matrix products that beat the
  FFT's per-call cost on such grids;
- larger grids: qx and qy are None, and the pair is scipy.fft's DCT-II,
  O(N log N).  Only this branch needs scipy.fft, so it is imported at
  the first transform (LazyModule), and a run within DENSE_MAX_N never
  loads it.

tensor_solve is the one fast-diagonalisation solve (Lynch, Rice & Thomas,
Numer. Math. 6, 1964): the momentum preconditioner and the exact stiffness
inverse of ns_step call it with their own eigenbases.

The velocity gradient D = mac_component_gradients (ux, vy at cells; uy, vx
at corners) and its exact transpose D^T = mac_component_gradients_t are
one pair and the one place that knows the no-slip wall ghost: the
tangential velocity beyond a wall is the mirror -u, so the wall shear is
WALL_SHEAR u / h with WALL_SHEAR = 2.  The velocity forms of ns_step are
built on it: the viscous operator and the componentwise stiffness are D^T
of a weighted D, the advective tendency is -D^T of the momentum flux, and
the stiffness's 1D factors end in 1 + WALL_SHEAR^2.
"""

import importlib
import struct
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np


class LazyModule:
    """Stands for the module ``name``, imported at the first attribute
    lookup.  An attribute set on the instance shadows the module's."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sfft = LazyModule("scipy.fft")


class GridError(Exception):
    pass


class MeanError(GridError):
    """Zero-mean contract violated (Neumann inverse / V0' norm)."""


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise GridError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise GridError("domain extents must be positive")

    @property
    def hx(self):
        return self.lx / self.nx

    @property
    def hy(self):
        return self.ly / self.ny

    @property
    def area(self):
        return self.lx * self.ly

    @property
    def cell_volume(self):
        return self.hx * self.hy

    def cell_x(self):
        return (np.arange(self.nx) + 0.5) * self.hx

    def cell_y(self):
        return (np.arange(self.ny) + 0.5) * self.hy

    def cell_mesh(self):
        return np.meshgrid(self.cell_x(), self.cell_y(), indexing="ij")

    def corner_mesh(self):
        x = np.arange(self.nx + 1) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise GridError(
                f"scalar field shape {self.values.shape} does not match grid "
                f"{(self.grid.nx, self.grid.ny)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("scalar field contains non-finite entries")

    def mean(self):
        return float(self.values.mean())

    def integral(self):
        return float(self.values.sum() * self.grid.cell_volume)


@dataclass
class VectorField:
    """MAC-staggered vector field; boundary normal faces must vanish."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        nx, ny = self.grid.nx, self.grid.ny
        if self.u.shape != (nx + 1, ny) or self.v.shape != (nx, ny + 1):
            raise GridError(
                f"MAC shapes must be {(nx + 1, ny)} and {(nx, ny + 1)}, got "
                f"{self.u.shape} and {self.v.shape}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise GridError("vector field contains non-finite entries")
        wall = max(
            np.abs(self.u[0]).max(), np.abs(self.u[-1]).max(),
            np.abs(self.v[:, 0]).max(), np.abs(self.v[:, -1]).max(),
        )
        if wall > 0.0:
            raise GridError(
                f"boundary normal faces must be zero, max |normal| = {wall:.3g}"
            )


def zeros(grid):
    return ScalarField(grid, np.zeros((grid.nx, grid.ny)))


def zero_vector(grid):
    return VectorField(grid, np.zeros((grid.nx + 1, grid.ny)),
                       np.zeros((grid.nx, grid.ny + 1)))


# ----------------------------------------------------------------- operators

def grad_arrays(grid, f):
    """Gradient of a cell array onto faces, zero at boundary faces (no flux)."""
    gx = np.zeros((grid.nx + 1, grid.ny))
    gy = np.zeros((grid.nx, grid.ny + 1))
    gx[1:-1, :] = (f[1:, :] - f[:-1, :]) / grid.hx
    gy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / grid.hy
    return gx, gy


def div_arrays(grid, u, v):
    """Divergence of face arrays at cell centers."""
    return (u[1:, :] - u[:-1, :]) / grid.hx + (v[:, 1:] - v[:, :-1]) / grid.hy


def face_phi(grid, p):
    """Centered interpolation of a cell field onto faces.  Boundary faces
    are left at zero: they only multiply the (zero) wall-normal velocity."""
    fx = np.zeros((grid.nx + 1, grid.ny))
    fy = np.zeros((grid.nx, grid.ny + 1))
    fx[1:-1, :] = 0.5 * (p[1:, :] + p[:-1, :])
    fy[:, 1:-1] = 0.5 * (p[:, 1:] + p[:, :-1])
    return fx, fy


def laplace_arrays(grid, f):
    gx, gy = grad_arrays(grid, f)
    return div_arrays(grid, gx, gy)


def inner(f, g):
    return float(np.sum(f.values * g.values)) * f.grid.cell_volume


def inner_vec(a, b):
    return (float(np.sum(a.u * b.u)) + float(np.sum(a.v * b.v))) * a.grid.cell_volume


# --------------------------------------------------- Neumann Laplacian and N

# Grids whose sides are all at most DENSE_MAX_N apply the DCT pair as dense
# 1D matrix products; larger grids use scipy.fft.  Microseconds per pair on
# square n^2 grids, min of 5, one BLAS thread, 2-vCPU x86 VM:
#
#     n    scipy.fft pair   dense pair
#     32        45               14
#     64       103               51
#     96       145              121
#    112       215              254
#    128       252              319
DENSE_MAX_N = 96


def stiffness_1d(n, h, end):
    """The 1D stiffness tridiag(-1, 2, -1) / h^2 on n nodes, with both end
    diagonal entries set to end (1: Neumann)."""
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    t[0, 0] = t[-1, -1] = end
    return t / h**2


def _cosine_basis(n):
    """Orthonormal DCT-II eigenvectors of stiffness_1d(n, h, 1) as columns,
    in closed form: column k is cos(k pi (i + 1/2) / n), normalised.  The
    angle is reduced mod 2 pi in integers, and column 0 is set to the exact
    constant, so the zero mode stays exact."""
    i = np.arange(n)
    turns = np.outer(2 * i + 1, i) % (4 * n)  # angle = turns * pi / (2n)
    q = np.sqrt(2.0 / n) * np.cos(turns * (np.pi / (2 * n)))
    q[:, 0] = np.sqrt(1.0 / n)
    return q


class NeumannWorkspace(NamedTuple):
    """The DCT-II data of one grid.  With qx, qy present, qx.T @ f @ qy is
    dctn(f, type=2, norm="ortho") and qx @ c @ qy.T its inverse."""
    eig: np.ndarray  # DCT-II eigenvalues of A = -laplace; eig[0, 0] = 0
    eig_nomean: np.ndarray  # eig with inf at the constant mode
    qx: np.ndarray | None  # cosine bases, A = Q lam Q^T per axis; None
    qy: np.ndarray | None  # above DENSE_MAX_N


@cache
def workspace(grid):
    """The per-grid NeumannWorkspace, built once: the eigenvalue tables and,
    with both sides at most DENSE_MAX_N, the cosine bases."""
    nx, ny = grid.nx, grid.ny
    lx = (4.0 / grid.hx**2) * np.sin(np.arange(nx) * np.pi / (2 * nx)) ** 2
    ly = (4.0 / grid.hy**2) * np.sin(np.arange(ny) * np.pi / (2 * ny)) ** 2
    eig = lx[:, None] + ly[None, :]
    eig_nomean = eig.copy()
    eig_nomean[0, 0] = np.inf  # dividing by it drops the mean
    if max(nx, ny) > DENSE_MAX_N:
        return NeumannWorkspace(eig, eig_nomean, None, None)
    return NeumannWorkspace(eig, eig_nomean, _cosine_basis(nx), _cosine_basis(ny))


def tensor_solve(qx, qy, lam, f):
    """Fast diagonalisation: solve with the operator whose eigenvalue table
    is lam in the tensor eigenbasis of the orthonormal columns of qx (axis
    0) and qy (axis 1)."""
    return qx @ ((qx.T @ f @ qy) / lam) @ qy.T


def solve_neumann_direct(grid, rhs):
    """Zero-mean solution p of -laplace p = rhs for a compatible (zero-mean)
    rhs; the mean of rhs, the component A cannot reach, is dropped.

    One DCT-II pair: transform, divide by eig_nomean, whose constant mode
    is inf, transform back; as a dense tensor_solve on small grids.
    """
    ws = workspace(grid)
    if ws.qx is not None:
        return tensor_solve(ws.qx, ws.qy, ws.eig_nomean, rhs)
    coef = sfft.dctn(rhs, type=2, norm="ortho") / ws.eig_nomean
    return sfft.idctn(coef, type=2, norm="ortho")


class CGStall(GridError):
    """Conjugate gradients stopped short of its tolerance."""


class CGNonFinite(CGStall):
    """The right-hand side has a non-finite norm; no step size can help."""


def cg(apply, b, precond=None, rtol=1e-12, maxiter=None, x0=None, atol=0.0):
    """Preconditioned conjugate gradients for A x = b with A symmetric
    positive definite, on arrays of any fixed shape.  A semidefinite A
    also works when b is in its range and A maps into that range: every
    residual then stays there up to roundoff.  precond applies an SPD
    approximation of A^-1 (None: plain CG).  Without x0 the iteration
    starts at zero and skips applying A to it.  Stops at
    ||r|| <= max(rtol ||b||, atol); returns (x, iters).
    Raises CGNonFinite on a non-finite ||b||, and CGStall after maxiter
    iterations (default 20 * b.size) or on a non-positive curvature p.Ap."""
    with np.errstate(over="ignore"):  # an overflowing norm is raised below
        bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise CGNonFinite(f"CG right-hand side has non-finite norm {bnorm}")
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply(x)
    tol = max(rtol * bnorm, atol)
    rr = float(np.vdot(r, r))
    if np.sqrt(rr) <= tol:
        return x, 0
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = rr if precond is None else float(np.vdot(r, z))
    if maxiter is None:
        maxiter = 20 * b.size
    for it in range(1, maxiter + 1):
        ap = apply(p)
        pap = float(np.vdot(p, ap))
        if not pap > 0.0:
            raise CGStall(f"CG met a non-positive curvature {pap:.3g} at "
                          f"iteration {it}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rr = float(np.vdot(r, r))
        if np.sqrt(rr) <= tol:
            return x, it
        z = r if precond is None else precond(r)
        rz_new = rr if precond is None else float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise CGStall(
        f"CG failed to reach rtol={rtol} in {maxiter} iterations "
        f"(residual {np.sqrt(rr) / bnorm:.3g} relative)"
    )


def inverse_neumann(f):
    """N f: the zero-mean solution of -laplace(Nf) = f for zero-mean f."""
    vals = f.values
    scale = np.linalg.norm(vals) / np.sqrt(vals.size)
    if abs(vals.mean()) > 1e-10 * max(scale, 1e-300):
        raise MeanError(
            f"inverse_neumann needs zero-mean input, got mean {vals.mean():.3g}"
        )
    return ScalarField(f.grid, solve_neumann_direct(f.grid, vals))


# ------------------------------------------------------------------- norms

def norm_l2(f):
    return float(np.sqrt(np.sum(f.values**2) * f.grid.cell_volume))


def norm_lp(f, p):
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))


def norm_linf(f):
    return float(np.max(np.abs(f.values)))


def h1_seminorm(f):
    gx, gy = grad_arrays(f.grid, f.values)
    return float(np.sqrt((np.sum(gx**2) + np.sum(gy**2)) * f.grid.cell_volume))


def v0prime_norm(f):
    nf = inverse_neumann(f)
    val = inner(f, nf)
    return float(np.sqrt(max(val, 0.0)))


# The no-slip wall ghost: the tangential velocity beyond a wall is the
# mirror -u, so the wall shear is WALL_SHEAR u / h.
WALL_SHEAR = 2.0


def mac_component_gradients(grid, u, v):
    """Gradients of MAC components with linear no-slip wall ghosts.

    Returns (ux, uy, vx, vy): ux, vy at cell centers; uy, vx at corners.
    """
    nx, ny = grid.nx, grid.ny
    ux = (u[1:, :] - u[:-1, :]) / grid.hx
    vy = (v[:, 1:] - v[:, :-1]) / grid.hy
    uy = np.zeros((nx + 1, ny + 1))
    uy[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / grid.hy
    uy[:, 0] = WALL_SHEAR * u[:, 0] / grid.hy  # ghost u(-) = -u(0)
    uy[:, -1] = -WALL_SHEAR * u[:, -1] / grid.hy
    vx = np.zeros((nx + 1, ny + 1))
    vx[1:-1, :] = (v[1:, :] - v[:-1, :]) / grid.hx
    vx[0, :] = WALL_SHEAR * v[0, :] / grid.hx
    vx[-1, :] = -WALL_SHEAR * v[-1, :] / grid.hx
    return ux, uy, vx, vy


def mac_component_gradients_t(grid, qx, ruy, rvx, qy):
    """Exact transpose of mac_component_gradients on the interior faces:
    cell fields qx, qy and corner fields ruy, rvx back onto (au, av), with
    the same no-slip ghosts, so sum(au u) + sum(av v) equals
    sum(qx ux) + sum(ruy uy) + sum(rvx vx) + sum(qy vy) for every (u, v)
    with zero normal faces.  The normal faces of au, av are zero."""
    nx, ny = grid.nx, grid.ny
    a = qx / grid.hx
    au = np.zeros((nx + 1, ny))
    au[1:, :] += a
    au[:-1, :] -= a
    r = ruy / grid.hy
    s = np.zeros((nx + 1, ny))
    s[:, 1:] += r[:, 1:-1]
    s[:, :-1] -= r[:, 1:-1]
    s[:, 0] += WALL_SHEAR * r[:, 0]
    s[:, -1] -= WALL_SHEAR * r[:, -1]
    au += s
    au[0, :] = au[-1, :] = 0.0
    a = qy / grid.hy
    av = np.zeros((nx, ny + 1))
    av[:, 1:] += a
    av[:, :-1] -= a
    r = rvx / grid.hx
    s = np.zeros((nx, ny + 1))
    s[1:, :] += r[1:-1, :]
    s[:-1, :] -= r[1:-1, :]
    s[0, :] += WALL_SHEAR * r[0, :]
    s[-1, :] -= WALL_SHEAR * r[-1, :]
    av += s
    av[:, 0] = av[:, -1] = 0.0
    return au, av


def vector_l2(w):
    vol = w.grid.cell_volume
    return float(np.sqrt((np.sum(w.u**2) + np.sum(w.v**2)) * vol))


def vector_h1_seminorm(w):
    ux, uy, vx, vy = mac_component_gradients(w.grid, w.u, w.v)
    vol = w.grid.cell_volume
    total = np.sum(ux**2) + np.sum(uy**2) + np.sum(vx**2) + np.sum(vy**2)
    return float(np.sqrt(total * vol))


# ------------------------------------------------------------------ field IO

_MAGIC = b"NLCHFLD1"


def write_snapshot(path, arr, grid, time=0.0):
    """Flat binary snapshot: magic, shape, spacings, time, row-major float64."""
    arr = np.ascontiguousarray(arr, dtype=float)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqddd", arr.shape[0], arr.shape[1],
                             grid.hx, grid.hy, time))
        fh.write(arr.tobytes())


def read_snapshot(path):
    """Inverse of write_snapshot; GridError on a wrong magic, a short header
    or a payload whose size does not match the header's shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise GridError(f"not a field snapshot: {path}")
    if len(blob) < 48:
        raise GridError(f"snapshot header truncated at {len(blob)} bytes: {path}")
    n0, n1, hx, hy, time = struct.unpack_from("<qqddd", blob, 8)
    if n0 < 0 or n1 < 0 or len(blob) - 48 != 8 * n0 * n1:
        raise GridError(
            f"snapshot payload of {len(blob) - 48} bytes does not match shape "
            f"({n0}, {n1}): {path}"
        )
    try:
        data = np.frombuffer(blob, dtype=float, offset=48).reshape(n0, n1)
    except ValueError:  # an empty payload with one extent past numpy's limit
        raise GridError(f"snapshot shape ({n0}, {n1}) is too large: {path}") from None
    return data.copy(), {"hx": hx, "hy": hy, "time": time}


def velocity_from_streamfunction(grid, psi):
    """Discretely divergence-free MAC field from corner stream values.

    u = d(psi)/dy, v = -d(psi)/dx; if psi is constant along each wall the
    normal faces vanish exactly and div u = 0 to roundoff by construction.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.nx + 1, grid.ny + 1):
        raise GridError("stream values must live on corners")
    with np.errstate(over="ignore"):  # VectorField rejects what overflows
        u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
        v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    scale = max(np.abs(u).max(), np.abs(v).max(), 1e-300)
    wall = max(np.abs(u[0]).max(), np.abs(u[-1]).max(),
               np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max())
    if wall > 1e-12 * scale:
        raise GridError(
            "stream values must be constant along each wall "
            f"(normal leak {wall:.3g} vs interior scale {scale:.3g})"
        )
    # wall faces are constrained, pin the roundoff leftovers to exact zero
    u[0] = u[-1] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return VectorField(grid, u, v)
