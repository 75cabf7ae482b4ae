"""Interaction kernels, the coefficient field a(x), and restricted convolution.

Two even, nonnegative families are shipped, both parametrized by a width and
an amplitude normalization fixing the whole-plane L1 mass:

  - gaussian:          J(r) = m / (2 pi s^2) exp(-r^2 / (2 s^2)), cut at 6s
  - compact-mollifier: J(r) = 4 m / (pi R^2) (1 - r^2/R^2)^3 on r < R, C^2

The convolution is restricted to the domain: (J*phi)(x) = sum_y h^2
J(x - y) phi(y) over cells y, no periodic wraparound.  It is evaluated with
numpy.fft's real FFTs against a tabulated displacement table J(x_i - y_k),
2n - 1 entries per axis, zero-padded to fast_len(2n - 1): the first
length with no prime factor above 11 (scipy.fft.next_fast_len's rule) at
or past 2n - 1, the shortest at which the circular wrap misses the n
restricted outputs.  This makes the fast path equal to a fixed-quadrature
direct sum up to FFT roundoff, and keeps scipy.fft out of every grid
within grid_ops.DENSE_MAX_N.  The coefficient field a(x) = (J * 1)(x) is
produced by the same code path at build time, so the constant-state
identity

    a c - J * c + F'(c) = F'(c)

holds to machine precision by construction.  Both the minimum beta = min a
(which must exceed theta_c - theta for the convex split to have a positive
surplus) and directional discrete total variations of J (which majorize the
face differences of J * phi, giving a grid-level Young inequality) are
computed here once and frozen into the kernel data.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import ifft, irfft, rfft2

from .grid_ops import Grid, ScalarField

FAMILIES = ("gaussian", "compact-mollifier")

GAUSSIAN_CUTOFF_SIGMAS = 6.0


class KernelError(Exception):
    pass


class KernelResolutionError(KernelError):
    """Grid spacing does not resolve the kernel width."""


class KernelAssumptionError(KernelError):
    """Coefficient field a = J * 1 not positive: beta = min a <= 0."""


@dataclass(frozen=True)
class KernelSpec:
    family: str
    width: float
    j_l1: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelError(
                f"unknown kernel family {self.family!r}, expected one of {FAMILIES}"
            )
        if not (self.width > 0 and np.isfinite(self.width * self.width)):
            raise KernelError(f"kernel width must be positive and its square "
                              f"finite, got {self.width}")
        with np.errstate(over="ignore"):
            if not (self.j_l1 > 0 and np.isfinite(self.grad_l1_continuum())):
                raise KernelError(f"L1 mass {self.j_l1} at width {self.width} must "
                                  f"be positive with a finite gradient norm")

    @property
    def support_radius(self):
        if self.family == "gaussian":
            return GAUSSIAN_CUTOFF_SIGMAS * self.width
        return self.width

    def profile(self, r):
        """Radial profile J(r), vectorized, zero outside the support."""
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            s2 = self.width**2
            vals = (self.j_l1 / (2.0 * np.pi * s2)) * np.exp(-0.5 * r**2 / s2)
            return np.where(r <= self.support_radius, vals, 0.0)
        rr = self.width
        core = 1.0 - (r / rr) ** 2
        vals = (4.0 * self.j_l1 / (np.pi * rr**2)) * np.maximum(core, 0.0) ** 3
        return vals

    def grad_l1_continuum(self):
        """Closed-form L1 norm of the kernel gradient over the plane."""
        if self.family == "gaussian":
            return self.j_l1 * np.sqrt(np.pi / 2.0) / self.width
        return 128.0 * self.j_l1 / (35.0 * self.width)

    def grad_directional_l1_continuum(self):
        """Closed-form integral of |dJ/dx| (one direction); equals
        (2/pi) times the full gradient L1 norm for radial kernels."""
        return (2.0 / np.pi) * self.grad_l1_continuum()


@dataclass
class KernelData:
    spec: KernelSpec
    grid: Grid
    Jtab: np.ndarray
    a_field: ScalarField
    beta: float
    a_inf: float
    j_l1_discrete: float
    grad_j_l1: float
    tv_x: float
    tv_y: float
    _fshape: tuple = field(repr=False, default=None)
    _jhat: np.ndarray = field(repr=False, default=None)

    def convolve_raw(self, arr):
        nx, ny = self.grid.nx, self.grid.ny
        f = rfft2(arr, self._fshape)
        f *= self._jhat
        # irfft2, with its last stage run on the nx kept rows only: each
        # row's transform is unchanged, bit for bit
        rows = ifft(f, axis=0)[nx - 1: 2 * nx - 1]
        out = irfft(rows, self._fshape[1], axis=1)[:, ny - 1: 2 * ny - 1]
        return out * self.grid.cell_volume

    def report(self):
        return {
            "family": self.spec.family,
            "width": self.spec.width,
            "j_l1_configured": self.spec.j_l1,
            "j_l1_discrete": self.j_l1_discrete,
            "beta": self.beta,
            "a_inf": self.a_inf,
            "grad_j_l1_discrete": self.grad_j_l1,
            "grad_j_l1_continuum": self.spec.grad_l1_continuum(),
        }


def fast_len(n):
    """The smallest integer >= n >= 1 with no prime factor above 11: the
    FFT length that scipy.fft.next_fast_len picks for complex input."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def build_kernel(spec, grid):
    """Tabulate J on the displacement lattice, build the FFT plan, compute
    a(x) = (J * 1)(x) through that plan, and freeze the derived scalars.

    Raises KernelError if a or the L1 mass overflows and
    KernelAssumptionError unless beta = min a > 0.  The pairing premise
    beta > theta_c - theta belongs to the potential: it is checked by
    PotentialSpec.with_beta(kd.beta).
    """
    h = max(grid.hx, grid.hy)
    if spec.width < 2.0 * h:
        raise KernelResolutionError(
            f"kernel width {spec.width:.6g} under-resolved: need width >= 2h "
            f"= {2.0 * h:.6g}"
        )
    # J on the displacement lattice padded by one step per side: the
    # interior (2n-1 entries per axis) is the convolution table, and the
    # padding covers every difference in a face gradient of J*phi
    dx = np.arange(-grid.nx, grid.nx + 1) * grid.hx
    dy = np.arange(-grid.ny, grid.ny + 1) * grid.hy
    padded = spec.profile(np.hypot(dx[:, None], dy[None, :]))
    # contiguous, as sum() over a strided view would add in another order
    jtab = padded[1:-1, 1:-1].copy()

    # the linear convolution has 3n-2 entries per axis; at a circular length
    # L >= 2n-1 the one that wraps onto output index k >= n-1 is k + L >=
    # 3n-2, past the last, so the slice [n-1, 2n-1) is alias-free
    fshape = (fast_len(2 * grid.nx - 1), fast_len(2 * grid.ny - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        jhat = rfft2(jtab, fshape)
        j_l1 = float(jtab.sum() * grid.cell_volume)

    kd = KernelData(
        spec=spec, grid=grid, Jtab=jtab, a_field=None,
        beta=np.nan, a_inf=np.nan, j_l1_discrete=j_l1,
        grad_j_l1=np.nan, tv_x=np.nan, tv_y=np.nan,
        _fshape=fshape, _jhat=jhat,
    )

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        a_vals = kd.convolve_raw(np.ones((grid.nx, grid.ny)))
    if not (np.all(np.isfinite(a_vals)) and np.isfinite(j_l1)):
        raise KernelError(f"a = J * 1 or the L1 mass of J overflows for width "
                          f"{spec.width:.6g} and L1 mass {spec.j_l1:.6g}")
    kd.a_field = ScalarField(grid, a_vals)
    kd.beta = float(a_vals.min())
    kd.a_inf = float(a_vals.max())
    if kd.beta <= 0.0:
        raise KernelAssumptionError(
            f"coefficient field must stay positive, got min a = {kd.beta:.3g}"
        )

    # sum_z h^2 |J(z + h e) - J(z)| / h per axis: the directional TV that
    # majorizes ||grad_axis (J*phi)||_L2 / ||phi||_L2
    tv = np.abs(np.diff(padded[:, 1:-1], axis=0)).sum()
    kd.tv_x = float(tv * grid.cell_volume / grid.hx)
    tv = np.abs(np.diff(padded[1:-1, :], axis=1)).sum()
    kd.tv_y = float(tv * grid.cell_volume / grid.hy)
    kd.grad_j_l1 = max(kd.tv_x, kd.tv_y)
    return kd

