"""Periodic grids, spectral fields, and Fourier calculus.

Fields live on uniform grids over [0, L1) x [0, L2) (or an interval in 1D)
with full complex spectra in numpy fft layout; every public spectrum
(SpectralField.hat, the DiagState movers) is full.  One transform pair,
rfftn/irfftn, serves both layouts: the rfftn half lattice (last axis
0..n/2) carries all of a real field's spectrum.  GridSpec.fft extends it to
the full spectrum (Hermitian bitwise), or stops there with half=True;
ifft_real reads a full spectrum on its half lattice only.  GridSpec.half
slices the half lattice out of a full array, and extend_half rebuilds a
full spectrum from half ones.  The mover stages and every real product run
on the half lattice: GridSpec.product_hat is the one product kernel, used
by the mover forcing and the energy layer alike.  On the half lattice, fft,
ifft_real and product_hat take an optional out= array (numpy >= 2.0
transforms write it directly); the IF-RK4 stages pass the buffers of their
thread's workspace, which bfdsim.evolution owns, and every call without
out= returns a fresh array.  The wavenumbers are xi_j = 2*pi*k_j/L_j for integer k_j.
Quadrature on the torus is the rectangle rule, which is exact for
band-limited integrands, and Parseval takes the form
integral |u|^2 dx = (cell/N) * sum |u_hat|^2.
The operators on fields are gradient, divergence and dealias (the
two-thirds truncation); every other multiplier multiplies a spectrum
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ParameterDomainError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid in one or two dimensions.

    n and length are per-axis tuples.  Axis sizes must be even so the
    Nyquist mode and the two-thirds dealias cutoff are unambiguous.
    """

    n: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, tuple):
            object.__setattr__(self, "n", tuple(int(m) for m in np.atleast_1d(self.n)))
        if not isinstance(self.length, tuple):
            object.__setattr__(self, "length", tuple(float(L) for L in np.atleast_1d(self.length)))
        if len(self.n) not in (1, 2):
            raise ParameterDomainError(f"dim must be 1 or 2, got {len(self.n)}")
        if len(self.length) != len(self.n):
            raise ParameterDomainError("n and length must have the same length")
        for m in self.n:
            if m < 4 or m % 2:
                raise ParameterDomainError(f"axis size must be even and >= 4, got {m}")
        for L in self.length:
            if L <= 0.0:
                raise ParameterDomainError(f"axis length must be > 0, got {L}")

    @classmethod
    def square(cls, n: int, length: float, dim: int = 2) -> "GridSpec":
        return cls(n=(n,) * dim, length=(length,) * dim)

    @property
    def dim(self) -> int:
        return len(self.n)

    @cached_property
    def npoints(self) -> int:
        return int(np.prod(self.n))

    @cached_property
    def dx(self) -> tuple[float, ...]:
        return tuple(L / m for L, m in zip(self.length, self.n))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.length))

    @cached_property
    def x(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays, open at the right endpoint."""
        return tuple(np.arange(m) * (L / m) for m, L in zip(self.n, self.length))

    @cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.x, indexing="ij", sparse=False))

    @cached_property
    def xi(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers in fft order."""
        return tuple(TWO_PI * np.fft.fftfreq(m, d=L / m)
                     for m, L in zip(self.n, self.length))

    @cached_property
    def xi_mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable wavenumber component arrays."""
        return tuple(np.meshgrid(*self.xi, indexing="ij", sparse=True))

    @cached_property
    def abs2_xi(self) -> np.ndarray:
        out = np.zeros(self.n)
        for comp in self.xi_mesh:
            out = out + comp**2
        return out

    @cached_property
    def abs_xi(self) -> np.ndarray:
        return np.sqrt(self.abs2_xi)

    @cached_property
    def unit_xi(self) -> tuple[np.ndarray, ...]:
        """xi/|xi| componentwise, zero at the origin."""
        safe = np.where(self.abs_xi == 0.0, 1.0, self.abs_xi)
        return tuple(np.broadcast_to(comp, self.n) / safe for comp in self.xi_mesh)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule: keep integer modes with |k_j| <= floor(n_j/3)."""
        mask = np.ones(self.n, dtype=bool)
        grids = np.meshgrid(
            *[np.rint(np.fft.fftfreq(m) * m).astype(int) for m in self.n],
            indexing="ij", sparse=True,
        )
        for m, k in zip(self.n, grids):
            mask &= np.abs(k) <= m // 3
        return mask

    @cached_property
    def half(self) -> tuple[slice, ...]:
        """Index of the rfftn half lattice (last axis 0..n/2) in a full array."""
        return (slice(None),) * (self.dim - 1) + (slice(0, self.n[-1] // 2 + 1),)

    # transforms -----------------------------------------------------------

    def fft(self, values: np.ndarray, half: bool = False, out=None) -> np.ndarray:
        """Full spectrum of real values, or its half lattice when half is set.

        out, if given, is a half-lattice complex array that receives the
        half spectrum (and is returned); it serves half=True only.  The
        full spectrum is the half one extended, so it is Hermitian bitwise."""
        hat = np.fft.rfftn(values, out=out)
        return hat if half else self.extend_half(hat, hat)

    def ifft(self, hat: np.ndarray) -> np.ndarray:
        """Complex values of a full spectrum; only perfbench/spans.py uses it."""
        return np.fft.ifftn(hat)

    def ifft_real(self, hat: np.ndarray, out=None) -> np.ndarray:
        """Real values of a full spectrum, or of a half one (last axis n/2+1).

        A full spectrum is read on its half lattice only (no package caller
        passes a non-Hermitian one); out, if given, receives the values."""
        if hat.shape[-1] == self.n[-1]:
            hat = hat[self.half]
        return np.fft.irfftn(hat, s=self.n, axes=tuple(range(self.dim)), out=out)

    def product_hat(self, values: np.ndarray, out=None) -> np.ndarray:
        """Half-lattice spectrum of a real product, truncated by the
        two-thirds rule; extend_half(h, h) gives the full spectrum.

        out, if given, is a half-lattice complex array that receives it."""
        hat = self.fft(values, half=True, out=out)
        return np.multiply(hat, self.dealias_mask[self.half], out=hat)

    def extend_half(self, hat_p: np.ndarray, hat_m: np.ndarray) -> np.ndarray:
        """Full spectrum F from half-lattice spectra with F(-xi) = conj hat_m(xi).

        F equals hat_p on the last-axis modes 0..n/2, except in the two
        self-conjugate columns 0 and n/2 of a 2-D grid, where the rows
        k_1 < 0 come from hat_m like every other mode off the half lattice.
        Pass hat_m = hat_p for a Hermitian spectrum, or the partner mover
        for Z+- (Z+(-xi) = conj Z-(xi)).
        """
        m = self.n[-1] // 2
        full = np.empty(self.n, dtype=np.complex128)
        full[..., :m + 1] = hat_p
        # -xi reverses the last axis, and in 2-D the rows k_1 != 0; basic
        # slices and out= keep this cheap on the small grids of the studies
        tail = full[..., m + 1:]
        if self.dim == 1:
            np.conjugate(hat_m[m - 1:0:-1], out=tail)
        else:
            k = self.n[0] // 2
            np.conjugate(hat_m[:1, m - 1:0:-1], out=tail[:1])
            np.conjugate(hat_m[:0:-1, m - 1:0:-1], out=tail[1:])
            np.conjugate(hat_m[k - 1:0:-1, ::m], out=full[k + 1:, ::m])
        return full

    # quadrature -----------------------------------------------------------

    def integral(self, values: np.ndarray) -> float:
        """Rectangle-rule integral over the torus (exact when band-limited)."""
        return self.cell_volume * float(np.sum(values))

    def spectral_l2_sq(self, hat: np.ndarray, weight=None) -> float:
        """integral over the torus of |u|^2, evaluated from the spectrum.

        weight, if given, multiplies |u_hat|^2 mode by mode.
        """
        mag = (hat.real**2 + hat.imag**2)
        if weight is not None:
            mag = mag * weight
        return self.cell_volume / self.npoints * float(np.sum(mag))

    def is_hermitian(self, hat: np.ndarray, tol: float = 1e-12) -> bool:
        """True when the spectrum is conjugate-symmetric (real field)."""
        refl = hat
        for ax in range(hat.ndim):
            refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
        scale = np.max(np.abs(hat))
        if scale == 0.0:
            return True
        return bool(np.max(np.abs(hat - np.conj(refl))) <= tol * scale)


class SpectralField:
    """Scalar field carrying real values and spectrum in lockstep.

    One representation is authoritative at a time; the other is computed on
    demand and cached.  Arrays returned by .values / .hat are owned by the
    field and must not be mutated in place.
    """

    __slots__ = ("grid", "_real", "_hat")

    def __init__(self, grid: GridSpec, real=None, hat=None):
        if (real is None) == (hat is None):
            raise ValueError("exactly one of real or hat must be given")
        self.grid = grid
        if real is not None:
            real = np.asarray(real, dtype=np.float64)
            if real.shape != grid.n:
                raise GridMismatchError(f"values shape {real.shape} != grid {grid.n}")
        if hat is not None:
            hat = np.asarray(hat, dtype=np.complex128)
            if hat.shape != grid.n:
                raise GridMismatchError(f"spectrum shape {hat.shape} != grid {grid.n}")
        self._real = real
        self._hat = hat

    @classmethod
    def from_real(cls, grid: GridSpec, values) -> "SpectralField":
        return cls(grid, real=np.array(values, dtype=np.float64, copy=True))

    @classmethod
    def from_spectral(cls, grid: GridSpec, hat) -> "SpectralField":
        return cls(grid, hat=np.array(hat, dtype=np.complex128, copy=True))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, real=np.zeros(grid.n))

    @property
    def values(self) -> np.ndarray:
        if self._real is None:
            self._real = self.grid.ifft_real(self._hat)
        return self._real

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = self.grid.fft(self._real)
        return self._hat

    def copy(self) -> "SpectralField":
        f = SpectralField.__new__(SpectralField)
        f.grid = self.grid
        f._real = None if self._real is None else self._real.copy()
        f._hat = None if self._hat is None else self._hat.copy()
        return f

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, hat=self.hat + other.hat)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, hat=self.hat - other.hat)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, hat=self.hat * scalar)

    __rmul__ = __mul__


def _check_same_grid(*fields):
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


def dealias(field: SpectralField) -> SpectralField:
    """Zero all modes beyond the two-thirds cutoff.  Idempotent."""
    return SpectralField(field.grid, hat=field.hat * field.grid.dealias_mask)


def gradient(field: SpectralField) -> tuple[SpectralField, ...]:
    grid = field.grid
    return tuple(SpectralField(grid, hat=1j * xi * field.hat)
                 for xi in grid.xi_mesh)


def divergence(vec: tuple[SpectralField, ...]) -> SpectralField:
    grid = _check_same_grid(*vec)
    if len(vec) != grid.dim:
        raise GridMismatchError(f"need {grid.dim} components, got {len(vec)}")
    out = np.zeros(grid.n, dtype=np.complex128)
    for xi, comp in zip(grid.xi_mesh, vec):
        out = out + 1j * xi * comp.hat
    return SpectralField(grid, hat=out)
