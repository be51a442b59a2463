"""Periodic grids, spectral fields, and Fourier calculus.

Fields live on uniform grids over [0, L1) x [0, L2) (or an interval in 1D)
with full complex spectra in numpy fft layout; every public spectrum
(SpectralField.hat, the DiagState movers) is full.  One transform pair,
rfftn/irfftn, serves three layouts: the rfftn half lattice (last axis
0..n/2) carries all of a real field's spectrum.  GridSpec.fft extends it to
the full spectrum (Hermitian bitwise), or stops there with half=True;
ifft_real reads a full spectrum on its half lattice only.  GridSpec.half
slices the half lattice out of a full array, and extend_half rebuilds a
full spectrum from half ones.

The third layout is the two-thirds band, the part of the half lattice that
the two-thirds rule keeps: rows |k_0| <= n_0/3 (the rows k_0 >= 0, then the
rows k_0 < 0, as two blocks) by columns 0..n_1/3, and 0..n/3 in 1D; it is
44 % of the half lattice at 256^2.  The IF-RK4 stepper at eps != 0 runs on
it (see bfdsim.evolution).  GridSpec.band gathers it from a full or half
array, and extend_band rebuilds a full spectrum from band ones.  Given a
band spectrum (told apart by its shape, GridSpec.band_shape), fft and
ifft_real run the 1-D passes that rfftn and irfftn are made of, with the
axis-0 pass on the band's columns only: the forward transform computes
every row of them and keeps the band's, and the inverse skips the
all-zero columns past n_1/3.  On band limited input both are bitwise
equal to rfftn (masked) and irfftn on the half lattice.

The mover stages and every real product run on the half lattice or the
band: GridSpec.product_hat is the one product kernel, used by the mover
forcing and the energy layer alike.  On the band, fft, ifft_real and
product_hat take an optional out= array (numpy >= 2.0 transforms write it
directly) and a work= tuple of scratch arrays (GridSpec.band_work); the
IF-RK4 stages pass the buffers of their thread's workspace, which
bfdsim.evolution owns, and every other call returns a fresh array.
The wavenumbers are xi_j = 2*pi*k_j/L_j for integer k_j.
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
            if not (L > 0.0 and np.isfinite(L)):
                raise ParameterDomainError(f"axis length must be finite and > 0, got {L}")

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

    @cached_property
    def band_shape(self) -> tuple[int, ...]:
        """Shape of the two-thirds band: (2*(n_0//3) + 1, n_1//3 + 1) in 2D,
        (n//3 + 1,) in 1D."""
        return tuple(2 * (m // 3) + 1 for m in self.n[:-1]) + (self.n[-1] // 3 + 1,)

    @cached_property
    def band_blocks(self) -> tuple[tuple[tuple, tuple], ...]:
        """(band index, lattice index) pairs: band[b] holds lattice[f] for a
        full or half lattice array, leading (stacking) axes included.  One
        block in 1D; in 2D the rows k_0 = 0..n_0/3, then k_0 = -n_0/3..-1."""
        cols = slice(0, self.band_shape[-1])
        if self.dim == 1:
            return (((Ellipsis, slice(None)), (Ellipsis, cols)),)
        k = self.n[0] // 3
        return (((Ellipsis, slice(0, k + 1), slice(None)), (Ellipsis, slice(0, k + 1), cols)),
                ((Ellipsis, slice(k + 1, None), slice(None)),
                 (Ellipsis, slice(self.n[0] - k, None), cols)))

    @cached_property
    def band_xi(self) -> tuple[np.ndarray, ...]:
        """The wavenumber components of xi_mesh on the two-thirds band."""
        cols = self.band_shape[-1]
        if self.dim == 1:
            return (self.xi[0][:cols],)
        k = self.n[0] // 3
        rows = np.concatenate([self.xi[0][:k + 1], self.xi[0][self.n[0] - k:]])
        return rows[:, None], self.xi[1][None, :cols]

    def band(self, arr: np.ndarray, out=None) -> np.ndarray:
        """The two-thirds band of a full or half lattice array, into out if
        given; leading axes are kept."""
        if out is None:
            out = np.empty(arr.shape[:arr.ndim - self.dim] + self.band_shape, dtype=arr.dtype)
        for b, f in self.band_blocks:
            out[b] = arr[f]
        return out

    def band_work(self) -> tuple[np.ndarray, ...]:
        """Scratch arrays of the band transforms (the work= of fft and
        ifft_real): a half-lattice array for the forward passes, and in 2D a
        zero half-lattice array and an (n_0, n_1//3 + 1) array whose rows
        between the band's two blocks are zero, for the inverse passes.
        The transforms keep those zeros."""
        half_shape = self.n[:-1] + (self.n[-1] // 2 + 1,)
        forward = np.empty(half_shape, dtype=np.complex128)
        if self.dim == 1:
            return (forward,)
        return (forward, np.zeros(half_shape, dtype=np.complex128),
                np.zeros((self.n[0], self.band_shape[-1]), dtype=np.complex128))

    # transforms -----------------------------------------------------------

    def fft(self, values: np.ndarray, half: bool = False, out=None, work=None) -> np.ndarray:
        """Full spectrum of real values, or its half lattice when half is set.

        The full spectrum is the half one extended, so it is Hermitian
        bitwise.  out, if given, is a band_shape array that receives the
        band instead, with the scratch work (band_work, fresh if not
        given): rfft along the last axis, then fft along axis 0 of the
        band's columns only, of which the band keeps the rows of its two
        blocks.  That is rfftn's own sequence of passes, so the band is
        bitwise the band of rfftn's output."""
        if out is None:
            hat = np.fft.rfftn(values)
            return hat if half else self.extend_half(hat, hat)
        work = self.band_work() if work is None else work
        hat = np.fft.rfft(values, axis=-1, out=work[0])[..., :out.shape[-1]]
        if self.dim == 2:
            np.fft.fft(hat, axis=0, out=hat)
        return self.band(hat, out=out)

    def ifft(self, hat: np.ndarray) -> np.ndarray:
        """Complex values of a full spectrum; only perfbench/spans.py uses it."""
        return np.fft.ifftn(hat)

    def ifft_real(self, hat: np.ndarray, out=None, work=None) -> np.ndarray:
        """Real values of a full spectrum, of a half one (last axis n/2+1),
        or of a band one (band_shape).

        A full spectrum is read on its half lattice only (no package caller
        passes a non-Hermitian one).  A band spectrum takes irfftn's
        passes, into out if given, with the scratch work (band_work, fresh
        if not given): in 2D, ifft along axis 0 of the band's columns (the
        zero rows between its blocks filled in), then irfft along the last
        axis of a half lattice that is zero past them; in 1D, irfft pads
        the band with zeros itself.  On band limited spectra this is
        bitwise irfftn of the half lattice."""
        if hat.shape == self.band_shape:
            if self.dim == 1:
                return np.fft.irfft(hat, n=self.n[0], out=out)
            _, half, cols = self.band_work() if work is None else work
            for b, f in self.band_blocks:
                cols[f] = hat[b]
            np.fft.ifft(cols, axis=0, out=half[:, :cols.shape[1]])
            return np.fft.irfft(half, n=self.n[1], axis=1, out=out)
        if hat.shape[-1] == self.n[-1]:
            hat = hat[self.half]
        return np.fft.irfftn(hat, s=self.n, axes=tuple(range(self.dim)))

    def product_hat(self, values: np.ndarray, out=None, work=None) -> np.ndarray:
        """Half-lattice spectrum of a real product, truncated by the
        two-thirds rule; extend_half(h, h) gives the full spectrum.

        out, if given, is a band_shape array that receives the band (the
        modes the rule keeps) instead, with the scratch work of fft."""
        hat = self.fft(values, half=True, out=out, work=work)
        if out is None:
            hat *= self.dealias_mask[self.half]
        return hat

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

    def extend_band(self, hat_p: np.ndarray, hat_m: np.ndarray) -> np.ndarray:
        """Full spectrum F from band spectra with F(-xi) = conj hat_m(xi):
        extend_half of the half lattices that hold hat_p and hat_m on the
        band and 0 off it, so F is 0 off the band and its mirror image."""
        full = np.zeros(self.n, dtype=np.complex128)
        for b, f in self.band_blocks:
            full[f] = hat_p[b]
        c = self.band_shape[-1]
        # -xi maps the columns 1..c-1 to the last c-1 columns, and in 2-D
        # row k_0 to row -k_0: band rows 0..k hold k_0 = 0..k, rows
        # k+1..2k hold k_0 = -k..-1
        tail = full[..., self.n[-1] - c + 1:]
        if self.dim == 1:
            np.conjugate(hat_m[c - 1:0:-1], out=tail)
        else:
            k, n0 = self.n[0] // 3, self.n[0]
            np.conjugate(hat_m[0, c - 1:0:-1], out=tail[0])
            np.conjugate(hat_m[2 * k:k:-1, c - 1:0:-1], out=tail[1:k + 1])
            np.conjugate(hat_m[k:0:-1, c - 1:0:-1], out=tail[n0 - k:])
            np.conjugate(hat_m[k:0:-1, 0], out=full[n0 - k:, 0])
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
