"""Periodic grids, spectral fields, and Fourier calculus.

Fields live on uniform grids over [0, L1) x [0, L2) (or an interval in 1D).
One transform pair, rfftn/irfftn, serves two layouts.  The first is the
rfftn half lattice (last axis 0..n/2), which carries all of a real field's
spectrum: every spectrum the package holds lives there (SpectralField.hat,
the symbol tables, the norm weights, the DiagState movers), as do the
wavenumber arrays xi_mesh, abs2_xi, abs_xi, unit_xi and dealias_mask.  A
mode xi off it is the mirror image of -xi on it, so a sum over the whole
lattice of a quantity even in xi counts the columns strictly inside
(0, n/2) twice and the self-conjugate columns 0 and n/2 once
(GridSpec.hermitian_sum).  Those two columns hold both xi and -xi; the
spectrum of a real field is conjugate-symmetric there, and
SpectralField.hat makes it so bitwise (GridSpec.pair_columns).  The last
axis keeps fftfreq's sign of the Nyquist wavenumber, -n/2.

The second layout is the two-thirds band, the part of the half lattice that
the two-thirds rule keeps: rows |k_0| <= n_0/3 (the rows k_0 >= 0, then the
rows k_0 < 0, as two blocks) by columns 0..n_1/3, and 0..n/3 in 1D; it is
44 % of the half lattice at 256^2.  The IF-RK4 stepper at eps != 0 runs on
it (see bfdsim.evolution).  GridSpec.band gathers it from a half-lattice
array.  Given a band spectrum (told apart by its shape,
GridSpec.band_shape), fft and ifft_real run the 1-D passes that rfftn and
irfftn are made of, with the axis-0 pass on the band's columns only: the
forward transform computes every row of them and keeps the band's, and
the inverse skips the all-zero columns past n_1/3.  On band limited input
both are bitwise equal to rfftn (masked) and irfftn on the half lattice.

The mover stages and every real product run on the half lattice or the
band: GridSpec.product_hat is the one product kernel, used by the mover
forcing and the energy layer alike.

fft, ifft_real and product_hat also take a stack of fields, an array
with one leading axis, on the half lattice or on the band, and return
one.  On a grid of at most STACK_MAX_POINTS points the stack is one
transform call over the grid axes; above it they loop over the leading
axis, one call per field into a slice of the result (on the band with one
field's scratch).  Both ways are bitwise equal to per-field calls.  The
threshold is fixed: it is the size-dependent choice a planner makes
(Frigo & Johnson, "The design and implementation of FFTW3", Proc. IEEE
2005), without timing anything at run time.  Band transforms of 3 fields
into reused out= buffers, per-field calls against one stacked call, best
of 10 on a 2-vCPU Intel Xeon KVM guest with numpy 2.4.6 (pocketfft), in
microseconds:

    grid   inverse       forward
    32^2    47 -> 24      38 -> 20
    64^2    79 -> 55      65 -> 46
    128^2  198 -> 170    165 -> 147
    256^2  748 -> 773    636 -> 670

At 128^2 the band stack still wins a little, but half-lattice stacks
with fresh outputs already lose there (420 -> 680 us for 3 rfftn), and a
stacked scratch costs (count - 1) half-lattice arrays; one threshold
serves both layouts.  The energy layer stacks its operands and products
(bfdsim.energy), and each IF-RK4 stage its fields and its products
(bfdsim.evolution).  On the band, fft, ifft_real and product_hat take an
optional out= array (numpy >= 2.0 transforms write it directly) and a
work= scratch array (GridSpec.band_work); the IF-RK4 stages pass the
buffers of their thread's workspace, which bfdsim.evolution owns, and
every other call returns a fresh array.
The wavenumbers are xi_j = 2*pi*k_j/L_j for integer k_j.
Quadrature on the torus is the rectangle rule, which is exact for
band-limited integrands, and Parseval takes the form
integral |u|^2 dx = (cell/N) * sum |u_hat|^2, the sum over the whole
lattice, which is hermitian_sum over the half lattice.
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

# a stack of fields on a grid of at most this many points is transformed in
# one call, on a larger grid one field at a time (see the module docstring)
STACK_MAX_POINTS = 64 * 64


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
        """Broadcastable wavenumber component arrays on the half lattice:
        xi with its last axis cut to the entries 0..n/2."""
        return tuple(np.meshgrid(*self.xi[:-1], self.xi[-1][:self.half_shape[-1]],
                                 indexing="ij", sparse=True))

    @cached_property
    def abs2_xi(self) -> np.ndarray:
        out = np.zeros(self.half_shape)
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
        return tuple(np.broadcast_to(comp, self.half_shape) / safe for comp in self.xi_mesh)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule: keep integer modes with |k_j| <= floor(n_j/3)."""
        mask = np.ones(self.half_shape, dtype=bool)
        for m, k in zip(self.n, np.meshgrid(*self.k_axes, indexing="ij", sparse=True)):
            mask &= np.abs(k) <= m // 3
        return mask

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis integer wavenumbers of the half lattice, in fft order."""
        k = [np.rint(np.fft.fftfreq(m) * m) for m in self.n]
        return (*k[:-1], k[-1][:self.half_shape[-1]])

    @cached_property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the rfftn half lattice: n with its last axis n/2 + 1."""
        return self.n[:-1] + (self.n[-1] // 2 + 1,)

    @cached_property
    def band_shape(self) -> tuple[int, ...]:
        """Shape of the two-thirds band: (2*(n_0//3) + 1, n_1//3 + 1) in 2D,
        (n//3 + 1,) in 1D."""
        return tuple(2 * (m // 3) + 1 for m in self.n[:-1]) + (self.n[-1] // 3 + 1,)

    @cached_property
    def band_blocks(self) -> tuple[tuple[tuple, tuple], ...]:
        """(band index, lattice index) pairs: band[b] holds lattice[f] for a
        half-lattice array, leading (stacking) axes included.  One
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

    @cached_property
    def band_unit_xi(self) -> tuple[np.ndarray, ...]:
        """The components of unit_xi on the two-thirds band."""
        return tuple(self.band(u) for u in self.unit_xi)

    def band(self, arr: np.ndarray, out=None) -> np.ndarray:
        """The two-thirds band of a half-lattice array, into out if given;
        leading axes are kept."""
        if out is None:
            out = np.empty(arr.shape[:arr.ndim - self.dim] + self.band_shape, dtype=arr.dtype)
        for b, f in self.band_blocks:
            out[b] = arr[f]
        return out

    def band_work(self, count: int = 1) -> np.ndarray:
        """Scratch of the band transforms (the work= of fft and ifft_real)
        of a stack of count fields, or of one field: a half-lattice array
        for each field that one transform call takes, so (count,) +
        half_shape on a grid of at most STACK_MAX_POINTS points and
        half_shape above it, where a stack goes one field per call.  The
        forward passes overwrite it whole; the inverse passes zero what
        they read past the band before writing the band into it."""
        lead = (count,) if count > 1 and self.npoints <= STACK_MAX_POINTS else ()
        return np.empty(lead + self.half_shape, dtype=np.complex128)

    # transforms -----------------------------------------------------------

    def fft(self, values: np.ndarray, out=None, work=None) -> np.ndarray:
        """Half-lattice spectrum of real values (rfftn), or of each of a
        stack of them (one leading axis), transformed as the module
        docstring says.

        out, if given, is a band_shape array (a stack of them for a stack)
        that receives the band instead, with the scratch work (band_work,
        fresh if not given): rfft along the last axis, then fft along axis
        0 of the band's columns only, of which the band keeps the rows of
        its two blocks.  That is rfftn's own sequence of passes, so the band
        is bitwise the band of rfftn's output."""
        if out is None:
            if values.ndim > self.dim:
                return self._stacked(np.fft.rfftn, values, self.half_shape, np.complex128)
            return np.fft.rfftn(values)
        return self._band_passes(self._band_fft, values, out, work)

    def ifft(self, hat: np.ndarray) -> np.ndarray:
        """Complex values of a spectrum in numpy's fftn layout.

        No package code calls it.  It stays because perfbench/spans.py
        looks it up in GridSpec.__dict__ to wrap it, so deleting it breaks
        the benchmark's tracer and perfbench/smoke.py."""
        return np.fft.ifftn(hat)

    def ifft_real(self, hat: np.ndarray, out=None, work=None) -> np.ndarray:
        """Real values of a half-lattice spectrum or of a band one
        (band_shape), or of each of a stack of either (one leading axis),
        transformed as the module docstring says.

        A band spectrum takes irfftn's passes, into out if given, with the
        scratch work (band_work, fresh if not given): in 2D, ifft along
        axis 0 of the band's columns (the zero rows between its blocks
        filled in), then irfft along the last axis of a half lattice that
        is zero past them; in 1D, irfft pads the band with zeros itself.
        On band limited spectra this is bitwise irfftn of the half
        lattice."""
        # the last axis tells the layouts apart: n/2 + 1 or n/3 + 1
        if hat.shape[-1] != self.band_shape[-1]:
            if hat.ndim == self.dim:
                return np.fft.irfftn(hat, s=self.n, axes=tuple(range(self.dim)))
            return self._stacked(np.fft.irfftn, hat, self.n, np.float64, s=self.n)
        if out is None:
            out = np.empty(hat.shape[:hat.ndim - self.dim] + self.n)
        return self._band_passes(self._band_ifft, hat, out, work)

    def _band_passes(self, passes, arrs: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """passes (_band_fft or _band_ifft) from arrs into out, for one
        field or a stack: one call on a grid of at most STACK_MAX_POINTS
        points, else one call per field into a slice of out, sharing one
        field's scratch."""
        stack = arrs.ndim > self.dim
        if work is None:
            work = self.band_work(len(arrs) if stack else 1)
        if stack and self.npoints > STACK_MAX_POINTS:
            for field, dest in zip(arrs, out):
                passes(field, dest, work)
            return out
        return passes(arrs, out, work)

    def _band_fft(self, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        hat = np.fft.rfft(values, axis=-1, out=work)[..., :self.band_shape[-1]]
        if self.dim == 2:
            np.fft.fft(hat, axis=-2, out=hat)
        return self.band(hat, out=out)

    def _band_ifft(self, hat: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return np.fft.irfft(hat, n=self.n[0], out=out)
        k, c = self.n[0] // 3, self.band_shape[-1]
        work[..., c:] = 0.0
        work[..., k + 1:self.n[0] - k, :c] = 0.0
        for b, f in self.band_blocks:
            work[f] = hat[b]
        cols = work[..., :c]
        np.fft.ifft(cols, axis=-2, out=cols)
        return np.fft.irfft(work, n=self.n[1], axis=-1, out=out)

    def _stacked(self, transform, stack: np.ndarray, shape: tuple, dtype, **kw) -> np.ndarray:
        """transform (np.fft.rfftn or irfftn) of every field of a stack over
        the grid axes; shape and dtype are those of one field's result.  One
        call on a grid of at most STACK_MAX_POINTS points, else one call per
        field into a slice of one array."""
        if self.npoints <= STACK_MAX_POINTS:
            return transform(stack, axes=tuple(range(1, self.dim + 1)), **kw)
        out = np.empty(stack.shape[:1] + shape, dtype=dtype)
        axes = tuple(range(self.dim))
        for field, dest in zip(stack, out):
            transform(field, axes=axes, out=dest, **kw)
        return out

    def product_hat(self, values: np.ndarray, out=None, work=None) -> np.ndarray:
        """Half-lattice spectrum of a real product, or of each of a stack
        of them, truncated by the two-thirds rule.

        out, if given, is a band_shape array (a stack of them for a stack)
        that receives the band (the modes the rule keeps) instead, with the
        scratch work of fft."""
        hat = self.fft(values, out=out, work=work)
        if out is None:
            hat *= self.dealias_mask
        return hat

    def pair_columns(self, dest: np.ndarray, src: np.ndarray) -> None:
        """Set dest(-xi) = conj src(xi) in place on the self-conjugate
        columns 0 and n/2 of a 2-D half lattice, for the rows k_0 =
        -n_0/2+1..-1 (in 1D those columns are the single modes 0 and n/2,
        and nothing is set).

        With src = dest the columns become conjugate-symmetric bitwise, as
        a real field's spectrum is; with the partner mover as src, Z+(-xi)
        = conj Z-(xi) holds bitwise there."""
        if self.dim == 2:
            k, m = self.n[0] // 2, self.n[1] // 2
            np.conjugate(src[k - 1:0:-1, ::m], out=dest[k + 1:, ::m])

    # quadrature -----------------------------------------------------------

    def integral(self, values: np.ndarray) -> float:
        """Rectangle-rule integral over the torus (exact when band-limited)."""
        return self.cell_volume * float(np.sum(values))

    def spectral_l2_sq(self, hat: np.ndarray, weight=None) -> float:
        """integral over the torus of |u|^2, evaluated from the half-lattice
        spectrum of a real u.

        weight, if given, multiplies |u_hat|^2 mode by mode; it must be even
        in xi, as every norm weight is.
        """
        return self.abs2_l2_sq(hat.real**2 + hat.imag**2, weight)

    def abs2_l2_sq(self, abs2: np.ndarray, weight=None) -> float:
        """spectral_l2_sq of a spectrum given as its |u_hat|^2 array."""
        if weight is not None:
            abs2 = abs2 * weight
        return self.cell_volume / self.npoints * self.hermitian_sum(abs2)

    def hermitian_sum(self, arr: np.ndarray) -> float:
        """Sum over the whole lattice of a real quantity even in xi, from
        its half lattice arr: 2*sum(arr) - sum(columns 0 and n/2).  Every
        column strictly inside (0, n/2) stands for itself and its mirror
        image, and the self-conjugate columns for themselves."""
        return float(2.0 * arr.sum() - arr[..., ::self.n[-1] // 2].sum())

    def is_hermitian(self, hat: np.ndarray, tol: float = 1e-12) -> bool:
        """True when the half-lattice spectrum is that of a real field: its
        self-conjugate columns 0 and n/2 are conjugate-symmetric (in 1D,
        the modes 0 and n/2 are real).  Every other mode's mirror image
        lies off the half lattice."""
        scale = np.max(np.abs(hat))
        if scale == 0.0:
            return True
        worst = 0.0
        for col in (hat[..., 0], hat[..., -1]):
            refl = col
            for ax in range(col.ndim):
                refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
            worst = max(worst, float(np.max(np.abs(col - np.conj(refl)))))
        return worst <= tol * scale


class SpectralField:
    """Scalar field carrying real values and spectrum in lockstep.

    The spectrum is the rfftn half lattice (grid.half_shape).  One
    representation is authoritative at a time; the other is computed on
    demand and cached: a spectrum computed from values has its
    self-conjugate columns made conjugate-symmetric bitwise
    (GridSpec.pair_columns).  Arrays returned by .values / .hat are owned
    by the field and must not be mutated in place.
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
            if hat.shape != grid.half_shape:
                raise GridMismatchError(f"spectrum shape {hat.shape} != half lattice "
                                        f"{grid.half_shape} of grid {grid.n}")
        self._real = real
        self._hat = hat

    @classmethod
    def from_real(cls, grid: GridSpec, values) -> "SpectralField":
        return cls(grid, real=np.array(values, dtype=np.float64, copy=True))

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
            hat = self.grid.fft(self._real)
            self.grid.pair_columns(hat, hat)
            self._hat = hat
        return self._hat

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, hat=self.hat + other.hat)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, hat=self.hat - other.hat)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, hat=self.hat * scalar)

    __rmul__ = __mul__


def field_values(fields) -> list[np.ndarray]:
    """The .values of fields on one grid.  On a grid of at most
    STACK_MAX_POINTS points those not cached yet are inverse-transformed in
    one stacked ifft_real call, and cached; on a larger one each field's
    .values transforms it, with no stack to copy the spectra into."""
    todo = [f for f in fields if f._real is None]
    if len(todo) > 1 and todo[0].grid.npoints <= STACK_MAX_POINTS:
        grid = todo[0].grid
        stack = np.stack([f._hat for f in todo])
        for f, values in zip(todo, grid.ifft_real(stack)):
            f._real = values
    return [f.values for f in fields]


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
    out = np.zeros(grid.half_shape, dtype=np.complex128)
    for xi, comp in zip(grid.xi_mesh, vec):
        out = out + 1j * xi * comp.hat
    return SpectralField(grid, hat=out)
