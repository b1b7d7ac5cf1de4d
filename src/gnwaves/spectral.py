"""Periodic collocation grid and diagonal Fourier-multiplier calculus.

Fields are plain 1-D float arrays sampled on a :class:`Grid`; every operation
takes the grid explicitly. Transforms use the real-to-complex FFT, so symbols
are evaluated on the nonnegative wavenumber ladder ``grid.k`` and must be
even, real functions of k for the output to stay real.

``grid.ik`` is the derivative ladder: ik with the Nyquist entry zeroed;
the odd symbol ik has no real representative there, and keeping it would
leak a spurious imaginary part.

No dealiasing happens here; callers that want the 2/3 rule multiply the
spectrum by ``dealias_mask``.

Every transform of the package goes through one pair, :func:`rfft` and
:func:`irfft`. They call the pocketfft ufuncs that ``np.fft.rfft`` and
``np.fft.irfft`` end up calling, with the same normalisation factors, so
every value is bit for bit ``np.fft``'s, without its per-call argument
handling (most of the cost of an n = 512 transform). Package callers look the
pair up on this module at call time (``spectral.rfft(...)``), so a tracer or
counter rebinds two attributes; the Lawson frame changes of
``timestepper.ModeRotation`` do too. No module of the package calls
``np.fft``.
"""

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import CorruptFieldError, ValidationError

__all__ = [
    "Grid",
    "rfft",
    "irfft",
    "mode_amplitudes",
    "dealias_mask",
    "is_power_of_two",
]


def is_power_of_two(n):
    """True when the int n is 1, 2, 4, 8, ..."""
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid on [-half_length, half_length).

    Nodes are x_j = -L/2 + j*L/n and the wavenumber ladder is k_m = 2*pi*m/L
    for m = 0..n/2 (real-transform storage; the last entry is the Nyquist
    wavenumber pi*n/L). ``ik`` is the derivative symbol on that ladder, with
    the Nyquist entry zeroed.
    """

    __slots__ = ("n", "half_length", "length", "dx", "x", "k", "ik", "nyquist")

    def __init__(self, n, half_length):
        if not isinstance(n, (int, np.integer)) or not is_power_of_two(int(n)) or n < 8:
            raise ValidationError("n", f"grid size must be a power of two >= 8, got {n!r}")
        if not (np.isfinite(half_length) and half_length > 0):
            raise ValidationError("half_length", f"must be finite and positive, got {half_length!r}")
        self.n = int(n)
        self.half_length = float(half_length)
        self.length = 2.0 * self.half_length
        self.dx = self.length / self.n
        self.x = -self.half_length + self.dx * np.arange(self.n)
        self.k = (2.0 * np.pi / self.length) * np.arange(self.n // 2 + 1)
        self.ik = 1j * np.append(self.k[:-1], 0.0)
        self.nyquist = float(self.k[-1])

    def __repr__(self):
        return f"Grid(n={self.n}, half_length={self.half_length})"


def rfft(f, out=None):
    """``np.fft.rfft(f)`` along the last axis, bit for bit; that axis must
    have even length (a :class:`Grid` guarantees it). Writes into ``out``,
    shape ``f.shape[:-1] + (n//2 + 1,)`` complex, when given."""
    if out is None:
        out = np.empty(f.shape[:-1] + (f.shape[-1] // 2 + 1,), dtype=complex)
    return _pocketfft.rfft_n_even(f, 1, out=out)


def irfft(f_hat, n, out=None):
    """``np.fft.irfft(f_hat, n)`` along the last axis, bit for bit (the
    default normalisation 1/n). Writes into ``out``, shape
    ``f_hat.shape[:-1] + (n,)`` float, when given."""
    if out is None:
        out = np.empty(f_hat.shape[:-1] + (n,))
    return _pocketfft.irfft(f_hat, 1.0 / n, out=out)


def _check_field(grid, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise ValidationError("field", f"expected shape ({grid.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise CorruptFieldError("field contains non-finite values")
    return f


def mode_amplitudes(grid, f):
    """|f_hat(k)| on the nonnegative ladder, normalized so that a
    unit-amplitude single mode has amplitude 1/2."""
    f = _check_field(grid, f)
    return np.abs(rfft(f)) / grid.n


def dealias_mask(grid):
    """2/3-rule symbol: 1 on modes |m| <= n/3, 0 above."""
    m = np.arange(grid.n // 2 + 1)
    return (m <= grid.n // 3).astype(float)
