"""Von Karman turbulence phase screens via FFT power-spectrum inversion.

Screens are synthesized by drawing complex circular Gaussian Fourier
coefficients shaped by the modified von Karman spectrum, inverse
transforming, and augmenting the missing low spatial frequencies with
3x3 subharmonic grids at spacing 1/(3^p L) per level p.

The synthesis is calibrated so that the ensemble phase power spectral
density equals 0.023 * r0**(-5/3) * (f^2 + 1/L0^2)**(-11/6)
* exp(-f^2 (2 pi l0 / 5.92)^2) in cyclic frequency, the normalization
consistent with the Kolmogorov structure function 6.88 (r/r0)**(5/3).
Taking the real part of the complex synthesis halves the power, and the
coefficient prefactor carries an extra 2**(5/6); the net amplitude
calibration applied to the real part is therefore 2**(-1/3).
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
import json
import struct

import numpy as np

# amplitude calibration of the real-part synthesis, see module docstring
SYNTHESIS_GAIN = 2.0 ** (-1.0 / 3.0)

MAGIC = b"PHSCRN01"
_HEADER = struct.Struct("<IddddQ")


@dataclass(frozen=True)
class ScreenConfig:
    """Geometry, spectrum parameters and seed for one screen ensemble."""

    fried: float
    grid_size: int = 960
    physical_length: float = 8.832e-3
    outer_scale: float = 10.0
    inner_scale: float = 1e-4
    subharmonic_levels: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grid_size < 2 or self.grid_size % 2 != 0:
            raise ValueError("grid_size must be an even integer >= 2")
        if not (0.0 < self.inner_scale < self.physical_length < self.outer_scale):
            raise ValueError(
                "require 0 < inner_scale < physical_length < outer_scale"
            )
        if self.fried <= 0.0:
            raise ValueError("fried parameter must be positive")
        if self.subharmonic_levels < 0:
            raise ValueError("subharmonic_levels must be >= 0")

    @property
    def pitch(self):
        return self.physical_length / self.grid_size


@dataclass(frozen=True)
class PhaseScreen:
    """Square raster of turbulence-induced phase in radians."""

    raster: np.ndarray
    pitch: float

    def __post_init__(self):
        if self.raster.ndim != 2 or self.raster.shape[0] != self.raster.shape[1]:
            raise ValueError("raster must be square")
        if not np.all(np.isfinite(self.raster)):
            raise ValueError("raster contains non-finite values")

    @property
    def grid_size(self):
        return self.raster.shape[0]

    @property
    def physical_length(self):
        return self.grid_size * self.pitch


def _frequency_grid(config, level):
    """Return (fx, fy) for the requested synthesis level.

    Level 0 is the full FFT grid (fft ordering, n/L); level p >= 1 is the
    3x3 subharmonic grid with spacing 1/(3^p L).
    """
    if level == 0:
        f1 = np.fft.fftfreq(config.grid_size, d=config.pitch)
        return np.meshgrid(f1, f1)
    df = 1.0 / (3.0 ** level * config.physical_length)
    v = np.array([-1.0, 0.0, 1.0]) * df
    return np.meshgrid(v, v)


def vonkarman_coefficients(config, level, rng_draws):
    """Shape unit complex Gaussian draws into von Karman Fourier coefficients.

    The coefficient at frequency (fx, fy) is
    w * sqrt(0.023) * df * (2/r0)**(5/6) * (fx^2+fy^2+1/L0^2)**(-11/12)
    * exp(-(fx^2+fy^2) (2 pi l0/5.92)^2 / 2), with df the level's frequency
    spacing. The (0, 0) coefficient is zeroed (piston / handled by coarser
    levels).
    """
    if level > config.subharmonic_levels:
        raise ValueError(
            f"level {level} exceeds subharmonic_levels={config.subharmonic_levels}"
        )
    draws = np.asarray(rng_draws)
    if not np.all(np.isfinite(draws)):
        raise ValueError("rng_draws must be finite")
    fx, fy = _frequency_grid(config, level)
    if draws.shape != fx.shape:
        raise ValueError(f"rng_draws shape {draws.shape} != grid shape {fx.shape}")
    df = 1.0 / (3.0 ** level * config.physical_length)
    f2 = fx ** 2 + fy ** 2
    amp = (
        np.sqrt(0.023)
        * df
        * (2.0 / config.fried) ** (5.0 / 6.0)
        * (f2 + 1.0 / config.outer_scale ** 2) ** (-11.0 / 12.0)
        * np.exp(-f2 * (2.0 * np.pi * config.inner_scale / 5.92) ** 2 / 2.0)
    )
    c = draws * amp
    if level == 0:
        c[0, 0] = 0.0
    else:
        c[1, 1] = 0.0
    return c


def _spectrum_shape(f2, outer_scale, inner_scale):
    """Frequency-dependent part of the phase PSD (r0 scaling factors out)."""
    return (f2 + 1.0 / outer_scale ** 2) ** (-11.0 / 6.0) * np.exp(
        -f2 * (2.0 * np.pi * inner_scale / 5.92) ** 2
    )


@lru_cache(maxsize=64)
def _sampling_correction(grid_size, physical_length, outer_scale, inner_scale, level):
    """Amplitude weights replacing cell-center PSD sampling by cell means.

    The spectrum falls as f^(-11/3), so sampling it at the center of the
    lowest-frequency cells misrepresents their contribution and leaves
    the synthesized structure function ~10-20% low. Each coefficient is
    reweighted to carry its cell's f^2-weighted PSD integral (the
    structure-function kernel 1-cos(2 pi f r) grows as f^2 over these
    cells), i.e. weight = sqrt(mean of PSD*f^2 over the cell / value at
    the center). Cells with index > 8 are flat enough to leave alone.
    """
    nodes, wts = np.polynomial.legendre.leggauss(8)
    if level == 0:
        df = 1.0 / physical_length
        idx = np.round(np.fft.fftfreq(grid_size, d=1.0 / grid_size)).astype(int)
        cut = 8
        corr = np.ones((grid_size, grid_size))
        small = np.flatnonzero(np.abs(idx) <= cut)
        centers = idx[small] * df
    else:
        df = 1.0 / (3.0 ** level * physical_length)
        corr = np.ones((3, 3))
        small = np.arange(3)
        centers = np.array([-1.0, 0.0, 1.0]) * df
    # tensor quadrature over each df x df cell
    off = 0.5 * df * nodes
    w2 = np.outer(wts, wts) / 4.0  # leggauss weights sum to 2 per axis
    fx = centers[:, None, None, None] + off[None, :, None, None]
    fy = centers[None, None, :, None] + off[None, None, None, :]
    f2 = fx ** 2 + fy ** 2  # (small, q, small, q)
    mean = np.einsum(
        "aqbp,qp->ab", _spectrum_shape(f2, outer_scale, inner_scale) * f2, w2
    )
    fc2 = centers[:, None] ** 2 + centers[None, :] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.sqrt(
            mean / (_spectrum_shape(fc2, outer_scale, inner_scale) * fc2)
        )
    block[fc2 == 0.0] = 1.0  # origin cell is zeroed by the caller anyway
    if level == 0:
        corr[np.ix_(small, small)] = block
        corr[0, 0] = 1.0
    else:
        corr = block
        corr[1, 1] = 1.0
    return corr


def _complex_draws(rng, shape):
    """Zero-mean unit-variance complex circular Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_screen(config):
    """Synthesize one phase screen, deterministic in config.seed.

    Real part of the inverse Fourier synthesis of the level-0 grid plus
    the subharmonic sums on pixel-center coordinates x, y in [-L/2, L/2),
    piston removed.
    """
    n = config.grid_size
    length = config.physical_length
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    c0 = vonkarman_coefficients(config, 0, _complex_draws(rng, (n, n)))
    c0 *= _sampling_correction(
        n, length, config.outer_scale, config.inner_scale, 0
    )
    # coordinates x_j = (j - N/2) * pitch: fold the -L/2 offset into the
    # coefficients as exp(-j pi n_int) before the inverse FFT
    n_int = np.fft.fftfreq(n, d=1.0 / n)
    sign = np.where(np.round(n_int).astype(int) % 2 == 0, 1.0, -1.0)
    raster = np.real(np.fft.ifft2(c0 * sign[None, :] * sign[:, None]) * n * n)

    coords = (np.arange(n) - n // 2) * config.pitch
    for level in range(1, config.subharmonic_levels + 1):
        c = vonkarman_coefficients(config, level, _complex_draws(rng, (3, 3)))
        c *= _sampling_correction(
            n, length, config.outer_scale, config.inner_scale, level
        )
        df = 1.0 / (3.0 ** level * length)
        fvals = np.array([-1.0, 0.0, 1.0]) * df
        ex = np.exp(2j * np.pi * np.outer(coords, fvals))  # (N, 3)
        # c rows index fy, columns fx; raster rows are y
        raster += np.real(ex @ c @ ex.T)

    raster *= SYNTHESIS_GAIN
    raster -= raster.mean()
    return PhaseScreen(raster=raster, pitch=config.pitch)


def sub_seed(seed, index):
    """Deterministic 64-bit sub-seed for element `index` of a batch."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def iter_screens(config, count):
    """Stream the ensemble of config as (member config, screen) pairs.

    Member i is config with seed sub_seed(config.seed, i); this is the
    one place that rule lives. The count is checked before any screen
    is generated.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members = (replace(config, seed=sub_seed(config.seed, i)) for i in range(count))
    return ((member, generate_screen(member)) for member in members)


def batch_generate(config, count):
    """The `count` screens of iter_screens(config, count) as a list."""
    return [screen for _, screen in iter_screens(config, count)]


def structure_function(screens, separations):
    """Empirical phase structure function D_phi(r).

    Averages [phi(x+r) - phi(x)]^2 over screens, both raster axes and all
    positions, for each separation r (a multiple of the pixel pitch,
    smaller than half the screen). `screens` may be any iterable, such
    as an iter_screens stream, and is read once.
    """
    stream = iter(screens)
    first = next(stream, None)
    if first is None:
        raise ValueError("need at least one screen")
    pitch = first.pitch
    length = first.physical_length
    shifts = []
    for r in separations:
        k = r / pitch
        k_int = int(round(k))
        if abs(k - k_int) > 1e-9 or k_int < 1:
            raise ValueError(f"separation {r} is not a positive multiple of pitch")
        if r >= length / 2.0:
            raise ValueError(f"separation {r} must be below L/2 = {length / 2.0}")
        shifts.append(k_int)
    rs = np.array([k * pitch for k in shifts])
    d = np.zeros(len(shifts))
    stream = chain([first], stream)
    del first  # hold one screen at a time
    for count, screen in enumerate(stream, start=1):
        phi = screen.raster
        for i, k in enumerate(shifts):
            dx = phi[:, k:] - phi[:, :-k]
            dy = phi[k:, :] - phi[:-k, :]
            d[i] += 0.5 * (np.mean(dx ** 2) + np.mean(dy ** 2))
    return rs, d / count


def kolmogorov_structure_function(r, fried):
    """Reference Kolmogorov value 6.88 (r/r0)**(5/3)."""
    return 6.88 * (np.asarray(r) / fried) ** (5.0 / 3.0)


def write_screen(path, screen, config):
    """Write a screen in the PHSCRN01 binary format plus a JSON sidecar."""
    raster = np.ascontiguousarray(screen.raster, dtype="<f8")
    header = _HEADER.pack(
        screen.grid_size,
        screen.pitch,
        config.fried,
        config.outer_scale,
        config.inner_scale,
        config.seed & 0xFFFFFFFFFFFFFFFF,
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(raster.tobytes())
    sidecar = {
        "grid_size": config.grid_size,
        "physical_length": config.physical_length,
        "fried": config.fried,
        "outer_scale": config.outer_scale,
        "inner_scale": config.inner_scale,
        "subharmonic_levels": config.subharmonic_levels,
        "seed": config.seed,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_screen(path):
    """Read a PHSCRN01 file; returns (PhaseScreen, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        grid_size, pitch, fried, outer, inner, seed = _HEADER.unpack(
            fh.read(_HEADER.size)
        )
        raster = np.frombuffer(
            fh.read(grid_size * grid_size * 8), dtype="<f8"
        ).reshape(grid_size, grid_size)
    header = {
        "grid_size": grid_size,
        "pitch": pitch,
        "fried": fried,
        "outer_scale": outer,
        "inner_scale": inner,
        "seed": seed,
    }
    return PhaseScreen(raster=raster.copy(), pitch=pitch), header
