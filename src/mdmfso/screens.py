"""Von Karman turbulence phase screens via FFT power-spectrum inversion.

Screens are synthesized by drawing complex circular Gaussian Fourier
coefficients shaped by the modified von Karman spectrum, inverse
transforming, and augmenting the missing low spatial frequencies with
3x3 subharmonic grids at spacing 1/(3^p L) per level p. The real parts
of all subharmonic levels are added to the raster as one real matrix
product, and each complex draw is scaled into place, its real and
imaginary parts written from one real buffer.

The synthesis is calibrated so that the ensemble phase power spectral
density equals 0.023 * r0**(-5/3) * (f^2 + 1/L0^2)**(-11/6)
* exp(-f^2 (2 pi l0 / 5.92)^2) in cyclic frequency, the normalization
consistent with the Kolmogorov structure function 6.88 (r/r0)**(5/3).
Taking the real part of the complex synthesis halves the power, and the
coefficient prefactor carries an extra 2**(5/6); the net amplitude
calibration applied to the real part is therefore 2**(-1/3).
"""

from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
import json
import os
import struct

import numpy as np

# amplitude calibration of the real-part synthesis, see module docstring
SYNTHESIS_GAIN = 2.0 ** (-1.0 / 3.0)

# ensembles and sweeps run on at most this many workers, the calling
# thread included (see _ordered_map); each item in flight holds its own
# working set, so the cap bounds memory
MAX_WORKERS = 4

MAGIC = b"PHSCRN01"
_HEADER = struct.Struct("<IddddQ")
_HEADER_KEYS = ("grid_size", "pitch", "fried", "outer_scale", "inner_scale", "seed")


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
            raise ValueError(f"grid_size={self.grid_size!r} must be an even integer >= 2")
        if not (0.0 < self.inner_scale < self.physical_length < self.outer_scale):
            raise ValueError(
                f"inner_scale={self.inner_scale!r}, physical_length="
                f"{self.physical_length!r} and outer_scale={self.outer_scale!r} "
                "must satisfy 0 < inner_scale < physical_length < outer_scale"
            )
        try:  # the spectrum reads 1 / outer_scale**2; inf is the Kolmogorov limit
            float(self.outer_scale) ** 2
        except OverflowError:
            raise ValueError(
                f"outer_scale={self.outer_scale!r} must be infinite or have a finite "
                "float square"
            ) from None
        try:
            pitch_ok = 0.0 < self.pitch < np.inf
        except OverflowError:  # an integer grid_size beyond the float range
            pitch_ok = False
        if not pitch_ok:
            raise ValueError(
                f"physical_length={self.physical_length!r} / grid_size={self.grid_size!r} "
                "must give a positive finite float pitch"
            )
        if self.fried <= 0.0:
            raise ValueError(f"fried={self.fried!r} must be positive")
        if self.subharmonic_levels < 0:
            raise ValueError(f"subharmonic_levels={self.subharmonic_levels!r} must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed!r} must be >= 0")

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
    """Return (fx, fy) for the requested synthesis level, as a row and a
    column that broadcast to the grid (the values of np.meshgrid).

    Level 0 is the full FFT grid (fft ordering, n/L); level p >= 1 is the
    3x3 subharmonic grid with spacing 1/(3^p L).
    """
    if level == 0:
        f1 = np.fft.fftfreq(config.grid_size, d=config.pitch)
    else:
        df = 1.0 / (3.0 ** level * config.physical_length)
        f1 = np.array([-1.0, 0.0, 1.0]) * df
    return f1[None, :], f1[:, None]


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
    amp = _amplitude(config, level)
    if draws.shape != amp.shape:
        raise ValueError(f"rng_draws shape {draws.shape} != grid shape {amp.shape}")
    c = draws * amp
    if level == 0:
        c[0, 0] = 0.0
    else:
        c[1, 1] = 0.0
    return c


def _amplitude(config, level):
    """Coefficient magnitude on the level's frequency grid (see
    vonkarman_coefficients); the one copy of the spectrum expression."""
    fx, fy = _frequency_grid(config, level)
    df = 1.0 / (3.0 ** level * config.physical_length)
    f2 = fx ** 2 + fy ** 2
    # at outer_scale = inf the zero-frequency cell, which the caller
    # zeroes, is infinite
    with np.errstate(divide="ignore"):
        return (
            np.sqrt(0.023)
            * df
            * (2.0 / config.fried) ** (5.0 / 6.0)
            * (f2 + 1.0 / config.outer_scale ** 2) ** (-11.0 / 12.0)
            * np.exp(-f2 * (2.0 * np.pi * config.inner_scale / 5.92) ** 2 / 2.0)
        )


@lru_cache(maxsize=8)
def _level0(config):
    """Seed-independent level-0 weights of generate_screen, cached per
    geometry and spectrum (config with seed and subharmonic_levels zeroed).

    Returns (amp, cells, corr): the level-0 amplitude with the coordinate
    sign (-1)^(i + j) of pixel-center coordinates folded in, the np.ix_
    index of the low-frequency block, and that block's sampling
    correction. The correction is exactly 1 outside the block. Folding
    the sign in is exact: a product with -1 only flips a sign bit, so
    draws * (amp * sign) * corr has the bits of draws * amp * corr * sign.
    All three are read-only.
    """
    n = config.grid_size
    sign = 1.0 - 2.0 * (np.arange(n) % 2)  # index and fft frequency share parity
    amp = _amplitude(config, 0)
    amp *= sign[None, :]
    amp *= sign[:, None]
    low = _low_cells(n)
    cells = np.ix_(low, low)
    corr = _sampling_correction(
        n, config.physical_length, config.outer_scale, config.inner_scale, 0
    )
    for a in (amp, *cells):
        a.flags.writeable = False
    return amp, cells, corr


def _spectrum_shape(f2, outer_scale, inner_scale):
    """Frequency-dependent part of the phase PSD (r0 scaling factors out)."""
    return (f2 + 1.0 / outer_scale ** 2) ** (-11.0 / 6.0) * np.exp(
        -f2 * (2.0 * np.pi * inner_scale / 5.92) ** 2
    )


def _low_cells(grid_size):
    """Level-0 rows (and columns) whose frequency index |k| <= 8: the
    cells that carry a sampling correction."""
    idx = np.round(np.fft.fftfreq(grid_size, d=1.0 / grid_size)).astype(int)
    return np.flatnonzero(np.abs(idx) <= 8)


@lru_cache(maxsize=64)
def _sampling_correction(grid_size, physical_length, outer_scale, inner_scale, level):
    """Amplitude weights replacing cell-center PSD sampling by cell means.

    The spectrum falls as f^(-11/3), so sampling it at the center of the
    lowest-frequency cells misrepresents their contribution and leaves
    the synthesized structure function ~10-20% low. Each coefficient is
    reweighted to carry its cell's f^2-weighted PSD integral (the
    structure-function kernel 1-cos(2 pi f r) grows as f^2 over these
    cells), i.e. weight = sqrt(mean of PSD*f^2 over the cell / value at
    the center). Cells with index > 8 are flat enough to leave alone:
    level 0 returns only the block of _low_cells (the weight is 1
    elsewhere), level p >= 1 the whole 3x3 grid. The result is read-only.
    """
    nodes, wts = np.polynomial.legendre.leggauss(8)
    if level == 0:
        df = 1.0 / physical_length
        idx = np.round(np.fft.fftfreq(grid_size, d=1.0 / grid_size)).astype(int)
        centers = idx[_low_cells(grid_size)] * df
    else:
        df = 1.0 / (3.0 ** level * physical_length)
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
    # the origin cell's PSD is infinite or overflows for a large outer scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        corr = np.sqrt(
            mean / (_spectrum_shape(fc2, outer_scale, inner_scale) * fc2)
        )
    corr[fc2 == 0.0] = 1.0  # origin cell is zeroed by the caller anyway
    corr.flags.writeable = False
    return corr


def _complex_draws(rng, shape):
    """Zero-mean unit-variance complex circular Gaussian array.

    Real parts are drawn first, then imaginary parts, each into one real
    buffer and written scaled into .real or .imag. numpy divides a
    complex array by a real scalar as (re + im * 0) * (1 / sqrt(2)), so
    the scaling by 1 / sqrt(2) gives the bits of (re + 1j * im) / sqrt(2)
    without its complex temporaries and division.
    """
    c = np.empty(shape, dtype=complex)
    draw = np.empty(shape)
    scale = 1.0 / np.sqrt(2.0)
    for part in (c.real, c.imag):
        rng.standard_normal(out=draw)
        np.multiply(draw, scale, out=part)
    return c


def generate_screen(config):
    """Synthesize one phase screen, deterministic in config.seed.

    Real part of the inverse Fourier synthesis of the level-0 grid plus
    the subharmonic sums on pixel-center coordinates x, y in [-L/2, L/2),
    piston removed. The coordinates x_j = (j - N/2) * pitch fold the -L/2
    offset into the level-0 coefficients as the sign exp(-j pi n_int),
    which _level0 carries in its amplitude. The eight (by default)
    subharmonic levels enter as one real (N, 6 * levels) @ (6 * levels, N)
    product, the same terms as level-by-level complex products summed in
    another order; the draws are scaled in place (see _complex_draws).
    """
    n = config.grid_size
    length = config.physical_length
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    amp, cells, corr = _level0(replace(config, seed=0, subharmonic_levels=0))
    c0 = _complex_draws(rng, (n, n))
    c0 *= amp
    c0[0, 0] = 0.0
    c0[cells] *= corr
    # ifft2(c0) in place, last axis first as ifft2 runs its passes
    # (np.fft.ifft2 ignores out= and allocates twice), then the
    # association of ifft2(c0) * n * n, on the real part only
    for axis in (1, 0):
        np.fft.ifft(c0, axis=axis, out=c0)
    raster = c0.real * n
    raster *= n
    del c0

    # level p adds Re(ex_p @ c_p @ ex_p.T), with ex_p the (N, 3) pixel
    # exponentials; with a_p = ex_p @ c_p that real part is
    # Re a_p @ Re ex_p.T - Im a_p @ Im ex_p.T, so every level adds in one
    # real (N, 6 * levels) @ (6 * levels, N) product
    coords = (np.arange(n) - n // 2) * config.pitch
    left, right = [], []
    for level in range(1, config.subharmonic_levels + 1):
        c = vonkarman_coefficients(config, level, _complex_draws(rng, (3, 3)))
        c *= _sampling_correction(
            n, length, config.outer_scale, config.inner_scale, level
        )
        df = 1.0 / (3.0 ** level * length)
        fvals = np.array([-1.0, 0.0, 1.0]) * df
        ex = np.exp(2j * np.pi * np.outer(coords, fvals))  # (N, 3)
        # c rows index fy, columns fx; raster rows are y
        a = ex @ c
        left += [a.real, -a.imag]
        right += [ex.real, ex.imag]
    if left:
        raster += np.hstack(left) @ np.hstack(right).T

    raster *= SYNTHESIS_GAIN
    raster -= raster.mean()
    return PhaseScreen(raster=raster, pitch=config.pitch)


def sub_seed(seed, index):
    """Deterministic 64-bit sub-seed for element `index` of a batch."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _ordered_map(fn, items):
    """Yield fn(item) for each item, in input order, computed by up to
    min(usable CPUs, MAX_WORKERS) workers: the calling thread and a pool
    of one thread fewer.

    Only the calling thread pulls from items, and at most one item per
    worker is pulled ahead of the result being yielded. An item goes to
    the pool while the pool holds fewer items than it has threads;
    otherwise the caller computes it before it waits on the pool. An
    exception from fn re-raises here, in input order, and closing the
    generator cancels what has not started and waits for the rest.
    Results do not depend on the worker count as long as fn does not
    depend on the order of calls. The caller takes a worker's share
    because each pool thread adds a malloc arena that keeps the memory
    its work freed.
    """
    workers = min(_usable_cpus(), MAX_WORKERS)
    if workers < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import Future, ThreadPoolExecutor

    def computed(item):
        future = Future()
        try:
            future.set_result(fn(item))
        except Exception as exc:  # raised again when its turn comes
            future.set_exception(exc)
        return future

    pool = ThreadPoolExecutor(max_workers=workers - 1)
    pending = deque()  # (future, whether the pool runs it), in input order
    try:
        for item in items:
            if sum(pooled for _, pooled in pending) < workers - 1:
                pending.append((pool.submit(fn, item), True))
            else:
                pending.append((computed(item), False))
            if len(pending) == workers:
                yield pending.popleft()[0].result()
        while pending:
            yield pending.popleft()[0].result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def iter_screens(config, count):
    """Stream the ensemble of config as (member config, screen) pairs.

    Member i is config with seed sub_seed(config.seed, i); this is the
    one place that rule lives. The count is checked before any screen
    is generated. Members are synthesized ahead on worker threads (see
    _ordered_map) and come out in member order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members = (replace(config, seed=sub_seed(config.seed, i)) for i in range(count))
    return _ordered_map(lambda member: (member, generate_screen(member)), members)


def batch_generate(config, count):
    """The `count` screens of iter_screens(config, count) as a list."""
    return [screen for _, screen in iter_screens(config, count)]


def structure_function(screens, separations):
    """Empirical phase structure function D_phi(r).

    Averages [phi(x+r) - phi(x)]^2 over screens, both raster axes and all
    positions, for each separation r (a multiple of the pixel pitch,
    smaller than half the screen). `screens` may be any iterable, such
    as an iter_screens stream, and is read once. Each screen's terms are
    computed on worker threads and summed in screen order, so the result
    does not depend on the worker count.
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

    def terms(screen):
        phi = screen.raster
        n = phi.shape[0]
        # per separation, the differences along each axis are written
        # into a contiguous view of one buffer, shaped as the fresh
        # arrays of phi[:, k:] - phi[:, :-k] would be, so that the
        # means sum in the same order
        x_buf, y_buf = np.empty(phi.size), np.empty(phi.size)
        out = np.empty(len(shifts))
        for i, k in enumerate(shifts):
            size = n * (n - k)
            dx = np.subtract(phi[:, k:], phi[:, :-k], out=x_buf[:size].reshape(n, n - k))
            dy = np.subtract(phi[k:, :], phi[:-k, :], out=y_buf[:size].reshape(n - k, n))
            np.square(dx, out=dx)
            np.square(dy, out=dy)
            out[i] = 0.5 * (np.mean(dx) + np.mean(dy))
        return out

    d = np.zeros(len(shifts))
    stream = chain([first], stream)
    del first  # hold only the screens in flight
    for count, t in enumerate(_ordered_map(terms, stream), start=1):
        d += t
    return rs, d / count


def kolmogorov_structure_function(r, fried):
    """Reference Kolmogorov value 6.88 (r/r0)**(5/3)."""
    return 6.88 * (np.asarray(r) / fried) ** (5.0 / 3.0)


def write_screen(path, screen, config):
    """Write a screen in the PHSCRN01 binary format plus a JSON sidecar.

    The header takes the grid size and pitch from the screen and the
    rest from config; the sidecar takes config. A config that disagrees
    with the screen (see _check_agreement), whose file read_screen would
    reject, raises ValueError before anything is written.
    """
    sidecar = {
        "grid_size": config.grid_size,
        "physical_length": config.physical_length,
        "fried": config.fried,
        "outer_scale": config.outer_scale,
        "inner_scale": config.inner_scale,
        "subharmonic_levels": config.subharmonic_levels,
        "seed": config.seed,
    }
    header = {key: sidecar[key] for key in ("fried", "outer_scale", "inner_scale")}
    header.update(grid_size=screen.grid_size, pitch=screen.pitch)
    header["seed"] = config.seed & 0xFFFFFFFFFFFFFFFF
    _check_agreement(sidecar, header)
    raster = np.ascontiguousarray(screen.raster, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(*(header[key] for key in _HEADER_KEYS)))
        fh.write(raster.tobytes())
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_sidecar(path, header):
    """Raise ValueError unless the JSON sidecar of the screen file at path
    is missing or holds a number for each key it shares with the header
    and agrees with it (see _check_agreement)."""
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)  # malformed JSON raises a ValueError
    except FileNotFoundError:
        return
    keys = ("grid_size", "fried", "outer_scale", "inner_scale", "seed", "physical_length")
    if not isinstance(meta, dict) or any(type(meta.get(k)) not in (int, float) for k in keys):
        raise ValueError(f"sidecar lacks a number for one of {', '.join(keys)}")
    _check_agreement(meta, header)


def _check_agreement(meta, header):
    """Raise ValueError unless the sidecar values meta agree exactly with
    the header's: grid_size, fried, outer_scale, inner_scale, seed mod
    2^64 (as the header keeps it), and physical_length / grid_size
    against the pitch."""
    found = {key: meta[key] for key in ("grid_size", "fried", "outer_scale", "inner_scale")}
    found["seed"] = meta["seed"] % (1 << 64)
    for key, value in found.items():
        if value != header[key]:
            raise ValueError(f"sidecar {key}={value!r} disagrees with the header's {header[key]!r}")
    pitch = meta["physical_length"] / meta["grid_size"]  # grid_size agrees: nonzero
    if pitch != header["pitch"]:
        raise ValueError(
            f"sidecar physical_length / grid_size={pitch!r} disagrees with the "
            f"header's pitch {header['pitch']!r}"
        )


def read_screen(path):
    """Read a PHSCRN01 file; returns (PhaseScreen, header dict).

    A file that is not exactly magic, header and a grid_size^2 float64
    raster, whose header has a zero grid size or a pitch that is not a
    positive finite number, or whose JSON sidecar disagrees with the
    header (see _check_sidecar), raises ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated header: {len(head)} of {_HEADER.size} bytes")
        header = dict(zip(_HEADER_KEYS, _HEADER.unpack(head)))
        grid_size, pitch = header["grid_size"], header["pitch"]
        if grid_size == 0:
            raise ValueError("zero grid size in header")
        if not (np.isfinite(pitch) and pitch > 0.0):
            raise ValueError(f"pitch {pitch!r} in header is not a positive finite number")
        expected = grid_size * grid_size * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < expected:
            raise ValueError(f"truncated raster: {left} of {expected} bytes")
        if left > expected:
            raise ValueError(f"{left - expected} trailing bytes after the raster")
        data = fh.read(expected)
    raster = np.frombuffer(data, dtype="<f8").reshape(grid_size, grid_size)
    _check_sidecar(path, header)
    return PhaseScreen(raster=raster.copy(), pitch=pitch), header
