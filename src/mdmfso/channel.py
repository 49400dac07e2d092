"""Symbol-spaced MIMO propagation with laser phase noise and ASE loading.

The received vector at symbol t is

    y_r[t] = diag(e^{j phi_k[t]}) H (g * s)[t] + n_r[t]

with independent Wiener phase walks phi_k per receive channel (transmit
phases are conserved and set to the identity reference), g an optional
per-path FIR memory, and circular complex Gaussian noise calibrated from
the measured OSNR in a 12.5 GHz reference bandwidth.

A leaf module: it imports no other mdmfso module, and propagate takes
the transmit streams and the channel as plain arrays.
"""

from dataclasses import dataclass

import numpy as np

REFERENCE_BANDWIDTH = 12.5e9
DEFAULT_BAUD = 34.46e9


@dataclass(frozen=True)
class PhaseNoiseConfig:
    linewidth: float = 1e5
    baud: float = DEFAULT_BAUD
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.linewidth < np.inf:
            raise ValueError(f"linewidth={self.linewidth!r} must be >= 0 and finite")
        if self.baud <= 0:
            raise ValueError("baud must be positive")

    @property
    def increment_variance(self):
        return 2.0 * np.pi * self.linewidth / self.baud


@dataclass(frozen=True)
class NoiseConfig:
    n0: float
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError("noise variance must be >= 0")


@dataclass(frozen=True)
class IsiConfig:
    """Per-path FIR memory, energy-normalized; [1] is memoryless."""

    taps: tuple = (1.0,)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.size % 2 != 1:
            raise ValueError("taps must be a 1-D odd-length sequence")
        energy = np.sum(np.abs(taps) ** 2)
        if not np.isclose(energy, 1.0, rtol=1e-9):
            raise ValueError("tap energy must be normalized to 1")

    @classmethod
    def normalized(cls, taps):
        taps = np.asarray(taps, dtype=complex)
        with np.errstate(over="ignore"):  # an infinite norm is rejected below
            norm = np.sqrt(np.sum(np.abs(taps) ** 2))
        if not 0 < norm < np.inf:
            raise ValueError("taps must have a finite, nonzero energy")
        return cls(taps=tuple(taps / norm))


def osnr_to_n0(osnr_db, baud, per_channel_signal_power):
    """Per-sample complex noise variance from OSNR (dB, 12.5 GHz reference).

    n0 = P_ch * baud / (OSNR_linear * 2 * B_ref). OSNR +inf, or one too
    large for a float in linear units (above about 3083 dB), maps to 0.
    -inf, or an OSNR so low that n0 is not a finite float (below about
    -3080 dB at unit power and the default baud), has no noise variance
    and raises ValueError.
    """
    if baud <= 0:
        raise ValueError("baud must be positive")
    try:
        osnr = 10.0 ** (osnr_db / 10.0)
    except OverflowError:
        osnr = np.inf
    denominator = osnr * 2.0 * REFERENCE_BANDWIDTH
    n0 = per_channel_signal_power * baud / denominator if denominator else np.inf
    if n0 == np.inf:
        raise ValueError(f"OSNR of {osnr_db} dB has no finite noise variance")
    return n0


def wiener_phase(n_symbols, n_rx, config):
    """Per-receive-channel Wiener phase trajectories, (n_rx, n_symbols).

    phi[t+1] = phi[t] + delta with delta ~ N(0, 2 pi linewidth / baud) and
    phi[0] = 0, one independent walk per receive channel.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sigma = np.sqrt(config.increment_variance)
    # scaled and summed in place, one row at a time: the bits of
    # np.cumsum(sigma * draws, axis=1) without its two temporaries
    phi = rng.standard_normal((n_rx, n_symbols))
    phi *= sigma
    phi[:, 0] = 0.0
    for row in phi:
        np.cumsum(row, out=row)
    return phi


def fir_same(symbols, taps):
    """Each row of symbols through the odd-length FIR taps, as a direct
    sum: the centred "same"-length convolution, out[t] = sum_m taps[m]
    symbols[t + len(taps) // 2 - m], zero outside the stream."""
    taps = np.asarray(taps, dtype=complex)
    half = taps.size // 2
    n = symbols.shape[1]
    padded = np.pad(symbols, ((0, 0), (half, half)))
    out = np.zeros(symbols.shape, dtype=complex)
    for m, tap in enumerate(taps):
        out += tap * padded[:, 2 * half - m : 2 * half - m + n]
    return out


def propagate(symbols, h, phase, noise, isi=None):
    """Apply the MIMO system model to the (n_t, T) transmit streams
    through the (n_r, n_t) channel h; returns the (n_r, T) received
    streams. A single ISI tap other than 1 scales the streams by it."""
    symbols = np.asarray(symbols)
    h = np.asarray(h)
    n_r, n_t = h.shape
    if symbols.shape[0] != n_t:
        raise ValueError(f"channel count {symbols.shape[0]} != n_t {n_t}")
    if phase is not None and phase.shape != (n_r, symbols.shape[1]):
        raise ValueError("phase trajectories must be (n_r, n_symbols)")

    shaped = symbols if isi is None or isi.taps == (1,) else fir_same(symbols, isi.taps)

    # complex even for a real channel and real symbols: written in place below
    y = (h @ shaped).astype(complex, copy=False)
    if phase is not None:
        # exp(1j * phase) as cos + j sin, bit for bit, one row at a time
        # into one buffer; the + 0.0 gives sin(-0.0) the +0.0 imaginary
        # part that exp(1j * -0.0) has. Complex products are not bitwise
        # commutative: the phasor stays the first operand.
        rot = np.empty(y.shape[1], dtype=complex)
        for k in range(n_r):
            np.cos(phase[k], out=rot.real)
            np.sin(phase[k], out=rot.imag)
            rot.imag += 0.0
            np.multiply(rot, y[k], out=y[k])
    if noise is not None and noise.n0 > 0:
        # all real parts are drawn before all imaginary parts, row by
        # row into one buffer; adding sqrt(n0 / 2) * draw to each part
        # has the bits of y + sqrt(n0 / 2) * (re + 1j * im)
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed))
        scale = np.sqrt(noise.n0 / 2.0)
        draw = np.empty(y.shape[1])
        for part in (y.real, y.imag):
            for k in range(n_r):
                rng.standard_normal(out=draw)
                draw *= scale
                part[k] += draw
    return y
