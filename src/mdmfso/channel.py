"""Symbol-spaced MIMO propagation with laser phase noise and ASE loading.

The received vector at symbol t is

    y_r[t] = diag(e^{j phi_k[t]}) H (g * s)[t] + n_r[t]

with independent Wiener phase walks phi_k per receive channel (transmit
phases are conserved and set to the identity reference), g an optional
per-path FIR memory, and circular complex Gaussian noise calibrated from
the measured OSNR in a 12.5 GHz reference bandwidth.
"""

from dataclasses import dataclass

import numpy as np

from .framing import Frame
from .optics import ChannelMatrix

REFERENCE_BANDWIDTH = 12.5e9
DEFAULT_BAUD = 34.46e9


@dataclass(frozen=True)
class PhaseNoiseConfig:
    linewidth: float = 1e5
    baud: float = DEFAULT_BAUD
    per_rx_independent: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.linewidth < 0:
            raise ValueError("linewidth must be >= 0")
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

    @classmethod
    def from_osnr(cls, osnr_db, baud, per_channel_signal_power, seed=0):
        return cls(n0=osnr_to_n0(osnr_db, baud, per_channel_signal_power), seed=seed)


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
        return cls(taps=tuple(taps / np.sqrt(np.sum(np.abs(taps) ** 2))))


# optional profile for exercising the MIMO equalizer
THREE_TAP_PROFILE = IsiConfig.normalized([0.05, 1.0, 0.05])


def osnr_to_n0(osnr_db, baud, per_channel_signal_power):
    """Per-sample complex noise variance from OSNR (dB, 12.5 GHz reference).

    n0 = P_ch * baud / (OSNR_linear * 2 * B_ref). Infinite OSNR maps to 0.
    """
    if baud <= 0:
        raise ValueError("baud must be positive")
    if np.isinf(osnr_db):
        return 0.0
    osnr = 10.0 ** (osnr_db / 10.0)
    return per_channel_signal_power * baud / (osnr * 2.0 * REFERENCE_BANDWIDTH)


def wiener_phase(n_symbols, n_rx, config):
    """Per-receive-channel Wiener phase trajectories, (n_rx, n_symbols).

    phi[t+1] = phi[t] + delta with delta ~ N(0, 2 pi linewidth / baud) and
    phi[0] = 0; channels share one walk when per_rx_independent is False.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sigma = np.sqrt(config.increment_variance)
    n_walks = n_rx if config.per_rx_independent else 1
    steps = sigma * rng.standard_normal((n_walks, n_symbols))
    steps[:, 0] = 0.0
    phi = np.cumsum(steps, axis=1)
    if not config.per_rx_independent:
        phi = np.broadcast_to(phi, (n_rx, n_symbols)).copy()
    return phi


def propagate(frame, h, phase, noise, isi=None):
    """Apply the MIMO system model; returns the (N_r, T) received streams."""
    symbols = frame.symbols if isinstance(frame, Frame) else np.asarray(frame)
    h_mat = h.h if isinstance(h, ChannelMatrix) else np.asarray(h)
    n_r, n_t = h_mat.shape
    if symbols.shape[0] != n_t:
        raise ValueError(f"channel count {symbols.shape[0]} != n_t {n_t}")
    if phase is not None and phase.shape != (n_r, symbols.shape[1]):
        raise ValueError("phase trajectories must be (n_r, n_symbols)")

    if isi is not None and len(isi.taps) > 1:
        from scipy.signal import fftconvolve

        taps = np.asarray(isi.taps, dtype=complex)
        shaped = fftconvolve(symbols, taps[None, :], mode="same", axes=1)
    else:
        shaped = symbols

    y = h_mat @ shaped
    if phase is not None:
        # exp(1j * phase) as cos + j sin, bit for bit; the + 0.0 gives
        # sin(-0.0) the +0.0 imaginary part that exp(1j * -0.0) has
        rot = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        rot.imag += 0.0
        rot *= y
        y = rot
    if noise is not None and noise.n0 > 0:
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed))
        y = y + np.sqrt(noise.n0 / 2.0) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return y
