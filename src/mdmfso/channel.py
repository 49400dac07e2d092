"""Symbol-spaced MIMO propagation with laser phase noise and ASE loading.

The received vector at symbol t is

    y_r[t] = diag(e^{j phi_k[t]}) H (g * s)[t] + n_r[t]

with independent Wiener phase walks phi_k per receive channel (transmit
phases are conserved and set to the identity reference), g an optional
per-path FIR memory, and circular complex Gaussian noise calibrated from
the measured OSNR in a 12.5 GHz reference bandwidth.

A leaf module: it imports no other mdmfso module, and every function
takes plain values: wiener_phase the linewidth, baud and seed of its
walks, and propagate the transmit streams, the channel, the phase, the
noise variance and seed, and the FIR taps, which it scales to unit
energy with unit_energy_taps.
"""

import numpy as np

REFERENCE_BANDWIDTH = 12.5e9
DEFAULT_BAUD = 34.46e9


def osnr_to_n0(osnr_db, baud):
    """Per-sample complex noise variance from OSNR (dB, 12.5 GHz reference)
    at unit signal power per channel.

    n0 = baud / (OSNR_linear * 2 * B_ref). OSNR +inf, or one too large
    for a float in linear units (above about 3083 dB), maps to 0. -inf,
    or an OSNR so low that n0 is not a finite float (below about -3080
    dB at the default baud), has no noise variance and raises ValueError.
    """
    if baud <= 0:
        raise ValueError("baud must be positive")
    try:
        osnr = 10.0 ** (osnr_db / 10.0)
    except OverflowError:
        osnr = np.inf
    denominator = osnr * 2.0 * REFERENCE_BANDWIDTH
    n0 = baud / denominator if denominator else np.inf
    if n0 == np.inf:
        raise ValueError(f"OSNR of {osnr_db} dB has no finite noise variance")
    return n0


def wiener_phase(n_symbols, n_rx, linewidth, baud, seed):
    """Per-receive-channel Wiener phase trajectories, (n_rx, n_symbols).

    phi[t+1] = phi[t] + delta with delta ~ N(0, 2 pi linewidth / baud) and
    phi[0] = 0, one independent walk per receive channel, drawn from
    seed. The linewidth must be >= 0 and finite, the baud positive.
    """
    if not 0 <= linewidth < np.inf:
        raise ValueError(f"linewidth={linewidth!r} must be >= 0 and finite")
    if baud <= 0:
        raise ValueError("baud must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma = np.sqrt(2.0 * np.pi * linewidth / baud)
    # scaled and summed in place, one row at a time: the bits of
    # np.cumsum(sigma * draws, axis=1) without its two temporaries
    phi = rng.standard_normal((n_rx, n_symbols))
    phi *= sigma
    phi[:, 0] = 0.0
    for row in phi:
        np.cumsum(row, out=row)
    return phi


def unit_energy_taps(taps):
    """The 1-D odd-length FIR taps as a complex array scaled to unit
    energy; taps of zero or infinite energy raise ValueError."""
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 1 or taps.size % 2 != 1:
        raise ValueError("taps must be a 1-D odd-length sequence")
    with np.errstate(over="ignore"):  # an infinite norm is rejected below
        norm = np.sqrt(np.sum(np.abs(taps) ** 2))
    if not 0 < norm < np.inf:
        raise ValueError("taps must have a finite, nonzero energy")
    return taps / norm


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


def propagate(symbols, h, phase, n0, seed, taps):
    """Apply the MIMO system model to the (n_t, T) transmit streams
    through the (n_r, n_t) channel h; returns the (n_r, T) received
    streams.

    phase is the (n_r, T) receive phase, or None for none; n0 >= 0 is
    the complex noise variance, drawn from seed (n0 = 0 draws nothing);
    taps is the per-path FIR memory, scaled to unit energy by
    unit_energy_taps. The single tap 1 leaves the streams as they are,
    and any other single tap scales them.
    """
    symbols = np.asarray(symbols)
    h = np.asarray(h)
    n_r, n_t = h.shape
    if symbols.shape[0] != n_t:
        raise ValueError(f"channel count {symbols.shape[0]} != n_t {n_t}")
    if phase is not None and phase.shape != (n_r, symbols.shape[1]):
        raise ValueError("phase trajectories must be (n_r, n_symbols)")
    if not n0 >= 0:
        raise ValueError(f"noise variance n0={n0!r} must be >= 0")
    taps = unit_energy_taps(taps)

    shaped = symbols if taps.size == 1 and taps[0] == 1 else fir_same(symbols, taps)

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
    if n0 > 0:
        # all real parts are drawn before all imaginary parts, row by
        # row into one buffer; adding sqrt(n0 / 2) * draw to each part
        # has the bits of y + sqrt(n0 / 2) * (re + 1j * im)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        scale = np.sqrt(n0 / 2.0)
        draw = np.empty(y.shape[1])
        for part in (y.real, y.imag):
            for k in range(n_r):
                rng.standard_normal(out=draw)
                draw *= scale
                part[k] += draw
    return y
