"""Symbol-spaced MIMO propagation with laser phase noise and ASE loading.

The received vector at symbol t is

    y_r[t] = diag(e^{j phi_k[t]}) H s[t] + n_r[t]

with independent Wiener phase walks phi_k per receive channel (transmit
phases are conserved and set to the identity reference) and circular
complex Gaussian noise calibrated from the measured OSNR in a 12.5 GHz
reference bandwidth.

A leaf module: it imports no other mdmfso module, and every function
takes plain values: wiener_phase the linewidth, baud and seed of its
walks, whose step variance walk_variance checks (for ExperimentConfig
too), and propagate the transmit streams, the channel, the phase, and
the noise variance and seed.
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


def walk_variance(linewidth, baud):
    """The variance 2 pi linewidth / baud of one Wiener phase step. The
    linewidth must be >= 0 and finite, the baud positive, and the
    variance finite; a zero linewidth gives 0 at any baud."""
    if not 0 <= linewidth < np.inf:
        raise ValueError(f"linewidth={linewidth!r} must be >= 0 and finite")
    if baud <= 0:
        raise ValueError("baud must be positive")
    with np.errstate(over="ignore"):  # an infinite variance is rejected below
        variance = 2.0 * np.pi * linewidth / baud
    if not variance < np.inf:
        raise ValueError(
            f"baud={baud!r} gives linewidth={linewidth!r} an infinite phase walk "
            "variance 2 pi linewidth / baud"
        )
    return variance


def wiener_phase(n_symbols, n_rx, linewidth, baud, seed):
    """Per-receive-channel Wiener phase trajectories, (n_rx, n_symbols).

    phi[t+1] = phi[t] + delta with delta ~ N(0, walk_variance(linewidth,
    baud)) and phi[0] = 0, one independent walk per receive channel,
    drawn from seed.
    """
    sigma = np.sqrt(walk_variance(linewidth, baud))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # scaled and summed in place, one row at a time: the bits of
    # np.cumsum(sigma * draws, axis=1) without its two temporaries
    phi = rng.standard_normal((n_rx, n_symbols))
    phi *= sigma
    phi[:, 0] = 0.0
    for row in phi:
        np.cumsum(row, out=row)
    return phi


def propagate(symbols, h, phase, n0, seed):
    """Apply the MIMO system model to the (n_t, T) transmit streams
    through the (n_r, n_t) channel h; returns the (n_r, T) received
    streams.

    phase is the (n_r, T) receive phase, or None for none; n0 >= 0 is
    the complex noise variance, drawn from seed (n0 = 0 draws nothing).
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

    # complex even for a real channel and real symbols: written in place below
    y = (h @ symbols).astype(complex, copy=False)
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
