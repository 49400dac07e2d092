"""Carrier-asynchronous MIMO receive chain.

Training-based least-squares channel estimation, pilot-aided phase
tracking and cancellation, pilot-driven LMS equalization, and linear
MMSE or successive-interference-cancellation (SIC) decoding with greedy
max-SINR ordering.

A leaf module: it imports no other mdmfso module, and every channel
argument h is a plain (n_r, n_t) array, such as estimate_channel returns.
mmse_decode returns the (n_t, T) soft output and sic_decode the soft
output and its decode order; hard decisions are hard_decision of the
soft output.
"""

import numpy as np

MMSE_REGULARIZATION = 1e-12
PHASE_REFERENCE_FLOOR = 1e-6
# largest conditioning of a training block's Gram matrix S S^H
TRAINING_COND_LIMIT = 1e8


def estimate_channel(y_ts, s_ts):
    """Least squares Hhat = Y S^H (S S^H)^-1 over a training block.

    y_ts: (n_r, T_ts) received samples; s_ts: (n_t, T_ts) known symbols.
    Returns the (n_r, n_t) array Hhat; any static receive phase over the
    block is absorbed into it.
    """
    y_ts = np.asarray(y_ts)
    s_ts = np.asarray(s_ts)
    if y_ts.shape[1] != s_ts.shape[1]:
        raise ValueError("received and known TS blocks differ in length")
    if s_ts.shape[1] < s_ts.shape[0]:
        raise ValueError("TS shorter than the transmit channel count")
    gram = s_ts @ s_ts.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > TRAINING_COND_LIMIT:
        raise ValueError(
            f"training block is rank deficient (gram conditioning {cond:.3e}); "
            "channels must carry decorrelated training sequences"
        )
    h_hat = np.linalg.solve(gram.conj().T, (y_ts @ s_ts.conj().T).conj().T).conj().T
    if not np.all(np.isfinite(h_hat)):
        raise ValueError("channel estimate contains non-finite entries")
    return h_hat


def estimate_phase(y, pilot_times, pilot_symbols, h, window):
    """Pilot-aided (n_r, T) phase trajectories relative to the TS
    reference in the channel estimate h.

    At each pilot the rotation y_k conj((Hhat s_p)_k) is averaged over a
    sliding window of `window` pilots, converted to an angle, unwrapped,
    and linearly interpolated over the whole stream. Pilots whose
    reference magnitude falls below 1e-6 are skipped for that channel; a
    channel with fewer usable pilots than the window raises ValueError.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    y = np.asarray(y)
    pilot_times = np.asarray(pilot_times)
    ref = np.asarray(h) @ np.asarray(pilot_symbols)  # (n_r, n_pilots)
    rot = y[:, pilot_times] * np.conj(ref)
    n_r, total = y.shape
    kernel = np.ones(window) / window
    trajectory = np.zeros((n_r, total))
    times = np.arange(total)
    for k in range(n_r):
        valid = np.abs(ref[k]) >= PHASE_REFERENCE_FLOOR
        n_valid = np.count_nonzero(valid)
        if n_valid == 0:
            continue
        if n_valid < window:
            raise ValueError(
                f"phase window of {window} pilots exceeds the {n_valid} usable "
                f"pilots of receive channel {k}"
            )
        smoothed = np.convolve(rot[k, valid], kernel, mode="same")
        angles = np.unwrap(np.angle(smoothed))
        trajectory[k] = np.interp(times, pilot_times[valid], angles)
    return trajectory


def cancel_phase(y_r, phi):
    """Rotate the received streams by the conjugate of the phase
    trajectory phi (of the same shape as y_r)."""
    # exp(-1j * phi) as cos - j sin, bit for bit. Complex products are
    # not bitwise commutative; the phasor comes first, the order in
    # which numpy evaluated the former y_r * np.exp(-1j * phi) on
    # streams past its 256 KiB temporary-elision size.
    rot = np.empty(np.shape(phi), dtype=complex)
    np.cos(phi, out=rot.real)
    np.sin(phi, out=rot.imag)
    np.negative(rot.imag, out=rot.imag)
    rot *= np.asarray(y_r)
    return rot


def _shift_stack(y, taps):
    """(n_r, taps, T) zero-padded tap-delayed copies, center tap = y."""
    n_r, total = y.shape
    center = taps // 2
    out = np.zeros((n_r, taps, total), dtype=complex)
    for tau in range(taps):
        off = tau - center
        if off == 0:
            out[:, tau, :] = y
        elif off > 0:
            out[:, tau, :-off] = y[:, off:]
        else:
            out[:, tau, -off:] = y[:, :off]
    return out


def equalize(y, h, pilot_times, pilot_symbols, taps, step):
    """Pilot-driven LMS FIR bank restoring y ~ Hhat s.

    The n_r x n_r symbol-spaced bank starts as a center-tap identity and
    is updated only at pilot instants against the modified reference
    Hhat s_p (not s_p), so the MIMO decode stays with a later stage. The
    adapted bank is then applied to the full stream.
    """
    if taps % 2 != 1:
        raise ValueError("tap count must be odd")
    if step <= 0:
        raise ValueError("step must be positive")
    y = np.asarray(y)
    ref = np.asarray(h) @ np.asarray(pilot_symbols)
    n_r = y.shape[0]
    center = taps // 2
    weights = np.zeros((n_r, n_r, taps), dtype=complex)
    weights[np.arange(n_r), np.arange(n_r), center] = 1.0

    stacked = _shift_stack(y, taps)
    in_power = np.mean(np.abs(y) ** 2)
    for i, t in enumerate(np.asarray(pilot_times)):
        x = stacked[:, :, t]
        out = np.einsum("kjs,js->k", weights, x)
        if np.mean(np.abs(out) ** 2) > 10.0 * in_power:
            raise RuntimeError(
                f"equalizer diverged at pilot {i} (output power "
                f"{np.mean(np.abs(out) ** 2):.3e} vs input {in_power:.3e}); "
                "reduce the step size"
            )
        err = ref[:, i] - out
        weights += step * err[:, None, None] * np.conj(x)[None, :, :]
    return np.einsum("kjs,jst->kt", weights, stacked)


def _mmse_weights(h, n0):
    """Columns of (H H^H + n0 I)^-1 H, the per-channel MMSE combiners.

    Shared by mmse_decode and sic_decode so that the SIC first stage is
    bit-exactly the MMSE soft output. At n0 = 0 a singular H H^H is
    regularized with n0 = MMSE_REGULARIZATION.
    """
    n_r = h.shape[0]
    gram = h @ h.conj().T
    if n0 <= 0 and np.linalg.matrix_rank(gram) < n_r:
        n0 = MMSE_REGULARIZATION
    return np.linalg.solve(gram + n0 * np.eye(n_r), h)


def _post_sinr(w, h):
    """Post-detection SINR per column of the MMSE weights w for h:
    rho/(1-rho), rho = w_k^H h_k."""
    rho = np.real(np.einsum("rk,rk->k", np.conj(w), h))
    rho = np.clip(rho, 0.0, 1.0 - 1e-15)
    return rho / (1.0 - rho)


# hard_decision's output per sign pattern, indexed by (Re < 0) + 2 (Im < 0)
_QPSK_CORNERS = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)


def hard_decision(soft):
    """Nearest QPSK point; boundary values resolve toward the positive
    quadrant via the non-strict comparisons, and NaN toward the negative."""
    s = np.asarray(soft)
    negative_re = ~(s.real >= 0)
    negative_im = ~(s.imag >= 0)
    return _QPSK_CORNERS[negative_re + 2 * negative_im.view(np.uint8)]


def mmse_decode(y, h, n0):
    """Linear MMSE decode: the (n_t, T) soft output
    shat = [(H H^H + n0 I)^-1 H]^H y."""
    y = np.asarray(y)
    h = np.asarray(h)
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    w = _mmse_weights(h, n0)
    return w.conj().T @ y


def _sic_stages(h, n0):
    """The greedy order and the MMSE combiners of every SIC stage, in one
    pass.

    Stage s combines against the columns not decoded before it, kept in
    index order, so stage 1 combines against H itself. The decoded
    channel of each stage is the remaining channel of highest
    post-detection SINR (ties to the lowest index). Returns (order,
    first, w): first holds the stage-1 combiners of every channel and
    w[:, s] is the combiner of stage s.
    """
    n_r, n_t = h.shape
    remaining = list(range(n_t))
    picked = []
    w = np.empty((n_r, n_t), dtype=complex)
    for s in range(n_t):
        w_s = _mmse_weights(h[:, remaining], n0)
        stage_sinr = _post_sinr(w_s, h[:, remaining])
        # argmax returns the first maximum; remaining is kept ascending
        pos = int(np.argmax(stage_sinr))
        k = remaining.pop(pos)
        picked.append(k)
        if s == 0:
            first = w_s
        w[:, s] = w_s[:, pos]
    return tuple(picked), first, w


def sic_order(h, n0):
    """Greedy V-BLAST ordering by maximal post-detection MMSE SINR.

    At each stage the highest-SINR remaining channel (ties to the lowest
    index) is decoded and its column removed.
    """
    return _sic_stages(np.asarray(h), n0)[0]


def sic_decode(y, h, n0):
    """Successive interference cancellation in the greedy max-SINR decode
    order of sic_order.

    Stage s MMSE-combines against the not-yet-decoded columns after the
    already-decoded channels are cancelled. The cancellation runs in
    coefficient space: with z = W^H y for the stage combiners W and
    c = W^H H[:, order], stage s's soft output is
    w_s^H (y - sum_{j<s} h_j hard_j) = z_s - sum_{j<s} c_sj hard_j, so
    the received stream is neither rebuilt nor combined again per stage.
    Stage 1 cancels nothing; its row comes from the full product of the
    stage-1 (MMSE) combiners with y, formed as in mmse_decode, so it
    equals the MMSE soft output bit for bit. Returns (soft, order): the
    (n_t, T) soft output and the decode order of the transmit channels.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    n_t = h.shape[1]
    order, first, w = _sic_stages(h, n0)

    # the MMSE soft output, whose row order[0] is stage 1's; the rows of
    # later stages are replaced in turn. hard holds one row per stage.
    soft = first.conj().T @ y
    z = w[:, 1:].conj().T @ y
    c = w.conj().T @ h[:, order]
    hard = np.empty_like(soft)
    hard[0] = hard_decision(soft[order[0]])
    for s in range(1, n_t):
        soft[order[s]] = z[s - 1] - c[s, :s] @ hard[:s]
        hard[s] = hard_decision(soft[order[s]])
    return soft, order
