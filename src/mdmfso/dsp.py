"""Carrier-asynchronous MIMO receive chain.

Training-based least-squares channel estimation, pilot-aided phase
tracking and cancellation, pilot-driven LMS equalization, and linear
MMSE or successive-interference-cancellation (SIC) decoding with greedy
max-SINR ordering.
"""

from dataclasses import dataclass

import numpy as np

from .framing import qpsk_demap

MMSE_REGULARIZATION = 1e-12
PHASE_REFERENCE_FLOOR = 1e-6


@dataclass(frozen=True)
class ChannelEstimate:
    """Least-squares channel estimate with its fit residual power."""

    h_hat: np.ndarray
    residual: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.h_hat)):
            raise ValueError("channel estimate contains non-finite entries")

    @property
    def n_r(self):
        return self.h_hat.shape[0]

    @property
    def n_t(self):
        return self.h_hat.shape[1]


@dataclass(frozen=True)
class PhaseEstimate:
    """Per-receive-channel unwrapped phase trajectory, (n_r, T)."""

    trajectory: np.ndarray
    window: int


@dataclass(frozen=True)
class DecodeResult:
    """Soft and hard decoder outputs plus the decode bookkeeping.

    soft / hard: (n_t, T); order: transmit channel decode order (SIC) or
    natural order (MMSE); sinr: per-channel post-detection SINR estimate
    at the decode stage; regularized: the n0=0 singular guard fired.
    """

    soft: np.ndarray
    hard: np.ndarray
    order: tuple
    sinr: np.ndarray
    regularized: bool = False

    def bits(self):
        return qpsk_demap(self.hard)


def estimate_channel(y_ts, s_ts, cond_limit=1e8):
    """Least squares Hhat = Y S^H (S S^H)^-1 over a training block.

    y_ts: (n_r, T_ts) received samples; s_ts: (n_t, T_ts) known symbols.
    Any static receive phase over the block is absorbed into Hhat.
    """
    y_ts = np.asarray(y_ts)
    s_ts = np.asarray(s_ts)
    if y_ts.shape[1] != s_ts.shape[1]:
        raise ValueError("received and known TS blocks differ in length")
    if s_ts.shape[1] < s_ts.shape[0]:
        raise ValueError("TS shorter than the transmit channel count")
    gram = s_ts @ s_ts.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_limit:
        raise ValueError(
            f"training block is rank deficient (gram conditioning {cond:.3e}); "
            "channels must carry decorrelated training sequences"
        )
    h_hat = np.linalg.solve(gram.conj().T, (y_ts @ s_ts.conj().T).conj().T).conj().T
    residual = float(np.mean(np.abs(y_ts - h_hat @ s_ts) ** 2))
    return ChannelEstimate(h_hat=h_hat, residual=residual)


def estimate_phase(y, pilot_times, pilot_symbols, h_hat, window=8):
    """Pilot-aided phase trajectories relative to the TS reference in h_hat.

    At each pilot the rotation y_k conj((Hhat s_p)_k) is averaged over a
    sliding window of `window` pilots, converted to an angle, unwrapped,
    and linearly interpolated over the whole stream. Pilots whose
    reference magnitude falls below 1e-6 are skipped for that channel.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    y = np.asarray(y)
    pilot_times = np.asarray(pilot_times)
    h = h_hat.h_hat if isinstance(h_hat, ChannelEstimate) else np.asarray(h_hat)
    ref = h @ np.asarray(pilot_symbols)  # (n_r, n_pilots)
    rot = y[:, pilot_times] * np.conj(ref)
    n_r, total = y.shape
    kernel = np.ones(window) / window
    trajectory = np.zeros((n_r, total))
    times = np.arange(total)
    for k in range(n_r):
        valid = np.abs(ref[k]) >= PHASE_REFERENCE_FLOOR
        if valid.sum() == 0:
            continue
        smoothed = np.convolve(rot[k, valid], kernel, mode="same")
        angles = np.unwrap(np.angle(smoothed))
        trajectory[k] = np.interp(times, pilot_times[valid], angles)
    return PhaseEstimate(trajectory=trajectory, window=window)


def cancel_phase(y_r, phase_estimate):
    """Rotate the received streams by the conjugate phase trajectory."""
    phi = (
        phase_estimate.trajectory
        if isinstance(phase_estimate, PhaseEstimate)
        else np.asarray(phase_estimate)
    )
    return np.asarray(y_r) * np.exp(-1j * phi)


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


def equalize(y, h_hat, pilot_times, pilot_symbols, taps=7, step=1e-3):
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
    h = h_hat.h_hat if isinstance(h_hat, ChannelEstimate) else np.asarray(h_hat)
    ref = h @ np.asarray(pilot_symbols)
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
    bit-exactly the MMSE soft output. Returns (weights, regularized).
    """
    n_r = h.shape[0]
    gram = h @ h.conj().T
    regularized = False
    if n0 <= 0 and np.linalg.matrix_rank(gram) < n_r:
        n0 = MMSE_REGULARIZATION
        regularized = True
    return np.linalg.solve(gram + n0 * np.eye(n_r), h), regularized


def _post_sinr(w, h):
    """Post-detection SINR per column of the MMSE weights w for h:
    rho/(1-rho), rho = w_k^H h_k."""
    rho = np.real(np.einsum("rk,rk->k", np.conj(w), h))
    rho = np.clip(rho, 0.0, 1.0 - 1e-15)
    return rho / (1.0 - rho)


def hard_decision(soft):
    """Nearest QPSK point; boundary values resolve toward the positive
    quadrant via the non-strict comparisons."""
    s = np.asarray(soft)
    return (np.where(s.real >= 0, 1.0, -1.0) + 1j * np.where(s.imag >= 0, 1.0, -1.0)) / np.sqrt(2.0)


def mmse_decode(y, h_hat, n0):
    """Linear MMSE decode: shat = [(H H^H + n0 I)^-1 H]^H y."""
    y = np.asarray(y)
    h = h_hat.h_hat if isinstance(h_hat, ChannelEstimate) else np.asarray(h_hat)
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    w, regularized = _mmse_weights(h, n0)
    soft = w.conj().T @ y
    return DecodeResult(
        soft=soft,
        hard=hard_decision(soft),
        order=tuple(range(h.shape[1])),
        sinr=_post_sinr(w, h),
        regularized=regularized,
    )


def sic_order(h_hat, n0):
    """Greedy V-BLAST ordering by maximal post-detection MMSE SINR.

    At each stage the highest-SINR remaining channel (ties to the lowest
    index) is decoded and its column removed.
    """
    h = h_hat.h_hat if isinstance(h_hat, ChannelEstimate) else np.asarray(h_hat)
    remaining = list(range(h.shape[1]))
    order = []
    while remaining:
        w, _ = _mmse_weights(h[:, remaining], n0)
        sinr = _post_sinr(w, h[:, remaining])
        # argmax returns the first maximum; remaining is kept ascending
        best = remaining[int(np.argmax(sinr))]
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def sic_decode(y, h_hat, n0, order=None):
    """Successive interference cancellation along the given decode order.

    Stage k: subtract the reconstructed already-decoded channels from y,
    MMSE-combine against the matrix of not-yet-decoded columns, slice.
    Stage 1 performs no cancellation and equals the MMSE soft output.
    """
    y = np.asarray(y)
    h = h_hat.h_hat if isinstance(h_hat, ChannelEstimate) else np.asarray(h_hat)
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    n_t = h.shape[1]
    if order is None:
        order = sic_order(h, n0)
    if sorted(order) != list(range(n_t)):
        raise ValueError("order must be a permutation of the transmit channels")

    soft = np.empty((n_t, y.shape[1]), dtype=complex)
    hard = np.empty_like(soft)
    sinr = np.empty(n_t)
    regularized = False
    y_clean = y.copy()
    remaining = list(range(n_t))
    for k in order:
        # keep remaining columns in original index order: at stage 1 the
        # submatrix is H itself, making the soft output bit-equal to MMSE
        w, reg = _mmse_weights(h[:, remaining], n0)
        regularized = regularized or reg
        pos = remaining.index(k)
        # full matrix product keeps stage-1 arithmetic identical to
        # mmse_decode (same BLAS path), so the outputs are bit-equal
        soft[k] = (w.conj().T @ y_clean)[pos]
        hard[k] = hard_decision(soft[k])
        sinr[k] = _post_sinr(w, h[:, remaining])[pos]
        y_clean = y_clean - np.outer(h[:, k], hard[k])
        remaining.remove(k)
    return DecodeResult(
        soft=soft, hard=hard, order=tuple(order), sinr=sinr, regularized=regularized
    )
