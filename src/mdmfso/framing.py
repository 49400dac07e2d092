"""Pilot-aided DP-QPSK frame construction with decorrelation delays.

Each frame is a 1680-symbol training sequence followed by a payload in
which every 10th symbol is a pilot (1 pilot + 9 data). Data bits come
from a PRBS-15 generator and are Gray-mapped to QPSK; a Frame keeps the
symbols only, since qpsk_demap gives the bits back. Training and pilots
are seeded balanced QPSK.
Channels of one spatial mode share the mode's decorrelation delay while
the X/Y tributaries carry independent data; the whole stream is
cyclically shifted by the delay.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# root seeds of the training, pilot and data streams (see _channel_seeds)
TS_SEED = 101
PILOT_SEED = 202
DATA_SEED = 303

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)

_PRBS_LEN = 2 ** 15 - 1


@lru_cache(maxsize=1)
def _prbs15_tables():
    """One full period of the maximal PRBS-15 (x^15 + x^14 + 1) plus a
    state -> phase lookup; every nonzero state is a phase of one cycle.
    Built on the first prbs15 call, so that importing costs nothing."""
    period = np.empty(_PRBS_LEN, dtype=np.uint8)
    state_pos = {}
    state = 1
    for i in range(_PRBS_LEN):
        state_pos[state] = i
        fb = ((state >> 14) ^ (state >> 13)) & 1
        state = ((state << 1) | fb) & 0x7FFF
        period[i] = fb
    period.flags.writeable = False
    return period, state_pos


def prbs15(state, n):
    """n bits of the PRBS-15 sequence starting from the given LFSR state."""
    if not 0 < state < 2 ** 15:
        raise ValueError("PRBS-15 state must be a nonzero 15-bit integer")
    period, state_pos = _prbs15_tables()
    start = state_pos[state]
    reps = -(-(start + n) // _PRBS_LEN)
    return np.tile(period, reps)[start : start + n].copy()


def qpsk_map(bits):
    """Gray-map bit pairs to unit-energy QPSK symbols ((0,0) -> (1+j)/sqrt 2)."""
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError("bit count must be even")
    b0, b1 = bits.reshape(-1, 2).T
    # (0,0), (0,1), (1,1), (1,0) -> QPSK[0], ..., QPSK[3]
    return QPSK[2 * b0 + (b0 ^ b1)]


def qpsk_demap(symbols):
    """Hard Gray demap; returns a bit-pair array of shape symbols.shape + (2,)."""
    s = np.asarray(symbols)
    b0 = (s.imag < 0).astype(np.uint8)
    b1 = (s.real < 0).astype(np.uint8)
    return np.stack([b0, b1], axis=-1)


def balanced_qpsk(seed, n):
    """Seeded random permutation of an exactly balanced QPSK block."""
    if n % 4 != 0:
        raise ValueError("length must be divisible by 4")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    block = np.repeat(np.arange(4), n // 4)
    return QPSK[rng.permutation(block)]


@dataclass(frozen=True)
class FrameLayout:
    frame_len: int = 20000
    ts_len: int = 1680
    pilot_period: int = 10

    def __post_init__(self):
        if self.pilot_period < 1:
            raise ValueError(f"pilot_period={self.pilot_period!r} must be >= 1")
        if (self.frame_len - self.ts_len) % self.pilot_period != 0:
            raise ValueError("payload length must divide into pilot periods")
        if self.ts_len % 6 != 0:
            raise ValueError("ts_len must be divisible by 6 (delay granularity)")
        if self.ts_len % 4 != 0:
            raise ValueError("ts_len must be divisible by 4 (balanced QPSK)")

    @property
    def payload_len(self):
        return self.frame_len - self.ts_len

    @property
    def pilots_per_frame(self):
        return self.payload_len // self.pilot_period

    @property
    def data_per_frame(self):
        return self.payload_len - self.pilots_per_frame

    @property
    def delay_step(self):
        return self.ts_len // 6


@dataclass(frozen=True)
class Frame:
    """Per-channel symbol streams with TS/pilot/data bookkeeping.

    symbols: (n_channels, T) complex, unit average energy per channel.
    ts_mask / pilot_mask / data_mask: (n_channels, T) booleans partitioning
    each stream. The data bits are not stored: qpsk_demap of the data
    symbols gives them back.
    """

    symbols: np.ndarray
    ts_mask: np.ndarray
    pilot_mask: np.ndarray
    data_mask: np.ndarray

    @property
    def n_symbols(self):
        return self.symbols.shape[1]

    def joint_ts_times(self):
        """Times where every channel is inside its training sequence."""
        return np.flatnonzero(self.ts_mask.all(axis=0))

    def joint_known_times(self):
        """Times where the full transmit vector is known (TS or pilot).

        With delays that are multiples of the pilot period this grid
        covers the whole stream at the pilot rate, so phase tracking
        never extrapolates across the staggered training sequences.
        """
        known = self.ts_mask | self.pilot_mask
        return np.flatnonzero(known.all(axis=0))


def _channel_seeds(channel):
    pol = channel % 2
    return {
        # X/Y tributaries of every mode carry the per-polarization TS
        "ts": int(np.random.SeedSequence([TS_SEED, pol]).generate_state(1)[0]),
        "pilot": int(np.random.SeedSequence([PILOT_SEED, channel]).generate_state(1)[0]),
        "data": int(np.random.SeedSequence([DATA_SEED, channel]).generate_state(1)[0]),
    }


def assemble_frames(layout, n_channels, n_frames, delays):
    """Build the multi-channel frame stream.

    delays holds one cyclic shift (in symbols) per channel; channels of
    one mode are expected in (X, Y) adjacent order sharing the mode delay.
    """
    if len(delays) != n_channels:
        raise ValueError("need one delay per channel")
    if any(d < 0 or d >= layout.frame_len for d in delays):
        raise ValueError("delays must lie in [0, frame_len)")
    seeds = [_channel_seeds(ch) for ch in range(n_channels)]
    # two channels sharing both a delay and a TS seed carry identical known
    # sequences, which breaks the channel estimator's rank guarantee
    keys = [(delays[ch], seeds[ch]["ts"]) for ch in range(n_channels)]
    if len(set(keys)) != n_channels:
        raise ValueError("duplicate (delay, seed) pair would fully correlate channels")

    total = n_frames * layout.frame_len
    symbols = np.empty((n_channels, total), dtype=complex)
    ts_mask = np.zeros((n_channels, total), dtype=bool)
    pilot_mask = np.zeros((n_channels, total), dtype=bool)
    data_mask = np.zeros((n_channels, total), dtype=bool)

    base_ts = np.zeros(layout.frame_len, dtype=bool)
    base_ts[: layout.ts_len] = True
    base_pilot = np.zeros(layout.frame_len, dtype=bool)
    base_pilot[layout.ts_len :: layout.pilot_period] = True
    base_data = ~(base_ts | base_pilot)
    ts_tiled = np.tile(base_ts, n_frames)
    pilot_tiled = np.tile(base_pilot, n_frames)
    data_tiled = np.tile(base_data, n_frames)
    n_data_bits = int(data_tiled.sum()) * 2
    n_pilots = int(pilot_tiled.sum())

    for ch in range(n_channels):
        ts = balanced_qpsk(seeds[ch]["ts"], layout.ts_len)
        pilots = balanced_qpsk(seeds[ch]["pilot"], n_pilots)
        # PRBS state: any nonzero 15-bit phase derived from the channel seed
        state = seeds[ch]["data"] % (2 ** 15 - 1) + 1
        bits = prbs15(state, n_data_bits)
        stream = np.empty(total, dtype=complex)
        stream[ts_tiled] = np.tile(ts, n_frames)
        stream[pilot_tiled] = pilots
        stream[data_tiled] = qpsk_map(bits)
        shift = delays[ch]
        symbols[ch] = np.roll(stream, shift)
        ts_mask[ch] = np.roll(ts_tiled, shift)
        pilot_mask[ch] = np.roll(pilot_tiled, shift)
        data_mask[ch] = np.roll(data_tiled, shift)

    # one Frame serves every realization of a call: no stray write may
    # change what the later ones transmit
    for array in (symbols, ts_mask, pilot_mask, data_mask):
        array.setflags(write=False)
    return Frame(
        symbols=symbols,
        ts_mask=ts_mask,
        pilot_mask=pilot_mask,
        data_mask=data_mask,
    )


def mode_delays(layout, n_modes):
    """Per-channel delay schedule: mode m delayed by m * ts_len/6, X and Y
    of one mode sharing the delay; wraps modulo frame_len beyond 6 modes."""
    out = []
    for mode in range(n_modes):
        d = (mode * layout.delay_step) % layout.frame_len
        out.extend([d, d])
    return out
