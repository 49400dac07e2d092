"""End-to-end experiment orchestration.

Ties the pipeline together (screens -> modal coupling -> framing ->
channel -> receive DSP), computes link metrics (BER, EVM, outage,
scintillation index, net spectral efficiency), and emits deterministic
CSV / JSON reports for single runs, OSNR sweeps and Monte-Carlo
ensembles. The channel is a plain (n_r, n_t) array from optics on, and
channel and dsp take and return plain values: harness hands them the
config's linewidth, baud, noise variance, seeds and ISI taps, and
unwraps Frame.symbols for them. It is the one module that writes report
files, through write_csv and write_json. A report keeps what the
program reads of a decode: the bit and soft-symbol errors scored from
its soft output, and its decode order, the natural order for MMSE.
ExperimentConfig checks every input where it enters, the screen
geometry, the mode waist and the pixels that sample it included, so
that no layer below it sees a config it cannot build.

The entry points are run_realization, sweep_osnr, monte_carlo and
screen_statistics, one per CLI subcommand that computes. Each call
builds what its realizations share once: monte_carlo and sweep_osnr
build one optics.ModalCoupler, through which every coupling goes, and
one set of transmit frames; sweep_osnr also builds its one channel
matrix. run_realization, called alone, builds its own. Their
realizations and OSNR points then run on the ordered worker map of
screens._ordered_map, in input order. screen_statistics builds one
coupler and makes one pass over a streamed screen ensemble, which
yields both the structure function and the captured-power statistics.

A realization's screen is made in one place, build_channel (through
realization_screen). Several mode sets share one turbulence ensemble by
their channel matrices: a caller couples each realization screen once
per mode set and hands each set's matrices to monte_carlo(config,
channels=...), which then builds no coupler and makes no screen.
"""

from dataclasses import dataclass, asdict, fields, replace
import json
import math
import numbers

import numpy as np

from . import channel as channel_mod
from . import dsp, optics, screens
from .optics import ModalCoupler
from .framing import FrameLayout, assemble_frames, mode_delays

HD_FEC_LIMIT = 4.7e-3
DECODERS = ("mmse", "sic")
BER_BINS_PER_DECADE = 2
# a mode waist spans at least this many raster pixels; the energy check
# of optics.mode_field catches clipping, not a mode sampled by a few
# pixels
_MIN_WAIST_PIXELS = 10


# element type of each tuple-valued ExperimentConfig field
_TUPLE_ITEMS = {
    "tx_modes": str,
    "rx_modes": str,
    "osnr_grid": float,
    "isi_taps": complex,
}
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Number}


def _valid(value, kind):
    """Whether a config value has the type kind.

    Bools are not numbers, ints pass as floats unless too large for one,
    and NaN never passes. Infinity does: osnr_db = inf means a noiseless
    channel (and -inf is rejected by ExperimentConfig).
    """
    is_bool = isinstance(value, (bool, np.bool_))
    if kind is bool or is_bool:
        return kind is bool and is_bool
    if kind in _NUMBER_KINDS:
        if not isinstance(value, _NUMBER_KINDS[kind]) or value != value:
            return False
        try:
            kind(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment bit-exactly."""

    fried: float = 0.8e-3
    grid_size: int = 960
    physical_length: float = 8.832e-3
    outer_scale: float = 10.0
    inner_scale: float = 1e-4
    subharmonic_levels: int = 8

    tx_modes: tuple = optics.TX_MODES
    rx_modes: tuple = optics.RX_MODES
    waist: float = optics.DEFAULT_WAIST
    aperture_diameter: float = 8.4e-3

    channel_kind: str = "turbulent"  # turbulent | blank | unitary
    genie_csi: bool = False

    osnr_db: float = 36.0
    osnr_grid: tuple = ()
    baud: float = channel_mod.DEFAULT_BAUD
    linewidth: float = 1e5

    frame_len: int = 20000
    ts_len: int = 1680
    pilot_period: int = 10
    n_frames: int = 2

    pilot_window: int = 8
    use_equalizer: bool = False
    equalizer_taps: int = 7
    equalizer_step: float = 1e-3
    isi_taps: tuple = (1.0,)

    realizations: int = 120
    decoder: str = "both"  # mmse | sic | both
    seed: int = 0
    hd_fec: float = HD_FEC_LIMIT

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if not _valid(value, kind) or (
                kind is tuple
                and not all(_valid(v, _TUPLE_ITEMS[f.name]) for v in value)
            ):
                raise ValueError(
                    f"config {f.name}={value!r} is not a valid {kind.__name__}"
                )
        if self.decoder not in ("mmse", "sic", "both"):
            raise ValueError("decoder must be one of mmse, sic, both")
        if self.channel_kind not in ("turbulent", "blank", "unitary"):
            raise ValueError("channel_kind must be turbulent, blank or unitary")
        if self.n_frames < 1 or self.realizations < 1:
            raise ValueError("n_frames and realizations must be >= 1")
        # the screen geometry and every mode, as the coupler and the
        # screens will build them
        try:
            self.screen_config()
            for label in (*self.tx_modes, *self.rx_modes):
                optics.ModeSpec.lp(label, self.waist)
        except ValueError as exc:
            raise ValueError(f"config {exc}") from None
        if self.grid_size < _MIN_WAIST_PIXELS * (self.physical_length / self.waist):
            raise ValueError(
                f"config waist={self.waist!r} spans fewer than {_MIN_WAIST_PIXELS} "
                f"pixels of a raster of physical_length={self.physical_length!r} "
                f"and grid_size={self.grid_size!r}"
            )
        if not self.aperture_diameter > 0:
            raise ValueError(
                f"config aperture_diameter={self.aperture_diameter!r} must be positive"
            )
        if self.aperture_diameter > self.physical_length:
            raise ValueError(
                f"config aperture_diameter={self.aperture_diameter!r} exceeds "
                f"the raster's physical_length={self.physical_length!r}"
            )
        if not self.tx_modes or not self.rx_modes:
            raise ValueError("config tx_modes and rx_modes must each name a mode")
        if not 0 < self.baud < np.inf:
            raise ValueError(f"config baud={self.baud!r} must be positive and finite")
        for osnr in (self.osnr_db, *self.osnr_grid):
            try:
                channel_mod.osnr_to_n0(osnr, self.baud)
            except ValueError as exc:
                raise ValueError(f"config osnr_db or osnr_grid is {osnr} dB: {exc}") from None
        if self.layout.data_per_frame < 1:
            raise ValueError("config frame_len, ts_len and pilot_period leave no data symbol")
        pilots = self.layout.pilots_per_frame * self.n_frames
        if pilots % 4 != 0:
            raise ValueError(
                f"config frame_len, ts_len, pilot_period and n_frames give {pilots} "
                "pilots per stream; balanced QPSK needs a multiple of 4"
            )
        if not 0 <= self.linewidth < np.inf:
            raise ValueError(f"config linewidth={self.linewidth!r} must be >= 0 and finite")
        try:
            channel_mod.unit_energy_taps(self.isi_taps)
        except ValueError as exc:
            raise ValueError(f"config isi_taps={self.isi_taps!r}: {exc}") from None
        if self.pilot_window < 1:
            raise ValueError(f"config pilot_window={self.pilot_window!r} must be >= 1")
        if self.equalizer_taps < 1 or self.equalizer_taps % 2 != 1:
            raise ValueError(f"config equalizer_taps={self.equalizer_taps!r} must be odd and >= 1")
        if not 0 < self.equalizer_step < np.inf:
            raise ValueError(
                f"config equalizer_step={self.equalizer_step!r} must be positive and finite"
            )
        if not 0 < self.hd_fec < 1:
            raise ValueError(f"config hd_fec={self.hd_fec!r} must lie in (0, 1)")

    @property
    def n_t(self):
        return 2 * len(self.tx_modes)

    @property
    def n_r(self):
        return 2 * len(self.rx_modes)

    @property
    def decoders(self):
        return DECODERS if self.decoder == "both" else (self.decoder,)

    @property
    def layout(self):
        return FrameLayout(
            frame_len=self.frame_len,
            ts_len=self.ts_len,
            pilot_period=self.pilot_period,
        )

    def screen_config(self, seed=None):
        return screens.ScreenConfig(
            fried=self.fried,
            grid_size=self.grid_size,
            physical_length=self.physical_length,
            outer_scale=self.outer_scale,
            inner_scale=self.inner_scale,
            subharmonic_levels=self.subharmonic_levels,
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError(
                "a config must be a JSON object of ExperimentConfig keys, "
                f"not {type(data).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        for key in _TUPLE_ITEMS:
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        return cls(**data)


@dataclass(frozen=True)
class RunReport:
    """Per-realization, per-decoder link report."""

    realization: int
    decoder: str
    ber: tuple
    evm_pct: tuple
    sic_order: tuple
    outage: bool
    data_bits: int

    def __post_init__(self):
        if any(b < 0 or b > 1 for b in self.ber):
            raise ValueError("per-channel BER out of [0, 1]")

    @property
    def ber_avg(self):
        return float(np.mean(self.ber))

    @property
    def ber_min(self):
        return float(np.min(self.ber))

    @property
    def ber_max(self):
        return float(np.max(self.ber))

    @property
    def error_free(self):
        """No bit error on any channel."""
        return not any(self.ber)

    @property
    def ber_bound(self):
        """Average BER, floored at the counting resolution when error-free."""
        return max(self.ber_avg, 1.0 / self.data_bits) if self.error_free else self.ber_avg

    @property
    def evm_avg(self):
        return float(np.mean(self.evm_pct))


def _seed(seed, *path):
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def realization_screen(config, realization):
    """The turbulence screen of Monte-Carlo realization `realization`,
    seeded [seed, 0, realization] (see README, Determinism)."""
    return screens.generate_screen(
        config.screen_config(seed=_seed(config.seed, 0, realization))
    )


def build_channel(config, realization, coupler=None):
    """True channel array for one realization of the configured kind;
    a turbulent one couples realization_screen(config, realization)."""
    if config.channel_kind == "unitary":
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 3, realization])
        )
        # a Haar-random unitary: Q of the QR factorization of a complex
        # Gaussian matrix, column j times the phase of R's diagonal entry
        # d_j; the draws and operations of scipy's unitary_group.rvs, so
        # the same bits
        n = config.n_r
        z = 1 / math.sqrt(2) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q, r = np.linalg.qr(z)
        d = r.diagonal()
        q *= d / abs(d)
        return q[:, : config.n_t]
    if coupler is None:
        coupler = ModalCoupler(config)
    if config.channel_kind == "blank":
        return coupler.channel_matrix(None)
    return coupler.channel_matrix(realization_screen(config, realization))


def build_frames(config):
    """The transmit frames of the configured layout and mode delays; the
    same for every realization and OSNR point of a config."""
    layout = config.layout
    return assemble_frames(
        layout, config.n_t, config.n_frames, mode_delays(layout, len(config.tx_modes))
    )


def _frame_windows(frame, layout, n_frames):
    """Per frame: (slice, joint TS times, known-vector times), frame-local.

    Phase tracking and equalizer updates use every instant where the
    whole transmit vector is known (TS or pilot on each channel), which
    covers the stream at the pilot rate thanks to the delay schedule.
    """
    ts_all = frame.joint_ts_times()
    pilots_all = frame.joint_known_times()
    windows = []
    for f in range(n_frames):
        lo, hi = f * layout.frame_len, (f + 1) * layout.frame_len
        ts = ts_all[(ts_all >= lo) & (ts_all < hi)] - lo
        pil = pilots_all[(pilots_all >= lo) & (pilots_all < hi)] - lo
        windows.append((slice(lo, hi), ts, pil))
    return windows


def decode_stream(y, frame, config, n0, h):
    """Frame-by-frame receive DSP over a full stream; h is the true
    (n_r, n_t) channel array, which genie-CSI mode decodes with in place
    of the estimate.

    Returns per decoder a dict with per-channel bit errors, squared
    soft errors and data-symbol counts (two bits each), and the frame-0
    decode order.
    """
    layout = config.layout
    n_t = config.n_t
    acc = {
        d: {
            "bit_err": np.zeros(n_t),
            "err2": np.zeros(n_t),
            "syms": np.zeros(n_t),
            "order": None,
        }
        for d in config.decoders
    }
    for sl, ts_local, pilot_local in _frame_windows(frame, layout, config.n_frames):
        y_f = y[:, sl]
        pilots = frame.symbols[:, sl][:, pilot_local]
        if config.genie_csi:
            # theoretical-reference mode: known channel, no carrier
            # imperfection, so the tracker would only add self-noise
            h_hat = h
            y_c = y_f
        else:
            h_hat = dsp.estimate_channel(
                y_f[:, ts_local], frame.symbols[:, sl][:, ts_local]
            )
            phase = dsp.estimate_phase(
                y_f, pilot_local, pilots, h_hat, window=config.pilot_window
            )
            y_c = dsp.cancel_phase(y_f, phase)
        if config.use_equalizer:
            y_c = dsp.equalize(
                y_c,
                h_hat,
                pilot_local,
                pilots,
                taps=config.equalizer_taps,
                step=config.equalizer_step,
            )
        sent = frame.symbols[:, sl]
        dmask = frame.data_mask[:, sl]
        off_data = ~dmask
        syms = np.count_nonzero(dmask, axis=1)
        # the sent Gray bits (Im < 0, Re < 0)
        sent_im, sent_re = sent.imag < 0, sent.real < 0
        for name in config.decoders:
            if name == "mmse":
                # MMSE decodes every channel at once, in natural order
                soft, order = dsp.mmse_decode(y_c, h_hat, n0), tuple(range(n_t))
            else:
                soft, order = dsp.sic_decode(y_c, h_hat, n0)
            if acc[name]["order"] is None:
                acc[name]["order"] = order
            # hard_decision sends a component >= 0 to the bit 0 and any
            # other value (NaN too) to 1, so a decoded bit is wrong exactly
            # where (component >= 0) equals the sent bit
            wrong_im = ((soft.imag >= 0) == sent_im) & dmask
            wrong_re = ((soft.real >= 0) == sent_re) & dmask
            err2 = np.abs(soft - sent) ** 2
            err2[off_data] = 0.0
            acc[name]["bit_err"] += np.count_nonzero(wrong_im, axis=1)
            acc[name]["bit_err"] += np.count_nonzero(wrong_re, axis=1)
            acc[name]["err2"] += err2.sum(axis=1)
            acc[name]["syms"] += syms
            # freed before the next decoder allocates its own output
            del soft, wrong_im, wrong_re, err2
    return acc


def run_realization(config, realization=0, coupler=None, h=None, frame=None):
    """One full pipeline pass; paired decoders share the received samples.

    coupler, h and frame let a caller pass what it built once (see
    build_channel and build_frames); each is built here when None, and
    the coupler is not used when h is given. A given h must be a finite
    (config.n_r, config.n_t) array; it and the realization index are
    checked before anything is drawn.
    """
    if realization < 0:
        raise ValueError(f"realization={realization!r} must be >= 0")
    if h is None:
        h = build_channel(config, realization, coupler=coupler)
    else:
        h = np.asarray(h)
        if h.shape != (config.n_r, config.n_t) or not np.all(np.isfinite(h)):
            raise ValueError(
                f"realization {realization}: the given channel of shape {h.shape} "
                f"is not a finite ({config.n_r}, {config.n_t}) array"
            )
    if frame is None:
        frame = build_frames(config)
    n0 = channel_mod.osnr_to_n0(config.osnr_db, config.baud)
    phase = channel_mod.wiener_phase(
        frame.n_symbols,
        config.n_r,
        0.0 if config.genie_csi else config.linewidth,
        config.baud,
        _seed(config.seed, 1, realization),
    )
    y = channel_mod.propagate(
        frame.symbols, h, phase, n0, _seed(config.seed, 2, realization), config.isi_taps
    )
    del phase  # the receiver tracks its own; free the true trajectory

    acc = decode_stream(y, frame, config, n0, h)
    reports = {}
    for name, a in acc.items():
        ber = tuple(a["bit_err"] / (2 * a["syms"]))
        evm = tuple(100.0 * np.sqrt(a["err2"] / a["syms"]))
        avg = float(np.mean(ber))
        reports[name] = RunReport(
            realization=realization,
            decoder=name,
            ber=ber,
            evm_pct=evm,
            sic_order=a["order"],
            outage=bool(avg > config.hd_fec),
            data_bits=int(2 * a["syms"].sum()),
        )
    return reports


def sweep_osnr(config):
    """BER vs OSNR on a fixed channel; noise is re-drawn per grid point.

    Returns a list of row dicts (osnr_db, decoder, ber_avg/min/max,
    outage) sorted by OSNR then decoder.
    """
    if not config.osnr_grid:
        raise ValueError("osnr_grid must be nonempty for a sweep")
    h = build_channel(config, 0)
    frame = build_frames(config)
    points = (
        replace(config, osnr_db=float(osnr), seed=_seed(config.seed, 4, i))
        for i, osnr in enumerate(config.osnr_grid)
    )
    rows = []
    for osnr, reports in zip(
        config.osnr_grid,
        screens._ordered_map(
            lambda point: run_realization(point, realization=0, h=h, frame=frame),
            points,
        ),
    ):
        for name in config.decoders:
            rep = reports[name]
            rows.append(
                {
                    "osnr_db": float(osnr),
                    "decoder": name,
                    "ber_avg": rep.ber_avg,
                    "ber_min": rep.ber_min,
                    "ber_max": rep.ber_max,
                    "ber_bound": rep.ber_bound,
                    "error_free": rep.error_free,
                    "outage": rep.outage,
                }
            )
    return rows


@dataclass(frozen=True)
class MonteCarloSummary:
    """Ensemble outcome of config.realizations paired turbulence realizations."""

    config: ExperimentConfig
    reports: dict  # decoder -> list[RunReport] sorted by realization
    averages: dict  # decoder -> ensemble average BER (upper-bounded)
    outage_probability: dict  # decoder -> fraction above the HD-FEC limit
    histogram: dict  # decoder -> list of (bin_low, bin_high, count)


def ber_histogram(bers):
    """Logarithmic BER histogram in half-decade bins."""
    bers = np.maximum(np.asarray(bers, dtype=float), 1e-9)
    lo = np.floor(np.log10(bers.min()) * BER_BINS_PER_DECADE) / BER_BINS_PER_DECADE
    lo = min(lo, -1.0 / BER_BINS_PER_DECADE)
    edges = 10.0 ** np.arange(lo, -1e-9, 1.0 / BER_BINS_PER_DECADE)
    edges = np.append(edges, 1.0)
    counts, _ = np.histogram(bers, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def monte_carlo(config, channels=None):
    """Paired Monte-Carlo ensemble of config.realizations independent
    turbulence screens.

    channels optionally supplies realization r's (n_r, n_t) channel
    array as channels[r], for example build_channel(config, r) or a
    coupling of realization_screen(config, r) made alongside other mode
    sets'; no coupler is built and no screen is made then, and
    run_realization checks each given array before it draws anything.
    """
    count = config.realizations
    if channels is not None and len(channels) < count:
        raise ValueError("channels shorter than the realization count")
    coupler = None
    if channels is None and config.channel_kind != "unitary":
        coupler = ModalCoupler(config)
    frame = build_frames(config)

    def realization(r):
        h = None if channels is None else channels[r]
        return run_realization(config, realization=r, coupler=coupler, h=h, frame=frame)

    reports = {d: [] for d in config.decoders}
    for pipe in screens._ordered_map(realization, range(count)):
        for name, rep in pipe.items():
            reports[name].append(rep)
    averages = {}
    outage = {}
    hist = {}
    for name, reps in reports.items():
        bounds = [rep.ber_bound for rep in reps]
        averages[name] = float(np.mean(bounds))
        outage[name] = float(np.mean([rep.outage for rep in reps]))
        hist[name] = ber_histogram(bounds)
    return MonteCarloSummary(
        config=config,
        reports=reports,
        averages=averages,
        outage_probability=outage,
        histogram=hist,
    )


def scintillation_index(powers):
    """Normalized power variance <P^2>/<P>^2 - 1."""
    powers = np.asarray(powers, dtype=float)
    if np.any(powers <= 0):
        raise ValueError("nonpositive captured power")
    return float(np.mean(powers ** 2) / np.mean(powers) ** 2 - 1.0)


def _check_stats_count(count):
    """Reject an ensemble too small for stable power statistics."""
    if count < 30:
        raise ValueError(f"need at least 30 screens for stable statistics, got {count}")


def power_statistics(powers):
    """Scintillation index and lognormal fit of captured powers.

    The lognormal parameters come from the moments of ln P; the fit
    quality is the two-sided Kolmogorov-Smirnov distance of ln P from
    N(mu, sigma^2). With the n log powers sorted and F_i the normal CDF
    at the i-th, it is max(max(i/n - F_i), max(F_i - (i-1)/n)). A fit
    needs a spread, so equal powers raise ValueError.
    """
    powers = np.asarray(powers, dtype=float)
    si = scintillation_index(powers)
    logp = np.log(powers)
    mu, sigma = float(np.mean(logp)), float(np.std(logp))
    if sigma == 0:
        raise ValueError("captured powers are all equal: no lognormal fit")
    z = (np.sort(logp) - mu) / sigma
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2)) for v in z])
    n = cdf.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    ks = float(max(d_plus, d_minus))
    return {
        "scintillation_index": si,
        "lognormal_mu": mu,
        "lognormal_sigma": sigma,
        "ks_distance": ks,
        "powers": powers,
    }


def scintillation_stats(ensemble, config):
    """power_statistics of the captured-power proxy of each screen (see
    ModalCoupler.captured_power), computed on worker threads in screen
    order. `ensemble` may be any iterable of screens, such as a list or
    a generator over an iter_screens stream, and is read once."""
    coupler = ModalCoupler(config)
    powers = list(screens._ordered_map(coupler.captured_power, ensemble))
    _check_stats_count(len(powers))
    return power_statistics(powers)


def screen_statistics(config, count):
    """The `mdmfso stats` pass: one stream of count screens of config.

    Returns (separations, d_phi, stats): the phase structure function on
    12 geometric separations from 5 pitches to L/5, and power_statistics
    of each screen's captured power (see ModalCoupler.captured_power),
    taken on the calling thread as the structure function reads the
    stream. The count is checked before any screen is made.
    """
    _check_stats_count(count)
    base = config.screen_config()
    coupler = ModalCoupler(config)
    powers = []

    def captured(stream):
        for _, screen in stream:
            powers.append(coupler.captured_power(screen))
            yield screen

    k_max = 0.2 * base.physical_length / base.pitch
    seps = np.unique(np.round(np.geomspace(5, k_max, 12)).astype(int)) * base.pitch
    rs, d_phi = screens.structure_function(captured(screens.iter_screens(base, count)), seps)
    return rs, d_phi, power_statistics(powers)


def net_spectral_efficiency(
    n_channels=10,
    baud=channel_mod.DEFAULT_BAUD,
    ts_frac=1680.0 / 20000.0,
    pilot_rate=0.1,
    fec_overhead=0.0625,
    rolloff=0.1,
    fec_convention="ratio",
):
    """Net spectral efficiency in bit/s/Hz for DP-QPSK channels.

    fec_convention 'ratio' divides by (1 + overhead); 'subtract' keeps
    (1 - overhead) of the rate. Both are common bookkeeping choices.
    """
    if fec_convention == "ratio":
        fec_factor = 1.0 / (1.0 + fec_overhead)
    elif fec_convention == "subtract":
        fec_factor = 1.0 - fec_overhead
    else:
        raise ValueError("fec_convention must be 'ratio' or 'subtract'")
    net_rate = n_channels * baud * 2.0 * (1.0 - ts_frac) * (1.0 - pilot_rate) * fec_factor
    return net_rate / (baud * (1.0 + rolloff))


def line_rate(n_channels=10, baud=channel_mod.DEFAULT_BAUD):
    """Aggregate DP-QPSK line rate in bit/s."""
    return n_channels * baud * 2.0


# --- report emission ------------------------------------------------------
# Every report file is written here: CSV cells through _fmt, JSON sorted
# with a two-space indent, each file ending in a newline.

def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.10e}"
    return str(x)


def write_csv(path, header, rows):
    """A CSV file of the column names header and one line per row."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_csv(path, reports):
    """Per-run CSV of decoder -> list of RunReport: one row per
    (realization, decoder, channel), decoders sorted, reports in list
    order."""
    rows = []
    for name in sorted(reports):
        for rep in reports[name]:
            rank = {ch: i for i, ch in enumerate(rep.sic_order)}
            for ch in range(len(rep.ber)):
                rows.append(
                    (rep.realization, rep.decoder, ch, float(rep.ber[ch]),
                     float(rep.evm_pct[ch]), rank[ch], rep.outage)
                )
    write_csv(path, ("realization", "decoder", "channel", "ber", "evm_pct", "sic_rank",
                     "outage"), rows)


def write_histogram_csv(path, histogram):
    rows = [(name, *bin_) for name in sorted(histogram) for bin_ in histogram[name]]
    write_csv(path, ("decoder", "bin_low", "bin_high", "count"), rows)


def write_summary(path, summary):
    """Ensemble summary as deterministic structured text (JSON)."""
    payload = {
        "config": summary.config.to_dict(),
        "realizations": len(next(iter(summary.reports.values()))),
        "hd_fec_limit": summary.config.hd_fec,
        "decoders": {},
    }
    for name, reps in sorted(summary.reports.items()):
        payload["decoders"][name] = {
            "average_ber": _fmt(summary.averages[name]),
            "outage_probability": _fmt(summary.outage_probability[name]),
            "error_free_realizations": sum(r.error_free for r in reps),
            "ber_is_upper_bound": any(r.error_free for r in reps),
        }
    write_json(path, payload)


def write_sweep_csv(path, rows):
    columns = ("osnr_db", "decoder", "ber_avg", "ber_min", "ber_max", "ber_bound",
               "error_free", "outage")
    write_csv(path, columns, ([row[k] for k in columns] for row in rows))
