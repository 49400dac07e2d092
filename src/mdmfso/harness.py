"""End-to-end experiment orchestration.

Ties the pipeline together (screens -> modal coupling -> framing ->
channel -> receive DSP), computes link metrics (BER, EVM, outage,
scintillation index, net spectral efficiency), and emits deterministic
CSV / JSON reports for single runs, OSNR sweeps and Monte-Carlo
ensembles. Each entry-point call builds what its realizations share
once: monte_carlo and sweep_osnr build one optics.ModalCoupler, through
which every coupling goes, and one set of transmit frames; sweep_osnr
also builds its one channel matrix. run_realization, called alone,
builds its own.
"""

from dataclasses import dataclass, asdict, fields, replace
import json
import numbers
import os

import numpy as np

from . import channel as channel_mod
from . import dsp, optics, screens
from .optics import ModalCoupler
from .framing import FrameLayout, assemble_frames, mode_delays

HD_FEC_LIMIT = 4.7e-3
DECODERS = ("mmse", "sic")


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

    Bools are not numbers, ints pass as floats, and NaN never passes.
    Infinity does: osnr_db = inf means a noiseless channel.
    """
    is_bool = isinstance(value, (bool, np.bool_))
    if kind is bool or is_bool:
        return kind is bool and is_bool
    if kind in _NUMBER_KINDS:
        return isinstance(value, _NUMBER_KINDS[kind]) and value == value
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
        if self.aperture_diameter > self.physical_length:
            raise ValueError(
                f"config aperture_diameter={self.aperture_diameter!r} exceeds "
                f"the raster's physical_length={self.physical_length!r}"
            )
        if not set(self.tx_modes) <= set(optics.LP_TO_LG):
            raise ValueError("unknown transmit mode label")
        if not set(self.rx_modes) <= set(optics.LP_TO_LG):
            raise ValueError("unknown receive mode label")

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
    seed: int
    decoder: str
    ber: tuple
    evm_pct: tuple
    sic_order: tuple
    outage: bool
    cond_h: float
    data_bits: int
    error_free: bool

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


def build_channel(config, realization, coupler=None, screen=None):
    """True channel matrix for one realization of the configured kind."""
    if config.channel_kind == "unitary":
        from scipy.stats import unitary_group

        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 3, realization])
        )
        u = unitary_group.rvs(config.n_r, random_state=rng)
        h = u[:, : config.n_t]
        return optics.ChannelMatrix(
            h=h, n_r=config.n_r, n_t=config.n_t, calibration=np.ones(config.n_t)
        )
    if coupler is None:
        coupler = ModalCoupler(config)
    if config.channel_kind == "blank":
        return coupler.channel_matrix(None)
    if screen is None:
        screen = realization_screen(config, realization)
    return coupler.channel_matrix(screen)


def theoretical_reference(osnr_grid, baud=channel_mod.DEFAULT_BAUD):
    """AWGN QPSK reference BER = 0.5 erfc(sqrt(Es/(2 N0))) per OSNR point.

    Under the unitary-submatrix assumption every channel keeps the full
    per-channel SNR, so the curve is independent of (n_t, n_r).
    """
    from scipy.special import erfc

    n0 = np.array([channel_mod.osnr_to_n0(o, baud, 1.0) for o in np.atleast_1d(osnr_grid)])
    with np.errstate(divide="ignore"):
        ber = 0.5 * erfc(np.sqrt(1.0 / (2.0 * n0)))
    return ber


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


def decode_stream(y, frame, config, n0, h_true=None):
    """Frame-by-frame receive DSP over a full stream.

    Returns per decoder a dict with per-channel bit errors / bit counts,
    per-channel squared soft-error / symbol counts, the frame-0 SIC
    order, and the frame-0 channel conditioning.
    """
    layout = config.layout
    n_t = config.n_t
    acc = {
        d: {
            "bit_err": np.zeros(n_t),
            "bits": np.zeros(n_t),
            "err2": np.zeros(n_t),
            "syms": np.zeros(n_t),
            "order": None,
        }
        for d in config.decoders
    }
    cond = None
    for sl, ts_local, pilot_local in _frame_windows(frame, layout, config.n_frames):
        y_f = y[:, sl]
        pilots = frame.symbols[:, sl][:, pilot_local]
        if config.genie_csi and h_true is not None:
            # theoretical-reference mode: known channel, no carrier
            # imperfection, so the tracker would only add self-noise
            est = dsp.ChannelEstimate(h_hat=h_true.h.copy(), residual=0.0)
            y_c = y_f
        else:
            est = dsp.estimate_channel(
                y_f[:, ts_local], frame.symbols[:, sl][:, ts_local]
            )
            phase = dsp.estimate_phase(
                y_f, pilot_local, pilots, est, window=config.pilot_window
            )
            y_c = dsp.cancel_phase(y_f, phase)
        if cond is None:
            cond = float(np.linalg.cond(est.h_hat))
        if config.use_equalizer:
            y_c = dsp.equalize(
                y_c,
                est,
                pilot_local,
                pilots,
                taps=config.equalizer_taps,
                step=config.equalizer_step,
            )
        dmask = frame.data_mask[:, sl]
        off_data = ~dmask
        syms = np.count_nonzero(dmask, axis=1)
        # sent Gray bits (Im < 0, Re < 0) at data positions
        ref_bits = frame.data_bits[:, sl]
        for name in config.decoders:
            if name == "mmse":
                res = dsp.mmse_decode(y_c, est, n0)
            else:
                res = dsp.sic_decode(y_c, est, n0)
            if acc[name]["order"] is None:
                acc[name]["order"] = res.order
            # hard_decision sends a component >= 0 to the bit 0 and any
            # other value (NaN too) to 1, so a decoded bit is wrong exactly
            # where (component >= 0) equals the sent bit
            wrong_im = ((res.soft.imag >= 0) == ref_bits[..., 0]) & dmask
            wrong_re = ((res.soft.real >= 0) == ref_bits[..., 1]) & dmask
            err2 = np.abs(res.soft - frame.symbols[:, sl]) ** 2
            err2[off_data] = 0.0
            acc[name]["bit_err"] += np.count_nonzero(wrong_im, axis=1)
            acc[name]["bit_err"] += np.count_nonzero(wrong_re, axis=1)
            acc[name]["bits"] += 2 * syms
            acc[name]["err2"] += err2.sum(axis=1)
            acc[name]["syms"] += syms
    return acc, cond


def run_realization(
    config, realization=0, coupler=None, screen=None, h=None, frame=None
):
    """One full pipeline pass; paired decoders share the received samples.

    coupler, screen, h and frame let a caller pass what it built once
    (see build_channel and build_frames); each is built here when None.
    """
    if h is None:
        h = build_channel(config, realization, coupler=coupler, screen=screen)
    if frame is None:
        frame = build_frames(config)
    n0 = channel_mod.osnr_to_n0(config.osnr_db, config.baud, 1.0)
    linewidth = 0.0 if config.genie_csi else config.linewidth
    phase = channel_mod.wiener_phase(
        frame.n_symbols,
        config.n_r,
        channel_mod.PhaseNoiseConfig(
            linewidth=linewidth,
            baud=config.baud,
            seed=_seed(config.seed, 1, realization),
        ),
    )
    noise = channel_mod.NoiseConfig(n0=n0, seed=_seed(config.seed, 2, realization))
    isi = channel_mod.IsiConfig.normalized(config.isi_taps)
    y = channel_mod.propagate(frame, h, phase, noise, isi=isi)

    acc, cond = decode_stream(y, frame, config, n0, h_true=h)
    reports = {}
    for name, a in acc.items():
        ber = tuple(a["bit_err"] / a["bits"])
        evm = tuple(100.0 * np.sqrt(a["err2"] / a["syms"]))
        bits_total = int(a["bits"].sum())
        avg = float(np.mean(ber))
        reports[name] = RunReport(
            realization=realization,
            seed=config.seed,
            decoder=name,
            ber=ber,
            evm_pct=evm,
            sic_order=a["order"] if name == "sic" else tuple(range(config.n_t)),
            outage=bool(avg > config.hd_fec),
            cond_h=cond,
            data_bits=bits_total,
            error_free=bool(a["bit_err"].sum() == 0),
        )
    return reports


def sweep_osnr(config, coupler=None):
    """BER vs OSNR on a fixed channel; noise is re-drawn per grid point.

    Returns a list of row dicts (osnr_db, decoder, ber_avg/min/max,
    outage) sorted by OSNR then decoder.
    """
    if not config.osnr_grid:
        raise ValueError("osnr_grid must be nonempty for a sweep")
    h = build_channel(config, 0, coupler=coupler)
    frame = build_frames(config)
    rows = []
    for i, osnr in enumerate(config.osnr_grid):
        point = replace(config, osnr_db=float(osnr), seed=_seed(config.seed, 4, i))
        reports = run_realization(point, realization=0, h=h, frame=frame)
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
    """Ensemble outcome of `count` paired turbulence realizations."""

    config: ExperimentConfig
    reports: dict  # decoder -> list[RunReport] sorted by realization
    averages: dict  # decoder -> ensemble average BER (upper-bounded)
    outage_probability: dict  # decoder -> fraction above the HD-FEC limit
    histogram: dict  # decoder -> list of (bin_low, bin_high, count)


def ber_histogram(bers, bins_per_decade=2):
    """Logarithmic BER histogram with half-decade bins by default."""
    bers = np.maximum(np.asarray(bers, dtype=float), 1e-9)
    lo = np.floor(np.log10(bers.min()) * bins_per_decade) / bins_per_decade
    lo = min(lo, -1.0 / bins_per_decade)
    edges = 10.0 ** np.arange(lo, -1e-9, 1.0 / bins_per_decade)
    edges = np.append(edges, 1.0)
    counts, _ = np.histogram(bers, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def monte_carlo(config, count=None, screen_batch=None):
    """Paired Monte-Carlo ensemble over independent turbulence screens.

    screen_batch optionally supplies pre-generated screens (one per
    realization), so several mode-set configurations can share one
    turbulence ensemble.
    """
    count = config.realizations if count is None else count
    if count < 1:
        raise ValueError("count must be >= 1")
    if screen_batch is not None and len(screen_batch) < count:
        raise ValueError("screen_batch shorter than the realization count")
    coupler = ModalCoupler(config) if config.channel_kind != "unitary" else None
    frame = build_frames(config)
    reports = {d: [] for d in config.decoders}
    for r in range(count):
        screen = None if screen_batch is None else screen_batch[r]
        pipe = run_realization(
            config, realization=r, coupler=coupler, screen=screen, frame=frame
        )
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


def check_stats_count(count):
    """Reject an ensemble too small for stable power statistics."""
    if count < 30:
        raise ValueError(f"need at least 30 screens for stable statistics, got {count}")


def power_statistics(powers):
    """Scintillation index and lognormal fit of captured powers.

    The lognormal parameters come from the moments of ln P; the fit
    quality is the Kolmogorov-Smirnov distance.
    """
    from scipy.stats import kstest, norm

    powers = np.asarray(powers, dtype=float)
    si = scintillation_index(powers)
    logp = np.log(powers)
    mu, sigma = float(np.mean(logp)), float(np.std(logp))
    ks = float(kstest(logp, norm(loc=mu, scale=sigma).cdf).statistic)
    return {
        "scintillation_index": si,
        "lognormal_mu": mu,
        "lognormal_sigma": sigma,
        "ks_distance": ks,
        "powers": powers,
    }


def scintillation_stats(screen_list, config, coupler=None):
    """power_statistics of the captured-power proxy of each screen (see
    ModalCoupler.captured_power), computed on worker threads in screen
    order."""
    check_stats_count(len(screen_list))
    if coupler is None:
        coupler = ModalCoupler(config)
    return power_statistics(
        list(screens._ordered_map(coupler.captured_power, screen_list))
    )


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

def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.10e}"
    return str(x)


def write_run_csv(path, reports_by_decoder):
    """Per-run CSV: one row per (realization, decoder, channel)."""
    lines = ["realization,decoder,channel,ber,evm_pct,sic_rank,outage"]
    for name in sorted(reports_by_decoder):
        reps = reports_by_decoder[name]
        if isinstance(reps, RunReport):
            reps = [reps]
        for rep in sorted(reps, key=lambda r: r.realization):
            rank = {ch: i for i, ch in enumerate(rep.sic_order)}
            for ch in range(len(rep.ber)):
                lines.append(
                    ",".join(
                        [
                            str(rep.realization),
                            rep.decoder,
                            str(ch),
                            _fmt(float(rep.ber[ch])),
                            _fmt(float(rep.evm_pct[ch])),
                            str(rank[ch]),
                            _fmt(rep.outage),
                        ]
                    )
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_histogram_csv(path, histogram):
    lines = ["decoder,bin_low,bin_high,count"]
    for name in sorted(histogram):
        for lo, hi, n in histogram[name]:
            lines.append(f"{name},{_fmt(lo)},{_fmt(hi)},{n}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(path, rows):
    lines = ["osnr_db,decoder,ber_avg,ber_min,ber_max,ber_bound,error_free,outage"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row["osnr_db"]),
                    row["decoder"],
                    _fmt(row["ber_avg"]),
                    _fmt(row["ber_min"]),
                    _fmt(row["ber_max"]),
                    _fmt(row["ber_bound"]),
                    _fmt(row["error_free"]),
                    _fmt(row["outage"]),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ensure_out_dir(out):
    os.makedirs(out, exist_ok=True)
    return out
