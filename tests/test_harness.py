import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdmfso
from mdmfso import channel, dsp, harness, screens
from mdmfso.cli import main as cli_main
from mdmfso.dsp import hard_decision
from mdmfso.framing import assemble_frames, qpsk_demap
from mdmfso.harness import (
    ExperimentConfig,
    RunReport,
    ber_histogram,
    build_channel,
    decode_stream,
    line_rate,
    monte_carlo,
    net_spectral_efficiency,
    power_statistics,
    realization_screen,
    run_realization,
    scintillation_index,
    scintillation_stats,
    sweep_osnr,
    write_histogram_csv,
    write_run_csv,
)
from mdmfso.optics import ModalCoupler
from mdmfso.screens import read_screen

# small geometry keeps unit-level pipeline runs fast; the aperture still
# fits inside the raster
FAST = dict(
    grid_size=480,
    tx_modes=("LP01", "LP11a"),
    rx_modes=("LP01", "LP11a", "LP11b"),
    n_frames=1,
    realizations=2,
)

# n_t = 6 transmit channels, more than the n_r = 4 columns of the n_r x
# n_r Haar unitary that a unitary channel draws
UNITARY_MORE_TX_THAN_RX = dict(
    channel_kind="unitary",
    tx_modes=("LP01", "LP11a", "LP11b"),
    rx_modes=("LP01", "LP11a"),
)


# what a JSON config may hold: no value, a value of another type, or one
# of the field's own type, often small or the default
JUNK = st.none() | st.text(max_size=3) | st.lists(st.integers(), max_size=2)
_KIND_VALUES = {
    int: st.integers(-2, 3) | st.integers(),
    float: st.floats() | st.sampled_from([-np.inf, 0.0, 1e-3]),
    bool: st.booleans(),
    str: st.sampled_from(["mmse", "sic", "both", "turbulent", "blank", "unitary", "LP01"]),
    tuple: st.lists(
        st.sampled_from(["LP01", "LP11a", "LP02", "LP99"]) | st.floats() | st.integers(),
        max_size=3,
    ),
}
CONFIG_VALUES = {
    f.name: st.just(f.default) | _KIND_VALUES[type(f.default)] | JUNK
    for f in fields(ExperimentConfig)
}


# CLI configs on the FAST geometry: each key takes its FAST default, a
# value of its own kind near or past its edges, or null (values of the
# wrong kind are test_from_dict_returns_config_or_raises_value_error's).
# The keys that scale the work (grid, frame count, frame length,
# realizations) stay small, so that every example runs in well under a
# second
_MODE_LABELS = st.sampled_from(["LP01", "LP11a", "LP11b", "LP21a", "LP02", "LP99"])
_RUN_VALUES = {
    "osnr_db": st.floats() | st.sampled_from([-4000.0, 4000.0, 5.0]) | st.integers(),
    "osnr_grid": st.lists(st.floats() | st.integers(), max_size=2),
    "seed": st.integers(-2, 2**64) | st.integers(),
    "decoder": st.sampled_from(["mmse", "sic", "both", "zf"]),
    "channel_kind": st.sampled_from(["turbulent", "blank", "unitary", "fog"]),
    "genie_csi": st.booleans(),
    "linewidth": st.floats() | st.sampled_from([0.0, 1e9]),
    "baud": st.floats() | st.sampled_from([1.0, 1e12, 2.225073858507203e-309]),
    "fried": st.floats() | st.sampled_from([1e-5, 1.0, 2.225073858507203e-309]),
    "waist": st.floats() | st.sampled_from([1e-6, 1e-2]),
    "tx_modes": st.lists(_MODE_LABELS, max_size=4),
    "rx_modes": st.lists(_MODE_LABELS, max_size=5),
    "frame_len": st.sampled_from([1680, 1700, 2680, 4000, 20000]) | st.integers(-2, 3),
    "ts_len": st.sampled_from([0, 6, 12, 24, 1680]) | st.integers(-2, 3),
    "pilot_period": st.integers(-1, 12) | st.just(10**6),
    "n_frames": st.integers(-1, 2),
    "pilot_window": st.integers(-1, 50) | st.just(10**6),
    "hd_fec": st.floats(),
    "realizations": st.integers(1, 2),
    "grid_size": st.integers(-2, 3) | st.sampled_from([16, 17, 64]),
    "physical_length": st.floats() | st.sampled_from([1e-4, 8.4e-3, 1.0]),
    "outer_scale": st.floats()
    | st.sampled_from([8.832e-3, 1e3, 1.3407807929942597e+154, np.inf]),
    "inner_scale": st.floats() | st.sampled_from([0.0, 1e-6, 8.832e-3]),
    "subharmonic_levels": st.integers(-2, 3) | st.just(647),
    "aperture_diameter": st.floats() | st.sampled_from([0.0, 1e-3, 8.832e-3]),
}
RUN_CONFIGS = st.sets(st.sampled_from(sorted(_RUN_VALUES)), max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: st.just(getattr(ExperimentConfig(**FAST), k)) | _RUN_VALUES[k] | st.none()
         for k in keys}
    )
)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_t == 10 and cfg.n_r == 12
        assert cfg.decoders == ("mmse", "sic")
        assert cfg.layout.delay_step == 280

    def test_single_decoder(self):
        assert ExperimentConfig(decoder="sic").decoders == ("sic",)

    def test_roundtrip(self):
        cfg = ExperimentConfig(**FAST)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"friedd": 1e-3})

    @pytest.mark.parametrize(
        "data, kind", [(5, "int"), (None, "NoneType"), ([{}], "list"), ("x", "str")]
    )
    def test_from_dict_rejects_non_object(self, data, kind):
        match = f"a config must be a JSON object of ExperimentConfig keys, not {kind}"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decoder": "zf"},
            {"channel_kind": "fog"},
            {"n_frames": 0},
            {"realizations": 0},
            {"tx_modes": ("LP99",)},
            {"realizations": "5"},
            {"realizations": 5.0},
            {"genie_csi": 1},
            {"osnr_db": float("nan")},
            {"fried": None},
            {"osnr_grid": (12.0, float("nan"))},
            {"osnr_grid": [12.0]},
            {"tx_modes": (["LP01"],)},
            {"osnr_db": 10**400},
            {"linewidth": -1.0},
            {"linewidth": np.inf},
            {"pilot_window": 0},
            {"hd_fec": -1.0},
            {"hd_fec": 0.0},
            {"hd_fec": 1.0},
            {"tx_modes": ()},
            {"rx_modes": ()},
            {"grid_size": 0},
            {"grid_size": 7},
            {"channel_kind": "blank", "grid_size": 479},
            {"fried": 0.0},
            {"fried": -1e-3},
            {"inner_scale": 8.832e-3},
            {"outer_scale": 8.832e-3},
            {"physical_length": np.inf},
            {"subharmonic_levels": -1},
            {"seed": -1},
            {"waist": 0.0},
            {"waist": 1e151},
            {"aperture_diameter": 0.0},
            {"aperture_diameter": -8.4e-3},
            # LP01 sampled by about one pixel per waist
            {"physical_length": 1.0, "grid_size": 480, "tx_modes": ("LP01",),
             "rx_modes": ("LP01",)},
            # physical_length / grid_size overflows the float range
            {"grid_size": 10**400},
            # the spectrum's 1 / outer_scale**2 overflows the float range
            {"outer_scale": 1.3407807929942597e+154},
            # the structure function across the raster overflows
            {"fried": 2.225073858507203e-309},
            {"fried": 1e-200},
            # the phase walk variance 2 pi linewidth / baud overflows
            {"baud": 2.225073858507203e-309},
            # 3.0 ** subharmonic_levels overflows
            {"subharmonic_levels": 647},
            UNITARY_MORE_TX_THAN_RX,
            # 2 / waist^2 is not a finite positive float
            {"waist": 1e-160},
            {"waist": 1e181},
            {"waist": np.inf},
            {"waist": np.nan},
            {"waist": 10**400},
            {"waist": -2.1e-3},
            {"tx_modes": ("LP31",)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"pilot_period": 0}, "pilot_period=0 must be >= 1"),
            ({"pilot_period": -10}, "pilot_period=-10 must be >= 1"),
            ({"frame_len": 1680}, "leave no data symbol"),
            ({"frame_len": 1620}, "leave no data symbol"),
            ({"pilot_period": 1}, "leave no data symbol"),
            ({"osnr_db": -np.inf}, "osnr_db or osnr_grid is -inf dB"),
            ({"osnr_grid": (10.0, -np.inf)}, "osnr_db or osnr_grid is -inf dB"),
            ({"osnr_db": -4000.0}, "is -4000.0 dB: OSNR of -4000.0 dB has no finite noise"),
            ({"osnr_grid": (10.0, -4000.0)}, "is -4000.0 dB: OSNR of -4000.0 dB has no finite"),
            ({"baud": 0.0}, "baud=0.0 must be positive and finite"),
            ({"baud": np.inf}, "baud=inf must be positive and finite"),
            (
                {"frame_len": 1700, "n_frames": 1},
                "frame_len, ts_len, pilot_period and n_frames give 2 pilots per stream",
            ),
            (
                {"baud": 2.225073858507203e-309},
                "baud=2.225073858507203e-309 gives linewidth=100000.0 an infinite phase walk",
            ),
            ({"fried": 1e-200}, "fried=1e-200 must leave the structure function across"),
            ({"subharmonic_levels": 647}, "subharmonic_levels=647 must leave 3.0 \\*\\* sub"),
            # 2 / waist^2 is not a finite positive float
            ({"waist": 1e-160}, "^config waist=1e-160 must lie in \\(1e-150, 1e150\\)$"),
            ({"waist": 1e181}, "^config waist=1e\\+181 must lie in \\(1e-150, 1e150\\)$"),
            ({"waist": np.inf}, "^config waist=inf must lie in \\(1e-150, 1e150\\)$"),
            ({"waist": np.nan}, "^config waist=nan is not a valid float$"),
            ({"waist": 10**400}, "^config waist=10{400} is not a valid float$"),
            ({"waist": -2.1e-3}, "^config waist=-0.0021 must lie in \\(1e-150, 1e150\\)$"),
            ({"tx_modes": ("LP31",)}, "^config unknown LP label 'LP31'$"),
            (UNITARY_MORE_TX_THAN_RX, "keeps n_t=6 columns of an n_r x n_r unitary, so n_t "
             "must not exceed n_r=4$"),
        ],
    )
    def test_unusable_link_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    @given(
        st.sets(st.sampled_from(sorted(CONFIG_VALUES) + ["nope"]), max_size=4).flatmap(
            lambda keys: st.fixed_dictionaries({k: CONFIG_VALUES.get(k, JUNK) for k in keys})
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_from_dict_returns_config_or_raises_value_error(self, data):
        try:
            cfg = ExperimentConfig.from_dict(data)
        except ValueError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_aperture_larger_than_raster_rejected(self):
        with pytest.raises(ValueError, match="config aperture_diameter=0.009 exceeds"):
            ExperimentConfig(aperture_diameter=9e-3)
        with pytest.raises(ValueError, match="config aperture_diameter"):
            ExperimentConfig(physical_length=8e-3)
        assert ExperimentConfig(aperture_diameter=8.832e-3).aperture_diameter == 8.832e-3

    def test_zero_linewidth_valid_at_any_baud(self):
        cfg = ExperimentConfig(linewidth=0.0, baud=2.225073858507203e-309)
        assert cfg.baud == 2.225073858507203e-309

    def test_infinite_osnr_valid(self):
        assert ExperimentConfig(osnr_db=float("inf")).osnr_db == float("inf")

    def test_numpy_and_int_values_valid(self):
        cfg = ExperimentConfig(seed=np.int64(3), osnr_db=30, fried=np.float64(1e-3))
        assert cfg.seed == 3

    @pytest.mark.parametrize("key", ["osnr_grid", "tx_modes"])
    def test_from_dict_rejects_scalar_for_tuple(self, key):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({key: 5})

    def test_screen_config(self):
        cfg = ExperimentConfig(seed=5)
        sc = cfg.screen_config()
        assert sc.seed == 5 and sc.grid_size == cfg.grid_size
        assert cfg.screen_config(seed=9).seed == 9


class TestRunReport:
    def _report(self, **kw):
        base = dict(
            realization=0, decoder="mmse", ber=(1e-3, 3e-3),
            evm_pct=(20.0, 25.0), sic_order=(0, 1), outage=False,
            data_bits=10000,
        )
        base.update(kw)
        return RunReport(**base)

    def test_aggregates(self):
        rep = self._report()
        assert rep.ber_avg == pytest.approx(2e-3)
        assert rep.ber_min == 1e-3 and rep.ber_max == 3e-3
        assert rep.ber_bound == rep.ber_avg
        assert rep.evm_avg == pytest.approx(22.5)

    def test_error_free_bound(self):
        rep = self._report(ber=(0.0, 0.0))
        assert rep.error_free
        assert not self._report(ber=(0.0, 1e-4)).error_free
        assert rep.ber_bound == pytest.approx(1e-4)

    def test_ber_validation(self):
        with pytest.raises(ValueError):
            self._report(ber=(1.2, 0.0))


class TestReferences:
    def test_line_rate(self):
        assert line_rate() == pytest.approx(689.2e9)

    def test_net_se_ratio(self):
        se = net_spectral_efficiency()
        expect = 10 * 2 * (1 - 0.084) * 0.9 / 1.0625 / 1.1
        assert se == pytest.approx(expect)
        assert se == pytest.approx(14.1, abs=0.05)

    def test_net_se_subtract(self):
        se = net_spectral_efficiency(fec_convention="subtract")
        assert se == pytest.approx(10 * 2 * (1 - 0.084) * 0.9 * 0.9375 / 1.1)

    def test_net_se_trivial(self):
        se = net_spectral_efficiency(
            n_channels=1, ts_frac=0.0, pilot_rate=0.0, fec_overhead=0.0, rolloff=0.0
        )
        assert se == pytest.approx(2.0)

    def test_net_se_bad_convention(self):
        with pytest.raises(ValueError):
            net_spectral_efficiency(fec_convention="divide")


class TestScintillation:
    def test_lognormal_index(self):
        rng = np.random.default_rng(0)
        sigma2 = 0.25
        powers = np.exp(rng.normal(0.0, np.sqrt(sigma2), 20000))
        assert scintillation_index(powers) == pytest.approx(
            np.expm1(sigma2), rel=0.1
        )

    def test_constant_power(self):
        assert scintillation_index(np.full(100, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scintillation_index([1.0, 0.0])

    @pytest.mark.parametrize("n", [30, 120, 200])
    def test_ks_distance_matches_scipy(self, n):
        from scipy.stats import kstest, norm

        rng = np.random.default_rng(n)
        for _ in range(20):
            powers = rng.lognormal(-0.3, 0.7, n)
            stats = power_statistics(powers)
            fit = norm(loc=stats["lognormal_mu"], scale=stats["lognormal_sigma"])
            ref = kstest(np.log(powers), fit.cdf).statistic
            assert abs(stats["ks_distance"] - ref) <= 1e-15

    def test_equal_powers_have_no_lognormal_fit(self):
        # zero spread: the KS distance would be NaN, which is not JSON
        with pytest.raises(ValueError, match="no lognormal fit"):
            power_statistics(np.ones(30))

    def test_stats_minimum_count(self):
        cfg = ExperimentConfig(**FAST)
        with pytest.raises(ValueError, match="at least 30"):
            scintillation_stats([], cfg)

    def test_stats_independent_of_worker_count(self, monkeypatch):
        cfg = ExperimentConfig(**FAST)
        batch = screens.batch_generate(cfg.screen_config(), 30)
        monkeypatch.setattr(screens, "_usable_cpus", lambda: 8)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(screens, "MAX_WORKERS", workers)
            runs.append(scintillation_stats(batch, cfg))
        assert np.array_equal(runs[0]["powers"], runs[1]["powers"])
        assert runs[0]["scintillation_index"] == runs[1]["scintillation_index"]

    def test_stats_read_a_stream_once(self):
        cfg = ExperimentConfig(**FAST)
        batch = screens.batch_generate(cfg.screen_config(), 30)
        streamed = scintillation_stats((screen for screen in batch), cfg)
        assert np.array_equal(streamed["powers"], scintillation_stats(batch, cfg)["powers"])
        with pytest.raises(ValueError, match="at least 30"):
            scintillation_stats(iter(batch[:29]), cfg)

    def test_one_pass_matches_the_bench_shape(self):
        # the perfbench stats_screens workload makes the statistics of
        # `mdmfso stats` from a held batch, with its own separation grid
        cfg = ExperimentConfig(**FAST)
        rs, d_phi, stats = harness.screen_statistics(cfg, 30)
        batch = screens.batch_generate(cfg.screen_config(), 30)
        seps = _perfbench("workloads").stats_separations(batch)
        bench_rs, bench_d_phi = screens.structure_function(batch, seps)
        bench = scintillation_stats(batch, cfg)
        assert np.array_equal(rs, bench_rs)
        assert np.array_equal(d_phi, bench_d_phi)
        assert np.array_equal(stats["powers"], bench["powers"])
        for key in ("scintillation_index", "ks_distance"):
            assert stats[key] == bench[key]

    def test_stats_on_small_ensemble(self):
        cfg = ExperimentConfig(**FAST)
        batch = screens.batch_generate(cfg.screen_config(), 30)
        stats = scintillation_stats(batch, cfg)
        assert stats["scintillation_index"] > 0
        assert np.isfinite(stats["ks_distance"])
        assert stats["powers"].shape == (30,)


class TestPipeline:
    def test_blank_high_osnr_error_free(self):
        cfg = ExperimentConfig(**FAST, channel_kind="blank", osnr_db=60.0)
        reports = run_realization(cfg)
        for name in ("mmse", "sic"):
            assert reports[name].error_free
            assert reports[name].ber_avg == 0.0
            assert not reports[name].outage

    def test_deterministic(self):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        a = run_realization(cfg, realization=1)
        b = run_realization(cfg, realization=1)
        assert a == b

    def test_decoders_paired_on_same_stream(self):
        # per-channel data bits identical between decoders
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        reports = run_realization(cfg)
        assert reports["mmse"].data_bits == reports["sic"].data_bits

    def test_unitary_channel_orthonormal(self):
        cfg = ExperimentConfig(**FAST, channel_kind="unitary")
        h = build_channel(cfg, 0)
        np.testing.assert_allclose(
            h.conj().T @ h, np.eye(cfg.n_t), atol=1e-12
        )

    @pytest.mark.parametrize("modes", [FAST, {}], ids=["4x6", "10x12"])
    def test_unitary_channel_matches_scipy(self, modes):
        # the same draws and operations as unitary_group.rvs, so the same bits
        from scipy.stats import unitary_group

        cfg = ExperimentConfig(**{**modes, "channel_kind": "unitary", "seed": 7})
        for r in range(5):
            h = build_channel(cfg, r)
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, r]))
            ref = unitary_group.rvs(cfg.n_r, random_state=rng)[:, : cfg.n_t]
            assert h.shape == ref.shape and np.array_equal(h.view(np.uint64), ref.view(np.uint64))
            np.testing.assert_allclose(h.conj().T @ h, np.eye(cfg.n_t), rtol=0, atol=1e-12)

    def test_monte_carlo_summary(self):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        summary = monte_carlo(cfg)
        for name in ("mmse", "sic"):
            assert len(summary.reports[name]) == 2
            assert 0.0 <= summary.outage_probability[name] <= 1.0
            counts = sum(n for _, _, n in summary.histogram[name])
            assert counts == 2

    def test_given_channels_reproduce_the_ensemble(self, monkeypatch):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        channels = [build_channel(cfg, r) for r in range(cfg.realizations)]
        expected = monte_carlo(cfg).reports

        def no_coupler(config):
            raise AssertionError("monte_carlo built a coupler for given channels")

        monkeypatch.setattr(harness, "ModalCoupler", no_coupler)
        assert monte_carlo(cfg, channels=channels).reports == expected

    def test_other_mode_set_couples_the_same_screen(self):
        # the acceptance ensemble couples each realization screen through
        # every mode set's own coupler: the channel build_channel makes
        # for that mode set, bit for bit
        cfg = ExperimentConfig(**FAST)
        other = replace(cfg, tx_modes=("LP01", "LP11b"), rx_modes=("LP01", "LP11a", "LP21a", "LP02"))
        coupler = ModalCoupler(other)
        for r in range(cfg.realizations):
            h = coupler.channel_matrix(coupler.coupling(realization_screen(cfg, r)))
            expected = build_channel(other, r)
            assert np.array_equal(h, expected)

    @pytest.mark.parametrize("kind", ["turbulent", "unitary"])
    def test_negative_realization_rejected(self, kind):
        cfg = ExperimentConfig(**FAST, channel_kind=kind)
        with pytest.raises(ValueError, match=r"^realization=-1 must be >= 0$"):
            run_realization(cfg, realization=-1)

    def test_bad_given_channel_rejected_before_scoring(self, monkeypatch):
        # a channel a caller passes in is checked where it enters: a NaN
        # entry, or the shape of another mode set, raises and names the
        # realization before any phase or noise is drawn or any
        # realization is scored, whether run alone or in an ensemble
        cfg = ExperimentConfig(**FAST, channel_kind="unitary")
        nan = build_channel(cfg, 0)
        nan[1, 0] = np.nan
        other = build_channel(replace(cfg, rx_modes=("LP01", "LP11a")), 0)

        def drawn(*args, **kwargs):
            raise AssertionError("a realization ran past the channel check")

        monkeypatch.setattr(channel, "wiener_phase", drawn)
        monkeypatch.setattr(harness, "decode_stream", drawn)
        for bad in (nan, other):
            message = f"the given channel of shape {bad.shape} is not a finite (6, 4) array"
            with pytest.raises(ValueError) as alone:
                run_realization(cfg, realization=1, h=bad)
            with pytest.raises(ValueError) as ensemble:
                monte_carlo(cfg, channels=[bad] * cfg.realizations)
            assert str(alone.value) == "realization 1: " + message
            assert str(ensemble.value) == "realization 0: " + message

    def test_monte_carlo_validation(self):
        cfg = ExperimentConfig(**FAST)
        with pytest.raises(ValueError):
            monte_carlo(replace(cfg, realizations=0))
        with pytest.raises(ValueError, match="channels shorter"):
            monte_carlo(replace(cfg, realizations=2), channels=[build_channel(cfg, 0)])

    def test_sweep_requires_grid(self):
        with pytest.raises(ValueError, match="osnr_grid"):
            sweep_osnr(ExperimentConfig(**FAST))

    def test_sweep_rows_follow_the_grid(self):
        # grid order as given, then the decoders in config order
        cfg = ExperimentConfig(**FAST, channel_kind="unitary", osnr_grid=(20.0, 16.0))
        rows = sweep_osnr(cfg)
        assert [(r["osnr_db"], r["decoder"]) for r in rows] == [
            (20.0, "mmse"), (20.0, "sic"), (16.0, "mmse"), (16.0, "sic")
        ]

    def test_sweep_monotone_reference(self):
        cfg = ExperimentConfig(
            **FAST, channel_kind="unitary", genie_csi=True,
            osnr_grid=(8.0, 14.0),
        )
        rows = sweep_osnr(cfg)
        mmse = {r["osnr_db"]: r["ber_bound"] for r in rows if r["decoder"] == "mmse"}
        assert mmse[14.0] < mmse[8.0]

    def test_genie_draws_no_laser_phase(self, monkeypatch):
        # genie CSI propagates with phase=None (see test_channel's
        # zero-phase test), so no Wiener walk is drawn
        cfg = ExperimentConfig(**FAST, channel_kind="unitary", genie_csi=True, osnr_db=14.0)

        def drawn(*args, **kwargs):
            raise AssertionError("a genie-CSI realization drew a laser phase")

        monkeypatch.setattr(channel, "wiener_phase", drawn)
        assert set(run_realization(cfg)) == set(cfg.decoders)


class TestSharedWork:
    @pytest.fixture()
    def assemble_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return assemble_frames(*args, **kwargs)

        monkeypatch.setattr(harness, "assemble_frames", counting)
        return calls

    def test_sweep_assembles_frames_once(self, assemble_calls):
        cfg = ExperimentConfig(**FAST, channel_kind="unitary", osnr_grid=(10.0, 14.0, 18.0))
        assert len(sweep_osnr(cfg)) == 6
        assert len(assemble_calls) == 1

    def test_monte_carlo_assembles_frames_once(self, assemble_calls):
        cfg = ExperimentConfig(**FAST, channel_kind="unitary", osnr_db=18.0)
        assert len(monte_carlo(cfg).reports["sic"]) == 2
        assert len(assemble_calls) == 1


class TestWorkerInvariance:
    """Realizations and OSNR points run on the ordered thread map; the
    reports do not depend on the worker count."""

    def test_monte_carlo(self, set_workers):
        cfg = ExperimentConfig(**{**FAST, "realizations": 5}, osnr_db=18.0)
        runs = []
        for workers in (1, 3):
            set_workers(workers)
            runs.append(monte_carlo(cfg))
        assert runs[0].reports == runs[1].reports
        assert [r.realization for r in runs[1].reports["sic"]] == list(range(5))
        assert runs[0].averages == runs[1].averages
        assert runs[0].histogram == runs[1].histogram

    def test_sweep(self, set_workers):
        cfg = ExperimentConfig(**FAST, osnr_grid=(10.0, 14.0, 18.0, 22.0, 26.0))
        runs = []
        for workers in (1, 3):
            set_workers(workers)
            runs.append(sweep_osnr(cfg))
        assert runs[0] == runs[1]
        assert [row["osnr_db"] for row in runs[1]][::2] == list(cfg.osnr_grid)

    def test_no_trim(self, set_workers, trim_calls):
        # none of them holds a raster batch, the one place where a trim
        # after each item pays for the page faults it causes (see
        # screens.batch_generate)
        set_workers(3)
        monte_carlo(ExperimentConfig(**FAST))
        sweep_osnr(ExperimentConfig(**FAST, osnr_grid=(10.0, 14.0)))
        harness.screen_statistics(ExperimentConfig(**FAST), 30)
        assert trim_calls == []

    def test_failing_realization_reraises(self, set_workers, monkeypatch):
        set_workers(3)

        def fail_on_2(config, realization=0, **kwargs):
            if realization == 2:
                raise RuntimeError("realization 2")
            return {}

        monkeypatch.setattr(harness, "run_realization", fail_on_2)
        cfg = ExperimentConfig(**{**FAST, "realizations": 6}, channel_kind="unitary")
        with pytest.raises(RuntimeError, match="realization 2"):
            monte_carlo(cfg)


def traced_peak_mb(fn, *args, **kwargs):
    """Peak of the memory fn(*args, **kwargs) allocates, in MB above the
    traced memory at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """Two realizations or OSNR points in flight fit in the memory of a
    sequential run only while a realization and the coupler build stay
    this lean (tracemalloc counts numpy's allocations exactly)."""

    def test_run_realization(self):
        cfg = ExperimentConfig(n_frames=4)
        coupler = harness.ModalCoupler(cfg)
        h = coupler.channel_matrix(coupler.coupling(realization_screen(cfg, 0)))
        frame = harness.build_frames(cfg)
        del coupler
        assert traced_peak_mb(run_realization, cfg, 0, h=h, frame=frame) <= 28.0

    def test_coupler_build(self):
        # the aperture stack and pixel indices (about 37 MB) and one
        # raster of squared field values; no whole-raster field
        assert traced_peak_mb(harness.ModalCoupler, ExperimentConfig()) <= 52.0

    def test_build_channel(self):
        # the level-0 weights are cached per geometry, so one screen
        # first; then the screen is made before the coupler, and the peak
        # is the coupler's build under the finished screen, not the
        # screen synthesis's transients on top of the coupler's stack
        cfg = ExperimentConfig()
        screens.generate_screen(cfg.screen_config())
        assert traced_peak_mb(build_channel, cfg, 0) <= 56.0

    def test_generate_screen(self):
        # the level-0 weights are cached per geometry, so one screen
        # first; then the peak is the level-0 complex raster and one real
        # draw buffer
        cfg = ExperimentConfig().screen_config()
        screens.generate_screen(cfg)
        assert traced_peak_mb(screens.generate_screen, replace(cfg, seed=1)) <= 23.0

    def test_structure_function(self, set_workers):
        # one difference buffer of the raster's size per screen in flight
        set_workers(1)
        cfg = ExperimentConfig().screen_config()
        screen = screens.generate_screen(cfg)
        # the `mdmfso stats` separations, 5 pitches to L/5
        seps = np.unique(np.round(np.geomspace(5, 0.2 * cfg.grid_size, 12)).astype(int))
        assert traced_peak_mb(screens.structure_function, [screen], seps * cfg.pitch) <= 8.5


def reference_scores(frame, config, results):
    """decode_stream's accumulators by the per-channel loop, from the
    decoders' soft outputs of each frame window in call order."""
    n_t = config.n_t
    acc = {d: {k: np.zeros(n_t) for k in ("bit_err", "err2", "syms")}
           for d in config.decoders}
    windows = harness._frame_windows(frame, config.layout, config.n_frames)
    calls = iter(results)
    for sl, _, _ in windows:
        for name in config.decoders:
            soft = next(calls)
            dmask = frame.data_mask[:, sl]
            dec_bits = qpsk_demap(hard_decision(soft))
            ref_bits = qpsk_demap(frame.symbols[:, sl])
            for ch in range(n_t):
                m = dmask[ch]
                acc[name]["bit_err"][ch] += np.sum(dec_bits[ch][m] != ref_bits[ch][m])
                err = soft[ch][m] - frame.symbols[ch, sl][m]
                acc[name]["err2"][ch] += np.sum(np.abs(err) ** 2)
                acc[name]["syms"][ch] += m.sum()
    return acc


@pytest.mark.parametrize("thinned", [False, True], ids=["assembled", "thinned"])
def test_scoring_matches_per_channel_loop(monkeypatch, thinned):
    cfg = ExperimentConfig(**{**FAST, "n_frames": 2})
    layout = cfg.layout
    # mode 1's rolled training sequence straddles every frame-window edge
    split = layout.frame_len - layout.ts_len // 2
    frame = assemble_frames(layout, cfg.n_t, cfg.n_frames, [0, 0, split, split])
    assert frame.ts_mask[2, 0] and frame.ts_mask[2, layout.frame_len - 1]
    if thinned:
        # every window's data count is the same on every channel of an
        # assembled frame (the roll keeps the per-frame pattern); drop
        # some of channel 1's data so that the counts differ
        mask = frame.data_mask.copy()
        mask[1, :3000] = False
        frame = replace(frame, data_mask=mask)
    rng = np.random.default_rng(20)
    h = (rng.standard_normal((cfg.n_r, cfg.n_t))
         + 1j * rng.standard_normal((cfg.n_r, cfg.n_t))) / np.sqrt(2 * cfg.n_t)
    n0 = 0.15
    y = channel.propagate(frame.symbols, h, None, n0, 21)

    results = []
    for name in ("mmse_decode", "sic_decode"):
        def recording(*args, _decode=getattr(dsp, name), **kwargs):
            out = _decode(*args, **kwargs)
            # sic_decode returns (soft, order), mmse_decode the soft output
            results.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(dsp, name, recording)
    acc = decode_stream(y, frame, cfg, n0, h)
    expected = reference_scores(frame, cfg, results)
    for name in cfg.decoders:
        assert acc[name]["bit_err"].sum() > 0
        for key in ("bit_err", "syms"):
            np.testing.assert_array_equal(acc[name][key], expected[name][key])
        np.testing.assert_allclose(acc[name]["err2"], expected[name]["err2"], rtol=1e-12)
    if thinned:
        assert len(set(acc["sic"]["syms"])) == 2


class TestHistogram:
    def test_counts_and_edges(self):
        bers = [1e-5, 3e-4, 2e-3, 0.2]
        hist = ber_histogram(bers)
        assert sum(n for _, _, n in hist) == 4
        lows = [lo for lo, _, _ in hist]
        highs = [hi for _, hi, _ in hist]
        assert highs[-1] == 1.0
        assert all(lo < hi for lo, hi, _ in hist)
        assert lows[1:] == highs[:-1]

    def test_zero_ber_floored(self):
        hist = ber_histogram([0.0, 1e-2])
        assert sum(n for _, _, n in hist) == 2

    def test_all_high(self):
        hist = ber_histogram([0.4, 0.5])
        assert sum(n for _, _, n in hist) == 2


class TestReportFiles:
    def _reports(self):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        return cfg, {name: [rep] for name, rep in run_realization(cfg).items()}

    def test_run_csv_structure(self, tmp_path):
        cfg, reports = self._reports()
        path = tmp_path / "run.csv"
        write_run_csv(path, reports)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "realization,decoder,channel,ber,evm_pct,sic_rank,outage"
        assert len(lines) == 1 + 2 * cfg.n_t  # two decoders x channels
        fields = lines[1].split(",")
        assert fields[1] == "mmse" and fields[2] == "0"

    def test_rewrite_byte_identical(self, tmp_path):
        _, reports = self._reports()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(a, reports)
        write_run_csv(b, reports)
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(path, {"mmse": ber_histogram([1e-3, 1e-2])})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "decoder,bin_low,bin_high,count"
        assert all(line.startswith("mmse,") for line in lines[1:])


# sha256 of the byte-stable CLI outputs on the config_file config below
# (with --count 3, monte-carlo runs the determinism-criterion config).
# Unlike that criterion, which compares two runs of the same code, these
# hold across versions; an intended change re-pins a hash and says why.
GOLDEN = {
    "gen-screens": {
        "screen_0000.phs": "6ebe224e6e0ee07b05c8fa4b05809c60797c1fa5dd589df1ba246d0ace4b3574",
        "screen_0000.phs.json": "a9ff2403a62fcd411fbdf8e4b7ccd01159989ae8627a17c0911910a0d1650fda",
        "screen_0001.phs": "97fd092df3f519dc5abedc08d847a332ae91b82eaef1c81b46ab4702d6d215da",
        "screen_0001.phs.json": "6cedc1260411d6f6784f74257c4f37b9f06f3b0f8c5f94dd110fdec73e830c57",
    },
    "stats": {
        "structure_function.csv": "cf064873da040ae6bf97521d976d4f92d8af96a6f2ffdf51c04ac0e0b8cd6517",
        "scintillation.json": "892bb3412058ced7e19b1da06d602f5888a64cc386dfc4586ded5b15a1622136",
    },
    "monte-carlo": {
        "realizations.csv": "2adcc8f1d536e5ddcb04da1fee1d19146cc14ed43f387da2ba6e93a418ee3d9e",
        "summary.json": "b9d382177b7822d7eb4d60109b9705c51bb545068d1d3f69cc6f20a71dd38434",
        "histogram.csv": "fc43adf6613f77cc8094001e670d0b628dcc993c23bf9ca6de2b43a7f97cf97f",
    },
    "run": {
        "run.csv": "55601a6988173d7c16f483ddec61ac92d27b86ea1cc9b4acf18b611f485a0e4e",
    },
    # with --osnr 16 20
    "sweep": {
        "sweep.csv": "5d1cdc221e07995b697e9fcd4be87e75c4b77b0de425691a3e59a1e47b7ca1d3",
    },
}


def hashes(out):
    """sha256 of every file in the directory out, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def package_env(**overrides):
    """os.environ with this mdmfso first on PYTHONPATH, for a subprocess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdmfso.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **overrides)


# the files each report-writing subcommand leaves in --out
_REPORTS = {
    "run": ["run.csv"],
    "sweep": ["sweep.csv"],
    "monte-carlo": ["histogram.csv", "realizations.csv", "summary.json"],
}


class TestCli:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = dict(FAST)
        cfg["osnr_db"] = 18.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_gen_screens(self, tmp_path, config_file):
        out = tmp_path / "scr"
        rc = cli_main(
            ["gen-screens", "--config", config_file, "--count", "2", "--out", str(out)]
        )
        assert rc == 0
        screen, header = read_screen(out / "screen_0000.phs")
        assert header["grid_size"] == 480
        assert hashes(out) == GOLDEN["gen-screens"]

    def test_run(self, tmp_path, config_file):
        out = tmp_path / "run"
        rc = cli_main(["run", "--config", config_file, "--out", str(out)])
        assert rc == 0
        assert hashes(out) == GOLDEN["run"]

    def test_monte_carlo(self, tmp_path, config_file, capsys):
        out = tmp_path / "mc"
        argv = ["monte-carlo", "--config", config_file, "--count", "3"]
        rc = cli_main([*argv, "--out", str(out)])
        assert rc == 0
        assert hashes(out) == GOLDEN["monte-carlo"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["realizations"] == 3
        paired = capsys.readouterr().out.splitlines()[2:]
        assert paired[0].startswith("paired: SIC better on ")
        assert " of 3 realizations; MMSE/SIC ensemble BER ratio " in paired[0]
        assert paired[1].startswith("largest SIC-minus-MMSE gap at realization ")
        # one decoder: nothing to pair
        assert cli_main([*argv, "--decoder", "sic", "--out", str(tmp_path / "sic")]) == 0
        assert "paired" not in capsys.readouterr().out

    def test_sweep(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        rc = cli_main(
            ["sweep", "--config", config_file, "--osnr", "16", "20", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # two points x two decoders
        assert hashes(out) == GOLDEN["sweep"]

    def test_stats(self, tmp_path, config_file):
        out = tmp_path / "stats"
        rc = cli_main(
            ["stats", "--config", config_file, "--count", "30", "--out", str(out)]
        )
        assert rc == 0
        assert hashes(out) == GOLDEN["stats"]
        payload = json.loads((out / "scintillation.json").read_text())
        assert payload["screens"] == 30

    @pytest.mark.parametrize("workers", [1, 3])
    def test_stats_golden_at_any_worker_count(self, tmp_path, config_file, monkeypatch, workers):
        monkeypatch.setattr(screens, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(screens, "MAX_WORKERS", workers)
        out = tmp_path / "stats"
        argv = ["stats", "--config", config_file, "--count", "30", "--out", str(out)]
        assert cli_main(argv) == 0
        assert hashes(out) == GOLDEN["stats"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_monte_carlo_golden_at_any_worker_count(self, tmp_path, config_file, set_workers, workers):
        set_workers(workers)
        out = tmp_path / "mc"
        argv = ["monte-carlo", "--config", config_file, "--count", "3", "--out", str(out)]
        assert cli_main(argv) == 0
        assert hashes(out) == GOLDEN["monte-carlo"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, count", [("stats", "30"), ("monte-carlo", "3")])
    def test_golden_at_any_blas_thread_count(self, tmp_path, config_file, command, count, threads):
        # BLAS reads its thread count when it loads, so each count runs
        # in a fresh process
        out = tmp_path / "out"
        argv = [command, "--config", config_file, "--count", count, "--out", str(out)]
        subprocess.run(
            [sys.executable, "-m", "mdmfso.cli", *argv],
            env=package_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True,
            check=True,
        )
        assert hashes(out) == GOLDEN[command]

    def test_sweep_independent_of_worker_count(self, tmp_path, config_file, set_workers):
        outputs = []
        for workers in (1, 3):
            set_workers(workers)
            out = tmp_path / f"sweep{workers}"
            argv = ["sweep", "--config", config_file, "--osnr", "12", "16", "20", "--out", str(out)]
            assert cli_main(argv) == 0
            outputs.append(hashes(out))
        assert outputs[0] == outputs[1]

    def test_seed_and_decoder_override(self, tmp_path, config_file):
        out = tmp_path / "ovr"
        rc = cli_main(
            [
                "run", "--config", config_file, "--seed", "9",
                "--decoder", "mmse", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "run.csv").read_text().strip().split("\n")
        assert all(line.split(",")[1] == "mmse" for line in lines[1:])

    @pytest.mark.parametrize(
        "data", [{"realizations": "5"}, {"osnr_db": float("nan")}], ids=["str", "nan"]
    )
    def test_mistyped_config_exits_1(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = cli_main(["monte-carlo", "--config", str(bad), "--out", str(tmp_path / "mc")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config ")
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize(
        "command, data",
        [("run", {"pilot_period": 0}), ("run", {"frame_len": 1680}), ("run", {"pilot_period": 1}),
         ("run", {"osnr_db": -np.inf}), ("run", {"osnr_db": -4000.0}),
         ("run", {"osnr_grid": [10.0, -4000.0]}), ("run", {"grid_size": 0}),
         ("run", {"physical_length": 1.0, "tx_modes": ["LP01"], "rx_modes": ["LP01"]}),
         ("run", {"grid_size": 10**400}), ("run", {"outer_scale": 1.3407807929942597e+154}),
         ("run", {"fried": 2.225073858507203e-309}), ("run", {"baud": 2.225073858507203e-309}),
         ("stats", {"fried": 1e-200}), ("run", {"subharmonic_levels": 647}),
         ("stats", {"subharmonic_levels": 647}), ("gen-screens", {"subharmonic_levels": 647}),
         ("run", UNITARY_MORE_TX_THAN_RX),
         ("sweep", {**UNITARY_MORE_TX_THAN_RX, "osnr_grid": [16.0]}),
         ("monte-carlo", UNITARY_MORE_TX_THAN_RX)],
        ids=["no_pilot_period", "no_payload", "all_pilots", "minus_inf_osnr",
             "no_finite_noise", "no_finite_noise_in_grid", "zero_grid", "undersampled_waist",
             "grid_beyond_float", "outer_scale_square_beyond_float",
             "subnormal_fried", "subnormal_baud", "stats_structure_function_beyond_float",
             "levels_beyond_float", "stats_levels_beyond_float",
             "gen_screens_levels_beyond_float", "unitary_more_tx_than_rx",
             "sweep_unitary_more_tx_than_rx", "monte_carlo_unitary_more_tx_than_rx"],
    )
    def test_unusable_link_exits_1(self, tmp_path, capsys, command, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FAST, **data}))
        rc = cli_main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[{}]", "[1]", '"x"'])
    def test_non_object_config_exits_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a config must be a JSON object") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-screens", "run"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, config_file, command):
        out = tmp_path / "out"
        argv = [command, "--config", config_file, "--seed", "-1", "--out", str(out)]
        assert cli_main(argv + (["--count", "1"] if command == "gen-screens" else [])) == 1
        assert capsys.readouterr().err == "error: config seed=-1 must be >= 0\n"
        assert not out.exists()

    def test_negative_realization_exits_1(self, tmp_path, capsys, config_file):
        out = tmp_path / "run"
        argv = ["run", "--config", config_file, "--realization", "-1", "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: realization=-1 must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("osnr_db, rc", [(4000.0, 0), (-4000.0, 1)])
    def test_osnr_beyond_float_range(self, tmp_path, capsys, osnr_db, rc):
        # 10 ** 400 overflows a float: a noiseless link, as at +inf; at
        # -4000 dB the noise variance is not a finite float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST, "osnr_db": osnr_db}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc:
            assert err.startswith("error: ") and "no finite noise variance" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "monte-carlo", "stats", "gen-screens"])
    def test_failed_computation_leaves_no_output(self, tmp_path, capsys, monkeypatch, command):
        # an error raised while computing, after the config is accepted,
        # such as a raster that cannot be allocated; gen-screens fails in
        # its first screen
        errors = [
            (RuntimeError("computation failed"), "error: computation failed\n"),
            (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB\n"),
            (MemoryError(), "error: MemoryError\n"),
        ]
        for exc, message in errors:
            def fail(*args, **kwargs):
                raise exc

            for name in ("run_realization", "sweep_osnr", "monte_carlo", "screen_statistics"):
                monkeypatch.setattr(harness, name, fail)
            monkeypatch.setattr(screens, "generate_screen", fail)
            out = tmp_path / "out"
            argv = [command, "--out", str(out)] + (["--osnr", "10"] if command == "sweep" else [])
            assert cli_main(argv) == 1
            assert capsys.readouterr().err == message
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "monte-carlo"])
    @given(data=RUN_CONFIGS)
    @settings(max_examples=40, deadline=None)
    def test_run_fuzz_exits_0_or_1_with_error(self, command, data):
        # the CLI contract on any config: exit 0 with the command's
        # reports, or exit 1 with an `error:` line and no --out directory;
        # nothing raises. A sweep has a one-point grid unless data sets one
        base = {**FAST, "osnr_grid": [12.0]} if command == "sweep" else FAST
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump({**base, **data}, fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([command, "--config", cfg, "--out", out])
            if rc == 0:
                assert sorted(os.listdir(out)) == _REPORTS[command]
            else:
                assert rc == 1
                assert err.getvalue().startswith("error: ")
                assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv", [["gen-screens", "0"], ["gen-screens", "-3"], ["stats", "10"],
                 ["monte-carlo", "0"], ["monte-carlo", "-3"]],
    )
    def test_bad_count_exits_1_without_output(self, tmp_path, capsys, config_file, argv):
        out = tmp_path / "out"
        command, count = argv
        rc = cli_main([command, "--config", config_file, "--count", count, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_python_m_mdmfso_prints_usage(self):
        # the package runs as `python -m mdmfso` from a checkout
        done = subprocess.run(
            [sys.executable, "-m", "mdmfso", "--help"],
            env=package_env(), capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stdout.startswith("usage: mdmfso ")

    def test_bad_config_returns_error(self, tmp_path, capsys):
        # any key ExperimentConfig lacks exits 1, the names of an
        # intersymbol-interference channel and an equalizer, which the
        # link does not model, among them
        bad = tmp_path / "bad.json"
        for key, value in [("no_such_key", 1), ("isi_taps", [0.3, 1.0, 0.2]),
                           ("use_equalizer", True), ("equalizer_taps", 7),
                           ("equalizer_step", 1e-3)]:
            bad.write_text(json.dumps({key: value}))
            rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
            assert not (tmp_path / "out").exists()


def test_import_leaves_scipy_unloaded():
    # the runtime needs only numpy: no scipy on import, nor in the paths
    # that once used it (the KS distance and the unitary channel); the
    # thread pool is imported only by the functions that use
    # it, and the PRBS-15 tables are built on first use, so that
    # importing the package stays cheap
    code = """
import sys
import numpy as np
import mdmfso
from mdmfso import channel, framing, harness

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

print(loaded("scipy", "concurrent.futures"))
print(framing._prbs15_tables.cache_info().currsize)
harness.power_statistics(np.exp(np.linspace(-1.0, 1.0, 30)))
cfg = harness.ExperimentConfig(
    channel_kind="unitary", tx_modes=("LP01",), rx_modes=("LP01", "LP11a"), n_frames=1
)
harness.build_channel(cfg, 0)
channel.propagate(np.ones((2, 50), complex), np.eye(2), None, 0.0, 0)
print(loaded("scipy"))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n") == ["[]", "0", "[]", ""]


def test_public_names_resolve():
    # every name of __all__ is a package attribute, so that a star-import
    # of the package succeeds and binds them all
    missing = [name for name in mdmfso.__all__ if not hasattr(mdmfso, name)]
    assert missing == []
    namespace = {}
    exec("from mdmfso import *", namespace)
    assert set(mdmfso.__all__) <= set(namespace)


# the exported names that neither a program module nor a bench script
# reads, and why each stays public
UNREAD_EXPORTS = {
    "read_screen": "the reader of the PHSCRN01 files that gen-screens writes",
    "net_spectral_efficiency": "waits for the paper ledger of ROADMAP item 5",
}


def test_public_names_are_read_by_the_program():
    # every name of __all__ but UNREAD_EXPORTS is read, as an AST Name or
    # Attribute, by a package module other than __init__ or by a
    # perfbench script; a definition's own name and docstrings are not
    # reads, and neither are the tests. An exemption that gains a reader
    # leaves the list
    package = os.path.dirname(mdmfso.__file__)
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    paths = [os.path.join(package, name) for name in os.listdir(package)
             if name.endswith(".py") and name != "__init__.py"]
    paths += [os.path.join(bench, name) for name in os.listdir(bench) if name.endswith(".py")]
    read = set()
    for path in paths:
        with open(path) as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(mdmfso.__all__) - read) == sorted(UNREAD_EXPORTS)


def test_only_the_composers_import_mdmfso_modules():
    # screens, optics, framing, channel and dsp are leaves; harness
    # composes them, and cli and the package __init__ sit on top, with
    # __main__ running the cli. The cli makes one harness call per
    # subcommand, so it reaches below harness only for the screen stream
    # and file format of gen-screens and the Kolmogorov reference of stats
    package = os.path.dirname(mdmfso.__file__)
    modules = {name for name in os.listdir(package) if name.endswith(".py")}
    assert {"screens.py", "optics.py", "framing.py", "channel.py", "dsp.py"} <= modules
    imported = {}  # module file -> the mdmfso modules it imports
    for name in modules:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                # the dotted path of each imported name, a relative one
                # taken from the package
                base = (["mdmfso"] if node.level else []) + ([node.module] if node.module else [])
                paths = [".".join([*base, alias.name]) for alias in node.names]
            elif isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            else:
                continue
            for path in paths:
                top, _, rest = path.partition(".")
                if top == "mdmfso":
                    found.add(rest.partition(".")[0])
        imported[name] = found
    assert {name for name, found in imported.items() if found} == {
        "__init__.py", "__main__.py", "cli.py", "harness.py"
    }
    assert imported["cli.py"] == {"harness", "screens"}
    assert imported["__main__.py"] == {"cli"}


def _perfbench(name):
    """The module perfbench/<name>.py, loaded from its file."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_names_resolve():
    # perfbench/tracing.py wraps these names from outside the program, so
    # a rename or deletion here would break `perfbench/run.py --trace 1`
    import importlib

    tracing = _perfbench("tracing")
    for name, (home, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(home), attr, None)), name
    cls = tracing.coupler_class()
    for name, attr in tracing.METHODS.items():
        assert callable(cls.__dict__.get(attr)), name
