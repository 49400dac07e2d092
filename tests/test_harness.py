import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mdmfso
from mdmfso import channel, dsp, harness, screens
from mdmfso.cli import main as cli_main
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
    realization_screen,
    run_realization,
    scintillation_index,
    scintillation_stats,
    sweep_osnr,
    theoretical_reference,
    write_histogram_csv,
    write_run_csv,
)
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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_aperture_larger_than_raster_rejected(self):
        with pytest.raises(ValueError, match="config aperture_diameter=0.009 exceeds"):
            ExperimentConfig(aperture_diameter=9e-3)
        with pytest.raises(ValueError, match="config aperture_diameter"):
            ExperimentConfig(physical_length=8e-3)
        assert ExperimentConfig(aperture_diameter=8.832e-3).aperture_diameter == 8.832e-3

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
            realization=0, seed=0, decoder="mmse", ber=(1e-3, 3e-3),
            evm_pct=(20.0, 25.0), sic_order=(0, 1), outage=False,
            cond_h=2.0, data_bits=10000, error_free=False,
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
        rep = self._report(ber=(0.0, 0.0), error_free=True)
        assert rep.ber_bound == pytest.approx(1e-4)

    def test_ber_validation(self):
        with pytest.raises(ValueError):
            self._report(ber=(1.2, 0.0))


class TestReferences:
    def test_awgn_qpsk_point(self):
        # OSNR giving Es/N0 = 10 dB (n0 = 0.1): BER = Q(sqrt 10) = 7.827e-4
        osnr_db = 10.0 * np.log10(34.46e9 / (0.1 * 2 * 12.5e9))
        ber = theoretical_reference([osnr_db])[0]
        assert ber == pytest.approx(7.827e-4, rel=1e-3)

    def test_infinite_osnr(self):
        assert theoretical_reference([np.inf])[0] == 0.0

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
        assert reports["mmse"].cond_h == reports["sic"].cond_h

    def test_unitary_channel_orthonormal(self):
        cfg = ExperimentConfig(**FAST, channel_kind="unitary")
        h = build_channel(cfg, 0).h
        np.testing.assert_allclose(
            h.conj().T @ h, np.eye(cfg.n_t), atol=1e-12
        )

    def test_monte_carlo_summary(self):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        summary = monte_carlo(cfg)
        for name in ("mmse", "sic"):
            assert len(summary.reports[name]) == 2
            assert 0.0 <= summary.outage_probability[name] <= 1.0
            counts = sum(n for _, _, n in summary.histogram[name])
            assert counts == 2

    def test_realization_screens_reproduce_the_ensemble(self):
        cfg = ExperimentConfig(**FAST, osnr_db=18.0)
        batch = [realization_screen(cfg, r) for r in range(cfg.realizations)]
        assert monte_carlo(cfg, screen_batch=batch).reports == monte_carlo(cfg).reports

    def test_monte_carlo_validation(self):
        cfg = ExperimentConfig(**FAST)
        with pytest.raises(ValueError):
            monte_carlo(cfg, count=0)
        with pytest.raises(ValueError):
            monte_carlo(cfg, count=2, screen_batch=[None])

    def test_sweep_requires_grid(self):
        with pytest.raises(ValueError, match="osnr_grid"):
            sweep_osnr(ExperimentConfig(**FAST))

    def test_sweep_monotone_reference(self):
        cfg = ExperimentConfig(
            **FAST, channel_kind="unitary", genie_csi=True,
            osnr_grid=(8.0, 14.0),
        )
        rows = sweep_osnr(cfg)
        mmse = {r["osnr_db"]: r["ber_bound"] for r in rows if r["decoder"] == "mmse"}
        assert mmse[14.0] < mmse[8.0]


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


def reference_scores(frame, config, results):
    """decode_stream's accumulators by the per-channel loop, from the
    decoder results of each frame window in call order."""
    n_t = config.n_t
    acc = {d: {k: np.zeros(n_t) for k in ("bit_err", "bits", "err2", "syms")}
           for d in config.decoders}
    windows = harness._frame_windows(frame, config.layout, config.n_frames)
    calls = iter(results)
    for sl, _, _ in windows:
        for name in config.decoders:
            res = next(calls)
            dmask = frame.data_mask[:, sl]
            dec_bits = qpsk_demap(res.hard)
            ref_bits = frame.data_bits[:, sl]
            for ch in range(n_t):
                m = dmask[ch]
                acc[name]["bit_err"][ch] += np.sum(dec_bits[ch][m] != ref_bits[ch][m])
                acc[name]["bits"][ch] += 2 * m.sum()
                err = res.soft[ch][m] - frame.symbols[ch, sl][m]
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
    y = channel.propagate(frame, h, None, channel.NoiseConfig(n0=n0, seed=21))

    results = []
    for name in ("mmse_decode", "sic_decode"):
        def recording(*args, _decode=getattr(dsp, name), **kwargs):
            results.append(_decode(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(dsp, name, recording)
    acc, _ = decode_stream(y, frame, cfg, n0)
    expected = reference_scores(frame, cfg, results)
    for name in cfg.decoders:
        assert acc[name]["bit_err"].sum() > 0
        for key in ("bit_err", "bits", "syms"):
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
        return cfg, run_realization(cfg)

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
        "screen_0000.phs": "190497e65b9f48c92215d0a517c4eca581f65e5dca33b54b3633089fba197f57",
        "screen_0000.phs.json": "a9ff2403a62fcd411fbdf8e4b7ccd01159989ae8627a17c0911910a0d1650fda",
        "screen_0001.phs": "de72f099d1deafa9a54fa5ac24d16648e0e7105d241f00155392d241da774e2f",
        "screen_0001.phs.json": "6cedc1260411d6f6784f74257c4f37b9f06f3b0f8c5f94dd110fdec73e830c57",
    },
    "stats": {
        "structure_function.csv": "cf064873da040ae6bf97521d976d4f92d8af96a6f2ffdf51c04ac0e0b8cd6517",
        "scintillation.json": "385e212b6db98cd6c2cc8d1fee2fca2d98b4e92d83fd2f632a3fe89b2c0fe71c",
    },
    "monte-carlo": {
        "realizations.csv": "2adcc8f1d536e5ddcb04da1fee1d19146cc14ed43f387da2ba6e93a418ee3d9e",
        "summary.json": "52f1257d72950bec813ef06c86e045dfa1b487bf72e86ed5edadb9c7524e543c",
        "histogram.csv": "fc43adf6613f77cc8094001e670d0b628dcc993c23bf9ca6de2b43a7f97cf97f",
    },
}


def hashes(out):
    """sha256 of every file in the directory out, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


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
        assert (out / "run.csv").exists()

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

    def test_bad_config_returns_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_key": 1}))
        rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1


def test_import_leaves_scipy_unloaded():
    # scipy and the thread pool are imported only by the functions that
    # use them, so that importing the package (every CLI run) stays cheap
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdmfso.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys, mdmfso; "
        "print(sorted(m for m in sys.modules if m.startswith(("
        "'scipy.signal', 'scipy.stats', 'scipy.special', 'concurrent.futures'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
