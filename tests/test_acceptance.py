"""End-to-end acceptance suite.

Each test function is one acceptance criterion; `pytest -v` therefore
prints one pass/fail line per criterion, and three more for
TestTheoreticalReference, the checks of the reference curve that
criterion 04 reads. The 120 strong-turbulence realization screens that
criteria 02, 05 and 08 share are walked once per session, and only what
each criterion reads of them is kept.
"""

from dataclasses import replace
import json
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from mdmfso import dsp, screens
from mdmfso.channel import (
    DEFAULT_BAUD,
    osnr_to_n0,
    propagate,
    wiener_phase,
)
from mdmfso.cli import main as cli_main
from mdmfso.framing import QPSK, balanced_qpsk, qpsk_demap
from mdmfso.harness import (
    ExperimentConfig,
    monte_carlo,
    power_statistics,
    realization_screen,
    scintillation_stats,
    sweep_osnr,
)
from mdmfso.optics import ModalCoupler, polarization_expand

SEED = 0
ENSEMBLE = 120

# criterion 08's mode sets by (n_t, n_r): the default 10x12, three
# transmit modes, and the receive set without LP02
TX6 = ("LP01", "LP11a", "LP11b")
RX10 = ("LP01", "LP11a", "LP11b", "LP21a", "LP21b")
MODE_SETS = {
    (10, 12): {},
    (6, 12): {"tx_modes": TX6},
    (10, 10): {"rx_modes": RX10},
    (6, 10): {"tx_modes": TX6, "rx_modes": RX10},
}


def errors(report):
    return report.ber_avg * report.data_bits


@pytest.fixture(scope="session")
def strong_ensemble():
    """The 120 strong-turbulence screens that monte_carlo draws, each
    made once and coupled once through every mode set's own coupler.

    Returns the config of each mode set, its channel matrix per
    realization (as monte_carlo(config) would build them) and the
    default coupler's captured power per screen. Both come from that one
    coupling through copies, kept here, of the expressions with which
    ModalCoupler.channel_matrix and captured_power form them, so the
    criteria that read this fixture (02, 05 and 08) check the copies;
    realization 0 checks the copies against both methods bit for bit.
    Only the screens in flight on the worker map are held, not the
    885 MB ensemble.
    """
    base = ExperimentConfig(seed=SEED, realizations=ENSEMBLE)
    configs = {key: replace(base, **modes) for key, modes in MODE_SETS.items()}
    couplers = {key: ModalCoupler(cfg) for key, cfg in configs.items()}
    default = couplers[(10, 12)]

    def couple(r):
        screen = realization_screen(base, r)
        channels, power = {}, None
        for key, c in couplers.items():
            m = c.coupling(screen)
            channels[key] = polarization_expand(m, np.repeat(c.calibration_spatial, 2))
            if c is default:
                m = m * c.calibration_spatial[None, :]
                power = float(np.linalg.norm(m) ** 2 / len(c.calibration_spatial))
        if r == 0:
            for key, c in couplers.items():
                assert channels[key].tobytes() == c.channel_matrix(screen).tobytes()
            assert power == default.captured_power(screen)
        return channels, power

    channels = {key: [] for key in configs}
    powers = []
    for per_set, power in screens._ordered_map(couple, range(ENSEMBLE)):
        for key, h in per_set.items():
            channels[key].append(h)
        powers.append(power)
    return configs, channels, powers


@pytest.fixture(scope="session")
def ensemble_10x12(strong_ensemble):
    configs, channels, _ = strong_ensemble
    return monte_carlo(configs[(10, 12)], channels=channels[(10, 12)])


def test_criterion_01_screen_statistics():
    # 200 screens at defaults: D_phi within +-15% of 6.88 (r/r0)^(5/3)
    # for r in [5 pitch, 0.2 L]; without subharmonics the large-r check
    # fails low, showing the low-frequency augmentation matters
    count = 200
    base = ExperimentConfig(seed=SEED).screen_config()
    k_max = int(0.2 * base.physical_length / base.pitch)
    ks = np.array([5, 9, 16, 28, 50, 88, 155, k_max])
    seps = ks * base.pitch

    def streamed_sf(levels):
        # one screen at a time: 200 rasters at the full grid take 1.5 GB
        cfg = replace(base, subharmonic_levels=levels)
        stream = (screen for _, screen in screens.iter_screens(cfg, count))
        return screens.structure_function(stream, seps)

    rs, d_full = streamed_sf(base.subharmonic_levels)
    _, d_none = streamed_sf(0)
    ref = screens.kolmogorov_structure_function(rs, base.fried)

    ratio_none = d_none / ref
    assert ratio_none[-1] < 0.85, "no-subharmonic run should fail low at 0.2L"

    ratio_full = d_full / ref
    assert np.all((ratio_full >= 0.85) & (ratio_full <= 1.15)), (
        f"D_phi/Kolmogorov outside +-15%: {np.round(ratio_full, 3)} at "
        f"r/pitch = {ks}"
    )


def test_criterion_02_scintillation_contrast(strong_ensemble):
    # sigma_I^2(r0 = 0.8 mm) > 5 x sigma_I^2(r0 = 3.0 mm), lognormal
    # KS distance < 0.15 for both batches of 120 screens
    _, _, strong_powers = strong_ensemble
    weak_cfg = ExperimentConfig(seed=SEED, fried=3.0e-3)
    weak_screens = screens.iter_screens(weak_cfg.screen_config(), ENSEMBLE)

    strong = power_statistics(strong_powers)
    weak = scintillation_stats((screen for _, screen in weak_screens), weak_cfg)
    # experimental anchors for comparison only (different geometry):
    # sigma_I^2 = 0.079 (strong) and 0.0050 (weak)
    print(
        f"\nsigma_I^2 strong = {strong['scintillation_index']:.4f} "
        f"(KS {strong['ks_distance']:.3f}), "
        f"weak = {weak['scintillation_index']:.4f} "
        f"(KS {weak['ks_distance']:.3f}); anchors 0.079 / 0.0050"
    )
    assert strong["ks_distance"] < 0.15
    assert weak["ks_distance"] < 0.15
    assert strong["scintillation_index"] > 5.0 * weak["scintillation_index"]


def test_criterion_03_awgn_calibration():
    # identity channel at Es/N0 = 10 dB over 10^7 symbols:
    # BER = 7.83e-4 +- 15%
    n0 = 0.1
    n_t, chunk, chunks = 4, 500_000, 5
    rng = np.random.default_rng(42)
    bit_errors = 0
    for c in range(chunks):
        idx = rng.integers(0, 4, (n_t, chunk))
        s = QPSK[idx]
        y = propagate(s, np.eye(n_t, dtype=complex), None, n0, c)
        hard = dsp.hard_decision(y)
        bit_errors += np.sum(qpsk_demap(hard) != qpsk_demap(s))
    total_bits = 2 * n_t * chunk * chunks  # 2e7 bits from 1e7 symbols
    ber = bit_errors / total_bits
    assert ber == pytest.approx(7.83e-4, rel=0.15)


def theoretical_reference(osnr_grid, baud=DEFAULT_BAUD):
    """AWGN QPSK reference BER = 0.5 erfc(sqrt(Es/(2 N0))) per OSNR point.

    Under the unitary-submatrix assumption every channel keeps the full
    per-channel SNR, so the curve is independent of (n_t, n_r).
    """
    n0 = np.array([osnr_to_n0(o, baud) for o in np.atleast_1d(osnr_grid)])
    with np.errstate(divide="ignore"):
        arg = np.sqrt(1.0 / (2.0 * n0))
    return np.array([0.5 * math.erfc(a) for a in arg])


class TestTheoreticalReference:
    def test_awgn_qpsk_point(self):
        # OSNR giving Es/N0 = 10 dB (n0 = 0.1): BER = Q(sqrt 10) = 7.827e-4
        osnr_db = 10.0 * np.log10(34.46e9 / (0.1 * 2 * 12.5e9))
        ber = theoretical_reference([osnr_db])[0]
        assert ber == pytest.approx(7.827e-4, rel=1e-3)

    def test_infinite_osnr(self):
        assert theoretical_reference([np.inf])[0] == 0.0

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc

        # down to BER 1e-51 at 25 dB; further out scipy's own erfc strays
        # by more than 1e-14 from the true value (5.7e-14 near 1e-285),
        # where math.erfc stays within 3e-16
        grid = np.append(np.linspace(-10.0, 25.0, 71), np.inf)
        n0 = np.array([osnr_to_n0(o, DEFAULT_BAUD) for o in grid])
        with np.errstate(divide="ignore"):
            ref = 0.5 * erfc(np.sqrt(1.0 / (2.0 * n0)))
        ber = theoretical_reference(grid)
        np.testing.assert_allclose(ber, ref, rtol=1e-14, atol=0)
        assert ber[-1] == 0.0


def test_criterion_04_theoretical_reference():
    # unitary channels with known CSI: simulated BER-vs-OSNR curve within
    # +-0.2 dB horizontally of the erfc reference at BER = 1e-3
    grid = (10.0, 10.5, 11.0, 11.5, 12.0, 12.5)
    cfg = ExperimentConfig(
        seed=SEED,
        channel_kind="unitary",
        genie_csi=True,
        osnr_grid=grid,
        decoder="mmse",
    )
    rows = sweep_osnr(cfg)
    sim = np.array([r["ber_avg"] for r in rows])
    ref = theoretical_reference(grid)

    def osnr_at(bers):
        # OSNR where the log-BER curve crosses 1e-3 (curves are decreasing)
        return np.interp(np.log10(1e-3), np.log10(bers)[::-1], np.array(grid)[::-1])

    offset = osnr_at(sim) - osnr_at(ref)
    assert abs(offset) <= 0.2, f"horizontal offset {offset:+.3f} dB at BER 1e-3"


def test_criterion_05_sic_dominance(ensemble_10x12):
    # paired SIC <= MMSE on every realization within binomial counting
    # tolerance; ensemble-average ratio MMSE/SIC >= 5
    mmse = ensemble_10x12.reports["mmse"]
    sic = ensemble_10x12.reports["sic"]
    assert len(mmse) == ENSEMBLE
    # >= 2e5 data symbols per realization
    assert all(r.data_bits / 2 >= 2e5 for r in mmse)
    for a, b in zip(sic, mmse):
        na, nb = errors(a), errors(b)
        tolerance = 4.0 * np.sqrt(na + nb)
        assert na <= nb + tolerance, (
            f"realization {a.realization}: SIC errors {na:.0f} exceed "
            f"MMSE {nb:.0f} beyond counting tolerance {tolerance:.1f}"
        )
    ratio = ensemble_10x12.averages["mmse"] / ensemble_10x12.averages["sic"]
    print(f"\nensemble MMSE/SIC BER ratio = {ratio:.2f} (experiments report ~17x)")
    assert ratio >= 5.0


def test_criterion_06_orthogonal_equivalence():
    # 100 random unitary-column channels: SIC and MMSE hard decisions
    # identical symbol for symbol
    rng = np.random.default_rng(6)
    n0 = 0.1
    for trial in range(100):
        u = unitary_group.rvs(8, random_state=1000 + trial)[:, :6]
        s = QPSK[rng.integers(0, 4, (6, 200))]
        y = propagate(s, u, None, n0, trial)
        a = dsp.mmse_decode(y, u, n0)
        b, _ = dsp.sic_decode(y, u, n0)
        assert np.array_equal(dsp.hard_decision(a), dsp.hard_decision(b))


def test_criterion_07_first_stage_equality():
    # SIC stage-1 soft outputs bit-exactly equal the MMSE soft outputs
    rng = np.random.default_rng(7)
    n0 = 0.05
    for trial in range(50):
        h = (rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))) / np.sqrt(20)
        s = QPSK[rng.integers(0, 4, (10, 100))]
        y = propagate(s, h, None, n0, trial)
        mmse = dsp.mmse_decode(y, h, n0)
        sic, order = dsp.sic_decode(y, h, n0)
        assert np.array_equal(sic[order[0]], mmse[order[0]])


def test_criterion_08_redundancy_gain(strong_ensemble, ensemble_10x12):
    # same 120 screens: BER(6x12) <= BER(10x12), BER(N_r=12) <= BER(N_r=10)
    # per decoder; outage(SIC) <= outage(MMSE) in every configuration
    configs, channels, _ = strong_ensemble
    results = {
        key: ensemble_10x12 if key == (10, 12) else monte_carlo(cfg, channels=channels[key])
        for key, cfg in configs.items()
    }
    for name in ("mmse", "sic"):
        avg = {k: v.averages[name] for k, v in results.items()}
        print(f"\n{name}: " + ", ".join(f"{k}: {v:.3e}" for k, v in avg.items()))
        assert avg[(6, 12)] <= avg[(10, 12)]
        assert avg[(6, 10)] <= avg[(10, 10)]
        assert avg[(10, 12)] <= avg[(10, 10)]
        assert avg[(6, 12)] <= avg[(6, 10)]
    for key, summary in results.items():
        assert (
            summary.outage_probability["sic"] <= summary.outage_probability["mmse"]
        ), f"configuration {key}"


def test_criterion_09_estimator_sanity():
    # noiseless static channel recovered exactly; pilot phase tracking
    # MSE < 5e-3 rad^2 at 100 kHz linewidth, Es/N0 = 15 dB, window 8
    rng = np.random.default_rng(9)
    h = (rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))) / np.sqrt(20)
    ts = np.stack([balanced_qpsk(k, 1680) for k in range(10)])
    est = dsp.estimate_channel(h @ ts, ts)
    assert np.max(np.abs(est - h)) <= 1e-9

    total, n_r = 20000, 2
    pilot_times = np.arange(0, total, 10)
    pilots = np.stack(
        [balanced_qpsk(50 + k, pilot_times.size)[: pilot_times.size] for k in range(n_r)]
    )
    s = QPSK[rng.integers(0, 4, (n_r, total))]
    s[:, pilot_times] = pilots
    phi = wiener_phase(total, n_r, 1e5, DEFAULT_BAUD, 90)
    y = propagate(s, np.eye(n_r), phi, 10 ** -1.5, 91)
    est_phase = dsp.estimate_phase(y, pilot_times, pilots, np.eye(n_r), window=8)
    mse = float(np.mean((est_phase - phi) ** 2))
    assert mse < 5e-3, f"phase tracking MSE {mse:.2e} rad^2"


def test_criterion_10_determinism(tmp_path):
    # repeated monte-carlo with one config produces byte-identical outputs
    config = dict(
        grid_size=480,
        tx_modes=["LP01", "LP11a"],
        rx_modes=["LP01", "LP11a", "LP11b"],
        n_frames=1,
        realizations=3,
        osnr_db=18.0,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main(
            ["monte-carlo", "--config", str(cfg_path), "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    for name in ("realizations.csv", "summary.json", "histogram.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
