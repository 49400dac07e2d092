import numpy as np
import pytest

from mdmfso.channel import (
    DEFAULT_BAUD,
    REFERENCE_BANDWIDTH,
    IsiConfig,
    NoiseConfig,
    PhaseNoiseConfig,
    osnr_to_n0,
    propagate,
    wiener_phase,
)
from mdmfso.framing import FrameLayout, assemble_frames, mode_delays


class TestOsnr:
    def test_reference_value(self):
        # at 34.46 GBaud Es/N0 sits 10*log10(baud / (2 * 12.5 GHz)) =
        # 1.394 dB below the OSNR
        n0 = osnr_to_n0(10.0, DEFAULT_BAUD, 1.0)
        es_n0_db = -10.0 * np.log10(n0)
        assert es_n0_db == pytest.approx(10.0 - 1.394, abs=2e-3)

    def test_scaling(self):
        assert osnr_to_n0(13.0, DEFAULT_BAUD, 1.0) == pytest.approx(
            osnr_to_n0(10.0, DEFAULT_BAUD, 1.0) / 10 ** 0.3
        )
        assert osnr_to_n0(10.0, DEFAULT_BAUD, 2.0) == pytest.approx(
            2.0 * osnr_to_n0(10.0, DEFAULT_BAUD, 1.0)
        )

    def test_infinite(self):
        assert osnr_to_n0(np.inf, DEFAULT_BAUD, 1.0) == 0.0

    def test_bad_baud(self):
        with pytest.raises(ValueError):
            osnr_to_n0(10.0, 0.0, 1.0)

    def test_from_osnr(self):
        cfg = NoiseConfig.from_osnr(20.0, DEFAULT_BAUD, 1.0, seed=4)
        assert cfg.n0 == pytest.approx(osnr_to_n0(20.0, DEFAULT_BAUD, 1.0))
        assert cfg.seed == 4

    def test_negative_n0(self):
        with pytest.raises(ValueError):
            NoiseConfig(n0=-1e-3)


class TestWienerPhase:
    def test_starts_at_zero(self):
        phi = wiener_phase(100, 3, PhaseNoiseConfig(seed=1))
        np.testing.assert_array_equal(phi[:, 0], 0.0)
        assert phi.shape == (3, 100)

    def test_increment_variance(self):
        cfg = PhaseNoiseConfig(linewidth=1e5, baud=DEFAULT_BAUD)
        assert cfg.increment_variance == pytest.approx(
            2 * np.pi * 1e5 / 34.46e9
        )
        # ensemble check: var of one-step increments over many walks
        phi = wiener_phase(1000, 64, PhaseNoiseConfig(linewidth=1e6, seed=2))
        inc = np.diff(phi, axis=1)
        expect = 2 * np.pi * 1e6 / DEFAULT_BAUD
        assert inc.var() == pytest.approx(expect, rel=0.1)

    def test_zero_linewidth(self):
        phi = wiener_phase(50, 2, PhaseNoiseConfig(linewidth=0.0))
        np.testing.assert_array_equal(phi, 0.0)

    def test_shared_walk(self):
        cfg = PhaseNoiseConfig(per_rx_independent=False, seed=3)
        phi = wiener_phase(200, 4, cfg)
        np.testing.assert_array_equal(phi[0], phi[1])
        indep = wiener_phase(200, 4, PhaseNoiseConfig(seed=3))
        assert not np.array_equal(indep[0], indep[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseNoiseConfig(linewidth=-1.0)
        with pytest.raises(ValueError):
            PhaseNoiseConfig(baud=0.0)


class TestIsiConfig:
    def test_memoryless_default(self):
        assert IsiConfig().taps == (1.0,)

    def test_normalized(self):
        cfg = IsiConfig.normalized([0.3, 1.0, 0.2])
        assert np.sum(np.abs(np.asarray(cfg.taps)) ** 2) == pytest.approx(1.0)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            IsiConfig(taps=(0.7, 0.71414284))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            IsiConfig(taps=(0.5, 1.0, 0.5))


class TestPropagate:
    def test_noiseless_identity(self):
        frame = assemble_frames(FrameLayout(), 2, 1, mode_delays(FrameLayout(), 1))
        y = propagate(frame, np.eye(2, dtype=complex), None, None)
        np.testing.assert_array_equal(y, frame.symbols)

    def test_matrix_applied(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_allclose(propagate(s, h, None, None), h @ s)

    def test_constant_phase(self):
        s = np.ones((2, 10), dtype=complex)
        phase = np.full((2, 10), 0.5)
        y = propagate(s, np.eye(2), phase, None)
        np.testing.assert_allclose(y, np.exp(0.5j) * s)

    def test_phasor_bits_equal_complex_exp(self):
        # the cos/sin phasor reproduces exp(1j * phase) * y bit for bit,
        # signed zeros and phases far outside [-pi, pi] included
        rng = np.random.default_rng(11)
        walk = wiener_phase(20000, 3, PhaseNoiseConfig(linewidth=1e5, baud=DEFAULT_BAUD, seed=2))
        wide = rng.standard_normal((3, 20000)) * np.array([[1e3], [1e9], [1e17]])
        phase = np.concatenate([walk, wide], axis=1)
        phase[:, :6] = [0.0, -0.0, np.pi, -np.pi, 1e300, -1e300]
        s = rng.standard_normal((2, phase.shape[1])) + 1j * rng.standard_normal((2, phase.shape[1]))
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        y = propagate(s, h, phase, None)
        assert np.array_equal(y.view(np.uint64), (np.exp(1j * phase) * (h @ s)).view(np.uint64))
        ones = propagate(np.ones((1, phase.shape[1]), complex), np.ones((3, 1)), phase, None)
        assert np.array_equal(ones.view(np.uint64), np.exp(1j * phase).view(np.uint64))

    def test_noise_variance(self):
        s = np.zeros((2, 200000), dtype=complex)
        y = propagate(s, np.eye(2), None, NoiseConfig(n0=0.04, seed=9))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.04, rel=0.02)
        # real/imag balanced
        assert y.real.var() == pytest.approx(0.02, rel=0.03)

    def test_noise_deterministic(self):
        s = np.zeros((1, 100), dtype=complex)
        a = propagate(s, np.eye(1), None, NoiseConfig(n0=0.1, seed=5))
        b = propagate(s, np.eye(1), None, NoiseConfig(n0=0.1, seed=5))
        np.testing.assert_array_equal(a, b)

    def test_isi_matches_convolve(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        isi = IsiConfig.normalized([0.3, 1.0, 0.2])
        y = propagate(s, np.eye(1), None, None, isi=isi)
        taps = np.asarray(isi.taps)
        ref = np.convolve(s[0], taps, mode="same")
        np.testing.assert_allclose(y[0], ref, atol=1e-12)

    def test_shape_errors(self):
        s = np.ones((3, 10), dtype=complex)
        with pytest.raises(ValueError):
            propagate(s, np.eye(2), None, None)
        with pytest.raises(ValueError):
            propagate(s, np.eye(3), np.zeros((2, 10)), None)
