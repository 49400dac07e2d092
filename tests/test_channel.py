import numpy as np
import pytest

from mdmfso.channel import (
    DEFAULT_BAUD,
    REFERENCE_BANDWIDTH,
    osnr_to_n0,
    propagate,
    wiener_phase,
)
from mdmfso.framing import FrameLayout, assemble_frames, mode_delays


class TestOsnr:
    def test_reference_value(self):
        # at 34.46 GBaud Es/N0 sits 10*log10(baud / (2 * 12.5 GHz)) =
        # 1.394 dB below the OSNR
        n0 = osnr_to_n0(10.0, DEFAULT_BAUD)
        es_n0_db = -10.0 * np.log10(n0)
        assert es_n0_db == pytest.approx(10.0 - 1.394, abs=2e-3)

    def test_scaling(self):
        assert osnr_to_n0(13.0, DEFAULT_BAUD) == pytest.approx(
            osnr_to_n0(10.0, DEFAULT_BAUD) / 10 ** 0.3
        )

    def test_infinite(self):
        assert osnr_to_n0(np.inf, DEFAULT_BAUD) == 0.0
        with pytest.raises(ValueError, match="-inf dB"):
            osnr_to_n0(-np.inf, DEFAULT_BAUD)

    @pytest.mark.parametrize("osnr_db", [3090.0, 4000.0, 1e300])
    def test_beyond_float_range_is_noiseless(self, osnr_db):
        # 10 ** (osnr_db / 10) overflows a float here: a noiseless link, as +inf
        assert osnr_to_n0(osnr_db, DEFAULT_BAUD) == 0.0

    @pytest.mark.parametrize("osnr_db", [-3090.0, -4000.0, -1e300])
    def test_no_finite_noise_variance(self, osnr_db):
        with pytest.raises(ValueError, match="no finite noise variance"):
            osnr_to_n0(osnr_db, DEFAULT_BAUD)

    def test_bad_baud(self):
        with pytest.raises(ValueError):
            osnr_to_n0(10.0, 0.0)

    def test_negative_n0(self):
        # NaN too: it would otherwise draw no noise
        for n0 in (-1e-3, np.nan):
            with pytest.raises(ValueError, match=f"noise variance n0={n0!r} must be >= 0"):
                propagate(np.ones((1, 10), complex), np.eye(1), None, n0, 0)


class TestWienerPhase:
    def test_starts_at_zero(self):
        phi = wiener_phase(100, 3, 1e5, DEFAULT_BAUD, 1)
        np.testing.assert_array_equal(phi[:, 0], 0.0)
        assert phi.shape == (3, 100)

    def test_increment_variance(self):
        # ensemble check: var of one-step increments over many walks
        phi = wiener_phase(1000, 64, 1e6, DEFAULT_BAUD, 2)
        inc = np.diff(phi, axis=1)
        expect = 2 * np.pi * 1e6 / DEFAULT_BAUD
        assert inc.var() == pytest.approx(expect, rel=0.1)

    def test_zero_linewidth(self):
        # at any baud, a subnormal one included
        for baud in (DEFAULT_BAUD, 2.225073858507203e-309):
            phi = wiener_phase(50, 2, 0.0, baud, 0)
            np.testing.assert_array_equal(phi, 0.0)

    def test_validation(self):
        for linewidth, baud, match in [
            (-1.0, DEFAULT_BAUD, "linewidth=-1.0 must be >= 0 and finite"),
            (np.inf, DEFAULT_BAUD, "linewidth=inf must be >= 0 and finite"),
            (1e5, 0.0, "baud must be positive"),
            # 2 pi linewidth / baud overflows the float range
            (1e5, 2.225073858507203e-309, "baud=2.225073858507203e-309 gives linewidth=100000.0"),
            (1e5, np.float64(2.225073858507203e-309), "an infinite phase walk variance"),
            (1e308, DEFAULT_BAUD, "an infinite phase walk variance"),
        ]:
            with pytest.raises(ValueError, match=match):
                wiener_phase(10, 1, linewidth, baud, 0)


class TestPropagate:
    def test_noiseless_identity(self):
        frame = assemble_frames(FrameLayout(), 2, 1, mode_delays(FrameLayout(), 1))
        y = propagate(frame.symbols, np.eye(2, dtype=complex), None, 0.0, 0)
        np.testing.assert_array_equal(y, frame.symbols)

    def test_matrix_applied(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_allclose(propagate(s, h, None, 0.0, 0), h @ s)

    def test_constant_phase(self):
        s = np.ones((2, 10), dtype=complex)
        phase = np.full((2, 10), 0.5)
        y = propagate(s, np.eye(2), phase, 0.0, 0)
        np.testing.assert_allclose(y, np.exp(0.5j) * s)

    def test_phasor_bits_equal_complex_exp(self):
        # the cos/sin phasor reproduces exp(1j * phase) * y bit for bit,
        # signed zeros and phases far outside [-pi, pi] included
        rng = np.random.default_rng(11)
        walk = wiener_phase(20000, 3, 1e5, DEFAULT_BAUD, 2)
        wide = rng.standard_normal((3, 20000)) * np.array([[1e3], [1e9], [1e17]])
        phase = np.concatenate([walk, wide], axis=1)
        phase[:, :6] = [0.0, -0.0, np.pi, -np.pi, 1e300, -1e300]
        s = rng.standard_normal((2, phase.shape[1])) + 1j * rng.standard_normal((2, phase.shape[1]))
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        y = propagate(s, h, phase, 0.0, 0)
        assert np.array_equal(y.view(np.uint64), (np.exp(1j * phase) * (h @ s)).view(np.uint64))
        ones = propagate(np.ones((1, phase.shape[1]), complex), np.ones((3, 1)), phase, 0.0, 0)
        assert np.array_equal(ones.view(np.uint64), np.exp(1j * phase).view(np.uint64))

    def test_noise_variance(self):
        s = np.zeros((2, 200000), dtype=complex)
        y = propagate(s, np.eye(2), None, 0.04, 9)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.04, rel=0.02)
        # real/imag balanced
        assert y.real.var() == pytest.approx(0.02, rel=0.03)

    def test_noise_deterministic(self):
        s = np.zeros((1, 100), dtype=complex)
        a = propagate(s, np.eye(1), None, 0.1, 5)
        b = propagate(s, np.eye(1), None, 0.1, 5)
        np.testing.assert_array_equal(a, b)

    def test_shape_errors(self):
        s = np.ones((3, 10), dtype=complex)
        with pytest.raises(ValueError):
            propagate(s, np.eye(2), None, 0.0, 0)
        with pytest.raises(ValueError):
            propagate(s, np.eye(3), np.zeros((2, 10)), 0.0, 0)


def reference_wiener_phase(n_symbols, n_rx, linewidth, baud, seed):
    # wiener_phase as written before it scaled and summed in place
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma = np.sqrt(2.0 * np.pi * linewidth / baud)
    steps = sigma * rng.standard_normal((n_rx, n_symbols))
    steps[:, 0] = 0.0
    return np.cumsum(steps, axis=1)


def reference_propagate(symbols, h, phase, n0, seed):
    # propagate as written before it rotated the streams and loaded the
    # noise one row at a time
    y = h @ symbols
    if phase is not None:
        rot = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        rot.imag += 0.0
        rot *= y
        y = rot
    if n0 > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        y = y + np.sqrt(n0 / 2.0) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return y


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestReferenceBits:
    """wiener_phase and propagate equal their former whole-array forms
    bit for bit."""

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    def test_wiener_phase(self, seed):
        args = (30000, 12, 2e5, DEFAULT_BAUD, seed)
        assert same_bits(wiener_phase(*args), reference_wiener_phase(*args))

    # each id ends in the channel's "memoryless": propagate applies H
    # with no per-path memory
    @pytest.mark.parametrize("n0", [0.0, 0.03], ids=["0.0-memoryless", "0.03-memoryless"])
    @pytest.mark.parametrize("with_phase", [True, False], ids=["phase", "no-phase"])
    @pytest.mark.parametrize("seed", [1, 77, 2**40 + 3])
    def test_propagate(self, seed, with_phase, n0):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((4, 30000)) + 1j * rng.standard_normal((4, 30000))
        h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        phase = None
        if with_phase:
            phase = wiener_phase(30000, 6, 1e6, DEFAULT_BAUD, seed)
        assert same_bits(
            propagate(s, h, phase, n0, seed + 1),
            reference_propagate(s, h, phase, n0, seed + 1),
        )
