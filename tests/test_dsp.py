import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from mdmfso import dsp
from mdmfso.channel import DEFAULT_BAUD, propagate, wiener_phase
from mdmfso.dsp import (
    cancel_phase,
    estimate_channel,
    estimate_phase,
    hard_decision,
    mmse_decode,
    sic_decode,
    sic_order,
)
from mdmfso.framing import QPSK, balanced_qpsk, qpsk_demap


def random_channel(rng, n_r, n_t):
    return (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / np.sqrt(2 * n_t)


def training_block(n_t, length, seed=0):
    return np.stack([balanced_qpsk(seed + k, length) for k in range(n_t)])


class TestEstimateChannel:
    def test_exact_noiseless(self):
        rng = np.random.default_rng(0)
        h = random_channel(rng, 4, 3)
        s = training_block(3, 1680)
        est = estimate_channel(h @ s, s)
        assert est.shape == (4, 3)
        assert np.max(np.abs(est - h)) <= 1e-9

    def test_error_variance(self):
        # LS entrywise error variance ~ n0 / T_ts for near-orthogonal TS
        rng = np.random.default_rng(1)
        h = random_channel(rng, 4, 4)
        s = training_block(4, 1680, seed=10)
        n0 = 0.05
        errs = []
        for trial in range(40):
            y = propagate(s, h, None, n0, trial)
            errs.append(np.abs(estimate_channel(y, s) - h) ** 2)
        var = np.mean(errs)
        assert n0 / 1680 / 2 < var < n0 / 1680 * 2

    def test_static_phase_absorbed(self):
        rng = np.random.default_rng(2)
        h = random_channel(rng, 3, 3)
        s = training_block(3, 840, seed=20)
        est = estimate_channel(np.exp(0.4j) * (h @ s), s)
        np.testing.assert_allclose(est, np.exp(0.4j) * h, atol=1e-9)

    def test_rank_deficient_rejected(self):
        s = training_block(1, 400, seed=3)
        s2 = np.vstack([s, s])  # identical sequences on both channels
        with pytest.raises(ValueError, match="rank deficient"):
            estimate_channel(np.zeros((2, 400), dtype=complex), s2)

    def test_non_finite_rejected(self):
        s = training_block(2, 400, seed=4)
        y = s.copy()
        y[0, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            estimate_channel(y, s)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            estimate_channel(np.zeros((2, 10)), np.zeros((2, 12)))
        with pytest.raises(ValueError):
            estimate_channel(np.zeros((2, 1)), np.zeros((2, 1)))


class TestEstimatePhase:
    def _pilot_setup(self, n_r, total, seed=0):
        pilot_times = np.arange(0, total, 10)
        n = -(-pilot_times.size // 4) * 4
        pilots = np.stack(
            [balanced_qpsk(seed + k, n)[: pilot_times.size] for k in range(n_r)]
        )
        return pilot_times, pilots

    def test_zero_linewidth_flat(self):
        h = np.eye(2, dtype=complex)
        pt, pilots = self._pilot_setup(2, 2000)
        y = np.zeros((2, 2000), dtype=complex)
        y[:, pt] = pilots
        phi = estimate_phase(y, pt, pilots, h, window=8)
        np.testing.assert_allclose(phi, 0.0, atol=1e-12)

    def test_constant_offset(self):
        h = np.eye(2, dtype=complex)
        pt, pilots = self._pilot_setup(2, 2000)
        y = np.zeros((2, 2000), dtype=complex)
        y[:, pt] = np.exp(0.3j) * pilots
        phi = estimate_phase(y, pt, pilots, h, window=8)
        np.testing.assert_allclose(phi, 0.3, atol=1e-9)

    def test_tracking_mse(self):
        # 100 kHz linewidth, Es/N0 = 15 dB, window 8: MSE < 5e-3 rad^2
        rng = np.random.default_rng(7)
        total, n_r = 20000, 2
        pt, pilots = self._pilot_setup(n_r, total, seed=30)
        s = np.zeros((n_r, total), dtype=complex)
        s[:, pt] = pilots
        s[:, np.setdiff1d(np.arange(total), pt)] = QPSK[
            rng.integers(0, 4, (n_r, total - pt.size))
        ]
        phi = wiener_phase(total, n_r, 1e5, DEFAULT_BAUD, 8)
        y = propagate(s, np.eye(n_r), phi, 10 ** -1.5, 9)
        est = estimate_phase(y, pt, pilots, np.eye(n_r), window=8)
        mse = np.mean((est - phi) ** 2)
        assert mse < 5e-3

    def test_low_reference_skipped(self):
        # channel 1 receives nothing: its trajectory stays zero, no NaN
        h = np.diag([1.0, 0.0]).astype(complex)
        pt, pilots = self._pilot_setup(2, 1000)
        y = h @ np.zeros((2, 1000), dtype=complex)
        phi = estimate_phase(y, pt, pilots, h, window=4)
        assert np.all(np.isfinite(phi))
        np.testing.assert_array_equal(phi[1], 0.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            estimate_phase(np.zeros((1, 10)), [0], np.ones((1, 1)), np.eye(1), window=0)

    def test_window_longer_than_pilots(self):
        # 100 pilots; a longer window has nothing to average over
        pt, pilots = self._pilot_setup(1, 1000)
        y = np.zeros((1, 1000), dtype=complex)
        y[:, pt] = pilots
        assert estimate_phase(y, pt, pilots, np.eye(1), window=100).shape == (1, 1000)
        with pytest.raises(ValueError, match="window of 101 pilots exceeds the 100 usable"):
            estimate_phase(y, pt, pilots, np.eye(1), window=101)


class TestCancelPhase:
    def test_exact_inverse(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        phi = rng.standard_normal((2, 50))
        out = cancel_phase(np.exp(1j * phi) * y, phi)
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_unitary(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        phi = rng.standard_normal((2, 50))
        np.testing.assert_allclose(np.abs(cancel_phase(y, phi)), np.abs(y))

    def test_zero_phase_identity(self):
        y = np.ones((2, 5), dtype=complex)
        np.testing.assert_array_equal(cancel_phase(y, np.zeros((2, 5))), y)

    def test_phasor_bits_equal_complex_exp(self):
        # the cos/sin phasor reproduces y * exp(-1j * phi) bit for bit,
        # signed zeros and phases far outside [-pi, pi] included
        rng = np.random.default_rng(12)
        walk = wiener_phase(20000, 3, 1e5, 34.46e9, 4)
        wide = rng.standard_normal((3, 20000)) * np.array([[1e3], [1e9], [1e17]])
        phi = np.concatenate([walk, wide], axis=1)
        phi[:, :6] = [0.0, -0.0, np.pi, -np.pi, 1e300, -1e300]
        y = rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
        for y_r in (y, np.ones(phi.shape, complex)):
            # the former y_r * np.exp(-1j * phi), as numpy evaluated it on
            # streams this size: in place in the exponential's temporary,
            # phasor first (complex products are not bitwise commutative)
            old = np.exp(-1j * phi)
            old *= y_r
            kept = y_r.copy()
            got = cancel_phase(y_r, phi)
            assert np.array_equal(got.view(np.uint64), old.view(np.uint64))
            # out of place leaves y_r as it was; in place gives the same bits
            assert np.array_equal(y_r.view(np.uint64), kept.view(np.uint64))
            assert cancel_phase(y_r, phi, out=y_r) is y_r
            assert np.array_equal(y_r.view(np.uint64), old.view(np.uint64))


class TestHardDecision:
    def test_examples(self):
        soft = np.array([0.3 + 0.1j, -0.2 + 0.9j, -1 - 1j, 0.0 + 0.0j])
        out = hard_decision(soft)
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(
            out, np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 + 1j]) / r2
        )

    def test_bits_equal_divided_formula(self):
        # the sign-table output equals, bit for bit, the QPSK point built
        # by dividing +-1 +- 1j by sqrt(2); negative zero counts as >= 0
        # and NaN as negative
        rng = np.random.default_rng(18)
        soft = np.concatenate([
            np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                      complex(np.nan, 1.0), complex(-1.0, np.nan),
                      complex(np.nan, np.nan)]),
            rng.standard_normal(993) + 1j * rng.standard_normal(993),
        ]).reshape(10, 100)
        expected = (
            np.where(soft.real >= 0, 1.0, -1.0) + 1j * np.where(soft.imag >= 0, 1.0, -1.0)
        ) / np.sqrt(2.0)
        out = hard_decision(soft)
        assert out.shape == soft.shape
        np.testing.assert_array_equal(out.view(np.float64), expected.view(np.float64))

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, re, im, scale):
        z = complex(re, im)
        scaled = scale * z
        # scaling can underflow a component to 0 and lose its sign (see
        # test_sign_lost_in_underflow); the property holds where it cannot
        assume((scaled.real >= 0) == (re >= 0) and (scaled.imag >= 0) == (im >= 0))
        assert hard_decision(np.array([z])) == hard_decision(np.array([scaled]))

    def test_sign_lost_in_underflow(self):
        # 0.5 * complex(0.0, -5e-324) is 0j: the scaled value sits on the
        # boundary and resolves toward the positive quadrant, the unscaled
        # one below it; both decisions are right for their inputs
        z = complex(0.0, -5e-324)
        assert 0.5 * z == 0j
        assert hard_decision(np.array([z]))[0].imag < 0
        assert hard_decision(np.array([0.5 * z]))[0].imag > 0


class TestMmseDecode:
    def test_scalar_weight_and_sinr(self):
        # h = 1, n0 = 0.1: w = 1/1.1, rho = 1/1.1, SINR = 10
        h = np.array([[1.0 + 0j]])
        soft = mmse_decode(np.array([[1.1 + 0.0j]]), h, 0.1)
        assert soft[0, 0] == pytest.approx(1.0)
        w = dsp._mmse_weights(h, 0.1)
        assert w[0, 0] == pytest.approx(1.0 / 1.1)
        assert dsp._post_sinr(w, h)[0] == pytest.approx(10.0)

    def test_identity_exact(self):
        rng = np.random.default_rng(8)
        s = QPSK[rng.integers(0, 4, (3, 100))]
        soft = mmse_decode(s, np.eye(3, dtype=complex), 0.0)
        np.testing.assert_allclose(soft, s, atol=1e-12)
        np.testing.assert_array_equal(hard_decision(soft), s)

    def test_unitary_matched_filter(self):
        rng = np.random.default_rng(9)
        u = unitary_group.rvs(4, random_state=10)
        s = QPSK[rng.integers(0, 4, (4, 200))]
        soft = mmse_decode(u @ s, u, 0.2)
        # with orthonormal columns MMSE reduces to a scaled matched filter
        np.testing.assert_allclose(soft, s / 1.2, atol=1e-9)

    def test_sinr_matches_capacity_form(self):
        # SINR_k = 1/[(I + H^H H / n0)^-1]_kk - 1
        rng = np.random.default_rng(10)
        h = random_channel(rng, 5, 4)
        n0 = 0.07
        sinr = dsp._post_sinr(dsp._mmse_weights(h, n0), h)
        inv = np.linalg.inv(np.eye(4) + h.conj().T @ h / n0)
        np.testing.assert_allclose(sinr, 1.0 / np.real(np.diag(inv)) - 1.0, rtol=1e-9)

    def test_singular_regularized(self):
        # H H^H is singular: only the n0 = 0 regularization makes it solvable
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(h @ h.conj().T, h)
        soft = mmse_decode(np.zeros((2, 1), dtype=complex), h, 0.0)
        assert np.all(np.isfinite(soft))

    def test_negative_n0(self):
        with pytest.raises(ValueError):
            mmse_decode(np.zeros((1, 1)), np.eye(1), -0.1)


class TestSicOrder:
    def test_identity_natural(self):
        assert sic_order(np.eye(3, dtype=complex), 0.1) == (0, 1, 2)

    def test_strong_column_first(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        assert sic_order(h, 0.1) == (1, 0)

    def test_greedy_near_optimal_max_min(self):
        # greedy V-BLAST vs exhaustive max-min stage SINR over 6 orders
        def min_stage_sinr(h, order, n0):
            remaining = list(range(h.shape[1]))
            worst = np.inf
            for k in order:
                sub = h[:, remaining]
                pos = remaining.index(k)
                gram = sub @ sub.conj().T + n0 * np.eye(h.shape[0])
                w = np.linalg.solve(gram, sub[:, pos])
                rho = np.clip(np.real(w.conj() @ sub[:, pos]), 0, 1 - 1e-15)
                worst = min(worst, rho / (1 - rho))
                remaining.remove(k)
            return worst

        rng = np.random.default_rng(11)
        n0 = 0.1
        hits, gaps = 0, []
        for _ in range(200):
            h = random_channel(rng, 4, 3)
            greedy = min_stage_sinr(h, sic_order(h, n0), n0)
            best = max(
                min_stage_sinr(h, p, n0) for p in itertools.permutations(range(3))
            )
            if np.isclose(greedy, best, rtol=1e-9):
                hits += 1
            gaps.append(10 * np.log10(best / greedy))
        assert hits >= 190  # >= 95%
        assert max(gaps) <= 1.0


class TestSicDecode:
    def test_identity_equals_mmse(self):
        rng = np.random.default_rng(13)
        s = QPSK[rng.integers(0, 4, (3, 100))]
        y = s + 0.05 * (rng.standard_normal((3, 100)) + 1j * rng.standard_normal((3, 100)))
        a = mmse_decode(y, np.eye(3, dtype=complex), 0.005)
        b, order = sic_decode(y, np.eye(3, dtype=complex), 0.005)
        np.testing.assert_array_equal(hard_decision(a), hard_decision(b))
        assert order == (0, 1, 2)

    def test_triangular_noiseless_zero_errors(self):
        rng = np.random.default_rng(14)
        h = np.array([[1.0, 0.9], [0.0, 1.0]], dtype=complex)
        s = QPSK[rng.integers(0, 4, (2, 2000))]
        soft, _ = sic_decode(h @ s, h, 0.0)
        np.testing.assert_array_equal(hard_decision(soft), s)

    def test_stage1_bit_exact_with_mmse(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            h = random_channel(rng, 6, 4)
            s = QPSK[rng.integers(0, 4, (4, 50))]
            y = propagate(s, h, None, 0.05, trial)
            mmse = mmse_decode(y, h, 0.05)
            sic, order = sic_decode(y, h, 0.05)
            assert np.array_equal(sic[order[0]], mmse[order[0]])

    def test_orthogonal_equivalence(self):
        # orthonormal columns: cancellation changes nothing, SIC == MMSE
        rng = np.random.default_rng(16)
        for trial in range(10):
            u = unitary_group.rvs(4, random_state=100 + trial)
            s = QPSK[rng.integers(0, 4, (4, 500))]
            y = propagate(s, u, None, 0.1, trial)
            a = mmse_decode(y, u, 0.1)
            b, _ = sic_decode(y, u, 0.1)
            np.testing.assert_array_equal(hard_decision(a), hard_decision(b))

    def test_bits_roundtrip(self):
        s = QPSK[np.array([[0, 1, 2, 3]])]
        soft = mmse_decode(s, np.eye(1, dtype=complex), 0.0)
        bits = qpsk_demap(hard_decision(soft))
        assert bits.shape == (1, 4, 2)
        np.testing.assert_array_equal(
            bits[0], np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
        )


def reference_sic(y, h, n0):
    """The sequential SIC in the greedy order: rebuild the stream with
    every decoded channel subtracted, then MMSE-combine the remaining
    columns against it."""
    n_t = h.shape[1]
    remaining = list(range(n_t))
    order = []
    while remaining:
        w = dsp._mmse_weights(h[:, remaining], n0)
        best = remaining[int(np.argmax(dsp._post_sinr(w, h[:, remaining])))]
        order.append(best)
        remaining.remove(best)
    soft = np.empty((n_t, y.shape[1]), dtype=complex)
    hard = np.empty_like(soft)
    y_clean = y.copy()
    remaining = list(range(n_t))
    for k in order:
        w = dsp._mmse_weights(h[:, remaining], n0)
        pos = remaining.index(k)
        soft[k] = (w.conj().T @ y_clean)[pos]
        hard[k] = hard_decision(soft[k])
        y_clean = y_clean - np.outer(h[:, k], hard[k])
        remaining.remove(k)
    return soft, hard, tuple(order)


@pytest.mark.parametrize("n0", [0.05, 0.0])
def test_sic_matches_sequential_reference(n0):
    # coefficient-space cancellation against the stream-rebuilding SIC on
    # 12x10 channels; n0 = 0 takes the regularized path (rank H H^H < 12)
    rng = np.random.default_rng(19)
    for trial in range(50):
        h = random_channel(rng, 12, 10)
        s = QPSK[rng.integers(0, 4, (10, 300))]
        y = propagate(s, h, None, 0.05, trial)
        soft, hard, ref_order = reference_sic(y, h, n0)
        out, order = sic_decode(y, h, n0)
        assert order == ref_order
        np.testing.assert_array_equal(hard_decision(out), hard)
        np.testing.assert_allclose(out, soft, rtol=0, atol=1e-12)
        assert sic_order(h, n0) == ref_order
