import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmfso.framing import (
    DATA_SEED,
    QPSK,
    Frame,
    FrameLayout,
    assemble_frames,
    balanced_qpsk,
    mode_delays,
    prbs15,
    qpsk_demap,
    qpsk_map,
)

LAYOUT = FrameLayout()


class TestPrbs:
    def test_period(self):
        bits = prbs15(1, 2 * (2 ** 15 - 1))
        np.testing.assert_array_equal(bits[: 2 ** 15 - 1], bits[2 ** 15 - 1 :])

    def test_balance(self):
        bits = prbs15(1, 2 ** 15 - 1)
        assert bits.sum() == 2 ** 14  # maximal LFSR: 16384 ones per period

    def test_phase_continuation(self):
        a = prbs15(1, 100)
        # state after consuming k bits reproduces the tail of the sequence
        state = 1
        for _ in range(40):
            fb = ((state >> 14) ^ (state >> 13)) & 1
            state = ((state << 1) | fb) & 0x7FFF
        b = prbs15(state, 60)
        np.testing.assert_array_equal(a[40:], b)

    @pytest.mark.parametrize("state", [0, 2 ** 15, -3])
    def test_invalid_state(self, state):
        with pytest.raises(ValueError):
            prbs15(state, 10)


class TestQpsk:
    def test_unit_modulus(self):
        np.testing.assert_allclose(np.abs(QPSK), 1.0)

    def test_map_values(self):
        s = qpsk_map([0, 0, 1, 1])
        np.testing.assert_allclose(s, [(1 + 1j) / np.sqrt(2), (-1 - 1j) / np.sqrt(2)])

    def test_odd_bit_count(self):
        with pytest.raises(ValueError):
            qpsk_map([0, 1, 0])

    def test_gray_adjacency(self):
        # neighbouring constellation points differ in exactly one bit
        bits = qpsk_demap(QPSK)
        for i in range(4):
            diff = np.sum(bits[i] != bits[(i + 1) % 4])
            assert diff == 1

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=200).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, bits):
        out = qpsk_demap(qpsk_map(bits)).reshape(-1)
        np.testing.assert_array_equal(out, bits)


class TestBalancedQpsk:
    def test_exact_histogram(self):
        s = balanced_qpsk(11, 1680)
        for point in QPSK:
            assert np.sum(np.isclose(s, point)) == 420

    def test_deterministic(self):
        np.testing.assert_array_equal(balanced_qpsk(5, 40), balanced_qpsk(5, 40))
        assert not np.array_equal(balanced_qpsk(5, 40), balanced_qpsk(6, 40))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            balanced_qpsk(1, 42)


class TestLayout:
    def test_defaults(self):
        assert LAYOUT.payload_len == 18320
        assert LAYOUT.pilots_per_frame == 1832
        assert LAYOUT.data_per_frame == 16488
        assert LAYOUT.delay_step == 280

    def test_data_fraction(self):
        assert LAYOUT.data_per_frame / LAYOUT.frame_len == pytest.approx(0.8244)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FrameLayout(frame_len=20001)
        with pytest.raises(ValueError):
            FrameLayout(ts_len=1682)


@pytest.fixture(scope="module")
def frame():
    return assemble_frames(LAYOUT, 12, 2, mode_delays(LAYOUT, 6))


class TestAssembly:

    def test_shape(self, frame):
        assert frame.symbols.shape == (12, 40000)
        small = assemble_frames(LAYOUT, 2, 34, mode_delays(LAYOUT, 1))
        assert small.n_symbols == 680000

    def test_masks_partition(self, frame):
        total = frame.ts_mask | frame.pilot_mask | frame.data_mask
        assert total.all()
        assert not (frame.ts_mask & frame.pilot_mask).any()
        assert not (frame.ts_mask & frame.data_mask).any()
        assert not (frame.pilot_mask & frame.data_mask).any()

    def test_mask_counts(self, frame):
        assert frame.ts_mask.sum(axis=1).tolist() == [2 * 1680] * 12
        assert frame.pilot_mask.sum(axis=1).tolist() == [2 * 1832] * 12

    def test_unit_energy(self, frame):
        np.testing.assert_allclose(np.abs(frame.symbols), 1.0)

    def test_mode_delays(self):
        assert mode_delays(LAYOUT, 6) == [0, 0, 280, 280, 560, 560,
                                          840, 840, 1120, 1120, 1400, 1400]

    def test_delay_applied(self, frame):
        # mode 1 (channels 2,3) training starts 280 symbols after mode 0
        assert frame.ts_mask[0, 0] and not frame.ts_mask[2, 0]
        assert frame.ts_mask[2, 280]
        np.testing.assert_array_equal(
            frame.ts_mask[2], np.roll(frame.ts_mask[0], 280)
        )

    def test_shared_pol_training(self, frame):
        # X tributaries of all modes carry the same TS content, shifted
        ts0 = frame.symbols[0][frame.ts_mask[0]][:1680]
        ts2 = frame.symbols[2][frame.ts_mask[2]][:1680]
        np.testing.assert_array_equal(ts0, ts2)
        tsy = frame.symbols[1][frame.ts_mask[1]][:1680]
        assert not np.array_equal(ts0, tsy)

    def test_independent_data(self, frame):
        assert not np.array_equal(
            frame.symbols[0][frame.data_mask[0]][:1000],
            frame.symbols[1][frame.data_mask[1]][:1000],
        )

    def test_joint_pilots_on_grid(self, frame):
        jp = np.flatnonzero(frame.pilot_mask.all(axis=0))
        assert jp.size > 0
        assert np.all(jp % LAYOUT.pilot_period == 0)

    def test_joint_known_covers_pilot_grid(self, frame):
        # delays are multiples of the pilot period, so every 10th symbol
        # has a fully known transmit vector
        known = frame.joint_known_times()
        grid = np.arange(0, frame.n_symbols, 10)
        assert np.setdiff1d(grid, known).size == 0

    def test_data_bits_consistent(self, frame):
        # channel 5's data symbols, un-rolled by its delay and demapped,
        # are the PRBS-15 bits of its data seed
        ch = 5
        delay = mode_delays(LAYOUT, 6)[ch]
        mask = np.roll(frame.data_mask[ch], -delay)
        bits = qpsk_demap(np.roll(frame.symbols[ch], -delay)[mask]).reshape(-1)
        seed = int(np.random.SeedSequence([DATA_SEED, ch]).generate_state(1)[0])
        np.testing.assert_array_equal(bits, prbs15(seed % (2 ** 15 - 1) + 1, bits.size))
        assert bits.size == 2 * 2 * LAYOUT.data_per_frame

    @pytest.mark.parametrize("name", ["symbols", "ts_mask", "pilot_mask", "data_mask"])
    def test_arrays_read_only(self, frame, name):
        # one Frame is shared by every realization of a call
        array = getattr(frame, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = array[0, 1]

    def test_duplicate_delay_rejected(self):
        with pytest.raises(ValueError, match="correlate"):
            assemble_frames(LAYOUT, 4, 1, [0, 0, 0, 0])

    def test_delay_bounds(self):
        with pytest.raises(ValueError):
            assemble_frames(LAYOUT, 2, 1, [0, 20000])
        with pytest.raises(ValueError):
            assemble_frames(LAYOUT, 2, 1, [0])
