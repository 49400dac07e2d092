from math import factorial

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from mdmfso import optics
from mdmfso.harness import ExperimentConfig
from mdmfso.optics import (
    DEFAULT_WAIST,
    ModalCoupler,
    calibrate_columns,
    mode_field,
    polarization_expand,
)
from mdmfso.screens import PhaseScreen

# the raster of most tests: the default 8.832 mm field on 480 pixels
N, PITCH = 480, 8.832e-3 / 480

_SQ2 = np.sqrt(2.0)
# the oracle data of arctan2_field and full_raster_field: each weakly
# guiding LP mode as a free-space LG superposition, with entries
# (radial index p, azimuthal index l, weight)
LP_TO_LG = {
    "LP01": ((0, 0, 1.0),),
    "LP11a": ((0, 1, 1.0 / _SQ2), (0, -1, 1.0 / _SQ2)),
    "LP11b": ((0, 1, -1j / _SQ2), (0, -1, 1j / _SQ2)),
    "LP21a": ((0, 2, 1.0 / _SQ2), (0, -2, 1.0 / _SQ2)),
    "LP21b": ((0, 2, -1j / _SQ2), (0, -2, 1j / _SQ2)),
    "LP02": ((1, 0, 1.0),),
}


def coupler_of(tx=optics.TX_MODES, rx=optics.RX_MODES):
    """The coupler of the mode labels tx and rx on the N-pixel raster."""
    return ModalCoupler(
        ExperimentConfig(grid_size=N, tx_modes=tuple(tx), rx_modes=tuple(rx))
    )


def aperture_mask(n, pitch, diameter=8.4e-3):
    """The hard circular aperture on the raster, as 0/1 floats."""
    c = optics._coords(n, pitch)
    return (c[None, :] ** 2 + c[:, None] ** 2 <= (diameter / 2.0) ** 2).astype(float)


def raster_field(label, n=N, pitch=PITCH, waist=DEFAULT_WAIST):
    """mode_field of label at every pixel of the n-pixel raster, as an
    (n, n) array."""
    everywhere = np.arange(n * n)
    coords = optics._coords(n, pitch)
    return mode_field(label, waist, coords, pitch, everywhere, np.empty(n * n)).reshape(n, n)


def blank_screen(value=0.0):
    return PhaseScreen(raster=np.full((N, N), value), pitch=PITCH)


@pytest.fixture(scope="module")
def coupler():
    return coupler_of()


class TestModeFields:
    def test_lp01_gaussian(self):
        f = raster_field("LP01")
        c = N // 2
        assert f[c, c] == np.max(f)
        assert f[c, c] > 0

    def test_normalization(self):
        for label in optics.RX_MODES:
            f = raster_field(label)
            assert np.sum(f ** 2) * PITCH ** 2 == pytest.approx(1.0)

    def test_rx_gram_identity(self):
        fields = np.array([raster_field(label).ravel() for label in optics.RX_MODES])
        gram = fields @ fields.T * PITCH ** 2
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-3
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-9)

    def test_lp11_pair(self):
        a = raster_field("LP11a")
        b = raster_field("LP11b")
        assert abs(np.vdot(a, b)) * PITCH ** 2 < 1e-3
        # degenerate pair: identical azimuthally integrated radial profile
        c = optics._coords(N, PITCH)
        r = np.hypot(c[:, None], c[None, :])
        bins = np.linspace(0, 3e-3, 30)
        pa, _ = np.histogram(r, bins=bins, weights=a ** 2)
        pb, _ = np.histogram(r, bins=bins, weights=b ** 2)
        np.testing.assert_allclose(pa, pb, rtol=2e-2)

    def test_clipping_guard(self):
        # a 6.4 mm raster
        with pytest.raises(ValueError, match="raster"):
            raster_field("LP21a", 64, 1e-4, waist=5e-3)

    def test_lg_orthogonality(self):
        # odd grid centers the raster on the axis so the azimuthal factor
        # of LP11a cancels against LP01 exactly; even grids leave an
        # O(1/n) half-pixel residual
        n, pitch = 961, 8.832e-3 / 961
        lp01 = raster_field("LP01", n, pitch)
        lp11a = raster_field("LP11a", n, pitch)
        assert abs(np.vdot(lp01, lp11a)) * pitch ** 2 < 1e-6

    @pytest.mark.parametrize("n", [N, 961, 30], ids=["bands_fill_raster", "odd", "one_band"])
    def test_pixels_take_the_whole_raster_bits(self, n):
        # any ascending pixel set, with a partial last band or a raster
        # of fewer rows than one band: the bits at those pixels of the
        # field normalized on the whole raster at once
        pitch = 8.832e-3 / n
        coords = optics._coords(n, pitch)
        pixels = np.flatnonzero(np.random.default_rng(1).random(n * n) < 0.3)
        for label in optics.RX_MODES:
            row = np.full(pixels.size, np.nan)
            assert mode_field(label, DEFAULT_WAIST, coords, pitch, pixels, row) is row
            assert_bits_equal(row, full_raster_field(label, n, pitch).ravel()[pixels])


def arctan2_field(label, n, pitch, w=DEFAULT_WAIST):
    """A mode field from the explicit LG formula with e^{j l theta}."""
    c = optics._coords(n, pitch)
    x, y = np.meshgrid(c, c)
    r2 = x ** 2 + y ** 2
    field = np.zeros(r2.shape, dtype=complex)
    for p, l, weight in LP_TO_LG[label]:
        amp = np.sqrt(2.0 * factorial(p) / (np.pi * factorial(p + abs(l)))) / w
        field += weight * (
            amp
            * (np.sqrt(2.0 * r2) / w) ** abs(l)
            * eval_genlaguerre(p, abs(l), 2.0 * r2 / w ** 2)
            * np.exp(-r2 / w ** 2)
            * np.exp(1j * l * np.arctan2(y, x))
        )
    return field / np.sqrt(np.sum(np.abs(field) ** 2) * pitch ** 2)


class TestAzimuthPower:
    def test_laguerre_recurrence(self):
        x = np.linspace(0.0, 12.0, 50)
        for n in range(6):
            for alpha in range(3):
                np.testing.assert_allclose(
                    optics._genlaguerre(n, alpha, x) * np.ones_like(x),
                    eval_genlaguerre(n, alpha, x),
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_finite_on_axis_and_matches_arctan2_form(self):
        # on an odd grid one pixel sits at r = 0, where theta is undefined
        n, pitch = 961, 8.832e-3 / 961
        c = n // 2
        assert optics._coords(n, pitch)[c] == 0.0
        for label in optics.RX_MODES:
            f = raster_field(label, n, pitch)
            ref = arctan2_field(label, n, pitch)
            assert np.all(np.isfinite(f)), label
            assert np.max(np.abs(f - ref)) < 1e-12 * np.max(np.abs(ref)), label
            if all(l != 0 for _, l, _ in LP_TO_LG[label]):
                assert f[c, c] == 0

    def test_lp_fields_real(self):
        coords = optics._coords(N, PITCH)
        for label in optics.LP_MODES:
            field = optics._lp_field(label, DEFAULT_WAIST, coords, slice(None))
            assert field.dtype == np.float64, label

    def test_oracle_names_every_label(self):
        # the oracle table of the LG superpositions and the program's
        # real-form table name the same LP modes
        assert list(LP_TO_LG) == list(optics.LP_MODES)


class TestModalCoupler:
    """The aperture-only coupler against the brute-force overlap
    sum(conj(psi_rx) * mask * e^{j phi} * psi_tx) * pitch^2."""

    SMALL = 120

    @staticmethod
    def brute_force(cfg, raster):
        n, pitch = cfg.grid_size, cfg.physical_length / cfg.grid_size
        mask = aperture_mask(n, pitch, cfg.aperture_diameter)
        rx = [raster_field(m, n, pitch, cfg.waist) for m in cfg.rx_modes]
        tx = [raster_field(m, n, pitch, cfg.waist) for m in cfg.tx_modes]
        screen = mask * np.exp(1j * raster)
        return np.array(
            [[np.sum(np.conj(a) * screen * b) for b in tx] for a in rx]
        ) * pitch ** 2

    @staticmethod
    def assert_close(m, ref):
        assert m.shape == ref.shape
        assert np.linalg.norm(m - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "modes",
        [
            {},
            {"tx_modes": ("LP02",), "rx_modes": ("LP01", "LP11a")},
        ],
        ids=["default", "tx_not_in_rx"],
    )
    def test_matches_brute_force(self, modes):
        cfg = ExperimentConfig(grid_size=self.SMALL, **modes)
        coupler = ModalCoupler(cfg)
        rng = np.random.default_rng(7)
        random = rng.uniform(-np.pi, np.pi, (self.SMALL, self.SMALL))
        blank = np.zeros((self.SMALL, self.SMALL))
        pitch = cfg.physical_length / self.SMALL
        for raster in (random, blank):
            screen = PhaseScreen(raster=raster, pitch=pitch)
            self.assert_close(coupler.coupling(screen), self.brute_force(cfg, raster))
        blank_ref = self.brute_force(cfg, blank)
        self.assert_close(coupler.blank_coupling, blank_ref)
        np.testing.assert_allclose(
            coupler.calibration_spatial, calibrate_columns(blank_ref), rtol=1e-12
        )

    def test_every_lp_label(self):
        labels = tuple(optics.LP_MODES)
        # reversed, the receive stack is a copy rather than a view
        coupler = coupler_of(labels, labels[::-1])
        assert coupler._tx.dtype == coupler._rx.dtype == np.float64
        np.testing.assert_array_equal(coupler._rx, coupler._tx[::-1])

    def test_screen_grid_mismatch(self):
        coupler = ModalCoupler(ExperimentConfig(grid_size=self.SMALL))
        with pytest.raises(ValueError, match="coupler grid"):
            coupler.coupling(blank_screen())


def full_raster_field(label, n, pitch, w=DEFAULT_WAIST):
    """The bit oracle of the banded build: the LG superposition of
    LP_TO_LG[label] on the whole raster at once, each LG(p, +-m) pair
    with weights a and conj(a) formed in real arithmetic as
    a Z^m + conj(a Z^m) = 2 Re(a) Re Z^m - 2 Im(a) Im Z^m, normalized by
    numpy's pairwise sum of the whole squared field,
    np.add.reduce(np.square(field)) * pitch^2."""
    c = optics._coords(n, pitch)
    x, y = c[None, :], c[:, None]
    u = (2.0 / w ** 2) * (x ** 2 + y ** 2)
    re_z, im_z = (np.sqrt(2.0) / w) * x, (np.sqrt(2.0) / w) * y
    weights = {(p, l): weight for p, l, weight in LP_TO_LG[label]}
    parts = []
    for p, m in dict.fromkeys((p, abs(l)) for p, l in weights):
        a = complex(weights[p, m])
        amp = np.sqrt(2.0 * factorial(p) / (np.pi * factorial(p + m))) / w
        radial = amp * optics._genlaguerre(p, m, u) * np.exp(-0.5 * u)
        if m == 0:
            parts.append(a.real * radial)
            continue
        re, im = re_z, im_z
        for _ in range(m - 1):
            re, im = re * re_z - im * im_z, re * im_z + im * re_z
        for coeff, part in ((2 * a.real, re), (-2 * a.imag, im)):
            if coeff != 0:
                parts.append(coeff * part * radial)
    field = sum(parts[1:], parts[0])
    captured = np.add.reduce(np.square(field), axis=None) * pitch ** 2
    return field / np.sqrt(captured)


def reference_coupler(n, pitch, tx, rx, raster):
    """blank_coupling, the pixel-blocked coupling(raster) and the coupling
    as one whole product, from fields built on the whole raster
    (full_raster_field), gathered at the aperture pixels, held in a dict
    and stacked per side with np.stack."""
    pixels = np.flatnonzero(aperture_mask(n, pitch))
    # one whole-raster field at a time: at the default grid six would
    # hold about 45 MB under the whole product's complex temporaries
    fields = {
        label: full_raster_field(label, n, pitch).ravel()[pixels]
        for label in dict.fromkeys(tx + rx)
    }
    tx_stack = np.stack([fields[s] for s in tx])
    rx_stack = np.stack([fields[s] for s in rx])
    del fields
    blank = (rx_stack @ tx_stack.T).astype(complex) * pitch ** 2
    phi = raster.ravel()[pixels]
    cos_sum = sin_sum = 0.0
    for lo in range(0, pixels.size, optics.COUPLING_BLOCK):
        b = slice(lo, lo + optics.COUPLING_BLOCK)
        cos_sum = cos_sum + rx_stack[:, b] @ (tx_stack[:, b] * np.cos(phi[b])).T
        sin_sum = sin_sum + rx_stack[:, b] @ (tx_stack[:, b] * np.sin(phi[b])).T
    blocked = (cos_sum + 1j * sin_sum) * pitch ** 2
    whole = rx_stack @ (tx_stack * np.exp(1j * phi)).T * pitch ** 2
    return blank, blocked, whole


def assert_bits_equal(new, ref):
    assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


class TestStackedBuild:
    """The banded one-stack build gives the bits of whole-raster fields
    in a dict and np.stack (reference_coupler), and a coupling the bits
    of its pixel-blocked sum, which lies within 1e-14 of the whole
    product over the aperture."""

    @staticmethod
    def check(coupler, screen, reference):
        blank, blocked, whole = reference
        coupling = coupler.coupling(screen)
        assert_bits_equal(coupler.blank_coupling, blank)
        assert_bits_equal(coupling, blocked)
        assert np.max(np.abs(coupling - whole)) <= 1e-14 * np.max(np.abs(whole))

    @pytest.mark.parametrize(
        "tx, rx",
        [
            (optics.TX_MODES, optics.RX_MODES),
            (("LP02",), ("LP01", "LP11a")),
            (("LP11a", "LP21a", "LP11b"), ("LP21b", "LP11b", "LP01")),
            (("LP01", "LP01"), ("LP01", "LP11a")),
            (("LP01", "LP11a", "LP11b", "LP21a"), optics.RX_MODES),
            (optics.RX_MODES, optics.TX_MODES),
        ],
        ids=["default", "tx_not_in_rx", "interleaved", "repeated", "four_tx", "six_tx"],
    )
    def test_bits_equal_reference(self, tx, rx):
        raster = np.random.default_rng(3).uniform(-np.pi, np.pi, (N, N))
        coupler = coupler_of(tx, rx)
        screen = PhaseScreen(raster=raster, pitch=PITCH)
        reference = reference_coupler(N, PITCH, tx, rx, raster)
        self.check(coupler, screen, reference)

    def test_default_config_bits(self):
        from mdmfso.harness import realization_screen

        cfg = ExperimentConfig(seed=3)
        screen = realization_screen(cfg, 0)
        reference = reference_coupler(
            cfg.grid_size, cfg.physical_length / cfg.grid_size, cfg.tx_modes, cfg.rx_modes,
            screen.raster,
        )
        self.check(ModalCoupler(cfg), screen, reference)


class TestCoupling:
    def test_blank_diagonal(self, coupler):
        m = coupler.coupling(blank_screen())
        for col in range(m.shape[1]):
            diag_p = np.abs(m[col, col]) ** 2
            off_p = np.sum(np.abs(m[:, col]) ** 2) - diag_p
            assert off_p / diag_p < 1e-3  # < -30 dB

    def test_constant_screen_phase_factor(self, coupler):
        m0 = coupler.coupling(blank_screen())
        mc = coupler.coupling(blank_screen(value=0.7))
        np.testing.assert_allclose(mc, m0 * np.exp(0.7j), rtol=1e-12, atol=1e-14)

    def test_tilt_couples_adjacent_azimuthal_orders(self, coupler):
        c = optics._coords(N, PITCH)
        tilt = np.tile(300.0 * c, (N, 1))
        screen = PhaseScreen(raster=tilt, pitch=PITCH)
        m = coupler.coupling(screen)
        # LP01 column: transfer into |l|=1 modes dominates |l|=2
        lp01 = np.abs(m[:, 0]) ** 2
        assert lp01[1] + lp01[2] > 10 * (lp01[3] + lp01[4])

    def test_energy_bound(self, coupler):
        rng = np.random.default_rng(0)
        raster = np.cumsum(rng.standard_normal((N, N)), axis=1) * 0.1
        screen = PhaseScreen(raster=raster, pitch=PITCH)
        m = coupler.coupling(screen)
        assert np.all(np.sum(np.abs(m) ** 2, axis=0) <= 1 + 1e-6)

    def test_aperture_validation(self):
        # the 8.4 mm aperture does not fit a 0.64 mm raster
        with pytest.raises(ValueError, match="aperture_diameter"):
            ModalCoupler(ExperimentConfig(grid_size=64, physical_length=6.4e-4))


class TestPolarizationExpand:
    def test_scalar(self):
        z = 0.3 - 0.4j
        h = polarization_expand(np.array([[z]]), np.ones(2))
        np.testing.assert_allclose(h, np.diag([z, z]))

    def test_singular_values_doubled(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        h = polarization_expand(m, np.ones(10))
        sv_m = np.sort(np.linalg.svd(m, compute_uv=False))
        sv_h = np.sort(np.linalg.svd(h, compute_uv=False))
        np.testing.assert_allclose(sv_h, np.repeat(sv_m, 2), rtol=1e-12)
        assert np.linalg.cond(h) == pytest.approx(np.linalg.cond(m))

    def test_no_cross_polarization(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = polarization_expand(m, np.ones(4))
        assert np.all(h[0::2, 1::2] == 0)
        assert np.all(h[1::2, 0::2] == 0)


class TestCalibration:
    def test_blank_norms_equalized(self, coupler):
        m = coupler.coupling(blank_screen())
        cal = calibrate_columns(m)
        norms = np.linalg.norm(m * cal[None, :], axis=0)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-9)

    def test_identity_unit_scales(self):
        np.testing.assert_allclose(calibrate_columns(np.eye(4)), 1.0)

    def test_only_attenuates(self, coupler):
        m = coupler.coupling(blank_screen())
        assert np.all(calibrate_columns(m) <= 1 + 1e-12)

    def test_zero_column_rejected(self):
        m = np.eye(3)
        m[:, 1] = 0
        with pytest.raises(ValueError):
            calibrate_columns(m)

    def test_static_under_turbulence(self, coupler):
        # calibration from blank leaves turbulent column norms unequal
        rng = np.random.default_rng(3)
        raster = np.cumsum(rng.standard_normal((N, N)), axis=0) * 0.15
        screen = PhaseScreen(raster=raster - raster.mean(), pitch=PITCH)
        cal = calibrate_columns(coupler.coupling(blank_screen()))
        turb = coupler.coupling(screen)
        norms = np.linalg.norm(turb * cal[None, :], axis=0)
        assert np.ptp(norms) > 1e-3

    def test_entry_magnitude_bound(self, coupler):
        m = coupler.coupling(blank_screen())
        h = polarization_expand(m, np.repeat(calibrate_columns(m), 2))
        assert np.max(np.abs(h)) <= 1 + 1e-9

    def test_power_proxy(self, coupler):
        # mean over transmit modes of the calibrated blank column power
        m = coupler.blank_coupling * coupler.calibration_spatial[None, :]
        expected = np.mean(np.sum(np.abs(m) ** 2, axis=0))
        power = coupler.captured_power(coupler.coupling(blank_screen()))
        assert power == pytest.approx(expected, rel=1e-12)
