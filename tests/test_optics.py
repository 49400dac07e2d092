from math import factorial

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from mdmfso import optics
from mdmfso.harness import ExperimentConfig
from mdmfso.optics import (
    ChannelMatrix,
    GridGeometry,
    ModalCoupler,
    ModeSpec,
    calibrate_columns,
    mode_field,
    polarization_expand,
)
from mdmfso.screens import PhaseScreen

GRID = GridGeometry(grid_size=480, pitch=8.832e-3 / 480)


def coupler_of(tx=optics.TX_MODES, rx=optics.RX_MODES):
    """The coupler of the mode labels tx and rx on GRID."""
    return ModalCoupler(
        ExperimentConfig(grid_size=GRID.grid_size, tx_modes=tuple(tx), rx_modes=tuple(rx))
    )


def aperture_mask(grid, diameter=8.4e-3):
    """The hard circular aperture on the raster, as 0/1 floats."""
    c = grid.coords()
    return (c[None, :] ** 2 + c[:, None] ** 2 <= (diameter / 2.0) ** 2).astype(float)


def blank_screen(grid=GRID, value=0.0):
    return PhaseScreen(
        raster=np.full((grid.grid_size, grid.grid_size), value), pitch=grid.pitch
    )


@pytest.fixture(scope="module")
def rx_specs():
    return [ModeSpec.lp(m) for m in optics.RX_MODES]


@pytest.fixture(scope="module")
def coupler():
    return coupler_of()


class TestModeSpec:
    def test_unknown_label(self):
        with pytest.raises(ValueError):
            ModeSpec.lp("LP31")

    def test_unnormalized_composition(self):
        with pytest.raises(ValueError):
            ModeSpec(label="x", lg_composition=((0, 0, 0.5),))

    def test_repeated_terms_combine_before_the_norm(self):
        # 0.6 - 0.8 leaves LG(0, +-1) with weight -0.2 each: energy 0.08, not 1
        with pytest.raises(ValueError, match="unit squared magnitude"):
            ModeSpec(
                label="x",
                lg_composition=((0, 1, 0.6), (0, -1, 0.6), (0, 1, -0.8), (0, -1, -0.8)),
            )
        # LP11a with its LG(0, 1) term given in two halves
        half = 0.5 / np.sqrt(2.0)
        split = ModeSpec(label="y", lg_composition=((0, 1, half), (0, -1, 2 * half), (0, 1, half)))
        whole = ModeSpec.lp("LP11a")
        np.testing.assert_allclose(mode_field(split, GRID), mode_field(whole, GRID), atol=1e-12)

    @pytest.mark.parametrize(
        "composition",
        [
            ((0, 1, 1.0),),
            ((0, 1, -1j / np.sqrt(2.0)), (0, -1, -1j / np.sqrt(2.0))),
            ((0, 0, 1j),),
        ],
        ids=["LG01", "LP11b_sign_flipped", "imaginary_LG00"],
    )
    def test_non_real_field_rejected(self, composition):
        with pytest.raises(ValueError, match="x: the weight of LG.* is not the conjugate"):
            ModeSpec(label="x", lg_composition=composition)

    def test_every_lp_label_accepted(self):
        labels = tuple(optics.LP_TO_LG)
        assert [ModeSpec.lp(label).label for label in labels] == list(labels)
        # reversed, the receive stack is a copy rather than a view
        coupler = coupler_of(labels, labels[::-1])
        assert coupler._tx.dtype == coupler._rx.dtype == np.float64

    def test_nonpositive_waist(self):
        with pytest.raises(ValueError):
            ModeSpec.lp("LP01", waist=0.0)

    @pytest.mark.parametrize("waist", [1e-160, 1e181, np.inf, np.nan, 10**400])
    def test_waist_without_finite_scale_rejected(self, waist):
        # 2 / waist^2 is not a finite positive float
        with pytest.raises(ValueError, match="must lie in"):
            ModeSpec.lp("LP01", waist=waist)


class TestModeFields:
    def test_lp01_gaussian(self):
        f = mode_field(ModeSpec.lp("LP01"), GRID)
        c = GRID.grid_size // 2
        assert np.all(np.abs(f.imag) < 1e-12)
        assert f.real[c, c] == np.max(f.real)
        assert f.real[c, c] > 0

    def test_normalization(self, rx_specs):
        for spec in rx_specs:
            f = mode_field(spec, GRID)
            assert np.sum(np.abs(f) ** 2) * GRID.pitch ** 2 == pytest.approx(1.0)

    def test_rx_gram_identity(self, rx_specs):
        fields = [mode_field(s, GRID) for s in rx_specs]
        n = len(fields)
        gram = np.array(
            [[np.vdot(fields[i], fields[j]) for j in range(n)] for i in range(n)]
        ) * GRID.pitch ** 2
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-3
        np.testing.assert_allclose(np.diag(gram).real, 1.0, atol=1e-9)

    def test_lp11_pair(self):
        a = mode_field(ModeSpec.lp("LP11a"), GRID)
        b = mode_field(ModeSpec.lp("LP11b"), GRID)
        assert abs(np.vdot(a, b)) * GRID.pitch ** 2 < 1e-3
        # degenerate pair: identical azimuthally integrated radial profile
        ia, ib = np.abs(a) ** 2, np.abs(b) ** 2
        c = GRID.coords()
        r = np.hypot(c[:, None], c[None, :])
        bins = np.linspace(0, 3e-3, 30)
        pa, _ = np.histogram(r, bins=bins, weights=ia)
        pb, _ = np.histogram(r, bins=bins, weights=ib)
        np.testing.assert_allclose(pa, pb, rtol=2e-2)

    def test_clipping_guard(self):
        small = GridGeometry(grid_size=64, pitch=1e-4)  # 6.4 mm raster
        with pytest.raises(ValueError, match="raster"):
            mode_field(ModeSpec.lp("LP21a", waist=5e-3), small)

    def test_lg_orthogonality(self):
        # odd grid centers the raster on the axis so the azimuthal factor
        # of LP11a cancels against LP01 exactly; even grids leave an
        # O(1/n) half-pixel residual
        fine = GridGeometry(grid_size=961, pitch=8.832e-3 / 961)
        lp01 = mode_field(ModeSpec.lp("LP01"), fine)
        lp11a = mode_field(ModeSpec.lp("LP11a"), fine)
        assert abs(np.vdot(lp01, lp11a)) * fine.pitch ** 2 < 1e-6


def arctan2_field(spec, grid):
    """A mode field from the explicit LG formula with e^{j l theta}."""
    c = grid.coords()
    x, y = np.meshgrid(c, c)
    r2 = x ** 2 + y ** 2
    w = spec.waist
    field = np.zeros(r2.shape, dtype=complex)
    for p, l, weight in spec.lg_composition:
        amp = np.sqrt(2.0 * factorial(p) / (np.pi * factorial(p + abs(l)))) / w
        field += weight * (
            amp
            * (np.sqrt(2.0 * r2) / w) ** abs(l)
            * eval_genlaguerre(p, abs(l), 2.0 * r2 / w ** 2)
            * np.exp(-r2 / w ** 2)
            * np.exp(1j * l * np.arctan2(y, x))
        )
    return field / np.sqrt(np.sum(np.abs(field) ** 2) * grid.pitch ** 2)


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
        fine = GridGeometry(grid_size=961, pitch=8.832e-3 / 961)
        c = fine.grid_size // 2
        assert fine.coords()[c] == 0.0
        for spec in (ModeSpec.lp(m) for m in optics.RX_MODES):
            f = mode_field(spec, fine)
            ref = arctan2_field(spec, fine)
            assert np.all(np.isfinite(f)), spec.label
            assert np.max(np.abs(f - ref)) < 1e-12 * np.max(np.abs(ref)), spec.label
            if all(l != 0 for _, l, _ in spec.lg_composition):
                assert f[c, c] == 0

    def test_lp_fields_real(self):
        for label in optics.LP_TO_LG:
            assert not np.iscomplexobj(mode_field(ModeSpec.lp(label), GRID)), label


class TestModalCoupler:
    """The aperture-only coupler against the brute-force overlap
    sum(conj(psi_rx) * mask * e^{j phi} * psi_tx) * pitch^2."""

    SMALL = 120

    @staticmethod
    def brute_force(cfg, raster):
        grid = GridGeometry(cfg.grid_size, cfg.physical_length / cfg.grid_size)
        mask = aperture_mask(grid, cfg.aperture_diameter)
        rx = [mode_field(ModeSpec.lp(m, cfg.waist), grid) for m in cfg.rx_modes]
        tx = [mode_field(ModeSpec.lp(m, cfg.waist), grid) for m in cfg.tx_modes]
        screen = mask * np.exp(1j * raster)
        return np.array(
            [[np.sum(np.conj(a) * screen * b) for b in tx] for a in rx]
        ) * grid.pitch ** 2

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
        grid = GridGeometry(self.SMALL, cfg.physical_length / self.SMALL)
        for raster in (random, blank):
            screen = PhaseScreen(raster=raster, pitch=grid.pitch)
            self.assert_close(coupler.coupling(screen), self.brute_force(cfg, raster))
        blank_ref = self.brute_force(cfg, blank)
        self.assert_close(coupler.blank_coupling, blank_ref)
        np.testing.assert_allclose(
            coupler.calibration_spatial, calibrate_columns(blank_ref), rtol=1e-12
        )

    def test_screen_grid_mismatch(self):
        coupler = ModalCoupler(ExperimentConfig(grid_size=self.SMALL))
        with pytest.raises(ValueError, match="coupler grid"):
            coupler.coupling(blank_screen())


def reference_coupler(grid, tx, rx, raster):
    """blank_coupling, the pixel-blocked coupling(raster) and the coupling
    as one whole product, from the build before the coupler wrote its
    fields into one stack: one LGTerms for every mode, a dict of aperture
    fields and one np.stack per side."""
    pixels = np.flatnonzero(aperture_mask(grid))
    terms = optics.LGTerms(grid)
    fields = {
        spec: mode_field(spec, grid, terms).ravel()[pixels]
        for spec in dict.fromkeys(tx + rx)
    }
    tx_stack = np.stack([fields[s] for s in tx])
    rx_stack = np.stack([fields[s] for s in rx])
    # the full-raster LG factors and the fields are not needed past here;
    # at the default grid they would hold about 100 MB under the whole
    # product's complex temporaries
    del terms, fields
    blank = (rx_stack @ tx_stack.T).astype(complex) * grid.pitch ** 2
    phi = raster.ravel()[pixels]
    cos_sum = sin_sum = 0.0
    for lo in range(0, pixels.size, optics.COUPLING_BLOCK):
        b = slice(lo, lo + optics.COUPLING_BLOCK)
        cos_sum = cos_sum + rx_stack[:, b] @ (tx_stack[:, b] * np.cos(phi[b])).T
        sin_sum = sin_sum + rx_stack[:, b] @ (tx_stack[:, b] * np.sin(phi[b])).T
    blocked = (cos_sum + 1j * sin_sum) * grid.pitch ** 2
    whole = rx_stack @ (tx_stack * np.exp(1j * phi)).T * grid.pitch ** 2
    return blank, blocked, whole


def assert_bits_equal(new, ref):
    assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


class TestStackedBuild:
    """The one-stack build gives the bits of the dict-plus-np.stack build,
    and a coupling the bits of its pixel-blocked sum, which lies within
    1e-14 of the whole product over the aperture."""

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
        raster = np.random.default_rng(3).uniform(-np.pi, np.pi, (GRID.grid_size,) * 2)
        coupler = coupler_of(tx, rx)
        screen = PhaseScreen(raster=raster, pitch=GRID.pitch)
        reference = reference_coupler(
            GRID, [ModeSpec.lp(m) for m in tx], [ModeSpec.lp(m) for m in rx], raster
        )
        self.check(coupler, screen, reference)

    def test_default_config_bits(self):
        from mdmfso.harness import realization_screen

        cfg = ExperimentConfig(seed=3)
        grid = GridGeometry(cfg.grid_size, cfg.physical_length / cfg.grid_size)
        tx = [ModeSpec.lp(m) for m in cfg.tx_modes]
        rx = [ModeSpec.lp(m) for m in cfg.rx_modes]
        screen = realization_screen(cfg, 0)
        reference = reference_coupler(grid, tx, rx, screen.raster)
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
        c = GRID.coords()
        tilt = np.tile(300.0 * c, (GRID.grid_size, 1))
        screen = PhaseScreen(raster=tilt, pitch=GRID.pitch)
        m = coupler.coupling(screen)
        # LP01 column: transfer into |l|=1 modes dominates |l|=2
        lp01 = np.abs(m[:, 0]) ** 2
        assert lp01[1] + lp01[2] > 10 * (lp01[3] + lp01[4])

    def test_energy_bound(self, coupler):
        rng = np.random.default_rng(0)
        raster = np.cumsum(rng.standard_normal((GRID.grid_size, GRID.grid_size)), axis=1) * 0.1
        screen = PhaseScreen(raster=raster, pitch=GRID.pitch)
        m = coupler.coupling(screen)
        assert np.all(np.sum(np.abs(m) ** 2, axis=0) <= 1 + 1e-6)

    def test_aperture_validation(self):
        # the 8.4 mm aperture does not fit a 0.64 mm raster
        with pytest.raises(ValueError, match="aperture_diameter"):
            ModalCoupler(ExperimentConfig(grid_size=64, physical_length=6.4e-4))


class TestPolarizationExpand:
    def test_scalar(self):
        z = 0.3 - 0.4j
        h = polarization_expand(np.array([[z]]))
        np.testing.assert_allclose(h.h, np.diag([z, z]))

    def test_singular_values_doubled(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        h = polarization_expand(m)
        sv_m = np.sort(np.linalg.svd(m, compute_uv=False))
        sv_h = np.sort(np.linalg.svd(h.h, compute_uv=False))
        np.testing.assert_allclose(sv_h, np.repeat(sv_m, 2), rtol=1e-12)
        assert np.linalg.cond(h.h) == pytest.approx(np.linalg.cond(m))

    def test_no_cross_polarization(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = polarization_expand(m).h
        assert np.all(h[0::2, 1::2] == 0)
        assert np.all(h[1::2, 0::2] == 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ChannelMatrix(h=np.array([[1.0, np.nan]], dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            polarization_expand(np.array([[np.nan]]))


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
        raster = np.cumsum(rng.standard_normal((GRID.grid_size, GRID.grid_size)), axis=0) * 0.15
        screen = PhaseScreen(raster=raster - raster.mean(), pitch=GRID.pitch)
        cal = calibrate_columns(coupler.coupling(blank_screen()))
        turb = coupler.coupling(screen)
        norms = np.linalg.norm(turb * cal[None, :], axis=0)
        assert np.ptp(norms) > 1e-3

    def test_entry_magnitude_bound(self, coupler):
        m = coupler.coupling(blank_screen())
        h = polarization_expand(m, calibration=np.repeat(calibrate_columns(m), 2))
        assert np.max(np.abs(h.h)) <= 1 + 1e-9

    def test_power_proxy(self, coupler):
        # mean over transmit modes of the calibrated blank column power
        m = coupler.blank_coupling * coupler.calibration_spatial[None, :]
        expected = np.mean(np.sum(np.abs(m) ** 2, axis=0))
        assert coupler.captured_power(blank_screen()) == pytest.approx(expected, rel=1e-12)
