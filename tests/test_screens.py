import json
import struct

import numpy as np
import pytest

from mdmfso import screens
from mdmfso.screens import (
    MAGIC,
    PhaseScreen,
    ScreenConfig,
    batch_generate,
    generate_screen,
    iter_screens,
    kolmogorov_structure_function,
    read_screen,
    structure_function,
    sub_seed,
    vonkarman_coefficients,
    write_screen,
)

SMALL = ScreenConfig(
    fried=0.8e-3,
    grid_size=128,
    physical_length=8.832e-3,
    subharmonic_levels=3,
    seed=7,
)


def vk_amplitude(f2, config, df):
    # independent transcription of the coefficient magnitude
    return (
        np.sqrt(0.023)
        * df
        * (2.0 / config.fried) ** (5.0 / 6.0)
        * (f2 + 1.0 / config.outer_scale ** 2) ** (-11.0 / 12.0)
        * np.exp(-f2 * (2.0 * np.pi * config.inner_scale / 5.92) ** 2 / 2.0)
    )


class TestConfig:
    def test_pitch(self):
        assert SMALL.pitch == pytest.approx(8.832e-3 / 128)

    def test_default_geometry(self):
        cfg = ScreenConfig(fried=0.8e-3)
        assert cfg.grid_size == 960
        assert cfg.pitch == pytest.approx(9.2e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_size": 7},
            {"grid_size": 0},
            {"fried": 0.0},
            {"fried": -1e-3},
            {"inner_scale": 0.0},
            {"outer_scale": 1e-3},
            {"subharmonic_levels": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScreenConfig(**{"fried": 0.8e-3, **kwargs})


class TestCoefficients:
    def test_scalar_value_level0(self):
        ones = np.ones((SMALL.grid_size, SMALL.grid_size), dtype=complex)
        c = vonkarman_coefficients(SMALL, 0, ones)
        df = 1.0 / SMALL.physical_length
        # point (n, m) = (3, 5) -> f = (5 df, 3 df) under meshgrid layout
        f2 = (3.0 * df) ** 2 + (5.0 * df) ** 2
        assert c[3, 5] == pytest.approx(vk_amplitude(f2, SMALL, df), rel=1e-12)

    def test_scalar_value_subharmonic(self):
        ones = np.ones((3, 3), dtype=complex)
        c = vonkarman_coefficients(SMALL, 2, ones)
        df = 1.0 / (9.0 * SMALL.physical_length)
        assert c[0, 0] == pytest.approx(vk_amplitude(2 * df ** 2, SMALL, df), rel=1e-12)

    def test_center_zeroed(self):
        ones = np.ones((SMALL.grid_size,) * 2, dtype=complex)
        assert vonkarman_coefficients(SMALL, 0, ones)[0, 0] == 0.0
        assert vonkarman_coefficients(SMALL, 1, np.ones((3, 3)))[1, 1] == 0.0

    def test_fried_scaling(self):
        # halving r0 scales every coefficient by 2**(5/6)
        ones = np.ones((3, 3), dtype=complex)
        c1 = vonkarman_coefficients(SMALL, 1, ones)
        half = ScreenConfig(
            fried=SMALL.fried / 2,
            grid_size=SMALL.grid_size,
            physical_length=SMALL.physical_length,
            subharmonic_levels=3,
        )
        c2 = vonkarman_coefficients(half, 1, ones)
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        np.testing.assert_allclose(c2[mask] / c1[mask], 2 ** (5.0 / 6.0), rtol=1e-12)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            vonkarman_coefficients(SMALL, 4, np.ones((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vonkarman_coefficients(SMALL, 0, np.ones((3, 3)))

    def test_nonfinite_draws(self):
        bad = np.ones((3, 3), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            vonkarman_coefficients(SMALL, 1, bad)


class TestGeneration:
    def test_deterministic(self):
        a = generate_screen(SMALL)
        b = generate_screen(SMALL)
        np.testing.assert_array_equal(a.raster, b.raster)

    def test_seed_changes_screen(self):
        a = generate_screen(SMALL)
        b = generate_screen(ScreenConfig(
            fried=0.8e-3, grid_size=128, physical_length=8.832e-3,
            subharmonic_levels=3, seed=8,
        ))
        assert not np.allclose(a.raster, b.raster)

    def test_piston_removed(self):
        screen = generate_screen(SMALL)
        assert abs(screen.raster.mean()) < 1e-12 * screen.raster.std()

    def test_shape_and_pitch(self):
        screen = generate_screen(SMALL)
        assert screen.raster.shape == (128, 128)
        assert screen.grid_size == 128
        assert screen.physical_length == pytest.approx(8.832e-3)

    def test_batch_distinct(self):
        batch = batch_generate(SMALL, 3)
        assert len(batch) == 3
        assert not np.allclose(batch[0].raster, batch[1].raster)

    def test_batch_count_validation(self, monkeypatch):
        monkeypatch.setattr(screens, "generate_screen", None)  # must not be reached
        for make, count in ((batch_generate, 0), (iter_screens, 0), (iter_screens, -3)):
            with pytest.raises(ValueError, match="count must be >= 1"):
                make(SMALL, count)

    def test_sub_seed_deterministic(self):
        assert sub_seed(3, 5) == sub_seed(3, 5)
        assert sub_seed(3, 5) != sub_seed(3, 6)

    def test_raster_validation(self):
        with pytest.raises(ValueError):
            PhaseScreen(raster=np.zeros((4, 5)), pitch=1e-5)
        bad = np.zeros((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            PhaseScreen(raster=bad, pitch=1e-5)


class TestStructureFunction:
    def test_pure_tilt(self):
        # phi = a*x has D(r) = a^2 r^2 exactly along x, 0 along y
        n, pitch = 64, 1e-4
        a = 37.0
        x = (np.arange(n) - n // 2) * pitch
        screen = PhaseScreen(raster=np.tile(a * x, (n, 1)), pitch=pitch)
        rs, d = structure_function([screen], [2 * pitch, 5 * pitch])
        np.testing.assert_allclose(d, 0.5 * a ** 2 * rs ** 2, rtol=1e-9)

    def test_kolmogorov_reference(self):
        assert kolmogorov_structure_function(0.8e-3, 0.8e-3) == pytest.approx(6.88)
        r = np.array([1e-3, 2e-3])
        ratio = kolmogorov_structure_function(r[1], 1e-3) / kolmogorov_structure_function(r[0], 1e-3)
        assert ratio == pytest.approx(2 ** (5.0 / 3.0))

    def test_separation_validation(self):
        screen = generate_screen(SMALL)
        with pytest.raises(ValueError):
            structure_function([screen], [1.3 * SMALL.pitch])
        with pytest.raises(ValueError):
            structure_function([screen], [SMALL.physical_length / 2])
        with pytest.raises(ValueError):
            structure_function([], [SMALL.pitch])
        with pytest.raises(ValueError):
            structure_function(iter([]), [SMALL.pitch])


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        screen = generate_screen(SMALL)
        path = tmp_path / "s.phs"
        write_screen(path, screen, SMALL)
        loaded, header = read_screen(path)
        np.testing.assert_array_equal(loaded.raster, screen.raster)
        assert loaded.pitch == screen.pitch
        assert header["fried"] == SMALL.fried
        assert header["seed"] == SMALL.seed

    def test_binary_layout(self, tmp_path):
        screen = generate_screen(SMALL)
        path = tmp_path / "s.phs"
        write_screen(path, screen, SMALL)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        grid, pitch, fried, outer, inner, seed = struct.unpack("<IddddQ", raw[8:52])
        assert grid == 128
        assert pitch == pytest.approx(SMALL.pitch)
        assert fried == SMALL.fried
        assert outer == SMALL.outer_scale
        assert inner == SMALL.inner_scale
        assert seed == SMALL.seed
        assert len(raw) == 52 + 128 * 128 * 8

    def test_sidecar(self, tmp_path):
        screen = generate_screen(SMALL)
        path = tmp_path / "s.phs"
        write_screen(path, screen, SMALL)
        meta = json.loads((tmp_path / "s.phs.json").read_text())
        assert meta["subharmonic_levels"] == 3
        assert meta["physical_length"] == SMALL.physical_length

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.phs"
        path.write_bytes(b"NOTASCRN" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_screen(path)


class TestEnsembleStatistics:
    def test_structure_function_tracks_vonkarman(self):
        # small grid, scaled geometry: D_phi within 20% of the Kolmogorov
        # reference at intermediate separations (band edges roll off)
        cfg = ScreenConfig(
            fried=0.8e-3, grid_size=128, physical_length=8.832e-3,
            subharmonic_levels=6, seed=3,
        )
        batch = batch_generate(cfg, 60)
        ks = np.array([3, 5, 9, 16])
        rs, d = structure_function(batch, ks * cfg.pitch)
        ref = kolmogorov_structure_function(rs, cfg.fried)
        np.testing.assert_allclose(d / ref, 1.0, atol=0.2)

    def test_fried_scaling_of_variance(self):
        # screen variance scales as r0**(-5/3)
        base = dict(grid_size=96, physical_length=8.832e-3, subharmonic_levels=4)
        va = np.mean([
            generate_screen(ScreenConfig(fried=1e-3, seed=s, **base)).raster.var()
            for s in range(30)
        ])
        vb = np.mean([
            generate_screen(ScreenConfig(fried=2e-3, seed=s, **base)).raster.var()
            for s in range(30)
        ])
        assert va / vb == pytest.approx(2 ** (5.0 / 3.0), rel=0.1)
