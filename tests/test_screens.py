import itertools
import json
import struct
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            {"seed": -1},
            # pitches that are not a positive finite float
            {"grid_size": 10**400},
            {"physical_length": 1e-320, "inner_scale": 1e-321, "grid_size": 10**6},
            # 1 / outer_scale**2 overflows the float range
            {"outer_scale": 1.3407807929942597e+154},
            # 6.88 (physical_length / fried)**(5/3) overflows the float range
            {"fried": 2.225073858507203e-309},
            {"fried": 1e-200},
            # 3.0 ** subharmonic_levels overflows the float range
            {"subharmonic_levels": 647},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScreenConfig(**{"fried": 0.8e-3, **kwargs})


class TestCoefficients:
    def test_scalar_value_level0(self):
        amp = screens._amplitude(SMALL, 0)
        df = 1.0 / SMALL.physical_length
        # point (n, m) = (3, 5) -> f = (5 df, 3 df) under meshgrid layout
        f2 = (3.0 * df) ** 2 + (5.0 * df) ** 2
        assert amp[3, 5] == pytest.approx(vk_amplitude(f2, SMALL, df), rel=1e-12)

    def test_scalar_value_subharmonic(self):
        amp = screens._amplitude(SMALL, 2)
        df = 1.0 / (9.0 * SMALL.physical_length)
        assert amp[0, 0] == pytest.approx(vk_amplitude(2 * df ** 2, SMALL, df), rel=1e-12)

    def test_fried_scaling(self):
        # halving r0 scales every coefficient by 2**(5/6)
        a1 = screens._amplitude(SMALL, 1)
        a2 = screens._amplitude(replace(SMALL, fried=SMALL.fried / 2), 1)
        np.testing.assert_allclose(a2 / a1, 2 ** (5.0 / 6.0), rtol=1e-12)


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


def reference_correction(n, length, outer, inner, level):
    # the full-raster sampling correction generate_screen applied before
    # the level-0 weights were cached as a block
    def shape(f2):
        return (f2 + 1.0 / outer ** 2) ** (-11.0 / 6.0) * np.exp(
            -f2 * (2.0 * np.pi * inner / 5.92) ** 2
        )

    nodes, wts = np.polynomial.legendre.leggauss(8)
    if level == 0:
        df = 1.0 / length
        idx = np.round(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        corr = np.ones((n, n))
        small = np.flatnonzero(np.abs(idx) <= 8)
        centers = idx[small] * df
    else:
        df = 1.0 / (3.0 ** level * length)
        corr = np.ones((3, 3))
        small = np.arange(3)
        centers = np.array([-1.0, 0.0, 1.0]) * df
    off = 0.5 * df * nodes
    w2 = np.outer(wts, wts) / 4.0
    fx = centers[:, None, None, None] + off[None, :, None, None]
    fy = centers[None, None, :, None] + off[None, None, None, :]
    f2 = fx ** 2 + fy ** 2
    mean = np.einsum("aqbp,qp->ab", shape(f2) * f2, w2)
    fc2 = centers[:, None] ** 2 + centers[None, :] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.sqrt(mean / (shape(fc2) * fc2))
    block[fc2 == 0.0] = 1.0
    if level == 0:
        corr[np.ix_(small, small)] = block
        corr[0, 0] = 1.0
    else:
        corr = block
        corr[1, 1] = 1.0
    return corr


def reference_terms(config):
    # the synthesis as written before the level-0 weights were cached:
    # full-raster correction, separate sign flips, complex scaling.
    # Returns the level-0 raster and each subharmonic level's pixel
    # exponentials ex (N, 3) and coefficients c (3, 3)
    n, length = config.grid_size, config.physical_length
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    def draws(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    def coefficients(level, fx, fy, w):
        df = 1.0 / (3.0 ** level * length)
        c = w * vk_amplitude(fx ** 2 + fy ** 2, config, df)
        c[(0, 0) if level == 0 else (1, 1)] = 0.0
        return c * reference_correction(n, length, config.outer_scale, config.inner_scale, level)

    f1 = np.fft.fftfreq(n, d=config.pitch)
    c0 = coefficients(0, *np.meshgrid(f1, f1), draws((n, n)))
    n_int = np.fft.fftfreq(n, d=1.0 / n)
    sign = np.where(np.round(n_int).astype(int) % 2 == 0, 1.0, -1.0)
    raster = np.real(np.fft.ifft2(c0 * sign[None, :] * sign[:, None]) * n * n)
    coords = (np.arange(n) - n // 2) * config.pitch
    levels = []
    for level in range(1, config.subharmonic_levels + 1):
        fvals = np.array([-1.0, 0.0, 1.0]) / (3.0 ** level * length)
        c = coefficients(level, *np.meshgrid(fvals, fvals), draws((3, 3)))
        levels.append((np.exp(2j * np.pi * np.outer(coords, fvals)), c))
    return raster, levels


def finished(raster):
    raster *= screens.SYNTHESIS_GAIN
    raster -= raster.mean()
    return raster


def reference_screen(config):
    # every subharmonic level's Re(ex @ c @ ex.T) summed as one real
    # product [Re a, -Im a] @ [Re ex, Im ex].T, a = ex @ c, the levels'
    # columns side by side in level order
    raster, levels = reference_terms(config)
    if levels:
        left = [part for ex, c in levels for part in ((ex @ c).real, -(ex @ c).imag)]
        right = [part for ex, _ in levels for part in (ex.real, ex.imag)]
        raster += np.hstack(left) @ np.hstack(right).T
    return finished(raster)


def per_level_screen(config):
    # the subharmonic levels added one complex product at a time
    raster, levels = reference_terms(config)
    for ex, c in levels:
        raster += np.real(ex @ c @ ex.T)
    return finished(raster)


class TestSynthesisReference:
    @pytest.mark.parametrize("levels", [0, 8])
    # 18: n/2 = 9 is odd, so the Nyquist row and column, which the
    # quadrant's mirrored views leave out, carry the sign -1
    @pytest.mark.parametrize("grid", [16, 18, 128, 960])
    def test_bits_equal_reference(self, grid, levels):
        seeds = (0, 7, sub_seed(5, 3)) if grid < 960 else (1, sub_seed(9, 0))
        # the Kolmogorov limit, whose zero-frequency amplitudes are infinite
        # until they are zeroed
        outers = (10.0, np.inf) if grid < 960 else (10.0,)
        for outer, seed in itertools.product(outers, seeds):
            cfg = ScreenConfig(
                fried=0.8e-3, grid_size=grid, outer_scale=outer,
                subharmonic_levels=levels, seed=seed,
            )
            raster = generate_screen(cfg).raster
            with np.errstate(divide="ignore"):
                want, per_level = reference_screen(cfg), per_level_screen(cfg)
            assert raster.flags.c_contiguous
            assert np.array_equal(raster.view(np.uint64), want.view(np.uint64))
            # the one product only reorders the per-level sums
            tol = 1e-12 * np.abs(raster).max()
            assert np.abs(raster - per_level).max() <= tol

    @pytest.mark.parametrize("shape", [(3, 3), (16, 16), (960, 960)])
    def test_complex_draws_bits(self, shape):
        got = screens._complex_draws(np.random.default_rng(11), shape)
        rng = np.random.default_rng(11)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        want = (re + 1j * im) / np.sqrt(2.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cached_weights_read_only(self):
        generate_screen(SMALL)
        (amp, cells, corr), levels = screens._plan(replace(SMALL, seed=0))
        # the level-0 amplitude is held as its quadrant of indices 0..n/2
        assert amp.shape == (65, 65) and corr.shape == (17, 17)
        assert [[a.shape for a in level] for level in levels] == [[(3, 3), (3, 3), (3,)]] * 3
        for a in (amp, *cells, corr, *itertools.chain(*levels)):
            assert not a.flags.writeable
        assert screens._plan(replace(SMALL, seed=0, subharmonic_levels=0))[1] == ()

    def test_warm_plan_does_no_seed_independent_work(self, monkeypatch):
        calls = {"_amplitude": 0, "_sampling_correction": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(screens, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(screens, name, counted)
        generate_screen(SMALL)
        first = dict(calls)
        generate_screen(replace(SMALL, seed=8))
        assert calls == first
        # a cold plan builds each of level 0 and the three subharmonic levels once
        screens._plan.cache_clear()
        generate_screen(replace(SMALL, seed=9))
        assert calls == {name: first[name] + 4 for name in calls}


class TestOrderedMap:
    def test_input_order(self, set_workers):
        set_workers(3)

        def slow_first(i):
            threading.Event().wait(0.02 if i % 3 == 0 else 0.0)
            return i * i

        assert list(screens._ordered_map(slow_first, range(20))) == [i * i for i in range(20)]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pulls_at_most_workers_ahead(self, set_workers, workers):
        set_workers(workers)
        pulled = []

        def items():
            for i in itertools.count():
                pulled.append(i)
                yield i

        stream = screens._ordered_map(lambda i: i, items())
        assert next(stream) == 0
        assert len(pulled) == workers
        assert next(stream) == 1
        assert len(pulled) == workers + 1
        stream.close()

    def test_worker_exception_reraises(self, set_workers):
        set_workers(3)

        def fail_on_4(i):
            if i == 4:
                raise RuntimeError("member 4")
            return i

        out = []
        with pytest.raises(RuntimeError, match="member 4"):
            for value in screens._ordered_map(fail_on_4, range(10)):
                out.append(value)
        assert out == [0, 1, 2, 3]

    def test_close_shuts_pool_down(self, set_workers):
        set_workers(3)
        before = threading.active_count()
        stream = screens._ordered_map(lambda i: i, itertools.count())
        assert [next(stream) for _ in range(5)] == [0, 1, 2, 3, 4]
        stream.close()
        assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_takes_a_worker_slot(set_workers, workers):
    # the pool has one thread fewer than the workers, and the calling
    # thread computes the items the pool cannot take
    set_workers(workers)
    before = threading.active_count()
    threads, alive = set(), []

    def record(i):
        threading.Event().wait(0.005)  # keep each pool thread busy
        threads.add(threading.current_thread())
        alive.append(threading.active_count() - before)
        return i

    assert list(screens._ordered_map(record, range(12))) == list(range(12))
    assert threading.current_thread() in threads
    assert len(threads) == workers
    assert max(alive) == workers - 1


@pytest.mark.parametrize("workers", [2, 3])
def test_exceptions_reraise_in_input_order(set_workers, workers):
    # whichever thread computed the failing item, the items before it
    # come out first
    set_workers(workers)
    for bad in range(6):
        def fail(i):
            if i == bad:
                raise RuntimeError(f"item {i}")
            return i

        out = []
        with pytest.raises(RuntimeError, match=f"item {bad}"):
            for value in screens._ordered_map(fail, range(8)):
                out.append(value)
        assert out == list(range(bad))


class TestWorkerInvariance:
    CFG = ScreenConfig(fried=0.8e-3, grid_size=128, subharmonic_levels=8, seed=21)

    def test_ensemble(self, set_workers):
        runs = []
        for workers in (1, 3):
            set_workers(workers)
            streamed = list(iter_screens(self.CFG, 7))
            listed = batch_generate(self.CFG, 7)
            assert [m.seed for m, _ in streamed] == [sub_seed(21, i) for i in range(7)]
            for (_, a), b in zip(streamed, listed):
                assert np.array_equal(a.raster, b.raster)
            runs.append(np.stack([s.raster for s in listed]))
        assert np.array_equal(runs[0].view(np.uint64), runs[1].view(np.uint64))

    def test_cold_cache_race(self, set_workers):
        # more workers than cores, a short switch interval and cold caches:
        # the first members race to build the cached plan
        expected = [generate_screen(replace(self.CFG, seed=sub_seed(21, i))) for i in range(8)]
        set_workers(6)
        screens._plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [s for _, s in iter_screens(self.CFG, 8)]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(expected, got, strict=True):
            assert np.array_equal(a.raster.view(np.uint64), b.raster.view(np.uint64))

    def test_structure_function(self, set_workers):
        seps = np.array([1, 3, 5, 9, 20]) * self.CFG.pitch
        results = []
        for workers in (1, 3):
            set_workers(workers)
            rs, d = structure_function((s for _, s in iter_screens(self.CFG, 9)), seps)
            results.append(d)
        assert np.array_equal(results[0].view(np.uint64), results[1].view(np.uint64))


class TestTrim:
    """batch_generate returns its freed memory to the OS after each
    member, and its values are the same where malloc_trim is missing.
    That streams do not trim is checked on screen_statistics in
    test_harness."""

    SEPS = np.array([1, 3, 9]) * SMALL.pitch

    @pytest.mark.parametrize("workers", [1, 3])
    def test_once_per_batch_member(self, set_workers, trim_calls, workers):
        set_workers(workers)
        assert len(batch_generate(SMALL, 5)) == 5
        assert len(trim_calls) == 5

    def test_same_values_without_malloc_trim(self, monkeypatch):
        runs = []
        for handle in (screens._MALLOC_TRIM, None):
            monkeypatch.setattr(screens, "_MALLOC_TRIM", handle)
            batch = batch_generate(SMALL, 3)
            _, d = structure_function(batch, self.SEPS)
            runs.append((np.stack([s.raster for s in batch]), d))
        for a, b in zip(*runs, strict=True):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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

    @pytest.fixture()
    def valid_file(self, tmp_path):
        path = tmp_path / "s.phs"
        write_screen(path, generate_screen(SMALL), SMALL)
        return path

    def test_trailing_bytes(self, valid_file):
        valid_file.write_bytes(valid_file.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_screen(valid_file)

    def test_truncated_raster(self, valid_file):
        valid_file.write_bytes(valid_file.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated raster"):
            read_screen(valid_file)

    def test_zero_grid_size(self, valid_file):
        raw = bytearray(valid_file.read_bytes())
        raw[8:12] = struct.pack("<I", 0)
        valid_file.write_bytes(bytes(raw[:52]))
        with pytest.raises(ValueError, match="zero grid size"):
            read_screen(valid_file)

    @pytest.mark.parametrize("pitch", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_bad_pitch(self, valid_file, pitch):
        raw = bytearray(valid_file.read_bytes())
        raw[12:20] = struct.pack("<d", pitch)
        valid_file.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="pitch"):
            read_screen(valid_file)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.phs"
        path.write_bytes(b"NOTASCRN" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_screen(path)

    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("grid_size", 64, "grid_size"),
            ("fried", 0.9e-3, "fried"),
            ("outer_scale", 20.0, "outer_scale"),
            ("inner_scale", 2e-4, "inner_scale"),
            ("seed", 8, "seed"),
            ("physical_length", 9e-3, "physical_length / grid_size"),
        ],
    )
    def test_sidecar_disagrees_with_header(self, valid_file, key, value, name):
        sidecar = valid_file.with_name(valid_file.name + ".json")
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"sidecar {name}="):
            read_screen(valid_file)

    @pytest.mark.parametrize("text", ["{", "[]", '{"grid_size": "128"}'])
    def test_malformed_sidecar(self, valid_file, text):
        valid_file.with_name(valid_file.name + ".json").write_text(text)
        with pytest.raises(ValueError):
            read_screen(valid_file)

    def test_sidecar_seed_mod_2_64_and_optional(self, tmp_path):
        # the header keeps the seed mod 2^64, the sidecar the whole seed
        config = replace(SMALL, seed=2 ** 64 + 7)
        path = tmp_path / "s.phs"
        write_screen(path, generate_screen(SMALL), config)
        assert read_screen(path)[1]["seed"] == 7
        path.with_name(path.name + ".json").unlink()
        assert read_screen(path)[1]["seed"] == 7


@pytest.fixture(scope="module")
def small_screen():
    return generate_screen(SMALL)


@settings(max_examples=60, deadline=None)
@given(
    grid_size=st.sampled_from([SMALL.grid_size, SMALL.grid_size // 2, 2 * SMALL.grid_size]),
    length=st.sampled_from([1.0, 2.0, 1.01]),
    seed=st.integers(0, 2 ** 70),
)
def test_write_screen_writes_only_what_read_screen_reads(
    small_screen, tmp_path_factory, grid_size, length, seed
):
    # a config of another grid size or pitch than the screen is refused
    # before any file is written; any other is read back as written
    config = replace(
        SMALL, grid_size=grid_size, physical_length=length * SMALL.physical_length, seed=seed
    )
    path = tmp_path_factory.mktemp("roundtrip") / "s.phs"
    sidecar = path.with_name(path.name + ".json")
    matches = grid_size == SMALL.grid_size and length == 1.0
    if not matches:
        with pytest.raises(ValueError, match="disagrees with the header"):
            write_screen(path, small_screen, config)
        assert not path.exists() and not sidecar.exists()
        return
    write_screen(path, small_screen, config)
    loaded, header = read_screen(path)
    np.testing.assert_array_equal(loaded.raster, small_screen.raster)
    assert header["seed"] == seed % 2 ** 64
    assert json.loads(sidecar.read_text())["seed"] == seed


TINY = ScreenConfig(fried=0.8e-3, grid_size=8, subharmonic_levels=1, seed=3)


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "s.phs"
    write_screen(path, generate_screen(TINY), TINY)
    return path, path.read_bytes()


def _flipped(raw, flips):
    out = bytearray(raw)
    for at, mask in flips:
        out[at % len(out)] ^= mask
    return bytes(out)


# flips land in the magic and header (the first 52 bytes) or anywhere
_FLIPS = st.lists(
    st.tuples(st.one_of(st.integers(0, 51), st.integers(0, 8 * 8 * 8 + 51)), st.integers(1, 255)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    mutation=st.one_of(
        st.integers(0, 8 * 8 * 8 + 51).map(lambda n: ("truncate", n)),
        st.binary(min_size=1, max_size=24).map(lambda b: ("extend", b)),
        _FLIPS.map(lambda f: ("flip", f)),
    )
)
def test_read_screen_mutated_file_raises_only_value_error(tiny_file, mutation):
    path, raw = tiny_file
    kind, arg = mutation
    if kind == "truncate":
        data = raw[:arg]
    elif kind == "extend":
        data = raw + arg
    else:
        data = _flipped(raw, arg)
    path.write_bytes(data)
    try:
        screen, header = read_screen(path)
    except ValueError:
        return
    assert screen.raster.shape == (header["grid_size"],) * 2
    assert len(data) == len(raw)


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
