"""Shape generator, IDX round-trips, and multi-scale batch assembly."""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

from msun import gen_shapes, load_idx, make_multiscale, save_idx
from msun.data import (Dataset, IdxCountMismatchError, IdxMagicError,
                       IdxTruncatedError, prefetch_batches, split_dataset)
from msun.layers import resize_images
from msun.rng import _CHUNK


class TestGenShapes:
    def test_same_seed_bit_identical(self):
        a = gen_shapes(42, 60, 6, 32)
        b = gen_shapes(42, 60, 6, 32)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = gen_shapes(1, 30, 4, 32)
        b = gen_shapes(2, 30, 4, 32)
        assert not np.array_equal(a.images, b.images)

    def test_balanced_classes(self):
        ds = gen_shapes(0, 120, 6, 32)
        counts = np.bincount(ds.labels, minlength=6)
        assert np.all(counts == 20)

    def test_values_in_unit_interval(self):
        ds = gen_shapes(3, 40, 8, 32)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_grayscale_channels_identical(self):
        ds = gen_shapes(5, 10, 4, 32)
        assert ds.images.shape == (10, 1, 32, 32)

    def test_class_count_limit(self):
        with pytest.raises(ValueError):
            gen_shapes(0, 10, 9, 32)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_shapes(0, 10, 4, 8)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_sample_count(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            gen_shapes(0, n_samples, 4, 32)

    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_rejects_noise(self, noise):
        with pytest.raises(ValueError, match="noise"):
            gen_shapes(0, 10, 4, 32, noise=noise)

    def test_pinned_digest(self):
        # 37 * 40 * 40 noise draws end inside a block of the blocked normal draw
        # hashed as the three-channel images the digest was pinned on
        ds = gen_shapes(11, 37, 6, 40)
        rgb = np.repeat(ds.images, 3, axis=1)
        assert hashlib.sha256(rgb.tobytes()).hexdigest() == (
            "3fcec40c74c30796d59081864bb6666c6137b302e114845d8cebdb1a5b7ccba5")
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
            "e2e6e1f316ac85dc8101d032aaac53d7020ba42dcc4eac83a8381e0dab0cb923")

    def test_shapes_have_content(self):
        ds = gen_shapes(7, 16, 8, 32, noise=0.0)
        # every rendered image has a lit region and a dark region
        per_image_max = ds.images[:, 0].max(axis=(1, 2))
        per_image_min = ds.images[:, 0].min(axis=(1, 2))
        assert np.all(per_image_max > 0.4)
        assert np.all(per_image_min < 0.1)


class TestGenShapesRange:
    """``start``/``stop`` render a slice of the set without drawing the rest."""

    @staticmethod
    def _ranges(n, rows_per_chunk):
        # a range across a block boundary of the noise draw, one from a later
        # block across two boundaries, the last sample, and the whole set
        return [(rows_per_chunk - 1, rows_per_chunk + 2), (3, 2 * rows_per_chunk + 1),
                (n - 1, n), (0, n)]

    @pytest.mark.parametrize("size", [16, 64])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_equals_slice_of_whole_render(self, size, noise):
        rows_per_chunk = _CHUNK // (size * size)
        n = 2 * rows_per_chunk + 5
        whole = gen_shapes(21, n, 6, size, noise)
        for start, stop in self._ranges(n, rows_per_chunk):
            part = gen_shapes(21, n, 6, size, noise, start=start, stop=stop)
            assert part.images.tobytes() == whole.images[start:stop].tobytes()
            assert np.array_equal(part.labels, whole.labels[start:stop])
            assert part.class_names == whole.class_names
            assert part.native_size == size

    @pytest.mark.parametrize("start,stop", [(0, 0), (5, 5), (6, 5), (-1, 3), (0, 11)])
    def test_rejects_empty_or_outside_range(self, start, stop):
        with pytest.raises(ValueError, match="n_samples=10"):
            gen_shapes(0, 10, 4, 32, start=start, stop=stop)

    def test_peak_memory_independent_of_set_size(self):
        # 4 samples of a million-sample set: the other 999,996 are never drawn
        tracemalloc.start()
        try:
            ds = gen_shapes(3, 10**6, 6, 32, start=500_000, stop=500_004)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 4
        assert peak < 1 << 20


class TestSplit:
    def test_split_sizes_and_disjointness(self):
        ds = gen_shapes(0, 50, 5, 32)
        train, test = split_dataset(ds, 0.8, seed=1)
        assert len(train) == 40 and len(test) == 10
        assert sorted(np.concatenate([train.labels, test.labels]).tolist()) == \
            sorted(ds.labels.tolist())

    def test_split_deterministic(self):
        ds = gen_shapes(0, 50, 5, 32)
        a, _ = split_dataset(ds, 0.8, seed=9)
        b, _ = split_dataset(ds, 0.8, seed=9)
        assert np.array_equal(a.images, b.images)


class TestIdx:
    def test_fixture_roundtrip(self, tmp_path):
        # hand-built 2-image 4x4 file pair
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        pix = bytes(range(16)) + bytes(range(16, 32))
        images.write_bytes(b"\x00\x00\x08\x03" + (2).to_bytes(4, "big")
                           + (4).to_bytes(4, "big") + (4).to_bytes(4, "big") + pix)
        labels.write_bytes(b"\x00\x00\x08\x01" + (2).to_bytes(4, "big") + bytes([1, 0]))
        ds = load_idx(str(images), str(labels))
        assert ds.images.shape == (2, 1, 4, 4)
        assert ds.labels.tolist() == [1, 0]

    def test_pixel_255_maps_to_one(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + (1).to_bytes(4, "big")
                           + (1).to_bytes(4, "big") + (1).to_bytes(4, "big") + bytes([255]))
        labels.write_bytes(b"\x00\x00\x08\x01" + (1).to_bytes(4, "big") + bytes([0]))
        ds = load_idx(str(images), str(labels))
        assert ds.images[0, 0, 0, 0] == 1.0

    def test_bad_magic(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(b"\x00\x00\x09\x03" + bytes(12))
        labels.write_bytes(b"\x00\x00\x08\x01" + (0).to_bytes(4, "big"))
        with pytest.raises(IdxMagicError):
            load_idx(str(images), str(labels))

    def test_truncated_payload(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + (2).to_bytes(4, "big")
                           + (4).to_bytes(4, "big") + (4).to_bytes(4, "big") + bytes(10))
        labels.write_bytes(b"\x00\x00\x08\x01" + (2).to_bytes(4, "big") + bytes(2))
        with pytest.raises(IdxTruncatedError):
            load_idx(str(images), str(labels))

    def test_count_mismatch(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + (1).to_bytes(4, "big")
                           + (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes(4))
        labels.write_bytes(b"\x00\x00\x08\x01" + (2).to_bytes(4, "big") + bytes(2))
        with pytest.raises(IdxCountMismatchError):
            load_idx(str(images), str(labels))

    def test_roundtrip_lossless_at_u8(self, tmp_path):
        ds = gen_shapes(11, 20, 4, 32)
        save_idx(ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
        back = load_idx(str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
        quantized = np.rint(ds.images * 255.0) / 255.0
        assert np.max(np.abs(back.images - quantized)) < 1e-7
        assert np.array_equal(back.labels, ds.labels)
        # second write is byte-identical
        save_idx(back, str(tmp_path / "i2.idx"), str(tmp_path / "l2.idx"))
        assert (tmp_path / "i.idx").read_bytes() == (tmp_path / "i2.idx").read_bytes()


class TestMultiscale:
    def test_single_scale_equals_plain_batching(self):
        ds = gen_shapes(0, 20, 4, 32)
        batches = list(make_multiscale(ds, [32], 8, seed=5))
        assert [b.images[0].shape[0] for b in batches] == [8, 8, 4]
        recovered = np.concatenate([b.images[0] for b in batches])
        order = np.concatenate([b.labels for b in batches])
        assert sorted(order.tolist()) == sorted(ds.labels.tolist())

    def test_labels_object_shared_across_scales(self):
        ds = gen_shapes(0, 8, 4, 32)
        batch = next(iter(make_multiscale(ds, [16, 32], 8, seed=0)))
        assert len(batch.images) == 2
        assert batch.images[0].shape[2] == 16 and batch.images[1].shape[2] == 32
        assert batch.labels is batch.labels

    def test_elementwise_matches_single_resize(self):
        ds = gen_shapes(0, 10, 4, 32)
        batch = next(iter(make_multiscale(ds, [16, 32], 10, seed=3)))
        # recover the shuffled order via the native-size view
        native = batch.images[1]
        for row in range(3):
            matches = np.where([np.array_equal(native[row], img) for img in ds.images])[0]
            assert len(matches) == 1
            single = resize_images(ds.images[matches[0]:matches[0] + 1], 16, 16)
            assert np.max(np.abs(batch.images[0][row] - single[0])) < 1e-7

    def test_epoch_shuffle_is_permutation(self):
        ds = gen_shapes(0, 30, 5, 32)
        for seed in (1, 2):
            labels = np.concatenate([b.labels for b in make_multiscale(ds, [32], 7, seed)])
            assert sorted(labels.tolist()) == sorted(ds.labels.tolist())

    def test_resized_values_in_unit_interval(self):
        ds = gen_shapes(4, 12, 4, 32)
        for b in make_multiscale(ds, [16, 32, 64], 6, seed=0):
            for view in b.images:
                assert view.min() >= 0.0 and view.max() <= 1.0

    def test_prefetch_preserves_order(self, monkeypatch):
        ds = gen_shapes(0, 24, 4, 32)
        plain = [b.labels for b in make_multiscale(ds, [32], 5, seed=2)]
        monkeypatch.setenv("MSUN_THREADS", "2")
        threaded = [b.labels for b in prefetch_batches(make_multiscale(ds, [32], 5, seed=2))]
        assert all(np.array_equal(a, b) for a, b in zip(plain, threaded))
        assert len(plain) == len(threaded)


class TestPrefetchStops:
    """Threaded prefetch neither hangs on a failing producer nor on an early stop."""

    @staticmethod
    def _run_bounded(fn, seconds=5.0):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:
                box["error"] = exc

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(seconds)
        assert not t.is_alive(), "prefetch still blocked"
        return box

    def test_producer_error_reaches_consumer(self):
        def failing():
            yield 1
            yield 2
            raise RuntimeError("render failed")

        box = self._run_bounded(lambda: list(prefetch_batches(failing(), n_threads=2)))
        assert isinstance(box.get("error"), RuntimeError)
        assert "render failed" in str(box["error"])

    def test_early_stop_releases_producer(self):
        def endless():
            i = 0
            while True:
                yield i
                i += 1

        def take_three():
            it = prefetch_batches(endless(), n_threads=2, depth=2)
            got = [next(it) for _ in range(3)]
            it.close()
            return got

        threads_before = threading.active_count()
        box = self._run_bounded(take_three)
        assert box.get("value") == [0, 1, 2]
        assert threading.active_count() == threads_before   # producer joined


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3, 4, 4), np.float32), np.array([0, 5]), ["a", "b"], 4)

    def test_pixel_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.full((1, 3, 4, 4), 1.5, np.float32), np.array([0]), ["a"], 4)
