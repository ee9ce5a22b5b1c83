import numpy as np
import pytest

from tsedarts import data


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_rejects_count_mismatch(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 2)


class TestSynthBlobs:
    def test_deterministic_bytes(self):
        a = data.synth_blobs(4, 16, 100, 0.3, seed=7)
        b = data.synth_blobs(4, 16, 100, 0.3, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        a = data.synth_blobs(4, 16, 100, 0.3, seed=7)
        b = data.synth_blobs(4, 16, 100, 0.3, seed=8)
        assert a.features.tobytes() != b.features.tobytes()

    def test_balanced_labels(self):
        ds = data.synth_blobs(3, 4, 10, 0.1, seed=0)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_noise_zero_linearly_separable(self):
        # with zero noise, least-squares one-vs-all classification is perfect
        ds = data.synth_blobs(4, 8, 200, 0.0, seed=1)
        onehot = np.eye(4)[ds.labels]
        x = np.hstack([ds.features, np.ones((len(ds), 1))])
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        acc = float(((x @ w).argmax(axis=1) == ds.labels).mean())
        assert acc == 1.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(data.DataError):
            data.synth_blobs(1, 4, 10, 0.1, seed=0)
        with pytest.raises(data.DataError):
            data.synth_blobs(4, 4, 3, 0.1, seed=0)


class TestIdx:
    def _fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(4, 5, 5)).astype(np.uint8)
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        ip = tmp_path / "imgs.idx"
        lp = tmp_path / "lbls.idx"
        ip.write_bytes(data.encode_idx_images(images))
        lp.write_bytes(data.encode_idx_labels(labels))
        return ip, lp, images, labels

    def test_decode_matches_fixture(self, tmp_path):
        ip, lp, images, labels = self._fixture(tmp_path)
        ds = data.load_idx(str(ip), str(lp))
        assert ds.features.shape == (4, 1, 5, 5)
        assert np.array_equal(ds.labels, labels)
        assert np.max(np.abs(ds.features[2, 0] - images[2] / 255.0)) == 0.0
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_round_trip_bytes(self, tmp_path):
        ip, lp, images, labels = self._fixture(tmp_path)
        ds = data.load_idx(str(ip), str(lp))
        re_imgs = (ds.features[:, 0] * 255.0).round().astype(np.uint8)
        assert data.encode_idx_images(re_imgs) == ip.read_bytes()
        assert data.encode_idx_labels(ds.labels) == lp.read_bytes()

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp, images, labels = self._fixture(tmp_path)
        lp.write_bytes(data.encode_idx_labels(labels[:3]))
        with pytest.raises(data.DataError, match="mismatch"):
            data.load_idx(str(ip), str(lp))

    def test_bad_magic_names_file(self, tmp_path):
        ip, lp, *_ = self._fixture(tmp_path)
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 8)
        with pytest.raises(data.DataError, match="bad.idx"):
            data.load_idx(str(bad), str(lp))

    def test_truncated_body_rejected(self, tmp_path):
        ip, lp, images, _ = self._fixture(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-3])
        with pytest.raises(data.DataError):
            data.load_idx(str(ip), str(lp))


class TestSplit:
    def test_half_half_disjoint(self):
        ds = data.synth_blobs(4, 4, 100, 0.1, seed=0)
        tr, va = data.split(ds, data.SplitSpec(0.5, 0.5, seed=3))
        assert len(tr) == 50 and len(va) == 50
        # disjointness: every original row appears exactly once across parts
        allrows = np.vstack([tr.features, va.features])
        orig = ds.features[np.lexsort(ds.features.T)]
        got = allrows[np.lexsort(allrows.T)]
        assert np.array_equal(orig, got)

    def test_deterministic(self):
        ds = data.synth_blobs(4, 4, 60, 0.1, seed=0)
        s = data.SplitSpec(0.7, 0.3, seed=9)
        tr1, va1 = data.split(ds, s)
        tr2, va2 = data.split(ds, s)
        assert tr1.features.tobytes() == tr2.features.tobytes()
        assert va1.features.tobytes() == va2.features.tobytes()

    def test_full_train_no_val(self):
        ds = data.synth_blobs(4, 4, 60, 0.1, seed=0)
        tr, va = data.split(ds, data.SplitSpec(1.0, 0.0, seed=0))
        assert len(tr) == 60
        assert va is None

    def test_val_fraction_without_a_sample_rejected(self):
        ds = data.synth_blobs(4, 4, 60, 0.1, seed=0)   # 0.005 * 60 rounds to 0
        with pytest.raises(data.DataError):
            data.split(ds, data.SplitSpec(0.99, 0.005))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(data.DataError):
            data.SplitSpec(0.0, 0.5)
        with pytest.raises(data.DataError):
            data.SplitSpec(0.7, 0.4)


class TestBatches:
    def test_single_full_batch_identity_content(self):
        ds = data.synth_blobs(4, 4, 20, 0.1, seed=0)
        (xb, yb), = data.batches(ds, 20, seed=1, epoch=0)
        rows = xb[np.lexsort(xb.T)]
        orig = ds.features[np.lexsort(ds.features.T)]
        assert np.array_equal(rows, orig)

    def test_last_short_batch_kept(self):
        ds = data.synth_blobs(2, 4, 10, 0.1, seed=0)
        sizes = [len(y) for _, y in data.batches(ds, 3)]
        assert sizes == [3, 3, 3, 1]

    def test_replay_contract(self):
        ds = data.synth_blobs(4, 4, 32, 0.1, seed=0)
        a = data.batches(ds, 8, seed=5, epoch=2)
        b = data.batches(ds, 8, seed=5, epoch=2)
        assert all(x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
                   for (x1, y1), (x2, y2) in zip(a, b))

    def test_epochs_reshuffle(self):
        ds = data.synth_blobs(4, 4, 32, 0.1, seed=0)
        a = data.batches(ds, 32, seed=5, epoch=0)[0][0]
        b = data.batches(ds, 32, seed=5, epoch=1)[0][0]
        assert a.tobytes() != b.tobytes()

    def test_invalid_batch_size(self):
        ds = data.synth_blobs(4, 4, 8, 0.1, seed=0)
        with pytest.raises(data.DataError):
            data.batches(ds, 0)
        with pytest.raises(data.DataError):
            data.batches(ds, 9)

    def test_stream_cycles_epochs(self):
        ds = data.synth_blobs(4, 4, 8, 0.1, seed=0)
        stream = data.batch_stream(ds, 8, seed=3)
        first = next(stream)[0]
        second = next(stream)[0]
        ref0 = data.batches(ds, 8, seed=3, epoch=0)[0][0]
        ref1 = data.batches(ds, 8, seed=3, epoch=1)[0][0]
        assert first.tobytes() == ref0.tobytes()
        assert second.tobytes() == ref1.tobytes()
