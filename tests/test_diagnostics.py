import json
import tracemalloc

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import data, diagnostics as dg, optim
from tsedarts import supernet as sn
from tsedarts.oracles import dense_dominant_eigenvalue
from tsedarts.space import ArchEncoding, discretize

from helpers import checksum


def quad_gradient(h):
    """The flat gradient of 0.5 * theta^T h theta, by one `grad` on Vars."""
    def gradient(theta):
        leaf = ad.param(theta.reshape(1, -1), name="theta")
        (g,) = ad.grad(ad.vsum((leaf @ ad.const(h)) * leaf) * ad.const(0.5), [leaf])
        return g.value.ravel()
    return gradient


def var_alpha_gradient(net, batch, theta):
    """The flat alpha-gradient on `batch` at `theta`, on Vars: a fresh
    probe leaf, one forward and one `grad`."""
    leaf = ad.param(theta.reshape(net.alpha.shape), name="alpha_probe")
    (g,) = ad.grad(net.loss(net.forward(batch[0], alpha=leaf), batch[1]), [leaf])
    return g.value.ravel()


def make_net(seed=0, layers=1, width=3):
    cfg = sn.SupernetConfig(layers=layers, width=width, preset="s2-like",
                            classes=2, in_shape=(4,), seed=seed)
    return sn.Supernet(cfg)


class TestDominantEigenvalue:
    def test_known_diagonal_spectrum(self):
        h = np.diag([5.0, 2.0, 1.0])
        est = dg.dominant_eigenvalue(quad_gradient(h), np.zeros(3))
        assert est == pytest.approx(5.0, abs=1e-3)

    def test_constant_loss_zero_hessian_flag(self):
        def gradient(theta):
            leaf = ad.param(theta, name="theta")
            (g,) = ad.grad(ad.const(2.5) + ad.const(0.0) * ad.vsum(leaf), [leaf])
            return g.value.ravel()
        assert dg.dominant_eigenvalue(gradient, np.zeros(4)) == 0.0

    def test_negative_dominant_eigenvalue_found(self):
        h = np.diag([3.0, -7.0, 1.0])
        est = dg.dominant_eigenvalue(quad_gradient(h), np.zeros(3))
        assert est == pytest.approx(-7.0, abs=1e-3)

    def test_one_hvp_per_alpha_entry(self, monkeypatch, tmp_path):
        # each finite-difference HVP is two backward sweeps; the columns may
        # run in forked children, so each sweep is counted in a shared file
        calls = tmp_path / "sweeps"
        backward = ad.backward

        def counted(*args, **kwargs):
            with open(calls, "a") as f:
                f.write(".")
            return backward(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", counted)
        for n in (2, 5):
            calls.write_text("")
            dg.dominant_eigenvalue(quad_gradient(np.diag(np.arange(1.0, n + 1))),
                                   np.zeros(n))
            assert len(calls.read_text()) == 2 * n

    def test_alpha_gradient_on_supernet(self):
        net = make_net()
        rng = np.random.default_rng(1)
        batch = (rng.standard_normal((8, 4)), rng.integers(0, 2, size=8))
        gradient = dg.alpha_gradient(net, batch)
        assert np.isfinite(dg.dominant_eigenvalue(gradient, net.alpha.value))

    @pytest.mark.parametrize("preset, in_shape", [("s2-like", (16,)),
                                                  ("nb201-like", (1, 8, 8))])
    def test_alpha_gradient_equals_grad_on_vars(self, preset, in_shape, monkeypatch):
        # one recording, then replays at other alphas, each bit for bit
        # the gradient of a fresh loss on Vars
        net = sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset=preset, classes=4,
                                            in_shape=in_shape, seed=0))
        rng = np.random.default_rng(2)
        batch = (rng.standard_normal((32,) + in_shape), rng.integers(0, 4, size=32))
        records, record = [], ad.record
        monkeypatch.setattr(ad, "record", lambda *args: records.append(1) or record(*args))
        gradient = dg.alpha_gradient(net, batch)
        for scale in (0.0, 0.3, 1.0, 3.0):
            theta = scale * rng.standard_normal(net.alpha.value.size)
            got = gradient(theta)
            assert got.shape == theta.shape
            assert got.tobytes() == var_alpha_gradient(net, batch, theta).tobytes()
        assert records == [1]

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite value in stem/W"),
        (1e308, "non-finite value from floating-point overflow")])
    def test_alpha_gradient_fault_as_var_path(self, value, message):
        # a replayed probe meets a NaN or overflowing weight as the Var path does
        net = make_net()
        rng = np.random.default_rng(3)
        batch = (rng.standard_normal((8, 4)), rng.integers(0, 2, size=8))
        gradient = dg.alpha_gradient(net, batch)
        theta = np.zeros(net.alpha.value.size)
        gradient(theta)
        net.params["stem/W"].value = np.full_like(net.params["stem/W"].value, value)
        with pytest.raises(ad.NonFiniteError) as var_path:
            var_alpha_gradient(net, batch, theta)
        with pytest.raises(ad.NonFiniteError) as replayed:
            gradient(theta)
        assert str(replayed.value) == str(var_path.value) == message

    @pytest.mark.parametrize("preset,seed", [("s2-like", 0), ("s2-like", 1),
                                             ("s2-like", 2), ("s2-like", 3),
                                             ("nb201-like", 0)])
    def test_record_epoch_matches_dense_oracle(self, preset, seed):
        # trained 2-layer supernets, whose alpha-curvature is small (0.04-0.2)
        ds = data.synth_blobs(4, 8, 512, 0.3, seed)
        net = sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset=preset,
                                            classes=4, in_shape=(8,), seed=seed))
        stream = data.batch_stream(ds, 32, seed=seed + 4)
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=3e-3))
        for _ in range(2):
            window = optim.make_window(net, [next(stream) for _ in range(8)])
            optim.tse_darts_round(net, window, optim.SGDConfig(lr=0.05), arch)
        xb, yb = ds.features[:128], ds.labels[:128]
        trace = dg.record_epoch(dg.SearchTrace(), net, 0, tse=None, train_loss=0.0,
                                eigen_batches={"train": (xb, yb)})

        def f(theta):
            alpha = theta.reshape(net.alpha.shape)
            return float(net.loss(net.forward(xb, alpha=alpha), yb).value)

        want = dense_dominant_eigenvalue(f, net.alpha.value.ravel())
        assert net.alpha.value.size == (12 if preset == "s2-like" else 24)
        assert abs(trace.records[0]["eig_train"] - want) <= 1e-3 * abs(want)


class TestValAccuracy:
    def test_random_logits_near_half(self):
        # untrained tiny net on balanced 2-class data: binomial bound around 0.5
        net = make_net(seed=2)
        ds = data.synth_blobs(2, 4, 400, 5.0, seed=3)
        acc = dg.val_accuracy(net, net.alpha.value, ds)
        assert 0.5 - 4 * 0.025 <= acc <= 0.5 + 4 * 0.025

    def test_perfect_case(self):
        # train a net to label a trivially separable 1-sample-per-class set
        ds = data.synth_blobs(2, 4, 40, 0.0, seed=4)
        net = make_net(seed=5)
        sgd = optim.SGDConfig(lr=0.5)
        for _ in range(200):
            _, grads = optim.loss_and_grads(net, (ds.features, ds.labels),
                                            net.weight_vars())
            optim.sgd_step(net.params, grads, sgd)
        assert dg.val_accuracy(net, net.alpha.value, ds) == 1.0

    def test_single_sample_boundary(self):
        ds = data.synth_blobs(2, 4, 40, 0.0, seed=6)
        net = make_net(seed=7)
        one = ds.subset(np.array([0]))
        acc = dg.val_accuracy(net, net.alpha.value, one)
        assert acc in (0.0, 1.0)

    def test_no_lone_sample_chunk(self):
        # batch-normalised ops zero a batch of one sample, so a set one
        # sample longer than a chunk (256) must not leave a trailing chunk
        # of one
        net = make_net(seed=9)
        ds = data.synth_blobs(2, 4, 257, 0.5, seed=10)
        sizes = []
        forward = net.forward

        def spy(xb, **kw):
            sizes.append(len(xb))
            return forward(xb, **kw)

        net.forward = spy
        acc = dg.val_accuracy(net, net.alpha.value, ds)
        assert sorted(sizes) == [128, 129]
        assert 0.0 <= acc <= 1.0

    def test_empty_rejected(self):
        net = make_net()
        with pytest.raises(dg.DiagnosticsError):
            dg.val_accuracy(net, net.alpha.value, None)

    def test_genotype_argument(self):
        net = make_net()
        ds = data.synth_blobs(2, 4, 20, 0.5, seed=8)
        g = discretize(ArchEncoding(net.alpha.value), net.topology, net.ops)
        acc = dg.val_accuracy(net, g, ds)
        assert 0.0 <= acc <= 1.0

    def test_genotype_forward_values_only_bit_identical(self):
        net = make_net(layers=3)
        net.alpha.value = np.random.default_rng(11).standard_normal(net.alpha.shape)
        x = data.synth_blobs(2, 4, 20, 0.5, seed=12).features
        g = discretize(ArchEncoding(net.alpha.value), net.topology, net.ops)
        recorded = net.discrete_forward(x, g)
        with ad.no_record():
            values_only = net.discrete_forward(x, g)
        assert recorded.parents != () and values_only.parents == ()
        assert np.array_equal(values_only.value, recorded.value)

    def test_records_no_graph_memory(self):
        # the recorded forward holds every intermediate array of the chunk
        # at once; the values-only one frees each when it is no longer used
        net = sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset="nb201-like",
                                            classes=4, in_shape=(1, 8, 8), seed=0))
        rng = np.random.default_rng(13)
        ds = data.Dataset(rng.standard_normal((64, 1, 8, 8)),
                          rng.integers(0, 4, size=64), 4)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recorded = peak(lambda: net.forward(ds.features))
        values_only = peak(lambda: dg.val_accuracy(net, net.alpha.value, ds))
        assert 4 * values_only <= recorded


class TestSearchTrace:
    def _record(self, net, epoch, **kw):
        trace = kw.pop("trace", dg.SearchTrace())
        return dg.record_epoch(trace, net, epoch, tse=1.5, train_loss=0.7, **kw)

    def test_epoch_zero_uniform_alpha_tie_rule(self):
        net = make_net()
        trace = self._record(net, 0)
        rec = trace.records[0]
        # uniform alpha: every edge ties, argmax picks op index 0 (Skip)
        assert rec["skip_count"] == 6
        assert rec["depth"] == 3

    def test_unchanged_alpha_identical_records(self):
        net = make_net()
        trace = dg.SearchTrace()
        dg.record_epoch(trace, net, 0, tse=1.0, train_loss=0.5)
        dg.record_epoch(trace, net, 1, tse=0.9, train_loss=0.4)
        a, b = trace.records
        assert a["genotype"] == b["genotype"]
        assert (a["skip_count"], a["depth"]) == (b["skip_count"], b["depth"])

    def test_read_only_with_respect_to_net(self):
        net = make_net()
        rng = np.random.default_rng(9)
        batch = (rng.standard_normal((8, 4)), rng.integers(0, 2, size=8))
        ds = data.synth_blobs(2, 4, 30, 0.3, seed=10)
        before = (checksum(net), net.alpha.value.tobytes())
        self._record(net, 0, val_ds=ds, eigen_batches={"train": batch})
        assert (checksum(net), net.alpha.value.tobytes()) == before

    def test_fields_match_recomputation(self):
        net = make_net(seed=11)
        net.alpha.value = np.random.default_rng(12).standard_normal((6, 2))
        ds = data.synth_blobs(2, 4, 50, 0.3, seed=13)
        trace = self._record(net, 3, val_ds=ds)
        rec = trace.records[0]
        from tsedarts.space import cell_depth, skip_count
        g = discretize(ArchEncoding(net.alpha.value), net.topology, net.ops)
        assert rec["genotype"] == json.loads(g.to_json())
        assert rec["skip_count"] == skip_count(g)
        assert rec["depth"] == cell_depth(g, net.topology)
        assert rec["val_acc"] == dg.val_accuracy(net, net.alpha.value, ds)

    def test_epochs_strictly_increasing(self):
        net = make_net()
        trace = self._record(net, 2)
        with pytest.raises(dg.DiagnosticsError):
            self._record(net, 2, trace=trace)

    def test_unknown_eigen_source_rejected(self):
        net = make_net()
        batch = (np.zeros((2, 4)), np.zeros(2, dtype=int))
        with pytest.raises(dg.DiagnosticsError):
            self._record(net, 0, eigen_batches={"test": batch})

    def test_csv_columns_exact(self, tmp_path):
        net = make_net()
        trace = self._record(net, 0)
        path = tmp_path / "metrics.csv"
        trace.write_csv(str(path))
        header = path.read_text().splitlines()[0]
        assert header == "epoch,tse,train_loss,val_acc,skip_count,depth,eig_val,eig_train"
