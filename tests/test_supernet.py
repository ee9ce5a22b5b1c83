import json
import warnings

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import data, optim
from tsedarts import supernet as sn
from tsedarts.oracles import fd_gradient
from tsedarts.space import (AVGPOOL, LINEAR, SKIP, ZERO, ArchEncoding, CellTopology,
                            Genotype, OperationKind, discretize, make_space)

from helpers import checksum


def passthrough_net(ops, width=5, layers=1, seed=0, **kw):
    """Single-edge cell (0 -> 1) so node arithmetic is hand-checkable."""
    topo = CellTopology(2, ((0, 1),))
    cfg = sn.SupernetConfig(layers=layers, width=width, preset="custom",
                            classes=3, in_shape=(4,), seed=seed, **kw)
    return sn.Supernet(cfg, topology=topo, ops=tuple(OperationKind(t) for t in ops))


def make_net(seed=0, layers=1, width=4, preset="s2-like", **kw):
    cfg = sn.SupernetConfig(layers=layers, width=width, preset=preset,
                            classes=4, in_shape=(16,), seed=seed, **kw)
    return sn.Supernet(cfg)


class TestBuild:
    def test_parameter_count_hand_computed(self):
        net = make_net(layers=1, width=4)
        # stem 16*4+4, six edges of (4*4+4), head 4*4+4
        assert net.n_parameters() == 68 + 6 * 20 + 20

    def test_same_seed_bit_identical(self):
        a, b = make_net(seed=5), make_net(seed=5)
        assert checksum(a) == checksum(b)

    def test_different_seed_differs(self):
        assert checksum(make_net(seed=5)) != checksum(make_net(seed=6))

    def test_invalid_configs_rejected(self):
        with pytest.raises(sn.SupernetError):
            sn.SupernetConfig(layers=0, width=4)
        with pytest.raises(sn.SupernetError):
            sn.SupernetConfig(layers=1, width=0)
        with pytest.raises(sn.SupernetError):
            sn.SupernetConfig(layers=1, width=4, classes=1)
        with pytest.raises(sn.SupernetError):
            sn.SupernetConfig(layers=1, width=4, aggregation="max")

    def test_vector_image_op_mismatch_rejected(self):
        cfg = sn.SupernetConfig(layers=1, width=4, preset="custom",
                                classes=4, in_shape=(16,))
        topo = CellTopology(2, ((0, 1),))
        with pytest.raises(sn.SupernetError):
            sn.Supernet(cfg, topology=topo,
                        ops=(OperationKind("ParamConv3x3"),))


class TestForward:
    def test_identity_path_limit(self):
        # saturated Skip on a passthrough cell: logits == head(stem(x))
        net = passthrough_net([ZERO, SKIP, LINEAR])
        net.alpha.value = np.array([[-40.0, 40.0, -40.0]])
        x = np.random.default_rng(0).standard_normal((3, 4))
        got = net.forward(x).value
        stem = np.tanh(x @ net.params["stem/W"].value + net.params["stem/b"].value)
        want = stem @ net.params["head/W"].value + net.params["head/b"].value
        assert np.max(np.abs(got - want)) < 1e-9

    def test_uniform_zero_skip_halves_input(self):
        # uniform alpha over {Zero, Skip}: node output is 0.5 * input
        net = passthrough_net([ZERO, SKIP])
        net.alpha.value = np.zeros((1, 2))
        x = np.random.default_rng(1).standard_normal((3, 4))
        got = net.forward(x).value
        stem = np.tanh(x @ net.params["stem/W"].value + net.params["stem/b"].value)
        want = (0.5 * stem) @ net.params["head/W"].value + net.params["head/b"].value
        assert np.max(np.abs(got - want)) < 1e-12

    def test_linear_in_mixture_weights(self):
        # with {Zero, Skip}, output is linear in the Skip mixture weight
        net = passthrough_net([ZERO, SKIP])
        x = np.random.default_rng(2).standard_normal((3, 4))

        def out(m_skip):
            net.alpha.value = np.array([[np.log(1 - m_skip), np.log(m_skip)]])
            return net.forward(x).value

        lo, hi, mid = out(0.2), out(0.8), out(0.5)
        assert np.max(np.abs(mid - 0.5 * (lo + hi))) < 1e-9

    def test_pure_function_of_alpha(self):
        net = make_net()
        x = np.random.default_rng(3).standard_normal((4, 16))
        a1 = np.zeros((6, 2))
        a2 = np.random.default_rng(4).standard_normal((6, 2))
        before = checksum(net)
        o1 = net.forward(x, alpha=a1).value.copy()
        o2 = net.forward(x, alpha=a2).value.copy()
        o1_again = net.forward(x, alpha=a1).value
        assert checksum(net) == before          # alpha never touches w
        assert np.array_equal(o1, o1_again)      # order-independent
        assert not np.array_equal(o1, o2)

    def test_alpha_gradient_flows(self):
        net = make_net()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 16))
        y = rng.integers(0, 4, size=6)
        loss = net.loss(net.forward(x), y)
        (ga,) = ad.grad(loss, [net.alpha])
        assert np.linalg.norm(ga.value) > 0

    def test_batch_shape_checked(self):
        net = make_net()
        with pytest.raises(sn.SupernetError):
            net.forward(np.zeros((2, 7)))

    def test_overflow_raises_without_warning(self):
        net = make_net()
        # finite pre-activations of ~1e300, whose batch variance overflows
        w = net.params["cell0/e0-1/linear/W"]
        w.value = np.full_like(w.value, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError, match="floating-point overflow"):
                net.forward(np.random.default_rng(0).standard_normal((6, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["stem/W", "head/b"])
    def test_weight_written_after_construction_rejected(self, name, bad):
        net = make_net()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 16))
        loss = net.loss(net.forward(x), rng.integers(0, 4, size=6))
        net.params[name].value = np.full_like(net.params[name].value, bad)
        with pytest.raises(ad.NonFiniteError, match=name):
            net.forward(x)
        with pytest.raises(ad.NonFiniteError, match=name):
            ad.grad(loss, net.weight_vars())

    def test_alpha_softmax_overflow_raises_without_warning(self):
        net = make_net()
        net.alpha.value[0, :2] = [1e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError, match="floating-point overflow"):
                net.forward(np.zeros((2, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_alpha_named(self, bad):
        net = make_net()
        net.alpha.value[1, 1] = bad
        with pytest.raises(ad.NonFiniteError, match="in alpha"):
            net.forward(np.zeros((2, 16)))

    def test_alpha_shape_checked(self):
        net = make_net()
        with pytest.raises(sn.SupernetError):
            net.forward(np.zeros((2, 16)), alpha=np.zeros((6, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_signal_survives_deep_mean_stack(self, seed):
        # the frozen criterion-8 supernet at initialisation: the 8th cell
        # must still pass on a batch-varying signal, or the head sees a
        # constant and nothing trains
        net = make_net(seed=seed, layers=8, width=8)
        ds = data.synth_blobs(4, 16, 2048, 0.3, seed)
        params = net.params
        x = net._stem(ds.features[:32], params)
        stem_std = np.std(x.value, axis=0).mean()
        terms = net._mixed_terms(net.alpha)
        for layer in range(8):
            x = net._cell(x, layer, params, terms)
        assert np.std(x.value, axis=0).mean() >= 0.1 * stem_std

    def test_aggregation_modes_differ(self):
        x = np.random.default_rng(6).standard_normal((3, 16))
        a = np.random.default_rng(7).standard_normal((6, 2))
        o_sum = make_net(aggregation="sum").forward(x, alpha=a).value
        o_mean = make_net(aggregation="mean").forward(x, alpha=a).value
        assert not np.allclose(o_sum, o_mean)


class TestLoss:
    def test_uniform_logits_ln_k(self):
        net = make_net()
        loss = net.loss(ad.const(np.zeros((5, 4))), np.zeros(5, dtype=int))
        assert float(loss.value) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_perfect_prediction_limit(self):
        net = make_net()
        logits = np.full((3, 4), -50.0)
        logits[np.arange(3), [0, 1, 2]] = 50.0
        loss = net.loss(ad.const(logits), np.array([0, 1, 2]))
        assert float(loss.value) < 1e-12

    def test_matches_scalar_reimplementation(self):
        net = make_net()
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, size=6)
        got = float(net.loss(ad.const(logits), y).value)
        # straight-line scalar reimplementation
        want = 0.0
        for row, label in zip(logits, y):
            want += -row[label] + np.log(np.sum(np.exp(row)))
        want /= len(y)
        assert got == pytest.approx(want, abs=1e-12)


class TestDiscreteForward:
    # the nb201-like genotype drawn here has Zero, Skip and AvgPool edges
    @pytest.mark.parametrize("preset", ["s2-like", "nb201-like"])
    def test_matches_saturated_softmax(self, preset):
        net = make_net(layers=2, preset=preset)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 16))
        table = rng.standard_normal(net.alpha.shape)
        genotype = discretize(ArchEncoding(table), net.topology, net.ops)
        hot = np.where(table == table.max(axis=1, keepdims=True), 60.0, -60.0)
        mixed = net.forward(x, alpha=hot).value
        disc = net.discrete_forward(x, genotype).value
        assert np.max(np.abs(mixed - disc)) < 1e-6

    def test_all_zero_genotype_classifies_zero_features(self):
        net = passthrough_net([ZERO, SKIP])
        g = Genotype(((0, 1),), (OperationKind(ZERO),))
        x = np.random.default_rng(10).standard_normal((3, 4))
        got = net.discrete_forward(x, g).value
        want = np.zeros((3, 5)) @ net.params["head/W"].value + net.params["head/b"].value
        assert np.max(np.abs(got - want)) < 1e-12

    def test_all_skip_matches_manual_composition(self):
        net = make_net(layers=2)
        edges = net.topology.edges
        g = Genotype(edges, tuple(OperationKind(SKIP) for _ in edges))
        x = np.random.default_rng(11).standard_normal((3, 16))
        got = net.discrete_forward(x, g).value
        # manual: per cell, node j = mean of node i over incoming edges
        h = np.tanh(x @ net.params["stem/W"].value + net.params["stem/b"].value)
        for _ in range(2):
            nodes = {0: h}
            for j in range(1, 4):
                nodes[j] = sum(nodes[i] for i in range(j)) / j
            h = nodes[3]
        want = h @ net.params["head/W"].value + net.params["head/b"].value
        assert np.max(np.abs(got - want)) < 1e-9

    def test_genotype_topology_mismatch_rejected(self):
        net = make_net()
        g = Genotype(((0, 1),), (OperationKind(SKIP),))
        with pytest.raises(sn.SupernetError):
            net.discrete_forward(np.zeros((1, 16)), g)

    # AvgPool would run on the s2-like net; ParamLinear on the image net
    # would look up weights that were never made
    @pytest.mark.parametrize("preset, in_shape, tag", [
        ("s2-like", (16,), AVGPOOL),
        ("nb201-like", (1, 5, 5), LINEAR),
    ], ids=["s2-like-AvgPool", "nb201-like-ParamLinear"])
    def test_genotype_op_outside_candidates_rejected(self, preset, in_shape, tag):
        cfg = sn.SupernetConfig(layers=1, width=3, preset=preset, classes=3,
                                in_shape=in_shape, seed=0)
        net = sn.Supernet(cfg)
        edges = net.topology.edges
        g = Genotype(edges, tuple(OperationKind(tag) for _ in edges))
        with pytest.raises(sn.SupernetError, match=rf"edge \(0, 1\): {tag}"):
            net.discrete_forward(np.zeros((2,) + in_shape), g)

    def test_genotype_with_fewer_ops_than_edges_rejected(self):
        net = make_net()
        g = Genotype(net.topology.edges, (OperationKind(SKIP),))
        with pytest.raises(sn.SupernetError, match="1 ops for 6 edges"):
            net.discrete_forward(np.zeros((2, 16)), g)


class TestStateManagement:
    def test_snapshot_restore_checksum(self):
        net = make_net()
        snap = net.snapshot()
        before = checksum(net)
        for p in net.params.values():
            p.value = p.value + 1.0
        assert checksum(net) != before
        net.restore(snap)
        assert checksum(net) == before

    def test_checkpoint_round_trip(self, tmp_path):
        net = make_net(seed=13)
        net.alpha.value = np.random.default_rng(14).standard_normal((6, 2))
        sn.save_checkpoint(net, str(tmp_path))
        other = make_net(seed=99)
        sn.load_checkpoint(other, str(tmp_path))
        assert checksum(other) == checksum(net)
        assert np.array_equal(other.alpha.value, net.alpha.value)

    def test_checkpoint_size_mismatch_rejected(self, tmp_path):
        net = make_net()
        sn.save_checkpoint(net, str(tmp_path))
        blob = tmp_path / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(sn.SupernetError):
            sn.load_checkpoint(net, str(tmp_path))

    @pytest.mark.parametrize("saved, loaded", [
        (dict(width=4), dict(width=8)),
        (dict(layers=1), dict(layers=2)),
        (dict(layers=2), dict(layers=1)),
    ], ids=["narrower", "shallower", "deeper"])
    def test_checkpoint_of_another_net_rejected(self, tmp_path, saved, loaded):
        sn.save_checkpoint(make_net(seed=1, **saved), str(tmp_path))
        net = make_net(seed=2, **loaded)
        before, alpha = checksum(net), net.alpha.value.copy()
        with pytest.raises(sn.SupernetError):
            sn.load_checkpoint(net, str(tmp_path))
        assert checksum(net) == before
        assert np.array_equal(net.alpha.value, alpha)

    # head/b follows the stem and every cell weight in the manifest, so
    # the net must be checked whole before anything is assigned
    @pytest.mark.parametrize("offset", ["total", -1, 1.5, True],
                             ids=["past-end", "negative", "float", "bool"])
    def test_checkpoint_offset_outside_blob_rejected(self, tmp_path, offset):
        sn.save_checkpoint(make_net(seed=1), str(tmp_path))
        manifest_path = tmp_path / "params.json"
        manifest = json.loads(manifest_path.read_text())
        entry = [e for e in manifest["params"] if e["name"] == "head/b"][0]
        entry["offset"] = manifest["total"] if offset == "total" else offset
        manifest_path.write_text(json.dumps(manifest))
        net = make_net(seed=2)
        before, alpha = checksum(net), net.alpha.value.copy()
        with pytest.raises(sn.SupernetError, match="head/b"):
            sn.load_checkpoint(net, str(tmp_path))
        assert checksum(net) == before
        assert np.array_equal(net.alpha.value, alpha)


class TestImageNets:
    def _net(self):
        cfg = sn.SupernetConfig(layers=1, width=3, preset="s2-like",
                                classes=3, in_shape=(1, 5, 5), seed=0)
        return sn.Supernet(cfg)

    def test_forward_shape(self):
        net = self._net()
        x = np.random.default_rng(15).standard_normal((2, 1, 5, 5))
        assert net.forward(x).value.shape == (2, 3)

    def test_conv_gradients_flow(self):
        net = self._net()
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 1, 5, 5))
        y = rng.integers(0, 3, size=2)
        _, grads = optim.loss_and_grads(net, (x, y), net.weight_vars() + [net.alpha])
        conv_w = [k for k in net.params if "conv" in k][0]
        assert np.linalg.norm(grads[conv_w]) > 0

    def test_training_loss_graph_holds_no_patch_rows(self):
        # each convolution is one node that rebuilds its patch rows
        # (n*h*w, 9c) in its rule instead of keeping them in the graph
        net = sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset="nb201-like",
                                            classes=4, in_shape=(1, 8, 8), seed=0))
        rng = np.random.default_rng(23)
        loss = net.loss(net.forward(rng.standard_normal((6, 1, 8, 8))),
                        rng.integers(0, 4, size=6))
        shapes = {node.shape for node in ad.tape(loss).nodes}
        assert (6 * 8 * 8, 4) in shapes      # the convolutions' outputs
        assert not shapes & {(6 * 8 * 8, 9 * c) for c in (1, 4)}


class TestImageNetGradients:
    """Engine gradients of an nb201-like image net (conv and AvgPool
    edges) against finite differences of its loss and its gradients."""

    CONV = "cell0/e0-1/conv/W"

    def _setup(self):
        cfg = sn.SupernetConfig(layers=1, width=2, preset="nb201-like", classes=3,
                                in_shape=(1, 5, 5), seed=0)
        net = sn.Supernet(cfg)
        rng = np.random.default_rng(19)
        net.alpha.value = 0.3 * rng.standard_normal(net.alpha.shape)
        x = rng.standard_normal((6, 1, 5, 5))
        y = rng.integers(0, 3, size=6)
        return net, x, y

    def _grads_at(self, net, x, y, wrt, values, create_graph=False):
        for var, value in zip(wrt, values):
            var.value = value
        return ad.grad(net.loss(net.forward(x), y), wrt, create_graph=create_graph)

    @pytest.mark.parametrize("name", ["alpha", CONV])
    def test_gradient_matches_fd(self, name):
        net, x, y = self._setup()
        var = net.alpha if name == "alpha" else net.params[name]
        theta = var.value.copy()

        def loss_at(flat):
            var.value = flat.reshape(theta.shape)
            with ad.no_record():
                return float(net.loss(net.forward(x), y).value)

        fd = fd_gradient(loss_at, theta.ravel()).reshape(theta.shape)
        (g,) = self._grads_at(net, x, y, [var], [theta])
        assert np.max(np.abs(g.value - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_double_backward_hvp_matches_fd_of_gradients(self):
        net, x, y = self._setup()
        wrt = [net.alpha, net.params[self.CONV]]
        theta = [v.value.copy() for v in wrt]
        rng = np.random.default_rng(20)
        direction = [rng.standard_normal(t.shape) for t in theta]
        grads = self._grads_at(net, x, y, wrt, theta, create_graph=True)
        dot = ad.vsum(grads[0] * ad.const(direction[0]))
        dot = dot + ad.vsum(grads[1] * ad.const(direction[1]))
        hv = [h.value for h in ad.grad(dot, wrt)]
        eps = 1e-5
        up, dn = ([g.value for g in self._grads_at(
            net, x, y, wrt, [t + sign * eps * d for t, d in zip(theta, direction)])]
            for sign in (1.0, -1.0))
        for got, u, d in zip(hv, up, dn):
            ref = (u - d) / (2 * eps)
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-6
