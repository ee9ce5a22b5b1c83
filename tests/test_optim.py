import gc
import weakref

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import optim, oracles
from tsedarts import supernet as sn
from tsedarts.oracles import fd_gradient, replay_final_loss, replay_tse
from tsedarts.space import CellTopology, OperationKind


def tiny_net(seed=0, width=3, layers=1):
    cfg = sn.SupernetConfig(layers=layers, width=width, preset="s2-like",
                            classes=2, in_shape=(4,), seed=seed)
    return sn.Supernet(cfg)


def tiny_batches(seed, count, batch=6, dim=4, classes=2):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((batch, dim)),
             rng.integers(0, classes, size=batch)) for _ in range(count)]


class TestSgdStep:
    def test_zero_lr_no_change(self):
        net = tiny_net()
        before = net.checksum()
        grads = {k: np.ones_like(v.value) for k, v in net.params.items()}
        optim.sgd_step(net.params, grads, optim.SGDConfig(lr=0.0))
        assert net.checksum() == before

    def test_one_line_arithmetic(self):
        w = {"w": ad.param(np.array([1.0]), "w")}
        optim.sgd_step(w, {"w": np.array([2.0])}, optim.SGDConfig(lr=0.1))
        assert w["w"].value.item() == pytest.approx(0.8, abs=1e-15)

    def test_quadratic_contraction(self):
        # T steps on 0.5*(w-a)^2 contract toward a at rate (1-lr)^T
        a, lr, steps = 3.0, 0.3, 20
        w = {"w": ad.param(np.array([0.0]), "w")}
        for _ in range(steps):
            g = w["w"].value - a
            optim.sgd_step(w, {"w": g}, optim.SGDConfig(lr=lr))
        want = a + (0.0 - a) * (1 - lr) ** steps
        assert w["w"].value.item() == pytest.approx(want, abs=1e-12)

    def test_nonfinite_gradient_rejected(self):
        w = {"w": ad.param(np.array([1.0]), "w")}
        with pytest.raises(optim.OptimError):
            optim.sgd_step(w, {"w": np.array([np.nan])}, optim.SGDConfig(lr=0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_last_gradient_moves_no_weight(self, bad):
        net = tiny_net()
        before = net.snapshot()
        grads = {k: np.ones_like(v.value) for k, v in net.params.items()}
        last = list(grads)[-1]
        grads[last].flat[-1] = bad
        with pytest.raises(optim.OptimError, match=f"for {last}$"):
            optim.sgd_step(net.params, grads, optim.SGDConfig(lr=0.1))
        for name, value in net.snapshot().items():
            assert np.array_equal(value, before[name]), name

    def test_negative_lr_rejected(self):
        with pytest.raises(optim.OptimError):
            optim.SGDConfig(lr=-0.1)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_nonfinite_lr_rejected(self, lr):
        with pytest.raises(optim.OptimError):
            optim.SGDConfig(lr=lr)


class TestArchOptimizer:
    def test_adam_first_step_magnitude(self):
        # bias-corrected Adam's first step has magnitude ~lr
        opt = optim.ArchOptimizer(optim.ArchOptimizerConfig(
            lr=1e-2, weight_decay=0.0))
        a = ad.param(np.zeros((1, 2)), "alpha")
        opt.step(a, np.array([[3.0, -0.5]]))
        assert np.allclose(np.abs(a.value), 1e-2, atol=1e-6)
        assert a.value[0, 0] < 0 < a.value[0, 1]

    def test_nonfinite_gradient_rejected(self):
        opt = optim.ArchOptimizer(optim.ArchOptimizerConfig())
        a = ad.param(np.zeros((1, 1)), "alpha")
        with pytest.raises(optim.OptimError):
            opt.step(a, np.array([[np.inf]]))

    def test_invalid_config_rejected(self):
        with pytest.raises(optim.OptimError):
            optim.ArchOptimizerConfig(lr=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"lr": np.nan}, {"lr": np.inf},
        {"weight_decay": -1.0}, {"weight_decay": np.nan}, {"weight_decay": np.inf},
    ])
    def test_nonfinite_or_negative_config_rejected(self, kwargs):
        with pytest.raises(optim.OptimError):
            optim.ArchOptimizerConfig(**kwargs)


class TestUnrollWindow:
    def test_empty_window_rejected(self):
        with pytest.raises(optim.OptimError):
            optim.UnrollWindow({}, [])

    def test_steps_counts_batches(self):
        net = tiny_net()
        window = optim.make_window(net, tiny_batches(0, 3))
        assert len(window.batches) == 3


class TestTseUnroll:
    def test_t1_single_loss_and_direct_gradient(self):
        net = tiny_net()
        (batch,) = tiny_batches(1, 1)
        window = optim.make_window(net, [batch])
        res = optim.tse_unroll(net, window, optim.SGDConfig(lr=0.1))
        net.restore(window.w0)
        loss = net.loss(net.forward(batch[0]), batch[1])
        (ga,) = ad.grad(loss, [net.alpha])
        assert res.tse == pytest.approx(float(loss.value), abs=1e-15)
        assert np.max(np.abs(res.alpha_grad - ga.value)) < 1e-14

    def test_tse_identity_bit_exact(self):
        net = tiny_net()
        window = optim.make_window(net, tiny_batches(2, 5))
        res = optim.tse_unroll(net, window, optim.SGDConfig(lr=0.05))
        acc = 0.0
        for loss in res.step_losses:
            acc += loss
        assert res.tse == acc   # identical accumulation order, bit-exact

    def test_replay_oracle(self):
        # TSE value equals an independently replayed training loss sum
        net = tiny_net(seed=3)
        window = optim.make_window(net, tiny_batches(3, 3))
        cfg = optim.SGDConfig(lr=0.05)
        res = optim.tse_unroll(net, window, cfg)
        total = replay_tse(net, window, cfg, net.alpha.value.ravel())
        assert res.tse == pytest.approx(total, abs=1e-12)

    def test_alpha_not_modified(self):
        net = tiny_net()
        before = net.alpha.value.copy()
        optim.tse_unroll(net, optim.make_window(net, tiny_batches(4, 3)),
                         optim.SGDConfig(lr=0.05))
        assert np.array_equal(net.alpha.value, before)

    def test_compute_contract_one_fwd_one_bwd_per_step(self, monkeypatch):
        net = tiny_net()
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(net, "forward", counted("fwd", net.forward))
        monkeypatch.setattr(ad, "backward", counted("bwd", ad.backward))
        optim.tse_unroll(net, optim.make_window(net, tiny_batches(5, 4)),
                         optim.SGDConfig(lr=0.05))
        assert calls == ["fwd", "bwd"] * 4

    def test_abort_reports_step_index(self):
        net = tiny_net()
        batches = tiny_batches(7, 3)
        net.params["head/W"].value = np.full_like(
            net.params["head/W"].value, 1e308)  # forward overflows to inf
        window = optim.UnrollWindow(net.snapshot(), batches)
        with pytest.raises(optim.UnrollAbort) as err:
            optim.tse_unroll(net, window, optim.SGDConfig(lr=0.05))
        # step 0 still evaluates; the first post-update forward blows up
        assert err.value.step == 1


class TestTseDartsRound:
    def test_restore_contract_and_alpha_step(self):
        net = tiny_net()
        window = optim.make_window(net, tiny_batches(8, 4))
        alpha_before = net.alpha.value.copy()
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-2))
        result = optim.tse_darts_round(net, window, optim.SGDConfig(lr=0.05), arch)
        assert result.restore_exact
        assert not np.array_equal(net.alpha.value, alpha_before)

    def test_zero_like_arch_lr_reduces_to_plain_training(self):
        # tiny arch lr: final weights match plain T-step SGD to high precision
        net1, net2 = tiny_net(seed=9), tiny_net(seed=9)
        batches = tiny_batches(9, 4)
        w_cfg = optim.SGDConfig(lr=0.05)
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-300))
        optim.tse_darts_round(net1, optim.make_window(net1, batches), w_cfg, arch)
        for batch in batches:
            _, grads = optim.loss_and_grads(net2, batch, net2.weight_vars())
            optim.sgd_step(net2.params, grads, w_cfg)
        for k in net1.params:
            assert np.max(np.abs(net1.params[k].value - net2.params[k].value)) < 1e-12

    def test_deterministic_across_runs(self):
        outs = []
        for _ in range(2):
            net = tiny_net(seed=10)
            arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-2))
            w_cfg = optim.SGDConfig(lr=0.05)
            for r in range(2):
                window = optim.make_window(net, tiny_batches(20 + r, 3))
                optim.tse_darts_round(net, window, w_cfg, arch)
            outs.append((net.checksum(), net.alpha.value.tobytes()))
        assert outs[0] == outs[1]


class TestDartsFirstOrder:
    def test_round_updates_both_groups(self):
        net = tiny_net()
        (tb,), (vb,) = tiny_batches(11, 1), tiny_batches(12, 1)
        w_before = net.checksum()
        a_before = net.alpha.value.copy()
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-2))
        out = optim.darts_first_order_round(net, tb, vb,
                                            optim.SGDConfig(lr=0.05), arch)
        assert net.checksum() != w_before
        assert not np.array_equal(net.alpha.value, a_before)
        assert np.isfinite(out["train_loss"]) and np.isfinite(out["val_loss"])

    def test_matches_manual_step_by_step(self):
        net = tiny_net(seed=13)
        ref = tiny_net(seed=13)
        (tb,), (vb,) = tiny_batches(13, 1), tiny_batches(14, 1)
        w_cfg = optim.SGDConfig(lr=0.1)
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(
            lr=0.5, weight_decay=0.0))
        optim.darts_first_order_round(net, tb, vb, w_cfg, arch)
        # manual: weight step on train loss
        _, grads = optim.loss_and_grads(ref, tb, ref.weight_vars())
        for k, p in ref.params.items():
            p.value = p.value - 0.1 * grads[k]
        # then alpha step on val loss at the updated weights
        (ga,) = ad.grad(ref.loss(ref.forward(vb[0]), vb[1]), [ref.alpha])
        # Adam's first step, bias-corrected, betas (0.5, 0.999), eps 1e-8
        g = ga.value
        m, v = 0.5 * g, 0.001 * g * g
        m_hat, v_hat = m / (1 - 0.5), v / 0.001
        ref.alpha.value = ref.alpha.value - 0.5 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert net.checksum() == ref.checksum()
        assert np.max(np.abs(net.alpha.value - ref.alpha.value)) < 1e-15


class TestExactOracles:
    def test_exact_hypergradient_t0_is_direct(self):
        net = tiny_net()
        (batch,) = tiny_batches(15, 1)
        window = optim.make_window(net, [batch])   # no updates, loss on w0
        g = optim.exact_hypergradient(net, window, optim.SGDConfig(lr=0.1))
        loss = net.loss(net.forward(batch[0]), batch[1])
        (ga,) = ad.grad(loss, [net.alpha])
        assert np.max(np.abs(g - ga.value)) < 1e-14

    def test_exact_hypergradient_eta0_is_direct_at_final_batch(self):
        net = tiny_net()
        batches = tiny_batches(16, 4)
        window = optim.make_window(net, batches)
        g = optim.exact_hypergradient(net, window, optim.SGDConfig(lr=0.0))
        loss = net.loss(net.forward(batches[-1][0]), batches[-1][1])
        (ga,) = ad.grad(loss, [net.alpha])
        assert np.max(np.abs(g - ga.value)) < 1e-14

    def test_exact_hypergradient_matches_fd(self):
        for seed in (0, 1):
            net = tiny_net(seed=seed)
            window = optim.make_window(net, tiny_batches(30 + seed, 4))
            cfg = optim.SGDConfig(lr=0.05)
            g = optim.exact_hypergradient(net, window, cfg)
            fd = fd_gradient(
                lambda a: replay_final_loss(net, window, cfg, a),
                net.alpha.value.ravel(), step=1e-5).reshape(net.alpha.shape)
            denom = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(g - fd)) / denom < 1e-4

    def test_exact_tse_gradient_eta0_matches_approx(self):
        net = tiny_net(seed=2)
        window = optim.make_window(net, tiny_batches(17, 3))
        cfg = optim.SGDConfig(lr=0.0)
        res = optim.tse_unroll(net, window, cfg)
        net.restore(window.w0)
        tse, g = optim.exact_tse_gradient(net, window, cfg)
        assert tse == pytest.approx(res.tse, abs=1e-12)
        assert np.max(np.abs(g - res.alpha_grad)) < 1e-12

    def test_eta_sweep_first_order_error(self):
        # approximation error is O(eta): successive ratios in [2, 20] for 10x eta
        net = tiny_net(seed=4)
        batches = tiny_batches(18, 3)
        errs = []
        for lr in (1e-2, 1e-3, 1e-4):
            window = optim.make_window(net, batches)
            cfg = optim.SGDConfig(lr=lr)
            res = optim.tse_unroll(net, window, cfg)
            net.restore(window.w0)
            _, exact = optim.exact_tse_gradient(net, window, cfg)
            errs.append(np.linalg.norm(exact - res.alpha_grad)
                        / np.linalg.norm(exact))
        assert errs[0] > errs[1] > errs[2]
        for big, small in zip(errs, errs[1:]):
            assert 2.0 <= big / small <= 20.0

    def test_parameter_cap_enforced(self):
        net = tiny_net(width=8, layers=8)
        assert net.n_parameters() > optim.EXACT_UNROLL_CAP
        window = optim.make_window(net, tiny_batches(19, 2))
        for exact in (optim.exact_hypergradient, optim.exact_tse_gradient):
            with pytest.raises(optim.OptimError, match="exact-unroll cap"):
                exact(net, window, optim.SGDConfig(lr=0.1))


class TestGraphLifetime:
    """A step's forward graph is freed before the next step's is built."""

    RUNS = {
        "tse_unroll": lambda net, window, cfg: optim.tse_unroll(net, window, cfg),
        "tse_darts_round": lambda net, window, cfg: optim.tse_darts_round(
            net, window, cfg, optim.ArchOptimizer(optim.ArchOptimizerConfig())),
        "darts_first_order_round": lambda net, window, cfg:
            optim.darts_first_order_round(
                net, *window.batches[:2], cfg,
                optim.ArchOptimizer(optim.ArchOptimizerConfig())),
        "replay_final_loss": lambda net, window, cfg: oracles.replay_final_loss(
            net, window, cfg, net.alpha.value.ravel()),
        "replay_tse": lambda net, window, cfg: oracles.replay_tse(
            net, window, cfg, net.alpha.value.ravel()),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_previous_loss_dead_when_next_forward_starts(self, run):
        net = tiny_net(seed=21)
        window = optim.make_window(net, tiny_batches(21, 3))
        losses, alive = [], []
        forward, loss_fn = net.forward, net.loss

        def tracked_loss(logits, targets):
            out = loss_fn(logits, targets)
            losses.append(weakref.ref(out))
            return out

        def checked_forward(*args, **kwargs):
            alive.append(sum(r() is not None for r in losses))
            return forward(*args, **kwargs)

        net.loss, net.forward = tracked_loss, checked_forward
        gc.disable()   # refcounting alone must free the graph
        try:
            self.RUNS[run](net, window, optim.SGDConfig(lr=0.05))
        finally:
            gc.enable()
        assert len(alive) >= 2
        assert alive == [0] * len(alive)
