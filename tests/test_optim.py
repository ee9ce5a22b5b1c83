import gc
import weakref

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import optim, oracles
from tsedarts import supernet as sn
from tsedarts.oracles import fd_gradient, replay_final_loss, replay_tse
from tsedarts.space import CellTopology, OperationKind

from helpers import checksum


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
        before = checksum(net)
        grads = {k: np.ones_like(v.value) for k, v in net.params.items()}
        optim.sgd_step(net.params, grads, optim.SGDConfig(lr=0.0))
        assert checksum(net) == before

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

    def test_compute_contract_one_recorded_step_then_replays(self, monkeypatch):
        # one forward and one backward, recorded; each later step replays
        net = tiny_net()
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(net, "forward", counted("fwd", net.forward))
        monkeypatch.setattr(ad, "backward", counted("bwd", ad.backward))
        monkeypatch.setattr(ad, "record", counted("record", ad.record))
        monkeypatch.setattr(ad.Plan, "replay", counted("replay", ad.Plan.replay))
        optim.tse_unroll(net, optim.make_window(net, tiny_batches(5, 4)),
                         optim.SGDConfig(lr=0.05))
        assert calls == ["record", "fwd", "bwd"] + ["replay"] * 3

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
            outs.append((checksum(net), net.alpha.value.tobytes()))
        assert outs[0] == outs[1]


class TestDartsFirstOrder:
    def test_round_updates_both_groups(self):
        net = tiny_net()
        tbs, vbs = tiny_batches(11, 3), tiny_batches(12, 3)
        w_before = checksum(net)
        a_before = net.alpha.value.copy()
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-2))
        train_losses, val_losses = optim.darts_first_order_round(
            net, tbs, vbs, optim.SGDConfig(lr=0.05), arch)
        assert checksum(net) != w_before
        assert not np.array_equal(net.alpha.value, a_before)
        assert len(train_losses) == len(val_losses) == 3
        assert np.all(np.isfinite(train_losses + val_losses))

    def test_matches_manual_step_by_step(self):
        net = tiny_net(seed=13)
        ref = tiny_net(seed=13)
        (tb,), (vb,) = tiny_batches(13, 1), tiny_batches(14, 1)
        w_cfg = optim.SGDConfig(lr=0.1)
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(
            lr=0.5, weight_decay=0.0))
        optim.darts_first_order_round(net, [tb], [vb], w_cfg, arch)
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
        assert checksum(net) == checksum(ref)
        assert np.max(np.abs(net.alpha.value - ref.alpha.value)) < 1e-15

    def test_unequal_batch_lists_rejected(self):
        net = tiny_net()
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig())
        with pytest.raises(optim.OptimError, match="3 train batches but 2 validation"):
            optim.darts_first_order_round(net, tiny_batches(1, 3), tiny_batches(2, 2),
                                          optim.SGDConfig(lr=0.05), arch)


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
        "tse_darts_round": lambda net, window, cfg: optim.tse_darts_round(
            net, window, cfg, optim.ArchOptimizer(optim.ArchOptimizerConfig())),
        "darts_first_order_round": lambda net, window, cfg:
            optim.darts_first_order_round(
                net, window.batches, tiny_batches(22, len(window.batches)), cfg,
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

    STEPPED = {"tse_unroll": lambda net, window, cfg: optim.tse_unroll(net, window, cfg),
               "tse_darts_round": RUNS["tse_darts_round"],
               "darts_first_order_round": RUNS["darts_first_order_round"]}

    @pytest.mark.parametrize("run", sorted(STEPPED))
    def test_step_arrays_dead_when_next_step_starts(self, run, monkeypatch):
        # every array a step computes, on the Var path when the step is
        # recorded and by the plan's calls when it is replayed, is dead
        # when the next step starts, its loss and gradients included; a
        # darts round alternates a train and a validation step
        net = tiny_net(seed=21)
        window = optim.make_window(net, tiny_batches(21, 3))
        made, alive = [], []
        init, record, replay = ad.Var.__init__, ad.record, ad.Plan.replay

        def tracked_init(self, value, parents=(), vjp=None, name=None):
            init(self, value, parents, vjp, name)
            if parents:
                made.append(weakref.ref(self.value))

        def collected(fn):
            def call(*args):
                out = fn(*args)
                # not an operand passed through, such as a float64 batch
                if isinstance(out, np.ndarray) and not any(out is a for a in args):
                    made.append(weakref.ref(out))
                return out
            return call

        def tracked_record(*args):
            alive.append(sum(r() is not None for r in made))
            plan, values = record(*args)
            plan.code = [(collected(fn), get, out) for fn, get, out in plan.code]
            return plan, values

        def tracked_replay(self, inputs):
            alive.append(sum(r() is not None for r in made))
            return replay(self, inputs)

        monkeypatch.setattr(ad.Var, "__init__", tracked_init)
        monkeypatch.setattr(ad, "record", tracked_record)
        monkeypatch.setattr(ad.Plan, "replay", tracked_replay)
        gc.disable()   # refcounting alone must free every array
        try:
            self.STEPPED[run](net, window, optim.SGDConfig(lr=0.05))
        finally:
            gc.enable()
        assert made
        assert alive == [0] * (3 if run == "tse_unroll" else 6)


def frozen_net():
    """The frozen criterion-8 net: s2-like, 8 layers, width 8."""
    return sn.Supernet(sn.SupernetConfig(layers=8, width=8, preset="s2-like",
                                         classes=4, in_shape=(16,), seed=0))


def image_net():
    """The nb201-like net on 1x8x8 images: 2 layers, width 4."""
    return sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset="nb201-like",
                                         classes=4, in_shape=(1, 8, 8), seed=0))


def window_batches(net, sizes, seed=40):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n,) + net.config.in_shape), rng.integers(0, 4, size=n))
            for n in sizes]


def var_path_window(net, batches, wrt, cfg) -> list:
    """The window on the Var path, stepped as `oracles._replay_losses`
    steps: per batch `loss_and_grads` and `sgd_step`."""
    steps = []
    for batch in batches:
        try:
            loss, grads = optim.loss_and_grads(net, batch, wrt)
        except ad.NonFiniteError as err:
            steps.append(str(err))
            break
        optim.sgd_step(net.params, grads, cfg)
        steps.append((loss, grads))
    return steps


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestPlanReplay:
    """A window that records its first step and replays the rest equals
    the Var path step for step, bit for bit."""

    NETS = {"frozen": frozen_net, "image": image_net}

    @pytest.mark.parametrize("leaves", ["weights+alpha", "weights"])
    @pytest.mark.parametrize("kind", sorted(NETS))
    def test_replayed_window_equals_var_path(self, kind, leaves, monkeypatch):
        nets = [self.NETS[kind]() for _ in range(2)]
        for net in nets:   # alpha off zero, so the mixture weights differ
            net.alpha.value = 0.3 * np.random.default_rng(41).standard_normal(net.alpha.shape)
        batches = window_batches(nets[0], [32, 32, 32, 32, 20])
        # each batch has other labels, so a one-hot kept from step 0 fails
        assert not any(np.array_equal(a[1][:20], b[1][:20])
                       for a, b in zip(batches, batches[1:]))
        cfg = optim.SGDConfig(lr=0.05)
        wrts = [net.weight_vars() + ([net.alpha] if leaves == "weights+alpha" else [])
                for net in nets]
        expected = var_path_window(nets[0], batches, wrts[0], cfg)

        stepped, records = [], []
        sgd_step, record = optim.sgd_step, ad.record

        def kept_step(weights, grads, cfg):
            stepped.append({k: g.copy() for k, g in grads.items()})
            sgd_step(weights, grads, cfg)

        def counted_record(*args):
            records.append(len(stepped))
            return record(*args)

        monkeypatch.setattr(optim, "sgd_step", kept_step)
        monkeypatch.setattr(ad, "record", counted_record)
        losses, alpha_grad = optim._sgd_steps(nets[1], batches, wrts[1], cfg)

        assert records == [0]   # the short last batch, replayed by none, runs on Vars
        assert len(stepped) == len(expected) == 5
        for (loss, grads), got_loss, got in zip(expected, losses, stepped):
            assert bits(got_loss) == bits(loss)
            assert list(got) == list(grads)
            assert all(bits(got[k]) == bits(grads[k]) for k in grads)
        for k in nets[0].params:
            assert bits(nets[1].params[k].value) == bits(nets[0].params[k].value), k
        total = np.zeros_like(nets[0].alpha.value)
        for _, grads in expected:
            if "alpha" in grads:
                total += grads["alpha"]
        assert bits(alpha_grad) == bits(total)

    @pytest.mark.parametrize("kind", sorted(NETS))
    def test_one_batch_window_records_nothing(self, kind, monkeypatch):
        nets = [self.NETS[kind]() for _ in range(2)]
        batches = window_batches(nets[0], [32])
        cfg = optim.SGDConfig(lr=0.05)
        wrts = [net.weight_vars() + [net.alpha] for net in nets]
        ((loss, grads),) = var_path_window(nets[0], batches, wrts[0], cfg)
        records, record = [], ad.record
        monkeypatch.setattr(ad, "record", lambda *args: records.append(1) or record(*args))
        losses, alpha_grad = optim._sgd_steps(nets[1], batches, wrts[1], cfg)
        assert records == []
        assert bits(losses[0]) == bits(loss)
        assert bits(alpha_grad) == bits(grads["alpha"])
        for k in nets[0].params:
            assert bits(nets[1].params[k].value) == bits(nets[0].params[k].value), k

    @staticmethod
    def plant(kind, net, batches):
        if kind == "weights-overflow":   # the head overflows once SGD moved it
            net.params["head/W"].value.fill(1e300)
        elif kind == "batch-nan":        # a NaN feature in step 2's batch
            batches[2][0][1, 3] = np.nan
        elif kind == "batch-overflow":   # step 2's stem products overflow
            net.params["stem/W"].value.fill(1.0)
            batches[2][0].fill(1e308)

    @pytest.mark.parametrize("kind, step, message", [
        ("weight-nan", 1, "non-finite value in stem/W"),
        ("weights-overflow", 1, "non-finite value from floating-point overflow"),
        ("batch-nan", 2, "non-finite value in node"),
        ("batch-overflow", 2, "non-finite value from floating-point overflow"),
    ])
    def test_fault_at_replayed_step_aborts_as_var_path(self, kind, step, message,
                                                       monkeypatch):
        if kind == "weight-nan":         # every update leaves a NaN weight
            sgd_step = optim.sgd_step

            def poisoned(weights, grads, cfg):
                sgd_step(weights, grads, cfg)
                weights["stem/W"].value[0, 0] = np.nan
            monkeypatch.setattr(optim, "sgd_step", poisoned)
        cfg = optim.SGDConfig(lr=0.05)
        runs = []
        for _ in range(2):
            net, batches = tiny_net(), tiny_batches(7, 4)
            self.plant(kind, net, batches)
            runs.append((net, batches))
        (net, batches), (other, other_batches) = runs
        expected = var_path_window(net, batches, net.weight_vars() + [net.alpha], cfg)
        assert len(expected) == step + 1 and expected[-1] == message
        with pytest.raises(optim.UnrollAbort) as err:
            optim.tse_unroll(other, optim.UnrollWindow(other.snapshot(), other_batches), cfg)
        assert err.value.step == step
        assert err.value.args[1] == message


def var_path_darts(net, train_batches, val_batches, w_cfg, arch) -> list:
    """A darts-1st epoch on the Var path, one step pair at a time:
    `loss_and_grads` and `sgd_step` on the train batch, then
    `loss_and_grads` over alpha and `ArchOptimizer.step` on the
    validation batch.  A `NonFiniteError` ends it as its message."""
    steps = []
    for tb, vb in zip(train_batches, val_batches):
        try:
            loss_t, grads = optim.loss_and_grads(net, tb, net.weight_vars())
            optim.sgd_step(net.params, grads, w_cfg)
            loss_v, grad = optim.loss_and_grads(net, vb, [net.alpha])
        except ad.NonFiniteError as err:
            steps.append(str(err))
            break
        arch.step(net.alpha, grad["alpha"])
        steps.append((loss_t, grads, loss_v, grad["alpha"]))
    return steps


def arch_opt():
    return optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=3e-3))


class TestDartsPlans:
    """A darts-1st round that records each of its two steps once and
    replays the rest equals the Var path step for step, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(TestPlanReplay.NETS))
    def test_round_equals_var_path(self, kind, monkeypatch):
        nets = [TestPlanReplay.NETS[kind]() for _ in range(2)]
        for net in nets:
            net.alpha.value = 0.3 * np.random.default_rng(41).standard_normal(net.alpha.shape)
        train = window_batches(nets[0], [32, 32, 32, 32, 20], seed=42)
        val = window_batches(nets[0], [32, 20, 32, 32, 32], seed=43)
        for batches in (train, val):   # other labels at every step
            assert not any(np.array_equal(a[1][:20], b[1][:20])
                           for a, b in zip(batches, batches[1:]))
        cfg = optim.SGDConfig(lr=0.05)
        expected = var_path_darts(nets[0], train, val, cfg, arch_opt())

        stepped, records = [], []
        sgd_step, arch_step, record = optim.sgd_step, optim.ArchOptimizer.step, ad.record

        def kept_step(weights, grads, cfg):
            stepped.append({k: g.copy() for k, g in grads.items()})
            sgd_step(weights, grads, cfg)

        def kept_arch_step(self, alpha, grad):
            stepped.append(grad.copy())
            arch_step(self, alpha, grad)

        def counted_record(*args):
            records.append(len(stepped))
            return record(*args)

        monkeypatch.setattr(optim, "sgd_step", kept_step)
        monkeypatch.setattr(optim.ArchOptimizer, "step", kept_arch_step)
        monkeypatch.setattr(ad, "record", counted_record)
        train_losses, val_losses = optim.darts_first_order_round(
            nets[1], train, val, cfg, arch_opt())

        # step 0 records the train step, then the validation step; the
        # short batches, replayed by none, run on Vars, and the validation
        # step after its short batch replays the plan of step 0
        assert records == [0, 1]
        assert len(expected) == len(train_losses) == len(val_losses) == 5
        for t, (loss_t, grads, loss_v, grad) in enumerate(expected):
            assert bits(train_losses[t]) == bits(loss_t)
            assert bits(val_losses[t]) == bits(loss_v)
            got = stepped[2 * t]
            assert list(got) == list(grads)
            assert all(bits(got[k]) == bits(grads[k]) for k in grads)
            assert bits(stepped[2 * t + 1]) == bits(grad)
        for k in nets[0].params:
            assert bits(nets[1].params[k].value) == bits(nets[0].params[k].value), k
        assert bits(nets[1].alpha.value) == bits(nets[0].alpha.value)

    @pytest.mark.parametrize("kind, step, message", [
        ("weight-nan", 1, "non-finite value in stem/W"),
        ("val-overflow", 2, "non-finite value from floating-point overflow"),
    ])
    def test_fault_at_replayed_step_as_var_path(self, kind, step, message, monkeypatch):
        if kind == "weight-nan":   # the second update of a net, and each after, leaves a NaN
            sgd_step, updates = optim.sgd_step, {}

            def poisoned(weights, grads, cfg):
                sgd_step(weights, grads, cfg)
                n = updates[id(weights)] = updates.get(id(weights), 0) + 1
                if n >= 2:
                    weights["stem/W"].value[0, 0] = np.nan
            monkeypatch.setattr(optim, "sgd_step", poisoned)
        cfg = optim.SGDConfig(lr=0.05)
        runs = []
        for _ in range(2):
            net, train, val = tiny_net(), tiny_batches(7, 4), tiny_batches(8, 4)
            if kind == "val-overflow":   # step 2's stem products overflow
                net.params["stem/W"].value.fill(1.0)
                val[2][0].fill(1e308)
            runs.append((net, train, val))
        (net, train, val), (other, other_train, other_val) = runs
        expected = var_path_darts(net, train, val, cfg, arch_opt())
        assert len(expected) == step + 1 and expected[-1] == message
        records, record = [], ad.record
        monkeypatch.setattr(ad, "record", lambda *args: records.append(1) or record(*args))
        with pytest.raises(ad.NonFiniteError) as err:
            optim.darts_first_order_round(other, other_train, other_val, cfg, arch_opt())
        assert str(err.value) == message
        assert records == [1, 1]   # the fault meets a replayed step
        for k in net.params:
            assert bits(other.params[k].value) == bits(net.params[k].value), k
        assert bits(other.alpha.value) == bits(net.alpha.value)
