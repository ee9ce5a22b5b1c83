import gc
import weakref

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import supernet as sn
from tsedarts.oracles import fd_gradient, fd_hessian


def scalar(x):
    return float(np.asarray(x))


def test_square_value_and_grad():
    x = ad.param(3.0, "x")
    y = x * x
    assert scalar(y.value) == 9.0
    (g,) = ad.grad(y, [x])
    assert scalar(g.value) == 6.0


def test_identity_graph_passthrough():
    x = ad.param([1.0, 2.0], "x")
    (g,) = ad.grad(x, [x])
    assert np.array_equal(x.value, np.array([1.0, 2.0]))
    assert np.array_equal(g.value, np.ones(2))


def test_product_rule():
    x = ad.param(2.0, "x")
    y = ad.param(5.0, "y")
    gx, gy = ad.grad(x * y, [x, y])
    assert scalar(gx.value) == 5.0
    assert scalar(gy.value) == 2.0


def _mlp_loss(theta, x):
    """Straight-line numpy reimplementation of the tiny test network."""
    w1 = theta[:8].reshape(4, 2)
    b1 = theta[8:10]
    w2 = theta[10:12].reshape(2, 1)
    h = np.tanh(x @ w1 + b1)
    return float(((h @ w2) ** 2).sum())


def _mlp_loss_var(theta_var, x):
    w1 = ad.reshape(ad.vslice(theta_var, slice(0, 8)), (4, 2))
    b1 = ad.vslice(theta_var, slice(8, 10))
    w2 = ad.reshape(ad.vslice(theta_var, slice(10, 12)), (2, 1))
    h = ad.vtanh(ad.const(x) @ w1 + b1)
    out = h @ w2
    return ad.vsum(out * out)


def test_forward_matches_straightline_reimplementation():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(12)
    x = rng.standard_normal((5, 4))
    leaf = ad.param(theta, "theta")
    got = float(_mlp_loss_var(leaf, x).value)
    assert got == pytest.approx(_mlp_loss(theta, x), abs=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(12)
    x = rng.standard_normal((6, 4))
    leaf = ad.param(theta, "theta")
    (g,) = ad.grad(_mlp_loss_var(leaf, x), [leaf])
    fd = fd_gradient(lambda t: _mlp_loss(t, x), theta, step=1e-5)
    denom = max(np.max(np.abs(fd)), 1e-8)
    assert np.max(np.abs(g.value - fd)) / denom < 1e-5


def test_gradcheck_many_graphs():
    # Random compositions of the primitive ops, <=100 params each.
    rng = np.random.default_rng(2)
    for trial in range(5):
        n = int(rng.integers(4, 30))
        theta = rng.standard_normal(n)
        a = rng.standard_normal((n, n))

        def f_np(t):
            h = np.tanh(a @ t)
            return float(np.exp(-np.sum(h * h) / n) + np.log(1.0 + np.sum(t * t)))

        def f_var(leaf):
            h = ad.vtanh(ad.reshape(ad.const(a) @ ad.reshape(leaf, (n, 1)), (n,)))
            s = ad.vsum(h * h) / ad.const(float(n))
            return ad.vexp(-s) + ad.vlog(ad.const(1.0) + ad.vsum(leaf * leaf))

        leaf = ad.param(theta, "t")
        (g,) = ad.grad(f_var(leaf), [leaf])
        fd = fd_gradient(f_np, theta, step=1e-5)
        denom = max(np.max(np.abs(fd)), 1e-6)
        assert np.max(np.abs(g.value - fd)) / denom < 1e-4


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(12)
    x = rng.standard_normal((4, 4))
    results = []
    for _ in range(2):
        leaf = ad.param(theta.copy(), "theta")
        loss = _mlp_loss_var(leaf, x)
        (g,) = ad.grad(loss, [leaf])
        results.append((loss.value.tobytes(), g.value.tobytes()))
    assert results[0] == results[1]


def test_tape_single_use():
    x = ad.param(2.0, "x")
    t = ad.tape(x * x)
    ad.backward(t, wrt=[x])
    with pytest.raises(ad.TapeConsumedError):
        ad.backward(t, wrt=[x])


def test_unused_parameter_gets_zero_gradient():
    x = ad.param(2.0, "x")
    y = ad.param(3.0, "y")
    gx, gy = ad.grad(x * x, [x, y])
    assert scalar(gx.value) == 4.0
    assert scalar(gy.value) == 0.0


def test_nonfinite_value_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.const(np.array([1.0, np.inf]))
    x = ad.const(np.array([0.0]))
    with pytest.raises(ad.NonFiniteError):
        ad.vlog(x)


def test_shape_mismatch_rejected():
    a = ad.const(np.ones((2, 3)))
    b = ad.const(np.ones((2, 3)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, b)


class TestHvp:
    def _quad_closure(self, a):
        def closure(theta):
            leaf = ad.param(theta.reshape(1, -1), name="theta")
            return ad.vsum((leaf @ ad.const(a)) * leaf) * ad.const(0.5), leaf
        return closure

    def test_diagonal_quadratic(self):
        a = np.diag([3.0, 1.0])
        hv = ad.hvp(self._quad_closure(a), np.zeros(2), np.array([1.0, 0.0]))
        assert np.max(np.abs(hv - np.array([3.0, 0.0]))) < 1e-6

    def test_zero_direction(self):
        a = np.diag([3.0, 1.0])
        hv = ad.hvp(self._quad_closure(a), np.zeros(2), np.zeros(2))
        assert np.array_equal(hv, np.zeros(2))

    def test_zero_length_direction_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.hvp(self._quad_closure(np.eye(1)), np.zeros(0), np.zeros(0))

    def test_matches_dense_fd_hessian(self):
        rng = np.random.default_rng(4)
        n = 6
        a = rng.standard_normal((n, n))

        def f_np(t):
            h = np.tanh(a @ t)
            return float(np.sum(h * h))

        def closure(theta):
            leaf = ad.param(theta, name="theta")
            h = ad.vtanh(ad.reshape(ad.const(a) @ ad.reshape(leaf, (n, 1)), (n,)))
            return ad.vsum(h * h), leaf

        theta = 0.3 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        hv = ad.hvp(closure, theta, v)
        ref = fd_hessian(f_np, theta) @ v
        assert np.linalg.norm(hv - ref) / np.linalg.norm(ref) < 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        n = 5
        a = rng.standard_normal((n, n))

        def closure(theta):
            leaf = ad.param(theta, name="theta")
            h = ad.vtanh(ad.reshape(ad.const(a) @ ad.reshape(leaf, (n, 1)), (n,)))
            return ad.vsum(h * h), leaf

        theta = 0.2 * rng.standard_normal(n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = float(v @ ad.hvp(closure, theta, u))
        right = float(u @ ad.hvp(closure, theta, v))
        assert abs(left - right) / max(abs(left), abs(right), 1e-8) < 1e-4


def test_im2col_col2im_adjoint_pair():
    # <Ax, y> == <x, A^T y> for the patch extraction pair.
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 4))
    y = rng.standard_normal((2, 27, 4, 4))
    ax = ad.im2col3(ad.const(x)).value
    aty = ad.col2im3(ad.const(y), 3, 4, 4).value
    assert abs(np.sum(ax * y) - np.sum(x * aty)) < 1e-9


def test_cross_entropy_uniform_logits():
    logits = ad.const(np.zeros((4, 5)))
    loss = ad.cross_entropy(logits, np.array([0, 1, 2, 3]))
    assert float(loss.value) == pytest.approx(np.log(5.0), abs=1e-12)


def test_cross_entropy_label_validation():
    with pytest.raises(ad.AutodiffError):
        ad.cross_entropy(ad.const(np.zeros((2, 3))), np.array([0, 3]))


# ------------------------------------------------------------------
# detached sweeps: same rules under no_record(), same numbers and checks
# ------------------------------------------------------------------

# The frozen 8-layer s2-like net and the nb201-like image net use every
# primitive between them: in the forward pass, or inside a VJP rule
# (col2im3 and vscatter, the adjoints of im2col3 and vslice).
SWEEP_NETS = {
    "s2-like-8-layers": (dict(layers=8, width=8, preset="s2-like", classes=4,
                              in_shape=(16,), seed=0), 32),
    "nb201-like-image": (dict(layers=2, width=4, preset="nb201-like", classes=4,
                              in_shape=(1, 8, 8), seed=0), 16),
}


def _sweep_net(name):
    kw, batch = SWEEP_NETS[name]
    net = sn.Supernet(sn.SupernetConfig(**kw))
    rng = np.random.default_rng(7)
    net.alpha.value = 0.3 * rng.standard_normal(net.alpha.shape)
    x = rng.standard_normal((batch,) + kw["in_shape"])
    y = rng.integers(0, kw["classes"], size=batch)
    return net, x, y


@pytest.mark.parametrize("name", sorted(SWEEP_NETS))
def test_detached_sweep_matches_graph_building_sweep(name):
    net, x, y = _sweep_net(name)
    wrt = net.weight_vars() + [net.alpha]
    detached, graph = (
        ad.backward(ad.tape(net.loss(net.forward(x), y)), wrt=wrt, create_graph=cg)
        for cg in (False, True))
    for v, got, want in zip(wrt, detached, graph):
        assert got.parents == () and want.parents != (), v.name
        assert np.array_equal(got.value, want.value), v.name


@pytest.mark.parametrize("create_graph", [False, True])
def test_intermediate_cotangent_overflow_rejected(create_graph):
    # d(a/b)/db = -(g*a)/(b*b): b*b overflows although the quotient
    # (-1e-400, i.e. -0.0) would be finite
    a = ad.param(1.0, "a")
    b = ad.param(1e200, "b")
    with pytest.raises(ad.NonFiniteError):
        ad.grad(a / b, [a, b], create_graph=create_graph)
    # a sweep that fails part-way leaves recording on for the next op
    c = a * 2.0
    assert c.parents == (a,) and c.vjp is not None


@pytest.mark.parametrize("create_graph", [False, True])
def test_step_leaves_no_reference_cycle(create_graph):
    # with the cyclic collector off, refcounting alone must free the loss
    # and every interior node of a step's graph once its locals are gone
    net, x, y = _sweep_net("s2-like-8-layers")

    def step():
        loss = net.loss(net.forward(x), y)
        t = ad.tape(loss)
        refs = [weakref.ref(node) for node in t.nodes]
        ad.backward(t, wrt=net.weight_vars() + [net.alpha], create_graph=create_graph)
        return weakref.ref(loss), refs

    gc.disable()
    try:
        loss_ref, refs = step()
        assert loss_ref() is None
        alive = [node for node in (r() for r in refs) if node is not None and node.parents]
        assert not alive
    finally:
        gc.enable()


# ------------------------------------------------------------------
# scalar operands, vmean and broadcast_to: attributes, not leaves
# ------------------------------------------------------------------

C = 1.7
# name -> (Var function, numpy twin, input shape)
SCALAR_CASES = {
    "add": (lambda v: ad.add(v, C), lambda t: t + C, (3, 4)),
    "radd": (lambda v: ad.add(C, v), lambda t: C + t, (3, 4)),
    "sub": (lambda v: ad.sub(v, C), lambda t: t - C, (3, 4)),
    "rsub": (lambda v: ad.sub(C, v), lambda t: C - t, (3, 4)),
    "mul": (lambda v: ad.mul(v, C), lambda t: t * C, (3, 4)),
    "rmul": (lambda v: ad.mul(C, v), lambda t: C * t, (3, 4)),
    "div": (lambda v: ad.div(v, C), lambda t: t / C, (3, 4)),
    "rdiv": (lambda v: ad.div(C, v), lambda t: C / t, (3, 4)),
    "vmean-all": (lambda v: ad.vmean(v), lambda t: t.mean(), (3, 4)),
    "vmean-axis1": (lambda v: ad.vmean(v, axis=1), lambda t: t.mean(axis=1), (3, 4)),
    "vmean-axis1-keepdims": (lambda v: ad.vmean(v, axis=1, keepdims=True),
                             lambda t: t.mean(axis=1, keepdims=True), (3, 4)),
    "vmean-axis0-keepdims": (lambda v: ad.vmean(v, axis=0, keepdims=True),
                             lambda t: t.mean(axis=0, keepdims=True), (3, 4)),
    "broadcast_to": (lambda v: ad.broadcast_to(v, (2, 3, 4)),
                     lambda t: np.broadcast_to(t, (2, 3, 4)), (3, 1)),
}


def _scalar_case(name):
    op, op_np, shape = SCALAR_CASES[name]
    rng = np.random.default_rng(8)
    theta = 0.5 + rng.random(shape)   # away from 0 for rdiv
    w = rng.standard_normal(np.shape(op_np(theta)))

    def f_var(leaf):
        return ad.vsum(ad.vtanh(op(leaf)) * ad.const(w))

    def f_np(flat):
        return float(np.sum(np.tanh(op_np(flat.reshape(shape))) * w))

    return f_var, f_np, theta


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_operand_ops_gradient_vs_fd(name):
    f_var, f_np, theta = _scalar_case(name)
    leaf = ad.param(theta, "x")
    (g,) = ad.grad(f_var(leaf), [leaf])
    fd = fd_gradient(f_np, theta.ravel(), step=1e-6).reshape(theta.shape)
    assert np.max(np.abs(g.value - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-6


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_operand_ops_sweeps_agree(name):
    f_var, _, theta = _scalar_case(name)
    leaf = ad.param(theta, "x")
    detached, graph = (ad.grad(f_var(leaf), [leaf], create_graph=cg)[0]
                       for cg in (False, True))
    assert detached.parents == () and graph.parents != ()
    assert np.array_equal(detached.value, graph.value)


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_scalar_operand_makes_no_leaf(name):
    op, _, shape = SCALAR_CASES[name]
    leaf = ad.param(np.ones(shape), "x")
    t = ad.tape(op(leaf))
    assert [n for n in t.nodes if not n.parents] == [leaf]


def test_double_backward_through_scalar_ops_matches_fd_hessian():
    rng = np.random.default_rng(9)
    n = 5
    theta = rng.standard_normal(n)
    v = rng.standard_normal(n)

    def f_np(t):
        return float(np.mean(np.tanh(2.0 - 1.5 / (1.0 + t * t)) * 3.0))

    x = ad.param(theta, "x")
    f = ad.vmean(ad.vtanh(2.0 - 1.5 / (1.0 + x * x)) * 3.0)
    (g,) = ad.grad(f, [x], create_graph=True)
    (hv,) = ad.grad(ad.vsum(g * ad.const(v)), [x])
    ref = fd_hessian(f_np, theta) @ v
    assert np.linalg.norm(hv.value - ref) / np.linalg.norm(ref) < 1e-4


def test_scalar_op_forward_overflow_rejected():
    x = ad.param(1e200, "x")
    with pytest.raises(ad.NonFiniteError):
        x * 1e200


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("case", ["mul", "rdiv"])
def test_scalar_op_cotangent_overflow_rejected(case, create_graph):
    # mul: g*c overflows (the outer factor's cotangent 1e10 times 1e300)
    # although the forward value 1e300 is finite; rdiv: the rule's x*x
    # overflows although the forward value 1/x is finite
    if case == "mul":
        x = ad.param(1e-10, "x")
        y = (x * 1e300) * 1e10
    else:
        x = ad.param(1e200, "x")
        y = 1.0 / x
    assert np.isfinite(y.value)
    with pytest.raises(ad.NonFiniteError):
        ad.grad(y, [x], create_graph=create_graph)


def test_frozen_forward_has_only_array_constants():
    # the batch, the max-shifts of the mixture softmax and of the loss, and
    # the one-hot labels; mean counts, eps, mean-aggregation factors and
    # the mixture slices add no leaf
    net, x, y = _sweep_net("s2-like-8-layers")
    t = ad.tape(net.loss(net.forward(x), y))
    consts = [n for n in t.nodes if not n.parents and n.name is None]
    assert sorted(c.shape for c in consts) == [(6, 1), (32, 1), (32, 4), (32, 16)]
    assert any(np.array_equal(c.value, x) for c in consts)


# ------------------------------------------------------------------
# values-only forward: same values, no graph
# ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SWEEP_NETS))
def test_no_record_logits_bit_identical(name):
    net, x, _ = _sweep_net(name)
    recorded = net.forward(x)
    with ad.no_record():
        values_only = net.forward(x)
    assert recorded.parents != () and values_only.parents == ()
    assert np.array_equal(values_only.value, recorded.value)


def test_no_record_var_has_no_parents():
    a = ad.param(np.arange(6.0).reshape(2, 3), "a")
    with ad.no_record():
        v = ad.vtanh(a @ ad.const(np.ones((3, 2))) * 0.5 + 1.0)
    assert v.vjp is None
    assert ad.tape(v).nodes == [v]


def _records():
    return ad.neg(ad.const(1.0)).parents != ()


def test_no_record_restores_recording():
    with ad.no_record():
        assert not _records()
    assert _records()


def test_no_record_restores_recording_after_exception():
    with pytest.raises(ad.NonFiniteError):
        with ad.no_record():
            ad.vexp(ad.const(1e3))
    assert _records()


def test_no_record_nested_blocks():
    with ad.no_record():
        with ad.no_record():
            assert not _records()
        assert not _records()
    assert _records()
