import contextlib
import gc
import warnings
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
    # <Ax, y> == <x, A^T y> for the patch-row extraction pair.
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 4))
    y = rng.standard_normal((2 * 4 * 4, 27))
    ax = ad.im2col3(ad.const(x)).value
    aty = ad.col2im3(ad.const(y), 3, 4, 4).value
    assert ax.shape == y.shape
    assert abs(np.sum(ax * y) - np.sum(x * aty)) < 1e-9


def test_boxsum3_boxspread3_adjoint_pair():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 5))
    y = rng.standard_normal((2, 3, 4, 5))
    ax = ad.boxsum3(ad.const(x)).value
    aty = ad.boxspread3(ad.const(y)).value
    assert abs(np.sum(ax * y) - np.sum(x * aty)) < 1e-9


def _padded(x):
    return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))


def test_im2col3_rows_times_w_is_direct_convolution():
    # oracle: sum over the nine offsets of a shifted window times the
    # weight rows of that offset (row 9*ch + 3*di + dj)
    rng = np.random.default_rng(17)
    n, c, h, w, c_out = 2, 3, 4, 5, 2
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((9 * c, c_out))
    want = np.zeros((n, c_out, h, w))
    for di in range(3):
        for dj in range(3):
            window = _padded(x)[:, :, di:di + h, dj:dj + w]
            want += np.einsum("nchw,co->nohw", window, wt[3 * di + dj::9])
    rows = ad.im2col3(ad.const(x)).value
    got = (rows @ wt).reshape(n, h, w, c_out).transpose(0, 3, 1, 2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_avgpool_is_zero_padded_window_mean():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 3, 4, 5))
    want = np.zeros_like(x)
    for y in range(4):
        for z in range(5):
            want[:, :, y, z] = _padded(x)[:, :, y:y + 3, z:z + 3].mean(axis=(2, 3))
    got = (ad.boxsum3(ad.const(x)) / 9.0).value
    assert np.max(np.abs(got - want)) < 1e-12


# The image kernels as they were first written, kept as references: the
# gathered patch rows and the flat-slice box sums must equal them bit for
# bit, -0.0 included.

def _sliding_window_im2col3(v):
    n, c, h, w = v.shape
    p = np.zeros((n, h + 2, w + 2, c))     # zero-padded, channels last
    p[:, 1:1 + h, 1:1 + w] = v.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(p, (3, 3), axis=(1, 2))
    return windows.reshape(n * h * w, 9 * c)


def _pad_shift_boxsum3(v):
    h, w = v.shape[2:]
    p = _padded(v)
    out = p[:, :, :h, :w].copy()
    for k in range(1, 9):
        di, dj = divmod(k, 3)
        out += p[:, :, di:di + h, dj:dj + w]
    return out


def _pad_shift_boxspread3(v):
    n, c, h, w = v.shape
    acc = np.zeros((n, c, h + 2, w + 2))
    for k in range(9):
        di, dj = divmod(k, 3)
        acc[:, :, di:di + h, dj:dj + w] += v
    return acc[:, :, 1:-1, 1:-1]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


IMAGE_SHAPES = [(2, 3, 4, 5), (3, 1, 5, 2), (1, 2, 1, 3), (2, 1, 6, 1), (2, 4, 8, 8)]


def _signed_zeros_image(shape, seed):
    # random entries, a third of them -0.0, and one image all -0.0 but one
    # entry, so that some window sums are -0.0 too
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 1 / 3] = -0.0
    v[0] = -0.0
    v[0, 0, 0, 0] = 1.5
    return v


@pytest.mark.parametrize("shape", IMAGE_SHAPES, ids=str)
@pytest.mark.parametrize("op, ref", [
    (ad.im2col3, _sliding_window_im2col3),
    (ad.boxsum3, _pad_shift_boxsum3),
    (ad.boxspread3, _pad_shift_boxspread3),
], ids=["im2col3", "boxsum3", "boxspread3"])
def test_image_kernel_matches_reference_bit_for_bit(op, ref, shape):
    v = _signed_zeros_image(shape, seed=sum(shape))
    want = ref(v)
    if op is not ad.boxspread3 and min(shape[2:]) >= 3:
        assert (np.signbit(want) & (want == 0)).any()   # -0.0 reaches the output
    assert _same_bits(op(ad.const(v)).value, want)


def _conv_loss(conv, x, w, r):
    # nonlinear, so that x reaches the second derivatives by both paths
    return ad.vsum(ad.mul(ad.vtanh(conv(x, w)), ad.const(r)))


def _chain(x, w):
    return ad.matmul(ad.im2col3(x), w)


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (3, 1, 5, 2)], ids=str)
def test_conv3x3_matches_im2col3_matmul_chain(shape, create_graph):
    rng = np.random.default_rng(21)
    x = ad.param(_signed_zeros_image(shape, seed=22), "x")
    w = ad.param(rng.standard_normal((9 * shape[1], 2)), "w")
    r = rng.standard_normal((shape[0] * shape[2] * shape[3], 2))
    assert _same_bits(ad.conv3x3(x, w).value, _chain(x, w).value)
    fused, chain = (ad.grad(_conv_loss(conv, x, w, r), [x, w], create_graph=create_graph)
                    for conv in (ad.conv3x3, _chain))
    for got, want in zip(fused, chain):
        assert _same_bits(got.value, want.value)
    if create_graph:
        # twice-differentiable: the second derivatives agree up to the
        # order of two adds, since x's two cotangent terms now meet after
        # `col2im3`, not before it
        second = [ad.grad(ad.vsum(gx * gx) + ad.vsum(gw * gw), [x, w])
                  for gx, gw in (fused, chain)]
        for got, want in zip(*second):
            assert np.max(np.abs(got.value - want.value)) <= 1e-12 * np.max(np.abs(want.value))


def test_conv3x3_shapes_checked():
    x = ad.const(np.zeros((2, 3, 4, 4)))
    with pytest.raises(ad.ShapeError):
        ad.conv3x3(x, ad.const(np.zeros((9 * 2, 5))))
    with pytest.raises(ad.ShapeError):
        ad.conv3x3(ad.const(np.zeros((2, 3, 4))), ad.const(np.zeros((27, 5))))


def test_cross_entropy_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NonFiniteError, match="floating-point overflow"):
            ad.cross_entropy(ad.const([[1e308, -1e308]]), [0])


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
# primitive between them: in the forward pass, or only inside a VJP rule
# (broadcast_to, vscatter, im2col3, col2im3 and boxspread3, in the rules
# of vsum, vslice, conv3x3 and boxsum3).
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


# ------------------------------------------------------------------
# floating-point trap: op results inside `trapped()` are guarded by
# numpy's flags; leaves, constants and matmul results are checked
# ------------------------------------------------------------------

def test_op_results_are_checked_only_outside_regions(monkeypatch):
    x = ad.param(np.ones(3), "x")
    checked = []
    monkeypatch.setattr(ad, "all_finite", lambda v: checked.append(v.shape) or True)
    for block in (contextlib.nullcontext, ad.no_record):
        with block(), ad.trapped([]):
            ad.vtanh(x * 2.0 + 1.0)
    assert checked == []
    ad.vtanh(x * 2.0 + 1.0)
    assert checked == [(3,)] * 3


def _overflow_in(region):
    x = ad.param(1e200, "x")
    if region == "forward":
        with ad.trapped([x]):
            x * 1e200
    else:
        # d(1/x)/dx = -g/(x*x): x*x overflows although 1/x is finite
        ad.grad(1.0 / x, [x], create_graph=region == "graph-building sweep")


@pytest.mark.parametrize("region", ["forward", "detached sweep", "graph-building sweep"])
def test_trapped_overflow_raises_without_warning(region):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NonFiniteError, match="floating-point overflow"):
            _overflow_in(region)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("create_graph", [False, True])
def test_backward_rejects_leaf_written_after_forward(bad, create_graph):
    # a NaN operand raises no flag: only the sweep's entry check sees it
    a = ad.param(np.ones(3), "a")
    y = ad.vsum(a * a)
    a.value = np.array([1.0, bad, 1.0])
    with pytest.raises(ad.NonFiniteError, match="in a"):
        ad.grad(y, [a], create_graph=create_graph)


def test_trapped_matmul_result_checked_without_flag():
    # ones @ inf is inf with no flag raised, as a threaded BLAS leaves it
    inf = np.full((3, 2), np.inf)
    with np.errstate(all="raise"):
        assert np.isinf(np.ones((2, 3)) @ inf).all()
    x, w = ad.const(np.ones((2, 3))), ad.const(np.ones((3, 2)))
    # conv3x3 multiplies too: the patch row of one 1x1 image is zero but
    # for its centre, which reads row 4 of the weight
    image, kernel = ad.const(np.ones((1, 1, 1, 1))), ad.const(np.ones((9, 2)))
    with ad.trapped([x, w, image, kernel]):
        w.value = inf
        kernel.value[4] = np.inf
        with pytest.raises(ad.NonFiniteError, match="matmul"):
            ad.matmul(x, w)
        with pytest.raises(ad.NonFiniteError, match="matmul"):
            ad.conv3x3(image, kernel)


def test_large_finite_values_pass_nested_regions():
    # every entry and product is 1e308, so a sum of any two overflows
    w = ad.param(np.full((3, 2), 1e308), "w")
    x = ad.const(np.eye(2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ad.trapped([w]):
            with ad.trapped([w, x]):
                y = ad.matmul(x, w)
            (gw,) = ad.grad(ad.vslice(y, (0, 0)), [w])
    assert np.array_equal(y.value, np.full((2, 2), 1e308))
    assert np.array_equal(gw.value, np.eye(3, 2)[:, :1] @ np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("error", [ad.NonFiniteError, ad.ShapeError])
def test_trapped_restores_state_after_exception(error):
    before, call_before = np.geterr(), np.geterrcall()
    with ad.trapped([]):
        with pytest.raises(error):
            with ad.trapped([]):
                if error is ad.NonFiniteError:
                    ad.vexp(ad.const(1e3))
                else:
                    ad.matmul(ad.const(np.ones((2, 3))), ad.const(np.ones((2, 3))))
        # the outer region is still on
        assert ad._TRAPPED and np.geterr()["over"] == "call"
    assert not ad._TRAPPED
    assert np.geterr() == before and np.geterrcall() is call_before
    with pytest.raises(ad.NonFiniteError):
        with ad.trapped([ad.param(np.nan, "p")]):   # rejected on entry
            pass
    assert not ad._TRAPPED and np.geterr() == before
