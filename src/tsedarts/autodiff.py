"""Minimal reverse-mode autodiff over dense float64 tensors.

Every value is a `Var` wrapping a numpy array.  Ops build an implicit
graph; `tape(root)` captures a topologically ordered, single-use record
of one forward evaluation, and `backward` replays it in reverse, from a
cotangent of ones in the root's shape, and returns the gradients of the
requested leaves as a list, in the order they were requested.

Arrays are graph nodes: parameters (named leaves), constants (unnamed
leaves, such as a batch) and op results.  Python scalars are not:
a scalar operand of `add`/`sub`/`mul`/`div`, the exponent of `power`,
the count `vmean` divides by and the target shape of `broadcast_to`
are attributes of their node, read by its VJP rule, so no leaf is made
for them and no cotangent is computed for them.

Each primitive has one VJP rule, written with this module's `Var`
primitives (looked up by name when the rule runs), and both sweeps run
it.  A graph-building sweep (`create_graph=True`) records as it goes,
so the gradients are graph nodes that can be differentiated again
(needed to unroll exactly through SGD updates).  A detached sweep runs
the same loop inside `no_record()`, so it computes and checks the same
values, bit for bit, while it records nothing.

Inside `with no_record():` the primitives compute and check the same
values, but a `Var` keeps no parents and no rule, so each intermediate
array is freed as soon as nothing refers to it.  It is the forward for
values that are read and never differentiated (held-out accuracy, the
last loss of a replay); read `.value` inside the block, since a `Var`
made there is a constant to any later `backward`.

Every value is checked for finiteness.  Inside `trapped()`, the region
of every forward body, cross-entropy and backward sweep (and of the
supernet's softmax over alpha), op results are guarded by
numpy's floating-point flags, which raise `NonFiniteError` where a
finite input turns non-finite; the region's leaves are tested on entry,
and leaves, constants and matmul (BLAS) results made inside are tested
entrywise.  Outside a region, `Var.__init__` tests every value.

Images get two linear primitives, each with an adjoint primitive: `im2col3`
gathers the 3x3 same-padded patch rows (n*h*w, 9c) that a convolution
right-multiplies by its weight matrix (adjoint `col2im3`), and `boxsum3`
adds each pixel's zero-padded 3x3 window, offsets in one fixed order,
for average pooling (adjoint `boxspread3`).  The rules of each pair call
the other, so both stay twice-differentiable.  A convolution is one node,
`conv3x3(x, w)`, whose value is `im2col3(x) @ w` bit for bit, but which
keeps no patch rows: they hold 9x the entries of the input, so rather
than store them from the forward pass to the sweep, its rule gathers them
again for the weight's cotangent, which costs a copy and no arithmetic.

Hessian-vector products are central differences of two detached
gradients, accurate enough to assemble the dense architecture Hessian
column by column; exact second derivatives come from differentiating
a graph-building sweep, as the exact unrolled hypergradients do.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    pass


class ShapeError(AutodiffError):
    pass


class TapeConsumedError(AutodiffError):
    pass


# False inside `no_record()`: new Vars keep no parents and no VJP rule.
_RECORDING = True
# True inside `trapped()`: numpy's floating-point flags guard op results.
_TRAPPED = False


@contextlib.contextmanager
def no_record():
    """Values-only forward: ops inside the block record no graph."""
    global _RECORDING
    prev, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = prev


def all_finite(v: np.ndarray) -> bool:
    """True when every entry of `v` is finite.

    An entrywise test: it raises no floating-point flag, so it is safe
    inside `trapped()`, where a sum of large finite entries would
    overflow and be reported as non-finite.
    """
    return bool(np.isfinite(v).all())


def _raise_nonfinite(kind: str, flag: int):
    raise NonFiniteError(f"non-finite value from floating-point {kind}")


@contextlib.contextmanager
def trapped(leaves):
    """Guard op results by numpy's floating-point flags, not a check each.

    The `Var`s in `leaves` (the values the block reads from outside) are
    checked on entry, since a NaN operand raises no flag.  Inside the
    block an overflow, invalid operation or division by zero raises
    `NonFiniteError` where it happens, and an op result skips its own
    check; underflow stays ignored.  Leaves and constants made inside
    are still checked, and so are matmul results, whose flags a threaded
    BLAS raises on worker threads numpy never reads.  The flag and
    numpy's error state are restored on exit, also on an exception.
    """
    global _TRAPPED
    leaves = list(leaves)
    # one test over all leaves; only a failure looks for the leaf to name
    if leaves and not all_finite(np.concatenate([v.value.ravel() for v in leaves])):
        bad = next(v for v in leaves if not all_finite(v.value))
        raise NonFiniteError(f"non-finite value in {'leaf' if bad.name is None else bad.name}")
    prev, _TRAPPED = _TRAPPED, True
    try:
        with np.errstate(over="call", invalid="call", divide="call", under="ignore",
                         call=_raise_nonfinite):
            yield
    finally:
        _TRAPPED = prev


class Var:
    """A node in the computation graph.

    Leaves with a `name` are parameters; leaves without one are
    constants.  `vjp(g, out, *operands)` is the op's VJP rule: it maps
    the output cotangent `g` to cotangents for `parents`, in order,
    with this module's primitives.  `out` and `operands` are this node
    and its parents.  Every value is checked for finiteness here, except
    an op result inside `trapped()`, which numpy's flags guard.
    """

    __slots__ = ("value", "parents", "vjp", "name", "__weakref__")

    def __init__(self, value, parents=(), vjp=None, name=None):
        v = np.asarray(value, dtype=np.float64)
        if not (_TRAPPED and parents) and not all_finite(v):
            raise NonFiniteError(f"non-finite value in {'node' if name is None else name}")
        self.value = v
        if _RECORDING:
            self.parents = tuple(parents)
            self.vjp = vjp
        else:
            self.parents, self.vjp = (), None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, name={self.name!r})"

    # -- arithmetic -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return vmean(self, axis=axis, keepdims=keepdims)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def const(x) -> Var:
    """An untracked constant (gradient never requested)."""
    return Var(x)


def param(x, name: str) -> Var:
    """A named leaf parameter."""
    return Var(x, name=name)


# ------------------------------------------------------------------
# primitives, each followed by its one VJP rule
# ------------------------------------------------------------------

# Operands kept as node attributes rather than graph leaves.
_SCALAR = (int, float)


def _unbroadcast(g, shape: tuple):
    """Reduce a broadcasted cotangent back to `shape`."""
    while len(g.shape) > len(shape):
        g = vsum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = vsum(g, axis=ax, keepdims=True)
    return g


def add(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value + b, (a,), _pass_vjp)
    if isinstance(a, _SCALAR):
        b = as_var(b)
        return Var(a + b.value, (b,), _pass_vjp)
    a, b = as_var(a), as_var(b)
    return Var(a.value + b.value, (a, b), _add_vjp)


def _add_vjp(g, out, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _pass_vjp(g, out, a):
    return (g,)


def sub(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value - b, (a,), _pass_vjp)
    if isinstance(a, _SCALAR):
        b = as_var(b)
        return Var(a - b.value, (b,), _neg_vjp)
    a, b = as_var(a), as_var(b)
    return Var(a.value - b.value, (a, b), _sub_vjp)


def _sub_vjp(g, out, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(neg(g), b.shape)


def mul(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value * b, (a,), lambda g, out, a: (mul(g, b),))
    if isinstance(a, _SCALAR):
        c, b = a, as_var(b)
        return Var(c * b.value, (b,), lambda g, out, b: (mul(g, c),))
    a, b = as_var(a), as_var(b)
    return Var(a.value * b.value, (a, b), _mul_vjp)


def _mul_vjp(g, out, a, b):
    return (_unbroadcast(mul(g, b), a.shape),
            _unbroadcast(mul(g, a), b.shape))


def div(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value / b, (a,), lambda g, out, a: (div(g, b),))
    if isinstance(a, _SCALAR):
        c, b = a, as_var(b)
        return Var(c / b.value, (b,),
                   lambda g, out, b: (neg(div(mul(g, c), mul(b, b))),))
    a, b = as_var(a), as_var(b)
    return Var(a.value / b.value, (a, b), _div_vjp)


def _div_vjp(g, out, a, b):
    return (_unbroadcast(div(g, b), a.shape),
            _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape))


def neg(a) -> Var:
    a = as_var(a)
    return Var(-a.value, (a,), _neg_vjp)


def _neg_vjp(g, out, a):
    return (neg(g),)


def power(a, p: float) -> Var:
    a = as_var(a)
    return Var(a.value ** p, (a,),
               lambda g, out, a: (mul(g, mul(p, power(a, p - 1.0))),))


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return Var(_product(a.value, b.value), (a, b), _matmul_vjp)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`, tested entrywise inside `trapped()`, since a threaded
    BLAS raises its flags on worker threads numpy never reads."""
    out = a @ b
    if _TRAPPED and not all_finite(out):
        raise NonFiniteError("non-finite matmul result")
    return out


def _matmul_vjp(g, out, a, b):
    return matmul(g, transpose(b)), matmul(transpose(a), g)


def transpose(a, axes=None) -> Var:
    a = as_var(a)
    inv = None if axes is None else tuple(np.argsort(axes))
    return Var(np.transpose(a.value, axes), (a,),
               lambda g, out, a: (transpose(g, inv),))


def reshape(a, shape) -> Var:
    a = as_var(a)
    return Var(a.value.reshape(shape), (a,), _reshape_vjp)


def _reshape_vjp(g, out, a):
    return (reshape(g, a.shape),)


def vexp(a) -> Var:
    a = as_var(a)
    return Var(np.exp(a.value), (a,), _vexp_vjp)


def _vexp_vjp(g, out, a):
    return (mul(g, out),)


def vlog(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), (a,), _vlog_vjp)


def _vlog_vjp(g, out, a):
    return (div(g, a),)


def vtanh(a) -> Var:
    a = as_var(a)
    return Var(np.tanh(a.value), (a,), _vtanh_vjp)


def _vtanh_vjp(g, out, a):
    return (mul(g, sub(1.0, mul(out, out))),)


def vsum(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)

    def vjp(g, out, a):
        if axis is not None and not keepdims:
            kd = list(a.shape)
            kd[axis] = 1
            g = reshape(g, tuple(kd))
        return (broadcast_to(g, a.shape),)

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def broadcast_to(a, shape) -> Var:
    """Read-only broadcast view; the adjoint sums back to `a`'s shape."""
    a = as_var(a)
    return Var(np.broadcast_to(a.value, shape), (a,), _broadcast_to_vjp)


def _broadcast_to_vjp(g, out, a):
    return (_unbroadcast(g, a.shape),)


def vmean(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    n = a.value.size if axis is None else a.shape[axis]
    return div(vsum(a, axis=axis, keepdims=keepdims), float(n))


def vslice(a, key) -> Var:
    """Basic-index view; the adjoint scatters back into zeros."""
    a = as_var(a)
    return Var(a.value[key], (a,), lambda g, out, a: (vscatter(g, key, a.shape),))


def _scatter_val(g: np.ndarray, key, shape) -> np.ndarray:
    buf = np.zeros(shape)
    buf[key] = g
    return buf


def vscatter(g, key, shape) -> Var:
    g = as_var(g)
    return Var(_scatter_val(g.value, key, shape), (g,),
               lambda gg, out, g: (vslice(gg, key),))


@functools.lru_cache(maxsize=32)
def _patch_index(c: int, h: int, w: int) -> np.ndarray:
    """Flat positions, in one zero-padded (c, h+2, w+2) image, of its
    patch rows (h*w, 9c), read row by row; read-only, shared by callers."""
    y = np.arange(h).reshape(h, 1, 1, 1, 1)
    x = np.arange(w).reshape(1, w, 1, 1, 1)
    ch = np.arange(c).reshape(1, 1, c, 1, 1)
    di = np.arange(3).reshape(1, 1, 1, 3, 1)
    dj = np.arange(3).reshape(1, 1, 1, 1, 3)
    index = ((ch * (h + 2) + y + di) * (w + 2) + x + dj).ravel()
    index.flags.writeable = False
    return index


def _patch_rows(v: np.ndarray) -> np.ndarray:
    """The patch rows of `im2col3`, as one gather from the zero-padded
    images, each flattened to a row of c*(h+2)*(w+2) entries."""
    n, c, h, w = v.shape
    p = np.zeros((n, c, h + 2, w + 2))
    p[:, :, 1:-1, 1:-1] = v
    return p.reshape(n, -1).take(_patch_index(c, h, w), axis=1).reshape(n * h * w, 9 * c)


def im2col3(a) -> Var:
    """3x3 same-padded patch rows: (n, c, h, w) -> (n*h*w, 9c).

    Row `(i*h + y)*w + x` holds the zero-padded 3x3 window around pixel
    (y, x) of image i; column `9*ch + 3*di + dj` is channel `ch` at
    offset (di - 1, dj - 1).  A (9c, c_out) weight matrix right-multiplies
    it directly.  Linear with exact adjoint `col2im3`; the forward pass
    convolves with `conv3x3`, whose rule calls this one.
    """
    a = as_var(a)
    if a.value.ndim != 4:
        raise ShapeError("im2col3 expects (n, c, h, w)")
    return Var(_patch_rows(a.value), (a,), _im2col3_vjp)


def _im2col3_vjp(g, out, a):
    return (col2im3(g, *a.shape[1:]),)


def col2im3(a, c: int, h: int, w: int) -> Var:
    """Adjoint of `im2col3`: patch rows (n*h*w, 9c) -> (n, c, h, w).

    Each row is added back into its window, offsets 0..8 in order.
    """
    a = as_var(a)
    g = a.value.reshape(-1, h, w, c, 9)
    acc = np.zeros((g.shape[0], h + 2, w + 2, c))
    for k in range(9):
        di, dj = divmod(k, 3)
        acc[:, di:di + h, dj:dj + w] += g[..., k]
    interior = acc[:, 1:1 + h, 1:1 + w].transpose(0, 3, 1, 2)
    return Var(np.ascontiguousarray(interior), (a,), _col2im3_vjp)


def _col2im3_vjp(g, out, a):
    return (im2col3(g),)


def conv3x3(x, w) -> Var:
    """3x3 same-padded convolution as one node: `im2col3(x) @ w`, one
    row of c_out channels per output pixel, (n*h*w, c_out).

    The same values as the two-node chain, bit for bit, but the node
    keeps no patch rows: the rule gathers them again for the weight's
    cotangent, a pure copy, and sends the input's through `col2im3`.
    The rule is written with primitives, so it is twice-differentiable.
    """
    x, w = as_var(x), as_var(w)
    if x.value.ndim != 4 or w.value.ndim != 2:
        raise ShapeError("conv3x3 expects (n, c, h, w) and (9c, c_out)")
    if w.value.shape[0] != 9 * x.value.shape[1]:
        raise ShapeError(f"conv3x3 shape mismatch {x.shape} with {w.shape}")
    return Var(_product(_patch_rows(x.value), w.value), (x, w), _conv3x3_vjp)


def _conv3x3_vjp(g, out, x, w):
    return (col2im3(matmul(g, transpose(w)), *x.shape[1:]),
            matmul(transpose(im2col3(x)), g))


def boxsum3(a) -> Var:
    """Zero-padded 3x3 box sum of each channel: (n, c, h, w) -> same shape.

    A left fold of the 9 shifted windows in offset order k = 3*di + dj =
    0..8; another order rounds differently.  Each plane is zero-padded
    and flattened row by row, with two spare zeros at the end, so that
    window k is one contiguous slice of h*(w+2) entries from
    di*(w+2) + dj; the two columns per row that wrap around are dropped.
    Linear with exact adjoint `boxspread3`.
    """
    a = as_var(a)
    if a.value.ndim != 4:
        raise ShapeError("boxsum3 expects (n, c, h, w)")
    n, c, h, w = a.shape
    r, m = w + 2, h * (w + 2)
    flat = np.zeros((n, c, (h + 2) * r + 2))
    flat[:, :, :(h + 2) * r].reshape(n, c, h + 2, r)[:, :, 1:-1, 1:-1] = a.value
    out = flat[:, :, :m].copy()
    for k in range(1, 9):
        di, dj = divmod(k, 3)
        out += flat[:, :, di * r + dj:di * r + dj + m]
    return Var(out.reshape(n, c, h, r)[..., :w], (a,), _boxsum3_vjp)


def _boxsum3_vjp(g, out, a):
    return (boxspread3(g),)


def boxspread3(a) -> Var:
    """Adjoint of `boxsum3`: adds each pixel into the 3x3 window around
    it, offsets 0..8 in order, into zeros.

    The flat slices of `boxsum3` in reverse: the rows, widened by two
    zero columns, are added at offsets di*(w+2) + dj of a flat padded
    accumulator.  The zero columns add +0.0 where the window wraps, which
    changes no sum that starts from +0.0, since such a sum is never -0.0.
    """
    a = as_var(a)
    n, c, h, w = a.shape
    r, m = w + 2, h * (w + 2)
    rows = np.zeros((n, c, h, r))
    rows[..., :w] = a.value
    rows = rows.reshape(n, c, m)
    acc = np.zeros((n, c, (h + 2) * r + 2))
    for k in range(9):
        di, dj = divmod(k, 3)
        acc[:, :, di * r + dj:di * r + dj + m] += rows
    return Var(acc[:, :, r + 1:r + 1 + m].reshape(n, c, h, r)[..., :w],
               (a,), _boxspread3_vjp)


def _boxspread3_vjp(g, out, a):
    return (boxsum3(g),)


# ------------------------------------------------------------------
# tape and backward
# ------------------------------------------------------------------

class Tape:
    """Topologically ordered single-use record of one forward pass."""

    def __init__(self, root: Var):
        self.root = root
        self.nodes = _toposort(root)
        self.consumed = False


def _toposort(root: Var) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def tape(root: Var) -> Tape:
    return Tape(root)


def backward(t: Tape, wrt: Sequence[Var] = (), create_graph: bool = False) -> list:
    """Reverse sweep over a tape; returns the gradients of `wrt`, in order.

    The sweep starts from a cotangent of ones in the root's shape and
    runs each node's VJP rule on `Var`s.  With `create_graph=True` the
    returned gradients are graph nodes that can themselves be
    differentiated.  Otherwise the sweep runs under `no_record()`, so
    it computes the same values but the gradients come back as
    constants.  Both sweeps run inside `trapped()`, which first checks
    the tape's parentless nodes.  A leaf the root does not reach gets a
    zero constant.  Tapes are single-use.
    """
    if t.consumed:
        raise TapeConsumedError("tape already used by a backward pass")
    t.consumed = True

    # Keyed by node: `Var` hashes by identity, as it defines no `__eq__`.
    want = set(wrt)
    # Only propagate through nodes that can reach a requested leaf.
    needed = set(want)
    for node in t.nodes:
        if not needed.isdisjoint(node.parents):
            needed.add(node)

    leaves = [node for node in t.nodes if not node.parents]
    with contextlib.nullcontext() if create_graph else no_record(), trapped(leaves):
        grads: dict = {t.root: const(np.ones(t.root.shape))}
        for node in reversed(t.nodes):
            g = grads.get(node)
            if g is None:
                continue
            if node.vjp is not None:
                pgrads = node.vjp(g, node, *node.parents)
                for p, pg in zip(node.parents, pgrads):
                    if p not in needed:
                        continue
                    acc = grads.get(p)
                    grads[p] = pg if acc is None else add(acc, pg)
            if node not in want:
                del grads[node]
        return [grads[v] if v in grads else const(np.zeros(v.shape)) for v in wrt]


def grad(output: Var, wrt: Sequence[Var], create_graph: bool = False) -> list:
    """Convenience: fresh tape + backward."""
    return backward(tape(output), wrt=wrt, create_graph=create_graph)


# ------------------------------------------------------------------
# Hessian-vector product
# ------------------------------------------------------------------

def hvp(loss_closure: Callable[[np.ndarray], tuple], theta: np.ndarray,
        direction: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product.

    `loss_closure(theta_flat)` must rebuild the loss and return
    `(loss Var, leaf Var)` where the leaf holds theta.  Returns
    (grad(theta + eps v) - grad(theta - eps v)) / (2 eps), flat, with
    eps = 1e-4 (1 + max |theta|).
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    v = np.asarray(direction, dtype=np.float64).ravel()
    if v.size != theta.size:
        raise ShapeError("direction length does not match parameter length")
    if v.size == 0:
        raise ShapeError("zero-length direction")
    eps = 1e-4 * (1.0 + float(np.max(np.abs(theta))))

    def g(at: np.ndarray) -> np.ndarray:
        loss, leaf = loss_closure(at)
        (gv,) = grad(loss, wrt=[leaf])
        return gv.value.ravel()

    out = (g(theta + eps * v) - g(theta - eps * v)) / (2.0 * eps)
    if not all_finite(out):
        raise NonFiniteError("non-finite Hessian-vector product")
    return out


# ------------------------------------------------------------------
# composite helpers
# ------------------------------------------------------------------

def softmax_rows(a: Var) -> Var:
    """Row-wise softmax of a 2-d Var (stable; shift is detached)."""
    shift = const(a.value.max(axis=-1, keepdims=True))
    e = vexp(sub(a, shift))
    return div(e, vsum(e, axis=a.value.ndim - 1, keepdims=True))


def cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean cross-entropy of integer labels under softmax of logits,
    computed inside its own `trapped()` region over the logits."""
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise AutodiffError(f"label out of range [0, {k})")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    with trapped([logits]):
        shift = const(logits.value.max(axis=1, keepdims=True))
        z = sub(logits, shift)
        lse = add(vlog(vsum(vexp(z), axis=1, keepdims=True)), shift)
        picked = vsum(mul(logits, const(onehot)), axis=1, keepdims=True)
        return vmean(sub(lse, picked))
