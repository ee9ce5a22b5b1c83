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

Each primitive has one VJP rule, written against a kernel `k` that
`backward` hands it together with the node and its operands.  A
graph-building sweep (`create_graph=True`) passes this module's own
`Var` primitives, so the gradients are graph nodes that can be
differentiated again (needed to unroll exactly through SGD updates).
A detached sweep passes `_ArrayKernel`, which runs the same numpy
expressions in the same order on plain arrays and puts every value it
makes through the finiteness test `Var` uses, so both sweeps give the
same gradients bit for bit while the detached one records nothing.

Inside `with no_record():` the primitives compute and check the same
values, but a `Var` keeps no parents and no rule, so each intermediate
array is freed as soon as nothing refers to it.  It is the forward for
values that are read and never differentiated (held-out accuracy, the
last loss of a replay); read `.value` inside the block, since a `Var`
made there is a constant to any later `backward`.

Hessian-vector products are central differences of two detached
gradients, accurate enough to assemble the dense architecture Hessian
column by column; exact second derivatives come from differentiating
a graph-building sweep, as the exact unrolled hypergradients do.
"""

from __future__ import annotations

import contextlib
import math
import sys
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

    A finite sum proves every entry finite; only a sum that is not (an
    overflow, or a true inf/nan) needs the entrywise test.
    """
    return math.isfinite(v.sum()) or bool(np.isfinite(v).all())


def _checked(value, name=None) -> np.ndarray:
    """`value` as a float64 array; NonFiniteError if an entry is not finite."""
    v = np.asarray(value, dtype=np.float64)
    if not all_finite(v):
        raise NonFiniteError(f"non-finite value in {'node' if name is None else name}")
    return v


class Var:
    """A node in the computation graph.

    Leaves with a `name` are parameters; leaves without one are
    constants.  `vjp(k, g, out, *operands)` is the op's VJP rule: with
    kernel `k` it maps the output cotangent `g` to cotangents for
    `parents`, in order.  `out` and `operands` are this node and its
    parents: the Vars themselves for the Var kernel, their arrays for
    the array kernel.
    """

    __slots__ = ("value", "parents", "vjp", "name", "__weakref__")

    def __init__(self, value, parents=(), vjp=None, name=None):
        self.value = _checked(value, name)
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


def _checked_const(v: np.ndarray) -> Var:
    """A constant around a finite float64 array, without testing it again."""
    out = Var.__new__(Var)
    out.value, out.parents, out.vjp, out.name = v, (), None, None
    return out


# ------------------------------------------------------------------
# primitives, each followed by its one VJP rule
# ------------------------------------------------------------------

# Operands kept as node attributes rather than graph leaves.
_SCALAR = (int, float)


def _unbroadcast(k, g, shape: tuple):
    """Reduce a broadcasted cotangent back to `shape`."""
    while len(g.shape) > len(shape):
        g = k.vsum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = k.vsum(g, axis=ax, keepdims=True)
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


def _add_vjp(k, g, out, a, b):
    return _unbroadcast(k, g, a.shape), _unbroadcast(k, g, b.shape)


def _pass_vjp(k, g, out, a):
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


def _sub_vjp(k, g, out, a, b):
    return _unbroadcast(k, g, a.shape), _unbroadcast(k, k.neg(g), b.shape)


def mul(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value * b, (a,), lambda k, g, out, a: (k.mul(g, b),))
    if isinstance(a, _SCALAR):
        c, b = a, as_var(b)
        return Var(c * b.value, (b,), lambda k, g, out, b: (k.mul(g, c),))
    a, b = as_var(a), as_var(b)
    return Var(a.value * b.value, (a, b), _mul_vjp)


def _mul_vjp(k, g, out, a, b):
    return (_unbroadcast(k, k.mul(g, b), a.shape),
            _unbroadcast(k, k.mul(g, a), b.shape))


def div(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        return Var(a.value / b, (a,), lambda k, g, out, a: (k.div(g, b),))
    if isinstance(a, _SCALAR):
        c, b = a, as_var(b)
        return Var(c / b.value, (b,),
                   lambda k, g, out, b: (k.neg(k.div(k.mul(g, c), k.mul(b, b))),))
    a, b = as_var(a), as_var(b)
    return Var(a.value / b.value, (a, b), _div_vjp)


def _div_vjp(k, g, out, a, b):
    return (_unbroadcast(k, k.div(g, b), a.shape),
            _unbroadcast(k, k.neg(k.div(k.mul(g, a), k.mul(b, b))), b.shape))


def neg(a) -> Var:
    a = as_var(a)
    return Var(-a.value, (a,), _neg_vjp)


def _neg_vjp(k, g, out, a):
    return (k.neg(g),)


def power(a, p: float) -> Var:
    a = as_var(a)
    return Var(a.value ** p, (a,),
               lambda k, g, out, a: (k.mul(g, k.mul(p, k.power(a, p - 1.0))),))


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return Var(a.value @ b.value, (a, b), _matmul_vjp)


def _matmul_vjp(k, g, out, a, b):
    return k.matmul(g, k.transpose(b)), k.matmul(k.transpose(a), g)


def transpose(a, axes=None) -> Var:
    a = as_var(a)
    inv = None if axes is None else tuple(np.argsort(axes))
    return Var(np.transpose(a.value, axes), (a,),
               lambda k, g, out, a: (k.transpose(g, inv),))


def reshape(a, shape) -> Var:
    a = as_var(a)
    return Var(a.value.reshape(shape), (a,), _reshape_vjp)


def _reshape_vjp(k, g, out, a):
    return (k.reshape(g, a.shape),)


def vexp(a) -> Var:
    a = as_var(a)
    return Var(np.exp(a.value), (a,), _vexp_vjp)


def _vexp_vjp(k, g, out, a):
    return (k.mul(g, out),)


def vlog(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), (a,), _vlog_vjp)


def _vlog_vjp(k, g, out, a):
    return (k.div(g, a),)


def vtanh(a) -> Var:
    a = as_var(a)
    return Var(np.tanh(a.value), (a,), _vtanh_vjp)


def _vtanh_vjp(k, g, out, a):
    return (k.mul(g, k.sub(1.0, k.mul(out, out))),)


def vsum(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)

    def vjp(k, g, out, a):
        if axis is not None and not keepdims:
            kd = list(a.shape)
            kd[axis] = 1
            g = k.reshape(g, tuple(kd))
        return (k.broadcast_to(g, a.shape),)

    return Var(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def broadcast_to(a, shape) -> Var:
    """Read-only broadcast view; the adjoint sums back to `a`'s shape."""
    a = as_var(a)
    return Var(np.broadcast_to(a.value, shape), (a,), _broadcast_to_vjp)


def _broadcast_to_vjp(k, g, out, a):
    return (_unbroadcast(k, g, a.shape),)


def vmean(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    n = a.value.size if axis is None else a.shape[axis]
    return div(vsum(a, axis=axis, keepdims=keepdims), float(n))


def vslice(a, key) -> Var:
    """Basic-index view; the adjoint scatters back into zeros."""
    a = as_var(a)
    return Var(a.value[key], (a,), lambda k, g, out, a: (k.vscatter(g, key, a.shape),))


def _scatter_val(g: np.ndarray, key, shape) -> np.ndarray:
    buf = np.zeros(shape)
    buf[key] = g
    return buf


def vscatter(g, key, shape) -> Var:
    g = as_var(g)
    return Var(_scatter_val(g.value, key, shape), (g,),
               lambda k, gg, out, g: (k.vslice(gg, key),))


def _im2col3_val(v: np.ndarray) -> np.ndarray:
    n, c, h, w = v.shape
    p = np.pad(v, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, 9, h, w))
    idx = 0
    for di in range(3):
        for dj in range(3):
            cols[:, :, idx] = p[:, :, di:di + h, dj:dj + w]
            idx += 1
    return cols.reshape(n, c * 9, h, w)


def _col2im3_val(g: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    n = g.shape[0]
    gc = g.reshape(n, c, 9, h, w)
    out = np.zeros((n, c, h + 2, w + 2))
    idx = 0
    for di in range(3):
        for dj in range(3):
            out[:, :, di:di + h, dj:dj + w] += gc[:, :, idx]
            idx += 1
    return out[:, :, 1:1 + h, 1:1 + w]


def im2col3(a) -> Var:
    """3x3 same-padded patch extraction: (n,c,h,w) -> (n, 9c, h, w).

    Linear with exact adjoint `col2im3`, so convolution reduces to a
    matmul over patches and stays twice-differentiable.
    """
    a = as_var(a)
    if a.value.ndim != 4:
        raise ShapeError("im2col3 expects (n, c, h, w)")
    return Var(_im2col3_val(a.value), (a,), _im2col3_vjp)


def _im2col3_vjp(k, g, out, a):
    return (k.col2im3(g, *a.shape[1:]),)


def col2im3(a, c: int, h: int, w: int) -> Var:
    a = as_var(a)
    return Var(_col2im3_val(a.value, c, h, w), (a,), _col2im3_vjp)


def _col2im3_vjp(k, g, out, a):
    return (k.im2col3(g),)


class _ArrayKernel:
    """The primitives a VJP rule may call, on plain arrays.

    Each one computes what the `Var` primitive of the same name puts in
    `.value`, with the same numpy expression, and checks it with the
    same `_checked`; it records no parents and no rule.
    """

    @staticmethod
    def add(a, b):
        return _checked(a + b)

    @staticmethod
    def sub(a, b):
        return _checked(a - b)

    @staticmethod
    def mul(a, b):
        return _checked(a * b)

    @staticmethod
    def div(a, b):
        return _checked(a / b)

    @staticmethod
    def neg(a):
        return _checked(-a)

    @staticmethod
    def power(a, p):
        return _checked(a ** p)

    @staticmethod
    def matmul(a, b):
        return _checked(a @ b)

    @staticmethod
    def transpose(a, axes=None):
        return _checked(np.transpose(a, axes))

    @staticmethod
    def reshape(a, shape):
        return _checked(a.reshape(shape))

    @staticmethod
    def vsum(a, axis=None, keepdims=False):
        return _checked(a.sum(axis=axis, keepdims=keepdims))

    @staticmethod
    def broadcast_to(a, shape):
        return _checked(np.broadcast_to(a, shape))

    @staticmethod
    def vslice(a, key):
        return _checked(a[key])

    @staticmethod
    def vscatter(g, key, shape):
        return _checked(_scatter_val(g, key, shape))

    @staticmethod
    def im2col3(a):
        return _checked(_im2col3_val(a))

    @staticmethod
    def col2im3(a, c, h, w):
        return _checked(_col2im3_val(a, c, h, w))


# The kernel of graph-building sweeps: this module, so that a rule's
# `k.mul` finds whatever `mul` the module holds when it runs.
_VAR_KERNEL = sys.modules[__name__]


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

    The sweep starts from a cotangent of ones in the root's shape.
    With `create_graph=True` the VJP rules run on `Var`s and the
    returned gradients are graph nodes that can themselves be
    differentiated.  Otherwise they run on plain arrays, each value
    checked as a `Var` would be, and the gradients come back as
    constants around those arrays, not checked a second time.  A leaf
    the root does not reach gets a zero constant.  Tapes are single-use.
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

    k = _VAR_KERNEL if create_graph else _ArrayKernel
    ones = np.ones(t.root.shape)
    grads: dict = {t.root: const(ones) if create_graph else ones}
    for node in reversed(t.nodes):
        g = grads.get(node)
        if g is None:
            continue
        if node.vjp is not None:
            if create_graph:
                pgrads = node.vjp(k, g, node, *node.parents)
            else:
                pgrads = node.vjp(k, g, node.value, *[p.value for p in node.parents])
            for p, pg in zip(node.parents, pgrads):
                if p not in needed:
                    continue
                acc = grads.get(p)
                grads[p] = pg if acc is None else k.add(acc, pg)
        if node not in want:
            del grads[node]

    out = []
    for v in wrt:
        g = grads.get(v)
        if g is None:
            out.append(_checked_const(np.zeros(v.shape)))
        else:
            out.append(g if create_graph else _checked_const(g))
    return out


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
    """Mean cross-entropy of integer labels under softmax of logits."""
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise AutodiffError(f"label out of range [0, {k})")
    shift = const(logits.value.max(axis=1, keepdims=True))
    z = sub(logits, shift)
    lse = add(vlog(vsum(vexp(z), axis=1, keepdims=True)), shift)
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    picked = vsum(mul(logits, const(onehot)), axis=1, keepdims=True)
    return vmean(sub(lse, picked))
