"""Minimal reverse-mode autodiff over dense float64 tensors.

Every value is a `Var` wrapping a numpy array.  Ops build an implicit
graph; `tape(root)` captures a topologically ordered, single-use record
of one forward evaluation, and `backward` replays it in reverse.  VJP
rules are themselves written in terms of `Var` ops, so gradients can be
differentiated again (needed to unroll exactly through SGD updates).

Hessian-vector products are central finite differences of exact
gradients, which is accurate enough to assemble the dense
architecture Hessian column by column and keeps the engine strictly
first-order internally.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    pass


class ShapeError(AutodiffError):
    pass


class TapeConsumedError(AutodiffError):
    pass


# Probe counter for the one-backward-per-step compute contract.
BACKWARD_CALLS = 0


class Var:
    """A node in the computation graph.

    Leaves with a `name` are parameters; leaves without one are
    constants.  `vjp` maps the output cotangent (a Var) to cotangents
    for `parents`, in order.
    """

    __slots__ = ("value", "parents", "vjp", "name", "__weakref__")

    def __init__(self, value, parents=(), vjp=None, name=None):
        v = np.asarray(value, dtype=np.float64)
        # a finite sum proves every entry finite; only a sum that is not
        # (an overflow, or a true inf/nan) needs the entrywise test
        if not math.isfinite(v.sum()) and not np.isfinite(v).all():
            raise NonFiniteError(f"non-finite value in {'node' if name is None else name}")
        self.value = v
        self.parents = tuple(parents)
        self.vjp = vjp
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

    @property
    def T(self):
        return transpose(self)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def const(x) -> Var:
    """An untracked constant (gradient never requested)."""
    return Var(x)


def param(x, name: str) -> Var:
    """A named leaf parameter."""
    return Var(x, name=name)


# ------------------------------------------------------------------
# primitives
# ------------------------------------------------------------------

def _unbroadcast(g: Var, shape: tuple) -> Var:
    """Reduce a broadcasted cotangent back to `shape`."""
    while g.value.ndim > len(shape):
        g = vsum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.value.shape[ax] != 1:
            g = vsum(g, axis=ax, keepdims=True)
    return g


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b))
    out.vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value, (a, b))
    out.vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(neg(g), b.shape))
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b))
    out.vjp = lambda g: (_unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape))
    return out


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value / b.value, (a, b))
    out.vjp = lambda g: (
        _unbroadcast(div(g, b), a.shape),
        _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
    )
    return out


def neg(a) -> Var:
    a = as_var(a)
    out = Var(-a.value, (a,))
    out.vjp = lambda g: (neg(g),)
    return out


def power(a, p: float) -> Var:
    a = as_var(a)
    out = Var(a.value ** p, (a,))
    out.vjp = lambda g: (mul(g, mul(const(p), power(a, p - 1.0))),)
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out = Var(a.value @ b.value, (a, b))
    out.vjp = lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g))
    return out


def transpose(a, axes=None) -> Var:
    a = as_var(a)
    out = Var(np.transpose(a.value, axes), (a,))
    inv = None if axes is None else tuple(np.argsort(axes))
    out.vjp = lambda g: (transpose(g, inv),)
    return out


def reshape(a, shape) -> Var:
    a = as_var(a)
    out = Var(a.value.reshape(shape), (a,))
    out.vjp = lambda g: (reshape(g, a.shape),)
    return out


def vexp(a) -> Var:
    a = as_var(a)
    out = Var(np.exp(a.value), (a,))
    out.vjp = lambda g: (mul(g, out),)
    return out


def vlog(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.value), (a,))
    out.vjp = lambda g: (div(g, a),)
    return out


def vtanh(a) -> Var:
    a = as_var(a)
    out = Var(np.tanh(a.value), (a,))
    out.vjp = lambda g: (mul(g, sub(const(1.0), mul(out, out))),)
    return out


def vsum(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    out = Var(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        gv = g
        if axis is not None and not keepdims:
            kd = list(a.shape)
            kd[axis] = 1
            gv = reshape(gv, tuple(kd))
        return (mul(gv, const(np.ones(a.shape))),)

    out.vjp = vjp
    return out


def vmean(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    n = a.value.size if axis is None else a.shape[axis]
    return div(vsum(a, axis=axis, keepdims=keepdims), const(float(n)))


def vslice(a, key) -> Var:
    """Basic-index view; the adjoint scatters back into zeros."""
    a = as_var(a)
    out = Var(a.value[key], (a,))
    out.vjp = lambda g: (vscatter(g, key, a.shape),)
    return out


def vscatter(g, key, shape) -> Var:
    g = as_var(g)
    buf = np.zeros(shape)
    buf[key] = g.value
    out = Var(buf, (g,))
    out.vjp = lambda gg: (vslice(gg, key),)
    return out


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
    n, c, h, w = a.shape
    out = Var(_im2col3_val(a.value), (a,))
    out.vjp = lambda g: (col2im3(g, c, h, w),)
    return out


def col2im3(a, c: int, h: int, w: int) -> Var:
    a = as_var(a)
    out = Var(_col2im3_val(a.value, c, h, w), (a,))
    out.vjp = lambda g: (im2col3(g),)
    return out


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
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def tape(root: Var) -> Tape:
    return Tape(root)


class GradMap:
    """Gradients keyed by Var identity, with name-based access."""

    def __init__(self, grads: dict, wrt: Sequence[Var]):
        self._grads = grads
        self._wrt = list(wrt)

    def get(self, v: Var) -> Var:
        g = self._grads.get(id(v))
        if g is None:
            g = const(np.zeros(v.shape))
        return g

    def array(self, v: Var) -> np.ndarray:
        return self.get(v).value

    def by_name(self) -> dict:
        return {v.name: self.array(v) for v in self._wrt if v.name is not None}

    def __iter__(self):
        return iter(self._wrt)


def backward(t: Tape, seed=None, wrt: Sequence[Var] = (), create_graph: bool = False) -> GradMap:
    """Reverse sweep over a tape; returns gradients for `wrt`.

    With `create_graph=True` the returned gradients are graph nodes
    that can themselves be differentiated.  Tapes are single-use.
    """
    global BACKWARD_CALLS
    if t.consumed:
        raise TapeConsumedError("tape already used by a backward pass")
    t.consumed = True
    BACKWARD_CALLS += 1

    root = t.root
    if seed is None:
        seed = const(np.ones(root.shape))
    seed = as_var(seed)
    if seed.shape != root.shape:
        raise ShapeError(f"seed shape {seed.shape} != output shape {root.shape}")

    want = set(id(v) for v in wrt)
    # Only propagate through nodes that can reach a requested leaf.
    needed: set = set(want)
    for node in t.nodes:
        if any(id(p) in needed for p in node.parents):
            needed.add(id(node))

    grads: dict = {id(root): seed}
    for node in reversed(t.nodes):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.vjp is not None:
            pgrads = node.vjp(g)
            for p, pg in zip(node.parents, pgrads):
                if pg is None or id(p) not in needed:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else add(acc, pg)
        if id(node) not in want:
            del grads[id(node)]

    out = {id(v): grads[id(v)] for v in wrt if id(v) in grads}
    if not create_graph:
        # Detach so the unrolled graph can be freed.
        out = {k: const(v.value) for k, v in out.items()}
    return GradMap(out, wrt)


def grad(output: Var, wrt: Sequence[Var], seed=None, create_graph: bool = False) -> list:
    """Convenience: fresh tape + backward, returning grads in order."""
    gm = backward(tape(output), seed=seed, wrt=wrt, create_graph=create_graph)
    return [gm.get(v) for v in wrt]


# ------------------------------------------------------------------
# Hessian-vector product
# ------------------------------------------------------------------

def default_fd_eps(theta: np.ndarray) -> float:
    scale = float(np.max(np.abs(theta))) if theta.size else 0.0
    return 1e-4 * (1.0 + scale)


def hvp(loss_closure: Callable[[np.ndarray], tuple], theta: np.ndarray,
        direction: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Central-difference Hessian-vector product.

    `loss_closure(theta_flat)` must rebuild the loss and return
    `(loss Var, leaf Var)` where the leaf holds theta.  Returns
    (grad(theta + eps v) - grad(theta - eps v)) / (2 eps), flat.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    v = np.asarray(direction, dtype=np.float64).ravel()
    if v.size != theta.size:
        raise ShapeError("direction length does not match parameter length")
    if v.size == 0:
        raise ShapeError("zero-length direction")
    if eps is None:
        eps = default_fd_eps(theta)
    if eps <= 0:
        raise AutodiffError("epsilon must be positive")

    def g(at: np.ndarray) -> np.ndarray:
        loss, leaf = loss_closure(at)
        (gv,) = grad(loss, wrt=[leaf])
        return gv.value.ravel()

    out = (g(theta + eps * v) - g(theta - eps * v)) / (2.0 * eps)
    if not np.all(np.isfinite(out)):
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
