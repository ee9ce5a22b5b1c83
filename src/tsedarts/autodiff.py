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
values, bit for bit, while it records nothing.  Either sweep computes
only the cotangents of nodes that reach a requested leaf: a two-parent
rule gets a need flag per parent and skips the cotangent of a parent
that does not, so a sweep over alpha alone makes no weight cotangent.
`vmean` is one node, valued and differentiated as `div(vsum(a), n)`.

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

A training step that runs many times on arrays of the same shapes can
be recorded once and replayed (`record`, `Plan`).  Recording runs the
step on `Var`s as usual, forward and detached sweep alike, and notes
every value function a primitive calls (`np.add`, `_product`,
`_patch_rows`, ...), with its operand slots and static operands, in
order.  A constant derived from the step's leaves or inputs (the batch,
the one-hot labels, the detached max-shifts of a softmax and of a
log-sum-exp) is made by `derived`, so the plan computes and tests it
again; only shape-fixed constants (a cotangent of ones, a zero gradient,
a fixed matrix) are kept.  A replay runs the noted calls on the leaves'
current values and new inputs, as one flat loop inside `trapped()`, with
the entry tests of the leaves and of the derived constants where the
recorded step made them, so it computes and checks the same values, bit
for bit, and raises the same `NonFiniteError` at the same call.  Each
slot is freed after its last use.

`planned(step, leaves)` holds the plan of a step that a round or an
estimate runs many times: a call on inputs of the shapes of its last
recording replays it, and any other call records it, or runs it on
`Var`s when no later call will replay it, since a recording costs about
two and a half steps.  Three routes run through it: the SGD steps of a
tse-darts window and of its retrain (`optim._sgd_steps`), the train and
validation steps of a darts-1st epoch (`optim.darts_first_order_round`),
and the 2n alpha-gradients of one eigenvalue estimate
(`diagnostics.alpha_gradient`, recorded once in each process that
computes Hessian columns).  Graph-building sweeps, a single `grad` and
the replay oracles stay on `Var`s, so the oracles stay independent of
the code they check.  A replayed step calls no primitive, `tape` or
`backward`, so counts taken by wrapping those (perfbench's
`--trace 1`) see only the recorded steps.

Hessian-vector products are central differences of two detached
gradients, given as a gradient function, accurate enough to assemble
the dense architecture Hessian column by column; exact second
derivatives come from differentiating a graph-building sweep, as the
exact unrolled hypergradients do.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import weakref
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
# numpy's one float64 dtype object, which float64 op results carry
_F64 = np.dtype(np.float64)
# The `Plan` being recorded, or None (see `record`).
_PLAN = None


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


def _test_finite(labels: tuple, *values):
    """One test over all `values`; only a failure looks for the first
    non-finite one, to name it by its entry of `labels`."""
    if values and not all_finite(np.concatenate([v.ravel() for v in values])):
        bad = next(k for k, v in zip(labels, values) if not all_finite(v))
        raise NonFiniteError(f"non-finite value in {bad}")


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
    if _PLAN is not None:
        _PLAN.test(leaves)
    _test_finite(tuple('leaf' if v.name is None else v.name for v in leaves),
                 *[v.value for v in leaves])
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
    constants.  `parents` is a tuple, kept as given.  `vjp(g, out, a)`
    (one parent) or `vjp(g, out, a, b, need)` (two parents) is the op's
    VJP rule: it maps the output cotangent `g` to cotangents for
    `parents`, in order, with this module's primitives.  `out` and
    `a`, `b` are this node and its parents; `need` holds one flag per
    parent, and a two-parent rule returns None in place of the
    cotangent of a parent whose flag is False.  Every value is checked
    for finiteness here, except an op result inside `trapped()`, which
    numpy's flags guard.
    """

    __slots__ = ("value", "parents", "vjp", "name", "__weakref__")

    def __init__(self, value, parents=(), vjp=None, name=None):
        # an op result is already a float64 ndarray, kept without a call
        v = value if type(value) is np.ndarray and value.dtype is _F64 else \
            np.asarray(value, dtype=np.float64)
        if not (_TRAPPED and parents) and not all_finite(v):
            raise NonFiniteError(f"non-finite value in {'node' if name is None else name}")
        self.value = v
        if _RECORDING:
            self.parents = parents
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


def derived(fn, *args) -> Var:
    """The constant `fn(*args)`, where `args` are `Var`s (read by value),
    the inputs of a step being recorded, or static operands: a detached
    value that a plan computes again, and tests, on every replay."""
    out = Var(fn(*[a.value if isinstance(a, Var) else a for a in args]))
    return out if _PLAN is None else _PLAN.derived(out, fn, *args)


# ------------------------------------------------------------------
# primitives, each followed by its one VJP rule
# ------------------------------------------------------------------

# Operands kept as node attributes rather than graph leaves.
_SCALAR = (int, float)


def _unbroadcast(g, shape: tuple):
    """Reduce a broadcasted cotangent back to `shape`."""
    if g.value.shape == shape:
        return g
    while len(g.shape) > len(shape):
        g = vsum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = vsum(g, axis=ax, keepdims=True)
    return g


# Each primitive computes its value with one call, `fn(operands)`, and
# a plan being recorded notes that call: `_PLAN.op(out, fn, operands)`.

def add(a, b) -> Var:
    if not (isinstance(a, Var) and isinstance(b, Var)):
        if isinstance(b, _SCALAR):
            a = as_var(a)
            out = Var(a.value + b, (a,), _pass_vjp)
            return out if _PLAN is None else _PLAN.op(out, operator.add, a, b)
        if isinstance(a, _SCALAR):
            b = as_var(b)
            out = Var(a + b.value, (b,), _pass_vjp)
            return out if _PLAN is None else _PLAN.op(out, operator.add, a, b)
        a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b), _add_vjp)
    return out if _PLAN is None else _PLAN.op(out, operator.add, a, b)


def _add_vjp(g, out, a, b, need):
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None)


def _pass_vjp(g, out, a):
    return (g,)


def sub(a, b) -> Var:
    if not (isinstance(a, Var) and isinstance(b, Var)):
        if isinstance(b, _SCALAR):
            a = as_var(a)
            out = Var(a.value - b, (a,), _pass_vjp)
            return out if _PLAN is None else _PLAN.op(out, operator.sub, a, b)
        if isinstance(a, _SCALAR):
            b = as_var(b)
            out = Var(a - b.value, (b,), _neg_vjp)
            return out if _PLAN is None else _PLAN.op(out, operator.sub, a, b)
        a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value, (a, b), _sub_vjp)
    return out if _PLAN is None else _PLAN.op(out, operator.sub, a, b)


def _sub_vjp(g, out, a, b, need):
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(neg(g), b.shape) if need[1] else None)


def mul(a, b) -> Var:
    if not (isinstance(a, Var) and isinstance(b, Var)):
        if isinstance(b, _SCALAR):
            a = as_var(a)
            out = Var(a.value * b, (a,), lambda g, out, a: (mul(g, b),))
            return out if _PLAN is None else _PLAN.op(out, operator.mul, a, b)
        if isinstance(a, _SCALAR):
            c, b = a, as_var(b)
            out = Var(c * b.value, (b,), lambda g, out, b: (mul(g, c),))
            return out if _PLAN is None else _PLAN.op(out, operator.mul, c, b)
        a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b), _mul_vjp)
    return out if _PLAN is None else _PLAN.op(out, operator.mul, a, b)


def _mul_vjp(g, out, a, b, need):
    return (_unbroadcast(mul(g, b), a.shape) if need[0] else None,
            _unbroadcast(mul(g, a), b.shape) if need[1] else None)


def div(a, b) -> Var:
    if isinstance(b, _SCALAR):
        a = as_var(a)
        out = Var(a.value / b, (a,), lambda g, out, a: (div(g, b),))
        return out if _PLAN is None else _PLAN.op(out, operator.truediv, a, b)
    if isinstance(a, _SCALAR):
        c, b = a, as_var(b)
        out = Var(c / b.value, (b,), lambda g, out, b: (neg(div(mul(g, c), mul(b, b))),))
        return out if _PLAN is None else _PLAN.op(out, operator.truediv, c, b)
    a, b = as_var(a), as_var(b)
    out = Var(a.value / b.value, (a, b), _div_vjp)
    return out if _PLAN is None else _PLAN.op(out, operator.truediv, a, b)


def _div_vjp(g, out, a, b, need):
    return (_unbroadcast(div(g, b), a.shape) if need[0] else None,
            _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape) if need[1] else None)


def neg(a) -> Var:
    a = as_var(a)
    out = Var(-a.value, (a,), _neg_vjp)
    return out if _PLAN is None else _PLAN.op(out, operator.neg, a)


def _neg_vjp(g, out, a):
    return (neg(g),)


def power(a, p: float) -> Var:
    a = as_var(a)
    out = Var(a.value ** p, (a,), lambda g, out, a: (mul(g, mul(p, power(a, p - 1.0))),))
    return out if _PLAN is None else _PLAN.op(out, operator.pow, a, p)


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out = Var(_product(a.value, b.value), (a, b), _matmul_vjp)
    return out if _PLAN is None else _PLAN.op(out, _product, a, b)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`, tested entrywise inside `trapped()`, since a threaded
    BLAS raises its flags on worker threads numpy never reads."""
    out = a @ b
    if _TRAPPED and not all_finite(out):
        raise NonFiniteError("non-finite matmul result")
    return out


def _matmul_vjp(g, out, a, b, need):
    return (matmul(g, transpose(b)) if need[0] else None,
            matmul(transpose(a), g) if need[1] else None)


def transpose(a, axes=None) -> Var:
    a = as_var(a)
    inv = None if axes is None else tuple(np.argsort(axes))
    out = Var(a.value.transpose(axes), (a,), lambda g, out, a: (transpose(g, inv),))
    return out if _PLAN is None else _PLAN.op(out, np.ndarray.transpose, a, axes)


def reshape(a, shape) -> Var:
    a = as_var(a)
    out = Var(a.value.reshape(shape), (a,), _reshape_vjp)
    return out if _PLAN is None else _PLAN.op(out, np.ndarray.reshape, a, shape)


def _reshape_vjp(g, out, a):
    return (reshape(g, a.shape),)


def vexp(a) -> Var:
    a = as_var(a)
    out = Var(np.exp(a.value), (a,), _vexp_vjp)
    return out if _PLAN is None else _PLAN.op(out, np.exp, a)


def _vexp_vjp(g, out, a):
    return (mul(g, out),)


def vlog(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.value), (a,), _vlog_vjp)
    return out if _PLAN is None else _PLAN.op(out, np.log, a)


def _vlog_vjp(g, out, a):
    return (div(g, a),)


def vtanh(a) -> Var:
    a = as_var(a)
    out = Var(np.tanh(a.value), (a,), _vtanh_vjp)
    return out if _PLAN is None else _PLAN.op(out, np.tanh, a)


def _vtanh_vjp(g, out, a):
    return (mul(g, sub(1.0, mul(out, out))),)


def _spread(g, shape: tuple, axis, keepdims: bool):
    """Adjoint of a sum over `axis` of an array of `shape`: `g`, with
    the summed axis put back, broadcast to `shape`."""
    if axis is not None and not keepdims:
        kd = list(shape)
        kd[axis] = 1
        g = reshape(g, tuple(kd))
    return broadcast_to(g, shape)


def vsum(a, axis=None, keepdims=False) -> Var:
    # np.add.reduce is the reduction ndarray.sum runs, without its Python
    # frame; its operands (array, axis, dtype, out, keepdims) by position
    a = as_var(a)
    out = Var(np.add.reduce(a.value, axis, None, None, keepdims), (a,),
              lambda g, out, a: (_spread(g, a.shape, axis, keepdims),))
    if _PLAN is None:
        return out
    return _PLAN.op(out, np.add.reduce, a, axis, None, None, keepdims)


def broadcast_to(a, shape) -> Var:
    """Read-only broadcast view (see `_broadcast`); the adjoint sums back
    to `a`'s shape."""
    a = as_var(a)
    out = Var(_broadcast(a.value, shape), (a,), _broadcast_to_vjp)
    return out if _PLAN is None else _PLAN.op(out, _broadcast, a, shape)


def _broadcast(v: np.ndarray, shape: tuple) -> np.ndarray:
    """`v` broadcast to `shape` as a read-only view, built from strides
    (0 repeats an axis of length 1) without numpy's Python-level
    `np.broadcast_to`: the same view for a C-contiguous `v`, which any
    other `v` is copied to first."""
    v = v if v.flags.c_contiguous else v.copy()
    lead = len(shape) - v.ndim
    if lead < 0:
        raise ShapeError(f"cannot broadcast {v.shape} to {shape}")
    strides = [0] * lead
    for n, m, step in zip(v.shape, shape[lead:], v.strides):
        if n != m and n != 1:
            raise ShapeError(f"cannot broadcast {v.shape} to {shape}")
        strides.append(step if n == m else 0)
    out = np.ndarray(shape, _F64, v, 0, tuple(strides))
    out.flags.writeable = False
    return out


def _broadcast_to_vjp(g, out, a):
    return (_unbroadcast(g, a.shape),)


def vmean(a, axis=None, keepdims=False) -> Var:
    """One node, valued as `div(vsum(a, axis, keepdims), n)` bit for bit,
    with n the count of entries averaged; its rule is that chain's."""
    a = as_var(a)
    n = float(a.value.size if axis is None else a.shape[axis])
    out = Var(_mean(a.value, axis, keepdims, n), (a,),
              lambda g, out, a: (_spread(div(g, n), a.shape, axis, keepdims),))
    return out if _PLAN is None else _PLAN.op(out, _mean, a, axis, keepdims, n)


def _mean(v: np.ndarray, axis, keepdims: bool, n: float) -> np.ndarray:
    return np.add.reduce(v, axis, None, None, keepdims) / n


def vslice(a, key) -> Var:
    """Basic-index view; the adjoint scatters back into zeros."""
    a = as_var(a)
    out = Var(a.value[key], (a,), lambda g, out, a: (vscatter(g, key, a.shape),))
    return out if _PLAN is None else _PLAN.op(out, operator.getitem, a, key)


def _scatter_val(g: np.ndarray, key, shape) -> np.ndarray:
    buf = np.zeros(shape)
    buf[key] = g
    return buf


def vscatter(g, key, shape) -> Var:
    g = as_var(g)
    out = Var(_scatter_val(g.value, key, shape), (g,),
              lambda gg, out, g: (vslice(gg, key),))
    return out if _PLAN is None else _PLAN.op(out, _scatter_val, g, key, shape)


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
    out = Var(_patch_rows(a.value), (a,), _im2col3_vjp)
    return out if _PLAN is None else _PLAN.op(out, _patch_rows, a)


def _im2col3_vjp(g, out, a):
    return (col2im3(g, *a.shape[1:]),)


def col2im3(a, c: int, h: int, w: int) -> Var:
    """Adjoint of `im2col3`: patch rows (n*h*w, 9c) -> (n, c, h, w)."""
    a = as_var(a)
    out = Var(_patch_sum(a.value, c, h, w), (a,), _col2im3_vjp)
    return out if _PLAN is None else _PLAN.op(out, _patch_sum, a, c, h, w)


def _patch_sum(v: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """Each patch row added back into its window, offsets 0..8 in order."""
    g = v.reshape(-1, h, w, c, 9)
    acc = np.zeros((g.shape[0], h + 2, w + 2, c))
    for k in range(9):
        di, dj = divmod(k, 3)
        acc[:, di:di + h, dj:dj + w] += g[..., k]
    return np.ascontiguousarray(acc[:, 1:1 + h, 1:1 + w].transpose(0, 3, 1, 2))


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
    out = Var(_conv(x.value, w.value), (x, w), _conv3x3_vjp)
    return out if _PLAN is None else _PLAN.op(out, _conv, x, w)


def _conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _product(_patch_rows(x), w)


def _conv3x3_vjp(g, out, x, w, need):
    return (col2im3(matmul(g, transpose(w)), *x.shape[1:]) if need[0] else None,
            matmul(transpose(im2col3(x)), g) if need[1] else None)


def boxsum3(a) -> Var:
    """Zero-padded 3x3 box sum of each channel: (n, c, h, w) -> same
    shape (see `_box_sum`).  Linear with exact adjoint `boxspread3`."""
    a = as_var(a)
    if a.value.ndim != 4:
        raise ShapeError("boxsum3 expects (n, c, h, w)")
    out = Var(_box_sum(a.value), (a,), _boxsum3_vjp)
    return out if _PLAN is None else _PLAN.op(out, _box_sum, a)


def _box_sum(v: np.ndarray) -> np.ndarray:
    """A left fold of the 9 shifted windows in offset order k = 3*di + dj =
    0..8; another order rounds differently.  Each plane is zero-padded
    and flattened row by row, with two spare zeros at the end, so that
    window k is one contiguous slice of h*(w+2) entries from
    di*(w+2) + dj; the two columns per row that wrap around are dropped.
    """
    n, c, h, w = v.shape
    r, m = w + 2, h * (w + 2)
    flat = np.zeros((n, c, (h + 2) * r + 2))
    flat[:, :, :(h + 2) * r].reshape(n, c, h + 2, r)[:, :, 1:-1, 1:-1] = v
    out = flat[:, :, :m].copy()
    for k in range(1, 9):
        di, dj = divmod(k, 3)
        out += flat[:, :, di * r + dj:di * r + dj + m]
    return out.reshape(n, c, h, r)[..., :w]


def _boxsum3_vjp(g, out, a):
    return (boxspread3(g),)


def boxspread3(a) -> Var:
    """Adjoint of `boxsum3`: adds each pixel into the 3x3 window around
    it, offsets 0..8 in order, into zeros (see `_box_spread`)."""
    a = as_var(a)
    out = Var(_box_spread(a.value), (a,), _boxspread3_vjp)
    return out if _PLAN is None else _PLAN.op(out, _box_spread, a)


def _box_spread(v: np.ndarray) -> np.ndarray:
    """The flat slices of `_box_sum` in reverse: the rows, widened by two
    zero columns, are added at offsets di*(w+2) + dj of a flat padded
    accumulator.  The zero columns add +0.0 where the window wraps, which
    changes no sum that starts from +0.0, since such a sum is never -0.0.
    """
    n, c, h, w = v.shape
    r, m = w + 2, h * (w + 2)
    rows = np.zeros((n, c, h, r))
    rows[..., :w] = v
    rows = rows.reshape(n, c, m)
    acc = np.zeros((n, c, (h + 2) * r + 2))
    for k in range(9):
        di, dj = divmod(k, 3)
        acc[:, :, di * r + dj:di * r + dj + m] += rows
    return acc[:, :, r + 1:r + 1 + m].reshape(n, c, h, r)[..., :w]


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
    """Depth-first post-order from `root`: parents before children.

    A node first visited is pushed back under a `None` marker, which
    appends it to the order when popped, after all its parents.
    """
    order, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node is None:
            order.append(stack.pop())
        elif node not in seen:
            seen.add(node)
            stack.append(node)
            stack.append(None)
            for p in node.parents:
                if p not in seen:
                    stack.append(p)
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

    Only the cotangents of needed nodes (those that reach a requested
    leaf) are computed: a one-parent rule runs only when its parent is
    needed, and a two-parent rule gets a need flag per parent.
    """
    if t.consumed:
        raise TapeConsumedError("tape already used by a backward pass")
    t.consumed = True

    # Keyed by node: `Var` hashes by identity, as it defines no `__eq__`.
    want = set(wrt)
    needed = set(want)
    leaves = []
    for node in t.nodes:
        if not node.parents:
            leaves.append(node)
        elif not needed.isdisjoint(node.parents):
            needed.add(node)

    with contextlib.nullcontext() if create_graph else no_record(), trapped(leaves):
        grads: dict = {t.root: const(np.ones(t.root.shape))}
        found: dict = {}
        for node in reversed(t.nodes):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node in want:
                found[node] = g
            # accumulation spelled out per parent count: no zip per node
            parents = node.parents
            if len(parents) == 2:
                a, b = parents
                ga, gb = node.vjp(g, node, a, b, (a in needed, b in needed))
                if ga is not None:
                    acc = grads.get(a)
                    grads[a] = ga if acc is None else add(acc, ga)
                if gb is not None:
                    acc = grads.get(b)
                    grads[b] = gb if acc is None else add(acc, gb)
            elif parents and parents[0] in needed:
                a = parents[0]
                (ga,) = node.vjp(g, node, a)
                acc = grads.get(a)
                grads[a] = ga if acc is None else add(acc, ga)
        return [found[v] if v in found else const(np.zeros(v.shape)) for v in wrt]


def grad(output: Var, wrt: Sequence[Var], create_graph: bool = False) -> list:
    """Convenience: fresh tape + backward."""
    return backward(tape(output), wrt=wrt, create_graph=create_graph)


# ------------------------------------------------------------------
# plans: a step recorded once, replayed as flat numpy calls
# ------------------------------------------------------------------

# The fixed value, while recording, of a slot that a call computes.
_COMPUTED = object()
# Arguments of a call with no operands, such as `type(None)()`, which
# frees a slot by writing None into it.
_NO_ARGS = operator.itemgetter(slice(0, 0))
_FREE = type(None)


def _getter(slots: list):
    """Fetches `slots` from a slot list as a sequence, even just one."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    return operator.itemgetter(slice(slots[0], slots[0] + 1)) if slots else _NO_ARGS


class Plan:
    """The value functions that one run of a step called, in order, each
    with its operand slots and its result slot.

    Slots hold the leaves and inputs of the step, its constants (static
    operands such as an axis or a scalar, and shape-fixed arrays such as
    a cotangent of ones), and the values the calls compute.  `replay`
    runs the calls again on the leaves' current values and new inputs of
    the same shapes, inside `trapped()`, and returns the values of the
    step's outputs.  A slot is freed after its last use: a call's result
    takes the slot of an operand used there for the last time, and
    other such slots get None.
    """

    def __init__(self, leaves: Sequence[Var], inputs: Sequence):
        self.leaves = list(leaves)
        # the places of the leaves and inputs in the slot list
        self.places = list(range(1, 1 + len(self.leaves) + len(inputs)))
        # While recording: slot 0 takes the results of tests, then come
        # the leaves and the inputs.  `_init` holds each slot's fixed
        # value, or `_COMPUTED`; `_fixed` the slots of inputs and static
        # operands by identity (`_init` keeps those alive); `_slot` the
        # slot of each live Var by identity (the entry leaves with the
        # Var); `_untested` the leaves no `trapped()` region tested yet.
        self._init = [None] * (1 + len(self.leaves)) + list(inputs)
        self._fixed = {id(x): k for k, x in enumerate(inputs, 1 + len(self.leaves))}
        self._slot = {}
        for k, leaf in enumerate(self.leaves, 1):
            self._bind(leaf, k)
        self._untested = set(range(1, 1 + len(self.leaves)))
        self._calls = []          # (fn, operand slots, result slot)

    # -- recording -------------------------------------------------
    def _bind(self, v: Var, k: int):
        slots = self._slot
        slots[id(v)] = (weakref.ref(v, lambda _, i=id(v): slots.pop(i, None)), k)

    def _operand(self, a) -> int:
        if isinstance(a, Var):
            entry = self._slot.get(id(a))
            if entry is not None:
                return entry[1]
            if a.name is not None:
                raise AutodiffError(f"cannot record: {a.name} is not a leaf of the plan")
            # a constant from outside the step, such as a cotangent of
            # ones: kept, read-only, and finite as every Var value is
            fixed = a.value.view()
            fixed.flags.writeable = False
            k = len(self._init)
            self._init.append(fixed)
            self._bind(a, k)
            return k
        k = self._fixed.get(id(a))
        if k is None:
            k = self._fixed[id(a)] = len(self._init)
            self._init.append(a)
        return k

    def op(self, out: Var, fn, *args) -> Var:
        """Note the call `fn(*args)` that computed `out`."""
        k = len(self._init)
        self._init.append(_COMPUTED)
        self._calls.append((fn, [self._operand(a) for a in args], k))
        if out.value.ndim == 0:
            # a 0-d result may be a numpy scalar, which `Var` converts
            raw, k = k, len(self._init)
            self._init.append(_COMPUTED)
            self._calls.append((np.asarray, [raw, self._operand(_F64)], k))
        self._bind(out, k)
        return out

    def derived(self, out: Var, fn, *args) -> Var:
        """Note a derived constant and its test, as `Var` makes it."""
        self.op(out, fn, *args)
        self._calls.append((functools.partial(_test_finite, ("node",)),
                            [self._operand(out)], 0))
        return out

    def test(self, leaves: list):
        """Note the entry test of a `trapped()` region over the leaves
        that no region tested yet; any other Var that a region reads is a
        value the plan computes or tests itself, or a kept constant."""
        todo = [(k, v) for k, v in zip(map(self._operand, leaves), leaves)
                if k in self._untested]
        if todo:
            labels = tuple('leaf' if v.name is None else v.name for _, v in todo)
            self._calls.append(
                (functools.partial(_test_finite, labels), [k for k, _ in todo], 0))
            self._untested.difference_update(k for k, _ in todo)

    def _finish(self, outs: list):
        """Lay the calls out as the flat list `replay` runs: each slot
        gets a place in the slot list, and each computed value is freed
        after its last use.  The output slots `outs` are kept to the end."""
        calls = self._calls
        fixed = [k for k, v in enumerate(self._init) if v is not _COMPUTED]
        place = dict(zip(fixed, range(len(fixed))))
        init = [self._init[k] for k in fixed]
        self._slot.clear()   # its entries' callbacks refer to it
        del self._init, self._fixed, self._slot, self._untested, self._calls
        # a backward pass finds each computed value's last use; fixed
        # slots and outputs count as used later
        live = set(fixed)
        live.update(outs)
        dying = []
        for _, args, out in reversed(calls):
            dead = []
            for k in args:
                if k not in live:
                    live.add(k)
                    dead.append(k)
            dying.append((dead, out not in live))
        # the forward pass takes each call, and its last uses, off the lists
        calls.reverse()
        spare, code = [], []
        while calls:
            fn, args, out = calls.pop()
            dead, unused = dying.pop()
            get = _getter([place[k] for k in args])
            freed = [place.pop(k) for k in dead]
            if out:
                # the result takes the place of an operand used for the
                # last time, else a freed place, else a new one
                if freed:
                    p = freed.pop()
                elif spare:
                    p = spare.pop()
                else:
                    p = len(init)
                    init.append(None)
                place[out] = p
                if unused:
                    freed.append(place.pop(out))
            else:
                p = 0
            code.append((fn, get, p))
            for q in freed:
                code.append((_FREE, _NO_ARGS, q))
            spare += freed
        self.code, self.init = code, init
        self.outputs = [place[k] for k in outs]

    # -- replay ----------------------------------------------------
    def replay(self, inputs: Sequence) -> list:
        """The step's output values on the leaves' current values and
        `inputs`, whose shapes must be those it was recorded with."""
        s = self.init.copy()
        for p, x in zip(self.places, [v.value for v in self.leaves] + list(inputs)):
            s[p] = x
        with trapped(()):
            for fn, get, out in self.code:
                s[out] = fn(*get(s))
        return [s[p] for p in self.outputs]


def record(step: Callable[[], list], leaves: Sequence[Var], inputs: Sequence) -> tuple:
    """Run `step()`, which reads the `leaves` and the `inputs` and
    returns a list of `Var`s, and record it: returns the `Plan` and the
    values of the returned `Var`s.

    The step must be a function of the leaves' values and the inputs
    alone, built from this module's primitives; a constant it derives
    from them is made by `derived`.  Recording keeps no `Var` alive, so
    the step frees its arrays as it does unrecorded.
    """
    global _PLAN
    if _PLAN is not None:
        raise AutodiffError("a plan is already being recorded")
    plan = _PLAN = Plan(leaves, inputs)
    try:
        out = step()
    finally:
        _PLAN = None
    values, outs = [v.value for v in out], [plan._operand(v) for v in out]
    del out   # the step's graph goes before its calls are laid out
    plan._finish(outs)
    return plan, values


def planned(step: Callable[..., list], leaves: Sequence[Var]) -> Callable[..., list]:
    """`run(*inputs, again=True)`: the values of the `Var`s that
    `step(*inputs)` returns, a step over the `leaves` as `record` takes it.

    A call on inputs of the shapes of the last recording replays its plan
    on the leaves' current values and the new inputs.  Any other call
    records a new plan when `again` says that a later call will pass
    inputs of these shapes, and otherwise runs the step on `Var`s: a
    recording costs about two and a half steps, which only replays pay
    back.  Each way gives the same values, tests and `NonFiniteError`,
    bit for bit.  The plan lives as long as `run`.
    """
    plan = shapes = None

    def run(*inputs, again: bool = True) -> list:
        nonlocal plan, shapes
        key = [np.shape(x) for x in inputs]
        if key == shapes:
            return plan.replay(inputs)
        if not again:
            return [v.value for v in step(*inputs)]
        plan, values = record(lambda: step(*inputs), leaves, inputs)
        shapes = key
        return values

    return run


# ------------------------------------------------------------------
# Hessian-vector product
# ------------------------------------------------------------------

def hvp(gradient: Callable[[np.ndarray], np.ndarray], theta: np.ndarray,
        direction: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product.

    `gradient(theta_flat)` is the flat gradient of a loss at `theta_flat`
    (`diagnostics.alpha_gradient`, or a function that builds the loss and
    calls `grad`).  Returns (gradient(theta + eps v) - gradient(theta -
    eps v)) / (2 eps), with eps = 1e-4 (1 + max |theta|).
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    v = np.asarray(direction, dtype=np.float64).ravel()
    if v.size != theta.size:
        raise ShapeError("direction length does not match parameter length")
    if v.size == 0:
        raise ShapeError("zero-length direction")
    eps = 1e-4 * (1.0 + float(np.max(np.abs(theta))))
    out = (gradient(theta + eps * v) - gradient(theta - eps * v)) / (2.0 * eps)
    if not all_finite(out):
        raise NonFiniteError("non-finite Hessian-vector product")
    return out


# ------------------------------------------------------------------
# composite helpers
# ------------------------------------------------------------------

def _row_max(v: np.ndarray) -> np.ndarray:
    """Each row's max: the detached shift of a row-wise softmax."""
    return v.max(axis=-1, keepdims=True)


def softmax_rows(a: Var) -> Var:
    """Row-wise softmax of a 2-d Var (stable; shift is detached)."""
    shift = derived(_row_max, a)
    e = vexp(sub(a, shift))
    return div(e, vsum(e, axis=a.value.ndim - 1, keepdims=True))


def _onehot(labels, b: int, k: int) -> np.ndarray:
    """(b, k) one-hot rows of integer `labels`, each in [0, k)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise AutodiffError(f"label out of range [0, {k})")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    return onehot


def cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean cross-entropy of integer labels under softmax of logits,
    computed inside its own `trapped()` region over the logits."""
    onehot = derived(_onehot, labels, *logits.shape)
    with trapped([logits]):
        shift = derived(_row_max, logits)
        z = sub(logits, shift)
        lse = add(vlog(vsum(vexp(z), axis=1, keepdims=True)), shift)
        picked = vsum(mul(logits, onehot), axis=1, keepdims=True)
        return vmean(sub(lse, picked))
