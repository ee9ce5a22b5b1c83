"""Weight training and architecture updates.

Covers plain-SGD weight steps, the Adam step on alpha, the first-order
validation-loss architecture round, the training-speed-estimate (TSE)
unrolling round (accumulated direct gradients, snapshot/restore,
retrain), and the exact unrolled hypergradient computed by
differentiating through the whole weight-update recurrence.  The exact
routes are the verification oracles for the cheap accumulated
approximation; they refuse nets of more than `EXACT_UNROLL_CAP` weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Var
from .supernet import Supernet


class OptimError(ValueError):
    pass


class UnrollAbort(RuntimeError):
    """Non-finite loss inside an unrolling window."""

    def __init__(self, step: int, message: str):
        super().__init__(step, message)   # args rebuild it when unpickled
        self.step = step

    def __str__(self):
        return f"window aborted at step {self.args[0]}: {self.args[1]}"


@dataclass(frozen=True)
class SGDConfig:
    lr: float

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise OptimError("learning rate must be finite and >= 0")


@dataclass(frozen=True)
class ArchOptimizerConfig:
    lr: float = 3e-4
    weight_decay: float = 1e-3

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise OptimError("architecture learning rate must be finite and > 0")
        if not 0 <= self.weight_decay < math.inf:
            raise OptimError("architecture weight decay must be finite and >= 0")


@dataclass
class UnrollWindow:
    """Weight snapshot at window start plus the window's fixed batches."""

    w0: dict            # name -> ndarray snapshot
    batches: list       # [(features, labels), ...], replayed in order

    def __post_init__(self):
        if not self.batches:
            raise OptimError("unrolling window needs at least one batch")


def make_window(net: Supernet, batches: list) -> UnrollWindow:
    return UnrollWindow(net.snapshot(), list(batches))


@dataclass
class TSEResult:
    tse: float
    step_losses: list
    alpha_grad: np.ndarray


def _step(net: Supernet, batch, wrt: list) -> list:
    """One forward and one detached backward on `batch`: the loss and
    the gradients of the named leaves `wrt`, as `Var`s."""
    xb, yb = batch
    loss = net.loss(net.forward(xb), yb)
    return [loss] + ad.backward(ad.tape(loss), wrt=wrt)


def loss_and_grads(net: Supernet, batch, wrt: list) -> tuple:
    """One forward and one detached backward on `batch`: the loss as a
    float and `{name: gradient array}` for the named leaves `wrt`.  Only
    arrays leave, so the step's graph is freed before a caller builds
    the next one."""
    loss, *grads = _step(net, batch, wrt)
    return float(loss.value), {v.name: g.value for v, g in zip(wrt, grads)}


def sgd_step(weights: dict, grads: dict, cfg: SGDConfig):
    """In-place plain SGD: w <- w - lr * g.  Every gradient is tested
    before any weight moves, so a rejected step changes nothing."""
    steps = [grads[name] for name in weights]
    ad.check_finite(list(weights), *steps, error=OptimError, what="gradient for")
    for p, g in zip(weights.values(), steps):
        p.value = p.value - cfg.lr * g


def _recurring(batches: list) -> list:
    """Per batch, whether a later batch of the list has the same shapes:
    only then does recording its step pay (see `ad.planned`)."""
    shapes = [[np.shape(x) for x in batch] for batch in batches]
    return [s in shapes[t + 1:] for t, s in enumerate(shapes)]


def _planned_step(net: Supernet, wrt: list):
    """`_step` over the gradients of `wrt`, as an `ad.planned` run over
    every leaf of the net: `run(features, labels, again=...)`."""
    return ad.planned(lambda xb, yb: _step(net, (xb, yb), wrt),
                      [net.alpha] + net.weight_vars())


def _sgd_steps(net: Supernet, batches: list, wrt: list, cfg: SGDConfig) -> tuple:
    """Plain SGD over `batches`, in order: per batch the loss and the
    detached gradients of the leaves `wrt`, then one weight step.
    Returns the step losses and the sum of alpha's gradients over the
    steps (zeros when alpha is not in `wrt`).

    A step is recorded into an `ad.Plan` when a later batch has its
    shapes, and every later batch of those shapes replays the plan on
    the current weights, alpha and batch; any other step runs on `Var`s
    (see `ad.planned`).  A non-finite value at step t raises
    `UnrollAbort(t)`."""
    run = _planned_step(net, wrt)
    names = [v.name for v in wrt]
    losses, alpha_grad = [], np.zeros_like(net.alpha.value)
    for t, (batch, again) in enumerate(zip(batches, _recurring(batches))):
        try:
            loss, *grads = run(*batch, again=again)
        except NonFiniteError as err:
            raise UnrollAbort(t, str(err)) from err
        grads = dict(zip(names, grads))
        sgd_step(net.params, grads, cfg)
        if net.alpha.name in grads:
            alpha_grad += grads[net.alpha.name]
        losses.append(float(loss))
        del loss, grads   # no array of this step outlives it
    return losses, alpha_grad


class ArchOptimizer:
    """Architecture step on alpha: Adam with DARTS-style defaults
    (lr 3e-4, betas (0.5, 0.999), weight decay 1e-3)."""

    def __init__(self, cfg: ArchOptimizerConfig):
        self.cfg = cfg
        self.t = 0
        self.m = None
        self.v = None

    def step(self, alpha: Var, grad: np.ndarray):
        """One Adam step on `alpha.value`.  The moments and the new alpha
        are computed first and tested together, so a step that makes any
        of them non-finite raises `NonFiniteError`, warns of nothing and
        changes neither alpha nor the optimizer's state."""
        if not ad.all_finite(grad):
            raise OptimError("non-finite architecture gradient")
        b1, b2, eps = 0.5, 0.999, 1e-8
        m, v = (self.m, self.v) if self.m is not None else (np.zeros_like(alpha.value),) * 2
        t = self.t + 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = grad + self.cfg.weight_decay * alpha.value
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            new = alpha.value - self.cfg.lr * mhat / (np.sqrt(vhat) + eps)
        ad.check_finite(("alpha's first moment", "alpha's second moment", "alpha"),
                        m, v, new)
        self.t, self.m, self.v = t, m, v
        alpha.value = new


# ------------------------------------------------------------------
# TSE unrolling (accumulated direct gradients)
# ------------------------------------------------------------------

def tse_unroll(net: Supernet, window: UnrollWindow, cfg: SGDConfig) -> TSEResult:
    """Run the window's SGD steps from the snapshot, summing per-step
    losses into the TSE scalar and per-step direct alpha-gradients into
    one accumulator (never cleared between steps).  The steps are
    recorded and replayed as `_sgd_steps` runs them; alpha itself is not
    modified."""
    net.restore(window.w0)
    step_losses, alpha_grad = _sgd_steps(
        net, window.batches, net.weight_vars() + [net.alpha], cfg)
    tse = 0.0
    for loss in step_losses:
        tse += loss
    return TSEResult(tse, step_losses, alpha_grad)


@dataclass
class RoundResult:
    tse: float
    step_losses: list
    retrain_losses: list
    alpha_grad: np.ndarray
    restore_exact: bool


def tse_darts_round(net: Supernet, window: UnrollWindow, w_cfg: SGDConfig,
                    arch_opt: ArchOptimizer) -> RoundResult:
    """One search round: unroll to accumulate the TSE gradient, restore
    the weight snapshot bit-exactly, step alpha, then retrain the same
    batches under the new alpha."""
    result = tse_unroll(net, window, w_cfg)
    net.restore(window.w0)
    restore_exact = all(
        net.params[k].value.tobytes() == window.w0[k].tobytes()
        for k in window.w0)
    arch_opt.step(net.alpha, result.alpha_grad)
    retrain_losses, _ = _sgd_steps(net, window.batches, net.weight_vars(), w_cfg)
    return RoundResult(result.tse, result.step_losses, retrain_losses,
                       result.alpha_grad, restore_exact)


def darts_first_order_round(net: Supernet, train_batches: list, val_batches: list,
                            w_cfg: SGDConfig, arch_opt: ArchOptimizer) -> tuple:
    """One epoch of the first-order baseline, a step per pair of batches:
    SGD on the train loss, then an alpha step on the direct
    validation-loss gradient at the current weights (w* approximated by
    w).  Returns the step losses, `(train_losses, val_losses)`.

    The weights-only train step and the alpha-only validation step each
    keep a plan, recorded and replayed as `_sgd_steps` does."""
    if len(train_batches) != len(val_batches):
        raise OptimError(f"{len(train_batches)} train batches but "
                         f"{len(val_batches)} validation batches")
    wrt = net.weight_vars()
    names = [v.name for v in wrt]
    train, val = _planned_step(net, wrt), _planned_step(net, [net.alpha])
    train_losses, val_losses = [], []
    for tb, t_again, vb, v_again in zip(train_batches, _recurring(train_batches),
                                        val_batches, _recurring(val_batches)):
        loss, *grads = train(*tb, again=t_again)
        sgd_step(net.params, dict(zip(names, grads)), w_cfg)
        train_losses.append(float(loss))
        del loss, grads   # no array of this step outlives it
        loss, grad = val(*vb, again=v_again)
        arch_opt.step(net.alpha, grad)
        val_losses.append(float(loss))
        del loss, grad
    return train_losses, val_losses


# ------------------------------------------------------------------
# exact unrolled hypergradients (verification oracles)
# ------------------------------------------------------------------

# The exact routes keep every step's graph alive, so they refuse nets
# with more weights than this.
EXACT_UNROLL_CAP = 2000


def _unrolled_losses(net: Supernet, window: UnrollWindow, cfg: SGDConfig) -> list:
    """The window's training losses as graph nodes, with every weight
    update a differentiable SGD step: from the snapshot, one step per
    batch but the last, each batch's loss taken before its step, then
    the loss on the last batch."""
    n = net.n_parameters()
    if n > EXACT_UNROLL_CAP:
        raise OptimError(
            f"{n} weight parameters exceed the exact-unroll cap {EXACT_UNROLL_CAP}")
    wvars = {k: ad.const(v) for k, v in window.w0.items()}
    names = list(wvars)
    losses = []
    for xb, yb in window.batches:
        if losses:
            gs = ad.grad(losses[-1], wrt=[wvars[n] for n in names], create_graph=True)
            wvars = {n: wvars[n] - cfg.lr * g for n, g in zip(names, gs)}
        losses.append(net.loss(net.forward(xb, params=wvars), yb))
    return losses


def exact_hypergradient(net: Supernet, window: UnrollWindow,
                        cfg: SGDConfig) -> np.ndarray:
    """Exact gradient w.r.t. alpha of the final training loss, by full
    reverse-mode differentiation through every weight update.

    The window's first steps-1 batches drive the updates; the last
    batch evaluates the final loss.  With a single batch this is the
    direct gradient at the snapshot.
    """
    (ga,) = ad.grad(_unrolled_losses(net, window, cfg)[-1], wrt=[net.alpha])
    return ga.value.copy()


def exact_tse_gradient(net: Supernet, window: UnrollWindow, cfg: SGDConfig):
    """Exact gradient w.r.t. alpha of the TSE scalar (the same per-step
    loss sum tse_unroll accumulates), in one unrolled reverse pass.

    Returns (tse value, exact alpha gradient).
    """
    losses = _unrolled_losses(net, window, cfg)
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    (ga,) = ad.grad(total, wrt=[net.alpha])
    return float(total.value), ga.value.copy()
