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
        super().__init__(f"window aborted at step {step}: {message}")
        self.step = step


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


def loss_and_grads(net: Supernet, batch, wrt: list) -> tuple:
    """One forward and one detached backward on `batch`: the loss as a
    float and `{name: gradient array}` for the named leaves `wrt`.  Only
    arrays leave, so the step's graph is freed before a caller builds
    the next one."""
    xb, yb = batch
    loss = net.loss(net.forward(xb), yb)
    grads = ad.backward(ad.tape(loss), wrt=wrt)
    return float(loss.value), {v.name: g.value for v, g in zip(wrt, grads)}


def sgd_step(weights: dict, grads: dict, cfg: SGDConfig):
    """In-place plain SGD: w <- w - lr * g.  Every gradient is tested,
    with one test over all of them, before any weight moves, so a
    rejected step changes nothing; only a failure looks for the name."""
    steps = [grads[name] for name in weights]
    if steps and not ad.all_finite(np.concatenate([np.ravel(g) for g in steps])):
        bad = next(name for name, g in zip(weights, steps) if not ad.all_finite(g))
        raise OptimError(f"non-finite gradient for {bad}")
    for p, g in zip(weights.values(), steps):
        p.value = p.value - cfg.lr * g


def _sgd_steps(net: Supernet, batches: list, wrt: list, cfg: SGDConfig):
    """Plain SGD over `batches`, in order: per batch one forward, one
    detached backward for the leaves `wrt` and one weight step, then
    `(loss, grads)` is yielded.  A non-finite value at step t raises
    `UnrollAbort(t)`."""
    for t, batch in enumerate(batches):
        try:
            loss, grads = loss_and_grads(net, batch, wrt)
        except NonFiniteError as err:
            raise UnrollAbort(t, str(err)) from err
        sgd_step(net.params, grads, cfg)
        yield loss, grads


class ArchOptimizer:
    """Architecture step on alpha: Adam with DARTS-style defaults
    (lr 3e-4, betas (0.5, 0.999), weight decay 1e-3)."""

    def __init__(self, cfg: ArchOptimizerConfig):
        self.cfg = cfg
        self.t = 0
        self.m = None
        self.v = None

    def step(self, alpha: Var, grad: np.ndarray):
        if not ad.all_finite(grad):
            raise OptimError("non-finite architecture gradient")
        g = grad + self.cfg.weight_decay * alpha.value
        b1, b2, eps = 0.5, 0.999, 1e-8
        if self.m is None:
            self.m = np.zeros_like(alpha.value)
            self.v = np.zeros_like(alpha.value)
        self.t += 1
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        mhat = self.m / (1 - b1 ** self.t)
        vhat = self.v / (1 - b2 ** self.t)
        alpha.value = alpha.value - self.cfg.lr * mhat / (np.sqrt(vhat) + eps)


# ------------------------------------------------------------------
# TSE unrolling (accumulated direct gradients)
# ------------------------------------------------------------------

def tse_unroll(net: Supernet, window: UnrollWindow, cfg: SGDConfig) -> TSEResult:
    """Run the window's SGD steps from the snapshot, summing per-step
    losses into the TSE scalar and per-step direct alpha-gradients into
    one accumulator (never cleared between steps).  One forward and one
    backward per step; alpha itself is not modified."""
    net.restore(window.w0)
    tse = 0.0
    step_losses = []
    alpha_grad = np.zeros_like(net.alpha.value)
    wrt = net.weight_vars() + [net.alpha]
    for loss, grads in _sgd_steps(net, window.batches, wrt, cfg):
        step_losses.append(loss)
        tse += loss
        alpha_grad += grads[net.alpha.name]
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
    retrain_losses = [loss for loss, _ in _sgd_steps(
        net, window.batches, net.weight_vars(), w_cfg)]
    return RoundResult(result.tse, result.step_losses, retrain_losses,
                       result.alpha_grad, restore_exact)


def darts_first_order_round(net: Supernet, train_batch, val_batch,
                            w_cfg: SGDConfig, arch_opt: ArchOptimizer) -> dict:
    """One first-order baseline step: SGD on the train loss, then an
    alpha step on the direct validation-loss gradient at the current
    weights (w* approximated by w)."""
    loss_t, grads = loss_and_grads(net, train_batch, net.weight_vars())
    sgd_step(net.params, grads, w_cfg)

    loss_v, grads = loss_and_grads(net, val_batch, [net.alpha])
    arch_opt.step(net.alpha, grads[net.alpha.name])
    return {"train_loss": loss_t, "val_loss": loss_v}


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
