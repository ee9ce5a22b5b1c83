"""Independent verification oracles.

Deliberately naive routes (enumeration, central finite differences of
scalar losses, dense eigendecomposition, straight-line replay of the
training steps) used to cross-check the fast implementations.
`fd_gradient` takes its step; the finite-difference Hessian uses 1e-4,
and `random_dag` draws 2 to 8 nodes.  The
replays step the weights with the engine's detached gradients, as
training does; what they check is the exact unrolled route, which
differentiates through those steps.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import autodiff as ad
from . import optim


def fd_gradient(f, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2 * step)
    return g


def fd_hessian(f, theta: np.ndarray) -> np.ndarray:
    """Dense Hessian via central differences of central-difference
    gradients, both with step 1e-4; symmetrized."""
    step = 1e-4
    n = theta.size
    h = np.zeros((n, n))
    for i in range(n):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        h[i] = (fd_gradient(f, up, step) - fd_gradient(f, dn, step)) / (2 * step)
    return 0.5 * (h + h.T)


def dense_dominant_eigenvalue(f, theta: np.ndarray) -> float:
    """Largest-magnitude eigenvalue of the finite-difference Hessian."""
    evals = np.linalg.eigvalsh(fd_hessian(f, theta))
    return float(evals[np.argmax(np.abs(evals))])


def brute_force_longest_path(nodes: int, edges, source: int, sink: int) -> int:
    """Longest source->sink path length by exhaustive path enumeration."""
    adj: dict[int, list] = {}
    for (i, j) in edges:
        adj.setdefault(i, []).append(j)
    best = 0
    found = [False]

    def walk(node, length):
        nonlocal best
        if node == sink:
            found[0] = True
            best = max(best, length)
            return
        for nxt in adj.get(node, []):
            walk(nxt, length + 1)

    walk(source, 0)
    return best if found[0] else 0


def random_dag(rng: np.random.Generator):
    """Random DAG (i < j edges) over 2..8 nodes; always keeps a direct
    input->output edge so the sink is reachable."""
    n = int(rng.integers(2, 9))
    edges = [(0, n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) != (0, n - 1) and rng.random() < 0.5:
                edges.append((i, j))
    return n, sorted(edges)


def _replay_losses(net, window, cfg, alpha_flat: np.ndarray) -> list:
    """Training losses of the window's plain-SGD replay at alpha.

    From the snapshot `window.w0`, take one SGD step (`cfg`) per batch
    but the last, recording each batch's loss before its step, then the
    loss on the last batch, from a values-only forward.  The net's alpha
    and weights are restored afterwards.
    """
    saved = net.alpha.value.copy()
    net.alpha.value = alpha_flat.reshape(net.alpha.shape)
    try:
        net.restore(window.w0)
        losses = []
        for batch in window.batches[:-1]:
            loss, grads = optim.loss_and_grads(net, batch, net.weight_vars())
            losses.append(loss)
            optim.sgd_step(net.params, grads, cfg)
        xb, yb = window.batches[-1]
        with ad.no_record():
            losses.append(float(net.loss(net.forward(xb), yb).value))
        return losses
    finally:
        net.alpha.value = saved
        net.restore(window.w0)


def replay_final_loss(net, window, cfg, alpha_flat: np.ndarray) -> float:
    """Final training loss of the window's plain-SGD replay at alpha.

    Central differences of this function in alpha check
    `optim.exact_hypergradient`.
    """
    return _replay_losses(net, window, cfg, alpha_flat)[-1]


def replay_tse(net, window, cfg, alpha_flat: np.ndarray) -> float:
    """TSE of the window's plain-SGD replay at alpha: its training
    losses summed left to right, as `optim.tse_unroll` sums them.

    Central differences of this function in alpha check
    `optim.exact_tse_gradient`.
    """
    total = 0.0
    for loss in _replay_losses(net, window, cfg, alpha_flat):
        total += loss
    return total
