"""Independent verification oracles.

Deliberately naive routes (enumeration, central finite differences of
scalar losses, dense eigendecomposition, straight-line replay of the
training steps) used to cross-check the fast implementations.  The
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


def fd_hessian(f, theta: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Dense Hessian via central differences of central-difference
    gradients; symmetrized."""
    n = theta.size
    h = np.zeros((n, n))
    for i in range(n):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        h[i] = (fd_gradient(f, up, step) - fd_gradient(f, dn, step)) / (2 * step)
    return 0.5 * (h + h.T)


def dense_dominant_eigenvalue(f, theta: np.ndarray, step: float = 1e-4) -> float:
    """Largest-magnitude eigenvalue of the finite-difference Hessian."""
    evals = np.linalg.eigvalsh(fd_hessian(f, theta, step))
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


def random_dag(rng: np.random.Generator, max_nodes: int = 8):
    """Random DAG (i < j edges) over 2..max_nodes nodes; always keeps a
    direct input->output edge so the sink is reachable."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = [(0, n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) != (0, n - 1) and rng.random() < 0.5:
                edges.append((i, j))
    return n, sorted(edges)


def replay_training_loss_sum(loss_at, w0: np.ndarray, batches, lr: float):
    """Straight-line replay oracle for the training-loss sum: plain SGD
    with finite-difference gradients is avoided; callers supply
    `loss_at(w, batch) -> (loss, grad_w)`."""
    w = w0.copy()
    total = 0.0
    for batch in batches:
        loss, g = loss_at(w, batch)
        total += loss
        w = w - lr * g
    return total, w


def replay_final_loss(net, window, cfg, alpha_flat: np.ndarray) -> float:
    """Final training loss of the window's plain-SGD replay at alpha.

    From the snapshot `window.w0`, take one SGD step (`cfg`) per batch
    but the last, then return the loss on the last batch.  The net's
    alpha and weights are restored afterwards.  Central differences of
    this function in alpha check `optim.exact_hypergradient`.
    """
    saved = net.alpha.value.copy()
    net.alpha.value = alpha_flat.reshape(net.alpha.shape)
    try:
        net.restore(window.w0)
        for xb, yb in window.batches[:-1]:
            loss = net.loss(net.forward(xb), yb)
            gm = ad.backward(ad.tape(loss), wrt=net.weight_vars())
            optim.sgd_step(net.params, gm.by_name(), cfg)
        xb, yb = window.batches[-1]
        return float(net.loss(net.forward(xb), yb).value)
    finally:
        net.alpha.value = saved
        net.restore(window.w0)
