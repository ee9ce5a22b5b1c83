"""Time training steps of two source trees against each other, in one process.

    python3 experiments/step_pairs.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are `src/` directories, each holding a
`tsedarts` package.  Each tree is imported under its own package name,
so both run side by side in this process, with BLAS pinned to one
thread.  Two nets:

- `vector`: the frozen criterion-8 net (s2-like, 8 layers, width 8,
  16 features, 4 classes), batch 32;
- `image`: the nb201-like net on 1x8x8 images (2 layers, width 4,
  4 classes), batch 32.

Timed cases, each a fixed net, alpha and batch:

- `vector`, `image`: one `optim.loss_and_grads` (one forward and one
  detached backward) over every weight and alpha;
- `vector-weights`: the same over the weights alone, as the tse
  retrain and the darts train step take;
- `vector-alpha`: the same over alpha alone, as the darts validation
  step takes;
- `eigen-512`: one `diagnostics.dominant_eigenvalue` of the vector
  net's alpha-Hessian on a 512-sample batch (12 finite-difference
  Hessian-vector products, two alpha-only sweeps each), in at most 16
  pairs.  A tree that has `parallel.fork_map` computes the columns in
  forked processes, one per CPU, so its side may use a second CPU and
  pays the fork; leave the other CPUs idle while it runs;
- `verify-gradients`: one `cli._suite_gradients()`, the `verify`
  gradients suite (three tiny nets: the lr-0 TSE checks, the exact
  hypergradients and their central differences), in at most 16 pairs.
  Both trees spread it over the CPUs with `parallel.fork_map`, so the
  same care applies.  A `verify` pass in the benchmark also runs the
  eigen and depth suites; this case times the gradients suite alone;
- `window-vector`: one `optim.tse_unroll` of T = 25 batches on the
  `vector` net, lr 0.05, as the tse-darts unroll of the frozen setting
  takes, in at most 40 pairs;
- `window-image`: the same with T = 10 batches on the `image` net;
- `window-t1`: the same with T = 1 batch on the `vector` net, a window
  whose one step no later step replays.  A tree that runs such a step
  on `Var`s should read about its `vector` case plus one SGD update;
- `darts-epoch`: one darts-1st epoch of 25 train and 25 validation
  batches on the `vector` net (`optim.darts_first_order_round`, lr 0.05,
  arch lr 3e-3), as the `darts-vector-eigen` benchmark runs it, in at
  most 40 pairs.

The single-step cases time one step on its own.  A tree that records a
step and replays it for the later batches of the same shapes (`ad.Plan`)
shows the gain in the window and epoch cases, and in `eigen-512`, whose
24 alpha-gradients run on one batch.

For each case it first checks that both trees give the same numbers,
bit for bit (the loss and gradients, the eigenvalue, the suite's
checks, a window's TSE, step losses, alpha-gradient and final
weights, or an epoch's step losses, final weights and alpha), and then
times it in N alternating parent/change pairs, the order flipping every
pair.
Interleaving keeps slow drift of the machine out of the comparison,
which runs of a whole benchmark in separate processes do not.  But both
trees share one heap in one process, so a change to how much memory a
step allocates and frees (and to the page faults that follow) is judged
by pairs of harness runs, each side in its own process, not by this
script.

Apart from `verify-gradients`, the timed steps run no graph-building
sweep, and that case compares only the suite's errors, so the script
then checks, untimed, that two results of graph-building sweeps are the
same, bit for bit, in both trees:

- `exact_tse_gradient`: one `optim.exact_tse_gradient` (the `verify`
  suite's tiny net, four batches, lr 0.05), its TSE value and alpha
  gradient;
- `image_alpha_hvp`: a double-backward alpha Hessian-vector product on
  the `image` net and batch (a graph-building sweep for dL/dalpha, then
  a detached sweep of <dL/dalpha, v> back to alpha), so that the image
  ops' rules run in both kinds of sweep.

It prints, per case, the median and quartiles of each side's step time
in ms, the change/parent ratio of the medians, and the fraction of pairs
in which the change was faster, then a JSON summary.  It exits 1 when
the two trees' numbers differ, else 0.  It measures; it gates nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import sys
import time

# BLAS reads its thread count when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

NETS = {
    "vector": (dict(layers=8, width=8, preset="s2-like", classes=4,
                    in_shape=(16,), seed=0), 32),
    "image": (dict(layers=2, width=4, preset="nb201-like", classes=4,
                   in_shape=(1, 8, 8), seed=0), 32),
}
WARMUP = 3
EIGEN_BATCH = 512
FORKED_PAIRS = 16   # the forked cases take ~0.3 s a step
WINDOW_PAIRS = 40   # a window takes 25 (vector) or 10 (image) steps


def load_tree(src: str, name: str):
    """The `tsedarts` package under `src`, imported as package `name`."""
    root = os.path.join(os.path.abspath(src), "tsedarts")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def make_net(pkg, kw: dict, batch: int) -> tuple:
    """A fixed net, with alpha drawn, and a fixed batch: `(net, x, y)`."""
    net = pkg.supernet.Supernet(pkg.supernet.SupernetConfig(**kw))
    rng = np.random.default_rng(7)
    net.alpha.value = 0.3 * rng.standard_normal(net.alpha.shape)
    x = rng.standard_normal((batch,) + kw["in_shape"])
    y = rng.integers(0, kw["classes"], size=batch)
    return net, x, y


def make_step(pkg, net_name: str, leaves: str):
    """A no-argument step on a fixed net and batch, over the weights and
    alpha, the weights or alpha (`leaves`): `(loss, grads)`."""
    net, x, y = make_net(pkg, *NETS[net_name])
    wrt = {"all": net.weight_vars() + [net.alpha], "weights": net.weight_vars(),
           "alpha": [net.alpha]}[leaves]
    return lambda: pkg.optim.loss_and_grads(net, (x, y), wrt)


def make_eigen(pkg):
    """A no-argument dominant alpha-Hessian eigenvalue of the `vector`
    net on a batch of `EIGEN_BATCH`: `(eigenvalue, {})`.  A tree whose
    estimate takes a gradient function (`diagnostics.alpha_gradient`)
    gets a new one per call, as `record_epoch` makes one per estimate; an
    older tree takes a loss closure (`alpha_loss_closure`)."""
    dg = pkg.diagnostics
    net, x, y = make_net(pkg, NETS["vector"][0], EIGEN_BATCH)
    if hasattr(dg, "alpha_gradient"):
        return lambda: (dg.dominant_eigenvalue(dg.alpha_gradient(net, (x, y)),
                                               net.alpha.value), {})
    closure = dg.alpha_loss_closure(net, (x, y))
    return lambda: (dg.dominant_eigenvalue(closure, net.alpha.value), {})


def fixed_batches(kw: dict, size: int, steps: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((size,) + kw["in_shape"]),
             rng.integers(0, kw["classes"], size=size)) for _ in range(steps)]


def make_window(pkg, net_name: str, steps: int):
    """A no-argument `optim.tse_unroll` of `steps` fixed batches on a
    fixed net, lr 0.05, from the same snapshot each time:
    `((tse, *step losses), {alpha gradient and final weights})`."""
    kw, size = NETS[net_name]
    net, _, _ = make_net(pkg, kw, size)
    window = pkg.optim.make_window(net, fixed_batches(kw, size, steps, 9))
    cfg = pkg.optim.SGDConfig(lr=0.05)

    def run():
        res = pkg.optim.tse_unroll(net, window, cfg)
        final = dict(net.snapshot(), alpha_grad=res.alpha_grad)
        return (res.tse, *res.step_losses), final
    return run


def make_darts_epoch(pkg, steps: int = 25):
    """A no-argument darts-1st epoch of `steps` train and validation
    batches on the `vector` net, lr 0.05 and arch lr 3e-3, from the same
    weights, alpha and a fresh `ArchOptimizer` each time:
    `((train losses, validation losses), {final weights and alpha})`.
    A tree whose `optim.darts_first_order_round` takes one batch per
    step runs it once per pair of batches."""
    optim = pkg.optim
    kw, size = NETS["vector"]
    net, _, _ = make_net(pkg, kw, size)
    w0, alpha0 = net.snapshot(), net.alpha.value.copy()
    train, val = fixed_batches(kw, size, steps, 10), fixed_batches(kw, size, steps, 11)
    cfg = optim.SGDConfig(lr=0.05)
    per_epoch = "train_batches" in inspect.signature(optim.darts_first_order_round).parameters

    def run():
        net.restore(w0)
        net.alpha.value = alpha0.copy()
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=3e-3))
        if per_epoch:
            losses = optim.darts_first_order_round(net, train, val, cfg, arch)
        else:
            out = [optim.darts_first_order_round(net, tb, vb, cfg, arch)
                   for tb, vb in zip(train, val)]
            losses = ([s["train_loss"] for s in out], [s["val_loss"] for s in out])
        return tuple(map(tuple, losses)), dict(net.snapshot(), alpha=net.alpha.value)
    return run


def make_verify_gradients(pkg):
    """A no-argument `verify` gradients suite: `(checks, {})`."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    return lambda: (cli._suite_gradients()["checks"], {})


# name -> (no-argument case from a package, most pairs timed)
CASES = {
    "vector": (lambda pkg: make_step(pkg, "vector", "all"), None),
    "vector-weights": (lambda pkg: make_step(pkg, "vector", "weights"), None),
    "vector-alpha": (lambda pkg: make_step(pkg, "vector", "alpha"), None),
    "image": (lambda pkg: make_step(pkg, "image", "all"), None),
    "eigen-512": (make_eigen, FORKED_PAIRS),
    "verify-gradients": (make_verify_gradients, FORKED_PAIRS),
    "window-vector": (lambda pkg: make_window(pkg, "vector", 25), WINDOW_PAIRS),
    "window-image": (lambda pkg: make_window(pkg, "image", 10), WINDOW_PAIRS),
    "window-t1": (lambda pkg: make_window(pkg, "vector", 1), None),
    "darts-epoch": (make_darts_epoch, WINDOW_PAIRS),
}


def image_alpha_hvp(pkg) -> np.ndarray:
    """d<dL/dalpha, v>/dalpha on the `image` net and batch, by a
    graph-building sweep and a detached sweep through it."""
    ad = pkg.autodiff
    net, x, y = make_net(pkg, *NETS["image"])
    v = np.random.default_rng(8).standard_normal(net.alpha.shape)
    (g,) = ad.grad(net.loss(net.forward(x), y), [net.alpha], create_graph=True)
    (hv,) = ad.grad(ad.vsum(g * ad.const(v)), [net.alpha])
    return hv.value


def exact_tse(pkg) -> tuple:
    """TSE value and exact alpha gradient, by graph-building sweeps,
    on the `verify` gradients suite's tiny net (seed 0)."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    net = cli._tiny_net(0)
    net.alpha.value = 0.3 * np.random.default_rng(50).standard_normal(net.alpha.shape)
    window = pkg.optim.make_window(net, cli._tiny_batches(100, 4))
    return pkg.optim.exact_tse_gradient(net, window, pkg.optim.SGDConfig(lr=0.05))


def same_numbers(a: tuple, b: tuple) -> bool:
    (loss_a, grads_a), (loss_b, grads_b) = a, b
    return (loss_a == loss_b and list(grads_a) == list(grads_b)
            and all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a))


def timed(step) -> float:
    t0 = time.perf_counter()
    step()
    return (time.perf_counter() - t0) * 1e3


def quartiles(ms: list) -> list:
    return [round(float(q), 3) for q in np.percentile(ms, [25, 50, 75])]


def main() -> int:
    args = sys.argv[1:]
    pairs = 200
    if len(args) == 4 and args[2] == "--pairs" and args[3].isdigit() and int(args[3]) > 0:
        pairs, args = int(args[3]), args[:2]
    if len(args) != 2 or not all(os.path.isdir(os.path.join(a, "tsedarts")) for a in args):
        print("usage: python3 experiments/step_pairs.py PARENT_SRC CHANGE_SRC [--pairs N]\n"
              "each source argument must be a directory holding the tsedarts package",
              file=sys.stderr)
        return 2
    trees = [load_tree(src, f"tsedarts_{side}") for src, side in zip(args, ("parent", "change"))]
    summary, identical = {}, True
    for name, (make, most) in CASES.items():
        steps = [make(pkg) for pkg in trees]
        n = pairs if most is None else min(pairs, most)
        same = same_numbers(steps[0](), steps[1]())
        identical &= same
        for _ in range(WARMUP if most is None else 1):
            for step in steps:
                step()
        ms = ([], [])
        for i in range(n):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                ms[side].append(timed(steps[side]))
        parent, change = quartiles(ms[0]), quartiles(ms[1])
        wins = sum(c < p for p, c in zip(*ms))
        summary[name] = {"identical": same, "pairs": n,
                         "parent_ms_q1_median_q3": parent,
                         "change_ms_q1_median_q3": change,
                         "ratio_of_medians": round(change[1] / parent[1], 4),
                         "change_wins": wins}
        print(f"{name:14s} numbers {'identical' if same else 'DIFFER'}; "
              f"parent {parent[1]:.2f} ms [{parent[0]:.2f}, {parent[2]:.2f}], "
              f"change {change[1]:.2f} ms [{change[0]:.2f}, {change[2]:.2f}], "
              f"change/parent {change[1] / parent[1]:.3f}, "
              f"change faster in {wins}/{n} pairs")
    (tse_a, grad_a), (tse_b, grad_b) = (exact_tse(pkg) for pkg in trees)
    same = tse_a == tse_b and np.array_equal(grad_a, grad_b)
    identical &= same
    summary["exact_tse_gradient"] = {"identical": same}
    print(f"exact_tse_gradient numbers {'identical' if same else 'DIFFER'}")
    hv_a, hv_b = (image_alpha_hvp(pkg) for pkg in trees)
    same = np.array_equal(hv_a, hv_b)
    identical &= same
    summary["image_alpha_hvp"] = {"identical": same}
    print(f"image_alpha_hvp numbers {'identical' if same else 'DIFFER'}")
    print(json.dumps(summary))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
