"""Time training steps of two source trees against each other, in one process.

    python3 experiments/step_pairs.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are `src/` directories, each holding a
`tsedarts` package.  Each tree is imported under its own package name,
so both run side by side in this process, with BLAS pinned to one
thread.  On each of two nets:

- `vector`: the frozen criterion-8 net (s2-like, 8 layers, width 8,
  16 features, 4 classes), batch 32;
- `image`: the nb201-like net on 1x8x8 images (2 layers, width 4,
  4 classes), batch 32;

it first checks that one step of each tree gives the same loss and the
same gradients, bit for bit, and then times `optim.loss_and_grads`
(one forward and one detached backward over every weight and alpha)
in N alternating parent/change pairs, the order flipping every pair.
Interleaving keeps slow drift of the machine out of the comparison,
which runs of a whole benchmark in separate processes do not.

It prints, per net, the median and quartiles of each side's step time
in ms, the change/parent ratio of the medians, and the fraction of pairs
in which the change was faster, then a JSON summary.  It exits 1 when
the two trees' numbers differ, else 0.  It measures; it gates nothing.
"""

from __future__ import annotations

import importlib.util
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


def load_tree(src: str, name: str):
    """The `tsedarts` package under `src`, imported as package `name`."""
    root = os.path.join(os.path.abspath(src), "tsedarts")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def make_step(pkg, kw: dict, batch: int):
    """A no-argument step on a fixed net and batch: `(loss, grads)`."""
    net = pkg.supernet.Supernet(pkg.supernet.SupernetConfig(**kw))
    rng = np.random.default_rng(7)
    net.alpha.value = 0.3 * rng.standard_normal(net.alpha.shape)
    x = rng.standard_normal((batch,) + kw["in_shape"])
    y = rng.integers(0, kw["classes"], size=batch)
    wrt = net.weight_vars() + [net.alpha]
    return lambda: pkg.optim.loss_and_grads(net, (x, y), wrt)


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
    for name, (kw, batch) in NETS.items():
        steps = [make_step(pkg, kw, batch) for pkg in trees]
        same = same_numbers(steps[0](), steps[1]())
        identical &= same
        for _ in range(WARMUP):
            for step in steps:
                step()
        ms = ([], [])
        for i in range(pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                ms[side].append(timed(steps[side]))
        parent, change = quartiles(ms[0]), quartiles(ms[1])
        wins = sum(c < p for p, c in zip(*ms))
        summary[name] = {"identical": same, "pairs": pairs,
                         "parent_ms_q1_median_q3": parent,
                         "change_ms_q1_median_q3": change,
                         "ratio_of_medians": round(change[1] / parent[1], 4),
                         "change_wins": wins}
        print(f"{name:6s} numbers {'identical' if same else 'DIFFER'}; "
              f"parent {parent[1]:.2f} ms [{parent[0]:.2f}, {parent[2]:.2f}], "
              f"change {change[1]:.2f} ms [{change[0]:.2f}, {change[2]:.2f}], "
              f"change/parent {change[1] / parent[1]:.3f}, "
              f"change faster in {wins}/{pairs} pairs")
    print(json.dumps(summary))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
