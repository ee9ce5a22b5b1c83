"""Output checks of the benchmark.

Each check compares an output of the program with an independent
computation (plain numpy, written here without the program's code) or
with a property the method must have.  None compares with a stored copy
of an earlier output.  A check returns a dict with `name`, `ok` and a
`detail` string.
"""

from __future__ import annotations

import json
import os

import numpy as np

OPS = {
    "s2-like": ("Skip", "ParamLinear"),
    "nb201-like": ("Zero", "Skip", "ParamConv3x3", "AvgPool"),
}
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))   # full DAG on 4 nodes
NORM_EPS = 1e-5

VERIFY_CHECKS = (
    [f"tse-grad-lr0-seed{s}" for s in range(3)]
    + [f"exact-hypergrad-fd-seed{s}" for s in range(3)]
    + [f"eigen-quadratic-{i}" for i in range(10)]
    + ["depth-bruteforce-100dags"])


def result(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def read_checkpoint(directory: str) -> dict:
    """Decode params.json + params.bin (little-endian float64) by hand."""
    with open(os.path.join(directory, "params.json")) as f:
        manifest = json.load(f)
    blob = np.fromfile(os.path.join(directory, "params.bin"), dtype="<f8")
    if blob.size != manifest["total"]:
        raise ValueError("checkpoint blob size does not match its manifest")
    out = {}
    for entry in manifest["params"]:
        size = int(np.prod(entry["shape"]))
        out[entry["name"]] = blob[entry["offset"]:entry["offset"] + size].reshape(
            entry["shape"])
    return out


def check_runlog(records: list, epochs: int, exit_code: int) -> dict:
    seen = [r.get("epoch") for r in records]
    ok = exit_code == 0 and seen == list(range(epochs))
    return result("runlog", ok, f"exit {exit_code}, epochs {seen}")


def check_genotype(genotype: dict, alpha: np.ndarray, ops: tuple) -> dict:
    """genotype.json must hold the per-edge argmax of alpha, ties to the
    lowest operation index."""
    want = []
    for row in alpha:
        best = 0
        for k in range(1, len(row)):
            if row[k] > row[best]:
                best = k
        want.append(ops[best])
    got = [e["op"] for e in genotype["edges"]]
    edges = [(e["from"], e["to"]) for e in genotype["edges"]]
    ok = got == want and edges == list(EDGES)
    return result("genotype", ok, f"got {got}, argmax {want}")


def check_loss_decreases(records: list) -> dict:
    first, last = records[0]["train_loss"], records[-1]["train_loss"]
    return result("loss-decreases", last < first, f"first {first}, last {last}")


def check_close(name: str, got: np.ndarray, want: np.ndarray, rel: float) -> dict:
    """max |got - want| / max |want| must stay below `rel`."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return result(name, False, f"shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))
    return result(name, err < rel, f"relative error {err:.3e} (limit {rel:g})")


def _batch_norm(z: np.ndarray) -> np.ndarray:
    centred = z - z.mean(axis=0, keepdims=True)
    var = (centred * centred).mean(axis=0, keepdims=True)
    return centred * (var + NORM_EPS) ** -0.5


def mixed_forward(params: dict, x: np.ndarray, layers: int) -> np.ndarray:
    """Logits of the mixed s2-like vector supernet with mean aggregation.

    Every edge mixes Skip and tanh(batchnorm(x W + b)) by the softmax of
    its alpha row; every node averages its incoming edges.
    """
    alpha = params["alpha"]
    e = np.exp(alpha - alpha.max(axis=1, keepdims=True))
    mix = e / e.sum(axis=1, keepdims=True)
    h = np.tanh(x @ params["stem/W"] + params["stem/b"])
    for layer in range(layers):
        nodes = {0: h}
        for j in range(1, 4):
            incoming = [(k, i) for k, (i, jj) in enumerate(EDGES) if jj == j]
            acc = 0.0
            for k, i in incoming:
                pre = f"cell{layer}/e{i}-{j}/linear"
                lin = np.tanh(_batch_norm(nodes[i] @ params[f"{pre}/W"]
                                          + params[f"{pre}/b"]))
                acc = acc + mix[k, 0] * nodes[i] + mix[k, 1] * lin
            nodes[j] = acc / len(incoming)
        h = nodes[3]
    return h @ params["head/W"] + params["head/b"]


def check_round(k: int, restore_exact: bool, tse: float, step_losses: list,
                alpha_before: np.ndarray, alpha_after: np.ndarray) -> dict:
    """A tse-darts round restores the snapshot bit-exactly, reports TSE as
    the left-to-right sum of its step losses, and moves alpha."""
    total = 0.0
    for v in step_losses:
        total += v
    moved = bool(np.any(alpha_before != alpha_after))
    ok = restore_exact and tse == total and moved
    return result(f"round-{k}", ok,
                  f"restore_exact {restore_exact}, tse-sum {tse - total!r}, moved {moved}")


def check_verify_report(k: int, report: dict) -> dict:
    """Every suite passes and all 17 checks are present and pass."""
    checks = {c["name"]: c["pass"] for s in report["suites"] for c in s["checks"]}
    missing = [n for n in VERIFY_CHECKS if n not in checks]
    failing = [n for n, ok in checks.items() if not ok]
    ok = (report["pass"] and all(s["pass"] for s in report["suites"])
          and not missing and not failing and len(checks) == len(VERIFY_CHECKS))
    return result(f"verify-{k}", ok, f"missing {missing}, failing {failing}")
