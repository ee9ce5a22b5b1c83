"""Per-epoch search diagnostics.

Dominant eigenvalue of the loss Hessian w.r.t. the architecture logits
(dense Hessian from finite-difference Hessian-vector products of a
replayed alpha-gradient, its columns spread over the CPUs),
skip-connection counts, cell depth and validation accuracy (in
balanced chunks of at most `VAL_CHUNK` = 256 samples), gathered once
per epoch into a runlog record (a plain dict) that SearchTrace
keeps and exports as CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .parallel import fork_map
from .space import ArchEncoding, Genotype, cell_depth, discretize, skip_count
from .supernet import Supernet


class DiagnosticsError(ValueError):
    pass


def dominant_eigenvalue(gradient, alpha0: np.ndarray) -> float:
    """Eigenvalue of largest magnitude of the dense alpha-Hessian.

    `gradient(alpha_flat)` is the flat gradient of the loss at the given
    logits, such as `alpha_gradient` makes.  One Hessian-vector product
    along each basis vector gives the n columns, and the symmetrised
    matrix is decomposed exactly: n products in all, 2n gradients, for
    the 12 (s2-like) or 24 (nb201-like) entries of alpha.  The columns
    are independent, so `parallel.fork_map` computes them side by side,
    one process per CPU, with the same numbers as one by one.  A Hessian
    of norm below 1e-10 reads 0.0.
    """
    theta = np.asarray(alpha0, dtype=np.float64).ravel()
    h = np.stack(fork_map(lambda e: ad.hvp(gradient, theta, e),
                          np.eye(theta.size)), axis=1)
    h = 0.5 * (h + h.T)
    if np.linalg.norm(h) < 1e-10:
        return 0.0
    evals = np.linalg.eigh(h)[0]   # eigvalsh differs in the last bits
    return float(evals[int(np.argmax(np.abs(evals)))])


def alpha_gradient(net: Supernet, batch):
    """The gradient of the loss on a fixed batch at given alpha logits,
    as a function of the flat logits, for `dominant_eigenvalue`.

    Each call sets one probe leaf to the logits and takes the loss and
    its detached gradient over the probe alone, at the net's weights.
    That step runs on one batch at every call, so the first call in each
    process records it (see `ad.planned`) and the rest replay it, bit for
    bit as on `Var`s.
    """
    probe = ad.param(np.zeros(net.alpha.shape), name="alpha_probe")
    run = ad.planned(
        lambda xb, yb: ad.grad(net.loss(net.forward(xb, alpha=probe), yb), [probe]),
        [probe] + net.weight_vars())

    def gradient(theta: np.ndarray) -> np.ndarray:
        probe.value = theta.reshape(probe.shape)
        (g,) = run(*batch)
        return g.ravel()

    return gradient


VAL_CHUNK = 256


def val_accuracy(net: Supernet, alpha_or_genotype, val_ds) -> float:
    """Fraction of argmax-correct predictions, evaluated in chunks.

    The set is split into the fewest chunks of at most `VAL_CHUNK`
    samples, balanced in size.  The parametric ops normalise by the
    statistics of the batch they see, so a lone trailing sample would
    have every one of them output zero; balanced chunks hold a single
    sample only when the whole set does.  Predictions still depend on the chunking.
    The forwards run under `ad.no_record()`: no graph is recorded, and
    each chunk holds only the arrays still in use.
    """
    if val_ds is None or len(val_ds) == 0:
        raise DiagnosticsError("empty validation dataset")
    correct = 0
    n_chunks = -(-len(val_ds) // VAL_CHUNK)
    for idx in np.array_split(np.arange(len(val_ds)), n_chunks):
        xb = val_ds.features[idx]
        yb = val_ds.labels[idx]
        with ad.no_record():
            if isinstance(alpha_or_genotype, Genotype):
                logits = net.discrete_forward(xb, alpha_or_genotype)
            else:
                logits = net.forward(xb, alpha=alpha_or_genotype)
            correct += int((logits.value.argmax(axis=1) == yb).sum())
    return correct / len(val_ds)


CSV_COLUMNS = ["epoch", "tse", "train_loss", "val_acc", "skip_count",
               "depth", "eig_val", "eig_train"]


@dataclass
class SearchTrace:
    records: list = field(default_factory=list)

    def append(self, record: dict):
        if self.records and record["epoch"] <= self.records[-1]["epoch"]:
            raise DiagnosticsError("epochs must be strictly increasing")
        self.records.append(record)

    def write_csv(self, path: str):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([r[c] for c in CSV_COLUMNS])


def record_epoch(trace: SearchTrace, net: Supernet, epoch: int, *,
                 tse: float | None, train_loss: float,
                 val_ds=None, eigen_batches: dict | None = None,
                 # ignored: the eigen route has no options (perfbench still passes them)
                 eigen_opts: dict | None = None) -> SearchTrace:
    """Append one complete runlog record; read-only with respect to
    (w, alpha).

    The record is a dict with the keys `epoch, tse, train_loss, val_acc,
    skip_count, depth, eig_val, eig_train, genotype`, in that order;
    `genotype` is the argmax genotype as `Genotype.to_json` writes it.
    `eigen_batches` maps loss source ("train"/"val") to a fixed
    diagnostic batch; enabled metrics must have their data configured.
    """
    encoding = ArchEncoding(net.alpha.value.copy())
    genotype = discretize(encoding, net.topology, net.ops)
    val_acc = None
    if val_ds is not None:
        val_acc = val_accuracy(net, net.alpha.value, val_ds)
    eig = {"train": None, "val": None}
    for source, batch in (eigen_batches or {}).items():
        if source not in eig:
            raise DiagnosticsError(f"unknown eigenvalue loss source {source!r}")
        eig[source] = dominant_eigenvalue(alpha_gradient(net, batch), net.alpha.value)
    trace.append({
        "epoch": epoch, "tse": tse, "train_loss": train_loss, "val_acc": val_acc,
        "skip_count": skip_count(genotype),
        "depth": cell_depth(genotype, net.topology),
        "eig_val": eig["val"], "eig_train": eig["train"],
        "genotype": json.loads(genotype.to_json()),
    })
    return trace
