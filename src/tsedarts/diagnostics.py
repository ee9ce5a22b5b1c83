"""Per-epoch search diagnostics.

Dominant eigenvalue of the loss Hessian w.r.t. the architecture logits
(dense Hessian from finite-difference Hessian-vector products),
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
from .space import ArchEncoding, Genotype, cell_depth, discretize, skip_count
from .supernet import Supernet


class DiagnosticsError(ValueError):
    pass


def dominant_eigenvalue(loss_closure, alpha0: np.ndarray) -> float:
    """Eigenvalue of largest magnitude of the dense alpha-Hessian.

    `loss_closure(alpha_flat)` rebuilds the loss at the given logits and
    returns (loss Var, leaf Var).  One Hessian-vector product along each
    basis vector gives the n columns, and the symmetrised matrix is
    decomposed exactly: n products in all, for the 12 (s2-like) or 24
    (nb201-like) entries of alpha.  A Hessian of norm below 1e-10 reads
    0.0.
    """
    theta = np.asarray(alpha0, dtype=np.float64).ravel()
    h = np.stack([ad.hvp(loss_closure, theta, e) for e in np.eye(theta.size)],
                 axis=1)
    h = 0.5 * (h + h.T)
    if np.linalg.norm(h) < 1e-10:
        return 0.0
    evals = np.linalg.eigh(h)[0]   # eigvalsh differs in the last bits
    return float(evals[int(np.argmax(np.abs(evals)))])


def alpha_loss_closure(net: Supernet, batch):
    """Loss on a fixed batch as a function of the flat alpha logits."""
    xb, yb = batch
    shape = net.alpha.shape

    def closure(theta: np.ndarray):
        leaf = ad.param(theta.reshape(shape), name="alpha_probe")
        loss = net.loss(net.forward(xb, alpha=leaf), yb)
        return loss, leaf

    return closure


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
        eig[source] = dominant_eigenvalue(alpha_loss_closure(net, batch),
                                          net.alpha.value)
    trace.append({
        "epoch": epoch, "tse": tse, "train_loss": train_loss, "val_acc": val_acc,
        "skip_count": skip_count(genotype),
        "depth": cell_depth(genotype, net.topology),
        "eig_val": eig["val"], "eig_train": eig["train"],
        "genotype": json.loads(genotype.to_json()),
    })
    return trace
