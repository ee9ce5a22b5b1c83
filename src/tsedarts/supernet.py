"""Weight-sharing supernetwork of stacked cells.

Weights w and architecture logits alpha live in disjoint parameter
groups; alpha is shared by every cell.  Both forward passes run one
stem -> cells -> head body over `(op tag, weight)` terms per edge: the
mixed pass weights each non-Zero candidate by the softmax of the edge's
logits, the discrete pass keeps the genotype's op unweighted (None).
Each node averages its incoming edge contributions.

The parametric operations (ParamLinear, ParamConv3x3) normalise their
pre-activation by the statistics of the current batch, as the
parameter-free (`affine=False`) BatchNorm in every op of the DARTS search
supernet does.  Without it, node averaging shrinks the input signal by a
factor of about 0.3 per cell, and a deep stack hands the head a
constant.  The normalisation comes before `tanh`, so op outputs stay
bounded.  No running statistics are kept, so the weights stay the whole
state; the bias of a normalised affine map is inert, but it is kept so
that the parameter layout does not change.

On images, ParamConv3x3 (and the stem) is `ad.conv3x3(x, W)`, one node
that multiplies the patch rows of `x` by a (9c, c_out) weight, and AvgPool is
`ad.boxsum3(x) / 9`, a zero-padded 3x3 window mean.  On vectors, AvgPool
multiplies by a fixed kernel-3 neighbourhood-averaging matrix.

`save_checkpoint` and `load_checkpoint` keep the weights and alpha in
one directory, as `params.bin` (a flat little-endian float64 blob) and
`params.json` (its manifest of names, shapes and offsets).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .space import (AVGPOOL, CONV3X3, LINEAR, SKIP, ZERO, CellTopology,
                    Genotype, make_space)


class SupernetError(ValueError):
    pass


@dataclass(frozen=True)
class SupernetConfig:
    layers: int
    width: int
    preset: str = "nb201-like"
    classes: int = 4
    in_shape: tuple = (16,)   # (d,) vectors or (c, h, w) images
    seed: int = 0
    aggregation: str = "mean"  # node aggregation: "mean" | "sum"

    def __post_init__(self):
        if self.layers < 1:
            raise SupernetError("layers must be >= 1")
        if self.width < 1:
            raise SupernetError("width must be >= 1")
        if self.classes < 2:
            raise SupernetError("classes must be >= 2")
        if len(self.in_shape) not in (1, 3):
            raise SupernetError("in_shape must be (d,) or (c, h, w)")
        if self.aggregation not in ("mean", "sum"):
            raise SupernetError("aggregation must be 'mean' or 'sum'")

    @property
    def features(self) -> str:
        return "vector" if len(self.in_shape) == 1 else "image"


_NORM_EPS = 1e-5


def _batch_norm(x: Var, axes: tuple) -> Var:
    """(x - mean) / sqrt(var + eps), statistics over `axes` of this batch.

    Built from differentiable ops, so it stays twice-differentiable.
    """
    mu = x
    for ax in axes:
        mu = mu.mean(axis=ax, keepdims=True)
    centred = x - mu
    var = centred * centred
    for ax in axes:
        var = var.mean(axis=ax, keepdims=True)
    return centred * ad.power(var + _NORM_EPS, -0.5)


def _avg_matrix(d: int) -> np.ndarray:
    """Kernel-3, same-padded neighborhood averaging as a fixed matrix."""
    a = np.zeros((d, d))
    for i in range(d):
        lo, hi = max(0, i - 1), min(d, i + 2)
        a[lo:hi, i] = 1.0 / (hi - lo)
    return a


class Supernet:
    """Stacked cells over shared architecture logits.

    `params` maps weight names to leaf Vars; `alpha` is a separate
    (n_edges, n_ops) leaf.  Forward is a pure function of
    (weights, alpha, batch).
    """

    def __init__(self, config: SupernetConfig,
                 topology: CellTopology | None = None,
                 ops: tuple | None = None):
        self.config = config
        if topology is None or ops is None:
            topology, ops = make_space(config.preset, features=config.features)
        self.topology = topology
        self.ops = tuple(ops)
        # each node after the input, with its incoming (edge index, edge) pairs
        self._incoming = [(j, [(e, edge) for e, edge in enumerate(topology.edges)
                               if edge[1] == j]) for j in range(1, topology.nodes)]
        if config.features == "image" and any(o.tag == LINEAR for o in self.ops):
            raise SupernetError("ParamLinear operation needs vector inputs")
        if config.features == "vector" and any(o.tag == CONV3X3 for o in self.ops):
            raise SupernetError("ParamConv3x3 operation needs image inputs")

        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Var] = {}
        w = config.width
        if config.features == "vector":
            self._add_affine(rng, "stem", config.in_shape[0], w)
            self._pool = ad.const(_avg_matrix(w))
        else:
            self._add_affine(rng, "stem", 9 * config.in_shape[0], w)
        for layer in range(config.layers):
            for e_idx, (i, j) in enumerate(self.topology.edges):
                for op in self.ops:
                    if op.tag == LINEAR:
                        self._add_affine(rng, f"cell{layer}/e{i}-{j}/linear", w, w)
                    elif op.tag == CONV3X3:
                        self._add_affine(rng, f"cell{layer}/e{i}-{j}/conv", 9 * w, w)
        self._add_affine(rng, "head", w, config.classes)
        self.alpha = ad.param(
            np.zeros((len(self.topology.edges), len(self.ops))), name="alpha")

    def _add_affine(self, rng, prefix: str, fan_in: int, fan_out: int):
        bound = 1.0 / np.sqrt(fan_in)
        self.params[f"{prefix}/W"] = ad.param(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=f"{prefix}/W")
        self.params[f"{prefix}/b"] = ad.param(
            rng.uniform(-bound, bound, size=(fan_out,)), name=f"{prefix}/b")

    # -- parameter bookkeeping -------------------------------------
    def weight_vars(self) -> list:
        return list(self.params.values())

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def snapshot(self) -> dict:
        return {k: v.value.copy() for k, v in self.params.items()}

    def restore(self, snap: dict):
        for k, v in self.params.items():
            v.value = snap[k].copy()

    # -- forward passes --------------------------------------------
    def forward(self, batch: np.ndarray, alpha: Var | np.ndarray | None = None,
                params: dict | None = None) -> Var:
        """Mixed-operation forward pass; returns logits (batch, classes)."""
        terms = self._mixed_terms(self._resolve_alpha(alpha))
        return self._run(batch, terms, params)

    def discrete_forward(self, batch: np.ndarray, genotype: Genotype,
                         params: dict | None = None) -> Var:
        """Forward using only the chosen operation per edge."""
        if genotype.edges != tuple(self.topology.edges):
            raise SupernetError("genotype does not match topology")
        if len(genotype.ops) != len(genotype.edges):
            raise SupernetError(f"genotype has {len(genotype.ops)} ops "
                                f"for {len(genotype.edges)} edges")
        for edge, op in zip(genotype.edges, genotype.ops):
            if op not in self.ops:
                raise SupernetError(f"edge {edge}: {op.tag} is not a candidate operation")
        terms = [[] if op.tag == ZERO else [(op.tag, None)] for op in genotype.ops]
        return self._run(batch, terms, params)

    def _mixed_terms(self, alpha: Var) -> list:
        """Each edge's (op tag, softmax weight) terms, Zero left out; the
        weights are sliced once per forward and shared by every cell.
        Runs inside `ad.trapped`, which first checks alpha."""
        with ad.trapped([alpha]):
            mix = ad.softmax_rows(alpha)
            return [[(op.tag, ad.vslice(mix, (e_idx, o_idx)))
                     for o_idx, op in enumerate(self.ops) if op.tag != ZERO]
                    for e_idx in range(len(self.topology.edges))]

    def _run(self, batch: np.ndarray, terms: list, params: dict | None) -> Var:
        """stem, every cell, head: the body of both forward passes, run
        inside `ad.trapped`, which first checks the weights it reads."""
        params = params if params is not None else self.params
        with ad.trapped(params.values()):
            x = self._stem(batch, params)
            for layer in range(self.config.layers):
                x = self._cell(x, layer, params, terms)
            return self._head(x, params)

    def loss(self, logits: Var, targets: np.ndarray) -> Var:
        return ad.cross_entropy(logits, targets)

    def _resolve_alpha(self, alpha) -> Var:
        if alpha is None:
            return self.alpha
        if not isinstance(alpha, Var):
            alpha = ad.const(alpha)
        if alpha.shape != self.alpha.shape:
            raise SupernetError(
                f"alpha shape {alpha.shape} != {self.alpha.shape}")
        return alpha

    def _stem(self, batch: np.ndarray, params: dict) -> Var:
        if np.shape(batch)[1:] != self.config.in_shape:
            raise SupernetError(
                f"batch shape {np.shape(batch)[1:]} != {self.config.in_shape}")
        x = ad.derived(np.asarray, batch, np.float64)
        if self.config.features == "vector":
            return ad.vtanh(x @ params["stem/W"] + params["stem/b"])
        return ad.vtanh(self._conv(x, params["stem/W"], params["stem/b"]))

    def _head(self, x: Var, params: dict) -> Var:
        if self.config.features == "image":
            x = x.mean(axis=3).mean(axis=2)  # global average pool
        return x @ params["head/W"] + params["head/b"]

    def _conv(self, x: Var, w: Var, b: Var) -> Var:
        # 3x3 same-padded conv: one node, rows (n*h*w, c_out) per pixel
        n, _, h, wd = x.shape
        out = ad.conv3x3(x, w) + b
        return ad.transpose(ad.reshape(out, (n, h, wd, w.shape[1])), (0, 3, 1, 2))

    def _apply_op(self, tag: str, x: Var, layer: int, edge: tuple, params: dict):
        """One non-Zero candidate operation on edge `edge`.

        Parametric ops compute tanh(norm(affine(x))), where `norm` is the
        parameter-free batch normalisation (per feature for ParamLinear,
        per channel over (n, h, w) for ParamConv3x3); centring makes
        their bias inert.  Skip and AvgPool are left unnormalised.
        """
        i, j = edge
        if tag == SKIP:
            return x
        if tag == LINEAR:
            pre = f"cell{layer}/e{i}-{j}/linear"
            return ad.vtanh(_batch_norm(
                x @ params[f"{pre}/W"] + params[f"{pre}/b"], (0,)))
        if tag == CONV3X3:
            pre = f"cell{layer}/e{i}-{j}/conv"
            conv = self._conv(x, params[f"{pre}/W"], params[f"{pre}/b"])
            return ad.vtanh(_batch_norm(conv, (0, 2, 3)))
        if tag == AVGPOOL:
            if self.config.features == "vector":
                return x @ self._pool
            return ad.boxsum3(x) / 9.0
        raise SupernetError(f"unknown operation tag {tag!r}")

    def _cell(self, x_in: Var, layer: int, params: dict, terms: list) -> Var:
        """Each node left-folds the op outputs of its incoming edges'
        terms, each scaled by its weight unless that is None."""
        feats = {self.topology.input_node: x_in}
        for node, edges_in in self._incoming:
            acc = None
            for e_idx, edge in edges_in:
                for tag, weight in terms[e_idx]:
                    out = self._apply_op(tag, feats[edge[0]], layer, edge, params)
                    out = out if weight is None else weight * out
                    acc = out if acc is None else acc + out
            if acc is None:
                acc = ad.const(np.zeros(x_in.shape))
            elif self.config.aggregation == "mean" and len(edges_in) > 1:
                acc = acc * (1.0 / len(edges_in))
            feats[node] = acc
        return feats[self.topology.output_node]


# ------------------------------------------------------------------
# checkpoint format: flat little-endian float64 blob + JSON manifest
# ------------------------------------------------------------------

BLOB_NAME = "params.bin"
MANIFEST_NAME = "params.json"


def save_checkpoint(net: Supernet, directory: str):
    os.makedirs(directory, exist_ok=True)
    entries, chunks, offset = [], [], 0
    named = list(net.params.items()) + [("alpha", net.alpha)]
    for name, var in named:
        arr = np.ascontiguousarray(var.value, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.size
    with open(os.path.join(directory, BLOB_NAME), "wb") as f:
        f.write(b"".join(chunks))
    manifest = {"dtype": "<f8", "total": offset, "params": entries}
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2)


def load_checkpoint(net: Supernet, directory: str):
    with open(os.path.join(directory, MANIFEST_NAME)) as f:
        manifest = json.load(f)
    blob = np.fromfile(os.path.join(directory, BLOB_NAME), dtype="<f8")
    if blob.size != manifest["total"]:
        raise SupernetError("checkpoint blob size does not match manifest")
    named = dict(net.params, alpha=net.alpha)
    saved = {entry["name"]: tuple(entry["shape"]) for entry in manifest["params"]}
    if saved != {name: var.shape for name, var in named.items()}:
        raise SupernetError("checkpoint parameter names or shapes do not match the net")
    for entry in manifest["params"]:
        offset = entry["offset"]
        if (type(offset) is not int or offset < 0
                or offset + named[entry["name"]].value.size > blob.size):
            raise SupernetError(f"checkpoint entry {entry['name']}: offset {offset!r} "
                                "lies outside the blob")
    for entry in manifest["params"]:
        var = named[entry["name"]]
        arr = blob[entry["offset"]:entry["offset"] + var.value.size].reshape(var.shape)
        var.value = arr.astype(np.float64).copy()
