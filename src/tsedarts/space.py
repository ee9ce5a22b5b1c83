"""Cell topologies, candidate operation sets, architecture encodings.

A cell is a DAG over nodes 0..n-1 (node 0 is the cell input, node n-1
the output) with edges (i, j), i < j.  Each edge carries one logit
vector over the operation set (the supernet mixes the operations by its
softmax); argmax per edge turns the continuous encoding into a discrete
genotype.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ZERO = "Zero"
SKIP = "Skip"
LINEAR = "ParamLinear"
CONV3X3 = "ParamConv3x3"
AVGPOOL = "AvgPool"

KNOWN_OPS = {ZERO, SKIP, LINEAR, CONV3X3, AVGPOOL}


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class OperationKind:
    """One candidate operation; `tag` selects the kernel."""

    tag: str

    def __post_init__(self):
        if self.tag not in KNOWN_OPS:
            raise SpaceError(f"unknown operation tag {self.tag!r}")


@dataclass(frozen=True)
class CellTopology:
    """DAG over `nodes` nodes; acyclic by the i < j edge convention."""

    nodes: int
    edges: tuple  # tuple of (i, j) with i < j
    preset: str = "custom"

    def __post_init__(self):
        if self.nodes < 2:
            raise SpaceError("a cell needs at least an input and an output node")
        for (i, j) in self.edges:
            if not (0 <= i < j < self.nodes):
                raise SpaceError(f"edge ({i}, {j}) violates 0 <= i < j < {self.nodes}")
        if len(set(self.edges)) != len(self.edges):
            raise SpaceError("duplicate edge")
        if not self._reachable():
            raise SpaceError("output node unreachable from input node")

    def _reachable(self) -> bool:
        reach = {0}
        for (i, j) in sorted(self.edges):
            if i in reach:
                reach.add(j)
        return self.nodes - 1 in reach

    @property
    def input_node(self) -> int:
        return 0

    @property
    def output_node(self) -> int:
        return self.nodes - 1


@dataclass
class ArchEncoding:
    """One real vector per edge, one entry per candidate operation."""

    table: np.ndarray  # (n_edges, n_ops)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 2:
            raise SpaceError("encoding table must be (n_edges, n_ops)")
        if not np.all(np.isfinite(self.table)):
            raise SpaceError("non-finite architecture encoding")


@dataclass(frozen=True)
class Genotype:
    """One chosen operation per edge."""

    edges: tuple        # (i, j) pairs, aligned with `ops`
    ops: tuple          # OperationKind per edge
    preset: str = "custom"

    def to_json(self) -> str:
        doc = {
            "edges": [
                {"from": i, "to": j, "op": op.tag}
                for (i, j), op in zip(self.edges, self.ops)
            ],
            "topology": self.preset,
        }
        return json.dumps(doc, indent=2)


def discretize(encoding: ArchEncoding, topology: CellTopology,
               ops: Sequence[OperationKind]) -> Genotype:
    """argmax per edge (ties -> lowest op index)."""
    if encoding.table.shape != (len(topology.edges), len(ops)):
        raise SpaceError("encoding does not cover the topology")
    chosen = [ops[int(np.argmax(row))] for row in encoding.table]
    return Genotype(tuple(topology.edges), tuple(chosen), topology.preset)


def cell_depth(genotype: Genotype, topology: CellTopology) -> int:
    """Longest input->output path (edge count) after deleting Zero edges."""
    dist = {topology.input_node: 0}
    for (i, j), op in sorted(zip(genotype.edges, genotype.ops)):
        if op.tag == ZERO or i not in dist:
            continue
        dist[j] = max(dist.get(j, 0), dist[i] + 1)
    return dist.get(topology.output_node, 0)


def skip_count(genotype: Genotype) -> int:
    return sum(1 for op in genotype.ops if op.tag == SKIP)


def _full_dag(nodes: int) -> tuple:
    return tuple((i, j) for i in range(nodes) for j in range(i + 1, nodes))


def make_space(preset: str, features: str = "vector"):
    """Return (CellTopology, operation tuple) for a named preset.

    `features` picks the parametric kernel: dense for vector data,
    3x3 convolution for image data.  Other cells are passed to
    `Supernet` as a topology and an operation tuple.
    """
    if features not in ("vector", "image"):
        raise SpaceError(f"unknown feature kind {features!r}")
    parametric = LINEAR if features == "vector" else CONV3X3
    if preset == "nb201-like":
        topo = CellTopology(4, _full_dag(4), preset)
        ops = (OperationKind(ZERO), OperationKind(SKIP),
               OperationKind(parametric), OperationKind(AVGPOOL))
        return topo, ops
    if preset == "s2-like":
        topo = CellTopology(4, _full_dag(4), preset)
        ops = (OperationKind(SKIP), OperationKind(parametric))
        return topo, ops
    raise SpaceError(f"unknown preset {preset!r}")
