"""Spans recorded around calls into the public functions of tsedarts.

`Tracer.install` replaces each traced function, in every tsedarts module
that holds a reference to it, by a wrapper that records one span
(name, start, end, parent) per call.  Spans stay in memory as flat lists
and are written out once, when the run ends.  Nothing inside the program
is changed: a span covers a call from its caller's side.

A span's self time is its duration minus the durations of its child
spans.  Time spent in code that has no span of its own (a helper that is
not traced, a VJP closure, `Var.__init__`) is self time of the innermost
traced call around it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "data", "supernet", "autodiff", "optim", "diagnostics",
          "space", "oracles")

PRIMITIVES = ("add", "sub", "mul", "div", "neg", "power", "matmul",
              "transpose", "reshape", "vexp", "vlog", "vtanh", "vsum",
              "vslice", "vscatter", "im2col3", "col2im3")

# (module, owner, attribute, span name).  owner is None for a module-level
# function and a class name for a method.
TRACED = (
    [("autodiff", None, p, f"autodiff.op.{p}") for p in PRIMITIVES] + [
        ("autodiff", None, "tape", "autodiff.tape"),
        ("autodiff", None, "backward", "autodiff.backward"),
        ("autodiff", None, "grad", "autodiff.grad"),
        ("autodiff", None, "hvp", "autodiff.hvp"),
        ("autodiff", None, "softmax_rows", "autodiff.softmax_rows"),
        ("autodiff", None, "cross_entropy", "autodiff.cross_entropy"),
        ("supernet", "Supernet", "__init__", "supernet.construct"),
        ("supernet", "Supernet", "forward", "supernet.forward"),
        ("supernet", "Supernet", "snapshot", "supernet.snapshot"),
        ("supernet", "Supernet", "restore", "supernet.restore"),
        ("supernet", None, "save_checkpoint", "supernet.save_checkpoint"),
        ("optim", None, "make_window", "optim.make_window"),
        ("optim", None, "tse_unroll", "optim.tse_unroll"),
        ("optim", None, "tse_darts_round", "optim.tse_darts_round"),
        ("optim", None, "darts_first_order_round", "optim.darts_first_order_round"),
        ("optim", None, "sgd_step", "optim.sgd_step"),
        ("optim", "ArchOptimizer", "step", "optim.arch_step"),
        ("optim", None, "exact_hypergradient", "optim.exact_hypergradient"),
        ("optim", None, "exact_tse_gradient", "optim.exact_tse_gradient"),
        ("diagnostics", None, "record_epoch", "diagnostics.record_epoch"),
        ("diagnostics", None, "dominant_eigenvalue", "diagnostics.dominant_eigenvalue"),
        ("diagnostics", None, "val_accuracy", "diagnostics.val_accuracy"),
        ("diagnostics", "SearchTrace", "write_csv", "diagnostics.write_csv"),
        ("data", None, "synth_blobs", "data.synth_blobs"),
        ("data", None, "split", "data.split"),
        ("data", None, "batches", "data.batches"),
        ("space", None, "make_space", "space.make_space"),
        ("space", None, "discretize", "space.discretize"),
        ("space", None, "cell_depth", "space.cell_depth"),
        ("space", None, "skip_count", "space.skip_count"),
        ("oracles", None, "fd_gradient", "oracles.fd_gradient"),
        ("oracles", None, "fd_hessian", "oracles.fd_hessian"),
        ("oracles", None, "dense_dominant_eigenvalue", "oracles.dense_dominant_eigenvalue"),
        ("oracles", None, "brute_force_longest_path", "oracles.brute_force_longest_path"),
        ("oracles", None, "random_dag", "oracles.random_dag"),
        ("cli", None, "run_search", "cli.run_search"),
        ("cli", None, "run_verify", "cli.run_verify"),
        ("cli", None, "_suite_gradients", "cli.verify.gradients"),
        ("cli", None, "_suite_eigen", "cli.verify.eigen"),
        ("cli", None, "_suite_depth", "cli.verify.depth"),
    ])

# Spans that also record a count of the work they did.
COUNTED = {"autodiff.tape": lambda tape: len(tape.nodes)}


class Tracer:
    """In-memory span recorder; `active` gates recording."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in call order; 8 bytes each
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count: dict[int, int] = {}
        self.stack = [-1]
        self.active = False

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts, counter = self.stack, self.count, COUNTED.get(name)
        clock = time.monotonic_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counts[i] = counter(out)
            return out

        return traced

    def install(self, package: str = "tsedarts"):
        """Wrap every TRACED function wherever a tsedarts module holds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == package or k.startswith(package + ".")) and m is not None]
        for mod_name, owner, attr, name in TRACED:
            mod = sys.modules[f"{package}.{mod_name}"]
            if owner is not None:
                cls = getattr(mod, owner)
                setattr(cls, attr, self._wrap(cls.__dict__[attr], name))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

    def spans(self) -> dict:
        """The recorded spans as arrays (times in ns of `time.monotonic_ns`)."""
        n = len(self.span_name)
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "count": np.array([self.count.get(i, 0) for i in range(n)], dtype=np.int64),
        }


def self_times(spans: dict, window: tuple) -> np.ndarray:
    """Self time of every span inside `window` = (t0, t1), in ns.

    Each span's duration is clipped to the window, and its children's
    clipped durations are subtracted.  Calls are synchronous, so children
    lie inside their parent and do not overlap one another.
    """
    t0, t1 = window
    clipped = np.clip(np.minimum(spans["end"], t1) - np.maximum(spans["start"], t0),
                      0, None).astype(np.float64)
    has_parent = spans["parent"] >= 0
    child_sum = np.bincount(spans["parent"][has_parent], weights=clipped[has_parent],
                            minlength=len(clipped))
    return clipped - child_sum


def layer_metrics(spans: dict, window: tuple, rounds: int) -> dict:
    """Per-layer metrics of one traced run.

    `.ms` is the median inclusive duration of one call over the whole
    traced run (set-up, rounds and outputs); `.calls`, `.nodes`, `.hvps`
    and `.self_ms` are per round, from the spans inside `window`.
    Functions a workload does not call read 0.
    """
    names = [str(n) for n in spans["names"]]
    nid = {n: i for i, n in enumerate(names)}
    sid = spans["name"]
    inside = (spans["start"] >= window[0]) & (spans["end"] <= window[1])
    self_ns = self_times(spans, window)
    per_name_self = np.bincount(sid, weights=self_ns, minlength=len(names))
    durations = spans["end"] - spans["start"]

    def ms(name):
        d = durations[sid == nid[name]]
        return float(np.median(d)) / 1e6 if d.size else 0.0

    def calls(name):
        return float(np.count_nonzero(inside & (sid == nid[name]))) / rounds

    out = {}
    for layer in LAYERS:
        total = sum(per_name_self[i] for n, i in nid.items() if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = total / 1e6 / rounds
    for name in ("autodiff.backward", "autodiff.tape", "autodiff.hvp",
                 "supernet.forward", "supernet.snapshot", "supernet.restore",
                 "supernet.save_checkpoint", "optim.tse_unroll",
                 "optim.tse_darts_round", "optim.darts_first_order_round",
                 "optim.sgd_step", "optim.arch_step", "optim.exact_hypergradient",
                 "optim.exact_tse_gradient", "diagnostics.record_epoch",
                 "diagnostics.dominant_eigenvalue", "diagnostics.val_accuracy",
                 "data.batches", "data.split", "space.discretize",
                 "cli.verify.gradients", "cli.verify.eigen", "cli.verify.depth",
                 "oracles.fd_gradient"):
        out[f"{name}.ms"] = ms(name)
    for name in ("autodiff.backward", "autodiff.hvp", "supernet.forward",
                 "optim.sgd_step"):
        out[f"{name}.calls"] = calls(name)
    tape = inside & (sid == nid["autodiff.tape"])
    out["autodiff.tape.nodes"] = float(spans["count"][tape].sum()) / rounds
    eig = np.flatnonzero(sid == nid["diagnostics.dominant_eigenvalue"])
    hvp_in_eig = inside & (sid == nid["autodiff.hvp"]) & np.isin(spans["parent"], eig)
    out["diagnostics.dominant_eigenvalue.hvps"] = float(np.count_nonzero(hvp_in_eig)) / rounds
    for p in PRIMITIVES:
        name = f"autodiff.op.{p}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = per_name_self[nid[name]] / 1e6 / rounds
    out["trace.attributed_pct"] = (100.0 * float(per_name_self.sum())
                                   / float(window[1] - window[0]))
    return out
