"""Experiment runner and reporting surface.

Subcommands:
  search  - run one seeded architecture search (darts-1st or tse-darts)
  verify  - run the oracle cross-check suites
  plots   - turn run logs into long-format trajectory CSVs
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import diagnostics as diag
from . import optim
from . import oracles
from . import space as spacemod
from . import supernet as snmod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    space: str = "s2-like"
    optimizer: str = "tse-darts"       # "tse-darts" | "darts-1st"
    layers: int = 8
    unroll_t: int | None = None        # resolved against dataset size
    epochs: int = 30
    lr: float = 0.025
    arch_lr: float = 3e-4
    arch_weight_decay: float = 1e-3
    seed: int = 0
    out: str = "run"
    dataset: str = "synth"
    val_frac: float | None = None      # search split; None -> per-method default
    diag_val_frac: float = 0.1         # diagnostics-only split, labeled as such
    diag_eigen: bool = True
    width: int = 8
    batch_size: int = 32
    aggregation: str = "mean"          # node aggregation: "mean" | "sum"

    def validate(self):
        if self.optimizer not in ("tse-darts", "darts-1st"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.layers < 1 or self.epochs < 1:
            raise ConfigError("layers and epochs must be >= 1")
        if not (0 < self.lr < math.inf and 0 < self.arch_lr < math.inf):
            raise ConfigError("learning rates must be finite and > 0")
        if not 0 <= self.arch_weight_decay < math.inf:
            raise ConfigError("arch-wd must be finite and >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.diag_val_frac < 1.0):
            raise ConfigError("diag-val-frac must be in [0, 1)")
        if self.optimizer == "tse-darts" and self.val_frac not in (None, 0.0):
            raise ConfigError(
                "tse-darts searches use no validation split (val-frac must be 0); "
                "use --diag-val-frac for a diagnostics-only split")
        if self.optimizer == "darts-1st" and self.val_frac is not None \
                and not self.val_frac > 0.0:
            raise ConfigError(
                "darts-1st steps alpha on a validation split (val-frac must be > 0)")
        if self.unroll_t is not None and not (1 <= self.unroll_t <= 100):
            raise ConfigError("unroll T must be in [1, 100]")

    def resolved(self, n_samples: int) -> dict:
        cfg = dataclasses.asdict(self)
        if cfg["unroll_t"] is None:
            cfg["unroll_t"] = 100 if n_samples >= 10000 else 25
        if cfg["val_frac"] is None:
            cfg["val_frac"] = 0.0 if self.optimizer == "tse-darts" else 0.5
        return cfg


def _spec_values(spec: str, prefix: str, types: tuple) -> list:
    """The comma-separated values after `prefix`, one per type."""
    values = spec[len(prefix):].split(",")
    if len(values) != len(types):
        raise ConfigError(
            f"dataset spec {spec!r}: needs {len(types)} comma-separated values")
    try:
        return [t(v) for t, v in zip(types, values)]
    except ValueError as err:
        raise ConfigError(f"dataset spec {spec!r}: {err}") from None


def _load_dataset(spec: str, seed: int) -> datamod.Dataset:
    sizes = (int, int, int, float)   # classes, dim, samples, noise
    if spec == "synth":
        return datamod.synth_blobs(4, 16, 4096, 0.3, seed)
    if spec.startswith("synth:"):
        return datamod.synth_blobs(*_spec_values(spec, "synth:", sizes), seed)
    if spec.startswith("xor:"):
        return datamod.synth_xor(*_spec_values(spec, "xor:", sizes), seed)
    if spec.startswith("idx:"):
        images, labels = _spec_values(spec, "idx:", (str, str))
        try:
            return datamod.load_idx(images, labels)
        except OSError as err:
            raise ConfigError(f"dataset spec {spec!r}: {err}") from None
    raise ConfigError(f"unknown dataset spec {spec!r}")


def _reject_lone_batch(name: str, ds: datamod.Dataset, batch_size: int):
    """ConfigError when each pass over `ds` in batches of `batch_size`
    would end in a batch of one: batch normalisation centres it to zero,
    so every parametric op outputs 0 and its weights get no gradient."""
    if (len(ds) % batch_size or batch_size) == 1:
        raise ConfigError(
            f"the {name} split has {len(ds)} samples, so batches of "
            f"{batch_size} end in a batch of one sample; change --batch-size "
            "or the split sizes")


def run_search(config: RunConfig) -> int:
    config.validate()
    started = time.time()

    ds = _load_dataset(config.dataset, config.seed)
    resolved = config.resolved(len(ds))
    t_steps = resolved["unroll_t"]
    val_frac = resolved["val_frac"]

    # Diagnostics-only split first; the search never sees it.
    search_ds, diag_ds = datamod.split(
        ds, datamod.SplitSpec(1.0 - config.diag_val_frac, config.diag_val_frac,
                              seed=config.seed + 1)) \
        if config.diag_val_frac > 0 else (ds, None)
    if val_frac > 0:
        train_ds, sval_ds = datamod.split(
            search_ds, datamod.SplitSpec(1.0 - val_frac, val_frac,
                                         seed=config.seed + 2))
    else:
        train_ds, sval_ds = search_ds, None
    if config.batch_size > len(train_ds):
        raise ConfigError(
            f"batch size {config.batch_size} exceeds the {len(train_ds)} "
            "samples of the train split")
    _reject_lone_batch("train", train_ds, config.batch_size)
    if sval_ds is not None:
        val_batch = min(config.batch_size, len(sval_ds))
        _reject_lone_batch("validation", sval_ds, val_batch)
    if diag_ds is not None:
        # one eigen batch, balanced `val_accuracy` chunks: lone only at 1 sample
        _reject_lone_batch("diagnostics", diag_ds, len(diag_ds))

    net_cfg = snmod.SupernetConfig(
        layers=config.layers, width=config.width, preset=config.space,
        classes=ds.classes, in_shape=ds.features.shape[1:], seed=config.seed,
        aggregation=config.aggregation)
    net = snmod.Supernet(net_cfg)

    w_cfg = optim.SGDConfig(lr=config.lr)
    arch_opt = optim.ArchOptimizer(optim.ArchOptimizerConfig(
        lr=config.arch_lr, weight_decay=config.arch_weight_decay))

    resolved["parameter_count"] = net.n_parameters()
    resolved["started"] = started
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {config.out}: {err.strerror}") from None
    with open(os.path.join(config.out, "config.json"), "w") as f:
        json.dump(resolved, f, indent=2)

    # Fixed seeded diagnostic batches so trajectories are comparable.
    diag_rng = np.random.default_rng(config.seed + 3)
    eigen_batches = {}
    if config.diag_eigen:
        idx = diag_rng.permutation(len(train_ds))[:512]
        eigen_batches["train"] = (train_ds.features[idx], train_ds.labels[idx])
        eig_src = diag_ds if diag_ds is not None else sval_ds
        if eig_src is not None:
            idx = diag_rng.permutation(len(eig_src))[:512]
            eigen_batches["val"] = (eig_src.features[idx], eig_src.labels[idx])

    train_stream = datamod.batch_stream(train_ds, config.batch_size,
                                        seed=config.seed + 4)
    val_stream = (datamod.batch_stream(sval_ds, val_batch, seed=config.seed + 5)
                  if sval_ds is not None else None)

    trace = diag.SearchTrace()
    runlog_path = os.path.join(config.out, "runlog.jsonl")
    try:
        with open(runlog_path, "w") as runlog:
            for epoch in range(config.epochs):
                if config.optimizer == "tse-darts":
                    window = optim.make_window(
                        net, [next(train_stream) for _ in range(t_steps)])
                    result = optim.tse_darts_round(net, window, w_cfg, arch_opt)
                    tse_value = result.tse
                    train_loss = float(np.mean(result.retrain_losses))
                else:
                    losses = []
                    for _ in range(t_steps):
                        step = optim.darts_first_order_round(
                            net, next(train_stream), next(val_stream),
                            w_cfg, arch_opt)
                        losses.append(step["train_loss"])
                    tse_value = None
                    train_loss = float(np.mean(losses))
                diag.record_epoch(
                    trace, net, epoch, tse=tse_value, train_loss=train_loss,
                    val_ds=diag_ds, eigen_batches=eigen_batches)
                rec = dict(trace.records[-1], seed=config.seed, time=time.time())
                runlog.write(json.dumps(rec) + "\n")
                runlog.flush()
    except (optim.UnrollAbort, ad.NonFiniteError, optim.OptimError) as err:
        with open(os.path.join(config.out, "abort.json"), "w") as f:
            json.dump({"error": str(err)}, f)
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC

    trace.write_csv(os.path.join(config.out, "metrics.csv"))
    with open(os.path.join(config.out, "genotype.json"), "w") as f:
        f.write(json.dumps(trace.records[-1]["genotype"], indent=2) + "\n")
    snmod.save_checkpoint(net, config.out)
    return EXIT_OK


# ------------------------------------------------------------------
# verification suites
# ------------------------------------------------------------------

def _tiny_net(seed: int) -> snmod.Supernet:
    cfg = snmod.SupernetConfig(layers=1, width=3, preset="s2-like",
                               classes=2, in_shape=(4,), seed=seed)
    return snmod.Supernet(cfg)


def _tiny_batches(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((6, 4)), rng.integers(0, 2, size=6))
            for _ in range(count)]


def _suite_gradients() -> dict:
    checks = []
    for seed in range(3):
        net = _tiny_net(seed)
        net.alpha.value = 0.3 * np.random.default_rng(seed + 50).standard_normal(
            net.alpha.shape)
        window = optim.make_window(net, _tiny_batches(seed + 100, 4))

        # At lr 0 the approximate and exact TSE gradients must coincide.
        zero = optim.SGDConfig(lr=0.0)
        approx = optim.tse_unroll(net, window, zero).alpha_grad
        _, exact = optim.exact_tse_gradient(net, window, zero)
        err0 = float(np.max(np.abs(approx - exact)))
        checks.append({"name": f"tse-grad-lr0-seed{seed}", "error": err0,
                       "tolerance": 1e-12, "pass": err0 < 1e-12})

        # Exact hypergradient vs central differences of the final loss.
        cfg = optim.SGDConfig(lr=0.05)
        exact_h = optim.exact_hypergradient(net, window, cfg).ravel()

        fd = oracles.fd_gradient(
            lambda a: oracles.replay_final_loss(net, window, cfg, a),
            net.alpha.value.ravel(), step=1e-5)
        denom = max(float(np.max(np.abs(fd))), 1e-8)
        err = float(np.max(np.abs(exact_h - fd)) / denom)
        checks.append({"name": f"exact-hypergrad-fd-seed{seed}", "error": err,
                       "tolerance": 1e-4, "pass": err < 1e-4})
    return {"suite": "gradients", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _suite_eigen(count: int = 10) -> dict:
    dim = 10
    checks = []
    rng = np.random.default_rng(0)
    for i in range(count):
        m = rng.standard_normal((dim, dim))
        a = 0.5 * (m + m.T)

        def closure(theta, a=a):
            leaf = ad.param(theta.reshape(1, -1), name="theta")
            quad = ad.vsum((leaf @ ad.const(a)) * leaf) * 0.5
            return quad, leaf

        est = diag.dominant_eigenvalue(closure, np.zeros(dim))
        ref = oracles.dense_dominant_eigenvalue(
            lambda th, a=a: 0.5 * float(th @ a @ th), np.zeros(dim))
        err = float(abs(est - ref) / max(abs(ref), 1e-12))
        checks.append({"name": f"eigen-quadratic-{i}", "error": err,
                       "tolerance": 1e-3, "pass": bool(err < 1e-3)})
    return {"suite": "eigen", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _suite_depth(count: int = 100, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(count):
        n, edges = oracles.random_dag(rng)
        topo = spacemod.CellTopology(n, tuple(edges))
        ops = tuple(spacemod.OperationKind(
            rng.choice([spacemod.ZERO, spacemod.SKIP, spacemod.LINEAR]))
            for _ in edges)
        geno = spacemod.Genotype(tuple(edges), ops)
        kept = [e for e, op in zip(edges, ops) if op.tag != spacemod.ZERO]
        ref = oracles.brute_force_longest_path(n, kept, 0, n - 1)
        if spacemod.cell_depth(geno, topo) != ref:
            mismatches += 1
    check = {"name": f"depth-bruteforce-{count}dags", "error": mismatches,
             "tolerance": 0, "pass": mismatches == 0}
    return {"suite": "depth", "checks": [check], "pass": check["pass"]}


def run_verify(suite: str, out_path: str | None = None) -> int:
    suites = {"gradients": _suite_gradients, "eigen": _suite_eigen,
              "depth": _suite_depth}
    if suite != "all" and suite not in suites:
        raise ConfigError(f"unknown suite {suite!r}")
    if out_path and (os.path.isdir(out_path)
                     or not os.path.isdir(os.path.dirname(out_path) or ".")):
        raise ConfigError(f"--out {out_path}: not a file path in an existing directory")
    names = list(suites) if suite == "all" else [suite]
    report = {"suites": [suites[n]() for n in names]}
    report["pass"] = all(s["pass"] for s in report["suites"])
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK if report["pass"] else 1


# ------------------------------------------------------------------
# plot-ready trajectory CSVs
# ------------------------------------------------------------------

_TRAJECTORIES = {
    "skip_trajectory.csv": "skip_count",
    "depth_trajectory.csv": "depth",
    "eigenvalue_trajectory.csv": "eig_val",
    "accuracy_trajectory.csv": "val_acc",
}


def _find_runlogs(run_dir: str) -> list:
    if not os.path.isdir(run_dir):
        raise ConfigError(f"{run_dir} is not a directory")
    direct = os.path.join(run_dir, "runlog.jsonl")
    if os.path.exists(direct):
        return [direct]
    found = sorted(
        os.path.join(run_dir, d, "runlog.jsonl")
        for d in os.listdir(run_dir)
        if os.path.exists(os.path.join(run_dir, d, "runlog.jsonl")))
    if not found:
        raise ConfigError(f"no runlog.jsonl under {run_dir}")
    return found


def emit_plots(run_dir: str) -> int:
    logs = _find_runlogs(run_dir)
    rows: dict[str, list] = {name: [] for name in _TRAJECTORIES}
    for log in logs:
        with open(log, "rb") as f:   # json.loads decodes, inside the try
            for n, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    epoch = rec["epoch"]
                except (ValueError, KeyError, TypeError):
                    raise ConfigError(
                        f"{log} line {n}: not a runlog record with an epoch") from None
                for name, key in _TRAJECTORIES.items():
                    rows[name].append((epoch, rec.get(key), rec.get("seed")))
    for name in _TRAJECTORIES:
        with open(os.path.join(run_dir, name), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "value", "seed"])
            writer.writerows(rows[name])
    return EXIT_OK


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsedarts", description="desk-scale differentiable architecture search")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag's dest is its RunConfig field; a flag not given stays out
    # of the namespace, so RunConfig holds the only copy of the defaults.
    s = sub.add_parser("search", help="run one seeded search",
                       argument_default=argparse.SUPPRESS)
    s.add_argument("--space", choices=["nb201-like", "s2-like"])
    s.add_argument("--optimizer", choices=["tse-darts", "darts-1st"])
    s.add_argument("--layers", type=int)
    s.add_argument("--unroll-t", type=int)
    s.add_argument("--epochs", type=int)
    s.add_argument("--lr", type=float)
    s.add_argument("--arch-lr", type=float)
    s.add_argument("--arch-wd", type=float, dest="arch_weight_decay",
                   metavar="ARCH_WD")
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.add_argument("--dataset")
    s.add_argument("--val-frac", type=float)
    s.add_argument("--diag-val-frac", type=float)
    s.add_argument("--diag-eigen", choices=["on", "off"])
    s.add_argument("--width", type=int)
    s.add_argument("--batch-size", type=int)
    s.add_argument("--aggregation", choices=["mean", "sum"])

    v = sub.add_parser("verify", help="run oracle cross-check suites")
    v.add_argument("--suite", default="all",
                   choices=["all", "gradients", "eigen", "depth"])
    v.add_argument("--out", default=None)

    p = sub.add_parser("plots", help="emit trajectory CSVs from a run directory")
    p.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "search":
            given = {k: v for k, v in vars(args).items() if k != "command"}
            if "diag_eigen" in given:
                given["diag_eigen"] = given["diag_eigen"] == "on"
            return run_search(RunConfig(**given))
        if args.command == "verify":
            return run_verify(args.suite, args.out)
        if args.command == "plots":
            return emit_plots(args.run_dir)
    except (ConfigError, datamod.DataError, spacemod.SpaceError,
            snmod.SupernetError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
