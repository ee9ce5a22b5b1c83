"""One unit of a benchmark workload, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED MODE TRACE OUT_DIR T0

MODE `unit` runs the workload's fixed number of rounds, writes its outputs
and checks them; MODE `probe` stops at the start of the first round, so
it measures set-up alone.  TRACE 1 records spans (see tracer.py).  T0 is
the parent's `time.monotonic()` just before it started this process, so
set-up time runs from process start to the first round.  The unit's
figures go to OUT_DIR/unit.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracemod  # noqa: E402

EXIT_NO_PROGRAM = 3

# The frozen criterion-8 setting: s2-like, 8 layers, width 8, mean aggregation.
VECTOR = dict(space="s2-like", layers=8, width=8, dataset="synth:4,16,2048,0.3",
              lr=0.05, arch_lr=3e-3, unroll_t=25, batch_size=32, aggregation="mean")
# Rounds per unit: an epoch (search workloads), a tse-darts round
# (tse-image-nb201) or a verify pass (verify-oracles).
ROUNDS = {"tse-vector-deep": 3, "darts-vector-eigen": 2, "tse-image-nb201": 4,
          "verify-oracles": 3}
# The eigen estimator's default stop rule ends after a number of HVPs that
# depends on the seed (42 to 95 per epoch over four seeds), which would make
# the epoch time differ 2x between seeds. A fixed iteration count keeps the
# work the same: 1 + 4 + 2 * 10 + 1 = 26 HVPs per estimate.
EIGEN_OPTS = {"max_iters": 10, "tol": 0.0}
IMAGE = dict(samples=1024, held_out=0.25, layers=2, width=4, batch=32, unroll_t=10,
             lr=0.05, arch_lr=3e-3, noise=0.5)
FIXED_BATCH = 64


class FirstRound(Exception):
    """Raised by a probe at the start of the first round."""


class Rounds:
    """Wall-clock marks of the first round's start and every round's end."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.first = None
        self.ends = []

    def begin(self):
        if self.first is None:
            self.first = time.monotonic_ns()
            if self.probe:
                raise FirstRound

    def end(self):
        self.ends.append(time.monotonic_ns())

    def hook_stream(self, module):
        """A round begins when its first batch is drawn."""
        make = module.batch_stream

        def stream(*args, **kwargs):
            inner = make(*args, **kwargs)
            while True:
                self.begin()
                yield next(inner)

        module.batch_stream = stream

    def hook_end(self, module, attr: str):
        fn = getattr(module, attr)

        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.end()
            return out

        setattr(module, attr, marked)


def make_images(seed: int, n: int, noise: float):
    """Four-class 1x8x8 images: a horizontal bar, a vertical bar, the main
    diagonal or the anti-diagonal, each shifted by a random offset in
    [-2, 2] (cyclically), plus Gaussian noise; labels are balanced."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 4)
    eye = np.eye(8)
    templates = [np.zeros((8, 8)), np.zeros((8, 8)), eye, eye[:, ::-1]]
    templates[0][3] = 1.0
    templates[1][:, 3] = 1.0
    shifts = rng.integers(-2, 3, size=n)
    images = np.stack([np.roll(templates[c], s, axis=0 if c != 1 else 1)
                       for c, s in zip(labels, shifts)])
    images = images + noise * rng.standard_normal(images.shape)
    return images[:, None, :, :], labels


def vector_search(workload: str, seed: int, out: str, rounds: Rounds, tracer):
    from tsedarts import cli, data, diagnostics
    from tsedarts import supernet as snmod

    darts = workload == "darts-vector-eigen"
    cfg = cli.RunConfig(
        **VECTOR, optimizer="darts-1st" if darts else "tse-darts",
        epochs=ROUNDS[workload], seed=seed, out=out,
        val_frac=0.5 if darts else 0.0, diag_val_frac=0.1 if darts else 0.0,
        diag_eigen=darts)
    if darts:
        record_epoch = diagnostics.record_epoch

        def fixed_eigen(*args, **kwargs):
            return record_epoch(*args, eigen_opts=EIGEN_OPTS, **kwargs)

        diagnostics.record_epoch = fixed_eigen
    rounds.hook_stream(data)
    rounds.hook_end(diagnostics, "record_epoch")
    if tracer:
        tracer.active = True
    code = cli.run_search(cfg)
    t_end = time.monotonic_ns()
    if tracer:
        tracer.active = False
    rss = peak_rss_mb()

    with open(os.path.join(out, "runlog.jsonl")) as f:
        records = [json.loads(line) for line in f if line.strip()]
    params = checks.read_checkpoint(out)
    with open(os.path.join(out, "genotype.json")) as f:
        genotype = json.load(f)
    x = np.random.default_rng(seed + 1000).standard_normal((FIXED_BATCH, 16))
    net = snmod.Supernet(snmod.SupernetConfig(
        layers=VECTOR["layers"], width=VECTOR["width"], preset="s2-like", classes=4,
        in_shape=(16,), seed=seed, aggregation="mean"))
    snmod.load_checkpoint(net, out)
    found = [
        checks.check_runlog(records, ROUNDS[workload], code),
        checks.check_genotype(genotype, params["alpha"], checks.OPS["s2-like"]),
        checks.check_close("logits", net.forward(x).value,
                           checks.mixed_forward(params, x, VECTOR["layers"]), 1e-9),
        checks.check_loss_decreases(records),
    ]
    return t_end, rss, found


def image_rounds(seed: int, out: str, rounds: Rounds, tracer):
    from tsedarts import data, diagnostics, optim, oracles, space
    from tsedarts import autodiff as ad
    from tsedarts import supernet as snmod

    if tracer:
        tracer.active = True
    feats, labels = make_images(seed, IMAGE["samples"], IMAGE["noise"])
    ds = data.Dataset(feats, labels, 4)
    train, held = data.split(ds, data.SplitSpec(1.0 - IMAGE["held_out"],
                                                IMAGE["held_out"], seed=seed + 1))
    net = snmod.Supernet(snmod.SupernetConfig(
        layers=IMAGE["layers"], width=IMAGE["width"], preset="nb201-like", classes=4,
        in_shape=(1, 8, 8), seed=seed))
    w_cfg = optim.SGDConfig(lr=IMAGE["lr"])
    arch_opt = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=IMAGE["arch_lr"]))
    stream = data.batch_stream(train, IMAGE["batch"], seed=seed + 4)
    found = []
    for k in range(ROUNDS["tse-image-nb201"]):
        rounds.begin()
        batches = [next(stream) for _ in range(IMAGE["unroll_t"])]
        window = optim.make_window(net, batches)
        before = net.alpha.value.copy()
        res = optim.tse_darts_round(net, window, w_cfg, arch_opt)
        diagnostics.val_accuracy(net, net.alpha.value, held)
        rounds.end()
        found.append(checks.check_round(k, res.restore_exact, res.tse, res.step_losses,
                                        before, net.alpha.value))
    genotype = space.discretize(space.ArchEncoding(net.alpha.value.copy()),
                                net.topology, net.ops)
    with open(os.path.join(out, "genotype.json"), "w") as f:
        f.write(genotype.to_json() + "\n")
    snmod.save_checkpoint(net, out)
    t_end = time.monotonic_ns()
    if tracer:
        tracer.active = False
    rss = peak_rss_mb()

    xb, yb = held.features[:16], held.labels[:16]
    (g,) = ad.grad(net.loss(net.forward(xb), yb), wrt=[net.alpha])

    def loss_at(theta):
        return float(net.loss(net.forward(xb, alpha=theta.reshape(net.alpha.shape)),
                              yb).value)

    fd = oracles.fd_gradient(loss_at, net.alpha.value.ravel(), step=1e-5)
    with open(os.path.join(out, "genotype.json")) as f:
        saved = json.load(f)
    found += [
        checks.check_close("alpha-grad-fd", g.value.ravel(), fd, 1e-4),
        checks.check_genotype(saved, checks.read_checkpoint(out)["alpha"],
                              checks.OPS["nb201-like"]),
    ]
    return t_end, rss, found


def verify_passes(out: str, rounds: Rounds, tracer):
    from tsedarts import cli

    reports = []
    if tracer:
        tracer.active = True
    for k in range(ROUNDS["verify-oracles"]):
        rounds.begin()
        path = os.path.join(out, f"verify-{k}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_verify("all", path)
        rounds.end()
        reports.append(path)
    t_end = time.monotonic_ns()
    if tracer:
        tracer.active = False
    rss = peak_rss_mb()
    found = []
    for k, path in enumerate(reports):
        with open(path) as f:
            found.append(checks.check_verify_report(k, json.load(f)))
    return t_end, rss, found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    workload, seed, mode, trace, out, t0 = argv
    seed, trace, t0 = int(seed), trace == "1", float(t0)
    try:
        import tsedarts
        import tsedarts.cli  # noqa: F401
    except ImportError as err:
        print(f"worker: cannot import the program from {ROOT}/src: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if os.path.dirname(os.path.abspath(tsedarts.__file__)) != os.path.join(ROOT, "src", "tsedarts"):
        print(f"worker: tsedarts imported from {tsedarts.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    tracer = None
    if trace:
        tracer = tracemod.Tracer()
        tracer.install()
    rounds = Rounds(probe=mode == "probe")
    os.makedirs(out, exist_ok=True)
    try:
        if workload in ("tse-vector-deep", "darts-vector-eigen"):
            t_end, rss, found = vector_search(workload, seed, out, rounds, tracer)
        elif workload == "tse-image-nb201":
            t_end, rss, found = image_rounds(seed, out, rounds, tracer)
        else:
            t_end, rss, found = verify_passes(out, rounds, tracer)
    except FirstRound:
        unit = {"setup_s": rounds.first / 1e9 - t0}
    else:
        starts = [rounds.first] + rounds.ends[:-1]
        unit = {
            "setup_s": rounds.first / 1e9 - t0,
            "run_s": (t_end - rounds.first) / 1e9,
            "round_ms": [(e - s) / 1e6 for s, e in zip(starts, rounds.ends)],
            "peak_rss_mb": rss,
            "rounds": len(rounds.ends),
            "checks": found,
        }
        if tracer:
            spans = tracer.spans()
            np.savez_compressed(os.path.join(out, "spans.npz"), **spans)
            unit["layers"] = tracemod.layer_metrics(
                spans, (rounds.first, rounds.ends[-1]), len(rounds.ends))
    with open(os.path.join(out, "unit.json"), "w") as f:
        json.dump(unit, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
