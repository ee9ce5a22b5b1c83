"""Acceptance gate: the ten headline checks, one test per criterion.

Each criterion test prints a single [PASS]/[FAIL] line (run pytest with
-s to see them).  Tolerances are pinned here and must not be loosened.
`test_collapse_setting_trains` additionally checks that the searches
criterion 8 judges leave chance level.
"""

import json
import statistics

import numpy as np
import pytest

import tsedarts.autodiff as ad
from tsedarts import cli, optim, oracles
from tsedarts import supernet as sn
from tsedarts.space import (SKIP, ArchEncoding, CellTopology, Genotype,
                            OperationKind, cell_depth, discretize)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


def tiny_net(seed):
    """s2-like single cell, 48 weight parameters (cap for the oracles)."""
    cfg = sn.SupernetConfig(layers=1, width=2, preset="s2-like",
                            classes=2, in_shape=(2,), seed=seed)
    net = sn.Supernet(cfg)
    assert net.n_parameters() <= 50
    net.alpha.value = 0.3 * np.random.default_rng(seed + 500).standard_normal(
        net.alpha.shape)
    return net


def tiny_batches(seed, count, batch=5, dim=2):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((batch, dim)),
             rng.integers(0, 2, size=batch)) for _ in range(count)]


def test_criterion_1_exact_hypergradient_vs_fd():
    worst = 0.0
    cases = 0
    for seed, t_steps in [(s, t) for s in range(3) for t in (1, 2, 3, 5)]:
        net = tiny_net(seed)
        window = optim.make_window(net, tiny_batches(seed + 40, t_steps + 1))
        cfg = optim.SGDConfig(lr=0.05)
        exact = optim.exact_hypergradient(net, window, cfg).ravel()
        fd = oracles.fd_gradient(
            lambda a: oracles.replay_final_loss(net, window, cfg, a),
            net.alpha.value.ravel(), step=1e-5)
        err = np.max(np.abs(exact - fd)) / max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, err)
        cases += 1
    report(1, "exact hypergradient vs central differences",
           cases >= 10 and worst <= 1e-4,
           f"{cases} instances, worst rel err {worst:.3e}, tol 1e-4")


def test_criterion_2_exact_tse_gradient_vs_fd():
    worst = 0.0
    cases = 0
    for seed, t_steps in [(s, t) for s in range(3) for t in (1, 2, 3, 5)]:
        net = tiny_net(seed + 10)
        window = optim.make_window(net, tiny_batches(seed + 60, t_steps))
        cfg = optim.SGDConfig(lr=0.05)
        _, exact = optim.exact_tse_gradient(net, window, cfg)
        fd = oracles.fd_gradient(
            lambda a: oracles.replay_tse(net, window, cfg, a),
            net.alpha.value.ravel(), step=1e-5)
        err = np.max(np.abs(exact.ravel() - fd)) / max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, err)
        cases += 1
    report(2, "exact TSE gradient vs central differences",
           cases >= 10 and worst <= 1e-4,
           f"{cases} instances, worst rel err {worst:.3e}, tol 1e-4")


def test_criterion_3_first_order_consistency():
    worst_eta0 = 0.0
    ratios_ok = True
    ratio_log = []
    for seed in range(3):
        net = tiny_net(seed + 20)
        batches = tiny_batches(seed + 80, 3)

        window = optim.make_window(net, batches)
        zero = optim.SGDConfig(lr=0.0)
        approx = optim.tse_unroll(net, window, zero).alpha_grad
        net.restore(window.w0)
        _, exact = optim.exact_tse_gradient(net, window, zero)
        worst_eta0 = max(worst_eta0, float(np.max(np.abs(approx - exact))
                                           / max(np.max(np.abs(exact)), 1e-12)))

        errs = []
        for lr in (1e-2, 1e-3, 1e-4):
            cfg = optim.SGDConfig(lr=lr)
            res = optim.tse_unroll(net, window, cfg)
            net.restore(window.w0)
            _, ex = optim.exact_tse_gradient(net, window, cfg)
            errs.append(np.linalg.norm(ex - res.alpha_grad) / np.linalg.norm(ex))
        for big, small in zip(errs, errs[1:]):
            r = big / small
            ratio_log.append(round(float(r), 2))
            if not (errs[0] > errs[1] > errs[2] and 2.0 <= r <= 20.0):
                ratios_ok = False
    report(3, "first-order approximation consistency",
           worst_eta0 <= 1e-12 and ratios_ok,
           f"eta=0 worst rel err {worst_eta0:.2e} (tol 1e-12); "
           f"eta-sweep ratios {ratio_log} in [2, 20]")


def test_criterion_4_tse_identity_bit_exact():
    ok = True
    for seed in range(5):
        net = tiny_net(seed + 30)
        res = optim.tse_unroll(net, optim.make_window(net, tiny_batches(seed, 6)),
                               optim.SGDConfig(lr=0.05))
        acc = 0.0
        for loss in res.step_losses:
            acc += loss
        ok = ok and res.tse == acc
    report(4, "TSE equals the per-step loss sum bit-exactly", ok,
           "5 seeded unrolls, identical accumulation order")


def test_criterion_5_restore_contract():
    ok = True
    rounds = 0
    for seed in range(3):
        net = tiny_net(seed + 40)
        arch = optim.ArchOptimizer(optim.ArchOptimizerConfig(lr=1e-2))
        for r in range(4):
            window = optim.make_window(net, tiny_batches(seed * 10 + r, 3))
            alpha_before = net.alpha.value.copy()
            result = optim.tse_darts_round(net, window,
                                           optim.SGDConfig(lr=0.05), arch)
            ok = ok and result.restore_exact
            ok = ok and not np.array_equal(net.alpha.value, alpha_before)
            rounds += 1
    report(5, "round restore contract (bytes equal, alpha moved)", ok,
           f"{rounds} rounds checked")


def test_criterion_6_eigenvalue_estimator():
    suite = cli._suite_eigen(count=20)
    worst = max(c["error"] for c in suite["checks"])
    report(6, "dense HVP-Hessian eigenvalue vs dense FD decomposition",
           len(suite["checks"]) == 20 and worst <= 1e-3,
           f"20 quadratics, worst rel err {worst:.3e}, tol 1e-3")


def _darts_style_cell(rng):
    """0 = input, 1..4 = intermediate nodes with two predecessors each,
    5 = output fed by every intermediate node."""
    edges = []
    for node in range(1, 5):
        preds = rng.choice(node, size=min(2, node), replace=False)
        edges += [(int(p), node) for p in preds]
        edges.append((node, 5))
    return CellTopology(6, tuple(sorted(set(edges))))


def test_criterion_7_depth_metric():
    (check,) = cli._suite_depth(count=100, seed=1)["checks"]
    mismatches = check["error"]

    rng = np.random.default_rng(1)
    depths = set()
    for _ in range(300):
        topo = _darts_style_cell(rng)
        g = Genotype(tuple(topo.edges),
                     tuple(OperationKind(SKIP) for _ in topo.edges))
        depths.add(cell_depth(g, topo))
    in_range = depths and min(depths) >= 2 and max(depths) <= 5
    report(7, "depth equals exhaustive longest path; [2, 5] cell range",
           mismatches == 0 and in_range,
           f"100 DAGs, {mismatches} mismatches; observed depths {sorted(depths)}")


# Frozen desk-scale reproduction setting for the skip-collapse contrast.
COLLAPSE_SETTING = dict(
    space="s2-like", layers=8, width=8, dataset="synth:4,16,2048,0.3",
    lr=0.05, arch_lr=3e-3, epochs=40, unroll_t=25, batch_size=32,
    aggregation="mean", seeds=range(5),
)


def _collapse_run(optimizer, seed, tmp_path):
    s = COLLAPSE_SETTING
    out = str(tmp_path / f"{optimizer}-{seed}")
    cfg = cli.RunConfig(
        space=s["space"], optimizer=optimizer, layers=s["layers"],
        unroll_t=s["unroll_t"], epochs=s["epochs"], lr=s["lr"],
        arch_lr=s["arch_lr"], seed=seed, out=out, dataset=s["dataset"],
        val_frac=(0.5 if optimizer == "darts-1st" else 0.0),
        diag_val_frac=0.0, diag_eigen=False, width=s["width"],
        batch_size=s["batch_size"], aggregation=s["aggregation"])
    assert cli.run_search(cfg) == cli.EXIT_OK
    with open(f"{out}/runlog.jsonl") as f:
        return [json.loads(l) for l in f if l.strip()][-1]


@pytest.fixture(scope="module")
def collapse_runs(tmp_path_factory):
    """Final runlog record of every frozen collapse search, per optimizer.

    The ten searches dominate the suite's runtime, so they run once and
    feed both criterion 8 and the check that those searches train.
    """
    tmp_path = tmp_path_factory.mktemp("collapse")
    return {opt: [_collapse_run(opt, s, tmp_path)
                  for s in COLLAPSE_SETTING["seeds"]]
            for opt in ("darts-1st", "tse-darts")}


def test_collapse_setting_trains(collapse_runs):
    # skip counts only say something about the architecture when the
    # weights train: every run must end well below chance (ln 4)
    bound = 0.5 * np.log(4)
    losses = {opt: [r["train_loss"] for r in runs]
              for opt, runs in collapse_runs.items()}
    assert all(l < bound for ls in losses.values() for l in ls), (
        f"final train losses {losses}, need all < {bound:.4f}")


def test_criterion_8_skip_collapse_contrast(collapse_runs):
    darts = [r["skip_count"] for r in collapse_runs["darts-1st"]]
    tse = [r["skip_count"] for r in collapse_runs["tse-darts"]]
    med_d, med_t = statistics.median(darts), statistics.median(tse)
    n_edges = 6
    ok = med_d > med_t and med_t <= 0.25 * n_edges
    report(8, "skip-collapse contrast (darts-1st vs tse-darts)", ok,
           f"final skips darts-1st {darts} (median {med_d}) vs "
           f"tse-darts {tse} (median {med_t}); need median_d > median_t "
           f"and median_t <= {0.25 * n_edges}")


def _softmax_row(row):
    """The supernet's mixture weights of one edge."""
    return ad.softmax_rows(ad.const(row[None, :])).value[0]


def test_criterion_9_softmax_argmax_shift_invariance():
    rng = np.random.default_rng(2)
    topo = CellTopology(4, tuple((i, j) for i in range(4)
                                 for j in range(i + 1, 4)))
    ops = (OperationKind(SKIP), OperationKind("ParamLinear"))
    worst = 0.0
    geno_ok = True
    for _ in range(1000):
        table = rng.standard_normal((6, 2)) * rng.uniform(0.1, 10)
        shifts = rng.uniform(-30, 30, size=(6, 1))
        shifted = table + shifts
        for row, row_s in zip(table, shifted):
            worst = max(worst, float(np.max(np.abs(
                _softmax_row(row) - _softmax_row(row_s)))))
        g1 = discretize(ArchEncoding(table), topo, ops)
        g2 = discretize(ArchEncoding(shifted), topo, ops)
        geno_ok = geno_ok and g1 == g2
    report(9, "per-edge shift invariance of softmax and argmax",
           worst <= 1e-12 and geno_ok,
           f"1000 cases, worst mixture deviation {worst:.2e}, genotypes equal")


def test_criterion_10_run_search_determinism(tmp_path):
    logs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        cfg = cli.RunConfig(space="s2-like", optimizer="tse-darts", layers=2,
                            unroll_t=4, epochs=3, lr=0.05, arch_lr=1e-3,
                            seed=7, out=out, dataset="synth:4,8,256,0.3",
                            diag_val_frac=0.25, diag_eigen=True, width=4,
                            batch_size=16)
        assert cli.run_search(cfg) == cli.EXIT_OK
        with open(f"{out}/runlog.jsonl") as f:
            records = [json.loads(l) for l in f if l.strip()]
        for r in records:
            r.pop("time")
        logs.append(records)
    report(10, "identical runlog records for identical configs",
           logs[0] == logs[1], "3 epochs, timestamps excluded")
