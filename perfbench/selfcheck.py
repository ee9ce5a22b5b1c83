"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Self times computed from a constructed set of nested spans.
2. Every output check accepts a correct output and rejects a deliberately
   corrupted one.  The reference forward is compared with the program's
   forward on a small supernet, so this part needs ./src.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import checks
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILURES = []


def expect(what: str, cond: bool):
    if not cond:
        FAILURES.append(what)


def spans_of(rows):
    """rows: (name, start, end, parent index)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows]),
        "end": np.array([r[2] for r in rows]),
        "parent": np.array([r[3] for r in rows]),
        "count": np.zeros(len(rows), dtype=np.int64),
    }


def self_time_checks():
    # optim.round [0, 100] holds supernet.forward [10, 40] (which holds
    # autodiff.op.mul [15, 25]) and autodiff.backward [50, 90].
    rows = [("optim.round", 0, 100, -1), ("supernet.forward", 10, 40, 0),
            ("autodiff.op.mul", 15, 25, 1), ("autodiff.backward", 50, 90, 0)]
    spans = spans_of(rows)
    got = tracer.self_times(spans, (0, 100)).tolist()
    expect(f"self times {got}", got == [30.0, 20.0, 10.0, 40.0])
    # A window [20, 60] clips every span; the self times still add up to it.
    got = tracer.self_times(spans, (20, 60)).tolist()
    expect(f"clipped self times {got}", got == [10.0, 15.0, 5.0, 10.0])
    expect("clipped self times cover the window", sum(got) == 40.0)


def program_forward_checks():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tsedarts import supernet as snmod

    net = snmod.Supernet(snmod.SupernetConfig(layers=2, width=3, preset="s2-like",
                                              classes=4, in_shape=(16,), seed=7))
    net.alpha.value = np.random.default_rng(8).standard_normal(net.alpha.shape)
    x = np.random.default_rng(9).standard_normal((10, 16))
    d = os.path.join(ROOT, "perfbench", "out", "selfcheck")
    snmod.save_checkpoint(net, d)
    params = checks.read_checkpoint(d)
    program = net.forward(x).value
    expect("reference forward matches the program",
           checks.check_close("logits", program, checks.mixed_forward(params, x, 2), 1e-9)["ok"])
    # batch norm cancels a scaled weight matrix, so shift a single entry
    params["cell1/e1-3/linear/W"] = params["cell1/e1-3/linear/W"].copy()
    params["cell1/e1-3/linear/W"][0, 0] += 1e-6
    expect("a perturbed weight is rejected",
           not checks.check_close("logits", program,
                                  checks.mixed_forward(params, x, 2), 1e-9)["ok"])


def output_check_checks():
    records = [{"epoch": 0, "train_loss": 1.3}, {"epoch": 1, "train_loss": 1.1},
               {"epoch": 2, "train_loss": 1.0}]
    expect("runlog ok", checks.check_runlog(records, 3, 0)["ok"])
    expect("missing epoch rejected", not checks.check_runlog(records[:2], 3, 0)["ok"])
    expect("nonzero exit rejected", not checks.check_runlog(records, 3, 3)["ok"])
    expect("loss decrease ok", checks.check_loss_decreases(records)["ok"])
    expect("loss increase rejected",
           not checks.check_loss_decreases(records[::-1])["ok"])

    ops = checks.OPS["s2-like"]
    alpha = np.array([[0.2, 0.1], [0.0, 0.3], [0.5, 0.5], [1.0, -1.0], [0.0, 0.1],
                      [-0.2, -0.1]])
    tags = ["Skip", "ParamLinear", "Skip", "Skip", "ParamLinear", "ParamLinear"]
    doc = {"edges": [{"from": i, "to": j, "op": t}
                     for (i, j), t in zip(checks.EDGES, tags)]}
    expect("genotype ok (tie to the lowest index)",
           checks.check_genotype(doc, alpha, ops)["ok"])
    doc["edges"][2]["op"] = "ParamLinear"
    expect("flipped genotype entry rejected", not checks.check_genotype(doc, alpha, ops)["ok"])

    want = np.array([1.0, -2.0, 3.0])
    expect("close ok", checks.check_close("x", want * (1 + 1e-12), want, 1e-9)["ok"])
    expect("perturbed value rejected",
           not checks.check_close("x", want + [0, 0, 1e-6], want, 1e-9)["ok"])
    expect("wrong shape rejected", not checks.check_close("x", want[:2], want, 1e-9)["ok"])

    losses = [0.1, 0.2, 0.3]
    tse = 0.0
    for v in losses:
        tse += v
    a0, a1 = np.zeros((6, 4)), np.full((6, 4), 1e-3)
    expect("round ok", checks.check_round(0, True, tse, losses, a0, a1)["ok"])
    expect("inexact restore rejected", not checks.check_round(0, False, tse, losses, a0, a1)["ok"])
    expect("tse off by one ulp rejected",
           not checks.check_round(0, True, np.nextafter(tse, 1.0), losses, a0, a1)["ok"])
    expect("unmoved alpha rejected", not checks.check_round(0, True, tse, losses, a0, a0)["ok"])

    def report(names):
        return {"pass": True, "suites": [
            {"suite": "all", "pass": True,
             "checks": [{"name": n, "pass": True} for n in names]}]}

    full = list(checks.VERIFY_CHECKS)
    expect("verify report ok", checks.check_verify_report(0, report(full))["ok"])
    expect("missing verify check rejected",
           not checks.check_verify_report(0, report(full[:-1]))["ok"])
    bad = report(full)
    bad["suites"][0]["checks"][3]["pass"] = False
    expect("failing verify check rejected", not checks.check_verify_report(0, bad)["ok"])


def main() -> int:
    self_time_checks()
    output_check_checks()
    program_forward_checks()
    for f in FAILURES:
        print(f"selfcheck failed: {f}", file=sys.stderr)
    print(f"selfcheck: {'FAIL' if FAILURES else 'ok'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
