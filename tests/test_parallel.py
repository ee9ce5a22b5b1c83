"""fork_map, and the bits of its callers at one, two and three CPUs.

The CPU count is patched to 1, 2 or 3, whatever the machine has, so the
forked paths run everywhere.
"""

import json
import os
import pickle
import time

import numpy as np
import pytest

from tsedarts import autodiff as ad
from tsedarts import cli, optim, oracles, parallel
from tsedarts import diagnostics as dg
from tsedarts import supernet as sn
from tsedarts.parallel import ForkMapError, fork_map


@pytest.fixture
def cpus(monkeypatch):
    def use(k):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: k)
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_results_in_order_as_the_serial_loop(cpus, k, n):
    cpus(k)
    items = [np.arange(3.0) * i for i in range(n)]

    def fn(x):
        return np.exp(x) / 3.0, os.getpid()

    got = fork_map(fn, items)
    want = [fn(x) for x in items]
    assert len(got) == n
    for (value, _), (ref, _) in zip(got, want):
        assert np.array_equal(value, ref)
    assert len({pid for _, pid in got}) == min(k, n)
    assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("failing, first", [({3: KeyError, 4: ValueError}, 3),
                                            ({2: KeyError, 5: ValueError}, 2),
                                            ({6: ValueError}, 6)])
def test_lowest_index_exception_is_raised(cpus, k, failing, first):
    cpus(k)
    parent = os.getpid()

    def fn(x):
        if x in failing:
            raise failing[x](f"item {x} in {'caller' if os.getpid() == parent else 'child'}")
        return x

    with pytest.raises(failing[first]) as err:
        fork_map(fn, range(8))
    assert f"item {first} in" in str(err.value)
    assert_no_child_left()


def test_exception_from_a_child_keeps_its_type_and_fields(cpus):
    cpus(2)

    def fn(x):
        if x == 1:
            raise optim.UnrollAbort(3, "non-finite loss")
        return x

    with pytest.raises(optim.UnrollAbort) as err:
        fork_map(fn, range(2))
    assert err.value.step == 3
    assert str(err.value) == "window aborted at step 3: non-finite loss"
    assert any("forked child" in note for note in err.value.__notes__)


@pytest.mark.parametrize("err", [optim.UnrollAbort(3, "z"),
                                 ad.NonFiniteError("non-finite value in node"),
                                 optim.OptimError("learning rate must be finite")],
                         ids=["UnrollAbort", "NonFiniteError", "OptimError"])
def test_program_errors_survive_pickling(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    assert getattr(back, "step", None) == getattr(err, "step", None)


def test_a_slow_process_does_not_hold_up_the_rest(cpus):
    cpus(2)

    def fn(x):
        if x == 1:
            time.sleep(0.5)
        return os.getpid()

    pids = fork_map(fn, range(8))
    assert pids[1] != os.getpid()
    assert pids[:1] + pids[2:] == [os.getpid()] * 7
    assert_no_child_left()


@pytest.mark.parametrize("k", [3, 4])
def test_every_item_runs_once_with_more_processes_than_cores(cpus, tmp_path, k):
    cpus(k)
    log = tmp_path / "calls.txt"

    def fn(x):
        with open(log, "a") as f:   # appends of one short line do not interleave
            f.write(f"{x}\n")
        return x * x

    t0 = time.monotonic()
    assert fork_map(fn, range(3000)) == [x * x for x in range(3000)]
    assert sorted(int(line) for line in log.read_text().split()) == list(range(3000))
    assert time.monotonic() - t0 < 60
    assert_no_child_left()


def test_nested_call_runs_in_the_calling_process(cpus):
    cpus(2)

    def fn(x):
        return os.getpid(), fork_map(lambda y: os.getpid(), range(3))

    got = fork_map(fn, range(2))
    assert len({outer for outer, _ in got}) == 2
    for outer, inner in got:
        assert inner == [outer] * 3
    assert_no_child_left()


def test_files_written_by_a_child_persist(cpus, tmp_path):
    cpus(3)

    def fn(x):
        (tmp_path / f"{x}.txt").write_text(f"{x} from {os.getpid()}")
        return os.getpid()

    pids = fork_map(fn, range(6))
    assert set(pids) - {os.getpid()}
    for x, pid in enumerate(pids):
        assert (tmp_path / f"{x}.txt").read_text() == f"{x} from {pid}"


def test_child_dying_without_a_result_names_its_status(cpus):
    cpus(2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(7)
        return x

    with pytest.raises(ForkMapError, match="exit status 7"):
        fork_map(fn, range(4))
    assert_no_child_left()


def test_interrupt_kills_and_reaps_the_children(cpus):
    cpus(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(3))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()
    assert not parallel._ACTIVE


# ------------------------------------------------------------------
# the callers give the same bits at one, two and three CPUs
# ------------------------------------------------------------------

def test_dominant_eigenvalue_same_bits_at_one_and_two_cpus(cpus):
    net = sn.Supernet(sn.SupernetConfig(layers=2, width=4, preset="s2-like",
                                        classes=4, in_shape=(8,), seed=3))
    rng = np.random.default_rng(4)
    net.alpha.value = 0.5 * rng.standard_normal(net.alpha.shape)
    batch = (rng.standard_normal((64, 8)), rng.integers(0, 4, size=64))
    got = []
    for k in (1, 2, 3):
        cpus(k)
        got.append(dg.dominant_eigenvalue(dg.alpha_gradient(net, batch), net.alpha.value))
    assert got[0] == got[1] == got[2] and got[0] != 0.0


def test_search_with_eigen_same_bits_at_one_and_two_cpus(cpus, tmp_path):
    runs = []
    for k in (1, 2):
        cpus(k)
        out = tmp_path / f"cpus{k}"
        cfg = cli.RunConfig(optimizer="darts-1st", layers=2, unroll_t=3, epochs=2,
                            lr=0.05, arch_lr=1e-3, seed=5, out=str(out),
                            dataset="synth:4,8,256,0.3", diag_val_frac=0.25,
                            diag_eigen=True, width=4, batch_size=16)
        assert cli.run_search(cfg) == cli.EXIT_OK
        with open(out / "runlog.jsonl") as f:
            records = [json.loads(line) for line in f]
        for r in records:
            r.pop("time")
        runs.append((records, (out / "params.bin").read_bytes()))
    assert runs[0][0][-1]["eig_train"] is not None
    assert runs[0] == runs[1]


def test_verify_report_same_bytes_at_one_and_two_cpus(cpus, tmp_path, capsys):
    reports = []
    for k in (1, 2, 3):
        cpus(k)
        out = tmp_path / f"report{k}.json"
        assert cli.run_verify("all", str(out)) == cli.EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def serial_gradient_checks(seed: int) -> list:
    """The gradients suite's two checks for `seed`, in one serial pass
    on one net: the reference the forked jobs are held to."""
    net = cli._tiny_net(seed)
    net.alpha.value = 0.3 * np.random.default_rng(seed + 50).standard_normal(
        net.alpha.shape)
    window = optim.make_window(net, cli._tiny_batches(seed + 100, 4))
    zero = optim.SGDConfig(lr=0.0)
    approx = optim.tse_unroll(net, window, zero).alpha_grad
    _, exact = optim.exact_tse_gradient(net, window, zero)
    err0 = float(np.max(np.abs(approx - exact)))
    cfg = optim.SGDConfig(lr=0.05)
    exact_h = optim.exact_hypergradient(net, window, cfg).ravel()
    fd = oracles.fd_gradient(
        lambda a: oracles.replay_final_loss(net, window, cfg, a),
        net.alpha.value.ravel(), step=1e-5)
    denom = max(float(np.max(np.abs(fd))), 1e-8)
    err = float(np.max(np.abs(exact_h - fd)) / denom)
    return [{"name": f"tse-grad-lr0-seed{seed}", "error": err0,
             "tolerance": 1e-12, "pass": err0 < 1e-12},
            {"name": f"exact-hypergrad-fd-seed{seed}", "error": err,
             "tolerance": 1e-4, "pass": err < 1e-4}]


@pytest.fixture(scope="module")
def serial_gradient_suite():
    return [c for seed in range(3) for c in serial_gradient_checks(seed)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_suite_same_bits_as_a_serial_pass_per_seed(cpus, k, serial_gradient_suite):
    cpus(k)
    suite = cli._suite_gradients()
    assert json.dumps(suite["checks"]) == json.dumps(serial_gradient_suite)
    assert suite["pass"]
    assert_no_child_left()


def test_gradient_jobs_do_not_depend_on_their_order():
    def results(order):
        cases = [cli._gradient_case(seed) for seed in range(3)]
        routes = ["lr0", "exact", *range(cases[0][0].alpha.value.size)]
        jobs = [(*case, route) for case in cases for route in routes]
        got = {i: cli._gradient_job(jobs[i]) for i in order(range(len(jobs)))}
        return [got[i] for i in range(len(jobs))]

    forward, backward = results(list), results(reversed)
    assert len(forward) == 3 * 14
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)
