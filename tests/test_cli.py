import csv
import json
import os
import warnings

import numpy as np
import pytest

from tsedarts import cli, data


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def search_args(out, **over):
    base = {
        "--space": "s2-like", "--optimizer": "tse-darts", "--layers": "1",
        "--unroll-t": "3", "--epochs": "2", "--lr": "0.05",
        "--arch-lr": "0.001", "--seed": "0", "--out": out,
        "--dataset": "synth:2,4,64,0.3", "--diag-eigen": "off",
        "--width": "3", "--batch-size": "8", "--diag-val-frac": "0.25",
    }
    base.update(over)
    argv = ["search"]
    for k, v in base.items():
        argv += [k, v]
    return argv


class TestRunConfig:
    def test_tse_forbids_val_split(self):
        cfg = cli.RunConfig(optimizer="tse-darts", val_frac=0.5)
        with pytest.raises(cli.ConfigError):
            cfg.validate()

    def test_unroll_t_range(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(unroll_t=101).validate()
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(unroll_t=0).validate()

    def test_unroll_t_resolution(self):
        assert cli.RunConfig().resolved(20000)["unroll_t"] == 100
        assert cli.RunConfig().resolved(500)["unroll_t"] == 25

    def test_val_frac_defaults_per_method(self):
        assert cli.RunConfig(optimizer="tse-darts").resolved(100)["val_frac"] == 0.0
        assert cli.RunConfig(optimizer="darts-1st").resolved(100)["val_frac"] == 0.5


class TestSearchFlags:
    """`main` hands `run_search` the RunConfig the search flags describe."""

    def _config(self, monkeypatch, flags):
        seen = []
        monkeypatch.setattr(cli, "run_search",
                            lambda config: seen.append(config) or cli.EXIT_OK)
        assert cli.main(["search", *flags]) == cli.EXIT_OK
        (config,) = seen
        return config

    def test_no_flags_give_the_defaults(self, monkeypatch):
        assert self._config(monkeypatch, []) == cli.RunConfig()

    def test_flags_set_their_fields(self, monkeypatch):
        config = self._config(monkeypatch, ["--arch-wd", "0.5", "--diag-eigen", "off",
                                            "--val-frac", "0"])
        assert config == cli.RunConfig(arch_weight_decay=0.5, diag_eigen=False,
                                       val_frac=0.0)

    def test_every_flag_reaches_its_field(self, monkeypatch):
        argv = search_args("elsewhere", **{"--arch-wd": "0.25", "--aggregation": "sum",
                                           "--val-frac": "0"})
        config = self._config(monkeypatch, argv[1:])
        assert config == cli.RunConfig(
            space="s2-like", optimizer="tse-darts", layers=1, unroll_t=3, epochs=2,
            lr=0.05, arch_lr=0.001, arch_weight_decay=0.25, seed=0, out="elsewhere",
            dataset="synth:2,4,64,0.3", val_frac=0.0, diag_val_frac=0.25,
            diag_eigen=False, width=3, batch_size=8, aggregation="sum")


class TestDatasets:
    def test_named_specs(self):
        ds = cli._load_dataset("synth:3,5,30,0.2", seed=0)
        assert ds.classes == 3 and ds.features.shape == (30, 5)
        ds = cli._load_dataset("xor:2,4,20,0.1", seed=0)
        assert ds.classes == 2 and ds.features.shape == (20, 4)

    def test_default_spec(self):
        ds = cli._load_dataset("synth", seed=0)
        assert ds.features.shape == (4096, 16) and ds.classes == 4

    def test_unknown_spec_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli._load_dataset("cifar10", seed=0)

    def _exit_code(self, tmp_path, capsys, spec):
        code = cli.main(search_args(str(tmp_path / "run"), **{"--dataset": spec}))
        assert "config error: dataset spec" in capsys.readouterr().err
        return code

    def _idx_files(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(data.encode_idx_images(np.zeros((6, 4, 4))))
        labels.write_bytes(data.encode_idx_labels(np.array([0, 1, 0, 1, 0, 1])))
        return images, labels

    def test_wrong_arity_exit_code(self, tmp_path, capsys):
        for spec in ("synth:4,16", "xor:2,4,20,0.1,9"):
            assert self._exit_code(tmp_path, capsys, spec) == cli.EXIT_CONFIG

    def test_non_number_exit_code(self, tmp_path, capsys):
        for spec in ("synth:4,16,abc,0.3", "xor:2,4,1.5,0.1"):
            assert self._exit_code(tmp_path, capsys, spec) == cli.EXIT_CONFIG

    def test_idx_comma_spec(self, tmp_path):
        images, labels = self._idx_files(tmp_path)
        ds = cli._load_dataset(f"idx:{images},{labels}", seed=0)
        assert ds.features.shape == (6, 1, 4, 4) and ds.classes == 2

    def test_malformed_idx_spec_exit_code(self, tmp_path, capsys):
        images, labels = self._idx_files(tmp_path)
        for spec in (f"idx:{images}", f"idx:{images}:{labels}"):
            assert self._exit_code(tmp_path, capsys, spec) == cli.EXIT_CONFIG

    def test_missing_idx_file_exit_code(self, tmp_path, capsys):
        images, _ = self._idx_files(tmp_path)
        spec = f"idx:{images},{tmp_path / 'absent.idx'}"
        assert self._exit_code(tmp_path, capsys, spec) == cli.EXIT_CONFIG


class TestSearchCommand:
    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(search_args(out)) == cli.EXIT_OK
        for name in ("config.json", "runlog.jsonl", "metrics.csv",
                     "genotype.json", "params.bin", "params.json"):
            assert os.path.exists(os.path.join(out, name)), name
        records = read_jsonl(os.path.join(out, "runlog.jsonl"))
        assert [r["epoch"] for r in records] == [0, 1]
        doc = json.load(open(os.path.join(out, "genotype.json")))
        assert doc["topology"] == "s2-like"
        assert len(doc["edges"]) == 6

    def test_metrics_csv_columns(self, tmp_path):
        out = str(tmp_path / "run")
        cli.main(search_args(out))
        with open(os.path.join(out, "metrics.csv")) as f:
            header = next(csv.reader(f))
        assert header == ["epoch", "tse", "train_loss", "val_acc",
                          "skip_count", "depth", "eig_val", "eig_train"]

    def test_determinism_modulo_time(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(search_args(out)) == cli.EXIT_OK
            records = read_jsonl(os.path.join(out, "runlog.jsonl"))
            for r in records:
                r.pop("time")
            logs.append(records)
        assert logs[0] == logs[1]

    def test_seed_changes_trajectory(self, tmp_path):
        logs = []
        for seed in ("0", "1"):
            out = str(tmp_path / seed)
            cli.main(search_args(out, **{"--seed": seed, "--epochs": "3"}))
            logs.append([(r["tse"], r["train_loss"])
                         for r in read_jsonl(os.path.join(out, "runlog.jsonl"))])
        assert logs[0] != logs[1]

    def test_darts_first_order_runs(self, tmp_path):
        out = str(tmp_path / "run")
        argv = search_args(out, **{"--optimizer": "darts-1st",
                                   "--val-frac": "0.5"})
        assert cli.main(argv) == cli.EXIT_OK
        records = read_jsonl(os.path.join(out, "runlog.jsonl"))
        assert all(r["tse"] is None for r in records)

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "run")
        argv = search_args(out, **{"--val-frac": "0.5"})  # tse + val split
        assert cli.main(argv) == cli.EXIT_CONFIG

    def test_darts_without_val_split_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        argv = search_args(out, **{"--optimizer": "darts-1st", "--val-frac": "0"})
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "val-frac must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, split", [
        # 33 train samples, batches of 8
        pytest.param({"--dataset": "synth:2,4,33,0.3"}, "train",
                     id="tse-darts-33-train"),
        # 18 train, 17 validation samples
        pytest.param({"--optimizer": "darts-1st", "--dataset": "synth:2,4,35,0.3"},
                     "validation", id="darts-1st-35-validation"),
        pytest.param({"--batch-size": "1"}, "train", id="batch-size-1"),
        # 199 train, 1 validation sample
        pytest.param({"--optimizer": "darts-1st", "--val-frac": "0.005",
                      "--dataset": "synth:2,4,200,0.3"}, "validation",
                     id="darts-1st-one-validation-sample"),
        # 1999 search, 1 diagnostics sample
        pytest.param({"--diag-val-frac": "0.0005", "--dataset": "synth:2,4,2000,0.3"},
                     "diagnostics", id="one-diagnostics-sample"),
    ])
    def test_batch_of_one_exit_code(self, tmp_path, capsys, flags, split):
        out = str(tmp_path / "run")
        argv = search_args(out, **{"--diag-val-frac": "0", **flags})
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: the {split} split has" in err and "batch of one" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec", ["synth:2,4", "synth:2,4,64,-1", "xor:2,4,64,-1"])
    def test_rejected_search_leaves_no_out_dir(self, tmp_path, capsys, spec):
        # a malformed spec, and a negative noise scale
        out = str(tmp_path / "run")
        argv = search_args(out, **{"--diag-val-frac": "0", "--dataset": spec})
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        {"--batch-size": "0"},
        {"--batch-size": "49"},                # train split holds 48 samples
        {"--diag-val-frac": "-0.2"},
        {"--diag-val-frac": "1"},
        {"--val-frac": "-0.5"},                # tse-darts takes no val split
        {"--lr": "nan"},
        {"--arch-lr": "inf"},
        {"--arch-wd": "-1"},
        {"--arch-wd": "nan"},
        {"--optimizer": "darts-1st", "--val-frac": "nan"},
        {"--seed": "-1"},
        {"--optimizer": "darts-1st", "--val-frac": "0.004"},   # 0.19 of 48 samples
        {"--diag-val-frac": "0.004"},                          # 0.26 of 64 samples
    ])
    def test_invalid_flags_leave_no_out_dir(self, tmp_path, capsys, flags):
        out = str(tmp_path / "run")
        assert cli.main(search_args(out, **flags)) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys):
        # an existing file, and a path under it; the file stays as it was
        existing = tmp_path / "taken"
        existing.write_text("keep\n")
        for out in (existing, existing / "run"):
            assert cli.main(search_args(str(out))) == cli.EXIT_CONFIG
            assert f"config error: --out {out}" in capsys.readouterr().err
        assert existing.read_text() == "keep\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_runlog_key_order(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(search_args(out, **{"--epochs": "1"})) == cli.EXIT_OK
        with open(os.path.join(out, "runlog.jsonl")) as f:
            (rec,) = [json.loads(line) for line in f]
        assert list(rec) == ["epoch", "tse", "train_loss", "val_acc", "skip_count",
                             "depth", "eig_val", "eig_train", "genotype",
                             "seed", "time"]
        with open(os.path.join(out, "genotype.json")) as f:
            assert json.load(f) == rec["genotype"]

    def test_numeric_abort_exit_code(self, tmp_path, monkeypatch):
        from tsedarts import optim

        def explode(*args, **kwargs):
            raise optim.UnrollAbort(2, "non-finite loss")

        monkeypatch.setattr(optim, "tse_darts_round", explode)
        out = str(tmp_path / "run")
        assert cli.main(search_args(out)) == cli.EXIT_NUMERIC
        assert os.path.exists(os.path.join(out, "abort.json"))
        doc = json.load(open(os.path.join(out, "abort.json")))
        assert "step 2" in doc["error"]

    def test_overflow_aborts_without_warning(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(search_args(out, **{"--lr": "1e300"})) == cli.EXIT_NUMERIC
        with open(os.path.join(out, "abort.json")) as f:
            assert "step 1" in json.load(f)["error"]
        assert capsys.readouterr().err.startswith("numerical abort: window aborted")

    def test_eigen_columns_populated_when_enabled(self, tmp_path):
        out = str(tmp_path / "run")
        cli.main(search_args(out, **{"--diag-eigen": "on", "--epochs": "1"}))
        (rec,) = read_jsonl(os.path.join(out, "runlog.jsonl"))
        assert rec["eig_train"] is not None and np.isfinite(rec["eig_train"])
        assert rec["eig_val"] is not None and np.isfinite(rec["eig_val"])


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--suite", "all", "--out", out]) == cli.EXIT_OK
        report = json.load(open(out))
        assert report["pass"]
        assert {s["suite"] for s in report["suites"]} == {"gradients", "eigen",
                                                          "depth"}

    @pytest.mark.parametrize("out", ["absent/report.json", "."])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch, out):
        # a path in a missing directory, and a path that is a directory
        def unreachable():
            raise AssertionError("suite ran before --out was checked")

        monkeypatch.setattr(cli, "_suite_depth", unreachable)
        out = str(tmp_path / out)
        assert cli.main(["verify", "--suite", "depth", "--out", out]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_single_suite(self, capsys):
        assert cli.main(["verify", "--suite", "depth"]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["suites"][0]["suite"] == "depth"


class TestPlotsCommand:
    def test_trajectory_csvs(self, tmp_path):
        out = str(tmp_path / "run")
        cli.main(search_args(out))
        assert cli.main(["plots", out]) == cli.EXIT_OK
        for name in ("skip_trajectory.csv", "depth_trajectory.csv",
                     "eigenvalue_trajectory.csv", "accuracy_trajectory.csv"):
            with open(os.path.join(out, name)) as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["epoch", "value", "seed"]
            assert len(rows) == 3  # header + 2 epochs

    def test_multi_seed_directories(self, tmp_path):
        root = tmp_path / "sweep"
        for seed in ("0", "1"):
            cli.main(search_args(str(root / f"seed{seed}"),
                                 **{"--seed": seed}))
        assert cli.main(["plots", str(root)]) == cli.EXIT_OK
        with open(root / "skip_trajectory.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert {r[2] for r in rows} == {"0", "1"}

    @pytest.mark.parametrize("line", [b'{"epoch": 0', b'{"seed": 0}', b"[0]",
                                      b'\xff{"epoch": 1}'])
    def test_bad_runlog_exit_code(self, tmp_path, capsys, line):
        # not JSON, a record without `epoch`, a non-record, not UTF-8
        log = tmp_path / "runlog.jsonl"
        log.write_bytes(b'{"epoch": 0, "skip_count": 1}\n' + line + b"\n")
        assert cli.main(["plots", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"config error: {log} line 2" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["runlog.jsonl"]

    def test_missing_runlog_rejected(self, tmp_path):
        assert cli.main(["plots", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_missing_run_dir_exit_code(self, tmp_path, capsys):
        assert cli.main(["plots", str(tmp_path / "absent")]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
