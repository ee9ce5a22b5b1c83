"""Byte-compare the outputs of fixed searches run from two source trees.

    python3 experiments/runlog_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src/` directories, each holding a
`tsedarts` package.  Three fixed `search` configs run once from each:

- `s2-tse`: tse-darts in the frozen criterion-8 setting (s2-like, 8 layers,
  width 8, `synth:4,16,2048,0.3`, T = 25, batch 32), 3 epochs, eigen on,
  `--diag-val-frac 0.1`;
- `s2-darts`: darts-1st on the same setting, `--val-frac 0.5`;
- `nb201-image`: tse-darts in the nb201-like space on 256 generated
  1x8x8 IDX images, 2 layers, width 4, T = 10, 3 epochs, eigen on.

For each run it compares `runlog.jsonl` (every record, keys in order,
with the `time` value blanked), `params.bin`, `genotype.json`,
`metrics.csv` and `config.json` (without `started` and `out`), prints
one line per file and a JSON summary, and exits 0 when every file is identical, 1 otherwise.
It is a tool for changes meant to keep the numbers bit for bit; it is not
part of the test suite.  BLAS is pinned to one thread in both runs.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np

FROZEN = ["--space", "s2-like", "--layers", "8", "--width", "8",
          "--dataset", "synth:4,16,2048,0.3", "--lr", "0.05", "--arch-lr", "3e-3",
          "--unroll-t", "25", "--batch-size", "32", "--aggregation", "mean",
          "--epochs", "3", "--diag-eigen", "on", "--diag-val-frac", "0.1",
          "--seed", "0"]
CONFIGS = {
    "s2-tse": FROZEN + ["--optimizer", "tse-darts"],
    "s2-darts": FROZEN + ["--optimizer", "darts-1st", "--val-frac", "0.5"],
    "nb201-image": ["--space", "nb201-like", "--layers", "2", "--width", "4",
                    "--dataset", "idx:{images},{labels}", "--lr", "0.05",
                    "--arch-lr", "3e-3", "--unroll-t", "10", "--batch-size", "32",
                    "--epochs", "3", "--diag-eigen", "on", "--diag-val-frac", "0.1",
                    "--seed", "0", "--optimizer", "tse-darts"],
}
FILES = ("runlog.jsonl", "params.bin", "genotype.json", "metrics.csv", "config.json")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def write_images(directory: str, n: int = 256, seed: int = 0) -> tuple:
    """Four-class 8x8 uint8 images (a bar or a diagonal, rolled, plus
    noise) as an IDX image file and an IDX label file."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 4)
    eye = np.eye(8)
    templates = [np.zeros((8, 8)), np.zeros((8, 8)), eye, eye[:, ::-1]]
    templates[0][3] = 1.0
    templates[1][:, 3] = 1.0
    images = np.stack([np.roll(templates[c], s, axis=0 if c != 1 else 1)
                       for c, s in zip(labels, rng.integers(-2, 3, size=n))])
    images = np.clip(200 * images + 30 * rng.standard_normal(images.shape), 0, 255)
    paths = (os.path.join(directory, "images.idx"), os.path.join(directory, "labels.idx"))
    with open(paths[0], "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, 8, 8) + images.astype(np.uint8).tobytes())
    with open(paths[1], "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes())
    return paths


def run(src: str, argv: list, out: str):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **SINGLE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "tsedarts.cli", "search", *argv,
                           "--out", out], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: search {' '.join(argv)} exited {proc.returncode}\n"
                         f"{proc.stderr}")


def comparable(path: str) -> bytes:
    """The file's bytes, with the fields that differ between any two runs
    blanked.  Records are re-serialised in their own key order, so a
    change of key order shows as a difference."""
    with open(path, "rb") as f:
        raw = f.read()
    if path.endswith(".jsonl"):
        records = [json.loads(line) for line in raw.splitlines() if line.strip()]
        for rec in records:
            rec["time"] = None
        return json.dumps(records).encode()
    if path.endswith("config.json"):
        doc = json.loads(raw)
        doc.pop("started")
        doc.pop("out")
        return json.dumps(doc, indent=2).encode()
    return raw


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2 or not all(os.path.isdir(os.path.join(a, "tsedarts")) for a in args):
        print("usage: python3 experiments/runlog_identity.py PARENT_SRC CHANGE_SRC\n"
              "each argument must be a directory holding the tsedarts package",
              file=sys.stderr)
        return 2
    summary = {}
    with tempfile.TemporaryDirectory() as tmp:
        images, labels = write_images(tmp)
        for name, config in CONFIGS.items():
            config = [a.format(images=images, labels=labels) for a in config]
            outs = [os.path.join(tmp, f"{name}-{side}") for side in ("parent", "change")]
            for src, out in zip(args, outs):
                run(src, config, out)
            for fname in FILES:
                same = (comparable(os.path.join(outs[0], fname))
                        == comparable(os.path.join(outs[1], fname)))
                summary[f"{name}/{fname}"] = same
                print(f"{name:12s} {fname:14s} {'identical' if same else 'DIFFERS'}")
    print(json.dumps({"identical": all(summary.values()), "files": summary}))
    return 0 if all(summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
