"""Seeded synthetic inputs at the paper's shapes, written as real artifacts.

Every benchmark run starts from a directory this module fills:

* ``train``, ``val`` and ``test`` IDX image/label pairs.  Images are
  28x28 bytes with signal only in the central 20x20 window, like MNIST
  digits, so border pixels are always 0.  Each class has a few binary
  stroke prototypes, fixed for all seeds like the classes of a real
  dataset; the seed draws the samples, which flip pixels and jitter
  intensity.  Exactly 30% of the labels of every split are set to a
  wrong class, so test error can be neither 0 nor chance: a model that
  has learned the classes scores 30%.
* ``teacher.ckpt`` and ``cache.ckpt``: a 784-1200-1200-10 teacher trained
  for two epochs on ``train``, and its logit cache over ``train``.
* ``student.ckpt``: a 784-500-50-10 student with a paper-like pruning
  pattern.  It is trained for two epochs without a teacher, then its
  log-variances are set so that every border row of layer 0, the weaker
  half of the window rows, the smallest 90% of each surviving row and
  the smallest half of the other layers' weights have log alpha past
  ``tau``: 74% of layer-0 rows and 97% of its weights are gone, R_s is
  about 18, and test error stays within a few points of 30%.

Model initialisation, batch order and noise draws use ``TRAIN_SEED`` in
every workload, as a user's fixed ``--seed`` would; the benchmark seed
changes the data only, which keeps the deterministic quality metrics
close across seeds.  The same seed writes byte-identical files.
Generation runs in its own process so that its memory never counts
toward a workload's peak RSS:

    PYTHONPATH=src python3 perfbench/inputs.py --out DIR --seed N [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsedistill import data, losses, metrics, optim, student, teacher
from sparsedistill.tensor import RngStream

LABEL_NOISE = 0.3     # exact share of wrong labels in every split
FLIP = 0.05           # per-pixel flip probability of a sample
PROTOTYPES = 3        # stroke prototypes per class
CLASSES = 10
PROTOTYPE_SEED = 20191027
TRAIN_SEED = 0


@dataclass(frozen=True)
class Shapes:
    """Model, batch and dataset sizes of one benchmark scale."""

    side: int = 28
    student_arch: tuple = (784, 500, 50, 10)
    teacher_arch: tuple = (784, 1200, 1200, 10)
    student_batch: int = 512
    teacher_batch: int = 128
    n_train: int = 4096
    n_val: int = 1024
    n_test: int = 10000
    student_epochs: int = 3
    teacher_epochs: int = 1
    infer_batch: int = 100
    min_infer: int = 200
    setup_reps: int = 21
    tau: float = 3.0


FULL = Shapes()
SMOKE = Shapes(side=8, student_arch=(64, 16, 8, 10), teacher_arch=(64, 32, 32, 10),
               student_batch=64, teacher_batch=32, n_train=256, n_val=128, n_test=256,
               min_infer=20, setup_reps=3)

SPLITS = ("train", "val", "test")


def split_paths(root, split: str) -> tuple[Path, Path]:
    root = Path(root)
    return root / f"{split}-images.idx", root / f"{split}-labels.idx"


def window_mask(side: int) -> np.ndarray:
    """Flat boolean mask of the central box that carries the signal."""
    margin = max(1, side // 7)
    box = np.zeros((side, side), dtype=bool)
    box[margin:side - margin, margin:side - margin] = True
    return box.reshape(-1)


def make_images(n: int, seed: int, side: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` byte images and their labels, 30% of them wrong; split ``stream`` of ``seed``."""
    win = window_mask(side)
    k = int(win.sum())
    protos = RngStream(PROTOTYPE_SEED).uniform(CLASSES, PROTOTYPES, k) < 0.3
    s = RngStream(seed, (7, stream))
    labels = (s.child(0).permutation(n) % CLASSES).astype(np.int64)
    which = (s.child(1).uniform(n) * PROTOTYPES).astype(np.int64)
    strokes = protos[labels, which].astype(np.float64)
    flips = s.child(2).uniform(n, k) < FLIP
    strokes = np.where(flips, 1.0 - strokes, strokes) * (0.6 + 0.4 * s.child(3).uniform(n, k))
    images = np.zeros((n, side * side))
    images[:, win] = strokes
    wrong = s.child(4).permutation(n) < round(LABEL_NOISE * n)
    shift = 1 + (s.child(5).uniform(n) * (CLASSES - 1)).astype(np.int64)
    shown = np.where(wrong, (labels + shift) % CLASSES, labels)
    return np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8), shown


def sparsify(net: student.StudentNet, side: int, tau: float) -> None:
    """Set log-variances in place so the paper-like pattern is past ``tau``."""
    win = window_mask(side)
    pruned = []
    theta0 = net.layers[0].theta
    norms = np.where(win, np.linalg.norm(theta0, axis=1), -np.inf)
    inside = np.flatnonzero(win)
    weak = inside[np.argsort(norms[inside], kind="stable")[: len(inside) // 2]]
    drop_rows = ~win
    drop_rows[weak] = True
    mag = np.abs(theta0)
    pruned.append(drop_rows[:, None] | (mag < np.quantile(mag, 0.9, axis=1, keepdims=True)))
    for layer in net.layers[1:]:
        mag = np.abs(layer.theta)
        pruned.append(mag < np.quantile(mag, 0.5))
    for layer, gone in zip(net.layers, pruned):
        log_theta2 = np.log(np.square(layer.theta))
        layer.log_sigma2[...] = log_theta2 + np.where(gone, tau + 2.0, -2.0)


def generate(out_dir, seed: int, shapes: Shapes) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sizes = {"train": shapes.n_train, "val": shapes.n_val, "test": shapes.n_test}
    for stream, split in enumerate(SPLITS):
        images, labels = make_images(sizes[split], seed, shapes.side, stream)
        data.write_idx(images, labels, *split_paths(out, split),
                       rows=shapes.side, cols=shapes.side)
    train = data.load_idx(*split_paths(out, "train"))
    val = data.load_idx(*split_paths(out, "val"))

    t_cfg = teacher.TeacherConfig(arch=list(shapes.teacher_arch), epochs=2,
                                  batch_size=shapes.teacher_batch, seed=TRAIN_SEED)
    tnet, t_records = teacher.train_teacher(train, t_cfg, test_ds=val)
    digest = teacher.save_checkpoint(tnet, out / "teacher.ckpt")
    teacher.save_logit_cache(teacher.precompute_logits(tnet, train), out / "cache.ckpt")

    s_cfg = optim.StudentTrainConfig(arch=list(shapes.student_arch), epochs=2,
                                     batch_size=shapes.student_batch, seed=TRAIN_SEED,
                                     tau=shapes.tau)
    snet, _ = optim.train_student(train, None, losses.resolve_variant("simple"), s_cfg)
    sparsify(snet, shapes.side, shapes.tau)
    student.save_student(snet, out / "student.ckpt", tau=shapes.tau)
    masks = student.prune_masks(snet, shapes.tau)
    facts = {
        "seed": seed,
        "teacher_digest": digest,
        "teacher_val_error_pct": 100.0 * t_records[-1]["test_error"],
        "student_digest": student.student_digest(snet),
        "student_r_s": metrics.sparsity_ratio(masks),
        "student_layer_sparsity_pct": metrics.per_layer_sparsity_pct(masks),
        "student_rows_pruned_l0": int(np.sum(~masks[0].any(axis=1))),
    }
    (out / "inputs.json").write_text(json.dumps(facts, indent=2, sort_keys=True) + "\n")
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes")
    args = parser.parse_args(argv)
    generate(args.out, args.seed, SMOKE if args.smoke else FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
