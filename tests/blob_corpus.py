"""Run the blob-corpus command sequence into OUT_DIR, for a bit check of two trees.

    PYTHONPATH=src python3 tests/blob_corpus.py OUT_DIR

The sequence writes the tests' blob corpus (:func:`conftest.write_blob_idx`), then runs, in
process through ``cli.main`` and with paths relative to OUT_DIR:

- ``train-teacher`` (16-10-3) into ``teacher/``;
- ``train-student`` (16-8-3) for st-svd, kd-vbd and ``st-svd --clip 0.5``, each given that
  teacher and its cache, into ``st-svd/``, ``kd-vbd/`` and ``st-svd-clip/``;
- ``evaluate`` of the st-svd student against the teacher, as csv at the threshold its
  checkpoint records, into ``eval.csv``;
- ``lowdata`` (kd, sizes 30 and 45, two seeds) into ``lowdata/``.

Every file but ``timing.jsonl`` (wall-clock times) follows from the code alone, and the
relative paths keep each recorded ``out`` and ``student`` the same wherever OUT_DIR is.  So
``diff -r -x timing.jsonl A B`` of two output directories compares two trees, or two runs of
one.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from conftest import write_blob_idx
from sparsedistill.cli import main


def run(out_dir) -> None:
    """Write the corpus and every command's artifacts under ``out_dir``."""
    Path(out_dir, "idx").mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(out_dir)
    try:
        paths = write_blob_idx("idx", n_train=120, n_test=48, d=16, classes=3, seed=0,
                               rows=4, cols=4)
        test = ["--test-images", str(paths["test_images"]),
                "--test-labels", str(paths["test_labels"])]
        data = ["--train-images", str(paths["train_images"]),
                "--train-labels", str(paths["train_labels"]), *test]
        teacher = ["--teacher", "teacher/teacher.ckpt", "--cache", "teacher/cache.ckpt"]
        student = ["train-student", *data, *teacher, "--arch", "16-8-3", "--epochs", "3",
                   "--batch", "32"]
        commands = [
            ["train-teacher", *data, "--arch", "16-10-3", "--epochs", "6", "--batch", "32",
             "--lr", "5e-3", "--out", "teacher"],
            [*student, "--variant", "st-svd", "--out", "st-svd"],
            [*student, "--variant", "kd-vbd", "--out", "kd-vbd"],
            [*student, "--variant", "st-svd", "--clip", "0.5", "--out", "st-svd-clip"],
            ["evaluate", *test, "--student", "st-svd/student.ckpt",
             "--teacher", "teacher/teacher.ckpt", "--format", "csv", "--out", "eval.csv"],
            ["lowdata", *data, *teacher, "--arch", "16-8-3", "--variant", "kd",
             "--sizes", "30,45", "--seeds", "2", "--epochs", "1", "--out", "lowdata"],
        ]
        for argv in commands:
            if main(argv) != 0:
                raise RuntimeError(f"{' '.join(argv[:1] + argv[-2:])} failed")
    finally:
        os.chdir(home)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    run(sys.argv[1])
