"""End-to-end command-line behavior: exit codes, artifacts, and determinism.

Everything here drives ``main()`` in process on small synthetic IDX files.
Three smoke tests shell out: one runs ``python -m sparsedistill``, one runs
the console-script entry point declared in ``pyproject.toml`` from the
source tree, and one runs the installed ``sparsedistill`` script, only when
it is on PATH.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sparsedistill
from sparsedistill.cli import _COMMANDS, _FLAGS, _parsers, main
from sparsedistill.checkpoint import read_manifest
from sparsedistill.data import load_idx, write_idx
from sparsedistill.losses import GROUP_NORMS, resolve_variant
from sparsedistill.optim import StudentTrainConfig, train_student
from sparsedistill.student import load_student, save_student
from sparsedistill.tensor import ACTIVATIONS

from blob_corpus import run as run_blob_corpus
from conftest import write_blob_idx


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    paths = write_blob_idx(root, n_train=120, n_test=48, d=16, classes=3,
                           seed=0, rows=4, cols=4)
    return {k: str(v) for k, v in paths.items()}


def data_flags(corpus, train=True, test=True):
    flags = []
    if train:
        flags += ["--train-images", corpus["train_images"],
                  "--train-labels", corpus["train_labels"]]
    if test:
        flags += ["--test-images", corpus["test_images"],
                  "--test-labels", corpus["test_labels"]]
    return flags


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """9 features and 3 classes: a test set or teacher data that no 16-x-3 run fits."""
    root = tmp_path_factory.mktemp("narrow-idx")
    paths = write_blob_idx(root, n_train=60, n_test=24, d=9, classes=3,
                           seed=1, rows=3, cols=3)
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture(scope="module")
def four_class(tmp_path_factory):
    """16 features and 4 classes: one class more than a 16-x-3 network outputs."""
    root = tmp_path_factory.mktemp("four-class-idx")
    paths = write_blob_idx(root, n_train=60, n_test=24, d=16, classes=4,
                           seed=1, rows=4, cols=4)
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture(scope="module")
def empty(tmp_path_factory):
    """A valid IDX pair of 16 features and no rows, as both the training and the test set."""
    root = tmp_path_factory.mktemp("empty-idx")
    write_idx(np.zeros((0, 16)), np.zeros(0), root / "images.idx", root / "labels.idx",
              rows=4, cols=4)
    return {f"{s}_{k}": str(root / f"{k}.idx") for s in ("train", "test")
            for k in ("images", "labels")}


@pytest.fixture(scope="module")
def teacher_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    rc = main(["train-teacher", *data_flags(corpus), "--arch", "16-10-3",
               "--epochs", "6", "--batch", "32", "--lr", "5e-3",
               "--out", str(out)])
    assert rc == 0
    return {"out": out, "teacher": str(out / "teacher.ckpt"),
            "cache": str(out / "cache.ckpt")}


@pytest.fixture(scope="module")
def student_run(corpus, teacher_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("student")
    rc = main(["train-student", *data_flags(corpus), "--arch", "16-8-3",
               "--variant", "kd-svd", "--epochs", "2", "--batch", "32",
               "--teacher", teacher_run["teacher"], "--cache", teacher_run["cache"],
               "--out", str(out)])
    assert rc == 0
    return {"out": out, "student": str(out / "student.ckpt")}


def child_env() -> dict:
    """The environment for a child interpreter that imports the package these tests import,
    also when pytest alone put ``src`` on the path."""
    env = dict(os.environ)
    root = str(Path(sparsedistill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "sparsedistill", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "train-teacher" in proc.stdout

    def test_console_script_help(self):
        # Run the declared entry point through the same wrapper pip writes
        # for a console script, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["sparsedistill"]
        module, _, attr = spec.partition(":")
        wrapper = (f"import sys\n"
                   f"from {module} import {attr.split('.')[0]}\n"
                   f"sys.argv[0] = 'sparsedistill'\n"
                   f"sys.exit({attr}())\n")
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "evaluate" in proc.stdout

    @pytest.mark.skipif(shutil.which("sparsedistill") is None,
                        reason="sparsedistill console script not installed on PATH")
    def test_installed_console_script_help(self):
        proc = subprocess.run(["sparsedistill", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout


class TestArgumentErrors:
    def test_malformed_arch_fails_at_parse_time(self, corpus):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--arch", "784--10"])
        assert err.value.code == 2

    def test_unknown_variant_lists_choices(self, corpus, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--variant", "fancy"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "kd-svd" in stderr and "st-vbd" in stderr

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_negative_seed(self, corpus, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--variant", "simple", "--seed", "-1"])
        assert err.value.code == 2
        assert "got -1" in capsys.readouterr().err

    def test_negative_or_repeated_seed_in_list(self, corpus, capsys):
        for seeds, named in (("1,-2", "got -2"), ("1,1,2", "'1,1,2' repeats")):
            with pytest.raises(SystemExit) as err:
                main(["lowdata", *data_flags(corpus), "--seeds", seeds])
            assert err.value.code == 2
            assert named in capsys.readouterr().err

    def test_repeated_size_in_list(self, corpus, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lowdata", *data_flags(corpus), "--sizes", "30,45,30"])
        assert err.value.code == 2
        assert "size list '30,45,30' repeats a size" in capsys.readouterr().err

    def test_seed_count_past_ssize_t(self, corpus, tmp_path, capsys):
        # only counts of 2^63 and more: a count that fits would build the whole list
        cfg = tmp_path / "run.cfg"
        for count in (str(2 ** 63), "99999999999999999999999"):
            with pytest.raises(SystemExit) as err:
                main(["lowdata", *data_flags(corpus), "--seeds", count])
            assert err.value.code == 2
            assert f"--seeds: seed count {count} is too large" in capsys.readouterr().err
            cfg.write_text(f"seeds={count}\n")
            assert main(["lowdata", *data_flags(corpus), "--config", str(cfg)]) == 2
            assert f"bad value {count!r} for key 'seeds'" in capsys.readouterr().err

    def test_layer_numpy_cannot_size(self, corpus, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--arch", "16-8-99999999999999999999"])
        assert err.value.code == 2
        assert "--arch: a 8x99999999999999999999 layer is too wide" in capsys.readouterr().err


class TestUsageExitCodes:
    def test_missing_data_flags(self):
        assert main(["train-teacher"]) == 2

    def test_nonexistent_data_file(self, corpus):
        rc = main(["train-teacher", "--train-images", "/no/such/file.idx",
                   "--train-labels", corpus["train_labels"]])
        assert rc == 2

    def test_distillation_variant_needs_teacher(self, corpus):
        rc = main(["train-student", *data_flags(corpus, test=False),
                   "--variant", "kd-svd", "--epochs", "1"])
        assert rc == 2

    def test_arch_dataset_width_mismatch(self, corpus, teacher_run):
        rc = main(["train-student", *data_flags(corpus, test=False),
                   "--arch", "8-4-3", "--variant", "kd", "--epochs", "1",
                   "--teacher", teacher_run["teacher"]])
        assert rc == 2

    def test_cache_row_count_mismatch(self, teacher_run, tmp_path_factory):
        small_root = tmp_path_factory.mktemp("small-idx")
        small = write_blob_idx(small_root, n_train=60, n_test=24, d=16,
                               classes=3, seed=2, rows=4, cols=4)
        rc = main(["train-student",
                   "--train-images", str(small["train_images"]),
                   "--train-labels", str(small["train_labels"]),
                   "--arch", "16-8-3", "--variant", "kd", "--epochs", "1",
                   "--teacher", teacher_run["teacher"],
                   "--cache", teacher_run["cache"]])
        assert rc == 2

    def test_missing_config_file(self, corpus):
        rc = main(["train-teacher", *data_flags(corpus, test=False),
                   "--config", "/no/such/config"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--student", "--config", "--teacher", "--test-images"])
    @pytest.mark.parametrize("value", ["", "directory"], ids=["empty", "directory"])
    def test_an_empty_path_or_a_directory_is_not_a_file(self, corpus, student_run, teacher_run,
                                                         capsys, flag, value):
        # each exits 2 naming its flag: "" is no file, though Path("") is "." and exists
        given = {"--student": student_run["student"], "--teacher": teacher_run["teacher"],
                 "--test-images": corpus["test_images"], "--test-labels": corpus["test_labels"]}
        given[flag] = str(Path(corpus["test_images"]).parent) if value else ""
        rc = main(["evaluate", *(a for item in given.items() for a in item), "--tau", "1e9"])
        assert rc == 2
        assert f"{flag}: {given[flag]!r} is not a file" in capsys.readouterr().err

    def test_cache_without_teacher(self, corpus, tmp_path, capsys):
        rc = main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                   "--variant", "simple", "--epochs", "1", "--cache", "/no/such/cache",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--cache needs --teacher" in capsys.readouterr().err
        assert not (tmp_path / "student.ckpt").exists()


class TestWidthsWhereInputsEnter:
    """A test set or a teacher that does not fit the run exits 2 before any training,
    naming the file and both widths."""

    @staticmethod
    def err_names(capsys, *parts):
        err = capsys.readouterr().err
        assert all(p in err for p in parts), err

    def test_train_teacher_test_set(self, corpus, narrow, tmp_path, capsys):
        assert main(["train-teacher", *data_flags(corpus, test=False),
                     *data_flags(narrow, train=False), "--arch", "16-10-3", "--epochs", "1",
                     "--out", str(tmp_path)]) == 2
        self.err_names(capsys, narrow["test_images"], "9 features", "input width is 16")
        assert not (tmp_path / "teacher.ckpt").exists()

    def test_train_student_test_set(self, corpus, narrow, tmp_path, capsys):
        assert main(["train-student", *data_flags(corpus, test=False),
                     *data_flags(narrow, train=False), "--arch", "16-8-3", "--variant", "simple",
                     "--epochs", "1", "--out", str(tmp_path)]) == 2
        self.err_names(capsys, narrow["test_images"], "9 features", "input width is 16")
        assert not (tmp_path / "student.ckpt").exists()

    def test_lowdata_test_set(self, corpus, narrow, teacher_run, tmp_path, capsys):
        assert main(["lowdata", *data_flags(corpus, test=False), *data_flags(narrow, train=False),
                     "--arch", "16-8-3", "--variant", "kd", "--sizes", "30", "--seeds", "1",
                     "--epochs", "1", "--teacher", teacher_run["teacher"],
                     "--cache", teacher_run["cache"], "--out", str(tmp_path)]) == 2
        self.err_names(capsys, narrow["test_images"], "9 features", "input width is 16")
        assert not (tmp_path / "sweep.json").exists()

    def test_evaluate_test_set(self, narrow, four_class, student_run, capsys):
        for data, named in ((narrow, (narrow["test_images"], "9 features", "input width is 16")),
                            (four_class, (four_class["test_labels"], "4 classes",
                                          "output width is 3"))):
            assert main(["evaluate", "--student", student_run["student"],
                         *data_flags(data, train=False)]) == 2
            self.err_names(capsys, *named)

    def test_teacher_input_width(self, corpus, narrow, tmp_path, capsys):
        teacher = tmp_path / "t" / "teacher.ckpt"
        assert main(["train-teacher", *data_flags(narrow, test=False), "--arch", "9-6-3",
                     "--epochs", "1", "--out", str(teacher.parent)]) == 0
        assert main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                     "--variant", "kd", "--epochs", "1", "--teacher", str(teacher),
                     "--out", str(tmp_path / "s")]) == 2
        self.err_names(capsys, str(teacher), "teacher input width 9", "16 features")

    def test_evaluate_teacher_widths(self, corpus, narrow, student_run, tmp_path, capsys):
        """The compression baseline must be a teacher of the student's data and classes."""
        for data, arch, named in ((narrow, "9-6-3", "teacher input width 9"),
                                  (corpus, "16-6-5", "teacher output width 5")):
            teacher = tmp_path / arch / "teacher.ckpt"
            assert main(["train-teacher", *data_flags(data, test=False), "--arch", arch,
                         "--epochs", "1", "--out", str(teacher.parent)]) == 0
            report = tmp_path / arch / "report.json"
            assert main(["evaluate", "--student", student_run["student"], "--teacher",
                         str(teacher), *data_flags(corpus, train=False),
                         "--out", str(report)]) == 2
            self.err_names(capsys, str(teacher), named,
                           "16 features" if "input" in named else "output width 3")
            assert not report.exists()

    def test_teacher_logit_width(self, corpus, teacher_run, tmp_path, capsys):
        run = ["train-student", *data_flags(corpus, test=False), "--arch", "16-8-4",
               "--variant", "kd", "--epochs", "1", "--batch", "32",
               "--teacher", teacher_run["teacher"], "--cache", teacher_run["cache"]]
        assert main([*run, "--out", str(tmp_path / "hint")]) == 2
        self.err_names(capsys, teacher_run["teacher"], "teacher output width 3",
                       "output width 4")
        # with the hint off, the teacher's logits are never compared with the student's
        assert main([*run, "--lambda-t", "0", "--out", str(tmp_path / "no-hint")]) == 0


class TestEmptyDataSetWhereItEnters:
    """A data set with no rows exits 2 naming its images file, before anything is written."""

    @staticmethod
    def err_names_the_images(capsys, empty, prefix):
        err = capsys.readouterr().err
        assert f"{empty[prefix + '_images']}: the data set has no rows" in err, err

    @pytest.mark.parametrize("command,flags", [
        ("train-teacher", ["--arch", "16-10-3"]),
        ("train-student", ["--arch", "16-8-3", "--variant", "simple"]),
        ("lowdata", ["--arch", "16-8-3", "--variant", "kd", "--sizes", "30", "--seeds", "1"]),
    ])
    def test_training_set(self, corpus, empty, teacher_run, tmp_path, capsys, command, flags):
        teacher = ["--teacher", teacher_run["teacher"]] if command == "lowdata" else []
        out = tmp_path / "out"
        assert main([command, *data_flags(empty, test=False), *data_flags(corpus, train=False),
                     *flags, *teacher, "--epochs", "1", "--out", str(out)]) == 2
        self.err_names_the_images(capsys, empty, "train")
        assert not out.exists()

    def test_evaluate_test_set(self, empty, student_run, capsys):
        assert main(["evaluate", "--student", student_run["student"],
                     *data_flags(empty, train=False)]) == 2
        self.err_names_the_images(capsys, empty, "test")


class TestTeacherNeededWhereFlagsEnter:
    """A variant whose hint or group term needs a teacher, run without ``--teacher``, exits 2
    before training and names the flags that fix it."""

    @pytest.mark.parametrize("flags, named", [
        (["--variant", "kd"], ("'kd'", "--teacher", "--lambda-t 0")),
        (["--variant", "st-svd", "--lambda-t", "0"], ("'st-svd'", "--teacher", "group term"))])
    def test_train_student(self, corpus, tmp_path, capsys, monkeypatch, flags, named):
        def built(*args, **kwargs):
            raise AssertionError("the student was built")
        monkeypatch.setattr(sparsedistill.optim, "init_student", built)
        assert main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                     "--epochs", "1", *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(n in err for n in named), err
        assert not (tmp_path / "student.ckpt").exists()


class TestBadValuesExit2:
    """Values that parse but cannot be trained with fail with exit 2 and name the value."""

    def student(self, corpus, *flags, teacher_run=None):
        teacher = [] if teacher_run is None else ["--teacher", teacher_run["teacher"],
                                                  "--cache", teacher_run["cache"]]
        return main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                     "--epochs", "1", "--batch", "32", *teacher, *flags])

    def test_zero_epochs_and_batch(self, corpus, tmp_path, capsys):
        for flag in ("--epochs", "--batch"):
            assert self.student(corpus, "--variant", "simple", flag, "0",
                                "--out", str(tmp_path / "s")) == 2
            assert "got 0" in capsys.readouterr().err
            assert main(["train-teacher", *data_flags(corpus, test=False), "--arch", "16-10-3",
                         "--epochs", "1", "--batch", "32", flag, "0",
                         "--out", str(tmp_path / "t")]) == 2
            assert "got 0" in capsys.readouterr().err

    def test_negative_hint_weight(self, corpus, teacher_run, tmp_path):
        assert self.student(corpus, "--variant", "kd", "--lambda-t", "-3",
                            "--out", str(tmp_path), teacher_run=teacher_run) == 2

    def test_negative_group_weight(self, corpus, teacher_run, tmp_path):
        assert self.student(corpus, "--variant", "st-svd", "--lambda-g", "-1",
                            "--out", str(tmp_path), teacher_run=teacher_run) == 2

    def test_negative_lr(self, corpus, tmp_path):
        assert self.student(corpus, "--variant", "simple", "--lr", "-1",
                            "--out", str(tmp_path)) == 2

    def test_nan_tau(self, corpus, tmp_path):
        assert self.student(corpus, "--variant", "simple", "--tau", "nan",
                            "--out", str(tmp_path)) == 2

    def test_nonpositive_clip(self, corpus, tmp_path, capsys):
        for value in ("-1", "0"):
            assert self.student(corpus, "--variant", "simple", "--clip", value,
                                "--out", str(tmp_path)) == 2
            assert f"got {float(value)}" in capsys.readouterr().err

    def test_nonpositive_temperature_and_bad_q(self, corpus, teacher_run, tmp_path, capsys):
        for flags, named in ((("--temperature", "0"), "temperature must be positive, got 0.0"),
                             (("--temperature", "-2"), "got -2.0"),
                             (("--bsr", "l1lq", "--q", "0.5"), "got 0.5")):
            assert self.student(corpus, "--variant", "kd", *flags, "--out", str(tmp_path),
                                teacher_run=teacher_run) == 2
            assert named in capsys.readouterr().err

    def test_infinite_temperature_and_negative_warmup(self, corpus, teacher_run, tmp_path, capsys):
        for flags, named in ((("--temperature", "inf"), "temperature must be finite, got inf"),
                             (("--warmup-epochs", "-4"), "warmup_epochs must be >= 0, got -4")):
            assert self.student(corpus, "--variant", "kd-svd", *flags, "--out", str(tmp_path),
                                teacher_run=teacher_run) == 2
            assert named in capsys.readouterr().err

    def test_temperature_past_float64_range(self, corpus, teacher_run, tmp_path, capsys):
        # 1/T and the hint's 2 T^2 must be finite, or the first step diverges
        for value in ("1e300", "1e-320"):
            assert self.student(corpus, "--variant", "kd", "--temperature", value,
                                "--out", str(tmp_path), teacher_run=teacher_run) == 2
            assert f"temperature {float(value)!r} is out of range" in capsys.readouterr().err
        assert self.student(corpus, "--variant", "kd", "--temperature", "1e-300",
                            "--out", str(tmp_path), teacher_run=teacher_run) == 0

    @pytest.mark.parametrize("flags, why", [
        (("--variant", "kd", "--bsr", "l1linf", "--q", "3"),
         "variant 'kd' has no active l1lq term (group norm l1linf, lambda_g 0.01)"),
        (("--variant", "kd", "--q", "7"),
         "variant 'kd' has no active l1lq term (group norm None, lambda_g 0.0)"),
        (("--variant", "st-svd", "--bsr", "l1linf", "--q", "3"),
         "variant 'st-svd' has no active l1lq term (group norm l1linf, lambda_g 0.01)"),
        (("--variant", "kd", "--bsr", "l1lq", "--lambda-g", "0", "--q", "3"),
         "variant 'kd' has no active l1lq term (group norm l1lq, lambda_g 0.0)"),
    ], ids=["kd-l1linf", "kd-no-group", "st-svd-l1linf", "l1lq-weight-0"])
    def test_q_the_run_would_ignore(self, corpus, teacher_run, tmp_path, capsys, flags, why):
        out = tmp_path / "s"
        assert self.student(corpus, *flags, "--out", str(out), teacher_run=teacher_run) == 2
        assert f"q {float(flags[-1])} would be ignored: {why}" in capsys.readouterr().err
        assert not out.exists()

    def test_group_weight_the_run_would_ignore(self, corpus, teacher_run, tmp_path, capsys):
        for variant in ("simple", "kd", "kd-vbd", "kd-svd"):
            assert self.student(corpus, "--variant", variant, "--lambda-g", "0.5",
                                "--out", str(tmp_path), teacher_run=teacher_run) == 2
            assert f"lambda_g 0.5 would be ignored: variant {variant!r}" in capsys.readouterr().err

    def test_group_weight_with_explicit_group_variant(self, corpus, teacher_run, tmp_path):
        for lambda_g, weight in ((("--lambda-g", "0.5"), 0.5), ((), 0.01)):
            out = tmp_path / str(weight)
            assert self.student(corpus, "--variant", "kd", "--bsr", "l1lq", *lambda_g,
                                "--out", str(out), teacher_run=teacher_run) == 0
            loss = json.loads((out / "config.json").read_text())["loss"]
            assert loss["bsr_variant"] == "l1lq" and loss["lambda_g"] == weight


    def test_evaluate_batch_below_one(self, corpus, student_run, capsys):
        for batch in ("0", "-5"):
            assert main(["evaluate", "--student", student_run["student"], "--time",
                         "--batch", batch, *data_flags(corpus, train=False)]) == 2
            assert f"got {batch}" in capsys.readouterr().err

    def test_evaluate_timed_batch_above_test_rows(self, corpus, student_run, capsys):
        assert main(["evaluate", "--student", student_run["student"], "--time",
                     "--batch", "1000", *data_flags(corpus, train=False)]) == 2
        err = capsys.readouterr().err
        assert "1000" in err and "48 rows" in err

    def test_evaluate_nan_tau(self, corpus, student_run, capsys):
        assert main(["evaluate", "--student", student_run["student"], "--tau", "nan",
                     *data_flags(corpus, train=False)]) == 2
        assert "got nan" in capsys.readouterr().err

    def test_lowdata_size_above_training_rows(self, corpus, teacher_run, tmp_path, capsys):
        assert main(["lowdata", *data_flags(corpus), "--arch", "16-8-3", "--variant", "kd",
                     "--sizes", "30,5000", "--seeds", "1", "--epochs", "1",
                     "--teacher", teacher_run["teacher"], "--cache", teacher_run["cache"],
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "5000" in err and "120 rows" in err
        assert not (tmp_path / "sweep.json").exists()


class TestRuntimeExitCodes:
    def test_stale_cache_against_other_teacher(self, corpus, teacher_run,
                                               tmp_path_factory):
        other = tmp_path_factory.mktemp("teacher2")
        rc = main(["train-teacher", *data_flags(corpus, test=False),
                   "--arch", "16-10-3", "--epochs", "1", "--batch", "32",
                   "--seed", "1", "--out", str(other)])
        assert rc == 0
        rc = main(["train-student", *data_flags(corpus, test=False),
                   "--arch", "16-8-3", "--variant", "kd", "--epochs", "1",
                   "--teacher", str(other / "teacher.ckpt"),
                   "--cache", teacher_run["cache"]])
        assert rc == 1

    def test_teacher_checkpoint_is_not_a_student(self, corpus, teacher_run):
        rc = main(["evaluate", "--student", teacher_run["teacher"],
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 1

    def test_malformed_manifest(self, corpus, student_run, tmp_path, capsys):
        for name in ("student.ckpt", "student.ckpt.bin"):
            shutil.copy(Path(student_run["out"]) / name, tmp_path / name)
        manifest = tmp_path / "student.ckpt"
        manifest.write_text(manifest.read_text().replace("activation=relu", "activation=tanh"))
        rc = main(["evaluate", "--student", str(manifest),
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 1
        assert "FormatError" in capsys.readouterr().err

    def test_repeated_manifest_key(self, corpus, student_run, tmp_path, capsys):
        for name in ("student.ckpt", "student.ckpt.bin"):
            shutil.copy(Path(student_run["out"]) / name, tmp_path / name)
        manifest = tmp_path / "student.ckpt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + ["digest=" + "0" * 64]) + "\n")
        rc = main(["evaluate", "--student", str(manifest),
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and f"{manifest}:{len(lines) + 1}" in err and "'digest'" in err


class TestTeacherArtifacts:
    def test_outputs_exist(self, teacher_run):
        out = teacher_run["out"]
        for name in ("teacher.ckpt", "teacher.ckpt.bin", "cache.ckpt",
                     "cache.ckpt.bin", "session.jsonl", "timing.jsonl", "config.json"):
            assert (out / name).exists()

    def test_session_log_does_not_depend_on_out(self, corpus, teacher_run, tmp_path):
        out = tmp_path / "elsewhere"
        assert main(["train-teacher", *data_flags(corpus), "--arch", "16-10-3", "--epochs", "6",
                     "--batch", "32", "--lr", "5e-3", "--out", str(out)]) == 0
        session = (out / "session.jsonl").read_bytes()
        assert session == (teacher_run["out"] / "session.jsonl").read_bytes()
        meta = json.loads(session.splitlines()[0])
        assert set(meta) == {"kind", "arch", "n_train", "train", "parameters", "digest"}
        assert meta["arch"] == [16, 10, 3] and meta["n_train"] == 120
        assert meta["train"]["epochs"] == 6 and meta["train"]["batch_size"] == 32

    def test_arch_is_recorded_in_its_canonical_text(self, corpus, tmp_path, capsys):
        assert main(["train-teacher", *data_flags(corpus, test=False), "--arch", "16- 08-3",
                     "--epochs", "1", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "config.json").read_text())["arch"] == "16-8-3"
        assert read_manifest(tmp_path / "teacher.ckpt")["architecture"] == "16-8-3"
        assert capsys.readouterr().out.startswith("teacher 16-8-3: ")

    def test_session_meta_matches_manifest_digest(self, teacher_run):
        meta = json.loads((teacher_run["out"] / "session.jsonl")
                          .read_text().splitlines()[0])
        manifest = read_manifest(teacher_run["teacher"])
        assert meta["kind"] == "teacher_session"
        assert meta["digest"] == manifest["digest"]
        assert meta["parameters"] == 16 * 10 + 10 + 10 * 3 + 3

    def test_cache_records_teacher_digest(self, teacher_run):
        cache_manifest = read_manifest(teacher_run["cache"])
        teacher_manifest = read_manifest(teacher_run["teacher"])
        assert cache_manifest["teacher_digest"] == teacher_manifest["digest"]


class TestStudentArtifacts:
    def test_outputs_exist(self, student_run):
        out = student_run["out"]
        for name in ("student.ckpt", "student.ckpt.bin", "session.jsonl",
                     "timing.jsonl", "config.json", "report.json"):
            assert (out / name).exists()

    def test_config_embeds_resolved_loss(self, student_run):
        config = json.loads((student_run["out"] / "config.json").read_text())
        assert config["variant"] == "kd-svd"
        assert config["loss"]["kl_variant"] == "svd"
        assert config["loss"]["lambda_g"] == 0.0
        assert config["epochs"] == 2
        assert config["batch"] == 32

    def test_report_is_a_single_json_row(self, student_run):
        rows = json.loads((student_run["out"] / "report.json").read_text())
        assert len(rows) == 1
        row = rows[0]
        assert row["network"] == "16-8-3"
        assert row["config"]["compression_baseline"] == "teacher"
        assert row["r_c"] > 1.0
        assert row["inference_ms"] is None

    @pytest.mark.parametrize("variant", ["kd", "st-svd"])  # st-svd adds the KL and group terms
    def test_rerun_reproduces_log_and_weights(self, corpus, teacher_run,
                                              tmp_path_factory, variant):
        out = tmp_path_factory.mktemp("repeat")
        argv = ["train-student", *data_flags(corpus, test=False),
                "--arch", "16-8-3", "--variant", variant, "--epochs", "2",
                "--batch", "32", "--teacher", teacher_run["teacher"],
                "--cache", teacher_run["cache"], "--out", str(out)]

        def outputs():  # every file but the wall-clock log
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.jsonl"}

        assert main(argv) == 0
        first = outputs()
        assert {"session.jsonl", "student.ckpt", "student.ckpt.bin", "config.json"} <= first.keys()
        assert main(argv) == 0
        assert outputs() == first

    def test_teacher_free_sparse_vd(self, corpus, tmp_path):
        """``kd-svd --lambda-t 0`` needs no teacher, and trains what the library call trains."""
        out = tmp_path / "cli"
        assert main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                     "--variant", "kd-svd", "--lambda-t", "0", "--epochs", "2", "--batch", "32",
                     "--out", str(out)]) == 0
        ds = load_idx(corpus["train_images"], corpus["train_labels"])
        net, _ = train_student(ds, None, replace(resolve_variant("kd-svd"), lambda_t=0.0),
                               StudentTrainConfig(arch=[16, 8, 3], epochs=2, batch_size=32))
        save_student(net, tmp_path / "lib.ckpt", tau=3.0)
        assert (out / "student.ckpt.bin").read_bytes() == (tmp_path / "lib.ckpt.bin").read_bytes()

    def test_config_file_precedence(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=2\nseed=5\n")
        out = tmp_path / "run"
        rc = main(["train-student", *data_flags(corpus, test=False),
                   "--arch", "16-8-3", "--variant", "simple",
                   "--batch", "32", "--config", str(cfg),
                   "--epochs", "1", "--out", str(out)])
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert config["epochs"] == 1
        assert config["seed"] == 5

    def test_flag_that_means_unset_beats_the_config_file(self, corpus, tmp_path):
        """``--lambda-v auto`` converts to None, and still wins over the file's ``lambda_v``."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_v=0.5\n")
        for flags, want in (((), 0.5), (("--lambda-v", "auto"), None)):
            out = tmp_path / str(want)
            assert main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                         "--variant", "kd-svd", "--lambda-t", "0", "--epochs", "1",
                         "--batch", "32", "--config", str(cfg), *flags, "--out", str(out)]) == 0
            config = json.loads((out / "config.json").read_text())
            assert config["lambda_v"] == want and config["loss"]["lambda_v_max"] == want

    def test_config_file_path_keys(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run"
        cfg.write_text(f"train_images={corpus['train_images']}\n"
                       f"train-labels={corpus['train_labels']}\nout={out}\n")
        assert main(["train-student", "--config", str(cfg), "--arch", "16-8-3",
                     "--variant", "simple", "--epochs", "1", "--batch", "32"]) == 0
        assert (out / "student.ckpt").exists()

    def test_unknown_config_key(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for line in ("temprature=5", "sizes=100", "func=x"):
            cfg.write_text(line + "\n")
            rc = main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                       "--variant", "simple", "--epochs", "1", "--batch", "32",
                       "--config", str(cfg), "--out", str(tmp_path / "run")])
            assert rc == 2
            err = capsys.readouterr().err
            assert str(cfg) in err and repr(line.split("=")[0]) in err

    def test_repeated_config_key(self, corpus, tmp_path, capsys):
        # a key repeats also under its other spelling: both name --test-images
        cfg = tmp_path / "run.cfg"
        for text, named in (("epochs=1\nseed=2\nepochs=3\n", f"{cfg}:3: repeated key 'epochs'"),
                            ("epochs=1\ntest-images=nope\ntest_images={test_images}\n"
                             "test-labels={test_labels}\n", f"{cfg}: repeated key 'test_images'")):
            cfg.write_text(text.format(**corpus))
            rc = main(["train-student", *data_flags(corpus, test=False), "--arch", "16-8-3",
                       "--variant", "simple", "--batch", "32", "--config", str(cfg),
                       "--out", str(tmp_path / "run")])
            assert rc == 2
            assert named in capsys.readouterr().err

    def test_config_file_that_does_not_parse(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for text, named in ((b"epochs 2\n", "expected key=value"), (b"epochs=1\n\xff\n", "UTF-8")):
            cfg.write_bytes(text)
            rc = main(["train-student", *data_flags(corpus), "--arch", "16-8-3",
                       "--variant", "simple", "--config", str(cfg), "--out", str(tmp_path / "run")])
            assert rc == 2
            err = capsys.readouterr().err
            assert str(cfg) in err and named in err

    @pytest.mark.parametrize("line", ["epochs=abc", "lr=fast", "seeds=1,x"])
    def test_config_value_that_does_not_parse(self, corpus, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = "lowdata" if line.startswith("seeds") else "train-student"
        rc = main([command, *data_flags(corpus), "--arch", "16-8-3", "--variant", "simple",
                   "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        key, _, value = line.partition("=")
        assert str(cfg) in err and repr(key) in err and repr(value) in err


class TestFlagTable:
    """Every flag is declared once, in ``_FLAGS``; ``_COMMANDS`` gives its defaults."""

    @staticmethod
    def help_text(command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        return "".join(capsys.readouterr().out.split())  # argparse wraps lines and hyphens

    def test_help_shows_every_default(self, capsys):
        for command, (_, _, _, defaults) in _COMMANDS.items():
            text = self.help_text(command, capsys)
            for dest, default in defaults.items():
                if default is not None:
                    assert f"(default{default})" in text, (command, dest)
        assert "trainingepochs(default30)" in self.help_text("lowdata", capsys)

    def test_argparse_converts_every_default(self):
        parser, _ = _parsers()
        for command, (_, _, plain, defaults) in _COMMANDS.items():
            args = vars(parser.parse_args([command]))
            for dest, text in defaults.items():
                want = None if text is None else _FLAGS[dest][0](text)
                assert args[dest] == want and type(args[dest]) is type(want), (command, dest)
            assert all(args[dest] is None for dest in plain), command

    @pytest.mark.parametrize("dest,names", [("activation", tuple(ACTIVATIONS)),
                                            ("bsr", GROUP_NORMS)])
    def test_choices_are_the_library_s(self, capsys, dest, names):
        parser, _ = _parsers()
        flag = "--" + dest
        for name in names:
            assert getattr(parser.parse_args(["train-student", flag, name]), dest) == name
        with pytest.raises(SystemExit):
            parser.parse_args(["train-student", flag, "other"])
        assert f"expected one of {', '.join(names)}" in capsys.readouterr().err

    def test_every_flag_is_offered(self, capsys):
        offered = set()
        for command in _COMMANDS:
            offered |= set(re.findall(r"--([a-z-]+)", self.help_text(command, capsys)))
        assert {dest.replace("_", "-") for dest in _FLAGS} <= offered

    @pytest.mark.parametrize("command,flag,value", [("evaluate", "seed", "1"),
                                                    ("lowdata", "seed", "1"),
                                                    ("lowdata", "format", "csv"),
                                                    ("train-student", "kl", "svd")])
    def test_removed_flags_exit_2(self, corpus, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as err:
            main([command, *data_flags(corpus, train=command != "evaluate"),
                  f"--{flag}", value])
        assert err.value.code == 2
        assert f"--{flag}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        assert main([command, *data_flags(corpus, train=command != "evaluate"),
                     "--config", str(cfg)]) == 2
        assert "not a flag of this command" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["none", "l1l2"])
    def test_removed_group_norm_spellings_exit_2(self, corpus, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--bsr", value])
        assert err.value.code == 2
        assert f"unknown group-norm variant {value!r}; expected one of l1lq, l1linf" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["none", "", "AUTO"])
    def test_removed_lambda_v_spellings_exit_2(self, corpus, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["train-student", *data_flags(corpus), "--lambda-v", value])
        assert err.value.code == 2
        assert f"--lambda-v: could not convert string to float: {value!r}" \
            in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda_v={value}\n")
        assert main(["train-student", *data_flags(corpus), "--config", str(cfg)]) == 2
        assert f"bad value {value!r} for key 'lambda_v'" in capsys.readouterr().err

    def test_config_json_keys(self, teacher_run, student_run):
        teacher = json.loads((teacher_run["out"] / "config.json").read_text())
        assert set(teacher) == {"arch", "epochs", "batch", "lr", "seed", "activation", "out"}
        student = json.loads((student_run["out"] / "config.json").read_text())
        assert set(student) == {"arch", "variant", "bsr", "q", "temperature", "lambda_t",
                                "lambda_v", "lambda_g", "warmup_epochs", "epochs", "batch",
                                "lr", "tau", "seed", "activation", "hint_reverse", "clip",
                                "out", "format", "loss"}


class TestEvaluate:
    def test_stdout_json_and_determinism(self, corpus, student_run, capsys):
        argv = ["evaluate", "--student", student_run["student"],
                "--test-images", corpus["test_images"],
                "--test-labels", corpus["test_labels"]]
        assert main(argv) == 0
        first = capsys.readouterr().out
        rows = json.loads(first)
        assert len(rows) == 1
        assert rows[0]["inference_ms"] is None
        assert rows[0]["config"]["compression_baseline"] == "self"
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_huge_tau_keeps_everything(self, corpus, student_run, capsys):
        rc = main(["evaluate", "--student", student_run["student"],
                   "--tau", "1e9",
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["r_s"] == 1.0
        assert rows[0]["per_layer_sparsity"] == [0.0, 0.0]

    def test_tau_is_the_checkpoint_s_unless_given(self, corpus, student_run, tmp_path, capsys):
        """The flag, then the config file, then the tau the student was saved with."""
        saved = tmp_path / "student.ckpt"
        save_student(load_student(student_run["student"])[0], saved, tau=1e9)
        argv = ["evaluate", "--student", str(saved), *data_flags(corpus, train=False)]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["r_s"] == 1.0 and row["config"]["tau"] == 1e9
        config = tmp_path / "eval.cfg"
        config.write_text("tau=5\n")
        for flags, tau in (([], 5.0), (["--tau", "7"], 7.0)):
            assert main([*argv, "--config", str(config), *flags]) == 0
            assert json.loads(capsys.readouterr().out)[0]["config"]["tau"] == tau

    def test_a_checkpoint_without_tau_needs_the_flag(self, corpus, student_run, tmp_path,
                                                     capsys):
        saved = tmp_path / "student.ckpt"
        save_student(load_student(student_run["student"])[0], saved)
        argv = ["evaluate", "--student", str(saved), *data_flags(corpus, train=False)]
        assert main(argv) == 2
        assert "records no tau; give --tau" in capsys.readouterr().err
        assert main([*argv, "--tau", "3"]) == 0

    def test_timing_flag_fills_inference_column(self, corpus, student_run, capsys):
        rc = main(["evaluate", "--student", student_run["student"], "--time",
                   "--batch", "16",
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["inference_ms"] is not None
        assert rows[0]["inference_ms"] > 0.0

    def test_timed_batch_is_recorded_in_config(self, corpus, student_run, capsys):
        flags = ["evaluate", "--student", student_run["student"], "--batch", "16",
                 *data_flags(corpus, train=False)]
        assert main([*flags, "--time"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["config"]["batch"] == 16
        assert main(flags) == 0
        assert "batch" not in json.loads(capsys.readouterr().out)[0]["config"]

    def test_markdown_format(self, corpus, student_run, capsys):
        rc = main(["evaluate", "--student", student_run["student"],
                   "--format", "markdown",
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| network |")

    def test_out_writes_file(self, corpus, student_run, tmp_path):
        target = tmp_path / "scores.json"
        rc = main(["evaluate", "--student", student_run["student"],
                   "--out", str(target),
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 0
        assert json.loads(target.read_text())[0]["network"] == "16-8-3"

    def test_teacher_baseline_changes_compression(self, corpus, student_run,
                                                  teacher_run, capsys):
        rc = main(["evaluate", "--student", student_run["student"],
                   "--teacher", teacher_run["teacher"],
                   "--test-images", corpus["test_images"],
                   "--test-labels", corpus["test_labels"]])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["config"]["compression_baseline"] == "teacher"


def strict_json(text: str):
    """Parse JSON that must not contain NaN or +-Infinity."""
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Infinite values are written as the strings "inf" and "-inf"."""

    def test_evaluate_report_with_everything_pruned(self, corpus, student_run, tmp_path):
        target = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="every weight was pruned"):
            rc = main(["evaluate", "--student", student_run["student"], "--tau", "-50",
                       "--test-images", corpus["test_images"],
                       "--test-labels", corpus["test_labels"], "--out", str(target)])
        assert rc == 0
        row = strict_json(target.read_text())[0]
        assert row["r_s"] == "inf" and row["footprint_compression"] > 0

    def test_infinite_tau_in_config_and_session(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["train-student", *data_flags(corpus), "--arch", "16-8-3",
                     "--variant", "simple", "--epochs", "1", "--batch", "32",
                     "--tau", "inf", "--out", str(out)]) == 0
        assert strict_json((out / "config.json").read_text())["tau"] == "inf"
        lines = (out / "session.jsonl").read_text().splitlines()
        assert strict_json(lines[0])["train"]["tau"] == "inf"
        for line in lines[1:]:
            strict_json(line)
        strict_json((out / "report.json").read_text())


class TestLowdata:
    def test_sweep_artifact_shape(self, corpus, teacher_run, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["lowdata", *data_flags(corpus),
                   "--arch", "16-8-3", "--variant", "kd",
                   "--sizes", "30,45", "--seeds", "0,2",
                   "--epochs", "1", "--batch", "32",
                   "--teacher", teacher_run["teacher"],
                   "--cache", teacher_run["cache"], "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert set(doc) == {"rows", "summary", "config"}
        assert len(doc["rows"]) == 2 * 2 * 2
        assert {r["seed"] for r in doc["rows"]} == {0, 2}
        assert {r["size"] for r in doc["rows"]} == {30, 45}
        assert len(doc["summary"]) == 4
        assert doc["config"]["seeds"] == [0, 2]
        assert doc["config"]["epochs"] == 1

    def test_lowdata_requires_teacher(self, corpus):
        rc = main(["lowdata", *data_flags(corpus), "--sizes", "30",
                   "--seeds", "1", "--epochs", "1"])
        assert rc == 2


@pytest.mark.slow
def test_two_blob_corpus_runs_write_the_same_bytes(tmp_path):
    """The bit check of ``tests/blob_corpus.py``, run twice: every file but the wall-clock
    ``timing.jsonl`` logs is byte-identical."""
    def outputs(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.name != "timing.jsonl"}
    for side in ("a", "b"):
        run_blob_corpus(tmp_path / side)
    a, b = outputs(tmp_path / "a"), outputs(tmp_path / "b")
    assert sorted(a) == sorted(b) and len(a) == 27
    assert [name for name in a if a[name] != b[name]] == []
