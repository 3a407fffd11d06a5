"""The artifact format: malformed manifests, and mutated or truncated files.

Every loader must either load a file or raise one of the package's own
error types, never a raw ``KeyError``, ``ValueError`` or decoding error.
The property tests mutate the bytes of small valid artifacts with
hypothesis, derandomized so the suite stays deterministic.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedistill.checkpoint import read_manifest
from sparsedistill.data import load_idx, write_idx
from sparsedistill.errors import FormatError
from sparsedistill.student import init_student, load_student, save_student
from sparsedistill.teacher import (init_mlp, load_checkpoint, load_logit_cache,
                                   precompute_logits, save_checkpoint, save_logit_cache)

from conftest import make_blobs

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def write_artifacts(root: Path) -> None:
    """A teacher, its logit cache, a student, and an IDX pair under ``root``."""
    teacher = init_mlp([6, 5, 3], seed=1)
    ds = make_blobs(10, 6, 3, seed=0)
    save_checkpoint(teacher, root / "teacher.ckpt")
    save_logit_cache(precompute_logits(teacher, ds), root / "cache.ckpt")
    save_student(init_student([6, 4, 3], seed=2), root / "student.ckpt", tau=3.0)
    u8 = np.round(ds.images * 255).astype(np.uint8)
    write_idx(u8, ds.labels, root / "img.idx", root / "lab.idx", rows=2, cols=3)


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict:
    """File name -> bytes of every valid artifact file."""
    root = tmp_path_factory.mktemp("artifacts")
    write_artifacts(root)
    return {p.name: p.read_bytes() for p in root.iterdir()}


def edit_manifest(path: Path, **changes) -> None:
    """Set (a string) or drop (None) manifest keys in place."""
    entries = read_manifest(path)
    for key, value in changes.items():
        if value is None:
            entries.pop(key)
        else:
            entries[key] = value
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))


class TestMalformedManifests:
    """Each way a manifest can be wrong raises FormatError naming the file and the key."""

    @pytest.fixture
    def root(self, tmp_path):
        write_artifacts(tmp_path)
        return tmp_path

    def check(self, load, path: Path, key: str):
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(path) in str(err.value) and repr(key) in str(err.value)

    @pytest.mark.parametrize("name,load", [("teacher.ckpt", load_checkpoint),
                                           ("student.ckpt", load_student),
                                           ("cache.ckpt", load_logit_cache)])
    def test_missing_digest(self, root, name, load):
        edit_manifest(root / name, digest=None)
        self.check(load, root / name, "digest")

    def test_missing_architecture(self, root):
        edit_manifest(root / "teacher.ckpt", architecture=None)
        self.check(load_checkpoint, root / "teacher.ckpt", "architecture")

    @pytest.mark.parametrize("name,load", [("teacher.ckpt", load_checkpoint),
                                           ("student.ckpt", load_student)])
    def test_architecture_numpy_cannot_size(self, root, name, load):
        edit_manifest(root / name, architecture="6-99999999999999999999-3")
        self.check(load, root / name, "architecture")

    def test_missing_rows(self, root):
        edit_manifest(root / "cache.ckpt", rows=None)
        self.check(load_logit_cache, root / "cache.ckpt", "rows")

    def test_seed_not_an_integer(self, root):
        edit_manifest(root / "student.ckpt", seed="abc")
        self.check(load_student, root / "student.ckpt", "seed")

    def test_rows_not_an_integer(self, root):
        edit_manifest(root / "cache.ckpt", rows="abc")
        self.check(load_logit_cache, root / "cache.ckpt", "rows")

    def test_tau_not_a_number(self, root):
        edit_manifest(root / "student.ckpt", tau="abc")
        self.check(load_student, root / "student.ckpt", "tau")

    def test_unknown_activation(self, root):
        edit_manifest(root / "teacher.ckpt", activation="tanh")
        self.check(load_checkpoint, root / "teacher.ckpt", "activation")

    def test_manifest_not_utf8(self, root):
        path = root / "student.ckpt"
        path.write_bytes(b"kind=variational_mlp\nseed=\xff\xfe\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_student(path)


@st.composite
def mutation(draw, raw: bytes) -> bytes:
    """``raw`` truncated, or with a few bytes replaced or inserted."""
    kind = draw(st.sampled_from(["truncate", "replace", "insert"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
    data = bytearray(raw)
    edits = st.tuples(st.integers(0, len(raw)), st.integers(0, 255))
    for pos, byte in draw(st.lists(edits, min_size=1, max_size=6)):
        if kind == "replace" and pos < len(data):
            data[pos] = byte
        else:
            data.insert(pos, byte)
    return bytes(data)


def loads_or_raises_own_error(originals: dict, data, targets, load) -> None:
    """Write the artifacts with one of ``targets`` mutated, then ``load`` the directory."""
    target = data.draw(st.sampled_from(targets))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, raw in originals.items():
            (root / name).write_bytes(data.draw(mutation(raw)) if name == target else raw)
        try:
            load(root)
        except Exception as exc:  # noqa: BLE001 - the property is about the type
            assert type(exc).__module__ == "sparsedistill.errors", repr(exc)


class TestMutatedBytes:
    @PROPERTY
    @given(data=st.data())
    def test_load_idx(self, originals, data):
        loads_or_raises_own_error(originals, data, ["img.idx", "lab.idx"],
                                  lambda root: load_idx(root / "img.idx", root / "lab.idx"))

    @PROPERTY
    @given(data=st.data())
    def test_read_manifest(self, originals, data):
        loads_or_raises_own_error(originals, data, ["student.ckpt"],
                                  lambda root: read_manifest(root / "student.ckpt"))

    @PROPERTY
    @given(data=st.data())
    def test_load_checkpoint(self, originals, data):
        loads_or_raises_own_error(originals, data, ["teacher.ckpt", "teacher.ckpt.bin"],
                                  lambda root: load_checkpoint(root / "teacher.ckpt"))

    @PROPERTY
    @given(data=st.data())
    def test_load_student(self, originals, data):
        loads_or_raises_own_error(originals, data, ["student.ckpt", "student.ckpt.bin"],
                                  lambda root: load_student(root / "student.ckpt"))

    @PROPERTY
    @given(data=st.data())
    def test_load_logit_cache(self, originals, data):
        loads_or_raises_own_error(originals, data, ["cache.ckpt", "cache.ckpt.bin"],
                                  lambda root: load_logit_cache(root / "cache.ckpt"))
