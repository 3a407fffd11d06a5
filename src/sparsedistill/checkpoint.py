"""Artifact files: a ``key=value`` text manifest beside a binary payload.

The manifest at ``<base>`` names the artifact's ``kind`` first and the
SHA-256 ``digest`` of the payload at ``<base>.bin`` last.  The payload
holds little-endian float64 arrays back to back, each in row-major order.
Three kinds exist:

- ``dense_mlp`` (the teacher): for each layer the weight matrix, then its
  bias vector;
- ``variational_mlp`` (the student): the same, then every layer's
  ``log_sigma2`` matrix;
- ``logit_cache``: one ``rows x cols`` matrix of teacher logits, with the
  digest of the teacher that produced it.

A malformed manifest raises :class:`FormatError` naming the file and, for
a bad field, the key; a payload of the wrong size raises
:class:`LengthError`, and one that does not match its digest
:class:`ConsistencyError`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, FormatError, LengthError, as_choice, as_int, as_real
from .tensor import ACTIVATIONS

__all__ = ["parse_arch", "read_manifest", "digest", "write_artifact", "read_artifact"]

# the manifest fields of each kind, between ``kind`` and ``digest``
_FIELDS = {
    "dense_mlp": ("architecture", "activation", "seed"),
    "variational_mlp": ("architecture", "activation", "seed", "tau"),
    "logit_cache": ("rows", "cols", "teacher_digest"),
}


def parse_arch(spec) -> list[int]:
    """Parse a dash-separated width string like ``"784-500-50-10"``, or a list of widths."""
    if isinstance(spec, str):
        if any(not p.strip().isdecimal() for p in spec.split("-")):
            raise FormatError(f"malformed architecture string {spec!r}")
        spec = [int(p) for p in spec.split("-")]
    try:
        widths = [as_int(w, "architecture width", 1, FormatError) for w in spec]
    except TypeError:  # not iterable
        raise FormatError(f"architecture {spec!r} is not a list of widths") from None
    if len(widths) < 2:
        raise FormatError(f"architecture needs >= 2 positive widths, got {widths}")
    for k, h in zip(widths, widths[1:]):
        if k * h * 8 > np.iinfo(np.intp).max:
            raise FormatError(f"a {k}x{h} layer is too wide: numpy cannot size its float64 "
                              f"weight matrix of {k * h * 8} bytes")
    return widths


def read_manifest(path) -> dict:
    """``key=value`` lines as a dict of strings; blank and ``#`` lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise FormatError(f"{path}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def digest(arrays) -> str:
    """SHA-256 of the payload that holds ``arrays``, hashed array by array without a copy."""
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype="<f8"))
    return sha.hexdigest()


def write_artifact(base_path, kind: str, fields: dict, arrays) -> str:
    """Write the payload of ``arrays`` and its manifest; returns the payload digest.

    ``fields`` maps each of the kind's manifest keys to its value; None is
    written as an empty value.
    """
    base_path = Path(base_path)
    base_path.parent.mkdir(parents=True, exist_ok=True)
    sha = hashlib.sha256()
    with open(base_path.parent / (base_path.name + ".bin"), "wb") as out:
        for a in arrays:  # hashed and written one array at a time, without a payload copy
            a = np.ascontiguousarray(a, dtype="<f8")
            sha.update(a)
            out.write(a)
    entries = {"kind": kind, **{k: "" if fields[k] is None else fields[k] for k in _FIELDS[kind]},
               "digest": sha.hexdigest()}
    base_path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return entries["digest"]


def _count(text: str) -> int:
    return as_int(int(text), "count", 0, FormatError)


_PARSERS = {"architecture": parse_arch, "seed": _count, "rows": _count, "cols": _count,
            "activation": lambda text: as_choice(text, "activation", ACTIVATIONS, FormatError),
            "tau": lambda text: as_real(float(text), "tau", inf=True, error=FormatError),
            "teacher_digest": str, "digest": str}
_DEFAULTS = {"activation": "relu", "seed": None, "tau": None}  # when absent or empty


def _field(manifest: dict, path, key: str):
    text = manifest.get(key, "" if key in _DEFAULTS else None)
    if text is None:
        raise FormatError(f"{path}: missing key {key!r}")
    if text == "" and key in _DEFAULTS:
        return _DEFAULTS[key]
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise FormatError(f"{path}: bad value {text!r} for key {key!r}: {exc}")


def read_artifact(base_path, kind: str) -> tuple[dict, list[np.ndarray]]:
    """``(fields, arrays)`` of an artifact of ``kind``, each field parsed.

    Network kinds give ``architecture`` (a width list), ``activation``
    (``relu`` when absent), ``seed`` and, for the student, ``tau`` (None
    when empty), and their arrays in payload order.  A cache gives
    ``rows``, ``cols`` and ``teacher_digest`` and its one logit matrix.
    Every kind also gives ``digest``, which the payload was checked against,
    so it equals :func:`digest` of the arrays.  The arrays are read-only
    views of the payload that was hashed; copy one before editing it.
    """
    manifest = read_manifest(base_path)
    if manifest.get("kind") != kind:
        raise FormatError(f"{base_path}: not a {kind} checkpoint ({manifest.get('kind')!r})")
    fields = {key: _field(manifest, base_path, key) for key in (*_FIELDS[kind], "digest")}
    if kind == "logit_cache":
        shapes = [(fields["rows"], fields["cols"])]
    else:
        arch = fields["architecture"]
        layers = list(zip(arch[:-1], arch[1:]))
        shapes = [s for k, h in layers for s in ((k, h), (h,))]
        shapes += layers if kind == "variational_mlp" else []

    bin_path = Path(str(base_path) + ".bin")
    raw = bin_path.read_bytes()
    expected = 8 * sum(math.prod(s) for s in shapes)
    if len(raw) != expected:
        raise LengthError(f"{bin_path}: manifest shapes imply {expected} bytes, found {len(raw)}")
    if hashlib.sha256(raw).hexdigest() != fields["digest"]:
        raise ConsistencyError(f"{bin_path}: payload digest does not match manifest")
    flat = np.frombuffer(raw, dtype="<f8")  # read-only, as ``raw`` is immutable
    arrays, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return fields, arrays
