"""Deterministic dense MLP teacher: training, checkpoints, and logit cache.

The teacher is trained once with plain cross-entropy and then frozen; its
raw (pre-softmax) logits over a dataset are precomputed and stored so
student training can look hints up by row index instead of re-running the
teacher every step.  Temperature scaling happens at loss time, so a single
cache serves any temperature.

Checkpoint layout: a text manifest of ``key=value`` lines next to a
binary payload (``<base>.bin``) holding little-endian float64 values:
for each layer the weight matrix in row-major order, then its bias
vector.  The manifest records a SHA-256 digest of the payload; a logit
cache additionally records the digest of the teacher that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import ConsistencyError, FormatError, LengthError, ShapeError, StalenessError, TrainingError
from .data import Dataset, batch_iter
from .losses import cross_entropy_node
from .metrics import top1_error
from .optim import Adam, check_schedule
from .tensor import RngStream, relu, sigmoid

__all__ = [
    "DenseMLP",
    "TeacherConfig",
    "LogitCache",
    "init_mlp",
    "forward_logits",
    "count_parameters",
    "train_teacher",
    "precompute_logits",
    "payload_digest",
    "save_checkpoint",
    "load_checkpoint",
    "save_logit_cache",
    "load_logit_cache",
    "parse_arch",
]

_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid}


def parse_arch(spec) -> list[int]:
    """Parse a dash-separated width string like ``"784-500-50-10"``."""
    if isinstance(spec, str):
        parts = spec.split("-")
        if any(not p.strip().isdigit() for p in parts):
            raise FormatError(f"malformed architecture string {spec!r}")
        widths = [int(p) for p in parts]
    else:
        widths = [int(w) for w in spec]
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise FormatError(f"architecture needs >= 2 positive widths, got {widths}")
    return widths


@dataclass
class DenseMLP:
    """Stack of (weights, bias) layers with a fixed hidden nonlinearity."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    seed: int | None = None

    def __post_init__(self):
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ConsistencyError(
                    f"layer {i} output {self.weights[i].shape[1]} != "
                    f"layer {i + 1} input {self.weights[i + 1].shape[0]}"
                )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ConsistencyError(f"layer {i} bias length {b.shape[0]} != width {w.shape[1]}")

    @property
    def arch(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class TeacherConfig:
    arch: list[int] = field(default_factory=lambda: [784, 1200, 1200, 10])
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    activation: str = "relu"

    def __post_init__(self):
        check_schedule(self.epochs, self.batch_size, self.lr)


@dataclass
class LogitCache:
    """Precomputed teacher logits, row-aligned with a dataset."""

    logits: np.ndarray
    teacher_digest: str

    def __len__(self):
        return len(self.logits)


def init_mlp(arch, seed: int, activation: str = "relu") -> DenseMLP:
    """He-style scaled-uniform fan-in initialisation; biases start at zero."""
    arch = parse_arch(arch)
    rng = RngStream(seed)
    weights, biases = [], []
    for i, (k, h) in enumerate(zip(arch[:-1], arch[1:])):
        limit = np.sqrt(6.0 / k)
        weights.append((rng.child(2, i).uniform(k, h) * 2.0 - 1.0) * limit)
        biases.append(np.zeros(h))
    return DenseMLP(weights, biases, activation=activation, seed=seed)


def forward_logits(net: DenseMLP, batch: np.ndarray) -> np.ndarray:
    """Pre-softmax outputs for a batch of rows."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.weights[0].shape[0]:
        raise ShapeError(
            f"batch shape {x.shape} incompatible with input width {net.weights[0].shape[0]}"
        )
    act = _ACTIVATIONS[net.activation]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        # the bias is added in place so that one fewer batch-by-width array is live
        x = x @ w
        x += b
        x = act(x)
    return x @ net.weights[-1] + net.biases[-1]


def _forward_node(weight_ts, bias_ts, x: np.ndarray, activation: str) -> Tensor:
    out = Tensor(x)
    for i, (w, b) in enumerate(zip(weight_ts, bias_ts)):
        out = out @ w + b
        if i < len(weight_ts) - 1:
            out = out.relu() if activation == "relu" else out.sigmoid()
    return out


def count_parameters(net_or_arch) -> int:
    """Trainable parameter count: weights plus biases, layer by layer."""
    if isinstance(net_or_arch, DenseMLP):
        arch = net_or_arch.arch
    else:
        arch = parse_arch(net_or_arch)
    return sum(k * h + h for k, h in zip(arch[:-1], arch[1:]))


def train_teacher(ds: Dataset, config: TeacherConfig, test_ds: Dataset | None = None):
    """Minimise cross-entropy with Adam; returns the net and per-epoch records.

    The per-epoch training error is measured on a deterministic subsample
    of at most 10000 examples to keep the curve cheap on large datasets.
    """
    net = init_mlp(config.arch, config.seed, config.activation)
    weight_ts = [Tensor(w, requires_grad=True) for w in net.weights]
    bias_ts = [Tensor(b, requires_grad=True) for b in net.biases]
    opt = Adam(weight_ts + bias_ts, lr=config.lr)
    probe = min(len(ds), 10000)

    records = []
    for epoch in range(config.epochs):
        losses = []
        for xb, yb, _ in batch_iter(ds, config.batch_size, shuffle_seed=(config.seed, epoch)):
            logits = _forward_node(weight_ts, bias_ts, xb, config.activation)
            loss = cross_entropy_node(logits, yb)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"teacher loss diverged at epoch {epoch}", epoch=epoch, batch=len(losses)
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(value)
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_error": float(top1_error(forward_logits(net, ds.images[:probe]), ds.labels[:probe])),
        }
        if test_ds is not None:
            record["test_error"] = float(top1_error(forward_logits(net, test_ds.images), test_ds.labels))
        records.append(record)
    return net, records


def precompute_logits(net: DenseMLP, ds: Dataset, batch_size: int = 4096) -> LogitCache:
    """Teacher logits for every dataset row, tagged with the teacher digest."""
    chunks = [
        forward_logits(net, ds.images[i:i + batch_size])
        for i in range(0, len(ds), batch_size)
    ]
    return LogitCache(np.vstack(chunks), teacher_digest=payload_digest(net))


# -- checkpoint serialization ------------------------------------------------


def _net_payload(net: DenseMLP) -> bytes:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def payload_digest(net: DenseMLP) -> str:
    return hashlib.sha256(_net_payload(net)).hexdigest()


def write_manifest(path, entries: dict):
    lines = [f"{k}={v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    entries = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def save_checkpoint(net: DenseMLP, base_path) -> str:
    """Write manifest at ``base_path`` and payload at ``base_path + '.bin'``."""
    base_path = Path(base_path)
    base_path.parent.mkdir(parents=True, exist_ok=True)
    payload = _net_payload(net)
    digest = hashlib.sha256(payload).hexdigest()
    (base_path.parent / (base_path.name + ".bin")).write_bytes(payload)
    write_manifest(base_path, {
        "kind": "dense_mlp",
        "architecture": "-".join(str(w) for w in net.arch),
        "activation": net.activation,
        "seed": "" if net.seed is None else net.seed,
        "digest": digest,
    })
    return digest


def _read_payload(base_path, expected_doubles: int, digest: str) -> np.ndarray:
    bin_path = Path(str(base_path) + ".bin")
    raw = bin_path.read_bytes()
    if len(raw) != 8 * expected_doubles:
        raise LengthError(
            f"{bin_path}: manifest shapes imply {8 * expected_doubles} bytes, found {len(raw)}"
        )
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ConsistencyError(f"{bin_path}: payload digest does not match manifest")
    return np.frombuffer(raw, dtype="<f8")


def load_checkpoint(base_path) -> DenseMLP:
    manifest = read_manifest(base_path)
    if manifest.get("kind") != "dense_mlp":
        raise FormatError(f"{base_path}: not a dense_mlp checkpoint ({manifest.get('kind')!r})")
    arch = parse_arch(manifest["architecture"])
    flat = _read_payload(base_path, count_parameters(arch), manifest["digest"])
    weights, biases, pos = [], [], 0
    for k, h in zip(arch[:-1], arch[1:]):
        weights.append(flat[pos:pos + k * h].reshape(k, h).copy())
        pos += k * h
        biases.append(flat[pos:pos + h].copy())
        pos += h
    seed = manifest.get("seed", "")
    return DenseMLP(weights, biases, activation=manifest.get("activation", "relu"),
                    seed=int(seed) if seed else None)


def save_logit_cache(cache: LogitCache, base_path):
    base_path = Path(base_path)
    base_path.parent.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(cache.logits, dtype="<f8").tobytes()
    (base_path.parent / (base_path.name + ".bin")).write_bytes(payload)
    write_manifest(base_path, {
        "kind": "logit_cache",
        "rows": cache.logits.shape[0],
        "cols": cache.logits.shape[1],
        "teacher_digest": cache.teacher_digest,
        "digest": hashlib.sha256(payload).hexdigest(),
    })


def load_logit_cache(base_path, expected_teacher_digest: str | None = None) -> LogitCache:
    """Load a cache, failing with :class:`StalenessError` if it was built
    from a different teacher than ``expected_teacher_digest``."""
    manifest = read_manifest(base_path)
    if manifest.get("kind") != "logit_cache":
        raise FormatError(f"{base_path}: not a logit_cache checkpoint ({manifest.get('kind')!r})")
    rows, cols = int(manifest["rows"]), int(manifest["cols"])
    flat = _read_payload(base_path, rows * cols, manifest["digest"])
    cache = LogitCache(flat.reshape(rows, cols).copy(), manifest["teacher_digest"])
    if expected_teacher_digest is not None and cache.teacher_digest != expected_teacher_digest:
        raise StalenessError(
            f"{base_path}: cache was built from teacher {cache.teacher_digest[:12]}..., "
            f"expected {expected_teacher_digest[:12]}..."
        )
    return cache
