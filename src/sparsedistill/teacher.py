"""Deterministic dense MLP teacher: training, checkpoints, and logit cache.

The teacher is trained once with plain cross-entropy and then frozen: the
net :func:`train_teacher` returns, and every net :func:`load_checkpoint`
gives, has read-only arrays, so its float32 weights and its payload digest
are computed once and kept.  Its raw (pre-softmax) logits over a dataset
are precomputed and stored so student training can look hints up by row
index instead of re-running the teacher every step.  Temperature scaling
happens at loss time, so a single cache serves any temperature.

Checkpoints and logit caches use the artifact format of
:mod:`.checkpoint`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint
from .autograd import Tensor
from .checkpoint import parse_arch
from .errors import StalenessError
from .data import Dataset
from .losses import cross_entropy_node
from .metrics import count_parameters, top1_error
from .optim import check_schedule, fit
from .tensor import RngStream, check_layers, dense_forward, derived

__all__ = [
    "DenseMLP",
    "TeacherConfig",
    "LogitCache",
    "init_mlp",
    "forward_logits",
    "train_teacher",
    "precompute_logits",
    "payload_digest",
    "save_checkpoint",
    "load_checkpoint",
    "save_logit_cache",
    "load_logit_cache",
]


@dataclass
class DenseMLP:
    """Stack of (weights, bias) layers with a fixed hidden nonlinearity.

    The net is *frozen* when every weight and bias array is read-only
    (``flags.writeable`` False); values derived from a frozen net's arrays
    are kept on it (:func:`.tensor.derived`).  To change a frozen net, replace
    an array: one made writable again and edited would leave those values stale.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    seed: int | None = None
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_layers(self.weights, self.biases)

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
        self.arch = parse_arch(self.arch)
        check_schedule(self)


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
    """Pre-softmax outputs as float64, from float32 products in the row blocks of
    :func:`.tensor.dense_forward`.  A frozen teacher's float32 weights are cast once and kept
    as long as the teacher (9.6 MB for 784-1200-1200-10); a live net's are cast on every call,
    so that they follow in-place updates."""
    weights = derived(net, "float32", net.weights, lambda ws: [w.astype(np.float32) for w in ws])
    return dense_forward(batch, weights, net.biases, net.activation)


def train_teacher(ds: Dataset, config: TeacherConfig, test_ds: Dataset | None = None, *,
                  log_dir=None):
    """Minimise cross-entropy with :func:`.optim.fit`; returns the net, frozen, and per-epoch
    records.

    The per-epoch training error is measured on a deterministic subsample
    of at most 10000 examples to keep the curve cheap on large datasets.
    With ``log_dir``, writes ``session.jsonl`` and ``timing.jsonl`` there.
    """
    net = init_mlp(config.arch, config.seed, config.activation)
    weight_ts = [Tensor(w, requires_grad=True) for w in net.weights]
    bias_ts = [Tensor(b, requires_grad=True) for b in net.biases]
    probe = min(len(ds), 10000)

    def step(xb, yb, idx, epoch, i):
        out = Tensor(xb)  # forward_logits' layers, as a float64 graph
        for j, (w, b) in enumerate(zip(weight_ts, bias_ts)):
            out = out @ w + b
            if j < len(weight_ts) - 1:
                out = out.relu() if config.activation == "relu" else out.sigmoid()
        loss = cross_entropy_node(out, yb)
        return loss, loss.item()

    def record(epoch, losses):
        probe_logits = forward_logits(net, ds.images[:probe])
        out = {"epoch": epoch, "train_loss": float(np.mean(losses)),
               "train_error": float(top1_error(probe_logits, ds.labels[:probe]))}
        if test_ds is not None:
            out["test_error"] = float(top1_error(forward_logits(net, test_ds.images), test_ds.labels))
        return out

    records = fit(weight_ts + bias_ts, ds, config, step, record, log_dir=log_dir, meta=lambda: {
        "kind": "teacher_session", "arch": net.arch, "n_train": len(ds), "train": asdict(config),
        "parameters": count_parameters(net), "digest": payload_digest(net)})
    for a in _arrays(net):
        a.flags.writeable = False
    return net, records


def precompute_logits(net: DenseMLP, ds: Dataset) -> LogitCache:
    """Teacher logits for every dataset row, tagged with the teacher digest."""
    return LogitCache(forward_logits(net, ds.images), teacher_digest=payload_digest(net))


# -- checkpoint serialization ------------------------------------------------


def _arrays(net: DenseMLP) -> list[np.ndarray]:
    """Payload order: each layer's weights, then its bias."""
    return [a for wb in zip(net.weights, net.biases) for a in wb]


def payload_digest(net: DenseMLP) -> str:
    """:func:`.checkpoint.digest` of the payload, computed once for a frozen net."""
    return derived(net, "digest", _arrays(net), checkpoint.digest)


def save_checkpoint(net: DenseMLP, base_path) -> str:
    """Write manifest at ``base_path`` and payload at ``base_path + '.bin'``; returns the
    payload digest, which a frozen net keeps as its :func:`payload_digest`."""
    digest = checkpoint.write_artifact(base_path, "dense_mlp", {
        "architecture": checkpoint.arch_text(net.arch),
        "activation": net.activation,
        "seed": net.seed,
    }, _arrays(net))
    derived(net, "digest", _arrays(net), lambda _: digest)
    return digest


def load_checkpoint(base_path) -> DenseMLP:
    """The teacher at ``base_path``, frozen: its arrays are read-only views of the payload,
    and its digest is the one the payload was checked against."""
    fields, arrays = checkpoint.read_artifact(base_path, "dense_mlp")
    net = DenseMLP(arrays[0::2], arrays[1::2], activation=fields["activation"],
                   seed=fields["seed"])
    derived(net, "digest", arrays, lambda _: fields["digest"])
    return net


def save_logit_cache(cache: LogitCache, base_path):
    checkpoint.write_artifact(base_path, "logit_cache", {
        "rows": cache.logits.shape[0],
        "cols": cache.logits.shape[1],
        "teacher_digest": cache.teacher_digest,
    }, [cache.logits])


def load_logit_cache(base_path, expected_teacher_digest: str | None = None) -> LogitCache:
    """Load a cache, failing with :class:`StalenessError` if it was built
    from a different teacher than ``expected_teacher_digest``."""
    fields, (logits,) = checkpoint.read_artifact(base_path, "logit_cache")
    cache = LogitCache(logits, fields["teacher_digest"])
    if expected_teacher_digest is not None and cache.teacher_digest != expected_teacher_digest:
        raise StalenessError(
            f"{base_path}: cache was built from teacher {cache.teacher_digest[:12]}..., "
            f"expected {expected_teacher_digest[:12]}..."
        )
    return cache
