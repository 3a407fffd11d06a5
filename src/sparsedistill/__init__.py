"""Distill a dense classifier into a compact, prunable Bayesian student.

The pipeline: train a dense teacher network, cache its raw logits over
the training set, train a smaller student whose weights carry a learned
Gaussian posterior, regularise that posterior toward high dropout (and,
optionally, whole rows toward zero via a mixed norm shared with the
teacher's weight stack), then prune by the per-weight log dropout ratio
and measure what remains: error, sparsity, compression, and storage
footprint in compressed sparse row form.
"""

from .autograd import Tensor
from .checkpoint import parse_arch
from .data import Dataset, batch_iter, load_idx, subset_indices, write_idx
from .errors import (ConsistencyError, DomainError, FormatError, LengthError,
                     ShapeError, StalenessError, TrainingError, UsageError)
from .losses import (BsrContext, LossConfig, make_bsr_context, resolve_variant, total_loss,
                     warmup_scale)
from .metrics import (SparsityReport, csr_bytes, dense_bytes, emit_report, footprint,
                      inference_time, per_layer_sparsity_pct, sparsity_ratio, top1_error)
from .optim import (Adam, StudentTrainConfig, evaluate_student, lowdata_sweep,
                    report_student, summarize_sweep, train_student)
from .student import (StudentNet, VariationalDenseLayer, alpha_log, init_student,
                      load_student, prune_mask, prune_masks, save_student, student_logits)
from .teacher import (DenseMLP, LogitCache, TeacherConfig, count_parameters,
                      forward_logits, init_mlp, load_checkpoint, load_logit_cache,
                      payload_digest, precompute_logits, save_checkpoint,
                      save_logit_cache, train_teacher)
from .tensor import RngStream

__version__ = "0.1.0"

__all__ = [
    "Tensor", "RngStream",
    "Dataset", "load_idx", "write_idx", "subset_indices", "batch_iter",
    "ShapeError", "DomainError", "FormatError", "LengthError", "ConsistencyError",
    "StalenessError", "TrainingError", "UsageError",
    "DenseMLP", "TeacherConfig", "LogitCache", "init_mlp", "forward_logits",
    "count_parameters", "train_teacher", "precompute_logits", "payload_digest",
    "save_checkpoint", "load_checkpoint", "save_logit_cache", "load_logit_cache",
    "parse_arch",
    "StudentNet", "VariationalDenseLayer", "init_student", "alpha_log",
    "prune_mask", "prune_masks", "student_logits",
    "save_student", "load_student",
    "LossConfig", "resolve_variant", "warmup_scale",
    "BsrContext", "make_bsr_context", "total_loss",
    "Adam", "StudentTrainConfig", "train_student", "evaluate_student",
    "report_student", "lowdata_sweep", "summarize_sweep",
    "SparsityReport", "emit_report", "top1_error", "sparsity_ratio",
    "per_layer_sparsity_pct", "csr_bytes", "dense_bytes", "footprint", "inference_time",
]
