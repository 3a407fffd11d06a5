"""End-to-end walkthrough on synthetic data.

Every stage of the pipeline in one runnable script: train a dense
teacher, cache its logits over the training set, train a compact
variational student against those logits, prune by the log dropout
ratio, and print the final report.  The data is a handful of Gaussian
clusters, so the whole thing finishes in seconds; swap in real image
data and larger nets and nothing else changes.

Run from the repository root:

    python3 demos/01_synthetic_pipeline.py
"""

import numpy as np

from sparsedistill import (Dataset, LossConfig, StudentTrainConfig, TeacherConfig,
                           count_parameters, emit_report, precompute_logits, report_student,
                           resolve_variant, train_student, train_teacher)

# ---------------------------------------------------------------------------
# 1. Synthetic data: four Gaussian clusters in 64 dimensions.
# ---------------------------------------------------------------------------

DIM, CLASSES = 64, 4
CENTERS = np.random.default_rng(42).normal(size=(CLASSES, DIM))

def make_clusters(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=n)
    images = CENTERS[labels] + 1.6 * rng.normal(size=(n, DIM))
    return Dataset(images, labels)

train_ds = make_clusters(1500, seed=0)
test_ds = make_clusters(400, seed=1)
print(f"train: {len(train_ds)} rows, {train_ds.n_features} features, "
      f"{train_ds.n_classes} classes")

# ---------------------------------------------------------------------------
# 2. Dense teacher.  A wide MLP trained with plain cross-entropy.
# ---------------------------------------------------------------------------

teacher_cfg = TeacherConfig(arch=[64, 48, 4], epochs=12, batch_size=64,
                            lr=1e-3, seed=0)
teacher, teacher_records = train_teacher(train_ds, teacher_cfg, test_ds=test_ds)
last = teacher_records[-1]
print(f"teacher [{'-'.join(map(str, teacher.arch))}]: "
      f"{count_parameters(teacher)} parameters, "
      f"test error {100 * last['test_error']:.2f}%")

# ---------------------------------------------------------------------------
# 3. Logit cache.  The student never calls the teacher during training;
#    it reads these rows instead, one per training example.
# ---------------------------------------------------------------------------

cache = precompute_logits(teacher, train_ds)
print(f"cached {len(cache)} logit rows (teacher digest {cache.teacher_digest[:12]}...)")

# ---------------------------------------------------------------------------
# 4. Variational student.  "kd-svd" = softened hint from the teacher plus
#    the per-weight sparsifying posterior penalty.  The penalty weight
#    ramps in linearly over the first epochs so the data term settles
#    before sparsification pressure arrives.
# ---------------------------------------------------------------------------

loss_cfg = resolve_variant("kd-svd", LossConfig(temperature=2.0, lambda_t=2.0,
                                                lambda_v_max=0.02, warmup_epochs=6))
student_cfg = StudentTrainConfig(arch=[64, 16, 4], epochs=30, batch_size=64,
                                 lr=2e-3, seed=0)
student, records = train_student(train_ds, cache.logits, loss_cfg, student_cfg,
                                 test_ds=test_ds)
for r in records[::6] + [records[-1]]:
    print(f"  epoch {r['epoch']:>2}  ce {r['ce']:.3f}  hint {r['hint']:.3f}  "
          f"kl {r['kl']:.1f}  r_s {r['r_s']:.2f}  test {r['test_error_pct']:.2f}%")

# ---------------------------------------------------------------------------
# 5. Prune and report.  Weights whose log dropout ratio exceeds the
#    threshold tau are removed; what survives is measured as sparsity
#    (kept fraction of the student), compression (teacher params over
#    surviving student params) and storage footprint (the dense teacher's
#    bytes over the student's), where each layer is stored dense or
#    compressed-sparse-row, whichever is smaller.
# ---------------------------------------------------------------------------

tau = 3.0
row = report_student(student, tau, test_ds, teacher=teacher,
                     config={"variant": "kd-svd", "tau": tau})
print()
print(emit_report([row], fmt="markdown"))
