"""What the teacher hint buys when labelled data is scarce.

The hint term matches temperature-softened class distributions between
student and teacher, so every training row carries the teacher's full
belief (including which wrong classes are almost right) instead of a
single hard label.  That extra signal matters most when rows are few.

This script trains pairs of identical students on stratified subsets of
a synthetic problem, one with the hint and one without, across several
subset sizes and seeds, then prints mean test error per cell.

    python3 demos/04_lowdata_hints.py
"""

import numpy as np

from sparsedistill import (Dataset, LossConfig, StudentTrainConfig, TeacherConfig,
                           lowdata_sweep, precompute_logits, resolve_variant,
                           summarize_sweep, train_teacher)

# ---------------------------------------------------------------------------
# 1. A harder synthetic problem: ten loose clusters in 32 dimensions.
# ---------------------------------------------------------------------------

DIM, CLASSES = 32, 10
CENTERS = np.random.default_rng(7).normal(size=(CLASSES, DIM))

def make_clusters(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASSES, size=n)
    images = CENTERS[labels] + 1.3 * rng.normal(size=(n, DIM))
    return Dataset(images, labels)

train_ds = make_clusters(2000, seed=0)
test_ds = make_clusters(600, seed=1)

# ---------------------------------------------------------------------------
# 2. The teacher sees the full training set once; its cached logits are
#    then reused by every run of the sweep.
# ---------------------------------------------------------------------------

teacher, recs = train_teacher(
    train_ds, TeacherConfig(arch=[DIM, 64, CLASSES], epochs=20, batch_size=64,
                            lr=2e-3, seed=0), test_ds=test_ds)
cache = precompute_logits(teacher, train_ds)
print(f"teacher test error on the full problem: {100 * recs[-1]['test_error']:.2f}%")

# ---------------------------------------------------------------------------
# 3. The sweep.  For each (size, seed) pair a stratified subset is drawn
#    once and two students train on it from the same initialisation: one
#    with the configured loss, one teacher-free (no teacher logits or
#    weights).  Both see the same rows; only the teacher's voice differs.
# ---------------------------------------------------------------------------

loss_cfg = resolve_variant("kd", LossConfig(temperature=2.0, lambda_t=2.0))
run_cfg = StudentTrainConfig(arch=[DIM, 16, CLASSES], epochs=25, batch_size=32,
                             lr=2e-3)
rows = lowdata_sweep(train_ds, test_ds, cache.logits, loss_cfg, run_cfg,
                     sizes=[100, 300, 1000], seeds=[0, 1, 2])

# ---------------------------------------------------------------------------
# 4. Aggregate and print.  Expect the hint column to win by the widest
#    margin at the smallest size and the gap to narrow as rows grow.
# ---------------------------------------------------------------------------

cells = {(c["size"], c["hint"]): c for c in summarize_sweep(rows)}
print()
print(f"{'rows':>6} {'labels only':>14} {'with hint':>14}")
for size in (100, 300, 1000):
    off, on = cells[(size, False)], cells[(size, True)]
    print(f"{size:>6} "
          f"{off['mean_test_error_pct']:>9.2f}%+-{off['std_test_error_pct']:<4.2f}"
          f"{on['mean_test_error_pct']:>9.2f}%+-{on['std_test_error_pct']:<4.2f}")
