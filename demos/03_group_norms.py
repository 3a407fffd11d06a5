"""Why the row-grouped mixed norm produces structured sparsity.

The group regulariser stacks every weight matrix from both networks,
zero-padded to a common height, and charges

    sum over rows of ( q-norm, or max, over everything in that row ).

Training never builds the padded stack: the teacher's row aggregates are
computed once into a context, and only the student's rows enter the
graph node that gives the value and its gradient.

Grouping by row changes what "cheap" means: zeros only pay off when a
whole row goes quiet, and a student row that shares its index with a
strong teacher row is nearly free to keep.  This script shows each of
those effects with small matrices you can check by hand.

    python3 demos/03_group_norms.py
"""

import numpy as np

from sparsedistill import Tensor, make_bsr_context
from sparsedistill.losses import bsr_node


def group_norm(teacher, student, variant, q=2.0):
    """The group term over the stack of ``teacher`` and ``student`` matrices."""
    ctx = make_bsr_context(teacher, [w.shape for w in student], variant, q)
    return bsr_node(ctx, [Tensor(w) for w in student]).item()


# ---------------------------------------------------------------------------
# 1. The stack.  Matrices of different sizes share row indices; a matrix
#    shorter than the tallest one adds nothing to the rows it lacks.
# ---------------------------------------------------------------------------

teacher = [np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([[2.0], [2.0]])]
student = [np.array([[0.5, 0.5, 0.5]])]
print(f"{len(teacher)} teacher matrices and {len(student)} student matrix, "
      f"{max(w.shape[0] for w in teacher + student)} rows")
for variant, q in [("l1lq", 1.0), ("l1lq", 2.0), ("l1linf", 2.0)]:
    name = f"{variant}(q={q:g})" if variant == "l1lq" else variant
    print(f"  {name:>10}: {group_norm(teacher, student, variant, q):.6f}")
# By hand for l1lq q=2: row 0 holds (3,4), (2), (0.5,0.5,0.5) ->
# sqrt(9+16+4+0.75) = sqrt(29.75); row 1 holds (1,0),(2) -> sqrt(5).

# ---------------------------------------------------------------------------
# 2. Same zero count, different arrangement.  Six zeros concentrated in
#    two full rows beat six zeros scattered across all rows, because a
#    quiet row stops contributing entirely.
# ---------------------------------------------------------------------------

concentrated = np.ones((4, 3))
concentrated[2:] = 0.0                      # two dead rows
scattered = np.ones((4, 3))
scattered[[0, 0, 1, 2, 3, 3], [0, 2, 1, 0, 1, 2]] = 0.0   # six holes, no dead row
print()
print("six zeros, two arrangements (single matrix, no teacher):")
for name, w in [("row-concentrated", concentrated), ("scattered", scattered)]:
    print(f"  {name:>16}: l1linf {group_norm([], [w], 'l1linf'):.3f}   "
          f"l1l2 {group_norm([], [w], 'l1lq', 2.0):.3f}")

# ---------------------------------------------------------------------------
# 3. Norm ordering.  For any stack, max <= l2 <= l1 within each row, so
#    the three variants order the same way; the looser the inner norm,
#    the more a single surviving entry can carry the row.
# ---------------------------------------------------------------------------

rng = np.random.default_rng(0)
w = rng.normal(size=(5, 4))
linf, l2, l1 = (group_norm([], [w], "l1linf"), group_norm([], [w], "l1lq", 2.0),
                group_norm([], [w], "l1lq", 1.0))
print()
print(f"ordering on a random matrix: l1linf {linf:.3f} <= l1l2 {l2:.3f} "
      f"<= l1l1 {l1:.3f}")

# ---------------------------------------------------------------------------
# 4. Teacher sharing, through the gradient.  The teacher's slices are
#    frozen, so their row aggregates are precomputed once into a context;
#    only student rows enter the graph.  A student row sharing its index with
#    a heavy teacher row sits inside an already-large group, so the norm
#    barely notices it (tiny gradient).  Where the teacher is quiet too,
#    the same student weights feel strong shrink pressure.
# ---------------------------------------------------------------------------

teacher_w = np.zeros((2, 6))
teacher_w[0] = 5.0                          # teacher row 0 heavy, row 1 silent
student_theta = np.full((2, 3), 0.3)        # identical student rows
ctx = make_bsr_context([teacher_w], [student_theta.shape], "l1lq", q=2.0)
theta_t = Tensor(student_theta, requires_grad=True)
bsr_node(ctx, [theta_t]).backward()
print()
print("gradient on identical student rows (l1l2, teacher heavy in row 0):")
print(f"  row 0 (shared with heavy teacher row): {theta_t.grad[0][0]:.4f} per weight")
print(f"  row 1 (teacher silent there):          {theta_t.grad[1][0]:.4f} per weight")
# Minimising the shared norm therefore empties rows both networks ignore
# and leaves rows the teacher relies on essentially untouched.
