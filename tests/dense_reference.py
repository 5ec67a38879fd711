"""Textbook dense Gauss-Jordan, the reference the sparse kernel is tested against.

Shared by the test modules: elimination, kernels, solvers and row-space
membership on dense rows, written for clarity and not for speed.
"""

from singcat.exact_linalg import Matrix


def dense_rref(f, rows):
    """Dense Gauss-Jordan with the canonical pivot order."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.inv(rows[r][c])
        prow = rows[r] = [f.mul(inv, x) if x else x for x in rows[r]]
        # the update touches only the columns where the pivot row is nonzero
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                row, ci = rows[i], rows[i][c]
                for j, y in support:
                    row[j] = f.sub(row[j], f.mul(ci, y))
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_kernel(m):
    f = m.field
    aug = [list(m.entries[i]) + [f.one if j == i else f.zero for j in range(m.rows)]
           for i in range(m.rows)]
    aug, _ = dense_rref(f, aug)
    return [tuple(row[m.cols:]) for row in aug if not any(row[:m.cols])]


def dense_solve_right(a, b):
    """x with a.x = b, free variables zero; None when inconsistent."""
    f = a.field
    aug, pivots = dense_rref(f, [list(ra) + list(rb)
                                 for ra, rb in zip(a.entries, b.entries)])
    for row in aug:
        if not any(row[:a.cols]) and any(row[a.cols:]):
            return None
    x = [[f.zero] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(c for c in pivots if c < a.cols):
        x[c] = list(aug[r][a.cols:])
    return Matrix(f, a.cols, b.cols, x)


def dense_solve_left(a, b):
    """x with x.a = b; None when inconsistent."""
    xt = dense_solve_right(a.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


def row_space_contains(m, v):
    """Is the vector v a combination of the rows of m?"""
    vm = Matrix.from_rows(m.field, [v], m.cols)
    return dense_solve_left(m, vm) is not None
