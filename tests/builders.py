"""Module builders shared by the tests: truncated-polynomial Jordan blocks,
the uniserials of cyclic Nakayama algebras, and a module in a monomial
change of basis; and the test of a canonical scalar."""

from __future__ import annotations

from fractions import Fraction

from singcat.exact_linalg import Matrix
from singcat.rep import Representation
from singcat.tilting import SubcatSpec


def jordan_module(alg, i):
    """k[x]/(x^i) as a module over k[x]/(x^n), i <= n."""
    f = alg.field
    rows = [[f.one if c == r + 1 else f.zero for c in range(i)]
            for r in range(i)]
    return Representation(alg, {"0": i}, {"a0": Matrix.from_rows(f, rows, i)})


def jordan_spec(alg, n):
    """The d = 1 spec of every k[x]/(x^i), 1 <= i <= n, labelled M1..Mn."""
    mods = [jordan_module(alg, i) for i in range(1, n + 1)]
    return SubcatSpec(alg, mods, 1, labels=[f"M{i}" for i in range(1, n + 1)])


def uniserial(alg, i, l):
    """M(i, l) = P(i)/rad^l P(i) over a cyclic Nakayama algebra: basis
    e_0..e_{l-1} at the vertices i, i+1, ... (mod n), and the arrow out of
    the vertex of e_j sends e_j to e_{j+1}."""
    f, n = alg.field, len(alg.quiver.vertices)
    at = [(i + j) % n for j in range(l)]
    row = [at[:j].count(at[j]) for j in range(l)]  # e_j's row at its vertex
    dims = {str(v): at.count(v) for v in range(n)}
    action = {}
    for a in range(n):
        b = (a + 1) % n
        rows = [[f.zero] * dims[str(b)] for _ in range(dims[str(a)])]
        for j in range(l - 1):
            if at[j] == a:
                rows[row[j]][row[j + 1]] = f.one
        action[f"a{a}"] = Matrix.from_rows(f, rows, dims[str(b)])
    return Representation(alg, dims, action)


def is_canonical_scalar(field, x) -> bool:
    """Over Q an int when integral and a Fraction otherwise, never a float
    or an integral Fraction; over F_p an int in [0, p)."""
    if field.p is None:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and 0 <= x < field.p


TWIST_SCALARS = (1, -1, 2, -2, 3, -3)


def twisted(M, rng):
    """M in a monomial basis: at each vertex a permutation times nonzero
    scalars, so entry (i, k) of an arrow u -> w becomes
    s_u[i] / s_w[k] * A[pi_u(i)][pi_w(k)]."""
    f = M.algebra.field
    units = [f.of_int(s) for s in TWIST_SCALARS if f.of_int(s)]
    perm, scal = {}, {}
    for v, d in M.dims.items():
        perm[v] = rng.sample(range(d), d)
        scal[v] = [rng.choice(units) for _ in range(d)]
    action = {}
    for a in M.algebra.quiver.arrows:
        u, w, A = a.src, a.tgt, M.action[a.id]
        action[a.id] = Matrix.from_rows(f, [
            [f.div(f.mul(scal[u][i], A.entries[perm[u][i]][perm[w][k]]),
                   scal[w][k]) for k in range(M.dims[w])]
            for i in range(M.dims[u])], M.dims[w])
    return Representation(M.algebra, M.dims, action, check=True)
