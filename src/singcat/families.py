"""The two-parameter grid family: interval modules and the a2-tilde spec.

The grid algebras themselves are built in ``quiver_algebra``; what lives
here needs modules and subcategories on top of them, so this module sits
above ``tilting``.
"""

from __future__ import annotations

from typing import Sequence

from .exact_linalg import Field, InternalCheckFailed, Matrix
from .quiver_algebra import (
    BoundQuiverAlgebra, InvalidKupisch, orbit_grid_algebra, valid_triple,
    valid_triples_window,
)
from .rep import Representation
from .tilting import SubcatSpec


class InvalidTriple(ValueError):
    pass


def interval_module(alg: BoundQuiverAlgebra, triple: Sequence[int]) -> Representation:
    """The interval module of a valid triple over a grid algebra.

    The triple (l1, l2, l3) is supported on the grid points (x, y) with
    l1 <= x <= l2 <= y <= l3, modulo the period on the orbit algebra: a
    vertex carries one basis vector per period shift that lands in the
    support.  Each arrow sends a support point to its neighbour by 1 when
    the neighbour is in the support, and to 0 otherwise.
    """
    if alg.meta.get("kind") not in ("nakayama2-orbit", "nakayama2-window"):
        raise InvalidTriple("interval modules require a grid algebra")
    t = tuple(int(x) for x in triple)
    if len(t) != 3:
        raise InvalidTriple(f"need three indices, got {triple!r}")
    ks = list(alg.meta["kupisch"])
    if not (t[0] <= t[1] <= t[2]) or not valid_triple(ks, t):
        raise InvalidTriple(f"{t} is not a valid triple for series {ks}")
    l1, l2, l3 = t
    coords = alg.meta["coords"]
    n = alg.meta["wrap"] or 0
    f = alg.field
    if n:
        K = 3 + (abs(l1) + abs(l3)) // n
        shifts = range(-K, K + 1)
    else:
        shifts = (0,)
    layers: dict[str, list[int]] = {}
    for v in alg.quiver.vertices:
        a, b = coords[v]
        layers[v] = [k for k in shifts
                     if l1 <= a + k * n <= l2 <= b + k * n <= l3]
    dims = {v: len(layers[v]) for v in layers}
    action = {}
    for arr in alg.quiver.arrows:
        a, b = coords[arr.src]
        a2, b2 = coords[arr.tgt]
        step = alg.meta["arrow_step"][arr.id]
        tgt_pos = {k: i for i, k in enumerate(layers[arr.tgt])}
        rows = []
        for k in layers[arr.src]:
            if step == "down":
                ga, gb = a + k * n, b + k * n - 1
            else:
                ga, gb = a + k * n - 1, b + k * n
            k2 = (ga - a2) // n if n else 0
            if (a2 + k2 * n, b2 + k2 * n) != (ga, gb):
                raise InternalCheckFailed(
                    f"arrow {arr.id} does not map layer {k} to a shifted layer")
            row = [f.zero] * len(tgt_pos)
            if k2 in tgt_pos:
                row[tgt_pos[k2]] = f.one
            rows.append(row)
        action[arr.id] = Matrix.from_rows(f, rows, len(tgt_pos))
    m = Representation(alg, dims, action, check=True)
    if m.total_dim == 0:
        raise InvalidTriple(f"support of {t} misses the window")
    return m


def nakayama2_tilde(kupisch: Sequence[int], period: int, field: Field):
    """Orbit algebra of the two-parameter grid over a periodic length series.

    Returns (algebra, subcat) where the subcategory generators are the
    interval modules of every valid triple in the closed window
    0 <= l1 <= l3 <= period, with d = 2.  Series values must be 2 or 3.
    """
    ks = list(kupisch)
    n = len(ks)
    if period != n:
        raise InvalidKupisch(f"period {period} does not match series length {n}")
    alg = orbit_grid_algebra(ks, field)
    triples = valid_triples_window(ks, 0, n)
    gens = [interval_module(alg, t) for t in triples]
    labels = [f"({t[0]},{t[1]},{t[2]})" for t in triples]
    spec = SubcatSpec(alg, gens, d=2, labels=labels)
    return alg, spec
