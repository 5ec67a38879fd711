"""Finite-dimensional right modules over a bound quiver algebra.

A representation assigns a dimension to each vertex and a matrix to each
arrow; elements are row vectors and act on the right.  A morphism is a
per-vertex matrix commuting with the arrow actions.  Everything here is
exact: kernels, images, cokernels and projective covers.

Work runs only on the support.  A module is supported on few of its
algebra's vertices, so most of the per-vertex and per-arrow blocks that a
kernel, a cover, a Hom system or a relation check touches have 0 rows or 0
columns.  The builders (a module's construction, a projective, a kernel,
a cover map and its eliminations) visit only the vertices where the module
is nonzero and the arrows with an end there (``_touching``).  Every other
block is the field's shared 0 x 0 matrix, filled in for all of them at
once, and an arrow with one end on the support gets its shared n x 0 or
0 x n matrix (``exact_linalg._empty``): no matrix is built, eliminated or
multiplied for them.  The kernel block of an n x 0 map is the n x n
identity, a vertex of dimension 0 has no top generators, a relation out of
or into a zero vertex holds, and two modules whose supports share no
vertex have no Hom system at all.  Every guard still runs where its block
is nonempty: "cover map is onto" at each vertex where M is nonzero,
"kernel is not arrow-stable" at each arrow whose source kernel block has
rows and whose target vertex carries part of M, and the shape checks of
``Representation`` and ``RepMorphism`` on every block they are given.

A projective cover is built once per vertex tuple and algebra
(``Cover``), and each cover vertex is eliminated once: the elimination of
the augmentation's block decides the onto guard and gives both the
syzygy's block and a section of the block (``_kernel_blocks``).  A module
content is covered by one function, ``_build_step``, whether the module is
a Hom source, a syzygy or an orbit member: its ``Step`` is the cover's
vertices and generators, the augmentation with its section, the kernel
Omega M with its inclusion, and the relations of the projective
presentation P1 -> P0 -> M -> 0.

Memos are kept per module content, its dimension vector and arrow
entries, hashed once (``_Content``).  One record per content
(``_Record``) lives in the algebra's ``cache``, and each module reaches it
through its ``_memo``; every memo in it goes through ``_memoised``: the
step, and the path actions and memos of ``homspace``, ``homology`` and
``stab``.  A record holds no module, morphism, cover or algebra, so it
closes no reference cycle.  Each module keeps only its own cover and
syzygy (``_cover_step``), wrapped from its content's step, so a module
whose content was stepped before is not covered again, and an orbit that
closes in content stays a chain of objects, freed by reference counting.
The augmentation and inclusion morphisms are built on request
(``_cover_maps``), the augmentation with the step's eliminations; it is
the map ``projective_cover`` returns.

Hom spaces, add-membership and the stable category are read from these
steps in ``homspace``; this module imports nothing above it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .exact_linalg import (
    InternalCheckFailed, Matrix, _empty, canonical, echelon_solve,
    kernel_and_section, rank, rref,
)
from .quiver_algebra import BoundQuiverAlgebra, PathKey, Quiver, opposite_algebra


class AlgebraMismatch(ValueError):
    pass


def _touching(q: Quiver, dims: dict[str, int]):
    """(arrow, source dim, target dim) of each arrow with an end where dims
    is nonzero, once each: the arrows out of the support, then those into
    it from outside.  Every other arrow acts by the 0 x 0 matrix."""
    for v, n in dims.items():
        if n:
            for a in q.arrows_from[v]:
                yield a, n, dims[a.tgt]
            for a in q.arrows_into[v]:
                if not dims[a.src]:
                    yield a, 0, n


class Representation:
    def __init__(self, algebra: BoundQuiverAlgebra, dims: dict[str, int],
                 action: dict[str, Matrix], check: bool = True):
        q = algebra.quiver
        for v in dims:
            if v not in q.arrows_from:
                raise AlgebraMismatch(f"unknown vertex {v!r}")
        for aid in action:
            if aid not in q.arrow_by_id:
                raise AlgebraMismatch(f"unknown arrow {aid!r}")
        self.algebra = algebra
        self.dims = d = dict.fromkeys(q.arrows_from, 0)
        for v, n in dims.items():
            d[v] = int(n)
        f = algebra.field
        self.action = act = dict.fromkeys(q.arrow_by_id, _empty(f, 0, 0))
        for aid, m in action.items():
            a = q.arrow_by_id[aid]
            if (m.rows, m.cols) != (d[a.src], d[a.tgt]):
                raise AlgebraMismatch(
                    f"action of {aid} has shape {(m.rows, m.cols)}, expected "
                    f"{(d[a.src], d[a.tgt])}")
            act[aid] = canonical(m) if m.rows and m.cols else m
        if len(action) < len(act):
            # an arrow not given acts by zero: a block of its own only
            # where it touches the support
            for a, n, k in _touching(q, d):
                if a.id not in action:
                    act[a.id] = (Matrix.zeros(f, n, k) if n and k
                                 else _empty(f, n, k))
        if check:
            self._check_relations()

    @classmethod
    def _wrap(cls, algebra: BoundQuiverAlgebra, dims: dict[str, int],
              action: dict[str, Matrix],
              record: "_Record | None" = None) -> "Representation":
        """A module on data that a constructor already checked.

        ``dims`` and ``action`` are shared, not copied: they must name every
        vertex and arrow in the algebra's order, as the ones a
        Representation holds do (``_Content`` reads them so).  Nothing in
        the package mutates either after construction.  ``record``, when
        given, is the record of this content, kept beside cached data and
        in cover steps, so the content is not hashed again.
        """
        M = cls.__new__(cls)
        M.algebra = algebra
        M.dims = dims
        M.action = action
        if record is not None:
            M._memo = record
        return M

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, src: str, arrows: Sequence[str]) -> Matrix:
        """The action of an arrow word: its first arrow's matrix times the
        others', and the identity for the trivial path.

        Only the relation check uses this; maps out of covers walk their
        generator images along path prefixes instead (``_path_images``).
        """
        if not arrows:
            return Matrix.identity(self.algebra.field, self.dims[src])
        m = self.action[arrows[0]]
        for aid in arrows[1:]:
            m = m.mul(self.action[aid])
        return m

    def _check_relations(self) -> None:
        """Each relation sum_t c_t p_t acts by zero; a coefficient of one
        scales nothing, and a relation of one term adds nothing."""
        one = self.algebra.field.one
        for r in self.algebra.relations:
            if not self.dims[r.src] or not self.dims[r.tgt]:
                continue
            acc = None
            for coef, path in r.terms:
                m = self.path_matrix(path.src, path.arrows)
                if coef != one:
                    m = m.scale(coef)
                acc = m if acc is None else acc.add(m)
            if any(x for row in acc.entries for x in row):
                raise ValueError("arrow matrices violate a defining relation")


def zero_rep(algebra: BoundQuiverAlgebra) -> Representation:
    # every arrow acts by the same (immutable) 0x0 matrix
    q = algebra.quiver
    return Representation._wrap(algebra, dict.fromkeys(q.arrows_from, 0),
                                dict.fromkeys(q.arrow_by_id,
                                              _empty(algebra.field, 0, 0)))


def simple_module(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    if v not in algebra.quiver.arrows_from:
        raise AlgebraMismatch(f"unknown vertex {v!r}")
    return Representation(algebra, {v: 1}, {}, check=False)


def _same_algebra(*reps: Representation) -> BoundQuiverAlgebra:
    alg = reps[0].algebra
    for r in reps[1:]:
        if r.algebra is not alg:
            raise AlgebraMismatch("representations live over different algebras")
    return alg


def direct_sum(reps: Sequence[Representation]) -> Representation:
    if not reps:
        raise ValueError("empty direct sum needs an algebra; use zero_rep")
    alg = _same_algebra(*reps)
    z = alg.field.zero
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        u, w = a.src, a.tgt
        touching = [r for r in reps if r.dims[u] or r.dims[w]]
        if len(touching) < 2:
            # the other summands add no row and no column: the block is
            # the one touching summand's (any summand's 0x0 if none)
            action[a.id] = (touching or reps)[0].action[a.id]
            continue
        width = dims[w]
        # block diagonal: each summand's rows padded by the columns of the
        # summands before and after it
        rows = []
        left = 0
        for r in touching:
            pre = (z,) * left
            left += r.dims[w]
            post = (z,) * (width - left)
            rows.extend(pre + row + post for row in r.action[a.id].entries)
        action[a.id] = Matrix.from_rows(alg.field, rows, width)
    return Representation._wrap(alg, dims, action)


class RepMorphism:
    def __init__(self, src: Representation, tgt: Representation,
                 mats: dict[str, Matrix], check: bool = True):
        _same_algebra(src, tgt)
        self.src = src
        self.tgt = tgt
        f = src.algebra.field
        self.mats: dict[str, Matrix] = {}
        td = tgt.dims
        for v, n in src.dims.items():
            m = mats.get(v)
            if m is None:
                m = Matrix.zeros(f, n, td[v])
            elif m.rows != n or m.cols != td[v]:
                raise AlgebraMismatch(f"component at {v!r} has the wrong shape")
            self.mats[v] = m
        if check and not self._commutes():
            raise ValueError("matrices do not commute with the arrow actions")

    def _commutes(self) -> bool:
        for a in self.src.algebra.quiver.arrows:
            lhs = self.src.action[a.id].mul(self.mats[a.tgt])
            rhs = self.mats[a.src].mul(self.tgt.action[a.id])
            if lhs != rhs:
                return False
        return True

    def mat(self, v: str) -> Matrix:
        return self.mats[v]

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self then other."""
        if self.tgt is not other.src:
            raise AlgebraMismatch("morphisms do not compose")
        return RepMorphism(self.src, other.tgt,
                           {v: self.mats[v].mul(other.mats[v])
                            for v in self.mats}, check=False)

    def scale(self, c) -> "RepMorphism":
        return RepMorphism(self.src, self.tgt,
                           {v: self.mats[v].scale(c) for v in self.mats},
                           check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        return all(m.rows == m.cols and rank(m) == m.rows
                   for m in self.mats.values())

    @staticmethod
    def identity(rep: Representation) -> "RepMorphism":
        f = rep.algebra.field
        return RepMorphism(rep, rep,
                           {v: Matrix.identity(f, rep.dims[v])
                            for v in rep.dims}, check=False)


def _echelon_submodule(M: Representation, inc_mats: dict[str, Matrix],
                       what: str) -> tuple[Representation, RepMorphism]:
    """The submodule of M spanned by the echelon rows inc_mats[v], with its
    inclusion; each arrow acts by the coordinates of the acted rows.

    Only the arrows with an end on the submodule's support are visited
    (``_touching``).  An arrow whose source block has no rows, or whose
    target vertex carries nothing of M, acts by the shared empty matrix,
    with no product and no check.
    """
    alg = M.algebra
    fld = alg.field
    dims = {v: m.rows for v, m in inc_mats.items()}
    action = dict.fromkeys(alg.quiver.arrow_by_id, _empty(fld, 0, 0))
    for a, n, k in _touching(alg.quiver, dims):
        if not n or not M.dims[a.tgt]:
            action[a.id] = _empty(fld, n, k)
            continue
        rhs = inc_mats[a.src].mul(M.action[a.id])
        sol = echelon_solve(inc_mats[a.tgt], rhs)
        if sol is None:
            raise InternalCheckFailed(f"{what} is not arrow-stable")
        action[a.id] = sol
    S = Representation._wrap(alg, dims, action)
    return S, RepMorphism(S, M, inc_mats, check=False)


def _kernel_blocks(f: RepMorphism) -> tuple[dict[str, Matrix],
                                             dict[str, Matrix]]:
    """(left kernel, section) of f at each vertex, as echelon rows, from one
    elimination per block (``kernel_and_section``); memoised on f.

    The section block has one row per pivot of f's block, so it is a
    section of f (s f_v = 1) exactly where f is onto.  Only the support of
    f's source is visited: a block of f with no rows has the shared empty
    kernel and section, and one with no columns (an n x 0 map) the n x n
    identity and the empty section; neither is eliminated.  The memo holds
    matrices only, so it keeps no module alive.
    """
    blocks = getattr(f, "_kernel_mats", None)
    if blocks is None:
        fld = f.src.algebra.field
        ker = dict.fromkeys(f.mats, _empty(fld, 0, 0))
        sec = ker.copy()
        for v, n in f.src.dims.items():
            if not n:
                continue
            m = f.mats[v]
            if not m.cols:
                ker[v] = Matrix.identity(fld, n)
                sec[v] = _empty(fld, 0, n)
                continue
            k, s = kernel_and_section(m)
            ker[v] = Matrix(fld, len(k), n, k) if k else _empty(fld, 0, n)
            sec[v] = Matrix(fld, len(s), n, s) if s else _empty(fld, 0, n)
        blocks = f._kernel_mats = (ker, sec)
    return blocks


def kernel(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """The kernel of f and its inclusion, from the left kernel at each vertex.

    The blocks come from ``_kernel_blocks``, so the kernel of a cover's
    augmentation reuses the eliminations of its onto guard.
    """
    return _echelon_submodule(f.src, _kernel_blocks(f)[0], "kernel")


def image(f: RepMorphism) -> tuple[Representation, RepMorphism, RepMorphism]:
    """Returns (I, inclusion I -> tgt, surjection src -> I)."""
    alg = f.src.algebra
    fld = alg.field
    inc_mats = {}
    for v in alg.quiver.vertices:
        red, piv = rref(f.mats[v])
        inc_mats[v] = Matrix.from_rows(fld, red.entries[:len(piv)],
                                       f.tgt.dims[v])
    I, inc = _echelon_submodule(f.tgt, inc_mats, "image")
    onto_mats = {}
    for v in alg.quiver.vertices:
        sol = echelon_solve(inc_mats[v], f.mats[v])
        if sol is None:
            raise InternalCheckFailed("map does not factor through its image")
        onto_mats[v] = sol
    return I, inc, RepMorphism(f.src, I, onto_mats, check=False)


def cokernel(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Returns (C, projection tgt -> C), C written in the non-pivot coords.

    With R the reduced rows of the image, e_j maps to e_j for a non-pivot j
    and to e_p - R_p for the pivot p of row R_p; read at the non-pivot
    columns these are e_j and -R_p.
    """
    alg = f.src.algebra
    fld = alg.field
    proj_mats = {}
    nonpivs = {}
    for v in alg.quiver.vertices:
        red, piv = rref(f.mats[v])
        n = f.tgt.dims[v]
        pivset = set(piv)
        nonpiv = nonpivs[v] = [j for j in range(n) if j not in pivset]
        pivrow = dict(zip(piv, red.entries))
        rows = []
        for j in range(n):
            r = pivrow.get(j)
            if r is None:
                rows.append([fld.one if q == j else fld.zero for q in nonpiv])
            else:
                rows.append([fld.neg(r[q]) for q in nonpiv])
        proj_mats[v] = Matrix.from_rows(fld, rows, len(nonpiv))
    dims = {v: proj_mats[v].cols for v in proj_mats}
    action = {}
    for a in alg.quiver.arrows:
        # quotient action: lift a non-pivot coordinate, act, project back
        acts, proj = f.tgt.action[a.id], proj_mats[a.tgt]
        rows = [proj.act(acts.entries[q]) for q in nonpivs[a.src]]
        action[a.id] = Matrix.from_rows(fld, rows, proj.cols)
    C = Representation(alg, dims, action, check=False)
    return C, RepMorphism(f.tgt, C, proj_mats, check=False)


# ---------------------------------------------------------------------------
# projectives


class Cover:
    """A finite direct sum of indecomposable projectives, one P(v) per
    vertex in ``vertices``, its j-th generator the trivial path of the j-th
    summand.  The sum is cached per vertex tuple (``_cached``)."""

    def __init__(self, algebra: BoundQuiverAlgebra, vertices: Sequence[str]):
        self.algebra = algebra
        self.vertices = list(vertices)
        self.rep = _cached(algebra, ("cover", tuple(self.vertices)), lambda: (
            direct_sum([projective_module(algebra, v) for v in self.vertices])
            if self.vertices else zero_rep(algebra)))


class Step:
    """The cover step 0 -> Omega M -> P_M -> M -> 0 of one module content.

    P_M is the cover, sum_j P(v_j) over ``vertices``, whose j-th generator
    maps to M's top generator ``gens[j]`` = (v_j, its row of M at v_j).
    The cover map eps is checked onto (``is_onto``) by the eliminations
    that give its kernel and a section s_w of each block, s_w eps_w = 1
    (``_kernel_blocks``); ``eps`` and ``section`` hold their blocks.
    Omega M is kept as its dimensions, action and content key, and ``inc``
    holds its inclusion into the cover.  The relations of the presentation
    P1 -> P0 -> M -> 0 are the top generators of Omega M, each written in
    the cover's path basis: a vector of P0 at its vertex u with coefficient
    c on the basis path p from v_j of summand j.  They are built on first
    use (``relations``).  A step holds matrices, tuples and a content key,
    no module and no algebra, so the record of a content keeps it
    (``_step``).
    """

    __slots__ = ("gens", "vertices", "eps", "section", "dims", "action",
                 "key", "inc", "_relations")

    def __init__(self, gens: tuple, eps: RepMorphism):
        if not is_onto(eps):
            raise InternalCheckFailed("cover map is not onto")
        K = kernel(eps)[0]
        self.gens = gens
        self.vertices = tuple(v for v, _ in gens)
        self.eps = eps.mats
        self.inc, self.section = _kernel_blocks(eps)
        self.dims, self.action, self.key = K.dims, K.action, _record(K).content
        self._relations = None

    def relations(self, alg: BoundQuiverAlgebra) -> tuple:
        """((u, ((j, path index, c), ...)), ...): per relation, its vertex
        and its nonzero coefficients, a path index counting in
        ``paths_from(v_j)``.  Memoised."""
        if self._relations is None:
            z = alg.field.zero
            # the summand and path of each row of the cover's block at u
            at: dict[str, list] = {w: [] for w in alg.quiver.vertices}
            for j, v in enumerate(self.vertices):
                for idx, key in enumerate(alg.paths_from(v)):
                    at[alg.key_target(key)].append((j, idx))
            self._relations = tuple(
                (u, tuple((j, idx, c) for (j, idx), c
                          in zip(at[u], self.inc[u].entries[i])
                          if c is not z and c))
                for u, i in _top_rows(alg, self.dims, self.action))
        return self._relations


def _build_step(M: Representation) -> Step:
    """M's cover step, one P(v) per top generator at v: the one function
    that covers a module."""
    alg = M.algebra
    gens = tuple((v, tuple(g)) for v, g in top_generators(M))
    verts = [v for v, _ in gens]
    return Step(gens, RepMorphism(Cover(alg, verts).rep, M, _gen_image_mats(
        alg, verts, M, [g for _, g in gens]), check=False))


def _step(M: Representation) -> Step:
    """M's cover step, memoised in M's record: one per content."""
    return _memoised(M, "step", _build_step, M)


def _cover_step(M: Representation) -> tuple[Cover, Representation]:
    """(cover, Omega M) of M's step, memoised on M as ``_syzygy_step``.

    The pair is M's own, since ``RepMorphism.compose`` matches modules by
    identity; Omega M is wrapped with its record, so a module of a content
    stepped before is not covered again.  Neither points back at M, so an
    orbit that closes in content stays a chain of objects.
    """
    pair = M.__dict__.get("_syzygy_step")
    if pair is None:
        alg, s = M.algebra, _step(M)
        pair = M._syzygy_step = (Cover(alg, s.vertices), Representation._wrap(
            alg, s.dims, s.action, _record_at(alg, s.key)))
    return pair


def _cover_maps(M: Representation) -> tuple[RepMorphism, RepMorphism]:
    """(eps: P_M -> M, inclusion Omega M -> P_M) on M's own cover and
    syzygy (``_cover_step``), built on each call: eps points at M, so
    keeping it on M would put M in a reference cycle.

    eps carries the step's kernel and section blocks as its eliminations
    (``_kernel_blocks``), so ``kernel(eps)`` eliminates nothing again.
    """
    (cover, K), s = _cover_step(M), _step(M)
    eps = RepMorphism(cover.rep, M, s.eps, check=False)
    eps._kernel_mats = (s.inc, s.section)
    return eps, RepMorphism(K, cover.rep, s.inc, check=False)


class _Content:
    """A module's dimension vector and arrow entries, hashed once: the key of
    its record.  Hashing the entries costs one hash per scalar, so the key
    and its hash are made once per module (``_record``), and not at all for
    a module wrapped with its record (``Representation._wrap``)."""

    __slots__ = ("key", "hash")

    def __init__(self, M: Representation):
        # a module's dims and action follow its algebra's vertex and arrow
        # order (``Representation._wrap``), so their values are the key
        self.key = (tuple(M.dims.values()),
                    tuple([m.entries for m in M.action.values()]))
        self.hash = hash(self.key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Content) and self.key == other.key


class _Record:
    """What is memoised for one module content over one algebra.

    ``memo`` holds it under a name, or a name and a vertex or another
    module's content key (``_memoised``): the cover step (``Step``), the
    path-action tables, Hom and stable Hom dimensions, stable classes and
    P(M, M) rows of ``homspace``, and the orbit certificates and Ext^1 test
    of ``homology`` and ``stab``.  Its values are matrices, tuples, ints,
    steps and content keys, never a module, a morphism, a cover or an
    algebra.
    """

    __slots__ = ("content", "memo")

    def __init__(self, content: _Content):
        self.content = content
        self.memo: dict = {}


def _record_at(alg: BoundQuiverAlgebra, key: _Content) -> _Record:
    """The record of the content ``key`` in the algebra's cache, made on
    first use."""
    rec = alg.cache.get(key)
    if rec is None:
        rec = alg.cache[key] = _Record(key)
    return rec


def _record(M: Representation) -> _Record:
    """M's record, attached to M as ``_memo`` on first use."""
    rec = M.__dict__.get("_memo")
    if rec is None:
        rec = M._memo = _record_at(M.algebra, _Content(M))
    return rec


def _memoised(M: Representation, key, compute, *args):
    """compute(*args), memoised in M's record under ``key``."""
    memo = _record(M).memo
    val = memo.get(key)
    if val is None:
        val = memo[key] = compute(*args)
    return val


def projective_module(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """The indecomposable projective e_v A, spanned by the paths from v,
    cached on the algebra (``_cached``)."""
    def build():
        if v not in algebra.quiver.arrows_from:
            raise AlgebraMismatch(f"unknown vertex {v!r}")
        f = algebra.field
        by_tgt: dict[str, list[PathKey]] = {}
        for key in algebra.paths_from(v):
            by_tgt.setdefault(algebra.key_target(key), []).append(key)
        dims = {w: len(by_tgt.get(w, ())) for w in algebra.quiver.vertices}
        action = dict.fromkeys(algebra.quiver.arrow_by_id, _empty(f, 0, 0))
        for a, n, m in _touching(algebra.quiver, dims):
            if not n or not m:
                action[a.id] = _empty(f, n, m)
                continue
            pos = {key: i for i, key in enumerate(by_tgt[a.tgt])}
            rows = []
            for key in by_tgt[a.src]:
                row = [f.zero] * m
                for k2, c in algebra.mult_by_arrow(key, a.id).items():
                    row[pos[k2]] = c
                rows.append(row)
            action[a.id] = Matrix(f, n, m, rows)
        return Representation._wrap(algebra, dims, action)
    return _cached(algebra, ("projective", v), build)


def projectives(algebra: BoundQuiverAlgebra) -> list[tuple[str, Representation]]:
    return [(v, projective_module(algebra, v)) for v in algebra.quiver.vertices]


def _cached(algebra: BoundQuiverAlgebra, key, build) -> Representation:
    """The module ``build()`` makes, cached on the algebra under ``key``.

    The cache holds its dimensions, action and record, not the module, so
    it holds nothing that points back at the algebra; each call wraps them
    in a new Representation with no re-check (``Representation._wrap``).
    """
    data = algebra.cache.get(key)
    if data is None:
        M = build()
        data = algebra.cache[key] = (M.dims, M.action, _record(M))
    return Representation._wrap(algebra, *data)


def regular_module(algebra: BoundQuiverAlgebra) -> Representation:
    """The regular module A_A, the direct sum of the P(v) in vertex order."""
    return _cached(algebra, "regular",
                   lambda: direct_sum([p for _, p in projectives(algebra)]))


def projective_radical(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """rad P(v): P(v) without row 0 at v, its trivial path (v, ()).

    The trivial path is no multiple of an arrow, so its column in the
    action of an arrow into v is zero, and it is dropped as well.
    """
    def build():
        P = projective_module(algebra, v)
        dims = {**P.dims, v: P.dims[v] - 1}
        action = dict(P.action)
        for a in algebra.quiver.arrows:
            if v in (a.src, a.tgt):
                rows = P.action[a.id].entries
                if a.src == v:
                    rows = rows[1:]
                if a.tgt == v:
                    rows = [r[1:] for r in rows]
                action[a.id] = Matrix.from_rows(algebra.field, rows,
                                                dims[a.tgt])
        return Representation._wrap(algebra, dims, action)
    return _cached(algebra, ("radical", v), build)


def dual_module(algebra: BoundQuiverAlgebra, M: Representation) -> Representation:
    """The linear dual of a module over the opposite algebra.

    Arrow ids agree between an algebra and its opposite, so the dual action
    is entrywise transposition.  The transpose of a module satisfies the
    opposite relations by construction, so they are not checked again.
    """
    src = M.algebra
    if set(src.quiver.vertices) != set(algebra.quiver.vertices):
        raise AlgebraMismatch("vertex sets differ")
    for a in algebra.quiver.arrows:
        b = src.quiver.arrow_by_id.get(a.id)
        if b is None or (b.src, b.tgt) != (a.tgt, a.src):
            raise AlgebraMismatch(f"arrow {a.id!r} is not reversed")
    action = {a.id: M.action[a.id].transpose() for a in algebra.quiver.arrows}
    return Representation._wrap(
        algebra, {v: M.dims[v] for v in algebra.quiver.vertices}, action)


def injective_module(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """Indecomposable injective with socle at v: D of P(v) over A^op."""
    return _cached(algebra, ("injective", v), lambda: dual_module(
        algebra, projective_module(opposite_algebra(algebra), v)))


def injective_mod_socle(algebra: BoundQuiverAlgebra, v: str) -> Representation:
    """I(v)/soc I(v): D of rad P(v) over A^op."""
    return _cached(algebra, ("injective/soc", v), lambda: dual_module(
        algebra, projective_radical(opposite_algebra(algebra), v)))


def injectives(algebra: BoundQuiverAlgebra) -> list[tuple[str, Representation]]:
    return [(v, injective_module(algebra, v)) for v in algebra.quiver.vertices]


def _top_rows(alg: BoundQuiverAlgebra, dims: dict[str, int],
              action: dict[str, Matrix]) -> list[tuple[str, int]]:
    """(vertex, basis index) of each basis vector of a module on top.

    The radical at v is spanned by the rows of the incoming arrows; the
    basis vectors at the non-pivot columns of their echelon form span the
    block over it.  A vertex where the module is zero has none, and one
    whose incoming arrows all start where it is zero has its whole block on
    top.
    """
    f = alg.field
    out = []
    for v, n in dims.items():
        if not n:
            continue
        rows = _radical_rows(alg, action, v)
        pivset = set(rref(Matrix(f, len(rows), n, rows))[1]) if rows else ()
        out.extend((v, j) for j in range(n) if j not in pivset)
    return out


def _radical_rows(alg: BoundQuiverAlgebra, action: dict[str, Matrix],
                  v: str) -> list[tuple]:
    """The rows of the arrows into v, which span a module's radical at v."""
    return [r for a in alg.quiver.arrows_into[v] for r in action[a.id].entries]


def top_generators(M: Representation) -> list[tuple[str, list]]:
    """Rows spanning M over its radical, one (vertex, row vector) per
    generator: the unit vectors of ``_top_rows``."""
    f = M.algebra.field
    return [(v, [f.one if k == j else f.zero for k in range(M.dims[v])])
            for v, j in _top_rows(M.algebra, M.dims, M.action)]


def _path_images(M: Representation, v: str, row: Sequence) -> dict[PathKey, tuple]:
    """The image of the row vector ``row`` of M at v under each basis path.

    Keyed by the basis paths from v in ``paths_from`` order; the value at a
    path p is row . (action of p).  Each image is its prefix's image (the
    path one arrow shorter) times the last arrow's action, one
    vector-by-matrix product.  This relies on an invariant of
    ``compute_basis``: every basis path of length L + 1 extends a basis path
    of length L by one arrow, and ``paths_from`` lists paths by length, so
    the prefix's image is always there first.  The opposite algebra is built
    by ``compute_basis`` too.
    """
    alg = M.algebra
    action = M.action
    out: dict[PathKey, tuple] = {}
    for key in alg.paths_from(v):
        arrows = key[1]
        if arrows:
            out[key] = action[arrows[-1]].act(out[(v, arrows[:-1])])
        else:
            out[key] = tuple(row)
    return out


def _gen_image_mats(alg: BoundQuiverAlgebra, vertices: Sequence[str],
                    T: Representation, xs: list) -> dict[str, Matrix]:
    """The matrices of the map sum_j P(v_j) -> T sending the j-th generator
    to row xs[j]: at each vertex, the generator images walked along the
    basis paths, in the (summand, path) order of the cover's basis rows.
    Only the supports of the cover and of T are visited: a vertex of
    neither gets the shared 0 x 0 matrix, and one of T's alone its shared
    0 x n matrix."""
    fld = alg.field
    rows_at: dict[str, list] = defaultdict(list)
    for v, x in zip(vertices, xs):
        for key, img in _path_images(T, v, x).items():
            rows_at[alg.key_target(key)].append(img)
    mats = dict.fromkeys(alg.quiver.arrows_from, _empty(fld, 0, 0))
    for w, n in T.dims.items():
        if n and w not in rows_at:
            mats[w] = _empty(fld, 0, n)
    for w, rows in rows_at.items():
        n = T.dims[w]
        mats[w] = (Matrix(fld, len(rows), n, rows) if n
                   else _empty(fld, len(rows), 0))
    return mats


def is_onto(f: RepMorphism) -> bool:
    """Is f: M -> N onto?  The block f_v has rank dim N_v exactly when
    its rows minus the dimension of its left kernel are dim N_v.

    Read from the memoised eliminations of ``_kernel_blocks``, so a
    ``kernel(f)`` asked for after this eliminates nothing again.  Only the
    vertices where N is nonzero are read: every map is onto a zero block.
    """
    ker = _kernel_blocks(f)[0]
    mats = f.mats
    return all(mats[v].rows - ker[v].rows == n
               for v, n in f.tgt.dims.items() if n)


def projective_cover(M: Representation) -> tuple[Cover, RepMorphism]:
    """The minimal cover sum_v P(v) -> M, one P(v) per top generator at v:
    M's own cover and its map (``_cover_maps``)."""
    return _cover_step(M)[0], _cover_maps(M)[0]


def is_projective(M: Representation) -> bool:
    """Zero or projective, that is, stably zero.

    The minimal cover sum_v P(v) -> M, one P(v) per top generator at v, is
    onto, so it is an isomorphism exactly when its kernel Omega M is zero.
    Omega M's dimension vector is read from M's cover step (``_step``), so
    no cover, syzygy or morphism is wrapped.
    """
    return M.total_dim == 0 or not any(_step(M).dims.values())
