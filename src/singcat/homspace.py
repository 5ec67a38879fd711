"""Hom spaces read at top generators: Hom, add-membership, the stable category.

Every Hom space is read from the source's presentation (``rep``'s cover
step).  Hom(-, N) is left exact and Hom(P(v), N) = N e_v, so Hom(M, N) is
the kernel of the map from the sum of the N_v, v over the cover's
summands, to one block of N per top generator of Omega M
(``_presented_system``), a system sized by the tops of M and Omega M.  A
Hom vector lists the images of M's top generators, which fix the map;
``hom_dim`` reads the rank, ``hom`` keeps the kernel vectors, and only its
``basis`` turns them into morphisms, through the section, on first use.
This module alone knows that layout: the modules above it ask for Hom
spaces, dimensions and verdicts, and read no Hom vector.

Maps out of M are read at M's top generators, so membership builds no
map out of M.  Membership in add G is settled by an isomorphism
certificate to one generator (``_iso_certificate``): with equal dimension
vectors a map is an isomorphism exactly when its generator images span
the target modulo its radical (Nakayama's lemma, ``_spans_top``).
Otherwise one trace test decides (``_identity_in_trace``): id_M in the
span of the composites M -> g -> M, each a row of its values at the
generators, sum_j dim M_{v_j} columns and not sum_v (dim M_v)^2.

The stable category, maps modulo those that factor through a projective,
is built on the same reading and the cached cover step.  A map M -> P ->
M through a projective P lifts its second half through the cover eps:
P_M -> M, so the endomorphisms that factor through a projective are
P(M, M) = {h then eps : h in Hom(M, P_M)} (Auslander-Reiten-Smalo, IV.1).
Like every endomorphism in a trace test, each is read at M's top
generators (``_composite_rows``), which fix it, and the echelon rows of
P(M, M) are memoised in M's record (``rep._Record``).
``stable_add_membership`` asks whether id_M lies in the span of the
composites M -> g -> M plus P(M, M), which is membership in add(G + A)
with no projective generator built.

A stable Hom dimension comes from the exact sequence 0 -> Hom(A, Omega B)
-> Hom(A, P_B) -> Hom(A, B), where P_B -> B is the cover and Omega B its
kernel.  The image of the last map is exactly the maps A -> B that factor
through a projective, so

    dim stable Hom(A, B)
        = dim Hom(A, B) - dim Hom(A, P_B) + dim Hom(A, Omega B),

with dim Hom(A, P_B) summed over the cover's summands P_v.
``stable_hom`` still builds the space with a basis for callers that need
elements.

``stable_iso`` decides one stable class, A + P = B + Q, by gates in this
order: modules with identical matrices match; stably zero modules (zero or
projective, ``rep.is_projective``) form the one zero class; syzygies that
differ in dimension vector reject, since the minimal cover of a projective
is itself, with kernel zero, so Omega A = Omega B; an isomorphism
certificate accepts; different stable endomorphism dimensions reject; and
last each of A and B must lie in the stable add of the other, by the trace
test.  The verdict is sound when the non-projective parts of both inputs
are indecomposable or zero.

Hom dimensions, stable Hom dimensions and stable-class verdicts are
memoised in the first module's record by the second's content.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .exact_linalg import (
    InternalCheckFailed, Matrix, _eliminate, _rational, echelon_solve, rank,
    rref, sparse_kernel, sparse_rank, sparse_span_contains,
)
from .rep import (
    RepMorphism, Representation, Step, _cover_maps, _cover_step,
    _gen_image_mats, _memoised, _path_images, _radical_rows, _record,
    _same_algebra, _step, is_projective, projective_module,
)


class HomSpace:
    """The space of morphisms M -> N, with a canonical ordered basis.

    Its vectors (``vecs``) are the reduced left kernel of
    ``_presented_system``: each lists the images of M's top generators,
    which fix a morphism, and ``dim`` counts them.  The basis maps are
    built on first use of ``basis``: each is the section of M's cover at
    each vertex followed by the cover map that sends the generators to the
    vector's images (``_presented_map``).  Isomorphism certificates and
    trace tests read the vectors and build no map out of M.
    """

    def __init__(self, M: Representation, N: Representation):
        f = _same_algebra(M, N).field
        self.src = M
        self.tgt = N
        self._pres = _step(M)
        rows, ncols = _presented_system(self._pres, N)
        vecs = sparse_kernel(f, rows, ncols) if rows else []
        self._bmat = Matrix.from_rows(f, vecs, len(rows))
        self.vecs = self._bmat.entries

    @cached_property
    def basis(self) -> list[RepMorphism]:
        return [_presented_map(self, x) for x in self.vecs]

    @property
    def dim(self) -> int:
        return len(self.vecs)

    def _images(self, x: Sequence) -> list[tuple[str, Sequence]]:
        """(v_j, x_j): the image x_j in N_{v_j} of M's j-th top generator
        that the Hom vector x lists."""
        out, pos = [], 0
        for v in self._pres.vertices:
            out.append((v, x[pos:pos + self.tgt.dims[v]]))
            pos += self.tgt.dims[v]
        return out

    def _vec(self, f: RepMorphism) -> list:
        """f's images of M's top generators, in the order of the unknowns."""
        return [y for v, g in self._pres.gens for y in f.mats[v].act(g)]

    def coords(self, f: RepMorphism) -> tuple:
        """f's coordinates, read at the top generators and checked by
        recombination: a map that is not the morphism its generator images
        name lies outside the hom space."""
        fld = self.src.algebra.field
        vec = Matrix.from_rows(fld, [self._vec(f)], self._bmat.cols)
        sol = echelon_solve(self._bmat, vec)
        if sol is None or self.element(sol.entries[0]).mats != f.mats:
            raise ValueError("morphism outside the hom space")
        return sol.entries[0]

    def element(self, coeffs: Sequence) -> RepMorphism:
        if len(coeffs) != self.dim:
            raise ValueError("wrong coefficient count")
        return _presented_map(self, self._bmat.act(coeffs))


def hom(M: Representation, N: Representation) -> HomSpace:
    return HomSpace(M, N)


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N): the unknowns of ``_presented_system`` minus its rank.

    Equal to ``hom(M, N).dim``, but builds no kernel basis and no morphism.
    With no unknowns or no constraints there is nothing to eliminate.
    Memoised in M's record by N's content.
    """
    _same_algebra(M, N)
    return _memoised(M, ("hom", _record(N).content), _hom_rank, M, N)


def _hom_rank(M: Representation, N: Representation) -> int:
    rows, ncols = _presented_system(_step(M), N)
    if not rows or not ncols:
        return len(rows)
    return len(rows) - sparse_rank(M.algebra.field, rows, ncols)


def _path_actions(N: Representation, v: str) -> tuple:
    """N's action of the basis paths from v, per basis vector of N_v.

    Entry i is, for each basis path p from v in ``paths_from`` order, the
    image of the i-th basis vector under p (``rep._path_images``), a dense
    row tuple.  Memoised in N's record, per vertex.  It holds tuples only,
    and no tuple per nonzero entry: over Q every tuple that holds a
    non-integral Fraction stays tracked by the cyclic collector while it
    lives (a tuple of ints is untracked at its first collection).
    """
    f, n = N.algebra.field, N.dims[v]
    return _memoised(N, ("paths", v), lambda: tuple(
        tuple(_path_images(
            N, v, [f.one if k == i else f.zero for k in range(n)]).values())
        for i in range(n)))


def _presented_system(pres: Step, N: Representation,
                      ) -> tuple[list[dict], int]:
    """Sparse constraints on Hom(M, N), M presented by P1 -> P0 -> M -> 0.

    Hom(-, N) is left exact, so a map M -> N is a map P0 -> N that kills
    Omega M, and Hom(P(v), N) = N e_v (Auslander-Reiten-Smalo, I.4 and
    III.2).  Rows are the unknowns, one x_j in N_{v_j} per cover summand j,
    laid out summand by summand; relation r at u has a block of dim N_u
    columns holding sum_{j, p} c_{r,j,p} x_j N_p.  Omega M is generated by
    its relations, so the left kernel is Hom(M, N).  Returns (rows, column
    count), rows as {column: value} dicts of canonical nonzeros.
    """
    z, p = N.algebra.field.zero, N.algebra.field.p
    off, total = [], 0
    for v in pres.vertices:
        off.append(total)
        total += N.dims[v]
    rows: list[dict] = [{} for _ in range(total)]
    rels = pres.relations(N.algebra)
    tables = [_path_actions(N, v) for v in pres.vertices] if rels else ()
    col = 0
    for u, terms in rels:
        for j, idx, c in terms:
            for i, images in enumerate(tables[j], off[j]):
                row = rows[i]
                for k, y in enumerate(images[idx], col):
                    if y is not z and y:
                        x = row.get(k)
                        row[k] = c * y if x is None else x + c * y
        col += N.dims[u]
    if p is None:
        return [{k: _rational(x) for k, x in r.items() if x} for r in rows], col
    return [{k: x % p for k, x in r.items() if x % p} for r in rows], col


def _presented_map(H: HomSpace, x: Sequence) -> RepMorphism:
    """The morphism M -> N of H = hom(M, N) sending M's j-th top generator
    to the x_j that x lists (``HomSpace._images``): at each vertex w, the
    section s_w of M's cover followed by the cover map that sends the j-th
    generator of P0 to x_j.  For x in the kernel of ``_presented_system``
    that map kills Omega M, so it factors through M as this morphism."""
    pres = H._pres
    lam = _gen_image_mats(H.src.algebra, pres.vertices, H.tgt,
                          [y for _, y in H._images(x)])
    return RepMorphism(H.src, H.tgt, {w: s.mul(lam[w])
                                      for w, s in pres.section.items()},
                       check=False)


def _spans_top(N: Representation, elems: Sequence[tuple[str, Sequence]],
               ) -> bool:
    """Do the elements (v, x), x in N_v, with rad N span N at every vertex
    where N is nonzero?  Then, by Nakayama's lemma, they generate N: a map
    into N is onto exactly when its images of the source's top generators
    pass this test (Auslander-Reiten-Smalo, I.3 and III.2)."""
    alg = N.algebra
    at: dict[str, list] = {v: [] for v in N.dims}
    for v, x in elems:
        at[v].append(x)
    for v, n in N.dims.items():
        if not n:
            continue
        rows = at[v] + _radical_rows(alg, N.action, v)
        if len(rows) < n or rank(Matrix(alg.field, len(rows), n, rows)) < n:
            return False
    return True


def _top_images(spaces: Sequence[HomSpace]) -> list[tuple[str, Sequence]]:
    """The generator images that the vectors of the Hom spaces list."""
    return [e for H in spaces for x in H.vecs for e in H._images(x)]


# ---------------------------------------------------------------------------
# add-membership and isomorphism


def _generator_row(M: Representation) -> tuple[dict, int]:
    """id_M read at M's top generators: the sparse row listing each
    generator m_j of M's cover step (``rep._step``) at v_j, one after another,
    and its width sum_j dim M_{v_j}."""
    row, width = {}, 0
    for v, g in _step(M).gens:
        row.update((c, x) for c, x in enumerate(g, width) if x)
        width += M.dims[v]
    return row, width


def _composite_rows(H: HomSpace, bs: Sequence[dict]) -> list[dict]:
    """The composites h then b, read at the top generators m_j of M, as
    sparse {column: value} rows in the layout of a vector of hom(M, N)
    (for N = M, of ``_generator_row``).

    h runs over the vectors of H = hom(M, X), which list h(m_j), and b over
    bs, maps X -> N given by their per-vertex matrices; the row lists
    b_{v_j}(h(m_j)).  A map out of M is fixed by its generator images, so
    the reading is injective on Hom(M, N).  A zero composite gives no row.
    """
    z = H.src.algebra.field.zero
    rows = []
    for x in H.vecs:
        images = H._images(x)
        for b in bs:
            vals = [e for v, y in images for e in b[v].act(y)]
            row = {c: e for c, e in enumerate(vals) if e is not z and e}
            if row:
                rows.append(row)
    return rows


def _identity_in_trace(M: Representation,
                       pairs: Sequence[tuple[HomSpace, list]],
                       base: Sequence[dict] = ()) -> bool:
    """Is id_M in the span of the rows ``base`` and the composites h then b,
    h over the vectors of H and b over bs, for each (H, bs) in pairs?

    H is hom(M, X) and bs maps X -> M.  Every row is read at M's top
    generators (``_composite_rows``), a width of sum_j dim M_{v_j}; the
    reading is injective on End(M), so id_M is in the span exactly when its
    generator row is.  The rows are reduced once, sparse; ``base`` is
    copied.
    """
    rows = [dict(r) for r in base]
    for H, bs in pairs:
        rows += _composite_rows(H, [b.mats for b in bs])
    ident, width = _generator_row(M)
    return sparse_span_contains(M.algebra.field, rows, width, ident)


def _homs_into(M: Representation, gens: Sequence[Representation],
               ) -> list[tuple[Representation, HomSpace]] | None:
    """(g, hom(g, M)) for each generator g, or None when M is certified
    isomorphic to one of them, which puts M in add G.

    Every generator with M's dimension vector is tried by
    ``_iso_certificate(g, M)`` before any other Hom space is built: equal
    matrices certify with none, and the Hom space a failed certificate
    built is reused.
    """
    tried = []
    for g in gens:
        iso, H = _iso_certificate(g, M)
        if iso:
            return None
        tried.append(H)
    return [(g, hom(g, M) if H is None else H) for g, H in zip(gens, tried)]


def add_membership(M: Representation, gens: Sequence[Representation]) -> bool:
    """Is M a direct summand of a finite sum of copies of the given modules?

    An isomorphism to one generator settles it first (``_homs_into``).
    Otherwise the trace criterion decides (Auslander-Reiten-Smalo,
    *Representation Theory of Artin Algebras*): M is in add G exactly when
    id_M factors through a sum of copies of the generators.  Every map
    M -> G^n -> M is a sum of composites M -> g -> M, so this holds exactly
    when id_M lies in the span of the composites h.b, with h over the
    vectors of hom(M, g) and b over the basis maps of hom(g, M).  The maps
    g -> M must together be onto, which rejects early: their generator
    images with rad M must span M (``_spans_top``).  hom(M, g) is skipped
    for a g with hom(g, M) = 0.  The composites are read at M's top
    generators (``_identity_in_trace``), reduced once as sparse rows, and
    id_M is read off the echelon rows.

    Membership up to projective summands, M in add(G + A), is
    ``stable_add_membership``, which reuses the isomorphism certificates
    and the trace test with the maps through M's cached projective cover in
    place of the projective generators.
    """
    if M.total_dim == 0:
        return True
    if not gens:
        return False
    _same_algebra(M, *gens)
    into = _homs_into(M, gens)
    if into is None:
        return True
    if not _spans_top(M, _top_images([H for _, H in into])):
        return False
    return _identity_in_trace(
        M, [(hom(M, g), H.basis) for g, H in into if H.dim])


def _iso_certificate(M: Representation, N: Representation,
                     ) -> tuple[bool, HomSpace | None]:
    """(M and N are certified isomorphic, hom(M, N) if built).

    Equal matrices certify by the identity, with no Hom space built.  Else
    a vector of hom(M, N) certifies when its generator images, with rad N,
    span N (``_spans_top``): the map is onto, and with equal dimension
    vectors an isomorphism.  No morphism is built, and nothing at all when
    the dimension vectors differ."""
    if M.dims != N.dims:
        return False, None
    if M.action == N.action:
        return True, None
    H = hom(M, N)
    return any(_spans_top(N, H._images(x)) for x in H.vecs), H


def is_isomorphic(M: Representation, N: Representation) -> bool | None:
    """Literal isomorphism test, certified or undetermined (None).

    True on an isomorphism certificate (``_iso_certificate``).  False when
    the dimension vectors differ, or when the generator images of all the
    vectors of Hom(M, N) together, with rad N, miss part of N
    (``_spans_top``): then no map is onto.  This decides every N with a
    simple top, such as P(v), and every Hom of dimension <= 1.
    """
    _same_algebra(M, N)
    iso, H = _iso_certificate(M, N)
    if iso or H is None:
        return iso
    return None if _spans_top(N, _top_images([H])) else False


# ---------------------------------------------------------------------------
# the stable category


class StableHomSpace:
    """Hom(M, N) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the cover
    of N, so the projective subspace is the image of composition with the
    cover's augmentation (``_cover_composites``), read in the coordinates
    of ``hom(M, N)`` at M's top generators.  Quotient coordinates are read
    off the non-pivot positions of that subspace's row echelon form.
    """

    def __init__(self, M: Representation, N: Representation):
        fld = _same_algebra(M, N).field
        self.hom = hom(M, N)
        bmat = self.hom._bmat
        comps = Matrix.from_rows(
            fld, [[r.get(c, fld.zero) for c in range(bmat.cols)]
                  for r in _cover_composites(M, N)], bmat.cols)
        sol = echelon_solve(bmat, comps)
        if sol is None:
            raise InternalCheckFailed("composite with the cover is outside Hom")
        red, piv = rref(sol)
        self._field = fld
        self._red = Matrix.from_rows(fld, red.entries[:len(piv)], bmat.rows)
        self._piv = piv
        pivset = set(piv)
        self._nonpiv = [j for j in range(self.hom.dim) if j not in pivset]

    @property
    def dim(self) -> int:
        return len(self._nonpiv)

    def coords_mod(self, f: RepMorphism) -> tuple:
        fld = self._field
        c = self.hom.coords(f)
        proj = self._red.act([c[p] for p in self._piv])
        c = [fld.sub(a, b) for a, b in zip(c, proj)]
        if any(c[p] for p in self._piv):
            raise InternalCheckFailed("coordinates not reduced at a pivot")
        return tuple(c[q] for q in self._nonpiv)

    def class_rep(self, qcoords) -> RepMorphism:
        coeffs = [self._field.zero] * self.hom.dim
        for q, val in zip(self._nonpiv, qcoords):
            coeffs[q] = val
        return self.hom.element(coeffs)

    def basis_classes(self) -> list[RepMorphism]:
        return [self.hom.basis[q] for q in self._nonpiv]


def stable_hom(M: Representation, N: Representation) -> StableHomSpace:
    return StableHomSpace(M, N)


def _stable_dim_from_ranks(A: Representation, B: Representation) -> int:
    h = hom_dim(A, B)
    hp = sum(hom_dim(A, projective_module(A.algebra, v))
             for v in _step(B).vertices)
    hk = hom_dim(A, _cover_step(B)[1])
    if hk > hp:
        raise InternalCheckFailed("Hom into the syzygy exceeds Hom into the cover")
    d = h - hp + hk
    if not 0 <= d <= h:
        raise InternalCheckFailed("stable Hom dimension out of range")
    return d


def _stable_dim(A: Representation, B: Representation) -> int:
    """dim of stable Hom(A, B), memoised in A's record by B's content.

    Read from the exact sequence 0 -> Hom(A, Omega B) -> Hom(A, P_B) ->
    Hom(A, B) of B's cached cover step, whose last map has as image the
    maps that factor through a projective:

        dim Hom(A, B) - sum_v dim Hom(A, P_v) + dim Hom(A, Omega B),

    v over the cover's summands.  The bounds exactness forces are checked
    with explicit raises: dim Hom(A, Omega B) <= dim Hom(A, P_B), and
    0 <= result <= dim Hom(A, B); a violation is InternalCheckFailed.
    """
    _same_algebra(A, B)
    return _memoised(A, ("stable", _record(B).content),
                     _stable_dim_from_ranks, A, B)


def stable_end_dim(M: Representation) -> int:
    """dim of the stable endomorphism space of M.

    The diagonal of the stable-dimension memo, so it is computed once per
    module and shared with every stable Hom dimension asked of (M, M).
    """
    return _stable_dim(M, M)


def _projective_end_rows(M: Representation) -> list[dict]:
    """Echelon rows spanning P(M, M) = {h then eps : h in Hom(M, P_M)},
    each map read at M's top generators (``_composite_rows``), with h
    taken from its Hom vector and no map built.  Memoised in M's record as
    plain {column: scalar} dicts."""
    return _memoised(M, "proj_end", _projective_end_span, M)


def _projective_end_span(M: Representation) -> list[dict]:
    rows = _cover_composites(M, M)
    return rows[:len(_eliminate(M.algebra.field, rows, _generator_row(M)[1]))]


def _cover_composites(M: Representation, N: Representation) -> list[dict]:
    """The composites h then eps, h over the vectors of hom(M, P_N) and eps:
    P_N -> N the cover map (``rep._cover_maps``), read at M's top
    generators (``_composite_rows``): they span the maps M -> N that factor
    through a projective."""
    eps = _cover_maps(N)[0]
    return _composite_rows(hom(M, eps.src), [eps.mats])


def stable_add_membership(M: Representation,
                          gens: Sequence[Representation]) -> bool:
    """Is M in add(G + A), that is, in add G in the stable category?

    The answer of ``add_membership(M, gens + projectives)``, with no
    projective generator built.  An isomorphism to one generator settles it
    first (``_homs_into``); otherwise id_M must lie in the span of the
    composites M -> g -> M plus P(M, M) (``_projective_end_rows``).  There
    is no per-vertex rank pre-check: with the projectives among the
    generators it never fails, as every x in M_v is the image of a map
    P(v) -> M.
    """
    if M.total_dim == 0:
        return True
    _same_algebra(M, *gens)
    into = _homs_into(M, gens)
    if into is None:
        return True
    return _identity_in_trace(
        M, [(hom(M, g), H.basis) for g, H in into if H.dim],
        _projective_end_rows(M))


def stable_iso(A: Representation, B: Representation) -> bool:
    """Do A and B lie in one stable class?  Memoised in A's record by B's
    content.

    The gates run in the order of the module docstring.  The isomorphism
    certificate is one B -> A; hom(B, A), if it did not build it, comes
    next, and hom(A, B) only when that is nonzero (else A, which is not
    projective, matches nothing), each Hom space serving both trace tests:
    its vectors as the first map of one test's composites, its basis maps
    as the second map of the other's.
    """
    _same_algebra(A, B)
    if A is B or A.dims == B.dims and A.action == B.action:
        return True
    return _memoised(A, ("match", _record(B).content),
                     _stably_isomorphic, A, B)


def _stably_isomorphic(A: Representation, B: Representation) -> bool:
    za, zb = is_projective(A), is_projective(B)
    if za or zb:
        return za and zb
    if _step(A).dims != _step(B).dims:
        return False
    iso, ba = _iso_certificate(B, A)
    if iso:
        return True
    if stable_end_dim(A) != stable_end_dim(B):
        return False
    if ba is None:
        ba = hom(B, A)
    if not ba.dim:
        # A is not projective, so id_A factors through no projective
        return False
    ab = hom(A, B)
    return (_identity_in_trace(A, [(ab, ba.basis)], _projective_end_rows(A))
            and _identity_in_trace(B, [(ba, ab.basis)],
                                   _projective_end_rows(B)))
