"""Subcategory specifications, approximations, and cluster-tilting checks.

A subcategory is described by a finite list of generator modules together
with a degree d.  Approximations are the universal ones: the source of a
right approximation of N is the sum of one generator copy per hom-basis
element, so factoring properties hold by construction and minimality is
never assumed.  Verification comes in two modes.  Certificate mode checks
rigidity, generation, cogeneration, and closure of d-th syzygies, which is
everything that can be decided from the generator list alone.  Full mode
runs when a complete list of indecomposables is given, and additionally
checks both Ext-orthogonality equalities against it.

Two facts keep the checks small.  First, add G generates mod A iff every
projective P(v) is a quotient of add G, and cogenerates iff every injective
I(v) embeds in add G (Auslander-Reiten-Smalo, *Representation Theory of
Artin Algebras*).  P(v) has a simple top and I(v) a simple socle, so each
test is a comparison of two Hom dimensions against one generator, with no
approximation built; the projectives are scanned by approximations only
to name the first cogeneration failure.  Second, Ext^t(M, X_1 + ... + X_n)
is the direct sum of the Ext^t(M, X_k), so whether Ext^t(M, -) vanishes on
a whole list is one ``ext_dim`` against the direct sum; the pairs are
scanned only when it is nonzero, to name the first witness.

The left side is the dual of the right side: D = Hom_k(-, k) takes mod A
to mod A^op and exchanges monos and epis, kernels and cokernels, left and
right approximations.  Left approximations, d-coresolutions and the
cogeneration failure scan are D of right ones over A^op with respect to DG.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import InternalCheckFailed, Matrix, rank
from .quiver_algebra import BoundQuiverAlgebra, opposite_algebra
from .rep import (
    AlgebraMismatch,
    RepMorphism,
    Representation,
    _record,
    _step,
    direct_sum,
    dual_module,
    injective_mod_socle,
    injective_module,
    is_onto,
    is_projective,
    kernel,
    projective_module,
    projective_radical,
    projectives,
    zero_rep,
)
from .homspace import add_membership, hom, hom_dim, stable_add_membership
from .homology import ext_dim, resolve, syzygy

class IncompleteIndecList(ValueError):
    """The supplied indecomposable list fails a completeness sanity check."""


class ApproximationNotEpi(RuntimeError):
    """A right approximation missed part of its target (spec not generating)."""


class ApproximationNotMono(RuntimeError):
    """A left approximation killed part of its source (spec not cogenerating)."""


class FinalTermNotInSubcategory(RuntimeError):
    """The last kernel of a d-resolution walk is not an add-member."""


class SubcatSpec:
    """A finite list of generator modules with a tilting degree d.

    Generators are taken as given: each is expected to be a nonzero
    indecomposable, and indecomposability is the caller's assertion, not
    re-verified here.  ``labels`` names generators in reports, and reports
    key their entries by it, so no two may be equal; ``claims``
    is an optional list of claim tags carried through serialization, and a
    ``skeleton_count=N`` tag must give a non-negative integer N; the first
    such N is ``claimed_count`` (None without one).
    """

    def __init__(self, algebra: BoundQuiverAlgebra,
                 generators: list[Representation], d: int,
                 labels: list[str] | None = None,
                 claims: list[str] | None = None):
        if d < 1:
            raise ValueError("tilting degree must be at least 1")
        if not generators:
            raise ValueError("a subcategory spec needs at least one generator")
        for g in generators:
            if g.algebra is not algebra:
                raise AlgebraMismatch("generator over a different algebra")
            if g.total_dim == 0:
                raise ValueError("zero module cannot be a generator")
        if labels is None:
            labels = [f"G{i}" for i in range(len(generators))]
        if len(labels) != len(generators):
            raise ValueError("label count does not match generator count")
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"repeated generator label {label!r}")
        self.algebra = algebra
        self.generators = list(generators)
        self.d = d
        self.labels = list(labels)
        self.claims = list(claims) if claims else []
        counts = [(tag, tag.partition("=")[2]) for tag in self.claims
                  if tag.startswith("skeleton_count=")]
        for tag, count in counts:
            if not count.isdecimal():
                raise ValueError(f"claim {tag!r} is not a non-negative count")
        self.claimed_count = int(counts[0][1]) if counts else None

    def label(self, i: int) -> str:
        return self.labels[i]

    def by_label(self, label: str) -> Representation:
        return self.generators[self.labels.index(label)]


@dataclass
class Check:
    ok: bool
    witness: object = None
    note: str = ""


@dataclass
class CTReport:
    mode: str
    checks: dict[str, Check]
    verdict: str  # "verified" | "refuted" | "certificate_only"
    counterexample: object = None


# ---------------------------------------------------------------------------
# approximations


def right_approximation(spec: SubcatSpec, N: Representation) -> RepMorphism:
    """The universal map onto N from a sum of copies of the generators.

    One copy of G per basis element of hom(G, N); every morphism from a
    generator to N factors through it by construction.  The source is the
    zero module when no generator maps to N.
    """
    alg = spec.algebra
    if N.algebra is not alg:
        raise AlgebraMismatch("target lives over a different algebra")
    pieces: list[RepMorphism] = []
    srcs: list[Representation] = []
    for g in spec.generators:
        for b in hom(g, N).basis:
            pieces.append(b)
            srcs.append(g)
    if not pieces:
        return RepMorphism(zero_rep(alg), N, {}, check=False)
    mats = {v: Matrix.from_rows(alg.field,
                                [r for b in pieces for r in b.mats[v].entries],
                                N.dims[v])
            for v in alg.quiver.vertices}
    return RepMorphism(direct_sum(srcs), N, mats, check=False)


def _dual_spec(spec: SubcatSpec) -> SubcatSpec:
    """D of the spec over the opposite algebra, built once and kept."""
    if not hasattr(spec, "_dual"):
        op = opposite_algebra(spec.algebra)
        gens = [dual_module(op, g) for g in spec.generators]
        spec._dual = SubcatSpec(op, gens, spec.d, spec.labels)
    return spec._dual


def _dual_map(f: RepMorphism, src: Representation,
              tgt: Representation) -> RepMorphism:
    """D f: D(f.tgt) -> D(f.src), every block transposed, between the
    given copies of those modules, so ``compose`` matches them by identity."""
    return RepMorphism(src, tgt, {v: m.transpose() for v, m in f.mats.items()},
                       check=False)


def left_approximation(spec: SubcatSpec, N: Representation) -> RepMorphism:
    """The universal map from N into a sum of generator copies: D of the
    right approximation of DN, one copy of g per basis map Dg -> DN."""
    alg = spec.algebra
    if N.algebra is not alg:
        raise AlgebraMismatch("source lives over a different algebra")
    dspec = _dual_spec(spec)
    f = right_approximation(dspec, dual_module(dspec.algebra, N))
    return _dual_map(f, N, dual_module(alg, f.src))


# ---------------------------------------------------------------------------
# fragment checks


def verify_rigid(spec: SubcatSpec) -> Check:
    """No self-extensions among generators in degrees 1..d-1.

    For each degree t and generator g_i, one ``ext_dim`` against the direct
    sum of all generators (built once) decides whether Ext^t(g_i, g_j)
    vanishes for every j.  Only a nonzero sum scans the j, so the witness
    is the first nonzero pair in (t, i, j) order.
    """
    d = spec.d
    if d == 1:
        return Check(True, note="degree range empty for d=1")
    gens = spec.generators
    total = direct_sum(gens)
    for t in range(1, d):
        for i, gi in enumerate(gens):
            if not ext_dim(gi, total, t):
                continue
            for j, gj in enumerate(gens):
                dim = ext_dim(gi, gj, t)
                if dim:
                    return Check(False,
                                 witness=(spec.labels[i], spec.labels[j], t),
                                 note=f"ext dimension {dim}")
            raise InternalCheckFailed(
                "Ext into the direct sum is nonzero but vanishes on every summand")
    return Check(True)


def _first_failure(tests: list[tuple[str, object]], passes,
                   note: str) -> Check:
    for name, T in tests:
        if not passes(T):
            return Check(False, witness=name, note=note)
    return Check(True)


def _fits(g: Representation, T: Representation) -> bool:
    # only a g at least as large as T at every vertex maps onto T or
    # takes T in one-to-one
    return all(g.dims[w] >= n for w, n in T.dims.items())


def verify_gen_cogen(spec: SubcatSpec) -> dict[str, Check]:
    """Does add G generate and cogenerate mod A?  Decided by Hom dimensions.

    add G generates iff every P(v) is a quotient of add G, and cogenerates
    iff every I(v) embeds in it.  P(v) is local, so a map onto P(v) is one
    that misses rad P(v): P(v) is a quotient iff some generator g,
    decomposable or not, has hom_dim(g, P(v)) > hom_dim(g, rad P(v)).  The
    socle of I(v) is simple and essential, and Hom(-, g) is left exact:
    I(v) embeds iff hom_dim(I(v), g) > hom_dim(I(v)/soc, g) for some g.
    A failure is named by the first failing test module in the order P(v),
    then I(v): a failed cogeneration scans the projectives, by
    approximations over A^op, before reporting its injective.  A simple
    S(v) never fails first, as a quotient of P(v) that embeds in I(v).
    """
    alg, gens = spec.algebra, spec.generators

    def onto(v):
        P, R = projective_module(alg, v), projective_radical(alg, v)
        return any(_fits(g, P) and hom_dim(g, P) > hom_dim(g, R) for g in gens)

    def into(v):
        I, Q = injective_module(alg, v), injective_mod_socle(alg, v)
        return any(_fits(g, I) and hom_dim(I, g) > hom_dim(Q, g) for g in gens)

    vs = alg.quiver.vertices
    generating = _first_failure([(f"P({v})", v) for v in vs], onto,
                                "right approximation is not onto")
    note = "left approximation is not injective"
    cogenerating = _first_failure([(f"I({v})", v) for v in vs], into, note)
    if not cogenerating.ok:
        # T -> add G is one-to-one iff its dual DG -> DT is onto, and D P(v)
        # is the cached I(v) of A^op, same vertex order
        dspec = _dual_spec(spec)
        first = _first_failure(
            [(f"P({v})", injective_module(dspec.algebra, v)) for v in vs],
            lambda T: is_onto(right_approximation(dspec, T)), note)
        if not first.ok:
            cogenerating = first
    return {"generating": generating, "cogenerating": cogenerating}


def verify_dZ_closure(spec: SubcatSpec) -> Check:
    """Each d-th syzygy of a generator lies in add(generators + projectives).

    Decided by ``homspace.stable_add_membership``, with no projective
    generator: id_X must lie in the span of the composites X -> g -> X plus
    P(X, X), the maps through X's cached projective cover, which are exactly
    the composites through the projectives.  A projective X
    (``rep.is_projective``) lies in add A, and each non-projective
    content of X is tested once.
    """
    tested = set()
    for i, g in enumerate(spec.generators):
        X = syzygy(g, spec.d)
        key = _record(X).content
        if key in tested or is_projective(X):
            continue
        if not stable_add_membership(X, spec.generators):
            return Check(False, witness=spec.labels[i],
                         note="d-th syzygy escapes the additive closure")
        tested.add(key)
    return Check(True)


def verify_cluster_tilting(spec: SubcatSpec,
                           indec_list: list[Representation] | None = None,
                           ) -> CTReport:
    mode = "certificate" if indec_list is None else "full"
    checks: dict[str, Check] = {}
    checks["rigid"] = verify_rigid(spec)
    gc = verify_gen_cogen(spec)
    checks["generating"] = gc["generating"]
    checks["cogenerating"] = gc["cogenerating"]
    checks["dZ_closure"] = verify_dZ_closure(spec)
    checks["functorially_finite"] = Check(
        True, note="universal approximations exist for finite generator lists")
    failed = [(name, c) for name, c in checks.items() if not c.ok]
    if failed:
        return CTReport(mode, checks, "refuted",
                        counterexample=(failed[0][0], failed[0][1].witness))
    if indec_list is None:
        return CTReport(mode, checks, "certificate_only")

    _indec_list_sanity(spec.algebra, indec_list)
    d, gens = spec.d, spec.generators
    for L in indec_list:
        # C^perp (Ext(C, L) = 0) and perp C (Ext(L, C) = 0) must each be add C
        right = all(ext_dim(g, L, t) == 0 for t in range(1, d) for g in gens)
        left = all(ext_dim(L, g, t) == 0 for t in range(1, d) for g in gens)
        member = add_membership(L, gens)
        if right != member or left != member:
            side = "right, Ext(C, L) = 0" if right else "left, Ext(L, C) = 0"
            checks["orthogonality_equality"] = Check(
                False, witness=L, note="generator summand with self-extension"
                if member else "Ext-orthogonal module outside add(generators)"
                f" on the {side}")
            return CTReport(mode, checks, "refuted", counterexample=L)
    checks["orthogonality_equality"] = Check(True)
    return CTReport(mode, checks, "verified")


def _is_copy_of_projective(L: Representation, v: str,
                           p: Representation) -> bool:
    """Is L isomorphic to p = P(v)?

    Exactly when L has the dimension vector of P(v) and its cover step
    (``rep._step``) has a single summand, P(v): the cover P(v) -> L is then
    onto between spaces of equal dimension, so it is an isomorphism.
    """
    return L.dims == p.dims and _step(L).vertices == (v,)


def _indec_list_sanity(alg: BoundQuiverAlgebra,
                       indec_list: list[Representation]) -> None:
    """A complete list must contain every projective, and the matched
    projectives must account for the algebra's dimension via Hom sums."""
    matched: dict[str, Representation] = {}
    for v, p in projectives(alg):
        for L in indec_list:
            if _is_copy_of_projective(L, v, p):
                matched[v] = L
                break
        else:
            raise IncompleteIndecList(f"no copy of the projective at {v!r}")
    total = sum(hom_dim(matched[u], matched[v])
                for u in matched for v in matched)
    if total != alg.dimension:
        raise IncompleteIndecList(
            f"hom sums over matched projectives give {total}, "
            f"algebra dimension is {alg.dimension}")


# ---------------------------------------------------------------------------
# resolutions by approximations


@dataclass
class DResolution:
    """An exact sequence 0 -> terms[-1] -> ... -> terms[0] -> E -> 0."""
    terms: list[Representation]
    aug: RepMorphism               # terms[0] -> E
    diffs: list[RepMorphism]       # diffs[i]: terms[i+1] -> terms[i]


@dataclass
class DCoresolution:
    """An exact sequence 0 -> E -> terms[0] -> ... -> terms[-1] -> 0."""
    terms: list[Representation]
    coaug: RepMorphism             # E -> terms[0]
    diffs: list[RepMorphism]       # diffs[i]: terms[i] -> terms[i+1]


def d_resolution(spec: SubcatSpec, E: Representation) -> DResolution:
    """Iterated kernels of right approximations, at most d terms.

    The walk stops as soon as a kernel vanishes or lands in the additive
    closure of the generators; a shorter output therefore witnesses more
    Ext-vanishing against the generators, one degree per unused slot.
    """
    if add_membership(E, spec.generators):
        return DResolution([E], RepMorphism.identity(E), [])
    terms: list[Representation] = []
    approx: list[RepMorphism | None] = []
    incs: list[RepMorphism] = []
    cur = E
    while True:
        f = right_approximation(spec, cur)
        if not is_onto(f):
            raise ApproximationNotEpi(
                "right approximation misses part of its target; "
                "the spec does not generate")
        terms.append(f.src)
        approx.append(f)
        K, inc = kernel(f)
        if K.total_dim == 0:
            break
        incs.append(inc)
        if len(terms) < spec.d and add_membership(K, spec.generators):
            terms.append(K)
            approx.append(None)
            break
        if len(terms) >= spec.d:
            raise FinalTermNotInSubcategory(
                f"kernel after {spec.d} approximation steps is nonzero "
                "and outside add(generators)")
        cur = K
    diffs: list[RepMorphism] = []
    for i in range(len(terms) - 1):
        nxt = approx[i + 1]
        diffs.append(incs[i] if nxt is None else nxt.compose(incs[i]))
    if not _is_exact(diffs[::-1] + [approx[0]]):
        raise InternalCheckFailed("assembled resolution failed exactness")
    return DResolution(terms, approx[0], diffs)


def _is_exact(maps: list[RepMorphism]) -> bool:
    """Is 0 -> X_0 -> X_1 -> ... -> X_n -> 0 exact, maps[i]: X_i -> X_{i+1}?

    Consecutive maps compose to zero, and at every object, the two ends
    included, the ranks of the incoming and outgoing maps add up to its
    dimension at each vertex.
    """
    for f, g in zip(maps, maps[1:]):
        if not f.compose(g).is_zero():
            return False
    ranks = [{v: rank(m) for v, m in f.mats.items()} for f in maps]
    objects = [maps[0].src] + [f.tgt for f in maps]
    for i, X in enumerate(objects):
        incoming = ranks[i - 1] if i else {}
        outgoing = ranks[i] if i < len(maps) else {}
        for v, n in X.dims.items():
            if incoming.get(v, 0) + outgoing.get(v, 0) != n:
                return False
    return True


def d_coresolution(spec: SubcatSpec, E: Representation) -> DCoresolution:
    """Iterated cokernels of left approximations, at most d terms: D of
    ``d_resolution`` of DE over A^op, whose exactness check D preserves."""
    alg = spec.algebra
    if E.algebra is not alg:
        raise AlgebraMismatch("module lives over a different algebra")
    dspec = _dual_spec(spec)
    try:
        res = d_resolution(dspec, dual_module(dspec.algebra, E))
    except ApproximationNotEpi as e:
        raise ApproximationNotMono(
            "left approximation kills part of its source; "
            "the spec does not cogenerate") from e
    except FinalTermNotInSubcategory as e:
        raise FinalTermNotInSubcategory(
            f"cokernel after {spec.d} approximation steps is nonzero "
            "and outside add(generators)") from e
    terms = [dual_module(alg, T) for T in res.terms]
    diffs = [_dual_map(f, terms[i], terms[i + 1])
             for i, f in enumerate(res.diffs)]
    return DCoresolution(terms, _dual_map(res.aug, E, terms[0]), diffs)


# ---------------------------------------------------------------------------
# standard angles


@dataclass
class Angle:
    """The d+2 objects and d+1 maps of a standard angle."""
    objects: list[Representation]
    maps: list[RepMorphism]
    d: int


def standard_angle(spec: SubcatSpec, X: Representation,
                   d: int | None = None) -> Angle:
    """The angle spliced from the minimal resolution segment of X.

    Objects are [d-th syzygy, cover_{d-1}, ..., cover_0, X]; a projective
    d-th syzygy is allowed and gives a degenerate (stably zero) first term.
    """
    if d is None:
        d = spec.d
    if is_projective(X):
        raise ValueError("angle needs a non-projective end term")
    res = resolve(X, d - 1)
    objects = [res.kernels[d]] \
        + [res.covers[i].rep for i in range(d - 1, -1, -1)] + [X]
    maps = [res.incs[d - 1]] \
        + [res.diff(i) for i in range(d - 1, 0, -1)] + [res.eps[0]]
    if not _is_exact(maps):
        raise InternalCheckFailed("angle fails exactness")
    return Angle(objects, maps, d)
